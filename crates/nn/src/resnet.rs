//! Layer tables of ResNet-18 and ResNet-50 (ImageNet geometry).
//!
//! Only the linear (convolution + fully-connected) layers matter for the
//! hybrid protocol — non-linearities run under 2PC. The tables below
//! enumerate every convolution in execution order with its exact input
//! geometry, matching torchvision's reference models.

use crate::layers::{pool_out_dims, ConvLayerSpec};
use crate::program::{Conv, Op, Program, Stage, ValueId};
use crate::quant::{Quantizer, Requantizer};
use rand::Rng;
use std::collections::HashMap;

/// A network's linear-layer inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    /// Model name (`"resnet18"` / `"resnet50"`).
    pub name: String,
    /// All convolutions in execution order.
    pub convs: Vec<ConvLayerSpec>,
    /// The fully-connected layers `(in_features, out_features)`, in
    /// execution order (ResNets have one; VGG has three).
    pub fcs: Vec<(usize, usize)>,
}

impl Network {
    /// Total cleartext MACs over all conv layers.
    pub fn total_macs(&self) -> u64 {
        self.convs.iter().map(|l| l.macs()).sum::<u64>()
            + self.fcs.iter().map(|&(i, o)| (i * o) as u64).sum::<u64>()
    }

    /// Looks a layer up by (1-based) index, the numbering used by the
    /// paper's "layer 28 / layer 41 of ResNet-50".
    pub fn layer(&self, index_1based: usize) -> &ConvLayerSpec {
        &self.convs[index_1based - 1]
    }
}

fn conv(
    name: String,
    c: usize,
    h: usize,
    m: usize,
    k: usize,
    stride: usize,
    pad: usize,
) -> ConvLayerSpec {
    ConvLayerSpec {
        name,
        c,
        h,
        w: h,
        m,
        k,
        stride,
        pad,
    }
}

/// The convolution layers of ResNet-18.
pub fn resnet18_conv_layers() -> Network {
    let mut v = Vec::new();
    v.push(conv("conv1".into(), 3, 224, 64, 7, 2, 3));
    // After 3x3/2 max-pool: 56x56.
    let stages = [
        (64usize, 64usize, 56usize, 1usize), // layer1
        (64, 128, 56, 2),                    // layer2 (input H of first conv)
        (128, 256, 28, 2),                   // layer3
        (256, 512, 14, 2),                   // layer4
    ];
    for (si, &(c_in, c_out, h_in, first_stride)) in stages.iter().enumerate() {
        let stage = si + 1;
        for block in 0..2 {
            let (bc, bh, bs) = if block == 0 {
                (c_in, h_in, first_stride)
            } else {
                (c_out, h_in / first_stride, 1)
            };
            v.push(conv(
                format!("layer{stage}.{block}.conv1"),
                bc,
                bh,
                c_out,
                3,
                bs,
                1,
            ));
            v.push(conv(
                format!("layer{stage}.{block}.conv2"),
                c_out,
                h_in / first_stride,
                c_out,
                3,
                1,
                1,
            ));
            if block == 0 && (first_stride != 1 || c_in != c_out) {
                v.push(conv(
                    format!("layer{stage}.{block}.downsample"),
                    c_in,
                    h_in,
                    c_out,
                    1,
                    first_stride,
                    0,
                ));
            }
        }
    }
    Network {
        name: "resnet18".into(),
        convs: v,
        fcs: vec![(512, 1000)],
    }
}

/// The convolution layers of ResNet-50 (bottleneck blocks, stride on the
/// 3×3 as in torchvision).
pub fn resnet50_conv_layers() -> Network {
    let mut v = Vec::new();
    v.push(conv("conv1".into(), 3, 224, 64, 7, 2, 3));
    let stages = [
        (256usize, 64usize, 56usize, 3usize, 1usize), // layer1: in 64 (after pool)
        (512, 128, 56, 4, 2),                         // layer2
        (1024, 256, 28, 6, 2),                        // layer3
        (2048, 512, 14, 3, 2),                        // layer4
    ];
    let mut c_in = 64; // channels entering the stage
    for (si, &(c_out, width, h_in, blocks, first_stride)) in stages.iter().enumerate() {
        let stage = si + 1;
        for block in 0..blocks {
            let (bc, bh, bs) = if block == 0 {
                (c_in, h_in, first_stride)
            } else {
                (c_out, h_in / first_stride, 1)
            };
            let h_mid = bh; // 1x1 keeps dims
            v.push(conv(
                format!("layer{stage}.{block}.conv1"),
                bc,
                bh,
                width,
                1,
                1,
                0,
            ));
            v.push(conv(
                format!("layer{stage}.{block}.conv2"),
                width,
                h_mid,
                width,
                3,
                bs,
                1,
            ));
            v.push(conv(
                format!("layer{stage}.{block}.conv3"),
                width,
                h_in / first_stride,
                c_out,
                1,
                1,
                0,
            ));
            if block == 0 {
                v.push(conv(
                    format!("layer{stage}.{block}.downsample"),
                    bc,
                    bh,
                    c_out,
                    1,
                    bs,
                    0,
                ));
            }
        }
        c_in = c_out;
    }
    Network {
        name: "resnet50".into(),
        convs: v,
        fcs: vec![(2048, 1000)],
    }
}

/// The convolution layers of VGG-16 — not evaluated by the paper, but a
/// useful stress case: all-3×3, no 1×1 layers, and a three-layer
/// classifier head, so the sparse dataflow sees only its harder pattern
/// class.
pub fn vgg16_conv_layers() -> Network {
    let cfg: [(usize, usize, usize, usize); 13] = [
        (3, 64, 224, 1),
        (64, 64, 224, 1),
        (64, 128, 112, 2),
        (128, 128, 112, 2),
        (128, 256, 56, 3),
        (256, 256, 56, 3),
        (256, 256, 56, 3),
        (256, 512, 28, 4),
        (512, 512, 28, 4),
        (512, 512, 28, 4),
        (512, 512, 14, 5),
        (512, 512, 14, 5),
        (512, 512, 14, 5),
    ];
    let mut block_idx = [0usize; 6];
    let convs = cfg
        .iter()
        .map(|&(c, m, h, stage)| {
            block_idx[stage] += 1;
            conv(
                format!("conv{stage}_{}", block_idx[stage]),
                c,
                h,
                m,
                3,
                1,
                1,
            )
        })
        .collect();
    Network {
        name: "vgg16".into(),
        convs,
        fcs: vec![(512 * 7 * 7, 4096), (4096, 4096), (4096, 1000)],
    }
}

/// One quantized convolution of the executable ResNet: reduced geometry
/// (the torchvision name is kept from the full table), W4 weights and
/// the calibrated re-quantizer of the stage that follows it.
#[derive(Debug, Clone)]
pub struct ConvUnit {
    /// Layer geometry.
    pub spec: ConvLayerSpec,
    /// Row-major quantized weights (`m·c·k·k`).
    pub weights: Vec<i64>,
    /// Re-quantizer applied after this convolution — after ReLU for the
    /// stem and `conv1` units, on the raw sum-product for `conv2` and
    /// `downsample` units (their ReLU comes after the residual add).
    pub rq: Requantizer,
}

impl ConvUnit {
    /// This unit as a program op reading `input`.
    fn op(&self, input: ValueId, stage: Stage) -> Op<'_> {
        Op::Conv(Conv {
            spec: &self.spec,
            weights: &self.weights,
            rq: self.rq,
            input,
            stage,
        })
    }
}

/// One basic block: two 3×3 convolutions plus the optional 1×1
/// projection on the identity path.
#[derive(Debug, Clone)]
pub struct ResBlock {
    /// First 3×3 (carries the block's stride).
    pub conv1: ConvUnit,
    /// Second 3×3 (stride 1).
    pub conv2: ConvUnit,
    /// 1×1 stride-2 projection on stage boundaries, absent otherwise.
    pub down: Option<ConvUnit>,
}

/// An *executable* quantized ResNet-18 with the full residual topology —
/// stem, 3×3/2 max-pool, eight basic blocks with identity/projection
/// shortcuts, global average pooling and the classifier — instantiated
/// at reduced width/resolution so the hybrid HE/2PC protocol can run it
/// end to end in test time. The topology (layer names, kernel sizes,
/// strides, channel ratios, downsample placement) is derived from
/// [`resnet18_conv_layers`]; only channel counts and spatial resolution
/// shrink.
#[derive(Debug, Clone)]
pub struct QuantResnet {
    /// Model name, e.g. `"resnet18-w8-h32"`.
    pub name: String,
    /// The 7×7/2 stem convolution.
    pub stem: ConvUnit,
    /// Stem max-pool `(k, stride, pad)` — 3×3/2, pad 1.
    pub pool: (usize, usize, usize),
    /// The eight basic blocks in execution order.
    pub blocks: Vec<ResBlock>,
    /// Classifier dimensions `(in_features, classes)`.
    pub fc: (usize, usize),
    /// Row-major `classes × in_features` classifier weights.
    pub fc_weights: Vec<i64>,
}

impl QuantResnet {
    /// Builds a width/resolution-reduced quantized ResNet-18: channel
    /// counts divide by `channel_div` (the 3-channel input stays), the
    /// input is `input_h × input_h`, and every re-quantizer is
    /// calibrated by a cleartext forward pass on random data.
    ///
    /// # Panics
    ///
    /// Panics on a zero divisor, `input_h < 8` (five stride-2 stages
    /// need the room) or fewer than two classes.
    pub fn reduced_resnet18<R: Rng>(
        channel_div: usize,
        input_h: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        assert!(channel_div >= 1, "channel divisor must be positive");
        assert!(input_h >= 8, "five stride-2 stages need input_h >= 8");
        assert!(classes >= 2, "need at least two classes");
        let full = resnet18_conv_layers();
        let wq = Quantizer::w4();
        let ch = |c: usize| if c == 3 { 3 } else { (c / channel_div).max(1) };
        let unit = |spec: &ConvLayerSpec, c: usize, h: usize, w: usize, rng: &mut R| {
            let spec = ConvLayerSpec {
                name: spec.name.clone(),
                c,
                h,
                w,
                m: ch(spec.m),
                k: spec.k,
                stride: spec.stride,
                pad: spec.pad,
            };
            let weights = spec.sample_weights(wq, rng);
            // placeholder; the calibration pass below overwrites it
            let rq = Requantizer {
                shift: 0,
                out_bits: 4,
            };
            ConvUnit { spec, weights, rq }
        };

        // Group the full table into stem + (conv1, conv2, downsample?)
        // triples, then rebuild each with reduced channels and spatial
        // dimensions propagated from the reduced input.
        let convs = &full.convs;
        let stem = unit(&convs[0], 3, input_h, input_h, rng);
        let (mut c, mut h, mut w) = (stem.spec.m, stem.spec.out_h(), stem.spec.out_w());
        let pool = (3usize, 2usize, 1usize);
        (h, w) = pool_out_dims(h, w, pool.0, pool.1, pool.2);
        let mut blocks = Vec::new();
        let mut i = 1;
        while i < convs.len() {
            let conv1 = unit(&convs[i], c, h, w, rng);
            let (m1, h1, w1) = (conv1.spec.m, conv1.spec.out_h(), conv1.spec.out_w());
            let conv2 = unit(&convs[i + 1], m1, h1, w1, rng);
            let down = convs
                .get(i + 2)
                .filter(|s| s.name.ends_with("downsample"))
                .map(|s| unit(s, c, h, w, rng));
            i += if down.is_some() { 3 } else { 2 };
            (c, h, w) = (conv2.spec.m, conv2.spec.out_h(), conv2.spec.out_w());
            blocks.push(ResBlock { conv1, conv2, down });
        }
        let fc_weights = (0..classes * c).map(|_| wq.sample(rng)).collect();
        let mut net = Self {
            name: format!("resnet18-w{channel_div}-h{input_h}"),
            stem,
            pool,
            blocks,
            fc: (c, classes),
            fc_weights,
        };
        // One calibration pass: each re-quantizer is derived from its
        // conv's raw sum-products, so every layer calibrates on properly
        // re-quantized upstream activations.
        let x = net.stem.spec.sample_input(Quantizer::a4(), rng);
        let mut rqs = HashMap::new();
        net.program().logits_with(&x, |conv, y| {
            let max_sp = y.iter().map(|v| v.abs()).max().unwrap_or(1).max(1);
            let rq = Requantizer::calibrate(max_sp, 4);
            rqs.insert(conv.spec.name.clone(), rq);
            rq
        });
        let blocks = net.blocks.iter_mut();
        let units = blocks.flat_map(|b| [Some(&mut b.conv1), Some(&mut b.conv2), b.down.as_mut()]);
        for u in std::iter::once(&mut net.stem).chain(units.flatten()) {
            u.rq = rqs[&u.spec.name];
        }
        net
    }

    /// The input tensor size (`3 · input_h²`).
    pub fn input_len(&self) -> usize {
        let s = &self.stem.spec;
        s.c * s.h * s.w
    }

    /// Every convolution in table order (stem, then per block `conv1`,
    /// `conv2`, `downsample?`), the order of [`resnet18_conv_layers`].
    pub fn units_in_order(&self) -> Vec<&ConvUnit> {
        let mut v = vec![&self.stem];
        for b in &self.blocks {
            v.push(&b.conv1);
            v.push(&b.conv2);
            if let Some(d) = &b.down {
                v.push(d);
            }
        }
        v
    }

    /// Exact integer inference; returns the logits.
    pub fn logits(&self, x: &[i64]) -> Vec<i64> {
        self.program().logits(x)
    }

    /// The network as a [`Program`]: stem conv (ReLU + requant), max-pool,
    /// then per block `conv1` (ReLU + requant), the `downsample`
    /// projection if any (requant), and `conv2` whose stage adds the
    /// shortcut before its ReLU; global average pooling and the
    /// classifier close it.
    pub fn program(&self) -> Program<'_> {
        let s = &self.stem.spec;
        let mut p = Program::new(&self.name, (s.c, s.h, s.w));
        let y = p.push(self.stem.op(0, Stage::ReluRequant));
        let (mut c, mut h, mut w) = (s.m, s.out_h(), s.out_w());
        let mut a = p.push(Op::MaxPool {
            input: y,
            shape: (c, h, w),
            window: self.pool,
        });
        let (k, stride, pad) = self.pool;
        (h, w) = pool_out_dims(h, w, k, stride, pad);
        for b in &self.blocks {
            let t = p.push(b.conv1.op(a, Stage::ReluRequant));
            let shortcut = match &b.down {
                Some(d) => p.push(d.op(a, Stage::Requant)),
                None => a,
            };
            a = p.push(b.conv2.op(t, Stage::RequantAddRelu(shortcut)));
            (c, h, w) = (b.conv2.spec.m, b.conv2.spec.out_h(), b.conv2.spec.out_w());
        }
        let pooled = p.push(Op::AvgPool {
            input: a,
            channels: c,
            spatial: h * w,
        });
        p.push(Op::Fc {
            input: pooled,
            weights: &self.fc_weights,
            dims: self.fc,
        });
        p
    }
}

/// The three convolutions of one ResNet-50 stage-1 residual block
/// (the Figure-1 profiling workload).
pub fn resnet50_residual_block() -> Vec<ConvLayerSpec> {
    vec![
        conv("block.conv1".into(), 256, 56, 64, 1, 1, 0),
        conv("block.conv2".into(), 64, 56, 64, 3, 1, 1),
        conv("block.conv3".into(), 64, 56, 256, 1, 1, 0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn resnet18_inventory() {
        let net = resnet18_conv_layers();
        // 1 stem + 4 stages x (2 blocks x 2 convs) + 3 downsamples = 20
        assert_eq!(net.convs.len(), 20);
        assert_eq!(net.convs[0].out_h(), 112);
        // last conv operates at 7x7 on 512 channels
        let last = net.convs.last().unwrap();
        assert_eq!(last.h, 7);
        assert_eq!(last.m, 512);
        // total macs ~ 1.8 GMACs for ResNet-18
        let g = net.total_macs() as f64 / 1e9;
        assert!((1.5..2.2).contains(&g), "GMACs = {g}");
    }

    #[test]
    fn resnet50_inventory() {
        let net = resnet50_conv_layers();
        // 1 stem + 3*(3)+1 + 4*3+1 + 6*3+1 + 3*3+1 = 53
        assert_eq!(net.convs.len(), 53);
        // total macs ~ 4.1 GMACs for ResNet-50
        let g = net.total_macs() as f64 / 1e9;
        assert!((3.5..4.5).contains(&g), "GMACs = {g}");
        // the paper's H = W = 56 (58 padded), k = 3 layers exist
        assert!(net
            .convs
            .iter()
            .any(|l| l.h == 56 && l.k == 3 && l.stride == 1 && l.pad == 1));
    }

    #[test]
    fn resnet50_channel_flow_is_consistent() {
        let net = resnet50_conv_layers();
        // every 3x3 conv has matching in/out widths within its block
        for l in &net.convs {
            if l.name.ends_with("conv2") {
                assert_eq!(l.c, l.m, "{}", l.name);
            }
        }
        // stage outputs: 256, 512, 1024, 2048
        assert!(net.convs.iter().any(|l| l.m == 2048));
        assert_eq!(net.fcs, vec![(2048, 1000)]);
    }

    #[test]
    fn paper_reference_layers_exist() {
        let net = resnet50_conv_layers();
        let l28 = net.layer(28);
        let l41 = net.layer(41);
        // both are mid/late-network layers at 28x28 or 14x14
        assert!(l28.h == 28 || l28.h == 14, "layer 28 at H={}", l28.h);
        assert!(l41.h == 14 || l41.h == 28, "layer 41 at H={}", l41.h);
    }

    #[test]
    fn vgg16_inventory() {
        let net = vgg16_conv_layers();
        assert_eq!(net.convs.len(), 13);
        assert!(net.convs.iter().all(|l| l.k == 3 && l.stride == 1));
        // ~15.3 GMACs of convolution + 123M of FC
        let g = net.total_macs() as f64 / 1e9;
        assert!((14.0..17.0).contains(&g), "GMACs = {g}");
        assert_eq!(net.fcs.len(), 3);
        assert_eq!(net.fcs[0], (25088, 4096));
        // channel flow chains
        for w in net.convs.windows(2) {
            assert_eq!(w[0].m, w[1].c, "{} -> {}", w[0].name, w[1].name);
        }
    }

    #[test]
    fn residual_block_shapes_chain() {
        let block = resnet50_residual_block();
        assert_eq!(block[0].m, block[1].c);
        assert_eq!(block[1].m, block[2].c);
        assert_eq!(block[2].m, 256);
        for l in &block {
            assert_eq!(l.out_h(), 56);
        }
    }

    #[test]
    fn reduced_resnet18_topology_matches_table() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        // 8 basic blocks, projections on the three stage boundaries
        assert_eq!(net.blocks.len(), 8);
        let downs: Vec<usize> = net
            .blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.down.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(downs, vec![2, 4, 6]);
        // 20 convolutions total, same names as the full table
        let units = net.units_in_order();
        assert_eq!(units.len(), 20);
        let full = resnet18_conv_layers();
        // table order is conv1/conv2/downsample per block, execution
        // order is the same — names must match one-to-one
        for (u, f) in units.iter().zip(&full.convs) {
            assert_eq!(u.spec.name, f.name);
            assert_eq!(u.spec.k, f.k, "{}", f.name);
            assert_eq!(u.spec.stride, f.stride, "{}", f.name);
            assert_eq!(u.spec.pad, f.pad, "{}", f.name);
        }
        // channels divide by 8: stem 64 -> 8, final stage 512 -> 64
        assert_eq!(net.stem.spec.m, 8);
        assert_eq!(net.fc, (64, 10));
    }

    #[test]
    fn reduced_resnet18_geometry_chains() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let net = QuantResnet::reduced_resnet18(16, 16, 6, &mut rng);
        for b in &net.blocks {
            // conv1 -> conv2 channel/spatial flow
            assert_eq!(b.conv1.spec.m, b.conv2.spec.c);
            assert_eq!(b.conv1.spec.out_h(), b.conv2.spec.h);
            // shortcut dims agree with the residual branch output
            if let Some(d) = &b.down {
                assert_eq!(d.spec.m, b.conv2.spec.m);
                assert_eq!(d.spec.out_h(), b.conv2.spec.out_h());
                assert_eq!(d.spec.out_w(), b.conv2.spec.out_w());
            } else {
                assert_eq!(b.conv1.spec.c, b.conv2.spec.m);
                assert_eq!(b.conv1.spec.h, b.conv2.spec.out_h());
            }
        }
    }

    #[test]
    fn reduced_resnet18_inference_is_deterministic_and_bounded() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let net = QuantResnet::reduced_resnet18(16, 16, 6, &mut rng);
        let x: Vec<i64> = (0..net.input_len())
            .map(|i| ((i as i64) % 15) - 7)
            .collect();
        let logits = net.logits(&x);
        assert_eq!(logits.len(), 6);
        assert_eq!(net.logits(&x), logits);
        // activations are 4-bit re-quantized throughout, so logits stay
        // far inside the l = 21 share ring's signed range
        assert!(logits.iter().all(|v| v.abs() < 1 << 20), "{logits:?}");
    }

    #[test]
    fn reduced_resnet18_requantizers_and_logits_match_their_digest() {
        // FNV-1a over every unit's requantizer (shift, out_bits), then the
        // logits of a fixed input (little-endian words): pins calibration
        // and the plaintext forward bit for bit.
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let x: Vec<i64> = (0..net.input_len())
            .map(|i| ((i as i64) % 15) - 7)
            .collect();
        let rqs = net
            .units_in_order()
            .into_iter()
            .flat_map(|u| [u64::from(u.rq.shift), u64::from(u.rq.out_bits)]);
        let words = rqs.chain(net.logits(&x).into_iter().map(|v| v as u64));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(h, 0x9ab2_d5b2_7477_48a7);
    }

    #[test]
    fn downsample_dimensions() {
        let net = resnet18_conv_layers();
        let ds: Vec<_> = net
            .convs
            .iter()
            .filter(|l| l.name.contains("downsample"))
            .collect();
        assert_eq!(ds.len(), 3);
        for d in ds {
            assert_eq!(d.k, 1);
            assert_eq!(d.stride, 2);
            assert_eq!(d.m, 2 * d.c);
        }
    }
}
