//! One network as data: an input shape and an ordered list of ops over
//! numbered values.
//!
//! Value 0 is the input; op `i` writes value `i + 1`. A [`Program`]
//! borrows its network's weights, so building one is cheap.
//! [`QuantResnet::program`] and [`SyntheticCnn::program`] build them, and
//! two interpreters walk the list:
//!
//! * [`Program::logits_with`] runs it in plaintext, with one hook over
//!   each convolution's raw sum-products. Exact logits, calibration and
//!   error injection are all calls to it.
//! * `flash_accel::e2e::run_program_e2e` runs it privately: HE
//!   convolutions and 2PC non-linear stages over secret shares.
//!
//! A private run and its plaintext reference therefore cannot disagree
//! about the topology, only about the arithmetic.
//!
//! [`QuantResnet::program`]: crate::resnet::QuantResnet::program
//! [`SyntheticCnn::program`]: crate::synthetic::SyntheticCnn::program

use crate::layers::{conv_reference, maxpool_reference, ConvLayerSpec};
use crate::quant::{div_round_half_away, Requantizer};
use flash_he::matvec::matvec_reference;

/// A value of a program: 0 is the input, `i + 1` the output of op `i`.
pub type ValueId = usize;

/// The non-linear stage that follows a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// ReLU, then re-quantize.
    ReluRequant,
    /// Re-quantize only (a projection shortcut).
    Requant,
    /// Re-quantize, add the given value, then ReLU (a residual block's
    /// second convolution and its shortcut).
    RequantAddRelu(ValueId),
}

/// One convolution and its non-linear stage.
#[derive(Debug, Clone)]
pub struct Conv<'a> {
    /// Layer geometry.
    pub spec: &'a ConvLayerSpec,
    /// Row-major quantized weights (`m·c·k·k`).
    pub weights: &'a [i64],
    /// The re-quantizer of the stage.
    pub rq: Requantizer,
    /// The value convolved.
    pub input: ValueId,
    /// What runs on the sum-products.
    pub stage: Stage,
}

/// One op of a [`Program`].
#[derive(Debug, Clone)]
pub enum Op<'a> {
    /// A convolution and its non-linear stage.
    Conv(Conv<'a>),
    /// Max-pooling of a `(c, h, w)` tensor over `k×k` windows.
    MaxPool {
        /// The value pooled.
        input: ValueId,
        /// Its shape `(c, h, w)`.
        shape: (usize, usize, usize),
        /// Window `(k, stride, pad)`, zero padding on every side.
        window: (usize, usize, usize),
    },
    /// Global average pooling of `channels` planes of `spatial` elements,
    /// rounding half away from zero.
    AvgPool {
        /// The value pooled.
        input: ValueId,
        /// Channels (one output each).
        channels: usize,
        /// Elements per channel.
        spatial: usize,
    },
    /// The classifier: a matrix-vector product with row-major
    /// `dims.1 × dims.0` weights.
    Fc {
        /// The feature vector.
        input: ValueId,
        /// Row-major `classes × in_features` weights.
        weights: &'a [i64],
        /// `(in_features, classes)`.
        dims: (usize, usize),
    },
}

impl Op<'_> {
    /// The op's name: the layer name of a convolution, else `"maxpool"`,
    /// `"avgpool"` or `"fc"`.
    pub fn name(&self) -> &str {
        match self {
            Op::Conv(c) => &c.spec.name,
            Op::MaxPool { .. } => "maxpool",
            Op::AvgPool { .. } => "avgpool",
            Op::Fc { .. } => "fc",
        }
    }

    /// `"conv"`, `"pool"` or `"fc"`.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Conv(_) => "conv",
            Op::MaxPool { .. } | Op::AvgPool { .. } => "pool",
            Op::Fc { .. } => "fc",
        }
    }

    /// The value the op transforms.
    pub fn input(&self) -> ValueId {
        match self {
            Op::Conv(c) => c.input,
            Op::MaxPool { input, .. } | Op::AvgPool { input, .. } | Op::Fc { input, .. } => *input,
        }
    }

    /// Every value the op reads: its input, and a residual stage's
    /// shortcut.
    pub fn reads(&self) -> impl Iterator<Item = ValueId> {
        let shortcut = match self {
            Op::Conv(Conv {
                stage: Stage::RequantAddRelu(v),
                ..
            }) => Some(*v),
            _ => None,
        };
        std::iter::once(self.input()).chain(shortcut)
    }
}

/// A network as an input shape plus ops in execution order; the last
/// op's value is the logits.
#[derive(Debug, Clone)]
pub struct Program<'a> {
    /// Network name.
    pub name: &'a str,
    /// Input shape `(c, h, w)`.
    pub input: (usize, usize, usize),
    /// Ops in execution order; op `i` writes value `i + 1` and reads
    /// only values below it.
    pub ops: Vec<Op<'a>>,
}

impl<'a> Program<'a> {
    /// An empty program over an input of the given `(c, h, w)` shape.
    pub fn new(name: &'a str, input: (usize, usize, usize)) -> Self {
        Self {
            name,
            input,
            ops: Vec::new(),
        }
    }

    /// Appends `op` and returns the value it writes.
    ///
    /// # Panics
    ///
    /// Panics when `op` reads a value not yet written.
    pub fn push(&mut self, op: Op<'a>) -> ValueId {
        assert!(
            op.reads().all(|v| v <= self.ops.len()),
            "op reads a value not yet written"
        );
        self.ops.push(op);
        self.ops.len()
    }

    /// The input length `c·h·w`.
    pub fn input_len(&self) -> usize {
        let (c, h, w) = self.input;
        c * h * w
    }

    /// Exact integer inference; returns the logits.
    pub fn logits(&self, x: &[i64]) -> Vec<i64> {
        self.logits_with(x, |conv, _| conv.rq)
    }

    /// The plaintext interpreter. `hook` is called once per convolution,
    /// in program order, with its raw sum-products (which it may alter)
    /// and returns the re-quantizer its stage applies.
    ///
    /// # Panics
    ///
    /// Panics when `x` is not [`Self::input_len`] long.
    pub fn logits_with(
        &self,
        x: &[i64],
        mut hook: impl FnMut(&Conv<'a>, &mut [i64]) -> Requantizer,
    ) -> Vec<i64> {
        assert_eq!(x.len(), self.input_len(), "input size mismatch");
        let mut values = vec![x.to_vec()];
        for op in &self.ops {
            let a = &values[op.input()];
            let out = match op {
                Op::Conv(conv) => {
                    let mut y = conv_reference(a, conv.weights, conv.spec);
                    let rq = hook(conv, &mut y);
                    match conv.stage {
                        Stage::ReluRequant => y.iter().map(|&v| rq.apply(v.max(0))).collect(),
                        Stage::Requant => y.iter().map(|&v| rq.apply(v)).collect(),
                        Stage::RequantAddRelu(s) => y
                            .iter()
                            .zip(&values[s])
                            .map(|(&p, &q)| (rq.apply(p) + q).max(0))
                            .collect(),
                    }
                }
                &Op::MaxPool {
                    shape,
                    window: (k, stride, pad),
                    ..
                } => maxpool_reference(a, shape, k, stride, pad),
                &Op::AvgPool {
                    channels, spatial, ..
                } => (0..channels)
                    .map(|ch| {
                        let sum = a[ch * spatial..][..spatial].iter().sum();
                        div_round_half_away(sum, spatial as i64)
                    })
                    .collect(),
                &Op::Fc {
                    weights,
                    dims: (ni, no),
                    ..
                } => matvec_reference(weights, a, ni, no),
            };
            values.push(out);
        }
        values.pop().expect("the input is a value")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::QuantResnet;
    use crate::synthetic::small_testnet;
    use rand::SeedableRng;

    #[test]
    fn resnet_program_lists_every_unit_then_the_head() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
        let p = net.program();
        let names: Vec<&str> = p.ops.iter().map(Op::name).collect();
        // stem, max-pool, 20 − 1 block convs, avgpool, fc
        assert_eq!(p.ops.len(), 1 + 1 + 19 + 2);
        assert_eq!(
            &names[..4],
            ["conv1", "maxpool", "layer1.0.conv1", "layer1.0.conv2"]
        );
        // a projection block runs its downsample before the conv2 whose
        // stage reads it
        let at = |n: &str| names.iter().position(|&m| m == n).unwrap();
        assert_eq!(at("layer2.0.downsample") + 1, at("layer2.0.conv2"));
        let Op::Conv(conv2) = &p.ops[at("layer2.0.conv2")] else {
            panic!("conv2 is a conv")
        };
        assert_eq!(
            conv2.stage,
            Stage::RequantAddRelu(at("layer2.0.downsample") + 1)
        );
        // an identity block adds its own input
        let Op::Conv(c1) = &p.ops[at("layer1.1.conv1")] else {
            panic!("conv1 is a conv")
        };
        let Op::Conv(c2) = &p.ops[at("layer1.1.conv2")] else {
            panic!("conv2 is a conv")
        };
        assert_eq!(c2.stage, Stage::RequantAddRelu(c1.input));
        assert_eq!(&names[names.len() - 2..], ["avgpool", "fc"]);
        // every unit appears once, with its own requantizer
        for u in net.units_in_order() {
            let Op::Conv(c) = &p.ops[at(&u.spec.name)] else {
                panic!("{} is a conv", u.spec.name)
            };
            assert_eq!(c.rq, u.rq, "{}", u.spec.name);
        }
    }

    #[test]
    fn synthetic_program_is_convs_then_head() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = small_testnet(&mut rng);
        let p = net.program();
        let kinds: Vec<&str> = p.ops.iter().map(Op::kind).collect();
        assert_eq!(kinds, ["conv", "conv", "conv", "pool", "fc"]);
        for (i, op) in p.ops.iter().enumerate() {
            assert_eq!(op.reads().collect::<Vec<_>>(), [i], "{}", op.name());
        }
    }

    #[test]
    fn hook_sees_each_conv_once_in_order_and_may_alter_it() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let net = small_testnet(&mut rng);
        let p = net.program();
        let x: Vec<i64> = (0..p.input_len()).map(|i| (i as i64 % 15) - 7).collect();
        let mut seen = Vec::new();
        let same = p.logits_with(&x, |conv, _| {
            seen.push(conv.spec.name.clone());
            conv.rq
        });
        assert_eq!(seen, ["conv1", "conv2", "conv3"]);
        assert_eq!(same, p.logits(&x));
        // zeroing the last conv's sum-products zeroes every logit
        let zeroed = p.logits_with(&x, |conv, y| {
            if conv.spec.name == "conv3" {
                y.fill(0);
            }
            conv.rq
        });
        assert!(zeroed.iter().all(|&v| v == 0), "{zeroed:?}");
    }

    #[test]
    #[should_panic(expected = "op reads a value not yet written")]
    fn push_refuses_a_forward_read() {
        let mut p = Program::new("bad", (1, 1, 1));
        p.push(Op::AvgPool {
            input: 1,
            channels: 1,
            spatial: 1,
        });
    }
}
