//! Golden pins of the sparse dataflow's accounting: the
//! `(DataflowCounts, StageProfile)` of every pattern the figures, the
//! hardware model and the protocol read, plus the tape's `muls()` and
//! length, folded into one digest per pattern family. A change to the
//! walk that moves any count, any stage of the profile or the size of
//! any tape fails here; the literal rows say which way it moved.

use flash_he::encoding::{ConvEncoder, TileAlignment};
use flash_nn::resnet::resnet50_conv_layers;
use flash_sparse::plan::SparsePlan;
use flash_sparse::symbolic::{DataflowCounts, StageProfile};
use flash_sparse::SparsityPattern;
use std::collections::BTreeSet;

const N: usize = 4096;

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn plan(&mut self, p: &SparsePlan) {
        let c = p.counts();
        for w in [
            c.m,
            c.executed_butterflies,
            c.materializations,
            c.adds,
            c.skipped_butterflies,
        ] {
            self.word(w);
        }
        let profile = p.profile();
        self.word(profile.per_stage.len() as u64);
        for &w in &profile.per_stage {
            self.word(w);
        }
        self.word(profile.output_materializations);
        self.word(p.muls());
        self.word(p.tape_len() as u64);
    }
}

fn digest_of(patterns: impl IntoIterator<Item = SparsityPattern>) -> (usize, u64) {
    let mut d = Digest::new();
    let mut count = 0;
    for p in patterns {
        d.plan(&SparsePlan::compile(&p));
        count += 1;
    }
    (count, d.0)
}

/// A paper example, given as its bit-reversed (stage-1) pattern.
fn example(indices_bitrev: &[usize]) -> SparsePlan {
    let br = SparsityPattern::from_indices(16, indices_bitrev.iter().copied());
    SparsePlan::compile(&br.bit_reversed())
}

/// Figure 11(a)'s structured sweep: `nnz` coefficients on a
/// power-of-two grid.
fn structured() -> Vec<SparsityPattern> {
    [0u32, 2, 4, 6, 8, 10]
        .iter()
        .map(|&log_nnz| {
            let nnz = 1usize << log_nnz;
            SparsityPattern::folded(N, (0..nnz).map(|i| i * (N / nnz)))
        })
        .collect()
}

/// Figure 11(a)'s scattered sweep: multiplicative-hash positions.
fn scattered() -> Vec<SparsityPattern> {
    [1usize, 9, 36, 144, 512]
        .iter()
        .map(|&nnz| {
            let idx: BTreeSet<usize> = (0..nnz).map(|i| (i * 2654435761usize) % N).collect();
            SparsityPattern::folded(N, idx)
        })
        .collect()
}

/// Band 0 of every ResNet-50 conv at N = 4096 on the power-of-two
/// layout, folded — the pattern the hardware model counts.
fn resnet50() -> Vec<SparsityPattern> {
    resnet50_conv_layers()
        .convs
        .iter()
        .map(|l| {
            let enc = ConvEncoder::with_alignment(l.encoded_shape(), N, TileAlignment::PowerOfTwo);
            SparsityPattern::folded(N, enc.weight_indices(0))
        })
        .collect()
}

/// Seeded fold-domain patterns at every `m` from 4 to 2048 and five
/// densities, drawn from a splitmix64 stream.
fn random() -> Vec<SparsityPattern> {
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut out = Vec::new();
    for log_m in 2..=11 {
        for density in [1u64, 5, 20, 50, 90] {
            for _ in 0..4 {
                let mask = (0..1usize << log_m)
                    .map(|_| next() % 100 < density)
                    .collect();
                out.push(SparsityPattern::from_mask(mask));
            }
        }
    }
    out
}

#[test]
fn dataflow_counts_and_profiles_match_their_pins() {
    // Example 4.1: four contiguous inputs; only the 4-point sub-network
    // executes (4 mults of the classical 32).
    let ex41 = example(&[0, 1, 2, 3]);
    assert_eq!(
        *ex41.counts(),
        DataflowCounts {
            m: 16,
            executed_butterflies: 4,
            materializations: 0,
            adds: 8,
            skipped_butterflies: 28,
        }
    );
    assert_eq!(
        *ex41.profile(),
        StageProfile {
            per_stage: vec![2, 2, 0, 0],
            output_materializations: 0,
        }
    );
    // Example 4.2: one isolated input; merged chains materialize once per
    // non-trivial exponent at the outputs.
    let ex42 = example(&[6]);
    assert_eq!(
        *ex42.counts(),
        DataflowCounts {
            m: 16,
            executed_butterflies: 0,
            materializations: 3,
            adds: 0,
            skipped_butterflies: 32,
        }
    );
    assert_eq!(
        *ex42.profile(),
        StageProfile {
            per_stage: vec![0, 0, 0, 0],
            output_materializations: 3,
        }
    );
    // ResNet-50 layer1.0.conv2 (3x3 over 56x56), band 0.
    let net = resnet50_conv_layers();
    let at = net
        .convs
        .iter()
        .position(|l| l.name == "layer1.0.conv2")
        .expect("layer1.0.conv2 exists");
    let layer = SparsePlan::compile(&resnet50()[at]);
    assert_eq!(
        *layer.counts(),
        DataflowCounts {
            m: 2048,
            executed_butterflies: 1608,
            materializations: 0,
            adds: 3216,
            skipped_butterflies: 9656,
        }
    );
    assert_eq!(
        *layer.profile(),
        StageProfile {
            per_stage: vec![0, 0, 0, 24, 48, 0, 0, 0, 0, 512, 1024],
            output_materializations: 0,
        }
    );
    assert_eq!((layer.muls(), layer.tape_len()), (1630, 3656));

    let families = [
        ("structured", digest_of(structured())),
        ("scattered", digest_of(scattered())),
        ("resnet50", digest_of(resnet50())),
        ("random", digest_of(random())),
    ];
    let pinned = [
        ("structured", (6, 0x44f7_add5_b207_24d9)),
        ("scattered", (5, 0x9d6f_0060_8c4d_8c57)),
        ("resnet50", (53, 0x83c5_a5ab_7e1d_a1d5)),
        ("random", (200, 0xa336_0a2a_6a00_f6a2)),
    ];
    assert_eq!(families, pinned);
}
