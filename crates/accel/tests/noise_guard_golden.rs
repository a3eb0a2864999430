//! Golden pin of the noise guard. Per case, the partition its weights are
//! served at and, per output-channel pack of that partition, the guard's
//! verdict and the log2 of the pack's three noise terms:
//!
//! * exact — fresh `6σ` → server share fold (`+1`) → one weight multiply
//!   per channel group (`× ℓ1 + ℓ1`), accumulated → output mask (`+1`);
//! * truncation — `2^{d0−1} + 2^{d1−1}·N` at the agreed `(d0, d1)`;
//! * approx — the backend's `ApproxErrorModel` phase bound over the
//!   pack's `Σw²` and group count, none on `Ntt`.
//!
//! A pack overflows when exact + truncation reaches `q/(2t)`, and falls
//! back when exact + truncation + approx reaches `margin × q/(2t)` (or an
//! NTT group count would wrap the lazy accumulator). The packed plan is
//! served unless the unpacked one ranks strictly better (spectral, then
//! fallback, then overflow, over its worst pack).
//!
//! The terms are recomputed here from the guard's inputs — kernel norms,
//! `σ`, the backend's error model — with this file's own arithmetic, and
//! the served system is held to them: `ModelPlan::build` serves the pinned
//! partition with one fallback unit per band of every fallback pack, and
//! refuses with `NoiseOverflow` exactly when a served pack overflows.
//! `planned_truncation` of every parameter set is pinned too.

use flash_2pc::hconv::HconvLayer;
use flash_2pc::FlashError;
use flash_accel::e2e::e2e_config;
use flash_he::encoding::{ConvEncoder, ConvShape};
use flash_he::truncate::planned_truncation;
use flash_he::{HeError, HeParams, PolyMulBackend};
use flash_nn::layers::ConvLayerSpec;
use flash_nn::quant::Quantizer;
use flash_nn::resnet::QuantResnet;
use flash_serve::{ModelPlan, ModelSpec, ServeError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use Verdict::{Fallback, Overflow, Spectral};

/// The guard's verdict on one pack, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Verdict {
    Spectral,
    Fallback,
    Overflow,
}

/// One pack's verdict and its terms, as computed here.
#[derive(Debug, Clone, Copy)]
struct Pack {
    verdict: Verdict,
    exact: f64,
    truncation: f64,
    approx: Option<f64>,
}

/// One pinned case: the served partition, `log2` of the truncation term
/// (the same for every pack of a layer), and per pack
/// `(verdict, log2 exact, log2 approx)`.
struct Pin {
    partition: (usize, usize),
    truncation_log2: f64,
    packs: &'static [(Verdict, f64, Option<f64>)],
}

/// One registered layer.
struct Case {
    name: String,
    params: HeParams,
    shape: ConvShape,
    backend: PolyMulBackend,
    weights: Vec<i64>,
    truncation: Option<(u32, u32)>,
    margin: f64,
}

/// `2^{d−1}`, or 0 for an untruncated component.
fn half_step(d: u32) -> f64 {
    if d == 0 {
        0.0
    } else {
        (2.0f64).powi(d as i32 - 1)
    }
}

/// Every pack of `enc`, priced from its kernel norms.
fn price(case: &Case, enc: &ConvEncoder) -> Vec<Pack> {
    let p = &case.params;
    let ceiling = p.noise_ceiling() as f64;
    let base = 6.0 * p.noise_std() + 1.0;
    let truncation = case
        .truncation
        .map_or(0.0, |(d0, d1)| half_step(d0) + half_step(d1) * p.n as f64);
    let is_ntt = matches!(case.backend, PolyMulBackend::Ntt);
    let lazy_wraps = enc.groups() as u128 * 2 * p.q as u128 > u64::MAX as u128;
    (0..enc.packs())
        .map(|pack| {
            let norms = enc.pack_norms(&case.weights, pack);
            let mut exact = 0.0;
            let mut w_sq = 0.0;
            for &(l1, sq) in &norms {
                exact += base * l1 + l1;
                w_sq += sq;
            }
            exact += 1.0;
            let approx = case
                .backend
                .error_model(p)
                .map(|model| model.phase_error_bound(p, w_sq, norms.len()));
            let verdict = if exact + truncation >= ceiling {
                Overflow
            } else if approx.is_some_and(|e| exact + truncation + e >= case.margin * ceiling)
                || (is_ntt && lazy_wraps)
            {
                Fallback
            } else {
                Spectral
            };
            Pack {
                verdict,
                exact,
                truncation,
                approx,
            }
        })
        .collect()
}

/// The worst verdict over a plan's packs.
fn worst(packs: &[Pack]) -> Verdict {
    packs.iter().map(|p| p.verdict).max().unwrap_or(Spectral)
}

/// The partition the case is served at and its packs.
fn served(case: &Case) -> ((usize, usize), Vec<Pack>) {
    let planned = HconvLayer::new(case.params.clone(), case.shape, case.truncation);
    let packed = price(case, planned.encoder());
    let unpacked_layer = planned.unpacked();
    let unpacked = price(case, unpacked_layer.encoder());
    if worst(&unpacked) < worst(&packed) {
        (unpacked_layer.partition(), unpacked)
    } else {
        (planned.partition(), packed)
    }
}

/// `log2` agreement to 1e-9 (an untruncated term is `log2 0 = −∞`).
fn close(got: f64, want: f64) -> bool {
    got == want || (got - want).abs() < 1e-9
}

/// The pin literal of what this file computes, for failure messages.
fn render(partition: (usize, usize), packs: &[Pack]) -> String {
    let mut s = format!(
        "Pin {{ partition: {partition:?}, truncation_log2: {:.12}, packs: &[\n",
        packs[0].truncation.log2()
    );
    for p in packs {
        let approx = p
            .approx
            .map_or("None".to_string(), |e| format!("Some({:.12})", e.log2()));
        s += &format!("    ({:?}, {:.12}, {approx}),\n", p.verdict, p.exact.log2());
    }
    s + "] }"
}

/// Holds one case to its pin and the served system to both.
fn check(case: Case, pin: &Pin) {
    let name = &case.name;
    let (partition, packs) = served(&case);
    let matches = partition == pin.partition
        && packs.len() == pin.packs.len()
        && packs
            .iter()
            .zip(pin.packs)
            .all(|(got, &(verdict, exact, approx))| {
                got.verdict == verdict
                    && close(got.exact.log2(), exact)
                    && close(got.truncation.log2(), pin.truncation_log2)
                    && match (got.approx, approx) {
                        (None, None) => true,
                        (Some(e), Some(want)) => close(e.log2(), want),
                        _ => false,
                    }
            });
    assert!(matches, "{name}: computed\n{}", render(partition, &packs));

    let overflows = packs.iter().any(|p| p.verdict == Overflow);
    let fallback_packs = packs.iter().filter(|p| p.verdict == Fallback).count();
    let mut spec = ModelSpec::new(
        1,
        case.params.clone(),
        case.shape,
        case.backend.clone(),
        case.weights.clone(),
    )
    .with_noise_margin(case.margin);
    spec.truncation = case.truncation;
    match ModelPlan::build(spec) {
        Ok(plan) => {
            assert!(!overflows, "{name}: served although a pack overflows");
            let enc = plan.encoder();
            assert_eq!(
                (enc.channels_per_group(), enc.channels_per_pack()),
                partition,
                "{name}: served partition"
            );
            assert_eq!(plan.result_polys(), packs.len() * enc.bands(), "{name}");
            assert_eq!(
                plan.fallback_units(),
                fallback_packs * enc.bands(),
                "{name}: fallback units"
            );
        }
        Err(ServeError::Flash(FlashError::He(HeError::NoiseOverflow { .. }))) => {
            assert!(overflows, "{name}: refused although no pack overflows");
        }
        Err(e) => panic!("{name}: {e:?}"),
    }
}

fn approx_fft(params: &HeParams) -> PolyMulBackend {
    let mut cfg = flash_fft::ApproxFftConfig::uniform(
        params.n,
        flash_math::fixed::FxpFormat::new(18, 34),
        30,
    );
    cfg.max_shift = 30;
    PolyMulBackend::approx(cfg)
}

/// `c = 4, 6×6, m = 8`: planned `(2, 3)` at N = 256.
const PACKED: ConvShape = ConvShape {
    c: 4,
    h: 6,
    w: 6,
    m: 8,
    k: 3,
};

fn patterned(shape: &ConvShape) -> Vec<i64> {
    (0..shape.m * shape.kernel_len())
        .map(|i| ((i as i64 * 3) % 15) - 7)
        .collect()
}

#[test]
fn planned_truncation_of_every_pinned_parameter_set() {
    let pins = [
        (e2e_config().he, (38, 30)),
        (HeParams::flash_pow2(), (38, 26)),
        (HeParams::new(1024, 36, 1 << 13, 3.2), (19, 10)),
        (HeParams::pow2_test_256(), (40, 35)),
        (HeParams::test_256(), (16, 9)),
    ];
    for (params, pair) in pins {
        assert_eq!(planned_truncation(&params), pair, "{params:?}");
    }
}

#[test]
fn every_reduced_resnet18_unit_matches_its_pin() {
    let he = e2e_config().he;
    let truncation = Some(planned_truncation(&he));
    let mut rng = StdRng::seed_from_u64(24);
    let net = QuantResnet::reduced_resnet18(8, 32, 10, &mut rng);
    let units = net.units_in_order();
    assert_eq!(units.len(), RESNET18.len());
    for (unit, pin) in units.into_iter().zip(&RESNET18) {
        let fold = unit.spec.fold();
        let case = Case {
            name: unit.spec.name.clone(),
            params: he.clone(),
            shape: fold.shape(),
            backend: PolyMulBackend::Pow2,
            weights: fold.kernel(&unit.weights),
            truncation,
            margin: 1.0,
        };
        check(case, pin);
    }
}

#[test]
fn the_wide_n4096_layer_matches_its_pin() {
    let params = HeParams::flash_pow2();
    let spec = ConvLayerSpec {
        name: "wide".into(),
        c: 64,
        h: 32,
        w: 32,
        m: 32,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let fold = spec.fold();
    let weights = spec.sample_weights(Quantizer::w4(), &mut StdRng::seed_from_u64(25));
    let case = Case {
        name: spec.name.clone(),
        truncation: Some(planned_truncation(&params)),
        params,
        shape: fold.shape(),
        backend: PolyMulBackend::Pow2,
        weights: fold.kernel(&weights),
        margin: 1.0,
    };
    check(case, &WIDE);
}

#[test]
fn the_serve_model_matches_its_pin() {
    let shape = ConvShape {
        c: 64,
        h: 16,
        w: 16,
        m: 32,
        k: 3,
    };
    let mut rng = StdRng::seed_from_u64(26);
    let weights = (0..shape.m * shape.kernel_len())
        .map(|_| rng.gen_range(-8..8))
        .collect();
    let case = Case {
        name: "serve".into(),
        params: HeParams::new(1024, 36, 1 << 13, 3.2),
        shape,
        backend: PolyMulBackend::Ntt,
        weights,
        truncation: Some((8, 2)),
        margin: 1.0,
    };
    check(case, &SERVE);
}

#[test]
fn approx_fft_and_the_margin_zero_fixtures_match_their_pins() {
    let params = HeParams::pow2_test_256();
    let truncation = Some(planned_truncation(&params));
    let cases = [
        ("approx", approx_fft(&params), 1.0),
        ("approx-fallback", approx_fft(&params), 0.0),
        ("pow2-fallback", PolyMulBackend::Pow2, 0.0),
    ];
    for ((name, backend, margin), pin) in cases.into_iter().zip(&POW2_TEST) {
        let case = Case {
            name: name.into(),
            params: params.clone(),
            shape: PACKED,
            backend,
            weights: patterned(&PACKED),
            truncation,
            margin,
        };
        check(case, pin);
    }
}

#[test]
fn the_overflowing_packed_weights_and_truncation_match_their_pins() {
    // The smallest power-of-two weight whose packed (2, 3) exact bound
    // overflows at (8, 2): served unpacked at (4, 1).
    let params = HeParams::test_256();
    let case = Case {
        name: "packed-overflow".into(),
        params: params.clone(),
        shape: PACKED,
        backend: PolyMulBackend::Ntt,
        weights: vec![1i64 << PACKED_OVERFLOW_EXPONENT; PACKED.m * PACKED.kernel_len()],
        truncation: Some((8, 2)),
        margin: 1.0,
    };
    check(case, &PACKED_OVERFLOW);

    // A truncation whose error alone overflows the ceiling: refused.
    let shape = ConvShape {
        c: 1,
        h: 5,
        w: 5,
        m: 1,
        k: 3,
    };
    let case = Case {
        name: "truncation-overflow".into(),
        params,
        shape,
        backend: PolyMulBackend::Ntt,
        weights: vec![1; shape.kernel_len()],
        truncation: Some((30, 25)),
        margin: 1.0,
    };
    check(case, &TRUNCATION_OVERFLOW);
}

const PACKED_OVERFLOW_EXPONENT: u32 = 8;

/// `reduced_resnet18(8, 32, 10)` at seed 24, in `units_in_order`.
static RESNET18: [Pin; 20] = [
    // conv1
    Pin {
        partition: (1, 1),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 12.530357563623, Some(28.408696398495)),
            (Spectral, 12.644622418004, Some(28.419075678578)),
            (Spectral, 12.477707680177, Some(28.328842399794)),
            (Spectral, 12.519980178647, Some(28.339542435595)),
            (Spectral, 12.417483357086, Some(28.267952814065)),
            (Spectral, 12.561049226700, Some(28.387478765335)),
            (Spectral, 12.635037871183, Some(28.430088831743)),
            (Spectral, 12.439675076968, Some(28.306027483528)),
        ],
    },
    // layer1.0.conv1
    Pin {
        partition: (2, 1),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 11.504521084536, Some(27.806027483528)),
            (Spectral, 11.644847701822, Some(27.962154000453)),
            (Spectral, 11.483311954999, Some(27.820711909607)),
            (Spectral, 11.289212002723, Some(27.628178067757)),
            (Spectral, 11.337287389867, Some(27.669672750093)),
            (Spectral, 11.461786371028, Some(27.802309189107)),
            (Spectral, 11.120885842788, Some(27.529138585761)),
            (Spectral, 11.406523915277, Some(27.708909779104)),
        ],
    },
    // layer1.0.conv2
    Pin {
        partition: (2, 1),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 11.301381872304, Some(27.644599696101)),
            (Spectral, 11.417747050867, Some(27.676362264993)),
            (Spectral, 11.596282950488, Some(27.926959336507)),
            (Spectral, 11.372320954867, Some(27.760090637919)),
            (Spectral, 11.337287389867, Some(27.642276513672)),
            (Spectral, 11.504521084536, Some(27.886650106403)),
            (Spectral, 11.682555741080, Some(27.968103292076)),
            (Spectral, 11.461786371028, Some(27.787241330121)),
        ],
    },
    // layer1.1.conv1
    Pin {
        partition: (2, 1),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 11.395212786749, Some(27.783424667670)),
            (Spectral, 11.383812274589, Some(27.818892621075)),
            (Spectral, 11.566339503668, Some(27.866471237595)),
            (Spectral, 11.525422929585, Some(27.863052522568)),
            (Spectral, 11.450901929767, Some(27.792928725053)),
            (Spectral, 11.395212786749, Some(27.676362264993)),
            (Spectral, 11.493955493972, Some(27.833320052411)),
            (Spectral, 11.483311954999, Some(27.820711909607)),
        ],
    },
    // layer1.1.conv2
    Pin {
        partition: (2, 1),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 11.239479194699, Some(27.568855819508)),
            (Spectral, 11.625617530362, Some(27.876631229785)),
            (Spectral, 11.461786371028, Some(27.748134327947)),
            (Spectral, 11.450901929767, Some(27.818892621075)),
            (Spectral, 11.682555741080, Some(27.931648502665)),
            (Spectral, 11.428883552010, Some(27.777661540979)),
            (Spectral, 11.406523915277, Some(27.717346688386)),
            (Spectral, 11.798714794961, Some(28.071427471146)),
        ],
    },
    // layer2.0.conv1
    Pin {
        partition: (5, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 12.545785009812, Some(28.338656803168)),
            (Spectral, 12.625389223318, Some(28.422239488564)),
            (Spectral, 12.389254888164, Some(28.249138291255)),
            (Spectral, 12.488392492288, Some(28.339542435595)),
            (Spectral, 12.383542304147, Some(28.248134327947)),
            (Spectral, 12.519980178647, Some(28.341310445108)),
            (Spectral, 12.550891047674, Some(28.350086070621)),
            (Spectral, 12.514763359347, Some(28.333320052411)),
        ],
    },
    // layer2.0.conv2
    Pin {
        partition: (3, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 13.519857357414, Some(28.828842399794)),
            (Spectral, 13.543104339966, Some(28.866897439983)),
            (Spectral, 13.455969302758, Some(28.809726709689)),
            (Spectral, 13.408940023479, Some(28.800909872431)),
            (Spectral, 13.474897357706, Some(28.797165035881)),
            (Spectral, 13.535396892312, Some(28.894894167798)),
            (Spectral, 13.455969302758, Some(28.762064230177)),
            (Spectral, 13.527648047162, Some(28.860907568504)),
        ],
    },
    // layer2.0.downsample
    Pin {
        partition: (4, 4),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 9.899356922923, Some(26.901422244210)),
            (Spectral, 10.429406741514, Some(27.262064230177)),
            (Spectral, 10.240075768764, Some(27.169672750093)),
            (Spectral, 10.240075768764, Some(27.160655788677)),
        ],
    },
    // layer2.1.conv1
    Pin {
        partition: (3, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 13.453244908121, Some(28.791511074704)),
            (Spectral, 13.490926067365, Some(28.818437081104)),
            (Spectral, 13.453244908121, Some(28.789616529898)),
            (Spectral, 13.540539763166, Some(28.865618076620)),
            (Spectral, 13.417351492120, Some(28.754137254577)),
            (Spectral, 13.455969302758, Some(28.813407062165)),
            (Spectral, 13.434028717507, Some(28.805099705239)),
            (Spectral, 13.578537803974, Some(28.896940545115)),
        ],
    },
    // layer2.1.conv2
    Pin {
        partition: (3, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 13.458688562326, Some(28.799039884293)),
            (Spectral, 13.480260072290, Some(28.827493666113)),
            (Spectral, 13.411749299007, Some(28.764032437457)),
            (Spectral, 13.501513785976, Some(28.842633614272)),
            (Spectral, 13.598401497069, Some(28.918679224861)),
            (Spectral, 13.403305007956, Some(28.719963113164)),
            (Spectral, 13.555859283454, Some(28.891607840836)),
            (Spectral, 13.482933972802, Some(28.857893877076)),
        ],
    },
    // layer3.0.conv1
    Pin {
        partition: (14, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 13.480260072290, Some(28.833766292772)),
            (Spectral, 13.496229639355, Some(28.832873535826)),
            (Spectral, 13.578537803974, Some(28.882075387856)),
            (Spectral, 13.472208506586, Some(28.831532325299)),
            (Spectral, 13.493580290453, Some(28.827943524263)),
            (Spectral, 13.490926067365, Some(28.822979586798)),
            (Spectral, 13.568502447337, Some(28.876210741565)),
            (Spectral, 13.310016268674, Some(28.687921686659)),
            (Spectral, 13.477581206749, Some(28.794814601998)),
            (Spectral, 13.488266952122, Some(28.823432268031)),
            (Spectral, 13.469514634708, Some(28.832873535826)),
            (Spectral, 13.431262533418, Some(28.778143564065)),
            (Spectral, 13.525055822267, Some(28.849213296745)),
            (Spectral, 13.458688562326, Some(28.824788609741)),
            (Spectral, 13.504148619140, Some(28.831532325299)),
            (Spectral, 13.514640093167, Some(28.827043527240)),
        ],
    },
    // layer3.0.conv2
    Pin {
        partition: (8, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 14.433963538349, Some(29.300442829669)),
            (Spectral, 14.443604061617, Some(29.269173575095)),
            (Spectral, 14.598343336780, Some(29.411505543988)),
            (Spectral, 14.549435741865, Some(29.356814500067)),
            (Spectral, 14.484206118537, Some(29.301609870080)),
            (Spectral, 14.474833999075, Some(29.316155056042)),
            (Spectral, 14.519795942877, Some(29.337770082073)),
            (Spectral, 14.461338752080, Some(29.306954070066)),
            (Spectral, 14.482870966140, Some(29.318892621075)),
            (Spectral, 14.513271130823, Some(29.347683396870)),
            (Spectral, 14.539195168892, Some(29.352480768074)),
            (Spectral, 14.543043907127, Some(29.362624041700)),
            (Spectral, 14.534047494074, Some(29.339763673910)),
            (Spectral, 14.422866332791, Some(29.276696527430)),
            (Spectral, 14.534047494074, Some(29.355084130372)),
            (Spectral, 14.465400597584, Some(29.304403087589)),
        ],
    },
    // layer3.0.downsample
    Pin {
        partition: (8, 8),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 12.354635077721, Some(28.236997513440)),
            (Spectral, 12.207197391689, Some(28.186281638539)),
            (Spectral, 12.400612641082, Some(28.335993363144)),
            (Spectral, 12.167857160128, Some(28.126990664163)),
        ],
    },
    // layer3.1.conv1
    Pin {
        partition: (8, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 14.469451039238, Some(29.297165035881)),
            (Spectral, 14.476176606627, Some(29.320938998392)),
            (Spectral, 14.465400597584, Some(29.313636461919)),
            (Spectral, 14.404649309542, Some(29.275488442203)),
            (Spectral, 14.435344706373, Some(29.286527242433)),
            (Spectral, 14.465400597584, Some(29.303938301800)),
            (Spectral, 14.515884597846, Some(29.348994938178)),
            (Spectral, 14.490863408783, Some(29.325240157499)),
            (Spectral, 14.451816401507, Some(29.299273898089)),
            (Spectral, 14.469451039238, Some(29.312948043682)),
            (Spectral, 14.468102155162, Some(29.320938998392)),
            (Spectral, 14.459982258275, Some(29.292692643388)),
            (Spectral, 14.403238425821, Some(29.254137254577)),
            (Spectral, 14.501451585563, Some(29.311569233093)),
            (Spectral, 14.546882405233, Some(29.398369562886)),
            (Spectral, 14.535336135746, Some(29.368599735807)),
        ],
    },
    // layer3.1.conv2
    Pin {
        partition: (8, 2),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 14.557068749264, Some(29.378939543820)),
            (Spectral, 14.514578456127, Some(29.367323390701)),
            (Spectral, 14.446346705705, Some(29.285574024560)),
            (Spectral, 14.482870966140, Some(29.317981253272)),
            (Spectral, 14.408873700905, Some(29.267952814065)),
            (Spectral, 14.459982258275, Some(29.301609870080)),
            (Spectral, 14.470798663319, Some(29.292692643388)),
            (Spectral, 14.526291378267, Some(29.323205962924)),
            (Spectral, 14.540479222802, Some(29.370298023867)),
            (Spectral, 14.453180591389, Some(29.272337918879)),
            (Spectral, 14.496167210698, Some(29.342192827506)),
            (Spectral, 14.482870966140, Some(29.310648559681)),
            (Spectral, 14.488204177941, Some(29.328842399794)),
            (Spectral, 14.534047494074, Some(29.348994938178)),
            (Spectral, 14.526291378267, Some(29.336660145678)),
            (Spectral, 14.477517965877, Some(29.301376612998)),
        ],
    },
    // layer4.0.conv1
    Pin {
        partition: (16, 4),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 15.486841305064, Some(29.827268631788)),
            (Spectral, 15.472113290294, Some(29.810648559681)),
            (Spectral, 15.511931744347, Some(29.837326312437)),
            (Spectral, 15.519114065885, Some(29.837659165255)),
            (Spectral, 15.448368006369, Some(29.799858600658)),
            (Spectral, 15.505371186907, Some(29.839099755298)),
            (Spectral, 15.448368006369, Some(29.782826485763)),
            (Spectral, 15.452466483047, Some(29.782108012077)),
            (Spectral, 15.540448951667, Some(29.868174538317)),
            (Spectral, 15.515853806229, Some(29.838213578872)),
            (Spectral, 15.470766894222, Some(29.797868675202)),
            (Spectral, 15.461984557913, Some(29.795638125310)),
            (Spectral, 15.542372932556, Some(29.864443330232)),
            (Spectral, 15.461984557913, Some(29.793046736918)),
            (Spectral, 15.472113290294, Some(29.806027483528)),
            (Spectral, 15.499441068649, Some(29.842303049452)),
        ],
    },
    // layer4.0.conv2
    Pin {
        partition: (7, 4),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 16.476129130032, Some(30.307879467910)),
            (Spectral, 16.491812394724, Some(30.318380118375)),
            (Spectral, 16.454495298653, Some(30.289142115201)),
            (Spectral, 16.466366475654, Some(30.301434934340)),
            (Spectral, 16.494133681465, Some(30.332091466107)),
            (Spectral, 16.492144235872, Some(30.329627998105)),
            (Spectral, 16.495458456048, Some(30.337770082073)),
            (Spectral, 16.449377595707, Some(30.294991150443)),
            (Spectral, 16.503710849390, Some(30.337936425327)),
            (Spectral, 16.503710849390, Some(30.340924063139)),
            (Spectral, 16.490152043088, Some(30.328842399794)),
            (Spectral, 16.493470837710, Some(30.339210450843)),
            (Spectral, 16.533679533708, Some(30.348831125864)),
            (Spectral, 16.502064142778, Some(30.321846639305)),
            (Spectral, 16.474786478276, Some(30.314667858978)),
            (Spectral, 16.439087403284, Some(30.289201434104)),
        ],
    },
    // layer4.0.downsample
    Pin {
        partition: (16, 16),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 14.221451182539, Some(29.155248147299)),
            (Spectral, 14.242117167575, Some(29.192277005673)),
            (Spectral, 14.253123592749, Some(29.184912077618)),
            (Spectral, 14.338276763651, Some(29.255878739349)),
        ],
    },
    // layer4.1.conv1
    Pin {
        partition: (7, 4),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 16.474786478276, Some(30.316155056042)),
            (Spectral, 16.494464989175, Some(30.325973320282)),
            (Spectral, 16.494133681465, Some(30.327943524263)),
            (Spectral, 16.456197173317, Some(30.299683239646)),
            (Spectral, 16.474786478276, Some(30.315812128762)),
            (Spectral, 16.468391762536, Some(30.309784359840)),
            (Spectral, 16.429763055739, Some(30.275488442203)),
            (Spectral, 16.504039965284, Some(30.339874267627)),
            (Spectral, 16.477135299470, Some(30.309438389800)),
            (Spectral, 16.449035769164, Some(30.289972136274)),
            (Spectral, 16.484826040401, Some(30.312373859524)),
            (Spectral, 16.521376534726, Some(30.347409858693)),
            (Spectral, 16.504697971919, Some(30.332315001133)),
            (Spectral, 16.469403340796, Some(30.331196632660)),
            (Spectral, 16.511916306380, Some(30.349431589233)),
            (Spectral, 16.514858883392, Some(30.347519286411)),
        ],
    },
    // layer4.1.conv2
    Pin {
        partition: (7, 4),
        truncation_log2: 38.000000000000,
        packs: &[
            (Spectral, 16.524948731701, Some(30.349977031618)),
            (Spectral, 16.481821500696, Some(30.311741728615)),
            (Spectral, 16.473106404496, Some(30.292515531421)),
            (Spectral, 16.470414210261, Some(30.301318286940)),
            (Spectral, 16.502723050988, Some(30.331196632660)),
            (Spectral, 16.506341676704, Some(30.329347525485)),
            (Spectral, 16.480484138588, Some(30.320314332128)),
            (Spectral, 16.484158905450, Some(30.315812128762)),
            (Spectral, 16.514858883392, Some(30.352317745545)),
            (Spectral, 16.483157624231, Some(30.328112148767)),
            (Spectral, 16.529482409218, Some(30.355625316924)),
            (Spectral, 16.501404933494, Some(30.328842399794)),
            (Spectral, 16.487491499496, Some(30.326705738650)),
            (Spectral, 16.517143412209, Some(30.349104125724)),
            (Spectral, 16.455856958955, Some(30.300559618712)),
            (Spectral, 16.467716982764, Some(30.296989018753)),
        ],
    },
];

static WIDE: Pin = Pin {
    partition: (3, 1),
    truncation_log2: 38.000000000000,
    packs: &[
        (Spectral, 14.567183675194, Some(33.972825982164)),
        (Spectral, 14.425648646903, Some(33.852378058942)),
        (Spectral, 14.557068749264, Some(33.967455099525)),
        (Spectral, 14.457265438329, Some(33.888660536402)),
        (Spectral, 14.427037794353, Some(33.873232554818)),
        (Spectral, 14.470798663319, Some(33.891891144900)),
        (Spectral, 14.551984567488, Some(33.953216137521)),
        (Spectral, 14.413085758827, Some(33.857467378870)),
        (Spectral, 14.453180591389, Some(33.902178322389)),
        (Spectral, 14.433963538349, Some(33.868253636800)),
        (Spectral, 14.508029950727, Some(33.920775980589)),
        (Spectral, 14.481534576972, Some(33.907380098487)),
        (Spectral, 14.554528898012, Some(33.950673940985)),
        (Spectral, 14.494843087079, Some(33.904218269603)),
        (Spectral, 14.514578456127, Some(33.919225885551)),
        (Spectral, 14.580976909187, Some(33.973443133937)),
        (Spectral, 14.470798663319, Some(33.879818101234)),
        (Spectral, 14.509342031900, Some(33.913439049353)),
        (Spectral, 14.466752008732, Some(33.895794674352)),
        (Spectral, 14.444976035401, Some(33.882855358439)),
        (Spectral, 14.466752008732, Some(33.899904927754)),
        (Spectral, 14.455905107371, Some(33.897167362721)),
        (Spectral, 14.361710796949, Some(33.787531316633)),
        (Spectral, 14.422866332791, Some(33.863958468513)),
        (Spectral, 14.496167210698, Some(33.912097007068)),
        (Spectral, 14.494843087079, Some(33.895565638782)),
        (Spectral, 14.513271130823, Some(33.935663195285)),
        (Spectral, 14.506716675176, Some(33.923205134185)),
        (Spectral, 14.383339793157, Some(33.841596849116)),
        (Spectral, 14.489534406062, Some(33.928257992662)),
        (Spectral, 14.502769660454, Some(33.901497055988)),
        (Spectral, 14.493517747045, Some(33.871576730958)),
    ],
};

static SERVE: Pin = Pin {
    partition: (4, 1),
    truncation_log2: 11.087462841250,
    packs: &[
        (Spectral, 15.583441280636, None),
        (Spectral, 15.537236604012, None),
        (Spectral, 15.613645602099, None),
        (Spectral, 15.608145067620, None),
        (Spectral, 15.575946897123, None),
        (Spectral, 15.551954536805, None),
        (Spectral, 15.600162642913, None),
        (Spectral, 15.582818233486, None),
        (Spectral, 15.572185055444, None),
        (Spectral, 15.604466358988, None),
        (Spectral, 15.555134315573, None),
        (Spectral, 15.599546776952, None),
        (Spectral, 15.614255480051, None),
        (Spectral, 15.541090563764, None),
        (Spectral, 15.562737311588, None),
        (Spectral, 15.545573876499, None),
        (Spectral, 15.600162642913, None),
        (Spectral, 15.576572918184, None),
        (Spectral, 15.541731890642, None),
        (Spectral, 15.588415994906, None),
        (Spectral, 15.549405658079, None),
        (Spectral, 15.558307101344, None),
        (Spectral, 15.577824145956, None),
        (Spectral, 15.590277099156, None),
        (Spectral, 15.524315204907, None),
        (Spectral, 15.583441280636, None),
        (Spectral, 15.517158794344, None),
        (Spectral, 15.597080680694, None),
        (Spectral, 15.569671700449, None),
        (Spectral, 15.636641611984, None),
        (Spectral, 15.562105256714, None),
        (Spectral, 15.548767734147, None),
    ],
};

/// `approx`, `approx-fallback`, `pow2-fallback`.
static POW2_TEST: [Pin; 3] = [
    Pin {
        partition: (2, 3),
        truncation_log2: 42.169925001442,
        packs: &[
            (Spectral, 13.089152509655, Some(41.295131529387)),
            (Spectral, 13.096155095664, Some(41.299317525611)),
            (Spectral, 12.488392492288, Some(40.988499882930)),
        ],
    },
    Pin {
        partition: (2, 3),
        truncation_log2: 42.169925001442,
        packs: &[
            (Fallback, 13.089152509655, Some(41.295131529387)),
            (Fallback, 13.096155095664, Some(41.299317525611)),
            (Fallback, 12.488392492288, Some(40.988499882930)),
        ],
    },
    Pin {
        partition: (2, 3),
        truncation_log2: 42.169925001442,
        packs: &[
            (Fallback, 13.089152509655, Some(29.008778705805)),
            (Fallback, 13.096155095664, Some(29.012966511590)),
            (Fallback, 12.488392492288, Some(28.701981378766)),
        ],
    },
];

static PACKED_OVERFLOW: Pin = Pin {
    partition: (4, 1),
    truncation_log2: 9.321928094887,
    packs: &[
        (Spectral, 17.575924745176, None),
        (Spectral, 17.575924745176, None),
        (Spectral, 17.575924745176, None),
        (Spectral, 17.575924745176, None),
        (Spectral, 17.575924745176, None),
        (Spectral, 17.575924745176, None),
        (Spectral, 17.575924745176, None),
        (Spectral, 17.575924745176, None),
    ],
};

static TRUNCATION_OVERFLOW: Pin = Pin {
    partition: (1, 1),
    truncation_log2: 32.169925001442,
    packs: &[(Overflow, 7.583458910131, None)],
};
