//! Compiled sparse-transform plans: the skip/merge dataflow lowered to a
//! flat µop tape.
//!
//! The skip/merge structure depends only on the *sparsity pattern*, which
//! Cheetah's coefficient encoding fixes per layer: every k×k kernel
//! placement of a conv layer produces the same pattern. This module walks
//! the butterfly network over the node lattice `Zero ⊑ Scaled ⊑ Dense`
//! **once per pattern** — the only walk of it in the crate — and, in the
//! same pass, counts the paper's accounting ([`SparsePlan::counts`],
//! [`SparsePlan::profile`]) and emits a flat `Vec` of fixed-size µops
//! executed by a tight, branch-predictable interpreter:
//!
//! * [`Uop::Twist`] — fold one real coefficient pair into a complex slot
//!   and multiply by a single root that combines the negacyclic twist
//!   with an entire merged twiddle chain (the paper's **merging**,
//!   resolved at compile time);
//! * [`Uop::Butterfly`] / [`Uop::AddSub`] / [`Uop::Rotate`] — the
//!   butterflies that actually execute;
//! * [`Uop::Copy`] / [`Uop::Negate`] / [`Uop::Zero`] — the free wires of
//!   the paper's **skipping**.
//!
//! The output buffer doubles as the slot arena (slot *i* holds network
//! position *i*), so execution touches no memory beyond the tape, the
//! interned root table, the input and the output — zero heap allocations
//! at steady state, proven by `crates/fft/tests/zero_alloc.rs`.
//!
//! Plans are interned process-wide per `(m, pattern)` via
//! [`flash_runtime::Interner`] ([`SparsePlan::shared`]), and a batched
//! entry point ([`SparsePlan::execute_batch_into`]) runs one tape over
//! many weight polynomials sharing a pattern. The protocol stack
//! (`flash_he::PolyMulBackend`, `flash_2pc::protocol::ConvProtocol`)
//! selects a plan whenever the plaintext's pattern is known and
//! [`SparsePlan::worthwhile`] holds, falling back to the dense transform
//! bit-for-bit otherwise; the hardware model and the figures read the
//! counts of the same interned plans.

use crate::pattern::SparsityPattern;
use crate::symbolic::{DataflowCounts, StageProfile};
use flash_fft::simd::{self, C64x, F64x, SimdLevel, MAX_LANES};
use flash_math::bitrev::{bit_reverse, log2_exact};
use flash_math::C64;
use flash_runtime::{CacheStats, Interner, F64_SCRATCH};
use std::collections::HashSet;
use std::sync::Arc;

/// One fixed-size instruction of a compiled sparse transform.
///
/// Slot indices address the output buffer (the arena); `src` of
/// [`Uop::Twist`] addresses the *real* input polynomial (the partner
/// coefficient `src + N/2` is implied); root indices address the
/// interned table of `e^{iπk/N}` for `k < 2N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uop {
    /// `out[dst] = (w[src] + i·w[src + N/2]) · root[exp]`: fold, twist
    /// and an accumulated merge-chain twiddle in one multiplication.
    Twist { src: u32, dst: u32, exp: u32 },
    /// `(out[i], out[j]) = (out[i] + root[tw]·out[j], out[i] − root[tw]·out[j])`.
    Butterfly { i: u32, j: u32, tw: u32 },
    /// Trivial-twiddle butterfly: `(out[i], out[j]) = (out[i]+out[j], out[i]−out[j])`.
    AddSub { i: u32, j: u32 },
    /// Butterfly with a dead first operand:
    /// `out[i] = root[tw]·out[j]; out[j] = −out[i]`.
    Rotate { i: u32, j: u32, tw: u32 },
    /// `out[dst] = out[src]` (skipping: a zero partner duplicates).
    Copy { src: u32, dst: u32 },
    /// `out[dst] = −out[src]`.
    Negate { src: u32, dst: u32 },
    /// `out[dst] = 0` (network output that is identically zero).
    Zero { dst: u32 },
}

/// Compile-time node state (see [`crate::symbolic`]): `Scaled` is
/// `ω^exp · x_src` for the live input at bit-reversed slot `src`
/// (`ω = e^{+2πi/m}`, exponent mod `m`, negation folded into it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    Zero,
    Scaled { src: u32, exp: u32 },
    Dense,
}

/// A compiled plan for the forward sparse negacyclic weight transform of
/// ring degree `N = 2m`: `N` real coefficients (with the given sparsity
/// pattern in the folded `m`-slot domain) → `m` complex evaluations,
/// numerically matching [`flash_fft::NegacyclicFft::forward`].
#[derive(Debug, Clone)]
pub struct SparsePlan {
    /// Ring degree `N`.
    n: usize,
    /// Transform size `m = N/2`.
    m: usize,
    /// The flat instruction tape, executed front to back.
    tape: Vec<Uop>,
    /// `e^{iπk/N}` for `k < 2N`, interned per degree.
    roots: Arc<Vec<C64>>,
    /// Counts of the pattern (the paper's accounting).
    counts: DataflowCounts,
    /// Where in the network the counted multiplications happen.
    profile: StageProfile,
    /// Live slots other than slot 0: the fold/twist products the paper
    /// charges (`ω⁰` is free).
    twists: u64,
    /// Complex multiplications the tape actually executes (µop-level;
    /// charges trivial roots and duplicated chains the counted dedup
    /// shares in hardware, so `muls >= counts.mults()`).
    muls: u64,
}

/// Process-wide root tables, one per ring degree.
static ROOT_TABLES: Interner<usize, Vec<C64>> = Interner::bounded(64);

/// Process-wide compiled-plan cache keyed by the pattern digest.
static PLAN_CACHE: Interner<(usize, Vec<u64>), SparsePlan> = Interner::bounded(256);

fn root_table(n: usize) -> Arc<Vec<C64>> {
    ROOT_TABLES.intern_with(n, |&n| {
        (0..2 * n)
            .map(|k| C64::expi(std::f64::consts::PI * k as f64 / n as f64))
            .collect()
    })
}

impl SparsePlan {
    /// Compiles the tape for a fold-domain sparsity pattern in *natural*
    /// order (`m` slots; slot `j` is live when weight coefficient `j` or
    /// `j + m` can be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if the pattern length is not a power of two ≥ 2.
    pub fn compile(pattern_natural: &SparsityPattern) -> Self {
        let m = pattern_natural.len();
        assert!(m >= 2, "transform must have at least 2 points");
        let log_m = log2_exact(m);
        let n = 2 * m;
        let br = pattern_natural.bit_reversed();

        let mut state: Vec<CState> = (0..m)
            .map(|i| {
                if br.get(i) {
                    CState::Scaled {
                        src: i as u32,
                        exp: 0,
                    }
                } else {
                    CState::Zero
                }
            })
            .collect();

        // Natural fold index of a bit-reversed live slot, and the root
        // index combining its twist `ω_{2N}^j` with a merged butterfly
        // chain `ω_m^exp = ω_{2N}^{4·exp}`.
        let natural = |src: u32| bit_reverse(src as usize, log_m);
        let chain_root = |src: u32, exp: u32| ((natural(src) + 4 * exp as usize) % (2 * n)) as u32;

        let mut tape: Vec<Uop> = Vec::new();
        let mut muls = 0u64;
        let m32 = m as u32;
        let half_m = m32 / 2;

        // The paper's accounting: one multiplication per executed
        // butterfly, and one per distinct non-trivial `(src, exp mod m/2)`
        // materialization (the negated pair shares hardware).
        let mut counts = DataflowCounts {
            m: m as u64,
            ..DataflowCounts::default()
        };
        let mut groups: HashSet<(u32, u32)> = HashSet::new();
        let mut charge = |src: u32, exp: u32| -> u64 {
            let class = exp % half_m;
            u64::from(class != 0 && groups.insert((src, class)))
        };
        let mut per_stage = Vec::with_capacity(log_m as usize);

        for s in 1..=log_m {
            let mults_before = counts.mults();
            let len = 1usize << s;
            let half = len / 2;
            let stride = (m / len) as u32;
            for block in (0..m).step_by(len) {
                for j in 0..half {
                    let t = j as u32 * stride;
                    let iu = block + j;
                    let iv = block + j + half;
                    let (u, v) = (state[iu], state[iv]);
                    match (u, v) {
                        // Skipping: zero second operand → duplicate u.
                        (_, CState::Zero) => {
                            counts.skipped_butterflies += 1;
                            if u == CState::Dense {
                                tape.push(Uop::Copy {
                                    src: iu as u32,
                                    dst: iv as u32,
                                });
                            }
                            state[iv] = u;
                        }
                        // Merging: fold the twiddle into the chain.
                        (CState::Zero, CState::Scaled { src, exp }) => {
                            counts.skipped_butterflies += 1;
                            state[iu] = CState::Scaled {
                                src,
                                exp: (exp + t) % m32,
                            };
                            state[iv] = CState::Scaled {
                                src,
                                exp: (exp + t + half_m) % m32,
                            };
                        }
                        // Dead first operand: outputs are ±ω^t·v.
                        (CState::Zero, CState::Dense) => {
                            counts.executed_butterflies += 1;
                            if t == 0 {
                                tape.push(Uop::Copy {
                                    src: iv as u32,
                                    dst: iu as u32,
                                });
                                tape.push(Uop::Negate {
                                    src: iu as u32,
                                    dst: iv as u32,
                                });
                            } else {
                                tape.push(Uop::Rotate {
                                    i: iu as u32,
                                    j: iv as u32,
                                    tw: 4 * t,
                                });
                                muls += 1;
                            }
                            state[iu] = CState::Dense;
                            state[iv] = CState::Dense;
                        }
                        // Both operands live: a real butterfly. A scaled v
                        // fuses its chain into the butterfly twiddle; a
                        // scaled u materializes first.
                        (_, _) => {
                            counts.executed_butterflies += 1;
                            counts.adds += 2;
                            if let CState::Scaled { src, exp } = u {
                                counts.materializations += charge(src, exp);
                                tape.push(Uop::Twist {
                                    src: natural(src) as u32,
                                    dst: iu as u32,
                                    exp: chain_root(src, exp),
                                });
                                muls += 1;
                            }
                            match v {
                                CState::Scaled { src, exp } => {
                                    tape.push(Uop::Twist {
                                        src: natural(src) as u32,
                                        dst: iv as u32,
                                        exp: chain_root(src, (exp + t) % m32),
                                    });
                                    muls += 1;
                                    tape.push(Uop::AddSub {
                                        i: iu as u32,
                                        j: iv as u32,
                                    });
                                }
                                CState::Dense => {
                                    if t == 0 {
                                        tape.push(Uop::AddSub {
                                            i: iu as u32,
                                            j: iv as u32,
                                        });
                                    } else {
                                        tape.push(Uop::Butterfly {
                                            i: iu as u32,
                                            j: iv as u32,
                                            tw: 4 * t,
                                        });
                                        muls += 1;
                                    }
                                }
                                CState::Zero => unreachable!("matched above"),
                            }
                            state[iu] = CState::Dense;
                            state[iv] = CState::Dense;
                        }
                    }
                }
            }
            per_stage.push(counts.mults() - mults_before);
        }

        // Network outputs: merged chains materialize, dead slots zero.
        let before_outputs = counts.materializations;
        for (i, &st) in state.iter().enumerate() {
            match st {
                CState::Dense => {}
                CState::Scaled { src, exp } => {
                    counts.materializations += charge(src, exp);
                    tape.push(Uop::Twist {
                        src: natural(src) as u32,
                        dst: i as u32,
                        exp: chain_root(src, exp),
                    });
                    muls += 1;
                }
                CState::Zero => tape.push(Uop::Zero { dst: i as u32 }),
            }
        }

        tape.shrink_to_fit();
        Self {
            n,
            m,
            tape,
            roots: root_table(n),
            counts,
            profile: StageProfile {
                per_stage,
                output_materializations: counts.materializations - before_outputs,
            },
            twists: (pattern_natural.count() - usize::from(pattern_natural.get(0))) as u64,
            muls,
        }
    }

    /// Like [`SparsePlan::compile`], but interned process-wide: every
    /// call with an identical `(m, mask)` returns the same `Arc` without
    /// recompiling. All kernel placements of one conv layer (and all
    /// layers sharing a fold pattern) hit the same plan.
    ///
    /// # Panics
    ///
    /// Panics if the pattern length is not a power of two ≥ 2.
    pub fn shared(pattern_natural: &SparsityPattern) -> Arc<Self> {
        PLAN_CACHE.intern_with(pattern_natural.packed_words(), |_| {
            SparsePlan::compile(pattern_natural)
        })
    }

    /// Ring degree `N` of the weight polynomials this plan transforms.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Transform size `m = N/2` (length of the output spectrum).
    #[inline]
    pub fn size(&self) -> usize {
        self.m
    }

    /// Number of µops on the tape.
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// Bytes the tape occupies (µops only; the root table is shared).
    pub fn tape_bytes(&self) -> usize {
        self.tape.len() * std::mem::size_of::<Uop>()
    }

    /// Complex multiplications one execution of the tape performs.
    pub fn muls(&self) -> u64 {
        self.muls
    }

    /// Dataflow counts of the pattern (the paper's accounting).
    pub fn counts(&self) -> &DataflowCounts {
        &self.counts
    }

    /// Per-stage profile of the counted multiplications (the input of
    /// [`crate::pipeline::simulate_pe`]).
    pub fn profile(&self) -> &StageProfile {
        &self.profile
    }

    /// The paper's cost of one sparse weight transform: the counted
    /// butterfly network plus one fold/twist product per live slot
    /// (slot 0's twist is `ω⁰`, free). Compare with
    /// [`SparsePlan::dense_muls`].
    pub fn paper_muls(&self) -> u64 {
        self.counts.mults() + self.twists
    }

    /// Complex multiplications of the dense transform this plan replaces:
    /// `m` fold/twist products plus `m/2·log2 m` butterflies.
    pub fn dense_muls(&self) -> u64 {
        self.m as u64 + self.counts.dense_mults()
    }

    /// The dense-fallback rule: a plan is worth running when its tape
    /// performs at most 75 % of the dense transform's multiplications.
    /// Measured, the interpreter breaks even with the dense recursion at
    /// a mult ratio around 0.8 (an all-dense tape still drops the trivial
    /// `ω⁰` butterflies, ratio ≈ 0.8, and roughly ties), so 3/4 leaves a
    /// margin; near-dense patterns stay on the dense path, which also
    /// keeps zero-sparsity behaviour bit-for-bit unchanged.
    pub fn worthwhile(&self) -> bool {
        self.muls * 4 <= self.dense_muls() * 3
    }

    /// Runs the tape over one signed weight polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != N` or `out.len() != N/2`.
    pub fn execute_into(&self, w: &[i64], out: &mut [C64]) {
        assert_eq!(w.len(), self.n, "weight length must equal ring degree");
        self.run_tape(|i| w[i] as f64, out);
    }

    /// Runs the tape over one real-coefficient polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != N` or `out.len() != N/2`.
    pub fn execute_f64_into(&self, w: &[f64], out: &mut [C64]) {
        assert_eq!(w.len(), self.n, "weight length must equal ring degree");
        self.run_tape(|i| w[i], out);
    }

    /// Batched entry point: runs the tape over blocks of
    /// `W = flash_fft::simd::lanes()` polynomials at once in a
    /// lane-interleaved structure-of-arrays arena, writing consecutive
    /// `m`-slot chunks of `out`. One tape fetch and one root load serve
    /// all `W` lanes of a block — the per-layer case where every kernel
    /// placement shares a pattern. Remainder lanes are zero-padded at the
    /// `Twist` loads (the only µop that reads the input), and per lane
    /// the arithmetic sequence is exactly [`SparsePlan::execute_into`],
    /// so outputs are bit-identical at every lane width.
    ///
    /// # Panics
    ///
    /// Panics if any polynomial length differs from `N` or `out.len()`
    /// is not `batch · N/2`.
    pub fn execute_batch_into<'a, I>(&self, ws: I, out: &mut [C64])
    where
        I: IntoIterator<Item = &'a [i64]>,
    {
        assert_eq!(
            out.len() % self.m,
            0,
            "output length must be a multiple of N/2"
        );
        let level = simd::level();
        let w = level.lanes();
        let mut used = 0usize;
        if w == 1 {
            // True scalar fallback: one tape pass per polynomial.
            let mut chunks = out.chunks_exact_mut(self.m);
            for poly in ws {
                let chunk = chunks.next().expect("output buffer shorter than the batch");
                self.execute_into(poly, chunk);
                used += 1;
            }
        } else {
            let mut lanes: [&[i64]; MAX_LANES] = [&[]; MAX_LANES];
            let mut filled = 0usize;
            for poly in ws {
                assert_eq!(poly.len(), self.n, "weight length must equal ring degree");
                lanes[filled] = poly;
                filled += 1;
                if filled == w {
                    let end = (used + filled) * self.m;
                    assert!(end <= out.len(), "output buffer shorter than the batch");
                    self.run_tape_soa_dispatch(
                        level,
                        &lanes[..filled],
                        &mut out[used * self.m..end],
                    );
                    used += filled;
                    filled = 0;
                }
            }
            if filled > 0 {
                let end = (used + filled) * self.m;
                assert!(end <= out.len(), "output buffer shorter than the batch");
                self.run_tape_soa_dispatch(level, &lanes[..filled], &mut out[used * self.m..end]);
                used += filled;
            }
        }
        assert_eq!(
            used * self.m,
            out.len(),
            "output buffer longer than the batch"
        );
    }

    /// Routes a block of up to `lanes()` polynomials to the SoA
    /// interpreter monomorphized for the dispatched feature level.
    /// Narrow tails take the narrowest kernel that still covers them
    /// (see [`SimdLevel::narrowed`]); a single polynomial skips the SoA
    /// arena for one scalar tape pass.
    fn run_tape_soa_dispatch(&self, level: SimdLevel, ws: &[&[i64]], out: &mut [C64]) {
        if let [w] = ws {
            self.execute_into(w, out);
            return;
        }
        match level.narrowed(ws.len()) {
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => unsafe { self.run_tape_soa_avx512(ws, out) },
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => unsafe { self.run_tape_soa_avx2(ws, out) },
            _ => self.run_tape_soa::<2>(ws, out),
        }
    }

    /// AVX2 monomorphization of the SoA interpreter (`W = 4`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 (guaranteed by the `simd::level`
    /// dispatch in [`SparsePlan::run_tape_soa_dispatch`]).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_tape_soa_avx2(&self, ws: &[&[i64]], out: &mut [C64]) {
        self.run_tape_soa::<4>(ws, out);
    }

    /// AVX-512 monomorphization of the SoA interpreter (`W = 8`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F/DQ (guaranteed by the dispatch).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn run_tape_soa_avx512(&self, ws: &[&[i64]], out: &mut [C64]) {
        self.run_tape_soa::<8>(ws, out);
    }

    /// One tape pass over `ws.len() ≤ W` polynomials in a lane-interleaved
    /// SoA arena (slot `i` = `[re × W | im × W]` at offset `i·2W`, see
    /// [`flash_fft::simd`]). `Twist` is the only µop that touches the
    /// input, so zero-padding its loads covers the remainder lanes; all
    /// other µops are slot-to-slot and operate on all `W` lanes at once.
    #[inline(always)]
    fn run_tape_soa<const W: usize>(&self, ws: &[&[i64]], out: &mut [C64]) {
        let m = self.m;
        let used = ws.len();
        debug_assert!(0 < used && used <= W);
        debug_assert_eq!(out.len(), used * m);
        let roots: &[C64] = &self.roots;
        let mut soa = F64_SCRATCH.take(2 * W * m);
        for &op in &self.tape {
            match op {
                Uop::Twist { src, dst, exp } => {
                    let s = src as usize;
                    let mut re = [0.0f64; W];
                    let mut im = [0.0f64; W];
                    for (l, poly) in ws.iter().enumerate() {
                        re[l] = poly[s] as f64;
                        im[l] = poly[s + m] as f64;
                    }
                    let c = C64x {
                        re: F64x(re),
                        im: F64x(im),
                    };
                    c.mul_c(roots[exp as usize])
                        .store_slot(&mut soa, dst as usize);
                }
                Uop::Butterfly { i, j, tw } => {
                    let wv = C64x::<W>::load_slot(&soa, j as usize).mul_c(roots[tw as usize]);
                    let u = C64x::<W>::load_slot(&soa, i as usize);
                    u.add(wv).store_slot(&mut soa, i as usize);
                    u.sub(wv).store_slot(&mut soa, j as usize);
                }
                Uop::AddSub { i, j } => {
                    let v = C64x::<W>::load_slot(&soa, j as usize);
                    let u = C64x::<W>::load_slot(&soa, i as usize);
                    u.add(v).store_slot(&mut soa, i as usize);
                    u.sub(v).store_slot(&mut soa, j as usize);
                }
                Uop::Rotate { i, j, tw } => {
                    let wv = C64x::<W>::load_slot(&soa, j as usize).mul_c(roots[tw as usize]);
                    wv.store_slot(&mut soa, i as usize);
                    wv.neg().store_slot(&mut soa, j as usize);
                }
                Uop::Copy { src, dst } => {
                    C64x::<W>::load_slot(&soa, src as usize).store_slot(&mut soa, dst as usize);
                }
                Uop::Negate { src, dst } => {
                    C64x::<W>::load_slot(&soa, src as usize)
                        .neg()
                        .store_slot(&mut soa, dst as usize);
                }
                Uop::Zero { dst } => C64x::<W>::zero().store_slot(&mut soa, dst as usize),
            }
        }
        for j in 0..m {
            let base = j * 2 * W;
            for (l, chunk) in out.chunks_exact_mut(m).enumerate() {
                chunk[j] = C64::new(soa[base + l], soa[base + W + l]);
            }
        }
    }

    /// The interpreter: `out` doubles as the slot arena, every op writes
    /// before any later op reads, so no staging buffer exists.
    #[inline]
    fn run_tape(&self, load: impl Fn(usize) -> f64, out: &mut [C64]) {
        assert_eq!(out.len(), self.m, "output length must be N/2");
        let half = self.m;
        let roots: &[C64] = &self.roots;
        for &op in &self.tape {
            match op {
                Uop::Twist { src, dst, exp } => {
                    let s = src as usize;
                    out[dst as usize] = C64::new(load(s), load(s + half)) * roots[exp as usize];
                }
                Uop::Butterfly { i, j, tw } => {
                    let wv = out[j as usize] * roots[tw as usize];
                    let u = out[i as usize];
                    out[i as usize] = u + wv;
                    out[j as usize] = u - wv;
                }
                Uop::AddSub { i, j } => {
                    let v = out[j as usize];
                    let u = out[i as usize];
                    out[i as usize] = u + v;
                    out[j as usize] = u - v;
                }
                Uop::Rotate { i, j, tw } => {
                    let wv = out[j as usize] * roots[tw as usize];
                    out[i as usize] = wv;
                    out[j as usize] = -wv;
                }
                Uop::Copy { src, dst } => out[dst as usize] = out[src as usize],
                Uop::Negate { src, dst } => out[dst as usize] = -out[src as usize],
                Uop::Zero { dst } => out[dst as usize] = C64::ZERO,
            }
        }
    }
}

/// Aggregate metrics of the process-wide plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheMetrics {
    /// Plans currently interned.
    pub plans: usize,
    /// Total µops across all interned tapes.
    pub uops: u64,
    /// Total bytes the interned tapes occupy.
    pub tape_bytes: u64,
    /// Hit/miss counters of the interner.
    pub stats: CacheStats,
}

/// Hit/miss counters of the [`SparsePlan::shared`] interner.
pub fn plan_cache_stats() -> CacheStats {
    PLAN_CACHE.stats()
}

/// Snapshot of the plan cache: compiled plans, tape sizes, hit rate.
pub fn plan_cache_metrics() -> PlanCacheMetrics {
    let (uops, tape_bytes) = PLAN_CACHE.fold_values((0u64, 0u64), |(u, b), p| {
        (u + p.tape_len() as u64, b + p.tape_bytes() as u64)
    });
    PlanCacheMetrics {
        plans: PLAN_CACHE.len(),
        uops,
        tape_bytes,
        stats: PLAN_CACHE.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flash_fft::NegacyclicFft;

    fn max_err(a: &[C64], b: &[C64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn weights_for(pattern: &SparsityPattern, seed: u64) -> Vec<i64> {
        let n = 2 * pattern.len();
        let mut w = vec![0i64; n];
        for (j, live) in pattern.mask().iter().enumerate() {
            if *live {
                let v = ((j as u64).wrapping_mul(seed | 1) % 15) as i64 - 7;
                w[j] = v;
                w[j + pattern.len()] = -v + 1;
            }
        }
        w
    }

    fn check_against_dense(pattern: &SparsityPattern, seed: u64) {
        let n = 2 * pattern.len();
        let plan = SparsePlan::compile(pattern);
        let fft = NegacyclicFft::new(n);
        let w = weights_for(pattern, seed);
        let wf: Vec<f64> = w.iter().map(|&x| x as f64).collect();
        let want = fft.forward(&wf);
        let mut got = vec![C64::ZERO; n / 2];
        plan.execute_into(&w, &mut got);
        let scale = want.iter().map(|c| c.abs()).fold(1.0, f64::max);
        assert!(
            max_err(&got, &want) < 1e-9 * scale,
            "plan diverged from dense forward (m={})",
            pattern.len()
        );
    }

    #[test]
    fn uops_are_fixed_size() {
        assert_eq!(std::mem::size_of::<Uop>(), 16);
    }

    #[test]
    fn dense_pattern_matches_dense_transform() {
        for m in [2usize, 8, 64, 256] {
            check_against_dense(&SparsityPattern::dense(m), 3);
        }
    }

    #[test]
    fn single_nonzero_matches_dense_transform() {
        let m = 128;
        for src in [0usize, 1, 37, m - 1] {
            check_against_dense(&SparsityPattern::from_indices(m, [src]), src as u64 + 1);
        }
    }

    #[test]
    fn conv_patterns_match_dense_transform() {
        // Cheetah 3x3-kernel patterns at several tile geometries.
        for (m, hw, rs, k) in [(128usize, 32, 8, 3), (512, 64, 8, 3), (1024, 256, 16, 3)] {
            let p = crate::pattern::cheetah_weight_pattern(m, hw, rs, k);
            check_against_dense(&p, 11);
        }
    }

    #[test]
    fn contiguous_prefix_skipping_matches_dense_transform() {
        // Live slots contiguous in the bit-reversed domain (the paper's
        // Example 4.1 at m = 64): only the 8-point sub-network executes,
        // and every later stage duplicates.
        let p = SparsityPattern::from_indices(64, 0..8).bit_reversed();
        let plan = SparsePlan::compile(&p);
        assert_eq!(plan.counts().executed_butterflies, 4 * 3);
        assert_eq!(plan.counts().materializations, 0);
        assert_eq!(plan.counts().skipped_butterflies, 6 * 32 - 4 * 3);
        check_against_dense(&p, 5);
    }

    #[test]
    fn empty_pattern_zeroes_the_spectrum() {
        let m = 64;
        let plan = SparsePlan::compile(&SparsityPattern::from_indices(m, []));
        let mut out = vec![C64::new(3.0, 4.0); m];
        plan.execute_into(&vec![0i64; 2 * m], &mut out);
        assert!(out.iter().all(|&c| c == C64::ZERO));
        assert_eq!(plan.muls(), 0);
    }

    /// Max error of the tape's f64 entry point against the dense
    /// forward transform on real, not necessarily integer, coefficients.
    fn f64_error(pattern: &SparsityPattern, w: &[f64]) -> f64 {
        let plan = SparsePlan::compile(pattern);
        let want = NegacyclicFft::new(w.len()).forward(w);
        let mut got = vec![C64::ZERO; plan.size()];
        plan.execute_f64_into(w, &mut got);
        max_err(&got, &want)
    }

    #[test]
    fn dense_input_matches_fft() {
        let m = 64;
        let w: Vec<f64> = (0..2 * m)
            .map(|i| {
                if i < m {
                    (i as f64 * 0.37).sin()
                } else {
                    ((i - m) as f64 * 0.91).cos()
                }
            })
            .collect();
        assert!(f64_error(&SparsityPattern::dense(m), &w) < 1e-9);
    }

    #[test]
    fn single_value_merging_matches_fft() {
        // One live slot holding 2.5 − 1.25i: the value only merges and
        // scales through the network, never meeting a partner.
        let m = 128;
        for src in [0usize, 1, 37, m - 1] {
            let mut w = vec![0.0; 2 * m];
            w[src] = 2.5;
            w[src + m] = -1.25;
            let p = SparsityPattern::from_indices(m, [src]);
            assert_eq!(SparsePlan::compile(&p).counts().executed_butterflies, 0);
            assert!(f64_error(&p, &w) < 1e-10, "src={src}");
        }
    }

    #[test]
    fn random_sparse_patterns_match_fft() {
        use rand::{Rng, SeedableRng};
        let m = 256;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for density in [1usize, 3, 9, 40, 200] {
            let mut w = vec![0.0; 2 * m];
            let mut live = Vec::with_capacity(density);
            for _ in 0..density {
                let i = rng.gen_range(0..m);
                w[i] = rng.gen_range(-8.0..8.0);
                w[i + m] = rng.gen_range(-8.0..8.0);
                live.push(i);
            }
            let p = SparsityPattern::from_indices(m, live);
            assert!(f64_error(&p, &w) < 1e-9, "density={density}");
        }
    }

    #[test]
    fn all_zero_input_gives_zero_output() {
        // A dense tape over zero coefficients must give exact zeros, not
        // rounding residue.
        let m = 32;
        let plan = SparsePlan::compile(&SparsityPattern::dense(m));
        let mut out = vec![C64::new(3.0, 4.0); m];
        plan.execute_f64_into(&vec![0.0; 2 * m], &mut out);
        assert!(out.iter().all(|&c| c == C64::ZERO));
    }

    #[test]
    fn sparse_tape_is_much_smaller_than_dense() {
        // The paper's >86 % reduction on encoded weights: 9 live
        // coefficients of 2048 slots leave a tiny tape.
        let p = crate::pattern::cheetah_weight_pattern(2048, 2048, 32, 3);
        assert_eq!(p.count(), 9);
        let plan = SparsePlan::compile(&p);
        assert!(plan.worthwhile());
        assert!(
            (plan.muls() as f64) < 0.14 * plan.dense_muls() as f64,
            "tape muls {} vs dense {}",
            plan.muls(),
            plan.dense_muls()
        );
        check_against_dense(&p, 7);
    }

    #[test]
    fn dense_pattern_is_not_worthwhile() {
        let plan = SparsePlan::compile(&SparsityPattern::dense(256));
        assert!(!plan.worthwhile());
    }

    #[test]
    fn shared_plans_are_interned() {
        let p = SparsityPattern::from_indices(64, [1, 5, 9]);
        let a = SparsePlan::shared(&p);
        let b = SparsePlan::shared(&p);
        assert!(Arc::ptr_eq(&a, &b));
        let metrics = plan_cache_metrics();
        assert!(metrics.plans >= 1);
        assert!(metrics.tape_bytes >= metrics.uops * 16);
    }

    #[test]
    fn batch_matches_single_executions() {
        let p = crate::pattern::cheetah_weight_pattern(128, 32, 8, 3);
        let plan = SparsePlan::compile(&p);
        let ws: Vec<Vec<i64>> = (0..4).map(|s| weights_for(&p, 100 + s)).collect();
        let m = plan.size();
        let mut batched = vec![C64::ZERO; 4 * m];
        plan.execute_batch_into(ws.iter().map(|w| w.as_slice()), &mut batched);
        for (i, w) in ws.iter().enumerate() {
            let mut single = vec![C64::ZERO; m];
            plan.execute_into(w, &mut single);
            assert_eq!(&batched[i * m..][..m], &single[..], "batch lane {i}");
        }
    }

    #[test]
    #[should_panic(expected = "shorter than the batch")]
    fn batch_output_too_short_panics() {
        let p = SparsityPattern::dense(8);
        let plan = SparsePlan::compile(&p);
        let w = [0i64; 16];
        let mut out = vec![C64::ZERO; 8];
        plan.execute_batch_into([&w[..], &w[..]], &mut out);
    }
}
