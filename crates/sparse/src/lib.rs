//! Sparsity-aware FFT dataflow — FLASH's "skipping" and "merging"
//! optimizations (Section IV-B of the paper).
//!
//! Cheetah's coefficient encoding leaves weight plaintexts more than 90 %
//! sparse. This crate exploits that structure in the butterfly network:
//!
//! * **Skipping** — when the second butterfly operand is zero, both
//!   outputs are copies of the first; a contiguous valid prefix therefore
//!   collapses the transform to a small butterfly network followed by
//!   duplication (Figure 8(a)).
//! * **Merging** — an isolated valid value propagates as `± ω^e · x`
//!   through the stages; the chained twiddle multiplications collapse into
//!   a single one whose exponent is the sum of the stage exponents
//!   (Figure 8(b)), and negations/duplications stay free.
//!
//! Both fall out of one mechanism: a walk of the butterfly network over
//! the node lattice `Zero ⊑ Scaled ⊑ Dense`, run once per sparsity
//! pattern by [`SparsePlan::compile`]. The one walk counts the paper's
//! multiplications ([`SparsePlan::counts`], [`SparsePlan::profile`]) and
//! emits the µop tape the protocol executes, whose spectra match the
//! dense transform in `f64`.
//!
//! * [`pattern`] — sparsity patterns, folding of negacyclic weight
//!   polynomials into the half-size FFT domain.
//! * [`plan`] — the walk, compiled to a flat µop tape and interned per
//!   pattern; the form the protocol hot path executes and the hardware
//!   model counts.
//! * [`symbolic`] — the accounting the walk reports.
//! * [`schedule`] / [`pipeline`] — mapping counted operations onto
//!   butterfly units (cycle model for the accelerator).
//!
//! # Examples
//!
//! ```
//! use flash_sparse::{SparsePlan, SparsityPattern};
//!
//! // One isolated non-zero value in a 16-point network: the paper's
//! // Example 4.2 (bit-reversed position 6). Merging collapses the 32
//! // classical multiplications to one per distinct twiddle exponent (3
//! // here; the paper charges the trivial ω⁰ too and says 4).
//! let p = SparsityPattern::from_indices(16, [6]).bit_reversed();
//! let plan = SparsePlan::compile(&p);
//! assert_eq!(plan.counts().mults(), 3);
//! ```

pub mod pattern;
pub mod pipeline;
pub mod plan;
pub mod schedule;
pub mod symbolic;

pub use pattern::SparsityPattern;
pub use plan::SparsePlan;
pub use symbolic::DataflowCounts;
