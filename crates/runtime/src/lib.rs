//! Parallel execution runtime and plan-cache primitives.
//!
//! Every layer of the FLASH stack runs data-parallel loops (per-layer
//! workload extraction, per-channel weight transforms, Monte-Carlo
//! trials, DSE candidate batches) and rebuilds transform plans (NTT
//! tables, FFT twiddle/twist tables, sparse µop plans) on hot
//! paths. This crate provides the two shared levers:
//!
//! * [`parallel_map`] / [`parallel_map_with`] — a `std::thread::scope`
//!   chunked parallel map with a configurable worker count
//!   (`FLASH_THREADS`, or [`set_threads`]), falling back to plain
//!   sequential iteration for one worker or tiny inputs. The chunk →
//!   index mapping is fixed, so results are **bit-identical** to the
//!   sequential map for any thread count.
//! * [`Interner`] — a `Mutex`-backed map interning expensive immutable
//!   plan objects behind `Arc`s, with hit/miss counters. The concrete
//!   process-wide caches live next to the types they cache
//!   (`flash_ntt::NttTables::shared`, `flash_fft::NegacyclicFft::shared`,
//!   `flash_fft::fixed_fft::FixedNegacyclicFft::shared`,
//!   `flash_sparse::SparsePlan::shared`) so the dependency graph
//!   stays acyclic; this crate depends only on `std`.
//! * [`ScratchPool`] — thread-local, size-classed buffer pools with RAII
//!   checkout ([`Scratch`]), making the transform hot paths
//!   allocation-free in steady state. Buffers are 64-byte aligned
//!   ([`AlignedBuf`]) so SoA SIMD lane loads never straddle cache lines.
//!   Concrete pools follow the same placement rule as the interners:
//!   [`U64_SCRATCH`] / [`F64_SCRATCH`] / [`I128_SCRATCH`] live here, the
//!   `C64` pool lives in `flash-fft`, and new ones are declared with
//!   [`scratch_pool!`].
//! * [`simd`] — runtime SIMD level detection and the process-wide lane
//!   width decision the batched spectral kernels dispatch on
//!   (`FLASH_SIMD` / [`simd::force_level`] override it for A/B runs).
//!
//! # Determinism contract
//!
//! `parallel_map(items, f)[i] == f(&items[i])` for every `i`, regardless
//! of the worker count, provided `f` is a pure function of its argument.
//! Code that needs randomness inside a parallel region must derive one
//! seed per item *before* fanning out (per-item RNG seeding), never share
//! a sequential RNG stream across items.

mod config;
mod exec;
mod interner;
pub mod queue;
mod scratch;
pub mod simd;

pub use config::{max_threads, set_threads, ThreadOverrideGuard};
pub use exec::{parallel_gen, parallel_gen_with, parallel_map, parallel_map_with};
pub use interner::{CacheStats, Interner};
pub use queue::{QueueClosed, WorkQueue};
pub use scratch::{
    AlignedBuf, PoolShelves, PoolStats, Scratch, ScratchPool, F64_SCRATCH, I128_SCRATCH,
    MAX_BUFFERS_PER_CLASS, SCRATCH_ALIGN, U64_SCRATCH,
};
