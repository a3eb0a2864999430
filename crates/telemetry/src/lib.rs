//! Unified telemetry for the FLASH pipeline.
//!
//! The workspace grew four disconnected counter systems (interner
//! hit/miss stats, scratch-pool recycling counters, the sparse-plan
//! cache metrics, per-run `ProtocolStats`) and no per-stage timing at
//! all, so an end-to-end median could not say *which* stage regressed.
//! This crate is the one substrate they all report through:
//!
//! * a process-wide **metrics registry** of named [`Counter`]s,
//!   [`Gauge`]s and latency [`Histogram`]s (fixed log2 buckets, atomics
//!   only — nothing allocates on the record path, mirroring the
//!   `ScratchPool` counter idiom);
//! * lightweight **RAII span timers** — [`span!`]`("weight_transform")`
//!   returns a guard whose drop records the elapsed nanoseconds into a
//!   per-call-site cached histogram. Spans compile to an inert
//!   zero-sized guard unless the default-off `telemetry` cargo feature
//!   is enabled, so the hot path pays nothing when observability is off
//!   (the feature is resolved *in this crate*, so downstream crates
//!   need no `cfg` of their own);
//! * one [`snapshot()`] that returns every metric in the process —
//!   registry contents plus the pre-existing counters (NTT/FFT plan
//!   interners, sparse symbolic-analysis and µop-plan caches, scratch
//!   pools) — as a serializable tree ([`Snapshot::to_json`]).
//!
//! # Placement
//!
//! This crate sits *above* the transform crates (`runtime`, `ntt`,
//! `fft`, `sparse`) so [`snapshot()`] can read their cache/pool
//! counters directly, and *below* the pipeline crates (`he`, `twopc`,
//! `accel`, `serve`) that instrument their stages with [`span!`]. The
//! dependency graph stays acyclic.
//!
//! # Stage naming convention
//!
//! The HConv pipeline stages use `hconv.<stage>` histogram names:
//! `encode`, `weight_transform` (dense or µop tape), `activation_fft`,
//! `pointwise_acc`, `inverse_fft`, `truncate_serialize`, `decrypt`,
//! plus the `hconv.layer` / `model.run_network` envelopes. Aggregate
//! protocol counters use `twopc.<field>`.

mod metric;
mod registry;
mod snapshot;
mod span;

pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{counter, gauge, histogram, reset};
pub use snapshot::{snapshot, CacheSnapshot, PoolSnapshot, Snapshot};
pub use span::Span;

/// Whether span timing is compiled in (`telemetry` cargo feature).
///
/// Counters, gauges and [`snapshot()`] work regardless; only the
/// [`span!`] guards become inert when this is `false`.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// Starts an RAII span timer recording into the named histogram.
///
/// The registry lookup happens once per call site (cached in a local
/// `OnceLock`); afterwards entering a span costs one `Instant::now()`
/// and its drop one more plus a handful of relaxed atomic adds. With
/// the `telemetry` feature disabled the guard is a zero-sized no-op.
///
/// ```
/// let _t = flash_telemetry::span!("hconv.encode");
/// // ... timed region ends when `_t` drops ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static __FLASH_SPAN_HIST: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::Span::enter(&__FLASH_SPAN_HIST, $name)
    }};
}

/// Returns the named [`Counter`], cached per call site.
///
/// ```
/// flash_telemetry::counter!("twopc.runs").add(1);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __FLASH_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__FLASH_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}
