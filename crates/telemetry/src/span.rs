//! RAII span timers.
//!
//! A [`Span`] records the wall-clock time between its construction and
//! its drop into a named histogram. The `telemetry` cargo feature is
//! resolved *here*, inside this crate's function bodies — downstream
//! crates call [`crate::span!`] unconditionally and get either the real
//! timer or an inert zero-sized guard depending on how this crate was
//! compiled. With the feature off, `Span` has no fields and no `Drop`
//! impl, so the optimizer erases the guard entirely.

use crate::metric::Histogram;
use std::sync::OnceLock;

/// RAII guard timing one instrumented region; see [`crate::span!`].
#[must_use = "a span records on drop; binding it to `_` ends it immediately"]
pub struct Span {
    #[cfg(feature = "telemetry")]
    active: Option<(&'static Histogram, std::time::Instant)>,
}

impl Span {
    /// Starts a span recording into `cell`'s histogram, registering it
    /// under `name` on the first call per call site. Use via
    /// [`crate::span!`], which supplies the per-call-site `cell`.
    #[inline]
    pub fn enter(cell: &OnceLock<&'static Histogram>, name: &'static str) -> Span {
        #[cfg(feature = "telemetry")]
        {
            let hist = *cell.get_or_init(|| crate::registry::histogram(name));
            Span {
                active: Some((hist, std::time::Instant::now())),
            }
        }
        #[cfg(not(feature = "telemetry"))]
        {
            let _ = (cell, name);
            Span {}
        }
    }

    /// Ends the span early without recording (e.g. an error path that
    /// should not pollute the latency distribution).
    pub fn cancel(#[allow(unused_mut)] mut self) {
        #[cfg(feature = "telemetry")]
        {
            self.active = None;
        }
    }
}

#[cfg(feature = "telemetry")]
impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some((hist, start)) = self.active.take() {
            hist.record_ns(start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_is_inert_or_records_matching_the_feature() {
        let _g = crate::registry::RESET_LOCK
            .read()
            .unwrap_or_else(|e| e.into_inner());
        {
            let _t = crate::span!("test.span.basic");
        }
        let recorded = crate::histogram("test.span.basic").snapshot().count;
        if crate::enabled() {
            assert_eq!(recorded, 1);
        } else {
            assert_eq!(recorded, 0, "disabled spans must not record");
        }
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn cancel_suppresses_recording() {
        let t = crate::span!("test.span.cancel");
        t.cancel();
        assert_eq!(crate::histogram("test.span.cancel").snapshot().count, 0);
    }

    #[cfg(not(feature = "telemetry"))]
    #[test]
    fn disabled_span_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Span>(), 0);
    }

    #[test]
    fn enter_caches_per_call_site() {
        let _g = crate::registry::RESET_LOCK
            .read()
            .unwrap_or_else(|e| e.into_inner());
        static CELL: OnceLock<&'static Histogram> = OnceLock::new();
        let a = Span::enter(&CELL, "test.span.cached");
        drop(a);
        let b = Span::enter(&CELL, "test.span.cached");
        drop(b);
        if crate::enabled() {
            assert_eq!(crate::histogram("test.span.cached").snapshot().count, 2);
        }
    }
}
