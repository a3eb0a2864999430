//! The process-wide metric registry.
//!
//! Metrics are registered lazily by name and live for the process
//! lifetime (`Box::leak`), so lookups hand out `&'static` references
//! and the record path never revisits the registry. The registry lock
//! is only taken at registration and snapshot time; [`span!`] and
//! [`counter!`] cache the reference per call site in a `OnceLock`, so
//! each site pays the lock exactly once.
//!
//! [`span!`]: crate::span!
//! [`counter!`]: crate::counter!

use crate::metric::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::Mutex;

pub(crate) struct Registry {
    pub(crate) counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    pub(crate) gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    pub(crate) histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
}

pub(crate) static REGISTRY: Registry = Registry {
    counters: Mutex::new(BTreeMap::new()),
    gauges: Mutex::new(BTreeMap::new()),
    histograms: Mutex::new(BTreeMap::new()),
};

fn intern<T>(
    map: &Mutex<BTreeMap<&'static str, &'static T>>,
    name: &'static str,
    build: impl FnOnce() -> T,
) -> &'static T {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(build())))
}

/// The named counter, registering it on first use.
pub fn counter(name: &'static str) -> &'static Counter {
    intern(&REGISTRY.counters, name, Counter::new)
}

/// The named gauge, registering it on first use.
pub fn gauge(name: &'static str) -> &'static Gauge {
    intern(&REGISTRY.gauges, name, Gauge::new)
}

/// The named histogram, registering it on first use.
pub fn histogram(name: &'static str) -> &'static Histogram {
    intern(&REGISTRY.histograms, name, Histogram::new)
}

/// Zeroes every registered counter, gauge and histogram (registrations
/// and call-site caches stay valid). For tests and benchmark sections
/// that want a clean measurement window — the cache/pool counters
/// surfaced by [`crate::snapshot`] have their own reset entry points.
pub fn reset() {
    for c in REGISTRY
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        c.reset();
    }
    for g in REGISTRY
        .gauges
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        g.reset();
    }
    for h in REGISTRY
        .histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .values()
    {
        h.reset();
    }
}

/// Unit tests share the process-wide registry and run on parallel
/// threads: a test that reads back a value it recorded holds this for
/// reading, and the test that zeroes the whole registry holds it for
/// writing, so a [`reset`] never lands between a record and its check.
#[cfg(test)]
pub(crate) static RESET_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_metric() {
        let _g = RESET_LOCK.read().unwrap_or_else(|e| e.into_inner());
        let a = counter("test.registry.same");
        let b = counter("test.registry.same");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn kinds_are_namespaced_separately() {
        let _g = RESET_LOCK.read().unwrap_or_else(|e| e.into_inner());
        counter("test.registry.kind").add(1);
        gauge("test.registry.kind").set(9);
        histogram("test.registry.kind").record_ns(5);
        assert_eq!(counter("test.registry.kind").get(), 1);
        assert_eq!(gauge("test.registry.kind").get(), 9);
        assert_eq!(histogram("test.registry.kind").snapshot().count, 1);
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let _g = RESET_LOCK.write().unwrap_or_else(|e| e.into_inner());
        let c = counter("test.registry.reset");
        c.add(7);
        let h = histogram("test.registry.reset");
        h.record_ns(100);
        reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        // the &'static stays usable after reset
        c.add(1);
        assert_eq!(counter("test.registry.reset").get(), 1);
    }
}
