//! One tree with every metric in the process.
//!
//! [`snapshot`] merges the registry (counters, gauges, span histograms)
//! with the pre-existing ad-hoc counter systems — the NTT/FFT plan
//! interners, the sparse compiled-plan cache,
//! and the scratch pools — so callers report one unified view instead of
//! stitching four APIs together.

use crate::metric::HistogramSnapshot;
use crate::registry::REGISTRY;
use flash_runtime::{CacheStats, PoolStats};

/// Hit/miss/eviction counters of one plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Stable cache name (e.g. `ntt_tables`).
    pub name: &'static str,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that built a new entry.
    pub misses: u64,
    /// Entries dropped by the cache's LRU capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: u64,
}

/// Recycling counters of one scratch pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSnapshot {
    /// Element-type name of the pool (e.g. `u64`).
    pub name: &'static str,
    /// Checkouts served from a recycled buffer.
    pub hits: u64,
    /// Checkouts that allocated.
    pub misses: u64,
    /// Capacity bytes handed out from recycled buffers.
    pub bytes_recycled: u64,
    /// Fraction of checkouts served without allocating.
    pub hit_rate: f64,
}

/// Point-in-time view of every metric in the process.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Whether span timing was compiled in ([`crate::enabled`]).
    pub enabled: bool,
    /// Registered counters, by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Registered gauges, by name.
    pub gauges: Vec<(&'static str, i64)>,
    /// Registered span histograms, by name.
    pub spans: Vec<(&'static str, HistogramSnapshot)>,
    /// Plan-cache hit/miss counters.
    pub caches: Vec<CacheSnapshot>,
    /// Scratch-pool recycling counters.
    pub pools: Vec<PoolSnapshot>,
}

fn cache(name: &'static str, s: CacheStats) -> CacheSnapshot {
    CacheSnapshot {
        name,
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        entries: s.entries,
    }
}

fn pool(name: &'static str, s: PoolStats) -> PoolSnapshot {
    PoolSnapshot {
        name,
        hits: s.hits,
        misses: s.misses,
        bytes_recycled: s.bytes_recycled,
        hit_rate: s.hit_rate(),
    }
}

/// Collects every metric in the process into one [`Snapshot`].
pub fn snapshot() -> Snapshot {
    // Surface the sparse-plan cache's aggregate sizes as gauges so they
    // appear in the same tree as everything else.
    let pm = flash_sparse::plan::plan_cache_metrics();
    crate::gauge("sparse_plan_cache.plans").set(pm.plans as i64);
    crate::gauge("sparse_plan_cache.uops").set(pm.uops as i64);
    crate::gauge("sparse_plan_cache.tape_bytes").set(pm.tape_bytes as i64);

    let counters = REGISTRY
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&name, c)| (name, c.get()))
        .collect();
    let gauges = REGISTRY
        .gauges
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&name, g)| (name, g.get()))
        .collect();
    let spans = REGISTRY
        .histograms
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&name, h)| (name, h.snapshot()))
        .collect();

    Snapshot {
        enabled: crate::enabled(),
        counters,
        gauges,
        spans,
        caches: vec![
            cache("ntt_tables", flash_ntt::NttTables::shared_cache_stats()),
            cache("fft_plans", flash_fft::NegacyclicFft::shared_cache_stats()),
            cache(
                "fixed_fft_plans",
                flash_fft::fixed_fft::FixedNegacyclicFft::shared_cache_stats(),
            ),
            cache("sparse_plans", pm.stats),
        ],
        pools: vec![
            pool("u64", flash_runtime::U64_SCRATCH.stats()),
            pool("f64", flash_runtime::F64_SCRATCH.stats()),
            pool("i128", flash_runtime::I128_SCRATCH.stats()),
            pool("c64", flash_fft::C64_SCRATCH.stats()),
        ],
    }
}

impl Snapshot {
    /// Serializes the tree as pretty-printed JSON, each line prefixed
    /// with `base_indent` spaces so callers can embed it inside a larger
    /// document (the first line carries no prefix; the caller places
    /// it). Span durations are reported in derived units (`total_ms`,
    /// `mean_us`, percentile `_us` fields) for direct reading.
    pub fn to_json(&self, base_indent: usize) -> String {
        let pad = " ".repeat(base_indent);
        let mut out = String::from("{\n");
        let field = |out: &mut String, line: &str| {
            out.push_str(&pad);
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        };
        field(
            &mut out,
            &format!("\"telemetry_enabled\": {},", self.enabled),
        );

        field(&mut out, "\"stages\": {");
        for (i, (name, s)) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            field(
                &mut out,
                &format!(
                    "  \"{name}\": {{\"count\": {}, \"total_ms\": {:.4}, \"mean_us\": {:.2}, \
                     \"p50_us\": {:.2}, \"p90_us\": {:.2}, \"p99_us\": {:.2}, \"max_us\": {:.2}}}{comma}",
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.mean_ns() as f64 / 1e3,
                    s.p50_ns as f64 / 1e3,
                    s.p90_ns as f64 / 1e3,
                    s.p99_ns as f64 / 1e3,
                    s.max_ns as f64 / 1e3,
                ),
            );
        }
        field(&mut out, "},");

        field(&mut out, "\"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            field(&mut out, &format!("  \"{name}\": {v}{comma}"));
        }
        field(&mut out, "},");

        field(&mut out, "\"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            field(&mut out, &format!("  \"{name}\": {v}{comma}"));
        }
        field(&mut out, "},");

        field(&mut out, "\"caches\": {");
        for (i, c) in self.caches.iter().enumerate() {
            let comma = if i + 1 < self.caches.len() { "," } else { "" };
            field(
                &mut out,
                &format!(
                    "  \"{}\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
                     \"entries\": {}}}{comma}",
                    c.name, c.hits, c.misses, c.evictions, c.entries
                ),
            );
        }
        field(&mut out, "},");

        field(&mut out, "\"pools\": {");
        for (i, p) in self.pools.iter().enumerate() {
            let comma = if i + 1 < self.pools.len() { "," } else { "" };
            field(
                &mut out,
                &format!(
                    "  \"{}\": {{\"hits\": {}, \"misses\": {}, \"bytes_recycled\": {}, \
                     \"hit_rate\": {:.4}}}{comma}",
                    p.name, p.hits, p.misses, p.bytes_recycled, p.hit_rate
                ),
            );
        }
        field(&mut out, "}");

        out.push_str(&pad);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_contains_all_cache_and_pool_systems() {
        // touch one pool so the counters are live
        drop(flash_runtime::U64_SCRATCH.take(8));
        let s = snapshot();
        let cache_names: Vec<_> = s.caches.iter().map(|c| c.name).collect();
        assert_eq!(
            cache_names,
            ["ntt_tables", "fft_plans", "fixed_fft_plans", "sparse_plans"]
        );
        let pool_names: Vec<_> = s.pools.iter().map(|p| p.name).collect();
        assert_eq!(pool_names, ["u64", "f64", "i128", "c64"]);
        assert_eq!(s.enabled, crate::enabled());
    }

    #[test]
    fn snapshot_reflects_registry_contents() {
        let _g = crate::registry::RESET_LOCK
            .read()
            .unwrap_or_else(|e| e.into_inner());
        crate::counter("test.snapshot.ctr").add(5);
        crate::gauge("test.snapshot.gauge").set(-3);
        crate::histogram("test.snapshot.hist").record_ns(1000);
        let s = snapshot();
        assert!(s
            .counters
            .iter()
            .any(|&(n, v)| n == "test.snapshot.ctr" && v >= 5));
        assert!(s
            .gauges
            .iter()
            .any(|&(n, v)| n == "test.snapshot.gauge" && v == -3));
        assert!(s
            .spans
            .iter()
            .any(|&(n, h)| n == "test.snapshot.hist" && h.count >= 1));
    }

    #[test]
    fn snapshot_surfaces_plan_cache_gauges() {
        let s = snapshot();
        for g in [
            "sparse_plan_cache.plans",
            "sparse_plan_cache.uops",
            "sparse_plan_cache.tape_bytes",
        ] {
            assert!(s.gauges.iter().any(|&(n, _)| n == g), "missing gauge {g}");
        }
    }

    #[test]
    fn json_is_balanced_and_embeddable() {
        crate::counter("test.snapshot.json").add(1);
        let s = snapshot();
        let json = s.to_json(2);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("  }"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces:\n{json}"
        );
        assert!(json.contains("\"telemetry_enabled\""));
        assert!(json.contains("\"stages\""));
        assert!(json.contains("\"pools\""));
        assert!(json.contains("\"test.snapshot.json\": "));
    }
}
