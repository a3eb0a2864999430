//! In-memory spans around the calls the benchmark makes into each
//! layer's public functions.
//!
//! Nothing inside `crates/` is instrumented: a span here is the outside
//! view of one public call — name, start, end, the span that was open
//! when it began, and the id of the op it belongs to. Spans stay in
//! memory during the run and are written as one JSON file at exit. A
//! span's *self time* is its duration minus the part its children cover;
//! what no child covers is what outside timing cannot see.

use crate::json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Marks "no parent".
const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, or `ROOT`.
    pub parent: u32,
    /// The op (request) this span belongs to.
    pub op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// The span recorder. A disabled recorder makes every call a no-op, so
/// the untraced pass runs the very same code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans of the calling (single) thread, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.enabled {
            return SpanId(ROOT);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            op,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a root span whose ends were observed separately (a served
    /// request is open from dispatch to collect while others interleave,
    /// so it cannot live on the stack).
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: ROOT,
                op,
            });
        }
    }

    /// Total duration of every span called `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time per span: duration minus the union of its children's
    /// intervals (clipped to the parent).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                let p = &self.spans[s.parent as usize];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if b > a {
                    kids[s.parent as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .map(|(s, iv)| {
                iv.sort_unstable();
                let (mut covered, mut upto) = (0u64, s.start_ns);
                for &(a, b) in iv.iter() {
                    let a = a.max(upto);
                    if b > a {
                        covered += b - a;
                        upto = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Writes the trace: one summary row per span name (count, total and
    /// self time) and every span in start order.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{")?;
        writeln!(w, "  \"workload\": {},", json::quote(workload))?;
        writeln!(w, "  \"seed\": {seed},")?;
        writeln!(w, "  \"time_unit\": \"us since the recorder started\",")?;
        writeln!(w, "  \"summary\": [")?;
        let rows: Vec<String> = by_name
            .iter()
            .map(|(name, (count, total, own))| {
                format!(
                    "    {{\"name\": {}, \"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                    json::quote(name),
                    json::number(*total as f64 / 1e6),
                    json::number(*own as f64 / 1e6)
                )
            })
            .collect();
        writeln!(w, "{}", rows.join(",\n"))?;
        writeln!(w, "  ],")?;
        writeln!(w, "  \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "    {{\"id\": {i}, \"name\": {}, \"op\": {}, \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}{}",
                json::quote(s.name),
                s.op,
                json::number(s.start_ns as f64 / 1e3),
                json::number(s.end_ns as f64 / 1e3),
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: Vec<Span>) -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans,
            stack: Vec::new(),
        }
    }

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let mut t = Tracer::new(true);
        let op = t.enter("op", 3);
        t.span("a", 3, || ());
        t.span("b", 3, || ());
        t.exit(op);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].parent, ROOT);
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[2].parent, 0);
        assert!(t.spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        assert!(t.spans[0].end_ns >= t.spans[2].end_ns);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::new(false);
        let op = t.enter("op", 0);
        assert_eq!(t.span("a", 0, || 7), 7);
        t.exit(op);
        t.record("r", 0, 1, 2);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // parent 0..100; children 10..30, 20..50 (overlapping), 90..120
        // (clipped at 100): covered = 40 + 10, self = 50.
        let t = tracer_with(vec![
            sp("p", 0, 100, ROOT),
            sp("c", 10, 30, 0),
            sp("c", 20, 50, 0),
            sp("c", 90, 120, 0),
        ]);
        assert_eq!(t.self_ns(), vec![50, 20, 30, 30]);
        assert_eq!(t.total_ms("c"), 80.0 / 1e6);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut t = Tracer::new(true);
        let op = t.enter("op", 1);
        t.span("leaf", 1, || ());
        t.exit(op);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-test-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        t.write_json(&path, "unit", 9).unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("unit"));
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(doc.get("summary").unwrap().as_arr().unwrap().len(), 2);
    }
}
