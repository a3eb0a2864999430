//! Runs over all workloads: the plain suite, `--selfcheck` and
//! `--calibrate`.
//!
//! Every (workload, pass) pair runs in a child process of this same
//! executable with the driver's own command line, so the suite measures
//! exactly what the acceptance driver measures and peak memory, caches
//! and set-up never leak from one workload into the next.

use crate::json::{self, Value};
use crate::metrics::WORKLOADS;
use crate::{stats, Args, HELD_OUT_SEED};
use std::collections::BTreeMap;
use std::process::Command;

/// Counts that depend on shapes alone and must repeat exactly between
/// two runs of one build, whatever the seed or the op count.
const EXACT: [&str; 11] = [
    "bytes_per_op",
    "he.ciphertexts_up",
    "he.ciphertexts_down",
    "he.payload_bytes",
    "he.fallbacks",
    "twopc.protocol.weight_transforms",
    "twopc.protocol.activation_transforms",
    "twopc.protocol.inverse_transforms",
    "twopc.protocol.pointwise_muls",
    "twopc.nonlinear.messages",
    "twopc.nonlinear.wire_bytes",
];

/// `setup_s` readings this close, s, agree whatever their ratio (the
/// issue's bound is max(25 %, 0.05 s)): `relu_pool_2pc` sets up in 0.09 s,
/// where a quarter is 23 ms of process-start jitter.
const SETUP_FLOOR_S: f64 = 0.05;

/// The parsed final line of one child run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// The line as printed.
    pub line: String,
}

fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    parse_result(line).map_err(|e| format!("{workload}: {e}"))
}

fn parse_result(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line)?;
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(RunResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")? as u64,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")? as u64,
        metrics,
        line: line.to_string(),
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

/// Output of an external tool's first line, or `"unknown"`.
fn tool_line(program: &str, argv: &[&str]) -> String {
    Command::new(program)
        .args(argv)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One pass over the selected workloads: `(workload, traced?) → result`.
type Set = BTreeMap<(&'static str, bool), RunResult>;

fn run_set(args: &Args, seed: u64, traced_too: bool) -> Result<Set, String> {
    let mut set = Set::new();
    for w in selected(args) {
        for trace in [false, true] {
            if trace && !traced_too {
                continue;
            }
            let r = run_child(w, seed, args.seconds, trace)?;
            println!(
                "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"result\": {}}}",
                json::quote(w),
                u8::from(trace),
                r.line
            );
            set.insert((w, trace), r);
        }
    }
    Ok(set)
}

/// The suite: every selected workload untraced, then (with `--trace`)
/// traced; one JSON object per run and a closing summary. This benchmark
/// defines the instrument and claims no gain, hence `"claim": null`.
pub fn run(args: &Args) -> bool {
    let set = match run_set(args, args.seed, args.trace) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("flash-benchmark: {e}");
            return false;
        }
    };
    let ops: Vec<String> = set
        .iter()
        .filter(|((_, traced), _)| !traced)
        .map(|((w, _), r)| format!("{}: {}", json::quote(w), r.attempted))
        .collect();
    let all_correct = set.values().all(|r| r.correct && r.failed == 0);
    use flash_runtime::simd;
    println!(
        "{{\"summary\": {{\"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"nproc\": {}, \"git_revision\": {}, \"rustc\": {}, \"simd_detected\": {}, \"simd_dispatch\": {}, \"timed_ops\": {{{}}}, \"all_correct\": {all_correct}, \"claim\": null}}}}",
        args.seed,
        args.seconds,
        crate::clock::nproc(),
        json::quote(&tool_line("git", &["rev-parse", "--short", "HEAD"])),
        json::quote(&tool_line("rustc", &["-V"])),
        json::quote(simd::detected_level().name()),
        json::quote(simd::level().name()),
        ops.join(", "),
    );
    all_correct
}

/// `name → bound` of the end-to-end metrics, from `BENCHMARK.json` in the
/// working directory (the repository root; `run.sh` changes into it).
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text)?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str);
            let bound = e.get("bound").and_then(Value::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "end_to_end entry lacks name or bound".to_string())
        })
        .collect()
}

/// How far apart two readings are, as a share of the smaller.
fn relative_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

/// Disagreements between two sets of runs of one build: an end-to-end
/// metric further apart than its bound, an exact count that moved at
/// all, or any failed op.
pub fn disagreements(a: &Set, b: &Set, bounds: &BTreeMap<String, f64>) -> Vec<String> {
    let mut out = Vec::new();
    for (key @ (w, traced), ra) in a {
        let Some(rb) = b.get(key) else {
            out.push(format!("{w} trace={traced}: missing from the second set"));
            continue;
        };
        for r in [ra, rb] {
            if !r.correct || r.failed != 0 {
                out.push(format!(
                    "{w} trace={traced}: {} of {} ops failed",
                    r.failed, r.attempted
                ));
            }
        }
        for (name, &va) in &ra.metrics {
            let Some(&vb) = rb.metrics.get(name) else {
                out.push(format!("{w}: {name} missing from the second set"));
                continue;
            };
            if EXACT.contains(&name.as_str()) {
                if va != vb {
                    out.push(format!("{w}: exact count {name} moved: {va} vs {vb}"));
                }
            } else if let Some(&bound) = bounds.get(name) {
                let gap = relative_gap(va, vb);
                let within_floor = name == "setup_s" && (va - vb).abs() <= SETUP_FLOOR_S;
                if gap > bound && !within_floor {
                    out.push(format!(
                        "{w}: {name} {va} vs {vb} differ by {:.1} % (bound {:.1} %)",
                        gap * 100.0,
                        bound * 100.0
                    ));
                }
            }
        }
    }
    out
}

/// Folds the passes of one set into one: exact counts must agree
/// across the passes (a disagreement is pushed to `problems`), every
/// other metric is the median, failures add up.
fn fold_passes(passes: Vec<Set>, problems: &mut Vec<String>) -> Set {
    let mut folded = Set::new();
    let Some(first) = passes.first() else {
        return folded;
    };
    for (key @ (w, _), r0) in first {
        let all: Vec<&RunResult> = passes.iter().filter_map(|s| s.get(key)).collect();
        let mut metrics = BTreeMap::new();
        for (name, &v0) in &r0.metrics {
            let xs: Vec<f64> = all
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if EXACT.contains(&name.as_str()) && xs.iter().any(|&x| x != v0) {
                problems.push(format!(
                    "{w}: exact count {name} moved within a set: {xs:?}"
                ));
            }
            metrics.insert(name.clone(), stats::median(&xs));
        }
        folded.insert(
            *key,
            RunResult {
                correct: all.iter().all(|r| r.correct),
                attempted: all.iter().map(|r| r.attempted).sum(),
                failed: all.iter().map(|r| r.failed).sum(),
                metrics,
                line: String::new(),
            },
        );
    }
    folded
}

/// Two full back-to-back sets of runs of the same build, untraced and
/// traced, `passes` suites each (medians are compared: on a shared host a
/// neighbour can slow a single run by a third); fails on any
/// [`disagreements`].
pub fn selfcheck(args: &Args, passes: usize) -> bool {
    let result = bounds().and_then(|bounds| {
        let mut problems = Vec::new();
        let mut set = || -> Result<Set, String> {
            let sets = (0..passes)
                .map(|_| run_set(args, args.seed, true))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(fold_passes(sets, &mut problems))
        };
        let (first, second) = (set()?, set()?);
        problems.extend(disagreements(&first, &second, &bounds));
        Ok(problems)
    });
    match result {
        Ok(problems) if problems.is_empty() => {
            println!(
                "{{\"selfcheck\": \"pass\", \"seed\": {}, \"passes_per_set\": {passes}, \"claim\": null}}",
                args.seed
            );
            true
        }
        Ok(problems) => {
            for p in &problems {
                eprintln!("selfcheck: {p}");
            }
            println!(
                "{{\"selfcheck\": \"fail\", \"seed\": {}, \"disagreements\": {}}}",
                args.seed,
                problems.len()
            );
            false
        }
        Err(e) => {
            eprintln!("flash-benchmark: {e}");
            false
        }
    }
}

/// `runs` untraced suites on seeds `seed, seed+1, …`: per workload and
/// end-to-end metric the median, quartiles and spread (interquartile
/// distance ÷ median, the acceptance driver's statistic) against the
/// bound, as a Markdown table. A bound is wide enough when the spread
/// stays under a third of it.
pub fn calibrate(args: &Args, runs: usize) -> bool {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("flash-benchmark: {e}");
            return false;
        }
    };
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    for i in 0..runs as u64 {
        let set = match run_set(args, args.seed + i, false) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("flash-benchmark: {e}");
                return false;
            }
        };
        for ((w, _), r) in set {
            for (name, v) in r.metrics {
                values.entry((w, name)).or_default().push(v);
            }
        }
    }
    println!();
    println!("| workload | metric | median | q1 | q3 | spread | bound | spread ≤ bound/3 |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut steady = true;
    for w in selected(args) {
        for d in &crate::metrics::END_TO_END {
            let xs = &values[&(w, d.name.to_string())];
            let (q1, q3) = stats::quartiles(xs);
            let spread = stats::spread(xs);
            let bound = bounds[d.name];
            // setup_s is bounded on its median only; its spread is shown,
            // not gated.
            let ok = spread <= bound / 3.0 || d.name == "setup_s";
            steady &= ok;
            println!(
                "| {w} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:.1} % | {} |",
                d.name,
                stats::median(xs),
                q1,
                q3,
                spread * 100.0,
                bound * 100.0,
                if ok { "yes" } else { "NO" }
            );
        }
    }
    steady
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(pairs: &[(&str, f64)], failed: u64) -> RunResult {
        RunResult {
            correct: failed == 0,
            attempted: 100,
            failed,
            metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            line: String::new(),
        }
    }

    #[test]
    fn result_lines_parse_back() {
        let r = parse_result(
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"op_ms_p50": {"value": 1.2034, "unit": "ms"}}}"#,
        )
        .unwrap();
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (1000, 0));
        assert_eq!(r.metrics["op_ms_p50"], 1.2034);
        assert!(parse_result(r#"{"correct": true}"#).is_err());
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn passes_fold_to_medians_and_exact_counts_must_agree() {
        let pass = |p50: f64, bytes: f64| -> Set {
            [(
                ("relu_pool_2pc", false),
                result(&[("op_ms_p50", p50), ("bytes_per_op", bytes)], 0),
            )]
            .into()
        };
        let mut problems = Vec::new();
        let folded = fold_passes(
            vec![pass(10.0, 500.0), pass(30.0, 500.0), pass(11.0, 500.0)],
            &mut problems,
        );
        assert!(problems.is_empty());
        let r = &folded[&("relu_pool_2pc", false)];
        assert_eq!(
            r.metrics["op_ms_p50"], 11.0,
            "one slow pass does not move the median"
        );
        assert_eq!((r.attempted, r.failed), (300, 0));
        fold_passes(vec![pass(10.0, 500.0), pass(10.0, 501.0)], &mut problems);
        assert_eq!(problems.len(), 1);
    }

    #[test]
    fn selfcheck_flags_drift_moved_counts_and_failures() {
        let bounds: BTreeMap<String, f64> = [
            ("op_ms_p50".to_string(), 0.07),
            ("bytes_per_op".to_string(), 0.001),
        ]
        .into();
        let set = |p50: f64, bytes: f64, failed: u64| -> Set {
            [(
                ("relu_pool_2pc", false),
                result(&[("op_ms_p50", p50), ("bytes_per_op", bytes)], failed),
            )]
            .into()
        };
        assert!(disagreements(&set(10.0, 500.0, 0), &set(10.5, 500.0, 0), &bounds).is_empty());
        // 8 % apart against a 7 % bound
        assert_eq!(
            disagreements(&set(10.0, 500.0, 0), &set(10.8, 500.0, 0), &bounds).len(),
            1
        );
        // an exact count may not move at all, even inside its bound
        assert_eq!(
            disagreements(&set(10.0, 500.0, 0), &set(10.0, 500.1, 0), &bounds).len(),
            1
        );
        assert_eq!(
            disagreements(&set(10.0, 500.0, 0), &set(10.0, 500.0, 2), &bounds).len(),
            1
        );
        assert_eq!(
            disagreements(&set(10.0, 500.0, 0), &Set::new(), &bounds).len(),
            1
        );
    }

    #[test]
    fn setup_time_has_an_absolute_floor() {
        let bounds: BTreeMap<String, f64> = [("setup_s".to_string(), 0.25)].into();
        let set = |w: &'static str, setup_s: f64| -> Set {
            [((w, false), result(&[("setup_s", setup_s)], 0))].into()
        };
        // 44 % apart but only 40 ms: process-start jitter, not a change
        let (a, b) = (set("relu_pool_2pc", 0.09), set("relu_pool_2pc", 0.13));
        assert!(disagreements(&a, &b, &bounds).is_empty());
        // 44 % apart and 0.6 s: a change
        let (a, b) = (set("serve_paced", 1.4), set("serve_paced", 2.02));
        assert_eq!(disagreements(&a, &b, &bounds).len(), 1);
    }
}
