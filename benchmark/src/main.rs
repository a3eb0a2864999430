//! The repository's one benchmark.
//!
//! `flash-benchmark --workload W --seed S --seconds N --trace 0|1` sets
//! one workload up from the seed, measures it for about `N` seconds,
//! checks every op against the plaintext reference and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end table from the
//! untraced pass (`--trace 0`), the per-layer table from the traced pass
//! (`--trace 1`). Without `--workload` it runs all five in turn, each in
//! a child process of its own so peak memory and set-up stay per
//! workload; `--selfcheck` and `--calibrate` repeat that suite and
//! compare or tabulate the results. See `benchmark/README.md`.

mod alloc;
mod clock;
mod json;
mod metrics;
mod probes;
mod schedule;
mod stats;
mod suite;
mod trace;
mod workloads;

use metrics::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Region, MIN_OPS, MIN_TRACED_OPS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The seed a bare `run.sh` uses, and the seed no tuning of the benchmark
/// or of a later change may look at: a claim must also hold there.
pub const DEFAULT_SEED: u64 = 20_250_925;
pub const HELD_OUT_SEED: u64 = 7_741;
/// Length of one timed region, s; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;
/// Suites per `--selfcheck` set; the sets' medians are compared.
const SELFCHECK_PASSES: usize = 3;
/// Suites per `--calibrate` table: the count the acceptance driver takes
/// its quartiles over.
const CALIBRATE_RUNS: usize = 10;

#[derive(Debug)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub mode: Mode,
}

#[derive(Debug, PartialEq)]
pub enum Mode {
    /// One workload (`--workload`) or the suite.
    Run,
    /// Two back-to-back sets of suites that must agree.
    Selfcheck,
    /// Suites on consecutive seeds, tabulated.
    Calibrate,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let w = value(&mut it, a)?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; known: {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value(&mut it, a)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            // `--trace` alone means on; the driver spells it `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--selfcheck" => args.mode = Mode::Selfcheck,
            "--calibrate" => args.mode = Mode::Calibrate,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flash-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&args.mode, &args.workload) {
        (Mode::Run, Some(w)) => run_one(w, &args),
        (Mode::Run, None) => suite::run(&args),
        (Mode::Selfcheck, _) => suite::selfcheck(&args, SELFCHECK_PASSES),
        (Mode::Calibrate, _) => suite::calibrate(&args, CALIBRATE_RUNS),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The final line of one run.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// Host and build facts that decide what a number means.
fn stamp(workload: &str, args: &Args, nproc: usize, threads: usize) -> String {
    use flash_runtime::simd;
    format!(
        "{{\"stamp\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"threads\": {threads}, \"simd_detected\": {}, \"simd_dispatch\": {}, \"target_features\": {}}}}}",
        json::quote(workload),
        args.seed,
        args.seconds,
        args.trace,
        nproc,
        json::quote(simd::detected_level().name()),
        json::quote(simd::level().name()),
        json::quote(simd::compile_target_features()),
    )
}

fn end_to_end(region: &Region, setup_s: f64) -> Metrics {
    let ok = region.ok() as f64;
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("op_ms_p50", stats::percentile(&region.lat_ms, 0.5));
    m.set("op_ms_p90", stats::percentile(&region.lat_ms, 0.9));
    m.set("ops_per_s", ok / region.wall_s);
    m.set("cpu_ms_per_op", region.cpu_s * 1e3 / ok);
    m.set("bytes_per_op", region.wire_bytes as f64 / ok);
    m.set("peak_rss_mb", region.rss_mib);
    m
}

fn run_one(workload: &str, args: &Args) -> bool {
    let line = if args.trace {
        traced_pass(workload, args)
    } else {
        untraced_pass(workload, args)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            true
        }
        Err(e) => {
            eprintln!("flash-benchmark: {e}");
            false
        }
    }
}

/// The pass that produces the end-to-end numbers: no recorder, no
/// counting allocator, nothing but the workload.
fn untraced_pass(workload: &str, args: &Args) -> Result<String, String> {
    // Read before set-up: the serving workloads pin this thread to one CPU.
    let nproc = clock::nproc();
    let t0 = Instant::now();
    let mut w = workloads::setup(workload, args.seed, false);
    let setup_s = t0.elapsed().as_secs_f64();
    println!("{}", stamp(workload, args, nproc, w.threads()));
    let region = w.region(args.seconds as f64, MIN_OPS, &mut Tracer::new(false));
    drop(w);
    report_region(&region);
    if region.ok() == 0 {
        return Err(format!(
            "all {} ops failed; nothing to measure",
            region.attempted
        ));
    }
    let m = end_to_end(&region, setup_s);
    Ok(result_line(
        region.failed == 0,
        region.attempted,
        region.failed,
        &m.to_json(&END_TO_END, true),
    ))
}

/// The pass that produces the per-layer numbers: a short untraced region
/// (its median against the traced one is what the spans cost), a traced
/// region under the counting allocator, then the workload's probes. The
/// spans go to `benchmark/out/trace-<workload>.json`.
fn traced_pass(workload: &str, args: &Args) -> Result<String, String> {
    let seconds = args.seconds as f64;
    let nproc = clock::nproc();
    let mut w = workloads::setup(workload, args.seed, false);
    println!("{}", stamp(workload, args, nproc, w.threads()));
    let plain = w.region(seconds * 0.3, MIN_TRACED_OPS, &mut Tracer::new(false));
    let mut tr = Tracer::new(true);
    let pools = PoolWindow::open();
    alloc::start();
    let region = w.region(seconds * 0.5, MIN_TRACED_OPS, &mut tr);
    let (allocs, alloc_bytes) = alloc::stop();
    let mut m = Metrics::default();
    pools.close(&mut m);
    report_region(&region);
    if plain.ok() == 0 || region.ok() == 0 {
        return Err("every op of a region failed; nothing to attribute".into());
    }

    let ops = region.attempted as f64;
    let threads = w.threads() as f64;
    m.set("runtime.threads", threads);
    m.set(
        "runtime.parallel_efficiency",
        region.cpu_s / (region.wall_s * threads),
    );
    m.set("runtime.allocs_per_op", allocs as f64 / ops);
    m.set("runtime.alloc_bytes_per_op", alloc_bytes as f64 / ops);
    m.set(
        "trace.overhead_ratio",
        stats::percentile(&region.lat_ms, 0.5) / stats::percentile(&plain.lat_ms, 0.5),
    );
    m.set("trace.spans_per_op", tr.span_count() as f64 / ops);
    w.layers(&region, &mut tr, &mut m);
    drop(w);

    let path = PathBuf::from("benchmark/out").join(format!("trace-{workload}.json"));
    tr.write_json(&path, workload, args.seed)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{{\"trace_file\": {}}}",
        json::quote(&path.to_string_lossy())
    );
    let failed = plain.failed + region.failed;
    Ok(result_line(
        failed == 0,
        plain.attempted + region.attempted,
        failed,
        &m.to_json(&PER_LAYER, false),
    ))
}

/// A human-readable line about the region, before the result line.
fn report_region(region: &Region) {
    let n = region.lat_ms.len();
    if !stats::supports(n, 0.9) {
        eprintln!("flash-benchmark: only {n} samples; op_ms_p90 has fewer than ten beyond it");
    }
    println!(
        "{{\"region\": {{\"attempted\": {}, \"failed\": {}, \"fail_ratio\": {}, \"latency_samples\": {n}, \"samples_beyond_p90\": {}, \"wall_s\": {}, \"cpu_s\": {}}}}}",
        region.attempted,
        region.failed,
        json::number(region.failed as f64 / region.attempted.max(1) as f64),
        stats::samples_beyond(n, 0.9),
        json::number(region.wall_s),
        json::number(region.cpu_s),
    );
}

/// Scratch-pool and plan-cache counters over the traced region: in steady
/// state every checkout is a hit and no plan is built.
struct PoolWindow {
    cache_misses: u64,
}

impl PoolWindow {
    fn open() -> Self {
        flash_runtime::U64_SCRATCH.reset_stats();
        flash_runtime::F64_SCRATCH.reset_stats();
        flash_runtime::I128_SCRATCH.reset_stats();
        flash_fft::C64_SCRATCH.reset_stats();
        PoolWindow {
            cache_misses: Self::cache_misses(),
        }
    }

    fn cache_misses() -> u64 {
        flash_fft::NegacyclicFft::shared_cache_stats().misses
            + flash_fft::fixed_fft::FixedNegacyclicFft::shared_cache_stats().misses
            + flash_ntt::NttTables::shared_cache_stats().misses
            + flash_sparse::plan::plan_cache_stats().misses
    }

    fn close(self, m: &mut Metrics) {
        let pools = [
            flash_runtime::U64_SCRATCH.stats(),
            flash_runtime::F64_SCRATCH.stats(),
            flash_runtime::I128_SCRATCH.stats(),
            flash_fft::C64_SCRATCH.stats(),
        ];
        let hits: u64 = pools.iter().map(|p| p.hits).sum();
        let total: u64 = hits + pools.iter().map(|p| p.misses).sum::<u64>();
        if total > 0 {
            m.set("runtime.scratch_hit_ratio", hits as f64 / total as f64);
        }
        m.set(
            "runtime.plan_cache_misses",
            (Self::cache_misses() - self.cache_misses) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn cli_accepts_the_driver_and_the_script_spellings() {
        let a = args(&[
            "--workload",
            "serve_paced",
            "--seed",
            "3",
            "--seconds",
            "9",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_paced"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 9, false));
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--trace"]).unwrap().trace);
        assert!(args(&["--trace", "--seed", "5"]).unwrap().trace);
        let d = args(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert_eq!(args(&["--calibrate"]).unwrap().mode, Mode::Calibrate);
        assert_eq!(
            args(&["--selfcheck", "--seed", "7741"]).unwrap().mode,
            Mode::Selfcheck
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` are two spellings
    /// of one vocabulary; the result lines list exactly those names.
    #[test]
    fn result_lines_list_exactly_the_names_in_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS as f64)
        );
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|e| {
                    let f = |k: &str| e.get(k).unwrap().as_str().unwrap().to_string();
                    assert!(["lower", "higher"].contains(&f("better").as_str()));
                    (f("name"), f("unit"))
                })
                .collect()
        };
        let table = |defs: &[metrics::MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        // The acceptance driver refuses a bound above a quarter.
        for e in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let bound = e.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        }

        // The emitted objects carry those names, in order, with units.
        let mut m = Metrics::default();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            m.set(d.name, 1.5);
        }
        for (defs, require_all) in [(&END_TO_END[..], true), (&PER_LAYER[..], false)] {
            let line = result_line(true, 3, 0, &m.to_json(defs, require_all));
            let out = json::parse(&line).unwrap();
            let keys: Vec<&str> = out.as_obj().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let got = out.get("metrics").unwrap().as_obj().unwrap();
            let mut want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            want.sort_unstable();
            assert_eq!(got.keys().map(String::as_str).collect::<Vec<_>>(), want);
            for d in defs {
                assert_eq!(got[d.name].get("unit").unwrap().as_str(), Some(d.unit));
                assert_eq!(got[d.name].get("value").unwrap().as_f64(), Some(1.5));
            }
        }
    }

    /// A fast wrong answer can never score: with one weight of the copy
    /// handed to the library perturbed (for `resnet18_private`, whose
    /// reference lives inside the library call, the share ring narrowed
    /// so the private arithmetic wraps), every workload's oracle reports
    /// failures; with clean inputs it reports none.
    #[test]
    fn oracle_is_live_on_every_workload() {
        for name in WORKLOADS {
            let mut clean = workloads::setup(name, 41, false);
            let region = clean.region(0.0, 3, &mut Tracer::new(false));
            assert!(region.attempted >= 3, "{name}");
            assert_eq!(region.failed, 0, "{name}: clean run must not fail");
            drop(clean);

            let mut mutated = workloads::setup(name, 41, true);
            let region = mutated.region(0.0, 3, &mut Tracer::new(false));
            assert!(
                region.failed > 0,
                "{name}: a perturbed computation scored as correct"
            );
            assert_eq!(
                region.lat_ms.len() as u64,
                region.ok(),
                "{name}: a failed op has no latency"
            );
        }
    }
}
