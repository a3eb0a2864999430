//! Multi-session serving benchmark: aggregate throughput and latency of
//! the batching core against the per-request protocol baseline, written
//! to `BENCH_serve.json`.
//!
//! The fleet is simulated in-process: every client session carries its
//! own keys and fault-isolated transport links, requests round-robin
//! across sessions so the coalescing window always sees cross-session
//! traffic, and the timed region covers dispatch through the last
//! terminal outcome (client-local prepare/collect run untimed — that
//! work belongs to the clients, not the server). The baseline answers
//! the same number of requests against the same model one at a time
//! with `ConvProtocol::run_shared`
//! ([`flash_bench::serving::run_protocol_baseline`]): the same pipeline
//! stages at width 1 with one-shot units, so the speedup is what the
//! serving layer adds — weights and noise verdicts prepared once per
//! model, and full-width SoA batches coalesced across sessions — plus
//! the client crypto the protocol run carries and a wave does not time.
//!
//! The headline comparison runs at one worker and one runtime thread —
//! no thread parallelism to hide behind. A separate worker sweep then
//! re-runs the batched wave at 2 and `host_parallelism` workers (counts
//! above the host's are skipped — they only measure scheduler noise) so
//! the artifact separates the batching win from worker scaling.
//!
//! Flags: `--quick` shrinks the fleet to 64 clients and skips the
//! artifact write (the CI smoke); `--chaos` adds a wave with moderate
//! per-session fault plans on odd tags and checks isolation;
//! `--clients N` overrides the fleet size (floor 1).

use flash_bench::banner;
use flash_bench::perf::{calibration_ms, git_revision, simd_json};
use flash_bench::serving::{self, Baseline, Wave};
use flash_serve::BatchPolicy;

const REQS_PER_CLIENT: u64 = 2;
const WORKERS: usize = 1;

fn wave_line(name: &str, w: &Wave) {
    println!(
        "{name:26} {:4} clients  {:5} reqs  {:8.1} req/s  p50 {:7.2} ms  p99 {:7.2} ms  occupancy {:.3}  mean batch {:5.2}",
        w.connected,
        w.dispatched,
        w.throughput_rps(),
        w.p50_ms,
        w.p99_ms,
        w.stats.occupancy(),
        w.stats.mean_batch(),
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let chaos = args.iter().any(|a| a == "--chaos");
    let mut clients: u64 = if quick { 64 } else { 256 };
    if let Some(pos) = args.iter().position(|a| a == "--clients") {
        clients = args
            .get(pos + 1)
            .and_then(|v| v.parse().ok())
            .expect("--clients takes a number")
    }
    clients = clients.max(1);

    banner("Serving benchmark: cross-session batching vs per-request protocol runs");
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rev = git_revision();
    println!(
        "fleet: {clients} clients x {REQS_PER_CLIENT} requests, {WORKERS} worker(s), model N={} {:?}",
        serving::params().n,
        serving::shape(),
    );

    // Best-of-three batched waves paired with a calibration sample
    // (the regression gate normalizes by `calib_ms`), best-of-two
    // baseline passes. Contention only ever adds time, so the per-side
    // minimum over spaced attempts estimates the quiet cost; every
    // wave is bit-deterministic in content, so "fastest" never means
    // "different".
    let mut calib = f64::INFINITY;
    let mut batched: Option<Wave> = None;
    let mut serial: Option<Baseline> = None;
    for attempt in 0..3 {
        calib = calib.min(calibration_ms());
        let w = serving::run_wave(
            BatchPolicy::batched(),
            WORKERS,
            clients,
            REQS_PER_CLIENT,
            false,
        );
        assert_eq!(
            w.answered, w.dispatched,
            "clean batched wave answers everything"
        );
        if batched.as_ref().is_none_or(|b| w.elapsed_s < b.elapsed_s) {
            batched = Some(w);
        }
        if attempt < 2 {
            let b = serving::run_protocol_baseline(clients * REQS_PER_CLIENT);
            if serial.as_ref().is_none_or(|s| b.elapsed_s < s.elapsed_s) {
                serial = Some(b);
            }
        }
    }
    let batched = batched.expect("batched wave ran");
    let serial = serial.expect("baseline ran");
    println!(
        "{:26} {:10} {:5} reqs  {:8.1} req/s  p50 {:7.2} ms  p99 {:7.2} ms  (ConvProtocol::run_shared per request)",
        "serve_protocol_baseline",
        "",
        batched.dispatched,
        batched.dispatched as f64 / serial.elapsed_s,
        serial.p50_ms,
        serial.p99_ms,
    );
    wave_line("serve_batched", &batched);
    let speedup = serial.elapsed_s / batched.elapsed_s;
    println!(
        "{:26} {speedup:5.2}x aggregate throughput ({} requests each side)",
        "serve_speedup", batched.dispatched
    );

    let occupancy = batched.stats.occupancy();
    assert!(
        occupancy >= 0.8,
        "batched kernel occupancy {occupancy:.3} fell below 0.8 — coalescing is not filling the SIMD lanes"
    );
    if quick {
        println!("note: --quick smoke; speedup is reported, not gated");
    } else {
        assert!(
            speedup >= 2.0,
            "aggregate speedup {speedup:.2}x fell below the 2x acceptance floor"
        );
    }

    // A clean wave must never exercise the resilience machinery: every
    // shed, expiry, quarantine, retransmission or watchdog kick on
    // healthy links and an unexpired-deadline policy is a false
    // positive that would refuse real traffic in production. Checked
    // both per-wave (server accounting) and process-wide (telemetry).
    {
        let s = &batched.stats;
        for (counter, v) in [
            ("shed", s.shed),
            ("expired", s.expired),
            ("quarantined", s.quarantined),
            ("poisoned", s.poisoned),
            ("retries", s.retries),
            ("watchdog_kicks", s.watchdog_kicks),
            ("requests_refused", s.requests_refused),
        ] {
            assert_eq!(v, 0, "clean batched wave bumped serve.{counter} to {v}");
        }
    }
    let snap = flash_telemetry::snapshot();
    for name in [
        "serve.shed",
        "serve.expired",
        "serve.quarantined",
        "serve.retries",
        "serve.watchdog_kicks",
    ] {
        let v = snap
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v);
        assert_eq!(v, 0, "{name} must stay zero across clean bench_serve waves");
    }
    println!(
        "{:26} shed/expired/quarantined/retries/watchdog_kicks all zero on clean waves",
        "serve_clean_counters"
    );

    if chaos {
        let w = serving::run_wave(
            BatchPolicy::batched(),
            WORKERS,
            clients,
            REQS_PER_CLIENT,
            true,
        );
        let clean_sessions = clients.div_ceil(2); // even tags run clean links
        println!(
            "{:26} {:4}/{clients} connected  {:5}/{:5} answered  {:3} failed sessions  {:5} faults detected",
            "serve_chaos", w.connected, w.answered, w.dispatched, w.failed_sessions, w.faults_detected,
        );
        assert!(
            w.answered >= clean_sessions * REQS_PER_CLIENT,
            "chaos on faulted sessions stalled clean sessions ({} answered < {} clean requests)",
            w.answered,
            clean_sessions * REQS_PER_CLIENT
        );
        assert!(
            w.faults_detected > 0,
            "chaos wave detected no faults — the fault plans never fired"
        );
    }

    if quick {
        println!("note: --quick leaves the committed BENCH_serve.json untouched");
        return;
    }

    // --- Worker sweep (batched mode only): the headline keys above stay
    // at one worker; these rows isolate what extra workers add on this
    // host. Every wave is content-deterministic, so the sweep reuses the
    // headline wave for the workers=1 row.
    let mut sweep: Vec<(usize, Wave)> = vec![(1, batched.clone())];
    let mut skipped: Vec<usize> = Vec::new();
    let mut counts = vec![2usize, host];
    counts.sort_unstable();
    counts.dedup();
    for wk in counts {
        if wk <= 1 {
            continue;
        }
        if wk > host {
            // Worker counts above the host's parallelism only measure
            // scheduler noise (threads time-slice one core).
            skipped.push(wk);
            continue;
        }
        let w = serving::run_wave(BatchPolicy::batched(), wk, clients, REQS_PER_CLIENT, false);
        assert_eq!(
            w.answered, w.dispatched,
            "clean batched wave answers everything at {wk} workers"
        );
        sweep.push((wk, w));
    }
    if !skipped.is_empty() {
        println!(
            "skipped worker counts {skipped:?}: host_parallelism={host} cannot run them in parallel"
        );
    }
    let base_elapsed = sweep[0].1.elapsed_s;
    for (wk, w) in sweep.iter().skip(1) {
        println!(
            "{:26} workers={wk:2}  {:8.1} req/s  {:7.2} ms/req  {:5.2}x vs 1 worker",
            "serve_batched_workers",
            w.throughput_rps(),
            w.ms_per_req(),
            base_elapsed / w.elapsed_s
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"serve_multi_session\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"git_revision\": \"{rev}\",\n"));
    json.push_str(&simd_json());
    json.push_str(&format!("  \"calib_ms\": {calib:.4},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"reqs_per_client\": {REQS_PER_CLIENT},\n"));
    json.push_str(&format!("  \"requests\": {},\n", batched.dispatched));
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    let requests = batched.dispatched as f64;
    for (prefix, elapsed_s, p50, p99) in [
        ("serial", serial.elapsed_s, serial.p50_ms, serial.p99_ms),
        ("batched", batched.elapsed_s, batched.p50_ms, batched.p99_ms),
    ] {
        json.push_str(&format!(
            "  \"{prefix}_elapsed_ms\": {:.3},\n  \"{prefix}_ms_per_req\": {:.4},\n  \"{prefix}_throughput_rps\": {:.1},\n",
            elapsed_s * 1e3,
            elapsed_s * 1e3 / requests,
            requests / elapsed_s
        ));
        json.push_str(&format!(
            "  \"{prefix}_p50_ms\": {p50:.3},\n  \"{prefix}_p99_ms\": {p99:.3},\n"
        ));
    }
    json.push_str(
        "  \"serial_definition\": \"ConvProtocol::run_shared per request, 1 runtime thread\",\n",
    );
    json.push_str(&format!(
        "  \"batched_occupancy\": {:.4},\n",
        batched.stats.occupancy()
    ));
    json.push_str(&format!(
        "  \"batched_mean_batch\": {:.2},\n",
        batched.stats.mean_batch()
    ));
    json.push_str(&format!("  \"speedup\": {speedup:.3},\n"));
    json.push_str("  \"worker_sweep\": [\n");
    for (i, (wk, w)) in sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {wk}, \"elapsed_ms\": {:.3}, \"ms_per_req\": {:.4}, \"throughput_rps\": {:.1}, \"speedup_vs_1_worker\": {:.3}}}{}\n",
            w.elapsed_s * 1e3,
            w.ms_per_req(),
            w.throughput_rps(),
            base_elapsed / w.elapsed_s,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if !skipped.is_empty() {
        let list: Vec<String> = skipped.iter().map(|w| w.to_string()).collect();
        json.push_str(&format!(
            "  \"skipped_oversubscribed_workers\": [{}],\n",
            list.join(", ")
        ));
    }
    json.push_str(&format!(
        "  \"telemetry\": {}\n",
        flash_telemetry::snapshot().to_json(2)
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
