//! The benchmark's vocabulary: workload and metric names with their
//! units and directions. `BENCHMARK.json` lists exactly these (a unit
//! test compares the two), and a run's final JSON line carries exactly
//! one of the two metric tables.

use crate::json;
use std::collections::BTreeMap;

/// A metric's name and unit; which direction is better and how far it
/// may worsen are `BENCHMARK.json`'s to say.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The five workloads, in suite order.
pub const WORKLOADS: [&str; 5] = [
    "resnet18_private",
    "hconv_wide_n4096",
    "serve_saturated",
    "serve_paced",
    "relu_pool_2pc",
];

/// What a user of the stack sees; reported by the untraced pass for
/// every workload. The share of failed ops is not a metric here because
/// it is zero on a healthy run: it travels in the `attempted`/`failed`
/// fields of every result line instead.
pub const END_TO_END: [MetricDef; 7] = [
    def("setup_s", "s"),
    def("op_ms_p50", "ms"),
    def("op_ms_p90", "ms"),
    def("ops_per_s", "1/s"),
    def("cpu_ms_per_op", "ms"),
    def("bytes_per_op", "B"),
    def("peak_rss_mb", "MiB"),
];

/// Single-layer numbers from the traced pass. A metric that does not
/// apply to a workload (no HE in `relu_pool_2pc`, no server in
/// `hconv_wide_n4096`) reads 0 there.
pub const PER_LAYER: [MetricDef; 61] = [
    // accel: the private-inference driver
    def("accel.he_ms", "ms"),
    def("accel.nonlinear_ms", "ms"),
    def("accel.conv_s1_ms", "ms"),
    def("accel.conv_s2_ms", "ms"),
    def("accel.unattributed_ms", "ms"),
    // he: client encode/encrypt, decrypt/decode, server MAC
    def("he.encode_encrypt_ms", "ms"),
    def("he.decrypt_decode_ms", "ms"),
    def("he.mac_ms", "ms"),
    def("he.ciphertexts_up", "count"),
    def("he.ciphertexts_down", "count"),
    def("he.payload_bytes", "B"),
    def("he.fallbacks", "count"),
    // fft / ntt / sparse: the spectral kernels
    def("fft.forward_batch_us", "us"),
    def("fft.inverse_batch_us", "us"),
    def("fft.fixed_forward_us", "us"),
    def("ntt.forward_us", "us"),
    def("ntt.inverse_us", "us"),
    def("sparse.tape_exec_us", "us"),
    def("sparse.tape_ratio", "ratio"),
    def("twopc.protocol.weight_transforms", "count"),
    def("twopc.protocol.activation_transforms", "count"),
    def("twopc.protocol.inverse_transforms", "count"),
    def("twopc.protocol.pointwise_muls", "count"),
    // twopc.transport: framing
    def("twopc.transport.frame_roundtrip_us", "us"),
    def("twopc.transport.wire_overhead_ratio", "ratio"),
    def("twopc.transport.faults_detected", "count"),
    def("twopc.transport.frames_retried", "count"),
    // twopc.nonlinear: the executable 2PC suite
    def("twopc.nonlinear.relu_requant_ms", "ms"),
    def("twopc.nonlinear.maxpool_ms", "ms"),
    def("twopc.nonlinear.avgpool_ms", "ms"),
    def("twopc.nonlinear.fc_ms", "ms"),
    def("twopc.nonlinear.argmax_ms", "ms"),
    def("twopc.nonlinear.messages", "count"),
    def("twopc.nonlinear.compare_rounds", "count"),
    def("twopc.nonlinear.wire_bytes", "B"),
    def("twopc.nonlinear.byte_model_ratio", "ratio"),
    // serve: client calls and server accounting
    def("serve.client_prepare_ms", "ms"),
    def("serve.dispatch_ms", "ms"),
    def("serve.client_collect_ms", "ms"),
    def("serve.register_model_ms", "ms"),
    def("serve.mean_batch", "count"),
    def("serve.occupancy", "ratio"),
    def("serve.server_latency_ms_p50", "ms"),
    def("serve.latency_ms_p99", "ms"),
    def("serve.refused", "count"),
    def("serve.shed", "count"),
    def("serve.expired", "count"),
    def("serve.retries", "count"),
    def("serve.worker_cpu_ms_per_op", "ms"),
    // loadgen: the benchmark's own generator
    def("loadgen.late_ms_p50", "ms"),
    def("loadgen.late_ms_p99", "ms"),
    def("loadgen.generator_cpu_share", "ratio"),
    // runtime: threads, pools, caches, allocator
    def("runtime.threads", "count"),
    def("runtime.parallel_efficiency", "ratio"),
    def("runtime.scratch_hit_ratio", "ratio"),
    def("runtime.plan_cache_misses", "count"),
    def("runtime.allocs_per_op", "count"),
    def("runtime.alloc_bytes_per_op", "B"),
    // trace: what outside timing costs and cannot see
    def("trace.overhead_ratio", "ratio"),
    def("trace.unattributed_ratio", "ratio"),
    def("trace.spans_per_op", "count"),
];

/// Values of one table, keyed by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists — a typo must not become a
    /// silently missing metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The `"metrics"` object of a result line: every metric of `table`
    /// in table order. End-to-end metrics must all have been set;
    /// per-layer metrics that do not apply read 0.
    pub fn to_json(&self, table: &[MetricDef], require_all: bool) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|d| {
                let v = match self.0.get(d.name) {
                    Some(v) => *v,
                    None if require_all => panic!("metric {} was never measured", d.name),
                    None => 0.0,
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(d.name),
                    json::number(v),
                    json::quote(d.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
