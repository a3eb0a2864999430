#!/usr/bin/env bash
# Repository health gate: lint, format, tier-1 tests, the benchmark
# package's own lint and tests. Timing lives in `benchmark/` alone
# (`bash benchmark/run.sh`; `scripts/ab.sh` for A/B claims).
#
# Everything runs offline against vendored dependencies; this is the
# same sequence CI executes, so a clean local run means a clean CI run.

set -euo pipefail
cd "$(dirname "$0")/.."

# `--faults` runs only the deterministic fault-injection suite: the
# seeded 1000-schedule protocol sweep, the exhaustive single-bit-flip
# sweeps, the framing proptests (fixed PROPTEST seeds via the vendored
# stub), and the transport unit tests. Every schedule is a pure function
# of its seed, so this job is bit-reproducible across machines.
if [[ "${1:-}" == "--faults" ]]; then
    echo "==> fault-injection suite (deterministic seeds)"
    cargo test -q -p flash-2pc --lib transport
    cargo test -q -p flash-2pc --test transport_proptests --test fault_injection
    cargo test -q -p flash-2pc --lib protocol::tests::conv_recovers_bit_identically_from_scripted_faults
    cargo test -q -p flash-2pc --lib matvec::tests::fc_recovers_from_faulty_wire
    echo "==> fault-injection suite passed"
    exit 0
fi

# `--serve` runs only the serving-layer suite: the flash-serve unit and
# integration tests (session lifecycle, batching determinism across
# worker counts with zero refusals on clean runs, chaos isolation,
# reconstruction against the cleartext convolution).
if [[ "${1:-}" == "--serve" ]]; then
    echo "==> serving-layer suite"
    cargo test -q -p flash-serve
    echo "==> serving-layer suite passed"
    exit 0
fi

# `--chaos` runs only the resilience suite: the deterministic serving
# resilience tests (deadline eviction, shedding + priority, circuit
# breaker, panic containment/bisection, watchdog respawn, draining
# shutdown, the exactly-one-terminal-outcome dichotomy), the wire-
# decoder fuzz (fixed seeds via the vendored proptest stub) and the
# transport backoff/deadline tests.
if [[ "${1:-}" == "--chaos" ]]; then
    echo "==> chaos/resilience suite (deterministic seeds)"
    cargo test -q -p flash-serve --test resilience --test wire_fuzz
    cargo test -q -p flash-2pc --lib transport
    echo "==> chaos/resilience suite passed"
    exit 0
fi

# `--backends` runs the ciphertext-backend suite: the power-of-two ring
# unit/property tests and the backend unit and property tests of
# flash-he.
if [[ "${1:-}" == "--backends" ]]; then
    echo "==> ciphertext-backend suite"
    cargo test -q -p flash-math pow2
    cargo test -q -p flash-he --lib backend
    cargo test -q -p flash-he --test proptests
    echo "==> ciphertext-backend suite passed"
    exit 0
fi

# `--e2e` runs only the private end-to-end inference suite: the
# executable 2PC non-linear layers against their plaintext references
# (unit + property tests, including the chaos-wire property), the
# reduced-ResNet topology tests, the accel e2e harness tests (including
# the exact per-layer ciphertext counts of the benchmark network), the
# stride-2 path (the fold ≡ strided-reference sweep, the `hconv` unit
# tests with the folded stem, `run_layer_composition`, and the
# workload/encoder count equalities). The e2e harness tests enforce
# exact argmax agreement and the [0.5x, 2x] byte-model band.
if [[ "${1:-}" == "--e2e" ]]; then
    echo "==> private end-to-end inference suite"
    cargo test -q -p flash-2pc --lib nonlinear
    cargo test -q -p flash-2pc --test nonlinear_proptests
    cargo test -q -p flash-nn --lib resnet
    cargo test -q -p flash-accel --lib e2e
    cargo test -q -p flash-he --lib fold
    cargo test -q -p flash-accel --lib hconv
    cargo test -q -p flash-accel --test run_layer_composition
    cargo test -q -p flash-accel --test end_to_end stride2_communication_accounting
    cargo test -q -p flash-accel --test cross_validation workload_counts_match_encoder_plan
    echo "==> private end-to-end inference suite passed"
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1, portable baseline)"
cargo test --workspace -q

# benchmark/ is its own workspace (path deps on crates/*), so nothing
# above compiles it: a library API move that breaks the benchmark — or
# its `oracle_is_live_on_every_workload` test — would otherwise pass
# this gate and fail the acceptance driver.
echo "==> benchmark/run.sh --lint (fmt, clippy, tests of the benchmark package)"
bash benchmark/run.sh --lint

# The spectral kernels runtime-dispatch on detected target features
# (scalar / portable / AVX2 / AVX-512); `FLASH_SIMD=off` clamps every
# dispatcher to the per-polynomial scalar path so that fallback can
# never silently rot on hosts where the wide tiers always win. The
# client's batched key products ride the same dispatch: flash-he's
# `key_batch` test (batch ≡ per-ciphertext crypto, pinned ciphertext
# digests) runs here with every batch on the per-polynomial path, and
# so does the pipeline differential (served bytes ≡ one-shot respond,
# every batch width identical) of flash-2pc / flash-serve.
echo "==> spectral-kernel tests with FLASH_SIMD=off (scalar fallback)"
FLASH_SIMD=off cargo test -q -p flash-runtime -p flash-fft -p flash-ntt \
    -p flash-sparse -p flash-he -p flash-2pc -p flash-serve -p flash-accel

# Second build+test of the whole workspace with the host's full ISA
# baked in at compile time (separate target dir so the two builds never
# evict each other). The portable pass above proves the code is correct
# without any `-C target-cpu` help; this pass proves it stays correct —
# and bit-identical — when the compiler is free to use every feature
# the dispatcher would pick at runtime.
echo "==> cargo test (tier-1, -C target-cpu=native)"
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test --workspace -q

# The telemetry feature is default-off; test the instrumented
# configuration too so span plumbing cannot rot unnoticed. The feature
# only exists in the pipeline crates (vendor stubs don't carry it), so
# enable it per package rather than workspace-wide.
echo "==> cargo test with --features telemetry"
cargo test -q -p flash-telemetry -p flash-he -p flash-2pc -p flash-accel \
    -p flash-serve --features flash-telemetry/telemetry

echo "==> all checks passed"
