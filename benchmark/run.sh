#!/usr/bin/env bash
# The repository's one benchmark. Builds benchmark/ in release (without
# the `telemetry` feature) and runs it from the repository root.
#
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload; last stdout line is the result object (the
#       acceptance driver's spelling)
#   benchmark/run.sh [--seed S] [--seconds N] [--workload W] [--trace]
#       the suite: every workload untraced, then traced with --trace
#   benchmark/run.sh --selfcheck [--seed S]
#       two back-to-back sets of three suites, untraced and traced, whose
#       medians must agree within the bounds
#   benchmark/run.sh --calibrate [--seed S]
#       ten suites on consecutive seeds; median, quartiles, spread per metric
#   benchmark/run.sh --lint
#       cargo fmt --check, clippy -D warnings and the unit tests of this
#       package (the root lint gate does not see it)
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Thread count, SIMD cap and noise margin are the benchmark's to set, not
# the caller's shell's.
unset FLASH_THREADS FLASH_SIMD FLASH_NOISE_MARGIN

# Everything the build leaves behind stays inside the checkout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=benchmark/Cargo.toml

if [[ "${1:-}" == "--lint" ]]; then
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --release --manifest-path "$manifest" --all-targets -- -D warnings
    # Release: the oracle test runs every workload's real arithmetic.
    cargo test --offline --release --manifest-path "$manifest"
    exit 0
fi

# Cargo's progress goes to stderr; stdout carries results only.
cargo build --offline --release --quiet --manifest-path "$manifest" 1>&2
exec "$CARGO_TARGET_DIR/release/flash-benchmark" "$@"
