#!/usr/bin/env bash
# Repository health gate: lint, format, tier-1 tests, the benchmark
# package's own lint and tests. Timing lives in `benchmark/` alone
# (`bash benchmark/run.sh`; `scripts/ab.sh` for A/B claims).
#
# Everything runs offline against vendored dependencies; this is the
# same sequence CI executes, so a clean local run means a clean CI run.

set -euo pipefail
cd "$(dirname "$0")/.."

# `cargo test -q ARGS...` for a mode line that names a test filter: fails
# when the summed `test result` lines report 0 passed, so a filter left
# naming a deleted test cannot pass silently ("0 passed; N filtered out").
filtered() {
    local out passed
    out=$(cargo test -q "$@" 2>&1) || { printf '%s\n' "$out"; return 1; }
    printf '%s\n' "$out"
    passed=$(printf '%s\n' "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
    if ((passed == 0)); then
        echo "error: \`cargo test $*\` passed 0 tests" >&2
        return 1
    fi
}

# `--faults` runs only the deterministic fault-injection suite: the
# seeded 1000-schedule protocol sweep, the exhaustive single-bit-flip
# sweeps, the framing proptests (fixed PROPTEST seeds via the vendored
# stub), and the transport unit tests. Every schedule is a pure function
# of its seed, so this job is bit-reproducible across machines.
if [[ "${1:-}" == "--faults" ]]; then
    echo "==> fault-injection suite (deterministic seeds)"
    filtered -p flash-2pc --lib transport
    cargo test -q -p flash-2pc --test transport_proptests --test fault_injection
    filtered -p flash-2pc --lib protocol::tests::conv_recovers_bit_identically_from_scripted_faults
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
# decoder fuzz (fixed seeds via the vendored proptest stub), the
# mutated-upload admission test (a short, long or unreduced `c0` ‖ seed
# upload refused typed, a flipped seed answered, one terminal outcome
# each; run by exact name) and the transport backoff/deadline tests.
if [[ "${1:-}" == "--chaos" ]]; then
    echo "==> chaos/resilience suite (deterministic seeds)"
    cargo test -q -p flash-serve --test resilience --test wire_fuzz
    filtered -p flash-serve --test upload_wire \
        a_mutated_upload_fails_its_request_typed_with_one_terminal_outcome -- --exact
    filtered -p flash-2pc --lib transport
    echo "==> chaos/resilience suite passed"
    exit 0
fi

# `--backends` runs the ciphertext-backend suite: the power-of-two ring
# unit/property tests, the backend unit and property tests of flash-he,
# the client's split-limb FFT key product on the power-of-two ring (≡ the
# wrapping schoolbook for ternary, moderate and extreme-limb operands at
# the exactness bound, batch + fold ≡ per polynomial, an operand above the
# bound and an N without a ternary bound refused, the N = 8192 digest
# pinned with the CRT-NTT lift it replaced), the ciphertext wire codec
# (length checks of the full form; the response form — `c0` at the
# output positions ‖ all of `c1` — on both rings, untruncated and at
# (8, 2): round trip, short/trailing buffers, an unreduced value at
# d = 0, set pad bits at d > 0, another band's positions of another
# length), the lane width (⌈(log2 q − d)/8⌉ bytes on both rings with
# log2 q = 62 on q = 2^62, the power-of-two rounding carry wrapping to
# 0, the pad bit at 62 − d refused), the planned truncation ((38, 30)
# at N = 256 and (38, 26) at flash_pow2; measured noise within its
# bound on both rings; every reduced-ResNet-18 unit without a fallback
# and a bit below q/(2t) at the planned pair), the server's
# position-wise mask (≡ the whole-polynomial splitmix stream at
# N ∈ {256, 1024, 4096}), and the client's coefficient decryption
# (key-row extraction ≡ the gathered full key product; rows on the
# power-of-two ring only), the seeded upload (`expand_a` pinned by known
# answers on both rings, reduced, uniform by χ² on small moduli, its
# rejection rule firing on half the draws at q = 2^63 + 1; seeded
# encryptions decrypting on both rings from fresh seeds, within and
# across seals; the `c0` ‖ seed codec's length, short/trailing buffers,
# an unreduced prime `c0`, a set pow2 pad bit and arbitrary bytes; a
# mutated upload refused typed by `open`), and the packed conv encoding
# (`M_w` output-channel kernels a weight polynomial: encode → negacyclic
# product → group accumulation → decode ≡ the direct convolution over
# random shapes, partitions and `StrideFold` shapes, and at the wrap-around
# boundary `M_w·C_w·CS = N` with a partial last pack), the error-model
# composition (`ApproxFft`'s phase bound = the fixed transform's plus
# `Pow2`'s f64-rounding bound, covering the measured product error on
# q = 2^62), the ring agreement (one named "backend/ring mismatch"
# panic for `Pow2` or `ApproxFft` on a prime ring and `Ntt` on a
# power-of-two ring, at the product, the protocol and the model
# registration), the samplers (the error sampler never leaving ⌊6σ⌋ on
# scripted all-zero/all-one words and seeded streams, χ², mean and
# variance against the clipped rounded-Gaussian masses over 2^20
# draws, its `erfc` against reference values; ternary χ² on
# {−1, 0, 1} at one word a coefficient), the native ring wrap
# (`round_to_u64` ≡ the `i128` cast over |x| < 2^100: ±0, ties, powers
# of two, values ≥ 2^64, and a proptest) and the guard's norm pricing
# (`(bound, Σw²)` from kernel norms ≡ the encoded polynomials' on every
# reduced-ResNet-18 unit at its planned and unpacked partition and on
# the 64×32×32 → 32 layer at N = 4096). The key-product, wire, lane,
# planner, headroom, mask, expander, upload, packing, composition,
# ring-agreement, sampler, wrap and norm-pricing tests run one exact
# name at a time, so a renamed test fails the job instead of matching
# nothing.
if [[ "${1:-}" == "--backends" ]]; then
    echo "==> ciphertext-backend suite"
    filtered -p flash-math pow2
    filtered -p flash-he --lib backend
    for t in pow2::tests::matches_wrapping_schoolbook_for_ternary_operand \
        pow2::tests::matches_wrapping_schoolbook_for_moderate_operand \
        pow2::tests::extreme_limbs_at_the_bound_match_the_wrapping_schoolbook \
        pow2::tests::batch_and_fold_match_per_polynomial_products \
        pow2::tests::oversized_small_operand_is_refused_in_release_too \
        pow2::tests::smallness_bound_is_generous_for_keys \
        pow2::tests::refuses_a_degree_without_an_exact_ternary_product \
        serialize::tests::trailing_bytes_rejected_on_both_rings \
        truncate::tests::truncated_wire_rejects_trailing_bytes_on_both_rings \
        truncate::tests::response_wire_carries_c0_at_positions_and_all_of_c1 \
        truncate::tests::response_wire_rejects_short_and_trailing_buffers \
        truncate::tests::response_wire_rejects_unreduced_coefficients_untruncated \
        truncate::tests::response_wire_rejects_set_pad_bits_truncated \
        truncate::tests::response_wire_rejects_another_bands_positions_of_other_length \
        serialize::tests::lane_width_is_log2_q_minus_d_on_both_rings \
        serialize::tests::pow2_lane_wraps_the_rounding_carry_to_zero \
        serialize::tests::pow2_lane_rejects_the_bit_at_log2_q_minus_d \
        truncate::tests::planned_truncation_pins_the_operating_points \
        truncate::tests::truncation_noise_within_bound \
        keys::tests::expand_a_matches_its_known_answers \
        keys::tests::expand_a_values_are_reduced \
        keys::tests::expand_a_is_uniform_on_small_moduli \
        keys::tests::rejection_fires_on_about_half_the_draws_just_above_2_63 \
        keys::tests::seeded_encryptions_decrypt_and_expand_from_fresh_seeds \
        serialize::tests::upload_carries_c0_and_the_seed_on_both_rings \
        serialize::tests::upload_rejects_short_and_trailing_buffers \
        serialize::tests::upload_rejects_an_unreduced_c0_on_a_prime_ring \
        serialize::tests::upload_rejects_a_set_pad_bit_on_a_pow2_ring \
        serialize::tests::upload_decoder_never_panics_on_arbitrary_bytes \
        backend::tests::approx_error_model_composes_fixed_and_f64_bounds \
        cipher::tests::fft_family_product_rejects_a_prime_ring \
        poly::tests::erfc_matches_reference_values \
        poly::tests::error_sampler_never_leaves_six_sigma \
        poly::tests::error_sampler_matches_the_clipped_rounded_gaussian \
        poly::tests::ternary_is_uniform_on_minus_one_zero_one \
        pow2::tests::round_to_u64_wraps_edge_values_like_the_i128_cast \
        pow2::tests::round_to_u64_wraps_like_the_i128_cast; do
        filtered -p flash-he --lib "$t" -- --exact
    done
    for t in hconv::tests::mask_at_reads_the_sequential_stream_at_every_position \
        hconv::tests::every_upload_seed_is_fresh_within_and_across_seals \
        hconv::tests::open_refuses_a_mutated_upload_typed \
        protocol::tests::pow2_backend_rejects_prime_ring \
        protocol::tests::ntt_backend_rejects_pow2_ring; do
        filtered -p flash-2pc --lib "$t" -- --exact
    done
    filtered -p flash-serve --lib \
        model::tests::pow2_backend_rejects_prime_ring_at_registration -- --exact
    for t in e2e::tests::resnet18_planned_truncation_keeps_a_bit_of_headroom \
        e2e::tests::kernel_norms_price_the_guard_like_the_encoded_polynomials; do
        filtered -p flash-accel --lib "$t" -- --exact
    done
    filtered -p flash-he --test key_batch pow2_8192_ciphertext_bytes_and_phases_match_the_crt_lift
    cargo test -q -p flash-he --test proptests
    for t in packed_conv_encoding_matches_direct_conv \
        packed_conv_encoding_holds_at_the_wrap_boundary; do
        filtered -p flash-he --test proptests "$t" -- --exact
    done
    filtered -p flash-he --test key_batch coefficient_extraction
    echo "==> ciphertext-backend suite passed"
    exit 0
fi

# `--e2e` runs only the private end-to-end inference suite: the
# executable 2PC non-linear layers against their plaintext references
# (unit + property tests, including the chaos-wire property), the
# network program and its plaintext interpreter, the reduced-ResNet and
# synthetic-CNN tests, the accel e2e harness tests (the private
# interpreter, including the exact per-layer ciphertext counts of the
# benchmark network), the stride-2 path (the fold ≡ strided-reference
# sweep, the `hconv` unit tests with the folded stem,
# `run_layer_composition`, and the workload/encoder count equalities).
# The e2e harness tests enforce exact argmax agreement and the [0.5x,
# 2x] byte-model band. The golden pins (report rows of both e2e
# networks; requantizer + logit digests of both plaintext networks),
# the window-geometry tests (pooling and convolution), the pipeline
# differential over packed output channels (flash-serve ≡ the one-shot
# per-pack respond ConvProtocol runs, every batch width identical,
# reconstruction ≡ plaintext), the pins that the benchmark layers
# keep their unpacked partitions, and the two sessions that run at the
# partition the server announces (one the truncation moves, one the
# noise guard serves unpacked) run one exact name at a time, so a
# renamed pin fails the job instead of matching nothing.
if [[ "${1:-}" == "--e2e" ]]; then
    echo "==> private end-to-end inference suite"
    filtered -p flash-2pc --lib nonlinear
    cargo test -q -p flash-2pc --test nonlinear_proptests
    filtered -p flash-nn --lib program
    filtered -p flash-nn --lib resnet
    filtered -p flash-nn --lib synthetic
    filtered -p flash-accel --lib e2e
    for t in e2e::tests::tiny_net_report_rows_match_their_pins \
        e2e::tests::resnet18_report_rows_match_their_pins; do
        filtered -p flash-accel --lib "$t" -- --exact
    done
    for t in resnet::tests::reduced_resnet18_requantizers_and_logits_match_their_digest \
        synthetic::tests::small_testnet_requantizers_and_logits_match_their_digest \
        layers::tests::pool_out_dims_of_the_resnet_stem_pool \
        layers::tests::maxpool_reference_names_an_oversized_window \
        layers::tests::maxpool_reference_names_a_zero_stride \
        layers::tests::conv_output_dims_name_an_oversized_kernel \
        layers::tests::conv_output_dims_name_a_zero_stride; do
        filtered -p flash-nn --lib "$t" -- --exact
    done
    for t in nonlinear::exec::tests::maxpool_names_an_oversized_window \
        nonlinear::exec::tests::maxpool_names_a_zero_stride; do
        filtered -p flash-2pc --lib "$t" -- --exact
    done
    filtered -p flash-he --lib fold
    filtered -p flash-accel --lib hconv
    cargo test -q -p flash-accel --test run_layer_composition
    filtered -p flash-accel --test end_to_end stride2_communication_accounting
    filtered -p flash-accel --test cross_validation workload_counts_match_encoder_plan
    for t in served_bytes_equal_one_shot_respond_and_every_width_agrees \
        the_benchmark_layers_keep_their_unpacked_partitions \
        a_client_plans_at_the_partition_the_server_announces \
        a_model_whose_packed_plan_overflows_is_served_unpacked; do
        filtered -p flash-serve --test pipeline_differential "$t" -- --exact
    done
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
