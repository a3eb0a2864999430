//! Proof that the transform hot paths are allocation-free at steady state.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator; after a warm-up
//! pass populates the thread-local scratch pools and plan caches, the
//! counter is armed and every NTT/FFT kernel is driven again. Any heap
//! allocation in the measured region fails the test.
//!
//! The file holds a single `#[test]` on purpose: the counter is global,
//! and concurrent tests in the same binary would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            ALLOCS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many heap
/// allocations it performed.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    f();
    ENABLED.store(false, Relaxed);
    ALLOCS.load(Relaxed)
}

#[test]
fn transform_hot_paths_allocate_nothing_at_steady_state() {
    use flash_fft::negacyclic::NegacyclicFft;
    use flash_he::{Ciphertext, HeParams, Poly, SecretKey};
    use flash_math::C64;
    use flash_ntt::polymul::{
        negacyclic_mul_ntt_into, negacyclic_mul_prepared_batch, PreparedOperand,
    };
    use flash_ntt::transform::{
        forward, forward_batch, inverse, inverse_batch, pointwise_mul_assign,
    };
    use flash_ntt::NttTables;
    use flash_sparse::{SparsePlan, SparsityPattern};
    use rand::SeedableRng;

    let n = 256;
    let q = flash_math::prime::ntt_prime(40, n as u64).unwrap();
    let tables = NttTables::new(n, q).unwrap();
    let fft = NegacyclicFft::new(n);

    let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 7) % q).collect();
    let b: Vec<u64> = (0..n as u64).map(|i| (3 * i + 11) % q).collect();
    let af: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let bf: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();

    let mut u = a.clone();
    let mut ntt_out = vec![0u64; n];
    let mut spec = vec![C64::ZERO; n / 2];
    let mut fft_out = vec![0.0f64; n];

    // Compiled sparse-plan tape: compiled and interned during warm-up,
    // then executed (single and batched) inside the counted region. The
    // output buffer doubles as the tape's slot arena, so steady-state
    // execution must touch no heap at all.
    let pattern = SparsityPattern::from_indices(n / 2, [1, 5, 9, 40, 77]);
    let plan = SparsePlan::shared(&pattern);
    let mut w = vec![0i64; n];
    for (k, i) in pattern.indices().into_iter().enumerate() {
        w[i] = k as i64 + 1;
        w[i + n / 2] = -(k as i64) - 2;
    }
    let mut tape_out = vec![C64::ZERO; n / 2];
    let mut batch_out = vec![C64::ZERO; 3 * (n / 2)];

    // Lane-interleaved SoA batch paths: an odd batch width (3) forces the
    // remainder handling, and every transpose stages through the
    // thread-local scratch pools — so steady state must stay heap-free.
    let af3: Vec<f64> = af.iter().chain(&af).chain(&af).copied().collect();
    let a3: Vec<u64> = a.iter().chain(&a).chain(&a).copied().collect();
    let mut spec3 = vec![C64::ZERO; 3 * (n / 2)];
    let mut fft3_out = vec![0.0f64; 3 * n];
    let mut ntt3 = a3.clone();
    let mut ntt3_out = vec![0u64; 3 * n];
    let b_prepared = PreparedOperand::new(&b, &tables);

    // Client key path on both ring families: a prepared secret key and a
    // 3-wide batch of ciphertexts (remainder lanes again). Steady-state
    // batched phase/decrypt/coefficient decryption must stage everything
    // — operand copies, per-limb residues, lane transposes — through the
    // scratch pools.
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let keyed: Vec<(SecretKey, Vec<Ciphertext>)> =
        [HeParams::test_256(), HeParams::pow2_test_256()]
            .iter()
            .map(|p| {
                let sk = SecretKey::generate(p, &mut rng);
                let cts = (0..3)
                    .map(|_| sk.encrypt(&Poly::uniform(p.n, p.t, &mut rng), &mut rng))
                    .collect();
                (sk, cts)
            })
            .collect();
    let mut key_out = vec![0u64; 3 * n];
    // Coefficient decryption on both sides of its rule: three positions
    // read key rows on the power-of-two ring (built during warm-up), all
    // N run the full product.
    let (sparse, every): (Vec<usize>, Vec<usize>) = (vec![0, 7, n - 1], (0..n).collect());
    let (sparse, every) = ([&sparse[..]; 3], [&every[..]; 3]);

    let drive = |u: &mut Vec<u64>,
                 ntt_out: &mut Vec<u64>,
                 spec: &mut Vec<C64>,
                 fft_out: &mut Vec<f64>,
                 tape_out: &mut Vec<C64>,
                 batch_out: &mut Vec<C64>,
                 spec3: &mut Vec<C64>,
                 fft3_out: &mut Vec<f64>,
                 ntt3: &mut Vec<u64>,
                 ntt3_out: &mut Vec<u64>,
                 key_out: &mut Vec<u64>| {
        // NTT kernels: forward / pointwise / inverse plus the fused
        // scratch-backed polynomial product.
        forward(u, &tables);
        pointwise_mul_assign(u, &b, &tables);
        inverse(u, &tables);
        negacyclic_mul_ntt_into(ntt_out, &a, &b, &tables);
        // FFT kernels: fold/twist forward, pointwise, inverse, and the
        // fused f64 product.
        fft.forward_into(&af, spec);
        fft.inverse_into(spec, fft_out);
        fft.polymul_f64_into(&af, &bf, fft_out);
        // Sparse µop tape: single execution and a 3-wide batch.
        plan.execute_into(&w, tape_out);
        plan.execute_batch_into([&w[..], &w[..], &w[..]], batch_out);
        // SoA batched transforms: FFT forward/inverse, NTT
        // forward/inverse, and the fused batched polynomial product.
        fft.forward_batch_into(&af3, spec3);
        fft.inverse_batch_into(spec3, fft3_out);
        ntt3.copy_from_slice(&a3);
        forward_batch(ntt3, &tables);
        inverse_batch(ntt3, &tables);
        ntt3_out.copy_from_slice(&a3);
        negacyclic_mul_prepared_batch(ntt3_out, &b_prepared, &tables);
        // Batched client key products, prime and power-of-two ring, and
        // their width-1 case.
        for (sk, cts) in &keyed {
            sk.phase_batch_into(cts, key_out).unwrap();
            sk.decrypt_batch_into(cts, key_out).unwrap();
            sk.decrypt_batch_into(&cts[..1], &mut key_out[..n]).unwrap();
            sk.decrypt_coeffs_into(cts, &sparse, &mut key_out[..3 * sparse[0].len()])
                .unwrap();
            sk.decrypt_coeffs_into(cts, &every, key_out).unwrap();
        }
    };

    // Warm up twice: the first pass takes every pool miss, the second
    // proves the pools reached steady state before we arm the counter.
    drive(
        &mut u,
        &mut ntt_out,
        &mut spec,
        &mut fft_out,
        &mut tape_out,
        &mut batch_out,
        &mut spec3,
        &mut fft3_out,
        &mut ntt3,
        &mut ntt3_out,
        &mut key_out,
    );
    drive(
        &mut u,
        &mut ntt_out,
        &mut spec,
        &mut fft_out,
        &mut tape_out,
        &mut batch_out,
        &mut spec3,
        &mut fft3_out,
        &mut ntt3,
        &mut ntt3_out,
        &mut key_out,
    );

    let allocs = count_allocs(|| {
        drive(
            &mut u,
            &mut ntt_out,
            &mut spec,
            &mut fft_out,
            &mut tape_out,
            &mut batch_out,
            &mut spec3,
            &mut fft3_out,
            &mut ntt3,
            &mut ntt3_out,
            &mut key_out,
        );
        drive(
            &mut u,
            &mut ntt_out,
            &mut spec,
            &mut fft_out,
            &mut tape_out,
            &mut batch_out,
            &mut spec3,
            &mut fft3_out,
            &mut ntt3,
            &mut ntt3_out,
            &mut key_out,
        );
    });
    assert_eq!(
        allocs, 0,
        "transform hot paths allocated {allocs} times at steady state"
    );

    // Sanity: the counter itself works.
    let observed = count_allocs(|| {
        let v = vec![0u8; 64];
        std::hint::black_box(&v);
    });
    assert!(observed >= 1, "counting allocator failed to observe a Vec");
}
