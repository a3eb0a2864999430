//! Secret keys, encryption and decryption.
//!
//! Symmetric-key BFV suffices for the hybrid protocol (the client both
//! encrypts and decrypts): `ct = (c0, c1)` with `c1 = a` uniform and
//! `c0 = −a·s + Δ·m + e`, so `c0 + c1·s = Δ·m + e`.
//!
//! An upload never carries `a` itself: [`SecretKey::encrypt_batch_seeded`]
//! draws a fresh 32-byte seed per ciphertext and sets `a =`
//! [`expand_a`]`(seed)`, and the receiver expands the same `a` from the
//! seed with the same function ([`crate::serialize::upload_from_bytes`]),
//! so `c1` costs 32 bytes on the wire instead of `N` coefficients.
//!
//! **Security of the seeded form.** `a` is public in RLWE, so sending the
//! seed it expands from instead of its coefficients reveals nothing new.
//! Every seed is drawn fresh from the caller's RNG and never reused: two
//! ciphertexts under one `a` would give `c0_i − c0_j = Δ(m_i − m_j) +
//! e_i − e_j`. The expander keys the vendored xoshiro256** `StdRng`, the
//! same emulation-grade generator that drew `a` before; a deployment
//! would expand `a` with an XOF such as SHAKE-128 or AES-CTR.
//!
//! **Secrets and errors.** Keys and the public-key randomness `u` are
//! exactly uniform ternary ([`Poly::ternary`]); every error polynomial
//! comes from the parameter set's [`crate::poly::ErrorSampler`], a
//! constant-time table sampler of the rounded Gaussian clipped at
//! `⌊6σ⌋` — the clip moves `≈ 10⁻⁹` of the mass at σ = 3.2 onto
//! `±⌊6σ⌋` and makes [`crate::noise::fresh_bound`]'s `6σ` the
//! support. Both draw from the caller's RNG, which in this workspace is
//! the same emulation-grade xoshiro256** generator; a deployment would
//! draw them from a cryptographic PRG.
//!
//! Every encryption and decryption is one exact key product `c1·s`, and
//! `s` is fixed for the life of the key, so [`SecretKey::generate`]
//! stores it in the ring's transform domain once
//! ([`HeParams::prepare_key_operand`]) and the products run batched
//! ([`SecretKey::encrypt_batch`], [`SecretKey::phase_batch_into`],
//! [`SecretKey::decrypt_batch_into`]): a chunk of ciphertexts shares
//! each twiddle in the lane-interleaved transform kernels (the NTT on a
//! prime ring, the split-limb `f64` FFT on a power-of-two ring), and the
//! `+ c0` add and the `round(t·x/q)` scaling ride in the product's final
//! sweep. The per-ciphertext calls are the same code at batch width 1.
//!
//! A caller that reads only a few coefficients of each plaintext asks
//! for exactly those ([`SecretKey::decrypt_coeffs_into`]): one
//! coefficient of `c1·s` is an `N`-term inner product against a row of
//! the key's negacyclic matrix, so on a power-of-two ring and below a
//! count derived from it the rows are cheaper than the full product.

use crate::cipher::Ciphertext;
use crate::error::HeError;
use crate::params::{HeParams, KeyOperand};
use crate::poly::{uniform_below, Poly};
use flash_math::modular::{add_mod, center_lift, sub_mod, Shoup};
use flash_runtime::U64_SCRATCH;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::OnceLock;

/// Ciphertexts per batched key product at the protocol call sites: one
/// full lane block at the widest SIMD tier. Callers chunk their
/// ciphertext lists by this so staging buffers stay a few polynomials
/// large and a parallel region still has chunks to fan out.
pub const KEY_BATCH: usize = flash_runtime::simd::MAX_LANES;

/// Bytes of the seed an upload carries in place of `c1 = a`.
pub const SEED_BYTES: usize = 32;

/// The RLWE mask `a` a seed stands for: `N` exactly uniform residues of
/// `Z_q`, drawn from the vendored `StdRng` keyed by `seed`. On a
/// power-of-two `q` each value is the top `log2 q` bits of one draw;
/// otherwise Lemire's multiply-shift (the one `Poly::ternary` uses),
/// whose high word is exactly uniform once draws with a low word below
/// `2^64 mod q` are rejected. Both cost
/// a shift or a multiply per value, not the `u128 %` of `gen_range`. The
/// one expander of the tree: the client's
/// [`SecretKey::encrypt_batch_seeded`] and the server's
/// [`crate::serialize::upload_from_bytes`] both call it.
///
/// # Panics
///
/// Panics if `q < 2`.
pub fn expand_a(seed: &[u8; SEED_BYTES], n: usize, q: u64) -> Poly {
    assert!(q >= 2, "modulus must be at least 2");
    let mut rng = StdRng::from_seed(*seed);
    let coeffs = if q.is_power_of_two() {
        let shift = 64 - q.trailing_zeros();
        (0..n).map(|_| rng.next_u64() >> shift).collect()
    } else {
        let threshold = q.wrapping_neg() % q;
        (0..n)
            .map(|_| uniform_below(&mut rng, q, threshold))
            .collect()
    };
    Poly::from_coeffs(coeffs, q)
}

/// A BFV secret key (ternary): its coefficients, the same key in the
/// transform domain for the full key products, and — built on the first
/// coefficient extraction — its negacyclic rows.
#[derive(Debug, Clone)]
pub struct SecretKey {
    params: HeParams,
    ternary: Box<[i8]>,
    s: KeyOperand,
    rows: OnceLock<KeyRows>,
}

/// A BFV public key: an encryption of zero `(p0, p1) = (−a·s + e, a)`.
///
/// The hybrid protocol itself only needs symmetric encryption (the
/// client encrypts and decrypts), but a public key lets third parties
/// contribute ciphertexts.
#[derive(Debug, Clone)]
pub struct PublicKey {
    params: HeParams,
    p0: Poly,
    p1: Poly,
}

/// The one key-product entry point of this module: `out[i] =
/// fold(prod[i], out[i])` for `prod = a·b`, timed as `he.key_mul`.
fn key_mul<F: Fn(u64, u64) -> u64>(
    params: &HeParams,
    out: &mut [u64],
    a: &[u64],
    b: &KeyOperand,
    fold: F,
) {
    let _t = flash_telemetry::span!("he.key_mul");
    flash_telemetry::counter!("he.key_mul_polys").add((a.len() / params.n) as u64);
    params.key_mul_batch(out, a, b, fold);
}

/// `Δ·m` for a plaintext coefficient `m` (`mod t`, center-lifted into
/// `Z_q` first); `delta` is the Shoup form of `Δ`.
#[inline]
fn scale_plain(m: u64, delta: &Shoup, t: u64, q: u64) -> u64 {
    let lifted = if m > t / 2 { q - (t - m) } else { m };
    delta.mul(lifted, q)
}

/// `round(t·c/q) mod t` without a division: with `ratio = ⌊t·2^64/q⌋`,
/// `⌊ratio·c/2^64⌋` is `⌊t·c/q⌋` or one below it (Shoup's quotient
/// estimate), and the remainder it leaves decides both the correction
/// and the rounding.
struct Rounder {
    q: u64,
    t: u64,
    ratio: u64,
}

impl Rounder {
    fn new(params: &HeParams) -> Self {
        Self {
            q: params.q,
            t: params.t,
            ratio: (((params.t as u128) << 64) / params.q as u128) as u64,
        }
    }

    #[inline]
    fn round(&self, c: u64) -> u64 {
        let mut quot = ((self.ratio as u128 * c as u128) >> 64) as u64;
        // t·c − quot·q ∈ [0, 2q) fits a u64, so wrapping arithmetic is exact.
        let mut rem = self
            .t
            .wrapping_mul(c)
            .wrapping_sub(quot.wrapping_mul(self.q));
        if rem >= self.q {
            rem -= self.q;
            quot += 1;
        }
        // ⌊(t·c + ⌊q/2⌋)/q⌋ rounds up exactly when rem ≥ ⌈q/2⌉.
        (quot + u64::from(rem >= self.q - self.q / 2)) & (self.t - 1)
    }
}

/// The negacyclic rows of a ternary key as one `2N`-entry table `r`,
/// `r[k] = s[N−1−k]` below `N` and `−s[2N−1−k]` from `N` on, so that
/// `(c1·s)[i] = Σ_j c1[j]·r[N−1−i+j]`: row `i` is the contiguous slice at
/// offset `N−1−i`, wrap sign applied. Entries are held as all-ones
/// lane masks, one stream for `+1` and one for `−1`, so an inner product
/// is a branch-free AND-and-add whose time does not depend on `s`.
#[derive(Debug, Clone)]
struct KeyRows {
    plus: Box<[u64]>,
    minus: Box<[u64]>,
}

impl KeyRows {
    fn new(s: &[i8]) -> Self {
        let r: Vec<i8> = s
            .iter()
            .rev()
            .copied()
            .chain(s.iter().rev().map(|&v| -v))
            .collect();
        let mask = |v: i8| {
            r.iter()
                .map(|&x| u64::from(x == v).wrapping_neg())
                .collect()
        };
        Self {
            plus: mask(1),
            minus: mask(-1),
        }
    }

    /// `(c1·s)[i] mod q` for a power-of-two `q`: wrapping `u64`
    /// arithmetic is exact modulo 2^64, hence modulo `q`.
    fn dot(&self, c1: &[u64], i: usize, q: u64) -> u64 {
        let n = c1.len();
        let at = n - 1 - i;
        let (plus, minus) = (&self.plus[at..at + n], &self.minus[at..at + n]);
        let (mut p, mut m) = (0u64, 0u64);
        for ((&c, &a), &b) in c1.iter().zip(plus).zip(minus) {
            p = p.wrapping_add(c & a);
            m = m.wrapping_add(c & b);
        }
        p.wrapping_sub(m) & (q - 1)
    }
}

/// Whether reading `count` coefficients per ciphertext row by row beats
/// the full key product. A row costs `N` AND-and-adds; the product costs
/// one batched `f64` FFT chain over the two limbs of the ciphertext,
/// `O(N·log2 N)`, measured at a little over four rows per level of
/// `log2 N` (a crossover of 46–61 rows at `N = 256` and 56–58 at
/// `N = 4096`). Rows are read on power-of-two rings only: no prime-ring
/// response in the workloads is sparse enough to pay for an exact
/// `N·q`-sized row sum there, so a prime ring always takes the full
/// product. Derived from the ring and the count alone — there is no knob.
fn extraction_wins(params: &HeParams, count: usize) -> bool {
    const ROWS_PER_LEVEL: usize = 4;
    params.is_pow2() && count <= ROWS_PER_LEVEL * params.n.trailing_zeros() as usize
}

impl PublicKey {
    /// The parameter set this key belongs to.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// Encrypts a plaintext with the public key:
    /// `ct = (p0·u + e1 + Δ·m, p1·u + e2)` with ternary `u`.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext modulus or length mismatches.
    pub fn encrypt<R: Rng>(&self, m: &Poly, rng: &mut R) -> Ciphertext {
        let p = &self.params;
        assert_eq!(m.modulus(), p.t, "plaintext must be mod t");
        assert_eq!(m.len(), p.n, "plaintext length must be N");
        let (n, q) = (p.n, p.q);
        let u = Poly::ternary(n, q, rng);
        let e1 = Poly::gaussian(n, q, p.error_sampler(), rng);
        let e2 = Poly::gaussian(n, q, p.error_sampler(), rng);
        let u = p
            .prepare_key_operand(u.coeffs())
            .expect("a ternary polynomial is within every ring's exactness bound");
        let delta = Shoup::new(p.delta(), q);
        // (p0 ‖ p1)·u as one two-polynomial batch, added onto
        // (e1 + Δ·m ‖ e2).
        let mut out: Vec<u64> = m
            .coeffs()
            .iter()
            .zip(e1.coeffs())
            .map(|(&m, &e)| add_mod(scale_plain(m, &delta, p.t, q), e, q))
            .chain(e2.coeffs().iter().copied())
            .collect();
        let mut pk = U64_SCRATCH.take(2 * n);
        pk[..n].copy_from_slice(self.p0.coeffs());
        pk[n..].copy_from_slice(self.p1.coeffs());
        key_mul(p, &mut out, &pk, &u, |prod, x| add_mod(x, prod, q));
        let c1 = out.split_off(n);
        Ciphertext::new(Poly::from_coeffs(out, q), Poly::from_coeffs(c1, q))
    }
}

impl SecretKey {
    /// Samples a fresh ternary secret key and prepares it for the
    /// ring's key products.
    pub fn generate<R: Rng>(params: &HeParams, rng: &mut R) -> Self {
        let s = Poly::ternary(params.n, params.q, rng);
        Self {
            params: params.clone(),
            ternary: s
                .coeffs()
                .iter()
                .map(|&c| center_lift(c, params.q) as i8)
                .collect(),
            s: params
                .prepare_key_operand(s.coeffs())
                .expect("a ternary polynomial is within every ring's exactness bound"),
            rows: OnceLock::new(),
        }
    }

    /// The parameter set this key belongs to.
    pub fn params(&self) -> &HeParams {
        &self.params
    }

    /// Derives the matching public key (an encryption of zero).
    pub fn public_key<R: Rng>(&self, rng: &mut R) -> PublicKey {
        let p = &self.params;
        let a = Poly::uniform(p.n, p.q, rng);
        let e = Poly::gaussian(p.n, p.q, p.error_sampler(), rng);
        let mut p0 = e.coeffs().to_vec();
        key_mul(p, &mut p0, a.coeffs(), &self.s, |prod, e| {
            sub_mod(e, prod, p.q)
        });
        PublicKey {
            params: p.clone(),
            p0: Poly::from_coeffs(p0, p.q),
            p1: a,
        }
    }

    /// Encrypts a plaintext polynomial (`mod t`):
    /// [`SecretKey::encrypt_batch`] at width 1.
    ///
    /// # Panics
    ///
    /// Panics if the plaintext modulus or length does not match the
    /// parameters.
    pub fn encrypt<R: Rng>(&self, m: &Poly, rng: &mut R) -> Ciphertext {
        self.encrypt_batch(std::slice::from_ref(m), rng)
            .pop()
            .expect("one plaintext in, one ciphertext out")
    }

    /// Encrypts a batch of plaintext polynomials with one batched key
    /// product. The RNG is drawn per ciphertext in order (`a`, then `e`),
    /// so the result is byte-identical to repeated [`SecretKey::encrypt`]
    /// calls on the same stream.
    ///
    /// # Panics
    ///
    /// Panics if a plaintext's modulus or length does not match the
    /// parameters.
    pub fn encrypt_batch<R: Rng>(&self, ms: &[Poly], rng: &mut R) -> Vec<Ciphertext> {
        let q = self.params.q;
        self.encrypt_batch_with(ms, rng, |rng, a| {
            a.iter_mut().for_each(|c| *c = rng.gen_range(0..q));
        })
    }

    /// [`SecretKey::encrypt_batch`] with each `a` expanded from a fresh
    /// seed: per ciphertext, in order, 32 seed bytes from `rng`, `a =`
    /// [`expand_a`]`(seed)`, then `e`. Returns every ciphertext with its
    /// seed — the upload wire form sends `c0` and the seed only
    /// ([`crate::serialize::upload_to_bytes`]).
    ///
    /// # Panics
    ///
    /// Panics if a plaintext's modulus or length does not match the
    /// parameters.
    pub fn encrypt_batch_seeded<R: Rng>(
        &self,
        ms: &[Poly],
        rng: &mut R,
    ) -> Vec<(Ciphertext, [u8; SEED_BYTES])> {
        let (n, q) = (self.params.n, self.params.q);
        let mut seeds = Vec::with_capacity(ms.len());
        let cts = self.encrypt_batch_with(ms, rng, |rng, a| {
            let mut seed = [0u8; SEED_BYTES];
            rng.fill_bytes(&mut seed);
            a.copy_from_slice(expand_a(&seed, n, q).coeffs());
            seeds.push(seed);
        });
        cts.into_iter().zip(seeds).collect()
    }

    /// Shared body of the batched encryptions: per ciphertext, in order,
    /// `draw_a` fills `a` and `e` is drawn; then `c0 = Δ·m + e − a·s` for
    /// the whole batch in one key product.
    fn encrypt_batch_with<R: Rng>(
        &self,
        ms: &[Poly],
        rng: &mut R,
        mut draw_a: impl FnMut(&mut R, &mut [u64]),
    ) -> Vec<Ciphertext> {
        let p = &self.params;
        let (n, q) = (p.n, p.q);
        let delta = Shoup::new(p.delta(), q);
        let mut a_flat = U64_SCRATCH.take(ms.len() * n);
        let mut c0_flat = U64_SCRATCH.take(ms.len() * n);
        for ((m, a_k), c0_k) in ms
            .iter()
            .zip(a_flat.chunks_exact_mut(n))
            .zip(c0_flat.chunks_exact_mut(n))
        {
            assert_eq!(m.modulus(), p.t, "plaintext must be mod t");
            assert_eq!(m.len(), n, "plaintext length must be N");
            draw_a(rng, a_k);
            let e = Poly::gaussian(n, q, p.error_sampler(), rng);
            for ((c, &m), &e) in c0_k.iter_mut().zip(m.coeffs()).zip(e.coeffs()) {
                *c = add_mod(scale_plain(m, &delta, p.t, q), e, q);
            }
        }
        // c0 = Δ·m + e − a·s
        key_mul(p, &mut c0_flat, &a_flat, &self.s, |prod, x| {
            sub_mod(x, prod, q)
        });
        c0_flat
            .chunks_exact(n)
            .zip(a_flat.chunks_exact(n))
            .map(|(c0, a)| {
                Ciphertext::new(
                    Poly::from_coeffs(c0.to_vec(), q),
                    Poly::from_coeffs(a.to_vec(), q),
                )
            })
            .collect()
    }

    /// Shared body of the batched phase/decrypt: validates every
    /// ciphertext, then `out[k·N + i] = finish(c0_k[i] + (c1_k·s)[i])`
    /// in the key product's final sweep.
    fn phase_batch_with<F: Fn(u64) -> u64>(
        &self,
        cts: &[Ciphertext],
        out: &mut [u64],
        finish: F,
    ) -> Result<(), HeError> {
        let p = &self.params;
        let (n, q) = (p.n, p.q);
        assert_eq!(
            out.len(),
            cts.len() * n,
            "output must hold N per ciphertext"
        );
        let mut c1_flat = U64_SCRATCH.take(out.len());
        for ((ct, c0_k), c1_k) in cts
            .iter()
            .zip(out.chunks_exact_mut(n))
            .zip(c1_flat.chunks_exact_mut(n))
        {
            ct.validate_for(p)?;
            c0_k.copy_from_slice(ct.c0().coeffs());
            c1_k.copy_from_slice(ct.c1().coeffs());
        }
        key_mul(p, out, &c1_flat, &self.s, |prod, c0| {
            finish(add_mod(c0, prod, q))
        });
        Ok(())
    }

    /// The raw decryption phases `c0 + c1·s` (mod `q`) of a batch of
    /// ciphertexts, written to `out` (`N` coefficients per ciphertext,
    /// in order). Allocates nothing in steady state.
    ///
    /// # Errors
    ///
    /// [`HeError`] when a ciphertext's degree or modulus disagrees with
    /// this key's parameter set (`out` is then unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cts.len() · N`.
    pub fn phase_batch_into(&self, cts: &[Ciphertext], out: &mut [u64]) -> Result<(), HeError> {
        self.phase_batch_with(cts, out, |x| x)
    }

    /// Decrypts a batch of ciphertexts — `round(t/q · (c0 + c1·s)) mod t`
    /// — into `out` (`N` plaintext coefficients per ciphertext, in
    /// order). Safe for wire-derived ciphertexts: malformed peer data
    /// surfaces as a typed error instead of a panic deep in the NTT.
    /// Allocates nothing in steady state.
    ///
    /// # Errors
    ///
    /// [`HeError`] when a ciphertext's degree or modulus disagrees with
    /// this key's parameter set (`out` is then unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cts.len() · N`.
    pub fn decrypt_batch_into(&self, cts: &[Ciphertext], out: &mut [u64]) -> Result<(), HeError> {
        let rounder = Rounder::new(&self.params);
        self.phase_batch_with(cts, out, |x| rounder.round(x))
    }

    /// Decrypts only the plaintext coefficients at `positions[k]` of each
    /// ciphertext `k`, into `out` in that order (ciphertext by
    /// ciphertext), bit-identical to the same coefficients of
    /// [`SecretKey::decrypt_batch_into`]. When every ciphertext asks for
    /// few enough positions, they are read row by row against the key
    /// (the rows are built on the first such call); otherwise the whole
    /// batch takes one full key product and each ciphertext's positions
    /// are gathered from it. Allocates nothing in steady state.
    ///
    /// # Errors
    ///
    /// [`HeError`] when a ciphertext's degree or modulus disagrees with
    /// this key's parameter set (`out` is then unspecified).
    ///
    /// # Panics
    ///
    /// Panics unless there is one position list per ciphertext and `out`
    /// holds one coefficient per position, or if a position is `≥ N`.
    pub fn decrypt_coeffs_into(
        &self,
        cts: &[Ciphertext],
        positions: &[&[usize]],
        out: &mut [u64],
    ) -> Result<(), HeError> {
        let p = &self.params;
        assert_eq!(
            positions.len(),
            cts.len(),
            "one position list per ciphertext"
        );
        assert_eq!(
            out.len(),
            positions.iter().map(|pos| pos.len()).sum::<usize>(),
            "output must hold one coefficient per position"
        );
        assert!(
            positions.iter().all(|pos| pos.iter().all(|&i| i < p.n)),
            "coefficient position out of range"
        );
        let mut out = out.iter_mut();
        if !positions.iter().all(|pos| extraction_wins(p, pos.len())) {
            let mut plain = U64_SCRATCH.take(cts.len() * p.n);
            self.decrypt_batch_into(cts, &mut plain)?;
            for (m, pos) in plain.chunks_exact(p.n).zip(positions) {
                for (&i, o) in pos.iter().zip(&mut out) {
                    *o = m[i];
                }
            }
            return Ok(());
        }
        flash_telemetry::counter!("he.extracted_coeffs").add(out.len() as u64);
        let rows = self.rows.get_or_init(|| KeyRows::new(&self.ternary));
        let rounder = Rounder::new(p);
        for (ct, pos) in cts.iter().zip(positions) {
            ct.validate_for(p)?;
            let (c0, c1) = (ct.c0().coeffs(), ct.c1().coeffs());
            for (&i, o) in pos.iter().zip(&mut out) {
                *o = rounder.round(add_mod(c0[i], rows.dot(c1, i, p.q), p.q));
            }
        }
        Ok(())
    }

    /// The raw decryption phase `c0 + c1·s` (mod `q`):
    /// [`SecretKey::phase_batch_into`] at width 1.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext does not belong to this key's parameter
    /// set.
    pub fn phase(&self, ct: &Ciphertext) -> Poly {
        let mut out = vec![0u64; self.params.n];
        self.phase_batch_into(std::slice::from_ref(ct), &mut out)
            .expect("ciphertext belongs to this key's parameter set");
        Poly::from_coeffs(out, self.params.q)
    }

    /// Decryption for wire-derived ciphertexts:
    /// [`SecretKey::decrypt_batch_into`] at width 1.
    ///
    /// # Errors
    ///
    /// Returns [`HeError`] on a degree or modulus mismatch.
    pub fn try_decrypt(&self, ct: &Ciphertext) -> Result<Poly, HeError> {
        let mut out = vec![0u64; self.params.n];
        self.decrypt_batch_into(std::slice::from_ref(ct), &mut out)?;
        Ok(Poly::from_coeffs(out, self.params.t))
    }

    /// Decrypts a ciphertext: `round(t/q · (c0 + c1·s)) mod t`.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext does not belong to this key's parameter
    /// set.
    pub fn decrypt(&self, ct: &Ciphertext) -> Poly {
        self.try_decrypt(ct)
            .expect("ciphertext belongs to this key's parameter set")
    }

    /// Exact residual noise of a ciphertext that should decrypt to `m`:
    /// center-lifted `c0 + c1·s − Δ·m`.
    pub fn noise(&self, ct: &Ciphertext, m: &Poly) -> Poly {
        let p = &self.params;
        let expected = m.lift_to(p.q).scale(p.delta());
        self.phase(ct).sub(&expected)
    }

    /// Remaining noise budget in bits: `log2(noise ceiling) −
    /// log2(‖noise‖_∞)`. Negative means decryption failure is possible.
    pub fn noise_budget_bits(&self, ct: &Ciphertext, m: &Poly) -> f64 {
        let noise = self.noise(ct, m).inf_norm().max(1);
        (self.params.noise_ceiling() as f64).log2() - (noise as f64).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&p, &mut rng);
        for seed in 0..5u64 {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Poly::uniform(p.n, p.t, &mut mrng);
            let ct = sk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&ct), m);
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_pow2_ring() {
        // The whole key path — ternary sampling, a·s / p·u products via
        // the split-limb FFT, Δ·m scaling, rounding — on q = 2^62.
        let p = HeParams::pow2_test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sk = SecretKey::generate(&p, &mut rng);
        let pk = sk.public_key(&mut rng);
        for seed in 0..3u64 {
            let mut mrng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = Poly::uniform(p.n, p.t, &mut mrng);
            let ct = sk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&ct), m);
            assert!(sk.noise(&ct, &m).inf_norm() < 40);
            // The 2^62 modulus leaves a vast budget vs the 36-bit prime.
            assert!(sk.noise_budget_bits(&ct, &m) > 30.0);
            let ct_pk = pk.encrypt(&m, &mut rng);
            assert_eq!(sk.decrypt(&ct_pk), m);
        }
    }

    #[test]
    fn rounder_matches_the_wide_division_on_both_rings() {
        for p in [
            HeParams::test_256(),
            HeParams::pow2_test_256(),
            HeParams::toy(),
        ] {
            let rounder = Rounder::new(&p);
            let reference = |c: u64| {
                let num = c as u128 * p.t as u128 + p.q as u128 / 2;
                ((num / p.q as u128) % p.t as u128) as u64
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let delta = p.delta();
            // Rounding boundaries sit at odd multiples of Δ/2.
            let edges = [0, 1, p.q / 2, p.q - 1]
                .into_iter()
                .chain((0..64u64).flat_map(|k| {
                    let mid = (k * 977 % p.t) * delta + delta / 2;
                    [mid.saturating_sub(1), mid, mid + 1]
                }))
                .chain((0..4096).map(|_| rng.gen_range(0..p.q)));
            for c in edges.filter(|&c| c < p.q) {
                assert_eq!(rounder.round(c), reference(c), "q={} c={c}", p.q);
            }
        }
    }

    #[test]
    fn batch_calls_match_per_ciphertext_calls() {
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(8);
            let sk = SecretKey::generate(&p, &mut rng);
            let ms: Vec<Poly> = (0..11).map(|_| Poly::uniform(p.n, p.t, &mut rng)).collect();
            let mut r1 = rand::rngs::StdRng::seed_from_u64(99);
            let mut r2 = r1.clone();
            let batch = sk.encrypt_batch(&ms, &mut r1);
            let single: Vec<Ciphertext> = ms.iter().map(|m| sk.encrypt(m, &mut r2)).collect();
            assert_eq!(batch, single);
            let mut phases = vec![0u64; ms.len() * p.n];
            sk.phase_batch_into(&batch, &mut phases).unwrap();
            let mut plains = vec![0u64; ms.len() * p.n];
            sk.decrypt_batch_into(&batch, &mut plains).unwrap();
            for (k, ct) in batch.iter().enumerate() {
                assert_eq!(&phases[k * p.n..][..p.n], sk.phase(ct).coeffs());
                assert_eq!(&plains[k * p.n..][..p.n], ms[k].coeffs());
            }
        }
    }

    /// FNV-1a over the little-endian coefficients of a polynomial.
    fn fnv(poly: &Poly) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in poly.coeffs().iter().flat_map(|c| c.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    #[test]
    fn expand_a_matches_its_known_answers() {
        // Pins the generator and both samplers: any change to the
        // vendored StdRng, the power-of-two shift or the rejection rule
        // moves these words. The values were computed by an independent
        // xoshiro256** implementation outside the tree.
        let seed: [u8; SEED_BYTES] = std::array::from_fn(|i| i as u8);
        let pow2 = expand_a(&seed, 256, HeParams::pow2_test_256().q);
        let prime = expand_a(&seed, 256, HeParams::test_256().q);
        assert_eq!(HeParams::test_256().q, 68_718_428_161);
        assert_eq!(
            pow2.coeffs()[..2],
            [3_389_349_862_678_121_811, 676_593_381_250_246_573]
        );
        assert_eq!(prime.coeffs()[..2], [50_504_477_997, 10_081_873_197]);
        assert_eq!(
            (fnv(&pow2), fnv(&prime)),
            (0xe550_7b99_977e_5142, 0xf468_08a9_0f8a_d5ff)
        );
    }

    #[test]
    fn expand_a_values_are_reduced() {
        let seed = [7u8; SEED_BYTES];
        for q in [
            2,
            3,
            1 << 16,
            HeParams::test_256().q,
            HeParams::flash_default().q,
            HeParams::pow2_test_256().q,
            (1 << 63) + 1,
            u64::MAX,
        ] {
            let a = expand_a(&seed, 1024, q);
            assert_eq!(a.modulus(), q);
            assert!(a.coeffs().iter().all(|&c| c < q), "q = {q}");
        }
    }

    #[test]
    fn expand_a_is_uniform_on_small_moduli() {
        // Pearson's χ² over 70 000 draws; the bounds sit past the 99.99th
        // percentile of χ² with q − 1 degrees of freedom (27.9 at 6 and
        // 29.9 at 7 dof). The draws are seeded, so this cannot flake.
        for (q, bound) in [(7u64, 27.9), (8, 29.9)] {
            let n = 70_000;
            let a = expand_a(&[q as u8; SEED_BYTES], n, q);
            let mut counts = vec![0f64; q as usize];
            a.coeffs().iter().for_each(|&c| counts[c as usize] += 1.0);
            let want = n as f64 / q as f64;
            let chi2: f64 = counts.iter().map(|c| (c - want).powi(2) / want).sum();
            assert!(chi2 < bound, "q = {q}: χ² = {chi2}");
        }
    }

    #[test]
    fn rejection_fires_on_about_half_the_draws_just_above_2_63() {
        // q = 2^63 + 1: 2^64 mod q = 2^63 − 1, so a draw whose low word
        // (x·q mod 2^64) falls below that is rejected — half of them.
        // The kept draws' high words are the output, in order.
        let q = (1u64 << 63) + 1;
        let seed = [3u8; SEED_BYTES];
        let n = 4096;
        let a = expand_a(&seed, n, q);
        let threshold = q.wrapping_neg() % q;
        assert_eq!(threshold, (1 << 63) - 1);
        let mut rng = StdRng::from_seed(seed);
        let (mut kept, mut rejected) = (Vec::new(), 0usize);
        while kept.len() < n {
            let wide = u128::from(rng.next_u64()) * u128::from(q);
            if (wide as u64) < threshold {
                rejected += 1;
            } else {
                kept.push((wide >> 64) as u64);
            }
        }
        assert_eq!(a.coeffs(), &kept[..]);
        let share = rejected as f64 / (rejected + n) as f64;
        assert!((0.47..0.53).contains(&share), "rejected {share}");
        // Kept values still cover both halves of [0, q).
        let high = kept.iter().filter(|&&c| c >= 1 << 62).count();
        assert!((0.47..0.53).contains(&(high as f64 / n as f64)));
    }

    #[test]
    fn seeded_encryptions_decrypt_and_expand_from_fresh_seeds() {
        for p in [HeParams::test_256(), HeParams::pow2_test_256()] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let sk = SecretKey::generate(&p, &mut rng);
            let ms: Vec<Poly> = (0..11).map(|_| Poly::uniform(p.n, p.t, &mut rng)).collect();
            let first = sk.encrypt_batch_seeded(&ms, &mut rng);
            let second = sk.encrypt_batch_seeded(&ms[..3], &mut rng);
            for ((ct, seed), m) in first.iter().zip(&ms).chain(second.iter().zip(&ms)) {
                assert_eq!(ct.c1(), &expand_a(seed, p.n, p.q));
                assert_eq!(&sk.decrypt(ct), m);
                assert!(sk.noise(ct, m).inf_norm() < 40);
            }
            // Every seed is fresh, within one batch and across batches on
            // one rng.
            let mut seeds: Vec<_> = first.iter().chain(&second).map(|(_, s)| *s).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 14, "q = {}", p.q);
        }
    }

    #[test]
    fn batch_decrypt_rejects_a_foreign_ciphertext() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let sk = SecretKey::generate(&p, &mut rng);
        let foreign = Ciphertext::zero(p.n, HeParams::pow2_test_256().q);
        let mut out = vec![0u64; p.n];
        assert!(matches!(
            sk.decrypt_batch_into(std::slice::from_ref(&foreign), &mut out),
            Err(HeError::ModulusMismatch { .. })
        ));
        assert!(sk.try_decrypt(&foreign).is_err());
        // Both sides of the extraction rule validate before reading (rows
        // are read on the power-of-two ring only).
        let pow2 = HeParams::pow2_test_256();
        let pow2_sk = SecretKey::generate(&pow2, &mut rng);
        let pow2_foreign = Ciphertext::zero(pow2.n, p.q);
        for (sk, foreign) in [(&sk, &foreign), (&pow2_sk, &pow2_foreign)] {
            for positions in [vec![0], (0..p.n).collect()] {
                let mut out = vec![0u64; positions.len()];
                assert!(matches!(
                    sk.decrypt_coeffs_into(std::slice::from_ref(foreign), &[&positions], &mut out),
                    Err(HeError::ModulusMismatch { .. })
                ));
            }
        }
    }

    #[test]
    fn extraction_rule_at_the_benchmark_response_shapes() {
        // resnet18_private: N = 256, q = 2^62. The responses of 1, 4 and
        // 16 outputs (layer2–layer4) read rows; layer1's 64-output
        // responses take the batched product, which is cheaper there.
        let pow2_256 = HeParams::pow2_test_256();
        for count in [1, 4, 16, 32] {
            assert!(extraction_wins(&pow2_256, count), "P = {count}");
        }
        assert!(!extraction_wins(&pow2_256, 33));
        assert!(!extraction_wins(&pow2_256, 64));
        // serve_*: prime N = 1024, 14×14 outputs per response — and a
        // prime ring never reads rows, however few.
        let prime_1024 = HeParams::new(1024, 36, 1 << 16, 3.2);
        assert!(!extraction_wins(&prime_1024, 196));
        assert!(!extraction_wins(&prime_1024, 1));
        // hconv_wide_n4096: q = 2^62, 32×32 outputs per response; rows
        // would pay off only up to 48.
        let pow2_4096 = HeParams::flash_pow2();
        assert!(extraction_wins(&pow2_4096, 48));
        assert!(!extraction_wins(&pow2_4096, 49));
        assert!(!extraction_wins(&pow2_4096, 1024));
    }

    #[test]
    fn fresh_noise_is_small() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let noise = sk.noise(&ct, &m);
        assert!(noise.inf_norm() < 40, "fresh noise should be a few sigma");
        assert!(sk.noise_budget_bits(&ct, &m) > 10.0);
    }

    #[test]
    fn decryption_robust_to_injected_error_below_ceiling() {
        // Kernel-level robustness: adding error below q/(2t) to c0 leaves
        // decryption unchanged — the foundation of FLASH's approximation.
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = sk.encrypt(&m, &mut rng);
        let headroom = (p.noise_ceiling() / 2) as i64;
        let inject = Poly::from_signed(&vec![headroom; p.n], p.q);
        let noisy = Ciphertext::new(ct.c0().add(&inject), ct.c1().clone());
        assert_eq!(sk.decrypt(&noisy), m);
    }

    #[test]
    fn public_key_encryption_roundtrip() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let sk = SecretKey::generate(&p, &mut rng);
        let pk = sk.public_key(&mut rng);
        let m = Poly::uniform(p.n, p.t, &mut rng);
        let ct = pk.encrypt(&m, &mut rng);
        assert_eq!(sk.decrypt(&ct), m);
        // pk encryption carries more noise than symmetric (u·e terms) but
        // stays comfortably within budget.
        let budget = sk.noise_budget_bits(&ct, &m);
        assert!(budget > 3.0, "pk budget {budget}");
        let sym = sk.encrypt(&m, &mut rng);
        assert!(sk.noise(&ct, &m).inf_norm() >= sk.noise(&sym, &m).inf_norm());
    }

    #[test]
    fn public_key_ciphertexts_compose_homomorphically() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let sk = SecretKey::generate(&p, &mut rng);
        let pk = sk.public_key(&mut rng);
        let m1 = Poly::uniform(p.n, p.t, &mut rng);
        let m2 = Poly::uniform(p.n, p.t, &mut rng);
        let ct = pk.encrypt(&m1, &mut rng).add_ct(&sk.encrypt(&m2, &mut rng));
        assert_eq!(sk.decrypt(&ct), m1.add(&m2));
    }

    #[test]
    fn decryption_fails_above_ceiling() {
        let p = HeParams::test_256();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let sk = SecretKey::generate(&p, &mut rng);
        let m = Poly::zero(p.n, p.t);
        let ct = sk.encrypt(&m, &mut rng);
        let too_much = (p.noise_ceiling() + p.noise_ceiling() / 2) as i64;
        let inject = Poly::from_signed(&vec![too_much; p.n], p.q);
        let noisy = Ciphertext::new(ct.c0().add(&inject), ct.c1().clone());
        assert_ne!(sk.decrypt(&noisy), m);
    }
}
