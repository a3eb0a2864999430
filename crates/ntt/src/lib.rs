//! Exact negacyclic Number Theoretic Transform (NTT).
//!
//! This crate is the *baseline* that FLASH replaces: polynomial
//! multiplication in `Z_q[X]/(X^N + 1)` via the negacyclic NTT with
//! Cooley–Tukey (forward) and Gentleman–Sande (inverse) butterflies, using
//! Shoup-precomputed twiddle multiplication — the structure of the CHAM /
//! F1 modular datapaths the paper compares against.
//!
//! * [`tables`] — per-`(N, q)` precomputed ψ-power tables.
//! * [`transform`] — in-place forward/inverse negacyclic NTT.
//! * [`polymul`] — NTT-based and naive `O(N²)` negacyclic multiplication.
//! * [`ops`] — arithmetic operation counts for the cost models.
//!
//! # Examples
//!
//! ```
//! use flash_ntt::tables::NttTables;
//! use flash_ntt::polymul::negacyclic_mul_ntt;
//!
//! let q = flash_math::prime::ntt_prime(30, 8).unwrap();
//! let t = NttTables::new(8, q).unwrap();
//! // (1 + X) * X^7 = X^7 + X^8 = X^7 - 1  (negacyclic wrap)
//! let a = [1, 1, 0, 0, 0, 0, 0, 0];
//! let b = [0, 0, 0, 0, 0, 0, 0, 1];
//! let c = negacyclic_mul_ntt(&a, &b, &t);
//! assert_eq!(c[0], q - 1);
//! assert_eq!(c[7], 1);
//! ```

pub mod ops;
pub mod polymul;
pub mod tables;
pub mod transform;

pub use tables::NttTables;
