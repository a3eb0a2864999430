//! Numeric foundations for the FLASH reproduction.
//!
//! This crate provides the arithmetic substrate shared by every other crate
//! in the workspace:
//!
//! * [`modular`] — 64-bit modular arithmetic (plain, Montgomery and
//!   Shoup-precomputed multiplication), used by the exact NTT baseline and
//!   the BFV scheme.
//! * [`prime`] — Miller–Rabin primality testing, Pollard-rho factoring and
//!   NTT-friendly prime / primitive-root search.
//! * [`bitrev`] — bit-reversal permutations shared by NTT and FFT.
//! * [`complex`] — a minimal `f64` complex number type ([`C64`]).
//! * [`fixed`] — parameterized fixed-point formats with explicit rounding
//!   and overflow behaviour, backing the approximate FFT simulator.
//! * [`csd`] — canonical-signed-digit quantization of twiddle factors into
//!   `k` signed power-of-two terms (the paper's shift-add multipliers).
//! * [`pow2`] — wrapping arithmetic in power-of-two rings `Z_{2^l}`, where
//!   modular reduction is a single AND (the `Pow2` ciphertext backend).
//! * [`stats`] — running statistics (Welford) used by the error models.
//!
//! # Examples
//!
//! ```
//! use flash_math::modular::{mul_mod, pow_mod};
//! assert_eq!(mul_mod(3, 5, 17), 15);
//! assert_eq!(pow_mod(2, 16, 17), 1);
//! ```

pub mod bitrev;
pub mod complex;
pub mod csd;
pub mod fixed;
pub mod modular;
pub mod pow2;
pub mod prime;
pub mod stats;

pub use complex::C64;
