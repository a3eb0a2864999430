//! FFT-based negacyclic polynomial multiplication — exact (`f64`) and
//! approximate (fixed-point), the core numerics of FLASH.
//!
//! The paper replaces the modular NTT by a floating/fixed-point FFT
//! (Figure 4(b), after Klemsa's extended Fourier transform): a real
//! negacyclic convolution of length `N` folds into an `N/2`-point complex
//! FFT preceded by a "twist" by powers of `ω = e^{iπ/N}`. This crate
//! provides:
//!
//! * [`dft`] — naive `O(m²)` complex DFT reference.
//! * [`fft64`] — iterative radix-2 Cooley–Tukey FFT over [`flash_math::C64`].
//! * [`negacyclic`] — the fold/twist negacyclic transform and exact-in-
//!   practice `f64` polynomial products, including products of ring
//!   elements mod `q`.
//! * [`twiddle`] — plain and CSD-quantized twiddle tables (the paper's
//!   shift-add multipliers, quantization level `k`).
//! * [`fixed_fft`] — a bit-accurate fixed-point forward transform with
//!   per-stage data widths and quantized twiddles (the approximate weight
//!   transform of the FLASH PE).
//! * [`error`] — Monte-Carlo and analytical error models that drive the
//!   DSE of Section IV-C.
//! * [`simd`] — portable lane types and the runtime dispatch behind the
//!   batched structure-of-arrays transforms
//!   ([`NegacyclicFft::forward_batch_into`] /
//!   [`NegacyclicFft::inverse_batch_into`]), bit-identical to the scalar
//!   path at every lane width.
//!
//! # Examples
//!
//! ```
//! use flash_fft::negacyclic::NegacyclicFft;
//! let plan = NegacyclicFft::new(8);
//! // (1 + X) * X^7 = X^7 - 1 in Z[X]/(X^8+1)
//! let a = [1i64, 1, 0, 0, 0, 0, 0, 0];
//! let b = [0i64, 0, 0, 0, 0, 0, 0, 1];
//! let c = plan.polymul_i64(&a, &b);
//! assert_eq!(c[0], -1);
//! assert_eq!(c[7], 1);
//! ```

pub mod dft;
pub mod error;
pub mod fft64;
pub mod fixed_fft;
pub mod negacyclic;
pub mod simd;
pub mod twiddle;

pub use fixed_fft::ApproxFftConfig;
pub use negacyclic::{NegacyclicFft, C64_SCRATCH};
