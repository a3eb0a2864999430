//! Runtime SIMD capability detection and lane-width dispatch.
//!
//! The spectral kernels (dense FFT butterflies, Harvey NTT butterflies,
//! the sparse uop-tape interpreter) all offer a structure-of-arrays
//! batched mode that processes `W` polynomials per twiddle/uop. The lane
//! width `W` is a *runtime* decision: binaries are compiled for the
//! portable baseline, and the hot kernels are monomorphized per width and
//! selected here once per process from the detected target features.
//!
//! This module owns only the *decision*; the lane types and the kernels
//! themselves live next to their data (`flash_fft::simd` for the f64/C64
//! SoA kernels, `flash_ntt::transform` for the u64 butterflies) so the
//! dependency direction stays kernels → runtime.
//!
//! Overrides, in precedence order:
//!
//! 1. [`force_level`] — process-wide programmatic override, used by the
//!    equivalence tests to pin the scalar fallback.
//! 2. `FLASH_SIMD` environment variable: `off`/`scalar` force the scalar
//!    fallback, `portable` caps at 128-bit, `avx2` caps at 256-bit,
//!    `native`/unset use the full detected level. Read once, at first use.
//!
//! The *active* level is what the dispatchers consult; the *detected*
//! level is what the machine supports. Benchmark stamps record both so
//! numbers from different hosts (or a `FLASH_SIMD=off` run) are
//! comparable.

use std::sync::atomic::{AtomicU8, Ordering};

/// Widest lane count any level uses; SoA scratch sizing can use this as a
/// conservative upper bound.
pub const MAX_LANES: usize = 8;

/// A SIMD dispatch tier. Levels are ordered: each tier's kernels assume
/// no more than that tier's target features.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// True scalar fallback: lane width 1, batched entry points degrade
    /// to per-polynomial scalar execution.
    Scalar = 0,
    /// Portable 128-bit baseline (SSE2 on x86-64, NEON on aarch64): the
    /// compiler may vectorize 2-wide lane loops without extra features.
    Portable = 1,
    /// 256-bit AVX2 (+FMA) kernels, 4 lanes of `f64`/`u64`.
    Avx2 = 2,
    /// 512-bit AVX-512F kernels, 8 lanes of `f64`/`u64`.
    Avx512 = 3,
}

impl SimdLevel {
    /// Lane width `W` used by the SoA kernels at this level.
    #[inline]
    pub fn lanes(self) -> usize {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Portable => 2,
            SimdLevel::Avx2 => 4,
            SimdLevel::Avx512 => 8,
        }
    }

    /// The narrowest level whose lane width still covers a block of
    /// `used` polynomials. SoA cascades do the same per-slot work for
    /// every lane whether or not it carries a polynomial, so running the
    /// 8-lane kernel over a 2-poly tail wastes three quarters of its
    /// arithmetic; a narrower kernel is strictly cheaper. Every lane
    /// width is bit-identical, so narrowing only changes speed, never
    /// results. Never *widens*: a forced or detected level stays the
    /// ceiling (AVX-512 support implies AVX2 support on x86-64).
    #[inline]
    pub fn narrowed(self, used: usize) -> SimdLevel {
        match (self, used) {
            (SimdLevel::Avx512, 3..=4) => SimdLevel::Avx2,
            (SimdLevel::Avx512 | SimdLevel::Avx2, 0..=2) => SimdLevel::Portable,
            _ => self,
        }
    }

    /// Stable lowercase name, used in bench artifacts and `FLASH_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            0 => SimdLevel::Scalar,
            1 => SimdLevel::Portable,
            2 => SimdLevel::Avx2,
            _ => SimdLevel::Avx512,
        }
    }
}

/// Sentinel for "not yet computed / no override" in the atomics below.
const UNSET: u8 = u8::MAX;

static DETECTED: AtomicU8 = AtomicU8::new(UNSET);
static FORCED: AtomicU8 = AtomicU8::new(UNSET);

/// What the running machine supports, independent of any override.
fn machine_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            return SimdLevel::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return SimdLevel::Avx2;
        }
        SimdLevel::Portable
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdLevel::Portable
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdLevel::Scalar
    }
}

/// Cap requested by `FLASH_SIMD`, if any.
fn env_cap() -> Option<SimdLevel> {
    let v = std::env::var("FLASH_SIMD").ok()?;
    match v.to_ascii_lowercase().as_str() {
        "off" | "0" | "scalar" | "none" => Some(SimdLevel::Scalar),
        "portable" | "baseline" | "128" => Some(SimdLevel::Portable),
        "avx2" | "256" => Some(SimdLevel::Avx2),
        "avx512" | "512" | "native" | "auto" | "" => None,
        other => {
            eprintln!("flash-runtime: ignoring unknown FLASH_SIMD value {other:?}");
            None
        }
    }
}

/// The level the machine supports, after applying the `FLASH_SIMD` cap
/// (but *not* [`force_level`]). Cached after the first call.
pub fn detected_level() -> SimdLevel {
    let cached = DETECTED.load(Ordering::Relaxed);
    if cached != UNSET {
        return SimdLevel::from_u8(cached);
    }
    let mut level = machine_level();
    if let Some(cap) = env_cap() {
        level = level.min(cap);
    }
    DETECTED.store(level as u8, Ordering::Relaxed);
    level
}

/// The level the dispatchers should use right now.
#[inline]
pub fn level() -> SimdLevel {
    let forced = FORCED.load(Ordering::Relaxed);
    if forced != UNSET {
        return SimdLevel::from_u8(forced);
    }
    detected_level()
}

/// Active SoA lane width `W` (1 when the scalar fallback is active).
#[inline]
pub fn lanes() -> usize {
    level().lanes()
}

/// Process-wide programmatic override, taking precedence over detection
/// and `FLASH_SIMD`. `None` removes the override. Levels above the
/// detected one are clamped — forcing `avx2` on a machine without AVX2
/// must never dispatch into AVX2 kernels.
pub fn force_level(level: Option<SimdLevel>) {
    match level {
        Some(l) => FORCED.store(l.min(detected_level()) as u8, Ordering::Relaxed),
        None => FORCED.store(UNSET, Ordering::Relaxed),
    }
}

/// Target features the *binary* was compiled with (relevant subset).
/// `-C target-cpu=native` builds show up here; runtime dispatch works on
/// top of whatever this reports.
pub fn compile_target_features() -> &'static str {
    if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
        "x86-64+avx512f"
    } else if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
        "x86-64+avx2"
    } else if cfg!(target_arch = "x86_64") {
        "x86-64-baseline"
    } else if cfg!(target_arch = "aarch64") {
        "aarch64+neon"
    } else {
        "generic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_match_levels() {
        assert_eq!(SimdLevel::Scalar.lanes(), 1);
        assert_eq!(SimdLevel::Portable.lanes(), 2);
        assert_eq!(SimdLevel::Avx2.lanes(), 4);
        assert_eq!(SimdLevel::Avx512.lanes(), 8);
        assert!(SimdLevel::Avx512.lanes() <= MAX_LANES);
    }

    #[test]
    fn force_overrides_and_clamps() {
        let detected = detected_level();
        force_level(Some(SimdLevel::Scalar));
        assert_eq!(level(), SimdLevel::Scalar);
        assert_eq!(lanes(), 1);
        // Forcing above the detected level clamps to it.
        force_level(Some(SimdLevel::Avx512));
        assert!(level() <= detected);
        force_level(None);
        assert_eq!(level(), detected);
    }

    #[test]
    fn names_round_trip_through_env_spellings() {
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Portable,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
        ] {
            assert!(!l.name().is_empty());
        }
    }

    #[test]
    fn compile_features_nonempty() {
        assert!(!compile_target_features().is_empty());
    }
}
