//! The ciphertext-arithmetic backend axis of the design space.
//!
//! Orthogonal to the per-stage width/twiddle search over the approximate
//! weight FFT ([`crate::space`]): which MAC lane the ciphertext datapath
//! instantiates for the spectral multiply-accumulate. The software
//! workspace exposes the same axis as `PolyMulBackend`, one transform
//! family per ring: the exact Harvey/Shoup NTT (`Ntt`) on a prime
//! modulus vs the FFT-lifted path on a power-of-two modulus with
//! wrapping reduction, whose weight transform is `f64` (`Pow2`) or the
//! fixed-point one this crate's [`crate::space`] searches (`ApproxFft`);
//! this module prices the hardware
//! consequence of that choice with the calibrated cost model of
//! `flash-hw`, so a DSE sweep can weigh "free reduction but a wider
//! word" against "narrow word but a reduction datapath" on the same axis
//! as the transform-precision knobs.

use flash_hw::units::BuKind;
use flash_hw::{CostModel, UnitCost};

/// One candidate ciphertext-arithmetic lane.
#[derive(Debug, Clone)]
pub struct BackendPoint {
    /// Stable identifier (`ntt-shiftadd`, `ntt-barrett`, `pow2-wrap`).
    pub name: &'static str,
    /// Bits of ciphertext modulus the lane supports.
    pub modulus_bits: u32,
    /// Whether coefficient arithmetic is exact (modular lanes) or rides
    /// the float-lifted transform error model (the wrapping lane).
    pub exact: bool,
    /// Composed MAC-lane cost (multiplier, accumulate adders, registers,
    /// and — for the modular lanes — the reduction datapath).
    pub cost: UnitCost,
}

impl BackendPoint {
    /// Energy of one MAC in pJ at 1 GHz.
    pub fn energy_pj(&self) -> f64 {
        self.cost.energy_per_cycle_pj()
    }

    /// Energy per bit of ciphertext modulus — the cross-width metric:
    /// a wider lane buys proportionally more noise ceiling, so lanes of
    /// different widths compare per modulus bit.
    pub fn energy_per_modulus_bit_pj(&self) -> f64 {
        self.energy_pj() / self.modulus_bits as f64
    }
}

/// The backend axis at the FLASH operating widths: a 39-bit CHAM-style
/// shift-add modular lane, a 39-bit Barrett/Montgomery modular lane
/// (F1-style), and the 62-bit power-of-two wrapping lane whose reduction
/// is wiring.
pub fn backend_axis(m: &CostModel) -> Vec<BackendPoint> {
    let prime_bits = 39u32;
    let pow2_bits = 62u32;
    vec![
        BackendPoint {
            name: "ntt-shiftadd",
            modulus_bits: prime_bits,
            exact: true,
            cost: BuKind::Modular { bits: prime_bits }.cost(m),
        },
        BackendPoint {
            name: "ntt-barrett",
            modulus_bits: prime_bits,
            exact: true,
            cost: m.modular_mult_barrett(prime_bits)
                + m.modular_adder(prime_bits) * 2.0
                + m.register(2 * prime_bits),
        },
        BackendPoint {
            name: "pow2-wrap",
            modulus_bits: pow2_bits,
            exact: false,
            cost: BuKind::Pow2Wrap { bits: pow2_bits }.cost(m),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_covers_both_ring_families_with_positive_costs() {
        let axis = backend_axis(&CostModel::cmos28());
        assert_eq!(axis.len(), 3);
        assert!(axis.iter().any(|p| p.exact) && axis.iter().any(|p| !p.exact));
        for p in &axis {
            assert!(p.energy_pj() > 0.0, "{}", p.name);
            assert!(p.cost.area_mm2() > 0.0, "{}", p.name);
        }
    }

    #[test]
    fn pow2_wrap_wins_the_per_modulus_bit_metric() {
        let axis = backend_axis(&CostModel::cmos28());
        let wrap = axis.iter().find(|p| p.name == "pow2-wrap").unwrap();
        for p in axis.iter().filter(|p| p.exact) {
            assert!(
                wrap.energy_per_modulus_bit_pj() < p.energy_per_modulus_bit_pj(),
                "pow2-wrap must beat {} per modulus bit",
                p.name
            );
        }
    }
}
