//! Typed errors for operations on wire-derived homomorphic data.
//!
//! Everything that reaches the scheme from *outside the process* —
//! deserialized polynomials, ciphertexts from a peer, noise budgets that
//! depend on runtime data — reports failure through [`HeError`] instead
//! of panicking. Panics remain for programmer errors on locally
//! constructed values (wrong parameter set passed to an API), and those
//! are `debug_assert!`-checked on hot paths.

use crate::serialize::WireError;
use std::fmt;

/// Errors from validating or operating on wire-derived HE data.
#[derive(Debug, Clone, PartialEq)]
pub enum HeError {
    /// Deserialization rejected the bytes.
    Wire(WireError),
    /// A polynomial or ciphertext length disagrees with the parameters.
    SizeMismatch {
        /// Ring degree the parameter set requires.
        expected: usize,
        /// Length actually carried by the object.
        got: usize,
    },
    /// A coefficient modulus disagrees with the parameters.
    ModulusMismatch {
        /// Modulus the parameter set requires.
        expected: u64,
        /// Modulus actually carried by the object.
        got: u64,
    },
    /// The composed noise bound exceeds the decryption ceiling `q/(2t)`:
    /// correctness of the result can no longer be guaranteed, even on the
    /// exact backend.
    NoiseOverflow {
        /// The composed `‖noise‖_∞` bound.
        bound: f64,
        /// The ceiling `q/(2t)`.
        ceiling: f64,
    },
    /// The small operand of a key product (a secret or encryption
    /// randomness) is too large for the power-of-two ring's split-limb
    /// FFT product to be provably exact; a coefficient could round wrong.
    OperandTooLarge {
        /// Largest admissible `‖b‖_∞`.
        bound: u64,
        /// The operand's `‖b‖_∞` after center lift.
        norm: u64,
    },
}

impl fmt::Display for HeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeError::Wire(e) => write!(f, "wire error: {e}"),
            HeError::SizeMismatch { expected, got } => {
                write!(f, "ring degree mismatch: expected {expected}, got {got}")
            }
            HeError::ModulusMismatch { expected, got } => {
                write!(f, "modulus mismatch: expected {expected}, got {got}")
            }
            HeError::NoiseOverflow { bound, ceiling } => write!(
                f,
                "noise bound {bound:.3e} exceeds the decryption ceiling {ceiling:.3e}"
            ),
            HeError::OperandTooLarge { bound, norm } => write!(
                f,
                "key-product operand norm {norm} exceeds the exact-lift bound {bound}"
            ),
        }
    }
}

impl std::error::Error for HeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HeError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for HeError {
    fn from(e: WireError) -> Self {
        HeError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_composes_with_dyn_error() {
        let e: Box<dyn std::error::Error> = Box::new(HeError::Wire(WireError::Truncated));
        assert!(e.to_string().contains("truncated"));
        assert!(e.source().is_some());
        let o = HeError::NoiseOverflow {
            bound: 2.0e6,
            ceiling: 5.0e5,
        };
        assert!(o.to_string().contains("ceiling"));
        assert!(std::error::Error::source(&o).is_none());
    }
}
