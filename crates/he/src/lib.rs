//! A from-scratch BFV homomorphic encryption scheme with Cheetah-style
//! coefficient encoding for convolutions.
//!
//! The hybrid HE/2PC protocol needs only a small BFV subset — symmetric
//! encryption, ciphertext ⊞/⊠/⊟ plaintext, ciphertext ⊞ ciphertext and
//! decryption — over `Z_q[X]/(X^N+1)` with plaintext ring `Z_t`, `t = 2^l`
//! aligned with the secret-sharing modulus. Polynomial products run on a
//! pluggable backend: the exact NTT (the baseline accelerators' datapath),
//! the `f64` negacyclic FFT, or FLASH's approximate fixed-point FFT.
//!
//! * [`params`] — parameter sets (`N`, `q`, `t`, noise).
//! * [`poly`] — ring elements and samplers.
//! * [`keys`] / [`cipher`] — secret keys, ciphertexts, exact noise
//!   tracking.
//! * [`backend`] — the pluggable negacyclic multiplier.
//! * [`encoding`] — Cheetah coefficient encoding of convolutions,
//!   including padding, channel/spatial tiling and the stride-2 fold
//!   into phase channels.
//!
//! # Examples
//!
//! ```
//! use flash_he::params::HeParams;
//! use flash_he::keys::SecretKey;
//! use flash_he::poly::Poly;
//! use rand::SeedableRng;
//!
//! let params = HeParams::toy();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let sk = SecretKey::generate(&params, &mut rng);
//! let m = Poly::from_signed(&[1, -2, 3, 0, 0, 0, 0, 0], params.t);
//! let ct = sk.encrypt(&m, &mut rng);
//! assert_eq!(sk.decrypt(&ct), m);
//! ```

pub mod backend;
pub mod cipher;
pub mod encoding;
pub mod error;
pub mod keys;
pub mod matvec;
pub mod noise;
pub mod params;
pub mod poly;
pub mod serialize;
pub mod truncate;

pub use backend::PolyMulBackend;
pub use cipher::Ciphertext;
pub use error::HeError;
pub use keys::SecretKey;
pub use params::HeParams;
pub use poly::Poly;
