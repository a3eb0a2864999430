//! The hybrid HE/2PC private-inference protocol (Cheetah-style).
//!
//! Linear layers run under homomorphic encryption over *arithmetic secret
//! shares*: an `l`-bit activation `x` is split into `{x}^C + {x}^S ≡ x
//! (mod 2^l)` between client and server. For one convolution the client
//! sends `Enc({x}^C)`; the server computes
//! `(Enc({x}^C) ⊞ {x}^S) ⊠ w ⊟ s` with a fresh random mask `s` and returns
//! it; after decryption the client holds `{y}^C = y − s` while the server
//! keeps `{y}^S = s` — the output is again secret-shared and feeds the 2PC
//! non-linear layer.
//!
//! * [`shares`] — the additive share ring `Z_{2^l}`.
//! * [`hconv`] — the one HConv request pipeline (seal / open / respond /
//!   unseal), run at any batch width by every caller.
//! * [`protocol`] — the in-process pairing of those stages over a real
//!   wire, with communication accounting.

pub mod error;
pub mod hconv;
pub mod nonlinear;
pub mod protocol;
pub mod shares;
pub mod transport;

pub use error::{FlashError, ProtocolError};
pub use hconv::{conv_band_plan, HconvLayer, HconvServer};
pub use nonlinear::exec::{maxpool_reference, NonlinearSession, NonlinearStats};
pub use nonlinear::NonlinearModel;
pub use protocol::{expected_conv_mod, ConvProtocol, ProtocolStats};
pub use shares::ShareRing;
pub use transport::{
    BackoffConfig, FaultConfig, FaultOp, FaultPlan, InMemoryTransport, SharedTransport, Transport,
    TransportConfig, TransportStats,
};
