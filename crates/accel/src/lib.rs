//! FLASH — the accelerator simulator (the paper's primary contribution).
//!
//! This crate composes every substrate of the workspace into the system
//! the paper evaluates:
//!
//! * a **functional path** — homomorphic convolutions executed through the
//!   hybrid HE/2PC protocol with FLASH's approximate-FFT backend,
//!   bit-accurate against the exact NTT baseline ([`hconv`]);
//! * a **performance path** — per-layer workload extraction (tiling,
//!   sparsity, transform counts), scheduling onto the 60+4-PE architecture
//!   and energy accounting ([`workload`], [`schedule`]);
//! * **end-to-end runs** over all linear layers of ResNet-18/-50 with
//!   CHAM latency and F1 chip-energy baselines and the accuracy proxy
//!   ([`inference`]) — the data behind Tables III/IV and Figure 11(d)(e).
//!
//! # Examples
//!
//! ```
//! use flash_accel::config::FlashConfig;
//! use flash_accel::inference::run_network;
//!
//! let cfg = FlashConfig::paper_default();
//! let run = run_network(&flash_nn::resnet18_conv_layers(), &cfg);
//! assert!(run.total_latency_s > 0.0);
//! assert!(run.speedup_vs_cham() > 5.0);
//! ```

pub mod config;
pub mod e2e;
pub mod hconv;
pub mod inference;
pub mod schedule;
pub mod sim;
pub mod workload;

pub use config::FlashConfig;
pub use e2e::{e2e_config, run_program_e2e, run_resnet_e2e, E2eOptions, E2eReport, LayerReport};
pub use inference::{run_network, NetworkRun};
pub use workload::{layer_workload, LayerWorkload};
