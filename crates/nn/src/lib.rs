//! Quantized CNN substrate: tensors, W4A4 quantization, convolution
//! layers, ResNet-18/-50 geometry, weight-polynomial sparsity and the
//! error-resilience models of the paper's Section III-A.
//!
//! The paper evaluates on pre-trained HAWQ-v3 W4A4 ResNets over ImageNet.
//! We reproduce every *geometry-driven* quantity exactly (layer shapes,
//! tiling, sparsity, transform counts) and model the *data-driven*
//! quantities (re-quantization error absorption, classification
//! robustness) with synthetic weights/activations drawn from realistic
//! quantized distributions plus a logit-margin accuracy proxy — see
//! DESIGN.md §3 for the substitution rationale.
//!
//! * [`quant`] — symmetric quantization and re-quantization.
//! * [`layers`] — convolution layer specs and integer reference
//!   execution (any stride/padding).
//! * [`program`] — a network as an ordered op list, and its plaintext
//!   interpreter.
//! * [`resnet`] — the full conv-layer tables of ResNet-18 and ResNet-50.
//! * [`sparsity`] — encoded weight-polynomial sparsity per layer
//!   (Figure 7).
//! * [`robustness`] — kernel/layer/network-level error-resilience
//!   models (Figure 5(b)).

pub mod layers;
pub mod program;
pub mod quant;
pub mod resnet;
pub mod robustness;
pub mod sparsity;
pub mod synthetic;

pub use layers::ConvLayerSpec;
pub use resnet::{resnet18_conv_layers, resnet50_conv_layers, vgg16_conv_layers, Network};
