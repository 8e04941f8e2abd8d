//! # retro-nn
//!
//! A from-scratch feed-forward neural-network library implementing exactly
//! what the paper's evaluation needs (Fig. 5):
//!
//! * dense layers with sigmoid / ReLU / linear / softmax activations,
//! * binary & categorical cross-entropy and mean-absolute-error losses,
//! * the Nadam optimizer (Dozat 2016) the paper trains with,
//! * inverted dropout and L2 regularization,
//! * mini-batch training with a validation split and early stopping
//!   ("stop when validation loss has not improved for 50 epochs, restore
//!   the best model"),
//! * [`LinkNet`], the two-tower subtract architecture of Fig. 5c.
//!
//! The library is deliberately CPU-only, `f32`, deterministic under a seed,
//! and free of external dependencies beyond `rand`.
//!
//! It also hosts the serving-side approximate nearest-neighbour index
//! ([`ann::IvfIndex`]): a deterministic IVF partition of a snapshot's
//! embedding rows that makes kNN queries sub-linear while keeping the exact
//! scan as a recall oracle (probing every list reproduces it bit for bit).

pub mod activation;
pub mod ann;
pub mod layer;
pub mod link;
pub mod loss;
pub mod network;
pub mod optimizer;

pub use activation::Activation;
pub use ann::{IndexPartsError, IvfConfig, IvfIndex, PatchStats, SearchMode, Sq8};
pub use layer::Dense;
pub use link::LinkNet;
pub use loss::Loss;
pub use network::{Network, NetworkBuilder, TrainConfig, TrainReport};
pub use optimizer::Nadam;
