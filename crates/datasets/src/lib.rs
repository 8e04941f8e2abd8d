//! # retro-datasets
//!
//! Deterministic synthetic datasets standing in for the paper's Kaggle
//! sources (TMDB movies, Google Play Store apps), plus the Fig. 3 toy
//! example.
//!
//! Both generators follow the same recipe: a
//! [`retro_embed::synthetic::LatentSpace`] holds topic directions; every
//! entity (genre, country, category, …) owns a topic mixture; text *tokens*
//! derive their embedding from their entity's mixture; and the relational
//! structure (which movie has which genres, which app gets which reviews)
//! is sampled from the same mixtures. This couples textual and relational
//! signal exactly the way the real datasets do, which is what the paper's
//! evaluation shapes depend on (see DESIGN.md, "Substitutions").
//!
//! The generators emit:
//! * a [`retro_store::Database`] with the paper's schema shape (Table 1:
//!   TMDB 8 entity tables + 7 link tables, Google Play 6 + 1),
//! * a [`retro_embed::EmbeddingSet`] playing the role of the Google News
//!   vectors (with a configurable out-of-vocabulary rate),
//! * ground-truth labels for the §5 tasks (director citizenship, movie
//!   original language, app category, movie budget, movie–genre edges).

#![warn(missing_docs)]

pub mod gplay;
pub mod names;
pub mod preset;
pub mod tmdb;
pub mod toy;

pub use gplay::{GooglePlayConfig, GooglePlayDataset};
pub use preset::SizePreset;
pub use tmdb::{TmdbConfig, TmdbDataset};
pub use toy::{toy_problem, ToyExample};
