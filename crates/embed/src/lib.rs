//! # retro-embed
//!
//! Word-embedding substrate: storage, lookup, tokenization and a synthetic
//! embedding corpus.
//!
//! The paper uses the 300-dimensional Google News word2vec vectors as the
//! base embedding `W0`. This crate provides:
//!
//! * [`EmbeddingSet`] — an immutable token → vector store (cached row
//!   norms, fallible [`EmbeddingSet::try_new`] construction) with cosine
//!   nearest-neighbour queries,
//! * [`nn`] — the shared bounded-heap top-`k` cosine selection every
//!   nearest-neighbour path in the workspace runs (deterministic,
//!   `NaN`-free, thread-count invariant),
//! * [`text_format`] — the standard word2vec *text* format (`token v1 … vD`
//!   per line),
//! * [`Tokenizer`] — the §3.1 trie-based longest-match tokenizer that maps a
//!   database text value to a bag of dictionary phrases and averages their
//!   vectors; values with no in-vocabulary token get the null vector (the
//!   OOV convention RETRO relies on),
//! * [`synthetic`] — a latent-topic generator producing embedding sets whose
//!   geometry encodes controllable semantics; this substitutes for the
//!   proprietary Google News vectors in the reproduction (see DESIGN.md).

pub mod embedding;
pub mod nn;
pub mod synthetic;
pub mod text_format;
pub mod tokenizer;
pub mod trie;

pub use embedding::{EmbeddingError, EmbeddingSet};
pub use tokenizer::{TokenizedValue, Tokenizer};
pub use trie::Trie;
