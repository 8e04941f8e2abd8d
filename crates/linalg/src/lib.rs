//! # retro-linalg
//!
//! Minimal dense/sparse linear-algebra substrate for the RETRO workspace.
//!
//! The retrofitting solvers of the paper (Eq. 8–11) are expressed as repeated
//! applications of sparse adjacency operators to a dense `n × D` embedding
//! matrix, followed by row-wise rescaling. This crate provides exactly the
//! primitives those solvers need:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with row views, BLAS-free
//!   matrix multiply and row-wise operations,
//! * [`ChunkedRows`] — append-only rows in `Arc`-shared chunks, so a grown
//!   copy shares every full chunk with the original,
//! * [`CsrMatrix`] — compressed sparse row matrices for adjacency/weight
//!   operators, with `CSR × dense` products and transposition,
//! * [`vector`] — free functions on `&[f32]` slices (dot, norms, axpy,
//!   centroid, cosine similarity),
//! * [`stats`] — small summary-statistics helpers used by the evaluation
//!   harness (mean, standard deviation, median).
//!
//! Everything is deterministic and single-threaded; parallel drivers live in
//! higher layers so this crate stays dependency-free.

pub mod chunked;
pub mod dense;
pub mod sparse;
pub mod stats;
pub mod vector;

pub use chunked::ChunkedRows;
pub use dense::Matrix;
pub use sparse::{CooMatrix, CsrMatrix};
