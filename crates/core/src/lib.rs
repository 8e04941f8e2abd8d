//! # retro-core
//!
//! RETRO — **RE**lational re**TRO**fitting (Günther, Thiele, Lehner, EDBT
//! 2020): learn a dense vector for every text value in a relational
//! database, combining the semantics of a pre-trained word embedding with
//! the relational structure of the schema.
//!
//! Pipeline (paper §2–§4):
//!
//! 1. [`catalog`] — extract every distinct `(column, text)` pair as a text
//!    value with its *category* (§3.2/§3.3 uniqueness rules),
//! 2. [`relations`] — extract relation groups from row-wise column pairs,
//!    PK/FK relationships, and n:m link tables (§3.2),
//! 3. [`problem`] — tokenize every text value against the base embedding
//!    (§3.1) to build `W0`, compute the category centroids `c`, and derive
//!    all per-node hyperparameters ([`hyper`], Eq. 12–14),
//! 4. [`solver`] — iterate one of the solvers: **RO** (Eq. 8/10, the convex
//!    optimization view), **RN** (Eq. 9/11, the normalized series view), or
//!    the **MF** Faruqui baseline (Eq. 3),
//! 5. optionally [`graphgen`] — the §3.4 property graph for DeepWalk — and
//!    [`combine`] — concatenation of retrofitted and node embeddings (§4.6).
//!
//! For long-lived deployments, [`incremental`] warm-starts a re-solve after
//! database changes, and [`serve`] publishes each converged output as a
//! generation-numbered immutable snapshot that concurrent readers query
//! lock-free while a background worker refreshes (see `docs/SERVING.md`).
//! A published generation can be persisted to a checksummed snapshot file
//! and recovered after a restart ([`EmbeddingService::save_snapshot`] /
//! [`EmbeddingService::recover`] — see `docs/DURABILITY.md`).
//!
//! The one-call entry point is [`Retro`]:
//!
//! ```
//! use retro_core::{Retro, RetroConfig, Solver};
//! use retro_embed::EmbeddingSet;
//! use retro_store::{Database, sql};
//!
//! let mut db = Database::new();
//! sql::run_script(&mut db, "
//!     CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
//!     CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
//!                          director_id INTEGER REFERENCES persons(id));
//!     INSERT INTO persons VALUES (1, 'luc besson');
//!     INSERT INTO movies VALUES (10, 'valerian', 1);
//! ").unwrap();
//! let base = EmbeddingSet::new(
//!     vec!["valerian".into(), "luc".into(), "besson".into()],
//!     vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.5, 0.5]],
//! );
//! let output = Retro::new(RetroConfig::default().with_solver(Solver::Rn))
//!     .retrofit(&db, &base)
//!     .unwrap();
//! let id = output.catalog.lookup("movies", "title", "valerian").unwrap();
//! assert_eq!(output.embeddings.row(id).len(), 2);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod catalog;
pub mod combine;
pub(crate) mod delta;
pub mod engine;
pub mod graphgen;
pub mod hyper;
pub mod incremental;
pub mod loss;
pub(crate) mod persist;
pub mod problem;
pub mod relations;
pub mod serve;
pub mod solver;

pub use api::{Retro, RetroConfig, RetroOutput};
pub use catalog::{Category, TextValueCatalog};
pub use engine::{AdmissionConfig, Engine, EngineConfig, EngineError, Overloaded, Session};
pub use hyper::{Hyperparameters, ParamCheck};
pub use incremental::{IncrementalRetro, RefreshKind, RefreshPlan};
pub use problem::RetrofitProblem;
pub use relations::{RelationGroup, RelationKind};
pub use serve::{EmbeddingService, RefreshWorker, Snapshot};
pub use solver::Solver;
