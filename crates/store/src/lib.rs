//! # retro-store
//!
//! An in-memory relational database engine: the substrate RETRO runs on.
//!
//! The paper integrates RETRO "on top of PostgreSQL" and only uses the DBMS
//! for three things: storing tables with typed columns and key constraints,
//! answering schema-introspection queries (which columns are text? which
//! foreign keys exist? which tables are pure n:m link tables?), and bulk
//! reads of column data. This crate implements that contract natively:
//!
//! * [`Database`] / [`Table`] — tables with typed columns ([`DataType`]),
//!   primary keys, foreign-key constraints (validated on insert),
//!   row/column access, and a monotonic write-version counter
//!   ([`Database::write_version`]) so observers can detect staleness with
//!   one integer compare,
//! * [`changelog`] — per-table versions ([`Database::table_version`]) and
//!   the bounded change log ([`Database::changes_since`]) that tell an
//!   observer *what* changed, not just that something did — the substrate
//!   of `retro-core`'s delta-scoped refresh; see `docs/INCREMENTAL.md`,
//! * [`bulk`] — the batched [`BulkLoader`] ingest fast path (stage →
//!   validate once per batch → atomic commit); see `docs/INGESTION.md`,
//! * [`schema`] — schema definitions plus the introspection used by
//!   `retro-core`'s relationship extraction (§3.2 of the paper),
//! * [`csv`] — CSV import/export (the paper's datasets ship as CSV),
//!   including a streaming reader-based import that runs in bounded
//!   memory,
//! * [`wal`] / [`persist`] — the durability subsystem: a write-ahead log
//!   of committed mutations plus checksummed binary snapshots, recovered
//!   by [`Database::recover`]; see `docs/DURABILITY.md`,
//! * [`codec`] — the little-endian framing (CRC-32, cursor, header check,
//!   atomic write) under the WAL, store snapshots and `retro-core`'s
//!   embedding snapshots,
//! * [`index`] — per-table secondary equality indexes (FK columns are
//!   auto-indexed; [`Database::create_index`] declares more), maintained
//!   through every mutation path and rebuilt bit-identically by recovery,
//! * [`sql`] — a small SQL subset (`CREATE TABLE`, `INSERT`, `SELECT` with
//!   `WHERE`/`JOIN`/`ORDER BY`/`LIMIT`, `EXPLAIN`) executed through a
//!   cost-based planner — predicate pushdown, index-vs-scan access choice,
//!   greedy join ordering from exact table statistics; see
//!   `docs/QUERY_PLANNING.md`,
//! * [`shared`] — [`SharedDatabase`], the cloneable many-readers /
//!   exclusive-writer handle the serving layer builds on.
//!
//! The engine is row-oriented with hash indexes where access patterns
//! demand them: RETRO's extraction mixes full-column scans (text
//! harvesting) with point probes (FK targets, value interning), and the
//! index layer serves the latter without changing any result.

#![warn(missing_docs)]

/// The end-to-end ingestion story, rendered from `docs/INGESTION.md` so
/// the guide's code examples compile and run as doctests.
#[doc = include_str!("../../../docs/INGESTION.md")]
pub mod ingestion {}

/// The durability story — WAL format, snapshot/compaction lifecycle, the
/// recovery contract — rendered from `docs/DURABILITY.md` so the guide's
/// code examples compile and run as doctests.
#[doc = include_str!("../../../docs/DURABILITY.md")]
pub mod durability {}

/// The query-planning story — secondary indexes, statistics, cost-based
/// join ordering, `EXPLAIN`, the forced-scan oracle — rendered from
/// `docs/QUERY_PLANNING.md` so the guide's code examples compile and run
/// as doctests.
#[doc = include_str!("../../../docs/QUERY_PLANNING.md")]
pub mod query_planning {}

pub mod bulk;
pub mod changelog;
pub mod codec;
pub mod csv;
pub mod database;
pub mod error;
pub mod index;
pub mod persist;
pub mod schema;
pub mod shared;
pub mod sql;
pub mod table;
pub mod value;
pub mod wal;

pub use bulk::{BulkLoader, TableHandle};
pub use changelog::{ChangeRecord, TableChange};
pub use codec::crc32;
pub use database::Database;
pub use error::StoreError;
pub use persist::SNAPSHOT_FILE;
pub use schema::{ColumnDef, ForeignKey, TableSchema};
pub use shared::SharedDatabase;
pub use table::Table;
pub use value::{DataType, Value};
pub use wal::{DurabilityPolicy, WAL_FILE};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
