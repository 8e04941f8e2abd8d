//! Crash-recovery equivalence harness for the `retro_store` durability
//! subsystem (`docs/DURABILITY.md`).
//!
//! The contract under test: for a randomized DML sequence against a
//! durable database, killing the process after commit `N` and running
//! `Database::recover` reproduces the live in-memory state **exactly** at
//! every kill point `N` — same rows, same PK indexes, same
//! `write_version`, same per-table versions, and the same `changes_since`
//! history (so a recovered serving layer sees the identical change log a
//! surviving one would have). "Killing" here is simply recovering from the
//! on-disk files while the live database keeps running: the WAL is flushed
//! before every commit returns, so the files are what a real crash would
//! leave behind.
//!
//! A second database applies the same sequence ephemerally (no WAL): the
//! durability layer must not change any observable semantics — same
//! accepted mutations, same first error per mutation, same state.
//!
//! The generated sequence mixes every mutation family the WAL records:
//! row-by-row inserts (valid, duplicate-PK, dangling-FK), SQL DML, bulk
//! batches (all-or-nothing), in-place updates, deletes, and interleaved
//! `checkpoint()` compactions.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use retro::store::{sql, DataType, Database, StoreError, TableSchema, Value};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per test case (no tempfile crate in-tree).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "retro_recovery_eq_{}_{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Two tables with a PK/FK edge — the smallest schema that exercises every
/// constraint (and therefore every refused-mutation path) the WAL must not
/// record.
fn create_schema(db: &mut Database) {
    db.create_table(
        TableSchema::builder("parents").pk("id").column("name", DataType::Text).build(),
    )
    .unwrap();
    db.create_table(
        TableSchema::builder("children")
            .pk("id")
            .column("label", DataType::Text)
            .fk("parent_id", "parents", "id")
            .build(),
    )
    .unwrap();
}

/// One decoded mutation step.
#[derive(Debug)]
enum Op {
    InsertParent { pk: i64, tag: u8 },
    InsertChild { pk: i64, fk: i64 },
    SqlInsert { pk: i64 },
    BulkBatch { pk: i64, aux: i64 },
    Update { seed: i64, tag: u8 },
    Delete { seed: i64 },
    Checkpoint,
}

fn decode(raw: &(u8, i64, u8, i64)) -> Op {
    let &(kind, pk, tag, aux) = raw;
    match kind {
        0 => Op::InsertParent { pk, tag },
        1 => Op::InsertChild { pk, fk: aux % 6 },
        2 => Op::SqlInsert { pk },
        3 => Op::BulkBatch { pk, aux },
        4 => Op::Update { seed: pk, tag },
        5 => Op::Delete { seed: pk },
        _ => Op::Checkpoint,
    }
}

/// Apply one op to a database. `Op::Checkpoint` is skipped on ephemeral
/// databases (there is no log to compact); everything else must behave
/// identically with and without durability.
fn apply(db: &mut Database, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::InsertParent { pk, tag } => db
            .insert("parents", vec![Value::Int(*pk), Value::from(format!("p{pk}v{tag}"))])
            .map(|_| ()),
        Op::InsertChild { pk, fk } => db
            .insert(
                "children",
                vec![Value::Int(*pk), Value::from(format!("c{pk}")), Value::Int(*fk)],
            )
            .map(|_| ()),
        Op::SqlInsert { pk } => {
            sql::run(db, &format!("INSERT INTO parents VALUES ({}, 'sql{pk}')", pk + 20))
                .map(|_| ())
        }
        Op::BulkBatch { pk, aux } => {
            let parent_pk = pk + 40;
            let child_pk = 40 + (pk + aux) % 40;
            let mut loader = db.bulk();
            let parents = loader.table("parents").unwrap();
            let children = loader.table("children").unwrap();
            loader
                .stage(parents, vec![Value::Int(parent_pk), Value::from(format!("bp{parent_pk}"))])
                .and_then(|_| {
                    loader.stage(
                        children,
                        vec![
                            Value::Int(child_pk),
                            Value::from(format!("bc{child_pk}")),
                            Value::Int(parent_pk),
                        ],
                    )
                })
                .and_then(|_| loader.commit())
                .map(|_| ())
        }
        Op::Update { seed, tag } => {
            let len = db.table("parents").unwrap().len();
            if len == 0 {
                return Ok(());
            }
            let pos = (*seed as usize) % len;
            db.update_rows("parents", &[(pos, 1, Value::from(format!("u{tag}")))]).map(|_| ())
        }
        Op::Delete { seed } => {
            let len = db.table("children").unwrap().len();
            if len == 0 {
                return Ok(());
            }
            let pos = (*seed as usize) % len;
            db.delete_rows("children", &[pos]).map(|_| ())
        }
        Op::Checkpoint => {
            if db.is_durable() {
                db.checkpoint()
            } else {
                Ok(())
            }
        }
    }
}

/// Full observable-state equality: rows, PK indexes, schemas, the version
/// counters, and the change-log history.
fn assert_same_state(
    a: &Database,
    b: &Database,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.table_names(), b.table_names());
    prop_assert_eq!(a.write_version(), b.write_version());
    for table in a.table_names() {
        let ta = a.table(table).unwrap();
        let tb = b.table(table).unwrap();
        prop_assert_eq!(ta.schema(), tb.schema());
        prop_assert_eq!(ta.rows(), tb.rows());
        prop_assert_eq!(a.table_version(table), b.table_version(table));
        for row in ta.rows() {
            if let Value::Int(k) = row[0] {
                prop_assert!(ta.contains_pk(k) && tb.contains_pk(k));
            }
        }
    }
    // The change log must replay identically: every record, in order, with
    // the version each mutation produced.
    let changes_a = a.changes_since(0).map(|v| v.into_iter().cloned().collect::<Vec<_>>());
    let changes_b = b.changes_since(0).map(|v| v.into_iter().cloned().collect::<Vec<_>>());
    prop_assert_eq!(changes_a, changes_b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: after EVERY committed mutation, recovery
    /// from disk equals the live state, and the durable database behaves
    /// exactly like an ephemeral one.
    #[test]
    fn recovery_reproduces_the_live_state_at_every_kill_point(
        raw_ops in prop::collection::vec((0u8..7, 0i64..10, 0u8..6, 0i64..12), 1..20)
    ) {
        let scratch = ScratchDir::new();
        let mut live = Database::open(&scratch.0).unwrap();
        prop_assert!(live.is_durable());
        let mut mirror = Database::new();
        create_schema(&mut live);
        create_schema(&mut mirror);

        for raw in &raw_ops {
            let op = decode(raw);
            let live_result = apply(&mut live, &op);
            let mirror_result = apply(&mut mirror, &op);
            // Durability must not change which mutations are accepted or
            // which error they are refused with.
            if !matches!(op, Op::Checkpoint) {
                prop_assert_eq!(&live_result, &mirror_result);
            }
            assert_same_state(&live, &mirror)?;

            // Kill point: recover from the on-disk files and require the
            // exact live state — including version counters and the
            // change history every replayed mutation must re-produce.
            let recovered = Database::recover(&scratch.0).unwrap();
            prop_assert!(recovered.is_durable());
            assert_same_state(&recovered, &live)?;
        }
    }
}

/// Directed pin: recovery composes — recover, keep mutating, recover
/// again; checkpoints interleave at arbitrary commit boundaries.
#[test]
fn recovered_database_continues_the_log_across_checkpoints() {
    let scratch = ScratchDir::new();
    {
        let mut db = Database::open(&scratch.0).unwrap();
        create_schema(&mut db);
        db.insert("parents", vec![Value::Int(1), Value::from("a")]).unwrap();
        db.checkpoint().unwrap();
        db.insert("parents", vec![Value::Int(2), Value::from("b")]).unwrap();
        // Crash: drop with one record in the snapshot and one in the WAL.
    }
    let mut db = Database::recover(&scratch.0).unwrap();
    assert_eq!(db.table("parents").unwrap().len(), 2);
    let version_after_recovery = db.write_version();

    // The recovered handle keeps appending to the same log.
    db.insert("children", vec![Value::Int(10), Value::from("c"), Value::Int(1)]).unwrap();
    db.checkpoint().unwrap();
    db.insert("children", vec![Value::Int(11), Value::from("d"), Value::Int(2)]).unwrap();
    drop(db);

    let again = Database::recover(&scratch.0).unwrap();
    assert_eq!(again.table("parents").unwrap().len(), 2);
    assert_eq!(again.table("children").unwrap().len(), 2);
    assert!(again.table("children").unwrap().contains_pk(11));
    assert_eq!(again.write_version(), version_after_recovery + 2);
}

/// Directed pin: a rolled-back bulk batch leaves no trace in the log — a
/// recovery after the failed batch equals a recovery from before it.
#[test]
fn failed_bulk_batch_is_absent_from_the_log() {
    let scratch = ScratchDir::new();
    let mut db = Database::open(&scratch.0).unwrap();
    create_schema(&mut db);
    db.insert("parents", vec![Value::Int(1), Value::from("a")]).unwrap();
    let version_before = db.write_version();

    let mut loader = db.bulk();
    let children = loader.table("children").unwrap();
    // Dangling FK: the stage fails, the batch rolls back, nothing commits.
    let err =
        loader.stage(children, vec![Value::Int(5), Value::from("c"), Value::Int(99)]).unwrap_err();
    assert!(matches!(err, StoreError::BulkRow { .. }));
    drop(loader);

    assert_eq!(db.write_version(), version_before);
    let recovered = Database::recover(&scratch.0).unwrap();
    assert_eq!(recovered.write_version(), version_before);
    assert!(recovered.table("children").unwrap().is_empty());
    assert_eq!(recovered.table("parents").unwrap().len(), 1);
}
