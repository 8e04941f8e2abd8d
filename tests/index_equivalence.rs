//! Planner/index equivalence harness for the `retro_store` SQL subsystem
//! (`docs/QUERY_PLANNING.md`).
//!
//! The contract under test: for a randomized DML sequence and a fixed
//! query suite, executing every statement through the cost-based planner
//! ([`sql::PlanMode::Planned`] — pk lookups, secondary-index probes,
//! re-ordered index-driven joins) produces **bit-identical** results to
//! forcing full scans and declared-order hash joins on a second database
//! ([`sql::PlanMode::ForceScan`]) — same rows in the same order, same
//! column headers, and the same first error per statement. Indexes are an
//! access path, never a semantic.
//!
//! A third leg pins recovery: the same sequence applied to a durable
//! database, then recovered from its WAL + snapshot files, must answer the
//! whole query suite identically again (in both plan modes) — declared
//! secondary indexes are part of the recovered state, not a lucky cache.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use retro::store::sql::{self, QueryResult};
use retro::store::Database;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory per test case (no tempfile crate in-tree).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!(
            "retro_index_eq_{}_{}",
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

/// parents ← children through a validated FK (auto-indexed), plus two
/// user-declared secondary indexes — every access path the planner can
/// choose (pk, FK index, declared index, scan) is reachable.
fn create_schema(db: &mut Database) {
    sql::run_script(
        db,
        "CREATE TABLE parents (id INTEGER PRIMARY KEY, name TEXT, score REAL);
         CREATE TABLE children (id INTEGER PRIMARY KEY, label TEXT,
                                parent_id INTEGER REFERENCES parents(id));",
    )
    .unwrap();
    assert!(db.create_index("parents", "name").unwrap());
    assert!(db.create_index("children", "label").unwrap());
}

/// One decoded mutation step (all SQL, so both plan modes exercise the
/// same parse → plan → execute path the public API uses).
#[derive(Debug)]
enum Op {
    InsertParent { pk: i64, tag: u8, null_score: bool },
    InsertChild { pk: i64, fk: i64, tag: u8 },
    RenameParent { pk: i64, tag: u8 },
    RelabelByParent { fk: i64, tag: u8 },
    DeleteChild { pk: i64 },
    DeleteParent { pk: i64 },
    ClearScores { threshold: i64 },
    DeleteByLabel { tag: u8 },
    WholeScore { pk: i64, score: i64 },
}

fn decode(raw: &(u8, i64, u8, i64)) -> Op {
    let &(op, k, v, j) = raw;
    match op {
        0 | 1 => Op::InsertParent { pk: k, tag: v % 4, null_score: j % 3 == 0 },
        2 | 3 => Op::InsertChild { pk: k, fk: j, tag: v % 3 },
        4 => Op::RenameParent { pk: k, tag: v % 4 },
        5 => Op::RelabelByParent { fk: j, tag: v % 3 },
        6 => Op::DeleteChild { pk: k },
        7 => Op::DeleteParent { pk: k },
        8 => Op::ClearScores { threshold: j },
        10 => Op::WholeScore { pk: k, score: j % 4 },
        _ => Op::DeleteByLabel { tag: v % 3 },
    }
}

impl Op {
    fn to_sql(&self) -> String {
        match self {
            Op::InsertParent { pk, tag, null_score } => {
                let score = if *null_score { "NULL".to_owned() } else { format!("{}.5", pk % 7) };
                format!("INSERT INTO parents VALUES ({pk}, 'p{tag}', {score})")
            }
            Op::InsertChild { pk, fk, tag } => {
                format!("INSERT INTO children VALUES ({pk}, 'c{tag}', {fk})")
            }
            Op::RenameParent { pk, tag } => {
                format!("UPDATE parents SET name = 'p{tag}' WHERE id = {pk}")
            }
            Op::RelabelByParent { fk, tag } => {
                format!("UPDATE children SET label = 'c{tag}' WHERE parent_id = {fk}")
            }
            Op::DeleteChild { pk } => format!("DELETE FROM children WHERE id = {pk}"),
            Op::DeleteParent { pk } => format!("DELETE FROM parents WHERE id = {pk}"),
            Op::ClearScores { threshold } => {
                format!("UPDATE parents SET score = NULL WHERE score > {threshold}.0")
            }
            Op::DeleteByLabel { tag } => format!("DELETE FROM children WHERE label = 'c{tag}'"),
            Op::WholeScore { pk, score } => {
                format!("UPDATE parents SET score = {score}.0 WHERE id = {pk}")
            }
        }
    }
}

/// Parse and execute one statement under an explicit plan mode.
fn run_mode(db: &mut Database, text: &str, mode: sql::PlanMode) -> Result<QueryResult, String> {
    let stmt = sql::parse_statement(text).map_err(|e| e.to_string())?;
    sql::execute_with(db, &stmt, mode).map_err(|e| e.to_string())
}

/// The fixed read suite: every planner feature (point lookup, secondary
/// index, FK join in both directions, pushdown, residual predicates,
/// IS NULL, ORDER BY, LIMIT, COUNT(*)) plus queries *without* ORDER BY,
/// which pin the plan-independent canonical row order.
///
/// The joins on the unindexed `parents.score` run as hash joins. Planned,
/// they probe the table's cached join hash, while `ForceScan` hashes the
/// joined table afresh, so these queries check the cache against a fresh
/// build. Their outer side is filtered to fewer rows than the inner
/// (`a.id = k`, `b.score IS NULL`) or to more (`c.id >= 0`, estimated at
/// a third of the rows, and the third join of the three-way self-join).
/// `b.name != ..` filters the probed side. They also cover INTEGER keys
/// meeting integral REAL scores (`1 = 1.0`, set by `WholeScore`), NULL
/// scores and duplicate keys on both sides.
fn query_suite(probe_pk: i64, probe_tag: u8) -> Vec<String> {
    vec![
        "SELECT * FROM parents".into(),
        "SELECT * FROM children".into(),
        format!("SELECT name, score FROM parents WHERE id = {probe_pk}"),
        format!("SELECT id FROM parents WHERE name = 'p{}'", probe_tag % 4),
        format!("SELECT id FROM children WHERE label = 'c{}'", probe_tag % 3),
        "SELECT p.name, c.label FROM children c JOIN parents p ON c.parent_id = p.id".into(),
        "SELECT c.id FROM parents p JOIN children c ON p.id = c.parent_id \
         WHERE p.score IS NOT NULL"
            .into(),
        format!(
            "SELECT c.label, p.name FROM children c JOIN parents p ON c.parent_id = p.id \
             WHERE p.name = 'p{}' AND c.label != 'c9'",
            probe_tag % 4
        ),
        "SELECT a.id, b.id FROM children a JOIN children b ON a.parent_id = b.parent_id \
         WHERE a.id < b.id"
            .into(),
        "SELECT name FROM parents WHERE score IS NULL ORDER BY name DESC LIMIT 4".into(),
        "SELECT id, score FROM parents WHERE score >= 1.5 ORDER BY id LIMIT 5".into(),
        format!("SELECT COUNT(*) FROM children WHERE label = 'c{}'", probe_tag % 3),
        "SELECT COUNT(*) FROM children c JOIN parents p ON c.parent_id = p.id".into(),
        format!(
            "SELECT a.id, b.id FROM parents a JOIN parents b ON a.score = b.score \
             WHERE a.id = {probe_pk} AND b.name != 'p{}'",
            probe_tag % 4
        ),
        "SELECT c.id, p.id FROM children c JOIN parents p ON c.id = p.score WHERE c.id >= 0".into(),
        format!(
            "SELECT c.label, p.name FROM children c JOIN parents p ON c.parent_id = p.score \
             WHERE c.label = 'c{}'",
            probe_tag % 3
        ),
        "SELECT a.id, b.id, c.id FROM parents a JOIN parents b ON b.score = a.score \
         JOIN parents c ON c.score = b.score"
            .into(),
        "SELECT COUNT(*) FROM parents a JOIN parents b ON a.score = b.score \
         WHERE b.score IS NULL"
            .into(),
    ]
}

fn assert_same_result(
    label: &str,
    text: &str,
    a: &Result<QueryResult, String>,
    b: &Result<QueryResult, String>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(ra), Ok(rb)) => {
            prop_assert!(
                ra.columns == rb.columns,
                "{}: columns differ for {}: {:?} != {:?}",
                label,
                text,
                ra.columns,
                rb.columns
            );
            prop_assert!(
                ra.rows == rb.rows,
                "{}: rows differ for {}: {:?} != {:?}",
                label,
                text,
                ra.rows,
                rb.rows
            );
        }
        (Err(ea), Err(eb)) => {
            prop_assert!(ea == eb, "{}: errors differ for {}: {} != {}", label, text, ea, eb);
        }
        (a, b) => {
            return Err(TestCaseError::Fail(format!(
                "{label}: outcome differs for {text}: planned={a:?} forced={b:?}"
            )));
        }
    }
    Ok(())
}

/// Run the full suite against two databases under the given modes and
/// assert bit-identical outcomes.
fn check_suite(
    label: &str,
    left: &mut Database,
    left_mode: sql::PlanMode,
    right: &mut Database,
    right_mode: sql::PlanMode,
    probe_pk: i64,
    probe_tag: u8,
) -> Result<(), TestCaseError> {
    for q in query_suite(probe_pk, probe_tag) {
        let a = run_mode(left, &q, left_mode);
        let b = run_mode(right, &q, right_mode);
        assert_same_result(label, &q, &a, &b)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Planner vs forced scan over a random DML history, then again after
    /// WAL-replay recovery of the same history.
    #[test]
    fn planned_execution_is_bit_identical_to_forced_scans(
        raw_ops in prop::collection::vec((0u8..11, 0i64..12, 0u8..6, 0i64..12), 1..28)
    ) {
        let mut planned = Database::new();
        let mut forced = Database::new();
        create_schema(&mut planned);
        create_schema(&mut forced);

        let scratch = ScratchDir::new();
        let mut durable = Database::open(&scratch.0).unwrap();
        create_schema(&mut durable);

        for (step, raw) in raw_ops.iter().enumerate() {
            let op = decode(raw);
            let text = op.to_sql();
            let a = run_mode(&mut planned, &text, sql::PlanMode::Planned);
            let b = run_mode(&mut forced, &text, sql::PlanMode::ForceScan);
            assert_same_result("mutation", &text, &a, &b)?;
            let d = run_mode(&mut durable, &text, sql::PlanMode::Planned);
            assert_same_result("durable mutation", &text, &a, &d)?;

            // Reads agree after every mutation, not just at the end —
            // index maintenance has to be correct mid-history.
            let (_, k, v, _) = *raw;
            check_suite(
                &format!("step {step}"),
                &mut planned, sql::PlanMode::Planned,
                &mut forced, sql::PlanMode::ForceScan,
                k, v,
            )?;
        }

        // RESTRICT enforcement during the history never fell back to a
        // table scan: the FK index carried every check.
        prop_assert_eq!(planned.fk_scan_fallbacks(), 0);

        // ── WAL-replay leg ────────────────────────────────────────────
        // Recover the durable history from its files; the recovered
        // database must answer the whole suite identically to the live
        // in-memory one, under both plan modes.
        drop(durable);
        let mut recovered = Database::recover(&scratch.0).unwrap();
        check_suite(
            "recovered/planned",
            &mut recovered, sql::PlanMode::Planned,
            &mut planned, sql::PlanMode::Planned,
            5, 2,
        )?;
        check_suite(
            "recovered/forced-scan",
            &mut recovered, sql::PlanMode::ForceScan,
            &mut planned, sql::PlanMode::Planned,
            5, 2,
        )?;
        // The declared indexes came back as indexes, not just as data:
        // re-declaring reports "already indexed".
        prop_assert_eq!(recovered.create_index("parents", "name").unwrap(), false);
        prop_assert_eq!(recovered.create_index("children", "label").unwrap(), false);
        prop_assert_eq!(recovered.fk_scan_fallbacks(), 0);
    }
}

// ── Join hash cache coherence ─────────────────────────────────────────

/// Two unindexed tables whose join columns hold every key shape join
/// equality distinguishes: INTEGER, integral REAL (`1 = 1.0`, also an
/// integer stored in a REAL column), fractional REAL, NULL, and TEXT
/// repeated across rows. Every join in [`join_suite`] is a hash join into
/// a stored table, so a planned run probes that column's cached hash.
fn create_join_schema(db: &mut Database) {
    sql::run_script(
        db,
        "CREATE TABLE items (id INTEGER PRIMARY KEY, tag TEXT, num INTEGER, amount REAL);
         CREATE TABLE probes (id INTEGER PRIMARY KEY, tag TEXT, num INTEGER, amount REAL);",
    )
    .unwrap();
}

fn tag_lit(v: u8) -> String {
    match v % 4 {
        3 => "NULL".to_owned(),
        t => format!("'t{t}'"),
    }
}

fn num_lit(j: i64) -> String {
    match j % 5 {
        4 => "NULL".to_owned(),
        n => n.to_string(),
    }
}

fn amount_lit(j: i64) -> &'static str {
    ["0.0", "1.0", "1", "2.0", "1.5", "NULL"][(j % 6) as usize]
}

/// One write of a cache-coherence history, as SQL. It covers every path
/// that changes a table's rows: single- and multi-row `INSERT`, a
/// multi-row `INSERT` that rolls back after staging its first row (its
/// second row repeats the key, and nothing else writes keys 24..36),
/// `UPDATE` of each join column, and `DELETE`.
fn join_write_sql(raw: &(u8, i64, u8, i64)) -> String {
    let &(op, k, v, j) = raw;
    let t = if v % 2 == 0 { "items" } else { "probes" };
    let row = |pk: i64, v: u8, j: i64| {
        format!("({pk}, {}, {}, {})", tag_lit(v / 2), num_lit(j), amount_lit(j))
    };
    match op {
        0 | 1 => format!("INSERT INTO {t} VALUES {}", row(k, v, j)),
        2 => format!("INSERT INTO {t} VALUES {}, {}", row(k, v, j), row(k + 12, v + 2, j + 1)),
        3 => format!("INSERT INTO {t} VALUES {}, {}", row(k + 24, v, j), row(k + 24, v + 2, j)),
        4 => format!("UPDATE {t} SET tag = {} WHERE id = {k}", tag_lit(v / 2)),
        5 => format!("UPDATE {t} SET amount = {} WHERE id = {k}", amount_lit(j)),
        6 => format!("UPDATE {t} SET num = {} WHERE id >= {k}", num_lit(j)),
        7 => format!("DELETE FROM {t} WHERE id = {k}"),
        _ => format!("DELETE FROM {t} WHERE num = {}", j % 4),
    }
}

/// Joins on every key shape: repeated TEXT, INTEGER against REAL, a
/// pushed-down filter on the probed side, a REAL self-join, a pk-driven
/// outer side, `COUNT(*)`, and a three-way join that hashes both tables.
fn join_suite(probe_pk: i64) -> Vec<String> {
    vec![
        "SELECT p.id, i.id FROM probes p JOIN items i ON i.tag = p.tag".into(),
        "SELECT p.id, i.id FROM probes p JOIN items i ON i.amount = p.num".into(),
        "SELECT p.id, i.id FROM probes p JOIN items i ON i.num = p.num WHERE i.tag != 't0'".into(),
        "SELECT a.id, b.id FROM items a JOIN items b ON a.amount = b.amount".into(),
        format!(
            "SELECT i.tag, p.amount FROM probes p JOIN items i ON i.amount = p.amount \
             WHERE p.id = {probe_pk}"
        ),
        "SELECT COUNT(*) FROM items i JOIN probes p ON p.tag = i.tag WHERE i.num IS NOT NULL"
            .into(),
        "SELECT p.id, i.id, q.id FROM probes p JOIN items i ON i.tag = p.tag \
         JOIN probes q ON q.num = i.num"
            .into(),
    ]
}

/// Run the join suite three ways on a copy of `pristine` — planned with
/// cold join hashes, planned again with warm ones, and forced scans — and
/// once more, planned, on `carried`, whose hashes were built at earlier
/// steps and must have been dropped by every write since. All four must
/// be bit-identical. `pristine` has only ever run forced scans and
/// writes, so it holds no join hash.
fn check_join_cache(
    label: &str,
    carried: &mut Database,
    pristine: &Database,
    probe_pk: i64,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(pristine.join_cache_bytes(), 0);
    for q in join_suite(probe_pk) {
        let mut copy = pristine.clone();
        let forced = run_mode(&mut copy, &q, sql::PlanMode::ForceScan);
        prop_assert!(copy.join_cache_bytes() == 0, "{}: ForceScan built a join hash: {}", label, q);
        let cold = run_mode(&mut copy, &q, sql::PlanMode::Planned);
        let built = copy.join_cache_bytes();
        let warm = run_mode(&mut copy, &q, sql::PlanMode::Planned);
        prop_assert!(copy.join_cache_bytes() == built, "{}: a warm probe rebuilt: {}", label, q);
        let kept = run_mode(carried, &q, sql::PlanMode::Planned);
        assert_same_result(&format!("{label}/cold"), &q, &cold, &forced)?;
        assert_same_result(&format!("{label}/warm"), &q, &warm, &forced)?;
        assert_same_result(&format!("{label}/carried"), &q, &kept, &forced)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cached join hashes are an access path, never a semantic: after
    /// every write of a random history, and again after WAL-replay
    /// recovery of it, planned joins over cold, warm and carried-over
    /// hashes answer exactly what forced scans answer.
    #[test]
    fn cached_join_hashes_stay_coherent_with_every_write(
        raw_ops in prop::collection::vec((0u8..9, 0i64..12, 0u8..8, 0i64..12), 1..28)
    ) {
        let mut carried = Database::new();
        let mut pristine = Database::new();
        create_join_schema(&mut carried);
        create_join_schema(&mut pristine);

        let scratch = ScratchDir::new();
        let mut durable = Database::open(&scratch.0).unwrap();
        create_join_schema(&mut durable);

        for (step, raw) in raw_ops.iter().enumerate() {
            let text = join_write_sql(raw);
            let a = run_mode(&mut carried, &text, sql::PlanMode::Planned);
            let b = run_mode(&mut pristine, &text, sql::PlanMode::ForceScan);
            assert_same_result("write", &text, &a, &b)?;
            let d = run_mode(&mut durable, &text, sql::PlanMode::Planned);
            assert_same_result("durable write", &text, &a, &d)?;
            check_join_cache(&format!("step {step}"), &mut carried, &pristine, raw.1)?;
        }

        drop(durable);
        let recovered = Database::recover(&scratch.0).unwrap();
        check_join_cache("recovered", &mut carried, &recovered, 5)?;
    }
}
