//! Delta-vs-full refresh equivalence: the accuracy contract behind
//! delta-scoped incremental maintenance (`docs/INCREMENTAL.md`).
//!
//! A delta refresh re-solves only the rows whose neighbourhood changed and
//! freezes everything else, so it is *not* bit-identical to a full refresh
//! — but it must stay within a bounded drift of one. This suite pins that
//! bound (`L∞ ≤ 0.05` per value) over randomized insert / update / delete
//! sequences, for both solvers, at 1 and 8 threads, with one session
//! refreshing delta-scoped and a clone of the same session always taking
//! the full path. It also pins the dispatch itself: single inserts take
//! the delta path, numeric-only updates republish without solving, and
//! deletes / relational updates / change-log overflow fall back to the
//! full path (where both sessions must agree *bit-identically*).

use std::collections::BTreeSet;

use proptest::prelude::*;
use retro::core::{IncrementalRetro, RefreshKind, Retro, RetroConfig, RetroOutput, Solver};
use retro::embed::EmbeddingSet;
use retro::store::{sql, Database, Value};

const WORDS: [&str; 12] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa", "film",
    "story",
];

fn base() -> EmbeddingSet {
    // Every WORDS token plus the language codes, with deterministic
    // distinct vectors; numeric name suffixes stay out-of-vocabulary,
    // which is the realistic shape (ids and codes rarely tokenize).
    let mut tokens: Vec<String> = WORDS.iter().map(|w| (*w).to_owned()).collect();
    tokens.extend(["en".to_owned(), "fr".to_owned(), "de".to_owned()]);
    let vectors = (0..tokens.len())
        .map(|i| (0..4).map(|d| ((i * 7 + d * 13) % 17) as f32 / 17.0 - 0.5).collect())
        .collect();
    EmbeddingSet::new(tokens, vectors)
}

/// A database with every relation kind the extractor knows: row-wise
/// (movies.title ~ movies.lang), FK (movies ~ persons), and m:n
/// (movie_genre), plus a free-standing table for scoped deletes and a
/// numeric column for irrelevant updates.
struct Sim {
    db: Database,
    movie_ids: Vec<i64>,
    person_ids: Vec<i64>,
    genre_ids: Vec<i64>,
    next_id: i64,
}

impl Sim {
    fn new() -> Self {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE genres (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT, lang TEXT,
                                  budget FLOAT,
                                  director_id INTEGER REFERENCES persons(id));
             CREATE TABLE movie_genre (movie_id INTEGER REFERENCES movies(id),
                                       genre_id INTEGER REFERENCES genres(id));",
        )
        .expect("schema");
        let mut sim =
            Sim { db, movie_ids: vec![], person_ids: vec![], genre_ids: vec![], next_id: 1 };
        // Large enough that a whole op sequence stays a small fraction of
        // the graph: bounded drift is a *small-delta* contract, and the
        // bench measures single-row inserts against thousands of rows.
        for k in 0..20 {
            sim.insert_person(k);
        }
        for k in 0..8 {
            let id = sim.fresh_id();
            sim.db
                .insert("genres", vec![Value::Int(id), word_name(k, "genre")])
                .expect("genre row");
            sim.genre_ids.push(id);
        }
        for k in 0..144 {
            sim.insert_movie(k);
        }
        for k in 0..6 {
            let id = sim.fresh_id();
            sim.db.insert("notes", vec![Value::Int(id), word_name(k, "note")]).expect("note row");
        }
        sim
    }

    fn fresh_id(&mut self) -> i64 {
        self.next_id += 1;
        self.next_id
    }

    fn insert_person(&mut self, k: usize) {
        let id = self.fresh_id();
        self.db.insert("persons", vec![Value::Int(id), word_name(k, "person")]).expect("person");
        self.person_ids.push(id);
    }

    fn insert_movie(&mut self, k: usize) {
        let id = self.fresh_id();
        let lang = ["en", "fr", "de"][k % 3];
        let director = self.person_ids[k % self.person_ids.len()];
        self.db
            .insert(
                "movies",
                vec![
                    Value::Int(id),
                    word_name(k, "film"),
                    Value::from(lang),
                    Value::Float(k as f64),
                    Value::Int(director),
                ],
            )
            .expect("movie");
        self.movie_ids.push(id);
        self.db
            .insert(
                "movie_genre",
                vec![Value::Int(id), Value::Int(self.genre_ids[k % self.genre_ids.len()])],
            )
            .expect("link");
    }

    /// Apply the operation encoded by `b`: mostly inserts (the delta
    /// path), with numeric updates (no-change), relational updates and
    /// deletes (full fallback) mixed in.
    fn apply(&mut self, b: u8) {
        let k = self.next_id as usize;
        match b % 8 {
            0..=2 => self.insert_movie(k),
            3 => self.insert_person(k),
            4 => {
                let movie = self.movie_ids[b as usize % self.movie_ids.len()];
                let genre = self.genre_ids[(b as usize / 8) % self.genre_ids.len()];
                self.db
                    .insert("movie_genre", vec![Value::Int(movie), Value::Int(genre)])
                    .expect("link");
            }
            5 => {
                let row = b as usize % self.db.table("movies").expect("movies").len();
                self.db
                    .update_rows("movies", &[(row, 3, Value::Float(f64::from(b)))])
                    .expect("numeric update");
            }
            6 => {
                let row = b as usize % self.db.table("movies").expect("movies").len();
                let director = self.person_ids[(b as usize / 8) % self.person_ids.len()];
                self.db
                    .update_rows("movies", &[(row, 4, Value::Int(director))])
                    .expect("relational update");
            }
            _ => {
                let notes = self.db.table("notes").expect("notes").len();
                if notes > 0 {
                    self.db.delete_rows("notes", &[b as usize % notes]).expect("delete");
                }
            }
        }
    }
}

fn word_name(k: usize, noun: &str) -> Value {
    Value::from(format!("{} {noun} {k}", WORDS[k % WORDS.len()]))
}

fn config(solver: Solver, threads: usize) -> RetroConfig {
    // The drift contract assumes the seed state is converged: a delta
    // refresh freezes clean rows where a full refresh re-iterates them,
    // so any leftover seed movement shows up as delta-vs-full drift.
    let cfg = RetroConfig::default().with_solver(solver);
    let params = cfg.params.with_threads(threads);
    cfg.with_params(params).with_iterations(40)
}

/// Max per-value L∞ between two outputs, mapping by (table, column, text)
/// — value *ids* legitimately differ between a delta-extended catalog and
/// a re-extracted one. Also asserts the two cover the same value set.
fn max_drift(a: &RetroOutput, b: &RetroOutput) -> f32 {
    assert_eq!(a.catalog.len(), b.catalog.len(), "outputs cover different value sets");
    let mut worst = 0.0f32;
    for (id, cat, text) in b.catalog.iter() {
        let category = &b.catalog.categories()[cat as usize];
        let row = a
            .vector(&category.table, &category.column, text)
            .unwrap_or_else(|| panic!("{}.{} = '{text}' missing", category.table, category.column));
        for (x, y) in row.iter().zip(b.embeddings.row(id)) {
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

fn run_sequence(solver: Solver, threads: usize, ops: &[u8]) {
    let mut sim = Sim::new();
    let base = base();
    let mut delta = IncrementalRetro::new(config(solver, threads));
    // Let every refresh settle: residual movement in either session reads
    // as drift, and the contract is about the fixed points, not about
    // partially-converged intermediate states.
    delta.refresh_iterations = 15;
    delta.full_run(&sim.db, &base).expect("seed run");
    let mut always_full = delta.clone();
    for &b in ops {
        sim.apply(b);
        // The per-refresh contract: from the *same* prior state, the delta
        // path lands within 0.05 of what the full path would compute.
        let mut reference = delta.clone();
        delta.refresh(&sim.db, &base).expect("delta-dispatched refresh");
        reference.refresh_full(&sim.db, &base).expect("full refresh");
        let step = max_drift(delta.current().expect("state"), reference.current().expect("state"));
        assert!(
            step <= 0.05,
            "delta drifted {step} from a full refresh of the same state \
             (solver {solver:?}, threads {threads}, op {b})"
        );
        always_full.refresh_full(&sim.db, &base).expect("full refresh");
    }
    // Accumulation guard: per-step errors must not compound linearly. A
    // session that only ever took the delta path stays near one that only
    // ever took the full path, even after a whole burst of changes.
    let total = max_drift(delta.current().expect("state"), always_full.current().expect("state"));
    assert!(
        total <= 0.15,
        "accumulated drift {total} after {} ops (solver {solver:?}, threads {threads})",
        ops.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn delta_matches_full_refresh_rn(ops in prop::collection::vec(0u8..=255, 1..9)) {
        run_sequence(Solver::Rn, 1, &ops);
        run_sequence(Solver::Rn, 8, &ops);
    }

    #[test]
    fn delta_matches_full_refresh_ro(ops in prop::collection::vec(0u8..=255, 1..9)) {
        run_sequence(Solver::Ro, 1, &ops);
        run_sequence(Solver::Ro, 8, &ops);
    }
}

#[test]
fn single_insert_takes_the_delta_path_and_stays_close() {
    for solver in [Solver::Rn, Solver::Ro] {
        let mut sim = Sim::new();
        let base = base();
        let mut session = IncrementalRetro::new(config(solver, 1));
        session.full_run(&sim.db, &base).expect("seed run");
        let mut reference = session.clone();
        sim.insert_movie(900);
        session.refresh(&sim.db, &base).expect("refresh");
        assert_eq!(session.last_refresh(), Some(RefreshKind::Delta), "{solver:?}");
        reference.refresh_full(&sim.db, &base).expect("refresh");
        let drift = max_drift(session.current().unwrap(), reference.current().unwrap());
        assert!(drift <= 0.05, "{solver:?} drifted {drift}");
    }
}

#[test]
fn numeric_only_update_republishes_without_solving() {
    let mut sim = Sim::new();
    let base = base();
    let mut session = IncrementalRetro::new(config(Solver::Rn, 1));
    session.full_run(&sim.db, &base).expect("seed run");
    let before = session.current().unwrap().embeddings.clone();
    sim.db.update_rows("movies", &[(0, 3, Value::Float(1e9))]).expect("update");
    session.refresh(&sim.db, &base).expect("refresh");
    assert_eq!(session.last_refresh(), Some(RefreshKind::NoChange));
    assert_eq!(session.current().unwrap().embeddings.max_abs_diff(&before), 0.0);
}

/// When the change log overflows, the delta session must fall back to the
/// full path — and then agree with an always-full session bit for bit,
/// because both run the identical warm full refresh from identical state.
#[test]
fn change_log_overflow_falls_back_to_an_exact_full_refresh() {
    let mut sim = Sim::new();
    sim.db.set_change_log_capacity(2);
    let base = base();
    let mut delta = IncrementalRetro::new(config(Solver::Rn, 1));
    delta.full_run(&sim.db, &base).expect("seed run");
    let mut full = delta.clone();
    for k in 0..5 {
        sim.insert_movie(500 + k);
    }
    delta.refresh(&sim.db, &base).expect("refresh");
    assert_eq!(delta.last_refresh(), Some(RefreshKind::Full), "overflowed log must force Full");
    full.refresh_full(&sim.db, &base).expect("refresh");
    assert_eq!(
        delta.current().unwrap().embeddings.max_abs_diff(&full.current().unwrap().embeddings),
        0.0,
        "the fallback must be the same full refresh, not an approximation"
    );
}

#[test]
fn zero_dirty_budget_forces_the_full_path() {
    let mut sim = Sim::new();
    let base = base();
    let mut session = IncrementalRetro::new(config(Solver::Rn, 1));
    session.delta_max_dirty_fraction = 0.0;
    session.full_run(&sim.db, &base).expect("seed run");
    sim.insert_movie(700);
    session.refresh(&sim.db, &base).expect("refresh");
    assert_eq!(session.last_refresh(), Some(RefreshKind::Full));
}

/// Every relation group as `(name, edges by text)`, sorted — comparable
/// between a delta-extended problem (new ids appended) and a fresh build
/// (new ids interleaved).
fn groups_by_text(out: &RetroOutput) -> Vec<(String, BTreeSet<(String, String)>)> {
    let text = |id: u32| out.catalog.text(id as usize).to_owned();
    let mut groups: Vec<_> = out
        .problem
        .groups
        .iter()
        .map(|g| (g.name.clone(), g.edges.iter().map(|&(i, j)| (text(i), text(j))).collect()))
        .collect();
    groups.sort();
    groups
}

/// Two foreign keys from `movies` into `persons` give two groups between
/// the same two columns. A delta refresh must merge each fresh edge into
/// its own key's group — also when one key was all NULL at the full run,
/// so its group did not exist yet.
#[test]
fn refreshed_groups_equal_a_fresh_build_with_two_keys_into_one_table() {
    for writer in ["3", "NULL"] {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            &format!(
                "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
                 CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
                                      director_id INTEGER REFERENCES persons(id),
                                      writer_id INTEGER REFERENCES persons(id));
                 INSERT INTO persons VALUES (1, 'besson'), (2, 'scott'), (3, 'kamen');
                 INSERT INTO movies VALUES (10, 'valerian', 1, {writer}),
                                           (11, 'alien', 2, {writer});"
            ),
        )
        .expect("schema");
        let base = base();
        let mut session = IncrementalRetro::new(config(Solver::Rn, 1));
        session.delta_max_dirty_fraction = 1.0;
        session.full_run(&db, &base).expect("seed run");
        sql::run(&mut db, "INSERT INTO movies VALUES (12, 'lucy', 1, 3)").expect("insert");
        session.refresh(&db, &base).expect("refresh");
        assert_eq!(session.last_refresh(), Some(RefreshKind::Delta), "writer {writer}");
        let fresh = Retro::new(config(Solver::Rn, 1)).retrofit(&db, &base).expect("fresh build");
        assert_eq!(
            groups_by_text(session.current().unwrap()),
            groups_by_text(&fresh),
            "writer {writer}"
        );
    }
}
