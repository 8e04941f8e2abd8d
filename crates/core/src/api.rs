//! The one-call RETRO API: configure, point at a database and a base
//! embedding, receive vectors for every text value.

use retro_embed::EmbeddingSet;
use retro_linalg::Matrix;
use retro_store::Database;

use crate::catalog::TextValueCatalog;
use crate::hyper::{check_convexity, Hyperparameters, ParamCheck};
use crate::problem::RetrofitProblem;
use crate::solver::{self, Solver};

/// Configuration for a retrofitting run.
#[derive(Clone, Debug)]
pub struct RetroConfig {
    /// Algorithm (default: [`Solver::Rn`]).
    pub solver: Solver,
    /// Global hyperparameters (default: the paper's RN setting α=1, β=0,
    /// γ=3, δ=1).
    pub params: Hyperparameters,
    /// Solver iterations (default 10, the §5.2 training setting; MF always
    /// uses 20 per the paper).
    pub iterations: usize,
    /// Text columns to ignore (`(table, column)`), e.g. ablated label
    /// columns.
    pub skip_columns: Vec<(String, String)>,
    /// Relation groups to drop, matched by name substring.
    pub skip_relations: Vec<String>,
}

impl Default for RetroConfig {
    fn default() -> Self {
        Self {
            solver: Solver::Rn,
            params: Hyperparameters::paper_rn(),
            iterations: 10,
            skip_columns: Vec::new(),
            skip_relations: Vec::new(),
        }
    }
}

impl RetroConfig {
    /// Select the solver (RO defaults its hyperparameters to the paper's RO
    /// setting when the current parameters are still the RN default; a
    /// previously chosen thread count is preserved).
    pub fn with_solver(mut self, solver: Solver) -> Self {
        if solver == Solver::Ro
            && (Hyperparameters { threads: 1, ..self.params }) == Hyperparameters::paper_rn()
        {
            self.params = Hyperparameters::paper_ro().with_threads(self.params.threads);
        }
        self.solver = solver;
        self
    }

    /// Override the hyperparameters.
    pub fn with_params(mut self, params: Hyperparameters) -> Self {
        self.params = params;
        self
    }

    /// Override the iteration count.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Ignore a text column.
    pub fn skip_column(mut self, table: &str, column: &str) -> Self {
        self.skip_columns.push((table.to_owned(), column.to_owned()));
        self
    }

    /// Drop relation groups whose name contains `substring`.
    pub fn skip_relation(mut self, substring: &str) -> Self {
        self.skip_relations.push(substring.to_owned());
        self
    }

    /// The skip lists as borrowed slices, in the shape the extraction
    /// functions take.
    pub(crate) fn skip_refs(&self) -> (Vec<(&str, &str)>, Vec<&str>) {
        (
            self.skip_columns.iter().map(|(t, c)| (t.as_str(), c.as_str())).collect(),
            self.skip_relations.iter().map(String::as_str).collect(),
        )
    }
}

/// Errors surfaced by the high-level API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RetroError {
    /// The base embedding has zero dimensions.
    EmptyEmbedding,
    /// Persisting or recovering a published generation failed — an I/O
    /// error, a corrupt snapshot file, or a snapshot that does not match
    /// the supplied base embedding. The message is kept as a string so the
    /// error stays `Clone + PartialEq + Eq`.
    Persist(String),
}

impl std::fmt::Display for RetroError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetroError::EmptyEmbedding => write!(f, "base embedding has dimension 0"),
            RetroError::Persist(msg) => write!(f, "embedding persistence error: {msg}"),
        }
    }
}
impl std::error::Error for RetroError {}

/// The result of a retrofitting run.
#[derive(Clone, Debug)]
pub struct RetroOutput {
    /// The extracted text values (ids index `embeddings` rows). Shares one
    /// allocation with `problem.catalog` — cloning the handle is free.
    pub catalog: std::sync::Arc<TextValueCatalog>,
    /// The assembled problem (relation groups, `W0`, centroids) — reusable
    /// for loss evaluation, graph generation and incremental updates.
    pub problem: RetrofitProblem,
    /// The learned embeddings, one row per text value.
    pub embeddings: Matrix,
    /// The Eq. 7/24 convexity diagnosis for the used parameters (only
    /// meaningful for the RO solver).
    pub convexity: ParamCheck,
}

impl RetroOutput {
    /// The output of a solve of `problem` that converged to `embeddings`,
    /// with the Eq. 7/24 convexity diagnosis for `params` on its graph.
    pub(crate) fn new(
        problem: RetrofitProblem,
        embeddings: Matrix,
        params: &Hyperparameters,
    ) -> Self {
        let convexity =
            check_convexity(&problem.groups, &problem.relation_counts, params, problem.len());
        Self { catalog: problem.catalog.clone(), problem, embeddings, convexity }
    }

    /// The learned vector for `table.column = text`, if the value exists.
    pub fn vector(&self, table: &str, column: &str, text: &str) -> Option<&[f32]> {
        self.catalog.lookup(table, column, text).map(|id| self.embeddings.row(id))
    }

    /// Cosine-similarity top-`k` neighbours of a value among all values.
    ///
    /// Runs the shared [`retro_embed::nn::top_k_cosine`] bounded-heap
    /// selection: deterministic ranking (descending score, ties by
    /// ascending id) with zero-norm/`NaN` rows scoring `0.0` instead of
    /// comparing nondeterministically. Repeated queries are better served
    /// by [`crate::serve::Snapshot`], which caches the row norms this
    /// method recomputes per call.
    pub fn nearest(&self, id: usize, k: usize) -> Vec<(usize, f32)> {
        let norms = self.embeddings.row_norms();
        retro_embed::nn::top_k_cosine(
            &self.embeddings,
            &norms,
            self.embeddings.row(id),
            k,
            1,
            |i| i == id,
        )
    }
}

/// The RETRO engine.
#[derive(Clone, Debug, Default)]
pub struct Retro {
    /// Run configuration.
    pub config: RetroConfig,
}

impl Retro {
    /// Create an engine with the given configuration.
    pub fn new(config: RetroConfig) -> Self {
        Self { config }
    }

    /// Extract, assemble and solve: the §2 end-to-end pipeline.
    pub fn retrofit(&self, db: &Database, base: &EmbeddingSet) -> Result<RetroOutput, RetroError> {
        if base.dim() == 0 {
            return Err(RetroError::EmptyEmbedding);
        }
        let (skip_cols, skip_rels) = self.config.skip_refs();
        let problem = RetrofitProblem::build(db, base, &skip_cols, &skip_rels);
        Ok(self.solve(problem))
    }

    /// Solve an already-assembled problem (used by incremental updates and
    /// the toy examples) at the configured iteration count; MF always runs
    /// 20 iterations, as in the paper.
    ///
    /// RO and RN honour [`Hyperparameters::threads`]; the result is
    /// bit-identical for every thread count, so it changes only the wall
    /// time.
    pub fn solve(&self, problem: RetrofitProblem) -> RetroOutput {
        let iterations = match self.config.solver {
            // The paper runs MF with 20 iterations and its own standard
            // parameters regardless of the RETRO configuration.
            Solver::Mf => 20,
            Solver::Ro | Solver::Rn => self.config.iterations,
        };
        self.solve_seeded(problem, iterations, None)
    }

    /// Run the configured solver for `iterations` rounds from `seed` (or
    /// `W0`) and assemble the output with its convexity diagnosis — the
    /// one place a full solve becomes a [`RetroOutput`], cold or warm.
    pub(crate) fn solve_seeded(
        &self,
        problem: RetrofitProblem,
        iterations: usize,
        seed: Option<&Matrix>,
    ) -> RetroOutput {
        let params = &self.config.params;
        let embeddings = solver::solve(&problem, self.config.solver, params, iterations, seed);
        RetroOutput::new(problem, embeddings, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_store::sql;

    fn setup() -> (Database, EmbeddingSet) {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE persons (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
                                  director_id INTEGER REFERENCES persons(id));
             INSERT INTO persons VALUES (1, 'luc besson'), (2, 'ridley scott');
             INSERT INTO movies VALUES (1, 'valerian', 1), (2, 'alien', 2),
                                       (3, 'fifth element', 1);",
        )
        .unwrap();
        let base = EmbeddingSet::new(
            vec![
                "valerian".into(),
                "alien".into(),
                "fifth element".into(),
                "luc besson".into(),
                "ridley scott".into(),
            ],
            vec![
                vec![1.0, 0.0, 0.0],
                vec![0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0],
                vec![0.5, 0.0, 0.5],
                vec![0.0, 0.5, 0.5],
            ],
        );
        (db, base)
    }

    #[test]
    fn end_to_end_rn() {
        let (db, base) = setup();
        let out = Retro::new(RetroConfig::default()).retrofit(&db, &base).unwrap();
        assert_eq!(out.embeddings.rows(), 5);
        assert_eq!(out.embeddings.cols(), 3);
        assert!(out.vector("movies", "title", "alien").is_some());
        assert!(out.vector("movies", "title", "predator").is_none());
    }

    #[test]
    fn solver_selection_changes_output() {
        let (db, base) = setup();
        let rn = Retro::new(RetroConfig::default()).retrofit(&db, &base).unwrap();
        let ro = Retro::new(RetroConfig::default().with_solver(Solver::Ro))
            .retrofit(&db, &base)
            .unwrap();
        let mf = Retro::new(RetroConfig::default().with_solver(Solver::Mf))
            .retrofit(&db, &base)
            .unwrap();
        assert!(rn.embeddings.max_abs_diff(&ro.embeddings) > 1e-4);
        assert!(rn.embeddings.max_abs_diff(&mf.embeddings) > 1e-4);
    }

    #[test]
    fn ro_solver_defaults_to_paper_ro_params() {
        let config = RetroConfig::default().with_solver(Solver::Ro);
        assert_eq!(config.params, Hyperparameters::paper_ro());
    }

    #[test]
    fn with_solver_preserves_chosen_thread_count() {
        let config = RetroConfig::default()
            .with_params(Hyperparameters::paper_rn().with_threads(8))
            .with_solver(Solver::Ro);
        assert_eq!(config.params, Hyperparameters::paper_ro().with_threads(8));
    }

    // The end-to-end invariance of the thread knob (identical output for
    // any `threads` value, both solvers) is pinned by the root integration
    // suite `tests/solver_determinism.rs`.

    #[test]
    fn relations_shape_the_neighbourhood() {
        let (db, base) = setup();
        let out = Retro::new(
            RetroConfig::default().with_params(Hyperparameters::new(1.0, 0.0, 3.0, 1.0)),
        )
        .retrofit(&db, &base)
        .unwrap();
        // valerian and fifth element share a director → should be mutual
        // near neighbours among titles.
        let valerian = out.catalog.lookup("movies", "title", "valerian").unwrap();
        let fifth = out.catalog.lookup("movies", "title", "fifth element").unwrap();
        let alien = out.catalog.lookup("movies", "title", "alien").unwrap();
        let sim = |a: usize, b: usize| {
            retro_linalg::vector::cosine(out.embeddings.row(a), out.embeddings.row(b))
        };
        assert!(sim(valerian, fifth) > sim(valerian, alien));
    }

    #[test]
    fn skip_column_removes_values() {
        let (db, base) = setup();
        let out = Retro::new(RetroConfig::default().skip_column("persons", "name"))
            .retrofit(&db, &base)
            .unwrap();
        assert!(out.vector("persons", "name", "luc besson").is_none());
        assert_eq!(out.embeddings.rows(), 3);
    }

    #[test]
    fn skip_relation_keeps_values_but_drops_edges() {
        let (db, base) = setup();
        let out = Retro::new(RetroConfig::default().skip_relation("persons.name"))
            .retrofit(&db, &base)
            .unwrap();
        assert!(out.vector("persons", "name", "luc besson").is_some());
        assert!(out.problem.groups.is_empty());
    }

    #[test]
    fn empty_embedding_rejected() {
        let (db, _) = setup();
        let base = EmbeddingSet::empty(0);
        let err = Retro::new(RetroConfig::default()).retrofit(&db, &base).unwrap_err();
        assert_eq!(err, RetroError::EmptyEmbedding);
    }

    #[test]
    fn nearest_returns_sorted_neighbours() {
        let (db, base) = setup();
        let out = Retro::new(RetroConfig::default()).retrofit(&db, &base).unwrap();
        let id = out.catalog.lookup("movies", "title", "valerian").unwrap();
        let nn = out.nearest(id, 3);
        assert_eq!(nn.len(), 3);
        assert!(nn[0].1 >= nn[1].1 && nn[1].1 >= nn[2].1);
        assert!(nn.iter().all(|&(i, _)| i != id));
    }

    #[test]
    fn nearest_ranks_zero_norm_rows_last_deterministically() {
        let (db, base) = setup();
        let mut out = Retro::new(RetroConfig::default()).retrofit(&db, &base).unwrap();
        // Isolated values with no in-vocabulary token keep a zero vector;
        // force one to pin the ranking contract: score exactly 0.0 (the
        // cosine zero-norm convention), never the top hit, never NaN —
        // and the whole ranking deterministic under the helper's explicit
        // total order.
        let zeroed = out.catalog.lookup("movies", "title", "alien").unwrap();
        let dim = out.embeddings.cols();
        out.embeddings.set_row(zeroed, &vec![0.0; dim]);
        let query = out.catalog.lookup("movies", "title", "valerian").unwrap();
        let nn = out.nearest(query, out.catalog.len());
        let zero_entry = nn.iter().find(|&&(i, _)| i == zeroed).expect("listed");
        assert_eq!(zero_entry.1, 0.0, "zero-norm rows must score exactly 0.0");
        assert_ne!(nn[0].0, zeroed, "a zero-norm row must never be the top neighbour");
        assert!(nn.iter().all(|&(_, s)| s.is_finite()), "no NaN may survive ranking");
        for _ in 0..8 {
            assert_eq!(out.nearest(query, out.catalog.len()), nn, "ranking must be stable");
        }
    }
}
