//! Assembly of the retrofitting problem: `W0`, category centroids, the
//! forward relation groups and their `|Ri|` counts.

use std::sync::Arc;

use retro_embed::EmbeddingSet;
use retro_linalg::{vector, ChunkedRows, Matrix};
use retro_store::Database;

use crate::catalog::TextValueCatalog;
use crate::hyper::{beta_i, Hyperparameters};
use crate::relations::{extract_relations, relation_type_counts, RelationGroup};

/// A fully-assembled retrofitting problem instance.
///
/// `groups` holds the *forward* relation groups as extracted. The solver
/// kernels, the loss and the convexity check derive both directions'
/// weights from them with one `solver::Degrees` pass per group.
///
/// The catalog is held behind an `Arc`: it is immutable once assembled, and
/// sharing it lets [`crate::RetroOutput`] (and every published serving
/// snapshot) reference the same allocation instead of deep-copying a
/// paper-scale string table on every solve or refresh.
#[derive(Clone, Debug)]
pub struct RetrofitProblem {
    /// Text values and categories (shared, immutable).
    pub catalog: Arc<TextValueCatalog>,
    /// Forward relation groups.
    pub groups: Vec<RelationGroup>,
    /// `n × D` initial vectors (§3.1 tokenized centroids; zero rows for
    /// OOV). Append-only in `Arc`-shared chunks: a delta refresh's problem
    /// shares every full chunk with the problem it extends, so cached
    /// generations hold one `W0` between them, not one each. Read rows
    /// with [`ChunkedRows::row`]; [`ChunkedRows::to_matrix`] copies it
    /// whole for a caller that needs one contiguous buffer.
    pub w0: ChunkedRows,
    /// Per value: true when the §3.1 tokenization found no vocabulary match.
    pub oov: Vec<bool>,
    /// Per *category*: the constant centroid `cᵢ` of Eq. 5 (centroid of the
    /// original vectors of all values in the column).
    pub category_centroids: Matrix,
    /// `|Ri|` per value (directed-group participation count).
    pub relation_counts: Vec<u32>,
}

impl RetrofitProblem {
    /// Build a problem from a database and a base embedding.
    ///
    /// * `skip_columns` — text columns to ignore entirely (label ablation),
    /// * `skip_relations` — relation groups (by name substring) to drop
    ///   (relation ablation for link prediction).
    pub fn build(
        db: &Database,
        base: &EmbeddingSet,
        skip_columns: &[(&str, &str)],
        skip_relations: &[&str],
    ) -> Self {
        let catalog = TextValueCatalog::extract(db, skip_columns);
        let groups = extract_relations(db, &catalog, skip_relations);
        Self::from_parts(catalog, groups, base)
    }

    /// Build from pre-extracted parts (used by recovery, the benches and
    /// the toy examples).
    pub fn from_parts(
        catalog: TextValueCatalog,
        groups: Vec<RelationGroup>,
        base: &EmbeddingSet,
    ) -> Self {
        Self::assemble(Arc::new(catalog), groups, base, None)
    }

    /// The one assembly path: a full build (`prev` = `None`) and a delta
    /// refresh (`prev` = the problem `catalog` extends) both run it.
    ///
    /// `catalog` must keep `prev`'s ids and categories, and `groups` must be
    /// the merged groups. Only the ids past `prev`'s length are tokenized
    /// into `W0`/`oov` (§3.1); they are folded into the Eq. 5 centroids of
    /// their categories as `(c · old_count + Σ new rows) / total`, so a
    /// category that gained nothing keeps its bits, and from an empty
    /// prefix the fold is the plain per-category mean. `|Ri|` is counted
    /// from the merged groups.
    pub(crate) fn assemble(
        catalog: Arc<TextValueCatalog>,
        groups: Vec<RelationGroup>,
        base: &EmbeddingSet,
        prev: Option<&RetrofitProblem>,
    ) -> Self {
        let (n, m, dim) = (catalog.len(), catalog.category_count(), base.dim());
        let prev_n = prev.map_or(0, |p| p.len());
        let mut oov = Vec::with_capacity(n);
        let mut category_centroids = Matrix::zeros(m, dim);
        if let Some(p) = prev {
            oov.extend_from_slice(&p.oov);
            let rows = p.category_centroids.rows();
            category_centroids.as_mut_slice()[..rows * dim]
                .copy_from_slice(p.category_centroids.as_slice());
        }
        let tokenizer = base.tokenizer();
        let tokenize = |id: usize, row: &mut [f32]| {
            let (vec, is_oov) = tokenizer.initial_vector(base, catalog.text(id));
            row.copy_from_slice(&vec);
            oov.push(is_oov);
        };
        // `W0` only grows: a delta shares every full chunk of `prev`'s.
        let w0 = match prev {
            Some(p) => p.w0.extended(n - prev_n, tokenize),
            None => ChunkedRows::from_fn(n, dim, tokenize),
        };

        // Eq. 5: cᵢ is the centroid of the *original* vectors of the value's
        // category — constant across iterations, so computed once per
        // category and extended only by the values a delta appends.
        let mut old_counts = vec![0usize; m];
        for id in 0..prev_n {
            old_counts[catalog.category_of(id) as usize] += 1;
        }
        let mut totals = old_counts.clone();
        for id in prev_n..n {
            totals[catalog.category_of(id) as usize] += 1;
        }
        let grown: Vec<usize> = (0..m).filter(|&c| totals[c] > old_counts[c]).collect();
        for &c in &grown {
            vector::scale(old_counts[c] as f32, category_centroids.row_mut(c));
        }
        for id in prev_n..n {
            let c = catalog.category_of(id) as usize;
            vector::axpy(1.0, w0.row(id), category_centroids.row_mut(c));
        }
        for &c in &grown {
            vector::scale(1.0 / totals[c] as f32, category_centroids.row_mut(c));
        }

        let relation_counts = relation_type_counts(&groups, n);
        Self { catalog, groups, w0, oov, category_centroids, relation_counts }
    }

    /// Number of text values.
    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// True when there are no text values.
    pub fn is_empty(&self) -> bool {
        self.catalog.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.w0.cols()
    }

    /// The Eq. 5 centroid for value `i`.
    pub fn centroid_of(&self, i: usize) -> &[f32] {
        self.category_centroids.row(self.catalog.category_of(i) as usize)
    }

    /// Per-node β of Eq. 12.
    pub fn beta_weights(&self, params: &Hyperparameters) -> Vec<f32> {
        beta_i(&self.relation_counts, params.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyper::delta_hat_weight;
    use crate::solver::Degrees;
    use retro_store::sql;

    fn setup() -> (Database, EmbeddingSet) {
        let mut db = Database::new();
        sql::run_script(
            &mut db,
            "CREATE TABLE countries (id INTEGER PRIMARY KEY, name TEXT);
             CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
                                  country_id INTEGER REFERENCES countries(id));
             INSERT INTO countries VALUES (1, 'france'), (2, 'usa');
             INSERT INTO movies VALUES (1, 'amelie', 1), (2, 'inception', 2),
                                       (3, 'godfather', 2), (4, 'zorgon', 2);",
        )
        .unwrap();
        let base = EmbeddingSet::new(
            vec![
                "amelie".into(),
                "inception".into(),
                "godfather".into(),
                "france".into(),
                "usa".into(),
            ],
            vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.2, 0.8], vec![0.9, 0.1], vec![0.1, 0.9]],
        );
        (db, base)
    }

    #[test]
    fn w0_rows_come_from_tokenizer() {
        let (db, base) = setup();
        let p = RetrofitProblem::build(&db, &base, &[], &[]);
        let amelie = p.catalog.lookup("movies", "title", "amelie").unwrap();
        assert_eq!(p.w0.row(amelie), &[1.0, 0.0]);
        assert!(!p.oov[amelie]);
    }

    #[test]
    fn oov_values_get_zero_rows() {
        let (db, base) = setup();
        let p = RetrofitProblem::build(&db, &base, &[], &[]);
        let zorgon = p.catalog.lookup("movies", "title", "zorgon").unwrap();
        assert!(p.oov[zorgon]);
        assert_eq!(p.w0.row(zorgon), &[0.0, 0.0]);
    }

    #[test]
    fn category_centroid_matches_eq5() {
        let (db, base) = setup();
        let p = RetrofitProblem::build(&db, &base, &[], &[]);
        let amelie = p.catalog.lookup("movies", "title", "amelie").unwrap();
        // Titles: amelie [1,0], inception [0,1], godfather [.2,.8],
        // zorgon [0,0] → centroid [0.3, 0.45].
        let c = p.centroid_of(amelie);
        assert!((c[0] - 0.3).abs() < 1e-6);
        assert!((c[1] - 0.45).abs() < 1e-6);
    }

    /// One degree pass over the problem's only group.
    fn degrees(p: &RetrofitProblem) -> Degrees {
        assert_eq!(p.groups.len(), 1); // movies.title~countries.name
        let mut deg = Degrees::new(p.len());
        deg.count(&p.groups[0].edges);
        deg
    }

    #[test]
    fn delta_hat_is_uniform_for_ro() {
        let (db, base) = setup();
        let p = RetrofitProblem::build(&db, &base, &[], &[]);
        let params = Hyperparameters::new(1.0, 0.0, 1.0, 4.0);
        let deg = degrees(&p);
        // mc = max(4 titles, 2 countries) = 4; mr = 2 (one group each
        // direction → counts 1, +1). δ̂ = 4/(4·2) = 0.5, one value for
        // every source of both directions.
        assert_eq!(deg.mc(), 4);
        assert_eq!(deg.mr(&p.relation_counts), 2);
        let delta_hat = delta_hat_weight(params.delta, deg.mc(), deg.mr(&p.relation_counts));
        assert!((delta_hat - 0.5).abs() < 1e-6);
    }

    #[test]
    fn out_degrees_align_with_sources() {
        let (db, base) = setup();
        let p = RetrofitProblem::build(&db, &base, &[], &[]);
        let deg = degrees(&p);
        // Inverted direction: usa has 3 movies, france 1.
        let usa = p.catalog.lookup("countries", "name", "usa").unwrap() as u32;
        assert!(deg.targets.binary_search(&usa).is_ok());
        assert_eq!(deg.inv[usa as usize], 3);
    }
}
