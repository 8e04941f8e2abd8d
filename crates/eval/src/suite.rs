//! The embedding suite: one call to materialize every §5 embedding variant
//! over a database.

use std::collections::HashMap;

use retro_core::graphgen::generate_graph;
use retro_core::{Retro, RetroConfig, Solver, TextValueCatalog};
use retro_deepwalk::{DeepWalk, DeepWalkConfig, SgnsConfig};
use retro_embed::EmbeddingSet;
use retro_graph::WalkConfig;
use retro_linalg::Matrix;
use retro_store::Database;

/// The embedding variants of the evaluation (§5.2/§5.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EmbeddingKind {
    /// Plain word vectors — tokenized `W0`, no retrofitting.
    Pv,
    /// Faruqui et al. baseline retrofitting.
    Mf,
    /// Relational retrofitting, optimization solver.
    Ro,
    /// Relational retrofitting, series solver.
    Rn,
    /// DeepWalk node embeddings.
    Dw,
    /// Concatenations with DeepWalk (§4.6).
    PvDw,
    MfDw,
    RoDw,
    RnDw,
}

impl EmbeddingKind {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            EmbeddingKind::Pv => "PV",
            EmbeddingKind::Mf => "MF",
            EmbeddingKind::Ro => "RO",
            EmbeddingKind::Rn => "RN",
            EmbeddingKind::Dw => "DW",
            EmbeddingKind::PvDw => "PV+DW",
            EmbeddingKind::MfDw => "MF+DW",
            EmbeddingKind::RoDw => "RO+DW",
            EmbeddingKind::RnDw => "RN+DW",
        }
    }

    /// All variants in the paper's presentation order.
    pub fn all() -> [EmbeddingKind; 9] {
        [
            EmbeddingKind::Pv,
            EmbeddingKind::Mf,
            EmbeddingKind::Dw,
            EmbeddingKind::Ro,
            EmbeddingKind::Rn,
            EmbeddingKind::PvDw,
            EmbeddingKind::MfDw,
            EmbeddingKind::RoDw,
            EmbeddingKind::RnDw,
        ]
    }

    /// Whether this variant needs DeepWalk training.
    pub fn needs_dw(self) -> bool {
        matches!(
            self,
            EmbeddingKind::Dw
                | EmbeddingKind::PvDw
                | EmbeddingKind::MfDw
                | EmbeddingKind::RoDw
                | EmbeddingKind::RnDw
        )
    }

    /// The text-only component of a concatenated variant.
    fn text_component(self) -> Option<EmbeddingKind> {
        match self {
            EmbeddingKind::PvDw => Some(EmbeddingKind::Pv),
            EmbeddingKind::MfDw => Some(EmbeddingKind::Mf),
            EmbeddingKind::RoDw => Some(EmbeddingKind::Ro),
            EmbeddingKind::RnDw => Some(EmbeddingKind::Rn),
            _ => None,
        }
    }
}

/// Suite configuration (§5.2 training setup).
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// RO hyperparameters (paper: α=1, β=0, γ=3, δ=3).
    pub ro_params: retro_core::Hyperparameters,
    /// RN hyperparameters (paper: α=1, β=0, γ=3, δ=1).
    pub rn_params: retro_core::Hyperparameters,
    /// Retrofitting iterations (paper trains with 10).
    pub iterations: usize,
    /// DeepWalk dimensionality (defaults to the base embedding's dim so
    /// concatenation is balanced; the paper uses 300 for both).
    pub dw_dim: Option<usize>,
    /// DeepWalk walk settings.
    pub walks: WalkConfig,
    /// Ablated text columns (`(table, column)`).
    pub skip_columns: Vec<(String, String)>,
    /// Ablated relation groups (name substrings).
    pub skip_relations: Vec<String>,
    /// Seed for DeepWalk.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            ro_params: retro_core::Hyperparameters::paper_ro(),
            rn_params: retro_core::Hyperparameters::paper_rn(),
            iterations: 10,
            dw_dim: None,
            walks: WalkConfig { walks_per_node: 8, walk_length: 20 },
            skip_columns: Vec::new(),
            skip_relations: Vec::new(),
            seed: 0xDECAF,
        }
    }
}

impl SuiteConfig {
    /// Ablate a text column.
    pub fn skip_column(mut self, table: &str, column: &str) -> Self {
        self.skip_columns.push((table.to_owned(), column.to_owned()));
        self
    }

    /// Ablate relation groups by name substring.
    pub fn skip_relation(mut self, substring: &str) -> Self {
        self.skip_relations.push(substring.to_owned());
        self
    }

    fn retro_config(&self, solver: Solver) -> RetroConfig {
        let params = match solver {
            Solver::Ro => self.ro_params,
            _ => self.rn_params,
        };
        RetroConfig {
            solver,
            params,
            iterations: self.iterations,
            skip_columns: self.skip_columns.clone(),
            skip_relations: self.skip_relations.clone(),
        }
    }
}

/// All materialized embedding variants over one database.
#[derive(Clone, Debug)]
pub struct EmbeddingSuite {
    /// The shared text-value catalog (same ids for every variant).
    pub catalog: TextValueCatalog,
    variants: HashMap<EmbeddingKind, Matrix>,
}

impl EmbeddingSuite {
    /// Build the requested variants.
    ///
    /// The expensive artifacts are shared: the problem is extracted once,
    /// and DeepWalk is trained once if any `*+DW` variant is requested.
    pub fn build(
        db: &Database,
        base: &EmbeddingSet,
        config: &SuiteConfig,
        kinds: &[EmbeddingKind],
    ) -> Self {
        // PV/problem extraction happens through the RN config (extraction is
        // solver-independent).
        let rn_out = Retro::new(config.retro_config(Solver::Rn))
            .retrofit(db, base)
            .expect("suite: retrofit failed");
        let catalog = (*rn_out.catalog).clone();
        let problem = &rn_out.problem;
        let n = catalog.len();

        let mut variants: HashMap<EmbeddingKind, Matrix> = HashMap::new();
        let want = |k: EmbeddingKind| {
            kinds.contains(&k) || kinds.iter().any(|&c| c.text_component() == Some(k))
        };

        if want(EmbeddingKind::Pv) {
            variants.insert(EmbeddingKind::Pv, problem.w0.to_matrix());
        }
        if want(EmbeddingKind::Rn) {
            variants.insert(EmbeddingKind::Rn, rn_out.embeddings.clone());
        }
        if want(EmbeddingKind::Ro) {
            let out = Retro::new(config.retro_config(Solver::Ro)).solve(problem.clone());
            variants.insert(EmbeddingKind::Ro, out.embeddings);
        }
        if want(EmbeddingKind::Mf) {
            let out =
                Retro::new(RetroConfig { solver: Solver::Mf, ..config.retro_config(Solver::Rn) })
                    .solve(problem.clone());
            variants.insert(EmbeddingKind::Mf, out.embeddings);
        }

        let needs_dw = kinds.iter().any(|k| k.needs_dw());
        if needs_dw {
            let generated = generate_graph(&catalog, &problem.groups);
            let dw_dim = config.dw_dim.unwrap_or(base.dim());
            let dw_config = DeepWalkConfig {
                walks: config.walks,
                sgns: SgnsConfig { dim: dw_dim, ..SgnsConfig::default() },
                seed: config.seed,
            };
            let node_embeddings = DeepWalk::new(dw_config).train(&generated.graph);
            // Keep only the text-value rows (ids 0..n).
            let dw = node_embeddings.select_rows(&(0..n).collect::<Vec<_>>());
            for kind in EmbeddingKind::all() {
                if !kinds.contains(&kind) {
                    continue;
                }
                if kind == EmbeddingKind::Dw {
                    variants.insert(kind, dw.clone());
                } else if let Some(text) = kind.text_component() {
                    let text_matrix = variants.get(&text).expect("text component computed above");
                    variants.insert(kind, retro_core::combine::concat_normalized(text_matrix, &dw));
                }
            }
        }

        // Drop helper variants that were computed only as components.
        variants.retain(|k, _| kinds.contains(k));
        Self { catalog, variants }
    }

    /// The matrix for a variant.
    pub fn matrix(&self, kind: EmbeddingKind) -> &Matrix {
        self.variants.get(&kind).unwrap_or_else(|| panic!("variant {} not built", kind.label()))
    }

    /// Which variants are available.
    pub fn kinds(&self) -> Vec<EmbeddingKind> {
        let mut ks: Vec<_> = self.variants.keys().copied().collect();
        ks.sort_by_key(|k| EmbeddingKind::all().iter().position(|x| x == k));
        ks
    }

    /// The embedding row for a text value, by lookup.
    pub fn vector(
        &self,
        kind: EmbeddingKind,
        table: &str,
        column: &str,
        text: &str,
    ) -> Option<&[f32]> {
        let id = self.catalog.lookup(table, column, text)?;
        Some(self.matrix(kind).row(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_datasets::{TmdbConfig, TmdbDataset};

    fn tiny_suite(kinds: &[EmbeddingKind]) -> (TmdbDataset, EmbeddingSuite) {
        let data =
            TmdbDataset::generate(TmdbConfig { n_movies: 30, dim: 12, ..TmdbConfig::default() });
        let config = SuiteConfig {
            walks: WalkConfig { walks_per_node: 3, walk_length: 8 },
            ..SuiteConfig::default()
        };
        let suite = EmbeddingSuite::build(&data.db, &data.base, &config, kinds);
        (data, suite)
    }

    #[test]
    fn builds_requested_text_variants() {
        let (_, suite) = tiny_suite(&[EmbeddingKind::Pv, EmbeddingKind::Rn, EmbeddingKind::Mf]);
        assert_eq!(suite.kinds().len(), 3);
        let n = suite.catalog.len();
        assert_eq!(suite.matrix(EmbeddingKind::Pv).rows(), n);
        assert_eq!(suite.matrix(EmbeddingKind::Rn).rows(), n);
    }

    #[test]
    fn concatenated_variants_double_width() {
        let (_, suite) = tiny_suite(&[EmbeddingKind::Rn, EmbeddingKind::RnDw]);
        let d = suite.matrix(EmbeddingKind::Rn).cols();
        assert_eq!(suite.matrix(EmbeddingKind::RnDw).cols(), 2 * d);
    }

    #[test]
    #[should_panic(expected = "variant RO not built")]
    fn missing_variant_panics_with_label() {
        let (_, suite) = tiny_suite(&[EmbeddingKind::Pv]);
        let _ = suite.matrix(EmbeddingKind::Ro);
    }

    #[test]
    fn vector_lookup_round_trips() {
        let (data, suite) = tiny_suite(&[EmbeddingKind::Rn]);
        let title = &data.movie_titles[0];
        assert!(suite.vector(EmbeddingKind::Rn, "movies", "title", title).is_some());
        assert!(suite.vector(EmbeddingKind::Rn, "movies", "title", "nope").is_none());
    }

    #[test]
    fn skip_column_propagates_to_catalog() {
        let data =
            TmdbDataset::generate(TmdbConfig { n_movies: 20, dim: 8, ..TmdbConfig::default() });
        let config = SuiteConfig::default().skip_column("movies", "original_language");
        let suite = EmbeddingSuite::build(&data.db, &data.base, &config, &[EmbeddingKind::Pv]);
        assert!(suite.catalog.lookup("movies", "original_language", "en").is_none());
    }
}
