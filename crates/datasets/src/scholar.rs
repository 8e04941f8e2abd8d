//! Synthetic scholarly knowledge graph: papers, authors, venues.
//!
//! The workload DBLPLink-style entity linking needs (see PAPERS.md):
//! *mention* strings — partial titles, serial-less author names — must be
//! resolved to their catalog entity by nearest-neighbour search over the
//! retrofitted embeddings at query time. The generator therefore emits,
//! besides the database and base embedding, a ground-truthed [`Mention`]
//! panel for the `retro_eval::tasks::run_entity_linking` task.
//!
//! ```text
//! venues(id, name)      authors(id, name)
//! papers(id, title, abstract, year, venue_id → venues)
//! paper_author          (n:m link table)
//! ```
//!
//! Degree distributions are **skewed** the way real bibliographies are:
//! author productivity follows a power law (a head of prolific authors
//! holds a large share of the authorship edges) and venue sizes follow the
//! same shape through a per-field venue hierarchy (every field has one
//! flagship venue most of its papers land in). Both skews are pinned by
//! tests, since they are exactly what stresses an IVF partition — hub
//! entities pull dense clusters around themselves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retro_embed::synthetic::{embedding_set_from_mixtures, LatentSpace};
use retro_embed::EmbeddingSet;
use retro_store::{Database, TableSchema, Value};

use crate::names::{self, N_REGIONS};
use crate::preset::SizePreset;

/// Research fields (the topic axis of the latent space).
pub const FIELDS: [&str; 12] = [
    "databases",
    "learning",
    "vision",
    "systems",
    "theory",
    "networks",
    "security",
    "graphics",
    "robotics",
    "bioinformatics",
    "compilers",
    "languages",
];

/// Venues per field: one flagship plus this many satellites.
const VENUES_PER_FIELD: usize = 4;

/// Generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScholarConfig {
    /// Number of papers (default 500).
    pub n_papers: usize,
    /// Embedding dimensionality of the synthetic base vectors.
    pub dim: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability that a title/abstract token is out-of-vocabulary.
    pub oov_rate: f64,
    /// Gaussian noise of the synthetic embeddings.
    pub noise: f32,
    /// Probability that an author-name syllable reveals its region.
    pub name_leak: f64,
    /// Power-law exponent of the author-productivity skew (≥ 1.0; higher
    /// is more skewed — `3.0` concentrates ~half the authorship edges on
    /// the top few percent of authors).
    pub author_skew: f64,
    /// Probability that a paper lands in its field's flagship venue
    /// (instead of a uniformly drawn satellite).
    pub flagship_rate: f64,
}

impl Default for ScholarConfig {
    fn default() -> Self {
        Self {
            n_papers: 500,
            dim: 64,
            seed: 23,
            oov_rate: 0.2,
            noise: 0.4,
            name_leak: 0.8,
            author_skew: 3.0,
            flagship_rate: 0.6,
        }
    }
}

impl ScholarConfig {
    /// A configuration at a named size (see [`SizePreset`]). `Small` is
    /// the 500-paper default; `Paper` scales to 40k papers (≈100k text
    /// values — a mid-size bibliography, kept below the TMDB preset since
    /// the acceptance-scale serving numbers are measured on TMDB).
    pub fn preset(preset: SizePreset) -> Self {
        match preset {
            SizePreset::Small => Self::default(),
            SizePreset::Paper => Self { n_papers: 40_000, ..Self::default() },
        }
    }
}

/// One ground-truthed entity-linking example: free-text `text` must
/// resolve to the stored value `table.column = entity`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mention {
    /// The mention surface form (partial title, serial-less author name).
    pub text: String,
    /// Table of the target entity.
    pub table: String,
    /// Column of the target entity.
    pub column: String,
    /// The exact stored text value the mention refers to.
    pub entity: String,
}

/// The generated dataset: database, base embedding, and the entity-linking
/// ground truth.
#[derive(Clone, Debug)]
pub struct ScholarDataset {
    /// The relational database.
    pub db: Database,
    /// The synthetic base embedding.
    pub base: EmbeddingSet,
    /// Per paper (id order): title text.
    pub paper_titles: Vec<String>,
    /// Per paper: field index into [`FIELDS`].
    pub paper_field: Vec<usize>,
    /// Per author (id order): name text.
    pub author_names: Vec<String>,
    /// Per author: number of papers authored (the skewed degree).
    pub author_degree: Vec<usize>,
    /// Per venue (id order): name text.
    pub venue_names: Vec<String>,
    /// Per venue: number of papers published there (skewed by flagships).
    pub venue_degree: Vec<usize>,
    /// The entity-linking panel.
    pub mentions: Vec<Mention>,
}

impl ScholarDataset {
    /// Generate a dataset.
    pub fn generate(config: ScholarConfig) -> Self {
        Generator::new(config).run()
    }
}

/// Topic layout: one per field, one per name region, plus general filler.
struct Topics;
impl Topics {
    const GENERAL: usize = 4;
    fn count() -> usize {
        FIELDS.len() + N_REGIONS + Self::GENERAL
    }
    fn field(f: usize) -> usize {
        f
    }
    fn region(r: usize) -> usize {
        FIELDS.len() + r
    }
    fn general(k: usize) -> usize {
        FIELDS.len() + N_REGIONS + k
    }
}

struct Generator {
    config: ScholarConfig,
    rng: StdRng,
    vocab: Vec<(String, Vec<f32>)>,
    field_pools: Vec<Vec<String>>,
    general_pool: Vec<String>,
    oov_serial: usize,
}

impl Generator {
    fn new(config: ScholarConfig) -> Self {
        Self {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            vocab: Vec::new(),
            field_pools: Vec::new(),
            general_pool: Vec::new(),
            oov_serial: 0,
        }
    }

    fn one_hot(&self, topic: usize) -> Vec<f32> {
        let mut m = vec![0.0f32; Topics::count()];
        m[topic] = 1.0;
        m
    }

    fn mix(&self, entries: &[(usize, f32)]) -> Vec<f32> {
        let mut m = vec![0.0f32; Topics::count()];
        for &(t, w) in entries {
            m[t] += w;
        }
        m
    }

    fn add_token(&mut self, token: &str, mixture: Vec<f32>) {
        if !self.vocab.iter().any(|(t, _)| t == token) {
            self.vocab.push((token.to_owned(), mixture));
        }
    }

    /// Draw a content token for `field`: from its pool normally, or a
    /// fresh OOV token.
    fn content_token(&mut self, field: usize) -> String {
        if self.rng.gen_bool(self.config.oov_rate) {
            self.oov_serial += 1;
            format!("qq{}", self.oov_serial)
        } else {
            let pool = &self.field_pools[field];
            pool[self.rng.gen_range(0..pool.len())].clone()
        }
    }

    fn general_token(&mut self) -> String {
        self.general_pool[self.rng.gen_range(0..self.general_pool.len())].clone()
    }

    /// A power-law index into `0..n`: `⌊n · u^skew⌋` — low indices are the
    /// "head" entities and soak up most draws.
    fn skewed_index(&mut self, n: usize) -> usize {
        let u: f64 = self.rng.gen();
        ((n as f64 * u.powf(self.config.author_skew)) as usize).min(n - 1)
    }

    fn build_vocab(&mut self) {
        for (f, name) in FIELDS.iter().enumerate() {
            self.add_token(name, self.one_hot(Topics::field(f)));
            let pool = names::topic_tokens("s", f, 14);
            for token in &pool {
                let m = self
                    .mix(&[(Topics::field(f), 0.8), (Topics::general(f % Topics::GENERAL), 0.2)]);
                self.add_token(token, m);
            }
            self.field_pools.push(pool);
        }
        let general = names::topic_tokens("y", 0, 40);
        for (k, token) in general.iter().enumerate() {
            let m = self.one_hot(Topics::general(k % Topics::GENERAL));
            self.add_token(token, m);
        }
        self.general_pool = general;
        for r in 0..N_REGIONS {
            for syllable in names::region_syllables(r) {
                self.add_token(syllable, self.one_hot(Topics::region(r)));
            }
        }
    }

    fn create_schema(db: &mut Database) {
        use retro_store::DataType::*;
        db.create_table(TableSchema::builder("venues").pk("id").column("name", Text).build())
            .expect("schema");
        db.create_table(TableSchema::builder("authors").pk("id").column("name", Text).build())
            .expect("schema");
        db.create_table(
            TableSchema::builder("papers")
                .pk("id")
                .column("title", Text)
                .column("abstract", Text)
                .column("year", Float)
                .fk("venue_id", "venues", "id")
                .build(),
        )
        .expect("schema");
        db.create_table(
            TableSchema::builder("paper_author")
                .fk("paper_id", "papers", "id")
                .fk("author_id", "authors", "id")
                .build(),
        )
        .expect("schema");
    }

    fn run(mut self) -> ScholarDataset {
        self.build_vocab();
        let mut db = Database::new();
        Self::create_schema(&mut db);

        let n = self.config.n_papers;
        let n_authors = (n / 2).max(4);
        let n_venues = FIELDS.len() * (1 + VENUES_PER_FIELD);

        let mut loader = db.bulk();
        let t_venues = loader.table("venues").expect("schema");
        let t_authors = loader.table("authors").expect("schema");
        let t_papers = loader.table("papers").expect("schema");
        let t_paper_author = loader.table("paper_author").expect("schema");
        loader.reserve(t_venues, n_venues);
        loader.reserve(t_authors, n_authors);
        loader.reserve(t_papers, n);
        loader.reserve(t_paper_author, 3 * n);

        // Venues: per field, one flagship (index 0) + satellites. Names
        // blend the field token (in-vocabulary) with a serial.
        let mut venue_names = Vec::with_capacity(n_venues);
        for (field, pool) in FIELDS.iter().zip(&self.field_pools) {
            for (v, token) in pool[..=VENUES_PER_FIELD].iter().enumerate() {
                let id = venue_names.len() as i64 + 1;
                let kind = if v == 0 { "symposium" } else { "workshop" };
                let name = format!("{field} {token} {kind} v{id}");
                loader
                    .stage(t_venues, vec![Value::Int(id), Value::from(name.clone())])
                    .expect("generated row");
                venue_names.push(name);
            }
        }

        // Authors: region-flavoured names; each author works in one home
        // field (their papers cluster there).
        let mut author_names = Vec::with_capacity(n_authors);
        let mut author_field = Vec::with_capacity(n_authors);
        for serial in 0..n_authors {
            let region = self.rng.gen_range(0..N_REGIONS);
            let name = names::person_name(region, serial, self.config.name_leak, &mut self.rng);
            loader
                .stage(t_authors, vec![Value::Int(serial as i64 + 1), Value::from(name.clone())])
                .expect("generated row");
            author_names.push(name);
            author_field.push(self.rng.gen_range(0..FIELDS.len()));
        }

        // Papers: field-topical titles/abstracts, skewed authorship, and a
        // field-local venue choice dominated by the flagship.
        let mut paper_titles = Vec::with_capacity(n);
        let mut paper_field = Vec::with_capacity(n);
        let mut author_degree = vec![0usize; n_authors];
        let mut venue_degree = vec![0usize; n_venues];
        for p in 0..n {
            let paper_id = p as i64 + 1;
            // First author drawn with the power-law skew; the paper takes
            // the first author's home field.
            let lead = self.skewed_index(n_authors);
            let field = author_field[lead];

            let t1 = self.content_token(field);
            let t2 = self.content_token(field);
            let t3 = if self.rng.gen_bool(0.5) {
                self.content_token(field)
            } else {
                self.general_token()
            };
            let title = format!("{t1} {t2} {t3} p{paper_id}");
            let mut words = Vec::with_capacity(8);
            for _ in 0..8 {
                if self.rng.gen_bool(0.65) {
                    words.push(self.content_token(field));
                } else {
                    words.push(self.general_token());
                }
            }
            let abstract_text = format!("{} a{paper_id}", words.join(" "));
            let year = 1990.0 + self.rng.gen_range(0..35) as f64;

            let venue = if self.rng.gen_bool(self.config.flagship_rate) {
                field * (1 + VENUES_PER_FIELD)
            } else {
                field * (1 + VENUES_PER_FIELD) + 1 + self.rng.gen_range(0..VENUES_PER_FIELD)
            };
            venue_degree[venue] += 1;

            loader
                .stage(
                    t_papers,
                    vec![
                        Value::Int(paper_id),
                        Value::from(title.clone()),
                        Value::from(abstract_text),
                        Value::Float(year),
                        Value::Int(venue as i64 + 1),
                    ],
                )
                .expect("generated row");

            // Authorship: the lead plus 0–3 co-authors, all skew-sampled.
            let mut team = vec![lead];
            for _ in 0..self.rng.gen_range(0..4usize) {
                let a = self.skewed_index(n_authors);
                if !team.contains(&a) {
                    team.push(a);
                }
            }
            for &a in &team {
                author_degree[a] += 1;
                loader
                    .stage(t_paper_author, vec![Value::Int(paper_id), Value::Int(a as i64 + 1)])
                    .expect("generated row");
            }

            paper_titles.push(title);
            paper_field.push(field);
        }

        loader.commit().expect("generated rows satisfy every constraint");

        // Mention panel: partial titles (the serial dropped, one token
        // kept out) and serial-less author names — resolvable only through
        // embedding-space proximity, never by exact string match.
        let mut mentions = Vec::new();
        let paper_stride = (n / 100.min(n)).max(1);
        for p in (0..n).step_by(paper_stride) {
            let words: Vec<&str> = paper_titles[p].split(' ').collect();
            mentions.push(Mention {
                text: format!("{} {}", words[0], words[1]),
                table: "papers".into(),
                column: "title".into(),
                entity: paper_titles[p].clone(),
            });
        }
        let author_stride = (n_authors / 100.min(n_authors)).max(1);
        for a in (0..n_authors).step_by(author_stride) {
            let words: Vec<&str> = author_names[a].split(' ').collect();
            mentions.push(Mention {
                text: words[..words.len() - 1].join(" "),
                table: "authors".into(),
                column: "name".into(),
                entity: author_names[a].clone(),
            });
        }

        let space = LatentSpace::new(Topics::count(), self.config.dim, &mut self.rng);
        let base =
            embedding_set_from_mixtures(&space, &self.vocab, self.config.noise, &mut self.rng);

        ScholarDataset {
            db,
            base,
            paper_titles,
            paper_field,
            author_names,
            author_degree,
            venue_names,
            venue_degree,
            mentions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScholarDataset {
        ScholarDataset::generate(ScholarConfig {
            n_papers: 200,
            dim: 16,
            ..ScholarConfig::default()
        })
    }

    #[test]
    fn schema_and_cardinalities() {
        let d = small();
        assert_eq!(d.db.table_count(), 4);
        assert_eq!(d.db.table("papers").unwrap().len(), 200);
        assert_eq!(d.db.table("authors").unwrap().len(), 100);
        assert_eq!(d.db.table("venues").unwrap().len(), FIELDS.len() * (1 + VENUES_PER_FIELD));
        assert!(d.db.table("paper_author").unwrap().len() >= 200);
    }

    #[test]
    fn author_degrees_are_skewed() {
        let d = small();
        let total: usize = d.author_degree.iter().sum();
        let mut sorted = d.author_degree.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // The top 10% of authors hold well over 10% of the authorship
        // edges — the power-law head.
        let head: usize = sorted[..sorted.len() / 10].iter().sum();
        assert!(head as f64 > 0.3 * total as f64, "authorship head too flat: {head}/{total}");
        // And the tail exists: some authors never published.
        assert!(sorted.last() == Some(&0), "no tail — skew missing");
    }

    #[test]
    fn venue_degrees_are_skewed_toward_flagships() {
        let d = small();
        let per = 1 + VENUES_PER_FIELD;
        let flagship: usize = d.venue_degree.iter().step_by(per).sum();
        let total: usize = d.venue_degree.iter().sum();
        assert_eq!(total, 200);
        assert!(flagship as f64 > 0.45 * total as f64, "flagships hold {flagship}/{total}");
    }

    #[test]
    fn mentions_resolve_to_existing_entities() {
        let d = small();
        assert!(!d.mentions.is_empty());
        for m in &d.mentions {
            match m.table.as_str() {
                "papers" => assert!(d.paper_titles.contains(&m.entity)),
                "authors" => assert!(d.author_names.contains(&m.entity)),
                other => panic!("unexpected mention table {other}"),
            }
            // A mention is never the stored string itself — linking must
            // go through embedding space.
            assert_ne!(m.text, m.entity);
            assert!(!m.text.is_empty());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.paper_titles, b.paper_titles);
        assert_eq!(a.author_names, b.author_names);
        assert_eq!(a.mentions, b.mentions);
        assert!(a.base.matrix().max_abs_diff(b.base.matrix()) == 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let a = small();
        let b = ScholarDataset::generate(ScholarConfig {
            n_papers: 200,
            dim: 16,
            seed: 99,
            ..ScholarConfig::default()
        });
        assert_ne!(a.paper_titles, b.paper_titles);
    }

    #[test]
    fn base_vocabulary_covers_field_and_region_tokens() {
        let d = small();
        assert!(d.base.contains("databases"));
        assert!(d.base.contains("s0w0"));
        assert!(d.base.contains("jean"));
    }
}
