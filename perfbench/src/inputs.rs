//! Everything a run feeds the program: the TMDB dataset at the paper's
//! size, the read streams and insert literals drawn from `--seed`, and the
//! truth the output checks compare against.
//!
//! The dataset itself is the `Paper` preset's, the same for every seed.
//! Generated with another seed, its inverted-list layout changes enough to
//! move bare `NEAREST` latency by up to a third between seeds, which would
//! swamp any change the benchmark is meant to resolve.

use std::collections::HashMap;

use retro_datasets::{SizePreset, TmdbConfig, TmdbDataset};
use retro_embed::EmbeddingSet;
use retro_store::{Database, TableSchema, Value};

/// Inserted titles start with this word; generated titles never do, so a
/// `NEAREST` neighbour can be told apart as an inserted row.
pub const INSERT_PREFIX: &str = "freshrow";

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The generated dataset as ingest input: tables in an order in which
/// every foreign key points at an earlier table.
pub struct Generated {
    pub tables: Vec<(TableSchema, Vec<Vec<Value>>)>,
}

impl Generated {
    /// Generate the dataset; returns it with its base embeddings.
    pub fn new() -> (Self, EmbeddingSet) {
        let TmdbDataset { db, base, .. } =
            TmdbDataset::generate(TmdbConfig::preset(SizePreset::Paper));
        (Self::copy_of(&db), base)
    }

    /// The tables and rows `db` holds, parents first. A store that has only
    /// been bulk-loaded with a generated dataset gives that dataset back.
    pub fn copy_of(db: &Database) -> Self {
        let mut pending: Vec<&retro_store::Table> = db.tables().collect();
        let mut tables: Vec<(TableSchema, Vec<Vec<Value>>)> = Vec::new();
        while !pending.is_empty() {
            let before = pending.len();
            pending.retain(|t| {
                let ready = t.schema().foreign_keys.iter().all(|fk| {
                    fk.ref_table == t.schema().name
                        || tables.iter().any(|(s, _)| s.name == fk.ref_table)
                });
                if ready {
                    tables.push((t.schema().clone(), t.rows().to_vec()));
                }
                !ready
            });
            assert!(pending.len() < before, "foreign-key cycle in the generated schema");
        }
        Self { tables }
    }

    pub fn rows(&self) -> usize {
        self.tables.iter().map(|(_, rows)| rows.len()).sum()
    }
}

/// What the generated data says the answers must be.
pub struct Truth {
    /// Title of movie `id`, at index `id - 1`.
    pub titles: Vec<String>,
    /// Review texts of movie `id`, at index `id - 1`, sorted.
    pub reviews: Vec<Vec<String>>,
    pub title_count: HashMap<String, u32>,
    /// Movie indices whose titles can be quoted in SQL (no apostrophe).
    pub quotable: Vec<u32>,
    /// Quotable title words, for insert literals.
    pub words: Vec<String>,
    /// Each movie's original language (quotable ones only), so inserted
    /// movies follow the generated language distribution.
    pub languages: Vec<String>,
}

fn text(v: &Value) -> &str {
    match v {
        Value::Text(s) => s,
        other => panic!("expected a text value, got {other:?}"),
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer value, got {other:?}"),
    }
}

impl Truth {
    pub fn new(generated: &Generated) -> Self {
        let rows_of = |name: &str| {
            &generated.tables.iter().find(|(s, _)| s.name == name).expect("generated table").1
        };
        let movies = rows_of("movies");
        let mut titles = vec![String::new(); movies.len()];
        let mut languages = Vec::new();
        for row in movies {
            let id = int(&row[0]);
            assert!(id >= 1 && id as usize <= movies.len(), "movie ids are dense from 1");
            titles[id as usize - 1] = text(&row[1]).to_owned();
            let lang = text(&row[3]);
            if !lang.contains('\'') {
                languages.push(lang.to_owned());
            }
        }
        let mut reviews = vec![Vec::new(); movies.len()];
        for row in rows_of("reviews") {
            reviews[int(&row[2]) as usize - 1].push(text(&row[1]).to_owned());
        }
        reviews.iter_mut().for_each(|r| r.sort());
        let mut title_count = HashMap::new();
        for t in &titles {
            assert!(!t.starts_with(INSERT_PREFIX), "generated title collides with insert prefix");
            *title_count.entry(t.clone()).or_insert(0) += 1;
        }
        let quotable: Vec<u32> =
            (0..titles.len() as u32).filter(|&i| !titles[i as usize].contains('\'')).collect();
        let mut words: Vec<String> = quotable
            .iter()
            .take(2000)
            .flat_map(|&i| titles[i as usize].split_whitespace().map(str::to_owned))
            .collect();
        words.sort();
        words.dedup();
        assert!(!quotable.is_empty() && !words.is_empty() && !languages.is_empty());
        Self { titles, reviews, title_count, quotable, words, languages }
    }

    pub fn max_id(&self) -> i64 {
        self.titles.len() as i64
    }

    /// How many movies carry `title` (inserted titles are unique).
    pub fn movies_titled(&self, title: &str) -> u32 {
        if title.starts_with(INSERT_PREFIX) {
            1
        } else {
            self.title_count.get(title).copied().unwrap_or(0)
        }
    }

    /// A uniformly drawn quotable title.
    pub fn token(&self, rng: &mut Rng) -> &str {
        &self.titles[self.quotable[rng.below(self.quotable.len())] as usize]
    }
}

/// The three read classes, one statement shape each, so each class's
/// percentiles describe one kind of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `reviews ⋈ movies` on the foreign key, for one movie id.
    Sql,
    /// Bare `NEAREST` over movie titles.
    Knn,
    /// `NEAREST` joined back to `movies` on the (unindexed) title.
    KnnJoin,
}

pub const CLASSES: [Class; 3] = [Class::Sql, Class::Knn, Class::KnnJoin];

impl Class {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn span(self) -> &'static str {
        match self {
            Class::Sql => "read.sql",
            Class::Knn => "read.knn",
            Class::KnnJoin => "read.knn_join",
        }
    }
}

#[derive(Clone, Debug)]
pub struct ReadOp {
    pub class: Class,
    /// Movie id for [`Class::Sql`]; the query title otherwise.
    pub key: i64,
    pub token: String,
    pub sql: String,
}

/// `len` reads for one client: the classes in turn, so every run answers
/// the same share of each; keys and tokens uniform.
pub fn read_stream(truth: &Truth, seed: u64, client: u64, len: usize) -> Vec<ReadOp> {
    let mut rng = Rng::new(seed, 0x5EAD_0000 + client);
    (0..len)
        .map(|i| {
            let class = CLASSES[i % CLASSES.len()];
            let key = 1 + rng.below(truth.titles.len()) as i64;
            let token = truth.token(&mut rng).to_owned();
            let sql = match class {
                Class::Sql => format!(
                    "SELECT m.title, r.text FROM reviews r JOIN movies m ON r.movie_id = m.id \
                     WHERE m.id = {key}"
                ),
                Class::Knn => format!(
                    "SELECT id, token, score FROM NEAREST('movies', 'title', '{token}', 10) n"
                ),
                Class::KnnJoin => format!(
                    "SELECT m.title, n.score FROM NEAREST('movies', 'title', '{token}', 10) n \
                     JOIN movies m ON m.title = n.token"
                ),
            };
            ReadOp { class, key, token, sql }
        })
        .collect()
}

/// One `INSERT INTO movies` literal.
pub struct Insert {
    pub id: i64,
    pub title: String,
    pub sql: String,
}

/// Insert number `j` (0-based) of a run: the same seed and `j` always give
/// the same row, whatever batch it lands in.
pub fn insert(truth: &Truth, seed: u64, j: usize) -> Insert {
    let mut rng = Rng::new(seed, 0x1A5E_0000_0000 + j as u64);
    let mut word = || truth.words[rng.below(truth.words.len())].clone();
    let title = format!("{INSERT_PREFIX}{j} {} {}", word(), word());
    let overview = format!("{} {} {} {}", word(), word(), word(), word());
    let language = &truth.languages[rng.below(truth.languages.len())];
    let id = truth.max_id() + 1 + j as i64;
    let budget = (rng.next() % 200_000_000) as f64;
    let revenue = (rng.next() % 400_000_000) as f64;
    let popularity = (rng.next() % 1000) as f64 / 10.0;
    let sql = format!(
        "INSERT INTO movies VALUES ({id}, '{title}', '{overview}', '{language}', \
         {budget:.1}, {revenue:.1}, {popularity:.1})"
    );
    Insert { id, title, sql }
}
