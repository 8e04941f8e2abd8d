//! Incremental maintenance: keep embeddings current as the database grows,
//! without retraining from scratch — the in-database-ML requirement the
//! paper's introduction calls out.
//!
//! ```text
//! cargo run --release --example incremental_updates
//! ```

use retro::core::incremental::IncrementalRetro;
use retro::core::{Retro, RetroConfig};
use retro::datasets::{TmdbConfig, TmdbDataset};
use retro::store::{sql, Value};

fn main() {
    let data = TmdbDataset::generate(TmdbConfig { n_movies: 200, ..TmdbConfig::default() });
    let mut db = data.db.clone();

    // Cold run: a new session's first refresh is a full run.
    let mut session = IncrementalRetro::new(RetroConfig::default());
    let t0 = std::time::Instant::now();
    session.refresh(&db, &data.base).expect("cold run");
    let cold_secs = t0.elapsed().as_secs_f64();
    let n0 = session.current().expect("state").embeddings.rows();
    println!("cold run: {n0} embeddings in {cold_secs:.3}s");

    // The database changes: a new movie arrives with a new review.
    sql::run_script(
        &mut db,
        "INSERT INTO movies VALUES (100001, 'g0w1 g5w3 m100001', 'g0w2 g0w5 x0w1',
                                    'en', 50000000.0, 90000000.0, 7.5)",
    )
    .expect("insert movie");
    db.insert("movie_genre", vec![Value::Int(100001), Value::Int(1)]).expect("link genre");
    db.insert(
        "reviews",
        vec![Value::Int(900001), Value::from("g0w1 g0w7 x0w2 fresh r900001"), Value::Int(100001)],
    )
    .expect("insert review");

    // Warm refresh: seeded from the previous solution, few iterations.
    // An append-only change like this takes the delta-scoped path — only
    // the new rows' neighbourhood is re-solved (docs/INCREMENTAL.md).
    let t1 = std::time::Instant::now();
    session.refresh(&db, &data.base).expect("refresh");
    let warm_secs = t1.elapsed().as_secs_f64();
    let out = session.current().expect("state");
    println!(
        "warm refresh ({:?} path): {} embeddings in {warm_secs:.3}s ({}x of cold)",
        session.last_refresh().expect("refreshed"),
        out.embeddings.rows(),
        (warm_secs / cold_secs.max(1e-9) * 100.0).round() / 100.0
    );

    // The refreshed solution must match a cold recompute. A delta refresh
    // appends new values after every previous id while a cold rebuild
    // interleaves them in scan order, so compare by (table, column, text)
    // — never by raw id.
    let cold = Retro::new(RetroConfig::default()).retrofit(&db, &data.base).expect("cold");
    let mut drift = 0.0f32;
    for (id, cat, text) in out.catalog.iter() {
        let category = &out.catalog.categories()[cat as usize];
        let cold_id = cold
            .catalog
            .lookup(&category.table, &category.column, text)
            .expect("value in cold rebuild");
        for (a, b) in out.embeddings.row(id).iter().zip(cold.embeddings.row(cold_id)) {
            drift = drift.max((a - b).abs());
        }
    }
    println!("max deviation from cold recompute: {drift:.4}  (expected: < 0.05)");
    assert!(drift < 0.05, "refresh drifted past the documented bound");

    let new_movie =
        out.catalog.lookup("movies", "title", "g0w1 g5w3 m100001").expect("new movie in catalog");
    let (id, score) = out.nearest(new_movie, 1)[0];
    println!("new movie's closest value: {:?} ({score:+.3})", out.catalog.text(id));
}
