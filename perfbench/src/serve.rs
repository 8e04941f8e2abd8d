//! The serving side of a run: closed-loop read clients, the write →
//! refresh → visible cycle, and the checks on what they return.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use retro_core::serve::SearchMode;
use retro_core::{Engine, RefreshKind, Session, Snapshot};
use retro_store::sql::{self, PlanMode, QueryResult};
use retro_store::Value;

use crate::inputs::{Class, Insert, ReadOp, Truth};
use crate::rig::DB;
use crate::trace::Trace;

/// Reads answered through one session before it is dropped.
const SESSION_BATCH: usize = 16;
/// Neighbours every `NEAREST` asks for.
const K: usize = 10;

#[derive(Default)]
pub struct ReadStats {
    /// Statement latencies in seconds, per class.
    pub latency: [Vec<f64>; 3],
    /// Seconds spent inside engine calls (session open, statements,
    /// session drop); output checks run between calls and are excluded.
    pub busy_s: f64,
    pub failed: u64,
    /// Per `NEAREST ⋈ movies` statement: its time minus its probe's.
    pub knn_join_self_s: Vec<f64>,
    /// Per bare `NEAREST`: rows in the inverted lists it probes.
    pub candidates: Vec<f64>,
}

impl ReadStats {
    pub fn ops(&self) -> usize {
        self.latency.iter().map(Vec::len).sum()
    }

    pub fn merge(&mut self, other: ReadStats) {
        for (mine, theirs) in self.latency.iter_mut().zip(other.latency) {
            mine.extend(theirs);
        }
        self.busy_s += other.busy_s;
        self.failed += other.failed;
        self.knn_join_self_s.extend(other.knn_join_self_s);
        self.candidates.extend(other.candidates);
    }
}

/// Counts the published generations still alive, whoever holds them: the
/// service, the engine's generation cache, or a session pinned before an
/// eviction.
#[derive(Default)]
pub struct Generations {
    published: Mutex<Vec<Weak<Snapshot>>>,
    max_alive: AtomicUsize,
}

impl Generations {
    /// Track the engine's current generation, then sample.
    pub fn publish(&self, engine: &Engine) {
        let current = engine.service(DB).expect("registered").snapshot();
        let mut published = self.published.lock().expect("not poisoned");
        if !published.iter().any(|g| g.as_ptr() == Arc::as_ptr(&current)) {
            published.push(Arc::downgrade(&current));
        }
        drop(published);
        drop(current);
        self.sample();
    }

    /// Note how many tracked generations are alive now. Counting strong
    /// references takes none, so a sample never delays a generation's drop.
    pub fn sample(&self) {
        let published = self.published.lock().expect("not poisoned");
        let alive = published.iter().filter(|g| g.strong_count() > 0).count();
        self.max_alive.fetch_max(alive, Ordering::Relaxed);
    }

    /// The most generations alive at any sample.
    pub fn max_alive(&self) -> usize {
        self.max_alive.load(Ordering::Relaxed)
    }
}

/// One closed-loop read client: open a session, answer up to
/// [`SESSION_BATCH`] reads of `ops` (in order, wrapping) through it, drop
/// it, repeat — until `done` says so. Live generations are sampled as each
/// session is about to drop, while it still pins its generation.
pub fn read_client(
    engine: &Engine,
    truth: &Truth,
    ops: &[ReadOp],
    done: impl Fn() -> bool,
    generations: &Generations,
    trace: &Trace,
) -> ReadStats {
    let mut stats = ReadStats::default();
    let mut next = 0usize;
    while !done() {
        let req = trace.request();
        let (session, secs, _) = trace.timed("core.engine.session", 0, req, || engine.session(DB));
        stats.busy_s += secs;
        let Ok(mut session) = session else {
            stats.failed += 1;
            continue;
        };
        let probes = session.snapshot().default_probes();
        session.set_search_mode(SearchMode::Approx { probes });
        for _ in 0..SESSION_BATCH {
            if done() {
                break;
            }
            let op = &ops[next % ops.len()];
            next += 1;
            let req = trace.request();
            let (result, secs, span) =
                trace.timed(op.class.span(), 0, req, || session.query(&op.sql));
            stats.busy_s += secs;
            stats.latency[op.class.index()].push(secs);
            let ok = match result {
                Ok(result) => {
                    check_read(&session, truth, op, &result, secs, span, req, trace, &mut stats)
                }
                Err(_) => false,
            };
            if !ok {
                stats.failed += 1;
            }
        }
        generations.sample();
        let ((), secs, _) = trace.timed("core.engine.session_drop", 0, req, || drop(session));
        stats.busy_s += secs;
    }
    stats
}

/// Check one read against the truth (SQL) or against
/// `Session::nearest_token` (`NEAREST`); with tracing on, also replay the
/// layers the statement ran, as its children.
#[allow(clippy::too_many_arguments)]
fn check_read(
    session: &Session,
    truth: &Truth,
    op: &ReadOp,
    result: &QueryResult,
    secs: f64,
    span: u64,
    req: u64,
    trace: &Trace,
    stats: &mut ReadStats,
) -> bool {
    if op.class == Class::Sql {
        if trace.on() {
            let (stmt, _, _) =
                trace.timed("store.sql.parse", span, req, || sql::parse_statement(&op.sql));
            let stmt = stmt.expect("the statement just ran");
            let (replayed, _, _) = trace.timed("store.sql.exec", span, req, || {
                sql::query_provided(session.store(), &stmt, PlanMode::Planned, None)
            });
            if replayed.map(|r| r.rows) != Ok(result.rows.clone()) {
                return false;
            }
        }
        let title = &truth.titles[op.key as usize - 1];
        let mut got: Vec<&str> = Vec::with_capacity(result.rows.len());
        for row in &result.rows {
            match row.as_slice() {
                [Value::Text(t), Value::Text(review)] if t == title => got.push(review),
                _ => return false,
            }
        }
        got.sort_unstable();
        return got == truth.reviews[op.key as usize - 1];
    }

    let (oracle, probe_s, _) = trace.timed("nn.ann.probe", span, req, || {
        session.nearest_token("movies", "title", &op.token, K)
    });
    let Some(oracle) = oracle else { return false };
    let catalog = &session.snapshot().output().catalog;
    if op.class == Class::Knn {
        if trace.on() {
            stats.candidates.push(candidates(session, &op.token) as f64);
        }
        return result.rows.len() == oracle.len()
            && result.rows.iter().zip(&oracle).all(|(row, &(id, score))| {
                matches!(row.as_slice(),
                    [Value::Int(i), Value::Text(t), Value::Float(s)]
                        if *i == id as i64 && t == catalog.text(id)
                            && s.to_bits() == f64::from(score).to_bits())
            });
    }

    if trace.on() {
        stats.knn_join_self_s.push(secs - probe_s);
    }
    let mut want: Vec<(&str, u64)> = Vec::new();
    for &(id, score) in &oracle {
        let token = catalog.text(id);
        for _ in 0..truth.movies_titled(token) {
            want.push((token, f64::from(score).to_bits()));
        }
    }
    let mut got: Vec<(&str, u64)> = Vec::with_capacity(result.rows.len());
    for row in &result.rows {
        match row.as_slice() {
            [Value::Text(t), Value::Float(s)] => got.push((t, s.to_bits())),
            _ => return false,
        }
    }
    want.sort_unstable();
    got.sort_unstable();
    got == want
}

/// Rows in the inverted lists a default-depth probe for `token` scans:
/// lists ranked by centroid dot product, ties by list id, as the index
/// ranks them.
fn candidates(session: &Session, token: &str) -> usize {
    let snapshot = session.snapshot();
    let Some(query) = snapshot.vector("movies", "title", token) else { return 0 };
    let index = snapshot.index();
    let centroids = index.centroids();
    let mut ranked: Vec<(f32, usize)> = (0..index.nlist())
        .map(|l| {
            let dot: f32 = centroids.row(l).iter().zip(query).map(|(a, b)| a * b).sum();
            (if dot.is_finite() { dot } else { f32::NEG_INFINITY }, l)
        })
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    ranked[..snapshot.default_probes().min(ranked.len())]
        .iter()
        .map(|&(_, l)| index.list(l).len())
        .sum()
}

/// The longest inverted list over the mean list length.
pub fn list_skew(engine: &Engine) -> f64 {
    let snapshot = engine.service(DB).expect("registered").snapshot();
    let index = snapshot.index();
    let lens: Vec<usize> = (0..index.nlist()).map(|l| index.list(l).len()).collect();
    let max = lens.iter().copied().max().unwrap_or(0) as f64;
    max * lens.len() as f64 / lens.iter().sum::<usize>().max(1) as f64
}

pub struct Fresh {
    /// Seconds from the first `INSERT` to a new session seeing the last row.
    pub fresh_s: f64,
    pub refresh_s: f64,
    pub delta: bool,
    pub ok: bool,
}

/// Durable `INSERT`s through `Engine::execute`, one `Engine::refresh`, then
/// a new session that must resolve the last inserted title through
/// `NEAREST` and read the row back. The refreshed generation is tracked in
/// `generations`.
pub fn fresh_batch(
    engine: &Engine,
    inserts: &[Insert],
    generations: &Generations,
    trace: &Trace,
) -> Fresh {
    let req = trace.request();
    let start = Instant::now();
    let mut ok = true;
    for insert in inserts {
        let (res, _, _) =
            trace.timed("store.sql.insert", req, req, || engine.execute(DB, &insert.sql));
        ok &= matches!(res, Ok(r) if r.rows_affected == 1);
    }
    let (res, refresh_s, _) = trace.timed("core.engine.refresh", req, req, || engine.refresh(DB));
    ok &= res.is_ok();
    generations.publish(engine);
    let service = engine.service(DB).expect("registered");
    let delta = service.last_refresh() == Some(RefreshKind::Delta);
    let last = inserts.last().expect("a batch inserts rows");
    let visible = engine.session(DB).map(|mut session| {
        let probes = session.snapshot().default_probes();
        session.set_search_mode(SearchMode::Approx { probes });
        let near = session
            .query(&format!("SELECT id FROM NEAREST('movies', 'title', '{}', {K}) n", last.title));
        let row = session.query(&format!("SELECT title FROM movies WHERE id = {}", last.id));
        matches!(near, Ok(r) if !r.rows.is_empty())
            && matches!(row, Ok(r) if r.rows == vec![vec![Value::Text(last.title.clone())]])
    });
    let fresh_s = start.elapsed().as_secs_f64();
    if trace.on() {
        trace.record_request("fresh", req, start, Instant::now());
    }
    ok &= visible.unwrap_or(false) && delta;
    Fresh { fresh_s, refresh_s, delta, ok }
}

/// A generation number and, per ranking, neighbour ids with score bits.
pub type Rankings = (u64, Vec<Vec<(usize, u32)>>);

/// Rankings for `tokens` under the exact scan, and for the first two under
/// a probe of every inverted list. Both must survive a restart bit for bit;
/// a default-depth probe need not, because delta refreshes patch the index
/// against frozen centroids while a restart trains it afresh.
pub fn rankings(engine: &Engine, tokens: &[String]) -> Rankings {
    let mut session = engine.session(DB).expect("admitted");
    let probes = session.snapshot().index().nlist();
    let mut out = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        for mode in [SearchMode::Exact, SearchMode::Approx { probes }] {
            if matches!(mode, SearchMode::Approx { .. }) && i >= 2 {
                continue;
            }
            session.set_search_mode(mode);
            let ranked = session.nearest_token("movies", "title", token, K).unwrap_or_default();
            out.push(ranked.into_iter().map(|(id, s)| (id, s.to_bits())).collect());
        }
    }
    (session.generation(), out)
}

/// Recall@10 of the default probe depth against the exact scan, over
/// `tokens`.
pub fn recall(engine: &Engine, tokens: &[String]) -> f64 {
    let mut session = engine.session(DB).expect("admitted");
    let probes = session.snapshot().default_probes();
    let (mut hit, mut total) = (0usize, 0usize);
    for token in tokens {
        session.set_search_mode(SearchMode::Exact);
        let exact = session.nearest_token("movies", "title", token, K).unwrap_or_default();
        session.set_search_mode(SearchMode::Approx { probes });
        let approx: HashSet<usize> = session
            .nearest_token("movies", "title", token, K)
            .unwrap_or_default()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        total += exact.len();
        hit += exact.iter().filter(|(id, _)| approx.contains(id)).count();
    }
    hit as f64 / total.max(1) as f64
}
