//! The retrofitting solvers, behind one entry point: [`solve`].
//!
//! * [`Solver::Ro`] — Eq. 8/10: Jacobi iteration on the stationary point
//!   of the convex objective Ψ, with the Eq. 15 negative-centroid
//!   optimization (`RoKernel` in `ro.rs`),
//! * [`Solver::Rn`] — Eq. 9/11: the normalized series update with the
//!   Eq. 16 precomputed target sums (`RnKernel` in `rn.rs`; the fast
//!   solver, ~10× quicker than RO in the paper's Fig. 4),
//! * [`Solver::Mf`] — Eq. 3: the Faruqui et al. baseline on the flattened
//!   relation graph (`mf.rs`).
//!
//! All solvers are deterministic. [`solve`] (with its crate-private
//! row-subset sibling `solve_rows`) is the only code that maps a
//! [`Solver`] to its kernel, and [`Hyperparameters::threads`] is its only
//! thread-count input. Each RETRO kernel builds its operators, flattened
//! adjacency and scratch matrices once, then iterates with an
//! allocation-free hot loop split into a group-partitioned
//! centroid/target-sum phase and a row-partitioned update phase, shared by
//! both kernels (`RowKernel`). Neither phase's floating-point order depends
//! on the partition, so the result is bit-identical for every thread count
//! — by construction, not just by test. The one other public solver,
//! [`solve_ro_enumerated`], is the paper's unoptimized Fig. 4 / Table 2 RO
//! path.
//!
//! A kernel updates either every row (a full solve) or a row subset with
//! every other row frozen (`Rows`, run by `solve_rows`).
//! The subset run is the solve half of delta refresh
//! (`crate::incremental`): the same construction, group phase and row
//! update, restricted to the dirty rows, so a delta can never drift from
//! the full kernel — with every row dirty it *is* the full solve, bit for
//! bit.

mod mf;
mod rn;
mod ro;

use retro_linalg::Matrix;

use crate::hyper::Hyperparameters;
use crate::problem::RetrofitProblem;
use rn::RnKernel;
use ro::{NegativeMode, RoKernel};

pub use ro::solve_ro_enumerated;

/// Which retrofitting algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Solver {
    /// Relational retrofitting via the Ψ optimization (Eq. 8/10).
    Ro,
    /// Relational retrofitting via the normalized series (Eq. 9/11) — the
    /// fast default.
    Rn,
    /// The Faruqui et al. baseline (Eq. 3).
    Mf,
}

/// Run `solver` on `problem` for `iterations` rounds, starting from `seed`
/// (a warm start, e.g. the previous converged state) or from `W0`, on
/// [`Hyperparameters::threads`] workers. The anchor term still pulls toward
/// `W0`; a seed changes only the iteration's initial state. RO and RN give
/// bit-identical results for every thread count. MF runs Eq. 3 with its
/// own standard parameters: it ignores `params` and `seed`, runs on one
/// thread, and re-solves from `W0`.
///
/// ```
/// use retro_core::solver::{solve, Solver};
/// use retro_core::{Hyperparameters, RetrofitProblem};
/// use retro_embed::EmbeddingSet;
/// use retro_store::{sql, Database};
///
/// let mut db = Database::new();
/// sql::run_script(&mut db, "
///     CREATE TABLE countries (id INTEGER PRIMARY KEY, name TEXT);
///     CREATE TABLE movies (id INTEGER PRIMARY KEY, title TEXT,
///                          country_id INTEGER REFERENCES countries(id));
///     INSERT INTO countries VALUES (1, 'france'), (2, 'usa');
///     INSERT INTO movies VALUES (1, 'amelie', 1), (2, 'alien', 2);
/// ").unwrap();
/// let base = EmbeddingSet::new(
///     vec!["amelie".into(), "alien".into(), "france".into(), "usa".into()],
///     vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.9, 0.1], vec![0.1, 0.9]],
/// );
/// let problem = RetrofitProblem::build(&db, &base, &[], &[]);
/// let params = Hyperparameters::paper_ro();
/// let serial = solve(&problem, Solver::Ro, &params, 10, None);
/// assert_eq!(serial.shape(), (4, 2));
/// let parallel = solve(&problem, Solver::Ro, &params.with_threads(4), 10, None);
/// assert_eq!(serial.max_abs_diff(&parallel), 0.0);
/// ```
///
/// # Panics
/// Panics if `seed` is `Some` and its shape differs from `(n, dim)` (RO
/// and RN).
pub fn solve(
    problem: &RetrofitProblem,
    solver: Solver,
    params: &Hyperparameters,
    iterations: usize,
    seed: Option<&Matrix>,
) -> Matrix {
    let threads = params.threads;
    match solver {
        Solver::Ro => {
            RoKernel::new(problem, params, NegativeMode::Blanket).run(seed, iterations, threads)
        }
        Solver::Rn => RnKernel::new(problem, params).run(seed, iterations, threads),
        Solver::Mf => mf::solve_mf(problem, iterations),
    }
}

/// Iterate only the `dirty` rows of `w` in place (ascending, deduplicated
/// ids), reading every other row as a constant — the delta-refresh solve,
/// on [`Hyperparameters::threads`] workers. MF has no subset kernel and
/// never plans a delta, so it runs the RN kernel here.
///
/// # Panics
/// Panics if `w`'s shape differs from `(n, dim)`.
pub(crate) fn solve_rows(
    problem: &RetrofitProblem,
    solver: Solver,
    params: &Hyperparameters,
    iterations: usize,
    dirty: &[u32],
    w: &mut Matrix,
) {
    let threads = params.threads;
    match solver {
        Solver::Ro => RoKernel::for_rows(problem, params, dirty).run_rows(w, iterations, threads),
        Solver::Rn | Solver::Mf => {
            RnKernel::for_rows(problem, params, dirty).run_rows(w, iterations, threads)
        }
    }
}

/// [`solve`] with [`Solver::Rn`] on `threads` workers and no seed. Kept
/// only for the `perfbench` package's rig (`perfbench/src/rig.rs`), its
/// one caller; new code calls [`solve`].
#[doc(hidden)]
pub fn solve_rn_parallel(
    problem: &RetrofitProblem,
    params: &Hyperparameters,
    iterations: usize,
    threads: usize,
) -> Matrix {
    solve(problem, Solver::Rn, &params.with_threads(threads), iterations, None)
}

/// Flatten `(slot, group, coefficient)` entries into CSR-style per-slot
/// offset+data arrays with a stable counting sort: per slot, entries keep
/// their visit order (group-major in both kernels — the order fixes each
/// row's floating-point sequence). Shared by `RnKernel` and `RoKernel` so
/// the two cannot drift.
pub(crate) fn flatten_by_node(
    n: usize,
    entries: &[(u32, u32, f32)],
) -> (Vec<u32>, Vec<u32>, Vec<f32>) {
    let mut ptr = vec![0u32; n + 1];
    for &(s, _, _) in entries {
        ptr[s as usize + 1] += 1;
    }
    for i in 0..n {
        ptr[i + 1] += ptr[i];
    }
    let mut cursor: Vec<u32> = ptr[..n].to_vec();
    let mut groups = vec![0u32; entries.len()];
    let mut coeffs = vec![0.0f32; entries.len()];
    for &(s, g, coeff) in entries {
        let at = cursor[s as usize] as usize;
        groups[at] = g;
        coeffs[at] = coeff;
        cursor[s as usize] += 1;
    }
    (ptr, groups, coeffs)
}

/// The rows a kernel updates. Kernel row ("slot") `s` updates matrix row
/// [`Rows::row`]`(s)`; rows outside the set are read as constants.
#[derive(Debug)]
pub(crate) enum Rows {
    /// Every row of an `n`-row problem; slot `s` is row `s`.
    All(usize),
    /// Ascending row ids, plus the inverse map (`u32::MAX` for frozen rows).
    Subset { ids: Vec<u32>, slot_of: Vec<u32> },
}

impl Rows {
    /// The ascending, deduplicated `ids` of an `n`-row problem.
    pub(crate) fn subset(n: usize, ids: &[u32]) -> Self {
        let mut slot_of = vec![u32::MAX; n];
        for (s, &r) in ids.iter().enumerate() {
            slot_of[r as usize] = s as u32;
        }
        Rows::Subset { ids: ids.to_vec(), slot_of }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::All(n) => *n,
            Rows::Subset { ids, .. } => ids.len(),
        }
    }

    /// The matrix row slot `s` updates.
    #[inline]
    pub(crate) fn row(&self, s: usize) -> usize {
        match self {
            Rows::All(_) => s,
            Rows::Subset { ids, .. } => ids[s] as usize,
        }
    }

    /// The slot updating matrix row `r`, or `None` when `r` is frozen.
    #[inline]
    pub(crate) fn slot(&self, r: u32) -> Option<usize> {
        match self {
            Rows::All(_) => Some(r as usize),
            Rows::Subset { slot_of, .. } => {
                let s = slot_of[r as usize];
                (s != u32::MAX).then_some(s as usize)
            }
        }
    }
}

/// The one per-group degree counter: one counting pass over a group's
/// edges gives both directions' out-degrees plus the distinct sources and
/// targets in ascending order — `O(E)` per group, never `O(n)`. The
/// kernels, `|Ri|` ([`crate::relations::relation_type_counts`]), the
/// convexity check and the loss ([`crate::loss::evaluate_loss`]) all count
/// through it, and derive the Eq. 13 `mc`/`mr` from it.
pub(crate) struct Degrees {
    /// Forward out-degree per row (edges `(i, _)` per `i`).
    pub(crate) fwd: Vec<u32>,
    /// Inverted out-degree per row (edges `(_, j)` per `j`).
    pub(crate) inv: Vec<u32>,
    /// Distinct `i`: the forward sources, i.e. the inverted targets.
    pub(crate) sources: Vec<u32>,
    /// Distinct `j`: the forward targets, i.e. the inverted sources.
    pub(crate) targets: Vec<u32>,
}

impl Degrees {
    pub(crate) fn new(n: usize) -> Self {
        Self { fwd: vec![0; n], inv: vec![0; n], sources: Vec::new(), targets: Vec::new() }
    }

    /// Count `edges`, clearing the previous group's counts first.
    pub(crate) fn count(&mut self, edges: &[(u32, u32)]) {
        for &i in &self.sources {
            self.fwd[i as usize] = 0;
        }
        for &j in &self.targets {
            self.inv[j as usize] = 0;
        }
        self.sources.clear();
        self.targets.clear();
        for &(i, j) in edges {
            if self.fwd[i as usize] == 0 {
                self.sources.push(i);
            }
            self.fwd[i as usize] += 1;
            if self.inv[j as usize] == 0 {
                self.targets.push(j);
            }
            self.inv[j as usize] += 1;
        }
        self.sources.sort_unstable();
        self.targets.sort_unstable();
    }

    /// `mc(r)` of Eq. 13 for the counted group: the larger of its distinct
    /// source and target counts (at least 1).
    pub(crate) fn mc(&self) -> usize {
        self.sources.len().max(self.targets.len()).max(1)
    }

    /// `mr(r)` of Eq. 13 for the counted group: the largest `|Ri| + 1`
    /// over its endpoints (at least 1).
    pub(crate) fn mr(&self, relation_counts: &[u32]) -> usize {
        self.sources
            .iter()
            .chain(&self.targets)
            .map(|&i| relation_counts[i as usize] as usize + 1)
            .fold(1, usize::max)
    }
}

/// What the shared iteration loop keeps per kernel: the rows it updates, the
/// groups its rows read, and the iteration scratch.
pub(crate) struct Schedule {
    pub(crate) rows: Rows,
    /// Per directed group: some kernel row reads its aggregate (the Eq. 15
    /// target sum or Eq. 16 centroid); other groups are never computed.
    pub(crate) live: Vec<bool>,
    /// Live groups with a target among the kernel rows. Only these can
    /// change between sweeps, so only these are recomputed after the
    /// first. For a full solve this is every live group.
    moving: Vec<bool>,
    scratch: Scratch,
}

/// Iteration scratch, moved out of the kernel while it runs so worker
/// threads can borrow the immutable kernel state.
struct Scratch {
    /// One aggregate row per directed group.
    aggregates: Matrix,
    /// The full run's iterate, handed out as its result (lazily re-created).
    w: Matrix,
    /// The row phase's output: the next iterate of a full run, or the
    /// staged slots of a subset run.
    next: Matrix,
}

impl Scratch {
    fn empty() -> Self {
        Self { aggregates: Matrix::zeros(0, 0), w: Matrix::zeros(0, 0), next: Matrix::zeros(0, 0) }
    }
}

impl Schedule {
    /// `tgt_ptr`/`tgt_ids` are the kernel's flattened target lists (group
    /// `g` covers `tgt_ids[tgt_ptr[g]..tgt_ptr[g + 1]]`).
    pub(crate) fn new(
        rows: Rows,
        live: Vec<bool>,
        tgt_ptr: &[u32],
        tgt_ids: &[u32],
        dim: usize,
    ) -> Self {
        let moving = (0..live.len())
            .map(|g| {
                live[g]
                    && tgt_ids[tgt_ptr[g] as usize..tgt_ptr[g + 1] as usize]
                        .iter()
                        .any(|&k| rows.slot(k).is_some())
            })
            .collect();
        let scratch = Scratch {
            aggregates: Matrix::zeros(live.len(), dim),
            w: Matrix::zeros(0, 0),
            next: Matrix::zeros(rows.len(), dim),
        };
        Self { rows, live, moving, scratch }
    }
}

/// Call `f(first, chunk)` over contiguous row ranges of a row-major
/// `dim`-wide buffer, one range per worker; `threads ≤ 1` runs inline.
fn for_row_chunks(
    data: &mut [f32],
    dim: usize,
    threads: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    let rows = data.len() / dim;
    if rows == 0 {
        return;
    }
    if threads <= 1 {
        #[cfg(test)]
        tests::note_workers(1);
        return f(0, data);
    }
    let per_chunk = rows.div_ceil(threads);
    #[cfg(test)]
    tests::note_workers(rows.div_ceil(per_chunk));
    std::thread::scope(|scope| {
        for (idx, chunk) in data.chunks_mut(per_chunk * dim).enumerate() {
            let f = &f;
            scope.spawn(move || f(idx * per_chunk, chunk));
        }
    });
}

/// A RETRO kernel as the shared iteration loop sees it. Each sweep is
///
/// 1. a **group phase** — the flagged groups' aggregates from the current
///    iterate `W`; each group is written by exactly one worker, so the
///    partition never reorders any group's accumulation, then
/// 2. a **row phase** — every slot's update, row-local given the
///    aggregates.
///
/// Neither phase's floating-point order depends on the partition, so
/// results are bit-identical for every thread count.
pub(crate) trait RowKernel: Sync + Sized {
    /// Solver name for panic messages.
    const NAME: &'static str;

    fn problem(&self) -> &RetrofitProblem;

    fn schedule(&self) -> &Schedule;

    fn schedule_mut(&mut self) -> &mut Schedule;

    /// Aggregates of groups `start..start + chunk.len()/dim` flagged in
    /// `groups`, into `chunk` (rows of the aggregate matrix).
    fn group_rows(&self, w: &Matrix, groups: &[bool], start: usize, chunk: &mut [f32]);

    /// Updates of slots `start..start + chunk.len()/dim` into `chunk`.
    fn update_rows(&self, w: &Matrix, aggregates: &Matrix, start: usize, chunk: &mut [f32]);

    /// Iterate a full kernel from `seed` (warm start) or `W0`, returning
    /// the result. The loop performs no allocation: the only allocation per
    /// run is the returned matrix itself (handed out by move, lazily
    /// replaced on the next run), so repeated solves reuse all other
    /// scratch.
    ///
    /// # Panics
    /// Panics if `seed` is `Some` and its shape differs from `(n, dim)`.
    fn run(&mut self, seed: Option<&Matrix>, iterations: usize, threads: usize) -> Matrix {
        let (n, dim) = (self.problem().len(), self.problem().dim());
        if n == 0 || dim == 0 {
            return Matrix::zeros(n, dim);
        }
        if let Some(s) = seed {
            // Validate before touching the scratch: a panic after it is
            // moved out would leave the kernel with emptied buffers.
            assert_eq!(s.shape(), (n, dim), "{} solver: seed shape mismatch", Self::NAME);
        }
        debug_assert!(matches!(self.schedule().rows, Rows::All(_)), "run needs a full kernel");
        let mut scratch = std::mem::replace(&mut self.schedule_mut().scratch, Scratch::empty());
        if scratch.w.shape() != (n, dim) {
            scratch.w = Matrix::zeros(n, dim);
        }
        match seed {
            Some(seed) => scratch.w.as_mut_slice().copy_from_slice(seed.as_slice()),
            None => self.problem().w0.copy_into(&mut scratch.w),
        }
        for it in 0..iterations {
            let Scratch { aggregates, w, next } = &mut scratch;
            sweep(self, it, threads, w, aggregates, next);
            std::mem::swap(&mut scratch.w, &mut scratch.next);
        }
        let w = std::mem::replace(&mut scratch.w, Matrix::zeros(0, 0));
        self.schedule_mut().scratch = scratch;
        w
    }

    /// Iterate only the kernel's rows of `w` in place (Jacobi: every slot
    /// is staged from the previous iterate, then all are written back),
    /// reading every other row as a constant.
    ///
    /// # Panics
    /// Panics if `w`'s shape differs from `(n, dim)`.
    fn run_rows(&mut self, w: &mut Matrix, iterations: usize, threads: usize) {
        let (n, dim) = (self.problem().len(), self.problem().dim());
        assert_eq!(w.shape(), (n, dim), "{} solver: warm matrix shape mismatch", Self::NAME);
        if n == 0 || dim == 0 {
            return;
        }
        let mut scratch = std::mem::replace(&mut self.schedule_mut().scratch, Scratch::empty());
        let rows = &self.schedule().rows;
        for it in 0..iterations {
            sweep(self, it, threads, w, &mut scratch.aggregates, &mut scratch.next);
            for s in 0..rows.len() {
                w.set_row(rows.row(s), scratch.next.row(s));
            }
        }
        self.schedule_mut().scratch = scratch;
    }
}

/// Sweep `it` of a run over iterate `w`: the group phase over every live
/// group on the first sweep and over the moving ones after, then the row
/// phase into `next`.
fn sweep<K: RowKernel>(
    kernel: &K,
    it: usize,
    threads: usize,
    w: &Matrix,
    aggregates: &mut Matrix,
    next: &mut Matrix,
) {
    let sched = kernel.schedule();
    let groups = if it == 0 { &sched.live } else { &sched.moving };
    let dim = w.cols();
    for_row_chunks(aggregates.as_mut_slice(), dim, threads, |start, chunk| {
        kernel.group_rows(w, groups, start, chunk)
    });
    let aggregates = &*aggregates;
    for_row_chunks(next.as_mut_slice(), dim, threads, |start, chunk| {
        kernel.update_rows(w, aggregates, start, chunk)
    });
}

/// Default iteration count (§4.3 "we set it to a fixed number of 20"; the
/// evaluation trains with 10, which [`crate::RetroConfig`] uses).
pub const DEFAULT_ITERATIONS: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::relations::{RelationGroup, RelationKind};
    use retro_embed::EmbeddingSet;
    use std::cell::Cell;

    const ITERATIONS: usize = 5;

    thread_local! {
        /// The most workers any kernel phase used on this thread since the
        /// last [`take_peak_workers`].
        static PEAK_WORKERS: Cell<usize> = const { Cell::new(0) };
    }

    /// Record that a phase on this thread ran on `workers` workers.
    pub(super) fn note_workers(workers: usize) {
        PEAK_WORKERS.with(|peak| peak.set(peak.get().max(workers)));
    }

    /// The peak recorded by [`note_workers`] since the last call, reset.
    pub(super) fn take_peak_workers() -> usize {
        PEAK_WORKERS.with(|peak| peak.replace(0))
    }

    /// 24 movies over a 3-value language hub (row-wise) and 8 directors
    /// (foreign key, a few movies without one, two directors without a
    /// base vector). `dim` 32 takes the kernels' fixed-width row body,
    /// other widths the dynamic one.
    fn problem(dim: usize) -> RetrofitProblem {
        let mut catalog = TextValueCatalog::default();
        let movies = catalog.add_category("movies", "title");
        let langs = catalog.add_category("movies", "lang");
        let persons = catalog.add_category("persons", "name");
        let mut intern = |cat, prefix: &str, count: usize| -> Vec<u32> {
            (0..count).map(|k| catalog.intern(cat, &format!("{prefix}{k}"))).collect()
        };
        let m = intern(movies, "m", 24);
        let l = intern(langs, "l", 3);
        let p = intern(persons, "p", 8);
        let lang_edges = (0..24).map(|k| (m[k], l[k % 3])).collect();
        let director_edges = (0..24).filter(|k| k % 5 != 0).map(|k| (m[k], p[k % 8])).collect();
        let groups = vec![
            RelationGroup::new("lang".into(), movies, langs, RelationKind::RowWise, lang_edges),
            RelationGroup::new(
                "dir".into(),
                movies,
                persons,
                RelationKind::ForeignKey,
                director_edges,
            ),
        ];
        let mut tokens = Vec::new();
        let mut vectors = Vec::new();
        for (prefix, count) in [("m", 24), ("l", 3), ("p", 6)] {
            for k in 0..count {
                tokens.push(format!("{prefix}{k}"));
                let seed = tokens.len() as f32;
                vectors.push((0..dim).map(|d| ((seed + 0.3) * (d as f32 + 1.7)).sin()).collect());
            }
        }
        RetrofitProblem::from_parts(catalog, groups, &EmbeddingSet::new(tokens, vectors))
    }

    fn params() -> [Hyperparameters; 3] {
        [
            Hyperparameters::paper_rn(),
            Hyperparameters::paper_ro(),
            Hyperparameters::new(1.0, 0.5, 2.0, 0.25),
        ]
    }

    /// A warm start away from `W0`, like a converged previous generation.
    fn seed(p: &RetrofitProblem) -> Matrix {
        solve(p, Solver::Rn, &Hyperparameters::paper_rn(), 2, None)
    }

    /// The subset run over `dirty` from [`seed`].
    fn run_rows(
        ro: bool,
        p: &RetrofitProblem,
        params: &Hyperparameters,
        dirty: &[u32],
        threads: usize,
    ) -> Matrix {
        let mut w = seed(p);
        let solver = if ro { Solver::Ro } else { Solver::Rn };
        solve_rows(p, solver, &params.with_threads(threads), ITERATIONS, dirty, &mut w);
        w
    }

    /// With every row dirty the subset run is the full seeded solve, bit
    /// for bit, for both solvers and every thread count.
    #[test]
    fn all_rows_dirty_equals_the_full_seeded_solve() {
        for dim in [32, 5] {
            let p = problem(dim);
            let seed = seed(&p);
            let all: Vec<u32> = (0..p.len() as u32).collect();
            for params in params() {
                for ro in [true, false] {
                    let solver = if ro { Solver::Ro } else { Solver::Rn };
                    let full = solve(&p, solver, &params, ITERATIONS, Some(&seed));
                    for threads in [1, 2, 3, 8] {
                        let subset = run_rows(ro, &p, &params, &all, threads);
                        assert_eq!(
                            subset.max_abs_diff(&full),
                            0.0,
                            "dim={dim} ro={ro} threads={threads} {params:?}"
                        );
                    }
                }
            }
        }
    }

    /// A partial dirty set moves only its rows, and the result does not
    /// depend on the thread count.
    #[test]
    fn partial_dirty_set_freezes_every_other_row() {
        for dim in [32, 5] {
            let p = problem(dim);
            let seed = seed(&p);
            // A language hub, a director and a few movies of both.
            let dirty: Vec<u32> = vec![1, 4, 9, 16, 24, 29];
            for params in params() {
                for ro in [true, false] {
                    let serial = run_rows(ro, &p, &params, &dirty, 1);
                    for r in 0..p.len() {
                        let moved = serial.row(r) != seed.row(r);
                        assert_eq!(moved, dirty.contains(&(r as u32)), "row {r} ro={ro}");
                    }
                    for threads in [2, 3, 8] {
                        let parallel = run_rows(ro, &p, &params, &dirty, threads);
                        assert_eq!(
                            serial.max_abs_diff(&parallel),
                            0.0,
                            "ro={ro} threads={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_dirty_set_is_a_no_op() {
        let p = problem(32);
        let seed = seed(&p);
        for params in params() {
            for ro in [true, false] {
                for threads in [1, 2, 3, 8] {
                    let w = run_rows(ro, &p, &params, &[], threads);
                    assert_eq!(w.max_abs_diff(&seed), 0.0, "ro={ro} threads={threads}");
                }
            }
        }
    }
}

/// Thread-count parity of [`solve`]: `Hyperparameters::threads` is a speed
/// knob only, so every check here demands bit-identical output from
/// `with_threads(1)` — the inline, sequential run — and larger counts.
#[cfg(test)]
mod parallel {
    mod tests {
        use crate::catalog::TextValueCatalog;
        use crate::relations::{RelationGroup, RelationKind};
        use crate::solver::tests::take_peak_workers;
        use crate::solver::*;
        use retro_embed::EmbeddingSet;

        /// A bipartite problem with genuinely irregular adjacency: every
        /// pair `(s_k, t_k)` is related, and two strided cross-link sweeps
        /// give sources uneven fan-out and targets uneven fan-in (the
        /// strides 5 and 7 are coprime with most lengths, so the extra
        /// edges scatter across the whole target list instead of
        /// clustering).
        fn problem(n_extra: usize) -> RetrofitProblem {
            let n_pairs = 4 + n_extra;
            let mut catalog = TextValueCatalog::default();
            let ca = catalog.add_category("a", "x");
            let cb = catalog.add_category("b", "y");
            let mut sources = Vec::new();
            let mut targets = Vec::new();
            let mut tokens = Vec::new();
            let mut vectors = Vec::new();
            for k in 0..n_pairs {
                sources.push(catalog.intern(ca, &format!("s{k}")));
                targets.push(catalog.intern(cb, &format!("t{k}")));
                tokens.push(format!("s{k}"));
                vectors.push(vec![k as f32 * 0.1, 1.0, -0.3 * k as f32]);
                tokens.push(format!("t{k}"));
                vectors.push(vec![1.0 - k as f32 * 0.05, -0.5, 0.2]);
            }
            let mut edges = Vec::new();
            for k in 0..n_pairs {
                edges.push((sources[k], targets[k]));
                let cross = (k * 5 + 2) % n_pairs;
                if k % 3 > 0 && cross != k {
                    edges.push((sources[k], targets[cross]));
                }
                let far = (k * 7 + 3) % n_pairs;
                if k % 4 == 0 && far != k {
                    edges.push((sources[k], targets[far]));
                }
            }
            let groups =
                vec![RelationGroup::new("a.x~b.y".into(), ca, cb, RelationKind::ForeignKey, edges)];
            let base = EmbeddingSet::new(tokens, vectors);
            RetrofitProblem::from_parts(catalog, groups, &base)
        }

        /// `solver` on `p` gives the same matrix, bit for bit, on 1, 2, 3
        /// and 8 threads — from `W0`, or from a 3-iteration warm start when
        /// `seeded`.
        fn assert_thread_parity(
            p: &RetrofitProblem,
            solver: Solver,
            params: Hyperparameters,
            iterations: usize,
            seeded: bool,
        ) {
            let warm = seeded.then(|| solve(p, solver, &params, 3, None));
            let serial = solve(p, solver, &params.with_threads(1), iterations, warm.as_ref());
            for threads in [2, 3, 8] {
                let parallel =
                    solve(p, solver, &params.with_threads(threads), iterations, warm.as_ref());
                assert_eq!(
                    serial.max_abs_diff(&parallel),
                    0.0,
                    "{solver:?} threads={threads} seeded={seeded} diverged from sequential"
                );
            }
        }

        fn empty_problem() -> RetrofitProblem {
            let catalog = TextValueCatalog::default();
            let base = EmbeddingSet::new(vec!["t".into()], vec![vec![0.0]]);
            RetrofitProblem::from_parts(catalog, Vec::new(), &base)
        }

        #[test]
        fn problem_helper_has_irregular_adjacency() {
            // Guard the helper itself: the cross-links must produce uneven
            // fan-in (some target related to several sources, some to one).
            let p = problem(20);
            let mut fan_in = std::collections::HashMap::new();
            for &(_, j) in &p.groups[0].edges {
                *fan_in.entry(j).or_insert(0u32) += 1;
            }
            let max = fan_in.values().max().copied().unwrap_or(0);
            let min = fan_in.values().min().copied().unwrap_or(0);
            assert!(max >= 2 && min == 1, "fan-in should be uneven, got {min}..{max}");
        }

        #[test]
        fn parallel_matches_serial_exactly() {
            assert_thread_parity(&problem(20), Solver::Rn, Hyperparameters::paper_rn(), 10, false);
        }

        #[test]
        fn rn_seeded_parallel_matches_seeded_serial() {
            assert_thread_parity(&problem(12), Solver::Rn, Hyperparameters::paper_rn(), 5, true);
        }

        #[test]
        fn ro_parallel_matches_serial_bit_for_bit() {
            assert_thread_parity(&problem(20), Solver::Ro, Hyperparameters::paper_ro(), 10, false);
        }

        #[test]
        fn ro_seeded_parallel_matches_seeded_serial() {
            assert_thread_parity(&problem(12), Solver::Ro, Hyperparameters::paper_ro(), 5, true);
        }

        /// With one thread both phases of both kernels run inline on the
        /// calling thread, and the output is still the parallel one.
        #[test]
        fn single_thread_runs_the_row_phase_inline() {
            let p = problem(4);
            for (solver, params) in [
                (Solver::Rn, Hyperparameters::paper_rn()),
                (Solver::Ro, Hyperparameters::paper_ro()),
            ] {
                take_peak_workers();
                let inline = solve(&p, solver, &params.with_threads(1), 5, None);
                assert_eq!(take_peak_workers(), 1, "{solver:?}");
                let parallel = solve(&p, solver, &params.with_threads(3), 5, None);
                assert_eq!(inline.max_abs_diff(&parallel), 0.0, "{solver:?}");
            }
        }

        /// `solve` and `solve_rows` run on exactly `params.threads` workers.
        #[test]
        fn solve_honours_params_threads() {
            let p = problem(20);
            let all: Vec<u32> = (0..p.len() as u32).collect();
            for solver in [Solver::Ro, Solver::Rn] {
                for threads in [1, 3] {
                    let params = Hyperparameters::paper_ro().with_threads(threads);
                    take_peak_workers();
                    solve(&p, solver, &params, 2, None);
                    assert_eq!(take_peak_workers(), threads, "{solver:?} solve");
                    let mut w = p.w0.to_matrix();
                    solve_rows(&p, solver, &params, 2, &all, &mut w);
                    assert_eq!(take_peak_workers(), threads, "{solver:?} solve_rows");
                }
            }
        }

        #[test]
        fn empty_problem_is_handled() {
            let p = empty_problem();
            for solver in [Solver::Rn, Solver::Mf] {
                let w = solve(&p, solver, &Hyperparameters::default().with_threads(4), 3, None);
                assert_eq!(w.shape(), (0, 1), "{solver:?}");
            }
        }

        #[test]
        fn ro_parallel_empty_problem_is_handled() {
            let p = empty_problem();
            let w = solve(&p, Solver::Ro, &Hyperparameters::paper_ro().with_threads(4), 3, None);
            assert_eq!(w.shape(), (0, 1));
        }

        #[test]
        fn zero_dimension_problem_is_handled() {
            let mut catalog = TextValueCatalog::default();
            let c = catalog.add_category("a", "x");
            catalog.intern(c, "v");
            let base = EmbeddingSet::empty(0);
            let p = RetrofitProblem::from_parts(catalog, Vec::new(), &base);
            for solver in [Solver::Ro, Solver::Rn, Solver::Mf] {
                let w = solve(&p, solver, &Hyperparameters::paper_ro().with_threads(4), 3, None);
                assert_eq!(w.shape(), (1, 0), "{solver:?}");
            }
        }
    }
}
