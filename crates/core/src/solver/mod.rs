//! The retrofitting solvers.
//!
//! * [`ro`] — Eq. 8/10: Jacobi iteration on the stationary point of the
//!   convex objective Ψ, with the Eq. 15 negative-centroid optimization,
//! * [`rn`] — Eq. 9/11: the normalized series update with the Eq. 16
//!   precomputed target sums (the fast solver, ~10× quicker than RO in the
//!   paper's Fig. 4),
//! * [`mf`] — Eq. 3: the Faruqui et al. baseline on the flattened relation
//!   graph.
//!
//! All solvers are deterministic. Each RETRO solver runs one shared kernel
//! (`RoKernel` in [`ro`], `RnKernel` in [`rn`]) behind every entry point:
//! the kernel builds its operators, flattened adjacency and scratch
//! matrices once, then iterates with an allocation-free hot loop split
//! into a group-partitioned centroid/target-sum phase and a row-partitioned
//! update phase. Both kernels share the iteration loop in this module
//! (`RowKernel`). The multi-threaded flavours ([`parallel`]) are the same
//! kernels with the partitions spread across workers, so their results are
//! bit-identical to the sequential entry points for every thread count —
//! by construction, not just by test.
//!
//! A kernel updates either every row (a full solve) or a row subset with
//! every other row frozen (`Rows`). The subset run is the solve half of
//! delta refresh (`crate::incremental`): the same construction, group
//! phase and row update, restricted to the dirty rows, so a delta can
//! never drift from the full kernel — with every row dirty it *is* the
//! full solve, bit for bit.

pub mod mf;
pub mod parallel;
pub mod rn;
pub mod ro;

use retro_linalg::Matrix;

use crate::problem::RetrofitProblem;

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

/// Degree scratch for the kernels' constructions: one counting pass over
/// a group's edges gives both directions' out-degrees plus the distinct
/// sources and targets in ascending order — `O(E)` per group, never
/// `O(n)`.
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
        return f(0, data);
    }
    let per_chunk = rows.div_ceil(threads);
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
        let src = seed.unwrap_or(&self.problem().w0);
        scratch.w.as_mut_slice().copy_from_slice(src.as_slice());
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

pub use mf::solve_mf;
pub use parallel::{
    solve_rn_parallel, solve_rn_seeded_parallel, solve_ro_parallel, solve_ro_seeded_parallel,
};
pub use rn::{solve_rn, solve_rn_seeded};
pub use ro::{solve_ro, solve_ro_enumerated, solve_ro_seeded};

/// Default iteration count (§4.3 "we set it to a fixed number of 20"; the
/// evaluation trains with 10, which [`crate::RetroConfig`] uses).
pub const DEFAULT_ITERATIONS: usize = 20;

#[cfg(test)]
mod tests {
    use super::rn::RnKernel;
    use super::ro::RoKernel;
    use super::*;
    use crate::catalog::TextValueCatalog;
    use crate::hyper::Hyperparameters;
    use crate::relations::{RelationGroup, RelationKind};
    use retro_embed::EmbeddingSet;

    const ITERATIONS: usize = 5;

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
        rn::solve_rn(p, &Hyperparameters::paper_rn(), 2)
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
        if ro {
            RoKernel::for_rows(p, params, dirty).run_rows(&mut w, ITERATIONS, threads);
        } else {
            RnKernel::for_rows(p, params, dirty).run_rows(&mut w, ITERATIONS, threads);
        }
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
                    let full = if ro {
                        ro::solve_ro_seeded(&p, &params, ITERATIONS, Some(&seed))
                    } else {
                        rn::solve_rn_seeded(&p, &params, ITERATIONS, Some(&seed))
                    };
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
