//! Approximate nearest-neighbour serving: a deterministic IVF-flat index.
//!
//! `Snapshot` kNN queries used to run the exact `O(n)` `top_k_cosine` scan
//! per query — fine at 493k rows, fatal for millions of users. [`IvfIndex`]
//! makes lookup sub-linear: the snapshot's rows are partitioned into
//! `nlist` inverted lists by a seeded spherical k-means, and a query scores
//! only the `probes` lists whose centroids are most cosine-similar to it —
//! a candidate set of roughly `probes / nlist` of the data instead of all
//! of it.
//!
//! Design contracts, each pinned by `tests/ann_recall.rs` /
//! `tests/ann_serving.rs`:
//!
//! * **Deterministic given a seed.** Training samples are strided (no RNG
//!   in the build path at all), k-means ties break toward the lower
//!   centroid id, and list membership is kept in ascending row order. Two
//!   builds from the same rows and [`IvfConfig`] are structurally
//!   identical.
//! * **The exact scan is the recall oracle.** Candidate scoring runs
//!   [`retro_embed::nn::top_k_cosine_blocks`] — the same sanitize rules and
//!   the same chunked dot kernel as the exact path — so probing *every*
//!   list returns bit-for-bit the exact `top_k_cosine` ranking, and any
//!   recall loss at lower `probes` is purely from unprobed lists, never
//!   from scoring drift.
//! * **Probes stream, they don't gather.** Each inverted list stores a
//!   contiguous *packed copy* of its member vectors (and their norms), so
//!   scanning a probed list is sequential reads at full memory bandwidth —
//!   a gather of the same candidates through the 493k-row matrix is
//!   4–5× slower per candidate from cache misses alone, which is the
//!   difference between a 2× and a 10×+ speedup over the exact scan.
//! * **Degenerate rows never surface.** Zero-norm (OOV) and
//!   `NaN`/`±inf`-poisoned rows are assigned to list 0 and score exactly
//!   `0.0` through the shared sanitize, the same convention as the exact
//!   path.
//! * **Refreshes patch, full rebuilds retrain.** [`IvfIndex::refreshed`]
//!   re-assigns only the dirty rows against the *frozen* centroids — `O(Δ ·
//!   nlist · dim)`, matching the delta-refresh cost model — and is pinned
//!   structurally identical to [`IvfIndex::with_centroids`] over the same
//!   rows. Centroids only retrain on a full build, where the solve already
//!   dominates.
//! * **Restarts copy, they don't retrain.** [`IvfIndex::from_parts`]
//!   rebuilds a persisted index from its config, centroids and per-row
//!   assignments over the recovered matrix — checked, then packed in one
//!   pass with the same helper [`IvfIndex::with_centroids`] uses — so a
//!   restarted service serves the index it saved.

use retro_embed::nn::top_k_cosine_blocks;
use retro_linalg::{vector, Matrix};

/// How a snapshot kNN query scans: the exact oracle or the IVF index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// The full `O(n)` `top_k_cosine` scan — the recall oracle.
    Exact,
    /// Probe the `probes` inverted lists nearest the query (clamped to
    /// `[1, nlist]`; `probes >= nlist` reproduces the exact ranking).
    Approx {
        /// Number of inverted lists to scan.
        probes: usize,
    },
}

/// Why [`IvfIndex::from_parts`] refused its parts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IndexPartsError {
    /// The norm cache does not have one entry per matrix row.
    NormCount {
        /// Matrix rows.
        rows: usize,
        /// Norms supplied.
        norms: usize,
    },
    /// The assignments do not have one entry per matrix row.
    AssignmentCount {
        /// Matrix rows.
        rows: usize,
        /// Assignments supplied.
        assignments: usize,
    },
    /// The centroids' width differs from the matrix's.
    CentroidWidth {
        /// Matrix width.
        dim: usize,
        /// Centroid width.
        centroids: usize,
    },
    /// No centroids, or more than a build over `rows` rows can train.
    CentroidCount {
        /// Matrix rows.
        rows: usize,
        /// Centroids supplied.
        centroids: usize,
    },
    /// A row is assigned to a list that does not exist.
    ListOutOfRange {
        /// The row.
        row: usize,
        /// Its assigned list.
        list: u32,
        /// Number of lists.
        nlist: usize,
    },
    /// A degenerate row (zero, `NaN` or `±inf` norm) is outside list 0.
    DegenerateRowListed {
        /// The row.
        row: usize,
        /// Its assigned list.
        list: u32,
    },
}

impl std::fmt::Display for IndexPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NormCount { rows, norms } => {
                write!(f, "{norms} norms for {rows} rows")
            }
            Self::AssignmentCount { rows, assignments } => {
                write!(f, "{assignments} list assignments for {rows} rows")
            }
            Self::CentroidWidth { dim, centroids } => {
                write!(f, "centroids of width {centroids} for rows of width {dim}")
            }
            Self::CentroidCount { rows, centroids } => {
                write!(f, "{centroids} centroids for {rows} rows")
            }
            Self::ListOutOfRange { row, list, nlist } => {
                write!(f, "row {row} is assigned to list {list} of {nlist}")
            }
            Self::DegenerateRowListed { row, list } => {
                write!(f, "degenerate row {row} is assigned to list {list}, not list 0")
            }
        }
    }
}
impl std::error::Error for IndexPartsError {}

/// Build parameters for an [`IvfIndex`]. Everything is deterministic: the
/// same config over the same rows always builds the same index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of inverted lists (clamped to the number of usable rows at
    /// build time; at least 1).
    pub nlist: usize,
    /// Spherical k-means refinement passes over the training sample.
    pub train_iters: usize,
    /// Training-sample cap: k-means trains on at most this many rows,
    /// strided deterministically across the matrix.
    pub sample_cap: usize,
    /// Seed stirred into the strided sample offset, so distinct seeds
    /// train on distinct (but still deterministic) samples.
    pub seed: u64,
}

impl IvfConfig {
    /// The serving default for an `n`-row snapshot: `nlist = ⌈√n⌉` capped
    /// at 128 (≈3.9k rows per list at the paper's 493k-row TMDB scale),
    /// trained on at most `32·nlist` sampled rows.
    pub fn auto(rows: usize) -> Self {
        let nlist = ((rows as f64).sqrt().ceil() as usize).clamp(1, 128);
        Self { nlist, train_iters: 6, sample_cap: nlist * 32, seed: 0x5eed_1df5 }
    }

    /// Override the number of inverted lists.
    pub fn with_nlist(self, nlist: usize) -> Self {
        Self { nlist: nlist.max(1), ..self }
    }

    /// Override the training seed.
    pub fn with_seed(self, seed: u64) -> Self {
        Self { seed, ..self }
    }

    /// The default probe count for this config: an eighth of the lists,
    /// at least 1 — ≈12.5% of the data scanned per query.
    pub fn default_probes(&self) -> usize {
        (self.nlist / 8).max(1)
    }
}

/// A deterministic IVF-flat index over one matrix of row vectors.
///
/// The index is self-contained: each inverted list keeps a packed,
/// contiguous copy of its member vectors and norms (bit-equal to the
/// matrix rows it was built or refreshed from), so a probe is a streaming
/// scan over `≈ probes/nlist` of the data — never a cache-hostile gather
/// through the full matrix. The price is one extra `O(n · dim)` copy of
/// the indexed rows, the classic IVF memory/speed trade.
///
/// ```
/// use retro_linalg::Matrix;
/// use retro_nn::ann::{IvfConfig, IvfIndex};
///
/// let m = Matrix::from_fn(300, 8, |r, c| ((r * 13 + c * 7) as f32 * 0.21).sin());
/// let norms = m.row_norms();
/// let index = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
///
/// // Probing every list IS the exact scan, bit for bit.
/// let exact = retro_embed::nn::top_k_cosine(&m, &norms, m.row(7), 5, 1, |_| false);
/// assert_eq!(index.search(m.row(7), 5, index.nlist()), exact);
/// ```
#[derive(Clone, Debug)]
pub struct IvfIndex {
    config: IvfConfig,
    /// Row vector width.
    dim: usize,
    /// `nlist × dim`, unit rows (a cluster that never received a training
    /// point keeps its init row).
    centroids: Matrix,
    /// Row id → owning list.
    assignments: Vec<u32>,
    /// Per list: member row ids, ascending.
    lists: Vec<Vec<u32>>,
    /// Per list: the members' vectors, packed back to back in list order.
    packed: Vec<Vec<f32>>,
    /// Per list: the members' L2 norms, in list order.
    packed_norms: Vec<Vec<f32>>,
}

impl IvfIndex {
    /// Train centroids on `matrix`'s rows (seeded spherical k-means over a
    /// strided sample) and assign every row. `norms` must be the matrix's
    /// cached row L2 norms; `threads` partitions the assignment pass
    /// (bit-identical for every thread count — each row's assignment is
    /// independent).
    pub fn build(matrix: &Matrix, norms: &[f32], config: IvfConfig, threads: usize) -> Self {
        let centroids = train_centroids(matrix, norms, &config);
        Self::with_centroids(matrix, norms, centroids, config, threads)
    }

    /// Assign every row of `matrix` to its nearest of the given `centroids`
    /// — the second half of [`IvfIndex::build`], split out so tests can pin
    /// [`IvfIndex::refreshed`] equivalent to a fresh assignment of the same
    /// rows against the same centroids.
    pub fn with_centroids(
        matrix: &Matrix,
        norms: &[f32],
        centroids: Matrix,
        config: IvfConfig,
        threads: usize,
    ) -> Self {
        assert_eq!(norms.len(), matrix.rows(), "IvfIndex: norm cache length mismatch");
        assert_eq!(centroids.cols(), matrix.cols(), "IvfIndex: centroid dimension mismatch");
        assert!(centroids.rows() > 0, "IvfIndex: need at least one centroid");
        let rows = matrix.rows();
        let mut assignments = vec![0u32; rows];
        let threads = threads.clamp(1, rows.max(1));
        let chunk = rows.div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for (t, out) in assignments.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                let centroids = &centroids;
                s.spawn(move || {
                    for (j, slot) in out.iter_mut().enumerate() {
                        *slot = assign_row(matrix.row(start + j), norms[start + j], centroids);
                    }
                });
            }
        });
        Self::packed(matrix, norms, config, centroids, assignments)
    }

    /// Rebuild an index from the parts a persisted one was saved as — its
    /// config, centroids and per-row list assignments — over `matrix`,
    /// whose rows the lists pack. No k-means and no assignment pass run:
    /// the result is structurally identical to the saved index when
    /// `matrix` holds the rows it was saved over.
    ///
    /// The parts are checked first, and every failure is a typed
    /// [`IndexPartsError`]: the norms and assignments must have one entry
    /// per matrix row, the centroids the matrix's width and between one
    /// and `max(1, rows)` of them (what [`IvfIndex::build`] can train),
    /// every assignment must name a list, and every degenerate row (zero,
    /// `NaN` or `±inf` norm) must sit in list 0, where the assignment rule
    /// puts it.
    pub fn from_parts(
        matrix: &Matrix,
        norms: &[f32],
        config: IvfConfig,
        centroids: Matrix,
        assignments: Vec<u32>,
    ) -> Result<Self, IndexPartsError> {
        let rows = matrix.rows();
        if norms.len() != rows {
            return Err(IndexPartsError::NormCount { rows, norms: norms.len() });
        }
        if assignments.len() != rows {
            return Err(IndexPartsError::AssignmentCount { rows, assignments: assignments.len() });
        }
        if centroids.cols() != matrix.cols() {
            return Err(IndexPartsError::CentroidWidth {
                dim: matrix.cols(),
                centroids: centroids.cols(),
            });
        }
        let nlist = centroids.rows();
        if nlist == 0 || nlist > rows.max(1) {
            return Err(IndexPartsError::CentroidCount { rows, centroids: nlist });
        }
        for (row, (&list, &norm)) in assignments.iter().zip(norms).enumerate() {
            if list as usize >= nlist {
                return Err(IndexPartsError::ListOutOfRange { row, list, nlist });
            }
            if list != 0 && !usable(norm) {
                return Err(IndexPartsError::DegenerateRowListed { row, list });
            }
        }
        Ok(Self::packed(matrix, norms, config, centroids, assignments))
    }

    /// Group the rows by their (valid) assignments and pack each list's
    /// vectors and norms contiguously (probes stream, see the module
    /// docs): one counting pass sizes every list exactly, one pass over
    /// the rows in ascending order fills them, so lists come out
    /// ascending.
    fn packed(
        matrix: &Matrix,
        norms: &[f32],
        config: IvfConfig,
        centroids: Matrix,
        assignments: Vec<u32>,
    ) -> Self {
        let dim = matrix.cols();
        let mut sizes = vec![0usize; centroids.rows()];
        for &list in &assignments {
            sizes[list as usize] += 1;
        }
        let mut lists: Vec<Vec<u32>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut packed: Vec<Vec<f32>> =
            sizes.iter().map(|&n| Vec::with_capacity(n * dim)).collect();
        let mut packed_norms: Vec<Vec<f32>> =
            sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (id, &list) in assignments.iter().enumerate() {
            let l = list as usize;
            lists[l].push(id as u32);
            packed[l].extend_from_slice(matrix.row(id));
            packed_norms[l].push(norms[id]);
        }
        Self { config, dim, centroids, assignments, lists, packed, packed_norms }
    }

    /// The index after a delta refresh: rows in `dirty` (moved, re-solved,
    /// or freshly appended — the serving layer's `RefreshPlan::dirty_rows`)
    /// are re-assigned against the **frozen** centroids and their packed
    /// copies rewritten from the new matrix; every other row keeps its list
    /// and bytes. The patch itself is `O(|dirty| · nlist · dim)` (plus the
    /// `O(n · dim)` clone of the packed storage every published generation
    /// needs anyway — same follow-up as the snapshot's own buffer
    /// materializations, see ROADMAP).
    ///
    /// Pinned by `tests/ann_serving.rs`: the patched index is structurally
    /// identical to [`IvfIndex::with_centroids`] over the same rows, so
    /// coherence never decays across a refresh chain. (Recall against
    /// *retrained* centroids can — `EmbeddingService::refresh_full`
    /// rebuilds from scratch.)
    pub fn refreshed(&self, matrix: &Matrix, norms: &[f32], dirty: &[u32]) -> Self {
        assert_eq!(norms.len(), matrix.rows(), "IvfIndex: norm cache length mismatch");
        assert_eq!(matrix.cols(), self.dim, "IvfIndex::refreshed: dimension changed");
        assert!(
            matrix.rows() >= self.assignments.len(),
            "IvfIndex::refreshed: rows shrank ({} -> {}); rebuild instead",
            self.assignments.len(),
            matrix.rows()
        );
        let dim = self.dim;
        let mut out = self.clone();
        out.assignments.resize(matrix.rows(), u32::MAX);
        for &r in dirty {
            let id = r;
            let r = r as usize;
            assert!(r < out.assignments.len(), "IvfIndex::refreshed: dirty row out of range");
            let old = out.assignments[r];
            let new = assign_row(matrix.row(r), norms[r], &out.centroids);
            if old == new {
                // Same list — but a dirty row's values may have changed, so
                // its packed copy is rewritten in place.
                let at =
                    out.lists[old as usize].binary_search(&id).expect("assignments/lists agree");
                out.packed[old as usize][at * dim..(at + 1) * dim].copy_from_slice(matrix.row(r));
                out.packed_norms[old as usize][at] = norms[r];
                continue;
            }
            if old != u32::MAX {
                let at =
                    out.lists[old as usize].binary_search(&id).expect("assignments/lists agree");
                out.lists[old as usize].remove(at);
                out.packed[old as usize].drain(at * dim..(at + 1) * dim);
                out.packed_norms[old as usize].remove(at);
            }
            let at = out.lists[new as usize]
                .binary_search(&id)
                .expect_err("row not yet in its new list");
            out.lists[new as usize].insert(at, id);
            out.packed[new as usize].splice(at * dim..at * dim, matrix.row(r).iter().copied());
            out.packed_norms[new as usize].insert(at, norms[r]);
            out.assignments[r] = new;
        }
        debug_assert!(
            !out.assignments.contains(&u32::MAX),
            "appended rows must all be in the dirty set"
        );
        out
    }

    /// Approximate cosine top-`k`: rank the inverted lists by centroid
    /// similarity, take the best `probes`, then stream the shared exact
    /// scoring ([`top_k_cosine_blocks`]) over their packed members. Rows
    /// for which `exclude` returns `true` are skipped. Deterministic: list
    /// order breaks centroid-score ties by ascending list id, and the
    /// result depends only on the probed candidate set. Scores are against
    /// the rows the index was built / last refreshed from.
    ///
    /// # Panics
    /// Panics if `query`'s length differs from the indexed rows' width
    /// (unless `k` is 0 or the index is empty).
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        probes: usize,
        exclude: impl FnMut(usize) -> bool,
    ) -> Vec<(usize, f32)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Checked once per search, as the exact scan does: the per-row
        // `vector::dot` only debug-asserts, so a query of the wrong width
        // would otherwise be ranked on a truncated dot product.
        assert_eq!(query.len(), self.dim, "search_filtered: dimension mismatch");
        let probes = probes.clamp(1, self.nlist());
        let mut ranked: Vec<(f32, usize)> = (0..self.nlist())
            .map(|l| {
                let dot = vector::dot(self.centroids.row(l), query);
                // Degenerate centroid scores sort last, not randomly.
                (if dot.is_finite() { dot } else { f32::NEG_INFINITY }, l)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let blocks = ranked[..probes].iter().map(|&(_, l)| {
            (self.lists[l].as_slice(), self.packed[l].as_slice(), self.packed_norms[l].as_slice())
        });
        top_k_cosine_blocks(self.dim, query, k, blocks, exclude)
    }

    /// [`IvfIndex::search_filtered`] with no exclusions.
    pub fn search(&self, query: &[f32], k: usize, probes: usize) -> Vec<(usize, f32)> {
        self.search_filtered(query, k, probes, |_| false)
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.lists.len()
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The build configuration (nlist reflects the pre-clamp request; use
    /// [`IvfIndex::nlist`] for the actual list count).
    pub fn config(&self) -> &IvfConfig {
        &self.config
    }

    /// The default probe count for this index.
    pub fn default_probes(&self) -> usize {
        (self.nlist() / 8).max(1)
    }

    /// The trained centroids (`nlist × dim`).
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Row id → owning list.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// Member row ids of list `l`, ascending.
    pub fn list(&self, l: usize) -> &[u32] {
        &self.lists[l]
    }
}

/// A row is usable for training / meaningful assignment when its cached
/// norm is a positive finite number — the same predicate the shared
/// sanitize clamps on (`NaN` and `±inf` norms are non-finite; zero-norm
/// rows have no direction).
#[inline]
fn usable(norm: f32) -> bool {
    norm.is_finite() && norm > f32::EPSILON
}

/// Nearest-centroid assignment by raw dot product (row norms are positive
/// scalars, so the argmax equals the cosine argmax). Ties break toward the
/// lower centroid id; degenerate rows (zero-norm, `NaN`, `±inf`) always
/// land in list 0.
fn assign_row(row: &[f32], norm: f32, centroids: &Matrix) -> u32 {
    if !usable(norm) {
        return 0;
    }
    let mut best = f32::NEG_INFINITY;
    let mut at = 0u32;
    for l in 0..centroids.rows() {
        let dot = vector::dot(centroids.row(l), row);
        if dot.is_finite() && dot > best {
            best = dot;
            at = l as u32;
        }
    }
    at
}

/// Seeded spherical k-means over a strided sample of the usable rows.
/// Deterministic end to end: the stride offset is the only place the seed
/// enters, assignment ties break low, and empty clusters keep their
/// previous centroid.
fn train_centroids(matrix: &Matrix, norms: &[f32], config: &IvfConfig) -> Matrix {
    let dim = matrix.cols().max(1);
    let usable_ids: Vec<usize> = (0..matrix.rows()).filter(|&r| usable(norms[r])).collect();
    if usable_ids.is_empty() {
        // Nothing to train on: one catch-all list.
        return Matrix::zeros(1, dim);
    }
    let nlist = config.nlist.clamp(1, usable_ids.len());

    // Strided training sample of normalized rows. The seed rotates the
    // starting offset so distinct seeds see distinct samples, with no RNG
    // state anywhere in the build.
    let cap = config.sample_cap.max(nlist);
    let take = usable_ids.len().min(cap);
    let offset = (config.seed as usize) % usable_ids.len();
    let mut sample = Matrix::zeros(take, dim);
    for i in 0..take {
        let r = usable_ids[(offset + i * usable_ids.len() / take) % usable_ids.len()];
        sample.set_row(i, matrix.row(r));
        vector::normalize(sample.row_mut(i));
    }
    let sample_norms = vec![1.0f32; take];

    // Init: centroids strided across the sample.
    let mut centroids = Matrix::zeros(nlist, dim);
    for l in 0..nlist {
        centroids.set_row(l, sample.row(l * take / nlist));
    }

    // Lloyd refinement with cosine assignment and renormalized means.
    let mut sums = Matrix::zeros(nlist, dim);
    let mut counts = vec![0u32; nlist];
    for _ in 0..config.train_iters {
        sums.fill(0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, &norm) in sample_norms.iter().enumerate() {
            let l = assign_row(sample.row(i), norm, &centroids) as usize;
            vector::axpy(1.0, sample.row(i), sums.row_mut(l));
            counts[l] += 1;
        }
        for (l, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue; // empty cluster keeps its previous centroid
            }
            let mean = sums.row(l);
            if vector::norm(mean) > f32::EPSILON {
                centroids.set_row(l, mean);
                vector::normalize(centroids.row_mut(l));
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_embed::nn::top_k_cosine;

    /// Clustered rows: `n` points around `k` unit anchors plus noise — the
    /// shape retrofitted embeddings have (topics attract their values).
    fn clustered(n: usize, dim: usize, k: usize) -> Matrix {
        Matrix::from_fn(n, dim, |r, c| {
            let anchor = ((r % k) * dim + c) as f32;
            (anchor * 0.7).sin() + 0.15 * ((r * 31 + c * 17) as f32 * 0.13).cos()
        })
    }

    #[test]
    fn build_is_deterministic_and_partitions_every_row() {
        let m = clustered(250, 12, 7);
        let norms = m.row_norms();
        let a = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        let b = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.centroids().max_abs_diff(b.centroids()), 0.0);
        // Every row is in exactly one list, lists are ascending.
        let mut seen = vec![false; m.rows()];
        for l in 0..a.nlist() {
            let list = a.list(l);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "list {l} not ascending");
            for &id in list {
                assert!(!seen[id as usize], "row {id} in two lists");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "a row fell out of every list");
    }

    #[test]
    fn threads_do_not_change_the_build() {
        let m = clustered(300, 8, 5);
        let norms = m.row_norms();
        let serial = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        for threads in [2usize, 3, 8] {
            let parallel = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), threads);
            assert_eq!(serial.assignments(), parallel.assignments(), "{threads} threads");
        }
    }

    #[test]
    fn full_probe_reproduces_the_exact_oracle() {
        let m = clustered(220, 10, 6);
        let norms = m.row_norms();
        let index = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        for q in [0usize, 3, 57, 219] {
            let exact = top_k_cosine(&m, &norms, m.row(q), 10, 1, |_| false);
            let approx = index.search(m.row(q), 10, index.nlist());
            assert_eq!(approx, exact, "query row {q}");
        }
    }

    #[test]
    fn distinct_seeds_build_distinct_but_valid_indexes() {
        let m = clustered(200, 8, 6);
        let norms = m.row_norms();
        let a = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()).with_seed(1), 1);
        let b = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()).with_seed(2), 1);
        // Both must still reproduce the oracle at full probe depth.
        let exact = top_k_cosine(&m, &norms, m.row(5), 8, 1, |_| false);
        assert_eq!(a.search(m.row(5), 8, a.nlist()), exact);
        assert_eq!(b.search(m.row(5), 8, b.nlist()), exact);
    }

    #[test]
    fn degenerate_rows_land_in_list_zero_and_score_zero() {
        let mut m = clustered(60, 6, 4);
        m.row_mut(10).fill(0.0); // zero-norm
        m.row_mut(20)[0] = f32::NAN; // poisoned
        m.row_mut(30)[2] = f32::INFINITY; // poisoned
        let norms = m.row_norms();
        let index = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        for r in [10usize, 20, 30] {
            assert_eq!(index.assignments()[r], 0, "degenerate row {r}");
        }
        let top = index.search(m.row(1), m.rows(), index.nlist());
        assert!(top.iter().all(|&(_, s)| s.is_finite()));
        for &(id, s) in &top {
            if [10usize, 20, 30].contains(&id) {
                assert_eq!(s, 0.0, "degenerate row {id} must score 0.0");
            }
        }
        assert!(![10usize, 20, 30].contains(&top[0].0), "degenerate row surfaced on top");
    }

    #[test]
    fn search_excludes_and_clamps_probes() {
        let m = clustered(80, 6, 4);
        let norms = m.row_norms();
        let index = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        let top = index.search_filtered(m.row(7), 5, usize::MAX, |id| id == 7);
        assert!(top.iter().all(|&(id, _)| id != 7));
        assert_eq!(top.len(), 5);
        assert!(index.search(m.row(7), 0, 1).is_empty());
    }

    #[test]
    fn refreshed_patch_equals_fresh_assignment() {
        let mut m = clustered(120, 8, 5);
        let norms = m.row_norms();
        let config = IvfConfig::auto(m.rows());
        let index = IvfIndex::build(&m, &norms, config, 1);

        // Move two rows, append one.
        let mut rows: Vec<Vec<f32>> = (0..m.rows()).map(|r| m.row(r).to_vec()).collect();
        rows[17] = (0..8).map(|c| ((c * 3) as f32 * 0.9).cos()).collect();
        rows[63] = (0..8).map(|c| ((c * 5 + 1) as f32 * 0.4).sin()).collect();
        rows.push((0..8).map(|c| (c as f32 * 1.3).sin()).collect());
        m = Matrix::from_rows(&rows);
        let norms = m.row_norms();

        let patched = index.refreshed(&m, &norms, &[17, 63, 120]);
        let fresh = IvfIndex::with_centroids(&m, &norms, index.centroids().clone(), config, 1);
        assert_eq!(patched.assignments(), fresh.assignments());
        for l in 0..patched.nlist() {
            assert_eq!(patched.list(l), fresh.list(l), "list {l} diverged");
        }
        let q = m.row(17);
        assert_eq!(
            patched.search(q, 10, 3),
            fresh.search(q, 10, 3),
            "patched index answers diverged from a fresh assignment"
        );
    }

    /// Structural equality: config, centroid bits, assignments, every
    /// list, and the packed bytes as a full-depth probe reads them.
    fn assert_same_index(a: &IvfIndex, b: &IvfIndex, m: &Matrix) {
        fn bits(values: &[f32]) -> Vec<u32> {
            values.iter().map(|v| v.to_bits()).collect()
        }
        assert_eq!(a.config(), b.config());
        assert_eq!(bits(a.centroids().as_slice()), bits(b.centroids().as_slice()));
        assert_eq!(a.assignments(), b.assignments());
        assert_eq!(a.nlist(), b.nlist());
        for l in 0..a.nlist() {
            assert_eq!(a.list(l), b.list(l), "list {l}");
            assert_eq!(bits(&a.packed[l]), bits(&b.packed[l]), "packed list {l}");
            assert_eq!(bits(&a.packed_norms[l]), bits(&b.packed_norms[l]), "norms of list {l}");
        }
        for q in [0usize, 11, m.rows() - 1] {
            assert_eq!(a.search(m.row(q), 7, 2), b.search(m.row(q), 7, 2), "query row {q}");
        }
    }

    #[test]
    fn from_parts_equals_a_fresh_assignment() {
        let mut m = clustered(150, 8, 6);
        m.row_mut(4).fill(0.0);
        m.row_mut(9)[1] = f32::NAN;
        let norms = m.row_norms();
        let config = IvfConfig::auto(m.rows()).with_seed(3);
        let built = IvfIndex::build(&m, &norms, config, 2);
        let rebuilt = IvfIndex::from_parts(
            &m,
            &norms,
            config,
            built.centroids().clone(),
            built.assignments().to_vec(),
        )
        .unwrap();
        let fresh = IvfIndex::with_centroids(&m, &norms, built.centroids().clone(), config, 1);
        assert_same_index(&rebuilt, &fresh, &m);
        assert_same_index(&rebuilt, &built, &m);
    }

    #[test]
    fn from_parts_refuses_malformed_parts_typed() {
        let m = clustered(40, 6, 3);
        let norms = m.row_norms();
        let config = IvfConfig::auto(m.rows());
        let built = IvfIndex::build(&m, &norms, config, 1);
        let (centroids, assignments) = (built.centroids().clone(), built.assignments().to_vec());
        let parts = |norms: &[f32], centroids: Matrix, assignments: Vec<u32>| {
            IvfIndex::from_parts(&m, norms, config, centroids, assignments).unwrap_err()
        };
        assert_eq!(
            parts(&norms[1..], centroids.clone(), assignments.clone()),
            IndexPartsError::NormCount { rows: 40, norms: 39 }
        );
        assert_eq!(
            parts(&norms, centroids.clone(), assignments[..39].to_vec()),
            IndexPartsError::AssignmentCount { rows: 40, assignments: 39 }
        );
        assert_eq!(
            parts(&norms, Matrix::zeros(centroids.rows(), 5), assignments.clone()),
            IndexPartsError::CentroidWidth { dim: 6, centroids: 5 }
        );
        assert_eq!(
            parts(&norms, Matrix::zeros(0, 6), assignments.clone()),
            IndexPartsError::CentroidCount { rows: 40, centroids: 0 }
        );
        assert_eq!(
            parts(&norms, Matrix::zeros(41, 6), assignments.clone()),
            IndexPartsError::CentroidCount { rows: 40, centroids: 41 }
        );
        let nlist = centroids.rows();
        let mut out_of_range = assignments.clone();
        out_of_range[17] = nlist as u32;
        assert_eq!(
            parts(&norms, centroids.clone(), out_of_range),
            IndexPartsError::ListOutOfRange { row: 17, list: nlist as u32, nlist }
        );
        for bad in [0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut degenerate = norms.clone();
            degenerate[5] = bad;
            let mut listed = assignments.clone();
            listed[5] = 1;
            assert_eq!(
                parts(&degenerate, centroids.clone(), listed),
                IndexPartsError::DegenerateRowListed { row: 5, list: 1 },
                "norm {bad}"
            );
        }
    }

    #[test]
    fn tiny_inputs_do_not_panic() {
        let empty = Matrix::zeros(0, 4);
        let index = IvfIndex::build(&empty, &[], IvfConfig::auto(0), 1);
        assert!(index.is_empty());
        assert!(index.search(&[1.0, 0.0, 0.0, 0.0], 3, 1).is_empty());

        let one = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let norms = one.row_norms();
        let index = IvfIndex::build(&one, &norms, IvfConfig::auto(1), 1);
        assert_eq!(index.search(&[1.0, 2.0], 2, 5), vec![(0, 1.0)]);

        let zeros = Matrix::zeros(3, 2);
        let norms = zeros.row_norms();
        let index = IvfIndex::build(&zeros, &norms, IvfConfig::auto(3), 1);
        assert_eq!(index.nlist(), 1, "all-degenerate input gets one catch-all list");
        assert_eq!(index.len(), 3);
    }

    #[test]
    #[should_panic(expected = "search_filtered: dimension mismatch")]
    fn a_query_of_the_wrong_width_panics() {
        let m = clustered(40, 8, 3);
        let norms = m.row_norms();
        let index = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        index.search(&[1.0, 0.0, 0.0], 3, 2);
    }
}
