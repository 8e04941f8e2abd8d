//! Approximate nearest-neighbour serving: a deterministic IVF index over
//! 8-bit (SQ8) list codes, re-ranked exactly.
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
//! * **The exact scan is the recall oracle.** A probe ranks its survivors
//!   with [`retro_embed::nn::top_k_cosine_among`] — the same dot kernel,
//!   sanitize rules and selection as the exact path, over the rows the
//!   caller passes (the snapshot's own matrix) — so probing *every* list
//!   returns bit-for-bit the exact `top_k_cosine` ranking, and any recall
//!   loss at lower `probes` is purely from unprobed lists, never from
//!   scoring drift.
//! * **Codes stream, only survivors gather.** Each inverted list stores
//!   its members' SQ8 codes back to back — one byte per dimension, plus a
//!   row's `lo`/`scale` and a rounded-up bound on its reconstruction error
//!   (see `sq8`) — so scanning a probed list is sequential reads of a
//!   quarter of the `f32` bytes, scored by an integer kernel. Each
//!   candidate gets a rigorous interval around the score the exact path
//!   computes; every candidate whose upper end falls below the `k`-th
//!   largest lower end is dropped, and only the few survivors (about 50 of
//!   84k at TMDB @ Paper) are gathered from the matrix and re-ranked in
//!   `f32`. The result is the ranking an `f32` scan of the same lists gives,
//!   ids, score bits and tie order.
//! * **Degenerate rows never surface.** Zero-norm (OOV) and
//!   `NaN`/`±inf`-poisoned rows are assigned to list 0 and score exactly
//!   `0.0` through the shared sanitize, the same convention as the exact
//!   path.
//! * **Refreshes patch what changed, full rebuilds retrain.**
//!   [`IvfIndex::patched`] keeps the *frozen* centroids and visits only the
//!   dirty rows. A dirty row that moved by less than its stored assignment
//!   margin allows (read against the exact old rows, which the caller
//!   passes) skips the `nlist`-centroid scan (`O(dim)` instead of
//!   `O(nlist · dim)`); the rest are re-assigned. Inverted lists sit behind
//!   `Arc`s: a list with no dirty member and no arrival is shared with the
//!   previous index, and each touched list is rebuilt in one ascending
//!   pass. The result is pinned structurally identical to
//!   [`IvfIndex::with_centroids`] over the same rows. Centroids only
//!   retrain on a full build, where the solve already dominates.
//! * **Restarts encode, they don't retrain.** [`IvfIndex::from_parts`]
//!   rebuilds a persisted index from its config, centroids and per-row
//!   assignments over the recovered matrix — checked, then coded with the
//!   same helper [`IvfIndex::with_centroids`] uses — so a restarted
//!   service serves the index it saved.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use retro_embed::nn::top_k_cosine_among;
use retro_linalg::{vector, Matrix};

mod sq8;

use sq8::QueryImage;
pub use sq8::Sq8;

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

/// A deterministic IVF index over one matrix of row vectors.
///
/// Each inverted list keeps its members' SQ8 codes back to back (one byte
/// per dimension, [`Sq8`] parameters per row) and their norms, so a probe
/// streams `≈ probes/nlist` of the codes — `dim + 20` bytes a row, against
/// `4·dim` for the rows themselves — and gathers from the matrix only the
/// few candidates its score bounds cannot rule out. The matrix is not
/// copied: searches and patches take it from the caller, who must pass the
/// rows the index was built or last patched over.
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
/// assert_eq!(index.search(&m, m.row(7), 5, index.nlist()), exact);
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
    /// Row id → assignment margin, `NaN` where unknown. A known margin `m`
    /// of a row `x` in list `a` bounds the exact dot products:
    /// `c_a·x − c_l·x ≥ m − 2γ·max‖c‖·‖x‖ − 2·dim·2⁻¹⁵⁰` for every other
    /// list `l`, where `γ ≈ dim·2⁻²⁴` bounds the relative error of one
    /// `f32` dot. The assignment pass stores the computed lead over the
    /// runner-up centroid, which satisfies this; [`IvfIndex::patched`]
    /// keeps it true for rows it certifies (see [`patch_bound`]).
    margins: Vec<f32>,
    /// The inverted lists, shared between an index and the patched
    /// indexes that did not touch them.
    lists: Vec<Arc<InvertedList>>,
}

/// One inverted list: its member row ids, ascending, with their SQ8 codes
/// back to back, their code parameters and their L2 norms, all in member
/// order.
#[derive(Clone, Debug, Default)]
struct InvertedList {
    ids: Vec<u32>,
    codes: Vec<u8>,
    params: Vec<Sq8>,
    norms: Vec<f32>,
}

impl InvertedList {
    fn with_capacity(members: usize, dim: usize) -> Self {
        Self {
            ids: Vec::with_capacity(members),
            codes: Vec::with_capacity(members * dim),
            params: Vec::with_capacity(members),
            norms: Vec::with_capacity(members),
        }
    }

    /// Append row `id`, coding its bits.
    fn encode(&mut self, id: u32, row: &[f32], norm: f32) {
        self.ids.push(id);
        self.params.push(sq8::encode(row, &mut self.codes));
        self.norms.push(norm);
    }

    /// Append member `j` of `from`, coded as it is there.
    fn copy(&mut self, from: &Self, j: usize, dim: usize) {
        self.ids.push(from.ids[j]);
        self.codes.extend_from_slice(&from.codes[j * dim..(j + 1) * dim]);
        self.params.push(from.params[j]);
        self.norms.push(from.norms[j]);
    }

    /// Heap bytes of the list's contents.
    fn bytes(&self) -> usize {
        self.ids.len() * size_of::<u32>()
            + self.codes.len()
            + self.params.len() * size_of::<Sq8>()
            + self.norms.len() * size_of::<f32>()
    }
}

/// What one [`IvfIndex::patched`] call did. Every dirty row is either
/// certified or reassigned, and every list is either rebuilt or shared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PatchStats {
    /// Distinct dirty rows, appended rows included.
    pub dirty: usize,
    /// Dirty rows whose margin proved their list unchanged, so no
    /// centroid was scanned for them.
    pub certified: usize,
    /// Dirty rows assigned by a full nearest-centroid scan: appended rows,
    /// rows of unknown margin and rows that moved too far to certify.
    pub reassigned: usize,
    /// Previously indexed rows that now sit in a different list.
    pub moved: usize,
    /// Lists rebuilt because a member was dirty or a row arrived.
    pub lists_rebuilt: usize,
    /// Lists shared untouched with the previous index.
    pub lists_shared: usize,
}

impl IvfIndex {
    /// Train centroids on `matrix`'s rows (seeded spherical k-means over a
    /// strided sample), assign every row and code it. `norms` must be the
    /// matrix's cached row L2 norms ([`Matrix::row_norms`]); `threads`
    /// partitions the assignment and coding passes (bit-identical for every
    /// thread count — each row's assignment and code are independent).
    pub fn build(matrix: &Matrix, norms: &[f32], config: IvfConfig, threads: usize) -> Self {
        let centroids = train_centroids(matrix, norms, &config);
        Self::with_centroids(matrix, norms, centroids, config, threads)
    }

    /// Assign every row of `matrix` to its nearest of the given `centroids`
    /// — the second half of [`IvfIndex::build`], split out so tests can pin
    /// [`IvfIndex::patched`] equivalent to a fresh assignment of the same
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
        let mut assigned = vec![(0u32, f32::NAN); rows];
        let threads = threads.clamp(1, rows.max(1));
        let chunk = rows.div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for (t, out) in assigned.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                let centroids = &centroids;
                s.spawn(move || {
                    for (j, slot) in out.iter_mut().enumerate() {
                        *slot = assign_row(matrix.row(start + j), norms[start + j], centroids);
                    }
                });
            }
        });
        let (assignments, margins) = assigned.into_iter().unzip();
        Self::grouped(matrix, norms, config, centroids, assignments, margins, threads)
    }

    /// Rebuild an index from the parts a persisted one was saved as — its
    /// config, centroids and per-row list assignments — over `matrix`,
    /// whose rows the lists code. No k-means and no assignment pass run:
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
    ///
    /// The parts carry no assignment margins, so the first patch after a
    /// restart re-assigns each of its dirty rows in full.
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
        let margins = vec![f32::NAN; rows];
        Ok(Self::grouped(matrix, norms, config, centroids, assignments, margins, 1))
    }

    /// Group the rows by their (valid) assignments and code each list's
    /// members contiguously (codes stream, see the module docs). One
    /// counting pass sizes every list exactly, and the lists are allocated
    /// here, on the calling thread. Then each of `threads` workers codes
    /// the lists `l ≡ t (mod threads)`, in one ascending pass over the
    /// rows, so lists come out ascending.
    fn grouped(
        matrix: &Matrix,
        norms: &[f32],
        config: IvfConfig,
        centroids: Matrix,
        assignments: Vec<u32>,
        margins: Vec<f32>,
        threads: usize,
    ) -> Self {
        let dim = matrix.cols();
        let mut sizes = vec![0usize; centroids.rows()];
        for &list in &assignments {
            sizes[list as usize] += 1;
        }
        let mut lists: Vec<InvertedList> =
            sizes.iter().map(|&n| InvertedList::with_capacity(n, dim)).collect();
        let threads = threads.clamp(1, lists.len());
        let mut shares: Vec<Vec<&mut InvertedList>> = (0..threads).map(|_| Vec::new()).collect();
        for (l, list) in lists.iter_mut().enumerate() {
            shares[l % threads].push(list);
        }
        let code = |t: usize, mut share: Vec<&mut InvertedList>| {
            for (id, &list) in assignments.iter().enumerate() {
                if list as usize % threads == t {
                    let list = &mut share[list as usize / threads];
                    list.encode(id as u32, matrix.row(id), norms[id]);
                }
            }
        };
        std::thread::scope(|s| {
            let mut shares = shares.into_iter().enumerate();
            let first = shares.next();
            for (t, share) in shares {
                s.spawn(move || code(t, share));
            }
            // The calling thread codes the first share itself.
            if let Some((t, share)) = first {
                code(t, share);
            }
        });
        let lists = lists.into_iter().map(Arc::new).collect();
        Self { config, dim, centroids, assignments, margins, lists }
    }

    /// The index after a delta refresh, and what the patch did. `old` is
    /// the matrix `self` was built or last patched over; `matrix` is the
    /// new one, which keeps every old row's position and may append rows.
    /// Rows in `dirty` (moved, re-solved, or freshly appended — the serving
    /// layer's `RefreshPlan::dirty_rows`) are placed against the **frozen**
    /// centroids and coded afresh from `matrix`; every other row keeps its
    /// list and its code bytes.
    ///
    /// A dirty row whose old and new bits differ by less than its stored
    /// margin allows (`patch_bound`, reading the exact bits of both
    /// matrices) keeps its list without a centroid scan; every other dirty
    /// row — appended, of unknown margin (after [`IvfIndex::from_parts`],
    /// degenerate before or after, or under a non-finite centroid), or
    /// moved too far — takes the full nearest-centroid scan, split over
    /// `threads`. Lists with no dirty
    /// member and no arrival are shared with `self`; each other list is
    /// rebuilt in one ascending merge of its kept members and its
    /// arrivals. The cost is `O(|dirty| · dim)` for the certificates and
    /// the codes, `O(reassigned · nlist · dim)` for the scans and one copy
    /// of the touched lists' codes — nothing is paid for untouched lists.
    ///
    /// Pinned by `tests/ann_serving.rs`: the patched index is structurally
    /// identical to [`IvfIndex::with_centroids`] over the same rows, for
    /// every thread count, so coherence never decays across a refresh
    /// chain. (Recall against *retrained* centroids can —
    /// `EmbeddingService::refresh_full` rebuilds from scratch.)
    pub fn patched(
        &self,
        old: &Matrix,
        matrix: &Matrix,
        norms: &[f32],
        dirty: &[u32],
        threads: usize,
    ) -> (Self, PatchStats) {
        assert_eq!(norms.len(), matrix.rows(), "IvfIndex: norm cache length mismatch");
        assert_eq!(matrix.cols(), self.dim, "IvfIndex::patched: dimension changed");
        let (old_rows, rows, nlist) = (self.assignments.len(), matrix.rows(), self.nlist());
        assert_eq!(
            (old.rows(), old.cols()),
            (old_rows, self.dim),
            "IvfIndex::patched: old rows are not the indexed matrix"
        );
        assert!(
            rows >= old_rows,
            "IvfIndex::patched: rows shrank ({old_rows} -> {rows}); rebuild instead"
        );
        let mut dirty = dirty.to_vec();
        if !dirty.is_sorted_by(|a, b| a < b) {
            dirty.sort_unstable();
            dirty.dedup();
        }
        assert!(
            dirty.last().is_none_or(|&r| (r as usize) < rows),
            "IvfIndex::patched: dirty row out of range"
        );

        // Place every dirty row: a certificate where its margin allows,
        // the full scan otherwise. Rows are independent, so the split over
        // threads changes nothing.
        let c_max = max_norm(&self.centroids);
        let mut placed = vec![Placement::default(); dirty.len()];
        let chunk = dirty.len().div_ceil(threads.clamp(1, dirty.len().max(1))).max(1);
        std::thread::scope(|s| {
            for (ids, out) in dirty.chunks(chunk).zip(placed.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (&id, slot) in ids.iter().zip(out) {
                        *slot = self.place(id, old, matrix, norms, c_max);
                    }
                });
            }
        });

        let mut stats = PatchStats { dirty: dirty.len(), ..PatchStats::default() };
        let mut assignments = self.assignments.clone();
        assignments.resize(rows, u32::MAX);
        let mut margins = self.margins.clone();
        margins.resize(rows, f32::NAN);
        let mut touched = vec![false; nlist];
        let mut arrivals: Vec<Vec<u32>> = vec![Vec::new(); nlist];
        for (&id, p) in dirty.iter().zip(&placed) {
            let r = id as usize;
            if p.certified {
                stats.certified += 1;
            } else {
                stats.reassigned += 1;
            }
            let old = assignments[r];
            if old != u32::MAX {
                touched[old as usize] = true;
            }
            if old != p.list {
                stats.moved += usize::from(old != u32::MAX);
                arrivals[p.list as usize].push(id);
                touched[p.list as usize] = true;
            }
            assignments[r] = p.list;
            margins[r] = p.margin;
        }
        debug_assert!(
            !assignments.contains(&u32::MAX),
            "appended rows must all be in the dirty set"
        );

        let is_dirty = {
            let mut bits = vec![false; rows];
            dirty.iter().for_each(|&r| bits[r as usize] = true);
            bits
        };
        // Rebuild each touched list in one ascending merge of its kept
        // members (codes copied, or coded afresh when dirty) and its
        // arrivals. Lists are independent, so `threads` workers take every
        // `threads`-th touched list, the calling thread the first share.
        let rebuild = |l: usize| {
            let prior = &self.lists[l];
            let (kept, incoming) = (&prior.ids, &arrivals[l]);
            let size = kept.iter().filter(|&&id| assignments[id as usize] as usize == l).count();
            let mut list = InvertedList::with_capacity(size + incoming.len(), self.dim);
            let (mut i, mut j) = (0, 0);
            while i < kept.len() || j < incoming.len() {
                if j == incoming.len() || (i < kept.len() && kept[i] < incoming[j]) {
                    let id = kept[i];
                    if assignments[id as usize] as usize == l {
                        if is_dirty[id as usize] {
                            list.encode(id, matrix.row(id as usize), norms[id as usize]);
                        } else {
                            list.copy(prior, i, self.dim);
                        }
                    }
                    i += 1;
                } else {
                    let id = incoming[j];
                    list.encode(id, matrix.row(id as usize), norms[id as usize]);
                    j += 1;
                }
            }
            (l, Arc::new(list))
        };
        let rebuilt: Vec<usize> = (0..nlist).filter(|&l| touched[l]).collect();
        let workers = threads.clamp(1, rebuilt.len().max(1));
        let share = |t: usize| rebuilt.iter().skip(t).step_by(workers).map(|&l| rebuild(l));
        let mut lists: Vec<Arc<InvertedList>> = self.lists.clone();
        std::thread::scope(|s| {
            let others: Vec<_> =
                (1..workers).map(|t| s.spawn(move || share(t).collect::<Vec<_>>())).collect();
            let mine: Vec<_> = share(0).collect();
            let theirs = others.into_iter().flat_map(|w| w.join().expect("a list worker panicked"));
            for (l, list) in mine.into_iter().chain(theirs) {
                lists[l] = list;
            }
        });
        stats.lists_rebuilt = rebuilt.len();
        stats.lists_shared = nlist - rebuilt.len();
        let index = Self {
            config: self.config,
            dim: self.dim,
            centroids: self.centroids.clone(),
            assignments,
            margins,
            lists,
        };
        (index, stats)
    }

    /// Where dirty row `id` goes in the patched index: kept in its list by
    /// the margin certificate when it applies, else the full scan.
    fn place(
        &self,
        id: u32,
        old: &Matrix,
        matrix: &Matrix,
        norms: &[f32],
        c_max: f64,
    ) -> Placement {
        let r = id as usize;
        let (row, norm) = (matrix.row(r), norms[r]);
        if r < self.assignments.len() && usable(norm) {
            let list = self.assignments[r];
            if let Some(margin) = patch_bound(self.margins[r], old.row(r), row, c_max) {
                return Placement { list, margin, certified: true };
            }
        }
        let (list, margin) = assign_row(row, norm, &self.centroids);
        Placement { list, margin, certified: false }
    }

    /// Approximate cosine top-`k`: rank the inverted lists by centroid
    /// similarity, take the best `probes`, score their members' codes with
    /// the integer kernel, and re-rank the candidates the score bounds
    /// cannot rule out with the shared exact scoring
    /// ([`top_k_cosine_among`]) over `rows`. Rows for which `exclude`
    /// returns `true` are skipped. Deterministic: list order breaks
    /// centroid-score ties by ascending list id, and the result is exactly
    /// the exact ranking restricted to the probed lists' members.
    ///
    /// `rows` must be the matrix the index was built or last patched over
    /// (a snapshot passes its own embeddings).
    ///
    /// # Panics
    /// Panics if `query`'s length differs from the indexed rows' width, or
    /// `rows` is not the indexed matrix's shape (unless `k` is 0 or the
    /// index is empty).
    pub fn search_filtered(
        &self,
        rows: &Matrix,
        query: &[f32],
        k: usize,
        probes: usize,
        mut exclude: impl FnMut(usize) -> bool,
    ) -> Vec<(usize, f32)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        // Checked once per search, as the exact scan does: the per-row
        // `vector::dot` only debug-asserts, so a query of the wrong width
        // would otherwise be ranked on a truncated dot product.
        assert_eq!(query.len(), self.dim, "search_filtered: dimension mismatch");
        assert_eq!(
            (rows.rows(), rows.cols()),
            (self.len(), self.dim),
            "search_filtered: rows are not the indexed matrix"
        );
        let probes = probes.clamp(1, self.nlist());
        let mut ranked: Vec<(f32, usize)> = (0..self.nlist())
            .map(|l| {
                let dot = vector::dot(self.centroids.row(l), query);
                // Degenerate centroid scores sort last, not randomly.
                (if dot.is_finite() { dot } else { f32::NEG_INFINITY }, l)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let probed: Vec<&InvertedList> =
            ranked[..probes].iter().map(|&(_, l)| &*self.lists[l]).collect();
        let candidates: usize = probed.iter().map(|list| list.ids.len()).sum();
        let survivors = match QueryImage::new(query) {
            Some(image) if k < candidates => self.survivors(&image, &probed, k, &mut exclude),
            // Nothing to prune: every candidate is re-ranked.
            _ => probed
                .iter()
                .flat_map(|list| {
                    list.ids.iter().map(|&id| id as usize).zip(list.norms.iter().copied())
                })
                .filter(|&(id, _)| !exclude(id))
                .collect(),
        };
        top_k_cosine_among(rows, query, k, survivors)
    }

    /// The candidates of the `probed` lists that may rank in the top `k`,
    /// as `(row id, norm)`: every candidate whose score bound's upper end
    /// reaches the `k`-th largest lower end. Any candidate below it is
    /// beaten outright by `k` others, so the exact top `k` all survive.
    fn survivors(
        &self,
        image: &QueryImage,
        probed: &[&InvertedList],
        k: usize,
        exclude: &mut impl FnMut(usize) -> bool,
    ) -> Vec<(usize, f32)> {
        // The `k` largest lower ends so far; `floor` is the least of them
        // once there are `k`, and only rises.
        let mut lowers: BinaryHeap<Reverse<Bound>> = BinaryHeap::with_capacity(k + 1);
        let mut floor = f64::NEG_INFINITY;
        let mut kept: Vec<(usize, f32, f64)> = Vec::new();
        let (mut dots, mut ranges) = (Vec::new(), Vec::new());
        for list in probed {
            dots.clear();
            image.code_dots(&list.codes, &mut dots);
            // A pass of its own, so the compiler vectorizes it.
            ranges.clear();
            let coded = dots.iter().zip(&list.params).zip(&list.norms);
            ranges.extend(coded.map(|((&dot, &params), &norm)| image.bounds(dot, params, norm)));
            for ((&id, &norm), &(lower, upper)) in list.ids.iter().zip(&list.norms).zip(&ranges) {
                if upper < floor || exclude(id as usize) {
                    continue;
                }
                kept.push((id as usize, norm, upper));
                if lowers.len() < k {
                    lowers.push(Reverse(Bound(lower)));
                } else if lower > floor {
                    lowers.pop();
                    lowers.push(Reverse(Bound(lower)));
                }
                if lowers.len() == k {
                    floor = lowers.peek().expect("k > 0 lower ends").0 .0;
                }
            }
        }
        kept.into_iter()
            .filter(|&(_, _, upper)| upper >= floor)
            .map(|(id, norm, _)| (id, norm))
            .collect()
    }

    /// [`IvfIndex::search_filtered`] with no exclusions.
    pub fn search(
        &self,
        rows: &Matrix,
        query: &[f32],
        k: usize,
        probes: usize,
    ) -> Vec<(usize, f32)> {
        self.search_filtered(rows, query, k, probes, |_| false)
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
        &self.lists[l].ids
    }

    /// The SQ8 codes of list `l`'s members, `dim` bytes each, back to back
    /// in member order.
    pub fn list_codes(&self, l: usize) -> &[u8] {
        &self.lists[l].codes
    }

    /// The code parameters of list `l`'s members, in member order.
    pub fn list_params(&self, l: usize) -> &[Sq8] {
        &self.lists[l].params
    }

    /// The L2 norms of list `l`'s members, in member order.
    pub fn list_norms(&self, l: usize) -> &[f32] {
        &self.lists[l].norms
    }

    /// The index's heap bytes: every list's codes, ids, code parameters
    /// and norms (shared lists counted in full), plus the centroids, the
    /// assignments and the margins. `rows · (dim + 28) + 4 · nlist · dim`
    /// in all; the rows themselves are not held.
    pub fn bytes(&self) -> usize {
        let lists: usize = self.lists.iter().map(|list| list.bytes()).sum();
        lists
            + size_of_val(self.centroids.as_slice())
            + size_of_val(self.assignments.as_slice())
            + size_of_val(self.margins.as_slice())
    }
}

/// A score bound, ordered by [`f64::total_cmp`] (bounds are never `NaN`).
#[derive(Clone, Copy, Debug)]
struct Bound(f64);

impl Ord for Bound {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for Bound {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Bound {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for Bound {}

/// Where [`IvfIndex::patched`] puts one dirty row.
#[derive(Clone, Copy, Debug)]
struct Placement {
    list: u32,
    margin: f32,
    /// True when the margin certificate kept the row's list.
    certified: bool,
}

impl Default for Placement {
    fn default() -> Self {
        Self { list: 0, margin: f32::NAN, certified: false }
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
/// scalars, so the argmax equals the cosine argmax), with the row's
/// margin. Ties break toward the lower centroid id; degenerate rows
/// (zero-norm, `NaN`, `±inf`) always land in list 0.
///
/// The margin is the best dot's lead over the runner-up, rounded down
/// (`+inf` with one centroid, `0` on a tie). It is `NaN` — unknown — for a
/// degenerate row and whenever a dot is non-finite (a non-finite centroid
/// or an overflow), where the `f32` error bound behind [`patch_bound`]
/// does not hold.
fn assign_row(row: &[f32], norm: f32, centroids: &Matrix) -> (u32, f32) {
    if !usable(norm) {
        return (0, f32::NAN);
    }
    let (mut best, mut runner_up) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
    let (mut at, mut finite) = (0u32, true);
    for l in 0..centroids.rows() {
        let dot = vector::dot(centroids.row(l), row);
        if !dot.is_finite() {
            finite = false;
        } else if dot > best {
            runner_up = best;
            best = dot;
            at = l as u32;
        } else if dot > runner_up {
            runner_up = dot;
        }
    }
    let margin = if finite && best.is_finite() {
        round_down(f64::from(best) - f64::from(runner_up))
    } else {
        f32::NAN
    };
    (at, margin)
}

/// The largest centroid L2 norm, in `f64`; non-finite when a centroid is.
fn max_norm(centroids: &Matrix) -> f64 {
    (0..centroids.rows())
        .map(|l| centroids.row(l).iter().map(|&v| f64::from(v) * f64::from(v)).sum::<f64>().sqrt())
        .fold(0.0, |max, n| if n > max || n.is_nan() { n } else { max })
}

/// The margin certificate of one dirty row: `Some(carried margin)` when
/// the row, moving from bits `old` to bits `new` against centroids of
/// largest norm `c_max`, provably keeps the list the full scan would give
/// it; `None` when it must be re-assigned.
///
/// Write `x = old`, `x′ = new`, `d = ‖x′ − x‖` and let `a` be the row's
/// list. Exactly, `c·x′ = c·x + c·(x′ − x)`, so every lead `c_a·x − c_l·x`
/// shrinks by at most `2·d·max‖c‖`. Each `f32` dot of `dim` products,
/// summed in any order, lies within `γ·‖c‖·‖x‖ + dim·2⁻¹⁵⁰` of the exact
/// one, with `γ = dim·2⁻²⁴/(1 − dim·2⁻²⁴)` (the second term covers
/// products that underflow). Chaining the invariant of the stored margin
/// `m` (see `IvfIndex::margins`) through the move and through the two
/// computed dots at `x′`, the computed `c_a·x′` strictly beats every
/// other computed dot — so the scan would pick `a` whatever the tie rule
/// — whenever
///
/// `m > 2·d·max‖c‖ + 2γ·max‖c‖·(‖x‖ + ‖x′‖) + 4·dim·2⁻¹⁵⁰`.
///
/// The slack used below, `4·(dim + 2)·(ε·max‖c‖·(‖x‖ + ‖x′‖) + 2⁻¹⁴⁹)` with
/// `ε = 2⁻²³`, is more than twice that error term; the surplus absorbs
/// the `f64` rounding of `d`, the norms and the bound itself. `d`, `‖x‖`
/// and `‖x′‖` are computed in `f64` from the exact bits. The carried
/// margin `m − bound`, rounded down, satisfies the invariant at `x′`, so
/// certificates chain. A row whose dots could overflow `f32` is never
/// certified.
fn patch_bound(margin: f32, old: &[f32], new: &[f32], c_max: f64) -> Option<f32> {
    let (mut moved, mut old_sq, mut new_sq) = (0.0f64, 0.0f64, 0.0f64);
    for (&x, &y) in old.iter().zip(new) {
        let (x, y) = (f64::from(x), f64::from(y));
        moved += (y - x) * (y - x);
        old_sq += x * x;
        new_sq += y * y;
    }
    let (d, norm_old, norm_new) = (moved.sqrt(), old_sq.sqrt(), new_sq.sqrt());
    // False, too, for a non-finite centroid: its `c_max` is `inf` or `NaN`.
    let dots_fit = c_max * norm_new < f64::from(f32::MAX) / 2.0;
    if !dots_fit {
        return None;
    }
    let tiny = f64::from(f32::from_bits(1)); // 2⁻¹⁴⁹, the least subnormal
    let slack = 4.0
        * (old.len() + 2) as f64
        * (f64::from(f32::EPSILON) * c_max * (norm_old + norm_new) + tiny);
    let bound = 2.0 * d * c_max + slack;
    let margin = f64::from(margin);
    (margin > bound).then(|| round_down(margin - bound))
}

/// `v` rounded toward `-inf` to an `f32` (`+inf` stays `+inf`).
fn round_down(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) > v {
        f.next_down()
    } else {
        f
    }
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
            let l = assign_row(sample.row(i), norm, &centroids).0 as usize;
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
            let approx = index.search(&m, m.row(q), 10, index.nlist());
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
        assert_eq!(a.search(&m, m.row(5), 8, a.nlist()), exact);
        assert_eq!(b.search(&m, m.row(5), 8, b.nlist()), exact);
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
        let top = index.search(&m, m.row(1), m.rows(), index.nlist());
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
        let top = index.search_filtered(&m, m.row(7), 5, usize::MAX, |id| id == 7);
        assert!(top.iter().all(|&(id, _)| id != 7));
        assert_eq!(top.len(), 5);
        assert!(index.search(&m, m.row(7), 0, 1).is_empty());
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
        let old = std::mem::replace(&mut m, Matrix::from_rows(&rows));
        let norms = m.row_norms();

        let patched = index.patched(&old, &m, &norms, &[17, 63, 120], 1).0;
        let fresh = IvfIndex::with_centroids(&m, &norms, index.centroids().clone(), config, 1);
        assert_eq!(patched.assignments(), fresh.assignments());
        for l in 0..patched.nlist() {
            assert_eq!(patched.list(l), fresh.list(l), "list {l} diverged");
        }
        let q = m.row(17);
        assert_eq!(
            patched.search(&m, q, 10, 3),
            fresh.search(&m, q, 10, 3),
            "patched index answers diverged from a fresh assignment"
        );
    }

    #[test]
    fn patch_certifies_small_moves_and_shares_untouched_lists() {
        let m = clustered(400, 8, 6);
        let norms = m.row_norms();
        let config = IvfConfig::auto(m.rows()).with_nlist(8);
        let index = IvfIndex::build(&m, &norms, config, 1);

        // Nudge the rows of one list, move one row far, append one.
        let (nudged, far) = (index.list(3).to_vec(), index.list(5)[0]);
        let mut rows: Vec<Vec<f32>> = (0..m.rows()).map(|r| m.row(r).to_vec()).collect();
        for &id in &nudged {
            rows[id as usize][0] += 1e-4;
        }
        rows[far as usize] = rows[index.list(6)[0] as usize].iter().map(|v| -v).collect();
        rows.push(m.row(0).to_vec());
        let next = Matrix::from_rows(&rows);
        let norms = next.row_norms();
        let mut dirty: Vec<u32> = nudged.clone();
        dirty.extend([far, 400]);
        dirty.sort_unstable();

        for threads in [1, 3] {
            let (patched, stats) = index.patched(&m, &next, &norms, &dirty, threads);
            assert_eq!(stats.dirty, dirty.len());
            assert_eq!(stats.certified + stats.reassigned, stats.dirty, "{stats:?}");
            assert_eq!(stats.lists_rebuilt + stats.lists_shared, index.nlist(), "{stats:?}");
            assert!(stats.certified >= nudged.len() * 9 / 10, "{stats:?}");
            let shares = |l: usize| Arc::ptr_eq(&patched.lists[l], &index.lists[l]);
            assert_eq!((0..index.nlist()).filter(|&l| shares(l)).count(), stats.lists_shared);
            assert!(!shares(3), "a list with dirty members is rebuilt");
            let fresh =
                IvfIndex::with_centroids(&next, &norms, index.centroids().clone(), config, 1);
            assert_same_index(&patched, &fresh, &next);
        }
    }

    /// Structural equality: config, centroid bits, assignments, every
    /// list, and the coded bytes as a full-depth probe reads them.
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
            assert_eq!(a.list_codes(l), b.list_codes(l), "codes of list {l}");
            let params = |index: &IvfIndex| -> Vec<[u32; 3]> {
                let p = index.list_params(l);
                p.iter().map(|p| [p.lo, p.scale, p.err].map(f32::to_bits)).collect()
            };
            assert_eq!(params(a), params(b), "code parameters of list {l}");
            assert_eq!(bits(a.list_norms(l)), bits(b.list_norms(l)), "norms of list {l}");
        }
        for q in [0usize, 11, m.rows() - 1] {
            assert_eq!(a.search(m, m.row(q), 7, 2), b.search(m, m.row(q), 7, 2), "query row {q}");
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
        assert!(index.search(&empty, &[1.0, 0.0, 0.0, 0.0], 3, 1).is_empty());

        let one = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let norms = one.row_norms();
        let index = IvfIndex::build(&one, &norms, IvfConfig::auto(1), 1);
        assert_eq!(index.search(&one, &[1.0, 2.0], 2, 5), vec![(0, 1.0)]);

        let zeros = Matrix::zeros(3, 2);
        let norms = zeros.row_norms();
        let index = IvfIndex::build(&zeros, &norms, IvfConfig::auto(3), 1);
        assert_eq!(index.nlist(), 1, "all-degenerate input gets one catch-all list");
        assert_eq!(index.len(), 3);
    }

    #[test]
    fn bytes_follow_their_formula() {
        let m = clustered(333, 12, 5);
        let norms = m.row_norms();
        let index = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()).with_nlist(6), 2);
        let (rows, dim, nlist) = (m.rows(), m.cols(), index.nlist());
        // Per row: `dim` code bytes, a u32 id, three f32 code parameters,
        // an f32 norm, a u32 assignment and an f32 margin.
        assert_eq!(index.bytes(), rows * (dim + 28) + 4 * nlist * dim);
        assert!(index.bytes() < 4 * rows * dim, "the codes cost less than the f32 rows");
    }

    #[test]
    #[should_panic(expected = "search_filtered: dimension mismatch")]
    fn a_query_of_the_wrong_width_panics() {
        let m = clustered(40, 8, 3);
        let norms = m.row_norms();
        let index = IvfIndex::build(&m, &norms, IvfConfig::auto(m.rows()), 1);
        index.search(&m, &[1.0, 0.0, 0.0], 3, 2);
    }
}
