//! The shared cosine top-`k` selection every nearest-neighbour path runs.
//!
//! [`EmbeddingSet::nearest`](crate::EmbeddingSet::nearest),
//! `RetroOutput::nearest` and the serving layer's snapshot queries all used
//! to rank *every* row with a full `O(n log n)` sort ordered by
//! `partial_cmp(..).unwrap_or(Equal)`. Zero-norm (OOV) rows were safe —
//! [`retro_linalg::vector::cosine`] already clamps them to `0.0` — but a
//! row *containing* `NaN`/`±inf` (a poisoned solve, a corrupt import)
//! produced a `NaN` score that compared `Equal` to everything, so its
//! final rank depended on where the sort happened to leave it, and it
//! could surface as the "top" neighbour.
//!
//! [`top_k_cosine`] replaces all of them with one `O(n log k)` bounded-heap
//! selection over a dot-product scan:
//!
//! * **Scores are never `NaN`.** A zero-norm row (or query) scores exactly
//!   `0.0` — the [`retro_linalg::vector::cosine`] convention — and any
//!   non-finite score is clamped to `0.0`, so degenerate rows sort with
//!   the other "no signal" rows instead of surfacing as the top
//!   neighbour.
//! * **Ordering is total and deterministic**: descending score
//!   ([`f32::total_cmp`]), ties broken by ascending row id. Equal inputs
//!   produce bit-equal rankings on every run and every thread count.
//! * **The scan is the hot loop.** Row norms are precomputed once per
//!   matrix ([`retro_linalg::Matrix::row_norms`]) by every caller that can
//!   cache them, so each query costs one chunked
//!   [`dot_scan`](retro_linalg::Matrix::dot_scan) (row-partitioned across
//!   `threads`) plus a single pass of divisions — no per-row `sqrt`, no
//!   full sort.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use retro_linalg::{vector, Matrix};

/// A scored candidate with the shared total order: higher score wins, ties
/// go to the lower row id.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    score: f32,
    id: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Scores are sanitized to finite values before construction, so
        // `total_cmp` agrees with the usual `<` on everything we ever
        // compare; it is used to make the order total by construction.
        self.score.total_cmp(&other.score).then_with(|| other.id.cmp(&self.id))
    }
}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}

/// Sanitize a raw cosine score: zero-norm rows and non-finite values score
/// `0.0` so they can never outrank a real neighbour (and never compare
/// nondeterministically).
#[inline]
fn sanitize(dot: f32, query_norm: f32, row_norm: f32) -> f32 {
    if query_norm <= f32::EPSILON || row_norm <= f32::EPSILON {
        return 0.0;
    }
    let score = dot / (query_norm * row_norm);
    if score.is_finite() {
        score
    } else {
        0.0
    }
}

/// The `k` rows of `matrix` most cosine-similar to `query`, as
/// `(row id, score)` pairs in descending score order (ties by ascending
/// id). Rows for which `exclude` returns `true` are skipped.
///
/// `norms` must be the matrix's row L2 norms
/// ([`Matrix::row_norms`]); callers that query repeatedly cache it.
/// `threads` partitions the dot-product scan; the result is bit-identical
/// for every thread count.
///
/// ```
/// use retro_embed::nn::top_k_cosine;
/// use retro_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[
///     vec![1.0, 0.0],
///     vec![0.0, 0.0], // zero-norm row: scores 0.0, never the top hit
///     vec![0.7, 0.7],
/// ]);
/// let norms = m.row_norms();
/// let top = top_k_cosine(&m, &norms, &[1.0, 0.1], 2, 1, |_| false);
/// assert_eq!(top[0].0, 0);
/// assert_eq!(top[1].0, 2);
/// ```
pub fn top_k_cosine(
    matrix: &Matrix,
    norms: &[f32],
    query: &[f32],
    k: usize,
    threads: usize,
    mut exclude: impl FnMut(usize) -> bool,
) -> Vec<(usize, f32)> {
    assert_eq!(norms.len(), matrix.rows(), "top_k_cosine: norm cache length mismatch");
    if k == 0 || matrix.rows() == 0 {
        return Vec::new();
    }
    let query_norm = vector::norm(query);
    let dots = matrix.dot_scan(query, threads);
    select_top_k(
        dots.iter().enumerate().filter(|&(id, _)| !exclude(id)).map(|(id, &dot)| (id, dot)),
        query_norm,
        norms,
        k,
        matrix.rows(),
    )
}

/// [`top_k_cosine`] restricted to an explicit candidate id set — the
/// scoring phase of an ANN probe (`retro_nn::ann`), and the reason the
/// approximate path can never disagree with the exact one on a shared
/// candidate: both run this exact sanitize + total order, and each
/// candidate's dot product is the same chunked [`retro_linalg::vector::dot`]
/// kernel [`Matrix::dot_scan`] applies per row, so scores are bit-equal.
///
/// The result depends only on the candidate *set* (the bounded heap keeps
/// the k best under a total order), so callers may stream ids in any order;
/// duplicate ids must not be passed. Ids must be in range.
///
/// ```
/// use retro_embed::nn::{top_k_cosine, top_k_cosine_among};
/// use retro_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![0.7, 0.7]]);
/// let norms = m.row_norms();
/// // Over all ids, the subset selection IS the exact scan.
/// assert_eq!(
///     top_k_cosine_among(&m, &norms, &[1.0, 0.1], 2, 0..3),
///     top_k_cosine(&m, &norms, &[1.0, 0.1], 2, 1, |_| false),
/// );
/// ```
pub fn top_k_cosine_among(
    matrix: &Matrix,
    norms: &[f32],
    query: &[f32],
    k: usize,
    candidates: impl IntoIterator<Item = usize>,
) -> Vec<(usize, f32)> {
    assert_eq!(norms.len(), matrix.rows(), "top_k_cosine_among: norm cache length mismatch");
    if k == 0 || matrix.rows() == 0 {
        return Vec::new();
    }
    let query_norm = vector::norm(query);
    // Ids are distinct and in range, so there are at most `rows` of them.
    select_top_k(
        candidates.into_iter().map(|id| (id, vector::dot(matrix.row(id), query))),
        query_norm,
        norms,
        k,
        matrix.rows(),
    )
}

/// [`top_k_cosine_among`] over *packed* candidate blocks — the scoring
/// phase of a cache-friendly ANN probe. Each block is `(ids, rows, norms)`
/// where `rows` holds `ids.len()` vectors of `dim` floats back to back and
/// `norms[j]` is the L2 norm of row `ids[j]`; blocks are scanned
/// sequentially, so an inverted list stored contiguously costs streaming
/// reads instead of an `O(candidates)` gather across the full matrix.
///
/// Scores are bit-equal to [`top_k_cosine`] / [`top_k_cosine_among`] on
/// the same candidate set as long as the packed bytes equal the matrix
/// rows: same chunked [`retro_linalg::vector::dot`] kernel, same sanitize,
/// same total order. Rows for which `exclude` returns `true` are skipped
/// (their dot product is never computed). Duplicate ids must not appear
/// across blocks.
pub fn top_k_cosine_blocks<'a>(
    dim: usize,
    query: &[f32],
    k: usize,
    blocks: impl IntoIterator<Item = (&'a [u32], &'a [f32], &'a [f32])>,
    mut exclude: impl FnMut(usize) -> bool,
) -> Vec<(usize, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let query_norm = vector::norm(query);
    let blocks: Vec<_> = blocks.into_iter().collect();
    let mut top = TopK::new(k, blocks.iter().map(|(ids, _, _)| ids.len()).sum());
    for (ids, rows, norms) in blocks {
        debug_assert_eq!(rows.len(), ids.len() * dim, "top_k_cosine_blocks: ragged block");
        debug_assert_eq!(norms.len(), ids.len(), "top_k_cosine_blocks: norm block mismatch");
        for (j, &id) in ids.iter().enumerate() {
            let id = id as usize;
            if exclude(id) {
                continue;
            }
            let dot = vector::dot(&rows[j * dim..(j + 1) * dim], query);
            top.offer(id, sanitize(dot, query_norm, norms[j]));
        }
    }
    top.finish()
}

/// The shared bounded-heap selection over at most `candidates`
/// `(id, raw dot)` pairs.
fn select_top_k(
    scored: impl Iterator<Item = (usize, f32)>,
    query_norm: f32,
    norms: &[f32],
    k: usize,
    candidates: usize,
) -> Vec<(usize, f32)> {
    let mut top = TopK::new(k, candidates);
    for (id, dot) in scored {
        top.offer(id, sanitize(dot, query_norm, norms[id]));
    }
    top.finish()
}

/// Bounded min-heap of the `k` best candidates seen so far: `Reverse` puts
/// the *worst* kept candidate at the top for `O(log k)` eviction. Every
/// selection path funnels through this one struct, so the ranking
/// semantics cannot fork.
struct TopK {
    heap: BinaryHeap<std::cmp::Reverse<Candidate>>,
    k: usize,
}

impl TopK {
    /// A selection of the best `k` out of at most `candidates` offers. The
    /// heap is sized by whichever is smaller, so a client-chosen `k` far
    /// beyond the candidate count allocates nothing extra.
    fn new(k: usize, candidates: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(k.min(candidates)), k }
    }

    /// Offer one sanitized-score candidate.
    fn offer(&mut self, id: usize, score: f32) {
        let cand = Candidate { score, id };
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse(cand));
        } else if cand > self.heap.peek().expect("heap is full").0 {
            self.heap.pop();
            self.heap.push(std::cmp::Reverse(cand));
        }
    }

    /// The kept candidates in descending score order (ties by ascending
    /// id).
    fn finish(self) -> Vec<(usize, f32)> {
        let mut out: Vec<Candidate> = self.heap.into_iter().map(|r| r.0).collect();
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.into_iter().map(|c| (c.id, c.score)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.7, 0.7],
            vec![0.0, 0.0], // zero-norm (OOV) row
            vec![-1.0, 0.0],
        ])
    }

    #[test]
    fn ranks_by_cosine_descending() {
        let m = matrix();
        let norms = m.row_norms();
        let top = top_k_cosine(&m, &norms, &[1.0, 0.1], 5, 1, |_| false);
        assert_eq!(top.len(), 5);
        assert_eq!(top[0].0, 0);
        for pair in top.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "scores must be non-increasing: {top:?}");
        }
        assert_eq!(top[4].0, 4, "the anti-parallel row must rank last");
    }

    #[test]
    fn zero_norm_rows_score_zero_and_never_win() {
        let m = matrix();
        let norms = m.row_norms();
        let top = top_k_cosine(&m, &norms, &[1.0, 0.0], 5, 1, |_| false);
        let oov = top.iter().find(|&&(id, _)| id == 3).expect("zero row present");
        assert_eq!(oov.1, 0.0);
        assert_ne!(top[0].0, 3, "a zero-norm row must never be the top neighbour");
        // Zero-norm query: everything scores 0.0, order falls back to id.
        let all_zero = top_k_cosine(&m, &norms, &[0.0, 0.0], 5, 1, |_| false);
        assert!(all_zero.iter().all(|&(_, s)| s == 0.0));
        assert_eq!(all_zero.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nan_rows_are_clamped_not_ranked_first() {
        let m = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![f32::NAN, f32::NAN], // poisoned row
            vec![0.9, 0.1],
        ]);
        let norms = m.row_norms();
        let top = top_k_cosine(&m, &norms, &[1.0, 0.0], 3, 1, |_| false);
        assert_eq!(top[0].0, 0);
        let poisoned = top.iter().find(|&&(id, _)| id == 1).expect("present");
        assert_eq!(poisoned.1, 0.0, "NaN scores must be clamped to 0.0");
        assert!(top.iter().all(|&(_, s)| s.is_finite()));
    }

    #[test]
    fn k_beyond_the_candidate_count_returns_every_candidate() {
        let m = matrix();
        let norms = m.row_norms();
        let q = [1.0, 0.1];
        let all = top_k_cosine(&m, &norms, &q, m.rows(), 1, |_| false);
        assert_eq!(all.len(), m.rows());
        assert_eq!(top_k_cosine(&m, &norms, &q, usize::MAX, 2, |_| false), all);
        assert_eq!(top_k_cosine_among(&m, &norms, &q, usize::MAX, 0..m.rows()), all);
        let ids: Vec<u32> = (0..m.rows() as u32).collect();
        let block = (ids.as_slice(), m.as_slice(), norms.as_slice());
        assert_eq!(top_k_cosine_blocks(m.cols(), &q, usize::MAX, [block], |_| false), all);
    }

    #[test]
    fn bounded_heap_matches_full_sort() {
        let m = Matrix::from_fn(101, 7, |r, c| ((r * 13 + c * 5) as f32 * 0.29).sin());
        let norms = m.row_norms();
        let query: Vec<f32> = (0..7).map(|i| (i as f32 * 0.41).cos()).collect();
        // Reference: sanitize + full sort with the same total order.
        let qn = vector::norm(&query);
        let mut reference: Vec<(usize, f32)> = (0..m.rows())
            .map(|i| (i, sanitize(vector::dot(m.row(i), &query), qn, norms[i])))
            .collect();
        reference.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for k in [0usize, 1, 10, 101, 500] {
            let top = top_k_cosine(&m, &norms, &query, k, 1, |_| false);
            assert_eq!(top, reference[..k.min(101)].to_vec(), "k = {k}");
        }
    }

    #[test]
    fn among_matches_full_scan_and_is_order_independent() {
        let m = Matrix::from_fn(57, 6, |r, c| ((r * 11 + c * 5) as f32 * 0.23).sin());
        let norms = m.row_norms();
        let query: Vec<f32> = (0..6).map(|i| (i as f32 * 0.31).cos()).collect();
        let full = top_k_cosine(&m, &norms, &query, 8, 1, |_| false);
        assert_eq!(top_k_cosine_among(&m, &norms, &query, 8, 0..m.rows()), full);
        // Reversed streaming order: same set in, same ranking out.
        assert_eq!(top_k_cosine_among(&m, &norms, &query, 8, (0..m.rows()).rev()), full);
        // A strict subset only ever loses candidates, never reorders the
        // survivors.
        let subset: Vec<usize> = (0..m.rows()).filter(|i| i % 2 == 0).collect();
        let among = top_k_cosine_among(&m, &norms, &query, 8, subset.iter().copied());
        let expected: Vec<_> = full.iter().copied().filter(|&(id, _)| id % 2 == 0).collect();
        assert_eq!(&among[..expected.len().min(among.len())], &expected[..]);
    }

    #[test]
    fn blocks_match_among_bit_for_bit() {
        let m = Matrix::from_fn(90, 5, |r, c| ((r * 7 + c * 11) as f32 * 0.19).sin());
        let norms = m.row_norms();
        let query: Vec<f32> = (0..5).map(|i| (i as f32 * 0.53).cos()).collect();
        // Pack the rows into two blocks (evens, odds).
        let mut blocks: Vec<(Vec<u32>, Vec<f32>, Vec<f32>)> = Vec::new();
        for parity in 0..2u32 {
            let ids: Vec<u32> = (0..90u32).filter(|i| i % 2 == parity).collect();
            let mut rows = Vec::new();
            let mut block_norms = Vec::new();
            for &id in &ids {
                rows.extend_from_slice(m.row(id as usize));
                block_norms.push(norms[id as usize]);
            }
            blocks.push((ids, rows, block_norms));
        }
        let view = || blocks.iter().map(|(i, r, n)| (i.as_slice(), r.as_slice(), n.as_slice()));
        let packed = top_k_cosine_blocks(5, &query, 8, view(), |_| false);
        assert_eq!(packed, top_k_cosine_among(&m, &norms, &query, 8, 0..90));
        // Exclusion skips rows entirely; k = 0 short-circuits.
        let tail = top_k_cosine_blocks(5, &query, 8, view(), |id| id < 40);
        assert!(!tail.is_empty() && tail.iter().all(|&(id, _)| id >= 40));
        assert!(top_k_cosine_blocks(5, &query, 0, view(), |_| false).is_empty());
    }

    #[test]
    fn exclusion_and_thread_counts_are_invariant() {
        let m = Matrix::from_fn(64, 9, |r, c| ((r * 7 + c * 3) as f32 * 0.17).cos());
        let norms = m.row_norms();
        let query = m.row(5).to_vec();
        let serial = top_k_cosine(&m, &norms, &query, 10, 1, |i| i == 5);
        assert!(serial.iter().all(|&(id, _)| id != 5));
        for threads in [2usize, 4, 8] {
            let parallel = top_k_cosine(&m, &norms, &query, 10, threads, |i| i == 5);
            assert_eq!(serial, parallel, "top-k diverged at {threads} threads");
        }
    }
}
