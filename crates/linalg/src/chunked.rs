//! Append-only rows in `Arc`-shared chunks.
//!
//! [`ChunkedRows`] holds an `n × cols` row set that only ever grows at its
//! end, like the retrofitting anchor `W0`: a delta refresh appends rows
//! and never rewrites one. Rows live in chunks of [`CHUNK_ROWS`] rows, each
//! behind an `Arc`. [`ChunkedRows::extended`] shares every full chunk of
//! the original and copies only its last, partial one, so growing by `k`
//! rows costs `O(k + chunk count)` instead of `O(n · cols)`, and every
//! generation of a row set shares its full chunks with its predecessor.

use std::sync::Arc;

use crate::Matrix;

/// Rows per chunk: 1 MiB of `f32` at 64 columns. A power of two, so a
/// row's chunk and its offset in it are a shift and a mask.
pub const CHUNK_ROWS: usize = 4096;

/// An append-only `rows × cols` row set in `Arc`-shared chunks of
/// [`CHUNK_ROWS`] rows (the last chunk holds the remainder).
#[derive(Clone)]
pub struct ChunkedRows {
    rows: usize,
    cols: usize,
    /// `rows.div_ceil(CHUNK_ROWS)` row-major chunks: all full but the last.
    chunks: Vec<Arc<[f32]>>,
}

impl std::fmt::Debug for ChunkedRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChunkedRows({}x{}, {} chunks)", self.rows, self.cols, self.chunks.len())
    }
}

impl ChunkedRows {
    /// All `rows` rows at once: `fill(r, row)` writes row `r` into a zeroed
    /// `row` of `cols` values, in ascending `r`.
    pub fn from_fn(rows: usize, cols: usize, fill: impl FnMut(usize, &mut [f32])) -> Self {
        Self { rows: 0, cols, chunks: Vec::new() }.extended(rows, fill)
    }

    /// These rows plus `added` more, which `fill(r, row)` writes as in
    /// [`ChunkedRows::from_fn`] (`r` counts from `self.rows()`). Every full
    /// chunk is shared with `self`; only the last, partial chunk is copied.
    /// With nothing added the result shares every chunk.
    pub fn extended(&self, added: usize, mut fill: impl FnMut(usize, &mut [f32])) -> Self {
        if added == 0 {
            return self.clone();
        }
        let (rows, cols) = (self.rows + added, self.cols);
        let full = self.rows / CHUNK_ROWS;
        let mut chunks = Vec::with_capacity(rows.div_ceil(CHUNK_ROWS));
        chunks.extend_from_slice(&self.chunks[..full]);
        let mut first = full * CHUNK_ROWS;
        while first < rows {
            let len = (rows - first).min(CHUNK_ROWS);
            // One allocation, zeroed in place: `Arc<[f32]>` collects an
            // exact-size iterator straight into its own buffer.
            let mut chunk: Arc<[f32]> = std::iter::repeat_n(0.0, len * cols).collect();
            let data = Arc::get_mut(&mut chunk).expect("a fresh chunk is unshared");
            // Rows this chunk already held: only the old partial chunk has any.
            let kept = self.rows.max(first) - first;
            if kept > 0 {
                data[..kept * cols].copy_from_slice(&self.chunks[full]);
            }
            for local in kept..len {
                fill(first + local, &mut data[local * cols..(local + 1) * cols]);
            }
            chunks.push(chunk);
            first += len;
        }
        Self { rows, cols, chunks }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let start = (r % CHUNK_ROWS) * self.cols;
        &self.chunks[r / CHUNK_ROWS][start..start + self.cols]
    }

    /// Copy every row into `out`, which must have the same shape.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn copy_into(&self, out: &mut Matrix) {
        assert_eq!(out.shape(), (self.rows, self.cols), "ChunkedRows::copy_into: shape mismatch");
        let mut at = 0;
        for chunk in &self.chunks {
            out.as_mut_slice()[at..at + chunk.len()].copy_from_slice(chunk);
            at += chunk.len();
        }
    }

    /// The rows as one contiguous [`Matrix`] (a copy).
    pub fn to_matrix(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        self.copy_into(&mut out);
        out
    }

    /// Bytes of the chunks this row set does not share with `prev` (all
    /// of them without one): what it owns beyond its predecessor, by
    /// `Arc` pointer identity.
    pub fn owned_bytes(&self, prev: Option<&Self>) -> usize {
        let shared = |i: usize, chunk: &Arc<[f32]>| {
            prev.and_then(|p| p.chunks.get(i)).is_some_and(|old| Arc::ptr_eq(old, chunk))
        };
        let owned = self.chunks.iter().enumerate().filter(|&(i, chunk)| !shared(i, chunk));
        owned.map(|(_, chunk)| size_of_val::<[f32]>(chunk)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Row `r`'s values: distinct per row and column, exact in `f32`.
    fn fill(cols: usize) -> impl FnMut(usize, &mut [f32]) {
        move |r, row| {
            assert_eq!(row.len(), cols);
            assert!(row.iter().all(|&v| v == 0.0), "rows arrive zeroed");
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * 7 + c) as f32 * 0.5 - 3.0;
            }
        }
    }

    fn assert_same_rows(a: &ChunkedRows, b: &ChunkedRows) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for r in 0..a.rows() {
            let (x, y) = (a.row(r), b.row(r));
            assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()), "row {r}");
        }
    }

    /// Every full chunk of `prev` is the same allocation in `next`.
    fn assert_full_chunks_shared(prev: &ChunkedRows, next: &ChunkedRows) {
        for i in 0..prev.rows() / CHUNK_ROWS {
            assert!(Arc::ptr_eq(&prev.chunks[i], &next.chunks[i]), "chunk {i} was copied");
        }
    }

    #[test]
    fn random_extension_steps_equal_one_build_and_share_full_chunks() {
        let mut rng = StdRng::seed_from_u64(26);
        for cols in [0, 1, 3] {
            let total = 3 * CHUNK_ROWS + 17;
            let whole = ChunkedRows::from_fn(total, cols, fill(cols));
            let mut grown = ChunkedRows::from_fn(0, cols, fill(cols));
            while grown.rows() < total {
                let step = rng.gen_range(0..CHUNK_ROWS + CHUNK_ROWS / 2).min(total - grown.rows());
                let next = grown.extended(step, fill(cols));
                assert_full_chunks_shared(&grown, &next);
                grown = next;
            }
            assert_same_rows(&grown, &whole);
            assert_eq!(grown.chunks.len(), total.div_ceil(CHUNK_ROWS));
        }
    }

    #[test]
    fn edge_sizes_build_and_extend() {
        for rows in [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1] {
            let cols = 2;
            let m = ChunkedRows::from_fn(rows, cols, fill(cols));
            assert_eq!(m.chunks.len(), rows.div_ceil(CHUNK_ROWS));
            let whole = m.to_matrix();
            assert_eq!(whole.rows(), rows);
            for r in 0..rows {
                assert_eq!(whole.row(r), m.row(r));
            }
            let plus_one = m.extended(1, fill(cols));
            assert_same_rows(&plus_one, &ChunkedRows::from_fn(rows + 1, cols, fill(cols)));
            assert_full_chunks_shared(&m, &plus_one);
        }
        let empty = ChunkedRows::from_fn(0, 0, fill(0));
        assert_eq!((empty.rows(), empty.cols(), empty.to_matrix().shape()), (0, 0, (0, 0)));
        assert_eq!(empty.owned_bytes(None), 0);
    }

    #[test]
    fn extending_by_nothing_shares_every_chunk() {
        let m = ChunkedRows::from_fn(CHUNK_ROWS + 5, 2, fill(2));
        let same = m.extended(0, |_, _| panic!("nothing to fill"));
        assert!(m.chunks.iter().zip(&same.chunks).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(same.owned_bytes(Some(&m)), 0);
    }

    #[test]
    fn owned_bytes_count_only_unshared_chunks() {
        let cols = 4;
        let chunk_bytes = CHUNK_ROWS * cols * size_of::<f32>();
        let m = ChunkedRows::from_fn(2 * CHUNK_ROWS + 10, cols, fill(cols));
        // Unshared: every chunk, the partial last one at its own size.
        let all = 2 * chunk_bytes + 10 * cols * size_of::<f32>();
        assert_eq!(m.owned_bytes(None), all);
        // An unrelated build of equal rows shares nothing.
        let twin = ChunkedRows::from_fn(2 * CHUNK_ROWS + 10, cols, fill(cols));
        assert_eq!(twin.owned_bytes(Some(&m)), all);
        // Shared: the two full chunks; the copied partial one and the new
        // chunk it overflows into are owned.
        let grown = m.extended(CHUNK_ROWS, fill(cols));
        assert_eq!(grown.owned_bytes(Some(&m)), chunk_bytes + 10 * cols * size_of::<f32>());
    }

    #[test]
    #[should_panic(expected = "ChunkedRows::copy_into: shape mismatch")]
    fn copy_into_checks_the_shape() {
        ChunkedRows::from_fn(3, 2, fill(2)).copy_into(&mut Matrix::zeros(2, 2));
    }
}
