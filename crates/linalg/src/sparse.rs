//! Sparse matrices in coordinate (COO) and compressed-sparse-row (CSR) form.
//!
//! The retrofitting operators `(γ^r_ij)`, `(δ^r_ij)` and graph adjacency are
//! extremely sparse (a handful of relations per text value out of tens of
//! thousands), so the solvers assemble them as [`CooMatrix`] triplets and
//! convert once to [`CsrMatrix`] for repeated `CSR × dense` products.

use crate::dense::Matrix;
use crate::vector;

/// A sparse matrix under assembly: unordered `(row, col, value)` triplets.
///
/// Duplicate coordinates are allowed and are summed during conversion to CSR,
/// which matches how the paper's weight matrices superimpose `γ` and `γ̄ᵀ`
/// contributions (Eq. 10).
#[derive(Clone, Debug, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    triplets: Vec<(u32, u32, f32)>,
}

impl CooMatrix {
    /// An empty `rows × cols` COO matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { rows, cols, triplets: Vec::new() }
    }

    /// Record `m[row, col] += value`.
    ///
    /// # Panics
    /// Panics if the coordinate is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "CooMatrix::push: out of bounds");
        if value != 0.0 {
            self.triplets.push((row as u32, col as u32, value));
        }
    }

    /// Convert to CSR, merging duplicate coordinates by summation.
    ///
    /// Rows are bucketed with a counting sort (O(nnz + rows), not a global
    /// O(nnz log nnz) comparison sort — conversion is on the solver kernels'
    /// construction path), then each row is sorted by column with a stable
    /// sort, so duplicates merge in insertion order: deterministic for a
    /// given push sequence.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row: count, prefix-sum into row starts, scatter.
        let mut starts = vec![0u32; self.rows + 1];
        for &(r, _, _) in &self.triplets {
            starts[r as usize + 1] += 1;
        }
        for r in 0..self.rows {
            starts[r + 1] += starts[r];
        }
        let mut cursor: Vec<u32> = starts[..self.rows].to_vec();
        let mut by_row: Vec<(u32, f32)> = vec![(0, 0.0); self.triplets.len()];
        for &(r, c, v) in &self.triplets {
            let at = cursor[r as usize] as usize;
            by_row[at] = (c, v);
            cursor[r as usize] += 1;
        }

        // Per-row: stable sort by column (rows are short — this is an
        // insertion sort in practice), then merge duplicates by summation.
        let mut row_ptr = vec![0u32; self.rows + 1];
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.triplets.len());
        let mut values: Vec<f32> = Vec::with_capacity(self.triplets.len());
        for r in 0..self.rows {
            let seg = &mut by_row[starts[r] as usize..starts[r + 1] as usize];
            seg.sort_by_key(|&(c, _)| c);
            for &(c, v) in seg.iter() {
                if col_idx.last() == Some(&c) && values.len() > row_ptr[r] as usize {
                    *values.last_mut().expect("merge target exists") += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[r + 1] = col_idx.len() as u32;
        }
        CsrMatrix { rows: self.rows, cols: self.cols, row_ptr, col_idx, values }
    }
}

/// A compressed-sparse-row matrix of `f32`.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// An empty (all-zero) CSR matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, row_ptr: vec![0; rows + 1], col_idx: Vec::new(), values: Vec::new() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let start = self.row_ptr[r] as usize;
        let end = self.row_ptr[r + 1] as usize;
        self.col_idx[start..end]
            .iter()
            .zip(&self.values[start..end])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Sum of the values in row `r` (a "row degree" for weight operators).
    pub fn row_sum(&self, r: usize) -> f32 {
        let start = self.row_ptr[r] as usize;
        let end = self.row_ptr[r + 1] as usize;
        self.values[start..end].iter().sum()
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        (self.row_ptr[r + 1] - self.row_ptr[r]) as usize
    }

    /// Dense `self × rhs` product.
    ///
    /// # Panics
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_dense(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows(), "CsrMatrix::mul_dense: dimension mismatch");
        let mut out = Matrix::zeros(self.rows, rhs.cols());
        self.mul_dense_into(rhs, &mut out);
        out
    }

    /// Like [`Self::mul_dense`] but writing into a caller-provided output
    /// buffer, allowing the solver loop to reuse allocations.
    pub fn mul_dense_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows(), "mul_dense_into: dimension mismatch");
        assert_eq!(out.shape(), (self.rows, rhs.cols()), "mul_dense_into: bad output shape");
        out.fill(0.0);
        for r in 0..self.rows {
            let start = self.row_ptr[r] as usize;
            let end = self.row_ptr[r + 1] as usize;
            let out_row = out.row_mut(r);
            for k in start..end {
                vector::axpy(self.values[k], rhs.row(self.col_idx[k] as usize), out_row);
            }
        }
    }

    /// Compute rows `row_range` of `self × rhs` into a caller-provided
    /// row-major chunk (`(row_range.len()) × rhs.cols()` floats). Disjoint
    /// ranges write to disjoint chunks, which is what the parallel solver
    /// driver exploits.
    pub fn mul_dense_range_into(
        &self,
        rhs: &Matrix,
        row_range: std::ops::Range<usize>,
        out_chunk: &mut [f32],
    ) {
        let cols = rhs.cols();
        assert_eq!(
            out_chunk.len(),
            row_range.len() * cols,
            "mul_dense_range_into: chunk size mismatch"
        );
        out_chunk.fill(0.0);
        for (local, r) in row_range.enumerate() {
            let start = self.row_ptr[r] as usize;
            let end = self.row_ptr[r + 1] as usize;
            let out_row = &mut out_chunk[local * cols..(local + 1) * cols];
            for k in start..end {
                vector::axpy(self.values[k], rhs.row(self.col_idx[k] as usize), out_row);
            }
        }
    }

    /// Accumulate `out_row += scale * (self[r, :] × rhs)` for a single row.
    pub fn mul_row_into(&self, r: usize, rhs: &Matrix, scale: f32, out_row: &mut [f32]) {
        let start = self.row_ptr[r] as usize;
        let end = self.row_ptr[r + 1] as usize;
        for k in start..end {
            vector::axpy(scale * self.values[k], rhs.row(self.col_idx[k] as usize), out_row);
        }
    }

    /// Issue software prefetches for the `rhs` rows that
    /// [`Self::mul_row_into`] on row `r` will gather.
    ///
    /// The sparse-times-dense product is latency-bound: each stored entry
    /// gathers a dense row at a data-dependent index the hardware
    /// prefetcher cannot predict. Callers that walk rows in order (the
    /// solver kernels) prefetch row `r + 1` while computing row `r`, which
    /// overlaps the gather misses with useful work. A no-op on
    /// architectures without a prefetch intrinsic; never required for
    /// correctness.
    #[inline]
    pub fn prefetch_row(&self, r: usize, rhs: &Matrix) {
        #[cfg(target_arch = "x86_64")]
        {
            let start = self.row_ptr[r] as usize;
            let end = self.row_ptr[r + 1] as usize;
            let row_bytes = rhs.cols() * std::mem::size_of::<f32>();
            for &c in &self.col_idx[start..end] {
                let row = rhs.row(c as usize);
                let base = row.as_ptr() as *const i8;
                let mut off = 0usize;
                while off < row_bytes {
                    // SAFETY: prefetch only hints the cache; the address
                    // stays within (or one line past) the row slice and is
                    // never dereferenced.
                    unsafe {
                        std::arch::x86_64::_mm_prefetch(
                            base.add(off),
                            std::arch::x86_64::_MM_HINT_T0,
                        );
                    }
                    off += 64;
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (r, rhs);
        }
    }

    /// Transpose (also CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                coo.push(c, r, v);
            }
        }
        coo.to_csr()
    }

    /// Materialize as a dense matrix (for tests and tiny examples only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m.set(r, c, m.get(r, c) + v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_csr() -> CsrMatrix {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 2, 4.0);
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_preserves_entries() {
        let m = sample_csr();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(1).collect::<Vec<_>>(), vec![(0, 1.0), (2, 3.0)]);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.5);
        coo.push(1, 1, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.row(0).collect::<Vec<_>>(), vec![(0, 3.5)]);
    }

    #[test]
    fn zero_values_are_dropped() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 0.0);
        assert_eq!(coo.to_csr().nnz(), 0);
    }

    #[test]
    fn empty_rows_have_valid_pointers() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(3, 0, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row_nnz(0), 0);
        assert_eq!(csr.row_nnz(3), 1);
        assert_eq!(csr.row(2).count(), 0);
    }

    #[test]
    fn mul_dense_matches_dense_matmul() {
        let csr = sample_csr();
        let dense = csr.to_dense();
        let rhs = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let a = csr.mul_dense(&rhs);
        let b = dense.matmul(&rhs);
        assert!(a.max_abs_diff(&b) < 1e-6);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let csr = sample_csr();
        let t = csr.transpose();
        assert!(t.to_dense().max_abs_diff(&csr.to_dense().transpose()) < 1e-6);
    }

    #[test]
    fn row_sum_adds_values() {
        let csr = sample_csr();
        assert_eq!(csr.row_sum(1), 4.0);
        assert_eq!(csr.row_sum(0), 2.0);
    }

    #[test]
    fn mul_row_into_accumulates_scaled() {
        let csr = sample_csr();
        let rhs = Matrix::from_rows(&[vec![1.0], vec![10.0], vec![100.0]]);
        let mut out = vec![5.0];
        csr.mul_row_into(1, &rhs, 2.0, &mut out);
        // row 1 = {0: 1.0, 2: 3.0}; 2*(1*1 + 3*100) = 602
        assert_eq!(out, vec![607.0]);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::zeros(5, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.rows(), 5);
        assert_eq!(z.cols(), 7);
        let rhs = Matrix::zeros(7, 2);
        assert_eq!(z.mul_dense(&rhs).shape(), (5, 2));
    }
}
