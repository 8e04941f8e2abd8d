//! Cross-kernel consistency tests for the numeric substrate: every sparse
//! product path must agree with the dense reference, the vector free
//! functions must satisfy their algebraic identities, and the summary
//! statistics must match hand-computable values. Randomized cases use the
//! workspace's seeded RNG so failures reproduce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retro_linalg::stats::{self, Summary};
use retro_linalg::{vector, CooMatrix, CsrMatrix, Matrix};

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-2.0f32..2.0))
}

fn random_sparse(rng: &mut StdRng, rows: usize, cols: usize, nnz: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, cols);
    for _ in 0..nnz {
        coo.push(rng.gen_range(0..rows), rng.gen_range(0..cols), rng.gen_range(-1.0f32..1.0));
    }
    coo.to_csr()
}

#[test]
fn sparse_product_matches_dense_reference() {
    let mut rng = StdRng::seed_from_u64(101);
    for (n, m, d, nnz) in [(1, 1, 1, 1), (5, 7, 3, 12), (16, 16, 8, 64), (30, 11, 4, 90)] {
        let sparse = random_sparse(&mut rng, n, m, nnz);
        let dense_lhs = sparse.to_dense();
        let rhs = random_matrix(&mut rng, m, d);
        let via_sparse = sparse.mul_dense(&rhs);
        let via_dense = dense_lhs.matmul(&rhs);
        assert_eq!(via_sparse.shape(), (n, d));
        assert!(
            via_sparse.max_abs_diff(&via_dense) < 1e-4,
            "shape ({n},{m},{d}): diff {}",
            via_sparse.max_abs_diff(&via_dense)
        );
    }
}

#[test]
fn sparse_range_product_tiles_the_full_product() {
    let mut rng = StdRng::seed_from_u64(103);
    let (n, m, d) = (23, 9, 5);
    let sparse = random_sparse(&mut rng, n, m, 70);
    let rhs = random_matrix(&mut rng, m, d);
    let full = sparse.mul_dense(&rhs);
    // Recompute in three uneven row tiles through mul_dense_range_into.
    let mut tiled = Matrix::zeros(n, d);
    for range in [0..7usize, 7..8, 8..n] {
        let chunk_start = range.start;
        let out = &mut tiled.as_mut_slice()[chunk_start * d..range.end * d];
        sparse.mul_dense_range_into(&rhs, range, out);
    }
    assert!(full.max_abs_diff(&tiled) < 1e-6);
}

#[test]
fn sparse_transpose_is_an_involution_and_swaps_products() {
    let mut rng = StdRng::seed_from_u64(107);
    let sparse = random_sparse(&mut rng, 13, 6, 30);
    let twice = sparse.transpose().transpose();
    assert_eq!((twice.rows(), twice.cols()), (13, 6));
    assert!(sparse.to_dense().max_abs_diff(&twice.to_dense()) < 1e-7);
    // (Aᵀ)·X == (A·X computed through the dense transpose reference).
    let x = random_matrix(&mut rng, 13, 4);
    let via_sparse_t = sparse.transpose().mul_dense(&x);
    let via_dense_t = sparse.to_dense().transpose().matmul(&x);
    assert!(via_sparse_t.max_abs_diff(&via_dense_t) < 1e-4);
}

#[test]
fn coo_duplicates_accumulate() {
    let mut coo = CooMatrix::new(2, 2);
    coo.push(0, 1, 0.5);
    coo.push(0, 1, 0.25);
    coo.push(1, 0, -1.0);
    let csr = coo.to_csr();
    assert_eq!(csr.nnz(), 2, "duplicate coordinates must merge");
    let dense = csr.to_dense();
    assert!((dense.get(0, 1) - 0.75).abs() < 1e-7);
    assert!((dense.get(1, 0) + 1.0).abs() < 1e-7);
}

#[test]
fn dense_matvec_matches_matmul_column() {
    let mut rng = StdRng::seed_from_u64(109);
    let a = random_matrix(&mut rng, 8, 5);
    let v: Vec<f32> = (0..5).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let as_vec = a.matvec(&v);
    let as_col = a.matmul(&Matrix::from_rows(&v.iter().map(|&x| vec![x]).collect::<Vec<_>>()));
    for (r, &x) in as_vec.iter().enumerate() {
        assert!((x - as_col.get(r, 0)).abs() < 1e-5);
    }
}

#[test]
fn dense_transpose_reverses_matmul_order() {
    let mut rng = StdRng::seed_from_u64(113);
    let a = random_matrix(&mut rng, 6, 4);
    let b = random_matrix(&mut rng, 4, 3);
    // (A·B)ᵀ == Bᵀ·Aᵀ
    let left = a.matmul(&b).transpose();
    let right = b.transpose().matmul(&a.transpose());
    assert!(left.max_abs_diff(&right) < 1e-5);
}

#[test]
fn normalize_rows_leaves_unit_or_zero_rows() {
    let mut m = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0], vec![-0.1, 0.0]]);
    m.normalize_rows();
    assert!((vector::norm(m.row(0)) - 1.0).abs() < 1e-6);
    assert_eq!(m.row(1), &[0.0, 0.0], "zero rows must stay zero, not NaN");
    assert!((vector::norm(m.row(2)) - 1.0).abs() < 1e-6);
}

#[test]
fn vector_identities_hold() {
    let mut rng = StdRng::seed_from_u64(127);
    for _ in 0..50 {
        let a: Vec<f32> = (0..6).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let b: Vec<f32> = (0..6).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        // ‖a‖² == a·a
        assert!((vector::norm_sq(&a) - vector::dot(&a, &a)).abs() < 1e-4);
        // ‖a−b‖² == ‖a‖² − 2a·b + ‖b‖²
        let expansion = vector::norm_sq(&a) - 2.0 * vector::dot(&a, &b) + vector::norm_sq(&b);
        assert!((vector::dist_sq(&a, &b) - expansion).abs() < 1e-3);
        // axpy(α, x, y) == y + αx, checked against scalar arithmetic.
        let alpha = rng.gen_range(-2.0f32..2.0);
        let mut y = b.clone();
        vector::axpy(alpha, &a, &mut y);
        for k in 0..6 {
            assert!((y[k] - (b[k] + alpha * a[k])).abs() < 1e-5);
        }
        // cosine is scale-invariant for positive scaling.
        let mut scaled = a.clone();
        vector::scale(2.5, &mut scaled);
        assert!((vector::cosine(&a, &b) - vector::cosine(&scaled, &b)).abs() < 1e-4);
    }
}

#[test]
fn normalized_vector_has_unit_norm_and_direction() {
    let mut v = vec![1.0f32, -2.0, 2.0];
    let before = v.clone();
    vector::normalize(&mut v);
    assert!((vector::norm(&v) - 1.0).abs() < 1e-6);
    assert!(vector::cosine(&v, &before) > 1.0 - 1e-6);
    // Zero vectors are left untouched.
    let mut z = vec![0.0f32; 3];
    vector::normalize(&mut z);
    assert_eq!(z, vec![0.0; 3]);
}

#[test]
fn centroid_averages_rows() {
    let rows = [vec![1.0f32, 0.0], vec![3.0, 2.0], vec![2.0, 4.0]];
    let c = vector::centroid(rows.iter().map(|r| r.as_slice()), 2);
    assert!(vector::approx_eq(&c, &[2.0, 2.0], 1e-6));
    // Empty input yields the zero vector of the requested dimension.
    let empty = vector::centroid(std::iter::empty::<&[f32]>(), 3);
    assert_eq!(empty, vec![0.0; 3]);
}

#[test]
fn stats_match_hand_computed_values() {
    let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
    assert!((stats::mean(&xs) - 5.0).abs() < 1e-12);
    // Population std-dev of the classic example set: √(32/8) = 2.
    assert!((stats::std_dev(&xs) - 2.0).abs() < 1e-12);
    assert!((stats::median(&xs) - 4.5).abs() < 1e-12);
    assert_eq!(stats::min(&xs), 2.0);
    assert_eq!(stats::max(&xs), 9.0);

    let odd = [3.0, 1.0, 2.0];
    assert!((stats::median(&odd) - 2.0).abs() < 1e-12);

    let summary = Summary::of(&xs);
    assert_eq!(summary.n, 8);
    assert!((summary.mean - 5.0).abs() < 1e-12);
    assert!((summary.std_dev - stats::std_dev(&xs)).abs() < 1e-12);
    assert_eq!((summary.min, summary.max), (2.0, 9.0));
}
