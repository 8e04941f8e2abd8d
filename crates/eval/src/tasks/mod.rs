//! The four §5 downstream tasks.

pub mod binary;
pub mod imputation;
pub mod link;
pub mod regression;

pub use binary::run_binary_classification;
pub use imputation::run_imputation;
pub use link::run_link_prediction;
pub use regression::run_regression;

use retro_linalg::Matrix;

/// Gather rows by index and L2-normalize them (§5.5: "we normalize the
/// embedding vectors before they are processed by the network").
pub fn gather_normalized(matrix: &Matrix, ids: &[usize]) -> Matrix {
    let mut out = matrix.select_rows(ids);
    out.normalize_rows();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_linalg::vector;

    #[test]
    fn gather_normalizes_rows() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0], vec![10.0, 0.0]]);
        let g = gather_normalized(&m, &[0, 2, 0]);
        assert_eq!(g.rows(), 3);
        assert!((vector::norm(g.row(0)) - 1.0).abs() < 1e-6);
        assert!((vector::norm(g.row(1)) - 1.0).abs() < 1e-6);
        assert_eq!(g.row(0), g.row(2));
    }
}
