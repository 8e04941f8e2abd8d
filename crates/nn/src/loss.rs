//! Loss functions with fused output-layer gradients.

use retro_linalg::Matrix;

/// Supported training losses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loss {
    /// Binary cross-entropy over sigmoid outputs (binary classification,
    /// link prediction).
    BinaryCrossEntropy,
    /// Categorical cross-entropy over softmax outputs (imputation).
    CategoricalCrossEntropy,
    /// Mean absolute error over linear outputs (regression, as in Fig. 13).
    MeanAbsoluteError,
}

const EPS: f32 = 1e-7;

impl Loss {
    /// Mean loss over a batch.
    pub fn value(self, predictions: &Matrix, targets: &Matrix) -> f32 {
        assert_eq!(predictions.shape(), targets.shape(), "Loss::value: shape mismatch");
        let n = predictions.rows().max(1) as f32;
        match self {
            Loss::BinaryCrossEntropy => {
                let mut sum = 0.0;
                for (&p, &y) in predictions.as_slice().iter().zip(targets.as_slice()) {
                    let p = p.clamp(EPS, 1.0 - EPS);
                    sum -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
                }
                sum / (n * predictions.cols().max(1) as f32)
            }
            Loss::CategoricalCrossEntropy => {
                let mut sum = 0.0;
                for (&p, &y) in predictions.as_slice().iter().zip(targets.as_slice()) {
                    if y > 0.0 {
                        sum -= y * p.clamp(EPS, 1.0).ln();
                    }
                }
                sum / n
            }
            Loss::MeanAbsoluteError => {
                let mut sum = 0.0;
                for (&p, &y) in predictions.as_slice().iter().zip(targets.as_slice()) {
                    sum += (p - y).abs();
                }
                sum / (n * predictions.cols().max(1) as f32)
            }
        }
    }

    /// The gradient ∂L/∂Z at the output layer, with the activation
    /// derivative already fused:
    ///
    /// * BCE + sigmoid → `(p - y)/n`
    /// * CCE + softmax → `(p - y)/n`
    /// * MAE + linear → `sign(p - y)/n`
    pub fn output_gradient(self, predictions: &Matrix, targets: &Matrix) -> Matrix {
        assert_eq!(predictions.shape(), targets.shape(), "Loss::output_gradient: shape mismatch");
        let n = predictions.rows().max(1) as f32;
        let mut grad = predictions.clone();
        grad.axpy(-1.0, targets);
        match self {
            Loss::BinaryCrossEntropy | Loss::CategoricalCrossEntropy => {
                grad.scale(1.0 / n);
            }
            Loss::MeanAbsoluteError => {
                for v in grad.as_mut_slice() {
                    *v = v.signum() / n;
                }
            }
        }
        grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_perfect_prediction_is_near_zero() {
        let p = Matrix::from_rows(&[vec![1.0], vec![0.0]]);
        let y = p.clone();
        assert!(Loss::BinaryCrossEntropy.value(&p, &y) < 1e-4);
    }

    #[test]
    fn bce_penalizes_confident_mistakes() {
        let y = Matrix::from_rows(&[vec![1.0]]);
        let good = Matrix::from_rows(&[vec![0.9]]);
        let bad = Matrix::from_rows(&[vec![0.1]]);
        assert!(
            Loss::BinaryCrossEntropy.value(&bad, &y) > Loss::BinaryCrossEntropy.value(&good, &y)
        );
    }

    #[test]
    fn cce_matches_hand_computation() {
        // One sample, true class 0 with p=0.5: loss = -ln(0.5).
        let p = Matrix::from_rows(&[vec![0.5, 0.5]]);
        let y = Matrix::from_rows(&[vec![1.0, 0.0]]);
        assert!((Loss::CategoricalCrossEntropy.value(&p, &y) - 0.5f32.ln().abs()).abs() < 1e-5);
    }

    #[test]
    fn mae_is_mean_absolute_difference() {
        let p = Matrix::from_rows(&[vec![1.0], vec![-1.0]]);
        let y = Matrix::from_rows(&[vec![2.0], vec![1.0]]);
        assert!((Loss::MeanAbsoluteError.value(&p, &y) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn fused_gradients_point_from_target_to_prediction() {
        let p = Matrix::from_rows(&[vec![0.8, 0.2]]);
        let y = Matrix::from_rows(&[vec![1.0, 0.0]]);
        let g = Loss::CategoricalCrossEntropy.output_gradient(&p, &y);
        assert!(g.get(0, 0) < 0.0); // push class-0 probability up
        assert!(g.get(0, 1) > 0.0); // push class-1 probability down
    }

    #[test]
    fn mae_gradient_is_sign() {
        let p = Matrix::from_rows(&[vec![2.0], vec![-3.0]]);
        let y = Matrix::from_rows(&[vec![0.0], vec![0.0]]);
        let g = Loss::MeanAbsoluteError.output_gradient(&p, &y);
        assert_eq!(g.get(0, 0), 0.5);
        assert_eq!(g.get(1, 0), -0.5);
    }
}
