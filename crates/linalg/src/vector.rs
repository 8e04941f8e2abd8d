//! Free functions over `&[f32]` slices.
//!
//! All functions assume equal-length inputs and panic (in debug builds) when
//! that contract is violated; the retrofitting code always works with
//! fixed-dimension rows so a length mismatch is a programming error, not a
//! recoverable condition.
//!
//! ## Chunked kernels
//!
//! The hot kernels ([`axpy`], [`scale`], [`dot`], [`dist_sq`], and through
//! them [`normalize`]) process [`LANES`] elements per step with a scalar
//! tail, which lets LLVM autovectorize them (the element-wise kernels
//! become plain SIMD maps; the reductions keep [`LANES`] independent
//! accumulators instead of one serial `+` chain).
//!
//! Chunking never changes *what* is computed, only how fast: the
//! element-wise kernels are bit-identical to the obvious one-element loop,
//! and the reductions are bit-identical to a fixed scalar model — element
//! `i` accumulates into lane `i % LANES`, and the lanes are combined by a
//! fixed pairwise tree (`reduce_lanes`). That model depends only on the input
//! data, never on chunk boundaries, so every caller (both solver kernels,
//! `CsrMatrix` products, row normalization) sees one deterministic
//! summation order. `crates/linalg/tests/chunked_kernels.rs` pins the
//! bit-identity against naive scalar reference loops for every length.

/// Elements processed per chunked step (and independent accumulators in the
/// chunked reductions).
pub const LANES: usize = 8;

/// Combine the [`LANES`] partial accumulators of a chunked reduction with a
/// fixed pairwise tree: `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
#[inline]
fn reduce_lanes(l: [f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Dot product of two equal-length slices.
///
/// Summation order is the chunked-lane model (see the module docs): element
/// `i` accumulates into lane `i % LANES`, lanes combine pairwise.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut lanes = [0.0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for j in 0..LANES {
            lanes[j] += ca[j] * cb[j];
        }
    }
    for (j, (x, y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        lanes[j] += x * y;
    }
    reduce_lanes(lanes)
}

/// Squared Euclidean norm.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    norm_sq(a).sqrt()
}

/// Squared Euclidean distance between two points.
///
/// Same chunked-lane summation order as [`dot`].
#[inline]
pub fn dist_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dist_sq: length mismatch");
    let mut lanes = [0.0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for j in 0..LANES {
            let d = ca[j] - cb[j];
            lanes[j] += d * d;
        }
    }
    for (j, (x, y)) in ac.remainder().iter().zip(bc.remainder()).enumerate() {
        lanes[j] += (x - y) * (x - y);
    }
    reduce_lanes(lanes)
}

/// Euclidean distance between two points.
#[inline]
pub fn dist(a: &[f32], b: &[f32]) -> f32 {
    dist_sq(a, b).sqrt()
}

/// `y += alpha * x` (the classic axpy kernel).
///
/// Element-wise, so the chunking is purely a speed matter: every element
/// ends up exactly `y[i] + alpha * x[i]`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    let mut yc = y.chunks_exact_mut(LANES);
    let mut xc = x.chunks_exact(LANES);
    for (cy, cx) in (&mut yc).zip(&mut xc) {
        for j in 0..LANES {
            cy[j] += alpha * cx[j];
        }
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// `y = alpha * y`.
///
/// Element-wise; bit-identical to the one-element loop.
#[inline]
pub fn scale(alpha: f32, y: &mut [f32]) {
    let mut yc = y.chunks_exact_mut(LANES);
    for cy in &mut yc {
        for v in cy {
            *v *= alpha;
        }
    }
    for yi in yc.into_remainder() {
        *yi *= alpha;
    }
}

/// Fill a slice with zeros.
#[inline]
pub fn zero(y: &mut [f32]) {
    y.fill(0.0);
}

/// Normalize `y` to unit Euclidean length in place.
///
/// A zero (or numerically tiny) vector is left untouched so that OOV null
/// vectors survive normalization unchanged — the paper's series solver
/// (Eq. 9) divides by the vector length and we mirror its convention that a
/// zero numerator stays zero.
#[inline]
pub fn normalize(y: &mut [f32]) {
    let n = norm(y);
    if n > f32::EPSILON {
        scale(1.0 / n, y);
    }
}

/// Cosine similarity, with the convention that a zero vector has similarity
/// zero to everything.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Element-wise mean of a set of equal-length vectors.
///
/// Returns a zero vector of dimension `dim` when `vecs` is empty, matching
/// the paper's treatment of categories with no in-vocabulary member.
pub fn centroid<'a, I>(vecs: I, dim: usize) -> Vec<f32>
where
    I: IntoIterator<Item = &'a [f32]>,
{
    let mut acc = vec![0.0f32; dim];
    let mut count = 0usize;
    for v in vecs {
        debug_assert_eq!(v.len(), dim, "centroid: dimension mismatch");
        axpy(1.0, v, &mut acc);
        count += 1;
    }
    if count > 0 {
        scale(1.0 / count as f32, &mut acc);
    }
    acc
}

/// True when every component differs by at most `tol`.
#[inline]
pub fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(norm(&[0.0, 1.0, 0.0]), 1.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let a = [1.0, 2.0, -1.0];
        let b = [0.5, -2.0, 3.0];
        assert_eq!(dist(&a, &b), dist(&b, &a));
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn normalize_makes_unit_length() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector() {
        let mut v = vec![0.0, 0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn cosine_of_parallel_vectors() {
        assert!((cosine(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_convention() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn centroid_of_two_points() {
        let a = [0.0f32, 2.0];
        let b = [2.0f32, 0.0];
        let c = centroid([a.as_slice(), b.as_slice()], 2);
        assert_eq!(c, vec![1.0, 1.0]);
    }

    #[test]
    fn centroid_of_empty_set_is_zero() {
        let c = centroid(std::iter::empty(), 3);
        assert_eq!(c, vec![0.0, 0.0, 0.0]);
    }
}
