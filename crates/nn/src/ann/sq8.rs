//! SQ8 list codes, and the score bounds that let a probe prune on them
//! without ever changing its answer.
//!
//! A row `x` of width `D` is stored as one byte `c_i` per dimension plus
//! its [`Sq8`] parameters: `lo`, `scale` and `err`. Its reconstruction is
//! `x̂_i = lo + scale·c_i` in exact arithmetic, and `err ≥ ‖x − x̂‖` is
//! rounded up. A query `q` becomes an integer image `t_i ∈ [−Q, Q]` with a
//! step `δ`, so that `q = δ·t + e_q`. One integer dot `C = Σ c_i·t_i`
//! (`i32` lanes, [`QueryImage::code_dots`]) then gives each candidate an
//! interval `[L, U]` that provably contains the score the exact scan
//! computes for it ([`QueryImage::bounds`]).

use retro_linalg::vector;

/// How one row is coded: its reconstruction is `lo + scale·code_i` in
/// exact arithmetic, and `err` is a rounded-up bound on the L2 distance
/// between the row and that reconstruction. A row with a non-finite value
/// is coded all zero with `err = +inf`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sq8 {
    /// The row's smallest value.
    pub lo: f32,
    /// The width of one code step, `(max − lo) / 255` rounded to `f32`.
    pub scale: f32,
    /// `err ≥ ‖x − x̂‖`, rounded up.
    pub err: f32,
}

/// The widest row a query image prunes on. Wider rows are probed without
/// pruning: every candidate is re-ranked, which is still exact. The bound
/// below relies on `dim ≤ 2¹⁶` in three places, each noted.
const MAX_PRUNED_DIM: usize = 1 << 16;

/// `2⁻³⁰`: absorbs the `f64` rounding of the bound arithmetic itself.
const EVAL_SLACK: f64 = 1.0 / (1u64 << 30) as f64;

/// Append the SQ8 code of `row` to `codes` and return its parameters.
///
/// The bound `err` is derived from the stored codes, not from the rounding
/// rule that picked them, so any choice of codes is sound. In `f64`,
/// `lo + scale·c_i` has an exact product (24 × 8 bits) and one rounding
/// for the sum, within `2⁻⁵³·M` of the real reconstruction, where
/// `M = |lo| + 255·scale` bounds every `|x̂_i|`. The difference, the
/// squares, the sum and the square root add relative errors below
/// `(D + 4)·2⁻⁵³` in all, so
/// `‖x − x̂‖ ≤ √S·(1 + (D + 4)·2⁻⁵²) + √D·2⁻⁵¹·M`, where `S` is the
/// computed sum of squared differences. The bound stored below doubles both
/// error terms and rounds up; the surplus covers its own evaluation.
pub(super) fn encode(row: &[f32], codes: &mut Vec<u8>) -> Sq8 {
    let start = codes.len();
    codes.resize(start + row.len(), 0);
    let Some((lo, hi)) = finite_range(row) else {
        let err = if row.is_empty() { 0.0 } else { f32::INFINITY };
        return Sq8 { lo: 0.0, scale: 0.0, err };
    };
    let scale = ((f64::from(hi) - f64::from(lo)) / 255.0) as f32;
    // The nearest step, clamped to 0..=255 and rounded by adding 2²³:
    // the sum's low mantissa byte is then the rounded integer. A zero scale
    // (or one too small to invert) leaves every code 0.
    let inv = 1.0 / scale;
    if inv.is_finite() {
        for (code, &v) in codes[start..].iter_mut().zip(row) {
            let steps = ((v - lo) * inv).clamp(0.0, 255.0);
            *code = (steps + 8_388_608.0).to_bits() as u8;
        }
    }
    let (lo64, scale64) = (f64::from(lo), f64::from(scale));
    let mut lanes = [0.0f64; 4];
    let mut pairs = row.chunks_exact(4).zip(codes[start..].chunks_exact(4));
    for (values, codes) in &mut pairs {
        for j in 0..4 {
            let d = f64::from(values[j]) - (lo64 + scale64 * f64::from(codes[j]));
            lanes[j] += d * d;
        }
    }
    let tail = row.len() / 4 * 4;
    for (j, (&v, &code)) in row[tail..].iter().zip(&codes[start + tail..]).enumerate() {
        let d = f64::from(v) - (lo64 + scale64 * f64::from(code));
        lanes[j] += d * d;
    }
    let sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    let width = row.len() as f64;
    let tiny = (1u64 << 50) as f64;
    let bound = sum.sqrt() * (1.0 + (width + 8.0) / tiny)
        + (width.sqrt() + 1.0) / tiny * (lo64.abs() + 255.0 * scale64);
    Sq8 { lo, scale, err: round_up(bound) }
}

/// The least and greatest of `values`, or `None` when there are none or
/// one is `NaN` or `±inf`. Eight lanes a step, so the compiler vectorizes
/// it; `v · 0` is `NaN` exactly when `v` is not finite.
fn finite_range(values: &[f32]) -> Option<(f32, f32)> {
    const EXPONENT: u32 = 0x7f80_0000;
    let &first = values.first()?;
    let (mut lo, mut hi, mut bad) = ([first; 8], [first; 8], [0u32; 8]);
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        for j in 0..8 {
            let v = chunk[j];
            lo[j] = if v < lo[j] { v } else { lo[j] };
            hi[j] = if v > hi[j] { v } else { hi[j] };
            bad[j] |= u32::from(v.to_bits() & EXPONENT == EXPONENT);
        }
    }
    for (j, &v) in chunks.remainder().iter().enumerate() {
        lo[j] = if v < lo[j] { v } else { lo[j] };
        hi[j] = if v > hi[j] { v } else { hi[j] };
        bad[j] |= u32::from(v.to_bits() & EXPONENT == EXPONENT);
    }
    if bad.iter().any(|&b| b != 0) {
        return None;
    }
    Some((lo.into_iter().fold(first, f32::min), hi.into_iter().fold(first, f32::max)))
}

/// The largest query level `Q` for rows of width `dim`: the `i32`
/// accumulator of [`QueryImage::code_dots`] sums `dim` products of at most
/// `255·Q`, so `Q ≤ (2³¹ − 1) / (255·dim)` keeps it from overflowing at any
/// width; `Q` is also capped at `i16::MAX`, the width of the image.
pub(super) fn levels(dim: usize) -> i16 {
    (i32::MAX as usize / (255 * dim.max(1))).min(i16::MAX as usize) as i16
}

/// A query's integer image and the per-query constants of its score
/// bounds.
#[derive(Clone, Debug)]
pub(super) struct QueryImage {
    /// `t_i`, with `q ≈ δ·t`.
    levels: Vec<i16>,
    /// `δ·Σt_i / ‖q‖`: the weight of a row's `lo` in its score estimate.
    lo_weight: f64,
    /// `δ / ‖q‖`: the weight of a row's `scale·C`.
    code_weight: f64,
    /// The radius every candidate pays, whatever its code error.
    base_radius: f64,
    /// The weight of a row's relative code error `err / ‖x‖` in its radius.
    err_weight: f64,
    /// The query's cached norm, in `f64`.
    norm: f64,
}

impl QueryImage {
    /// The image of `query`, or `None` when its scores cannot be pruned
    /// on: a query of zero, `NaN` or `±inf` norm (every exact score is then
    /// `±0.0`, so every candidate ties) or one wider than
    /// [`MAX_PRUNED_DIM`].
    pub(super) fn new(query: &[f32]) -> Option<Self> {
        let dim = query.len();
        let norm = vector::norm(query);
        if !super::usable(norm) || dim > MAX_PRUNED_DIM {
            return None;
        }
        let top = i32::from(levels(dim));
        // A usable norm bounds the largest value below: `max|q_i| ≥
        // ‖q‖/√D > 2⁻²³·2⁻⁸`, so the step is a normal `f32` (dim ≤ 2¹⁶).
        let max = query.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let step = max / top as f32;
        let (mut image, mut sum, mut residual) = (Vec::with_capacity(dim), 0i64, 0.0f64);
        for &v in query {
            let t = (v / step).round().clamp(-top as f32, top as f32) as i16;
            // `step·t` is exact in `f64` (24 × 16 bits); one rounding left.
            let e = f64::from(v) - f64::from(step) * f64::from(t);
            residual += e * e;
            sum += i64::from(t);
            image.push(t);
        }
        // `‖e_q‖` with its `(D + 3)·2⁻⁵³` relative rounding covered
        // (dim ≤ 2¹⁶).
        let e_q = residual.sqrt() * (1.0 + EVAL_SLACK);
        let (norm64, step64) = (f64::from(norm), f64::from(step));
        let u = f64::from(f32::EPSILON) / 2.0;
        let terms = (dim + 4) as f64 * u;
        let gamma = terms / (1.0 - terms);
        let kappa = 2.0 * gamma;
        let relative = e_q / norm64;
        Some(Self {
            levels: image,
            lo_weight: step64 * sum as f64 / norm64,
            code_weight: step64 / norm64,
            base_radius: (1.0 + kappa) * relative + 2.0 * gamma + 8.0 * u + EVAL_SLACK,
            err_weight: relative + 1.0 + kappa,
            norm: norm64,
        })
    }

    /// `C = Σ c_i · t_i` for each row of a list's `codes`, appended to
    /// `out`: the integer kernel of a probe. It cannot overflow: see
    /// [`levels`].
    pub(super) fn code_dots(&self, codes: &[u8], out: &mut Vec<i32>) {
        code_dots(codes, &self.levels, out);
    }

    /// An interval `[L, U]` that contains the score the exact scan computes
    /// for a row coded as `params` with integer dot `dot` and cached norm
    /// `norm`: `sanitize(vector::dot(x, q), ‖q‖, ‖x‖)` in `retro_embed::nn`.
    ///
    /// Write `u = 2⁻²⁴`, `γ = (D + 4)·u/(1 − (D + 4)·u)`, and let `‖q‖`,
    /// `‖x‖` be the cached `f32` norms (each `vector::norm` of its bits).
    ///
    /// * A row of zero, `NaN` or `±inf` norm scores `±0.0`: `[0, 0]`.
    /// * Each `f32` norm is within a relative `γ` of the exact one (the
    ///   products that underflow are negligible above `2⁻²³`), so the exact
    ///   norms are at most `(1 + κ)` times the cached ones, `κ = 2γ`.
    /// * The computed dot of `D` products, in the lane order of
    ///   `vector::dot` (at most `D/8 + 4` roundings per product), is within
    ///   `γ·‖x‖‖q‖ + D·2⁻¹⁴⁹` of the exact dot `p`. The score divides it by
    ///   the rounded product of the norms, two more roundings. With both
    ///   norms above `2⁻²³`, the computed score is within
    ///   `ε = 2γ + 8u` of `P = p / (‖q‖·‖x‖)` (using `(1 + κ)² ≤ 2`, true
    ///   for `dim ≤ 2¹⁶`).
    /// * Exactly, `p = δ·(lo·Σt + scale·C) + x̂·e_q + (x − x̂)·q`, and by
    ///   Cauchy–Schwarz the last two terms are at most
    ///   `(‖x‖ + err)·‖e_q‖ + err·‖q‖`. Divided by `‖q‖·‖x‖`:
    ///   `|P − centre| ≤ (1 + κ)·ε_q + (err/‖x‖)·(ε_q + 1 + κ)`, where
    ///   `ε_q = ‖e_q‖/‖q‖` and `centre = (δ·Σt/‖q‖·lo + δ/‖q‖·scale·C)/‖x‖`.
    /// * The `f64` evaluation of this interval errs by less than `2⁻³⁸`
    ///   (each term is below `2¹¹` for `dim ≤ 2¹⁶`); `2⁻³⁰` is added.
    /// * If `‖q‖·‖x‖ > f32::MAX/4`, the dot or the norm product may
    ///   overflow, and an overflowed score is sanitized to `±0.0`, so the
    ///   interval is widened to contain 0. Below that nothing overflows.
    #[inline]
    pub(super) fn bounds(&self, dot: i32, params: Sq8, norm: f32) -> (f64, f64) {
        let inv = 1.0 / f64::from(norm);
        let estimate = self.lo_weight * f64::from(params.lo)
            + self.code_weight * f64::from(params.scale) * f64::from(dot);
        let centre = estimate * inv;
        let radius = self.base_radius + self.err_weight * f64::from(params.err) * inv;
        let (lower, upper) = (centre - radius, centre + radius);
        let overflow = self.norm * f64::from(norm) > f64::from(f32::MAX) / 4.0;
        let lower = if overflow { lower.min(0.0) } else { lower };
        let upper = if overflow { upper.max(0.0) } else { upper };
        if super::usable(norm) {
            (lower, upper)
        } else {
            (0.0, 0.0)
        }
    }
}

/// Append to `out` the dot of each `levels.len()`-byte row of `codes`
/// with `levels`, in `i32`: [`code_dot_scalar`] per row, four rows at a
/// time with SSE2's 16-bit multiply-add (`pmaddwd`: the codes widen to
/// `i16`, adjacent products sum into `i32` lanes), which every x86-64 has.
/// Compiled from the scalar loop, each code widens to 32 bits and every
/// multiply-add does half the work. Every partial sum is bounded by
/// `Σ|codes_i · levels_i|`, so no lane overflows where the total cannot.
#[cfg(target_arch = "x86_64")]
fn code_dots(codes: &[u8], levels: &[i16], out: &mut Vec<i32>) {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_loadu_si128, _mm_madd_epi16, _mm_setzero_si128,
        _mm_storeu_si128, _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpackhi_epi8,
        _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_unpacklo_epi8,
    };
    let dim = levels.len();
    let rows = codes.len() / dim.max(1);
    let body = dim / 16 * 16;
    let mut r = 0;
    while r + 4 <= rows {
        let block = &codes[r * dim..(r + 4) * dim];
        let mut sums = [0i32; 4];
        // SAFETY: SSE2 is part of the x86-64 baseline. Every load reads 16
        // bytes at `s < body ≤ dim` from `levels` (`s + 16 ≤ dim`) or from
        // one of the block's four rows (`i·dim + s + 16 ≤ 4·dim`), and the
        // store writes the 16 bytes of `sums`.
        unsafe {
            let zero = _mm_setzero_si128();
            let mut acc = [_mm_setzero_si128(); 4];
            for s in (0..body).step_by(16) {
                let t0 = _mm_loadu_si128(levels.as_ptr().add(s).cast::<__m128i>());
                let t1 = _mm_loadu_si128(levels.as_ptr().add(s + 8).cast::<__m128i>());
                for (i, acc) in acc.iter_mut().enumerate() {
                    let c = _mm_loadu_si128(block.as_ptr().add(i * dim + s).cast::<__m128i>());
                    let low = _mm_madd_epi16(_mm_unpacklo_epi8(c, zero), t0);
                    let high = _mm_madd_epi16(_mm_unpackhi_epi8(c, zero), t1);
                    *acc = _mm_add_epi32(*acc, _mm_add_epi32(low, high));
                }
            }
            // Transpose-add: lane i of the result sums accumulator i.
            let [a0, a1, a2, a3] = acc;
            let s01 = _mm_add_epi32(_mm_unpacklo_epi32(a0, a1), _mm_unpackhi_epi32(a0, a1));
            let s23 = _mm_add_epi32(_mm_unpacklo_epi32(a2, a3), _mm_unpackhi_epi32(a2, a3));
            let sum = _mm_add_epi32(_mm_unpacklo_epi64(s01, s23), _mm_unpackhi_epi64(s01, s23));
            _mm_storeu_si128(sums.as_mut_ptr().cast::<__m128i>(), sum);
        }
        for (i, sum) in sums.into_iter().enumerate() {
            let row = &block[i * dim..(i + 1) * dim];
            out.push(sum + code_dot_scalar(&row[body..], &levels[body..]));
        }
        r += 4;
    }
    out.extend(codes[r * dim..].chunks_exact(dim).map(|row| code_dot_scalar(row, levels)));
}

#[cfg(not(target_arch = "x86_64"))]
fn code_dots(codes: &[u8], levels: &[i16], out: &mut Vec<i32>) {
    out.extend(codes.chunks_exact(levels.len()).map(|row| code_dot_scalar(row, levels)));
}

/// `Σ codes_i · levels_i`: the scalar model of [`code_dots`].
fn code_dot_scalar(codes: &[u8], levels: &[i16]) -> i32 {
    codes.iter().zip(levels).map(|(&c, &t)| i32::from(c) * i32::from(t)).sum()
}

/// `v` rounded toward `+inf` to an `f32` (`+inf` stays `+inf`).
fn round_up(v: f64) -> f32 {
    let f = v as f32;
    if f64::from(f) < v {
        f.next_up()
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_embed::nn::top_k_cosine;
    use retro_linalg::Matrix;

    /// Deterministic values spread over many magnitudes and both signs.
    fn values(seed: u64, n: usize, scale: f32) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let unit = (state >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
                unit * scale
            })
            .collect()
    }

    /// The score the exact scan computes for `row` against `query`.
    fn exact_score(row: &[f32], query: &[f32]) -> f32 {
        let m = Matrix::from_rows(&[row.to_vec()]);
        top_k_cosine(&m, &m.row_norms(), query, 1, 1, |_| false)[0].1
    }

    /// `[L, U]` of `row` against `query`, through the probe's own steps.
    fn interval(row: &[f32], query: &[f32]) -> Option<(f64, f64)> {
        let image = QueryImage::new(query)?;
        let mut codes = Vec::new();
        let params = encode(row, &mut codes);
        let mut dot = Vec::new();
        image.code_dots(&codes, &mut dot);
        Some(image.bounds(dot[0], params, vector::norm(row)))
    }

    fn assert_contains(row: &[f32], query: &[f32], context: &str) {
        let score = exact_score(row, query);
        match interval(row, query) {
            Some((lower, upper)) => assert!(
                lower <= f64::from(score) && f64::from(score) <= upper,
                "score {score} outside [{lower}, {upper}] {context}"
            ),
            None => assert_eq!(score, 0.0, "an unprunable query scores 0 {context}"),
        }
    }

    #[test]
    fn the_exact_score_lies_within_the_bound() {
        for dim in [1usize, 2, 7, 8, 64, 301] {
            for seed in 0..40u64 {
                let scale = [1.0, 1e-3, 3e5, 1e-20, 1e18][seed as usize % 5];
                let row = values(seed, dim, scale);
                let query = values(seed ^ 0xabcd, dim, [1.0, 7e-4, 2e6][seed as usize % 3]);
                assert_contains(&row, &query, &format!("(dim {dim}, seed {seed})"));
                // A row against itself: the score the bound is tightest around.
                assert_contains(&row, &row, &format!("(self, dim {dim}, seed {seed})"));
            }
        }
    }

    #[test]
    fn extreme_rows_and_queries_stay_within_the_bound() {
        let dim = 16;
        let sub = f32::from_bits(3); // a subnormal
        let smallest_normal = f32::MIN_POSITIVE;
        let mut rows: Vec<Vec<f32>> = vec![
            vec![0.0; dim],
            vec![1.0; dim],     // constant: hi == lo
            vec![sub; dim],     // subnormal: norm below epsilon
            vec![1e30; dim],    // norm overflows: scores 0
            vec![1.2e19; dim],  // finite norm near the limit
            vec![-3.0e18; dim], // the dot may overflow
            (0..dim).map(|i| if i == 0 { 1.0 } else { sub }).collect(),
            (0..dim).map(|i| if i % 2 == 0 { smallest_normal } else { 0.5 }).collect(),
            (0..dim).map(|i| if i == 3 { 1e30 } else { -1e-30 }).collect(),
            (0..dim).map(|i| if i == 5 { f32::NAN } else { 1.0 }).collect(),
            (0..dim).map(|i| if i == 1 { f32::INFINITY } else { 0.5 }).collect(),
            (0..dim).map(|i| if i == 1 { f32::NEG_INFINITY } else { 0.5 }).collect(),
        ];
        rows.push(
            values(11, dim, 1.0).into_iter().map(|v| if v > 0.5 { sub } else { v }).collect(),
        );
        let queries = rows.clone();
        for (r, row) in rows.iter().enumerate() {
            for (q, query) in queries.iter().enumerate() {
                assert_contains(row, query, &format!("(row {r}, query {q})"));
            }
            assert_contains(row, &values(r as u64, dim, 1.0), &format!("(row {r}, random query)"));
        }
    }

    #[test]
    fn codes_reconstruct_within_their_bound() {
        for (seed, scale) in [(1u64, 1.0f32), (2, 1e-30), (3, 1e30), (4, 5e-39)] {
            let row = values(seed, 50, scale);
            let mut codes = Vec::new();
            let params = encode(&row, &mut codes);
            assert_eq!(codes.len(), row.len());
            let error: f64 = row
                .iter()
                .zip(&codes)
                .map(|(&x, &c)| {
                    let x_hat = f64::from(params.lo) + f64::from(params.scale) * f64::from(c);
                    (f64::from(x) - x_hat).powi(2)
                })
                .sum::<f64>()
                .sqrt();
            assert!(error <= f64::from(params.err), "seed {seed}: {error} > {}", params.err);
        }
        // A constant row is exact but for the bound's own rounding slack; a
        // poisoned row has an unbounded error.
        let mut codes = Vec::new();
        let constant = encode(&[2.5; 9], &mut codes);
        assert_eq!((constant.lo, constant.scale), (2.5, 0.0));
        assert!(constant.err < 1e-12, "{constant:?}");
        assert_eq!(encode(&[1.0, f32::NAN], &mut codes).err, f32::INFINITY);
        assert_eq!(codes.len(), 11);
    }

    #[test]
    fn the_accumulator_cannot_overflow_at_any_width() {
        for dim in [1usize, 8, 64, 300, 2048, 4096, 65_536] {
            let top = i64::from(levels(dim));
            assert!(top >= 1, "dim {dim}");
            assert!(dim as i64 * 255 * top <= i64::from(i32::MAX), "dim {dim}");
        }
        // Full scale: every code 255, every query value at its widest
        // level, over five rows (one block of four and one row alone).
        let dim = 2048;
        let codes = vec![255u8; 5 * dim];
        for sign in [1.0f32, -1.0] {
            let image = QueryImage::new(&vec![sign * 3.5; dim]).expect("a usable query");
            let top = sign as i32 * i32::from(levels(dim));
            assert!(image.levels.iter().all(|&t| i32::from(t) == top));
            let wide: i64 = image.levels.iter().map(|&t| 255 * i64::from(t)).sum();
            let mut dots = Vec::new();
            image.code_dots(&codes, &mut dots);
            assert_eq!(dots.iter().map(|&d| i64::from(d)).collect::<Vec<_>>(), vec![wide; 5]);
        }
    }

    #[test]
    fn the_kernel_equals_its_scalar_model() {
        for dim in [1usize, 5, 15, 16, 17, 40, 64, 100] {
            let query = values(dim as u64, dim, 2.0);
            let image = QueryImage::new(&query).expect("a usable query");
            for rows in 0..10 {
                let codes: Vec<u8> = (0..rows * dim).map(|i| (i * 37 % 256) as u8).collect();
                let mut dots = Vec::new();
                image.code_dots(&codes, &mut dots);
                let model: Vec<i32> = codes
                    .chunks_exact(dim)
                    .map(|row| code_dot_scalar(row, &image.levels))
                    .collect();
                assert_eq!(dots, model, "dim {dim}, {rows} rows");
            }
        }
    }

    #[test]
    fn degenerate_and_wide_queries_are_not_pruned_on() {
        assert!(QueryImage::new(&[0.0; 8]).is_none());
        assert!(QueryImage::new(&[1.0, f32::NAN]).is_none());
        assert!(QueryImage::new(&[1e30; 4]).is_none(), "an overflowing norm");
        assert!(QueryImage::new(&vec![1.0; MAX_PRUNED_DIM + 1]).is_none());
        assert!(QueryImage::new(&vec![1.0; MAX_PRUNED_DIM]).is_some());
    }
}
