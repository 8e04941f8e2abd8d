//! Recall gate for the IVF-flat ANN path against the exact
//! `top_k_cosine` oracle.
//!
//! Four contracts, each over randomized inputs:
//!
//! * **Full probing IS the oracle.** For arbitrary matrices — any dims,
//!   row counts, seeds — probing every inverted list returns bit-for-bit
//!   the exact scan's ids *and* scores. The ANN path shares the exact
//!   path's dot kernel, sanitize rules, and tie-breaking, so there is no
//!   "approximately equal" here: it is the same ranking.
//! * **Codes prune, they never rank.** At every probe depth, the probe over
//!   8-bit list codes returns bit-for-bit the `f32` scan of the probed
//!   lists' members, for extreme rows and queries as much as for plain
//!   ones.
//! * **Recall@10 ≥ 0.95 at sub-linear probe depth** on planted-cluster
//!   data (the shape retrofitted embeddings have: topics pull their
//!   values together), probing a quarter of the lists.
//! * **Adversarial rows never surface.** NaN-poisoned and zero-norm rows
//!   — which the exact path already pins to sanitized `0.0` scores — must
//!   behave identically through the approximate path, at every probe
//!   depth.

use proptest::prelude::*;
use retro::embed::nn::top_k_cosine;
use retro::linalg::{vector, Matrix};
use retro::nn::ann::{IvfConfig, IvfIndex};

/// Deterministic pseudo-random matrix (values in roughly [-1, 1]).
fn random_matrix(rows: usize, dim: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, dim, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    })
}

/// Planted-cluster matrix: `n` rows scattered (with noise) around
/// `clusters` well-separated anchor directions.
fn clustered_matrix(n: usize, dim: usize, clusters: usize, seed: u64) -> Matrix {
    let anchors = random_matrix(clusters, dim, seed.wrapping_mul(7919));
    let noise = random_matrix(n, dim, seed.wrapping_mul(104729));
    Matrix::from_fn(n, dim, |r, c| anchors.get(r % clusters, c) + 0.12 * noise.get(r, c))
}

/// A ranking with its scores as bits, so `-0.0` and `0.0` differ.
fn bits(ranked: &[(usize, f32)]) -> Vec<(usize, u32)> {
    ranked.iter().map(|&(id, score)| (id, score.to_bits())).collect()
}

fn recall_at_10(
    index: &IvfIndex,
    m: &Matrix,
    norms: &[f32],
    probes: usize,
    queries: &[usize],
) -> f64 {
    let mut overlap = 0usize;
    let mut denom = 0usize;
    for &q in queries {
        let exact = top_k_cosine(m, norms, m.row(q), 10, 1, |_| false);
        let approx = index.search(m, m.row(q), 10, probes);
        overlap += approx.iter().filter(|(id, _)| exact.iter().any(|(e, _)| e == id)).count();
        denom += exact.len();
    }
    overlap as f64 / denom.max(1) as f64
}

/// The `f32` reference of a probe: the exact scan over the members of the
/// `probes` lists whose centroids score highest against `query` (a
/// non-finite centroid score ranks last, ties go to the lower list id),
/// with every other row excluded, as well as the rows `exclude` names.
fn probe_reference(
    index: &IvfIndex,
    m: &Matrix,
    query: &[f32],
    k: usize,
    probes: usize,
    exclude: impl Fn(usize) -> bool,
) -> Vec<(usize, f32)> {
    let mut ranked: Vec<(f32, usize)> = (0..index.nlist())
        .map(|l| {
            let dot = vector::dot(index.centroids().row(l), query);
            (if dot.is_finite() { dot } else { f32::NEG_INFINITY }, l)
        })
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut probed = vec![false; m.rows()];
    for &(_, l) in &ranked[..probes.clamp(1, index.nlist())] {
        index.list(l).iter().for_each(|&id| probed[id as usize] = true);
    }
    top_k_cosine(m, &m.row_norms(), query, k, 1, |id| !probed[id] || exclude(id))
}

/// A random matrix with extreme rows planted at `plant`: zero, `NaN`,
/// `±inf` and 1e30-scale rows, constant rows, and duplicates of other
/// rows (which tie with them and break by id).
fn planted_matrix(rows: usize, dim: usize, seed: u64, plant: &[(usize, u8)]) -> Matrix {
    let mut m = random_matrix(rows, dim, seed);
    for &(r, kind) in plant {
        let r = r % rows;
        let source = m.row((r * 7 + 3) % rows).to_vec();
        let row = m.row_mut(r);
        match kind {
            0 => row.fill(0.0),
            1 => row[r % dim] = f32::NAN,
            2 => row[r % dim] = f32::INFINITY,
            3 => row[r % dim] = f32::NEG_INFINITY,
            4 => row.iter_mut().for_each(|v| *v *= 1e30),
            5 => row.fill(0.25 * (r % 5) as f32 - 0.5),
            _ => row.copy_from_slice(&source),
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The SQ8 probe equals its `f32` reference bit for bit — ids, score
    /// bits and tie order — at every probe depth, for `k` of 0, 1, 10 and
    /// more than the candidates, with and without exclusions, for plain,
    /// zero, non-finite and overflowing queries over matrices with planted
    /// extreme, constant and duplicate rows.
    #[test]
    fn the_code_probe_equals_the_f32_scan_of_its_lists(
        rows in 1usize..300,
        dim in 1usize..40,
        seed in 0u64..u64::MAX,
        plant in prop::collection::vec((0usize..300, 0u8..8), 0..12),
    ) {
        let m = planted_matrix(rows, dim, seed, &plant);
        let index = IvfIndex::build(&m, &m.row_norms(), IvfConfig::auto(rows).with_seed(seed), 2);
        let queries: Vec<Vec<f32>> = vec![
            m.row(0).to_vec(),
            m.row(rows / 2).to_vec(),
            random_matrix(1, dim, seed ^ 0x5eed).row(0).to_vec(),
            vec![0.0; dim],
            (0..dim).map(|c| if c == 0 { f32::NAN } else { 0.5 }).collect(),
            (0..dim).map(|c| if c == dim - 1 { f32::NEG_INFINITY } else { -0.25 }).collect(),
            vec![3e30; dim],
        ];
        for (q, query) in queries.iter().enumerate() {
            for probes in [1, index.nlist().div_ceil(2), index.nlist()] {
                for k in [0, 1, 10, rows + 5] {
                    let (probe, reference) = (
                        bits(&index.search(&m, query, k, probes)),
                        bits(&probe_reference(&index, &m, query, k, probes, |_| false)),
                    );
                    prop_assert!(
                        probe == reference,
                        "query {} at {} probes, k = {}: {:?} != {:?}",
                        q, probes, k, probe, reference
                    );
                    let odd = |id: usize| id % 3 == 1;
                    let (probe, reference) = (
                        bits(&index.search_filtered(&m, query, k, probes, odd)),
                        bits(&probe_reference(&index, &m, query, k, probes, odd)),
                    );
                    prop_assert!(
                        probe == reference,
                        "query {} excluding at {} probes, k = {}: {:?} != {:?}",
                        q, probes, k, probe, reference
                    );
                }
            }
        }
    }

    /// Probing every list reproduces the oracle bit for bit — on matrices
    /// with no structure at all, across dims, row counts, and seeds.
    #[test]
    fn full_probe_equals_the_exact_oracle(
        rows in 1usize..400,
        dim in 2usize..24,
        seed in 0u64..u64::MAX,
        k in 1usize..16,
    ) {
        let m = random_matrix(rows, dim, seed);
        let norms = m.row_norms();
        let config = IvfConfig::auto(rows).with_seed(seed);
        let index = IvfIndex::build(&m, &norms, config, 1);
        for q in [0usize, rows / 2, rows - 1] {
            let exact = top_k_cosine(&m, &norms, m.row(q), k, 1, |_| false);
            let approx = index.search(&m, m.row(q), k, index.nlist());
            prop_assert_eq!(&approx, &exact);
        }
    }

    /// Poisoned rows (NaN, ±inf, zero-norm) behave through the ANN path
    /// exactly as through the exact path: sanitized to score 0.0, never
    /// outranking any positive-scoring row, at EVERY probe depth.
    #[test]
    fn adversarial_rows_never_surface(
        rows in 8usize..200,
        dim in 2usize..16,
        seed in 0u64..u64::MAX,
        poison in prop::collection::vec((0usize..200, 0u8..3), 1..6),
    ) {
        let mut m = random_matrix(rows, dim, seed);
        let mut poisoned = Vec::new();
        for &(r, kind) in &poison {
            let r = r % rows;
            match kind {
                0 => m.row_mut(r).fill(0.0),
                1 => m.row_mut(r)[r % dim] = f32::NAN,
                _ => m.row_mut(r)[r % dim] = f32::INFINITY,
            }
            poisoned.push(r);
        }
        let norms = m.row_norms();
        let index = IvfIndex::build(&m, &norms, IvfConfig::auto(rows).with_seed(seed), 1);

        // A clean query row (fall back to a constant vector if every row
        // got poisoned).
        let clean = (0..rows).find(|r| !poisoned.contains(r));
        let query: Vec<f32> = match clean {
            Some(r) => m.row(r).to_vec(),
            None => (0..dim).map(|c| (c as f32 + 1.0) * 0.1).collect(),
        };

        for probes in [1usize, index.nlist() / 2, index.nlist()] {
            let top = index.search(&m, &query, rows, probes);
            for &(id, score) in &top {
                prop_assert!(score.is_finite(), "non-finite score {} for row {}", score, id);
                if poisoned.contains(&id) {
                    prop_assert!(score == 0.0, "poisoned row {} must score 0.0, got {}", id, score);
                }
            }
            // Sorted descending: a poisoned row can never precede a
            // positive-scoring clean row.
            for pair in top.windows(2) {
                prop_assert!(pair[0].1 >= pair[1].1, "ranking not descending");
            }
        }

        // And at full depth, bit-equal to the (already pinned) oracle.
        let exact = top_k_cosine(&m, &norms, &query, 10, 1, |_| false);
        prop_assert_eq!(index.search(&m, &query, 10, index.nlist()), exact);
    }

    /// The recall gate: on clustered data — the shape served snapshots
    /// have — probing a quarter of the lists keeps recall@10 ≥ 0.95.
    #[test]
    fn recall_at_10_stays_above_095_at_quarter_probes(
        n in 1_500usize..3_000,
        dim_pick in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let dim = [8usize, 16, 32][dim_pick];
        let m = clustered_matrix(n, dim, 10, seed);
        let norms = m.row_norms();
        let config = IvfConfig::auto(n).with_seed(seed);
        let index = IvfIndex::build(&m, &norms, config, 1);
        let probes = index.nlist().div_ceil(4);
        let queries: Vec<usize> = (0..40).map(|i| i * n / 40).collect();
        let recall = recall_at_10(&index, &m, &norms, probes, &queries);
        prop_assert!(
            recall >= 0.95,
            "recall@10 {} with {}/{} probes over {} rows",
            recall, probes, index.nlist(), n
        );
    }
}

/// The same gate once at a fixed larger size, with the default probe
/// depth (an eighth of the lists) — the knob serving actually defaults to.
#[test]
fn default_probes_reach_gate_recall_on_clustered_data() {
    let n = 6_000;
    let m = clustered_matrix(n, 16, 12, 42);
    let norms = m.row_norms();
    let index = IvfIndex::build(&m, &norms, IvfConfig::auto(n), 1);
    let queries: Vec<usize> = (0..60).map(|i| i * n / 60).collect();
    let recall = recall_at_10(&index, &m, &norms, index.default_probes(), &queries);
    assert!(
        recall >= 0.95,
        "recall@10 {recall} at default probes {}/{}",
        index.default_probes(),
        index.nlist()
    );
}
