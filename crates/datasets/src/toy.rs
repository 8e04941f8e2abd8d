//! The Fig. 3 toy example: three movies, two countries, 2-D embeddings.
//!
//! "We trained 2-dimensional embeddings for a small example dataset
//! containing three movies and the country where those movies have been
//! produced. [...] 'Amélie' was produced in 'France', the other movies in
//! the 'USA'."

use retro_core::catalog::TextValueCatalog;
use retro_core::relations::{RelationGroup, RelationKind};
use retro_core::RetrofitProblem;
use retro_embed::EmbeddingSet;

/// Handles into the toy problem for plotting/assertions.
#[derive(Clone, Debug)]
pub struct ToyExample {
    /// The assembled problem (2-D, 5 text values).
    pub problem: RetrofitProblem,
    /// Value ids: `[inception, godfather, amelie]`.
    pub movies: [usize; 3],
    /// Value ids: `[usa, france]`.
    pub countries: [usize; 2],
}

/// Build the Fig. 3 toy problem.
///
/// Base vectors are fixed 2-D positions chosen so the four hyperparameter
/// effects of Fig. 3 are visible: movies are spread apart, countries sit
/// off to the sides, "Amélie" starts nearer to "France".
pub fn toy_problem() -> ToyExample {
    let mut catalog = TextValueCatalog::default();
    let movies_cat = catalog.add_category("movies", "title");
    let countries_cat = catalog.add_category("countries", "name");
    let inception = catalog.intern(movies_cat, "inception") as usize;
    let godfather = catalog.intern(movies_cat, "godfather") as usize;
    let amelie = catalog.intern(movies_cat, "amelie") as usize;
    let usa = catalog.intern(countries_cat, "usa") as usize;
    let france = catalog.intern(countries_cat, "france") as usize;

    let groups = vec![RelationGroup::new(
        "movies.title~countries.name".into(),
        movies_cat,
        countries_cat,
        RelationKind::ForeignKey,
        vec![
            (inception as u32, usa as u32),
            (godfather as u32, usa as u32),
            (amelie as u32, france as u32),
        ],
    )];

    let base = EmbeddingSet::new(
        vec![
            "inception".into(),
            "godfather".into(),
            "amelie".into(),
            "usa".into(),
            "france".into(),
        ],
        vec![vec![1.0, 1.2], vec![1.4, -0.4], vec![-0.8, 1.0], vec![1.8, 0.4], vec![-1.4, -0.2]],
    );

    let problem = RetrofitProblem::from_parts(catalog, groups, &base);
    ToyExample { problem, movies: [inception, godfather, amelie], countries: [usa, france] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retro_core::hyper::Hyperparameters;
    use retro_core::solver::{solve, Solver};
    use retro_linalg::vector;

    #[test]
    fn toy_has_five_two_dimensional_values() {
        let toy = toy_problem();
        assert_eq!(toy.problem.len(), 5);
        assert_eq!(toy.problem.dim(), 2);
        assert!(toy.problem.oov.iter().all(|&o| !o));
    }

    #[test]
    fn higher_alpha_stays_closer_to_original() {
        // Fig. 3a: learned embeddings stay closer to their originals as α
        // increases.
        let toy = toy_problem();
        let mut prev_drift = f32::INFINITY;
        for alpha in [1.0f32, 2.0, 3.0] {
            let params = Hyperparameters::new(alpha, 1.0, 2.0, 1.0);
            let w = solve(&toy.problem, Solver::Ro, &params, 20, None);
            let drift: f32 = (0..5).map(|i| vector::dist(w.row(i), toy.problem.w0.row(i))).sum();
            assert!(drift < prev_drift, "alpha {alpha}: drift {drift} !< {prev_drift}");
            prev_drift = drift;
        }
    }

    #[test]
    fn higher_beta_tightens_categories() {
        // Fig. 3b: higher β clusters the movie vectors together.
        let toy = toy_problem();
        let spread = |w: &retro_linalg::Matrix| {
            let [a, b, c] = toy.movies;
            vector::dist(w.row(a), w.row(b))
                + vector::dist(w.row(b), w.row(c))
                + vector::dist(w.row(a), w.row(c))
        };
        let lo =
            solve(&toy.problem, Solver::Ro, &Hyperparameters::new(2.0, 1.0, 2.0, 1.0), 20, None);
        let hi =
            solve(&toy.problem, Solver::Ro, &Hyperparameters::new(2.0, 3.0, 2.0, 1.0), 20, None);
        assert!(spread(&hi) < spread(&lo));
    }

    #[test]
    fn higher_gamma_pulls_related_pairs() {
        // Fig. 3c: higher γ brings movies nearer their production country.
        let toy = toy_problem();
        let related = |w: &retro_linalg::Matrix| {
            vector::dist(w.row(toy.movies[0]), w.row(toy.countries[0]))
                + vector::dist(w.row(toy.movies[2]), w.row(toy.countries[1]))
        };
        let lo =
            solve(&toy.problem, Solver::Ro, &Hyperparameters::new(2.0, 1.0, 1.0, 1.0), 20, None);
        let hi =
            solve(&toy.problem, Solver::Ro, &Hyperparameters::new(2.0, 1.0, 3.0, 1.0), 20, None);
        assert!(related(&hi) < related(&lo));
    }

    #[test]
    fn delta_zero_concentrates_vectors_near_origin() {
        // Fig. 3d: "δ = 0 causes all vectors to concentrate around the
        // origin" for the series solver (before normalization the pull has
        // no counter-force; after normalization the *separation* shrinks).
        let toy = toy_problem();
        let w0 =
            solve(&toy.problem, Solver::Rn, &Hyperparameters::new(2.0, 1.0, 3.0, 0.0), 20, None);
        let w2 =
            solve(&toy.problem, Solver::Rn, &Hyperparameters::new(2.0, 1.0, 3.0, 2.0), 20, None);
        // Average pairwise cosine similarity: higher when concentrated.
        let avg_cos = |w: &retro_linalg::Matrix| {
            let mut s = 0.0f32;
            let mut n = 0;
            for i in 0..5 {
                for j in (i + 1)..5 {
                    s += vector::cosine(w.row(i), w.row(j));
                    n += 1;
                }
            }
            s / n as f32
        };
        assert!(avg_cos(&w0) > avg_cos(&w2));
    }
}
