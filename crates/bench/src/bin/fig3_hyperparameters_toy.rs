//! **Figure 3** — influence of the four hyperparameters on the toy example
//! (three movies, two countries, 2-D embeddings).
//!
//! Prints the learned 2-D coordinates for each sweep so the four panels of
//! the figure can be redrawn: (a) α ∈ {1,2,3}, (b) β ∈ {1,2,3},
//! (c) γ ∈ {1,2,3}, (d) δ ∈ {0,1,2}.
//!
//! ```text
//! cargo run --release -p retro-bench --bin fig3_hyperparameters_toy
//! ```

use retro_core::hyper::Hyperparameters;
use retro_core::solver::{solve, Solver};
use retro_datasets::toy_problem;
use retro_linalg::vector;

fn main() {
    let toy = toy_problem();
    let names = ["inception", "godfather", "amelie", "usa", "france"];

    let panels: [(&str, [Hyperparameters; 3]); 4] = [
        (
            "(a) alpha = 1, 2, 3 (beta=1, gamma=2, delta=1)",
            [
                Hyperparameters::new(1.0, 1.0, 2.0, 1.0),
                Hyperparameters::new(2.0, 1.0, 2.0, 1.0),
                Hyperparameters::new(3.0, 1.0, 2.0, 1.0),
            ],
        ),
        (
            "(b) beta = 1, 2, 3 (alpha=2, gamma=2, delta=1)",
            [
                Hyperparameters::new(2.0, 1.0, 2.0, 1.0),
                Hyperparameters::new(2.0, 2.0, 2.0, 1.0),
                Hyperparameters::new(2.0, 3.0, 2.0, 1.0),
            ],
        ),
        (
            "(c) gamma = 1, 2, 3 (alpha=2, beta=1, delta=1)",
            [
                Hyperparameters::new(2.0, 1.0, 1.0, 1.0),
                Hyperparameters::new(2.0, 1.0, 2.0, 1.0),
                Hyperparameters::new(2.0, 1.0, 3.0, 1.0),
            ],
        ),
        (
            "(d) delta = 0, 1, 2 (alpha=2, beta=1, gamma=3)",
            [
                Hyperparameters::new(2.0, 1.0, 3.0, 0.0),
                Hyperparameters::new(2.0, 1.0, 3.0, 1.0),
                Hyperparameters::new(2.0, 1.0, 3.0, 2.0),
            ],
        ),
    ];

    println!("== Figure 3: hyperparameter influence on the toy example ==");
    println!("original 2-D embeddings:");
    for (i, name) in names.iter().enumerate() {
        let v = toy.problem.w0.row(i);
        println!("  {name:<10} ({:+.3}, {:+.3})", v[0], v[1]);
    }

    for (title, settings) in panels {
        println!("\n-- {title} --");
        for params in settings {
            let w = solve(&toy.problem, Solver::Ro, &params, 20, None);
            print!("  a={} b={} g={} d={}:", params.alpha, params.beta, params.gamma, params.delta);
            for (i, name) in names.iter().enumerate() {
                let v = w.row(i);
                print!("  {name}=({:+.2},{:+.2})", v[0], v[1]);
            }
            // Summary statistics that make the panel's message quantitative.
            let drift: f32 =
                (0..5).map(|i| vector::dist(w.row(i), toy.problem.w0.row(i))).sum::<f32>() / 5.0;
            let movie_spread = (vector::dist(w.row(0), w.row(1))
                + vector::dist(w.row(0), w.row(2))
                + vector::dist(w.row(1), w.row(2)))
                / 3.0;
            let related = (vector::dist(w.row(0), w.row(3))
                + vector::dist(w.row(1), w.row(3))
                + vector::dist(w.row(2), w.row(4)))
                / 3.0;
            let origin_pull: f32 = (0..5).map(|i| vector::norm(w.row(i))).sum::<f32>() / 5.0;
            println!(
                "\n      drift {drift:.3} | movie spread {movie_spread:.3} | related dist {related:.3} | mean norm {origin_pull:.3}"
            );
        }
    }
    println!("\nexpected shapes: (a) drift shrinks with alpha; (b) movie spread shrinks");
    println!("with beta; (c) related distance shrinks with gamma; (d) mean norm grows");
    println!("with delta (delta=0 concentrates vectors near the origin).");
}
