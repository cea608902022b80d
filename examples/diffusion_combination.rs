//! The combination technique is PDE-agnostic: run it on the 2D heat
//! equation (the second model problem) and watch the robust/alternate
//! combination absorb a lost grid, exactly as it does for advection.
//!
//! The heat equation `∂u/∂t = κΔu` is the advection–diffusion problem
//! with no velocity; the d-dimensional solver steps it at d = 2 as FTCS.
//!
//! ```text
//! cargo run --release --example diffusion_combination
//! ```

use ftsg::grid::{
    combine_onto_nd, robust_coefficients_nd, CombinationTermN, GridN, GridSystemN, Layout,
    LevelSetN,
};
use ftsg::pde::{ProblemN, SolverN, TimeGridN};

fn main() {
    let n = 7;
    let l = 4;
    let problem = ProblemN::AdvectionDiffusion { a: vec![0.0, 0.0], kappa: 0.05, k: vec![1, 1] };
    let sys = GridSystemN::new(2, n, l, Layout::ExtraLayers);
    // One Δt across all grids (the paper's discipline), set by the finest:
    // half the FTCS bound `κ Δt (1/hx² + 1/hy²) ≤ 1/2`.
    let tg = TimeGridN::for_system(&problem, n, 400, 0.5);

    println!(
        "heat equation on the combination grid system: n={n}, l={l}, {} sub-grids, {} steps",
        sys.n_grids(),
        tg.steps
    );

    // Solve every sub-grid.
    let grids: Vec<GridN> = sys
        .grids()
        .iter()
        .map(|g| {
            let mut s = SolverN::new(problem.clone(), &g.level, tg.dt);
            s.run(tg.steps);
            s.grid().clone()
        })
        .collect();
    let t_final = tg.total_time();
    let error = |g: &GridN| g.l1_error_vs(|x| problem.exact(x, t_final));

    // Healthy classical combination.
    let terms: Vec<CombinationTermN> = sys
        .combination_ids()
        .into_iter()
        .map(|id| CombinationTermN {
            coeff: sys.classical_coefficient(id) as f64,
            grid: &grids[id],
        })
        .collect();
    let baseline = error(&combine_onto_nd(&sys.min_level(), &terms));
    println!("baseline combined-solution error: {baseline:.3e}");

    // Lose a middle diagonal grid; recombine robustly over the survivors.
    let lost_id = 1usize;
    let lost = [sys.grid(lost_id).level];
    let mut surviving = LevelSetN::new(2);
    for g in sys.grids().iter().filter(|g| g.id != lost_id) {
        surviving.insert(g.level);
    }
    let coeffs = robust_coefficients_nd(&sys.classical_downset(), &lost, &surviving);
    println!(
        "grid {lost_id} (level {:?}) lost -> robust coefficients over {} grids:",
        sys.grid(lost_id).level,
        coeffs.len()
    );
    for (lv, c) in &coeffs {
        println!("  {lv:?}: {c:+}");
    }
    let terms: Vec<CombinationTermN> = sys
        .grids()
        .iter()
        .filter(|g| g.id != lost_id)
        .filter_map(|g| {
            coeffs.get(&g.level).map(|&c| CombinationTermN { coeff: c as f64, grid: &grids[g.id] })
        })
        .collect();
    let err = error(&combine_onto_nd(&sys.min_level(), &terms));
    println!("robust combined-solution error:   {err:.3e}  ({:.2}x baseline)", err / baseline);
    assert!(err < 10.0 * baseline, "within the 10x robustness envelope");
    println!("within the 10x robustness envelope ✓ — same machinery, different PDE");
}
