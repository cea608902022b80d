//! Property-based tests (proptest) on the core invariants of the stack:
//! combination coefficients, grid transforms, message encodings, and
//! failure plans.
#![allow(unused_doc_comments)]

use ftsg::grid::{
    gcp_coefficients, robust_coefficients, Grid2, GridSystem, Layout, LevelPair, LevelSet,
};
use proptest::prelude::*;

/// Strategy: a valid (n, l) pair for a grid system.
fn nl() -> impl Strategy<Value = (u32, u32)> {
    (2u32..=6).prop_flat_map(|l| (l..=l + 6, Just(l)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The GCP coefficients of the classical downset cover every
    /// hierarchical subspace exactly once, for any (n, l).
    #[test]
    fn classical_coefficients_cover_once((n, l) in nl()) {
        let sys = GridSystem::new(n, l, Layout::Plain);
        let j = sys.classical_downset();
        let coeffs = gcp_coefficients(&j);
        prop_assert_eq!(coeffs.values().sum::<i32>(), 1);
        for &b in j.iter() {
            let cover: i32 = coeffs
                .iter()
                .filter(|(a, _)| b.leq(a))
                .map(|(_, &v)| v)
                .sum();
            prop_assert_eq!(cover, 1, "subspace {} not covered once", b);
        }
    }

    /// Robust coefficients after arbitrary losses: still sum to 1 (when a
    /// combination survives), never touch a lost/unavailable grid, and
    /// keep the covering property on their own downset fringe.
    #[test]
    fn robust_coefficients_sound(
        (n, l) in nl(),
        loss_mask in proptest::collection::vec(any::<bool>(), 0..16),
    ) {
        let sys = GridSystem::new(n, l, Layout::ExtraLayers);
        let grids = sys.grids();
        let lost: Vec<LevelPair> = grids
            .iter()
            .zip(loss_mask.iter().chain(std::iter::repeat(&false)))
            .filter(|(_, &dead)| dead)
            .map(|(g, _)| g.level)
            .collect();
        let available: LevelSet = grids
            .iter()
            .map(|g| g.level)
            .filter(|lv| !lost.contains(lv))
            .collect();
        let coeffs = robust_coefficients(&sys.classical_downset(), &lost, &available);
        if coeffs.is_empty() {
            // Legal only when everything that could anchor a combination
            // is gone; at minimum the full loss of all diagonals.
            return Ok(());
        }
        prop_assert_eq!(coeffs.values().sum::<i32>(), 1);
        for lv in coeffs.keys() {
            prop_assert!(!lost.contains(lv), "coefficient on lost grid {}", lv);
            prop_assert!(available.contains(lv), "coefficient on unavailable grid {}", lv);
        }
    }

    /// Combination with robust coefficients reproduces globally bilinear
    /// functions exactly, whatever was lost.
    #[test]
    fn robust_combination_exact_on_bilinear(
        (n, l) in (3u32..=5).prop_flat_map(|l| (l..=l + 3, Just(l))),
        lost_idx in 0usize..8,
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
    ) {
        let sys = GridSystem::new(n, l, Layout::ExtraLayers);
        let lost = vec![sys.grid(lost_idx % sys.n_grids()).level];
        let available: LevelSet = sys
            .grids()
            .iter()
            .map(|g| g.level)
            .filter(|lv| !lost.contains(lv))
            .collect();
        let coeffs = robust_coefficients(&sys.classical_downset(), &lost, &available);
        prop_assume!(!coeffs.is_empty());
        let f = move |x: f64, y: f64| 1.0 + a * x + b * y + a * b * x * y;
        let grids: Vec<(f64, Grid2)> = coeffs
            .iter()
            .map(|(&lv, &c)| (c as f64, Grid2::from_fn(lv, f)))
            .collect();
        let terms: Vec<ftsg::grid::CombinationTerm> = grids
            .iter()
            .map(|(c, g)| ftsg::grid::CombinationTerm { coeff: *c, grid: g })
            .collect();
        let target = sys.min_level();
        let combined = ftsg::grid::combine_onto(target, &terms);
        for m in 0..combined.ny() {
            for k in 0..combined.nx() {
                let (x, y) = combined.coords(k, m);
                prop_assert!((combined.at(k, m) - f(x, y)).abs() < 1e-10);
            }
        }
    }

    /// Restriction then bilinear evaluation agrees with the fine grid at
    /// every coarse node.
    #[test]
    fn restriction_is_injection(
        fi in 2u32..=6,
        fj in 2u32..=6,
        di in 0u32..=2,
        dj in 0u32..=2,
    ) {
        let fine_level = LevelPair::new(fi + di, fj + dj);
        let coarse_level = LevelPair::new(fi, fj);
        let fine = Grid2::from_fn(fine_level, |x, y| (x * 5.0).sin() * (3.0 * y).cos());
        let coarse = fine.restrict_to(coarse_level);
        for m in 0..coarse.ny() {
            for k in 0..coarse.nx() {
                let (x, y) = coarse.coords(k, m);
                prop_assert_eq!(coarse.at(k, m), fine.eval(x, y));
            }
        }
    }

    /// Hierarchize/dehierarchize roundtrips on arbitrary data.
    #[test]
    fn hierarchization_roundtrip(
        lev in 1u32..=5,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let level = LevelPair::new(lev, lev.min(4));
        let mut g = Grid2::zeros(level);
        for v in g.values_mut() {
            *v = rng.gen_range(-10.0..10.0);
        }
        let back = ftsg::grid::hier::dehierarchize(&ftsg::grid::hier::hierarchize(&g));
        for (a, b) in g.values().iter().zip(back.values()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Message encode/decode roundtrips arbitrary f64 payloads.
    #[test]
    fn payload_roundtrip(data in proptest::collection::vec(any::<f64>(), 0..256)) {
        use ftsg::mpi::datatype::{decode, encode};
        let enc = encode(&data);
        let dec: Vec<f64> = decode(&enc).unwrap();
        prop_assert_eq!(dec.len(), data.len());
        for (a, b) in dec.iter().zip(&data) {
            prop_assert!(a.to_bits() == b.to_bits());
        }
    }

    /// Fault plans never strike rank 0 and are deterministic in the seed.
    #[test]
    fn fault_plans_protect_rank_zero(
        count in 0usize..6,
        world in 2usize..64,
        seed in any::<u64>(),
    ) {
        use ftsg::mpi::FaultPlan;
        let p = FaultPlan::random(count, world, 5, seed, &[]);
        prop_assert!(!p.victim_ranks().contains(&0));
        prop_assert_eq!(p.clone(), FaultPlan::random(count, world, 5, seed, &[]));
        prop_assert!(p.n_failures() <= count);
    }
}

/// The distributed binomial-tree combination is bitwise equal to the
/// serial `combine_binomial` reference, across random level sets and
/// coefficient schemes (classical and robust-after-losses).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn distributed_tree_combine_bitwise_equals_serial(
        (n, l) in (2u32..=3).prop_flat_map(|l| (l..=l + 2, Just(l))),
        lost_sel in 0usize..12,
        a in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        use ftsg::grid::{combine_binomial, combine_onto, CombinationTerm};
        let sys = GridSystem::new(n, l, Layout::ExtraLayers);
        // `lost_sel == 0` exercises the classical scheme; otherwise a
        // grid is lost and the robust coefficients take over.
        let coeffs: Vec<(LevelPair, i32)> = match lost_sel.checked_sub(1) {
            None => gcp_coefficients(&sys.classical_downset()).into_iter().collect(),
            Some(i) => {
                let lost = vec![sys.grid(i % sys.n_grids()).level];
                let available: LevelSet = sys
                    .grids()
                    .iter()
                    .map(|g| g.level)
                    .filter(|lv| !lost.contains(lv))
                    .collect();
                robust_coefficients(&sys.classical_downset(), &lost, &available)
                    .into_iter()
                    .collect()
            }
        };
        let f = move |x: f64, y: f64| (2.5 * x + 0.3 * a).sin() * ((1.5 + a) * y).cos();
        let term_data: Vec<(f64, Grid2)> = coeffs
            .iter()
            .filter(|(_, c)| *c != 0)
            .map(|&(lv, c)| (c as f64, Grid2::from_fn(lv, f)))
            .collect();
        prop_assume!(!term_data.is_empty());
        let target = sys.min_level();
        let serial = {
            let terms: Vec<CombinationTerm> =
                term_data.iter().map(|(c, g)| CombinationTerm { coeff: *c, grid: g }).collect();
            combine_binomial(target, &terms)
        };
        let world = term_data.len();
        let td = std::sync::Arc::new(term_data);
        let sr = std::sync::Arc::new(serial);
        let report = ftsg::mpi::run(
            ftsg::mpi::RunConfig::local(world).with_seed(seed),
            move |ctx| {
                let w = ctx.initial_world().unwrap();
                let (c, g) = &td[w.rank()];
                let term = CombinationTerm { coeff: *c, grid: g };
                let part = combine_onto(target, std::slice::from_ref(&term));
                let leaders: Vec<usize> = (0..w.size()).collect();
                let mut scratch = Vec::new();
                let combined = ftsg::app::gather::binomial_combine(
                    ctx, &w, &leaders, 0, &target, Some(part), &mut scratch, 7,
                )
                .unwrap();
                if w.rank() == 0 {
                    let combined = combined.unwrap();
                    let bitwise = combined.level() == sr.level()
                        && combined
                            .values()
                            .iter()
                            .zip(sr.values())
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    ctx.report_f64("bitwise_ok", f64::from(bitwise));
                }
            },
        );
        report.assert_no_app_errors();
        prop_assert_eq!(report.get_f64("bitwise_ok"), Some(1.0));
    }
}

/// Block decomposition partitions exactly, for arbitrary sizes.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn block_ranges_partition(n in 1usize..10_000, parts in 1usize..64) {
        prop_assume!(parts <= n);
        use ftsg::app::psolve::block_range;
        let mut next = 0;
        for b in 0..parts {
            let (s, len) = block_range(n, parts, b);
            prop_assert_eq!(s, next);
            prop_assert!(len >= 1);
            next = s + len;
        }
        prop_assert_eq!(next, n);
    }
}
