//! Spare-node recovery (the paper's §V future work): when every rank of a
//! node fails, the replacements are spawned together on a spare node; the
//! load-balancing characteristics match the same-host policy.

use ftsg_core::app::keys;
use ftsg_core::{
    reconstruct, run_app, AppConfig, Join, ProcLayout, ReconstructTimings, RepairArm,
    RespawnPolicy, Technique,
};
use ulfm_sim::{run, ClusterProfile, FaultPlan, RunConfig};

/// A cluster with 2 slots per node so whole-node failures are cheap to
/// stage.
fn small_node_config(world: usize) -> RunConfig {
    let mut rc = RunConfig::local(world);
    rc.profile = ClusterProfile::local(world.div_ceil(2), 2);
    rc.spare_hosts = 3;
    rc
}

#[test]
fn node_failure_respawns_on_spare_node() {
    // World of 6 on 3 nodes of 2 slots; kill both ranks of node 1.
    let world = 6;
    let report = run(small_node_config(world), |ctx| {
        let mut timings = ReconstructTimings::default();
        if ctx.is_spawned() {
            let parent = ctx.parent().unwrap();
            let w = reconstruct(
                ctx,
                Join::Child(parent),
                &mut RepairArm::Respawn(RespawnPolicy::SpareNode),
                None,
                &mut timings,
            )
            .unwrap();
            ctx.report_push("child_host", ctx.my_host() as f64);
            ctx.report_push("child_rank", w.rank() as f64);
            return;
        }
        let w = ctx.initial_world().unwrap();
        if w.rank() == 2 || w.rank() == 3 {
            ctx.die(); // the whole of node 1
        }
        let w = reconstruct(
            ctx,
            Join::Detect(w),
            &mut RepairArm::Respawn(RespawnPolicy::SpareNode),
            None,
            &mut timings,
        )
        .unwrap();
        assert_eq!(w.size(), 6);
        ctx.report_add("ok", 1.0);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("ok"), Some(4.0));
    // Both children landed together on the first spare node (index 3:
    // nodes 0..3 hold the original world).
    let hosts = report.get_list("child_host").unwrap();
    assert_eq!(hosts, &[3.0, 3.0], "children must land on the spare node");
    let mut ranks: Vec<f64> = report.get_list("child_rank").unwrap().to_vec();
    ranks.sort_by(f64::total_cmp);
    assert_eq!(ranks, vec![2.0, 3.0], "original ranks restored");
}

#[test]
fn isolated_failure_still_uses_same_host_under_spare_policy() {
    let world = 6;
    let report = run(small_node_config(world), |ctx| {
        let mut timings = ReconstructTimings::default();
        if ctx.is_spawned() {
            let parent = ctx.parent().unwrap();
            let _ = reconstruct(
                ctx,
                Join::Child(parent),
                &mut RepairArm::Respawn(RespawnPolicy::SpareNode),
                None,
                &mut timings,
            )
            .unwrap();
            ctx.report_f64("child_host", ctx.my_host() as f64);
            return;
        }
        let w = ctx.initial_world().unwrap();
        if w.rank() == 3 {
            ctx.die(); // node 1 keeps rank 2 alive → not a node failure
        }
        let _ = reconstruct(
            ctx,
            Join::Detect(w),
            &mut RepairArm::Respawn(RespawnPolicy::SpareNode),
            None,
            &mut timings,
        )
        .unwrap();
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64("child_host"), Some(1.0), "back on its own node");
}

#[test]
fn two_node_failures_get_distinct_spares() {
    let world = 8; // nodes 0..4
    let report = run(small_node_config(world), |ctx| {
        let mut timings = ReconstructTimings::default();
        if ctx.is_spawned() {
            let parent = ctx.parent().unwrap();
            let w = reconstruct(
                ctx,
                Join::Child(parent),
                &mut RepairArm::Respawn(RespawnPolicy::SpareNode),
                None,
                &mut timings,
            )
            .unwrap();
            ctx.report_push(&format!("host_of_{}", w.rank()), ctx.my_host() as f64);
            return;
        }
        let w = ctx.initial_world().unwrap();
        if matches!(w.rank(), 2 | 3 | 6 | 7) {
            ctx.die(); // nodes 1 and 3 entirely
        }
        let _ = reconstruct(
            ctx,
            Join::Detect(w),
            &mut RepairArm::Respawn(RespawnPolicy::SpareNode),
            None,
            &mut timings,
        )
        .unwrap();
    });
    report.assert_no_app_errors();
    // Node 1's ranks (2,3) share one spare; node 3's (6,7) share another.
    let h2 = report.get_list("host_of_2").unwrap()[0];
    let h3 = report.get_list("host_of_3").unwrap()[0];
    let h6 = report.get_list("host_of_6").unwrap()[0];
    let h7 = report.get_list("host_of_7").unwrap()[0];
    assert_eq!(h2, h3, "node 1's ranks stay together");
    assert_eq!(h6, h7, "node 3's ranks stay together");
    assert_ne!(h2, h6, "distinct dead nodes get distinct spares");
    assert!(h2 >= 4.0 && h6 >= 4.0, "both beyond the original allocation");
}

#[test]
fn full_app_survives_node_failure_with_spare_policy() {
    // End-to-end: a whole node dies under the application; the spare-node
    // policy recovers and the solution stays accurate.
    let base = AppConfig::paper_shaped(Technique::AlternateCombination, 7, 2, 5)
        .with_respawn_policy(RespawnPolicy::SpareNode);
    let steps = base.steps();
    let layout = ProcLayout::new(base.n, base.l, base.technique.layout(), base.scale);
    let world = layout.world_size();

    let mut rc = RunConfig::local(world);
    rc.profile = ClusterProfile::local(world.div_ceil(2), 2);
    rc.spare_hosts = 2;
    // Node 2 = world ranks 4, 5 (2 slots per node). Neither is rank 0.
    let cfg = base.with_plan(FaultPlan::new(vec![(4, steps), (5, steps)]));
    let report = run(rc, move |ctx| {
        if ctx.is_spawned() {
            ctx.report_push("child_host", ctx.my_host() as f64);
        }
        run_app(&cfg, ctx);
    });
    report.assert_no_app_errors();
    assert_eq!(report.get_f64(keys::N_FAILED), Some(2.0));
    let err = report.get_f64(keys::ERR_L1).unwrap();
    assert!(err.is_finite() && err < 0.05, "error {err}");
    let hosts = report.get_list("child_host").unwrap();
    assert_eq!(hosts.len(), 2);
    assert_eq!(hosts[0], hosts[1], "node's ranks respawn together");
    let spare = world.div_ceil(2) as f64;
    assert!(hosts[0] >= spare, "on a spare node (host {} >= {spare})", hosts[0]);
}
