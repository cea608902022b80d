//! Real-time cost of a full detect → shrink → spawn → merge → re-order
//! communicator reconstruction in the simulator, across world sizes and
//! failure counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ftsg_core::{reconstruct, Join, ReconstructTimings, RepairArm, RespawnPolicy};
use ulfm_sim::{run, FaultPlan, RunConfig};

fn bench_reconstruct(c: &mut Criterion) {
    let mut g = c.benchmark_group("reconstruct");
    g.sample_size(10);
    for &p in &[8usize, 32, 128] {
        for &failures in &[1usize, 2, 4] {
            g.bench_function(BenchmarkId::new(format!("world{p}"), failures), |b| {
                b.iter(|| {
                    let plan = FaultPlan::random(failures, p, 0, 7, &[]);
                    let report = run(RunConfig::local(p), move |ctx| {
                        let mut t = ReconstructTimings::default();
                        if ctx.is_spawned() {
                            let parent = ctx.parent().unwrap();
                            let _ = reconstruct(
                                ctx,
                                Join::Child(parent),
                                &mut RepairArm::Respawn(RespawnPolicy::SameHost),
                                None,
                                &mut t,
                            )
                            .unwrap();
                            return;
                        }
                        let world = ctx.initial_world().unwrap();
                        if plan.strikes(world.rank(), 0) {
                            ctx.die();
                        }
                        let world = reconstruct(
                            ctx,
                            Join::Detect(world),
                            &mut RepairArm::Respawn(RespawnPolicy::SameHost),
                            None,
                            &mut t,
                        )
                        .unwrap();
                        assert_eq!(world.size(), p);
                    });
                    report.assert_no_app_errors();
                    report
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_reconstruct);
criterion_main!(benches);
