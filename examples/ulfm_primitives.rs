//! The ULFM toolbox in isolation: the paper's Fig. 2 walk-through on a
//! 7-process communicator. Ranks 3 and 5 are killed; the survivors
//! detect the failure with a barrier, shrink, re-spawn the dead ranks,
//! merge the intercommunicator, and re-order ranks so the repaired
//! communicator looks exactly like the original.
//!
//! ```text
//! cargo run --release --example ulfm_primitives
//! ```

use ftsg::app::{reconstruct, Join, ReconstructTimings, RepairArm, RespawnPolicy};
use ftsg::mpi::{run, RunConfig};

fn main() {
    let report = run(RunConfig::local(7), |ctx| {
        let mut timings = ReconstructTimings::default();

        if ctx.is_spawned() {
            // Respawned child: re-enter through the reconstruction
            // protocol, like a re-executed main() after
            // MPI_Comm_get_parent.
            let parent = ctx.parent().unwrap();
            let world = reconstruct(
                ctx,
                Join::Child(parent),
                &mut RepairArm::Respawn(RespawnPolicy::SameHost),
                None,
                &mut timings,
            )
            .expect("child reconstruct");
            println!(
                "  [child] joined as rank {} of {} on host {}",
                world.rank(),
                world.size(),
                ctx.my_host()
            );
            let sum: u64 = world.allreduce_sum(ctx, world.rank() as u64).unwrap();
            assert_eq!(sum, 21); // 0+1+...+6: the world is whole again
            return;
        }

        let world = ctx.initial_world().unwrap();
        let original_rank = world.rank();
        if original_rank == 3 || original_rank == 5 {
            // The paper's failure generator: kill(getpid(), SIGKILL).
            ctx.die();
        }

        // Survivors: detect + repair (the paper's Fig. 3 protocol).
        let world = reconstruct(
            ctx,
            Join::Detect(world),
            &mut RepairArm::Respawn(RespawnPolicy::SameHost),
            None,
            &mut timings,
        )
        .expect("reconstruct");
        assert_eq!(world.size(), 7, "communicator size must be preserved");
        assert_eq!(world.rank(), original_rank, "rank order must be preserved");
        if world.rank() == 0 {
            println!(
                "[rank 0] repaired ranks {:?} in {} round(s)",
                timings.failed_ranks, timings.rounds
            );
            println!(
                "[rank 0] shrink {:.2e}s, spawn {:.2e}s, merge {:.2e}s, agree {:.2e}s (virtual)",
                timings.t_shrink, timings.t_spawn, timings.t_merge, timings.t_agree
            );
        }
        let sum: u64 = world.allreduce_sum(ctx, world.rank() as u64).unwrap();
        assert_eq!(sum, 21);
        println!("  [survivor] rank {} confirms the repaired world works", world.rank());
    });
    report.assert_no_app_errors();
    println!(
        "\n{} processes were created in total (7 original + 2 respawned); {} failed.",
        report.procs_created, report.procs_failed
    );
}
