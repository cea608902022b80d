//! Failure detection and the globally consistent failed-rank list — the
//! paper's Figs. 4 and 6.

use std::sync::Arc;

use ulfm_sim::group::GroupCompare;
use ulfm_sim::{Comm, Ctx, Error};

/// Port of the paper's Fig. 4 (`mpiErrorHandler`): on a communicator
/// error, acknowledge the locally observed failures so the subsequent
/// `agree` can return uniformly. (The paper notes a ≥ 10 ms delay is
/// sometimes needed here; the runtime's cost model charges it inside
/// `failure_ack`.) The listing's signature — the communicator and the
/// error — so it attaches as it is, capturing nothing:
/// `comm.set_errhandler(mpi_error_handler)`.
pub fn mpi_error_handler(ctx: &Ctx, comm: &Comm, _error: &Error) {
    comm.failure_ack(ctx);
    let _failed_group = comm.failure_get_acked();
}

/// Port of the paper's Fig. 6 (`failedProcsList`): derive the ranks (in
/// `broken`) of the processes that are missing from `shrinked`, via
/// `MPI_Group_compare` / `MPI_Group_difference` /
/// `MPI_Group_translate_ranks`. Ascending, as the difference keeps
/// `broken`'s rank order.
///
/// Every survivor of a shrink asks for the same list, so the first one
/// to ask derives it and the rest share it ([`Comm::missing_ranks`]).
pub fn failed_procs_list(broken: &Comm, shrinked: &Comm) -> Arc<[usize]> {
    shrinked.missing_ranks(broken, || {
        let old_group = broken.group();
        let shrink_group = shrinked.group();
        if old_group.compare(&shrink_group) == GroupCompare::Ident {
            return Arc::default();
        }
        let failed_group = old_group.difference(&shrink_group);
        let temp_ranks: Vec<usize> = (0..failed_group.size()).collect();
        failed_group.translate_ranks(&temp_ranks, &old_group).into()
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use ulfm_sim::{run, RunConfig};

    #[test]
    fn failed_list_identifies_paper_example() {
        // The paper's running example (its Fig. 2): ranks 3 and 5 of a
        // 7-process communicator fail.
        let report = run(RunConfig::local(7), |ctx| {
            let w = ctx.initial_world().unwrap();
            if w.rank() == 3 || w.rank() == 5 {
                ctx.die();
            }
            match w.barrier(ctx) {
                Err(e @ Error::ProcFailed { .. }) => {
                    mpi_error_handler(ctx, &w, &e);
                    let shrinked = w.shrink(ctx).unwrap();
                    let failed = failed_procs_list(&w, &shrinked);
                    assert_eq!(*failed, [3, 5]);
                    ctx.report_add("ok", 1.0);
                }
                other => panic!("expected failure, got {other:?}"),
            }
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(5.0));
    }

    #[test]
    fn every_survivor_shares_one_list() {
        // The paper's example again: the first survivor to ask derives
        // the list, every other one holds the very same allocation.
        let lists = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&lists);
        let report = run(RunConfig::local(7), move |ctx| {
            let w = ctx.initial_world().unwrap();
            if w.rank() == 3 || w.rank() == 5 {
                ctx.die();
            }
            assert!(w.barrier(ctx).is_err());
            let shrinked = w.shrink(ctx).unwrap();
            seen.lock().unwrap().push(failed_procs_list(&w, &shrinked));
        });
        report.assert_no_app_errors();
        let lists = lists.lock().unwrap();
        assert_eq!(lists.len(), 5);
        assert_eq!(*lists[0], [3, 5]);
        assert!(lists.iter().all(|l| Arc::ptr_eq(l, &lists[0])));
    }

    #[test]
    fn no_failures_gives_empty_list() {
        let report = run(RunConfig::local(4), |ctx| {
            let w = ctx.initial_world().unwrap();
            let s = w.shrink(ctx).unwrap();
            assert!(failed_procs_list(&w, &s).is_empty());
            ctx.report_add("ok", 1.0);
        });
        report.assert_no_app_errors();
        assert_eq!(report.get_f64("ok"), Some(4.0));
    }
}
