//! The layer split must measure the same program: a cell run through the
//! timing wrappers gives exactly the result of the same cell run bare.

use cluster::SimRunResult;
use dmetabench_perf::workloads::{
    digest, largedir_cell, shard_cell, simulate, smp_cell, stat_cell, Cell, Mode, RepTimes,
};
use memfs::DirIndexKind;
use simcore::prof;

type MakeCell = dyn Fn(&Mode) -> Cell;

fn run(make: &MakeCell, quick: bool, wrap: bool) -> SimRunResult {
    let mode = Mode {
        seed: 42,
        quick,
        wrap,
        telemetry: true,
    };
    simulate(make(&mode), wrap, &mut RepTimes::default()).0
}

fn assert_identical(label: &str, bare: &SimRunResult, wrapped: &SimRunResult) {
    assert_eq!(
        bare.workers.len(),
        wrapped.workers.len(),
        "{label}: workers"
    );
    for (a, b) in bare.workers.iter().zip(&wrapped.workers) {
        assert_eq!(a.ops_done, b.ops_done, "{label}: ops_done");
        assert_eq!(a.errors, b.errors, "{label}: errors");
        assert_eq!(a.samples, b.samples, "{label}: sample log");
        assert_eq!(
            a.latency.count(),
            b.latency.count(),
            "{label}: latency count"
        );
        assert_eq!(a.latency.sum(), b.latency.sum(), "{label}: latency sum");
        assert_eq!(a.finished_at, b.finished_at, "{label}: finish time");
    }
    assert_eq!(
        bare.stonewall_ops_per_sec().to_bits(),
        wrapped.stonewall_ops_per_sec().to_bits(),
        "{label}: stonewall bits"
    );
    assert_eq!(digest(bare), digest(wrapped), "{label}: digest");
}

fn plan_calls() -> u64 {
    prof::snapshot()
        .iter()
        .find(|(name, _, _)| *name == "dfs.plan")
        .map_or(0, |&(_, calls, _)| calls)
}

// One test function: the profiling registry and the simulation thread
// count are process-wide.
#[test]
fn wrapped_runs_equal_bare_runs_on_one_cell_of_every_workload() {
    // (label, simulation threads, reduced geometry, cell); the stat cell
    // runs its full 20 virtual seconds so the NFS consistency-point timer
    // (every 10 s) fires through the wrapper
    let cells: [(&str, usize, bool, &MakeCell); 4] = [
        ("smp_create local/ppn4", 1, true, &|m| {
            smp_cell(m, "local", 4)
        }),
        ("shard_scaling_2t shards16", 2, true, &|m| shard_cell(m, 16)),
        ("largedir_create hashed 4x2", 1, true, &|m| {
            largedir_cell(m, DirIndexKind::Hashed, 100_000, 4, 2)
        }),
        ("stat_traced ttl1000ms", 1, false, &|m| stat_cell(m, 1_000)),
    ];
    for (label, threads, quick, make) in cells {
        cluster::set_sim_threads(Some(threads));
        let bare = run(make, quick, false);
        prof::reset();
        prof::set_enabled(true);
        let wrapped = run(make, quick, true);
        prof::set_enabled(false);
        assert_identical(label, &bare, &wrapped);
        // on the windowed engine only the partition replicas plan, so this
        // also shows the replicas were wrapped
        assert!(
            plan_calls() >= bare.total_ops() && bare.total_ops() > 0,
            "{label}: {} plan calls for {} ops",
            plan_calls(),
            bare.total_ops()
        );
    }
    cluster::set_sim_threads(None);
}
