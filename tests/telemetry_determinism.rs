//! Property test: a scenario's telemetry — the Chrome trace and the metrics
//! summary — is **byte-identical** whether the scenario runs solo or inside
//! the parallel suite, for every work-claim order and worker count. Events
//! are stamped with virtual time and the sink is scoped per worker thread,
//! so OS-thread scheduling must never leak into a trace (the same invariant
//! `suite_determinism.rs` pins for ShapeReports).
//!
//! Also pins a golden consistency-point count for `exp_4_8_writeback`: the
//! write-back study's background-commit cadence is the paper's §4.8
//! sawtooth, and its event count must not drift silently.

mod common;

use proptest::prelude::*;
use std::sync::OnceLock;

use dmetabench::suite::{self, Scenario};
use simcore::TelemetryReport;

const FAST_IDS: [&str; 3] = ["exp_tab_3_1", "exp_fig_3_4", "exp_lst_3_3"];

fn fast_scenarios() -> Vec<&'static Scenario> {
    FAST_IDS
        .iter()
        .map(|id| suite::find(id).expect("registered"))
        .collect()
}

fn render(report: &TelemetryReport) -> (String, String) {
    (report.to_chrome_trace_json(), report.to_metrics_json())
}

/// Solo traced (trace, metrics) pairs, computed once per test process.
fn solo_traces() -> &'static Vec<(String, String)> {
    static SOLO: OnceLock<Vec<(String, String)>> = OnceLock::new();
    SOLO.get_or_init(|| {
        fast_scenarios()
            .iter()
            .map(|s| {
                let result = suite::run_scenario_traced(s);
                result
                    .outcome
                    .as_ref()
                    .expect("fast scenario does not panic");
                render(result.telemetry.as_ref().expect("traced run captures"))
            })
            .collect()
    })
}

/// The 6 permutations of 3 work items.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn traces_identical_for_any_schedule(order_idx in 0usize..6, jobs in 1usize..5) {
        let scenarios = fast_scenarios();
        let run = suite::run_suite_ordered_traced(&scenarios, jobs, &ORDERS[order_idx]);
        for (result, (solo_trace, solo_metrics)) in run.results.iter().zip(solo_traces()) {
            let (trace, metrics) =
                render(result.telemetry.as_ref().expect("traced suite captures"));
            prop_assert_eq!(
                &trace,
                solo_trace,
                "trace of {} differs between solo and parallel (order {:?}, jobs {})",
                result.scenario.id,
                ORDERS[order_idx],
                jobs
            );
            prop_assert_eq!(
                &metrics,
                solo_metrics,
                "metrics of {} differ between solo and parallel (order {:?}, jobs {})",
                result.scenario.id,
                ORDERS[order_idx],
                jobs
            );
        }
    }
}

/// `--sim-threads` must never change a trace or metrics summary either:
/// the paper models decline to partition, so traced suite runs at 2 and 4
/// threads reproduce the default solo capture byte for byte (same matrix as
/// `suite_determinism::fast_reports_identical_across_sim_threads`).
#[test]
fn fast_traces_identical_across_sim_threads() {
    let scenarios = fast_scenarios();
    for threads in [2usize, 4] {
        cluster::set_sim_threads(Some(threads));
        for order in [[0usize, 1, 2], [2, 1, 0]] {
            let run = suite::run_suite_ordered_traced(&scenarios, 4, &order);
            for (result, (solo_trace, solo_metrics)) in run.results.iter().zip(solo_traces()) {
                let (trace, metrics) =
                    render(result.telemetry.as_ref().expect("traced suite captures"));
                assert_eq!(
                    &trace, solo_trace,
                    "trace of {} differs at --sim-threads {threads} (order {order:?})",
                    result.scenario.id
                );
                assert_eq!(
                    &metrics, solo_metrics,
                    "metrics of {} differ at --sim-threads {threads} (order {order:?})",
                    result.scenario.id
                );
            }
        }
    }
    cluster::set_sim_threads(None);
}

/// The §4.8 golden counters hold at every `--sim-threads` value — the
/// write-back sweep's consistency-point cadence must not depend on the
/// engine dispatcher; the default (1 thread) is the solo run. Slow (two
/// traced sweeps); CI runs it in release via `-- --include-ignored`.
#[test]
#[ignore = "traced write-back sweep per thread count; run in release (CI --include-ignored)"]
fn writeback_goldens_hold_across_sim_threads() {
    let s = suite::find("exp_4_8_writeback").expect("registered");
    let solo = render(writeback_telemetry());
    for threads in [2usize, 4] {
        cluster::set_sim_threads(Some(threads));
        let result = suite::run_scenario_traced(s);
        result.outcome.as_ref().expect("scenario does not panic");
        let t = result.telemetry.expect("traced run captures");
        assert_eq!(
            t.span_count("consistency-point"),
            39504,
            "--sim-threads {threads}"
        );
        assert_eq!(t.counter("lustre.commit"), 40528, "--sim-threads {threads}");
        assert_eq!(render(&t), solo, "--sim-threads {threads}");
    }
    cluster::set_sim_threads(None);
}

/// The sharded-MDS model's telemetry counters are engine-invariant: the
/// unpartitioned run and the partitioned run at every thread count agree on
/// every `shardmds.*` total (the per-domain captures merge by summation),
/// the partitioned metrics summary is byte-identical across thread counts,
/// and in every mode the model's `lookups()`, `placement_rpcs()`,
/// `migrations()` and `failovers()` equal their telemetry counters.
#[test]
fn shardmds_counters_identical_across_engines_and_thread_counts() {
    use cluster::{SimConfig, WorkerSpec};
    use common::{run_on, Engine};
    use dfs::{MetaOp, ReshardAction, ReshardEvent, ShardMds, ShardMdsConfig, ShardPlacement};
    use simcore::SimTime;

    const NODES: usize = 4;
    const PPN: usize = 2;
    const OPS: u64 = 40;
    const COUNTERS: [&str; 5] = [
        "shardmds.lookups",
        "shardmds.placement_rpcs",
        "shardmds.migrations",
        "shardmds.failovers",
        "shardmds.reshard_events",
    ];

    let run = |engine: Engine| {
        let (getters, report) = simcore::telemetry::capture(|| {
            let model = ShardMds::new(ShardMdsConfig {
                shards: 4,
                placement: ShardPlacement::Subtree,
                table: vec![("/".to_owned(), 0), ("/hot".to_owned(), 1)],
                reshard: vec![ReshardEvent {
                    at: SimTime::from_millis(30),
                    action: ReshardAction::Assign {
                        prefix: "/hot/sub1".to_owned(),
                        to: 3,
                    },
                }],
                ..ShardMdsConfig::default()
            });
            let node_names: Vec<String> = (0..NODES).map(|i| format!("tn{i}")).collect();
            let specs: Vec<WorkerSpec> = (0..NODES * PPN)
                .map(|w| WorkerSpec::new(w / PPN, w % PPN))
                .collect();
            let streams: Vec<Box<dyn cluster::OpStream>> = (0..specs.len())
                .map(|w| {
                    Box::new(move |i: u64| {
                        (i < OPS).then(|| MetaOp::Create {
                            path: format!("/hot/sub{}/w{w}f{i}", i % 2),
                            data_bytes: 0,
                        })
                    }) as Box<dyn cluster::OpStream>
                })
                .collect();
            let cfg = SimConfig::default();
            let (_, model) = run_on(engine, model, &node_names, specs, streams, &cfg);
            [
                ("shardmds.lookups", model.lookups()),
                ("shardmds.placement_rpcs", model.placement_rpcs()),
                ("shardmds.migrations", model.migrations()),
                ("shardmds.failovers", model.failovers()),
            ]
        });
        // the model's own getters read what telemetry counted, on the
        // partitioned engine too (its replicas rejoin the model)
        for (name, value) in getters {
            assert_eq!(
                value,
                report.counter(name),
                "{name}: model getter and telemetry counter differ on {engine:?}"
            );
        }
        report
    };

    let unpartitioned = run(Engine::Unsplit);
    assert_eq!(
        unpartitioned.counter("par.windows"),
        0,
        "the reference run is unpartitioned"
    );
    let total_ops = (NODES * PPN) as u64 * OPS;
    assert_eq!(unpartitioned.counter("shardmds.lookups"), total_ops);
    assert!(
        unpartitioned.counter("shardmds.reshard_events") > 0,
        "the schedule must actually fire"
    );
    assert!(
        unpartitioned.counter("shardmds.migrations") > 0,
        "the schedule must actually migrate under live traffic"
    );

    let windowed = run(Engine::Windowed(1));
    assert!(
        windowed.counter("par.windows") > 0,
        "the windowed engine ran"
    );
    for threads in [2usize, 4] {
        let r = run(Engine::Windowed(threads));
        for name in COUNTERS {
            assert_eq!(
                r.counter(name),
                windowed.counter(name),
                "{name} differs at --sim-threads {threads}"
            );
        }
        assert_eq!(
            r.to_metrics_json(),
            windowed.to_metrics_json(),
            "metrics summary differs at --sim-threads {threads}"
        );
    }
    // engine-invariance of the totals (the partitioned trace *structure*
    // differs — one process per domain — but the sums must not)
    for name in COUNTERS {
        assert_eq!(
            unpartitioned.counter(name),
            windowed.counter(name),
            "{name} differs between the unpartitioned and partitioned runs"
        );
    }
}

/// Untraced runs carry no telemetry — recording stays opt-in.
#[test]
fn untraced_runs_have_no_telemetry() {
    let s = suite::find("exp_lst_3_3").expect("registered");
    assert!(suite::run_scenario(s).telemetry.is_none());
    let run = suite::run_suite(&fast_scenarios(), 2);
    assert!(run.results.iter().all(|r| r.telemetry.is_none()));
}

/// Solo traced run of the write-back study, computed once per test process.
fn writeback_telemetry() -> &'static TelemetryReport {
    static SOLO: OnceLock<TelemetryReport> = OnceLock::new();
    SOLO.get_or_init(|| {
        let s = suite::find("exp_4_8_writeback").expect("registered");
        let result = suite::run_scenario_traced(s);
        result.outcome.as_ref().expect("scenario does not panic");
        result.telemetry.expect("traced run captures")
    })
}

/// Golden check: the §4.8 write-back sweep completes exactly this many
/// Lustre journal commits (its consistency points) across all cadences.
/// A drift here means the commit model or the sweep changed.
#[test]
fn writeback_consistency_point_count_is_pinned() {
    let t = writeback_telemetry();
    assert_eq!(t.span_count("consistency-point"), 39504);
    assert_eq!(t.counter("lustre.commit"), 40528);
    assert!(t.to_chrome_trace_json().contains("\"consistency-point\""));
}

/// The exported metrics summary is bit-identical whether the scenario runs
/// on the main thread or on a jobs-8 suite worker thread.
#[test]
fn writeback_metrics_identical_across_jobs_levels() {
    let solo = render(writeback_telemetry());
    let s = suite::find("exp_4_8_writeback").expect("registered");
    let run = suite::run_suite_traced(&[s], 8);
    let parallel = render(run.results[0].telemetry.as_ref().expect("traced"));
    assert_eq!(solo, parallel);
}

/// The crash-consistency scenarios are byte-identical — ShapeReport, Chrome
/// trace and metrics summary — across jobs levels and claim orders, like
/// every other registered scenario.
#[test]
fn crash_and_scrub_runs_identical_across_jobs_and_orders() {
    let scenarios: Vec<&'static Scenario> = ["exp_crash_recovery", "exp_scrub_tax"]
        .iter()
        .map(|id| suite::find(id).expect("registered"))
        .collect();
    let solo: Vec<(String, (String, String))> = scenarios
        .iter()
        .map(|s| {
            let result = suite::run_scenario_traced(s);
            let report =
                serde_json::to_string_pretty(&result.outcome.as_ref().expect("no panic").report)
                    .expect("serializable");
            (
                report,
                render(result.telemetry.as_ref().expect("traced run captures")),
            )
        })
        .collect();
    for (jobs, order) in [(1, [0, 1]), (2, [0, 1]), (2, [1, 0]), (4, [1, 0])] {
        let run = suite::run_suite_ordered_traced(&scenarios, jobs, &order);
        for (result, (solo_report, (solo_trace, solo_metrics))) in run.results.iter().zip(&solo) {
            let report =
                serde_json::to_string_pretty(&result.outcome.as_ref().expect("no panic").report)
                    .expect("serializable");
            let (trace, metrics) = render(result.telemetry.as_ref().expect("traced"));
            assert_eq!(
                &report, solo_report,
                "{} report (jobs {jobs}, order {order:?})",
                result.scenario.id
            );
            assert_eq!(
                &trace, solo_trace,
                "{} trace (jobs {jobs}, order {order:?})",
                result.scenario.id
            );
            assert_eq!(
                &metrics, solo_metrics,
                "{} metrics (jobs {jobs}, order {order:?})",
                result.scenario.id
            );
        }
    }
}

/// Golden event counts for the crash-consistency scenarios: the power-loss
/// sweep performs exactly ten recoveries (five schedules, each crashed
/// twice) and the scrub sweep's telemetry must not drift silently.
#[test]
fn crash_recovery_telemetry_counts_are_pinned() {
    let s = suite::find("exp_crash_recovery").expect("registered");
    let result = suite::run_scenario_traced(s);
    result.outcome.as_ref().expect("scenario does not panic");
    let t = result.telemetry.expect("traced run captures");
    assert_eq!(t.counter("memfs.crash.recoveries"), 10);
    assert_eq!(t.counter("memfs.crash.replayed"), 434);
    assert_eq!(t.counter("memfs.crash.discarded"), 26);
    assert_eq!(t.span_count("crash.schedule"), 5);

    let s = suite::find("exp_scrub_tax").expect("registered");
    let result = suite::run_scenario_traced(s);
    result.outcome.as_ref().expect("scenario does not panic");
    let t = result.telemetry.expect("traced run captures");
    assert_eq!(t.counter("memfs.scrub.sweeps"), 68);
    assert_eq!(t.counter("memfs.scrub.inodes"), 9603);
    assert_eq!(t.span_count("scrub.intensity"), 4);
}
