//! Property test: a scenario's ShapeReport is **bit-identical** whether the
//! scenario runs solo or inside the parallel suite, for every work-claim
//! order and worker count. This is the invariant that makes the parallel
//! runner safe: scenario bodies are single-threaded discrete-event
//! simulations on virtual time, so OS-thread scheduling must never leak
//! into a report.
//!
//! Uses the three cheap Chapter-3 scenarios and the shard-migration audit
//! (a model that always runs partitioned, whose report reads model
//! counters) so the property gets real multi-scenario interleaving without
//! minutes of simulation per case.

use proptest::prelude::*;
use std::sync::OnceLock;

use dmetabench::suite::{self, Scenario};

const FAST_IDS: [&str; 4] = [
    "exp_tab_3_1",
    "exp_fig_3_4",
    "exp_lst_3_3",
    "mds_shard_migration",
];

fn fast_scenarios() -> Vec<&'static Scenario> {
    FAST_IDS
        .iter()
        .map(|id| suite::find(id).expect("registered"))
        .collect()
}

/// Serialized solo reports, computed once per test process.
fn solo_reports() -> &'static Vec<String> {
    static SOLO: OnceLock<Vec<String>> = OnceLock::new();
    SOLO.get_or_init(|| {
        fast_scenarios()
            .iter()
            .map(|s| {
                let out = suite::run_scenario(s)
                    .outcome
                    .expect("fast scenario does not panic");
                serde_json::to_string_pretty(&out.report).expect("serializable")
            })
            .collect()
    })
}

/// The `k`-th of the `n!` orders of `n` work items (factorial number
/// system: each digit picks one of the items still left).
fn nth_order(n: usize, mut k: usize) -> Vec<usize> {
    let mut left: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    for digits in (1..=n).rev() {
        let weight: usize = (1..digits).product();
        out.push(left.remove(k / weight));
        k %= weight;
    }
    out
}

/// The 4! claim orders of the fast scenarios.
const ORDER_COUNT: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reports_identical_for_any_schedule(order_idx in 0usize..ORDER_COUNT, jobs in 1usize..5) {
        let scenarios = fast_scenarios();
        let order = nth_order(FAST_IDS.len(), order_idx);
        let run = suite::run_suite_ordered(&scenarios, jobs, &order);
        for (result, solo) in run.results.iter().zip(solo_reports()) {
            let report = &result.outcome.as_ref().expect("no panic").report;
            let json = serde_json::to_string_pretty(report).expect("serializable");
            prop_assert_eq!(
                &json,
                solo,
                "scenario {} differs between solo and parallel (order {:?}, jobs {})",
                result.scenario.id,
                order,
                jobs
            );
        }
    }
}

/// The sorted-by-cost default claim order also reproduces the solo reports
/// (what `dmetabench suite --jobs N` actually executes).
#[test]
fn default_claim_order_matches_solo_runs() {
    let scenarios = fast_scenarios();
    let run = suite::run_suite(&scenarios, 4);
    for (result, solo) in run.results.iter().zip(solo_reports()) {
        let report = &result.outcome.as_ref().expect("no panic").report;
        let json = serde_json::to_string_pretty(report).expect("serializable");
        assert_eq!(&json, solo, "scenario {}", result.scenario.id);
    }
}

/// `--sim-threads` must never change a report: the paper-model scenarios
/// keep the default `partition() == None`, so they run unpartitioned, as
/// one domain, at every thread count, and the shard-migration audit runs
/// partitioned and reads its counters from the rejoined model — and the
/// reports at 2 and 4 threads stay identical to the default (1 thread)
/// baseline, across claim orders too.
/// (The knob is process-global; the whole matrix runs in one test body so
/// settings never race. A concurrent test observing a temporary setting is
/// still correct: results are thread-count-invariant by design.)
#[test]
fn fast_reports_identical_across_sim_threads() {
    let scenarios = fast_scenarios();
    for threads in [2usize, 4] {
        cluster::set_sim_threads(Some(threads));
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0]] {
            let run = suite::run_suite_ordered(&scenarios, 4, &order);
            for (result, solo) in run.results.iter().zip(solo_reports()) {
                let report = &result.outcome.as_ref().expect("no panic").report;
                let json = serde_json::to_string_pretty(report).expect("serializable");
                assert_eq!(
                    &json, solo,
                    "scenario {} differs at --sim-threads {threads} (order {order:?})",
                    result.scenario.id
                );
            }
        }
    }
    cluster::set_sim_threads(None);
}

/// The full-registry version of the matrix: every *deterministic*
/// registered scenario's report is bit-identical at `--sim-threads {2,4}`
/// to the default (1 thread) baseline (wall-clock scenarios like
/// `exp_tab_4_2` time real host loops and never reproduce byte-for-byte,
/// at any setting). Too slow for the default debug `cargo test` pass —
/// CI runs it in release via `-- --include-ignored`.
#[test]
#[ignore = "full 25-scenario matrix; run in release (CI --include-ignored)"]
fn all_scenario_reports_identical_across_sim_threads() {
    let scenarios: Vec<&'static Scenario> = suite::registry()
        .iter()
        .filter(|s| s.deterministic)
        .collect();
    cluster::set_sim_threads(None);
    let baseline: Vec<String> = suite::run_suite(&scenarios, 4)
        .results
        .iter()
        .map(|r| {
            serde_json::to_string_pretty(&r.outcome.as_ref().expect("no panic").report)
                .expect("serializable")
        })
        .collect();
    for threads in [2usize, 4] {
        cluster::set_sim_threads(Some(threads));
        let run = suite::run_suite(&scenarios, 4);
        for (result, solo) in run.results.iter().zip(&baseline) {
            let report = &result.outcome.as_ref().expect("no panic").report;
            let json = serde_json::to_string_pretty(report).expect("serializable");
            assert_eq!(
                &json, solo,
                "scenario {} differs at --sim-threads {threads}",
                result.scenario.id
            );
        }
    }
    cluster::set_sim_threads(None);
}
