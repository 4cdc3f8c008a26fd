//! Integration tests for the causal-tracing layer and the critical-path
//! analyzer (`dmetabench analyze`):
//!
//! * flow events are well-formed — every RPC finish (`ph:"f"`) has a
//!   matching start (`ph:"s"`) with the same id, and every span's causal
//!   `parent` reference resolves to a real span id,
//! * the per-op segment attribution tiles end-to-end latency exactly: the
//!   analyzer's consistency block cross-checks op records against the
//!   independently collected `op.latency` histogram,
//! * gauge timeseries are byte-identical whether a scenario runs solo on
//!   the main thread or on a `--jobs 8` suite worker,
//! * the hand-rolled JSON exports parse as valid JSON.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use cluster::{MpiWorld, Placement, SimConfig};
use dfs::NfsFs;
use dmetabench::analyze;
use dmetabench::suite;
use dmetabench::{BenchParams, Runner};
use serde::Value;
use simcore::{SimDuration, TelemetryReport};

fn traced(id: &str) -> TelemetryReport {
    let s = suite::find(id).expect("registered scenario");
    let result = suite::run_scenario_traced(s);
    result.outcome.as_ref().expect("scenario does not panic");
    result.telemetry.expect("traced run captures")
}

/// A small traced NFS campaign (2 nodes × 2 slots, 1 simulated second) —
/// big enough to exercise RPC flows, cache-hit plans, and the campaign
/// merge, small enough that its Chrome trace parses in milliseconds.
fn small_campaign() -> &'static TelemetryReport {
    static SOLO: OnceLock<TelemetryReport> = OnceLock::new();
    SOLO.get_or_init(|| {
        let (_campaign, report) = simcore::telemetry::capture(|| {
            let params = BenchParams {
                operations: vec![
                    "MakeFiles".into(),
                    "StatFiles".into(),
                    "StatNocacheFiles".into(),
                ],
                duration: SimDuration::from_secs(1),
                problem_size: 300,
                label: "causal-test".into(),
                ..BenchParams::default()
            };
            let placement = Placement::discover(&MpiWorld::uniform(2, 2));
            Runner::new(params).run_simulated(
                &placement,
                || Box::new(NfsFs::with_defaults()),
                &SimConfig::default(),
            )
        });
        report
    })
}

/// Solo traced run of the §4.8 write-back study, computed once per process
/// (it is the heaviest scenario this file touches).
fn writeback() -> &'static TelemetryReport {
    static SOLO: OnceLock<TelemetryReport> = OnceLock::new();
    SOLO.get_or_init(|| traced("exp_4_8_writeback"))
}

fn parse_events(trace: &str) -> Vec<Value> {
    let doc = serde_json::parse(trace).expect("trace is valid JSON");
    doc.get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array")
        .to_vec()
}

fn str_field<'a>(e: &'a Value, key: &str) -> Option<&'a str> {
    e.get(key).and_then(Value::as_str)
}

/// Every `ph:"f"` flow id has exactly one matching `ph:"s"`, and flow
/// timestamps are ordered (start <= finish).
#[test]
fn rpc_flows_are_well_formed() {
    {
        let id = "small-nfs-campaign";
        let t = small_campaign();
        let events = parse_events(&t.to_chrome_trace_json());
        let mut starts: HashMap<u64, f64> = HashMap::new();
        let mut finishes: HashMap<u64, f64> = HashMap::new();
        for e in &events {
            let ph = str_field(e, "ph").unwrap_or("");
            if ph != "s" && ph != "f" {
                continue;
            }
            let fid = e.get("id").and_then(Value::as_u64).expect("flow id");
            let ts = e.get("ts").and_then(Value::as_f64).expect("flow ts");
            let map = if ph == "s" {
                &mut starts
            } else {
                &mut finishes
            };
            assert!(
                map.insert(fid, ts).is_none(),
                "{id}: duplicate ph:\"{ph}\" for flow id {fid}"
            );
        }
        assert!(!finishes.is_empty(), "{id}: traced run emits RPC flows");
        for (fid, fin_ts) in &finishes {
            let start_ts = starts
                .get(fid)
                .unwrap_or_else(|| panic!("{id}: flow {fid} finishes without a start"));
            assert!(
                start_ts <= fin_ts,
                "{id}: flow {fid} finishes before it starts"
            );
        }
        assert_eq!(
            starts.len(),
            finishes.len(),
            "{id}: every flow start must be closed"
        );
    }
}

/// Every nonzero `args.parent` on a span resolves to some span's `args.id`:
/// the causal graph has no dangling edges.
#[test]
fn span_parent_references_resolve() {
    let t = small_campaign();
    let events = parse_events(&t.to_chrome_trace_json());
    let mut ids: HashSet<u64> = HashSet::new();
    let mut parents: Vec<u64> = Vec::new();
    for e in &events {
        if str_field(e, "ph") != Some("X") {
            continue;
        }
        let args = e.get("args");
        if let Some(id) = args.and_then(|a| a.get("id")).and_then(Value::as_u64) {
            assert!(ids.insert(id), "span ids are unique, {id} repeats");
        }
        if let Some(p) = args.and_then(|a| a.get("parent")).and_then(Value::as_u64) {
            parents.push(p);
        }
    }
    assert!(!ids.is_empty(), "op spans carry causal ids");
    assert!(!parents.is_empty(), "rpc spans carry parent links");
    for p in parents {
        assert!(ids.contains(&p), "dangling parent reference {p}");
    }
}

/// The engine's segment attribution tiles every op's latency exactly, and
/// the totals agree with the independent `op.latency` histogram.
#[test]
fn writeback_segments_sum_to_op_latency() {
    let t = writeback();
    let a = analyze::analyze(t, 10);
    assert!(
        a.consistency.consistent,
        "attribution invariant violated: {:?}",
        a.consistency
    );
    assert!(a.consistency.records > 0, "write-back study records ops");
    assert_eq!(a.consistency.mismatched_records, 0);
    assert_eq!(a.consistency.segment_sum_ns, a.consistency.dur_sum_ns);
    let hist = t.histogram("op.latency").expect("op.latency recorded");
    assert_eq!(a.consistency.hist_count, Some(hist.count()));
    assert_eq!(hist.count(), a.consistency.records);
    assert_eq!(hist.sum().as_nanos(), a.consistency.dur_sum_ns);
    // the write-back sweep contends on the journal-commit semaphore, so its
    // stalls surface as lock wait (MDS slots never saturate: queue stays 0)
    let [_, network, queue, service, lock] = a.totals;
    assert!(lock > 0, "nonzero lock-wait segment");
    assert!(network > 0, "nonzero network segment");
    assert!(service > 0, "nonzero service segment");
    assert_eq!(queue, 0, "write-back MDS never queues in this geometry");
}

/// The small NFS campaign analyzes consistently too, and its `StatFiles`
/// phase hits the client attribute cache — the hit/miss split must show it.
#[test]
fn small_campaign_analysis_is_consistent_and_cache_tagged() {
    let t = small_campaign();
    let a = analyze::analyze(t, 5);
    assert!(a.consistency.consistent, "{:?}", a.consistency);
    assert!(a.consistency.records > 0);
    let hits: u64 = a.groups.iter().map(|g| g.cache_hits).sum();
    let misses: u64 = a.groups.iter().map(|g| g.cache_misses).sum();
    assert!(hits > 0, "attr-cache hits tagged on ops");
    assert!(misses > 0, "attr-cache misses tagged on ops");
}

/// Gauge sampling rides the deterministic virtual-time sampler, so the
/// exported timeseries is byte-identical solo vs. a `--jobs 8` suite run.
#[test]
fn timeseries_identical_solo_vs_parallel_suite() {
    let solo = writeback();
    assert!(solo.gauge_count() > 0, "sampler records gauges");
    let solo_ts = solo.to_timeseries_json();
    assert!(solo_ts.contains("dmetabench.timeseries/v1"));
    assert!(solo_ts.contains("queue_depth"), "server gauges present");

    let s = suite::find("exp_4_8_writeback").expect("registered");
    let run = suite::run_suite_traced(&[s], 8);
    let parallel = run.results[0].telemetry.as_ref().expect("traced");
    assert_eq!(solo_ts, parallel.to_timeseries_json());
    assert_eq!(
        solo.to_chrome_trace_json(),
        parallel.to_chrome_trace_json(),
        "full trace (flows, ids, gauges) identical across jobs levels"
    );
}

/// The analyzer's hand-rolled JSON is valid and carries the expected
/// schema markers; the timeseries export parses too.
#[test]
fn analyzer_exports_are_valid_json() {
    let t = writeback();
    let a = analyze::analyze(t, 5);
    let critpath = serde_json::parse(&a.to_json("exp_4_8_writeback")).expect("critpath parses");
    assert_eq!(
        str_field(&critpath, "schema"),
        Some("dmetabench.critpath/v1")
    );
    assert_eq!(str_field(&critpath, "scenario"), Some("exp_4_8_writeback"));
    assert!(critpath
        .get("ops")
        .and_then(Value::as_array)
        .is_some_and(|o| !o.is_empty()));
    let cons = critpath.get("consistency").expect("consistency block");
    assert_eq!(cons.get("consistent"), Some(&Value::Bool(true)));
    assert_eq!(
        critpath
            .get("slowest")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(5.min(a.consistency.records as usize))
    );

    let ts = serde_json::parse(&t.to_timeseries_json()).expect("timeseries parses");
    assert_eq!(str_field(&ts, "schema"), Some("dmetabench.timeseries/v1"));
    assert!(ts
        .get("series")
        .and_then(Value::as_object)
        .is_some_and(|s| !s.is_empty()));

    let md = a.to_markdown("exp_4_8_writeback");
    assert!(md.contains("CONSISTENT"));
    assert!(md.contains("| queue |"));
}

/// Registered scenarios that complete no simulated operation: tables and
/// pipeline examples computed without the engine, the host wall-clock
/// harness study, and the crash and scrub drills, which drive memfs
/// directly.
const OP_LESS: [&str; 5] = [
    "exp_tab_3_1",
    "exp_fig_3_4",
    "exp_tab_4_2",
    "exp_crash_recovery",
    "exp_scrub_tax",
];

/// Latency tiling on every scenario: each registered scenario, traced once
/// at the default engine, analyzes consistently, with op records exactly
/// where it completes operations. Runs one scenario at a time, so only one
/// capture is alive (the traced `exp_4_3_filecreation` is the largest, with
/// about 15M op records). CI runs it in release via `-- --include-ignored`.
#[test]
#[ignore = "traces the full registry; run in release (CI --include-ignored)"]
fn every_scenario_tiles_op_latency() {
    for s in suite::registry() {
        let t = traced(s.id);
        let c = analyze::analyze(&t, 0).consistency;
        assert!(
            c.consistent,
            "{}: segments do not tile op latency: {c:?}",
            s.id
        );
        assert_eq!(
            c.records > 0,
            !OP_LESS.contains(&s.id),
            "{}: {} op records",
            s.id,
            c.records
        );
    }
}
