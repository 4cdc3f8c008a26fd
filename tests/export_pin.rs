//! Byte-identity pin for the telemetry exports and the analyzer.
//!
//! The determinism tests compare a build's exports with the same build's
//! exports (across `--jobs`, `--sim-threads` and claim orders), so a format
//! drift would pass all of them. This file pins the bytes themselves:
//!
//! * the exact Chrome-trace, metrics and timeseries JSON of a small
//!   synthetic capture that covers every event kind, all four span
//!   `(id, parent)` combinations, labels and process/track names that need
//!   escaping (`"`, `\`, `\n`, `\r`, `\t`, U+0001, non-ASCII), gauges on a
//!   named and on an unnamed track, and two runs whose gauge series share
//!   one key;
//! * the length and FNV-1a digest of every export and of the analyzer's
//!   JSON and Markdown for one registered scenario;
//! * that each streaming writer produces the bytes of its `to_*_json`
//!   wrapper.

use dmetabench::{analyze, suite};
use simcore::telemetry::{self, CacheTag, OpRecord, ENGINE_TID};
use simcore::{SimDuration, SimTime, TelemetryReport};

const HOSTILE: &str = "q\"b\\n\nr\rt\tc\u{1}é✓";

fn synthetic() -> TelemetryReport {
    let t = SimTime::from_nanos;
    telemetry::capture(|| {
        let pid = telemetry::begin_run("model \"a\"\\\n\r\t\u{1}é");
        let w = telemetry::worker_tid(0);
        let s = telemetry::server_tid(0);
        telemetry::name_track(pid, w, "node\"00\"/p0\t\u{1}ü");
        telemetry::name_track(pid, s, "mds\\0\r\n");
        let op = telemetry::fresh_id();
        let rpc = telemetry::fresh_id();
        telemetry::span_with_id(pid, w, "create", "op", t(1_234), t(5_678), op, 0);
        telemetry::span_with_id(pid, s, "rpc", "rpc", t(2_000), t(4_999), rpc, op);
        telemetry::span_with_id(pid, s, "commit", "bg", t(7), t(7), 0, op);
        telemetry::span(
            pid,
            w,
            HOSTILE,
            "x\ty",
            t(12_345_678_901),
            t(12_345_679_000),
        );
        telemetry::span(pid, w, "create", "op", t(999), t(1_999));
        telemetry::instant(pid, s, "snapshot", HOSTILE, t(9_000));
        telemetry::flow_start(pid, w, "rpc", "rpc", t(2_000), rpc);
        telemetry::flow_finish(pid, s, "rpc", "rpc", t(4_999), rpc);
        telemetry::gauge(pid, s, "queue_depth", t(100), 3);
        telemetry::gauge(pid, ENGINE_TID, "rpcs_outstanding", t(150), u64::MAX);
        telemetry::gauge(pid, s, HOSTILE, t(200), 0);
        let pid2 = telemetry::begin_run("second");
        let pid3 = telemetry::begin_run("second");
        telemetry::gauge(pid3, ENGINE_TID, "rpcs_outstanding", t(10), 1);
        telemetry::gauge(pid2, ENGINE_TID, "rpcs_outstanding", t(20), 2);
        telemetry::gauge(pid3, ENGINE_TID, "rpcs_outstanding", t(30), 3);
        telemetry::gauge(pid, s, "queue_depth", t(300), 4);
        telemetry::count("rpc.count", 7);
        telemetry::count(HOSTILE, 1);
        telemetry::count("rpc.count", 2);
        telemetry::observe(HOSTILE, SimDuration::from_micros(3));
        // top-k ties: equal durations order by start, pid, tid, then
        // recording order
        let w1 = telemetry::worker_tid(1);
        for (id, pid, tid, start_ns, dur, cache) in [
            (op, pid, w, 1_234, 4_444, CacheTag::Miss),
            (rpc, pid, w, 1_234, 1_000, CacheTag::Hit),
            (3, pid, w1, 500, 1_000, CacheTag::Untagged),
            (4, pid2, w, 1_234, 1_000, CacheTag::Miss),
            (5, pid, w1, 1_234, 1_000, CacheTag::Hit),
            (6, pid, w, 1_234, 1_000, CacheTag::Untagged),
        ] {
            telemetry::op_record(OpRecord {
                pid,
                tid,
                name: if id == 3 { "stat" } else { "create" },
                id,
                start_ns,
                dur_ns: dur,
                client_ns: dur - 100,
                network_ns: 50,
                queue_ns: 30,
                service_ns: 20,
                lock_ns: 0,
                cache,
            });
            telemetry::observe("op.latency", SimDuration::from_nanos(dur));
        }
    })
    .1
}

const CHROME: &str = r#"{"displayTimeUnit":"ms","traceEvents":[
 {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"model \"a\"\\\n\r\t\u0001é"}},
 {"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"second"}},
 {"ph":"M","pid":3,"tid":0,"name":"process_name","args":{"name":"second"}},
 {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"node\"00\"/p0\t\u0001ü"}},
 {"ph":"M","pid":1,"tid":1048576,"name":"thread_name","args":{"name":"mds\\0\r\n"}},
 {"ph":"X","pid":1,"tid":0,"ts":1.234,"dur":4.444,"name":"create","cat":"op","args":{"id":1}},
 {"ph":"X","pid":1,"tid":1048576,"ts":2.000,"dur":2.999,"name":"rpc","cat":"rpc","args":{"id":2,"parent":1}},
 {"ph":"X","pid":1,"tid":1048576,"ts":0.007,"dur":0.000,"name":"commit","cat":"bg","args":{"parent":1}},
 {"ph":"X","pid":1,"tid":0,"ts":12345678.901,"dur":0.099,"name":"q\"b\\n\nr\rt\tc\u0001é✓","cat":"x\ty"},
 {"ph":"X","pid":1,"tid":0,"ts":0.999,"dur":1.000,"name":"create","cat":"op"},
 {"ph":"i","pid":1,"tid":1048576,"ts":9.000,"s":"t","name":"snapshot","cat":"q\"b\\n\nr\rt\tc\u0001é✓"},
 {"ph":"s","pid":1,"tid":0,"ts":2.000,"id":2,"name":"rpc","cat":"rpc"},
 {"ph":"f","bp":"e","pid":1,"tid":1048576,"ts":4.999,"id":2,"name":"rpc","cat":"rpc"},
 {"ph":"C","pid":1,"tid":0,"ts":0.100,"name":"mds\\0\r\n queue_depth","args":{"value":3}},
 {"ph":"C","pid":1,"tid":0,"ts":0.150,"name":"tid4194304 rpcs_outstanding","args":{"value":18446744073709551615}},
 {"ph":"C","pid":1,"tid":0,"ts":0.200,"name":"mds\\0\r\n q\"b\\n\nr\rt\tc\u0001é✓","args":{"value":0}},
 {"ph":"C","pid":3,"tid":0,"ts":0.010,"name":"tid4194304 rpcs_outstanding","args":{"value":1}},
 {"ph":"C","pid":2,"tid":0,"ts":0.020,"name":"tid4194304 rpcs_outstanding","args":{"value":2}},
 {"ph":"C","pid":3,"tid":0,"ts":0.030,"name":"tid4194304 rpcs_outstanding","args":{"value":3}},
 {"ph":"C","pid":1,"tid":0,"ts":0.300,"name":"mds\\0\r\n queue_depth","args":{"value":4}}
]}
"#;
const METRICS: &str = r#"{
  "counters": {
    "q\"b\\n\nr\rt\tc\u0001é✓": 1,
    "rpc.count": 9
  },
  "spans": {
    "commit": {"count": 1, "total_ns": 0},
    "create": {"count": 2, "total_ns": 5444},
    "q\"b\\n\nr\rt\tc\u0001é✓": {"count": 1, "total_ns": 99},
    "rpc": {"count": 1, "total_ns": 2999}
  },
  "instants": {
    "snapshot": 1
  },
  "histograms": {
    "op.latency": {"count": 6, "sum_ns": 9444, "max_ns": 4444, "p50_ns": 1023, "p90_ns": 4444, "p99_ns": 4444},
    "q\"b\\n\nr\rt\tc\u0001é✓": {"count": 1, "sum_ns": 3000, "max_ns": 3000, "p50_ns": 3000, "p90_ns": 3000, "p99_ns": 3000}
  }
}
"#;
const TIMESERIES: &str = r#"{
  "schema": "dmetabench.timeseries/v1",
  "series": {
    "model \"a\"\\\n\r\t\u0001é/mds\\0\r\n/q\"b\\n\nr\rt\tc\u0001é✓": [[200,0]],
    "model \"a\"\\\n\r\t\u0001é/mds\\0\r\n/queue_depth": [[100,3],[300,4]],
    "model \"a\"\\\n\r\t\u0001é/tid4194304/rpcs_outstanding": [[150,18446744073709551615]],
    "second/tid4194304/rpcs_outstanding": [[10,1],[20,2],[30,3]]
  }
}
"#;

#[test]
fn synthetic_exports_are_pinned_byte_for_byte() {
    let r = synthetic();
    assert_eq!(r.to_chrome_trace_json(), CHROME, "chrome trace drifted");
    assert_eq!(r.to_metrics_json(), METRICS, "metrics drifted");
    assert_eq!(r.to_timeseries_json(), TIMESERIES, "timeseries drifted");
}

/// The one JSON string escaper: `"` and `\` backslashed, the short forms
/// for `\n`, `\r` and `\t`, `\u00XX` for other control characters, and
/// non-ASCII passed through.
#[test]
fn escaper_writes_short_and_unicode_forms() {
    let mut out = b"<".to_vec();
    telemetry::escape_json(&mut out, HOSTILE);
    assert_eq!(
        String::from_utf8(out).unwrap(),
        r#"<q\"b\\n\nr\rt\tc\u0001é✓"#
    );
}

/// The analyzer's JSON escapes through the same escaper as the exports;
/// the ranking covers every top-k tie-break and the truncation to k.
const CRITPATH: &str = r#"{
  "schema": "dmetabench.critpath/v1",
  "scenario": "q\"b\\n\nr\rt\tc\u0001é✓",
  "totals_ns": {"client": 8844, "network": 300, "queue": 180, "service": 120, "lock": 0},
  "dur_total_ns": 9444,
  "ops": [
    {"name": "create", "count": 5, "dur_total_ns": 8444, "dur_p50_ns": 1023, "dur_p99_ns": 4444, "cache_hits": 2, "cache_misses": 2, "segments": {"client": {"total_ns": 7944, "p50_ns": 1023, "p99_ns": 4344}, "network": {"total_ns": 250, "p50_ns": 50, "p99_ns": 50}, "queue": {"total_ns": 150, "p50_ns": 30, "p99_ns": 30}, "service": {"total_ns": 100, "p50_ns": 20, "p99_ns": 20}, "lock": {"total_ns": 0, "p50_ns": 0, "p99_ns": 0}}},
    {"name": "stat", "count": 1, "dur_total_ns": 1000, "dur_p50_ns": 1000, "dur_p99_ns": 1000, "cache_hits": 0, "cache_misses": 0, "segments": {"client": {"total_ns": 900, "p50_ns": 900, "p99_ns": 900}, "network": {"total_ns": 50, "p50_ns": 50, "p99_ns": 50}, "queue": {"total_ns": 30, "p50_ns": 30, "p99_ns": 30}, "service": {"total_ns": 20, "p50_ns": 20, "p99_ns": 20}, "lock": {"total_ns": 0, "p50_ns": 0, "p99_ns": 0}}}
  ],
  "slowest": [
    {"name": "create", "id": 1, "process": "model \"a\"\\\n\r\t\u0001é", "track": "node\"00\"/p0\t\u0001ü", "start_ns": 1234, "dur_ns": 4444, "cache": "miss", "segments": {"client": 4344, "network": 50, "queue": 30, "service": 20, "lock": 0}},
    {"name": "stat", "id": 3, "process": "model \"a\"\\\n\r\t\u0001é", "track": "tid1", "start_ns": 500, "dur_ns": 1000, "cache": "untagged", "segments": {"client": 900, "network": 50, "queue": 30, "service": 20, "lock": 0}},
    {"name": "create", "id": 2, "process": "model \"a\"\\\n\r\t\u0001é", "track": "node\"00\"/p0\t\u0001ü", "start_ns": 1234, "dur_ns": 1000, "cache": "hit", "segments": {"client": 900, "network": 50, "queue": 30, "service": 20, "lock": 0}},
    {"name": "create", "id": 6, "process": "model \"a\"\\\n\r\t\u0001é", "track": "node\"00\"/p0\t\u0001ü", "start_ns": 1234, "dur_ns": 1000, "cache": "untagged", "segments": {"client": 900, "network": 50, "queue": 30, "service": 20, "lock": 0}},
    {"name": "create", "id": 5, "process": "model \"a\"\\\n\r\t\u0001é", "track": "tid1", "start_ns": 1234, "dur_ns": 1000, "cache": "hit", "segments": {"client": 900, "network": 50, "queue": 30, "service": 20, "lock": 0}}
  ],
  "consistency": {"records": 6, "segment_sum_ns": 9444, "dur_sum_ns": 9444, "mismatched_records": 0, "hist_count": 6, "hist_sum_ns": 9444, "consistent": true}
}
"#;

/// `(length, FNV-1a)` of the analyzer's Markdown, which passes names
/// through unescaped.
const REPORT_MD: (usize, u64) = (1_369, 0x90dc_26be_b245_2d8e);

#[test]
fn synthetic_analysis_is_pinned() {
    let a = analyze::analyze(&synthetic(), 5);
    assert_eq!(a.to_json(HOSTILE), CRITPATH, "critpath drifted");
    let md = a.to_markdown(HOSTILE);
    assert_eq!(
        (md.len(), fnv1a(md.as_bytes())),
        REPORT_MD,
        "report drifted"
    );
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(export, length, FNV-1a)` of one registered scenario's traced run.
const SCENARIO: &str = "exp_lst_3_3";
const SCENARIO_PIN: [(&str, usize, u64); 5] = [
    ("chrome", 8_165_693, 0x12ac_18e5_fba6_c181),
    ("metrics", 695, 0xa60e_5869_3402_f8fa),
    ("timeseries", 3_551, 0xd6bf_bbe3_4127_7a5d),
    ("critpath.json", 3_214, 0xa139_acfe_c51d_fe3b),
    ("report.md", 1_665, 0x0547_adc7_2536_7f8a),
];

#[test]
fn scenario_exports_are_pinned_by_digest() {
    let result = suite::run_scenario_traced(suite::find(SCENARIO).expect("registered"));
    result.outcome.as_ref().expect("scenario does not panic");
    let t = result.telemetry.expect("traced run captures");
    let a = analyze::analyze(&t, 10);
    let got = [
        t.to_chrome_trace_json(),
        t.to_metrics_json(),
        t.to_timeseries_json(),
        a.to_json(SCENARIO),
        a.to_markdown(SCENARIO),
    ];
    let got: Vec<(&str, usize, u64)> = SCENARIO_PIN
        .iter()
        .zip(&got)
        .map(|(&(name, _, _), bytes)| (name, bytes.len(), fnv1a(bytes.as_bytes())))
        .collect();
    assert_eq!(got, SCENARIO_PIN, "{SCENARIO} exports drifted");
    assert_writers_match_wrappers(&t);
}

/// Each streaming writer emits exactly its `to_*_json` wrapper's bytes.
fn assert_writers_match_wrappers(t: &TelemetryReport) {
    let mut buf = Vec::new();
    t.write_chrome_trace(&mut buf).unwrap();
    assert_eq!(
        buf,
        t.to_chrome_trace_json().as_bytes(),
        "write_chrome_trace"
    );
    buf.clear();
    t.write_metrics(&mut buf).unwrap();
    assert_eq!(buf, t.to_metrics_json().as_bytes(), "write_metrics");
    buf.clear();
    t.write_timeseries(&mut buf).unwrap();
    assert_eq!(buf, t.to_timeseries_json().as_bytes(), "write_timeseries");
}

#[test]
fn synthetic_writers_match_wrappers() {
    assert_writers_match_wrappers(&synthetic());
}
