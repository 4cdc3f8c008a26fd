//! Critical-path analysis over a captured telemetry report.
//!
//! The engine attributes every completed operation's end-to-end latency to
//! five causal segments (client CPU, network, server queueing, server
//! service, lock wait — see `cluster::simengine`) and records them as
//! [`OpRecord`]s. This module walks those records and produces the
//! per-scenario performance breakdown behind `dmetabench analyze`:
//!
//! * per-op-name aggregation — op count, mean latency, per-segment share,
//!   p50/p99 per segment (power-of-two bucket resolution, see
//!   [`LatencyHistogram::percentile`]),
//! * cache outcome split (hit / miss / untagged op counts),
//! * the top-k slowest individual chains with their segment breakdowns and
//!   resolved process/track names,
//! * a consistency block proving the invariant the analyzer rests on: the
//!   sum of every record's segments equals its duration, and the records'
//!   total duration equals the `op.latency` histogram total.
//!
//! Everything here is a pure function of the [`TelemetryReport`], so the
//! JSON and Markdown outputs are byte-deterministic.

use simcore::telemetry::{escape_json, CacheTag, OpRecord};
use simcore::{LatencyHistogram, SimDuration, TelemetryReport};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::io::Write as _;

/// The five attribution segments, in presentation order.
pub const SEGMENTS: [&str; 5] = ["client", "network", "queue", "service", "lock"];

fn segments_of(r: &OpRecord) -> [u64; 5] {
    [
        r.client_ns,
        r.network_ns,
        r.queue_ns,
        r.service_ns,
        r.lock_ns,
    ]
}

/// Aggregated statistics for one segment within one op-name group.
#[derive(Debug, Clone)]
pub struct SegmentStats {
    /// Total virtual nanoseconds attributed to this segment.
    pub total_ns: u64,
    /// Median per-op contribution (bucketed).
    pub p50_ns: u64,
    /// 99th-percentile per-op contribution (bucketed).
    pub p99_ns: u64,
}

/// Aggregation of all records sharing one op name.
#[derive(Debug, Clone)]
pub struct OpGroup {
    /// Operation label (`"create"`, `"stat"`, …).
    pub name: String,
    /// Number of operations.
    pub count: u64,
    /// Total end-to-end latency.
    pub dur_total_ns: u64,
    /// p50 / p99 of end-to-end latency (bucketed).
    pub dur_p50_ns: u64,
    /// 99th percentile of end-to-end latency (bucketed).
    pub dur_p99_ns: u64,
    /// Per-segment stats in [`SEGMENTS`] order.
    pub segments: Vec<SegmentStats>,
    /// Ops served from a client cache.
    pub cache_hits: u64,
    /// Ops that missed a client cache.
    pub cache_misses: u64,
}

/// One of the slowest individual operation chains.
#[derive(Debug, Clone)]
pub struct SlowChain {
    /// Operation label.
    pub name: String,
    /// Causal id of the op span (matches the trace's `args.id`).
    pub id: u64,
    /// Run (trace process) the op belongs to.
    pub process: String,
    /// Worker track the op ran on.
    pub track: String,
    /// Virtual start time.
    pub start_ns: u64,
    /// End-to-end latency.
    pub dur_ns: u64,
    /// Segment values in [`SEGMENTS`] order.
    pub segments: [u64; 5],
    /// Cache outcome label.
    pub cache: &'static str,
}

/// The analyzer's self-check: per-record segment sums vs. durations, and
/// record totals vs. the independently collected `op.latency` histogram.
#[derive(Debug, Clone)]
pub struct Consistency {
    /// Records analyzed.
    pub records: u64,
    /// Sum of all per-record segment sums.
    pub segment_sum_ns: u64,
    /// Sum of all record durations.
    pub dur_sum_ns: u64,
    /// Records whose segments do not sum to their duration (0 in a healthy
    /// run — the engine maintains the invariant exactly).
    pub mismatched_records: u64,
    /// `op.latency` histogram count (`None` if the run recorded none).
    pub hist_count: Option<u64>,
    /// `op.latency` histogram sum.
    pub hist_sum_ns: Option<u64>,
    /// All cross-checks hold.
    pub consistent: bool,
}

/// The complete critical-path analysis of one captured run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-op-name groups, sorted by total latency descending (ties by
    /// name, so output order is deterministic).
    pub groups: Vec<OpGroup>,
    /// Overall totals per segment in [`SEGMENTS`] order.
    pub totals: [u64; 5],
    /// Total end-to-end latency across all records.
    pub dur_total_ns: u64,
    /// The top-k slowest chains, slowest first.
    pub slowest: Vec<SlowChain>,
    /// Self-check block.
    pub consistency: Consistency,
}

/// One op name's running totals in [`analyze`]'s single pass.
struct GroupAcc {
    name: &'static str,
    dur: LatencyHistogram,
    segments: [LatencyHistogram; 5],
    hits: u64,
    misses: u64,
}

impl GroupAcc {
    fn finish(self) -> OpGroup {
        let ns = |h: &LatencyHistogram, p: f64| h.percentile(p).as_nanos();
        OpGroup {
            name: self.name.to_owned(),
            count: self.dur.count(),
            dur_total_ns: self.dur.sum().as_nanos(),
            dur_p50_ns: ns(&self.dur, 0.50),
            dur_p99_ns: ns(&self.dur, 0.99),
            segments: (self.segments.iter())
                .map(|h| SegmentStats {
                    total_ns: h.sum().as_nanos(),
                    p50_ns: ns(h, 0.50),
                    p99_ns: ns(h, 0.99),
                })
                .collect(),
            cache_hits: self.hits,
            cache_misses: self.misses,
        }
    }
}

/// Rank of a record among the slowest chains: smaller is slower. Duration
/// descending, then start, pid, tid and finally record order, so the
/// ranking is total and deterministic.
type ChainRank = (Reverse<u64>, u64, u32, u64, usize);

/// Analyze a report's op records, keeping the `top_k` slowest chains.
#[must_use]
pub fn analyze(report: &TelemetryReport, top_k: usize) -> Analysis {
    let records = report.op_records();

    // one pass: per-name histograms, overall totals, the consistency sums,
    // and a bounded max-heap holding the `top_k` slowest ranks seen so far
    let mut groups: Vec<GroupAcc> = Vec::new();
    let mut totals = [0u64; 5];
    let (mut dur_total_ns, mut segment_sum_ns, mut mismatched) = (0u64, 0u64, 0u64);
    let mut top: BinaryHeap<ChainRank> = BinaryHeap::with_capacity(top_k.min(records.len()));
    for (i, r) in records.iter().enumerate() {
        // names are interned statics, so the pointer test almost always
        // settles it; equal text under another pointer still merges
        let g = match (groups.iter()).position(|g| std::ptr::eq(g.name, r.name) || g.name == r.name)
        {
            Some(g) => &mut groups[g],
            None => {
                groups.push(GroupAcc {
                    name: r.name,
                    dur: LatencyHistogram::new(),
                    segments: std::array::from_fn(|_| LatencyHistogram::new()),
                    hits: 0,
                    misses: 0,
                });
                groups.last_mut().expect("just pushed")
            }
        };
        g.dur.push(SimDuration::from_nanos(r.dur_ns));
        for ((h, total), v) in g.segments.iter_mut().zip(&mut totals).zip(segments_of(r)) {
            h.push(SimDuration::from_nanos(v));
            *total += v;
        }
        match r.cache {
            CacheTag::Hit => g.hits += 1,
            CacheTag::Miss => g.misses += 1,
            CacheTag::Untagged => {}
        }
        let segment_sum = r.segment_sum_ns();
        dur_total_ns += r.dur_ns;
        segment_sum_ns += segment_sum;
        mismatched += u64::from(segment_sum != r.dur_ns);

        let rank = (Reverse(r.dur_ns), r.start_ns, r.pid, r.tid, i);
        if top.len() < top_k {
            top.push(rank);
        } else if let Some(mut worst) = top.peek_mut() {
            if rank < *worst {
                *worst = rank;
            }
        }
    }

    let mut groups: Vec<OpGroup> = groups.into_iter().map(GroupAcc::finish).collect();
    groups.sort_by(|a, b| {
        b.dur_total_ns
            .cmp(&a.dur_total_ns)
            .then_with(|| a.name.cmp(&b.name))
    });

    let slowest: Vec<SlowChain> = (top.into_sorted_vec().into_iter())
        .map(|(.., i)| {
            let r = &records[i];
            SlowChain {
                name: r.name.to_owned(),
                id: r.id,
                process: report.process_name(r.pid).unwrap_or("?").to_owned(),
                track: report
                    .track_name(r.pid, r.tid)
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("tid{}", r.tid)),
                start_ns: r.start_ns,
                dur_ns: r.dur_ns,
                segments: segments_of(r),
                cache: r.cache.label(),
            }
        })
        .collect();

    let hist = report.histogram("op.latency");
    let hist_count = hist.map(LatencyHistogram::count);
    let hist_sum_ns = hist.map(|h| h.sum().as_nanos());
    let consistent = mismatched == 0
        && segment_sum_ns == dur_total_ns
        && hist_count.is_none_or(|c| c == records.len() as u64)
        && hist_sum_ns.is_none_or(|s| s == dur_total_ns);
    let consistency = Consistency {
        records: records.len() as u64,
        segment_sum_ns,
        dur_sum_ns: dur_total_ns,
        mismatched_records: mismatched,
        hist_count,
        hist_sum_ns,
        consistent,
    };

    Analysis {
        groups,
        totals,
        dur_total_ns,
        slowest,
        consistency,
    }
}

impl Analysis {
    /// Serialize as deterministic JSON (schema `dmetabench.critpath/v1`).
    #[must_use]
    pub fn to_json(&self, scenario: &str) -> String {
        let mut out = Vec::new();
        let quoted = |out: &mut Vec<u8>, s: &str| {
            out.push(b'"');
            escape_json(out, s);
            out.push(b'"');
        };
        let seg_obj = |vals: &[u64; 5]| -> String {
            SEGMENTS
                .iter()
                .zip(vals)
                .map(|(s, v)| format!("\"{s}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        out.extend_from_slice(b"{\n  \"schema\": \"dmetabench.critpath/v1\",\n  \"scenario\": ");
        quoted(&mut out, scenario);
        let _ = write!(
            out,
            ",\n  \"totals_ns\": {{{}}},\n  \"dur_total_ns\": {},\n",
            seg_obj(&self.totals),
            self.dur_total_ns
        );
        out.extend_from_slice(b"  \"ops\": [\n");
        for (gi, g) in self.groups.iter().enumerate() {
            out.extend_from_slice(b"    {\"name\": ");
            quoted(&mut out, &g.name);
            let _ = write!(
                out,
                ", \"count\": {}, \"dur_total_ns\": {}, \
                 \"dur_p50_ns\": {}, \"dur_p99_ns\": {}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"segments\": {{",
                g.count, g.dur_total_ns, g.dur_p50_ns, g.dur_p99_ns, g.cache_hits, g.cache_misses
            );
            for (i, (seg, st)) in SEGMENTS.iter().zip(&g.segments).enumerate() {
                if i > 0 {
                    out.extend_from_slice(b", ");
                }
                let _ = write!(
                    out,
                    "\"{seg}\": {{\"total_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                    st.total_ns, st.p50_ns, st.p99_ns
                );
            }
            out.extend_from_slice(b"}}");
            out.extend_from_slice(if gi + 1 < self.groups.len() {
                b",\n"
            } else {
                b"\n"
            });
        }
        out.extend_from_slice(b"  ],\n  \"slowest\": [\n");
        for (ci, c) in self.slowest.iter().enumerate() {
            out.extend_from_slice(b"    {\"name\": ");
            quoted(&mut out, &c.name);
            let _ = write!(out, ", \"id\": {}, \"process\": ", c.id);
            quoted(&mut out, &c.process);
            out.extend_from_slice(b", \"track\": ");
            quoted(&mut out, &c.track);
            let _ = write!(
                out,
                ", \"start_ns\": {}, \"dur_ns\": {}, \"cache\": \"{}\", \"segments\": {{{}}}}}",
                c.start_ns,
                c.dur_ns,
                c.cache,
                seg_obj(&c.segments)
            );
            out.extend_from_slice(if ci + 1 < self.slowest.len() {
                b",\n"
            } else {
                b"\n"
            });
        }
        let cons = &self.consistency;
        let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        let _ = write!(
            out,
            "  ],\n  \"consistency\": {{\"records\": {}, \"segment_sum_ns\": {}, \
             \"dur_sum_ns\": {}, \"mismatched_records\": {}, \"hist_count\": {}, \
             \"hist_sum_ns\": {}, \"consistent\": {}}}\n}}\n",
            cons.records,
            cons.segment_sum_ns,
            cons.dur_sum_ns,
            cons.mismatched_records,
            opt(cons.hist_count),
            opt(cons.hist_sum_ns),
            cons.consistent
        );
        String::from_utf8(out).expect("escaped JSON is UTF-8")
    }

    /// Render a human-readable Markdown report.
    #[must_use]
    pub fn to_markdown(&self, scenario: &str) -> String {
        let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                "0.0".to_owned()
            } else {
                format!("{:.1}", part as f64 * 100.0 / whole as f64)
            }
        };
        let mut out = String::new();
        let _ = writeln!(out, "# Critical-path report — `{scenario}`\n");
        let _ = writeln!(
            out,
            "{} op(s), {} ms total end-to-end latency. Segment shares:\n",
            self.consistency.records,
            ms(self.dur_total_ns)
        );
        out.push_str("| segment | total ms | share % |\n|---|---:|---:|\n");
        for (seg, v) in SEGMENTS.iter().zip(self.totals) {
            let _ = writeln!(out, "| {seg} | {} | {} |", ms(v), pct(v, self.dur_total_ns));
        }
        out.push_str(
            "\n## Per-operation breakdown\n\n\
             | op | count | total ms | p50 ms | p99 ms | client % | network % | \
             queue % | service % | lock % | hit/miss |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for g in &self.groups {
            let shares: Vec<String> = g
                .segments
                .iter()
                .map(|s| pct(s.total_ns, g.dur_total_ns))
                .collect();
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {}/{} |",
                g.name,
                g.count,
                ms(g.dur_total_ns),
                ms(g.dur_p50_ns),
                ms(g.dur_p99_ns),
                shares.join(" | "),
                g.cache_hits,
                g.cache_misses
            );
        }
        if !self.slowest.is_empty() {
            out.push_str(
                "\n## Slowest chains\n\n\
                 | op | process | track | start ms | dur ms | dominant segment | cache |\n\
                 |---|---|---|---:|---:|---|---|\n",
            );
            for c in &self.slowest {
                let (di, dv) = c
                    .segments
                    .iter()
                    .enumerate()
                    .max_by_key(|&(i, v)| (*v, std::cmp::Reverse(i)))
                    .expect("five segments");
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {} ({}%) | {} |",
                    c.name,
                    c.process,
                    c.track,
                    ms(c.start_ns),
                    ms(c.dur_ns),
                    SEGMENTS[di],
                    pct(*dv, c.dur_ns),
                    c.cache
                );
            }
        }
        let cons = &self.consistency;
        let _ = writeln!(
            out,
            "\n## Consistency\n\n\
             - records: {} ({} mismatched)\n\
             - segment sum: {} ms, duration sum: {} ms\n\
             - op.latency histogram: {} op(s), {} ms\n\
             - **{}**",
            cons.records,
            cons.mismatched_records,
            ms(cons.segment_sum_ns),
            ms(cons.dur_sum_ns),
            cons.hist_count.map_or("—".to_owned(), |v| v.to_string()),
            cons.hist_sum_ns.map_or("—".to_owned(), ms),
            if cons.consistent {
                "CONSISTENT: segments sum exactly to end-to-end latency"
            } else {
                "INCONSISTENT — attribution invariant violated"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::telemetry::{self, CacheTag, OpRecord};

    fn rec(name: &'static str, dur: u64, segs: [u64; 5], cache: CacheTag) -> OpRecord {
        OpRecord {
            pid: 1,
            tid: 0,
            name,
            id: 0,
            start_ns: 0,
            dur_ns: dur,
            client_ns: segs[0],
            network_ns: segs[1],
            queue_ns: segs[2],
            service_ns: segs[3],
            lock_ns: segs[4],
            cache,
        }
    }

    fn captured(records: Vec<OpRecord>) -> TelemetryReport {
        let ((), report) = telemetry::capture(|| {
            let pid = telemetry::begin_run("test");
            telemetry::name_track(pid, 0, "w0");
            for mut r in records {
                r.pid = pid;
                telemetry::op_record(r);
                telemetry::observe("op.latency", simcore::SimDuration::from_nanos(r.dur_ns));
            }
        });
        report
    }

    #[test]
    fn hand_built_graph_segments_sum_to_latency() {
        let report = captured(vec![
            rec("create", 100, [10, 40, 30, 15, 5], CacheTag::Untagged),
            rec("create", 60, [10, 20, 10, 15, 5], CacheTag::Miss),
            rec("stat", 5, [5, 0, 0, 0, 0], CacheTag::Hit),
        ]);
        let a = analyze(&report, 2);
        assert!(a.consistency.consistent, "{:?}", a.consistency);
        assert_eq!(a.consistency.records, 3);
        assert_eq!(a.consistency.segment_sum_ns, 165);
        assert_eq!(a.consistency.dur_sum_ns, 165);
        assert_eq!(a.consistency.hist_count, Some(3));
        assert_eq!(a.dur_total_ns, 165);
        assert_eq!(a.totals, [25, 60, 40, 30, 10]);
        // groups sorted by total latency: create (160) then stat (5)
        assert_eq!(a.groups[0].name, "create");
        assert_eq!(a.groups[0].count, 2);
        assert_eq!(a.groups[0].cache_misses, 1);
        assert_eq!(a.groups[1].name, "stat");
        assert_eq!(a.groups[1].cache_hits, 1);
        // slowest chain is the 100ns create; top_k truncates to 2
        assert_eq!(a.slowest.len(), 2);
        assert_eq!(a.slowest[0].dur_ns, 100);
        assert_eq!(a.slowest[0].track, "w0");
        assert_eq!(a.slowest[0].segments, [10, 40, 30, 15, 5]);
    }

    #[test]
    fn mismatched_record_flips_consistency() {
        let report = captured(vec![rec(
            "create",
            100,
            [10, 10, 10, 10, 10], // sums to 50, not 100
            CacheTag::Untagged,
        )]);
        let a = analyze(&report, 1);
        assert!(!a.consistency.consistent);
        assert_eq!(a.consistency.mismatched_records, 1);
    }

    #[test]
    fn json_and_markdown_are_deterministic_and_escaped() {
        let report = captured(vec![rec("create", 10, [10, 0, 0, 0, 0], CacheTag::Hit)]);
        let a = analyze(&report, 5);
        let j1 = a.to_json("weird \"name\"\\x");
        let j2 = a.to_json("weird \"name\"\\x");
        assert_eq!(j1, j2);
        assert!(j1.contains("\"scenario\": \"weird \\\"name\\\"\\\\x\""));
        assert!(j1.contains("\"schema\": \"dmetabench.critpath/v1\""));
        assert_eq!(
            j1.matches('{').count(),
            j1.matches('}').count(),
            "balanced braces: {j1}"
        );
        let md = a.to_markdown("s");
        assert!(md.contains("CONSISTENT"));
        assert!(md.contains("| create |"));
    }

    #[test]
    fn empty_report_analyzes_cleanly() {
        let ((), report) = telemetry::capture(|| {});
        let a = analyze(&report, 3);
        assert_eq!(a.consistency.records, 0);
        assert!(a.consistency.consistent);
        assert!(a.groups.is_empty());
        assert!(a.slowest.is_empty());
        let j = a.to_json("empty");
        assert!(j.contains("\"records\": 0"));
    }
}
