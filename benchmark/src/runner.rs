//! The run protocol: timed reps, then an optional traced rep.
//!
//! Timed reps run untraced, back to back, within the requested seconds: a
//! rep starts only if it should end in time, and the first always runs.
//! There is no warm-up rep: every rep builds its models from scratch and
//! the simulator keeps nothing across runs, so a user pays the same cost
//! on every run. With `--trace 1` one traced rep
//! follows, with profiling scopes, the timing wrappers and allocation
//! counting on, then one untraced rep at the other simulation thread count
//! (for `par.speedup_2t`) and, on the telemetry workload, one rep with
//! capture off (for `telemetry.record_overhead_frac`). Every rep must
//! produce identical simulated results.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use dmetabench::baseline;
use simcore::prof;

use crate::results::{CheckRecord, Host, LayerRow, MetricRecord, Results, SCHEMA};
use crate::stats::{median, quartiles};
use crate::workloads::{self, Mode, Rep, RepTimes, Workload};
use crate::{alloc, layers};

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Workload seed (`SimConfig::seed`); 42 is the seed the baselines were
    /// blessed at.
    pub seed: u64,
    /// Host seconds the run should take; timed reps get all of it, or half
    /// of it when traced.
    pub seconds: f64,
    /// Add the traced rep and report per-layer metrics.
    pub trace: bool,
    /// Reduced geometry.
    pub quick: bool,
}

/// The seed the blessed baselines were recorded at.
pub const BLESSED_SEED: u64 = 42;

/// One finished rep with its host wall time.
struct Measured {
    rep: Rep,
    wall_ns: f64,
}

fn run_rep(w: &Workload, mode: Mode) -> Measured {
    let mut rep = Rep::new(mode);
    let t = Instant::now();
    (w.rep)(&mut rep);
    Measured {
        rep,
        wall_ns: t.elapsed().as_nanos() as f64,
    }
}

/// Run a workload by the protocol above.
///
/// # Errors
///
/// An unknown workload, or a host that does not expose `/proc/self/status`.
pub fn run(opts: &Options) -> Result<Results, String> {
    let w = workloads::find(&opts.workload).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload '{}' (one of: {})",
            opts.workload,
            names.join(", ")
        )
    })?;
    let mode = Mode {
        seed: opts.seed,
        quick: opts.quick,
        wrap: false,
        telemetry: true,
    };
    cluster::set_sim_threads(Some(w.threads));
    // A traced run spends half its time on timed reps and about half on
    // the traced rep and its companions.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let start = Instant::now();
    let mut reps = vec![run_rep(w, mode)];
    // The first rep runs in a fresh process, as a user's run does; later
    // reps inherit a heap the earlier ones fragmented, so their peaks grow
    // with the rep count and thus with host speed.
    let peak_rss = peak_rss_mb()?;
    // start a rep only if it should end within the budget
    while start.elapsed().as_secs_f64() + reps[reps.len() - 1].wall_ns / 1e9 <= budget {
        reps.push(run_rep(w, mode));
    }

    let first = &reps[0].rep;
    let mut checks: Vec<CheckRecord> = first.checks.iter().map(check_record).collect();
    if opts.seed == BLESSED_SEED && !opts.quick {
        checks.extend(baseline_checks(w.scenario, &first.metrics));
    }
    checks.push(agree(
        &format!("{} timed reps give identical results", reps.len()),
        first,
        reps.iter().map(|r| &r.rep),
    ));

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_ns).collect();
    let mut extra: Vec<Rep> = Vec::new();
    let (layers, per_layer) = if opts.trace {
        let (rows, metrics, more) = trace(w, mode, first, median(&walls), &mut checks);
        extra = more;
        (rows, metrics)
    } else {
        (Vec::new(), Vec::new())
    };

    let all = reps.iter().map(|r| &r.rep).chain(&extra);
    let attempted: u64 = all.clone().map(Rep::attempted).sum();
    let failed: u64 = all.map(Rep::failed).sum();
    let checks_failed = checks.iter().filter(|c| !c.passed).count();

    let ops = first.cells.iter().map(|c| c.ops).sum::<u64>() as f64;
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    samples.insert(
        "wall_s".to_owned(),
        walls.iter().map(|ns| ns / 1e9).collect(),
    );
    samples.insert(
        "sim_ops_per_s".to_owned(),
        walls.iter().map(|ns| ops / (ns / 1e9)).collect(),
    );
    samples.insert(
        "setup_s".to_owned(),
        reps.iter()
            .map(|r| r.rep.times.setup_ns as f64 / 1e9)
            .collect(),
    );
    samples.insert("peak_rss_mb".to_owned(), vec![peak_rss]);
    let units = [
        ("wall_s", "s"),
        ("sim_ops_per_s", "1/s"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
    ];
    let mut end_to_end: Vec<MetricRecord> = units
        .iter()
        .map(|&(name, unit)| {
            let s = &samples[name];
            let [q1, med, q3] = quartiles(s);
            MetricRecord {
                name: name.to_owned(),
                value: med,
                unit: unit.to_owned(),
                q1: Some(q1),
                q3: Some(q3),
                n: Some(s.len() as u64),
            }
        })
        .collect();
    end_to_end.push(MetricRecord::plain(
        "ops_failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    end_to_end.push(MetricRecord::plain(
        "checks_failed",
        checks_failed as f64,
        "count",
    ));

    Ok(Results {
        schema: SCHEMA.to_owned(),
        workload: w.name.to_owned(),
        scenario: w.scenario.to_owned(),
        host: host(opts, w.threads),
        correct: checks_failed == 0,
        attempted,
        failed,
        checks,
        samples,
        end_to_end,
        layers,
        per_layer,
    })
}

/// The traced rep and its companions. Returns the layer table, the
/// per-layer metrics and the extra reps (for operation counts).
fn trace(
    w: &Workload,
    mode: Mode,
    reference: &Rep,
    median_wall_ns: f64,
    checks: &mut Vec<CheckRecord>,
) -> (Vec<LayerRow>, Vec<MetricRecord>, Vec<Rep>) {
    prof::reset();
    layers::reset();
    alloc::set_counting(true);
    prof::set_enabled(true);
    let traced = run_rep(w, Mode { wrap: true, ..mode });
    prof::set_enabled(false);
    alloc::set_counting(false);
    checks.push(agree(
        "traced rep matches the timed reps",
        reference,
        [&traced.rep],
    ));

    let other = if w.threads == 1 { 2 } else { 1 };
    cluster::set_sim_threads(Some(other));
    let other_rep = run_rep(w, mode);
    cluster::set_sim_threads(Some(w.threads));
    checks.push(agree(
        &format!("{other}-thread results equal {}-thread results", w.threads),
        reference,
        [&other_rep.rep],
    ));
    let speedup_2t = if other == 2 {
        median_wall_ns / other_rep.wall_ns
    } else {
        other_rep.wall_ns / median_wall_ns
    };
    let mut extra = vec![other_rep.rep];

    let mut telemetry_off_wall_ns = None;
    if w.telemetry {
        let off = run_rep(
            w,
            Mode {
                telemetry: false,
                ..mode
            },
        );
        checks.push(agree(
            "results equal with telemetry capture on and off",
            reference,
            [&off.rep],
        ));
        telemetry_off_wall_ns = Some(off.wall_ns);
        extra.push(off.rep);
    }
    let input = TraceInput {
        snapshot: prof::snapshot(),
        times: traced.rep.times,
        traced_wall_ns: traced.wall_ns,
        threads: w.threads,
        median_wall_ns,
        counts: layers::counts(),
        allocs: alloc::total(),
        attempted: traced.rep.attempted(),
        speedup_2t,
        telemetry_off_wall_ns,
    };
    let (rows, metrics) = layer_metrics(&input);
    extra.push(traced.rep);
    (rows, metrics, extra)
}

fn check_record(c: &workloads::Check) -> CheckRecord {
    CheckRecord {
        name: c.name.clone(),
        passed: c.passed,
        detail: c.detail.clone(),
    }
}

/// Check that every rep in `reps` simulated exactly what `reference` did.
fn agree<'a>(name: &str, reference: &Rep, reps: impl IntoIterator<Item = &'a Rep>) -> CheckRecord {
    let mut differing = Vec::new();
    for r in reps {
        if r.cells.len() != reference.cells.len() {
            differing.push("cell count".to_owned());
        }
        for (a, b) in r.cells.iter().zip(&reference.cells) {
            if a != b {
                differing.push(a.label.clone());
            }
        }
    }
    CheckRecord {
        name: name.to_owned(),
        passed: differing.is_empty(),
        detail: if differing.is_empty() {
            format!("{} cells, digest for digest", reference.cells.len())
        } else {
            format!("differs in {}", differing.join(", "))
        },
    }
}

/// Compare a rep's scenario metrics with the scenario's blessed baseline,
/// each at the tolerance the baseline records.
fn baseline_checks(scenario: &str, metrics: &[(String, f64)]) -> Vec<CheckRecord> {
    let loaded = baseline::load(scenario)
        .and_then(|report| report.ok_or_else(|| "no blessed baseline".to_owned()));
    let expected = match loaded {
        Ok(report) => report,
        Err(detail) => {
            return vec![CheckRecord {
                name: format!("baseline {scenario}"),
                passed: false,
                detail,
            }]
        }
    };
    metrics
        .iter()
        .map(|(name, value)| {
            let (passed, detail) = match expected.metric(name) {
                Some(m) => {
                    let tol = m.tolerance.unwrap_or(0.0);
                    (
                        baseline::within_tolerance(m.value, *value, tol),
                        format!("{value:?} vs blessed {:?} (±{tol})", m.value),
                    )
                }
                None => (false, "not in the baseline".to_owned()),
            };
            CheckRecord {
                name: format!("baseline {scenario}.{name}"),
                passed,
                detail,
            }
        })
        .collect()
}

/// What the per-layer metrics are computed from.
struct TraceInput {
    snapshot: Vec<(&'static str, u64, u128)>,
    times: RepTimes,
    traced_wall_ns: f64,
    threads: usize,
    median_wall_ns: f64,
    counts: layers::Counts,
    allocs: u64,
    attempted: u64,
    speedup_2t: f64,
    telemetry_off_wall_ns: Option<f64>,
}

/// Build the layer table and the per-layer metrics. Shares are over thread
/// count × traced wall time. A metric of a layer the workload never enters
/// (no memfs pre-population, no telemetry, no cross-domain RPC, no model
/// timer) is left out rather than reported as zero.
fn layer_metrics(t: &TraceInput) -> (Vec<LayerRow>, Vec<MetricRecord>) {
    let cap = t.threads as f64 * t.traced_wall_ns;
    let scope = |name: &str| -> (u64, f64) {
        t.snapshot
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0.0), |&(_, calls, ns)| (calls, ns as f64))
    };
    let (events, dispatch_ns) = t
        .snapshot
        .iter()
        .filter(|(n, _, _)| n.starts_with("engine.") || n.starts_with("parsim."))
        .fold((0u64, 0.0), |(c, s), &(_, calls, ns)| {
            (c + calls, s + ns as f64)
        });
    let (pop_calls, pop_ns) = scope("sched.pop");
    let (plan_calls, plan_ns) = scope("dfs.plan");
    let (stream_calls, stream_ns) = scope("core.stream");
    let (timer_calls, timer_ns) = scope("dfs.timer");
    let (memfs_calls, memfs_ns) = scope("memfs.setup");
    let (remote_calls, remote_ns) = scope("parsim.remote_rpc");
    let times = &t.times;
    let [setup_ns, sim_ns, teardown_ns, export_ns, analyze_ns] = [
        times.setup_ns,
        times.sim_ns,
        times.teardown_ns,
        times.export_ns,
        times.analyze_ns,
    ]
    .map(|ns| ns as f64);
    let self_ns = (dispatch_ns - plan_ns - stream_ns - timer_ns).max(0.0);
    let covered = pop_ns + dispatch_ns + setup_ns + teardown_ns + export_ns + analyze_ns;
    let per = |x: f64, calls: u64| x / calls.max(1) as f64;

    let mut rows: Vec<LayerRow> = t
        .snapshot
        .iter()
        .map(|&(name, calls, ns)| LayerRow {
            name: name.to_owned(),
            calls,
            ns: ns as u64,
            share: ns as f64 / cap,
        })
        .collect();
    rows.push(LayerRow {
        name: "engine.self".to_owned(),
        calls: events,
        ns: self_ns as u64,
        share: self_ns / cap,
    });
    for (name, ns) in [
        ("setup", setup_ns),
        ("teardown", teardown_ns),
        ("telemetry.export", export_ns),
        ("analyze", analyze_ns),
    ] {
        if ns > 0.0 {
            rows.push(LayerRow {
                name: name.to_owned(),
                calls: 0,
                ns: ns as u64,
                share: ns / cap,
            });
        }
    }
    rows.sort_by(|a, b| b.ns.cmp(&a.ns).then_with(|| a.name.cmp(&b.name)));

    let mut m = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        m.push(MetricRecord::plain(name, value, unit));
    };
    put("sched.pop.calls", pop_calls as f64, "count");
    put("sched.pop.ns_per_call", per(pop_ns, pop_calls), "ns");
    put("sched.pop.share", pop_ns / cap, "ratio");
    put("engine.events", events as f64, "count");
    put(
        "engine.host_ns_per_event",
        per(t.median_wall_ns, events),
        "ns",
    );
    put("engine.self_share", self_ns / cap, "ratio");
    put(
        "engine.cpu_done.share",
        scope("engine.cpu_done").1 / cap,
        "ratio",
    );
    put(
        "engine.stage_completed.share",
        scope("engine.stage_completed").1 / cap,
        "ratio",
    );
    if remote_calls > 0 {
        put("parsim.remote_rpc.share", remote_ns / cap, "ratio");
    }
    let busy = (pop_ns + dispatch_ns) / (t.threads as f64 * sim_ns);
    put("par.busy_share", busy, "ratio");
    put("par.wait_share", 1.0 - busy, "ratio");
    put("par.speedup_2t", t.speedup_2t, "ratio");
    put("dfs.plan.calls", plan_calls as f64, "count");
    put("dfs.plan.errors", t.counts.plan_errors as f64, "count");
    put("dfs.plan.ns_per_call", per(plan_ns, plan_calls), "ns");
    put("dfs.plan.share", plan_ns / cap, "ratio");
    put(
        "dfs.plan.allocs_per_call",
        per(t.counts.plan_allocs as f64, plan_calls),
        "count",
    );
    if timer_calls > 0 {
        put("dfs.timer.share", timer_ns / cap, "ratio");
    }
    if memfs_calls > 0 {
        put("memfs.setup.calls", memfs_calls as f64, "count");
        put("memfs.setup.ns_per_call", per(memfs_ns, memfs_calls), "ns");
        put("memfs.setup.share", memfs_ns / cap, "ratio");
    }
    put("core.stream.calls", stream_calls as f64, "count");
    put(
        "core.stream.ns_per_call",
        per(stream_ns, stream_calls),
        "ns",
    );
    put("core.stream.share", stream_ns / cap, "ratio");
    put(
        "core.stream.allocs_per_call",
        per(t.counts.stream_allocs as f64, stream_calls),
        "count",
    );
    if times.op_records > 0 {
        if let Some(off) = t.telemetry_off_wall_ns {
            put(
                "telemetry.record_overhead_frac",
                t.median_wall_ns / off - 1.0,
                "ratio",
            );
        }
        put("telemetry.op_records", times.op_records as f64, "count");
        put("telemetry.export_s", export_ns / 1e9, "s");
        put("telemetry.export_bytes", times.export_bytes as f64, "bytes");
        put("analyze_s", analyze_ns / 1e9, "s");
    }
    put("setup.share", setup_ns / cap, "ratio");
    put("teardown.share", teardown_ns / cap, "ratio");
    put(
        "process.allocs_per_sim_op",
        per(t.allocs as f64, t.attempted),
        "count",
    );
    put(
        "trace.overhead_frac",
        t.traced_wall_ns / t.median_wall_ns - 1.0,
        "ratio",
    );
    put("trace.coverage", covered / cap, "ratio");
    (rows, m)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn host(opts: &Options, threads: usize) -> Host {
    let output = |cmd: &str, args: &[&str]| -> Option<String> {
        // Never let git search above the checkout for a repository.
        let ceiling = std::env::current_dir().ok()?.parent()?.to_path_buf();
        let out = Command::new(cmd)
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let git_rev = output("git", &["rev-parse", "HEAD"]);
    let git_dirty = git_rev.as_ref().and_then(|_| {
        output("git", &["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty())
    });
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        rustc: output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_owned()),
        git_rev: git_rev.unwrap_or_else(|| "none".to_owned()),
        git_dirty,
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_owned(),
        sim_threads: threads as u64,
        seed: opts.seed,
        seconds: opts.seconds,
        quick: opts.quick,
    }
}
