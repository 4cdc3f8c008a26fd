//! The `dmetabench` command-line tool — the Rust counterpart of the paper's
//! `mpirun -np 15 dmetabench.py --ppnstep=5 --problemsize=10000
//! --operations MakeFile,StatFiles --workdir=... --label=...` invocation
//! (listing 3.2).
//!
//! Simulated mode stands in for the MPI launch: `--nodes`/`--slots-per-node`
//! describe the world, `--fs` picks the distributed-file-system model.
//! Real mode (`--mode real`) drives actual file-system syscalls on
//! `--workdir` with worker threads.

use cluster::{MpiWorld, Placement, SimConfig, ThreadRunConfig};
use dfs::{AfsFs, CxfsFs, DistFs, LocalFs, LustreFs, NfsFs, OntapGxFs, ShardMds, ShardMdsConfig};
use dmetabench::{
    all_plugin_names, analyze, baseline, bench, crashdrill, suite, BenchParams, Runner,
};
use memfs::crash::CrashSpec;
use netsim::fault::FaultSpec;
use simcore::SimDuration;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dmetabench — distributed metadata benchmark (Rust reproduction)

USAGE:
  dmetabench [OPTIONS]
  dmetabench suite [SUITE OPTIONS]    run the experiment shape-regression suite
  dmetabench bench [BENCH OPTIONS]    wall-clock benchmark, emits BENCH_<id>.json
  dmetabench analyze <ID...> [ANALYZE OPTIONS]
                                      re-run scenarios with causal tracing and
                                      report the critical-path breakdown

ANALYZE OPTIONS:
  --scenario <ID>            analyze scenario ID (same as a positional ID;
                             may be repeated)
  --out <DIR>                write <id>.critpath.json, <id>.timeseries.json
                             and <id>.report.md into DIR (created if missing)
  --md                       print the full Markdown report to stdout
  --top <N>                  keep the N slowest chains        [default: 10]
  (set DMETABENCH_PROF=1 to also print a wall-clock profile of the
  scheduler/event hot path — diagnostic only, never affects traces)

BENCH OPTIONS:
  --scenarios <A,B,...>      micro workloads (snapshot_churn, create_churn,
                             sim_hotpath, sim_hotpath_mt, stress_grid,
                             stress_grid_mt, memfs_ops, result_pipeline)
                             or suite ids
                                      [default: snapshot_churn,create_churn]
  --reps <N>                 timed repetitions after one warmup   [default: 5]
  --quick                    reduced workload geometry (CI smoke)
  --sim-threads <N>          OS threads for the _mt micros and for
                             partitionable simulated runs (windowed engine;
                             results bit-identical at any N)
  --out <DIR>                directory for BENCH_<id>.json        [default: .]
  --list                     list benchable scenarios and exit
  --compare <OLD> <NEW>      diff two BENCH_*.json files (same scenario) and
                             print the median delta instead of running
                             anything; may be repeated; exits non-zero on
                             regression
  --emit-md <PATH>           with --compare: also write the deltas as a
                             Markdown table to PATH
  --threshold <PCT>          slowdown (%) that counts as a regression
                             for --compare                       [default: 10]
  --informational            with --compare: report the delta but always
                             exit 0 (for noisy shared CI runners)

SUITE OPTIONS:
  --filter <SUBSTR>          only scenarios whose id contains SUBSTR
  --jobs <N>                 worker threads          [default: available cores]
  --sim-threads <N>          OS threads for partitionable simulated runs
                             (conservative windowed engine; results are
                             bit-identical at any N — blessed baselines and
                             goldens do not change)
  --bless                    rewrite baselines/*.json from this run
  --emit-md <PATH>           regenerate EXPERIMENTS.md at PATH
  --list                     list registered scenarios and exit
  --trace-out <DIR>          write per-scenario Chrome traces (<id>.trace.json,
                             Perfetto-loadable) and metrics summaries
                             (<id>.metrics.json) into DIR
  --metrics                  print each scenario's metrics summary JSON

OPTIONS:
  --mode <sim|real>          execution mode               [default: sim]
  --fs <MODEL>               sim model: nfs, lustre, cxfs, ontapgx, afs,
                             shardmds, local              [default: nfs]
  --mds-shards <N>           shardmds only: metadata-server shard count
                             (hash placement)             [default: 4]
  --faults <SPEC>            sim fault schedule (nfs/lustre/afs/shardmds):
                             comma-separated down@A..B, degrade@A..B:Fx,
                             loss@A..B:P, crash:S@T+D, seed=N; times accept
                             s/ms/us/ns suffixes (bare numbers = seconds)
  --crash <SPEC>             run a power-loss drill on the in-memory journal
                             instead of a benchmark: comma-separated
                             crash-after:N-records, torn:last, reorder:K,
                             seed=N. Runs --problemsize scripted steps,
                             cuts power, recovers, then checks prefix
                             durability + fsck + scrub (nonzero exit on
                             failure); ignores --fs/--mode
  --nodes <N>                simulated nodes              [default: 4]
  --slots-per-node <N>       simulated MPI slots per node [default: 2]
  --operations <A,B,...>     comma-separated plugin list  [default: MakeFiles]
  --problemsize <N>          per-process problem size     [default: 5000]
  --duration <SECONDS>       timed-benchmark duration     [default: 60]
  --workdir <PATH>           working directory            [default: /bench]
  --pathlist <P1,P2,...>     per-process path list (overrides workdir layout)
  --nodestep <N>             node count step              [default: 1]
  --ppnstep <N>              processes-per-node step      [default: 1]
  --label <TEXT>             result label                 [default: cli-run]
  --output <DIR>             write result files here
  --threads <N>              real mode: max worker threads [default: 4]
  --sim-threads <N>          sim mode: OS threads for partitionable models
                             (conservative windowed engine, bit-identical
                             results at any N; non-partitionable models run
                             unpartitioned, as one domain, regardless)
  --trace-out <DIR>          write a Chrome trace (<label>.trace.json) and a
                             metrics summary (<label>.metrics.json) into DIR
  --metrics                  print the run's metrics summary JSON
  --list-operations          print available plugins and exit
  --help                     print this help

EXAMPLES:
  dmetabench --fs lustre --nodes 8 --operations MakeFiles,StatFiles
  dmetabench --mode real --workdir /mnt/nfs/testdir --threads 8 \\
             --operations MakeFiles --duration 10 --output ./results
";

struct Cli {
    mode: String,
    fs: String,
    mds_shards: Option<usize>,
    faults: Option<FaultSpec>,
    crash: Option<CrashSpec>,
    nodes: usize,
    slots_per_node: usize,
    threads: usize,
    output: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics: bool,
    params: BenchParams,
}

/// Parse a `--sim-threads` value and apply it process-wide.
fn set_sim_threads_arg(raw: &str) -> Result<(), String> {
    let n: usize = raw.parse().map_err(|e| format!("--sim-threads: {e}"))?;
    if n == 0 {
        return Err("--sim-threads must be at least 1".into());
    }
    cluster::set_sim_threads(Some(n));
    Ok(())
}

/// Parse a count or step flag, which must be at least 1.
fn parse_positive(name: &str, raw: &str) -> Result<usize, String> {
    match raw.parse::<usize>().map_err(|e| format!("{name}: {e}"))? {
        0 => Err(format!("{name}: must be at least 1")),
        n => Ok(n),
    }
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        mode: "sim".into(),
        fs: "nfs".into(),
        mds_shards: None,
        faults: None,
        crash: None,
        nodes: 4,
        slots_per_node: 2,
        threads: 4,
        output: None,
        trace_out: None,
        metrics: false,
        params: BenchParams {
            label: "cli-run".into(),
            ..BenchParams::default()
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list-operations" => {
                for name in all_plugin_names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--mode" => cli.mode = value("--mode")?,
            "--fs" => cli.fs = value("--fs")?,
            "--mds-shards" => {
                let n: usize = value("--mds-shards")?
                    .parse()
                    .map_err(|e| format!("--mds-shards: {e}"))?;
                if n == 0 {
                    return Err("--mds-shards must be at least 1".into());
                }
                cli.mds_shards = Some(n);
            }
            "--faults" => {
                cli.faults = Some(
                    FaultSpec::parse(&value("--faults")?).map_err(|e| format!("--faults: {e}"))?,
                )
            }
            "--crash" => {
                cli.crash = Some(
                    CrashSpec::parse(&value("--crash")?).map_err(|e| format!("--crash: {e}"))?,
                )
            }
            "--nodes" => cli.nodes = parse_positive("--nodes", &value("--nodes")?)?,
            "--slots-per-node" => {
                cli.slots_per_node =
                    parse_positive("--slots-per-node", &value("--slots-per-node")?)?
            }
            "--threads" => cli.threads = parse_positive("--threads", &value("--threads")?)?,
            "--sim-threads" => set_sim_threads_arg(&value("--sim-threads")?)?,
            "--operations" => {
                cli.params.operations = value("--operations")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--problemsize" => {
                cli.params.problem_size = value("--problemsize")?
                    .parse()
                    .map_err(|e| format!("--problemsize: {e}"))?
            }
            "--duration" => {
                let secs: f64 = value("--duration")?
                    .parse()
                    .map_err(|e| format!("--duration: {e}"))?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(format!(
                        "--duration: {secs} is not a finite, non-negative number of seconds"
                    ));
                }
                cli.params.duration = SimDuration::from_secs_f64(secs);
            }
            "--workdir" => cli.params.workdir = value("--workdir")?,
            "--pathlist" => {
                cli.params.path_list = Some(
                    value("--pathlist")?
                        .split(',')
                        .map(|s| s.trim().to_owned())
                        .collect(),
                );
            }
            "--nodestep" => {
                cli.params.node_step = parse_positive("--nodestep", &value("--nodestep")?)?
            }
            "--ppnstep" => cli.params.ppn_step = parse_positive("--ppnstep", &value("--ppnstep")?)?,
            "--label" => cli.params.label = value("--label")?,
            "--output" => cli.output = Some(PathBuf::from(value("--output")?)),
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics" => cli.metrics = true,
            other => return Err(format!("unknown option '{other}' (try --help)")),
        }
    }
    for op in &cli.params.operations {
        if dmetabench::plugin_by_name(op).is_none() {
            return Err(format!("unknown operation '{op}' (try --list-operations)"));
        }
    }
    if cli.mds_shards.is_some() && cli.fs != "shardmds" {
        return Err("--mds-shards only applies to --fs shardmds".into());
    }
    Ok(Some(cli))
}

fn model_factory(
    fs: &str,
    faults: Option<&FaultSpec>,
    mds_shards: Option<usize>,
) -> Result<Box<dyn Fn() -> Box<dyn DistFs>>, String> {
    // Each model instance compiles its own plan from the shared spec so
    // every run gets an identical, independently-seeded loss stream.
    let spec = faults.cloned();
    let f: Box<dyn Fn() -> Box<dyn DistFs>> = match fs {
        "nfs" => Box::new(move || {
            let mut m = NfsFs::with_defaults();
            if let Some(spec) = &spec {
                m.set_faults(spec.build());
            }
            Box::new(m)
        }),
        "lustre" => Box::new(move || {
            let mut m = LustreFs::with_defaults();
            if let Some(spec) = &spec {
                m.set_faults(spec.build());
            }
            Box::new(m)
        }),
        "afs" => Box::new(move || {
            let mut m = AfsFs::with_defaults();
            if let Some(spec) = &spec {
                m.set_faults(spec.build());
            }
            Box::new(m)
        }),
        "shardmds" => {
            let shards = mds_shards.unwrap_or(4);
            Box::new(move || {
                let mut m = ShardMds::new(ShardMdsConfig {
                    shards,
                    ..ShardMdsConfig::default()
                });
                if let Some(spec) = &spec {
                    m.set_faults(spec.build());
                }
                Box::new(m)
            })
        }
        "cxfs" | "ontapgx" | "local" if faults.is_some() => {
            return Err(format!("--faults is not supported for --fs '{fs}'"))
        }
        "cxfs" => Box::new(|| Box::new(CxfsFs::with_defaults())),
        "ontapgx" => Box::new(|| Box::new(OntapGxFs::with_defaults())),
        "local" => Box::new(|| Box::new(LocalFs::with_defaults())),
        other => return Err(format!("unknown --fs '{other}'")),
    };
    Ok(f)
}

struct SuiteCli {
    filter: Option<String>,
    jobs: usize,
    bless: bool,
    emit_md: Option<PathBuf>,
    list: bool,
    trace_out: Option<PathBuf>,
    metrics: bool,
}

fn parse_suite_args(args: &[String]) -> Result<Option<SuiteCli>, String> {
    let mut cli = SuiteCli {
        filter: None,
        jobs: suite::default_jobs(),
        bless: false,
        emit_md: None,
        list: false,
        trace_out: None,
        metrics: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--filter" => cli.filter = Some(value("--filter")?),
            "--jobs" => {
                cli.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if cli.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--bless" => cli.bless = true,
            "--emit-md" => cli.emit_md = Some(PathBuf::from(value("--emit-md")?)),
            "--list" => cli.list = true,
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--metrics" => cli.metrics = true,
            "--sim-threads" => set_sim_threads_arg(&value("--sim-threads")?)?,
            other => return Err(format!("unknown suite option '{other}' (try --help)")),
        }
    }
    Ok(Some(cli))
}

fn suite_main(args: &[String]) -> ExitCode {
    let cli = match parse_suite_args(args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let scenarios: Vec<&'static suite::Scenario> = suite::registry()
        .iter()
        .filter(|s| {
            cli.filter
                .as_deref()
                .map(|f| s.id.contains(f))
                .unwrap_or(true)
        })
        .collect();
    if scenarios.is_empty() {
        eprintln!(
            "error: no scenario id contains '{}'",
            cli.filter.as_deref().unwrap_or("")
        );
        return ExitCode::FAILURE;
    }
    if cli.list {
        for s in &scenarios {
            println!(
                "{:24} {:10} {:8} {}",
                s.id,
                s.paper_ref,
                if s.deterministic { "sim" } else { "wallclock" },
                s.title
            );
        }
        return ExitCode::SUCCESS;
    }

    eprintln!(
        "running {} scenario(s) on {} thread(s)...",
        scenarios.len(),
        cli.jobs
    );
    let traced = cli.trace_out.is_some() || cli.metrics;
    let run = if traced {
        suite::run_suite_traced(&scenarios, cli.jobs)
    } else {
        suite::run_suite(&scenarios, cli.jobs)
    };

    if let Some(dir) = &cli.trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    for result in &run.results {
        let Some(telemetry) = &result.telemetry else {
            continue;
        };
        if let Some(dir) = &cli.trace_out {
            let trace_path = dir.join(format!("{}.trace.json", result.scenario.id));
            let metrics_path = dir.join(format!("{}.metrics.json", result.scenario.id));
            for (path, content) in [
                (&trace_path, telemetry.to_chrome_trace_json()),
                (&metrics_path, telemetry.to_metrics_json()),
            ] {
                if let Err(e) = std::fs::write(path, content) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            eprintln!("[trace] {}", trace_path.display());
        }
        if cli.metrics {
            println!("=== {} metrics ===", result.scenario.id);
            println!("{}", telemetry.to_metrics_json());
        }
    }

    // Artifacts are not gated: an unusable output directory costs one
    // warning, not the run.
    let mut artifact_dir: Option<Option<PathBuf>> = None;
    for result in &run.results {
        let Ok(output) = &result.outcome else {
            continue;
        };
        println!("{}", output.render());
        if output.artifacts.is_empty() {
            continue;
        }
        let dir = artifact_dir.get_or_insert_with(|| {
            suite::out_dir()
                .map_err(|e| eprintln!("warning: {e}; artifacts not written"))
                .ok()
        });
        let Some(dir) = dir else {
            continue;
        };
        for a in &output.artifacts {
            let path = dir.join(&a.name);
            if let Err(e) = std::fs::write(&path, &a.content) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }

    let mut failures = 0usize;
    for result in &run.results {
        let s = result.scenario;
        let status = match &result.outcome {
            Err(msg) => {
                failures += 1;
                format!("PANIC    {msg}")
            }
            Ok(output) => {
                let failed: Vec<_> = output.report.checks.iter().filter(|c| !c.passed).collect();
                if !failed.is_empty() {
                    failures += 1;
                    let mut msg = format!("CHECKS   {} shape check(s) failed", failed.len());
                    for c in failed {
                        msg.push_str(&format!("\n           - {} — {}", c.name, c.detail));
                    }
                    msg
                } else if cli.bless {
                    match baseline::save(&output.report) {
                        Ok(path) => format!("BLESSED  {}", path.display()),
                        Err(e) => {
                            failures += 1;
                            format!("ERROR    cannot write baseline: {e}")
                        }
                    }
                } else {
                    match baseline::load(s.id) {
                        Err(e) => {
                            failures += 1;
                            format!("ERROR    cannot read baseline: {e}")
                        }
                        Ok(None) => {
                            failures += 1;
                            "MISSING  no baseline (run with --bless)".to_owned()
                        }
                        Ok(Some(expected)) => match baseline::compare(&expected, &output.report) {
                            baseline::BaselineStatus::Match => "ok".to_owned(),
                            status => {
                                failures += 1;
                                let mut msg = "MISMATCH".to_owned();
                                if let baseline::BaselineStatus::Mismatch(reasons) = status {
                                    for r in reasons {
                                        msg.push_str(&format!("\n           - {r}"));
                                    }
                                }
                                msg
                            }
                        },
                    }
                }
            }
        };
        println!("{:24} {:>7.2}s  {status}", s.id, result.wall_secs);
    }
    println!(
        "\n{} scenario(s) in {:.2}s wall ({:.2}s serial, {:.2}x speedup on {} thread(s)); {} failure(s)",
        run.results.len(),
        run.wall_secs,
        run.serial_secs(),
        run.serial_secs() / run.wall_secs.max(1e-9),
        cli.jobs,
        failures
    );

    if let Some(path) = &cli.emit_md {
        if cli.filter.is_some() {
            eprintln!("warning: --emit-md with --filter writes a partial EXPERIMENTS.md");
        }
        match std::fs::write(path, suite::emit_markdown(&run)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

struct AnalyzeCli {
    ids: Vec<String>,
    out: Option<PathBuf>,
    md: bool,
    top: usize,
}

fn parse_analyze_args(args: &[String]) -> Result<Option<AnalyzeCli>, String> {
    let mut cli = AnalyzeCli {
        ids: Vec::new(),
        out: None,
        md: false,
        top: 10,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--scenario" => cli.ids.push(value("--scenario")?),
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--md" => cli.md = true,
            "--top" => cli.top = value("--top")?.parse().map_err(|e| format!("--top: {e}"))?,
            other if !other.starts_with('-') => cli.ids.push(other.to_owned()),
            other => return Err(format!("unknown analyze option '{other}' (try --help)")),
        }
    }
    if cli.ids.is_empty() {
        return Err("analyze needs at least one scenario id (try `suite --list`)".into());
    }
    Ok(Some(cli))
}

fn analyze_main(args: &[String]) -> ExitCode {
    let cli = match parse_analyze_args(args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let prof_on = simcore::prof::init_from_env();
    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let mut failures = 0usize;
    for id in &cli.ids {
        let Some(scenario) = suite::find(id) else {
            eprintln!("error: unknown scenario '{id}' (try `suite --list`)");
            failures += 1;
            continue;
        };
        eprintln!("analyzing {id} (causal tracing on)...");
        let result = suite::run_scenario_traced(scenario);
        if let Err(msg) = &result.outcome {
            eprintln!("error: {id} panicked: {msg}");
            failures += 1;
            continue;
        }
        let Some(telemetry) = &result.telemetry else {
            eprintln!("error: {id} produced no telemetry");
            failures += 1;
            continue;
        };
        let analysis = analyze::analyze(telemetry, cli.top);
        if !analysis.consistency.consistent {
            eprintln!(
                "error: {id}: segment attribution inconsistent: {:?}",
                analysis.consistency
            );
            failures += 1;
        }
        if let Some(dir) = &cli.out {
            for (suffix, content) in [
                ("critpath.json", analysis.to_json(id)),
                ("timeseries.json", telemetry.to_timeseries_json()),
                ("report.md", analysis.to_markdown(id)),
            ] {
                let path = dir.join(format!("{id}.{suffix}"));
                if let Err(e) = std::fs::write(&path, content) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("[analyze] {}", path.display());
            }
        }
        if cli.md {
            print!("{}", analysis.to_markdown(id));
        } else {
            let cons = &analysis.consistency;
            let total_ms = analysis.dur_total_ns as f64 / 1e6;
            println!(
                "{id}: {} op(s), {total_ms:.3} ms total latency ({})",
                cons.records,
                if cons.consistent {
                    "segments consistent"
                } else {
                    "INCONSISTENT"
                }
            );
            for (seg, v) in analyze::SEGMENTS.iter().zip(analysis.totals) {
                let share = if analysis.dur_total_ns == 0 {
                    0.0
                } else {
                    v as f64 * 100.0 / analysis.dur_total_ns as f64
                };
                println!("  {seg:8} {:>12.3} ms  {share:>5.1}%", v as f64 / 1e6);
            }
        }
    }
    if prof_on {
        eprint!("{}", simcore::prof::report());
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

struct BenchCli {
    scenarios: Vec<String>,
    reps: u32,
    quick: bool,
    out: PathBuf,
    list: bool,
    compare: Vec<(PathBuf, PathBuf)>,
    emit_md: Option<PathBuf>,
    threshold_pct: f64,
    informational: bool,
}

fn parse_bench_args(args: &[String]) -> Result<Option<BenchCli>, String> {
    let mut cli = BenchCli {
        scenarios: vec!["snapshot_churn".to_owned(), "create_churn".to_owned()],
        reps: 5,
        quick: false,
        out: PathBuf::from("."),
        list: false,
        compare: Vec::new(),
        emit_md: None,
        threshold_pct: 10.0,
        informational: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--scenarios" => {
                cli.scenarios = value("--scenarios")?
                    .split(',')
                    .map(|s| s.trim().to_owned())
                    .filter(|s| !s.is_empty())
                    .collect();
                if cli.scenarios.is_empty() {
                    return Err("--scenarios needs at least one id".into());
                }
            }
            "--reps" => {
                cli.reps = value("--reps")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if cli.reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--list" => cli.list = true,
            "--sim-threads" => set_sim_threads_arg(&value("--sim-threads")?)?,
            "--compare" => {
                let old = PathBuf::from(value("--compare")?);
                let new = PathBuf::from(
                    it.next()
                        .cloned()
                        .ok_or("--compare needs two files: <OLD> <NEW>")?,
                );
                cli.compare.push((old, new));
            }
            "--emit-md" => cli.emit_md = Some(PathBuf::from(value("--emit-md")?)),
            "--threshold" => {
                cli.threshold_pct = value("--threshold")?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
                if !cli.threshold_pct.is_finite() || cli.threshold_pct < 0.0 {
                    return Err("--threshold must be a non-negative percentage".into());
                }
            }
            "--informational" => cli.informational = true,
            other => return Err(format!("unknown bench option '{other}' (try --help)")),
        }
    }
    Ok(Some(cli))
}

fn bench_main(args: &[String]) -> ExitCode {
    let cli = match parse_bench_args(args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if cli.list {
        for id in bench::micro_ids() {
            println!("{id:24} micro");
        }
        for s in suite::registry() {
            println!("{:24} suite", s.id);
        }
        return ExitCode::SUCCESS;
    }
    if !cli.compare.is_empty() {
        let mut deltas = Vec::with_capacity(cli.compare.len());
        for (old, new) in &cli.compare {
            let delta = match bench::compare_files(old, new, cli.threshold_pct) {
                Ok(d) => d,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{:24} median {:>9.4}s -> {:>9.4}s  {:+.1}% ({:.2}x)  {}",
                delta.scenario,
                delta.old_median_secs,
                delta.new_median_secs,
                delta.delta_pct,
                delta.speedup,
                if delta.regression { "REGRESSION" } else { "ok" }
            );
            deltas.push(delta);
        }
        if let Some(path) = &cli.emit_md {
            if let Err(msg) = std::fs::write(path, bench::deltas_to_markdown(&deltas)) {
                eprintln!("error: cannot write {}: {msg}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
        let regressions: Vec<&str> = deltas
            .iter()
            .filter(|d| d.regression)
            .map(|d| d.scenario.as_str())
            .collect();
        if !regressions.is_empty() && !cli.informational {
            eprintln!(
                "error: regression(s) beyond {:.1}% threshold: {}",
                cli.threshold_pct,
                regressions.join(", ")
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let mut failures = 0usize;
    for id in &cli.scenarios {
        eprintln!(
            "benching {id} ({} rep(s){})...",
            cli.reps,
            if cli.quick { ", quick" } else { "" }
        );
        match bench::run_bench(id, cli.reps, cli.quick) {
            Err(msg) => {
                failures += 1;
                eprintln!("error: {msg}");
            }
            Ok(report) => match bench::write_report(&report, &cli.out) {
                Err(msg) => {
                    failures += 1;
                    eprintln!("error: {msg}");
                }
                Ok(path) => {
                    println!(
                        "{:24} median {:>9.4}s  (min {:.4}s, max {:.4}s, {} ops)  -> {}",
                        report.scenario,
                        report.stats.median_secs,
                        report.stats.min_secs,
                        report.stats.max_secs,
                        report.ops,
                        path.display()
                    );
                }
            },
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn crash_drill_main(spec: &CrashSpec, steps: u64, metrics: bool) -> ExitCode {
    let run = || crashdrill::run_drill(spec, steps);
    let (report, telemetry) = if metrics {
        let (r, t) = simcore::telemetry::capture(run);
        (r, Some(t))
    } else {
        (run(), None)
    };
    println!(
        "crash drill: {} step(s) before power cut, {} journal record(s) logged",
        report.steps_before_crash, report.records_logged
    );
    println!(
        "  recovery:  {} committed record(s) replayed, {} in-flight discarded",
        report.replayed, report.discarded
    );
    println!(
        "  durability: {} ({} path(s) in the recovered tree)",
        if report.prefix_durable {
            "committed prefix restored exactly"
        } else {
            "RECOVERED TREE != LAST COMMITTED TREE"
        },
        report.recovered_paths
    );
    if report.fsck_problems.is_empty() {
        println!("  fsck:      clean");
    } else {
        println!("  fsck:      {} problem(s)", report.fsck_problems.len());
        for p in &report.fsck_problems {
            println!("             - {p}");
        }
    }
    if report.scrub_errors.is_empty() {
        println!("  scrub:     full sweep clean");
    } else {
        println!("  scrub:     {} error(s)", report.scrub_errors.len());
        for e in &report.scrub_errors {
            println!("             - {e}");
        }
    }
    if let Some(telemetry) = &telemetry {
        println!("{}", telemetry.to_metrics_json());
    }
    if report.passed() {
        println!("drill PASSED");
        ExitCode::SUCCESS
    } else {
        println!("drill FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("suite") {
        return suite_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("bench") {
        return bench_main(&argv[1..]);
    }
    /// Convert the engine's structured [`cluster::PartitionUnsupported`]
    /// error (thrown as a typed panic by `run_sim`) into the CLI's normal
    /// `error: ...` channel, so a `--sim-threads` run that hits an
    /// unsupported feature exits cleanly with the model name and the
    /// rerun hint instead of dumping a panic backtrace. Any other panic
    /// keeps unwinding.
    fn surface_partition_errors<T>(f: impl FnOnce() -> T) -> Result<T, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
            match e.downcast::<cluster::PartitionUnsupported>() {
                Ok(p) => p.to_string(),
                Err(other) => std::panic::resume_unwind(other),
            }
        })
    }
    if argv.first().map(String::as_str) == Some("analyze") {
        return analyze_main(&argv[1..]);
    }
    let cli = match parse_args() {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(spec) = &cli.crash {
        return crash_drill_main(spec, cli.params.problem_size, cli.metrics);
    }

    let run_campaign = || -> Result<dmetabench::Campaign, String> {
        match cli.mode.as_str() {
            "sim" => {
                let factory = model_factory(&cli.fs, cli.faults.as_ref(), cli.mds_shards)?;
                // volume-addressed models need volume-prefixed directories
                let mut params = cli.params.clone();
                if matches!(cli.fs.as_str(), "ontapgx" | "afs") && params.path_list.is_none() {
                    params.workdir = format!("/vol0{}", params.workdir);
                }
                let world = MpiWorld::uniform(cli.nodes, cli.slots_per_node);
                let placement = Placement::discover(&world);
                eprintln!(
                    "simulated world: {} nodes x {} slots, model '{}', master rank {}",
                    cli.nodes, cli.slots_per_node, cli.fs, placement.master_rank
                );
                surface_partition_errors(|| {
                    Runner::new(params).run_simulated(&placement, factory, &SimConfig::default())
                })
            }
            "real" => {
                if cli.faults.is_some() {
                    return Err("--faults only applies to --mode sim".into());
                }
                let workdir = cli.params.workdir.clone();
                // create and resolve the jail once, so a bad --workdir is an
                // error here and not a panic inside a worker
                let root = memfs::StdFs::new(&workdir)
                    .map_err(|e| format!("--workdir: {workdir}: {e}"))?
                    .root()
                    .to_path_buf();
                eprintln!(
                    "real mode: up to {} worker threads on {}",
                    cli.threads, workdir
                );
                let mut params = cli.params.clone();
                // StdFs jails paths under its root; plugins see "/"
                params.workdir = "/".into();
                Ok(Runner::new(params).run_real(
                    move |_| {
                        Box::new(
                            memfs::StdFs::new(&root).expect("--workdir was created before the run"),
                        )
                    },
                    cli.threads,
                    &ThreadRunConfig::default(),
                ))
            }
            other => Err(format!("unknown --mode '{other}'")),
        }
    };
    let traced = cli.trace_out.is_some() || cli.metrics;
    let (campaign, telemetry) = if traced {
        let (campaign, report) = simcore::telemetry::capture(run_campaign);
        (campaign, Some(report))
    } else {
        (run_campaign(), None)
    };
    let campaign = match campaign {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(telemetry) = &telemetry {
        if let Some(dir) = &cli.trace_out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let trace_path = dir.join(format!("{}.trace.json", cli.params.label));
            let metrics_path = dir.join(format!("{}.metrics.json", cli.params.label));
            for (path, content) in [
                (&trace_path, telemetry.to_chrome_trace_json()),
                (&metrics_path, telemetry.to_metrics_json()),
            ] {
                if let Err(e) = std::fs::write(path, content) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            eprintln!("[trace] {}", trace_path.display());
        }
        if cli.metrics {
            println!("{}", telemetry.to_metrics_json());
        }
    }

    print!("{}", campaign.summary_tsv());
    if let Some(dir) = cli.output {
        if let Err(e) = campaign.write_to_dir(&dir) {
            eprintln!("error: cannot write results to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        eprintln!("results written to {}", dir.display());
    }
    ExitCode::SUCCESS
}
