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
use netsim::fault::{FaultPlan, FaultSpec};
use simcore::{SimDuration, TelemetryReport};
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

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

/// A cursor over one subcommand's arguments. Every flag value is taken
/// through it, so every parse error names its flag.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    /// The next argument, or `None` once they are used up.
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// Ignore the remaining arguments (`--help`, `--list-operations`).
    fn finish(&mut self) {
        self.0 = [].iter();
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn parse<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }

    /// A count or step: an integer of at least 1.
    fn positive<T: FromStr<Err: Display> + Default + PartialEq>(
        &mut self,
        flag: &str,
    ) -> Result<T, String> {
        let n: T = self.parse(flag)?;
        if n == T::default() {
            return Err(format!("{flag}: must be at least 1"));
        }
        Ok(n)
    }

    fn non_negative(&mut self, flag: &str) -> Result<f64, String> {
        let x: f64 = self.parse(flag)?;
        if !(x.is_finite() && x >= 0.0) {
            return Err(format!("{flag}: {x} is not a finite, non-negative number"));
        }
        Ok(x)
    }

    /// Seconds that a [`SimDuration`] can hold (about 584 years).
    fn seconds(&mut self, flag: &str) -> Result<SimDuration, String> {
        let secs = self.non_negative(flag)?;
        let max = SimDuration::MAX.as_secs_f64();
        if secs > max {
            return Err(format!("{flag}: {secs:e} s exceeds the {max:.0} s maximum"));
        }
        Ok(SimDuration::from_secs_f64(secs))
    }

    /// Comma-separated, trimmed entries. Empty entries are dropped, but at
    /// least one must remain; in a `positional` list (entry i belongs to
    /// worker i) an empty entry is an error.
    fn list(&mut self, flag: &str, positional: bool) -> Result<Vec<String>, String> {
        let raw = self.value(flag)?;
        let all: Vec<String> = raw.split(',').map(|s| s.trim().to_owned()).collect();
        let items: Vec<String> = all.iter().filter(|s| !s.is_empty()).cloned().collect();
        if items.is_empty() || (positional && items.len() < all.len()) {
            return Err(format!("{flag}: empty entry in '{raw}'"));
        }
        Ok(items)
    }
}

/// The flags several subcommands share. Each is matched only in
/// [`Common::take`]; `main` applies them after a successful parse.
#[derive(Debug, Default)]
struct Common {
    help: bool,
    sim_threads: Option<usize>,
    trace_out: Option<PathBuf>,
    metrics: bool,
}

/// The common flags besides `--help`. The main command and `suite` accept
/// all three, `bench` only the first (`--sim-threads`) and `analyze` none.
const COMMON: [&str; 3] = ["--sim-threads", "--trace-out", "--metrics"];

impl Common {
    /// Take `flag` if it is `--help` or one of the common flags in `ok`;
    /// any other flag is unknown to subcommand `cmd`.
    fn take(&mut self, flag: &str, a: &mut Args, ok: &[&str], cmd: &str) -> Result<(), String> {
        match flag {
            "--help" | "-h" => {
                self.help = true;
                a.finish();
            }
            _ if !ok.contains(&flag) => {
                return Err(format!("unknown {cmd}option '{flag}' (try --help)"))
            }
            "--sim-threads" => self.sim_threads = Some(a.positive(flag)?),
            "--trace-out" => self.trace_out = Some(a.value(flag)?.into()),
            _ => self.metrics = true, // "--metrics", the last of `COMMON`
        }
        Ok(())
    }

    fn traced(&self) -> bool {
        self.trace_out.is_some() || self.metrics
    }

    /// Create the `--trace-out` directory; called before the run, so an
    /// unusable directory costs nothing but the error.
    fn create_trace_dir(&self) -> Result<(), String> {
        self.trace_out.as_deref().map_or(Ok(()), create_dir)
    }

    /// Write one run's telemetry: `<stem>.trace.json` and
    /// `<stem>.metrics.json` under `--trace-out`, and the metrics JSON on
    /// stdout under `--metrics` (after a `=== <stem> metrics ===` line if
    /// `head`).
    fn write_telemetry(&self, stem: &str, t: &TelemetryReport, head: bool) -> Result<(), String> {
        let metrics = t.to_metrics_json();
        if let Some(dir) = &self.trace_out {
            let trace = dir.join(format!("{stem}.trace.json"));
            write_file(&trace, t.to_chrome_trace_json())?;
            write_file(&dir.join(format!("{stem}.metrics.json")), &metrics)?;
            eprintln!("[trace] {}", trace.display());
        }
        if self.metrics {
            if head {
                println!("=== {stem} metrics ===");
            }
            println!("{metrics}");
        }
        Ok(())
    }
}

fn create_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))
}

fn write_file(path: &Path, content: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Run `f`, capturing its telemetry when `on`.
fn capture_if<R>(on: bool, f: impl FnOnce() -> R) -> (R, Option<TelemetryReport>) {
    if on {
        let (r, t) = simcore::telemetry::capture(f);
        (r, Some(t))
    } else {
        (f(), None)
    }
}

/// Success if nothing failed, else every failure as one error line.
fn all_ok(errors: Vec<String>) -> Result<ExitCode, String> {
    (errors.is_empty().then_some(ExitCode::SUCCESS)).ok_or_else(|| errors.join("\n"))
}

/// A parsed command line: one of the four subcommands.
#[derive(Debug)]
enum Command {
    Main(Box<MainCli>),
    Suite(SuiteCli),
    Bench(BenchCli),
    Analyze(AnalyzeCli),
}

impl Command {
    fn parse(argv: &[String]) -> Result<Command, String> {
        let rest = argv.get(1..).unwrap_or_default();
        Ok(match argv.first().map(String::as_str) {
            Some("suite") => Command::Suite(parse_suite(rest)?),
            Some("bench") => Command::Bench(parse_bench(rest)?),
            Some("analyze") => Command::Analyze(parse_analyze(rest)?),
            _ => Command::Main(Box::new(parse_main(argv)?)),
        })
    }

    fn common(&self) -> &Common {
        match self {
            Command::Main(cli) => &cli.common,
            Command::Suite(cli) => &cli.common,
            Command::Bench(cli) => &cli.common,
            Command::Analyze(cli) => &cli.common,
        }
    }
}

#[derive(Debug, Default)]
struct MainCli {
    common: Common,
    list_operations: bool,
    mode: String,
    fs: String,
    mds_shards: Option<usize>,
    faults: Option<FaultSpec>,
    crash: Option<CrashSpec>,
    nodes: usize,
    slots_per_node: usize,
    threads: usize,
    output: Option<PathBuf>,
    params: BenchParams,
}

fn parse_main(args: &[String]) -> Result<MainCli, String> {
    let mut cli = MainCli {
        mode: "sim".into(),
        fs: "nfs".into(),
        nodes: 4,
        slots_per_node: 2,
        threads: 4,
        params: BenchParams {
            label: "cli-run".into(),
            ..BenchParams::default()
        },
        ..MainCli::default()
    };
    let mut a = Args(args.iter());
    while let Some(flag) = a.next() {
        let p = &mut cli.params;
        match flag {
            "--list-operations" => {
                cli.list_operations = true;
                a.finish();
            }
            "--mode" => cli.mode = a.value(flag)?.into(),
            "--fs" => cli.fs = a.value(flag)?.into(),
            "--mds-shards" => cli.mds_shards = Some(a.positive(flag)?),
            "--faults" => {
                let spec = FaultSpec::parse(a.value(flag)?).map_err(|e| format!("{flag}: {e}"))?;
                cli.faults = Some(spec);
            }
            "--crash" => {
                let spec = CrashSpec::parse(a.value(flag)?).map_err(|e| format!("{flag}: {e}"))?;
                cli.crash = Some(spec);
            }
            "--nodes" => cli.nodes = a.positive(flag)?,
            "--slots-per-node" => cli.slots_per_node = a.positive(flag)?,
            "--threads" => cli.threads = a.positive(flag)?,
            "--operations" => p.operations = a.list(flag, false)?,
            "--problemsize" => p.problem_size = a.parse(flag)?,
            "--duration" => p.duration = a.seconds(flag)?,
            "--workdir" => p.workdir = a.value(flag)?.into(),
            "--pathlist" => p.path_list = Some(a.list(flag, true)?),
            "--nodestep" => p.node_step = a.positive(flag)?,
            "--ppnstep" => p.ppn_step = a.positive(flag)?,
            "--label" => p.label = a.value(flag)?.into(),
            "--output" => cli.output = Some(a.value(flag)?.into()),
            _ => cli.common.take(flag, &mut a, &COMMON, "")?,
        }
    }
    if cli.common.help || cli.list_operations {
        return Ok(cli);
    }
    for op in &cli.params.operations {
        if dmetabench::plugin_by_name(op).is_none() {
            return Err(format!("unknown operation '{op}' (try --list-operations)"));
        }
    }
    if cli.mds_shards.is_some() && cli.fs != "shardmds" {
        return Err("--mds-shards only applies to --fs shardmds".into());
    }
    Ok(cli)
}

type ModelFactory = Box<dyn Fn() -> Box<dyn DistFs>>;

/// A factory for a model that accepts a fault schedule. Each instance
/// compiles its own plan from the shared spec, so every run gets an
/// identical, independently-seeded loss stream.
fn faulted<M: DistFs + 'static>(
    spec: Option<&FaultSpec>,
    make: impl Fn() -> M + 'static,
    set_faults: fn(&mut M, FaultPlan),
) -> ModelFactory {
    let spec = spec.cloned();
    Box::new(move || {
        let mut m = make();
        if let Some(spec) = &spec {
            set_faults(&mut m, spec.build());
        }
        Box::new(m)
    })
}

fn model_factory(
    fs: &str,
    faults: Option<&FaultSpec>,
    mds_shards: Option<usize>,
) -> Result<ModelFactory, String> {
    let shards = mds_shards.unwrap_or(4);
    Ok(match fs {
        "nfs" => faulted(faults, NfsFs::with_defaults, NfsFs::set_faults),
        "lustre" => faulted(faults, LustreFs::with_defaults, LustreFs::set_faults),
        "afs" => faulted(faults, AfsFs::with_defaults, AfsFs::set_faults),
        "shardmds" => faulted(
            faults,
            move || {
                ShardMds::new(ShardMdsConfig {
                    shards,
                    ..ShardMdsConfig::default()
                })
            },
            ShardMds::set_faults,
        ),
        "cxfs" | "ontapgx" | "local" if faults.is_some() => {
            return Err(format!("--faults is not supported for --fs '{fs}'"))
        }
        "cxfs" => Box::new(|| Box::new(CxfsFs::with_defaults())),
        "ontapgx" => Box::new(|| Box::new(OntapGxFs::with_defaults())),
        "local" => Box::new(|| Box::new(LocalFs::with_defaults())),
        other => return Err(format!("unknown --fs '{other}'")),
    })
}

/// Convert the engine's structured [`cluster::PartitionUnsupported`] error
/// (thrown as a typed panic by `run_sim`) into the CLI's normal `error: ...`
/// channel, so a `--sim-threads` run that hits an unsupported feature exits
/// cleanly with the model name and the rerun hint instead of dumping a panic
/// backtrace. Any other panic keeps unwinding.
fn surface_partition_errors<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|e| {
        match e.downcast::<cluster::PartitionUnsupported>() {
            Ok(p) => p.to_string(),
            Err(other) => std::panic::resume_unwind(other),
        }
    })
}

fn main_cmd(cli: MainCli) -> Result<ExitCode, String> {
    if cli.list_operations {
        for name in all_plugin_names() {
            println!("{name}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(spec) = &cli.crash {
        return Ok(crash_drill(
            spec,
            cli.params.problem_size,
            cli.common.metrics,
        ));
    }
    cli.common.create_trace_dir()?;
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
    let (campaign, telemetry) = capture_if(cli.common.traced(), run_campaign);
    let campaign = campaign?;
    if let Some(t) = &telemetry {
        cli.common.write_telemetry(&cli.params.label, t, false)?;
    }
    print!("{}", campaign.summary_tsv());
    if let Some(dir) = cli.output {
        campaign
            .write_to_dir(&dir)
            .map_err(|e| format!("cannot write results to {}: {e}", dir.display()))?;
        eprintln!("results written to {}", dir.display());
    }
    Ok(ExitCode::SUCCESS)
}

#[derive(Debug, Default)]
struct SuiteCli {
    common: Common,
    filter: Option<String>,
    jobs: usize,
    bless: bool,
    emit_md: Option<PathBuf>,
    list: bool,
}

fn parse_suite(args: &[String]) -> Result<SuiteCli, String> {
    let mut cli = SuiteCli {
        jobs: suite::default_jobs(),
        ..SuiteCli::default()
    };
    let mut a = Args(args.iter());
    while let Some(flag) = a.next() {
        match flag {
            "--filter" => cli.filter = Some(a.value(flag)?.into()),
            "--jobs" => cli.jobs = a.positive(flag)?,
            "--bless" => cli.bless = true,
            "--emit-md" => cli.emit_md = Some(a.value(flag)?.into()),
            "--list" => cli.list = true,
            _ => cli.common.take(flag, &mut a, &COMMON, "suite ")?,
        }
    }
    Ok(cli)
}

fn suite_cmd(cli: SuiteCli) -> Result<ExitCode, String> {
    let filter = cli.filter.as_deref().unwrap_or("");
    let scenarios: Vec<&'static suite::Scenario> = suite::registry()
        .iter()
        .filter(|s| s.id.contains(filter))
        .collect();
    if scenarios.is_empty() {
        return Err(format!("no scenario id contains '{filter}'"));
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
        return Ok(ExitCode::SUCCESS);
    }
    cli.common.create_trace_dir()?;

    eprintln!(
        "running {} scenario(s) on {} thread(s)...",
        scenarios.len(),
        cli.jobs
    );
    let run = if cli.common.traced() {
        suite::run_suite_traced(&scenarios, cli.jobs)
    } else {
        suite::run_suite(&scenarios, cli.jobs)
    };
    for result in &run.results {
        if let Some(t) = &result.telemetry {
            cli.common.write_telemetry(result.scenario.id, t, true)?;
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
        let status = verdict(result, cli.bless).unwrap_or_else(|failed| {
            failures += 1;
            failed
        });
        println!(
            "{:24} {:>7.2}s  {status}",
            result.scenario.id, result.wall_secs
        );
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
        write_file(path, suite::emit_markdown(&run))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(ExitCode::from(u8::from(failures > 0)))
}

/// A scenario's status column: `Ok` if it passed (matched its baseline,
/// or was blessed), `Err` if it failed.
fn verdict(result: &suite::ScenarioRunResult, bless: bool) -> Result<String, String> {
    let output = (result.outcome.as_ref()).map_err(|msg| format!("PANIC    {msg}"))?;
    let failed: Vec<_> = output.report.checks.iter().filter(|c| !c.passed).collect();
    if !failed.is_empty() {
        let head = format!("CHECKS   {} shape check(s) failed", failed.len());
        return Err(bulleted(
            head,
            failed.iter().map(|c| format!("{} — {}", c.name, c.detail)),
        ));
    }
    if bless {
        return baseline::save(&output.report)
            .map(|path| format!("BLESSED  {}", path.display()))
            .map_err(|e| format!("ERROR    cannot write baseline: {e}"));
    }
    let expected = baseline::load(result.scenario.id)
        .map_err(|e| format!("ERROR    cannot read baseline: {e}"))?
        .ok_or("MISSING  no baseline (run with --bless)")?;
    match baseline::compare(&expected, &output.report) {
        baseline::BaselineStatus::Match => Ok("ok".to_owned()),
        baseline::BaselineStatus::Mismatch(reasons) => Err(bulleted("MISMATCH".into(), reasons)),
        baseline::BaselineStatus::Missing => Err("MISMATCH".into()),
    }
}

/// `head`, then one indented `- item` line per item.
fn bulleted(head: String, items: impl IntoIterator<Item = String>) -> String {
    items
        .into_iter()
        .fold(head, |msg, item| msg + "\n           - " + &item)
}

#[derive(Debug, Default)]
struct AnalyzeCli {
    common: Common,
    ids: Vec<String>,
    out: Option<PathBuf>,
    md: bool,
    top: usize,
}

fn parse_analyze(args: &[String]) -> Result<AnalyzeCli, String> {
    let mut cli = AnalyzeCli {
        top: 10,
        ..AnalyzeCli::default()
    };
    let mut a = Args(args.iter());
    while let Some(flag) = a.next() {
        match flag {
            "--scenario" => cli.ids.push(a.value(flag)?.into()),
            "--out" => cli.out = Some(a.value(flag)?.into()),
            "--md" => cli.md = true,
            "--top" => cli.top = a.parse(flag)?,
            id if !id.starts_with('-') => cli.ids.push(id.into()),
            _ => cli.common.take(flag, &mut a, &[], "analyze ")?,
        }
    }
    if cli.ids.is_empty() && !cli.common.help {
        return Err("analyze needs a scenario id or --scenario <ID> (try `suite --list`)".into());
    }
    Ok(cli)
}

fn analyze_cmd(cli: AnalyzeCli) -> Result<ExitCode, String> {
    let prof_on = simcore::prof::init_from_env();
    cli.out.as_deref().map_or(Ok(()), create_dir)?;
    let errors: Vec<String> = cli
        .ids
        .iter()
        .filter_map(|id| analyze_one(id, &cli).err())
        .collect();
    if prof_on {
        eprint!("{}", simcore::prof::report());
    }
    all_ok(errors)
}

/// Re-run scenario `id` traced and report its critical-path breakdown.
fn analyze_one(id: &str, cli: &AnalyzeCli) -> Result<(), String> {
    let scenario =
        suite::find(id).ok_or_else(|| format!("unknown scenario '{id}' (try `suite --list`)"))?;
    eprintln!("analyzing {id} (causal tracing on)...");
    let result = suite::run_scenario_traced(scenario);
    if let Err(msg) = &result.outcome {
        return Err(format!("{id} panicked: {msg}"));
    }
    let telemetry =
        (result.telemetry.as_ref()).ok_or_else(|| format!("{id} produced no telemetry"))?;
    let analysis = analyze::analyze(telemetry, cli.top);
    let cons = &analysis.consistency;
    if let Some(dir) = &cli.out {
        for (suffix, content) in [
            ("critpath.json", analysis.to_json(id)),
            ("timeseries.json", telemetry.to_timeseries_json()),
            ("report.md", analysis.to_markdown(id)),
        ] {
            let path = dir.join(format!("{id}.{suffix}"));
            write_file(&path, content)?;
            eprintln!("[analyze] {}", path.display());
        }
    }
    if cli.md {
        print!("{}", analysis.to_markdown(id));
    } else {
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
    if !cons.consistent {
        return Err(format!("{id}: segment attribution inconsistent: {cons:?}"));
    }
    Ok(())
}

#[derive(Debug, Default)]
struct BenchCli {
    common: Common,
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

fn parse_bench(args: &[String]) -> Result<BenchCli, String> {
    let mut cli = BenchCli {
        scenarios: vec!["snapshot_churn".to_owned(), "create_churn".to_owned()],
        reps: 5,
        out: PathBuf::from("."),
        threshold_pct: 10.0,
        ..BenchCli::default()
    };
    let mut a = Args(args.iter());
    while let Some(flag) = a.next() {
        match flag {
            "--scenarios" => cli.scenarios = a.list(flag, false)?,
            "--reps" => cli.reps = a.positive(flag)?,
            "--quick" => cli.quick = true,
            "--out" => cli.out = a.value(flag)?.into(),
            "--list" => cli.list = true,
            "--compare" => {
                let old = a.value(flag)?.into();
                cli.compare.push((old, a.value(flag)?.into()));
            }
            "--emit-md" => cli.emit_md = Some(a.value(flag)?.into()),
            "--threshold" => cli.threshold_pct = a.non_negative(flag)?,
            "--informational" => cli.informational = true,
            _ => cli.common.take(flag, &mut a, &COMMON[..1], "bench ")?,
        }
    }
    Ok(cli)
}

fn bench_cmd(cli: BenchCli) -> Result<ExitCode, String> {
    if cli.list {
        for id in bench::micro_ids() {
            println!("{id:24} micro");
        }
        for s in suite::registry() {
            println!("{:24} suite", s.id);
        }
        return Ok(ExitCode::SUCCESS);
    }
    if !cli.compare.is_empty() {
        let mut deltas = Vec::with_capacity(cli.compare.len());
        for (old, new) in &cli.compare {
            let delta = bench::compare_files(old, new, cli.threshold_pct)?;
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
            write_file(path, bench::deltas_to_markdown(&deltas))?;
            eprintln!("wrote {}", path.display());
        }
        let regressions: Vec<&str> = deltas
            .iter()
            .filter(|d| d.regression)
            .map(|d| d.scenario.as_str())
            .collect();
        if !regressions.is_empty() && !cli.informational {
            return Err(format!(
                "regression(s) beyond {:.1}% threshold: {}",
                cli.threshold_pct,
                regressions.join(", ")
            ));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let mut errors = Vec::new();
    for id in &cli.scenarios {
        eprintln!(
            "benching {id} ({} rep(s){})...",
            cli.reps,
            if cli.quick { ", quick" } else { "" }
        );
        let run = bench::run_bench(id, cli.reps, cli.quick)
            .and_then(|report| Ok((bench::write_report(&report, &cli.out)?, report)));
        match run {
            Err(msg) => errors.push(msg),
            Ok((path, report)) => println!(
                "{:24} median {:>9.4}s  (min {:.4}s, max {:.4}s, {} ops)  -> {}",
                report.scenario,
                report.stats.median_secs,
                report.stats.min_secs,
                report.stats.max_secs,
                report.ops,
                path.display()
            ),
        }
    }
    all_ok(errors)
}

fn crash_drill(spec: &CrashSpec, steps: u64, metrics: bool) -> ExitCode {
    let (report, telemetry) = capture_if(metrics, || crashdrill::run_drill(spec, steps));
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
    let passed = report.passed();
    println!("drill {}", if passed { "PASSED" } else { "FAILED" });
    ExitCode::from(u8::from(!passed))
}

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let cmd = Command::parse(argv)?;
    let common = cmd.common();
    if common.help {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(n) = common.sim_threads {
        cluster::set_sim_threads(Some(n));
    }
    match cmd {
        Command::Main(cli) => main_cmd(*cli),
        Command::Suite(cli) => suite_cmd(cli),
        Command::Bench(cli) => bench_cmd(cli),
        Command::Analyze(cli) => analyze_cmd(cli),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run(&argv).unwrap_or_else(|msg| {
        for line in msg.lines() {
            eprintln!("error: {line}");
        }
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    /// Every flag the help text documents, plus `-h` and the subcommands.
    fn flags() -> Vec<&'static str> {
        let mut flags: Vec<&str> = (USAGE.split(|c: char| c.is_whitespace() || c == '/'))
            .filter(|w| w.starts_with("--"))
            .map(|w| w.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()))
            .collect();
        flags.sort_unstable();
        flags.dedup();
        flags.extend(["-h", "suite", "bench", "analyze"]);
        flags
    }

    /// Values chosen to break naive parsers.
    const JUNK: &[&str] = &[
        "",
        " ",
        "-1",
        "0",
        "1",
        "2",
        "nan",
        "inf",
        "1e30",
        "18446744074",
        ",",
        ",,",
        "a,,b",
        "x",
        "-",
        "--",
        "--bogus",
        "/proc/nope",
        "MakeFiles",
        "MakeFiles,",
        "StatFiles",
        "shardmds",
        "afs",
        "real",
        "exp_lst_3_3",
        "seed=1",
        "down@1s..2s",
        "crash:0@1s+1s",
        "crash-after:3-records",
        "torn:last",
        "reorder:0",
    ];

    fn token() -> impl Strategy<Value = String> {
        let pool: Vec<&str> = flags().into_iter().chain(JUNK.iter().copied()).collect();
        (0..pool.len()).prop_map(move |i| pool[i].to_owned())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]
        #[test]
        fn hostile_argv_is_an_error_naming_a_flag_never_a_panic(
            sub in 0usize..4,
            rest in prop::collection::vec(token(), 0..10),
        ) {
            let mut args: Vec<String> = ["suite", "bench", "analyze"]
                .get(sub)
                .map(|s| s.to_string())
                .into_iter()
                .collect();
            args.extend(rest);
            if let Err(e) = Command::parse(&args) {
                prop_assert!(
                    e.contains("unknown") || flags().iter().any(|f| f.starts_with("--") && e.contains(f)),
                    "{args:?}: error names no flag: {e}"
                );
            }
        }
    }

    /// Fault and crash clause shapes; each `#` takes a value from `VALUES`.
    const TEMPLATES: &[&str] = &[
        "down@#..#",
        "degrade@#..#:#",
        "loss@#..#:#",
        "crash:#@#+#",
        "crash-after:#",
        "reorder:#",
        "seed=#",
        "torn:last",
        "#",
    ];
    const VALUES: &[&str] = &[
        "0",
        "1",
        "0.5",
        "2.5s",
        "1us",
        "3ms",
        "2x",
        "4-records",
        "-1",
        "nan",
        "inf",
        "1e30",
        "18446744073709551616",
        "",
        "x",
    ];

    fn clause() -> impl Strategy<Value = String> {
        let values = prop::collection::vec(0..VALUES.len(), 3);
        (0..TEMPLATES.len(), values).prop_map(|(t, values)| {
            let mut out = String::new();
            for (k, piece) in TEMPLATES[t].split('#').enumerate() {
                if k > 0 {
                    out.push_str(VALUES[values[k - 1]]);
                }
                out.push_str(piece);
            }
            out
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]
        #[test]
        fn fault_and_crash_specs_never_panic(clauses in prop::collection::vec(clause(), 0..4)) {
            let spec = clauses.join(",");
            if let Ok(f) = FaultSpec::parse(&spec) {
                let _ = f.build();
            }
            if let Ok(c) = CrashSpec::parse(&spec) {
                let _ = c.build();
            }
        }
    }

    #[test]
    fn each_flag_lands_in_its_field() {
        let cmd = Command::parse(&argv(
            "--mode real --fs shardmds --mds-shards 8 --faults seed=3 --crash torn:last \
             --nodes 3 --slots-per-node 5 --threads 6 --operations MakeFiles,StatFiles, \
             --problemsize 77 --duration 2.5 --workdir /w --pathlist /a,/b --nodestep 2 \
             --ppnstep 3 --label L --output out --sim-threads 2 --trace-out tr --metrics",
        ));
        let want = MainCli {
            common: Common {
                help: false,
                sim_threads: Some(2),
                trace_out: Some("tr".into()),
                metrics: true,
            },
            list_operations: false,
            mode: "real".into(),
            fs: "shardmds".into(),
            mds_shards: Some(8),
            faults: Some(FaultSpec::parse("seed=3").unwrap()),
            crash: Some(CrashSpec::parse("torn:last").unwrap()),
            nodes: 3,
            slots_per_node: 5,
            threads: 6,
            output: Some("out".into()),
            params: BenchParams {
                operations: vec!["MakeFiles".into(), "StatFiles".into()],
                problem_size: 77,
                workdir: "/w".into(),
                path_list: Some(vec!["/a".into(), "/b".into()]),
                node_step: 2,
                ppn_step: 3,
                duration: SimDuration::from_millis(2500),
                label: "L".into(),
                ..BenchParams::default()
            },
        };
        assert_eq!(
            format!("{:?}", cmd.unwrap()),
            format!("{:?}", Command::Main(Box::new(want)))
        );

        let cmd = Command::parse(&argv(
            "suite --filter exp --jobs 3 --bless --emit-md E.md --list --sim-threads 2 \
             --trace-out tr --metrics",
        ));
        let want = SuiteCli {
            common: Common {
                help: false,
                sim_threads: Some(2),
                trace_out: Some("tr".into()),
                metrics: true,
            },
            filter: Some("exp".into()),
            jobs: 3,
            bless: true,
            emit_md: Some("E.md".into()),
            list: true,
        };
        assert_eq!(
            format!("{:?}", cmd.unwrap()),
            format!("{:?}", Command::Suite(want))
        );

        let cmd = Command::parse(&argv(
            "bench --scenarios a,b --reps 2 --quick --out o --list --compare x y \
             --emit-md m --threshold 5 --informational --sim-threads 2",
        ));
        let want = BenchCli {
            common: Common {
                sim_threads: Some(2),
                ..Common::default()
            },
            scenarios: vec!["a".into(), "b".into()],
            reps: 2,
            quick: true,
            out: "o".into(),
            list: true,
            compare: vec![("x".into(), "y".into())],
            emit_md: Some("m".into()),
            threshold_pct: 5.0,
            informational: true,
        };
        assert_eq!(
            format!("{:?}", cmd.unwrap()),
            format!("{:?}", Command::Bench(want))
        );

        let cmd = Command::parse(&argv("analyze a --scenario b --out o --md --top 3"));
        let want = AnalyzeCli {
            common: Common::default(),
            ids: vec!["a".into(), "b".into()],
            out: Some("o".into()),
            md: true,
            top: 3,
        };
        assert_eq!(
            format!("{:?}", cmd.unwrap()),
            format!("{:?}", Command::Analyze(want))
        );
    }

    #[test]
    fn defaults_are_the_documented_ones() {
        let Ok(Command::Main(m)) = Command::parse(&[]) else {
            panic!("empty command line");
        };
        assert_eq!((m.mode.as_str(), m.fs.as_str()), ("sim", "nfs"));
        assert_eq!((m.nodes, m.slots_per_node, m.threads), (4, 2, 4));
        assert_eq!(m.params.label, "cli-run");
        assert_eq!(m.params.duration, SimDuration::from_secs(60));
        let Ok(Command::Bench(b)) = Command::parse(&argv("bench")) else {
            panic!("bench");
        };
        assert_eq!(b.scenarios, ["snapshot_churn", "create_churn"]);
        assert_eq!(
            (b.reps, b.out.as_path(), b.threshold_pct),
            (5, Path::new("."), 10.0)
        );
        let Ok(Command::Analyze(a)) = Command::parse(&argv("analyze x")) else {
            panic!("analyze");
        };
        assert_eq!(a.top, 10);
    }

    #[test]
    fn help_and_list_operations_end_parsing() {
        for line in [
            "--help --bogus",
            "-h",
            "suite -h --jobs 0",
            "bench --help x",
            "analyze -h",
        ] {
            let cmd = Command::parse(&argv(line)).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(cmd.common().help, "{line}");
        }
        let Ok(Command::Main(m)) = Command::parse(&argv("--list-operations --nodes 0")) else {
            panic!("--list-operations");
        };
        assert!(m.list_operations);
        assert!(Command::parse(&argv("--bogus --help")).is_err());
    }

    #[test]
    fn each_subcommand_takes_its_own_common_flags() {
        for (line, want) in [
            ("bench --trace-out t", "unknown bench option '--trace-out'"),
            ("bench --metrics", "unknown bench option '--metrics'"),
            (
                "analyze x --sim-threads 2",
                "unknown analyze option '--sim-threads'",
            ),
            ("suite --md", "unknown suite option '--md'"),
            ("--jobs 2", "unknown option '--jobs'"),
        ] {
            let err = Command::parse(&argv(line)).unwrap_err();
            assert!(err.starts_with(want), "{line}: {err}");
        }
    }

    #[test]
    fn values_are_checked_where_they_are_taken() {
        for (line, want) in [
            ("--duration 1e30", "--duration: 1e30 s exceeds"),
            ("--duration -1", "--duration: -1 is not"),
            ("--pathlist ,", "--pathlist: empty entry"),
            ("--pathlist /a,,/b", "--pathlist: empty entry"),
            ("--operations ,", "--operations: empty entry"),
            ("--nodes 0", "--nodes: must be at least 1"),
            ("--sim-threads 0", "--sim-threads: must be at least 1"),
            ("suite --jobs 0", "--jobs: must be at least 1"),
            ("bench --reps 0", "--reps: must be at least 1"),
            ("bench --threshold nan", "--threshold: NaN is not"),
            ("bench --compare old", "--compare needs a value"),
            ("analyze", "analyze needs a scenario id or --scenario"),
            (
                "--mds-shards 2",
                "--mds-shards only applies to --fs shardmds",
            ),
            ("--operations Bogus", "unknown operation 'Bogus'"),
        ] {
            let err = Command::parse(&argv(line)).unwrap_err();
            assert!(err.starts_with(want), "{line}: {err}");
        }
        let Ok(Command::Main(m)) = Command::parse(&argv("--duration 18446744073")) else {
            panic!("the longest representable duration parses");
        };
        assert!(m.params.duration > SimDuration::from_secs(18_446_744_072));
    }

    #[test]
    fn parsing_changes_no_global_state() {
        Command::parse(&argv("--sim-threads 3")).unwrap();
        Command::parse(&argv("suite --sim-threads 3")).unwrap();
        assert_eq!(cluster::sim_threads(), None);
    }
}
