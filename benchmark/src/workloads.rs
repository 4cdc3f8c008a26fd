//! The four workloads, each the body of a registered paper scenario.
//!
//! They are rebuilt here from the crates' public API — model constructors,
//! `cluster::run_sim`, the `suite` helpers and `MemFs` — instead of calling
//! the registered scenario body, so that a traced rep can wrap every model
//! and stream and time each layer at its call boundary. Cell geometry,
//! metrics and shape checks match the scenario, so at seed 42 the outputs
//! must equal its blessed baseline. The simulated clients are a closed loop
//! with fixed worker counts per cell; a rep is a batch job of fixed size.

use std::hint::black_box;
use std::time::Instant;

use cluster::{run_sim, OpStream, SimConfig, SimRunResult, WorkerSpec};
use dfs::{CxfsFs, DistFs, LocalFs, MetaOp, NfsConfig, NfsFs, PvfsFs, ShardMds, ShardMdsConfig};
use dmetabench::analyze::analyze;
use dmetabench::suite::{create_streams, make_workers, node_names};
use memfs::{DirIndexKind, Vfs};
use simcore::{prof, telemetry, SimDuration, TelemetryReport};

use crate::layers::{Timed, TimedStream};

/// One benchmark workload.
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The registered scenario it reproduces (its baseline id).
    pub scenario: &'static str,
    /// Simulation threads of the timed reps (`--sim-threads`).
    pub threads: usize,
    /// Whether the body records and exports telemetry.
    pub telemetry: bool,
    /// Run one rep.
    pub rep: fn(&mut Rep),
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "smp_create",
        scenario: "exp_4_5_smp",
        threads: 1,
        telemetry: false,
        rep: smp_create,
    },
    Workload {
        name: "shard_scaling_2t",
        scenario: "mds_shard_scaling",
        threads: 2,
        telemetry: false,
        rep: shard_scaling,
    },
    Workload {
        name: "largedir_create",
        scenario: "exp_4_3_largedir",
        threads: 1,
        telemetry: false,
        rep: largedir_create,
    },
    Workload {
        name: "stat_traced",
        scenario: "abl_attr_cache",
        threads: 1,
        telemetry: true,
        rep: stat_traced,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a rep runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// `SimConfig::seed` of every cell.
    pub seed: u64,
    /// Reduced geometry for smoke tests; no baseline or shape checks.
    pub quick: bool,
    /// Wrap models and streams in the timing decorators.
    pub wrap: bool,
    /// Record telemetry in workloads that do (off only to measure its cost).
    pub telemetry: bool,
}

/// One simulated run, set up and ready to go.
pub struct Cell {
    /// The model, with any namespace pre-population already done.
    pub model: Box<dyn DistFs>,
    /// Client node names.
    pub nodes: Vec<String>,
    /// Worker processes.
    pub workers: Vec<WorkerSpec>,
    /// One op stream per worker.
    pub streams: Vec<Box<dyn OpStream>>,
    /// Engine configuration.
    pub config: SimConfig,
    /// Run inside `telemetry::capture`.
    pub capture: bool,
}

/// Host nanoseconds a rep spent outside and inside the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepTimes {
    /// Building models, pre-populating namespaces, making streams.
    pub setup_ns: u128,
    /// Inside `run_sim`.
    pub sim_ns: u128,
    /// Dropping models and telemetry.
    pub teardown_ns: u128,
    /// Rendering the telemetry exports.
    pub export_ns: u128,
    /// Bytes of telemetry exported.
    pub export_bytes: u64,
    /// Running the critical-path analyzer.
    pub analyze_ns: u128,
    /// Causal op records captured.
    pub op_records: u64,
}

/// The outcome of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell label, e.g. `local/ppn32`.
    pub label: String,
    /// [`digest`] of the cell's [`SimRunResult`].
    pub digest: u64,
    /// Completed operations.
    pub ops: u64,
    /// Failed operations (plan errors).
    pub errors: u64,
}

/// A named pass/fail output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

/// Everything one rep produced.
pub struct Rep {
    /// How the rep runs.
    pub mode: Mode,
    /// Per-cell outcomes, in run order.
    pub cells: Vec<CellResult>,
    /// The scenario's baseline metrics, as this rep computed them.
    pub metrics: Vec<(String, f64)>,
    /// Shape checks and telemetry self-checks.
    pub checks: Vec<Check>,
    /// Host time split.
    pub times: RepTimes,
}

impl Rep {
    /// An empty rep.
    pub fn new(mode: Mode) -> Self {
        Rep {
            mode,
            cells: Vec::new(),
            metrics: Vec::new(),
            checks: Vec::new(),
            times: RepTimes::default(),
        }
    }

    /// Operations attempted (completed plus failed) across all cells.
    pub fn attempted(&self) -> u64 {
        self.cells.iter().map(|c| c.ops + c.errors).sum()
    }

    /// Operations that failed across all cells.
    pub fn failed(&self) -> u64 {
        self.cells.iter().map(|c| c.errors).sum()
    }

    /// Set up one cell (timed as set-up), simulate it and record the
    /// outcome. Returns the cell's stonewall throughput.
    fn cell(&mut self, label: String, setup: impl FnOnce(&Mode) -> Cell) -> f64 {
        let t = Instant::now();
        let cell = setup(&self.mode);
        self.times.setup_ns += t.elapsed().as_nanos();
        let (res, report) = simulate(cell, self.mode.wrap, &mut self.times);
        if let Some(report) = report {
            self.export(&label, report);
        }
        self.cells.push(CellResult {
            label,
            digest: digest(&res),
            ops: res.total_ops(),
            errors: res.workers.iter().map(|w| w.errors).sum(),
        });
        res.stonewall_ops_per_sec()
    }

    /// Render every telemetry export and analyze the capture, as
    /// `dmetabench suite --trace-out --metrics` and `analyze` do.
    fn export(&mut self, label: &str, report: TelemetryReport) {
        let t = Instant::now();
        let bytes = black_box(report.to_chrome_trace_json()).len()
            + black_box(report.to_metrics_json()).len()
            + black_box(report.to_timeseries_json()).len();
        self.times.export_ns += t.elapsed().as_nanos();
        self.times.export_bytes += bytes as u64;
        let t = Instant::now();
        let analysis = black_box(analyze(&report, 10));
        self.times.analyze_ns += t.elapsed().as_nanos();
        self.times.op_records += report.op_records().len() as u64;
        let c = &analysis.consistency;
        self.check(
            format!("{label}: analyze segments tile op latency"),
            c.consistent,
            format!("{} records, {} mismatched", c.records, c.mismatched_records),
        );
        let t = Instant::now();
        drop(analysis);
        drop(report);
        self.times.teardown_ns += t.elapsed().as_nanos();
    }

    fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    fn check(&mut self, name: impl Into<String>, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail,
        });
    }

    /// A scenario shape check; these hold only at full geometry.
    fn shape(&mut self, name: &str, passed: bool, detail: String) {
        if !self.mode.quick {
            self.check(format!("shape: {name}"), passed, detail);
        }
    }
}

/// Run a prepared cell, through the timing wrappers when `wrap` is set.
/// Returns the result and, for capturing cells, the telemetry.
pub fn simulate(
    cell: Cell,
    wrap: bool,
    times: &mut RepTimes,
) -> (SimRunResult, Option<TelemetryReport>) {
    let Cell {
        mut model,
        nodes,
        workers,
        mut streams,
        config,
        capture,
    } = cell;
    if wrap {
        model = Timed::wrap(model);
        streams = streams.into_iter().map(TimedStream::wrap).collect();
    }
    let t = Instant::now();
    let sim = || run_sim(model.as_mut(), &nodes, workers, streams, &config);
    let (res, report) = if capture {
        let (res, report) = telemetry::capture(sim);
        (res, Some(report))
    } else {
        (sim(), None)
    };
    times.sim_ns += t.elapsed().as_nanos();
    let t = Instant::now();
    drop(model);
    times.teardown_ns += t.elapsed().as_nanos();
    (res, report)
}

/// A 64-bit FNV-1a digest of everything a [`SimRunResult`] reports: per
/// worker the sample log, op and error counts, finish time, latency
/// histogram count and sum, retries and failovers; then the run's end time
/// and the bits of its stonewall throughput.
pub fn digest(res: &SimRunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for w in &res.workers {
        put(w.node as u64);
        put(w.proc as u64);
        put(w.ops_done);
        put(w.errors);
        put(w.retries);
        put(w.failovers);
        put(w.finished_at.map_or(u64::MAX, |t| t.as_nanos()));
        put(w.latency.count());
        put(w.latency.sum().as_nanos());
        for &(t, n) in &w.samples {
            put(t.as_nanos());
            put(n);
        }
    }
    put(res.wall_time.as_nanos());
    put(res.stonewall_ops_per_sec().to_bits());
    h
}

fn config(mode: &Mode) -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.seed = mode.seed;
    cfg
}

// ---------------------------------------------------------------------------
// smp_create — exp_4_5_smp
// ---------------------------------------------------------------------------

/// The models `exp_4_5_smp` compares.
const SMP_MODELS: [&str; 4] = ["local", "nfs", "cxfs", "pvfs"];

/// One `exp_4_5_smp` cell: MakeFiles for 1 virtual second on one 64-core
/// node with `ppn` processes.
pub fn smp_cell(mode: &Mode, fs: &str, ppn: usize) -> Cell {
    let model: Box<dyn DistFs> = match fs {
        "local" => Box::new(LocalFs::with_defaults()),
        "nfs" => Box::new(NfsFs::with_defaults()),
        "cxfs" => Box::new(CxfsFs::with_defaults()),
        "pvfs" => Box::new(PvfsFs::with_defaults()),
        other => panic!("no smp model '{other}'"),
    };
    let mut cfg = config(mode);
    cfg.duration = Some(if mode.quick {
        SimDuration::from_millis(20)
    } else {
        SimDuration::from_secs(1)
    });
    cfg.node_cores = 64;
    let workers = make_workers(1, ppn);
    Cell {
        model,
        nodes: node_names(1),
        streams: create_streams(&workers, 0),
        workers,
        config: cfg,
        capture: false,
    }
}

/// The cells the blessed metrics and shape checks read — 1 and 32
/// processes on every model, plus NFS at 8 — out of the scenario's sweep
/// of 1/2/4/8/16/32. The full sweep takes about 21 s on a 2-core Xeon,
/// three quarters of it in local-fs cells no metric reads.
fn smp_create(rep: &mut Rep) {
    let rate = |rep: &mut Rep, fs: &str, ppn: usize| {
        rep.cell(format!("{fs}/ppn{ppn}"), |m| smp_cell(m, fs, ppn))
    };
    let mut one = Vec::new();
    let mut many = Vec::new();
    for fs in SMP_MODELS {
        one.push(rate(rep, fs, 1));
        many.push(rate(rep, fs, 32));
    }
    let nfs8 = rate(rep, "nfs", 8);
    for (i, fs) in SMP_MODELS.iter().enumerate() {
        rep.metric(format!("{fs}_speedup_32_procs"), many[i] / one[i]);
    }
    let [local, nfs, cxfs, pvfs] = [0, 1, 2, 3].map(|i| (one[i], many[i]));
    rep.shape(
        "local_fs_scales_intra_node",
        local.1 > local.0 * 2.5,
        format!("{} → {}", local.0, local.1),
    );
    rep.shape(
        "nfs_scales_until_filer_saturates",
        nfs8 > nfs.0 * 4.0,
        format!("{} → {nfs8}", nfs.0),
    );
    rep.shape(
        "cxfs_token_manager_serializes_node",
        cxfs.1 < cxfs.0 * 1.3,
        format!("{} → {}", cxfs.0, cxfs.1),
    );
    rep.shape(
        "nfs_beats_cxfs_on_big_smp",
        nfs.1 > cxfs.1 * 4.0,
        format!("{} vs {}", nfs.1, cxfs.1),
    );
    rep.shape(
        "cache_free_pvfs_scales_intra_node",
        pvfs.1 > pvfs.0 * 4.0,
        format!("{} → {}", pvfs.0, pvfs.1),
    );
}

// ---------------------------------------------------------------------------
// shard_scaling_2t — mds_shard_scaling
// ---------------------------------------------------------------------------

/// The shard counts `mds_shard_scaling` sweeps.
const SHARD_COUNTS: [usize; 4] = [1, 4, 16, 64];

/// One `mds_shard_scaling` cell: MakeFiles from 16 nodes × 4 processes for
/// 10 virtual seconds over `shards` hash-placed MDS shards, pinned to the
/// windowed engine.
pub fn shard_cell(mode: &Mode, shards: usize) -> Cell {
    let model = ShardMds::new(ShardMdsConfig {
        shards,
        ..ShardMdsConfig::default()
    });
    let mut cfg = config(mode);
    cfg.duration = Some(if mode.quick {
        SimDuration::from_millis(200)
    } else {
        SimDuration::from_secs(10)
    });
    cfg.node_cores = 1;
    cfg.pin_windowed_engine = true;
    let workers = make_workers(16, 4);
    Cell {
        model: Box::new(model),
        nodes: node_names(16),
        streams: create_streams(&workers, 0),
        workers,
        config: cfg,
        capture: false,
    }
}

fn shard_scaling(rep: &mut Rep) {
    let mut rates = Vec::new();
    for shards in SHARD_COUNTS {
        let rate = rep.cell(format!("shards{shards}"), |m| shard_cell(m, shards));
        rep.metric(format!("ops_{shards}_shards"), rate);
        rates.push(rate);
    }
    let (r1, r4, r16, r64) = (rates[0], rates[1], rates[2], rates[3]);
    rep.shape(
        "sharding_scales_1_to_4",
        r4 > r1 * 1.3,
        format!("{r1} → {r4} ops/s"),
    );
    rep.shape(
        "sharding_scales_4_to_16",
        r16 > r4 * 1.1,
        format!("{r4} → {r16} ops/s"),
    );
    rep.shape(
        "clears_single_mds_saturation",
        r16 > r1 * 2.0,
        format!("{r16} vs single-MDS {r1} ops/s"),
    );
    rep.shape(
        "flattens_past_directory_count",
        r64 > r16 * 0.9,
        format!("{r16} → {r64} ops/s"),
    );
}

// ---------------------------------------------------------------------------
// largedir_create — exp_4_3_largedir
// ---------------------------------------------------------------------------

/// One `exp_4_3_largedir` cell: an NFS server whose directory `/big`
/// already holds `n` entries under index `kind`, then 2 000 creates into it
/// from `nodes × ppn` workers. Pre-population is set-up; each of its
/// creates is timed as `memfs.setup` in the traced rep.
pub fn largedir_cell(mode: &Mode, kind: DirIndexKind, n: u64, nodes: usize, ppn: usize) -> Cell {
    let measure_ops: u64 = if mode.quick { 200 } else { 2_000 };
    let n = if mode.quick { n / 100 } else { n };
    let mut cfg = NfsConfig::default();
    cfg.fs_config.dir_index = kind;
    let mut model = NfsFs::new(cfg);
    let fs = model.server_fs_mut();
    fs.mkdir("/big").expect("fresh fs");
    for i in 0..n {
        let _scope = prof::scope("memfs.setup");
        let fd = fs.create(&format!("/big/old{i}")).expect("unique");
        fs.close(fd).expect("open");
    }
    fs.take_cost(); // preparation work is not part of the measurement
    let workers = make_workers(nodes, ppn);
    let quota = measure_ops / workers.len() as u64;
    let streams = workers
        .iter()
        .map(|w| {
            let tag = format!("n{}p{}", w.node, w.proc);
            let s: Box<dyn OpStream> = Box::new(move |i: u64| {
                (i < quota).then(|| MetaOp::Create {
                    path: format!("/big/{tag}_new{i}"),
                    data_bytes: 0,
                })
            });
            s
        })
        .collect();
    Cell {
        model: Box::new(model),
        nodes: node_names(nodes),
        workers,
        streams,
        config: config(mode),
        capture: false,
    }
}

fn largedir_create(rep: &mut Rep) {
    // Linear directories are O(N) per lookup, so the scenario caps them.
    const LINEAR: [u64; 3] = [1_000, 10_000, 30_000];
    const INDEXED: [u64; 5] = [1_000, 10_000, 30_000, 100_000, 300_000];
    let rate = |rep: &mut Rep, kind: DirIndexKind, n: u64, nodes: usize, ppn: usize| {
        rep.cell(format!("{kind:?}/{n}/{nodes}x{ppn}"), |m| {
            largedir_cell(m, kind, n, nodes, ppn)
        })
    };
    let mut linear = Vec::new();
    let mut hashed = Vec::new();
    for n in INDEXED {
        if LINEAR.contains(&n) {
            linear.push(rate(rep, DirIndexKind::Linear, n, 1, 1));
        }
        hashed.push(rate(rep, DirIndexKind::Hashed, n, 1, 1));
        rate(rep, DirIndexKind::BTree, n, 1, 1);
    }
    // The scenario measures the sequential 100k cell a second time as the
    // base of its parallel table; so does the benchmark.
    let seq = rate(rep, DirIndexKind::Hashed, 100_000, 1, 1);
    let par4 = rate(rep, DirIndexKind::Hashed, 100_000, 4, 1);
    rate(rep, DirIndexKind::Hashed, 100_000, 4, 2);

    let (lin_small, lin_big) = (linear[0], linear[2]);
    let (hash_small, hash_big) = (hashed[0], hashed[4]);
    rep.metric("linear_1k", lin_small);
    rep.metric("linear_30k", lin_big);
    rep.metric("hashed_1k", hash_small);
    rep.metric("hashed_300k", hash_big);
    rep.metric("parallel_speedup_4nodes", par4 / seq);
    rep.shape(
        "linear_directories_degrade",
        lin_big < lin_small * 0.5,
        format!("{lin_small} → {lin_big}"),
    );
    rep.shape(
        "hashed_directories_stay_flat",
        hash_big > hash_small * 0.8,
        format!("{hash_small} → {hash_big}"),
    );
    rep.shape(
        "parallel_creation_into_one_dir_scales",
        par4 > seq * 2.0,
        format!("{seq} → {par4} on 4 nodes"),
    );
}

// ---------------------------------------------------------------------------
// stat_traced — abl_attr_cache
// ---------------------------------------------------------------------------

/// The attribute-cache TTLs `abl_attr_cache` sweeps, in milliseconds.
const TTLS_MS: [u64; 6] = [0, 10, 100, 1_000, 3_000, 30_000];

/// One `abl_attr_cache` cell: two processes on one NFS client, each
/// creating a file and stating it four times, for 20 virtual seconds under
/// attribute-cache TTL `ttl_ms`, recorded with telemetry.
pub fn stat_cell(mode: &Mode, ttl_ms: u64) -> Cell {
    let mut cfg = NfsConfig::default();
    cfg.attr_ttl = SimDuration::from_millis(ttl_ms);
    let workers = vec![WorkerSpec::new(0, 0), WorkerSpec::new(0, 1)];
    let streams = workers
        .iter()
        .map(|w| {
            let dir = format!("/bench/p{}", w.proc);
            let s: Box<dyn OpStream> = Box::new(move |i: u64| {
                let path = format!("{dir}/f{}", i / 5);
                Some(if i.is_multiple_of(5) {
                    MetaOp::Create {
                        path,
                        data_bytes: 0,
                    }
                } else {
                    MetaOp::Stat { path }
                })
            });
            s
        })
        .collect();
    let mut sim = config(mode);
    sim.duration = Some(if mode.quick {
        SimDuration::from_millis(500)
    } else {
        SimDuration::from_secs(20)
    });
    Cell {
        model: Box::new(NfsFs::new(cfg)),
        nodes: node_names(1),
        workers,
        streams,
        config: sim,
        capture: mode.telemetry,
    }
}

/// Each TTL cell is captured, exported and analyzed on its own, so peak
/// memory holds one cell's telemetry rather than all six.
fn stat_traced(rep: &mut Rep) {
    let mut rates = Vec::new();
    for ttl in TTLS_MS {
        rates.push(rep.cell(format!("ttl{ttl}ms"), |m| stat_cell(m, ttl)));
    }
    let saturation = rates[5] / rates[4];
    rep.metric("no_cache_ops", rates[0]);
    rep.metric("ttl_1s_ops", rates[3]);
    rep.metric("ttl_30s_ops", rates[5]);
    rep.metric("saturation_ratio_30s_over_3s", saturation);
    rep.shape(
        "1s_ttl_converts_most_stats_into_hits",
        rates[3] > rates[0] * 2.5,
        format!("{} vs {}", rates[3], rates[0]),
    );
    rep.shape(
        "beyond_restat_distance_ttl_stops_helping",
        saturation < 1.15,
        format!("{saturation:.2}"),
    );
}
