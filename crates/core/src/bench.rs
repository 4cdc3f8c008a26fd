//! Wall-clock benchmark harness (`dmetabench bench`).
//!
//! Unlike the shape-regression suite, which runs on **virtual** time and is
//! bit-reproducible, this module measures **real** elapsed time so the repo
//! can record a perf trajectory across PRs. Each benched scenario is run
//! `reps` times after one untimed warmup, and the per-rep wall-clock samples
//! are summarized and written to `BENCH_<scenario>.json` (schema
//! [`SCHEMA`]).
//!
//! Two kinds of scenario are benchable:
//!
//! * **micro** workloads defined here — [`micro_ids`] — that hammer one
//!   subsystem directly. `snapshot_churn` is checkpoint/snapshot-heavy
//!   (it exercises the consistency-point image capture path, paper §4.8);
//!   `create_churn` is the identical metadata workload *without* any
//!   checkpoints, serving as the regression control; `sim_hotpath` is pure
//!   discrete-event scheduler churn (no file-system work at all) — the
//!   yardstick for the event-loop hot path; `stress_grid` is a
//!   Task-Bench-style parameterized sweep of workers × servers × op-mix
//!   over a fixed synthetic substrate, exercising the whole engine
//!   (scheduler + resources + telemetry-off fast path) without any
//!   file-system semantics. `sim_hotpath_mt` and `stress_grid_mt` are the
//!   multi-threaded twins (independent event-loop lanes / concurrent grid
//!   cells on `--sim-threads` OS threads) — same deterministic op totals,
//!   wall-clock measures cross-core scaling.
//!   `memfs_ops` times the memfs kernels one at a time (directory-index
//!   insert/lookup per index kind, create/close/unlink, block allocator
//!   alloc/free, deep-path stat); `result_pipeline` times the
//!   post-benchmark pipeline (preprocess, TSV round trip, SVG and ASCII
//!   time charts) on a 64-process × 600-interval result set.
//! * any registered **suite** scenario by id (`exp_4_8_writeback`, …),
//!   timed end to end.
//!
//! [`compare_files`] diffs two emitted `BENCH_*.json` files (median deltas with a
//! regression threshold) — the repo's committed BENCH files are the
//! reference side.

use crate::{chart, preprocess, suite, ProcessTrace, ResultSet};
use cluster::{run_sim, SimConfig, WorkerSpec};
use dfs::{
    ClientCtx, DistFs, FsResources, MetaOp, OpPlan, PartitionPlan, SemId, SemSpec, ServerId,
    ServerSpec, Stage,
};
use memfs::{
    new_allocator, new_index, AllocatorKind, DirIndexKind, FileType, FsResult, Ino, MemFs,
    MemFsConfig, OpenFlags, RawEntry, Vfs,
};
use serde::{Deserialize, Serialize};
use simcore::{par, DetRng, EventId, Scheduler, SimDuration, SimTime};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag stamped into every emitted `BENCH_*.json`.
pub const SCHEMA: &str = "dmetabench.bench/v1";

/// Summary statistics over the per-rep wall-clock samples, in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchStats {
    /// Fastest rep.
    pub min_secs: f64,
    /// Median rep (the headline number — robust against one slow rep).
    pub median_secs: f64,
    /// Arithmetic mean.
    pub mean_secs: f64,
    /// Slowest rep.
    pub max_secs: f64,
    /// Population standard deviation.
    pub stddev_secs: f64,
}

impl BenchStats {
    /// Compute stats over one or more samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "bench needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = sorted.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        BenchStats {
            min_secs: sorted[0],
            median_secs: median,
            mean_secs: mean,
            max_secs: sorted[n - 1],
            stddev_secs: var.sqrt(),
        }
    }
}

/// One benched scenario's result — serialized as `BENCH_<scenario>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// Scenario id (micro workload name or registered suite id).
    pub scenario: String,
    /// `"micro"` or `"suite"`.
    pub kind: String,
    /// Timed repetitions (after one untimed warmup).
    pub reps: u32,
    /// Whether the workload ran in reduced `--quick` geometry.
    pub quick: bool,
    /// Metadata operations per rep (0 for suite scenarios, which report
    /// their own op counts in the shape suite).
    pub ops: u64,
    /// Raw per-rep wall-clock samples, seconds, in run order.
    pub samples_secs: Vec<f64>,
    /// Summary statistics over `samples_secs`.
    pub stats: BenchStats,
    /// `ops / median_secs` (0.0 when `ops` is 0).
    pub ops_per_sec_median: f64,
}

/// Ids of the built-in micro workloads.
pub fn micro_ids() -> &'static [&'static str] {
    &[
        "snapshot_churn",
        "create_churn",
        "sim_hotpath",
        "sim_hotpath_mt",
        "stress_grid",
        "stress_grid_mt",
        "memfs_ops",
        "result_pipeline",
    ]
}

/// Geometry of the churn workloads.
struct ChurnGeometry {
    dirs: usize,
    files_per_dir: usize,
    rounds: usize,
    rewrites_per_round: usize,
    recreates_per_round: usize,
}

impl ChurnGeometry {
    fn new(quick: bool) -> Self {
        if quick {
            ChurnGeometry {
                dirs: 8,
                files_per_dir: 32,
                rounds: 3,
                rewrites_per_round: 64,
                recreates_per_round: 16,
            }
        } else {
            ChurnGeometry {
                dirs: 16,
                files_per_dir: 128,
                rounds: 8,
                rewrites_per_round: 256,
                recreates_per_round: 64,
            }
        }
    }
}

/// How many snapshots the churn workload keeps live (WAFL keeps a small
/// rotating set of consistency points).
const SNAPSHOT_KEEP: usize = 4;

/// Run the churn workload; with `snapshots` each round ends in a
/// consistency point (`checkpoint()` + `snapshot_create()` with rotation).
/// Returns the number of metadata operations performed.
fn run_churn(quick: bool, snapshots: bool) -> u64 {
    let g = ChurnGeometry::new(quick);
    let payload = vec![0xa5u8; 4096]; // > inline_max: engages the allocator
    let mut fs = MemFs::new();
    let mut ops: u64 = 0;
    for d in 0..g.dirs {
        fs.mkdir(&format!("/d{d}")).expect("mkdir");
        ops += 1;
        for f in 0..g.files_per_dir {
            let path = format!("/d{d}/f{f}");
            let fd = fs.create(&path).expect("create");
            fs.write(fd, &payload).expect("write");
            fs.close(fd).expect("close");
            ops += 3;
        }
    }
    let total_files = g.dirs * g.files_per_dir;
    for round in 0..g.rounds {
        for k in 0..g.rewrites_per_round {
            let idx = (round * g.rewrites_per_round + k * 7) % total_files;
            let path = format!("/d{}/f{}", idx / g.files_per_dir, idx % g.files_per_dir);
            let fd = fs.open(&path, OpenFlags::write_only()).expect("open");
            fs.write(fd, &payload).expect("rewrite");
            fs.close(fd).expect("close");
            ops += 3;
        }
        for k in 0..g.recreates_per_round {
            let idx = (round * g.recreates_per_round + k * 11) % total_files;
            let path = format!("/d{}/f{}", idx / g.files_per_dir, idx % g.files_per_dir);
            fs.unlink(&path).expect("unlink");
            let fd = fs.create(&path).expect("recreate");
            fs.write(fd, &payload).expect("write");
            fs.close(fd).expect("close");
            ops += 4;
        }
        if snapshots {
            fs.checkpoint();
            fs.snapshot_create(&format!("cp{round}")).expect("snapshot");
            ops += 2;
            if round >= SNAPSHOT_KEEP {
                fs.snapshot_delete(&format!("cp{}", round - SNAPSHOT_KEEP))
                    .expect("rotate");
                ops += 1;
            }
        }
    }
    ops
}

/// Geometry of the `sim_hotpath` micro.
struct HotpathGeometry {
    /// Steady-state pending-event population.
    population: usize,
    /// Events delivered by the timed loop.
    deliveries: u64,
}

impl HotpathGeometry {
    fn new(quick: bool) -> Self {
        if quick {
            HotpathGeometry {
                population: 4_096,
                deliveries: 200_000,
            }
        } else {
            HotpathGeometry {
                population: 65_536,
                deliveries: 2_000_000,
            }
        }
    }
}

/// Pure scheduler churn: no file-system work, no telemetry, no engine — just
/// schedule / pop / cancel at a steady pending population, the raw event-loop
/// hot path. Deltas span sub-microsecond to ~1 ms (several timer-wheel
/// levels), every 16th delivery schedules a same-instant event (FIFO path),
/// and every 8th delivery schedules a far-out "victim" that is cancelled once
/// a small ring wraps (tombstone + slot-reuse path). Returns the number of
/// deliveries (the `ops` headline).
fn run_sim_hotpath(quick: bool) -> u64 {
    let g = HotpathGeometry::new(quick);
    hotpath_lane(g.population, g.deliveries, 0xD1CE)
}

/// `sim_hotpath` across independent schedulers: the same total delivery
/// budget split over four lanes, each lane a private [`Scheduler`] driven by
/// [`hotpath_lane`], dispatched with [`par::run_independent`] on
/// `--sim-threads` OS threads. The per-lane op counts are pure
/// functions of the lane index, so the headline is deterministic at every
/// thread count; the wall-clock measures how well independent event loops
/// scale across cores.
fn run_sim_hotpath_mt(quick: bool) -> u64 {
    const LANES: usize = 4;
    let g = HotpathGeometry::new(quick);
    let (pop, deliveries) = (g.population / LANES, g.deliveries / LANES as u64);
    par::run_independent(LANES, cluster::sim_threads(), |lane| {
        hotpath_lane(pop, deliveries, 0xD1CE ^ (lane as u64) << 8)
    })
    .into_iter()
    .sum()
}

/// One `sim_hotpath` event loop: `population` steady-state pending events,
/// `deliveries` timed pops, delay tables drawn from `seed`.
fn hotpath_lane(population: usize, deliveries: u64, seed: u64) -> u64 {
    let mut rng = DetRng::new(seed);
    // Pre-draw the delay sequences so the timed loop measures the scheduler,
    // not the RNG. Every 16th near-delta is zero (same-instant FIFO path).
    const TABLE: usize = 4_096;
    let near: Vec<SimDuration> = (0..TABLE)
        .map(|i| {
            if i % 16 == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos(rng.uniform_u64(1, 1_000_000))
            }
        })
        .collect();
    let far: Vec<SimDuration> = (0..TABLE)
        .map(|_| SimDuration::from_nanos(rng.uniform_u64(10_000_000, 1_000_000_000)))
        .collect();
    let mut s: Scheduler<u64> = Scheduler::new();
    for i in 0..population {
        let at = SimTime::ZERO + near[i % TABLE].max(SimDuration::from_nanos(1));
        s.schedule_at(at, i as u64);
    }
    // Ring of cancellation victims: far enough out that they are almost
    // always still pending when the ring wraps and cancels them.
    const RING: usize = 512;
    let mut ring: Vec<Option<EventId>> = vec![None; RING];
    let mut ring_at = 0usize;
    for n in 0..deliveries {
        let (_, payload) = s.pop().expect("population never drains");
        s.schedule_after(near[(n as usize) % TABLE], payload);
        if n % 8 == 0 {
            let id = s.schedule_after(far[(n as usize / 8) % TABLE], u64::MAX);
            if let Some(old) = ring[ring_at].replace(id) {
                s.cancel(old);
            }
            ring_at = (ring_at + 1) % RING;
        }
    }
    deliveries
}

/// The fixed synthetic substrate under the `stress_grid` sweep: a [`DistFs`]
/// with `servers` identical queueing stations and one shared semaphore, whose
/// plans depend only on the op *kind* (no real namespace, no [`MemFs`]). This
/// keeps the grid a pure engine benchmark — scheduler, CPU/server resources,
/// and semaphore wake chains — in the spirit of Task Bench's fixed-substrate
/// parameter sweeps.
struct GridFs {
    servers: usize,
    /// Per-client plan counters: server selection is a pure function of
    /// `(node, proc, per-client op index)`, so the plan stream each client
    /// sees is independent of how clients interleave — the property that
    /// lets a domain replica answer for its own clients bit-identically to
    /// the unsplit model.
    calls: HashMap<(usize, usize), u64>,
    /// Every 4th plan wraps its server stage in the shared semaphore when
    /// the mix asks for lock traffic.
    planned: u64,
    use_sem: bool,
    /// Whether this instance may offer a domain decomposition (disabled for
    /// the cell-parallel `stress_grid_mt`, which must not nest the windowed
    /// engine inside its own worker threads).
    partition_ok: bool,
}

impl GridFs {
    fn new(servers: usize, use_sem: bool) -> Self {
        GridFs {
            servers,
            calls: HashMap::new(),
            planned: 0,
            use_sem,
            partition_ok: true,
        }
    }
}

impl DistFs for GridFs {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: (0..self.servers)
                .map(|i| ServerSpec {
                    name: format!("grid{i}"),
                    parallelism: 2,
                })
                .collect(),
            semaphores: if self.use_sem {
                vec![SemSpec {
                    name: "grid-lock".to_owned(),
                    permits: 2,
                }]
            } else {
                Vec::new()
            },
        }
    }

    fn register_clients(&mut self, _nodes: usize) {}

    fn partition(&self, nodes: usize) -> Option<PartitionPlan> {
        if self.use_sem || !self.partition_ok {
            return None; // the shared semaphore couples every domain
        }
        let domains = self.servers.min(nodes);
        if domains < 2 {
            return None;
        }
        Some(PartitionPlan {
            server_domain: (0..self.servers).map(|s| s % domains).collect(),
            node_domain: (0..nodes).map(|n| n % domains).collect(),
            models: (0..domains)
                .map(|_| Box::new(GridFs::new(self.servers, false)) as Box<dyn DistFs>)
                .collect(),
            // both NetDelay stages below are exactly this long, and they are
            // the only cross-domain interaction
            lookahead: SimDuration::from_micros(50),
        })
    }

    fn plan_into(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        _now: SimTime,
        _rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        let calls = self.calls.entry((client.node, client.proc)).or_insert(0);
        let server = ServerId((client.node * 4 + client.proc + *calls as usize) % self.servers);
        *calls += 1;
        self.planned += 1;
        // Cost depends only on the op kind: creates are "writes" (heavier
        // service demand), everything else is a cheap lookup.
        let demand = match op {
            MetaOp::Create { .. } | MetaOp::Unlink { .. } => SimDuration::from_micros(30),
            _ => SimDuration::from_micros(10),
        };
        out.stages.push(Stage::ClientCpu {
            demand: SimDuration::from_micros(2),
        });
        out.stages.push(Stage::NetDelay {
            delay: SimDuration::from_micros(50),
        });
        let locked = self.use_sem && self.planned.is_multiple_of(4);
        if locked {
            out.stages.push(Stage::AcquireSem { sem: SemId(0) });
        }
        out.stages.push(Stage::Server { server, demand });
        if locked {
            out.stages.push(Stage::ReleaseSem { sem: SemId(0) });
        }
        out.stages.push(Stage::NetDelay {
            delay: SimDuration::from_micros(50),
        });
        Ok(())
    }

    fn drop_caches(&mut self, _node: usize) {}

    fn name(&self) -> &str {
        "gridfs"
    }
}

/// One cell of the stress grid: `workers` workers (4 per node) against
/// `servers` stations, issuing `ops_per_worker` ops of the given mix.
/// `partitioned` lets the model offer a domain decomposition (so eligible
/// cells run on the windowed engine); the op-count result is identical
/// either way. Returns ops completed.
fn run_grid_cell(
    workers: usize,
    servers: usize,
    mix: &str,
    ops_per_worker: u64,
    partitioned: bool,
) -> u64 {
    let use_sem = mix == "mixed";
    let mut model = GridFs::new(servers, use_sem);
    model.partition_ok = partitioned;
    let nodes = workers.div_ceil(4).max(1);
    let node_names: Vec<String> = (0..nodes).map(|i| format!("gn{i}")).collect();
    let specs: Vec<WorkerSpec> = (0..workers)
        .map(|w| WorkerSpec::new(w / 4, w % 4))
        .collect();
    let mix_owned = mix.to_owned();
    let streams: Vec<Box<dyn cluster::OpStream>> = (0..workers)
        .map(|w| {
            let mix = mix_owned.clone();
            Box::new(move |i: u64| {
                if i >= ops_per_worker {
                    return None;
                }
                let path = format!("/g/w{w}/f{i}");
                Some(match mix.as_str() {
                    "create" => MetaOp::Create {
                        path,
                        data_bytes: 0,
                    },
                    "stat" => MetaOp::Stat { path },
                    // mixed: creates, stats and opens interleaved
                    _ => match i % 4 {
                        0 => MetaOp::Create {
                            path,
                            data_bytes: 0,
                        },
                        1 | 2 => MetaOp::Stat { path },
                        _ => MetaOp::OpenClose { path },
                    },
                })
            }) as Box<dyn cluster::OpStream>
        })
        .collect();
    let config = SimConfig {
        seed: 0x9318 + workers as u64 * 31 + servers as u64,
        ..Default::default()
    };
    let res = run_sim(&mut model, &node_names, specs, streams, &config);
    res.total_ops()
}

/// The cell axes of the stress grid.
fn grid_cells(quick: bool) -> (Vec<(usize, usize, &'static str)>, u64) {
    let (worker_axis, server_axis, ops_per_worker): (&[usize], &[usize], u64) = if quick {
        (&[4, 16], &[1, 4], 100)
    } else {
        (&[4, 16, 64], &[1, 4, 16], 400)
    };
    let mut cells = Vec::new();
    for &w in worker_axis {
        for &s in server_axis {
            for mix in ["create", "stat", "mixed"] {
                cells.push((w, s, mix));
            }
        }
    }
    (cells, ops_per_worker)
}

/// Task-Bench-style stress grid: sweep workers × servers × op-mix over the
/// fixed [`GridFs`] substrate. Returns total ops across all cells.
fn run_stress_grid(quick: bool) -> u64 {
    let (cells, ops_per_worker) = grid_cells(quick);
    cells
        .iter()
        .map(|&(w, s, mix)| run_grid_cell(w, s, mix, ops_per_worker, true))
        .sum()
}

/// The stress grid with cell-level parallelism: every cell is an
/// independent simulation (own model, scheduler, RNG), so the sweep runs
/// cells concurrently on `--sim-threads` OS threads via
/// [`par::run_independent`], largest cells first (LPT order) for the best
/// makespan. Each cell itself runs unpartitioned, as one domain — results
/// are the per-cell op counts, summed, identical at every thread count.
fn run_stress_grid_mt(quick: bool) -> u64 {
    let (mut cells, ops_per_worker) = grid_cells(quick);
    cells.sort_by_key(|&(w, s, _)| std::cmp::Reverse((w, s)));
    par::run_independent(cells.len(), cluster::sim_threads(), |i| {
        let (w, s, mix) = cells[i];
        run_grid_cell(w, s, mix, ops_per_worker, false)
    })
    .into_iter()
    .sum()
}

/// Geometry of the `memfs_ops` micro.
struct MemfsGeometry {
    /// Entries in the large directory index (the small one holds 100).
    dir_entries: u64,
    /// Repetitions of each single-op kernel: lookups per index,
    /// create/close/unlink rounds, alloc/free pairs and deep-path stats.
    iters: u64,
}

impl MemfsGeometry {
    fn new(quick: bool) -> Self {
        if quick {
            MemfsGeometry {
                dir_entries: 1_000,
                iters: 2_000,
            }
        } else {
            MemfsGeometry {
                dir_entries: 10_000,
                iters: 20_000,
            }
        }
    }
}

/// The local file-system substrate, one kernel at a time: directory-index
/// insert and lookup for every [`DirIndexKind`] at two sizes (the data
/// structure behind the large-directory experiment, §4.3.3),
/// create/close/unlink on hashed and B-tree directories, bitmap and extent
/// allocator alloc+free of 64 blocks, and a five-component path stat.
/// Returns the number of operations performed.
fn run_memfs_ops(quick: bool) -> u64 {
    let g = MemfsGeometry::new(quick);
    let mut ops = 0;
    for kind in [
        DirIndexKind::Linear,
        DirIndexKind::Hashed,
        DirIndexKind::BTree,
    ] {
        for n in [100, g.dir_entries] {
            let mut d = new_index(kind);
            for i in 0..n {
                let fresh = d.insert(RawEntry {
                    name: format!("f{i:08}").into(),
                    ino: Ino(i + 10),
                    file_type: FileType::Regular,
                });
                assert!(fresh.value, "names are unique");
            }
            let mut i = 0;
            for _ in 0..g.iters {
                i = (i + 7919) % n;
                let hit = d.lookup(&format!("f{i:08}"));
                assert!(hit.value.is_some(), "populated name");
            }
            ops += n + g.iters;
        }
    }
    for kind in [DirIndexKind::Hashed, DirIndexKind::BTree] {
        let mut cfg = MemFsConfig::default();
        cfg.dir_index = kind;
        let mut fs = MemFs::with_config(cfg);
        fs.mkdir("/w").expect("fresh fs");
        for i in 0..g.iters {
            let p = format!("/w/f{i}");
            let fd = fs.create(&p).expect("unique");
            fs.close(fd).expect("open");
            fs.unlink(&p).expect("exists");
        }
        ops += 1 + 3 * g.iters;
    }
    for kind in [AllocatorKind::Bitmap, AllocatorKind::Extent] {
        let mut a = new_allocator(kind, 1 << 20);
        for _ in 0..g.iters {
            let got = a.allocate(64).expect("space available");
            a.free(&got.extents);
        }
        ops += 2 * g.iters;
    }
    let mut fs = MemFs::new();
    for dir in ["/a", "/a/b", "/a/b/c", "/a/b/c/d"] {
        fs.mkdir(dir).expect("fresh fs");
    }
    let fd = fs.create("/a/b/c/d/leaf").expect("fresh fs");
    fs.close(fd).expect("open");
    for _ in 0..g.iters {
        std::hint::black_box(fs.stat("/a/b/c/d/leaf").expect("exists"));
    }
    ops + 6 + g.iters
}

/// Geometry of the `result_pipeline` micro: a result set of `processes`
/// interval logs with `intervals` samples each, pushed through the
/// pipeline `rounds` times.
struct PipelineGeometry {
    processes: usize,
    intervals: usize,
    rounds: u64,
}

impl PipelineGeometry {
    fn new(quick: bool) -> Self {
        if quick {
            PipelineGeometry {
                processes: 16,
                intervals: 100,
                rounds: 1,
            }
        } else {
            PipelineGeometry {
                processes: 64,
                intervals: 600,
                rounds: 4,
            }
        }
    }
}

/// A synthetic MakeFiles result set: `processes` processes on 4-slot nodes,
/// each logging a cumulative op count every 0.1 s for `intervals` intervals
/// (64 × 600 is a 60-second run on a large cluster, §3.3.9).
fn synthetic_result_set(processes: usize, intervals: usize) -> ResultSet {
    ResultSet {
        operation: "MakeFiles".into(),
        fs_name: "nfs".into(),
        nodes: processes / 4,
        ppn: 4,
        interval_s: 0.1,
        processes: (0..processes)
            .map(|p| {
                let samples: Vec<(f64, u64)> = (1..=intervals)
                    .map(|k| (k as f64 * 0.1, (k * (100 + p % 7)) as u64))
                    .collect();
                ProcessTrace {
                    hostname: format!("node{}", p / 4),
                    process_no: p,
                    finished_at: Some(intervals as f64 * 0.1),
                    ops_done: samples.last().map(|&(_, n)| n).unwrap_or(0),
                    samples,
                    errors: 0,
                }
            })
            .collect(),
    }
}

/// The post-benchmark result pipeline (§3.3.9–3.3.10): preprocessing with
/// two fixed-N strong-scaling points, a TSV write and parse, and the SVG
/// and ASCII time charts. Returns the number of pipeline stage calls.
fn run_result_pipeline(quick: bool) -> u64 {
    const STAGES: u64 = 5;
    let g = PipelineGeometry::new(quick);
    let rs = synthetic_result_set(g.processes, g.intervals);
    for _ in 0..g.rounds {
        let pre = preprocess(&rs, &[10_000, 100_000]);
        let tsv = rs.to_tsv();
        let back = ResultSet::from_tsv(&tsv, &rs.fs_name, rs.nodes, rs.ppn).expect("well-formed");
        assert_eq!(back.processes.len(), rs.processes.len(), "TSV round trip");
        std::hint::black_box(chart::svg_time_chart(&pre));
        std::hint::black_box(chart::time_chart(&pre));
    }
    g.rounds * STAGES
}

/// Run one benchable scenario once; returns the op count (0 for suite
/// scenarios).
///
/// # Errors
///
/// Unknown id, or a suite scenario that panics.
fn run_once(id: &str) -> Result<u64, String> {
    match id {
        "snapshot_churn" => Ok(run_churn(false, true)),
        "create_churn" => Ok(run_churn(false, false)),
        "sim_hotpath" => Ok(run_sim_hotpath(false)),
        "sim_hotpath_mt" => Ok(run_sim_hotpath_mt(false)),
        "stress_grid" => Ok(run_stress_grid(false)),
        "stress_grid_mt" => Ok(run_stress_grid_mt(false)),
        "memfs_ops" => Ok(run_memfs_ops(false)),
        "result_pipeline" => Ok(run_result_pipeline(false)),
        _ => {
            let scenario =
                suite::find(id).ok_or_else(|| format!("unknown bench scenario `{id}`"))?;
            let result = suite::run_scenario(scenario);
            result.outcome.map(|_| 0).map_err(|e| format!("{id}: {e}"))
        }
    }
}

/// Quick-mode variant of [`run_once`].
fn run_once_quick(id: &str) -> Result<u64, String> {
    match id {
        "snapshot_churn" => Ok(run_churn(true, true)),
        "create_churn" => Ok(run_churn(true, false)),
        "sim_hotpath" => Ok(run_sim_hotpath(true)),
        "sim_hotpath_mt" => Ok(run_sim_hotpath_mt(true)),
        "stress_grid" => Ok(run_stress_grid(true)),
        "stress_grid_mt" => Ok(run_stress_grid_mt(true)),
        "memfs_ops" => Ok(run_memfs_ops(true)),
        "result_pipeline" => Ok(run_result_pipeline(true)),
        _ => run_once(id),
    }
}

/// Bench one scenario: one untimed warmup, then `reps` timed runs.
///
/// # Errors
///
/// Unknown scenario id, `reps == 0`, or a failing suite scenario.
pub fn run_bench(id: &str, reps: u32, quick: bool) -> Result<BenchReport, String> {
    if reps == 0 {
        return Err("reps must be >= 1".to_owned());
    }
    let is_micro = micro_ids().contains(&id);
    if !is_micro && suite::find(id).is_none() {
        return Err(format!(
            "unknown bench scenario `{id}` (micro: {}; or any suite id)",
            micro_ids().join(", ")
        ));
    }
    let run = if quick { run_once_quick } else { run_once };
    let mut ops = run(id)?; // warmup
    let mut samples = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let t0 = Instant::now();
        ops = run(id)?;
        samples.push(t0.elapsed().as_secs_f64());
    }
    let stats = BenchStats::from_samples(&samples);
    let ops_per_sec_median = if ops > 0 && stats.median_secs > 0.0 {
        ops as f64 / stats.median_secs
    } else {
        0.0
    };
    Ok(BenchReport {
        schema: SCHEMA.to_owned(),
        scenario: id.to_owned(),
        kind: if is_micro { "micro" } else { "suite" }.to_owned(),
        reps,
        quick,
        ops,
        samples_secs: samples,
        stats,
        ops_per_sec_median,
    })
}

/// Path of a report's JSON file under `out_dir`.
pub fn report_path(out_dir: &Path, id: &str) -> PathBuf {
    out_dir.join(format!("BENCH_{id}.json"))
}

/// Serialize a report to `BENCH_<scenario>.json` under `out_dir`,
/// creating the directory if needed.
///
/// # Errors
///
/// I/O or serialization failure, as a human-readable message.
pub fn write_report(report: &BenchReport, out_dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let path = report_path(out_dir, &report.scenario);
    let text =
        serde_json::to_string_pretty(report).map_err(|e| format!("serialize bench: {e:?}"))?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// One scenario's old-vs-new wall-clock comparison (`bench --compare`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchDelta {
    /// Scenario id (identical in both reports).
    pub scenario: String,
    /// Reference (old) median, seconds.
    pub old_median_secs: f64,
    /// Candidate (new) median, seconds.
    pub new_median_secs: f64,
    /// `(new - old) / old * 100` — positive means the candidate is *slower*.
    pub delta_pct: f64,
    /// `old / new` — >1 means the candidate is faster.
    pub speedup: f64,
    /// `delta_pct > threshold` at the threshold passed to [`compare_reports`].
    pub regression: bool,
}

/// Load and schema-check a `BENCH_*.json` file.
///
/// # Errors
///
/// Unreadable file, malformed JSON, or a schema tag other than [`SCHEMA`].
pub fn load_report(path: &Path) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let report: BenchReport = serde_json::from_str(&text)
        .map_err(|e| format!("{}: bad bench JSON: {e}", path.display()))?;
    if report.schema != SCHEMA {
        return Err(format!(
            "{}: schema `{}` is not `{SCHEMA}`",
            path.display(),
            report.schema
        ));
    }
    Ok(report)
}

/// Diff two bench reports of the same scenario. `threshold_pct` is the
/// slowdown (in percent of the old median) above which the delta counts as a
/// regression.
///
/// # Errors
///
/// Reports for different scenarios, or a non-positive old median.
pub fn compare_reports(
    old: &BenchReport,
    new: &BenchReport,
    threshold_pct: f64,
) -> Result<BenchDelta, String> {
    if old.scenario != new.scenario {
        return Err(format!(
            "cannot compare `{}` against `{}`: different scenarios",
            old.scenario, new.scenario
        ));
    }
    let (o, n) = (old.stats.median_secs, new.stats.median_secs);
    if o <= 0.0 || n <= 0.0 {
        return Err(format!("`{}`: non-positive median", old.scenario));
    }
    let delta_pct = (n - o) / o * 100.0;
    Ok(BenchDelta {
        scenario: old.scenario.clone(),
        old_median_secs: o,
        new_median_secs: n,
        delta_pct,
        speedup: o / n,
        regression: delta_pct > threshold_pct,
    })
}

/// [`load_report`] + [`compare_reports`] over two files.
///
/// # Errors
///
/// Any load or comparison failure, as a human-readable message.
pub fn compare_files(old: &Path, new: &Path, threshold_pct: f64) -> Result<BenchDelta, String> {
    compare_reports(&load_report(old)?, &load_report(new)?, threshold_pct)
}

/// Render comparison deltas as a GitHub-flavoured Markdown table
/// (`bench --compare ... --emit-md`).
pub fn deltas_to_markdown(deltas: &[BenchDelta]) -> String {
    let mut md = String::from(
        "| scenario | old median (s) | new median (s) | delta | speedup | verdict |\n\
         |---|---:|---:|---:|---:|---|\n",
    );
    for d in deltas {
        md.push_str(&format!(
            "| {} | {:.4} | {:.4} | {:+.1}% | {:.2}x | {} |\n",
            d.scenario,
            d.old_median_secs,
            d.new_median_secs,
            d.delta_pct,
            d.speedup,
            if d.regression { "regression" } else { "ok" }
        ));
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let s = BenchStats::from_samples(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.min_secs, 1.0);
        assert_eq!(s.max_secs, 4.0);
        assert_eq!(s.median_secs, 2.5);
        assert_eq!(s.mean_secs, 2.5);
        assert!((s.stddev_secs - 1.118033988749895).abs() < 1e-12);
    }

    #[test]
    fn micro_workloads_run_quick() {
        for id in micro_ids() {
            let report = run_bench(id, 1, true).expect("quick micro bench runs");
            assert_eq!(report.schema, SCHEMA);
            assert_eq!(report.kind, "micro");
            assert!(report.ops > 0);
            assert_eq!(report.samples_secs.len(), 1);
        }
    }

    #[test]
    fn unknown_scenario_is_an_error() {
        assert!(run_bench("no_such_scenario", 1, true).is_err());
        assert!(run_bench("snapshot_churn", 0, true).is_err());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_bench("create_churn", 1, true).expect("bench runs");
        let text = serde_json::to_string_pretty(&report).expect("serialize");
        let back: BenchReport = serde_json::from_str(&text).expect("parse");
        assert_eq!(back, report);
    }

    #[test]
    fn sim_hotpath_delivers_deterministic_op_count() {
        assert_eq!(run_sim_hotpath(true), 200_000);
    }

    #[test]
    fn sim_hotpath_mt_delivers_the_same_total() {
        // four lanes × 50k deliveries = the sequential quick budget
        assert_eq!(run_sim_hotpath_mt(true), 200_000);
    }

    #[test]
    fn stress_grid_completes_every_cell() {
        // quick grid: (4+16) workers × {1,4} servers × 3 mixes × 100 ops
        assert_eq!(run_stress_grid(true), (4 + 16) * 2 * 3 * 100);
    }

    #[test]
    fn stress_grid_mt_completes_every_cell() {
        assert_eq!(run_stress_grid_mt(true), (4 + 16) * 2 * 3 * 100);
    }

    #[test]
    fn partitionable_grid_cell_matches_unpartitioned_run() {
        // the same cell unpartitioned and on the windowed engine
        // (2 domains) must complete the same ops
        let unpartitioned = run_grid_cell(16, 4, "create", 50, false);
        cluster::set_sim_threads(Some(2));
        let windowed = run_grid_cell(16, 4, "create", 50, true);
        cluster::set_sim_threads(None);
        assert_eq!(unpartitioned, windowed);
    }

    fn fake_report(scenario: &str, median: f64) -> BenchReport {
        BenchReport {
            schema: SCHEMA.to_owned(),
            scenario: scenario.to_owned(),
            kind: "micro".to_owned(),
            reps: 1,
            quick: true,
            ops: 100,
            samples_secs: vec![median],
            stats: BenchStats::from_samples(&[median]),
            ops_per_sec_median: 100.0 / median,
        }
    }

    #[test]
    fn compare_flags_regressions_beyond_threshold() {
        let old = fake_report("x", 1.0);
        let slower = fake_report("x", 1.2);
        let d = compare_reports(&old, &slower, 10.0).expect("compare");
        assert!(d.regression);
        assert!((d.delta_pct - 20.0).abs() < 1e-9);
        assert!((d.speedup - 1.0 / 1.2).abs() < 1e-9);
        // within threshold: not a regression
        let d = compare_reports(&old, &slower, 25.0).expect("compare");
        assert!(!d.regression);
        // faster: negative delta, never a regression
        let faster = fake_report("x", 0.5);
        let d = compare_reports(&old, &faster, 10.0).expect("compare");
        assert!(!d.regression);
        assert!((d.speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn markdown_table_lists_each_delta() {
        let old = fake_report("grid", 2.0);
        let new = fake_report("grid", 1.0);
        let d = compare_reports(&old, &new, 10.0).expect("compare");
        let md = deltas_to_markdown(&[d]);
        assert!(md.starts_with("| scenario |"));
        assert!(md.contains("| grid | 2.0000 | 1.0000 | -50.0% | 2.00x | ok |"));
    }

    #[test]
    fn compare_rejects_mismatched_scenarios() {
        let a = fake_report("a", 1.0);
        let b = fake_report("b", 1.0);
        assert!(compare_reports(&a, &b, 10.0).is_err());
    }

    #[test]
    fn compare_files_round_trip() {
        let dir = std::env::temp_dir().join(format!("dmb-compare-{}", std::process::id()));
        let old = fake_report("y", 2.0);
        let new = fake_report("y", 1.0);
        write_report(&old, &dir).expect("write old");
        let old_path = dir.join("BENCH_y.old.json");
        std::fs::rename(report_path(&dir, "y"), &old_path).expect("rename");
        write_report(&new, &dir).expect("write new");
        let d = compare_files(&old_path, &report_path(&dir, "y"), 5.0).expect("compare files");
        assert!((d.speedup - 2.0).abs() < 1e-9);
        assert!(!d.regression);
        assert!(load_report(Path::new("/no/such/file.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
