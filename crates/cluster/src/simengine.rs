//! The virtual-time execution engine.
//!
//! Takes a [`DistFs`](dfs::DistFs) model, a set of worker processes with
//! their operation streams, and runs the whole benchmark on `simcore`'s
//! deterministic event loop — producing exactly the per-process
//! time-interval progress logs that DMetabench records on real systems
//! (paper §3.2.5): every 0.1 s of *virtual* time, each worker's
//! operations-completed counter is sampled.
//!
//! The engine (`parsim`) owns the generic resources (per-node
//! processor-sharing CPUs, per-server FIFO queues, semaphores) and executes
//! the stage plans the model compiles. Disturbances (CPU hogs, server pauses
//! for snapshots, competing sequential writes — Figs. 4.4–4.7) are injected
//! there; this module holds the public run types and the entry points.

use dfs::{DistFs, MetaOp};
use simcore::{LatencyHistogram, SimDuration, SimTime};

/// A source of operations for one worker.
///
/// `index` is the number of operations the worker has completed so far;
/// returning `None` ends the worker (fixed problem size). Duration-bounded
/// benchmarks return `Some` forever and rely on the engine deadline.
pub trait OpStream: Send {
    /// Produce the next operation.
    fn next_op(&mut self, index: u64) -> Option<MetaOp>;
}

impl<F: FnMut(u64) -> Option<MetaOp> + Send> OpStream for F {
    fn next_op(&mut self, index: u64) -> Option<MetaOp> {
        self(index)
    }
}

/// One benchmark worker process.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Node (OS instance) the worker runs on.
    pub node: usize,
    /// Process index within the node.
    pub proc: usize,
    /// CPU scheduling weight (1.0 = normal; >1 favoured as by a negative
    /// `nice`, <1 disfavoured — paper §4.4).
    pub cpu_weight: f64,
}

impl WorkerSpec {
    /// A normal-priority worker.
    pub fn new(node: usize, proc: usize) -> Self {
        WorkerSpec {
            node,
            proc,
            cpu_weight: 1.0,
        }
    }
}

/// An external disturbance injected into the run (paper §4.2.3).
#[derive(Debug, Clone)]
pub enum Disturbance {
    /// CPU-intensive competitor processes on one node (the `stress` tool of
    /// Fig. 4.4): consumes a processor-sharing share of the node's CPU.
    CpuHog {
        /// Affected node.
        node: usize,
        /// Start time.
        start: SimTime,
        /// End time.
        end: SimTime,
        /// PS weight of the hog (e.g. number of hog processes).
        weight: f64,
    },
    /// A server pause — e.g. the filer creating snapshots (Fig. 4.5).
    ServerPause {
        /// Paused server (model resource index).
        server: usize,
        /// When the pause begins.
        at: SimTime,
        /// How long it lasts.
        duration: SimDuration,
    },
    /// Sustained extra server load — e.g. a large sequential write stream
    /// to the filer (Fig. 4.7): one background job every `interval`.
    ServerLoad {
        /// Loaded server.
        server: usize,
        /// Start time.
        start: SimTime,
        /// End time.
        end: SimTime,
        /// Service demand per injected job.
        demand: SimDuration,
        /// Injection period.
        interval: SimDuration,
    },
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Progress-sampling interval (the paper's default is 0.1 s).
    pub sample_interval: SimDuration,
    /// Wall-clock bound for duration-type benchmarks (e.g. MakeFiles runs
    /// 60 s); `None` = run until all streams end.
    pub duration: Option<SimDuration>,
    /// CPU cores per client node.
    pub node_cores: usize,
    /// RNG seed (runs are bit-for-bit reproducible per seed).
    pub seed: u64,
    /// Injected disturbances.
    pub disturbances: Vec<Disturbance>,
    /// Does nothing. A partitionable model always runs on the windowed
    /// engine; the field stays only so that existing callers that set it
    /// still compile.
    pub pin_windowed_engine: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            sample_interval: SimDuration::from_millis(100),
            duration: None,
            node_cores: 8,
            seed: 42,
            disturbances: Vec::new(),
            pin_windowed_engine: false,
        }
    }
}

/// Per-worker result: the time-interval progress log plus totals.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Node index.
    pub node: usize,
    /// Node display name.
    pub node_name: String,
    /// Process index within the node.
    pub proc: usize,
    /// `(timestamp, operations completed)` samples on the common grid.
    pub samples: Vec<(SimTime, u64)>,
    /// Total operations completed.
    pub ops_done: u64,
    /// Operations that failed (plan errors).
    pub errors: u64,
    /// When the worker finished (`None` = still running at engine stop,
    /// which cannot happen in a completed run).
    pub finished_at: Option<SimTime>,
    /// Per-operation latency distribution.
    pub latency: LatencyHistogram,
    /// RPC retransmissions this worker's operations performed (0 unless a
    /// fault plan is active).
    pub retries: u64,
    /// Failover events this worker's operations were the first to observe.
    pub failovers: u64,
}

/// The outcome of one simulated benchmark run.
#[derive(Debug, Clone)]
pub struct SimRunResult {
    /// Model name.
    pub fs_name: String,
    /// Sampling interval used.
    pub interval: SimDuration,
    /// Per-worker traces, in worker order.
    pub workers: Vec<WorkerTrace>,
    /// Virtual time when the last worker finished.
    pub wall_time: SimTime,
}

impl SimRunResult {
    /// Total operations across all workers.
    pub fn total_ops(&self) -> u64 {
        self.workers.iter().map(|w| w.ops_done).sum()
    }

    /// Total RPC retransmissions across all workers (fault injection).
    pub fn total_retries(&self) -> u64 {
        self.workers.iter().map(|w| w.retries).sum()
    }

    /// Total failover events observed across all workers.
    pub fn total_failovers(&self) -> u64 {
        self.workers.iter().map(|w| w.failovers).sum()
    }

    /// Merged per-operation latency distribution across all workers.
    pub fn latency(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for w in &self.workers {
            h.merge(&w.latency);
        }
        h
    }

    /// Stonewall average: total ops completed up to the moment the *first*
    /// worker finished, divided by that time (§3.2.5, IOzone's approach).
    pub fn stonewall_ops_per_sec(&self) -> f64 {
        let first_finish = self
            .workers
            .iter()
            .filter_map(|w| w.finished_at)
            .min()
            .unwrap_or(self.wall_time);
        let t = first_finish.as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        let total_at: u64 = self
            .workers
            .iter()
            .map(|w| {
                w.samples
                    .iter()
                    .take_while(|(ts, _)| *ts <= first_finish)
                    .map(|&(_, n)| n)
                    .last()
                    .unwrap_or(0)
            })
            .sum();
        total_at as f64 / t
    }
}

/// Telemetry span name for an operation.
pub(crate) fn op_label(op: &MetaOp) -> &'static str {
    match op {
        MetaOp::Create { .. } => "create",
        MetaOp::Mkdir { .. } => "mkdir",
        MetaOp::Unlink { .. } => "unlink",
        MetaOp::Rmdir { .. } => "rmdir",
        MetaOp::Stat { .. } => "stat",
        MetaOp::OpenClose { .. } => "open-close",
        MetaOp::Readdir { .. } => "readdir",
        MetaOp::Rename { .. } => "rename",
        MetaOp::Link { .. } => "link",
        MetaOp::Symlink { .. } => "symlink",
        MetaOp::Chmod { .. } => "chmod",
        MetaOp::Utimes { .. } => "utimes",
    }
}

/// Run one benchmark iteration on a model.
///
/// `node_names` supplies display names (hostnames) for the participating
/// nodes; `workers[i]` uses `streams[i]`.
///
/// When the model offers a [`dfs::PartitionPlan`], the run executes as one
/// domain per partition on the conservative windowed engine, on
/// [`crate::sim_threads`] OS threads — whose results are bit-identical at
/// every thread count. Each domain runs the pauses, background jobs, model
/// timer and disturbances on the servers and nodes it owns. A model that
/// keeps the default `partition() == None` executes unpartitioned, as one
/// domain that owns every resource, disturbance and timer.
///
/// # Panics
///
/// Panics if `workers` and `streams` lengths differ, if a worker references
/// a node outside `node_names`, if the model's plans reference undeclared
/// resources, or if a partitioned model declares semaphores or uses a
/// server or node its domain does not own.
pub fn run_sim(
    model: &mut dyn DistFs,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
) -> SimRunResult {
    let partition = model
        .partition(node_names.len())
        .map(|p| (p, crate::sim_threads()));
    crate::parsim::run(model, partition, node_names, workers, streams, config)
}

/// Convenience: a fixed-problem-size stream of file creations under
/// `workdir` — each worker creates `path/<f{i}>`.
pub fn create_stream(workdir: String, count: u64) -> Box<dyn OpStream> {
    Box::new(move |i: u64| {
        if i < count {
            Some(MetaOp::Create {
                path: format!("{workdir}/f{i}"),
                data_bytes: 0,
            })
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs::{LocalFs, LustreFs, NfsFs};

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("node{i}")).collect()
    }

    fn workers(nodes: usize, ppn: usize) -> Vec<WorkerSpec> {
        let mut out = Vec::new();
        for n in 0..nodes {
            for p in 0..ppn {
                out.push(WorkerSpec::new(n, p));
            }
        }
        out
    }

    fn streams_for(workers: &[WorkerSpec], count: u64) -> Vec<Box<dyn OpStream>> {
        workers
            .iter()
            .map(|w| create_stream(format!("/w/n{}p{}", w.node, w.proc), count))
            .collect()
    }

    #[test]
    fn single_worker_completes_fixed_problem() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        let st = streams_for(&ws, 500);
        let res = run_sim(&mut fs, &names(1), ws, st, &SimConfig::default());
        assert_eq!(res.total_ops(), 500);
        assert!(res.workers[0].finished_at.is_some());
        // samples monotonically non-decreasing
        let s = &res.workers[0].samples;
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 <= w[1].0));
        assert_eq!(s.last().unwrap().1, 500);
    }

    #[test]
    fn nfs_scales_with_nodes_until_saturation() {
        let throughput = |nodes: usize| {
            let mut fs = NfsFs::with_defaults();
            let ws = workers(nodes, 1);
            let st = streams_for(&ws, 2000);
            let res = run_sim(&mut fs, &names(nodes), ws, st, &SimConfig::default());
            res.stonewall_ops_per_sec()
        };
        let t1 = throughput(1);
        let t4 = throughput(4);
        let t20 = throughput(20);
        assert!(t4 > t1 * 2.5, "4 nodes ≥ 2.5× 1 node: {t1} vs {t4}");
        assert!(t20 > t4, "20 nodes beat 4: {t4} vs {t20}");
        assert!(
            t20 < t1 * 20.0 * 0.8,
            "20 nodes saturate below linear: {t1} * 20 vs {t20}"
        );
    }

    #[test]
    fn lustre_intra_node_is_flat() {
        let throughput = |ppn: usize| {
            let mut fs = LustreFs::with_defaults();
            let ws = workers(1, ppn);
            let st = streams_for(&ws, 1000);
            let res = run_sim(&mut fs, &names(1), ws, st, &SimConfig::default());
            res.stonewall_ops_per_sec()
        };
        let t1 = throughput(1);
        let t8 = throughput(8);
        assert!(
            t8 < t1 * 1.5,
            "per-node modify lock keeps intra-node flat: {t1} vs {t8}"
        );
    }

    #[test]
    fn duration_bound_ends_run() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        // unbounded stream
        let st: Vec<Box<dyn OpStream>> = vec![create_stream("/w/p0".into(), u64::MAX)];
        let mut cfg = SimConfig::default();
        cfg.duration = Some(SimDuration::from_secs(2));
        let res = run_sim(&mut fs, &names(1), ws, st, &cfg);
        assert!(res.wall_time >= SimTime::from_secs(2));
        assert!(res.wall_time < SimTime::from_millis(2100));
        assert!(res.total_ops() > 1000, "2 virtual seconds of local creates");
    }

    #[test]
    fn cpu_hog_slows_affected_node_only() {
        let run = |hog: bool| {
            let mut fs = NfsFs::with_defaults();
            let ws = workers(2, 1);
            let st = streams_for(&ws, 3000);
            let mut cfg = SimConfig::default();
            cfg.node_cores = 1;
            if hog {
                cfg.disturbances.push(Disturbance::CpuHog {
                    node: 0,
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(3600),
                    weight: 24.0,
                });
            }
            let res = run_sim(&mut fs, &names(2), ws, st, &cfg);
            (
                res.workers[0].finished_at.unwrap(),
                res.workers[1].finished_at.unwrap(),
            )
        };
        let (clean0, clean1) = run(false);
        let (hog0, hog1) = run(true);
        assert!(hog0 > clean0, "hogged node slower: {clean0} → {hog0}");
        let slowdown1 = hog1.as_secs_f64() / clean1.as_secs_f64();
        assert!(slowdown1 < 1.5, "other node barely affected: {slowdown1}");
    }

    #[test]
    fn server_pause_creates_progress_gap() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        let st = streams_for(&ws, 100_000);
        let mut cfg = SimConfig::default();
        cfg.disturbances.push(Disturbance::ServerPause {
            server: 0,
            at: SimTime::from_millis(200),
            duration: SimDuration::from_millis(500),
        });
        let res = run_sim(&mut fs, &names(1), ws, st, &cfg);
        // find progress during [200ms, 700ms): should be ~zero
        let s = &res.workers[0].samples;
        let at = |t: SimTime| {
            s.iter()
                .take_while(|(ts, _)| *ts <= t)
                .map(|&(_, n)| n)
                .last()
                .unwrap_or(0)
        };
        let before = at(SimTime::from_millis(300));
        let during = at(SimTime::from_millis(600));
        let end = at(SimTime::from_millis(1200));
        assert!(during - before <= 1, "no progress while paused");
        assert!(end > during, "progress resumes after the pause");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut fs = NfsFs::with_defaults();
            let ws = workers(3, 2);
            let st = streams_for(&ws, 500);
            run_sim(&mut fs, &names(3), ws, st, &SimConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.total_ops(), b.total_ops());
        for (wa, wb) in a.workers.iter().zip(&b.workers) {
            assert_eq!(wa.samples, wb.samples);
        }
    }

    #[test]
    fn worker_weights_shift_throughput() {
        // two workers on one single-core node with very different weights:
        // the favoured one must finish first (priority scheduling, §4.4)
        let mut fs = LocalFs::with_defaults();
        let ws = vec![
            WorkerSpec {
                node: 0,
                proc: 0,
                cpu_weight: 4.0,
            },
            WorkerSpec {
                node: 0,
                proc: 1,
                cpu_weight: 0.25,
            },
        ];
        let st = streams_for(&ws, 2000);
        let mut cfg = SimConfig::default();
        cfg.node_cores = 1;
        let res = run_sim(&mut fs, &names(1), ws, st, &cfg);
        let f0 = res.workers[0].finished_at.unwrap();
        let f1 = res.workers[1].finished_at.unwrap();
        assert!(f0 < f1, "high-priority worker finishes first: {f0} vs {f1}");
    }

    #[test]
    fn plan_error_ends_the_worker() {
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        // two creates of one path: the second fails, and re-issuing it
        // (the stream is indexed by completed ops) would spin forever
        let st: Vec<Box<dyn OpStream>> = vec![Box::new(|i: u64| {
            (i < 2).then(|| MetaOp::Create {
                path: "/w/same".into(),
                data_bytes: 0,
            })
        })];
        let res = run_sim(&mut fs, &names(1), ws, st, &SimConfig::default());
        assert_eq!(res.total_ops(), 1);
        assert_eq!(res.workers[0].errors, 1);
        assert!(res.workers[0].finished_at.is_some());
    }

    #[test]
    fn huge_duration_short_stream_finishes() {
        // the sample log is pre-sized from the duration; 1e9 s at the
        // 100 ms cadence would ask for 1e10 samples per worker
        let mut fs = LocalFs::with_defaults();
        let ws = workers(1, 1);
        let st = vec![create_stream("/w/p0".into(), 10)];
        let mut cfg = SimConfig::default();
        cfg.duration = Some(SimDuration::from_secs(1_000_000_000));
        let res = run_sim(&mut fs, &names(1), ws, st, &cfg);
        assert_eq!(res.total_ops(), 10);
        assert!(res.workers[0].finished_at.is_some());
    }
}
