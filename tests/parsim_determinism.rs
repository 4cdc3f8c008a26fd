//! The conservative parallel engine's headline invariant: a partitioned
//! run's **results and telemetry are byte-identical at every
//! `--sim-threads` value**. The domain decomposition, per-domain RNGs and
//! per-domain telemetry captures are properties of the model, not of the
//! host, so `--sim-threads 1` (the windowed algorithm on one thread) and
//! `--sim-threads {2,4,8}` must agree bit for bit.
//!
//! Uses a self-contained partitionable model (four servers, round-robin
//! per-client targeting) so most RPCs cross domains and exercise the
//! request/reply mailbox protocol, not just the local fast path. The model
//! also plans pauses and background jobs on its own servers and drives a
//! consistency-point timer per replica, and the matrix reruns it under a
//! CPU hog and a competing server load: every domain-local feature runs on
//! the domain that owns its server or node.
//!
//! The sharded MDS runs both ways: unpartitioned through the test-only
//! [`common::Unsplit`] wrapper, and on the windowed engine at every thread
//! count.

mod common;

use cluster::{run_sim, set_sim_threads, Disturbance, SimConfig, WorkerSpec};
use common::{run_on, Engine};
use dfs::{
    BackgroundJob, ClientCtx, DistFs, FsResources, MetaOp, OpPlan, PartitionPlan, ReshardAction,
    ReshardEvent, ServerId, ServerSpec, ShardMds, ShardMdsConfig, ShardPlacement, Stage,
    TimerAction,
};
use memfs::FsResult;
use simcore::{telemetry, DetRng, SimDuration, SimTime};

/// `set_sim_threads` is process-global; every test that runs the engine
/// toggles it.
static KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

const SERVERS: usize = 4;
const NODES: usize = 4;
const PROCS_PER_NODE: usize = 2;
const OPS_PER_WORKER: u64 = 60;

/// A partitionable toy model: every op is `ClientCpu → NetDelay → Server →
/// NetDelay`, with the server a pure function of `(node, proc, op index)` —
/// so a domain replica plans identically to the unsplit model for its own
/// clients, and three quarters of all RPCs target a remote domain. Creates
/// queue a write-back on an owned server, every seventh op of a worker
/// pauses one, and the timer pauses every owned server each millisecond.
struct RoundRobinFs {
    calls: std::collections::HashMap<(usize, usize), u64>,
    /// Servers this replica owns (all of them in the unsplit model).
    owned: Vec<usize>,
}

impl RoundRobinFs {
    fn new() -> Self {
        RoundRobinFs {
            calls: std::collections::HashMap::new(),
            owned: (0..SERVERS).collect(),
        }
    }
}

impl DistFs for RoundRobinFs {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: (0..SERVERS)
                .map(|i| ServerSpec {
                    name: format!("srv{i}"),
                    parallelism: 2,
                })
                .collect(),
            semaphores: Vec::new(),
        }
    }

    fn register_clients(&mut self, _nodes: usize) {}

    fn first_timer(&self) -> Option<SimTime> {
        Some(SimTime::from_micros(500))
    }

    fn on_timer(&mut self, now: SimTime) -> TimerAction {
        TimerAction {
            next: Some(now + SimDuration::from_millis(1)),
            pauses: self
                .owned
                .iter()
                .map(|&s| (ServerId(s), SimDuration::from_micros(20)))
                .collect(),
        }
    }

    fn partition(&self, nodes: usize) -> Option<PartitionPlan> {
        let domains = SERVERS.min(nodes);
        if domains < 2 {
            return None;
        }
        Some(PartitionPlan {
            server_domain: (0..SERVERS).map(|s| s % domains).collect(),
            node_domain: (0..nodes).map(|n| n % domains).collect(),
            models: (0..domains)
                .map(|d| {
                    Box::new(RoundRobinFs {
                        owned: (0..SERVERS).filter(|s| s % domains == d).collect(),
                        ..RoundRobinFs::new()
                    }) as Box<dyn DistFs>
                })
                .collect(),
            lookahead: SimDuration::from_micros(40),
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
        let server = ServerId((client.node + client.proc + *calls as usize) % SERVERS);
        let home = self.owned[(client.node + client.proc) % self.owned.len()];
        if *calls % 7 == 6 {
            out.pauses
                .push((ServerId(home), SimDuration::from_micros(30)));
        }
        *calls += 1;
        let demand = match op {
            MetaOp::Create { .. } => {
                out.background.push(BackgroundJob {
                    server: ServerId(home),
                    demand: SimDuration::from_micros(15),
                    release_sem: None,
                    label: Some("writeback"),
                });
                SimDuration::from_micros(25)
            }
            _ => SimDuration::from_micros(8),
        };
        out.stages.push(Stage::ClientCpu {
            demand: SimDuration::from_micros(3),
        });
        let delay = SimDuration::from_micros(40);
        out.push_rpc(server, demand, delay, delay);
        Ok(())
    }

    fn drop_caches(&mut self, _node: usize) {}

    fn name(&self) -> &str {
        "round-robin"
    }
}

/// A CPU hog on node 0 and a sequential-writer load on server 1, both
/// while the workers run.
fn disturbances() -> Vec<Disturbance> {
    vec![
        Disturbance::CpuHog {
            node: 0,
            start: SimTime::from_micros(500),
            end: SimTime::from_millis(3),
            weight: 32.0,
        },
        Disturbance::ServerLoad {
            server: 1,
            start: SimTime::from_millis(1),
            end: SimTime::from_millis(4),
            demand: SimDuration::from_micros(60),
            interval: SimDuration::from_micros(50),
        },
    ]
}

/// One traced run of [`RoundRobinFs`] at `--sim-threads threads` (`None` =
/// the default). Returns the run result, the Chrome trace and the
/// timeseries.
fn run_traced(threads: Option<usize>, disturbed: bool) -> (String, String, String) {
    run_traced_cfg(threads, false, disturbed)
}

/// [`run_traced`] with `SimConfig::pin_windowed_engine` set to `pin`.
fn run_traced_cfg(threads: Option<usize>, pin: bool, disturbed: bool) -> (String, String, String) {
    let disturbances = if disturbed {
        disturbances()
    } else {
        Vec::new()
    };
    set_sim_threads(threads);
    let (result, report) = telemetry::capture(|| {
        let mut model = RoundRobinFs::new();
        let node_names: Vec<String> = (0..NODES).map(|i| format!("pn{i}")).collect();
        let specs: Vec<WorkerSpec> = (0..NODES * PROCS_PER_NODE)
            .map(|w| WorkerSpec::new(w / PROCS_PER_NODE, w % PROCS_PER_NODE))
            .collect();
        let streams: Vec<Box<dyn cluster::OpStream>> = (0..specs.len())
            .map(|w| {
                Box::new(move |i: u64| {
                    if i >= OPS_PER_WORKER {
                        return None;
                    }
                    Some(match i % 3 {
                        0 => MetaOp::Create {
                            path: format!("/p/w{w}/f{i}"),
                            data_bytes: 0,
                        },
                        _ => MetaOp::Stat {
                            path: format!("/p/w{w}/f{i}"),
                        },
                    })
                }) as Box<dyn cluster::OpStream>
            })
            .collect();
        let mut cfg = SimConfig::default();
        cfg.disturbances = disturbances;
        cfg.pin_windowed_engine = pin;
        run_sim(&mut model, &node_names, specs, streams, &cfg)
    });
    set_sim_threads(None);
    (
        format!("{result:?}"),
        report.to_chrome_trace_json(),
        report.to_timeseries_json(),
    )
}

/// The whole matrix in one test body: the global `--sim-threads` knob is
/// process-wide, so the runs are sequenced explicitly rather than spread
/// over tests that could race on it. The baseline runs with the knob at
/// its default: a partitionable model runs on the windowed engine by
/// default too, and equals `--sim-threads 1` byte for byte.
#[test]
fn partitioned_runs_bit_identical_across_thread_counts() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let mut baselines = Vec::new();
    for disturbed in [false, true] {
        let baseline = run_traced(None, disturbed);

        // evidence the windowed engine actually ran by default: one trace
        // process per domain (an unpartitioned run would emit exactly one)
        assert_eq!(
            baseline.1.matches("process_name").count(),
            SERVERS,
            "expected one telemetry process per domain"
        );
        // every op completed, and the owned pauses, write-backs and timers
        // (and, disturbed, the server load) ran
        assert_eq!(
            baseline
                .0
                .matches(&format!("ops_done: {OPS_PER_WORKER},"))
                .count(),
            NODES * PROCS_PER_NODE,
            "every worker completes every op"
        );
        assert!(baseline.1.contains("\"writeback\""), "no write-back ran");
        // the plans pause 8 times per worker; the rest are timer pauses
        let plan_pauses = NODES * PROCS_PER_NODE * 8;
        assert!(
            baseline.1.matches("\"consistency-point\"").count() > plan_pauses,
            "no model timer paused a server"
        );
        assert_eq!(baseline.1.contains("\"server-load\""), disturbed);

        for threads in [1, 2, 4, 8] {
            let run = run_traced(Some(threads), disturbed);
            assert_eq!(
                baseline.0, run.0,
                "SimRunResult differs between the default and --sim-threads \
                 {threads} (disturbed: {disturbed})"
            );
            assert_eq!(
                baseline.1, run.1,
                "Chrome trace differs between the default and --sim-threads \
                 {threads} (disturbed: {disturbed})"
            );
            assert_eq!(
                baseline.2, run.2,
                "timeseries differs between the default and --sim-threads \
                 {threads} (disturbed: {disturbed})"
            );
        }
        baselines.push(baseline);
    }
    assert_ne!(
        baselines[0].0, baselines[1].0,
        "the hog and the load change the run"
    );
}

/// `SimConfig::pin_windowed_engine` is kept only so that callers which set
/// it still compile: setting it changes nothing, with the knob unset or
/// set, and the run is byte-identical to `--sim-threads 1`.
#[test]
fn pin_windowed_engine_matches_sim_threads_1() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let explicit = run_traced_cfg(Some(1), false, false);
    let pinned = run_traced_cfg(None, true, false);
    assert_eq!(
        pinned.1.matches("process_name").count(),
        SERVERS,
        "a pinned run must still run on the windowed engine"
    );
    assert_eq!(explicit.0, pinned.0);
    assert_eq!(explicit.1, pinned.1);
    assert_eq!(explicit.2, pinned.2);
    let both = run_traced_cfg(Some(4), true, false);
    assert_eq!(explicit.0, both.0);
    assert_eq!(explicit.1, both.1);
    assert_eq!(explicit.2, both.2);
}

/// The sharded MDS service under a live migration schedule on `engine`:
/// unpartitioned, as one domain, or one domain per shard group on the
/// windowed engine. Returns the result, the Chrome trace, the migration
/// count and the metrics summary.
fn run_shardmds(engine: Engine) -> (String, String, u64, String) {
    let (result, report) = telemetry::capture(|| {
        let model = ShardMds::new(ShardMdsConfig {
            shards: 4,
            placement: ShardPlacement::Subtree,
            table: vec![("/".to_owned(), 0), ("/hot".to_owned(), 1)],
            // early enough that every event fires while traffic is live
            // (plans stop arriving a little before the ~45 ms makespan)
            reshard: vec![
                ReshardEvent {
                    at: SimTime::from_millis(10),
                    action: ReshardAction::Assign {
                        prefix: "/hot/sub0".to_owned(),
                        to: 2,
                    },
                },
                ReshardEvent {
                    at: SimTime::from_millis(20),
                    action: ReshardAction::Assign {
                        prefix: "/hot/sub1".to_owned(),
                        to: 3,
                    },
                },
                ReshardEvent {
                    at: SimTime::from_millis(30),
                    action: ReshardAction::Remove {
                        prefix: "/hot/sub0".to_owned(),
                    },
                },
            ],
            ..ShardMdsConfig::default()
        });
        let node_names: Vec<String> = (0..NODES).map(|i| format!("pn{i}")).collect();
        let specs: Vec<WorkerSpec> = (0..NODES * PROCS_PER_NODE)
            .map(|w| WorkerSpec::new(w / PROCS_PER_NODE, w % PROCS_PER_NODE))
            .collect();
        let streams: Vec<Box<dyn cluster::OpStream>> = (0..specs.len())
            .map(|w| {
                Box::new(move |i: u64| {
                    if i >= OPS_PER_WORKER {
                        return None;
                    }
                    // skewed mix: most traffic hammers the migrating /hot
                    // subtrees, the rest spreads over per-worker directories
                    Some(if !i.is_multiple_of(3) {
                        MetaOp::Create {
                            path: format!("/hot/sub{}/w{w}f{i}", i % 2),
                            data_bytes: 0,
                        }
                    } else {
                        MetaOp::Stat {
                            path: format!("/p/w{w}/f{i}"),
                        }
                    })
                }) as Box<dyn cluster::OpStream>
            })
            .collect();
        let cfg = SimConfig::default();
        run_on(engine, model, &node_names, specs, streams, &cfg).0
    });
    let migrations = report.counter("shardmds.migrations");
    (
        format!("{result:?}"),
        report.to_chrome_trace_json(),
        migrations,
        report.to_metrics_json(),
    )
}

/// The sharded model's determinism matrix: the unpartitioned run and the
/// partitioned run at every thread count agree on the run result, and the
/// partitioned run's telemetry is byte-identical at every thread count —
/// its metrics summary included, which carries the window statistics.
#[test]
fn shardmds_bit_identical_across_engines_and_thread_counts() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let unpartitioned = run_shardmds(Engine::Unsplit);
    let windowed = run_shardmds(Engine::Windowed(1));
    assert_eq!(
        unpartitioned.0, windowed.0,
        "unpartitioned and partitioned runs disagree on the shardmds run"
    );
    // each engine really ran: one telemetry process per domain
    assert_eq!(unpartitioned.1.matches("process_name").count(), 1);
    assert_eq!(windowed.1.matches("process_name").count(), 4);
    // and the schedule really migrated under live traffic, including
    // cross-domain referral hops, on both paths
    assert!(
        unpartitioned.2 > 0,
        "no lazy migrations fired — schedule too late?"
    );
    assert_eq!(unpartitioned.2, windowed.2);
    assert!(
        windowed.3.contains("\"par.windows\"") && windowed.3.contains("\"par.messages\""),
        "the windowed run records its window statistics"
    );
    for threads in [2, 4, 8] {
        let run = run_shardmds(Engine::Windowed(threads));
        assert_eq!(
            windowed.0, run.0,
            "shardmds result differs between --sim-threads 1 and {threads}"
        );
        assert_eq!(
            windowed.1, run.1,
            "shardmds trace differs between --sim-threads 1 and {threads}"
        );
        assert_eq!(
            windowed.3, run.3,
            "shardmds metrics differ between --sim-threads 1 and {threads}"
        );
    }
}

/// One run of a hash-placed `ShardMds` whose model was used before the
/// run, as the prepare phase of `Runner::run_one_sim` uses it: every
/// worker creates its files unmeasured at t = 0, warming its node's
/// location cache, and the measured run stats them, with every fifth op a
/// create in one of three directories of its own that no node has seen.
/// Directories are per node, so same-instant arrivals never queue at a
/// shard, where the two engines may break the tie differently. Returns the
/// run result and the model's `lookups()` and `placement_rpcs()` after the
/// run.
fn run_prepared_shardmds(engine: Engine) -> (String, u64, u64) {
    const FILES: u64 = 50;
    let mut model = ShardMds::new(ShardMdsConfig {
        shards: 4,
        ..ShardMdsConfig::default()
    });
    let node_names: Vec<String> = (0..NODES).map(|i| format!("pn{i}")).collect();
    let specs: Vec<WorkerSpec> = (0..NODES).map(|n| WorkerSpec::new(n, 0)).collect();
    model.register_clients(NODES);
    let mut rng = DetRng::new(7);
    let mut plan = OpPlan::default();
    for spec in &specs {
        for i in 0..FILES {
            let op = MetaOp::Create {
                path: format!("/bench/n{}/f{i}", spec.node),
                data_bytes: 0,
            };
            let client = ClientCtx {
                node: spec.node,
                proc: spec.proc,
            };
            model
                .plan_into(client, &op, SimTime::ZERO, &mut rng, &mut plan)
                .expect("prepare op plans");
        }
    }
    let streams: Vec<Box<dyn cluster::OpStream>> = specs
        .iter()
        .map(|spec| {
            let node = spec.node;
            Box::new(move |i: u64| {
                (i < 4 * FILES).then(|| {
                    if i % 5 == 4 {
                        MetaOp::Create {
                            path: format!("/fresh/n{node}d{}/f{i}", i % 3),
                            data_bytes: 0,
                        }
                    } else {
                        MetaOp::Stat {
                            path: format!("/bench/n{node}/f{}", i % FILES),
                        }
                    }
                })
            }) as Box<dyn cluster::OpStream>
        })
        .collect();
    let cfg = SimConfig::default();
    let (result, model) = run_on(engine, model, &node_names, specs, streams, &cfg);
    (
        format!("{result:?}"),
        model.lookups(),
        model.placement_rpcs(),
    )
}

/// A model used before a partitioned run hands its state to the domain
/// replicas, and the replicas hand theirs back: a prepared model gives the
/// unpartitioned run result and counters at every thread count.
#[test]
fn prepared_shardmds_matches_unpartitioned_run() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let unpartitioned = run_prepared_shardmds(Engine::Unsplit);
    let prepare_ops = NODES as u64 * 50;
    let measured_ops = NODES as u64 * 200;
    assert_eq!(unpartitioned.1, prepare_ops + measured_ops);
    for threads in [1, 2, 4] {
        let run = run_prepared_shardmds(Engine::Windowed(threads));
        assert_eq!(
            unpartitioned.0, run.0,
            "run result differs at --sim-threads {threads}"
        );
        assert_eq!(
            unpartitioned.1, run.1,
            "lookups() differs at --sim-threads {threads}"
        );
        assert_eq!(
            unpartitioned.2, run.2,
            "placement_rpcs() differs at --sim-threads {threads}"
        );
    }
}
