//! Structured errors for the partitioned-mode restrictions: a model that
//! offers a `partition()` but then uses a feature that couples domains must
//! fail a `--sim-threads` run with a [`cluster::PartitionUnsupported`]
//! naming the model and the feature — not an `assert!` deep inside the
//! engine (or a hang of the sibling window threads).
//!
//! One test per restricted feature: declared semaphores, semaphore stages,
//! pauses, background jobs, disturbances, model timers. Each also runs the
//! same model unpartitioned, as one domain, where every feature works.

use cluster::{
    run_sim_checked, set_sim_threads, sim_threads, Disturbance, OpStream, PartitionUnsupported,
    PartitionedFeature, SimConfig, SimRunResult, WorkerSpec,
};
use dfs::{
    BackgroundJob, ClientCtx, DistFs, FsResources, MetaOp, OpPlan, PartitionPlan, SemId, SemSpec,
    ServerId, ServerSpec, Stage, TimerAction,
};
use memfs::FsResult;
use simcore::{DetRng, SimDuration, SimTime};

const SERVERS: usize = 2;
const NODES: usize = 2;
const OPS_PER_WORKER: u64 = 10;

/// Which restricted feature the toy model should exercise.
#[derive(Clone, Copy, PartialEq)]
enum Misfeature {
    None,
    DeclareSemaphores,
    SemStages,
    Pauses,
    Background,
    Timers,
}

/// A minimal partitionable model (two servers, server = client node) with
/// one deliberately unsupported feature injected.
struct Misbehaving {
    misfeature: Misfeature,
}

impl DistFs for Misbehaving {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: (0..SERVERS)
                .map(|i| ServerSpec {
                    name: format!("srv{i}"),
                    parallelism: 1,
                })
                .collect(),
            // Semaphore stages need the semaphore declared to run. A
            // partitioned run must get past the up-front `Semaphores` check
            // to reach the stage check, so there it stays undeclared.
            semaphores: if self.misfeature == Misfeature::DeclareSemaphores
                || (self.misfeature == Misfeature::SemStages && sim_threads().is_none())
            {
                vec![SemSpec {
                    name: "global-lock".into(),
                    permits: 1,
                }]
            } else {
                Vec::new()
            },
        }
    }

    fn register_clients(&mut self, _nodes: usize) {}

    fn first_timer(&self) -> Option<SimTime> {
        (self.misfeature == Misfeature::Timers).then(|| SimTime::from_micros(100))
    }

    fn on_timer(&mut self, _now: SimTime) -> TimerAction {
        TimerAction::default()
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
                .map(|_| {
                    Box::new(Misbehaving {
                        misfeature: self.misfeature,
                    }) as Box<dyn DistFs>
                })
                .collect(),
            lookahead: SimDuration::from_micros(40),
        })
    }

    fn plan(
        &mut self,
        client: ClientCtx,
        _op: &MetaOp,
        _now: SimTime,
        _rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        let server = ServerId(client.node % SERVERS);
        let mut stages = vec![
            Stage::NetDelay {
                delay: SimDuration::from_micros(40),
            },
            Stage::Server {
                server,
                demand: SimDuration::from_micros(10),
            },
            Stage::NetDelay {
                delay: SimDuration::from_micros(40),
            },
        ];
        let mut plan = OpPlan::default();
        match self.misfeature {
            Misfeature::SemStages => {
                stages.insert(0, Stage::AcquireSem { sem: SemId(0) });
                stages.push(Stage::ReleaseSem { sem: SemId(0) });
            }
            Misfeature::Pauses => {
                plan.pauses.push((server, SimDuration::from_micros(5)));
            }
            Misfeature::Background => {
                plan.background.push(BackgroundJob {
                    server,
                    demand: SimDuration::from_micros(5),
                    release_sem: None,
                    label: None,
                });
            }
            _ => {}
        }
        plan.stages = stages;
        Ok(plan)
    }

    fn drop_caches(&mut self, _node: usize) {}

    fn name(&self) -> &str {
        "misbehaving"
    }
}

/// `set_sim_threads` is process-global; serialize every test that toggles
/// it so the harness's default test parallelism cannot race the knob.
static KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn try_run(
    misfeature: Misfeature,
    disturbed: bool,
    threads: Option<usize>,
) -> Result<SimRunResult, PartitionUnsupported> {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    set_sim_threads(threads);
    let mut model = Misbehaving { misfeature };
    let node_names: Vec<String> = (0..NODES).map(|i| format!("n{i}")).collect();
    let workers: Vec<WorkerSpec> = (0..NODES).map(|n| WorkerSpec::new(n, 0)).collect();
    let streams: Vec<Box<dyn OpStream>> = (0..NODES)
        .map(|w| {
            Box::new(move |i: u64| {
                (i < OPS_PER_WORKER).then(|| MetaOp::Stat {
                    path: format!("/d/w{w}/f{i}"),
                })
            }) as Box<dyn OpStream>
        })
        .collect();
    let mut config = SimConfig::default();
    if disturbed {
        config.disturbances.push(Disturbance::CpuHog {
            node: 0,
            start: SimTime::from_micros(1),
            end: SimTime::from_micros(50),
            weight: 2.0,
        });
    }
    let out = run_sim_checked(&mut model, &node_names, workers, streams, &config);
    set_sim_threads(None);
    out
}

/// The partitioned run is refused with `feature`; the same run
/// unpartitioned, as one domain, completes every operation.
fn expect_feature(misfeature: Misfeature, disturbed: bool, feature: PartitionedFeature) {
    let err = try_run(misfeature, disturbed, Some(2))
        .expect_err("the windowed engine must refuse this run");
    assert_eq!(err.feature, feature, "wrong restriction reported: {err}");
    assert_eq!(err.model, "misbehaving");
    let msg = err.to_string();
    assert!(
        msg.contains("rerun without --sim-threads to run the model unpartitioned, as one domain"),
        "error must carry the rerun hint: {msg}"
    );
    expect_complete(misfeature, disturbed);
}

fn expect_complete(misfeature: Misfeature, disturbed: bool) {
    let result = try_run(misfeature, disturbed, None).expect("one domain runs every feature");
    assert_eq!(result.total_ops(), NODES as u64 * OPS_PER_WORKER);
    assert!(result
        .workers
        .iter()
        .all(|w| w.errors == 0 && w.finished_at.is_some()));
}

#[test]
fn clean_partitionable_model_runs() {
    let result = try_run(Misfeature::None, false, Some(2)).expect("no restriction fires");
    assert_eq!(result.total_ops(), NODES as u64 * OPS_PER_WORKER);
    expect_complete(Misfeature::None, false);
}

#[test]
fn declared_semaphores_are_refused() {
    expect_feature(
        Misfeature::DeclareSemaphores,
        false,
        PartitionedFeature::Semaphores,
    );
}

#[test]
fn semaphore_stages_are_refused() {
    expect_feature(
        Misfeature::SemStages,
        false,
        PartitionedFeature::SemaphoreStages,
    );
}

#[test]
fn pauses_are_refused() {
    expect_feature(
        Misfeature::Pauses,
        false,
        PartitionedFeature::PausesOrBackground,
    );
}

#[test]
fn background_jobs_are_refused() {
    expect_feature(
        Misfeature::Background,
        false,
        PartitionedFeature::PausesOrBackground,
    );
}

#[test]
fn disturbances_are_refused() {
    expect_feature(Misfeature::None, true, PartitionedFeature::Disturbances);
}

#[test]
fn model_timers_are_refused() {
    expect_feature(Misfeature::Timers, false, PartitionedFeature::ModelTimers);
}

/// The infallible `run_sim` panics with the structured error as payload, so
/// suite scenarios fail with the full message (not a bare "Box<dyn Any>").
#[test]
fn run_sim_panics_with_the_structured_payload() {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    set_sim_threads(Some(2));
    let payload = std::panic::catch_unwind(|| {
        let mut model = Misbehaving {
            misfeature: Misfeature::SemStages,
        };
        let node_names: Vec<String> = (0..NODES).map(|i| format!("n{i}")).collect();
        let workers: Vec<WorkerSpec> = (0..NODES).map(|n| WorkerSpec::new(n, 0)).collect();
        let streams: Vec<Box<dyn OpStream>> = (0..NODES)
            .map(|w| {
                Box::new(move |i: u64| {
                    (i < 4).then(|| MetaOp::Stat {
                        path: format!("/d/w{w}/f{i}"),
                    })
                }) as Box<dyn OpStream>
            })
            .collect();
        cluster::run_sim(
            &mut model,
            &node_names,
            workers,
            streams,
            &SimConfig::default(),
        )
    })
    .expect_err("run_sim must panic on a restricted feature");
    set_sim_threads(None);
    let err = payload
        .downcast_ref::<PartitionUnsupported>()
        .expect("payload is the structured error");
    assert_eq!(err.feature, PartitionedFeature::SemaphoreStages);
}
