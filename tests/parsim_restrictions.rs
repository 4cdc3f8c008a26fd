//! The two things a partitioned model may not do, and the panic that names
//! the broken rule when it does: declare a semaphore (no domain can own
//! one), and pause a server its domain does not own. Each test also runs
//! the same model unpartitioned, as one domain, where both are allowed and
//! every operation completes (through the test-only [`common::Unsplit`]
//! wrapper, since a partitionable model otherwise always runs partitioned).
//!
//! Everything a domain owns runs; that side of the contract is checked by
//! the `--sim-threads` matrix in `tests/parsim_determinism.rs`.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use cluster::{set_sim_threads, OpStream, SimConfig, SimRunResult, WorkerSpec};
use common::{run_on, Engine};
use dfs::{
    ClientCtx, DistFs, FsResources, MetaOp, OpPlan, PartitionPlan, SemSpec, ServerId, ServerSpec,
};
use memfs::FsResult;
use simcore::{DetRng, SimDuration, SimTime};

const SERVERS: usize = 2;
const NODES: usize = 2;
const OPS_PER_WORKER: u64 = 10;

/// Which rule of the partition contract the toy model breaks.
#[derive(Clone, Copy, PartialEq)]
enum Breach {
    /// Declare a semaphore.
    Semaphore,
    /// Pause the server of the other domain.
    ForeignPause,
    /// Pause the domain's own server, which is allowed.
    OwnPause,
}

/// A minimal partitionable model: two servers, server `i` and node `i` in
/// domain `i`, every op one RPC to the client node's own server.
struct Breaching {
    breach: Breach,
}

impl DistFs for Breaching {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: (0..SERVERS)
                .map(|i| ServerSpec {
                    name: format!("srv{i}"),
                    parallelism: 1,
                })
                .collect(),
            semaphores: if self.breach == Breach::Semaphore {
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
                    Box::new(Breaching {
                        breach: self.breach,
                    }) as Box<dyn DistFs>
                })
                .collect(),
            lookahead: SimDuration::from_micros(40),
        })
    }

    fn plan_into(
        &mut self,
        client: ClientCtx,
        _op: &MetaOp,
        _now: SimTime,
        _rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        let server = ServerId(client.node % SERVERS);
        let delay = SimDuration::from_micros(40);
        out.push_rpc(server, SimDuration::from_micros(10), delay, delay);
        let paused = match self.breach {
            Breach::Semaphore => None,
            Breach::ForeignPause => Some(ServerId((client.node + 1) % SERVERS)),
            Breach::OwnPause => Some(server),
        };
        if let Some(paused) = paused {
            out.pauses.push((paused, SimDuration::from_micros(5)));
        }
        Ok(())
    }

    fn drop_caches(&mut self, _node: usize) {}

    fn name(&self) -> &str {
        "breaching"
    }
}

/// `set_sim_threads` is process-global; serialize every test that toggles
/// it so the harness's default test parallelism cannot race the knob.
static KNOB: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs the model on `engine`. A panic in the run comes back as its
/// message.
fn try_run(breach: Breach, engine: Engine) -> Result<SimRunResult, String> {
    let _serial = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let out = catch_unwind(AssertUnwindSafe(|| {
        let model = Breaching { breach };
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
        let cfg = SimConfig::default();
        run_on(engine, model, &node_names, workers, streams, &cfg).0
    }));
    // a panicking windowed run leaves the knob set
    set_sim_threads(None);
    out.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

fn expect_complete(breach: Breach, engine: Engine) {
    let result = try_run(breach, engine).expect("the run completes");
    assert_eq!(result.total_ops(), NODES as u64 * OPS_PER_WORKER);
    assert!(result
        .workers
        .iter()
        .all(|w| w.errors == 0 && w.finished_at.is_some()));
}

/// No domain can own a semaphore, so a partitioned model that declares one
/// is refused with a panic naming the model and the rule.
#[test]
fn declared_semaphores_are_refused() {
    let msg = try_run(Breach::Semaphore, Engine::Windowed(2))
        .expect_err("a partitioned model declaring a semaphore must be refused");
    assert!(
        msg.contains(
            "partitioned model 'breaching' declares semaphores: no domain can own a \
             semaphore, so a partitioned model may declare none"
        ),
        "panic must name the model and the rule: {msg}"
    );
    expect_complete(Breach::Semaphore, Engine::Unsplit);
}

/// A pause on a server of another domain is refused with a panic naming the
/// domain, the server and the rule; a pause on the domain's own server runs.
#[test]
fn pauses_are_refused() {
    let msg = try_run(Breach::ForeignPause, Engine::Windowed(2))
        .expect_err("a pause on a server the domain does not own must be refused");
    assert!(
        msg.contains(
            "which it does not own: a domain may pause, load or queue only on servers it owns"
        ),
        "panic must name the rule: {msg}"
    );
    assert!(msg.contains("domain "), "panic must name the domain: {msg}");
    expect_complete(Breach::ForeignPause, Engine::Unsplit);
    expect_complete(Breach::OwnPause, Engine::Windowed(2));
}
