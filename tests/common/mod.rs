//! The unpartitioned reference run that the engine-against-engine tests
//! compare the windowed engine with.
//!
//! `run_sim` runs a model on the windowed engine whenever
//! [`DistFs::partition`] returns a plan, whatever `--sim-threads` says. A
//! test that wants the same model unpartitioned, as one domain, runs it
//! through [`Unsplit`], which hides the plan.

use cluster::{run_sim, set_sim_threads, OpStream, SimConfig, SimRunResult, WorkerSpec};
use dfs::{ClientCtx, DistFs, FsResources, MetaOp, OpPlan, ServerId, TimerAction};
use memfs::FsResult;
use simcore::{DetRng, SimTime};

/// A model that never partitions: every [`DistFs`] method except
/// `partition` (left at the default `None`) and `rejoin` goes to the inner
/// model, which stays reachable as `.0` for its getters.
pub struct Unsplit<M>(pub M);

impl<M: DistFs> DistFs for Unsplit<M> {
    fn resources(&self) -> FsResources {
        self.0.resources()
    }

    fn register_clients(&mut self, nodes: usize) {
        self.0.register_clients(nodes);
    }

    fn plan_into(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        self.0.plan_into(client, op, now, rng, out)
    }

    fn plan(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        self.0.plan(client, op, now, rng)
    }

    fn first_timer(&self) -> Option<SimTime> {
        self.0.first_timer()
    }

    fn on_timer(&mut self, now: SimTime) -> TimerAction {
        self.0.on_timer(now)
    }

    fn on_background_complete(&mut self, server: ServerId, now: SimTime) {
        self.0.on_background_complete(server, now);
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        self.0.sample_gauges(emit);
    }

    fn drop_caches(&mut self, node: usize) {
        self.0.drop_caches(node);
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The engine a test run asks for.
#[derive(Clone, Copy, Debug)]
pub enum Engine {
    /// The unpartitioned reference: the model runs through [`Unsplit`].
    Unsplit,
    /// The windowed engine on this many OS threads.
    Windowed(usize),
}

/// `run_sim` on `engine`; gives the model back for its getters. The
/// `--sim-threads` knob is process-wide and is back at its default when
/// this returns.
pub fn run_on<M: DistFs>(
    engine: Engine,
    model: M,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
) -> (SimRunResult, M) {
    match engine {
        Engine::Unsplit => {
            let mut unsplit = Unsplit(model);
            let result = run_sim(&mut unsplit, node_names, workers, streams, config);
            (result, unsplit.0)
        }
        Engine::Windowed(threads) => {
            let mut model = model;
            set_sim_threads(Some(threads));
            let result = run_sim(&mut model, node_names, workers, streams, config);
            set_sim_threads(None);
            (result, model)
        }
    }
}
