//! The layer split, measured from outside the simulator.
//!
//! The engines already open `simcore::prof` scopes around every scheduler
//! pop (`sched.pop`) and every dispatched event (`engine.*`, `parsim.*`).
//! The traced rep adds two wrappers at public call boundaries, recorded in
//! the same registry: [`Timed`] around the model (`dfs.plan`, `dfs.timer`)
//! and [`TimedStream`] around each worker's op stream (`core.stream`). Model
//! planning and stream calls happen inside event dispatch, so the engine's
//! own time is the dispatch scopes minus those two; `sched.pop` sits
//! outside dispatch and is counted once.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use cluster::OpStream;
use dfs::{ClientCtx, DistFs, FsResources, MetaOp, OpPlan, PartitionPlan, ServerId, TimerAction};
use memfs::FsResult;
use simcore::{prof, DetRng, SimTime};

use crate::alloc;

static PLAN_ERRORS: AtomicU64 = AtomicU64::new(0);
static PLAN_ALLOCS: AtomicU64 = AtomicU64::new(0);
static STREAM_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Allocation and error counts the wrappers collected since [`reset`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `plan`/`plan_into` calls that returned an error.
    pub plan_errors: u64,
    /// Allocations made inside `plan`/`plan_into`.
    pub plan_allocs: u64,
    /// Allocations made inside `next_op`.
    pub stream_allocs: u64,
}

/// Zero the wrapper counters.
pub fn reset() {
    for c in [&PLAN_ERRORS, &PLAN_ALLOCS, &STREAM_ALLOCS] {
        c.store(0, Relaxed);
    }
}

/// Read the wrapper counters.
pub fn counts() -> Counts {
    Counts {
        plan_errors: PLAN_ERRORS.load(Relaxed),
        plan_allocs: PLAN_ALLOCS.load(Relaxed),
        stream_allocs: STREAM_ALLOCS.load(Relaxed),
    }
}

/// Run `f` under the profiling scope `name`, charging the allocations it
/// makes on this thread to `allocs`.
fn timed<R>(name: &'static str, allocs: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let _scope = prof::scope(name);
    let before = alloc::thread_count();
    let r = f();
    allocs.fetch_add(alloc::thread_count() - before, Relaxed);
    r
}

fn timed_plan<R>(f: impl FnOnce() -> FsResult<R>) -> FsResult<R> {
    let r = timed("dfs.plan", &PLAN_ALLOCS, f);
    if r.is_err() {
        PLAN_ERRORS.fetch_add(1, Relaxed);
    }
    r
}

/// A model decorator that forwards every [`DistFs`] method and times
/// planning and timers. Partition replicas are wrapped too, so windowed
/// runs are covered on every domain.
pub struct Timed(Box<dyn DistFs>);

impl Timed {
    /// Wrap a model.
    pub fn wrap(model: Box<dyn DistFs>) -> Box<dyn DistFs> {
        Box::new(Timed(model))
    }
}

impl DistFs for Timed {
    fn resources(&self) -> FsResources {
        self.0.resources()
    }

    fn register_clients(&mut self, nodes: usize) {
        self.0.register_clients(nodes);
    }

    fn plan(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        timed_plan(|| self.0.plan(client, op, now, rng))
    }

    fn plan_into(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        timed_plan(|| self.0.plan_into(client, op, now, rng, out))
    }

    fn first_timer(&self) -> Option<SimTime> {
        self.0.first_timer()
    }

    fn on_timer(&mut self, now: SimTime) -> TimerAction {
        let _scope = prof::scope("dfs.timer");
        self.0.on_timer(now)
    }

    fn on_background_complete(&mut self, server: ServerId, now: SimTime) {
        self.0.on_background_complete(server, now);
    }

    fn sample_gauges(&self, emit: &mut dyn FnMut(&'static str, u64)) {
        self.0.sample_gauges(emit);
    }

    fn partition(&self, nodes: usize) -> Option<PartitionPlan> {
        let mut plan = self.0.partition(nodes)?;
        plan.models = plan.models.into_iter().map(Timed::wrap).collect();
        Some(plan)
    }

    fn drop_caches(&mut self, node: usize) {
        self.0.drop_caches(node);
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// An op-stream decorator that times `next_op`.
pub struct TimedStream(Box<dyn OpStream>);

impl TimedStream {
    /// Wrap a stream.
    pub fn wrap(stream: Box<dyn OpStream>) -> Box<dyn OpStream> {
        Box::new(TimedStream(stream))
    }
}

impl OpStream for TimedStream {
    fn next_op(&mut self, index: u64) -> Option<MetaOp> {
        timed("core.stream", &STREAM_ALLOCS, || self.0.next_op(index))
    }
}
