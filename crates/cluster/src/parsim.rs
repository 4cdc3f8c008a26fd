//! The discrete-event engine behind [`run_sim`](crate::run_sim).
//!
//! Every run executes on [`Domain`]s. A domain owns a timer-wheel
//! [`Scheduler`], a model, the FIFO stations of its servers, the
//! processor-sharing CPUs of its client nodes and a [`DetRng`], and it
//! executes the stage plans its model compiles. There are two ways to drive
//! domains:
//!
//! * **Unpartitioned** — the path of every model that declines
//!   [`DistFs::partition`]. One domain owns every server, CPU and
//!   semaphore, and a plain `pop → dispatch` loop runs it until the last
//!   worker finishes.
//! * **Partitioned** — the path of every model that offers a domain
//!   decomposition ([`dfs::PartitionPlan`]): disjoint server groups and
//!   client nodes that interact only through the network. Each domain runs
//!   inside the synchronized lookahead windows of [`simcore::par`], on
//!   `--sim-threads` OS threads (default 1). Cross-domain RPCs travel as
//!   mailbox messages: the client domain converts a `NetDelay →
//!   Server(remote) → NetDelay` stage triple into a request message that
//!   lands on the server domain one network latency later (≥ the lookahead,
//!   by construction), and the reply message resumes the worker the same
//!   way. When the run ends, the domain replicas go back to the caller's
//!   model through [`DistFs::rejoin`].
//!
//! # Determinism
//!
//! Everything that could depend on interleaving is per-domain:
//!
//! * each domain owns a scheduler, its servers' FIFO queues, its nodes'
//!   CPUs, a model replica, and a [`DetRng`] derived purely from
//!   `(config.seed, domain index)` — never by drawing from a shared stream;
//! * mailbox drains are canonically ordered by `simcore::par`;
//! * telemetry is recorded into per-domain [`telemetry::ThreadCapture`]s
//!   (installed around every window by whichever thread executes it) and
//!   absorbed into the caller's capture in ascending domain order, followed
//!   by the run's [`par::WindowStats`] as the counters `par.windows` and
//!   `par.messages`.
//!
//! `--sim-threads 1` (the default) therefore runs the *same* windowed
//! algorithm — just on one thread — and produces byte-identical results,
//! traces, metrics and timeseries to `--sim-threads N` (pinned by
//! `tests/parsim_determinism.rs`).
//! An unpartitioned run seeds its one domain with `DetRng::new(config.seed)`
//! and records straight into the caller's capture.
//!
//! # Scope of partitioned runs
//!
//! One ownership rule covers every feature: a domain may pause, load or
//! queue only on servers it owns, and may run client work and CPU hogs only
//! on nodes it owns. Whatever a domain owns just runs — the pauses and
//! background jobs its replica plans, its replica's model timer, and the
//! [`Disturbance`]s on its nodes and servers (each is scheduled only in its
//! owner's domain). The one thing no domain can own is a semaphore, so a
//! partitioned model may declare none. A broken rule is a model bug, and
//! the run panics with a message naming the domain, the resource and the
//! rule.
//!
//! A domain's periodic events (progress samples, model timers, load
//! injections) stop once *its own* workers have finished, as the
//! unpartitioned loop stops once every worker has; a partitioned domain
//! cannot see whether other domains' workers still run.

use std::sync::atomic::{AtomicUsize, Ordering};

use dfs::{BackgroundJob, ClientCtx, DistFs, OpPlan, PartitionPlan, Stage};
use simcore::par::{self, Envelope, Outbox, WindowDomain};
use simcore::{
    prof, telemetry, DetRng, EventId, FifoResource, JobId, LatencyHistogram, PsResource, Scheduler,
    Semaphore, SimDuration, SimTime,
};

use crate::simengine::{
    op_label, Disturbance, OpStream, SimConfig, SimRunResult, WorkerSpec, WorkerTrace,
};

/// `--sim-threads`: how many OS threads run a partitioned model's domains.
static SIM_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set how many OS threads run the domains of a partitioned model on the
/// conservative windowed engine; `None` restores the default, 1. The
/// domain set is the model's, so results are bit-identical at every
/// setting. Process-wide, read at each `run_sim` call.
pub fn set_sim_threads(threads: Option<usize>) {
    SIM_THREADS.store(threads.unwrap_or(1).max(1), Ordering::Relaxed);
}

/// The current `--sim-threads` setting (default 1).
#[must_use]
pub fn sim_threads() -> usize {
    SIM_THREADS.load(Ordering::Relaxed)
}

/// Derive domain `d`'s RNG purely from the run seed — no draws from a
/// parent stream, so the derivation is identical at every thread count.
fn domain_rng(seed: u64, domain: usize) -> DetRng {
    DetRng::new(seed ^ (domain as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

// Job-id ranges. Ids below `BG_BASE` are domain-local worker indices;
// background jobs (model write-backs and `ServerLoad` injections), CPU hogs
// and remote-request proxies each own a disjoint range above it.
const BG_BASE: u64 = 1 << 40;
const HOG_BASE: u64 = 1 << 41;
const REMOTE_BASE: u64 = 1 << 42;

/// Most samples a worker's log is pre-sized for: 409.6 s at the default
/// 100 ms cadence. No registered scenario pre-sizes more than 602.
const SAMPLE_PRESIZE_CAP: u64 = 4096;

/// Jobs in flight, slab-allocated: a job's id is its range base plus its
/// slot, and slots are recycled as soon as the job's (exactly-once)
/// completion takes it, so steady-state churn neither hashes nor allocates.
/// Id reuse is safe because these ids only identify FIFO-queue entries
/// (queue order, not id order, decides service) and at most one live job
/// holds a slot at a time.
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, job: T) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(job);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("job slab overflow");
                self.slots.push(Some(job));
                slot
            }
        }
    }

    fn get(&self, slot: u32) -> &T {
        self.slots[slot as usize].as_ref().expect("live slab job")
    }

    fn take(&mut self, slot: u32) -> Option<T> {
        let job = self.slots.get_mut(slot as usize)?.take();
        if job.is_some() {
            self.free.push(slot);
        }
        job
    }
}

/// A cross-domain message.
enum Msg {
    /// An RPC request entering the server's domain. `deliver_at` of the
    /// envelope is the arrival instant (send time + request latency).
    Req {
        /// Global server index.
        server: usize,
        /// Service demand at the server.
        demand: SimDuration,
        /// Response network latency, applied after service completes.
        resp_delay: SimDuration,
        /// Global worker index awaiting the reply.
        worker: usize,
    },
    /// The RPC response re-entering the client's domain; resumes the worker.
    Reply {
        /// Global worker index.
        worker: usize,
    },
}

/// A remote request being served in this domain, slab-indexed by proxy job.
struct RemoteJob {
    server: usize,
    demand: SimDuration,
    resp_delay: SimDuration,
    worker: usize,
}

/// The in-flight remote RPC of a local worker (the intercepted
/// `NetDelay → Server → NetDelay` stage run).
struct RemoteRpc {
    /// Stages consumed by the interception (2 without a trailing NetDelay,
    /// 3 with).
    skip: usize,
    req_ns: u64,
    resp_ns: u64,
    demand_ns: u64,
}

#[derive(Debug)]
enum Ev {
    /// Start all local workers (the t = 0 MPI barrier, §3.3.3).
    Kick,
    StageCompleted {
        job: JobId,
    },
    CpuDone {
        node: usize,
        generation: u64,
    },
    ServerDone {
        server: usize,
        job: JobId,
    },
    PauseEnd {
        server: usize,
    },
    ReqArrive {
        slot: u32,
    },
    ReplyArrive {
        worker: usize,
    },
    Sample,
    ModelTimer,
    HogStart {
        node: usize,
        job: JobId,
        weight: f64,
    },
    HogEnd {
        node: usize,
        job: JobId,
    },
    /// A `ServerPause` disturbance, or one `ServerLoad` injection.
    LoadTick {
        idx: usize,
    },
}

/// Per-segment latency accumulators for the operation in flight. The
/// engine's invariant: every virtual nanosecond between op start and op
/// completion is spent inside exactly one blocking stage, so the five
/// segments sum exactly to the op's end-to-end latency.
#[derive(Debug, Clone, Copy, Default)]
struct SegAcc {
    client_ns: u64,
    network_ns: u64,
    queue_ns: u64,
    service_ns: u64,
    lock_ns: u64,
}

/// Per-worker in-flight state.
struct WState {
    spec: WorkerSpec,
    /// Global worker index (telemetry track id, result placement).
    global: usize,
    /// Pooled plan buffer, refilled in place by `DistFs::plan_into` for
    /// every operation (meaningful only while `active`). Its stage /
    /// background / pause vectors keep their capacity across ops, so
    /// steady-state planning performs zero allocations.
    plan: OpPlan,
    /// Whether `plan` describes an operation currently in flight.
    active: bool,
    stage: usize,
    ops_done: u64,
    errors: u64,
    finished_at: Option<SimTime>,
    samples: Vec<(SimTime, u64)>,
    op_started: SimTime,
    latency: LatencyHistogram,
    retries: u64,
    failovers: u64,
    /// Telemetry label of the operation in flight.
    op_name: &'static str,
    /// When the worker started blocking on a semaphore (telemetry only).
    sem_wait_start: Option<SimTime>,
    /// Causal id of the op span in flight (0 while telemetry is off).
    op_id: u64,
    /// When the worker entered its current blocking stage (critical-path
    /// attribution anchor; always advanced to `now` on stage completion).
    stage_entered: SimTime,
    /// Segment accumulators for the op in flight.
    seg: SegAcc,
    /// Cache outcome of the plan in flight.
    cache: telemetry::CacheTag,
    /// Flow id of the server RPC in flight (telemetry only).
    rpc_flow: Option<u64>,
    /// The remote RPC in flight (partitioned runs only).
    remote: Option<RemoteRpc>,
}

struct Domain<'run> {
    idx: usize,
    model: &'run mut dyn DistFs,
    sched: Scheduler<Ev>,
    /// FIFO stations indexed by *global* server id (`Some` iff owned).
    servers: Vec<Option<FifoResource>>,
    /// CPU resources indexed by *global* node id (`Some` iff owned).
    cpus: Vec<Option<PsResource>>,
    /// The one pending `CpuDone` of each node's CPU, if any (global node id).
    cpu_done: Vec<Option<EventId>>,
    /// The model's semaphores (always empty when partitioned).
    sems: Vec<Semaphore>,
    rng: DetRng,
    states: Vec<WState>,
    streams: Vec<Box<dyn OpStream>>,
    /// Background jobs in flight: (job, arrival, causal parent op id).
    bg: Slab<(BackgroundJob, SimTime, u64)>,
    remote: Slab<RemoteJob>,
    unfinished: usize,
    /// Domain of every global server / worker (for message routing).
    server_domain: &'run [usize],
    worker_domain: &'run [usize],
    /// Local index of every global worker in its owning domain.
    worker_local: &'run [usize],
    disturbances: &'run [Disturbance],
    sample_interval: SimDuration,
    deadline: Option<SimTime>,
    /// This domain's telemetry capture (`None` on untraced and unpartitioned
    /// runs); swapped onto the executing thread around every window.
    cap: Option<telemetry::ThreadCapture>,
    pid: u32,
}

impl Domain<'_> {
    fn server(&mut self, server: usize) -> &mut FifoResource {
        let idx = self.idx;
        self.servers[server].as_mut().unwrap_or_else(|| {
            panic!(
                "domain {idx} used server {server}, which it does not own: a domain \
                 may pause, load or queue only on servers it owns"
            )
        })
    }

    fn cpu(&mut self, node: usize) -> &mut PsResource {
        let idx = self.idx;
        self.cpus[node].as_mut().unwrap_or_else(|| {
            panic!(
                "domain {idx} used the CPU of node {node}, which it does not own: a \
                 domain may run client work and hogs only on nodes it owns"
            )
        })
    }

    /// Replace `node`'s pending `CpuDone` with the CPU's current
    /// prediction; called after every change to the CPU's population.
    fn schedule_cpu(&mut self, node: usize) {
        if let Some(stale) = self.cpu_done[node].take() {
            self.sched.cancel(stale);
        }
        if let Some(c) = self.cpu(node).next_completion() {
            let id = self.sched.schedule_at(
                c.at,
                Ev::CpuDone {
                    node,
                    generation: c.generation,
                },
            );
            self.cpu_done[node] = Some(id);
        }
    }

    fn server_arrive(&mut self, server: usize, job: JobId, demand: SimDuration, now: SimTime) {
        if let Some(start) = self.server(server).arrive(now, job, demand) {
            self.sched.schedule_at(
                start.completes_at,
                Ev::ServerDone {
                    server,
                    job: start.job,
                },
            );
        }
    }

    fn apply_pause(
        &mut self,
        server: usize,
        duration: SimDuration,
        now: SimTime,
        label: &'static str,
    ) {
        let until = now + duration;
        telemetry::span(
            self.pid,
            telemetry::server_tid(server),
            label,
            "cp",
            now,
            until,
        );
        self.server(server).pause_until(until);
        self.sched.schedule_at(until, Ev::PauseEnd { server });
    }

    fn background_arrive(&mut self, job: BackgroundJob, now: SimTime, parent: u64) {
        let slot = self.bg.insert((job, now, parent));
        let id = JobId(BG_BASE + u64::from(slot));
        self.server_arrive(job.server.0, id, job.demand, now);
    }

    /// A semaphore release: the granted waiter completes its Acquire stage.
    fn release_sem(&mut self, sem: usize, now: SimTime) {
        if let Some(granted) = self.sems[sem].release() {
            self.sched
                .schedule_at(now, Ev::StageCompleted { job: granted });
        }
    }

    fn finish_worker(&mut self, w: usize, now: SimTime) {
        let st = &mut self.states[w];
        if st.finished_at.is_none() {
            st.finished_at = Some(now);
            st.samples.push((now, st.ops_done));
            self.unfinished -= 1;
        }
    }

    /// Start the next operation of local worker `w`, or mark it finished.
    /// Returns whether the worker obtained a plan and should advance.
    fn start_op(&mut self, w: usize) -> bool {
        let now = self.sched.now();
        if self.deadline.is_some_and(|d| now >= d) {
            self.finish_worker(w, now);
            return false;
        }
        let st = &mut self.states[w];
        let Some(op) = self.streams[w].next_op(st.ops_done) else {
            self.finish_worker(w, now);
            return false;
        };
        let client = ClientCtx {
            node: st.spec.node,
            proc: st.spec.proc,
        };
        if self
            .model
            .plan_into(client, &op, now, &mut self.rng, &mut st.plan)
            .is_err()
        {
            // A failed plan charges no virtual time, so re-issuing would
            // spin at this instant forever: the failure ends the worker.
            st.errors += 1;
            self.finish_worker(w, now);
            return false;
        }
        st.op_started = now;
        st.op_name = op_label(&op);
        st.op_id = telemetry::fresh_id();
        st.stage_entered = now;
        st.seg = SegAcc::default();
        st.cache = st.plan.cache;
        st.rpc_flow = None;
        st.remote = None;
        let f = st.plan.faults;
        if f.injected > 0 || f.retries > 0 || f.failovers > 0 {
            st.retries += u64::from(f.retries);
            st.failovers += u64::from(f.failovers);
            if telemetry::enabled() {
                let tid = telemetry::worker_tid(st.global);
                if f.injected > 0 {
                    telemetry::count("fault.injected", u64::from(f.injected));
                }
                if f.retries > 0 {
                    telemetry::count("rpc.retry", u64::from(f.retries));
                }
                if f.failovers > 0 {
                    telemetry::count("failover", u64::from(f.failovers));
                }
                if !f.stall.is_zero() {
                    let name = if f.failovers > 0 {
                        "failover"
                    } else {
                        "rpc.retry"
                    };
                    telemetry::span(self.pid, tid, name, "fault", now, now + f.stall);
                } else {
                    telemetry::instant(self.pid, tid, "fault.injected", "fault", now);
                }
            }
        }
        let (pauses, background) = (st.plan.pauses.len(), st.plan.background.len());
        for i in 0..pauses {
            let (server, dur) = self.states[w].plan.pauses[i];
            self.apply_pause(server.0, dur, now, "consistency-point");
        }
        for i in 0..background {
            let job = self.states[w].plan.background[i];
            let parent = self.states[w].op_id;
            self.background_arrive(job, now, parent);
        }
        let st = &mut self.states[w];
        st.active = true;
        st.stage = 0;
        true
    }

    /// Attribute the blocking stage local worker `w` just completed to one
    /// of its op's latency segments (called on every `StageCompleted`
    /// delivery, before the stage pointer advances). `stage_entered` is then
    /// re-anchored at `now`, so consecutive stages tile the op's latency
    /// exactly: client CPU (incl. processor-sharing delay), network (incl.
    /// retry/failover backoff), server service vs. queueing (incl. pause
    /// windows), and lock wait. A completed server stage also closes the RPC
    /// flow edge and emits the server-side `rpc` span.
    fn attribute_stage(&mut self, w: usize, now: SimTime) {
        let st = &mut self.states[w];
        if !st.active {
            return;
        }
        let Some(&stage) = st.plan.stages.get(st.stage) else {
            return;
        };
        let elapsed = now.saturating_since(st.stage_entered).as_nanos();
        match stage {
            Stage::ClientCpu { .. } => st.seg.client_ns += elapsed,
            Stage::NetDelay { .. } => st.seg.network_ns += elapsed,
            Stage::Server { server, demand } => {
                let service = demand.as_nanos().min(elapsed);
                st.seg.service_ns += service;
                st.seg.queue_ns += elapsed - service;
                if let Some(flow) = st.rpc_flow.take() {
                    let tid = telemetry::server_tid(server.0);
                    telemetry::span_with_id(
                        self.pid,
                        tid,
                        "rpc",
                        "rpc",
                        st.stage_entered,
                        now,
                        flow,
                        st.op_id,
                    );
                    telemetry::flow_finish(self.pid, tid, "rpc", "rpc", now, flow);
                }
            }
            Stage::AcquireSem { .. } => st.seg.lock_ns += elapsed,
            Stage::ReleaseSem { .. } => {}
        }
        st.stage_entered = now;
    }

    /// Advance local worker `w` through its plan until it blocks or its op
    /// stream ends.
    fn advance(&mut self, w: usize, out: &mut Outbox<Msg>) {
        let job = JobId(w as u64);
        loop {
            let now = self.sched.now();
            let global = self.states[w].global;
            if let Some(wait_start) = self.states[w].sem_wait_start.take() {
                telemetry::span(
                    self.pid,
                    telemetry::worker_tid(global),
                    "sem-wait",
                    "lock",
                    wait_start,
                    now,
                );
            }
            let op_complete = {
                let st = &self.states[w];
                debug_assert!(st.active, "advance() with no active plan");
                st.stage >= st.plan.stages.len()
            };
            if op_complete {
                let st = &mut self.states[w];
                st.ops_done += 1;
                let lat = now.saturating_since(st.op_started);
                st.latency.push(lat);
                let tid = telemetry::worker_tid(global);
                telemetry::span_with_id(
                    self.pid,
                    tid,
                    st.op_name,
                    "op",
                    st.op_started,
                    now,
                    st.op_id,
                    0,
                );
                telemetry::observe("op.latency", lat);
                telemetry::op_record(telemetry::OpRecord {
                    pid: self.pid,
                    tid,
                    name: st.op_name,
                    id: st.op_id,
                    start_ns: st.op_started.as_nanos(),
                    dur_ns: lat.as_nanos(),
                    client_ns: st.seg.client_ns,
                    network_ns: st.seg.network_ns,
                    queue_ns: st.seg.queue_ns,
                    service_ns: st.seg.service_ns,
                    lock_ns: st.seg.lock_ns,
                    cache: st.cache,
                });
                st.active = false;
                if !self.start_op(w) {
                    return;
                }
                continue;
            }
            let (stage, node) = {
                let st = &self.states[w];
                (st.plan.stages[st.stage], st.spec.node)
            };
            match stage {
                Stage::ClientCpu { demand } => {
                    let weight = self.states[w].spec.cpu_weight;
                    self.cpu(node).arrive(now, job, demand, weight);
                    self.schedule_cpu(node);
                    return;
                }
                Stage::NetDelay { delay } => {
                    // Cross-domain RPC interception: a NetDelay followed by
                    // a Server stage on a *remote* server becomes a request
                    // message — the network leg is exactly the lookahead
                    // margin that makes the send conservative. Models build
                    // this request/service/response shape with
                    // `dfs::OpPlan::push_rpc`.
                    let next = self.states[w].plan.stages.get(self.states[w].stage + 1);
                    if let Some(&Stage::Server { server, demand }) = next {
                        if self.server_domain[server.0] != self.idx {
                            let after = self.states[w].plan.stages.get(self.states[w].stage + 2);
                            let (skip, resp_delay) = match after {
                                Some(&Stage::NetDelay { delay: resp }) => (3, resp),
                                _ => (2, SimDuration::ZERO),
                            };
                            self.states[w].remote = Some(RemoteRpc {
                                skip,
                                req_ns: delay.as_nanos(),
                                resp_ns: resp_delay.as_nanos(),
                                demand_ns: demand.as_nanos(),
                            });
                            out.send(
                                self.server_domain[server.0],
                                now + delay,
                                Msg::Req {
                                    server: server.0,
                                    demand,
                                    resp_delay,
                                    worker: global,
                                },
                            );
                            return; // resumed by the Reply message
                        }
                    }
                    self.sched.schedule_after(delay, Ev::StageCompleted { job });
                    return;
                }
                Stage::Server { server, demand } => {
                    assert!(
                        self.server_domain[server.0] == self.idx,
                        "partitioned run: a remote Server stage must be preceded by a \
                         NetDelay of at least the lookahead (model {} violates this)",
                        self.model.name()
                    );
                    if telemetry::enabled() {
                        let flow = telemetry::fresh_id();
                        self.states[w].rpc_flow = Some(flow);
                        telemetry::flow_start(
                            self.pid,
                            telemetry::worker_tid(global),
                            "rpc",
                            "rpc",
                            now,
                            flow,
                        );
                    }
                    self.server_arrive(server.0, job, demand, now);
                    return;
                }
                Stage::AcquireSem { sem } => {
                    if self.sems[sem.0].acquire(job) {
                        self.states[w].stage += 1;
                        continue;
                    }
                    if telemetry::enabled() {
                        self.states[w].sem_wait_start = Some(now);
                    }
                    return; // resumed by a ReleaseSem / background release
                }
                Stage::ReleaseSem { sem } => {
                    self.release_sem(sem.0, now);
                    self.states[w].stage += 1;
                    continue;
                }
            }
        }
    }

    fn kick(&mut self, out: &mut Outbox<Msg>) {
        for w in 0..self.states.len() {
            if self.start_op(w) {
                self.advance(w, out);
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev, out: &mut Outbox<Msg>) {
        // wall-clock profiling of the dispatch hot path (no-op unless
        // DMETABENCH_PROF is on; see simcore::prof)
        let _prof = prof::scope(match &ev {
            Ev::Kick => "parsim.kick",
            Ev::StageCompleted { .. } => "engine.stage_completed",
            Ev::CpuDone { .. } => "engine.cpu_done",
            Ev::ServerDone { .. } => "engine.server_done",
            Ev::PauseEnd { .. } => "engine.pause_end",
            Ev::ReqArrive { .. } | Ev::ReplyArrive { .. } => "parsim.remote_rpc",
            Ev::Sample => "engine.sample",
            Ev::ModelTimer => "engine.model_timer",
            Ev::HogStart { .. } | Ev::HogEnd { .. } => "engine.hog",
            Ev::LoadTick { .. } => "engine.load_tick",
        });
        match ev {
            Ev::Kick => self.kick(out),
            Ev::StageCompleted { job } => {
                let w = job.0 as usize;
                debug_assert!(w < self.states.len());
                if self.states[w].finished_at.is_some() {
                    return;
                }
                self.attribute_stage(w, now);
                self.states[w].stage += 1;
                self.advance(w, out);
            }
            Ev::CpuDone { node, generation } => {
                self.cpu_done[node] = None;
                let cpu = self.cpu(node);
                assert_eq!(
                    generation,
                    cpu.generation(),
                    "a superseded CpuDone on node {node} was delivered, not cancelled"
                );
                if let Some(job) = cpu.on_completion(now, generation) {
                    if job.0 < BG_BASE {
                        self.sched.schedule_at(now, Ev::StageCompleted { job });
                    }
                }
                self.schedule_cpu(node);
            }
            Ev::ServerDone { server, job } => {
                if let Some(start) = self.server(server).complete(now) {
                    self.sched.schedule_at(
                        start.completes_at,
                        Ev::ServerDone {
                            server,
                            job: start.job,
                        },
                    );
                }
                if job.0 >= REMOTE_BASE {
                    // proxy job: send the reply home
                    let slot = u32::try_from(job.0 - REMOTE_BASE).expect("remote slab slot");
                    let rj = self.remote.take(slot).expect("live remote job");
                    out.send(
                        self.worker_domain[rj.worker],
                        now + rj.resp_delay,
                        Msg::Reply { worker: rj.worker },
                    );
                } else if job.0 >= BG_BASE {
                    let slot = u32::try_from(job.0 - BG_BASE).expect("background slab slot");
                    if let Some((done, arrived, parent)) = self.bg.take(slot) {
                        telemetry::span_with_id(
                            self.pid,
                            telemetry::server_tid(done.server.0),
                            done.label.unwrap_or("background"),
                            "bg",
                            arrived,
                            now,
                            0,
                            parent,
                        );
                        self.model.on_background_complete(done.server, now);
                        if let Some(sem) = done.release_sem {
                            self.release_sem(sem.0, now);
                        }
                    }
                } else {
                    self.sched.schedule_at(now, Ev::StageCompleted { job });
                }
            }
            Ev::PauseEnd { server } => {
                for start in self.server(server).kick(now) {
                    self.sched.schedule_at(
                        start.completes_at,
                        Ev::ServerDone {
                            server,
                            job: start.job,
                        },
                    );
                }
            }
            Ev::ReqArrive { slot } => {
                let (server, demand) = {
                    let rj = self.remote.get(slot);
                    (rj.server, rj.demand)
                };
                self.server_arrive(server, JobId(REMOTE_BASE + u64::from(slot)), demand, now);
            }
            Ev::ReplyArrive { worker } => {
                let w = self.worker_local[worker];
                let st = &mut self.states[w];
                if st.finished_at.is_some() {
                    return;
                }
                let rpc = st.remote.take().expect("reply matches an in-flight RPC");
                // The interception covered request latency + queueing +
                // service + response latency; the stage timings are exact
                // integers, so attribution tiles the elapsed time precisely
                // like the per-stage accounting of a local RPC.
                let elapsed = now.saturating_since(st.stage_entered).as_nanos();
                st.seg.network_ns += rpc.req_ns + rpc.resp_ns;
                st.seg.service_ns += rpc.demand_ns;
                st.seg.queue_ns += elapsed - rpc.req_ns - rpc.resp_ns - rpc.demand_ns;
                st.stage_entered = now;
                st.stage += rpc.skip;
                self.advance(w, out);
            }
            Ev::Sample => {
                for st in self.states.iter_mut() {
                    if st.finished_at.is_none() {
                        st.samples.push((now, st.ops_done));
                    }
                }
                // Virtual-time gauge sampling piggybacks on the existing
                // progress-sample grid: no extra scheduled events, no RNG,
                // pure observation — a traced run pops the exact same event
                // sequence as an untraced one.
                if telemetry::enabled() {
                    let pid = self.pid;
                    for (s, srv) in self.servers.iter().enumerate() {
                        let Some(srv) = srv else { continue };
                        let tid = telemetry::server_tid(s);
                        telemetry::gauge(pid, tid, "queue_depth", now, srv.queue_len() as u64);
                        telemetry::gauge(pid, tid, "in_service", now, srv.busy() as u64);
                    }
                    for (i, sem) in self.sems.iter().enumerate() {
                        let tid = telemetry::sem_tid(i);
                        telemetry::gauge(pid, tid, "waiters", now, sem.queue_len() as u64);
                    }
                    let outstanding = self
                        .states
                        .iter()
                        .filter(|st| {
                            st.finished_at.is_none()
                                && st.active
                                && (st.remote.is_some()
                                    || matches!(
                                        st.plan.stages.get(st.stage),
                                        Some(Stage::Server { .. })
                                    ))
                        })
                        .count();
                    telemetry::gauge(
                        pid,
                        telemetry::ENGINE_TID,
                        "rpcs_outstanding",
                        now,
                        outstanding as u64,
                    );
                    self.model.sample_gauges(&mut |name, value| {
                        telemetry::gauge(pid, telemetry::ENGINE_TID, name, now, value);
                    });
                }
                if self.unfinished > 0 {
                    self.sched.schedule_after(self.sample_interval, Ev::Sample);
                }
            }
            Ev::ModelTimer => {
                let action = self.model.on_timer(now);
                for (server, dur) in action.pauses {
                    self.apply_pause(server.0, dur, now, "consistency-point");
                }
                if let Some(next) = action.next {
                    if self.unfinished > 0 {
                        self.sched.schedule_at(next, Ev::ModelTimer);
                    }
                }
            }
            Ev::HogStart { node, job, weight } => {
                self.cpu(node).arrive_background(now, job, weight);
                self.schedule_cpu(node);
            }
            Ev::HogEnd { node, job } => {
                self.cpu(node).remove(now, job);
                self.schedule_cpu(node);
            }
            Ev::LoadTick { idx } => match self.disturbances[idx] {
                Disturbance::ServerPause {
                    server, duration, ..
                } => self.apply_pause(server, duration, now, "server-pause"),
                Disturbance::ServerLoad {
                    server,
                    end,
                    demand,
                    interval,
                    ..
                } => {
                    let job = BackgroundJob {
                        server: dfs::ServerId(server),
                        demand,
                        release_sem: None,
                        label: Some("server-load"),
                    };
                    // a disturbance has no causal parent op
                    self.background_arrive(job, now, 0);
                    if now + interval < end && self.unfinished > 0 {
                        self.sched.schedule_after(interval, Ev::LoadTick { idx });
                    }
                }
                Disturbance::CpuHog { .. } => unreachable!("hogs use HogStart/HogEnd"),
            },
        }
    }

    /// Schedule the run's opening events: the partitioned kick-off, the
    /// disturbances on nodes and servers this domain owns, the model's first
    /// timer and the first progress sample.
    fn prime(&mut self, partitioned: bool) {
        if partitioned {
            self.sched.schedule_at(SimTime::ZERO, Ev::Kick);
        }
        for (idx, d) in self.disturbances.iter().enumerate() {
            match *d {
                Disturbance::CpuHog {
                    node,
                    start,
                    end,
                    weight,
                } if self.cpus[node].is_some() => {
                    let job = JobId(HOG_BASE + idx as u64);
                    self.sched
                        .schedule_at(start, Ev::HogStart { node, job, weight });
                    self.sched.schedule_at(end, Ev::HogEnd { node, job });
                }
                Disturbance::ServerPause { server, at, .. } if self.servers[server].is_some() => {
                    self.sched.schedule_at(at, Ev::LoadTick { idx });
                }
                Disturbance::ServerLoad { server, start, .. } if self.servers[server].is_some() => {
                    self.sched.schedule_at(start, Ev::LoadTick { idx });
                }
                _ => {}
            }
        }
        if let Some(t) = self.model.first_timer() {
            self.sched.schedule_at(t, Ev::ModelTimer);
        }
        if !self.states.is_empty() {
            self.sched
                .schedule_at(SimTime::ZERO + self.sample_interval, Ev::Sample);
        }
    }

    /// Drive an unpartitioned domain: kick every worker off at t = 0 ahead
    /// of every other t = 0 event, then dispatch in timestamp order until
    /// the last worker finishes (or nothing is left to pop: a deadlock the
    /// caller reports). Whatever is still pending then (background
    /// completions, timers, disturbance ticks) is dropped, not drained.
    fn run_alone(&mut self) {
        let mut out = Outbox::new(0);
        self.kick(&mut out);
        while self.unfinished > 0 {
            let Some((now, ev)) = self.sched.pop() else {
                return;
            };
            self.dispatch(now, ev, &mut out);
        }
    }

    /// Run `f` with this domain's telemetry capture installed on the
    /// current thread (straight through when the domain has none).
    ///
    /// Restores the caller's capture even if `f` unwinds — a model panic
    /// travels through here, and leaking the domain capture onto the thread
    /// would corrupt the caller's telemetry on the error path (the domain's
    /// partial capture is discarded).
    fn with_capture<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        match self.cap.take() {
            Some(cap) => {
                struct Restore(Option<telemetry::ThreadCapture>);
                impl Drop for Restore {
                    fn drop(&mut self) {
                        if let Some(prev) = self.0.take() {
                            drop(telemetry::swap_capture(prev));
                        }
                    }
                }
                let mut guard = Restore(Some(telemetry::swap_capture(cap)));
                let r = f(self);
                let prev = guard.0.take().expect("guard still armed");
                self.cap = Some(telemetry::swap_capture(prev));
                r
            }
            None => f(self),
        }
    }
}

impl WindowDomain for Domain<'_> {
    type Msg = Msg;

    fn next_time(&mut self) -> Option<SimTime> {
        self.sched.peek_time()
    }

    fn deliver(&mut self, env: Envelope<Msg>) {
        // Scheduling only — no telemetry, no RNG — so delivery needs no
        // capture swap and stays canonical under the sorted mailbox drain.
        match env.msg {
            Msg::Req {
                server,
                demand,
                resp_delay,
                worker,
            } => {
                let slot = self.remote.insert(RemoteJob {
                    server,
                    demand,
                    resp_delay,
                    worker,
                });
                self.sched
                    .schedule_at(env.deliver_at, Ev::ReqArrive { slot });
            }
            Msg::Reply { worker } => {
                self.sched
                    .schedule_at(env.deliver_at, Ev::ReplyArrive { worker });
            }
        }
    }

    fn run_window(&mut self, end: SimTime, out: &mut Outbox<Msg>) {
        self.with_capture(|dom| {
            while dom.sched.peek_time().is_some_and(|t| t < end) {
                let (now, ev) = dom.sched.pop().expect("peeked event");
                dom.dispatch(now, ev, out);
            }
        });
    }
}

/// Run a model: as one domain, or — given the model's [`PartitionPlan`]
/// and a thread count — as one domain per partition on the conservative
/// windowed engine, whose results are bit-identical for every `threads`
/// value.
///
/// # Panics
///
/// Panics if `workers` and `streams` lengths differ, if a worker references
/// a node outside `node_names`, if the model's plans reference undeclared
/// resources, on malformed partition plans (domain indices out of range,
/// wrong table lengths, declared semaphores), on models that break the
/// ownership rule or the lookahead contract, and on deadlock (a worker that
/// never finishes).
pub(crate) fn run(
    model: &mut dyn DistFs,
    partition: Option<(PartitionPlan, usize)>,
    node_names: &[String],
    workers: Vec<WorkerSpec>,
    streams: Vec<Box<dyn OpStream>>,
    config: &SimConfig,
) -> SimRunResult {
    assert_eq!(workers.len(), streams.len(), "one stream per worker");
    let nodes = node_names.len();
    for w in &workers {
        assert!(w.node < nodes, "worker on unknown node {}", w.node);
    }
    let fs_name = model.name().to_owned();
    model.register_clients(nodes);
    let resources = model.resources();

    let (server_domain, node_domain, mut replicas, windows) = match partition {
        Some((plan, threads)) => {
            assert!(
                plan.domains() >= 2,
                "a partition needs at least two domains"
            );
            assert!(
                plan.lookahead > SimDuration::ZERO,
                "a partition needs a positive lookahead"
            );
            assert!(
                resources.semaphores.is_empty(),
                "partitioned model '{fs_name}' declares semaphores: no domain can \
                 own a semaphore, so a partitioned model may declare none"
            );
            assert_eq!(
                plan.server_domain.len(),
                resources.servers.len(),
                "server_domain table must cover every server"
            );
            assert_eq!(
                plan.node_domain.len(),
                nodes,
                "node_domain table must cover every node"
            );
            assert!(
                plan.server_domain
                    .iter()
                    .chain(&plan.node_domain)
                    .all(|&d| d < plan.domains()),
                "domain index out of range"
            );
            let windows = Some((plan.lookahead, threads));
            (plan.server_domain, plan.node_domain, plan.models, windows)
        }
        None => (
            vec![0; resources.servers.len()],
            vec![0; nodes],
            Vec::new(),
            None,
        ),
    };
    let partitioned = windows.is_some();
    let models: Vec<&mut dyn DistFs> = if partitioned {
        replicas.iter_mut().map(|m| &mut **m as _).collect()
    } else {
        vec![&mut *model]
    };
    let domains = models.len();

    let traced = telemetry::enabled();
    let worker_domain: Vec<usize> = workers.iter().map(|w| node_domain[w.node]).collect();
    // local index of each global worker within its domain (assignment order
    // = ascending global index, so local order is canonical)
    let mut worker_local = vec![0usize; workers.len()];
    let mut local_counts = vec![0usize; domains];
    for (g, &d) in worker_domain.iter().enumerate() {
        worker_local[g] = local_counts[d];
        local_counts[d] += 1;
    }

    let deadline = config.duration.map(|d| SimTime::ZERO + d);
    // Pre-size each worker's sample log: for duration-bounded runs the
    // sample count is known exactly; otherwise start with a page's worth.
    // The cap only bounds the up-front allocation of absurdly long runs,
    // which end early when their streams do; the log grows past it.
    let sample_cap = config.duration.map_or(64, |d| {
        (d.as_nanos() / config.sample_interval.as_nanos().max(1) + 2).min(SAMPLE_PRESIZE_CAP)
            as usize
    });

    // distribute workers and streams to their domains in global order
    let mut domain_specs: Vec<Vec<(usize, WorkerSpec)>> =
        (0..domains).map(|_| Vec::new()).collect();
    let mut domain_streams: Vec<Vec<Box<dyn OpStream>>> =
        (0..domains).map(|_| Vec::new()).collect();
    for ((g, spec), stream) in workers.iter().cloned().enumerate().zip(streams) {
        domain_specs[worker_domain[g]].push((g, spec));
        domain_streams[worker_domain[g]].push(stream);
    }

    let mut doms: Vec<Domain<'_>> = Vec::with_capacity(domains);
    for (d, (model, local_streams)) in models.into_iter().zip(domain_streams).enumerate() {
        let mut dom = Domain {
            idx: d,
            model,
            sched: Scheduler::new(),
            servers: server_domain
                .iter()
                .enumerate()
                .map(|(s, &sd)| {
                    (sd == d).then(|| FifoResource::new(resources.servers[s].parallelism))
                })
                .collect(),
            cpus: node_domain
                .iter()
                .map(|&nd| (nd == d).then(|| PsResource::new(config.node_cores)))
                .collect(),
            cpu_done: vec![None; nodes],
            sems: resources
                .semaphores
                .iter()
                .map(|s| Semaphore::new(s.permits))
                .collect(),
            rng: if partitioned {
                domain_rng(config.seed, d)
            } else {
                DetRng::new(config.seed)
            },
            states: domain_specs[d]
                .iter()
                .map(|&(g, ref spec)| WState {
                    spec: spec.clone(),
                    global: g,
                    plan: OpPlan::default(),
                    active: false,
                    stage: 0,
                    ops_done: 0,
                    errors: 0,
                    finished_at: None,
                    samples: Vec::with_capacity(sample_cap),
                    op_started: SimTime::ZERO,
                    latency: LatencyHistogram::new(),
                    retries: 0,
                    failovers: 0,
                    op_name: "op",
                    sem_wait_start: None,
                    op_id: 0,
                    stage_entered: SimTime::ZERO,
                    seg: SegAcc::default(),
                    cache: telemetry::CacheTag::Untagged,
                    rpc_flow: None,
                    remote: None,
                })
                .collect(),
            streams: local_streams,
            bg: Slab::new(),
            remote: Slab::new(),
            unfinished: domain_specs[d].len(),
            server_domain: &server_domain,
            worker_domain: &worker_domain,
            worker_local: &worker_local,
            disturbances: &config.disturbances,
            sample_interval: config.sample_interval,
            deadline,
            cap: (traced && partitioned).then(telemetry::ThreadCapture::fresh),
            pid: 0,
        };
        if partitioned {
            dom.model.register_clients(nodes);
        }
        // One trace process per domain, with one named track per worker,
        // server and semaphore it owns; a partitioned run absorbs them in
        // domain order below, so the traced output is identical at every
        // thread count.
        dom.with_capture(|dom| {
            dom.pid = telemetry::begin_run(dom.model.name());
            if telemetry::enabled() {
                for st in &dom.states {
                    telemetry::name_track(
                        dom.pid,
                        telemetry::worker_tid(st.global),
                        &format!("{}/p{}", node_names[st.spec.node], st.spec.proc),
                    );
                }
                for (s, owned) in dom.servers.iter().enumerate() {
                    if owned.is_some() {
                        telemetry::name_track(
                            dom.pid,
                            telemetry::server_tid(s),
                            &resources.servers[s].name,
                        );
                    }
                }
                for (i, spec) in resources.semaphores.iter().enumerate() {
                    telemetry::name_track(dom.pid, telemetry::sem_tid(i), &spec.name);
                }
                telemetry::name_track(dom.pid, telemetry::ENGINE_TID, "engine");
            }
        });
        dom.prime(partitioned);
        doms.push(dom);
    }

    match windows {
        None => doms[0].run_alone(),
        Some((lookahead, threads)) => {
            let stats = par::run_conservative(&mut doms, lookahead, threads);
            // fold per-domain telemetry back into the caller's capture, in
            // canonical domain order
            for dom in &mut doms {
                if let Some(cap) = dom.cap.take() {
                    telemetry::absorb(&cap.into_report());
                }
            }
            telemetry::count("par.windows", stats.windows);
            telemetry::count("par.messages", stats.messages);
        }
    }

    let unfinished: usize = doms.iter().map(|d| d.unfinished).sum();
    assert!(
        unfinished == 0,
        "deadlock: {unfinished} workers never finished"
    );

    let mut traces: Vec<Option<WorkerTrace>> = (0..workers.len()).map(|_| None).collect();
    let mut wall_time = SimTime::ZERO;
    for dom in doms {
        for st in dom.states {
            let finished = st.finished_at.expect("all workers finished");
            wall_time = wall_time.max(finished);
            traces[st.global] = Some(WorkerTrace {
                node: st.spec.node,
                node_name: node_names[st.spec.node].clone(),
                proc: st.spec.proc,
                ops_done: st.ops_done,
                errors: st.errors,
                finished_at: st.finished_at,
                samples: st.samples,
                latency: st.latency,
                retries: st.retries,
                failovers: st.failovers,
            });
        }
    }
    if partitioned {
        model.rejoin(replicas, &node_domain);
    }
    SimRunResult {
        fs_name,
        interval: config.sample_interval,
        workers: traces
            .into_iter()
            .map(|t| t.expect("every worker produced a trace"))
            .collect(),
        wall_time,
    }
}
