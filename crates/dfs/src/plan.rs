//! Operation plans: how a file-system model expresses the cost and
//! synchronization structure of one metadata operation.
//!
//! A [`DistFs`] model compiles each [`MetaOp`](crate::MetaOp) into an
//! [`OpPlan`] — an ordered list of [`Stage`]s the cluster engine executes
//! against `simcore` resources, plus optional *background* work (write-back
//! flushes, object pre-creation) that proceeds without blocking the caller.

use crate::op::MetaOp;
use memfs::FsResult;
use simcore::telemetry::CacheTag;
use simcore::{DetRng, SimDuration, SimTime};

/// Index of a server-side queueing resource declared in [`FsResources`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub usize);

/// Index of a semaphore declared in [`FsResources`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SemId(pub usize);

/// Which benchmark process is issuing an operation.
///
/// Client caches and client-side locks are per *node* (operating-system
/// instance); the process index distinguishes intra-node parallelism
/// (paper §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientCtx {
    /// Node (OS instance) index.
    pub node: usize,
    /// Process index within the node.
    pub proc: usize,
}

/// One step in an operation's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Consume CPU on the issuing node (a processor-sharing resource), e.g.
    /// syscall overhead, cache lookups, client-side protocol work.
    ClientCpu {
        /// Dedicated-core CPU time required.
        demand: SimDuration,
    },
    /// A pure network delay (one-way message propagation + transmit).
    NetDelay {
        /// The delay.
        delay: SimDuration,
    },
    /// Queue at a server resource and hold one of its service slots for
    /// `demand`.
    Server {
        /// Target server.
        server: ServerId,
        /// Service demand.
        demand: SimDuration,
    },
    /// Take a semaphore permit (blocks FIFO when none is free). Used for
    /// client-side serialization (Lustre's single modifying RPC, the AFS
    /// cache manager) and write-back windows.
    AcquireSem {
        /// Which semaphore.
        sem: SemId,
    },
    /// Return a semaphore permit.
    ReleaseSem {
        /// Which semaphore.
        sem: SemId,
    },
}

/// Asynchronous server work spawned by an operation: the caller completes
/// without waiting, the engine runs the job on the server, and when it
/// finishes it optionally releases a semaphore permit (closing a write-back
/// window slot, paper §4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackgroundJob {
    /// Server to run on.
    pub server: ServerId,
    /// Service demand.
    pub demand: SimDuration,
    /// Permit to release on completion.
    pub release_sem: Option<SemId>,
    /// Telemetry label for the span this job produces in traces
    /// (`None` → the generic `"background"`).
    pub label: Option<&'static str>,
}

/// Fault-recovery accounting attached to one compiled operation. All zero
/// unless a fault plan is active and a fault actually touched the plan, so
/// fault-free runs carry no cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Fault effects that shaped this plan (degraded sends, lost attempts,
    /// failover stalls).
    pub injected: u32,
    /// Timed-out RPC attempts that were retransmitted.
    pub retries: u32,
    /// Failover events this operation was the first to observe.
    pub failovers: u32,
    /// Total virtual time the plan spends stalled on fault recovery.
    pub stall: SimDuration,
}

/// A compiled operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpPlan {
    /// Ordered foreground stages.
    pub stages: Vec<Stage>,
    /// Background server work.
    pub background: Vec<BackgroundJob>,
    /// Servers to pause (consistency points triggered by this operation,
    /// e.g. NVRAM reaching its high-water mark).
    pub pauses: Vec<(ServerId, SimDuration)>,
    /// Fault-recovery accounting (retries, failovers, stall time).
    pub faults: FaultStats,
    /// Whether a client cache decided the shape of this plan (hit = served
    /// locally, miss = a lookup that had to go to a server). Feeds the
    /// per-op causal records so the critical-path analyzer can split
    /// latency by cache outcome.
    pub cache: CacheTag,
}

impl OpPlan {
    /// Append one synchronous RPC leg: the request message, service at
    /// `server`, and the response message. This `NetDelay → Server →
    /// NetDelay` triple is the shape the windowed engine intercepts to carry
    /// a call to a server in another domain as one mailbox exchange
    /// (`cluster::parsim`), so every model builds its remote calls here.
    /// Callers draw `req` before `resp`; that RNG order is part of the
    /// determinism contract.
    #[inline]
    pub fn push_rpc(
        &mut self,
        server: ServerId,
        demand: SimDuration,
        req: SimDuration,
        resp: SimDuration,
    ) {
        self.stages.extend([
            Stage::NetDelay { delay: req },
            Stage::Server { server, demand },
            Stage::NetDelay { delay: resp },
        ]);
    }

    /// Answer the operation from a client cache: one `ClientCpu` stage of
    /// `demand`, tagged [`CacheTag::Hit`]. Call on a freshly
    /// [`reset`](OpPlan::reset) plan.
    #[inline]
    pub fn push_cache_hit(&mut self, demand: SimDuration) {
        self.stages.push(Stage::ClientCpu { demand });
        self.cache = CacheTag::Hit;
    }

    /// Clear the plan for reuse, retaining the stage/background/pause
    /// buffers' capacity. This is what makes [`DistFs::plan_into`] pooling
    /// allocation-free in steady state: the engine hands each worker's plan
    /// buffer back to the model, which resets and refills it in place.
    pub fn reset(&mut self) {
        self.stages.clear();
        self.background.clear();
        self.pauses.clear();
        self.faults = FaultStats::default();
        self.cache = CacheTag::Untagged;
    }

    /// Total foreground service demand excluding queueing (useful for
    /// sanity checks in tests).
    pub fn foreground_demand(&self) -> SimDuration {
        self.stages
            .iter()
            .map(|s| match s {
                Stage::ClientCpu { demand } | Stage::Server { demand, .. } => *demand,
                Stage::NetDelay { delay } => *delay,
                _ => SimDuration::ZERO,
            })
            .sum()
    }

    /// `true` if the plan never leaves the client node.
    pub fn is_client_only(&self) -> bool {
        self.stages
            .iter()
            .all(|s| matches!(s, Stage::ClientCpu { .. }))
            && self.background.is_empty()
    }
}

/// A server-side queueing station declared by a model.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Display name ("filer", "mds", "oss0", …).
    pub name: String,
    /// Parallel service slots (worker threads of the real server).
    pub parallelism: usize,
}

/// A semaphore declared by a model.
#[derive(Debug, Clone)]
pub struct SemSpec {
    /// Display name ("client0-modify-lock", …).
    pub name: String,
    /// Number of permits.
    pub permits: usize,
}

/// The resources a model needs the engine to materialize.
#[derive(Debug, Clone, Default)]
pub struct FsResources {
    /// Queueing stations.
    pub servers: Vec<ServerSpec>,
    /// Semaphores.
    pub semaphores: Vec<SemSpec>,
}

/// Result of a periodic model timer (consistency points, commit intervals).
#[derive(Debug, Clone, Default)]
pub struct TimerAction {
    /// When the model wants its timer called next (`None` = no more timers).
    pub next: Option<SimTime>,
    /// Servers to pause and for how long.
    pub pauses: Vec<(ServerId, SimDuration)>,
}

/// A domain decomposition of a model for the conservative parallel engine.
///
/// Returned by [`DistFs::partition`] when (and only when) the model's
/// servers and client state split into groups that interact **solely
/// through the network** — no shared semaphores, no shared caches, no
/// global timers. The cluster engine then runs one scheduler per domain in
/// synchronized lookahead windows (`simcore::par`), with cross-domain RPCs
/// carried by mailbox messages.
///
/// The decomposition is a property of the *model*, never of the host: the
/// same plan is used at every `--sim-threads` value (including 1), which is
/// what makes partitioned results bit-identical across thread counts.
pub struct PartitionPlan {
    /// Domain of each server, indexed by [`ServerId`]. Length must equal
    /// the model's declared server count.
    pub server_domain: Vec<usize>,
    /// Domain of each client node, indexed by node. Length must equal the
    /// node count of the run.
    pub node_domain: Vec<usize>,
    /// One independent model replica per domain. Replica `d` answers
    /// [`DistFs::plan_into`] for clients in domain `d` only; correctness
    /// requires that its answers for those clients match what the unsplit
    /// model would have produced (i.e. client-visible model state must
    /// already be per-node/per-server along the domain boundaries).
    pub models: Vec<Box<dyn DistFs>>,
    /// Conservative lookahead: a lower bound on the virtual-time distance
    /// of any cross-domain interaction (for network-shaped models, the
    /// minimum cross-domain link latency — see `netsim::LinkSpec::min_latency`).
    pub lookahead: SimDuration,
}

impl PartitionPlan {
    /// Number of domains.
    #[must_use]
    pub fn domains(&self) -> usize {
        self.models.len()
    }
}

/// A distributed-file-system behavioural model.
///
/// Implementations perform the *semantic* operation eagerly on their
/// server-side [`MemFs`](memfs::MemFs) state (so directory sizes, allocation
/// and uniqueness checks are real) and return the *performance* structure as
/// an [`OpPlan`].
pub trait DistFs: Send {
    /// Declare queueing resources and semaphores (called once by the engine
    /// before the run).
    fn resources(&self) -> FsResources;

    /// Tell the model how many client nodes participate so it can allocate
    /// per-node cache state. Called once before the run.
    fn register_clients(&mut self, nodes: usize);

    /// Compile (and semantically apply) one operation into a
    /// caller-provided plan buffer — the one method a model implements.
    ///
    /// `out` is a per-worker buffer the engine reuses for every op: the
    /// model [`reset`](OpPlan::reset)s it first and refills it in place, so
    /// planning makes no buffer allocations in steady state.
    ///
    /// On `Err`, `out` is left in an unspecified (but reusable) state.
    ///
    /// # Errors
    ///
    /// Any [`memfs::FsError`] from the semantic application — e.g. creating
    /// a file that already exists.
    fn plan_into(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()>;

    /// Convenience over [`plan_into`](DistFs::plan_into) that returns a
    /// fresh plan (tests and one-off callers).
    ///
    /// # Errors
    ///
    /// Same contract as [`plan_into`](DistFs::plan_into).
    fn plan(
        &mut self,
        client: ClientCtx,
        op: &MetaOp,
        now: SimTime,
        rng: &mut DetRng,
    ) -> FsResult<OpPlan> {
        let mut out = OpPlan::default();
        self.plan_into(client, op, now, rng, &mut out)?;
        Ok(out)
    }

    /// First timer request (`None` = the model needs no timers).
    fn first_timer(&self) -> Option<SimTime> {
        None
    }

    /// Handle a timer previously requested via [`first_timer`] /
    /// [`TimerAction::next`].
    ///
    /// [`first_timer`]: DistFs::first_timer
    fn on_timer(&mut self, _now: SimTime) -> TimerAction {
        TimerAction::default()
    }

    /// A background job on `server` completed (e.g. a write-back flush).
    fn on_background_complete(&mut self, _server: ServerId, _now: SimTime) {}

    /// Report model-internal gauges (cache occupancy, hit ratios, dirty
    /// bytes) at a sampling instant. Called by the engine only while
    /// telemetry capture is enabled, on the same deterministic sampling
    /// grid as worker progress samples — implementations must be pure
    /// observers: no RNG draws, no state mutation.
    fn sample_gauges(&self, _emit: &mut dyn FnMut(&'static str, u64)) {}

    /// Offer a domain decomposition for the conservative parallel engine.
    ///
    /// `nodes` is the client-node count of the run. Models whose state
    /// genuinely splits (independent server groups, per-node client state,
    /// no cross-domain semaphores) return a [`PartitionPlan`]; the default
    /// `None` runs the model unpartitioned, as one domain, at any
    /// `--sim-threads` value, which is always correct. The five paper
    /// models share a central MDS/filer (every client talks to every
    /// server through shared caches and semaphores), so they inherit the
    /// default.
    fn partition(&self, _nodes: usize) -> Option<PartitionPlan> {
        None
    }

    /// Drop all client-side caches on `node` (paper §3.4.3).
    fn drop_caches(&mut self, node: usize);

    /// Model name for labelling results.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn foreground_demand_sums_stages() {
        let p = OpPlan {
            stages: vec![
                Stage::ClientCpu {
                    demand: SimDuration::from_micros(2),
                },
                Stage::NetDelay {
                    delay: SimDuration::from_micros(100),
                },
                Stage::Server {
                    server: ServerId(0),
                    demand: SimDuration::from_micros(50),
                },
                Stage::AcquireSem { sem: SemId(0) },
                Stage::ReleaseSem { sem: SemId(0) },
            ],
            ..Default::default()
        };
        assert_eq!(p.foreground_demand(), SimDuration::from_micros(152));
        assert!(!p.is_client_only());
    }
}
