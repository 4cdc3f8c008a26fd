//! Virtual-time telemetry: spans, counters and latency histograms with
//! Chrome-trace / metrics-JSON export.
//!
//! The paper's instrument is the time-interval log (§3.3.5); this module is
//! the microscope underneath it. Every layer of the stack — file-system
//! models, the in-memory FS, the network model, both cluster engines — can
//! record *events* here:
//!
//! * **spans**: an activity with a start and an end on the virtual clock
//!   (an operation in flight, a semaphore wait, a write-back consistency
//!   point pausing a server),
//! * **instants**: a point event (a snapshot trigger, a timer firing),
//! * **counters**: monotonically increasing totals (cache hits, RPCs,
//!   journal commits),
//! * **histograms**: log-bucketed latency distributions
//!   ([`LatencyHistogram`]).
//!
//! Recording is **off by default** and costs a single thread-local flag
//! check ([`Cell`] read) per call site when disabled, so instrumented hot
//! paths stay free for ordinary runs. A caller opts in by wrapping a
//! workload in [`capture`], which installs a thread-local sink, runs the
//! closure, and returns a [`TelemetryReport`].
//!
//! When enabled, recording takes a *fast path*: `&'static str` labels are
//! interned to dense `u32` ids on first use (pointer-identity keyed — no
//! string hashing), every timeline event is one fixed-size record appended
//! to a single per-capture buffer, and counters/histograms are indexed
//! arrays addressed by label id. All string work (resolving ids, sorting by
//! name, escaping) happens once at export, which is why the JSON outputs
//! are byte-for-byte what they were when the sink kept per-kind lists keyed
//! by string.
//!
//! Everything is stamped with virtual [`SimTime`], never the wall clock,
//! and recording neither draws random numbers nor schedules events — so
//! traces are *bit-deterministic*: the same scenario produces byte-identical
//! Chrome-trace and metrics JSON at any `--jobs` level and claim order
//! (pinned by `tests/telemetry_determinism.rs`).
//!
//! # Track model
//!
//! Chrome trace events live on `(pid, tid)` tracks. Each simulation run
//! ([`begin_run`]) allocates one *pid* and names it after the model; worker
//! processes and servers get *tids* within the run ([`worker_tid`],
//! [`server_tid`]) with human-readable `thread_name` metadata. Perfetto and
//! `chrome://tracing` then show one process group per `run_sim` invocation
//! with one timeline row per worker/server. Semaphores ([`sem_tid`]) and the
//! engine itself ([`ENGINE_TID`]) get further rows when gauges are sampled.
//!
//! # Causal model
//!
//! On top of the flat event lists the sink records *causality*:
//!
//! * **ids + parent links**: spans can carry a capture-unique id
//!   ([`fresh_id`]) and a parent id ([`span_with_id`]) — e.g. a Lustre
//!   commit background job points back at the operation that enqueued it,
//! * **flow events**: a cross-track request edge ([`flow_start`] on the
//!   client row, [`flow_finish`] on the server row) exported as Chrome
//!   `ph:"s"`/`ph:"f"` pairs, which Perfetto renders as arrows along the
//!   RPC chain,
//! * **gauges**: virtual-time samples of instantaneous state ([`gauge`]:
//!   queue depths, outstanding RPCs, semaphore waiters, cache occupancy)
//!   exported as Chrome counter events (`ph:"C"`) and as
//!   [`TelemetryReport::to_timeseries_json`],
//! * **op records**: one compact [`OpRecord`] per completed operation with
//!   its end-to-end latency already bucketed into causal segments
//!   (client CPU / network / server queueing / server service / lock wait)
//!   — the input of the critical-path analyzer (`dmetabench analyze`).
//!
//! Ids are allocated from a per-sink counter in event order, so they are as
//! deterministic as the event sequence itself; 0 is the "no id" sentinel.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::LatencyHistogram;
use crate::time::{SimDuration, SimTime};

/// Thread id of the first server track within a run; workers are
/// `0..SERVER_TID_BASE`, server `s` is `SERVER_TID_BASE + s`.
pub const SERVER_TID_BASE: u64 = 1 << 20;

/// Thread id of the first semaphore track within a run (gauge rows for
/// lock-waiter counts); semaphore `i` is `SEM_TID_BASE + i`.
pub const SEM_TID_BASE: u64 = 1 << 21;

/// Thread id of the engine's own gauge track within a run (outstanding
/// RPCs, model-level cache gauges).
pub const ENGINE_TID: u64 = 1 << 22;

/// Track id for a worker (node-local process) within a run.
#[inline]
#[must_use]
pub fn worker_tid(worker: usize) -> u64 {
    worker as u64
}

/// Track id for a server resource within a run.
#[inline]
#[must_use]
pub fn server_tid(server: usize) -> u64 {
    SERVER_TID_BASE + server as u64
}

/// Track id for a semaphore resource within a run.
#[inline]
#[must_use]
pub fn sem_tid(sem: usize) -> u64 {
    SEM_TID_BASE + sem as u64
}

/// Pointer-identity hasher for label interning: an interner key is already
/// a unique machine word pair (data pointer + length of a `&'static str`),
/// so "hashing" is a rotate and a multiply — no SipHash, no byte loops on
/// the telemetry hot path.
#[derive(Debug, Default, Clone)]
struct IdentityHash(u64);

impl std::hash::Hasher for IdentityHash {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(29) ^ n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdentityBuild = std::hash::BuildHasherDefault<IdentityHash>;

/// Interns `&'static str` event labels to dense `u32` ids at first use.
///
/// Keys are pointer identity, not content: two distinct statics with equal
/// text get two ids, which is harmless because every export resolves ids
/// back to strings and aggregates by name. Ids are assigned in first-use
/// order, so they are as deterministic as the event sequence.
#[derive(Debug, Default, Clone)]
struct Interner {
    ids: std::collections::HashMap<(usize, usize), u32, IdentityBuild>,
    names: Vec<&'static str>,
}

impl Interner {
    fn intern(&mut self, s: &'static str) -> u32 {
        let key = (s.as_ptr() as usize, s.len());
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("label id overflow");
        self.ids.insert(key, id);
        self.names.push(s);
        id
    }

    fn name(&self, id: u32) -> &'static str {
        self.names[id as usize]
    }
}

impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        // ids are positional, so equal name tables mean equal interners
        self.names == other.names
    }
}

/// Which timeline kind a [`RawEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Span,
    Instant,
    FlowStart,
    FlowFinish,
    Gauge,
}

/// One timeline event in the per-capture buffer. All four kinds (spans,
/// instants, flows, gauges) share this fixed-size record so recording is a
/// single append to one growing buffer — the telemetry fast path — with
/// labels as interned `u32` ids. Field meaning by kind:
///
/// | kind       | `ts_ns`  | `val`    | `id`      | `parent`  |
/// |------------|----------|----------|-----------|-----------|
/// | Span       | start    | duration | causal id | parent id |
/// | Instant    | instant  | —        | —         | —         |
/// | Flow*      | instant  | —        | flow id   | —         |
/// | Gauge      | sample   | value    | —         | —         |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RawEvent {
    kind: EvKind,
    pid: u32,
    name: u32,
    cat: u32,
    tid: u64,
    ts_ns: u64,
    val: u64,
    id: u64,
    parent: u64,
}

/// Cache outcome of one operation, threaded from the file-system model's
/// plan into the per-op record so the analyzer can separate hit/miss
/// populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheTag {
    /// The operation did not consult a client cache (or the model does not
    /// tag it).
    #[default]
    Untagged,
    /// Answered from a client-side cache (attribute / callback / lock).
    Hit,
    /// Consulted a client-side cache and missed — the remote path taken is
    /// the miss penalty.
    Miss,
}

impl CacheTag {
    /// Stable lowercase label used in JSON exports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheTag::Untagged => "untagged",
            CacheTag::Hit => "hit",
            CacheTag::Miss => "miss",
        }
    }
}

/// One completed operation with its end-to-end latency attributed to causal
/// segments. Invariant maintained by the engine: the segments sum exactly
/// to `dur_ns` (the virtual clock never advances outside a stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Trace process of the run.
    pub pid: u32,
    /// Worker track the operation ran on.
    pub tid: u64,
    /// Operation label (`"create"`, `"stat"`, …).
    pub name: &'static str,
    /// Causal id of the op span (0 when ids were not allocated).
    pub id: u64,
    /// Virtual start time.
    pub start_ns: u64,
    /// End-to-end latency.
    pub dur_ns: u64,
    /// Client CPU time (ClientCpu stages, incl. processor-sharing delay).
    pub client_ns: u64,
    /// Network time (NetDelay stages, incl. retry/failover backoff).
    pub network_ns: u64,
    /// Server queueing time (waiting for a service slot, incl. pause
    /// windows such as write-back consistency points).
    pub queue_ns: u64,
    /// Server service time (the demand actually served).
    pub service_ns: u64,
    /// Lock wait (blocked semaphore acquisitions).
    pub lock_ns: u64,
    /// Cache outcome of the operation.
    pub cache: CacheTag,
}

impl OpRecord {
    /// Sum of all attributed segments; equals `dur_ns` for engine-emitted
    /// records.
    #[must_use]
    pub fn segment_sum_ns(&self) -> u64 {
        self.client_ns + self.network_ns + self.queue_ns + self.service_ns + self.lock_ns
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ProcessMeta {
    pid: u32,
    name: String,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ThreadMeta {
    pid: u32,
    tid: u64,
    name: String,
}

#[derive(Debug, Default, Clone, PartialEq)]
struct Sink {
    next_pid: u32,
    next_id: u64,
    labels: Interner,
    processes: Vec<ProcessMeta>,
    threads: Vec<ThreadMeta>,
    /// The per-capture event buffer: every span, instant, flow and gauge is
    /// one fixed-size [`RawEvent`] appended here in arrival order. Exports
    /// filter by kind, so per-kind relative order — what the byte-identical
    /// output formats depend on — is exactly the recording order.
    events: Vec<RawEvent>,
    ops: Vec<OpRecord>,
    /// Counter totals indexed by label id (`None` = never incremented).
    /// Resolved back to names and name-sorted at export.
    counters: Vec<Option<u64>>,
    /// Histograms indexed by label id, same scheme as `counters`.
    histograms: Vec<Option<LatencyHistogram>>,
}

impl Sink {
    /// Grow an id-indexed table to cover `idx` and return its slot.
    fn slot<T>(vec: &mut Vec<Option<T>>, idx: usize) -> &mut Option<T> {
        if vec.len() <= idx {
            vec.resize_with(idx + 1, || None);
        }
        &mut vec[idx]
    }

    #[allow(clippy::too_many_arguments)]
    fn push_event(
        &mut self,
        kind: EvKind,
        pid: u32,
        tid: u64,
        name: &'static str,
        cat: &'static str,
        ts_ns: u64,
        val: u64,
        id: u64,
        parent: u64,
    ) {
        let name = self.labels.intern(name);
        let cat = self.labels.intern(cat);
        self.events.push(RawEvent {
            kind,
            pid,
            name,
            cat,
            tid,
            ts_ns,
            val,
            id,
            parent,
        });
    }
}

/// Merge `src` into `dst`: pids and causal ids are renumbered past `dst`'s
/// counters, label ids are re-interned through `src`'s name table, counters
/// sum and histograms combine. Shared by [`TelemetryReport::merge`] (report
/// level) and [`absorb`] (into the live thread-local sink).
fn merge_sinks(dst: &mut Sink, src: &Sink) {
    let pid_base = dst.next_pid;
    dst.next_pid += src.next_pid;
    // causal ids are renumbered exactly like pids so merged reports stay
    // collision-free (0 stays 0 — the "no id" sentinel)
    let id_base = dst.next_id;
    dst.next_id += src.next_id;
    let shift = |id: u64| if id == 0 { 0 } else { id + id_base };
    for p in &src.processes {
        dst.processes.push(ProcessMeta {
            pid: p.pid + pid_base,
            name: p.name.clone(),
        });
    }
    for t in &src.threads {
        dst.threads.push(ThreadMeta {
            pid: t.pid + pid_base,
            tid: t.tid,
            name: t.name.clone(),
        });
    }
    for e in &src.events {
        let mut e = *e;
        e.pid += pid_base;
        // label ids are per-capture: re-intern through the source sink's
        // name table into ours
        e.name = dst.labels.intern(src.labels.name(e.name));
        e.cat = dst.labels.intern(src.labels.name(e.cat));
        match e.kind {
            EvKind::Span => {
                e.id = shift(e.id);
                e.parent = shift(e.parent);
            }
            EvKind::FlowStart | EvKind::FlowFinish => e.id = shift(e.id),
            EvKind::Instant | EvKind::Gauge => {}
        }
        dst.events.push(e);
    }
    for o in &src.ops {
        let mut o = *o;
        o.pid += pid_base;
        o.id = shift(o.id);
        dst.ops.push(o);
    }
    for (idx, v) in src.counters.iter().enumerate() {
        if let Some(v) = *v {
            let name = src
                .labels
                .name(u32::try_from(idx).expect("label id overflow"));
            let id = dst.labels.intern(name) as usize;
            *Sink::slot(&mut dst.counters, id).get_or_insert(0) += v;
        }
    }
    for (idx, h) in src.histograms.iter().enumerate() {
        if let Some(h) = h {
            let name = src
                .labels
                .name(u32::try_from(idx).expect("label id overflow"));
            let id = dst.labels.intern(name) as usize;
            Sink::slot(&mut dst.histograms, id)
                .get_or_insert_with(LatencyHistogram::default)
                .merge(h);
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Option<Sink>> = const { RefCell::new(None) };
}

/// Whether a telemetry sink is installed on this thread.
///
/// This is the cheap guard instrumented call sites check (directly or via
/// the emit helpers, which all check it first): when `false` — the default —
/// every telemetry call is a no-op.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

#[inline]
fn with_sink(f: impl FnOnce(&mut Sink)) {
    SINK.with(|s| {
        if let Some(sink) = s.borrow_mut().as_mut() {
            f(sink);
        }
    });
}

/// Run `f` with telemetry enabled on this thread and return its result
/// together with everything recorded.
///
/// Nesting is supported (the inner capture shadows the outer one), and the
/// previous state is restored even if `f` panics — the half-recorded sink is
/// then discarded with the unwind.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, TelemetryReport) {
    struct Guard {
        prev_enabled: bool,
        prev_sink: Option<Sink>,
    }
    impl Drop for Guard {
        fn drop(&mut self) {
            ENABLED.with(|e| e.set(self.prev_enabled));
            SINK.with(|s| *s.borrow_mut() = self.prev_sink.take());
        }
    }
    let guard = Guard {
        prev_enabled: ENABLED.with(|e| e.replace(true)),
        prev_sink: SINK.with(|s| s.borrow_mut().replace(Sink::default())),
    };
    let value = f();
    let sink = SINK.with(|s| s.borrow_mut().take()).unwrap_or_default();
    drop(guard);
    (value, TelemetryReport { sink })
}

/// A detached telemetry recording state — the `(enabled, sink)` pair that
/// normally lives in this thread's thread-locals, packaged as a movable
/// (`Send`) value.
///
/// This is the building block of *per-domain* capture in the partitioned
/// parallel engine: each simulation domain owns a `ThreadCapture`; whichever
/// OS thread is about to execute a domain's events installs the domain's
/// capture with [`swap_capture`], runs the window, then swaps it back out.
/// Every event a domain records therefore lands in that domain's own sink
/// regardless of which thread (or how many threads) executed it, and the
/// per-domain sinks can be [`absorb`]ed in canonical domain order afterwards
/// — which is why traces come out byte-identical at any thread count.
#[derive(Debug)]
pub struct ThreadCapture {
    enabled: bool,
    sink: Option<Sink>,
}

impl ThreadCapture {
    /// A fresh enabled capture with an empty sink.
    #[must_use]
    pub fn fresh() -> Self {
        ThreadCapture {
            enabled: true,
            sink: Some(Sink::default()),
        }
    }

    /// A disabled, sink-less state (the thread default).
    #[must_use]
    pub fn disabled() -> Self {
        ThreadCapture {
            enabled: false,
            sink: None,
        }
    }

    /// Consume the capture into a report of everything it recorded.
    #[must_use]
    pub fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            sink: self.sink.unwrap_or_default(),
        }
    }
}

/// Install `next` as this thread's telemetry state and return the previous
/// state. The returned value restores the thread exactly when swapped back.
pub fn swap_capture(next: ThreadCapture) -> ThreadCapture {
    let prev_enabled = ENABLED.with(|e| e.replace(next.enabled));
    let prev_sink = SINK.with(|s| std::mem::replace(&mut *s.borrow_mut(), next.sink));
    ThreadCapture {
        enabled: prev_enabled,
        sink: prev_sink,
    }
}

/// Merge an already-finished report into the telemetry sink currently
/// installed on this thread (no-op when telemetry is disabled).
///
/// Same pid/causal-id renumbering as [`TelemetryReport::merge`], but the
/// destination is the live capture — this is how per-domain captures from a
/// partitioned run fold back into the caller's enclosing [`capture`].
pub fn absorb(other: &TelemetryReport) {
    if !enabled() {
        return;
    }
    with_sink(|sink| merge_sinks(sink, &other.sink));
}

/// Start a new trace "process": one simulation-engine run.
///
/// Returns the pid to stamp on this run's spans (0 when disabled — the
/// helpers don't care).
pub fn begin_run(name: &str) -> u32 {
    if !enabled() {
        return 0;
    }
    let mut pid = 0;
    with_sink(|sink| {
        sink.next_pid += 1;
        pid = sink.next_pid;
        sink.processes.push(ProcessMeta {
            pid,
            name: name.to_owned(),
        });
    });
    pid
}

/// Attach a human-readable name to a `(pid, tid)` track
/// (Chrome `thread_name` metadata).
pub fn name_track(pid: u32, tid: u64, name: &str) {
    if !enabled() {
        return;
    }
    with_sink(|sink| {
        sink.threads.push(ThreadMeta {
            pid,
            tid,
            name: name.to_owned(),
        });
    });
}

/// Allocate a fresh causal id, unique within the current capture.
///
/// Ids are handed out from a per-sink counter in call order, so they are as
/// deterministic as the caller's event sequence. Returns 0 — the "no id"
/// sentinel — when telemetry is disabled.
#[must_use]
pub fn fresh_id() -> u64 {
    if !enabled() {
        return 0;
    }
    let mut id = 0;
    with_sink(|sink| {
        sink.next_id += 1;
        id = sink.next_id;
    });
    id
}

/// Record a completed span `[start, end]` on a track.
pub fn span(
    pid: u32,
    tid: u64,
    name: &'static str,
    cat: &'static str,
    start: SimTime,
    end: SimTime,
) {
    span_with_id(pid, tid, name, cat, start, end, 0, 0);
}

/// Record a completed span with a causal id and parent link (0 = none).
///
/// The id/parent pair is exported in the span's `args` so trace consumers
/// can reassemble the causal graph; [`span`] is the id-less shorthand.
#[allow(clippy::too_many_arguments)]
pub fn span_with_id(
    pid: u32,
    tid: u64,
    name: &'static str,
    cat: &'static str,
    start: SimTime,
    end: SimTime,
    id: u64,
    parent: u64,
) {
    if !enabled() {
        return;
    }
    with_sink(|sink| {
        sink.push_event(
            EvKind::Span,
            pid,
            tid,
            name,
            cat,
            start.as_nanos(),
            end.saturating_since(start).as_nanos(),
            id,
            parent,
        );
    });
}

/// Record the start of a cross-track flow (Chrome `ph:"s"`) — e.g. an RPC
/// leaving the client. Pair it with a [`flow_finish`] carrying the same
/// `id` (obtain one from [`fresh_id`]).
pub fn flow_start(pid: u32, tid: u64, name: &'static str, cat: &'static str, ts: SimTime, id: u64) {
    push_flow(pid, tid, name, cat, ts, id, true);
}

/// Record the end of a cross-track flow (Chrome `ph:"f"`, binding to the
/// enclosing slice) — e.g. the RPC completing on the server.
pub fn flow_finish(
    pid: u32,
    tid: u64,
    name: &'static str,
    cat: &'static str,
    ts: SimTime,
    id: u64,
) {
    push_flow(pid, tid, name, cat, ts, id, false);
}

fn push_flow(
    pid: u32,
    tid: u64,
    name: &'static str,
    cat: &'static str,
    ts: SimTime,
    id: u64,
    start: bool,
) {
    if !enabled() {
        return;
    }
    let kind = if start {
        EvKind::FlowStart
    } else {
        EvKind::FlowFinish
    };
    with_sink(|sink| {
        sink.push_event(kind, pid, tid, name, cat, ts.as_nanos(), 0, id, 0);
    });
}

/// Record one virtual-time sample of an instantaneous quantity (queue
/// depth, waiters, cache occupancy). Exported as Chrome counter events and
/// via [`TelemetryReport::to_timeseries_json`].
pub fn gauge(pid: u32, tid: u64, name: &'static str, ts: SimTime, value: u64) {
    if !enabled() {
        return;
    }
    with_sink(|sink| {
        sink.push_event(
            EvKind::Gauge,
            pid,
            tid,
            name,
            "",
            ts.as_nanos(),
            value,
            0,
            0,
        );
    });
}

/// Record one completed operation's causal segment breakdown.
pub fn op_record(rec: OpRecord) {
    if !enabled() {
        return;
    }
    with_sink(|sink| sink.ops.push(rec));
}

/// Record a point event on a track.
pub fn instant(pid: u32, tid: u64, name: &'static str, cat: &'static str, ts: SimTime) {
    if !enabled() {
        return;
    }
    with_sink(|sink| {
        sink.push_event(EvKind::Instant, pid, tid, name, cat, ts.as_nanos(), 0, 0, 0);
    });
}

/// Add `delta` to a named counter.
///
/// The counter is addressed by interned label id — an identity-hash lookup
/// and an indexed add, no string comparisons on the hot path.
pub fn count(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_sink(|sink| {
        let idx = sink.labels.intern(name) as usize;
        *Sink::slot(&mut sink.counters, idx).get_or_insert(0) += delta;
    });
}

/// Record one observation into a named latency histogram.
pub fn observe(name: &'static str, latency: SimDuration) {
    if !enabled() {
        return;
    }
    with_sink(|sink| {
        let idx = sink.labels.intern(name) as usize;
        Sink::slot(&mut sink.histograms, idx)
            .get_or_insert_with(LatencyHistogram::default)
            .push(latency);
    });
}

/// Everything one [`capture`] recorded: the raw event list plus aggregated
/// counters and histograms.
///
/// The two exports are deliberately different views: the Chrome trace is the
/// full timeline (open it in Perfetto / `chrome://tracing`), the metrics
/// summary is a compact, integer-only JSON digest that is byte-comparable
/// across runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    sink: Sink,
}

impl TelemetryReport {
    /// True if nothing at all was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sink.events.is_empty()
            && self.sink.ops.is_empty()
            && self.sink.counters.is_empty()
            && self.sink.histograms.is_empty()
    }

    /// Events of one kind, in recording order.
    fn events(&self, kind: EvKind) -> impl Iterator<Item = &RawEvent> {
        self.sink.events.iter().filter(move |e| e.kind == kind)
    }

    /// Resolve an interned label id back to its string.
    fn label(&self, id: u32) -> &'static str {
        self.sink.labels.name(id)
    }

    /// All per-operation causal records, in completion order.
    #[must_use]
    pub fn op_records(&self) -> &[OpRecord] {
        &self.sink.ops
    }

    /// Number of gauge samples recorded.
    #[must_use]
    pub fn gauge_count(&self) -> usize {
        self.events(EvKind::Gauge).count()
    }

    /// Display name of a trace process (a [`begin_run`] invocation).
    #[must_use]
    pub fn process_name(&self, pid: u32) -> Option<&str> {
        self.sink
            .processes
            .iter()
            .find(|p| p.pid == pid)
            .map(|p| p.name.as_str())
    }

    /// Display name of a `(pid, tid)` track, if one was attached.
    #[must_use]
    pub fn track_name(&self, pid: u32, tid: u64) -> Option<&str> {
        self.sink
            .threads
            .iter()
            .find(|t| t.pid == pid && t.tid == tid)
            .map(|t| t.name.as_str())
    }

    /// Value of a counter (0 if never incremented). Label ids are
    /// pointer-interned, so distinct statics with equal text are summed here
    /// just as the exports aggregate them.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.sink
            .counters
            .iter()
            .enumerate()
            .filter_map(|(i, v)| {
                v.filter(|_| self.label(u32::try_from(i).expect("label id overflow")) == name)
            })
            .sum()
    }

    /// Number of spans recorded under `name`.
    #[must_use]
    pub fn span_count(&self, name: &str) -> usize {
        self.events(EvKind::Span)
            .filter(|s| self.label(s.name) == name)
            .count()
    }

    /// A recorded latency histogram, if any observation was made under
    /// `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.sink.histograms.iter().enumerate().find_map(|(i, h)| {
            h.as_ref()
                .filter(|_| self.label(u32::try_from(i).expect("label id overflow")) == name)
        })
    }

    /// Merge another report into this one (counters and histograms combine;
    /// events append). Used to combine per-run or per-node captures into one
    /// summary.
    pub fn merge(&mut self, other: &TelemetryReport) {
        merge_sinks(&mut self.sink, &other.sink);
    }

    /// Serialize as Chrome trace-event JSON (the `traceEvents` array form),
    /// loadable in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`. Timestamps are virtual microseconds with
    /// nanosecond precision; output is byte-deterministic.
    #[must_use]
    pub fn to_chrome_trace_json(&self) -> String {
        let mut out = String::with_capacity(128 + 96 * self.sink.events.len());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
                out.push_str("\n ");
            } else {
                out.push_str(",\n ");
            }
        };
        for p in &self.sink.processes {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                p.pid,
                escape(&p.name)
            );
        }
        for t in &self.sink.threads {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":{},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                t.pid,
                t.tid,
                escape(&t.name)
            );
        }
        for s in self.events(EvKind::Span) {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"cat\":\"{}\"",
                s.pid,
                s.tid,
                Us(s.ts_ns),
                Us(s.val),
                escape(self.label(s.name)),
                escape(self.label(s.cat))
            );
            match (s.id, s.parent) {
                (0, 0) => {}
                (id, 0) => {
                    let _ = write!(out, ",\"args\":{{\"id\":{id}}}");
                }
                (0, parent) => {
                    let _ = write!(out, ",\"args\":{{\"parent\":{parent}}}");
                }
                (id, parent) => {
                    let _ = write!(out, ",\"args\":{{\"id\":{id},\"parent\":{parent}}}");
                }
            }
            out.push('}');
        }
        for i in self.events(EvKind::Instant) {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":{},\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\"cat\":\"{}\"}}",
                i.pid,
                i.tid,
                Us(i.ts_ns),
                escape(self.label(i.name)),
                escape(self.label(i.cat))
            );
        }
        for f in self
            .sink
            .events
            .iter()
            .filter(|e| matches!(e.kind, EvKind::FlowStart | EvKind::FlowFinish))
        {
            sep(&mut out);
            // `bp:"e"` binds the finish to its enclosing slice, which is what
            // makes Perfetto draw the arrow onto the server-side span.
            let start = f.kind == EvKind::FlowStart;
            let bp = if start { "" } else { "\"bp\":\"e\"," };
            let ph = if start { 's' } else { 'f' };
            let _ = write!(
                out,
                "{{\"ph\":\"{ph}\",{bp}\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{},\"name\":\"{}\",\"cat\":\"{}\"}}",
                f.pid,
                f.tid,
                Us(f.ts_ns),
                f.id,
                escape(self.label(f.name)),
                escape(self.label(f.cat))
            );
        }
        let tracks = self.track_labels();
        for g in self.events(EvKind::Gauge) {
            sep(&mut out);
            // counter tracks are keyed by (pid, name) in trace viewers, so
            // the resolved track label is folded into the counter name
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{},\"name\":\"{} {}\",\"args\":{{\"value\":{}}}}}",
                g.pid,
                Us(g.ts_ns),
                escape(&tracks.label(g.pid, g.tid)),
                escape(self.label(g.name)),
                g.val
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Serialize the gauge samples as a compact, integer-only timeseries
    /// JSON (schema `dmetabench.timeseries/v1`): one series per
    /// process/track/gauge, each a list of `[ts_ns, value]` points in
    /// sample order. Byte-deterministic like the other exports.
    #[must_use]
    pub fn to_timeseries_json(&self) -> String {
        let tracks = self.track_labels();
        let mut series: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
        for g in self.events(EvKind::Gauge) {
            let process = self.process_name(g.pid).unwrap_or("run");
            let key = format!(
                "{}/{}/{}",
                process,
                tracks.label(g.pid, g.tid),
                self.label(g.name)
            );
            series.entry(key).or_default().push((g.ts_ns, g.val));
        }
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"dmetabench.timeseries/v1\",\n  \"series\": {");
        write_map(&mut out, series.iter(), |out, (key, points)| {
            let _ = write!(out, "\"{}\": [", escape(key));
            for (i, (ts, v)) in points.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{ts},{v}]");
            }
            out.push(']');
        });
        out.push_str("}\n}\n");
        out
    }

    fn track_labels(&self) -> TrackLabels<'_> {
        TrackLabels {
            map: self
                .sink
                .threads
                .iter()
                .map(|t| ((t.pid, t.tid), t.name.as_str()))
                .collect(),
        }
    }

    /// Serialize the compact metrics summary: counters, per-name span
    /// aggregates and histogram digests. All values are integers (counts and
    /// nanoseconds), so equal runs produce byte-identical output.
    #[must_use]
    pub fn to_metrics_json(&self) -> String {
        // resolve interned ids back to names and aggregate by name — the
        // BTreeMaps restore the name-sorted, content-merged view the output
        // format pins
        let mut spans: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in self.events(EvKind::Span) {
            let e = spans.entry(self.label(s.name)).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.val;
        }
        let mut instants: BTreeMap<&'static str, u64> = BTreeMap::new();
        for i in self.events(EvKind::Instant) {
            *instants.entry(self.label(i.name)).or_insert(0) += 1;
        }
        let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (idx, v) in self.sink.counters.iter().enumerate() {
            if let Some(v) = *v {
                let name = self.label(u32::try_from(idx).expect("label id overflow"));
                *counters.entry(name).or_insert(0) += v;
            }
        }
        let mut histograms: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
        for (idx, h) in self.sink.histograms.iter().enumerate() {
            if let Some(h) = h {
                let name = self.label(u32::try_from(idx).expect("label id overflow"));
                histograms.entry(name).or_default().merge(h);
            }
        }

        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        write_map(&mut out, counters.iter(), |out, (name, v)| {
            let _ = write!(out, "\"{}\": {}", escape(name), v);
        });
        out.push_str("},\n  \"spans\": {");
        write_map(&mut out, spans.iter(), |out, (name, (n, total))| {
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {n}, \"total_ns\": {total}}}",
                escape(name)
            );
        });
        out.push_str("},\n  \"instants\": {");
        write_map(&mut out, instants.iter(), |out, (name, n)| {
            let _ = write!(out, "\"{}\": {n}", escape(name));
        });
        out.push_str("},\n  \"histograms\": {");
        write_map(&mut out, histograms.iter(), |out, (name, h)| {
            let _ = write!(
                out,
                "\"{}\": {{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                escape(name),
                h.count(),
                h.sum().as_nanos(),
                h.max().as_nanos(),
                h.percentile(0.50).as_nanos(),
                h.percentile(0.90).as_nanos(),
                h.percentile(0.99).as_nanos()
            );
        });
        out.push_str("}\n}\n");
        out
    }
}

/// Lookup table from `(pid, tid)` to the human-readable track name, built
/// once per export.
struct TrackLabels<'a> {
    map: std::collections::HashMap<(u32, u64), &'a str>,
}

impl TrackLabels<'_> {
    fn label(&self, pid: u32, tid: u64) -> std::borrow::Cow<'_, str> {
        match self.map.get(&(pid, tid)) {
            Some(n) => std::borrow::Cow::Borrowed(n),
            None => std::borrow::Cow::Owned(format!("tid{tid}")),
        }
    }
}

/// Write `items` as the body of a JSON object: 4-space-indented lines, one
/// entry per line, no trailing comma.
fn write_map<T>(
    out: &mut String,
    items: impl ExactSizeIterator<Item = T>,
    mut write_entry: impl FnMut(&mut String, T),
) {
    let n = items.len();
    for (i, item) in items.enumerate() {
        out.push_str("\n    ");
        write_entry(out, item);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        out.push_str("\n  ");
    }
}

/// Nanoseconds displayed as microseconds with three decimals (Chrome's `ts`
/// unit is µs; the fraction keeps full nanosecond precision).
struct Us(u64);

impl std::fmt::Display for Us {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total nanoseconds of the spans recorded under `name`.
    fn span_total(report: &TelemetryReport, name: &str) -> u64 {
        report
            .events(EvKind::Span)
            .filter(|s| report.label(s.name) == name)
            .map(|s| s.val)
            .sum()
    }

    /// Flow events recorded, as `(starts, finishes)`.
    fn flow_counts(report: &TelemetryReport) -> (usize, usize) {
        (
            report.events(EvKind::FlowStart).count(),
            report.events(EvKind::FlowFinish).count(),
        )
    }

    #[test]
    fn disabled_by_default_records_nothing() {
        assert!(!enabled());
        count("x", 1);
        span(1, 0, "s", "c", SimTime::ZERO, SimTime::from_nanos(5));
        observe("h", SimDuration::from_nanos(5));
        // a later capture sees none of it
        let ((), report) = capture(|| {});
        assert!(report.is_empty());
        assert_eq!(report.counter("x"), 0);
    }

    #[test]
    fn capture_scopes_the_sink() {
        let ((), report) = capture(|| {
            assert!(enabled());
            let pid = begin_run("model-a");
            assert_eq!(pid, 1);
            name_track(pid, worker_tid(0), "node00/p0");
            span(
                pid,
                worker_tid(0),
                "create",
                "op",
                SimTime::from_nanos(1_500),
                SimTime::from_nanos(3_500),
            );
            instant(
                pid,
                server_tid(0),
                "snapshot",
                "cp",
                SimTime::from_nanos(9_000),
            );
            count("hits", 2);
            count("hits", 3);
            observe("lat", SimDuration::from_micros(10));
        });
        assert!(!enabled());
        assert_eq!(report.counter("hits"), 5);
        assert_eq!(report.span_count("create"), 1);
        assert_eq!(span_total(&report, "create"), 2_000);
        assert_eq!(report.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn chrome_trace_is_valid_and_deterministic() {
        let run = || {
            capture(|| {
                let pid = begin_run("m");
                name_track(pid, worker_tid(0), "w0");
                span(
                    pid,
                    worker_tid(0),
                    "op",
                    "op",
                    SimTime::from_nanos(1_234),
                    SimTime::from_nanos(5_678),
                );
                instant(pid, worker_tid(0), "tick", "t", SimTime::from_nanos(7_000));
                count("c", 1);
            })
            .1
        };
        let a = run().to_chrome_trace_json();
        let b = run().to_chrome_trace_json();
        assert_eq!(a, b);
        assert!(a.contains("\"ts\":1.234"));
        assert!(a.contains("\"dur\":4.444"));
        assert!(a.contains("\"process_name\""));
        assert!(a.contains("\"thread_name\""));
        // no trailing commas, balanced braces
        assert!(!a.contains(",]") && !a.contains(",}"));
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn metrics_json_is_integer_only_and_stable() {
        let report = capture(|| {
            let pid = begin_run("m");
            span(
                pid,
                0,
                "consistency-point",
                "cp",
                SimTime::ZERO,
                SimTime::from_micros(40),
            );
            count("rpc", 7);
            observe("lat", SimDuration::from_micros(100));
        })
        .1;
        let json = report.to_metrics_json();
        assert!(json.contains("\"rpc\": 7"));
        assert!(json.contains("\"consistency-point\": {\"count\": 1, \"total_ns\": 40000}"));
        assert!(!json.contains('.'), "integers only: {json}");
        assert_eq!(json, report.to_metrics_json());
    }

    #[test]
    fn nested_capture_shadows_outer() {
        let ((inner, outer_count), outer) = capture(|| {
            count("outer", 1);
            let ((), inner) = capture(|| count("inner", 1));
            count("outer", 1);
            (inner, 2u64)
        });
        assert_eq!(inner.counter("inner"), 1);
        assert_eq!(inner.counter("outer"), 0);
        assert_eq!(outer.counter("outer"), outer_count);
        assert_eq!(outer.counter("inner"), 0);
    }

    #[test]
    fn merge_combines_counters_histograms_and_renumbers_pids() {
        let a = capture(|| {
            let pid = begin_run("a");
            span(pid, 0, "op", "op", SimTime::ZERO, SimTime::from_nanos(10));
            count("c", 1);
            observe("h", SimDuration::from_nanos(10));
        })
        .1;
        let b = capture(|| {
            let pid = begin_run("b");
            span(pid, 0, "op", "op", SimTime::ZERO, SimTime::from_nanos(20));
            count("c", 2);
            observe("h", SimDuration::from_nanos(20));
        })
        .1;
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.counter("c"), 3);
        assert_eq!(m.span_count("op"), 2);
        assert_eq!(span_total(&m, "op"), 30);
        assert_eq!(m.histogram("h").unwrap().count(), 2);
        // pids renumbered: the merged trace names two distinct processes
        let trace = m.to_chrome_trace_json();
        assert!(trace.contains("\"pid\":1") && trace.contains("\"pid\":2"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fresh_id_is_zero_when_disabled_and_sequential_when_enabled() {
        assert_eq!(fresh_id(), 0);
        let ((a, b), _) = capture(|| (fresh_id(), fresh_id()));
        assert_eq!((a, b), (1, 2));
        // a fresh capture restarts the counter — ids are per-sink
        let (c, _) = capture(fresh_id);
        assert_eq!(c, 1);
    }

    #[test]
    fn flows_gauges_and_ids_export_to_chrome_trace() {
        let run = || {
            capture(|| {
                let pid = begin_run("m");
                name_track(pid, worker_tid(0), "w0");
                name_track(pid, server_tid(0), "mds");
                let op = fresh_id();
                let rpc = fresh_id();
                span_with_id(
                    pid,
                    worker_tid(0),
                    "create",
                    "op",
                    SimTime::ZERO,
                    SimTime::from_micros(10),
                    op,
                    0,
                );
                flow_start(
                    pid,
                    worker_tid(0),
                    "rpc",
                    "rpc",
                    SimTime::from_micros(1),
                    rpc,
                );
                flow_finish(
                    pid,
                    server_tid(0),
                    "rpc",
                    "rpc",
                    SimTime::from_micros(9),
                    rpc,
                );
                span_with_id(
                    pid,
                    server_tid(0),
                    "rpc",
                    "rpc",
                    SimTime::from_micros(1),
                    SimTime::from_micros(9),
                    rpc,
                    op,
                );
                gauge(
                    pid,
                    server_tid(0),
                    "queue_depth",
                    SimTime::from_micros(5),
                    3,
                );
            })
            .1
        };
        let a = run().to_chrome_trace_json();
        assert_eq!(a, run().to_chrome_trace_json(), "byte-deterministic");
        assert!(a.contains("\"ph\":\"s\""), "flow start: {a}");
        assert!(a.contains("\"ph\":\"f\",\"bp\":\"e\""), "bound flow finish");
        assert!(a.contains("\"args\":{\"id\":1}"), "op span id");
        assert!(a.contains("\"args\":{\"id\":2,\"parent\":1}"), "rpc parent");
        assert!(a.contains("\"ph\":\"C\""), "counter event");
        assert!(
            a.contains("\"name\":\"mds queue_depth\""),
            "gauge track label"
        );
        assert!(!a.contains(",]") && !a.contains(",}"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        let report = run();
        assert_eq!(flow_counts(&report), (1, 1));
        assert_eq!(report.gauge_count(), 1);
        assert_eq!(report.track_name(1, server_tid(0)), Some("mds"));
    }

    #[test]
    fn timeseries_json_groups_series_and_is_deterministic() {
        let run = || {
            capture(|| {
                let pid = begin_run("lustre");
                name_track(pid, server_tid(0), "mds");
                for i in 0..3u64 {
                    gauge(
                        pid,
                        server_tid(0),
                        "queue_depth",
                        SimTime::from_micros(i * 100),
                        i,
                    );
                }
                gauge(
                    pid,
                    ENGINE_TID,
                    "rpcs_outstanding",
                    SimTime::from_micros(50),
                    7,
                );
            })
            .1
        };
        let a = run().to_timeseries_json();
        assert_eq!(a, run().to_timeseries_json());
        assert!(a.contains("\"schema\": \"dmetabench.timeseries/v1\""));
        assert!(
            a.contains("\"lustre/mds/queue_depth\": [[0,0],[100000,1],[200000,2]]"),
            "{a}"
        );
        assert!(a.contains("\"lustre/tid4194304/rpcs_outstanding\": [[50000,7]]"));
    }

    #[test]
    fn op_records_are_stored_and_merged_with_renumbered_ids() {
        let rec = |pid, id| OpRecord {
            pid,
            tid: 0,
            name: "create",
            id,
            start_ns: 0,
            dur_ns: 100,
            client_ns: 10,
            network_ns: 40,
            queue_ns: 25,
            service_ns: 20,
            lock_ns: 5,
            cache: CacheTag::Miss,
        };
        let a = capture(|| {
            let pid = begin_run("a");
            let id = fresh_id();
            op_record(rec(pid, id));
        })
        .1;
        let b = capture(|| {
            let pid = begin_run("b");
            let id = fresh_id();
            flow_start(pid, 0, "rpc", "rpc", SimTime::ZERO, id);
            flow_finish(pid, 0, "rpc", "rpc", SimTime::ZERO, id);
            op_record(rec(pid, id));
        })
        .1;
        assert_eq!(a.op_records().len(), 1);
        assert_eq!(a.op_records()[0].segment_sum_ns(), 100);
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.op_records().len(), 2);
        assert_eq!(m.op_records()[0].id, 1);
        assert_eq!(m.op_records()[1].id, 2, "merged ids renumbered");
        assert_eq!(m.op_records()[1].pid, 2, "merged pids renumbered");
        assert_eq!(flow_counts(&m), (1, 1));
        // renumbered flow id matches the renumbered op id
        let trace = m.to_chrome_trace_json();
        assert!(trace.contains("\"ph\":\"s\",\"pid\":2,\"tid\":0,\"ts\":0.000,\"id\":2"));
    }

    #[test]
    fn hostile_track_names_escape_in_all_exports() {
        let report = capture(|| {
            let pid = begin_run("run \"quoted\"\\back\nline");
            name_track(pid, worker_tid(0), "w\t0\u{1}");
            gauge(pid, worker_tid(0), "queue_depth", SimTime::ZERO, 1);
            span(
                pid,
                worker_tid(0),
                "op",
                "op",
                SimTime::ZERO,
                SimTime::from_nanos(10),
            );
        })
        .1;
        for json in [
            report.to_chrome_trace_json(),
            report.to_metrics_json(),
            report.to_timeseries_json(),
        ] {
            assert!(!json.contains('\u{1}'), "raw control char leaked: {json}");
            assert!(!json.contains("run \"quoted\""), "unescaped quote: {json}");
        }
        let ts = report.to_timeseries_json();
        assert!(ts.contains("run \\\"quoted\\\"\\\\back\\nline/w\\t0\\u0001/queue_depth"));
    }
}
