//! Conservative parallel discrete-event runtime: domain partitioning with
//! lookahead windows.
//!
//! A sequential simulation owns one [`Scheduler`](crate::Scheduler) and pops
//! events in global timestamp order. This module provides the classic
//! *conservative* (Chandy–Misra–Bryant style) alternative: the simulation is
//! partitioned into **domains**, each with its own scheduler, and all domains
//! advance together through synchronized time windows
//!
//! ```text
//! [window_start, window_start + lookahead)
//! ```
//!
//! where `lookahead` is a lower bound on the latency of any cross-domain
//! interaction (for the cluster engine: the minimum cross-domain network
//! link latency from `netsim`). A message sent at time `t ≥ window_start`
//! arrives at `t + latency ≥ window_start + lookahead`, i.e. **never inside
//! the current window** — so every domain may execute all of its events with
//! `at < window_end` without ever seeing a straggler from a peer. No
//! rollback, no anti-messages.
//!
//! # One barrier per window
//!
//! Domains are split into contiguous chunks, one per thread. Each window is
//! one *round*, and every thread runs the same round body:
//!
//! 1. read the agreed window start (or stop, when it is "never");
//! 2. for each of its domains: drain the domain's mailbox, run the window,
//!    publish the domain's sends with one mailbox lock per destination;
//! 3. propose the next window start — the minimum of its domains'
//!    `next_time()` and of the `deliver_at` of every message it sent this
//!    round — by `fetch_min` into a shared slot;
//! 4. meet the other threads at the barrier, once.
//!
//! Delivery schedules a message's effect at its `deliver_at`, so the
//! proposal is exactly the minimum pending time the domains would report
//! after draining: the window sequence is the one a drain-then-agree loop
//! with two barriers per window would produce. Mail sent in round `k` is
//! drained in round `k + 1`, so mailboxes are double-buffered by round
//! parity: a fast thread's next-round sends never mix into a slow thread's
//! current drain. The proposal slots are triple-buffered by round mod 3,
//! so a slot is reset one round after its last read and one round before
//! its next write.
//!
//! The barrier is a small sense-reversing barrier on atomics. A waiting
//! thread spins (`std::hint::spin_loop`) for a bounded count, then yields.
//! It spins only while the window threads fit on the host's cores
//! (`available_parallelism`); an oversubscribed barrier yields at once, so
//! a spinner never burns the time slice of the thread it waits for.
//! `threads == 1` runs the same round body inline on the caller's thread.
//!
//! # Determinism
//!
//! The runtime is *bit-deterministic by construction* at any thread count:
//!
//! * Each domain's event order is decided solely by its own scheduler.
//! * Cross-domain messages are buffered in per-destination mailboxes and
//!   drained at the start of the next window **sorted by
//!   `(deliver_at, src, seq)`** — a canonical total order independent of
//!   which thread pushed first.
//! * Every thread reads the same agreed start after the barrier, so every
//!   domain observes the same window sequence.
//!
//! Running the same domain set on one thread or N threads therefore produces
//! identical per-domain event sequences — the cluster engine exploits this
//! to keep traces and results byte-identical between `--sim-threads 1` and
//! `--sim-threads N` (pinned by `tests/parsim_determinism.rs` and a proptest
//! against a single-scheduler oracle in `tests/par_window.rs`). The
//! [`WindowStats`] of a run are a property of the domains, too.
//!
//! [`run_independent`] is the degenerate case — fully independent tasks
//! (lookahead = ∞, no cross traffic) dispatched over a thread pool, used by
//! benches whose cells share no state (`stress_grid_mt`).

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::prof;
use crate::time::{SimDuration, SimTime};

/// A cross-domain message in flight: the payload plus the coordinates that
/// define its canonical delivery order.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Absolute virtual time the message takes effect at the destination.
    /// Always `≥` the end of the window it was sent in (lookahead rule).
    pub deliver_at: SimTime,
    /// Sending domain index.
    pub src: u32,
    /// Per-source send sequence number (1-based, monotonic). Together with
    /// `(deliver_at, src)` this gives mailbox drains a total order that does
    /// not depend on thread interleaving.
    pub seq: u64,
    /// The payload.
    pub msg: M,
}

/// Per-domain send buffer handed to [`WindowDomain::run_window`].
///
/// Sends are buffered locally during the window, one buffer per
/// destination (no locking on the send path), and published to the
/// destination mailboxes at the end of the window. The outbox enforces the
/// conservative contract: a message may never be scheduled to land inside
/// the window it was sent from.
#[derive(Debug)]
pub struct Outbox<M> {
    src: u32,
    seq: u64,
    window_end: SimTime,
    /// Earliest `deliver_at` sent since the last publish, in nanoseconds
    /// (`u64::MAX` when nothing was sent).
    earliest: u64,
    /// Unpublished sends, indexed by destination domain.
    by_dest: Vec<Vec<Envelope<M>>>,
}

impl<M> Outbox<M> {
    /// The send buffer of domain `src`. [`run_conservative`] builds one per
    /// domain; a caller that drives a lone domain itself (no peers, so
    /// nothing is ever sent) passes its own.
    #[must_use]
    pub fn new(src: u32) -> Self {
        Outbox {
            src,
            seq: 0,
            window_end: SimTime::ZERO,
            earliest: u64::MAX,
            by_dest: Vec::new(),
        }
    }

    /// Queue `msg` for delivery to domain `dest` at `deliver_at`.
    ///
    /// # Panics
    ///
    /// Panics if `deliver_at` lies inside the current window — that would
    /// mean the declared lookahead overstates the real minimum cross-domain
    /// latency, which would break conservative execution.
    pub fn send(&mut self, dest: usize, deliver_at: SimTime, msg: M) {
        assert!(
            deliver_at >= self.window_end,
            "lookahead violation: message for domain {dest} delivers at {deliver_at}, \
             inside the current window (end {})",
            self.window_end
        );
        self.seq += 1;
        self.earliest = self.earliest.min(deliver_at.as_nanos());
        if dest >= self.by_dest.len() {
            self.by_dest.resize_with(dest + 1, Vec::new);
        }
        self.by_dest[dest].push(Envelope {
            deliver_at,
            src: self.src,
            seq: self.seq,
            msg,
        });
    }

    /// Move every buffered send into its destination's mailbox, one lock
    /// per destination, and return the earliest `deliver_at` among them
    /// (`u64::MAX` when there were none).
    fn publish(&mut self, mailboxes: &[Mailbox<M>], parity: usize) -> u64 {
        for (dest, buf) in self.by_dest.iter_mut().enumerate() {
            if !buf.is_empty() {
                mailboxes[dest][parity]
                    .lock()
                    .expect("mailbox poisoned")
                    .append(buf);
            }
        }
        std::mem::replace(&mut self.earliest, u64::MAX)
    }
}

/// One partition of a simulation, driven through lookahead windows by
/// [`run_conservative`].
pub trait WindowDomain: Send {
    /// Cross-domain message payload.
    type Msg: Send;

    /// Earliest pending local event time, or `None` when the domain has
    /// nothing scheduled. Used to propose the next window start; the run
    /// terminates when every domain is idle and no message is in flight.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Accept one inbound message. The implementation schedules whatever
    /// local events the message implies at `env.deliver_at` (never earlier:
    /// the next window start is proposed from `deliver_at` before the
    /// message is delivered). Envelopes are handed over sorted by
    /// `(deliver_at, src, seq)`, so scheduling them in call order is
    /// canonical.
    fn deliver(&mut self, env: Envelope<Self::Msg>);

    /// Execute every local event with `time < end`, sending any
    /// cross-domain messages through `out`.
    fn run_window(&mut self, end: SimTime, out: &mut Outbox<Self::Msg>);
}

/// Deterministic statistics of one [`run_conservative`] call. They depend
/// only on the domains, never on the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Lookahead windows executed.
    pub windows: u64,
    /// Cross-domain messages sent.
    pub messages: u64,
}

/// Drain a mailbox into its domain in canonical order.
fn drain_into<D: WindowDomain>(domain: &mut D, inbox: &mut Vec<Envelope<D::Msg>>) {
    if inbox.is_empty() {
        return;
    }
    inbox.sort_by_key(|a| (a.deliver_at, a.src, a.seq));
    for env in inbox.drain(..) {
        domain.deliver(env);
    }
}

/// Advance `domains` to completion through synchronized lookahead windows,
/// executing on `threads` OS threads (domains are split into contiguous
/// chunks, one per thread; `threads == 1` runs on the caller's thread).
///
/// The result state of every domain, and the returned [`WindowStats`], are
/// bit-identical for any `threads` value — see the module docs for why.
///
/// # Panics
///
/// Panics if `lookahead` is zero (a zero-width window cannot make progress)
/// or if a domain violates the lookahead contract when sending. A panic
/// inside a domain is rethrown with its own payload.
pub fn run_conservative<D: WindowDomain>(
    domains: &mut [D],
    lookahead: SimDuration,
    threads: usize,
) -> WindowStats {
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative windows need a positive lookahead"
    );
    let n = domains.len();
    if n == 0 {
        return WindowStats::default();
    }
    // The first window starts at the earliest pending event; nothing is in
    // flight yet.
    let first = domains
        .iter_mut()
        .filter_map(WindowDomain::next_time)
        .min()
        .map_or(u64::MAX, SimTime::as_nanos);
    // Contiguous chunking; every thread gets at least one domain. Ceil
    // division can yield fewer chunks than `threads` (e.g. 4 domains on 3
    // threads → two chunks of 2), so the barrier must be sized from the
    // chunks actually built, never from the requested thread count.
    let chunk = n.div_ceil(threads.max(1).min(n));
    let mut chunks: Vec<(usize, &mut [D])> = domains
        .chunks_mut(chunk)
        .enumerate()
        .map(|(i, c)| (i * chunk, c))
        .collect();
    let shared = Shared::new(n, lookahead, chunks.len(), first);
    let per_thread: Vec<WindowStats> = if let [(base, chunk)] = chunks.as_mut_slice() {
        vec![shared.run_rounds(*base, chunk)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|(base, chunk)| {
                    let shared = &shared;
                    s.spawn(move || shared.run_rounds(base, chunk))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("window thread exits cleanly; panics travel via the poison slot")
                })
                .collect()
        })
    };
    // Rethrow the first domain panic with its original payload, as if the
    // caller had run that domain inline.
    let payload = match shared.payload.into_inner() {
        Ok(p) => p,
        Err(e) => e.into_inner(),
    };
    if let Some(p) = payload {
        resume_unwind(p);
    }
    WindowStats {
        windows: per_thread[0].windows,
        messages: per_thread.iter().map(|s| s.messages).sum(),
    }
}

/// The window end for a given start: `start + lookahead`, saturating at the
/// far end of virtual time.
fn window_end(start: SimTime, lookahead: SimDuration) -> SimTime {
    SimTime::from_nanos(start.as_nanos().saturating_add(lookahead.as_nanos()))
}

/// A domain's inbound mail, one buffer per round parity.
type Mailbox<M> = [Mutex<Vec<Envelope<M>>>; 2];

/// What the window threads share.
struct Shared<M> {
    lookahead: SimDuration,
    /// `mailboxes[domain][parity]`: mail sent in a round of that parity,
    /// drained in the round after.
    mailboxes: Vec<Mailbox<M>>,
    /// Proposed window starts in nanoseconds, indexed by round mod 3:
    /// `starts[k % 3]` collects the proposals made in round `k - 1` and is
    /// read after the barrier that closes it.
    starts: [AtomicU64; 3],
    /// Panic poison, one flag per round parity. A domain panic must not
    /// strand sibling threads at the barrier: the panicking thread records
    /// the payload, raises the flag of its round, and still proposes and
    /// meets the barrier that closes the round; every thread checks that
    /// flag right after that barrier and exits. The original payload is
    /// rethrown after all threads are joined, so callers see the domain's
    /// own panic message.
    ///
    /// Two flags, because a single one races: a fast sibling can pass the
    /// barrier that closes round `k`, run round `k + 1`, panic and raise
    /// the flag while a slow thread has not yet checked it after the same
    /// barrier. The slow thread would then exit a round early and strand
    /// the sibling at the next barrier. With one flag per parity, every
    /// write to the flag of round `k` happens before some thread arrives at
    /// the barrier closing round `k`, and the next write to that flag could
    /// only come in round `k + 2`, after the next barrier — so between the
    /// barrier and its check the value is frozen and all threads decide
    /// identically.
    poisoned: [AtomicBool; 2],
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    barrier: SpinBarrier,
}

impl<M: Send> Shared<M> {
    fn new(domains: usize, lookahead: SimDuration, threads: usize, first: u64) -> Self {
        Shared {
            lookahead,
            mailboxes: (0..domains)
                .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                .collect(),
            starts: [
                AtomicU64::new(first),
                AtomicU64::new(u64::MAX),
                AtomicU64::new(u64::MAX),
            ],
            poisoned: [AtomicBool::new(false), AtomicBool::new(false)],
            payload: Mutex::new(None),
            barrier: SpinBarrier::new(threads),
        }
    }

    /// One thread's share of the run: the rounds of the domains
    /// `base..base + chunk.len()`, until every domain is idle with no mail
    /// in flight or some domain panicked.
    fn run_rounds<D: WindowDomain<Msg = M>>(&self, base: usize, chunk: &mut [D]) -> WindowStats {
        let mut outboxes: Vec<Outbox<M>> = (0..chunk.len())
            .map(|i| Outbox::new(u32::try_from(base + i).expect("domain index overflow")))
            .collect();
        let mut inbox = Vec::new();
        let mut round: usize = 0;
        loop {
            let start = self.starts[round % 3].load(Ordering::SeqCst);
            if start == u64::MAX {
                break; // unanimous: nothing pending anywhere, no mail in flight
            }
            // Last read one round ago, next written one round from now.
            self.starts[(round + 2) % 3].store(u64::MAX, Ordering::SeqCst);
            let parity = round % 2;
            let end = window_end(SimTime::from_nanos(start), self.lookahead);
            let proposal = catch_unwind(AssertUnwindSafe(|| {
                let mut next = u64::MAX;
                for (i, (domain, out)) in chunk.iter_mut().zip(&mut outboxes).enumerate() {
                    {
                        let mut mb = self.mailboxes[base + i][parity]
                            .lock()
                            .expect("mailbox poisoned");
                        std::mem::swap(&mut inbox, &mut *mb);
                    }
                    drain_into(domain, &mut inbox);
                    out.window_end = end;
                    domain.run_window(end, out);
                    next = next.min(out.publish(&self.mailboxes, 1 - parity));
                    if let Some(t) = domain.next_time() {
                        next = next.min(t.as_nanos());
                    }
                }
                next
            }))
            .unwrap_or_else(|p| {
                self.poison(p, parity);
                u64::MAX
            });
            self.starts[(round + 1) % 3].fetch_min(proposal, Ordering::SeqCst);
            {
                let _t = prof::scope("par.barrier");
                self.barrier.wait();
            }
            if self.poisoned[parity].load(Ordering::SeqCst) {
                break; // some domain panicked in this round
            }
            round += 1;
        }
        WindowStats {
            windows: round as u64,
            messages: outboxes.iter().map(|o| o.seq).sum(),
        }
    }

    fn poison(&self, p: Box<dyn Any + Send>, parity: usize) {
        let mut slot = match self.payload.lock() {
            Ok(slot) => slot,
            Err(e) => e.into_inner(),
        };
        slot.get_or_insert(p);
        self.poisoned[parity].store(true, Ordering::SeqCst);
    }
}

/// Spins a waiting thread makes before it starts yielding. At roughly
/// 10–50 ns per `spin_loop` hint this covers some 40–200 µs, several times
/// the work of a window that holds a few dozen events per thread.
const SPIN_LIMIT: u32 = 1 << 12;

/// A sense-reversing barrier for the window threads. Each crossing flips
/// `sense`; a thread waits until the sense differs from the one it saw on
/// arrival.
///
/// Orderings: each arrival is an `AcqRel` `fetch_add` on `arrived`, so the
/// last arriver acquires every earlier arrival's writes (the arrivals form
/// one release sequence); it then stores the new sense with `Release`, and
/// each waiter loads it with `Acquire`. Everything a thread wrote before
/// `wait` is therefore visible to every thread after `wait`.
struct SpinBarrier {
    threads: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    /// Spin before yielding; false when the threads outnumber the cores.
    spin: bool,
}

impl SpinBarrier {
    fn new(threads: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        SpinBarrier {
            threads,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            spin: threads <= cores,
        }
    }

    fn wait(&self) {
        // The sense this crossing flips to. Reading it before arriving is
        // safe: it cannot flip until this thread has arrived.
        let target = !self.sense.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.threads {
            // Last to arrive: reset for the next crossing, then release the
            // rest. The waiters touch `arrived` again only after they see
            // the flip, so the reset is ordered before their next arrival.
            self.arrived.store(0, Ordering::Relaxed);
            self.sense.store(target, Ordering::Release);
            return;
        }
        let mut spins = 0;
        while self.sense.load(Ordering::Acquire) != target {
            if self.spin && spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// Run `tasks` fully independent jobs on up to `threads` OS threads and
/// return their results in task order.
///
/// Tasks are claimed from a shared atomic counter in index order, so
/// schedule tasks longest-first for the best makespan. Results are
/// positionally collected; as long as each task is a pure function of its
/// index, the returned vector is deterministic regardless of interleaving.
pub fn run_independent<T, F>(tasks: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(tasks.max(1));
    if threads == 1 {
        return (0..tasks).map(run).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= tasks {
                        break;
                    }
                    let r = run(i);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
                // the scope's implicit join can return before this thread's
                // profile buffer folds in on exit
                prof::flush();
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("independent task completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;

    /// Toy domain: a scheduler of `u64` tokens. Popping an even token logs
    /// it and forwards `token + 1` to the peer domain one lookahead later;
    /// odd tokens just log.
    struct PingDomain {
        id: usize,
        peer: usize,
        sched: Scheduler<u64>,
        log: Vec<(u64, u64)>,
        hops: u64,
    }

    const LOOKAHEAD: SimDuration = SimDuration::from_micros(50);

    impl WindowDomain for PingDomain {
        type Msg = u64;

        fn next_time(&mut self) -> Option<SimTime> {
            self.sched.peek_time()
        }

        fn deliver(&mut self, env: Envelope<u64>) {
            self.sched.schedule_at(env.deliver_at, env.msg);
        }

        fn run_window(&mut self, end: SimTime, out: &mut Outbox<u64>) {
            while self.sched.peek_time().is_some_and(|t| t < end) {
                let (at, token) = self.sched.pop().expect("peeked event");
                self.log.push((at.as_nanos(), token));
                if token % 2 == 0 && self.hops > 0 {
                    self.hops -= 1;
                    out.send(self.peer, at + LOOKAHEAD, token + 1);
                    out.send(self.peer, at + LOOKAHEAD * 2, token + 2);
                }
            }
        }
    }

    fn make_domains() -> Vec<PingDomain> {
        (0..4)
            .map(|id| {
                let mut sched = Scheduler::new();
                for k in 0..8u64 {
                    sched.schedule_at(SimTime::from_micros(10 * (k + 1) + id as u64), k * 2);
                }
                PingDomain {
                    id,
                    peer: (id + 1) % 4,
                    sched,
                    log: Vec::new(),
                    hops: 32,
                }
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let mut seq = make_domains();
        run_conservative(&mut seq, LOOKAHEAD, 1);
        for threads in [2, 3, 4, 8] {
            let mut par = make_domains();
            run_conservative(&mut par, LOOKAHEAD, threads);
            for (a, b) in seq.iter().zip(par.iter()) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.log, b.log,
                    "domain {} diverged at {threads} threads",
                    a.id
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn undershooting_the_lookahead_panics() {
        struct Bad(Scheduler<u64>);
        impl WindowDomain for Bad {
            type Msg = u64;
            fn next_time(&mut self) -> Option<SimTime> {
                self.0.peek_time()
            }
            fn deliver(&mut self, env: Envelope<u64>) {
                self.0.schedule_at(env.deliver_at, env.msg);
            }
            fn run_window(&mut self, end: SimTime, out: &mut Outbox<u64>) {
                while self.0.peek_time().is_some_and(|t| t < end) {
                    let (at, _) = self.0.pop().unwrap();
                    out.send(1, at, 0); // zero latency: lands inside the window
                }
            }
        }
        let mut a = Scheduler::new();
        a.schedule_at(SimTime::from_micros(1), 7);
        let mut domains = vec![Bad(a), Bad(Scheduler::new())];
        run_conservative(&mut domains, LOOKAHEAD, 1);
    }

    /// A domain that panics while executing its third event. Pre-fix, the
    /// panicking thread never reached the window barrier again and every
    /// sibling thread blocked forever; this test then hung instead of
    /// failing. Post-fix the panic is rethrown to the caller with its
    /// original message at every thread count.
    struct Boom {
        sched: Scheduler<u64>,
        popped: u64,
        detonate: bool,
    }

    impl WindowDomain for Boom {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.sched.peek_time()
        }
        fn deliver(&mut self, env: Envelope<u64>) {
            self.sched.schedule_at(env.deliver_at, env.msg);
        }
        fn run_window(&mut self, end: SimTime, out: &mut Outbox<u64>) {
            while self.sched.peek_time().is_some_and(|t| t < end) {
                let (at, token) = self.sched.pop().expect("peeked event");
                self.popped += 1;
                if self.detonate && self.popped == 3 {
                    panic!("deliberate domain panic at {at}");
                }
                out.send((token as usize + 1) % 4, at + LOOKAHEAD, token);
            }
        }
    }

    fn booming_domains() -> Vec<Boom> {
        (0..4usize)
            .map(|id| {
                let mut sched = Scheduler::new();
                for k in 0..16u64 {
                    sched.schedule_at(SimTime::from_micros(10 * (k + 1)), id as u64);
                }
                Boom {
                    sched,
                    popped: 0,
                    detonate: id == 2,
                }
            })
            .collect()
    }

    #[test]
    fn domain_panic_propagates_across_the_barrier() {
        for threads in [2, 4] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut domains = booming_domains();
                run_conservative(&mut domains, LOOKAHEAD, threads);
            }))
            .expect_err("the Boom domain must abort the run");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("deliberate domain panic"),
                "original panic message lost at {threads} threads: {msg:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "deliberate domain panic")]
    fn domain_panic_propagates_sequentially_too() {
        let mut domains = booming_domains();
        run_conservative(&mut domains, LOOKAHEAD, 1);
    }

    #[test]
    fn window_stats_match_at_every_thread_count() {
        let mut seq = make_domains();
        let stats = run_conservative(&mut seq, LOOKAHEAD, 1);
        assert!(stats.windows > 0 && stats.messages > 0, "{stats:?}");
        for threads in 2..=8 {
            let mut par = make_domains();
            assert_eq!(
                run_conservative(&mut par, LOOKAHEAD, threads),
                stats,
                "window statistics differ at {threads} threads"
            );
        }
    }

    /// Where a [`Tripwire`] domain panics. Both sites run inside the window
    /// round, after other threads may already have published mail.
    #[derive(Clone, Copy, PartialEq)]
    enum Trip {
        Deliver,
        NextTime,
    }

    /// Four domains pass hop-limited tokens round the ring; domain 2 panics
    /// on its `after`-th call of the armed method.
    struct Tripwire {
        id: usize,
        sched: Scheduler<u64>,
        armed: Option<(Trip, u32)>,
        calls: u32,
    }

    impl Tripwire {
        fn trip(&mut self, site: Trip) {
            if let Some((armed, after)) = self.armed {
                if armed == site {
                    self.calls += 1;
                    if self.calls == after {
                        match site {
                            Trip::Deliver => panic!("deliberate deliver panic"),
                            Trip::NextTime => panic!("deliberate next_time panic"),
                        }
                    }
                }
            }
        }
    }

    impl WindowDomain for Tripwire {
        type Msg = u64;
        fn next_time(&mut self) -> Option<SimTime> {
            self.trip(Trip::NextTime);
            self.sched.peek_time()
        }
        fn deliver(&mut self, env: Envelope<u64>) {
            self.trip(Trip::Deliver);
            self.sched.schedule_at(env.deliver_at, env.msg);
        }
        fn run_window(&mut self, end: SimTime, out: &mut Outbox<u64>) {
            while self.sched.peek_time().is_some_and(|t| t < end) {
                let (at, hops) = self.sched.pop().expect("peeked event");
                if hops > 0 {
                    out.send((self.id + 1) % 4, at + LOOKAHEAD, hops - 1);
                }
            }
        }
    }

    #[test]
    fn panics_in_deliver_and_next_time_propagate_without_hanging() {
        // both trip inside a window round, not in the caller's first
        // next_time call: the 3rd delivery comes in the 2nd window and the
        // 5th next_time call in the 4th
        for (site, after, want) in [
            (Trip::Deliver, 3, "deliberate deliver panic"),
            (Trip::NextTime, 5, "deliberate next_time panic"),
        ] {
            for threads in [1, 2, 4] {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut domains: Vec<Tripwire> = (0..4)
                        .map(|id| {
                            let mut sched = Scheduler::new();
                            for k in 0..4u64 {
                                sched.schedule_at(SimTime::from_micros(10 * (k + 1)), 8);
                            }
                            Tripwire {
                                id,
                                sched,
                                armed: (id == 2).then_some((site, after)),
                                calls: 0,
                            }
                        })
                        .collect();
                    run_conservative(&mut domains, LOOKAHEAD, threads);
                }))
                .expect_err("the tripwire must abort the run");
                let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
                assert!(
                    msg.contains(want),
                    "original panic message lost at {threads} threads: {msg:?}"
                );
            }
        }
    }

    #[test]
    fn barrier_lets_no_thread_leave_a_round_early() {
        const ROUNDS: usize = 10_000;
        // 2 threads spin on a 2-core host; 3 threads oversubscribe it and
        // yield at once. On a larger host both spin.
        for threads in [2, 3] {
            let barrier = SpinBarrier::new(threads);
            let arrived = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| {
                        for round in 1..=ROUNDS {
                            arrived.fetch_add(1, Ordering::SeqCst);
                            barrier.wait();
                            // every thread has arrived for this round; the
                            // fastest may already have arrived for the next
                            let seen = arrived.load(Ordering::SeqCst);
                            assert!(
                                seen >= threads * round && seen < threads * (round + 1),
                                "{threads} threads, round {round}: counter {seen}"
                            );
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn run_independent_returns_results_in_task_order() {
        for threads in [1, 2, 4] {
            let got = run_independent(17, threads, |i| i * i);
            assert_eq!(got, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }
}
