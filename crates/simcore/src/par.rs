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
//! # Determinism
//!
//! The runtime is *bit-deterministic by construction* at any thread count:
//!
//! * Each domain's event order is decided solely by its own scheduler.
//! * Cross-domain messages are buffered in per-destination mailboxes and
//!   drained at the window barrier **sorted by `(deliver_at, src, seq)`** —
//!   a canonical total order independent of which thread pushed first.
//! * Windows are synchronized: the next window start is the minimum pending
//!   event time across all domains (an atomic `fetch_min` under a barrier),
//!   so every domain observes the same window sequence.
//!
//! Running the same domain set on one thread or N threads therefore produces
//! identical per-domain event sequences — the cluster engine exploits this
//! to keep traces and results byte-identical between `--sim-threads 1` and
//! `--sim-threads N` (pinned by `tests/parsim_determinism.rs` and a proptest
//! against a single-scheduler oracle in `tests/par_window.rs`).
//!
//! [`run_independent`] is the degenerate case — fully independent tasks
//! (lookahead = ∞, no cross traffic) dispatched over a thread pool, used by
//! benches whose cells share no state (`stress_grid_mt`).

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

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
/// Sends are buffered locally during the window (no locking on the send
/// path) and published to the destination mailboxes at the window barrier.
/// The outbox enforces the conservative contract: a message may never be
/// scheduled to land inside the window it was sent from.
#[derive(Debug)]
pub struct Outbox<M> {
    src: u32,
    seq: u64,
    window_end: SimTime,
    buf: Vec<(usize, Envelope<M>)>,
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
            buf: Vec::new(),
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
        self.buf.push((
            dest,
            Envelope {
                deliver_at,
                src: self.src,
                seq: self.seq,
                msg,
            },
        ));
    }
}

/// One partition of a simulation, driven through lookahead windows by
/// [`run_conservative`].
pub trait WindowDomain: Send {
    /// Cross-domain message payload.
    type Msg: Send;

    /// Earliest pending local event time, or `None` when the domain has
    /// nothing scheduled. Used (under the window barrier) to agree on the
    /// next window start; the run terminates when every domain is idle.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Accept one inbound message. The implementation schedules whatever
    /// local events the message implies at `env.deliver_at`. Envelopes are
    /// handed over sorted by `(deliver_at, src, seq)`, so scheduling them in
    /// call order is canonical.
    fn deliver(&mut self, env: Envelope<Self::Msg>);

    /// Execute every local event with `time < end`, sending any
    /// cross-domain messages through `out`.
    fn run_window(&mut self, end: SimTime, out: &mut Outbox<Self::Msg>);
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
/// chunks, one per thread; `threads == 1` runs fully sequentially).
///
/// The result state of every domain is bit-identical for any `threads`
/// value — see the module docs for why.
///
/// # Panics
///
/// Panics if `lookahead` is zero (a zero-width window cannot make progress)
/// or if a domain violates the lookahead contract when sending.
pub fn run_conservative<D: WindowDomain>(
    domains: &mut [D],
    lookahead: SimDuration,
    threads: usize,
) {
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative windows need a positive lookahead"
    );
    let n = domains.len();
    if n == 0 {
        return;
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        run_windows_seq(domains, lookahead);
    } else {
        run_windows_par(domains, lookahead, threads);
    }
}

/// The window end for a given start: `start + lookahead`, saturating at the
/// far end of virtual time.
fn window_end(start: SimTime, lookahead: SimDuration) -> SimTime {
    SimTime::from_nanos(start.as_nanos().saturating_add(lookahead.as_nanos()))
}

fn run_windows_seq<D: WindowDomain>(domains: &mut [D], lookahead: SimDuration) {
    let n = domains.len();
    let mut outboxes: Vec<Outbox<D::Msg>> = (0..n)
        .map(|i| Outbox::new(u32::try_from(i).expect("domain index overflow")))
        .collect();
    let mut mailboxes: Vec<Vec<Envelope<D::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut inbox = Vec::new();
    loop {
        // 1. drain: messages sent during the previous window
        for (domain, mailbox) in domains.iter_mut().zip(mailboxes.iter_mut()) {
            std::mem::swap(&mut inbox, mailbox);
            drain_into(domain, &mut inbox);
        }
        // 2. agree on the window
        let Some(start) = domains.iter_mut().filter_map(WindowDomain::next_time).min() else {
            break; // every domain idle and no messages in flight: done
        };
        let end = window_end(start, lookahead);
        // 3. execute the window, canonical domain order
        for (i, domain) in domains.iter_mut().enumerate() {
            let out = &mut outboxes[i];
            out.window_end = end;
            domain.run_window(end, out);
            for (dest, env) in out.buf.drain(..) {
                mailboxes[dest].push(env);
            }
        }
    }
}

fn run_windows_par<D: WindowDomain>(domains: &mut [D], lookahead: SimDuration, threads: usize) {
    let n = domains.len();
    let mailboxes: Vec<Mutex<Vec<Envelope<D::Msg>>>> =
        (0..n).map(|_| Mutex::new(Vec::new())).collect();
    // Panic poison: a domain panic must not strand sibling threads at the
    // window barrier. The panicking thread records the payload, raises a
    // flag, and *keeps meeting barriers* for the rest of its round; every
    // thread checks right after the barrier and exits. The original payload
    // is rethrown after all threads have left the scope, so callers see the
    // domain's own panic message.
    //
    // Two flags, one per phase, and each is checked only at the barrier
    // that closes its phase. This is load-bearing: a single flag checked at
    // both barriers races — a fast sibling can pass the propose barrier, run
    // its whole window, panic, and set the flag while a slow thread is still
    // between the propose barrier and its check. The slow thread would then
    // exit one barrier early and strand the sibling at the window barrier.
    // With per-phase flags, every write to a flag happens before some
    // thread's wait on the barrier that guards its check, so after that
    // barrier the value is frozen and all threads decide identically.
    let propose_poisoned = AtomicBool::new(false);
    let window_poisoned = AtomicBool::new(false);
    let payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    // Double-buffered window-minimum slots, indexed by window parity: each
    // round the threads `fetch_min` into the current slot, meet at the
    // barrier, read the agreed minimum, and reset the *other* slot for the
    // next round (safe: nobody touches it again until after the round's
    // closing barrier).
    let min_slot = [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)];
    // Contiguous chunking; every thread gets at least one domain. Ceil
    // division can yield fewer chunks than `threads` (e.g. 4 domains on 3
    // threads → two chunks of 2), so the barrier must be sized from the
    // chunks actually built, never from the requested thread count.
    let chunk = n.div_ceil(threads);
    let mut chunks: Vec<(usize, &mut [D])> = Vec::with_capacity(threads);
    let mut rest = domains;
    let mut base = 0;
    while !rest.is_empty() {
        let take = chunk.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((base, head));
        base += take;
        rest = tail;
    }
    let barrier = Barrier::new(chunks.len());
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(chunks.len());
        for (base, chunk) in chunks {
            let mailboxes = &mailboxes;
            let barrier = &barrier;
            let min_slot = &min_slot;
            let propose_poisoned = &propose_poisoned;
            let window_poisoned = &window_poisoned;
            let payload = &payload;
            handles.push(s.spawn(move || {
                let poison = |p: Box<dyn std::any::Any + Send>, flag: &AtomicBool| {
                    let mut slot = match payload.lock() {
                        Ok(slot) => slot,
                        Err(e) => e.into_inner(),
                    };
                    slot.get_or_insert(p);
                    flag.store(true, Ordering::SeqCst);
                };
                let mut outboxes: Vec<Outbox<D::Msg>> = (0..chunk.len())
                    .map(|i| Outbox::new(u32::try_from(base + i).expect("domain index overflow")))
                    .collect();
                let mut inbox = Vec::new();
                let mut parity = 0;
                loop {
                    // 1+2. drain mailboxes of the domains this thread owns,
                    // then propose the window via fetch_min + barrier. A
                    // panic here poisons the run and votes "idle".
                    let local_min = match catch_unwind(AssertUnwindSafe(|| {
                        for (i, domain) in chunk.iter_mut().enumerate() {
                            {
                                let mut mb = mailboxes[base + i].lock().expect("mailbox poisoned");
                                std::mem::swap(&mut inbox, &mut *mb);
                            }
                            drain_into(domain, &mut inbox);
                        }
                        chunk
                            .iter_mut()
                            .filter_map(WindowDomain::next_time)
                            .min()
                            .map_or(u64::MAX, SimTime::as_nanos)
                    })) {
                        Ok(m) => m,
                        Err(p) => {
                            poison(p, propose_poisoned);
                            u64::MAX
                        }
                    };
                    min_slot[parity].fetch_min(local_min, Ordering::SeqCst);
                    barrier.wait();
                    if propose_poisoned.load(Ordering::SeqCst) {
                        break; // some domain panicked while proposing
                    }
                    let agreed = min_slot[parity].load(Ordering::SeqCst);
                    if agreed == u64::MAX {
                        break; // unanimous: nothing pending anywhere
                    }
                    let end = window_end(SimTime::from_nanos(agreed), lookahead);
                    // 3. execute the window; publish sends at the end
                    if let Err(p) = catch_unwind(AssertUnwindSafe(|| {
                        for (i, domain) in chunk.iter_mut().enumerate() {
                            let out = &mut outboxes[i];
                            out.window_end = end;
                            domain.run_window(end, out);
                            for (dest, env) in out.buf.drain(..) {
                                mailboxes[dest].lock().expect("mailbox poisoned").push(env);
                            }
                        }
                    })) {
                        poison(p, window_poisoned);
                    }
                    min_slot[1 - parity].store(u64::MAX, Ordering::SeqCst);
                    barrier.wait();
                    if window_poisoned.load(Ordering::SeqCst) {
                        break; // some domain panicked inside its window
                    }
                    parity = 1 - parity;
                }
            }));
        }
        for h in handles {
            h.join()
                .expect("window thread exits cleanly; panics travel via the poison slot");
        }
    });
    // Rethrow the first domain panic with its original payload, as if the
    // caller had run that domain inline.
    let first = match payload.into_inner() {
        Ok(p) => p,
        Err(e) => e.into_inner(),
    };
    if let Some(p) = first {
        resume_unwind(p);
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
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                let r = run(i);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
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
    fn run_independent_returns_results_in_task_order() {
        for threads in [1, 2, 4] {
            let got = run_independent(17, threads, |i| i * i);
            assert_eq!(got, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }
}
