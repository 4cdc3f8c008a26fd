//! Flag-gated wall-clock profiling of the simulator's own hot path.
//!
//! The virtual clock tells us where *simulated* time goes; this module tells
//! us where *host* time goes while simulating — the input ROADMAP item 3
//! (simulator speed) needs. It is deliberately minimal: named scoped timers
//! aggregated into a global registry, **off by default**, costing one
//! relaxed atomic load per call site when disabled.
//!
//! Unlike [`telemetry`](crate::telemetry), nothing here is deterministic —
//! readings are wall-clock and vary run to run — so profiling data never
//! feeds baselines or traces; it is printed on demand (`dmetabench analyze`
//! with `DMETABENCH_PROF=1`) and thrown away.
//!
//! # Threads
//!
//! Scopes accumulate into a **thread-local** table (no lock on the hot
//! path) which is folded into the global registry when the thread exits.
//! A thread has exited once it is joined through its handle, as the
//! partitioned simulation engine joins its workers; the implicit join at
//! the end of `std::thread::scope` (the suite runner, `run_independent`)
//! can return before the thread-local destructors have run, so their last
//! samples may land after the main thread reads [`snapshot`]. A thread
//! that wants its numbers visible earlier (or that never exits, like the
//! main thread) calls [`flush`]; [`snapshot`]/[`report`] flush the calling
//! thread themselves.
//!
//! # Example
//!
//! ```
//! use simcore::prof;
//!
//! prof::set_enabled(true);
//! {
//!     let _t = prof::scope("doctest.work");
//!     // ... hot code ...
//! }
//! prof::set_enabled(false);
//! let snap = prof::snapshot();
//! assert!(snap.iter().any(|(name, calls, _)| *name == "doctest.work" && *calls >= 1));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<BTreeMap<&'static str, (u64, u128)>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, (u64, u128)>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Per-thread accumulation buffer. Its `Drop` runs as the thread-local
/// destructor on thread exit, folding whatever the thread measured into the
/// global registry — that is what keeps the profile truthful when scopes run
/// on suite-runner or simulation-engine worker threads.
#[derive(Default)]
struct LocalAgg {
    map: BTreeMap<&'static str, (u64, u128)>,
}

impl LocalAgg {
    fn flush_into_registry(&mut self) {
        if self.map.is_empty() {
            return;
        }
        if let Ok(mut reg) = registry().lock() {
            for (name, (calls, ns)) in std::mem::take(&mut self.map) {
                let e = reg.entry(name).or_insert((0, 0));
                e.0 += calls;
                e.1 += ns;
            }
        }
    }
}

impl Drop for LocalAgg {
    fn drop(&mut self) {
        self.flush_into_registry();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalAgg> = RefCell::new(LocalAgg::default());
}

/// Whether profiling is on. One relaxed atomic load — the only cost an
/// instrumented hot path pays when profiling is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn profiling on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enable profiling if the `DMETABENCH_PROF` environment variable is set to
/// anything but `0`. Returns the resulting state.
pub fn init_from_env() -> bool {
    if std::env::var_os("DMETABENCH_PROF").is_some_and(|v| v != "0") {
        set_enabled(true);
    }
    enabled()
}

/// A running scoped timer; its `Drop` adds the elapsed wall time to this
/// thread's accumulation buffer under `name` (folded into the global
/// registry on thread exit or [`flush`]).
#[must_use = "a profiling scope measures until dropped"]
#[derive(Debug)]
pub struct Scope {
    name: &'static str,
    start: Instant,
}

impl Drop for Scope {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos();
        // No lock: per-scope cost is a thread-local BTreeMap update, so
        // concurrent engine workers don't serialize on a global mutex.
        let _ = LOCAL.try_with(|local| {
            let mut local = local.borrow_mut();
            let e = local.map.entry(self.name).or_insert((0, 0));
            e.0 += 1;
            e.1 += elapsed;
        });
    }
}

/// Fold the calling thread's accumulation buffer into the global registry.
/// Worker threads flush automatically on exit; long-lived threads (the main
/// thread) call this — or [`snapshot`]/[`report`], which flush for them.
pub fn flush() {
    let _ = LOCAL.try_with(|local| local.borrow_mut().flush_into_registry());
}

/// Start a scoped timer under `name`, or `None` when profiling is off.
/// Bind it (`let _t = prof::scope(...)`) so it measures to the end of the
/// enclosing block.
#[inline]
pub fn scope(name: &'static str) -> Option<Scope> {
    if !enabled() {
        return None;
    }
    Some(Scope {
        name,
        start: Instant::now(),
    })
}

/// Current aggregates as `(name, calls, total_ns)`, sorted by name.
/// Flushes the calling thread's buffer first; exited worker threads have
/// already flushed theirs.
#[must_use]
pub fn snapshot() -> Vec<(&'static str, u64, u128)> {
    flush();
    registry()
        .lock()
        .map(|reg| {
            reg.iter()
                .map(|(name, &(calls, ns))| (*name, calls, ns))
                .collect()
        })
        .unwrap_or_default()
}

/// Clear all aggregates (e.g. between benchmark phases). Clears the global
/// registry and the calling thread's buffer; buffers of still-running other
/// threads are out of reach and fold in whenever those threads exit.
pub fn reset() {
    let _ = LOCAL.try_with(|local| local.borrow_mut().map.clear());
    if let Ok(mut reg) = registry().lock() {
        reg.clear();
    }
}

/// Human-readable report of the aggregates, sorted by total time
/// descending. Empty string when nothing was recorded.
#[must_use]
pub fn report() -> String {
    let mut rows = snapshot();
    if rows.is_empty() {
        return String::new();
    }
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let mut out = String::from("wall-clock profile (DMETABENCH_PROF):\n");
    out.push_str("  total_ms     calls  avg_ns  scope\n");
    for (name, calls, ns) in rows {
        let avg = if calls == 0 {
            0
        } else {
            ns / u128::from(calls)
        };
        out.push_str(&format!(
            "  {:>8.3}  {:>8}  {:>6}  {}\n",
            ns as f64 / 1e6,
            calls,
            avg,
            name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests share the one global `set_enabled` flag; each holds this
    /// lock so another cannot switch profiling off while it records.
    static FLAG: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        FLAG.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_scope_is_none_and_records_nothing() {
        let _flag = exclusive();
        // default state: off (other tests may toggle; don't assert global)
        set_enabled(false);
        assert!(scope("prof.test.disabled").is_none());
        assert!(!snapshot()
            .iter()
            .any(|(name, _, _)| *name == "prof.test.disabled"));
    }

    #[test]
    fn enabled_scope_accumulates_calls_and_time() {
        let _flag = exclusive();
        set_enabled(true);
        for _ in 0..3 {
            let _t = scope("prof.test.enabled");
            std::hint::black_box(());
        }
        set_enabled(false);
        let snap = snapshot();
        let row = snap
            .iter()
            .find(|(name, _, _)| *name == "prof.test.enabled")
            .expect("scope recorded");
        assert!(row.1 >= 3, "calls: {}", row.1);
        let rep = report();
        assert!(rep.contains("prof.test.enabled"), "{rep}");
    }

    #[test]
    fn worker_thread_scopes_fold_into_global_registry() {
        let _flag = exclusive();
        set_enabled(true);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        for _ in 0..5 {
                            let _t = scope("prof.test.worker");
                            std::hint::black_box(());
                        }
                        // no explicit flush: the thread-local destructor flushes
                    })
                })
                .collect();
            // Join each thread: the scope's implicit join returns once the
            // closures finish, which can be before their thread-local
            // destructors have run.
            for w in workers {
                w.join().expect("worker thread");
            }
        });
        set_enabled(false);
        let snap = snapshot();
        let row = snap
            .iter()
            .find(|(name, _, _)| *name == "prof.test.worker")
            .expect("worker scopes aggregated after thread exit");
        assert!(row.1 >= 20, "calls: {}", row.1);
    }
}
