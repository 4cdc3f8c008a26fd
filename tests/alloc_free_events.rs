//! Event delivery allocates nothing after warm-up, CPU events included.
//!
//! A plan-only toy model (client CPU work, then one RPC to a server) runs
//! four workers on a two-core node next to a CPU hog, so every op arrives
//! on a contended processor-sharing CPU. Its streams hand out ops whose
//! path is an empty `String`, so neither the streams nor the model allocate
//! per op. A run of 2N ops must then make exactly as many heap allocations
//! as a run of N ops: whatever the engine allocates is set-up cost, never a
//! cost per delivered event.
//!
//! The first N ops of both runs are identical, so this asks that the extra
//! N ops allocate nothing. A run does warm up on its own: the scheduler's
//! slot table and bucket vectors grow to the largest population they meet.
//! With this model the last such growth comes within 128k ops (one
//! simulated second). N is 256k ops, so an allocation the 2N run still
//! makes is a cost that recurs, not a warm-up.
//!
//! This binary has its own counting `#[global_allocator]`. It counts per
//! thread, and an unpartitioned run executes on the calling thread, so the
//! test harness's other threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::{run_sim, Disturbance, OpStream, SimConfig, WorkerSpec};
use dfs::{ClientCtx, DistFs, FsResources, MetaOp, OpPlan, ServerId, ServerSpec, Stage};
use memfs::FsResult;
use simcore::{DetRng, SimDuration, SimTime};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn note() {
    // A const-initialised `Cell` has no destructor, so this never allocates
    // and never finds the slot torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a thread-local
// `Cell`, which does not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

const WORKERS: usize = 4;
/// Ops per worker in the N run.
const OPS: u64 = 64_000;

/// Every op is `ClientCpu → NetDelay → Server → NetDelay`, planned without
/// touching a namespace.
struct PlanOnly;

impl DistFs for PlanOnly {
    fn resources(&self) -> FsResources {
        FsResources {
            servers: vec![ServerSpec {
                name: "srv".to_owned(),
                parallelism: 2,
            }],
            semaphores: Vec::new(),
        }
    }

    fn register_clients(&mut self, _nodes: usize) {}

    fn plan_into(
        &mut self,
        _client: ClientCtx,
        _op: &MetaOp,
        _now: SimTime,
        _rng: &mut DetRng,
        out: &mut OpPlan,
    ) -> FsResult<()> {
        out.reset();
        out.stages.push(Stage::ClientCpu {
            demand: SimDuration::from_micros(3),
        });
        let delay = SimDuration::from_micros(10);
        out.push_rpc(ServerId(0), SimDuration::from_micros(5), delay, delay);
        Ok(())
    }

    fn drop_caches(&mut self, _node: usize) {}

    fn name(&self) -> &str {
        "plan-only"
    }
}

/// Run `ops` ops per worker; returns the allocations the run made on this
/// thread and the ops it completed.
fn counted_run(ops: u64) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let node_names = vec!["n0".to_owned()];
    let workers: Vec<WorkerSpec> = (0..WORKERS).map(|p| WorkerSpec::new(0, p)).collect();
    let streams: Vec<Box<dyn OpStream>> = (0..WORKERS)
        .map(|_| {
            Box::new(move |i: u64| {
                (i < ops).then(|| MetaOp::Stat {
                    path: String::new(),
                })
            }) as Box<dyn OpStream>
        })
        .collect();
    let mut cfg = SimConfig::default();
    cfg.node_cores = 2;
    cfg.disturbances.push(Disturbance::CpuHog {
        node: 0,
        start: SimTime::ZERO,
        end: SimTime::from_secs(3_600),
        weight: 2.0,
    });
    let result = run_sim(&mut PlanOnly, &node_names, workers, streams, &cfg);
    let done = result.workers.iter().map(|w| w.ops_done).sum();
    drop(result);
    (ALLOCS.with(Cell::get) - before, done)
}

#[test]
fn delivered_events_allocate_nothing_after_warm_up() {
    counted_run(OPS); // warm-up: lazily initialised process state
    let (n, done_n) = counted_run(OPS);
    let (two_n, done_2n) = counted_run(2 * OPS);
    assert_eq!(
        done_n,
        WORKERS as u64 * OPS,
        "every op of the N run completes"
    );
    assert_eq!(done_2n, 2 * done_n, "every op of the 2N run completes");
    assert_eq!(
        two_n,
        n,
        "a run of {done_2n} ops made {two_n} allocations against {n} for {done_n} ops: \
         the {} extra allocations are a cost per delivered event",
        two_n.saturating_sub(n)
    );
}
