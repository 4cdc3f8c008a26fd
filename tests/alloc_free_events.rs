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
//! The memfs op path underneath every model is pinned the same way: after
//! warm-up a `stat` allocates nothing, a `create`+`close` at most two
//! on average (the new entry's name, and the directory index's growth),
//! and `apply_meta_op` adds next to nothing on top when the parents exist.
//!
//! This binary has its own counting `#[global_allocator]`. It counts per
//! thread, and an unpartitioned run executes on the calling thread, so the
//! test harness's other threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::{run_sim, Disturbance, OpStream, SimConfig, WorkerSpec};
use dfs::{
    apply_meta_op, ClientCtx, DistFs, FsResources, MetaOp, OpPlan, ServerId, ServerSpec, Stage,
};
use memfs::{FsResult, MemFs, Vfs};
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

/// Allocations `f` makes on this thread.
fn allocs_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Ops per memfs kernel in the counted phase.
const MEMFS_OPS: u64 = 10_000;

#[test]
fn memfs_op_path_allocations_are_bounded() {
    let mut fs = MemFs::new();
    for dir in ["/a", "/a/b", "/a/b/c", "/a/b/c/d", "/w"] {
        fs.mkdir(dir).unwrap();
    }
    let fd = fs.create("/a/b/c/d/leaf").unwrap();
    fs.close(fd).unwrap();
    fs.stat("/a/b/c/d/leaf").unwrap();
    let stats = allocs_of(|| {
        for _ in 0..MEMFS_OPS {
            std::hint::black_box(fs.stat("/a/b/c/d/leaf").unwrap());
        }
    });
    assert_eq!(
        stats, 0,
        "{MEMFS_OPS} depth-5 stats made {stats} allocations"
    );

    // Paths are formatted before counting; the first half is the warm-up.
    let paths: Vec<String> = (0..2 * MEMFS_OPS).map(|i| format!("/w/f{i}")).collect();
    let (warm, counted) = paths.split_at(MEMFS_OPS as usize);
    for p in warm {
        let fd = fs.create(p).unwrap();
        fs.close(fd).unwrap();
    }
    let creates = allocs_of(|| {
        for p in counted {
            let fd = fs.create(p).unwrap();
            fs.close(fd).unwrap();
        }
    });
    let per_op = creates as f64 / MEMFS_OPS as f64;
    assert!(
        per_op <= 2.0,
        "create+close made {per_op:.2} allocations per op ({creates} for {MEMFS_OPS})"
    );

    // The `smp_create` shape: depth 4 into parents that already exist.
    let ops: Vec<MetaOp> = (0..2 * MEMFS_OPS)
        .map(|i| MetaOp::Create {
            path: format!("/bench/n0p0/sub0/f{i}"),
            data_bytes: 0,
        })
        .collect();
    let (warm, counted) = ops.split_at(MEMFS_OPS as usize);
    let mut fs = MemFs::new();
    for op in warm {
        apply_meta_op(&mut fs, op).unwrap();
    }
    let applied = allocs_of(|| {
        for op in counted {
            apply_meta_op(&mut fs, op).unwrap();
        }
    });
    let per_op = applied as f64 / MEMFS_OPS as f64;
    assert!(
        per_op <= 3.0,
        "apply_meta_op Create made {per_op:.2} allocations per op ({applied} for {MEMFS_OPS})"
    );
}
