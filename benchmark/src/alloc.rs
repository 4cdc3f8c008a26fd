//! A counting global allocator.
//!
//! Counting is off except during the traced rep, so the timed reps pay one
//! relaxed load per allocation. Each thread also keeps its own count, which
//! lets the layer wrappers charge the allocations made inside one call to
//! that call, even when two simulation threads allocate at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[inline]
fn note() {
    if COUNTING.load(Relaxed) {
        TOTAL.fetch_add(1, Relaxed);
        // A const-initialised `Cell` has no destructor, so this never
        // allocates and never finds the slot torn down.
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only atomics and a
// thread-local `Cell`, and neither allocates.
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

/// Start counting from zero, or stop counting.
pub fn set_counting(on: bool) {
    if on {
        TOTAL.store(0, Relaxed);
    }
    COUNTING.store(on, Relaxed);
}

/// Allocations in the whole process since counting started.
pub fn total() -> u64 {
    TOTAL.load(Relaxed)
}

/// Allocations made so far by the calling thread while counting was on.
pub fn thread_count() -> u64 {
    THREAD.try_with(Cell::get).unwrap_or(0)
}
