//! The counting global allocator of this crate's unit-test binary, for
//! zero-allocation guards in the style of
//! `crates/netsim/tests/event_alloc.rs`: it counts the allocations made
//! on threads that rank code has marked, so the harness's threads and
//! the clusters of tests running in parallel stay out of the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates.
    static RUNS_RANKS: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    if RUNS_RANKS.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count_one();
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(p, l, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mark the calling thread as running ranks. A counted rank calls this
/// at the top of every step: on the event backend it may resume on any
/// worker.
pub(crate) fn on_rank_thread() {
    RUNS_RANKS.with(|f| f.set(true));
}

/// Allocations made so far on marked threads. One counted cluster at a
/// time: the count is shared.
pub(crate) fn rank_thread_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
