//! The counting global allocator of this crate's unit-test binary, for
//! zero-allocation guards in the style of
//! `crates/netsim/tests/event_alloc.rs`: it counts the allocations made
//! on threads that rank code has marked, so the harness's threads and
//! the clusters of tests running in parallel stay out of the count.

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

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

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting
// neither allocates (the thread-local is const-initialised and has no
// destructor) nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `l`, which is `System.alloc`'s.
        unsafe { System.alloc(l) }
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from this allocator with layout `l`, that is
        // from `System`, which is what `System.dealloc` requires.
        unsafe { System.dealloc(p, l) }
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `p`/`l` came from `System` as above, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(p, l, new_size) }
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
/// time: the count is shared, so a counting test holds [`counting_alone`].
pub(crate) fn rank_thread_allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

pub(crate) fn counting_alone() -> std::sync::MutexGuard<'static, ()> {
    static COUNTING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    COUNTING.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
