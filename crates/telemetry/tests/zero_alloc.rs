//! The disabled recorder must be free on the hot path: no heap
//! allocations from construction through any number of charge/scope/
//! counter calls. Verified with a counting global allocator that counts
//! per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use telemetry::{MsgEvent, Phase, Recorder};

struct Counting;

thread_local! {
    // Per thread, so the harness's other test threads (and its own
    // bookkeeping) cannot move a test's count. Const-initialised and
    // without a destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Allocations made by the calling thread so far.
fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn disabled_path_never_allocates() {
    let before = alloc_count();
    let mut r = Recorder::disabled();
    for i in 0..10_000 {
        r.open("exchange");
        r.charge(Phase::Pack, 1.0);
        r.charge(Phase::Wire, 0.5);
        r.charge(Phase::Wait, 2.0);
        r.close();
        r.count("msgs", i);
        r.observe("bytes", i as f64);
        r.message(MsgEvent { send: true, peer: 1, tag: i, bytes: 8 });
    }
    let t = r.take_timeline();
    assert!(t.spans.is_empty());
    assert!(t.msgs.is_empty());
    assert_eq!(
        alloc_count(),
        before,
        "disabled recorder allocated on the hot path"
    );
}

#[test]
fn enabled_coalesced_charges_stop_allocating() {
    let mut r = Recorder::disabled();
    r.enable(0);
    r.open("exchange");
    r.charge(Phase::Wire, 1.0);
    // Identical adjacent charges coalesce into the existing span, so a
    // steady stream of per-message overhead charges is allocation-free.
    let before = alloc_count();
    for _ in 0..10_000 {
        r.charge(Phase::Wire, 0.25);
    }
    assert_eq!(alloc_count(), before, "coalesced charges allocated");
    r.close();
    let t = r.take_timeline();
    assert_eq!(t.spans.len(), 2);
}
