//! Zero-allocation guard for the event backend's steady-state hot path.
//!
//! The scaling claim rests on the scheduler doing O(1) amortized work —
//! and zero heap traffic — per park/wake/re-queue once warm: run
//! queues and barrier wait-lists are preallocated at `Sched::new`, and
//! the transport's message buffers come from the per-rank pool. This
//! test pins that down with a counting global allocator, the same
//! technique as the telemetry guard: after a warmup step, N further
//! exchange steps (with barriers) must perform exactly zero heap
//! allocations on the threads that run ranks. Only rank-running threads
//! count: the harness's own threads allocate
//! whenever they please (libtest files a spawned test in its map after
//! the test thread has started).

#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::{run_cluster_on, Backend, CartTopo, FaultConfig, NetworkModel};

struct CountingAlloc;

/// Allocations made on rank-running threads.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Set once a thread has run rank code (a worker runs nothing else).
    // Const-initialised and without a destructor: reading it never
    // allocates.
    static RUNS_RANKS: Cell<bool> = const { Cell::new(false) };
}

/// Called by a rank at the top of every step: ranks are coroutines and
/// may resume on any worker, so each step marks the thread it is on.
fn on_rank_thread() {
    RUNS_RANKS.with(|f| f.set(true));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if RUNS_RANKS.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(l)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Ring exchange with a barrier per step: parks and wakes flow through
/// the mailbox arm/notify path and the cluster barrier every step, and
/// none of it may allocate once warm. All ranks are inside the same
/// barrier-aligned window, so one counter over the rank-running threads
/// is meaningful — and it is this binary's only test: the counter spans
/// every rank-running thread of the process, so a second test's cluster
/// running in parallel would count into this one's window.
#[test]
fn event_backend_hot_path_is_allocation_free() {
    let n = 8;
    let topo = CartTopo::new(&[n], true);
    let flat = run_cluster_on(
        Backend::Event,
        &topo,
        NetworkModel::instant(),
        FaultConfig::off(),
        |ctx| {
            let size = ctx.size();
            let rank = ctx.rank();
            let right = (rank + 1) % size;
            let left = (rank + size - 1) % size;
            let mut buf = [0.0f64; 4];
            let payload = [rank as f64; 4];
            // Fixed tag, as the exchange engines use (one tag per
            // neighbor direction): the mailbox key and its queue exist
            // after the first step and are reused forever after.
            let mut step = || {
                on_rank_thread();
                let h = ctx.irecv(left, 7).unwrap();
                ctx.isend(right, 7, &payload).unwrap();
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
                ctx.barrier();
            };
            // Warm: first sends populate the buffer pools and mailbox
            // slots, the barrier wait-list grows to capacity.
            for _ in 0..3 {
                step();
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..20 {
                step();
            }
            let after = ALLOCS.load(Ordering::Relaxed);
            after - before
        },
    );
    for (rank, leaked) in flat.iter().enumerate() {
        assert_eq!(
            *leaked, 0,
            "rank {rank}: steady-state exchange allocated {leaked} times in 20 steps"
        );
    }
}
