//! Zero-allocation guard for the scheduler's steady-state hot path, on
//! both substrates.
//!
//! The scaling claim rests on the scheduler doing O(1) amortized work —
//! and zero heap traffic — per park/wake/re-queue once warm: run
//! queues and barrier wait-lists are preallocated at `Sched::new`, a
//! switch (coroutine or rank-thread token hand-off) allocates nothing,
//! and the transport's message buffers come from the per-rank pool. This
//! test pins that down with a counting global allocator, the same
//! technique as the telemetry guard: after a warmup step, N further
//! exchange steps (with barriers) must perform exactly zero heap
//! allocations on the threads that run ranks. Only rank-running threads
//! count: the harness's own threads allocate
//! whenever they please (libtest files a spawned test in its map after
//! the test thread has started).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use netsim::{run_cluster_on, Backend, CartTopo, FaultConfig, NetworkModel, RankCtx};

struct CountingAlloc;

/// Allocations made on rank-running threads.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Set once a thread has run rank code (a worker runs nothing else).
    // Const-initialised and without a destructor: reading it never
    // allocates.
    static RUNS_RANKS: Cell<bool> = const { Cell::new(false) };
}

/// Called by a rank at the top of every step: a coroutine rank may
/// resume on any worker, so each step marks the thread it is on.
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

/// One step of a ring exchange: `(ctx, left, right, storage)`, where
/// `storage` is the rank's payload run followed by its ghost run.
type Step = fn(&mut RankCtx<'_>, usize, usize, &mut [f64; 8]);

/// Allocations per rank over 20 steps of `step`, after 3 warm-up steps,
/// on an 8-rank ring on `backend` and the default workers.
fn steady_state_allocs(backend: Backend, step: Step) -> Vec<u64> {
    let topo = CartTopo::new(&[8], true);
    run_cluster_on(
        backend,
        &topo,
        NetworkModel::instant(),
        FaultConfig::off(),
        |ctx| {
            let size = ctx.size();
            let rank = ctx.rank();
            let (left, right) = ((rank + size - 1) % size, (rank + 1) % size);
            let mut storage = [rank as f64; 8];
            let mut run = |ctx: &mut RankCtx<'_>| {
                on_rank_thread();
                step(ctx, left, right, &mut storage);
            };
            // Warm: first sends populate the buffer pools and mailbox
            // slots, the barrier wait-list grows to capacity.
            for _ in 0..3 {
                run(ctx);
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..20 {
                run(ctx);
            }
            ALLOCS.load(Ordering::Relaxed) - before
        },
    )
}

/// Fixed tag, as the exchange engines use (one tag per neighbour
/// direction): each rank's one channel is the same every step.
const TAG: u64 = 7;

/// All eager: every message is queued before anyone waits (and lends),
/// so every one takes a pooled buffer and returns it.
fn eager_step(ctx: &mut RankCtx<'_>, left: usize, right: usize, storage: &mut [f64; 8]) {
    let h = ctx.irecv(left, TAG).unwrap();
    ctx.isend(right, TAG, &storage[..4]).unwrap();
    ctx.barrier();
    let (_, ghost) = storage.split_at_mut(4);
    ctx.waitall_into(&[h], &mut [ghost]).unwrap();
    ctx.barrier();
}

/// All direct: every receiver has lent its ghost run before any send,
/// and nothing is ever queued, so every send lands in place.
fn direct_step(ctx: &mut RankCtx<'_>, left: usize, right: usize, storage: &mut [f64; 8]) {
    let h = ctx.irecv(left, TAG).unwrap();
    let ghost = 4..8;
    let mut lend = ctx.lend([(left, TAG)].into_iter(), storage, std::slice::from_ref(&ghost));
    ctx.barrier();
    ctx.isend(right, TAG, lend.outside(0..4)).unwrap();
    lend.complete(ctx, &[h]).unwrap();
    ctx.barrier();
}

/// Rings whose every message takes a path the host cannot change: parks
/// and wakes flow through the mailbox sleep/wake path and the cluster
/// barrier every step, and none of it may allocate once warm. All ranks
/// are inside the same barrier-aligned window, so one counter over the
/// rank-running threads is meaningful — and it is this binary's only
/// test: the counter spans every rank-running thread of the process, so
/// a second test's cluster running in parallel would count into this
/// one's window.
#[test]
fn event_backend_hot_path_is_allocation_free() {
    for backend in [Backend::Event, Backend::Thread] {
        for (name, step) in [("all-eager", eager_step as Step), ("all-direct", direct_step)] {
            for (rank, leaked) in steady_state_allocs(backend, step).iter().enumerate() {
                assert_eq!(
                    *leaked, 0,
                    "{backend}: {name} ring, rank {rank}: steady-state exchange allocated {leaked} times in 20 steps"
                );
            }
        }
    }
}
