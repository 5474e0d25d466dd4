//! The kernel pool through the public kernels, at a size that splits
//! (64³ at 8³ bricks: 512 bricks): after one warm-up call per plan,
//! splitting `KernelPlan::execute` calls allocate nothing on any thread;
//! a missing neighbour hit by a helper panics on the caller with the
//! helper's own message; and the pool goes on splitting, bit-identically,
//! after that panic.
//!
//! One test, so the harness runs nothing beside it: the allocator below
//! counts every thread, the pool's helpers included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use brick::{BrickDims, BrickGrid, BrickInfo, BrickStorage};
use stencil::{KernelPlan, StencilShape, VarCoefPlan, VARCOEF_FIELDS};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

fn filled(info: &BrickInfo<3>, fields: usize) -> BrickStorage {
    let mut st = info.allocate(fields);
    for (i, v) in st.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 2654435761) % 1013) as f64 / 7.0 - 60.0;
    }
    st
}

/// The pool's helper threads (`stencil-pool-N`) and the CPU time each
/// has used so far, in clock ticks (`/proc/self/task/*/stat`).
fn helper_ticks() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = task.expect("a task entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if !comm.starts_with("stencil-pool-") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("a task's stat");
        // Fields after the parenthesised name: state is field 3, utime
        // and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')').expect("stat names the task") + 2..];
        let f: Vec<u64> = rest
            .split(' ')
            .skip(11)
            .take(2)
            .map(|v| v.parse().expect("a tick count"))
            .collect();
        out.push((comm.trim().to_string(), f[0] + f[1]));
    }
    out.sort();
    out
}

#[test]
fn split_kernels_allocate_nothing_and_report_a_helper_panic_on_the_caller() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let grid = BrickGrid::<3>::lexicographic([8; 3], true);
    let info = BrickInfo::from_grid(BrickDims::cubic(8), &grid);
    let input = filled(&info, 1);
    let all = vec![true; info.bricks()];
    // The star7 kernel and the block executor (any other shape; 13 taps
    // keeps a debug build quick), whose gather arena is per thread.
    let plans = [
        KernelPlan::new(&info, &StencilShape::star7_default(), 1, 0),
        KernelPlan::new(&info, &StencilShape::star13_default(), 1, 0),
    ];
    let mut outs = [info.allocate(1), info.allocate(1)];
    // Warm-up: the first split spawns the helpers, and each plan's first
    // call sizes every participating thread's arena.
    for (plan, out) in plans.iter().zip(&mut outs) {
        plan.execute(&input, out, &all);
    }
    let want: Vec<Vec<u64>> = outs
        .iter()
        .map(|o| o.as_slice().iter().map(|v| v.to_bits()).collect())
        .collect();
    assert_eq!(
        helper_ticks().len(),
        cores - 1,
        "one helper per further CPU, spawned by the first split"
    );

    // A missing neighbour dealt to a helper. Non-periodic grid stored so
    // that the first run of 32 bricks is interior (the caller's, and
    // long), the second starts with boundary bricks (the helper's first
    // run), and every later selected brick is interior again.
    let lex: Vec<u32> = (0..512).collect();
    let edge = |&l: &u32| [l % 8, l / 8 % 8, l / 64].iter().any(|&c| c == 0 || c == 7);
    let (rim, inner): (Vec<u32>, Vec<u32>) = lex.iter().partition(|l| edge(l));
    let order: Vec<u32> = inner[..32]
        .iter()
        .chain(&rim[..32])
        .chain(&inner[32..])
        .chain(&rim[32..])
        .copied()
        .collect();
    let info_open = BrickInfo::from_grid(
        BrickDims::cubic(8),
        &BrickGrid::from_order([8; 3], false, &order),
    );
    let coef = filled(&info_open, VARCOEF_FIELDS);
    let varcoef = VarCoefPlan::new(&info_open, VARCOEF_FIELDS);
    let mut out = info_open.allocate(1);
    let mut mask = vec![false; 512];
    mask[..32 + 32 + inner.len() - 32].fill(true);

    let seen: Arc<Mutex<Vec<(String, String)>>> = Arc::default();
    let hook_seen = Arc::clone(&seen);
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        let who = std::thread::current().name().unwrap_or("?").to_string();
        let msg = info.payload_as_str().unwrap_or("?").to_string();
        hook_seen.lock().expect("hook log").push((who, msg));
    }));
    let mut helper_hit = false;
    for _attempt in 0..20 {
        seen.lock().expect("hook log").clear();
        let caught =
            panic::catch_unwind(AssertUnwindSafe(|| varcoef.execute(&coef, &mut out, &mask)));
        let payload = caught.expect_err("the kernel crossed a missing neighbour");
        let got = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or(payload.downcast_ref::<&str>().copied());
        let got = got.expect("a message payload");
        assert!(got.contains("stencil crossed a missing neighbor"), "{got}");
        let seen = seen.lock().expect("hook log");
        // Whoever hit it, the caller reads the message that thread panicked with.
        assert!(
            seen.iter().any(|(_, m)| m == got),
            "{got:?} is not one of {seen:?}"
        );
        if seen.iter().all(|(who, _)| who.starts_with("stencil-pool-")) {
            helper_hit = true;
            break;
        }
        if cores == 1 {
            break;
        }
    }
    panic::set_hook(default_hook);
    assert!(
        helper_hit || cores == 1,
        "no attempt had the missing neighbour hit by a helper alone"
    );

    // After the panic: 20 split calls, allocation-free on every thread and
    // bit-identical to the warm-up, with the helpers doing part of them.
    let helpers = helper_ticks();
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..10 {
        for (plan, out) in plans.iter().zip(&mut outs) {
            plan.execute(&input, out, &all);
        }
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(allocs, 0, "split kernel calls allocated");
    for (out, want) in outs.iter().zip(&want) {
        assert!(out
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .eq(want.iter().copied()));
    }
    // Every helper takes part (CPU time is sampled per 10 ms tick, so a
    // loaded host may need a few more calls to show it).
    let t0 = std::time::Instant::now();
    while helper_ticks()
        .iter()
        .zip(&helpers)
        .any(|((_, now), (_, then))| now <= then)
    {
        assert!(
            t0.elapsed().as_secs() < 60,
            "a helper used no CPU time for a minute of split calls"
        );
        plans[0].execute(&input, &mut outs[0], &all);
    }
}
