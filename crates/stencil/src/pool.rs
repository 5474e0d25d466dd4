//! The kernels' one worker pool: every data-parallel loop of this crate
//! runs through [`for_runs`], the counterpart of the OpenMP threads the
//! paper spreads each rank's stencil over.
//!
//! A call deals contiguous runs of whole items (bricks or z-planes) to
//! the calling thread plus `available_parallelism() − 1` helper
//! threads. Each item is computed by exactly one thread in the kernel's
//! own op order, so the bits never depend on the split. The helpers are
//! spawned once, by the first call large enough to split, and park
//! between jobs; they live as long as the process and are never joined.
//! A call that finds the pool already dealing another job (a second
//! rank's kernel on a multi-worker event run) runs on its caller alone:
//! there is no queue and no nesting. The caller blocks its OS thread
//! until every helper has left its job.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;

/// Below this many computed elements a call runs on its caller alone,
/// with no atomics and no wake-up: 128 selected 8³ bricks, or a 512 KiB
/// face.
pub(crate) const SPLIT_MIN_ELEMS: usize = 1 << 16;

/// Elements per dealt run (32 8³ bricks): coarse enough that taking a
/// run costs nothing next to computing it, fine enough that a brick
/// mask's uneven runs still balance.
const RUN_ELEMS: usize = 1 << 14;

/// Call `f(first_item, run)` over runs of whole `item`-long items that
/// cover `data`, where `first_item` is the index of the run's first
/// item. `work` is the number of elements the call really computes (the
/// selected bricks × elements per brick, the planes × plane length); a
/// call below [`SPLIT_MIN_ELEMS`] is the single call `f(0, data)`.
pub(crate) fn for_runs(
    data: &mut [f64],
    item: usize,
    work: usize,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    let per_run = (RUN_ELEMS / item.max(1)).max(1);
    let run_len = per_run * item;
    if work < SPLIT_MIN_ELEMS || data.len() <= run_len || inline_only() || helpers() == 0 {
        return f(0, data);
    }
    // Acquire pairs with `close`'s Release: a caller that takes the pool
    // sees the previous job withdrawn.
    if POOL.busy.swap(true, Ordering::Acquire) {
        return f(0, data);
    }
    let runs = Mutex::new(data.chunks_mut(run_len).enumerate());
    let job = || loop {
        let next = runs.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((i, run)) = next else { break };
        f(i * per_run, run);
    };
    #[cfg(test)]
    SPLITS.with(|n| n.set(n.get() + 1));
    POOL.deal(&job);
}

/// A job as the helpers see it: "take runs until none is left".
type Job<'a> = dyn Fn() + Sync + 'a;

struct Pool {
    /// Held by the one caller dealing a job.
    busy: AtomicBool,
    slot: Mutex<Slot>,
    /// Helpers park here between jobs.
    posted: Condvar,
    /// The dealing caller waits here for the helpers to leave its job.
    left: Condvar,
}

struct Slot {
    /// The job being dealt, if any (see [`Pool::deal`] for why its
    /// lifetime may be erased).
    job: Option<&'static Job<'static>>,
    /// Bumped per job, so a helper joins each job at most once.
    epoch: u64,
    /// Helpers currently inside `job`.
    inside: usize,
    /// The first helper panic of the job, for the caller to resume.
    panic: Option<Box<dyn Any + Send>>,
}

static POOL: Pool = Pool {
    busy: AtomicBool::new(false),
    slot: Mutex::new(Slot {
        job: None,
        epoch: 0,
        inside: 0,
        panic: None,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

/// The number of helper threads, spawning them on first use.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        let n = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        for i in 0..n {
            thread::Builder::new()
                .name(format!("stencil-pool-{i}"))
                .spawn(|| POOL.serve())
                .expect("spawning a stencil pool helper");
        }
        n
    })
}

impl Pool {
    /// Slot access. Every update of the slot leaves it valid (jobs and
    /// helper panics run outside the lock), so a poisoned lock is taken
    /// as it is.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish `job`, work on it, withdraw it, wait for the helpers
    /// inside it to leave, and resume the first panic (the caller's own
    /// before a helper's, each with its original payload).
    fn deal(&self, job: &Job<'_>) {
        // SAFETY: only the lifetime changes. The erased reference lives
        // in `slot.job` from here until `close` below, and a helper uses
        // it only between taking it out of the slot and decrementing
        // `inside`, both under the slot lock. `close` clears the slot and
        // waits for `inside == 0`, and this function cannot leave before
        // `close` returns: the caller's share runs under `catch_unwind`,
        // and nothing else in between panics (the lock and the condvar
        // wait recover from poisoning). So no helper touches `job`, or
        // the borrows it captures, after this call returns or unwinds.
        let erased = unsafe { std::mem::transmute::<&Job<'_>, &'static Job<'static>>(job) };
        {
            let mut slot = self.lock();
            slot.job = Some(erased);
            slot.epoch = slot.epoch.wrapping_add(1);
        }
        self.posted.notify_all();
        let mine = panic::catch_unwind(AssertUnwindSafe(job));
        let theirs = self.close();
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }

    /// Withdraw the posted job, wait until no helper is inside it, and
    /// release the pool; returns the first helper panic.
    fn close(&self) -> Option<Box<dyn Any + Send>> {
        let mut slot = self.lock();
        slot.job = None;
        while slot.inside > 0 {
            slot = self.left.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        let panic = slot.panic.take();
        drop(slot);
        self.busy.store(false, Ordering::Release);
        panic
    }

    /// A helper's life: join each posted job once, catching its panics.
    fn serve(&self) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut slot = self.lock();
                loop {
                    match slot.job {
                        Some(job) if slot.epoch != seen => {
                            seen = slot.epoch;
                            slot.inside += 1;
                            break job;
                        }
                        _ => {
                            slot = self
                                .posted
                                .wait(slot)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            let done = panic::catch_unwind(AssertUnwindSafe(job));
            let mut slot = self.lock();
            if let Err(payload) = done {
                slot.panic.get_or_insert(payload);
            }
            slot.inside -= 1;
            if slot.inside == 0 {
                self.left.notify_one();
            }
        }
    }
}

#[cfg(not(test))]
fn inline_only() -> bool {
    false
}

#[cfg(test)]
thread_local! {
    /// Jobs this thread dealt to the pool.
    static SPLITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Set inside [`tests::inline`]: this thread's calls never split.
    static INLINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn inline_only() -> bool {
    INLINE.with(std::cell::Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        apply_bricks, apply_bricks_gather, apply_bricks_serial, ArrayGrid, KernelPlan,
        StencilShape, VarCoefPlan,
    };
    use brick::{BrickDims, BrickGrid, BrickInfo, BrickStorage};
    use layout::Dir;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Held by every test that deals a job, so no other test of this
    /// binary finds the pool busy and runs inline under it.
    static DEALING: Mutex<()> = Mutex::new(());

    fn dealing() -> MutexGuard<'static, ()> {
        DEALING.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `f()` with every pool call of this thread run on the thread alone.
    fn inline<R>(f: impl FnOnce() -> R) -> R {
        INLINE.with(|c| c.set(true));
        let r = f();
        INLINE.with(|c| c.set(false));
        r
    }

    /// `f()`, asserting that it dealt a job iff this host has a helper
    /// (one CPU: `available_parallelism()` is 1 and nothing splits).
    fn splitting<R>(f: impl FnOnce() -> R) -> R {
        let before = SPLITS.with(std::cell::Cell::get);
        let r = f();
        let dealt = SPLITS.with(std::cell::Cell::get) > before;
        assert_eq!(dealt, helpers() > 0, "the call did not take the split path");
        r
    }

    fn on_helper() -> bool {
        thread::current()
            .name()
            .is_some_and(|n| n.starts_with("stencil-pool-"))
    }

    /// Spin (yielding) until `flag` is set; a helper that never joins
    /// fails the test instead of hanging it.
    fn wait_for(flag: &AtomicBool) {
        let t0 = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "no helper joined the job"
            );
            thread::yield_now();
        }
    }

    #[test]
    fn runs_cover_every_item_once_with_its_index() {
        let _g = dealing();
        let (item, items) = (100, 1000);
        let mut data = vec![-1.0; item * items];
        let calls = AtomicUsize::new(0);
        splitting(|| {
            for_runs(&mut data, item, item * items, |first, run| {
                calls.fetch_add(1, Ordering::SeqCst);
                assert_eq!(run.len() % item, 0, "a run holds whole items");
                for (i, it) in (first..).zip(run.chunks_mut(item)) {
                    assert!(it.iter().all(|&v| v == -1.0), "item {i} dealt twice");
                    it.fill(i as f64);
                }
            })
        });
        for (i, it) in data.chunks(item).enumerate() {
            assert!(it.iter().all(|&v| v == i as f64), "item {i}");
        }
        let runs = calls.load(Ordering::SeqCst);
        assert_eq!(
            runs,
            if helpers() > 0 {
                items.div_ceil(RUN_ELEMS / item)
            } else {
                1
            }
        );
    }

    #[test]
    fn a_call_below_the_split_size_is_one_inline_call() {
        let mut data = vec![0.0; 4 * SPLIT_MIN_ELEMS];
        let before = SPLITS.with(std::cell::Cell::get);
        let calls = AtomicUsize::new(0);
        // Large storage, small selection: `work` decides, not the length.
        for_runs(&mut data, 512, SPLIT_MIN_ELEMS - 1, |first, run| {
            assert_eq!((first, run.len()), (0, 4 * SPLIT_MIN_ELEMS));
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(SPLITS.with(std::cell::Cell::get), before);
    }

    /// A call made while the pool deals another job (here: from inside
    /// that job, on the caller and on a helper) runs on its own thread
    /// instead of queueing or nesting.
    #[test]
    fn a_call_that_finds_the_pool_busy_runs_inline() {
        let _g = dealing();
        let mut outer = vec![0.0; 4 * RUN_ELEMS];
        let inner_calls = AtomicUsize::new(0);
        for_runs(&mut outer, 1, 4 * RUN_ELEMS, |_, run| {
            let mut inner = vec![0.0; 4 * RUN_ELEMS];
            let before = SPLITS.with(std::cell::Cell::get);
            for_runs(&mut inner, 1, 4 * RUN_ELEMS, |first, r| {
                assert_eq!(
                    (first, r.len()),
                    (0, 4 * RUN_ELEMS),
                    "a nested call was split"
                );
                r.fill(1.0);
            });
            assert_eq!(SPLITS.with(std::cell::Cell::get), before);
            assert!(inner.iter().all(|&v| v == 1.0));
            inner_calls.fetch_add(1, Ordering::SeqCst);
            run.fill(2.0);
        });
        assert!(outer.iter().all(|&v| v == 2.0));
        assert_eq!(
            inner_calls.load(Ordering::SeqCst),
            if helpers() > 0 { 4 } else { 1 }
        );
    }

    /// A panic on a helper is resumed on the caller with its original
    /// payload, and the pool deals the next job as before.
    #[test]
    fn a_helper_panic_resumes_on_the_caller_and_the_pool_survives() {
        let _g = dealing();
        if helpers() == 0 {
            return;
        }
        let mut data = vec![0.0; 4 * RUN_ELEMS];
        let joined = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            for_runs(&mut data, 1, 4 * RUN_ELEMS, |first, _| {
                if on_helper() {
                    joined.store(true, Ordering::SeqCst);
                    panic!(
                        "stencil crossed a missing neighbor at run {}",
                        first / RUN_ELEMS
                    );
                }
                // The caller holds its first run until a helper has one.
                wait_for(&joined);
            })
        }));
        let payload = caught.expect_err("the helper's panic reached the caller");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the original String payload");
        assert!(
            msg.starts_with("stencil crossed a missing neighbor at run "),
            "{msg}"
        );

        let helper_ran = AtomicBool::new(false);
        splitting(|| {
            for_runs(&mut data, 1, 4 * RUN_ELEMS, |first, run| {
                if on_helper() {
                    helper_ran.store(true, Ordering::SeqCst);
                } else if first == 0 {
                    wait_for(&helper_ran);
                }
                run.fill(first as f64);
            })
        });
        for (i, run) in data.chunks(RUN_ELEMS).enumerate() {
            assert!(run.iter().all(|&v| v == (i * RUN_ELEMS) as f64));
        }
    }

    // Kernels at a size that splits: 64³ at 8³ bricks (512 bricks), and
    // a boundary-batch-shaped mask (the 296 bricks of the outer shell).

    fn grid64() -> (BrickGrid<3>, BrickInfo<3>) {
        let grid = BrickGrid::<3>::lexicographic([8; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(8), &grid);
        (grid, info)
    }

    fn filled(info: &BrickInfo<3>, fields: usize) -> BrickStorage {
        let mut st = info.allocate(fields);
        for (i, v) in st.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 2654435761) % 1013) as f64 / 7.0 - 60.0;
        }
        st
    }

    fn masks(grid: &BrickGrid<3>) -> [Vec<bool>; 2] {
        let mut shell = vec![false; 512];
        for z in 0..8 {
            for y in 0..8 {
                for x in 0..8 {
                    let edge = [x, y, z].iter().any(|&c| c == 0 || c == 7);
                    shell[grid.brick_at([x, y, z]) as usize] = edge;
                }
            }
        }
        assert_eq!(shell.iter().filter(|&&c| c).count(), 296);
        [vec![true; 512], shell]
    }

    /// Runs `kernel` into a fresh output split and inline, asserts the
    /// split path ran, and returns both outputs.
    fn split_and_inline(
        info: &BrickInfo<3>,
        fields: usize,
        kernel: impl Fn(&mut BrickStorage),
    ) -> (BrickStorage, BrickStorage) {
        let mut split = info.allocate(fields);
        let mut alone = info.allocate(fields);
        split.fill(-3.5);
        alone.fill(-3.5);
        splitting(|| kernel(&mut split));
        inline(|| kernel(&mut alone));
        (split, alone)
    }

    fn bits(s: &[f64]) -> Vec<u64> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn star7_and_block_plans_split_bit_identically() {
        let _g = dealing();
        let (grid, info) = grid64();
        let input = filled(&info, 1);
        for shape in [
            StencilShape::star7_default(),
            StencilShape::cube125_default(),
        ] {
            let plan = KernelPlan::new(&info, &shape, 1, 0);
            for mask in masks(&grid) {
                let (split, alone) =
                    split_and_inline(&info, 1, |out| plan.execute(&input, out, &mask));
                assert_eq!(
                    bits(split.as_slice()),
                    bits(alone.as_slice()),
                    "{} taps",
                    shape.points()
                );
                // The serial reference, or for 125 taps (too slow for a
                // debug build here) the gather kernel, bit-identical to it.
                let mut reference = info.allocate(1);
                reference.fill(-3.5);
                if shape.points() == 7 {
                    apply_bricks_serial(&shape, &info, &input, &mut reference, &mask, 0);
                } else {
                    apply_bricks_gather(&shape, &info, &input, &mut reference, &mask, 0);
                }
                assert_eq!(
                    bits(split.as_slice()),
                    bits(reference.as_slice()),
                    "{} taps",
                    shape.points()
                );
            }
        }
    }

    #[test]
    fn varcoef_gather_and_cube125_bricks_split_bit_identically() {
        let _g = dealing();
        let (grid, info) = grid64();
        let [full, shell] = masks(&grid);
        let coef = filled(&info, crate::VARCOEF_FIELDS);
        let plan = VarCoefPlan::new(&info, crate::VARCOEF_FIELDS);
        let (split, alone) = split_and_inline(&info, 1, |out| plan.execute(&coef, out, &shell));
        assert_eq!(bits(split.as_slice()), bits(alone.as_slice()), "varcoef");

        let input = filled(&info, 1);
        let star13 = StencilShape::star13_default();
        let (split, _) = split_and_inline(&info, 1, |out| {
            apply_bricks_gather(&star13, &info, &input, out, &full, 0)
        });
        let mut serial = info.allocate(1);
        apply_bricks_serial(&star13, &info, &input, &mut serial, &full, 0);
        assert_eq!(bits(split.as_slice()), bits(serial.as_slice()), "gather");

        let cube = StencilShape::cube125_default();
        let (split, alone) = split_and_inline(&info, 1, |out| {
            apply_bricks(&cube, &info, &input, out, &shell, 0)
        });
        assert_eq!(
            bits(split.as_slice()),
            bits(alone.as_slice()),
            "cube125 bricks"
        );
    }

    #[test]
    fn array_kernels_and_faces_split_bit_identically() {
        let _g = dealing();
        for (shape, g) in [
            (StencilShape::star7_default(), 1),
            (StencilShape::star13_default(), 2),
        ] {
            let mut a = ArrayGrid::new([64; 3], g);
            a.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 / 3.0 - 1.7);
            a.fill_ghost_periodic_self();
            let plan = a.plan(&shape);
            let mut split = ArrayGrid::new([64; 3], g);
            let mut alone = split.clone();
            splitting(|| a.apply_plan_into(&plan, &mut split));
            inline(|| a.apply_plan_into(&plan, &mut alone));
            assert_eq!(
                bits(split.as_slice()),
                bits(alone.as_slice()),
                "{} taps",
                shape.points()
            );
            if shape.points() == 13 {
                let mut reference = ArrayGrid::new([64; 3], g);
                a.apply_extended_into(&shape, &mut reference, 0);
                assert_eq!(bits(split.as_slice()), bits(reference.as_slice()), "deltas");
            }
        }
        // 16-deep faces of a 64³ grid: 65,536 elements each, split over
        // 64 x-planes of 1,024 (+x face) and 16 z-planes of 4,096 (+z).
        let mut a = ArrayGrid::new([64; 3], 16);
        a.fill_interior(|x, y, z| (x + 100 * y + 10_000 * z) as f64);
        for dir in [Dir::from_spec(&[1]), Dir::from_spec(&[3])] {
            let (mut split, mut alone) = (Vec::new(), Vec::new());
            splitting(|| a.pack_surface(&dir, &mut split));
            inline(|| a.pack_surface(&dir, &mut alone));
            assert_eq!(split.len(), SPLIT_MIN_ELEMS);
            assert_eq!(bits(&split), bits(&alone));
            let mut into_split = ArrayGrid::new([64; 3], 16);
            let mut into_alone = into_split.clone();
            splitting(|| into_split.unpack_ghost(&dir.mirror(), &split));
            inline(|| into_alone.unpack_ghost(&dir.mirror(), &split));
            assert_eq!(bits(into_split.as_slice()), bits(into_alone.as_slice()));
            assert!(into_split.as_slice().iter().any(|&v| v != 0.0));
        }
    }

    /// A tile-masked array apply over a mask and then over its
    /// complement writes the whole-grid apply bit for bit, split over
    /// the pool and on one thread, for the star7 fast path and the
    /// generic hoisted-delta path (star13).
    #[test]
    fn array_tiles_and_their_complement_equal_the_whole_grid() {
        let _g = dealing();
        let (n, edge) = (64, 8);
        let tiles = (n / edge) * (n / edge) * (n / edge);
        let mask: Vec<bool> = (0..tiles).map(|t| (t * 7 + t / 5) % 3 == 0).collect();
        let (selected, complement) = (|t: usize| mask[t], |t: usize| !mask[t]);
        for (shape, g) in [(StencilShape::star7_default(), 1), (StencilShape::star13_default(), 2)] {
            let mut a = ArrayGrid::new([n; 3], g);
            a.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 / 3.0 - 1.7);
            a.fill_ghost_periodic_self();
            let plan = a.plan(&shape);
            let mut whole = ArrayGrid::new([n; 3], g);
            a.apply_plan_into(&plan, &mut whole);
            for split in [true, false] {
                let run = |f: &mut dyn FnMut()| if split { splitting(f) } else { inline(f) };
                let mut tiled = ArrayGrid::new([n; 3], g);
                run(&mut || a.apply_tiles_into(&plan, &mut tiled, edge, Some(selected)));
                run(&mut || a.apply_tiles_into(&plan, &mut tiled, edge, Some(complement)));
                assert_eq!(bits(tiled.as_slice()), bits(whole.as_slice()), "{} taps", shape.points());
                let mut boxed = ArrayGrid::new([n; 3], g);
                run(&mut || a.apply_tiles_into(&plan, &mut boxed, edge, None::<fn(usize) -> bool>));
                assert_eq!(bits(boxed.as_slice()), bits(whole.as_slice()), "{} taps, no mask", shape.points());
            }
        }
    }
}
