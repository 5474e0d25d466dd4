//! The contract of the process-wide pools behind every grid: heap grids
//! (`brick::HeapBacking`) and MemMap's and Shift's mapped grids
//! (`memview::MappedGrid`, behind `MemMapStorage`). In each, a reused
//! grid is zeroed and a grid freed on one thread is the one the next
//! grid of its length gets on another. Every heap grid starts on a
//! 64-byte line; a mapped grid whose file another view still maps is
//! never handed out again, and no send view outlives its run.
//!
//! One `#[test]` in its own binary, so no other test allocates grids
//! from the pools while this one watches them.

use std::sync::Arc;

use bricklib::prelude::*;

const LINE: usize = 64;

#[test]
fn grid_pool_contract() {
    // A storage dirtied and dropped comes back all zeros.
    let len = 27 * 512;
    let mut dirty = BrickStorage::allocate(27, 512, 1);
    dirty.fill(7.0);
    drop(dirty);
    let reused = BrickStorage::allocate(27, 512, 1);
    assert!(reused.as_slice().iter().all(|&x| x == 0.0), "a reused grid is not zeroed");
    drop(reused);

    // A grid dropped on another thread is the next grid on this one.
    let freed = std::thread::spawn(move || {
        let mut s = BrickStorage::allocate(27, 512, 1);
        s.fill(-1.0);
        s.as_slice().as_ptr() as usize
    })
    .join()
    .unwrap();
    let next = BrickStorage::allocate(27, 512, 1);
    assert_eq!(next.as_slice().len(), len);
    assert_eq!(next.as_slice().as_ptr() as usize, freed, "the thread's freed grid was not reused");
    assert!(next.as_slice().iter().all(|&x| x == 0.0));
    drop(next);

    // Brick and array grids start on a line at every length. Both are
    // held at once, so each length checks two distinct buffers.
    let cube = |edge: usize| [edge, edge, edge];
    let lengths = [
        (1, 1, [1, 1, 1]),
        (1, 7, [7, 1, 1]),
        (1, 512, cube(8)),
        (27, 512, cube(24)),
        (18 * 18 * 18, 512, cube(144)),
    ];
    for (bricks, elems, n) in lengths {
        let storage = BrickStorage::allocate(bricks, elems, 1);
        let array = ArrayGrid::new(n, 0);
        assert_eq!(storage.as_slice().len(), array.as_slice().len());
        for (what, ptr) in [("BrickStorage", storage.as_slice().as_ptr()), ("ArrayGrid", array.as_slice().as_ptr())] {
            let into = ptr as usize % LINE;
            assert_eq!(into, 0, "{what} of {} elements starts {into} bytes into a line", bricks * elems);
        }
    }

    // The mapped half, at the grid length of a 16^3 MemMap rank.
    let memmap = CpuMethod::MemMap { page_size: memview::PAGE_4K };
    let cfg = ExperimentConfig { ranks: vec![2, 2, 2], ..ExperimentConfig::k1(memmap, 16) };
    let decomp = cfg.decomp();
    let grid = || MemMapStorage::allocate(&decomp).unwrap();
    let at = |st: &MemMapStorage| st.storage.as_slice().as_ptr() as usize;
    let zeroed = |st: &MemMapStorage| st.storage.as_slice().iter().all(|&x| x == 0.0);

    // A mapped grid dirtied and dropped comes back all zeros.
    let mut dirty = grid();
    dirty.storage.fill(7.0);
    let (dirty_at, dirty_file) = (at(&dirty), Arc::downgrade(dirty.file()));
    drop(dirty);
    let reused = grid();
    let same_file = dirty_file.upgrade().is_some_and(|f| Arc::ptr_eq(&f, reused.file()));
    assert!(same_file && at(&reused) == dirty_at, "a dropped mapped grid was not reused");
    assert!(zeroed(&reused), "a reused mapped grid is not zeroed");
    drop(reused);

    // A mapped grid dropped on another thread is the next grid on this one.
    let freed = std::thread::scope(|s| {
        s.spawn(|| {
            let mut st = grid();
            st.storage.fill(-1.0);
            at(&st)
        })
        .join()
        .unwrap()
    });
    let next = grid();
    assert_eq!(at(&next), freed, "the thread's freed mapped grid was not reused");
    assert!(zeroed(&next));

    // A grid whose file a send view still maps is not taken back: the
    // next grid is another file, mapped by its own whole-file view only.
    let view = ExchangeView::build(&decomp, &next).unwrap();
    let aliased_fd = next.file().raw_fd();
    drop(next);
    let fresh = grid();
    assert_ne!(fresh.file().raw_fd(), aliased_fd, "a grid a view still maps was handed out again");
    assert_eq!(fresh.file().live_mappings(), 1);
    drop(view);
    drop(fresh);

    // After a run, the only mappings left are the pooled grids' own
    // whole-file views, two per rank: every send view dropped with the
    // run, before the grid it maps.
    let ranks: usize = cfg.ranks.iter().product();
    run_experiment(&cfg);
    assert_eq!(memview::live_mapping_count(), 2 * ranks, "a view outlived its run, or a grid missed the pool");
}
