//! The contract of the process-wide pool behind every heap grid
//! (`brick::HeapBacking`): a reused grid is zeroed, a grid freed on one
//! thread is the buffer the next grid of its length gets on another,
//! and every heap grid starts on a 64-byte line.
//!
//! One `#[test]` in its own binary, so no other test allocates grids
//! from the pool while this one watches it.

use brick::BrickStorage;
use stencil::ArrayGrid;

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
}
