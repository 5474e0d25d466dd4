//! Property-based tests on mmap views and brick/array equivalence.

mod common;

use bricklib::prelude::*;
use common::*;
use memview::{host_page_size, ContiguousView};
use std::sync::Arc;

/// A view over any page-aligned segment list shows exactly the file
/// content at those offsets, in order — including repeats.
#[test]
fn view_matches_segments() {
    cases("view_matches_segments", 16, |rng| {
        let ps = host_page_size();
        let file = Arc::new(MemFile::create("prop-view", 10 * ps).unwrap());
        {
            let mut m = file.map_all().unwrap();
            for page in 0..10 {
                m.as_f64_mut()[page * ps / 8..(page + 1) * ps / 8].fill(page as f64);
            }
        }
        let segments: Vec<Segment> = (0..rng.gen_range(1usize..6))
            .map(|_| {
                let (page, len) = (rng.gen_range(0usize..8), rng.gen_range(1usize..3));
                Segment { file_offset: page * ps, len: len.min(10 - page).max(1) * ps }
            })
            .collect();
        let view = ContiguousView::build(&file, &segments).unwrap();
        let data = view.as_f64();
        let mut cursor = 0usize;
        for s in &segments {
            let first_page = s.file_offset / ps;
            for p in 0..s.len / ps {
                let v = data[cursor + p * ps / 8];
                assert_eq!(v, (first_page + p) as f64);
            }
            cursor += s.len / 8;
        }
    });
}

/// Writing any element through the base mapping is visible through
/// any view containing its page.
#[test]
fn aliasing_everywhere() {
    cases("aliasing_everywhere", 16, |rng| {
        let (page, elem) = (rng.gen_range(0usize..6), rng.gen_range(0usize..64));
        let value = f64_in(rng, -1e9, 1e9);
        let ps = host_page_size();
        let file = Arc::new(MemFile::create("prop-alias", 6 * ps).unwrap());
        let mut base = file.map_all().unwrap();
        let view = ContiguousView::build(
            &file,
            &[Segment { file_offset: page * ps, len: ps }, Segment { file_offset: 0, len: ps }],
        )
        .unwrap();
        base.as_f64_mut()[page * ps / 8 + elem] = value;
        assert_eq!(view.as_f64()[elem], value);
    });
}

/// Brick accessor equals array semantics for random geometry and
/// random probe offsets (the logical order is storage-independent).
#[test]
fn brick_view_matches_array() {
    cases("brick_view_matches_array", 16, |rng| {
        let (gx, bx) = (rng.gen_range(2usize..4), rng.gen_range(2usize..5));
        let n = gx * bx;
        let grid = BrickGrid::<3>::lexicographic([gx; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(bx), &grid);
        let mut st = info.allocate(1);
        let val = |x: usize, y: usize, z: usize| (x + 10 * y + 100 * z) as f64;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let b = grid.brick_at([x / bx, y / bx, z / bx]);
                    let off = ((z % bx) * bx + (y % bx)) * bx + (x % bx);
                    st.field_mut(b, 0)[off] = val(x, y, z);
                }
            }
        }
        let view = BrickView::new(&info, &st, 0);
        for _ in 0..20 {
            let seed = rng.gen_range(0usize..64);
            let [dx, dy, dz] = [0; 3].map(|_| int_in(rng, -1, 1) as isize);
            let x = seed % n;
            let y = (seed / 2) % n;
            let z = (seed / 3) % n;
            let b = grid.brick_at([x / bx, y / bx, z / bx]);
            let local = [(x % bx) as isize + dx, (y % bx) as isize + dy, (z % bx) as isize + dz];
            let want = val(
                (x as isize + dx).rem_euclid(n as isize) as usize,
                (y as isize + dy).rem_euclid(n as isize) as usize,
                (z as isize + dz).rem_euclid(n as isize) as usize,
            );
            assert_eq!(view.get(b, local), want);
        }
    });
}
