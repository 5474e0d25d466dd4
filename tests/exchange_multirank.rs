//! Multi-rank exchange correctness against analytically-known periodic
//! global fields, for both Layout and MemMap engines, on asymmetric
//! rank grids.

use bricklib::prelude::*;

/// Global field over the full periodic domain.
fn f(gx: i64, gy: i64, gz: i64) -> f64 {
    (gx + 1_000 * gy + 1_000_000 * gz) as f64
}

/// Verify one rank's entire extended field (interior + full ghost rim)
/// against the wrapped global function.
fn check_rank(
    decomp: &BrickDecomp<3>,
    st: &brick::BrickStorage,
    origin: [i64; 3],
    global: [i64; 3],
) -> usize {
    let [nx, ny, nz] = decomp.domain();
    let g = decomp.ghost_width() as isize;
    let mut errors = 0;
    for z in -g..nz as isize + g {
        for y in -g..ny as isize + g {
            for x in -g..nx as isize + g {
                let got = st.as_slice()[decomp.element_offset([x, y, z], 0)];
                let want = f(
                    (origin[0] + x as i64).rem_euclid(global[0]),
                    (origin[1] + y as i64).rem_euclid(global[1]),
                    (origin[2] + z as i64).rem_euclid(global[2]),
                );
                if got != want {
                    errors += 1;
                }
            }
        }
    }
    errors
}

fn fill_rank(decomp: &BrickDecomp<3>, st: &mut brick::BrickStorage, origin: [i64; 3]) {
    let [nx, ny, nz] = decomp.domain();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let off = decomp.element_offset([x as isize, y as isize, z as isize], 0);
                st.as_mut_slice()[off] =
                    f(origin[0] + x as i64, origin[1] + y as i64, origin[2] + z as i64);
            }
        }
    }
}

fn run_layout_case(rank_dims: [usize; 3], sub: usize) {
    let decomp =
        BrickDecomp::<3>::layout_mode([sub; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let ex = Exchanger::layout(&decomp);
    let topo = CartTopo::new(&rank_dims, true);
    let global = [
        (rank_dims[0] * sub) as i64,
        (rank_dims[1] * sub) as i64,
        (rank_dims[2] * sub) as i64,
    ];
    let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let coords = ctx.topo().coords(ctx.rank());
        let origin = [
            (coords[0] * sub) as i64,
            (coords[1] * sub) as i64,
            (coords[2] * sub) as i64,
        ];
        let mut st = decomp.allocate();
        fill_rank(&decomp, &mut st, origin);
        ex.exchange(ctx, &mut st).unwrap();
        check_rank(&decomp, &st, origin, global)
    });
    for (rank, e) in errors.iter().enumerate() {
        assert_eq!(*e, 0, "rank {rank} has ghost errors ({rank_dims:?}, {sub}^3)");
    }
}

#[test]
fn layout_2x1x1() {
    run_layout_case([2, 1, 1], 24);
}

#[test]
fn layout_2x2x1() {
    run_layout_case([2, 2, 1], 24);
}

#[test]
fn layout_2x2x2() {
    run_layout_case([2, 2, 2], 16);
}

#[test]
fn layout_3x2x1_asymmetric() {
    run_layout_case([3, 2, 1], 16);
}

#[test]
fn memmap_2x2x1() {
    let sub = 24usize;
    let rank_dims = [2usize, 2, 1];
    let decomp = packfree::memmap::memmap_decomp(
        [sub; 3],
        8,
        BrickDims::cubic(8),
        1,
        surface3d(),
        memview::PAGE_4K,
    );
    let topo = CartTopo::new(&rank_dims, true);
    let global = [
        (rank_dims[0] * sub) as i64,
        (rank_dims[1] * sub) as i64,
        (rank_dims[2] * sub) as i64,
    ];
    let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let coords = ctx.topo().coords(ctx.rank());
        let origin = [
            (coords[0] * sub) as i64,
            (coords[1] * sub) as i64,
            (coords[2] * sub) as i64,
        ];
        let mut st = MemMapStorage::allocate(&decomp).expect("memfd");
        let mut ev = ExchangeView::build(&decomp, &st).expect("views");
        fill_rank(&decomp, &mut st.storage, origin);
        ev.exchange(ctx, &mut st).unwrap();
        check_rank(&decomp, &st.storage, origin, global)
    });
    for (rank, e) in errors.iter().enumerate() {
        assert_eq!(*e, 0, "rank {rank} has ghost errors");
    }
}

/// Exchanging twice in a row without touching the data must be
/// idempotent (the pattern is Static: ghosts are simply rewritten with
/// the same values).
#[test]
fn exchange_is_idempotent() {
    let decomp = BrickDecomp::<3>::layout_mode([24; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let ex = Exchanger::layout(&decomp);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let equal = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let mut st = decomp.allocate();
        fill_rank(&decomp, &mut st, [0, 0, 0]);
        ex.exchange(ctx, &mut st).unwrap();
        let snapshot = st.as_slice().to_vec();
        ex.exchange(ctx, &mut st).unwrap();
        st.as_slice() == snapshot.as_slice()
    });
    assert!(equal[0]);
}

/// The exchange must preserve every interior value untouched.
#[test]
fn exchange_never_writes_interior() {
    let decomp = BrickDecomp::<3>::layout_mode([32; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let ex = Exchanger::layout(&decomp);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let ok = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let mut st = decomp.allocate();
        fill_rank(&decomp, &mut st, [7, 11, 13]);
        let before: Vec<f64> = (0..32)
            .flat_map(|z| (0..32).flat_map(move |y| (0..32).map(move |x| (x, y, z))))
            .map(|(x, y, z)| st.as_slice()[decomp.element_offset([x, y, z], 0)])
            .collect();
        ex.exchange(ctx, &mut st).unwrap();
        let after: Vec<f64> = (0..32)
            .flat_map(|z| (0..32).flat_map(move |y| (0..32).map(move |x| (x, y, z))))
            .map(|(x, y, z)| st.as_slice()[decomp.element_offset([x, y, z], 0)])
            .collect();
        before == after
    });
    assert!(ok[0]);
}

/// The wire-level trace agrees with the planner's statistics.
#[test]
fn trace_matches_stats() {
    let decomp = BrickDecomp::<3>::layout_mode([32; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let ex = Exchanger::layout(&decomp);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let events = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        ctx.enable_profiling();
        let mut st = decomp.allocate();
        ex.exchange(ctx, &mut st).unwrap();
        ctx.take_timeline().msgs
    });
    let sends: Vec<_> = events[0].iter().filter(|e| e.send).collect();
    let recvs: Vec<_> = events[0].iter().filter(|e| !e.send).collect();
    assert_eq!(sends.len(), ex.stats().messages);
    assert_eq!(recvs.len(), ex.stats().messages);
    let sent_bytes: usize = sends.iter().map(|e| e.bytes).sum();
    assert_eq!(sent_bytes, ex.stats().wire_bytes);
    let recv_bytes: usize = recvs.iter().map(|e| e.bytes).sum();
    assert_eq!(recv_bytes, sent_bytes, "self-periodic: bytes in = bytes out");
}
