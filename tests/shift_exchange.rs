//! The Shift exchange extension (paper Section 8): dimension-by-
//! dimension halo exchange through mmap views — 6 messages, 3
//! serialized passes, corner data forwarded transitively. Must fill the
//! rim identically to the Put (all-neighbors) exchange.

use bricklib::prelude::*;
use packfree::memmap::memmap_decomp;

/// `schedule`'s exchange of the grid `st`.
fn cut(schedule: Exchanger, st: &MemMapStorage) -> ExchangeSession {
    ExchangeSession::new(&schedule, Some(st)).unwrap()
}

fn f(x: i64, y: i64, z: i64) -> f64 {
    (x + 1_000 * y + 1_000_000 * z) as f64
}

fn fill(decomp: &BrickDecomp<3>, st: &mut MemMapStorage, origin: [i64; 3]) {
    let [nx, ny, nz] = decomp.domain();
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let off = decomp.element_offset([x as isize, y as isize, z as isize], 0);
                st.storage.as_mut_slice()[off] =
                    f(origin[0] + x as i64, origin[1] + y as i64, origin[2] + z as i64);
            }
        }
    }
}

fn ghost_errors(
    decomp: &BrickDecomp<3>,
    st: &MemMapStorage,
    origin: [i64; 3],
    global: [i64; 3],
) -> usize {
    let [nx, ny, nz] = decomp.domain();
    let g = decomp.ghost_width() as isize;
    let mut errors = 0usize;
    for z in -g..nz as isize + g {
        for y in -g..ny as isize + g {
            for x in -g..nx as isize + g {
                let got = st.storage.as_slice()[decomp.element_offset([x, y, z], 0)];
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

#[test]
fn shift_uses_six_messages() {
    let d = memmap_decomp([32; 3], 8, BrickDims::cubic(8), 1, surface3d(), memview::PAGE_4K);
    let st = MemMapStorage::allocate(&d).unwrap();
    let sh = cut(Exchanger::shift(&d), &st);
    assert_eq!(sh.stats().messages, 6, "2 messages per axis pass");
    // Every ghost brick arrives exactly once under either scheme, so
    // the payloads are identical — Shift trades 42 messages for 6 at
    // the cost of 3 serialized latency phases.
    let put = Exchanger::layout(&BrickDecomp::<3>::layout_mode(
        [32; 3],
        8,
        BrickDims::cubic(8),
        1,
        surface3d(),
    ));
    assert_eq!(sh.stats().payload_bytes, put.stats().payload_bytes);
}

#[test]
fn shift_self_periodic_fills_rim() {
    let d = memmap_decomp([32; 3], 8, BrickDims::cubic(8), 1, surface3d(), memview::PAGE_4K);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let mut st = MemMapStorage::allocate(&d).unwrap();
        let mut sh = cut(Exchanger::shift(&d), &st);
        fill(&d, &mut st, [0, 0, 0]);
        sh.exchange(ctx, &mut st).unwrap();
        ghost_errors(&d, &st, [0, 0, 0], [32, 32, 32])
    });
    assert_eq!(errors[0], 0);
}

#[test]
fn shift_multirank_matches_put() {
    let sub = 24usize;
    let rank_dims = [2usize, 2, 1];
    let d = memmap_decomp([sub; 3], 8, BrickDims::cubic(8), 1, surface3d(), memview::PAGE_4K);
    let topo = CartTopo::new(&rank_dims, true);
    let global = [
        (rank_dims[0] * sub) as i64,
        (rank_dims[1] * sub) as i64,
        (rank_dims[2] * sub) as i64,
    ];
    let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let c = ctx.topo().coords(ctx.rank());
        let origin = [(c[0] * sub) as i64, (c[1] * sub) as i64, (c[2] * sub) as i64];
        let mut st = MemMapStorage::allocate(&d).unwrap();
        let mut sh = cut(Exchanger::shift(&d), &st);
        fill(&d, &mut st, origin);
        sh.exchange(ctx, &mut st).unwrap();
        ghost_errors(&d, &st, origin, global)
    });
    for (rank, e) in errors.iter().enumerate() {
        assert_eq!(*e, 0, "rank {rank}");
    }
}

#[test]
fn shift_supports_full_stencil_loop() {
    // Physics through Shift must equal physics through Put.
    let n = 24usize;
    let shape = StencilShape::star7_default();
    let steps = 3;
    let d = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, surface3d(), memview::PAGE_4K);
    let topo = CartTopo::new(&[1, 1, 1], true);

    let run = |use_shift: bool| -> f64 {
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut a = MemMapStorage::allocate(&d).unwrap();
            let mut b = MemMapStorage::allocate(&d).unwrap();
            let mut sh_a = cut(Exchanger::shift(&d), &a);
            let mut sh_b = cut(Exchanger::shift(&d), &b);
            let mut ev_a = cut(Exchanger::memmap(&d), &a);
            let mut ev_b = cut(Exchanger::memmap(&d), &b);
            fill(&d, &mut a, [0, 0, 0]);
            let mut flip = false;
            for _ in 0..steps {
                {
                    let (cur, sh, ev) = if flip {
                        (&mut b, &mut sh_b, &mut ev_b)
                    } else {
                        (&mut a, &mut sh_a, &mut ev_a)
                    };
                    if use_shift {
                        sh.exchange(ctx, cur).unwrap();
                    } else {
                        ev.exchange(ctx, cur).unwrap();
                    }
                }
                let (cur, nxt) = if flip { (&b, &mut a) } else { (&a, &mut b) };
                stencil::apply_bricks(
                    &shape,
                    d.brick_info(),
                    &cur.storage,
                    &mut nxt.storage,
                    d.compute_mask(),
                    0,
                );
                flip = !flip;
            }
            let last = if flip { &b } else { &a };
            let mut sum = 0.0;
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        sum += last.storage.as_slice()
                            [d.element_offset([x as isize, y as isize, z as isize], 0)];
                    }
                }
            }
            sum
        })[0]
    };

    let put = run(false);
    let shift = run(true);
    assert!(((put - shift) / put).abs() < 1e-14, "{put} vs {shift}");
}

/// View-based exchanges refuse to run against a storage other than the
/// one their views alias (a silent-corruption hazard otherwise).
#[test]
fn view_exchange_rejects_foreign_storage() {
    let d = memmap_decomp([16; 3], 8, BrickDims::cubic(8), 1, surface3d(), memview::PAGE_4K);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let caught = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let a = MemMapStorage::allocate(&d).unwrap();
        let mut b = MemMapStorage::allocate(&d).unwrap();
        let mut ev = cut(Exchanger::memmap(&d), &a);
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ev.exchange(ctx, &mut b).unwrap();
        }))
        .is_err()
    });
    assert!(caught[0], "exchanging a foreign storage must panic");
}
