//! Property-based tests on the decomposition and exchange engines: the
//! exchange must be correct for *any* layout permutation, any legal
//! subdomain geometry, and any padding unit — correctness never depends
//! on the layout being the optimal one.

mod common;

use bricklib::prelude::*;
use common::*;

fn arb_layout3(rng: &mut StdRng) -> SurfaceLayout {
    let mut order = all_regions(3);
    order.shuffle(rng);
    SurfaceLayout::new(3, order)
}

/// Verify a self-periodic exchange fills the whole ghost rim for the
/// given decomposition.
fn exchange_is_correct(decomp: &BrickDecomp<3>, per_region: bool) -> bool {
    let ex = if per_region { Exchanger::basic(decomp) } else { Exchanger::layout(decomp) };
    let topo = CartTopo::new(&[1, 1, 1], true);
    let [nx, ny, nz] = decomp.domain();
    let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let mut st = decomp.allocate();
        let f = |x: i64, y: i64, z: i64| (x + 100 * y + 10_000 * z) as f64;
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let off = decomp.element_offset([x as isize, y as isize, z as isize], 0);
                    st.as_mut_slice()[off] = f(x as i64, y as i64, z as i64);
                }
            }
        }
        ex.exchange(ctx, &mut st).unwrap();
        let g = decomp.ghost_width() as isize;
        let (nx, ny, nz) = (nx as isize, ny as isize, nz as isize);
        let mut errors = 0usize;
        for z in -g..nz + g {
            for y in -g..ny + g {
                for x in -g..nx + g {
                    let interior =
                        (0..nx).contains(&x) && (0..ny).contains(&y) && (0..nz).contains(&z);
                    if interior {
                        continue;
                    }
                    let got = st.as_slice()[decomp.element_offset([x, y, z], 0)];
                    let want = f(
                        x.rem_euclid(nx) as i64,
                        y.rem_euclid(ny) as i64,
                        z.rem_euclid(nz) as i64,
                    );
                    if got != want {
                        errors += 1;
                    }
                }
            }
        }
        errors
    });
    errors[0] == 0
}

/// ANY layout permutation yields a correct exchange (both run-merged
/// and per-region schedules).
#[test]
fn any_layout_exchanges_correctly() {
    cases("any_layout_exchanges_correctly", 12, |rng| {
        let l = arb_layout3(rng);
        let d = BrickDecomp::<3>::layout_mode([24; 3], 8, BrickDims::cubic(8), 1, l);
        assert!(exchange_is_correct(&d, rng.gen_bool(0.5)));
    });
}

/// Any legal cuboid subdomain geometry exchanges correctly: all 27
/// extents of 2..5 bricks per axis.
#[test]
fn any_geometry_exchanges_correctly() {
    for code in 0..27usize {
        let n = [1, 3, 9].map(|p| 8 * (2 + code / p % 3));
        let d = BrickDecomp::<3>::layout_mode(n, 8, BrickDims::cubic(8), 1, surface3d());
        assert!(exchange_is_correct(&d, false), "subdomain {n:?}");
    }
}

/// Any padding unit keeps the exchange correct (filler bricks are
/// transported but never read).
#[test]
fn any_padding_exchanges_correctly() {
    for pad_log in 0..5 {
        let d =
            BrickDecomp::<3>::new([24; 3], 8, BrickDims::cubic(8), 1, surface3d(), 1 << pad_log);
        assert!(exchange_is_correct(&d, false), "padding unit {}", 1 << pad_log);
    }
}

/// Non-cubic bricks are legal too: extents drawn from {4, 8} per
/// axis, ghost 8 (a multiple of both), domain 24³.
#[test]
fn non_cubic_bricks() {
    for code in 0..8usize {
        let b = [0, 1, 2].map(|a| if code >> a & 1 == 0 { 4usize } else { 8 });
        let d = BrickDecomp::<3>::layout_mode([24; 3], 8, BrickDims::new(b), 1, surface3d());
        assert!(exchange_is_correct(&d, false), "brick {b:?}");
    }
}

/// Proxy-mode transport equivalence: for random layouts and
/// geometries, the loopback fast path, the pooled mailbox path, and
/// the legacy allocating path produce bit-identical storage (every
/// ghost byte) and identical modeled charges (call/wait timers,
/// message and wire-byte counters).
#[test]
fn loopback_matches_mailbox() {
    cases("loopback_matches_mailbox", 12, |rng| {
        let l = arb_layout3(rng);
        let n = [0; 3].map(|_| 8 * rng.gen_range(2usize..4));
        let d = BrickDecomp::<3>::layout_mode(n, 8, BrickDims::cubic(8), 1, l);
        let ex = Exchanger::layout(&d);
        let topo = CartTopo::new(&[1, 1, 1], true);
        let net = NetworkModel::theta_aries();
        // 0 = legacy reference, 1 = loopback session, 2 = mailbox session.
        let run = |mode: u8| {
            run_cluster(&topo, net, |ctx| {
                let mut st = d.allocate();
                for (i, v) in st.as_mut_slice().iter_mut().enumerate() {
                    *v = (i % 8191) as f64;
                }
                match mode {
                    0 => {
                        ex.exchange(ctx, &mut st).unwrap();
                        ex.exchange(ctx, &mut st).unwrap();
                    }
                    1 => {
                        let mut s = ex.session(ctx);
                        s.exchange(ctx, &mut st).unwrap();
                        s.exchange(ctx, &mut st).unwrap();
                    }
                    _ => {
                        let mut s = ex.session_mailbox(ctx);
                        s.exchange(ctx, &mut st).unwrap();
                        s.exchange(ctx, &mut st).unwrap();
                    }
                }
                (st.as_slice().to_vec(), ctx.timers())
            })
            .pop()
            .unwrap()
        };
        let (a, ta) = run(0);
        let (b, tb) = run(1);
        let (c, tc) = run(2);
        assert!(a == b, "loopback path produced different ghost bytes");
        assert!(b == c, "mailbox session produced different ghost bytes");
        assert_eq!(&ta, &tb);
        assert_eq!(&tb, &tc);
    });
}

/// Exchange stats invariants: payload is layout-independent; the
/// message count matches the layout's analysis.
#[test]
fn stats_invariants() {
    let d_ref = BrickDecomp::<3>::layout_mode([32; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let ex_ref = Exchanger::layout(&d_ref);
    cases("stats_invariants", 12, |rng| {
        let l = arb_layout3(rng);
        let msgs_expected = l.message_count();
        let d = BrickDecomp::<3>::layout_mode([32; 3], 8, BrickDims::cubic(8), 1, l);
        let ex = Exchanger::layout(&d);
        assert_eq!(ex.stats().messages as u64, msgs_expected);
        assert_eq!(ex.stats().payload_bytes, ex_ref.stats().payload_bytes);
        assert_eq!(ex.stats().region_instances, ex_ref.stats().region_instances);
    });
}
