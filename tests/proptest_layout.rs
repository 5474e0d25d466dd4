//! Property-based tests on the layout algebra and message analysis.
//! Random layouts are sampled (256 per property); direction sets are
//! few enough (3^d - 1) that every property over them is enumerated.

mod common;

use common::*;
use layout::formulas::{basic_message_count, neighbor_count, optimal_message_count};
use layout::{all_regions, Dir, MessagePlan, SurfaceLayout};

/// A random permutation of the regions of a `d`-dimensional surface.
fn arb_layout(rng: &mut StdRng, d: usize) -> SurfaceLayout {
    let mut order = all_regions(d);
    order.shuffle(rng);
    SurfaceLayout::new(d, order)
}

/// Every non-empty direction set of `d` dimensions.
fn dirs(d: usize) -> impl Iterator<Item = Dir> + Clone {
    (1..3usize.pow(d as u32)).map(move |c| Dir::from_code(c, d))
}

/// Any layout's message count sits between the Eq. 1 bound and the
/// Eq. 3 Basic count.
#[test]
fn message_count_bounds_2d() {
    cases("message_count_bounds_2d", 256, |rng| {
        let m = arb_layout(rng, 2).message_count();
        assert!(m >= optimal_message_count(2));
        assert!(m <= basic_message_count(2));
    });
}

#[test]
fn message_count_bounds_3d() {
    cases("message_count_bounds_3d", 256, |rng| {
        let m = arb_layout(rng, 3).message_count();
        assert!(m >= optimal_message_count(3));
        assert!(m <= basic_message_count(3));
    });
}

/// Mirroring every region of a layout (a global parity flip) cannot
/// change its message count — the exchange is symmetric.
#[test]
fn count_invariant_under_mirror() {
    cases("count_invariant_under_mirror", 256, |rng| {
        let l = arb_layout(rng, 3);
        let mirrored = SurfaceLayout::new(3, l.order().iter().map(|t| t.mirror()).collect());
        assert_eq!(l.message_count(), mirrored.message_count());
    });
}

/// Runs partition the send set: every region going to a neighbor
/// appears in exactly one run.
#[test]
fn runs_partition_send_sets() {
    cases("runs_partition_send_sets", 256, |rng| {
        let l = arb_layout(rng, 3);
        for s in dirs(3) {
            let runs = l.runs_for_neighbor(&s);
            let total: usize = runs.iter().map(|r| r.len()).sum();
            assert_eq!(total, l.send_set(&s).len());
            for w in runs.windows(2) {
                assert!(w[0].end < w[1].start);
            }
            // Maximality: the element before/after each run must not belong.
            for r in &runs {
                if r.start > 0 {
                    assert!(!l.order()[r.start - 1].superset_of(&s));
                }
                if r.end < l.order().len() {
                    assert!(!l.order()[r.end].superset_of(&s));
                }
            }
        }
    });
}

/// The plan's total message count equals the layout's.
#[test]
fn plan_consistent() {
    cases("plan_consistent", 256, |rng| {
        let l = arb_layout(rng, 3);
        let plan = MessagePlan::build(&l);
        assert_eq!(plan.message_count(), l.message_count());
        let instances: u64 = plan.neighbors.iter().map(|n| n.send_regions.len() as u64).sum();
        assert_eq!(instances, basic_message_count(3));
        assert_eq!(plan.neighbors.len() as u64, neighbor_count(3));
    });
}

/// Receive pieces mirror send sets: for every neighbor S, my recv
/// pieces from S are exactly the mirror image of what I send to -S.
#[test]
fn recv_mirrors_send() {
    cases("recv_mirrors_send", 256, |rng| {
        let l = arb_layout(rng, 3);
        for s in dirs(3) {
            let pieces = l.recv_pieces(&s);
            let sent = l.send_set(&s.mirror());
            assert_eq!(pieces.len(), sent.len());
            for (p, t) in pieces.iter().zip(sent.iter()) {
                assert_eq!(p.sender_region, *t);
                assert_eq!(p.local_slot, t.flip(&s.mirror()));
                assert!(p.local_slot.superset_of(&s));
            }
        }
    });
}

/// Dir algebra: flip is an involution, mirror is flip by self, and
/// codes roundtrip.
#[test]
fn dir_algebra() {
    for t in dirs(5) {
        assert_eq!(t.mirror().mirror(), t);
        assert_eq!(t.flip(&t), t.mirror());
        assert_eq!(Dir::from_code(t.code(5), 5), t);
        // Superset is reflexive and antisymmetric.
        assert!(t.superset_of(&t));
        for s in dirs(5) {
            assert_eq!(t.flip(&s).flip(&s), t);
            if t.superset_of(&s) && s.superset_of(&t) {
                assert_eq!(t, s);
            }
        }
    }
}

/// Superset is transitive.
#[test]
fn superset_transitive() {
    for a in dirs(4) {
        for b in dirs(4).filter(|b| a.superset_of(b)) {
            for c in dirs(4).filter(|c| b.superset_of(c)) {
                assert!(a.superset_of(&c), "{a:?} ⊇ {b:?} ⊇ {c:?}");
            }
        }
    }
}

/// Sign-preserving supersets of S number 3^(d-|S|) including S
/// itself — counted straight from the region enumeration.
#[test]
fn superset_census() {
    for s in dirs(3) {
        let n = all_regions(3).into_iter().filter(|t| t.superset_of(&s)).count() as u64;
        assert_eq!(n, 3u64.pow(3 - s.len()));
    }
}
