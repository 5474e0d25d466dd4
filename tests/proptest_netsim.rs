//! Property-based tests of the MPI substrate: arbitrary point-to-point
//! schedules must deliver every message exactly once, in order per
//! (source, tag) pair, with deterministic wire-time accounting.

mod common;

use common::*;
use netsim::{run_cluster, CartTopo, NetworkModel};

/// One message of a generated schedule, described symmetrically: every
/// rank sends `payload(round, src, dst)` to `dst` and expects the
/// mirrored value.
#[derive(Clone, Debug)]
struct Round {
    /// Destination offset (added to own rank mod size).
    dst_off: usize,
    /// Message length.
    len: usize,
}

/// A ring of 2..=`max_ranks` ranks and 1..12 rounds.
fn arb_schedule(rng: &mut StdRng, max_ranks: usize) -> (usize, Vec<Round>) {
    let ranks = rng.gen_range(2..max_ranks + 1);
    let rounds = (0..rng.gen_range(1usize..12))
        .map(|_| Round { dst_off: rng.gen_range(0usize..4), len: rng.gen_range(1usize..64) })
        .collect();
    (ranks, rounds)
}

/// Every generated schedule delivers exactly the expected payloads.
#[test]
fn schedules_deliver_exactly() {
    cases("schedules_deliver_exactly", 24, |rng| {
        let (ranks, rounds) = arb_schedule(rng, 5);
        let topo = CartTopo::new(&[ranks], true);
        let ok = run_cluster(&topo, NetworkModel::instant(), move |ctx| {
            let me = ctx.rank();
            let n = ctx.size();
            let mut all_ok = true;
            for (tag, r) in rounds.iter().enumerate() {
                let dst = (me + r.dst_off) % n;
                let src = (me + n - r.dst_off % n) % n;
                let payload = vec![(me * 1000 + tag) as f64; r.len];
                let h = ctx.irecv(src, tag as u64).unwrap();
                ctx.isend(dst, tag as u64, &payload).unwrap();
                let mut buf = vec![0.0; r.len];
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
                let expect = (src * 1000 + tag) as f64;
                all_ok &= buf.iter().all(|&v| v == expect);
            }
            all_ok
        });
        assert!(ok.iter().all(|&b| b));
    });
}

/// Wire accounting is schedule-determined: total wire bytes equal
/// the sum of message sizes, and modeled times are identical across
/// repeated runs.
#[test]
fn accounting_is_deterministic() {
    cases("accounting_is_deterministic", 24, |rng| {
        let (ranks, rounds) = arb_schedule(rng, 4);
        let net = NetworkModel::theta_aries();
        let run = || {
            let topo = CartTopo::new(&[ranks], true);
            let rounds = rounds.clone();
            let t = run_cluster(&topo, net, move |ctx| {
                let me = ctx.rank();
                let n = ctx.size();
                for (tag, r) in rounds.iter().enumerate() {
                    let dst = (me + r.dst_off) % n;
                    let src = (me + n - r.dst_off % n) % n;
                    let h = ctx.irecv(src, tag as u64).unwrap();
                    ctx.isend(dst, tag as u64, &vec![0.0; r.len]).unwrap();
                    let mut buf = vec![0.0; r.len];
                    ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
                }
                ctx.timers()
            });
            t[0]
        };
        let a = run();
        let b = run();
        assert_eq!(a.call, b.call);
        assert_eq!(a.wait, b.wait);
        assert_eq!(a.msgs, rounds.len() as u64);
        let bytes: u64 = rounds.iter().map(|r| (r.len * 8) as u64).sum();
        assert_eq!(a.wire_bytes, bytes);
    });
}
