//! Transport-layer microbenchmarks for the persistent zero-copy paths:
//!
//! * `transport_isend` — point-to-point send/recv epochs through the
//!   per-channel buffer pool; once buffers are warm the steady state
//!   performs zero heap allocation.
//! * `transport_exchange` — a full single-rank (proxy-mode) halo
//!   exchange through the loopback fast path vs. the mailbox path vs.
//!   the legacy allocating `Exchanger::exchange`. Loopback does one
//!   copy per message straight into the posted receive range.
//!
//! The modeled LogGP charges are identical across paths by
//! construction; only the real on-node cost differs, so an instant
//! network isolates exactly the quantity of interest.

use brick::BrickDims;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::{run_cluster, CartTopo, NetworkModel};
use packfree::decomp::BrickDecomp;
use packfree::exchange::Exchanger;

/// Epochs per cluster launch: enough to amortize thread spawn and let
/// the pool reach steady state (it converges within 2 epochs).
const EPOCHS: usize = 64;

fn bench_isend(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_isend");
    group.sample_size(10);
    let topo = CartTopo::new(&[2, 1, 1], true);
    let net = NetworkModel::instant();
    for msg_elems in [1024usize, 65536] {
        // Both ranks send+receive one message per epoch.
        group.throughput(Throughput::Bytes((msg_elems * 8 * 2 * EPOCHS) as u64));
        group.bench_with_input(BenchmarkId::new("pooled", msg_elems * 8), &msg_elems, |b, &m| {
            b.iter(|| {
                run_cluster(&topo, net, |ctx| {
                    let data = vec![1.0f64; m];
                    let mut recv = vec![0.0f64; m];
                    let peer = 1 - ctx.rank();
                    for _ in 0..EPOCHS {
                        let h = ctx.irecv(peer, 7).unwrap();
                        ctx.isend(peer, 7, &data).unwrap();
                        ctx.waitall_into(&[h], &mut [recv.as_mut_slice()]).unwrap();
                    }
                    ctx.transport_allocs()
                })
            })
        });
    }
    group.finish();
}

fn bench_exchange_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_exchange");
    group.sample_size(10);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let net = NetworkModel::instant();
    let d =
        BrickDecomp::<3>::layout_mode([32; 3], 8, BrickDims::cubic(8), 1, layout::surface3d());
    let ex = Exchanger::layout(&d);
    let steps = 8usize;
    group.throughput(Throughput::Bytes((ex.stats().wire_bytes * steps) as u64));
    for (name, loopback) in [("loopback_session", true), ("mailbox_session", false)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                run_cluster(&topo, net, |ctx| {
                    let mut st = d.allocate();
                    let mut sess =
                        if loopback { ex.session(ctx) } else { ex.session_mailbox(ctx) };
                    for _ in 0..steps {
                        sess.exchange(ctx, &mut st).unwrap();
                    }
                })
            })
        });
    }
    // The allocating per-step reference path (pre-session behavior).
    group.bench_function("legacy_alloc", |b| {
        b.iter(|| {
            run_cluster(&topo, net, |ctx| {
                let mut st = d.allocate();
                for _ in 0..steps {
                    ex.exchange(ctx, &mut st).unwrap();
                }
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_isend, bench_exchange_path);
criterion_main!(benches);
