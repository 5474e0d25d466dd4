//! Stress and semantics tests for the thread-rank MPI substrate: heavy
//! tag interleaving, all-to-all storms, lockstep multi-epoch runs,
//! deterministic wire-time accounting, a stamp hammer on the
//! single-copy path and a lost-wake hammer on the sleep/wake protocol.

use netsim::{
    run_cluster, run_cluster_on, try_run_cluster_on, Backend, CartTopo, FaultConfig, NetsimError,
    NetworkModel, RankCtx, RecvHandle,
};

/// All-to-all with per-pair tags, several epochs: no message may be
/// lost, duplicated, or misrouted.
#[test]
fn all_to_all_storm() {
    let topo = CartTopo::new(&[6], true);
    let epochs = 5;
    let sums = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let me = ctx.rank();
        let n = ctx.size();
        let mut total = 0.0;
        for epoch in 0..epochs {
            let mut handles = Vec::new();
            for peer in 0..n {
                handles.push(ctx.irecv(peer, (epoch * 100 + me) as u64).unwrap());
            }
            for peer in 0..n {
                // Tag encodes the *receiver* so each (src, tag) is unique.
                let payload = vec![(me * 1000 + peer * 10 + epoch) as f64; 4];
                ctx.isend(peer, (epoch * 100 + peer) as u64, &payload).unwrap();
            }
            let mut bufs: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; 4]).collect();
            {
                let mut slices: Vec<&mut [f64]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                ctx.waitall_into(&handles, &mut slices).unwrap();
            }
            for (peer, b) in bufs.iter().enumerate() {
                assert_eq!(b[0], (peer * 1000 + me * 10 + epoch) as f64);
                total += b[0];
            }
            ctx.barrier();
        }
        total
    });
    // Every rank received every peer's payload each epoch.
    let expect: f64 = (0..epochs)
        .flat_map(|e| (0..6).map(move |p| (p * 1000 + e) as f64))
        .sum::<f64>();
    // Rank 0: sum over peers of (peer*1000 + 0*10 + epoch).
    assert_eq!(sums[0], expect);
}

/// Many same-tag messages between one pair stay FIFO under load.
#[test]
fn fifo_under_load() {
    let topo = CartTopo::new(&[2], true);
    let ok = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        const N: usize = 500;
        if ctx.rank() == 0 {
            for i in 0..N {
                ctx.isend(1, 9, &[i as f64]).unwrap();
            }
            true
        } else {
            let handles: Vec<_> = (0..N).map(|_| ctx.irecv(0, 9).unwrap()).collect();
            let mut bufs: Vec<[f64; 1]> = vec![[0.0]; N];
            {
                let mut slices: Vec<&mut [f64]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                ctx.waitall_into(&handles, &mut slices).unwrap();
            }
            bufs.iter().enumerate().all(|(i, b)| b[0] == i as f64)
        }
    });
    assert!(ok[1]);
}

/// Wire-time accounting is exactly deterministic: the modeled call/wait
/// charges depend only on the message schedule, never on thread timing.
#[test]
fn deterministic_wire_charges() {
    let net = NetworkModel::theta_aries();
    let run = || {
        let topo = CartTopo::new(&[2], true);
        let t = run_cluster(&topo, net, |ctx| {
            let peer = 1 - ctx.rank();
            for round in 0..3u64 {
                let h = ctx.irecv(peer, round).unwrap();
                ctx.isend(peer, round, &vec![1.0; 256 << round]).unwrap();
                let mut buf = vec![0.0; 256 << round];
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            }
            ctx.timers()
        });
        (t[0].call, t[0].wait, t[0].msgs, t[0].wire_bytes)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "modeled charges must be reproducible");
    // Hand-check: 3 sends + 3 recvs posted, three single-message epochs.
    let expect_call = net.call_time(6);
    let expect_wait: f64 = (0..3)
        .map(|r| net.wait_time(1, (256usize << r) * 8))
        .sum();
    assert!((a.0 - expect_call).abs() < 1e-15);
    assert!((a.1 - expect_wait).abs() < 1e-15);
    assert_eq!(a.2, 3);
}

/// Rank grids of every shape deliver to the correct Cartesian neighbor.
#[test]
fn neighbor_routing_3d() {
    let topo = CartTopo::new(&[2, 3, 2], true);
    let ok = run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let me = ctx.rank();
        // Send my rank id to my +x neighbor; receive from -x; the value
        // must be the -x neighbor's id.
        let to = ctx.topo().neighbor(me, &[1, 0, 0]).unwrap();
        let from = ctx.topo().neighbor(me, &[-1, 0, 0]).unwrap();
        let h = ctx.irecv(from, 1).unwrap();
        ctx.isend(to, 1, &[me as f64]).unwrap();
        let mut buf = [0.0];
        ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
        buf[0] == from as f64
    });
    assert!(ok.iter().all(|&b| b));
}

/// Pooled buffers recycled across many epochs with *varying* message
/// sizes must never leak stale data: every payload carries a sentinel
/// pattern unique to (sender, epoch) and every received element is
/// checked. The pool must also recycle: a rank never holds more than one
/// buffer per (send of an epoch, size class), where a pool that never
/// reused one would allocate on each of its 120 sends. (How many of
/// those 15 it needs depends on the interleaving — a peer that copies
/// out and returns the first buffer before this rank's third send saves
/// one — so "allocations stop after the first size cycles" is not an
/// invariant.)
#[test]
fn pooled_reuse_no_stale_data() {
    let topo = CartTopo::new(&[3], true);
    let epochs = 40usize;
    let size_classes = 5usize;
    run_cluster(&topo, NetworkModel::instant(), |ctx| {
        let me = ctx.rank();
        let n = ctx.size();
        for epoch in 0..epochs {
            // Sizes vary per epoch so recycled buffers shrink and grow;
            // a reused buffer that keeps stale tail data would surface
            // as a wrong sentinel.
            let len = 8 << (epoch % size_classes);
            let mut handles = Vec::new();
            for peer in 0..n {
                handles.push(ctx.irecv(peer, (epoch * 10 + me) as u64).unwrap());
            }
            for peer in 0..n {
                let sentinel = (me * 1_000_000 + epoch * 1_000) as f64;
                let payload: Vec<f64> =
                    (0..len).map(|i| sentinel + i as f64).collect();
                ctx.isend(peer, (epoch * 10 + peer) as u64, &payload).unwrap();
            }
            let mut bufs: Vec<Vec<f64>> = (0..n).map(|_| vec![-1.0; len]).collect();
            {
                let mut slices: Vec<&mut [f64]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                ctx.waitall_into(&handles, &mut slices).unwrap();
            }
            for (peer, b) in bufs.iter().enumerate() {
                let sentinel = (peer * 1_000_000 + epoch * 1_000) as f64;
                for (i, &v) in b.iter().enumerate() {
                    assert_eq!(
                        v,
                        sentinel + i as f64,
                        "stale or misrouted data: rank {me}, epoch {epoch}, \
                         from {peer}, elem {i}"
                    );
                }
            }
            // Keep epochs aligned so returned buffers are back in their
            // owners' pools before the next epoch's sends draw on them.
            ctx.barrier();
            assert!(
                ctx.transport_allocs() <= (n * size_classes) as u64,
                "rank {me} allocated {} buffers by epoch {epoch}: the pool is not recycling",
                ctx.transport_allocs()
            );
        }
    });
}

/// Barriers across many epochs keep lockstep (no rank may lap another).
#[test]
fn lockstep_epochs() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let topo = CartTopo::new(&[4], true);
    let epoch = AtomicUsize::new(0);
    run_cluster(&topo, NetworkModel::instant(), |ctx| {
        for e in 0..50usize {
            ctx.barrier();
            let seen = epoch.load(Ordering::SeqCst);
            // Everyone is within the same epoch window.
            assert!(seen / 4 >= e.saturating_sub(1), "rank lapped the others");
            epoch.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
        }
    });
}

/// Stamp hammer for lent receive windows: 8 thread ranks exchange with
/// four ring peers for 10 000 rounds, ghosts pre-posted, with a seeded
/// busy-wait between the lend and the sends so that peers find windows
/// open, closed, a round behind and a round ahead. Every word carries
/// `(round, source, index)` and the receiver checks them all: a message
/// delivered into the wrong epoch's window, into the wrong window or
/// half-written fails by name.
#[test]
fn stamped_halos_survive_lent_rounds_under_skew() {
    const ROUNDS: usize = 10_000;
    const LEN: usize = 48;
    let stamp = |round: usize, src: usize, idx: usize| ((round * 8 + src) * 64 + idx) as f64;
    let topo = CartTopo::new(&[8], true);
    let direct = run_cluster_on(
        Backend::Thread,
        &topo,
        NetworkModel::instant(),
        FaultConfig::off(),
        |ctx| {
            ctx.enable_profiling();
            let (me, n) = (ctx.rank(), ctx.size());
            let peers = [1, 2, n - 2, n - 1].map(|d| (me + d) % n);
            // One owned run, then one ghost run per peer.
            let mut storage = vec![0.0; 5 * LEN];
            let ghosts: Vec<_> = (1..=4).map(|k| k * LEN..(k + 1) * LEN).collect();
            let mut skew = 0x9E37_79B9_7F4A_7C15u64 ^ me as u64;
            for round in 0..ROUNDS {
                for (idx, w) in storage[..LEN].iter_mut().enumerate() {
                    *w = stamp(round, me, idx);
                }
                let mut lend = ctx.lend(peers.iter().map(|&p| (p, 7)), &mut storage, &ghosts);
                skew = skew
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                for _ in 0..(skew >> 53) {
                    std::hint::spin_loop();
                }
                for &p in &peers {
                    ctx.isend(p, 7, lend.outside(0..LEN)).unwrap();
                }
                let handles = peers.map(|p| ctx.irecv(p, 7).unwrap());
                lend.complete(ctx, &handles).unwrap();
                drop(lend);
                for (ghost, &src) in ghosts.iter().zip(&peers) {
                    for (idx, w) in storage[ghost.clone()].iter().enumerate() {
                        assert_eq!(
                            *w,
                            stamp(round, src, idx),
                            "round {round}: rank {me}, ghost of {src}, word {idx}"
                        );
                    }
                }
            }
            let tl = ctx.take_timeline();
            tl.counters.iter().filter(|c| c.0 == "msgs_direct").map(|c| c.1).sum::<u64>()
        },
    );
    let total = (8 * 4 * ROUNDS) as u64;
    let direct: u64 = direct.iter().sum();
    assert!(direct > 0 && direct <= total, "{direct} of {total} messages were direct");
}

/// The pool census on mixed paths: a periodic 2×2×2 exchange with one
/// tagged message per neighbour direction (26 channels per rank), posted
/// `irecv` → `isend` → `waitall_into`, so a send goes direct or eager
/// depending on whether its receiver is already waiting — which the host
/// decides. A barrier per step keeps one message per channel in flight,
/// so however the paths mix, no rank allocates more buffers than it has
/// channels, and every word lands intact and identical on both backends.
#[test]
fn mixed_paths_allocate_at_most_one_buffer_per_channel() {
    const STEPS: usize = 50;
    const LEN: usize = 16;
    const CHANNELS: usize = 26;
    let stamp = |step: usize, src: usize, dir: usize, idx: usize| {
        (((step * 8 + src) * CHANNELS + dir) * LEN + idx) as f64
    };
    let dirs: Vec<[i8; 3]> = (0..27i8)
        .map(|k| [k / 9 - 1, k / 3 % 3 - 1, k % 3 - 1])
        .filter(|d| *d != [0, 0, 0])
        .collect();
    let topo = CartTopo::new(&[2, 2, 2], true);
    std::env::set_var("NETSIM_WORKERS", "2");
    let run = |backend| {
        run_cluster_on(backend, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| {
            let me = ctx.rank();
            let from: Vec<usize> =
                dirs.iter().map(|d| topo.neighbor(me, &d.map(|t| -t)).unwrap()).collect();
            let mut ghosts = vec![0.0; CHANNELS * LEN];
            let mut face = [0.0; LEN];
            for step in 0..STEPS {
                let handles: Vec<_> =
                    from.iter().enumerate().map(|(dir, &src)| ctx.irecv(src, dir as u64).unwrap()).collect();
                for (dir, d) in dirs.iter().enumerate() {
                    for (idx, w) in face.iter_mut().enumerate() {
                        *w = stamp(step, me, dir, idx);
                    }
                    ctx.isend(topo.neighbor(me, d).unwrap(), dir as u64, &face).unwrap();
                }
                let mut slices: Vec<&mut [f64]> = ghosts.chunks_mut(LEN).collect();
                ctx.waitall_into(&handles, &mut slices).unwrap();
                for (dir, ghost) in ghosts.chunks(LEN).enumerate() {
                    for (idx, w) in ghost.iter().enumerate() {
                        assert_eq!(
                            *w,
                            stamp(step, from[dir], dir, idx),
                            "step {step}: rank {me}, direction {dir}, word {idx}"
                        );
                    }
                }
                ctx.barrier();
            }
            (ghosts, ctx.transport_allocs())
        })
    };
    let backends: &[Backend] =
        if Backend::event_supported() { &[Backend::Thread, Backend::Event] } else { &[Backend::Thread] };
    let runs: Vec<_> = backends.iter().map(|&b| run(b)).collect();
    for (backend, ranks) in backends.iter().zip(&runs) {
        for (rank, (ghosts, allocs)) in ranks.iter().enumerate() {
            assert!(
                *allocs <= CHANNELS as u64,
                "{backend}: rank {rank} allocated {allocs} buffers for {CHANNELS} channels"
            );
            let bits = |g: &[f64]| g.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(ghosts), bits(&runs[0][rank].0), "{backend}: rank {rank}");
        }
    }
}

/// One blocking receive of a one-word message, by `recv_blocking` on even
/// rounds and by `waitall_into` on odd ones: the two ways into the
/// mailbox's wait loop.
fn recv_word(ctx: &mut RankCtx<'_>, h: RecvHandle, round: usize) -> Result<f64, NetsimError> {
    if round.is_multiple_of(2) {
        let word = ctx.recv_blocking(h)?.data()[0];
        ctx.flush_epoch();
        Ok(word)
    } else {
        let mut word = [0.0];
        ctx.waitall_into(&[h], &mut [&mut word[..]])?;
        Ok(word[0])
    }
}

/// Lost-wake hammer for the sleep/wake protocol (two workers, on both
/// substrates): every receive below sleeps unless its message already
/// landed, and every send must wake a sleeper exactly when there is one.
/// Two ranks ping-pong 200,000 one-word messages — the tightest
/// raise/take race there is — and a 64-rank ring passes 2,000 rounds with
/// a seeded busy-skew before each wait, so wakes land before, inside and
/// after the window between a rank's unlock and its park. A lost wake
/// leaves its rank parked for good; the scheduler then sees quiescence
/// with nothing armed, declares the deadlock and the receive reports
/// `Timeout`: the test fails by name instead of hanging.
#[test]
fn no_wake_is_lost_between_a_missed_probe_and_the_park() {
    std::env::set_var("NETSIM_WORKERS", "2");
    for backend in [Backend::Event, Backend::Thread] {
        hammer_wakes(backend);
    }
}

fn hammer_wakes(backend: Backend) {
    let run = |ranks: usize, body: &(dyn Fn(&mut RankCtx<'_>) -> Result<(), NetsimError> + Sync)| {
        let topo = CartTopo::new(&[ranks], true);
        let net = NetworkModel::instant();
        let done = try_run_cluster_on(backend, &topo, net, FaultConfig::off(), body);
        for (rank, r) in done.expect("no rank panics").into_iter().enumerate() {
            r.unwrap_or_else(|e| panic!("{backend}: rank {rank} of {ranks} lost a wake: {e}"));
        }
    };

    const PINGS: usize = 100_000;
    run(2, &|ctx| {
        let peer = 1 - ctx.rank();
        for round in 0..PINGS {
            let h = ctx.irecv(peer, 7)?;
            if ctx.rank() == 0 {
                ctx.isend(peer, 7, &[round as f64])?;
                assert_eq!(recv_word(ctx, h, round)?, round as f64);
            } else {
                assert_eq!(recv_word(ctx, h, round)?, round as f64);
                ctx.isend(peer, 7, &[round as f64])?;
            }
        }
        Ok(())
    });

    const ROUNDS: usize = 2_000;
    run(64, &|ctx| {
        let (me, n) = (ctx.rank(), ctx.size());
        let from = (me + n - 1) % n;
        let mut skew = 0x9E37_79B9_7F4A_7C15u64 ^ me as u64;
        for round in 0..ROUNDS {
            let h = ctx.irecv(from, 9)?;
            ctx.isend((me + 1) % n, 9, &[(round * n + me) as f64])?;
            skew = skew.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            for _ in 0..(skew >> 54) {
                std::hint::spin_loop();
            }
            assert_eq!(recv_word(ctx, h, round)?, (round * n + from) as f64);
        }
        Ok(())
    });
}
