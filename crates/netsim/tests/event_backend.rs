//! Thread-vs-event backend contract tests: the two substrates run under
//! one scheduler and must be observationally identical (results AND
//! modeled timers, to the bit); both must recover from deadlock and
//! report a panic structurally, and the event backend must deliver its
//! scaling upgrade (thousands of ranks).

use std::time::{Duration, Instant};

use netsim::{
    run_cluster_on, try_run_cluster_on, Backend, FaultConfig, Ibarrier, NetsimError, NetworkModel,
    RankCtx, Timers,
};
use netsim::CartTopo;

/// Bit-exact fingerprint of a rank's outcome: payload bits + the
/// modeled timer fields (the really-measured `calc`/`pack` fields are
/// wall-clock and excluded by design).
fn fingerprint(value: &[f64], t: Timers) -> (Vec<u64>, u64, u64, u64, u64) {
    (
        value.iter().map(|v| v.to_bits()).collect(),
        t.call.to_bits(),
        t.wait.to_bits(),
        t.msgs,
        t.wire_bytes,
    )
}

/// A 3-phase halo-style exchange with self-sends, tags, and an epoch
/// close per phase — enough structure to catch ordering bugs.
fn exchange_body(ctx: &mut netsim::RankCtx<'_>) -> (Vec<f64>, Timers) {
    let size = ctx.size();
    let rank = ctx.rank();
    let mut acc = vec![0.0f64; 4];
    for step in 0..3u64 {
        let left = (rank + size - 1) % size;
        let right = (rank + 1) % size;
        let h1 = ctx.irecv(left, step).unwrap();
        let h2 = ctx.irecv(right, 100 + step).unwrap();
        let payload: Vec<f64> = (0..4).map(|i| (rank * 10 + i) as f64 + step as f64).collect();
        ctx.isend(right, step, &payload).unwrap();
        ctx.isend(left, 100 + step, &payload).unwrap();
        let mut b1 = [0.0; 4];
        let mut b2 = [0.0; 4];
        ctx.waitall_into(&[h1, h2], &mut [&mut b1[..], &mut b2[..]]).unwrap();
        for i in 0..4 {
            acc[i] += b1[i] * 0.5 + b2[i] * 0.25;
        }
        ctx.barrier();
    }
    (acc, ctx.timers())
}

#[test]
fn backends_bit_identical_on_clean_fabric() {
    let topo = CartTopo::new(&[8], true);
    let net = NetworkModel::theta_aries();
    let a = run_cluster_on(Backend::Thread, &topo, net, FaultConfig::off(), exchange_body);
    let b = run_cluster_on(Backend::Event, &topo, net, FaultConfig::off(), exchange_body);
    for (rank, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            fingerprint(&ra.0, ra.1),
            fingerprint(&rb.0, rb.1),
            "rank {rank} diverged between backends"
        );
    }
}

#[test]
fn backends_bit_identical_under_chaos() {
    // Same seeded fault plan on both backends, and no receive that waits
    // on a clock: each step posts its send, joins a barrier — after
    // which, delivery being eager, every frame of the step is queued or
    // was dropped — and drains what is queued. What arrived (drops,
    // duplicates, corrupted words) and what it cost is then a function
    // of the seed alone, on either substrate.
    let topo = CartTopo::new(&[4], true);
    let net = NetworkModel::theta_aries();
    let faults = FaultConfig::parse("7,0.3,0.1,0.2").unwrap();
    let body = |ctx: &mut netsim::RankCtx<'_>| {
        let size = ctx.size();
        let rank = ctx.rank();
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        let mut arrived = Vec::new();
        for step in 0..4u64 {
            ctx.isend(right, step, &[rank as f64, step as f64]).unwrap();
            ctx.barrier();
            let h = ctx.irecv(left, step).unwrap();
            let mut copies = Vec::new();
            while let Some(msg) = ctx.try_wait(h).unwrap() {
                copies.push(msg.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            }
            arrived.push(copies);
        }
        ctx.flush_epoch();
        (arrived, fingerprint(&[], ctx.timers()), ctx.fault_stats().total())
    };
    let a = run_cluster_on(Backend::Thread, &topo, net, faults, body);
    let b = run_cluster_on(Backend::Event, &topo, net, faults, body);
    assert!(a.iter().any(|(_, _, f)| *f > 0), "chaos plan must inject something");
    assert_eq!(a, b, "chaos outcomes diverged between backends");
}

#[test]
fn event_backend_detects_deadlock_instead_of_hanging() {
    // Rank 1 waits for a message nobody sends. Both backends run under
    // the one scheduler, which sees quiescence, declares deadlock, and
    // wakes the rank with a structured timeout at once.
    let topo = CartTopo::new(&[2], true);
    for backend in [Backend::Thread, Backend::Event] {
        let t0 = Instant::now();
        let out = run_cluster_on(backend, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| {
            if ctx.rank() == 1 {
                let h = ctx.irecv(0, 99).unwrap();
                let mut buf = [0.0];
                matches!(
                    ctx.waitall_into(&[h], &mut [&mut buf[..]]),
                    Err(NetsimError::Timeout { .. })
                )
            } else {
                true // rank 0 sends nothing and exits
            }
        });
        assert_eq!(out, vec![true, true], "{backend}");
        assert!(t0.elapsed() < Duration::from_secs(10), "{backend}: the deadlock took {:?}", t0.elapsed());
    }
}

/// A rank that spin-polls for a message from a peer that panicked never
/// parks, so no expiry reaches it: its next cooperative yield unwinds it
/// instead, and the run reports the peer's panic — on both backends. The
/// run is driven from a helper thread, so a spin that never ends fails
/// this test by name instead of hanging the suite.
#[test]
fn a_spin_poll_returns_when_a_peer_panics() {
    for backend in [Backend::Thread, Backend::Event] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let topo = CartTopo::new(&[2], true);
            let run = try_run_cluster_on(backend, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| {
                if ctx.rank() == 1 {
                    panic!("rank 1 gave up at once");
                }
                let h = ctx.irecv(1, 5).unwrap();
                loop {
                    let _ = ctx.try_wait(h);
                }
            });
            let _ = tx.send(run.map(|_| ()));
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(Err(NetsimError::RankPanicked { rank, payload })) => {
                assert_eq!(rank, 1, "{backend}: wrong rank blamed ({payload})");
            }
            Ok(other) => panic!("{backend}: expected RankPanicked {{ rank: 1 }}, got {other:?}"),
            Err(_) => panic!("{backend}: a rank spinning on try_wait never saw its peer's panic in 30 s"),
        }
    }
}

/// Rank 0 spin-polls while rank 1 crash-stops at its first send: every
/// poll of a revoked communicator reports the failure, so the spin ends
/// with `RankFailed { rank: 1 }` — an NBX barrier (`Ibarrier::advance`)
/// and a bare `try_wait` loop alike, on both backends. The run is driven
/// from a helper thread, so a spin that never ends fails this test by
/// name instead of hanging the suite.
#[test]
fn a_spin_poll_reports_a_crashed_peer() {
    type Spin = fn(&mut RankCtx<'_>) -> Result<(), NetsimError>;
    let ibarrier: Spin = |ctx| {
        let mut bar = Ibarrier::start(ctx)?;
        while !bar.advance(ctx)? {}
        Ok(())
    };
    let try_wait: Spin = |ctx| {
        let h = ctx.irecv(1, 5)?;
        while ctx.try_wait(h)?.is_none() {}
        Ok(())
    };
    for (name, spin) in [("Ibarrier::advance", ibarrier), ("try_wait", try_wait)] {
        for backend in [Backend::Thread, Backend::Event] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let topo = CartTopo::new(&[2], true);
                let kill = FaultConfig::parse("kill:1@0+0").unwrap();
                let run = try_run_cluster_on(backend, &topo, NetworkModel::instant(), kill, |ctx| {
                    if ctx.rank() == 0 {
                        return spin(ctx);
                    }
                    if ctx.incarnation() == 0 {
                        ctx.fault_step(0, |ctx| {
                            let _ = ctx.isend(0, 5, &[1.0]);
                            unreachable!("the kill fires at the first send");
                        });
                    }
                    Ok(())
                });
                let _ = tx.send(run.map(|mut out| out.swap_remove(0)));
            });
            match rx.recv_timeout(Duration::from_secs(30)) {
                Ok(Ok(Err(NetsimError::RankFailed { rank: 1, .. }))) => {}
                Ok(other) => panic!("{name} on {backend}: expected RankFailed {{ rank: 1 }}, got {other:?}"),
                Err(_) => panic!("{name} on {backend}: a rank spinning on a revoked communicator never saw the crash in 30 s"),
            }
        }
    }
}

#[test]
fn rank_panic_is_a_structured_error_on_both_backends() {
    let topo = CartTopo::new(&[4], true);
    for backend in [Backend::Thread, Backend::Event] {
        let err = try_run_cluster_on(
            backend,
            &topo,
            NetworkModel::instant(),
            FaultConfig::off(),
            |ctx| {
                if ctx.rank() == 2 {
                    panic!("injected failure on rank 2");
                }
                // Other ranks block on a message that never comes; the
                // abort must unwind them instead of hanging the run.
                let h = ctx.irecv(2, 0).unwrap();
                let mut buf = [0.0];
                let _ = ctx.waitall_into(&[h], &mut [&mut buf[..]]);
                ctx.rank()
            },
        )
        .unwrap_err();
        match err {
            NetsimError::RankPanicked { rank, payload } => {
                assert_eq!(rank, 2, "{backend}: wrong rank blamed");
                assert!(
                    payload.contains("injected failure on rank 2"),
                    "{backend}: payload lost: {payload:?}"
                );
            }
            other => panic!("{backend}: expected RankPanicked, got {other}"),
        }
    }
}

#[test]
fn event_backend_runs_4096_ranks() {
    // The scaling tentpole in miniature: a 4096-rank ring exchange
    // (and a cluster-wide barrier) must simply work on one machine.
    let n = 4096;
    let topo = CartTopo::new(&[n], true);
    let t0 = Instant::now();
    let out = run_cluster_on(
        Backend::Event,
        &topo,
        NetworkModel::theta_aries(),
        FaultConfig::off(),
        |ctx| {
            let size = ctx.size();
            let rank = ctx.rank();
            let right = (rank + 1) % size;
            let left = (rank + size - 1) % size;
            let h = ctx.irecv(left, 0).unwrap();
            ctx.isend(right, 0, &[rank as f64]).unwrap();
            let mut buf = [0.0];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            ctx.barrier();
            buf[0]
        },
    );
    assert_eq!(out.len(), n);
    for (rank, got) in out.iter().enumerate() {
        let left = (rank + n - 1) % n;
        assert_eq!(*got, left as f64);
    }
    // Generous budget: this takes well under a second in release mode.
    assert!(t0.elapsed() < Duration::from_secs(120), "4096 ranks took {:?}", t0.elapsed());
}

#[test]
fn backend_parse_and_env_contract() {
    assert_eq!(Backend::parse("thread"), Some(Backend::Thread));
    assert_eq!(Backend::parse("EVENT"), Some(Backend::Event));
    assert_eq!(Backend::parse("fiber"), None);
    assert_eq!(Backend::Event.label(), "event");
    assert_eq!("event".parse::<Backend>(), Ok(Backend::Event));
    assert!(Backend::event_supported() || cfg!(not(target_arch = "x86_64")));
}
