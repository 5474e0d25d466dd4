//! Rank-failure acceptance suite: a crash-stop kill anywhere in the
//! schedule is survived by buddy checkpoints and an epoch-based
//! recovery, and the run converges **bit-identically** to the
//! fault-free result — across every resilient exchange engine, both
//! rank substrates, and the phased, overlap, and partitioned
//! schedules. Fail-slow stalls must never trigger recovery at all.

use bricklib::prelude::*;
use netsim::{FaultKind, ProcFault};

fn kill(rank: usize, step: u64, op: u64) -> FaultConfig {
    FaultConfig {
        kill: Some(ProcFault { rank, step, op, stall_secs: 0.0 }),
        ..FaultConfig::off()
    }
}

fn cfg(method: CpuMethod, faults: FaultConfig, every: usize, backend: Backend) -> ExperimentConfig {
    let mut c = ExperimentConfig::k1(method, 16);
    c.steps = 4;
    c.warmup = 0;
    c.ranks = vec![2, 1, 1];
    c.net = NetworkModel::instant();
    c.faults = faults;
    c.checkpoint_every = every;
    c.backend = backend;
    c
}

fn resilient_methods() -> Vec<CpuMethod> {
    vec![
        CpuMethod::Layout,
        CpuMethod::Basic,
        CpuMethod::MemMap { page_size: memview::PAGE_4K },
        CpuMethod::Shift { page_size: memview::PAGE_4K },
        CpuMethod::Yask,
        CpuMethod::MpiTypes,
    ]
}

/// The headline invariant: for every engine and backend, killing a rank
/// mid-run leaves the physics bit-identical to the fault-free run, and
/// the report shows the recovery actually happened.
#[test]
fn killed_runs_converge_bit_identically() {
    for backend in [Backend::Thread, Backend::Event] {
        for method in resilient_methods() {
            let clean_cfg = cfg(method.clone(), FaultConfig::off(), 0, backend);
            let clean = run_experiment(&clean_cfg);
            // A snapshot is the owned prefix of the grid, ghost rim excluded.
            let owned_bytes = clean_cfg.decomp().owned_elems() as u64 * 8;
            for (victim, step) in [(1usize, 0u64), (0, 2)] {
                let faulty =
                    run_experiment(&cfg(method.clone(), kill(victim, step, 0), 1, backend));
                assert_eq!(
                    faulty.checksum.to_bits(),
                    clean.checksum.to_bits(),
                    "{} diverged after kill:{victim}@{step} on {backend:?}",
                    method.name()
                );
                let rv = &faulty.recovery;
                assert!(rv.recovery_epochs >= 1, "{}: no recovery ran", method.name());
                assert_eq!(rv.failed_rank, victim as i64);
                assert_eq!(rv.failed_step, step as i64);
                // The victim's grid from its buddy plus the guard slot the
                // anti-buddy re-seeds.
                assert_eq!(rv.restore_bytes, 2 * owned_bytes, "{}: restore traffic", method.name());
                assert!(rv.checkpoints > 0, "{}: no checkpoint taken", method.name());
                assert_eq!(rv.checkpoint_bytes, rv.checkpoints * owned_bytes);
            }
        }
    }
}

/// A kill pinned deep into the step's transport schedule lands inside
/// the dependency-graph overlap loop (and, with partitioned channels,
/// between `pready` calls) — recovery must still converge bitwise.
#[test]
fn kill_mid_overlap_and_mid_pready_recovers() {
    for (overlap, partitioned) in [(true, false), (true, true)] {
        for method in [
            CpuMethod::Layout,
            CpuMethod::MemMap { page_size: memview::PAGE_4K },
            CpuMethod::Yask,
            CpuMethod::MpiTypes,
        ] {
            if partitioned && method.partitioned_refusal().is_some() {
                continue;
            }
            let mut clean = cfg(method.clone(), FaultConfig::off(), 0, Backend::Thread);
            clean.overlap = overlap;
            clean.partitioned = partitioned;
            let clean = run_experiment(&clean);

            let mut faulty = cfg(method.clone(), kill(1, 1, 7), 1, Backend::Thread);
            faulty.overlap = overlap;
            faulty.partitioned = partitioned;
            let faulty = run_experiment(&faulty);

            assert_eq!(
                faulty.checksum.to_bits(),
                clean.checksum.to_bits(),
                "{} diverged after a mid-{} kill",
                method.name(),
                if partitioned { "pready" } else { "overlap" }
            );
            assert!(faulty.recovery.recovery_epochs >= 1);
        }
    }
}

/// A phased step pre-posts its ghost runs: from its first send to the end
/// of its wait a rank's ghosts are lent to its neighbour, who writes them
/// in place. Two kills aimed at that window — the victim dies *inside its
/// lent wait* (every send and receive posted, the wait op itself), and
/// the victim dies *halfway through its send loop* into the neighbour's
/// lent ghosts, which then hold half a step. Both replay to the clean
/// bits. That nothing is written through a dead rank's windows after
/// its unwind is asserted by the runner at every respawn (a lend that
/// outlived its rank panics the run).
#[test]
fn kill_inside_a_lent_wait_and_inside_a_send_loop_recovers() {
    let clean_cfg = cfg(CpuMethod::Layout, FaultConfig::off(), 0, Backend::Thread);
    // Mailbox sends per step on 2x1x1: everything with an x component.
    let sends = Exchanger::layout(&clean_cfg.decomp()).sends().to_vec();
    let mailbox = sends.iter().filter(|m| m.dir.offsets(3)[0] != 0).count() as u64;
    assert!(mailbox >= 2, "the schedule crosses ranks");
    for backend in [Backend::Thread, Backend::Event] {
        let clean = run_experiment(&cfg(CpuMethod::Layout, FaultConfig::off(), 0, backend));
        // Ops of a phased step: the sends, the receives, then the wait.
        for (victim, op, what) in [(1, 2 * mailbox, "lent wait"), (0, mailbox / 2, "send loop")] {
            let faulty = run_experiment(&cfg(CpuMethod::Layout, kill(victim, 2, op), 1, backend));
            assert_eq!(
                faulty.checksum.to_bits(),
                clean.checksum.to_bits(),
                "diverged after a kill inside the {what} on {backend:?}"
            );
            let rv = &faulty.recovery;
            assert_eq!(
                (rv.recovery_epochs, rv.failed_rank, rv.failed_step),
                (1, victim as i64, 2),
                "{what}"
            );
        }
    }
}

/// Fail-slow is not fail-stop: a stalled rank bills wait time, records
/// its fault event, and must not trip the failure detector.
#[test]
fn stall_bills_wait_without_recovery() {
    let faults = FaultConfig {
        stall: Some(ProcFault { rank: 1, step: 1, op: 0, stall_secs: 0.25 }),
        ..FaultConfig::off()
    };
    let clean = run_experiment(&cfg(CpuMethod::Layout, FaultConfig::off(), 0, Backend::Thread));
    let slow = run_experiment(&cfg(CpuMethod::Layout, faults, 2, Backend::Thread));
    assert_eq!(slow.checksum.to_bits(), clean.checksum.to_bits());
    assert_eq!(slow.recovery.recovery_epochs, 0, "a stall must not look like a crash");
    assert!(slow.recovery.checkpoints > 0, "checkpoint interval was armed");
    assert!(
        slow.fault_events.iter().any(|e| e.kind == FaultKind::Stall),
        "stall event missing from the merged trace"
    );
}

/// A crash-stop landing *inside* a migration epoch — between the fence,
/// the load trade, the manifest shipment, and the NBX rediscovery — is
/// the nastiest recovery case: half the cluster may already believe the
/// new ownership. Replay from buddy checkpoints must restore the
/// post-migration ownership exactly: same physics bits, same final
/// brick→rank digest, same epoch/trade counts as the fault-free
/// migrated run — at **every** operation of the epoch, on the fence's
/// root and on a leaf.
#[test]
fn kill_mid_migration_epoch_restores_post_migration_ownership() {
    let mut base = RebalanceCfg::new(
        GridCfg { dims: [4, 2, 2], cells: 8, skew: 6.0 },
        vec![2, 2, 1],
    );
    base.steps = 6;
    base.warmup = 2;
    base.migrate_every = 2;
    base.backend = Backend::Thread;
    base.net = NetworkModel::instant();
    base.checkpoint_every = 1;
    let clean = run_rebalance(&base);
    let clean_m = clean.migration.expect("migration stats");
    assert!(clean_m.epochs >= 1 && clean_m.bricks_moved > 0, "no epoch to crash into");

    // Step 2 opens the first migration epoch. Where its operations fall
    // is read from a profiled clean run that stops right after that step:
    // `posted` of them are unconditional — fence 0..3 (on a leaf: join
    // send, release irecv + wait), load trade 3..9, allreduce 9..12,
    // manifests 12..18 — and every one is swept; the rest, up to `total`,
    // are NBX discovery, whose polls number in the thousands and depend
    // on host timing, so the tail is swept at doubling distances.
    let mut probe = base.clone();
    (probe.steps, probe.profile) = (1, true);
    let timelines = run_rebalance(&probe).timelines;
    let counted = |rank: usize, name: &str| {
        timelines[rank].counters.iter().find(|c| c.0 == name).expect("one epoch ran").1
    };

    for victim in [0usize, 3] {
        let (posted, total) = (counted(victim, "migration_epoch_posted_ops"), counted(victim, "migration_epoch_ops"));
        assert!(18 <= posted && posted < total, "the epoch lost a phase: {posted} of {total} ops");
        let tail = (0..).map(|k| posted + (1 << k) - 1).take_while(|&op| op < total);
        for op in (0..posted).chain(tail) {
            let mut chaos = base.clone();
            chaos.faults = FaultConfig {
                kill: Some(ProcFault { rank: victim, step: 2, op, stall_secs: 0.0 }),
                ..FaultConfig::off()
            };
            let r = run_rebalance(&chaos);
            let what = format!("kill:{victim}@2+{op}");
            assert_eq!(r.checksum.to_bits(), clean.checksum.to_bits(), "{what} diverged the physics");
            let m = r.migration.expect("migration stats");
            assert_eq!(m.ownership_digest, clean_m.ownership_digest, "{what} landed a different final ownership");
            assert_eq!((m.epochs, m.bricks_moved), (clean_m.epochs, clean_m.bricks_moved), "{what}");
            if r.recovery.recovery_epochs > 0 {
                assert!(r.recovery.restore_bytes > 0, "{what}: victim was never restored");
            } else {
                // This run's step ended in fewer operations than the
                // probe's: nothing fired. Legal in the polled tail only.
                assert!(op >= posted, "{what} never fired, among the {posted} posted operations");
                eprintln!("{what}: unreachable in this run ({posted} posted, {total} counted by the probe)");
            }
        }
    }
}

/// Checkpointing without faults is pure overhead accounting: the
/// physics must stay bit-identical to the plain run and no recovery
/// counters may move.
#[test]
fn clean_checkpointed_run_matches_plain() {
    for backend in [Backend::Thread, Backend::Event] {
        let plain = run_experiment(&cfg(CpuMethod::Layout, FaultConfig::off(), 0, backend));
        let ck = run_experiment(&cfg(CpuMethod::Layout, FaultConfig::off(), 2, backend));
        assert_eq!(ck.checksum.to_bits(), plain.checksum.to_bits());
        assert!(ck.recovery.checkpoints > 0);
        assert_eq!(ck.recovery.recovery_epochs, 0);
        assert_eq!(ck.recovery.restore_bytes, 0);
        assert!(!plain.recovery.armed(), "plain run must not pay for resilience");
    }
}
