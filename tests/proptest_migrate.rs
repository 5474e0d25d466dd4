//! Property-based acceptance suite for dynamic brick ownership: for
//! every migration period, step schedule (phased vs dependency-graph),
//! rank substrate, and chaos seed, the migrated run must converge
//! **bit-identically** to the static-ownership run — migration is a
//! pure performance transformation, never a numerics one. The suite
//! also pins the ownership trajectory itself (via the FNV digest of the
//! final brick→rank map) across backends and across crash/recovery
//! replays, and witnesses that NBX neighbor discovery never degenerates
//! into an alltoall.

mod common;

use bricklib::prelude::*;
use common::*;
use netsim::ProcFault;

/// The shared skewed workload: 16 bricks over 4 ranks with 6x compute
/// on the hotspot slab, enough pressure that every migration period
/// actually trades bricks.
const GRID: GridCfg = GridCfg { dims: [4, 2, 2], cells: 8, skew: 6.0 };

/// Two bricks over the same 4 ranks: ranks 1 and 3 own nothing at setup,
/// so they enter discovery's barrier without a request of their own.
const IDLE_RANKS: GridCfg = GridCfg { dims: [2, 1, 1], cells: 8, skew: 6.0 };

fn cfg(migrate: usize, overlap: bool, backend: Backend) -> RebalanceCfg {
    cfg_on(GRID, migrate, overlap, backend)
}

fn cfg_on(grid: GridCfg, migrate: usize, overlap: bool, backend: Backend) -> RebalanceCfg {
    let mut c = RebalanceCfg::new(grid, vec![2, 2, 1]);
    c.steps = 6;
    c.warmup = 2;
    c.migrate_every = migrate;
    c.overlap = overlap;
    c.backend = backend;
    c.net = NetworkModel::instant();
    c
}

fn kill(rank: usize, step: u64, op: u64) -> FaultConfig {
    FaultConfig {
        kill: Some(ProcFault { rank, step, op, stall_secs: 0.0 }),
        ..FaultConfig::off()
    }
}

/// The ownership-trajectory fingerprint two equivalent runs must share:
/// physics bits, the final brick→rank digest, and the migration work
/// itself (epoch count and bricks traded).
fn fingerprint(r: &MethodReport) -> (u64, u64, u64, u64) {
    let m = r.migration.expect("rebalance runs always report migration stats");
    (r.checksum.to_bits(), m.ownership_digest, m.epochs, m.bricks_moved)
}

/// Headline invariant: any migration period, on either step
/// schedule, converges bit-identically to the static run — and when
/// bricks actually moved, the final ownership differs from block
/// ownership (the run really was dynamic).
#[test]
fn migrated_runs_match_static_bits() {
    let check_on = |grid, migrate, overlap, jitter_seed: u64| {
        let mut stat = cfg_on(grid, 0, overlap, Backend::Thread);
        let mut mig = cfg_on(grid, migrate, overlap, Backend::Thread);
        // Data-safe wire chaos (delay/jitter) must perturb timing only.
        if jitter_seed > 0 {
            let f =
                FaultConfig { seed: jitter_seed, delay: 0.2, jitter: 0.3, ..FaultConfig::off() };
            stat.faults = f;
            mig.faults = f;
        }
        let s = run_rebalance(&stat);
        let m = run_rebalance(&mig);
        assert_eq!(s.checksum.to_bits(), m.checksum.to_bits());
        let ms = m.migration.unwrap();
        assert!(ms.epochs >= 1);
        if ms.bricks_moved > 0 {
            assert!(
                ms.ownership_digest != s.migration.unwrap().ownership_digest,
                "bricks moved yet the final ownership still looks static"
            );
        }
    };
    let check = |migrate, overlap, jitter_seed| check_on(GRID, migrate, overlap, jitter_seed);
    // The clean fabric always runs: one jitter seed in 16 could leave a
    // fixed suite without it.
    check(2, true, 0);
    check_on(IDLE_RANKS, 1, false, 0);
    check_on(IDLE_RANKS, 2, true, 0);
    cases("migrated_runs_match_static_bits", 8, |rng| {
        check(rng.gen_range(1usize..4), rng.gen_bool(0.5), rng.gen_range(0u64..16));
    });
}

/// Crash-stop chaos: killing any rank at any step — including the
/// steps that open migration epochs — leaves the physics AND the
/// ownership trajectory identical to the fault-free migrated run.
///
/// `op` is drawn from what the step is certain to execute, so the kill
/// always fires: a plain step of a two-partner rank posts 2 sends + 2
/// receives (ops 0..4) on either schedule, and whether it ticks further
/// depends on how often it polls before its halos land; a step that
/// opens an epoch first runs the blocking, counted fence (ops 0..3) and
/// load trade (3..9), so op 9 — the allreduce — is reached too.
///
/// A kill on a lossy fabric is one more input, on both backends: the
/// recovery epoch and the retry protocol share the mailboxes, and the
/// crash must surface through the protocol's own polls.
#[test]
fn killed_migrated_runs_recover_the_same_trajectory() {
    const MIGRATE_EVERY: u64 = 2;
    // The fault-free trajectory, phased and overlapped.
    let clean = [false, true]
        .map(|overlap| run_rebalance(&cfg(MIGRATE_EVERY as usize, overlap, Backend::Thread)));
    for backend in [Backend::Thread, Backend::Event] {
        for faults in [
            FaultConfig { seed: 42, drop: 0.05, corrupt: 0.02, ..kill(3, 3, 0) },
            FaultConfig { seed: 7, drop: 0.2, corrupt: 0.1, ..kill(1, 4, 9) },
        ] {
            let mut chaos = cfg(MIGRATE_EVERY as usize, false, backend);
            chaos.faults = faults;
            chaos.checkpoint_every = 1;
            let c = run_rebalance(&chaos);
            assert_eq!(fingerprint(&clean[0]), fingerprint(&c), "{faults:?} on {backend}");
            assert_eq!(c.recovery.recovery_epochs, 1, "{faults:?} on {backend}");
            assert!(c.faults.total() > 0, "{faults:?} injected nothing on {backend}");
        }
    }
    cases("killed_migrated_runs_recover_the_same_trajectory", 8, |rng| {
        let victim = rng.gen_range(0usize..4);
        let step = rng.gen_range(1u64..6);
        let opens_epoch = step % MIGRATE_EVERY == 0;
        let ops: &[u64] = if opens_epoch { &[0, 3, 9] } else { &[0, 3] };
        let op = pick(rng, ops);
        let overlap = rng.gen_bool(0.5);
        let mut chaos = cfg(MIGRATE_EVERY as usize, overlap, Backend::Thread);
        chaos.faults = kill(victim, step, op);
        chaos.checkpoint_every = 1;
        let c = run_rebalance(&chaos);
        assert_eq!(fingerprint(&clean[overlap as usize]), fingerprint(&c));
        assert!(c.recovery.recovery_epochs >= 1, "kill:{victim}@{step}+{op} never fired");
        assert!(c.recovery.restore_bytes > 0, "victim was never restored");
    });
}

/// A lossy fabric is one more thing migration must be transparent to:
/// the halos run the same retry protocol as every static engine's, so
/// dropped, damaged and duplicated frames cost retransmissions, never
/// physics or ownership — whatever the migration period, schedule or
/// backend, and although ranks whose edge lists differ (down to none)
/// share one collective protocol.
#[test]
fn lossy_migrated_runs_match_the_clean_trajectory() {
    let retries = std::cell::Cell::new(0);
    // The fault-free trajectories, per (migrate, overlap).
    let clean = [0usize, 2, 3]
        .map(|migrate| [false, true].map(|overlap| fingerprint(&run_rebalance(&cfg(migrate, overlap, Backend::Thread)))));
    let check = |migrate: usize, overlap: bool, backend: Backend, faults: FaultConfig| {
        let mut lossy = cfg([0, 2, 3][migrate], overlap, backend);
        lossy.faults = faults;
        let r = run_rebalance(&lossy);
        assert_eq!(fingerprint(&r), clean[migrate][overlap as usize], "{faults:?}");
        assert!(r.faults.total() > 0, "{faults:?} injected nothing");
        retries.set(retries.get() + r.faults.retries);
    };
    // One explicit row per fault kind, then sampled mixtures.
    for (i, f) in [
        FaultConfig { seed: 7, drop: 0.1, ..FaultConfig::off() },
        FaultConfig { seed: 7, corrupt: 0.1, ..FaultConfig::off() },
        FaultConfig { seed: 7, dup: 0.1, ..FaultConfig::off() },
        // Every data frame lost until the retry protocol's budget wave:
        // discovery, fences and the protocol's own control frames are
        // control plane and must get through untouched.
        FaultConfig { seed: 7, drop: 1.0, ..FaultConfig::off() },
    ]
    .into_iter()
    .enumerate()
    {
        check(1, i % 2 == 1, Backend::Thread, f);
    }
    cases("lossy_migrated_runs_match_the_clean_trajectory", 8, |rng| {
        let faults = FaultConfig {
            seed: rng.gen_range(1u64..1 << 20),
            drop: f64_in(rng, 0.0, 0.15),
            corrupt: f64_in(rng, 0.0, 0.1),
            dup: f64_in(rng, 0.02, 0.1),
            ..FaultConfig::off()
        };
        let backend = if Backend::event_supported() && rng.gen_bool(0.5) { Backend::Event } else { Backend::Thread };
        check(rng.gen_range(0usize..3), rng.gen_bool(0.5), backend, faults);
    });
    assert!(retries.get() > 0, "no lossy row ever retransmitted");
}

/// Coroutines and rank threads interleave discovery and migration
/// differently in real time under the one scheduler; the
/// virtual-clock protocol must still land the identical trajectory —
/// including the NBX round count, which recovery replays must not
/// inflate differently per backend.
#[test]
fn backends_agree_on_the_whole_trajectory() {
    if !Backend::event_supported() {
        return;
    }
    for migrate in [0usize, 2] {
        for overlap in [false, true] {
            let t = run_rebalance(&cfg(migrate, overlap, Backend::Thread));
            let e = run_rebalance(&cfg(migrate, overlap, Backend::Event));
            assert_eq!(
                fingerprint(&t),
                fingerprint(&e),
                "backends diverged at migrate={migrate} overlap={overlap}"
            );
            let (tm, em) = (t.migration.unwrap(), e.migration.unwrap());
            assert_eq!(tm.nbx_rounds, em.nbx_rounds);
            assert_eq!(tm.nbx_data_msgs, em.nbx_data_msgs);
        }
    }
}

/// The no-alltoall witness: on a 12-rank ring every discovery round's
/// point-to-point traffic stays proportional to the true partner degree
/// (2 per rank), far under the `ranks × (ranks-1)` floor an alltoall
/// would pay — even after migration epochs leave stale views that need
/// forwarding chases.
#[test]
fn discovery_traffic_stays_sparse_after_migrations() {
    let n = 12usize;
    let mut c =
        RebalanceCfg::new(GridCfg { dims: [2 * n, 1, 1], cells: 8, skew: 5.0 }, vec![n, 1, 1]);
    c.steps = 6;
    c.warmup = 0;
    c.migrate_every = 2;
    c.backend = Backend::Thread;
    c.net = NetworkModel::instant();
    let r = run_rebalance(&c);
    let m = r.migration.unwrap();
    assert!(m.epochs >= 2, "want several rediscovery rounds, got {}", m.epochs);
    assert_eq!(m.nbx_rounds, 1 + m.epochs, "setup + one per epoch");
    let alltoall_floor = (n * (n - 1)) as u64 * m.nbx_rounds;
    assert!(
        m.nbx_data_msgs < alltoall_floor,
        "discovery sent {} msgs over {} rounds — at least alltoall volume ({})",
        m.nbx_data_msgs,
        m.nbx_rounds,
        alltoall_floor
    );
    assert!(m.nbx_barrier_msgs > 0, "consensus must use the nonblocking barrier");
}
