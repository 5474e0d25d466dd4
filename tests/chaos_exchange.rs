//! Acceptance chaos suite: with 10% drop + 5% corruption at a fixed
//! seed, every exchange implementation self-heals and lands on fields
//! bit-identical to the fault-free run, while the report accounts for
//! both the injected damage and the recovery work.
//!
//! The seed can be overridden with `BRICK_CHAOS_SEED` so CI can sweep
//! several fixed seeds without recompiling.

use bricklib::prelude::*;

fn seed() -> u64 {
    std::env::var("BRICK_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn chaos() -> FaultConfig {
    FaultConfig { seed: seed(), drop: 0.10, corrupt: 0.05, ..FaultConfig::default() }
}

fn cfg(method: CpuMethod, faults: FaultConfig) -> ExperimentConfig {
    let mut c = ExperimentConfig::k1(method, 16);
    // Enough steps that the sparsest engine cannot dodge the schedule:
    // Shift on 2x1x1 puts only four frames per step on the fabric (two
    // per rank), so sixteen steps draw 64 times at 15% (a miss needs
    // 0.85^64, about 3e-5; three steps missed at the default seed).
    c.steps = 16;
    c.warmup = 0;
    c.ranks = vec![2, 1, 1];
    c.net = NetworkModel::instant();
    c.faults = faults;
    c
}

/// Every method, and Layout-OL: `(method, overlap)`.
fn all_methods() -> Vec<(CpuMethod, bool)> {
    vec![
        (CpuMethod::Layout, false),
        (CpuMethod::Layout, true),
        (CpuMethod::Basic, false),
        (CpuMethod::MemMap { page_size: memview::PAGE_4K }, false),
        (CpuMethod::Shift { page_size: memview::PAGE_4K }, false),
        (CpuMethod::Yask, false),
        (CpuMethod::MpiTypes, false),
    ]
}

/// The acceptance invariant: 10% drop + 5% corruption at a fixed seed
/// leaves every method's physics bit-identical to the fault-free run —
/// on two ranks under the environment's backend, and on 2x2x2 ranks
/// multiplexed by the event scheduler.
#[test]
fn chaos_runs_are_bit_identical_to_fault_free() {
    for (method, overlap) in all_methods() {
        for event_8 in [false, true] {
            let leg = |faults| {
                let mut c = ExperimentConfig { overlap, ..cfg(method.clone(), faults) };
                if event_8 {
                    c.ranks = vec![2, 2, 2];
                    c.backend = Backend::Event;
                }
                c
            };
            let clean = run_experiment(&leg(FaultConfig::off()));
            let lossy_cfg = leg(chaos());
            let lossy = run_experiment(&lossy_cfg);
            assert!(
                lossy.faults.total() > 0,
                "{}: chaos schedule injected nothing",
                method.name()
            );
            assert_eq!(
                lossy.checksum.to_bits(),
                clean.checksum.to_bits(),
                "{} on {:?} ranks diverged under drop 10% / corrupt 5% (seed {})",
                method.name(),
                lossy_cfg.ranks,
                seed()
            );
            // Dropped frames are never also corrupted, and every frame
            // that arrives is one its receiver still needs, so each
            // injected corruption meets the frame checksum exactly once.
            assert_eq!(
                lossy.faults.corrupt_detected,
                lossy.faults.corrupts,
                "{} on {:?} ranks: a corrupted frame slipped past the checksum (seed {})",
                method.name(),
                lossy_cfg.ranks,
                seed()
            );
        }
    }
}

/// Dropped frames force retries and corrupted frames are caught by the
/// checksum: the recovery counters in the report prove the protocol did
/// the healing (rather than the faults happening to miss).
#[test]
fn recovery_work_is_accounted() {
    let r = run_experiment(&cfg(CpuMethod::Layout, chaos()));
    assert!(r.faults.drops > 0, "seed {} injected no drops", seed());
    assert!(r.faults.retries > 0, "drops were injected but nothing was retried");
    assert!(
        r.faults.corrupts == 0 || r.faults.corrupt_detected > 0,
        "corrupted frames slipped past the checksum"
    );
    assert_eq!(r.fault_events.len() as u64, r.faults.total());
}

/// Every injected fault is answered exactly once, summed over ranks:
/// each dropped or corrupted frame is resent once, and each damaged or
/// duplicated copy that arrives is rejected or discarded once. Eight
/// seeds at the top of the chaos envelope, four static engines and the
/// migrating one, on both backends. A receive given up on before its
/// frame arrived would cost a retry no fault asked for.
#[test]
fn every_injected_fault_is_answered_exactly_once() {
    let methods = [
        CpuMethod::Layout,
        CpuMethod::Basic,
        CpuMethod::MemMap { page_size: memview::PAGE_4K },
        CpuMethod::Shift { page_size: memview::PAGE_4K },
    ];
    for backend in [Backend::Thread, Backend::Event] {
        for seed in 1..=8 {
            let faults = FaultConfig { seed, drop: 0.20, corrupt: 0.10, dup: 0.10, ..FaultConfig::default() };
            let mut runs: Vec<(String, FaultStats)> = methods
                .iter()
                .map(|method| {
                    let mut c = cfg(method.clone(), faults);
                    c.steps = 4;
                    c.backend = backend;
                    (method.name().to_string(), run_experiment(&c).faults)
                })
                .collect();
            let mut reb = RebalanceCfg::new(GridCfg { dims: [4, 2, 2], cells: 8, skew: 6.0 }, vec![2, 2, 1]);
            reb.migrate_every = 2;
            reb.net = NetworkModel::instant();
            reb.backend = backend;
            reb.faults = faults;
            runs.push(("rebalance".into(), run_rebalance(&reb).faults));
            for (name, f) in runs {
                let at = format!("{name} on {backend}, seed {seed}: {f:?}");
                assert!(f.drops + f.corrupts + f.dups > 0, "{at}: nothing injected");
                assert_eq!(f.retries, f.drops + f.corrupts, "{at}: retries");
                assert_eq!(
                    f.corrupt_detected + f.duplicates_discarded,
                    f.corrupts + f.dups,
                    "{at}: rejected and discarded copies"
                );
            }
        }
    }
}

/// Fault-free runs must not pay for the chaos layer: no recovery
/// counters move and no fault events are recorded.
#[test]
fn fault_free_runs_report_zero_recovery() {
    let r = run_experiment(&cfg(CpuMethod::Layout, FaultConfig::off()));
    assert_eq!(r.faults.total(), 0);
    assert!(r.fault_events.is_empty());
    assert_eq!(r.faults.retries, 0);
    assert_eq!(r.faults.duplicates_discarded, 0);
    assert_eq!(r.faults.corrupt_detected, 0);
    assert_eq!(r.faults.degraded_exchanges, 0);
}

/// Per-rank jitter and delay slow the wire model but never change
/// delivery: no method switches to the retry protocol for them, so
/// physics and traffic stay those of the fault-free run with stragglers
/// in the cluster.
#[test]
fn jitter_and_delay_do_not_change_physics() {
    let faults =
        FaultConfig { seed: seed(), delay: 0.3, jitter: 0.5, ..FaultConfig::default() };
    for (method, overlap) in all_methods() {
        let clean = run_experiment(&ExperimentConfig { overlap, ..cfg(method.clone(), FaultConfig::off()) });
        let slow = run_experiment(&ExperimentConfig { overlap, ..cfg(method.clone(), faults) });
        let name = method.name();
        assert_eq!(slow.checksum.to_bits(), clean.checksum.to_bits(), "{name}");
        assert_eq!(slow.timers.msgs, clean.timers.msgs, "{name}: messages per step");
        assert_eq!(slow.timers.wire_bytes, clean.timers.wire_bytes, "{name}: wire bytes per step");
        assert_eq!(slow.faults.retries, 0, "{name}: nothing can be lost, nothing is retried");
        assert!(slow.faults.delays > 0, "{name}: seed {} charged no delays", seed());
    }
}
