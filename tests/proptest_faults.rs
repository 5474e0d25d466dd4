//! Property tests for the chaos layer: under *any* seeded fault
//! schedule (drops up to 20%, corruption up to 10%, duplication up to
//! 10%), every exchange implementation must converge to fields that are
//! bit-identical to the fault-free run — the reliable protocol may cost
//! extra rounds and wire traffic, but never a single ulp of physics.
//! Replaying a seed reproduces the same fields, which is what makes a
//! failing chaos case shrinkable and debuggable.

mod common;

use bricklib::prelude::*;
use common::*;

fn cfg(method: CpuMethod, faults: FaultConfig) -> ExperimentConfig {
    let mut c = ExperimentConfig::k1(method, 16);
    c.steps = 3;
    c.warmup = 0;
    c.ranks = vec![2, 1, 1];
    c.net = NetworkModel::instant();
    c.faults = faults;
    c
}

fn methods() -> [CpuMethod; 4] {
    [
        CpuMethod::Layout,
        CpuMethod::Basic,
        CpuMethod::MemMap { page_size: memview::PAGE_4K },
        CpuMethod::Shift { page_size: memview::PAGE_4K },
    ]
}

/// Any (seed, probabilities) schedule within the chaos envelope
/// leaves the physics bit-identical to the fault-free run, for every
/// exchange implementation.
#[test]
fn any_fault_schedule_converges_bit_identically() {
    cases("any_fault_schedule_converges_bit_identically", 8, |rng| {
        let faults = FaultConfig {
            seed: rng.next_u64(),
            drop: f64_in(rng, 0.0, 0.20),
            corrupt: f64_in(rng, 0.0, 0.10),
            dup: f64_in(rng, 0.0, 0.10),
            ..FaultConfig::default()
        };
        let method = pick(rng, &methods());
        let clean = run_experiment(&cfg(method.clone(), FaultConfig::off()));
        let lossy = run_experiment(&cfg(method.clone(), faults));
        assert_eq!(
            lossy.checksum.to_bits(),
            clean.checksum.to_bits(),
            "{} diverged under faults {:?}",
            method.name(),
            faults
        );
    });
}

/// Replaying the same seed reproduces the same fields, the same fault
/// and retry accounting and the same modeled cost: no protocol step
/// waits on a clock, so the retries are a function of the seed alone.
#[test]
fn same_seed_replays_to_identical_grids() {
    cases("same_seed_replays_to_identical_grids", 8, |rng| {
        let seed = rng.next_u64();
        let faults =
            FaultConfig { seed, drop: 0.15, corrupt: 0.08, dup: 0.08, ..FaultConfig::default() };
        let a = run_experiment(&cfg(CpuMethod::Layout, faults));
        let b = run_experiment(&cfg(CpuMethod::Layout, faults));
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
        assert_eq!(a.faults, b.faults, "seed {seed:#x}");
        let modeled = |r: &MethodReport| (r.timers.call.to_bits(), r.timers.wait.to_bits());
        assert_eq!(modeled(&a), modeled(&b), "seed {seed:#x}");
    });
}

/// Duplication alone can never change delivered data: stale copies
/// are discarded by sequence number, and the discard is counted.
#[test]
fn duplication_is_discarded_not_delivered() {
    let clean = run_experiment(&cfg(CpuMethod::Layout, FaultConfig::off()));
    cases("duplication_is_discarded_not_delivered", 8, |rng| {
        let faults = FaultConfig {
            seed: rng.next_u64(),
            dup: f64_in(rng, 0.3, 0.8),
            ..FaultConfig::default()
        };
        let noisy = run_experiment(&cfg(CpuMethod::Layout, faults));
        assert_eq!(noisy.checksum.to_bits(), clean.checksum.to_bits());
        assert!(
            noisy.faults.dups == 0 || noisy.faults.duplicates_discarded > 0,
            "injected {} dups but discarded none",
            noisy.faults.dups
        );
    });
}
