//! Property-based tests on the partitioned early-bird exchange: for
//! every split-capable engine, brick width, rank split, and execution
//! backend, the partitioned timestep must compute a bit-identical grid
//! to the phased schedule. Shipping a boundary brick the moment it is
//! computed is a pure reordering of wire traffic — the receiver
//! assembles the exact mailbox bytes the phased exchange would have
//! delivered, so any drift is a channel bug, never a tolerance. A
//! chaos property repeats the check with lossy faults armed, where
//! nothing ships early and the retry protocol runs on whole messages —
//! a lossy partitioned run bills exactly what a lossy overlapped run
//! bills — and a jitter property keeps the early-shipping windows open
//! while per-rank wire speeds diverge.

mod common;

use bricklib::prelude::*;
use common::*;

/// Run one (engine, shape, geometry, ranks, faults, backend)
/// configuration both phased and partitioned and compare checksum
/// bits.
fn partitioned_matches_phased(
    method: CpuMethod,
    shape: StencilShape,
    width: usize,
    n: usize,
    ranks: Vec<usize>,
    faults: FaultConfig,
    backend: Backend,
) -> bool {
    // K1 defaults (Aries fabric, planned kernel, one warm-up step)
    // except for what the property draws.
    let mut cfg = ExperimentConfig {
        ghost: width,
        brick: width,
        shape,
        steps: 3,
        ranks,
        faults,
        backend,
        ..ExperimentConfig::k1(method, n)
    };
    let phased = run_experiment(&cfg);
    cfg.partitioned = true;
    let part = run_experiment(&cfg);
    part.checksum.to_bits() == phased.checksum.to_bits()
}

fn shapes() -> [StencilShape; 2] {
    [StencilShape::star7_default(), StencilShape::cube125_default()]
}

const RANKS: [[usize; 3]; 5] = [[1, 1, 1], [2, 1, 1], [1, 1, 2], [2, 2, 1], [2, 1, 2]];

/// Either execution substrate; `None` where the drawn one is the event
/// backend and this platform has none.
fn arb_backend(rng: &mut StdRng) -> Option<Backend> {
    let backend = pick(rng, &[Backend::Thread, Backend::Event]);
    (backend == Backend::Thread || Backend::event_supported()).then_some(backend)
}

/// Layout and Basic work at any brick width, on both execution
/// substrates.
#[test]
fn brick_engines_partitioned_bit_identical() {
    cases("brick_engines_partitioned_bit_identical", 8, |rng| {
        let shape = pick(rng, &shapes());
        let width = pick(rng, &[4usize, 8]);
        let ranks = pick(rng, &RANKS).to_vec();
        let Some(backend) = arb_backend(rng) else {
            return;
        };
        let method = pick(rng, &[CpuMethod::Basic, CpuMethod::Layout]);
        let n = 2 * width.max(8);
        assert!(partitioned_matches_phased(
            method,
            shape,
            width,
            n,
            ranks,
            FaultConfig::off(),
            backend
        ));
    });
}

/// MemMap and Shift keep their pack-free property in partitioned
/// mode: partitions alias page-backed storage bricks directly.
#[test]
fn paged_engines_partitioned_bit_identical() {
    cases("paged_engines_partitioned_bit_identical", 8, |rng| {
        let shape = pick(rng, &shapes());
        let ranks = pick(rng, &RANKS).to_vec();
        let Some(backend) = arb_backend(rng) else {
            return;
        };
        let method = pick(
            rng,
            &[CpuMethod::Shift { page_size: 4096 }, CpuMethod::MemMap { page_size: 4096 }],
        );
        assert!(partitioned_matches_phased(
            method,
            shape,
            8,
            16,
            ranks,
            FaultConfig::off(),
            backend
        ));
    });
}

/// Under seeded lossy chaos nothing ships early and the retry protocol
/// runs on whole messages; the physics must not move.
#[test]
fn chaos_partitioned_bit_identical() {
    cases("chaos_partitioned_bit_identical", 8, |rng| {
        let seed = rng.gen_range(1u64..64);
        let method = pick(rng, &[CpuMethod::Shift { page_size: 4096 }, CpuMethod::Layout]);
        let faults = FaultConfig::parse(&format!("{seed},0.05,0.02,0.05")).unwrap();
        assert!(partitioned_matches_phased(
            method,
            StencilShape::star7_default(),
            8,
            16,
            vec![1, 1, 2],
            faults,
            Backend::Thread,
        ));
    });
}

/// A lossy fabric closes the partitioned channels: nothing ships early
/// and the one retry protocol runs on whole messages, so a partitioned
/// run bills what the overlapped run of the same seed bills — the same
/// modeled `call`/`wait` bits, messages, wire bytes, injected faults and
/// protocol responses — on every split-capable engine and both backends.
#[test]
fn lossy_partitioned_bills_what_lossy_overlap_bills() {
    let methods = [
        CpuMethod::Layout,
        CpuMethod::Basic,
        CpuMethod::MemMap { page_size: 4096 },
        CpuMethod::Shift { page_size: 4096 },
    ];
    for method in methods {
        for seed in [7u64, 42] {
            for backend in [Backend::Thread, Backend::Event] {
                if backend == Backend::Event && !Backend::event_supported() {
                    continue;
                }
                let faults = FaultConfig::parse(&format!("{seed},0.05,0.02,0.05")).unwrap();
                let mut cfg = ExperimentConfig {
                    steps: 3,
                    ranks: vec![1, 1, 2],
                    faults,
                    backend,
                    overlap: true,
                    ..ExperimentConfig::k1(method.clone(), 16)
                };
                let overlap = run_experiment(&cfg);
                cfg.overlap = false;
                cfg.partitioned = true;
                let part = run_experiment(&cfg);
                let what = format!("{} seed {seed} {backend:?}", method.name());
                let (o, p) = (&overlap.timers, &part.timers);
                assert_eq!((p.call.to_bits(), p.wait.to_bits()), (o.call.to_bits(), o.wait.to_bits()), "{what}");
                assert_eq!((p.msgs, p.wire_bytes), (o.msgs, o.wire_bytes), "{what}");
                assert_eq!(part.faults, overlap.faults, "{what}");
                assert_eq!(part.recovery, overlap.recovery, "{what}");
                assert!(part.faults.total() > 0, "{what}: seed {seed} must inject something");
                assert_eq!(part.checksum.to_bits(), overlap.checksum.to_bits(), "{what}");
            }
        }
    }
}

/// A crash-stop kill landing between `pready` calls — on top of
/// seeded drop/corrupt chaos — is survived by the buddy-checkpoint
/// recovery epoch: partitioned channels are rebuilt from scratch and
/// the partitioned run still matches the phased run bit for bit.
#[test]
fn killed_partitioned_bit_identical() {
    cases("killed_partitioned_bit_identical", 8, |rng| {
        let seed = rng.gen_range(1u64..32);
        let victim = rng.gen_range(0usize..2);
        let step = rng.gen_range(0u64..3);
        let op = pick(rng, &[0u64, 3, 9]);
        let spec = if rng.gen_bool(0.5) {
            format!("{seed},0.03,0.02,kill:{victim}@{step}+{op}")
        } else {
            format!("kill:{victim}@{step}+{op}")
        };
        let mut faults = FaultConfig::parse(&spec).unwrap();
        faults.seed = seed;
        assert!(
            partitioned_matches_phased(
                CpuMethod::Layout,
                StencilShape::star7_default(),
                8,
                16,
                vec![1, 1, 2],
                faults,
                Backend::Thread,
            ),
            "{spec}"
        );
    });
}

/// Data-safe jitter stretches per-rank wire speeds without closing
/// the early-shipping windows: partitioned stays exact while slow
/// ranks lag.
#[test]
fn jittered_partitioned_bit_identical() {
    cases("jittered_partitioned_bit_identical", 8, |rng| {
        let seed = rng.gen_range(1u64..64);
        let method = pick(rng, &[CpuMethod::MemMap { page_size: 4096 }, CpuMethod::Layout]);
        let faults = FaultConfig { seed, jitter: 0.4, ..FaultConfig::off() };
        assert!(!faults.lossy(), "jitter must stay data-safe");
        assert!(partitioned_matches_phased(
            method,
            StencilShape::star7_default(),
            8,
            16,
            vec![2, 1, 1],
            faults,
            Backend::Thread,
        ));
    });
}
