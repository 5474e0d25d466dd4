//! Property-based tests on the two cluster backends: for every exchange
//! engine, stencil shape, rank split, and chaos seed, running the
//! experiment on coroutines must produce bit-identical physics, modeled
//! timers and fault accounting to running it on rank threads. Both are
//! two stacks under one scheduler, which runs them in different orders
//! (a coroutine switch is far cheaper than a thread hand-off), and no
//! protocol step waits on a clock, so any drift is a scheduler or
//! substrate bug, never an acceptable tolerance. The matrix mirrors
//! `proptest_overlap.rs`.

mod common;

use bricklib::prelude::*;
use common::*;

/// Run one configuration on both backends and compare the observable
/// fingerprint: interior checksum bits, traffic counters, the modeled
/// `call`/`wait` timer bits and every injected-fault and retry-protocol
/// counter, on clean and lossy plans alike. (The really-measured
/// `calc`/`pack` fields are wall-clock and excluded by design.)
fn assert_backends_match(
    method: CpuMethod,
    shape: StencilShape,
    width: usize,
    n: usize,
    ranks: Vec<usize>,
    faults: FaultConfig,
    overlap: bool,
) {
    if !Backend::event_supported() {
        return; // nothing to compare on this platform
    }
    // K1 defaults (Aries fabric, planned kernel, one warm-up step)
    // except for what the property draws.
    let mut cfg = ExperimentConfig {
        ghost: width,
        brick: width,
        shape,
        steps: 2,
        ranks,
        faults,
        overlap,
        backend: Backend::Thread,
        ..ExperimentConfig::k1(method, n)
    };
    // MpiTypes charges its really-measured element walk into `call`
    // (mirroring MPI library-internal time — see baselines.rs), so for
    // that engine `call` is wall-clock, not modeled, and is excluded
    // like `calc`/`pack`.
    let call_is_modeled = !matches!(cfg.method, CpuMethod::MpiTypes);
    let t = run_experiment(&cfg);
    cfg.backend = Backend::Event;
    let e = run_experiment(&cfg);
    let fp = |r: &MethodReport| {
        let timing = (
            if call_is_modeled { r.timers.call.to_bits() } else { 0 },
            r.timers.wait.to_bits(),
            r.timers.msgs,
            r.timers.wire_bytes,
        );
        (r.checksum.to_bits(), r.stats.messages, r.stats.payload_bytes, timing, r.faults)
    };
    assert_eq!(fp(&t), fp(&e), "thread vs event fingerprint");
}

fn shapes() -> [StencilShape; 2] {
    [StencilShape::star7_default(), StencilShape::cube125_default()]
}

const RANKS: [[usize; 3]; 5] = [[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 1]];

/// The brick engines (any width) agree across backends.
#[test]
fn brick_engines_backend_bit_identical() {
    cases("brick_engines_backend_bit_identical", 8, |rng| {
        let shape = pick(rng, &shapes());
        let width = pick(rng, &[4usize, 8]);
        let ranks = pick(rng, &RANKS).to_vec();
        let method = pick(rng, &[CpuMethod::Basic, CpuMethod::Layout]);
        let n = 2 * width.max(8);
        assert_backends_match(method, shape, width, n, ranks, FaultConfig::off(), false);
    });
}

/// The paged engines (memmap/shift) and the packed array baselines
/// agree across backends.
#[test]
fn other_engines_backend_bit_identical() {
    cases("other_engines_backend_bit_identical", 8, |rng| {
        let shape = pick(rng, &shapes());
        let ranks = pick(rng, &RANKS).to_vec();
        let method = pick(
            rng,
            &[
                CpuMethod::MemMap { page_size: 4096 },
                CpuMethod::Shift { page_size: 4096 },
                CpuMethod::Yask,
                CpuMethod::MpiTypes,
            ],
        );
        assert_backends_match(method, shape, 8, 16, ranks, FaultConfig::off(), false);
    });
}

fn chaos(seed: u64) -> FaultConfig {
    FaultConfig::parse(&format!("{seed},0.05,0.02,0.05")).unwrap()
}

/// Seeded chaos exercises the retry protocol through the two completely
/// different blocking implementations; it must converge to the same
/// bits, the same modeled cost and the same retries on both.
#[test]
fn chaos_backend_bit_identical() {
    cases("chaos_backend_bit_identical", 8, |rng| {
        let seed = rng.gen_range(1u64..64);
        let method = pick(rng, &[CpuMethod::Shift { page_size: 4096 }, CpuMethod::Layout]);
        let star = StencilShape::star7_default();
        assert_backends_match(method, star, 8, 16, vec![2, 1, 1], chaos(seed), false);
    });
}

/// The dependency-graph overlap scheduler polls and parks in a
/// tighter loop than the phased drivers; it too must agree across
/// backends, with and without chaos.
#[test]
fn overlap_backend_bit_identical() {
    let check = |method, faults| {
        let star = StencilShape::star7_default();
        assert_backends_match(method, star, 8, 16, vec![2, 1, 1], faults, true)
    };
    // The clean plan always runs: one chaos seed in 32 could leave a
    // fixed suite without it.
    check(CpuMethod::Layout, FaultConfig::off());
    cases("overlap_backend_bit_identical", 8, |rng| {
        let method = pick(rng, &[CpuMethod::Basic, CpuMethod::Layout]);
        let seed = rng.gen_range(0u64..32);
        check(method, if seed == 0 { FaultConfig::off() } else { chaos(seed) });
    });
}
