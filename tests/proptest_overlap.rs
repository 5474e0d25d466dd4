//! Property-based tests on the dependency-graph overlap scheduler: for
//! every split-capable exchange engine, stencil shape, brick width, and
//! rank split, the overlapped timestep must compute a bit-identical
//! grid to the phased schedule. Interleaving interior compute with the
//! wire is a pure reordering — any drift is a scheduler bug, never an
//! acceptable tolerance. A chaos property repeats the check with fault
//! injection armed, where the overlap window collapses (the reliable
//! protocol is collective) but the physics must not change.

mod common;

use bricklib::prelude::*;
use common::*;

/// Run one (engine, shape, geometry, ranks, faults) configuration both
/// phased and overlapped and compare checksum bits.
fn overlap_matches_phased(
    method: CpuMethod,
    shape: StencilShape,
    width: usize,
    n: usize,
    ranks: Vec<usize>,
    faults: FaultConfig,
) -> bool {
    // K1 defaults (Aries fabric, planned kernel, one warm-up step,
    // backend from the environment) except for what the property draws.
    let mut cfg = ExperimentConfig {
        ghost: width,
        brick: width,
        shape,
        steps: 2,
        ranks,
        faults,
        ..ExperimentConfig::k1(method, n)
    };
    let phased = run_experiment(&cfg);
    cfg.overlap = true;
    let over = run_experiment(&cfg);
    over.checksum.to_bits() == phased.checksum.to_bits()
}

fn shapes() -> [StencilShape; 2] {
    [StencilShape::star7_default(), StencilShape::cube125_default()]
}

const RANKS: [[usize; 3]; 5] = [[1, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 1]];

/// Layout and Basic work at any brick width. The subdomain is sized so
/// every width yields at least two bricks per axis (interior plus
/// boundary), keeping both sides of the dependency graph populated.
#[test]
fn brick_engines_overlap_bit_identical() {
    cases("brick_engines_overlap_bit_identical", 8, |rng| {
        let shape = pick(rng, &shapes());
        let width = pick(rng, &[4usize, 8, 16]);
        let ranks = pick(rng, &RANKS).to_vec();
        let method = pick(rng, &[CpuMethod::Basic, CpuMethod::Layout]);
        let n = 2 * width.max(8);
        assert!(overlap_matches_phased(method, shape, width, n, ranks, FaultConfig::off()));
    });
}

/// MemMap and Shift need page-aligned bricks: 8^3 f64 bricks are
/// exactly one 4 KiB page, 16^3 are eight.
#[test]
fn paged_engines_overlap_bit_identical() {
    cases("paged_engines_overlap_bit_identical", 8, |rng| {
        let shape = pick(rng, &shapes());
        let width = pick(rng, &[8usize, 16]);
        let ranks = pick(rng, &RANKS).to_vec();
        let method = pick(
            rng,
            &[CpuMethod::Shift { page_size: 4096 }, CpuMethod::MemMap { page_size: 4096 }],
        );
        assert!(overlap_matches_phased(method, shape, width, 2 * width, ranks, FaultConfig::off()));
    });
}

/// The array baselines compute their 8³ tiles on the same dependency
/// graph: YASK and MPI_Types, both shapes, a one- and a two-axis rank
/// split, both backends, clean and under seeded chaos — overlapped bits
/// equal phased bits, and the overlapped run measures its window.
#[test]
fn array_engines_overlap_bit_identical() {
    let lossy = FaultConfig::parse("42,0.05,0.02,0.05").unwrap();
    for method in [CpuMethod::Yask, CpuMethod::MpiTypes] {
        for shape in shapes() {
            for ranks in [[2, 1, 1], [1, 2, 2]] {
                for backend in [Backend::Thread, Backend::Event] {
                    for faults in [FaultConfig::off(), lossy] {
                        // 24^3: three tiles per axis, so one is interior.
                        let mut cfg = ExperimentConfig {
                            shape: shape.clone(),
                            steps: 2,
                            ranks: ranks.to_vec(),
                            faults,
                            backend,
                            ..ExperimentConfig::k1(method.clone(), 24)
                        };
                        let phased = run_experiment(&cfg);
                        cfg.overlap = true;
                        let over = run_experiment(&cfg);
                        let what = format!("{} {} taps {ranks:?} {backend:?} {faults:?}", method.name(), shape.points());
                        assert_eq!(over.checksum.to_bits(), phased.checksum.to_bits(), "{what}");
                        let s = over.overlap_stats.expect("an overlapped run measures its window");
                        assert!(s.total_wire > 0.0 && over.calc_hidden > 0.0, "{what}: {s:?}");
                    }
                }
            }
        }
    }
}

/// Under seeded chaos the overlapped run still converges to the
/// same bits: begin() routes the collective reliable protocol and
/// the scheduler degrades to the phased order.
#[test]
fn chaos_overlap_bit_identical() {
    cases("chaos_overlap_bit_identical", 8, |rng| {
        let seed = rng.gen_range(1u64..64);
        let method = pick(rng, &[CpuMethod::Shift { page_size: 4096 }, CpuMethod::Layout]);
        let faults = FaultConfig::parse(&format!("{seed},0.05,0.02,0.05")).unwrap();
        let star = StencilShape::star7_default();
        assert!(overlap_matches_phased(method, star, 8, 16, vec![2, 1, 1], faults));
    });
}
