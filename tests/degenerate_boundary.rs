//! Degenerate boundary geometries for the split schedulers: ranks at
//! the minimum legal subdomain (`2 x ghost` per axis — every owned
//! brick touches a face, the interior sub-plan is empty) in both the
//! coarse-brick and fine-brick all-boundary shapes. The overlap and
//! partitioned paths must schedule these without an interior phase to
//! hide behind and still land bit-identical to the phased run — an
//! empty interior is the worst case for early-bird shipping, not an
//! excuse to diverge.

use bricklib::prelude::*;
use stencil::PlanSplit;

fn cfg(method: CpuMethod, n: usize, brick: usize, ranks: Vec<usize>) -> ExperimentConfig {
    ExperimentConfig {
        method,
        subdomain: [n; 3],
        ghost: 8,
        brick,
        shape: StencilShape::star7_default(),
        steps: 3,
        warmup: 1,
        ranks,
        net: NetworkModel::theta_aries(),
        topology: None,
        mapping: Default::default(),
        kernel: KernelKind::Plan,
        faults: FaultConfig::off(),
        profile: false,
        checkpoint_every: 0,
        overlap: false,
        partitioned: false,
        backend: Backend::from_env(),
    }
}

fn engines() -> [CpuMethod; 4] {
    [
        CpuMethod::Layout,
        CpuMethod::Basic,
        CpuMethod::MemMap { page_size: 4096 },
        CpuMethod::Shift { page_size: 4096 },
    ]
}

/// Both dag schedules against the phased reference on one geometry.
fn assert_dag_paths_match(n: usize, brick: usize, ranks: Vec<usize>) {
    for m in engines() {
        // Paged engines need page-sized bricks; skip fine-brick shapes
        // their storage cannot express.
        if brick != 8
            && matches!(m, CpuMethod::MemMap { .. } | CpuMethod::Shift { .. })
        {
            continue;
        }
        let base = cfg(m.clone(), n, brick, ranks.clone());
        let phased = run_experiment(&base);

        let mut oc = base.clone();
        oc.overlap = true;
        let over = run_experiment(&oc);
        assert_eq!(
            over.checksum.to_bits(),
            phased.checksum.to_bits(),
            "overlap diverged for {m:?} at n={n} ranks={ranks:?}"
        );

        let mut pc = base.clone();
        pc.partitioned = true;
        let part = run_experiment(&pc);
        assert_eq!(
            part.checksum.to_bits(),
            phased.checksum.to_bits(),
            "partitioned diverged for {m:?} at n={n} ranks={ranks:?}"
        );
    }
}

/// A mask with no interior brick splits into an empty interior
/// sub-plan and a boundary list covering the whole compute set.
#[test]
fn plansplit_all_boundary_mask() {
    let interior = vec![false; 8];
    let compute = vec![true; 8];
    let split = PlanSplit::new(&interior, &compute);
    assert_eq!(split.interior().iter().filter(|&&b| b).count(), 0);
    assert!(split.interior().iter().all(|&b| !b));
    assert_eq!(split.boundary(), (0u32..8).collect::<Vec<_>>());
}

/// A compute set that skips ghost bricks still excludes them from both
/// halves of the split.
#[test]
fn plansplit_respects_compute_mask() {
    let interior = vec![false, false, true, false];
    let compute = vec![false, true, true, true];
    let split = PlanSplit::new(&interior, &compute);
    assert_eq!(split.interior().iter().filter(|&&b| b).count(), 1);
    assert_eq!(split.boundary(), &[1, 3]);
}

/// The minimum legal subdomain (two ghost-width bricks per axis):
/// every owned brick touches a face, the interior mask is empty, and
/// the dependency graph gates the whole compute set on the wire — the
/// step runs entirely in the post-receive batches.
#[test]
fn minimum_grid_all_paths_bit_identical() {
    assert_dag_paths_match(16, 8, vec![1, 1, 2]);
    assert_dag_paths_match(16, 8, vec![2, 2, 1]);
}

/// The same all-boundary geometry cut into fine bricks (ghost spans
/// two bricks): many boundary bricks per message, still no interior.
#[test]
fn fine_brick_empty_interior_bit_identical() {
    assert_dag_paths_match(16, 4, vec![1, 1, 2]);
}

/// The degenerate geometries still record well-formed overlap stats:
/// no interior compute to hide behind, but total wire time billed and
/// the early-shipped fraction in range.
#[test]
fn empty_interior_reports_sane_overlap_stats() {
    let mut c = cfg(CpuMethod::Layout, 16, 8, vec![1, 1, 2]);
    c.partitioned = true;
    let r = run_experiment(&c);
    let s = r.overlap_stats.expect("dag run records stats");
    assert!(s.total_wire > 0.0);
    assert!((0.0..=1.0).contains(&s.efficiency()));
    assert!((0.0..=1.0).contains(&s.early_shipped_fraction()));
}
