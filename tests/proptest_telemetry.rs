//! Property tests for the telemetry subsystem: under every method, rank
//! grid, fabric, and step count (the whole 9 × 2 × 2 × 3 product is
//! enumerated), a profiled run must produce one timeline per rank whose
//! spans are well-nested and monotone on that rank's virtual clock, and
//! whose phase-time sum reproduces the engine's own timer total within
//! float rounding. The single billing point in the rank context makes
//! the breakdown an accounting identity, not an estimate — these tests
//! pin that down.

use bricklib::prelude::*;

/// Every method, and YASK-OL and Layout-OL: `(method, overlap)`.
fn methods() -> [(CpuMethod, bool); 9] {
    [
        (CpuMethod::Layout, false),
        (CpuMethod::Basic, false),
        (CpuMethod::NoLayout, false),
        (CpuMethod::MemMap { page_size: memview::PAGE_4K }, false),
        (CpuMethod::Shift { page_size: memview::PAGE_4K }, false),
        (CpuMethod::Yask, false),
        (CpuMethod::Yask, true),
        (CpuMethod::Layout, true),
        (CpuMethod::MpiTypes, false),
    ]
}

fn cfg((method, overlap): (CpuMethod, bool), ranks: [usize; 3], steps: usize, net: NetworkModel) -> ExperimentConfig {
    let mut c = ExperimentConfig::k1(method, 16);
    c.overlap = overlap;
    c.steps = steps;
    c.warmup = 1; // exercise the reset-then-enable boundary
    c.ranks = ranks.to_vec();
    c.net = net;
    c.profile = true;
    c
}

/// Every profiled run yields one valid timeline per rank (intervals
/// finite and ordered, children inside parents, siblings disjoint,
/// starts monotone in virtual time), and rank 0's phase-time sum
/// equals the reported per-step timers times the timed step count.
#[test]
fn profiled_timelines_are_well_nested_and_account_exactly() {
    for method in methods() {
        for steps in 1..4 {
            for ranks in [[1, 1, 1], [2, 1, 1]] {
                for net in [NetworkModel::instant(), NetworkModel::theta_aries()] {
                    check_profiled_run(method.clone(), steps, ranks, net);
                }
            }
        }
    }
}

fn check_profiled_run(method: (CpuMethod, bool), steps: usize, ranks: [usize; 3], net: NetworkModel) {
    let what = format!("{} (overlap {}) x {steps} on {ranks:?}", method.0.name(), method.1);
    let r = run_experiment(&cfg(method, ranks, steps, net));

    assert_eq!(r.timelines.len(), ranks.iter().product::<usize>(), "{what}");
    for (rank, t) in r.timelines.iter().enumerate() {
        assert_eq!(t.rank, rank);
        let v = t.validate();
        assert!(v.is_ok(), "{what} rank {rank}: {v:?}");
    }

    // `timers` is rank 0's per-step average; the timeline covers all
    // timed steps, so the identity is sum == timers.total() * steps.
    let expect = r.timers.total() * steps as f64;
    let got = r.timelines[0].phase_breakdown().total();
    assert!(
        (got - expect).abs() <= 1e-9 * expect.max(1.0),
        "{what}: phase sum {got} != timer total {expect}"
    );
}

/// With profiling off (the default), no timelines are retained — the
/// disabled path records nothing, for any method.
#[test]
fn unprofiled_runs_carry_no_timelines() {
    for method in methods() {
        for steps in 1..3 {
            let mut c = cfg(method.clone(), [1, 1, 1], steps, NetworkModel::instant());
            c.profile = false;
            let r = run_experiment(&c);
            assert!(r.timelines.is_empty(), "{} x {steps}", method.0.name());
            assert!(r.fault_seed.is_none());
        }
    }
}
