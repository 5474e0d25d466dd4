//! Machine-readable dynamic-ownership benchmark: how much of a skewed
//! workload's straggler time the diffusion load balancer claws back.
//! The hotspot slab charges 8x compute, so block ownership starts with
//! the low-rank planes badly overloaded; every migrated point is
//! bit-compared against the static run before any metric is recorded,
//! and `BENCH_migrate.json` carries the recovery ratio so rebalancing
//! gains are comparable across PRs.
//!
//! Args: `bench_migrate [--smoke] [steps] [RxSxT]` — timed steps
//! (default 8) and the rank grid (default 1x1x8).
//!
//! `--smoke` is the CI mode: a skewed 2x2x2 run with migration epochs
//! every 2 steps, asserting at least one epoch traded bricks and that
//! the physics stayed bit-identical to static ownership. No JSON is
//! written.
//!
//! The guarded ratio (`scripts/bench_diff.py`): `speedup_migrate` —
//! the static straggler's modeled compute seconds per step over the
//! migrated straggler's, after the balancer converges during warmup.
//! The cost signal is modeled (charged through the virtual clock), so
//! the ratio is deterministic on any runner; the acceptance floor is
//! 1.3x and the bench itself enforces it.

use packfree::rebalance::{run_rebalance, GridCfg, RebalanceCfg};

/// Seed recorded in the JSON header (the workload fill and the kill-free
/// migration schedule are deterministic; no randomness is drawn).
const SEED: u64 = 2021;

/// The acceptance floor on the straggler-recovery ratio.
const MIN_SPEEDUP: f64 = 1.3;

/// Hotspot multiplier: the low-z slab charges 8x compute.
const SKEW: f64 = 8.0;

/// The skewed workload on a rank grid: bricks-per-axis is twice the
/// rank extent (so linear block ownership hands each rank a contiguous
/// id range and the hot slab lands entirely on the low ranks), with
/// migration epochs every 2 steps once `migrate` is armed.
fn cfg(ranks: &[usize], steps: usize, warmup: usize, migrate: usize) -> RebalanceCfg {
    let grid = GridCfg {
        dims: [2 * ranks[0], 2 * ranks[1], 2 * ranks[2]],
        cells: 64,
        skew: SKEW,
    };
    let mut c = RebalanceCfg::new(grid, ranks.to_vec());
    c.steps = steps;
    c.warmup = warmup;
    c.migrate_every = migrate;
    c.net = netsim::NetworkModel::instant();
    c.backend = netsim::Backend::Thread;
    c
}

fn smoke(steps: usize) {
    let ranks = [2usize, 2, 2];
    let steps = steps.max(6);
    let stat = run_rebalance(&cfg(&ranks, steps, 2, 0));
    let mig = run_rebalance(&cfg(&ranks, steps, 2, 2));
    assert_eq!(
        mig.checksum.to_bits(),
        stat.checksum.to_bits(),
        "smoke 2x2x2: migration changed the physics"
    );
    let m = mig.migration.expect("rebalance reports migration stats");
    assert!(m.epochs >= 1, "smoke 2x2x2: no migration epoch ran");
    assert!(m.bricks_moved > 0, "smoke 2x2x2: skew 8 moved nothing");
    println!("== migrate smoke: skewed 2x2x2, epochs every 2 steps ==");
    println!(
        "   {} epoch(s) | {} brick(s) moved ({} bytes) | imbalance {:.2} -> {:.2}",
        m.epochs, m.bricks_moved, m.bytes_moved, m.imbalance_initial, m.imbalance_final
    );
    println!(
        "   nbx: {} round(s), {} data msg(s), {} barrier msg(s)",
        m.nbx_rounds, m.nbx_data_msgs, m.nbx_barrier_msgs
    );
    println!("   ok: bit-identical to the static-ownership run");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let steps: usize = pos.first().and_then(|v| v.parse().ok()).unwrap_or(8);
    let ranks: Vec<usize> = pos
        .get(1)
        .map(|v| v.split('x').map(|p| p.parse().expect("rank grid")).collect())
        .unwrap_or_else(|| vec![1, 1, 8]);
    assert_eq!(ranks.len(), 3, "rank grid must be RxSxT");
    assert!(ranks.iter().product::<usize>() >= 2, "the diffusion ring needs >= 2 ranks");

    if smoke_mode {
        smoke(steps);
        return;
    }

    let n: usize = ranks.iter().product();
    // The balancer converges during a long warmup (migration epochs run
    // there too); the timed region then measures the steady state.
    let warmup = 12usize;
    println!(
        "== Diffusion rebalancing on a skewed workload, {:?} ranks, skew {SKEW}, {steps} timed steps ==\n",
        ranks
    );

    let stat = run_rebalance(&cfg(&ranks, steps, warmup, 0));
    let mig = run_rebalance(&cfg(&ranks, steps, warmup, 2));
    assert_eq!(
        mig.checksum.to_bits(),
        stat.checksum.to_bits(),
        "migration changed the physics"
    );
    let sm = stat.migration.expect("static run reports migration stats");
    let mm = mig.migration.expect("migrated run reports migration stats");
    assert!(mm.epochs >= 2, "warmup must fit several migration epochs");
    assert!(mm.bricks_moved > 0, "skew {SKEW} moved nothing");

    // The straggler's modeled compute seconds per timed step: the
    // metric migration exists to shrink. `summary.calc` is the
    // (min, avg, max) spread across ranks of virtual-clock charges.
    let static_calc = stat.summary.calc.2;
    let migrated_calc = mig.summary.calc.2;
    let balanced_calc = stat.summary.calc.1; // perfect balance = the mean
    let speedup_migrate = static_calc / migrated_calc;

    println!("-- straggler compute, seconds per step --");
    println!("  static ownership     {:>9.6} s/step (imbalance stays {:.2})", static_calc, mm.imbalance_initial);
    println!(
        "  migrated             {:>9.6} s/step (imbalance {:.2} -> {:.2})",
        migrated_calc, mm.imbalance_initial, mm.imbalance_final
    );
    println!("  perfect balance      {:>9.6} s/step (the mean rank load)", balanced_calc);
    println!(
        "\n  migration work: {} epoch(s), {} brick(s), {} bytes shipped",
        mm.epochs, mm.bricks_moved, mm.bytes_moved
    );
    println!(
        "  nbx discovery: {} round(s), {} data msg(s), {} barrier msg(s) \
         (alltoall floor would be {} data msgs)",
        mm.nbx_rounds,
        mm.nbx_data_msgs,
        mm.nbx_barrier_msgs,
        (n * (n - 1)) as u64 * mm.nbx_rounds
    );
    println!("\n  straggler recovery: {:.3}x (static over migrated, floor {MIN_SPEEDUP}x)", speedup_migrate);
    assert!(
        speedup_migrate >= MIN_SPEEDUP,
        "migration recovered only {speedup_migrate:.3}x of the straggler's step time (need >= {MIN_SPEEDUP}x)"
    );

    let grid = cfg(&ranks, steps, warmup, 0).grid;
    let mut json = bench::bench_json_header("migrate", SEED, &["rebalance"], grid.dims, steps);
    json.push_str(&format!(
        "  \"ranks\": [{}, {}, {}],\n  \"skew\": {SKEW},\n  \"cells\": {},\n  \"warmup\": {warmup},\n  \"migrate_every\": 2,\n",
        ranks[0], ranks[1], ranks[2], grid.cells
    ));
    json.push_str(&format!(
        "  \"static_calc_s\": {:.9},\n  \"migrated_calc_s\": {:.9},\n  \"balanced_calc_s\": {:.9},\n",
        static_calc, migrated_calc, balanced_calc
    ));
    json.push_str(&format!(
        "  \"imbalance_initial\": {:.4},\n  \"imbalance_final\": {:.4},\n",
        mm.imbalance_initial, mm.imbalance_final
    ));
    json.push_str(&format!(
        "  \"epochs\": {},\n  \"bricks_moved\": {},\n  \"bytes_moved\": {},\n",
        mm.epochs, mm.bricks_moved, mm.bytes_moved
    ));
    json.push_str(&format!(
        "  \"nbx_rounds\": {},\n  \"nbx_data_msgs\": {},\n  \"nbx_barrier_msgs\": {},\n",
        mm.nbx_rounds, mm.nbx_data_msgs, mm.nbx_barrier_msgs
    ));
    json.push_str(&format!("  \"static_nbx_rounds\": {},\n", sm.nbx_rounds));
    json.push_str(&format!("  \"speedup_migrate\": {:.3}\n", speedup_migrate));
    json.push_str("}\n");
    std::fs::write("BENCH_migrate.json", &json).expect("write BENCH_migrate.json");
    println!("\nwrote BENCH_migrate.json");
}
