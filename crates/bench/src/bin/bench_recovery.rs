//! Machine-readable rank-failure recovery benchmark: the cost of the
//! buddy-checkpoint protocol on the clean path (no faults) and the
//! cost of surviving a crash-stop kill, swept over the checkpoint
//! interval K. Every faulty run is bit-compared against the fault-free
//! run before any timing is recorded; `BENCH_recovery.json` carries
//! the sweep so the resilience overhead is comparable across PRs.
//!
//! Args: `bench_recovery [--smoke] [n] [steps] [RxSxT]` — per-rank
//! subdomain (default 32), timed steps (default 8), rank grid (default
//! 1x1x2 so the victim has a buddy).
//!
//! `--smoke` is the CI mode: a 2x2x2 rank grid, kill rank 3 mid-run,
//! assert bit-identity against the fault-free run plus a completed
//! recovery epoch. No JSON is written.
//!
//! The guarded ratios (`scripts/bench_diff.py`): `speedup_plain_vs_k2`
//! and `speedup_plain_vs_k4` — the clean-path overhead of checkpointing
//! every 2 (the ROADMAP target's interval) and every 4 steps (modeled
//! time, plain over checkpointed, so values just under 1.0) — and
//! `speedup_recover_k4_vs_k1` — surviving a kill with sparse
//! checkpoints (K=4: cheap steady state, longer replay) versus
//! checkpointing every step (K=1: expensive steady state, minimal
//! replay). All are modeled-clock ratios, so they are deterministic
//! on any runner. The per-K trajectories stay in the JSON unguarded.
//!
//! Every checkpointed row is also held to the snapshot-byte identity: a
//! snapshot is the owned prefix of the grid (no ghost rim), so
//! `checkpoint_bytes` is `checkpoints` such prefixes and a recovery
//! streams exactly two of them to the respawned rank.

use netsim::{FaultConfig, ProcFault};
use packfree::experiment::{run_experiment, CpuMethod, ExperimentConfig, MethodReport};

/// Seed recorded in the JSON header (the kill schedule itself is
/// deterministic; no randomness is drawn).
const SEED: u64 = 2021;

/// Repetitions per configuration; the minimum step time over the reps
/// is the comparison point (wall-clock calc noise never inflates a
/// run, so the guarded ratios stay runner-independent).
const REPS: usize = 3;

/// Min-over-reps (step time, comm time) plus the last report. The
/// counters are deterministic across reps; only wall-clock timing
/// varies — and only in `calc`, which is why the guarded ratios are
/// built on `comm_time()` (the modeled communication share).
fn timed(cfg: &ExperimentConfig) -> (f64, f64, MethodReport) {
    let mut step = f64::INFINITY;
    let mut comm = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPS {
        let r = run_experiment(cfg);
        step = step.min(r.step_time());
        comm = comm.min(r.comm_time());
        last = Some(r);
    }
    (step, comm, last.expect("at least one rep"))
}

fn base_cfg(n: usize, steps: usize, ranks: &[usize]) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::k1(CpuMethod::Layout, n);
    cfg.steps = steps;
    cfg.ranks = ranks.to_vec();
    cfg
}

fn kill(rank: usize, step: u64) -> FaultConfig {
    FaultConfig {
        kill: Some(ProcFault { rank, step, op: 0, stall_secs: 0.0 }),
        ..FaultConfig::off()
    }
}

struct KillRow {
    k: usize,
    step_s: f64,
    comm_s: f64,
    replayed_steps: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    restore_bytes: u64,
    detect_latency_s: f64,
}

struct CleanRow {
    k: usize,
    step_s: f64,
    comm_s: f64,
    checkpoint_bytes: u64,
    overhead_vs_plain: f64,
}

/// The snapshot-byte identity: every snapshot is one owned prefix.
fn assert_owned_snapshots(label: &str, cfg: &ExperimentConfig, r: &MethodReport) -> u64 {
    let owned_bytes = cfg.decomp().owned_elems() as u64 * 8;
    assert!(r.recovery.checkpoints > 0, "{label}: no checkpoint taken");
    assert_eq!(
        r.recovery.checkpoint_bytes,
        r.recovery.checkpoints * owned_bytes,
        "{label}: a snapshot is not the owned prefix"
    );
    owned_bytes
}

fn assert_recovered(label: &str, cfg: &ExperimentConfig, clean: &MethodReport, faulty: &MethodReport) {
    assert_eq!(
        faulty.checksum.to_bits(),
        clean.checksum.to_bits(),
        "{label}: killed run diverged from the fault-free grid"
    );
    assert!(faulty.recovery.recovery_epochs >= 1, "{label}: no recovery epoch ran");
    let owned_bytes = assert_owned_snapshots(label, cfg, faulty);
    // The victim's grid from its buddy, its guard slot from its anti-buddy.
    assert_eq!(faulty.recovery.restore_bytes, 2 * owned_bytes, "{label}: restore traffic");
}

fn smoke(steps: usize) {
    let cfg = base_cfg(32, steps.max(6), &[2, 2, 2]);
    let clean = run_experiment(&cfg);
    let mut fc = cfg.clone();
    fc.faults = kill(3, (fc.steps / 2) as u64);
    fc.checkpoint_every = 2;
    let faulty = run_experiment(&fc);
    assert_recovered("smoke 2x2x2", &fc, &clean, &faulty);
    let rv = &faulty.recovery;
    println!(
        "== recovery smoke: 2x2x2 layout, killed rank {} at step {} ==",
        rv.failed_rank, rv.failed_step
    );
    println!(
        "   {} checkpoints ({} bytes) | {} epoch(s) | replayed {} step(s) | \
         restored {} bytes | detected in {:.6} s",
        rv.checkpoints,
        rv.checkpoint_bytes,
        rv.recovery_epochs,
        rv.replayed_steps,
        rv.restore_bytes,
        rv.detect_latency_s
    );
    println!("   ok: bit-identical to the fault-free run");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let n: usize = pos.first().and_then(|v| v.parse().ok()).unwrap_or(32);
    let steps: usize = pos.get(1).and_then(|v| v.parse().ok()).unwrap_or(8);
    let ranks: Vec<usize> = pos
        .get(2)
        .map(|v| v.split('x').map(|p| p.parse().expect("rank grid")).collect())
        .unwrap_or_else(|| vec![1, 1, 2]);
    assert_eq!(ranks.len(), 3, "rank grid must be RxSxT");
    assert!(ranks.iter().product::<usize>() >= 2, "the victim needs a buddy rank");

    if smoke_mode {
        smoke(steps);
        return;
    }

    println!(
        "== Buddy-checkpoint overhead and kill recovery, {n}^3/rank, {:?} ranks, {steps} steps ==\n",
        ranks
    );

    // Clean path: plain vs checkpointed at K in {1, 2, 4} — the
    // steady-state price of resilience with nothing to recover.
    let (plain_s, plain_comm, plain) = timed(&base_cfg(n, steps, &ranks));
    let mut clean_rows: Vec<CleanRow> = Vec::new();
    println!("-- clean path (no faults) --");
    println!("  plain                {:>9.3} ms/step", plain_s * 1e3);
    for k in [1usize, 2, 4] {
        let mut cfg = base_cfg(n, steps, &ranks);
        cfg.checkpoint_every = k;
        let (step_s, comm_s, r) = timed(&cfg);
        assert_eq!(
            r.checksum.to_bits(),
            plain.checksum.to_bits(),
            "K={k}: checkpointing changed the physics"
        );
        assert_owned_snapshots(&format!("clean K={k}"), &cfg, &r);
        let row = CleanRow {
            k,
            step_s,
            comm_s,
            checkpoint_bytes: r.recovery.checkpoint_bytes,
            overhead_vs_plain: comm_s / plain_comm,
        };
        println!(
            "  checkpoint K={k}       {:>9.3} ms/step  comm {:>9.3} ms  ({:.3}x plain comm, {} snapshot bytes)",
            row.step_s * 1e3,
            row.comm_s * 1e3,
            row.overhead_vs_plain,
            row.checkpoint_bytes
        );
        clean_rows.push(row);
    }

    // Kill path: crash rank 1 late in the run — one step past the last
    // common checkpoint multiple, so the replay distance actually grows
    // with K — and measure the full run's effective per-step cost:
    // steady-state checkpointing plus the recovery epoch plus the
    // replayed steps.
    let kill_step = (steps - 1) as u64;
    let mut kill_rows: Vec<KillRow> = Vec::new();
    println!("\n-- kill rank 1 at step {kill_step}, sweep checkpoint interval --");
    for k in [1usize, 2, 4] {
        let mut cfg = base_cfg(n, steps, &ranks);
        cfg.checkpoint_every = k;
        cfg.faults = kill(1, kill_step);
        let (step_s, comm_s, r) = timed(&cfg);
        assert_recovered(&format!("K={k}"), &cfg, &plain, &r);
        let rv = &r.recovery;
        let row = KillRow {
            k,
            step_s,
            comm_s,
            replayed_steps: rv.replayed_steps,
            checkpoints: rv.checkpoints,
            checkpoint_bytes: rv.checkpoint_bytes,
            restore_bytes: rv.restore_bytes,
            detect_latency_s: rv.detect_latency_s,
        };
        println!(
            "  K={k}: {:>9.3} ms/step  comm {:>9.3} ms  replayed {} step(s), {} checkpoints, \
             restored {} bytes, detected in {:.6} s",
            row.step_s * 1e3,
            row.comm_s * 1e3,
            row.replayed_steps,
            row.checkpoints,
            row.restore_bytes,
            row.detect_latency_s
        );
        kill_rows.push(row);
    }

    let clean_k2 = clean_rows.iter().find(|r| r.k == 2).expect("K=2 clean point");
    let clean_k4 = clean_rows.iter().find(|r| r.k == 4).expect("K=4 clean point");
    let kill_k1 = kill_rows.iter().find(|r| r.k == 1).expect("K=1 kill point");
    let kill_k4 = kill_rows.iter().find(|r| r.k == 4).expect("K=4 kill point");
    let speedup_plain_vs_k2 = plain_comm / clean_k2.comm_s;
    let speedup_plain_vs_k4 = plain_comm / clean_k4.comm_s;
    let speedup_recover_k4_vs_k1 = kill_k1.comm_s / kill_k4.comm_s;
    println!(
        "\n  clean-path overhead at K=2 / K=4: {:.3}x / {:.3}x (plain over checkpointed)",
        speedup_plain_vs_k2, speedup_plain_vs_k4
    );
    println!(
        "  recovery at K=4 vs K=1: {:.3}x (sparse checkpoints over per-step)",
        speedup_recover_k4_vs_k1
    );

    let mut json = bench::bench_json_header("recovery", SEED, &["layout"], [n, n, n], steps);
    json.push_str(&format!(
        "  \"ranks\": [{}, {}, {}],\n  \"kill_step\": {},\n",
        ranks[0], ranks[1], ranks[2], kill_step
    ));
    json.push_str(&format!(
        "  \"plain_step_s\": {:.6},\n  \"plain_comm_s\": {:.6},\n",
        plain_s, plain_comm
    ));
    json.push_str("  \"clean\": [\n");
    for (i, r) in clean_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"k\": {}, \"step_s\": {:.6}, \"comm_s\": {:.6}, \
             \"checkpoint_bytes\": {}, \"overhead_vs_plain\": {:.4}}}{}\n",
            r.k,
            r.step_s,
            r.comm_s,
            r.checkpoint_bytes,
            r.overhead_vs_plain,
            if i + 1 < clean_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"killed\": [\n");
    for (i, r) in kill_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"k\": {}, \"step_s\": {:.6}, \"comm_s\": {:.6}, \
             \"replayed_steps\": {}, \"checkpoints\": {}, \"checkpoint_bytes\": {}, \
             \"restore_bytes\": {}, \"detect_latency_s\": {:.6}}}{}\n",
            r.k,
            r.step_s,
            r.comm_s,
            r.replayed_steps,
            r.checkpoints,
            r.checkpoint_bytes,
            r.restore_bytes,
            r.detect_latency_s,
            if i + 1 < kill_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_plain_vs_k2\": {:.3},\n", speedup_plain_vs_k2));
    json.push_str(&format!("  \"speedup_plain_vs_k4\": {:.3},\n", speedup_plain_vs_k4));
    json.push_str(&format!(
        "  \"speedup_recover_k4_vs_k1\": {:.3}\n",
        speedup_recover_k4_vs_k1
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    println!("\nwrote BENCH_recovery.json");
}
