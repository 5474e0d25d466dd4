//! Machine-readable overlap benchmark: runs every exchange engine —
//! the brick engines and the array baselines — through the dependency-graph scheduler and through
//! the phased schedule at the same configuration, checks the grids are
//! bit-identical, and writes `BENCH_overlap.json` so the hidden-wire
//! trajectory is comparable across PRs.
//!
//! Args: `bench_overlap [n] [steps] [RxSxT]` — per-rank subdomain
//! (default 64), timed steps (default 10), rank grid (default 2x1x1 so
//! the wire model bills real waits, not just loopback call time).
//!
//! The modeled step time for an overlapped run is
//! `pack + max(hidden calc, call + wait) + exposed calc`; the phased
//! step is the plain phase sum. `speedup_overlap_vs_phased` is their
//! ratio for the Layout engine (the paper's pack-free schedule) and is
//! guarded by `scripts/bench_diff.py`; `overlap_efficiency` is the
//! fraction of modeled wire seconds hidden behind interior compute.

use packfree::experiment::{run_experiment, CpuMethod, ExperimentConfig};

struct Row {
    name: &'static str,
    phased_s: f64,
    overlap_s: f64,
    hidden_s: f64,
    wire_s: f64,
    efficiency: f64,
    speedup: f64,
}

/// Repetitions per schedule; the minimum step time over the reps is
/// the comparison point. Real compute seconds vary with scheduler and
/// frequency noise, and the two schedules run back to back in separate
/// clusters — the min of several runs recovers a stable ratio.
const REPS: usize = 3;

fn pair(method: CpuMethod, name: &'static str, n: usize, steps: usize, ranks: &[usize]) -> Row {
    let mut cfg = ExperimentConfig::k1(method, n);
    cfg.steps = steps;
    cfg.ranks = ranks.to_vec();
    let mut phased_s = f64::INFINITY;
    let mut overlap_s = f64::INFINITY;
    let mut stats = None;
    for _ in 0..REPS {
        cfg.overlap = false;
        let phased = run_experiment(&cfg);
        cfg.overlap = true;
        let over = run_experiment(&cfg);
        assert_eq!(
            over.checksum.to_bits(),
            phased.checksum.to_bits(),
            "{name}: overlapped grid diverged from phased"
        );
        phased_s = phased_s.min(phased.step_time());
        overlap_s = overlap_s.min(over.step_time());
        stats = Some(over.overlap_stats.expect("overlap run records stats"));
    }
    let stats = stats.expect("at least one rep");
    Row {
        name,
        phased_s,
        overlap_s,
        hidden_s: stats.hidden_wire,
        wire_s: stats.total_wire,
        efficiency: stats.efficiency(),
        speedup: phased_s / overlap_s,
    }
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(64);
    let steps: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(10);
    let ranks: Vec<usize> = std::env::args()
        .nth(3)
        .map(|v| v.split('x').map(|p| p.parse().expect("rank grid")).collect())
        .unwrap_or_else(|| vec![2, 1, 1]);
    assert_eq!(ranks.len(), 3, "rank grid must be RxSxT");

    println!(
        "== Overlap scheduler vs phased, {n}^3/rank, {:?} ranks, {steps} steps ==\n",
        ranks
    );
    let engines = [
        (CpuMethod::Layout, "layout"),
        (CpuMethod::Basic, "basic"),
        (CpuMethod::MemMap { page_size: 4096 }, "memmap"),
        (CpuMethod::Shift { page_size: 4096 }, "shift"),
        (CpuMethod::Yask, "yask"),
        (CpuMethod::MpiTypes, "mpi-types"),
    ];
    let rows: Vec<Row> = engines
        .iter()
        .map(|(m, name)| {
            let r = pair(m.clone(), name, n, steps, &ranks);
            println!(
                "  {:<9} phased {:>9.3} ms  overlapped {:>9.3} ms  hidden {:.3}/{:.3} wire ms \
                 ({:>5.1}% | {:.2}x)",
                r.name,
                r.phased_s * 1e3,
                r.overlap_s * 1e3,
                r.hidden_s * 1e3,
                r.wire_s * 1e3,
                r.efficiency * 100.0,
                r.speedup
            );
            r
        })
        .collect();

    let layout = &rows[0];
    println!(
        "\n  layout: hid {:.1}% of wire time, {:.2}x over phased",
        layout.efficiency * 100.0,
        layout.speedup
    );

    let mut json = bench::bench_json_header(
        "overlap",
        0,
        &["layout", "basic", "memmap", "shift", "yask", "mpi-types"],
        [n, n, n],
        steps,
    );
    json.push_str(&format!(
        "  \"ranks\": [{}, {}, {}],\n",
        ranks[0], ranks[1], ranks[2]
    ));
    json.push_str("  \"engines\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"phased_s\": {:.6}, \"overlap_s\": {:.6}, \
             \"hidden_wire_s\": {:.6}, \"total_wire_s\": {:.6}, \"efficiency\": {:.4}, \
             \"speedup\": {:.3}}}{}\n",
            r.name,
            r.phased_s,
            r.overlap_s,
            r.hidden_s,
            r.wire_s,
            r.efficiency,
            r.speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"overlap_efficiency\": {:.4},\n",
        layout.efficiency
    ));
    json.push_str(&format!(
        "  \"speedup_overlap_vs_phased\": {:.3}\n",
        layout.speedup
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_overlap.json", &json).expect("write BENCH_overlap.json");
    println!("\nwrote BENCH_overlap.json");
}
