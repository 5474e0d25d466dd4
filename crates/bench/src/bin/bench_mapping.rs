//! Machine-readable topology-aware mapping benchmark: off-node byte
//! volume and modeled bottleneck exchange time of the `bisect`
//! process-to-node mapping versus the naive lexicographic placement,
//! swept over node sizes (8 / 16 / 32 ranks per node) on an
//! 8x8x8 periodic rank grid under the dragonfly two-tier model.
//!
//! The whole bench is model-side: the communication graph is exact
//! (surface3d schedule loads on the configured subdomain) and the
//! modeled time is pure arithmetic, so every number is deterministic —
//! the guarded ratios move only when mapper or model code changes.
//!
//! Args: `bench_mapping [--smoke] [n]` — per-rank subdomain (default
//! 32). The rank grid is pinned at 8x8x8 (512 ranks): on a periodic
//! grid smaller powers of two tie the lexicographic row grouping
//! (full-axis slabs collect wrap credit), while at 8^3 a 2x2x2 node
//! box strictly beats an 8x1x1 row.
//!
//! `--smoke` is the CI mode: node size 8 only, assert the bisection
//! mapping cuts off-node bytes by at least the floor. No JSON is
//! written.
//!
//! The guarded ratios (`scripts/bench_diff.py`): off-node-byte and
//! modeled-time improvements of bisect over lexicographic at the
//! 8-ranks-per-node point (the dragonfly preset every other bench
//! scenario uses); the larger node sizes stay in the JSON as
//! trajectory data.

use layout::surface3d;
use mapping::{lexicographic, recursive_bisection, schedule_loads, CommGraph};
use netsim::hier::HierarchicalNetworkModel;
use netsim::CartTopo;

/// Rank grid extent per axis (8^3 = 512 ranks).
const GRID: usize = 8;

/// Smoke floor: bisection must cut off-node bytes by >= 25% vs lex
/// (observed: 1.33x on the 8^3 grid at 8 ranks/node, deterministic).
const SMOKE_FLOOR: f64 = 1.25;

struct Row {
    rpn: usize,
    policy: &'static str,
    on_bytes: u64,
    off_bytes: u64,
    modeled_time: f64,
    off_vs_lex: f64,
    speedup_vs_lex: f64,
}

/// Both policies evaluated on one node size.
fn sweep_node_size(topo: &CartTopo, n: usize, rpn: usize) -> Vec<Row> {
    let hier = HierarchicalNetworkModel::dragonfly(rpn);
    let loads = schedule_loads(&surface3d(), &[n; 3], 8, 8);
    let g = CommGraph::from_dir_loads(topo, &loads);

    let lex = lexicographic(topo.size());
    let bisect = recursive_bisection(topo, &hier.node);
    let lex_split = g.split(&lex, &hier.node);
    let lex_time = g.modeled_time(&lex, &hier);
    let mut rows = Vec::new();
    for (policy, split, time) in [
        ("lex", lex_split, lex_time),
        ("bisect", g.split(&bisect, &hier.node), g.modeled_time(&bisect, &hier)),
    ] {
        rows.push(Row {
            rpn,
            policy,
            on_bytes: split.on_bytes,
            off_bytes: split.off_bytes,
            modeled_time: time,
            off_vs_lex: lex_split.off_bytes as f64 / split.off_bytes.max(1) as f64,
            speedup_vs_lex: lex_time / time,
        });
    }
    rows
}

fn check_invariants(rows: &[Row]) {
    for w in rows.chunks(2) {
        let (lex, bisect) = (&w[0], &w[1]);
        assert!(
            bisect.off_bytes < lex.off_bytes,
            "rpn {}: bisect off-node bytes {} must beat lex {}",
            bisect.rpn,
            bisect.off_bytes,
            lex.off_bytes
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let pos: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let n: usize = pos.first().and_then(|v| v.parse().ok()).unwrap_or(32);

    let topo = CartTopo::new(&[GRID; 3], true);

    if smoke_mode {
        let rows = sweep_node_size(&topo, n, 8);
        check_invariants(&rows);
        let reduction = rows[1].off_vs_lex;
        println!(
            "== mapping smoke: 8^3 ranks, 8/node, bisect cuts off-node bytes {:.2}x \
             ({} -> {}) ==",
            reduction, rows[0].off_bytes, rows[1].off_bytes
        );
        assert!(
            reduction >= SMOKE_FLOOR,
            "smoke: off-node reduction {reduction:.2}x under the {SMOKE_FLOOR:.2}x floor"
        );
        println!("   ok: reduction over the floor");
        return;
    }

    println!(
        "== Topology-aware mapping vs lexicographic, {GRID}^3 ranks, {n}^3/rank, \
         dragonfly ==\n"
    );
    let mut rows: Vec<Row> = Vec::new();
    for rpn in [8usize, 16, 32] {
        rows.extend(sweep_node_size(&topo, n, rpn));
    }
    check_invariants(&rows);

    for r in &rows {
        println!(
            "  rpn {:>2} {:<7} on-node {:>13} B  off-node {:>13} B  modeled {:>9.6} s  \
             off vs lex {:>5.2}x  speedup {:>5.2}x",
            r.rpn, r.policy, r.on_bytes, r.off_bytes, r.modeled_time, r.off_vs_lex, r.speedup_vs_lex
        );
    }

    let at = |rpn: usize, policy: &str| {
        rows.iter()
            .find(|r| r.rpn == rpn && r.policy == policy)
            .expect("swept point")
    };
    // Seedless and stepless: the whole bench is model arithmetic.
    let mut json = bench::bench_json_header("mapping", 0, &["lex", "bisect"], [GRID; 3], 0);
    json.push_str(&format!("  \"subdomain\": {n},\n"));
    json.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"ranks_per_node\": {}, \"policy\": \"{}\", \"on_bytes\": {}, \
             \"off_bytes\": {}, \"modeled_time\": {:.9}, \"off_bytes_vs_lex\": {:.4}, \
             \"modeled_speedup_vs_lex\": {:.4}}}{}\n",
            r.rpn,
            r.policy,
            r.on_bytes,
            r.off_bytes,
            r.modeled_time,
            r.off_vs_lex,
            r.speedup_vs_lex,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_offnode_bytes_bisect_vs_lex\": {:.3},\n",
        at(8, "bisect").off_vs_lex
    ));
    json.push_str(&format!(
        "  \"speedup_modeled_bisect_vs_lex\": {:.3}\n",
        at(8, "bisect").speedup_vs_lex
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_mapping.json", &json).expect("write BENCH_mapping.json");
    println!("\nwrote BENCH_mapping.json");
}
