//! Machine-readable transport throughput: times a single-rank
//! (proxy-mode) halo exchange through each transport path and writes
//! `BENCH_transport.json` so the perf trajectory is comparable across
//! PRs.
//!
//! Paths:
//! * `pooled_loopback` — persistent [`packfree::exchange::ExchangeSession`]
//!   with the loopback fast path (one copy per message, zero steady-state
//!   allocation);
//! * `pooled_mailbox` — the same session forced through the mailbox
//!   (pooled buffers, two copies per message).
//!
//! The network is instant so the numbers isolate real on-node cost;
//! modeled LogGP charges are identical across paths by construction.

use std::time::Instant;

use brick::BrickDims;
use netsim::{run_cluster, CartTopo, NetworkModel};
use packfree::decomp::BrickDecomp;
use packfree::exchange::Exchanger;

#[derive(Clone, Copy)]
enum Path {
    PooledLoopback,
    PooledMailbox,
}

struct Row {
    name: &'static str,
    seconds: f64,
    bytes_per_s: f64,
    msgs_per_s: f64,
}

fn time_path(ex: &Exchanger, d: &BrickDecomp<3>, steps: usize, path: Path) -> Row {
    let topo = CartTopo::new(&[1, 1, 1], true);
    let net = NetworkModel::instant();
    let warmup = 4usize;
    let secs = run_cluster(&topo, net, |ctx| {
        let mut st = d.allocate();
        let mut sess = match path {
            Path::PooledLoopback => ex.session(ctx),
            Path::PooledMailbox => ex.session_mailbox(ctx),
        };
        for _ in 0..warmup {
            sess.exchange(ctx, &mut st).unwrap();
        }
        let t0 = Instant::now();
        for _ in 0..steps {
            sess.exchange(ctx, &mut st).unwrap();
        }
        t0.elapsed().as_secs_f64()
    })[0];
    let stats = ex.stats();
    let name = match path {
        Path::PooledLoopback => "pooled_loopback",
        Path::PooledMailbox => "pooled_mailbox",
    };
    Row {
        name,
        seconds: secs,
        bytes_per_s: (stats.wire_bytes * steps) as f64 / secs,
        msgs_per_s: (stats.messages * steps) as f64 / secs,
    }
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(32);
    let steps: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(200);
    let d = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, layout::surface3d());
    let ex = Exchanger::layout(&d);

    println!("== Transport throughput, {n}^3 proxy rank, {steps} steps ==\n");
    let rows: Vec<Row> = [Path::PooledLoopback, Path::PooledMailbox]
        .iter()
        .map(|&p| {
            let r = time_path(&ex, &d, steps, p);
            println!(
                "  {:<16} {:>9.2} MB/s  {:>9.0} msgs/s  ({:.4} s)",
                r.name,
                r.bytes_per_s / 1e6,
                r.msgs_per_s,
                r.seconds
            );
            r
        })
        .collect();

    let speedup = rows[0].bytes_per_s / rows[1].bytes_per_s;
    println!("\n  pooled_loopback vs pooled_mailbox: {speedup:.2}x");

    let mut json = bench::bench_json_header(
        "transport",
        0,
        &["pooled_loopback", "pooled_mailbox"],
        [n, n, n],
        steps,
    );
    json.push_str("  \"paths\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"seconds\": {:.6}, \"bytes_per_s\": {:.1}, \"msgs_per_s\": {:.1}}}{}\n",
            r.name,
            r.seconds,
            r.bytes_per_s,
            r.msgs_per_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"speedup_pooled_loopback_vs_pooled_mailbox\": {speedup:.3}\n"
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_transport.json", &json).expect("write BENCH_transport.json");
    println!("\nwrote BENCH_transport.json");
}
