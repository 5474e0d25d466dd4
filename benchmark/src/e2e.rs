//! The untraced run: blocks and set-up twins in seeded order, closed
//! loop (the next operation starts when the previous one returns), and
//! the four gated metrics. Timings are gated on their fastest sample
//! (`stats::fastest` says why) and printed with median and tail.

use std::path::Path;
use std::time::Instant;

use crate::harness::{
    check_modeled_repeats, check_pack_free, peak_rss_mib, stamp, write_out, Harness, Rng, Run,
};
use crate::json::Json;
use crate::stats::{fastest, summarize};
use crate::workloads::Workload;

/// The median needs ten samples beyond it (stats::tail_percentile).
const MIN_BLOCKS: usize = 21;
const SETUP_TWINS: usize = 21;

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in registry order.
    pub metrics: Vec<(&'static str, f64)>,
}

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Block,
    Setup,
}

fn timing_json(samples: &[f64]) -> Json {
    let s = summarize(samples);
    Json::obj([
        ("fastest", Json::Num(s.fastest)),
        ("median", Json::Num(s.median)),
        (
            "tail_percentile",
            s.tail.map_or(Json::Null, |(p, _)| Json::Num(p)),
        ),
        (
            "tail_value",
            s.tail.map_or(Json::Null, |(_, v)| Json::Num(v)),
        ),
        ("n", Json::Num(s.n as f64)),
        (
            "samples",
            Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

fn print_timing(name: &str, unit: &str, samples: &[f64]) {
    let s = summarize(samples);
    let tail = s.tail.map_or_else(
        || "tail: under 20 samples".to_string(),
        |(p, v)| format!("p{p} {v:.4}"),
    );
    eprintln!(
        "  {name:<14} min {:.4} {unit}  median {:.4}  {tail}  n={}",
        s.fastest, s.median, s.n
    );
}

pub fn run(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut h = Harness::new(w, false);
    let block_cfg = w.block(smoke);
    let setup_cfg = w.setup();

    // Start-up gates. These runs also fill caches, pools and the
    // allocator's arenas, which a user pays once per process and the
    // blocks below must not.
    let setup_ref = h.reference("setup", &setup_cfg)?;
    let block_ref = h.reference("block", &block_cfg)?;
    check_pack_free(w, &block_ref.report)?;

    let (min_blocks, twins) = if smoke {
        (2, 3)
    } else {
        (MIN_BLOCKS, SETUP_TWINS)
    };
    let mut ops = vec![Op::Block; min_blocks];
    ops.extend(vec![Op::Setup; twins]);
    Rng(seed).shuffle(&mut ops);

    let mut blocks: Vec<Run> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let t0 = Instant::now();
    let mut next = 0;
    while next < ops.len() || t0.elapsed().as_secs_f64() < seconds {
        match ops.get(next).copied().unwrap_or(Op::Block) {
            Op::Block => {
                if let Some(run) = h.op("block", &block_cfg, Some(block_ref.bits())) {
                    check_modeled_repeats(w, &block_ref.report, &run.report)?;
                    blocks.push(run);
                }
            }
            Op::Setup => {
                if let Some(run) = h.op("setup", &setup_cfg, Some(setup_ref.bits())) {
                    setups.push(run.wall);
                }
            }
        }
        next += 1;
    }
    if blocks.is_empty() || setups.is_empty() {
        return Err(format!("no successful block or set-up run on {}", w.name));
    }

    let setup_s = fastest(&setups);
    let vstep: Vec<f64> = blocks.iter().map(Run::vstep_us).collect();
    let vcomm: Vec<f64> = blocks.iter().map(Run::vcomm_us).collect();
    let host: Vec<f64> = blocks
        .iter()
        .map(|b| b.host_step_us(setup_s, &block_cfg))
        .collect();
    let metrics = vec![
        ("vstep_us", fastest(&vstep)),
        ("host_step_us", fastest(&host)),
        ("setup_s", setup_s),
        ("peak_rss_mib", peak_rss_mib()),
    ];

    eprintln!(
        "{} seed {seed}: {} blocks of S={} W={}, {} set-up twins, {} ops, {} failed",
        w.name,
        blocks.len(),
        block_cfg.steps,
        block_cfg.warmup,
        setups.len(),
        h.attempted,
        h.failed
    );
    print_timing("vstep_us", "us", &vstep);
    print_timing("vcomm_us", "us", &vcomm);
    print_timing("host_step_us", "us", &host);
    print_timing("setup_s", "s", &setups);
    eprintln!("  peak_rss_mib   {:.1} MiB", metrics[3].1);
    // Exact functions of the gated metrics, so printed, not gated.
    let floor_us =
        packfree::experiment::network_floor(&block_cfg.net, block_ref.report.stats.payload_bytes)
            * 1e6;
    eprintln!(
        "  derived: {:.4} GStencil/s per rank, comm/floor {:.3} (floor {floor_us:.3} us)",
        block_ref.report.points as f64 / (fastest(&vstep) * 1e-6) / 1e9,
        fastest(&vcomm) / floor_us
    );

    let body = Json::obj([
        ("kind", Json::str("e2e")),
        ("stamp", stamp(w, &block_cfg, seed, smoke)),
        ("blocks", Json::Num(blocks.len() as f64)),
        ("attempted", Json::Num(h.attempted as f64)),
        ("failed", Json::Num(h.failed as f64)),
        ("metrics", crate::metrics_json(&metrics, false)),
        ("vstep_us", timing_json(&vstep)),
        ("vcomm_us", timing_json(&vcomm)),
        ("host_step_us", timing_json(&host)),
        ("setup_s", timing_json(&setups)),
    ]);
    write_out(out_dir, &format!("{}-seed{seed}-e2e.json", w.name), &body);

    Ok(Outcome {
        correct: h.failed == 0,
        attempted: h.attempted,
        failed: h.failed,
        metrics,
    })
}
