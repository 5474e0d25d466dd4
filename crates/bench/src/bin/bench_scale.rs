//! Machine-readable scaling benchmark for the rank scheduler: how many
//! simulated ranks fit in a fixed per-point wall budget on one machine,
//! rank threads vs coroutines under the same scheduler.
//!
//! Each point runs a periodic 3-D halo exchange (6 neighbors, 64-f64
//! faces, tagged per direction, barrier per step) — the communication
//! skeleton of every engine in this repo — and measures end-to-end wall
//! time including cluster spawn. The ladder doubles the rank grid until
//! a point blows the budget or the substrate refuses to spawn (OS
//! thread limits on one side, stack mmap limits on the other); the
//! largest in-budget point is that backend's *max simulable ranks*.
//!
//! Args: `bench_scale [--smoke] [steps]` — timed steps per point
//! (default 5). `BRICK_SCALE_BUDGET` overrides the per-point wall
//! budget in seconds (default 10).
//!
//! `--smoke` is the CI mode: assert thread-vs-event bit-identity on a
//! 64-rank grid, then run the 4096-rank event point and assert it fits
//! the budget — and, on a guard-free rung (`BRICK_SCALE_SMOKE_GRID`
//! past 16,384 ranks), that it stays under [`MAX_BYTES_PER_RANK`]
//! resident. No JSON is written.
//!
//! Every point records the process's resident set while its cluster is
//! alive (`rss_mib`, sampled by rank 0 after the last barrier) and that
//! divided by the ranks (`bytes_per_rank`).
//!
//! `BENCH_scale.json` carries the full ladder, both backends' max
//! ranks, and two ratios: `speedup_event_vs_thread` (rank-step
//! throughput at the fixed 1024-rank point — continuous, so it is the
//! metric guarded by `scripts/bench_diff.py`) and `max_ranks_gain`
//! (the rung-quantized max-simulable ratio, asserted >= 10 by the CI
//! scale-smoke job rather than band-compared).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use netsim::{run_cluster_on, Backend, CartTopo, FaultConfig, NetworkModel};

/// Rank-grid ladder: 64 → 131072 by doubling one axis at a time.
const LADDER: [[usize; 3]; 12] = [
    [4, 4, 4],
    [8, 4, 4],
    [8, 8, 4],
    [8, 8, 8],
    [16, 8, 8],
    [16, 16, 8],
    [16, 16, 16],
    [32, 16, 16],
    [32, 32, 16],
    [32, 32, 32],
    [64, 32, 32],
    [64, 64, 32],
];

/// Resident ceiling per rank asserted by `--smoke` on a guard-free rung:
/// stacks, mailboxes and buffers of a 6-neighbour halo rank fit in about
/// 13 KiB, and a slab made resident by huge pages costs ~137 KiB.
const MAX_BYTES_PER_RANK: f64 = 32.0 * 1024.0;

/// Ranks past which the event backend's stack slab drops its per-stack
/// guard pages (netsim's `GUARDED_MAX_TASKS` + 1).
const GUARD_FREE_RANKS: usize = 16_385;

/// Face payload in f64 words (512 B — the paper's small-message regime,
/// where per-message software overhead dominates the wire model).
const FACE: usize = 64;

/// One rank's halo-exchange body: per step, post 6 receives, send 6
/// faces, complete them all, barrier, fold the received words into a
/// checksum. Returns the checksum so backends can be bit-compared.
fn halo_body(ctx: &mut netsim::RankCtx<'_>, topo: &CartTopo, steps: usize) -> f64 {
    let rank = ctx.rank();
    let mut acc = 0.0f64;
    let mut bufs = vec![[0.0f64; FACE]; 6];
    let mut face = [0.0f64; FACE];
    for step in 0..steps {
        let mut handles = Vec::with_capacity(6);
        for (dir, trits) in NEIGHBOR_TRITS.iter().enumerate() {
            let minus: Vec<i8> = trits.iter().map(|t| -t).collect();
            let from = topo.neighbor(rank, &minus).expect("periodic grid");
            handles.push(ctx.irecv(from, dir as u64).expect("irecv"));
        }
        for (dir, trits) in NEIGHBOR_TRITS.iter().enumerate() {
            let to = topo.neighbor(rank, trits).expect("periodic grid");
            for (i, w) in face.iter_mut().enumerate() {
                *w = (rank * 6 + dir) as f64 + step as f64 * 0.5 + i as f64 * 1e-3;
            }
            ctx.isend(to, dir as u64, &face).expect("isend");
        }
        let mut slices: Vec<&mut [f64]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
        ctx.waitall_into(&handles, &mut slices).expect("waitall");
        ctx.barrier();
        for b in &bufs {
            acc += b.iter().sum::<f64>();
        }
    }
    acc
}

/// The 6 axis-aligned directions of a 3-D star stencil.
const NEIGHBOR_TRITS: [[i8; 3]; 6] = [
    [1, 0, 0],
    [-1, 0, 0],
    [0, 1, 0],
    [0, -1, 0],
    [0, 0, 1],
    [0, 0, -1],
];

struct Point {
    backend: Backend,
    ranks: usize,
    /// The honest measurement: minimum over all attempts.
    wall_s: f64,
    /// Every attempt's wall time in run order, so a retried point shows
    /// both the interference spike and the clean rerun in the JSON.
    samples_s: Vec<f64>,
    rank_steps_per_s: f64,
    within_budget: bool,
    /// Resident set while the cluster was alive (largest over attempts).
    rss_mib: f64,
}

impl Point {
    fn bytes_per_rank(&self) -> f64 {
        self.rss_mib * 1024.0 * 1024.0 / self.ranks as f64
    }
}

/// Run one ladder point; `None` means the substrate itself failed
/// (thread spawn exhaustion, stack mmap limits), which also ends the
/// ladder for that backend.
///
/// A point that blows the budget gets exactly one retry and reports
/// the better wall time: on a shared machine, scheduler noise inflates
/// a run but never deflates it, so the min is the honest measurement
/// and a single interference spike cannot end the ladder early. Both
/// attempts' samples are kept for the JSON record.
fn run_point(backend: Backend, dims: [usize; 3], steps: usize, budget: f64) -> Option<Point> {
    let topo = CartTopo::new(&dims, true);
    let ranks = topo.size();
    let mut samples_s = Vec::with_capacity(2);
    let mut rss_mib = 0.0f64;
    for _attempt in 0..2 {
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_cluster_on(backend, &topo, NetworkModel::theta_aries(), FaultConfig::off(), |ctx| {
                halo_body(ctx, &topo, steps);
                // Past the last barrier every rank's stack and buffers
                // are still alive.
                if ctx.rank() == 0 { status_mib("VmRSS:") } else { 0.0 }
            })
        }))
        .ok()?;
        assert_eq!(out.len(), ranks);
        samples_s.push(t0.elapsed().as_secs_f64());
        rss_mib = rss_mib.max(out[0]);
        if samples_s.iter().copied().fold(f64::INFINITY, f64::min) <= budget {
            break;
        }
    }
    let wall_s = samples_s.iter().copied().fold(f64::INFINITY, f64::min);
    Some(Point {
        backend,
        ranks,
        wall_s,
        samples_s,
        rank_steps_per_s: (ranks * steps) as f64 / wall_s,
        within_budget: wall_s <= budget,
        rss_mib,
    })
}

/// Checksums from both backends at one grid must agree bit for bit.
fn assert_bit_identity(dims: [usize; 3], steps: usize) {
    let topo = CartTopo::new(&dims, true);
    let run = |b: Backend| {
        run_cluster_on(b, &topo, NetworkModel::theta_aries(), FaultConfig::off(), |ctx| {
            halo_body(ctx, &topo, steps)
        })
    };
    let t = run(Backend::Thread);
    let e = run(Backend::Event);
    for (rank, (a, b)) in t.iter().zip(&e).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "rank {rank}: thread checksum {a} != event checksum {b}"
        );
    }
}

/// A memory `field` of this process in MiB (`VmRSS:`, `VmHWM:` from
/// procfs); 0.0 where procfs is unavailable.
fn status_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with(field)).and_then(|l| {
                l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let steps: usize = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    let budget: f64 = std::env::var("BRICK_SCALE_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);

    if !Backend::event_supported() {
        // The comparison is meaningless without the event substrate;
        // succeed vacuously rather than fail unrelated platforms.
        println!("bench_scale: event backend unsupported on this platform; skipping");
        return;
    }

    println!("== 64-rank thread-vs-event bit-identity ==");
    assert_bit_identity([4, 4, 4], steps);
    println!("   ok: checksums identical on all 64 ranks\n");

    if smoke {
        // BRICK_SCALE_SMOKE_GRID overrides the smoke point (RxSxT),
        // e.g. to probe a single ladder rung in isolation.
        let dims: [usize; 3] = std::env::var("BRICK_SCALE_SMOKE_GRID")
            .ok()
            .and_then(|v| {
                let p: Vec<usize> = v.split('x').filter_map(|x| x.parse().ok()).collect();
                p.try_into().ok()
            })
            .unwrap_or([16, 16, 16]);
        let p = run_point(Backend::Event, dims, steps, budget)
            .expect("event backend failed to spawn the smoke grid");
        println!(
            "== scale smoke: event {} ranks in {:.2}s (budget {budget}s), {:.0} rank-steps/s, \
             {:.0} MiB resident ({:.1} KiB/rank) ==",
            p.ranks,
            p.wall_s,
            p.rank_steps_per_s,
            p.rss_mib,
            p.bytes_per_rank() / 1024.0
        );
        assert!(
            p.within_budget,
            "{}-rank event point took {:.2}s, budget {budget}s",
            p.ranks, p.wall_s
        );
        assert!(
            p.ranks < GUARD_FREE_RANKS || p.bytes_per_rank() <= MAX_BYTES_PER_RANK,
            "{}-rank event point holds {:.1} KiB resident per rank, ceiling {} KiB",
            p.ranks,
            p.bytes_per_rank() / 1024.0,
            MAX_BYTES_PER_RANK / 1024.0
        );
        return;
    }

    let mut points: Vec<Point> = Vec::new();
    for backend in [Backend::Thread, Backend::Event] {
        println!("== {backend} backend, {steps} steps/point, budget {budget}s/point ==");
        for dims in LADDER {
            match run_point(backend, dims, steps, budget) {
                Some(p) => {
                    println!(
                        "  {:>6} ranks  {:>8.3}s  {:>10.0} rank-steps/s  {:>7.0} MiB  {:>6.1} KiB/rank{}",
                        p.ranks,
                        p.wall_s,
                        p.rank_steps_per_s,
                        p.rss_mib,
                        p.bytes_per_rank() / 1024.0,
                        if p.within_budget { "" } else { "  (over budget)" }
                    );
                    let stop = !p.within_budget;
                    points.push(p);
                    if stop {
                        break;
                    }
                }
                None => {
                    println!("  {:>6} ranks  spawn failed; ladder ends", dims.iter().product::<usize>());
                    break;
                }
            }
        }
        println!();
    }

    let max_ranks = |b: Backend| {
        points
            .iter()
            .filter(|p| p.backend == b && p.within_budget)
            .map(|p| p.ranks)
            .max()
            .unwrap_or(0)
    };
    let rate_at = |b: Backend, ranks: usize| {
        points
            .iter()
            .find(|p| p.backend == b && p.ranks == ranks)
            .map(|p| p.rank_steps_per_s)
    };
    let max_thread = max_ranks(Backend::Thread);
    let max_event = max_ranks(Backend::Event);
    let gain = max_event as f64 / max_thread.max(1) as f64;
    let speedup_1024 = match (rate_at(Backend::Thread, 1024), rate_at(Backend::Event, 1024)) {
        (Some(t), Some(e)) => e / t,
        _ => 0.0,
    };
    let rss = status_mib("VmHWM:");

    println!("  max simulable ranks: thread {max_thread}, event {max_event} ({gain:.1}x)");
    println!("  1024-rank throughput: event {speedup_1024:.2}x thread");
    println!("  peak RSS {rss:.0} MiB");

    let mut json =
        bench::bench_json_header("scale", 0, &["thread", "event"], [4, 4, 4], steps);
    json.push_str(&format!("  \"budget_s\": {budget},\n"));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let samples: Vec<String> = p.samples_s.iter().map(|s| format!("{s:.4}")).collect();
        json.push_str(&format!(
            "    {{\"backend\": \"{}\", \"ranks\": {}, \"wall_s\": {:.4}, \
             \"samples_s\": [{}], \"rank_steps_per_s\": {:.1}, \"within_budget\": {}, \
             \"rss_mib\": {:.1}, \"bytes_per_rank\": {:.0}}}{}\n",
            p.backend,
            p.ranks,
            p.wall_s,
            samples.join(", "),
            p.rank_steps_per_s,
            p.within_budget,
            p.rss_mib,
            p.bytes_per_rank(),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"max_ranks_thread\": {max_thread},\n"));
    json.push_str(&format!("  \"max_ranks_event\": {max_event},\n"));
    json.push_str(&format!("  \"max_ranks_gain\": {gain:.2},\n"));
    json.push_str(&format!("  \"peak_rss_mib\": {rss:.1},\n"));
    json.push_str(&format!("  \"speedup_event_vs_thread\": {speedup_1024:.3}\n"));
    json.push_str("}\n");
    std::fs::write("BENCH_scale.json", &json).expect("write BENCH_scale.json");
    println!("\nwrote BENCH_scale.json");
}
