//! Machine-readable compute throughput: times the stencil kernel engines
//! on a single-rank brick decomposition and writes `BENCH_compute.json`
//! so the perf trajectory is comparable across PRs.
//!
//! Engines, per stencil proxy (star7 and cube125):
//! * `planned` — precompiled [`stencil::KernelPlan`] bound once
//!   (adjacency and row segments resolved at bind time), replayed every
//!   step; timed at every ISA level this CPU runs. The guarded
//!   `speedup_planned_vs_gather_*` ratios use the `baseline` level, the
//!   only one every CI runner has;
//! * `gather` — per-step halo gather into a padded scratch brick, then a
//!   dense sweep (the pre-plan reference path);
//! * `serial` — the single-threaded element-at-a-time reference both
//!   parallel engines are bit-identical to;
//! * `array` — the lexicographic-array kernel ([`stencil::ArrayGrid`])
//!   at the same subdomain and the same ISA levels, the denominator of
//!   Fig 10's brick/array comparison (only its star7 path is widened,
//!   so its cube125 rows agree across levels up to noise).
//!
//! Usage: `bench_compute [N] [STEPS]` (default 32³ per rank, 40 steps).

use std::time::Instant;

use brick::{BrickDims, BrickStorage};
use packfree::decomp::BrickDecomp;
use packfree::fields;
use stencil::{
    apply_bricks_gather, apply_bricks_serial, gstencil_per_sec, ArrayGrid, Isa, KernelPlan,
    StencilShape,
};

struct Row {
    shape: &'static str,
    engine: &'static str,
    /// The level the engine's code runs at (only `planned` is dispatched).
    isa: Isa,
    seconds: f64,
    gstencil: f64,
}

/// `warmup` untimed then `steps` timed calls of `step`; seconds of the
/// timed part.
fn time_steps(steps: usize, mut step: impl FnMut()) -> f64 {
    for _ in 0..(steps / 8).max(2) {
        step();
    }
    let t0 = Instant::now();
    for _ in 0..steps {
        step();
    }
    t0.elapsed().as_secs_f64()
}

/// Time `steps` flip-flop applications of the array kernel at `isa`.
fn time_array(
    n: usize,
    shape: &StencilShape,
    isa: Isa,
    shape_name: &'static str,
    steps: usize,
) -> Row {
    let mut cur = ArrayGrid::new([n; 3], shape.radius());
    let mut nxt = cur.clone();
    cur.fill_interior(|x, y, z| (((x * 3 + y * 5 + z * 7) % 17) as f64) / 16.0);
    cur.fill_ghost_periodic_self();
    let plan = cur.plan_with_isa(shape, isa);
    let seconds = time_steps(steps, || {
        cur.apply_plan_into(&plan, &mut nxt);
        std::mem::swap(&mut cur, &mut nxt);
    });
    assert!(cur.interior_sum().is_finite());
    Row {
        shape: shape_name,
        engine: "array",
        isa,
        seconds,
        gstencil: gstencil_per_sec((n * n * n * steps) as u64, seconds),
    }
}

/// Time `steps` flip-flop applications of one brick engine; ghosts are
/// made valid once (periodic wrap) so every step reads real neighbor
/// data.
fn time_engine(
    d: &BrickDecomp<3>,
    shape: &StencilShape,
    engine: &'static str,
    isa: Isa,
    shape_name: &'static str,
    steps: usize,
) -> Row {
    let info = d.brick_info();
    let mask = d.compute_mask();
    let mut cur = d.allocate();
    let mut nxt = d.allocate();
    fields::fill_interior(d, &mut cur, 0, |c| {
        (((c[0] * 3 + c[1] * 5 + c[2] * 7) % 17) as f64) / 16.0
    });
    fields::fill_ghosts_periodic(d, &mut cur, 0);
    fields::fill_ghosts_periodic(d, &mut nxt, 0);

    let plan = (engine == "planned").then(|| KernelPlan::with_isa(info, shape, 1, 0, isa));
    let apply = |cur: &BrickStorage, nxt: &mut BrickStorage| match engine {
        "planned" => plan.as_ref().unwrap().execute(cur, nxt, mask),
        "gather" => apply_bricks_gather(shape, info, cur, nxt, mask, 0),
        "serial" => apply_bricks_serial(shape, info, cur, nxt, mask, 0),
        other => unreachable!("unknown engine {other}"),
    };

    let seconds = time_steps(steps, || {
        apply(&cur, &mut nxt);
        std::mem::swap(&mut cur, &mut nxt);
    });
    assert!(fields::interior_sum(d, &cur, 0).is_finite());
    Row {
        shape: shape_name,
        engine,
        isa,
        seconds,
        gstencil: gstencil_per_sec(d.points() * steps as u64, seconds),
    }
}

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(32);
    let steps: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(40);
    let d = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, layout::surface3d());

    println!("== Compute throughput, {n}^3 proxy rank, {steps} steps ==\n");
    let shapes: [(&'static str, StencilShape); 2] = [
        ("star7", StencilShape::star7_default()),
        ("cube125", StencilShape::cube125_default()),
    ];
    let mut rows: Vec<Row> = Vec::new();
    let mut speedups: Vec<(&'static str, f64)> = Vec::new();
    let engines: Vec<(&'static str, Isa)> = Isa::available()
        .map(|isa| ("planned", isa))
        .chain([("gather", Isa::Baseline), ("serial", Isa::Baseline)])
        .chain(Isa::available().map(|isa| ("array", isa)))
        .collect();
    for (name, shape) in &shapes {
        let first = rows.len();
        for &(engine, isa) in &engines {
            // The serial reference gets fewer steps; it exists for scale,
            // not for the headline ratio.
            let s = if engine == "serial" { steps.div_ceil(4) } else { steps };
            let r = match engine {
                "array" => time_array(n, shape, isa, name, s),
                _ => time_engine(&d, shape, engine, isa, name, s),
            };
            println!(
                "  {:<8} {:<8} {:<9} {:>8.3} GStencil/s  ({:.4} s)",
                r.shape,
                r.engine,
                r.isa.name(),
                r.gstencil,
                r.seconds
            );
            rows.push(r);
        }
        let gstencil = |engine: &str| {
            let r = rows[first..].iter().find(|r| r.engine == engine && r.isa == Isa::Baseline);
            r.expect("every engine has a baseline row").gstencil
        };
        speedups.push((name, gstencil("planned") / gstencil("gather")));
    }
    for (name, s) in &speedups {
        println!("\n  {name}: planned vs gather {s:.2}x (both at baseline)");
    }

    let mut json = bench::bench_json_header(
        "compute",
        0,
        &["planned", "gather", "serial", "array"],
        [n, n, n],
        steps,
    );
    json.push_str(&format!("  \"isa\": \"{}\",\n", Isa::detect().name()));
    json.push_str("  \"engines\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{}\", \"engine\": \"{}\", \"isa\": \"{}\", \"seconds\": {:.6}, \"gstencil_per_s\": {:.4}}}{}\n",
            r.shape,
            r.engine,
            r.isa.name(),
            r.seconds,
            r.gstencil,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    for (i, (name, s)) in speedups.iter().enumerate() {
        json.push_str(&format!(
            "  \"speedup_planned_vs_gather_{name}\": {s:.3}{}\n",
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    json.push_str("}\n");
    std::fs::write("BENCH_compute.json", &json).expect("write BENCH_compute.json");
    println!("\nwrote BENCH_compute.json");
}
