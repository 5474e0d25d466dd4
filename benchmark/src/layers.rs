//! The traced run: a shorter, separate run that produces every
//! per-layer metric. It wraps each call it makes in a span (root
//! `run_experiment` calls, set-up constructors, single-layer probes)
//! and re-runs the workload with `profile: true` to read the in-step
//! phase split from the timelines the product already emits. End-to-end
//! numbers never come from here.

use std::collections::BTreeMap;
use std::path::Path;

use netsim::{Backend, FaultConfig};
use packfree::experiment::{network_floor, CpuMethod, ExperimentConfig};

use crate::e2e::Outcome;
use crate::harness::{check_modeled_repeats, check_pack_free, stamp, write_out, Harness, Run};
use crate::json::Json;
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::stats::fastest;
use crate::workloads::Workload;

/// Every variant run must reproduce the workload's checksum bits
/// (`None` for the array baselines, which sum in another order): a
/// start-up gate, so a mismatch stops the run.
fn variant(
    h: &mut Harness,
    name: &str,
    cfg: &ExperimentConfig,
    bits: Option<u64>,
) -> Result<Run, String> {
    h.op(name, cfg, bits).ok_or_else(|| {
        format!("variant {name} failed or is not bit-identical to the workload's run")
    })
}

/// The variant's run with the fastest virtual step out of `n`, the
/// statistic the end-to-end run gates on (`stats::fastest`).
fn fastest_variant(
    h: &mut Harness,
    name: &str,
    cfg: &ExperimentConfig,
    bits: Option<u64>,
    n: usize,
) -> Result<Run, String> {
    let mut best = variant(h, name, cfg, bits)?;
    for _ in 1..n {
        let run = variant(h, name, cfg, bits)?;
        if run.vstep_us() < best.vstep_us() {
            best = run;
        }
    }
    Ok(best)
}

fn fastest_of(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    fastest(&runs.iter().map(f).collect::<Vec<_>>())
}

pub fn run(
    w: &'static Workload,
    seed: u64,
    smoke: bool,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let mut h = Harness::new(w, true);
    let cfg = w.block(smoke);
    let steps = cfg.steps as f64;
    let blocks = if smoke { 2 } else { 5 };
    let reps = if smoke { 3 } else { 5 };
    // Runs per variant; the fastest one is reported.
    let tries = if smoke { 1 } else { 3 };
    let budget = if smoke { 0.05 } else { 0.5 };
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();

    // --- experiment: the driver, from outside --------------------------
    let cold = h.reference("setup_cold", &w.setup())?;
    m.insert("experiment.setup_cold_s", cold.wall);
    let reference = h.reference("block", &cfg)?;
    check_pack_free(w, &reference.report)?;
    let bits = Some(reference.bits());

    let mut setups = Vec::new();
    for _ in 0..reps {
        setups.push(variant(&mut h, "setup", &w.setup(), Some(cold.bits()))?.wall);
    }
    let setup_s = fastest(&setups);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let profiled = ExperimentConfig {
        profile: true,
        ..cfg.clone()
    };
    for _ in 0..blocks {
        untraced.push(variant(&mut h, "block", &cfg, bits)?);
        traced.push(variant(&mut h, "block:profiled", &profiled, bits)?);
    }
    let vstep_us = fastest_of(&untraced, Run::vstep_us);
    let vcomm_us = fastest_of(&untraced, Run::vcomm_us);
    let host_us = fastest_of(&untraced, |r| r.host_step_us(setup_s, &cfg));
    let r0 = &untraced[0].report;

    // --- layout, cluster, exchange (timers), model ----------------------
    m.insert("layout.msgs", r0.stats.messages as f64);
    m.insert("layout.region_instances", r0.stats.region_instances as f64);
    m.insert(
        "memview.pad_bytes",
        (r0.stats.wire_bytes - r0.stats.payload_bytes) as f64,
    );
    m.insert("cluster.msgs_per_step", r0.timers.msgs as f64);
    m.insert("cluster.wire_bytes_per_step", r0.timers.wire_bytes as f64);
    m.insert(
        "cluster.payload_bytes_per_step",
        r0.timers.payload_bytes as f64,
    );
    m.insert("exchange.pack_us", r0.timers.pack * 1e6);
    m.insert("exchange.call_us", r0.timers.call * 1e6);
    m.insert("exchange.wait_us", r0.timers.wait * 1e6);
    for r in &untraced {
        check_modeled_repeats(w, r0, &r.report)?;
    }
    let floor_us = network_floor(&cfg.net, r0.stats.payload_bytes) * 1e6;
    m.insert("model.vcomm_us", vcomm_us);
    m.insert("model.floor_us", floor_us);
    m.insert("model.floor_gap", vcomm_us / floor_us);

    // --- telemetry: the product's own in-step split ----------------------
    let t = &traced[0].report;
    let tl = t
        .timelines
        .first()
        .ok_or("profiled run returned no timeline")?;
    let bd = tl.phase_breakdown();
    for (name, v) in [
        ("telemetry.pack_us", bd.pack),
        ("telemetry.unpack_us", bd.unpack),
        ("telemetry.copy_us", bd.copy),
        ("telemetry.wire_us", bd.wire),
        ("telemetry.wait_us", bd.wait),
        ("telemetry.compute_us", bd.compute),
    ] {
        m.insert(name, v / steps * 1e6);
    }
    let total = t.timers.total() * steps;
    let identity_err = (bd.total() - total).abs() / total;
    if identity_err > 1e-9 {
        return Err(format!(
            "telemetry.identity_err is {identity_err:e} on {}",
            w.name
        ));
    }
    m.insert("telemetry.identity_err", identity_err);
    m.insert("telemetry.spans_per_step", tl.spans.len() as f64 / steps);
    m.insert(
        "telemetry.overhead_frac",
        fastest_of(&traced, |r| r.host_step_us(setup_s, &cfg)) / host_us - 1.0,
    );

    // --- variants: sched/partition, checkpoint, baselines ----------------
    if w.partitioned {
        let phased = ExperimentConfig {
            partitioned: false,
            ..cfg.clone()
        };
        let overlap = ExperimentConfig {
            partitioned: false,
            overlap: true,
            ..cfg.clone()
        };
        let jitter = ExperimentConfig {
            faults: FaultConfig {
                seed,
                jitter: 0.35,
                ..FaultConfig::off()
            },
            ..cfg.clone()
        };
        let phased = fastest_variant(&mut h, "variant:phased", &phased, bits, tries)?;
        let overlap = fastest_variant(&mut h, "variant:overlap", &overlap, bits, tries)?;
        let jitter = fastest_variant(&mut h, "variant:jitter", &jitter, bits, tries)?;
        let os = r0
            .overlap_stats
            .ok_or("partitioned run returned no overlap stats")?;
        m.insert("partition.early_frac", os.early_shipped_fraction());
        m.insert(
            "partition.bricks_per_rank",
            (w.subdomain / cfg.brick).pow(3) as f64,
        );
        m.insert("partition.vs_overlap", overlap.vstep_us() / vstep_us);
        m.insert("partition.jitter_vstep_us", jitter.vstep_us());
        m.insert("sched.hidden_wire_us", os.hidden_wire / steps * 1e6);
        m.insert("sched.total_wire_us", os.total_wire / steps * 1e6);
        m.insert("sched.overlap_eff", os.efficiency());
        m.insert("sched.phased_vstep_us", phased.vstep_us());
        m.insert("sched.overlap_vstep_us", overlap.vstep_us());
    }
    if w.checkpoint_every > 0 {
        let plain = ExperimentConfig {
            checkpoint_every: 0,
            ..cfg.clone()
        };
        let plain = fastest_variant(&mut h, "variant:plain", &plain, bits, tries)?;
        let ranks = w.rank_count() as f64;
        m.insert("checkpoint.count", r0.recovery.checkpoints as f64 / ranks);
        m.insert(
            "checkpoint.bytes_per_step",
            r0.recovery.checkpoint_bytes as f64 / ranks / (cfg.steps + cfg.warmup) as f64,
        );
        m.insert("checkpoint.plain_vstep_us", plain.vstep_us());
        m.insert("checkpoint.overhead", vstep_us / plain.vstep_us());
    }
    if w.rank_count() == 1 {
        let base = |method| ExperimentConfig {
            method,
            ..cfg.clone()
        };
        let yask = fastest_variant(&mut h, "baseline:yask", &base(CpuMethod::Yask), None, tries)?;
        let types = fastest_variant(
            &mut h,
            "baseline:mpitypes",
            &base(CpuMethod::MpiTypes),
            None,
            tries,
        )?;
        m.insert("baselines.yask_vstep_us", yask.vstep_us());
        m.insert("baselines.yask_vcomm_us", yask.vcomm_us());
        m.insert("baselines.yask_pack_us", yask.report.timers.pack * 1e6);
        m.insert("baselines.mpitypes_vcomm_us", types.vcomm_us());
        m.insert(
            "baselines.yask_over_subject_vcomm",
            yask.vcomm_us() / vcomm_us,
        );
    }

    // --- single-layer probes ---------------------------------------------
    let decomp = h.tracer.span("probe:decomp", |_| {
        m.insert("decomp.build_us", probes::decomp_build(&cfg, reps) * 1e6);
        probes::build_decomp(&cfg)
    });
    m.insert("decomp.bricks", decomp.bricks() as f64);
    let memmap = matches!(cfg.method, CpuMethod::MemMap { .. });
    if memmap {
        let s = h
            .tracer
            .span("probe:memview", |_| probes::memview_map(&decomp, reps));
        m.insert("memview.map_us", s * 1e6);
    }
    h.tracer.span("probe:stencil", |tr| {
        let bind = tr.span("KernelPlan::new", |_| {
            probes::plan_bind(&cfg, &decomp, reps)
        });
        let exec = tr.span("KernelPlan::execute", |_| {
            probes::plan_exec(&cfg, &decomp, budget)
        });
        let array = tr.span("ArrayGrid::apply_plan_into", |_| {
            probes::array_exec(&cfg, budget)
        });
        m.insert("stencil.plan_bind_us", bind * 1e6);
        m.insert("stencil.plan_exec_us", exec * 1e6);
        m.insert("stencil.mstencil_per_s", r0.points as f64 / exec / 1e6);
        m.insert("stencil.array_exec_us", array * 1e6);
        m.insert("stencil.brick_over_array", exec / array);
    });
    m.insert(
        "stencil.calc_us",
        fastest_of(&untraced, |r| r.report.timers.calc * 1e6),
    );
    m.insert(
        "stencil.flops_per_step",
        r0.points as f64 * cfg.shape.flops_per_point(),
    );
    m.insert(
        "stencil.bytes_per_step_computed",
        r0.points as f64 * cfg.shape.bytes_per_point(),
    );

    let ex = h.tracer.span("probe:exchange", |_| {
        probes::exchange(w, &cfg, &decomp, 4 * reps)
    });
    if memmap {
        m.insert("memmap.host_us", ex.host_s * 1e6);
    } else {
        m.insert("exchange.bind_us", ex.bind_s * 1e6);
        m.insert("exchange.host_us", ex.host_s * 1e6);
    }
    if let Some(s) = ex.graph_build_s {
        m.insert("sched.graph_build_us", s * 1e6);
    }
    h.tracer.span("probe:cluster", |tr| {
        let spawn = tr.span("run_cluster_on(empty)", |_| {
            probes::cluster_spawn(&cfg, reps)
        });
        m.insert("cluster.spawn_us", spawn * 1e6);
        // Each workload probes only the transport path it uses.
        if w.rank_count() == 1 {
            m.insert(
                "cluster.loopback_ns_per_msg",
                tr.span("loopback_within", |_| probes::loopback_ns()),
            );
        } else {
            m.insert(
                "cluster.mailbox_ns_per_msg",
                tr.span("isend/irecv/waitall_into", |_| {
                    probes::mailbox_ns(cfg.backend)
                }),
            );
        }
    });
    if cfg.backend == Backend::Event {
        m.insert(
            "event.resume_ns",
            h.tracer
                .span("probe:event", |_| probes::event_resume_ns(&cfg)),
        );
        let rank_steps = (w.rank_count() * (cfg.steps + cfg.warmup)) as f64;
        m.insert(
            "event.rank_steps_per_s",
            rank_steps / fastest_of(&untraced, |r| r.wall),
        );
    }
    if w.rank_count() == 1 {
        // What a step costs the host beyond its exchange and its kernel.
        let exchange_us = m["exchange.host_us"] + m["memmap.host_us"];
        m.insert(
            "experiment.driver_self_us",
            host_us - exchange_us - m["stencil.plan_exec_us"],
        );
    }

    let metrics: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|d| (d.name, m[d.name])).collect();
    eprintln!(
        "{} seed {seed} (traced): {} ops, {} failed",
        w.name, h.attempted, h.failed
    );
    for (d, (_, v)) in PER_LAYER.iter().zip(&metrics) {
        eprintln!(
            "  {:<34} {v:>16.4} {:<6} {}",
            d.name,
            d.unit,
            d.kind.label()
        );
    }
    let body = Json::obj([
        ("kind", Json::str("layers")),
        ("stamp", stamp(w, &cfg, seed, smoke)),
        ("attempted", Json::Num(h.attempted as f64)),
        ("failed", Json::Num(h.failed as f64)),
        ("metrics", crate::metrics_json(&metrics, true)),
        ("spans", h.tracer.to_json(w.name)),
    ]);
    write_out(out_dir, &format!("trace-{}.json", w.name), &body);

    Ok(Outcome {
        correct: h.failed == 0,
        attempted: h.attempted,
        failed: h.failed,
        metrics,
    })
}
