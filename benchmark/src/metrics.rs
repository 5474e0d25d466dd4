//! The metric registry: every name the benchmark may print, with its
//! unit, which way is better, and whether the value is wall-clock
//! (`Measured`), LogGP arithmetic (`Modeled`) or a `Count`. Modeled
//! values and counts repeat bit-exactly run to run, so `compare` holds
//! them to tolerance 0. A modeled quantity that reaches the benchmark
//! through arithmetic with a measured one (`model.vcomm_us`, the
//! timeline's wire and wait phases) rounds differently from run to run
//! and is tagged `Measured`. `BENCHMARK.json` repeats names, units, `better`
//! and the bounds; a self-test keeps the two equal.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Measured,
    Modeled,
    Count,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Measured, Kind::Modeled, Kind::Count]
            .into_iter()
            .find(|k| k.label() == s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Measured,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
        bound: None,
    }
}

/// The gated metrics, the same on every workload. `vstep_us` is on the
/// virtual clock, the other three on the host clock.
pub const END_TO_END: &[MetricDef] = &[
    e2e("vstep_us", "us", 0.25),
    e2e("host_step_us", "us", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mib", "MiB", 0.10),
];

use Better::{Higher, Lower};
use Kind::{Count, Measured, Modeled};

/// The traced run's metrics; module names are the layer names. A layer
/// a workload bypasses reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("layout.msgs", "count", Lower, Count),
    layer("layout.region_instances", "count", Lower, Count),
    layer("decomp.build_us", "us", Lower, Measured),
    layer("decomp.bricks", "count", Lower, Count),
    layer("memview.map_us", "us", Lower, Measured),
    layer("memview.pad_bytes", "bytes", Lower, Count),
    layer("stencil.plan_bind_us", "us", Lower, Measured),
    layer("stencil.plan_exec_us", "us", Lower, Measured),
    layer("stencil.calc_us", "us", Lower, Measured),
    layer("stencil.mstencil_per_s", "M/s", Higher, Measured),
    layer("stencil.flops_per_step", "count", Lower, Count),
    layer("stencil.bytes_per_step_computed", "bytes", Lower, Count),
    layer("stencil.array_exec_us", "us", Lower, Measured),
    layer("stencil.brick_over_array", "ratio", Lower, Measured),
    layer("exchange.bind_us", "us", Lower, Measured),
    layer("exchange.host_us", "us", Lower, Measured),
    layer("exchange.pack_us", "us", Lower, Measured),
    layer("exchange.call_us", "us", Lower, Modeled),
    layer("exchange.wait_us", "us", Lower, Modeled),
    layer("memmap.host_us", "us", Lower, Measured),
    layer("cluster.spawn_us", "us", Lower, Measured),
    layer("cluster.msgs_per_step", "count", Lower, Count),
    layer("cluster.wire_bytes_per_step", "bytes", Lower, Count),
    layer("cluster.payload_bytes_per_step", "bytes", Lower, Count),
    layer("cluster.loopback_ns_per_msg", "ns", Lower, Measured),
    layer("cluster.mailbox_ns_per_msg", "ns", Lower, Measured),
    layer("model.vcomm_us", "us", Lower, Measured),
    layer("model.floor_us", "us", Lower, Modeled),
    layer("model.floor_gap", "ratio", Lower, Measured),
    layer("event.resume_ns", "ns", Lower, Measured),
    layer("event.rank_steps_per_s", "1/s", Higher, Measured),
    layer("partition.early_frac", "ratio", Higher, Measured),
    layer("partition.bricks_per_rank", "count", Lower, Count),
    layer("partition.vs_overlap", "ratio", Higher, Measured),
    layer("partition.jitter_vstep_us", "us", Lower, Measured),
    layer("sched.graph_build_us", "us", Lower, Measured),
    layer("sched.hidden_wire_us", "us", Higher, Measured),
    layer("sched.total_wire_us", "us", Lower, Measured),
    layer("sched.overlap_eff", "ratio", Higher, Measured),
    layer("sched.phased_vstep_us", "us", Lower, Measured),
    layer("sched.overlap_vstep_us", "us", Lower, Measured),
    layer("checkpoint.count", "count", Lower, Count),
    layer("checkpoint.bytes_per_step", "bytes", Lower, Count),
    layer("checkpoint.plain_vstep_us", "us", Lower, Measured),
    layer("checkpoint.overhead", "ratio", Lower, Measured),
    layer("telemetry.pack_us", "us", Lower, Measured),
    layer("telemetry.unpack_us", "us", Lower, Measured),
    layer("telemetry.copy_us", "us", Lower, Measured),
    layer("telemetry.wire_us", "us", Lower, Measured),
    layer("telemetry.wait_us", "us", Lower, Measured),
    layer("telemetry.compute_us", "us", Lower, Measured),
    layer("telemetry.identity_err", "ratio", Lower, Measured),
    layer("telemetry.spans_per_step", "count", Lower, Count),
    layer("telemetry.overhead_frac", "ratio", Lower, Measured),
    layer("baselines.yask_vstep_us", "us", Lower, Measured),
    layer("baselines.yask_vcomm_us", "us", Lower, Measured),
    layer("baselines.yask_pack_us", "us", Lower, Measured),
    layer("baselines.mpitypes_vcomm_us", "us", Lower, Measured),
    layer(
        "baselines.yask_over_subject_vcomm",
        "ratio",
        Higher,
        Measured,
    ),
    layer("experiment.setup_cold_s", "s", Lower, Measured),
    layer("experiment.driver_self_us", "us", Lower, Measured),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
