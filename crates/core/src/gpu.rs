//! GPU data-movement policies (paper Section 5, experiments V1/V2).
//!
//! Stencil numerics on the "GPU" are validated by the CPU exchange
//! engines (identical data movement); *time* is estimated from the real
//! exchange geometry (message counts, payload/wire bytes, region counts
//! from [`ExchangeStats`]) and the `devsim` models:
//!
//! * `Layout_CA` — pack-free layout exchange straight out of device
//!   memory with CUDA-Aware MPI + GPUDirect RDMA: no staging at all.
//! * `Layout_UM` — the same messages out of Unified Memory: each
//!   non-page-aligned region migrates at page granularity, and straddled
//!   pages fault back during the next kernel (worse *compute* time, the
//!   paper's Figure 15).
//! * `MemMap_UM` — one message per neighbor out of page-aligned mmap
//!   views: clean migrations, but padded wire traffic (Table 2).
//! * `MPI_Types_UM` — the datatype engine walks device-resident memory
//!   from the host, faulting as it goes.

use devsim::{CudaAwareModel, DeviceModel, LinkModel, UnifiedMemoryModel};
use netsim::{NetworkModel, Timers};

use crate::exchange::ExchangeStats;

/// The GPU implementations of Figure 13–15.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuMethod {
    /// Layout + CUDA-Aware MPI (GPUDirect RDMA).
    LayoutCA,
    /// Layout + Unified Memory.
    LayoutUM,
    /// MemMap + Unified Memory.
    MemMapUM,
    /// MPI derived datatypes + Unified Memory.
    MpiTypesUM,
}

impl GpuMethod {
    /// Figure-legend name.
    pub fn name(&self) -> &'static str {
        match self {
            GpuMethod::LayoutCA => "Layout_CA",
            GpuMethod::LayoutUM => "Layout_UM",
            GpuMethod::MemMapUM => "MemMap_UM",
            GpuMethod::MpiTypesUM => "MPI_Types_UM",
        }
    }
}

/// The modeled Summit node.
#[derive(Clone, Copy, Debug)]
pub struct GpuPlatform {
    /// The accelerator.
    pub device: DeviceModel,
    /// Host-device link.
    pub link: LinkModel,
    /// Unified-memory behavior.
    pub um: UnifiedMemoryModel,
    /// CUDA-Aware MPI behavior.
    pub ca: CudaAwareModel,
    /// Node-to-node fabric.
    pub net: NetworkModel,
    /// Measured cost of one datatype-engine element visit on the host
    /// (seconds/element); calibrate with [`calibrate_walk_cost`].
    pub walk_cost_per_elem: f64,
}

impl GpuPlatform {
    /// Summit: V100 + NVLink2 + ATS + Spectrum-MPI over EDR.
    pub fn summit() -> GpuPlatform {
        GpuPlatform {
            device: DeviceModel::v100(),
            link: LinkModel::nvlink2(),
            um: UnifiedMemoryModel::summit_ats(),
            ca: CudaAwareModel::summit(),
            net: NetworkModel::summit_edr(),
            walk_cost_per_elem: 2.0e-9,
        }
    }
}

/// Measure the real per-element cost of the datatype engine's walk on
/// this host (used to ground the `MPI_Types_UM` estimate in a real
/// measurement rather than a guess).
pub fn calibrate_walk_cost() -> f64 {
    use stencil::Datatype;
    let full = [64usize, 64, 64];
    let data = vec![1.0f64; full.iter().product()];
    let dt = Datatype::subarray3(full, [8, 8, 8], [48, 48, 48]);
    let elems = dt.size();
    let t0 = std::time::Instant::now();
    let mut sink = 0.0;
    for _ in 0..4 {
        let buf = dt.pack(&data);
        sink += buf[0];
    }
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64() / (4.0 * elems as f64)
}

/// Inputs describing one rank's exchange (taken from the real CPU-side
/// exchange schedules).
#[derive(Clone, Copy, Debug)]
pub struct GpuWorkload {
    /// Owned points per rank.
    pub points: u64,
    /// Flops per point of the stencil.
    pub flops_per_point: f64,
    /// Exchange traffic of the chosen schedule (Layout stats for the
    /// Layout modes, MemMap stats for `MemMapUM`, array stats for
    /// `MpiTypesUM`).
    pub stats: ExchangeStats,
}

/// Estimate per-timestep timers for a GPU method.
pub fn estimate_gpu_step(method: GpuMethod, w: &GpuWorkload, p: &GpuPlatform) -> Timers {
    let mut t = Timers {
        msgs: w.stats.messages as u64,
        wire_bytes: w.stats.wire_bytes as u64,
        payload_bytes: w.stats.payload_bytes as u64,
        ..Timers::default()
    };
    // Device compute (roofline; streaming 16 B/point as in the paper's
    // AI notation).
    t.calc = p.device.stencil_time(w.points, w.flops_per_point, 16.0);

    let msgs = w.stats.messages;
    let payload = w.stats.payload_bytes;
    let wire = w.stats.wire_bytes;
    let regions = w.stats.region_instances.max(1);

    match method {
        GpuMethod::LayoutCA => {
            // GPUDirect: NIC reads device memory; no staging, no faults.
            t.call = p.net.call_time(msgs) + p.ca.setup_time(msgs);
            t.wait = p.net.wait_time(msgs, wire);
        }
        GpuMethod::LayoutUM => {
            t.call = p.net.call_time(msgs);
            // Surface pages migrate to the host for injection; received
            // ghosts migrate back on next touch. The mapped chunks (one
            // per message run) are not page-aligned.
            let migrate = p.um.migrate_time(payload, msgs, false);
            t.wait = p.net.wait_time(msgs, wire) + 2.0 * migrate;
            // Straddled pages fault back during the next kernel.
            t.calc += p.um.unaligned_compute_penalty(msgs);
        }
        GpuMethod::MemMapUM => {
            t.call = p.net.call_time(msgs);
            // Page-aligned views migrate cleanly, but carry padding.
            let chunks = msgs; // one aligned view per neighbor
            let migrate = p.um.migrate_time(wire, chunks, true);
            t.wait = p.net.wait_time(msgs, wire) + 2.0 * migrate;
        }
        GpuMethod::MpiTypesUM => {
            // The host-side datatype walk touches device-resident pages
            // element by element: real walk cost plus *serial* far
            // faults on every strided region page, both ways. This is
            // the pathology behind the paper's 460x gap.
            let elems = payload / 8;
            let walk = 2.0 * elems as f64 * p.walk_cost_per_elem;
            let migrate = p.um.migrate_serial_time(payload, regions, false);
            t.call = p.net.call_time(msgs) + walk + 2.0 * migrate;
            t.wait = p.net.wait_time(msgs, payload);
            // The faulted-about pages also disturb the next kernel.
            t.calc += p.um.unaligned_compute_penalty(regions);
        }
    }
    t
}

/// The `Network_CA` floor of Figure 14: wire time for message-sized
/// buffers with GPUDirect and the minimal message count.
pub fn network_floor_ca(p: &GpuPlatform, payload_bytes: usize) -> f64 {
    p.net.exchange_time(26, payload_bytes) + p.ca.setup_time(26)
}

/// A GPU experiment configuration (V1-style).
#[derive(Clone, Debug)]
pub struct GpuExperimentConfig {
    /// Data-movement policy under test.
    pub method: GpuMethod,
    /// Per-rank subdomain.
    pub subdomain: [usize; 3],
    /// Ghost width.
    pub ghost: usize,
    /// Cubic brick extent.
    pub brick: usize,
    /// The stencil.
    pub shape: stencil::StencilShape,
    /// Timesteps.
    pub steps: usize,
    /// Rank grid.
    pub ranks: Vec<usize>,
    /// Node/device/fabric models.
    pub platform: GpuPlatform,
}

/// Result of a validated GPU run: numerics from really-executed data
/// movement and kernels; time from the platform models.
#[derive(Clone, Debug)]
pub struct GpuReport {
    /// Modeled per-step timers.
    pub timers: Timers,
    /// Exchange traffic of the schedule actually executed.
    pub stats: ExchangeStats,
    /// Owned points per rank.
    pub points: u64,
    /// Final interior checksum (must match the CPU methods').
    pub checksum: f64,
}

impl GpuReport {
    /// Per-rank throughput under the modeled platform.
    pub fn gstencil(&self) -> f64 {
        self.points as f64 / self.timers.total() / 1e9
    }
}

/// Run a GPU experiment: the exchange and the kernels really execute
/// (validating the numerics of the policy's data movement), while the
/// reported time comes from [`estimate_gpu_step`].
pub fn run_gpu_experiment(cfg: &GpuExperimentConfig) -> GpuReport {
    use crate::experiment::{run_experiment, CpuMethod, ExperimentConfig};

    // The data movement of each GPU policy maps onto a CPU engine:
    // Layout_CA / Layout_UM move the Layout schedule, MemMap_UM the
    // MemMap schedule, MPI_Types_UM the datatype schedule. Numerics are
    // identical by the cross-method equivalence invariant; stats come
    // from the matching schedule.
    let cpu_method = match cfg.method {
        GpuMethod::LayoutCA | GpuMethod::LayoutUM => CpuMethod::Layout,
        GpuMethod::MemMapUM => CpuMethod::MemMap { page_size: cfg.platform.um.page_size },
        GpuMethod::MpiTypesUM => CpuMethod::MpiTypes,
    };
    let cpu_cfg = ExperimentConfig {
        method: cpu_method,
        subdomain: cfg.subdomain,
        ghost: cfg.ghost,
        brick: cfg.brick,
        shape: cfg.shape.clone(),
        steps: cfg.steps,
        warmup: 0,
        ranks: cfg.ranks.clone(),
        net: NetworkModel::instant(),
        topology: None,
        mapping: Default::default(),
        kernel: crate::experiment::KernelKind::Plan,
        faults: netsim::FaultConfig::off(),
        profile: false,
        checkpoint_every: 0,
        overlap: false,
        partitioned: false,
        backend: netsim::Backend::from_env(),
    };
    let real = run_experiment(&cpu_cfg);

    let w = GpuWorkload {
        points: real.points,
        flops_per_point: cfg.shape.flops_per_point(),
        stats: real.stats,
    };
    let timers = estimate_gpu_step(cfg.method, &w, &cfg.platform);
    GpuReport { timers, stats: real.stats, points: real.points, checksum: real.checksum }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build plausible stats for a subdomain the way the harness does.
    fn stats_for(n: usize) -> (ExchangeStats, ExchangeStats) {
        use crate::decomp::BrickDecomp;
        use crate::exchange::Exchanger;
        use crate::memmap::memmap_decomp;
        use brick::BrickDims;
        let d = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, layout::surface3d());
        let layout_stats = Exchanger::layout(&d).stats();
        let dm = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, layout::surface3d(), 64 << 10);
        let memmap_stats = Exchanger::memmap(&dm).stats();
        (layout_stats, memmap_stats)
    }

    fn wl(points: u64, stats: ExchangeStats) -> GpuWorkload {
        GpuWorkload { points, flops_per_point: 13.0, stats }
    }

    #[test]
    fn layout_ca_is_fastest_comm() {
        let p = GpuPlatform::summit();
        let (ls, ms) = stats_for(64);
        let ca = estimate_gpu_step(GpuMethod::LayoutCA, &wl(64u64.pow(3), ls), &p);
        let um = estimate_gpu_step(GpuMethod::LayoutUM, &wl(64u64.pow(3), ls), &p);
        let mm = estimate_gpu_step(GpuMethod::MemMapUM, &wl(64u64.pow(3), ms), &p);
        let ty = estimate_gpu_step(GpuMethod::MpiTypesUM, &wl(64u64.pow(3), ls), &p);
        assert!(ca.comm() < um.comm());
        assert!(ca.comm() < mm.comm());
        assert!(ca.comm() < ty.comm());
        // MPI_Types_UM is the worst, by a lot (paper: orders of
        // magnitude).
        assert!(ty.comm() > 3.0 * mm.comm());
    }

    #[test]
    fn unaligned_um_hurts_compute() {
        let p = GpuPlatform::summit();
        let (ls, ms) = stats_for(64);
        let ca = estimate_gpu_step(GpuMethod::LayoutCA, &wl(64u64.pow(3), ls), &p);
        let um = estimate_gpu_step(GpuMethod::LayoutUM, &wl(64u64.pow(3), ls), &p);
        let mm = estimate_gpu_step(GpuMethod::MemMapUM, &wl(64u64.pow(3), ms), &p);
        // Figure 15: Layout_UM computes slower than Layout_CA and
        // MemMap_UM (page-aligned) computes like Layout_CA.
        assert!(um.calc > ca.calc);
        assert!((mm.calc - ca.calc).abs() < 1e-12);
    }

    #[test]
    fn memmap_padding_costs_wire_at_small_sizes() {
        let p = GpuPlatform::summit();
        let (ls16, ms16) = stats_for(16);
        // 64 KiB pages on 8^3 bricks: heavy padding at tiny subdomains
        // (Table 2: +883.9% at 16^3).
        assert!(ms16.padding_overhead_percent() > 300.0);
        assert_eq!(ls16.padding_overhead_percent(), 0.0);
        let mm = estimate_gpu_step(GpuMethod::MemMapUM, &wl(16u64.pow(3), ms16), &p);
        let ca = estimate_gpu_step(GpuMethod::LayoutCA, &wl(16u64.pow(3), ls16), &p);
        assert!(mm.comm() > ca.comm());
    }

    #[test]
    fn network_floor_is_a_floor() {
        let p = GpuPlatform::summit();
        let (ls, _) = stats_for(64);
        let floor = network_floor_ca(&p, ls.payload_bytes);
        let ca = estimate_gpu_step(GpuMethod::LayoutCA, &wl(64u64.pow(3), ls), &p);
        assert!(floor <= ca.comm() * 1.5);
    }

    #[test]
    fn walk_calibration_is_sane() {
        let c = calibrate_walk_cost();
        assert!(c > 1e-11 && c < 1e-6, "walk cost {c} s/elem out of range");
    }
}
