//! The measured-cell store behind the figure registry, plus the sweep
//! helpers the figures share.

use brick::BrickDims;
use packfree::decomp::BrickDecomp;
use packfree::exchange::{ExchangeStats, Exchanger};
use packfree::experiment::{run_experiment, CpuMethod, ExperimentConfig, MethodReport};
use packfree::gpu::{estimate_gpu_step, GpuMethod, GpuPlatform, GpuWorkload};
use packfree::memmap::memmap_decomp;
use stencil::StencilShape;

/// What one `reproduce` run sweeps over.
pub struct Sweep {
    /// Subdomain edges of the K1/V1-style figures: 512→16 in the
    /// paper, 128→16 by default here.
    pub(crate) sizes: Vec<usize>,
    /// Domain edge strong-scaled by the K2 figures (1024 in the paper).
    pub(crate) k2_domain: usize,
    /// Domain edge strong-scaled by the V2 figures (2048 in the paper).
    pub(crate) v2_domain: usize,
    /// Timed steps per measured run.
    pub(crate) steps: usize,
}

impl Sweep {
    /// Laptop-sized by default; `BRICK_FULL=1` selects the paper's
    /// full-size subdomains and domains (see EXPERIMENTS.md) and
    /// `BRICK_STEPS=n` the timed steps per configuration (default 4).
    pub fn from_env() -> Sweep {
        let full = std::env::var("BRICK_FULL").map(|v| v == "1").unwrap_or(false);
        let steps = std::env::var("BRICK_STEPS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
        if full {
            Sweep { sizes: vec![512, 256, 128, 64, 32, 16], k2_domain: 1024, v2_domain: 2048, steps }
        } else {
            Sweep { sizes: vec![128, 64, 32, 16], k2_domain: 256, v2_domain: 512, steps }
        }
    }
}

/// Exchange statistics for a subdomain under the three schedule shapes.
#[derive(Clone, Copy)]
pub struct GpuStats {
    /// Layout schedule (42 messages, no padding).
    pub layout: ExchangeStats,
    /// MemMap schedule with 64 KiB (Summit) pages.
    pub memmap: ExchangeStats,
    /// Array/datatype schedule (26 messages, no padding).
    pub types: ExchangeStats,
}

/// What identifies a measured run: method, subdomain, stencil.
type CellKey = (CpuMethod, [usize; 3], StencilShape, bool);

/// Every measured run and built schedule of one `reproduce` process,
/// memoised: a cell runs once however many tables show it, so the
/// tables that show it agree (Figures 8, 9 and 10 are three views of
/// the same K1 runs).
pub struct Cells {
    /// The sweep the figures iterate.
    pub(crate) sweep: Sweep,
    reports: Vec<(CellKey, MethodReport)>,
    gpu: Vec<(usize, GpuStats)>,
    /// Measured runs asked for so far.
    pub(crate) requested: usize,
    /// Measured runs actually executed (the rest were memo hits).
    pub(crate) executed: usize,
}

impl Cells {
    /// An empty store over `sweep`.
    pub fn new(sweep: Sweep) -> Cells {
        Cells { sweep, reports: Vec::new(), gpu: Vec::new(), requested: 0, executed: 0 }
    }

    /// One single-rank proxy run (the paper's 8-node periodic cube;
    /// every rank is identical by construction) of `method` on a
    /// `sub` subdomain, overlapped by the dependency-graph schedule or not.
    pub fn report(&mut self, method: CpuMethod, sub: [usize; 3], shape: StencilShape, overlap: bool) -> MethodReport {
        self.requested += 1;
        let key: CellKey = (method, sub, shape, overlap);
        if let Some((_, r)) = self.reports.iter().find(|(k, _)| *k == key) {
            return r.clone();
        }
        self.executed += 1;
        let (method, sub, shape, overlap) = key.clone();
        let mut cfg = ExperimentConfig::k1(method, 0);
        cfg.subdomain = sub;
        cfg.shape = shape;
        cfg.overlap = overlap;
        cfg.steps = self.sweep.steps;
        let r = run_experiment(&cfg);
        self.reports.push((key, r.clone()));
        r
    }

    /// The K1 cell: 7-point stencil on an `n`³ subdomain.
    pub fn k1(&mut self, method: CpuMethod, n: usize) -> MethodReport {
        self.report(method, [n; 3], StencilShape::star7_default(), false)
    }

    /// Build the real exchange schedules for an `n`³ subdomain and
    /// report their traffic statistics (these drive the GPU estimates).
    pub fn gpu_stats(&mut self, n: usize) -> GpuStats {
        if let Some((_, s)) = self.gpu.iter().find(|(k, _)| *k == n) {
            return *s;
        }
        let d = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, layout::surface3d());
        let layout = Exchanger::layout(&d).stats();
        let dm = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, layout::surface3d(), memview::PAGE_64K);
        let memmap = Exchanger::memmap(&dm).stats();
        let grid = stencil::ArrayGrid::new([n; 3], 8);
        let types = ExchangeStats {
            messages: 26,
            payload_bytes: grid.exchange_bytes(),
            wire_bytes: grid.exchange_bytes(),
            region_instances: 26,
        };
        let s = GpuStats { layout, memmap, types };
        self.gpu.push((n, s));
        s
    }

    /// Per-timestep GPU estimate for one method on an `n`³ subdomain.
    pub fn gpu_report(
        &mut self,
        method: GpuMethod,
        n: usize,
        shape: &StencilShape,
        p: &GpuPlatform,
    ) -> netsim::Timers {
        let s = self.gpu_stats(n);
        let stats = match method {
            GpuMethod::LayoutCA | GpuMethod::LayoutUM => s.layout,
            GpuMethod::MemMapUM => s.memmap,
            GpuMethod::MpiTypesUM => s.types,
        };
        let w = GpuWorkload {
            points: (n * n * n) as u64,
            flops_per_point: shape.flops_per_point(),
            stats,
        };
        estimate_gpu_step(method, &w, p)
    }
}

/// Per-rank subdomain for strong scaling a `domain`³ cube over `ranks`
/// ranks: balanced factorization, with extents rounded to the brick
/// multiple (min 16) when the division is uneven.
// Indexed loops read clearer than zip chains over parallel arrays here.
#[allow(clippy::needless_range_loop)]
pub fn strong_scaling_subdomain(domain: usize, ranks: usize) -> [usize; 3] {
    let topo = netsim::CartTopo::balanced(ranks, 3, true);
    let mut sub = [0usize; 3];
    for a in 0..3 {
        let raw = domain as f64 / topo.dims()[a] as f64;
        let rounded = ((raw / 8.0).round() as usize * 8).max(16);
        sub[a] = rounded;
    }
    sub
}

/// The node counts of the strong-scaling figures (8..1024, powers of 2).
pub fn node_sweep() -> Vec<usize> {
    (3..=10).map(|k| 1usize << k).collect()
}

/// Theoretic scaling anchors for the dashed lines of Figures 11/16:
/// compute scales with volume (1/nodes), communication with surface
/// ((1/nodes)^(2/3)).
pub fn ideal_scaling(anchor: f64, anchor_nodes: usize, nodes: usize, exponent: f64) -> f64 {
    anchor * (anchor_nodes as f64 / nodes as f64).powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_scaling_subdomains_are_brick_multiples() {
        for nodes in node_sweep() {
            let s = strong_scaling_subdomain(1024, nodes);
            assert!(s.iter().all(|&d| d % 8 == 0 && d >= 16), "{s:?}");
        }
        assert_eq!(strong_scaling_subdomain(1024, 8), [512, 512, 512]);
        assert_eq!(strong_scaling_subdomain(1024, 64), [256, 256, 256]);
        assert_eq!(strong_scaling_subdomain(1024, 1024), [128, 128, 64]);
    }

    #[test]
    fn node_sweep_is_the_papers() {
        assert_eq!(node_sweep(), vec![8, 16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn ideal_scaling_laws() {
        // Volume scaling: halving per-node work doubles throughput.
        let t8 = 1.0;
        assert!((ideal_scaling(t8, 8, 64, -1.0) - 8.0).abs() < 1e-12);
        // Surface scaling: 8x nodes -> 4x throughput.
        assert!((ideal_scaling(t8, 8, 64, -2.0 / 3.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_stats_consistency() {
        let s = Cells::new(Sweep::from_env()).gpu_stats(32);
        assert_eq!(s.layout.messages, 42);
        assert_eq!(s.memmap.messages, 26);
        assert_eq!(s.types.messages, 26);
        assert_eq!(s.layout.payload_bytes, s.memmap.payload_bytes);
        assert!(s.memmap.wire_bytes > s.memmap.payload_bytes);
        // The array schedule moves the same payload as the brick one.
        assert_eq!(s.types.payload_bytes, s.layout.payload_bytes);
    }
}
