//! The figure registry: every table, figure and extension experiment
//! of the reproduction as one entry of [`FIGURES`], rendered by the
//! `reproduce` binary (see DESIGN.md's per-experiment index). All
//! measured runs go through one [`Cells`] store, so tables that show
//! the same configuration show the same run.

use std::io::{self, Write};

use brick::BrickDims;
use devsim::NodeModel;
use layout::formulas::{basic_message_count, neighbor_count, optimal_message_count};
use layout::{optimize, Dir, SurfaceLayout};
use netsim::{run_cluster, CartTopo, NetworkModel, Timers};
use packfree::calibrated::estimate_cpu_step;
use packfree::experiment::{network_floor, run_experiment, CpuMethod, ExperimentConfig};
use packfree::gpu::{network_floor_ca, GpuMethod, GpuPlatform};
use packfree::memmap::memmap_decomp;
use packfree::{BrickDecomp, ExchangeStats, Exchanger};
use stencil::StencilShape;

use crate::harness::{ideal_scaling, node_sweep, strong_scaling_subdomain, Cells};
use crate::table::{gs, ms, pct, Table};

/// One reproducible table/figure.
pub struct Figure {
    /// Registry id (`reproduce <id>`).
    pub id: &'static str,
    /// Render the figure from `cells` into the writer.
    pub run: fn(&mut Cells, &mut dyn Write) -> io::Result<()>,
}

/// Every figure, in the paper's order, then the extensions.
pub const FIGURES: [Figure; 23] = [
    Figure { id: "tab01_message_counts", run: tab01_message_counts },
    Figure { id: "fig01_breakdown", run: fig01_breakdown },
    Figure { id: "fig04_layout_vs_basic", run: fig04_layout_vs_basic },
    Figure { id: "fig08_k1_throughput", run: fig08_k1_throughput },
    Figure { id: "fig09_k1_comm_time", run: fig09_k1_comm_time },
    Figure { id: "fig10_k1_compute_time", run: fig10_k1_compute_time },
    Figure { id: "fig11_k2_strong_scaling", run: fig11_k2_strong_scaling },
    Figure { id: "fig12_k2_decomposition", run: fig12_k2_decomposition },
    Figure { id: "fig13_v1_throughput", run: fig13_v1_throughput },
    Figure { id: "fig14_v1_comm_time", run: fig14_v1_comm_time },
    Figure { id: "fig15_v1_compute_time", run: fig15_v1_compute_time },
    Figure { id: "tab02_padding_bandwidth", run: tab02_padding_bandwidth },
    Figure { id: "fig16_v2_strong_scaling", run: fig16_v2_strong_scaling },
    Figure { id: "fig17_v2_decomposition", run: fig17_v2_decomposition },
    Figure { id: "fig18_pagesize", run: fig18_pagesize },
    Figure { id: "ext_shift_vs_put", run: ext_shift_vs_put },
    Figure { id: "ext_knl_calibrated", run: ext_knl_calibrated },
    Figure { id: "ext_dimensionality", run: ext_dimensionality },
    Figure { id: "ext_brick_size", run: ext_brick_size },
    Figure { id: "ext_message_trace", run: ext_message_trace },
    Figure { id: "ext_weak_scaling", run: ext_weak_scaling },
    Figure { id: "ext_overlap", run: ext_overlap },
    Figure { id: "artifact_metrics", run: artifact_metrics },
];

/// The `reproduce` command line: no argument renders every figure,
/// `<id>…` a subset, `--list` prints the ids. An unknown id is an
/// [`io::ErrorKind::InvalidInput`] error raised before anything runs.
pub fn reproduce(args: &[String], cells: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    if args.iter().any(|a| a == "--list") {
        return FIGURES.iter().try_for_each(|f| writeln!(out, "{}", f.id));
    }
    let selected: Vec<&Figure> = if args.is_empty() {
        FIGURES.iter().collect()
    } else {
        args.iter()
            .map(|a| {
                FIGURES.iter().find(|f| f.id == a).ok_or_else(|| {
                    let msg = format!("unknown figure '{a}' (`reproduce --list` prints the ids)");
                    io::Error::new(io::ErrorKind::InvalidInput, msg)
                })
            })
            .collect::<Result<_, _>>()?
    };
    for f in selected {
        writeln!(out, "\n##### {} #####\n", f.id)?;
        (f.run)(cells, out)?;
    }
    if args.is_empty() {
        writeln!(out, "\nAll experiments reproduced.")?;
    }
    Ok(())
}

const MEMMAP: CpuMethod = CpuMethod::MemMap { page_size: memview::PAGE_4K };

/// A table with one row per subdomain size of the sweep; `row` supplies
/// the cells after the leading `n^3` label.
fn per_size(
    c: &mut Cells,
    headers: &[&str],
    mut row: impl FnMut(&mut Cells, usize) -> Vec<String>,
) -> String {
    let mut t = Table::new(headers);
    for n in c.sweep.sizes.clone() {
        let mut cells = vec![format!("{n}^3")];
        cells.extend(row(c, n));
        t.row(cells);
    }
    t.render()
}

/// Table 1 — impact of dimensionality on message counts: neighbors
/// (Eq. 2), Layout lower bound (Eq. 1), Basic (Eq. 3), plus the best
/// layout actually *found* by this library's optimizers (exact for
/// d ≤ 2, annealed above).
fn tab01_message_counts(_: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Table 1: messages vs dimensionality ==")?;
    writeln!(out, "paper: neighbors 2/8/26/80/242, Layout 2/9/42/209/1042, Basic 2/16/98/544/2882\n")?;
    let mut t =
        Table::new(&["Dimensions", "Neighbors (Eq.2)", "Layout (Eq.1)", "Found", "Optimal?", "Basic (Eq.3)"]);
    for d in 1..=5usize {
        let found = match d {
            1 | 2 => optimize::exhaustive(d),
            3 => optimize::anneal(d, 0xB5EC, 20_000, 6),
            // 4D/5D have 80/242 regions; annealing gets close to the
            // bound but is not guaranteed optimal.
            _ => optimize::anneal(d, 0xB5EC, 30_000, 3),
        };
        t.row(vec![
            d.to_string(),
            neighbor_count(d).to_string(),
            optimal_message_count(d).to_string(),
            found.messages.to_string(),
            if found.optimal { "yes".into() } else { "best-found".into() },
            basic_message_count(d).to_string(),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nshipped constants: surface2d = {} messages, surface3d = {} messages",
        layout::surface2d().message_count(),
        layout::surface3d().message_count()
    )
}

/// Figure 1 — per-timestep breakdown (Compute / MPI / Packing) of YASK
/// vs the proposed pack-free approach, as subdomains shrink: for small
/// subdomains most of YASK's step is Packing, on-node data movement the
/// proposed methods avoid entirely.
fn fig01_breakdown(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 1: time breakdown per timestep, YASK vs proposed (MemMap) ==")?;
    writeln!(out, "columns are percent of the YASK step time at each size\n")?;
    let headers = [
        "Subdomain", "YASK comp%", "YASK mpi%", "YASK pack%", "Prop comp%", "Prop mpi%", "Prop pack%",
        "speedup",
    ];
    let t = per_size(c, &headers, |c, n| {
        let (yask, prop) = (c.k1(CpuMethod::Yask, n), c.k1(MEMMAP, n));
        let base = yask.step_time();
        let pct = |v: f64| format!("{:.1}", 100.0 * v / base);
        vec![
            pct(yask.timers.calc),
            pct(yask.timers.call + yask.timers.wait),
            pct(yask.timers.pack),
            pct(prop.timers.calc),
            pct(prop.timers.call + prop.timers.wait),
            pct(prop.timers.pack),
            format!("{:.2}x", base / prop.step_time()),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: packing dominates YASK below 128^3; proposed reaches 14.4x at 16^3")
}

/// Figure 4 — communication time for one 3D stencil step: YASK
/// (packed) vs Basic (98 pack-free messages) vs Layout (42 messages).
fn fig04_layout_vs_basic(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 4: communication time, YASK vs Basic vs Layout ==\n")?;
    let headers =
        ["Subdomain", "YASK ms", "Basic ms", "Layout ms", "Basic msgs", "Layout msgs", "Layout/Basic"];
    let t = per_size(c, &headers, |c, n| {
        let yask = c.k1(CpuMethod::Yask, n);
        let (basic, layout) = (c.k1(CpuMethod::Basic, n), c.k1(CpuMethod::Layout, n));
        vec![
            ms(yask.comm_time()),
            ms(basic.comm_time()),
            ms(layout.comm_time()),
            basic.stats.messages.to_string(),
            layout.stats.messages.to_string(),
            format!("{:.2}x", basic.comm_time() / layout.comm_time()),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: Basic needs 98 messages, Layout 42; Layout up to 2.3x faster than Basic")
}

/// Figure 8 — (K1) 7-point stencil throughput vs subdomain size.
fn fig08_k1_throughput(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 8: (K1) 7-point throughput (GStencil/s per rank) ==\n")?;
    let t = per_size(c, &["Subdomain", "MemMap", "Layout", "YASK", "YASK-OL", "MPI_Types"], |c, n| {
        let (memmap, layout, yask) = (c.k1(MEMMAP, n), c.k1(CpuMethod::Layout, n), c.k1(CpuMethod::Yask, n));
        let yask_ol = c.report(CpuMethod::Yask, [n; 3], StencilShape::star7_default(), true);
        let types = c.k1(CpuMethod::MpiTypes, n);
        [memmap, layout, yask, yask_ol, types].iter().map(|r| gs(r.gstencil())).collect()
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: Layout ~ MemMap >> YASK(-OL) >> MPI_Types; gap widens as subdomains shrink")
}

/// Figure 9 — (K1) per-timestep communication time vs subdomain size,
/// with the empirical `Network` floor and the `Comp` reference.
fn fig09_k1_comm_time(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 9: (K1) communication time per timestep (ms) ==\n")?;
    let headers = ["Subdomain", "MPI_Types", "YASK", "Layout", "MemMap", "Network", "Comp"];
    let t = per_size(c, &headers, |c, n| {
        let (types, yask) = (c.k1(CpuMethod::MpiTypes, n), c.k1(CpuMethod::Yask, n));
        let (layout, memmap) = (c.k1(CpuMethod::Layout, n), c.k1(MEMMAP, n));
        vec![
            ms(types.comm_time()),
            ms(yask.comm_time()),
            ms(layout.comm_time()),
            ms(memmap.comm_time()),
            ms(network_floor(&NetworkModel::theta_aries(), layout.stats.payload_bytes)),
            ms(memmap.timers.calc),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: Layout and MemMap nearly reach the Network floor; MemMap up to 14.4x")?;
    writeln!(out, "faster than YASK and 460x faster than MPI_Types; small sizes are startup-bound")
}

/// Figure 10 — (K1) compute time per timestep: different brick
/// orderings (MemMap / Layout / No-Layout) must show no significant
/// difference — optimizing the layout for communication does not hurt
/// computation.
fn fig10_k1_compute_time(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 10: (K1) compute time per timestep (ms) ==\n")?;
    let methods = [CpuMethod::MpiTypes, CpuMethod::Yask, CpuMethod::Layout, MEMMAP, CpuMethod::NoLayout];
    let t = per_size(c, &["Subdomain", "MPI_Types", "YASK", "Layout", "MemMap", "No-Layout"], |c, n| {
        methods.iter().map(|m| ms(c.k1(m.clone(), n).timers.calc)).collect()
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: no discernible compute difference across block orderings; the layout")?;
    writeln!(out, "indirection is free because fine-grained blocking already minimizes cache/TLB pressure")
}

/// Figure 11 — (K2) strong scaling of a fixed domain over 8..1024
/// nodes, 7-point and 125-point stencils, MemMap vs YASK, with the
/// theoretic compute (volume) and communication (surface) scaling
/// lines.
fn fig11_k2_strong_scaling(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    let domain = c.sweep.k2_domain;
    writeln!(out, "== Figure 11: (K2) strong scaling of a {domain}^3 domain (aggregate GStencil/s) ==\n")?;
    let mut t = Table::new(&[
        "Nodes", "Subdomain", "MemMap 7pt", "YASK 7pt", "MemMap 125pt", "YASK 125pt", "ideal-comp",
        "ideal-comm",
    ]);
    let mut anchor = None;
    for nodes in node_sweep() {
        let sub = strong_scaling_subdomain(domain, nodes);
        let mut agg = |m: CpuMethod, shape: StencilShape| c.report(m, sub, shape, false).gstencil() * nodes as f64;
        let m7 = agg(MEMMAP, StencilShape::star7_default());
        let y7 = agg(CpuMethod::Yask, StencilShape::star7_default());
        let m125 = agg(MEMMAP, StencilShape::cube125_default());
        let y125 = agg(CpuMethod::Yask, StencilShape::cube125_default());
        let (a, a_nodes) = *anchor.get_or_insert((m7, nodes));
        t.row(vec![
            nodes.to_string(),
            format!("{}x{}x{}", sub[0], sub[1], sub[2]),
            gs(m7),
            gs(y7),
            gs(m125),
            gs(y125),
            gs(ideal_scaling(a, a_nodes, nodes, -1.0)), // throughput grows ~nodes
            gs(ideal_scaling(a, a_nodes, nodes, -2.0 / 3.0)),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "\npaper: MemMap strong-scales 9.3x (7pt) / 13.4x (125pt) better than YASK at 1024")?;
    writeln!(out, "nodes; compute-bound at few nodes, communication-scaling at many")
}

/// Figure 12 — (K2) per-timestep communication vs computation
/// decomposition of the 7-point strong-scaling runs of Figure 11.
fn fig12_k2_decomposition(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    let domain = c.sweep.k2_domain;
    writeln!(out, "== Figure 12: (K2) comm vs comp decomposition, 7-point on {domain}^3 (ms/step) ==\n")?;
    let mut t = Table::new(&["Nodes", "YASK comm", "YASK comp", "MemMap comm", "MemMap comp"]);
    for nodes in node_sweep() {
        let sub = strong_scaling_subdomain(domain, nodes);
        let yask = c.report(CpuMethod::Yask, sub, StencilShape::star7_default(), false);
        let memmap = c.report(MEMMAP, sub, StencilShape::star7_default(), false);
        t.row(vec![
            nodes.to_string(),
            ms(yask.comm_time()),
            ms(yask.timers.calc),
            ms(memmap.comm_time()),
            ms(memmap.timers.calc),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "\npaper: the communication-time reduction is what produces the strong-scaling win")
}

/// Figure 13 — (V1) 7-point stencil throughput on 8 modeled V100 nodes.
fn fig13_v1_throughput(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 13: (V1) GPU 7-point throughput (GStencil/s per rank, modeled V100) ==\n")?;
    let (p, shape) = (GpuPlatform::summit(), StencilShape::star7_default());
    let methods = [GpuMethod::LayoutCA, GpuMethod::LayoutUM, GpuMethod::MemMapUM, GpuMethod::MpiTypesUM];
    let t = per_size(c, &["Subdomain", "Layout_CA", "Layout_UM", "MemMap_UM", "MPI_Types_UM"], |c, n| {
        let per_rank = |t: Timers| gs((n * n * n) as f64 / t.total() / 1e9);
        methods.iter().map(|&m| per_rank(c.gpu_report(m, n, &shape, &p))).collect()
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: Layout and MemMap far outperform MPI_Types_UM; Layout_CA best overall")
}

/// Figure 14 — (V1) GPU communication time per timestep with the
/// `Network_CA` floor and `Comp` reference.
fn fig14_v1_comm_time(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 14: (V1) GPU communication time per timestep (ms) ==\n")?;
    let (p, shape) = (GpuPlatform::summit(), StencilShape::star7_default());
    let headers = ["Subdomain", "MPI_Types_UM", "MemMap_UM", "Layout_UM", "Layout_CA", "Network_CA", "Comp"];
    let t = per_size(c, &headers, |c, n| {
        let mm = c.gpu_report(GpuMethod::MemMapUM, n, &shape, &p);
        vec![
            ms(c.gpu_report(GpuMethod::MpiTypesUM, n, &shape, &p).comm()),
            ms(mm.comm()),
            ms(c.gpu_report(GpuMethod::LayoutUM, n, &shape, &p).comm()),
            ms(c.gpu_report(GpuMethod::LayoutCA, n, &shape, &p).comm()),
            ms(network_floor_ca(&p, c.gpu_stats(n).layout.payload_bytes)),
            ms(mm.calc),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: Layout_CA approaches the Network_CA floor (GPUDirect RDMA, no staging)")
}

/// Figure 15 — (V1) GPU compute time per timestep: page-aligned
/// methods (Layout_CA, MemMap_UM) compute fastest; unaligned UM
/// communication (Layout_UM, MPI_Types_UM) drags pages back and forth
/// through the kernel.
fn fig15_v1_compute_time(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 15: (V1) GPU compute time per timestep (ms) ==\n")?;
    let (p, shape) = (GpuPlatform::summit(), StencilShape::star7_default());
    let methods = [GpuMethod::MpiTypesUM, GpuMethod::MemMapUM, GpuMethod::LayoutUM, GpuMethod::LayoutCA];
    let t = per_size(c, &["Subdomain", "MPI_Types_UM", "MemMap_UM", "Layout_UM", "Layout_CA"], |c, n| {
        methods.iter().map(|&m| ms(c.gpu_report(m, n, &shape, &p).calc)).collect()
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: Layout_CA and MemMap_UM compute fastest; Layout_UM/MPI_Types_UM pay for")?;
    writeln!(out, "communication regions not aligned to page boundaries")
}

/// Table 2 — (V1) network transfer increase from MemMap padding and
/// achieved bandwidth per method (64 KiB Summit pages).
fn tab02_padding_bandwidth(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Table 2: (V1) padding overhead and achieved bandwidth ==\n")?;
    let (p, shape) = (GpuPlatform::summit(), StencilShape::star7_default());
    let headers =
        ["Subdomain", "Layout pad%", "MemMap pad%", "Layout_CA GB/s", "Layout_UM GB/s", "MemMap_UM GB/s"];
    let t = per_size(c, &headers, |c, n| {
        let s = c.gpu_stats(n);
        let mut bw = |m: GpuMethod, payload: usize| {
            format!("{:.1}", payload as f64 / c.gpu_report(m, n, &shape, &p).comm() / 1e9)
        };
        vec![
            pct(s.layout.padding_overhead_percent()),
            pct(s.memmap.padding_overhead_percent()),
            bw(GpuMethod::LayoutCA, s.layout.payload_bytes),
            bw(GpuMethod::LayoutUM, s.layout.payload_bytes),
            bw(GpuMethod::MemMapUM, s.memmap.payload_bytes),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper (512->16): MemMap pad% 2.4/9.3/35.0/176.9/652.0/883.9; Layout always 0;")?;
    writeln!(out, "MemMap_UM bandwidth stays flat (~17 GB/s) while Layout_UM degrades at small sizes")
}

/// Ranks and equivalent-volume cube edge of one V2 strong-scaling
/// point (6 GPUs per node). The per-rank subdomain is non-cubic in
/// general; the estimator is driven by the real exchange geometry of
/// the rounded cube with the same volume.
fn v2_point(domain: usize, nodes: usize) -> (usize, usize) {
    let ranks = 6 * nodes;
    let sub = strong_scaling_subdomain(domain, ranks);
    let n_eq = ((sub[0] * sub[1] * sub[2]) as f64).cbrt();
    (ranks, ((n_eq / 8.0).round() as usize * 8).max(16))
}

/// Figure 16 — (V2) GPU strong scaling: 6 ranks (GPUs) per node,
/// 8..1024 nodes, 7-point and 125-point stencils.
fn fig16_v2_strong_scaling(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    let domain = c.sweep.v2_domain;
    writeln!(
        out,
        "== Figure 16: (V2) GPU strong scaling of {domain}^3, 6 ranks/node (aggregate GStencil/s) ==\n"
    )?;
    let p = GpuPlatform::summit();
    let mut t = Table::new(&[
        "Nodes", "Ranks", "Subdomain", "Layout_CA 7pt", "MemMap_UM 7pt", "MPI_Types_UM 7pt",
        "Layout_CA 125pt", "MemMap_UM 125pt", "MPI_Types_UM 125pt",
    ]);
    for nodes in node_sweep() {
        let (ranks, n) = v2_point(domain, nodes);
        let mut row = vec![nodes.to_string(), ranks.to_string(), format!("{n}^3 (eq)")];
        for shape in [StencilShape::star7_default(), StencilShape::cube125_default()] {
            for m in [GpuMethod::LayoutCA, GpuMethod::MemMapUM, GpuMethod::MpiTypesUM] {
                let timers = c.gpu_report(m, n, &shape, &p);
                row.push(gs(ranks as f64 * (n * n * n) as f64 / timers.total() / 1e9));
            }
        }
        t.row(row);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "\npaper: Layout_CA/MemMap_UM reach 5.8x/4.1x over MPI_Types_UM at 1024 nodes;")?;
    writeln!(out, "18.3 TStencil/s (7pt) and 8.1 TStencil/s (125pt) on a quarter of Summit")
}

/// Figure 17 — (V2) per-timestep comm vs comp decomposition of the
/// 7-point GPU strong-scaling runs: communication dominates at every
/// scale on the GPU platform.
fn fig17_v2_decomposition(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    let domain = c.sweep.v2_domain;
    writeln!(out, "== Figure 17: (V2) GPU comm vs comp, 7-point on {domain}^3 (ms/step) ==\n")?;
    let (p, shape) = (GpuPlatform::summit(), StencilShape::star7_default());
    let mut t = Table::new(&[
        "Nodes", "Types comm", "Types comp", "MemMap comm", "MemMap comp", "Layout_CA comm",
        "Layout_CA comp",
    ]);
    for nodes in node_sweep() {
        let (_, n) = v2_point(domain, nodes);
        let mut row = vec![nodes.to_string()];
        for m in [GpuMethod::MpiTypesUM, GpuMethod::MemMapUM, GpuMethod::LayoutCA] {
            let timers = c.gpu_report(m, n, &shape, &p);
            row.extend([ms(timers.comm()), ms(timers.calc)]);
        }
        t.row(row);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "\npaper: application time is communication-dominated even at 8 nodes; optimizing")?;
    writeln!(out, "communication is the entire speedup")
}

/// Figure 18 — estimated page-size effect on MemMap communication time
/// (4/16/64 KiB base pages, emulated via superfluous padding), compared
/// against YASK and MPI_Types.
fn fig18_pagesize(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Figure 18: page-size effect on MemMap communication time (ms) ==\n")?;
    let methods = [
        CpuMethod::MpiTypes,
        CpuMethod::Yask,
        CpuMethod::MemMap { page_size: memview::PAGE_64K },
        CpuMethod::MemMap { page_size: memview::PAGE_16K },
        MEMMAP,
    ];
    let t = per_size(c, &["Subdomain", "MPI_Types", "YASK", "64KiB", "16KiB", "4KiB"], |c, n| {
        methods.iter().map(|m| ms(c.k1(m.clone(), n).comm_time())).collect()
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: even with 64 KiB pages MemMap still outperforms YASK and MPI_Types;")?;
    writeln!(out, "page size is not a significant factor on KNL")
}

/// Extension (paper Section 8 discusses the tradeoff): Put (all 26
/// neighbors at once) vs Shift (dimension-by-dimension, 6 messages,
/// 3 serialized latency phases), both pack-free through the same
/// machinery.
fn ext_shift_vs_put(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Extension: Put (MemMap, 26 msgs) vs Shift (6 msgs, 3 phases) ==\n")?;
    let headers = [
        "Subdomain", "Put comm ms", "Shift comm ms", "Put msgs", "Shift msgs", "Put bytes", "Shift bytes",
    ];
    let t = per_size(c, &headers, |c, n| {
        let put = c.k1(MEMMAP, n);
        let shift = c.k1(CpuMethod::Shift { page_size: memview::PAGE_4K }, n);
        vec![
            ms(put.comm_time()),
            ms(shift.comm_time()),
            put.stats.messages.to_string(),
            shift.stats.messages.to_string(),
            format!("{} KiB", put.stats.wire_bytes / 1024),
            format!("{} KiB", shift.stats.wire_bytes / 1024),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\nexpected: Shift wins when per-message costs dominate (it posts 6 messages")?;
    writeln!(out, "instead of 26-42) but pays 3 serialized network latencies per exchange;")?;
    writeln!(out, "identical payload bytes either way — every ghost brick still arrives once")
}

/// Extension: Figure 9's *magnitudes* with calibrated KNL costs — the
/// same schedules and bytes as the measured mode, but on-node costs
/// from the published KNL 7230 parameters (467 GB/s stream, slow
/// strided packs, slow datatype engine). The paper's 14.4x/460x ratios
/// reappear.
fn ext_knl_calibrated(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Extension: Figure 9 with calibrated KNL on-node costs (ms) ==\n")?;
    let (knl, net) = (NodeModel::knl7230(), NetworkModel::theta_aries());
    let headers =
        ["Subdomain", "MPI_Types", "YASK", "Layout", "MemMap", "Comp", "YASK/MemMap", "Types/MemMap"];
    let t = per_size(c, &headers, |c, n| {
        let s = c.gpu_stats(n);
        let pts = (n * n * n) as u64;
        // MemMap on KNL/Theta uses the host 4 KiB pages: zero padding
        // with 8^3 bricks, so its wire stats equal Layout's with 26
        // messages.
        let memmap_stats = ExchangeStats {
            messages: 26,
            payload_bytes: s.layout.payload_bytes,
            wire_bytes: s.layout.payload_bytes,
            region_instances: s.layout.region_instances,
        };
        let types = estimate_cpu_step(&CpuMethod::MpiTypes, &s.types, pts, &knl, &net);
        let yask = estimate_cpu_step(&CpuMethod::Yask, &s.types, pts, &knl, &net);
        let layout = estimate_cpu_step(&CpuMethod::Layout, &s.layout, pts, &knl, &net);
        let memmap = estimate_cpu_step(&MEMMAP, &memmap_stats, pts, &knl, &net);
        vec![
            ms(types.comm()),
            ms(yask.comm()),
            ms(layout.comm()),
            ms(memmap.comm()),
            ms(memmap.calc),
            format!("{:.1}x", yask.comm() / memmap.comm()),
            format!("{:.1}x", types.comm() / memmap.comm()),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper: MemMap up to 14.4x faster than YASK and 460x faster than MPI_Types;")?;
    writeln!(out, "with KNL's published on-node costs those ratios reappear from the same")?;
    writeln!(out, "schedules and bytes measured by this library's real exchange planners")
}

/// Realized message count and per-exchange timers of `steps` real
/// exchanges on one periodic proxy rank.
fn proxy_exchange<const D: usize>(d: &BrickDecomp<D>, ex: &Exchanger, steps: usize) -> (usize, Timers) {
    let topo = CartTopo::new(&[1; D], true);
    let t = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
        let mut st = d.allocate();
        for _ in 0..steps {
            ex.exchange(ctx, &mut st).unwrap();
        }
        ctx.timers().per_step(steps)
    });
    (ex.stats().messages, t[0])
}

/// Layout and Basic exchanges of a 64^D subdomain under `layout`.
fn layout_and_basic<const D: usize>(layout: SurfaceLayout) -> [(usize, Timers); 2] {
    let d = BrickDecomp::<D>::layout_mode([64; D], 8, BrickDims::cubic(8), 1, layout);
    [Exchanger::layout(&d), Exchanger::basic(&d)].map(|ex| proxy_exchange(&d, &ex, 8))
}

/// Extension: Section 3.3's dimensionality analysis, exercised with
/// *real exchanges* — 1D, 2D, and 3D decompositions run end-to-end and
/// their realized message counts and comm times compared against the
/// Eq. 1/2/3 predictions.
fn ext_dimensionality(_: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Extension: dimensionality analysis with real exchanges (64^d, ghost 8) ==\n")?;
    let mut t = Table::new(&[
        "D", "Neighbors", "Layout msgs (Eq.1)", "Layout msgs (real)", "Basic msgs (Eq.3)",
        "Basic msgs (real)", "Layout comm ms", "Basic comm ms",
    ]);
    let runs = [
        layout_and_basic::<1>(SurfaceLayout::lexicographic(1)),
        layout_and_basic::<2>(layout::surface2d()),
        layout_and_basic::<3>(layout::surface3d()),
    ];
    for (d, [(lm, lt), (bm, bt)]) in (1..).zip(runs) {
        t.row(vec![
            d.to_string(),
            neighbor_count(d).to_string(),
            optimal_message_count(d).to_string(),
            lm.to_string(),
            basic_message_count(d).to_string(),
            bm.to_string(),
            ms(lt.comm()),
            ms(bt.comm()),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "\npaper (Table 1): layout optimization grows less effective with dimension;")?;
    writeln!(out, "realized counts equal the closed forms whenever no region is empty")
}

/// Extension ablation: brick size (4³ / 8³ / 16³) for a fixed 64³
/// subdomain — the tradeoff the paper's Section 7.3 discusses: smaller
/// bricks waste more of every page under MemMap; bigger bricks coarsen
/// the ghost-zone granularity (a 16-wide rim when the stencil needs 8).
fn ext_brick_size(_: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Extension: brick-size ablation on a 64^3 subdomain ==\n")?;
    let mut t = Table::new(&[
        "Brick", "Ghost", "Bricks", "Layout msgs", "Layout comm ms", "MemMap pad% (64KiB)",
        "MemMap wire KiB",
    ]);
    for bs in [4usize, 8, 16] {
        // The ghost width must be a brick multiple and at least the
        // stencil's expanded rim: 8 for 4^3/8^3 bricks, 16 for 16^3.
        let ghost = bs.max(8);
        let bricks = BrickDims::cubic(bs);
        let d = BrickDecomp::<3>::layout_mode([64; 3], ghost, bricks, 1, layout::surface3d());
        let (msgs, timers) = proxy_exchange(&d, &Exchanger::layout(&d), 6);
        let dm = memmap_decomp([64; 3], ghost, bricks, 1, layout::surface3d(), memview::PAGE_64K);
        let mv = Exchanger::memmap(&dm).stats();
        t.row(vec![
            format!("{bs}^3"),
            ghost.to_string(),
            d.bricks().to_string(),
            msgs.to_string(),
            ms(timers.comm()),
            pct(mv.padding_overhead_percent()),
            (mv.wire_bytes / 1024).to_string(),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "\n8^3 is the sweet spot the paper ships: one brick = one 4 KiB page, the")?;
    writeln!(out, "ghost rim matches the expanded 8-wide halo, and padding stays bounded")
}

/// Extension: a wire-level trace of one Layout exchange — every message
/// with its neighbor direction, tag, and bytes, verifying the
/// 42-message / 26-neighbor structure end to end at the message layer
/// (not just in the planner's bookkeeping).
fn ext_message_trace(_: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    let n = 48usize;
    writeln!(out, "== Extension: message-level trace of one Layout exchange ({n}^3, ghost 8) ==\n")?;
    let d = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, layout::surface3d());
    let ex = Exchanger::layout(&d);
    let topo = CartTopo::new(&[1, 1, 1], true);
    let events = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
        ctx.enable_profiling();
        let mut st = d.allocate();
        ex.exchange(ctx, &mut st).unwrap();
        ctx.take_timeline().msgs
    });
    let sends: Vec<_> = events[0].iter().filter(|e| e.send).collect();
    let recvs = events[0].len() - sends.len();

    // Group sends by destination direction (decoded from the tag's
    // direction-code prefix).
    let mut per_dir: std::collections::BTreeMap<usize, (usize, usize)> = Default::default();
    for e in &sends {
        let entry = per_dir.entry((e.tag >> 16) as usize).or_default();
        entry.0 += 1;
        entry.1 += e.bytes;
    }
    let mut t = Table::new(&["Neighbor", "Msgs", "KiB", "Regions merged"]);
    for (code, (msgs, bytes)) in &per_dir {
        let dir = Dir::from_code(*code, 3);
        let merged =
            d.plan().neighbor(&dir).send_regions.iter().filter(|r| d.region_bricks(r) > 0).count();
        t.row(vec![format!("N({dir})"), msgs.to_string(), (bytes / 1024).to_string(), merged.to_string()]);
    }
    write!(out, "{}", t.render())?;
    writeln!(out, "\ntotal: {} sends, {recvs} receives to/from 26 neighbors", sends.len())?;
    assert_eq!(sends.len(), 42);
    assert_eq!(recvs, 42);
    assert_eq!(per_dir.len(), 26);
    writeln!(out, "verified at the wire: 42 messages cover all 98 region instances ✓")
}

/// Extension: weak scaling — the artifact's executables live in a
/// `weak/` directory, so the fixed-per-rank-size sweep belongs in the
/// reproduction even though the paper's figures show strong scaling.
/// Per-rank behavior is node-count-independent in proxy mode (the wire
/// model depends only on the per-rank message schedule), so one
/// measurement per method scales linearly with ranks; the gap between
/// methods is the constant per-step comm difference.
fn ext_weak_scaling(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    let n = 64usize;
    writeln!(out, "== Extension: weak scaling, {n}^3 per rank (aggregate GStencil/s) ==\n")?;
    let (memmap, yask, types) = (c.k1(MEMMAP, n), c.k1(CpuMethod::Yask, n), c.k1(CpuMethod::MpiTypes, n));
    let mut t = Table::new(&["Nodes", "MemMap", "YASK", "MPI_Types", "MemMap comm ms", "YASK comm ms"]);
    for nodes in node_sweep() {
        t.row(vec![
            nodes.to_string(),
            gs(memmap.gstencil() * nodes as f64),
            gs(yask.gstencil() * nodes as f64),
            gs(types.gstencil() * nodes as f64),
            ms(memmap.comm_time()),
            ms(yask.comm_time()),
        ]);
    }
    write!(out, "{}", t.render())?;
    writeln!(
        out,
        "\nper-step comm is constant under weak scaling: MemMap {:.3} ms vs YASK {:.3} ms",
        memmap.comm_time() * 1e3,
        yask.comm_time() * 1e3
    )?;
    writeln!(
        out,
        "({:.2}x), so the aggregate gap persists at every node count",
        yask.comm_time() / memmap.comm_time()
    )
}

/// Extension: composing the paper's contribution (pack-free exchange)
/// with the prior-work strategy it contrasts against (communication/
/// computation overlap). Overlap hides wire time behind interior
/// compute; pack-free removes the on-node cost overlap cannot hide —
/// the two compose.
fn ext_overlap(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Extension: overlap x pack-free composition (per-step wall time, ms) ==\n")?;
    let headers =
        ["Subdomain", "YASK", "YASK-OL", "Layout", "Layout-OL", "hidden ms", "exposed comm ms"];
    let t = per_size(c, &headers, |c, n| {
        let layout_ol = c.report(CpuMethod::Layout, [n; 3], StencilShape::star7_default(), true);
        vec![
            ms(c.k1(CpuMethod::Yask, n).step_time()),
            ms(c.report(CpuMethod::Yask, [n; 3], StencilShape::star7_default(), true).step_time()),
            ms(c.k1(CpuMethod::Layout, n).step_time()),
            ms(layout_ol.step_time()),
            ms(layout_ol.calc_hidden),
            ms(layout_ol.comm_time()),
        ]
    });
    write!(out, "{t}")?;
    writeln!(out, "\npaper (Fig. 8): overlapping helps YASK little at small subdomains because")?;
    writeln!(out, "packing cannot be hidden; pack-free overlap hides the whole wire time while")?;
    writeln!(out, "interior compute lasts, and has nothing left to hide when it doesn't")
}

/// Artifact-format output (paper Appendix A.6): for each implementation,
/// the five metrics the original artifact's executables print —
/// `calc`, `pack`, `call`, `wait` as `[minimum, average, maximum]`
/// seconds per timestep across ranks, plus `perf` (overall throughput).
fn artifact_metrics(c: &mut Cells, out: &mut dyn Write) -> io::Result<()> {
    let n = 64usize;
    writeln!(out, "== Artifact metrics (paper Appendix A.6 format), {n}^3 per rank, 2x1x1 ranks ==\n")?;
    for method in [CpuMethod::Yask, CpuMethod::MpiTypes, CpuMethod::Layout, MEMMAP] {
        let mut cfg = ExperimentConfig::k1(method, n);
        cfg.steps = c.sweep.steps;
        cfg.ranks = vec![2, 1, 1];
        let r = run_experiment(&cfg);
        writeln!(out, "# {}", cfg.method.name())?;
        for (name, (min, avg, max)) in
            [("calc", r.summary.calc), ("pack", r.summary.pack), ("call", r.summary.call), ("wait", r.summary.wait)]
        {
            writeln!(out, "  {name} [{min:.6}, {avg:.6}, {max:.6}] s")?;
        }
        writeln!(out, "  perf {:.4} GStencil/s/rank\n", r.gstencil())?;
    }
    writeln!(out, "note: pack is identically [0, 0, 0] for the pack-free methods — the")?;
    writeln!(out, "artifact's observable definition of the paper's contribution")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Sweep;

    /// The smallest sweep every figure still renders on.
    fn smallest() -> Cells {
        Cells::new(Sweep { sizes: vec![16], k2_domain: 32, v2_domain: 32, steps: 1 })
    }

    fn render(c: &mut Cells, id: &str) -> String {
        let mut out = Vec::new();
        reproduce(&[id.to_string()], c, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn ids_are_the_binaries_reproduce_all_spawned() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        #[rustfmt::skip]
        assert_eq!(ids, [
            "tab01_message_counts", "fig01_breakdown", "fig04_layout_vs_basic",
            "fig08_k1_throughput", "fig09_k1_comm_time", "fig10_k1_compute_time",
            "fig11_k2_strong_scaling", "fig12_k2_decomposition", "fig13_v1_throughput",
            "fig14_v1_comm_time", "fig15_v1_compute_time", "tab02_padding_bandwidth",
            "fig16_v2_strong_scaling", "fig17_v2_decomposition", "fig18_pagesize",
            "ext_shift_vs_put", "ext_knl_calibrated", "ext_dimensionality", "ext_brick_size",
            "ext_message_trace", "ext_weak_scaling", "ext_overlap", "artifact_metrics",
        ]);
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());

        let mut out = Vec::new();
        reproduce(&["--list".to_string()], &mut smallest(), &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn unknown_id_is_an_error_naming_list() {
        let mut out = Vec::new();
        let args = ["fig09_k1_comm_time".to_string(), "fig99".to_string()];
        let err = reproduce(&args, &mut smallest(), &mut out).unwrap_err().to_string();
        assert!(err.contains("fig99") && err.contains("--list"), "{err}");
        assert!(out.is_empty(), "ids are checked before anything runs");
    }

    #[test]
    fn every_figure_renders_a_table() {
        let mut c = smallest();
        for f in &FIGURES {
            let text = render(&mut c, f.id);
            assert!(text.starts_with(&format!("\n##### {} #####\n\n== ", f.id)), "{text}");
            // A table is a dashed rule with at least one row under it;
            // the artifact block is `# method` sections instead.
            let lines: Vec<&str> = text.lines().collect();
            let rule = lines.iter().position(|l| l.len() > 8 && l.bytes().all(|b| b == b'-'));
            match rule {
                Some(at) => assert!(!lines[at + 1].trim().is_empty(), "{}: empty table", f.id),
                None => assert_eq!(text.matches("\n# ").count(), 4, "{}: {text}", f.id),
            }
        }
    }

    /// The K1 star-7 figures ask for 30 runs per subdomain size; 11
    /// distinct (method, page size) cells execute.
    #[test]
    fn k1_cells_are_requested_30_times_and_run_11() {
        let mut c = smallest();
        for id in [
            "fig01_breakdown", "fig04_layout_vs_basic", "fig08_k1_throughput", "fig09_k1_comm_time",
            "fig10_k1_compute_time", "fig18_pagesize", "ext_overlap", "ext_shift_vs_put",
        ] {
            render(&mut c, id);
        }
        assert_eq!((c.requested, c.executed), (30, 11));
    }

    /// Figures 8, 9 and 10 are three views of one run per cell: the
    /// printed throughput is the printed points / (calc + comm).
    #[test]
    fn figures_8_9_10_show_the_same_runs() {
        let mut c = smallest();
        let column = |text: &str, name: &str| -> f64 {
            let lines: Vec<&str> = text.lines().collect();
            let header = lines.iter().find(|l| l.starts_with("Subdomain")).unwrap();
            let at = header.split_whitespace().position(|h| h == name).unwrap();
            let row = lines.iter().find(|l| l.trim_start().starts_with("16^3")).unwrap();
            row.split_whitespace().nth(at).unwrap().parse().unwrap()
        };
        let (f8, f9, f10) = (
            render(&mut c, "fig08_k1_throughput"),
            render(&mut c, "fig09_k1_comm_time"),
            render(&mut c, "fig10_k1_compute_time"),
        );
        for m in ["MemMap", "YASK", "Layout", "MPI_Types"] {
            let step_ms = column(&f10, m) + column(&f9, m);
            let expect = 16f64.powi(3) / (step_ms * 1e-3) / 1e9;
            let shown = column(&f8, m);
            // Half a unit of the last printed digit, on both sides.
            let slack = 0.0005 + expect * 1e-4 / step_ms;
            assert!((shown - expect).abs() <= slack, "{m}: {shown} vs {expect} (±{slack})");
        }
    }
}
