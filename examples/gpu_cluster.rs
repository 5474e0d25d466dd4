//! gpu_cluster: the paper's Section 5 GPU data-movement policies on a
//! modeled Summit node — CUDA-Aware GPUDirect vs Unified-Memory
//! migration vs datatype walks, driven by the *real* exchange geometry
//! of a brick decomposition.
//!
//! Run with: `cargo run --release --example gpu_cluster`

use bricklib::prelude::*;
use packfree::exchange::ExchangeStats;

fn main() {
    let p = GpuPlatform::summit();
    println!(
        "platform: {} ({:.1} TF/s, {:.0} GB/s HBM), {} ({:.0} GB/s), 64 KiB UM pages\n",
        p.device.name,
        p.device.peak_flops / 1e12,
        p.device.mem_bandwidth / 1e9,
        p.link.name,
        p.link.bandwidth / 1e9,
    );

    let n = 64usize;
    // Real exchange schedules provide the traffic numbers.
    let decomp = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let layout_stats = Exchanger::layout(&decomp).stats();
    let dm = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, surface3d(), memview::PAGE_64K);
    let memmap_stats = Exchanger::memmap(&dm).stats();
    let grid = ArrayGrid::new([n; 3], 8);
    let types_stats = ExchangeStats {
        messages: 26,
        payload_bytes: grid.exchange_bytes(),
        wire_bytes: grid.exchange_bytes(),
        region_instances: 26,
    };

    println!("{n}^3 subdomain: Layout {} msgs / {:.1} MiB; MemMap {} msgs / {:.1} MiB (+{:.0}% padding)\n",
        layout_stats.messages, layout_stats.wire_bytes as f64 / (1 << 20) as f64,
        memmap_stats.messages, memmap_stats.wire_bytes as f64 / (1 << 20) as f64,
        memmap_stats.padding_overhead_percent());

    let shape = StencilShape::star7_default();
    for (method, stats) in [
        (GpuMethod::LayoutCA, layout_stats),
        (GpuMethod::LayoutUM, layout_stats),
        (GpuMethod::MemMapUM, memmap_stats),
        (GpuMethod::MpiTypesUM, types_stats),
    ] {
        let w = GpuWorkload {
            points: (n * n * n) as u64,
            flops_per_point: shape.flops_per_point(),
            stats,
        };
        let t = estimate_gpu_step(method, &w, &p);
        println!(
            "{:>13}: step {:>8.3} ms | calc {:>7.3} ms | comm {:>7.3} ms | {:>6.2} GStencil/s",
            method.name(),
            t.total() * 1e3,
            t.calc * 1e3,
            t.comm() * 1e3,
            (n * n * n) as f64 / t.total() / 1e9,
        );
    }

    println!("\npaper: GPUDirect (Layout_CA) avoids all staging; MemMap_UM trades padding for");
    println!("clean page-aligned migration; datatype walks over UM memory are catastrophic");
}
