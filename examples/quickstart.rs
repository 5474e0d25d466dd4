//! Quickstart: build a brick decomposition, run a pack-free ghost-zone
//! exchange, and apply one 7-point stencil step — the minimal version
//! of the paper's Figure 7 workflow.
//!
//! Run with: `cargo run --release --example quickstart`

use bricklib::prelude::*;

fn main() {
    // A 32³ subdomain with an 8-wide ghost zone of 8³ bricks, physically
    // ordered by the optimal 42-message surface3d layout.
    let decomp = BrickDecomp::<3>::layout_mode([32; 3], 8, BrickDims::cubic(8), 1, surface3d());
    println!(
        "decomposition: {} bricks ({} interior, {} surface regions, {} ghost groups)",
        decomp.bricks(),
        decomp.interior().len(),
        decomp.surface_chunks().len(),
        decomp.ghost_groups().len(),
    );

    let exchanger = Exchanger::layout(&decomp);
    println!(
        "exchange plan: {} messages to 26 neighbors, {} KiB payload, zero packing",
        exchanger.stats().messages,
        exchanger.stats().payload_bytes / 1024,
    );

    // One rank, periodic in all directions (every neighbor is itself) —
    // the smallest possible "cluster".
    let topo = CartTopo::new(&[1, 1, 1], true);
    let results = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
        let info = decomp.brick_info();
        let mut cur = decomp.allocate();
        let mut nxt = decomp.allocate();

        // Initialize the interior with a smooth bump.
        for z in 0..32i64 {
            for y in 0..32i64 {
                for x in 0..32i64 {
                    let off = decomp.element_offset([x as isize, y as isize, z as isize], 0);
                    let r2 = ((x - 16).pow(2) + (y - 16).pow(2) + (z - 16).pow(2)) as f64;
                    cur.as_mut_slice()[off] = (-r2 / 64.0).exp();
                }
            }
        }

        // Compile the stencil once; every step replays the plan.
        let plan = KernelPlan::new(info, &StencilShape::star7_default(), 1, 0);
        for _step in 0..10 {
            // Pack-free exchange: every message is a contiguous brick
            // range; ghosts land in place.
            exchanger.exchange(ctx, &mut cur).unwrap();
            ctx.time(Phase::Compute, |_| plan.execute(&cur, &mut nxt, decomp.compute_mask()));
            std::mem::swap(&mut cur, &mut nxt);
        }
        ctx.timers()
    });

    let t = results[0].per_step(10);
    println!(
        "per step: calc {:.3} ms | pack {:.3} ms | call {:.3} ms | wait {:.3} ms",
        t.calc * 1e3,
        t.pack * 1e3,
        t.call * 1e3,
        t.wait * 1e3
    );
    assert_eq!(t.pack, 0.0, "pack-free means zero pack time");
    println!("pack time is exactly zero — that is the paper's contribution.");
}
