//! varcoef_diffusion: heat flow through a spatially varying medium — a
//! variable-coefficient 7-point stencil whose per-point coefficients
//! live as interleaved fields in the same bricks as the state (paper
//! Section 6's array-of-structure-of-array), so a single pack-free
//! exchange refreshes state and coefficients together.
//!
//! Run with: `cargo run --release --example varcoef_diffusion`

use bricklib::prelude::*;
use stencil::{VarCoefPlan, VARCOEF_FIELDS};

fn main() {
    let n = 32usize;
    let decomp = BrickDecomp::<3>::new(
        [n; 3],
        8,
        BrickDims::cubic(8),
        VARCOEF_FIELDS,
        surface3d(),
        1,
    );
    let ex = Exchanger::layout(&decomp);
    println!(
        "variable-coefficient diffusion on {n}^3: {} interleaved fields, {} messages moving {:.1} MiB per exchange",
        VARCOEF_FIELDS,
        ex.stats().messages,
        ex.stats().payload_bytes as f64 / (1 << 20) as f64,
    );

    let topo = CartTopo::new(&[1, 1, 1], true);
    let (initial, finals) = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
        let info = decomp.brick_info();
        let mask = decomp.compute_mask();
        let mut cur = decomp.allocate();
        let mut nxt = decomp.allocate();

        // State: a hot block in the corner. Coefficients: diffusion is
        // 3x faster in the x > n/2 half (normalized so every point's
        // coefficients sum to 1 — a convex average, hence bounded).
        packfree::fields::fill_interior(&decomp, &mut cur, 0, |c| {
            if c[0] < 8 && c[1] < 8 && c[2] < 8 { 1.0 } else { 0.0 }
        });
        for (f, base) in [(1usize, 0.4), (2, 0.1), (3, 0.1), (4, 0.1), (5, 0.1), (6, 0.1), (7, 0.1)]
        {
            let (fi, bv) = (f, base);
            packfree::fields::fill_interior(&decomp, &mut cur, fi, move |c| {
                // Faster mixing (flatter weights) in the right half.
                if c[0] >= 16 {
                    if fi == 1 { 0.16 } else { 0.14 }
                } else {
                    bv
                }
            });
        }
        let initial = packfree::fields::interior_sum(&decomp, &cur, 0);

        // Bind the variable-coefficient kernel plan once; the timestep
        // loop below only replays it.
        let plan = VarCoefPlan::new(info, VARCOEF_FIELDS);
        for _ in 0..20 {
            ex.exchange(ctx, &mut cur).unwrap(); // one exchange, all 8 fields
            ctx.time(Phase::Compute, |_| plan.execute(&cur, &mut nxt, mask));
            // Coefficients are static: carry them into the next buffer.
            for b in 0..decomp.bricks() as u32 {
                for f in 1..VARCOEF_FIELDS {
                    let src = cur.field(b, f).to_vec();
                    nxt.field_mut(b, f).copy_from_slice(&src);
                }
            }
            std::mem::swap(&mut cur, &mut nxt);
        }
        let fin = packfree::fields::interior_sum(&decomp, &cur, 0);
        // Max must stay within [0, 1]: convex averaging.
        let max = (0..decomp.bricks() as u32)
            .filter(|&b| mask[b as usize])
            .flat_map(|b| cur.field(b, 0).to_vec())
            .fold(f64::NEG_INFINITY, f64::max);
        (initial, (fin, max))
    })[0];

    let (fin, max) = finals;
    println!("total heat: initial {initial:.3} -> final {fin:.3}");
    println!("max temperature after 20 steps: {max:.4}");
    // A spatially-varying convex average is row-stochastic (each output
    // is a convex combination), so the field stays in [0, 1] — but it
    // is not column-stochastic, so the *sum* drifts slightly; both are
    // correct physics for this discretization.
    assert!(max <= 1.0 + 1e-12 && max > 0.0, "maximum principle violated");
    assert!(fin > 0.0 && fin < 2.0 * initial, "field diverged");
    println!("\nmaximum principle held; one pack-free exchange per step moved the state");
    println!("plus all 7 coefficient fields");
}
