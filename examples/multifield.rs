//! multifield: interleave several fields in one BrickStorage
//! (array-of-structure-of-array, paper Section 6) so a single exchange
//! moves all of them at once — the multi-physics pattern where one
//! simulation advances several coupled fields per timestep.
//!
//! Run with: `cargo run --release --example multifield`

use bricklib::prelude::*;

fn main() {
    let n = 32usize;
    let fields = 3;
    let decomp = BrickDecomp::<3>::new(
        [n; 3],
        8,
        BrickDims::cubic(8),
        fields,
        surface3d(),
        1,
    );
    let ex = Exchanger::layout(&decomp);
    println!(
        "{fields} interleaved fields, {n}^3 each: ONE exchange of {} messages moves {:.1} MiB",
        ex.stats().messages,
        ex.stats().payload_bytes as f64 / (1 << 20) as f64
    );

    // Compare with per-field exchanges: 3x the messages for the same
    // bytes.
    let single = BrickDecomp::<3>::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, surface3d());
    let ex1 = Exchanger::layout(&single);
    println!(
        "per-field alternative: {} messages x {fields} fields = {} messages for the same bytes\n",
        ex1.stats().messages,
        ex1.stats().messages * fields
    );

    let topo = CartTopo::new(&[1, 1, 1], true);
    let ok = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
        let info = decomp.brick_info();
        let mut cur = decomp.allocate();
        let mut nxt = decomp.allocate();

        // Three fields with distinct contents.
        for f in 0..fields {
            for z in 0..n {
                for y in 0..n {
                    for x in 0..n {
                        let off =
                            decomp.element_offset([x as isize, y as isize, z as isize], f);
                        cur.as_mut_slice()[off] =
                            (f + 1) as f64 * ((x + 2 * y + 3 * z) % 11) as f64;
                    }
                }
            }
        }

        let shape = StencilShape::star7_default();
        for _ in 0..4 {
            // One exchange refreshes the ghosts of every field.
            ex.exchange(ctx, &mut cur).unwrap();
            for f in 0..fields {
                ctx.time(Phase::Compute, |_| {
                    apply_bricks(&shape, info, &cur, &mut nxt, decomp.compute_mask(), f)
                });
            }
            std::mem::swap(&mut cur, &mut nxt);
        }

        // Fields must remain proportional (same init pattern scaled by
        // field index, same linear stencil).
        let probe = |f: usize| {
            cur.as_slice()[decomp.element_offset([5, 6, 7], f)]
        };
        let (a, b, c) = (probe(0), probe(1), probe(2));
        (b / a - 2.0).abs() < 1e-12 && (c / a - 3.0).abs() < 1e-12
    });
    assert!(ok[0], "interleaved fields must evolve independently");
    println!("fields evolved independently through shared exchanges ✓");
    println!(
        "timers: one {}-message exchange per step instead of {}",
        ex.stats().messages,
        ex.stats().messages * fields
    );
}
