//! Property-based kernel equivalence: for *random* stencil shapes
//! (arbitrary taps within radius 2), the brick kernel must agree with
//! the array kernel on a periodic domain — the layout-agnosticism the
//! paper's Figure 6 promises, for every stencil, not just the two
//! proxies.

mod common;

use brick::{BrickDims, BrickGrid, BrickInfo};
use common::*;
use stencil::{apply_bricks, ArrayGrid, KernelPlan, StencilShape};

/// Up to 12 taps with offsets in [-2, 2]^3 and small coefficients;
/// always includes the center tap so the shape is non-degenerate.
fn arb_shape(rng: &mut StdRng) -> StencilShape {
    let mut v: Vec<([i8; 3], f64)> = vec![([0, 0, 0], 1.0)];
    for _ in 0..rng.gen_range(1usize..12) {
        let o = [0; 3].map(|_| int_in(rng, -2, 2) as i8);
        let c = f64_in(rng, -2.0, 2.0);
        // Avoid duplicate offsets (coefficients would need summing;
        // keep the generator simple).
        if !v.iter().any(|(seen, _)| *seen == o) {
            v.push((o, c));
        }
    }
    StencilShape::new(v)
}

#[test]
fn brick_kernel_matches_array_for_any_shape() {
    cases("brick_kernel_matches_array_for_any_shape", 24, |rng| {
        let shape = arb_shape(rng);
        let seed = rng.gen_range(0u64..1000);
        let n = 12usize;
        let bs = 4usize;
        let val = |x: usize, y: usize, z: usize| {
            (((x as u64 * 31 + y as u64 * 17 + z as u64 * 7 + seed) % 23) as f64) / 4.0
        };

        // Array reference.
        let mut arr = ArrayGrid::new([n; 3], 2);
        arr.fill_interior(val);
        arr.fill_ghost_periodic_self();
        let mut arr_out = ArrayGrid::new([n; 3], 2);
        arr.apply_into(&shape, &mut arr_out);

        // Brick path.
        let grid = BrickGrid::<3>::lexicographic([n / bs; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(bs), &grid);
        let mut input = info.allocate(1);
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let b = grid.brick_at([x / bs, y / bs, z / bs]);
                    input.field_mut(b, 0)[((z % bs) * bs + y % bs) * bs + x % bs] = val(x, y, z);
                }
            }
        }
        let mut output = info.allocate(1);
        let mask = vec![true; info.bricks()];
        apply_bricks(&shape, &info, &input, &mut output, &mask, 0);

        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let b = grid.brick_at([x / bs, y / bs, z / bs]);
                    let got = output.field(b, 0)[((z % bs) * bs + y % bs) * bs + x % bs];
                    let want = arr_out.get(x as isize, y as isize, z as isize);
                    assert!((got - want).abs() < 1e-11, "({x},{y},{z}): {got} vs {want}");
                }
            }
        }
    });
}

/// The precompiled plan engine is *bit-identical* to the serial
/// element-at-a-time reference for any shape, any brick size, and
/// any compute mask — including masks selecting only boundary
/// bricks, where every row leans on neighbor-base segments.
#[test]
fn plan_bit_identical_for_any_shape_size_mask() {
    cases("plan_bit_identical_for_any_shape_size_mask", 24, |rng| {
        let shape = arb_shape(rng);
        let bs = pick(rng, &[4usize, 8, 16]);
        let seed = rng.gen_range(0u64..1000);
        let grid = BrickGrid::<3>::lexicographic([2; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(bs), &grid);
        let mut input = info.allocate(1);
        for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as u64 * 2654435761 + seed) % 97) as f64 / 7.0;
        }
        // Sparse masks exercise rows whose neighbors are still present
        // (periodic grid: adjacency is total); "boundary only" keeps the
        // corner brick alone, the worst case for segment crossings.
        let boundary_only = rng.gen_bool(0.5);
        let mask: Vec<bool> = (0..info.bricks())
            .map(|b| if boundary_only { b == 7 } else { rng.gen_bool(0.5) })
            .collect();
        let mut planned = info.allocate(1);
        let mut ser = info.allocate(1);
        // Sentinel in masked-off bricks: the plan must not touch them.
        planned.fill(-42.0);
        ser.fill(-42.0);
        let plan = KernelPlan::new(&info, &shape, 1, 0);
        plan.execute(&input, &mut planned, &mask);
        stencil::apply_bricks_serial(&shape, &info, &input, &mut ser, &mask, 0);
        assert_eq!(planned.as_slice(), ser.as_slice());
    });
}

/// Same bit-identity for the paper's two proxies specifically (the
/// star7 fast path and the cube125 segment path), across brick
/// sizes: every (size, proxy) pair, four input seeds each.
#[test]
fn plan_bit_identical_for_proxies() {
    cases("plan_bit_identical_for_proxies", 4, |rng| {
        for bs in [4usize, 8, 16] {
            for shape in [StencilShape::star7_default(), StencilShape::cube125_default()] {
                let seed = rng.gen_range(0u64..1000);
                let grid = BrickGrid::<3>::lexicographic([3, 2, 2], true);
                let info = BrickInfo::from_grid(BrickDims::cubic(bs), &grid);
                let mut input = info.allocate(1);
                for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                    *v = ((i as u64 * 40503 + seed * 31) % 89) as f64 / 8.0;
                }
                let mask = vec![true; info.bricks()];
                let mut planned = info.allocate(1);
                let mut ser = info.allocate(1);
                let plan = KernelPlan::new(&info, &shape, 1, 0);
                plan.execute(&input, &mut planned, &mask);
                stencil::apply_bricks_serial(&shape, &info, &input, &mut ser, &mask, 0);
                assert_eq!(planned.as_slice(), ser.as_slice(), "bs {bs} seed {seed}");
            }
        }
    });
}

/// The serial reference and the parallel kernel agree bit-for-bit.
#[test]
fn parallel_equals_serial() {
    cases("parallel_equals_serial", 24, |rng| {
        let shape = arb_shape(rng);
        let grid = BrickGrid::<3>::lexicographic([2; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(4), &grid);
        let mut input = info.allocate(1);
        for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
            *v = ((i * 2654435761) % 97) as f64 / 7.0;
        }
        let mask = vec![true; info.bricks()];
        let mut par = info.allocate(1);
        let mut ser = info.allocate(1);
        apply_bricks(&shape, &info, &input, &mut par, &mask, 0);
        stencil::apply_bricks_serial(&shape, &info, &input, &mut ser, &mask, 0);
        let max = par
            .as_slice()
            .iter()
            .zip(ser.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max < 1e-12, "max diff {max}");
    });
}
