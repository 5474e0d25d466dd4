//! Stencil application on bricked storage.
//!
//! Mirrors the paper's Figure 6 computation: iterate a list of brick
//! indices; within each brick run dense loops; accesses that step past a
//! brick face resolve through the adjacency list. The canonical 7-point
//! star takes a row-accumulate path (`star7_lanes`) in which one brick
//! row is one vector register — the moral equivalent of the brick
//! library's generated vector code. It is written once and compiled per
//! ISA level by [`crate::isa`]'s dispatch macro; no level enables `fma`,
//! so every level (and every register width) produces the same bits.
//!
//! [`apply_bricks`] is the one-shot form of [`crate::KernelPlan`], the
//! one kernel every run steps through. [`apply_bricks_serial`] and
//! [`apply_bricks_gather`] are reference kernels: tests hold the plan to
//! their bits, and `bench_compute` measures the plan against the gather.

use brick::{BrickInfo, BrickStorage, BrickView};

use crate::isa::{per_isa, BoundIsa};
use crate::pool;
use crate::shape::StencilShape;

/// How many bricks `compute` selects: a kernel call's work is this
/// times the elements per brick.
pub(crate) fn selected(compute: &[bool]) -> usize {
    compute.iter().filter(|&&c| c).count()
}

/// The bricks of one dealt run that `compute` selects, as `(brick id,
/// brick slab)`: `run` holds whole `step`-long slabs, the first of brick
/// `first`.
#[inline(always)]
pub(crate) fn run_bricks<'a>(
    run: &'a mut [f64],
    step: usize,
    first: usize,
    compute: &'a [bool],
) -> impl Iterator<Item = (usize, &'a mut [f64])> {
    (first..).zip(run.chunks_exact_mut(step)).filter(|(b, _)| compute[*b])
}

/// Apply `shape` to `field` of every brick selected by `compute[b]`,
/// reading `input` and writing `output` (same geometry). Sequential
/// reference implementation.
pub fn apply_bricks_serial(
    shape: &StencilShape,
    info: &BrickInfo<3>,
    input: &BrickStorage,
    output: &mut BrickStorage,
    compute: &[bool],
    field: usize,
) {
    assert_eq!(compute.len(), info.bricks());
    let view = BrickView::new(info, input, field);
    let bd = info.brick_dims();
    let [bx, by, bz] = bd.extents();
    for b in 0..info.bricks() as u32 {
        if !compute[b as usize] {
            continue;
        }
        for z in 0..bz {
            for y in 0..by {
                for x in 0..bx {
                    let mut acc = 0.0;
                    for &(o, c) in shape.taps() {
                        acc += c * view.get(
                            b,
                            [
                                x as isize + o[0] as isize,
                                y as isize + o[1] as isize,
                                z as isize + o[2] as isize,
                            ],
                        );
                    }
                    output.field_mut(b, field)[bd.flatten([x, y, z])] = acc;
                }
            }
        }
    }
}

/// One-shot application: compile a [`crate::KernelPlan`] for `shape`
/// and `field` of `output`'s geometry and execute it once, dealing the
/// selected bricks over the kernel pool's threads. Bit-identical to
/// [`apply_bricks_serial`]; for bind-once/execute-many stepping keep
/// the plan instead.
pub fn apply_bricks(
    shape: &StencilShape,
    info: &BrickInfo<3>,
    input: &BrickStorage,
    output: &mut BrickStorage,
    compute: &[bool],
    field: usize,
) {
    crate::KernelPlan::new(info, shape, output.fields(), field).execute(input, output, compute)
}

/// Halo-gather reference kernel: each brick plus an `r`-deep halo is
/// gathered into a dense thread-local scratch block, then a dense tap
/// loop runs branch-free over every output element, accumulating in tap
/// order (bit-identical to [`apply_bricks_serial`] for any shape). It is
/// the baseline the [`crate::KernelPlan`] engine is benchmarked against
/// (`bench_compute`) and a fast oracle for tests.
pub fn apply_bricks_gather(
    shape: &StencilShape,
    info: &BrickInfo<3>,
    input: &BrickStorage,
    output: &mut BrickStorage,
    compute: &[bool],
    field: usize,
) {
    assert_eq!(compute.len(), info.bricks());
    assert!(field < output.fields());
    let bd = info.brick_dims();
    let [bx, by, bz] = bd.extents();
    let r = shape.radius();
    assert!(
        r <= bx && r <= by && r <= bz,
        "stencil radius exceeds brick extent"
    );
    let step = output.step();
    let elems = output.elements_per_brick();
    let field_base = field * elems;
    let in_data = input.as_slice();

    // Per-axis resolve tables: for a shifted coordinate `s = pos + r`
    // in `0 .. extent + 2r`, the (base-3 trit, wrapped local coordinate)
    // pair. Trit encoding matches `trits_to_code`: 0 in-brick, 1 the
    // positive neighbor, 2 the negative neighbor.
    let table = |e: usize| -> Vec<(usize, usize)> {
        (0..e + 2 * r)
            .map(|s| {
                let p = s as isize - r as isize;
                if p < 0 {
                    (2usize, (p + e as isize) as usize)
                } else if p >= e as isize {
                    (1usize, (p - e as isize) as usize)
                } else {
                    (0usize, p as usize)
                }
            })
            .collect()
    };
    let (tx, ty, tz) = (table(bx), table(by), table(bz));

    // Padded scratch geometry: the brick plus an r-deep halo gathered
    // into a dense local buffer, so the tap loop runs branch-free over
    // every output element (the generic-stencil analogue of the brick
    // library's vector-align code generation).
    let (px, py, pz) = (bx + 2 * r, by + 2 * r, bz + 2 * r);
    let deltas: Vec<(isize, f64)> = shape
        .taps()
        .iter()
        .map(|&(o, c)| {
            (
                o[0] as isize + o[1] as isize * px as isize + o[2] as isize * (px * py) as isize,
                c,
            )
        })
        .collect();

    pool::for_runs(output.as_mut_slice(), step, selected(compute) * elems, |first, run| {
        for (b, chunk) in run_bricks(run, step, first, compute) {
            // Thread-local grow-only scratch: sized on the thread's
            // first brick, reused allocation-free afterwards (the
            // gather below overwrites every element it reads).
            crate::arena::with_scratch(px * py * pz, |scratch| {
                let b = b as u32;
                let out = &mut chunk[field_base..field_base + elems];
                let adj = info.adjacency_row(b);
                let base = b as usize * step + field_base;
                let in_brick = &in_data[base..base + elems];

                // Gather brick + halo. In-brick rows are memcpy; halo
                // elements resolve through the per-axis tables.
                for (sz, &(cz, lz)) in tz.iter().enumerate() {
                    for (sy, &(cy, ly)) in ty.iter().enumerate() {
                        let dst_row = (sz * py + sy) * px;
                        if cz == 0 && cy == 0 {
                            // Row interior is contiguous in the brick.
                            let src_row = (lz * by + ly) * bx;
                            scratch[dst_row + r..dst_row + r + bx]
                                .copy_from_slice(&in_brick[src_row..src_row + bx]);
                            for sx in (0..r).chain(px - r..px) {
                                let (cx, lx) = tx[sx];
                                let code = cx + 3 * (cy + 3 * cz);
                                let nb = adj[code];
                                debug_assert_ne!(nb, brick::NO_BRICK);
                                scratch[dst_row + sx] = in_data
                                    [nb as usize * step + field_base + lx + bx * (ly + by * lz)];
                            }
                        } else {
                            for (sx, &(cx, lx)) in tx.iter().enumerate() {
                                let code = cx + 3 * (cy + 3 * cz);
                                let local = lx + bx * (ly + by * lz);
                                let v = if code == 0 {
                                    in_brick[local]
                                } else {
                                    let nb = adj[code];
                                    debug_assert_ne!(
                                        nb,
                                        brick::NO_BRICK,
                                        "stencil crossed a missing neighbor"
                                    );
                                    in_data[nb as usize * step + field_base + local]
                                };
                                scratch[dst_row + sx] = v;
                            }
                        }
                    }
                }

                // Dense tap loop over the padded buffer.
                for z in 0..bz {
                    for y in 0..by {
                        let srow = ((z + r) * py + (y + r)) * px + r;
                        let orow = (z * by + y) * bx;
                        for (x, o) in out[orow..orow + bx].iter_mut().enumerate() {
                            let idx = srow + x;
                            let mut acc = 0.0;
                            for &(d, c) in &deltas {
                                acc += c * scratch[(idx as isize + d) as usize];
                            }
                            *o = acc;
                        }
                    }
                }
            });
        }
    });
}

/// Adjacency codes of the six face neighbors in tap order (−x, +x, −y,
/// +y, −z, +z; trit encoding +1 -> 1, −1 -> 2, axis 0 least significant).
const FACES: [usize; 6] = [2, 1, 6, 3, 18, 9];

/// 7-point brick kernel, and the star7 execution path of
/// [`crate::KernelPlan`]: the `selected` bricks `compute` marks are
/// dealt over [`crate::pool`] in runs, and each run goes through
/// [`star7_run`] at `isa`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn star7_bricks(
    isa: BoundIsa,
    c: &[f64; 7],
    info: &BrickInfo<3>,
    input: &BrickStorage,
    output: &mut BrickStorage,
    compute: &[bool],
    field: usize,
    selected: usize,
) {
    let dims = info.brick_dims().extents();
    assert!(dims.iter().all(|&e| e >= 2), "star7 kernel needs bricks of extent >= 2");
    let (step, elems) = (output.step(), output.elements_per_brick());
    let in_data = input.as_slice();
    pool::for_runs(output.as_mut_slice(), step, selected * elems, |first, run| {
        star7_run(isa, c, info, in_data, compute, step, field * elems, first, run)
    });
}

per_isa! {
    /// One run of [`star7_bricks`]: each selected brick of `run` (whose
    /// first brick is `first`) runs [`star7_brick`], with a whole brick
    /// row per register for the cubic 4³/8³/16³ bricks and one lane at a
    /// time otherwise.
    #[allow(clippy::too_many_arguments)]
    fn star7_run(
        c: &[f64; 7],
        info: &BrickInfo<3>,
        in_data: &[f64],
        compute: &[bool],
        step: usize,
        field_base: usize,
        first: usize,
        run: &mut [f64],
    ) {
        let dims = info.brick_dims().extents();
        let elems = info.brick_dims().elements();
        for (b, chunk) in run_bricks(run, step, first, compute) {
            let out = &mut chunk[field_base..field_base + elems];
            let adj = info.adjacency_row(b as u32);
            let slab = |nb: u32| &in_data[nb as usize * step + field_base..][..elems];
            let cur = slab(b as u32);
            let faces = FACES.map(|code| slab(adj[code]));
            match dims {
                [4, 4, 4] => star7_brick::<4>(c, [4; 3], out, cur, faces),
                [8, 8, 8] => star7_brick::<8>(c, [8; 3], out, cur, faces),
                [16, 16, 16] => star7_brick::<16>(c, [16; 3], out, cur, faces),
                _ => star7_brick::<1>(c, dims, out, cur, faces),
            }
        }
    }
}

/// `W` consecutive elements of `slab` starting at `at`, as a fixed row.
#[inline(always)]
fn lanes<const W: usize>(slab: &[f64], at: usize) -> &[f64; W] {
    slab[at..at + W].try_into().expect("a slice of W elements")
}

/// The 7-point star over `W` lanes in row-accumulate form: `acc =
/// c[0]·rows[0]`, then one `acc += c[k]·rows[k]` pass per tap — per
/// lane the serial reference's op sequence, so the result is
/// bit-identical at every width. Written as per-tap loops on purpose: a
/// single expression over a fixed-width row is fully unrolled into
/// scalar ops instead of being widened.
#[inline(always)]
fn star7_lanes<const W: usize>(c: &[f64; 7], rows: [&[f64; W]; 7]) -> [f64; W] {
    let mut acc = [0.0f64; W];
    for (a, &v) in acc.iter_mut().zip(rows[0]) {
        *a = c[0] * v;
    }
    for (row, &k) in rows[1..].iter().zip(&c[1..]) {
        for (a, &v) in acc.iter_mut().zip(*row) {
            *a += k * v;
        }
    }
    acc
}

/// One brick of the 7-point star. A brick row is `bx / W` segments of
/// `W` lanes — one segment, one register, for the monomorphized cubic
/// bricks; `W = 1` is the fallback for any other shape — and every
/// [`star7_lanes`] operand is a whole segment: the ±y/±z ones are
/// segments of this brick or of a face neighbor, and the two x-shifted
/// ones are the segment's window moved one element, with the ±x
/// neighbor's column element put in lane 0 of a row's first segment /
/// lane `W − 1` of its last, so no scalar edge code remains.
#[inline(always)]
fn star7_brick<const W: usize>(
    c: &[f64; 7],
    [bx, by, bz]: [usize; 3],
    out: &mut [f64],
    cur: &[f64],
    faces: [&[f64]; 6],
) {
    let plane = bx * by;
    let elems = plane * bz;
    // Slab lengths checked once here, planes once per z, rows once per
    // y: with constant extents the per-segment checks below fold away.
    let (out, cur) = (&mut out[..elems], &cur[..elems]);
    let [nxm, nxp, nym, nyp, nzm, nzp] = faces.map(|s| &s[..elems]);
    // The x-shifted windows of the slab's first and last segment would
    // leave it; these stand in (their edge lane is replaced anyway).
    let head: [f64; W] = std::array::from_fn(|i| cur[i.saturating_sub(1)]);
    let tail: [f64; W] = std::array::from_fn(|i| cur[(elems - W + i + 1).min(elems - 1)]);
    for z in 0..bz {
        let base = z * plane;
        let pc = &cur[base..base + plane];
        let po = &mut out[base..base + plane];
        let pzm = if z > 0 { &cur[base - plane..base] } else { &nzm[elems - plane..] };
        let pzp = if z + 1 < bz { &cur[base + plane..base + 2 * plane] } else { &nzp[..plane] };
        let (pym, pyp) = (&nym[base..base + plane], &nyp[base..base + plane]);
        let (pxm, pxp) = (&nxm[base..base + plane], &nxp[base..base + plane]);
        for y in 0..by {
            let r = y * bx;
            let rym = if y > 0 { &pc[r - bx..r] } else { &pym[plane - bx..] };
            let ryp = if y + 1 < by { &pc[r + bx..r + 2 * bx] } else { &pyp[..bx] };
            for x0 in (0..bx).step_by(W) {
                let (i, at) = (r + x0, base + r + x0);
                let mut xm: [f64; W] = *if at > 0 { lanes(cur, at - 1) } else { &head };
                if x0 == 0 {
                    xm[0] = pxm[r + bx - 1];
                }
                let mut xp: [f64; W] = *if at + W < elems { lanes(cur, at + 1) } else { &tail };
                if x0 + W == bx {
                    xp[W - 1] = pxp[r];
                }
                let rows = [
                    lanes(pc, i),
                    &xm,
                    &xp,
                    lanes(rym, x0),
                    lanes(ryp, x0),
                    lanes(pzm, i),
                    lanes(pzp, i),
                ];
                po[i..i + W].copy_from_slice(&star7_lanes(c, rows));
            }
        }
    }
}

/// GStencil/s throughput metric used throughout the paper's figures.
pub fn gstencil_per_sec(points: u64, seconds: f64) -> f64 {
    points as f64 / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick::{BrickDims, BrickGrid};

    fn setup(
        gdim: usize,
        bdim: usize,
    ) -> (BrickGrid<3>, BrickInfo<3>, BrickStorage, BrickStorage) {
        let grid = BrickGrid::<3>::lexicographic([gdim; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(bdim), &grid);
        let a = info.allocate(1);
        let b = info.allocate(1);
        (grid, info, a, b)
    }

    fn fill(grid: &BrickGrid<3>, st: &mut BrickStorage, bdim: usize, f: impl Fn(usize, usize, usize) -> f64) {
        let n = grid.dims()[0] * bdim;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let b = grid.brick_at([x / bdim, y / bdim, z / bdim]);
                    let off = ((z % bdim) * bdim + (y % bdim)) * bdim + (x % bdim);
                    st.field_mut(b, 0)[off] = f(x, y, z);
                }
            }
        }
    }

    /// Brick stencil must agree exactly with the array stencil on a
    /// periodic domain (same FP order is not guaranteed, so compare with
    /// a tight tolerance).
    #[test]
    fn matches_array_reference_7pt() {
        let (grid, info, mut input, mut output) = setup(3, 4);
        let n = 12;
        fill(&grid, &mut input, 4, |x, y, z| ((x * 7 + y * 13 + z * 29) % 17) as f64);

        let shape = StencilShape::star7_default();
        let compute = vec![true; info.bricks()];
        apply_bricks(&shape, &info, &input, &mut output, &compute, 0);

        let mut arr = crate::array::ArrayGrid::new([n; 3], 1);
        arr.fill_interior(|x, y, z| ((x * 7 + y * 13 + z * 29) % 17) as f64);
        arr.fill_ghost_periodic_self();
        let mut arr_out = crate::array::ArrayGrid::new([n; 3], 1);
        arr.apply_into(&shape, &mut arr_out);

        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let b = grid.brick_at([x / 4, y / 4, z / 4]);
                    let off = ((z % 4) * 4 + (y % 4)) * 4 + (x % 4);
                    let got = output.field(b, 0)[off];
                    let want = arr_out.get(x as isize, y as isize, z as isize);
                    assert!(
                        (got - want).abs() < 1e-12,
                        "mismatch at ({x},{y},{z}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_array_reference_125pt() {
        let (grid, info, mut input, mut output) = setup(3, 4);
        let n = 12;
        fill(&grid, &mut input, 4, |x, y, z| ((x * 3 + y * 5 + z * 11) % 23) as f64);

        let shape = StencilShape::cube125_default();
        let compute = vec![true; info.bricks()];
        apply_bricks(&shape, &info, &input, &mut output, &compute, 0);

        let mut arr = crate::array::ArrayGrid::new([n; 3], 2);
        arr.fill_interior(|x, y, z| ((x * 3 + y * 5 + z * 11) % 23) as f64);
        arr.fill_ghost_periodic_self();
        let mut arr_out = crate::array::ArrayGrid::new([n; 3], 2);
        arr.apply_into(&shape, &mut arr_out);

        let mut max_err = 0.0f64;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let b = grid.brick_at([x / 4, y / 4, z / 4]);
                    let off = ((z % 4) * 4 + (y % 4)) * 4 + (x % 4);
                    let got = output.field(b, 0)[off];
                    let want = arr_out.get(x as isize, y as isize, z as isize);
                    max_err = max_err.max((got - want).abs());
                }
            }
        }
        assert!(max_err < 1e-12, "max_err = {max_err}");
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (grid, info, mut input, mut out_par) = setup(2, 4);
        fill(&grid, &mut input, 4, |x, y, z| (x as f64).sin() + (y * z) as f64);
        let mut out_ser = info.allocate(1);
        let shape = StencilShape::star7_default();
        let compute = vec![true; info.bricks()];
        apply_bricks(&shape, &info, &input, &mut out_par, &compute, 0);
        apply_bricks_serial(&shape, &info, &input, &mut out_ser, &compute, 0);
        assert_eq!(out_par.as_slice(), out_ser.as_slice());
    }

    /// The gather fallback accumulates in tap order, so it is
    /// bit-identical to the serial reference for any shape.
    #[test]
    fn gather_bit_identical_to_serial() {
        let (grid, info, mut input, mut out_g) = setup(2, 4);
        fill(&grid, &mut input, 4, |x, y, z| ((x * 13 + y * 7 + z * 3) % 19) as f64 - 9.0);
        let mut out_s = info.allocate(1);
        let compute = vec![true; info.bricks()];
        for shape in [StencilShape::star13_default(), StencilShape::cube125_default()] {
            apply_bricks_gather(&shape, &info, &input, &mut out_g, &compute, 0);
            apply_bricks_serial(&shape, &info, &input, &mut out_s, &compute, 0);
            assert_eq!(out_g.as_slice(), out_s.as_slice());
        }
    }

    /// The one-shot cube125 application, at brick extents down to the
    /// stencil's radius, matches the serial reference bit for bit.
    #[test]
    fn cube125_symmetric_matches_serial() {
        for bdim in [2usize, 4, 8] {
            let (grid, info, mut input, mut out_f) = setup(2, bdim);
            fill(&grid, &mut input, bdim, |x, y, z| {
                ((x * 13 + y * 7 + z * 3) % 19) as f64 - 9.0
            });
            let mut out_s = info.allocate(1);
            let compute = vec![true; info.bricks()];
            let shape = StencilShape::cube125_default();
            apply_bricks(&shape, &info, &input, &mut out_f, &compute, 0);
            apply_bricks_serial(&shape, &info, &input, &mut out_s, &compute, 0);
            assert_eq!(out_f.as_slice(), out_s.as_slice(), "bdim {bdim}");
        }
    }

    #[test]
    fn compute_mask_skips_bricks() {
        let (_grid, info, mut input, mut output) = setup(2, 4);
        input.fill(1.0);
        output.fill(-7.0);
        let mut compute = vec![true; info.bricks()];
        compute[3] = false;
        apply_bricks(
            &StencilShape::star7_default(),
            &info,
            &input,
            &mut output,
            &compute,
            0,
        );
        // Skipped brick untouched, others overwritten with 1.0 (sum of
        // normalized coefficients over a constant field).
        assert!(output.field(3, 0).iter().all(|&v| v == -7.0));
        assert!(output.field(0, 0).iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn multifield_independence() {
        let grid = BrickGrid::<3>::lexicographic([2; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(4), &grid);
        let mut input = info.allocate(2);
        let mut output = info.allocate(2);
        for b in 0..info.bricks() as u32 {
            input.field_mut(b, 0).fill(1.0);
            input.field_mut(b, 1).fill(5.0);
        }
        let compute = vec![true; info.bricks()];
        let shape = StencilShape::star7_default();
        apply_bricks(&shape, &info, &input, &mut output, &compute, 0);
        apply_bricks(&shape, &info, &input, &mut output, &compute, 1);
        assert!((output.field(1, 0)[0] - 1.0).abs() < 1e-12);
        assert!((output.field(1, 1)[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gstencil_metric() {
        assert_eq!(gstencil_per_sec(2_000_000_000, 2.0), 1.0);
    }
}
