//! Lexicographic array grid with ghost rim — the baseline data structure
//! ("YASK-like"): computation over a contiguous i-j-k array, halo
//! exchange via explicit pack/unpack of the 26 surface regions.

use std::ops::Range;

use brick::HeapBacking;
use layout::Dir;

use crate::isa::{per_isa, BoundIsa, Isa};
use crate::pool;
use crate::shape::StencilShape;

/// A 3D domain stored as one lexicographic array with a `ghost`-wide rim,
/// in the same pooled, line-aligned heap buffer as a brick grid
/// ([`brick::HeapBacking`]), so Fig 10 compares like with like.
#[derive(Clone, Debug)]
pub struct ArrayGrid {
    n: [usize; 3],
    ghost: usize,
    ext: [usize; 3],
    data: HeapBacking,
}

impl ArrayGrid {
    /// Zero-filled grid of interior extents `n` with ghost width `ghost`.
    pub fn new(n: [usize; 3], ghost: usize) -> ArrayGrid {
        assert!(n.iter().all(|&d| d >= 1));
        let ext = [n[0] + 2 * ghost, n[1] + 2 * ghost, n[2] + 2 * ghost];
        ArrayGrid { n, ghost, ext, data: HeapBacking::new(ext[0] * ext[1] * ext[2]) }
    }

    /// Interior extents.
    pub fn interior(&self) -> [usize; 3] {
        self.n
    }

    /// Ghost width.
    pub fn ghost(&self) -> usize {
        self.ghost
    }

    /// Raw offset of interior-frame coordinates (each axis in
    /// `-ghost .. n+ghost`).
    #[inline]
    pub fn offset(&self, x: isize, y: isize, z: isize) -> usize {
        let g = self.ghost as isize;
        debug_assert!(x >= -g && (x as i64) < (self.n[0] + self.ghost) as i64);
        let (ex, ey) = (self.ext[0], self.ext[1]);
        ((z + g) as usize * ey + (y + g) as usize) * ex + (x + g) as usize
    }

    /// Read an element (interior frame).
    #[inline]
    pub fn get(&self, x: isize, y: isize, z: isize) -> f64 {
        self.data[self.offset(x, y, z)]
    }

    /// Write an element (interior frame).
    #[inline]
    pub fn set(&mut self, x: isize, y: isize, z: isize, v: f64) {
        let o = self.offset(x, y, z);
        self.data[o] = v;
    }

    /// Fill the interior from a coordinate function.
    pub fn fill_interior(&mut self, f: impl Fn(usize, usize, usize) -> f64) {
        for z in 0..self.n[2] {
            for y in 0..self.n[1] {
                for x in 0..self.n[0] {
                    self.set(x as isize, y as isize, z as isize, f(x, y, z));
                }
            }
        }
    }

    /// Fill the ghost rim by periodically wrapping this grid's own
    /// interior — the ground truth for a self-periodic (1-rank) domain
    /// and for symmetric multi-rank domains with identical contents.
    pub fn fill_ghost_periodic_self(&mut self) {
        let g = self.ghost as isize;
        let (nx, ny, nz) = (self.n[0] as isize, self.n[1] as isize, self.n[2] as isize);
        for z in -g..nz + g {
            for y in -g..ny + g {
                for x in -g..nx + g {
                    let inside = x >= 0 && x < nx && y >= 0 && y < ny && z >= 0 && z < nz;
                    if !inside {
                        let v = self.get(x.rem_euclid(nx), y.rem_euclid(ny), z.rem_euclid(nz));
                        self.set(x, y, z, v);
                    }
                }
            }
        }
    }

    /// Compile `shape` against this grid's geometry: flat tap offsets
    /// in the extended array (and the star7 fast-path selection) are
    /// resolved once, so steady-state stepping via
    /// [`ArrayGrid::apply_plan_into`] replays them without per-step
    /// planning. The plan is bound to the highest ISA level this CPU
    /// runs, like [`crate::KernelPlan::new`].
    pub fn plan(&self, shape: &StencilShape) -> ArrayPlan {
        self.plan_with_isa(shape, Isa::detect())
    }

    /// [`ArrayGrid::plan`] pinned to `isa`, for tests and benchmarks
    /// that compare levels. Panics if `isa` is above [`Isa::detect`].
    pub fn plan_with_isa(&self, shape: &StencilShape, isa: Isa) -> ArrayPlan {
        assert!(shape.radius() <= self.ghost, "ghost rim too narrow for stencil");
        let (ex, ey) = (self.ext[0], self.ext[1]);
        ArrayPlan {
            ext: self.ext,
            ghost: self.ghost,
            isa: isa.bind(),
            star7: crate::shape::star7_coeffs(shape),
            deltas: shape
                .taps()
                .iter()
                .map(|&(o, c)| {
                    (
                        o[0] as isize
                            + o[1] as isize * ex as isize
                            + o[2] as isize * (ex * ey) as isize,
                        c,
                    )
                })
                .collect(),
        }
    }

    /// Apply `shape` to every interior point of `self`, writing into
    /// `out` (same geometry). Ghosts must be valid to `shape.radius()`.
    /// The interior z-planes are dealt over the kernel pool's threads.
    /// One-shot convenience wrapper around [`ArrayGrid::plan`] +
    /// [`ArrayGrid::apply_plan_into`].
    pub fn apply_into(&self, shape: &StencilShape, out: &mut ArrayGrid) {
        self.apply_plan_into(&self.plan(shape), out);
    }

    /// Apply a precompiled [`ArrayPlan`] (see [`ArrayGrid::plan`]).
    pub fn apply_plan_into(&self, plan: &ArrayPlan, out: &mut ArrayGrid) {
        self.apply_tiles_into(plan, out, 1, None::<fn(usize) -> bool>);
    }

    /// Apply `plan` to the `edge`³ tiles of the interior that `selected`
    /// accepts (numbered x fastest), or to all of it when `None`, dealing
    /// slabs of `edge` z-planes over the worker pool. A point's arithmetic
    /// does not depend on the selection, so a selection and then its
    /// complement write exactly the whole-interior result.
    pub fn apply_tiles_into(
        &self,
        plan: &ArrayPlan,
        out: &mut ArrayGrid,
        edge: usize,
        selected: Option<impl Fn(usize) -> bool + Sync>,
    ) {
        assert_eq!(self.n, out.n);
        assert_eq!(self.ghost, out.ghost);
        assert_eq!(plan.ext, self.ext, "plan compiled for a different geometry");
        assert_eq!(plan.ghost, self.ghost, "plan compiled for a different ghost width");
        assert!(self.n.iter().all(|&d| d % edge == 0), "interior {:?} is not a whole number of {edge}-tiles", self.n);
        let (n, g, pl) = (self.n, self.ghost, self.ext[0] * self.ext[1]);
        // Extended z-planes of `slab` from index `z0`, interior columns `x` of rows `y`.
        let apply_box = |z0, slab: &mut [f64], x: Range<usize>, y: Range<usize>| match &plan.star7 {
            Some(c) => star7_run(plan.isa, self, c, z0, slab, x, y),
            None => self.deltas_run(&plan.deltas, z0, slab, x, y),
        };
        let layer = (n[0] / edge) * (n[1] / edge);
        let interior = &mut out.data[g * pl..(g + n[2]) * pl];
        let work = selected.as_ref().map_or(interior.len(), |f| {
            (0..layer * n[2] / edge).filter(|&t| f(t)).count() * edge.pow(3)
        });
        pool::for_runs(interior, edge * pl, work, |first, run| {
            for (tz, slab) in (first..).zip(run.chunks_exact_mut(edge * pl)) {
                let z0 = g + tz * edge;
                let Some(f) = &selected else {
                    apply_box(z0, slab, 0..n[0], 0..n[1]);
                    continue;
                };
                // A run of selected tiles along x is one box: rows stay long.
                let (nx, selected) = (n[0] / edge, |t| f(tz * layer + t));
                for y in 0..n[1] / edge {
                    let mut x = 0;
                    while x < nx {
                        let end = (x..nx).find(|&e| !selected(y * nx + e)).unwrap_or(nx);
                        if end > x {
                            apply_box(z0, slab, x * edge..end * edge, y * edge..(y + 1) * edge);
                        }
                        x = end + 1;
                    }
                }
            }
        });
    }

    /// One box (see [`ArrayGrid::apply_tiles_into`]) of the generic
    /// hoisted-delta kernel for shapes without a specialized path (not
    /// widened: its per-point tap reduction is scalar at every ISA level).
    fn deltas_run(&self, deltas: &[(isize, f64)], z0: usize, planes: &mut [f64], x: Range<usize>, y: Range<usize>) {
        let (ex, ey) = (self.ext[0], self.ext[1]);
        let g = self.ghost;
        let input = &self.data;
        for (zext, plane) in (z0..).zip(planes.chunks_exact_mut(ex * ey)) {
            for y in y.clone() {
                let row = (y + g) * ex + g + x.start;
                let zbase = zext * ex * ey + row;
                for (i, ov) in plane[row..row + x.len()].iter_mut().enumerate() {
                    let base = (zbase + i) as isize;
                    let mut acc = 0.0;
                    for &(d, c) in deltas {
                        acc += c * input[(base + d) as usize];
                    }
                    *ov = acc;
                }
            }
        }
    }

    /// Ghost-cell-expansion variant of [`ArrayGrid::apply_into`]: also
    /// compute `extra` cells deep into the ghost rim (redundant
    /// computation), so the next `extra / radius` steps need no
    /// exchange. Requires `extra + shape.radius() <= ghost`.
    pub fn apply_extended_into(&self, shape: &StencilShape, out: &mut ArrayGrid, extra: usize) {
        assert_eq!(self.n, out.n);
        assert_eq!(self.ghost, out.ghost);
        assert!(
            extra + shape.radius() <= self.ghost,
            "expanded region plus stencil radius exceeds the ghost rim"
        );
        let e = extra as isize;
        let taps = shape.taps();
        for z in -e..self.n[2] as isize + e {
            for y in -e..self.n[1] as isize + e {
                for x in -e..self.n[0] as isize + e {
                    let mut acc = 0.0;
                    for &(o, c) in taps {
                        acc += c
                            * self.get(
                                x + o[0] as isize,
                                y + o[1] as isize,
                                z + o[2] as isize,
                            );
                    }
                    out.set(x, y, z, acc);
                }
            }
        }
    }

    /// Per-axis interior index range of surface region `r(dir)`:
    /// trit −1 → `[0, g)`, +1 → `[n−g, n)`, 0 → `[0, n)`.
    pub fn surface_range(&self, dir: &Dir) -> [std::ops::Range<isize>; 3] {
        let g = self.ghost as isize;
        std::array::from_fn(|a| {
            let n = self.n[a] as isize;
            match dir.axis(a) {
                -1 => 0..g,
                1 => n - g..n,
                _ => 0..n,
            }
        })
    }

    /// Per-axis index range of ghost region `g(dir)`:
    /// trit −1 → `[−g, 0)`, +1 → `[n, n+g)`, 0 → `[0, n)`.
    pub fn ghost_range(&self, dir: &Dir) -> [std::ops::Range<isize>; 3] {
        let g = self.ghost as isize;
        std::array::from_fn(|a| {
            let n = self.n[a] as isize;
            match dir.axis(a) {
                -1 => -g..0,
                1 => n..n + g,
                _ => 0..n,
            }
        })
    }

    /// Elements in the surface (= ghost) region toward `dir`.
    pub fn region_elements(&self, dir: &Dir) -> usize {
        self.surface_range(dir)
            .iter()
            .map(|r| (r.end - r.start) as usize)
            .product()
    }

    /// Pack surface region `r(dir)` into `buf` (row-wise memcpy along
    /// the unit-stride axis — the *optimized* packing a tuned stencil
    /// framework performs). Large faces deal their z-planes over the
    /// kernel pool's threads; `buf` is sized once and reused without
    /// reallocation on subsequent calls with the same region.
    pub fn pack_surface(&self, dir: &Dir, buf: &mut Vec<f64>) {
        let [rx, ry, rz] = self.surface_range(dir);
        let row_len = (rx.end - rx.start) as usize;
        let ny = (ry.end - ry.start) as usize;
        let elems = self.region_elements(dir);
        if buf.len() != elems {
            buf.clear();
            buf.resize(elems, 0.0);
        }
        let plane = row_len * ny;
        let ex = self.ext[0];
        let pack_plane = |zi: usize, out: &mut [f64]| {
            let base = self.offset(rx.start, ry.start, rz.start + zi as isize);
            for yi in 0..ny {
                let o = base + yi * ex;
                out[yi * row_len..(yi + 1) * row_len].copy_from_slice(&self.data[o..o + row_len]);
            }
        };
        pool::for_runs(buf, plane, elems, |first, run| {
            for (zi, out) in (first..).zip(run.chunks_mut(plane)) {
                pack_plane(zi, out);
            }
        });
    }

    /// Unpack a received buffer into ghost region `g(dir)` (row-wise;
    /// large faces deal their z-planes over the kernel pool's threads).
    pub fn unpack_ghost(&mut self, dir: &Dir, buf: &[f64]) {
        let [rx, ry, rz] = self.ghost_range(dir);
        let row_len = (rx.end - rx.start) as usize;
        let ny = (ry.end - ry.start) as usize;
        let nz = (rz.end - rz.start) as usize;
        assert_eq!(buf.len(), self.region_elements(dir));
        let g = self.ghost as isize;
        let (ex, ey) = (self.ext[0], self.ext[1]);
        let plane = row_len * ny;
        // Each region z maps to one distinct extended-grid z-plane, so
        // the per-plane writes are disjoint.
        let z0 = (rz.start + g) as usize;
        let row0 = ((ry.start + g) as usize) * ex + (rx.start + g) as usize;
        let unpack_plane = |dplane: &mut [f64], src: &[f64]| {
            for yi in 0..ny {
                let o = row0 + yi * ex;
                dplane[o..o + row_len].copy_from_slice(&src[yi * row_len..(yi + 1) * row_len]);
            }
        };
        let planes = &mut self.data[z0 * ex * ey..(z0 + nz) * ex * ey];
        pool::for_runs(planes, ex * ey, buf.len(), |first, run| {
            for (dplane, src) in run.chunks_mut(ex * ey).zip(buf[first * plane..].chunks(plane)) {
                unpack_plane(dplane, src);
            }
        });
    }

    /// The raw extended array (ghost rim included), lexicographic with
    /// axis 0 fastest; element 0 is the corner at `(-g, -g, -g)`. This
    /// is the buffer MPI derived datatypes describe.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The raw extended array, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Extended extents (interior + both ghost rims).
    pub fn extents(&self) -> [usize; 3] {
        self.ext
    }

    /// Sum over the interior (cheap integration check).
    pub fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        for r in self.interior_rows() {
            s += self.data[r].iter().sum::<f64>();
        }
        s
    }

    /// Raw-array ranges of the interior's x-rows, y then z ascending.
    pub fn interior_rows(&self) -> impl Iterator<Item = Range<usize>> {
        let (n, g, [ex, ey, _]) = (self.n, self.ghost, self.ext);
        (0..n[2]).flat_map(move |z| (0..n[1]).map(move |y| ((z + g) * ey + y + g) * ex + g)).map(move |o| o..o + n[0])
    }

    /// Total surface bytes exchanged per full 26-neighbor halo exchange.
    pub fn exchange_bytes(&self) -> usize {
        layout::all_regions(3)
            .iter()
            .map(|d| self.region_elements(d) * 8)
            .sum()
    }
}

/// A stencil compiled against one [`ArrayGrid`] geometry (see
/// [`ArrayGrid::plan`]): the flat extended-array tap offsets, the
/// star7 fast-path selection and the ISA level, hoisted once per
/// experiment.
#[derive(Clone, Debug)]
pub struct ArrayPlan {
    ext: [usize; 3],
    ghost: usize,
    isa: BoundIsa,
    star7: Option<[f64; 7]>,
    deltas: Vec<(isize, f64)>,
}

impl ArrayPlan {
    /// The ISA level this plan's kernel runs at.
    pub fn isa(&self) -> Isa {
        self.isa.level()
    }
}

per_isa! {
    /// One box of the 7-point star on `grid`'s interior (see
    /// [`ArrayGrid::apply_tiles_into`]) through a branch-free row loop (a tuned
    /// framework's kernel quality) in the brick kernel's tap order,
    /// which the compiler widens to the level's registers.
    fn star7_run(grid: &ArrayGrid, c: &[f64; 7], z0: usize, planes: &mut [f64], x: Range<usize>, y: Range<usize>) {
        let (ex, g) = (grid.ext[0], grid.ghost);
        let (pl, len) = (ex * grid.ext[1], x.len());
        let input = &grid.data[..];
        let [c0, cxm, cxp, cym, cyp, czm, czp] = *c;

        for (zext, plane) in (z0..).zip(planes.chunks_exact_mut(pl)) {
            for y in y.clone() {
                let orow = (y + g) * ex + g + x.start;
                let row = zext * pl + orow;
                let rc = &input[row..row + len];
                let rxm = &input[row - 1..row - 1 + len];
                let rxp = &input[row + 1..row + 1 + len];
                let rym = &input[row - ex..row - ex + len];
                let ryp = &input[row + ex..row + ex + len];
                let rzm = &input[row - pl..row - pl + len];
                let rzp = &input[row + pl..row + pl + len];
                let o = &mut plane[orow..orow + len];
                for x in 0..len {
                    o[x] = c0 * rc[x]
                        + cxm * rxm[x]
                        + cxp * rxp[x]
                        + cym * rym[x]
                        + cyp * ryp[x]
                        + czm * rzm[x]
                        + czp * rzp[x];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_sizes_3d() {
        let a = ArrayGrid::new([32, 32, 32], 8);
        let face = Dir::from_spec(&[1]);
        let edge = Dir::from_spec(&[1, -2]);
        let corner = Dir::from_spec(&[1, 2, 3]);
        assert_eq!(a.region_elements(&face), 8 * 32 * 32);
        assert_eq!(a.region_elements(&edge), 8 * 8 * 32);
        assert_eq!(a.region_elements(&corner), 8 * 8 * 8);
    }

    #[test]
    fn ghost_regions_are_disjoint_and_cover_rim() {
        let a = ArrayGrid::new([8, 8, 8], 2);
        let mut count = 0usize;
        for d in layout::all_regions(3) {
            count += a.region_elements(&d);
        }
        let rim = 12usize.pow(3) - 8usize.pow(3);
        assert_eq!(count, rim);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let mut a = ArrayGrid::new([8, 8, 8], 2);
        a.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        let dir = Dir::from_spec(&[1, -2]);
        let mut buf = Vec::new();
        a.pack_surface(&dir, &mut buf);
        assert_eq!(buf.len(), a.region_elements(&dir));
        // Unpack into the mirrored ghost region of a fresh grid and
        // verify values land where a periodic shift would put them.
        let mut b = ArrayGrid::new([8, 8, 8], 2);
        b.unpack_ghost(&dir.mirror(), &buf);
        // Surface (x in [6,8), y in [0,2)) lands at ghost (x in [-2,0),
        // y in [8,10)).
        assert_eq!(b.get(-2, 8, 3), a.get(6, 0, 3));
        assert_eq!(b.get(-1, 9, 7), a.get(7, 1, 7));
    }

    #[test]
    fn periodic_self_fill_matches_wrap() {
        let mut a = ArrayGrid::new([4, 4, 4], 2);
        a.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        a.fill_ghost_periodic_self();
        assert_eq!(a.get(-1, 0, 0), a.get(3, 0, 0));
        assert_eq!(a.get(4, -2, 5), a.get(0, 2, 1));
    }

    #[test]
    fn apply_identity_stencil() {
        let shape = StencilShape::new(vec![([0, 0, 0], 1.0)]);
        let mut a = ArrayGrid::new([6, 6, 6], 1);
        a.fill_interior(|x, y, z| (x * y * z) as f64);
        let mut out = ArrayGrid::new([6, 6, 6], 1);
        a.apply_into(&shape, &mut out);
        assert_eq!(out.get(3, 4, 5), a.get(3, 4, 5));
        assert_eq!(out.interior_sum(), a.interior_sum());
    }

    #[test]
    fn apply_shift_stencil() {
        // A pure +x shift: out(x) = in(x+1).
        let shape = StencilShape::new(vec![([1, 0, 0], 1.0)]);
        let mut a = ArrayGrid::new([4, 4, 4], 1);
        a.fill_interior(|x, y, z| (x + 10 * y + 100 * z) as f64);
        a.fill_ghost_periodic_self();
        let mut out = ArrayGrid::new([4, 4, 4], 1);
        a.apply_into(&shape, &mut out);
        assert_eq!(out.get(0, 0, 0), a.get(1, 0, 0));
        // Periodic wrap at the high face.
        assert_eq!(out.get(3, 2, 1), a.get(0, 2, 1));
    }

    #[test]
    fn conservation_of_normalized_stencil() {
        // A coefficient-sum-1 stencil conserves the interior sum on a
        // periodic domain.
        let shape = StencilShape::star7_default();
        let mut a = ArrayGrid::new([8, 8, 8], 1);
        a.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64);
        a.fill_ghost_periodic_self();
        let mut out = ArrayGrid::new([8, 8, 8], 1);
        a.apply_into(&shape, &mut out);
        assert!((out.interior_sum() - a.interior_sum()).abs() < 1e-9);
    }

    #[test]
    fn exchange_bytes_formula() {
        let a = ArrayGrid::new([32, 32, 32], 8);
        // (N+2g)^3 - N^3 elements of 8 bytes... but surface regions
        // overlap, so the sum is over sent instances per neighbor:
        // Σ over 26 dirs of region size.
        let manual: usize = layout::all_regions(3)
            .iter()
            .map(|d| a.region_elements(d) * 8)
            .sum();
        assert_eq!(a.exchange_bytes(), manual);
    }

    /// A reused plan is bit-identical to the one-shot `apply_into` for
    /// both the star7 fast path and the generic hoisted-delta path.
    #[test]
    fn plan_reuse_matches_one_shot() {
        for shape in [StencilShape::star7_default(), StencilShape::cube125_default()] {
            let g = shape.radius();
            let mut a = ArrayGrid::new([6, 6, 6], g);
            a.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 - 5.0);
            a.fill_ghost_periodic_self();
            let mut out1 = ArrayGrid::new([6, 6, 6], g);
            let mut out2 = ArrayGrid::new([6, 6, 6], g);
            let plan = a.plan(&shape);
            a.apply_into(&shape, &mut out1);
            a.apply_plan_into(&plan, &mut out2);
            assert_eq!(out1.as_slice(), out2.as_slice());
            // Second replay of the same plan (steady-state stepping).
            a.apply_plan_into(&plan, &mut out2);
            assert_eq!(out1.as_slice(), out2.as_slice());
        }
    }

    /// The array kernel at every ISA level this CPU runs equals its
    /// `Baseline` level bit for bit (row lengths that are and are not a
    /// multiple of any register width), and `plan` binds the detected
    /// level.
    #[test]
    fn every_isa_level_bit_identical_to_baseline() {
        for shape in [StencilShape::star7_default(), StencilShape::cube125_default()] {
            let g = shape.radius();
            for n in [[16, 5, 3], [13, 4, 2]] {
                let mut a = ArrayGrid::new(n, g);
                a.fill_interior(|x, y, z| ((x * 31 + y * 17 + z * 7) % 13) as f64 / 3.0 - 1.7);
                a.fill_ghost_periodic_self();
                assert_eq!(a.plan(&shape).isa(), Isa::detect());
                let mut want = ArrayGrid::new(n, g);
                a.apply_plan_into(&a.plan_with_isa(&shape, Isa::Baseline), &mut want);
                for isa in Isa::available() {
                    let mut got = ArrayGrid::new(n, g);
                    a.apply_plan_into(&a.plan_with_isa(&shape, isa), &mut got);
                    let same = got.as_slice().iter().zip(want.as_slice());
                    assert!(
                        same.clone().all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{} taps, {n:?}, {}",
                        shape.points(),
                        isa.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ghost rim too narrow")]
    fn narrow_ghost_rejected() {
        let a = ArrayGrid::new([4, 4, 4], 1);
        let mut out = ArrayGrid::new([4, 4, 4], 1);
        a.apply_into(&StencilShape::cube125_default(), &mut out);
    }
}
