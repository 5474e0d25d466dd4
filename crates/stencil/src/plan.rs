//! Precompiled stencil kernel plans: bind once, execute many.
//!
//! The generic brick kernel ([`crate::apply_bricks_gather`]) re-gathers
//! a `(b+2r)³` padded halo block for every brick on every timestep —
//! roughly 2× memory traffic for 8³ bricks at radius 1 — and re-derives
//! per-axis resolve tables each call. A [`KernelPlan`] does that work
//! once per `(BrickInfo, StencilShape, field)` binding:
//!
//! * per brick, the 27 adjacency codes are resolved to direct *element
//!   base offsets* into the storage slab (`neighbor_brick * step +
//!   field_base`) at plan time, never per element;
//! * the padded-halo gather is compiled into a flat list of `CopySeg`
//!   row-segment copies (destination offset in the block, adjacency
//!   code, source offset, length) — executing a step is `memcpy`s into
//!   a thread-local arena block followed by a dense kernel, with no
//!   per-step planning, wrapping arithmetic or allocation;
//! * every tap becomes one precomputed flat offset into the padded
//!   block, and the kernel runs taps *innermost* against a
//!   row-sized register accumulator (monomorphized for the common
//!   brick widths 4/8/16), so the hot loop is pure mul-adds.
//!
//! Per output point the accumulator adds tap contributions in the
//! shape's tap order starting from zero — exactly the floating-point
//! op sequence of [`crate::apply_bricks_serial`] — so the planned
//! engine is **bit-identical** to the serial reference for every
//! shape, which the property tests in `tests/proptest_kernels.rs` pin
//! down. The canonical 7-point star instead dispatches to the
//! specialized star7 kernel (itself bit-identical to the reference).
//!
//! Both executors are compiled once per ISA level ([`crate::isa`]) and
//! the plan stores the level it runs at: the detected one
//! ([`KernelPlan::new`]) or a lower one a test or benchmark pins
//! ([`KernelPlan::with_isa`]). Levels differ in register width only —
//! `fma` is never enabled — so the bits are the same at every level.
//!
//! [`VarCoefPlan`] applies the same bind-once treatment to the
//! variable-coefficient 7-point kernel of [`crate::varcoef`].

use brick::{BrickInfo, BrickStorage, NO_BRICK};

use crate::brickstencil::{run_bricks, selected, star7_bricks};
use crate::isa::{per_isa, BoundIsa, Isa};
use crate::pool;
use crate::shape::{star7_coeffs, StencilShape};

/// Neighbor-base sentinel for a missing neighbor brick. Executing a
/// plan over a brick whose stencil crosses a missing neighbor panics.
const MISSING: usize = usize::MAX;

/// Interior/boundary split of a plan's compute set, with a reusable
/// per-brick readiness mask — the stencil side of the overlap
/// scheduler. The interior sub-plan (bricks whose stencil reads no
/// ghost data) can run while halo messages are on the wire; boundary
/// bricks are staged into the readiness mask in batches as their ghost
/// dependencies complete and executed through the owning
/// [`KernelPlan`] / [`VarCoefPlan`] with no per-batch allocation.
pub struct PlanSplit {
    /// `compute ∧ interior`: the sub-plan safe to run before any
    /// message arrives.
    interior: Vec<bool>,
    /// `compute ∧ ¬interior` brick ids, ascending.
    boundary: Vec<u32>,
    /// Readiness mask for the current boundary batch.
    stage: Vec<bool>,
    /// Bricks staged in the current batch (for O(batch) clearing).
    staged: Vec<u32>,
}

impl PlanSplit {
    /// Split `compute` against `interior_mask` (per-brick, e.g.
    /// `BrickDecomp::interior_mask`). Masks must be the same length.
    pub fn new(interior_mask: &[bool], compute: &[bool]) -> PlanSplit {
        assert_eq!(interior_mask.len(), compute.len(), "mask length mismatch");
        let interior: Vec<bool> =
            interior_mask.iter().zip(compute).map(|(&i, &c)| i && c).collect();
        let boundary: Vec<u32> = compute
            .iter()
            .zip(interior_mask)
            .enumerate()
            .filter(|(_, (&c, &i))| c && !i)
            .map(|(b, _)| b as u32)
            .collect();
        let stage = vec![false; compute.len()];
        // Room for a batch of every boundary brick: staging never allocates.
        let staged = Vec::with_capacity(boundary.len());
        PlanSplit { interior, boundary, stage, staged }
    }

    /// The interior sub-plan's compute mask.
    pub fn interior(&self) -> &[bool] {
        &self.interior
    }

    /// Boundary brick ids (ascending) — the bricks whose readiness the
    /// scheduler tracks.
    pub fn boundary(&self) -> &[u32] {
        &self.boundary
    }

    /// Number of interior bricks in the split.
    pub fn interior_count(&self) -> usize {
        self.interior.iter().filter(|&&b| b).count()
    }

    /// Mark a batch of boundary bricks ready; returns the readiness
    /// mask to hand to `execute`. Call [`PlanSplit::clear_batch`] after
    /// executing. Staging the same brick twice in one batch is allowed.
    pub fn stage_batch(&mut self, bricks: &[u32]) -> &[bool] {
        for &b in bricks {
            debug_assert!(
                !self.interior[b as usize],
                "staged brick {b} is interior; it was already computed"
            );
            self.stage[b as usize] = true;
            self.staged.push(b);
        }
        &self.stage
    }

    /// Reset the readiness mask after executing a batch.
    pub fn clear_batch(&mut self) {
        for b in self.staged.drain(..) {
            self.stage[b as usize] = false;
        }
    }
}

/// One tap's read pattern for one brick row, brick-independent (the
/// [`VarCoefPlan`] executor's descriptor): the source brick is named by
/// adjacency *code*, resolved through the per-brick neighbor-base
/// table at execute time with one lookup.
#[derive(Clone, Copy, Debug)]
struct TapSeg {
    /// Flat offset of the source row start within the source brick.
    base: u32,
    /// Adjacency code of the source brick for in-x-range reads (x trit
    /// zero); the ±x face columns use `code + 2` / `code + 1`.
    code: u8,
    /// x offset of the tap.
    shift: i8,
}

/// One gather-copy descriptor for the padded halo block: at execute
/// time `block[dst..dst+len]` is filled from the brick named by
/// adjacency `code`, starting at in-brick element offset `src`.
#[derive(Clone, Copy, Debug)]
struct CopySeg {
    dst: u32,
    src: u32,
    len: u16,
    code: u8,
}

/// Execution strategy selected at plan time.
enum Exec {
    /// Canonical 7-point star: the specialized row-accumulate kernel.
    Star7 { c: [f64; 7], info: BrickInfo<3> },
    /// Any other shape: gather a `(bx+2r)·(by+2r)·(bz+2r)` halo block
    /// through the precompiled copy list, then run the dense
    /// taps-innermost kernel (bit-identical accumulation order).
    Block(BlockExec),
}

/// The compiled halo-block gather and tap list of [`Exec::Block`].
struct BlockExec {
    wx: usize,
    wy: usize,
    block_len: usize,
    copies: Vec<CopySeg>,
    /// `(flat offset into the padded block, coefficient)` per tap, in
    /// shape tap order.
    taps: Vec<(u32, f64)>,
    nbase: Vec<usize>,
}

/// A stencil kernel compiled for one `(BrickInfo, StencilShape, field)`
/// binding: build it once per experiment, then [`KernelPlan::execute`]
/// it every timestep with no per-step planning, gathering or
/// allocation.
pub struct KernelPlan {
    bx: usize,
    by: usize,
    bz: usize,
    elems: usize,
    step: usize,
    fields: usize,
    field: usize,
    field_base: usize,
    bricks: usize,
    isa: BoundIsa,
    exec: Exec,
}

impl KernelPlan {
    /// Compile a plan for applying `shape` to field `field` of storages
    /// with `fields` interleaved fields laid out by `info`, bound to
    /// the highest ISA level this CPU runs.
    pub fn new(
        info: &BrickInfo<3>,
        shape: &StencilShape,
        fields: usize,
        field: usize,
    ) -> KernelPlan {
        KernelPlan::with_isa(info, shape, fields, field, Isa::detect())
    }

    /// [`KernelPlan::new`] pinned to `isa`, for tests and benchmarks
    /// that compare levels. Panics if `isa` is above [`Isa::detect`].
    pub fn with_isa(
        info: &BrickInfo<3>,
        shape: &StencilShape,
        fields: usize,
        field: usize,
        isa: Isa,
    ) -> KernelPlan {
        let isa = isa.bind();
        assert!(field < fields, "field index out of range");
        let bd = info.brick_dims();
        let [bx, by, bz] = bd.extents();
        let r = shape.radius();
        assert!(
            r <= bx && r <= by && r <= bz,
            "stencil radius exceeds brick extent"
        );
        let elems = bd.elements();
        let step = elems * fields;
        let field_base = field * elems;
        let exec = if let Some(c) = star7_coeffs(shape) {
            Exec::Star7 { c, info: info.clone() }
        } else {
            let (wx, wy, wz) = (bx + 2 * r, by + 2 * r, bz + 2 * r);
            let taps = shape
                .taps()
                .iter()
                .map(|&(o, c)| {
                    let off = ((o[2] as isize + r as isize) as usize * wy
                        + (o[1] as isize + r as isize) as usize)
                        * wx
                        + (o[0] as isize + r as isize) as usize;
                    (off as u32, c)
                })
                .collect();
            Exec::Block(BlockExec {
                wx,
                wy,
                block_len: wx * wy * wz,
                copies: build_copies(bx, by, bz, r),
                taps,
                nbase: build_nbase(info, step, field_base),
            })
        };
        KernelPlan {
            bx,
            by,
            bz,
            elems,
            step,
            fields,
            field,
            field_base,
            bricks: info.bricks(),
            isa,
            exec,
        }
    }

    /// The field index this plan was compiled for.
    pub fn field(&self) -> usize {
        self.field
    }

    /// The ISA level this plan's kernel runs at.
    pub fn isa(&self) -> Isa {
        self.isa.level()
    }

    /// Apply the planned stencil to every brick selected by
    /// `compute[b]`, reading `input` and writing `output` (both must
    /// match the geometry the plan was compiled for). The selected
    /// bricks are dealt over the kernel pool's threads.
    pub fn execute(&self, input: &BrickStorage, output: &mut BrickStorage, compute: &[bool]) {
        self.run(input, output, compute, selected(compute));
    }

    /// [`KernelPlan::execute`] wrapped in a telemetry scope: the wall
    /// time of the planned step is really measured and charged as
    /// [`telemetry::Phase::Compute`] under a `kernel:plan` span, and
    /// the number of bricks the mask selected is counted. Numerically
    /// identical to `execute` — profiling never changes the kernel.
    pub fn execute_profiled(
        &self,
        input: &BrickStorage,
        output: &mut BrickStorage,
        compute: &[bool],
        rec: &mut telemetry::Recorder,
    ) {
        rec.open("kernel:plan");
        let bricks = selected(compute);
        let t0 = std::time::Instant::now();
        self.run(input, output, compute, bricks);
        rec.charge(telemetry::Phase::Compute, t0.elapsed().as_secs_f64());
        rec.count("bricks_computed", bricks as u64);
        rec.close();
    }

    /// `execute` over a mask that selects `selected` bricks.
    fn run(&self, input: &BrickStorage, output: &mut BrickStorage, compute: &[bool], selected: usize) {
        assert_eq!(compute.len(), self.bricks, "compute mask length mismatch");
        assert_eq!(input.fields(), self.fields, "input field count mismatch");
        assert_eq!(output.fields(), self.fields, "output field count mismatch");
        assert_eq!(input.elements_per_brick(), self.elems, "brick geometry mismatch");
        assert_eq!(input.bricks(), self.bricks, "brick count mismatch");
        assert_eq!(output.bricks(), self.bricks, "brick count mismatch");
        match &self.exec {
            Exec::Star7 { c, info } => {
                star7_bricks(self.isa, c, info, input, output, compute, self.field, selected);
            }
            Exec::Block(blk) => {
                let in_data = input.as_slice();
                pool::for_runs(output.as_mut_slice(), self.step, selected * self.elems, |first, run| {
                    block_run(self.isa, self, blk, in_data, compute, first, run)
                });
            }
        }
    }
}

per_isa! {
    /// One dealt run of the block executor: for each selected brick of
    /// `run` (whose first brick is `first`), gather the padded halo
    /// block through the copy list into the thread-local arena, then run
    /// the dense kernel.
    fn block_run(
        plan: &KernelPlan,
        blk: &BlockExec,
        in_data: &[f64],
        compute: &[bool],
        first: usize,
        run: &mut [f64],
    ) {
        let (bx, by, bz) = (plan.bx, plan.by, plan.bz);
        let (elems, field_base) = (plan.elems, plan.field_base);
        let (wx, wy, taps) = (blk.wx, blk.wy, &blk.taps[..]);

        for (b, chunk) in run_bricks(run, plan.step, first, compute) {
            let bases = &blk.nbase[b * 27..b * 27 + 27];
            let out = &mut chunk[field_base..field_base + elems];
            crate::arena::with_scratch(blk.block_len, |block| {
                for cs in &blk.copies {
                    let len = cs.len as usize;
                    let dst = &mut block[cs.dst as usize..cs.dst as usize + len];
                    let sb = bases[cs.code as usize];
                    if sb == MISSING {
                        // Poison instead of panicking: a shape whose
                        // taps never read this corner of the block
                        // stays correct (the serial reference would
                        // only panic on an actual read).
                        dst.fill(f64::NAN);
                    } else {
                        dst.copy_from_slice(&in_data[sb + cs.src as usize..][..len]);
                    }
                }
                match bx {
                    4 => block_rows::<4>(out, block, taps, by, bz, wx, wy),
                    8 => block_rows::<8>(out, block, taps, by, bz, wx, wy),
                    16 => block_rows::<16>(out, block, taps, by, bz, wx, wy),
                    _ => block_rows_dyn(out, block, taps, bx, by, bz, wx, wy),
                }
            });
        }
    }
}

/// Dense taps-innermost kernel for the monomorphized brick widths: the
/// row accumulator is a `[f64; BX]` the compiler keeps in registers, so
/// each tap costs one broadcast-multiply-accumulate over the row.
#[inline(always)]
fn block_rows<const BX: usize>(
    out: &mut [f64],
    block: &[f64],
    taps: &[(u32, f64)],
    by: usize,
    bz: usize,
    wx: usize,
    wy: usize,
) {
    for z in 0..bz {
        for y in 0..by {
            let rb = (z * wy + y) * wx;
            let mut acc = [0.0f64; BX];
            for &(off, c) in taps {
                let src = &block[rb + off as usize..rb + off as usize + BX];
                for (a, &v) in acc.iter_mut().zip(src) {
                    *a += c * v;
                }
            }
            out[(z * by + y) * BX..(z * by + y) * BX + BX].copy_from_slice(&acc);
        }
    }
}

/// Fallback for uncommon brick widths: accumulate straight into the
/// output row (same op order, the accumulator just lives in L1).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block_rows_dyn(
    out: &mut [f64],
    block: &[f64],
    taps: &[(u32, f64)],
    bx: usize,
    by: usize,
    bz: usize,
    wx: usize,
    wy: usize,
) {
    for z in 0..bz {
        for y in 0..by {
            let rb = (z * wy + y) * wx;
            let orow = &mut out[(z * by + y) * bx..(z * by + y) * bx + bx];
            orow.fill(0.0);
            for &(off, c) in taps {
                let src = &block[rb + off as usize..rb + off as usize + bx];
                for (a, &v) in orow.iter_mut().zip(src) {
                    *a += c * v;
                }
            }
        }
    }
}

/// Copy list for the padded halo gather: each padded row `(z', y')`
/// splits into at most three x segments (−x face, interior, +x face),
/// each sourced from one adjacency code. Built once per plan.
fn build_copies(bx: usize, by: usize, bz: usize, r: usize) -> Vec<CopySeg> {
    let (wx, wy, wz) = (bx + 2 * r, by + 2 * r, bz + 2 * r);
    // (x' start, source x start, x trit, length)
    let mut xsegs: Vec<(usize, usize, usize, usize)> = Vec::new();
    if r > 0 {
        xsegs.push((0, bx - r, 2, r));
    }
    xsegs.push((r, 0, 0, bx));
    if r > 0 {
        xsegs.push((r + bx, 0, 1, r));
    }
    let mut copies = Vec::with_capacity(wy * wz * xsegs.len());
    for zp in 0..wz {
        let (tz, lz) = wrap(zp as isize - r as isize, bz);
        for yp in 0..wy {
            let (ty, ly) = wrap(yp as isize - r as isize, by);
            for &(xp, lx, tx, len) in &xsegs {
                copies.push(CopySeg {
                    dst: ((zp * wy + yp) * wx + xp) as u32,
                    src: ((lz * by + ly) * bx + lx) as u32,
                    len: len as u16,
                    code: (tx + 3 * (ty + 3 * tz)) as u8,
                });
            }
        }
    }
    copies
}

/// Brick-independent row-segment table: `by·bz` rows × `shape.points()`
/// segments, in shape tap order within each row.
fn build_segs(shape: &StencilShape, bx: usize, by: usize, bz: usize) -> Vec<TapSeg> {
    let mut segs = Vec::with_capacity(by * bz * shape.points());
    for z in 0..bz {
        for y in 0..by {
            for &(o, _) in shape.taps() {
                let (cy, ly) = wrap(y as isize + o[1] as isize, by);
                let (cz, lz) = wrap(z as isize + o[2] as isize, bz);
                segs.push(TapSeg {
                    base: ((lz * by + ly) * bx) as u32,
                    code: (3 * (cy + 3 * cz)) as u8,
                    shift: o[0],
                });
            }
        }
    }
    segs
}

/// Per-brick neighbor base table: for brick `b` and adjacency code `k`,
/// `nbase[b*27 + k]` is the element offset of the neighbor's field slab
/// in the storage (or [`MISSING`]). Resolved once at plan time.
fn build_nbase(info: &BrickInfo<3>, step: usize, field_base: usize) -> Vec<usize> {
    let bricks = info.bricks();
    let mut nbase = vec![MISSING; bricks * 27];
    for b in 0..bricks {
        let adj = info.adjacency_row(b as u32);
        for (code, &nb) in adj.iter().enumerate() {
            if nb != NO_BRICK {
                nbase[b * 27 + code] = nb as usize * step + field_base;
            }
        }
    }
    nbase
}

/// Resolve a shifted row coordinate to (trit, wrapped local): trit 0
/// in-brick, 1 the positive neighbor, 2 the negative neighbor.
fn wrap(p: isize, e: usize) -> (usize, usize) {
    if p < 0 {
        (2, (p + e as isize) as usize)
    } else if p >= e as isize {
        (1, (p - e as isize) as usize)
    } else {
        (0, p as usize)
    }
}

/// A compiled variable-coefficient 7-point kernel (see
/// [`crate::varcoef`] for the field-layout convention): neighbor bases
/// and row segments are resolved once, then
/// [`VarCoefPlan::execute`] replays them every step, reading the seven
/// coefficient fields at the output point.
pub struct VarCoefPlan {
    bx: usize,
    by: usize,
    bz: usize,
    elems: usize,
    in_step: usize,
    fields: usize,
    bricks: usize,
    /// 7 segments per row in the canonical (c, −x, +x, −y, +y, −z, +z)
    /// order; segment `j` of a row reads coefficient field `1 + j`.
    segs: Vec<TapSeg>,
    nbase: Vec<usize>,
}

/// The canonical variable-coefficient tap order (must match
/// [`crate::varcoef`]'s `OFFS`).
const VC_OFFS: [[i8; 3]; 7] = [
    [0, 0, 0],
    [-1, 0, 0],
    [1, 0, 0],
    [0, -1, 0],
    [0, 1, 0],
    [0, 0, -1],
    [0, 0, 1],
];

impl VarCoefPlan {
    /// Compile a plan for storages with `fields ≥ 8` interleaved fields
    /// laid out by `info` (field 0 the state, 1..=7 the coefficients).
    pub fn new(info: &BrickInfo<3>, fields: usize) -> VarCoefPlan {
        assert!(
            fields >= crate::varcoef::VARCOEF_FIELDS,
            "need state + 7 coefficient fields"
        );
        let bd = info.brick_dims();
        let [bx, by, bz] = bd.extents();
        assert!(bx >= 1 && by >= 1 && bz >= 1);
        let elems = bd.elements();
        let in_step = elems * fields;
        // Unit coefficients here; the per-point factors come from the
        // coefficient fields at execute time.
        let mut taps = Vec::with_capacity(7);
        for o in VC_OFFS {
            taps.push((o, 1.0));
        }
        let shape = StencilShape::new(taps);
        VarCoefPlan {
            bx,
            by,
            bz,
            elems,
            in_step,
            fields,
            bricks: info.bricks(),
            segs: build_segs(&shape, bx, by, bz),
            nbase: build_nbase(info, in_step, 0),
        }
    }

    /// Apply the planned variable-coefficient stencil to every brick
    /// selected by `compute[b]`, writing field 0 of `output`.
    pub fn execute(&self, input: &BrickStorage, output: &mut BrickStorage, compute: &[bool]) {
        self.run(input, output, compute, selected(compute));
    }

    /// [`VarCoefPlan::execute`] wrapped in a telemetry scope (see
    /// [`KernelPlan::execute_profiled`]): measured wall time charged as
    /// Compute under a `kernel:varcoef` span.
    pub fn execute_profiled(
        &self,
        input: &BrickStorage,
        output: &mut BrickStorage,
        compute: &[bool],
        rec: &mut telemetry::Recorder,
    ) {
        rec.open("kernel:varcoef");
        let bricks = selected(compute);
        let t0 = std::time::Instant::now();
        self.run(input, output, compute, bricks);
        rec.charge(telemetry::Phase::Compute, t0.elapsed().as_secs_f64());
        rec.count("bricks_computed", bricks as u64);
        rec.close();
    }

    /// `execute` over a mask that selects `selected` bricks, dealt over
    /// [`crate::pool`]'s threads.
    fn run(&self, input: &BrickStorage, output: &mut BrickStorage, compute: &[bool], selected: usize) {
        assert_eq!(compute.len(), self.bricks, "compute mask length mismatch");
        assert_eq!(input.fields(), self.fields, "input field count mismatch");
        assert_eq!(input.elements_per_brick(), self.elems, "brick geometry mismatch");
        assert_eq!(output.elements_per_brick(), self.elems, "brick geometry mismatch");
        assert_eq!(input.bricks(), self.bricks, "brick count mismatch");
        let (bx, rows) = (self.bx, self.by * self.bz);
        let (elems, in_step) = (self.elems, self.in_step);
        let out_step = output.step();
        let in_data = input.as_slice();
        let (segs, nbase) = (&self.segs, &self.nbase);

        pool::for_runs(output.as_mut_slice(), out_step, selected * elems, |first, run| {
            for (b, chunk) in run_bricks(run, out_step, first, compute) {
                let bases = &nbase[b * 27..b * 27 + 27];
                let coef_base = b * in_step + elems; // field 1 starts here
                let out = &mut chunk[..elems];
                for (row, out_row) in out.chunks_exact_mut(bx).enumerate().take(rows) {
                    out_row.fill(0.0);
                    let orow = row * bx;
                    for (j, seg) in segs[row * 7..(row + 1) * 7].iter().enumerate() {
                        let coef = &in_data[coef_base + j * elems + orow..][..bx];
                        let shift = seg.shift as isize;
                        let lo = (-shift).max(0) as usize;
                        let hi = (bx as isize - shift.max(0)) as usize;
                        let rb = seg.base as usize;
                        if hi > lo {
                            let sb = bases[seg.code as usize];
                            assert_ne!(sb, MISSING, "stencil crossed a missing neighbor");
                            let s0 = (sb + rb) as isize + shift;
                            let src = &in_data[(s0 + lo as isize) as usize..(s0 + hi as isize) as usize];
                            for ((o, &v), &cf) in
                                out_row[lo..hi].iter_mut().zip(src).zip(&coef[lo..hi])
                            {
                                *o += cf * v;
                            }
                        }
                        if lo > 0 {
                            let nb = bases[seg.code as usize + 2];
                            assert_ne!(nb, MISSING, "stencil crossed a missing neighbor");
                            let off = (bx as isize + shift) as usize;
                            let src = &in_data[nb + rb..nb + rb + bx];
                            for (x, o) in out_row[..lo].iter_mut().enumerate() {
                                *o += coef[x] * src[x + off];
                            }
                        }
                        if hi < bx {
                            let nb = bases[seg.code as usize + 1];
                            assert_ne!(nb, MISSING, "stencil crossed a missing neighbor");
                            let off = (bx as isize - shift) as usize;
                            let src = &in_data[nb + rb..nb + rb + bx];
                            for (x, o) in out_row[hi..].iter_mut().enumerate() {
                                *o += coef[x + hi] * src[x + hi - off];
                            }
                        }
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brickstencil::{apply_bricks_serial, apply_bricks_gather};
    use brick::{BrickDims, BrickGrid};

    fn setup(gdim: usize, bdim: usize) -> (BrickInfo<3>, BrickStorage, BrickStorage) {
        let grid = BrickGrid::<3>::lexicographic([gdim; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(bdim), &grid);
        let mut input = info.allocate(1);
        let data: Vec<f64> = (0..input.as_slice().len())
            .map(|i| ((i * 2654435761) % 1013) as f64 / 7.0 - 60.0)
            .collect();
        input.as_mut_slice().copy_from_slice(&data);
        let output = info.allocate(1);
        (info, input, output)
    }

    /// The planned engine must be *bit-identical* to the serial
    /// reference for both paper proxies and an asymmetric shape.
    #[test]
    fn plan_bit_identical_to_serial() {
        for shape in [
            StencilShape::star7_default(),
            StencilShape::cube125_default(),
            StencilShape::star13_default(),
            StencilShape::new(vec![([0, 0, 0], 0.5), ([2, -1, 0], 0.25), ([-1, 1, -2], 0.25)]),
        ] {
            let (info, input, mut out_plan) = setup(3, 4);
            let mut out_ser = info.allocate(1);
            let compute = vec![true; info.bricks()];
            let plan = KernelPlan::new(&info, &shape, 1, 0);
            plan.execute(&input, &mut out_plan, &compute);
            apply_bricks_serial(&shape, &info, &input, &mut out_ser, &compute, 0);
            assert_eq!(out_plan.as_slice(), out_ser.as_slice());
        }
    }

    /// Every ISA level this CPU runs (so `Baseline` is exercised even
    /// on an AVX-512 host) × brick shape (the three monomorphized cubes,
    /// an uncommon width, a non-cubic brick) × {full mask, sparse mask,
    /// field 1 of 2}: the planned engine equals the serial reference
    /// bit for bit for the three proxies, and leaves masked-out bricks
    /// and the unbound field untouched.
    #[test]
    fn every_isa_level_bit_identical_to_serial() {
        const UNTOUCHED: f64 = -3.5;
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let shapes = [
            StencilShape::star7_default(),
            StencilShape::star13_default(),
            StencilShape::cube125_default(),
        ];
        for dims in [[4; 3], [6; 3], [8; 3], [16; 3], [8, 4, 2]] {
            let gdim = if dims[0] == 16 { 2 } else { 3 };
            let grid = BrickGrid::<3>::lexicographic([gdim; 3], true);
            let info = BrickInfo::from_grid(BrickDims::new(dims), &grid);
            let full = vec![true; info.bricks()];
            let sparse: Vec<bool> = (0..info.bricks()).map(|b| b % 3 != 1).collect();
            for (fields, field, mask) in [(1, 0, &full), (1, 0, &sparse), (2, 1, &full)] {
                let mut input = info.allocate(fields);
                // No exact zeros: a sum of signed zeros is the one place
                // where `0.0 + c0·v` and `c0·v` differ in bits.
                for (i, v) in input.as_mut_slice().iter_mut().enumerate() {
                    *v = ((i * 2654435761) % 1013) as f64 / 7.0 - 60.3;
                }
                for shape in &shapes {
                    let mut want = info.allocate(fields);
                    want.fill(UNTOUCHED);
                    apply_bricks_serial(shape, &info, &input, &mut want, mask, field);
                    for isa in Isa::available() {
                        let plan = KernelPlan::with_isa(&info, shape, fields, field, isa);
                        assert_eq!(plan.isa(), isa);
                        let mut got = info.allocate(fields);
                        got.fill(UNTOUCHED);
                        plan.execute(&input, &mut got, mask);
                        assert_eq!(
                            bits(got.as_slice()),
                            bits(want.as_slice()),
                            "{} taps, brick {dims:?}, field {field} of {fields}, {}",
                            shape.points(),
                            isa.name()
                        );
                        for b in (0..info.bricks()).filter(|&b| !mask[b]) {
                            assert!(got.field(b as u32, field).iter().all(|&v| v == UNTOUCHED));
                        }
                        if fields == 2 {
                            assert!(got.field(0, 0).iter().all(|&v| v == UNTOUCHED));
                        }
                    }
                }
            }
        }
    }

    /// No silent fallback: a plan binds exactly the detected level, and
    /// a level above it is refused when the plan is built.
    #[test]
    fn plan_binds_detected_isa() {
        let (info, _, _) = setup(2, 4);
        let plan = KernelPlan::new(&info, &StencilShape::star7_default(), 1, 0);
        assert_eq!(plan.isa(), Isa::detect());
    }

    #[test]
    fn isa_above_detected_is_refused() {
        let top = Isa::detect();
        let Some(&above) = Isa::ALL.iter().find(|&&l| l > top) else {
            return; // already at the top level: nothing to refuse
        };
        let (info, _, _) = setup(2, 4);
        let err = std::panic::catch_unwind(|| {
            KernelPlan::with_isa(&info, &StencilShape::star7_default(), 1, 0, above)
        })
        .err()
        .expect("a level above the detected one must panic");
        let msg = err.downcast_ref::<String>().expect("assert message");
        assert!(msg.contains(above.name()) && msg.contains(top.name()), "{msg}");
    }

    /// Sparse compute masks leave skipped bricks untouched and agree
    /// with the gather path on computed ones.
    #[test]
    fn plan_respects_compute_mask() {
        let shape = StencilShape::star13_default();
        let (info, input, mut out_plan) = setup(2, 4);
        let mut out_gather = info.allocate(1);
        out_plan.fill(-3.5);
        out_gather.fill(-3.5);
        let mut compute = vec![true; info.bricks()];
        compute[0] = false;
        compute[5] = false;
        let plan = KernelPlan::new(&info, &shape, 1, 0);
        plan.execute(&input, &mut out_plan, &compute);
        apply_bricks_gather(&shape, &info, &input, &mut out_gather, &compute, 0);
        assert_eq!(out_plan.as_slice(), out_gather.as_slice());
        assert!(out_plan.field(0, 0).iter().all(|&v| v == -3.5));
    }

    /// Plans bound to a non-zero field leave the other fields alone.
    #[test]
    fn plan_multifield() {
        let grid = BrickGrid::<3>::lexicographic([2; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(4), &grid);
        let mut input = info.allocate(2);
        let mut output = info.allocate(2);
        for b in 0..info.bricks() as u32 {
            input.field_mut(b, 0).fill(1.0);
            input.field_mut(b, 1).fill(5.0);
        }
        output.fill(-1.0);
        let compute = vec![true; info.bricks()];
        let shape = StencilShape::cube125_default();
        let plan1 = KernelPlan::new(&info, &shape, 2, 1);
        plan1.execute(&input, &mut output, &compute);
        assert!((output.field(1, 1)[7] - 5.0).abs() < 1e-12);
        assert!(output.field(1, 0).iter().all(|&v| v == -1.0));
    }

    /// The profiled executor is bit-identical to the plain one and
    /// records a `kernel:plan` scope with a brick counter.
    #[test]
    fn profiled_execute_identical_and_records() {
        let shape = StencilShape::star13_default();
        let (info, input, mut out_a) = setup(2, 4);
        let mut out_b = info.allocate(1);
        let compute = vec![true; info.bricks()];
        let plan = KernelPlan::new(&info, &shape, 1, 0);
        plan.execute(&input, &mut out_a, &compute);
        let mut rec = telemetry::Recorder::disabled();
        rec.enable(0);
        plan.execute_profiled(&input, &mut out_b, &compute, &mut rec);
        assert_eq!(out_a.as_slice(), out_b.as_slice());
        let tl = rec.take_timeline();
        assert_eq!(tl.spans[0].name, "kernel:plan");
        assert!(tl.spans.len() >= 2, "scope plus at least one compute leaf");
        assert_eq!(tl.counters, vec![("bricks_computed", info.bricks() as u64)]);
    }

    /// Interior-then-boundary-batches execution through a [`PlanSplit`]
    /// is bit-identical to one full-mask execute: each brick runs
    /// exactly once and batch partition cannot change its bits.
    #[test]
    fn split_execution_bit_identical_to_full() {
        let shape = StencilShape::cube125_default();
        let (info, input, mut out_full) = setup(3, 4);
        let mut out_split = info.allocate(1);
        let compute = vec![true; info.bricks()];
        // A fake interior: every 3rd brick (the split only needs masks).
        let interior: Vec<bool> = (0..info.bricks()).map(|b| b % 3 == 0).collect();
        let plan = KernelPlan::new(&info, &shape, 1, 0);
        plan.execute(&input, &mut out_full, &compute);

        let mut split = PlanSplit::new(&interior, &compute);
        plan.execute(&input, &mut out_split, split.interior());
        let boundary: Vec<u32> = split.boundary().to_vec();
        assert_eq!(boundary.len() + split.interior_count(), info.bricks());
        for batch in boundary.chunks(5) {
            plan.execute(&input, &mut out_split, split.stage_batch(batch));
            split.clear_batch();
        }
        assert_eq!(out_split.as_slice(), out_full.as_slice());
    }

    /// The varcoef plan is bit-identical to a point-by-point serial
    /// reference that reads coefficients at the output point.
    #[test]
    fn varcoef_plan_matches_serial_reference() {
        use crate::varcoef::VARCOEF_FIELDS;
        use brick::BrickView;
        let grid = BrickGrid::<3>::lexicographic([2; 3], true);
        let info = BrickInfo::from_grid(BrickDims::cubic(4), &grid);
        let mut st = info.allocate(VARCOEF_FIELDS);
        let data: Vec<f64> = (0..st.as_slice().len())
            .map(|i| ((i * 40503) % 641) as f64 / 11.0 - 20.0)
            .collect();
        st.as_mut_slice().copy_from_slice(&data);
        let mask = vec![true; info.bricks()];
        let mut out_plan = info.allocate(VARCOEF_FIELDS);
        let plan = VarCoefPlan::new(&info, VARCOEF_FIELDS);
        plan.execute(&st, &mut out_plan, &mask);

        let u = BrickView::new(&info, &st, 0);
        let bd = info.brick_dims();
        for b in 0..info.bricks() as u32 {
            for z in 0..4isize {
                for y in 0..4isize {
                    for x in 0..4isize {
                        let idx = bd.flatten([x as usize, y as usize, z as usize]);
                        let mut acc = 0.0;
                        for (f, o) in VC_OFFS.iter().enumerate() {
                            let c = st.field(b, 1 + f)[idx];
                            acc += c
                                * u.get(
                                    b,
                                    [x + o[0] as isize, y + o[1] as isize, z + o[2] as isize],
                                );
                        }
                        assert_eq!(out_plan.field(b, 0)[idx], acc);
                    }
                }
            }
        }
    }
}
