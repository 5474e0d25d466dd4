//! Shift exchange — the dimension-by-dimension alternative to the
//! paper's all-neighbors-at-once ("Put") exchange (paper Section 8,
//! citing Palmer & Nieplocha): axis passes send only 2 messages each
//! and corner data reaches diagonal neighbors transitively, at the cost
//! of `D` serialized latency phases.
//!
//! The paper remarks Shift "is straightforward to implement using
//! memory mapping" — this module is that implementation: every pass
//! sends and receives through [`ContiguousView`]s, because the slabs
//! (which include previously-received ghost bricks) are scattered
//! across the layout-ordered storage.
//!
//! Each axis pass is one two-message communication plan (`plan.rs`) over
//! its four slab views, bound to the rank on first use. The phased
//! exchange runs the `D` plans in order; the split exchange runs all but
//! the last to completion and leaves the last one posted.

use std::io;
use std::ops::Range;

use brick::BrickStorage;
use layout::Dir;
use memview::{host_page_size, is_aligned, ContiguousView, Segment};
use netsim::{NetsimError, RankCtx};

use crate::decomp::BrickDecomp;
use crate::engine::{BrickExchange, SplitSetup};
use crate::exchange::ExchangeStats;
use crate::memmap::MemMapStorage;
use crate::plan::{Call, CommPlan, RecvSpec, SendSpec, Slabs};

/// One axis pass: the two slab views it sends (`[positive, negative]`
/// direction of travel) and the two it receives into, with the
/// two-message schedule over them.
struct ShiftPass {
    send_views: Vec<ContiguousView>,
    recv_views: Vec<ContiguousView>,
    sends: Vec<SendSpec>,
    recvs: Vec<RecvSpec>,
}

impl ShiftPass {
    /// Send and receive slabs are disjoint file ranges (owned band vs.
    /// ghost band along this axis).
    fn mem(&mut self) -> Slabs<'_> {
        let ([s0, s1], [r0, r1]) = (&self.send_views[..], &mut self.recv_views[..]) else {
            unreachable!("a pass has two slabs each way")
        };
        Slabs { sends: [s0.as_f64(), s1.as_f64()], recvs: [r0.as_f64_mut(), r1.as_f64_mut()] }
    }
}

/// A `D`-pass shift exchange bound to one [`MemMapStorage`]: one
/// two-message `CommPlan` per axis, run in order. Passes are
/// serialized data dependencies (corner data is forwarded axis by
/// axis), so only the last one can be split or ship early.
pub struct ShiftExchanger {
    passes: Vec<ShiftPass>,
    stats: ExchangeStats,
    dims: usize,
    /// The storage file the views alias (checked on every exchange).
    bound_file: std::sync::Arc<memview::MemFile>,
    /// One plan per pass, bound lazily on first exchange so the
    /// steady-state loop allocates nothing (empty until then). A pass
    /// along a single-rank axis is a plan whose two sends are
    /// loopback-paired.
    plans: Vec<CommPlan>,
    /// Physical brick indices of the final pass's two receive slabs
    /// (receive order `[positive, negative]`) — the ghost bricks a
    /// dependency-graph driver gates boundary compute on.
    final_recv_bricks: [Vec<u32>; 2],
    /// Physical brick indices of the final pass's two send slabs, in
    /// view order — the partition map for early-bird mode.
    final_send_bricks: [Vec<u32>; 2],
}

impl ShiftExchanger {
    /// Build the per-axis slab views. Requires page-aligned bricks
    /// (e.g. a [`crate::memmap::memmap_decomp`] decomposition, or 8³
    /// f64 bricks whose 4 KiB exactly tile host pages).
    pub fn build<const D: usize>(
        decomp: &BrickDecomp<D>,
        storage: &MemMapStorage,
    ) -> io::Result<ShiftExchanger> {
        let step = decomp.step();
        let brick_bytes = step * 8;
        let host = host_page_size();
        assert!(
            is_aligned(brick_bytes, host),
            "shift views need every brick page-aligned (brick bytes must be \
             a multiple of the host page; 8^3 f64 bricks are exactly 4 KiB)"
        );
        let ext = decomp.grid_extents();
        let gb = decomp.ghost_bricks();
        let mb = decomp.owned_bricks();

        let mut passes = Vec::with_capacity(D);
        let mut stats = ExchangeStats::default();
        let mut final_recv_bricks: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        let mut final_send_bricks: [Vec<u32>; 2] = [Vec::new(), Vec::new()];

        for axis in 0..D {
            // Per-axis coordinate ranges of the slab cross-section:
            // axes already exchanged span the full extended grid (their
            // ghosts are valid and must be forwarded); later axes span
            // only the owned range.
            let cross = |b: usize| -> Range<usize> {
                if b < axis {
                    0..ext[b]
                } else {
                    gb[b]..gb[b] + mb[b]
                }
            };

            let mut pass = ShiftPass {
                send_views: Vec::with_capacity(2),
                recv_views: Vec::with_capacity(2),
                sends: Vec::with_capacity(2),
                recvs: Vec::with_capacity(2),
            };
            for positive in [true, false] {
                let send_band = if positive {
                    gb[axis] + mb[axis] - gb[axis]..gb[axis] + mb[axis]
                } else {
                    gb[axis]..2 * gb[axis]
                };
                let recv_band = if positive {
                    // Receiving from N(-axis): fills my low ghost band.
                    0..gb[axis]
                } else {
                    ext[axis] - gb[axis]..ext[axis]
                };

                let dir = Dir::from_offsets(&axis_offsets::<D>(axis, positive));
                let tag = SHIFT_TAG_BASE + (axis as u64) * 4 + positive as u64;

                let send_bricks = slab_bricks(decomp, axis, send_band, &cross);
                let recv_bricks = slab_bricks(decomp, axis, recv_band, &cross);
                assert_eq!(send_bricks.len(), recv_bricks.len());
                let (elems, bytes) = (send_bricks.len() * step, send_bricks.len() * brick_bytes);

                pass.send_views.push(build_view(storage, &send_bricks, brick_bytes)?);
                pass.recv_views.push(build_view(storage, &recv_bricks, brick_bytes)?);
                pass.sends.push(SendSpec { to: dir, tag, elems, payload_bytes: bytes });
                pass.recvs.push(RecvSpec { from: dir.mirror(), tag, elems });
                stats.messages += 1;
                stats.payload_bytes += bytes;
                stats.wire_bytes += bytes;
                stats.region_instances += 1;
                if axis + 1 == D {
                    final_recv_bricks[if positive { 0 } else { 1 }] = recv_bricks;
                    final_send_bricks[if positive { 0 } else { 1 }] = send_bricks;
                }
            }
            passes.push(pass);
        }

        Ok(ShiftExchanger {
            passes,
            stats,
            dims: D,
            bound_file: std::sync::Arc::clone(storage.file()),
            plans: Vec::new(),
            final_recv_bricks,
            final_send_bricks,
        })
    }

    /// Traffic statistics: `2·D` messages; wire bytes exceed the Put
    /// exchange's because earlier axes' ghosts are forwarded.
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    /// Bind one plan per pass to `ctx`'s rank if this exchanger has not
    /// yet been driven on it (idempotent otherwise; a rebind drops all
    /// protocol state with the old plans). [`Self::exchange`] calls this
    /// itself.
    pub fn ensure_bound(&mut self, ctx: &RankCtx<'_>, storage: &MemMapStorage) {
        assert!(
            std::sync::Arc::ptr_eq(&self.bound_file, storage.file()),
            "ShiftExchanger driven with a different storage than it was built on \
             (its views alias the original storage's memory)"
        );
        if self.plans.first().is_none_or(|p| p.rank() != ctx.rank()) {
            self.plans = self
                .passes
                .iter()
                .enumerate()
                .map(|(p, pass)| {
                    let name = PASS_NAMES[p.min(PASS_NAMES.len() - 1)];
                    CommPlan::bind(Some(name), ctx, self.dims, &pass.sends, &pass.recvs, true).recvs_first()
                })
                .collect();
        }
    }

    /// One full exchange: `D` serialized passes of two messages each.
    /// A pass whose neighbor is this rank itself (proxy mode) copies
    /// view-to-view via the loopback fast path. Steady state allocates
    /// nothing. Under lossy faults each remote pass runs its plan's
    /// retry protocol; passes stay serialized, so forwarded corner data
    /// is recovered before the next axis depends on it.
    pub fn exchange(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut MemMapStorage,
    ) -> Result<(), NetsimError> {
        self.ensure_bound(ctx, storage);
        self.call(ctx, &mut storage.storage, Call::Exchange).map(drop)
    }

    /// Run every pass but the final one to completion, in order.
    fn pre_passes(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        let n = self.passes.len() - 1;
        for (plan, pass) in self.plans.iter_mut().zip(&mut self.passes).take(n) {
            plan.exchange(ctx, &mut pass.mem())?;
        }
        Ok(())
    }
}

/// Each grid has its own slab views. Earlier passes are serialized data
/// dependencies (corner data is forwarded axis by axis), so every call
/// but a whole or begun exchange concerns the final pass alone.
impl BrickExchange for ShiftExchanger {
    type Schedule = ();

    fn open(_: &(), decomp: &BrickDecomp<3>, ctx: &RankCtx<'_>) -> ([BrickStorage; 2], Vec<Self>) {
        let grids = [(); 2].map(|()| MemMapStorage::allocate(decomp).expect("memfd allocation"));
        let shifts = grids.iter().map(|grid| {
            let mut shift = ShiftExchanger::build(decomp, grid).expect("view construction");
            shift.ensure_bound(ctx, grid);
            shift
        });
        let shifts = shifts.collect();
        (grids.map(|grid| grid.storage), shifts)
    }

    fn stats(&self) -> ExchangeStats {
        self.stats
    }

    fn plans(&mut self) -> &mut [CommPlan] {
        &mut self.plans
    }

    /// Only the final pass is partitioned: earlier passes' payloads
    /// depend on received ghosts, so no brick of theirs is ready before
    /// the step's exchange anyway. Bricks received by earlier passes
    /// interleave the final slabs and are never marked ready, so they
    /// bound the shippable prefix. A local (single-rank-axis) final pass
    /// has nothing to partition and stays on the classic path; its
    /// ghosts are filled by loopback when it begins, so it has no
    /// receive to wait on either.
    fn arm(&mut self, decomp: &BrickDecomp<3>, partitioned: bool) -> SplitSetup {
        let plan = self.plans.last_mut().expect("bound when opened");
        let slabs = &self.final_send_bricks;
        if partitioned && !plan.mailbox().is_empty() {
            plan.enable_partitioned(decomp.step(), decomp.bricks(), |i| slabs[i].iter().map(|&b| b as usize).collect());
        }
        let ghosts = plan.mailbox().iter().map(|&j| self.final_recv_bricks[j].clone()).collect();
        (ghosts, plan.priority().cloned())
    }

    /// The slab views alias `grid`, which stays mutably borrowed while
    /// they are written through.
    fn call(&mut self, ctx: &mut RankCtx<'_>, _grid: &mut BrickStorage, call: Call<'_>) -> Result<usize, NetsimError> {
        ctx.scoped(SCOPE, |ctx| {
            if matches!(call, Call::Exchange | Call::Begin(_)) {
                self.pre_passes(ctx)?;
            }
            let plan = self.plans.last_mut().expect("call ensure_bound first");
            plan.call(ctx, &mut self.passes.last_mut().expect("at least one axis").mem(), call)
        })
    }
}

/// Timeline scope of a whole exchange; the passes nest inside it.
const SCOPE: &str = "exchange:shift";

/// Timeline scope names for the serialized axis passes.
const PASS_NAMES: [&str; 4] = ["shift:pass-x", "shift:pass-y", "shift:pass-z", "shift:pass-w"];

/// Tag namespace for shift messages (distinct from the Put exchange's
/// direction-code tags).
const SHIFT_TAG_BASE: u64 = 0x5317_0000;

fn axis_offsets<const D: usize>(axis: usize, positive: bool) -> Vec<i8> {
    let mut o = vec![0i8; D];
    o[axis] = if positive { 1 } else { -1 };
    o
}

/// Enumerate slab bricks (extended-grid coords with `coord[axis]` in
/// `band` and other axes in `cross(b)`), in lexicographic order, as
/// physical brick indices.
fn slab_bricks<const D: usize>(
    decomp: &BrickDecomp<D>,
    axis: usize,
    band: Range<usize>,
    cross: &dyn Fn(usize) -> Range<usize>,
) -> Vec<u32> {
    let mut ranges: Vec<Range<usize>> = (0..D).map(cross).collect();
    ranges[axis] = band;
    let mut out = Vec::new();
    let mut coord = [0usize; D];
    enumerate(&ranges, 0, &mut coord, &mut |c| out.push(decomp.brick_at(*c)));
    out
}

fn enumerate<const D: usize>(
    ranges: &[Range<usize>],
    axis: usize,
    coord: &mut [usize; D],
    f: &mut impl FnMut(&[usize; D]),
) {
    if axis == D {
        f(coord);
        return;
    }
    // The order only needs to be *shared* between the send and receive
    // slabs (they correspond element-wise under translation).
    for v in ranges[axis].clone() {
        coord[axis] = v;
        enumerate(ranges, axis + 1, coord, f);
    }
}

/// Coalesce consecutive brick indices into file segments and build a
/// view.
fn build_view(
    storage: &MemMapStorage,
    bricks: &[u32],
    brick_bytes: usize,
) -> io::Result<ContiguousView> {
    assert!(!bricks.is_empty(), "empty shift slab");
    let mut segments: Vec<Segment> = Vec::new();
    let mut run_start = bricks[0] as usize;
    let mut run_len = 1usize;
    for w in bricks.windows(2) {
        if w[1] == w[0] + 1 {
            run_len += 1;
        } else {
            segments.push(Segment {
                file_offset: run_start * brick_bytes,
                len: run_len * brick_bytes,
            });
            run_start = w[1] as usize;
            run_len = 1;
        }
    }
    segments.push(Segment { file_offset: run_start * brick_bytes, len: run_len * brick_bytes });
    ContiguousView::build(storage.file(), &segments)
}
