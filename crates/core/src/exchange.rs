//! Pack-free ghost-zone exchange (paper Section 3) and the one brick
//! exchange every brick method runs.
//!
//! With the decomposition's layout-ordered storage, every message is a
//! contiguous range of bricks: sends are sub-slices of the storage and
//! receives land directly in ghost bricks — no packing ever happens.
//!
//! * [`Exchanger::layout`] sends one message per *run* of consecutive
//!   regions (42 messages in 3D under `surface3d`).
//! * [`Exchanger::basic`] sends every region instance separately (98
//!   messages in 3D) — the paper's unoptimized Basic reference.
//!
//! An [`Exchanger`] is a rank-independent direction schedule, and
//! [`Exchanger::exchange`] the allocating reference path the sessions
//! are tested against. The brick methods differ only in where their
//! halo bytes live, which a [`Exchanger`] says: passes whose messages
//! are ranges of the grid's storage or views over its file (`memmap.rs`
//! cuts the views, `shift.rs` builds Shift's passes). Each rank cuts and
//! binds an [`ExchangeSession`] from it: one communication plan
//! (`plan.rs`) per pass, which owns the whole send/receive/wait
//! lifecycle.

use std::borrow::{Borrow, BorrowMut};
use std::io;
use std::ops::Range;

use brick::BrickStorage;
use layout::{all_regions, Dir};
use netsim::{NetsimError, RankCtx, RecvHandle};

use crate::decomp::BrickDecomp;
use crate::engine::SplitSetup;
use crate::memmap::{cut_view, MemMapStorage};
use crate::plan::{self, Call, CommPlan, GridMem, Places, RecvSpec, SendSpec};

/// One message of a schedule pass: the neighbor direction it travels
/// toward (a send) or arrives from (a receive), its tag, and the padded
/// storage bricks composing it, as runs in wire order (padded, so byte
/// ranges are alignment-faithful).
#[derive(Clone, Debug)]
pub struct Msg {
    /// Neighbor direction: toward it for a send, from it for a receive
    /// (ghost group `g(S)`).
    pub dir: Dir,
    /// Matching tag (shared convention with the peer).
    pub tag: u64,
    /// Brick runs composing the message, in wire order.
    pub runs: Vec<Range<usize>>,
    /// Payload bytes, padding excluded (0 for a receive).
    pub payload_bytes: usize,
}

impl Msg {
    /// The message's bricks in wire order: its partitions on a
    /// partitioned channel, or the ghost bricks a receive fills.
    fn bricks(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(Range::clone)
    }

    /// The element range of a one-run message in the storage.
    fn range(&self, step: usize) -> Range<usize> {
        let [run] = &self.runs[..] else { panic!("a message of several runs is a view") };
        run.start * step..run.end * step
    }
}

/// One communication plan's worth of an [`Exchanger`] schedule.
#[derive(Clone, Debug)]
pub(crate) struct Pass {
    /// Timeline scope of the pass.
    pub scope: &'static str,
    pub sends: Vec<Msg>,
    pub recvs: Vec<Msg>,
    /// Each send (receive) is a view gluing its runs together; otherwise
    /// it is one run, a range of the grid's storage.
    pub send_views: bool,
    pub recv_views: bool,
    /// Post receives before sends: `irecv` bills `o`, so the order moves
    /// `call` when peers sit on different tiers.
    pub recvs_first: bool,
}

/// Traffic accounting for one full exchange.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExchangeStats {
    /// Messages sent (= received).
    pub messages: usize,
    /// Real data bytes per exchange.
    pub payload_bytes: usize,
    /// Bytes on the wire (payload + padding filler).
    pub wire_bytes: usize,
    /// Non-empty region instances sent (Basic's message count).
    pub region_instances: usize,
}

impl ExchangeStats {
    /// Table 2's metric: extra wire traffic from padding, percent.
    pub fn padding_overhead_percent(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 0.0;
        }
        (self.wire_bytes as f64 / self.payload_bytes as f64 - 1.0) * 100.0
    }
}

/// A brick method's exchange schedule: passes run in order, each message
/// a range of the grid's storage or a view gluing runs of its file
/// together. The pattern is Static, so it is built once per run and
/// rank-independent; each rank cuts and binds an [`ExchangeSession`]
/// from it. The brick methods differ only here:
///
/// * Layout, Basic and No-Layout: [`Exchanger::layout`] and
///   [`Exchanger::basic`], one pass of ranges (No-Layout is Layout over
///   a lexicographic decomposition);
/// * MemMap: [`Exchanger::memmap`], one pass of per-neighbor view sends
///   into receive ranges;
/// * Shift: [`Exchanger::shift`], one pass of slab views per axis.
#[derive(Clone, Debug)]
pub struct Exchanger {
    /// Timeline scope of a whole exchange; the passes' scopes nest in it.
    pub(crate) scope: Option<&'static str>,
    pub(crate) passes: Vec<Pass>,
    pub(crate) stats: ExchangeStats,
    /// Elements per padded brick.
    pub(crate) step: usize,
    pub(crate) dims: usize,
}

impl Exchanger {
    /// Layout-optimized schedule: one message per contiguous run.
    pub fn layout<const D: usize>(decomp: &BrickDecomp<D>) -> Exchanger {
        Self::build(decomp, false)
    }

    /// Basic schedule: one message per region instance.
    pub fn basic<const D: usize>(decomp: &BrickDecomp<D>) -> Exchanger {
        Self::build(decomp, true)
    }

    fn build<const D: usize>(decomp: &BrickDecomp<D>, per_region: bool) -> Exchanger {
        let scope = if per_region { "exchange:basic" } else { "exchange:layout" };
        let step = decomp.step();
        let brick_bytes = step * 8;
        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        let mut stats = ExchangeStats::default();

        for s in all_regions(D) {
            // --- Sends toward N(s): runs of {T ⊇ s} in layout order. ---
            let nplan = decomp.plan().neighbor(&s);
            let mut run_tag = 0u64;
            for run in &nplan.send_runs {
                let chunks: Vec<_> = run.clone().map(|i| &decomp.surface_chunks()[i]).collect();
                let pieces: Vec<(Range<usize>, usize)> = if per_region {
                    chunks.iter().map(|c| (c.padded.clone(), c.len())).collect()
                } else {
                    let payload = chunks.iter().map(|c| c.len()).sum();
                    vec![(chunks[0].padded.start..chunks[chunks.len() - 1].padded.end, payload)]
                };
                for (range, payload) in pieces {
                    if payload == 0 {
                        continue;
                    }
                    stats.messages += 1;
                    stats.payload_bytes += payload * brick_bytes;
                    stats.wire_bytes += range.len() * brick_bytes;
                    let (tag, payload_bytes) = (tag_for(&s, run_tag, D), payload * brick_bytes);
                    sends.push(Msg { dir: s, tag, runs: vec![range], payload_bytes });
                    run_tag += 1;
                }
            }
            stats.region_instances += nplan.send_regions.iter().filter(|t| decomp.region_bricks(t) > 0).count();

            // --- Receives from N(s): the sender's runs toward -s map
            // onto my ghost pieces of g(s), which are stored in exactly
            // the sender's order. ---
            let group = decomp.ghost_group(&s);
            let sender_plan = decomp.plan().neighbor(&s.mirror());
            let from_tag_dir = s.mirror();
            let mut run_tag = 0u64;
            let mut piece_idx = 0usize;
            for run in &sender_plan.send_runs {
                let n = run.end - run.start;
                let pieces = &group.pieces[piece_idx..piece_idx + n];
                piece_idx += n;
                let recv_pieces: Vec<(Range<usize>, usize)> = if per_region {
                    pieces.iter().map(|p| (p.padded.clone(), p.len())).collect()
                } else {
                    let payload = pieces.iter().map(|p| p.len()).sum();
                    vec![(pieces[0].padded.start..pieces[n - 1].padded.end, payload)]
                };
                for (range, payload) in recv_pieces {
                    if payload == 0 {
                        continue;
                    }
                    let tag = tag_for(&from_tag_dir, run_tag, D);
                    recvs.push(Msg { dir: s, tag, runs: vec![range], payload_bytes: 0 });
                    run_tag += 1;
                }
            }
            debug_assert_eq!(piece_idx, group.pieces.len());
        }

        assert_eq!(sends.len(), recvs.len(), "exchange must be symmetric");
        let pass = Pass { scope, sends, recvs, send_views: false, recv_views: false, recvs_first: false };
        Exchanger { scope: None, passes: vec![pass], stats, step, dims: D }
    }

    /// Traffic statistics.
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    /// The outgoing messages of the first pass (a Put schedule's only one).
    pub fn sends(&self) -> &[Msg] {
        &self.passes[0].sends
    }

    /// The incoming messages of the first pass.
    pub fn recvs(&self) -> &[Msg] {
        &self.passes[0].recvs
    }

    /// Whether some message is a view: each grid then needs an exchange
    /// of its own, cut over its file.
    pub fn has_views(&self) -> bool {
        self.passes.iter().any(|p| p.send_views || p.recv_views)
    }

    /// Bind a schedule of ranges to one rank as a persistent session:
    /// neighbor ranks, tags, element ranges and loopback pairings are
    /// resolved once, so [`ExchangeSession::exchange`] does zero per-step
    /// heap allocation. Self-sends (the single-rank proxy mode) take the
    /// loopback fast path: one copy, identical wire-model charges.
    pub fn session(&self, ctx: &RankCtx<'_>) -> ExchangeSession {
        self.bound(ctx, true)
    }

    /// Like [`Exchanger::session`] but self-sends still travel through
    /// the mailbox — always on its eager path (two copies through a pooled
    /// buffer): a self-send is never written into a lent window. Exists so
    /// benches and equivalence tests can compare the fast path against the
    /// reference transport.
    pub fn session_mailbox(&self, ctx: &RankCtx<'_>) -> ExchangeSession {
        self.bound(ctx, false)
    }

    fn bound(&self, ctx: &RankCtx<'_>, loopback: bool) -> ExchangeSession {
        let mut session = ExchangeSession::new(self, None).expect("ranges map nothing");
        session.loopback = loopback;
        session.bind(ctx);
        session
    }

    /// Perform one full ghost-zone exchange of a schedule of ranges: post
    /// every send as a zero-copy storage sub-slice, then receive every
    /// message directly into its ghost bricks, pass by pass. No pack time
    /// is ever charged because no packing happens.
    ///
    /// This is the allocating reference path kept for comparison and
    /// one-shot use; timestep loops should build a
    /// [`session`](Exchanger::session) and drive that instead.
    pub fn exchange(&self, ctx: &mut RankCtx<'_>, storage: &mut BrickStorage) -> Result<(), NetsimError> {
        assert!(!self.has_views(), "the reference exchange moves storage ranges only");
        plan::scoped(ctx, self.scope, |ctx| {
            self.passes.iter().try_for_each(|p| ctx.scoped(p.scope, |ctx| self.exchange_pass(ctx, p, storage)))
        })
    }

    fn exchange_pass(&self, ctx: &mut RankCtx<'_>, pass: &Pass, storage: &mut BrickStorage) -> Result<(), NetsimError> {
        let rank = ctx.rank();
        let peer = |ctx: &RankCtx<'_>, dir: &Dir| {
            ctx.topo()
                .neighbor(rank, &dir.offsets(self.dims))
                .expect("exchange requires a periodic (or interior) neighbor")
        };
        // Sends: contiguous sub-slices of the storage.
        for m in &pass.sends {
            let dest = peer(ctx, &m.dir);
            ctx.note_payload(m.payload_bytes);
            ctx.isend(dest, m.tag, &storage.as_slice()[m.range(self.step)])?;
        }
        // Receives: directly into ghost brick ranges.
        let mut handles: Vec<RecvHandle> = Vec::with_capacity(pass.recvs.len());
        for m in &pass.recvs {
            handles.push(ctx.irecv(peer(ctx, &m.dir), m.tag)?);
        }
        let ranges: Vec<Range<usize>> = pass.recvs.iter().map(|m| m.range(self.step)).collect();
        let mut bufs = split_disjoint_mut(storage.as_mut_slice(), &ranges);
        ctx.waitall_into(&handles, &mut bufs)
    }
}

/// One grid's brick exchange, bound to one rank: a [`Exchanger`] cut
/// over the grid — each message a range of its storage or a view over
/// its file — and one `CommPlan` per pass, which owns the
/// send/receive/wait lifecycle. Ranges index any grid of the
/// decomposition, so heap grids share one exchange; a grid that views
/// alias gets its own. Everything per step is resolved when the exchange
/// is cut and bound (the pattern is Static, per the paper), so the
/// steady state allocates nothing. Self-sends take the loopback fast
/// path: one copy, billed as the `isend` + `irecv` pair it replaces.
/// Under lossy faults each plan's retry protocol converges to the exact
/// bits of the fault-free exchange.
pub struct ExchangeSession {
    schedule: Exchanger,
    /// Per pass: where its sends and its receives live in the grid.
    places: Vec<[Places; 2]>,
    /// Start of the grid the views alias, the only grid this exchange
    /// may move (`None`: ranges only, any grid of the decomposition).
    grid: Option<usize>,
    /// One plan per pass, bound to a rank on first use (empty until then).
    plans: Vec<CommPlan>,
    /// Pair self-sends with the receives they satisfy (off for
    /// [`Exchanger::session_mailbox`]).
    loopback: bool,
    pend: Vec<Range<usize>>,
    /// Reused by the completions of view receives; empty between calls.
    bufs: Vec<&'static mut [f64]>,
}

impl ExchangeSession {
    /// The one constructor: `schedule` cut over a grid. Ranges need no
    /// grid; views are cut over `grid`'s file, and the exchange then
    /// moves that grid alone. [`Self::ensure_bound`] or the first
    /// exchange binds it to a rank.
    pub fn new(schedule: &Exchanger, grid: Option<&MemMapStorage>) -> io::Result<ExchangeSession> {
        let step = schedule.step;
        let cut = |msgs: &[Msg], views: bool| -> io::Result<Places> {
            if !views {
                return Ok(Places::Ranges(msgs.iter().map(|m| m.range(step)).collect()));
            }
            let file = grid.expect("a schedule with views is cut over a mapped grid").file();
            msgs.iter().map(|m| cut_view(file, &m.runs, step * 8)).collect::<io::Result<_>>().map(Places::Views)
        };
        let places = schedule.passes.iter().map(|p| Ok([cut(&p.sends, p.send_views)?, cut(&p.recvs, p.recv_views)?]));
        Ok(ExchangeSession {
            places: places.collect::<io::Result<_>>()?,
            grid: grid.filter(|_| schedule.has_views()).map(|g| g.storage.as_slice().as_ptr() as usize),
            schedule: schedule.clone(),
            plans: Vec::new(),
            loopback: true,
            pend: Vec::new(),
            bufs: Vec::new(),
        })
    }

    /// MemMap's exchange over `storage`: [`Exchanger::memmap`] cut
    /// over its file.
    // Kept for the `ExchangeView::build` callers until ROADMAP item 3
    // moves them onto `ExchangeSession::new`.
    pub fn build<const D: usize>(decomp: &BrickDecomp<D>, storage: &MemMapStorage) -> io::Result<ExchangeSession> {
        ExchangeSession::new(&Exchanger::memmap(decomp), Some(storage))
    }

    /// Traffic of one exchange.
    pub fn stats(&self) -> ExchangeStats {
        self.schedule.stats
    }

    /// `mmap` segments across this exchange's views — bounded by the
    /// kernel's `vm.max_map_count`. File-contiguous bricks share one
    /// segment, so MemMap maps one per Layout run: 42 under `surface3d`
    /// and, in lexicographic order, 42 at 16³ and 62 from 32³.
    pub fn mapped_segments(&self) -> usize {
        let views = self.places.iter().flatten().filter_map(|p| match p {
            Places::Views(views) => Some(views),
            Places::Ranges(_) => None,
        });
        views.flatten().map(|v| v.segments().len()).sum()
    }

    /// Bind the schedule to `ctx`'s rank if this exchange has not yet
    /// been driven on it (idempotent otherwise; a rebind drops all
    /// protocol state with the old plans). [`Self::exchange`] calls this
    /// itself; a dependency-graph driver calls it up front so the
    /// mailbox receives are known before the first exchange.
    pub fn ensure_bound(&mut self, ctx: &RankCtx<'_>, grid: &impl Borrow<BrickStorage>) {
        self.check(grid.borrow());
        if self.plans.first().is_none_or(|p| p.rank() != ctx.rank()) {
            self.bind(ctx);
        }
    }

    fn bind(&mut self, ctx: &RankCtx<'_>) {
        let Exchanger { passes, step, dims, .. } = &self.schedule;
        let elems = |m: &Msg| m.runs.iter().map(|r| r.len() * step).sum();
        let plan = |p: &Pass| {
            let sends: Vec<SendSpec> = p
                .sends
                .iter()
                .map(|m| SendSpec { to: m.dir, tag: m.tag, elems: elems(m), payload_bytes: m.payload_bytes })
                .collect();
            let recvs: Vec<RecvSpec> =
                p.recvs.iter().map(|m| RecvSpec { from: m.dir, tag: m.tag, elems: elems(m) }).collect();
            let plan = CommPlan::bind(Some(p.scope), ctx, *dims, &sends, &recvs, self.loopback);
            if p.recvs_first {
                plan.recvs_first()
            } else {
                plan
            }
        };
        self.plans = passes.iter().map(plan).collect();
    }

    /// An exchange whose views alias one grid refuses any other: its
    /// views would move the original grid's memory.
    fn check(&self, grid: &BrickStorage) {
        assert!(
            self.grid.is_none_or(|at| at == grid.as_slice().as_ptr() as usize),
            "exchange driven with a different storage than it was cut over \
             (its views alias the original storage's memory)"
        );
    }

    /// One full ghost-zone exchange of `grid` (heap bricks, or the
    /// [`MemMapStorage`] this exchange was cut over), binding the
    /// schedule to the rank on the first call.
    pub fn exchange(
        &mut self,
        ctx: &mut RankCtx<'_>,
        grid: &mut impl BorrowMut<BrickStorage>,
    ) -> Result<(), NetsimError> {
        let grid: &mut BrickStorage = grid.borrow_mut();
        self.ensure_bound(ctx, grid);
        self.call(ctx, grid, Call::Exchange).map(drop)
    }

    /// Element ranges of the last pass's unpaired (mailbox) receives, in
    /// schedule order, when its receives are ranges. Split-exchange
    /// completion indices index into this list; a dependency graph maps
    /// them back to the ghost bricks they fill.
    pub fn recv_ranges(&self) -> Vec<Range<usize>> {
        let (Some([_, Places::Ranges(ranges)]), Some(plan)) = (self.places.last(), self.plans.last()) else {
            panic!("recv_ranges needs a bound exchange whose receives are ranges");
        };
        plan.mailbox().iter().map(|&j| ranges[j].clone()).collect()
    }

    /// The plans one exchange runs, in order; a split exchange leaves the
    /// last one posted.
    pub(crate) fn plans(&mut self) -> &mut [CommPlan] {
        &mut self.plans
    }

    /// Prepare the split exchange: open the last pass's partitioned
    /// channels when `partitioned` and it has mailbox traffic, and
    /// return the ghost bricks each of its mailbox receives fills, with
    /// the channels' priority classes. Earlier passes send what they
    /// received, so none of their bricks is ready before the step's
    /// exchange; a last pass with no mailbox traffic fills its ghosts by
    /// loopback when it begins.
    pub(crate) fn arm(&mut self, decomp: &BrickDecomp<3>, partitioned: bool) -> SplitSetup {
        let pass = self.schedule.passes.last().expect("a schedule has a pass");
        let plan = self.plans.last_mut().expect("bound before it is armed");
        if partitioned && !plan.mailbox().is_empty() {
            plan.enable_partitioned(decomp.step(), decomp.bricks(), |i| pass.sends[i].bricks().collect());
        }
        let ghosts = plan.mailbox().iter().map(|&j| pass.recvs[j].bricks().map(|b| b as u32).collect());
        (ghosts.collect(), plan.priority().cloned())
    }

    /// Make `call` on `grid`: a whole or begun exchange runs every pass
    /// but the last to completion first (each forwards what the one
    /// before it received); every other call concerns the last pass.
    pub(crate) fn call(
        &mut self,
        ctx: &mut RankCtx<'_>,
        grid: &mut BrickStorage,
        call: Call<'_>,
    ) -> Result<usize, NetsimError> {
        self.check(grid);
        let ExchangeSession { schedule, places, plans, pend, bufs, .. } = self;
        let last = plans.len().checked_sub(1).expect("call ensure_bound first");
        let mut run = |ctx: &mut RankCtx<'_>, p: usize, call: Call<'_>| {
            let [sends, recvs] = &mut places[p];
            let mut mem = GridMem { data: grid.as_mut_slice().into(), sends, recvs, pend, bufs };
            plans[p].call(ctx, &mut mem, call)
        };
        plan::scoped(ctx, schedule.scope, |ctx| {
            if matches!(call, Call::Exchange | Call::Begin(_)) {
                (0..last).try_for_each(|p| run(ctx, p, Call::Exchange).map(drop))?;
            }
            run(ctx, last, call)
        })
    }
}

/// Message tag convention shared by both sides: direction code of the
/// *sender's* send direction, then the run index.
fn tag_for(send_dir: &Dir, run: u64, d: usize) -> u64 {
    (send_dir.code(d) as u64) << 16 | run
}

/// Split `slice` into mutable sub-slices for `ranges`, which must be
/// sorted and pairwise disjoint.
pub fn split_disjoint_mut<'a>(
    mut slice: &'a mut [f64],
    ranges: &[std::ops::Range<usize>],
) -> Vec<&'a mut [f64]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0usize;
    for r in ranges {
        assert!(r.start >= consumed, "ranges must be sorted and disjoint");
        let (_skip, rest) = slice.split_at_mut(r.start - consumed);
        let (take, rest) = rest.split_at_mut(r.end - r.start);
        out.push(take);
        slice = rest;
        consumed = r.end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick::BrickDims;
    use layout::{surface3d, SurfaceLayout};
    use netsim::{run_cluster, run_cluster_faulty, CartTopo, FaultConfig, NetworkModel};

    fn decomp(n: usize) -> BrickDecomp<3> {
        BrickDecomp::layout_mode([n; 3], 8, BrickDims::cubic(8), 1, surface3d())
    }

    #[test]
    fn layout_message_count_is_42() {
        let d = decomp(48); // all regions non-empty
        let ex = Exchanger::layout(&d);
        assert_eq!(ex.stats().messages, 42);
        assert_eq!(ex.stats().region_instances, 98);
        assert_eq!(ex.stats().padding_overhead_percent(), 0.0);
    }

    #[test]
    fn basic_message_count_is_98() {
        let d = decomp(48);
        let ex = Exchanger::basic(&d);
        assert_eq!(ex.stats().messages, 98);
    }

    #[test]
    fn lexicographic_layout_message_count_between() {
        let d = BrickDecomp::<3>::layout_mode(
            [48; 3],
            8,
            BrickDims::cubic(8),
            1,
            SurfaceLayout::lexicographic(3),
        );
        let ex = Exchanger::layout(&d);
        assert!(ex.stats().messages > 42);
        assert!(ex.stats().messages <= 98);
        assert_eq!(ex.stats().messages as u64, d.layout().message_count());
    }

    /// The realized message count always equals the layout analysis'
    /// geometry-aware prediction.
    #[test]
    fn realized_count_matches_analysis() {
        for n in [16usize, 24, 32, 48] {
            let d = decomp(n);
            let ex = Exchanger::layout(&d);
            let predicted = d.layout().message_count_with(|t| d.region_bricks(t) > 0);
            assert_eq!(ex.stats().messages as u64, predicted, "n={n}");
        }
    }

    #[test]
    fn payload_matches_surface_geometry() {
        let d = decomp(32);
        let ex = Exchanger::layout(&d);
        // Payload = sum over region instances of region bytes.
        let expect: usize = all_regions(3)
            .iter()
            .flat_map(|s| d.plan().neighbor(s).send_regions.clone())
            .map(|t| d.region_bricks(&t) * d.step() * 8)
            .sum();
        assert_eq!(ex.stats().payload_bytes, expect);
        assert_eq!(ex.stats().wire_bytes, expect);
    }

    #[test]
    fn split_disjoint_basics() {
        let mut v: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let parts = split_disjoint_mut(&mut v, &[(1..3), (5..6), (8..10)]);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &[1.0, 2.0]);
        assert_eq!(parts[1], &[5.0]);
        assert_eq!(parts[2], &[8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn split_overlapping_panics() {
        let mut v = vec![0.0; 10];
        let _ = split_disjoint_mut(&mut v, &[(1..5), (4..6)]);
    }

    /// The definitive correctness test: a self-periodic single rank
    /// exchanges with itself; afterwards every ghost element must equal
    /// the periodic wrap of the interior.
    #[test]
    fn self_periodic_exchange_fills_ghosts() {
        for per_region in [false, true] {
            let d = decomp(32);
            let ex = if per_region { Exchanger::basic(&d) } else { Exchanger::layout(&d) };
            let topo = CartTopo::new(&[1, 1, 1], true);
            let results = run_cluster(&topo, NetworkModel::instant(), |ctx| {
                let mut st = d.allocate();
                let f = |x: i64, y: i64, z: i64| (x + 100 * y + 10_000 * z) as f64;
                for z in 0..32 {
                    for y in 0..32 {
                        for x in 0..32 {
                            let off = d.element_offset([x, y, z], 0);
                            st.as_mut_slice()[off] = f(x as i64, y as i64, z as i64);
                        }
                    }
                }
                ex.exchange(ctx, &mut st).unwrap();
                // Verify the full ghost rim.
                let g = 8isize;
                let n = 32isize;
                let mut errors = 0usize;
                for z in -g..n + g {
                    for y in -g..n + g {
                        for x in -g..n + g {
                            let interior =
                                (0..n).contains(&x) && (0..n).contains(&y) && (0..n).contains(&z);
                            if interior {
                                continue;
                            }
                            let got = st.as_slice()[d.element_offset([x, y, z], 0)];
                            let want = f(
                                x.rem_euclid(n) as i64,
                                y.rem_euclid(n) as i64,
                                z.rem_euclid(n) as i64,
                            );
                            if got != want {
                                errors += 1;
                            }
                        }
                    }
                }
                errors
            });
            assert_eq!(results[0], 0, "per_region={per_region}: ghost mismatches");
        }
    }

    /// Two ranks along x: each rank's ghost must hold the neighbor's
    /// surface values.
    #[test]
    fn two_rank_exchange() {
        let d = decomp(32);
        let ex = Exchanger::layout(&d);
        let topo = CartTopo::new(&[2, 1, 1], true);
        let results = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let rank = ctx.rank();
            let mut st = d.allocate();
            // Globally consistent function over the 64x32x32 domain.
            let f = |gx: i64, y: i64, z: i64| (gx + 1000 * y + 100_000 * z) as f64;
            for z in 0..32i64 {
                for y in 0..32i64 {
                    for x in 0..32i64 {
                        let off = d.element_offset([x as isize, y as isize, z as isize], 0);
                        st.as_mut_slice()[off] = f(rank as i64 * 32 + x, y, z);
                    }
                }
            }
            ex.exchange(ctx, &mut st).unwrap();
            // Check the +x ghost: global x = rank*32 + 32 .. +40 (mod 64).
            let mut errors = 0usize;
            for z in 0..32isize {
                for y in 0..32isize {
                    for x in 32..40isize {
                        let got = st.as_slice()[d.element_offset([x, y, z], 0)];
                        let gx = (rank as i64 * 32 + x as i64).rem_euclid(64);
                        if got != f(gx, y as i64, z as i64) {
                            errors += 1;
                        }
                    }
                }
            }
            // And a -x ghost corner (diagonal neighbor in a periodic
            // 2x1x1 grid is the other rank or self; the math covers it).
            for z in -8..0isize {
                for y in -8..0isize {
                    for x in -8..0isize {
                        let got = st.as_slice()[d.element_offset([x, y, z], 0)];
                        let gx = (rank as i64 * 32 + x as i64).rem_euclid(64);
                        if got != f(gx, y.rem_euclid(32) as i64, z.rem_euclid(32) as i64) {
                            errors += 1;
                        }
                    }
                }
            }
            errors
        });
        assert_eq!(results, vec![0, 0]);
    }

    /// The persistent session (loopback fast path and mailbox variant)
    /// must be bit-identical to the reference `exchange` — storage and
    /// every charged timer.
    #[test]
    fn session_matches_reference_exchange_bitwise() {
        let d = decomp(32);
        let ex = Exchanger::layout(&d);
        let topo = CartTopo::new(&[1, 1, 1], true);
        let net = NetworkModel::theta_aries();
        let results = run_cluster(&topo, net, |ctx| {
            let fill = |st: &mut BrickStorage| {
                for z in 0..32 {
                    for y in 0..32 {
                        for x in 0..32 {
                            let off = d.element_offset([x, y, z], 0);
                            st.as_mut_slice()[off] = (x + 100 * y + 10_000 * z) as f64;
                        }
                    }
                }
            };
            let mut a = d.allocate();
            fill(&mut a);
            ctx.reset_timers();
            ex.exchange(ctx, &mut a).unwrap();
            let t_ref = ctx.timers();

            let mut b = d.allocate();
            fill(&mut b);
            let mut fast = ex.session(ctx);
            ctx.reset_timers();
            fast.exchange(ctx, &mut b).unwrap();
            let t_fast = ctx.timers();

            let mut c = d.allocate();
            fill(&mut c);
            let mut mailbox = ex.session_mailbox(ctx);
            ctx.reset_timers();
            mailbox.exchange(ctx, &mut c).unwrap();
            let t_mailbox = ctx.timers();

            assert!(a.as_slice() == b.as_slice(), "fast path storage differs");
            assert!(a.as_slice() == c.as_slice(), "mailbox session storage differs");
            assert_eq!(t_ref, t_fast);
            assert_eq!(t_ref, t_mailbox);
        });
        assert_eq!(results.len(), 1);
    }

    /// Two ranks: the x-neighbors cross the mailbox while the y/z
    /// periodic wraps loop back to self — the mixed path must still
    /// match the reference exchange exactly.
    #[test]
    fn session_matches_reference_two_ranks() {
        let d = decomp(32);
        let ex = Exchanger::layout(&d);
        let topo = CartTopo::new(&[2, 1, 1], true);
        let net = NetworkModel::theta_aries();
        run_cluster(&topo, net, |ctx| {
            let rank = ctx.rank();
            let fill = |st: &mut BrickStorage| {
                for z in 0..32i64 {
                    for y in 0..32i64 {
                        for x in 0..32i64 {
                            let off = d.element_offset([x as isize, y as isize, z as isize], 0);
                            st.as_mut_slice()[off] =
                                (rank as i64 * 32 + x + 1000 * y + 100_000 * z) as f64;
                        }
                    }
                }
            };
            let mut a = d.allocate();
            fill(&mut a);
            ctx.reset_timers();
            ex.exchange(ctx, &mut a).unwrap();
            let t_ref = ctx.timers();

            let mut b = d.allocate();
            fill(&mut b);
            let mut fast = ex.session(ctx);
            ctx.reset_timers();
            fast.exchange(ctx, &mut b).unwrap();
            let t_fast = ctx.timers();

            assert!(a.as_slice() == b.as_slice(), "rank {rank}: fast path storage differs");
            assert_eq!(t_ref, t_fast, "rank {rank}: timer mismatch");
        });
    }

    /// Steady state: after the first step the session performs no
    /// transport allocations at all in proxy mode (everything loops
    /// back), and the pooled mailbox variant stops allocating once its
    /// pool is warm. The pool is size-classed, so every message finds a
    /// buffer of its own class from the second exchange on: warm-up is
    /// two exchanges and at most one allocation per message (42).
    #[test]
    fn session_is_allocation_free_in_steady_state() {
        let d = decomp(32);
        let ex = Exchanger::layout(&d);
        let topo = CartTopo::new(&[1, 1, 1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut st = d.allocate();
            let mut fast = ex.session(ctx);
            fast.exchange(ctx, &mut st).unwrap();
            assert_eq!(ctx.transport_allocs(), 0, "loopback must not touch the allocator");

            let mut mailbox = ex.session_mailbox(ctx);
            for _ in 0..2 {
                mailbox.exchange(ctx, &mut st).unwrap();
            }
            let warm = ctx.transport_allocs();
            assert!(warm <= 42, "warm-up allocated {warm} buffers for 42 messages");
            for _ in 0..10 {
                mailbox.exchange(ctx, &mut st).unwrap();
            }
            assert_eq!(ctx.transport_allocs(), warm, "pooled mailbox must reach steady state");
        });
    }

    /// The acceptance invariant at engine level: with drops, corruption
    /// and duplicates armed, the session's reliable protocol must leave
    /// the storage bit-identical to the fault-free exchange — and must
    /// actually have had damage to recover from.
    #[test]
    fn session_converges_bitwise_under_faults() {
        let d = decomp(32);
        let ex = Exchanger::layout(&d);
        let topo = CartTopo::new(&[2, 1, 1], true);
        let fill = |st: &mut BrickStorage, rank: usize| {
            for z in 0..32i64 {
                for y in 0..32i64 {
                    for x in 0..32i64 {
                        let off = d.element_offset([x as isize, y as isize, z as isize], 0);
                        st.as_mut_slice()[off] =
                            (rank as i64 * 32 + x + 1000 * y + 100_000 * z) as f64;
                    }
                }
            }
        };
        let run = |cfg: FaultConfig| {
            run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
                let mut st = d.allocate();
                fill(&mut st, ctx.rank());
                let mut sess = ex.session(ctx);
                for _ in 0..3 {
                    sess.exchange(ctx, &mut st).unwrap();
                }
                let damage = ctx.fault_stats().total();
                (st.as_slice().to_vec(), damage)
            })
        };
        let cfg = FaultConfig { seed: 42, drop: 0.10, corrupt: 0.05, dup: 0.10, ..FaultConfig::off() };
        let lossy = run(cfg);
        let clean = run(FaultConfig::off());
        let mut injected = 0u64;
        for ((grid, damage), (want, _)) in lossy.iter().zip(&clean) {
            assert_eq!(grid, want, "chaos run must converge to the fault-free grid");
            injected += damage;
        }
        assert!(injected > 0, "seed 42 at these rates must inject something");
    }

    /// A grid that views alias gets its own exchange, and what it maps is
    /// fixed by the schedule: MemMap sends through 26 views over one
    /// segment per Layout run and receives into storage ranges; Shift
    /// sends and receives through 12 slab views. Ranges alone need no
    /// grid at all.
    #[test]
    fn views_are_cut_per_grid_where_the_schedule_glues_runs() {
        use crate::memmap::memmap_decomp;
        let views = |ex: &ExchangeSession| {
            let count = |p: &Places| if let Places::Views(v) = p { v.len() } else { 0 };
            let per_pass = ex.places.iter().map(|[s, r]| (count(s), count(r)));
            per_pass.fold((0, 0), |(s, r), (ps, pr)| (s + ps, r + pr))
        };
        for (n, order, segments) in [(48, surface3d(), 42), (16, SurfaceLayout::lexicographic(3), 42), (32, SurfaceLayout::lexicographic(3), 62)] {
            let d = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, order, memview::PAGE_4K);
            let grid = MemMapStorage::allocate(&d).unwrap();
            let memmap = ExchangeSession::new(&Exchanger::memmap(&d), Some(&grid)).unwrap();
            assert_eq!((views(&memmap), memmap.mapped_segments()), ((26, 0), segments), "MemMap {n}^3");
            let shift = ExchangeSession::new(&Exchanger::shift(&d), Some(&grid)).unwrap();
            assert_eq!(views(&shift), (6, 6), "Shift {n}^3");
            assert_eq!(shift.stats().messages, 6);
        }
        let ranges = ExchangeSession::new(&Exchanger::layout(&decomp(32)), None).unwrap();
        assert_eq!((views(&ranges), ranges.grid), ((0, 0), None));
    }

    /// Smallest legal subdomain (16^3): empty middle regions are skipped
    /// consistently on both sides.
    #[test]
    fn minimal_subdomain_exchange() {
        let d = decomp(16);
        let ex = Exchanger::layout(&d);
        // Only corner regions are non-empty, but every run still carries
        // at least one corner, so the count stays at the layout's 42.
        assert!(ex.stats().messages <= 42);
        assert_eq!(ex.stats().region_instances, 8 * 7);
        let topo = CartTopo::new(&[1, 1, 1], true);
        let results = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut st = d.allocate();
            let f = |x: i64, y: i64, z: i64| (x + 40 * y + 1600 * z) as f64;
            for z in 0..16 {
                for y in 0..16 {
                    for x in 0..16 {
                        let off = d.element_offset([x, y, z], 0);
                        st.as_mut_slice()[off] = f(x as i64, y as i64, z as i64);
                    }
                }
            }
            ex.exchange(ctx, &mut st).unwrap();
            let mut errors = 0usize;
            let (g, n) = (8isize, 16isize);
            for z in -g..n + g {
                for y in -g..n + g {
                    for x in -g..n + g {
                        let interior =
                            (0..n).contains(&x) && (0..n).contains(&y) && (0..n).contains(&z);
                        if interior {
                            continue;
                        }
                        let got = st.as_slice()[d.element_offset([x, y, z], 0)];
                        let want = f(
                            x.rem_euclid(n) as i64,
                            y.rem_euclid(n) as i64,
                            z.rem_euclid(n) as i64,
                        );
                        if got != want {
                            errors += 1;
                        }
                    }
                }
            }
            errors
        });
        assert_eq!(results[0], 0);
    }
}
