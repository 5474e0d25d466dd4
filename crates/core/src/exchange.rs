//! Pack-free ghost-zone exchange engines (paper Section 3).
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
//! An [`Exchanger`] is the rank-independent schedule. Timestep loops
//! bind it to a rank as an [`ExchangeSession`]: the crate's one
//! communication plan (`plan.rs`) over the element ranges the messages
//! occupy in the storage, which owns the whole send/receive/wait
//! lifecycle. [`Exchanger::exchange`] is the allocating reference path
//! the sessions are tested against; it is the only transport code here.

use brick::BrickStorage;
use layout::{all_regions, Dir};
use netsim::{NetsimError, RankCtx, RecvHandle};

use crate::decomp::BrickDecomp;
use crate::engine::{BrickExchange, SplitSetup};
use crate::plan::{Call, CommPlan, InPlace, RecvSpec, SendSpec};

/// One outgoing message: a contiguous padded brick range sent toward a
/// neighbor.
#[derive(Clone, Debug)]
pub struct SendMsg {
    /// Neighbor direction the message travels toward.
    pub to: Dir,
    /// Matching tag (shared convention with the receiver).
    pub tag: u64,
    /// Brick range (padded, so byte ranges are alignment-faithful).
    pub bricks: std::ops::Range<usize>,
    /// Payload bricks inside the range (excludes filler).
    pub payload_bricks: usize,
}

/// One incoming message: the ghost brick range it fills.
#[derive(Clone, Debug)]
pub struct RecvMsg {
    /// Direction of the source neighbor (ghost group `g(S)`).
    pub from: Dir,
    /// Matching tag.
    pub tag: u64,
    /// Ghost brick range (padded).
    pub bricks: std::ops::Range<usize>,
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

/// A reusable exchange schedule for one rank (the pattern is Static, so
/// it is built once and reused every timestep).
pub struct Exchanger {
    sends: Vec<SendMsg>,
    recvs: Vec<RecvMsg>,
    stats: ExchangeStats,
    step: usize,
    pub(crate) dims: usize,
    /// Timeline scope name ("exchange:layout" / "exchange:basic").
    name: &'static str,
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
        let name = if per_region { "exchange:basic" } else { "exchange:layout" };
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
                let chunks: Vec<_> = run
                    .clone()
                    .map(|i| &decomp.surface_chunks()[i])
                    .collect();
                let pieces: Vec<(std::ops::Range<usize>, usize)> = if per_region {
                    chunks
                        .iter()
                        .map(|c| (c.padded.clone(), c.len()))
                        .collect()
                } else {
                    let payload: usize = chunks.iter().map(|c| c.len()).sum();
                    vec![(
                        chunks.first().unwrap().padded.start..chunks.last().unwrap().padded.end,
                        payload,
                    )]
                };
                for (range, payload) in pieces {
                    if payload == 0 {
                        continue;
                    }
                    sends.push(SendMsg {
                        to: s,
                        tag: tag_for(&s, run_tag, D),
                        bricks: range.clone(),
                        payload_bricks: payload,
                    });
                    stats.messages += 1;
                    stats.payload_bytes += payload * brick_bytes;
                    stats.wire_bytes += (range.end - range.start) * brick_bytes;
                    run_tag += 1;
                }
            }
            stats.region_instances += nplan
                .send_regions
                .iter()
                .filter(|t| decomp.region_bricks(t) > 0)
                .count();

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
                let recv_pieces: Vec<(std::ops::Range<usize>, usize)> = if per_region {
                    pieces.iter().map(|p| (p.padded.clone(), p.len())).collect()
                } else {
                    let payload: usize = pieces.iter().map(|p| p.len()).sum();
                    vec![(
                        pieces.first().unwrap().padded.start..pieces.last().unwrap().padded.end,
                        payload,
                    )]
                };
                for (range, payload) in recv_pieces {
                    if payload == 0 {
                        continue;
                    }
                    recvs.push(RecvMsg {
                        from: s,
                        tag: tag_for(&from_tag_dir, run_tag, D),
                        bricks: range,
                    });
                    run_tag += 1;
                }
            }
            debug_assert_eq!(piece_idx, group.pieces.len());
        }

        assert_eq!(sends.len(), recvs.len(), "exchange must be symmetric");
        Exchanger { sends, recvs, stats, step, dims: D, name }
    }

    /// Traffic statistics.
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    /// The outgoing message schedule.
    pub fn sends(&self) -> &[SendMsg] {
        &self.sends
    }

    /// The incoming message schedule.
    pub fn recvs(&self) -> &[RecvMsg] {
        &self.recvs
    }

    /// Bind this schedule to one rank as a persistent session: neighbor
    /// ranks, tags, element ranges and loopback pairings are resolved
    /// once, so [`ExchangeSession::exchange`] does zero per-step heap
    /// allocation. Self-sends (the single-rank proxy mode) take the
    /// loopback fast path: one copy, identical wire-model charges.
    pub fn session(&self, ctx: &RankCtx<'_>) -> ExchangeSession {
        ExchangeSession::build(self, ctx, true)
    }

    /// Like [`Exchanger::session`] but self-sends still travel through
    /// the mailbox — always on its eager path (two copies through a pooled
    /// buffer): a self-send is never written into a lent window. Exists so
    /// benches and equivalence tests can compare the fast path against the
    /// reference transport.
    pub fn session_mailbox(&self, ctx: &RankCtx<'_>) -> ExchangeSession {
        ExchangeSession::build(self, ctx, false)
    }

    /// Perform one full ghost-zone exchange: post every send as a
    /// zero-copy storage sub-slice, then receive every message directly
    /// into its ghost bricks. No pack time is ever charged because no
    /// packing happens.
    ///
    /// This is the allocating reference path kept for comparison and
    /// one-shot use; timestep loops should build a
    /// [`session`](Exchanger::session) and drive that instead.
    pub fn exchange(
        &self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        ctx.scoped(self.name, |ctx| self.exchange_inner(ctx, storage))
    }

    fn exchange_inner(
        &self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        let rank = ctx.rank();
        // Sends: contiguous sub-slices of the storage.
        for m in &self.sends {
            let dest = ctx
                .topo()
                .neighbor(rank, &m.to.offsets(self.dims))
                .expect("exchange requires a periodic (or interior) neighbor");
            let lo = m.bricks.start * self.step;
            let hi = m.bricks.end * self.step;
            let data = &storage.as_slice()[lo..hi];
            ctx.note_payload(m.payload_bricks * self.step * 8);
            ctx.isend(dest, m.tag, data)?;
        }
        // Receives: directly into ghost brick ranges.
        let mut handles: Vec<RecvHandle> = Vec::with_capacity(self.recvs.len());
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(self.recvs.len());
        for m in &self.recvs {
            let src = ctx
                .topo()
                .neighbor(rank, &m.from.offsets(self.dims))
                .expect("exchange requires a periodic (or interior) neighbor");
            handles.push(ctx.irecv(src, m.tag)?);
            ranges.push(m.bricks.start * self.step..m.bricks.end * self.step);
        }
        let mut bufs = split_disjoint_mut(storage.as_mut_slice(), &ranges);
        ctx.waitall_into(&handles, &mut bufs)
    }
}

/// An [`Exchanger`] schedule bound to one rank: a `CommPlan` over
/// the element ranges its messages occupy in the layout-ordered
/// storage. Everything per-step is precomputed at build time (the
/// pattern is Static, per the paper) — `exchange` allocates nothing.
pub struct ExchangeSession {
    plan: CommPlan,
    stats: ExchangeStats,
    send_ranges: Vec<std::ops::Range<usize>>,
    /// Every scheduled receive's ghost range; sorted and disjoint.
    ghost_ranges: Vec<std::ops::Range<usize>>,
    /// Those of the receives that cross the mailbox, in schedule order.
    recv_ranges: Vec<std::ops::Range<usize>>,
    pend: Vec<std::ops::Range<usize>>,
}

impl ExchangeSession {
    fn build(ex: &Exchanger, ctx: &RankCtx<'_>, loopback: bool) -> ExchangeSession {
        let step = ex.step;
        let elems = |b: &std::ops::Range<usize>| b.start * step..b.end * step;
        let send_ranges: Vec<_> = ex.sends.iter().map(|m| elems(&m.bricks)).collect();
        let ghost_ranges: Vec<_> = ex.recvs.iter().map(|m| elems(&m.bricks)).collect();
        let sends: Vec<SendSpec> = ex
            .sends
            .iter()
            .zip(&send_ranges)
            .map(|(m, r)| SendSpec {
                to: m.to,
                tag: m.tag,
                elems: r.len(),
                payload_bytes: m.payload_bricks * step * 8,
            })
            .collect();
        let recvs: Vec<RecvSpec> = ex
            .recvs
            .iter()
            .zip(&ghost_ranges)
            .map(|(m, r)| RecvSpec { from: m.from, tag: m.tag, elems: r.len() })
            .collect();
        let plan = CommPlan::bind(Some(ex.name), ctx, ex.dims, &sends, &recvs, loopback);
        let recv_ranges = plan.mailbox().iter().map(|&j| ghost_ranges[j].clone()).collect();
        ExchangeSession { plan, stats: ex.stats, send_ranges, ghost_ranges, recv_ranges, pend: Vec::new() }
    }

    /// The plan and the memory it moves: `storage` seen through this
    /// session's send and receive ranges.
    pub(crate) fn bound<'a>(&'a mut self, storage: &'a mut BrickStorage) -> (&'a mut CommPlan, InPlace<'a>) {
        let mem = InPlace {
            data: storage.as_mut_slice().into(),
            sends: &self.send_ranges,
            recvs: &self.ghost_ranges,
            pend: &mut self.pend,
        };
        (&mut self.plan, mem)
    }

    /// One full ghost-zone exchange with zero per-step allocation.
    /// Self-sends copy once, straight from the send sub-slice into the
    /// posted ghost range; everything else goes through the mailbox.
    /// Wire-model charges are identical to [`Exchanger::exchange`].
    /// Under lossy faults the plan's retry protocol converges to the
    /// exact same storage bits as the fault-free path.
    pub fn exchange(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        let (plan, mut mem) = self.bound(storage);
        plan.exchange(ctx, &mut mem)
    }

    /// Element ranges of the unpaired (mailbox) receives, in schedule
    /// order. Split-exchange completion indices index into this slice;
    /// a dependency graph maps them back to the ghost bricks they fill.
    pub fn recv_ranges(&self) -> &[std::ops::Range<usize>] {
        &self.recv_ranges
    }
}

/// Both heap grids are exchanged through one session: its ranges index
/// either grid, so one plan (and, partitioned, one set of channels)
/// serves both.
impl BrickExchange for ExchangeSession {
    type Schedule = Exchanger;

    fn open(schedule: &Exchanger, decomp: &BrickDecomp<3>, ctx: &RankCtx<'_>) -> ([BrickStorage; 2], Vec<Self>) {
        ([decomp.allocate(), decomp.allocate()], vec![schedule.session(ctx)])
    }

    fn stats(&self) -> ExchangeStats {
        self.stats
    }

    fn plans(&mut self) -> &mut [CommPlan] {
        std::slice::from_mut(&mut self.plan)
    }

    /// A message's partitions are the padded storage bricks composing it.
    fn arm(&mut self, decomp: &BrickDecomp<3>, partitioned: bool) -> SplitSetup {
        let step = decomp.step();
        let bricks = |r: &std::ops::Range<usize>| r.start / step..r.end / step;
        if partitioned {
            let ranges = &self.send_ranges;
            self.plan.enable_partitioned(step, decomp.bricks(), |i| bricks(&ranges[i]).collect());
        }
        let ghosts = self.recv_ranges.iter().map(|r| bricks(r).map(|b| b as u32).collect()).collect();
        (ghosts, self.plan.priority().cloned())
    }

    fn call(&mut self, ctx: &mut RankCtx<'_>, grid: &mut BrickStorage, call: Call<'_>) -> Result<usize, NetsimError> {
        let (plan, mut mem) = self.bound(grid);
        plan.call(ctx, &mut mem, call)
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
