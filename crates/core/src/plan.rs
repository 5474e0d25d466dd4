//! The communication plan: one rank-bound send/receive/wait lifecycle
//! shared by every exchange engine.
//!
//! The paper's point is that *where the halo bytes live* is the only
//! thing that differs between methods — layout-ordered bricks, mmap
//! views, packed buffers. Everything around them is the same: resolve
//! the neighbor ranks, pair self-sends with the local receives they
//! satisfy, post, wait; and the variants of that — the retry protocol
//! under lossy faults, persistent partitioned channels, the split
//! `begin`/`poll`/`finish` form the overlap schedules drive. A
//! [`CommPlan`] owns all of it: flat per-edge arrays and every piece of
//! protocol state. A method supplies a [`HaloMem`] answering where send
//! `i` and receive `j` live: [`GridMem`] for every brick method (ranges
//! of the grid or views over its file), [`IntoRanges`] for the packed
//! buffers of the array and migrating engines. There are two constructors:
//! [`CommPlan::bind`] for a static direction schedule every rank shares,
//! [`CommPlan::from_edges`] for rank-level edges — what [`discover_plan`]
//! finds when ownership moves.
//!
//! # Protocol modes
//!
//! Selected per call from what the plan can observe:
//!
//! * **plain** — `isend`/`irecv` per edge, bulk completion through the
//!   adapter. A whole [`CommPlan::exchange`] *pre-posts*: it lends the
//!   destination runs of its mailbox receives before its first send
//!   ([`RankCtx::lend`]), so a peer's message lands in the ghost run
//!   itself instead of a pooled buffer; a split exchange lends only
//!   inside `finish`, for what is still outstanding — between `begin`
//!   and `finish` the engine computes on that storage;
//! * **lossy** — the rank's fault plan can drop or damage frames
//!   ([`RankCtx::fault_lossy`]) and the plan (edge-bound: any plan of the
//!   cluster) has mailbox traffic: one
//!   [`ReliableSession`] runs the whole exchange. It is collective, so a
//!   split `begin` completes everything and `poll`/`finish` do nothing.
//!   Frames are inspected before they land, so nothing is lent;
//! * **partitioned** — after [`CommPlan::enable_partitioned`], mailbox
//!   sends are persistent [`PartitionedSend`] channels fed by
//!   [`CommPlan::pready`]; with no `pready` they bill exactly the
//!   whole-message schedule. Each flush counts the message's early and
//!   total bytes on the rank's timers. Fragments are reassembled, so
//!   nothing is lent. Lossy wins over partitioned: a lossy run ships
//!   nothing early and retries whole messages, so it bills exactly what
//!   the same run without partitioned channels bills.
//!
//! Self-sends never cross the fabric: they are one on-node copy with
//! full wire-model charges in every mode.

use std::ops::Range;

use layout::Dir;
use memview::ContiguousView;
use netsim::{
    Lend, NetsimError, PartitionedRecv, PartitionedSend, RankCtx, RecvHandle, RelRecv, RelSend, ReliableSession,
};
use sched::SendPriority;

mod discover;
pub use discover::{discover_plan, ExchangePlan};
pub(crate) use discover::REB_NS;

/// Where one method keeps its halo bytes. Send `i` and receive `j`
/// index the schedules the plan was bound with. `'c` is the lifetime of
/// the cluster the memory can be lent to: it outlives every borrow the
/// memory holds, so a lend ends before the mailbox it is registered in.
pub(crate) trait HaloMem<'c> {
    /// Payload of send `i`.
    fn send(&self, i: usize) -> &[f64];
    /// Destination of receive `j`.
    fn recv(&mut self, j: usize) -> &mut [f64];
    /// Self-send `i` straight into receive `j`: one copy, billed as the
    /// `isend` + `irecv` pair it replaces.
    fn loopback(&mut self, ctx: &mut RankCtx<'_>, tag: u64, i: usize, j: usize) -> Result<(), NetsimError>;
    /// Pre-post: lend the destinations of receives `recvs` (`from[k]` is
    /// the channel of `recvs[k]`) until the next [`HaloMem::complete`],
    /// which must be for the same receives. Memory that can only lend
    /// once it blocks does nothing here.
    fn lend(&mut self, _ctx: &RankCtx<'c>, _from: &[RelRecv], _recvs: &[usize]) {}
    /// Block on `handles`, landing message `k` in receive `recvs[k]`,
    /// then bill `wait` and close the epoch (also with nothing pending).
    fn complete(&mut self, ctx: &mut RankCtx<'_>, handles: &[RecvHandle], recvs: &[usize]) -> Result<(), NetsimError>;
}

/// The slice receives land in: with the method, or — between
/// [`HaloMem::lend`] and [`HaloMem::complete`] — with the transport,
/// whose guard then hands out everything but the lent runs.
pub(crate) enum Store<'a> {
    Here(&'a mut [f64]),
    Lent(Lend<'a>),
}

impl<'a> From<&'a mut [f64]> for Store<'a> {
    fn from(data: &'a mut [f64]) -> Store<'a> {
        Store::Here(data)
    }
}

impl<'a> Store<'a> {
    fn get(&self, r: Range<usize>) -> &[f64] {
        match self {
            Store::Here(data) => &data[r],
            Store::Lent(lend) => lend.outside(r),
        }
    }

    fn get_mut(&mut self, r: Range<usize>) -> &mut [f64] {
        match self {
            Store::Here(data) => &mut data[r],
            Store::Lent(lend) => lend.outside_mut(r),
        }
    }

    /// The ranges of `recvs`, gathered into `pend` (`recvs` ascends, so
    /// they stay sorted and disjoint).
    fn gather<'p>(ranges: &[Range<usize>], recvs: &[usize], pend: &'p mut Vec<Range<usize>>) -> &'p [Range<usize>] {
        pend.clear();
        pend.extend(recvs.iter().map(|&j| ranges[j].clone()));
        pend
    }

    /// Lend the ranges of `recvs`.
    fn lend<'c: 'a>(
        &mut self,
        ctx: &RankCtx<'c>,
        from: &[RelRecv],
        ranges: &[Range<usize>],
        recvs: &[usize],
        pend: &mut Vec<Range<usize>>,
    ) {
        let Store::Here(data) = std::mem::replace(self, Store::Here(&mut [])) else {
            panic!("the slice is already lent");
        };
        let lent = Store::gather(ranges, recvs, pend);
        *self = Store::Lent(ctx.lend(from.iter().map(|r| (r.src, r.tag)), data, lent));
    }

    /// Complete the open lend and take the slice back, or — nothing lent —
    /// `waitall_ranges` over the ranges of `recvs`.
    fn complete(
        &mut self,
        ctx: &mut RankCtx<'_>,
        handles: &[RecvHandle],
        ranges: &[Range<usize>],
        recvs: &[usize],
        pend: &mut Vec<Range<usize>>,
    ) -> Result<(), NetsimError> {
        match std::mem::replace(self, Store::Here(&mut [])) {
            Store::Here(data) => {
                let done = ctx.waitall_ranges(handles, data, Store::gather(ranges, recvs, pend));
                *self = Store::Here(data);
                done
            }
            Store::Lent(mut lend) => {
                let done = lend.complete(ctx, handles);
                *self = Store::Here(lend.release());
                done
            }
        }
    }
}

/// Sends are separate slices, receives are ranges of one slice: pack
/// buffers and a receive arena, or staging buffers and a ghost arena.
pub(crate) struct IntoRanges<'a, S> {
    pub sends: &'a [S],
    pub data: Store<'a>,
    pub recvs: &'a [Range<usize>],
    /// Scratch for the ranges of one completion call.
    pub pend: &'a mut Vec<Range<usize>>,
}

impl<'c: 'a, 'a, S: AsRef<[f64]>> HaloMem<'c> for IntoRanges<'a, S> {
    fn send(&self, i: usize) -> &[f64] {
        self.sends[i].as_ref()
    }

    fn recv(&mut self, j: usize) -> &mut [f64] {
        self.data.get_mut(self.recvs[j].clone())
    }

    fn loopback(&mut self, ctx: &mut RankCtx<'_>, tag: u64, i: usize, j: usize) -> Result<(), NetsimError> {
        ctx.loopback_into(tag, self.sends[i].as_ref(), self.data.get_mut(self.recvs[j].clone()))
    }

    fn lend(&mut self, ctx: &RankCtx<'c>, from: &[RelRecv], recvs: &[usize]) {
        self.data.lend(ctx, from, self.recvs, recvs, self.pend);
    }

    fn complete(&mut self, ctx: &mut RankCtx<'_>, handles: &[RecvHandle], recvs: &[usize]) -> Result<(), NetsimError> {
        self.data.complete(ctx, handles, self.recvs, recvs, self.pend)
    }
}

/// Where the sends, or the receives, of one brick-exchange pass live in
/// a grid: element ranges of its storage, or one view per message over
/// its file.
pub(crate) enum Places {
    Ranges(Vec<Range<usize>>),
    Views(Vec<ContiguousView>),
}

/// Sends and receives are ranges of a brick grid or views over its file
/// — the one adapter of every brick method. Ranges are pre-posted; view
/// receives are lent while `complete` blocks. Views alias the grid, so
/// the grid stays mutably borrowed while they are written through.
pub(crate) struct GridMem<'a> {
    pub data: Store<'a>,
    pub sends: &'a Places,
    pub recvs: &'a mut Places,
    /// Scratch for the ranges of one completion call.
    pub pend: &'a mut Vec<Range<usize>>,
    /// Scratch for the views of one completion call, empty between calls.
    pub bufs: &'a mut Vec<&'static mut [f64]>,
}

/// An emptied list of slices, its allocation kept for slices of another
/// lifetime (same layout, so the collect reuses it in place).
fn recycle<'y>(mut v: Vec<&mut [f64]>) -> Vec<&'y mut [f64]> {
    v.clear();
    v.into_iter().map(|_| unreachable!("emptied")).collect()
}

impl<'c: 'a, 'a> HaloMem<'c> for GridMem<'a> {
    fn send(&self, i: usize) -> &[f64] {
        match self.sends {
            Places::Ranges(r) => self.data.get(r[i].clone()),
            Places::Views(v) => v[i].as_f64(),
        }
    }

    fn recv(&mut self, j: usize) -> &mut [f64] {
        match self.recvs {
            Places::Ranges(r) => self.data.get_mut(r[j].clone()),
            Places::Views(v) => v[j].as_f64_mut(),
        }
    }

    fn loopback(&mut self, ctx: &mut RankCtx<'_>, tag: u64, i: usize, j: usize) -> Result<(), NetsimError> {
        match (self.sends, &mut *self.recvs, &mut self.data) {
            (Places::Ranges(s), Places::Ranges(r), Store::Here(data)) => {
                ctx.loopback_within(tag, data, s[i].clone(), r[j].start)
            }
            (Places::Ranges(s), Places::Ranges(r), Store::Lent(lend)) => {
                let (src, dst) = lend.outside_pair(s[i].clone(), r[j].clone());
                ctx.loopback_into(tag, src, dst)
            }
            (Places::Views(s), Places::Ranges(r), data) => ctx.loopback_into(tag, s[i].as_f64(), data.get_mut(r[j].clone())),
            (Places::Ranges(s), Places::Views(r), data) => ctx.loopback_into(tag, data.get(s[i].clone()), r[j].as_f64_mut()),
            (Places::Views(s), Places::Views(r), _) => ctx.loopback_into(tag, s[i].as_f64(), r[j].as_f64_mut()),
        }
    }

    fn lend(&mut self, ctx: &RankCtx<'c>, from: &[RelRecv], recvs: &[usize]) {
        if let Places::Ranges(r) = self.recvs {
            self.data.lend(ctx, from, r, recvs, self.pend);
        }
    }

    fn complete(&mut self, ctx: &mut RankCtx<'_>, handles: &[RecvHandle], recvs: &[usize]) -> Result<(), NetsimError> {
        match self.recvs {
            Places::Ranges(r) => self.data.complete(ctx, handles, r, recvs, self.pend),
            Places::Views(views) => {
                // `recvs` ascends, as the views do.
                let mut bufs = recycle(std::mem::take(self.bufs));
                let pending = views.iter_mut().enumerate().filter(|(j, _)| recvs.contains(j));
                bufs.extend(pending.map(|(_, v)| v.as_f64_mut()));
                let done = ctx.waitall_into(handles, &mut bufs);
                *self.bufs = recycle(bufs);
                done
            }
        }
    }
}

/// One scheduled send, before it is bound to a rank.
pub(crate) struct SendSpec {
    /// Neighbor direction the message travels toward.
    pub to: Dir,
    pub tag: u64,
    /// Elements on the wire (padding included).
    pub elems: usize,
    /// Payload bytes (padding excluded), for bandwidth accounting.
    pub payload_bytes: usize,
}

/// One scheduled receive, before it is bound to a rank.
pub(crate) struct RecvSpec {
    /// Direction of the source neighbor.
    pub from: Dir,
    pub tag: u64,
    pub elems: usize,
}

/// One send of a rank-level schedule: [`SendSpec`] with its direction
/// resolved to a destination rank.
pub(crate) struct SendEdge {
    pub dest: usize,
    pub tag: u64,
    /// Elements on the wire (padding included).
    pub elems: usize,
    /// Payload bytes (padding excluded), for bandwidth accounting.
    pub payload_bytes: usize,
}

/// A send bound to a rank.
struct BoundSend {
    dest: usize,
    tag: u64,
    payload_bytes: usize,
    /// The local receive this send satisfies directly (`Some` iff the
    /// destination is this rank and loopback pairing is on).
    loopback: Option<usize>,
}

/// Run `f` under the timeline scope `scope`, if there is one.
pub(crate) fn scoped<'c, R>(ctx: &mut RankCtx<'c>, scope: Option<&'static str>, f: impl FnOnce(&mut RankCtx<'c>) -> R) -> R {
    match scope {
        Some(name) => ctx.scoped(name, f),
        None => f(ctx),
    }
}

/// One call a step driver makes on a plan: a whole exchange, one part
/// of a split one, or marking freshly computed bricks ready.
pub(crate) enum Call<'a> {
    Exchange,
    Begin(&'a mut Vec<usize>),
    Poll(&'a mut Vec<usize>),
    Finish,
    Pready(&'a [u32]),
}

/// Partitioned-channel state: the persistent channels, the storage
/// brick → `(channel, partition)` map driving `pready`, and the
/// destination-priority classes.
struct PartitionedExchange {
    /// One channel per mailbox send, in `CommPlan::mailbox_sends` order.
    psends: Vec<PartitionedSend>,
    /// One channel per mailbox receive, in `CommPlan::recvs` order.
    precvs: Vec<PartitionedRecv>,
    /// Storage brick → the `(channel k, partition p)` pairs it feeds.
    brick_parts: Vec<Vec<(u32, u32)>>,
    /// Destination-priority classes over storage bricks (class 0 feeds
    /// the most-exposed channel).
    priority: SendPriority,
}

/// An exchange schedule bound to one rank, with all of its protocol
/// state. Everything per-step is resolved at bind time (the pattern is
/// Static, per the paper), so no call allocates in steady state.
pub(crate) struct CommPlan {
    /// Timeline scope every call runs under (`None`: the caller's).
    scope: Option<&'static str>,
    rank: usize,
    /// Every rank bound the same schedule ([`CommPlan::bind`]), so what
    /// this plan observes of it, every rank observes alike.
    symmetric: bool,
    sends: Vec<BoundSend>,
    /// Sends that cross the mailbox (indices into `sends`), in order.
    mailbox_sends: Vec<usize>,
    /// Receives that cross the mailbox, in schedule order.
    recvs: Vec<RelRecv>,
    /// For `recvs[k]`: its index in the bound receive schedule (what the
    /// adapter is addressed with). Completion indices reported by
    /// `begin`/`poll` are positions `k` in this list.
    mailbox: Vec<usize>,
    /// Post receives before sends (the order only shows in how `call`
    /// is summed when peers sit on different tiers).
    recvs_first: bool,
    handles: Vec<RecvHandle>,
    // Split-exchange state, reused across steps.
    done: Vec<bool>,
    pend_handles: Vec<RecvHandle>,
    pend_recvs: Vec<usize>,
    /// This step's `begin` ran the collective reliable exchange, which
    /// flushes its own epochs — `finish` must not close another one.
    fault_step: bool,
    /// Whole-message retry protocol, built on first lossy step.
    reliable: Option<ReliableSession>,
    /// `None` keeps the plan on whole messages.
    partitioned: Option<PartitionedExchange>,
}

impl CommPlan {
    /// Bind a direction schedule to `ctx`'s rank: resolve every neighbor
    /// to a rank, then [`CommPlan::from_edges`]. Every rank binds the
    /// same schedule, so the plan is marked symmetric.
    pub fn bind(
        scope: Option<&'static str>,
        ctx: &RankCtx<'_>,
        dims: usize,
        sends: &[SendSpec],
        recvs: &[RecvSpec],
        loopback: bool,
    ) -> CommPlan {
        let rank = ctx.rank();
        let peer = |dir: &Dir| {
            ctx.topo()
                .neighbor(rank, &dir.offsets(dims))
                .expect("exchange requires a periodic (or interior) neighbor")
        };
        let sends: Vec<SendEdge> = sends
            .iter()
            .map(|s| SendEdge { dest: peer(&s.to), tag: s.tag, elems: s.elems, payload_bytes: s.payload_bytes })
            .collect();
        let recvs: Vec<RelRecv> =
            recvs.iter().map(|r| RelRecv { src: peer(&r.from), tag: r.tag, elems: r.elems }).collect();
        CommPlan { symmetric: true, ..CommPlan::from_edges(scope, rank, &sends, &recvs, loopback) }
    }

    /// Bind rank-level edges on `rank`: with `loopback`, pair each
    /// self-send with the local receive it satisfies (`loopback = false`
    /// keeps self-sends on the mailbox — the reference transport benches
    /// and equivalence tests compare against). The edges may differ from
    /// rank to rank, down to none at all on some.
    pub fn from_edges(
        scope: Option<&'static str>,
        rank: usize,
        sends: &[SendEdge],
        recvs: &[RelRecv],
        loopback: bool,
    ) -> CommPlan {
        let mut paired = vec![false; recvs.len()];
        let sends: Vec<BoundSend> = sends
            .iter()
            .map(|s| {
                let pair = (loopback && s.dest == rank).then(|| {
                    // (source = self, tag) is unique per epoch, so the
                    // matching local receive is unambiguous.
                    let j = (0..recvs.len())
                        .find(|&j| !paired[j] && recvs[j].src == rank && recvs[j].tag == s.tag)
                        .expect("symmetric schedule pairs every self-send with a self-receive");
                    paired[j] = true;
                    assert_eq!(s.elems, recvs[j].elems, "paired loopback lengths must match");
                    j
                });
                BoundSend { dest: s.dest, tag: s.tag, payload_bytes: s.payload_bytes, loopback: pair }
            })
            .collect();
        let mailbox: Vec<usize> = (0..recvs.len()).filter(|&j| !paired[j]).collect();
        let n = mailbox.len();
        CommPlan {
            scope,
            rank,
            symmetric: false,
            mailbox_sends: (0..sends.len()).filter(|&i| sends[i].loopback.is_none()).collect(),
            sends,
            recvs: mailbox.iter().map(|&j| recvs[j]).collect(),
            mailbox,
            recvs_first: false,
            handles: Vec::with_capacity(n),
            done: vec![false; n],
            pend_handles: Vec::new(),
            pend_recvs: Vec::new(),
            fault_step: false,
            reliable: None,
            partitioned: None,
        }
    }

    /// Drop every piece of protocol state — the retry session and its
    /// sequence numbers, partitioned channels, a split exchange in
    /// flight — leaving the plan as binding its schedule again on this
    /// rank would: what a recovery epoch needs after a torn step.
    pub fn reset(&mut self) {
        self.handles.clear();
        self.done.fill(false);
        self.fault_step = false;
        self.reliable = None;
        self.partitioned = None;
    }

    /// Post receives before sends.
    pub fn recvs_first(mut self) -> CommPlan {
        self.recvs_first = true;
        self
    }

    /// The rank this plan is bound to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `(destination rank, payload bytes)` of every message one exchange
    /// of this plan sends, self-sends included: the rank's row of the
    /// communication graph, as bound.
    pub fn edges(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.sends.iter().map(|s| (s.dest, s.payload_bytes as u64))
    }

    /// Indices (into the bound receive schedule) of the receives that
    /// cross the mailbox. A completion index `k` reported by
    /// [`Self::begin`] / [`Self::poll`] is receive `mailbox()[k]`.
    pub fn mailbox(&self) -> &[usize] {
        &self.mailbox
    }

    /// The one protocol selector: frames can be lost or damaged, and
    /// this plan puts frames on the fabric. The retry protocol is
    /// collective, so every rank must answer alike: a symmetric schedule
    /// has mailbox traffic on all ranks or on none; an edge-bound plan
    /// can be empty here and not elsewhere, so it asks the cluster
    /// instead (a session with no edges still joins every round).
    fn lossy(&self, ctx: &RankCtx<'_>) -> bool {
        ctx.fault_lossy() && if self.symmetric { !self.mailbox.is_empty() } else { ctx.size() > 1 }
    }

    /// Switch into partitioned early-bird mode: every mailbox send
    /// becomes a persistent [`PartitionedSend`] whose partitions are the
    /// padded storage bricks composing the message (`part_elems` each,
    /// `bricks_of(i)` lists them for send `i` in payload order), every
    /// mailbox receive a persistent [`PartitionedRecv`]. `total_bricks`
    /// is the padded brick count of the storage [`Self::pready`] indexes.
    pub fn enable_partitioned(
        &mut self,
        part_elems: usize,
        total_bricks: usize,
        bricks_of: impl Fn(usize) -> Vec<usize>,
    ) {
        // Channel exposure rank: the largest payload drains slowest, so
        // its source bricks get the most urgent class.
        let mut by_size: Vec<usize> = (0..self.mailbox_sends.len()).collect();
        by_size.sort_by_key(|&k| std::cmp::Reverse(self.sends[self.mailbox_sends[k]].payload_bytes));
        let mut class = vec![0u32; by_size.len()];
        for (c, &k) in by_size.iter().enumerate() {
            class[k] = c as u32;
        }
        let mut priority = SendPriority::new(total_bricks);
        let mut brick_parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); total_bricks];
        let mut psends = Vec::with_capacity(self.mailbox_sends.len());
        for (k, &i) in self.mailbox_sends.iter().enumerate() {
            let (s, bricks) = (&self.sends[i], bricks_of(i));
            psends.push(PartitionedSend::new(s.dest, s.tag, bricks.len() * part_elems, part_elems));
            for (p, &b) in bricks.iter().enumerate() {
                brick_parts[b].push((k as u32, p as u32));
                priority.assign(b as u32, class[k]);
            }
        }
        let precvs = self.recvs.iter().map(|r| PartitionedRecv::new(r.src, r.tag, r.elems)).collect();
        self.partitioned = Some(PartitionedExchange { psends, precvs, brick_parts, priority });
    }

    /// Destination-priority classes over storage bricks (`None` unless
    /// partitioned mode is on).
    pub fn priority(&self) -> Option<&SendPriority> {
        self.partitioned.as_ref().map(|p| &p.priority)
    }

    /// Mark freshly computed storage bricks ready on their partitioned
    /// channels, shipping any eager-sized ready prefix at once. `mem` is
    /// the memory the *next* exchange will send. No-op unless
    /// partitioned mode is on, and under the lossy protocol, which owns
    /// all traffic of a lossy run.
    pub fn pready<'c, M: HaloMem<'c>>(
        &mut self,
        ctx: &mut RankCtx<'_>,
        mem: &M,
        bricks: &[u32],
    ) -> Result<(), NetsimError> {
        if self.partitioned.is_none() || self.lossy(ctx) {
            return Ok(());
        }
        let CommPlan { scope, mailbox_sends, partitioned, .. } = self;
        let part = partitioned.as_mut().expect("checked above");
        scoped(ctx, *scope, |ctx| {
            for &b in bricks {
                let Some(list) = part.brick_parts.get(b as usize) else { continue };
                for &(k, p) in list {
                    let data = mem.send(mailbox_sends[k as usize]);
                    part.psends[k as usize].pready(ctx, p as usize, data)?;
                }
            }
            Ok(())
        })
    }

    /// Make `call` over `mem`. Returns what [`Self::poll`] returns for
    /// `Call::Poll`, 0 for the others.
    pub fn call<'c, M: HaloMem<'c>>(
        &mut self,
        ctx: &mut RankCtx<'c>,
        mem: &mut M,
        call: Call<'_>,
    ) -> Result<usize, NetsimError> {
        match call {
            Call::Exchange => self.exchange(ctx, mem)?,
            Call::Begin(completed) => self.begin(ctx, mem, completed)?,
            Call::Poll(completed) => return self.poll(ctx, mem, completed),
            Call::Finish => self.finish(ctx, mem)?,
            Call::Pready(bricks) => self.pready(ctx, mem, bricks)?,
        }
        Ok(0)
    }

    /// One whole exchange: post everything, then block until every
    /// receive has landed, and bill the epoch's `wait`.
    pub fn exchange<'c, M: HaloMem<'c>>(&mut self, ctx: &mut RankCtx<'c>, mem: &mut M) -> Result<(), NetsimError> {
        scoped(ctx, self.scope, |ctx| {
            if self.lossy(ctx) {
                return self.run_reliable(ctx, mem);
            }
            if self.partitioned.is_some() {
                // Nothing was marked ready, so everything ships at the
                // flush: the charges are the whole-message schedule's.
                self.done.fill(false);
                self.begin_partitioned(ctx, mem)?;
                return self.finish_partitioned(ctx, mem);
            }
            // Pre-post: peers that send from here on write the ghost
            // runs themselves. Post order and billing are unchanged.
            if !self.mailbox.is_empty() {
                mem.lend(ctx, &self.recvs, &self.mailbox);
            }
            self.post(ctx, mem)?;
            mem.complete(ctx, &self.handles, &self.mailbox)
        })
    }

    /// First half of a split exchange: post every send and receive and
    /// return without waiting. Self-sends complete inline; mailbox
    /// receives complete later via [`Self::poll`] / [`Self::finish`].
    /// Positions (in [`Self::mailbox`]) of the receives that completed
    /// during this call are appended to `completed`.
    ///
    /// The lossy protocol is collective and cannot be split, so under it
    /// `begin` runs the whole exchange and reports every receive; the
    /// overlap window collapses for that step and results stay
    /// bit-identical.
    pub fn begin<'c, M: HaloMem<'c>>(
        &mut self,
        ctx: &mut RankCtx<'_>,
        mem: &mut M,
        completed: &mut Vec<usize>,
    ) -> Result<(), NetsimError> {
        self.done.fill(false);
        self.fault_step = self.lossy(ctx);
        scoped(ctx, self.scope, |ctx| {
            if self.fault_step {
                self.run_reliable(ctx, mem)?;
                self.done.fill(true);
                Ok(())
            } else if self.partitioned.is_some() {
                self.begin_partitioned(ctx, mem)
            } else {
                self.post(ctx, mem)
            }
        })?;
        completed.extend((0..self.done.len()).filter(|&k| self.done[k]));
        Ok(())
    }

    /// Middle of a split exchange: land whatever has already arrived,
    /// without blocking or billing wait time. Returns how many receives
    /// newly completed; their positions are appended to `completed`.
    pub fn poll<'c, M: HaloMem<'c>>(
        &mut self,
        ctx: &mut RankCtx<'_>,
        mem: &mut M,
        completed: &mut Vec<usize>,
    ) -> Result<usize, NetsimError> {
        if self.fault_step {
            return Ok(0);
        }
        let CommPlan { recvs, mailbox, handles, done, partitioned, .. } = self;
        if let Some(part) = partitioned {
            let mut newly = 0;
            for (k, pr) in part.precvs.iter_mut().enumerate() {
                if !done[k] && pr.poll(ctx, mem.recv(mailbox[k]))? {
                    done[k] = true;
                    completed.push(k);
                    newly += 1;
                }
            }
            return Ok(newly);
        }
        ctx.progress_with(
            handles,
            done,
            completed,
            |k| recvs[k].elems,
            |k, payload| mem.recv(mailbox[k]).copy_from_slice(payload),
        )
    }

    /// Second half of a split exchange: block on the receives still
    /// outstanding and close the epoch, billing `wait` exactly as
    /// [`Self::exchange`] would. Call once per [`Self::begin`], even
    /// when `poll` drained everything.
    pub fn finish<'c, M: HaloMem<'c>>(&mut self, ctx: &mut RankCtx<'_>, mem: &mut M) -> Result<(), NetsimError> {
        if std::mem::take(&mut self.fault_step) {
            return Ok(());
        }
        scoped(ctx, self.scope, |ctx| {
            if self.partitioned.is_some() {
                return self.finish_partitioned(ctx, mem);
            }
            self.pend_handles.clear();
            self.pend_recvs.clear();
            for k in (0..self.done.len()).filter(|&k| !self.done[k]) {
                self.pend_handles.push(self.handles[k]);
                self.pend_recvs.push(self.mailbox[k]);
            }
            mem.complete(ctx, &self.pend_handles, &self.pend_recvs)
        })
    }

    /// Bill every send's payload and run the self-sends among them.
    fn loopbacks<'c, M: HaloMem<'c>>(&self, ctx: &mut RankCtx<'_>, mem: &mut M) -> Result<(), NetsimError> {
        for (i, s) in self.sends.iter().enumerate() {
            ctx.note_payload(s.payload_bytes);
            if let Some(j) = s.loopback {
                mem.loopback(ctx, s.tag, i, j)?;
            }
        }
        Ok(())
    }

    fn post_recvs(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        self.handles.clear();
        for r in &self.recvs {
            self.handles.push(ctx.irecv(r.src, r.tag)?);
        }
        Ok(())
    }

    /// Plain mode: post every whole message.
    fn post<'c, M: HaloMem<'c>>(&mut self, ctx: &mut RankCtx<'_>, mem: &mut M) -> Result<(), NetsimError> {
        if self.recvs_first {
            self.post_recvs(ctx)?;
        }
        for (i, s) in self.sends.iter().enumerate() {
            ctx.note_payload(s.payload_bytes);
            match s.loopback {
                Some(j) => mem.loopback(ctx, s.tag, i, j)?,
                None => ctx.isend(s.dest, s.tag, mem.send(i))?,
            }
        }
        if !self.recvs_first {
            self.post_recvs(ctx)?;
        }
        Ok(())
    }

    /// Lossy mode: mailbox traffic runs the retry protocol (checksummed
    /// frames, retry with backoff, degraded fallback) on whole messages,
    /// partitioned channels or not. It converges to the exact bits of
    /// the fault-free exchange.
    fn run_reliable<'c, M: HaloMem<'c>>(&mut self, ctx: &mut RankCtx<'_>, mem: &mut M) -> Result<(), NetsimError> {
        self.loopbacks(ctx, mem)?;
        let CommPlan { sends, mailbox_sends, recvs, mailbox, reliable, .. } = self;
        let rel = reliable.get_or_insert_with(|| {
            let rsends = mailbox_sends.iter().map(|&i| RelSend { dest: sends[i].dest, tag: sends[i].tag });
            ReliableSession::new(rsends.collect(), recvs.clone())
        });
        rel.begin();
        for (k, &i) in mailbox_sends.iter().enumerate() {
            rel.stage(k, mem.send(i));
        }
        rel.run(ctx, |k, payload| mem.recv(mailbox[k]).copy_from_slice(payload))
    }

    /// `begin` over partitioned channels: each send channel *flushes* —
    /// settling deferred-fragment LogGP residuals first, then shipping
    /// whatever `pready` did not already put on the wire — and each
    /// receive channel re-arms and drains fragments that raced ahead.
    fn begin_partitioned<'c, M: HaloMem<'c>>(&mut self, ctx: &mut RankCtx<'_>, mem: &mut M) -> Result<(), NetsimError> {
        self.loopbacks(ctx, mem)?;
        let part = self.partitioned.as_mut().expect("checked by caller");
        for (ps, &i) in part.psends.iter_mut().zip(&self.mailbox_sends) {
            ps.flush(ctx, mem.send(i))?;
        }
        for (k, pr) in part.precvs.iter_mut().enumerate() {
            pr.begin(ctx)?;
            self.done[k] = pr.poll(ctx, mem.recv(self.mailbox[k]))?;
        }
        Ok(())
    }

    /// `finish` over partitioned channels: block the receives still
    /// outstanding, then close the deferred epoch so `wait` is billed
    /// exactly once per step.
    fn finish_partitioned<'c, M: HaloMem<'c>>(&mut self, ctx: &mut RankCtx<'_>, mem: &mut M) -> Result<(), NetsimError> {
        let part = self.partitioned.as_mut().expect("checked by caller");
        for (k, pr) in part.precvs.iter_mut().enumerate() {
            if !self.done[k] {
                pr.finish(ctx, mem.recv(self.mailbox[k]))?;
                self.done[k] = true;
            }
        }
        ctx.flush_epoch();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Ownership;
    use crate::workload::GridCfg;
    use netsim::telemetry::MigrationStats;
    use netsim::{run_cluster_faulty, run_cluster_on, Backend, CartTopo, FaultConfig, NetworkModel, Timers};

    const STEPS: usize = 6;
    /// Elements of the three messages: two cross the mailbox (on a
    /// periodic 2x1 grid both x neighbors are the other rank), the third
    /// travels along y and wraps to the sender.
    const ELEMS: [usize; 3] = [3 * BRICK, 2 * BRICK, BRICK];
    const RANGES: [Range<usize>; 3] = [0..3 * BRICK, 3 * BRICK..5 * BRICK, 5 * BRICK..TOTAL];
    /// Elements per brick (= partition): one brick is exactly the eager
    /// threshold, so every ready prefix ships at once.
    const BRICK: usize = netsim::DEFAULT_EAGER_BYTES / 8;
    const TOTAL: usize = 6 * BRICK;

    fn schedule() -> (Vec<SendSpec>, Vec<RecvSpec>) {
        let dir = |x: i8, y: i8| Dir::from_offsets(&[x, y]);
        let to = [dir(1, 0), dir(-1, 0), dir(0, 1)];
        let sends = (0..3)
            .map(|i| SendSpec {
                to: to[i],
                tag: i as u64 + 1,
                elems: ELEMS[i],
                // The last two elements of each message are padding.
                payload_bytes: (ELEMS[i] - 2) * 8,
            })
            .collect();
        let recvs = (0..3)
            .map(|i| RecvSpec { from: to[i].mirror(), tag: i as u64 + 1, elems: ELEMS[i] })
            .collect();
        (sends, recvs)
    }

    /// What `rank` stages for send `i` at `step`.
    fn staged(rank: usize, i: usize, step: usize) -> Vec<f64> {
        (0..ELEMS[i]).map(|e| (((step * 2 + rank) * 3 + i) * TOTAL + e) as f64).collect()
    }

    struct Outcome {
        /// Per step: the completion indices `begin` and `poll` reported
        /// (what completes inside `finish` is not reported).
        completed: Vec<Vec<usize>>,
        timers: Timers,
        /// Whether any `finish` billed anything.
        finish_billed: bool,
        injected: u64,
        early_bytes: u64,
    }

    /// `STEPS` exchanges of the three-message schedule on two ranks,
    /// phased or split, checking the delivered bits every step. With
    /// `pready`, every brick of the next step's payload is marked ready
    /// right after the exchange.
    fn drive(faults: FaultConfig, partitioned: bool, split: bool, pready: bool) -> Vec<Outcome> {
        let topo = CartTopo::new(&[2, 1], true);
        run_cluster_faulty(&topo, NetworkModel::theta_aries(), faults, |ctx| {
            let (rank, peer) = (ctx.rank(), 1 - ctx.rank());
            let (sends, recvs) = schedule();
            let mut plan = CommPlan::bind(Some("exchange:test"), ctx, 2, &sends, &recvs, true);
            assert_eq!(plan.mailbox(), [0, 1], "the y message pairs with its own receive");
            if partitioned {
                // Message 0 is bricks 0..3, message 1 bricks 3..5.
                plan.enable_partitioned(BRICK, 5, |i| if i == 0 { vec![0, 1, 2] } else { vec![3, 4] });
            }
            let (mut data, mut pend) = (vec![0.0; TOTAL], Vec::new());
            let mut bufs: Vec<Vec<f64>> = (0..3).map(|i| staged(rank, i, 0)).collect();
            let mut out = Outcome {
                completed: Vec::new(),
                timers: Timers::default(),
                finish_billed: false,
                injected: 0,
                early_bytes: 0,
            };
            for step in 0..STEPS {
                let mut mem = IntoRanges { sends: &bufs, data: data.as_mut_slice().into(), recvs: &RANGES, pend: &mut pend };
                if split {
                    let mut completed = Vec::new();
                    plan.begin(ctx, &mut mem, &mut completed).unwrap();
                    // Even steps poll everything home; odd steps leave
                    // what is still in flight to `finish`.
                    while step % 2 == 0 && completed.len() < 2 {
                        plan.poll(ctx, &mut mem, &mut completed).unwrap();
                    }
                    let before = ctx.timers();
                    plan.finish(ctx, &mut mem).unwrap();
                    out.finish_billed |= ctx.timers() != before;
                    out.completed.push(completed);
                } else {
                    plan.exchange(ctx, &mut mem).unwrap();
                }
                drop(mem);
                assert_eq!(data[RANGES[0].clone()], staged(peer, 0, step)[..], "step {step}");
                assert_eq!(data[RANGES[1].clone()], staged(peer, 1, step)[..], "step {step}");
                assert_eq!(data[RANGES[2].clone()], staged(rank, 2, step)[..], "step {step}");
                for (i, buf) in bufs.iter_mut().enumerate() {
                    *buf = staged(rank, i, step + 1);
                }
                if pready && step + 1 < STEPS {
                    let mem = IntoRanges { sends: &bufs, data: data.as_mut_slice().into(), recvs: &RANGES, pend: &mut pend };
                    plan.pready(ctx, &mem, &[4, 3, 0, 1, 2]).unwrap();
                }
            }
            out.timers = ctx.timers();
            out.injected = ctx.fault_stats().total();
            out.early_bytes = out.timers.early_bytes;
            out
        })
    }

    fn lossy() -> FaultConfig {
        FaultConfig { seed: 11, drop: 0.25, corrupt: 0.15, dup: 0.15, ..FaultConfig::off() }
    }

    /// All four protocol modes, phased and split: the bits delivered are
    /// the bits staged (checked inside `drive`), and a split exchange
    /// reports exactly the mailbox receives, once each.
    #[test]
    fn every_mode_delivers_the_staged_bits() {
        for faults in [FaultConfig::off(), lossy()] {
            for partitioned in [false, true] {
                let phased = drive(faults, partitioned, false, false);
                let split = drive(faults, partitioned, true, false);
                for (p, s) in phased.iter().zip(&split) {
                    for (step, completed) in s.completed.iter().enumerate() {
                        let mut sorted = completed.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        assert_eq!(sorted.len(), completed.len(), "a receive completed twice");
                        if step % 2 == 0 || faults.lossy() {
                            assert_eq!(sorted, [0, 1], "lossy={} partitioned={partitioned}", faults.lossy());
                        } else {
                            assert!(sorted.iter().all(|&k| k < 2));
                        }
                    }
                    if faults.lossy() {
                        // The collective protocol flushed its own epochs
                        // inside `begin`; `finish` closes no second one.
                        assert!(!s.finish_billed);
                    } else {
                        assert!(s.finish_billed, "finish closes the epoch begin left open");
                        assert_eq!(
                            (p.timers.msgs, p.timers.wire_bytes, p.timers.payload_bytes),
                            (s.timers.msgs, s.timers.wire_bytes, s.timers.payload_bytes),
                        );
                        assert_eq!(p.timers.msgs, 3 * STEPS as u64);
                        assert_eq!(p.timers.payload_bytes, ((TOTAL - 6) * 8 * STEPS) as u64);
                    }
                }
                if faults.lossy() {
                    let injected: u64 = phased.iter().chain(&split).map(|o| o.injected).sum();
                    assert!(injected > 0, "seed 11 at these rates must inject something");
                }
            }
        }
    }

    /// Persistent channels nobody marked ready ship everything at the
    /// flush: every modeled charge equals the whole-message schedule's,
    /// and the flushes count their bytes as partitioned, none early.
    #[test]
    fn idle_partitioned_channels_bill_the_whole_message_schedule() {
        let plain = drive(FaultConfig::off(), false, false, false);
        let idle = drive(FaultConfig::off(), true, false, false);
        for (p, i) in plain.iter().zip(&idle) {
            assert_eq!(p.timers, Timers { early_bytes: 0, partition_bytes: 0, ..i.timers });
            assert_eq!(i.early_bytes, 0);
            assert!(i.timers.partition_bytes > 0);
        }
    }

    /// Bricks marked ready leave before the next `begin`, in whatever
    /// order they were marked, and still land where they belong.
    #[test]
    fn pready_ships_early_and_delivers() {
        for split in [false, true] {
            for o in drive(FaultConfig::off(), true, split, true) {
                // Both mailbox messages of every step but the first.
                assert_eq!(o.early_bytes, (5 * BRICK * 8 * (STEPS - 1)) as u64);
                assert_eq!(o.timers.wire_bytes, (TOTAL * 8 * STEPS) as u64);
            }
        }
    }

    /// Edges that differ from rank to rank — rank 1 has none at all —
    /// bound with `from_edges`, phased and split, on a clean and on a
    /// lossy fabric: every receive delivers its sender's staged bits, and
    /// under the retry protocol the edgeless rank still joins every
    /// collective round instead of leaving its peers waiting.
    #[test]
    fn from_edges_delivers_asymmetric_plans() {
        // Rank 0 ships 3 elements to rank 2 and 2 to rank 3; rank 2
        // answers rank 0 with 1; rank 1 idles.
        const EDGES: [(usize, usize, usize); 3] = [(0, 2, 3), (0, 3, 2), (2, 0, 1)];
        let staged = |src: usize, dst: usize, step: usize| -> Vec<f64> {
            let len = EDGES.iter().find(|e| (e.0, e.1) == (src, dst)).unwrap().2;
            (0..len).map(|e| ((step * 4 + src) * 4 + dst) as f64 + e as f64 / 8.0).collect()
        };
        let topo = CartTopo::new(&[4], true);
        let mut retries = 0;
        for faults in [FaultConfig::off(), lossy()] {
            for split in [false, true] {
                let out = run_cluster_faulty(&topo, NetworkModel::theta_aries(), faults, |ctx| {
                    let me = ctx.rank();
                    let outgoing: Vec<_> = EDGES.iter().filter(|e| e.0 == me).collect();
                    let incoming: Vec<_> = EDGES.iter().filter(|e| e.1 == me).collect();
                    let sends: Vec<SendEdge> = outgoing
                        .iter()
                        .map(|e| SendEdge { dest: e.1, tag: 9, elems: e.2, payload_bytes: e.2 * 8 })
                        .collect();
                    let recvs: Vec<RelRecv> =
                        incoming.iter().map(|e| RelRecv { src: e.0, tag: 9, elems: e.2 }).collect();
                    let mut plan = CommPlan::from_edges(None, me, &sends, &recvs, true);
                    assert_eq!(plan.mailbox().len(), recvs.len());
                    let (mut ranges, mut end) = (Vec::new(), 0);
                    for r in &recvs {
                        ranges.push(end..end + r.elems);
                        end += r.elems;
                    }
                    let (mut data, mut pend) = (vec![0.0; end], Vec::new());
                    for step in 0..STEPS {
                        let bufs: Vec<Vec<f64>> = outgoing.iter().map(|e| staged(me, e.1, step)).collect();
                        let mut mem = IntoRanges { sends: &bufs, data: data.as_mut_slice().into(), recvs: &ranges, pend: &mut pend };
                        if split {
                            let mut completed = Vec::new();
                            plan.begin(ctx, &mut mem, &mut completed).unwrap();
                            plan.finish(ctx, &mut mem).unwrap();
                        } else {
                            plan.exchange(ctx, &mut mem).unwrap();
                        }
                        drop(mem);
                        for (e, r) in incoming.iter().zip(&ranges) {
                            assert_eq!(data[r.clone()], staged(e.0, me, step)[..], "rank {me} step {step}");
                        }
                    }
                    (ctx.fault_stats().retries, ctx.timers().msgs)
                });
                if !faults.lossy() {
                    let msgs: Vec<u64> = out.iter().map(|o| o.1).collect();
                    assert_eq!(msgs, [2 * STEPS as u64, 0, STEPS as u64, 0], "split={split}");
                }
                retries += out.iter().map(|o| o.0).sum::<u64>();
            }
        }
        assert!(retries > 0, "seed 11 at these rates must force a retransmission");
    }

    fn on_both_backends(f: impl Fn(Backend)) {
        f(Backend::Thread);
        f(Backend::Event);
    }

    #[test]
    fn block_ownership_discovers_symmetric_plans() {
        on_both_backends(|backend| {
            let grid = GridCfg::uniform([4, 1, 1], 8);
            let topo = CartTopo::new(&[2], true);
            let out = run_cluster_on(
                backend,
                &topo,
                NetworkModel::instant(),
                FaultConfig::off(),
                |ctx| {
                    let mut view = Ownership::block(grid.nbricks(), ctx.size());
                    let owned = view.owned_by(ctx.rank() as u32);
                    discover_plan(ctx, &mut view, &owned, &grid, &mut MigrationStats::default()).unwrap()
                },
            );
            // Ranks own {0,1} and {2,3}; the ±x ghosts cross the cut at
            // both ends of the periodic ring.
            let (p0, p1) = (&out[0], &out[1]);
            assert_eq!(p0.recv, vec![(1, vec![2, 3])], "backend {backend:?}");
            assert_eq!(p0.send, vec![(1, vec![0, 1])]);
            assert_eq!(p1.recv, vec![(0, vec![0, 1])]);
            assert_eq!(p1.send, vec![(0, vec![2, 3])]);
        });
    }

    #[test]
    fn stale_views_are_resolved_by_forwarding() {
        on_both_backends(|backend| {
            let grid = GridCfg::uniform([3, 1, 1], 4);
            let topo = CartTopo::new(&[3], true);
            let out = run_cluster_on(
                backend,
                &topo,
                NetworkModel::instant(),
                FaultConfig::off(),
                |ctx| {
                    // History: brick 1 migrated 1 → 2, but only the two
                    // parties know; rank 0's view is stale.
                    let me = ctx.rank();
                    let mut view = Ownership::block(3, 3);
                    if me != 0 {
                        view.set_owner(1, 2);
                    }
                    let owned: Vec<u32> = match me {
                        0 => vec![0],
                        1 => vec![],
                        _ => vec![1, 2],
                    };
                    let plan = discover_plan(ctx, &mut view, &owned, &grid, &mut MigrationStats::default()).unwrap();
                    (plan, view.owner_of(1))
                },
            );
            let (p0, v0) = &out[0];
            assert_eq!(*v0, 2, "rank 0 learned the true owner, backend {backend:?}");
            assert_eq!(p0.recv, vec![(2, vec![1, 2])]);
            assert_eq!(p0.send, vec![(2, vec![0])]);
            let (p1, _) = &out[1];
            assert!(p1.send.is_empty() && p1.recv.is_empty(), "empty rank idles");
            let (p2, _) = &out[2];
            assert_eq!(p2.send, vec![(0, vec![1, 2])]);
            assert_eq!(p2.recv, vec![(0, vec![0])]);
        });
    }

    #[test]
    fn discovery_traffic_stays_sparse() {
        // 12 ranks on a 12-brick ring: every rank talks to 2 partners;
        // an alltoall would post 12 × 11 = 132 messages.
        let n = 12usize;
        let grid = GridCfg::uniform([n, 1, 1], 2);
        let topo = CartTopo::new(&[n], true);
        let out = run_cluster_on(
            Backend::Thread,
            &topo,
            NetworkModel::instant(),
            FaultConfig::off(),
            |ctx| {
                let mut view = Ownership::block(grid.nbricks(), ctx.size());
                let owned = view.owned_by(ctx.rank() as u32);
                let mut mig = MigrationStats::default();
                discover_plan(ctx, &mut view, &owned, &grid, &mut mig).unwrap();
                mig
            },
        );
        let data: u64 = out.iter().map(|s| s.nbx_data_msgs).sum();
        assert!(data > 0);
        assert!(
            data < (n * (n - 1)) as u64,
            "{data} discovery messages — alltoall territory"
        );
    }

    #[test]
    fn plans_roundtrip_through_snapshots() {
        let plan = ExchangePlan {
            send: vec![(1, vec![4, 9]), (3, vec![2])],
            recv: vec![(0, vec![7])],
        };
        let mut buf = Vec::new();
        plan.encode(&mut buf);
        let (back, used) = ExchangePlan::decode(&buf);
        assert_eq!(used, buf.len());
        assert_eq!(back, plan);
    }
}
