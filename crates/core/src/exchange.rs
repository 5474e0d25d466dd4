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

use brick::BrickStorage;
use layout::{all_regions, Dir};
use netsim::{
    NetsimError, PartitionStats, PartitionTable, PartitionedRecv, PartitionedSend, RankCtx,
    RecvHandle,
};
use sched::SendPriority;

use crate::decomp::BrickDecomp;
use crate::reliable::{RecoveryStats, RelRecv, RelSend, ReliableSession};

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
    /// Frames re-sent by the reliable protocol (0 when fault-free).
    pub retries: u64,
    /// Stale or duplicated frames discarded on receive.
    pub duplicates_discarded: u64,
    /// Frames rejected by checksum or length validation.
    pub corrupt_detected: u64,
    /// Exchanges that fell back to fault-bypassed resends after the
    /// retry budget was exhausted (graceful degradation).
    pub degraded_exchanges: u64,
}

impl ExchangeStats {
    /// Table 2's metric: extra wire traffic from padding, percent.
    pub fn padding_overhead_percent(&self) -> f64 {
        if self.payload_bytes == 0 {
            return 0.0;
        }
        (self.wire_bytes as f64 / self.payload_bytes as f64 - 1.0) * 100.0
    }

    /// Fold the reliable protocol's recovery counters into the report.
    pub fn absorb_recovery(&mut self, r: &RecoveryStats) {
        self.retries += r.retries;
        self.duplicates_discarded += r.duplicates_discarded;
        self.corrupt_detected += r.corrupt_detected;
        self.degraded_exchanges += r.degraded_exchanges;
    }
}

/// A reusable exchange schedule for one rank (the pattern is Static, so
/// it is built once and reused every timestep).
pub struct Exchanger {
    sends: Vec<SendMsg>,
    recvs: Vec<RecvMsg>,
    stats: ExchangeStats,
    step: usize,
    dims: usize,
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
    /// the mailbox (two copies). Exists so benches and equivalence tests
    /// can compare the fast path against the reference transport.
    pub fn session_mailbox(&self, ctx: &RankCtx<'_>) -> ExchangeSession {
        ExchangeSession::build(self, ctx, false)
    }

    /// Perform one full ghost-zone exchange: post every send as a
    /// zero-copy storage sub-slice, then receive every message directly
    /// into its ghost bricks. No pack time is ever charged because no
    /// packing happens.
    ///
    /// This is the allocating reference path kept for comparison and
    /// one-shot use; timestep loops should build a [`session`]
    /// (`Exchanger::session`) and drive that instead.
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

/// One send resolved against a concrete rank: destination, tag,
/// element range, and — when the destination is this rank itself — the
/// paired ghost range start for the loopback fast path.
#[derive(Clone, Debug)]
struct PlannedSend {
    dest: usize,
    tag: u64,
    elems: std::ops::Range<usize>,
    payload_bytes: usize,
    loopback_dst: Option<usize>,
}

/// Tag plane for partition-granularity reliable frames: base channel
/// tags stay below 2^32 and the control channel uses bit 62, so
/// `(tag, partition)` maps to a tag no phased message ever uses.
pub(crate) fn partition_tag(tag: u64, p: usize) -> u64 {
    tag | ((p as u64 + 1) << 32)
}

/// One send channel handed to [`PartitionedExchange::build`]: where the
/// engine's message goes, how big it is, and which storage bricks
/// compose its payload, in message order.
pub(crate) struct PartSendSpec {
    /// Index into the owning engine's send schedule.
    pub src_idx: usize,
    /// Destination rank.
    pub dest: usize,
    /// Base message tag (partition frames derive from it).
    pub tag: u64,
    /// Payload bytes, used to rank channels by exposure.
    pub bytes: usize,
    /// Storage bricks composing the message, in payload order.
    pub bricks: Vec<usize>,
}

/// Partitioned-channel state shared by every exchange engine: the
/// persistent [`PartitionedSend`]/[`PartitionedRecv`] channels, the
/// storage-brick → `(channel, partition)` map driving `pready`, the
/// destination-priority classes, and (lazily, under lossy faults) a
/// partition-granularity [`ReliableSession`].
pub(crate) struct PartitionedExchange {
    /// Persistent send channels, one per non-loopback engine send.
    pub psends: Vec<PartitionedSend>,
    /// For `psends[k]`: index into the engine's send schedule.
    pub psend_src: Vec<usize>,
    /// Persistent receive channels, one per mailbox receive.
    pub precvs: Vec<PartitionedRecv>,
    /// Storage brick → the `(channel k, partition p)` pairs it feeds.
    brick_parts: Vec<Vec<(u32, u32)>>,
    /// Destination-priority classes over storage bricks (class 0 feeds
    /// the most-exposed channel).
    pub priority: SendPriority,
    /// Elements per partition (one padded storage brick).
    pub part_elems: usize,
    /// Partition-granularity retry protocol, built on first lossy step.
    pub rel: Option<ReliableSession>,
    /// Flat reliable receive index → `(mailbox receive j, partition p)`.
    pub rel_recv_map: Vec<(u32, u32)>,
}

impl PartitionedExchange {
    /// Build channels from the engine's send/recv schedule. `recvs` is
    /// `(src, tag, total_elems)` per mailbox receive; `total_bricks` is
    /// the padded brick count of the storage the brick map indexes.
    pub fn build(
        sends: Vec<PartSendSpec>,
        recvs: &[(usize, u64, usize)],
        part_elems: usize,
        total_bricks: usize,
        eager_bytes: usize,
    ) -> PartitionedExchange {
        // Channel exposure rank: largest payload drains slowest, so its
        // source bricks get the most urgent class.
        let mut by_size: Vec<usize> = (0..sends.len()).collect();
        by_size.sort_by_key(|&k| std::cmp::Reverse(sends[k].bytes));
        let mut class = vec![0u32; sends.len()];
        for (c, &k) in by_size.iter().enumerate() {
            class[k] = c as u32;
        }
        let mut priority = SendPriority::new(total_bricks);
        let mut brick_parts: Vec<Vec<(u32, u32)>> = vec![Vec::new(); total_bricks];
        let mut psends = Vec::with_capacity(sends.len());
        let mut psend_src = Vec::with_capacity(sends.len());
        for (k, s) in sends.iter().enumerate() {
            let table = PartitionTable::even(s.bricks.len() * part_elems, part_elems);
            psends.push(PartitionedSend::new(s.dest, s.tag, table).with_eager(eager_bytes));
            psend_src.push(s.src_idx);
            for (p, &b) in s.bricks.iter().enumerate() {
                brick_parts[b].push((k as u32, p as u32));
                priority.assign(b as u32, class[k]);
            }
        }
        let precvs = recvs
            .iter()
            .map(|&(src, tag, elems)| PartitionedRecv::new(src, tag, elems))
            .collect();
        PartitionedExchange {
            psends,
            psend_src,
            precvs,
            brick_parts,
            priority,
            part_elems,
            rel: None,
            rel_recv_map: Vec::new(),
        }
    }

    /// Disjoint borrows for `pready` driving: the send channels
    /// (mutable), their engine send indices, and the storage-brick →
    /// `(channel, partition)` map.
    #[allow(clippy::type_complexity)]
    pub fn pready_parts(
        &mut self,
    ) -> (&mut [PartitionedSend], &[usize], &[Vec<(u32, u32)>]) {
        (&mut self.psends, &self.psend_src, &self.brick_parts)
    }

    /// Accumulated early-shipping counters across all send channels.
    pub fn stats(&self) -> PartitionStats {
        let mut s = PartitionStats::default();
        for ps in &self.psends {
            s.merge(&ps.stats());
        }
        s
    }

    /// Zero the counters (drivers call this when warmup ends).
    pub fn reset_stats(&mut self) {
        for ps in &mut self.psends {
            ps.reset_stats();
        }
    }

    /// Build (once) the partition-granularity reliable session: one
    /// retry channel per `(engine channel, partition)`, so a fault on
    /// one fragment retransmits that partition alone.
    pub fn ensure_reliable(&mut self) {
        if self.rel.is_some() {
            return;
        }
        let mut rsends = Vec::new();
        for ps in &self.psends {
            for p in 0..ps.table().parts() {
                rsends.push(RelSend { dest: ps.dest(), tag: partition_tag(ps.tag(), p) });
            }
        }
        let mut rrecvs = Vec::new();
        let mut map = Vec::new();
        for (j, pr) in self.precvs.iter().enumerate() {
            let table = PartitionTable::even(pr.total_elems(), self.part_elems);
            for p in 0..table.parts() {
                rrecvs.push(RelRecv {
                    src: pr.src(),
                    tag: partition_tag(pr.tag(), p),
                    elems: table.range(p).len(),
                });
                map.push((j as u32, p as u32));
            }
        }
        self.rel = Some(ReliableSession::new(rsends, rrecvs));
        self.rel_recv_map = map;
    }

    /// Disjoint borrows for running the partition-granularity retry
    /// protocol: the session (mutable), the engine send indices, and
    /// the flat receive map. Call [`Self::ensure_reliable`] first.
    pub fn reliable_parts(&mut self) -> (&mut ReliableSession, &[usize], &[(u32, u32)]) {
        (
            self.rel.as_mut().expect("call ensure_reliable first"),
            &self.psend_src,
            &self.rel_recv_map,
        )
    }
}

/// An [`Exchanger`] schedule bound to one rank. Everything per-step is
/// precomputed at build time (the pattern is Static, per the paper):
/// neighbor ranks, tags, element ranges, loopback pairings, and a
/// reusable handle scratch — `exchange` allocates nothing.
pub struct ExchangeSession {
    name: &'static str,
    sends: Vec<PlannedSend>,
    // Unpaired receives (those not satisfied by a loopback send), in
    // schedule order; `recv_ranges` stays sorted and disjoint because it
    // is a subsequence of the sorted ghost ranges.
    recv_srcs: Vec<(usize, u64)>,
    recv_ranges: Vec<std::ops::Range<usize>>,
    handles: Vec<RecvHandle>,
    // Self-healing protocol state, built on first use under a fault
    // plan; the fault-free hot path never touches it.
    reliable: Option<ReliableSession>,
    // Split-exchange (begin/poll/finish) state, reused across steps.
    done: Vec<bool>,
    pend_handles: Vec<RecvHandle>,
    pend_ranges: Vec<std::ops::Range<usize>>,
    // The begin() of this step ran the atomic reliable exchange, which
    // flushes its own epochs — finish() must not close another one.
    fault_step: bool,
    // Persistent partitioned channels (early-bird mode); None keeps the
    // session on the classic whole-message path.
    partitioned: Option<PartitionedExchange>,
}

impl ExchangeSession {
    fn build(ex: &Exchanger, ctx: &RankCtx<'_>, loopback: bool) -> ExchangeSession {
        let rank = ctx.rank();
        let step = ex.step;
        let resolved_recvs: Vec<(usize, u64, std::ops::Range<usize>)> = ex
            .recvs
            .iter()
            .map(|m| {
                let src = ctx
                    .topo()
                    .neighbor(rank, &m.from.offsets(ex.dims))
                    .expect("exchange requires a periodic (or interior) neighbor");
                (src, m.tag, m.bricks.start * step..m.bricks.end * step)
            })
            .collect();
        let mut paired = vec![false; resolved_recvs.len()];
        let sends: Vec<PlannedSend> = ex
            .sends
            .iter()
            .map(|m| {
                let dest = ctx
                    .topo()
                    .neighbor(rank, &m.to.offsets(ex.dims))
                    .expect("exchange requires a periodic (or interior) neighbor");
                let elems = m.bricks.start * step..m.bricks.end * step;
                let mut loopback_dst = None;
                if loopback && dest == rank {
                    // (source = self, tag) is unique per epoch, so the
                    // matching local receive is unambiguous.
                    let j = (0..resolved_recvs.len())
                        .find(|&j| {
                            !paired[j] && resolved_recvs[j].0 == rank && resolved_recvs[j].1 == m.tag
                        })
                        .expect("symmetric schedule pairs every self-send with a self-receive");
                    paired[j] = true;
                    let r = &resolved_recvs[j].2;
                    assert_eq!(elems.len(), r.len(), "paired loopback ranges must match");
                    loopback_dst = Some(r.start);
                }
                PlannedSend {
                    dest,
                    tag: m.tag,
                    elems,
                    payload_bytes: m.payload_bricks * step * 8,
                    loopback_dst,
                }
            })
            .collect();
        let mut recv_srcs = Vec::new();
        let mut recv_ranges = Vec::new();
        for (j, (src, tag, r)) in resolved_recvs.into_iter().enumerate() {
            if !paired[j] {
                recv_srcs.push((src, tag));
                recv_ranges.push(r);
            }
        }
        let handles = Vec::with_capacity(recv_srcs.len());
        let done = vec![false; recv_ranges.len()];
        ExchangeSession {
            name: ex.name,
            sends,
            recv_srcs,
            recv_ranges,
            handles,
            reliable: None,
            done,
            pend_handles: Vec::new(),
            pend_ranges: Vec::new(),
            fault_step: false,
            partitioned: None,
        }
    }

    /// Switch this session into partitioned early-bird mode: every
    /// non-loopback send becomes a persistent [`PartitionedSend`] whose
    /// partitions are the padded storage bricks composing the message
    /// (`step` elements each), every mailbox receive a persistent
    /// [`PartitionedRecv`]. `bricks` is the padded brick count of the
    /// storage the completion driver indexes.
    pub fn enable_partitioned(&mut self, step: usize, bricks: usize, eager_bytes: usize) {
        let sends = self
            .sends
            .iter()
            .enumerate()
            .filter(|(_, m)| m.loopback_dst.is_none())
            .map(|(i, m)| PartSendSpec {
                src_idx: i,
                dest: m.dest,
                tag: m.tag,
                bytes: m.payload_bytes,
                bricks: (m.elems.start / step..m.elems.end / step).collect(),
            })
            .collect();
        let recvs: Vec<(usize, u64, usize)> = self
            .recv_srcs
            .iter()
            .zip(&self.recv_ranges)
            .map(|(&(src, tag), r)| (src, tag, r.len()))
            .collect();
        self.partitioned = Some(PartitionedExchange::build(
            sends,
            &recvs,
            step,
            bricks,
            eager_bytes,
        ));
    }

    /// Destination-priority classes over storage bricks (`None` unless
    /// partitioned mode is on).
    pub fn priority(&self) -> Option<&SendPriority> {
        self.partitioned.as_ref().map(|p| &p.priority)
    }

    /// Early-shipping counters accumulated since the last reset (all
    /// zero when partitioned mode is off).
    pub fn partition_stats(&self) -> PartitionStats {
        self.partitioned
            .as_ref()
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// Zero the early-shipping counters (drivers call this at the end
    /// of warmup so reported fractions cover timed steps only).
    pub fn reset_partition_stats(&mut self) {
        if let Some(p) = self.partitioned.as_mut() {
            p.reset_stats();
        }
    }

    /// Mark freshly-computed boundary bricks ready on their partitioned
    /// channels, shipping any eager-sized ready prefix immediately.
    /// `next` is the destination storage of the running step (the data
    /// the *next* exchange will send). No-op when partitioned mode is
    /// off or the run is lossy (the retry protocol owns lossy traffic).
    pub fn pready_bricks(
        &mut self,
        ctx: &mut RankCtx<'_>,
        bricks: &[u32],
        next: &BrickStorage,
    ) -> Result<(), NetsimError> {
        let Some(part) = self.partitioned.as_mut() else {
            return Ok(());
        };
        if ctx.fault_lossy() {
            return Ok(());
        }
        let name = self.name;
        let sends = &self.sends;
        ctx.scoped(name, |ctx| {
            let (psends, psend_src, brick_parts) = part.pready_parts();
            for &b in bricks {
                let Some(list) = brick_parts.get(b as usize) else { continue };
                for &(k, p) in list {
                    let m = &sends[psend_src[k as usize]];
                    psends[k as usize].pready(ctx, p as usize, &next.as_slice()[m.elems.clone()])?;
                }
            }
            Ok(())
        })
    }

    /// One full ghost-zone exchange with zero per-step allocation.
    /// Self-sends copy once, straight from the send sub-slice into the
    /// posted ghost range; everything else goes through the mailbox.
    /// Wire-model charges are identical to [`Exchanger::exchange`].
    ///
    /// When the rank's fault plan is armed, mailbox traffic switches to
    /// the self-healing [`ReliableSession`] protocol (checksummed
    /// frames, retry with backoff, degraded fallback), which converges
    /// to the exact same storage bits as the fault-free path.
    pub fn exchange(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        let name = self.name;
        ctx.scoped(name, |ctx| self.exchange_inner(ctx, storage))
    }

    fn exchange_inner(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        if ctx.fault_lossy() {
            return self.exchange_reliable(ctx, storage);
        }
        if self.partitioned.is_some() {
            // Phased entry over partitioned channels: no bricks were
            // marked ready, so everything ships at flush — the LogGP
            // charges degenerate to the whole-message schedule.
            self.done.clear();
            self.done.resize(self.recv_ranges.len(), false);
            let mut completed = Vec::new();
            self.begin_partitioned(ctx, storage, &mut completed)?;
            return self.finish_partitioned(ctx, storage);
        }
        for m in &self.sends {
            ctx.note_payload(m.payload_bytes);
            match m.loopback_dst {
                Some(dst) => {
                    ctx.loopback_within(m.tag, storage.as_mut_slice(), m.elems.clone(), dst)?
                }
                None => ctx.isend(m.dest, m.tag, &storage.as_slice()[m.elems.clone()])?,
            }
        }
        self.handles.clear();
        for &(src, tag) in &self.recv_srcs {
            self.handles.push(ctx.irecv(src, tag)?);
        }
        // Charges `wait` and closes the epoch even when every receive
        // was satisfied by loopback.
        ctx.waitall_ranges(&self.handles, storage.as_mut_slice(), &self.recv_ranges)
    }

    /// Recovery-protocol totals (zero unless a chaos run engaged it).
    pub fn recovery_stats(&self) -> RecoveryStats {
        let mut s = self.reliable.as_ref().map(|r| r.stats()).unwrap_or_default();
        if let Some(r) = self.partitioned.as_ref().and_then(|p| p.rel.as_ref()) {
            s.merge(&r.stats());
        }
        s
    }

    /// The exchange under an armed fault plan: loopbacks stay on the
    /// on-node fast path (they never traverse the fabric), mailbox
    /// traffic runs the retry protocol.
    fn exchange_reliable(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        if self.partitioned.is_some() {
            return self.exchange_reliable_partitioned(ctx, storage);
        }
        if self.reliable.is_none() {
            let sends = self
                .sends
                .iter()
                .filter(|m| m.loopback_dst.is_none())
                .map(|m| RelSend { dest: m.dest, tag: m.tag })
                .collect();
            let recvs = self
                .recv_srcs
                .iter()
                .zip(&self.recv_ranges)
                .map(|(&(src, tag), r)| RelRecv { src, tag, elems: r.len() })
                .collect();
            self.reliable = Some(ReliableSession::new(sends, recvs));
        }
        for m in &self.sends {
            ctx.note_payload(m.payload_bytes);
            if let Some(dst) = m.loopback_dst {
                ctx.loopback_within(m.tag, storage.as_mut_slice(), m.elems.clone(), dst)?;
            }
        }
        let rel = self.reliable.as_mut().expect("built above");
        rel.begin();
        let mut j = 0usize;
        for m in &self.sends {
            if m.loopback_dst.is_none() {
                rel.stage(j, &storage.as_slice()[m.elems.clone()]);
                j += 1;
            }
        }
        let ranges = &self.recv_ranges;
        let slice = storage.as_mut_slice();
        rel.run(ctx, |i, payload| slice[ranges[i].clone()].copy_from_slice(payload))
    }

    /// The lossy-fault exchange at partition granularity: each
    /// `(channel, partition)` pair is its own retry channel, so a
    /// dropped or damaged fragment retransmits one padded brick, never
    /// the whole message.
    fn exchange_reliable_partitioned(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        for m in &self.sends {
            ctx.note_payload(m.payload_bytes);
            if let Some(dst) = m.loopback_dst {
                ctx.loopback_within(m.tag, storage.as_mut_slice(), m.elems.clone(), dst)?;
            }
        }
        let part = self.partitioned.as_mut().expect("checked by caller");
        part.ensure_reliable();
        let PartitionedExchange { psends, psend_src, rel, rel_recv_map, part_elems, .. } = part;
        let rel = rel.as_mut().expect("built above");
        rel.begin();
        let mut idx = 0usize;
        for (k, &i) in psend_src.iter().enumerate() {
            let data = &storage.as_slice()[self.sends[i].elems.clone()];
            let table = psends[k].table();
            for p in 0..table.parts() {
                rel.stage(idx, &data[table.range(p)]);
                idx += 1;
            }
        }
        let ranges = &self.recv_ranges;
        let pe = *part_elems;
        let slice = storage.as_mut_slice();
        rel.run(ctx, |i, payload| {
            let (j, p) = rel_recv_map[i];
            let lo = ranges[j as usize].start + p as usize * pe;
            slice[lo..lo + payload.len()].copy_from_slice(payload);
        })
    }

    /// `begin` over partitioned channels: loopbacks complete inline,
    /// each send channel *flushes* — settling deferred-fragment LogGP
    /// residuals first, then shipping whatever `pready` did not already
    /// put on the wire — and each receive channel re-arms and drains
    /// fragments that raced ahead.
    fn begin_partitioned(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
        completed: &mut Vec<usize>,
    ) -> Result<(), NetsimError> {
        for m in &self.sends {
            if let Some(dst) = m.loopback_dst {
                ctx.note_payload(m.payload_bytes);
                ctx.loopback_within(m.tag, storage.as_mut_slice(), m.elems.clone(), dst)?;
            }
        }
        let part = self.partitioned.as_mut().expect("checked by caller");
        let PartitionedExchange { psends, psend_src, precvs, .. } = part;
        for (k, &i) in psend_src.iter().enumerate() {
            let m = &self.sends[i];
            ctx.note_payload(m.payload_bytes);
            psends[k].flush(ctx, &storage.as_slice()[m.elems.clone()])?;
        }
        for (j, pr) in precvs.iter_mut().enumerate() {
            pr.begin(ctx)?;
            if pr.poll(ctx, &mut storage.as_mut_slice()[self.recv_ranges[j].clone()])? {
                self.done[j] = true;
                completed.push(j);
            }
        }
        Ok(())
    }

    /// `finish` over partitioned channels: block the receives still
    /// outstanding, then close the deferred communication epoch so
    /// `wait` is billed exactly once per step.
    fn finish_partitioned(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        let part = self.partitioned.as_mut().expect("checked by caller");
        let precvs = &mut part.precvs;
        for (j, pr) in precvs.iter_mut().enumerate() {
            if !self.done[j] {
                pr.finish(ctx, &mut storage.as_mut_slice()[self.recv_ranges[j].clone()])?;
                self.done[j] = true;
            }
        }
        ctx.flush_epoch();
        Ok(())
    }

    /// Element ranges of the unpaired (mailbox) receives, in schedule
    /// order. Split-exchange completion indices returned by [`Self::begin`]
    /// and [`Self::poll`] index into this slice; a dependency graph maps
    /// them back to the ghost bricks they fill.
    pub fn recv_ranges(&self) -> &[std::ops::Range<usize>] {
        &self.recv_ranges
    }

    /// First half of a split exchange: post every send and receive, then
    /// return without waiting. Loopback self-sends complete inline and
    /// the matching ghost ranges are already filled on return; mailbox
    /// receives complete later via [`Self::poll`] / [`Self::finish`].
    /// Indices (into [`Self::recv_ranges`]) of receives that completed
    /// during this call are appended to `completed`.
    ///
    /// Under an armed fault plan the reliable protocol is collective and
    /// cannot be split, so `begin` runs the whole exchange and reports
    /// every receive as complete; the overlap window simply collapses
    /// for that step, which keeps chaos runs bit-identical.
    pub fn begin(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
        completed: &mut Vec<usize>,
    ) -> Result<(), NetsimError> {
        let name = self.name;
        self.done.clear();
        self.done.resize(self.recv_ranges.len(), false);
        if ctx.fault_lossy() {
            ctx.scoped(name, |ctx| self.exchange_reliable(ctx, storage))?;
            for i in 0..self.recv_ranges.len() {
                self.done[i] = true;
                completed.push(i);
            }
            self.fault_step = true;
            return Ok(());
        }
        self.fault_step = false;
        if self.partitioned.is_some() {
            return ctx.scoped(name, |ctx| self.begin_partitioned(ctx, storage, completed));
        }
        ctx.scoped(name, |ctx| {
            for m in &self.sends {
                ctx.note_payload(m.payload_bytes);
                match m.loopback_dst {
                    Some(dst) => {
                        ctx.loopback_within(m.tag, storage.as_mut_slice(), m.elems.clone(), dst)?
                    }
                    None => ctx.isend(m.dest, m.tag, &storage.as_slice()[m.elems.clone()])?,
                }
            }
            self.handles.clear();
            for &(src, tag) in &self.recv_srcs {
                self.handles.push(ctx.irecv(src, tag)?);
            }
            Ok(())
        })
    }

    /// Middle of a split exchange: drain whatever has already arrived,
    /// copying payloads into their ghost ranges without blocking or
    /// billing wait time. Returns how many receives newly completed;
    /// their indices are appended to `completed`.
    pub fn poll(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
        completed: &mut Vec<usize>,
    ) -> Result<usize, NetsimError> {
        if self.fault_step {
            return Ok(0);
        }
        if let Some(part) = self.partitioned.as_mut() {
            let mut newly = 0usize;
            for (j, pr) in part.precvs.iter_mut().enumerate() {
                if self.done[j] {
                    continue;
                }
                if pr.poll(ctx, &mut storage.as_mut_slice()[self.recv_ranges[j].clone()])? {
                    self.done[j] = true;
                    completed.push(j);
                    newly += 1;
                }
            }
            return Ok(newly);
        }
        ctx.progress(
            &self.handles,
            storage.as_mut_slice(),
            &self.recv_ranges,
            &mut self.done,
            completed,
        )
    }

    /// Second half of a split exchange: block on the receives still
    /// outstanding and close the communication epoch (billing `wait`
    /// exactly as the phased [`Self::exchange`] would). Must be called
    /// once per [`Self::begin`], even when `poll` drained everything.
    pub fn finish(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut BrickStorage,
    ) -> Result<(), NetsimError> {
        if self.fault_step {
            // The reliable protocol already flushed its epochs.
            self.fault_step = false;
            return Ok(());
        }
        if self.partitioned.is_some() {
            let name = self.name;
            return ctx.scoped(name, |ctx| self.finish_partitioned(ctx, storage));
        }
        self.pend_handles.clear();
        self.pend_ranges.clear();
        for (i, &d) in self.done.iter().enumerate() {
            if !d {
                self.pend_handles.push(self.handles[i]);
                self.pend_ranges.push(self.recv_ranges[i].clone());
            }
        }
        let name = self.name;
        ctx.scoped(name, |ctx| {
            ctx.waitall_ranges(&self.pend_handles, storage.as_mut_slice(), &self.pend_ranges)
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
    /// pool is warm. `BufferPool::take` is a size-blind LIFO, so warm
    /// means every pooled buffer has grown to the largest of the 42
    /// frames: the regrowth tails off (42, 18, 11, ... per step, with
    /// quiet steps in between) and ends after 23 steps here, not 2.
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
            for _ in 0..32 {
                mailbox.exchange(ctx, &mut st).unwrap();
            }
            let warm = ctx.transport_allocs();
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
                (st.as_slice().to_vec(), damage, sess.recovery_stats())
            })
        };
        let cfg = FaultConfig { seed: 42, drop: 0.10, corrupt: 0.05, dup: 0.10, ..FaultConfig::off() };
        let lossy = run(cfg);
        let clean = run(FaultConfig::off());
        let mut injected = 0u64;
        for ((grid, damage, _), (want, _, _)) in lossy.iter().zip(&clean) {
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
