//! Persistent partitioned channels: `pready`-style early-bird sends.
//!
//! Models MPI-4 partitioned communication (`MPI_Psend_init` /
//! `MPI_Pready`) on top of the pooled transport, following *Persistent
//! and Partitioned MPI for Stencil Communication*: a
//! [`PartitionedSend`] is bound **once** to a `(dest, tag,
//! partition-table)` triple, compute workers mark individual partitions
//! ready as their bricks finish, and the channel ships accumulated
//! ready *prefixes* early — before the message's nominal injection
//! point at the next exchange — so the fragment's serialization drains
//! behind compute that is still being billed.
//!
//! # Wire-model accounting
//!
//! Early fragments go out via `RankCtx::isend_deferred`: each one is
//! charged the per-message overhead `o` (the real cost of fragmenting —
//! more fragments, more injection overhead) but stays out of the send
//! epoch; its serialization `g + B/β` is **deferred**. The channel
//! timestamps the fragment with the rank's virtual clock; at the next
//! [`PartitionedSend::flush`] it bills only the *residual*
//! `max(0, (g + B/β) − elapsed)` — whatever part of the drain the
//! intervening billed work did not cover. The remainder of the message
//! (partitions not shipped early) is posted through the ordinary epoch
//! path, which also carries the exchange's `α` latency term, so a
//! channel that never sees a `pready` degenerates to exactly the
//! phased send.
//!
//! This is the piece of the paper's win that whole-message overlap
//! (PR 5) structurally cannot reach: a whole message is injected at the
//! start of exchange *t+1* and can only hide behind window *t+1*'s
//! compute, while an early partition injected mid-window *t* also
//! drains behind the *tail* of window *t* — boundary bricks the sender
//! is still computing — absorbing per-rank jitter before the receiver
//! ever waits.
//!
//! # Receive side
//!
//! A [`PartitionedRecv`] posts **one** receive per exchange (one `o`,
//! the persistent-channel win) and scatters however many fragments
//! arrive at a running cursor into the destination range. Mailbox
//! non-overtaking order per `(source, tag)` makes the cumulative-prefix
//! protocol headerless: fragments of message *t* all precede fragments
//! of message *t+1*, and the receiver stops at exactly the bound
//! element count.

use std::ops::Range;

use crate::cluster::RankCtx;
use crate::error::NetsimError;
use crate::RecvHandle;

/// Default eager-ship threshold in bytes: a ready prefix at least this
/// large goes out immediately. Sized so the fragment's bandwidth term
/// (`B/β`) is a few multiples of the per-fragment overhead `o` on the
/// bundled fabrics — small enough to ship per-brick-cluster, large
/// enough that fragmentation overhead stays a minor tax.
pub const DEFAULT_EAGER_BYTES: usize = 8 * 1024;

/// Immutable partition layout of one message: `parts` contiguous
/// element sub-ranges covering `[0, total_elems)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionTable {
    /// Cumulative element bounds; `bounds[p]..bounds[p+1]` is partition
    /// `p`. Always starts at 0 and ends at the total element count.
    bounds: Vec<usize>,
}

impl PartitionTable {
    /// Evenly partition `total_elems` into chunks of `part_elems`
    /// (ragged last chunk). `part_elems == 0` or `>= total_elems`
    /// yields a single partition.
    pub fn even(total_elems: usize, part_elems: usize) -> PartitionTable {
        assert!(total_elems > 0, "cannot partition an empty message");
        let step = if part_elems == 0 { total_elems } else { part_elems };
        let mut bounds = Vec::with_capacity(total_elems / step + 2);
        let mut at = 0;
        while at < total_elems {
            bounds.push(at);
            at += step;
        }
        bounds.push(total_elems);
        PartitionTable { bounds }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total elements across all partitions.
    pub fn total_elems(&self) -> usize {
        // `bounds` always holds parts+1 entries (the constructor seeds
        // index 0), so `last()` cannot fail even for an empty table.
        *self.bounds.last().unwrap()
    }

    /// Element range of partition `p` within the message.
    pub fn range(&self, p: usize) -> Range<usize> {
        self.bounds[p]..self.bounds[p + 1]
    }
}

/// Byte counters for one or more partitioned channels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// Payload bytes shipped early via `pready` (before the owning
    /// message's flush).
    pub early_bytes: u64,
    /// Total payload bytes flushed through partitioned channels.
    pub total_bytes: u64,
    /// Fragments put on the wire (early + flush remainders).
    pub fragments: u64,
    /// `pready` calls observed.
    pub preadys: u64,
}

impl PartitionStats {
    /// Element-wise sum.
    pub fn merge(&mut self, o: &PartitionStats) {
        self.early_bytes += o.early_bytes;
        self.total_bytes += o.total_bytes;
        self.fragments += o.fragments;
        self.preadys += o.preadys;
    }

    /// Fraction of partitioned payload that left early (0 when nothing
    /// was flushed yet).
    pub fn early_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.early_bytes as f64 / self.total_bytes as f64
        }
    }
}

/// Send half of a persistent partitioned channel.
///
/// Bound once to `(dest, tag, table)`; per exchange the owner calls
/// [`PartitionedSend::pready`] zero or more times as partitions
/// complete, then [`PartitionedSend::flush`] at the next exchange's
/// injection point to post the remainder and settle the deferred
/// bandwidth of the early fragments.
#[derive(Debug)]
pub struct PartitionedSend {
    dest: usize,
    tag: u64,
    table: PartitionTable,
    eager_bytes: usize,
    ready: Vec<bool>,
    /// First partition not yet marked ready (prefix frontier).
    frontier: usize,
    /// Elements already shipped for the in-flight message.
    shipped: usize,
    /// Of those, elements shipped via `pready` (early).
    early_elems: usize,
    /// Early fragments awaiting settlement: `(ship virtual time,
    /// drain seconds g + B/β)`.
    inflight: Vec<(f64, f64)>,
    stats: PartitionStats,
}

impl PartitionedSend {
    /// Bind a channel to `(dest, tag, table)` with the default eager
    /// threshold.
    pub fn new(dest: usize, tag: u64, table: PartitionTable) -> PartitionedSend {
        let parts = table.parts();
        PartitionedSend {
            dest,
            tag,
            table,
            eager_bytes: DEFAULT_EAGER_BYTES,
            ready: vec![false; parts],
            frontier: 0,
            shipped: 0,
            early_elems: 0,
            inflight: Vec::new(),
            stats: PartitionStats::default(),
        }
    }

    /// Override the eager-ship threshold (bytes of contiguous ready
    /// prefix that trigger an immediate fragment; 0 ships on every
    /// frontier advance).
    pub fn with_eager(mut self, bytes: usize) -> PartitionedSend {
        self.eager_bytes = bytes;
        self
    }

    /// Destination rank.
    pub fn dest(&self) -> usize {
        self.dest
    }

    /// Channel tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The bound partition table.
    pub fn table(&self) -> &PartitionTable {
        &self.table
    }

    /// Mark partition `p` of the upcoming message ready and ship the
    /// accumulated ready prefix if it crossed the eager threshold.
    /// `data` is the full message payload (the buffer the next
    /// [`PartitionedSend::flush`] will send); only the newly shippable
    /// prefix is read. Idempotent per partition per message.
    pub fn pready(
        &mut self,
        ctx: &mut RankCtx<'_>,
        p: usize,
        data: &[f64],
    ) -> Result<(), NetsimError> {
        debug_assert_eq!(data.len(), self.table.total_elems());
        self.stats.preadys += 1;
        if self.ready[p] {
            return Ok(());
        }
        self.ready[p] = true;
        while self.frontier < self.table.parts() && self.ready[self.frontier] {
            self.frontier += 1;
        }
        let prefix = self.table.bounds[self.frontier];
        if (prefix - self.shipped) * std::mem::size_of::<f64>() >= self.eager_bytes.max(1) {
            self.ship(ctx, data, prefix, true)?;
        }
        Ok(())
    }

    /// Put `data[shipped..upto]` on the wire as one fragment.
    fn ship(
        &mut self,
        ctx: &mut RankCtx<'_>,
        data: &[f64],
        upto: usize,
        early: bool,
    ) -> Result<(), NetsimError> {
        let frag = &data[self.shipped..upto];
        if early {
            ctx.isend_deferred(self.dest, self.tag, frag)?;
            // Timestamp *after* the post: drain starts once injected,
            // so the fragment's own `o` does not count as drain. The
            // drain rate is the tier this destination is reached over
            // (shared memory for an on-node peer in a hierarchical run).
            let net = ctx.network_to(self.dest);
            let cost = net.gap + std::mem::size_of_val(frag) as f64 / net.bandwidth;
            self.inflight.push((ctx.virtual_time(), cost));
            self.early_elems += frag.len();
        } else {
            ctx.isend(self.dest, self.tag, frag)?;
        }
        self.stats.fragments += 1;
        self.shipped = upto;
        Ok(())
    }

    /// Post the message remainder through the ordinary epoch path,
    /// settle the deferred bandwidth of this message's early fragments
    /// (billing only the drain residual not covered by intervening
    /// billed work), and re-arm the channel for the next message.
    /// `data` must be the same logical payload earlier `pready` calls
    /// sliced.
    pub fn flush(&mut self, ctx: &mut RankCtx<'_>, data: &[f64]) -> Result<(), NetsimError> {
        debug_assert_eq!(data.len(), self.table.total_elems());
        let total = self.table.total_elems();
        // Settle first: the drain window closes at the next message's
        // injection point, before the remainder's own posting cost.
        let now = ctx.virtual_time();
        let mut residual = 0.0;
        for &(at, cost) in &self.inflight {
            residual += (cost - (now - at).max(0.0)).max(0.0);
        }
        if residual > 0.0 {
            ctx.charge_wait(residual);
        }
        self.inflight.clear();
        if self.shipped < total {
            self.ship(ctx, data, total, false)?;
        }
        self.stats.early_bytes += (self.early_elems * std::mem::size_of::<f64>()) as u64;
        self.stats.total_bytes += (total * std::mem::size_of::<f64>()) as u64;
        self.ready.fill(false);
        self.frontier = 0;
        self.shipped = 0;
        self.early_elems = 0;
        Ok(())
    }

    /// Accumulated channel statistics.
    pub fn stats(&self) -> PartitionStats {
        self.stats
    }

    /// Zero the statistics (e.g. after warmup steps).
    pub fn reset_stats(&mut self) {
        self.stats = PartitionStats::default();
    }
}

/// Receive half of a persistent partitioned channel: one posted
/// receive per exchange, fragments scattered at a running cursor.
#[derive(Debug)]
pub struct PartitionedRecv {
    src: usize,
    tag: u64,
    total_elems: usize,
    handle: Option<RecvHandle>,
    filled: usize,
}

impl PartitionedRecv {
    /// Bind a receive channel to `(src, tag)` expecting `total_elems`
    /// elements per message.
    pub fn new(src: usize, tag: u64, total_elems: usize) -> PartitionedRecv {
        assert!(total_elems > 0, "cannot bind an empty receive channel");
        PartitionedRecv { src, tag, total_elems, handle: None, filled: 0 }
    }

    /// Source rank.
    pub fn src(&self) -> usize {
        self.src
    }

    /// Channel tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Elements expected per message.
    pub fn total_elems(&self) -> usize {
        self.total_elems
    }

    /// Arm the channel for one message: posts the single persistent
    /// receive (one `o`) and rewinds the fragment cursor.
    pub fn begin(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        debug_assert!(self.handle.is_none(), "begin without finishing previous message");
        self.handle = Some(ctx.irecv(self.src, self.tag)?);
        self.filled = 0;
        Ok(())
    }

    /// Drain any fragments that already arrived into `dst` (the bound
    /// destination range, `total_elems` long) without blocking.
    /// Returns whether the message is complete; a poll that finds
    /// nothing on a revoked communicator reports
    /// [`NetsimError::RankFailed`].
    pub fn poll(&mut self, ctx: &mut RankCtx<'_>, dst: &mut [f64]) -> Result<bool, NetsimError> {
        debug_assert_eq!(dst.len(), self.total_elems);
        let Some(h) = self.handle else { return Ok(true) };
        while self.filled < self.total_elems {
            let Some(msg) = ctx.try_wait(h)? else { break };
            self.scatter(ctx, msg, dst)?;
        }
        if self.filled == self.total_elems {
            self.handle = None;
        }
        Ok(self.handle.is_none())
    }

    /// Block until the message completes, scattering the remaining
    /// fragments into `dst`. Errors as [`RankCtx::recv_blocking`] does.
    pub fn finish(&mut self, ctx: &mut RankCtx<'_>, dst: &mut [f64]) -> Result<(), NetsimError> {
        debug_assert_eq!(dst.len(), self.total_elems);
        let Some(h) = self.handle else { return Ok(()) };
        while self.filled < self.total_elems {
            let msg = ctx.recv_blocking(h)?;
            self.scatter(ctx, msg, dst)?;
        }
        self.handle = None;
        Ok(())
    }

    fn scatter(
        &mut self,
        ctx: &RankCtx<'_>,
        msg: crate::RecvdMsg<'_>,
        dst: &mut [f64],
    ) -> Result<(), NetsimError> {
        let got = msg.data().len();
        if self.filled + got > self.total_elems {
            return Err(NetsimError::SizeMismatch {
                rank: ctx.rank(),
                source: self.src,
                tag: self.tag,
                expected: self.total_elems - self.filled,
                got,
            });
        }
        dst[self.filled..self.filled + got].copy_from_slice(msg.data());
        self.filled += got;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster, run_cluster_on, Backend};
    use crate::model::NetworkModel;
    use crate::topo::CartTopo;
    use crate::FaultConfig;

    const TAG: u64 = 0x77;

    fn payload(rank: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (rank * 1000 + i) as f64).collect()
    }

    /// One exchange over a bound channel pair: rank 0 -> rank 1, with
    /// the given pready order before the flush.
    fn ring_exchange(
        net: NetworkModel,
        eager: usize,
        pready_order: &[usize],
    ) -> Vec<(Vec<f64>, PartitionStats, f64)> {
        let order = pready_order.to_vec();
        let topo = CartTopo::new(&[2], false);
        run_cluster(&topo, net, move |ctx| {
            let n = 16;
            if ctx.rank() == 0 {
                let table = PartitionTable::even(n, 4);
                let mut tx = PartitionedSend::new(1, TAG, table).with_eager(eager);
                let data = payload(0, n);
                for &p in &order {
                    tx.pready(ctx, p, &data).unwrap();
                }
                tx.flush(ctx, &data).unwrap();
                ctx.flush_epoch();
                (Vec::new(), tx.stats(), ctx.timers().wait)
            } else {
                let mut rx = PartitionedRecv::new(0, TAG, n);
                let mut dst = vec![0.0; n];
                rx.begin(ctx).unwrap();
                rx.finish(ctx, &mut dst).unwrap();
                (dst, PartitionStats::default(), 0.0)
            }
        })
    }

    #[test]
    fn table_even_is_ragged_and_covering() {
        let t = PartitionTable::even(10, 4);
        assert_eq!(t.parts(), 3);
        assert_eq!(t.range(0), 0..4);
        assert_eq!(t.range(2), 8..10);
        assert_eq!(t.total_elems(), 10);
    }

    #[test]
    fn prefix_ships_only_when_contiguous() {
        // pready order 1, 0, 3: partition 1 alone is not a prefix; 0
        // completes the [0,1] prefix (8 elems = 64 B >= eager 1); 3 is
        // blocked behind 2, which never readies early.
        let out = ring_exchange(NetworkModel::instant(), 1, &[1, 0, 3]);
        let (dst, _, _) = &out[1];
        assert_eq!(dst, &payload(0, 16));
        let (_, stats, _) = &out[0];
        assert_eq!(stats.early_bytes, 8 * 8);
        assert_eq!(stats.total_bytes, 16 * 8);
        assert_eq!(stats.fragments, 2); // early [0..8), flush [8..16)
        assert_eq!(stats.preadys, 3);
    }

    #[test]
    fn eager_threshold_holds_small_prefixes_back() {
        // Threshold above the whole message: nothing ships early, the
        // flush sends one whole-message fragment — the phased shape.
        let out = ring_exchange(NetworkModel::instant(), 1 << 20, &[0, 1, 2, 3]);
        let (dst, _, _) = &out[1];
        assert_eq!(dst, &payload(0, 16));
        let (_, stats, _) = &out[0];
        assert_eq!(stats.early_bytes, 0);
        assert_eq!(stats.fragments, 1);
        assert!((stats.early_fraction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_pready_is_idempotent_and_completes() {
        let out = ring_exchange(NetworkModel::instant(), 1, &[3, 3, 2, 1, 0, 0]);
        let (dst, _, _) = &out[1];
        assert_eq!(dst, &payload(0, 16));
        let (_, stats, _) = &out[0];
        // Frontier jumps 0 -> 4 on the last effective pready: one
        // early fragment of the whole message, nothing at flush.
        assert_eq!(stats.early_bytes, 16 * 8);
        assert_eq!(stats.fragments, 1);
        assert!((stats.early_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deferred_bandwidth_bills_only_the_residual() {
        // Early fragment cost = g + B/beta. With enough compute billed
        // between pready and flush the residual is zero; with none it
        // is the full drain cost. Latency terms flow through the epoch
        // either way.
        let net = NetworkModel::theta_aries();
        let drain = |calc_secs: f64| -> f64 {
            let topo = CartTopo::new(&[2], false);
            let out = run_cluster(&topo, net, move |ctx| {
                let n = 1024;
                if ctx.rank() == 0 {
                    let table = PartitionTable::even(n, n / 2);
                    let mut tx = PartitionedSend::new(1, TAG, table).with_eager(1);
                    let data = payload(0, n);
                    tx.pready(ctx, 0, &data).unwrap();
                    ctx.charge_calc(calc_secs);
                    tx.flush(ctx, &data).unwrap();
                    ctx.flush_epoch();
                    ctx.timers().wait
                } else {
                    let mut rx = PartitionedRecv::new(0, TAG, n);
                    let mut dst = vec![0.0; n];
                    rx.begin(ctx).unwrap();
                    rx.finish(ctx, &mut dst).unwrap();
                    0.0
                }
            });
            out[0]
        };
        let frag_cost = net.gap + (512.0 * 8.0) / net.bandwidth;
        // The epoch sees only the flush remainder (one message, 512
        // elems): alpha + remainder_bytes/beta. The deferred fragment
        // contributes nothing to it.
        let epoch_wait = net.latency + (512.0 * 8.0) / net.bandwidth;
        let hidden = drain(1.0);
        let exposed = drain(0.0);
        assert!(
            (hidden - epoch_wait).abs() < 1e-12,
            "drained fragment should cost no wait: {hidden} vs {epoch_wait}"
        );
        assert!(
            (exposed - (epoch_wait + frag_cost)).abs() < 1e-12,
            "undrained fragment should bill its full cost: {exposed} vs {}",
            epoch_wait + frag_cost
        );
    }

    #[test]
    fn oversize_fragment_reports_size_mismatch() {
        let topo = CartTopo::new(&[2], false);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, TAG, &payload(0, 10)).unwrap();
                ctx.flush_epoch();
                true
            } else {
                let mut rx = PartitionedRecv::new(0, TAG, 8);
                let mut dst = vec![0.0; 8];
                rx.begin(ctx).unwrap();
                matches!(
                    rx.finish(ctx, &mut dst),
                    Err(NetsimError::SizeMismatch { expected: 8, got: 10, .. })
                )
            }
        });
        assert!(out[1]);
    }

    #[test]
    fn channel_reuse_across_messages_with_poll() {
        // Two back-to-back messages on one bound channel pair, with the
        // second message's early fragments posted before the receiver
        // finishes... the mailbox's non-overtaking order keeps the
        // cursor protocol headerless.
        let topo = CartTopo::new(&[2], false);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let n = 12;
            if ctx.rank() == 0 {
                let table = PartitionTable::even(n, 3);
                let mut tx = PartitionedSend::new(1, TAG, table).with_eager(1);
                let a = payload(7, n);
                let b = payload(9, n);
                tx.flush(ctx, &a).unwrap(); // message 1: no preadys
                tx.pready(ctx, 0, &b).unwrap(); // early for message 2
                tx.pready(ctx, 1, &b).unwrap();
                tx.flush(ctx, &b).unwrap(); // message 2 remainder
                ctx.flush_epoch();
                (Vec::new(), Vec::new())
            } else {
                let mut rx = PartitionedRecv::new(0, TAG, n);
                let mut a = vec![0.0; n];
                let mut b = vec![0.0; n];
                rx.begin(ctx).unwrap();
                rx.finish(ctx, &mut a).unwrap();
                rx.begin(ctx).unwrap();
                while !rx.poll(ctx, &mut b).unwrap() {}
                (a, b)
            }
        });
        let (a, b) = &out[1];
        assert_eq!(a, &payload(7, 12));
        assert_eq!(b, &payload(9, 12));
    }

    #[test]
    fn event_backend_matches_thread_backend() {
        if !Backend::event_supported() {
            return;
        }
        let run = |backend: Backend| {
            let topo = CartTopo::new(&[2], false);
            run_cluster_on(backend, &topo, NetworkModel::theta_aries(), FaultConfig::off(), |ctx| {
                let n = 64;
                if ctx.rank() == 0 {
                    let table = PartitionTable::even(n, 8);
                    let mut tx = PartitionedSend::new(1, TAG, table).with_eager(1);
                    let data = payload(3, n);
                    for p in [2, 0, 1, 7, 3] {
                        tx.pready(ctx, p, &data).unwrap();
                    }
                    tx.flush(ctx, &data).unwrap();
                    ctx.flush_epoch();
                    (Vec::new(), ctx.timers().wait.to_bits())
                } else {
                    let mut rx = PartitionedRecv::new(0, TAG, n);
                    let mut dst = vec![0.0; n];
                    rx.begin(ctx).unwrap();
                    rx.finish(ctx, &mut dst).unwrap();
                    (dst, 0)
                }
            })
        };
        let t = run(Backend::Thread);
        let e = run(Backend::Event);
        assert_eq!(t[1].0, e[1].0);
        assert_eq!(t[0].1, e[0].1);
    }
}
