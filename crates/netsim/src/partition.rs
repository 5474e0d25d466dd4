//! Persistent partitioned channels: `pready`-style early-bird sends.
//!
//! Models MPI-4 partitioned communication (`MPI_Psend_init` /
//! `MPI_Pready`) on top of the pooled transport, following *Persistent
//! and Partitioned MPI for Stencil Communication*: a
//! [`PartitionedSend`] is bound **once** to a `(dest, tag)` pair and a
//! message cut into equal partitions (the last may be ragged), compute
//! workers mark individual partitions ready as their bricks finish,
//! and the channel ships accumulated
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
//! The flush also counts the message on the rank's
//! [`Timers`](crate::Timers): `partition_bytes` gets its payload and
//! `early_bytes` the part `pready` already shipped. Counting at the
//! flush puts a message's early bytes in the step that sends the rest,
//! whenever its bricks were marked ready. There is no retry protocol at
//! partition granularity: a lossy run never ships early and retries
//! whole messages (the caller's choice; see `packfree`'s `CommPlan`).
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

use crate::cluster::RankCtx;
use crate::error::NetsimError;
use crate::RecvHandle;

/// Default eager-ship threshold in bytes: a ready prefix at least this
/// large goes out immediately. Sized so the fragment's bandwidth term
/// (`B/β`) is a few multiples of the per-fragment overhead `o` on the
/// bundled fabrics — small enough to ship per-brick-cluster, large
/// enough that fragmentation overhead stays a minor tax.
pub const DEFAULT_EAGER_BYTES: usize = 8 * 1024;

/// Send half of a persistent partitioned channel.
///
/// Bound once to `(dest, tag)` and a message of `total_elems` elements
/// cut into partitions of `part_elems` (the last one may be shorter);
/// per exchange the owner calls [`PartitionedSend::pready`] zero or more
/// times as partitions complete, then [`PartitionedSend::flush`] at the
/// next exchange's injection point to post the remainder and settle the
/// deferred bandwidth of the early fragments.
#[derive(Debug)]
pub struct PartitionedSend {
    dest: usize,
    tag: u64,
    total_elems: usize,
    part_elems: usize,
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
}

impl PartitionedSend {
    /// Bind a channel to `(dest, tag)` for messages of `total_elems`
    /// elements in partitions of `part_elems` (ragged last partition;
    /// `part_elems == 0` or `>= total_elems` is a single partition),
    /// with the default eager threshold.
    pub fn new(dest: usize, tag: u64, total_elems: usize, part_elems: usize) -> PartitionedSend {
        assert!(total_elems > 0, "cannot partition an empty message");
        let part_elems = if part_elems == 0 { total_elems } else { part_elems };
        PartitionedSend {
            dest,
            tag,
            total_elems,
            part_elems,
            eager_bytes: DEFAULT_EAGER_BYTES,
            ready: vec![false; total_elems.div_ceil(part_elems)],
            frontier: 0,
            shipped: 0,
            early_elems: 0,
            inflight: Vec::new(),
        }
    }

    /// Override the eager-ship threshold (bytes of contiguous ready
    /// prefix that trigger an immediate fragment; 0 ships on every
    /// frontier advance).
    #[cfg(test)]
    pub(crate) fn with_eager(mut self, bytes: usize) -> PartitionedSend {
        self.eager_bytes = bytes;
        self
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
        debug_assert_eq!(data.len(), self.total_elems);
        if self.ready[p] {
            return Ok(());
        }
        self.ready[p] = true;
        while self.frontier < self.ready.len() && self.ready[self.frontier] {
            self.frontier += 1;
        }
        let prefix = (self.frontier * self.part_elems).min(self.total_elems);
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
        self.shipped = upto;
        Ok(())
    }

    /// Post the message remainder through the ordinary epoch path,
    /// settle the deferred bandwidth of this message's early fragments
    /// (billing only the drain residual not covered by intervening
    /// billed work), count the message's early and total payload bytes
    /// on the rank's [`Timers`](crate::Timers), and re-arm the channel
    /// for the next message. `data` must be the same logical payload
    /// earlier `pready` calls sliced.
    pub fn flush(&mut self, ctx: &mut RankCtx<'_>, data: &[f64]) -> Result<(), NetsimError> {
        debug_assert_eq!(data.len(), self.total_elems);
        let total = self.total_elems;
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
        let word = std::mem::size_of::<f64>();
        ctx.note_partitioned(self.early_elems * word, total * word);
        self.ready.fill(false);
        self.frontier = 0;
        self.shipped = 0;
        self.early_elems = 0;
        Ok(())
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
    use crate::{FaultConfig, Timers};

    const TAG: u64 = 0x77;

    fn payload(rank: usize, n: usize) -> Vec<f64> {
        (0..n).map(|i| (rank * 1000 + i) as f64).collect()
    }

    /// One exchange over a bound channel pair: rank 0 -> rank 1, a
    /// message of `n` elements in partitions of `part`, with the given
    /// pready order before the flush. Rank 0 also returns its timers,
    /// whose only traffic is the channel's.
    fn ring_exchange(
        net: NetworkModel,
        eager: usize,
        (n, part): (usize, usize),
        pready_order: &[usize],
    ) -> Vec<(Vec<f64>, Timers)> {
        let order = pready_order.to_vec();
        let topo = CartTopo::new(&[2], false);
        run_cluster(&topo, net, move |ctx| {
            if ctx.rank() == 0 {
                let mut tx = PartitionedSend::new(1, TAG, n, part).with_eager(eager);
                let data = payload(0, n);
                for &p in &order {
                    tx.pready(ctx, p, &data).unwrap();
                }
                tx.flush(ctx, &data).unwrap();
                ctx.flush_epoch();
                (Vec::new(), ctx.timers())
            } else {
                let mut rx = PartitionedRecv::new(0, TAG, n);
                let mut dst = vec![0.0; n];
                rx.begin(ctx).unwrap();
                rx.finish(ctx, &mut dst).unwrap();
                (dst, Timers::default())
            }
        })
    }

    /// Early share of the partitioned payload the rank flushed.
    fn early_fraction(t: &Timers) -> f64 {
        t.early_bytes as f64 / t.partition_bytes as f64
    }

    #[test]
    fn prefix_ships_only_when_contiguous() {
        // pready order 1, 0, 3: partition 1 alone is not a prefix; 0
        // completes the [0,1] prefix (8 elems = 64 B >= eager 1); 3 is
        // blocked behind 2, which never readies early.
        let out = ring_exchange(NetworkModel::instant(), 1, (16, 4), &[1, 0, 3]);
        let (dst, _) = &out[1];
        assert_eq!(dst, &payload(0, 16));
        let (_, t) = &out[0];
        assert_eq!(t.early_bytes, 8 * 8);
        assert_eq!(t.partition_bytes, 16 * 8);
        assert_eq!(t.msgs, 2); // early [0..8), flush [8..16)
    }

    #[test]
    fn table_even_is_ragged_and_covering() {
        // 10 elements in partitions of 4 are [0..4), [4..8), [8..10).
        let tx = PartitionedSend::new(1, TAG, 10, 4);
        assert_eq!(tx.ready.len(), 3);
        // Partition 2 waits behind the prefix; 0 ships [0..4); 1
        // advances the frontier past the end, so the prefix stops at
        // the message's last element and covers all of it.
        let out = ring_exchange(NetworkModel::instant(), 1, (10, 4), &[2, 0, 1]);
        let (dst, _) = &out[1];
        assert_eq!(dst, &payload(0, 10));
        let (_, t) = &out[0];
        assert_eq!(t.early_bytes, 10 * 8);
        assert_eq!(t.partition_bytes, 10 * 8);
        assert_eq!(t.wire_bytes, 10 * 8);
        assert_eq!(t.msgs, 2); // early [0..4), early [4..10)
    }

    #[test]
    fn eager_threshold_holds_small_prefixes_back() {
        // Threshold above the whole message: nothing ships early, the
        // flush sends one whole-message fragment — the phased shape.
        let out = ring_exchange(NetworkModel::instant(), 1 << 20, (16, 4), &[0, 1, 2, 3]);
        let (dst, _) = &out[1];
        assert_eq!(dst, &payload(0, 16));
        let (_, t) = &out[0];
        assert_eq!(t.early_bytes, 0);
        assert_eq!(t.msgs, 1);
        assert!((early_fraction(t) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_order_pready_is_idempotent_and_completes() {
        let out = ring_exchange(NetworkModel::instant(), 1, (16, 4), &[3, 3, 2, 1, 0, 0]);
        let (dst, _) = &out[1];
        assert_eq!(dst, &payload(0, 16));
        let (_, t) = &out[0];
        // Frontier jumps 0 -> 4 on the last effective pready: one
        // early fragment of the whole message, nothing at flush.
        assert_eq!(t.early_bytes, 16 * 8);
        assert_eq!(t.msgs, 1);
        assert!((early_fraction(t) - 1.0).abs() < 1e-12);
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
                    let mut tx = PartitionedSend::new(1, TAG, n, n / 2).with_eager(1);
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
                let mut tx = PartitionedSend::new(1, TAG, n, 3).with_eager(1);
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
                    let mut tx = PartitionedSend::new(1, TAG, n, 8).with_eager(1);
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
