//! The transport of the virtual cluster: MPI-style nonblocking
//! point-to-point on [`RankCtx`], the per-rank context the runner
//! (`runtime.rs`) hands to the rank body on either [`Backend`].
//!
//! `impl RankCtx` is spread over the files its facets fall into: this one
//! keeps the sends, the receive completions and the loopbacks;
//! `clock.rs` the billing, the send epoch and the recorded timers and
//! traces; `procfault.rs` the crash-stop machinery, the failure detector
//! and the recovery bracket; `collective.rs` the fence and the reductions;
//! `mailbox.rs` the message store underneath and the pooled buffers.
//!
//! **Who blocks where.** Sends never block. A rank blocks in two places:
//! [`RankCtx::barrier`], and — under `recv_blocking`, `waitall_*` and
//! [`Lend::complete`], through the one private `blocking_probe` — the
//! wait loop of `mailbox.rs` on its *own* mailbox,
//! where the sleep/wake protocol is stated and argued. The polling
//! completions (`try_wait`, `progress_with`, `idle_tick`) yield to the
//! scheduler instead. Every wait and every poll reports a revoked
//! communicator as [`NetsimError::RankFailed`], through the one
//! failure detector in `procfault.rs`: a spin loop cannot miss a crash.
//!
//! Data really moves between rank memories, and a mailbox message takes
//! one of two paths, decided per message from the state the sender finds:
//!
//! * **direct** — the receiver has lent the destination of its posted
//!   receive ([`crate::window`]: every `waitall_*` lends while it blocks,
//!   [`RankCtx::lend`] lends ahead of the sends), nothing of the channel
//!   is queued, no fault touches the message and the lengths agree:
//!   `isend` copies source → destination once, under the receiver's
//!   mailbox lock, and no buffer is involved — the channel's first
//!   message included;
//! * **eager** — everything else (the receiver is still computing,
//!   anything queued behind another message, self-sends, messages a
//!   fault plan touches, receives completed with
//!   `recv_blocking` / `try_wait` / `progress_with`): two
//!   copies, into a pooled buffer in `isend` and out of it when the
//!   receive completes.
//!
//! The loopback fast path is one copy. All of them stand in for NIC DMA
//! and are therefore not charged to any on-node timer; completion
//! *times* come from the [`NetworkModel`], which bills the message, not
//! the copies. Message matching follows MPI semantics: `(source, tag)`
//! with non-overtaking order per pair.
//!
//! The transport is persistent: eager message buffers come from a
//! per-rank pool and go back to the sender's pool once the receiver has
//! copied them out. A channel takes a pooled buffer only when one of its
//! messages goes eager, never more than one per message in flight, so
//! allocations are bounded by the channels, not the steps; where every
//! message's path is fixed (one event worker, an all-eager or all-direct
//! pattern) allocation is exactly zero after warm-up
//! ([`RankCtx::transport_allocs`]). The pool is binned by size class: a
//! send draws a buffer of its own class, so bulk frames never inflate
//! the buffers small messages reuse. A receiver that wants to keep a whole
//! message takes the buffer over instead of copying out of it
//! ([`RankCtx::adopt`]). Self-sends can bypass the mailbox
//! entirely via the loopback fast path ([`RankCtx::loopback_within`] /
//! [`RankCtx::loopback_into`]), which performs the single NIC-DMA
//! stand-in copy while charging the LogGP wire model exactly as the
//! mailbox path would.
//!
//! The fabric can misbehave on purpose: [`run_cluster_faulty`] arms a
//! seeded [`FaultPlan`] per rank, and `isend` then consults it to drop,
//! duplicate, corrupt or delay messages deterministically (see
//! [`crate::fault`]). No receive here waits on a clock: a protocol that
//! must learn what a lossy fabric lost drains its mailbox after a
//! collective every rank joins (delivery is eager, so by then every
//! frame posted before it is queued or was dropped). A receive that can
//! never complete reports a structured [`NetsimError::Timeout`] —
//! including a dump of the unmatched mailbox keys — as soon as the
//! scheduler detects the deadlock, on either backend.

use std::ops::Range;
use std::sync::atomic::Ordering;

use telemetry::{Phase, Recorder};

use crate::error::{NetsimError, MAX_DIAG_KEYS};
use crate::event::Sched;
use crate::fault::{FaultDecision, FaultEvent, FaultKind, FaultPlan, FaultStats, ProcFault, CTRL_TAG_BIT};
use crate::hier::NodeShape;
use crate::mailbox::{Asleep, BufferPool, Key, Mailbox, MailboxInner, Msg};
use crate::model::NetworkModel;
use crate::procfault::ProcState;
use crate::runtime::Cluster;
use crate::timers::Timers;
use crate::topo::CartTopo;
use crate::trace::Trace;
use crate::window::Lend;

pub use crate::mailbox::POOL_CAP;
pub use crate::runtime::{
    run_cluster, run_cluster_faulty, run_cluster_on, try_run_cluster_on, Backend,
};

/// A posted nonblocking receive; completed by
/// [`RankCtx::waitall_into`], [`RankCtx::waitall_ranges`],
/// [`Lend::complete`], or — on the non-blocking overlap path —
/// [`RankCtx::try_wait`] / [`RankCtx::progress_with`].
#[derive(Clone, Copy, Debug)]
#[must_use = "a posted receive must be completed (waitall_*, try_wait, or progress_with) \
              or the message leaks in the mailbox"]
pub struct RecvHandle {
    source: usize,
    tag: u64,
}

impl RecvHandle {
    fn key(&self) -> Key {
        (self.source, self.tag)
    }
}

/// A message popped off the mailbox by [`RankCtx::recv_blocking`] or
/// [`RankCtx::try_wait`] — the low-level completion used by protocols
/// that need to inspect frames (checksums, sequence numbers) before
/// deciding where the payload lands. Dropping it returns its buffer to
/// the sender's pool, so pooled buffers keep circulating on every path
/// (an early return, a kill's unwind); [`RankCtx::adopt`] keeps the
/// buffer instead.
pub struct RecvdMsg<'a> {
    msg: Msg,
    pools: &'a [BufferPool],
}

impl RecvdMsg<'_> {
    /// The received frame.
    pub fn data(&self) -> &[f64] {
        &self.msg.data
    }
}

impl Drop for RecvdMsg<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.msg).recycle(self.pools);
    }
}

/// Per-rank execution context handed to the rank body.
pub struct RankCtx<'a> {
    pub(crate) rank: usize,
    topo: &'a CartTopo,
    pub(crate) net: NetworkModel,
    pub(crate) mailboxes: &'a [Mailbox],
    pub(crate) pools: &'a [BufferPool],
    /// The scheduler this rank runs under: where it parks, yields and
    /// meets the barrier, and how it wakes a peer.
    pub(crate) sched: &'a Sched,
    pub(crate) timers: Timers,
    pub(crate) trace: Trace,
    pub(crate) recorder: Recorder,
    // Sends posted since the last waitall (the current epoch). In a
    // hierarchical run these count only the off-node (fabric) portion.
    pub(crate) epoch_msgs: usize,
    pub(crate) epoch_bytes: usize,
    // Two-tier fabric state: `Some((intra, node))` only when the run's
    // topology is genuinely hierarchical; `net` is then the inter-node
    // tier (with this rank's jitter applied to both). Flat runs keep
    // this `None` and bill through the unchanged flat path.
    pub(crate) hier: Option<(NetworkModel, NodeShape)>,
    // On-node portion of the current epoch (hierarchical runs only).
    pub(crate) epoch_msgs_on: usize,
    pub(crate) epoch_bytes_on: usize,
    transport_allocs: u64,
    direct_sends: u64,
    fault: Option<FaultPlan>,
    fault_bypass: bool,
    // Process-fault machinery (see `ProcState`). `kill`/`stall` are
    // this rank's armed process faults (first incarnation only);
    // `cur_step` is the timestep window armed by the resilient driver
    // (`u64::MAX` = disarmed: harness/recovery traffic cannot be
    // killed) and `step_ops` counts data-plane ops within it.
    pub(crate) proc: &'a ProcState,
    pub(crate) kill: Option<ProcFault>,
    pub(crate) stall: Option<ProcFault>,
    pub(crate) cur_step: u64,
    pub(crate) step_ops: u64,
    pub(crate) stall_fired: bool,
    pub(crate) recovery_mode: bool,
    pub(crate) incarnation: usize,
    pub(crate) detect_latency: Option<f64>,
}

impl<'a> RankCtx<'a> {
    /// The context of `rank`'s `incarnation`-th life in `cluster`, run
    /// by `sched`; shared verbatim by both backends so modeled billing
    /// cannot diverge between them.
    pub(crate) fn new(
        cluster: &'a Cluster<'a>,
        sched: &'a Sched,
        rank: usize,
        incarnation: usize,
    ) -> RankCtx<'a> {
        let faults = cluster.faults;
        let fault = faults.is_active().then(|| FaultPlan::new(faults, rank));
        let net = match &fault {
            Some(plan) => cluster.net.slowed(plan.slowdown()),
            None => cluster.net,
        };
        // Flat topologies (including every `NetworkModel` converted via
        // `From`) carry no hier state, so their billing code path — and
        // its float arithmetic — is exactly the pre-hierarchy one.
        let hier = (!net.is_flat()).then_some((net.intra, net.node));
        // Process faults fire only in a rank's first incarnation: a
        // respawned rank must not be re-killed, and a replayed step must
        // not re-stall.
        let first = incarnation == 0;
        let mut ctx = RankCtx {
            rank,
            topo: cluster.topo,
            net: net.inter,
            mailboxes: &cluster.mailboxes,
            pools: &cluster.pools,
            sched,
            timers: Timers::default(),
            trace: Trace::default(),
            recorder: Recorder::disabled(),
            epoch_msgs: 0,
            epoch_bytes: 0,
            hier,
            epoch_msgs_on: 0,
            epoch_bytes_on: 0,
            transport_allocs: 0,
            direct_sends: 0,
            fault,
            fault_bypass: false,
            proc: &cluster.proc,
            kill: faults.kill.filter(|k| first && k.rank == rank),
            stall: faults.stall.filter(|s| first && s.rank == rank),
            cur_step: u64::MAX,
            step_ops: 0,
            stall_fired: false,
            recovery_mode: false,
            incarnation,
            detect_latency: None,
        };
        if !first {
            ctx.record_respawn();
        }
        ctx
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.topo.size()
    }

    /// The Cartesian topology.
    pub fn topo(&self) -> &CartTopo {
        self.topo
    }

    /// This rank's own mailbox (borrowed from the run, not from `self`).
    pub(crate) fn mailbox(&self) -> &'a Mailbox {
        let mailboxes: &'a [Mailbox] = self.mailboxes;
        &mailboxes[self.rank]
    }

    /// Number of message buffers the transport had to grow or allocate
    /// so far — bounded by the channels, not the steps (the census in
    /// the module docs), and asserted by the stress tests.
    pub fn transport_allocs(&self) -> u64 {
        self.transport_allocs
    }

    /// Messages this rank sent on the direct path so far: copied once,
    /// into a destination the receiver had lent, with no buffer taken
    /// from the pool (`msgs_direct` on a profiled timeline).
    pub fn direct_sends(&self) -> u64 {
        self.direct_sends
    }

    /// Buffers currently parked in this rank's send pool (bounded by
    /// [`POOL_CAP`]; the fault stress tests assert the bound holds
    /// under duplicate/retry storms).
    pub fn pool_len(&self) -> usize {
        self.pools[self.rank].len()
    }

    /// Bytes of buffer capacity parked in this rank's send pool. Size
    /// classes keep it within a quarter of what the traffic asked for.
    #[cfg(test)]
    pub(crate) fn pool_bytes(&self) -> usize {
        self.pools[self.rank].bytes()
    }

    /// Whether a fault plan is armed (and not bypassed) on this rank and
    /// can actually lose or damage data (drop/corrupt/dup). Delay- or
    /// jitter-only plans stretch modeled time but deliver every payload
    /// intact, so engines keep their fast overlap/partitioned paths open
    /// under them.
    pub fn fault_lossy(&self) -> bool {
        !self.fault_bypass && self.fault.as_ref().is_some_and(|p| p.config().lossy())
    }

    /// This incarnation's injected faults, and the retry protocol's
    /// responses to them, so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Add a retry protocol's responses — the `retries`,
    /// `duplicates_discarded`, `corrupt_detected` and `degraded_exchanges`
    /// of `counts` — to [`RankCtx::fault_stats`]. No-op without a fault
    /// plan, which the protocol never runs without.
    pub fn note_recovery(&mut self, counts: FaultStats) {
        if let Some(plan) = self.fault.as_mut() {
            plan.stats.merge(&counts);
        }
    }

    /// Temporarily exempt sends from fault injection (the degraded
    /// "mailbox fallback" path of a reliable exchange, and other
    /// control-plane traffic). Returns the previous setting so callers
    /// can restore it.
    pub fn set_fault_bypass(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.fault_bypass, on)
    }

    /// Post a nonblocking send of `data` to rank `dest` with `tag`.
    /// Charges `o` seconds of `call` time; the copy — into the window the
    /// receiver lent, else into a pooled message — stands in for NIC DMA
    /// and is not charged to any on-node timer.
    ///
    /// When a fault plan is armed the message may be deterministically
    /// dropped, duplicated, corrupted or delayed; every injected fault
    /// is recorded in the [`Trace`] fault log.
    pub fn isend(&mut self, dest: usize, tag: u64, data: &[f64]) -> Result<(), NetsimError> {
        self.isend_impl(dest, tag, data, true)
    }

    /// Post a nonblocking send whose LogGP `wait` term is *deferred*:
    /// the fragment is charged `o` seconds of `call` and counted like
    /// any other message, but it does not join the current send epoch —
    /// the caller owns its serialization cost and settles it later (see
    /// [`crate::partition::PartitionedSend`], which drains fragment
    /// bandwidth behind subsequently billed compute and bills only the
    /// residual). Fault plans apply exactly as for [`RankCtx::isend`].
    pub(crate) fn isend_deferred(
        &mut self,
        dest: usize,
        tag: u64,
        data: &[f64],
    ) -> Result<(), NetsimError> {
        self.isend_impl(dest, tag, data, false)
    }

    fn isend_impl(
        &mut self,
        dest: usize,
        tag: u64,
        data: &[f64],
        epoch: bool,
    ) -> Result<(), NetsimError> {
        if dest >= self.topo.size() {
            return Err(NetsimError::InvalidRank { rank: dest, size: self.topo.size() });
        }
        self.proc_tick();
        let bytes = std::mem::size_of_val(data);
        self.charge_send(dest, tag, bytes, epoch);
        // A data-plane send to a dead rank vanishes (its NIC is gone).
        // The call cost above is still billed: the sender cannot know
        // yet. Control-plane sends are fault-exempt and still land in
        // the mailbox — it outlives the incarnation, and the recovery
        // protocol's join fence depends on tokens posted in the window
        // between the crash and the respawn.
        if self.proc.dead[dest].load(Ordering::SeqCst) && tag & CTRL_TAG_BIT == 0 {
            return Ok(());
        }
        let decision = match self.fault.as_mut() {
            Some(plan) if !self.fault_bypass => plan.decide(dest, tag, data.len()),
            _ => FaultDecision::default(),
        };
        if decision.any() {
            self.apply_send_faults(dest, tag, bytes, &decision);
        }
        if decision.drop {
            return Ok(());
        }
        let key = (self.rank, tag);
        // Direct only past the billing, the dead-rank vanish and the
        // fault decision above, and only for a message no fault touches:
        // every modeled charge and every injected fault is the eager
        // path's. Self-sends stay eager — the reference transport.
        if !decision.any() && dest != self.rank {
            if let Ok(asleep) = self.mailboxes[dest].deliver(key, data) {
                self.direct_sends += 1;
                self.recorder.count("msgs_direct", 1);
                self.wake(dest, asleep);
                return Ok(());
            }
        }
        let (mut buf, fresh) = self.pools[self.rank].take(data.len());
        self.transport_allocs += fresh as u64;
        buf.extend_from_slice(data);
        let mut msg = Msg { owner: Some(self.rank), data: buf };
        if let Some((word, mask)) = decision.corrupt {
            let bits = msg.data[word].to_bits() ^ mask;
            msg.data[word] = f64::from_bits(bits);
        }
        if decision.dup {
            // The duplicate is a plain allocation outside the pool: a
            // fault path must not perturb the steady-state pool census.
            self.transport_allocs += 1;
            let dup = Msg { owner: None, data: msg.data.clone() };
            let asleep = self.mailboxes[dest].push(key, dup);
            self.wake(dest, asleep);
        }
        let asleep = self.mailboxes[dest].push(key, msg);
        self.wake(dest, asleep);
        Ok(())
    }

    /// Wake `dest` if this rank's send just found it asleep on its
    /// mailbox (`asleep`: what [`Mailbox::push`] / [`Mailbox::deliver`]
    /// reported) — at most one wake per sleep, none otherwise.
    fn wake(&self, dest: usize, asleep: Option<Asleep<'_>>) {
        if let Some(g) = asleep {
            // The scheduler's locks are never taken under a mailbox lock.
            drop(g);
            self.sched.make_runnable(dest as u32);
        }
    }

    /// Record fault events and charge the delay penalty.
    fn apply_send_faults(&mut self, dest: usize, tag: u64, bytes: usize, d: &FaultDecision) {
        let record = |kind: FaultKind, trace: &mut Trace, rank: usize| {
            trace.record_fault(FaultEvent { kind, src: rank, dest, tag, attempt: d.attempt, bytes });
        };
        if d.delay_secs > 0.0 {
            self.bill(Phase::Wait, d.delay_secs);
            self.recorder.count("fault_delays", 1);
            record(FaultKind::Delay, &mut self.trace, self.rank);
        }
        if d.drop {
            record(FaultKind::Drop, &mut self.trace, self.rank);
            return;
        }
        if d.corrupt.is_some() {
            record(FaultKind::Corrupt, &mut self.trace, self.rank);
        }
        if d.dup {
            record(FaultKind::Duplicate, &mut self.trace, self.rank);
        }
    }

    /// Loopback fast path for a self-send whose source and destination
    /// live in the *same* slice: copy `data[src]` to `data[dst..]` once
    /// (the NIC-DMA stand-in, not charged to any on-node timer) while
    /// charging the wire model exactly as `isend` + `irecv` would.
    /// `src` and the destination region must not overlap. On-node
    /// copies never traverse the fabric, so fault plans do not apply.
    pub fn loopback_within(
        &mut self,
        tag: u64,
        data: &mut [f64],
        src: Range<usize>,
        dst: usize,
    ) -> Result<(), NetsimError> {
        if dst + src.len() > data.len() {
            return Err(NetsimError::LoopbackMismatch {
                rank: self.rank,
                tag,
                src_len: src.len(),
                dst_len: data.len().saturating_sub(dst),
            });
        }
        data.copy_within(src.clone(), dst);
        self.charge_loopback(tag, src.len());
        Ok(())
    }

    /// Loopback fast path for a self-send between two distinct slices
    /// (e.g. an mmap view source and the backing storage): one copy,
    /// full wire-model accounting. Lengths must match exactly.
    pub fn loopback_into(
        &mut self,
        tag: u64,
        src: &[f64],
        dst: &mut [f64],
    ) -> Result<(), NetsimError> {
        if src.len() != dst.len() {
            return Err(NetsimError::LoopbackMismatch {
                rank: self.rank,
                tag,
                src_len: src.len(),
                dst_len: dst.len(),
            });
        }
        dst.copy_from_slice(src);
        self.charge_loopback(tag, src.len());
        Ok(())
    }

    /// Post a nonblocking receive from `source` with `tag`. Charges `o`
    /// seconds of `call` time.
    pub fn irecv(&mut self, source: usize, tag: u64) -> Result<RecvHandle, NetsimError> {
        if source >= self.topo.size() {
            return Err(NetsimError::InvalidRank { rank: source, size: self.topo.size() });
        }
        self.proc_tick();
        self.charge_recv_post(source);
        Ok(RecvHandle { source, tag })
    }

    /// Diagnostic dump of this rank's unmatched mailbox contents:
    /// `(source, tag, queued)` per non-empty queue, sorted. Protocol
    /// layers embed this in [`NetsimError::Timeout`] so a hung chaos
    /// run reports what arrived-but-unwanted, the deadlock detector's
    /// first question.
    pub fn mailbox_keys(&self) -> Vec<(usize, u64, usize)> {
        self.mailbox().unmatched_keys()
    }

    /// Blocking wait on this rank's mailbox: run `probe` on the locked
    /// mailbox until it yields, parking in between as [`Mailbox::wait`]
    /// does. `None` = the wait can never complete (revoked, aborted or
    /// deadlocked).
    fn blocking_probe<T>(&self, probe: impl FnMut(&mut MailboxInner) -> Option<T>) -> Option<T> {
        // Outside recovery mode a revoked communicator stops every
        // blocking wait; the caller's `wait_failed` reports why.
        let stopped = || !self.recovery_mode && self.revoked();
        self.mailbox().wait(self.sched, self.rank, stopped, probe)
    }

    /// One unproductive tick of a hand-rolled spin loop: advance the
    /// process-fault schedule (so a kill/stall scheduled at this point
    /// fires even while the rank only waits) and yield to peers: ranks
    /// are scheduled cooperatively on either backend. Bills nothing.
    /// Protocols that poll [`RankCtx::mailbox_keys`] directly (rather
    /// than spinning on `try_wait`, which ticks internally) must call this
    /// on every empty poll or they starve the producers they wait on.
    /// Reports a revoked communicator as every poll does.
    pub fn idle_tick(&mut self) -> Result<(), NetsimError> {
        self.proc_tick();
        self.sched.yield_now();
        self.revoked_failure()
    }

    /// What the two single-receive completions share once the mailbox
    /// has answered: a claimed message is traced and handed out raw.
    fn claimed(&mut self, h: RecvHandle, msg: Option<Msg>) -> Option<RecvdMsg<'a>> {
        let msg = msg?;
        self.record_recv(h.source, h.tag, msg.data.len());
        Some(RecvdMsg { msg, pools: self.pools })
    }

    /// Complete one posted receive, blocking until it arrives — or
    /// until it provably never will: a revoked communicator reports
    /// [`NetsimError::RankFailed`], a deadlock [`NetsimError::Timeout`].
    /// Bills nothing and leaves the send epoch open; the frame is handed
    /// back raw so callers can verify checksums and sequence trailers.
    pub fn recv_blocking(&mut self, h: RecvHandle) -> Result<RecvdMsg<'a>, NetsimError> {
        self.proc_tick();
        let key = h.key();
        let msg = self.blocking_probe(|inner| inner.pop(key));
        match self.claimed(h, msg) {
            Some(msg) => Ok(msg),
            None => Err(self.wait_failed(vec![h.key()])),
        }
    }

    /// Keep a completed message instead of copying out of it: `slot`
    /// takes over the message's buffer, and the buffer `slot` held goes
    /// back to the sender's pool in its place (the message is dropped
    /// holding it). A slot that adopts the same channel's frames over and
    /// over thus circulates a fixed set of buffers with the sender.
    pub fn adopt(&mut self, mut msg: RecvdMsg<'_>, slot: &mut Vec<f64>) {
        std::mem::swap(&mut msg.msg.data, slot);
    }

    /// Non-blocking completion probe for one posted receive: pop the
    /// matching message if it has already arrived, else return `None`
    /// immediately. Never blocks, bills nothing, and leaves the send
    /// epoch open — the overlap scheduler polls this between interior
    /// compute batches and the eventual `waitall_*` (or
    /// [`RankCtx::flush_epoch`]) still charges the epoch's LogGP `wait`
    /// term exactly once. A loopback or an already-delivered self-send
    /// completes on the first probe.
    ///
    /// Each message is returned exactly once: a `Some` consumes the
    /// mailbox entry, so probing the same handle again waits for the
    /// *next* message on that channel (non-overtaking order).
    ///
    /// A queued message is handed out even on a revoked communicator;
    /// a miss there reports [`NetsimError::RankFailed`], so a loop that
    /// spins on this cannot outlive a crashed peer.
    pub fn try_wait(&mut self, h: RecvHandle) -> Result<Option<RecvdMsg<'a>>, NetsimError> {
        self.proc_tick();
        let msg = self.mailbox().try_pop(h.key());
        let claimed = self.claimed(h, msg);
        if claimed.is_none() {
            self.sched.yield_now();
            self.revoked_failure()?;
        }
        Ok(claimed)
    }

    /// Drive a batch of posted receives forward without blocking:
    /// for every handle not yet marked in `done`, pop its message if
    /// present, verify its length against `expect_len(i)`, hand the
    /// payload to `deliver(i, payload)`, recycle the buffer, flag
    /// `done[i]`, and push `i` onto `completed`. Returns how many
    /// receives newly completed this call.
    ///
    /// Partial-completion semantics: buffers are consumed exactly once
    /// (a completed index is skipped on later calls), nothing is billed
    /// and the send epoch stays open — close it via the finishing
    /// `waitall_*` over the still-pending subset (or
    /// [`RankCtx::flush_epoch`] once everything completed), so the
    /// LogGP `wait` lump keeps its phased semantics. A wrong-length
    /// message reports [`NetsimError::SizeMismatch`] after recycling it;
    /// a revoked communicator reports [`NetsimError::RankFailed`] before
    /// anything is popped.
    pub fn progress_with(
        &mut self,
        handles: &[RecvHandle],
        done: &mut [bool],
        completed: &mut Vec<usize>,
        expect_len: impl Fn(usize) -> usize,
        mut deliver: impl FnMut(usize, &[f64]),
    ) -> Result<usize, NetsimError> {
        assert_eq!(handles.len(), done.len());
        self.proc_tick();
        self.revoked_failure()?;
        let mut newly = 0usize;
        for (i, h) in handles.iter().enumerate() {
            if done[i] {
                continue;
            }
            let Some(msg) = self.mailbox().try_pop(h.key()) else {
                continue;
            };
            let (expected, got) = (expect_len(i), msg.data.len());
            if got != expected {
                msg.recycle(self.pools);
                return Err(self.size_mismatch(h, expected, got));
            }
            self.record_recv(h.source, h.tag, got);
            deliver(i, &msg.data);
            msg.recycle(self.pools);
            done[i] = true;
            completed.push(i);
            newly += 1;
        }
        if newly == 0 {
            self.sched.yield_now();
        }
        Ok(newly)
    }

    fn size_mismatch(&self, h: &RecvHandle, expected: usize, got: usize) -> NetsimError {
        NetsimError::SizeMismatch { rank: self.rank, source: h.source, tag: h.tag, expected, got }
    }

    /// Evict every queued message for `(source, tag)` — stale
    /// duplicates and late retries left behind by a reliable exchange —
    /// recycling their buffers. Returns how many were evicted. Without
    /// this, duplicate storms grow the mailbox without bound.
    pub fn drain_mailbox(&mut self, source: usize, tag: u64) -> usize {
        let stale = self.mailbox().drain((source, tag));
        let n = stale.len();
        stale.into_iter().for_each(|msg| msg.recycle(self.pools));
        n
    }

    /// Lend the destinations of receives this rank is about to post, ahead
    /// of its sends: `ranges` of `storage` (in bounds, ascending and
    /// disjoint, or this panics), one per `(source, tag)` of `from`, in the
    /// order the receives will be posted. Until the returned guard is
    /// dropped, a peer's matching send can land in place (see
    /// [`crate::window`]); post the sends and receives as usual — sending
    /// from `storage` through [`Lend::outside`] — and wait with
    /// [`Lend::complete`]. Bills nothing and is not a process-fault op.
    ///
    /// The lend ends with one cooperative yield: ranks share the workers
    /// in turn, so a posted window only helps the peers that run after it
    /// ("post receives early").
    pub fn lend<'l>(
        &self,
        from: impl ExactSizeIterator<Item = (usize, u64)>,
        storage: &'l mut [f64],
        ranges: &[Range<usize>],
    ) -> Lend<'l>
    where
        'a: 'l,
    {
        let lend = Lend::ranges(self.mailbox(), from, storage, ranges);
        self.sched.yield_now();
        lend
    }

    /// Block until every receive of `lend` has its message, in handle
    /// order, recording trace events; then charge `wait` and close the
    /// epoch (on errors too, so wire accounting stays consistent). A
    /// receive completes when its window was written directly, or else
    /// from the channel's queue — claimed, copied in and the window
    /// closed in one lock acquisition. Reports [`NetsimError::Timeout`]
    /// (or the failure of a revoked communicator) and
    /// [`NetsimError::SizeMismatch`].
    pub(crate) fn complete_lent(
        &mut self,
        lend: &mut Lend<'_>,
        handles: &[RecvHandle],
    ) -> Result<(), NetsimError> {
        assert_eq!(
            handles.len(),
            lend.windows(),
            "one posted receive per lent window"
        );
        assert!(
            lend.lent_to(self.mailbox()),
            "a lend completes on the rank that opened it"
        );
        self.proc_tick();
        let mut result = Ok(());
        for (i, h) in handles.iter().enumerate() {
            let key = h.key();
            let claimed = self.blocking_probe(|inner| {
                if let Some(len) = inner.windows.filled(i, key) {
                    return Some((len, None));
                }
                let msg = inner.pop(key)?;
                Some((inner.windows.fill(i, &msg.data), Some(msg)))
            });
            let Some((expected, eager)) = claimed else {
                let open = self.mailbox().lock().windows.open_keys().take(MAX_DIAG_KEYS).collect();
                result = Err(self.wait_failed(open));
                break;
            };
            let got = eager.as_ref().map_or(expected, |msg| msg.data.len());
            if let Some(msg) = eager {
                msg.recycle(self.pools);
            }
            if got != expected {
                result = Err(self.size_mismatch(h, expected, got));
                break;
            }
            self.record_recv(h.source, h.tag, got);
        }
        self.flush_epoch();
        result
    }

    /// Why a blocking receive gave up: the pending failure if the
    /// communicator was revoked, else a [`NetsimError::Timeout`] naming
    /// the `pending` receives and what sits unmatched in the mailbox.
    fn wait_failed(&mut self, pending: Vec<(usize, u64)>) -> NetsimError {
        match self.revoked_failure() {
            Err(e) => e,
            Ok(()) => NetsimError::Timeout { rank: self.rank, pending, mailbox: self.mailbox_keys() },
        }
    }

    /// Complete all posted receives, each message landing in its
    /// destination buffer (buffers parallel to `handles`; lengths must
    /// match exactly). Charges the LogGP `wait` term for this epoch's
    /// posted sends, then closes the epoch. The buffers are lent for the
    /// duration of the wait, so a message sent meanwhile lands in place.
    ///
    /// A receive that can never complete returns [`NetsimError::Timeout`]
    /// (or the failure of a revoked communicator) instead of blocking
    /// forever; a wrong-length message returns
    /// [`NetsimError::SizeMismatch`]. The epoch is closed either way so
    /// wire accounting stays consistent.
    pub fn waitall_into(
        &mut self,
        handles: &[RecvHandle],
        bufs: &mut [&mut [f64]],
    ) -> Result<(), NetsimError> {
        let from = handles.iter().map(RecvHandle::key);
        let mut lend = Lend::bufs(self.mailbox(), from, bufs);
        self.complete_lent(&mut lend, handles)
    }

    /// Complete all posted receives directly into sub-ranges of one
    /// backing slice (`ranges` parallel to `handles`; in bounds,
    /// ascending and disjoint, or this panics), then charge `wait` and
    /// close the epoch. No per-call allocation; the ranges are lent for
    /// the duration of the wait, so a message sent meanwhile lands in
    /// place.
    ///
    /// Calling with empty `handles` still closes the epoch — a rank
    /// whose sends were all loopbacks uses this to charge `wait`.
    /// Error semantics match [`RankCtx::waitall_into`].
    pub fn waitall_ranges(
        &mut self,
        handles: &[RecvHandle],
        storage: &mut [f64],
        ranges: &[Range<usize>],
    ) -> Result<(), NetsimError> {
        let from = handles.iter().map(RecvHandle::key);
        let mut lend = Lend::ranges(self.mailbox(), from, storage, ranges);
        self.complete_lent(&mut lend, handles)
    }

    /// Synchronize all ranks. Returns silently even if the cluster is
    /// aborting (a peer panicked, or a deadlock): the surviving ranks are
    /// being unwound via timeout errors, not blocked forever.
    pub fn barrier(&self) {
        // A revoked communicator cannot complete a rendezvous (the
        // failed rank is dead or mid-respawn): return silently, like
        // the abort path. Resilient drivers synchronize through
        // `RankCtx::fence`, whose waits report the failure instead.
        if self.revoked() {
            return;
        }
        self.sched.barrier_wait(self.rank as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::hier::HierarchicalNetworkModel;
    use crate::run_cluster;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;

    /// `waiting` is up exactly while the owner sleeps on its mailbox: every
    /// way out of a blocking receive lowers it again (a flag left up costs
    /// a wake per push, one left down loses a wake-up), and the push that
    /// ends a sleep takes it — on both backends, over success with and
    /// without sleeping, abort and revocation.
    #[test]
    fn mailbox_waiting_flag_is_lowered_on_every_return_path() {
        let lowered = |ctx: &RankCtx<'_>| assert!(!ctx.mailbox().lock().waiting);
        let topo = CartTopo::new(&[2], true);
        let net = NetworkModel::instant();
        for backend in [Backend::Thread, Backend::Event] {
            run_cluster_on(backend, &topo, net, FaultConfig::off(), |ctx| {
                if ctx.rank() == 0 {
                    ctx.isend(1, 7, &[1.0]).unwrap();
                    ctx.barrier();
                    ctx.barrier();
                    until_blocked(ctx, 1);
                    ctx.isend(1, 7, &[2.0]).unwrap();
                    assert!(!ctx.mailboxes[1].lock().waiting, "the push took the flag");
                    return;
                }
                ctx.barrier();
                // A hit without sleeping.
                let h = ctx.irecv(0, 7).unwrap();
                assert_eq!(ctx.recv_blocking(h).unwrap().data(), [1.0]);
                lowered(ctx);
                ctx.barrier();
                // A hit after sleeping.
                assert_eq!(ctx.recv_blocking(h).unwrap().data(), [2.0]);
                lowered(ctx);
            });

            // Abort: rank 0 panics while rank 1 sleeps.
            let checked = AtomicBool::new(false);
            let run = try_run_cluster_on(backend, &topo, net, FaultConfig::off(), |ctx| {
                if ctx.rank() == 0 {
                    until_blocked(ctx, 1);
                    std::panic::resume_unwind(Box::new("rank 0 gave up"));
                }
                let h = ctx.irecv(0, 7).unwrap();
                assert!(matches!(ctx.recv_blocking(h), Err(NetsimError::Timeout { .. })));
                lowered(ctx);
                checked.store(true, Ordering::SeqCst);
            });
            assert!(matches!(run, Err(NetsimError::RankPanicked { rank: 0, .. })));
            assert!(checked.load(Ordering::SeqCst), "{backend}: rank 1 never returned");

            // Revocation: rank 0 crash-stops while rank 1 sleeps.
            let kill = FaultConfig::parse("kill:0@0").unwrap();
            run_cluster_on(backend, &topo, net, kill, |ctx| {
                if ctx.rank() == 0 {
                    if ctx.incarnation() == 0 {
                        until_blocked(ctx, 1);
                        ctx.fault_step(0, |ctx| {
                            let _ = ctx.irecv(1, 7);
                            unreachable!("the kill fires at the first op");
                        });
                    }
                    return;
                }
                let h = ctx.irecv(0, 7).unwrap();
                assert!(matches!(ctx.recv_blocking(h), Err(NetsimError::RankFailed { rank: 0, .. })));
                lowered(ctx);
            });
        }
    }

    /// Two ranks on threads (a sender can then watch the owner block).
    fn two_threads<R: Send>(
        faults: FaultConfig,
        body: impl Fn(&mut RankCtx<'_>) -> R + Sync,
    ) -> Vec<R> {
        run_cluster_on(
            Backend::Thread,
            &CartTopo::new(&[2], true),
            NetworkModel::instant(),
            faults,
            body,
        )
    }

    /// Spin until `rank` sleeps on its mailbox: `waiting` is raised under
    /// the lock the sleep releases, so seeing it means the owner sleeps
    /// until woken or expired.
    fn until_blocked(ctx: &RankCtx<'_>, rank: usize) {
        while !ctx.mailboxes[rank].lock().waiting {
            ctx.sched.yield_now();
        }
    }

    /// Rank 0 warms channel `(0, 7)` with one eager message (sent before
    /// the barrier rank 1 posts its receive behind), waits until rank 1
    /// blocks on the receive of a second and sends it: `second(ctx)` on
    /// rank 0, the second `waitall_into(len)` result on rank 1.
    fn second_send_to_a_blocked_owner(
        faults: FaultConfig,
        len: usize,
        second: impl Fn(&mut RankCtx<'_>) + Sync,
    ) -> (Vec<f64>, Result<(), NetsimError>) {
        let mut out = two_threads(faults, |ctx| {
            let mut buf = vec![0.0; len];
            if ctx.rank() == 0 {
                ctx.isend(1, 7, &[1.0; 64]).unwrap();
                ctx.barrier();
                until_blocked(ctx, 1);
                second(ctx);
                return (buf, Ok(()));
            }
            ctx.barrier();
            let h = ctx.irecv(0, 7).unwrap();
            ctx.waitall_into(&[h], &mut [&mut [0.0; 64][..]]).unwrap();
            let h = ctx.irecv(0, 7).unwrap();
            let done = ctx.waitall_into(&[h], &mut [&mut buf[..]]);
            assert!(
                ctx.mailbox().lock().windows.is_empty(),
                "the lend ends with the wait"
            );
            (buf, done)
        });
        out.pop().expect("rank 1")
    }

    /// (i) A warmed channel, an owner blocked on its receive: the send is
    /// copied once, into the owner's buffer, and touches no pool.
    #[test]
    fn send_to_a_blocked_owner_lands_in_place() {
        let payload: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let (buf, done) = second_send_to_a_blocked_owner(FaultConfig::off(), 64, |ctx| {
            let before = (ctx.transport_allocs(), ctx.pool_len(), ctx.pool_bytes());
            // The warm-up preceded rank 1's receive, so it went eager;
            // its buffer is back in the pool and the send below touches
            // none of it.
            assert_eq!(before.0, 1, "the warm-up message went eager");
            ctx.isend(1, 7, &payload).unwrap();
            assert_eq!(ctx.direct_sends(), 1);
            assert_eq!(
                (ctx.transport_allocs(), ctx.pool_len(), ctx.pool_bytes()),
                before
            );
        });
        done.unwrap();
        assert_eq!(buf, payload);
    }

    /// (iv) A send of the wrong length is not written: it queues, and the
    /// receive reports the mismatch exactly as the pooled path does.
    #[test]
    fn wrong_length_send_goes_eager_and_reports_the_mismatch() {
        let (buf, done) = second_send_to_a_blocked_owner(FaultConfig::off(), 3, |ctx| {
            ctx.isend(1, 7, &[5.0, 6.0]).unwrap();
            assert_eq!(ctx.direct_sends(), 0);
        });
        assert_eq!(
            done,
            Err(NetsimError::SizeMismatch {
                rank: 1,
                source: 0,
                tag: 7,
                expected: 3,
                got: 2
            })
        );
        assert_eq!(buf, [0.0; 3], "nothing was written");
    }

    /// (v) A message the fault plan touches — here only delays — stays
    /// eager, so its billing and its fault record are the pooled path's.
    #[test]
    fn delayed_send_goes_eager_with_the_same_billing() {
        let cfg = FaultConfig {
            seed: 3,
            delay: 1.0,
            ..FaultConfig::off()
        };
        let (buf, done) = second_send_to_a_blocked_owner(cfg, 2, |ctx| {
            let wait = ctx.timers().wait;
            ctx.isend(1, 7, &[5.0, 6.0]).unwrap();
            assert_eq!(ctx.direct_sends(), 0);
            assert_eq!(ctx.fault_stats().delays, 2, "the warm-up and this one");
            assert!(ctx.timers().wait > wait, "the delay penalty is billed");
            assert_eq!(
                ctx.take_fault_events()
                    .iter()
                    .filter(|e| e.kind == FaultKind::Delay)
                    .count(),
                2
            );
        });
        done.unwrap();
        assert_eq!(buf, [5.0, 6.0]);
    }

    /// (ii) A receive that completes from the queue closes its window
    /// with the pop: the channel's *next* message, sent during the same
    /// wait, queues instead of overwriting what the owner has not read.
    #[test]
    fn a_window_closed_from_the_queue_is_not_written_by_the_next_message() {
        let out = two_threads(FaultConfig::off(), |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 7, &[1.0; 4]).unwrap(); // warms channel 7
                ctx.isend(1, 8, &[1.0; 4]).unwrap(); // warms channel 8
                ctx.barrier();
                ctx.isend(1, 7, &[2.0; 4]).unwrap(); // queued before the lend
                ctx.barrier();
                until_blocked(ctx, 1); // on channel 8, having popped channel 7
                ctx.isend(1, 7, &[3.0; 4]).unwrap(); // the next epoch's message
                assert_eq!(ctx.direct_sends(), 0, "the window of channel 7 is closed");
                ctx.isend(1, 8, &[4.0; 4]).unwrap();
                assert_eq!(ctx.direct_sends(), 1, "the window of channel 8 was open");
                return ([0.0; 4], [0.0; 4], Vec::new());
            }
            let (mut a, mut b) = ([0.0; 4], [0.0; 4]);
            ctx.barrier(); // the warm-ups are queued: they went eager
            let hs = [ctx.irecv(0, 7).unwrap(), ctx.irecv(0, 8).unwrap()];
            ctx.waitall_into(&hs, &mut [&mut a[..], &mut b[..]])
                .unwrap();
            ctx.barrier();
            let hs = [ctx.irecv(0, 7).unwrap(), ctx.irecv(0, 8).unwrap()];
            ctx.waitall_into(&hs, &mut [&mut a[..], &mut b[..]])
                .unwrap();
            (a, b, ctx.mailbox_keys())
        });
        let (a, b, queued) = &out[1];
        assert_eq!((a, b), (&[2.0; 4], &[4.0; 4]), "this epoch's messages");
        assert_eq!(
            queued,
            &[(0, 7, 1)],
            "the next epoch's message waits its turn"
        );
    }

    /// (iii) Every way out of a lent wait ends the lend: a timeout (the
    /// scheduler's deadlock detector), a size mismatch (asserted in
    /// `second_send_to_a_blocked_owner`) and the crash-stop unwind of a
    /// rank killed with its ghosts pre-posted.
    #[test]
    fn unwinding_out_of_a_lent_wait_clears_the_windows() {
        let topo = CartTopo::new(&[1], true);
        for backend in [Backend::Thread, Backend::Event] {
            run_cluster_on(backend, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| {
                let h = ctx.irecv(0, 7).unwrap();
                let err = ctx
                    .waitall_into(&[h], &mut [&mut [0.0; 2][..]])
                    .unwrap_err();
                assert!(matches!(err, NetsimError::Timeout { pending, .. } if pending == [(0, 7)]));
                assert!(ctx.mailbox().lock().windows.is_empty());
            });
        }

        let kill = FaultConfig::parse("kill:1@0+1").unwrap();
        let incarnations = two_threads(kill, |ctx| {
            if ctx.rank() == 1 && ctx.incarnation() == 0 {
                ctx.fault_step(0, |ctx| {
                    let mut storage = vec![0.0; 8];
                    let ghost = 4..8;
                    let lend = ctx.lend(
                        [(0, 7)].into_iter(),
                        &mut storage,
                        std::slice::from_ref(&ghost),
                    );
                    assert!(!ctx.mailbox().lock().windows.is_empty());
                    ctx.isend(0, 9, lend.outside(0..4)).unwrap(); // op 0
                    let _ = ctx.irecv(0, 7); // op 1: dies with the lend open
                    unreachable!("the kill fires at the second op");
                })
            }
            // `respawn` has already asserted it; look again from inside.
            assert!(ctx.mailbox().lock().windows.is_empty());
            ctx.incarnation()
        });
        assert_eq!(incarnations, [0, 1]);
    }

    /// (vi) Lent ranges are checked every time, at any size.
    #[test]
    fn overlapping_descending_or_out_of_bounds_ranges_panic_at_lend_time() {
        let mb = Mailbox::default();
        for ranges in [[0..4, 3..6], [4..6, 0..2], [0..2, 6..9]] {
            let mut storage = [0.0; 8];
            let lend = catch_unwind(AssertUnwindSafe(|| {
                Lend::ranges(&mb, [(0, 1), (0, 2)].into_iter(), &mut storage, &ranges);
            }));
            assert!(lend.is_err(), "{ranges:?} must be refused");
            assert!(mb.lock().windows.is_empty());
        }
        let mut storage = [0.0; 8];
        let mut lend = Lend::ranges(
            &mb,
            [(0, 1), (0, 2)].into_iter(),
            &mut storage,
            &[2..4, 6..8],
        );
        assert_eq!(lend.outside(0..2).len(), 2);
        assert_eq!(lend.outside_mut(4..6).len(), 2);
        for r in [1..3, 6..7, 7..9] {
            assert!(catch_unwind(AssertUnwindSafe(|| lend.outside(r).len())).is_err());
        }
        assert!(catch_unwind(AssertUnwindSafe(|| lend.outside_pair(0..2, 1..2).0.len())).is_err());
        assert_eq!(lend.release().len(), 8);
        assert!(mb.lock().windows.is_empty());
    }

    #[test]
    fn ring_exchange_delivers() {
        let topo = CartTopo::new(&[4], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let rank = ctx.rank();
            let right = ctx.topo().neighbor(rank, &[1]).unwrap();
            let left = ctx.topo().neighbor(rank, &[-1]).unwrap();
            let data = vec![rank as f64; 8];
            let h = ctx.irecv(left, 7).unwrap();
            ctx.isend(right, 7, &data).unwrap();
            let mut buf = [0.0; 8];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            buf[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn self_send_loopback() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let h = ctx.irecv(0, 1).unwrap();
            ctx.isend(0, 1, &[5.0, 6.0]).unwrap();
            let mut buf = vec![0.0; 2];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            buf
        });
        assert_eq!(out[0], vec![5.0, 6.0]);
    }

    #[test]
    fn non_overtaking_order() {
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 3, &[1.0]).unwrap();
                ctx.isend(1, 3, &[2.0]).unwrap();
                ctx.isend(1, 3, &[3.0]).unwrap();
                Vec::new()
            } else {
                let hs = [
                    ctx.irecv(0, 3).unwrap(),
                    ctx.irecv(0, 3).unwrap(),
                    ctx.irecv(0, 3).unwrap(),
                ];
                let (mut a, mut b, mut c) = ([0.0], [0.0], [0.0]);
                ctx.waitall_into(&hs, &mut [&mut a, &mut b, &mut c]).unwrap();
                vec![a[0], b[0], c[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn timers_account_wire_model() {
        let topo = CartTopo::new(&[2], true);
        let net = NetworkModel::theta_aries();
        let out = run_cluster(&topo, net, |ctx| {
            let peer = 1 - ctx.rank();
            let h = ctx.irecv(peer, 0).unwrap();
            let data = vec![0.0; 1024];
            ctx.isend(peer, 0, &data).unwrap();
            let mut buf = vec![0.0; 1024];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            ctx.timers()
        });
        let t = out[0];
        assert_eq!(t.msgs, 1);
        assert_eq!(t.wire_bytes, 8192);
        // call = 2 posts (send + recv), wait = α + bytes/β.
        assert!((t.call - 2.0 * net.overhead).abs() < 1e-12);
        assert!((t.wait - net.wait_time(1, 8192)).abs() < 1e-12);
    }

    #[test]
    fn timed_phases_accumulate() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.time_calc(|| std::hint::black_box((0..10000).sum::<u64>()));
            ctx.time_pack(|| std::hint::black_box(vec![0u8; 4096]));
            ctx.timers()
        });
        assert!(out[0].calc > 0.0);
        assert!(out[0].pack > 0.0);
    }

    #[test]
    fn mismatched_recv_length_is_structured_error() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let h = ctx.irecv(0, 0).unwrap();
            ctx.isend(0, 0, &[1.0, 2.0]).unwrap();
            let mut buf = [0.0; 3];
            ctx.waitall_into(&[h], &mut [&mut buf[..]])
        });
        assert_eq!(
            out[0],
            Err(NetsimError::SizeMismatch { rank: 0, source: 0, tag: 0, expected: 3, got: 2 })
        );
    }

    #[test]
    fn out_of_range_ranks_are_errors() {
        let topo = CartTopo::new(&[2], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            assert_eq!(
                ctx.isend(9, 0, &[1.0]),
                Err(NetsimError::InvalidRank { rank: 9, size: 2 })
            );
            assert!(matches!(ctx.irecv(5, 0), Err(NetsimError::InvalidRank { rank: 5, .. })));
        });
    }

    /// A receive nobody will satisfy is a deadlock, which the scheduler
    /// detects on either backend: the `Timeout` names it and dumps the
    /// mailbox.
    #[test]
    fn timeout_reports_pending_and_mailbox_dump() {
        for backend in [Backend::Thread, Backend::Event] {
            let topo = CartTopo::new(&[1], true);
            let out = run_cluster_on(backend, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| {
                // A message nobody will ask for, to exercise the dump...
                ctx.isend(0, 99, &[1.0]).unwrap();
                // ...and a receive nobody will satisfy.
                let h = ctx.irecv(0, 7).unwrap();
                let mut buf = [0.0; 1];
                ctx.waitall_into(&[h], &mut [&mut buf[..]])
            });
            let Err(NetsimError::Timeout { rank, pending, mailbox }) = &out[0] else {
                panic!("expected timeout, got {:?}", out[0]);
            };
            assert_eq!(*rank, 0);
            assert_eq!(pending, &[(0, 7)]);
            assert_eq!(mailbox, &[(0, 99, 1)]);
        }
    }

    /// A received frame goes back to its sender's pool when it is
    /// dropped — unread, or held by a rank killed mid-step, whose unwind
    /// drops it — so the sender's next send of that size allocates
    /// nothing. The respawned victim's context carries the kill event.
    #[test]
    fn a_dropped_frame_returns_its_buffer_to_the_senders_pool() {
        const WORDS: usize = 4096;
        let topo = CartTopo::new(&[2], true);
        // Rank 1's step-0 ops: irecv (0), recv_blocking (1), irecv (2).
        let kill = FaultConfig::parse("kill:1@0+2").unwrap();
        for backend in [Backend::Thread, Backend::Event] {
            run_cluster_on(backend, &topo, NetworkModel::instant(), kill, |ctx| {
                let frame = [1.0; WORDS];
                if ctx.rank() == 0 {
                    ctx.isend(1, 7, &frame).unwrap();
                    ctx.barrier();
                    let allocs = ctx.transport_allocs();
                    ctx.isend(1, 8, &frame).unwrap();
                    assert_eq!(ctx.transport_allocs(), allocs, "{backend}: the frame dropped unread came back");
                    let h = ctx.irecv(1, 9).unwrap();
                    assert!(matches!(ctx.recv_blocking(h), Err(NetsimError::RankFailed { rank: 1, .. })));
                    let ((), failure) = ctx.recover(|_, _| Ok(())).unwrap();
                    assert_eq!((failure.rank, failure.step), (1, 0));
                    let allocs = ctx.transport_allocs();
                    ctx.isend(1, 10, &frame).unwrap();
                    assert_eq!(ctx.transport_allocs(), allocs, "{backend}: the frame the victim held came back");
                    return;
                }
                if ctx.incarnation() > 0 {
                    let kills = ctx.take_fault_events();
                    assert!(matches!(kills[..], [FaultEvent { kind: FaultKind::Kill, src: 1, tag: 0, .. }]));
                    ctx.recover(|_, _| Ok(())).unwrap();
                    return;
                }
                let h = ctx.irecv(0, 7).unwrap();
                drop(ctx.recv_blocking(h).unwrap());
                ctx.barrier();
                ctx.fault_step(0, |ctx| {
                    let h = ctx.irecv(0, 8).unwrap();
                    let _held = ctx.recv_blocking(h).unwrap();
                    let _ = ctx.irecv(0, 11);
                    unreachable!("the kill fires at the third op");
                })
            });
        }
    }

    #[test]
    fn try_wait_returns_each_message_exactly_once() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let h = ctx.irecv(0, 4).unwrap();
            assert!(ctx.try_wait(h).unwrap().is_none(), "nothing sent yet");
            ctx.isend(0, 4, &[2.5, 3.5]).unwrap();
            let msg = ctx.try_wait(h).unwrap().expect("self-send completes immediately");
            assert_eq!(msg.data(), &[2.5, 3.5]);
            drop(msg);
            assert!(ctx.try_wait(h).unwrap().is_none(), "message must be consumed exactly once");
            ctx.flush_epoch();
        });
    }

    /// `progress_with` for receives that land in `ranges` of `storage`.
    fn progress_ranges(
        ctx: &mut RankCtx<'_>,
        handles: &[RecvHandle],
        storage: &mut [f64],
        ranges: &[Range<usize>],
        done: &mut [bool],
        completed: &mut Vec<usize>,
    ) -> Result<usize, NetsimError> {
        ctx.progress_with(
            handles,
            done,
            completed,
            |i| ranges[i].len(),
            |i, payload| storage[ranges[i].clone()].copy_from_slice(payload),
        )
    }

    #[test]
    fn progress_partially_completes_and_consumes_buffers_once() {
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let peer = 1 - ctx.rank();
            if ctx.rank() == 0 {
                // Stagger the two sends around rank 1's first poll.
                ctx.isend(peer, 10, &[1.0, 2.0]).unwrap();
                ctx.barrier(); // rank 1 polls: only tag 10 is in flight
                ctx.barrier(); // rank 1 saw exactly one completion
                ctx.isend(peer, 11, &[3.0, 4.0]).unwrap();
                ctx.flush_epoch();
                Vec::new()
            } else {
                let handles = [ctx.irecv(peer, 10).unwrap(), ctx.irecv(peer, 11).unwrap()];
                let ranges = [0..2, 2..4];
                let mut storage = vec![0.0; 4];
                let mut done = [false, false];
                let mut completed = Vec::new();
                ctx.barrier();
                // Poll until the first message lands (send is async).
                while completed.is_empty() {
                    progress_ranges(ctx, &handles, &mut storage, &ranges, &mut done, &mut completed)
                        .unwrap();
                }
                assert_eq!(completed, vec![0]);
                assert_eq!(&storage[..2], &[1.0, 2.0]);
                assert!(done[0] && !done[1]);
                // A repeated poll must not re-deliver the completed index.
                let n =
                    progress_ranges(ctx, &handles, &mut storage, &ranges, &mut done, &mut completed)
                        .unwrap();
                assert_eq!(n, 0);
                ctx.barrier();
                while done.iter().any(|d| !d) {
                    progress_ranges(ctx, &handles, &mut storage, &ranges, &mut done, &mut completed)
                        .unwrap();
                }
                assert_eq!(completed, vec![0, 1]);
                ctx.flush_epoch();
                storage
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn deadline_still_fires_after_partial_progress() {
        for backend in [Backend::Thread, Backend::Event] {
            let topo = CartTopo::new(&[1], true);
            let out = run_cluster_on(backend, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| {
                // One satisfied channel, one genuinely stuck channel.
                let handles = [ctx.irecv(0, 20).unwrap(), ctx.irecv(0, 21).unwrap()];
                ctx.isend(0, 20, &[7.0]).unwrap();
                let ranges = [0..1, 1..2];
                let mut storage = vec![0.0; 2];
                let mut done = [false, false];
                let mut completed = Vec::new();
                progress_ranges(ctx, &handles, &mut storage, &ranges, &mut done, &mut completed).unwrap();
                assert_eq!(completed, vec![0]);
                // The finishing blocking wait over the stuck remainder must
                // still report it as one that can never complete.
                ctx.waitall_ranges(&handles[1..], &mut storage, &ranges[1..])
            });
            let Err(NetsimError::Timeout { rank, pending, .. }) = &out[0] else {
                panic!("expected timeout, got {:?}", out[0]);
            };
            assert_eq!(*rank, 0);
            assert_eq!(pending, &[(0, 21)]);
        }
    }

    #[test]
    fn progress_then_waitall_bills_same_wait_as_phased() {
        // The overlap path (progress + finishing waitall over the
        // remainder) must charge exactly the LogGP epoch lump the
        // phased waitall charges: polling bills nothing.
        let topo = CartTopo::new(&[1], true);
        let net = NetworkModel::theta_aries();
        let out = run_cluster(&topo, net, |ctx| {
            let handles = [ctx.irecv(0, 30).unwrap(), ctx.irecv(0, 31).unwrap()];
            ctx.isend(0, 30, &[1.0; 64]).unwrap();
            ctx.isend(0, 31, &[2.0; 64]).unwrap();
            let ranges = [0..64, 64..128];
            let mut storage = vec![0.0; 128];
            let mut done = [false, false];
            let mut completed = Vec::new();
            let wait_before = ctx.timers().wait;
            progress_ranges(ctx, &handles, &mut storage, &ranges, &mut done, &mut completed).unwrap();
            assert_eq!(completed, vec![0, 1], "self-sends complete on the first poll");
            assert_eq!(ctx.timers().wait, wait_before, "polling must not bill wait");
            // All receives already done: the empty finishing waitall
            // closes the epoch with the full posted-send totals.
            ctx.waitall_ranges(&[], &mut storage, &[]).unwrap();
            ctx.timers()
        });
        assert!((out[0].wait - net.wait_time(2, 2 * 64 * 8)).abs() < 1e-12);
    }

    #[test]
    fn progress_size_mismatch_is_structured_error() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let handles = [ctx.irecv(0, 40).unwrap()];
            ctx.isend(0, 40, &[1.0, 2.0, 3.0]).unwrap();
            let mut storage = vec![0.0; 2];
            let mut done = [false];
            let mut completed = Vec::new();
            let range = 0..2;
            let r = progress_ranges(
                ctx,
                &handles,
                &mut storage,
                std::slice::from_ref(&range),
                &mut done,
                &mut completed,
            );
            ctx.flush_epoch();
            r
        });
        assert_eq!(
            out[0],
            Err(NetsimError::SizeMismatch { rank: 0, source: 0, tag: 40, expected: 2, got: 3 })
        );
    }

    #[test]
    fn loopback_mismatch_is_error() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let src = [1.0; 4];
            let mut dst = [0.0; 3];
            assert!(matches!(
                ctx.loopback_into(3, &src, &mut dst),
                Err(NetsimError::LoopbackMismatch { src_len: 4, dst_len: 3, .. })
            ));
        });
    }

    #[test]
    fn pooled_buffers_stop_allocating() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let data = vec![1.0; 256];
            let mut buf = vec![0.0; 256];
            // Warm the pool: the first epoch grows a fresh buffer.
            for _ in 0..3 {
                let h = ctx.irecv(0, 9).unwrap();
                ctx.isend(0, 9, &data).unwrap();
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            }
            let warm = ctx.transport_allocs();
            assert!(warm >= 1);
            for _ in 0..50 {
                let h = ctx.irecv(0, 9).unwrap();
                ctx.isend(0, 9, &data).unwrap();
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            }
            assert_eq!(ctx.transport_allocs(), warm, "steady state must not allocate");
        });
    }

    /// One grid-sized frame alternating with a halo's worth of small
    /// messages, the buddy-checkpoint traffic shape: every request keeps
    /// drawing from its own class, so the first epoch's allocations are
    /// the only ones and the pool parks what one epoch asked for.
    #[test]
    fn bulk_frame_and_halo_messages_do_not_trade_buffers() {
        const FRAME: usize = 512 << 10;
        const HALO: usize = 1 << 10;
        const HALO_MSGS: usize = 26;
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let frame = vec![2.0; FRAME];
            let halo = vec![1.0; HALO];
            let mut sink = vec![0.0; HALO];
            for _ in 0..10 {
                let h = ctx.irecv(0, 7).unwrap();
                ctx.isend(0, 7, &frame).unwrap();
                let m = ctx.recv_blocking(h).unwrap();
                assert_eq!(m.data().len(), FRAME);
                drop(m);
                let handles: Vec<_> = (0..HALO_MSGS).map(|_| ctx.irecv(0, 9).unwrap()).collect();
                for _ in 0..HALO_MSGS {
                    ctx.isend(0, 9, &halo).unwrap();
                }
                for h in handles {
                    ctx.waitall_into(&[h], &mut [&mut sink[..]]).unwrap();
                }
            }
            let allocs = ctx.transport_allocs();
            assert!(allocs <= 1 + HALO_MSGS as u64, "{allocs} allocations");
            assert_eq!(ctx.pool_len(), 1 + HALO_MSGS);
            let asked = (FRAME + HALO_MSGS * HALO) * 8;
            let pooled = ctx.pool_bytes();
            assert!(pooled * 4 <= asked * 5, "{pooled} bytes pooled for {asked} requested");
        });
    }

    #[test]
    fn adopt_swaps_buffers_with_the_senders_pool() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut slot: Vec<f64> = Vec::new();
            for epoch in 0..6 {
                let data = vec![epoch as f64; 300];
                let h = ctx.irecv(0, 3).unwrap();
                ctx.isend(0, 3, &data).unwrap();
                let m = ctx.recv_blocking(h).unwrap();
                ctx.adopt(m, &mut slot);
                assert_eq!(slot, data, "the slot now holds the message");
            }
            // The slot keeps one buffer and trades it for the arriving
            // one each time: two buffers circulate in all.
            assert_eq!(ctx.transport_allocs(), 2);
            assert_eq!(ctx.pool_len(), 1);
        });
    }

    #[test]
    fn loopback_within_matches_mailbox_timers_and_data() {
        let topo = CartTopo::new(&[1], true);
        let net = NetworkModel::theta_aries();
        run_cluster(&topo, net, |ctx| {
            // Mailbox self-send: data[0..4] -> data[8..12].
            let mut a: Vec<f64> = (0..12).map(|i| i as f64).collect();
            let h = ctx.irecv(0, 5).unwrap();
            let payload = a[0..4].to_vec();
            ctx.isend(0, 5, &payload).unwrap();
            ctx.waitall_into(&[h], &mut [&mut a[8..12]]).unwrap();
            let t_mailbox = ctx.timers();
            let a_snapshot = a.clone();
            ctx.reset_timers();

            // Loopback fast path, same shape.
            let mut b: Vec<f64> = (0..12).map(|i| i as f64).collect();
            ctx.loopback_within(5, &mut b, 0..4, 8).unwrap();
            ctx.waitall_ranges(&[], &mut b, &[]).unwrap();
            let t_loop = ctx.timers();

            assert_eq!(a_snapshot, b);
            assert_eq!(t_mailbox.call, t_loop.call);
            assert_eq!(t_mailbox.wait, t_loop.wait);
            assert_eq!(t_mailbox.msgs, t_loop.msgs);
            assert_eq!(t_mailbox.wire_bytes, t_loop.wire_bytes);
        });
    }

    #[test]
    fn loopback_into_copies_and_charges() {
        let topo = CartTopo::new(&[1], true);
        let net = NetworkModel::theta_aries();
        run_cluster(&topo, net, |ctx| {
            let src = vec![3.5; 128];
            let mut dst = vec![0.0; 128];
            ctx.loopback_into(7, &src, &mut dst).unwrap();
            ctx.waitall_ranges(&[], &mut dst, &[]).unwrap();
            assert_eq!(dst, src);
            let t = ctx.timers();
            assert_eq!(t.msgs, 1);
            assert_eq!(t.wire_bytes, 1024);
            assert!((t.call - 2.0 * net.overhead).abs() < 1e-15);
            assert!((t.wait - net.wait_time(1, 1024)).abs() < 1e-15);
        });
    }

    #[test]
    fn waitall_ranges_scatters_into_storage() {
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let peer = 1 - ctx.rank();
            let me = ctx.rank() as f64;
            let h1 = ctx.irecv(peer, 1).unwrap();
            let h2 = ctx.irecv(peer, 2).unwrap();
            ctx.isend(peer, 1, &[me + 10.0; 4]).unwrap();
            ctx.isend(peer, 2, &[me + 20.0; 4]).unwrap();
            let mut storage = vec![0.0; 16];
            ctx.waitall_ranges(&[h1, h2], &mut storage, &[2..6, 10..14]).unwrap();
            storage
        });
        // Rank 0 received rank 1's payloads.
        assert_eq!(out[0][2..6], [11.0; 4]);
        assert_eq!(out[0][10..14], [21.0; 4]);
        assert_eq!(out[0][0..2], [0.0; 2]);
        assert_eq!(out[1][2..6], [10.0; 4]);
    }

    #[test]
    fn dropped_message_times_out_with_empty_mailbox() {
        for backend in [Backend::Thread, Backend::Event] {
            let topo = CartTopo::new(&[1], true);
            let cfg = FaultConfig { seed: 1, drop: 1.0, ..FaultConfig::off() };
            let out = run_cluster_on(backend, &topo, NetworkModel::instant(), cfg, |ctx| {
                let h = ctx.irecv(0, 4).unwrap();
                ctx.isend(0, 4, &[1.0, 2.0]).unwrap();
                let mut buf = [0.0; 2];
                let err = ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap_err();
                let stats = ctx.fault_stats();
                (err, stats, ctx.take_fault_events())
            });
            let (err, stats, events) = &out[0];
            assert!(matches!(err, NetsimError::Timeout { pending, .. } if pending == &[(0, 4)]));
            assert_eq!(stats.drops, 1);
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].kind, FaultKind::Drop);
        }
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let topo = CartTopo::new(&[1], true);
        let cfg = FaultConfig { seed: 3, dup: 1.0, ..FaultConfig::off() };
        run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            ctx.isend(0, 6, &[9.0; 4]).unwrap();
            let h1 = ctx.irecv(0, 6).unwrap();
            let h2 = ctx.irecv(0, 6).unwrap();
            let (mut a, mut b) = ([0.0; 4], [0.0; 4]);
            ctx.waitall_into(&[h1, h2], &mut [&mut a[..], &mut b[..]]).unwrap();
            assert_eq!(a, [9.0; 4]);
            assert_eq!(b, [9.0; 4]);
            assert_eq!(ctx.fault_stats().dups, 1);
        });
    }

    #[test]
    fn corrupted_message_flips_exactly_one_word() {
        let topo = CartTopo::new(&[1], true);
        let cfg = FaultConfig { seed: 7, corrupt: 1.0, ..FaultConfig::off() };
        run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
            let h = ctx.irecv(0, 2).unwrap();
            ctx.isend(0, 2, &data).unwrap();
            let mut buf = [0.0; 16];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            let differing =
                data.iter().zip(buf.iter()).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
            assert_eq!(differing, 1, "exactly one word must be corrupted");
        });
    }

    #[test]
    fn fault_bypass_and_drain_recover_the_channel() {
        let topo = CartTopo::new(&[1], true);
        let cfg = FaultConfig { seed: 2, drop: 1.0, ..FaultConfig::off() };
        run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            // Injected drop loses the message...
            ctx.isend(0, 8, &[1.0]).unwrap();
            // ...the degraded path bypasses injection and gets through.
            let was = ctx.set_fault_bypass(true);
            assert!(!was);
            ctx.isend(0, 8, &[2.0]).unwrap();
            ctx.set_fault_bypass(false);
            let h = ctx.irecv(0, 8).unwrap();
            let mut buf = [0.0; 1];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            assert_eq!(buf, [2.0]);
            assert_eq!(ctx.drain_mailbox(0, 8), 0, "nothing stale left");
        });
    }

    #[test]
    fn drain_mailbox_evicts_stale_messages() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            for _ in 0..5 {
                ctx.isend(0, 3, &[1.0; 8]).unwrap();
            }
            assert_eq!(ctx.drain_mailbox(0, 3), 5);
            assert_eq!(ctx.drain_mailbox(0, 3), 0);
            // Pooled buffers went back: next sends reuse them.
            let before = ctx.transport_allocs();
            ctx.isend(0, 3, &[1.0; 8]).unwrap();
            assert_eq!(ctx.transport_allocs(), before);
            ctx.drain_mailbox(0, 3);
        });
    }

    #[test]
    fn profiling_timeline_agrees_with_timers() {
        let topo = CartTopo::new(&[2], true);
        let net = NetworkModel::theta_aries();
        let out = run_cluster(&topo, net, |ctx| {
            ctx.enable_profiling();
            let peer = 1 - ctx.rank();
            ctx.scoped("exchange", |ctx| {
                let h = ctx.irecv(peer, 0).unwrap();
                let data = vec![1.0; 512];
                ctx.isend(peer, 0, &data).unwrap();
                let mut buf = vec![0.0; 512];
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            });
            ctx.scoped("kernel", |ctx| {
                ctx.time_calc(|| std::hint::black_box((0..2000).sum::<u64>()));
            });
            (ctx.take_timeline(), ctx.timers())
        });
        for (tl, t) in &out {
            tl.validate().unwrap();
            let b = tl.phase_breakdown();
            assert!((b.wire - t.call).abs() < 1e-12);
            assert!((b.wait - t.wait).abs() < 1e-12);
            assert!((b.compute - t.calc).abs() < 1e-12);
            assert!((b.total() - t.total()).abs() < 1e-12);
            // Threads: whether the send found the peer's window open is
            // the host's interleaving.
            let count = |name| tl.counters.iter().filter(|c| c.0 == name).map(|c| c.1).sum::<u64>();
            assert_eq!(count("msgs_sent"), 1);
            assert!(count("msgs_direct") <= 1);
            // Both top-level scopes made it into the forest.
            let roots: Vec<_> =
                tl.spans.iter().filter(|s| s.depth == 0).map(|s| s.name).collect();
            assert_eq!(roots, vec!["exchange", "kernel"]);
        }
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
            ctx.scoped("exchange", |ctx| {
                ctx.isend(0, 0, &[1.0; 16]).unwrap();
                let h = ctx.irecv(0, 0).unwrap();
                let mut buf = [0.0; 16];
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            });
            ctx.take_timeline()
        });
        assert!(out[0].spans.is_empty());
        assert!(out[0].counters.is_empty());
    }

    #[test]
    fn time_calc_with_tops_up_uninstrumented_remainder() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.enable_profiling();
            ctx.time_calc_with(|rec| {
                rec.open("stage");
                rec.charge(telemetry::Phase::Compute, 0.0);
                rec.close();
                std::hint::black_box((0..5000).sum::<u64>());
            });
            let t = ctx.timers();
            let tl = ctx.take_timeline();
            tl.validate().unwrap();
            let b = tl.phase_breakdown();
            assert!(t.calc > 0.0);
            assert!((b.compute - t.calc).abs() < 1e-12, "remainder top-up keeps agreement");
        });
    }

    #[test]
    fn jitter_slows_the_rank_wire_model() {
        let topo = CartTopo::new(&[2], true);
        let net = NetworkModel::theta_aries();
        let cfg = FaultConfig { seed: 21, jitter: 0.5, ..FaultConfig::off() };
        let out =
            run_cluster_faulty(&topo, net, cfg, |ctx| ctx.network_to(1 - ctx.rank()).latency);
        for (rank, &lat) in out.iter().enumerate() {
            let expect = net.slowed(FaultPlan::new(cfg, rank).slowdown()).latency;
            assert_eq!(lat, expect);
            assert!(lat >= net.latency);
        }
    }

    /// One shifted-ring exchange; every rank returns its exact timers.
    fn ring_once(topo: &CartTopo, net: impl Into<HierarchicalNetworkModel>) -> Vec<Timers> {
        run_cluster(topo, net, |ctx| {
            let peer = (ctx.rank() + 1) % ctx.size();
            let from = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let h = ctx.irecv(from, 7).unwrap();
            ctx.isend(peer, 7, &[1.0; 64]).unwrap();
            let mut buf = [0.0; 64];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            ctx.timers()
        })
    }

    #[test]
    fn flat_hierarchy_is_bit_identical_to_flat_model() {
        let topo = CartTopo::new(&[4], true);
        let net = NetworkModel::theta_aries();
        let flat = ring_once(&topo, net);
        let hier = ring_once(&topo, HierarchicalNetworkModel::flat(net));
        // Even one rank per node with distinct tiers stays on the
        // fabric for every pair — same arithmetic, same bits.
        let degenerate = ring_once(&topo, HierarchicalNetworkModel::dragonfly(1));
        for rank in 0..topo.size() {
            assert_eq!(flat[rank].call.to_bits(), hier[rank].call.to_bits());
            assert_eq!(flat[rank].wait.to_bits(), hier[rank].wait.to_bits());
            assert_eq!(flat[rank].call.to_bits(), degenerate[rank].call.to_bits());
            assert_eq!(flat[rank].wait.to_bits(), degenerate[rank].wait.to_bits());
        }
    }

    #[test]
    fn hier_charges_each_message_by_node_locality() {
        // Ring of 4, two ranks per node: nodes {0,1} and {2,3}. In the
        // shifted ring every rank sends exactly one message — rank 0
        // stays on-node (to 1), rank 1 crosses the fabric (to 2), etc.
        let topo = CartTopo::new(&[4], true);
        let h = HierarchicalNetworkModel::dragonfly(2);
        let bytes = 64 * std::mem::size_of::<f64>();
        let out = ring_once(&topo, h);
        for (rank, timers) in out.iter().enumerate() {
            let send_on = h.node.same_node(rank, (rank + 1) % 4);
            let recv_on = h.node.same_node(rank, (rank + 3) % 4);
            let send_o = if send_on { h.intra.overhead } else { h.inter.overhead };
            let recv_o = if recv_on { h.intra.overhead } else { h.inter.overhead };
            assert_eq!(timers.call, send_o + recv_o, "rank {rank} call");
            let wait = if send_on {
                h.intra.wait_time(1, bytes)
            } else {
                h.inter.wait_time(1, bytes)
            };
            assert_eq!(timers.wait, wait, "rank {rank} wait");
        }
        // On-node messages are strictly cheaper than off-node ones.
        assert!(out[0].wait < out[1].wait);
    }

    #[test]
    fn hier_loopback_is_an_on_node_transfer() {
        let topo = CartTopo::new(&[1], true);
        let h = HierarchicalNetworkModel::fat_tree(4);
        let out = run_cluster(&topo, h, |ctx| {
            let src = [3.0; 32];
            let mut dst = [0.0; 32];
            ctx.loopback_into(9, &src, &mut dst).unwrap();
            ctx.flush_epoch();
            assert_eq!(dst, src);
            ctx.timers()
        });
        let bytes = 32 * std::mem::size_of::<f64>();
        assert_eq!(out[0].call, 2.0 * h.intra.overhead);
        assert_eq!(out[0].wait, h.intra.wait_time(1, bytes));
    }
}
