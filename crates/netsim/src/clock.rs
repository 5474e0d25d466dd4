//! A rank's clock: the one billing point every charged second flows
//! through, the really-timed and modeled charges built on it, the send
//! epoch the LogGP `wait` term is settled per, and the take-outs of what
//! was recorded along the way (timers, timeline, fault log).

use telemetry::{MsgEvent, Phase, Recorder, Timeline};

use crate::cluster::RankCtx;
use crate::fault::FaultEvent;
use crate::model::NetworkModel;
use crate::timers::{timed, Timers};

impl RankCtx<'_> {
    /// The wire model charged for messages between this rank and
    /// `peer` (already includes this rank's fault-plan slowdown factor,
    /// if any): the shared-memory tier when both live on the same node
    /// of a hierarchical topology, the fabric tier otherwise.
    #[inline]
    pub(crate) fn network_to(&self, peer: usize) -> NetworkModel {
        match &self.hier {
            Some((intra, node)) if node.same_node(self.rank, peer) => *intra,
            _ => self.net,
        }
    }

    /// Whether `peer` shares this rank's node (true only in a
    /// hierarchical run; the flat degenerate case has one rank per
    /// node, so nothing — not even a self-send — counts as on-node).
    #[inline]
    fn on_node(&self, peer: usize) -> bool {
        matches!(&self.hier, Some((_, node)) if node.same_node(self.rank, peer))
    }

    /// Single billing point: every second this rank is charged flows
    /// through here, advancing both the matching [`Timers`] field and —
    /// when profiling is on — the recorder's virtual clock. Routing all
    /// charges through one spot is what makes the telemetry invariant
    /// (per-phase span sums == timer totals) hold by construction.
    pub(crate) fn bill(&mut self, phase: Phase, secs: f64) {
        self.bill_timer(phase, secs);
        self.recorder.charge(phase, secs);
    }

    fn bill_timer(&mut self, phase: Phase, secs: f64) {
        match phase {
            Phase::Compute => self.timers.calc += secs,
            Phase::Pack | Phase::Unpack | Phase::Copy => self.timers.pack += secs,
            Phase::Wire => self.timers.call += secs,
            Phase::Wait => self.timers.wait += secs,
        }
    }

    /// Run `f` and *really time* it as `phase`: compute, packing or
    /// unpacking (both land on the paper's one `pack` timer), or work
    /// inside the MPI library such as a derived-datatype walk (`Wire`,
    /// charged to `call`). The closure gets the span recorder, so an
    /// instrumented kernel can attribute slices of the measured interval
    /// itself (per-plan-stage spans); whatever it does not account for is
    /// recorded as `phase`, so the total charged always equals the
    /// measured wall time.
    pub fn time<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let mut rec = std::mem::take(&mut self.recorder);
        let before = rec.now();
        let (r, t) = timed(|| f(&mut rec));
        let inner = rec.now() - before;
        self.recorder = rec;
        self.bill_timer(phase, t);
        self.recorder.charge(phase, (t - inner).max(0.0));
        r
    }

    /// Turn on span/counter/message recording for this rank. Exchange
    /// engines then wrap their work in [`RankCtx::scoped`], every charged
    /// second lands as a leaf span on the rank's virtual timeline, and
    /// every posted send and completed receive as a message event.
    pub fn enable_profiling(&mut self) {
        self.recorder.enable(self.rank);
    }

    /// Open a named scope for the duration of `f`: charges billed
    /// inside nest under it on the timeline. Free when profiling is
    /// off. Closure-based so spans are well-nested by construction.
    pub fn scoped<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.recorder.open(name);
        let r = f(self);
        self.recorder.close();
        r
    }

    /// Bump a named profiling counter (no-op when profiling is off).
    pub fn note_count(&mut self, name: &'static str, delta: u64) {
        self.recorder.count(name, delta);
    }

    /// Drain this rank's recorded timeline (empty when profiling was
    /// never enabled). Call before timer-reducing collectives, whose
    /// own wire traffic would otherwise pollute the spans.
    pub fn take_timeline(&mut self) -> Timeline {
        self.recorder.take_timeline()
    }

    /// This rank's virtual clock: the sum of every second billed so far
    /// (compute, pack, call and wait). Monotone between timer resets.
    /// The partitioned-channel layer timestamps shipped fragments with
    /// it so fragment bandwidth can drain behind later billed work.
    pub(crate) fn virtual_time(&self) -> f64 {
        self.timers.total()
    }

    /// Charge the send-side wire model for one message of `bytes`
    /// payload: `o` seconds of `call`, message/byte counters, epoch
    /// accounting (skipped for deferred sends, whose `wait` the caller
    /// settles itself), and the message event.
    pub(crate) fn charge_send(&mut self, peer: usize, tag: u64, bytes: usize, epoch: bool) {
        self.bill(Phase::Wire, self.network_to(peer).call_time(1));
        self.timers.msgs += 1;
        self.timers.wire_bytes += bytes as u64;
        if epoch {
            if self.on_node(peer) {
                self.epoch_msgs_on += 1;
                self.epoch_bytes_on += bytes;
            } else {
                self.epoch_msgs += 1;
                self.epoch_bytes += bytes;
            }
        }
        self.recorder.count("msgs_sent", 1);
        self.recorder.observe("send_bytes", bytes as f64);
        self.recorder.message(MsgEvent { send: true, peer, tag, bytes });
    }

    /// Charge the receive-post cost of one message from `peer`: `o`
    /// seconds of `call`.
    pub(crate) fn charge_recv_post(&mut self, peer: usize) {
        self.bill(Phase::Wire, self.network_to(peer).call_time(1));
    }

    /// A loopback's charges, after its copy: the send, the matching
    /// receive post as `irecv` would charge it, and the completion.
    pub(crate) fn charge_loopback(&mut self, tag: u64, words: usize) {
        self.charge_send(self.rank, tag, words * std::mem::size_of::<f64>(), true);
        self.charge_recv_post(self.rank);
        self.record_recv(self.rank, tag, words);
    }

    /// Record the completion of a receive of `words` from `peer`.
    pub(crate) fn record_recv(&mut self, peer: usize, tag: u64, words: usize) {
        self.recorder.message(MsgEvent { send: false, peer, tag, bytes: words * 8 });
    }

    /// Charge the LogGP `wait` term for this epoch's posted sends and
    /// close the epoch. A hierarchical run waits on both tiers: the
    /// fabric drains the off-node portion while shared memory drains
    /// the on-node portion; the two proceed serially on the posting
    /// core, so the terms add. A flat run performs the identical
    /// single-term arithmetic as always (the intra term is absent, not
    /// zero-valued — flat billing stays bit-identical).
    ///
    /// Public so that protocol layers which complete receives via
    /// [`RankCtx::recv_blocking`] or [`RankCtx::try_wait`] instead of
    /// `waitall_*` can settle the sends posted since the last close.
    pub fn flush_epoch(&mut self) {
        let mut wait = self.net.wait_time(self.epoch_msgs, self.epoch_bytes);
        if let Some((intra, _)) = self.hier {
            wait += intra.wait_time(self.epoch_msgs_on, self.epoch_bytes_on);
            self.epoch_msgs_on = 0;
            self.epoch_bytes_on = 0;
        }
        self.bill(Phase::Wait, wait);
        self.epoch_msgs = 0;
        self.epoch_bytes = 0;
    }

    /// Record payload bytes (the non-padding fraction of the wire bytes)
    /// for bandwidth accounting.
    pub fn note_payload(&mut self, bytes: usize) {
        self.timers.payload_bytes += bytes as u64;
    }

    /// Count one partitioned message at its flush: `early` of its
    /// `bytes` left before the flush, on `pready`.
    pub(crate) fn note_partitioned(&mut self, early: usize, bytes: usize) {
        self.timers.early_bytes += early as u64;
        self.timers.partition_bytes += bytes as u64;
    }

    /// Charge additional modeled seconds to `wait` (the drain a
    /// partitioned channel settles at its flush).
    pub(crate) fn charge_wait(&mut self, secs: f64) {
        self.bill(Phase::Wait, secs);
    }

    /// Charge additional *modeled* seconds to `calc` (tests that need
    /// billed compute between two calls).
    #[cfg(test)]
    pub(crate) fn charge_calc(&mut self, secs: f64) {
        self.bill(Phase::Compute, secs);
    }

    /// Charge modeled compute seconds *attributed to a brick*: the time
    /// lands on `calc` like any modeled compute charge, and — when
    /// profiling is on — is additionally credited to `brick` on the
    /// recorder, feeding the per-brick cost signal a load balancer
    /// harvests.
    pub fn charge_calc_brick(&mut self, brick: u32, secs: f64) {
        self.bill(Phase::Compute, secs);
        self.recorder.charge_brick(brick, secs);
    }

    /// Snapshot of the accumulated timers.
    pub fn timers(&self) -> Timers {
        self.timers
    }

    /// Zero the timers (e.g. after warmup steps). Also rewinds the
    /// profiling recorder so timelines cover exactly the timed steps.
    pub fn reset_timers(&mut self) {
        self.timers.reset();
        self.recorder.reset();
    }

    /// Drain the recorded fault-injection events (always recorded when
    /// a fault plan is armed, independent of profiling).
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        self.trace.take_faults()
    }
}
