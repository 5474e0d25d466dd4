//! Process faults: crash-stop (`kill:`) and fail-slow (`stall:`)
//! schedules, the cluster-wide liveness state survivors detect a crash
//! through ([`ProcState`]), and the recovery-epoch half of [`RankCtx`].
//!
//! A killed rank unwinds out of arbitrarily deep protocol code with a
//! [`KillSentinel`] panic; the runner (`runtime.rs`) catches it and
//! re-enters the rank body with the next incarnation number. Survivors
//! see the communicator *revoked*: every blocking wait outside recovery
//! mode gives up and reports [`NetsimError::RankFailed`].

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use telemetry::Phase;

use crate::cluster::RankCtx;
use crate::error::NetsimError;
use crate::fault::{FaultEvent, FaultKind, CTRL_TAG_BIT};
use crate::mailbox::Mailbox;

/// Shared process-liveness state for one cluster run: which ranks are
/// currently dead, whether the communicator is revoked (ULFM-style: a
/// crash-stop was observed and every blocking operation must unwind
/// with [`NetsimError::RankFailed`] instead of waiting on traffic that
/// cannot arrive), and the failure the survivors must agree on.
pub(crate) struct ProcState {
    /// Per-rank crash flag. A dead rank's incoming sends vanish (the
    /// NIC is gone); cleared when the runner respawns the rank.
    pub(crate) dead: Vec<AtomicBool>,
    /// Set by [`RankCtx::die`], cleared by rank 0 at the end of the
    /// recovery epoch (before releasing the recovery fence, so no
    /// survivor can observe a stale revocation afterwards).
    pub(crate) revoked: AtomicBool,
    /// The failed rank (`usize::MAX` = none).
    failed_rank: AtomicUsize,
    /// The timestep the victim was executing when it died.
    failed_step: AtomicU64,
    /// Wall-clock kill instant, for detection-latency telemetry.
    killed_at: Mutex<Option<Instant>>,
}

impl ProcState {
    pub(crate) fn new(size: usize) -> ProcState {
        ProcState {
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            revoked: AtomicBool::new(false),
            failed_rank: AtomicUsize::new(usize::MAX),
            failed_step: AtomicU64::new(0),
            killed_at: Mutex::new(None),
        }
    }

    /// Bring a crash-stopped `rank` back to life for its next incarnation.
    /// The unwind has dropped everything the dead incarnation held, its
    /// [`crate::Lend`]s included, so nothing of its freed memory is still
    /// lent.
    pub(crate) fn respawn(&self, mailbox: &Mailbox, rank: usize) {
        assert!(
            mailbox.lock().windows.is_empty(),
            "rank {rank} died with receive windows still lent"
        );
        self.dead[rank].store(false, Ordering::SeqCst);
    }
}

/// Panic payload thrown by [`RankCtx::die`] to unwind a crash-stopped
/// rank out of arbitrarily deep protocol code. The runner's incarnation
/// loop catches it and re-enters the rank body with a fresh incarnation;
/// any other panic payload keeps the abort-the-cluster path.
pub(crate) struct KillSentinel;

impl RankCtx<'_> {
    /// Arm the process-fault window for timestep `step`: a `kill:` /
    /// `stall:` schedule targeting this step can now fire, at the
    /// scheduled data-plane operation count. Resilient drivers call
    /// this right before each step body and
    /// [`RankCtx::clear_fault_step`] right after, so checkpointing and
    /// recovery traffic can never be killed — which is what keeps every
    /// rank's checkpoint set identical.
    pub fn set_fault_step(&mut self, step: u64) {
        self.cur_step = step;
        self.step_ops = 0;
    }

    /// Disarm the process-fault window (see [`RankCtx::set_fault_step`]).
    pub fn clear_fault_step(&mut self) {
        self.cur_step = u64::MAX;
    }

    /// Data-plane operations counted so far in the armed step — the `OP`
    /// coordinate of a `kill:R@S+OP` schedule (frozen while disarmed).
    pub fn step_ops(&self) -> u64 {
        self.step_ops
    }

    /// How many times this rank's body has been (re)started: 0 for the
    /// original process, ≥ 1 for a respawn after a crash-stop fault.
    /// A resilient driver seeing a nonzero incarnation skips straight
    /// to the recovery epoch to adopt its buddy's checkpoint.
    pub fn incarnation(&self) -> usize {
        self.incarnation
    }

    /// Whether the communicator is revoked: a crash-stop fault was
    /// observed somewhere and blocking operations outside recovery
    /// mode unwind with [`NetsimError::RankFailed`].
    pub(crate) fn revoked(&self) -> bool {
        self.proc.revoked.load(Ordering::SeqCst)
    }

    /// The pending failure the survivors must recover from, as
    /// `(failed rank, failed step)` — `None` once recovery completed.
    pub fn failed_info(&self) -> Option<(usize, u64)> {
        let r = self.proc.failed_rank.load(Ordering::SeqCst);
        (r != usize::MAX).then(|| (r, self.proc.failed_step.load(Ordering::SeqCst)))
    }

    /// This rank's view of the pending failure as a structured error,
    /// recording the detection latency (wall-clock seconds from kill to
    /// first observation, telemetry only) the first time it fires.
    pub fn rank_failure(&mut self) -> Option<NetsimError> {
        let (rank, step) = self.failed_info()?;
        if self.detect_latency.is_none() {
            let at: Option<Instant> = *self.proc.killed_at.lock();
            self.detect_latency = Some(at.map_or(0.0, |t| t.elapsed().as_secs_f64()));
        }
        Some(NetsimError::RankFailed { rank, detected_by: self.rank, step })
    }

    /// Detection latency recorded by [`RankCtx::rank_failure`], if this
    /// rank ever observed a failure.
    pub fn detect_latency(&self) -> Option<f64> {
        self.detect_latency
    }

    /// Enter recovery mode: blocking operations wait normally again
    /// (the recovery protocol's own traffic must flow on a revoked
    /// communicator) until [`RankCtx::end_recovery`].
    pub fn begin_recovery(&mut self) {
        self.recovery_mode = true;
    }

    /// Leave recovery mode (see [`RankCtx::begin_recovery`]).
    pub fn end_recovery(&mut self) {
        self.recovery_mode = false;
    }

    /// Whether this rank is inside a recovery epoch.
    pub fn recovering(&self) -> bool {
        self.recovery_mode
    }

    /// Acknowledge the failure cluster-wide: clear the failed-rank
    /// record and un-revoke the communicator. Called by rank 0 at the
    /// end of the recovery epoch, *before* releasing the recovery
    /// fence, so no rank can leave recovery and still observe the
    /// stale revocation.
    pub fn clear_failure(&self) {
        self.proc.failed_rank.store(usize::MAX, Ordering::SeqCst);
        self.proc.failed_step.store(0, Ordering::SeqCst);
        *self.proc.killed_at.lock() = None;
        self.proc.revoked.store(false, Ordering::SeqCst);
    }

    /// Flush this rank's mailbox of everything whose `(source, tag)`
    /// fails `keep`, recycling the buffers; returns how many messages
    /// were evicted. The recovery epoch calls this after the join
    /// fence — when every pre-failure send has landed (delivery is
    /// eager) — so stale data-plane frames from the aborted step can
    /// never be matched by the replay, while in-flight recovery frames
    /// survive.
    pub fn drain_all_except(&mut self, keep: impl Fn(usize, u64) -> bool) -> usize {
        let evicted = self.mailbox().drain_except(&keep);
        let n = evicted.len();
        evicted.into_iter().for_each(|msg| msg.recycle(self.pools));
        n
    }

    /// Record a process-fault trace event. The victim's own trace dies
    /// with its first incarnation, so the resilient driver re-records
    /// the kill on the respawned context; stalls are recorded in place
    /// by [`RankCtx::proc_tick`].
    pub fn record_proc_fault_event(&mut self, kind: FaultKind, step: u64, op: u64) {
        self.trace.record_fault(FaultEvent {
            kind,
            src: self.rank,
            dest: self.rank,
            tag: step,
            attempt: op,
            bytes: 0,
        });
    }

    /// Process-fault injection point, called once per data-plane
    /// transport operation (send posts, receive posts, waits, overlap
    /// polls — including `try_wait`/`progress_with`/`idle_tick` polls
    /// that find nothing). Ops are counted per armed timestep, so a
    /// `kill:R@S+OP` schedule lands *inside* the step body, including
    /// mid-overlap-window and mid-pready. The point is reproducible
    /// only while `OP` is within the operations the step posts
    /// unconditionally (its sends and receives; the blocking fence and
    /// load-trade calls of a migration epoch). Past those, under the
    /// overlap and partitioned schedules, the count depends on how often
    /// the rank polled before its halos landed — host timing — and a
    /// step that ends after fewer than `OP` ticks leaves the kill
    /// unfired.
    pub(crate) fn proc_tick(&mut self) {
        if self.cur_step == u64::MAX {
            return;
        }
        if let Some(k) = self.kill {
            if k.step == self.cur_step && self.step_ops >= k.op {
                self.die(k.step);
            }
        }
        if let Some(st) = self.stall {
            if st.step == self.cur_step && self.step_ops >= st.op && !self.stall_fired {
                self.stall_fired = true;
                self.bill(Phase::Wait, st.stall_secs);
                self.recorder.count("fault_stalls", 1);
                self.record_proc_fault_event(FaultKind::Stall, st.step, st.op);
            }
        }
        self.step_ops += 1;
    }

    /// Crash-stop this rank: publish the failure, make in-flight
    /// traffic to it vanish, wake every blocked peer so the failure
    /// detector can run, and unwind via a [`KillSentinel`] panic that
    /// the runner's incarnation loop catches.
    fn die(&mut self, step: u64) -> ! {
        self.proc.dead[self.rank].store(true, Ordering::SeqCst);
        self.proc.failed_rank.store(self.rank, Ordering::SeqCst);
        self.proc.failed_step.store(step, Ordering::SeqCst);
        *self.proc.killed_at.lock() = Some(Instant::now());
        self.proc.revoked.store(true, Ordering::SeqCst);
        // The victim's queued data-plane messages vanish with it;
        // recycle their buffers so the owners' pools keep circulating.
        // Control-plane traffic (fault-exempt by construction) is
        // preserved: a survivor that detects the failure first may
        // already have posted recovery-protocol frames to this mailbox,
        // and eating them would deadlock the join fence. Stale control
        // frames are purged by the recovery epoch's own drain instead.
        let stale = self.mailbox().drain_except(&|_, tag| tag & CTRL_TAG_BIT != 0);
        stale.into_iter().for_each(|msg| msg.recycle(self.pools));
        self.sched.wake_all();
        // `resume_unwind` rather than `panic_any`: the unwind is the
        // modeled crash, not a program bug, so the process-global panic
        // hook (message + backtrace on stderr) must not fire for it.
        std::panic::resume_unwind(Box::new(KillSentinel));
    }
}
