//! Process faults: crash-stop (`kill:`) and fail-slow (`stall:`)
//! schedules, the cluster-wide liveness state survivors detect a crash
//! through ([`ProcState`]), and the recovery bracket of [`RankCtx`].
//!
//! A killed rank unwinds out of arbitrarily deep protocol code with a
//! [`KillSentinel`] panic; the runner (`runtime.rs`) catches it and
//! re-enters the rank body with the next incarnation number. Survivors
//! see the communicator *revoked*: every blocking wait and every poll
//! outside recovery mode gives up and reports
//! [`NetsimError::RankFailed`], decided in one place
//! (`RankCtx::revoked_failure`).
//!
//! [`RankCtx::recover`] is the whole recovery bracket: it enters recovery
//! mode, closes the aborted step's epoch, joins a fence every rank (the
//! respawned victim included) checks into, purges everything outside
//! [`RECO_NS`], runs the caller's recovery protocol, and leaves through a
//! release fence whose root acknowledges the failure before it releases.
//! What the protocol does in between — agree on a step, restore, re-seed
//! — is the caller's.

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

/// The recovery-epoch tag namespace: everything sent between
/// [`RankCtx::recover`]'s join and release fences, the only traffic its
/// purge keeps (`RECO_NS | 0..=15`). The bracket's own fences use
/// `RECO_NS | {0, 1, 6, 7}`; a recovery protocol tags its frames
/// `RECO_NS | 2..=5`.
pub const RECO_NS: u64 = CTRL_TAG_BIT | 0x7EC1_0000;
const JOIN_A: u64 = RECO_NS;
const REL_A: u64 = RECO_NS | 1;
const JOIN_B: u64 = RECO_NS | 6;
const REL_B: u64 = RECO_NS | 7;

/// The crash-stop failure a recovery epoch recovered from, as
/// [`RankCtx::recover`] reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Failure {
    /// The rank that crash-stopped.
    pub rank: usize,
    /// The timestep it was executing.
    pub step: u64,
    /// Wall-clock seconds from the kill to this rank's first observation
    /// of it (0 on the respawned victim, which never observes it);
    /// telemetry only.
    pub detect_latency: f64,
}

impl RankCtx<'_> {
    /// Run `body` with the process-fault window armed for timestep
    /// `step`: a `kill:` / `stall:` schedule targeting this step can fire
    /// inside it, at the scheduled data-plane operation count, and
    /// nowhere else. The window is disarmed again on every return, so
    /// checkpointing and recovery traffic can never be killed — which is
    /// what keeps every rank's checkpoint set identical.
    pub fn fault_step<T>(&mut self, step: u64, body: impl FnOnce(&mut Self) -> T) -> T {
        self.cur_step = step;
        self.step_ops = 0;
        let out = body(self);
        self.cur_step = u64::MAX;
        out
    }

    /// Data-plane operations counted so far in the armed step — the `OP`
    /// coordinate of a `kill:R@S+OP` schedule (frozen while disarmed).
    pub fn step_ops(&self) -> u64 {
        self.step_ops
    }

    /// How many times this rank's body has been (re)started: 0 for the
    /// original process, ≥ 1 for a respawn after a crash-stop fault.
    /// A resilient driver seeing a nonzero incarnation skips straight
    /// to [`RankCtx::recover`] to adopt its buddy's checkpoint.
    pub fn incarnation(&self) -> usize {
        self.incarnation
    }

    /// Whether the communicator is revoked: a crash-stop fault was
    /// observed somewhere and blocking operations outside recovery
    /// mode unwind with [`NetsimError::RankFailed`].
    pub(crate) fn revoked(&self) -> bool {
        self.proc.revoked.load(Ordering::SeqCst)
    }

    /// The pending failure as `(failed rank, failed step)` — `None` once
    /// a recovery epoch acknowledged it.
    fn failed_info(&self) -> Option<(usize, u64)> {
        let r = self.proc.failed_rank.load(Ordering::SeqCst);
        (r != usize::MAX).then(|| (r, self.proc.failed_step.load(Ordering::SeqCst)))
    }

    /// This rank's view of the pending failure as a structured error,
    /// recording the detection latency (wall-clock seconds from kill to
    /// first observation, telemetry only) the first time it fires.
    pub(crate) fn rank_failure(&mut self) -> Option<NetsimError> {
        let (rank, step) = self.failed_info()?;
        if self.detect_latency.is_none() {
            let at: Option<Instant> = *self.proc.killed_at.lock();
            self.detect_latency = Some(at.map_or(0.0, |t| t.elapsed().as_secs_f64()));
        }
        Some(NetsimError::RankFailed { rank, detected_by: self.rank, step })
    }

    /// The failure detector, for every wait and poll of the transport: on
    /// a revoked communicator outside recovery mode, the pending failure.
    /// Recovery-mode traffic ignores revocation — the recovery protocol's
    /// own frames must flow on the revoked communicator.
    pub(crate) fn revoked_failure(&mut self) -> Result<(), NetsimError> {
        if self.recovery_mode || !self.revoked() {
            return Ok(());
        }
        self.rank_failure().map_or(Ok(()), Err)
    }

    /// Run one recovery epoch around `body`, the caller's recovery
    /// protocol, and return what it returned with the failure it
    /// recovered from. Collective: every rank calls it once per failure
    /// — survivors after a [`NetsimError::RankFailed`], the respawned
    /// victim first thing in its new incarnation.
    ///
    /// The bracket, in order: enter recovery mode (blocking operations
    /// wait normally on the revoked communicator); close the aborted
    /// step's send epoch; join fence; purge every queued message outside
    /// [`RECO_NS`] — delivery is eager and the whole cluster has joined,
    /// so that is stale data of the aborted step, fence tokens from a
    /// fence the victim never joined and orphaned collective
    /// contributions (counted as `recovery_purged_msgs`); `body`, which
    /// tags its traffic `RECO_NS | 2..=5`; release fence, whose root
    /// acknowledges the failure cluster-wide before it releases, so no
    /// rank leaves and still observes the revocation; leave recovery
    /// mode (on error paths too).
    pub fn recover<T>(
        &mut self,
        body: impl FnOnce(&mut Self, &Failure) -> Result<T, NetsimError>,
    ) -> Result<(T, Failure), NetsimError> {
        let (rank, step) = self.failed_info().expect("recovery epoch entered without a pending failure");
        let failure = Failure { rank, step, detect_latency: self.detect_latency.unwrap_or(0.0) };
        self.recovery_mode = true;
        let out = self.recovery_bracket(&failure, body);
        self.recovery_mode = false;
        out.map(|t| (t, failure))
    }

    fn recovery_bracket<T>(
        &mut self,
        failure: &Failure,
        body: impl FnOnce(&mut Self, &Failure) -> Result<T, NetsimError>,
    ) -> Result<T, NetsimError> {
        self.flush_epoch();
        self.closed_fence(JOIN_A, REL_A, false)?;
        let purged = self.purge(|_, tag| tag & !0xF == RECO_NS);
        self.note_count("recovery_purged_msgs", purged as u64);
        let out = body(self, failure)?;
        self.closed_fence(JOIN_B, REL_B, true)?;
        Ok(out)
    }

    /// A recovery fence: [`RankCtx::fence`], then the tokens' epoch closed.
    fn closed_fence(&mut self, join: u64, rel: u64, acknowledge: bool) -> Result<(), NetsimError> {
        self.rooted_fence(join, rel, acknowledge)?;
        if self.size() > 1 {
            self.flush_epoch();
        }
        Ok(())
    }

    /// Acknowledge the failure cluster-wide: clear the failed-rank record
    /// and un-revoke the communicator (rank 0, inside the release fence).
    pub(crate) fn acknowledge_failure(&self) {
        self.proc.failed_rank.store(usize::MAX, Ordering::SeqCst);
        self.proc.failed_step.store(0, Ordering::SeqCst);
        *self.proc.killed_at.lock() = None;
        self.proc.revoked.store(false, Ordering::SeqCst);
    }

    /// Evict every queued message of this rank's mailbox whose
    /// `(source, tag)` fails `keep`, recycling the buffers; returns how
    /// many were evicted.
    fn purge(&self, keep: impl Fn(usize, u64) -> bool) -> usize {
        let evicted = self.mailbox().drain_except(&keep);
        let n = evicted.len();
        evicted.into_iter().for_each(|msg| msg.recycle(self.pools));
        n
    }

    /// Record a process-fault trace event on this rank.
    fn record_proc_fault(&mut self, kind: FaultKind, step: u64, op: u64) {
        self.trace.record_fault(FaultEvent {
            kind,
            src: self.rank,
            dest: self.rank,
            tag: step,
            attempt: op,
            bytes: 0,
        });
    }

    /// A respawned victim's first-incarnation trace died with it: record
    /// the kill on the new context (called once, by `RankCtx::new`).
    pub(crate) fn record_respawn(&mut self) {
        if let Some((_, step)) = self.failed_info() {
            self.record_proc_fault(FaultKind::Kill, step, 0);
        }
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
                self.record_proc_fault(FaultKind::Stall, st.step, st.op);
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
        self.purge(|_, tag| tag & CTRL_TAG_BIT != 0);
        self.sched.wake_all();
        // `resume_unwind` rather than `panic_any`: the unwind is the
        // modeled crash, not a program bug, so the process-global panic
        // hook (message + backtrace on stderr) must not fire for it.
        std::panic::resume_unwind(Box::new(KillSentinel));
    }
}
