//! Buddy checkpointing and the epoch-based recovery harness.
//!
//! The step driver in [`crate::experiment`] hands its loop body to
//! [`drive`] as a single closure over [`DriveOp`]. On a fault-free,
//! checkpoint-free configuration the harness degenerates to the classic
//! `for step { body; barrier }` loop. With process faults or
//! `--checkpoint-every` armed it becomes resilient:
//!
//! 1. **Checkpoint.** Every K steps (and always before step 0) each rank
//!    snapshots the state it owns ([`DriveOp::Snapshot`] — see "What a
//!    snapshot holds" below) straight into a checkpoint slot, seals it
//!    with a `[step, checksum]` trailer (the same
//!    [`netsim::frame_checksum`] the reliable protocol uses), and sends
//!    the slot to its buddy `(rank + 1) % n` around the ring. The
//!    buddy verifies the frame and keeps the message buffer itself as
//!    its guard slot ([`netsim::RankCtx::adopt`]; every other received
//!    frame goes back to its sender's pool when dropped), so a frame is
//!    copied once and hashed once per hop. Slots are double-buffered, so
//!    a failure can never leave a rank holding only a torn frame.
//! 2. **Detect.** Kills fire only inside the armed step window
//!    ([`netsim::RankCtx::fault_step`] wraps each step body); the victim
//!    revokes the communicator on its way down, and every survivor's
//!    next wait or poll — at the latest the per-step
//!    [`netsim::RankCtx::fence`] — reports [`NetsimError::RankFailed`]
//!    instead of hanging.
//! 3. **Recover** (ULFM-style, see `recover_epoch`): `netsim` owns the
//!    bracket ([`netsim::RankCtx::recover`]: a join fence that gathers
//!    every rank, the respawned victim included, on the revoked
//!    communicator; the purge of stale data-plane frames — delivery is
//!    eager, so by fence time every pre-failure send has landed; a
//!    release fence that un-revokes the communicator before anyone
//!    resumes). This module supplies the protocol in between: an
//!    NBX-style agreement round settles the common recovery step; the
//!    buddy streams the victim's snapshot back, the anti-buddy
//!    `(f - 1) % n` re-seeds the redundancy the victim lost; every rank
//!    rolls its grid back ([`DriveOp::Restore`]) and rebuilds its
//!    persistent artifacts — exchange sessions, partitioned channel
//!    tables, dependency graph ([`DriveOp::Rebuild`]).
//! 4. **Replay.** Execution resumes at the recovery step. The step body
//!    is deterministic in the grid contents, so the replayed run is
//!    bit-identical to the fault-free schedule.
//!
//! # What a snapshot holds
//!
//! A snapshot is **the state a rank owns** at a step boundary, nothing
//! more: for the static engines the [`crate::BrickDecomp::owned_elems`]
//! prefix of the current grid (interior and surface bricks, which the
//! decomposition stores ahead of every ghost group), for the migrating
//! engine the interiors of the bricks it owns with its ownership view,
//! balancer state and live plan. The ghost rim — almost half the padded
//! storage at 64³ with an 8-wide ghost, over two thirds at 32³ — is a
//! copy of state other ranks own and is dead at a step boundary,
//! because every schedule refills a ghost brick before it reads one:
//!
//! * *phased* — a step is `exchange → compute`, and the exchange fills
//!   every ghost group;
//! * *overlap* and *partitioned* — `begin`, then interior bricks (which
//!   read no ghost), then each boundary brick only once the receives
//!   filling the ghosts it reads have completed, `finish` before the
//!   rest; early `pready` fragments of the aborted step are purged with
//!   the data plane and re-sent from the restored grid;
//! * *Shift* — three axis passes, each shipping slabs that include the
//!   ghosts the earlier passes just filled, so after the last pass every
//!   ghost brick derives from owned state of this step.
//!
//! Every cost of a checkpoint is per byte (snapshot copy, seal hash,
//! pooled send copy, verify hash, four slots per rank, `B/β` on the
//! modeled wire, the restore frames), so what is not owned is not
//! carried. Test and debug builds poison what `Restore` leaves untouched
//! (ghost rim, next grid) with NaN, so a schedule that did read stale
//! state fails every kill test's checksum.
//!
//! Recovery control traffic flows on [`netsim::RECO_NS`] (fault-exempt,
//! preserved by the post-fence purge); step fences and
//! checkpoint frames use a second reserved namespace that is *not*
//! preserved, because after a failure any such frame is stale by
//! construction.

use netsim::{frame_checksum, Failure, NetsimError, RankCtx, RecvdMsg, CTRL_TAG_BIT, RECO_NS};

/// Per-step control namespace: fence tokens and checkpoint frames.
/// Purged (with the data plane) during recovery — a surviving token
/// from a fence the victim never joined must not leak into the next one.
const STEP_JOIN: u64 = CTRL_TAG_BIT | 0x7EC0_0000;
const STEP_REL: u64 = CTRL_TAG_BIT | 0x7EC0_0001;
const CKPT: u64 = CTRL_TAG_BIT | 0x7EC0_0002;

/// The recovery protocol's tags: inside the namespace the recovery
/// epoch's purge keeps, beside the bracket's own fences.
const AGREE: u64 = RECO_NS | 2;
const PLAN: u64 = RECO_NS | 3;
const RESTORE: u64 = RECO_NS | 4;
const REBUDDY: u64 = RECO_NS | 5;

/// One operation the harness asks of the driver's loop closure.
///
/// `Step` is the ordinary timestep body (exchange + compute + swap —
/// everything except the end-of-step synchronization, which the harness
/// owns). The other three only fire on resilient configurations.
pub enum DriveOp<'a> {
    /// Execute timestep `step` (0-based, warmup included).
    Step(usize),
    /// Append the state this rank owns at the step boundary to the
    /// buffer: everything the next step reads that no exchange will
    /// deliver. Ghost copies of other ranks' state stay out — the step
    /// refills them before reading them (module docs, "What a snapshot
    /// holds").
    Snapshot(&'a mut Vec<f64>),
    /// Roll the owned state back to a snapshot taken by `Snapshot`.
    /// Together with `Rebuild` this must reproduce the step-boundary
    /// state bit-exactly as far as the next step can observe it.
    Restore(&'a [f64]),
    /// Recreate every persistent artifact whose state the aborted step
    /// may have torn: exchange sessions (and their reliable sequence
    /// numbers), partitioned send/recv tables, the dependency graph and
    /// overlap timer. Called on *every* rank during recovery.
    Rebuild,
}

/// Resilience knobs for one [`drive`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryCfg {
    /// Total steps to drive (timed + warmup).
    pub steps: usize,
    /// Checkpoint interval in steps; 0 disables checkpointing (a kill
    /// schedule still forces interval 1 so recovery has a base state).
    pub checkpoint_every: usize,
    /// Whether a process-fault schedule (kill or stall) is armed.
    pub proc_faults: bool,
}

impl RecoveryCfg {
    /// Whether [`drive`] runs the resilient path at all.
    pub fn resilient(&self) -> bool {
        self.checkpoint_every > 0 || self.proc_faults
    }

    fn interval(&self) -> usize {
        if self.checkpoint_every == 0 {
            1
        } else {
            self.checkpoint_every
        }
    }
}

/// Checkpoint/recovery accounting for one run, merged across ranks by
/// the experiment drivers (bytes and counts sum; latencies and replay
/// depth take the cluster maximum).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureRecovery {
    /// Snapshots taken (cluster-wide after merge).
    pub checkpoints: u64,
    /// Bytes captured into snapshots.
    pub checkpoint_bytes: u64,
    /// Bytes streamed to the respawned rank during recovery (buddy
    /// restore + anti-buddy re-seed).
    pub restore_bytes: u64,
    /// Completed steps rolled back and re-executed.
    pub replayed_steps: u64,
    /// Recovery epochs executed (0 on a clean run).
    pub recovery_epochs: u64,
    /// Wall-clock seconds from the kill to the first survivor
    /// observation (maximum across ranks).
    pub detect_latency_s: f64,
    /// The rank that failed, -1 if none did.
    pub failed_rank: i64,
    /// The step the victim was executing, -1 if none failed.
    pub failed_step: i64,
}

impl Default for FailureRecovery {
    fn default() -> FailureRecovery {
        FailureRecovery {
            checkpoints: 0,
            checkpoint_bytes: 0,
            restore_bytes: 0,
            replayed_steps: 0,
            recovery_epochs: 0,
            detect_latency_s: 0.0,
            failed_rank: -1,
            failed_step: -1,
        }
    }
}

impl FailureRecovery {
    /// Fold another rank's accounting into this one.
    pub fn merge(&mut self, o: &FailureRecovery) {
        self.checkpoints += o.checkpoints;
        self.checkpoint_bytes += o.checkpoint_bytes;
        self.restore_bytes += o.restore_bytes;
        self.replayed_steps = self.replayed_steps.max(o.replayed_steps);
        self.recovery_epochs = self.recovery_epochs.max(o.recovery_epochs);
        self.detect_latency_s = self.detect_latency_s.max(o.detect_latency_s);
        if self.failed_rank < 0 {
            self.failed_rank = o.failed_rank;
            self.failed_step = o.failed_step;
        }
    }

    /// Whether this run exercised the resilient path at all.
    pub fn armed(&self) -> bool {
        self.checkpoints > 0 || self.recovery_epochs > 0
    }
}

/// Double-buffered checkpoint slots: this rank's own snapshots and the
/// buddy frames it guards for `(rank - 1) % n`. Every slot holds a whole
/// sealed frame, `payload ++ [step, checksum]`, with the checksum bound
/// to `(CKPT, step)`: a frame is sealed once and then travels verbatim —
/// to the buddy, and in a recovery epoch on to the respawned rank.
/// `step` entries are -1 until the slot holds a complete frame.
struct CkptStore {
    own: [Vec<f64>; 2],
    own_step: [i64; 2],
    foreign: [Vec<f64>; 2],
    foreign_step: [i64; 2],
    /// Which buffer the next checkpoint writes.
    cursor: usize,
}

impl CkptStore {
    fn new() -> CkptStore {
        CkptStore {
            own: [Vec::new(), Vec::new()],
            own_step: [-1; 2],
            foreign: [Vec::new(), Vec::new()],
            foreign_step: [-1; 2],
            cursor: 0,
        }
    }

    fn latest_step(&self) -> i64 {
        self.own_step[0].max(self.own_step[1])
    }

    /// The sealed frame of this rank's own (`own`) or guarded snapshot
    /// of `step`.
    fn frame(&self, own: bool, step: i64) -> Option<&[f64]> {
        let (steps, slots) =
            if own { (&self.own_step, &self.own) } else { (&self.foreign_step, &self.foreign) };
        steps.iter().position(|&s| s == step).map(|i| slots[i].as_slice())
    }

    /// Verify an arrived buddy frame and keep its buffer as guard slot
    /// `slot`. The swap cannot tear: the slot holds the old frame until
    /// the new one has passed its checksum.
    fn guard(&mut self, ctx: &mut RankCtx<'_>, slot: usize, m: RecvdMsg<'_>) {
        let (step, _) = open_frame(m.data());
        ctx.adopt(m, &mut self.foreign[slot]);
        self.foreign_step[slot] = step;
    }
}

/// Words in a frame's `[step, checksum]` trailer.
const TRAILER: usize = 2;

/// Seal a snapshot into a frame by appending its trailer.
fn seal_frame(buf: &mut Vec<f64>, step: i64) {
    let sum = frame_checksum(buf, CKPT, step as u64);
    buf.reserve_exact(TRAILER);
    buf.push(f64::from_bits(step as u64));
    buf.push(f64::from_bits(sum));
}

/// Split a sealed frame into `(step, payload)`, verifying the trailer
/// checksum. Control frames are fault-exempt, so a mismatch is an
/// invariant violation, not an injected fault.
fn open_frame(frame: &[f64]) -> (i64, &[f64]) {
    assert!(frame.len() >= TRAILER, "checkpoint frame too short");
    let (payload, trailer) = frame.split_at(frame.len() - TRAILER);
    let step = trailer[0].to_bits() as i64;
    let sum = trailer[1].to_bits();
    assert_eq!(
        sum,
        frame_checksum(payload, CKPT, step as u64),
        "buddy checkpoint frame failed its checksum"
    );
    (step, payload)
}

/// Take one checkpoint labeled `step` (the state a replay of `step`
/// starts from) and exchange it with the buddy ring.
fn take_checkpoint<'a, F>(
    ctx: &mut RankCtx<'a>,
    body: &mut F,
    st: &mut CkptStore,
    rec: &mut FailureRecovery,
    step: usize,
) -> Result<(), NetsimError>
where
    F: FnMut(&mut RankCtx<'a>, DriveOp<'_>) -> Result<(), NetsimError>,
{
    let n = ctx.size();
    let me = ctx.rank();
    let slot = st.cursor;
    st.cursor ^= 1;
    st.own_step[slot] = -1;
    // Room for payload and trailer up front (the last frame's length is
    // the hint), so sealing never regrows a grid-sized buffer.
    let hint = st.own[0].len().max(st.own[1].len());
    let buf = &mut st.own[slot];
    buf.clear();
    buf.reserve_exact(hint);
    body(ctx, DriveOp::Snapshot(buf))?;
    rec.checkpoints += 1;
    rec.checkpoint_bytes += (buf.len() * 8) as u64;
    seal_frame(buf, step as i64);
    st.own_step[slot] = step as i64;
    ctx.note_count("checkpoints", 1);
    if n > 1 {
        let buddy = (me + 1) % n;
        let prev = (me + n - 1) % n;
        ctx.isend(buddy, CKPT, &st.own[slot])?;
        let h = ctx.irecv(prev, CKPT)?;
        match ctx.recv_blocking(h) {
            Ok(m) => st.guard(ctx, slot, m),
            Err(e @ NetsimError::RankFailed { .. }) => {
                // A peer died while we were blocked on the buddy frame.
                // Kills fire only inside an armed step body, never inside
                // this exchange, so `prev` finished its isend before dying
                // and (delivery being eager) the frame is already queued —
                // complete the recv non-blocking, then let the caller
                // enter recovery with the slot intact.
                if let Ok(Some(m)) = ctx.try_wait(h) {
                    st.guard(ctx, slot, m);
                }
                ctx.flush_epoch();
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        ctx.flush_epoch();
    }
    Ok(())
}

/// NBX-style agreement (centralized variant): rank 0 gathers every
/// rank's latest complete checkpoint step and broadcasts the minimum
/// over the ranks that hold one — the cluster's common recovery step.
/// Synchronized checkpoints make the survivor values identical; the
/// respawned victim contributes -1 and learns the step here.
fn agree(ctx: &mut RankCtx<'_>, latest: i64) -> Result<i64, NetsimError> {
    let n = ctx.size();
    if ctx.rank() == 0 {
        let mut s_rec = if latest >= 0 { latest } else { i64::MAX };
        for src in 1..n {
            let h = ctx.irecv(src, AGREE)?;
            let v = ctx.recv_blocking(h)?.data()[0].to_bits() as i64;
            if v >= 0 {
                s_rec = s_rec.min(v);
            }
        }
        assert!(s_rec != i64::MAX, "recovery with no surviving checkpoint");
        for dst in 1..n {
            ctx.isend(dst, PLAN, &[f64::from_bits(s_rec as u64)])?;
        }
        ctx.flush_epoch();
        Ok(s_rec)
    } else {
        ctx.isend(0, AGREE, &[f64::from_bits(latest as u64)])?;
        let h = ctx.irecv(0, PLAN)?;
        let v = ctx.recv_blocking(h)?.data()[0].to_bits() as i64;
        ctx.flush_epoch();
        Ok(v)
    }
}

/// Relay one stored frame, as sealed, to the respawned rank.
fn send_slot(
    ctx: &mut RankCtx<'_>,
    st: &CkptStore,
    data_step: i64,
    own: bool,
    dest: usize,
    tag: u64,
) -> Result<(), NetsimError> {
    let frame = st.frame(own, data_step).unwrap_or_else(|| {
        panic!("no {} checkpoint for recovery step {data_step}", if own { "own" } else { "buddy" })
    });
    ctx.isend(dest, tag, frame)
}

/// One recovery epoch: this module's protocol inside `netsim`'s bracket
/// ([`RankCtx::recover`]), then the accounting. Returns the step
/// execution resumes at.
fn recover_epoch<'a, F>(
    ctx: &mut RankCtx<'a>,
    body: &mut F,
    st: &mut CkptStore,
    rec: &mut FailureRecovery,
) -> Result<usize, NetsimError>
where
    F: FnMut(&mut RankCtx<'a>, DriveOp<'_>) -> Result<(), NetsimError>,
{
    let (s_rec, failure) = ctx.recover(|ctx, failure| restore(ctx, body, st, rec, failure))?;
    rec.recovery_epochs += 1;
    rec.replayed_steps = rec.replayed_steps.max((failure.step as i64 - s_rec).max(0) as u64);
    rec.failed_rank = failure.rank as i64;
    rec.failed_step = failure.step as i64;
    rec.detect_latency_s = rec.detect_latency_s.max(failure.detect_latency);
    ctx.note_count("recovery_epochs", 1);
    Ok(s_rec as usize)
}

/// The recovery protocol: agree on the common checkpoint step, stream
/// the victim's snapshot back and re-seed its guard slot, roll every
/// rank back and rebuild its persistent artifacts. Returns the agreed
/// step.
fn restore<'a, F>(
    ctx: &mut RankCtx<'a>,
    body: &mut F,
    st: &mut CkptStore,
    rec: &mut FailureRecovery,
    failure: &Failure,
) -> Result<i64, NetsimError>
where
    F: FnMut(&mut RankCtx<'a>, DriveOp<'_>) -> Result<(), NetsimError>,
{
    let n = ctx.size();
    let me = ctx.rank();
    let failed = failure.rank;
    let s_rec = agree(ctx, st.latest_step())?;
    let buddy = (failed + 1) % n;
    let anti = (failed + n - 1) % n;
    if me == failed {
        // Adopt the lost grid from the buddy's guarded frame; the frame
        // itself becomes this incarnation's snapshot of that step.
        let h = ctx.irecv(buddy, RESTORE)?;
        let m = ctx.recv_blocking(h)?;
        let (fstep, payload) = open_frame(m.data());
        assert_eq!(fstep, s_rec, "buddy restored the wrong checkpoint");
        body(ctx, DriveOp::Restore(payload))?;
        rec.restore_bytes += (payload.len() * 8) as u64;
        ctx.adopt(m, &mut st.own[0]);
        st.own_step[0] = s_rec;
        st.cursor = 1;
        // Re-seed the redundancy this incarnation lost: it guards the
        // anti-buddy's snapshots.
        let h = ctx.irecv(anti, REBUDDY)?;
        let m = ctx.recv_blocking(h)?;
        st.guard(ctx, 0, m);
        rec.restore_bytes += ((st.foreign[0].len() - TRAILER) * 8) as u64;
    } else {
        if me == buddy {
            send_slot(ctx, st, s_rec, false, failed, RESTORE)?;
        }
        if me == anti {
            send_slot(ctx, st, s_rec, true, failed, REBUDDY)?;
        }
        // Survivors roll back to their local snapshot of the same step.
        let frame = st.frame(true, s_rec).expect("survivor missing the agreed checkpoint");
        body(ctx, DriveOp::Restore(&frame[..frame.len() - TRAILER]))?;
    }
    ctx.flush_epoch();
    body(ctx, DriveOp::Rebuild)?;
    Ok(s_rec)
}

/// Drive `cfg.steps` timesteps of `body`, transparently surviving a
/// single crash-stop rank failure when the configuration is resilient.
///
/// Non-resilient configurations run the exact legacy schedule (step +
/// barrier); nothing else is sent, so timers and results are unchanged.
pub fn drive<'a, F>(
    ctx: &mut RankCtx<'a>,
    cfg: &RecoveryCfg,
    body: &mut F,
) -> Result<FailureRecovery, NetsimError>
where
    F: FnMut(&mut RankCtx<'a>, DriveOp<'_>) -> Result<(), NetsimError>,
{
    if !cfg.resilient() {
        for step in 0..cfg.steps {
            body(ctx, DriveOp::Step(step))?;
            ctx.barrier();
        }
        return Ok(FailureRecovery::default());
    }
    let k = cfg.interval();
    let mut st = CkptStore::new();
    let mut rec = FailureRecovery::default();
    let mut step = 0usize;
    if ctx.incarnation() > 0 {
        // Respawned victim: join the recovery epoch directly.
        step = ctx.scoped("recovery", |ctx| recover_epoch(ctx, body, &mut st, &mut rec))?;
    } else {
        // The base checkpoint: a kill inside step 0 replays from scratch.
        // A fast victim can die in its step body while this rank is still
        // blocked in the checkpoint exchange, so a RankFailed here enters
        // recovery like any in-step failure (the slot is already intact —
        // see the try_wait fallback in `take_checkpoint`).
        match ctx.scoped("checkpoint", |ctx| take_checkpoint(ctx, body, &mut st, &mut rec, 0)) {
            Ok(()) => {}
            Err(NetsimError::RankFailed { .. }) => {
                step = ctx.scoped("recovery", |ctx| recover_epoch(ctx, body, &mut st, &mut rec))?;
            }
            Err(e) => return Err(e),
        }
    }
    while step < cfg.steps {
        let r = ctx.fault_step(step as u64, |ctx| body(ctx, DriveOp::Step(step)));
        // The fence catches survivors whose own step completed cleanly
        // while a peer died: nobody passes it until every rank joined.
        let r = r.and_then(|()| ctx.fence(STEP_JOIN, STEP_REL));
        if r.is_ok() && ctx.size() > 1 {
            ctx.flush_epoch();
        }
        match r {
            Ok(()) => {
                step += 1;
                if step < cfg.steps && step.is_multiple_of(k) {
                    let r = ctx.scoped("checkpoint", |ctx| {
                        take_checkpoint(ctx, body, &mut st, &mut rec, step)
                    });
                    match r {
                        Ok(()) => {}
                        Err(NetsimError::RankFailed { .. }) => {
                            step = ctx
                                .scoped("recovery", |ctx| recover_epoch(ctx, body, &mut st, &mut rec))?;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            Err(NetsimError::RankFailed { .. }) => {
                step = ctx.scoped("recovery", |ctx| recover_epoch(ctx, body, &mut st, &mut rec))?;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RankEngine;
    use netsim::{
        run_cluster_on, Backend, CartTopo, FaultConfig, NetworkModel, ProcFault,
    };

    /// A toy resilient body: each step, every rank sends its scalar to
    /// the right neighbor and folds the received value in. Fully
    /// deterministic, so a killed-and-recovered run must converge to the
    /// clean result bit-for-bit.
    fn ring_sum(backend: Backend, ranks: usize, steps: usize, faults: FaultConfig, k: usize) -> Vec<f64> {
        let topo = CartTopo::new(&[ranks], true);
        let proc_faults = faults.proc_active();
        let expect_recovery = faults.kill.is_some();
        run_cluster_on(backend, &topo, NetworkModel::instant(), faults, move |ctx| {
            let rank = ctx.rank();
            let n = ctx.size();
            let right = (rank + 1) % n;
            let left = (rank + n - 1) % n;
            let mut state = vec![(rank + 1) as f64];
            let mut drv = |ctx: &mut RankCtx<'_>, op: DriveOp<'_>| -> Result<(), NetsimError> {
                match op {
                    DriveOp::Step(step) => {
                        ctx.isend(right, 0x51E9, &state)?;
                        let h = ctx.irecv(left, 0x51E9)?;
                        let v = ctx.recv_blocking(h)?.data()[0];
                        ctx.flush_epoch();
                        state[0] = state[0] * 0.5 + v * 0.5 + step as f64;
                    }
                    DriveOp::Snapshot(buf) => buf.extend_from_slice(&state),
                    DriveOp::Restore(data) => state.copy_from_slice(data),
                    DriveOp::Rebuild => {}
                }
                Ok(())
            };
            let cfg = RecoveryCfg { steps, checkpoint_every: k, proc_faults };
            let rec = drive(ctx, &cfg, &mut drv).expect("drive");
            if expect_recovery {
                assert!(rec.recovery_epochs >= 1, "kill schedule must trigger recovery");
                // Restore traffic lands on the respawned victim only.
                if ctx.rank() as i64 == rec.failed_rank {
                    assert!(rec.restore_bytes > 0, "victim must be restored from its buddy");
                }
            }
            state[0]
        })
    }

    #[test]
    fn clean_run_with_checkpoints_matches_plain() {
        for backend in [Backend::Thread, Backend::Event] {
            let plain = ring_sum(backend, 4, 6, FaultConfig::off(), 0);
            let ck = ring_sum(backend, 4, 6, FaultConfig::off(), 2);
            assert_eq!(plain, ck, "checkpointing changed results on {backend:?}");
        }
    }

    #[test]
    fn killed_run_converges_bit_identically() {
        for backend in [Backend::Thread, Backend::Event] {
            let clean = ring_sum(backend, 4, 6, FaultConfig::off(), 0);
            for victim in [0, 2] {
                for at in [0, 3, 5] {
                    let faults = FaultConfig {
                        kill: Some(ProcFault { rank: victim, step: at, op: 1, stall_secs: 0.0 }),
                        ..FaultConfig::off()
                    };
                    let killed = ring_sum(backend, 4, 6, faults, 2);
                    assert_eq!(
                        clean, killed,
                        "kill {victim}@{at} diverged on {backend:?}"
                    );
                }
            }
        }
    }

    /// A grid-sized state whose every word must survive snapshot, buddy
    /// transfer and restore: word `i` of rank `r` evolves from its own
    /// seed, driven by the left neighbor's word 0.
    const GRID: usize = 4096;

    /// With `aligned`, a barrier opens every snapshot and the step after
    /// it, and `growth` records what the rank's transport allocated in
    /// between — the checkpoint alone, whatever the interleaving around it.
    fn grid_body<'s>(
        ctx: &RankCtx<'_>,
        state: &'s mut [f64],
        growth: &'s mut Vec<u64>,
        aligned: bool,
    ) -> impl FnMut(&mut RankCtx<'_>, DriveOp<'_>) -> Result<(), NetsimError> + 's {
        let n = ctx.size();
        let (right, left) = ((ctx.rank() + 1) % n, (ctx.rank() + n - 1) % n);
        let mut at_snapshot = None;
        move |ctx, op| {
            match op {
                DriveOp::Step(step) => {
                    if let Some(before) = at_snapshot.take() {
                        ctx.barrier();
                        growth.push(ctx.transport_allocs() - before);
                    }
                    ctx.isend(right, 0x51E9, &state[..1])?;
                    let h = ctx.irecv(left, 0x51E9)?;
                    let v = ctx.recv_blocking(h)?.data()[0];
                    ctx.flush_epoch();
                    for (i, s) in state.iter_mut().enumerate() {
                        *s = *s * 0.5 + v * 0.5 + (step + i) as f64;
                    }
                }
                DriveOp::Snapshot(buf) => {
                    if aligned {
                        ctx.barrier();
                        at_snapshot = Some(ctx.transport_allocs());
                    }
                    buf.extend_from_slice(state);
                }
                DriveOp::Restore(data) => state.copy_from_slice(data),
                DriveOp::Rebuild => {}
            }
            Ok(())
        }
    }

    /// Per rank: final grid, recovery accounting, the transport's
    /// allocations across each (aligned) checkpoint, and in total.
    type GridOut = (Vec<f64>, FailureRecovery, Vec<u64>, u64);

    fn grid_run(backend: Backend, faults: FaultConfig, aligned: bool) -> Vec<GridOut> {
        let topo = CartTopo::new(&[4], true);
        let proc_faults = faults.proc_active();
        run_cluster_on(backend, &topo, NetworkModel::instant(), faults, move |ctx| {
            let mut state: Vec<f64> = (0..GRID).map(|i| (ctx.rank() * GRID + i) as f64).collect();
            let mut growth = Vec::new();
            let cfg = RecoveryCfg { steps: 12, checkpoint_every: 2, proc_faults };
            let rec = {
                let mut body = grid_body(ctx, &mut state, &mut growth, aligned);
                drive(ctx, &cfg, &mut body).expect("drive")
            };
            (state, rec, growth, ctx.transport_allocs())
        })
    }

    /// Frames circulate: a rank's two guard slots and its buddy's pool
    /// hold three frame buffers between them, so from the fourth
    /// checkpoint on a checkpoint allocates nothing — measured across
    /// checkpoints fenced off by barriers, because how many token-sized
    /// buffers the steps and fences around them keep in flight depends on
    /// which rank runs ahead. Those are bounded instead: 7 allocations per
    /// rank at most, of the 18 a transport that recycled nothing would
    /// make.
    #[test]
    fn clean_checkpoints_stop_allocating_after_the_third() {
        for backend in [Backend::Thread, Backend::Event] {
            for (_, rec, growth, allocs) in grid_run(backend, FaultConfig::off(), true) {
                assert_eq!(rec.checkpoints, 6);
                // Payload only: the frame trailer is not checkpoint data.
                assert_eq!(rec.checkpoint_bytes, 6 * GRID as u64 * 8);
                assert_eq!(growth.len(), 6);
                assert_eq!(growth[3..], [0; 3], "a late checkpoint allocated on {backend:?}: {growth:?}");
                assert!(allocs <= 7, "transport allocated {allocs} times on {backend:?}");
            }
        }
    }

    /// A kill on the first operation of a checkpoint step: the victim
    /// leaves its buddy exchange and dies at once, while slower
    /// survivors are still blocked on their own buddy frame and leave
    /// `take_checkpoint` through its `RankFailed` arm.
    #[test]
    fn kill_during_the_buddy_exchange_converges() {
        for backend in [Backend::Thread, Backend::Event] {
            let clean: Vec<Vec<f64>> =
                grid_run(backend, FaultConfig::off(), false).into_iter().map(|r| r.0).collect();
            for victim in 0..4 {
                for at in [0, 2, 6] {
                    let faults = FaultConfig {
                        kill: Some(ProcFault { rank: victim, step: at, op: 0, stall_secs: 0.0 }),
                        ..FaultConfig::off()
                    };
                    let killed = grid_run(backend, faults, false);
                    for (rank, (state, rec, ..)) in killed.iter().enumerate() {
                        assert!(
                            *state == clean[rank],
                            "kill {victim}@{at}: rank {rank} diverged on {backend:?}"
                        );
                        assert_eq!(rec.recovery_epochs, 1);
                        if rank == victim {
                            // Its own grid from the buddy, its guard
                            // slot from the anti-buddy: payloads only.
                            assert_eq!(rec.restore_bytes, 2 * GRID as u64 * 8);
                        }
                    }
                }
            }
        }
    }

    /// One engine through a checkpoint and a rollback: the sealed frame
    /// is the owned prefix plus the trailer, and a step replayed from it
    /// lands on the bits of the first execution — although `restore`
    /// (poisoning in a test build) left the ghost rim and the next grid
    /// as NaN.
    fn frame_roundtrip<E: RankEngine>(eng: &mut E, ctx: &mut RankCtx<'_>, owned_elems: usize, what: &str) {
        let mut step = |eng: &mut E| {
            eng.exchange(ctx).expect("exchange");
            eng.compute(ctx, None);
            eng.advance();
            eng.checksum().to_bits()
        };
        step(eng);
        let at_snapshot = eng.checksum().to_bits();
        let mut frame = Vec::new();
        eng.snapshot(&mut frame);
        seal_frame(&mut frame, 1);
        assert_eq!(frame.len(), owned_elems + TRAILER, "{what}: frame words");
        let after = step(eng);
        let (at, payload) = open_frame(&frame);
        assert_eq!(at, 1);
        eng.restore(payload);
        assert_eq!(eng.checksum().to_bits(), at_snapshot, "{what}: restored grid");
        assert_eq!(step(eng), after, "{what}: replayed step");
        assert!(f64::from_bits(after).is_finite(), "{what}: poison reached the interior");
    }

    #[test]
    fn a_frame_is_the_owned_prefix_plus_trailer_for_every_engine() {
        use crate::engine::{Arrays, HeapBricks, ViewPair};
        use crate::experiment::{CpuMethod, ExperimentConfig};
        use crate::{ExchangeView, Exchanger, ShiftExchanger};
        let topo = CartTopo::new(&[1, 1, 1], true);
        for method in [
            CpuMethod::Layout,
            CpuMethod::Basic,
            CpuMethod::MemMap { page_size: memview::PAGE_4K },
            // Four bricks to a page: the prefix carries chunk filler.
            CpuMethod::MemMap { page_size: 4 * memview::PAGE_4K },
            CpuMethod::Shift { page_size: memview::PAGE_4K },
            CpuMethod::Yask,
            CpuMethod::MpiTypes,
        ] {
            let cfg = ExperimentConfig::k1(method.clone(), 16);
            let decomp = cfg.decomp();
            let (owned, what) = (decomp.owned_elems(), format!("{method:?}"));
            run_cluster_on(Backend::Thread, &topo, NetworkModel::instant(), FaultConfig::off(), |ctx| match &method {
                CpuMethod::MemMap { .. } => {
                    frame_roundtrip(&mut ViewPair::<ExchangeView>::new(&cfg, &decomp), ctx, owned, &what)
                }
                CpuMethod::Shift { .. } => {
                    frame_roundtrip(&mut ViewPair::<ShiftExchanger>::new(&cfg, &decomp), ctx, owned, &what)
                }
                CpuMethod::Yask | CpuMethod::MpiTypes => {
                    frame_roundtrip(&mut Arrays::new(&cfg, &decomp), ctx, owned, &what)
                }
                _ => {
                    let exchanger =
                        if method == CpuMethod::Basic { Exchanger::basic(&decomp) } else { Exchanger::layout(&decomp) };
                    frame_roundtrip(&mut HeapBricks::new(&cfg, &decomp, &exchanger, ctx), ctx, owned, &what)
                }
            });
        }
    }

    #[test]
    fn stalled_run_converges_and_bills_wait() {
        let faults = FaultConfig {
            stall: Some(ProcFault { rank: 1, step: 2, op: 0, stall_secs: 0.25 }),
            ..FaultConfig::off()
        };
        let clean = ring_sum(Backend::Thread, 3, 5, FaultConfig::off(), 0);
        let stalled = ring_sum(Backend::Thread, 3, 5, faults, 0);
        assert_eq!(clean, stalled, "a stall must not change results");
    }

    #[test]
    fn merge_folds_counts_and_maxima() {
        let mut a = FailureRecovery {
            checkpoints: 2,
            checkpoint_bytes: 100,
            replayed_steps: 1,
            detect_latency_s: 0.5,
            ..FailureRecovery::default()
        };
        let b = FailureRecovery {
            checkpoints: 3,
            checkpoint_bytes: 50,
            restore_bytes: 10,
            replayed_steps: 4,
            recovery_epochs: 1,
            detect_latency_s: 0.1,
            failed_rank: 2,
            failed_step: 7,
        };
        a.merge(&b);
        assert_eq!(a.checkpoints, 5);
        assert_eq!(a.checkpoint_bytes, 150);
        assert_eq!(a.restore_bytes, 10);
        assert_eq!(a.replayed_steps, 4);
        assert_eq!(a.recovery_epochs, 1);
        assert_eq!(a.detect_latency_s, 0.5);
        assert_eq!((a.failed_rank, a.failed_step), (2, 7));
    }
}
