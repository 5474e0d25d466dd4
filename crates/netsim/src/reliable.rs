//! Self-healing exchange protocol: sequence numbers, checksums,
//! missing-frame requests and graceful degradation — the recovery layer
//! every exchange engine drops into when the fabric is armed with a
//! lossy [`FaultConfig`](crate::FaultConfig).
//!
//! # Frame format
//!
//! Every data message becomes a *frame*: `payload ++ [seq, checksum]`,
//! with the two trailer words carrying raw `u64` bits through
//! [`f64::from_bits`] (bitwise copies through the transport preserve
//! them exactly). The checksum is [`frame_checksum`] — a
//! four-lane multiply-rotate hash over the payload words, bound to the
//! payload length, the message tag and the sequence number, so a
//! corrupted payload, a stale retransmission, and a frame that slid to
//! the wrong channel are all detected by the same check. Single-word
//! damage (all a `Corrupt` fault does) is caught with certainty.
//!
//! # Round structure
//!
//! One [`ReliableSession::run`] performs one exchange:
//!
//! 1. send every frame, then join the **fence**: an all-reduce every
//!    rank joins after posting its frames. Delivery is eager — a frame
//!    is in its receiver's mailbox before its sender's `isend` returns —
//!    so once the fence completes, every frame posted before it is
//!    either queued or was dropped (the consensus argument NBX makes
//!    its final drain exhaustive with; see [`crate::nbx`]);
//! 2. **data phase** — drain each pending channel's queue without
//!    blocking, validating each frame and discarding duplicates and
//!    damage. Nothing is waited for, so no clock decides what is lost;
//! 3. **control phase** — tell each source which tags are still
//!    missing (control tags carry [`CTRL_TAG_BIT`], so the
//!    control plane is never fault-injected — the transport-level
//!    ack/credit channel real NICs keep out of band);
//! 4. resend exactly the requested frames;
//! 5. **termination** — an all-reduce of the global missing count (a
//!    fault-exempt collective), which is also the fence for the resends
//!    just posted. Everyone exits together when it hits zero, which
//!    keeps every rank in lockstep and makes the protocol deadlock-free
//!    by construction; otherwise go to 2.
//!
//! The fence costs one control-plane all-reduce per exchange. It stands
//! in for the loss timeout a real fabric would wait out.
//!
//! # Graceful degradation
//!
//! From the twelfth resend wave (`BUDGET`) on, resends bypass fault
//! injection entirely — the model of falling back from the lossy fast
//! path to a reliable slow path. The exchange then converges even under 100% drop; the
//! [`FaultStats::degraded_exchanges`] counter reports that the budget
//! was spent. A hard cap a few waves later turns a non-converging
//! exchange (a protocol bug, by construction) into
//! [`NetsimError::RetriesExhausted`] instead of an infinite loop.
//!
//! # Invariant
//!
//! Delivered payloads are bitwise copies of staged payloads, so under
//! *any* injected fault schedule a retrying exchange converges to the
//! exact grid state of the fault-free exchange — while the wire timers
//! honestly account every retransmission and control message. Which
//! frames are resent is a function of the fault schedule alone, so a
//! lossy run replays bit for bit on either backend.
//!
//! Stale duplicates left in the mailbox after convergence are evicted
//! before returning, so a duplicate storm cannot grow the mailbox across
//! timesteps.
//!
//! A crashed peer needs no check of the session's own: every poll and
//! wait the rounds make — the data phase's `try_wait`, the control phase's
//! receives, the all-reduces — reports a revoked communicator as
//! [`NetsimError::RankFailed`], and the caller's recovery epoch takes
//! over.
//!
//! # Counters
//!
//! Every response — a retry, a discarded duplicate, a rejected frame, a
//! degraded exchange — is counted on the rank ([`RankCtx::fault_stats`]),
//! beside the faults it answers, not in the session: a session is
//! rebuilt with its plan, the rank's counters are not.

use crate::{frame_checksum, FaultStats, NetsimError, RankCtx, CTRL_TAG_BIT};

/// Control-plane tag for missing-frame requests (fault-exempt).
pub const CTRL_EXCHANGE_TAG: u64 = CTRL_TAG_BIT | 0x00FE_ED01;

/// Resend waves on the lossy path: wave `BUDGET` and every later one
/// bypass fault injection (guaranteed delivery).
const BUDGET: u32 = 12;

/// Extra waves past the budget before a non-converging exchange is
/// declared broken. The budget wave already resends with fault
/// injection bypassed, so these only trigger on protocol bugs.
const HARD_CAP_SLACK: u32 = 8;

/// One mailbox send channel: destination rank and tag.
#[derive(Clone, Copy, Debug)]
pub struct RelSend {
    /// Destination rank.
    pub dest: usize,
    /// Message tag (must be unique per channel within the exchange).
    pub tag: u64,
}

/// One mailbox receive channel: source rank, tag, and payload length.
#[derive(Clone, Copy, Debug)]
pub struct RelRecv {
    /// Source rank.
    pub src: usize,
    /// Message tag.
    pub tag: u64,
    /// Payload elements (frame length is `elems + 2`).
    pub elems: usize,
}

/// A persistent reliable-exchange session for a fixed channel set.
///
/// Built once per engine (the pattern is Static, like the schedules it
/// protects); frames and flags are reused across timesteps so the
/// steady-state recovery path allocates nothing beyond its first use.
/// `(src, tag)` pairs must be unique across the receive channels —
/// every exchange schedule in this crate satisfies that by
/// construction (tags encode direction and run).
pub struct ReliableSession {
    sends: Vec<RelSend>,
    recvs: Vec<RelRecv>,
    /// Monotone exchange sequence number (shared by all frames of one
    /// `run`; stale frames from earlier exchanges fail the seq check).
    seq: u64,
    frames: Vec<Vec<f64>>,
    resend: Vec<bool>,
    done: Vec<bool>,
    /// Distinct peers we receive from / send to (control fan-out).
    ctl_sources: Vec<usize>,
    ctl_dests: Vec<usize>,
    ctl_buf: Vec<f64>,
}

impl ReliableSession {
    /// Build a session over fixed channel lists.
    pub fn new(sends: Vec<RelSend>, recvs: Vec<RelRecv>) -> ReliableSession {
        let mut ctl_sources: Vec<usize> = recvs.iter().map(|r| r.src).collect();
        ctl_sources.sort_unstable();
        ctl_sources.dedup();
        let mut ctl_dests: Vec<usize> = sends.iter().map(|s| s.dest).collect();
        ctl_dests.sort_unstable();
        ctl_dests.dedup();
        let frames = sends.iter().map(|_| Vec::new()).collect();
        let resend = vec![false; sends.len()];
        let done = vec![false; recvs.len()];
        ReliableSession {
            sends,
            recvs,
            seq: 0,
            frames,
            resend,
            done,
            ctl_sources,
            ctl_dests,
            ctl_buf: Vec::new(),
        }
    }

    /// Start one exchange: bumps the sequence number and clears the
    /// per-exchange completion flags. Stage every send next, then call
    /// [`ReliableSession::run`].
    pub fn begin(&mut self) {
        self.seq += 1;
        self.done.iter_mut().for_each(|d| *d = false);
        self.resend.iter_mut().for_each(|b| *b = false);
    }

    /// Stage send `j`'s payload into its reusable frame buffer,
    /// appending the `[seq, checksum]` trailer.
    pub fn stage(&mut self, j: usize, payload: &[f64]) {
        let tag = self.sends[j].tag;
        let buf = &mut self.frames[j];
        buf.clear();
        buf.extend_from_slice(payload);
        buf.push(f64::from_bits(self.seq));
        buf.push(f64::from_bits(frame_checksum(payload, tag, self.seq)));
    }

    /// Run the retry rounds until every channel on every rank has
    /// converged. `deliver(i, payload)` lands receive channel `i`'s
    /// validated payload. Collective by construction: every rank that
    /// shares the cluster must call `run` the same number of times.
    pub fn run(
        &mut self,
        ctx: &mut RankCtx<'_>,
        mut deliver: impl FnMut(usize, &[f64]),
    ) -> Result<(), NetsimError> {
        let result = self.run_rounds(ctx, &mut deliver);
        // Evict stale duplicates so retry storms cannot grow the
        // mailbox across timesteps.
        let evicted: usize = self.recvs.iter().map(|r| ctx.drain_mailbox(r.src, r.tag)).sum();
        ctx.note_recovery(FaultStats { duplicates_discarded: evicted as u64, ..FaultStats::default() });
        result
    }

    fn run_rounds(
        &mut self,
        ctx: &mut RankCtx<'_>,
        deliver: &mut impl FnMut(usize, &[f64]),
    ) -> Result<(), NetsimError> {
        let hard_cap = BUDGET + HARD_CAP_SLACK;
        for j in 0..self.sends.len() {
            self.send_frame(ctx, j)?;
        }
        ctx.flush_epoch();
        // The fence: every frame posted above is queued or was dropped
        // once every rank has joined.
        ctx.allreduce_max(0.0)?;
        let mut wave: u32 = 0;
        loop {
            // --- Data phase: drain what the last fence guarantees is
            // there, per key, so a clean duplicate can satisfy a channel
            // whose first copy was damaged. ---
            for i in 0..self.recvs.len() {
                while !self.done[i] {
                    let h = ctx.irecv(self.recvs[i].src, self.recvs[i].tag)?;
                    let Some(msg) = ctx.try_wait(h)? else { break };
                    self.accept(ctx, i, msg.data(), deliver);
                }
            }
            ctx.flush_epoch();

            // --- Control phase: report what is still missing to every
            // source; learn what every destination still wants. ---
            for si in 0..self.ctl_sources.len() {
                let src = self.ctl_sources[si];
                self.ctl_buf.clear();
                for (i, r) in self.recvs.iter().enumerate() {
                    if r.src == src && !self.done[i] {
                        self.ctl_buf.push(f64::from_bits(r.tag));
                    }
                }
                ctx.isend(src, CTRL_EXCHANGE_TAG, &self.ctl_buf)?;
            }
            self.resend.iter_mut().for_each(|b| *b = false);
            for di in 0..self.ctl_dests.len() {
                let dest = self.ctl_dests[di];
                let h = ctx.irecv(dest, CTRL_EXCHANGE_TAG)?;
                let msg = ctx.recv_blocking(h)?;
                for w in msg.data() {
                    let tag = w.to_bits();
                    for (j, s) in self.sends.iter().enumerate() {
                        if s.dest == dest && s.tag == tag {
                            self.resend[j] = true;
                        }
                    }
                }
            }
            ctx.flush_epoch();

            // --- Resend phase: exactly the requested frames; from the
            // budget wave on, on the fault-bypassed path, so convergence
            // is guaranteed. ---
            wave += 1;
            if wave <= hard_cap {
                let prev = ctx.set_fault_bypass(wave >= BUDGET);
                for j in 0..self.sends.len() {
                    if self.resend[j] {
                        ctx.note_recovery(FaultStats { retries: 1, ..FaultStats::default() });
                        self.send_frame(ctx, j)?;
                    }
                }
                ctx.set_fault_bypass(prev);
            }

            // --- Global termination, and the fence for the resends:
            // everyone advances (or exits) the loop together, so the
            // per-wave collectives and control messages always pair up.
            // A request implies a missing frame somewhere, so a zero
            // vote means this wave resent nothing. ---
            let missing = self.done.iter().filter(|d| !**d).count();
            if ctx.allreduce_max(missing as f64)? == 0.0 {
                return Ok(());
            }
            if wave == BUDGET {
                ctx.note_recovery(FaultStats { degraded_exchanges: 1, ..FaultStats::default() });
            }
            if wave > hard_cap {
                let pending = self
                    .recvs
                    .iter()
                    .zip(&self.done)
                    .filter(|(_, d)| !**d)
                    .map(|(r, _)| (r.src, r.tag))
                    .collect();
                return Err(NetsimError::RetriesExhausted { rank: ctx.rank(), rounds: wave, pending });
            }
        }
    }

    fn send_frame(&self, ctx: &mut RankCtx<'_>, j: usize) -> Result<(), NetsimError> {
        ctx.isend(self.sends[j].dest, self.sends[j].tag, &self.frames[j])
    }

    /// Validate one frame against channel `i`; deliver if it is the
    /// current exchange's intact first copy, otherwise count and drop.
    fn accept(
        &mut self,
        ctx: &mut RankCtx<'_>,
        i: usize,
        frame: &[f64],
        deliver: &mut impl FnMut(usize, &[f64]),
    ) {
        let corrupt = FaultStats { corrupt_detected: 1, ..FaultStats::default() };
        let r = self.recvs[i];
        if frame.len() != r.elems + 2 {
            ctx.note_recovery(corrupt);
            return;
        }
        let (payload, trailer) = frame.split_at(r.elems);
        let seq = trailer[0].to_bits();
        let sum = trailer[1].to_bits();
        // Checksum first: it is bound to the frame's own seq, so trailer
        // damage lands here rather than masquerading as a stale frame.
        if sum != frame_checksum(payload, r.tag, seq) {
            ctx.note_recovery(corrupt);
            return;
        }
        if seq != self.seq || self.done[i] {
            ctx.note_recovery(FaultStats { duplicates_discarded: 1, ..FaultStats::default() });
            return;
        }
        deliver(i, payload);
        self.done[i] = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_cluster_faulty, CartTopo, FaultConfig, NetworkModel};

    fn ring_reliable(cfg: FaultConfig, ranks: usize, steps: usize) -> Vec<Vec<f64>> {
        let topo = CartTopo::new(&[ranks], true);
        run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            let rank = ctx.rank();
            let right = ctx.topo().neighbor(rank, &[1]).unwrap();
            let left = ctx.topo().neighbor(rank, &[-1]).unwrap();
            let mut rel = ReliableSession::new(
                vec![RelSend { dest: right, tag: 0x10 }],
                vec![RelRecv { src: left, tag: 0x10, elems: 16 }],
            );
            let mut out = vec![0.0; 16];
            for step in 0..steps {
                let payload: Vec<f64> =
                    (0..16).map(|i| (rank * 1000 + step * 100 + i) as f64).collect();
                rel.begin();
                rel.stage(0, &payload);
                rel.run(ctx, |_i, p| out.copy_from_slice(p)).unwrap();
            }
            out
        })
    }

    #[test]
    fn fault_free_single_round() {
        let out = ring_reliable(FaultConfig::off(), 2, 1);
        assert_eq!(out[0][0], 1000.0);
        assert_eq!(out[1][0], 0.0);
    }

    #[test]
    fn survives_heavy_drop_and_corruption() {
        let cfg = FaultConfig { seed: 77, drop: 0.4, corrupt: 0.3, dup: 0.3, ..FaultConfig::off() };
        let steps = 5;
        let lossy = ring_reliable(cfg, 3, steps);
        let clean = ring_reliable(FaultConfig::off(), 3, steps);
        assert_eq!(lossy, clean, "recovery must converge to the fault-free state");
    }

    #[test]
    fn full_loss_degrades_but_converges() {
        let cfg = FaultConfig { seed: 5, drop: 1.0, ..FaultConfig::off() };
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            let peer = 1 - ctx.rank();
            let mut rel = ReliableSession::new(
                vec![RelSend { dest: peer, tag: 1 }],
                vec![RelRecv { src: peer, tag: 1, elems: 4 }],
            );
            let mut got = vec![0.0; 4];
            rel.begin();
            rel.stage(0, &[ctx.rank() as f64; 4]);
            rel.run(ctx, |_i, p| got.copy_from_slice(p)).unwrap();
            (got, ctx.fault_stats())
        });
        let (got0, stats0) = &out[0];
        assert_eq!(got0, &[1.0; 4]);
        assert_eq!(stats0.degraded_exchanges, 1, "budget must be reported spent");
        assert_eq!(stats0.retries, u64::from(BUDGET), "one resend per wave, the last one bypassed");
    }

    #[test]
    fn self_channel_via_mailbox_converges() {
        // One rank, mailbox self-send (no loopback): the protocol's
        // phase ordering makes it single-thread safe.
        let cfg = FaultConfig { seed: 9, drop: 0.5, dup: 0.5, ..FaultConfig::off() };
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            let mut rel = ReliableSession::new(
                vec![RelSend { dest: 0, tag: 3 }],
                vec![RelRecv { src: 0, tag: 3, elems: 8 }],
            );
            let mut got = vec![0.0; 8];
            for step in 0..6 {
                rel.begin();
                rel.stage(0, &[step as f64; 8]);
                rel.run(ctx, |_i, p| got.copy_from_slice(p)).unwrap();
                assert_eq!(got, [step as f64; 8]);
            }
            ctx.fault_stats()
        });
        assert!(out[0].retries + out[0].duplicates_discarded > 0, "seed 9 injects at 50%");
    }

    #[test]
    fn checksum_rejects_corrupted_frames() {
        let cfg = FaultConfig { seed: 13, corrupt: 1.0, ..FaultConfig::off() };
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            let peer = 1 - ctx.rank();
            let mut rel = ReliableSession::new(
                vec![RelSend { dest: peer, tag: 2 }],
                vec![RelRecv { src: peer, tag: 2, elems: 32 }],
            );
            let want: Vec<f64> = (0..32).map(|i| (peer * 64 + i) as f64).collect();
            let mine: Vec<f64> = (0..32).map(|i| (ctx.rank() * 64 + i) as f64).collect();
            let mut got = vec![0.0; 32];
            rel.begin();
            rel.stage(0, &mine);
            rel.run(ctx, |_i, p| got.copy_from_slice(p)).unwrap();
            (got == want, ctx.fault_stats())
        });
        for (ok, stats) in &out {
            assert!(ok, "payload must arrive intact despite 100% corruption");
            assert!(stats.corrupt_detected >= 1);
            assert_eq!(stats.degraded_exchanges, 1, "only the bypassed resend survives");
        }
    }
}
