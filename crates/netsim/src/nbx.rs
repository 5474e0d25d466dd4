//! Nonblocking-barrier consensus (`ibarrier`), the termination test of
//! an NBX sparse dynamic data exchange.
//!
//! The problem: after a migration epoch, every rank knows who it must
//! *send* to (its new ghost suppliers are derivable locally) but not who
//! will send to *it* — the classic unknown-partner situation that naive
//! codes solve with an `MPI_Alltoall` on message counts, an O(ranks²)
//! hammer. NBX (Hoefler et al., and the scalable variant in arXiv
//! 2308.13869) replaces it with consensus: post all sends, then enter a
//! *nonblocking* barrier; keep serving incoming messages while the
//! barrier is incomplete. Because every rank enters the barrier only
//! after its own sends are posted (and, for request/reply protocols,
//! after all its expected replies arrived), barrier completion proves
//! global quiescence: no message can still be in flight, so draining
//! the mailbox one last time is exhaustive.
//!
//! [`Ibarrier`] is that consensus primitive — a dissemination barrier
//! (`ceil(log2 n)` rounds) whose progress is polled, never blocked on.
//! The caller owns the exchange around it: it posts its sends, serves
//! its mailbox between polls, and decides when to enter — the rebalance
//! subsystem's ownership discovery (`packfree`'s `discover_plan`) enters
//! only once its counted replies are in. A poll on a revoked
//! communicator reports [`NetsimError::RankFailed`] like every other
//! poll, so a rank spinning here cannot outlive a crashed peer.
//!
//! Barrier tokens are control-plane traffic ([`CTRL_TAG_BIT`]): partner
//! discovery must survive chaos configurations that drop or corrupt
//! data frames, exactly like the recovery fences it cooperates with.

use crate::cluster::{RankCtx, RecvHandle};
use crate::error::NetsimError;
use crate::fault::CTRL_TAG_BIT;

/// Reserved tag namespace for barrier tokens; the dissemination round
/// index lands in the low bits.
const NBX_BARRIER_NS: u64 = CTRL_TAG_BIT | 0x9BA0_0000;

/// A nonblocking dissemination barrier: `start` enters it, repeated
/// [`Ibarrier::advance`] calls poll it forward, and completion proves
/// every rank has entered. Between polls the caller keeps serving its
/// protocol — that interleaving is the entire point.
///
/// Round `k` of `ceil(log2 n)` sends a token to `(me + 2^k) mod n` and
/// waits for the token from `(me + n - 2^k mod n) mod n`; completion at
/// any rank transitively depends on every rank's entry, which is the
/// consensus property NBX needs. Tokens are control-plane traffic:
/// fault plans never touch them.
#[derive(Debug)]
pub struct Ibarrier {
    round: u32,
    rounds: u32,
    pending: Option<RecvHandle>,
    sent: u64,
}

impl Ibarrier {
    /// Enter the barrier: post round 0's token and receive. On a
    /// single-rank cluster the barrier is born complete.
    pub fn start(ctx: &mut RankCtx<'_>) -> Result<Ibarrier, NetsimError> {
        let n = ctx.size();
        let rounds = usize::BITS - (n - 1).leading_zeros();
        let mut bar = Ibarrier { round: 0, rounds, pending: None, sent: 0 };
        bar.post_round(ctx)?;
        Ok(bar)
    }

    /// Whether the barrier has completed (all ranks provably entered).
    pub fn done(&self) -> bool {
        self.round >= self.rounds
    }

    /// Barrier tokens this rank has sent so far.
    pub fn msgs(&self) -> u64 {
        self.sent
    }

    fn post_round(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        if self.done() {
            return Ok(());
        }
        let n = ctx.size();
        let me = ctx.rank();
        let hop = 1usize << self.round;
        let to = (me + hop) % n;
        let from = (me + n - hop % n) % n;
        let tag = NBX_BARRIER_NS | u64::from(self.round);
        ctx.isend(to, tag, &[f64::from_bits(u64::from(self.round))])?;
        self.sent += 1;
        self.pending = Some(ctx.irecv(from, tag)?);
        Ok(())
    }

    /// Poll the barrier one step forward without blocking. Returns
    /// `true` once complete. A `false` return means some rank has not
    /// yet entered (or its token is still in flight) — go serve the
    /// protocol and poll again. A revoked communicator reports
    /// [`NetsimError::RankFailed`] (through [`RankCtx::try_wait`]).
    pub fn advance(&mut self, ctx: &mut RankCtx<'_>) -> Result<bool, NetsimError> {
        while !self.done() {
            let Some(h) = self.pending else {
                unreachable!("incomplete ibarrier with no posted receive");
            };
            if ctx.try_wait(h)?.is_none() {
                return Ok(false);
            }
            self.round += 1;
            self.pending = None;
            self.post_round(ctx)?;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{run_cluster_on, Backend};
    use crate::fault::FaultConfig;
    use crate::model::NetworkModel;
    use crate::topo::CartTopo;

    fn on_both_backends(f: impl Fn(Backend)) {
        f(Backend::Thread);
        f(Backend::Event);
    }

    #[test]
    fn ibarrier_completes_with_staggered_entry() {
        on_both_backends(|backend| {
            let topo = CartTopo::new(&[5], true);
            let out = run_cluster_on(
                backend,
                &topo,
                NetworkModel::instant(),
                FaultConfig::off(),
                |ctx| {
                    // Later ranks dawdle before entering; early ranks
                    // must poll without deadlocking.
                    for _ in 0..ctx.rank() * 50 {
                        std::hint::spin_loop();
                    }
                    let mut bar = Ibarrier::start(ctx).unwrap();
                    let mut polls = 0u64;
                    while !bar.advance(ctx).unwrap() {
                        polls += 1;
                        assert!(polls < 50_000_000, "ibarrier failed to converge");
                    }
                    bar.msgs()
                },
            );
            // ceil(log2 5) = 3 tokens per rank, every rank completed.
            assert_eq!(out, vec![3, 3, 3, 3, 3], "backend {backend:?}");
        });
    }

    #[test]
    fn ibarrier_is_instant_on_one_rank() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster_on(
            Backend::Thread,
            &topo,
            NetworkModel::instant(),
            FaultConfig::off(),
            |ctx| {
                let mut bar = Ibarrier::start(ctx).unwrap();
                assert!(bar.done());
                bar.advance(ctx).unwrap()
            },
        );
        assert_eq!(out, vec![true]);
    }
}
