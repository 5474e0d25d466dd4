//! Sparse exchange-edge discovery over NBX consensus: the rank-level
//! send/receive lists a [`CommPlan`](super::CommPlan) is bound from when
//! the neighbor set is not a static direction schedule.
//!
//! After a migration epoch every rank knows which bricks *it* holds and
//! where *it* sent bricks, but nothing about moves elsewhere — its
//! brick→rank view may be stale for any ghost it needs. The classic
//! fix is an alltoall over ownership, an O(ranks²) collective this
//! subsystem exists to avoid. Instead, each rank requests its ghost
//! bricks from the owner *its view names*; a rank that no longer holds
//! a requested brick forwards the request along its own forwarding
//! pointer (set when it migrated the brick away), so requests chase the
//! migration trail to the true owner, who replies and records the
//! subscription. A requester enters the [`Ibarrier`] only once every
//! ghost is resolved, so barrier completion proves global quiescence
//! and the final mailbox drain is exhaustive — the NBX termination
//! argument, extended to counted replies.
//!
//! Forwarding decisions use a view *frozen at discovery entry*: replies
//! arriving mid-discovery update the live view (for future epochs) but
//! never reroute in-flight serving, keeping the message count a pure
//! function of the epoch's ownership state — deterministic across
//! backends and chaos timings, which the bit-identity suite relies on.

use std::collections::{BTreeMap, BTreeSet};

use netsim::telemetry::MigrationStats;
use netsim::{Ibarrier, NetsimError, RankCtx, CTRL_TAG_BIT};

use crate::decomp::Ownership;
use crate::workload::GridCfg;

/// Control-plane tag namespace of the rebalance subsystem (fences,
/// loads, manifests, discovery); low bits select the channel.
pub(crate) const REB_NS: u64 = CTRL_TAG_BIT | 0x9EBA_0000;
/// Ownership request / forward frames: `[requester, k, ids…]`.
const REQ_TAG: u64 = REB_NS | 4;
/// Ownership reply frames: `[k, (id, owner)…]`.
const REP_TAG: u64 = REB_NS | 5;

/// The sparse halo-exchange edges one discovery round produces: per
/// partner, which global bricks this rank ships and which it receives,
/// both id-sorted so the per-step halo frames are deterministic. The
/// migrating engine binds its `CommPlan` from them
/// and carries them in its snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExchangePlan {
    /// `(partner, owned bricks the partner subscribed to)`.
    pub send: Vec<(usize, Vec<u32>)>,
    /// `(partner, ghost bricks the partner supplies)`.
    pub recv: Vec<(usize, Vec<u32>)>,
}

impl ExchangePlan {
    /// Serialize into a snapshot buffer: both sides of the plan are
    /// per-rank state a recovered rank cannot re-derive locally (the
    /// send side exists only in its partners' requests).
    pub fn encode(&self, out: &mut Vec<f64>) {
        for half in [&self.send, &self.recv] {
            out.push(f64::from_bits(half.len() as u64));
            for (partner, ids) in half {
                out.push(f64::from_bits(*partner as u64));
                out.push(f64::from_bits(ids.len() as u64));
                out.extend(ids.iter().map(|&b| f64::from_bits(u64::from(b))));
            }
        }
    }

    /// Inverse of [`ExchangePlan::encode`]; returns the plan and the
    /// number of `f64`s consumed.
    pub fn decode(data: &[f64]) -> (ExchangePlan, usize) {
        let mut at = 0usize;
        let mut halves: [Vec<(usize, Vec<u32>)>; 2] = [Vec::new(), Vec::new()];
        for half in &mut halves {
            let parts = data[at].to_bits() as usize;
            at += 1;
            for _ in 0..parts {
                let partner = data[at].to_bits() as usize;
                let k = data[at + 1].to_bits() as usize;
                at += 2;
                let ids = data[at..at + k].iter().map(|v| v.to_bits() as u32).collect();
                at += k;
                half.push((partner, ids));
            }
        }
        let [send, recv] = halves;
        (ExchangePlan { send, recv }, at)
    }
}

/// Discover the sparse exchange plan for the current ownership state.
///
/// `owned` is this rank's authoritative brick set; `view` its
/// (possibly stale) global brick→rank map, updated in place as replies
/// reveal true owners. Collective: every rank must call it at the same
/// point. The round and this rank's discovery messages (the no-alltoall
/// witness) are counted into `mig`'s `nbx_*` fields.
pub fn discover_plan(
    ctx: &mut RankCtx<'_>,
    view: &mut Ownership,
    owned: &[u32],
    grid: &GridCfg,
    mig: &mut MigrationStats,
) -> Result<ExchangePlan, NetsimError> {
    let me = ctx.rank();
    let owned_set: BTreeSet<u32> = owned.iter().copied().collect();
    let mut needed: BTreeSet<u32> = BTreeSet::new();
    for &b in &owned_set {
        for face in 0..6 {
            let g = grid.neighbor(b, face);
            if !owned_set.contains(&g) {
                needed.insert(g);
            }
        }
    }

    // Freeze the forwarding view for this round (see module docs).
    let fwd = view.clone();
    mig.nbx_rounds += 1;
    let mut requests: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for &g in &needed {
        let target = fwd.owner_of(g) as usize;
        assert_ne!(
            target, me,
            "rank {me}'s view claims it owns ghost brick {g} it does not hold"
        );
        requests.entry(target).or_default().push(g);
    }
    for (dest, ids) in &requests {
        ctx.isend(*dest, REQ_TAG, &req_frame(me, ids))?;
        mig.nbx_data_msgs += 1;
    }

    let mut outstanding = needed.len();
    let mut send: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    let mut recv: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    let mut bar: Option<Ibarrier> = None;
    loop {
        serve(ctx, &fwd, &owned_set, view, &mut send, &mut recv, &mut outstanding, mig)?;
        match bar.as_mut() {
            None if outstanding == 0 => bar = Some(Ibarrier::start(ctx)?),
            None => ctx.idle_tick()?,
            Some(b) => {
                if b.advance(ctx)? {
                    break;
                }
            }
        }
    }
    // Quiescent: every request chain ended in a reply its requester
    // consumed before entering the barrier, so this drain only mops up
    // frames already served logically (in practice: nothing).
    serve(ctx, &fwd, &owned_set, view, &mut send, &mut recv, &mut outstanding, mig)?;
    ctx.flush_epoch();
    mig.nbx_barrier_msgs += bar.map(|b| b.msgs()).unwrap_or(0);

    let tidy = |m: BTreeMap<usize, Vec<u32>>| {
        m.into_iter()
            .map(|(p, mut ids)| {
                ids.sort_unstable();
                ids.dedup();
                (p, ids)
            })
            .collect()
    };
    Ok(ExchangePlan { send: tidy(send), recv: tidy(recv) })
}

fn req_frame(requester: usize, ids: &[u32]) -> Vec<f64> {
    let mut frame = Vec::with_capacity(2 + ids.len());
    frame.push(f64::from_bits(requester as u64));
    frame.push(f64::from_bits(ids.len() as u64));
    frame.extend(ids.iter().map(|&b| f64::from_bits(u64::from(b))));
    frame
}

/// Pop and process every deposited discovery frame: serve or forward
/// requests, consume replies.
#[allow(clippy::too_many_arguments)]
fn serve(
    ctx: &mut RankCtx<'_>,
    fwd: &Ownership,
    owned: &BTreeSet<u32>,
    view: &mut Ownership,
    send: &mut BTreeMap<usize, Vec<u32>>,
    recv: &mut BTreeMap<usize, Vec<u32>>,
    outstanding: &mut usize,
    mig: &mut MigrationStats,
) -> Result<(), NetsimError> {
    let me = ctx.rank();
    loop {
        let pending: Vec<(usize, u64)> = ctx
            .mailbox_keys()
            .into_iter()
            .filter(|&(_, t, count)| (t == REQ_TAG || t == REP_TAG) && count > 0)
            .map(|(src, t, _)| (src, t))
            .collect();
        if pending.is_empty() {
            return Ok(());
        }
        for (src, tag) in pending {
            // The mailbox just showed a deposited frame and only this
            // rank pops its own mailbox, so try_wait cannot miss.
            let h = ctx.irecv(src, tag)?;
            let Some(msg) = ctx.try_wait(h)? else { continue };
            let data = msg.data();
            if tag == REQ_TAG {
                let requester = data[0].to_bits() as usize;
                let k = data[1].to_bits() as usize;
                let mut mine = Vec::new();
                let mut onward: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
                for v in &data[2..2 + k] {
                    let id = v.to_bits() as u32;
                    if owned.contains(&id) {
                        mine.push(id);
                    } else {
                        let next = fwd.owner_of(id) as usize;
                        assert_ne!(
                            next, me,
                            "rank {me} asked to forward brick {id} to itself — \
                             forwarding pointer never advanced past this rank"
                        );
                        onward.entry(next).or_default().push(id);
                    }
                }
                if !mine.is_empty() {
                    let mut rep = Vec::with_capacity(1 + 2 * mine.len());
                    rep.push(f64::from_bits(mine.len() as u64));
                    for &id in &mine {
                        rep.push(f64::from_bits(u64::from(id)));
                        rep.push(f64::from_bits(me as u64));
                    }
                    ctx.isend(requester, REP_TAG, &rep)?;
                    mig.nbx_data_msgs += 1;
                    send.entry(requester).or_default().extend(mine);
                }
                for (next, ids) in &onward {
                    ctx.isend(*next, REQ_TAG, &req_frame(requester, ids))?;
                    mig.nbx_data_msgs += 1;
                }
            } else {
                let k = data[0].to_bits() as usize;
                for pair in data[1..1 + 2 * k].chunks_exact(2) {
                    let id = pair[0].to_bits() as u32;
                    let owner = pair[1].to_bits() as u32;
                    view.set_owner(id, owner);
                    recv.entry(owner as usize).or_default().push(id);
                    debug_assert!(*outstanding > 0, "reply for brick {id} never requested");
                    *outstanding = outstanding.saturating_sub(1);
                }
            }
        }
    }
}
