//! The migrating engine: one rank of a run whose brick→rank ownership
//! is *dynamic*, as the ninth [`RankEngine`].
//!
//! Owned bricks live in two slabs (current / next) indexed by a local
//! slot, ghosts in one arena, sends in one staging buffer per partner,
//! and they move through a [`CommPlan`] bound from the edges NBX
//! discovery produced ([`discover_plan`]) — so every schedule (phased,
//! dependency graph), protocol (plain, lossy retry) and harness (buddy
//! checkpoints, kill recovery) the static engines run under applies
//! unchanged. Every `migrate_every` steps, before the step, a migration
//! epoch runs: fence, exchange window loads with the ring neighbors, let
//! the diffusion balancer propose moves, ship brick interiors in manifest
//! frames, rediscover the edges — no global alltoall anywhere on the path
//! — and bind again.
//!
//! Snapshots capture ownership, the edges, the balancer's cost window and
//! the migration accounting alongside the physics, so a rank killed
//! mid-epoch is restored to a state whose replay re-proposes the
//! identical moves.

use std::ops::Range;

use netsim::telemetry::{BrickCosts, MigrationStats};
use netsim::{NetsimError, RankCtx, RelRecv};
use sched::DepGraph;
use stencil::PlanSplit;

use crate::balance::propose_moves;
use crate::decomp::Ownership;
use crate::driver::RebalanceCfg;
use crate::engine::{RankEngine, SplitSetup};
use crate::exchange::ExchangeStats;
use crate::experiment::fail;
use crate::plan::{discover_plan, CommPlan, ExchangePlan, IntoRanges, SendEdge, REB_NS};
use crate::workload::{brick_sum, init_cell, relax, GridCfg};

/// Rank-0 fence tokens opening a migration epoch.
const FENCE: [u64; 2] = [REB_NS, REB_NS | 1];
/// Window-load exchange with ring neighbors.
const LOAD_TAG: u64 = REB_NS | 2;
/// Migration manifests: `[count, (brick, cells…)…]`.
const MANIFEST_TAG: u64 = REB_NS | 3;
/// Data-plane halo frames (one per partner per step; subject to the
/// fault plan like any other data traffic).
const HALO_TAG: u64 = 0x4A10_0000;

/// One rank of the rebalanced run.
pub(crate) struct Migrating<'a> {
    cfg: &'a RebalanceCfg,
    view: Ownership,
    /// Global ids of the owned bricks, ascending; a brick's position is
    /// its local slot.
    ids: Vec<u32>,
    /// Current and next cells, `grid.cells` per slot.
    cur: Vec<f64>,
    nxt: Vec<f64>,
    costs: BrickCosts,
    mig: MigrationStats,
    window_steps: usize,
    /// What discovery found for the current ownership (the snapshot
    /// encoding of the exchange), and everything bound from it.
    edges: ExchangePlan,
    bound: Bound,
}

/// The exchange state of one ownership epoch, derived from the owned ids
/// and the edges: nothing in it is touched by a step except the staged
/// and arena cells.
struct Bound {
    plan: CommPlan,
    /// Send `i` packs these slots, in id order, into `staged[i]`.
    send_slots: Vec<Vec<u32>>,
    staged: Vec<Vec<f64>>,
    /// Ghost cells: receive `j` lands in `ranges[j]`, its partner's
    /// id-sorted bricks back to back.
    arena: Vec<f64>,
    ranges: Vec<Range<usize>>,
    pend: Vec<Range<usize>>,
    /// Per slot, where each face neighbor's cells live: a slot of `cur`
    /// when below the slot count, else that many bricks into the arena.
    faces: Vec<[u32; 6]>,
}

impl Bound {
    fn new(rank: usize, grid: &GridCfg, ids: &[u32], edges: &ExchangePlan) -> Bound {
        let (n, cells) = (ids.len(), grid.cells);
        let slot = |b: u32| ids.binary_search(&b).ok();
        let mut ghosts: Vec<(u32, u32)> =
            edges.recv.iter().flat_map(|(_, ids)| ids).enumerate().map(|(k, &g)| (g, k as u32)).collect();
        ghosts.sort_unstable();
        let faces = ids
            .iter()
            .map(|&b| {
                std::array::from_fn(|f| {
                    let g = grid.neighbor(b, f);
                    slot(g).map(|s| s as u32).unwrap_or_else(|| match ghosts.binary_search_by_key(&g, |p| p.0) {
                        Ok(i) => n as u32 + ghosts[i].1,
                        Err(_) => panic!("brick {b} is missing neighbor {g} (face {f}): no supplier in the plan"),
                    })
                })
            })
            .collect();
        // Staging is a pack the proxy does not bill, and its payload
        // stays unbilled with it: the wire bytes are what it reports.
        let sends: Vec<SendEdge> = edges
            .send
            .iter()
            .map(|(dest, ids)| SendEdge { dest: *dest, tag: HALO_TAG, elems: ids.len() * cells, payload_bytes: 0 })
            .collect();
        let recvs: Vec<RelRecv> =
            edges.recv.iter().map(|(src, ids)| RelRecv { src: *src, tag: HALO_TAG, elems: ids.len() * cells }).collect();
        let mut end = 0;
        let mut ranges = Vec::with_capacity(recvs.len());
        for r in &recvs {
            ranges.push(end..end + r.elems);
            end += r.elems;
        }
        Bound {
            plan: CommPlan::from_edges(Some("exchange:migrating"), rank, &sends, &recvs, false),
            send_slots: edges
                .send
                .iter()
                .map(|(_, ids)| {
                    let held = |&b: &u32| slot(b).unwrap_or_else(|| panic!("plan ships brick {b} this rank does not hold"));
                    ids.iter().map(|b| held(b) as u32).collect()
                })
                .collect(),
            staged: sends.iter().map(|s| vec![0.0; s.elems]).collect(),
            arena: vec![0.0; end],
            ranges,
            pend: Vec::with_capacity(recvs.len()),
            faces,
        }
    }
}

impl<'a> Migrating<'a> {
    /// Block ownership and the static wiring every run starts from. Kills
    /// are armed per driver step, so setup discovery runs on a healthy
    /// cluster — but a *respawned* rank comes back on a still-revoked
    /// communicator and goes straight into the recovery epoch, which
    /// restores everything from its buddy's checkpoint: it starts empty
    /// and must not rediscover.
    pub(crate) fn new(cfg: &'a RebalanceCfg, ctx: &mut RankCtx<'_>) -> Migrating<'a> {
        let grid = &cfg.grid;
        let mut view = Ownership::block(grid.nbricks(), ctx.size());
        let mut mig = MigrationStats::default();
        let (ids, edges) = if ctx.incarnation() == 0 {
            let ids = view.owned_by(ctx.rank() as u32);
            let edges = discover_plan(ctx, &mut view, &ids, grid, &mut mig)
                .unwrap_or_else(|e| fail(ctx, "setup discovery, before any fault could be armed", e));
            (ids, edges)
        } else {
            Default::default()
        };
        let cur: Vec<f64> = ids.iter().flat_map(|&b| (0..grid.cells).map(move |j| init_cell(b, j))).collect();
        Migrating {
            cfg,
            view,
            nxt: vec![0.0; cur.len()],
            cur,
            costs: BrickCosts::new(grid.nbricks()),
            mig,
            window_steps: 0,
            bound: Bound::new(ctx.rank(), grid, &ids, &edges),
            ids,
            edges,
        }
    }

    /// Bind the exchange again after the owned ids or the edges changed.
    fn rebind(&mut self, ctx: &RankCtx<'_>) {
        self.bound = Bound::new(ctx.rank(), &self.cfg.grid, &self.ids, &self.edges);
    }

    /// The plan and the memory it moves; `stage` packs the current cells
    /// of every shipped brick first (once per exchange).
    fn exchange_mem(&mut self, stage: bool) -> (&mut CommPlan, IntoRanges<'_, Vec<f64>>) {
        let cells = self.cfg.grid.cells;
        let Bound { plan, send_slots, staged, arena, ranges, pend, .. } = &mut self.bound;
        if stage {
            for (buf, slots) in staged.iter_mut().zip(send_slots.iter()) {
                for (out, &s) in buf.chunks_exact_mut(cells).zip(slots) {
                    out.copy_from_slice(&self.cur[s as usize * cells..][..cells]);
                }
            }
        }
        (plan, IntoRanges { sends: staged, data: arena.as_mut_slice().into(), recvs: ranges, pend })
    }

    /// One migration epoch: fence → load exchange → diffusion proposal →
    /// manifests → NBX rediscovery → rebind.
    fn migration_epoch(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        let (me, n) = (ctx.rank(), ctx.size());
        let (grid, cells) = (self.cfg.grid, self.cfg.grid.cells);
        let ops0 = ctx.step_ops();

        // Fence through rank 0 so no rank starts trading while a peer is
        // still inside the previous step's exchange.
        ctx.fence(FENCE[0], FENCE[1])?;

        // Window loads with the diffusion ring (right first, then left).
        let (right, left) = ((me + 1) % n, (me + n - 1) % n);
        let nbrs: &[usize] = if n == 2 { &[right] } else { &[right, left] };
        let my_load = self.costs.load(&self.ids);
        for &p in nbrs {
            ctx.isend(p, LOAD_TAG, &[my_load])?;
        }
        let mut nb_loads = Vec::with_capacity(nbrs.len());
        for &p in nbrs {
            let h = ctx.irecv(p, LOAD_TAG)?;
            nb_loads.push((p as u32, ctx.recv_blocking(h)?.data()[0]));
        }

        // Imbalance metric: the cost model is closed-form, so the mean rank
        // load is computable locally; only the max needs a reduction.
        let max_load = ctx.allreduce_max(my_load)?;
        let mean = grid.total_cost() * self.window_steps as f64 / n as f64;
        let imbalance = if mean > 0.0 { max_load / mean } else { 1.0 };
        if self.mig.imbalance_initial == 0.0 {
            self.mig.imbalance_initial = imbalance;
        }
        self.mig.imbalance_final = imbalance;

        // Propose this rank's outgoing moves and ship one manifest per
        // ring neighbor, in rank order.
        let owned_costs: Vec<(u32, f64)> = self.ids.iter().map(|&b| (b, self.costs.window(b))).collect();
        let moves = propose_moves(my_load, &nb_loads, &owned_costs, self.cfg.min_gain);
        let mut stays = vec![true; self.ids.len()];
        let mut dests = nbrs.to_vec();
        dests.sort_unstable();
        for dest in dests {
            let leaving = moves.iter().filter(|m| m.dest as usize == dest);
            let mut frame = vec![f64::from_bits(leaving.clone().count() as u64)];
            for mv in leaving {
                let s = self.ids.binary_search(&mv.brick).expect("the balancer moves owned bricks only");
                stays[s] = false;
                frame.push(f64::from_bits(u64::from(mv.brick)));
                frame.extend_from_slice(&self.cur[s * cells..][..cells]);
                self.mig.bricks_moved += 1;
                self.mig.bytes_moved += (cells * std::mem::size_of::<f64>()) as u64;
                // Forwarding pointer: future requests for this brick chase
                // the migration trail through here.
                self.view.set_owner(mv.brick, dest as u32);
            }
            ctx.isend(dest, MANIFEST_TAG, &frame)?;
        }
        let mut arrived: Vec<(u32, Vec<f64>)> = Vec::new();
        for &p in nbrs {
            let h = ctx.irecv(p, MANIFEST_TAG)?;
            let msg = ctx.recv_blocking(h)?;
            let (count, bricks) = msg.data().split_first().expect("manifest frames carry a count");
            for brick in bricks.chunks_exact(1 + cells).take(count.to_bits() as usize) {
                let b = brick[0].to_bits() as u32;
                arrived.push((b, brick[1..].to_vec()));
                self.view.set_owner(b, me as u32);
            }
        }
        ctx.flush_epoch();

        // The new slabs: what stayed and what arrived, in id order.
        let mut held: Vec<(u32, &[f64])> = (self.ids.iter().zip(self.cur.chunks_exact(cells)).zip(&stays))
            .filter_map(|((&b, c), &stay)| stay.then_some((b, c)))
            .chain(arrived.iter().map(|(b, c)| (*b, c.as_slice())))
            .collect();
        held.sort_unstable_by_key(|&(b, _)| b);
        let cur: Vec<f64> = held.iter().flat_map(|(_, c)| c.iter().copied()).collect();
        self.ids = held.iter().map(|&(b, _)| b).collect();
        self.nxt = vec![0.0; cur.len()];
        self.cur = cur;

        // Rewire: new epoch, fresh sparse edges, fresh balancer window.
        // (The counters say where a `kill:R@S+OP` can land, for profiled
        // runs: every op so far was posted unconditionally, discovery's
        // polls are as many as host timing makes them.)
        ctx.note_count("migration_epoch_posted_ops", ctx.step_ops() - ops0);
        self.view.advance_epoch();
        self.edges = discover_plan(ctx, &mut self.view, &self.ids, &grid, &mut self.mig)?;
        self.mig.epochs += 1;
        self.costs.harvest();
        self.window_steps = 0;
        self.rebind(ctx);
        ctx.note_count("migration_epoch_ops", ctx.step_ops() - ops0);
        Ok(())
    }

    /// What the host folds after the run: this rank's `(brick, sum)`
    /// checksum terms and its migration accounting.
    pub(crate) fn harvest(self) -> (Vec<(u32, f64)>, MigrationStats) {
        let sums = self.cur.chunks_exact(self.cfg.grid.cells).map(brick_sum);
        (self.ids.iter().copied().zip(sums).collect(), self.mig)
    }
}

impl RankEngine for Migrating<'_> {
    /// Zero: [`crate::rebalance::run_rebalance`] reports the per-step
    /// traffic the clock measured.
    fn stats(&self) -> ExchangeStats {
        ExchangeStats::default()
    }

    /// This rank's terms only; [`crate::rebalance::run_rebalance`] folds
    /// all ranks' in brick-id order.
    fn checksum(&self) -> f64 {
        self.cur.chunks_exact(self.cfg.grid.cells).map(brick_sum).sum()
    }

    fn exchange(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        let (plan, mut mem) = self.exchange_mem(true);
        plan.exchange(ctx, &mut mem)
    }

    /// Relax the masked slots, charging each brick's modeled cost to the
    /// virtual clock and to the balancer's window.
    fn compute(&mut self, ctx: &mut RankCtx<'_>, mask: Option<&[bool]>) {
        let Migrating { cfg, ids, cur, nxt, costs, bound, .. } = self;
        let (n, cells) = (ids.len(), cfg.grid.cells);
        let at = |code: u32| match (code as usize).checked_sub(n) {
            None => &cur[code as usize * cells..][..cells],
            Some(g) => &bound.arena[g * cells..][..cells],
        };
        for (s, &b) in ids.iter().enumerate() {
            if mask.is_some_and(|m| !m[s]) {
                continue;
            }
            relax(at(s as u32), bound.faces[s].map(at), &mut nxt[s * cells..][..cells]);
            let cost = cfg.grid.cost(b);
            ctx.charge_calc_brick(b, cost);
            costs.charge(b, cost);
        }
    }

    fn advance(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.nxt);
        self.window_steps += 1;
    }

    /// Everything a replayed rank needs to re-propose the same moves:
    /// ownership view, balancer window, migration accounting, the live
    /// edges, and the brick interiors.
    fn snapshot(&self, buf: &mut Vec<f64>) {
        self.view.encode(buf);
        buf.push(f64::from_bits(self.window_steps as u64));
        self.mig.encode(buf);
        self.costs.encode(buf);
        self.edges.encode(buf);
        buf.push(f64::from_bits(self.ids.len() as u64));
        for (&b, cells) in self.ids.iter().zip(self.cur.chunks_exact(self.cfg.grid.cells)) {
            buf.push(f64::from_bits(u64::from(b)));
            buf.extend_from_slice(cells);
        }
    }

    /// Inverse of `snapshot` (wholesale overwrite; `rebuild` binds the
    /// exchange to the restored ids and edges).
    fn restore(&mut self, data: &[f64]) {
        let (view, mut at) = Ownership::decode(data);
        self.view = view;
        self.window_steps = data[at].to_bits() as usize;
        at += 1;
        let (mig, used) = MigrationStats::decode(&data[at..]);
        (self.mig, at) = (mig, at + used);
        let (costs, used) = BrickCosts::decode(&data[at..]);
        (self.costs, at) = (costs, at + used);
        let (edges, used) = ExchangePlan::decode(&data[at..]);
        (self.edges, at) = (edges, at + used);
        let (count, bricks) = data[at..].split_first().expect("snapshot ends before its brick count");
        let cells = self.cfg.grid.cells;
        assert_eq!(bricks.len(), count.to_bits() as usize * (1 + cells), "snapshot had trailing bytes");
        self.ids = bricks.chunks_exact(1 + cells).map(|b| b[0].to_bits() as u32).collect();
        self.cur = bricks.chunks_exact(1 + cells).flat_map(|b| b[1..].iter().copied()).collect();
        self.nxt = vec![0.0; self.cur.len()];
    }

    fn rebuild(&mut self, ctx: &mut RankCtx<'_>) {
        self.rebind(ctx);
    }

    fn before_step(&mut self, ctx: &mut RankCtx<'_>, step: usize) -> Result<bool, NetsimError> {
        let every = self.cfg.migrate_every;
        let due = every > 0 && ctx.size() > 1 && step > 0 && step.is_multiple_of(every);
        if due {
            self.migration_epoch(ctx)?;
        }
        Ok(due)
    }

    fn arm_split(&mut self, _ctx: &mut RankCtx<'_>, _partitioned: bool) -> SplitSetup {
        let cells = self.cfg.grid.cells;
        let ghosts = self.bound.ranges.iter().map(|r| (r.start / cells) as u32..(r.end / cells) as u32);
        (ghosts.map(Iterator::collect).collect(), None)
    }

    /// Slots are the graph's bricks: interior when every face is owned,
    /// otherwise gated on the receives supplying its ghost faces.
    fn split_graph(&self, recv_ghosts: &[Vec<u32>]) -> (PlanSplit, DepGraph) {
        let (n, faces) = (self.ids.len(), &self.bound.faces);
        let mut supplier = vec![0u32; self.bound.arena.len() / self.cfg.grid.cells];
        for (j, ghosts) in recv_ghosts.iter().enumerate() {
            for &g in ghosts {
                supplier[g as usize] = j as u32;
            }
        }
        let interior: Vec<bool> = faces.iter().map(|f| f.iter().all(|&c| (c as usize) < n)).collect();
        let split = PlanSplit::new(&interior, &vec![true; n]);
        let deps = split.boundary().iter().map(|&s| {
            let ghosts = faces[s as usize].iter().filter_map(|&c| (c as usize).checked_sub(n));
            let mut recvs: Vec<u32> = ghosts.map(|g| supplier[g]).collect();
            recvs.sort_unstable();
            recvs.dedup();
            (s, recvs)
        });
        let graph = DepGraph::from_deps(n, recv_ghosts.len(), deps);
        (split, graph)
    }

    fn begin(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<(), NetsimError> {
        let (plan, mut mem) = self.exchange_mem(true);
        plan.begin(ctx, &mut mem, completed)
    }

    fn poll(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<usize, NetsimError> {
        let (plan, mut mem) = self.exchange_mem(false);
        plan.poll(ctx, &mut mem, completed)
    }

    fn finish(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        let (plan, mut mem) = self.exchange_mem(false);
        plan.finish(ctx, &mut mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Backend, CartTopo, FaultConfig, NetworkModel};

    /// Everything a step touches is built when ownership changes and
    /// reused until it changes again: after a migration epoch, plain
    /// steps allocate nothing on the threads that run ranks — on either
    /// schedule and backend. Ranks own interior and boundary bricks here.
    /// (One step warms the transport to the new frame sizes first, with
    /// every frame of the cluster posted before any is received: a rank's
    /// pool then holds as many buffers as it can ever have in flight,
    /// whichever rank runs ahead later.)
    #[test]
    fn plain_steps_between_epochs_allocate_nothing() {
        use crate::alloc_count::{counting_alone, on_rank_thread, rank_thread_allocs};
        use crate::experiment::StepPlan;
        let _alone = counting_alone();
        const EPOCH: usize = 3;
        const PLAIN: usize = 12;
        let mut cfg = RebalanceCfg::new(GridCfg { dims: [4, 2, 4], cells: 16, skew: 6.0 }, vec![2, 2, 1]);
        cfg.migrate_every = EPOCH + PLAIN + 1;
        cfg.net = NetworkModel::instant();
        let topo = CartTopo::new(&cfg.ranks, true);
        for backend in [Backend::Thread, Backend::Event] {
            for overlap in [false, true] {
                cfg.overlap = overlap;
                let schedule = cfg.run_params().schedule;
                let leaked = netsim::run_cluster_on(backend, &topo, cfg.net, FaultConfig::off(), |ctx| {
                    let mut eng = Migrating::new(&cfg, ctx);
                    let mut plan = StepPlan::bind(schedule, &mut eng, ctx);
                    let mut timer = sched::OverlapTimer::new();
                    let mut step = |plan: &mut StepPlan, eng: &mut Migrating<'_>, ctx: &mut RankCtx<'_>| {
                        on_rank_thread();
                        plan.step(eng, ctx, &mut timer, false).unwrap();
                        eng.advance();
                        ctx.barrier();
                    };
                    for _ in 0..EPOCH {
                        step(&mut plan, &mut eng, ctx);
                    }
                    eng.migration_epoch(ctx).unwrap();
                    plan = StepPlan::bind(schedule, &mut eng, ctx);
                    eng.begin(ctx, &mut Vec::new()).unwrap();
                    ctx.barrier();
                    RankEngine::finish(&mut eng, ctx).unwrap();
                    eng.compute(ctx, None);
                    eng.advance();
                    ctx.barrier();
                    let before = rank_thread_allocs();
                    for _ in 0..PLAIN {
                        step(&mut plan, &mut eng, ctx);
                    }
                    (rank_thread_allocs() - before, eng.mig.bricks_moved)
                });
                assert!(leaked.iter().any(|r| r.1 > 0), "the epoch must have moved bricks");
                for (rank, (allocs, _)) in leaked.iter().enumerate() {
                    assert_eq!(
                        *allocs, 0,
                        "rank {rank}: {PLAIN} plain steps allocated {allocs} times (overlap={overlap}, {backend:?})"
                    );
                }
            }
        }
    }
}
