//! The rebalanced timestep driver: a halo-exchange relaxation whose
//! brick→rank ownership is *dynamic*. Every `migrate_every` steps a
//! migration epoch runs inside the step loop: fence, exchange window
//! loads with ring neighbors, let the diffusion balancer propose moves,
//! ship brick interiors in manifest frames, then rediscover the sparse
//! exchange plan with NBX consensus ([`crate::plan`]) — no global
//! alltoall anywhere on the path.
//!
//! The driver runs through [`packfree::checkpoint::drive`], so the same
//! buddy-checkpoint/recovery machinery that protects the static brick
//! engines protects migration: snapshots capture ownership, the
//! exchange plan, the balancer's cost window and the migration
//! accounting alongside the physics, and a rank killed mid-epoch is
//! restored to a state whose replay re-proposes the identical moves.
//!
//! Headline invariant (enforced by the proptest suite): the migrated
//! run's checksum is bit-identical to the static run's, across engines,
//! backends, and chaos schedules.

use std::collections::BTreeMap;
use std::time::Duration;

use netsim::telemetry::{BrickCosts, MigrationStats, OverlapStats, Timeline};
use netsim::{
    run_cluster_on, Backend, CartTopo, FaultConfig, FaultEvent, FaultStats, NetsimError,
    NetworkModel, RankCtx, RecvHandle, TimerSummary, Timers,
};
use packfree::checkpoint::{drive, DriveOp, FailureRecovery, RecoveryCfg};
use packfree::experiment::MethodReport;
use packfree::{ExchangeStats, Ownership};
use sched::DepGraph;

use crate::balance::propose_moves;
use crate::plan::{discover_plan, ExchangePlan, REB_NS};
use crate::workload::{brick_sum, fold_checksum, init_brick, relax, GridCfg};

/// Rank-0 fence join tokens opening a migration epoch.
const FENCE_JOIN: u64 = REB_NS;
/// Rank-0 fence release tokens.
const FENCE_REL: u64 = REB_NS | 1;
/// Window-load exchange with ring neighbors.
const LOAD_TAG: u64 = REB_NS | 2;
/// Migration manifests: `[count, (brick, cells…)…]`.
const MANIFEST_TAG: u64 = REB_NS | 3;
/// Data-plane halo frames (one per partner per step; subject to the
/// fault plan like any other data traffic).
const HALO_TAG: u64 = 0x4A10_0000;

/// One rebalanced run's configuration.
#[derive(Clone, Debug)]
pub struct RebalanceCfg {
    /// The global brick grid and its cost skew.
    pub grid: GridCfg,
    /// Rank grid (its product is the cluster size; the diffusion ring
    /// runs over linear rank order).
    pub ranks: Vec<usize>,
    /// Timed steps.
    pub steps: usize,
    /// Untimed warmup steps (timers reset at the boundary; migration
    /// epochs run in both regions).
    pub warmup: usize,
    /// Migration-epoch period in steps; 0 keeps ownership static.
    pub migrate_every: usize,
    /// Relative load-gap dead band below which a pair does not trade.
    pub min_gain: f64,
    /// Wire model.
    pub net: NetworkModel,
    /// Rank execution substrate.
    pub backend: Backend,
    /// Seeded fault injection. Lossy plans (drop/corrupt/dup) are
    /// rejected — the halo path has no retry protocol; kill/stall/
    /// delay/jitter are supported.
    pub faults: FaultConfig,
    /// Buddy-checkpoint interval (0 = off; a kill schedule forces it).
    pub checkpoint_every: usize,
    /// Record per-rank timelines (including per-brick cost counters).
    pub profile: bool,
    /// Drive steps through the dependency graph (compute interior
    /// bricks while halos are in flight) instead of the phased
    /// exchange-then-compute schedule.
    pub overlap: bool,
}

impl RebalanceCfg {
    /// Defaults over `grid` on `ranks`: 4 timed steps after 1 warmup,
    /// static ownership, Theta's Aries wire, no faults.
    pub fn new(grid: GridCfg, ranks: Vec<usize>) -> RebalanceCfg {
        RebalanceCfg {
            grid,
            ranks,
            steps: 4,
            warmup: 1,
            migrate_every: 0,
            min_gain: 0.05,
            net: NetworkModel::theta_aries(),
            backend: Backend::from_env(),
            faults: FaultConfig::off(),
            checkpoint_every: 0,
            profile: false,
            overlap: false,
        }
    }
}

/// Per-brick double buffer plus the migratable balancer state one rank
/// carries between steps.
struct RankState {
    view: Ownership,
    cur: BTreeMap<u32, Vec<f64>>,
    nxt: BTreeMap<u32, Vec<f64>>,
    ghosts: BTreeMap<u32, Vec<f64>>,
    plan: ExchangePlan,
    graph: DepGraph,
    costs: BrickCosts,
    mig: MigrationStats,
    window_steps: usize,
}

/// What each rank hands back to the host-side fold.
struct RankOut {
    timers: Timers,
    pairs: Vec<(u32, f64)>,
    owned: Vec<u32>,
    mig: MigrationStats,
    timeline: Timeline,
    faults: FaultStats,
    events: Vec<FaultEvent>,
    recovery: FailureRecovery,
    interior_secs: f64,
    wire_secs: f64,
}

/// Run the rebalanced relaxation and report it in the shared
/// [`MethodReport`] shape (with [`MethodReport::migration`] populated).
pub fn run_rebalance(cfg: &RebalanceCfg) -> MethodReport {
    assert!(
        cfg.faults.drop == 0.0 && cfg.faults.corrupt == 0.0 && cfg.faults.dup == 0.0,
        "rebalance halos carry no retry protocol — lossy fault plans \
         (drop/corrupt/dup) are not supported; use delay/jitter/kill/stall"
    );
    let n: usize = cfg.ranks.iter().product();
    assert!(n > 0, "empty rank grid");
    assert!(
        !cfg.faults.proc_active() || n >= 2,
        "process faults need a buddy: at least 2 ranks"
    );
    assert!(cfg.grid.nbricks() > 0 && cfg.grid.cells > 0, "empty grid");
    assert!(cfg.steps > 0, "need at least one timed step");

    let topo = CartTopo::new(&cfg.ranks, true);
    let outs: Vec<RankOut> = run_cluster_on(
        cfg.backend,
        &topo,
        cfg.net,
        cfg.faults,
        |ctx| rank_body(cfg, ctx),
    );
    fold_report(cfg, n, outs)
}

fn rank_body(cfg: &RebalanceCfg, ctx: &mut RankCtx<'_>) -> RankOut {
    let me = ctx.rank() as u32;
    let n = ctx.size();
    let grid = cfg.grid;
    if cfg.profile {
        ctx.enable_profiling();
    }
    if ctx.fault_active() {
        ctx.set_recv_timeout(Some(Duration::from_secs(5)));
    }

    let mut view = Ownership::block(grid.nbricks(), n);
    let owned_ids = view.owned_by(me);
    let cur: BTreeMap<u32, Vec<f64>> =
        owned_ids.iter().map(|&b| (b, init_brick(&grid, b))).collect();
    let nxt: BTreeMap<u32, Vec<f64>> =
        owned_ids.iter().map(|&b| (b, vec![0.0; grid.cells])).collect();
    let mut mig = MigrationStats::default();
    // The static wiring every run starts from. Kills are armed per
    // driver step, so setup discovery runs on a healthy cluster — but a
    // *respawned* rank comes back on a still-revoked communicator and
    // goes straight into the recovery epoch, which restores the plan
    // and view from its buddy's checkpoint; it must not rediscover.
    let plan = if ctx.incarnation() == 0 {
        let (plan, st) = discover_plan(ctx, &mut view, &owned_ids, &grid)
            .expect("setup discovery failed before any fault could be armed");
        absorb_discovery(&mut mig, &st);
        plan
    } else {
        ExchangePlan::default()
    };
    // Same deal for the dependency graph: a respawn's placeholder plan
    // cannot gate anything; DriveOp::Rebuild derives the real one after
    // the restore.
    let graph = if ctx.incarnation() == 0 {
        build_graph(&grid, &cur, &plan)
    } else {
        DepGraph::from_deps(grid.nbricks(), 0, [])
    };
    let mut state = RankState {
        view,
        cur,
        nxt,
        ghosts: BTreeMap::new(),
        plan,
        graph,
        costs: BrickCosts::new(grid.nbricks()),
        mig,
        window_steps: 0,
    };

    let mut interior_secs = 0.0f64;
    let rcfg = RecoveryCfg {
        steps: cfg.warmup + cfg.steps,
        checkpoint_every: cfg.checkpoint_every,
        proc_faults: cfg.faults.proc_active(),
    };
    let mut body = |ctx: &mut RankCtx<'_>, op: DriveOp<'_>| -> Result<(), NetsimError> {
        match op {
            DriveOp::Step(step) => {
                if step == cfg.warmup {
                    ctx.reset_timers();
                    interior_secs = 0.0;
                }
                if cfg.migrate_every > 0
                    && n > 1
                    && step > 0
                    && step % cfg.migrate_every == 0
                {
                    migration_epoch(ctx, cfg, &mut state)?;
                }
                let timed = step >= cfg.warmup;
                step_once(ctx, cfg, &mut state, timed, &mut interior_secs)?;
                state.window_steps += 1;
                Ok(())
            }
            DriveOp::Snapshot(buf) => {
                snapshot(&state, buf);
                Ok(())
            }
            DriveOp::Restore(data) => {
                restore(&mut state, &grid, data);
                Ok(())
            }
            DriveOp::Rebuild => {
                // Plan and view came back with the snapshot, so the
                // rebuild is local: re-derive the dependency graph and
                // invalidate ghost copies the torn step may have
                // half-written.
                state.graph = build_graph(&grid, &state.cur, &state.plan);
                state.ghosts.clear();
                Ok(())
            }
        }
    };
    let recovery = drive(ctx, &rcfg, &mut body).expect("rebalance drive failed");

    let timers = ctx.timers().per_step(cfg.steps);
    let wire_secs = ctx.timers().call + ctx.timers().wait;
    RankOut {
        timers,
        pairs: state.cur.iter().map(|(&b, c)| (b, brick_sum(c))).collect(),
        owned: state.cur.keys().copied().collect(),
        mig: state.mig,
        timeline: ctx.take_timeline(),
        faults: ctx.fault_stats(),
        events: ctx.take_fault_events(),
        recovery,
        interior_secs,
        wire_secs,
    }
}

fn absorb_discovery(mig: &mut MigrationStats, st: &netsim::NbxStats) {
    mig.nbx_rounds += 1;
    mig.nbx_data_msgs += st.data_msgs;
    mig.nbx_barrier_msgs += st.barrier_msgs;
}

/// One migration epoch: fence → load exchange → diffusion proposal →
/// manifests → NBX rediscovery → graph rebuild.
fn migration_epoch(
    ctx: &mut RankCtx<'_>,
    cfg: &RebalanceCfg,
    state: &mut RankState,
) -> Result<(), NetsimError> {
    let me = ctx.rank();
    let n = ctx.size();
    let grid = cfg.grid;

    // Fence through rank 0 so no rank starts trading while a peer is
    // still inside the previous step's exchange.
    if me == 0 {
        let joins: Vec<RecvHandle> =
            (1..n).map(|src| ctx.irecv(src, FENCE_JOIN)).collect::<Result<_, _>>()?;
        for h in joins {
            let msg = ctx.recv_blocking(h)?;
            ctx.recycle(msg);
        }
        for dst in 1..n {
            ctx.isend(dst, FENCE_REL, &[1.0])?;
        }
    } else {
        ctx.isend(0, FENCE_JOIN, &[me as f64])?;
        let h = ctx.irecv(0, FENCE_REL)?;
        let msg = ctx.recv_blocking(h)?;
        ctx.recycle(msg);
    }

    // Window loads with the diffusion ring (right first, then left).
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let nbrs: Vec<usize> = if n == 2 { vec![right] } else { vec![right, left] };
    let my_load = state.costs.load(state.cur.keys());
    for &p in &nbrs {
        ctx.isend(p, LOAD_TAG, &[my_load])?;
    }
    let mut nb_loads = Vec::with_capacity(nbrs.len());
    for &p in &nbrs {
        let h = ctx.irecv(p, LOAD_TAG)?;
        let msg = ctx.recv_blocking(h)?;
        nb_loads.push((p as u32, msg.data()[0]));
        ctx.recycle(msg);
    }

    // Imbalance metric: the cost model is closed-form, so the mean rank
    // load is computable locally; only the max needs a reduction.
    let max_load = ctx.allreduce_max(my_load)?;
    let mean = grid.total_cost() * state.window_steps as f64 / n as f64;
    let imbalance = if mean > 0.0 { max_load / mean } else { 1.0 };
    if state.mig.imbalance_initial == 0.0 {
        state.mig.imbalance_initial = imbalance;
    }
    state.mig.imbalance_final = imbalance;

    // Propose and apply this rank's outgoing moves.
    let owned_costs: Vec<(u32, f64)> =
        state.cur.keys().map(|&b| (b, state.costs.window(b))).collect();
    let moves = propose_moves(my_load, &nb_loads, &owned_costs, cfg.min_gain);
    let mut outgoing: BTreeMap<usize, Vec<u32>> =
        nbrs.iter().map(|&p| (p, Vec::new())).collect();
    for mv in &moves {
        outgoing
            .get_mut(&(mv.dest as usize))
            .expect("diffusion proposed a move outside the ring")
            .push(mv.brick);
    }
    for (&dest, ids) in &outgoing {
        let mut frame = Vec::with_capacity(1 + ids.len() * (1 + grid.cells));
        frame.push(f64::from_bits(ids.len() as u64));
        for &b in ids {
            let cells = state
                .cur
                .remove(&b)
                .unwrap_or_else(|| panic!("migrating brick {b} this rank does not hold"));
            state.nxt.remove(&b);
            frame.push(f64::from_bits(u64::from(b)));
            state.mig.bricks_moved += 1;
            state.mig.bytes_moved += (cells.len() * std::mem::size_of::<f64>()) as u64;
            frame.extend_from_slice(&cells);
            // Forwarding pointer: future requests for this brick chase
            // the migration trail through here.
            state.view.set_owner(b, dest as u32);
        }
        ctx.isend(dest, MANIFEST_TAG, &frame)?;
    }
    for &p in &nbrs {
        let h = ctx.irecv(p, MANIFEST_TAG)?;
        let msg = ctx.recv_blocking(h)?;
        let data = msg.data();
        let k = data[0].to_bits() as usize;
        let mut at = 1usize;
        for _ in 0..k {
            let b = data[at].to_bits() as u32;
            at += 1;
            state.cur.insert(b, data[at..at + grid.cells].to_vec());
            at += grid.cells;
            state.nxt.insert(b, vec![0.0; grid.cells]);
            state.view.set_owner(b, me as u32);
        }
        ctx.recycle(msg);
    }
    ctx.flush_epoch();

    // Rewire: new epoch, fresh sparse plan, fresh balancer window.
    state.view.advance_epoch();
    let owned_ids: Vec<u32> = state.cur.keys().copied().collect();
    let (plan, st) = discover_plan(ctx, &mut state.view, &owned_ids, &grid)?;
    state.plan = plan;
    state.mig.epochs += 1;
    absorb_discovery(&mut state.mig, &st);
    state.costs.harvest();
    state.window_steps = 0;
    state.ghosts.clear();
    state.graph = build_graph(&grid, &state.cur, &state.plan);
    Ok(())
}

/// One relaxation step over the current plan (phased or dependency-
/// graph schedule; identical numerics either way).
fn step_once(
    ctx: &mut RankCtx<'_>,
    cfg: &RebalanceCfg,
    state: &mut RankState,
    timed: bool,
    interior_secs: &mut f64,
) -> Result<(), NetsimError> {
    let grid = cfg.grid;
    for (partner, ids) in &state.plan.send {
        let mut frame = Vec::with_capacity(ids.len() * grid.cells);
        for b in ids {
            frame.extend_from_slice(&state.cur[b]);
        }
        ctx.isend(*partner, HALO_TAG, &frame)?;
    }

    if cfg.overlap {
        let mut handles: Vec<Option<RecvHandle>> = state
            .plan
            .recv
            .iter()
            .map(|(p, _)| ctx.irecv(*p, HALO_TAG).map(Some))
            .collect::<Result<_, _>>()?;
        // Interior bricks hide the wire: everything ready at step begin.
        let ready0 = state.graph.begin_step().to_vec();
        for b in ready0 {
            if state.cur.contains_key(&b) {
                compute_brick(ctx, &grid, state, b);
                if timed {
                    *interior_secs += grid.cost(b);
                }
            }
        }
        let mut outstanding = handles.iter().filter(|h| h.is_some()).count();
        let mut ready: Vec<u32> = Vec::new();
        while outstanding > 0 {
            let mut progressed = false;
            for (slot, hslot) in handles.iter_mut().enumerate() {
                let Some(h) = *hslot else { continue };
                let Some(msg) = ctx.try_wait(h) else { continue };
                scatter_ghosts(state, slot, msg.data(), grid.cells);
                ctx.recycle(msg);
                *hslot = None;
                outstanding -= 1;
                progressed = true;
                state.graph.complete(slot, &mut ready);
                for b in ready.drain(..) {
                    compute_brick(ctx, &grid, state, b);
                }
            }
            if !progressed && !ctx.recovering() {
                if let Some(e) = ctx.rank_failure() {
                    return Err(e);
                }
            }
        }
        debug_assert_eq!(state.graph.pending(), 0, "boundary bricks left ungated");
    } else {
        let handles: Vec<RecvHandle> = state
            .plan
            .recv
            .iter()
            .map(|(p, _)| ctx.irecv(*p, HALO_TAG))
            .collect::<Result<_, _>>()?;
        for (slot, h) in handles.into_iter().enumerate() {
            let msg = ctx.recv_blocking(h)?;
            scatter_ghosts(state, slot, msg.data(), grid.cells);
            ctx.recycle(msg);
        }
        let bricks: Vec<u32> = state.cur.keys().copied().collect();
        for b in bricks {
            compute_brick(ctx, &grid, state, b);
        }
    }
    ctx.flush_epoch();
    std::mem::swap(&mut state.cur, &mut state.nxt);
    Ok(())
}

/// Unpack one partner's halo frame into the ghost store (cells arrive
/// in the plan's id-sorted order).
fn scatter_ghosts(state: &mut RankState, slot: usize, data: &[f64], cells: usize) {
    let (partner, ids) = &state.plan.recv[slot];
    assert_eq!(
        data.len(),
        ids.len() * cells,
        "halo frame from rank {partner} has the wrong shape"
    );
    for (i, &b) in ids.iter().enumerate() {
        state.ghosts.insert(b, data[i * cells..(i + 1) * cells].to_vec());
    }
}

/// Relax one owned brick, charging its modeled cost to the virtual
/// clock and the balancer's window.
fn compute_brick(ctx: &mut RankCtx<'_>, grid: &GridCfg, state: &mut RankState, b: u32) {
    let cur = &state.cur;
    let ghosts = &state.ghosts;
    let faces: [&[f64]; 6] = std::array::from_fn(|f| {
        let g = grid.neighbor(b, f);
        cur.get(&g)
            .or_else(|| ghosts.get(&g))
            .unwrap_or_else(|| panic!("brick {b} is missing neighbor {g} (face {f})"))
            .as_slice()
    });
    let out = state
        .nxt
        .get_mut(&b)
        .unwrap_or_else(|| panic!("no output buffer for owned brick {b}"));
    relax(&state.cur[&b], faces, out);
    let cost = grid.cost(b);
    ctx.charge_calc_brick(b, cost);
    state.costs.charge(b, cost);
}

/// Gate each owned boundary brick on the receive slots that supply its
/// ghosts ([`DepGraph::from_deps`] over global brick ids).
fn build_graph(grid: &GridCfg, cur: &BTreeMap<u32, Vec<f64>>, plan: &ExchangePlan) -> DepGraph {
    let mut slot_of: BTreeMap<u32, u32> = BTreeMap::new();
    for (slot, (_, ids)) in plan.recv.iter().enumerate() {
        for &g in ids {
            slot_of.insert(g, slot as u32);
        }
    }
    let deps: Vec<(u32, Vec<u32>)> = cur
        .keys()
        .filter_map(|&b| {
            let mut slots: Vec<u32> = (0..6)
                .filter_map(|f| {
                    let g = grid.neighbor(b, f);
                    if cur.contains_key(&g) {
                        None
                    } else {
                        Some(*slot_of.get(&g).unwrap_or_else(|| {
                            panic!("ghost brick {g} of brick {b} has no supplier in the plan")
                        }))
                    }
                })
                .collect();
            slots.sort_unstable();
            slots.dedup();
            (!slots.is_empty()).then_some((b, slots))
        })
        .collect();
    DepGraph::from_deps(grid.nbricks(), plan.recv.len(), deps)
}

/// Serialize everything a replayed rank needs to re-propose the same
/// moves: ownership view, balancer window, migration accounting, the
/// live plan, and the brick interiors.
fn snapshot(state: &RankState, buf: &mut Vec<f64>) {
    state.view.encode(buf);
    buf.push(f64::from_bits(state.window_steps as u64));
    state.mig.encode(buf);
    state.costs.encode(buf);
    state.plan.encode(buf);
    buf.push(f64::from_bits(state.cur.len() as u64));
    for (&b, cells) in &state.cur {
        buf.push(f64::from_bits(u64::from(b)));
        buf.extend_from_slice(cells);
    }
}

/// Inverse of [`snapshot`] (wholesale overwrite).
fn restore(state: &mut RankState, grid: &GridCfg, data: &[f64]) {
    let mut at = 0usize;
    let (view, used) = Ownership::decode(data);
    state.view = view;
    at += used;
    state.window_steps = data[at].to_bits() as usize;
    at += 1;
    let (mig, used) = MigrationStats::decode(&data[at..]);
    state.mig = mig;
    at += used;
    let (costs, used) = BrickCosts::decode(&data[at..]);
    state.costs = costs;
    at += used;
    let (plan, used) = ExchangePlan::decode(&data[at..]);
    state.plan = plan;
    at += used;
    let k = data[at].to_bits() as usize;
    at += 1;
    state.cur.clear();
    state.nxt.clear();
    for _ in 0..k {
        let b = data[at].to_bits() as u32;
        at += 1;
        state.cur.insert(b, data[at..at + grid.cells].to_vec());
        at += grid.cells;
        state.nxt.insert(b, vec![0.0; grid.cells]);
    }
    assert_eq!(at, data.len(), "snapshot had trailing bytes");
    state.ghosts.clear();
}

/// Host-side fold of the per-rank outputs into the shared report shape.
fn fold_report(cfg: &RebalanceCfg, n: usize, outs: Vec<RankOut>) -> MethodReport {
    let grid = cfg.grid;
    let nb = grid.nbricks();

    // Final ownership must tile the grid exactly once — the invariant a
    // lost or duplicated migration frame would break.
    let mut owner = vec![u32::MAX; nb];
    for (rank, out) in outs.iter().enumerate() {
        for &b in &out.owned {
            assert_eq!(
                owner[b as usize],
                u32::MAX,
                "brick {b} owned by both rank {} and rank {rank}",
                owner[b as usize]
            );
            owner[b as usize] = rank as u32;
        }
    }
    assert!(
        owner.iter().all(|&r| r != u32::MAX),
        "some bricks ended the run unowned"
    );
    let digest = Ownership::from_owners(owner).digest();

    let checksum =
        fold_checksum(outs.iter().flat_map(|o| o.pairs.iter().copied()).collect());
    let mut mig = MigrationStats::default();
    let mut faults = FaultStats::default();
    let mut recovery = FailureRecovery::default();
    let mut events = Vec::new();
    for out in &outs {
        mig.merge(&out.mig);
        faults.merge(&out.faults);
        recovery.merge(&out.recovery);
        events.extend(out.events.iter().cloned());
    }
    mig.ownership_digest = digest;

    let spread = |f: fn(&Timers) -> f64| {
        let vals: Vec<f64> = outs.iter().map(|o| f(&o.timers)).collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (min, vals.iter().sum::<f64>() / vals.len() as f64, max)
    };
    let summary = TimerSummary {
        calc: spread(|t| t.calc),
        pack: spread(|t| t.pack),
        call: spread(|t| t.call),
        wait: spread(|t| t.wait),
    };

    let messages = outs[0].timers.msgs as usize;
    let payload_bytes = outs[0].timers.payload_bytes as usize;
    let wire_bytes = outs[0].timers.wire_bytes as usize;
    let stats = ExchangeStats {
        messages,
        payload_bytes,
        wire_bytes,
        region_instances: messages,
        ..ExchangeStats::default()
    };

    let interior = outs[0].interior_secs;
    let wire = outs[0].wire_secs;
    let overlap_stats = cfg.overlap.then(|| OverlapStats {
        hidden_wire: interior.min(wire),
        total_wire: wire,
        ..OverlapStats::default()
    });

    MethodReport {
        timers: outs[0].timers,
        stats,
        points: (nb * grid.cells / n) as u64,
        overlap: cfg.overlap,
        checksum,
        summary,
        calc_hidden: if cfg.overlap { interior / cfg.steps as f64 } else { 0.0 },
        faults,
        fault_events: events,
        timelines: if cfg.profile {
            outs.into_iter().map(|o| o.timeline).collect()
        } else {
            Vec::new()
        },
        fault_seed: cfg.faults.is_active().then_some(cfg.faults.seed),
        overlap_stats,
        recovery,
        migration: Some(mig),
        mapping: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(migrate: usize) -> RebalanceCfg {
        let mut cfg = RebalanceCfg::new(
            GridCfg { dims: [4, 2, 2], cells: 8, skew: 6.0 },
            vec![4],
        );
        cfg.steps = 6;
        cfg.warmup = 2;
        cfg.migrate_every = migrate;
        cfg.backend = Backend::Thread;
        cfg.net = NetworkModel::instant();
        cfg
    }

    #[test]
    fn static_run_reports_no_epochs() {
        let r = run_rebalance(&small(0));
        let m = r.migration.expect("rebalance always reports migration stats");
        assert_eq!(m.epochs, 0);
        assert_eq!(m.bricks_moved, 0);
        assert!(m.nbx_rounds >= 1, "setup discovery counts");
        assert!(r.checksum.is_finite());
    }

    #[test]
    fn migrated_run_matches_static_bits_and_moves_bricks() {
        let stat = run_rebalance(&small(0));
        let mig = run_rebalance(&small(2));
        let m = mig.migration.unwrap();
        assert!(m.epochs >= 1);
        assert!(m.bricks_moved > 0, "skew 6 must trigger migration");
        assert_eq!(
            stat.checksum.to_bits(),
            mig.checksum.to_bits(),
            "migration changed the physics"
        );
        assert!(m.imbalance_initial > 1.0);
        assert_ne!(
            m.ownership_digest,
            stat.migration.unwrap().ownership_digest,
            "bricks moved, so the final ownership digests must differ"
        );
    }

    #[test]
    fn overlap_engine_matches_phased_bits() {
        let phased = small(2);
        let mut dag = small(2);
        dag.overlap = true;
        let a = run_rebalance(&phased);
        let b = run_rebalance(&dag);
        assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
        assert_eq!(
            a.migration.unwrap().ownership_digest,
            b.migration.unwrap().ownership_digest
        );
        assert!(b.overlap_stats.is_some() && a.overlap_stats.is_none());
    }

    #[test]
    fn single_rank_runs_degenerate() {
        let mut cfg = small(2);
        cfg.ranks = vec![1];
        let r = run_rebalance(&cfg);
        assert_eq!(r.migration.unwrap().epochs, 0, "no ring to trade on");
        assert!(r.checksum.is_finite());
    }

    #[test]
    #[should_panic(expected = "lossy fault plans")]
    fn lossy_faults_are_rejected() {
        let mut cfg = small(2);
        cfg.faults = FaultConfig { seed: 1, drop: 0.5, ..FaultConfig::off() };
        run_rebalance(&cfg);
    }
}
