//! Per-rank step engines: everything that differs between the evaluated
//! methods — the double-buffered grid and the exchange bound to it —
//! behind one trait, [`RankEngine`], so [`crate::experiment`] times them
//! all with the same step loop. Every brick method runs one engine,
//! [`Bricks`], over the one brick exchange
//! ([`ExchangeSession`]) cut from its [`Exchanger`]; the methods
//! differ only in that schedule. The array baselines run [`Arrays`], the
//! dynamic-ownership proxy `Migrating`. DESIGN.md maps methods to
//! engines and schedules.

use brick::BrickStorage;
use netsim::telemetry::Phase;
use netsim::{NetsimError, RankCtx};
use sched::{DepGraph, SendPriority};
use stencil::{ArrayGrid, ArrayPlan, KernelPlan, PlanSplit};

use crate::baselines::{ArrayExchanger, Flavor};
use crate::decomp::BrickDecomp;
use crate::exchange::{Exchanger, ExchangeSession, ExchangeStats};
use crate::experiment::{CpuMethod, ExperimentConfig};
use crate::memmap::MemMapStorage;
use crate::plan::{Call, CommPlan};

/// What a split-phase engine hands the dependency-graph scheduler when
/// it is armed: per mailbox receive (in completion-index order) the
/// ghost bricks it fills, and the destination-priority classes of a
/// partitioned run.
pub(crate) type SplitSetup = (Vec<Vec<u32>>, Option<SendPriority>);

/// One rank's double-buffered grid and the exchange bound to it. Every
/// engine implements every schedule the step driver runs: phased
/// (`exchange`, then `compute` of everything), the dependency graph
/// (`arm_split`, `split_graph`, `begin`/`poll`/`finish` around masked
/// `compute`s, `pready` when partitioned) and the resilient harness
/// (`snapshot`, `restore`, `rebuild`).
pub(crate) trait RankEngine {
    /// Traffic of one exchange.
    fn stats(&self) -> ExchangeStats;
    /// Sum of the current grid's interior.
    fn checksum(&self) -> f64;
    /// One whole ghost-zone exchange of the current grid.
    fn exchange(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError>;
    /// Apply the stencil from the current grid into the next one, billed
    /// to `calc`: over the bricks of `mask`, or every owned point when
    /// `None`.
    fn compute(&mut self, ctx: &mut RankCtx<'_>, mask: Option<&[bool]>);
    /// The next grid becomes the current one.
    fn advance(&mut self);
    /// Append what this rank owns of the current grid (for the static
    /// engines, [`BrickDecomp::owned_elems`] words) to `buf`.
    fn snapshot(&self, buf: &mut Vec<f64>);
    /// Roll the current grid's owned state back to a snapshot. The ghost
    /// rim and the next grid are left for the replayed step to refill.
    fn restore(&mut self, data: &[f64]);
    /// Recreate the exchange state a failed step may have torn (the
    /// caller re-arms the split phase afterwards).
    fn rebuild(&mut self, ctx: &mut RankCtx<'_>);
    /// Act before timestep `step`. `Ok(true)` means the exchange changed
    /// shape (ownership migrated) and the step plan must be bound again.
    fn before_step(&mut self, _ctx: &mut RankCtx<'_>, _step: usize) -> Result<bool, NetsimError> {
        Ok(false)
    }
    /// What the dependency-graph schedule runs on: the interior/boundary
    /// split of the compute set, and the graph gating each boundary brick
    /// on the receives (`recv_ghosts`, from [`RankEngine::arm_split`])
    /// that fill the ghosts it reads.
    fn split_graph(&self, recv_ghosts: &[Vec<u32>]) -> (PlanSplit, DepGraph);
    /// Prepare for `begin`/`poll`/`finish`: bind the schedule to this
    /// rank and, when `partitioned`, open the persistent channels.
    fn arm_split(&mut self, ctx: &mut RankCtx<'_>, partitioned: bool) -> SplitSetup;
    /// Post the exchange of the current grid without waiting; indices of
    /// receives already complete are appended to `completed`.
    fn begin(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<(), NetsimError>;
    /// Drain what has arrived; returns how many receives newly completed.
    fn poll(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<usize, NetsimError>;
    /// Block on the outstanding receives and close the epoch.
    fn finish(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError>;
    /// Mark bricks just computed into the *next* grid ready on the next
    /// step's partitioned channels. A no-op by default: the array and
    /// migrating engines send packed buffers or staged frames, not
    /// storage bricks, so they open no channels (and refuse `partitioned`).
    fn pready(&mut self, _ctx: &mut RankCtx<'_>, _bricks: &[u32]) -> Result<(), NetsimError> {
        Ok(())
    }
}

/// [`RankEngine::split_graph`] of an engine that computes a decomposition's
/// bricks: each boundary brick waits on the receives filling its neighbours.
fn decomp_split(decomp: &BrickDecomp<3>, recv_ghosts: &[Vec<u32>]) -> (PlanSplit, DepGraph) {
    let split = PlanSplit::new(&decomp.interior_mask(), decomp.compute_mask());
    let graph = DepGraph::build(decomp.brick_info(), split.boundary(), recv_ghosts);
    (split, graph)
}

fn init_value(x: i64, y: i64, z: i64) -> f64 {
    (((x * 3 + y * 5 + z * 7).rem_euclid(17)) as f64) / 16.0
}

/// Fill a brick storage's interior with [`init_value`].
fn fill_bricks(decomp: &BrickDecomp<3>, st: &mut BrickStorage) {
    crate::fields::fill_interior(decomp, st, 0, |c| init_value(c[0] as i64, c[1] as i64, c[2] as i64));
}

/// Every brick method's engine: the decomposition, its kernel plan and
/// two grids, `grids[0]` the current one, exchanged as the method's
/// [`Exchanger`] says.
pub(crate) struct Bricks<'a> {
    decomp: &'a BrickDecomp<3>,
    kernel: KernelPlan,
    /// One exchange for both heap grids (ranges index either), or one
    /// per mapped grid (views alias the memory of one grid): grid `g` is
    /// moved by exchange `g % len`. Advancing swaps the grids and, one
    /// per grid, these with them. They drop before the grids, so a
    /// mapped grid finds no view of its file left and goes back to the
    /// pool of mapped grids.
    ex: Vec<ExchangeSession>,
    grids: [BrickStorage; 2],
}

impl<'a> Bricks<'a> {
    /// Allocate the two grids — mapped when the schedule has views —
    /// and cut and bind the exchanges moving them.
    pub(crate) fn new(
        cfg: &ExperimentConfig,
        decomp: &'a BrickDecomp<3>,
        schedule: &Exchanger,
        ctx: &RankCtx<'_>,
    ) -> Bricks<'a> {
        let kernel = KernelPlan::new(decomp.brick_info(), &cfg.shape, 1, 0);
        let (mut grids, mut ex) = if schedule.has_views() {
            let grids = [(); 2].map(|()| MemMapStorage::allocate(decomp).expect("memfd allocation"));
            let ex = grids.iter().map(|g| ExchangeSession::new(schedule, Some(g)).expect("view construction"));
            let ex = ex.collect();
            (grids.map(|g| g.storage), ex)
        } else {
            let ex = ExchangeSession::new(schedule, None).expect("ranges map nothing");
            ([decomp.allocate(), decomp.allocate()], vec![ex])
        };
        for (g, ex) in ex.iter_mut().enumerate() {
            ex.ensure_bound(ctx, &grids[g]);
        }
        fill_bricks(decomp, &mut grids[0]);
        Bricks { decomp, kernel, grids, ex }
    }

    /// What one exchange of this rank sends: [`CommPlan::edges`].
    pub(crate) fn edges(mut self) -> Vec<(usize, u64)> {
        self.ex[0].plans().iter().flat_map(CommPlan::edges).collect()
    }

    /// Make `call` on grid `g` (0 current, 1 next).
    fn call(&mut self, ctx: &mut RankCtx<'_>, g: usize, call: Call<'_>) -> Result<usize, NetsimError> {
        let n = self.ex.len();
        self.ex[g % n].call(ctx, &mut self.grids[g], call)
    }
}

impl RankEngine for Bricks<'_> {
    fn stats(&self) -> ExchangeStats {
        self.ex[0].stats()
    }

    fn checksum(&self) -> f64 {
        crate::fields::interior_sum(self.decomp, &self.grids[0], 0)
    }

    fn exchange(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        self.call(ctx, 0, Call::Exchange).map(drop)
    }

    fn compute(&mut self, ctx: &mut RankCtx<'_>, mask: Option<&[bool]>) {
        let [cur, nxt] = &mut self.grids;
        let mask = mask.unwrap_or(self.decomp.compute_mask());
        ctx.time(Phase::Compute, |rec| self.kernel.execute_profiled(cur, nxt, mask, rec));
    }

    fn advance(&mut self) {
        self.grids.swap(0, 1);
        self.ex.reverse();
    }

    /// Appends the current grid's owned prefix, ahead of the ghost rim.
    fn snapshot(&self, buf: &mut Vec<f64>) {
        buf.extend_from_slice(&self.grids[0].as_slice()[..self.decomp.owned_elems()]);
    }

    /// Every schedule refills a ghost brick before reading it and writes
    /// every owned brick of the next grid before the swap, so neither is
    /// restored; test and debug builds poison both, turning a schedule
    /// that does read stale state into a NaN checksum instead of a
    /// silent dependency.
    fn restore(&mut self, data: &[f64]) {
        let [cur, nxt] = &mut self.grids;
        let (owned, ghosts) = cur.as_mut_slice().split_at_mut(self.decomp.owned_elems());
        owned.copy_from_slice(data);
        if cfg!(any(test, debug_assertions)) {
            ghosts.fill(f64::NAN);
            nxt.as_mut_slice().fill(f64::NAN);
        }
    }

    /// Only the protocol state was torn: the plans are reset, and the
    /// grids and any views over them stay as they are.
    fn rebuild(&mut self, _ctx: &mut RankCtx<'_>) {
        self.ex.iter_mut().flat_map(|ex| ex.plans()).for_each(CommPlan::reset);
    }

    fn split_graph(&self, recv_ghosts: &[Vec<u32>]) -> (PlanSplit, DepGraph) {
        decomp_split(self.decomp, recv_ghosts)
    }

    /// Every exchange is armed up front, so the partitioned channels of
    /// per-grid exchanges survive the swaps; all carry one schedule.
    fn arm_split(&mut self, _ctx: &mut RankCtx<'_>, partitioned: bool) -> SplitSetup {
        let mut setups = self.ex.iter_mut().map(|ex| ex.arm(self.decomp, partitioned)).collect::<Vec<_>>();
        setups.swap_remove(0)
    }

    fn begin(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<(), NetsimError> {
        self.call(ctx, 0, Call::Begin(completed)).map(drop)
    }

    fn poll(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<usize, NetsimError> {
        self.call(ctx, 0, Call::Poll(completed))
    }

    fn finish(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        self.call(ctx, 0, Call::Finish).map(drop)
    }

    /// The next grid is the memory the stencil just wrote, so its
    /// exchange feeds the *next* step's channels.
    fn pready(&mut self, ctx: &mut RankCtx<'_>, bricks: &[u32]) -> Result<(), NetsimError> {
        self.call(ctx, 1, Call::Pready(bricks)).map(drop)
    }
}

/// The lexicographic-array baselines: explicit pack/unpack (YASK) or a
/// library-internal datatype walk (MPI_Types) around the same transport.
/// The method's brick decomposition is the arrays' map of 8³ tiles, so
/// the overlap schedule's masks, graph and ghost groups are the brick
/// engines' own.
pub(crate) struct Arrays<'a> {
    decomp: &'a BrickDecomp<3>,
    cur: ArrayGrid,
    nxt: ArrayGrid,
    /// Geometry is fixed for the whole run, so the tap-offset plan is
    /// compiled once and replayed every step.
    plan: ArrayPlan,
    exchanger: ArrayExchanger,
}

impl<'a> Arrays<'a> {
    pub(crate) fn new(cfg: &ExperimentConfig, decomp: &'a BrickDecomp<3>) -> Arrays<'a> {
        let mut cur = ArrayGrid::new(cfg.subdomain, cfg.ghost);
        let nxt = ArrayGrid::new(cfg.subdomain, cfg.ghost);
        cur.fill_interior(|x, y, z| init_value(x as i64, y as i64, z as i64));
        let plan = cur.plan(&cfg.shape);
        let flavor = if cfg.method == CpuMethod::MpiTypes { Flavor::Datatypes } else { Flavor::Packed };
        let exchanger = ArrayExchanger::new(&cur, flavor);
        Arrays { decomp, cur, nxt, plan, exchanger }
    }

    /// What one exchange of this rank sends: [`CommPlan::edges`].
    pub(crate) fn edges(&self) -> Vec<(usize, u64)> {
        self.exchanger.plans().flat_map(CommPlan::edges).collect()
    }
}

impl RankEngine for Arrays<'_> {
    fn stats(&self) -> ExchangeStats {
        self.exchanger.stats()
    }

    fn checksum(&self) -> f64 {
        self.cur.interior_sum()
    }

    fn exchange(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        self.exchanger.exchange(ctx, &mut self.cur)
    }

    fn compute(&mut self, ctx: &mut RankCtx<'_>, mask: Option<&[bool]>) {
        let decomp = self.decomp;
        let Arrays { cur, nxt, plan, .. } = self;
        let ([mx, my, _], g) = (decomp.owned_bricks(), decomp.ghost_bricks());
        // Tile `t` of the array is the owned brick at the same place.
        let tiles = mask.map(|m| move |t: usize| {
            m[decomp.brick_at([t % mx + g[0], t / mx % my + g[1], t / (mx * my) + g[2]]) as usize]
        });
        let edge = decomp.brick_dims().extent(0);
        ctx.scoped("kernel:array", |ctx| ctx.time(Phase::Compute, |_| cur.apply_tiles_into(plan, nxt, edge, tiles)));
    }

    fn advance(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.nxt);
    }

    fn snapshot(&self, buf: &mut Vec<f64>) {
        self.cur.interior_rows().for_each(|r| buf.extend_from_slice(&self.cur.as_slice()[r]));
    }

    /// Poisons the ghost rim and the next grid like the brick engine's.
    fn restore(&mut self, data: &[f64]) {
        if cfg!(any(test, debug_assertions)) {
            self.cur.as_mut_slice().fill(f64::NAN);
            self.nxt.as_mut_slice().fill(f64::NAN);
        }
        let rows = self.cur.interior_rows().zip(data.chunks_exact(self.cur.interior()[0]));
        rows.for_each(|(r, src)| self.cur.as_mut_slice()[r].copy_from_slice(src));
    }

    fn rebuild(&mut self, _ctx: &mut RankCtx<'_>) {
        self.exchanger.rebuild();
    }

    fn split_graph(&self, recv_ghosts: &[Vec<u32>]) -> (PlanSplit, DepGraph) {
        decomp_split(self.decomp, recv_ghosts)
    }

    /// Receive `k` fills the ghost tiles of the group facing its sender.
    fn arm_split(&mut self, ctx: &mut RankCtx<'_>, _partitioned: bool) -> SplitSetup {
        let group = |d| self.decomp.ghost_group(d).pieces.iter().flat_map(|p| p.bricks.clone());
        let dirs = self.exchanger.mailbox_dirs(ctx);
        (dirs.iter().map(|d| group(d).map(|b| b as u32).collect()).collect(), None)
    }

    fn begin(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<(), NetsimError> {
        self.exchanger.begin(ctx, &mut self.cur, completed)
    }

    fn poll(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<usize, NetsimError> {
        self.exchanger.poll(ctx, &mut self.cur, completed)
    }

    fn finish(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        self.exchanger.finish(ctx, &mut self.cur)
    }
}

#[cfg(test)]
mod tests {
    use netsim::{run_cluster_faulty, CartTopo, FaultConfig, FaultStats, NetworkModel};

    use super::*;
    use crate::driver::RebalanceCfg;
    use crate::migrating::Migrating;
    use crate::workload::GridCfg;

    /// Three exchanges, a rebuild, three more, on two ranks whose fabric
    /// drops a fifth of the frames: each rank's fault counters at the
    /// rebuild and at the end.
    fn across_a_rebuild<E: RankEngine>(make: impl Fn(&mut RankCtx<'_>) -> E + Sync) -> Vec<(FaultStats, FaultStats)> {
        let faults = FaultConfig { seed: 3, drop: 0.2, ..FaultConfig::off() };
        run_cluster_faulty(&CartTopo::new(&[2, 1, 1], true), NetworkModel::instant(), faults, |ctx| {
            let mut eng = make(ctx);
            let exchange = |eng: &mut E, ctx: &mut RankCtx<'_>| {
                for _ in 0..3 {
                    eng.exchange(ctx).unwrap();
                }
            };
            exchange(&mut eng, ctx);
            let at_rebuild = ctx.fault_stats();
            eng.rebuild(ctx);
            exchange(&mut eng, ctx);
            (at_rebuild, ctx.fault_stats())
        })
    }

    /// Over the whole run, the rebuild included, every resend answers a
    /// dropped frame or repeats one that was only late (whose spare copy
    /// is discarded on arrival), and a drop-only run never degrades:
    /// across the ranks, `retries == drops + duplicates_discarded`, which
    /// is `retries == drops` when no frame was late. The identity holds
    /// whatever the host timing; only counters lost at the rebuild break it.
    fn assert_counted_across_the_rebuild(what: &str, ranks: &[(FaultStats, FaultStats)]) {
        let (mut before, mut total) = (FaultStats::default(), FaultStats::default());
        for (at_rebuild, end) in ranks {
            before.merge(at_rebuild);
            total.merge(end);
        }
        assert!(before.retries > 0, "{what}: seed 3 resends before the rebuild ({before:?})");
        assert_eq!(total.retries, total.drops + total.duplicates_discarded, "{what}: {total:?}");
        assert_eq!(total.degraded_exchanges, 0, "{what}: {total:?}");
    }

    /// [`across_a_rebuild`] of the brick engine over each method's schedule.
    fn brick_engines_across_a_rebuild(methods: &[CpuMethod]) {
        for method in methods {
            let cfg = ExperimentConfig::k1(method.clone(), 16);
            let decomp = cfg.decomp();
            let schedule = method.schedule(&decomp).expect("a brick method");
            let ranks = across_a_rebuild(|ctx| Bricks::new(&cfg, &decomp, &schedule, ctx));
            assert_counted_across_the_rebuild(method.name(), &ranks);
        }
    }

    #[test]
    fn heap_bricks_count_retries_across_a_rebuild() {
        brick_engines_across_a_rebuild(&[CpuMethod::Layout, CpuMethod::Basic, CpuMethod::NoLayout]);
    }

    #[test]
    fn memmap_views_count_retries_across_a_rebuild() {
        brick_engines_across_a_rebuild(&[CpuMethod::MemMap { page_size: memview::PAGE_4K }]);
    }

    #[test]
    fn shift_views_count_retries_across_a_rebuild() {
        brick_engines_across_a_rebuild(&[CpuMethod::Shift { page_size: memview::PAGE_4K }]);
    }

    #[test]
    fn array_engines_count_retries_across_a_rebuild() {
        for method in [CpuMethod::Yask, CpuMethod::MpiTypes] {
            let cfg = ExperimentConfig::k1(method.clone(), 16);
            let decomp = cfg.decomp();
            let ranks = across_a_rebuild(|_| Arrays::new(&cfg, &decomp));
            assert_counted_across_the_rebuild(method.name(), &ranks);
        }
    }

    /// After warm-up, a step of either array engine allocates nothing on
    /// the threads that run ranks — phased or overlapped, on either
    /// backend, over mailbox and loopback receives alike.
    #[test]
    fn array_steps_allocate_nothing_after_warm_up() {
        use crate::alloc_count::{counting_alone, on_rank_thread, rank_thread_allocs};
        use crate::experiment::{Schedule, StepPlan};
        const WARM: usize = 2;
        let _alone = counting_alone();
        let topo = CartTopo::new(&[2, 2, 1], true);
        for method in [CpuMethod::Yask, CpuMethod::MpiTypes] {
            let cfg = ExperimentConfig::k1(method.clone(), 16);
            let decomp = cfg.decomp();
            for backend in [netsim::Backend::Thread, netsim::Backend::Event] {
                for schedule in [Schedule::Phased, Schedule::Dag { partitioned: false }] {
                    let net = NetworkModel::instant();
                    let allocs = netsim::run_cluster_on(backend, &topo, net, FaultConfig::off(), |ctx| {
                        let mut eng = Arrays::new(&cfg, &decomp);
                        let mut plan = StepPlan::bind(schedule, &mut eng, ctx);
                        let mut timer = sched::OverlapTimer::new();
                        // Warm the transport with every frame of the
                        // cluster posted before any is received: each
                        // rank's pool then holds as many buffers as it
                        // can ever have in flight.
                        eng.begin(ctx, &mut Vec::new()).unwrap();
                        ctx.barrier();
                        eng.finish(ctx).unwrap();
                        eng.compute(ctx, None);
                        eng.advance();
                        ctx.barrier();
                        let mut before = 0;
                        for step in 0..WARM + 6 {
                            if step == WARM {
                                before = rank_thread_allocs();
                            }
                            on_rank_thread();
                            plan.step(&mut eng, ctx, &mut timer, false).unwrap();
                            eng.advance();
                            ctx.barrier();
                        }
                        rank_thread_allocs() - before
                    });
                    let what = format!("{method:?} {schedule:?} {backend:?}");
                    assert!(allocs.iter().all(|&a| a == 0), "{what}: allocations per rank {allocs:?}");
                }
            }
        }
    }

    #[test]
    fn migrating_engine_counts_retries_across_a_rebuild() {
        let cfg = RebalanceCfg::new(GridCfg::uniform([4, 2, 2], 16), vec![2, 1, 1]);
        let ranks = across_a_rebuild(|ctx| Migrating::new(&cfg, ctx));
        assert_counted_across_the_rebuild("Migrating", &ranks);
    }
}
