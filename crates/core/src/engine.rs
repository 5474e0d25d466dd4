//! Per-rank step engines: everything that differs between the evaluated
//! methods — the double-buffered grid and the exchange bound to it —
//! behind one trait, so [`crate::experiment`] times them all with the
//! same step loop. The engines delegate to the exchangers' inherent
//! methods; DESIGN.md maps methods to engines and schedules.

use brick::BrickStorage;
use netsim::{NetsimError, RankCtx};
use sched::{DepGraph, SendPriority};
use stencil::{ArrayGrid, ArrayPlan, KernelPlan, PlanSplit};

use crate::baselines::{ArrayExchanger, Flavor};
use crate::decomp::BrickDecomp;
use crate::exchange::{ExchangeSession, ExchangeStats, Exchanger};
use crate::experiment::{CpuMethod, ExperimentConfig};
use crate::memmap::{ExchangeView, MemMapStorage};
use crate::plan::{scoped, CommPlan, InPlace};
use crate::shift::ShiftExchanger;

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

/// One masked stencil application of a rank's [`KernelPlan`] (compiled
/// once before the step loop, untimed, like a real code's setup phase),
/// billed to `calc` through [`KernelPlan::execute_profiled`]: over the
/// bricks of `mask`, or every owned brick when `None`.
fn apply(
    ctx: &mut RankCtx<'_>,
    plan: &KernelPlan,
    decomp: &BrickDecomp<3>,
    cur: &BrickStorage,
    nxt: &mut BrickStorage,
    mask: Option<&[bool]>,
) {
    let mask = mask.unwrap_or(decomp.compute_mask());
    ctx.time_calc_with(|rec| plan.execute_profiled(cur, nxt, mask, rec));
}

fn init_value(x: i64, y: i64, z: i64) -> f64 {
    (((x * 3 + y * 5 + z * 7).rem_euclid(17)) as f64) / 16.0
}

/// Fill a brick storage's interior with [`init_value`].
fn fill_bricks(decomp: &BrickDecomp<3>, st: &mut BrickStorage) {
    crate::fields::fill_interior(decomp, st, 0, |c| init_value(c[0] as i64, c[1] as i64, c[2] as i64));
}

/// Append what the rank owns of `cur` — the storage prefix ahead of the
/// ghost rim — to `buf`.
fn snapshot_owned(decomp: &BrickDecomp<3>, cur: &BrickStorage, buf: &mut Vec<f64>) {
    buf.extend_from_slice(&cur.as_slice()[..decomp.owned_elems()]);
}

/// Roll `cur` back to `data`, a snapshot of its owned prefix. Every
/// schedule refills a ghost brick before reading it and writes every
/// owned brick of `nxt` before the swap, so neither is restored; test
/// and debug builds poison both, turning a schedule that does read stale
/// state into a NaN checksum instead of a silent dependency.
fn restore_owned(decomp: &BrickDecomp<3>, cur: &mut BrickStorage, nxt: &mut BrickStorage, data: &[f64]) {
    let (owned, ghosts) = cur.as_mut_slice().split_at_mut(decomp.owned_elems());
    owned.copy_from_slice(data);
    if cfg!(any(test, debug_assertions)) {
        ghosts.fill(f64::NAN);
        nxt.as_mut_slice().fill(f64::NAN);
    }
}

/// The ghost bricks each receive range fills.
pub(crate) fn ghosts_of(ranges: &[std::ops::Range<usize>], step: usize) -> Vec<Vec<u32>> {
    ranges.iter().map(|r| ((r.start / step) as u32..(r.end / step) as u32).collect()).collect()
}

/// Heap bricks exchanged through one persistent [`ExchangeSession`]:
/// neighbor ranks, tags, ghost ranges and loopback pairings resolved
/// once, reused every step.
pub(crate) struct HeapBricks<'a> {
    decomp: &'a BrickDecomp<3>,
    exchanger: &'a Exchanger,
    session: ExchangeSession,
    kernel: KernelPlan,
    cur: BrickStorage,
    nxt: BrickStorage,
}

impl<'a> HeapBricks<'a> {
    pub(crate) fn new(
        cfg: &ExperimentConfig,
        decomp: &'a BrickDecomp<3>,
        exchanger: &'a Exchanger,
        ctx: &mut RankCtx<'_>,
    ) -> HeapBricks<'a> {
        let kernel = KernelPlan::new(decomp.brick_info(), &cfg.shape, 1, 0);
        let mut cur = decomp.allocate();
        let nxt = decomp.allocate();
        fill_bricks(decomp, &mut cur);
        let session = exchanger.session(ctx);
        HeapBricks { decomp, exchanger, session, kernel, cur, nxt }
    }

    /// What one exchange of this rank sends: [`CommPlan::edges`].
    pub(crate) fn edges(&self) -> Vec<(usize, u64)> {
        self.session.plan().edges().collect()
    }

    /// The plan and the grid it moves — the current one, or the `next`
    /// one the stencil is writing.
    fn bound(&mut self, next: bool) -> (&mut CommPlan, InPlace<'_>) {
        self.session.bound(if next { &mut self.nxt } else { &mut self.cur })
    }
}

impl RankEngine for HeapBricks<'_> {
    fn stats(&self) -> ExchangeStats {
        self.exchanger.stats()
    }

    fn checksum(&self) -> f64 {
        crate::fields::interior_sum(self.decomp, &self.cur, 0)
    }

    fn exchange(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        self.session.exchange(ctx, &mut self.cur)
    }

    fn compute(&mut self, ctx: &mut RankCtx<'_>, mask: Option<&[bool]>) {
        apply(ctx, &self.kernel, self.decomp, &self.cur, &mut self.nxt, mask);
    }

    fn advance(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.nxt);
    }

    fn snapshot(&self, buf: &mut Vec<f64>) {
        snapshot_owned(self.decomp, &self.cur, buf);
    }

    fn restore(&mut self, data: &[f64]) {
        restore_owned(self.decomp, &mut self.cur, &mut self.nxt, data);
    }

    fn rebuild(&mut self, ctx: &mut RankCtx<'_>) {
        self.session = self.exchanger.session(ctx);
    }

    fn split_graph(&self, recv_ghosts: &[Vec<u32>]) -> (PlanSplit, DepGraph) {
        decomp_split(self.decomp, recv_ghosts)
    }

    fn arm_split(&mut self, _ctx: &mut RankCtx<'_>, partitioned: bool) -> SplitSetup {
        let step = self.decomp.step();
        if partitioned {
            self.session.enable_partitioned(step, self.decomp.bricks());
        }
        (ghosts_of(self.session.recv_ranges(), step), self.session.plan().priority().cloned())
    }

    fn begin(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<(), NetsimError> {
        let (plan, mut mem) = self.bound(false);
        plan.begin(ctx, &mut mem, completed)
    }

    fn poll(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<usize, NetsimError> {
        let (plan, mut mem) = self.bound(false);
        plan.poll(ctx, &mut mem, completed)
    }

    fn finish(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
        let (plan, mut mem) = self.bound(false);
        plan.finish(ctx, &mut mem)
    }

    fn pready(&mut self, ctx: &mut RankCtx<'_>, bricks: &[u32]) -> Result<(), NetsimError> {
        let (plan, mem) = self.bound(true);
        plan.pready(ctx, &mem, bricks)
    }
}

/// Two mmap-backed grids, each with its own views; `cur` indexes the
/// current buffer, the other one is next, and advancing flips the index.
/// The current grid's views drive the step's exchange; the next grid's
/// views alias the memory the stencil writes, so `pready` on them feeds
/// the *next* step's partitioned channels.
pub(crate) struct ViewPair<'a, V> {
    decomp: &'a BrickDecomp<3>,
    kernel: KernelPlan,
    grids: [MemMapStorage; 2],
    views: [V; 2],
    cur: usize,
}

/// The current and the next storage of a [`ViewPair`]'s grids.
fn cur_nxt(grids: &mut [MemMapStorage; 2], cur: usize) -> (&mut BrickStorage, &mut BrickStorage) {
    let [a, b] = grids;
    if cur == 0 {
        (&mut a.storage, &mut b.storage)
    } else {
        (&mut b.storage, &mut a.storage)
    }
}

/// [`RankEngine`] for a [`ViewPair`] of one mmap-view exchanger:
/// [`ExchangeView`] and [`ShiftExchanger`] spell every call the pair
/// makes the same way (neither names a trait for it, so this is a macro
/// over the type rather than a generic impl).
macro_rules! view_pair_engine {
    ($view:ty) => {
        impl<'a> ViewPair<'a, $view> {
            pub(crate) fn new(cfg: &ExperimentConfig, decomp: &'a BrickDecomp<3>) -> Self {
                let kernel = KernelPlan::new(decomp.brick_info(), &cfg.shape, 1, 0);
                let mut grids = [(); 2].map(|()| MemMapStorage::allocate(decomp).expect("memfd allocation"));
                let views = [0, 1].map(|i| <$view>::build(decomp, &grids[i]).expect("view construction"));
                fill_bricks(decomp, &mut grids[0].storage);
                ViewPair { decomp, kernel, grids, views, cur: 0 }
            }

            /// What one exchange of this rank sends: [`CommPlan::edges`]
            /// (both views carry the same schedule).
            pub(crate) fn edges(&self) -> Vec<(usize, u64)> {
                self.views[0].plans().flat_map(CommPlan::edges).collect()
            }
        }

        impl RankEngine for ViewPair<'_, $view> {
            fn stats(&self) -> ExchangeStats {
                self.views[0].stats()
            }

            fn checksum(&self) -> f64 {
                crate::fields::interior_sum(self.decomp, &self.grids[self.cur].storage, 0)
            }

            fn exchange(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
                self.views[self.cur].exchange(ctx, &mut self.grids[self.cur])
            }

            fn compute(&mut self, ctx: &mut RankCtx<'_>, mask: Option<&[bool]>) {
                let (cur, nxt) = cur_nxt(&mut self.grids, self.cur);
                apply(ctx, &self.kernel, self.decomp, cur, nxt, mask);
            }

            fn advance(&mut self) {
                self.cur = 1 - self.cur;
            }

            fn snapshot(&self, buf: &mut Vec<f64>) {
                snapshot_owned(self.decomp, &self.grids[self.cur].storage, buf);
            }

            fn restore(&mut self, data: &[f64]) {
                let (cur, nxt) = cur_nxt(&mut self.grids, self.cur);
                restore_owned(self.decomp, cur, nxt, data);
            }

            fn rebuild(&mut self, _ctx: &mut RankCtx<'_>) {
                for (view, grid) in self.views.iter_mut().zip(&self.grids) {
                    *view = <$view>::build(self.decomp, grid).expect("view construction");
                }
            }

            fn split_graph(&self, recv_ghosts: &[Vec<u32>]) -> (PlanSplit, DepGraph) {
                decomp_split(self.decomp, recv_ghosts)
            }

            /// Both views carry the same schedule; both are bound up
            /// front so the receive ranges exist before the first
            /// exchange and the partitioned channels survive the flips.
            fn arm_split(&mut self, ctx: &mut RankCtx<'_>, partitioned: bool) -> SplitSetup {
                let (step, bricks) = (self.decomp.step(), self.decomp.bricks());
                for (view, grid) in self.views.iter_mut().zip(&self.grids) {
                    view.ensure_bound(ctx, grid);
                    if partitioned {
                        view.enable_partitioned(step, bricks);
                    }
                }
                (self.views[0].recv_ghosts(step), self.views[0].plan().priority().cloned())
            }

            fn begin(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<(), NetsimError> {
                self.views[self.cur].begin(ctx, &mut self.grids[self.cur], completed)
            }

            fn poll(&mut self, ctx: &mut RankCtx<'_>, completed: &mut Vec<usize>) -> Result<usize, NetsimError> {
                let (plan, mut mem) = self.views[self.cur].bound(&mut self.grids[self.cur]);
                plan.poll(ctx, &mut mem, completed)
            }

            fn finish(&mut self, ctx: &mut RankCtx<'_>) -> Result<(), NetsimError> {
                let (plan, mut mem) = self.views[self.cur].bound(&mut self.grids[self.cur]);
                scoped(ctx, <$view>::SPLIT_SCOPE, |ctx| plan.finish(ctx, &mut mem))
            }

            /// The next grid's views alias the memory the stencil just
            /// wrote, so they feed the *next* step's channels.
            fn pready(&mut self, ctx: &mut RankCtx<'_>, bricks: &[u32]) -> Result<(), NetsimError> {
                let (plan, mem) = self.views[1 - self.cur].bound(&mut self.grids[1 - self.cur]);
                scoped(ctx, <$view>::SPLIT_SCOPE, |ctx| plan.pready(ctx, &mem, bricks))
            }
        }
    };
}

view_pair_engine!(ExchangeView);
// Only the final pass is posted asynchronously — its two slab receives
// (which land in the slab views, not the grid) are the graph's gating
// dependencies; earlier axes' ghosts are valid when begin() returns.
view_pair_engine!(ShiftExchanger);

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
        ctx.scoped("kernel:array", |ctx| ctx.time_calc(|| cur.apply_tiles_into(plan, nxt, edge, tiles)));
    }

    fn advance(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.nxt);
    }

    fn snapshot(&self, buf: &mut Vec<f64>) {
        self.cur.interior_rows().for_each(|r| buf.extend_from_slice(&self.cur.as_slice()[r]));
    }

    /// Poisons the ghost rim and the next grid like [`restore_owned`].
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

    #[test]
    fn heap_bricks_count_retries_across_a_rebuild() {
        for method in [CpuMethod::Layout, CpuMethod::Basic, CpuMethod::NoLayout] {
            let cfg = ExperimentConfig::k1(method.clone(), 16);
            let decomp = cfg.decomp();
            let exchanger =
                if method == CpuMethod::Basic { Exchanger::basic(&decomp) } else { Exchanger::layout(&decomp) };
            let ranks = across_a_rebuild(|ctx| HeapBricks::new(&cfg, &decomp, &exchanger, ctx));
            assert_counted_across_the_rebuild(method.name(), &ranks);
        }
    }

    #[test]
    fn memmap_views_count_retries_across_a_rebuild() {
        let cfg = ExperimentConfig::k1(CpuMethod::MemMap { page_size: memview::PAGE_4K }, 16);
        let decomp = cfg.decomp();
        let ranks = across_a_rebuild(|_| ViewPair::<ExchangeView>::new(&cfg, &decomp));
        assert_counted_across_the_rebuild("MemMap", &ranks);
    }

    #[test]
    fn shift_views_count_retries_across_a_rebuild() {
        let cfg = ExperimentConfig::k1(CpuMethod::Shift { page_size: memview::PAGE_4K }, 16);
        let decomp = cfg.decomp();
        let ranks = across_a_rebuild(|_| ViewPair::<ShiftExchanger>::new(&cfg, &decomp));
        assert_counted_across_the_rebuild("Shift", &ranks);
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
