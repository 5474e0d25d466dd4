//! The timestep driver for the paper's CPU experiments (K1/K2 and
//! Figures 1, 4, 8–12, 18): run a stencil loop under one of the evaluated
//! implementations and report per-timestep `calc`/`pack`/`call`/`wait`
//! times — the same taxonomy as the paper's artifact. Every method runs
//! through the same loop ([`run_experiment`] → `run_steps`, which the
//! rebalanced run in [`crate::rebalance`] drives too); what differs
//! between them sits behind the per-rank engine trait in `engine.rs`.

use brick::BrickDims;
use layout::SurfaceLayout;
use mapping::{lexicographic, recursive_bisection, CommGraph, MappingPolicy};
use netsim::telemetry::{MappingStats, OverlapStats, Timeline};
use netsim::{
    run_cluster_on, Backend, CartTopo, FaultConfig, FaultEvent, FaultStats,
    HierarchicalNetworkModel, NetsimError, NetworkModel, RankCtx, TimerSummary, Timers,
};
use sched::{DepGraph, OverlapTimer, SendPriority};
use stencil::{PlanSplit, StencilShape};

use crate::checkpoint::{drive, DriveOp, FailureRecovery, RecoveryCfg};
use crate::decomp::BrickDecomp;
use crate::engine::{Arrays, HeapBricks, RankEngine, ViewPair};
use crate::exchange::{ExchangeStats, Exchanger};
use crate::memmap::{memmap_decomp, ExchangeView};
use crate::shift::ShiftExchanger;

/// The CPU implementations compared in the paper's evaluation.
#[derive(Clone, Debug, PartialEq)]
pub enum CpuMethod {
    /// MemMap exchange (Section 4).
    MemMap {
        /// Page size for chunk alignment (possibly emulated, Fig. 18).
        page_size: usize,
    },
    /// Layout-optimized pack-free exchange (Section 3), 42 messages.
    Layout,
    /// Pack-free but unmerged: one message per region instance (98).
    Basic,
    /// Fine-grained blocking with no communication-aware ordering (the
    /// paper's Figure 10 `No-Layout`): bricks in lexicographic order,
    /// exchanged like Layout, one message per contiguous run of that
    /// order.
    NoLayout,
    /// Tuned lexicographic-array framework with explicit pack/unpack.
    Yask,
    /// Derived-datatype exchange (library-internal element walk).
    MpiTypes,
    /// Dimension-by-dimension shift exchange through mmap views
    /// (extension; paper Section 8): 6 messages, 3 serialized passes.
    Shift {
        /// Page size for chunk alignment.
        page_size: usize,
    },
}

impl CpuMethod {
    /// Display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        match self {
            CpuMethod::MemMap { .. } => "MemMap",
            CpuMethod::Layout => "Layout",
            CpuMethod::Basic => "Basic",
            CpuMethod::NoLayout => "No-Layout",
            CpuMethod::Yask => "YASK",
            CpuMethod::MpiTypes => "MPI_Types",
            CpuMethod::Shift { .. } => "Shift",
        }
    }

    /// Why the method cannot run [`ExperimentConfig::partitioned`], if it cannot.
    pub fn partitioned_refusal(&self) -> Option<&'static str> {
        matches!(self, CpuMethod::Yask | CpuMethod::MpiTypes)
            .then_some("the array baselines send packed buffers, not storage bricks, so there is nothing to mark ready")
    }
}

/// The compute engine of the brick-side methods: every brick grid steps
/// through one precompiled [`KernelPlan`](stencil::KernelPlan), bound
/// once per rank and replayed per step. The one variant is kept so that
/// configurations written against it keep building.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Precompiled [`KernelPlan`](stencil::KernelPlan) bound once per rank, replayed per step.
    #[default]
    Plan,
}

/// One experiment configuration.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Implementation under test.
    pub method: CpuMethod,
    /// Per-rank subdomain extents (elements).
    pub subdomain: [usize; 3],
    /// Ghost width (the paper uses 8 everywhere, via ghost-cell
    /// expansion for low-order stencils).
    pub ghost: usize,
    /// Cubic brick extent (the paper uses 8³).
    pub brick: usize,
    /// The stencil.
    pub shape: StencilShape,
    /// Timed steps.
    pub steps: usize,
    /// Untimed warmup steps.
    pub warmup: usize,
    /// Rank grid (e.g. `[2,2,2]` for the paper's 8-node runs, `[1,1,1]`
    /// for single-rank proxy mode).
    pub ranks: Vec<usize>,
    /// Wire model (the fabric tier when [`ExperimentConfig::topology`]
    /// is hierarchical).
    pub net: NetworkModel,
    /// Hierarchical machine topology (`None` = flat fabric: every
    /// message crosses [`ExperimentConfig::net`]). When set, messages
    /// between ranks on the same node bill the topology's shared-memory
    /// tier instead, and [`ExperimentConfig::mapping`] decides which
    /// cartesian ranks share a node.
    pub topology: Option<HierarchicalNetworkModel>,
    /// Rank-placement policy evaluated under the topology. Anything but
    /// `Lex` requires a hierarchical topology; the chosen permutation is
    /// applied to [`CartTopo`] once, so every engine (phased, overlap,
    /// partitioned) runs remapped unchanged and bit-identically.
    pub mapping: MappingPolicy,
    /// Brick compute engine ([`KernelKind::Plan`], the only one).
    pub kernel: KernelKind,
    /// Seeded fault injection (off by default). When armed, every
    /// exchange engine routes through the reliable retry protocol and
    /// the run converges bit-identically to the fault-free schedule.
    pub faults: FaultConfig,
    /// Record per-rank phase timelines over the timed steps (off by
    /// default; the disabled recorder is a single branch per charge).
    pub profile: bool,
    /// Run the timestep as a dependency graph (off by default): post the
    /// exchange, compute interior bricks while messages are on the wire,
    /// compute boundary bricks as their ghost dependencies complete, and
    /// only then block on the remainder. The array baselines compute
    /// their 8³ tiles the same way (YASK-OL is YASK with this set).
    pub overlap: bool,
    /// Buddy-checkpoint interval in steps (0 = off). When set — or when
    /// a process-fault schedule is armed, which forces interval 1 — the
    /// run goes through the resilient harness in [`crate::checkpoint`]:
    /// each rank snapshots what it owns to a buddy every K steps, and a
    /// crash-stop rank failure is survived by an epoch-based recovery
    /// that converges bit-identically to the fault-free run.
    pub checkpoint_every: usize,
    /// Partitioned early-bird exchange (off by default): drive the
    /// dependency-graph schedule over persistent partitioned channels —
    /// each boundary brick is marked ready (`pready`) the moment it is
    /// computed, in destination-priority order, and eager-sized ready
    /// prefixes ship immediately instead of waiting for the step's
    /// `begin`. Implies the dependency-graph schedule; refused for the
    /// methods [`CpuMethod::partitioned_refusal`] names. Results stay
    /// bit-identical to the phased schedule.
    pub partitioned: bool,
    /// Rank execution substrate: OS thread per rank (`Thread`, the
    /// reference) or the event-driven multiplexer (`Event`, scales to
    /// thousands of ranks on one machine). Both produce bit-identical
    /// results. Defaults to the `NETSIM_BACKEND` environment variable
    /// (then `Thread`); the CLI `--backend` flag overrides it.
    pub backend: Backend,
}

impl ExperimentConfig {
    /// The paper's K1 defaults: 8³ bricks, 8-wide ghost, 7-point
    /// stencil, Theta's Aries fabric, single-rank proxy.
    pub fn k1(method: CpuMethod, subdomain: usize) -> ExperimentConfig {
        ExperimentConfig {
            method,
            subdomain: [subdomain; 3],
            ghost: 8,
            brick: 8,
            shape: StencilShape::star7_default(),
            steps: 4,
            warmup: 1,
            ranks: vec![1, 1, 1],
            net: NetworkModel::theta_aries(),
            topology: None,
            mapping: MappingPolicy::Lex,
            kernel: KernelKind::Plan,
            faults: FaultConfig::off(),
            profile: false,
            checkpoint_every: 0,
            overlap: false,
            partitioned: false,
            backend: Backend::from_env(),
        }
    }

    /// The wire model a run bills against: the hierarchical topology
    /// when set, else the flat fabric (whose billing is bit-identical
    /// to the pre-hierarchy code path).
    pub fn wire(&self) -> HierarchicalNetworkModel {
        self.topology.unwrap_or_else(|| self.net.into())
    }

    /// The decomposition the method's bricks are laid out by: chunks padded
    /// to the page size for the mmap-view methods, unpadded heap storage (or
    /// the array baselines' map of 8³ tiles) for the rest. Its
    /// [`BrickDecomp::owned_elems`] is the length of one checkpoint snapshot.
    pub fn decomp(&self) -> BrickDecomp<3> {
        let bricks = BrickDims::cubic(self.brick);
        match &self.method {
            CpuMethod::MemMap { page_size } | CpuMethod::Shift { page_size } => {
                memmap_decomp(self.subdomain, self.ghost, bricks, 1, layout::surface3d(), *page_size)
            }
            CpuMethod::NoLayout => {
                BrickDecomp::layout_mode(self.subdomain, self.ghost, bricks, 1, SurfaceLayout::lexicographic(3))
            }
            _ => BrickDecomp::layout_mode(self.subdomain, self.ghost, bricks, 1, layout::surface3d()),
        }
    }

    /// What [`run_steps`] runs this configuration under; the schedule
    /// follows from the `overlap`/`partitioned` switches.
    fn run_params(&self) -> RunParams {
        let schedule = if self.overlap || self.partitioned {
            Schedule::Dag { partitioned: self.partitioned }
        } else {
            Schedule::Phased
        };
        RunParams {
            steps: self.steps,
            warmup: self.warmup,
            profile: self.profile,
            backend: self.backend,
            wire: self.wire(),
            faults: self.faults,
            checkpoint_every: self.checkpoint_every,
            schedule,
            points: self.subdomain.iter().product::<usize>() as u64,
        }
    }
}

/// How a run orders each timestep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Exchange, then compute every owned point.
    Phased,
    /// The dependency-graph overlap scheduler, optionally over
    /// partitioned early-bird channels.
    Dag { partitioned: bool },
}

/// Everything [`run_steps`] reads from a run's configuration — what
/// [`ExperimentConfig`] and [`crate::rebalance::RebalanceCfg`] both
/// reduce to. The rest of either configuration is the engine's business.
pub(crate) struct RunParams {
    /// Timed steps.
    pub steps: usize,
    /// Untimed warmup steps.
    pub warmup: usize,
    /// Record per-rank timelines over the timed steps.
    pub profile: bool,
    pub backend: Backend,
    pub wire: HierarchicalNetworkModel,
    pub faults: FaultConfig,
    /// Buddy-checkpoint interval (0 = off; a kill schedule forces 1).
    pub checkpoint_every: usize,
    pub schedule: Schedule,
    /// Owned points per rank per step, as reported.
    pub points: u64,
}

/// Per-timestep results of one method.
#[derive(Clone, Debug)]
pub struct MethodReport {
    /// Per-step timers (rank 0; ranks are symmetric).
    pub timers: Timers,
    /// Exchange traffic.
    pub stats: ExchangeStats,
    /// Owned points per rank per step.
    pub points: u64,
    /// Sum of the final interior values (cross-method validation).
    pub checksum: f64,
    /// Per-category `(min, avg, max)` across ranks — the artifact's
    /// reporting format (per timed step).
    pub summary: TimerSummary,
    /// Compute seconds per step that ran while the exchange was in
    /// flight (0 under the phased schedule, which overlaps nothing).
    pub calc_hidden: f64,
    /// Injected faults and the retry protocol's responses, summed across
    /// all ranks (zero when [`ExperimentConfig::faults`] is off).
    pub faults: FaultStats,
    /// The full injected-fault trace, concatenated in rank order (for
    /// the chaos-run JSON artifact).
    pub fault_events: Vec<FaultEvent>,
    /// Per-rank phase timelines over the timed steps, in rank order
    /// (empty unless [`ExperimentConfig::profile`] was set). Spans live
    /// on the per-rank virtual clock; their phase sums equal the
    /// *undivided* timers (i.e. [`MethodReport::timers`] × steps).
    pub timelines: Vec<Timeline>,
    /// Seed of the armed fault plan, `None` when fault injection was
    /// off — report consumers gate fault/recovery output on this.
    pub fault_seed: Option<u64>,
    /// Wire-hiding accounting of a dependency-graph run (rank 0):
    /// `Some` iff the run was driven with [`ExperimentConfig::overlap`]
    /// or [`ExperimentConfig::partitioned`], `None` for phased runs.
    pub overlap_stats: Option<OverlapStats>,
    /// Checkpoint/recovery accounting merged across ranks (all zeros —
    /// `!recovery.armed()` — unless the run was resilient; see
    /// [`ExperimentConfig::checkpoint_every`]).
    pub recovery: FailureRecovery,
    /// Migration/imbalance accounting, `Some` only for runs driven by
    /// the dynamic-ownership rebalance subsystem ([`crate::rebalance`]);
    /// every static driver reports `None`.
    pub migration: Option<netsim::telemetry::MigrationStats>,
    /// On/off-node traffic accounting of the rank mapping, `Some` iff
    /// the run used a hierarchical topology
    /// ([`ExperimentConfig::topology`]); flat runs report `None`.
    pub mapping: Option<MappingStats>,
}

impl MethodReport {
    /// Effective per-step wall time: overlapping hides `call + wait`
    /// behind computation (packing cannot be hidden — it produces the
    /// send buffers and consumes the received ones).
    pub fn step_time(&self) -> f64 {
        if self.overlap_stats.is_some() {
            let exposed = self.timers.calc - self.calc_hidden;
            self.timers.pack
                + self.calc_hidden.max(self.timers.call + self.timers.wait)
                + exposed
        } else {
            self.timers.total()
        }
    }

    /// Communication share of the step (the paper's `Comm`).
    pub fn comm_time(&self) -> f64 {
        self.step_time() - self.timers.calc.min(self.step_time())
    }

    /// Throughput in GStencil/s (points per rank; multiply by ranks for
    /// aggregate).
    pub fn gstencil(&self) -> f64 {
        self.points as f64 / self.step_time() / 1e9
    }
}

/// The empirical minimum ("Network" line of Figure 9): the wire time for
/// message-sized buffers with the minimal message count and no padding.
pub fn network_floor(net: &NetworkModel, payload_bytes: usize) -> f64 {
    net.exchange_time(26, payload_bytes)
}

/// Panic early (with an actionable message) on configurations the
/// drivers cannot honor, instead of hanging or silently ignoring part of
/// them.
fn validate(cfg: &ExperimentConfig) {
    if let Some(why) = cfg.partitioned.then(|| cfg.method.partitioned_refusal()).flatten() {
        panic!("{} cannot run partitioned: {why}", cfg.method.name());
    }
    let n: usize = cfg.ranks.iter().product();
    if cfg.faults.kill.is_some() {
        assert!(
            n >= 2,
            "kill faults need at least 2 ranks: the victim's checkpoint lives on its buddy"
        );
    }
    if let Some(e) = unreachable_proc_fault(&cfg.faults, n, cfg.warmup + cfg.steps) {
        panic!("{e}");
    }
}

/// Why a scheduled kill or stall can never fire on a run of `ranks`
/// ranks and `steps` timesteps (warmup included): it names a rank
/// outside the cluster or a step past the last. `None` when every
/// scheduled process fault is reachable. Accepting one that is not would
/// run, and bill, the checkpoints of a fault that never happens.
pub fn unreachable_proc_fault(faults: &FaultConfig, ranks: usize, steps: usize) -> Option<String> {
    [("kill", faults.kill), ("stall", faults.stall)].into_iter().find_map(|(name, f)| {
        let f = f?;
        (f.rank >= ranks || f.step >= steps as u64).then(|| {
            format!(
                "{name}:{}@{} can never fire: the run has {ranks} rank(s) and steps 0..{steps} \
                 (warmup included)",
                f.rank, f.step
            )
        })
    })
}

/// Choose the rank mapping of a hierarchical run: the permutation
/// (`perm[cartesian rank] = physical rank`) the configured policy picks
/// on the unpermuted grid. Flat runs have none.
fn plan_mapping(cfg: &ExperimentConfig, topo: &CartTopo) -> Option<Vec<usize>> {
    let Some(hier) = cfg.topology else {
        assert!(
            cfg.mapping == MappingPolicy::Lex,
            "--mapping {} needs a hierarchical topology (pass -t dragonfly:R or fat-tree:R)",
            cfg.mapping.label()
        );
        return None;
    };
    Some(match cfg.mapping {
        MappingPolicy::Lex => lexicographic(topo.size()),
        MappingPolicy::Bisect => recursive_bisection(topo, &hier.node),
    })
}

/// The traffic accounting of a mapped run: the communication-volume
/// graph of what its ranks bound (`sent[rank]`: every message of the
/// rank's exchange plans, as [`crate::plan::CommPlan::edges`] lists
/// them), evaluated under the mapping `perm` the run used and under the
/// lexicographic baseline.
fn mapping_stats(
    cfg: &ExperimentConfig,
    hier: &HierarchicalNetworkModel,
    perm: &[usize],
    sent: &[Vec<(usize, u64)>],
) -> MappingStats {
    let g = CommGraph::from_sends(perm, sent);
    let lex = lexicographic(perm.len());
    let split = g.split(perm, &hier.node);
    MappingStats {
        topology: hier.name,
        ranks_per_node: hier.node.ranks_per_node(),
        policy: cfg.mapping.label(),
        on_bytes: split.on_bytes,
        off_bytes: split.off_bytes,
        on_msgs: split.on_msgs,
        off_msgs: split.off_msgs,
        lex_off_bytes: g.split(&lex, &hier.node).off_bytes,
        modeled_time: g.modeled_time(perm, hier),
        lex_modeled_time: g.modeled_time(&lex, hier),
    }
}

/// Run one experiment and return rank 0's report.
///
/// Each method is one `RankEngine`; `run_steps` times them all with
/// the same step loop.
pub fn run_experiment(cfg: &ExperimentConfig) -> MethodReport {
    validate(cfg);
    let mut topo = CartTopo::new(&cfg.ranks, true);
    let perm = plan_mapping(cfg, &topo);
    if let Some(perm) = &perm {
        topo = topo.with_permutation(perm).expect("mappers return bijections");
    }
    let run = cfg.run_params();
    let decomp = cfg.decomp();
    // Every rank hands back what it bound, for the mapping block.
    let (mut report, sent) = match &cfg.method {
        CpuMethod::MemMap { .. } => run_steps(&run, &topo, |_| ViewPair::<ExchangeView>::new(cfg, &decomp), |e| e.edges()),
        CpuMethod::Shift { .. } => run_steps(&run, &topo, |_| ViewPair::<ShiftExchanger>::new(cfg, &decomp), |e| e.edges()),
        CpuMethod::Layout | CpuMethod::Basic | CpuMethod::NoLayout => {
            let exchanger =
                if cfg.method == CpuMethod::Basic { Exchanger::basic(&decomp) } else { Exchanger::layout(&decomp) };
            run_steps(&run, &topo, |ctx| HeapBricks::new(cfg, &decomp, &exchanger, ctx), |e| e.edges())
        }
        CpuMethod::Yask | CpuMethod::MpiTypes => run_steps(&run, &topo, |_| Arrays::new(cfg, &decomp), |e| e.edges()),
    };
    report.mapping = cfg.topology.zip(perm).map(|(hier, perm)| mapping_stats(cfg, &hier, &perm, &sent));
    report
}

/// The rank's cumulative counters the overlap scheduler measures each
/// window by: modeled communication seconds (`call` + `wait`), which the
/// window's hidden compute is credited against, and the early and total
/// bytes its partitioned channels flushed.
fn window_counters(ctx: &RankCtx<'_>) -> sched::Counters {
    let t = ctx.timers();
    (t.call + t.wait, t.early_bytes, t.partition_bytes)
}

/// A [`Schedule`] bound to one rank's engine. Built before the step loop,
/// after every recovery epoch and whenever the engine's exchange changes
/// shape; a phased run pays for no masks and no graph.
pub(crate) enum StepPlan {
    /// Exchange, then compute every owned point.
    Phased,
    /// The overlap scheduler: begin the split exchange, compute interior
    /// bricks while messages are on the wire, compute boundary bricks in
    /// batches as their ghost dependencies complete, then block only on
    /// what is still missing.
    Dag(Box<Dag>),
}

pub(crate) struct Dag {
    /// Also mark each boundary brick ready on the next step's persistent
    /// channels the moment it is computed.
    partitioned: bool,
    /// Destination-priority classes, owned here so the engine stays
    /// mutably borrowable while batches are ordered.
    prio: Option<SendPriority>,
    split: PlanSplit,
    graph: DepGraph,
    completed: Vec<usize>,
    ready: Vec<u32>,
}

impl StepPlan {
    pub(crate) fn bind<E: RankEngine>(schedule: Schedule, eng: &mut E, ctx: &mut RankCtx<'_>) -> StepPlan {
        match schedule {
            Schedule::Phased => StepPlan::Phased,
            Schedule::Dag { partitioned } => {
                let (recv_ghosts, prio) = eng.arm_split(ctx, partitioned);
                let (split, graph) = eng.split_graph(&recv_ghosts);
                // Sized for the largest batch, so no step grows them.
                let completed = Vec::with_capacity(recv_ghosts.len());
                let ready = Vec::with_capacity(split.boundary().len());
                StepPlan::Dag(Box::new(Dag { partitioned, prio, split, graph, completed, ready }))
            }
        }
    }

    /// One timestep, up to but excluding the buffer swap. Each brick is
    /// computed exactly once from the current grid (fixed for the whole
    /// step), so every schedule is bit-identical to the phased one no
    /// matter when messages land. `pready_live` is false on the steps
    /// whose early fragments must not be sent (see [`run_steps`]).
    pub(crate) fn step<E: RankEngine>(
        &mut self,
        eng: &mut E,
        ctx: &mut RankCtx<'_>,
        timer: &mut OverlapTimer,
        pready_live: bool,
    ) -> Result<(), NetsimError> {
        match self {
            StepPlan::Phased => {
                eng.exchange(ctx)?;
                eng.compute(ctx, None);
            }
            StepPlan::Dag(dag) => {
                let pready_live = dag.partitioned && pready_live;
                timer.begin_step(window_counters(ctx));
                dag.completed.clear();
                eng.begin(ctx, &mut dag.completed)?;
                // Interior compute hides the in-flight exchange: it reads
                // no ghost bricks.
                let calc0 = ctx.timers().calc;
                eng.compute(ctx, Some(dag.split.interior()));
                timer.hide(ctx.timers().calc - calc0);
                dag.ready.clear();
                dag.ready.extend_from_slice(dag.graph.begin_step());
                loop {
                    for &c in &dag.completed {
                        dag.graph.complete(c, &mut dag.ready);
                    }
                    if !dag.ready.is_empty() {
                        dag.compute_ready(eng, ctx, Some(&mut *timer), pready_live)?;
                    }
                    if dag.graph.pending() == 0 {
                        break;
                    }
                    dag.completed.clear();
                    if eng.poll(ctx, &mut dag.completed)? == 0 {
                        // Nothing on the wire yet and nothing to compute:
                        // stop probing; the finishing wait exposes the rest.
                        break;
                    }
                }
                eng.finish(ctx)?;
                timer.end_step(window_counters(ctx));
                // Boundary bricks whose dependencies only resolved at the
                // blocking finish — the exposed part of the step. They are
                // still marked ready so the *next* step's messages start
                // draining before its begin().
                if dag.graph.pending() > 0 {
                    dag.ready.clear();
                    dag.graph.unready(&mut dag.ready);
                    dag.compute_ready(eng, ctx, None, pready_live)?;
                }
            }
        }
        Ok(())
    }
}

impl Dag {
    /// Compute the ready boundary bricks (crediting `hide` with the
    /// `calc` seconds they billed) and empty the list. Partitioned mode
    /// computes them in destination-priority groups, marking each group's
    /// bricks ready the moment they exist so the most-exposed channel
    /// drains first.
    fn compute_ready<E: RankEngine>(
        &mut self,
        eng: &mut E,
        ctx: &mut RankCtx<'_>,
        mut hide: Option<&mut OverlapTimer>,
        pready_live: bool,
    ) -> Result<(), NetsimError> {
        let Dag { prio, split, ready, .. } = self;
        let mut run = |batch: &[u32]| -> Result<(), NetsimError> {
            let calc0 = ctx.timers().calc;
            eng.compute(ctx, Some(split.stage_batch(batch)));
            split.clear_batch();
            if let Some(timer) = hide.as_deref_mut() {
                timer.hide(ctx.timers().calc - calc0);
            }
            if pready_live {
                eng.pready(ctx, batch)?;
            }
            Ok(())
        };
        match prio {
            Some(prio) => {
                prio.order(ready);
                for batch in prio.groups(ready) {
                    run(batch)?;
                }
            }
            None => run(ready)?,
        }
        ready.clear();
        Ok(())
    }
}

/// What one rank hands back to the report assembly.
struct RankOutcome {
    timers: Timers,
    summary: Option<TimerSummary>,
    checksum: f64,
    stats: ExchangeStats,
    /// Compute seconds per timed step that ran inside an overlap window.
    hidden: f64,
    /// Wire-hiding accounting of the dependency-graph schedule.
    overlap_stats: Option<OverlapStats>,
    timeline: Timeline,
    faults: FaultStats,
    fault_events: Vec<FaultEvent>,
    failure: FailureRecovery,
}

/// Abort the run on an error no protocol layer absorbed, naming the rank
/// and where in the run it was.
pub(crate) fn fail(ctx: &RankCtx<'_>, at: impl std::fmt::Display, e: NetsimError) -> ! {
    panic!("rank {} failed in {at}: {e}", ctx.rank())
}

/// The one step driver: run `run.warmup + run.steps` timesteps of the
/// engine `make` builds on every rank, under `run.schedule`, through
/// [`drive`] (a plain step + barrier loop unless the run is resilient),
/// and assemble the report. Each rank's engine ends in `harvest`, whose
/// results come back in rank order beside the report.
pub(crate) fn run_steps<E: RankEngine, T: Send>(
    run: &RunParams,
    topo: &CartTopo,
    make: impl Fn(&mut RankCtx<'_>) -> E + Sync,
    harvest: impl Fn(E) -> T + Sync,
) -> (MethodReport, Vec<T>) {
    let (steps, warmup) = (run.steps, run.warmup);
    let rcfg = RecoveryCfg {
        steps: steps + warmup,
        checkpoint_every: run.checkpoint_every,
        proc_faults: run.faults.proc_active(),
    };

    let ranks = run_cluster_on(run.backend, topo, run.wire, run.faults, |ctx| {
        let mut eng = make(ctx);
        let mut plan = StepPlan::bind(run.schedule, &mut eng, ctx);
        let mut timer = OverlapTimer::new();
        let mut at = 0;
        let mut body = |ctx: &mut RankCtx<'_>, op: DriveOp<'_>| -> Result<(), NetsimError> {
            match op {
                DriveOp::Step(step) => {
                    at = step;
                    if step == warmup {
                        ctx.reset_timers();
                        if run.profile {
                            ctx.enable_profiling();
                        }
                        timer = OverlapTimer::new();
                    }
                    if eng.before_step(ctx, step)? {
                        plan = StepPlan::bind(run.schedule, &mut eng, ctx);
                    }
                    // Early fragments are timestamped on the running
                    // virtual clock, so skip `pready` on the step whose
                    // flush straddles the warmup timer reset, and on the
                    // final step (whose fragments would never flush).
                    let pready_live = step + 1 != warmup && step + 1 != steps + warmup;
                    plan.step(&mut eng, ctx, &mut timer, pready_live)?;
                    eng.advance();
                }
                DriveOp::Snapshot(buf) => eng.snapshot(buf),
                DriveOp::Restore(data) => eng.restore(data),
                DriveOp::Rebuild => {
                    eng.rebuild(ctx);
                    plan = StepPlan::bind(run.schedule, &mut eng, ctx);
                    timer = OverlapTimer::new();
                }
            }
            Ok(())
        };
        let failure = match drive(ctx, &rcfg, &mut body) {
            Ok(failure) => failure,
            Err(e) => fail(ctx, format_args!("step {at}"), e),
        };
        let overlap_stats = matches!(plan, StepPlan::Dag(_)).then(|| timer.stats());
        let timers = ctx.timers().per_step(steps);
        let timeline = ctx.take_timeline();
        let summary = ctx.reduce_timers(&timers).unwrap_or_else(|e| fail(ctx, "the timer reduction", e));
        let outcome = RankOutcome {
            timers,
            summary,
            checksum: eng.checksum(),
            stats: eng.stats(),
            hidden: timer.hidden_total() / steps as f64,
            overlap_stats,
            timeline,
            faults: ctx.fault_stats(),
            fault_events: ctx.take_fault_events(),
            failure,
        };
        (outcome, harvest(eng))
    });
    let (outcomes, harvested): (Vec<RankOutcome>, Vec<T>) = ranks.into_iter().unzip();
    let mut ranks = outcomes.into_iter();

    // Timers, checksum and overlap accounting are rank 0's (ranks are
    // symmetric); injected damage and the protocol's responses are
    // run-global, so the other ranks' sum into them.
    let mut r0 = ranks.next().expect("cluster has at least one rank");
    let mut timelines = vec![std::mem::take(&mut r0.timeline)];
    for r in ranks {
        timelines.push(r.timeline);
        r0.faults.merge(&r.faults);
        r0.fault_events.extend(r.fault_events);
        r0.failure.merge(&r.failure);
    }
    let report = MethodReport {
        calc_hidden: r0.hidden,
        timers: r0.timers,
        stats: r0.stats,
        points: run.points,
        checksum: r0.checksum,
        summary: r0.summary.expect("rank 0 holds the reduction"),
        faults: r0.faults,
        fault_events: r0.fault_events,
        // A disabled recorder drains to empty timelines — drop them so
        // consumers can gate on `!timelines.is_empty()`.
        timelines: if run.profile { timelines } else { Vec::new() },
        fault_seed: run.faults.is_active().then_some(run.faults.seed),
        overlap_stats: r0.overlap_stats,
        recovery: r0.failure,
        migration: None,
        mapping: None,
    };
    (report, harvested)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(method: CpuMethod) -> ExperimentConfig {
        let mut c = ExperimentConfig::k1(method, 32);
        c.steps = 3;
        c.warmup = 1;
        c
    }

    /// [`cfg`] under the dependency-graph overlap schedule (the paper's
    /// `*-OL` runs).
    fn overlapped(method: CpuMethod) -> ExperimentConfig {
        ExperimentConfig { overlap: true, ..cfg(method) }
    }

    /// All exchanging methods must produce *identical physics*: after
    /// the same number of steps on the same initial data, the interior
    /// checksum agrees across implementations.
    #[test]
    fn methods_agree_numerically() {
        let reports: Vec<MethodReport> = [
            cfg(CpuMethod::Layout),
            overlapped(CpuMethod::Layout),
            cfg(CpuMethod::Basic),
            cfg(CpuMethod::MemMap { page_size: memview::PAGE_4K }),
            cfg(CpuMethod::Yask),
            cfg(CpuMethod::MpiTypes),
        ]
        .iter()
        .map(run_experiment)
        .collect();
        let reference = reports[0].checksum;
        assert!(reference.is_finite() && reference != 0.0);
        for r in &reports[1..] {
            let rel = ((r.checksum - reference) / reference).abs();
            assert!(rel < 1e-12, "checksum mismatch: {} vs {reference}", r.checksum);
        }
    }

    /// The checksum bits of `cfg`'s physics from a loop that shares no
    /// engine, exchange or kernel plan with [`run_experiment`]: the
    /// engines' initial fill over `cfg.decomp()` on one self-periodic
    /// rank, then per step a periodic ghost wrap, the gather reference
    /// kernel and a swap.
    fn reference_bits(cfg: &ExperimentConfig) -> u64 {
        let decomp = cfg.decomp();
        let (mut cur, mut nxt) = (decomp.allocate(), decomp.allocate());
        crate::fields::fill_interior(&decomp, &mut cur, 0, |c| ((c[0] * 3 + c[1] * 5 + c[2] * 7) % 17) as f64 / 16.0);
        for _ in 0..cfg.warmup + cfg.steps {
            crate::fields::fill_ghosts_periodic(&decomp, &mut cur, 0);
            stencil::apply_bricks_gather(&cfg.shape, decomp.brick_info(), &cur, &mut nxt, decomp.compute_mask(), 0);
            std::mem::swap(&mut cur, &mut nxt);
        }
        crate::fields::interior_sum(&decomp, &cur, 0).to_bits()
    }

    /// Every brick engine steps through its kernel plan and exchanges
    /// through its session, and the plan replays the gather reference's
    /// exact FP op sequence: phased or overlapped, for the low- and the
    /// high-order proxy, each engine reads the reference loop's bits.
    #[test]
    fn plan_and_gather_engines_bit_identical() {
        let page_size = memview::PAGE_4K;
        for shape in [StencilShape::star7_default(), StencilShape::cube125_default()] {
            for method in [
                CpuMethod::Layout,
                CpuMethod::Basic,
                CpuMethod::MemMap { page_size },
                CpuMethod::Shift { page_size },
                CpuMethod::NoLayout,
            ] {
                let base = ExperimentConfig { shape: shape.clone(), ..cfg(method.clone()) };
                let want = reference_bits(&base);
                for overlap in [false, true] {
                    let r = run_experiment(&ExperimentConfig { overlap, ..base.clone() });
                    let what = format!("{} overlap={overlap} {} taps", method.name(), shape.points());
                    assert_eq!(r.checksum.to_bits(), want, "{what}");
                }
            }
        }
    }

    #[test]
    fn pack_free_methods_report_zero_pack_time() {
        for m in [CpuMethod::Layout, CpuMethod::MemMap { page_size: memview::PAGE_4K }] {
            let r = run_experiment(&cfg(m));
            assert_eq!(r.timers.pack, 0.0, "{:?} must not pack", r.stats);
            assert!(r.timers.calc > 0.0);
            assert!(r.timers.wait > 0.0);
        }
    }

    #[test]
    fn yask_reports_pack_time() {
        let r = run_experiment(&cfg(CpuMethod::Yask));
        assert!(r.timers.pack > 0.0);
        assert_eq!(r.stats.messages, 26);
    }

    /// Profiling collects one validated timeline per rank whose phase
    /// sums reproduce the (undivided) timers, and shows the paper's
    /// contrast: MemMap moves no on-node bytes while the packed
    /// baseline spends real time in pack/unpack.
    #[test]
    fn profiled_run_reports_phase_breakdown() {
        let mut c = cfg(CpuMethod::MemMap { page_size: memview::PAGE_4K });
        c.profile = true;
        let mm = run_experiment(&c);
        assert_eq!(mm.timelines.len(), 1);
        let tl = &mm.timelines[0];
        tl.validate().expect("well-formed timeline");
        let bd = tl.phase_breakdown();
        assert_eq!(bd.movement(), 0.0, "memmap is movement-free");
        assert!(bd.compute > 0.0 && bd.wait > 0.0);
        let total = mm.timers.total() * c.steps as f64;
        assert!(
            (bd.total() - total).abs() <= 1e-9 * total.max(1.0),
            "phase sum {} != timer total {total}",
            bd.total()
        );

        let mut y = cfg(CpuMethod::Yask);
        y.profile = true;
        let yk = run_experiment(&y);
        let ybd = yk.timelines[0].phase_breakdown();
        assert!(ybd.pack > 0.0 && ybd.unpack > 0.0, "packed baseline packs");
        let roots: Vec<&str> =
            yk.timelines[0].scope_breakdown().iter().map(|(n, _)| *n).collect();
        assert!(roots.contains(&"exchange:yask") && roots.contains(&"kernel:array"));
    }

    /// Unprofiled runs carry no timelines; fault-free runs carry no
    /// fault seed (report consumers gate fault output on it).
    #[test]
    fn unprofiled_run_is_clean() {
        let r = run_experiment(&cfg(CpuMethod::Layout));
        assert!(r.timelines.is_empty());
        assert_eq!(r.fault_seed, None);
        assert!(r.mapping.is_none(), "flat runs carry no mapping split");
    }

    /// Remapping is a pure relabeling of which physical rank runs which
    /// subdomain: under any policy and the two-tier model, the physics
    /// stays bit-identical to the flat lexicographic run, and no policy
    /// loses to the lexicographic baseline it is measured against.
    #[test]
    fn remapped_runs_are_bit_identical_to_flat() {
        let mut base = cfg(CpuMethod::Layout);
        base.subdomain = [16; 3];
        base.ranks = vec![2, 2, 2];
        let flat = run_experiment(&base);
        for policy in [MappingPolicy::Lex, MappingPolicy::Bisect] {
            let mut c = base.clone();
            c.topology = Some(HierarchicalNetworkModel::dragonfly(4));
            c.mapping = policy;
            let mapped = run_experiment(&c);
            assert_eq!(
                mapped.checksum.to_bits(),
                flat.checksum.to_bits(),
                "{policy:?} moved the physics"
            );
            let m = mapped.mapping.expect("hierarchical run records mapping stats");
            assert_eq!(m.policy, policy.label());
            assert_eq!(m.topology, "dragonfly");
            assert_eq!(m.ranks_per_node, 4);
            assert!(
                m.off_bytes <= m.lex_off_bytes,
                "{policy:?}: off-node {} must not exceed lex {}",
                m.off_bytes,
                m.lex_off_bytes
            );
            assert!(
                m.modeled_time <= m.lex_modeled_time,
                "{policy:?}: modeled {} must not exceed lex {}",
                m.modeled_time,
                m.lex_modeled_time
            );
        }
    }

    /// The mapping block describes what the method bound, not the Layout
    /// schedule: on 2x2x2 no rank is its own neighbour, so every edge of
    /// every rank's plans is a mailbox edge, and the block's totals are
    /// the ranks' message count and payload bytes.
    #[test]
    fn mapping_block_counts_the_messages_the_method_bound() {
        let page_size = memview::PAGE_4K;
        let configs = [
            cfg(CpuMethod::MemMap { page_size }),
            cfg(CpuMethod::Layout),
            cfg(CpuMethod::Basic),
            cfg(CpuMethod::NoLayout),
            cfg(CpuMethod::Yask),
            overlapped(CpuMethod::Yask),
            overlapped(CpuMethod::Layout),
            cfg(CpuMethod::MpiTypes),
            cfg(CpuMethod::Shift { page_size }),
        ];
        let mut per_rank_msgs = Vec::new();
        for mut c in configs {
            let name = c.method.name();
            c.subdomain = [16; 3];
            c.ranks = vec![2, 2, 2];
            c.topology = Some(HierarchicalNetworkModel::dragonfly(4));
            let r = run_experiment(&c);
            let m = r.mapping.expect("hierarchical run records mapping stats");
            assert_eq!(m.on_msgs + m.off_msgs, 8 * r.stats.messages as u64, "{name}: messages");
            assert_eq!(m.on_bytes + m.off_bytes, 8 * r.stats.payload_bytes as u64, "{name}: bytes");
            per_rank_msgs.push(r.stats.messages);
        }
        // (Basic: 56 of its 98 region instances are non-empty at 16^3.)
        assert_eq!(per_rank_msgs, [26, 42, 56, 42, 26, 26, 42, 26, 6]);
    }

    #[test]
    fn message_counts_by_method() {
        let layout = run_experiment(&cfg(CpuMethod::Layout));
        let basic = run_experiment(&cfg(CpuMethod::Basic));
        assert_eq!(layout.stats.messages, 42);
        assert_eq!(basic.stats.messages, 98);
        // Same bytes either way: merging runs only reduces messages.
        assert_eq!(layout.stats.payload_bytes, basic.stats.payload_bytes);
    }

    /// The overlapped step-time model hides the wire behind hideable
    /// compute. Asserted on the modeled terms alone, exactly: `pack` and
    /// `calc` are wall clock, so both sides of every comparison carry
    /// chosen values for them instead of measured ones.
    #[test]
    fn overlap_hides_wire_time() {
        let mut plain = run_experiment(&cfg(CpuMethod::Yask));
        let wire = plain.timers.call + plain.timers.wait;
        assert!(wire > 0.0);
        (plain.timers.pack, plain.timers.calc) = (0.0, 0.0);
        let mut r = plain.clone();
        r.overlap_stats = Some(OverlapStats::default());
        // Nothing to hide behind: the wire stays exposed, overlapped or not.
        assert_eq!(plain.step_time(), wire);
        assert_eq!(r.step_time(), wire);
        // Twice the wire's worth of hideable compute: the overlapped step
        // is the compute alone, the phased one still pays both.
        for m in [&mut plain, &mut r] {
            (m.timers.calc, m.calc_hidden) = (2.0 * wire, 2.0 * wire);
        }
        assert_eq!(plain.step_time(), wire + 2.0 * wire);
        assert_eq!(r.step_time(), 2.0 * wire);
    }

    /// The dependency-graph scheduler computes each brick exactly once
    /// from the step-frozen `cur` grid, so every overlapped engine must
    /// be bit-identical to its phased counterpart — and must report a
    /// well-formed wire-hiding measurement.
    #[test]
    fn overlapped_runs_bit_identical_to_phased() {
        for m in [
            CpuMethod::Layout,
            CpuMethod::Basic,
            CpuMethod::MemMap { page_size: memview::PAGE_4K },
            CpuMethod::Shift { page_size: memview::PAGE_4K },
            CpuMethod::Yask,
            CpuMethod::MpiTypes,
        ] {
            let phased = run_experiment(&cfg(m.clone()));
            let ov = run_experiment(&overlapped(m.clone()));
            assert_eq!(
                ov.checksum.to_bits(),
                phased.checksum.to_bits(),
                "overlap diverged for {m:?}"
            );
            let s = ov.overlap_stats.expect("dag run reports overlap stats");
            assert!(s.total_wire > 0.0, "{m:?} charged no wire time");
            assert!((0.0..=1.0).contains(&s.efficiency()));
            assert!(ov.calc_hidden > 0.0, "{m:?} hid no compute");
        }
    }

    /// A multi-rank dependency-graph run under fault injection: the
    /// reliable protocol collapses the overlap window (begin() runs it
    /// atomically) but the grid must still converge bit-identically.
    #[test]
    fn overlapped_chaos_run_converges() {
        let mut c = cfg(CpuMethod::Layout);
        c.ranks = vec![2, 1, 1];
        c.overlap = true;
        c.faults =
            FaultConfig { seed: 42, drop: 0.05, corrupt: 0.02, dup: 0.05, ..FaultConfig::off() };
        let lossy = run_experiment(&c);
        let mut clean_cfg = c.clone();
        clean_cfg.faults = FaultConfig::off();
        let clean = run_experiment(&clean_cfg);
        assert_eq!(lossy.checksum.to_bits(), clean.checksum.to_bits());
        assert!(lossy.faults.total() > 0, "seed 42 at these rates must inject something");
    }

    /// Partitioned channels ship each boundary brick the moment the
    /// stencil writes it, but the receiver assembles the exact same
    /// mailbox bytes — every engine must stay bit-identical to its
    /// phased counterpart, and a multi-rank run must ship a nonzero
    /// early fraction.
    #[test]
    fn partitioned_runs_bit_identical_to_phased() {
        for m in [
            CpuMethod::Layout,
            CpuMethod::Basic,
            CpuMethod::MemMap { page_size: memview::PAGE_4K },
            CpuMethod::Shift { page_size: memview::PAGE_4K },
        ] {
            // Distribute the LAST axis: shift only partitions its final
            // pass, which is local unless that axis crosses ranks.
            let mut base = cfg(m.clone());
            base.ranks = vec![1, 1, 2];
            base.steps = 4;
            let phased = run_experiment(&base);
            let mut pc = base.clone();
            pc.partitioned = true;
            let part = run_experiment(&pc);
            assert_eq!(
                part.checksum.to_bits(),
                phased.checksum.to_bits(),
                "partitioned diverged for {m:?}"
            );
            let s = part.overlap_stats.expect("partitioned run reports overlap stats");
            assert!(s.partitioned(), "{m:?} recorded no partition traffic");
            // Shift's final-pass slabs open with forwarded ghost bricks
            // that are only valid at flush time, so its ready prefix
            // never advances: channels stay correct but ship nothing
            // early. Every gather-style engine must ship a real
            // fraction.
            if matches!(m, CpuMethod::Shift { .. }) {
                assert_eq!(s.early_shipped_fraction(), 0.0);
            } else {
                assert!(
                    s.early_shipped_fraction() > 0.0,
                    "{m:?} shipped nothing early (fraction {})",
                    s.early_shipped_fraction()
                );
            }
        }
    }

    /// Single-rank partitioned runs have only loopback traffic — the
    /// scheduler must degrade to plain overlap without recording a
    /// partition denominator.
    #[test]
    fn partitioned_single_rank_degrades_cleanly() {
        let mut c = cfg(CpuMethod::Layout);
        c.partitioned = true;
        let r = run_experiment(&c);
        let phased = run_experiment(&cfg(CpuMethod::Layout));
        assert_eq!(r.checksum.to_bits(), phased.checksum.to_bits());
        let s = r.overlap_stats.expect("stats present");
        assert!(!s.partitioned(), "loopback-only run must not count partitions");
    }

    /// Lossy faults close the partitioned channels: nothing ships early
    /// and the retry protocol runs on whole messages; the grid still
    /// converges bit-identically to a clean phased run.
    #[test]
    fn partitioned_chaos_run_converges() {
        for m in [
            CpuMethod::Layout,
            CpuMethod::MemMap { page_size: memview::PAGE_4K },
            CpuMethod::Shift { page_size: memview::PAGE_4K },
        ] {
            let mut c = cfg(m.clone());
            c.ranks = vec![1, 1, 2];
            c.partitioned = true;
            c.faults = FaultConfig {
                seed: 42,
                drop: 0.05,
                corrupt: 0.02,
                dup: 0.05,
                ..FaultConfig::off()
            };
            let lossy = run_experiment(&c);
            let mut clean_cfg = c.clone();
            clean_cfg.faults = FaultConfig::off();
            clean_cfg.partitioned = false;
            let clean = run_experiment(&clean_cfg);
            assert_eq!(
                lossy.checksum.to_bits(),
                clean.checksum.to_bits(),
                "lossy partitioned diverged for {m:?}"
            );
            assert!(lossy.faults.total() > 0, "seed 42 at these rates must inject something");
        }
    }

    /// Every field of the report that depends on the method or the
    /// schedule, over the whole method × schedule × backend × resilience
    /// table (2×1×1 ranks, 16³): every method runs every schedule it
    /// accepts, with and without checkpoints, on the same bits.
    #[test]
    fn report_fields_follow_method_and_schedule() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Sched {
            Phased,
            Overlap,
            Partitioned,
        }
        let page_size = memview::PAGE_4K;
        // (method, messages per exchange)
        let table = [
            (CpuMethod::MemMap { page_size }, 26),
            (CpuMethod::Layout, 42),
            // 98 needs three bricks per axis; with two, 42 of the region
            // instances are empty.
            (CpuMethod::Basic, 56),
            (CpuMethod::Shift { page_size }, 6),
            // Layout's exchange over bricks in lexicographic order: at
            // 16³ its runs merge as far as Layout's do.
            (CpuMethod::NoLayout, 42),
            (CpuMethod::Yask, 26),
            (CpuMethod::MpiTypes, 26),
        ];
        for (method, messages) in table {
            let mut checksum = None;
            for sched in [Sched::Phased, Sched::Overlap, Sched::Partitioned] {
                if sched == Sched::Partitioned && method.partitioned_refusal().is_some() {
                    continue;
                }
                for every in [0, 2] {
                    let mut comm_bits = None;
                    for backend in [Backend::Thread, Backend::Event] {
                        let mut c = cfg(method.clone());
                        c.subdomain = [16; 3];
                        c.ranks = vec![2, 1, 1];
                        c.backend = backend;
                        c.checkpoint_every = every;
                        c.overlap = sched == Sched::Overlap;
                        c.partitioned = sched == Sched::Partitioned;
                        let r = run_experiment(&c);
                        let what = format!("{method:?} {sched:?} {backend:?} checkpoint_every={every}");
                        let dag = sched != Sched::Phased;
                        assert_eq!(r.overlap_stats.is_some(), dag, "{what}: overlap_stats");
                        assert_eq!(r.calc_hidden > 0.0, dag, "{what}: calc_hidden");
                        assert_eq!(r.points, 16 * 16 * 16, "{what}: points");
                        assert_eq!(r.stats.messages, messages, "{what}: messages");
                        assert_eq!(r.recovery.checkpoints > 0, every > 0, "{what}: checkpoints");
                        assert!(r.migration.is_none() && r.mapping.is_none(), "{what}");
                        let bits = *checksum.get_or_insert(r.checksum.to_bits());
                        assert_eq!(r.checksum.to_bits(), bits, "{what}: checksum");
                        if !dag {
                            // Modeled communication time does not depend
                            // on which substrate ran the ranks (MPI_Types
                            // bills its measured datatype walk to `call`).
                            let call =
                                if method == CpuMethod::MpiTypes { 0 } else { r.timers.call.to_bits() };
                            let comm = (call, r.timers.wait.to_bits());
                            assert_eq!(comm, *comm_bits.get_or_insert(comm), "{what}: call/wait");
                        }
                    }
                }
            }
        }
    }

    /// Partitioned channels carry storage bricks; the array baselines
    /// have none, so a partitioned run of theirs is refused up front.
    #[test]
    #[should_panic(expected = "YASK cannot run partitioned: the array baselines send packed buffers")]
    fn partitioned_arrays_are_refused() {
        run_experiment(&ExperimentConfig { partitioned: true, ..cfg(CpuMethod::Yask) });
    }

    /// A checkpoint carries what the rank owns and nothing else, and that
    /// is enough: on every resilient engine × schedule × backend, a
    /// `kill:1@2` run reproduces the fault-free bits although `restore`
    /// (in this test build) poisons the ghost rim and the next grid, and
    /// the byte counters are whole multiples of one owned prefix.
    #[test]
    fn killed_runs_recover_from_owned_state_alone() {
        let page_size = memview::PAGE_4K;
        let kill = FaultConfig {
            kill: Some(netsim::ProcFault { rank: 1, step: 2, op: 0, stall_secs: 0.0 }),
            ..FaultConfig::off()
        };
        for method in [
            CpuMethod::Layout,
            CpuMethod::Basic,
            CpuMethod::MemMap { page_size },
            CpuMethod::Shift { page_size },
            CpuMethod::NoLayout,
            CpuMethod::Yask,
            CpuMethod::MpiTypes,
        ] {
            for ranks in [vec![2, 1, 1], vec![2, 2, 2]] {
                let mut base = cfg(method.clone());
                base.subdomain = [16; 3];
                base.ranks = ranks;
                let clean = run_experiment(&base).checksum.to_bits();
                let owned_bytes = base.decomp().owned_elems() as u64 * 8;
                for (overlap, partitioned) in [(false, false), (true, false), (false, true)] {
                    if partitioned && method.partitioned_refusal().is_some() {
                        continue;
                    }
                    for backend in [Backend::Thread, Backend::Event] {
                        for every in [1, 2] {
                            let mut c = base.clone();
                            (c.overlap, c.partitioned, c.backend) = (overlap, partitioned, backend);
                            c.checkpoint_every = every;
                            c.faults = kill;
                            let r = run_experiment(&c);
                            let what = format!(
                                "{method:?} {:?} overlap={overlap} partitioned={partitioned} \
                                 {backend:?} checkpoint_every={every}",
                                c.ranks
                            );
                            assert_eq!(r.checksum.to_bits(), clean, "{what}: checksum");
                            let rv = &r.recovery;
                            assert_eq!((rv.recovery_epochs, rv.failed_rank, rv.failed_step), (1, 1, 2), "{what}");
                            assert!(rv.checkpoints > 0, "{what}: no checkpoint taken");
                            assert_eq!(rv.checkpoint_bytes, rv.checkpoints * owned_bytes, "{what}: snapshot bytes");
                            // The victim's grid from its buddy, its guard
                            // slot from its anti-buddy.
                            assert_eq!(rv.restore_bytes, 2 * owned_bytes, "{what}: restore bytes");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn throughput_is_positive_and_sane() {
        let r = run_experiment(&cfg(CpuMethod::Layout));
        assert!(r.gstencil() > 0.0);
        assert_eq!(r.points, 32 * 32 * 32);
        assert!(r.comm_time() > 0.0);
    }

    #[test]
    fn network_floor_below_all_methods() {
        let r = run_experiment(&cfg(CpuMethod::Layout));
        let floor = network_floor(&NetworkModel::theta_aries(), r.stats.payload_bytes);
        assert!(floor <= r.comm_time() * 1.01);
    }
}
