//! The rebalanced run: a halo-exchange relaxation whose brick→rank
//! ownership is *dynamic*. Its per-rank half is the [`Migrating`] engine;
//! this is the rest — the configuration, the entry point that hands the
//! engine to the one step driver ([`run_steps`]), and the host-side fold
//! of what only the whole cluster knows (the checksum in brick-id order,
//! the final ownership and its digest, the merged migration accounting).
//!
//! Headline invariant (enforced by `tests/proptest_migrate.rs`): the
//! migrated run's checksum is bit-identical to the static run's, across
//! schedules, backends and fault plans.

use netsim::telemetry::MigrationStats;
use netsim::{Backend, CartTopo, FaultConfig, NetworkModel};

use crate::decomp::Ownership;
use crate::exchange::ExchangeStats;
use crate::experiment::{run_steps, unreachable_proc_fault, MethodReport, RunParams, Schedule};
use crate::migrating::Migrating;
use crate::workload::{fold_checksum, GridCfg};

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
    /// Seeded fault injection: lossy plans (drop/corrupt/dup) run the
    /// halos through the retry protocol, kill/stall through the buddy
    /// checkpoints; delay/jitter only move the clock.
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

    pub(crate) fn run_params(&self) -> RunParams {
        let n: usize = self.ranks.iter().product();
        RunParams {
            steps: self.steps,
            warmup: self.warmup,
            profile: self.profile,
            backend: self.backend,
            wire: self.net.into(),
            faults: self.faults,
            checkpoint_every: self.checkpoint_every,
            schedule: if self.overlap { Schedule::Dag { partitioned: false } } else { Schedule::Phased },
            points: (self.grid.nbricks() * self.grid.cells / n) as u64,
        }
    }
}

/// Run the rebalanced relaxation and report it in the shared
/// [`MethodReport`] shape (with [`MethodReport::migration`] populated).
pub fn run_rebalance(cfg: &RebalanceCfg) -> MethodReport {
    let n: usize = cfg.ranks.iter().product();
    assert!(n > 0, "empty rank grid");
    assert!(!cfg.faults.proc_active() || n >= 2, "process faults need a buddy: at least 2 ranks");
    if let Some(e) = unreachable_proc_fault(&cfg.faults, n, cfg.warmup + cfg.steps) {
        panic!("{e}");
    }
    assert!(cfg.grid.nbricks() > 0 && cfg.grid.cells > 0, "empty grid");
    assert!(cfg.steps > 0, "need at least one timed step");

    let topo = CartTopo::new(&cfg.ranks, true);
    let (mut report, ranks) =
        run_steps(&cfg.run_params(), &topo, |ctx| Migrating::new(cfg, ctx), Migrating::harvest);

    // The plan changes at every epoch, so traffic is reported as rank 0
    // measured it: per-step averages, epochs and checkpoints included.
    let t = report.timers;
    report.stats = ExchangeStats {
        messages: t.msgs as usize,
        payload_bytes: t.payload_bytes as usize,
        wire_bytes: t.wire_bytes as usize,
        region_instances: t.msgs as usize,
    };
    // Final ownership must tile the grid exactly once — the invariant a
    // lost or duplicated migration frame would break.
    let mut owner = vec![u32::MAX; cfg.grid.nbricks()];
    let mut sums = Vec::with_capacity(owner.len());
    let mut mig = MigrationStats::default();
    for (rank, (bricks, stats)) in ranks.into_iter().enumerate() {
        for &(b, _) in &bricks {
            let prev = std::mem::replace(&mut owner[b as usize], rank as u32);
            assert_eq!(prev, u32::MAX, "brick {b} owned by both rank {prev} and rank {rank}");
        }
        sums.extend(bricks);
        mig.merge(&stats);
    }
    assert!(owner.iter().all(|&r| r != u32::MAX), "some bricks ended the run unowned");
    mig.ownership_digest = Ownership::from_owners(owner).digest();
    report.checksum = fold_checksum(sums);
    report.migration = Some(mig);
    report
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

    /// On four ranks every brick has a ghost face; on two, migration
    /// leaves ranks owning interior bricks, which the dependency-graph
    /// schedule computes while the halos are in flight.
    #[test]
    fn overlap_engine_matches_phased_bits() {
        for ranks in [vec![4], vec![2]] {
            let mut phased = small(2);
            phased.ranks = ranks;
            let mut dag = phased.clone();
            dag.overlap = true;
            let a = run_rebalance(&phased);
            let b = run_rebalance(&dag);
            assert_eq!(a.checksum.to_bits(), b.checksum.to_bits(), "{:?}", dag.ranks);
            assert_eq!(a.migration.unwrap().ownership_digest, b.migration.unwrap().ownership_digest);
            assert!(b.overlap_stats.is_some() && a.overlap_stats.is_none());
        }
    }

    #[test]
    fn single_rank_runs_degenerate() {
        let mut cfg = small(2);
        cfg.ranks = vec![1];
        let r = run_rebalance(&cfg);
        assert_eq!(r.migration.unwrap().epochs, 0, "no ring to trade on");
        assert!(r.checksum.is_finite());
    }
}
