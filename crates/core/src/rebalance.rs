//! # Dynamic brick ownership via diffusion load balancing
//!
//! Makes the brick→rank assignment *dynamic*: a per-brick cost signal
//! harvested from telemetry drives a diffusion-style balancer that
//! proposes migrations every M steps, and a migration epoch moves brick
//! interiors between ranks and rediscovers the sparse exchange edges with
//! NBX nonblocking-barrier consensus (no alltoall). NBX *discovers* the
//! edges; the same `CommPlan` every static method uses *executes* them,
//! under the same step driver, schedules, retry protocol and checkpoint
//! harness — so a rank killed mid-epoch recovers to the post-migration
//! ownership, and a lossy fabric converges to the clean run's bits.
//!
//! * [`GridCfg`] and the workload functions — the migratable proxy
//!   physics (owner-independent relaxation + a deterministic modeled cost
//!   skew),
//! * [`propose_moves`] — the pure diffusion proposal,
//! * [`discover_plan`] — NBX ownership discovery with forwarding
//!   pointers,
//! * [`run_rebalance`] — the run: the migrating engine, its migration
//!   epoch and recovery hooks.
//!
//! ```
//! use packfree::rebalance::{GridCfg, RebalanceCfg, run_rebalance};
//! use netsim::{Backend, NetworkModel};
//!
//! let mut cfg = RebalanceCfg::new(
//!     GridCfg { dims: [4, 2, 2], cells: 8, skew: 6.0 }, vec![2]);
//! cfg.backend = Backend::Thread;
//! cfg.net = NetworkModel::instant();
//! cfg.migrate_every = 2;
//! let report = run_rebalance(&cfg);
//! assert!(report.migration.unwrap().epochs >= 1);
//! ```

pub use crate::balance::{propose_moves, Move};
pub use crate::driver::{run_rebalance, RebalanceCfg};
pub use crate::plan::{discover_plan, ExchangePlan};
pub use crate::workload::{brick_sum, fold_checksum, init_cell, relax, GridCfg, COST_PER_CELL};
