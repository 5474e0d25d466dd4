//! # packfree — pack-free ghost-zone exchange via data layout
//!
//! The core contribution of *"Improving Communication by Optimizing
//! On-Node Data Movement with Data Layout"* (PPoPP 2021), reimplemented
//! in Rust on top of the `brick`, `layout`, `memview`, `netsim`, and
//! `devsim` substrates:
//!
//! * [`BrickDecomp`] — layout-ordered decomposition of one rank's
//!   subdomain into interior / surface / ghost bricks (paper Fig. 7's
//!   `BrickDecomp<3, BDIM>`),
//! * [`Exchanger`] — the Layout exchange: every message is a contiguous
//!   brick range, zero packing, 42 messages in 3D (Section 3),
//! * [`MemMapStorage`] / [`Exchanger::memmap`] — the MemMap
//!   exchange: mmap views make each neighbor's regions virtually
//!   contiguous, one message per neighbor (Section 4),
//! * [`Exchanger`] / [`ExchangeSession`] — the one brick exchange
//!   every brick method runs: a schedule of passes whose messages are
//!   storage ranges or mmap views, cut and bound per rank,
//! * [`baselines`] — the YASK-like packed array exchange and the
//!   `MPI_Types` derived-datatype exchange the paper compares against,
//! * [`gpu`] — CUDA-Aware / Unified-Memory data-movement policies over
//!   the `devsim` models (Section 5),
//! * [`experiment`] — the one timestep driver (every method behind a
//!   per-rank engine trait) shared by the tests, examples, and the
//!   table/figure harness,
//! * [`rebalance`] — dynamic brick ownership: a diffusion balancer, NBX
//!   edge discovery and the migrating engine, under that same driver.
//!
//! ```
//! use packfree::{BrickDecomp, Exchanger};
//! use brick::BrickDims;
//!
//! let d = BrickDecomp::<3>::layout_mode(
//!     [32; 3], 8, BrickDims::cubic(8), 1, layout::surface3d());
//! let ex = Exchanger::layout(&d);
//! assert_eq!(ex.stats().messages, 42);          // paper Section 3.2
//! assert_eq!(ex.stats().region_instances, 98);  // Eq. 3
//! assert_eq!(ex.stats().padding_overhead_percent(), 0.0);
//! ```

#![warn(missing_docs)]

mod balance;
pub mod baselines;
pub mod calibrated;
pub mod checkpoint;
pub mod decomp;
mod driver;
mod engine;
pub mod exchange;
pub mod experiment;
pub mod fields;
pub mod gpu;
pub mod memmap;
mod migrating;
mod plan;
pub mod rebalance;
pub mod shift;
mod workload;

#[cfg(test)]
mod alloc_count;

pub use checkpoint::{DriveOp, FailureRecovery, RecoveryCfg};
pub use decomp::{pad_bricks_for, BrickDecomp, Chunk, GhostGroup, Ownership};
pub use exchange::{split_disjoint_mut, ExchangeSession, ExchangeStats, Exchanger, Msg};
pub use memmap::{ExchangeView, MemMapStorage};
