//! # netsim — a simulated MPI cluster with a modeled fabric
//!
//! Replaces MPI + the Aries/InfiniBand network for this reproduction.
//! Ranks are tasks under one scheduler, each on a rank thread or a
//! coroutine ([`Backend`]); point-to-point messages really move data
//! between rank memories with MPI matching semantics (`(source, tag)`,
//! non-overtaking). Time is hybrid:
//!
//! * on-node phases (compute, packing) are **really executed and
//!   measured** via [`RankCtx::time`];
//! * the fabric is **modeled** by [`NetworkModel`] (LogGP-style `o`, `α`,
//!   `g`, `β`), charged to the `call`/`wait` timers.
//!
//! The timer taxonomy (`calc`/`pack`/`call`/`wait`) matches the paper's
//! artifact output so harness tables line up with the published ones.
//!
//! The fabric can also be made *hostile on purpose*: a seeded
//! [`FaultConfig`] (see [`fault`]) deterministically drops, duplicates,
//! corrupts and delays messages, and the transport reports stalls and
//! damage as structured [`NetsimError`] values instead of hanging or
//! panicking — the substrate for chaos testing the exchange protocols
//! built on top.
//!
//! ```
//! use netsim::{run_cluster, CartTopo, NetworkModel};
//!
//! // A 2-rank ring exchanging one value.
//! let topo = CartTopo::new(&[2], true);
//! let got = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
//!     let peer = 1 - ctx.rank();
//!     let h = ctx.irecv(peer, 0).unwrap();
//!     ctx.isend(peer, 0, &[ctx.rank() as f64]).unwrap();
//!     let mut buf = [0.0];
//!     ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
//!     buf[0]
//! });
//! assert_eq!(got, vec![1.0, 0.0]);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub use telemetry;

mod clock;
pub mod cluster;
pub mod collective;
pub mod error;
mod event;
pub mod fault;
pub mod hier;
mod mailbox;
pub mod model;
pub mod nbx;
pub mod partition;
mod procfault;
pub mod reliable;
mod runtime;
mod task;
pub mod timers;
pub mod topo;
pub mod trace;
pub mod window;

pub use cluster::{
    run_cluster, run_cluster_faulty, run_cluster_on, try_run_cluster_on, Backend, RankCtx,
    RecvHandle, RecvdMsg, POOL_CAP,
};
pub use collective::TimerSummary;
pub use error::NetsimError;
pub use fault::{
    frame_checksum, FaultConfig, FaultEvent, FaultKind, FaultPlan, FaultStats, ProcFault,
    CTRL_TAG_BIT,
};
pub use nbx::Ibarrier;
pub use procfault::{Failure, RECO_NS};
pub use partition::{PartitionedRecv, PartitionedSend, DEFAULT_EAGER_BYTES};
pub use reliable::{RelRecv, RelSend, ReliableSession};
pub use trace::Trace;
pub use window::Lend;
pub use hier::{HierarchicalNetworkModel, NodeShape};
pub use model::NetworkModel;
pub use timers::{timed, Timers};
pub use topo::{CartTopo, TopoError};
