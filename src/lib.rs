//! # bricklib — pack-free ghost-zone exchange via data layout
//!
//! Umbrella crate re-exporting the whole reproduction of
//! *"Improving Communication by Optimizing On-Node Data Movement with
//! Data Layout"* (Zhao, Hall, Johansen, Williams — PPoPP 2021).
//!
//! ```
//! use bricklib::prelude::*;
//!
//! // Decompose a 32³ subdomain with an 8-wide ghost zone into 8³
//! // bricks, ordered by the optimal surface3d layout (paper Fig. 7).
//! let decomp = BrickDecomp::<3>::layout_mode(
//!     [32; 3], 8, BrickDims::cubic(8), 1, surface3d());
//! let exchanger = Exchanger::layout(&decomp);
//! assert_eq!(exchanger.stats().messages, 42); // vs 98 Basic, 26 packed
//! ```
//!
//! Crate map (see DESIGN.md for the full inventory):
//!
//! | crate | role |
//! |---|---|
//! | [`brick`] | fine-grained data blocking with indirection |
//! | [`layout`] | direction-set algebra, message analysis, optimizers |
//! | [`memview`] | memfd/mmap contiguous views (MemMap substrate) |
//! | [`netsim`] | thread-rank MPI with a LogGP wire model |
//! | [`devsim`] | V100 roofline / NVLink / Unified-Memory models |
//! | [`stencil`] | kernels, array baseline, MPI datatype engine |
//! | [`packfree`] | the paper's contribution: `BrickDecomp` + exchanges |
//! | [`rebalance`] | `packfree::rebalance`: dynamic brick ownership via diffusion balancing |
//! | [`mapping`] | topology-aware process-to-node mapping |

pub use brick;
pub use devsim;
pub use layout;
pub use mapping;
pub use memview;
pub use netsim;
pub use packfree;
pub use packfree::rebalance;
pub use stencil;

/// The most commonly used items in one import.
pub mod prelude {
    pub use brick::{BrickDims, BrickGrid, BrickInfo, BrickStorage, BrickView, BrickViewMut};
    pub use layout::{all_regions, surface2d, surface3d, Dir, MessagePlan, SurfaceLayout};
    pub use mapping::{recursive_bisection, CommGraph, MappingPolicy};
    pub use memview::{ContiguousView, MemFile, Segment};
    pub use netsim::hier::{HierarchicalNetworkModel, NodeShape};
    pub use netsim::telemetry::Phase;
    pub use netsim::{
        run_cluster, run_cluster_faulty, run_cluster_on, Backend, CartTopo, FaultConfig,
        FaultStats, NetworkModel, NetsimError, RankCtx, Timers,
    };
    pub use packfree::baselines::ArrayExchanger;
    pub use packfree::experiment::{
        run_experiment, CpuMethod, ExperimentConfig, KernelKind, MethodReport,
    };
    pub use packfree::gpu::{estimate_gpu_step, GpuMethod, GpuPlatform, GpuWorkload};
    pub use packfree::memmap::{memmap_decomp, ExchangeView, MemMapStorage};
    pub use packfree::{BrickDecomp, ExchangeStats, Exchanger};
    pub use packfree::rebalance::{run_rebalance, GridCfg, RebalanceCfg};
    pub use stencil::{apply_bricks, ArrayGrid, Datatype, KernelPlan, StencilShape};
}
