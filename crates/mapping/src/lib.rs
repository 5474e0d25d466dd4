//! # mapping — topology-aware process-to-node mapping
//!
//! MPI's default lexicographic placement slices a Cartesian decomposition
//! into 1-D slabs of ranks per node, so most ghost-zone neighbors sit
//! across the fabric. This crate turns the decomposition's communication
//! structure into an explicit graph and searches for rank permutations
//! that keep heavy neighbors on the same node of a
//! [`netsim::HierarchicalNetworkModel`]:
//!
//! - [`CommGraph`] / [`DirLoad`]: the per-rank communication-volume graph
//!   — of what a run's ranks bound ([`CommGraph::from_sends`]), or, for a
//!   model-side sweep, extracted from decomp adjacency plus a layout's
//!   schedule ([`schedule_loads`]) — and its [`TrafficSplit`] /
//!   modeled-time evaluation under a mapping,
//! - [`lexicographic`]: the identity baseline,
//! - [`recursive_bisection`]: geometric grouping into node-sized boxes
//!   (the strategy of arXiv 2005.09521).
//!
//! Every mapper returns `perm[cartesian rank] = physical rank`; hand the
//! result to [`netsim::CartTopo::with_permutation`] and every exchange
//! engine runs remapped unchanged.
//!
//! ```
//! use mapping::{lexicographic, recursive_bisection, CommGraph, DirLoad};
//! use netsim::{CartTopo, NodeShape};
//!
//! let topo = CartTopo::new(&[4, 4, 4], true);
//! let node = NodeShape::new(8);
//! let loads: Vec<DirLoad> = (0..3)
//!     .flat_map(|a| [-1i8, 1].map(|s| {
//!         let mut trits = vec![0i8; 3];
//!         trits[a] = s;
//!         DirLoad { trits, msgs: 1, bytes: 4096 }
//!     }))
//!     .collect();
//! let g = CommGraph::from_dir_loads(&topo, &loads);
//! let bisect = g.split(&recursive_bisection(&topo, &node), &node);
//! let lex = g.split(&lexicographic(topo.size()), &node);
//! assert!(bisect.off_bytes <= lex.off_bytes);
//! ```

#![warn(missing_docs)]

pub mod graph;
pub mod map;

pub use graph::{schedule_loads, CommGraph, DirLoad, TrafficSplit};
pub use map::{lexicographic, recursive_bisection, MappingPolicy};
