//! # stencil — kernels, the array baseline, and MPI datatype emulation
//!
//! Three substrates of the PPoPP'21 reproduction:
//!
//! * [`StencilShape`] with the paper's two proxies (7-point star,
//!   125-point cube with 10 symmetric coefficients);
//! * [`ArrayGrid`], the lexicographic "YASK-like" baseline whose halo
//!   exchange must pack/unpack 26 strided surface regions;
//! * brick-side application following the paper's Figure 6
//!   (adjacency-resolved accesses, layout-agnostic): [`apply_bricks`],
//!   the one-shot form of [`KernelPlan`], and the reference kernels
//!   [`apply_bricks_serial`] and [`apply_bricks_gather`];
//! * [`KernelPlan`] / [`VarCoefPlan`], precompiled bind-once /
//!   execute-many kernel plans that resolve neighbor bases and row
//!   segments once per `(BrickInfo, StencilShape, field)` binding and
//!   replay them every timestep (bit-identical to the serial
//!   reference);
//! * [`Isa`], the instruction-set level a plan's kernel runs at: the
//!   planned kernels (star7 on bricks and arrays, the dense block
//!   kernel) are written once and compiled per level (baseline / AVX2 /
//!   AVX-512), and a plan binds the detected level when it is built.
//!   `fma` is never enabled, so multiply and add stay separate and
//!   every level produces the same bits;
//! * one worker pool (`pool`, private) that every data-parallel loop
//!   above runs through: a large kernel call, or a large face
//!   pack/unpack, deals runs of bricks or z-planes to its caller plus
//!   `available_parallelism() − 1` persistent helper threads — the
//!   paper's OpenMP threads per rank — with each item computed by one
//!   thread in the same op order, so the bits never depend on the split;
//! * [`Datatype`], an MPI derived-datatype engine whose element-wise
//!   pack walk faithfully reproduces the `MPI_Types` baseline.
//!
//! ```
//! use stencil::{ArrayGrid, StencilShape};
//!
//! let shape = StencilShape::star7_default();
//! let mut g = ArrayGrid::new([8; 3], 1);
//! g.fill_interior(|x, _, _| x as f64);
//! g.fill_ghost_periodic_self();
//! let mut out = ArrayGrid::new([8; 3], 1);
//! g.apply_into(&shape, &mut out);
//! // A coefficient-sum-1 stencil preserves a constant-in-y,z ramp's sum.
//! assert!((out.interior_sum() - g.interior_sum()).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod arena;
pub mod array;
pub mod brickstencil;
pub mod isa;
pub mod mpitypes;
pub mod plan;
mod pool;
pub mod shape;
pub mod varcoef;

pub use array::{ArrayGrid, ArrayPlan};
pub use brickstencil::{apply_bricks, apply_bricks_gather, apply_bricks_serial, gstencil_per_sec};
pub use isa::Isa;
pub use mpitypes::Datatype;
pub use plan::{KernelPlan, PlanSplit, VarCoefPlan};
pub use shape::{star7_coeffs, StencilShape};
pub use varcoef::{apply_varcoef7_bricks, VARCOEF_FIELDS};
