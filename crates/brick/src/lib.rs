//! # brick — fine-grained data blocking with indirection
//!
//! Rust implementation of the brick data layout from Zhao et al. (SC'19,
//! P3HPC'18), the substrate of the PPoPP'21 pack-free communication paper:
//! structured data is broken into small fixed-size blocks ("bricks"),
//! each stored contiguously; a logical adjacency list ([`BrickInfo`])
//! decouples the computation's logical ordering from the physical storage
//! order, so the physical order can be chosen to optimize communication
//! while computation code stays unchanged.
//!
//! ```
//! use brick::{BrickDims, BrickGrid, BrickInfo, BrickView, BrickViewMut};
//!
//! // A periodic 3x3 grid of 4x4 bricks, lexicographic physical order.
//! let grid = BrickGrid::<2>::lexicographic([3, 3], true);
//! let info = BrickInfo::from_grid(BrickDims::cubic(4), &grid);
//! let mut storage = info.allocate(1);
//!
//! // Write through the accessor, read across a brick face.
//! let b = grid.brick_at([0, 0]);
//! BrickViewMut::new(&info, &mut storage, 0).set(b, [3, 0], 7.0);
//! let right = BrickView::new(&info, &storage, 0).get(grid.brick_at([1, 0]), [-1, 0]);
//! assert_eq!(right, 7.0);
//! ```

#![warn(missing_docs)]

pub mod brickref;
pub mod dims;
pub mod grid;
pub mod info;
pub mod storage;

pub use brickref::{At, BrickView, BrickViewMut};
pub use dims::{adjacency_size, code_to_trits, trits_to_code, BrickDims};
pub use grid::BrickGrid;
pub use info::{BrickInfo, NO_BRICK};
pub use storage::{BrickStorage, HeapBacking, Spares, StorageBacking};
