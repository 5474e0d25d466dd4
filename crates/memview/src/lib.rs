//! # memview — contiguous virtual views over scattered memory
//!
//! The MemMap substrate of PPoPP'21 Section 4: anonymous in-memory files
//! ([`MemFile`], via `memfd_create`) represent chunks of physical memory;
//! repeated `mmap(MAP_SHARED)` of their pages builds [`ContiguousView`]s
//! in which non-adjacent (and even repeated) regions appear naturally
//! contiguous, so a single send can cover what would otherwise take
//! several messages plus packing — with zero on-node data movement.
//!
//! A [`ContiguousView`] is the crate's one owner of mapped memory. The
//! whole-file view ([`MemFile::map_all`]) is the "compute" pointer of the
//! paper's Figure 5. A [`MappedGrid`] is one such view of a memfd of its
//! own; as a `brick::StorageBacking` it holds a whole `BrickStorage`,
//! which every send view of the same file aliases, and like a heap grid
//! it goes back to a process-wide list of spares when it drops.
//!
//! ```
//! use std::sync::Arc;
//! use memview::{ContiguousView, MemFile, Segment, host_page_size};
//!
//! let ps = host_page_size();
//! let f = Arc::new(MemFile::create("demo", 2 * ps).unwrap());
//! f.map_all().unwrap().as_f64_mut()[ps / 8] = 1.0; // page 1
//!
//! // A view showing page 1 first, then page 0.
//! let v = ContiguousView::build(&f, &[
//!     Segment { file_offset: ps, len: ps },
//!     Segment { file_offset: 0, len: ps },
//! ]).unwrap();
//! assert_eq!(v.as_f64()[0], 1.0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

mod backing;
pub mod memfile;
pub mod pages;
pub mod view;

pub use backing::MappedGrid;
pub use memfile::{live_mapping_count, MemFile};
pub use pages::{host_page_size, is_aligned, round_up, PAGE_16K, PAGE_4K, PAGE_64K};
pub use view::{ContiguousView, Segment};
