//! Mapped grids: a whole-file [`ContiguousView`] of a memfd of its own
//! as a `brick::StorageBacking`, so a whole `BrickStorage` lives in
//! mmap-able pages (the paper's `mmap_alloc`) and send views over any
//! page-aligned subset of its bricks alias it.
//!
//! Like heap grids, mapped grids outlive their run: the paper makes its
//! views once and reuses them "until the communication pattern
//! changes", and so does this crate with the file and mapping under a
//! grid. A dropped [`MappedGrid`] goes back, file and mapping together,
//! to one process-wide list (a `brick::Spares`, the heap grids' policy),
//! and the next grid of its length takes it, zero-filled, on any thread.
//! A grid goes back only when its view holds the file's last handle, so
//! no other view maps its pages and none can be cut from it later: a
//! grid handed out again is never aliased.

use std::io;
use std::sync::Arc;

use brick::{Spares, StorageBacking};

use crate::memfile::MemFile;
use crate::pages::{host_page_size, round_up};
use crate::view::ContiguousView;

/// Spare mapped grids, keyed by byte length.
static SPARES: Spares<ContiguousView> = Spares::new();

/// A zero-initialized grid of whole pages: the whole-file view of a
/// memfd that nothing else maps. Its file and mapping come from the
/// process-wide list of mapped grids when one of this length is free
/// (see the module docs) and go back to it when it drops.
pub struct MappedGrid(Option<ContiguousView>);

impl MappedGrid {
    /// A zero-filled grid of `bytes` bytes, rounded up to the host page.
    pub fn new(bytes: usize) -> io::Result<MappedGrid> {
        let len = round_up(bytes.max(1), host_page_size());
        let view = match SPARES.take(len) {
            Some(mut view) => {
                view.as_f64_mut().fill(0.0);
                view
            }
            None => Arc::new(MemFile::create("brick-storage", len)?).map_all()?,
        };
        Ok(MappedGrid(Some(view)))
    }

    /// The grid's file, to cut send views from.
    pub fn file(&self) -> &Arc<MemFile> {
        self.view().file()
    }

    fn view(&self) -> &ContiguousView {
        self.0.as_ref().expect("a grid keeps its view until it drops")
    }
}

impl Drop for MappedGrid {
    fn drop(&mut self) {
        let view = self.0.take().expect("a grid keeps its view until it drops");
        if Arc::strong_count(view.file()) == 1 {
            SPARES.give(view.len(), view);
        }
    }
}

impl StorageBacking for MappedGrid {
    fn as_slice(&self) -> &[f64] {
        self.view().as_f64()
    }
    fn as_mut_slice(&mut self) -> &mut [f64] {
        self.0.as_mut().expect("a grid keeps its view until it drops").as_f64_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::MappedGrid;
    use crate::pages::host_page_size;
    use crate::view::{ContiguousView, Segment};
    use brick::BrickStorage;

    #[test]
    fn brick_storage_over_mmap() {
        let ps = host_page_size();
        let elems_per_brick = ps / 8; // one brick = one page
        let grid = MappedGrid::new(4 * ps).unwrap();
        let file = grid.file().clone();
        assert_eq!(file.live_mappings(), 1);
        let mut st = BrickStorage::from_backing(Box::new(grid), 4, elems_per_brick, 1);

        // Write distinct values per brick through the storage API.
        for b in 0..4u32 {
            st.field_mut(b, 0).fill(b as f64);
        }

        // A view of bricks [3, 1] sees the same physical data, reordered.
        let v = ContiguousView::build(
            &file,
            &[
                Segment { file_offset: 3 * ps, len: ps },
                Segment { file_offset: ps, len: ps },
            ],
        )
        .unwrap();
        assert!(v.as_f64()[..elems_per_brick].iter().all(|&x| x == 3.0));
        assert!(v.as_f64()[elems_per_brick..].iter().all(|&x| x == 1.0));

        // Writes through the view are visible in the storage.
        let mut v = v;
        v.as_f64_mut()[0] = -8.0;
        assert_eq!(st.field(3, 0)[0], -8.0);
    }
}
