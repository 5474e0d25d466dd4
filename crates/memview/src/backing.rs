//! A whole-file [`ContiguousView`] as a `brick::StorageBacking`, so a
//! whole `BrickStorage` lives in mmap-able pages (the paper's
//! `mmap_alloc`) and send views over any page-aligned subset of its
//! bricks alias it.

use brick::StorageBacking;

use crate::view::ContiguousView;

impl StorageBacking for ContiguousView {
    fn as_slice(&self) -> &[f64] {
        self.as_f64()
    }
    fn as_mut_slice(&mut self) -> &mut [f64] {
        self.as_f64_mut()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::memfile::MemFile;
    use crate::pages::host_page_size;
    use crate::view::{ContiguousView, Segment};
    use brick::BrickStorage;

    #[test]
    fn brick_storage_over_mmap() {
        let ps = host_page_size();
        let elems_per_brick = ps / 8; // one brick = one page
        let file = Arc::new(MemFile::create("bricks", 4 * ps).unwrap());
        let backing = file.map_all().unwrap();
        let mut st = BrickStorage::from_backing(Box::new(backing), 4, elems_per_brick, 1);

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
