//! Contiguous virtual views over scattered file segments — the paper's
//! Figure 5: `mmap(PtrLeft + off_i, len_i, ..., MAP_SHARED, fd, pos_i)`
//! makes regions 1, 4, 6 appear "naturally contiguous" so one
//! `MPI_Send(PtrLeft, ...)` moves them all with zero copies.

use std::io;
use std::sync::Arc;

use crate::memfile::MemFile;
use crate::pages::{host_page_size, is_aligned};

/// One file segment of a view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Byte offset within the file (page-aligned).
    pub file_offset: usize,
    /// Byte length (page multiple).
    pub len: usize,
}

/// A single contiguous range of virtual memory whose consecutive pieces
/// are `MAP_SHARED` mappings of (possibly non-consecutive, possibly
/// repeated) segments of one [`MemFile`]. Reading or writing the view
/// reads/writes the underlying file pages — no data is copied, ever.
pub struct ContiguousView {
    base: *mut u8,
    len: usize,
    segments: Vec<Segment>,
    // Keeps the backing file (and thus its pages) alive.
    file: Arc<MemFile>,
}

// SAFETY: `base`/`len` are the only handle to the view's reservation
// (unmapped on drop), and a mapping is process-wide, so moving the view
// moves sole ownership of it; `segments` is plain data and `file` an
// `Arc<MemFile>`, both `Send` by themselves.
unsafe impl Send for ContiguousView {}
// SAFETY: through `&ContiguousView` the pages are only read (`as_f64`);
// writes need `&mut self`. Aliasing between views of the same
// file is the caller's borrow discipline, as with any `&[f64]`/`&mut [f64]`.
// The other fields are immutable after `build` and `Sync` by themselves.
unsafe impl Sync for ContiguousView {}

impl ContiguousView {
    /// Build a view of `segments` of `file`, in order. Every segment must
    /// be page-aligned in offset and length; segments may repeat and may
    /// be in any order (the same physical pages can appear in many views,
    /// which is how one surface region is sent to several neighbors
    /// without copies).
    pub fn build(file: &Arc<MemFile>, segments: &[Segment]) -> io::Result<ContiguousView> {
        let page = host_page_size();
        let mut total = 0usize;
        for s in segments {
            assert!(is_aligned(s.file_offset, page), "segment offset must be page-aligned");
            assert!(s.len > 0 && is_aligned(s.len, page), "segment length must be a positive page multiple");
            assert!(s.file_offset + s.len <= file.len(), "segment exceeds file");
            total += s.len;
        }
        assert!(total > 0, "view must contain at least one segment");

        // One segment is one `MAP_SHARED` mapping of the file. Several
        // reserve one contiguous range of addresses...
        let (prot, flags, fd, offset) = match segments {
            [s] => (libc::PROT_READ | libc::PROT_WRITE, libc::MAP_SHARED, file.raw_fd(), s.file_offset),
            _ => (libc::PROT_NONE, libc::MAP_PRIVATE | libc::MAP_ANONYMOUS, -1, 0),
        };
        // SAFETY: a fresh mapping at an address of the kernel's choosing
        // (of a live fd and an in-file segment when there is one segment).
        let base = unsafe { libc::mmap(std::ptr::null_mut(), total, prot, flags, fd, offset as libc::off_t) };
        if base == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }

        // ...then overlay each segment with MAP_FIXED at its position.
        let overlays = if segments.len() > 1 { segments } else { &[] };
        let mut off = 0usize;
        for s in overlays {
            // SAFETY: target range lies within our fresh reservation;
            // MAP_FIXED replaces only pages we own.
            let p = unsafe {
                libc::mmap(
                    (base as usize + off) as *mut libc::c_void,
                    s.len,
                    libc::PROT_READ | libc::PROT_WRITE,
                    libc::MAP_SHARED | libc::MAP_FIXED,
                    file.raw_fd(),
                    s.file_offset as libc::off_t,
                )
            };
            if p == libc::MAP_FAILED {
                let e = io::Error::last_os_error();
                // SAFETY: unmap the whole reservation on failure.
                unsafe { libc::munmap(base, total) };
                return Err(e);
            }
            off += s.len;
        }

        file.live.add(segments.len());
        Ok(ContiguousView {
            base: base.cast(),
            len: total,
            segments: segments.to_vec(),
            file: Arc::clone(file),
        })
    }

    /// Total bytes in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty (never: build rejects empty segment lists).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segments the view stitches together.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The file the view maps.
    pub fn file(&self) -> &Arc<MemFile> {
        &self.file
    }

    /// The view as `f64`s.
    pub fn as_f64(&self) -> &[f64] {
        // SAFETY: `base`/`len` are our live mapping; page alignment ≥
        // 8-byte alignment, and any bit pattern is a valid f64.
        unsafe { std::slice::from_raw_parts(self.base.cast::<f64>(), self.len / 8) }
    }

    /// The view as mutable `f64`s. Distinct views (a whole-file one
    /// included) may alias the same pages; callers serialize access just
    /// as the paper's exchange serializes compute and communication
    /// phases.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        // SAFETY: as above.
        unsafe { std::slice::from_raw_parts_mut(self.base.cast::<f64>(), self.len / 8) }
    }
}

impl Drop for ContiguousView {
    fn drop(&mut self) {
        // SAFETY: base/len cover exactly our reservation.
        unsafe { libc::munmap(self.base.cast(), self.len) };
        self.file.live.sub(self.segments.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::host_page_size;

    fn file_with_pages(n: usize) -> Arc<MemFile> {
        let ps = host_page_size();
        let f = Arc::new(MemFile::create("view-test", n * ps).unwrap());
        let mut m = f.map_all().unwrap();
        // Page i holds the value i in every f64 slot.
        for i in 0..n {
            let s = &mut m.as_f64_mut()[i * ps / 8..(i + 1) * ps / 8];
            s.fill(i as f64);
        }
        f
    }

    #[test]
    fn reordered_view() {
        let ps = host_page_size();
        let f = file_with_pages(4);
        // View pages in order 2, 0, 3.
        let v = ContiguousView::build(
            &f,
            &[
                Segment { file_offset: 2 * ps, len: ps },
                Segment { file_offset: 0, len: ps },
                Segment { file_offset: 3 * ps, len: ps },
            ],
        )
        .unwrap();
        let d = v.as_f64();
        assert_eq!(d.len(), 3 * ps / 8);
        assert_eq!(d[0], 2.0);
        assert_eq!(d[ps / 8], 0.0);
        assert_eq!(d[2 * ps / 8], 3.0);
        // Each segment counts as one mapping of its file.
        assert_eq!(f.live_mappings(), 3);
        drop(v);
        assert_eq!(f.live_mappings(), 0);
    }

    #[test]
    fn repeated_segment_aliases() {
        let ps = host_page_size();
        let f = file_with_pages(2);
        let mut v = ContiguousView::build(
            &f,
            &[
                Segment { file_offset: ps, len: ps },
                Segment { file_offset: ps, len: ps },
            ],
        )
        .unwrap();
        // Writing through the first copy is visible through the second
        // (same physical page mapped twice).
        v.as_f64_mut()[0] = 99.0;
        assert_eq!(v.as_f64()[ps / 8], 99.0);
    }

    #[test]
    fn view_and_base_mapping_alias() {
        let ps = host_page_size();
        let f = file_with_pages(3);
        let mut base = f.map_all().unwrap();
        let v = ContiguousView::build(&f, &[Segment { file_offset: 2 * ps, len: ps }]).unwrap();
        base.as_f64_mut()[2 * ps / 8 + 5] = -1.5;
        assert_eq!(v.as_f64()[5], -1.5);
    }

    #[test]
    fn multi_page_segment() {
        let ps = host_page_size();
        let f = file_with_pages(4);
        let v = ContiguousView::build(&f, &[Segment { file_offset: ps, len: 2 * ps }]).unwrap();
        assert_eq!(v.as_f64()[0], 1.0);
        assert_eq!(v.as_f64()[ps / 8], 2.0);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_segment_rejected() {
        let f = file_with_pages(1);
        let _ = ContiguousView::build(&f, &[Segment { file_offset: 8, len: 4096 }]);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_view_rejected() {
        let f = file_with_pages(1);
        let _ = ContiguousView::build(&f, &[]);
    }
}
