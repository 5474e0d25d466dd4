//! `memfd_create`-backed files representing chunks of physical memory
//! (the paper's Section 4: "files in Linux can represent a chunk of
//! physical memory").

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pages::{host_page_size, round_up};
use crate::view::{ContiguousView, Segment};

/// Process-wide sum of the per-file counts below. The kernel caps a
/// process at `vm.max_map_count` mappings (default 65530, as the paper
/// notes), so consumers can watch this to stay within budget.
static LIVE_MAPPINGS: AtomicUsize = AtomicUsize::new(0);

/// Number of currently live view segments in this process, over all
/// files.
pub fn live_mapping_count() -> usize {
    LIVE_MAPPINGS.load(Ordering::Relaxed)
}

/// Live-mapping count of one [`MemFile`], shared with everything that
/// maps it (a view may outlive its file handle). Statistics only, hence
/// `Relaxed`.
#[derive(Clone, Default)]
pub(crate) struct MapCount(Arc<AtomicUsize>);

impl MapCount {
    pub(crate) fn add(&self, n: usize) {
        self.0.fetch_add(n, Ordering::Relaxed);
        LIVE_MAPPINGS.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn sub(&self, n: usize) {
        self.0.fetch_sub(n, Ordering::Relaxed);
        LIVE_MAPPINGS.fetch_sub(n, Ordering::Relaxed);
    }
}

/// An anonymous in-memory file created with `memfd_create`, the physical
/// backing for all MemMap views.
pub struct MemFile {
    fd: RawFd,
    len: usize,
    pub(crate) live: MapCount,
}

impl MemFile {
    /// Create a file of `len` bytes (rounded up to the host page size).
    pub fn create(name: &str, len: usize) -> io::Result<MemFile> {
        let cname = std::ffi::CString::new(name).expect("name contains NUL");
        // SAFETY: valid C string, no flags requiring extra invariants.
        let fd = unsafe { libc::memfd_create(cname.as_ptr(), libc::MFD_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let len = round_up(len.max(1), host_page_size());
        // SAFETY: fd is valid and owned by us.
        if unsafe { libc::ftruncate(fd, len as libc::off_t) } != 0 {
            let e = io::Error::last_os_error();
            // SAFETY: closing our own fd.
            unsafe { libc::close(fd) };
            return Err(e);
        }
        Ok(MemFile { fd, len, live: MapCount::default() })
    }

    /// File length in bytes (page multiple).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the file is empty (never: create rounds up to ≥1 page).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw descriptor (for mapping).
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Number of currently live view segments of this file.
    pub fn live_mappings(&self) -> usize {
        self.live.0.load(Ordering::Relaxed)
    }

    /// Map the whole file read-write shared: a one-segment view, the
    /// "compute" pointer of the paper's Figure 5. All views of the same
    /// file alias the same physical pages (`MAP_SHARED`), which is the
    /// mechanism behind pack-free sends.
    pub fn map_all(self: &Arc<Self>) -> io::Result<ContiguousView> {
        ContiguousView::build(self, &[Segment { file_offset: 0, len: self.len }])
    }
}

impl Drop for MemFile {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { libc::close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_rounds_to_page() {
        let f = MemFile::create("t", 100).unwrap();
        assert_eq!(f.len(), host_page_size());
        assert!(!f.is_empty());
    }

    #[test]
    fn write_read_through_mapping() {
        let f = Arc::new(MemFile::create("t", 8192).unwrap());
        let mut m = f.map_all().unwrap();
        assert_eq!(m.len(), f.len());
        m.as_f64_mut()[10] = 3.25;
        assert_eq!(m.as_f64()[10], 3.25);
    }

    /// Two mappings of the same file alias the same physical memory —
    /// the core mechanism of MemMap.
    #[test]
    fn mappings_alias() {
        let f = Arc::new(MemFile::create("alias", 8192).unwrap());
        let mut a = f.map_all().unwrap();
        let b = f.map_all().unwrap();
        a.as_f64_mut()[0] = 42.0;
        assert_eq!(b.as_f64()[0], 42.0);
    }

    /// Counted per file: sibling tests mapping their own files cannot
    /// disturb it, unlike the process-wide sum. A whole-file view is one
    /// mapping.
    #[test]
    fn mapping_counter() {
        let f = Arc::new(MemFile::create("cnt", 4096).unwrap());
        assert_eq!(f.live_mappings(), 0);
        let m = f.map_all().unwrap();
        let m2 = f.map_all().unwrap();
        assert_eq!(f.live_mappings(), 2);
        assert!(live_mapping_count() >= 2);
        drop(m);
        assert_eq!(f.live_mappings(), 1);
        drop(m2);
        assert_eq!(f.live_mappings(), 0);
    }
}
