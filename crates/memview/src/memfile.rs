//! `memfd_create`-backed files representing chunks of physical memory
//! (the paper's Section 4: "files in Linux can represent a chunk of
//! physical memory").

use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::pages::{host_page_size, round_up};

/// Process-wide sum of the per-file counts below. The kernel caps a
/// process at `vm.max_map_count` mappings (default 65530, as the paper
/// notes), so consumers can watch this to stay within budget.
static LIVE_MAPPINGS: AtomicUsize = AtomicUsize::new(0);

/// Number of currently live [`Mapping`]s and view segments in this
/// process, over all files.
pub fn live_mapping_count() -> usize {
    LIVE_MAPPINGS.load(Ordering::Relaxed)
}

/// Live-mapping count of one [`MemFile`], shared with everything that
/// maps it (a mapping may outlive its file). Statistics only, hence
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

    /// Number of currently live [`Mapping`]s and view segments of this
    /// file.
    pub fn live_mappings(&self) -> usize {
        self.live.0.load(Ordering::Relaxed)
    }

    /// Map the whole file read-write shared. This is the "compute"
    /// pointer of the paper's Figure 5.
    pub fn map_all(&self) -> io::Result<Mapping> {
        Mapping::new(self)
    }
}

impl Drop for MemFile {
    fn drop(&mut self) {
        // SAFETY: we own the fd.
        unsafe { libc::close(self.fd) };
    }
}

/// A shared read-write mapping of a whole [`MemFile`]. All mappings of
/// the same file alias the same physical pages (`MAP_SHARED`),
/// which is the mechanism behind pack-free views.
pub struct Mapping {
    ptr: *mut u8,
    len: usize,
    live: MapCount,
}

// SAFETY: `ptr`/`len` are the only handle to their mapping (unmapped on
// drop), and a mapping is process-wide, not tied to the thread that made
// it, so moving the handle moves sole ownership; `live` is an atomic
// counter behind an `Arc`, `Send` by itself.
unsafe impl Send for Mapping {}
// SAFETY: through `&Mapping` the mapped pages are only read (`as_bytes`,
// `as_f64`; `as_ptr` hands out a raw pointer, which only the caller can
// dereference); writes need `&mut self`. Aliasing *between* mappings of
// the same file range is the owning structures' borrow discipline, as for
// any pair of slices over shared memory. `len` is immutable and `live`
// atomic.
unsafe impl Sync for Mapping {}

impl Mapping {
    fn new(file: &MemFile) -> io::Result<Mapping> {
        let len = file.len;
        assert!(len > 0, "cannot map zero bytes");
        // SAFETY: fd valid; the whole file, from offset 0, is mapped.
        let ptr = unsafe {
            libc::mmap(
                std::ptr::null_mut(),
                len,
                libc::PROT_READ | libc::PROT_WRITE,
                libc::MAP_SHARED,
                file.fd,
                0,
            )
        };
        if ptr == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        file.live.add(1);
        Ok(Mapping { ptr: ptr.cast(), len, live: file.live.clone() })
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty (never).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of the mapping.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr/len form a live mapping we own.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// The bytes, mutable.
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as above; &mut self guarantees exclusive access through
        // *this* handle (aliasing across views is managed by callers).
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }

    /// The mapping as `f64`s (mappings are page-aligned, far beyond the
    /// 8-byte requirement). Truncates a trailing partial element.
    pub fn as_f64(&self) -> &[f64] {
        // SAFETY: alignment guaranteed by page alignment; any bit pattern
        // is a valid f64.
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<f64>(), self.len / 8) }
    }

    /// The mapping as mutable `f64`s.
    pub fn as_f64_mut(&mut self) -> &mut [f64] {
        // SAFETY: as above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.cast::<f64>(), self.len / 8) }
    }

    /// Raw base pointer.
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap.
        unsafe { libc::munmap(self.ptr.cast(), self.len) };
        self.live.sub(1);
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
        let f = MemFile::create("t", 8192).unwrap();
        let mut m = f.map_all().unwrap();
        m.as_f64_mut()[10] = 3.25;
        assert_eq!(m.as_f64()[10], 3.25);
    }

    /// Two mappings of the same file alias the same physical memory —
    /// the core mechanism of MemMap.
    #[test]
    fn mappings_alias() {
        let f = MemFile::create("alias", 8192).unwrap();
        let mut a = f.map_all().unwrap();
        let b = f.map_all().unwrap();
        a.as_f64_mut()[0] = 42.0;
        assert_eq!(b.as_f64()[0], 42.0);
    }

    /// Counted per file: sibling tests mapping their own files cannot
    /// disturb it, unlike the process-wide sum.
    #[test]
    fn mapping_counter() {
        let f = MemFile::create("cnt", 4096).unwrap();
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
