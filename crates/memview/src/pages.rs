//! Page-size arithmetic.
//!
//! MemMap requires every independently-mappable region to start on a page
//! boundary, so regions are padded up to a multiple of the page size
//! (the decomposition's pad unit). The waste this introduces is the
//! paper's Table 2 ("increased network transfer from padding"), swept in
//! Figure 18 over the page sizes below.

/// The paper's page-size sweep points (Figure 18): Linux base page sizes
/// on x86 (4 KiB), ARM (4/16/64 KiB) and Power (4/64 KiB).
pub const PAGE_4K: usize = 4 << 10;
/// 16 KiB (64-bit ARM option).
pub const PAGE_16K: usize = 16 << 10;
/// 64 KiB (Power9 as configured on Summit; governs Unified Memory too).
pub const PAGE_64K: usize = 64 << 10;

/// The host's real page size (`sysconf(_SC_PAGESIZE)`).
pub fn host_page_size() -> usize {
    // SAFETY: sysconf with a valid name has no preconditions.
    let ps = unsafe { libc::sysconf(libc::_SC_PAGESIZE) };
    assert!(ps > 0, "sysconf(_SC_PAGESIZE) failed");
    ps as usize
}

/// Round `bytes` up to a multiple of `page` (which must be a power of
/// two).
#[inline]
pub fn round_up(bytes: usize, page: usize) -> usize {
    debug_assert!(page.is_power_of_two());
    (bytes + page - 1) & !(page - 1)
}

/// True if `off` is page-aligned.
#[inline]
pub fn is_aligned(off: usize, page: usize) -> bool {
    debug_assert!(page.is_power_of_two());
    off & (page - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_basics() {
        assert_eq!(round_up(0, PAGE_4K), 0);
        assert_eq!(round_up(1, PAGE_4K), PAGE_4K);
        assert_eq!(round_up(PAGE_4K, PAGE_4K), PAGE_4K);
        assert_eq!(round_up(PAGE_4K + 1, PAGE_4K), 2 * PAGE_4K);
    }

    #[test]
    fn host_page_size_sane() {
        let ps = host_page_size();
        assert!(ps.is_power_of_two());
        assert!(ps >= 4096);
    }
}
