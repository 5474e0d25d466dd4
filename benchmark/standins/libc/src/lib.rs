//! Stand-in for the `libc` items `memview` uses (x86-64 / aarch64 Linux
//! values). The declarations bind to the C library `std` already links.
#![allow(non_camel_case_types)]

pub use core::ffi::c_void;
pub type c_char = core::ffi::c_char;
pub type c_int = i32;
pub type c_uint = u32;
pub type c_long = i64;
pub type size_t = usize;
pub type off_t = i64;

pub const PROT_NONE: c_int = 0;
pub const PROT_READ: c_int = 1;
pub const PROT_WRITE: c_int = 2;
pub const MAP_SHARED: c_int = 0x01;
pub const MAP_PRIVATE: c_int = 0x02;
pub const MAP_FIXED: c_int = 0x10;
pub const MAP_ANONYMOUS: c_int = 0x20;
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;
pub const MFD_CLOEXEC: c_uint = 1;
pub const _SC_PAGESIZE: c_int = 30;

extern "C" {
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    pub fn ftruncate(fd: c_int, length: off_t) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn sysconf(name: c_int) -> c_long;
}
