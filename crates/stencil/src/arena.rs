//! Reusable thread-local scratch arenas for kernel gather buffers.
//!
//! The halo-block kernel of [`crate::KernelPlan`] and the gather
//! reference [`crate::apply_bricks_gather`] need a small dense scratch
//! per worker.
//! Allocating it per dealt run would hit the allocator on every kernel
//! call. The arena here is a grow-only thread-local buffer: the first
//! kernel invocation on a thread sizes it, every later one reuses it
//! for free — on the caller and on the kernel pool's helpers alike,
//! which persist for exactly that reason.

use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a thread-local scratch slice of exactly `len` elements.
///
/// The slice contents are unspecified on entry (stale data from a
/// previous call on the same thread); callers must fully overwrite or
/// zero the parts they read. Must not be re-entered from within `f`
/// (kernels never nest scratch regions).
pub fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_and_reuses() {
        let cap0 = with_scratch(16, |s| {
            s.fill(3.0);
            s.len()
        });
        assert_eq!(cap0, 16);
        // A smaller request still sees a slice of exactly the asked size,
        // with stale contents from the earlier call on this thread.
        with_scratch(8, |s| {
            assert_eq!(s.len(), 8);
            assert_eq!(s[0], 3.0);
        });
        with_scratch(32, |s| assert_eq!(s.len(), 32));
    }
}
