//! Stackful rank tasks: the coroutine substrate of the event-driven
//! backend (see [`crate::event`]).
//!
//! Each simulated rank owns a private call stack (its slot of the
//! cluster's [`StackSlab`], with a `PROT_NONE` guard page below it while
//! the VMA budget allows) and a saved register context. A
//! worker enters the rank with [`Task::resume`]; the rank leaves by
//! suspending with a [`Directive`] telling the scheduler why it
//! stopped (cooperative yield, parked on an event, or finished).
//! The switch itself saves exactly what the System V AMD64 ABI makes
//! the callee's responsibility — callee-saved GPRs, the stack pointer,
//! the resume address, and the FP control words — so it costs tens of
//! nanoseconds instead of a `sigprocmask` round trip, and needs no
//! glibc `ucontext` layout knowledge.
//!
//! Panics never unwind across a context switch: the task entry wraps
//! the body in `catch_unwind` and hands the payload back to the
//! scheduler, which reports it as a structured
//! [`crate::NetsimError::RankPanicked`].
//!
//! Only compiled on `x86_64-linux`; [`crate::Backend::Event`]
//! falls back to the thread backend elsewhere.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};

/// Default per-task stack: 1 MiB of *virtual* reservation. Pages are
/// committed lazily (`MAP_NORESERVE` + demand paging), so 10k ranks
/// reserve ~10 GiB of address space but only touch the few pages each
/// rank body really uses.
pub(crate) const DEFAULT_STACK_BYTES: usize = 1 << 20;

const PAGE: usize = 4096;

// Minimal FFI for stack mapping; declared locally so the event backend
// adds no crate dependency (these symbols are always present in the
// platform libc netsim already links via std).
mod sys {
    use std::ffi::c_void;
    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;
    pub const MADV_NOHUGEPAGE: i32 = 15;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

/// Saved execution state: callee-saved GPRs, stack pointer, resume
/// address, and the SSE/x87 control words. Layout is fixed — the
/// assembly below addresses fields by byte offset.
#[repr(C)]
struct Context {
    rbx: u64,   // 0x00
    rbp: u64,   // 0x08
    r12: u64,   // 0x10 — task pointer at first entry
    r13: u64,   // 0x18 — entry trampoline target at first entry
    r14: u64,   // 0x20
    r15: u64,   // 0x28
    rsp: u64,   // 0x30
    rip: u64,   // 0x38
    mxcsr: u32, // 0x40
    fcw: u32,   // 0x44
}

impl Context {
    fn zeroed() -> Context {
        // SysV default FP environment: round-to-nearest, all exceptions
        // masked — what Rust code expects.
        Context {
            rbx: 0,
            rbp: 0,
            r12: 0,
            r13: 0,
            r14: 0,
            r15: 0,
            rsp: 0,
            rip: 0,
            mxcsr: 0x1F80,
            fcw: 0x037F,
        }
    }
}

core::arch::global_asm!(
    ".text",
    ".balign 16",
    // netsim_ctx_switch(save: *mut Context /*rdi*/, restore: *const Context /*rsi*/)
    //
    // Saves the caller's callee-saved state into `save` with a resume
    // point at our own return address, then installs `restore` and
    // jumps to its resume point. To the compiler this is an ordinary
    // extern "C" call; caller-saved registers need no help.
    ".globl netsim_ctx_switch",
    ".type netsim_ctx_switch,@function",
    "netsim_ctx_switch:",
    "mov [rdi+0x00], rbx",
    "mov [rdi+0x08], rbp",
    "mov [rdi+0x10], r12",
    "mov [rdi+0x18], r13",
    "mov [rdi+0x20], r14",
    "mov [rdi+0x28], r15",
    "lea rax, [rsp+8]",
    "mov [rdi+0x30], rax",
    "mov rax, [rsp]",
    "mov [rdi+0x38], rax",
    "stmxcsr [rdi+0x40]",
    "fnstcw  [rdi+0x44]",
    "mov rbx, [rsi+0x00]",
    "mov rbp, [rsi+0x08]",
    "mov r12, [rsi+0x10]",
    "mov r13, [rsi+0x18]",
    "mov r14, [rsi+0x20]",
    "mov r15, [rsi+0x28]",
    "mov rsp, [rsi+0x30]",
    "ldmxcsr [rsi+0x40]",
    "fldcw   [rsi+0x44]",
    "jmp qword ptr [rsi+0x38]",
    ".size netsim_ctx_switch, . - netsim_ctx_switch",
    // First-entry trampoline. A fresh task context carries the task
    // pointer in r12 and the entry function in r13; rsp is 16-aligned,
    // so after `call` pushes the (never-used) return address the entry
    // sees the standard ABI alignment. The entry never returns.
    ".globl netsim_task_start",
    ".type netsim_task_start,@function",
    "netsim_task_start:",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".size netsim_task_start, . - netsim_task_start",
);

extern "C" {
    fn netsim_ctx_switch(save: *mut Context, restore: *const Context);
    fn netsim_task_start();
}

/// Why a resumed task gave the CPU back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Directive {
    /// Cooperative yield (spin-polling paths): requeue at the back.
    Yield,
    /// Parked on an event (mailbox arrival, barrier, timer); the
    /// scheduler re-queues it when the event fires.
    Park,
    /// The body returned or panicked; never resume again.
    Finished,
}

const D_YIELD: u8 = 0;
const D_PARK: u8 = 1;
const D_FINISHED: u8 = 2;

/// Per-stack guard pages cost two kernel VMAs per task (the `PROT_NONE`
/// hole splits the mapping), and `vm.max_map_count` defaults to ~65530:
/// beyond this many tasks a slab drops the interior guards so the whole
/// cluster fits in a handful of VMAs and 100k+ ranks stay mappable.
const GUARDED_MAX_TASKS: usize = 16384;

/// One mapping holding every task stack of a cluster.
///
/// Allocating 10k+ individual guard-paged stacks costs two syscalls and
/// two kernel VMAs apiece — at 32k ranks that is past the default
/// `vm.max_map_count` and the spawn fails outright. A slab reserves the
/// whole cluster's stacks with a single `mmap` (virtual, demand-paged),
/// keeping per-stack guard pages while the VMA budget allows
/// ([`GUARDED_MAX_TASKS`]) and falling back to one guard page below the
/// lowest stack beyond that. In guard-free mode an overflowing rank
/// clobbers its neighbor's stack instead of faulting — the tradeoff for
/// simulating rank counts the per-stack design cannot reach at all.
pub(crate) struct StackSlab {
    base: *mut u8,
    len: usize,
    usable: usize,
    stride: usize,
    n: usize,
}

// SAFETY: the slab is a passive address range: `base` is never
// dereferenced through the slab, only handed out as the tops of disjoint
// per-task stacks (`top_of`), and the remaining fields are plain
// integers — so the thread that drops it need not be the one that
// mapped it.
unsafe impl Send for StackSlab {}
// SAFETY: `&StackSlab` offers only `top_of`, which reads the immutable
// fields; all mutation of the mapped bytes happens through the tasks
// running on their own disjoint regions.
unsafe impl Sync for StackSlab {}

impl StackSlab {
    /// Reserve stacks for `n` tasks of `usable` bytes each.
    pub(crate) fn new(n: usize, usable: usize) -> StackSlab {
        let usable = usable.max(2 * PAGE).next_multiple_of(PAGE);
        let guarded = n <= GUARDED_MAX_TASKS;
        // Guarded: [guard][stack 0][guard][stack 1]…; guard-free: one
        // guard page below stack 0, stacks adjacent above it.
        let (stride, len) =
            if guarded { (PAGE + usable, n * (PAGE + usable)) } else { (usable, PAGE + n * usable) };
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases no existing memory. Every `mprotect`/`madvise` range lies
        // inside it: guarded, stack `i` is `usable` bytes starting at
        // `i * stride + PAGE` with `stride = PAGE + usable`, ending at
        // `(i + 1) * stride <= len`; guard-free, the one range is
        // `n * usable` bytes starting at `PAGE`, ending at `len`.
        unsafe {
            let base = sys::mmap(
                std::ptr::null_mut(),
                len.max(PAGE),
                sys::PROT_NONE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE,
                -1,
                0,
            );
            assert!(base != sys::MAP_FAILED, "stack slab mmap failed ({n} stacks)");
            let rw = sys::PROT_READ | sys::PROT_WRITE;
            if guarded {
                for i in 0..n {
                    let lo = base as usize + i * stride + PAGE;
                    assert_eq!(
                        sys::mprotect(lo as *mut _, usable, rw),
                        0,
                        "stack slab mprotect failed"
                    );
                }
            } else if n > 0 {
                let lo = base as usize + PAGE;
                assert_eq!(
                    sys::mprotect(lo as *mut _, n * usable, rw),
                    0,
                    "stack slab mprotect failed"
                );
                // Every task touches its stack and a 2 MiB huge page
                // spans 16 stacks of 128 KiB, so THP would make the whole
                // reservation resident: keep it off the slab. Best effort.
                sys::madvise(lo as *mut _, n * usable, sys::MADV_NOHUGEPAGE);
            }
            StackSlab { base: base as *mut u8, len: len.max(PAGE), usable, stride, n }
        }
    }

    /// The highest usable address of the `i`-th stack (it grows down
    /// from there); page- and therefore 16-aligned.
    fn top_of(&self, i: usize) -> u64 {
        assert!(i < self.n, "slab holds {} stacks, asked for {i}", self.n);
        // Both layouts put stack `i` one page past `i * stride`: the
        // guarded layout skips that stack's own guard page, the
        // guard-free layout skips the single leading guard.
        let lo = PAGE + i * self.stride;
        (self.base as usize + lo + self.usable) as u64
    }
}

impl Drop for StackSlab {
    fn drop(&mut self) {
        // SAFETY: `base..base + len` is the mapping `StackSlab::new`
        // created, unmapped here and nowhere else. `Task::new_in` obliges
        // its caller to keep the slab alive longer than every task on it
        // (`Sched` declares its tasks before its slab), so no stack in
        // this range is in use.
        unsafe {
            sys::munmap(self.base.cast(), self.len);
        }
    }
}

// One worker-side frame per OS thread: where the running task returns
// to, and which task is running. Set around every resume; tasks read it
// fresh after every suspension because they may migrate workers.
thread_local! {
    static WORKER_FRAME: Cell<*mut WorkerFrame> = const { Cell::new(std::ptr::null_mut()) };
}

struct WorkerFrame {
    worker_ctx: Context,
    task: *mut Task,
}

/// A resumable rank task. `Sync` so the scheduler can share references
/// across workers; the context and body are only ever touched by the
/// worker that currently owns the task (scheduler queues enforce
/// exclusive ownership), and the directive hand-off is atomic.
pub(crate) struct Task {
    ctx: std::cell::UnsafeCell<Context>,
    directive: AtomicU8,
    body: std::cell::UnsafeCell<Option<Box<dyn FnOnce() + Send + 'static>>>,
    panic: std::cell::UnsafeCell<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

// SAFETY: see the struct docs — `ctx`, `body` and `panic` (the
// `UnsafeCell`s) are touched only by the worker that currently owns the
// task (a task is on one run queue or one worker, never both), and
// cross-thread transfer happens through the scheduler's locks, which
// order the accesses; `directive` is atomic.
unsafe impl Sync for Task {}
// SAFETY: the body is `Send`, so is a caught panic payload; the saved
// context and the stack are thread-agnostic (`resume` re-reads the
// worker frame per entry), so a task may be created, resumed and dropped
// on different threads.
unsafe impl Send for Task {}

impl Task {
    /// Create a task that will run `body` on the `index`-th stack of
    /// `slab` at first resume.
    ///
    /// # Safety
    ///
    /// `body` is type-erased to `'static`, but may borrow non-`'static`
    /// state: the caller must guarantee the task is driven to
    /// completion (or never resumed) before that state goes away —
    /// exactly the guarantee [`crate::event`]'s scoped runner provides.
    /// `slab` must outlive the task, and no other task may use the same
    /// slab index.
    pub(crate) unsafe fn new_in(
        slab: &StackSlab,
        index: usize,
        body: Box<dyn FnOnce() + Send + '_>,
    ) -> Task {
        // SAFETY: only the lifetime bound of the trait object changes, not
        // its layout; the caller guarantees the body is not run after what
        // it borrows is gone.
        let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
        let mut ctx = Context::zeroed();
        ctx.rsp = slab.top_of(index);
        ctx.rip = netsim_task_start as unsafe extern "C" fn() as usize as u64;
        ctx.r13 = task_entry as extern "C" fn(*mut Task) -> ! as usize as u64;
        // r12 (the task pointer) is filled in at first resume, once the
        // task has a stable address.
        Task {
            ctx: std::cell::UnsafeCell::new(ctx),
            directive: AtomicU8::new(D_YIELD),
            body: std::cell::UnsafeCell::new(Some(body)),
            panic: std::cell::UnsafeCell::new(None),
        }
    }

    /// Enter the task until it suspends; returns why it stopped. Must
    /// only be called by the worker that currently owns the task.
    pub(crate) fn resume(&self) -> Directive {
        let mut frame =
            WorkerFrame { worker_ctx: Context::zeroed(), task: self as *const Task as *mut Task };
        // SAFETY: the calling worker owns the task (this function's
        // contract), so nothing else reads or writes `ctx`. `ctx` holds
        // either the first-entry context `new_in` built (a mapped,
        // 16-aligned stack top and the trampoline) or what the task's last
        // `suspend` saved, both valid to switch to. `frame` outlives the
        // switch: the task returns here through `frame.worker_ctx` before
        // this block ends, and the thread-local is restored before `frame`
        // is dropped.
        unsafe {
            let ctx = self.ctx.get();
            if (*ctx).r12 == 0 {
                (*ctx).r12 = self as *const Task as u64;
            }
            let prev = WORKER_FRAME.with(|w| w.replace(&mut frame));
            netsim_ctx_switch(&mut frame.worker_ctx, ctx);
            WORKER_FRAME.with(|w| w.set(prev));
        }
        match self.directive.load(Ordering::Acquire) {
            D_YIELD => Directive::Yield,
            D_PARK => Directive::Park,
            _ => Directive::Finished,
        }
    }

    /// Take the panic payload captured when the body unwound, if any.
    /// Meaningful once `resume` has returned [`Directive::Finished`].
    pub(crate) fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        // SAFETY: `panic` is written by the task itself, in `task_entry`,
        // before its final suspend; the caller is the worker that saw that
        // suspend (`Directive::Finished`), so the write happened-before
        // and nobody else touches the cell.
        unsafe { (*self.panic.get()).take() }
    }
}

/// Suspend the currently running task with `directive`, returning
/// control to its worker. Returns when the scheduler next resumes the
/// task. Panics if called from outside a task.
///
/// Never inlined: a caller that suspends in a loop would otherwise be
/// free to compute the address of the thread-local `WORKER_FRAME` once,
/// and after the task migrated to another worker it would read the
/// frame of the thread it left (seen as "suspend() called outside a
/// rank task" in `work_stealing_multi_worker_completes`).
#[inline(never)]
pub(crate) fn suspend(directive: Directive) {
    let frame = WORKER_FRAME.with(|w| w.get());
    assert!(!frame.is_null(), "suspend() called outside a rank task");
    // SAFETY: a non-null `WORKER_FRAME` is the frame of the `resume` call
    // this task is running under (set around every switch into a task,
    // cleared after), so `frame` and the task it names are alive, and the
    // running task is the only one touching its own `ctx`. Switching to
    // `worker_ctx` returns into that `resume`, which saved it.
    unsafe {
        let task = (*frame).task;
        let d = match directive {
            Directive::Yield => D_YIELD,
            Directive::Park => D_PARK,
            Directive::Finished => D_FINISHED,
        };
        (*task).directive.store(d, Ordering::Release);
        netsim_ctx_switch((*task).ctx.get(), &(*frame).worker_ctx);
    }
}

extern "C" fn task_entry(task: *mut Task) -> ! {
    // SAFETY: `task` is the pointer `resume` stored in r12 on first entry
    // — `&self` of a task that stays put and alive while it can be
    // resumed. `body` and `panic` belong to the running task (see the
    // `Sync` contract), and this is the only code that touches them
    // before the final suspend.
    unsafe {
        let body = (*task.cast_const()).body.get().as_mut().unwrap().take().unwrap();
        // Unwinding must never cross the context-switch boundary: catch
        // everything and hand the payload to the scheduler.
        if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
            *(*task).panic.get() = Some(payload);
        }
    }
    suspend(Directive::Finished);
    unreachable!("a finished task was resumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A task on the only stack of its own slab.
    struct Standalone {
        task: Task,
        _slab: StackSlab,
    }

    impl std::ops::Deref for Standalone {
        type Target = Task;
        fn deref(&self) -> &Task {
            &self.task
        }
    }

    fn standalone(body: impl FnOnce() + Send + 'static) -> Standalone {
        let slab = StackSlab::new(1, DEFAULT_STACK_BYTES);
        // SAFETY: a `'static` body has no borrow to outlive; the slab is
        // kept beside the task and dropped after it (field order); index 0
        // is used once.
        let task = unsafe { Task::new_in(&slab, 0, Box::new(body)) };
        Standalone { task, _slab: slab }
    }

    fn drive(task: &Task) -> (usize, Option<Box<dyn std::any::Any + Send>>) {
        let mut resumes = 0;
        loop {
            resumes += 1;
            if task.resume() == Directive::Finished {
                return (resumes, task.take_panic());
            }
        }
    }

    #[test]
    fn runs_to_completion() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        let task = standalone(move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let (resumes, panic) = drive(&task);
        assert_eq!(resumes, 1);
        assert!(panic.is_none());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn yields_interleave_with_worker() {
        let steps = Arc::new(AtomicUsize::new(0));
        let s = steps.clone();
        let task = standalone(move || {
            for _ in 0..5 {
                s.fetch_add(1, Ordering::SeqCst);
                suspend(Directive::Yield);
            }
        });
        for expect in 1..=5 {
            assert_eq!(task.resume(), Directive::Yield);
            assert_eq!(steps.load(Ordering::SeqCst), expect);
        }
        assert_eq!(task.resume(), Directive::Finished);
    }

    #[test]
    fn panic_is_captured_not_propagated() {
        let task = standalone(|| {
            panic!("rank exploded: {}", 42);
        });
        let (_, panic) = drive(&task);
        let payload = panic.expect("panic captured");
        // The compiler may const-fold the format into a &'static str.
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap();
        assert_eq!(msg, "rank exploded: 42");
    }

    #[test]
    fn locals_survive_suspension_and_fp_state_holds() {
        let out = Arc::new(AtomicUsize::new(0));
        let o = out.clone();
        let task = standalone(move || {
            let mut acc = 1.0f64;
            let locals: Vec<u64> = (0..64).collect();
            for &l in locals.iter().take(10) {
                acc = acc.mul_add(1.5, l as f64);
                suspend(Directive::Yield);
            }
            o.store(acc as usize, Ordering::SeqCst);
        });
        drive(&task);
        let mut acc = 1.0f64;
        for i in 0..10 {
            acc = acc.mul_add(1.5, i as f64);
        }
        assert_eq!(out.load(Ordering::SeqCst), acc as usize);
    }

    #[test]
    fn thousands_of_tasks_fit() {
        // 10k coroutine stacks are virtual reservations, not resident
        // memory: creating and running them all must just work.
        let n = 10_000;
        let counter = Arc::new(AtomicUsize::new(0));
        let slab = StackSlab::new(n, DEFAULT_STACK_BYTES);
        let tasks: Vec<Task> = (0..n)
            .map(|i| {
                let c = counter.clone();
                let body = move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    suspend(Directive::Yield);
                    c.fetch_add(1, Ordering::SeqCst);
                };
                // SAFETY: the body borrows nothing; `slab` is declared
                // before `tasks` and so dropped after them; each index is
                // used once.
                unsafe { Task::new_in(&slab, i, Box::new(body)) }
            })
            .collect();
        for t in &tasks {
            assert_eq!(t.resume(), Directive::Yield);
        }
        assert_eq!(counter.load(Ordering::SeqCst), n);
        for t in &tasks {
            assert_eq!(t.resume(), Directive::Finished);
        }
        assert_eq!(counter.load(Ordering::SeqCst), 2 * n);
    }

    #[test]
    fn tasks_migrate_between_worker_threads() {
        // Suspend on one OS thread, resume on another: the context is
        // thread-agnostic and the worker frame is re-read per resume.
        let task = Arc::new(standalone(|| {
            let a = 7u64;
            suspend(Directive::Park);
            assert_eq!(a, 7);
        }));
        assert_eq!(task.resume(), Directive::Park);
        let t2 = task.clone();
        std::thread::spawn(move || {
            assert_eq!(t2.resume(), Directive::Finished);
            assert!(t2.take_panic().is_none());
        })
        .join()
        .unwrap();
    }
}
