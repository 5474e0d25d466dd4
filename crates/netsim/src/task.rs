//! Stackful rank tasks: how a rank's stack is kept while the scheduler
//! ([`crate::event`]) runs another. One contract, two substrates: a
//! worker enters a rank with [`Task::resume`]; the rank leaves by calling
//! [`suspend`] with a [`Directive`] telling the scheduler why it stopped
//! (cooperative yield, parked on an event, or finished), and returns from
//! it when a worker next resumes it.
//!
//! * **Coroutine** (x86-64 Linux): each rank owns a private call stack
//!   (its slot of the run's `StackSlab`, with a `PROT_NONE` guard page
//!   below it while the VMA budget allows) and a saved register context.
//!   The switch saves exactly what the System V AMD64 ABI makes the
//!   callee's responsibility — callee-saved GPRs, the stack pointer, the
//!   resume address, and the FP control words — so it costs tens of
//!   nanoseconds instead of a `sigprocmask` round trip, and needs no
//!   glibc `ucontext` layout knowledge.
//! * **Thread** (every platform): each rank runs on an OS thread of its
//!   own, spawned for the run ([`Tasks::start`]), which runs only while a
//!   worker has resumed it and otherwise waits on its [`Handoff`]:
//!   `resume` hands the rank thread the run token and waits for its
//!   directive, `suspend` hands the directive back and waits for the
//!   token. A switch is two futex hand-offs and allocates nothing.
//!
//! Panics never unwind across a switch: the task runs its body under
//! `catch_unwind` on its own stack and hands the payload back to the
//! scheduler, which reports it as a structured
//! [`crate::NetsimError::RankPanicked`].

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread::{Scope, ScopedJoinHandle};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use coroutine::{Coroutine, StackSlab};

/// Default per-task stack: 1 MiB of *virtual* reservation, on either
/// substrate. Pages are committed lazily (`MAP_NORESERVE` + demand
/// paging for coroutines, the kernel's thread stacks otherwise), so 10k
/// ranks reserve ~10 GiB of address space but only touch the few pages
/// each rank body really uses.
pub(crate) const DEFAULT_STACK_BYTES: usize = 1 << 20;

/// A task body, with the lifetime of what it borrows erased (see
/// [`Tasks::new`]).
type Body = Box<dyn FnOnce() + Send + 'static>;

/// A panic caught on a task's stack.
pub(crate) type Payload = Box<dyn Any + Send + 'static>;

/// Why a resumed task gave the CPU back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Directive {
    /// Cooperative yield (spin-polling paths): requeue at the back.
    Yield,
    /// Parked on an event (mailbox arrival, barrier release); the
    /// scheduler re-queues it when the event fires.
    Park,
    /// The body returned or panicked; never resume again.
    Finished,
}

/// A resumable rank task. `Sync` so the scheduler can share references
/// across workers; the body and the panic slot are only ever touched by
/// the task itself while it runs and by the worker that saw it finish
/// (scheduler queues give a task to one worker at a time), and each
/// substrate orders its own switches.
pub(crate) struct Task {
    body: UnsafeCell<Option<Body>>,
    panic: UnsafeCell<Option<Payload>>,
    stack: Stack,
}

/// How a task's stack is suspended.
enum Stack {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Coroutine(Coroutine),
    Thread(Handoff),
}

// SAFETY: see the struct docs — `body` is taken by the task itself on
// first entry and `panic` written by it before its final suspend, which
// happens-before the finishing worker's `take_panic` (the coroutine
// switch runs on that worker's own thread; the thread hand-off goes
// through the `Handoff` mutex). Each substrate's own state is `Sync` or
// touched only by the worker that owns the task.
unsafe impl Sync for Task {}

impl Task {
    fn new(body: Body, stack: Stack) -> Task {
        Task { body: UnsafeCell::new(Some(body)), panic: UnsafeCell::new(None), stack }
    }

    /// Run the body to its end on the task's own stack, keeping a panic
    /// for the scheduler. Called once, by the task itself.
    fn run_body(&self) {
        // SAFETY: only the running task touches `body` and `panic` (see
        // the `Sync` contract), and it runs its body once.
        unsafe {
            let body = (*self.body.get()).take().expect("a task body runs once");
            if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                *self.panic.get() = Some(payload);
            }
        }
    }

    /// Enter the task until it suspends; returns why it stopped. Must
    /// only be called by the worker that currently owns the task.
    pub(crate) fn resume(&self) -> Directive {
        match &self.stack {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Stack::Coroutine(coroutine) => coroutine.resume(self),
            Stack::Thread(handoff) => handoff.resume(),
        }
    }

    /// The hand-off of a task on the thread substrate.
    fn handoff(&self) -> Option<&Handoff> {
        match &self.stack {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Stack::Coroutine(_) => None,
            Stack::Thread(handoff) => Some(handoff),
        }
    }

    /// Take the panic payload captured when the body unwound, if any.
    /// Meaningful once `resume` has returned [`Directive::Finished`].
    pub(crate) fn take_panic(&self) -> Option<Payload> {
        // SAFETY: `panic` is written by the task itself before its final
        // suspend; the caller is the worker that saw that suspend
        // (`Directive::Finished`), so the write happened-before and nobody
        // else touches the cell.
        unsafe { (*self.panic.get()).take() }
    }
}

/// The tasks of one run, on one substrate, and what their stacks live
/// in. Derefs to the tasks, indexed by task id.
pub(crate) struct Tasks {
    tasks: Vec<Task>,
    /// Backs every coroutine stack (`None` on rank threads); must
    /// outlive `tasks` (dropped after — struct fields drop in
    /// declaration order).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    _slab: Option<StackSlab>,
    /// Bytes of every stack: a coroutine's slot, a rank thread's stack.
    stack_bytes: usize,
}

impl Tasks {
    /// One task per body (task id == index), each with a stack of
    /// `stack_bytes`: coroutines if `coroutines` holds and the platform
    /// has them, rank threads otherwise.
    ///
    /// # Safety
    ///
    /// Bodies may borrow non-`'static` state: the caller must drive
    /// every task to completion (or never resume it) before that state
    /// goes away — exactly the guarantee [`crate::event`]'s scoped runner
    /// provides.
    pub(crate) unsafe fn new(
        bodies: Vec<Box<dyn FnOnce() + Send + '_>>,
        stack_bytes: usize,
        coroutines: bool,
    ) -> Tasks {
        // SAFETY: only the lifetime bound of the trait object changes, not
        // its layout; the caller guarantees no body runs after what it
        // borrows is gone.
        let erase = |b| unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Body>(b) };
        let bodies = bodies.into_iter().map(erase);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if coroutines {
            let slab = StackSlab::new(bodies.len(), stack_bytes);
            // SAFETY: the slab moves into `Tasks` beside the tasks and is
            // dropped after them, and each index is used once.
            let on_slab = |(i, b)| Task::new(b, Stack::Coroutine(unsafe { Coroutine::new(&slab, i) }));
            let tasks = bodies.enumerate().map(on_slab).collect();
            return Tasks { tasks, _slab: Some(slab), stack_bytes };
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        let _ = coroutines;
        Tasks {
            tasks: bodies.map(|b| Task::new(b, Stack::Thread(Handoff::default()))).collect(),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            _slab: None,
            stack_bytes,
        }
    }

    /// Spawn in `scope` the rank thread of every task on the thread
    /// substrate; a coroutine needs none. Call before any resume. Every
    /// task must then finish in the scope: a rank thread that never gets
    /// its token keeps the scope open. So if the OS refuses a thread, the
    /// ones already spawned are called off before this panics. The
    /// handles are for [`join_all`].
    pub(crate) fn start<'s>(&'s self, scope: &'s Scope<'s, '_>) -> Vec<ScopedJoinHandle<'s, ()>> {
        let mut threads = Vec::new();
        for task in &self.tasks {
            let Some(handoff) = task.handoff() else { continue };
            let spawned = std::thread::Builder::new()
                .stack_size(self.stack_bytes)
                .spawn_scoped(scope, move || handoff.serve(task));
            match spawned {
                Ok(thread) => threads.push(thread),
                Err(e) => {
                    self.tasks.iter().filter_map(Task::handoff).for_each(Handoff::call_off);
                    panic!("spawning a rank thread: {e}");
                }
            }
        }
        threads
    }
}

/// Wait until every thread of `threads` has exited, forwarding the first
/// panic. A scope's own end waits less: only until each thread's closure
/// has returned, while the OS thread may still be releasing its
/// allocator arena. The next run's threads would then find that arena
/// taken and open a fresh one, and what the old arena holds freed stays
/// resident beside what the new one allocates: a rank's grids counted
/// twice in peak memory, or not, depending on host timing.
pub(crate) fn join_all(threads: Vec<ScopedJoinHandle<'_, ()>>) {
    for thread in threads {
        if let Err(panic) = thread.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

impl std::ops::Deref for Tasks {
    type Target = [Task];
    fn deref(&self) -> &[Task] {
        &self.tasks
    }
}

/// Who holds a thread task's run token: its rank thread, or the worker
/// that resumed it, with the directive the rank handed back. A task not
/// yet resumed is the worker's with `Yield`; one called off before its
/// first resume, the worker's with `Finished`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Turn {
    Rank,
    Worker(Directive),
}

/// The run token of a task on the thread substrate, passed between the
/// worker that resumes the task and the task's rank thread; whoever does
/// not hold it waits on `cv`.
struct Handoff {
    turn: Mutex<Turn>,
    cv: Condvar,
}

impl Default for Handoff {
    fn default() -> Handoff {
        Handoff { turn: Mutex::new(Turn::Worker(Directive::Yield)), cv: Condvar::new() }
    }
}

thread_local! {
    // On a rank thread, the hand-off of the task it serves; null on every
    // other thread (workers included).
    static RANK_THREAD: Cell<*const Handoff> = const { Cell::new(std::ptr::null()) };
}

impl Handoff {
    /// Worker side: hand the rank thread the token and wait for its
    /// directive.
    fn resume(&self) -> Directive {
        let mut turn = self.turn.lock().unwrap();
        *turn = Turn::Rank;
        self.cv.notify_one();
        match *self.cv.wait_while(turn, |t| *t == Turn::Rank).unwrap() {
            Turn::Worker(directive) => directive,
            Turn::Rank => unreachable!("the wait ends on the worker's turn"),
        }
    }

    /// Rank side: hand `directive` back and, unless the task finished,
    /// wait for the token again.
    fn suspend(&self, directive: Directive) {
        let mut turn = self.turn.lock().unwrap();
        *turn = Turn::Worker(directive);
        self.cv.notify_one();
        if directive != Directive::Finished {
            drop(self.cv.wait_while(turn, |t| *t != Turn::Rank).unwrap());
        }
    }

    /// A rank thread's whole life: wait for the first token, run the body
    /// of `task` (whose hand-off this is), hand back `Finished` — or
    /// return at once if the run is called off first.
    fn serve(&self, task: &Task) {
        let first = Turn::Worker(Directive::Yield);
        let turn = self.cv.wait_while(self.turn.lock().unwrap(), |t| *t == first).unwrap();
        if *turn != Turn::Rank {
            return;
        }
        drop(turn);
        RANK_THREAD.with(|r| r.set(self));
        task.run_body();
        self.suspend(Directive::Finished);
    }

    /// Release a rank thread that has not had its first token: it returns
    /// without running its body.
    fn call_off(&self) {
        *self.turn.lock().unwrap() = Turn::Worker(Directive::Finished);
        self.cv.notify_one();
    }
}

/// Suspend the currently running task with `directive`, returning
/// control to the worker that resumed it. Returns when the scheduler
/// next resumes the task. Panics if called from outside a task.
///
/// Never inlined: a coroutine that suspends in a loop would otherwise
/// let its caller compute the address of a thread-local once, and after
/// migrating to another worker it would read the locals of the thread it
/// left (seen as "suspend() called outside a rank task" in
/// `work_stealing_multi_worker_completes`).
#[inline(never)]
pub(crate) fn suspend(directive: Directive) {
    let handoff = RANK_THREAD.with(Cell::get);
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    if handoff.is_null() {
        return coroutine::suspend(directive);
    }
    assert!(!handoff.is_null(), "suspend() called outside a rank task");
    // SAFETY: a non-null `RANK_THREAD` was set by `Handoff::serve` on this
    // rank thread to the hand-off it serves, which lives in a `Tasks` that
    // outlives the thread (rank threads are scoped to the run).
    unsafe { &*handoff }.suspend(directive);
}

/// The asm-switched substrate: x86-64 Linux only.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod coroutine {
    use std::cell::{Cell, UnsafeCell};

    use super::{Directive, Task};

    const PAGE: usize = 4096;

    // Minimal FFI for stack mapping; declared locally so the coroutine
    // substrate adds no crate dependency (these symbols are always present
    // in the platform libc netsim already links via std).
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
    pub(super) struct StackSlab {
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
        pub(super) fn new(n: usize, usable: usize) -> StackSlab {
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


    // One worker-side frame per OS thread: where the running coroutine
    // returns to, and where it leaves its directive. Set around every
    // resume; coroutines read it fresh after every suspension because
    // they may migrate workers.
    thread_local! {
        static WORKER_FRAME: Cell<*mut WorkerFrame> = const { Cell::new(std::ptr::null_mut()) };
    }

    struct WorkerFrame {
        worker_ctx: Context,
        task_ctx: *mut Context,
        directive: Directive,
    }

    /// A coroutine's saved context: where it resumes, on which stack.
    pub(super) struct Coroutine(UnsafeCell<Context>);

    impl Coroutine {
        /// A coroutine that enters its task on the `index`-th stack of
        /// `slab` at first resume.
        ///
        /// # Safety
        ///
        /// `slab` must outlive the coroutine, and no other coroutine may
        /// use the same slab index.
        pub(super) unsafe fn new(slab: &StackSlab, index: usize) -> Coroutine {
            let mut ctx = Context::zeroed();
            ctx.rsp = slab.top_of(index);
            ctx.rip = netsim_task_start as unsafe extern "C" fn() as usize as u64;
            ctx.r13 = task_entry as extern "C" fn(*const Task) -> ! as usize as u64;
            // r12 (the task pointer) is filled in at first resume, once the
            // task has a stable address.
            Coroutine(UnsafeCell::new(ctx))
        }

        /// Switch into `task`, whose coroutine this is, until it suspends.
        pub(super) fn resume(&self, task: &Task) -> Directive {
            let ctx = self.0.get();
            let mut frame =
                WorkerFrame { worker_ctx: Context::zeroed(), task_ctx: ctx, directive: Directive::Finished };
            // SAFETY: the calling worker owns the task (`Task::resume`'s
            // contract), so nothing else reads or writes `ctx`. `ctx` holds
            // either the first-entry context `new` built (a mapped, 16-aligned
            // stack top and the trampoline) or what the task's last `suspend`
            // saved, both valid to switch to. `frame` outlives the switch: the
            // task returns here through `frame.worker_ctx` before this block
            // ends, and the thread-local is restored before `frame` is dropped.
            unsafe {
                // Only a fresh context resumes at the trampoline, which
                // takes the task from r12; a suspended task's r12 is its
                // own, zero or not, and comes back untouched.
                if (*ctx).rip == netsim_task_start as unsafe extern "C" fn() as usize as u64 {
                    (*ctx).r12 = task as *const Task as u64;
                }
                let prev = WORKER_FRAME.with(|w| w.replace(&mut frame));
                netsim_ctx_switch(&mut frame.worker_ctx, ctx);
                WORKER_FRAME.with(|w| w.set(prev));
            }
            frame.directive
        }
    }

    /// Leave the running coroutine with `directive`, back into the
    /// `resume` that entered it.
    pub(super) fn suspend(directive: Directive) {
        let frame = WORKER_FRAME.with(|w| w.get());
        assert!(!frame.is_null(), "suspend() called outside a rank task");
        // SAFETY: a non-null `WORKER_FRAME` is the frame of the `resume` call
        // this coroutine is running under (set around every switch into a
        // task, cleared after), so `frame` and the context it names are
        // alive, and the running coroutine is the only one touching its own
        // context. Switching to `worker_ctx` returns into that `resume`,
        // which saved it and reads the directive after.
        unsafe {
            (*frame).directive = directive;
            netsim_ctx_switch((*frame).task_ctx, &(*frame).worker_ctx);
        }
    }

    extern "C" fn task_entry(task: *const Task) -> ! {
        // SAFETY: `task` is the pointer `resume` stored in r12 on first entry
        // — `&self` of a task that stays put and alive while it can be
        // resumed.
        unsafe { (*task).run_body() };
        suspend(Directive::Finished);
        unreachable!("a finished task was resumed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Whether to run on coroutines: both substrates where both exist.
    const SUBSTRATES: &[bool] =
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) { &[true, false] } else { &[false] };

    /// The tasks of `bodies` on one substrate, their rank threads (if
    /// any) alive while `drive` resumes them; every task must finish.
    fn with_tasks<'b>(
        coroutines: bool,
        bodies: Vec<Box<dyn FnOnce() + Send + 'b>>,
        drive: impl FnOnce(&Tasks) + Send,
    ) {
        // SAFETY: every caller drives every task to completion inside the
        // scope below, before what the bodies borrow goes away.
        let tasks = unsafe { Tasks::new(bodies, DEFAULT_STACK_BYTES, coroutines) };
        std::thread::scope(|s| {
            tasks.start(s);
            drive(&tasks);
        });
    }

    fn drive(task: &Task) -> (usize, Option<Payload>) {
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
        for &coroutines in SUBSTRATES {
            let hits = AtomicUsize::new(0);
            let body = || {
                hits.fetch_add(1, Ordering::SeqCst);
            };
            with_tasks(coroutines, vec![Box::new(body)], |tasks| {
                let (resumes, panic) = drive(&tasks[0]);
                assert_eq!(resumes, 1);
                assert!(panic.is_none());
            });
            assert_eq!(hits.load(Ordering::SeqCst), 1);
        }
    }

    // Holds zero in the callee-saved r12 across a suspension and returns
    // what r12 holds after the resume.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    core::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl netsim_test_r12_across_suspend",
        ".hidden netsim_test_r12_across_suspend",
        "netsim_test_r12_across_suspend:",
        "push r12",
        "xor r12d, r12d",
        "call {yield_once}",
        "mov rax, r12",
        "pop r12",
        "ret",
        yield_once = sym yield_once,
    );

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    extern "C" fn yield_once() {
        suspend(Directive::Yield);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn a_zero_in_a_callee_saved_register_survives_a_suspension() {
        extern "C" {
            fn netsim_test_r12_across_suspend() -> u64;
        }
        for &coroutines in SUBSTRATES {
            let r12 = std::sync::atomic::AtomicU64::new(u64::MAX);
            // SAFETY: the asm helper follows the C ABI: it saves and
            // restores r12, keeps the stack aligned for its call, and
            // returns a plain integer.
            let body = || r12.store(unsafe { netsim_test_r12_across_suspend() }, Ordering::SeqCst);
            with_tasks(coroutines, vec![Box::new(body)], |tasks| {
                assert_eq!(drive(&tasks[0]).0, 2, "one suspension, then the finish");
            });
            assert_eq!(r12.load(Ordering::SeqCst), 0, "coroutines={coroutines}");
        }
    }

    #[test]
    fn yields_interleave_with_worker() {
        for &coroutines in SUBSTRATES {
            let steps = AtomicUsize::new(0);
            let body = || {
                for _ in 0..5 {
                    steps.fetch_add(1, Ordering::SeqCst);
                    suspend(Directive::Yield);
                }
            };
            with_tasks(coroutines, vec![Box::new(body)], |tasks| {
                for expect in 1..=5 {
                    assert_eq!(tasks[0].resume(), Directive::Yield);
                    assert_eq!(steps.load(Ordering::SeqCst), expect);
                }
                assert_eq!(tasks[0].resume(), Directive::Finished);
            });
        }
    }

    #[test]
    fn panic_is_captured_not_propagated() {
        for &coroutines in SUBSTRATES {
            let body = || panic!("rank exploded: {}", 42);
            with_tasks(coroutines, vec![Box::new(body)], |tasks| {
                let (_, panic) = drive(&tasks[0]);
                let payload = panic.expect("panic captured");
                // The compiler may const-fold the format into a &'static str.
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap();
                assert_eq!(msg, "rank exploded: 42");
            });
        }
    }

    #[test]
    fn locals_survive_suspension_and_fp_state_holds() {
        for &coroutines in SUBSTRATES {
            let out = AtomicUsize::new(0);
            let body = || {
                let mut acc = 1.0f64;
                let locals: Vec<u64> = (0..64).collect();
                for &l in locals.iter().take(10) {
                    acc = acc.mul_add(1.5, l as f64);
                    suspend(Directive::Yield);
                }
                out.store(acc as usize, Ordering::SeqCst);
            };
            with_tasks(coroutines, vec![Box::new(body)], |tasks| {
                drive(&tasks[0]);
            });
            let mut acc = 1.0f64;
            for i in 0..10 {
                acc = acc.mul_add(1.5, i as f64);
            }
            assert_eq!(out.load(Ordering::SeqCst), acc as usize);
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn thousands_of_tasks_fit() {
        // 10k coroutine stacks are virtual reservations, not resident
        // memory: creating and running them all must just work.
        let n = 10_000;
        let counter = AtomicUsize::new(0);
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
            .map(|_| {
                let c = &counter;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    suspend(Directive::Yield);
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        with_tasks(true, bodies, |tasks| {
            for t in tasks.iter() {
                assert_eq!(t.resume(), Directive::Yield);
            }
            assert_eq!(counter.load(Ordering::SeqCst), n);
            for t in tasks.iter() {
                assert_eq!(t.resume(), Directive::Finished);
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2 * n);
    }

    /// A run that cannot spawn every rank thread calls off the ones it
    /// did spawn: they return without running their bodies, so the
    /// scope closes instead of waiting on them forever.
    #[test]
    fn rank_threads_called_off_before_their_first_resume_return() {
        let ran = AtomicUsize::new(0);
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                Box::new(|| {
                    ran.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        with_tasks(false, bodies, |tasks| {
            tasks.iter().filter_map(Task::handoff).for_each(Handoff::call_off);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn tasks_migrate_between_worker_threads() {
        // Suspend on one OS thread, resume on another: a coroutine's
        // context is thread-agnostic and the worker frame is re-read per
        // resume; a rank thread does not care who hands it the token.
        for &coroutines in SUBSTRATES {
            let body = || {
                let a = 7u64;
                suspend(Directive::Park);
                assert_eq!(a, 7);
            };
            with_tasks(coroutines, vec![Box::new(body)], |tasks| {
                assert_eq!(tasks[0].resume(), Directive::Park);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        assert_eq!(tasks[0].resume(), Directive::Finished);
                        assert!(tasks[0].take_panic().is_none());
                    });
                });
            });
        }
    }
}
