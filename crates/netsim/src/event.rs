//! The rank scheduler: multiplexes the simulated ranks of a run — any
//! number, on either [`crate::Backend`] — onto a small worker pool.
//!
//! A rank that would block — on a mailbox recv, a `waitall`, a barrier —
//! *parks*: it suspends ([`crate::task`]: a coroutine switch, or a rank
//! thread handing its run token back) and returns the worker to the run
//! queue, and is re-queued when the event that unblocks it fires (a
//! message push, the last barrier arrival). The backend only chooses how
//! a suspended rank's stack is kept; everything below exists once.
//!
//! ## Structure
//!
//! * **Run queues**: one deque per worker; a task's home queue is
//!   `rank % workers`. Owners pop from the front, idle workers steal
//!   from the back of other queues. Queue bookkeeping lives under a
//!   single scheduler mutex — with a handful of workers and coarse
//!   tasks (a rank runs a whole compute phase per slice) the lock is
//!   not a bottleneck, and it makes quiescence detection exact: the
//!   worker that detects quiescence queues the tasks it wakes before
//!   it releases the lock, so one quiescence is acted on once.
//! * **Two-phase parking**: a task *requests* parking and suspends;
//!   its worker then *applies* the transition under the task's state
//!   lock. A wake that races with the request (a sender took the
//!   mailbox's `waiting` flag between the task's unlock and the state
//!   flip — see [`crate::mailbox`]) finds the task still `Running` and
//!   sets `wake_pending`, which the apply step converts into an
//!   immediate re-queue. Wakes are never lost; spurious wakes are
//!   absorbed by the callers' re-check loops. The scheduler keeps no
//!   per-mailbox state: who is asleep on a mailbox is the mailbox's to
//!   know, so a message wakes its owner through [`Sched::make_runnable`]
//!   and nothing else.
//! * **Quiescence is a deadlock**: no task runnable or running while
//!   some are parked means, with eager message delivery, that nothing a
//!   parked task waits for can ever arrive — no protocol step waits on a
//!   clock, so there is nothing else to wait for. Instead of hanging,
//!   the scheduler aborts the cluster: every parked task is woken with
//!   an expiry signal, recv paths surface structured
//!   [`crate::NetsimError::Timeout`] reports, and the run terminates.
//!
//! Panics in a rank body are caught at the task boundary and collected;
//! the first one aborts the cluster and becomes a
//! [`crate::NetsimError::RankPanicked`]. A rank that spin-polls
//! (`try_wait`, an NBX barrier) never parks, so the abort reaches it at
//! its next cooperative yield, which unwinds it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

use crate::runtime::env_setting;
use crate::task::{join_all, suspend, Directive, Payload, Tasks};

/// Why [`Sched::park`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wake {
    /// The event the task parked for fired (mailbox push, barrier
    /// release); re-check the condition.
    Notified,
    /// The cluster is aborting (a rank panicked, or the scheduler found
    /// it deadlocked); give up on the awaited event.
    Expired,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum TState {
    Runnable,
    Running,
    Parked,
    Finished,
}

struct TaskMeta {
    state: TState,
    /// A wake arrived while the task was still `Running` (pre-park
    /// race); convert the next park request into a re-queue.
    wake_pending: bool,
    /// The task is being woken by the abort, not by its awaited event.
    expired: bool,
}

struct Core {
    queues: Vec<VecDeque<u32>>,
    /// Tasks sitting in some queue.
    queued: usize,
    /// Tasks currently executing on a worker.
    running: usize,
    /// Unfinished tasks.
    live: usize,
    /// Workers blocked on the condvar.
    sleepers: usize,
}

struct BarrierState {
    count: usize,
    gen: u64,
    waiting: Vec<u32>,
}

/// The scheduler: tasks, their state machines, run queues, the
/// cluster-wide barrier and the panic/abort plumbing.
pub(crate) struct Sched {
    tasks: Tasks,
    metas: Vec<Mutex<TaskMeta>>,
    core: Mutex<Core>,
    work: Condvar,
    barrier: Mutex<BarrierState>,
    panics: Mutex<Vec<(usize, Payload)>>,
    /// The cluster is aborting: a deadlock, or a rank panicked.
    abort: AtomicBool,
    /// A rank panicked: a spin-polling rank's next yield unwinds it.
    panicked: AtomicBool,
    nworkers: usize,
}

/// What a rank unwinds with when its yield finds the cluster aborted by a
/// peer's panic; the scheduler discards it (the peer's panic is the
/// report).
struct Aborted;

impl Sched {
    /// Build a scheduler over `bodies` (one task per rank, task id ==
    /// index) with `workers` workers and `stack_bytes` per task stack, on
    /// coroutines if `coroutines` (and the platform has them), else on
    /// rank threads.
    ///
    /// # Safety
    ///
    /// Bodies may borrow non-`'static` state; the caller must call
    /// [`Sched::run`] to completion before that state is dropped (and
    /// must not drop an un-run `Sched` whose bodies borrow locals
    /// while resuming tasks elsewhere — in practice: build, run, drop).
    pub(crate) unsafe fn new(
        bodies: Vec<Box<dyn FnOnce() + Send + '_>>,
        workers: usize,
        stack_bytes: usize,
        coroutines: bool,
    ) -> Sched {
        let n = bodies.len();
        let workers = workers.max(1);
        // SAFETY: the caller's contract is `Tasks::new`'s.
        let tasks = unsafe { Tasks::new(bodies, stack_bytes, coroutines) };
        let metas = (0..n)
            .map(|_| {
                Mutex::new(TaskMeta {
                    state: TState::Runnable,
                    wake_pending: false,
                    expired: false,
                })
            })
            .collect();
        let mut queues: Vec<VecDeque<u32>> =
            (0..workers).map(|_| VecDeque::with_capacity(n)).collect();
        for t in 0..n {
            queues[t % workers].push_back(t as u32);
        }
        Sched {
            tasks,
            metas,
            core: Mutex::new(Core {
                queues,
                queued: n,
                running: 0,
                live: n,
                sleepers: 0,
            }),
            work: Condvar::new(),
            barrier: Mutex::new(BarrierState { count: 0, gen: 0, waiting: Vec::with_capacity(n) }),
            panics: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
            nworkers: workers,
        }
    }

    /// Drive all tasks to completion. The calling thread becomes
    /// worker 0; `workers - 1` helper threads, and on the thread
    /// substrate every rank thread, are spawned for the duration of the
    /// run, and have exited when it returns.
    pub(crate) fn run(&self) {
        std::thread::scope(|s| {
            let mut threads = self.tasks.start(s);
            for w in 1..self.nworkers {
                // A worker the OS refuses only slows the run down: every
                // worker steals from every queue.
                match std::thread::Builder::new().spawn_scoped(s, move || self.worker_loop(w)) {
                    Ok(worker) => threads.push(worker),
                    Err(_) => break,
                }
            }
            self.worker_loop(0);
            join_all(threads);
        });
    }

    fn worker_loop(&self, w: usize) {
        loop {
            if let Some(tid) = self.grab(w) {
                self.run_one(tid);
                continue;
            }
            let mut core = self.core.lock().unwrap();
            if core.queued > 0 {
                continue; // lost a race with grab; retry
            }
            if core.live == 0 {
                self.work.notify_all();
                return;
            }
            if core.running == 0 {
                // Quiescence: every live task is parked, on something
                // that can never happen. Declare deadlock and expire
                // them all, queued before `core` is released so the
                // next idle worker sees `queued > 0`, not the same
                // quiescence again.
                self.abort.store(true, Ordering::SeqCst);
                for t in 0..self.tasks.len() {
                    self.expire(&mut core, t as u32);
                }
                continue;
            }
            core.sleepers += 1;
            let mut core = self.work.wait(core).unwrap();
            core.sleepers -= 1;
        }
    }

    fn grab(&self, w: usize) -> Option<u32> {
        let mut core = self.core.lock().unwrap();
        let tid = core.queues[w].pop_front().or_else(|| {
            (0..core.queues.len())
                .filter(|&o| o != w)
                .find_map(|o| core.queues[o].pop_back())
        })?;
        core.queued -= 1;
        core.running += 1;
        drop(core);
        self.metas[tid as usize].lock().unwrap().state = TState::Running;
        Some(tid)
    }

    fn run_one(&self, tid: u32) {
        let t = tid as usize;
        match self.tasks[t].resume() {
            Directive::Finished => {
                match self.tasks[t].take_panic() {
                    Some(payload) if !payload.is::<Aborted>() => {
                        self.panics.lock().unwrap().push((t, payload));
                        self.panicked.store(true, Ordering::SeqCst);
                        self.abort.store(true, Ordering::SeqCst);
                        self.metas[t].lock().unwrap().state = TState::Finished;
                        self.wake_all_parked();
                    }
                    _ => self.metas[t].lock().unwrap().state = TState::Finished,
                }
                let mut core = self.core.lock().unwrap();
                core.running -= 1;
                core.live -= 1;
                if core.live == 0 {
                    self.work.notify_all();
                }
            }
            Directive::Yield => {
                {
                    let mut m = self.metas[t].lock().unwrap();
                    m.state = TState::Runnable;
                    m.wake_pending = false;
                }
                self.requeue(tid);
            }
            Directive::Park => {
                let mut m = self.metas[t].lock().unwrap();
                if m.wake_pending {
                    // The event fired between the task's request and
                    // now: re-queue instead of parking.
                    m.wake_pending = false;
                    m.state = TState::Runnable;
                    drop(m);
                    self.requeue(tid);
                } else {
                    m.state = TState::Parked;
                    drop(m);
                    self.core.lock().unwrap().running -= 1;
                }
            }
        }
    }

    /// Wake `tid` with an expiry signal if it is parked, under the
    /// caller's `core` lock so the wake and the queue counters change
    /// together. This is the one place a task's meta lock is taken
    /// inside `core`; no path holds a meta lock while taking `core`, so
    /// the nesting cannot deadlock.
    fn expire(&self, core: &mut Core, tid: u32) {
        let mut m = self.metas[tid as usize].lock().unwrap();
        if m.state == TState::Parked {
            m.expired = true;
            m.state = TState::Runnable;
            drop(m);
            self.enqueue_locked(core, tid);
        }
    }

    fn wake_all_parked(&self) {
        let mut core = self.core.lock().unwrap();
        for t in 0..self.tasks.len() {
            self.expire(&mut core, t as u32);
        }
    }

    fn enqueue(&self, tid: u32) {
        self.enqueue_locked(&mut self.core.lock().unwrap(), tid);
    }

    /// Queue `tid`, which its worker just stopped running.
    fn requeue(&self, tid: u32) {
        let mut core = self.core.lock().unwrap();
        core.running -= 1;
        self.enqueue_locked(&mut core, tid);
    }

    fn enqueue_locked(&self, core: &mut Core, tid: u32) {
        let home = tid as usize % core.queues.len();
        core.queues[home].push_back(tid);
        core.queued += 1;
        if core.sleepers > 0 {
            self.work.notify_one();
        }
    }

    /// Wake every task so each can re-examine shared state — the
    /// revocation broadcast a dying rank issues so survivors blocked in
    /// receives or fences observe the failure instead of parking
    /// forever. Unlike the abort path this leaves the scheduler
    /// healthy: woken tasks see a plain [`Wake::Notified`], re-check,
    /// and may park again.
    pub(crate) fn wake_all(&self) {
        for t in 0..self.tasks.len() {
            self.make_runnable(t as u32);
        }
    }

    /// Make `tid` runnable because the event it parked for fired. Safe
    /// against every phase of the park protocol: a still-running task
    /// gets `wake_pending`, a parked one is re-queued, a queued or
    /// finished one is left alone.
    pub(crate) fn make_runnable(&self, tid: u32) {
        let mut m = self.metas[tid as usize].lock().unwrap();
        match m.state {
            TState::Parked => {
                m.state = TState::Runnable;
                drop(m);
                self.enqueue(tid);
            }
            TState::Running => m.wake_pending = true,
            TState::Runnable | TState::Finished => {}
        }
    }

    /// Park the calling task (which must be `tid`) until a wake, or
    /// until the cluster aborts. Returns immediately with
    /// [`Wake::Expired`] if the cluster is aborting, or with
    /// [`Wake::Notified`] if a wake already raced in.
    pub(crate) fn park(&self, tid: u32) -> Wake {
        {
            let mut m = self.metas[tid as usize].lock().unwrap();
            if self.abort.load(Ordering::SeqCst) {
                m.expired = false;
                return Wake::Expired;
            }
            if m.wake_pending {
                m.wake_pending = false;
                return Wake::Notified;
            }
        }
        suspend(Directive::Park);
        let mut m = self.metas[tid as usize].lock().unwrap();
        if m.expired {
            m.expired = false;
            Wake::Expired
        } else {
            Wake::Notified
        }
    }

    /// Cooperatively yield the calling task to the back of its run
    /// queue. Spin-polling paths (`try_wait`, `progress_with`) call this on
    /// a miss so producers get CPU time even on a single worker.
    ///
    /// Once a peer has panicked the poll can never succeed — its producer
    /// may be the rank that died — so the yield unwinds the caller instead;
    /// the scheduler discards that unwind and reports the peer's panic.
    pub(crate) fn yield_now(&self) {
        if self.panicked.load(Ordering::SeqCst) {
            std::panic::resume_unwind(Box::new(Aborted));
        }
        suspend(Directive::Yield);
    }

    /// Cluster-wide barrier for the calling task `tid`. Returns `false`
    /// if the cluster aborted instead of releasing the barrier.
    pub(crate) fn barrier_wait(&self, tid: u32) -> bool {
        let my_gen;
        {
            let mut b = self.barrier.lock().unwrap();
            if self.abort.load(Ordering::SeqCst) {
                return false;
            }
            b.count += 1;
            if b.count == self.tasks.len() {
                b.count = 0;
                b.gen += 1;
                // Wake in place and clear (capacity is retained —
                // `mem::take` would surrender it and force the next
                // generation to reallocate). Holding the barrier lock
                // while waking is safe: `make_runnable` only touches
                // task metas and the core queue, never barrier state.
                for i in 0..b.waiting.len() {
                    self.make_runnable(b.waiting[i]);
                }
                b.waiting.clear();
                return true;
            }
            my_gen = b.gen;
            b.waiting.push(tid);
        }
        loop {
            if self.abort.load(Ordering::SeqCst) {
                return false;
            }
            if self.barrier.lock().unwrap().gen != my_gen {
                return true;
            }
            self.park(tid);
        }
    }

    /// Whether the cluster is aborting (rank panic or deadlock).
    #[cfg(test)]
    pub(crate) fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Whether abort was triggered by deadlock detection.
    #[cfg(test)]
    pub(crate) fn deadlock_detected(&self) -> bool {
        self.aborted() && !self.panicked.load(Ordering::SeqCst)
    }

    /// Drain captured rank panics, in the order they were observed
    /// (the first is the root cause; later ones are usually secondary
    /// failures of ranks woken by the abort).
    pub(crate) fn take_panics(&self) -> Vec<(usize, Payload)> {
        std::mem::take(&mut *self.panics.lock().unwrap())
    }
}

/// Number of workers to use: `NETSIM_WORKERS` if set (a value that is
/// not a number is rejected, not ignored), else the machine's
/// parallelism capped at 8 (coarse tasks stop scaling past that, and
/// fewer workers keep scheduling overhead predictable).
pub(crate) fn default_workers() -> usize {
    match env_setting::<usize>("NETSIM_WORKERS") {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8),
    }
}

/// Per-task stack size for an `n`-rank cluster: `NETSIM_STACK_BYTES`
/// if set (in bytes; anything but a number is rejected, not ignored),
/// else [`crate::task::DEFAULT_STACK_BYTES`], shrunk to
/// 128 KiB past ~16k ranks. The reservation is virtual either way, but
/// at huge rank counts the *address-space spread* itself costs: 64k
/// one-MiB stacks sprawl over 64 GiB of sparse VA, and the page-table
/// and TLB footprint of walking them dominates the simulation. Rank
/// bodies at those scales are communication skeletons with shallow
/// frames; anything deeper can restore big stacks via the env knob.
pub(crate) fn default_stack_bytes(n: usize) -> usize {
    if let Some(b) = env_setting::<usize>("NETSIM_STACK_BYTES") {
        return b.max(16 * 1024);
    }
    if n > 16 * 1024 {
        128 * 1024
    } else {
        crate::task::DEFAULT_STACK_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Where a test's task bodies find the scheduler that runs them.
    type Holder<'s> = Mutex<Option<&'s Sched>>;

    /// A mailbox in miniature: a value and, under the same lock, the
    /// consumer's "found nothing, about to park" flag.
    type Slot = Mutex<(Option<u64>, bool)>;

    /// Consumer side: lower the flag and take the value, or raise the flag
    /// in the critical section that missed.
    fn take_or_raise(slot: &Slot) -> Option<u64> {
        let mut s = slot.lock().unwrap();
        s.1 = s.0.is_none();
        s.0.take()
    }

    /// Producer side: store `v` and take the flag; `true` = wake the consumer.
    fn put(slot: &Slot, v: u64) -> bool {
        let mut s = slot.lock().unwrap();
        s.0 = Some(v);
        std::mem::take(&mut s.1)
    }

    /// Whether to run on coroutines: both substrates where both exist.
    const SUBSTRATES: &[bool] =
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) { &[true, false] } else { &[false] };

    /// Build a scheduler over `bodies` on one substrate, publish it in
    /// `holder` (task bodies need `&Sched`, which does not exist when
    /// they are built), run it to completion and hand it back for
    /// inspection.
    fn run_bodies<'s>(
        holder: &Holder<'s>,
        bodies: Vec<Box<dyn FnOnce() + Send + '_>>,
        workers: usize,
        coroutines: bool,
    ) -> Sched {
        // SAFETY: `run()` below drives every task to completion before
        // this function returns, and the callers keep whatever the bodies
        // borrow alive past this call.
        let sched = unsafe { Sched::new(bodies, workers, 256 * 1024, coroutines) };
        // SAFETY: only the lifetime is transmuted. The reference is read
        // by task bodies alone, which run only inside `sched.run()` below
        // — while `sched` is alive and has not moved — and it is
        // withdrawn again before `sched` moves out of this frame.
        let published = unsafe { std::mem::transmute::<&Sched, &'s Sched>(&sched) };
        *holder.lock().unwrap() = Some(published);
        sched.run();
        *holder.lock().unwrap() = None;
        sched
    }

    #[test]
    fn tasks_all_complete() {
        for &coroutines in SUBSTRATES {
            let n = 100;
            let count = AtomicUsize::new(0);
            std::thread::scope(|_| {
                let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
                    .map(|_| {
                        let c = &count;
                        Box::new(move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                run_bodies(&Holder::default(), bodies, 1, coroutines);
            });
            assert_eq!(count.load(Ordering::SeqCst), n);
        }
    }

    #[test]
    fn mailbox_handshake_wakes_consumer() {
        for &coroutines in SUBSTRATES {
            // Producer stores into a shared slot and wakes the consumer if
            // it finds it asleep; consumer parks until the value arrives.
            // Exercises the flag-under-the-lock protocol of `crate::mailbox`
            // and the wake_pending race path.
            let slot = Slot::default();
            let got = AtomicUsize::new(0);
            let holder = Holder::default();
            let (h, s, g) = (&holder, &slot, &got);
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                // rank 0: consumer
                Box::new(move || {
                    let sched = h.lock().unwrap().unwrap();
                    loop {
                        if let Some(v) = take_or_raise(s) {
                            g.store(v as usize, Ordering::SeqCst);
                            return;
                        }
                        sched.park(0);
                    }
                }),
                // rank 1: producer, yields a few times first so the
                // consumer definitely parks.
                Box::new(move || {
                    let sched = h.lock().unwrap().unwrap();
                    for _ in 0..3 {
                        sched.yield_now();
                    }
                    assert!(put(s, 42), "the consumer raised its flag before parking");
                    sched.make_runnable(0);
                }),
            ];
            let sched = run_bodies(h, bodies, 1, coroutines);
            assert_eq!(got.load(Ordering::SeqCst), 42);
            assert!(!slot.lock().unwrap().1, "the flag is down once the consumer has its value");
            assert!(!sched.aborted());
        }
    }

    #[test]
    fn barrier_releases_all_ranks_together() {
        for &coroutines in SUBSTRATES {
            let n = 16;
            let before = AtomicUsize::new(0);
            let violations = AtomicUsize::new(0);
            let holder = Holder::default();
            let (h, b, v) = (&holder, &before, &violations);
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
                .map(|i| {
                    Box::new(move || {
                        let sched = h.lock().unwrap().unwrap();
                        b.fetch_add(1, Ordering::SeqCst);
                        assert!(sched.barrier_wait(i as u32));
                        if b.load(Ordering::SeqCst) != n {
                            v.fetch_add(1, Ordering::SeqCst);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_bodies(h, bodies, 1, coroutines);
            assert_eq!(violations.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn true_deadlock_is_detected_and_recovered() {
        for &coroutines in SUBSTRATES {
            // Two ranks park with nobody left to wake them: the scheduler must
            // detect the deadlock, abort, and wake both with Expired.
            let expired = AtomicUsize::new(0);
            let holder = Holder::default();
            let (h, e) = (&holder, &expired);
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
                .map(|i| {
                    Box::new(move || {
                        let sched = h.lock().unwrap().unwrap();
                        if sched.park(i as u32) == Wake::Expired {
                            e.fetch_add(1, Ordering::SeqCst);
                        }
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            let sched = run_bodies(h, bodies, 1, coroutines);
            assert!(sched.deadlock_detected());
            assert!(sched.aborted());
            assert_eq!(expired.load(Ordering::SeqCst), 2);
        }
    }

    #[test]
    fn panic_aborts_cluster_and_is_captured_first() {
        for &coroutines in SUBSTRATES {
            let holder = Holder::default();
            let h = &holder;
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(move || {
                    let sched = h.lock().unwrap().unwrap();
                    // Parked forever; must be released by the abort.
                    let _ = sched.park(0);
                }),
                Box::new(move || {
                    let sched = h.lock().unwrap().unwrap();
                    sched.yield_now();
                    panic!("rank 1 died");
                }),
            ];
            let sched = run_bodies(h, bodies, 1, coroutines);
            let panics = sched.take_panics();
            assert_eq!(panics.len(), 1);
            assert_eq!(panics[0].0, 1);
            assert_eq!(panics[0].1.downcast_ref::<&str>(), Some(&"rank 1 died"));
            assert!(sched.aborted());
            assert!(!sched.deadlock_detected());
        }
    }

    #[test]
    fn work_stealing_multi_worker_completes() {
        for &coroutines in SUBSTRATES {
            let n = 64;
            let count = AtomicUsize::new(0);
            let holder = Holder::default();
            let (h, c) = (&holder, &count);
            let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
                .map(|_| {
                    Box::new(move || {
                        let sched = h.lock().unwrap().unwrap();
                        for _ in 0..4 {
                            sched.yield_now();
                        }
                        c.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_bodies(h, bodies, 4, coroutines);
            assert_eq!(count.load(Ordering::SeqCst), n);
        }
    }
}
