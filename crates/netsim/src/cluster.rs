//! Virtual cluster with MPI-style nonblocking point-to-point, runnable
//! on two interchangeable backends (see [`Backend`]):
//!
//! * **Thread** — one OS thread per rank, blocking on condvars. The
//!   reference implementation: simple, preemptive, and limited to
//!   roughly a thousand ranks by kernel scheduling overhead.
//! * **Event** — ranks are resumable tasks multiplexed onto a small
//!   worker pool by [`crate::event`]; a rank that would block parks and
//!   is re-queued when its message, barrier release, or (virtual)
//!   timer fires. Scales to 10k+ ranks on one machine.
//!
//! Both backends run the *same* rank-body code against the same
//! [`RankCtx`] API, with modeled time billed identically — results are
//! bit-identical across backends by construction.
//!
//! Data really moves between rank memories, and a mailbox message takes
//! one of two paths, decided per message from the state the sender finds:
//!
//! * **direct** — the receiver has lent the destination of its posted
//!   receive ([`crate::window`]: every `waitall_*` lends while it blocks,
//!   [`RankCtx::lend`] lends ahead of the sends), the channel's queue
//!   exists and is empty, no fault touches the message and the lengths
//!   agree: `isend` copies source → destination once, under the
//!   receiver's mailbox lock, and no buffer is involved;
//! * **eager** — everything else (the receiver is still computing, a
//!   channel's first message, anything queued behind another message,
//!   self-sends, messages a fault plan touches, receives completed with
//!   `recv_blocking` / `recv_deadline` / `try_wait` / `progress`): two
//!   copies, into a pooled buffer in `isend` and out of it when the
//!   receive completes.
//!
//! The loopback fast path is one copy. All of them stand in for NIC DMA
//! and are therefore not charged to any on-node timer; completion
//! *times* come from the [`NetworkModel`], which bills the message, not
//! the copies. Message matching follows MPI semantics: `(source, tag)`
//! with non-overtaking order per pair.
//!
//! The transport is persistent and allocation-free in steady state:
//! eager message buffers come from a per-rank [`BufferPool`] and are returned
//! to the sender's pool once the receiver has copied them out, so a
//! timestep loop stops exercising the allocator after warmup (see
//! [`RankCtx::transport_allocs`]). The pool is binned by size class:
//! a send draws a buffer of its own class, so warm-up costs at most one
//! allocation per message in flight and bulk frames never inflate the
//! buffers small messages reuse. A receiver that wants to keep a whole
//! message takes the buffer over instead of copying out of it
//! ([`RankCtx::adopt`]). Self-sends can bypass the mailbox
//! entirely via the loopback fast path ([`RankCtx::loopback_within`] /
//! [`RankCtx::loopback_into`]), which performs the single NIC-DMA
//! stand-in copy while charging the LogGP wire model exactly as the
//! mailbox path would.
//!
//! The fabric can misbehave on purpose: [`run_cluster_faulty`] arms a
//! seeded [`FaultPlan`] per rank, and `isend` then consults it to drop,
//! duplicate, corrupt or delay messages deterministically (see
//! [`crate::fault`]). To keep a lossy fabric from hanging ranks
//! forever, receives are deadline-aware: [`RankCtx::set_recv_timeout`]
//! arms a deadline and `waitall_*` reports a structured
//! [`NetsimError::Timeout`] — including a dump of the unmatched mailbox
//! keys, the deadlock detector's view — instead of blocking.
//!
//! A rank body that panics no longer aborts the whole process through
//! a poisoned join: the panic is caught at the rank boundary, the rest
//! of the cluster is woken and unwound, and the run reports a
//! structured [`NetsimError::RankPanicked`] (via [`try_run_cluster`];
//! the panicking convenience wrappers re-panic with that message).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use telemetry::{Phase, Recorder, Timeline};

use crate::error::{NetsimError, MAX_DIAG_KEYS};
use crate::fault::{
    FaultConfig, FaultDecision, FaultEvent, FaultKind, FaultPlan, FaultStats, ProcFault,
    CTRL_TAG_BIT,
};
use crate::hier::{HierarchicalNetworkModel, NodeShape};
use crate::model::NetworkModel;
use crate::timers::{timed, Timers};
use crate::topo::CartTopo;
use crate::trace::{MsgEvent, Trace};
use crate::window::{Lend, Windows};

pub(crate) type Key = (usize, u64); // (source rank, tag)

/// Max buffers retained per rank pool; beyond this, returned buffers
/// are dropped (bounds memory for bursty all-to-all patterns — and for
/// duplicate storms under fault injection).
pub const POOL_CAP: usize = 256;

/// An in-flight message: its payload plus the rank whose pool the
/// buffer should return to after delivery (None = not pooled).
struct Msg {
    owner: Option<usize>,
    data: Vec<f64>,
}

/// Smallest pooled buffer, in words; shorter requests share this class.
const MIN_CLASS_WORDS: usize = 8;

/// The size class a buffer of `cap` words can serve: the largest class
/// no bigger than `cap`. Classes are geometric with four per octave
/// (8, 10, 12, 14, 16, 20, ... words), so rounding a request up to its
/// class wastes less than a quarter of it. `None` = below the smallest.
fn class_floor(cap: usize) -> Option<usize> {
    if cap < MIN_CLASS_WORDS {
        return None;
    }
    let shift = cap.ilog2() as usize - 2;
    Some((shift - 1) * 4 + (cap >> shift) - 4)
}

/// The class a request for `len` words draws from: the smallest class
/// holding at least `len`.
fn class_ceil(len: usize) -> usize {
    class_floor(len.max(1) - 1).map_or(0, |c| c + 1)
}

/// Words in a buffer of `class`.
fn class_words(class: usize) -> usize {
    (4 + class % 4) << (class / 4 + 1)
}

/// The free buffers of one size class.
struct Bin {
    class: usize,
    free: Vec<Vec<f64>>,
}

/// Recycled send buffers for one rank, binned by size class. `isend`
/// takes from here and the *receiver's* `waitall` puts back, so
/// steady-state transport does no heap allocation — and because a
/// request only ever draws from its own class, a 2 MB checkpoint frame
/// and a 200-byte corner message never trade buffers.
struct BufferPool {
    /// One entry per class ever returned here; a rank's traffic uses a
    /// handful of sizes, so this stays short and is searched linearly.
    bins: Mutex<Vec<Bin>>,
}

impl BufferPool {
    fn new() -> BufferPool {
        BufferPool { bins: Mutex::new(Vec::new()) }
    }

    /// An empty buffer with room for `len` words; the flag says whether
    /// it had to be allocated (class-sized, so `put` files it where the
    /// next `take(len)` looks).
    fn take(&self, len: usize) -> (Vec<f64>, bool) {
        let class = class_ceil(len);
        let mut bins = self.bins.lock();
        match bins.iter_mut().find(|b| b.class == class).and_then(|b| b.free.pop()) {
            Some(buf) => (buf, false),
            None => (Vec::with_capacity(class_words(class)), true),
        }
    }

    fn put(&self, mut buf: Vec<f64>) {
        let Some(class) = class_floor(buf.capacity()) else { return };
        buf.clear();
        let mut bins = self.bins.lock();
        if bins.iter().map(|b| b.free.len()).sum::<usize>() == POOL_CAP {
            // Full: shed from the fullest class rather than refuse, so
            // sizes that stopped being requested cannot pin the pool
            // and make every send of a new size allocate.
            let fullest = bins.iter_mut().max_by_key(|b| b.free.len());
            fullest.expect("a full pool has a bin").free.pop();
        }
        match bins.iter_mut().find(|b| b.class == class) {
            Some(b) => b.free.push(buf),
            None => bins.push(Bin { class, free: vec![buf] }),
        }
    }

    fn len(&self) -> usize {
        self.bins.lock().iter().map(|b| b.free.len()).sum()
    }

    /// Bytes of capacity parked in the pool.
    fn bytes(&self) -> usize {
        self.bins.lock().iter().flat_map(|b| &b.free).map(|v| v.capacity() * 8).sum()
    }
}

#[derive(Default)]
pub(crate) struct MailboxInner {
    queues: HashMap<Key, VecDeque<Msg>>,
    /// Whether the owning rank is blocked in [`Mailbox::wait_deadline`]
    /// (only the owner waits, so one flag covers every waiter). A push
    /// signals the condvar only then: a notify is a `futex` system call
    /// even when nobody waits, and nobody ever does on the event backend.
    waiting: bool,
    /// Destinations the owner has lent to its senders (see
    /// [`crate::window`]); empty whenever no lend is open.
    pub(crate) windows: Windows,
}

impl MailboxInner {
    /// The oldest queued message of `key`, if any.
    fn pop(&mut self, key: Key) -> Option<Msg> {
        self.queues.get_mut(&key)?.pop_front()
    }
}

/// A cancellable cluster barrier for the thread backend: like
/// `std::sync::Barrier`, but a panicking rank can [`abort`] it so the
/// surviving ranks return (with `false`) instead of blocking forever on
/// a rendezvous that can never complete.
///
/// [`abort`]: AbortableBarrier::abort
struct AbortableBarrier {
    /// (arrived count, generation).
    state: Mutex<(usize, u64)>,
    cv: Condvar,
    size: usize,
    aborted: AtomicBool,
}

impl AbortableBarrier {
    fn new(size: usize) -> AbortableBarrier {
        AbortableBarrier { state: Mutex::new((0, 0)), cv: Condvar::new(), size, aborted: AtomicBool::new(false) }
    }

    /// Wait for all ranks; `false` means the barrier was aborted.
    fn wait(&self) -> bool {
        let mut g = self.state.lock();
        if self.aborted.load(Ordering::SeqCst) {
            return false;
        }
        g.0 += 1;
        if g.0 == self.size {
            g.0 = 0;
            g.1 += 1;
            self.cv.notify_all();
            return true;
        }
        let gen = g.1;
        while g.1 == gen {
            self.cv.wait(&mut g);
            if self.aborted.load(Ordering::SeqCst) {
                return false;
            }
        }
        true
    }

    fn abort(&self) {
        let _g = self.state.lock();
        self.aborted.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// Shared process-liveness state for one cluster run: which ranks are
/// currently dead, whether the communicator is revoked (ULFM-style: a
/// crash-stop was observed and every blocking operation must unwind
/// with [`NetsimError::RankFailed`] instead of waiting on traffic that
/// cannot arrive), and the failure the survivors must agree on.
struct ProcState {
    /// Per-rank crash flag. A dead rank's incoming sends vanish (the
    /// NIC is gone); cleared when the runner respawns the rank.
    dead: Vec<AtomicBool>,
    /// Set by [`RankCtx::die`], cleared by rank 0 at the end of the
    /// recovery epoch (before releasing the recovery fence, so no
    /// survivor can observe a stale revocation afterwards).
    revoked: AtomicBool,
    /// The failed rank (`usize::MAX` = none).
    failed_rank: AtomicUsize,
    /// The timestep the victim was executing when it died.
    failed_step: AtomicU64,
    /// Wall-clock kill instant, for detection-latency telemetry.
    killed_at: Mutex<Option<Instant>>,
}

impl ProcState {
    fn new(size: usize) -> ProcState {
        ProcState {
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            revoked: AtomicBool::new(false),
            failed_rank: AtomicUsize::new(usize::MAX),
            failed_step: AtomicU64::new(0),
            killed_at: Mutex::new(None),
        }
    }
}

/// Panic payload thrown by [`RankCtx::die`] to unwind a crash-stopped
/// rank out of arbitrarily deep protocol code. The runners' respawn
/// loops catch it and re-enter the rank body with a fresh incarnation;
/// any other panic payload keeps the existing abort-the-cluster path.
struct KillSentinel;

/// One rank's incoming-message store.
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    signal: Condvar,
}

impl Mailbox {
    fn new() -> Mailbox {
        Mailbox { inner: Mutex::new(MailboxInner::default()), signal: Condvar::new() }
    }

    pub(crate) fn lock(&self) -> parking_lot::MutexGuard<'_, MailboxInner> {
        self.inner.lock()
    }

    fn push(&self, key: Key, msg: Msg) {
        let mut g = self.inner.lock();
        g.queues.entry(key).or_default().push_back(msg);
        if g.waiting {
            self.signal.notify_all();
        }
    }

    /// The direct path: copy `data` into the window the owner lent for
    /// `key` and wake the owner exactly as [`Mailbox::push`] does.
    /// `false` = nothing was written and the message must go eager: no
    /// open window of that length, or the channel's queue is missing (its
    /// first message reserves the fallback buffer) or not empty (a direct
    /// write would overtake what is queued).
    fn deliver(&self, key: Key, data: &[f64]) -> bool {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        let direct = inner.queues.get(&key).is_some_and(|q| q.is_empty())
            && inner.windows.deliver(key, data);
        if direct && inner.waiting {
            self.signal.notify_all();
        }
        direct
    }

    /// Run `probe` on the locked mailbox until it yields, blocking
    /// between attempts until `deadline` (or forever when `None`).
    /// `None` return = deadline expired, or `stopped` reports the wait
    /// is pointless — the cluster is aborting (a peer rank panicked) or
    /// revoked (a peer rank crash-stopped) — all meaning "stop waiting,
    /// the message is not coming".
    fn wait_deadline<T>(
        &self,
        deadline: Option<Instant>,
        stopped: &dyn Fn() -> bool,
        probe: &mut dyn FnMut(&mut MailboxInner) -> Option<T>,
    ) -> Option<T> {
        let mut g = self.inner.lock();
        loop {
            if let Some(v) = probe(&mut g) {
                return Some(v);
            }
            if stopped() {
                return None;
            }
            g.waiting = true;
            let expired = match deadline {
                None => {
                    self.signal.wait(&mut g);
                    false
                }
                Some(d) => self.signal.wait_until(&mut g, d).timed_out(),
            };
            g.waiting = false;
            if expired {
                // Final re-check: a push may have raced expiry.
                return probe(&mut g);
            }
        }
    }

    /// Wake any thread-backend waiter so it observes the abort flag.
    fn interrupt(&self) {
        let _g = self.inner.lock();
        self.signal.notify_all();
    }

    /// Pop without blocking.
    fn try_pop(&self, key: Key) -> Option<Msg> {
        self.inner.lock().pop(key)
    }

    /// Remove every queued message for `key` (stale duplicates /
    /// late retries); also drops the now-empty queue entry so the key
    /// map cannot grow without bound across retried exchanges.
    fn drain(&self, key: Key) -> Vec<Msg> {
        let mut g = self.inner.lock();
        match g.queues.remove(&key) {
            Some(q) => q.into_iter().collect(),
            None => Vec::new(),
        }
    }

    /// Remove every queued message whose key fails `keep` — the
    /// recovery epoch's mailbox flush, which must evict all stale
    /// data-plane traffic from before a rank failure while preserving
    /// in-flight recovery-protocol frames.
    fn drain_except(&self, keep: &dyn Fn(usize, u64) -> bool) -> Vec<Msg> {
        let mut g = self.inner.lock();
        let mut out = Vec::new();
        g.queues.retain(|&(src, tag), q| {
            if keep(src, tag) {
                true
            } else {
                out.extend(q.drain(..));
                false
            }
        });
        out
    }

    /// Diagnostic dump: `(source, tag, queued)` for the non-empty
    /// queues with the smallest keys, sorted, capped at
    /// [`MAX_DIAG_KEYS`] by bounded insertion so the error path stays
    /// allocation-bounded at high rank counts — and allocation-free
    /// when the mailbox is empty, which the steady-state timeout guard
    /// (`tests/event_alloc.rs`) counts on.
    fn unmatched_keys(&self) -> Vec<(usize, u64, usize)> {
        let g = self.inner.lock();
        let mut keys: Vec<(usize, u64, usize)> = Vec::new();
        for (&(src, tag), q) in g.queues.iter().filter(|(_, q)| !q.is_empty()) {
            if keys.capacity() == 0 {
                keys.reserve_exact(MAX_DIAG_KEYS);
            }
            let k = (src, tag, q.len());
            let pos = keys.binary_search(&k).unwrap_or_else(|p| p);
            if pos < MAX_DIAG_KEYS {
                if keys.len() == MAX_DIAG_KEYS {
                    keys.pop();
                }
                keys.insert(pos, k);
            }
        }
        keys
    }
}

/// A posted nonblocking receive; completed by
/// [`RankCtx::waitall_into`], [`RankCtx::waitall_ranges`],
/// [`Lend::complete`], or — on the non-blocking overlap path —
/// [`RankCtx::try_wait`] / [`RankCtx::progress`].
#[derive(Clone, Copy, Debug)]
#[must_use = "a posted receive must be completed (waitall_*, try_wait, or progress) \
              or the message leaks in the mailbox"]
pub struct RecvHandle {
    source: usize,
    tag: u64,
}

/// A message popped off the mailbox by [`RankCtx::recv_deadline`] —
/// the low-level completion used by reliable-exchange protocols that
/// need to inspect frames (checksums, sequence numbers) before
/// deciding where the payload lands. Return it to the transport with
/// [`RankCtx::recycle`] so pooled buffers keep circulating.
pub struct RecvdMsg {
    owner: Option<usize>,
    data: Vec<f64>,
}

impl RecvdMsg {
    /// The received frame.
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Which execution substrate a rank runs on. Blocking operations
/// (mailbox waits, barriers) route through here; everything else —
/// matching, billing, fault injection — is backend-independent code,
/// which is what makes the two backends bit-identical by construction.
enum Runtime<'a> {
    /// One OS thread per rank; blocking = condvar waits.
    Thread { barrier: &'a AbortableBarrier },
    /// Resumable task multiplexed by the event scheduler; blocking =
    /// park/wake. Task id == rank.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Event { sched: &'a crate::event::Sched },
}

/// Per-rank execution context handed to the rank body.
pub struct RankCtx<'a> {
    rank: usize,
    topo: &'a CartTopo,
    net: NetworkModel,
    mailboxes: &'a [Mailbox],
    pools: &'a [BufferPool],
    runtime: Runtime<'a>,
    abort: &'a AtomicBool,
    timers: Timers,
    trace: Trace,
    recorder: Recorder,
    // Sends posted since the last waitall (the current epoch). In a
    // hierarchical run these count only the off-node (fabric) portion.
    epoch_msgs: usize,
    epoch_bytes: usize,
    // Two-tier fabric state: `Some((intra, node))` only when the run's
    // topology is genuinely hierarchical; `net` is then the inter-node
    // tier (with this rank's jitter applied to both). Flat runs keep
    // this `None` and bill through the unchanged flat path.
    hier: Option<(NetworkModel, NodeShape)>,
    // On-node portion of the current epoch (hierarchical runs only).
    epoch_msgs_on: usize,
    epoch_bytes_on: usize,
    transport_allocs: u64,
    direct_sends: u64,
    fault: Option<FaultPlan>,
    fault_bypass: bool,
    recv_timeout: Option<Duration>,
    // Process-fault machinery (see `ProcState`). `kill`/`stall` are
    // this rank's armed process faults (first incarnation only);
    // `cur_step` is the timestep window armed by the resilient driver
    // (`u64::MAX` = disarmed: harness/recovery traffic cannot be
    // killed) and `step_ops` counts data-plane ops within it.
    proc: &'a ProcState,
    kill: Option<ProcFault>,
    stall: Option<ProcFault>,
    cur_step: u64,
    step_ops: u64,
    stall_fired: bool,
    recovery_mode: bool,
    incarnation: usize,
    detect_latency: Option<f64>,
}

impl<'a> RankCtx<'a> {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.topo.size()
    }

    /// The Cartesian topology.
    pub fn topo(&self) -> &CartTopo {
        self.topo
    }

    /// The wire model charged for messages between this rank and
    /// `peer` (already includes this rank's fault-plan slowdown factor,
    /// if any): the shared-memory tier when both live on the same node
    /// of a hierarchical topology, the fabric tier otherwise.
    pub fn network_to(&self, peer: usize) -> NetworkModel {
        self.net_to(peer)
    }

    /// This rank's own mailbox (borrowed from the run, not from `self`).
    fn mailbox(&self) -> &'a Mailbox {
        let mailboxes: &'a [Mailbox] = self.mailboxes;
        &mailboxes[self.rank]
    }

    #[inline]
    fn net_to(&self, peer: usize) -> NetworkModel {
        match &self.hier {
            Some((intra, node)) if node.same_node(self.rank, peer) => *intra,
            _ => self.net,
        }
    }

    /// Whether `peer` shares this rank's node (true only in a
    /// hierarchical run; the flat degenerate case has one rank per
    /// node, so nothing — not even a self-send — counts as on-node).
    #[inline]
    fn on_node(&self, peer: usize) -> bool {
        matches!(&self.hier, Some((_, node)) if node.same_node(self.rank, peer))
    }

    /// Single billing point: every second this rank is charged flows
    /// through here, advancing both the matching [`Timers`] field and —
    /// when profiling is on — the recorder's virtual clock. Routing all
    /// charges through one spot is what makes the telemetry invariant
    /// (per-phase span sums == timer totals) hold by construction.
    fn bill(&mut self, phase: Phase, secs: f64) {
        match phase {
            Phase::Compute => self.timers.calc += secs,
            Phase::Pack | Phase::Unpack | Phase::Copy => self.timers.pack += secs,
            Phase::Wire => self.timers.call += secs,
            Phase::Wait => self.timers.wait += secs,
        }
        self.recorder.charge(phase, secs);
    }

    /// Run and *really time* a computation phase.
    pub fn time_calc<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, t) = timed(f);
        self.bill(Phase::Compute, t);
        r
    }

    /// Like [`RankCtx::time_calc`], but hands the closure the span
    /// recorder so an instrumented kernel can attribute slices of the
    /// measured interval itself (per-plan-stage spans). Whatever the
    /// closure does not account for is billed as plain compute, so the
    /// total charged always equals the really-measured wall time.
    pub fn time_calc_with<R>(&mut self, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let mut rec = std::mem::take(&mut self.recorder);
        let before = rec.now();
        let (r, t) = timed(|| f(&mut rec));
        let inner = rec.now() - before;
        self.recorder = rec;
        self.timers.calc += t;
        self.recorder.charge(Phase::Compute, (t - inner).max(0.0));
        r
    }

    /// Run and *really time* a packing phase.
    pub fn time_pack<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, t) = timed(f);
        self.bill(Phase::Pack, t);
        r
    }

    /// Run and *really time* an unpacking phase. Accumulates into the
    /// same `pack` timer as [`RankCtx::time_pack`] (the paper reports
    /// one packing number) but is attributed separately in timelines.
    pub fn time_unpack<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, t) = timed(f);
        self.bill(Phase::Unpack, t);
        r
    }

    /// Run and *really time* work that happens inside the MPI library
    /// (e.g. a derived-datatype pack walk), charged to `call`.
    pub fn time_call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (r, t) = timed(f);
        self.bill(Phase::Wire, t);
        r
    }

    /// Turn on span/counter recording for this rank. Exchange engines
    /// then wrap their work in [`RankCtx::scoped`] and every charged
    /// second lands as a leaf span on the rank's virtual timeline.
    pub fn enable_profiling(&mut self) {
        self.recorder.enable(self.rank);
    }

    /// Open a named scope for the duration of `f`: charges billed
    /// inside nest under it on the timeline. Free when profiling is
    /// off. Closure-based so spans are well-nested by construction.
    pub fn scoped<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.recorder.open(name);
        let r = f(self);
        self.recorder.close();
        r
    }

    /// Bump a named profiling counter (no-op when profiling is off).
    pub fn note_count(&mut self, name: &'static str, delta: u64) {
        self.recorder.count(name, delta);
    }

    /// Drain this rank's recorded timeline (empty when profiling was
    /// never enabled). Call before timer-reducing collectives, whose
    /// own wire traffic would otherwise pollute the spans.
    pub fn take_timeline(&mut self) -> Timeline {
        self.recorder.take_timeline()
    }

    /// Number of message buffers the transport had to grow or allocate
    /// so far. Stops increasing once the pool is warm — the steady-state
    /// zero-allocation property, asserted by the stress tests.
    pub fn transport_allocs(&self) -> u64 {
        self.transport_allocs
    }

    /// Messages this rank sent on the direct path so far: copied once,
    /// into a destination the receiver had lent, with no buffer taken
    /// from the pool (`msgs_direct` on a profiled timeline).
    pub fn direct_sends(&self) -> u64 {
        self.direct_sends
    }

    /// Buffers currently parked in this rank's send pool (bounded by
    /// [`POOL_CAP`]; the fault stress tests assert the bound holds
    /// under duplicate/retry storms).
    pub fn pool_len(&self) -> usize {
        self.pools[self.rank].len()
    }

    /// Bytes of buffer capacity parked in this rank's send pool. Size
    /// classes keep it within a quarter of what the traffic asked for.
    pub fn pool_bytes(&self) -> usize {
        self.pools[self.rank].bytes()
    }

    /// Whether a fault plan is armed (and not bypassed) on this rank.
    pub fn fault_active(&self) -> bool {
        self.fault.is_some() && !self.fault_bypass
    }

    /// Whether the armed fault plan can actually lose or damage data
    /// (drop/corrupt/dup). Delay- or jitter-only plans stretch modeled
    /// time but deliver every payload intact, so engines keep their
    /// fast overlap/partitioned paths open under them.
    pub fn fault_lossy(&self) -> bool {
        self.fault_active() && self.fault.as_ref().is_some_and(|p| p.config().lossy())
    }

    /// This rank's virtual clock: the sum of every second billed so far
    /// (compute, pack, call and wait). Monotone between timer resets.
    /// The partitioned-channel layer timestamps shipped fragments with
    /// it so fragment bandwidth can drain behind later billed work.
    pub fn virtual_time(&self) -> f64 {
        self.timers.total()
    }

    /// Injection totals for this rank so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// Temporarily exempt sends from fault injection (the degraded
    /// "mailbox fallback" path of a reliable exchange, and other
    /// control-plane traffic). Returns the previous setting so callers
    /// can restore it.
    pub fn set_fault_bypass(&mut self, on: bool) -> bool {
        std::mem::replace(&mut self.fault_bypass, on)
    }

    /// Arm (or disarm) a deadline for `waitall_*` and
    /// [`RankCtx::recv_deadline`] completions. `None` (the default)
    /// blocks forever, preserving the fault-free semantics.
    pub fn set_recv_timeout(&mut self, timeout: Option<Duration>) {
        self.recv_timeout = timeout;
    }

    /// The armed receive deadline, if any.
    pub fn recv_timeout(&self) -> Option<Duration> {
        self.recv_timeout
    }

    /// Arm the process-fault window for timestep `step`: a `kill:` /
    /// `stall:` schedule targeting this step can now fire, at the
    /// scheduled data-plane operation count. Resilient drivers call
    /// this right before each step body and
    /// [`RankCtx::clear_fault_step`] right after, so checkpointing and
    /// recovery traffic can never be killed — which is what keeps every
    /// rank's checkpoint set identical.
    pub fn set_fault_step(&mut self, step: u64) {
        self.cur_step = step;
        self.step_ops = 0;
    }

    /// Disarm the process-fault window (see [`RankCtx::set_fault_step`]).
    pub fn clear_fault_step(&mut self) {
        self.cur_step = u64::MAX;
    }

    /// Data-plane operations counted so far in the armed step — the `OP`
    /// coordinate of a `kill:R@S+OP` schedule (frozen while disarmed).
    pub fn step_ops(&self) -> u64 {
        self.step_ops
    }

    /// How many times this rank's body has been (re)started: 0 for the
    /// original process, ≥ 1 for a respawn after a crash-stop fault.
    /// A resilient driver seeing a nonzero incarnation skips straight
    /// to the recovery epoch to adopt its buddy's checkpoint.
    pub fn incarnation(&self) -> usize {
        self.incarnation
    }

    /// Whether the communicator is revoked: a crash-stop fault was
    /// observed somewhere and blocking operations outside recovery
    /// mode unwind with [`NetsimError::RankFailed`].
    pub fn revoked(&self) -> bool {
        self.proc.revoked.load(Ordering::SeqCst)
    }

    /// The pending failure the survivors must recover from, as
    /// `(failed rank, failed step)` — `None` once recovery completed.
    pub fn failed_info(&self) -> Option<(usize, u64)> {
        let r = self.proc.failed_rank.load(Ordering::SeqCst);
        (r != usize::MAX).then(|| (r, self.proc.failed_step.load(Ordering::SeqCst)))
    }

    /// This rank's view of the pending failure as a structured error,
    /// recording the detection latency (wall-clock seconds from kill to
    /// first observation, telemetry only) the first time it fires.
    pub fn rank_failure(&mut self) -> Option<NetsimError> {
        let (rank, step) = self.failed_info()?;
        if self.detect_latency.is_none() {
            let at: Option<Instant> = *self.proc.killed_at.lock();
            self.detect_latency = Some(at.map_or(0.0, |t| t.elapsed().as_secs_f64()));
        }
        Some(NetsimError::RankFailed { rank, detected_by: self.rank, step })
    }

    /// Detection latency recorded by [`RankCtx::rank_failure`], if this
    /// rank ever observed a failure.
    pub fn detect_latency(&self) -> Option<f64> {
        self.detect_latency
    }

    /// Enter recovery mode: blocking operations wait normally again
    /// (the recovery protocol's own traffic must flow on a revoked
    /// communicator) until [`RankCtx::end_recovery`].
    pub fn begin_recovery(&mut self) {
        self.recovery_mode = true;
    }

    /// Leave recovery mode (see [`RankCtx::begin_recovery`]).
    pub fn end_recovery(&mut self) {
        self.recovery_mode = false;
    }

    /// Whether this rank is inside a recovery epoch.
    pub fn recovering(&self) -> bool {
        self.recovery_mode
    }

    /// Acknowledge the failure cluster-wide: clear the failed-rank
    /// record and un-revoke the communicator. Called by rank 0 at the
    /// end of the recovery epoch, *before* releasing the recovery
    /// fence, so no rank can leave recovery and still observe the
    /// stale revocation.
    pub fn clear_failure(&self) {
        self.proc.failed_rank.store(usize::MAX, Ordering::SeqCst);
        self.proc.failed_step.store(0, Ordering::SeqCst);
        *self.proc.killed_at.lock() = None;
        self.proc.revoked.store(false, Ordering::SeqCst);
    }

    /// Flush this rank's mailbox of everything whose `(source, tag)`
    /// fails `keep`, recycling the buffers; returns how many messages
    /// were evicted. The recovery epoch calls this after the join
    /// fence — when every pre-failure send has landed (delivery is
    /// eager) — so stale data-plane frames from the aborted step can
    /// never be matched by the replay, while in-flight recovery frames
    /// survive.
    pub fn drain_all_except(&mut self, keep: impl Fn(usize, u64) -> bool) -> usize {
        let evicted = self.mailboxes[self.rank].drain_except(&keep);
        let n = evicted.len();
        for msg in evicted {
            if let Some(owner) = msg.owner {
                self.pools[owner].put(msg.data);
            }
        }
        n
    }

    /// Record a process-fault trace event. The victim's own trace dies
    /// with its first incarnation, so the resilient driver re-records
    /// the kill on the respawned context; stalls are recorded in place
    /// by [`RankCtx::proc_tick`].
    pub fn record_proc_fault_event(&mut self, kind: FaultKind, step: u64, op: u64) {
        self.trace.record_fault(FaultEvent {
            kind,
            src: self.rank,
            dest: self.rank,
            tag: step,
            attempt: op,
            bytes: 0,
        });
    }

    /// Process-fault injection point, called once per data-plane
    /// transport operation (send posts, receive posts, waits, overlap
    /// polls — including `try_wait`/`progress_with`/`idle_tick` polls
    /// that find nothing). Ops are counted per armed timestep, so a
    /// `kill:R@S+OP` schedule lands *inside* the step body, including
    /// mid-overlap-window and mid-pready. The point is reproducible
    /// only while `OP` is within the operations the step posts
    /// unconditionally (its sends and receives; the blocking fence and
    /// load-trade calls of a migration epoch). Past those, under the
    /// overlap and partitioned schedules, the count depends on how often
    /// the rank polled before its halos landed — host timing — and a
    /// step that ends after fewer than `OP` ticks leaves the kill
    /// unfired.
    fn proc_tick(&mut self) {
        if self.cur_step == u64::MAX {
            return;
        }
        if let Some(k) = self.kill {
            if k.step == self.cur_step && self.step_ops >= k.op {
                self.die(k.step);
            }
        }
        if let Some(st) = self.stall {
            if st.step == self.cur_step && self.step_ops >= st.op && !self.stall_fired {
                self.stall_fired = true;
                self.bill(Phase::Wait, st.stall_secs);
                self.recorder.count("fault_stalls", 1);
                self.record_proc_fault_event(FaultKind::Stall, st.step, st.op);
            }
        }
        self.step_ops += 1;
    }

    /// Crash-stop this rank: publish the failure, make in-flight
    /// traffic to it vanish, wake every blocked peer so the failure
    /// detector can run, and unwind via a [`KillSentinel`] panic that
    /// the runner's respawn loop catches.
    fn die(&mut self, step: u64) -> ! {
        self.proc.dead[self.rank].store(true, Ordering::SeqCst);
        self.proc.failed_rank.store(self.rank, Ordering::SeqCst);
        self.proc.failed_step.store(step, Ordering::SeqCst);
        *self.proc.killed_at.lock() = Some(Instant::now());
        self.proc.revoked.store(true, Ordering::SeqCst);
        // The victim's queued data-plane messages vanish with it;
        // recycle their buffers so the owners' pools keep circulating.
        // Control-plane traffic (fault-exempt by construction) is
        // preserved: a survivor that detects the failure first may
        // already have posted recovery-protocol frames to this mailbox,
        // and eating them would deadlock the join fence. Stale control
        // frames are purged by the recovery epoch's own drain instead.
        let stale = self.mailboxes[self.rank].drain_except(&|_, tag| tag & CTRL_TAG_BIT != 0);
        for msg in stale {
            if let Some(owner) = msg.owner {
                self.pools[owner].put(msg.data);
            }
        }
        match self.runtime {
            Runtime::Thread { .. } => {
                for mb in self.mailboxes {
                    mb.interrupt();
                }
            }
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Runtime::Event { sched } => sched.wake_all(),
        }
        // `resume_unwind` rather than `panic_any`: the unwind is the
        // modeled crash, not a program bug, so the process-global panic
        // hook (message + backtrace on stderr) must not fire for it.
        std::panic::resume_unwind(Box::new(KillSentinel));
    }

    /// Charge the send-side wire model for one message of `bytes`
    /// payload: `o` seconds of `call`, message/byte counters, epoch
    /// accounting (skipped for deferred sends, whose `wait` the caller
    /// settles itself), and the trace event.
    fn charge_send(&mut self, peer: usize, tag: u64, bytes: usize, epoch: bool) {
        self.bill(Phase::Wire, self.net_to(peer).call_time(1));
        self.timers.msgs += 1;
        self.timers.wire_bytes += bytes as u64;
        if epoch {
            if self.on_node(peer) {
                self.epoch_msgs_on += 1;
                self.epoch_bytes_on += bytes;
            } else {
                self.epoch_msgs += 1;
                self.epoch_bytes += bytes;
            }
        }
        self.recorder.count("msgs_sent", 1);
        self.recorder.observe("send_bytes", bytes as f64);
        self.trace.record(MsgEvent { send: true, peer, tag, bytes });
    }

    /// Post a nonblocking send of `data` to rank `dest` with `tag`.
    /// Charges `o` seconds of `call` time; the copy — into the window the
    /// receiver lent, else into a pooled message — stands in for NIC DMA
    /// and is not charged to any on-node timer.
    ///
    /// When a fault plan is armed the message may be deterministically
    /// dropped, duplicated, corrupted or delayed; every injected fault
    /// is recorded in the [`Trace`] fault log.
    pub fn isend(&mut self, dest: usize, tag: u64, data: &[f64]) -> Result<(), NetsimError> {
        self.isend_impl(dest, tag, data, true)
    }

    /// Post a nonblocking send whose LogGP `wait` term is *deferred*:
    /// the fragment is charged `o` seconds of `call` and counted like
    /// any other message, but it does not join the current send epoch —
    /// the caller owns its serialization cost and settles it later (see
    /// [`crate::partition::PartitionedSend`], which drains fragment
    /// bandwidth behind subsequently billed compute and bills only the
    /// residual). Fault plans apply exactly as for [`RankCtx::isend`].
    pub fn isend_deferred(
        &mut self,
        dest: usize,
        tag: u64,
        data: &[f64],
    ) -> Result<(), NetsimError> {
        self.isend_impl(dest, tag, data, false)
    }

    fn isend_impl(
        &mut self,
        dest: usize,
        tag: u64,
        data: &[f64],
        epoch: bool,
    ) -> Result<(), NetsimError> {
        if dest >= self.topo.size() {
            return Err(NetsimError::InvalidRank { rank: dest, size: self.topo.size() });
        }
        self.proc_tick();
        let bytes = std::mem::size_of_val(data);
        self.charge_send(dest, tag, bytes, epoch);
        // A data-plane send to a dead rank vanishes (its NIC is gone).
        // The call cost above is still billed: the sender cannot know
        // yet. Control-plane sends are fault-exempt and still land in
        // the mailbox — it outlives the incarnation, and the recovery
        // protocol's join fence depends on tokens posted in the window
        // between the crash and the respawn.
        if self.proc.dead[dest].load(Ordering::SeqCst) && tag & CTRL_TAG_BIT == 0 {
            return Ok(());
        }
        let decision = match self.fault.as_mut() {
            Some(plan) if !self.fault_bypass => plan.decide(dest, tag, data.len()),
            _ => FaultDecision::default(),
        };
        if decision.any() {
            self.apply_send_faults(dest, tag, bytes, &decision);
        }
        if decision.drop {
            return Ok(());
        }
        // Direct only past the billing, the dead-rank vanish and the
        // fault decision above, and only for a message no fault touches:
        // every modeled charge and every injected fault is the eager
        // path's. Self-sends stay eager — the reference transport.
        if !decision.any()
            && dest != self.rank
            && self.mailboxes[dest].deliver((self.rank, tag), data)
        {
            self.direct_sends += 1;
            self.recorder.count("msgs_direct", 1);
            self.notify_peer(dest);
            return Ok(());
        }
        let (mut buf, fresh) = self.pools[self.rank].take(data.len());
        self.transport_allocs += fresh as u64;
        buf.extend_from_slice(data);
        let mut msg = Msg { owner: Some(self.rank), data: buf };
        if let Some((word, mask)) = decision.corrupt {
            let bits = msg.data[word].to_bits() ^ mask;
            msg.data[word] = f64::from_bits(bits);
        }
        if decision.dup {
            // The duplicate is a plain allocation outside the pool: a
            // fault path must not perturb the steady-state pool census.
            self.transport_allocs += 1;
            self.mailboxes[dest].push((self.rank, tag), Msg { owner: None, data: msg.data.clone() });
        }
        self.mailboxes[dest].push((self.rank, tag), msg);
        self.notify_peer(dest);
        Ok(())
    }

    /// Record fault events and charge the delay penalty.
    fn apply_send_faults(&mut self, dest: usize, tag: u64, bytes: usize, d: &FaultDecision) {
        let record = |kind: FaultKind, trace: &mut Trace, rank: usize| {
            trace.record_fault(FaultEvent { kind, src: rank, dest, tag, attempt: d.attempt, bytes });
        };
        if d.delay_secs > 0.0 {
            self.bill(Phase::Wait, d.delay_secs);
            self.recorder.count("fault_delays", 1);
            record(FaultKind::Delay, &mut self.trace, self.rank);
        }
        if d.drop {
            record(FaultKind::Drop, &mut self.trace, self.rank);
            return;
        }
        if d.corrupt.is_some() {
            record(FaultKind::Corrupt, &mut self.trace, self.rank);
        }
        if d.dup {
            record(FaultKind::Duplicate, &mut self.trace, self.rank);
        }
    }

    /// Loopback fast path for a self-send whose source and destination
    /// live in the *same* slice: copy `data[src]` to `data[dst..]` once
    /// (the NIC-DMA stand-in, not charged to any on-node timer) while
    /// charging the wire model exactly as `isend` + `irecv` would.
    /// `src` and the destination region must not overlap. On-node
    /// copies never traverse the fabric, so fault plans do not apply.
    pub fn loopback_within(
        &mut self,
        tag: u64,
        data: &mut [f64],
        src: Range<usize>,
        dst: usize,
    ) -> Result<(), NetsimError> {
        if dst + src.len() > data.len() {
            return Err(NetsimError::LoopbackMismatch {
                rank: self.rank,
                tag,
                src_len: src.len(),
                dst_len: data.len().saturating_sub(dst),
            });
        }
        let bytes = src.len() * std::mem::size_of::<f64>();
        self.charge_send(self.rank, tag, bytes, true);
        // The matching receive post, as `irecv` would charge it.
        self.bill(Phase::Wire, self.net_to(self.rank).call_time(1));
        data.copy_within(src, dst);
        self.trace.record(MsgEvent { send: false, peer: self.rank, tag, bytes });
        Ok(())
    }

    /// Loopback fast path for a self-send between two distinct slices
    /// (e.g. an mmap view source and the backing storage): one copy,
    /// full wire-model accounting. Lengths must match exactly.
    pub fn loopback_into(
        &mut self,
        tag: u64,
        src: &[f64],
        dst: &mut [f64],
    ) -> Result<(), NetsimError> {
        if src.len() != dst.len() {
            return Err(NetsimError::LoopbackMismatch {
                rank: self.rank,
                tag,
                src_len: src.len(),
                dst_len: dst.len(),
            });
        }
        let bytes = std::mem::size_of_val(src);
        self.charge_send(self.rank, tag, bytes, true);
        self.bill(Phase::Wire, self.net_to(self.rank).call_time(1));
        dst.copy_from_slice(src);
        self.trace.record(MsgEvent { send: false, peer: self.rank, tag, bytes });
        Ok(())
    }

    /// Post a nonblocking receive from `source` with `tag`. Charges `o`
    /// seconds of `call` time.
    pub fn irecv(&mut self, source: usize, tag: u64) -> Result<RecvHandle, NetsimError> {
        if source >= self.topo.size() {
            return Err(NetsimError::InvalidRank { rank: source, size: self.topo.size() });
        }
        self.proc_tick();
        self.bill(Phase::Wire, self.net_to(source).call_time(1));
        Ok(RecvHandle { source, tag })
    }

    /// Diagnostic dump of this rank's unmatched mailbox contents:
    /// `(source, tag, queued)` per non-empty queue, sorted. Protocol
    /// layers embed this in [`NetsimError::Timeout`] so a hung chaos
    /// run reports what arrived-but-unwanted, the deadlock detector's
    /// first question.
    pub fn mailbox_keys(&self) -> Vec<(usize, u64, usize)> {
        self.mailboxes[self.rank].unmatched_keys()
    }

    /// Backend-routed blocking wait on this rank's mailbox: run `probe`
    /// on the locked mailbox until it yields. `None` = the deadline
    /// expired (or the cluster aborted) first.
    ///
    /// Thread backend: condvar wait with a real wall-clock deadline.
    /// Event backend: arm a mailbox wake, re-probe (the message may already
    /// have landed — delivery is immediate), then park. The deadline is
    /// *virtual*: it fires only at scheduler quiescence, i.e. exactly
    /// when the awaited message provably cannot arrive any more, so a
    /// lossy chaos run times out instantly instead of sleeping.
    fn blocking_probe<T>(
        &self,
        deadline: Option<Instant>,
        mut probe: impl FnMut(&mut MailboxInner) -> Option<T>,
    ) -> Option<T> {
        let mb = &self.mailboxes[self.rank];
        // Outside recovery mode a revoked communicator stops every
        // blocking wait — that is the failure detector: the caller maps
        // the miss to `RankFailed` via `rank_failure()`. Recovery-mode
        // waits ignore revocation (the recovery protocol's own frames
        // must flow on the revoked communicator).
        let abort = self.abort;
        let proc = self.proc;
        let recovering = self.recovery_mode;
        let stopped = move || {
            abort.load(Ordering::SeqCst)
                || (!recovering && proc.revoked.load(Ordering::SeqCst))
        };
        match self.runtime {
            Runtime::Thread { .. } => mb.wait_deadline(deadline, &stopped, &mut probe),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Runtime::Event { sched } => loop {
                if let Some(v) = probe(&mut mb.lock()) {
                    return Some(v);
                }
                if stopped() {
                    return None;
                }
                sched.arm_mailbox(self.rank);
                // Close the arm/push race: the message may have landed
                // between the miss above and the arm.
                if let Some(v) = probe(&mut mb.lock()) {
                    sched.disarm_mailbox(self.rank);
                    return Some(v);
                }
                if sched.park(self.rank as u32, deadline) == crate::event::Wake::Expired {
                    sched.disarm_mailbox(self.rank);
                    return probe(&mut mb.lock());
                }
            },
        }
    }

    /// [`RankCtx::blocking_probe`] for the next message of `key`.
    fn blocking_pop(&self, key: Key, deadline: Option<Instant>) -> Option<Msg> {
        self.blocking_probe(deadline, |inner| inner.pop(key))
    }

    /// One unproductive tick of a hand-rolled spin loop: advance the
    /// process-fault schedule (so a kill/stall scheduled at this point
    /// fires even while the rank only waits) and yield to peers on the
    /// cooperative event backend. Bills nothing. Protocols that poll
    /// [`RankCtx::mailbox_keys`] directly (rather than spinning on
    /// `try_wait`, which ticks internally) must call this on every
    /// empty poll or they starve the producers they wait on.
    pub fn idle_tick(&mut self) {
        self.proc_tick();
        self.poll_miss();
    }

    /// Give other ranks CPU time after an unproductive poll. The event
    /// backend is cooperative: a spin-polling rank (overlap `try_wait`
    /// / `progress` loops) must yield on a miss or it starves the very
    /// producers it is waiting on. The thread backend relies on kernel
    /// preemption and does nothing.
    fn poll_miss(&self) {
        match self.runtime {
            Runtime::Thread { .. } => {}
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Runtime::Event { sched } => sched.yield_now(),
        }
    }

    /// Wake `dest` if it is parked waiting on its mailbox (event
    /// backend; pushes under the thread backend signal the mailbox
    /// condvar directly).
    fn notify_peer(&self, dest: usize) {
        match self.runtime {
            Runtime::Thread { .. } => {}
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Runtime::Event { sched } => {
                if dest != self.rank {
                    sched.notify_mailbox(dest);
                }
            }
        }
    }

    /// Complete one posted receive, blocking until `deadline` (`None`
    /// = the message never arrived in time — *not* an error here: retry
    /// protocols treat a miss as "still pending" and re-request). The
    /// frame is handed back raw so callers can verify checksums and
    /// sequence trailers; recycle it with [`RankCtx::recycle`].
    pub fn recv_deadline(&mut self, h: RecvHandle, deadline: Instant) -> Option<RecvdMsg> {
        self.proc_tick();
        let msg = self.blocking_pop((h.source, h.tag), Some(deadline))?;
        self.trace.record(MsgEvent {
            send: false,
            peer: h.source,
            tag: h.tag,
            bytes: msg.data.len() * 8,
        });
        Some(RecvdMsg { owner: msg.owner, data: msg.data })
    }

    /// Complete one posted receive, blocking until it arrives (or until
    /// the armed receive deadline — see [`RankCtx::set_recv_timeout`] —
    /// expires, which is a [`NetsimError::Timeout`]). Bills nothing and
    /// leaves the send epoch open; the frame is handed back raw, so
    /// recycle it with [`RankCtx::recycle`].
    pub fn recv_blocking(&mut self, h: RecvHandle) -> Result<RecvdMsg, NetsimError> {
        self.proc_tick();
        let deadline = self.recv_timeout.map(|t| Instant::now() + t);
        let Some(msg) = self.blocking_pop((h.source, h.tag), deadline) else {
            return Err(self.wait_failed(vec![(h.source, h.tag)]));
        };
        self.trace.record(MsgEvent {
            send: false,
            peer: h.source,
            tag: h.tag,
            bytes: msg.data.len() * 8,
        });
        Ok(RecvdMsg { owner: msg.owner, data: msg.data })
    }

    /// Return a completed message's buffer to its owner's pool.
    pub fn recycle(&mut self, msg: RecvdMsg) {
        if let Some(owner) = msg.owner {
            self.pools[owner].put(msg.data);
        }
    }

    /// Keep a completed message instead of copying out of it: `slot`
    /// takes over the message's buffer, and the buffer `slot` held goes
    /// back to the sender's pool in its place. A slot that adopts the
    /// same channel's frames over and over thus circulates a fixed set
    /// of buffers with the sender.
    pub fn adopt(&mut self, mut msg: RecvdMsg, slot: &mut Vec<f64>) {
        std::mem::swap(&mut msg.data, slot);
        self.recycle(msg);
    }

    /// Non-blocking completion probe for one posted receive: pop the
    /// matching message if it has already arrived, else return `None`
    /// immediately. Never blocks, bills nothing, and leaves the send
    /// epoch open — the overlap scheduler polls this between interior
    /// compute batches and the eventual `waitall_*` (or
    /// [`RankCtx::flush_epoch`]) still charges the epoch's LogGP `wait`
    /// term exactly once. A loopback or an already-delivered self-send
    /// completes on the first probe.
    ///
    /// Each message is returned exactly once: a `Some` consumes the
    /// mailbox entry, so probing the same handle again waits for the
    /// *next* message on that channel (non-overtaking order).
    pub fn try_wait(&mut self, h: RecvHandle) -> Option<RecvdMsg> {
        self.proc_tick();
        let Some(msg) = self.mailboxes[self.rank].try_pop((h.source, h.tag)) else {
            self.poll_miss();
            return None;
        };
        self.trace.record(MsgEvent {
            send: false,
            peer: h.source,
            tag: h.tag,
            bytes: msg.data.len() * 8,
        });
        Some(RecvdMsg { owner: msg.owner, data: msg.data })
    }

    /// Drive a batch of posted receives forward without blocking:
    /// for every handle not yet marked in `done`, pop its message if
    /// present, verify its length against `expect_len(i)`, hand the
    /// payload to `deliver(i, payload)`, recycle the buffer, flag
    /// `done[i]`, and push `i` onto `completed`. Returns how many
    /// receives newly completed this call.
    ///
    /// Partial-completion semantics: buffers are consumed exactly once
    /// (a completed index is skipped on later calls), nothing is billed
    /// and the send epoch stays open — close it via the finishing
    /// `waitall_*` over the still-pending subset (or
    /// [`RankCtx::flush_epoch`] once everything completed), so the
    /// LogGP `wait` lump and the deadline machinery keep their phased
    /// semantics. A wrong-length message reports
    /// [`NetsimError::SizeMismatch`] after recycling it.
    pub fn progress_with(
        &mut self,
        handles: &[RecvHandle],
        done: &mut [bool],
        completed: &mut Vec<usize>,
        expect_len: impl Fn(usize) -> usize,
        mut deliver: impl FnMut(usize, &[f64]),
    ) -> Result<usize, NetsimError> {
        assert_eq!(handles.len(), done.len());
        self.proc_tick();
        // Failure detection on the overlap path: a poll loop spinning
        // on `progress` would otherwise never observe the revocation.
        if !self.recovery_mode && self.revoked() {
            if let Some(e) = self.rank_failure() {
                return Err(e);
            }
        }
        let mut newly = 0usize;
        for (i, h) in handles.iter().enumerate() {
            if done[i] {
                continue;
            }
            let Some(msg) = self.mailboxes[self.rank].try_pop((h.source, h.tag)) else {
                continue;
            };
            if msg.data.len() != expect_len(i) {
                let err = NetsimError::SizeMismatch {
                    rank: self.rank,
                    source: h.source,
                    tag: h.tag,
                    expected: expect_len(i),
                    got: msg.data.len(),
                };
                if let Some(owner) = msg.owner {
                    self.pools[owner].put(msg.data);
                }
                return Err(err);
            }
            self.trace.record(MsgEvent {
                send: false,
                peer: h.source,
                tag: h.tag,
                bytes: msg.data.len() * 8,
            });
            deliver(i, &msg.data);
            if let Some(owner) = msg.owner {
                self.pools[owner].put(msg.data);
            }
            done[i] = true;
            completed.push(i);
            newly += 1;
        }
        if newly == 0 {
            self.poll_miss();
        }
        Ok(newly)
    }

    /// [`RankCtx::progress_with`] for receives that land in sub-ranges
    /// of one backing slice (`ranges` parallel to `handles`).
    pub fn progress(
        &mut self,
        handles: &[RecvHandle],
        storage: &mut [f64],
        ranges: &[Range<usize>],
        done: &mut [bool],
        completed: &mut Vec<usize>,
    ) -> Result<usize, NetsimError> {
        assert_eq!(handles.len(), ranges.len());
        self.progress_with(
            handles,
            done,
            completed,
            |i| ranges[i].len(),
            |i, payload| storage[ranges[i].clone()].copy_from_slice(payload),
        )
    }

    /// Evict every queued message for `(source, tag)` — stale
    /// duplicates and late retries left behind by a reliable exchange —
    /// recycling their buffers. Returns how many were evicted. Without
    /// this, duplicate storms grow the mailbox without bound.
    pub fn drain_mailbox(&mut self, source: usize, tag: u64) -> usize {
        let stale = self.mailboxes[self.rank].drain((source, tag));
        let n = stale.len();
        for msg in stale {
            if let Some(owner) = msg.owner {
                self.pools[owner].put(msg.data);
            }
        }
        n
    }

    /// Lend the destinations of receives this rank is about to post, ahead
    /// of its sends: `ranges` of `storage` (in bounds, ascending and
    /// disjoint, or this panics), one per `(source, tag)` of `from`, in the
    /// order the receives will be posted. Until the returned guard is
    /// dropped, a peer's matching send can land in place (see
    /// [`crate::window`]); post the sends and receives as usual — sending
    /// from `storage` through [`Lend::outside`] — and wait with
    /// [`Lend::complete`]. Bills nothing and is not a process-fault op.
    ///
    /// On the event backend the lend ends with one cooperative yield:
    /// ranks run in turn there, so a posted window only helps the peers
    /// that run after it ("post receives early"). Threads run
    /// concurrently and do not yield.
    pub fn lend<'l>(
        &self,
        from: impl ExactSizeIterator<Item = (usize, u64)>,
        storage: &'l mut [f64],
        ranges: &[Range<usize>],
    ) -> Lend<'l>
    where
        'a: 'l,
    {
        let lend = Lend::ranges(self.mailbox(), from, storage, ranges);
        self.poll_miss();
        lend
    }

    /// Block until every receive of `lend` has its message, in handle
    /// order, recording trace events; then charge `wait` and close the
    /// epoch (on errors too, so wire accounting stays consistent). A
    /// receive completes when its window was written directly, or else
    /// from the channel's queue — claimed, copied in and the window
    /// closed in one lock acquisition. Honors the armed receive deadline
    /// and reports [`NetsimError::Timeout`] / [`NetsimError::SizeMismatch`].
    pub(crate) fn complete_lent(
        &mut self,
        lend: &mut Lend<'_>,
        handles: &[RecvHandle],
    ) -> Result<(), NetsimError> {
        assert_eq!(
            handles.len(),
            lend.windows(),
            "one posted receive per lent window"
        );
        assert!(
            lend.lent_to(self.mailbox()),
            "a lend completes on the rank that opened it"
        );
        self.proc_tick();
        let deadline = self.recv_timeout.map(|t| Instant::now() + t);
        let mut result = Ok(());
        for (i, h) in handles.iter().enumerate() {
            let key = (h.source, h.tag);
            let claimed = self.blocking_probe(deadline, |inner| {
                if let Some(len) = inner.windows.filled(i, key) {
                    return Some((len, None));
                }
                let msg = inner.pop(key)?;
                Some((inner.windows.fill(i, &msg.data), Some(msg)))
            });
            let Some((expected, eager)) = claimed else {
                let open = self.mailbox().lock().windows.open_keys().take(MAX_DIAG_KEYS).collect();
                result = Err(self.wait_failed(open));
                break;
            };
            let got = eager.as_ref().map_or(expected, |msg| msg.data.len());
            if let Some(msg) = eager {
                if let Some(owner) = msg.owner {
                    self.pools[owner].put(msg.data);
                }
            }
            if got != expected {
                result = Err(NetsimError::SizeMismatch {
                    rank: self.rank,
                    source: h.source,
                    tag: h.tag,
                    expected,
                    got,
                });
                break;
            }
            self.trace.record(MsgEvent {
                send: false,
                peer: h.source,
                tag: h.tag,
                bytes: got * 8,
            });
        }
        self.close_epoch();
        result
    }

    /// Why a blocking receive gave up: the pending failure if the
    /// communicator was revoked, else a [`NetsimError::Timeout`] naming
    /// the `pending` receives and what sits unmatched in the mailbox.
    fn wait_failed(&mut self, pending: Vec<(usize, u64)>) -> NetsimError {
        if !self.recovery_mode {
            if let Some(e) = self.rank_failure() {
                return e;
            }
        }
        NetsimError::Timeout { rank: self.rank, pending, mailbox: self.mailbox_keys() }
    }

    /// Charge the LogGP `wait` term for this epoch's posted sends and
    /// close the epoch. A hierarchical run waits on both tiers: the
    /// fabric drains the off-node portion while shared memory drains
    /// the on-node portion; the two proceed serially on the posting
    /// core, so the terms add. A flat run performs the identical
    /// single-term arithmetic as always (the intra term is absent, not
    /// zero-valued — flat billing stays bit-identical).
    fn close_epoch(&mut self) {
        let mut wait = self.net.wait_time(self.epoch_msgs, self.epoch_bytes);
        if let Some((intra, _)) = self.hier {
            wait += intra.wait_time(self.epoch_msgs_on, self.epoch_bytes_on);
            self.epoch_msgs_on = 0;
            self.epoch_bytes_on = 0;
        }
        self.bill(Phase::Wait, wait);
        self.epoch_msgs = 0;
        self.epoch_bytes = 0;
    }

    /// Public epoch close for protocol layers that complete receives
    /// via [`RankCtx::recv_deadline`] instead of `waitall_*`: charges
    /// the LogGP `wait` term for the sends posted since the last close.
    pub fn flush_epoch(&mut self) {
        self.close_epoch();
    }

    /// Complete all posted receives, each message landing in its
    /// destination buffer (buffers parallel to `handles`; lengths must
    /// match exactly). Charges the LogGP `wait` term for this epoch's
    /// posted sends, then closes the epoch. The buffers are lent for the
    /// duration of the wait, so a message sent meanwhile lands in place.
    ///
    /// With a receive deadline armed (see
    /// [`RankCtx::set_recv_timeout`]), an unmatched receive returns
    /// [`NetsimError::Timeout`] instead of blocking forever; a
    /// wrong-length message returns [`NetsimError::SizeMismatch`]. The
    /// epoch is closed either way so wire accounting stays consistent.
    pub fn waitall_into(
        &mut self,
        handles: &[RecvHandle],
        bufs: &mut [&mut [f64]],
    ) -> Result<(), NetsimError> {
        let from = handles.iter().map(|h| (h.source, h.tag));
        let mut lend = Lend::bufs(self.mailbox(), from, bufs);
        self.complete_lent(&mut lend, handles)
    }

    /// Complete all posted receives directly into sub-ranges of one
    /// backing slice (`ranges` parallel to `handles`; in bounds,
    /// ascending and disjoint, or this panics), then charge `wait` and
    /// close the epoch. No per-call allocation; the ranges are lent for
    /// the duration of the wait, so a message sent meanwhile lands in
    /// place.
    ///
    /// Calling with empty `handles` still closes the epoch — a rank
    /// whose sends were all loopbacks uses this to charge `wait`.
    /// Deadline and error semantics match [`RankCtx::waitall_into`].
    pub fn waitall_ranges(
        &mut self,
        handles: &[RecvHandle],
        storage: &mut [f64],
        ranges: &[Range<usize>],
    ) -> Result<(), NetsimError> {
        let from = handles.iter().map(|h| (h.source, h.tag));
        let mut lend = Lend::ranges(self.mailbox(), from, storage, ranges);
        self.complete_lent(&mut lend, handles)
    }

    /// Record payload bytes (the non-padding fraction of the wire bytes)
    /// for bandwidth accounting.
    pub fn note_payload(&mut self, bytes: usize) {
        self.timers.payload_bytes += bytes as u64;
    }

    /// Charge additional modeled seconds to `wait` (used by the GPU
    /// paths to account for staging or page migration on the wire side).
    pub fn charge_wait(&mut self, secs: f64) {
        self.bill(Phase::Wait, secs);
    }

    /// Charge additional *modeled* seconds to `calc` (used by the GPU
    /// roofline, whose kernels run on the host but are billed as device
    /// time).
    pub fn charge_calc(&mut self, secs: f64) {
        self.bill(Phase::Compute, secs);
    }

    /// Charge modeled compute seconds *attributed to a brick*: the time
    /// lands on `calc` exactly like [`RankCtx::charge_calc`], and — when
    /// profiling is on — is additionally credited to `brick` on the
    /// recorder, feeding the per-brick cost signal a load balancer
    /// harvests.
    pub fn charge_calc_brick(&mut self, brick: u32, secs: f64) {
        self.bill(Phase::Compute, secs);
        self.recorder.charge_brick(brick, secs);
    }

    /// Synchronize all ranks. Returns silently even if the cluster is
    /// aborting (a peer panicked): the surviving ranks are being
    /// unwound via timeout errors, not blocked forever.
    pub fn barrier(&self) {
        // A revoked communicator cannot complete a rendezvous (the
        // failed rank is dead or mid-respawn): return silently, like
        // the abort path. Resilient drivers synchronize through their
        // own revocation-aware fence instead.
        if self.proc.revoked.load(Ordering::SeqCst) {
            return;
        }
        match self.runtime {
            Runtime::Thread { barrier } => {
                barrier.wait();
            }
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Runtime::Event { sched } => {
                sched.barrier_wait(self.rank as u32);
            }
        }
    }

    /// Snapshot of the accumulated timers.
    pub fn timers(&self) -> Timers {
        self.timers
    }

    /// Zero the timers (e.g. after warmup steps). Also rewinds the
    /// profiling recorder so timelines cover exactly the timed steps.
    pub fn reset_timers(&mut self) {
        self.timers.reset();
        self.recorder.reset();
    }

    /// Start recording a message trace (see [`crate::trace`]).
    pub fn enable_trace(&mut self) {
        self.trace.enable();
    }

    /// Drain the recorded message events.
    pub fn take_trace(&mut self) -> Vec<MsgEvent> {
        self.trace.take()
    }

    /// Drain the recorded fault-injection events (always recorded when
    /// a fault plan is armed, independent of the message trace).
    pub fn take_fault_events(&mut self) -> Vec<FaultEvent> {
        self.trace.take_faults()
    }
}

/// Which cluster substrate to run ranks on. See the module docs; the
/// two backends are observationally equivalent (bit-identical results
/// and modeled timers), they differ only in how far they scale and how
/// blocking is implemented.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per rank (the reference backend).
    #[default]
    Thread,
    /// Event-driven rank multiplexing on a worker pool
    /// ([`crate::event`]). Falls back to `Thread` (with a warning) on
    /// platforms without the task substrate (non-x86-64 / non-Linux).
    Event,
}

impl Backend {
    /// Parse `"thread"` / `"event"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "thread" | "threads" => Some(Backend::Thread),
            "event" | "events" => Some(Backend::Event),
            _ => None,
        }
    }

    /// Backend selected by the `NETSIM_BACKEND` environment variable,
    /// defaulting to [`Backend::Thread`]. This is what the convenience
    /// runners ([`run_cluster`], [`run_cluster_faulty`]) use, so an
    /// entire existing test suite can be re-run on the event backend by
    /// exporting `NETSIM_BACKEND=event`.
    pub fn from_env() -> Backend {
        match std::env::var("NETSIM_BACKEND") {
            Ok(v) => Backend::parse(&v).unwrap_or_default(),
            Err(_) => Backend::Thread,
        }
    }

    /// Whether the event backend's task substrate is compiled in on
    /// this platform.
    pub fn event_supported() -> bool {
        cfg!(all(target_os = "linux", target_arch = "x86_64"))
    }

    /// Stable lowercase name (used in bench JSON and CLI output).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Event => "event",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;
    fn from_str(s: &str) -> Result<Backend, String> {
        Backend::parse(s).ok_or_else(|| format!("unknown backend {s:?} (want thread|event)"))
    }
}

/// Render a caught panic payload for [`NetsimError::RankPanicked`].
fn payload_string(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "<opaque panic payload>".to_string(),
        },
    }
}

/// Build the per-rank context; shared verbatim by both backends so
/// modeled billing cannot diverge between them.
#[allow(clippy::too_many_arguments)]
fn rank_ctx<'a>(
    rank: usize,
    topo: &'a CartTopo,
    net: HierarchicalNetworkModel,
    faults: FaultConfig,
    mailboxes: &'a [Mailbox],
    pools: &'a [BufferPool],
    runtime: Runtime<'a>,
    abort: &'a AtomicBool,
    proc: &'a ProcState,
    incarnation: usize,
) -> RankCtx<'a> {
    let fault = faults.is_active().then(|| FaultPlan::new(faults, rank));
    let net = match &fault {
        Some(plan) => net.slowed(plan.slowdown()),
        None => net,
    };
    // Flat topologies (including every `NetworkModel` converted via
    // `From`) carry no hier state, so their billing code path — and
    // its float arithmetic — is exactly the pre-hierarchy one.
    let hier = (!net.is_flat()).then_some((net.intra, net.node));
    // Process faults fire only in a rank's first incarnation: a
    // respawned rank must not be re-killed, and a replayed step must
    // not re-stall.
    let first = incarnation == 0;
    RankCtx {
        rank,
        topo,
        net: net.inter,
        mailboxes,
        pools,
        runtime,
        abort,
        timers: Timers::default(),
        trace: Trace::default(),
        recorder: Recorder::disabled(),
        epoch_msgs: 0,
        epoch_bytes: 0,
        hier,
        epoch_msgs_on: 0,
        epoch_bytes_on: 0,
        transport_allocs: 0,
        direct_sends: 0,
        fault,
        fault_bypass: false,
        recv_timeout: None,
        proc,
        kill: faults.kill.filter(|k| first && k.rank == rank),
        stall: faults.stall.filter(|s| first && s.rank == rank),
        cur_step: u64::MAX,
        step_ops: 0,
        stall_fired: false,
        recovery_mode: false,
        incarnation,
        detect_latency: None,
    }
}

/// Run `body` once per rank of `topo` on the backend selected by
/// `NETSIM_BACKEND` (default: thread-per-rank) and collect the per-rank
/// results in rank order. Panics with the [`NetsimError::RankPanicked`]
/// report if a rank body panics; use [`try_run_cluster`] to get it as
/// a value.
pub fn run_cluster<R, F>(
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    run_cluster_faulty(topo, net, FaultConfig::off(), body)
}

/// Like [`run_cluster`], but returns the structured error instead of
/// panicking when a rank body panics.
pub fn try_run_cluster<R, F>(
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    body: F,
) -> Result<Vec<R>, NetsimError>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    try_run_cluster_on(Backend::from_env(), topo, net, FaultConfig::off(), body)
}

/// Like [`run_cluster`], but with a seeded [`FaultConfig`] armed: every
/// rank derives a deterministic [`FaultPlan`] and its wire model is
/// scaled by the plan's per-rank slowdown factor.
pub fn run_cluster_faulty<R, F>(
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    faults: FaultConfig,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    run_cluster_on(Backend::from_env(), topo, net, faults, body)
}

/// Run a cluster on an explicitly chosen [`Backend`]. Panics with the
/// structured report if a rank body panics.
pub fn run_cluster_on<R, F>(
    backend: Backend,
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    faults: FaultConfig,
    body: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    match try_run_cluster_on(backend, topo, net, faults, body) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

/// Run a cluster on an explicitly chosen [`Backend`], reporting a rank
/// panic as [`NetsimError::RankPanicked`] (first panic observed = root
/// cause; the remaining ranks are woken and unwound, not abandoned).
pub fn try_run_cluster_on<R, F>(
    backend: Backend,
    topo: &CartTopo,
    net: impl Into<HierarchicalNetworkModel>,
    faults: FaultConfig,
    body: F,
) -> Result<Vec<R>, NetsimError>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    let net = net.into();
    match backend {
        Backend::Thread => run_thread_cluster(topo, net, faults, &body),
        Backend::Event => {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            {
                run_event_cluster(topo, net, faults, &body)
            }
            #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
            {
                static WARNED: AtomicBool = AtomicBool::new(false);
                if !WARNED.swap(true, Ordering::SeqCst) {
                    eprintln!(
                        "netsim: event backend not supported on this platform; \
                         falling back to thread backend"
                    );
                }
                run_thread_cluster(topo, net, faults, &body)
            }
        }
    }
}

/// Bring a crash-stopped `rank` back to life for its next incarnation.
/// The unwind has dropped everything the dead incarnation held, its
/// [`Lend`]s included, so nothing of its freed memory is still lent.
fn respawn(proc: &ProcState, mailbox: &Mailbox, rank: usize) {
    assert!(
        mailbox.lock().windows.is_empty(),
        "rank {rank} died with receive windows still lent"
    );
    proc.dead[rank].store(false, Ordering::SeqCst);
}

/// Thread-per-rank runner. A panicking rank is caught at the rank
/// boundary; the abort flag plus mailbox/barrier interrupts unwind the
/// surviving ranks (their pending receives report `Timeout`), and the
/// first panic becomes the run's [`NetsimError::RankPanicked`].
fn run_thread_cluster<R, F>(
    topo: &CartTopo,
    net: HierarchicalNetworkModel,
    faults: FaultConfig,
    body: &F,
) -> Result<Vec<R>, NetsimError>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    let size = topo.size();
    let mailboxes: Vec<Mailbox> = (0..size).map(|_| Mailbox::new()).collect();
    let pools: Vec<BufferPool> = (0..size).map(|_| BufferPool::new()).collect();
    let barrier = AbortableBarrier::new(size);
    let abort = AtomicBool::new(false);
    let proc = ProcState::new(size);
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();

    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(size);
        for (rank, slot) in results.iter_mut().enumerate() {
            let mailboxes = &mailboxes;
            let pools = &pools;
            let barrier = &barrier;
            let abort = &abort;
            let proc = &proc;
            let panics = &panics;
            joins.push(s.spawn(move || {
                let mut incarnation = 0usize;
                loop {
                    let mut ctx = rank_ctx(
                        rank,
                        topo,
                        net,
                        faults,
                        mailboxes,
                        pools,
                        Runtime::Thread { barrier },
                        abort,
                        proc,
                        incarnation,
                    );
                    match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                        Ok(r) => {
                            *slot = Some(r);
                            break;
                        }
                        Err(p) if p.is::<KillSentinel>() => {
                            // Crash-stop fault: respawn in place with a
                            // fresh incarnation. The resilient driver's
                            // recovery epoch restores the lost state
                            // from the buddy checkpoint.
                            incarnation += 1;
                            respawn(proc, &mailboxes[rank], rank);
                        }
                        Err(p) => {
                            panics.lock().push((rank, payload_string(p)));
                            abort.store(true, Ordering::SeqCst);
                            barrier.abort();
                            for mb in mailboxes {
                                mb.interrupt();
                            }
                            break;
                        }
                    }
                }
            }));
        }
        for j in joins {
            // Rank panics are caught inside the closure; a join error
            // here would mean the harness itself failed.
            j.join().expect("rank worker thread lost");
        }
    });

    if let Some((rank, payload)) = panics.into_inner().into_iter().next() {
        return Err(NetsimError::RankPanicked { rank, payload });
    }
    let mut out = Vec::with_capacity(size);
    for (rank, slot) in results.into_iter().enumerate() {
        match slot {
            Some(r) => out.push(r),
            // No panic was recorded, yet this rank never produced a
            // result: report it structurally instead of unwrapping.
            None => {
                return Err(NetsimError::RankPanicked {
                    rank,
                    payload: "rank body never completed (cluster aborted)".into(),
                })
            }
        }
    }
    Ok(out)
}

/// Event-driven runner: one resumable task per rank on a work-stealing
/// worker pool; see [`crate::event`] for the scheduling rules.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn run_event_cluster<R, F>(
    topo: &CartTopo,
    net: HierarchicalNetworkModel,
    faults: FaultConfig,
    body: &F,
) -> Result<Vec<R>, NetsimError>
where
    R: Send,
    F: Fn(&mut RankCtx<'_>) -> R + Sync,
{
    use crate::event::{default_stack_bytes, default_workers, Sched};

    let size = topo.size();
    let mailboxes: Vec<Mailbox> = (0..size).map(|_| Mailbox::new()).collect();
    let pools: Vec<BufferPool> = (0..size).map(|_| BufferPool::new()).collect();
    let abort = AtomicBool::new(false);
    let proc = ProcState::new(size);
    let results: Vec<Mutex<Option<R>>> = (0..size).map(|_| Mutex::new(None)).collect();

    // Rank bodies need `&Sched` (for parking), but the scheduler is
    // built *from* the bodies. Tasks only ever run inside `sched.run()`,
    // so they can read the pointer through this cell, which is filled
    // right after construction and before `run`.
    let sched_cell = AtomicUsize::new(0);

    {
        let bodies: Vec<Box<dyn FnOnce() + Send + '_>> = (0..size)
            .map(|rank| {
                let mailboxes = &mailboxes;
                let pools = &pools;
                let abort = &abort;
                let proc = &proc;
                let results = &results;
                let sched_cell = &sched_cell;
                Box::new(move || {
                    // SAFETY: filled with a pointer to the live Sched
                    // before run(); the Sched outlives all its tasks.
                    let sched: &Sched =
                        unsafe { &*(sched_cell.load(Ordering::SeqCst) as *const Sched) };
                    let mut incarnation = 0usize;
                    loop {
                        let mut ctx = rank_ctx(
                            rank,
                            topo,
                            net,
                            faults,
                            mailboxes,
                            pools,
                            Runtime::Event { sched },
                            abort,
                            proc,
                            incarnation,
                        );
                        match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
                            Ok(r) => {
                                *results[rank].lock() = Some(r);
                                break;
                            }
                            Err(p) if p.is::<KillSentinel>() => {
                                // Crash-stop fault: respawn in place
                                // (see the thread runner).
                                incarnation += 1;
                                respawn(proc, &mailboxes[rank], rank);
                            }
                            // Real panics keep the existing path: the
                            // task harness catches them and the run
                            // reports RankPanicked.
                            Err(p) => std::panic::resume_unwind(p),
                        }
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();

        // SAFETY: `run()` below drives every task to completion (or
        // abandonment after abort) before this scope ends, so the
        // borrows captured by the bodies stay valid for as long as any
        // task can run.
        let sched = unsafe { Sched::new(bodies, default_workers().min(size.max(1)), default_stack_bytes(size)) };
        sched_cell.store(&sched as *const Sched as usize, Ordering::SeqCst);
        sched.run();

        let mut panics = sched.take_panics();
        if !panics.is_empty() {
            let (rank, payload) = panics.remove(0);
            return Err(NetsimError::RankPanicked { rank, payload: payload_string(payload) });
        }
    }

    let mut out = Vec::with_capacity(size);
    for (rank, slot) in results.into_iter().enumerate() {
        match slot.into_inner() {
            Some(r) => out.push(r),
            // A task abandoned by a scheduler abort without a recorded
            // panic: report it structurally instead of unwrapping.
            None => {
                return Err(NetsimError::RankPanicked {
                    rank,
                    payload: "rank body never completed (cluster aborted)".into(),
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Mailbox {
        /// [`Mailbox::wait_deadline`] for the next message of `key`.
        fn pop_deadline(
            &self,
            key: Key,
            deadline: Option<Instant>,
            stopped: &dyn Fn() -> bool,
        ) -> Option<Msg> {
            self.wait_deadline(deadline, stopped, &mut |inner| inner.pop(key))
        }
    }

    /// The mailbox lock, taken once `waiter` is blocked in `pop_deadline`:
    /// `waiting` is raised under the lock the wait releases, so seeing it
    /// means the waiter sleeps until signalled or expired.
    fn lock_when_blocked<'a>(
        mb: &'a Mailbox,
        waiter: &std::thread::ScopedJoinHandle<'_, Option<Msg>>,
    ) -> parking_lot::MutexGuard<'a, MailboxInner> {
        loop {
            let g = mb.inner.lock();
            if g.waiting {
                return g;
            }
            assert!(!waiter.is_finished(), "the waiter returned without blocking");
        }
    }

    /// `waiting` is up exactly while the owner is blocked: every way out
    /// of `pop_deadline` lowers it again (a flag left up costs a system
    /// call per push, one left down loses a wake-up), and a push that
    /// sees it up signals.
    #[test]
    fn mailbox_waiting_flag_is_lowered_on_every_return_path() {
        let key: Key = (0, 7);
        let msg = |v: f64| Msg { owner: None, data: vec![v] };
        let soon = || Some(Instant::now() + Duration::from_millis(20));
        let (mb, stop) = (Mailbox::new(), AtomicBool::new(false));
        let lowered = |got: Option<Msg>| {
            assert!(!mb.inner.lock().waiting);
            got.map(|m| m.data[0])
        };

        // Without blocking: a hit, a stop.
        mb.push(key, msg(1.0));
        assert_eq!(lowered(mb.pop_deadline(key, None, &|| false)), Some(1.0));
        assert_eq!(lowered(mb.pop_deadline(key, None, &|| true)), None);
        // Timeout with nothing queued.
        assert_eq!(lowered(mb.pop_deadline(key, soon(), &|| false)), None);

        std::thread::scope(|s| {
            // A hit after blocking: the push finds the flag up and signals.
            let waiter = s.spawn(|| mb.pop_deadline(key, None, &|| false));
            drop(lock_when_blocked(&mb, &waiter));
            mb.push(key, msg(2.0));
            assert_eq!(lowered(waiter.join().expect("waiter")), Some(2.0));

            // A stop after blocking: `interrupt` signals unconditionally.
            let waiter = s.spawn(|| mb.pop_deadline(key, None, &|| stop.load(Ordering::SeqCst)));
            drop(lock_when_blocked(&mb, &waiter));
            stop.store(true, Ordering::SeqCst);
            mb.interrupt();
            assert_eq!(lowered(waiter.join().expect("waiter")), None);

            // A push racing the expiry: the message is queued while the
            // waiter sleeps but no signal reaches it, so only the re-check
            // after the timeout finds it.
            let waiter = s.spawn(|| mb.pop_deadline(key, soon(), &|| false));
            lock_when_blocked(&mb, &waiter).queues.entry(key).or_default().push_back(msg(3.0));
            assert_eq!(lowered(waiter.join().expect("waiter")), Some(3.0));
        });
    }

    /// Two ranks on threads (a sender can then watch the owner block).
    fn two_threads<R: Send>(
        faults: FaultConfig,
        body: impl Fn(&mut RankCtx<'_>) -> R + Sync,
    ) -> Vec<R> {
        run_cluster_on(
            Backend::Thread,
            &CartTopo::new(&[2], true),
            NetworkModel::instant(),
            faults,
            body,
        )
    }

    /// Spin until `rank` is blocked in a mailbox wait (see `lock_when_blocked`).
    fn until_blocked(ctx: &RankCtx<'_>, rank: usize) {
        while !ctx.mailboxes[rank].lock().waiting {
            std::thread::yield_now();
        }
    }

    /// Rank 0 warms channel `(0, 7)` with one eager message, waits until
    /// rank 1 blocks on the receive of a second and sends it: `second(ctx)`
    /// on rank 0, the second `waitall_into(len)` result on rank 1.
    fn second_send_to_a_blocked_owner(
        faults: FaultConfig,
        len: usize,
        second: impl Fn(&mut RankCtx<'_>) + Sync,
    ) -> (Vec<f64>, Result<(), NetsimError>) {
        let mut out = two_threads(faults, |ctx| {
            let mut buf = vec![0.0; len];
            if ctx.rank() == 0 {
                ctx.isend(1, 7, &[1.0; 64]).unwrap();
                ctx.barrier();
                until_blocked(ctx, 1);
                second(ctx);
                return (buf, Ok(()));
            }
            let h = ctx.irecv(0, 7).unwrap();
            ctx.waitall_into(&[h], &mut [&mut [0.0; 64][..]]).unwrap();
            ctx.barrier();
            let h = ctx.irecv(0, 7).unwrap();
            let done = ctx.waitall_into(&[h], &mut [&mut buf[..]]);
            assert!(
                ctx.mailbox().lock().windows.is_empty(),
                "the lend ends with the wait"
            );
            (buf, done)
        });
        out.pop().expect("rank 1")
    }

    /// (i) A warmed channel, an owner blocked on its receive: the send is
    /// copied once, into the owner's buffer, and touches no pool.
    #[test]
    fn send_to_a_blocked_owner_lands_in_place() {
        let payload: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let (buf, done) = second_send_to_a_blocked_owner(FaultConfig::off(), 64, |ctx| {
            let before = (ctx.transport_allocs(), ctx.pool_len(), ctx.pool_bytes());
            assert_eq!(
                before.0, 1,
                "the channel's first message took the fallback buffer"
            );
            ctx.isend(1, 7, &payload).unwrap();
            assert_eq!(ctx.direct_sends(), 1);
            assert_eq!(
                (ctx.transport_allocs(), ctx.pool_len(), ctx.pool_bytes()),
                before
            );
        });
        done.unwrap();
        assert_eq!(buf, payload);
    }

    /// (iv) A send of the wrong length is not written: it queues, and the
    /// receive reports the mismatch exactly as the pooled path does.
    #[test]
    fn wrong_length_send_goes_eager_and_reports_the_mismatch() {
        let (buf, done) = second_send_to_a_blocked_owner(FaultConfig::off(), 3, |ctx| {
            ctx.isend(1, 7, &[5.0, 6.0]).unwrap();
            assert_eq!(ctx.direct_sends(), 0);
        });
        assert_eq!(
            done,
            Err(NetsimError::SizeMismatch {
                rank: 1,
                source: 0,
                tag: 7,
                expected: 3,
                got: 2
            })
        );
        assert_eq!(buf, [0.0; 3], "nothing was written");
    }

    /// (v) A message the fault plan touches — here only delays — stays
    /// eager, so its billing and its fault record are the pooled path's.
    #[test]
    fn delayed_send_goes_eager_with_the_same_billing() {
        let cfg = FaultConfig {
            seed: 3,
            delay: 1.0,
            ..FaultConfig::off()
        };
        let (buf, done) = second_send_to_a_blocked_owner(cfg, 2, |ctx| {
            let wait = ctx.timers().wait;
            ctx.isend(1, 7, &[5.0, 6.0]).unwrap();
            assert_eq!(ctx.direct_sends(), 0);
            assert_eq!(ctx.fault_stats().delays, 2, "the warm-up and this one");
            assert!(ctx.timers().wait > wait, "the delay penalty is billed");
            assert_eq!(
                ctx.take_fault_events()
                    .iter()
                    .filter(|e| e.kind == FaultKind::Delay)
                    .count(),
                2
            );
        });
        done.unwrap();
        assert_eq!(buf, [5.0, 6.0]);
    }

    /// (ii) A receive that completes from the queue closes its window
    /// with the pop: the channel's *next* message, sent during the same
    /// wait, queues instead of overwriting what the owner has not read.
    #[test]
    fn a_window_closed_from_the_queue_is_not_written_by_the_next_message() {
        let out = two_threads(FaultConfig::off(), |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 7, &[1.0; 4]).unwrap(); // warms channel 7
                ctx.isend(1, 8, &[1.0; 4]).unwrap(); // warms channel 8
                ctx.barrier();
                ctx.isend(1, 7, &[2.0; 4]).unwrap(); // queued before the lend
                ctx.barrier();
                until_blocked(ctx, 1); // on channel 8, having popped channel 7
                ctx.isend(1, 7, &[3.0; 4]).unwrap(); // the next epoch's message
                assert_eq!(ctx.direct_sends(), 0, "the window of channel 7 is closed");
                ctx.isend(1, 8, &[4.0; 4]).unwrap();
                assert_eq!(ctx.direct_sends(), 1, "the window of channel 8 was open");
                return ([0.0; 4], [0.0; 4], Vec::new());
            }
            let (mut a, mut b) = ([0.0; 4], [0.0; 4]);
            let hs = [ctx.irecv(0, 7).unwrap(), ctx.irecv(0, 8).unwrap()];
            ctx.waitall_into(&hs, &mut [&mut a[..], &mut b[..]])
                .unwrap();
            ctx.barrier();
            ctx.barrier();
            let hs = [ctx.irecv(0, 7).unwrap(), ctx.irecv(0, 8).unwrap()];
            ctx.waitall_into(&hs, &mut [&mut a[..], &mut b[..]])
                .unwrap();
            (a, b, ctx.mailbox_keys())
        });
        let (a, b, queued) = &out[1];
        assert_eq!((a, b), (&[2.0; 4], &[4.0; 4]), "this epoch's messages");
        assert_eq!(
            queued,
            &[(0, 7, 1)],
            "the next epoch's message waits its turn"
        );
    }

    /// (iii) Every way out of a lent wait ends the lend: a timeout, a
    /// size mismatch (asserted in `second_send_to_a_blocked_owner`) and
    /// the crash-stop unwind of a rank killed with its ghosts pre-posted.
    #[test]
    fn unwinding_out_of_a_lent_wait_clears_the_windows() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.set_recv_timeout(Some(Duration::from_millis(5)));
            let h = ctx.irecv(0, 7).unwrap();
            let err = ctx
                .waitall_into(&[h], &mut [&mut [0.0; 2][..]])
                .unwrap_err();
            assert!(matches!(err, NetsimError::Timeout { pending, .. } if pending == [(0, 7)]));
            assert!(ctx.mailbox().lock().windows.is_empty());
        });

        let kill = FaultConfig::parse("kill:1@0+1").unwrap();
        let incarnations = two_threads(kill, |ctx| {
            if ctx.rank() == 1 && ctx.incarnation() == 0 {
                ctx.set_fault_step(0);
                let mut storage = vec![0.0; 8];
                let ghost = 4..8;
                let lend = ctx.lend(
                    [(0, 7)].into_iter(),
                    &mut storage,
                    std::slice::from_ref(&ghost),
                );
                assert!(!ctx.mailbox().lock().windows.is_empty());
                ctx.isend(0, 9, lend.outside(0..4)).unwrap(); // op 0
                let _ = ctx.irecv(0, 7); // op 1: dies with the lend open
                unreachable!("the kill fires at the second op");
            }
            // `respawn` has already asserted it; look again from inside.
            assert!(ctx.mailbox().lock().windows.is_empty());
            ctx.incarnation()
        });
        assert_eq!(incarnations, [0, 1]);
    }

    /// (vi) Lent ranges are checked every time, at any size.
    #[test]
    fn overlapping_descending_or_out_of_bounds_ranges_panic_at_lend_time() {
        let mb = Mailbox::new();
        for ranges in [[0..4, 3..6], [4..6, 0..2], [0..2, 6..9]] {
            let mut storage = [0.0; 8];
            let lend = catch_unwind(AssertUnwindSafe(|| {
                Lend::ranges(&mb, [(0, 1), (0, 2)].into_iter(), &mut storage, &ranges);
            }));
            assert!(lend.is_err(), "{ranges:?} must be refused");
            assert!(mb.lock().windows.is_empty());
        }
        let mut storage = [0.0; 8];
        let mut lend = Lend::ranges(
            &mb,
            [(0, 1), (0, 2)].into_iter(),
            &mut storage,
            &[2..4, 6..8],
        );
        assert_eq!(lend.outside(0..2).len(), 2);
        assert_eq!(lend.outside_mut(4..6).len(), 2);
        for r in [1..3, 6..7, 7..9] {
            assert!(catch_unwind(AssertUnwindSafe(|| lend.outside(r).len())).is_err());
        }
        assert!(catch_unwind(AssertUnwindSafe(|| lend.outside_pair(0..2, 1..2).0.len())).is_err());
        assert_eq!(lend.release().len(), 8);
        assert!(mb.lock().windows.is_empty());
    }

    #[test]
    fn ring_exchange_delivers() {
        let topo = CartTopo::new(&[4], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let rank = ctx.rank();
            let right = ctx.topo().neighbor(rank, &[1]).unwrap();
            let left = ctx.topo().neighbor(rank, &[-1]).unwrap();
            let data = vec![rank as f64; 8];
            let h = ctx.irecv(left, 7).unwrap();
            ctx.isend(right, 7, &data).unwrap();
            let mut buf = [0.0; 8];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            buf[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn self_send_loopback() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let h = ctx.irecv(0, 1).unwrap();
            ctx.isend(0, 1, &[5.0, 6.0]).unwrap();
            let mut buf = vec![0.0; 2];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            buf
        });
        assert_eq!(out[0], vec![5.0, 6.0]);
    }

    #[test]
    fn non_overtaking_order() {
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            if ctx.rank() == 0 {
                ctx.isend(1, 3, &[1.0]).unwrap();
                ctx.isend(1, 3, &[2.0]).unwrap();
                ctx.isend(1, 3, &[3.0]).unwrap();
                Vec::new()
            } else {
                let hs = [
                    ctx.irecv(0, 3).unwrap(),
                    ctx.irecv(0, 3).unwrap(),
                    ctx.irecv(0, 3).unwrap(),
                ];
                let (mut a, mut b, mut c) = ([0.0], [0.0], [0.0]);
                ctx.waitall_into(&hs, &mut [&mut a, &mut b, &mut c]).unwrap();
                vec![a[0], b[0], c[0]]
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn timers_account_wire_model() {
        let topo = CartTopo::new(&[2], true);
        let net = NetworkModel::theta_aries();
        let out = run_cluster(&topo, net, |ctx| {
            let peer = 1 - ctx.rank();
            let h = ctx.irecv(peer, 0).unwrap();
            let data = vec![0.0; 1024];
            ctx.isend(peer, 0, &data).unwrap();
            let mut buf = vec![0.0; 1024];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            ctx.timers()
        });
        let t = out[0];
        assert_eq!(t.msgs, 1);
        assert_eq!(t.wire_bytes, 8192);
        // call = 2 posts (send + recv), wait = α + bytes/β.
        assert!((t.call - 2.0 * net.overhead).abs() < 1e-12);
        assert!((t.wait - net.wait_time(1, 8192)).abs() < 1e-12);
    }

    #[test]
    fn timed_phases_accumulate() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.time_calc(|| std::hint::black_box((0..10000).sum::<u64>()));
            ctx.time_pack(|| std::hint::black_box(vec![0u8; 4096]));
            ctx.timers()
        });
        assert!(out[0].calc > 0.0);
        assert!(out[0].pack > 0.0);
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let topo = CartTopo::new(&[4], true);
        let counter = AtomicUsize::new(0);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn mismatched_recv_length_is_structured_error() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let h = ctx.irecv(0, 0).unwrap();
            ctx.isend(0, 0, &[1.0, 2.0]).unwrap();
            let mut buf = [0.0; 3];
            ctx.waitall_into(&[h], &mut [&mut buf[..]])
        });
        assert_eq!(
            out[0],
            Err(NetsimError::SizeMismatch { rank: 0, source: 0, tag: 0, expected: 3, got: 2 })
        );
    }

    #[test]
    fn out_of_range_ranks_are_errors() {
        let topo = CartTopo::new(&[2], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            assert_eq!(
                ctx.isend(9, 0, &[1.0]),
                Err(NetsimError::InvalidRank { rank: 9, size: 2 })
            );
            assert!(matches!(ctx.irecv(5, 0), Err(NetsimError::InvalidRank { rank: 5, .. })));
        });
    }

    #[test]
    fn timeout_reports_pending_and_mailbox_dump() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            // A message nobody will ask for, to exercise the dump...
            ctx.isend(0, 99, &[1.0]).unwrap();
            // ...and a receive nobody will satisfy.
            ctx.set_recv_timeout(Some(Duration::from_millis(10)));
            let h = ctx.irecv(0, 7).unwrap();
            let mut buf = [0.0; 1];
            ctx.waitall_into(&[h], &mut [&mut buf[..]])
        });
        let Err(NetsimError::Timeout { rank, pending, mailbox }) = &out[0] else {
            panic!("expected timeout, got {:?}", out[0]);
        };
        assert_eq!(*rank, 0);
        assert_eq!(pending, &[(0, 7)]);
        assert_eq!(mailbox, &[(0, 99, 1)]);
    }

    #[test]
    fn try_wait_returns_each_message_exactly_once() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let h = ctx.irecv(0, 4).unwrap();
            assert!(ctx.try_wait(h).is_none(), "nothing sent yet");
            ctx.isend(0, 4, &[2.5, 3.5]).unwrap();
            let msg = ctx.try_wait(h).expect("self-send completes immediately");
            assert_eq!(msg.data(), &[2.5, 3.5]);
            ctx.recycle(msg);
            assert!(ctx.try_wait(h).is_none(), "message must be consumed exactly once");
            ctx.flush_epoch();
        });
    }

    #[test]
    fn progress_partially_completes_and_consumes_buffers_once() {
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let peer = 1 - ctx.rank();
            if ctx.rank() == 0 {
                // Stagger the two sends around rank 1's first poll.
                ctx.isend(peer, 10, &[1.0, 2.0]).unwrap();
                ctx.barrier(); // rank 1 polls: only tag 10 is in flight
                ctx.barrier(); // rank 1 saw exactly one completion
                ctx.isend(peer, 11, &[3.0, 4.0]).unwrap();
                ctx.flush_epoch();
                Vec::new()
            } else {
                let handles = [ctx.irecv(peer, 10).unwrap(), ctx.irecv(peer, 11).unwrap()];
                let ranges = [0..2, 2..4];
                let mut storage = vec![0.0; 4];
                let mut done = [false, false];
                let mut completed = Vec::new();
                ctx.barrier();
                // Poll until the first message lands (send is async).
                while completed.is_empty() {
                    ctx.progress(&handles, &mut storage, &ranges, &mut done, &mut completed)
                        .unwrap();
                }
                assert_eq!(completed, vec![0]);
                assert_eq!(&storage[..2], &[1.0, 2.0]);
                assert!(done[0] && !done[1]);
                // A repeated poll must not re-deliver the completed index.
                let n = ctx
                    .progress(&handles, &mut storage, &ranges, &mut done, &mut completed)
                    .unwrap();
                assert_eq!(n, 0);
                ctx.barrier();
                while done.iter().any(|d| !d) {
                    ctx.progress(&handles, &mut storage, &ranges, &mut done, &mut completed)
                        .unwrap();
                }
                assert_eq!(completed, vec![0, 1]);
                ctx.flush_epoch();
                storage
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn deadline_still_fires_after_partial_progress() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            // One satisfied channel, one genuinely stuck channel.
            let handles = [ctx.irecv(0, 20).unwrap(), ctx.irecv(0, 21).unwrap()];
            ctx.isend(0, 20, &[7.0]).unwrap();
            let ranges = [0..1, 1..2];
            let mut storage = vec![0.0; 2];
            let mut done = [false, false];
            let mut completed = Vec::new();
            ctx.progress(&handles, &mut storage, &ranges, &mut done, &mut completed).unwrap();
            assert_eq!(completed, vec![0]);
            // The finishing blocking wait over the stuck remainder must
            // still honor the armed deadline.
            ctx.set_recv_timeout(Some(Duration::from_millis(10)));
            ctx.waitall_ranges(&handles[1..], &mut storage, &ranges[1..])
        });
        let Err(NetsimError::Timeout { rank, pending, .. }) = &out[0] else {
            panic!("expected timeout, got {:?}", out[0]);
        };
        assert_eq!(*rank, 0);
        assert_eq!(pending, &[(0, 21)]);
    }

    #[test]
    fn progress_then_waitall_bills_same_wait_as_phased() {
        // The overlap path (progress + finishing waitall over the
        // remainder) must charge exactly the LogGP epoch lump the
        // phased waitall charges: polling bills nothing.
        let topo = CartTopo::new(&[1], true);
        let net = NetworkModel::theta_aries();
        let out = run_cluster(&topo, net, |ctx| {
            let handles = [ctx.irecv(0, 30).unwrap(), ctx.irecv(0, 31).unwrap()];
            ctx.isend(0, 30, &[1.0; 64]).unwrap();
            ctx.isend(0, 31, &[2.0; 64]).unwrap();
            let ranges = [0..64, 64..128];
            let mut storage = vec![0.0; 128];
            let mut done = [false, false];
            let mut completed = Vec::new();
            let wait_before = ctx.timers().wait;
            ctx.progress(&handles, &mut storage, &ranges, &mut done, &mut completed).unwrap();
            assert_eq!(completed, vec![0, 1], "self-sends complete on the first poll");
            assert_eq!(ctx.timers().wait, wait_before, "polling must not bill wait");
            // All receives already done: the empty finishing waitall
            // closes the epoch with the full posted-send totals.
            ctx.waitall_ranges(&[], &mut storage, &[]).unwrap();
            ctx.timers()
        });
        assert!((out[0].wait - net.wait_time(2, 2 * 64 * 8)).abs() < 1e-12);
    }

    #[test]
    fn progress_size_mismatch_is_structured_error() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let handles = [ctx.irecv(0, 40).unwrap()];
            ctx.isend(0, 40, &[1.0, 2.0, 3.0]).unwrap();
            let mut storage = vec![0.0; 2];
            let mut done = [false];
            let mut completed = Vec::new();
            let range = 0..2;
            let r = ctx.progress(
                &handles,
                &mut storage,
                std::slice::from_ref(&range),
                &mut done,
                &mut completed,
            );
            ctx.flush_epoch();
            r
        });
        assert_eq!(
            out[0],
            Err(NetsimError::SizeMismatch { rank: 0, source: 0, tag: 40, expected: 2, got: 3 })
        );
    }

    #[test]
    fn loopback_mismatch_is_error() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let src = [1.0; 4];
            let mut dst = [0.0; 3];
            assert!(matches!(
                ctx.loopback_into(3, &src, &mut dst),
                Err(NetsimError::LoopbackMismatch { src_len: 4, dst_len: 3, .. })
            ));
        });
    }

    #[test]
    fn pooled_buffers_stop_allocating() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let data = vec![1.0; 256];
            let mut buf = vec![0.0; 256];
            // Warm the pool: the first epoch grows a fresh buffer.
            for _ in 0..3 {
                let h = ctx.irecv(0, 9).unwrap();
                ctx.isend(0, 9, &data).unwrap();
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            }
            let warm = ctx.transport_allocs();
            assert!(warm >= 1);
            for _ in 0..50 {
                let h = ctx.irecv(0, 9).unwrap();
                ctx.isend(0, 9, &data).unwrap();
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            }
            assert_eq!(ctx.transport_allocs(), warm, "steady state must not allocate");
        });
    }

    #[test]
    fn size_classes_round_up_by_less_than_a_quarter() {
        let mut last = 0;
        for len in (0..5000).chain([1 << 19, (1 << 19) + 2, usize::MAX >> 8]) {
            let class = class_ceil(len);
            let words = class_words(class);
            assert!(words >= len && words >= MIN_CLASS_WORDS, "len {len} -> {words}");
            assert!(len < MIN_CLASS_WORDS || words * 4 <= len * 5, "len {len} -> {words}");
            // A class-sized buffer is filed back under the class it was drawn from.
            assert_eq!(class_floor(words), Some(class), "len {len}");
            assert!(class >= last, "classes are monotone in len");
            last = class;
        }
        assert_eq!(class_floor(MIN_CLASS_WORDS - 1), None);
    }

    /// One grid-sized frame alternating with a halo's worth of small
    /// messages, the buddy-checkpoint traffic shape: every request keeps
    /// drawing from its own class, so the first epoch's allocations are
    /// the only ones and the pool parks what one epoch asked for.
    #[test]
    fn bulk_frame_and_halo_messages_do_not_trade_buffers() {
        const FRAME: usize = 512 << 10;
        const HALO: usize = 1 << 10;
        const HALO_MSGS: usize = 26;
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let frame = vec![2.0; FRAME];
            let halo = vec![1.0; HALO];
            let mut sink = vec![0.0; HALO];
            for _ in 0..10 {
                let h = ctx.irecv(0, 7).unwrap();
                ctx.isend(0, 7, &frame).unwrap();
                let m = ctx.recv_blocking(h).unwrap();
                assert_eq!(m.data().len(), FRAME);
                ctx.recycle(m);
                let handles: Vec<_> = (0..HALO_MSGS).map(|_| ctx.irecv(0, 9).unwrap()).collect();
                for _ in 0..HALO_MSGS {
                    ctx.isend(0, 9, &halo).unwrap();
                }
                for h in handles {
                    ctx.waitall_into(&[h], &mut [&mut sink[..]]).unwrap();
                }
            }
            let allocs = ctx.transport_allocs();
            assert!(allocs <= 1 + HALO_MSGS as u64, "{allocs} allocations");
            assert_eq!(ctx.pool_len(), 1 + HALO_MSGS);
            let asked = (FRAME + HALO_MSGS * HALO) * 8;
            let pooled = ctx.pool_bytes();
            assert!(pooled * 4 <= asked * 5, "{pooled} bytes pooled for {asked} requested");
        });
    }

    #[test]
    fn adopt_swaps_buffers_with_the_senders_pool() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut slot: Vec<f64> = Vec::new();
            for epoch in 0..6 {
                let data = vec![epoch as f64; 300];
                let h = ctx.irecv(0, 3).unwrap();
                ctx.isend(0, 3, &data).unwrap();
                let m = ctx.recv_blocking(h).unwrap();
                ctx.adopt(m, &mut slot);
                assert_eq!(slot, data, "the slot now holds the message");
            }
            // The slot keeps one buffer and trades it for the arriving
            // one each time: two buffers circulate in all.
            assert_eq!(ctx.transport_allocs(), 2);
            assert_eq!(ctx.pool_len(), 1);
        });
    }

    #[test]
    fn full_pool_sheds_its_fullest_class_for_a_new_size() {
        let pool = BufferPool::new();
        for _ in 0..POOL_CAP {
            pool.put(Vec::with_capacity(64));
        }
        pool.put(Vec::with_capacity(1024));
        assert_eq!(pool.len(), POOL_CAP);
        assert!(!pool.take(1024).1, "the new size must be served from the pool");
        pool.put(Vec::new());
        assert_eq!(pool.len(), POOL_CAP - 1, "a buffer without capacity is not pooled");
    }

    #[test]
    fn loopback_within_matches_mailbox_timers_and_data() {
        let topo = CartTopo::new(&[1], true);
        let net = NetworkModel::theta_aries();
        run_cluster(&topo, net, |ctx| {
            // Mailbox self-send: data[0..4] -> data[8..12].
            let mut a: Vec<f64> = (0..12).map(|i| i as f64).collect();
            let h = ctx.irecv(0, 5).unwrap();
            let payload = a[0..4].to_vec();
            ctx.isend(0, 5, &payload).unwrap();
            ctx.waitall_into(&[h], &mut [&mut a[8..12]]).unwrap();
            let t_mailbox = ctx.timers();
            let a_snapshot = a.clone();
            ctx.reset_timers();

            // Loopback fast path, same shape.
            let mut b: Vec<f64> = (0..12).map(|i| i as f64).collect();
            ctx.loopback_within(5, &mut b, 0..4, 8).unwrap();
            ctx.waitall_ranges(&[], &mut b, &[]).unwrap();
            let t_loop = ctx.timers();

            assert_eq!(a_snapshot, b);
            assert_eq!(t_mailbox.call, t_loop.call);
            assert_eq!(t_mailbox.wait, t_loop.wait);
            assert_eq!(t_mailbox.msgs, t_loop.msgs);
            assert_eq!(t_mailbox.wire_bytes, t_loop.wire_bytes);
        });
    }

    #[test]
    fn loopback_into_copies_and_charges() {
        let topo = CartTopo::new(&[1], true);
        let net = NetworkModel::theta_aries();
        run_cluster(&topo, net, |ctx| {
            let src = vec![3.5; 128];
            let mut dst = vec![0.0; 128];
            ctx.loopback_into(7, &src, &mut dst).unwrap();
            ctx.waitall_ranges(&[], &mut dst, &[]).unwrap();
            assert_eq!(dst, src);
            let t = ctx.timers();
            assert_eq!(t.msgs, 1);
            assert_eq!(t.wire_bytes, 1024);
            assert!((t.call - 2.0 * net.overhead).abs() < 1e-15);
            assert!((t.wait - net.wait_time(1, 1024)).abs() < 1e-15);
        });
    }

    #[test]
    fn waitall_ranges_scatters_into_storage() {
        let topo = CartTopo::new(&[2], true);
        let out = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let peer = 1 - ctx.rank();
            let me = ctx.rank() as f64;
            let h1 = ctx.irecv(peer, 1).unwrap();
            let h2 = ctx.irecv(peer, 2).unwrap();
            ctx.isend(peer, 1, &[me + 10.0; 4]).unwrap();
            ctx.isend(peer, 2, &[me + 20.0; 4]).unwrap();
            let mut storage = vec![0.0; 16];
            ctx.waitall_ranges(&[h1, h2], &mut storage, &[2..6, 10..14]).unwrap();
            storage
        });
        // Rank 0 received rank 1's payloads.
        assert_eq!(out[0][2..6], [11.0; 4]);
        assert_eq!(out[0][10..14], [21.0; 4]);
        assert_eq!(out[0][0..2], [0.0; 2]);
        assert_eq!(out[1][2..6], [10.0; 4]);
    }

    #[test]
    fn dropped_message_times_out_with_empty_mailbox() {
        let topo = CartTopo::new(&[1], true);
        let cfg = FaultConfig { seed: 1, drop: 1.0, ..FaultConfig::off() };
        let out = run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            ctx.set_recv_timeout(Some(Duration::from_millis(10)));
            let h = ctx.irecv(0, 4).unwrap();
            ctx.isend(0, 4, &[1.0, 2.0]).unwrap();
            let mut buf = [0.0; 2];
            let err = ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap_err();
            let stats = ctx.fault_stats();
            (err, stats, ctx.take_fault_events())
        });
        let (err, stats, events) = &out[0];
        assert!(matches!(err, NetsimError::Timeout { pending, .. } if pending == &[(0, 4)]));
        assert_eq!(stats.drops, 1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, FaultKind::Drop);
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let topo = CartTopo::new(&[1], true);
        let cfg = FaultConfig { seed: 3, dup: 1.0, ..FaultConfig::off() };
        run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            ctx.isend(0, 6, &[9.0; 4]).unwrap();
            let h1 = ctx.irecv(0, 6).unwrap();
            let h2 = ctx.irecv(0, 6).unwrap();
            let (mut a, mut b) = ([0.0; 4], [0.0; 4]);
            ctx.waitall_into(&[h1, h2], &mut [&mut a[..], &mut b[..]]).unwrap();
            assert_eq!(a, [9.0; 4]);
            assert_eq!(b, [9.0; 4]);
            assert_eq!(ctx.fault_stats().dups, 1);
        });
    }

    #[test]
    fn corrupted_message_flips_exactly_one_word() {
        let topo = CartTopo::new(&[1], true);
        let cfg = FaultConfig { seed: 7, corrupt: 1.0, ..FaultConfig::off() };
        run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
            let h = ctx.irecv(0, 2).unwrap();
            ctx.isend(0, 2, &data).unwrap();
            let mut buf = [0.0; 16];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            let differing =
                data.iter().zip(buf.iter()).filter(|(a, b)| a.to_bits() != b.to_bits()).count();
            assert_eq!(differing, 1, "exactly one word must be corrupted");
        });
    }

    #[test]
    fn fault_bypass_and_drain_recover_the_channel() {
        let topo = CartTopo::new(&[1], true);
        let cfg = FaultConfig { seed: 2, drop: 1.0, ..FaultConfig::off() };
        run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
            // Injected drop loses the message...
            ctx.isend(0, 8, &[1.0]).unwrap();
            // ...the degraded path bypasses injection and gets through.
            let was = ctx.set_fault_bypass(true);
            assert!(!was);
            ctx.isend(0, 8, &[2.0]).unwrap();
            ctx.set_fault_bypass(false);
            let h = ctx.irecv(0, 8).unwrap();
            let mut buf = [0.0; 1];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            assert_eq!(buf, [2.0]);
            assert_eq!(ctx.drain_mailbox(0, 8), 0, "nothing stale left");
        });
    }

    #[test]
    fn drain_mailbox_evicts_stale_messages() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            for _ in 0..5 {
                ctx.isend(0, 3, &[1.0; 8]).unwrap();
            }
            assert_eq!(ctx.drain_mailbox(0, 3), 5);
            assert_eq!(ctx.drain_mailbox(0, 3), 0);
            // Pooled buffers went back: next sends reuse them.
            let before = ctx.transport_allocs();
            ctx.isend(0, 3, &[1.0; 8]).unwrap();
            assert_eq!(ctx.transport_allocs(), before);
            ctx.drain_mailbox(0, 3);
        });
    }

    #[test]
    fn recv_deadline_returns_frames_and_misses() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.isend(0, 5, &[4.0, 5.0]).unwrap();
            let h = ctx.irecv(0, 5).unwrap();
            let deadline = Instant::now() + Duration::from_millis(50);
            let msg = ctx.recv_deadline(h, deadline).expect("queued message");
            assert_eq!(msg.data(), &[4.0, 5.0]);
            ctx.recycle(msg);
            let h2 = ctx.irecv(0, 5).unwrap();
            let deadline = Instant::now() + Duration::from_millis(5);
            assert!(ctx.recv_deadline(h2, deadline).is_none(), "no message queued");
            ctx.flush_epoch();
        });
    }

    #[test]
    fn profiling_timeline_agrees_with_timers() {
        let topo = CartTopo::new(&[2], true);
        let net = NetworkModel::theta_aries();
        let out = run_cluster(&topo, net, |ctx| {
            ctx.enable_profiling();
            let peer = 1 - ctx.rank();
            ctx.scoped("exchange", |ctx| {
                let h = ctx.irecv(peer, 0).unwrap();
                let data = vec![1.0; 512];
                ctx.isend(peer, 0, &data).unwrap();
                let mut buf = vec![0.0; 512];
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            });
            ctx.scoped("kernel", |ctx| {
                ctx.time_calc(|| std::hint::black_box((0..2000).sum::<u64>()));
            });
            (ctx.take_timeline(), ctx.timers())
        });
        for (tl, t) in &out {
            tl.validate().unwrap();
            let b = tl.phase_breakdown();
            assert!((b.wire - t.call).abs() < 1e-12);
            assert!((b.wait - t.wait).abs() < 1e-12);
            assert!((b.compute - t.calc).abs() < 1e-12);
            assert!((b.total() - t.total()).abs() < 1e-12);
            assert_eq!(tl.counters, vec![("msgs_sent", 1)]);
            // Both top-level scopes made it into the forest.
            let roots: Vec<_> =
                tl.spans.iter().filter(|s| s.depth == 0).map(|s| s.name).collect();
            assert_eq!(roots, vec!["exchange", "kernel"]);
        }
    }

    #[test]
    fn disabled_profiling_records_nothing() {
        let topo = CartTopo::new(&[1], true);
        let out = run_cluster(&topo, NetworkModel::theta_aries(), |ctx| {
            ctx.scoped("exchange", |ctx| {
                ctx.isend(0, 0, &[1.0; 16]).unwrap();
                let h = ctx.irecv(0, 0).unwrap();
                let mut buf = [0.0; 16];
                ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            });
            ctx.take_timeline()
        });
        assert!(out[0].spans.is_empty());
        assert!(out[0].counters.is_empty());
    }

    #[test]
    fn time_calc_with_tops_up_uninstrumented_remainder() {
        let topo = CartTopo::new(&[1], true);
        run_cluster(&topo, NetworkModel::instant(), |ctx| {
            ctx.enable_profiling();
            ctx.time_calc_with(|rec| {
                rec.open("stage");
                rec.charge(telemetry::Phase::Compute, 0.0);
                rec.close();
                std::hint::black_box((0..5000).sum::<u64>());
            });
            let t = ctx.timers();
            let tl = ctx.take_timeline();
            tl.validate().unwrap();
            let b = tl.phase_breakdown();
            assert!(t.calc > 0.0);
            assert!((b.compute - t.calc).abs() < 1e-12, "remainder top-up keeps agreement");
        });
    }

    #[test]
    fn jitter_slows_the_rank_wire_model() {
        let topo = CartTopo::new(&[2], true);
        let net = NetworkModel::theta_aries();
        let cfg = FaultConfig { seed: 21, jitter: 0.5, ..FaultConfig::off() };
        let out =
            run_cluster_faulty(&topo, net, cfg, |ctx| ctx.network_to(1 - ctx.rank()).latency);
        for (rank, &lat) in out.iter().enumerate() {
            let expect = net.slowed(FaultPlan::new(cfg, rank).slowdown()).latency;
            assert_eq!(lat, expect);
            assert!(lat >= net.latency);
        }
    }

    /// One shifted-ring exchange; every rank returns its exact timers.
    fn ring_once(topo: &CartTopo, net: impl Into<HierarchicalNetworkModel>) -> Vec<Timers> {
        run_cluster(topo, net, |ctx| {
            let peer = (ctx.rank() + 1) % ctx.size();
            let from = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let h = ctx.irecv(from, 7).unwrap();
            ctx.isend(peer, 7, &[1.0; 64]).unwrap();
            let mut buf = [0.0; 64];
            ctx.waitall_into(&[h], &mut [&mut buf[..]]).unwrap();
            ctx.timers()
        })
    }

    #[test]
    fn flat_hierarchy_is_bit_identical_to_flat_model() {
        let topo = CartTopo::new(&[4], true);
        let net = NetworkModel::theta_aries();
        let flat = ring_once(&topo, net);
        let hier = ring_once(&topo, HierarchicalNetworkModel::flat(net));
        // Even one rank per node with distinct tiers stays on the
        // fabric for every pair — same arithmetic, same bits.
        let degenerate = ring_once(&topo, HierarchicalNetworkModel::dragonfly(1));
        for rank in 0..topo.size() {
            assert_eq!(flat[rank].call.to_bits(), hier[rank].call.to_bits());
            assert_eq!(flat[rank].wait.to_bits(), hier[rank].wait.to_bits());
            assert_eq!(flat[rank].call.to_bits(), degenerate[rank].call.to_bits());
            assert_eq!(flat[rank].wait.to_bits(), degenerate[rank].wait.to_bits());
        }
    }

    #[test]
    fn hier_charges_each_message_by_node_locality() {
        // Ring of 4, two ranks per node: nodes {0,1} and {2,3}. In the
        // shifted ring every rank sends exactly one message — rank 0
        // stays on-node (to 1), rank 1 crosses the fabric (to 2), etc.
        let topo = CartTopo::new(&[4], true);
        let h = HierarchicalNetworkModel::dragonfly(2);
        let bytes = 64 * std::mem::size_of::<f64>();
        let out = ring_once(&topo, h);
        for (rank, timers) in out.iter().enumerate() {
            let send_on = h.node.same_node(rank, (rank + 1) % 4);
            let recv_on = h.node.same_node(rank, (rank + 3) % 4);
            let send_o = if send_on { h.intra.overhead } else { h.inter.overhead };
            let recv_o = if recv_on { h.intra.overhead } else { h.inter.overhead };
            assert_eq!(timers.call, send_o + recv_o, "rank {rank} call");
            let wait = if send_on {
                h.intra.wait_time(1, bytes)
            } else {
                h.inter.wait_time(1, bytes)
            };
            assert_eq!(timers.wait, wait, "rank {rank} wait");
        }
        // On-node messages are strictly cheaper than off-node ones.
        assert!(out[0].wait < out[1].wait);
    }

    #[test]
    fn hier_loopback_is_an_on_node_transfer() {
        let topo = CartTopo::new(&[1], true);
        let h = HierarchicalNetworkModel::fat_tree(4);
        let out = run_cluster(&topo, h, |ctx| {
            let src = [3.0; 32];
            let mut dst = [0.0; 32];
            ctx.loopback_into(9, &src, &mut dst).unwrap();
            ctx.flush_epoch();
            assert_eq!(dst, src);
            ctx.timers()
        });
        let bytes = 32 * std::mem::size_of::<f64>();
        assert_eq!(out[0].call, 2.0 * h.intra.overhead);
        assert_eq!(out[0].wait, h.intra.wait_time(1, bytes));
    }
}
