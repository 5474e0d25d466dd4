//! One rank's incoming-message store, the pooled buffers eager messages
//! travel in, and the one rule by which a rank blocks on its mailbox.
//!
//! # Who blocks where
//!
//! Only a mailbox's *owner* ever sleeps on it, and only inside
//! [`Mailbox::wait`]: the loop under every blocking receive
//! (`recv_blocking`, `waitall_*`, [`crate::Lend::complete`]), on either
//! backend. The owner sleeps by parking in the scheduler
//! ([`Sched::park`]); when to sleep and who wakes whom is decided here,
//! by one flag inside the mailbox mutex:
//!
//! > The owner raises [`MailboxInner::waiting`] in the critical section of
//! > the probe that missed, and parks. Whoever makes the probe succeed
//! > ([`Mailbox::push`], [`Mailbox::deliver`]) takes the flag under that
//! > same lock and wakes the owner once ([`Sched::make_runnable`]).
//!
//! * **No lost wake.** Raise-then-park and take-then-wake are ordered by
//!   the mailbox mutex: a sender's critical section either precedes the
//!   owner's probe, which then finds the message, or follows the raise,
//!   and then takes the flag and wakes.
//!   A wake that lands between the owner's unlock and its park is kept:
//!   the scheduler finds the task still `Running` and latches
//!   `wake_pending`, which the park consumes.
//! * **No stray wake.** Nothing but this loop raises the flag — the barrier
//!   never does — and every way out of the loop lowers it, so a push
//!   cannot wake a rank parked on anything but its mailbox.
//! * **Lock order.** Mailbox, then (released) task meta, then scheduler
//!   core: nothing wakes while holding a mailbox lock, and nothing takes
//!   a mailbox lock while holding a scheduler one.

use std::collections::{HashMap, VecDeque};

use parking_lot::{Mutex, MutexGuard};

use crate::error::MAX_DIAG_KEYS;
use crate::event::{Sched, Wake};
use crate::window::Windows;

pub(crate) type Key = (usize, u64); // (source rank, tag)

/// Max buffers retained per rank pool; beyond this, returned buffers
/// are dropped (bounds memory for bursty all-to-all patterns — and for
/// duplicate storms under fault injection).
pub const POOL_CAP: usize = 256;

/// An in-flight message: its payload plus the rank whose pool the
/// buffer should return to after delivery (None = not pooled).
#[derive(Default)]
pub(crate) struct Msg {
    pub(crate) owner: Option<usize>,
    pub(crate) data: Vec<f64>,
}

impl Msg {
    /// Return the buffer to its owner's pool (of `pools`, indexed by rank).
    pub(crate) fn recycle(self, pools: &[BufferPool]) {
        if let Some(owner) = self.owner {
            pools[owner].put(self.data);
        }
    }
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
#[derive(Default)]
pub(crate) struct BufferPool {
    /// One entry per class ever returned here; a rank's traffic uses a
    /// handful of sizes, so this stays short and is searched linearly.
    bins: Mutex<Vec<Bin>>,
}

impl BufferPool {
    /// An empty buffer with room for `len` words; the flag says whether
    /// it had to be allocated (class-sized, so `put` files it where the
    /// next `take(len)` looks).
    pub(crate) fn take(&self, len: usize) -> (Vec<f64>, bool) {
        let class = class_ceil(len);
        let mut bins = self.bins.lock();
        match bins.iter_mut().find(|b| b.class == class).and_then(|b| b.free.pop()) {
            Some(buf) => (buf, false),
            None => (Vec::with_capacity(class_words(class)), true),
        }
    }

    pub(crate) fn put(&self, mut buf: Vec<f64>) {
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

    /// Buffers parked in the pool.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.bins.lock().iter().map(|b| b.free.len()).sum()
    }

    /// Bytes of capacity parked in the pool.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.bins.lock().iter().flat_map(|b| &b.free).map(|v| v.capacity() * 8).sum()
    }
}

#[derive(Default)]
pub(crate) struct MailboxInner {
    pub(crate) queues: HashMap<Key, VecDeque<Msg>>,
    /// "The owner found nothing and is about to sleep here" (only the
    /// owner waits, so one flag covers every waiter). Raised and lowered
    /// by [`Mailbox::wait`] alone; taken by the push or delivery that must
    /// wake the owner — see the module docs. Waking costs scheduler locks,
    /// so nobody wakes a rank that is not asleep.
    pub(crate) waiting: bool,
    /// Destinations the owner has lent to its senders (see
    /// [`crate::window`]); empty whenever no lend is open.
    pub(crate) windows: Windows,
}

impl MailboxInner {
    /// The oldest queued message of `key`, if any.
    pub(crate) fn pop(&mut self, key: Key) -> Option<Msg> {
        self.queues.get_mut(&key)?.pop_front()
    }
}

/// The locked mailbox of a rank that must be woken: what
/// [`Mailbox::push`] and [`Mailbox::deliver`] hand to the sender, which
/// releases it and then wakes the owner.
pub(crate) type Asleep<'m> = MutexGuard<'m, MailboxInner>;

/// One rank's incoming-message store.
#[derive(Default)]
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
}

impl Mailbox {
    pub(crate) fn lock(&self) -> MutexGuard<'_, MailboxInner> {
        self.inner.lock()
    }

    /// Queue `msg`. `Some` = the owner was asleep and its flag is taken:
    /// the caller wakes it, exactly once, once it has released the lock.
    #[must_use = "a taken `waiting` flag is a wake the sender owes the owner"]
    pub(crate) fn push(&self, key: Key, msg: Msg) -> Option<Asleep<'_>> {
        let mut g = self.inner.lock();
        g.queues.entry(key).or_default().push_back(msg);
        std::mem::take(&mut g.waiting).then_some(g)
    }

    /// The direct path: copy `data` into the window the owner lent for
    /// `key`. `Err` = nothing was written and the message must go eager:
    /// no open window of that length, or something of the channel is
    /// queued (a direct write would overtake it). `Ok` is
    /// [`Mailbox::push`]'s answer: the owner to wake, if it was asleep.
    pub(crate) fn deliver(&self, key: Key, data: &[f64]) -> Result<Option<Asleep<'_>>, ()> {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        let direct = inner.queues.get(&key).is_none_or(VecDeque::is_empty)
            && inner.windows.deliver(key, data);
        if !direct {
            return Err(());
        }
        Ok(std::mem::take(&mut g.waiting).then_some(g))
    }

    /// Run `probe` on the locked mailbox until it yields, parking in
    /// `sched` between attempts: the one blocking loop of the crate, for
    /// `owner`, the rank this mailbox belongs to. `None` return = the
    /// park expired (the scheduler found the cluster deadlocked or
    /// aborting), or `stopped` reports the wait is pointless — the
    /// communicator is revoked (a peer rank crash-stopped) — all meaning
    /// "stop waiting, the message is not coming".
    ///
    /// The mailbox lock is taken once per park: the probe that misses,
    /// the stop check and the raise share one critical section, released
    /// just before the park, and the lock taken after it is the next
    /// turn's.
    pub(crate) fn wait<T>(
        &self,
        sched: &Sched,
        owner: usize,
        stopped: impl Fn() -> bool,
        mut probe: impl FnMut(&mut MailboxInner) -> Option<T>,
    ) -> Option<T> {
        let mut g = self.inner.lock();
        loop {
            g.waiting = false;
            if let Some(v) = probe(&mut g) {
                return Some(v);
            }
            if stopped() {
                return None;
            }
            g.waiting = true;
            drop(g);
            let expired = sched.park(owner as u32) == Wake::Expired;
            g = self.inner.lock();
            if expired {
                g.waiting = false;
                // Final re-check: a push may have raced expiry.
                return probe(&mut g);
            }
        }
    }

    /// Pop without blocking.
    pub(crate) fn try_pop(&self, key: Key) -> Option<Msg> {
        self.inner.lock().pop(key)
    }

    /// Remove every queued message for `key` (stale duplicates /
    /// late retries); also drops the now-empty queue entry so the key
    /// map cannot grow without bound across retried exchanges.
    pub(crate) fn drain(&self, key: Key) -> Vec<Msg> {
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
    pub(crate) fn drain_except(&self, keep: &dyn Fn(usize, u64) -> bool) -> Vec<Msg> {
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
    /// when the mailbox is empty.
    pub(crate) fn unmatched_keys(&self) -> Vec<(usize, u64, usize)> {
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

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The send that finds the owner asleep takes its flag, under the
    /// lock it hands back: one wake per sleep, and none when nobody sleeps.
    #[test]
    fn a_push_to_a_sleeping_owner_takes_its_flag() {
        let mb = Mailbox::default();
        let msg = || Msg { owner: None, data: vec![1.0] };
        assert!(mb.push((0, 1), msg()).is_none(), "nobody asleep, nobody to wake");
        mb.lock().waiting = true;
        let asleep = mb.push((0, 1), msg());
        assert!(asleep.as_ref().is_some_and(|g| !g.waiting), "the push took the flag");
        drop(asleep);
        assert!(mb.push((0, 1), msg()).is_none(), "one wake per sleep");
    }

    #[test]
    fn full_pool_sheds_its_fullest_class_for_a_new_size() {
        let pool = BufferPool::default();
        for _ in 0..POOL_CAP {
            pool.put(Vec::with_capacity(64));
        }
        pool.put(Vec::with_capacity(1024));
        assert_eq!(pool.len(), POOL_CAP);
        assert!(!pool.take(1024).1, "the new size must be served from the pool");
        pool.put(Vec::new());
        assert_eq!(pool.len(), POOL_CAP - 1, "a buffer without capacity is not pooled");
    }
}
