//! Receive windows: how a send lands in the receiver's own memory
//! instead of in a pooled buffer.
//!
//! # Protocol
//!
//! A rank that has posted receives and is about to wait for them *lends*
//! their destination runs to its peers ([`Lend`]). While the lend is open,
//! a sender that finds a window for its `(source, tag)` copies its payload
//! straight into the destination — one copy, no pooled buffer, nothing for
//! the receiver to copy out. Every other message takes the eager pooled
//! path of [`crate::cluster`]; which of the two a message takes is decided
//! from the state the sender finds, never from a setting.
//!
//! * **Who may touch a window, and when.** A rank's windows live in its
//!   mailbox, inside the mailbox mutex (`Windows` is a field of the
//!   locked state), so every read and write of the list — registering,
//!   delivering, claiming, clearing — happens with that one lock held.
//!   The owner registers and clears; a sender only ever writes the
//!   destination of an *open* window, under the lock, and closes it
//!   (`filled`) in the same acquisition. The owner reads a destination
//!   only after it has seen `filled` under the lock, which is also what
//!   orders the sender's writes before the owner's reads.
//! * **Why the write is exclusive.** A [`Lend`] is built from one
//!   exclusive borrow of the destination memory and keeps that borrow for
//!   as long as it lives: no safe code can name the lent memory while a
//!   window into it is registered. The bytes outside the windows stay
//!   reachable, but only through the guard ([`Lend::outside`] and
//!   friends), which checks every request against the registered windows.
//!   Windows of one lend are disjoint (checked ranges of one slice, or
//!   distinct `&mut` slices), so two senders never write the same word.
//! * **Why `Drop` precedes any free.** The guard's `Drop` clears the
//!   windows under the lock. The borrow it holds cannot outlive the
//!   memory, and the guard cannot outlive its borrow, so on every way out
//!   of a lent wait — success, `Timeout`, `SizeMismatch`, `RankFailed`,
//!   a rank panic, the crash-stop unwind of a killed rank — the windows
//!   are gone before the storage can be freed or reused. A sender that is
//!   mid-copy holds the lock, so the clear waits for it.
//! * **Why "queue empty" preserves non-overtaking order.** Messages of
//!   one `(source, tag)` channel must complete in the order they were
//!   sent. A channel's window is written directly only while nothing is
//!   queued on that channel: everything sent before has then already been
//!   consumed, so the direct write is the oldest outstanding message, as
//!   the receive expects. Anything sent while a message is queued queues
//!   behind it. A receive that completes from the queue closes its window
//!   in the same lock acquisition as the pop — otherwise the sender's
//!   *next* message on that channel would find an open window and an
//!   empty queue and overwrite ghosts the owner is still going to read.
//!   Receives sharing a key fill in posted order: a sender writes the
//!   first open window of its key.
//!
//! A channel's first message is no exception: a channel nothing was ever
//! queued on has nothing to overtake, so a pre-posted receive takes it in
//! place, and only traffic that actually goes eager takes a pooled buffer
//! (the census is in [`crate::cluster`]).

#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

use std::marker::PhantomData;
use std::ops::Range;
use std::ptr::NonNull;

use crate::cluster::{RankCtx, RecvHandle};
use crate::mailbox::{Key, Mailbox};
use crate::error::NetsimError;

/// One lent destination run.
struct Window {
    key: Key,
    dst: NonNull<f64>,
    len: usize,
    /// The message for this receive has landed or been claimed from the
    /// queue; nobody writes `dst` any more.
    filled: bool,
}

// SAFETY: `dst` points into memory the registering `Lend` borrows
// exclusively until it has removed this window again, and it is only
// dereferenced with the owning mailbox's mutex held — so sending the
// window (inside the mutex-protected state) to whichever thread takes the
// lock next shares nothing unsynchronised. The other fields are plain data.
unsafe impl Send for Window {}

/// The windows of one rank's open lend, in posted-receive order. Lives
/// inside the mailbox mutex; every method runs with it held.
#[derive(Default)]
pub(crate) struct Windows(Vec<Window>);

impl Windows {
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sender side: copy `data` into the first open window of `key`.
    /// `false` (nothing written) when there is none or its length differs
    /// — the message then queues and the receive reports the mismatch.
    pub(crate) fn deliver(&mut self, key: Key, data: &[f64]) -> bool {
        let Some(w) = self.0.iter_mut().find(|w| w.key == key && !w.filled) else {
            return false;
        };
        if w.len != data.len() {
            return false;
        }
        // SAFETY: the window is registered, so its `Lend` is alive and
        // holds the exclusive borrow of `dst..dst + len`; it is open, so
        // no other sender has written it and the owner does not read it
        // before it sees `filled`; the mailbox lock is held (`&mut self`
        // is only reachable through it). `data` is a shared borrow of the
        // sender's memory and cannot overlap an exclusively borrowed run.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), w.dst.as_ptr(), w.len) };
        w.filled = true;
        true
    }

    /// Owner side: the length of window `i` (the receive of `key`) if its
    /// message has landed.
    pub(crate) fn filled(&self, i: usize, key: Key) -> Option<usize> {
        let w = &self.0[i];
        assert_eq!(
            w.key, key,
            "receive {i} completes the window it was posted for"
        );
        w.filled.then_some(w.len)
    }

    /// Owner side: close window `i` with a message claimed from the
    /// queue, copying it in if the length matches; returns the window's
    /// length. Closing in the pop's lock acquisition is what keeps the
    /// channel's next message out of this window.
    pub(crate) fn fill(&mut self, i: usize, data: &[f64]) -> usize {
        let w = &mut self.0[i];
        w.filled = true;
        if w.len == data.len() {
            // SAFETY: as in `deliver` — registered, so the borrow is
            // alive; it was open until this call, so no sender wrote it
            // and none will; the lock is held. `data` is a pooled message
            // buffer, distinct from any rank's lent memory.
            unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), w.dst.as_ptr(), w.len) };
        }
        w.len
    }

    /// Keys of the receives still waiting for their message.
    pub(crate) fn open_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.0.iter().filter(|w| !w.filled).map(|w| w.key)
    }

    /// Whether `len` words at `at` touch any registered window.
    fn overlaps(&self, at: *const f64, len: usize) -> bool {
        let (lo, hi) = (at as usize, at as usize + len * std::mem::size_of::<f64>());
        self.0.iter().any(|w| {
            let w_lo = w.dst.as_ptr() as usize;
            lo < w_lo + w.len * std::mem::size_of::<f64>() && w_lo < hi
        })
    }
}

/// Destination memory lent to the transport as receive windows: from
/// construction until drop, peers may write the lent runs, so the guard
/// holds the exclusive borrow of all of it and is the only way to reach
/// the rest. Built by [`RankCtx::lend`] (pre-posted, ahead of the sends)
/// and inside every `waitall_*`.
pub struct Lend<'a> {
    mailbox: &'a Mailbox,
    /// Raw parts of the slice the windows are ranges of (`len == 0` when
    /// separate buffers were lent: nothing is outside them).
    base: NonNull<f64>,
    len: usize,
    /// Windows registered (and removed again on drop).
    windows: usize,
    _borrow: PhantomData<&'a mut [f64]>,
}

impl<'a> Lend<'a> {
    /// Lend `ranges` of `storage` as the destinations of the receives
    /// `from`, in order. Panics unless the ranges are in bounds,
    /// ascending and disjoint.
    pub(crate) fn ranges(
        mailbox: &'a Mailbox,
        from: impl ExactSizeIterator<Item = Key>,
        storage: &'a mut [f64],
        ranges: &[Range<usize>],
    ) -> Lend<'a> {
        let mut end = 0;
        for r in ranges {
            assert!(
                end <= r.start && r.start <= r.end && r.end <= storage.len(),
                "lent ranges must be in bounds, ascending and disjoint: {r:?} after ..{end} of {}",
                storage.len()
            );
            end = r.end;
        }
        let len = storage.len();
        let base = NonNull::from(storage).cast::<f64>();
        let dests = ranges.iter().map(|r| {
            // SAFETY: `r.start <= storage.len()` was asserted above, so
            // the offset stays inside (or one past) the slice.
            (unsafe { base.add(r.start) }, r.len())
        });
        Lend::open(mailbox, from, dests, base, len)
    }

    /// Lend each of `bufs` whole, as the destinations of the receives
    /// `from`, in order. Distinct `&mut` slices are disjoint as they are.
    pub(crate) fn bufs(
        mailbox: &'a Mailbox,
        from: impl ExactSizeIterator<Item = Key>,
        bufs: &'a mut [&mut [f64]],
    ) -> Lend<'a> {
        let dests = bufs
            .iter_mut()
            .map(|b| (NonNull::from(&mut **b).cast::<f64>(), b.len()));
        Lend::open(mailbox, from, dests, NonNull::dangling(), 0)
    }

    fn open(
        mailbox: &'a Mailbox,
        from: impl ExactSizeIterator<Item = Key>,
        dests: impl ExactSizeIterator<Item = (NonNull<f64>, usize)>,
        base: NonNull<f64>,
        len: usize,
    ) -> Lend<'a> {
        let windows = dests.len();
        assert_eq!(from.len(), windows, "one destination per receive");
        if windows > 0 {
            let mut inner = mailbox.lock();
            assert!(inner.windows.is_empty(), "a rank lends once at a time");
            // Cleared, never taken, on drop: the list keeps its capacity
            // and a lend allocates nothing after the first.
            let open = |(key, (dst, len))| Window {
                key,
                dst,
                len,
                filled: false,
            };
            inner.windows.0.extend(from.zip(dests).map(open));
        }
        Lend {
            mailbox,
            base,
            len,
            windows,
            _borrow: PhantomData,
        }
    }

    /// How many receives this lend covers.
    pub(crate) fn windows(&self) -> usize {
        self.windows
    }

    /// Whether this lend registered its windows in `mailbox`.
    pub(crate) fn lent_to(&self, mailbox: &Mailbox) -> bool {
        std::ptr::eq(self.mailbox, mailbox)
    }

    /// Panics unless `r` lies in the lent slice and clear of every window.
    fn check_outside(&self, r: &Range<usize>) {
        assert!(
            r.start <= r.end && r.end <= self.len,
            "{r:?} is outside the lent slice of {}",
            self.len
        );
        // SAFETY: `r.start <= self.len` was just asserted.
        let at = unsafe { self.base.add(r.start) };
        let clear =
            self.windows == 0 || !self.mailbox.lock().windows.overlaps(at.as_ptr(), r.len());
        assert!(clear, "{r:?} overlaps a lent receive window");
    }

    /// `r` of the lent slice, which must be clear of every window: what
    /// the owner still sends from while its ghosts are lent.
    pub fn outside(&self, r: Range<usize>) -> &[f64] {
        self.check_outside(&r);
        // SAFETY: `r` is in bounds of the slice this guard borrows
        // exclusively for `'a`, and overlaps no window, so no sender
        // writes it; `&self` keeps `outside_mut` from handing it out
        // mutably meanwhile.
        unsafe { std::slice::from_raw_parts(self.base.add(r.start).as_ptr(), r.len()) }
    }

    /// [`Lend::outside`], mutably: where a self-send lands.
    pub fn outside_mut(&mut self, r: Range<usize>) -> &mut [f64] {
        self.check_outside(&r);
        // SAFETY: as in `outside`; `&mut self` makes this the only live
        // reference the guard has handed out.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(r.start).as_ptr(), r.len()) }
    }

    /// `src` and `dst` of the lent slice at once, both clear of every
    /// window and of each other: a self-send within one slice.
    pub fn outside_pair(&mut self, src: Range<usize>, dst: Range<usize>) -> (&[f64], &mut [f64]) {
        self.check_outside(&src);
        self.check_outside(&dst);
        assert!(
            src.end <= dst.start || dst.end <= src.start,
            "{src:?} and {dst:?} overlap"
        );
        // SAFETY: as in `outside`, for two ranges just asserted disjoint;
        // `&mut self` covers both for as long as they live.
        unsafe {
            (
                std::slice::from_raw_parts(self.base.add(src.start).as_ptr(), src.len()),
                std::slice::from_raw_parts_mut(self.base.add(dst.start).as_ptr(), dst.len()),
            )
        }
    }

    /// Block until every lent receive has its message, then bill `wait`
    /// and close the epoch: [`RankCtx::waitall_ranges`] for receives
    /// posted after the lend. `handles` are the posted receives, in the
    /// order the windows were lent.
    pub fn complete(
        &mut self,
        ctx: &mut RankCtx<'_>,
        handles: &[RecvHandle],
    ) -> Result<(), NetsimError> {
        ctx.complete_lent(self, handles)
    }

    /// End the lend and hand the slice back.
    pub fn release(self) -> &'a mut [f64] {
        let (base, len) = (self.base, self.len);
        drop(self);
        // SAFETY: these are the raw parts of the `&'a mut [f64]` this
        // guard was built from (or a dangling pointer and zero); the drop
        // above removed every window, so no pointer into it is left.
        unsafe { std::slice::from_raw_parts_mut(base.as_ptr(), len) }
    }
}

impl Drop for Lend<'_> {
    fn drop(&mut self) {
        if self.windows > 0 {
            self.mailbox.lock().windows.0.clear();
        }
    }
}
