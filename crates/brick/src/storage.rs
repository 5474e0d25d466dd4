//! Physical brick storage: one contiguous run of `f64`s holding all
//! bricks, optionally multi-field interleaved (array-of-structure-of-array
//! as in the paper's Section 6), and optionally backed by a memory-mapped
//! file supplied by an external backing.
//!
//! Heap grids ([`HeapBacking`], behind [`BrickStorage::allocate`] and the
//! array baselines' grids) come from one process-wide spare list (a
//! [`Spares`], the policy `memview`'s mapped grids share), so
//! where a grid lands does not depend on which thread's malloc arena
//! allocated it last:
//! - a dropped grid's buffer goes back to the list, whichever thread
//!   drops it and without allocating, and the next grid of that length
//!   takes it, zero-filled;
//! - the list holds buffers of one length only: asking for another
//!   length frees every spare first, so after a run it holds at most
//!   that run's grids;
//! - every grid starts on a 64-byte cache line, so a brick row of eight
//!   `f64`s is one line, not two halves.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Abstract backing memory for a [`BrickStorage`]. The default heap
/// backing is [`HeapBacking`]; the `memview` crate provides an
/// mmap-over-`memfd` backing enabling the paper's MemMap views.
pub trait StorageBacking: Send + Sync {
    /// The whole backing as elements.
    fn as_slice(&self) -> &[f64];
    /// The whole backing as mutable elements.
    fn as_mut_slice(&mut self) -> &mut [f64];
}

/// Bytes per cache line, where every heap grid starts.
const LINE: usize = 64;
/// Elements a buffer carries beyond its grid so that some element of
/// the first line-sized window starts a line (an allocation is at least
/// `f64`-aligned).
const SLACK: usize = LINE / 8 - 1;

/// A process-wide list of freed grids of one length, the one pool
/// policy behind every grid: [`HeapBacking`]'s buffers here, and
/// `memview`'s mapped grids in a second `static` of this type.
/// - [`Spares::take`] hands out a spare of the asked length, or counts
///   one more grid made and reserves room for its return, so that
///   [`Spares::give`] never allocates (steady-state steps are held to
///   zero allocations, and a rank may drop its grids while another
///   steps);
/// - asking for another length frees every spare first, so after a run
///   the list holds at most that run's grids;
/// - it locks one mutex and works on any thread.
///
/// Zero-filling a spare is the caller's.
pub struct Spares<T>(Mutex<List<T>>);

struct List<T> {
    len: usize,
    made: usize,
    bufs: Vec<T>,
}

impl<T> Spares<T> {
    /// An empty list.
    pub const fn new() -> Self {
        Spares(Mutex::new(List { len: 0, made: 0, bufs: Vec::new() }))
    }

    fn lock(&self) -> MutexGuard<'_, List<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A spare grid of length `len`, or `None` when the caller must make
    /// one, which is then counted as made.
    pub fn take(&self, len: usize) -> Option<T> {
        let (spare, freed) = {
            let mut s = self.lock();
            let freed = if s.len == len {
                Vec::new()
            } else {
                (s.len, s.made) = (len, 0);
                std::mem::take(&mut s.bufs)
            };
            let spare = s.bufs.pop();
            if spare.is_none() {
                s.made += 1;
                let room = s.made - s.bufs.len();
                s.bufs.reserve(room);
            }
            (spare, freed)
        };
        drop(freed);
        spare
    }

    /// Hand a dropped grid of length `len` back. A grid from before the
    /// last length switch may find no room and is dropped instead.
    pub fn give(&self, len: usize, grid: T) {
        let left = {
            let mut s = self.lock();
            if s.len == len && s.bufs.len() < s.bufs.capacity() {
                s.bufs.push(grid);
                None
            } else {
                Some(grid)
            }
        };
        drop(left);
    }
}

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Spares::new()
    }
}

/// Spare heap grid buffers, `len + SLACK` elements each.
static SPARES: Spares<Vec<f64>> = Spares::new();

/// Zero-initialized heap grid of a fixed length, starting on a 64-byte
/// line. Its buffer is a spare from the process-wide list when one of
/// this length is free (see the module docs) and goes back to the list
/// when it drops. Dereferences to the grid's elements.
#[derive(Debug)]
pub struct HeapBacking {
    buf: Vec<f64>,
    off: usize,
    len: usize,
}

impl HeapBacking {
    /// Zero-initialized heap backing of `len` elements.
    pub fn new(len: usize) -> Self {
        let buf = match SPARES.take(len) {
            Some(mut buf) => {
                buf.fill(0.0);
                buf
            }
            None => vec![0.0; len + SLACK],
        };
        let off = (buf.as_ptr() as usize).wrapping_neg() % LINE / 8;
        HeapBacking { buf, off, len }
    }
}

impl Drop for HeapBacking {
    fn drop(&mut self) {
        SPARES.give(self.len, std::mem::take(&mut self.buf));
    }
}

impl Deref for HeapBacking {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl DerefMut for HeapBacking {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

impl Clone for HeapBacking {
    fn clone(&self) -> Self {
        let mut copy = HeapBacking::new(self.len);
        copy.copy_from_slice(self);
        copy
    }
}

impl StorageBacking for HeapBacking {
    fn as_slice(&self) -> &[f64] {
        self
    }
    fn as_mut_slice(&mut self) -> &mut [f64] {
        self
    }
}

/// All bricks of (possibly several interleaved fields of) one subdomain.
///
/// Brick `b` occupies elements `b*step .. (b+1)*step` where
/// `step = fields * elements_per_brick`; field `f` of brick `b` is the
/// sub-range `b*step + f*elems .. b*step + (f+1)*elems`. Interleaving
/// fields this way lets one exchange move every field at once.
pub struct BrickStorage {
    backing: Box<dyn StorageBacking>,
    nbricks: usize,
    fields: usize,
    elems: usize,
}

impl BrickStorage {
    /// Heap-allocated storage for `nbricks` bricks of `elems` elements
    /// each, with `fields` interleaved fields.
    pub fn allocate(nbricks: usize, elems: usize, fields: usize) -> Self {
        assert!(fields >= 1 && elems >= 1);
        let backing = Box::new(HeapBacking::new(nbricks * elems * fields));
        BrickStorage { backing, nbricks, fields, elems }
    }

    /// Storage over an externally provided backing (e.g. an mmap of a
    /// `memfd` file). The backing must hold exactly
    /// `nbricks * elems * fields` elements.
    pub fn from_backing(
        backing: Box<dyn StorageBacking>,
        nbricks: usize,
        elems: usize,
        fields: usize,
    ) -> Self {
        assert!(fields >= 1 && elems >= 1);
        assert_eq!(
            backing.as_slice().len(),
            nbricks * elems * fields,
            "backing size must match brick geometry"
        );
        BrickStorage { backing, nbricks, fields, elems }
    }

    /// Number of bricks (including any alignment filler bricks).
    #[inline]
    pub fn bricks(&self) -> usize {
        self.nbricks
    }

    /// Interleaved fields per brick.
    #[inline]
    pub fn fields(&self) -> usize {
        self.fields
    }

    /// Elements per field per brick.
    #[inline]
    pub fn elements_per_brick(&self) -> usize {
        self.elems
    }

    /// Elements per brick across all fields (the brick stride).
    #[inline]
    pub fn step(&self) -> usize {
        self.elems * self.fields
    }

    /// The whole storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.backing.as_slice()
    }

    /// The whole storage, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.backing.as_mut_slice()
    }

    /// One brick (all fields).
    #[inline]
    pub fn brick(&self, b: u32) -> &[f64] {
        let s = self.step();
        &self.backing.as_slice()[b as usize * s..(b as usize + 1) * s]
    }

    /// One field of one brick.
    #[inline]
    pub fn field(&self, b: u32, f: usize) -> &[f64] {
        debug_assert!(f < self.fields);
        let base = b as usize * self.step() + f * self.elems;
        &self.backing.as_slice()[base..base + self.elems]
    }

    /// One field of one brick, mutable.
    #[inline]
    pub fn field_mut(&mut self, b: u32, f: usize) -> &mut [f64] {
        debug_assert!(f < self.fields);
        let base = b as usize * self.step() + f * self.elems;
        &mut self.backing.as_mut_slice()[base..base + self.elems]
    }

    /// Fill all elements with a value (tests / initialization).
    pub fn fill(&mut self, v: f64) {
        self.backing.as_mut_slice().fill(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry() {
        let s = BrickStorage::allocate(10, 512, 2);
        assert_eq!(s.bricks(), 10);
        assert_eq!(s.step(), 1024);
        assert_eq!(s.as_slice().len(), 10240);
        assert_eq!(s.brick(3).len(), 1024);
        assert_eq!(s.field(3, 1).len(), 512);
    }

    #[test]
    fn field_interleaving_layout() {
        let mut s = BrickStorage::allocate(2, 4, 2);
        s.field_mut(1, 0).fill(1.0);
        s.field_mut(1, 1).fill(2.0);
        let all = s.as_slice();
        // Brick 0 untouched.
        assert!(all[..8].iter().all(|&x| x == 0.0));
        // Brick 1: field 0 then field 1.
        assert!(all[8..12].iter().all(|&x| x == 1.0));
        assert!(all[12..16].iter().all(|&x| x == 2.0));
    }

    #[test]
    fn external_backing() {
        let backing = Box::new(HeapBacking::new(64));
        let mut s = BrickStorage::from_backing(backing, 4, 8, 2);
        s.fill(7.0);
        assert!(s.as_slice().iter().all(|&x| x == 7.0));
    }

    #[test]
    #[should_panic(expected = "backing size")]
    fn wrong_backing_size_rejected() {
        let backing = Box::new(HeapBacking::new(63));
        BrickStorage::from_backing(backing, 4, 8, 2);
    }
}
