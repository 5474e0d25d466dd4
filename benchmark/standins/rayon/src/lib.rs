//! Stand-in for the `rayon` items the product crates use. Every
//! "parallel" iterator here is the plain sequential `std` iterator, so
//! the adapters the call sites chain (`enumerate`, `filter`, `zip`,
//! `map`, `for_each`, `collect`, ...) are `Iterator`'s own and the work
//! runs on the calling thread. Results are identical to rayon's (the
//! call sites write disjoint chunks); only host-side parallelism is
//! absent, which the benchmark README states next to every number.

pub mod prelude {
    pub use crate::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
        ParallelIteratorHints, ParallelSlice, ParallelSliceMut,
    };
}

/// `rayon::join`: run both closures and return both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}

/// `rayon::current_num_threads`: the stand-in runs on the caller only.
pub fn current_num_threads() -> usize {
    1
}

pub trait IntoParallelIterator: IntoIterator + Sized {
    fn into_par_iter(self) -> Self::IntoIter {
        self.into_iter()
    }
}
impl<I: IntoIterator> IntoParallelIterator for I {}

pub trait IntoParallelRefIterator<'a> {
    type Iter: Iterator;
    fn par_iter(&'a self) -> Self::Iter;
}
impl<'a, C: ?Sized + 'a> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoIterator,
{
    type Iter = <&'a C as IntoIterator>::IntoIter;
    fn par_iter(&'a self) -> Self::Iter {
        self.into_iter()
    }
}

pub trait IntoParallelRefMutIterator<'a> {
    type Iter: Iterator;
    fn par_iter_mut(&'a mut self) -> Self::Iter;
}
impl<'a, C: ?Sized + 'a> IntoParallelRefMutIterator<'a> for C
where
    &'a mut C: IntoIterator,
{
    type Iter = <&'a mut C as IntoIterator>::IntoIter;
    fn par_iter_mut(&'a mut self) -> Self::Iter {
        self.into_iter()
    }
}

pub trait ParallelSlice<T> {
    fn par_chunks(&self, size: usize) -> std::slice::Chunks<'_, T>;
}
impl<T> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> std::slice::Chunks<'_, T> {
        self.chunks(size)
    }
}

pub trait ParallelSliceMut<T> {
    fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T>;
}
impl<T> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
        self.chunks_mut(size)
    }
}

/// Splitting hints, which have nothing to split here.
pub trait ParallelIteratorHints: Iterator + Sized {
    fn with_min_len(self, _min: usize) -> Self {
        self
    }
    fn with_max_len(self, _max: usize) -> Self {
        self
    }
}
impl<I: Iterator> ParallelIteratorHints for I {}
