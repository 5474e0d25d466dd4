//! Stand-in for the `parking_lot` items `netsim::cluster` uses, over
//! `std::sync`. A poisoned lock is entered anyway, as parking_lot has no
//! poisoning.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;
use std::time::Instant;

#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// Holds the std guard in an `Option` so `Condvar::wait` can hand it to
/// std by value and put the re-acquired guard back.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard is only empty inside Condvar::wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard is only empty inside Condvar::wait")
    }
}

#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard
            .0
            .take()
            .expect("guard is only empty inside Condvar::wait");
        guard.0 = Some(self.0.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let g = guard
            .0
            .take()
            .expect("guard is only empty inside Condvar::wait");
        let left = deadline.saturating_duration_since(Instant::now());
        let (g, r) = self
            .0
            .wait_timeout(g, left)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(g);
        WaitTimeoutResult(r.timed_out())
    }
}
