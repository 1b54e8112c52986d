//! Offline stand-in for `parking_lot` 0.12 — see `../README.md`.
//!
//! `Mutex` and `RwLock` with the published crate's no-`Result` guards, over
//! the standard library's locks. Poisoning is ignored, as `parking_lot`
//! has none: a guard is recovered from a poisoned lock as-is.

use std::sync::PoisonError;

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(v: T) -> Self {
        Mutex(std::sync::Mutex::new(v))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value, through exclusive access to the mutex itself.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read`/`write` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(v: T) -> Self {
        RwLock(std::sync::RwLock::new(v))
    }

    /// Consumes the lock, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    #[inline]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    #[inline]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value, through exclusive access to the lock itself.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_give_access() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }
}
