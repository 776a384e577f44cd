//! Offline stand-in for `parking_lot` (see ../README.md): `Mutex` is
//! `std::sync::Mutex` with `lock()` returning the guard directly.

use std::sync::PoisonError;

pub use std::sync::MutexGuard;

/// A mutex whose `lock` never reports poisoning (as parking_lot's does
/// not): a panic while holding the lock leaves the data as it was.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wrap a value.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Unwrap the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
