//! Offline stand-in for `crossbeam` 0.8 — see `../README.md`.
//!
//! Only `crossbeam::thread::scope`, which the Hogwild trainer uses, over
//! `std::thread::scope`.

/// Scoped threads.
pub mod thread {
    use std::any::Any;

    /// What a panicked thread left behind.
    pub type Panic = Box<dyn Any + Send + 'static>;

    /// A scope handle; spawned closures receive it again, as in crossbeam.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// A handle to join one scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Waits for the thread; `Err` carries its panic payload.
        pub fn join(self) -> Result<T, Panic> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread that may borrow from the enclosing scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Runs `f` with a scope; every thread it spawns is joined before this
    /// returns. A panic of an unjoined thread propagates as a panic (the
    /// standard library's behaviour) instead of an `Err`.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Panic>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }

    #[cfg(test)]
    mod tests {
        #[test]
        fn scoped_threads_borrow_and_join() {
            let data = [1u64, 2, 3, 4];
            let total: u64 = super::scope(|s| {
                let hs: Vec<_> = data
                    .chunks(2)
                    .map(|c| s.spawn(move |_| c.iter().sum::<u64>()))
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).sum()
            })
            .unwrap();
            assert_eq!(total, 10);
        }
    }
}
