//! A minimal, dependency-free model checker for the Hogwild storage layer,
//! compiled only under `--cfg loom`.
//!
//! The real `loom` crate cannot be assumed present in every build
//! environment, so this module implements the same core idea from scratch:
//! run a closure under a cooperative scheduler that owns every atomic
//! operation, and exhaustively enumerate all thread interleavings by
//! depth-first search over scheduling decisions.
//!
//! How it works:
//!
//! * Under `cfg(loom)`, [`crate::storage`] swaps `std::sync::atomic` for the
//!   [`shim`] types below. Each shim `load`/`store` first calls
//!   [`yield_point`], handing control to the scheduler — so every atomic
//!   access is a scheduling point, the same granularity real hardware races
//!   on (word-sized operations never tear).
//! * [`model`] runs the closure repeatedly. Each run replays a recorded
//!   prefix of scheduling choices, then extends it first-choice-first; after
//!   the run, the last choice with an untried alternative is advanced and
//!   everything after it is discarded (classic DFS with replay).
//! * Model threads are real OS threads parked on a condvar; exactly one is
//!   runnable at a time, so executions are deterministic and the explored
//!   schedule space is exhaustive — every assertion inside the closure is
//!   checked under *every* interleaving.
//!
//! Threads outside an active model (e.g. unrelated tests in the same
//! process) pass through the shim untouched. [`model`] calls are serialized
//! process-wide.
//!
//! The checker is intentionally tiny: no atomics beyond the shim itself (the
//! workspace `atomics-scope` lint confines those to the audited lock-free
//! modules, `storage.rs` here and `shard.rs` in the serving crate), no
//! unsafe code, no spin loops.

use std::cell::Cell;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Upper bound on executions per [`model`] call; hitting it means the model
/// body has far too many scheduling points to enumerate.
const MAX_EXECUTIONS: usize = 1_000_000;

/// One scheduling decision: which of `options` runnable threads ran.
struct Choice {
    taken: usize,
    options: usize,
}

/// DFS state persisted across executions of one [`model`] call.
struct Explorer {
    path: Vec<Choice>,
    pos: usize,
}

impl Explorer {
    /// Returns the decision at the current point, extending the path with
    /// first-choice (index 0) when walking new ground.
    fn next(&mut self, options: usize) -> usize {
        if self.pos < self.path.len() {
            let c = &self.path[self.pos];
            assert!(
                c.options == options,
                "nondeterministic choice point: replay saw {} options, now {options}",
                c.options
            );
            self.pos += 1;
            c.taken
        } else {
            self.path.push(Choice { taken: 0, options });
            self.pos += 1;
            0
        }
    }

    /// Advances to the next unexplored schedule; false when the space is
    /// exhausted.
    fn advance(&mut self) -> bool {
        while let Some(last) = self.path.last_mut() {
            if last.taken + 1 < last.options {
                last.taken += 1;
                return true;
            }
            self.path.pop();
        }
        false
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    /// Waiting in `join` on the given thread id.
    Blocked(usize),
    Finished,
}

/// Mutable checker state; `threads[0]` is the thread that called [`model`].
struct State {
    active: bool,
    threads: Vec<ThreadState>,
    current: usize,
    explorer: Explorer,
}

struct Controller {
    state: Mutex<State>,
    cv: Condvar,
}

static CONTROLLER: OnceLock<Controller> = OnceLock::new();
/// Serializes concurrent `model()` calls (tests run in parallel).
static MODEL_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// This thread's id within the active model, if it is a model thread.
    static MY_ID: Cell<Option<usize>> = const { Cell::new(None) };
}

fn ctl() -> &'static Controller {
    CONTROLLER.get_or_init(|| Controller {
        state: Mutex::new(State {
            active: false,
            threads: Vec::new(),
            current: 0,
            explorer: Explorer {
                path: Vec::new(),
                pos: 0,
            },
        }),
        cv: Condvar::new(),
    })
}

fn lock() -> MutexGuard<'static, State> {
    // A poisoned lock means a model thread panicked; keep going so the panic
    // can propagate through `join` instead of cascading into poison errors.
    ctl().state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Picks the next thread to run among the runnable ones, consuming one
/// explorer decision. Panics on deadlock (a valid model never deadlocks:
/// the only blocking operation is `join`, and joined threads finish).
fn schedule_next(g: &mut State) {
    let runnable: Vec<usize> = g
        .threads
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == ThreadState::Runnable)
        .map(|(i, _)| i)
        .collect();
    assert!(!runnable.is_empty(), "model deadlocked: no runnable thread");
    let pick = g.explorer.next(runnable.len());
    g.current = runnable[pick];
}

/// A scheduling point: lets the explorer hand control to any runnable model
/// thread (possibly the caller). No-op outside an active model.
pub fn yield_point() {
    let Some(me) = MY_ID.get() else {
        return;
    };
    let c = ctl();
    let mut g = lock();
    if !g.active {
        return;
    }
    schedule_next(&mut g);
    c.cv.notify_all();
    while g.current != me {
        g = c.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
}

/// Exhaustively explores every interleaving of the threads spawned inside
/// `body` (via [`thread::spawn`]). Returns the number of distinct schedules
/// executed. The body must join every thread it spawns.
pub fn model<F: Fn()>(body: F) -> usize {
    let _serial = MODEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    {
        let mut g = lock();
        g.explorer.path.clear();
    }
    let mut executions = 0usize;
    loop {
        {
            let mut g = lock();
            g.active = true;
            g.threads = vec![ThreadState::Runnable];
            g.current = 0;
            g.explorer.pos = 0;
        }
        MY_ID.set(Some(0));
        body();
        MY_ID.set(None);
        let exhausted = {
            let mut g = lock();
            assert!(
                g.threads[1..].iter().all(|s| *s == ThreadState::Finished),
                "model body must join every thread it spawns"
            );
            g.active = false;
            g.threads.clear();
            !g.explorer.advance()
        };
        executions += 1;
        assert!(
            executions <= MAX_EXECUTIONS,
            "schedule space too large (> {MAX_EXECUTIONS} executions)"
        );
        if exhausted {
            return executions;
        }
    }
}

/// Model-aware replacements for `std::sync::atomic`, used by
/// [`crate::storage`] under `cfg(loom)`.
pub mod shim {
    /// Memory orderings the shim accepts. The cooperative scheduler is
    /// sequentially consistent, so all three behave identically under the
    /// model — the variants exist so callers can state the ordering the
    /// real `std` build uses (Hogwild storage is `Relaxed`; the serving
    /// shard swap publishes with `Release` and reads with `Acquire`).
    #[derive(Debug, Clone, Copy)]
    pub enum Ordering {
        /// No ordering constraints (Hogwild storage).
        Relaxed,
        /// Read side of the publish handshake (serving shard swap).
        Acquire,
        /// Write side of the publish handshake (serving shard swap).
        Release,
    }

    /// Stand-in for `std::sync::atomic::AtomicU32`: a mutex-held word whose
    /// every access is a scheduling point. The mutex provides the
    /// word-granularity indivisibility real atomics guarantee; the
    /// [`super::yield_point`] before each access exposes every load/store
    /// interleaving to the explorer.
    #[derive(Debug, Default)]
    pub struct AtomicU32(std::sync::Mutex<u32>);

    impl AtomicU32 {
        /// Creates the cell.
        pub fn new(v: u32) -> Self {
            Self(std::sync::Mutex::new(v))
        }

        /// Reads the word (one scheduling point).
        pub fn load(&self, _order: Ordering) -> u32 {
            super::yield_point();
            *self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Writes the word (one scheduling point).
        pub fn store(&self, v: u32, _order: Ordering) {
            super::yield_point();
            *self.0.lock().unwrap_or_else(|e| e.into_inner()) = v;
        }
    }

    /// Stand-in for `std::sync::atomic::AtomicU64`, used by the serving
    /// shard generation counter. Same construction as [`AtomicU32`].
    #[derive(Debug, Default)]
    pub struct AtomicU64(std::sync::Mutex<u64>);

    impl AtomicU64 {
        /// Creates the cell.
        pub fn new(v: u64) -> Self {
            Self(std::sync::Mutex::new(v))
        }

        /// Reads the word (one scheduling point).
        pub fn load(&self, _order: Ordering) -> u64 {
            super::yield_point();
            *self.0.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Writes the word (one scheduling point).
        pub fn store(&self, v: u64, _order: Ordering) {
            super::yield_point();
            *self.0.lock().unwrap_or_else(|e| e.into_inner()) = v;
        }

        /// Adds to the word and returns what it held: one indivisible
        /// read-modify-write, so one scheduling point — unlike a `load`
        /// followed by a `store`, no other thread can get between the two
        /// halves.
        pub fn fetch_add(&self, v: u64, _order: Ordering) -> u64 {
            super::yield_point();
            let mut word = self.0.lock().unwrap_or_else(|e| e.into_inner());
            let was = *word;
            *word = was.wrapping_add(v);
            was
        }
    }
}

/// Model-aware replacement for `std::thread` (spawn/join only).
pub mod thread {
    use super::{ctl, lock, schedule_next, yield_point, ThreadState, MY_ID};

    /// Handle to a model thread; `join` propagates panics.
    pub struct JoinHandle<T> {
        id: usize,
        inner: std::thread::JoinHandle<T>,
    }

    /// Spawns a model thread. It becomes schedulable immediately (spawning
    /// is itself a scheduling point) but runs only when the explorer picks
    /// it.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let id = {
            let mut g = lock();
            assert!(g.active, "loom_model::thread::spawn outside model()");
            g.threads.push(ThreadState::Runnable);
            g.threads.len() - 1
        };
        let inner = std::thread::spawn(move || {
            MY_ID.set(Some(id));
            let c = ctl();
            {
                let mut g = lock();
                while g.current != id {
                    g = c.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
            }
            let out = f();
            {
                let mut g = lock();
                g.threads[id] = ThreadState::Finished;
                for s in g.threads.iter_mut() {
                    if *s == ThreadState::Blocked(id) {
                        *s = ThreadState::Runnable;
                    }
                }
                if g.threads.iter().any(|s| *s == ThreadState::Runnable) {
                    schedule_next(&mut g);
                }
                c.cv.notify_all();
            }
            MY_ID.set(None);
            out
        });
        yield_point();
        JoinHandle { id, inner }
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread, handing control to the explorer until it
        /// finishes. Panics from the thread are re-raised here.
        pub fn join(self) -> T {
            let c = ctl();
            let me = {
                let mut g = lock();
                let me = MY_ID.get();
                if let Some(me) = me {
                    if g.active && g.threads[self.id] != ThreadState::Finished {
                        g.threads[me] = ThreadState::Blocked(self.id);
                        schedule_next(&mut g);
                        c.cv.notify_all();
                    }
                }
                me
            };
            if let Some(me) = me {
                let mut g = lock();
                while g.active && g.current != me {
                    g = c.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
            }
            self.inner
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p))
        }
    }
}
