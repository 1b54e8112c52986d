//! The lock-free generation swap backing each serving shard.
//!
//! Readers must never block on a publisher (Section V: serving is optimized
//! for batch updates behind live query traffic), so each shard keeps a small
//! ring of snapshot slots and an atomic sequence number:
//!
//! * **Read** — load `seq` (`Acquire`), clone the `Arc` in slot
//!   `seq % RING`. The publisher never write-locks the slot `seq` points at,
//!   so the slot read-lock is always uncontended for a reader that loaded a
//!   current `seq` — reads are wait-free in the steady state.
//! * **Publish** — store the new snapshot `Arc` into slot `(seq + 1) % RING`
//!   (that slot is invisible to new readers until the bump), then
//!   `seq.store(seq + 1, Release)`. Publishers are serialized by the store's
//!   meta lock; the `Release`/`Acquire` pair makes the snapshot write visible
//!   before any reader can observe the new sequence number.
//!
//! The one benign race: a reader that loads `seq` and is then descheduled
//! for a full ring of publishes can find its slot overwritten by the time it
//! clones — it observes a *newer complete* snapshot, never a torn or freed
//! one (the `Arc` swap happens atomically under the slot lock, and the old
//! `Arc` stays alive until its last reader drops it). A reader parked inside
//! a slot lock can stall a *publisher* on wraparound — never the reverse.
//!
//! Request accounting lives here too ([`ShardCounters`]): every lookup
//! bumps one relaxed counter of its retailer's shard instead of write-locking
//! a store-wide stats struct, and a stats read sums the shards. Counts
//! commute, so the totals are the same at any reader count.
//!
//! Under `--cfg loom` the atomics swap to the model-checker shim from
//! `sigmund_core::loom_model`, and `crates/serving/tests/loom_shard.rs`
//! exhaustively checks reader-vs-publish-vs-rollback interleavings and the
//! counters' bump-vs-sum-vs-reset ones. The slot
//! locks need no shim: no scheduling point (shimmed atomic access) ever
//! happens while a slot lock is held, so model threads cannot contend on
//! them (see the test module there).

use parking_lot::RwLock;
use std::sync::Arc;

#[cfg(loom)]
use sigmund_core::loom_model::shim::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot slots per shard. Any value ≥ 2 is correct (see the module doc on
/// wraparound); 8 gives publishers seven generations of headroom before a
/// parked reader can stall one.
pub const SHARD_RING: usize = 8;

/// One shard's swap cell: an atomic sequence number over a ring of snapshot
/// slots. `T` is the immutable per-shard snapshot type.
#[derive(Debug)]
pub struct ShardState<T> {
    /// Monotone publish counter; `seq % SHARD_RING` is the live slot.
    seq: AtomicU64,
    ring: Vec<RwLock<Arc<T>>>,
}

impl<T> ShardState<T> {
    /// A shard whose every slot starts at `initial` (sequence 0).
    pub fn new(initial: Arc<T>) -> Self {
        Self {
            seq: AtomicU64::new(0),
            ring: (0..SHARD_RING)
                .map(|_| RwLock::new(Arc::clone(&initial)))
                .collect(),
        }
    }

    /// The reader path: returns the current snapshot without ever waiting on
    /// a publisher.
    pub fn load(&self) -> Arc<T> {
        let s = self.seq.load(Ordering::Acquire);
        Arc::clone(&self.ring[(s % SHARD_RING as u64) as usize].read())
    }

    /// The publisher path: installs `next` as the live snapshot. Callers
    /// must serialize publishers (the store's meta lock does); readers are
    /// never stalled because the write lock is taken on the slot *after* the
    /// one new readers resolve.
    pub fn publish(&self, next: Arc<T>) {
        let s = self.seq.load(Ordering::Acquire);
        *self.ring[((s + 1) % SHARD_RING as u64) as usize].write() = next;
        self.seq.store(s + 1, Ordering::Release);
    }

    /// How many snapshots have been published into this shard.
    pub fn sequence(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }
}

/// How one lookup was answered — the four request counters of
/// `ServingStats`, which see `ShardCounters::total` as `[u64; 4]` in this
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with a non-empty list.
    Hit = 0,
    /// Known retailer and item, no recommendations.
    Empty = 1,
    /// Unknown retailer or out-of-range item.
    Miss = 2,
    /// The flash read behind the answer faulted (counted *beside* one of
    /// the other three, never instead of it).
    ColdMiss = 3,
}

/// One shard's request counters. Every access is `Relaxed`: a counter
/// orders nothing — no reader's answer depends on it — it only has to lose
/// no increment, which `fetch_add` guarantees on its own. Cache-line
/// aligned so two shards' counters never share a line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct ShardCounters([AtomicU64; 4]);

impl ShardCounters {
    /// Counts one `outcome`.
    pub fn bump(&self, outcome: Outcome) {
        self.0[outcome as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// The counts so far, indexed by [`Outcome`]. Not a snapshot — a bump
    /// racing the read lands in this total or the next — but never short of
    /// a bump that finished before it started.
    pub fn total(&self) -> [u64; 4] {
        [0, 1, 2, 3].map(|i| self.0[i].load(Ordering::Relaxed))
    }

    /// Zeroes the counts. A bump racing the reset is kept or dropped whole.
    pub fn reset(&self) {
        for c in &self.0 {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn counters_count_by_outcome_and_reset() {
        let c = ShardCounters::default();
        assert_eq!(std::mem::align_of::<ShardCounters>(), 64);
        for (outcome, times) in [
            (Outcome::Hit, 3),
            (Outcome::Empty, 2),
            (Outcome::Miss, 1),
            (Outcome::ColdMiss, 4),
        ] {
            for _ in 0..times {
                c.bump(outcome);
            }
        }
        assert_eq!(c.total(), [3, 2, 1, 4]);
        c.reset();
        assert_eq!(c.total(), [0; 4]);
    }

    #[test]
    fn concurrent_bumps_are_never_lost() {
        let c = Arc::new(ShardCounters::default());
        let bumpers: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.bump(Outcome::Hit);
                    }
                })
            })
            .collect();
        for b in bumpers {
            b.join().unwrap();
        }
        assert_eq!(c.total(), [40_000, 0, 0, 0]);
    }

    #[test]
    fn publish_and_load_round_trip() {
        let shard = ShardState::new(Arc::new(0u64));
        assert_eq!(*shard.load(), 0);
        assert_eq!(shard.sequence(), 0);
        for g in 1..=20u64 {
            shard.publish(Arc::new(g));
            assert_eq!(*shard.load(), g, "ring wraparound must stay coherent");
        }
        assert_eq!(shard.sequence(), 20);
    }

    #[test]
    fn readers_share_the_published_arc() {
        let snap = Arc::new(vec![1u32, 2, 3]);
        let shard = ShardState::new(Arc::new(Vec::new()));
        shard.publish(Arc::clone(&snap));
        let a = shard.load();
        let b = shard.load();
        assert!(Arc::ptr_eq(&a, &snap) && Arc::ptr_eq(&b, &snap));
    }

    #[test]
    fn concurrent_readers_never_see_a_torn_snapshot() {
        // Each published snapshot is internally consistent: (g, g * 7). A
        // torn read would pair fields from two generations.
        // Readers run a fixed read budget rather than racing a stop flag:
        // on a loaded machine a flag-based reader may never get scheduled
        // while the publisher finishes, and overlap is not what's being
        // proven here anyway — loom_shard.rs checks every interleaving of
        // the swap; this test only hammers the invariant at native speed.
        let shard = Arc::new(ShardState::new(Arc::new((0u64, 0u64))));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shard = Arc::clone(&shard);
                std::thread::spawn(move || {
                    for _ in 0..20_000u64 {
                        let s = shard.load();
                        assert_eq!(s.1, s.0 * 7, "torn snapshot: {s:?}");
                    }
                })
            })
            .collect();
        for g in 1..=10_000u64 {
            shard.publish(Arc::new((g, g * 7)));
        }
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(shard.load().0, 10_000);
    }
}
