//! Model-checked concurrency tests for the serving shard swap.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p sigmund-serving --release loom_
//! ```
//!
//! Under `--cfg loom`, `ShardState`'s sequence counter runs on the
//! deterministic interleaving explorer in `sigmund_core::loom_model`, and
//! every test body executes under *every* interleaving of its atomic
//! accesses. The assertions prove the swap protocol itself, not one lucky
//! schedule:
//!
//! * a reader never observes a *torn* snapshot — the `Arc` it clones always
//!   carries an internally consistent generation/payload pair, even racing
//!   a publish or a rollback republish,
//! * a reader never observes a *freed* snapshot — an `Arc` held across
//!   later publishes still reads back intact (the swap drops references,
//!   never data a reader can reach),
//! * readers never block a publisher out of existence: every schedule ends
//!   with the final publish visible,
//! * the per-shard request counters lose no increment: whatever a summing
//!   thread observes mid-race is between what had finished and what had
//!   started, the final total is exact, and a `reset` racing a bump leaves
//!   0 or 1 — the bump is kept or dropped whole.
//!
//! The slot ring's `parking_lot` locks need no shim: no scheduling point
//! occurs while a slot lock is held (the only shimmed atomics are the
//! sequence counter, accessed outside the lock), so model threads cannot
//! contend on them and the model never deadlocks.

#![cfg(loom)]

use sigmund_core::loom_model::{model, thread};
use sigmund_serving::{Outcome, ShardCounters, ShardState};
use std::sync::Arc;

/// A stand-in shard snapshot whose fields are redundantly coupled: any mix
/// of two generations is detectable.
#[derive(Debug)]
struct Snap {
    generation: u64,
    payload: u64,
}

fn snap(generation: u64) -> Arc<Snap> {
    Arc::new(Snap {
        generation,
        payload: generation * 31 + 7,
    })
}

fn assert_coherent(s: &Snap, max_generation: u64) {
    assert_eq!(
        s.payload,
        s.generation * 31 + 7,
        "torn snapshot: {s:?} (fields from two generations)"
    );
    assert!(
        s.generation <= max_generation,
        "snapshot from the future: {s:?}"
    );
}

#[test]
fn loom_reader_never_observes_torn_or_freed_snapshot() {
    let schedules = model(|| {
        let shard = Arc::new(ShardState::new(snap(0)));
        let publisher = {
            let shard = Arc::clone(&shard);
            thread::spawn(move || {
                shard.publish(snap(1));
                shard.publish(snap(2));
            })
        };
        let reader = {
            let shard = Arc::clone(&shard);
            thread::spawn(move || {
                // Hold the first observation across the races: if a publish
                // could free a reader-held snapshot, this read-back tears.
                let held = shard.load();
                let second = shard.load();
                (held, second)
            })
        };
        publisher.join();
        let (held, second) = reader.join();
        assert_coherent(&held, 2);
        assert_coherent(&second, 2);
        assert_coherent(&held, 2); // still intact after every publish landed
        let last = shard.load();
        assert_eq!(last.generation, 2, "final publish must win every schedule");
    });
    assert!(schedules > 1, "explorer found only {schedules} schedule(s)");
}

#[test]
fn loom_rollback_republish_stays_coherent_under_readers() {
    // Publish g1, g2, then roll back by republishing g1's snapshot `Arc` —
    // exactly what `ServingStore::rollback_to` does per shard (publishers
    // and rollbacks are serialized by the store's meta lock, so one mutator
    // thread models them; readers race freely).
    let schedules = model(|| {
        let shard = Arc::new(ShardState::new(snap(0)));
        let g1 = snap(1);
        let mutator = {
            let shard = Arc::clone(&shard);
            let g1 = Arc::clone(&g1);
            thread::spawn(move || {
                shard.publish(g1);
                shard.publish(snap(2));
            })
        };
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let shard = Arc::clone(&shard);
                thread::spawn(move || shard.load())
            })
            .collect();
        mutator.join();
        // The rollback republish, serialized after the publishes.
        shard.publish(Arc::clone(&g1));
        for r in readers {
            let seen = r.join();
            assert_coherent(&seen, 2);
        }
        let live = shard.load();
        assert!(
            Arc::ptr_eq(&live, &g1),
            "rollback must install the retained snapshot by pointer"
        );
        assert_coherent(&live, 2);
    });
    assert!(schedules > 1, "explorer found only {schedules} schedule(s)");
}

#[test]
fn loom_ring_wraparound_never_tears() {
    // More publishes than ring slots while a reader races: the reader may
    // observe any complete snapshot, never a mixed one. One reader keeps
    // the schedule space tractable (the publisher alone contributes
    // 2 × (SHARD_RING + 1) scheduling points).
    let schedules = model(|| {
        let total = (sigmund_serving::SHARD_RING + 1) as u64;
        let shard = Arc::new(ShardState::new(snap(0)));
        let reader = {
            let shard = Arc::clone(&shard);
            thread::spawn(move || shard.load())
        };
        for g in 1..=total {
            shard.publish(snap(g));
        }
        let seen = reader.join();
        assert_coherent(&seen, total);
        assert_eq!(shard.load().generation, total);
        assert_eq!(shard.sequence(), total);
    });
    assert!(schedules > 1, "explorer found only {schedules} schedule(s)");
}

#[test]
fn loom_counter_bumps_are_never_lost_under_a_concurrent_sum() {
    let schedules = model(|| {
        let counters = Arc::new(ShardCounters::default());
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let counters = Arc::clone(&counters);
                thread::spawn(move || counters.bump(Outcome::Hit))
            })
            .collect();
        let summer = {
            let counters = Arc::clone(&counters);
            thread::spawn(move || counters.total())
        };
        let seen = summer.join();
        assert!(
            seen[Outcome::Hit as usize] <= 2,
            "a sum from the future: {seen:?}"
        );
        assert_eq!(
            seen[1..],
            [0; 3],
            "a bump landed on the wrong counter: {seen:?}"
        );
        for r in readers {
            r.join();
        }
        assert_eq!(counters.total(), [2, 0, 0, 0], "an increment was lost");
    });
    assert!(schedules > 1, "explorer found only {schedules} schedule(s)");
}

#[test]
fn loom_reset_racing_a_bump_keeps_it_or_drops_it_whole() {
    let schedules = model(|| {
        let counters = Arc::new(ShardCounters::default());
        counters.bump(Outcome::Miss);
        counters.bump(Outcome::Miss);
        let bumper = {
            let counters = Arc::clone(&counters);
            thread::spawn(move || counters.bump(Outcome::Miss))
        };
        counters.reset();
        bumper.join();
        let left = counters.total();
        assert!(
            left == [0; 4] || left == [0, 0, 1, 0],
            "reset + one concurrent bump must land on 0 or 1, got {left:?}"
        );
    });
    assert!(schedules > 1, "explorer found only {schedules} schedule(s)");
}
