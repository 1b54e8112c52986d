// Experiment / test / example code may unwrap freely; the workspace-level
// clippy panic lints target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Serving-frontend scale invariants (DESIGN.md §13): the `bench_serve`
//! replay is thread-count invariant where it must be, and the cold tier is
//! byte-invisible when disabled or clean.
//!
//! * **Thread invariance** — replaying the same traffic log at
//!   `serve_threads = 1` and `N` lands on identical [`ServingStats`] (every
//!   counter is a commutative per-request outcome) and a byte-identical
//!   trace (all obs emission happens after the threads join, on virtual
//!   time). The schedule-dependent hot/flash split is deliberately outside
//!   this contract — it lives in `TierStats` and the deterministic
//!   `TierSim` model instead.
//! * **Disabled-tier identity** — [`ColdTierConfig::disabled`] (the
//!   default) attaches no tier object: the store must answer bitwise
//!   identically to a plain [`ServingStore::new`] on the same publishes.
//! * **Clean-tier identity** — with tiering *enabled* and no faults, every
//!   lookup's answer round-trips through the `SGRC` codec bitwise: flash
//!   changes where a table lives, never what it says.

use sigmund_bench::serve::{build_fixture, run_serve_replay, ServeSpec};
use sigmund_obs::{Level, Obs};
use sigmund_serving::{ColdTierConfig, ServingStore};
use std::sync::Arc;

fn tiny_spec(serve_threads: usize) -> ServeSpec {
    ServeSpec {
        n_retailers: 24,
        churn_retailers: 8,
        requests: 6_000,
        serve_threads,
        publishes: 3,
        rec_k: 5,
        zipf_s: 1.2,
        tier: ColdTierConfig::enabled(4, 2, 7),
        seed: 21,
    }
}

fn replay(spec: &ServeSpec) -> (sigmund_serving::ServingStats, String, f64, f64) {
    let obs = Obs::recording(Level::Debug);
    let fixture = build_fixture(spec);
    let report = run_serve_replay(fixture, &obs);
    (
        report.stats,
        obs.trace_json(),
        report.hot_hit_rate,
        report.p99_virtual_ms,
    )
}

/// The headline determinism contract: `--serve-threads 1` vs `N` give the
/// same `ServingStats` and a byte-identical trace.
#[test]
fn serve_replay_is_thread_count_invariant() {
    let (stats_1, trace_1, hot_1, p99_1) = replay(&tiny_spec(1));
    for threads in [2usize, 4] {
        let (stats_n, trace_n, hot_n, p99_n) = replay(&tiny_spec(threads));
        assert_eq!(
            stats_1, stats_n,
            "ServingStats must not depend on serve_threads"
        );
        assert_eq!(
            trace_1, trace_n,
            "trace bytes must not depend on serve_threads"
        );
        // The committed gate numbers come from the sequential model, so
        // they are identical too — not merely close.
        assert_eq!(hot_1.to_bits(), hot_n.to_bits());
        assert_eq!(p99_1.to_bits(), p99_n.to_bits());
    }
    assert!(stats_1.hits > 0 && stats_1.empties > 0 && stats_1.misses > 0);
    assert_eq!(stats_1.cold_misses, 0, "clean replay must not degrade");
}

/// Two identical runs are exactly reproducible end to end — the replay has
/// no hidden wall-clock or allocator dependence.
#[test]
fn serve_replay_is_reproducible() {
    assert_eq!(replay(&tiny_spec(2)), replay(&tiny_spec(2)));
}

/// [`ColdTierConfig::disabled`] attaches no tier: the store must answer
/// bitwise identically to a plain [`ServingStore::new`] given the same
/// publishes and the same traffic.
#[test]
fn disabled_tier_is_byte_identical_to_the_plain_store() {
    let mut spec = tiny_spec(1);
    spec.tier = ColdTierConfig::disabled();
    let tiered = build_fixture(&spec);
    assert!(
        tiered.store.tier_stats().is_none(),
        "disabled config must attach no tier object"
    );

    // A plain store published with the exact same initial batch.
    let plain = ServingStore::new();
    {
        use sigmund_bench::serve::synth_table;
        use sigmund_types::RetailerId;
        let mut batch = std::collections::BTreeMap::new();
        for (i, &n) in tiered.n_items.iter().enumerate() {
            batch.insert(RetailerId(i as u32), synth_table(n, spec.rec_k, 0));
        }
        plain.publish(batch);
    }
    for req in &tiered.traffic {
        let a = tiered.store.lookup(req.retailer, req.item, req.surface);
        let b = plain.lookup(req.retailer, req.item, req.surface);
        let a_bits: Vec<(u32, u32)> = a.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
        let b_bits: Vec<(u32, u32)> = b.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
        assert_eq!(a_bits, b_bits, "disabled tier drifted from the plain store");
    }
    assert_eq!(tiered.store.stats(), plain.stats());
}

/// With tiering *enabled* and a fault-free DFS, answers round-trip through
/// the `SGRC` spill/fetch path bitwise: the flash tier changes where a
/// table lives, never what it says.
#[test]
fn clean_tiered_answers_are_bitwise_identical_to_memory() {
    let spec = tiny_spec(1);
    let mut untiered = spec.clone();
    untiered.tier = ColdTierConfig::disabled();
    let hot = build_fixture(&untiered);
    let cold = build_fixture(&spec);
    for req in &cold.traffic {
        let a = cold.store.lookup(req.retailer, req.item, req.surface);
        let b = hot.store.lookup(req.retailer, req.item, req.surface);
        let a_bits: Vec<(u32, u32)> = a.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
        let b_bits: Vec<(u32, u32)> = b.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
        assert_eq!(a_bits, b_bits, "flash round-trip changed an answer");
    }
    assert_eq!(cold.store.stats(), hot.store.stats());
    assert_eq!(cold.store.stats().cold_misses, 0);
    let t = cold.store.tier_stats().unwrap();
    assert!(t.fetches > 0, "the tiered run must actually touch flash");

    // The replay mostly hits admitted tables. Sweep every item × surface of
    // one small table through a tier that never admits (no retailer reaches
    // the threshold), so every answer is a single record read off flash,
    // compared list for list — plus the probes just past the table's end.
    use sigmund_bench::serve::synth_table;
    use sigmund_serving::RecSurface;
    use sigmund_types::{CellId, ItemId, RetailerId};
    let (r, n) = (RetailerId(3), 37);
    let batch = || std::collections::BTreeMap::from([(r, synth_table(n, spec.rec_k, 0))]);
    let memory = ServingStore::new();
    memory.publish(batch());
    let flash = ServingStore::with_cold_tier(
        ColdTierConfig::enabled(1, u64::MAX, 7),
        Arc::new(sigmund_dfs::Dfs::new()),
        CellId(0),
    );
    flash.publish(batch());
    for item in (0..n + 6).map(|i| ItemId(i as u32)) {
        for surface in [RecSurface::ViewBased, RecSurface::PurchaseBased] {
            let a = flash.lookup(r, item, surface);
            let b = memory.lookup(r, item, surface);
            let a_bits: Vec<(u32, u32)> = a.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
            let b_bits: Vec<(u32, u32)> = b.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
            assert_eq!(
                a_bits, b_bits,
                "one-record read of {item:?} changed an answer"
            );
        }
    }
    assert_eq!(flash.stats(), memory.stats());
    assert_eq!(
        flash.stats().misses,
        12,
        "the probes past the end are misses"
    );
    let t = flash.tier_stats().unwrap();
    assert_eq!(
        (t.hot_hits, t.fetches, t.cold_misses, t.admissions),
        (0, 2 * (n as u64 + 6), 0, 0),
        "every sweep lookup must have taken the one-record path"
    );
}

/// An attached-but-unused observability surface stays silent: replaying
/// with a disabled `Obs` emits nothing, so un-observed benches are
/// byte-identical to observed ones minus the trace itself.
#[test]
fn disabled_obs_keeps_the_replay_silent() {
    let obs = Obs::disabled();
    let report = run_serve_replay(build_fixture(&tiny_spec(2)), &obs);
    assert_eq!(report.stats.requests(), report.requests);
    assert_eq!(
        obs.trace_json(),
        Obs::disabled().trace_json(),
        "a disabled obs must record nothing during the replay"
    );
}

/// The store under replay keeps its rollback ring: after the initial
/// publish plus N republishes, the last `HISTORY_DEPTH` generations are
/// retained and a rollback still serves traffic-retailer tables (they were
/// published at generation 1 and shared forward by every snapshot since).
#[test]
fn replayed_store_keeps_rollback_ring_alive() {
    use sigmund_serving::{RecSurface, HISTORY_DEPTH};
    use sigmund_types::{ItemId, RetailerId};
    let spec = tiny_spec(1);
    let fixture = build_fixture(&spec);
    let store = Arc::new(fixture.store);
    // Drive the publishes synchronously through the replay path's publisher
    // equivalent: republish churn batches directly.
    for p in 1..=spec.publishes as u64 {
        use sigmund_bench::serve::synth_table;
        let mut batch = std::collections::BTreeMap::new();
        for c in 0..spec.churn_retailers {
            let i = spec.n_retailers + c;
            batch.insert(RetailerId(i as u32), synth_table(30, spec.rec_k, p));
        }
        store.publish(batch);
    }
    let retained = store.generations_retained();
    assert_eq!(retained.len(), HISTORY_DEPTH.min(1 + spec.publishes));
    let target = retained[0];
    store.rollback_to(target).unwrap();
    let v = store.lookup(RetailerId(0), ItemId(1), RecSurface::ViewBased);
    assert!(
        !v.is_empty(),
        "rollback must keep serving traffic retailers from flash"
    );
}
