// Experiment / test / example code may unwrap freely; the workspace-level
// clippy panic lints target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! The chaos harness, end to end: seeded DFS faults, correlated preemption
//! storms, backoff budgets, and graceful degradation, exercised through the
//! full daily service + monitor + serving store stack.
//!
//! The contract under test (ISSUE 4):
//! (a) every day ends with a servable generation for every onboarded
//!     retailer — fresh if the day succeeded, the previous generation if it
//!     degraded;
//! (b) the same `(pipeline seed, fault plan)` pair is **byte-identical**
//!     across runs (traces, metrics, recommendation bytes, alerts);
//! (c) an all-zero fault plan is byte-identical to a service with no
//!     injector at all — the harness is provably transparent when off;
//! (d) a storm day emits `QualityAlert::Degraded`, preserves the previous
//!     generation's bytes, grows serving lag, and the first calm day emits
//!     `QualityAlert::Recovered` and catches serving back up.
//!
//! ISSUE 5 extends the contract with end-to-end integrity:
//! (e) a silent-corruption day ([`ChaosConfig::bitflip`]) never publishes a
//!     corrupt model: the admission gate's checksum-verified re-read rejects
//!     every winner, the previous generation's bytes stay live, and the
//!     first clean day recovers — and every injected flip is *detected*
//!     (injector `bit_flips` reconciles against DFS `checksum_failures`);
//! (f) the admission gate is transparent on clean runs — gate-on vs
//!     gate-off is byte-identical when nothing is rejected.
//!
//! A small multi-seed soak runs in CI; the wide matrix is `#[ignore]`d and
//! run from the `chaos-soak` workflow (see `.github/workflows/`).

use sigmund_cluster::{CellSpec, PreemptionModel};
use sigmund_core::prelude::*;
use sigmund_datagen::FleetSpec;
use sigmund_obs::{HealthBus, Level, Obs};
use sigmund_pipeline::{
    data, journal, load_recs, ChaosConfig, IntegrityConfig, MonitorConfig, PipelineConfig,
    QualityAlert, QualityMonitor, SigmundService,
};
use sigmund_serving::{ColdTierConfig, RecSurface, ServingStore};
use sigmund_types::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The chaos suite drives the real serde-backed publish path; in stripped
/// build environments where `serde_json` is a stub, skip rather than fail.
fn serde_backend_available() -> bool {
    serde_json::from_str::<u32>("1").is_ok()
}

fn tiny_grid() -> GridSpec {
    GridSpec {
        factors: vec![8],
        learning_rates: vec![0.1],
        regs: vec![(0.01, 0.01)],
        features: vec![FeatureSwitches::NONE],
        samplers: vec![NegativeSamplerKind::UniformUnseen],
        seeds: vec![1],
        epochs: 3,
    }
}

/// Everything observable about one multi-day run, in comparable form.
#[derive(PartialEq)]
struct RunArtifacts {
    trace: String,
    metrics: String,
    /// `(day, retailer, raw recommendation bytes in DFS at end of day)`.
    recs: Vec<(u32, u32, Vec<u8>)>,
    /// Per-day sorted degraded lists from the `DayReport`.
    degraded: Vec<(u32, Vec<u32>)>,
    /// Per-day sorted admission-gate rejections from the `DayReport`.
    rejected: Vec<(u32, Vec<u32>)>,
    /// Per-day monitor alerts.
    alerts: Vec<(u32, Vec<QualityAlert>)>,
    /// Per-day serving-store max generation lag after publish.
    lags: Vec<u64>,
    /// Injector totals at the end of the run (`None` when no injector).
    faults: Option<sigmund_dfs::FaultStats>,
    /// Checksum-verification totals at the end of the run (corruption
    /// *detected*, to reconcile against the injector's *injected* counts).
    integrity: sigmund_dfs::IntegrityStats,
}

/// One full run: 2-retailer fleet, one 3-machine cell, single-threaded
/// training (the byte-identity contract requires `threads: 1`, exactly as in
/// `tests/trace_determinism.rs`).
fn chaos_run(seed: u64, chaos: ChaosConfig, days: u32) -> RunArtifacts {
    chaos_run_with(seed, chaos, days, IntegrityConfig::default())
}

/// [`chaos_run`] with an explicit admission-gate configuration (used to
/// prove the gate is transparent on clean runs).
fn chaos_run_with(
    seed: u64,
    chaos: ChaosConfig,
    days: u32,
    integrity: IntegrityConfig,
) -> RunArtifacts {
    let obs = Obs::recording(Level::Debug);
    let fleet = FleetSpec {
        n_retailers: 2,
        min_items: 25,
        max_items: 50,
        pareto_alpha: 1.2,
        users_per_item: 1.0,
        seed: 33,
    };
    let mut svc = SigmundService::new(PipelineConfig {
        cells: vec![CellSpec::standard(CellId(0), 3)],
        grid: tiny_grid(),
        preemption: PreemptionModel { rate_per_hour: 5.0 },
        checkpoint_interval: 0.004,
        items_per_split: 10,
        threads: 1,
        seed,
        obs: obs.clone(),
        chaos,
        integrity,
        ..Default::default()
    });
    for d in fleet.generate() {
        svc.onboard(&d.catalog, &d.events).unwrap();
    }
    let mut monitor = QualityMonitor::new(MonitorConfig::default());
    let store = ServingStore::new();
    let mut out = RunArtifacts {
        trace: String::new(),
        metrics: String::new(),
        recs: Vec::new(),
        degraded: Vec::new(),
        rejected: Vec::new(),
        alerts: Vec::new(),
        lags: Vec::new(),
        faults: None,
        integrity: sigmund_dfs::IntegrityStats::default(),
    };
    for _ in 0..days {
        let onboarded = svc.retailers().to_vec();
        let report = svc.run_day().unwrap();
        let day_alerts = monitor.record_day_obs(&onboarded, &report, &obs, svc.virtual_now());
        out.alerts.push((report.day, day_alerts));
        out.degraded
            .push((report.day, report.degraded.iter().map(|r| r.0).collect()));
        out.rejected
            .push((report.day, report.rejected.iter().map(|r| r.0).collect()));
        let generation = store.publish_obs(report.recs.clone(), &obs, svc.virtual_now());
        let mut served: Vec<RetailerId> = report.recs.keys().copied().collect();
        served.sort_unstable();
        for r in served {
            store.lookup(r, ItemId(0), RecSurface::ViewBased);
        }
        store.observe(&obs, svc.virtual_now(), generation);
        out.lags.push(store.max_lag());
        for (r, _) in &onboarded {
            let bytes = svc
                .dfs
                .peek(&data::recs_path(*r))
                .map(|b| b.to_vec())
                .unwrap_or_default();
            out.recs.push((report.day, r.0, bytes));
        }
    }
    out.faults = svc.dfs.injector().map(|inj| inj.stats());
    out.integrity = svc.dfs.integrity_stats();
    out.trace = obs.trace_json();
    out.metrics = obs.metrics_jsonl();
    out
}

/// Invariant (a)+(b) for one `(seed, profile)` pair: the run completes, every
/// retailer is servable every day, and a re-run is byte-identical.
fn soak_one(seed: u64, chaos: ChaosConfig, days: u32) {
    let a = chaos_run(seed, chaos.clone(), days);
    // (a) every day publishes a servable generation for every retailer: the
    // DFS holds non-empty recommendation bytes from day 0 onward.
    for (day, retailer, bytes) in &a.recs {
        assert!(
            !bytes.is_empty(),
            "seed {seed}: retailer {retailer} has no published generation at end of day {day}"
        );
    }
    // (b) byte-identical re-run: traces, metrics, recs, alerts, lags, fault
    // totals all match exactly.
    let b = chaos_run(seed, chaos, days);
    assert_eq!(a.trace, b.trace, "seed {seed}: trace.json diverged");
    assert_eq!(a.metrics, b.metrics, "seed {seed}: metrics.jsonl diverged");
    assert!(
        a == b,
        "seed {seed}: non-trace artifacts (recs/alerts/degraded/lags/faults) diverged"
    );
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    soak_one(7, ChaosConfig::mild(99), 2);
}

#[test]
fn zero_rate_plan_is_byte_identical_to_no_injector() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    // A plan whose rates are all zero is a no-op regardless of its seed; the
    // service must build the exact same injector-free DFS as the disabled
    // config, so every artifact matches byte for byte.
    let zero_rate = ChaosConfig {
        plan: FaultPlan {
            seed: 0xDEAD_BEEF,
            ..FaultPlan::default()
        },
        ..ChaosConfig::disabled()
    };
    let a = chaos_run(7, zero_rate, 2);
    let b = chaos_run(7, ChaosConfig::disabled(), 2);
    assert_eq!(a.trace, b.trace, "trace.json must not see the zero plan");
    assert_eq!(
        a.metrics, b.metrics,
        "metrics.jsonl must not see the zero plan"
    );
    assert!(a == b, "artifacts must not see the zero plan");
    assert!(
        a.faults.is_none(),
        "zero-rate plan must not attach an injector"
    );
    assert!(a.degraded.iter().all(|(_, d)| d.is_empty()));
}

#[test]
fn aggressive_plan_actually_injects() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    // Sanity that the harness is not vacuously green: at a 30% read fault
    // rate over two full pipeline days, at least one injected fault must be
    // visible in the injector totals, and the fleet must still end servable
    // (that is the whole point of retry budgets + degradation).
    let chaos = ChaosConfig {
        plan: FaultPlan {
            seed: 4242,
            read_error_rate: 0.3,
            write_error_rate: 0.1,
            corrupt_rate: 0.05,
            ..FaultPlan::default()
        },
        ..ChaosConfig::mild(4242)
    };
    let run = chaos_run(7, chaos, 2);
    let stats = run
        .faults
        .expect("plan with non-zero rates attaches an injector");
    assert!(
        stats.read_errors + stats.write_errors + stats.torn_reads > 0,
        "no faults injected at 30% read error rate: {stats:?}"
    );
    for (day, retailer, bytes) in &run.recs {
        assert!(
            !bytes.is_empty(),
            "retailer {retailer} lost its generation on day {day} under faults"
        );
    }
}

#[test]
fn storm_day_degrades_and_first_calm_day_recovers() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    // storm(seed): mild faults everywhere plus a cell-0 drain covering all
    // of day 1. Day 0 trains clean, day 1 cannot complete any preemptible
    // work, day 2 is calm again.
    let run = chaos_run(7, ChaosConfig::storm(5), 3);

    // Day 0: clean — nobody degraded.
    assert_eq!(run.degraded[0], (0, vec![]), "day 0 must publish clean");
    // Day 1: the single cell is drained, so every onboarded retailer rides
    // its previous generation.
    assert_eq!(
        run.degraded[1],
        (1, vec![0, 1]),
        "storm day must degrade every retailer in the drained cell"
    );
    // Day 2: calm — carry-forward re-queued the stalled work, so training
    // resumes and nobody stays degraded.
    assert_eq!(run.degraded[2], (2, vec![]), "calm day must recover");

    // The degraded day serves the *previous* generation: the DFS bytes for
    // each retailer are unchanged from day 0, then refreshed on day 2.
    let bytes_of = |day: u32, r: u32| {
        &run.recs
            .iter()
            .find(|(d, rr, _)| *d == day && *rr == r)
            .unwrap()
            .2
    };
    for r in [0, 1] {
        assert!(!bytes_of(0, r).is_empty(), "day 0 published retailer {r}");
        assert_eq!(
            bytes_of(0, r),
            bytes_of(1, r),
            "storm day must leave retailer {r}'s previous generation untouched"
        );
        assert!(
            !bytes_of(2, r).is_empty(),
            "calm day must republish retailer {r}"
        );
    }

    // Serving lag: fresh on day 0, one generation behind after the storm
    // publish, caught back up on day 2.
    assert_eq!(run.lags[0], 0, "day 0 serving is fresh");
    assert!(
        run.lags[1] >= 1,
        "storm day must leave serving at least one generation stale"
    );
    assert_eq!(run.lags[2], 0, "calm day catches serving back up");

    // Alerts: Degraded (days_stale 1) for both retailers on day 1, Recovered
    // for both on day 2, and no Degraded anywhere else.
    let day1 = &run.alerts[1].1;
    for r in [0, 1] {
        assert!(
            day1.iter().any(|a| matches!(
                a,
                QualityAlert::Degraded { retailer, day: 1, days_stale: 1 }
                    if retailer.0 == r
            )),
            "missing Degraded alert for retailer {r} on day 1: {day1:?}"
        );
    }
    let day2 = &run.alerts[2].1;
    for r in [0, 1] {
        assert!(
            day2.iter().any(|a| matches!(
                a,
                QualityAlert::Recovered { retailer, day: 2, .. } if retailer.0 == r
            )),
            "missing Recovered alert for retailer {r} on day 2: {day2:?}"
        );
    }
    assert!(
        run.alerts[0]
            .1
            .iter()
            .chain(&run.alerts[2].1)
            .all(|a| !matches!(a, QualityAlert::Degraded { .. })),
        "Degraded must only fire on the storm day"
    );
}

#[test]
fn bitflip_day_rejects_every_winner_and_first_clean_day_recovers() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    // bitflip(seed): every write on day 1 has one bit flipped after the
    // content checksum is stamped — persistent silent corruption. Day 0
    // trains and publishes clean, day 1 corrupts every model blob written,
    // day 2 is calm (and warm-start reads of day 1's corrupt blobs fall
    // back to cold retrains).
    let run = chaos_run(7, ChaosConfig::bitflip(5), 3);

    // Day 0: clean — nothing rejected, nobody degraded.
    assert_eq!(run.rejected[0], (0, vec![]), "day 0 must publish clean");
    assert_eq!(run.degraded[0], (0, vec![]), "day 0 must publish clean");
    // Day 1: every winner's re-read fails checksum verification, so the
    // gate rejects all of them and each rides its previous generation.
    assert_eq!(
        run.rejected[1],
        (1, vec![0, 1]),
        "bitflip day must reject every winner at the admission gate"
    );
    assert_eq!(
        run.degraded[1],
        (1, vec![0, 1]),
        "every rejected retailer must degrade to its previous generation"
    );
    // Day 2: clean writes again — the gate admits and the fleet recovers.
    assert_eq!(run.rejected[2], (2, vec![]), "clean day must admit");
    assert_eq!(run.degraded[2], (2, vec![]), "clean day must recover");

    // Zero corrupted models reach LIVE: the bitflip day leaves each
    // retailer's previously published bytes untouched, then day 2
    // republishes fresh ones.
    let bytes_of = |day: u32, r: u32| {
        &run.recs
            .iter()
            .find(|(d, rr, _)| *d == day && *rr == r)
            .unwrap()
            .2
    };
    for r in [0, 1] {
        assert!(!bytes_of(0, r).is_empty(), "day 0 published retailer {r}");
        assert_eq!(
            bytes_of(0, r),
            bytes_of(1, r),
            "bitflip day must leave retailer {r}'s previous generation untouched"
        );
        assert!(
            !bytes_of(2, r).is_empty(),
            "clean day must republish retailer {r}"
        );
    }

    // Injected-vs-detected reconciliation: the injector flipped bits, and
    // every rejection was driven by a *detected* checksum failure — silent
    // corruption is never silently served.
    let stats = run.faults.expect("bitflip plan attaches an injector");
    assert!(
        stats.bit_flips >= 2,
        "day 1 must flip at least one bit per model written: {stats:?}"
    );
    assert!(
        run.integrity.checksum_failures as usize >= run.rejected[1].1.len(),
        "each gate rejection implies a detected checksum failure: \
         {:?} vs {} rejections",
        run.integrity,
        run.rejected[1].1.len()
    );

    // Alerts: Rejected + Degraded for both retailers on day 1 (and no
    // MissingModel — the rejection explains the gap), Recovered on day 2.
    let day1 = &run.alerts[1].1;
    for r in [0, 1] {
        assert!(
            day1.iter().any(|a| matches!(
                a,
                QualityAlert::Rejected { retailer, day: 1 } if retailer.0 == r
            )),
            "missing Rejected alert for retailer {r} on day 1: {day1:?}"
        );
    }
    assert!(
        day1.iter()
            .all(|a| !matches!(a, QualityAlert::MissingModel { .. })),
        "Rejected must suppress MissingModel for the same root cause: {day1:?}"
    );
    let day2 = &run.alerts[2].1;
    for r in [0, 1] {
        assert!(
            day2.iter().any(|a| matches!(
                a,
                QualityAlert::Recovered { retailer, day: 2, .. } if retailer.0 == r
            )),
            "missing Recovered alert for retailer {r} on day 2: {day2:?}"
        );
    }

    // The integrity counters reached the metrics stream.
    assert!(
        run.metrics.contains("integrity.rejected"),
        "metrics.jsonl must carry the integrity.rejected counter"
    );

    // And the whole scenario is byte-identical across re-runs.
    soak_one(7, ChaosConfig::bitflip(5), 3);
}

#[test]
fn admission_gate_is_byte_identical_on_clean_runs() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    // Invariant (f): with no injector and nothing to reject, the gate's
    // checksum-verified re-reads must not perturb a single byte of any
    // artifact — gate-on (the default) vs gate-off is indistinguishable.
    let a = chaos_run_with(7, ChaosConfig::disabled(), 2, IntegrityConfig::default());
    let b = chaos_run_with(7, ChaosConfig::disabled(), 2, IntegrityConfig::disabled());
    assert_eq!(a.trace, b.trace, "gate must not appear in clean traces");
    assert_eq!(a.metrics, b.metrics, "gate must not emit clean-run metrics");
    assert!(a == b, "gate must not perturb clean-run artifacts");
    assert!(a.rejected.iter().all(|(_, r)| r.is_empty()));
}

/// CI-sized multi-seed soak: invariants (a)+(b) across seeds and profiles.
#[test]
fn multi_seed_soak_small() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    for seed in [3, 11] {
        soak_one(seed, ChaosConfig::mild(seed ^ 0x00C0_FFEE), 2);
    }
}

/// The wide matrix: every seed × profile combination, longer horizon. Run
/// explicitly with `cargo test -p sigmund-bench --release --test chaos --
/// --ignored` (wired as the `chaos-soak` workflow_dispatch job).
#[test]
#[ignore = "wide-matrix soak; minutes of CPU — run via the chaos-soak workflow"]
fn multi_seed_soak_wide() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    for seed in [1, 2, 3, 5, 8] {
        soak_one(seed, ChaosConfig::mild(seed.wrapping_mul(0x9E37)), 3);
        soak_one(seed, ChaosConfig::storm(seed.wrapping_mul(0x79B9)), 3);
        // Silent corruption: also prove no corrupt model reaches LIVE and
        // that every injected flip is detected, at every seed.
        let run = chaos_run(seed, ChaosConfig::bitflip(seed.wrapping_mul(0xB17)), 3);
        let stats = run.faults.expect("bitflip plan attaches an injector");
        assert!(
            run.integrity.checksum_failures >= 1 || stats.bit_flips == 0,
            "seed {seed}: injected flips must be detected: {stats:?} vs {:?}",
            run.integrity
        );
        for (day, r) in run
            .rejected
            .iter()
            .flat_map(|(d, rs)| rs.iter().map(move |r| (*d, *r)))
        {
            assert!(
                run.degraded[day as usize].1.contains(&r),
                "seed {seed}: rejected retailer {r} on day {day} must degrade"
            );
        }
        soak_one(seed, ChaosConfig::bitflip(seed.wrapping_mul(0xB17)), 3);
    }
}

/// Every [`FaultPlan`] fault class must be exercised by name (the
/// `fault-coverage` lint in `cargo xtask lint` enforces this file mentions
/// them). `bitflip_rate` is the silent-corruption class: the write reports
/// success, the checksum was stamped *before* the flip, and only a later
/// read discovers the damage.
#[test]
fn bitflip_rate_corrupts_after_the_checksum_is_stamped() {
    let plan = FaultPlan {
        seed: 99,
        bitflip_rate: 1.0,
        ..FaultPlan::default()
    };
    assert!(!plan.is_noop());
    let dfs = sigmund_dfs::Dfs::with_faults(plan);
    let inj = dfs
        .injector()
        .expect("bitflip_rate plan attaches an injector");
    inj.begin_day(0);
    dfs.write(CellId(0), "blob", bytes::Bytes::from_static(b"payload"))
        .expect("bit-flipped writes report success — that is the point");
    assert!(
        matches!(dfs.read(CellId(0), "blob"), Err(SigmundError::Corrupt(_))),
        "every read of a bit-flipped blob must fail checksum verification"
    );
    assert_eq!(inj.stats().bit_flips, 1);
    assert!(dfs.integrity_stats().checksum_failures >= 1);
}

/// The `partitions` fault class: a day-windowed cross-cell partition blocks
/// reads into or out of the cut-off cell, leaves same-cell reads alone, and
/// lifts exactly at `until_day` (the window is exclusive).
#[test]
fn partitions_block_cross_cell_reads_for_their_window_only() {
    let plan = FaultPlan {
        partitions: vec![Partition {
            cell: CellId(1),
            from_day: 1,
            until_day: 2,
        }],
        ..FaultPlan::default()
    };
    assert!(!plan.is_noop(), "partitions alone must arm the injector");
    let dfs = sigmund_dfs::Dfs::with_faults(plan);
    let inj = dfs.injector().expect("partition plan attaches an injector");
    dfs.write(CellId(0), "blob", bytes::Bytes::from_static(b"payload"))
        .expect("write");

    // Day 0: the partition is not yet active — cross-cell reads flow.
    inj.begin_day(0);
    assert!(dfs.read(CellId(1), "blob").is_ok());

    // Day 1: cell 1 is cut off. A read from inside the partitioned cell
    // crossing to the blob's home cell fails transiently (retryable, like
    // any network fault); reads local to the home cell are untouched.
    inj.begin_day(1);
    assert!(matches!(
        dfs.read(CellId(1), "blob"),
        Err(SigmundError::Transient(_))
    ));
    assert!(dfs.read(CellId(0), "blob").is_ok());

    // Day 2: `until_day` is exclusive — the partition has lifted.
    inj.begin_day(2);
    assert!(dfs.read(CellId(1), "blob").is_ok());
    assert!(inj.stats().partition_blocks >= 1);
}

/// ISSUE 9's serving-side fault posture, flash-read half: under active
/// `read_error_rate` (Transient) and `corrupt_rate` (Corrupt/torn) faults,
/// every cold-tier lookup either serves the last-good cached table
/// (`FetchResult::Degraded`, counted once in `cold_misses`) or degrades to
/// a *counted* empty answer (`misses` **and** `cold_misses` both advance) —
/// never a panic, never a silent empty on a published retailer.
#[test]
fn cold_tier_read_faults_degrade_to_counted_misses() {
    let plan = FaultPlan {
        seed: 41,
        read_error_rate: 0.3,
        corrupt_rate: 0.3,
        from_day: 1, // day 0 (publish + warm-up) stays clean
        ..FaultPlan::default()
    };
    assert!(!plan.is_noop());
    let dfs = std::sync::Arc::new(sigmund_dfs::Dfs::with_faults(plan));
    let inj = dfs
        .injector()
        .expect("read-fault plan attaches an injector");
    inj.begin_day(0);

    let store = ServingStore::with_cold_tier(
        ColdTierConfig::enabled(2, 1, 5),
        std::sync::Arc::clone(&dfs),
        CellId(0),
    );
    // Shape-stable tables: item 0's view list is always `[(ItemId(1), 1.0)]`,
    // so any non-empty answer — fresh or degraded — is bitwise checkable.
    let table = || -> Vec<ItemRecs> {
        (0..8)
            .map(|j| ItemRecs {
                view_based: vec![(ItemId((j + 1) % 8), 1.0)],
                purchase_based: vec![],
            })
            .collect()
    };
    let publish_all = || {
        let batch: std::collections::BTreeMap<_, _> =
            (0..4u32).map(|r| (RetailerId(r), table())).collect();
        store.publish(batch);
    };
    publish_all();

    // Clean warm-up: every retailer absorbs two flash reads, so with
    // `admission_threshold = 1` and capacity 2 the cache fills and two
    // retailers become resident (last-good copies the faults can fall
    // back on).
    for pass in 0..2 {
        for r in 0..4u32 {
            let v = store.lookup(RetailerId(r), ItemId(0), RecSurface::ViewBased);
            assert_eq!(v, vec![(ItemId(1), 1.0)], "clean pass {pass} retailer {r}");
        }
    }
    assert_eq!(
        store.stats().cold_misses,
        0,
        "day 0 is inside the clean window"
    );

    // Day 1+: faults are live. Each round republishes (staling every cached
    // copy — spill *writes* are clean, `write_error_rate` is 0) and then
    // serves a burst of lookups, asserting the per-lookup accounting.
    inj.begin_day(1);
    let (mut degraded, mut missed, mut clean) = (0u64, 0u64, 0u64);
    for _round in 0..6 {
        publish_all();
        for t in 0..40u32 {
            let r = RetailerId(t % 4);
            let before = store.stats();
            let v = store.lookup(r, ItemId(0), RecSurface::ViewBased);
            let after = store.stats();
            if v.is_empty() {
                missed += 1;
                assert_eq!(after.misses, before.misses + 1, "empty answers are misses");
                assert_eq!(
                    after.cold_misses,
                    before.cold_misses + 1,
                    "an empty answer on a published retailer must be a counted \
                     cold miss, never silent"
                );
            } else {
                assert_eq!(
                    v,
                    vec![(ItemId(1), 1.0)],
                    "degraded answers serve last-good bytes"
                );
                assert_eq!(after.hits, before.hits + 1);
                if after.cold_misses > before.cold_misses {
                    degraded += 1;
                } else {
                    clean += 1;
                }
            }
        }
    }
    assert!(
        degraded > 0,
        "some faulted refetches must serve the last-good cache"
    );
    assert!(
        missed > 0,
        "some faulted fetches have no cache to fall back on"
    );
    assert!(clean > 0, "hot-cache hits stay clean under read faults");

    // The injector actually exercised both read-fault classes, and the
    // tier's ledger reconciles with the store's: every degradation is
    // visible at both layers.
    let fs = inj.stats();
    assert!(fs.read_errors > 0, "read_error_rate must fire");
    assert!(fs.torn_reads > 0, "corrupt_rate must fire");
    let s = store.stats();
    let t = store.tier_stats().expect("tier attached");
    assert_eq!(t.cold_misses, s.cold_misses);
    assert_eq!(t.cold_misses, degraded + missed);
    assert_eq!(
        t.hot_hits + t.fetches + t.cold_misses,
        s.requests(),
        "every lookup on a fully-spilled store routes through the tier"
    );
}

/// The same posture on the one-record path (ISSUE 19), with silent
/// corruption added: a tier that never admits answers every lookup with two
/// ranged reads, under `read_error_rate`, `corrupt_rate` and `bitflip_rate`
/// at once. Integrity is not traded for speed: an answer is either bit for
/// bit the published list, or empty **and** counted (`misses` and
/// `cold_misses`) — never a wrong list, never a silent empty. A blob
/// bit-flipped at rest fails exactly the lookups whose records or index
/// entries share the flipped chunk, every time; torn and transient faults
/// fail a lookup once and the retry wins.
#[test]
fn cold_tier_record_reads_answer_exactly_or_count_a_miss() {
    let plan = FaultPlan {
        seed: 23,
        read_error_rate: 0.15,
        corrupt_rate: 0.15,
        bitflip_rate: 0.5,
        ..FaultPlan::default()
    };
    let dfs = std::sync::Arc::new(sigmund_dfs::Dfs::with_faults(plan));
    let inj = dfs.injector().expect("fault plan attaches an injector");
    let store = ServingStore::with_cold_tier(
        ColdTierConfig::enabled(2, u64::MAX, 5),
        std::sync::Arc::clone(&dfs),
        CellId(0),
    );
    // Big enough that a table spans many checksum chunks.
    let n = 300u32;
    let list = |r: u32, j: u32| -> Vec<(ItemId, f32)> {
        (1..=6)
            .map(|m| (ItemId((j + m + r) % n), 1.0 / m as f32))
            .collect()
    };
    let batch: std::collections::BTreeMap<_, _> = (0..8u32)
        .map(|r| {
            let table: Vec<ItemRecs> = (0..n)
                .map(|j| ItemRecs {
                    view_based: list(r, j),
                    purchase_based: vec![],
                })
                .collect();
            (RetailerId(r), table)
        })
        .collect();
    store.publish(batch);
    assert!(inj.stats().bit_flips > 0, "some spills must land flipped");

    let (mut exact, mut missed) = (0u64, 0u64);
    for pass in 0..3 {
        for r in 0..8u32 {
            for j in (0..n).step_by(7) {
                let before = store.stats();
                let v = store.lookup(RetailerId(r), ItemId(j), RecSurface::ViewBased);
                let after = store.stats();
                if v.is_empty() {
                    missed += 1;
                    assert_eq!(after.misses, before.misses + 1);
                    assert_eq!(
                        after.cold_misses,
                        before.cold_misses + 1,
                        "pass {pass}: an empty answer for a published item must be counted"
                    );
                } else {
                    exact += 1;
                    assert_eq!(
                        v,
                        list(r, j),
                        "a flash answer differs from what was published"
                    );
                    assert_eq!(after.hits, before.hits + 1);
                    assert_eq!(after.cold_misses, before.cold_misses);
                }
            }
        }
    }
    assert!(
        exact > 0,
        "most records sit in unflipped chunks and read clean"
    );
    assert!(missed > 0, "faulted reads must surface as counted misses");
    let fs = inj.stats();
    assert!(fs.read_errors > 0 && fs.torn_reads > 0, "{fs:?}");
    let (s, t) = (store.stats(), store.tier_stats().expect("tier attached"));
    assert_eq!(t.cold_misses, s.cold_misses);
    assert_eq!(t.cold_misses, missed);
    assert_eq!(
        (t.hot_hits, t.admissions),
        (0, 0),
        "nothing is ever admitted"
    );
    assert_eq!(t.fetches + t.cold_misses, s.requests());
    // Every checksum failure the DFS reported was one of the counted misses.
    assert!(dfs.integrity_stats().checksum_failures <= missed);
}

/// Flash-write half of the same posture: with `write_error_rate` at 1.0
/// nothing reaches flash, so publish pins every table `Hot` in memory —
/// lookups still answer bitwise-correctly without ever touching the tier,
/// no data is lost, and the failures are counted in
/// [`TierStats::spill_failures`].
#[test]
fn cold_tier_spill_write_faults_pin_tables_in_memory() {
    let plan = FaultPlan {
        seed: 7,
        write_error_rate: 1.0,
        ..FaultPlan::default()
    };
    let dfs = std::sync::Arc::new(sigmund_dfs::Dfs::with_faults(plan));
    let inj = dfs
        .injector()
        .expect("write-fault plan attaches an injector");
    inj.begin_day(0);

    let store = ServingStore::with_cold_tier(
        ColdTierConfig::enabled(2, 1, 5),
        std::sync::Arc::clone(&dfs),
        CellId(0),
    );
    let batch: std::collections::BTreeMap<_, _> = (0..3u32)
        .map(|r| {
            let t: Vec<ItemRecs> = (0..4)
                .map(|j| ItemRecs {
                    view_based: vec![(ItemId((j + 1) % 4), 0.5)],
                    purchase_based: vec![],
                })
                .collect();
            (RetailerId(r), t)
        })
        .collect();
    store.publish(batch);

    let t = store.tier_stats().expect("tier attached");
    assert_eq!(t.spill_failures, 3, "every faulted spill is counted");
    assert!(inj.stats().write_errors >= 3);

    for r in 0..3u32 {
        let v = store.lookup(RetailerId(r), ItemId(0), RecSurface::ViewBased);
        assert_eq!(
            v,
            vec![(ItemId(1), 0.5)],
            "pinned-hot tables serve from memory"
        );
    }
    let s = store.stats();
    assert_eq!(s.hits, 3);
    assert_eq!(s.cold_misses, 0, "pinned tables never degrade");
    let t = store.tier_stats().expect("tier attached");
    assert_eq!(
        t.hot_hits + t.fetches + t.cold_misses,
        0,
        "pinned-hot lookups never consult the tier"
    );
}

// ---------------------------------------------------------------------------
// ISSUE 18: one recommendation-table path. `/recs/r<r>` has one writer — the
// publish phase, stitching the inference splits' part blobs — whatever
// `stream_recs` says, so the rate-fault contract is checked on both values:
// (j) a table is published whole or not at all. A part blob the stitch cannot
//     read within its retry budget degrades the retailer (previous generation
//     untouched, reported in `DayReport::degraded`); it never becomes a run of
//     silently empty rows over a good previous generation.

/// Two days of a three-retailer fleet under `plan`, keeping the report's
/// tables (`stream == false`) or not.
struct TwoDays {
    /// Catalog size per retailer.
    items: Vec<usize>,
    /// `/recs/r<r>` bytes per retailer after day 0 and after day 1.
    day0: Vec<Vec<u8>>,
    day1: Vec<Vec<u8>>,
    /// Day 1's `DayReport::degraded`.
    degraded1: Vec<RetailerId>,
    read_faults: u64,
}

fn two_days_under(plan: FaultPlan, stream: bool) -> TwoDays {
    let fleet = FleetSpec {
        n_retailers: 3,
        min_items: 25,
        max_items: 50,
        pareto_alpha: 1.2,
        users_per_item: 1.0,
        seed: 33,
    };
    let mut svc = SigmundService::new(PipelineConfig {
        cells: vec![CellSpec::standard(CellId(0), 3)],
        grid: tiny_grid(),
        preemption: PreemptionModel { rate_per_hour: 5.0 },
        checkpoint_interval: 0.004,
        items_per_split: 10,
        threads: 1,
        seed: 7,
        chaos: ChaosConfig {
            plan,
            ..ChaosConfig::disabled()
        },
        stream_recs: stream,
        ..Default::default()
    });
    for d in fleet.generate() {
        svc.onboard(&d.catalog, &d.events).unwrap();
    }
    let blobs = |svc: &SigmundService| -> Vec<Vec<u8>> {
        svc.retailers()
            .iter()
            .map(|(r, _)| {
                svc.dfs
                    .peek(&data::recs_path(*r))
                    .map(|b| b.to_vec())
                    .unwrap_or_default()
            })
            .collect()
    };
    let day0_report = svc.run_day().unwrap();
    assert_eq!(day0_report.recs.is_empty(), stream);
    let day0 = blobs(&svc);
    let day1_report = svc.run_day().unwrap();
    TwoDays {
        items: svc.retailers().iter().map(|(_, n)| *n).collect(),
        day0,
        day1: blobs(&svc),
        degraded1: day1_report.degraded,
        read_faults: svc.dfs.injector().map_or(0, |inj| inj.stats().read_errors),
    }
}

#[test]
fn read_faults_degrade_a_retailer_instead_of_publishing_holes() {
    let empty = ItemRecs::default();
    for stream in [true, false] {
        let clean = two_days_under(FaultPlan::default(), stream);
        assert!(clean.degraded1.is_empty());
        let clean_tables: Vec<Vec<ItemRecs>> = clean
            .day1
            .iter()
            .map(|b| data::decode_recs(b).expect("clean tables decode"))
            .collect();
        let (mut kept_previous, mut republished, mut read_faults) = (0u32, 0u32, 0u64);
        for plan_seed in 0..24u64 {
            let ctx = format!("stream_recs {stream}, plan seed {plan_seed}");
            let run = two_days_under(
                FaultPlan {
                    seed: plan_seed,
                    read_error_rate: 0.15,
                    from_day: 1,
                    ..FaultPlan::default()
                },
                stream,
            );
            assert_eq!(run.day0, clean.day0, "{ctx}: day 0 precedes the window");
            read_faults += run.read_faults;
            for (r, blob) in run.day1.iter().enumerate() {
                // Degraded means untouched — and untouched is whole, because
                // day 0 was. (The converse does not hold: a faulted
                // warm-start read falls back to a cold retrain, which can
                // republish day 0's exact bytes.)
                if run.degraded1.contains(&RetailerId(r as u32)) {
                    assert_eq!(*blob, run.day0[r], "{ctx}: degraded retailer {r} moved");
                    kept_previous += 1;
                } else {
                    republished += 1;
                }
                let table = data::decode_recs(blob).expect("published tables decode");
                assert_eq!(table.len(), run.items[r], "{ctx}: retailer {r} row count");
                for (i, (row, clean_row)) in table.iter().zip(&clean_tables[r]).enumerate() {
                    assert!(
                        *row != empty || *clean_row == empty,
                        "{ctx}: retailer {r} item {i} is a hole the clean run does not have"
                    );
                }
            }
        }
        assert!(
            read_faults > 0,
            "stream_recs {stream}: the plan never fired"
        );
        assert!(
            republished > 0,
            "stream_recs {stream}: nothing was republished under faults"
        );
        eprintln!(
            "stream_recs {stream}: {republished} tables republished whole, \
             {kept_previous} kept their previous generation, {read_faults} read faults"
        );
    }
}

// ---------------------------------------------------------------------------
// ISSUE 10: crash–restart recovery. The `crash_at` fault class arms a seeded
// kill-point — the k-th storage op of day d fails with
// `SigmundError::Crashed` and the simulated process is dead until
// `Dfs::restart`. The contract:
// (g) the kill-point is crash-atomic (the killed op is never applied) and
//     sticky (everything after it is dead too);
// (h) for ANY op index k, crash-at-k + `SigmundService::recover` + finishing
//     the horizon produces logical DFS bytes, day reports, monitor state,
//     and serving freshness metadata identical to the uninterrupted run;
// (i) recovery at a clean day boundary (no crash ever fired) is
//     byte-invisible — restart-from-journal is indistinguishable from a
//     process that never exited.
// The whole stack here is serde-free (`SGRC` parts and tables, binary
// journal/monitor/store codecs), so these tests run even where serde_json
// is stubbed.

/// The `crash_at` fault class, end to end at the DFS layer: crash-atomic,
/// sticky, and cleared by `restart`.
#[test]
fn crash_at_kill_point_is_crash_atomic_and_sticky() {
    let plan = FaultPlan {
        crash_at: Some((0, 2)),
        ..FaultPlan::default()
    };
    assert!(!plan.is_noop(), "crash_at alone must arm the injector");
    let dfs = sigmund_dfs::Dfs::with_faults(plan);
    let inj = dfs.injector().expect("crash plan attaches an injector");
    inj.begin_day(0);
    dfs.write(CellId(0), "/a", bytes::Bytes::from_static(b"one"))
        .expect("op 0 precedes the kill-point");
    dfs.write(CellId(0), "/b", bytes::Bytes::from_static(b"two"))
        .expect("op 1 precedes the kill-point");
    // Op 2 is the kill-point: the op fails *without* being applied.
    assert!(matches!(
        dfs.write(CellId(0), "/c", bytes::Bytes::from_static(b"three")),
        Err(SigmundError::Crashed(_))
    ));
    assert!(dfs.crashed(), "the crash is sticky");
    assert!(
        dfs.peek("/c").is_none(),
        "crash-atomicity: the killed write must not be applied"
    );
    // Everything after the kill-point is dead, reads and metadata included.
    assert!(matches!(
        dfs.read(CellId(0), "/a"),
        Err(SigmundError::Crashed(_))
    ));
    assert!(matches!(
        dfs.rename("/a", "/a2"),
        Err(SigmundError::Crashed(_))
    ));
    assert_eq!(inj.stats().crashes, 1, "a sticky crash counts once");
    // A restart with the crash stripped gets a live filesystem with all
    // durable state intact.
    let restarted = dfs.restart(FaultPlan::default());
    assert!(!restarted.crashed());
    assert_eq!(
        restarted.read(CellId(0), "/a").expect("durable").as_ref(),
        b"one"
    );
    assert!(restarted.peek("/c").is_none());
}

/// One completed day's fingerprint: (day, models trained, train/infer
/// makespan bits, preemptions, degraded, rejected).
type DayFingerprint = (u32, usize, u64, u64, u64, Vec<u32>, Vec<u32>);

/// One item's recommendations at the bit level: (view pairs, purchase
/// pairs), each `(item id, score bits)`.
type ItemRecBits = (Vec<(u32, u32)>, Vec<(u32, u32)>);

/// Bit-exact view of everything a recovery must reproduce.
#[derive(Debug, PartialEq)]
struct RecoveryArtifacts {
    /// Per completed day, in order.
    days: Vec<DayFingerprint>,
    /// The full logical DFS state at the end of the horizon: every path and
    /// its current bytes.
    dfs: Vec<(String, Vec<u8>)>,
    /// Final recommendation tables per retailer, scores as raw bits.
    recs: Vec<(u32, Vec<ItemRecBits>)>,
    /// Final monitor snapshot bytes.
    monitor: Vec<u8>,
    /// Final serving-store freshness metadata bytes.
    store_meta: Vec<u8>,
    /// Final virtual clock, as bits.
    final_now: u64,
}

fn recovery_cfg(seed: u64, crash: Option<(u32, u64)>) -> PipelineConfig {
    PipelineConfig {
        cells: vec![CellSpec::standard(CellId(0), 3)],
        grid: tiny_grid(),
        preemption: PreemptionModel { rate_per_hour: 5.0 },
        checkpoint_interval: 0.004,
        items_per_split: 10,
        threads: 1,
        seed,
        chaos: ChaosConfig {
            plan: FaultPlan {
                crash_at: crash,
                ..FaultPlan::default()
            },
            ..ChaosConfig::disabled()
        },
        journal: true,
        stream_recs: true,
        ..Default::default()
    }
}

fn onboarded_service(cfg: &PipelineConfig) -> SigmundService {
    let fleet = FleetSpec {
        n_retailers: 2,
        min_items: 25,
        max_items: 50,
        pareto_alpha: 1.2,
        users_per_item: 1.0,
        seed: 33,
    };
    let mut svc = SigmundService::new(cfg.clone());
    for d in fleet.generate() {
        svc.onboard(&d.catalog, &d.events).unwrap();
    }
    svc
}

/// Rebuilds the whole serving stack from the journal, exactly like the CLI
/// `--resume` path: service from manifests, monitor and store from the ops
/// payload sealed with the last completed day.
fn recover_stack(
    svc: &SigmundService,
    base_cfg: &PipelineConfig,
) -> (SigmundService, QualityMonitor, ServingStore, u32) {
    let rec = SigmundService::recover(&svc.dfs, base_cfg.clone()).unwrap();
    let cell = base_cfg.cells[0].cell;
    let mut monitor = QualityMonitor::new(MonitorConfig::default());
    let mut store = ServingStore::new();
    if let Some(ops) = rec.ops_state.as_deref() {
        let sections = journal::unpack_ops(ops).unwrap();
        monitor = QualityMonitor::from_bytes(
            MonitorConfig::default(),
            HealthBus::disabled(),
            &sections[0],
        )
        .unwrap();
        let mut tables = BTreeMap::new();
        for &(r, _) in rec.service.retailers() {
            tables.insert(r, Arc::new(load_recs(&rec.service.dfs, cell, r).unwrap()));
        }
        store = ServingStore::restore(HealthBus::disabled(), &sections[1], tables).unwrap();
    }
    (rec.service, monitor, store, rec.day)
}

/// Drives `svc` to the end of the horizon the way the CLI does — monitor fed
/// per day, store republished from the DFS, each completed day sealed in the
/// journal with the driver-state ops payload. Kill-point crashes recover via
/// [`recover_stack`] when `resume` is set; `restart_after` additionally
/// forces a clean-boundary recovery after sealing that day (invariant (i)).
/// Returns the artifacts and the number of crashes survived.
fn drive_to_completion(
    mut svc: SigmundService,
    base_cfg: &PipelineConfig,
    days: u32,
    resume: bool,
    restart_after: Option<u32>,
) -> (RecoveryArtifacts, u32) {
    let obs = Obs::disabled();
    let cell = base_cfg.cells[0].cell;
    let mut monitor = QualityMonitor::new(MonitorConfig::default());
    let mut store = ServingStore::new();
    let mut out = RecoveryArtifacts {
        days: Vec::new(),
        dfs: Vec::new(),
        recs: Vec::new(),
        monitor: Vec::new(),
        store_meta: Vec::new(),
        final_now: 0,
    };
    let mut crashes = 0u32;
    let mut day_idx = 0u32;
    while day_idx < days {
        let onboarded = svc.retailers().to_vec();
        let crashed = match svc.run_day() {
            Ok(report) => {
                // Post-day bookkeeping reads the DFS (publish batch, seal),
                // so the kill op can fire here too — a real process kill
                // doesn't care that `run_day` already returned. Any Crashed
                // below routes through the same recovery path; the sealed
                // (or still in-progress) journal makes the re-run converge.
                let day = report.day;
                let post = (|| -> std::result::Result<(), SigmundError> {
                    monitor.record_day_obs(&onboarded, &report, &obs, svc.virtual_now());
                    let mut batch = BTreeMap::new();
                    for (r, _) in &onboarded {
                        batch.insert(*r, load_recs(&svc.dfs, cell, *r)?);
                    }
                    store.publish_obs(batch, &obs, svc.virtual_now());
                    out.days.push((
                        report.day,
                        report.models_trained,
                        report.train_makespan.to_bits(),
                        report.infer_makespan.to_bits(),
                        report.preemptions,
                        report.degraded.iter().map(|r| r.0).collect(),
                        report.rejected.iter().map(|r| r.0).collect(),
                    ));
                    svc.seal_day(journal::pack_ops(&[
                        &monitor.to_bytes(),
                        &store.meta_bytes(),
                    ]))
                })();
                match post {
                    Ok(()) => {
                        day_idx += 1;
                        if restart_after == Some(day) {
                            let (s, m, st, d) = recover_stack(&svc, base_cfg);
                            assert_eq!(d, day + 1, "clean recovery resumes the next day");
                            svc = s;
                            monitor = m;
                            store = st;
                            day_idx = d;
                        }
                        false
                    }
                    Err(SigmundError::Crashed(_)) => true,
                    Err(e) => panic!("post-day bookkeeping failed: {e}"),
                }
            }
            Err(SigmundError::Crashed(_)) => true,
            Err(e) => panic!("run_day failed: {e}"),
        };
        if crashed {
            assert!(resume, "crash fired in a run that expected none");
            crashes += 1;
            let (s, m, st, d) = recover_stack(&svc, base_cfg);
            svc = s;
            monitor = m;
            store = st;
            day_idx = d;
            // The interrupted day's tuple (pushed when the crash hit the
            // seal, not the day itself) re-appears when the day re-runs.
            out.days.retain(|t| t.0 < d);
        }
    }
    // A kill op beyond the run's last in-loop DFS op must not fire during
    // artifact collection — a real process would have exited before any of
    // these reads. The restart carries every durable byte and drops the
    // still-armed injector (for runs whose kill point was never reached).
    svc.dfs = svc.dfs.restart(FaultPlan::default());
    for p in svc.dfs.list("/") {
        out.dfs.push((
            p.clone(),
            svc.dfs.peek(&p).map(|b| b.to_vec()).unwrap_or_default(),
        ));
    }
    for &(r, _) in svc.retailers() {
        let t = load_recs(&svc.dfs, cell, r).unwrap();
        out.recs.push((
            r.0,
            t.iter()
                .map(|ir| {
                    (
                        ir.view_based
                            .iter()
                            .map(|(i, s)| (i.0, s.to_bits()))
                            .collect(),
                        ir.purchase_based
                            .iter()
                            .map(|(i, s)| (i.0, s.to_bits()))
                            .collect(),
                    )
                })
                .collect(),
        ));
    }
    out.monitor = monitor.to_bytes();
    out.store_meta = store.meta_bytes();
    out.final_now = svc.virtual_now().to_bits();
    (out, crashes)
}

/// Field-wise bit-exact comparison with a usable failure message (the raw
/// `Debug` dump of two full DFS states is unreadable).
fn assert_artifacts_eq(run: &RecoveryArtifacts, baseline: &RecoveryArtifacts, ctx: &str) {
    assert_eq!(run.days, baseline.days, "{ctx}: day reports diverged");
    assert_eq!(
        run.final_now, baseline.final_now,
        "{ctx}: virtual clock diverged"
    );
    assert_eq!(
        run.recs, baseline.recs,
        "{ctx}: recommendation tables diverged"
    );
    assert_eq!(
        run.monitor, baseline.monitor,
        "{ctx}: monitor snapshot diverged"
    );
    assert_eq!(
        run.store_meta, baseline.store_meta,
        "{ctx}: serving freshness metadata diverged"
    );
    let a: BTreeMap<&String, &Vec<u8>> = run.dfs.iter().map(|(p, b)| (p, b)).collect();
    let b: BTreeMap<&String, &Vec<u8>> = baseline.dfs.iter().map(|(p, b)| (p, b)).collect();
    for (p, bytes) in &b {
        match a.get(p) {
            None => panic!("{ctx}: path {p} missing after recovery"),
            Some(x) if x != bytes => panic!(
                "{ctx}: bytes diverged at {p} ({} vs {} bytes)",
                x.len(),
                bytes.len()
            ),
            _ => {}
        }
    }
    for p in a.keys() {
        assert!(b.contains_key(*p), "{ctx}: extra path {p} after recovery");
    }
}

/// Invariant (h) for one kill-point: returns true if the crash actually
/// fired (false once `k` is past the day's op count — the sweep's stop
/// condition).
fn crash_resume_matches_baseline(baseline: &RecoveryArtifacts, k: u64, days: u32) -> bool {
    let cfg = recovery_cfg(7, Some((1, k)));
    let (run, crashes) = drive_to_completion(onboarded_service(&cfg), &cfg, days, true, None);
    assert!(crashes <= 1, "the kill-point fires at most once");
    assert_artifacts_eq(&run, baseline, &format!("crash at day-1 op {k}"));
    crashes == 1
}

/// Invariants (h)+(i), CI-sized: a geometric sweep of day-1 kill-points (op
/// 0, then ×1.5 steps — dense where the phase transitions are, sparse in
/// the long training tail) plus a clean-boundary restart. The exhaustive
/// every-op sweep is `#[ignore]`d below.
#[test]
fn crash_point_sweep_recovers_byte_identical_smoke() {
    let days = 2;
    let nocrash = recovery_cfg(7, None);
    let (baseline, zero) =
        drive_to_completion(onboarded_service(&nocrash), &nocrash, days, false, None);
    assert_eq!(zero, 0);
    // (i) a clean-boundary restart after day 0's seal is byte-invisible.
    let (restarted, zero) =
        drive_to_completion(onboarded_service(&nocrash), &nocrash, days, false, Some(0));
    assert_eq!(zero, 0);
    assert_eq!(
        restarted, baseline,
        "recovery with no prior crash must be byte-invisible"
    );
    // (h) geometric kill-point sweep until the day completes crash-free.
    let mut fired = 0u32;
    let mut k = 0u64;
    loop {
        if !crash_resume_matches_baseline(&baseline, k, days) {
            break;
        }
        fired += 1;
        k = (k * 3 / 2).max(k + 1);
        assert!(k < 1_000_000, "day 1 should not have a million storage ops");
    }
    assert!(
        fired >= 8,
        "sweep is vacuous: only {fired} kill-points fired before the day ran out of ops"
    );
}

/// The exhaustive sweep: EVERY day-1 op index, run from the `chaos-soak`
/// workflow. Proves invariant (h) with no gaps.
#[test]
#[ignore = "every-op crash sweep; minutes of CPU — run via the chaos-soak workflow"]
fn crash_point_sweep_recovers_byte_identical_full() {
    let days = 2;
    let nocrash = recovery_cfg(7, None);
    let (baseline, _) =
        drive_to_completion(onboarded_service(&nocrash), &nocrash, days, false, None);
    let mut k = 0u64;
    while crash_resume_matches_baseline(&baseline, k, days) {
        k += 1;
        assert!(k < 1_000_000, "day 1 should not have a million storage ops");
    }
}
