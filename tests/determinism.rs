// Experiment / test / example code may unwrap freely; the workspace-level
// clippy panic lints target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Whole-system determinism: every layer is seeded and clock-free, so two
//! identical runs agree bit for bit — with one deliberate exception:
//! **Hogwild training with >1 thread is racy by design** (lost updates
//! depend on OS scheduling), so bitwise reproducibility holds exactly when
//! training runs single-threaded. The service tests below pin `threads: 1`;
//! a companion test documents that multi-threaded runs stay *valid* (same
//! shapes, finite metrics) while differing bitwise.
//!
//! Which storage an exact epoch runs on is not an exception: `threads: 1`
//! trains on plain `f32` tables checked out of the model, Hogwild on the
//! model's atomic tables, through one generic step. That both storages
//! train the same bytes is proven next to the step, where the atomic path
//! can be forced at one thread — `crates/core/src/train.rs`:
//! `storage_invariance_over_features_and_samplers` (tables, Adagrad
//! accumulators and `EpochStats` at `to_bits` level, 8 feature sets × 3
//! samplers, strength constraints, missing brand/price),
//! `storage_invariance_adaptive_sampler_reads_live_parameters`,
//! `epoch_by_epoch_equals_train` and `checkpoint_resume_equals_uninterrupted`.
//!
//! Nor is the number of cores a training *job* uses: map-task attempts of
//! independent `(retailer, config)` models run at once on a worker pool
//! whose every effect is committed in the sequential engine's order
//! (DESIGN.md §17), so the service tests below hold on whatever worker
//! count the machine derives. The proofs sit next to the code —
//! `crates/mapreduce/src/engine.rs`:
//! `stats_trace_metrics_and_commit_order_are_worker_count_invariant`,
//! `workers_really_overlap_and_storms_serialize_them`,
//! `recording_on_a_shared_obs_instead_of_ctx_breaks_the_trace`;
//! `crates/pipeline/src/train_job.rs`:
//! `training_job_is_worker_count_invariant`,
//! `training_job_is_worker_count_invariant_under_preemption` (DFS bytes,
//! output order, `JobStats`, `Dfs::stats()`, trace and metrics at 1 / 2 / 3
//! / 8 workers) and `same_retailer_burst_loads_the_retailer_once`;
//! `crates/pipeline/src/daily.rs`:
//! `same_seed_days_on_the_derived_worker_count_are_identical`.

use sigmund_cluster::{CellSpec, PreemptionModel};
use sigmund_core::prelude::*;
use sigmund_datagen::{FleetSpec, RetailerSpec};
use sigmund_pipeline::{PipelineConfig, SigmundService};
use sigmund_types::*;

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

fn run_service(preempt: f64) -> Vec<(u32, u64, String)> {
    // Returns a digest per day: (retailer, preemptions, recs fingerprint).
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
        preemption: PreemptionModel {
            rate_per_hour: preempt,
        },
        checkpoint_interval: 0.004,
        items_per_split: 10,
        // Hogwild (threads > 1) is deliberately racy; bitwise runs need 1.
        threads: 1,
        ..Default::default()
    });
    for d in fleet.generate() {
        svc.onboard(&d.catalog, &d.events).unwrap();
    }
    let mut digest = Vec::new();
    for _ in 0..2 {
        let report = svc.run_day().unwrap();
        let mut retailers: Vec<&RetailerId> = report.recs.keys().collect();
        retailers.sort();
        for r in retailers {
            let fp: String = report.recs[r]
                .iter()
                .flat_map(|ir| ir.view_based.iter())
                .map(|(i, s)| format!("{}:{:.6};", i.0, s))
                .collect();
            digest.push((r.0, report.preemptions, fp));
        }
    }
    digest
}

#[test]
fn full_service_is_bit_reproducible() {
    assert_eq!(run_service(0.0), run_service(0.0));
}

#[test]
fn full_service_is_reproducible_under_preemption() {
    // Pre-emption sampling is seeded too: even the failure schedule repeats.
    // (Mean budget ~6 virtual ms vs ~12 ms single-threaded epochs: attempts
    // die often but every split eventually lands.)
    let a = run_service(600_000.0);
    let b = run_service(600_000.0);
    assert_eq!(a, b);
    assert!(!a.is_empty(), "training must survive the storm");
    assert!(a.iter().any(|(_, p, _)| *p > 0), "storm must hit");
}

#[test]
fn single_thread_training_is_bit_reproducible() {
    let data = RetailerSpec::sized(RetailerId(0), 60, 80, 5).generate();
    let ds = Dataset::build(data.catalog.len(), data.events.clone(), true);
    let hp = HyperParams {
        factors: 8,
        epochs: 5,
        ..Default::default()
    };
    let run = || {
        let (m, metrics) = train_config(
            &data.catalog,
            &ds,
            &hp,
            5,
            None,
            &SweepOptions {
                threads: 1,
                ..Default::default()
            },
        );
        (ModelSnapshot::capture(&m).to_bytes(), metrics)
    };
    let (b1, m1) = run();
    let (b2, m2) = run();
    assert_eq!(b1, b2, "identical parameter bytes");
    assert_eq!(m1, m2);
}

#[test]
fn hogwild_runs_differ_bitwise_but_stay_valid() {
    // The flip side of the Hogwild design choice: with 4 threads the exact
    // parameter bytes depend on scheduling, but the outputs remain
    // well-formed and competitive.
    let data = RetailerSpec::sized(RetailerId(0), 60, 80, 5).generate();
    let ds = Dataset::build(data.catalog.len(), data.events.clone(), true);
    let hp = HyperParams {
        factors: 8,
        epochs: 5,
        ..Default::default()
    };
    let run = || {
        train_config(
            &data.catalog,
            &ds,
            &hp,
            5,
            None,
            &SweepOptions {
                threads: 4,
                ..Default::default()
            },
        )
        .1
    };
    let (a, b) = (run(), run());
    assert!(a.map_at_10.is_finite() && b.map_at_10.is_finite());
    assert!(a.map_at_10 > 0.0 && b.map_at_10 > 0.0);
    // Both runs land in the same quality neighbourhood.
    assert!(
        (a.map_at_10 - b.map_at_10).abs() < 0.15,
        "hogwild variance too large: {} vs {}",
        a.map_at_10,
        b.map_at_10
    );
}

#[test]
fn workload_generation_is_cross_instance_stable() {
    // The exact event stream backs committed experiment numbers; keep a
    // fingerprint so accidental generator changes are caught loudly.
    let data = RetailerSpec::small(RetailerId(0), 42).generate();
    let fp: u64 = data.events.iter().fold(0u64, |acc, e| {
        acc.wrapping_mul(1_000_003)
            .wrapping_add(e.user.0 as u64)
            .wrapping_mul(1_000_033)
            .wrapping_add(e.item.0 as u64)
            .wrapping_add(e.action as u64)
    });
    let again: u64 = RetailerSpec::small(RetailerId(0), 42)
        .generate()
        .events
        .iter()
        .fold(0u64, |acc, e| {
            acc.wrapping_mul(1_000_003)
                .wrapping_add(e.user.0 as u64)
                .wrapping_mul(1_000_033)
                .wrapping_add(e.item.0 as u64)
                .wrapping_add(e.action as u64)
        });
    assert_eq!(fp, again);
}
