// Test code may unwrap freely; the workspace-level clippy panic lints
// target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Fleet-scale invariants (DESIGN.md §12): streamed datagen is bitwise
//! equivalent to materialized datagen in any generation order, and with
//! `stream_recs` — the report keeps no tables — the daily pipeline's peak
//! resident recommendation output is bounded by the largest single
//! retailer, sublinear in total fleet size. (The default config's peak, the
//! fleet sum, is pinned in `pipeline/src/daily.rs`.)

use sigmund_cluster::{CellSpec, PreemptionModel};
use sigmund_core::prelude::*;
use sigmund_datagen::{FleetSpec, RetailerData};
use sigmund_obs::ByteLedger;
use sigmund_pipeline::daily::load_recs;
use sigmund_pipeline::{data, PipelineConfig, SigmundService};
use sigmund_types::{CellId, ItemId, RetailerId};

fn fleet(n_retailers: usize) -> FleetSpec {
    FleetSpec {
        n_retailers,
        min_items: 20,
        max_items: 120,
        pareto_alpha: 1.1,
        users_per_item: 1.0,
        seed: 4242,
    }
}

/// Full `to_bits`-level equality: events, taxonomy shape, and every item's
/// metadata including the f32 price.
fn assert_data_identical(a: &RetailerData, b: &RetailerData) {
    assert_eq!(a.retailer(), b.retailer());
    assert_eq!(a.events, b.events, "{}: event logs differ", a.retailer());
    assert_eq!(a.catalog.len(), b.catalog.len());
    for i in 0..a.catalog.len() {
        let item = ItemId(i as u32);
        let (ma, mb) = (a.catalog.meta(item), b.catalog.meta(item));
        assert_eq!(
            ma.category,
            mb.category,
            "{}/{item}: category",
            a.retailer()
        );
        assert_eq!(ma.brand, mb.brand, "{}/{item}: brand", a.retailer());
        assert_eq!(
            ma.price.map(f32::to_bits),
            mb.price.map(f32::to_bits),
            "{}/{item}: price bits",
            a.retailer()
        );
        assert_eq!(ma.facet, mb.facet, "{}/{item}: facet", a.retailer());
    }
}

#[test]
fn streamed_fleet_is_bitwise_identical_to_materialized() {
    let spec = fleet(12);
    let materialized = spec.generate();
    assert_eq!(materialized.len(), 12);
    // Forward stream order.
    for (streamed, full) in spec.stream().zip(materialized.iter()) {
        assert_data_identical(&streamed, full);
    }
    // Reverse index order: per-retailer seeding means generation order is
    // irrelevant — retailer i's bytes never depend on retailers 0..i.
    for i in (0..12).rev() {
        let solo = spec.spec_of(i).generate();
        assert_data_identical(&solo, &materialized[i]);
    }
}

/// One-config service with a tracking byte ledger whose reports keep no
/// tables (`stream_recs`).
fn stream_service() -> SigmundService {
    let cfg = PipelineConfig {
        grid: GridSpec {
            factors: vec![8],
            learning_rates: vec![0.1],
            regs: vec![(0.01, 0.01)],
            features: vec![sigmund_types::FeatureSwitches::NONE],
            samplers: vec![sigmund_types::NegativeSamplerKind::UniformUnseen],
            seeds: vec![1],
            epochs: 2,
        },
        cells: vec![
            CellSpec::standard(CellId(0), 4),
            CellSpec::standard(CellId(1), 4),
        ],
        preemption: PreemptionModel::NONE,
        threads: 1,
        stream_recs: true,
        ledger: ByteLedger::tracking(),
        ..Default::default()
    };
    SigmundService::new(cfg)
}

/// Runs one streamed day over `n` retailers; returns the service plus the
/// per-retailer logical table sizes read back from the DFS.
fn run_fleet_day(n: usize) -> (SigmundService, Vec<u64>) {
    let mut svc = stream_service();
    for d in fleet(n).stream() {
        svc.onboard(&d.catalog, &d.events).unwrap();
    }
    let report = svc.run_day().unwrap();
    assert!(report.degraded.is_empty() && report.rejected.is_empty());
    assert!(
        report.recs.is_empty(),
        "stream_recs must not keep fleet tables in the report"
    );
    let sizes: Vec<u64> = (0..n)
        .map(|r| {
            let table = load_recs(&svc.dfs, CellId(0), RetailerId(r as u32)).unwrap();
            assert!(!table.is_empty());
            data::recs_logical_bytes(&table)
        })
        .collect();
    (svc, sizes)
}

#[test]
fn streaming_peak_is_bounded_by_largest_retailer() {
    let (svc, sizes) = run_fleet_day(30);
    let max = sizes.iter().copied().max().unwrap();
    let total: u64 = sizes.iter().sum();
    // The pinned invariant: peak resident output == the single largest
    // retailer's table, deterministically — not the fleet total.
    assert_eq!(svc.cfg.ledger.peak(), max);
    assert!(svc.cfg.ledger.peak() * 2 < total, "peak must be sublinear");
    assert_eq!(svc.cfg.ledger.current(), 0, "all charges released");
}

#[test]
fn streaming_peak_does_not_scale_with_fleet_size() {
    // Tripling the fleet triples total output but must not move the peak
    // beyond the capacity bound of the largest possible retailer — the
    // same invariant `cargo xtask bench-gate results/BENCH_fleet.json`
    // enforces on the committed trajectory.
    let (svc_small, sizes_small) = run_fleet_day(30);
    let (svc_large, sizes_large) = run_fleet_day(90);
    let bound = (48 + 16 * 10) * fleet(0).max_items as u64;
    assert!(svc_small.cfg.ledger.peak() <= bound);
    assert!(svc_large.cfg.ledger.peak() <= bound);
    let total_small: u64 = sizes_small.iter().sum();
    let total_large: u64 = sizes_large.iter().sum();
    assert!(
        total_large > 2 * total_small,
        "large fleet should produce ~3x the output ({total_large} vs {total_small})"
    );
    // Peak grows only with the largest retailer drawn, never the fleet.
    assert_eq!(
        svc_large.cfg.ledger.peak(),
        sizes_large.iter().copied().max().unwrap()
    );
}

#[test]
#[ignore = "1k-retailer soak; run with --ignored (fleet-smoke covers scale in CI via bench_fleet)"]
fn thousand_retailer_day_stays_bounded() {
    let (svc, sizes) = run_fleet_day(1000);
    let bound = (48 + 16 * 10) * fleet(0).max_items as u64;
    assert!(svc.cfg.ledger.peak() <= bound);
    assert_eq!(svc.cfg.ledger.peak(), sizes.iter().copied().max().unwrap());
}
