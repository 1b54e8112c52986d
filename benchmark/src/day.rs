//! One timed fleet-day and the checks on what it published.

use crate::clock::{wall_now, Tracer};
use sigmund_core::prelude::ItemRecs;
use sigmund_datagen::RetailerData;
use sigmund_pipeline::{
    data, journal, load_recs, DayReport, MonitorConfig, PipelineConfig, QualityMonitor,
    SigmundService,
};
use sigmund_serving::ServingStore;
use sigmund_types::{fnv1a64, CellId, RetailerId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A retailer's published table, shared between the checks and the store.
pub type Tables = BTreeMap<RetailerId, Arc<Vec<ItemRecs>>>;

/// The pipeline service plus the driver-side state a real deployment keeps
/// next to it: the serving store it publishes into and the quality monitor.
pub struct Fleet {
    pub svc: SigmundService,
    pub store: ServingStore,
    pub monitor: QualityMonitor,
}

impl Fleet {
    pub fn new(cfg: PipelineConfig) -> Self {
        Fleet {
            svc: SigmundService::new(cfg),
            store: ServingStore::new(),
            monitor: QualityMonitor::new(MonitorConfig::default()),
        }
    }
}

/// How a day takes in retailer data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// Sign every retailer up (day 0: full grid).
    Onboard,
    /// The nightly refresh of already onboarded retailers.
    Refresh,
}

/// What the output checks found for one day.
#[derive(Debug, Clone, Default)]
pub struct DayCheck {
    /// Retailers expected to publish.
    pub attempted: u64,
    /// Retailers without a fresh valid table.
    pub failed: u64,
    /// Fleet-mean hold-out MAP@10 of the published winners.
    pub map_at_10: f64,
    /// `fnv1a64` over the per-retailer checksums of every published recs
    /// blob, in retailer order: moves iff published bytes moved.
    pub digest: u64,
    pub problems: Vec<String>,
}

pub struct DayResult {
    /// Wall time of the timed sequence.
    pub wall_s: f64,
    pub report: DayReport,
    pub tables: Tables,
    pub check: DayCheck,
}

/// Runs the timed sequence of one fleet-day — ingest all → `run_day` →
/// `load_recs` all → `ServingStore::publish` → `QualityMonitor::record_day`
/// → `seal_day` — with a span around each call, then checks the outputs
/// (untimed).
pub fn timed_day(
    fleet: &mut Fleet,
    data: &[RetailerData],
    ingest: Ingest,
    tr: &Tracer,
) -> Result<DayResult, String> {
    let cell = CellId(0);
    let t0 = wall_now();
    let (ingested, _) = match ingest {
        Ingest::Onboard => tr.span("pipeline", "onboard", || {
            data.iter()
                .try_for_each(|d| fleet.svc.onboard(&d.catalog, &d.events))
        }),
        Ingest::Refresh => tr.span("pipeline", "refresh", || {
            data.iter()
                .try_for_each(|d| fleet.svc.refresh_data(&d.catalog, &d.events))
        }),
    };
    ingested.map_err(|e| format!("ingest: {e}"))?;
    let (report, _) = tr.span("pipeline", "run_day", || fleet.svc.run_day());
    let report = report.map_err(|e| format!("run_day: {e}"))?;
    let day = report.day;
    let (tables, _) = tr.span_of("pipeline", "load_recs", Some(day), None, || {
        let mut tables = Tables::new();
        for d in data {
            if let Ok(t) = load_recs(&fleet.svc.dfs, cell, d.retailer()) {
                tables.insert(d.retailer(), Arc::new(t));
            }
        }
        tables
    });
    tr.span_of("serving", "publish", Some(day), None, || {
        fleet.store.publish_shared(tables.clone())
    });
    let onboarded = fleet.svc.retailers().to_vec();
    tr.span_of("pipeline", "monitor", Some(day), None, || {
        fleet.monitor.record_day(&onboarded, &report)
    });
    let (sealed, _) = tr.span_of("pipeline", "seal_day", Some(day), None, || {
        let ops = journal::pack_ops(&[&fleet.monitor.to_bytes(), &fleet.store.meta_bytes()]);
        fleet.svc.seal_day(ops)
    });
    sealed.map_err(|e| format!("seal_day: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();

    let check = check_day(fleet, data, &report, &tables);
    Ok(DayResult {
        wall_s,
        report,
        tables,
        check,
    })
}

/// The output checks: nothing degraded or rejected; every retailer has a
/// table of exactly `n_items` entries; every list holds at most `k`
/// distinct in-catalog items. (Published lists are the hybrid head/tail
/// merge, which concatenates two `rec_order`-sorted lists — so the order
/// checked on them is "no duplicates", and `rec_order` itself is checked on
/// the shadow day's factorization lists.)
fn check_day(
    fleet: &Fleet,
    data: &[RetailerData],
    report: &DayReport,
    tables: &Tables,
) -> DayCheck {
    let k = fleet.svc.cfg.rec_k;
    let mut check = DayCheck {
        attempted: data.len() as u64,
        ..DayCheck::default()
    };
    let mut blob_sums = Vec::with_capacity(data.len() * 8);
    for d in data {
        let r = d.retailer();
        let n_items = d.catalog.len();
        let mut bad = None;
        if report.degraded.contains(&r) || report.rejected.contains(&r) {
            bad = Some("degraded or rejected".to_string());
        } else if !report.best.contains_key(&r) {
            bad = Some("no winning model".to_string());
        }
        match tables.get(&r) {
            None => bad = bad.or(Some("no published table".to_string())),
            Some(t) if t.len() != n_items => {
                bad = bad.or(Some(format!(
                    "table has {} entries, catalog {n_items}",
                    t.len()
                )));
            }
            Some(t) => {
                let malformed = t
                    .iter()
                    .flat_map(|recs| [&recs.view_based, &recs.purchase_based])
                    .any(|list| {
                        list.len() > k
                            || list.iter().any(|(i, _)| i.index() >= n_items)
                            || (1..list.len())
                                .any(|a| list[..a].iter().any(|(i, _)| *i == list[a].0))
                    });
                if malformed {
                    bad = bad.or(Some(
                        "a list is over-long, out of catalog or repeats an item".into(),
                    ));
                }
            }
        }
        match fleet.svc.dfs.peek(&data::recs_path(r)) {
            Some(blob) => blob_sums.extend_from_slice(&fnv1a64(&blob).to_le_bytes()),
            None => bad = bad.or(Some("no recs blob in the DFS".to_string())),
        }
        if let Some(why) = bad {
            check.failed += 1;
            check
                .problems
                .push(format!("day {} {r}: {why}", report.day));
        }
    }
    check.digest = fnv1a64(&blob_sums);
    let maps: Vec<f64> = report
        .best
        .values()
        .filter_map(|rec| rec.map_at_10())
        .collect();
    check.map_at_10 = maps.iter().sum::<f64>() / maps.len().max(1) as f64;
    check
}
