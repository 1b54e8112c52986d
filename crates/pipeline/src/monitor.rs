//! Fleet quality monitoring (Sections I and III-C promise that
//! "recommendation quality is monitored and maintained" with no manual
//! per-retailer attention — this is that machinery).
//!
//! The monitor ingests each [`DayReport`](crate::daily::DayReport), keeps a
//! per-retailer MAP@10 history, and raises typed alerts that an operator (or
//! an automated remediation like scheduling a full re-sweep) can act on:
//!
//! * **Regression** — today's selected model is significantly worse than the
//!   retailer's trailing baseline (bad data push, drifted hyper-parameters);
//! * **LowQuality** — the retailer has never produced a usable model (too
//!   little data; candidate for co-occurrence-only serving);
//! * **MissingModel** — the retailer is onboarded but model selection
//!   produced nothing today (pipeline bug or data loss);
//! * **EmptyRecommendations** — materialization coverage fell below the
//!   floor (candidate-selection starvation);
//! * **Degraded** — the retailer's pipeline exhausted its fault budget and
//!   is serving the previous published generation (fires on the transition
//!   in; **Recovered** fires when a fresh generation lands again);
//! * **Rejected** — the admission gate refused today's winning model
//!   (checksum failure, invalid snapshot, quality collapse); fires every
//!   rejected day since each day's gate decision is independent.

use crate::daily::DayReport;
use serde::Serialize;
use sigmund_obs::{AlertKind, ArgValue, HealthBus, HealthEvent, Level, Obs, Track};
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{RetailerId, SigmundError};
use std::collections::VecDeque;

/// Magic bytes opening a serialized monitor blob (see
/// [`QualityMonitor::to_bytes`]).
pub const MONITOR_MAGIC: &[u8; 4] = b"SGQM";
/// Current monitor snapshot format version.
pub const MONITOR_VERSION: u8 = 1;

/// A quality problem the monitor detected for one retailer on one day.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum QualityAlert {
    /// MAP dropped by more than the configured fraction vs the trailing mean.
    Regression {
        /// Affected retailer.
        retailer: RetailerId,
        /// Day the regression was observed.
        day: u32,
        /// Trailing-mean MAP@10 before today.
        baseline_map: f64,
        /// Today's MAP@10.
        today_map: f64,
    },
    /// The retailer's best model has never reached the quality floor.
    LowQuality {
        /// Affected retailer.
        retailer: RetailerId,
        /// Best MAP@10 ever observed.
        best_map: f64,
    },
    /// No model was selected for an onboarded retailer today.
    MissingModel {
        /// Affected retailer.
        retailer: RetailerId,
        /// Day it went missing.
        day: u32,
    },
    /// Too many items ended the day with empty recommendation lists.
    EmptyRecommendations {
        /// Affected retailer.
        retailer: RetailerId,
        /// Fraction of items with a non-empty view-based list.
        coverage: f64,
    },
    /// A previously [`QualityAlert::LowQuality`] or
    /// [`QualityAlert::Degraded`] retailer is healthy again.
    Recovered {
        /// Affected retailer.
        retailer: RetailerId,
        /// Day the recovery was observed.
        day: u32,
        /// Best MAP@10 ever observed (now above the floor).
        best_map: f64,
    },
    /// The retailer's pipeline exhausted its fault budget today: it keeps
    /// serving the previous published generation (fires on the transition
    /// into the degraded state; [`QualityAlert::Recovered`] fires on the way
    /// out).
    Degraded {
        /// Affected retailer.
        retailer: RetailerId,
        /// Day the degradation started.
        day: u32,
        /// Consecutive days the served generation has been stale.
        days_stale: u32,
    },
    /// The admission gate refused the retailer's winning model today; the
    /// previous published generation stays live (see
    /// [`crate::integrity::IntegrityConfig`]). Unlike
    /// [`QualityAlert::Degraded`] this fires on *every* rejected day — each
    /// day's gate decision is independent evidence of trouble.
    Rejected {
        /// Affected retailer.
        retailer: RetailerId,
        /// Day the model was rejected.
        day: u32,
    },
}

/// Fleet-wide quality rollup over the latest MAP@10 sample of every
/// retailer the monitor tracks (see [`QualityMonitor::fleet_summary`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct FleetSummary {
    /// Retailers with at least one recorded MAP sample.
    pub retailers: usize,
    /// Mean of the latest MAP@10 samples (0 if no retailers are tracked).
    pub mean_map: f64,
    /// Worst (minimum) latest MAP@10 sample (0 if no retailers are tracked).
    pub worst_map: f64,
}

/// Monitor configuration.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Relative MAP drop (vs trailing mean) that trips a regression alert.
    pub regression_drop: f64,
    /// Days of history the trailing mean uses.
    pub window: usize,
    /// MAP floor below which a retailer is flagged LowQuality.
    pub quality_floor: f64,
    /// Minimum fraction of items that must have recommendations.
    pub coverage_floor: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            regression_drop: 0.3,
            window: 7,
            quality_floor: 0.01,
            coverage_floor: 0.5,
        }
    }
}

/// Per-retailer rolling state. Deliberately *bounded*: the MAP ring keeps
/// only the `MonitorConfig::window` samples the regression baseline reads,
/// plus a running count — at fleet scale the monitor's footprint is a fixed
/// number of bytes per retailer, independent of how many days it has run
/// (DESIGN.md §12).
#[derive(Debug, Clone, Default)]
struct History {
    /// The last `window` MAP samples, oldest first.
    recent: VecDeque<f64>,
    /// Total MAP samples ever recorded (including ones evicted from the
    /// ring).
    samples: usize,
    best: f64,
    /// Whether the retailer is currently flagged low-quality. `LowQuality`
    /// fires only on the transition in; `Recovered` on the transition out.
    low_quality: bool,
    /// Whether the retailer is currently serving a stale (degraded)
    /// generation; same transition-in/out alert discipline.
    degraded: bool,
    /// Consecutive days the served generation has been stale.
    stale_days: u32,
}

impl History {
    /// Records a sample, evicting past the window (min 1, so the latest
    /// sample is always retained for the fleet summary).
    fn push_map(&mut self, map: f64, window: usize) {
        self.recent.push_back(map);
        while self.recent.len() > window.max(1) {
            self.recent.pop_front();
        }
        self.samples += 1;
    }

    /// Trailing mean over the retained window (`None` until a sample lands).
    fn baseline(&self) -> Option<f64> {
        if self.recent.is_empty() {
            return None;
        }
        Some(self.recent.iter().sum::<f64>() / self.recent.len() as f64)
    }
}

/// The fleet quality monitor.
#[derive(Debug, Default)]
pub struct QualityMonitor {
    cfg: MonitorConfig,
    /// Flat per-retailer arena indexed by the dense `RetailerId` (grown on
    /// first sight of a retailer; index order = retailer order, so fleet
    /// rollups stay deterministic).
    history: Vec<History>,
    /// Which arena slots have actually been touched (a grown-but-untracked
    /// slot must not count toward the fleet summary).
    tracked: Vec<bool>,
    /// Streaming health bus. Disabled by default, in which case every
    /// publish is a no-op and the monitor behaves exactly as before the
    /// bus existed.
    bus: HealthBus,
}

impl QualityMonitor {
    /// A monitor with the given thresholds (health bus disabled).
    pub fn new(cfg: MonitorConfig) -> Self {
        Self {
            cfg,
            history: Vec::new(),
            tracked: Vec::new(),
            bus: HealthBus::disabled(),
        }
    }

    /// A monitor that also streams per-retailer quality samples and alert
    /// transitions onto `bus` as [`HealthEvent`]s.
    pub fn with_bus(cfg: MonitorConfig, bus: HealthBus) -> Self {
        Self {
            bus,
            ..Self::new(cfg)
        }
    }

    /// The arena slot for `retailer`, growing the arena on first sight.
    fn hist_mut(&mut self, retailer: RetailerId) -> &mut History {
        let idx = retailer.index();
        if idx >= self.history.len() {
            self.history.resize_with(idx + 1, History::default);
            self.tracked.resize(idx + 1, false);
        }
        self.tracked[idx] = true;
        &mut self.history[idx]
    }

    fn hist(&self, retailer: RetailerId) -> Option<&History> {
        let idx = retailer.index();
        if *self.tracked.get(idx)? {
            self.history.get(idx)
        } else {
            None
        }
    }

    /// Ingests a day's report and returns the alerts it raised.
    pub fn record_day(
        &mut self,
        onboarded: &[(RetailerId, usize)],
        report: &DayReport,
    ) -> Vec<QualityAlert> {
        let cfg = self.cfg;
        let mut alerts = Vec::new();
        for &(retailer, _) in onboarded {
            // Admission-gate rejections fire every rejected day: each day's
            // gate decision is independent, and an operator watching the
            // alert stream must see how long the gate has been refusing.
            let rejected_today = report.rejected.contains(&retailer);
            if rejected_today {
                alerts.push(QualityAlert::Rejected {
                    retailer,
                    day: report.day,
                });
            }
            // Degradation next: the pipeline already vouched that the
            // previous generation is being served, so this is stale-model
            // territory, not a missing model.
            if report.degraded.contains(&retailer) {
                let hist = self.hist_mut(retailer);
                hist.stale_days += 1;
                if !hist.degraded {
                    hist.degraded = true;
                    alerts.push(QualityAlert::Degraded {
                        retailer,
                        day: report.day,
                        days_stale: hist.stale_days,
                    });
                }
                continue;
            }
            let Some(best) = report.best.get(&retailer) else {
                // A gate rejection with no previous generation to degrade to
                // already raised `Rejected`; piling MissingModel on top
                // would double-alert one root cause.
                if !rejected_today {
                    alerts.push(QualityAlert::MissingModel {
                        retailer,
                        day: report.day,
                    });
                }
                continue;
            };
            let map = best.metrics.map(|m| m.map_at_10).unwrap_or(0.0);
            let hist = self.hist_mut(retailer);
            if hist.degraded {
                hist.degraded = false;
                hist.stale_days = 0;
                alerts.push(QualityAlert::Recovered {
                    retailer,
                    day: report.day,
                    best_map: hist.best.max(map),
                });
            }

            // Regression vs trailing mean (needs some history). The ring
            // retains exactly the `window` samples the baseline reads, so
            // bounding it loses nothing.
            if hist.samples >= 2 {
                if let Some(baseline) = hist.baseline() {
                    if baseline > 0.0 && map < baseline * (1.0 - cfg.regression_drop) {
                        alerts.push(QualityAlert::Regression {
                            retailer,
                            day: report.day,
                            baseline_map: baseline,
                            today_map: map,
                        });
                    }
                }
            }
            hist.push_map(map, cfg.window);
            hist.best = hist.best.max(map);
            if hist.best < cfg.quality_floor {
                if !hist.low_quality {
                    hist.low_quality = true;
                    alerts.push(QualityAlert::LowQuality {
                        retailer,
                        best_map: hist.best,
                    });
                }
            } else if hist.low_quality {
                hist.low_quality = false;
                alerts.push(QualityAlert::Recovered {
                    retailer,
                    day: report.day,
                    best_map: hist.best,
                });
            }

            // Coverage of today's materialized recommendations.
            if let Some(recs) = report.recs.get(&retailer) {
                if !recs.is_empty() {
                    let covered = recs.iter().filter(|r| !r.view_based.is_empty()).count();
                    let coverage = covered as f64 / recs.len() as f64;
                    if coverage < cfg.coverage_floor {
                        alerts.push(QualityAlert::EmptyRecommendations { retailer, coverage });
                    }
                }
            }
        }
        alerts
    }

    /// Streams today's per-retailer quality samples and alert transitions
    /// onto the health bus. A no-op on a disabled bus, so this runs
    /// unconditionally — *before* any obs early-return — and a run with no
    /// bus attached stays byte-identical.
    fn publish_health(
        &self,
        onboarded: &[(RetailerId, usize)],
        report: &DayReport,
        alerts: &[QualityAlert],
        ts: f64,
    ) {
        if !self.bus.is_enabled() {
            return;
        }
        for &(retailer, _) in onboarded {
            // Degraded days serve yesterday's model: no fresh MAP sample.
            if report.degraded.contains(&retailer) {
                continue;
            }
            if let Some(best) = report.best.get(&retailer) {
                let map = best.metrics.map(|m| m.map_at_10).unwrap_or(0.0);
                self.bus.publish(HealthEvent::Quality {
                    ts,
                    day: report.day,
                    retailer: retailer.0,
                    map,
                });
            }
        }
        for alert in alerts {
            let (retailer, kind, value) = match alert {
                QualityAlert::Regression {
                    retailer,
                    today_map,
                    ..
                } => (*retailer, AlertKind::Regression, *today_map),
                QualityAlert::LowQuality { retailer, best_map } => {
                    (*retailer, AlertKind::LowQuality, *best_map)
                }
                QualityAlert::MissingModel { retailer, day } => {
                    (*retailer, AlertKind::MissingModel, f64::from(*day))
                }
                QualityAlert::EmptyRecommendations { retailer, coverage } => {
                    (*retailer, AlertKind::EmptyRecommendations, *coverage)
                }
                QualityAlert::Recovered {
                    retailer, best_map, ..
                } => (*retailer, AlertKind::Recovered, *best_map),
                QualityAlert::Degraded {
                    retailer,
                    days_stale,
                    ..
                } => (*retailer, AlertKind::Degraded, f64::from(*days_stale)),
                QualityAlert::Rejected { retailer, day } => {
                    (*retailer, AlertKind::Rejected, f64::from(*day))
                }
            };
            self.bus.publish(HealthEvent::Alert {
                ts,
                day: report.day,
                retailer: retailer.0,
                kind,
                value,
            });
        }
    }

    /// Like [`QualityMonitor::record_day`], but also emits each alert as a
    /// structured `monitor` event at virtual time `ts`, refreshes the
    /// fleet-health gauges, and streams quality samples + alerts onto the
    /// health bus (if one was attached via [`QualityMonitor::with_bus`]).
    pub fn record_day_obs(
        &mut self,
        onboarded: &[(RetailerId, usize)],
        report: &DayReport,
        obs: &Obs,
        ts: f64,
    ) -> Vec<QualityAlert> {
        let alerts = self.record_day(onboarded, report);
        self.publish_health(onboarded, report, &alerts, ts);
        if !obs.is_enabled() {
            return alerts;
        }
        for alert in &alerts {
            let (name, level, retailer, extra): (&str, Level, RetailerId, (&str, ArgValue)) =
                match alert {
                    QualityAlert::Regression {
                        retailer,
                        today_map,
                        ..
                    } => (
                        "regression",
                        Level::Warn,
                        *retailer,
                        ("today_map", (*today_map).into()),
                    ),
                    QualityAlert::LowQuality { retailer, best_map } => (
                        "low_quality",
                        Level::Warn,
                        *retailer,
                        ("best_map", (*best_map).into()),
                    ),
                    QualityAlert::MissingModel { retailer, day } => (
                        "missing_model",
                        Level::Warn,
                        *retailer,
                        ("day", (*day).into()),
                    ),
                    QualityAlert::EmptyRecommendations { retailer, coverage } => (
                        "empty_recommendations",
                        Level::Warn,
                        *retailer,
                        ("coverage", (*coverage).into()),
                    ),
                    QualityAlert::Recovered {
                        retailer, best_map, ..
                    } => (
                        "recovered",
                        Level::Info,
                        *retailer,
                        ("best_map", (*best_map).into()),
                    ),
                    QualityAlert::Degraded {
                        retailer,
                        days_stale,
                        ..
                    } => (
                        "degraded",
                        Level::Warn,
                        *retailer,
                        ("days_stale", (*days_stale).into()),
                    ),
                    QualityAlert::Rejected { retailer, day } => {
                        ("rejected", Level::Warn, *retailer, ("day", (*day).into()))
                    }
                };
            obs.instant(
                level,
                "monitor",
                name,
                Track::PIPELINE,
                ts,
                &[("retailer", retailer.0.into()), extra],
            );
        }
        obs.counter("monitor.alerts", alerts.len() as u64);
        let summary = self.fleet_summary();
        if summary.retailers > 0 {
            obs.gauge("monitor.fleet_mean_map", ts, summary.mean_map);
            obs.gauge("monitor.fleet_worst_map", ts, summary.worst_map);
        }
        alerts
    }

    /// Fleet summary over the latest MAP@10 sample of every tracked
    /// retailer.
    pub fn fleet_summary(&self) -> FleetSummary {
        // The arena iterates in dense-index (= retailer) order, so the mean
        // is bitwise reproducible by construction.
        let mut n = 0usize;
        let mut sum = 0.0;
        let mut worst = f64::INFINITY;
        for (h, &tracked) in self.history.iter().zip(&self.tracked) {
            if !tracked {
                continue;
            }
            if let Some(&latest) = h.recent.back() {
                n += 1;
                sum += latest;
                worst = worst.min(latest);
            }
        }
        if n == 0 {
            return FleetSummary::default();
        }
        FleetSummary {
            retailers: n,
            mean_map: sum / n as f64,
            worst_map: worst,
        }
    }

    /// Days of history recorded for a retailer (total samples, including
    /// ones evicted from the bounded window ring).
    pub fn days_tracked(&self, retailer: RetailerId) -> usize {
        self.hist(retailer).map_or(0, |h| h.samples)
    }

    /// Serializes the monitor's per-retailer state (not its thresholds —
    /// those are configuration the restoring driver supplies) to a
    /// checksummed little-endian blob, for stashing in a sealed journal
    /// manifest's `ops` payload (see [`crate::journal::pack_ops`]). No
    /// serde backend: crash recovery must work everywhere.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(MONITOR_MAGIC);
        w.u8(MONITOR_VERSION);
        let slots = self.history.iter().zip(&self.tracked);
        w.list(slots, |w, (h, &tracked)| {
            w.bool(tracked);
            w.list(h.recent.iter(), |w, &v| w.f64(v));
            w.u64(h.samples as u64);
            w.f64(h.best);
            w.bool(h.low_quality);
            w.bool(h.degraded);
            w.u32(h.stale_days);
        });
        w.seal()
    }

    /// Rebuilds a monitor from a [`QualityMonitor::to_bytes`] blob, with the
    /// caller's thresholds and health bus. Any truncation, bit flip, or
    /// trailing garbage is a clean [`SigmundError::Corrupt`] — never a panic
    /// — so recovery can fall back to a fresh monitor.
    ///
    /// # Errors
    /// [`SigmundError::Corrupt`] as above.
    pub fn from_bytes(cfg: MonitorConfig, bus: HealthBus, b: &[u8]) -> Result<Self, SigmundError> {
        let mut r = Reader::open_sealed("monitor snapshot", MONITOR_MAGIC, b)?;
        let version = r.u8("version")?;
        if version != MONITOR_VERSION {
            return Err(r.corrupt(format_args!("unknown version {version}")));
        }
        // A slot is at least its fixed fields around an empty ring.
        let n = r.len(27, "slot count")?;
        let mut history = Vec::with_capacity(n);
        let mut tracked = Vec::with_capacity(n);
        for _ in 0..n {
            tracked.push(r.bool("tracked flag")?);
            let recent = r.list(8, "ring length", |r| r.f64("ring sample"))?;
            let samples = usize::try_from(r.u64("sample count")?)
                .map_err(|_| r.corrupt("sample count range"))?;
            history.push(History {
                recent: recent.into(),
                samples,
                best: r.f64("best map")?,
                low_quality: r.bool("low-quality flag")?,
                degraded: r.bool("degraded flag")?,
                stale_days: r.u32("stale days")?,
            });
        }
        r.finish()?;
        Ok(Self {
            cfg,
            history,
            tracked,
            bus,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_cluster::CostMeter;
    use sigmund_core::inference::ItemRecs;
    use sigmund_types::{ConfigRecord, HyperParams, ItemId, ModelMetrics};
    use std::collections::BTreeMap;

    fn report(day: u32, entries: &[(u32, f64, usize, usize)]) -> DayReport {
        // entries: (retailer, map, items_total, items_covered)
        let mut best = BTreeMap::new();
        let mut recs = BTreeMap::new();
        for &(r, map, total, covered) in entries {
            let mut rec = ConfigRecord::cold(RetailerId(r), 0, HyperParams::default());
            rec.metrics = Some(ModelMetrics {
                map_at_10: map,
                ..Default::default()
            });
            best.insert(RetailerId(r), rec);
            let mut table = vec![ItemRecs::default(); total];
            for item in table.iter_mut().take(covered) {
                item.view_based = vec![(ItemId(0), 1.0)];
            }
            recs.insert(RetailerId(r), table);
        }
        DayReport {
            day,
            models_trained: entries.len(),
            train_makespan: 0.0,
            infer_makespan: 0.0,
            cost: CostMeter::default(),
            preemptions: 0,
            best,
            recs,
            train_stats: Vec::new(),
            infer_stats: Vec::new(),
            degraded: Vec::new(),
            rejected: Vec::new(),
        }
    }

    /// `report` with some retailers marked degraded.
    fn degraded_report(
        day: u32,
        entries: &[(u32, f64, usize, usize)],
        degraded: &[u32],
    ) -> DayReport {
        let mut rep = report(day, entries);
        rep.degraded = degraded.iter().map(|&r| RetailerId(r)).collect();
        rep
    }

    #[test]
    fn degraded_fires_on_transition_and_recovers() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        mon.record_day(&fleet, &report(0, &[(0, 0.3, 10, 10)]));
        // Two degraded days: one Degraded alert, on the transition in.
        let alerts = mon.record_day(&fleet, &degraded_report(1, &[], &[0]));
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::Degraded { retailer, day: 1, days_stale: 1 }]
                if *retailer == RetailerId(0)
        ));
        let alerts = mon.record_day(&fleet, &degraded_report(2, &[], &[0]));
        assert!(alerts.is_empty(), "no re-fire while degraded: {alerts:?}");
        // A fresh generation lands: Recovered, then silence.
        let alerts = mon.record_day(&fleet, &report(3, &[(0, 0.31, 10, 10)]));
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::Recovered { retailer, day: 3, .. }]
                if *retailer == RetailerId(0)
        ));
        let alerts = mon.record_day(&fleet, &report(4, &[(0, 0.3, 10, 10)]));
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn degraded_days_do_not_pollute_map_history() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        mon.record_day(&fleet, &report(0, &[(0, 0.3, 10, 10)]));
        mon.record_day(&fleet, &degraded_report(1, &[], &[0]));
        // The degraded day records no MAP sample (the served model is
        // yesterday's): one real day tracked so far, not two.
        assert_eq!(mon.days_tracked(RetailerId(0)), 1);
    }

    #[test]
    fn rejected_fires_every_day_and_suppresses_missing_model() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        mon.record_day(&fleet, &report(0, &[(0, 0.3, 10, 10)]));
        // Gate rejection with a previous generation: Rejected (every day)
        // plus Degraded (transition edge only).
        let mut rep = degraded_report(1, &[], &[0]);
        rep.rejected = vec![RetailerId(0)];
        let alerts = mon.record_day(&fleet, &rep);
        assert!(
            alerts
                .iter()
                .any(|a| matches!(a, QualityAlert::Rejected { day: 1, .. })),
            "{alerts:?}"
        );
        assert!(
            alerts
                .iter()
                .any(|a| matches!(a, QualityAlert::Degraded { .. })),
            "{alerts:?}"
        );
        // Second rejected day: Rejected re-fires, Degraded does not.
        let mut rep = degraded_report(2, &[], &[0]);
        rep.rejected = vec![RetailerId(0)];
        let alerts = mon.record_day(&fleet, &rep);
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::Rejected { day: 2, .. }]
        ));
        // Rejection with no previous generation to serve (not degraded):
        // Rejected alone — MissingModel would double-alert one root cause.
        let obs = Obs::recording(Level::Debug);
        let mut rep = report(3, &[]);
        rep.rejected = vec![RetailerId(0)];
        let alerts = mon.record_day_obs(&fleet, &rep, &obs, 99.0);
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::Rejected { day: 3, .. }]
        ));
        assert!(obs.trace_json().contains("rejected"));
    }

    #[test]
    fn regression_fires_after_history() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        // Two good days, then a crash.
        assert!(mon
            .record_day(&fleet, &report(0, &[(0, 0.3, 10, 10)]))
            .is_empty());
        assert!(mon
            .record_day(&fleet, &report(1, &[(0, 0.31, 10, 10)]))
            .is_empty());
        let alerts = mon.record_day(&fleet, &report(2, &[(0, 0.05, 10, 10)]));
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::Regression { today_map, .. }] if *today_map == 0.05
        ));
    }

    #[test]
    fn small_fluctuations_do_not_alert() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        mon.record_day(&fleet, &report(0, &[(0, 0.30, 10, 10)]));
        mon.record_day(&fleet, &report(1, &[(0, 0.28, 10, 10)]));
        let alerts = mon.record_day(&fleet, &report(2, &[(0, 0.26, 10, 10)]));
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn missing_model_alerts() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10), (RetailerId(1), 10)];
        let alerts = mon.record_day(&fleet, &report(0, &[(0, 0.2, 10, 10)]));
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::MissingModel { retailer, .. }] if *retailer == RetailerId(1)
        ));
    }

    #[test]
    fn low_quality_flags_hopeless_retailers() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        let alerts = mon.record_day(&fleet, &report(0, &[(0, 0.001, 10, 10)]));
        assert!(alerts
            .iter()
            .any(|a| matches!(a, QualityAlert::LowQuality { .. })));
        // Clearing the floor emits a single Recovered transition.
        let alerts = mon.record_day(&fleet, &report(1, &[(0, 0.2, 10, 10)]));
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::Recovered { best_map, .. }] if *best_map == 0.2
        ));
        // Steady state afterwards is silent.
        let alerts = mon.record_day(&fleet, &report(2, &[(0, 0.21, 10, 10)]));
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn low_quality_fires_once_per_transition() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        let alerts = mon.record_day(&fleet, &report(0, &[(0, 0.001, 10, 10)]));
        assert_eq!(
            alerts
                .iter()
                .filter(|a| matches!(a, QualityAlert::LowQuality { .. }))
                .count(),
            1
        );
        // Still below the floor: no re-fire.
        for day in 1..4 {
            let alerts = mon.record_day(&fleet, &report(day, &[(0, 0.002, 10, 10)]));
            assert!(alerts.is_empty(), "day {day}: {alerts:?}");
        }
    }

    #[test]
    fn regression_then_recovery_sequence() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        // Build a baseline above the floor, crash below it, then recover.
        // `best` stays above the floor throughout, so the only alert in the
        // sequence is the regression itself — recovery of a *regression* is
        // implicit in the trailing mean, not a LowQuality state change.
        mon.record_day(&fleet, &report(0, &[(0, 0.30, 10, 10)]));
        mon.record_day(&fleet, &report(1, &[(0, 0.32, 10, 10)]));
        let crash = mon.record_day(&fleet, &report(2, &[(0, 0.05, 10, 10)]));
        assert!(matches!(
            crash.as_slice(),
            [QualityAlert::Regression { .. }]
        ));
        let back = mon.record_day(&fleet, &report(3, &[(0, 0.31, 10, 10)]));
        assert!(back.is_empty(), "{back:?}");
    }

    #[test]
    fn fleet_summary_empty_history() {
        let mon = QualityMonitor::default();
        assert_eq!(mon.fleet_summary(), FleetSummary::default());
    }

    #[test]
    fn record_day_obs_emits_alert_events_and_gauges() {
        let obs = Obs::recording(Level::Debug);
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        let alerts = mon.record_day_obs(&fleet, &report(0, &[(0, 0.001, 10, 10)]), &obs, 42.0);
        assert_eq!(alerts.len(), 1);
        let trace = obs.trace_json();
        assert!(trace.contains("low_quality"), "{trace}");
        let metrics = obs.metrics().unwrap();
        assert_eq!(metrics.counter("monitor.alerts"), 1);
        assert!(metrics.gauge("monitor.fleet_mean_map").is_some());
        // Recovery shows up as an Info event.
        mon.record_day_obs(&fleet, &report(1, &[(0, 0.4, 10, 10)]), &obs, 43.0);
        assert!(obs.trace_json().contains("recovered"));
    }

    #[test]
    fn monitor_snapshot_round_trips_and_preserves_behavior() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10), (RetailerId(1), 10)];
        // Build interesting state: history, a low-quality flag, degradation.
        mon.record_day(&fleet, &report(0, &[(0, 0.30, 10, 10), (1, 0.001, 10, 10)]));
        mon.record_day(&fleet, &degraded_report(1, &[(1, 0.002, 10, 10)], &[0]));
        let blob = mon.to_bytes();
        let mut back =
            QualityMonitor::from_bytes(MonitorConfig::default(), HealthBus::disabled(), &blob)
                .unwrap();
        assert_eq!(back.fleet_summary(), mon.fleet_summary());
        assert_eq!(back.days_tracked(RetailerId(0)), 1);
        // The restored monitor continues exactly like the original: retailer
        // 0 recovers from degradation (transition alert), retailer 1 stays
        // silently low-quality (no re-fire).
        let next = report(2, &[(0, 0.31, 10, 10), (1, 0.002, 10, 10)]);
        assert_eq!(
            back.record_day(&fleet, &next),
            mon.record_day(&fleet, &next)
        );
        assert_eq!(back.to_bytes(), mon.to_bytes());
    }

    #[test]
    fn monitor_snapshot_rejects_corruption_cleanly() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        mon.record_day(&fleet, &report(0, &[(0, 0.3, 10, 10)]));
        let blob = mon.to_bytes();
        let parse = |b: &[u8]| {
            QualityMonitor::from_bytes(MonitorConfig::default(), HealthBus::disabled(), b)
        };
        for len in 0..blob.len() {
            assert!(parse(&blob[..len]).is_err(), "truncation to {len} parsed");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 1;
            assert!(parse(&bad).is_err(), "bit flip at byte {i} parsed");
        }
        let mut bad = blob.clone();
        bad.push(0);
        assert!(parse(&bad).is_err(), "trailing garbage parsed");
        assert!(parse(&blob).is_ok());
    }

    #[test]
    fn coverage_floor_alerts() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10)];
        let alerts = mon.record_day(&fleet, &report(0, &[(0, 0.2, 10, 2)]));
        assert!(matches!(
            alerts.as_slice(),
            [QualityAlert::EmptyRecommendations { coverage, .. }] if *coverage < 0.5
        ));
    }

    #[test]
    fn history_ring_is_bounded_by_the_window() {
        let cfg = MonitorConfig::default();
        let mut mon = QualityMonitor::new(cfg);
        let fleet = vec![(RetailerId(0), 10)];
        for day in 0..50 {
            mon.record_day(&fleet, &report(day, &[(0, 0.3, 10, 10)]));
        }
        assert_eq!(
            mon.days_tracked(RetailerId(0)),
            50,
            "count survives eviction"
        );
        let hist = mon.hist(RetailerId(0)).unwrap();
        assert_eq!(
            hist.recent.len(),
            cfg.window,
            "ring never grows past the regression window"
        );
    }

    #[test]
    fn fleet_summary_tracks_latest() {
        let mut mon = QualityMonitor::new(MonitorConfig::default());
        let fleet = vec![(RetailerId(0), 10), (RetailerId(1), 10)];
        mon.record_day(&fleet, &report(0, &[(0, 0.2, 10, 10), (1, 0.4, 10, 10)]));
        let summary = mon.fleet_summary();
        assert_eq!(summary.retailers, 2);
        assert!((summary.mean_map - 0.3).abs() < 1e-12);
        assert!((summary.worst_map - 0.2).abs() < 1e-12);
        assert_eq!(mon.days_tracked(RetailerId(0)), 1);
        assert_eq!(mon.days_tracked(RetailerId(9)), 0);
    }

    #[test]
    fn monitor_streams_quality_and_alerts_onto_the_bus() {
        let bus = HealthBus::bounded(64);
        let mut cursor = bus.subscribe();
        let mut mon = QualityMonitor::with_bus(MonitorConfig::default(), bus);
        let fleet = vec![(RetailerId(0), 10)];
        // The bus publishes even with obs disabled — the two layers are
        // independent.
        mon.record_day_obs(
            &fleet,
            &report(0, &[(0, 0.001, 10, 10)]),
            &Obs::disabled(),
            5.0,
        );
        let (lost, events) = cursor.poll();
        assert_eq!(lost, 0);
        assert!(
            matches!(
                events.as_slice(),
                [
                    HealthEvent::Quality { ts: q_ts, day: 0, retailer: 0, map },
                    HealthEvent::Alert { kind: AlertKind::LowQuality, .. },
                ] if *q_ts == 5.0 && *map == 0.001
            ),
            "{events:?}"
        );
        // A degraded day publishes no Quality sample, only the alert.
        mon.record_day_obs(
            &fleet,
            &degraded_report(1, &[], &[0]),
            &Obs::disabled(),
            6.0,
        );
        let (_, events) = cursor.poll();
        assert!(
            matches!(
                events.as_slice(),
                [HealthEvent::Alert { kind: AlertKind::Degraded, value, .. }] if *value == 1.0
            ),
            "{events:?}"
        );
    }
}
