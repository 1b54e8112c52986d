//! The daily Sigmund service cycle (Sections II-A, IV, V).
//!
//! One virtual "day" is a fold over five phases (DESIGN.md §18): plan
//! (model GC + sweep) → train (one MapReduce per cell) → select (model
//! selection + admission gate) → infer (one MapReduce per cell) → publish.
//! New retailers get a full grid; existing retailers get the warm-started
//! incremental sweep over their top-K configs; everything runs at
//! pre-emptible priority with time-interval checkpointing.
//!
//! Cells execute in (virtual) parallel: a phase's makespan is the max over
//! its per-cell jobs, while cost is the sum.
//!
//! Recommendation tables take one path (DESIGN.md §12): every inference
//! split leaves its rows as an `SGRC` part blob, and the publish phase
//! stitches, encodes and writes `/recs/r<r>` one retailer at a time — peak
//! resident output is bounded by the largest single retailer, not the
//! fleet. [`PipelineConfig::stream_recs`] only decides whether the report
//! also keeps the stitched tables. A [`ByteLedger`] makes the peak a
//! deterministic, testable number (logical bytes, never RSS).

use crate::binpack::{partition_greedy, Weighted};
use crate::chaos::ChaosConfig;
use crate::cost_model::CostModel;
use crate::data;
use crate::infer_job::{make_splits, InferenceJob};
use crate::integrity::{IntegrityConfig, RejectReason};
use crate::journal::{self, DayManifest, Phase};
use crate::sweep;
use crate::train_job::TrainJob;
use sigmund_cluster::{CellSpec, CostMeter, PreemptionModel, Priority};
use sigmund_core::prelude::*;
use sigmund_dfs::{Dfs, FaultStats, IntegrityStats};
use sigmund_mapreduce::{permute, run_map_job_obs, JobConfig, JobStats};
use sigmund_obs::{ByteLedger, HealthBus, HealthEvent, Level, Obs, Track};
use sigmund_types::{Catalog, ConfigRecord, Interaction, ItemId, RetailerId, SigmundError};
use std::collections::{BTreeMap, BTreeSet};

/// Retry budget for pipeline map tasks (real clusters cap retries; a split
/// that cannot finish within any sampled pre-emption budget must not hang
/// the daily run).
pub const MAX_TASK_ATTEMPTS: u32 = 200;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The data centers available.
    pub cells: Vec<CellSpec>,
    /// Pre-emption hazard for the offline jobs.
    pub preemption: PreemptionModel,
    /// Hyper-parameter grid for full sweeps.
    pub grid: GridSpec,
    /// Configs kept per retailer for incremental sweeps (paper: "typically 3").
    pub keep_top: usize,
    /// Epochs for warm-started incremental runs.
    pub incremental_epochs: u32,
    /// SGD threads per training task. 1 (the default) is exact,
    /// reproducible SGD, and the day's real cores go to running that many
    /// independent models at once (`SigmundService::train_workers`).
    /// More is the explicit Hogwild opt-in — racy by design, slower than 1
    /// on small retailers — and divides the worker budget.
    pub threads: usize,
    /// Scoped worker threads per inference map task. Unlike Hogwild, this
    /// never changes outputs — inference is read-only (DESIGN.md §8).
    pub infer_threads: usize,
    /// Virtual seconds between training checkpoints.
    pub checkpoint_interval: f64,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Recommendations materialized per item and surface.
    pub rec_k: usize,
    /// Items per inference split.
    pub items_per_split: usize,
    /// Master seed.
    pub seed: u64,
    /// Observability handle; the disabled default records nothing.
    pub obs: Obs,
    /// Fault-injection knobs; the disabled default is provably transparent
    /// (see [`ChaosConfig`] and `tests/chaos.rs`).
    pub chaos: ChaosConfig,
    /// Pre-publish admission gate; the default admits everything healthy
    /// and is byte-identical to [`IntegrityConfig::disabled`] on clean runs
    /// (see DESIGN.md §10 and `tests/chaos.rs`).
    pub integrity: IntegrityConfig,
    /// Streaming fleet-health bus: phase completions, gate rejections,
    /// degradation and per-day fault deltas are published here as they
    /// happen. The disabled default makes every publish a no-op, so runs
    /// without a bus stay byte-identical (DESIGN.md §11).
    pub bus: HealthBus,
    /// Whether [`DayReport::recs`] is left empty. There is one publish path
    /// either way (DESIGN.md §12, §18): inference splits sink their rows to
    /// DFS part blobs and the publish phase stitches and writes one
    /// retailer at a time. `true` drops each table once it is durable, so
    /// resident output is bounded by the largest retailer instead of the
    /// fleet — read tables back with [`load_recs`]. The `false` default
    /// also keeps every published table (and its ledger charge) for the
    /// report, which is what small-fleet callers read.
    pub stream_recs: bool,
    /// Logical-bytes accounting for materialized recommendation tables.
    /// The disabled default records nothing; [`ByteLedger::tracking`] makes
    /// peak footprint a deterministic gauge (never wall-clock RSS).
    pub ledger: ByteLedger,
    /// Durable day journal for crash–restart recovery (DESIGN.md §14): a
    /// checksummed manifest under `/journal/` rewritten at every phase
    /// boundary of [`SigmundService::run_day`], plus per-retailer publish
    /// markers, so [`SigmundService::recover`] can rebuild the service and
    /// re-run an interrupted day byte-identically. The `false` default
    /// writes nothing and is byte-invisible; even when enabled the journal
    /// emits no obs events, so traces are unchanged.
    pub journal: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            cells: vec![
                CellSpec::standard(sigmund_types::CellId(0), 8),
                CellSpec::standard(sigmund_types::CellId(1), 8),
            ],
            preemption: PreemptionModel::typical(),
            grid: GridSpec::small(),
            keep_top: 3,
            incremental_epochs: 3,
            threads: 1,
            infer_threads: 1,
            checkpoint_interval: 300.0,
            cost: CostModel::default(),
            rec_k: 10,
            items_per_split: 500,
            seed: 11,
            obs: Obs::disabled(),
            chaos: ChaosConfig::disabled(),
            integrity: IntegrityConfig::default(),
            bus: HealthBus::disabled(),
            stream_recs: false,
            ledger: ByteLedger::disabled(),
            journal: false,
        }
    }
}

/// What one daily run produced.
#[derive(Debug, Clone)]
pub struct DayReport {
    /// Day index (0 = first).
    pub day: u32,
    /// Models trained today.
    pub models_trained: usize,
    /// Training phase makespan (max over cells), virtual seconds.
    pub train_makespan: f64,
    /// Inference phase makespan, virtual seconds.
    pub infer_makespan: f64,
    /// Total metered cost across phases and cells.
    pub cost: CostMeter,
    /// Total pre-emptions absorbed.
    pub preemptions: u64,
    /// Winning config per retailer.
    pub best: BTreeMap<RetailerId, ConfigRecord>,
    /// The tables published today, per retailer, indexed by item id — the
    /// same rows [`load_recs`] decodes from `/recs/r<r>`. Empty under
    /// [`PipelineConfig::stream_recs`], where tables live only in the DFS.
    pub recs: BTreeMap<RetailerId, Vec<ItemRecs>>,
    /// Per-cell training job stats.
    pub train_stats: Vec<JobStats>,
    /// Per-cell inference job stats.
    pub infer_stats: Vec<JobStats>,
    /// Retailers that exhausted their fault budget today and kept serving
    /// yesterday's published generation (sorted; empty without chaos).
    pub degraded: Vec<RetailerId>,
    /// Retailers whose winning model was refused by the admission gate
    /// (checksum failure, invalid snapshot, or quality collapse); a subset
    /// of `degraded` whenever a previous generation exists. Sorted; empty
    /// on clean runs.
    pub rejected: Vec<RetailerId>,
}

/// The long-running service state.
pub struct SigmundService {
    /// Configuration.
    pub cfg: PipelineConfig,
    /// The shared filesystem (exposed for serving-layer loads and tests).
    pub dfs: Dfs,
    day: u32,
    /// (retailer, catalog size), onboarding order.
    retailers: Vec<(RetailerId, usize)>,
    /// Retailers that signed up since the last run.
    new_since_last_run: Vec<RetailerId>,
    /// Previous run's annotated config records.
    last_outputs: Vec<ConfigRecord>,
    /// The service's virtual clock: advances to the end of each day's
    /// offline work (days are laid out back-to-back on one timeline).
    virtual_now: f64,
    /// Injected-fault totals at the end of the previous day (delta source
    /// for the per-day chaos counters).
    fault_stats_seen: FaultStats,
    /// Last admission-gate-accepted MAP@10, indexed by dense `RetailerId`
    /// (baseline for the relative quality-collapse check). NaN = no
    /// accepted baseline yet; a flat arena instead of a map keeps the
    /// per-retailer carry-forward state O(1) words each at fleet scale.
    last_accepted_map: Vec<f64>,
    /// DFS integrity totals at the end of the previous day (delta source
    /// for the per-day `integrity.*` counters).
    integrity_seen: IntegrityStats,
    /// Retailers whose recommendation tables the interrupted day already
    /// published durably (from the journal's publish markers): the resumed
    /// day re-computes everything but skips re-writing exactly these blobs.
    /// Cleared after the resumed day's publish phase; empty outside
    /// recovery.
    resume_publish_done: BTreeSet<RetailerId>,
}

/// One day's in-flight state, threaded through the phase functions by
/// [`SigmundService::run_day`]: each phase reads what earlier phases left
/// and fills in its own fields; the close-out turns it into a [`DayReport`].
#[derive(Default)]
struct Day {
    /// Per-day seed derived from the master seed.
    seed: u64,
    /// Virtual time the day's work starts at.
    start: f64,
    /// plan → train: today's config records, output paths stamped.
    records: Vec<ConfigRecord>,
    /// plan: retailers the sweep planned work for.
    planned: BTreeSet<RetailerId>,
    /// plan: models planned today.
    models_trained: usize,
    /// train: annotated records of the models that finished.
    outputs: Vec<ConfigRecord>,
    train_stats: Vec<JobStats>,
    train_makespan: f64,
    /// train + infer: metered cost and pre-emptions absorbed.
    cost: CostMeter,
    preemptions: u64,
    /// select: winning config per retailer, gate rejections removed.
    best: BTreeMap<RetailerId, ConfigRecord>,
    rejected: Vec<RetailerId>,
    infer_stats: Vec<JobStats>,
    infer_makespan: f64,
    /// infer: retailers with at least one abandoned split.
    infer_failed: BTreeSet<RetailerId>,
    /// publish: retailers left on their previous generation (sorted).
    degraded: Vec<RetailerId>,
    /// publish: the tables the report keeps (`!stream_recs`).
    recs: BTreeMap<RetailerId, Vec<ItemRecs>>,
    recs_published: u64,
}

impl Day {
    /// Virtual time the training phase ends and selection/inference start.
    fn trained_at(&self) -> f64 {
        self.start + self.train_makespan
    }

    /// Virtual time the day's offline work ends.
    fn end(&self) -> f64 {
        self.start + self.train_makespan + self.infer_makespan
    }
}

/// One phase of the day: the journal mark written once the phase is durable,
/// its name in a crash report, and the function.
type PhaseStep = (Phase, &'static str, fn(&mut SigmundService, &mut Day));

/// The day, in order (DESIGN.md §18).
const PHASES: [PhaseStep; 5] = [
    (Phase::SweepPlanned, "plan", SigmundService::plan),
    (Phase::Trained, "train", SigmundService::train),
    (Phase::Selected, "select", SigmundService::select),
    (Phase::Inferred, "infer", SigmundService::infer),
    (Phase::Published, "publish", SigmundService::publish),
];

/// What [`SigmundService::recover`] rebuilt from durable state.
pub struct Recovered {
    /// The recovered service, ready to run its next day.
    pub service: SigmundService,
    /// True iff a day was interrupted mid-run: the caller must call
    /// [`SigmundService::run_day`] to re-execute it (completed phases are
    /// deterministic overwrites; already-published tables are skipped via
    /// the journal's publish markers).
    pub mid_day: bool,
    /// The day the next [`SigmundService::run_day`] call will run — the
    /// interrupted day when `mid_day`, otherwise the first fresh day.
    pub day: u32,
    /// The driver's opaque payload from the last sealed day (see
    /// [`SigmundService::seal_day`] and [`crate::journal::pack_ops`]):
    /// monitor and serving metadata the pipeline itself never parses.
    /// `None` when no day has been sealed yet.
    pub ops_state: Option<Vec<u8>>,
}

impl SigmundService {
    /// A fresh service with no retailers.
    ///
    /// A non-noop [`ChaosConfig::plan`] attaches a seeded fault injector to
    /// the DFS; the noop plan builds a plain `Dfs` with no injector at all,
    /// so the disabled harness cannot perturb anything.
    pub fn new(cfg: PipelineConfig) -> Self {
        assert!(!cfg.cells.is_empty(), "need at least one cell");
        let dfs = if cfg.chaos.plan.is_noop() {
            Dfs::new()
        } else {
            Dfs::with_faults(cfg.chaos.plan.clone())
        };
        Self {
            cfg,
            dfs,
            day: 0,
            retailers: Vec::new(),
            new_since_last_run: Vec::new(),
            last_outputs: Vec::new(),
            virtual_now: 0.0,
            fault_stats_seen: FaultStats::default(),
            last_accepted_map: Vec::new(),
            integrity_seen: IntegrityStats::default(),
            resume_publish_done: BTreeSet::new(),
        }
    }

    /// Current virtual time (seconds since the service started; the end of
    /// the last completed day's work).
    pub fn virtual_now(&self) -> f64 {
        self.virtual_now
    }

    /// Signs a retailer up: publishes its catalog and events and schedules a
    /// full grid for the next run.
    ///
    /// # Errors
    /// [`SigmundError::Invalid`] if the catalog fails to serialize; the
    /// retailer is not onboarded in that case.
    pub fn onboard(
        &mut self,
        catalog: &Catalog,
        events: &[Interaction],
    ) -> Result<(), SigmundError> {
        let home = self.cfg.cells[self.retailers.len() % self.cfg.cells.len()].cell;
        data::publish_retailer(&self.dfs, home, catalog, events)?;
        self.retailers.push((catalog.retailer, catalog.len()));
        self.new_since_last_run.push(catalog.retailer);
        self.cfg.obs.instant(
            Level::Info,
            "pipeline",
            &format!("onboard {}", catalog.retailer),
            Track::PIPELINE,
            self.virtual_now,
            &[
                ("items", catalog.len().into()),
                ("events", events.len().into()),
                ("home_cell", home.0.into()),
            ],
        );
        Ok(())
    }

    /// Replaces a retailer's event log (the nightly data refresh). The
    /// catalog may also have grown; republish both.
    ///
    /// # Errors
    /// [`SigmundError::Invalid`] if the catalog fails to serialize; the
    /// previously published data is left untouched in that case.
    pub fn refresh_data(
        &mut self,
        catalog: &Catalog,
        events: &[Interaction],
    ) -> Result<(), SigmundError> {
        let home = self
            .dfs
            .home_of(&data::train_path(catalog.retailer))
            .unwrap_or(self.cfg.cells[0].cell);
        data::publish_retailer(&self.dfs, home, catalog, events)?;
        if let Some(slot) = self
            .retailers
            .iter_mut()
            .find(|(r, _)| *r == catalog.retailer)
        {
            slot.1 = catalog.len();
        }
        self.cfg.obs.instant(
            Level::Debug,
            "pipeline",
            &format!("data refresh {}", catalog.retailer),
            Track::PIPELINE,
            self.virtual_now,
            &[
                ("items", catalog.len().into()),
                ("events", events.len().into()),
            ],
        );
        Ok(())
    }

    /// Retailers currently onboarded.
    pub fn retailers(&self) -> &[(RetailerId, usize)] {
        &self.retailers
    }

    /// Runs one daily cycle: the day-start journal mark, then a fold over
    /// the phase list — each phase a private method over the day's [`Day`]
    /// state, followed by the one crash check and journal mark every phase
    /// boundary shares — then the close-out (DESIGN.md §18).
    ///
    /// # Errors
    /// [`SigmundError::Crashed`] if the kill-point fired: the day's outputs
    /// are discarded, the day counter does not advance, and
    /// [`SigmundService::recover`] re-runs the day from the journal.
    pub fn run_day(&mut self) -> Result<DayReport, SigmundError> {
        if let Some(inj) = self.dfs.injector() {
            inj.begin_day(self.day);
        }
        // Snapshot the day's *inputs* before anything mutates them (the plan
        // phase drains `new_since_last_run`): recovery re-executes an
        // interrupted day from this snapshot, and deterministic overwrites
        // make the re-run idempotent (DESIGN.md §14).
        let mut manifest = self.cfg.journal.then(|| self.manifest_now(Phase::Planned));
        self.journal_mark(manifest.as_mut(), Phase::Planned)?;
        let mut day = Day {
            seed: self.cfg.seed.wrapping_add(self.day as u64 * 0x9E37),
            start: self.virtual_now,
            ..Day::default()
        };
        for (mark, name, phase) in PHASES {
            phase(self, &mut day);
            // The simulated process is dead once the kill-point fires, and
            // nothing inside a phase (task retries, graceful degradation)
            // may absorb that into a "successful" day.
            self.check_crash(name)?;
            self.journal_mark(manifest.as_mut(), mark)?;
        }
        Ok(self.close_day(day))
    }

    /// Phase 1 — plan: model-generation GC, then the sweep. Leaves today's
    /// config records (output paths stamped) in `day.records`.
    fn plan(&mut self, day: &mut Day) {
        // Running the GC at day *start* (not day end) is load-bearing for
        // crash recovery: a partially applied GC can only have deleted blobs
        // the re-run never reads, so recovery's sweep by the same rule
        // converges to the same tree (DESIGN.md §14).
        for path in self.unreferenced_models() {
            // xtask: allow(error-swallow) — GC of a superseded model generation is best-effort; an undeletable blob is retried at the next day boundary, and a crash fault is caught at the phase boundary
            let _ = self.dfs.delete(&path);
        }
        // A new retailer whose catalog stays unreadable within the retry
        // budget keeps its place in `new_since_last_run`: it has no previous
        // records to carry forward, so dropping it here would leave it
        // untrained forever instead of getting tomorrow's full grid.
        let signed_up = std::mem::take(&mut self.new_since_last_run);
        let mut new_catalogs: Vec<Catalog> = Vec::with_capacity(signed_up.len());
        for &r in &signed_up {
            match data::retry_op(|| data::load_catalog(&self.dfs, self.cfg.cells[0].cell, r)) {
                Ok(catalog) => new_catalogs.push(catalog),
                Err(_) => self.new_since_last_run.push(r),
            }
        }
        let new_refs: Vec<&Catalog> = new_catalogs.iter().collect();
        let mut records = sweep::incremental_sweep(
            &self.last_outputs,
            self.cfg.keep_top,
            self.cfg.incremental_epochs,
            &new_refs,
            &self.cfg.grid,
            day.seed,
        );
        // Stamp today's output location into every planned record. The sweep
        // copied `warm_start_path` from yesterday's (already day-stamped)
        // `model_path` before this loop runs, so only where today's blob
        // lands moves — never where the warm start reads from. Without the
        // stamp the two would alias and a mid-day crash after the model
        // write would poison the recovery re-run (DESIGN.md §14).
        for rec in &mut records {
            rec.model_path = data::model_path(rec.model.retailer, rec.model.config, self.day);
        }
        let warm_models = records
            .iter()
            .filter(|r| r.warm_start_path.is_some())
            .count();
        self.cfg.obs.instant(
            Level::Info,
            "pipeline",
            "sweep plan",
            Track::PIPELINE,
            day.start,
            &[
                ("warm_models", warm_models.into()),
                ("cold_models", (records.len() - warm_models).into()),
                ("new_retailers", signed_up.len().into()),
            ],
        );
        // Which retailers the sweep planned work for: a planned retailer
        // whose configs all fail keeps its previous records alive so the
        // next day's incremental sweep retrains (and recovers) it.
        day.planned = records.iter().map(|r| r.model.retailer).collect();
        day.models_trained = records.len();
        day.records = records;
    }

    /// Packs retailers onto cells by estimated training work, migrates
    /// their data to the chosen cell (Section IV-B1) and permutes each
    /// cell's records. Both per-retailer tables are flat arenas indexed by
    /// the dense `RetailerId` — one word per retailer instead of a tree
    /// node, and index order *is* sorted-id order, so the packing input is
    /// the same as a sorted map's.
    fn place(&self, records: Vec<ConfigRecord>, day_seed: u64) -> Vec<Vec<ConfigRecord>> {
        let n_slots = records
            .iter()
            .map(|r| r.model.retailer.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut work_per_retailer: Vec<f64> = vec![f64::NAN; n_slots];
        for r in &records {
            let bytes = self
                .dfs
                .read(self.cfg.cells[0].cell, &r.train_path)
                .map(|b| b.len())
                .unwrap_or(0);
            let add = r.epochs() as f64 * (bytes / 17) as f64;
            let slot = &mut work_per_retailer[r.model.retailer.0 as usize];
            *slot = if slot.is_nan() { add } else { *slot + add };
        }
        let weighted: Vec<Weighted<RetailerId>> = work_per_retailer
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.is_nan())
            .map(|(i, &weight)| Weighted {
                item: RetailerId(i as u32),
                weight,
            })
            .collect();
        let bins = partition_greedy(&weighted, self.cfg.cells.len());
        let mut cell_of: Vec<usize> = vec![0; n_slots];
        for (ci, bin) in bins.iter().enumerate() {
            for w in bin {
                cell_of[w.item.0 as usize] = ci;
                // xtask: allow(error-swallow) — placement is best-effort: a failed migrate leaves the blob readable in its home cell
                let _ = self
                    .dfs
                    .migrate(&data::train_path(w.item), self.cfg.cells[ci].cell);
            }
        }
        let mut per_cell: Vec<Vec<ConfigRecord>> = vec![Vec::new(); self.cfg.cells.len()];
        for r in records {
            let ci = cell_of
                .get(r.model.retailer.0 as usize)
                .copied()
                .unwrap_or(0);
            per_cell[ci].push(r);
        }
        for (ci, recs) in per_cell.iter_mut().enumerate() {
            *recs = permute(recs, day_seed ^ ci as u64);
        }
        per_cell
    }

    /// The one [`JobConfig`] both MapReduce phases run under: pre-emptible
    /// priority on cell `ci`, with the chaos knobs (retry cap, backoff,
    /// storms, flaky-machine policy) applied.
    fn job_config(&self, ci: usize, seed: u64, start: f64) -> JobConfig {
        JobConfig {
            cell: self.cfg.cells[ci].clone(),
            priority: Priority::Preemptible,
            preemption: self.cfg.preemption,
            seed,
            max_attempts: Some(self.cfg.chaos.max_attempts.unwrap_or(MAX_TASK_ATTEMPTS)),
            backoff: self.cfg.chaos.backoff,
            storms: self.cfg.chaos.storms_for(ci, self.day, start),
            flaky: self.cfg.chaos.flaky,
        }
    }

    /// Phase 2 — train: place the planned records, then one training
    /// MapReduce per cell. Cells run in (virtual) parallel: the phase's
    /// makespan is the max over its jobs, its cost their sum.
    fn train(&mut self, day: &mut Day) {
        let per_cell = self.place(std::mem::take(&mut day.records), day.seed);
        for (ci, recs) in per_cell.into_iter().enumerate() {
            if recs.is_empty() {
                continue;
            }
            let mut job = TrainJob::new(&self.dfs, self.cfg.cells[ci].cell, recs, self.cfg.cost);
            job.threads = self.cfg.threads;
            job.checkpoint_interval = self.cfg.checkpoint_interval;
            let stats = run_map_job_obs(
                &job,
                job.n_splits(),
                &self.job_config(ci, day.seed ^ ((ci as u64) << 8), day.start),
                &format!("train cell {ci}"),
                &self.cfg.obs,
                day.start,
                self.train_workers(),
            );
            day.outputs.extend(job.take_outputs());
            day.cost.merge(&stats.cost);
            day.preemptions += stats.preemptions;
            day.train_makespan = day.train_makespan.max(stats.makespan);
            day.train_stats.push(stats);
        }
        let trained_at = day.trained_at();
        self.cfg.obs.span(
            Level::Info,
            "pipeline",
            "train phase",
            Track::PIPELINE,
            day.start,
            trained_at,
            &[("models", day.models_trained.into())],
        );
        self.cfg.bus.publish(HealthEvent::Phase {
            ts: trained_at,
            day: self.day,
            phase: "train",
            makespan_s: day.train_makespan,
        });
    }

    /// Phase 3 — select: the best config per retailer, then the admission
    /// gate — the last check before a model's recommendations can go LIVE.
    /// Every winner is re-read from the DFS (storage checksum catches torn
    /// or bit-flipped blobs), its snapshot validated (parseable garbage) and
    /// the quality gate applied (degenerate models). A rejected winner is
    /// removed from `day.best`, which routes its retailer through the
    /// publish phase's graceful degradation.
    fn select(&mut self, day: &mut Day) {
        let trained_at = day.trained_at();
        day.best = sweep::top_k_per_retailer(&day.outputs, 1)
            .into_iter()
            .map(|r| (r.model.retailer, r))
            .collect();
        self.cfg.obs.instant(
            Level::Info,
            "pipeline",
            "model selection",
            Track::PIPELINE,
            trained_at,
            &[
                ("candidates", day.outputs.len().into()),
                ("winners", day.best.len().into()),
            ],
        );
        if !self.cfg.integrity.gate {
            return;
        }
        let winners: Vec<RetailerId> = day.best.keys().copied().collect();
        for r in winners {
            match self.admit(&day.best[&r]) {
                Ok(Some(map)) => self.set_last_accepted(r, map),
                Ok(None) => {}
                Err(reason) => {
                    self.cfg.obs.instant(
                        Level::Warn,
                        "integrity",
                        &format!("reject {r}"),
                        Track::PIPELINE,
                        trained_at,
                        &[("reason", reason.label().into())],
                    );
                    self.cfg
                        .bus
                        .publish(reason.health_event(trained_at, self.day, r));
                    day.rejected.push(r);
                    day.best.remove(&r);
                }
            }
        }
    }

    /// Phase 4 — infer: bin-pack the day's winners by *item count*
    /// (Section IV-C1), then one inference MapReduce per cell over
    /// contiguous item-range splits. Every finished split leaves its rows
    /// as an `SGRC` part blob for the publish phase to stitch.
    fn infer(&mut self, day: &mut Day) {
        let trained_at = day.trained_at();
        let weighted_items: Vec<Weighted<RetailerId>> = self
            .retailers
            .iter()
            .filter(|(r, _)| day.best.contains_key(r))
            .map(|(r, n)| Weighted {
                item: *r,
                weight: *n as f64,
            })
            .collect();
        let bins = partition_greedy(&weighted_items, self.cfg.cells.len());
        for (ci, bin) in bins.iter().enumerate() {
            if bin.is_empty() {
                continue;
            }
            let counts: Vec<(RetailerId, usize)> =
                bin.iter().map(|w| (w.item, w.weight as usize)).collect();
            let splits = make_splits(&counts, self.cfg.items_per_split);
            let split_retailers: Vec<RetailerId> = splits.iter().map(|s| s.retailer).collect();
            // Each cell's job only ever looks up its own bin's retailers, so
            // hand it just those records — cloning the full fleet's winner
            // map per cell is O(cells × retailers) for nothing.
            let bin_best: BTreeMap<RetailerId, ConfigRecord> = bin
                .iter()
                .filter_map(|w| day.best.get(&w.item).map(|rec| (w.item, rec.clone())))
                .collect();
            let cell = self.cfg.cells[ci].cell;
            let mut job = InferenceJob::new(&self.dfs, cell, splits, bin_best, self.cfg.cost);
            job.k = self.cfg.rec_k;
            job.threads = self.cfg.infer_threads;
            let stats = run_map_job_obs(
                &job,
                job.n_splits(),
                &self.job_config(ci, day.seed ^ 0xFACE ^ ((ci as u64) << 16), trained_at),
                &format!("infer cell {ci}"),
                &self.cfg.obs,
                trained_at,
                // One engine worker: the job fans out inside each split
                // over `infer_threads`, and both at once would exceed it.
                1,
            );
            // A retailer with an abandoned split has an incomplete part
            // set; the publish phase degrades it instead of stitching.
            day.infer_failed
                .extend(stats.failed.iter().map(|t| split_retailers[t.index()]));
            day.cost.merge(&stats.cost);
            day.preemptions += stats.preemptions;
            day.infer_makespan = day.infer_makespan.max(stats.makespan);
            day.infer_stats.push(stats);
        }
        let day_end = day.end();
        self.cfg.obs.span(
            Level::Info,
            "pipeline",
            "infer phase",
            Track::PIPELINE,
            trained_at,
            day_end,
            &[("retailers", weighted_items.len().into())],
        );
        self.cfg.bus.publish(HealthEvent::Phase {
            ts: day_end,
            day: self.day,
            phase: "infer",
            makespan_s: day.infer_makespan,
        });
    }

    /// Phase 5 — publish: graceful degradation, then the one writer of
    /// `/recs/r*` (DESIGN.md §12). One retailer at a time, in id order:
    /// stitch its table from the part blobs, encode, write, drop — so
    /// resident output is bounded by the largest single retailer, and the
    /// ledger charge makes that peak a measurable, deterministic number.
    fn publish(&mut self, day: &mut Day) {
        let day_end = day.end();
        // A retailer whose model selection or inference exhausted its fault
        // budget keeps serving the previous published generation: its DFS
        // recs are left untouched, it is excluded from today's batch, and it
        // is reported so the monitor can raise `QualityAlert::Degraded`.
        for (r, _) in &self.retailers {
            let failed_today = !day.best.contains_key(r) || day.infer_failed.contains(r);
            if failed_today && self.dfs.exists(&data::recs_path(*r)) {
                day.degraded.push(*r);
            }
        }
        let mut publishable: Vec<(RetailerId, usize)> = self
            .retailers
            .iter()
            .filter(|(r, _)| day.best.contains_key(r) && !day.degraded.contains(r))
            .copied()
            .collect();
        publishable.sort_unstable_by_key(|(r, _)| *r);
        // Charges for the tables the report keeps (`!stream_recs`): held to
        // the end of the phase, so the ledger peaks at the fleet sum there
        // and at the largest single table otherwise.
        let mut retained = Vec::new();
        for (r, n) in publishable {
            // A table is published whole or not at all: holes would replace
            // a good previous generation with silently empty rows.
            let Some(table) = self.stitch(r, n) else {
                day.degraded.push(r);
                continue;
            };
            let charge = self.cfg.ledger.charge(data::recs_logical_bytes(&table));
            let blob = data::encode_recs(&table);
            // A resumed day skips exactly the tables the crashed run already
            // made durable (journal publish markers); the re-computed bytes
            // are identical, so skipping the write changes nothing but the
            // op count. Injected write faults are transient: retry within
            // the budget, then degrade the retailer (previous generation
            // stays live) rather than fail the whole day.
            if !self.resume_publish_done.contains(&r) {
                let path = data::recs_path(r);
                let home = self.cfg.cells[0].cell;
                if data::retry_op(|| self.dfs.write(home, &path, blob.clone())).is_err() {
                    day.degraded.push(r);
                    continue;
                }
                self.journal_publish_marker(r);
            }
            day.recs_published += n as u64;
            self.cfg.obs.instant(
                Level::Debug,
                "pipeline",
                &format!("publish {r}"),
                Track::PIPELINE,
                day_end,
                &[("items", n.into())],
            );
            if !self.cfg.stream_recs {
                day.recs.insert(r, table);
                retained.push(charge);
            }
        }
        self.sweep_part_blobs();
        day.degraded.sort_unstable();
    }

    /// Stitches retailer `r`'s `n`-row table from the part blobs its
    /// inference splits wrote, each read within the driver retry budget.
    /// `None` if any part is missing (its split was abandoned), stays
    /// unreadable, or fails to decode — the caller degrades the retailer.
    fn stitch(&self, r: RetailerId, n: usize) -> Option<Vec<ItemRecs>> {
        let mut table: Vec<ItemRecs> = Vec::with_capacity(n);
        for start in (0..n).step_by(self.cfg.items_per_split) {
            let part = data::recs_part_path(r, start as u32);
            let cell = self.dfs.home_of(&part)?;
            let rows = data::retry_op(|| {
                self.dfs
                    .read(cell, &part)
                    .and_then(|bytes| data::decode_recs(&bytes))
            })
            .ok()?;
            table.extend(rows);
        }
        (table.len() == n).then_some(table)
    }

    /// The part-blob scratch rule, in its one place: everything under
    /// `/recs_parts/` — parts and the `/TMP` siblings a crashed writer left
    /// behind alike — is deleted, by listing rather than by walking today's
    /// roster, so leftovers of degraded retailers, a changed
    /// `items_per_split` or a shrunken roster go too. Called at the end of
    /// every publish phase and by [`SigmundService::recover`].
    fn sweep_part_blobs(&self) {
        for path in self.dfs.list(data::RECS_PARTS_PREFIX) {
            // xtask: allow(error-swallow) — scratch GC is best-effort: a surviving part is overwritten or swept by the next day's publish phase, and a crash is caught at the phase boundary
            let _ = self.dfs.delete(&path);
        }
    }

    /// Chaos summary for the day: the injected-fault delta since the
    /// previous day. Only emitted when an injector is attached, so runs
    /// without one (including the all-zero plan, which never builds an
    /// injector) stay byte-identical to the pre-chaos pipeline.
    fn fault_summary(&mut self, degraded: usize, day_end: f64) -> FaultStats {
        let Some(s) = self.dfs.injector().map(|inj| inj.stats()) else {
            return FaultStats::default();
        };
        let prev = self.fault_stats_seen;
        let delta = FaultStats {
            read_errors: s.read_errors - prev.read_errors,
            write_errors: s.write_errors - prev.write_errors,
            torn_reads: s.torn_reads - prev.torn_reads,
            partition_blocks: s.partition_blocks - prev.partition_blocks,
            bit_flips: s.bit_flips - prev.bit_flips,
            crashes: s.crashes - prev.crashes,
        };
        let obs = &self.cfg.obs;
        obs.counter("chaos.read_errors", delta.read_errors);
        obs.counter("chaos.write_errors", delta.write_errors);
        obs.counter("chaos.torn_reads", delta.torn_reads);
        obs.counter("chaos.partition_blocks", delta.partition_blocks);
        obs.counter("chaos.degraded_retailer_days", degraded as u64);
        obs.instant(
            Level::Info,
            "chaos",
            &format!("day {} fault summary", self.day),
            Track::CHAOS,
            day_end,
            &[
                ("read_errors", delta.read_errors.into()),
                ("write_errors", delta.write_errors.into()),
                ("torn_reads", delta.torn_reads.into()),
                ("partition_blocks", delta.partition_blocks.into()),
                ("degraded", degraded.into()),
            ],
        );
        self.fault_stats_seen = s;
        delta
    }

    /// The close-out every completed day shares: fault, integrity and fleet
    /// summaries, the virtual clock, the carry-forward records and the
    /// [`DayReport`].
    fn close_day(&mut self, day: Day) -> DayReport {
        let obs = self.cfg.obs.clone();
        let bus = self.cfg.bus.clone();
        let day_end = day.end();
        // The resume skip-set only ever applies to the recovered day.
        self.resume_publish_done.clear();
        for r in &day.degraded {
            bus.publish(HealthEvent::Degraded {
                ts: day_end,
                day: self.day,
                retailer: r.0,
            });
        }
        obs.counter("pipeline.recs_published", day.recs_published);
        obs.counter("pipeline.days", 1);
        obs.counter("pipeline.preemptions", day.preemptions);
        let fault_delta = self.fault_summary(day.degraded.len(), day_end);
        // Integrity summary: emitted only when something could have changed
        // the outcome (an injector is attached, a model was rejected, or a
        // checksum actually failed), so clean runs emit nothing and stay
        // byte-identical to the pre-gate pipeline.
        let integ = self.dfs.integrity_stats();
        let checksum_delta = integ.checksum_failures - self.integrity_seen.checksum_failures;
        if self.dfs.injector().is_some() || !day.rejected.is_empty() || checksum_delta > 0 {
            obs.counter("integrity.rejected", day.rejected.len() as u64);
            obs.counter("integrity.checksum_failures", checksum_delta);
        }
        self.integrity_seen = integ;
        // One per-day fault/integrity delta event for the live dashboard —
        // published even on clean days (zeros), so a watcher can tell "no
        // faults" from "no data". The disabled default bus makes this a
        // no-op, keeping busless runs byte-identical.
        bus.publish(HealthEvent::Faults {
            ts: day_end,
            day: self.day,
            read_errors: fault_delta.read_errors,
            write_errors: fault_delta.write_errors,
            torn_reads: fault_delta.torn_reads,
            checksum_failures: checksum_delta,
        });
        // Fleet-scale summary for the live dashboard: published even without
        // a ledger (peak 0) so a watcher always sees retailers/day. The
        // obs gauge is ledger-gated to keep ledgerless traces byte-identical.
        bus.publish(HealthEvent::Fleet {
            ts: day_end,
            day: self.day,
            retailers: self.retailers.len(),
            makespan_s: day.train_makespan + day.infer_makespan,
            peak_logical_bytes: self.cfg.ledger.peak(),
        });
        if self.cfg.ledger.is_enabled() {
            obs.gauge(
                "pipeline.peak_logical_bytes",
                day_end,
                self.cfg.ledger.peak() as f64,
            );
        }
        obs.gauge(
            "pipeline.models_trained",
            day_end,
            day.models_trained as f64,
        );
        obs.gauge("pipeline.train_makespan_s", day_end, day.train_makespan);
        obs.gauge("pipeline.infer_makespan_s", day_end, day.infer_makespan);
        obs.gauge("pipeline.cost_cpu_s", day_end, day.cost.total_cpu_s());
        obs.span(
            Level::Info,
            "pipeline",
            &format!("day {}", self.day),
            Track::PIPELINE,
            day.start,
            day_end,
            &[
                ("models_trained", day.models_trained.into()),
                ("preemptions", day.preemptions.into()),
                ("retailers", self.retailers.len().into()),
            ],
        );
        // Advance the virtual clock; a no-work day still takes nominal time
        // so successive days never share a timestamp.
        self.virtual_now = if day_end > day.start {
            day_end
        } else {
            day.start + 1.0
        };
        // Carry forward yesterday's records for planned retailers whose
        // training produced nothing today (fault-budget exhaustion):
        // tomorrow's incremental sweep then retrains them instead of
        // silently dropping them from the fleet forever.
        let trained: BTreeSet<RetailerId> = day.outputs.iter().map(|r| r.model.retailer).collect();
        let mut next_outputs = day.outputs;
        for rec in &self.last_outputs {
            if day.planned.contains(&rec.model.retailer) && !trained.contains(&rec.model.retailer) {
                next_outputs.push(rec.clone());
            }
        }
        self.last_outputs = next_outputs;
        let report = DayReport {
            day: self.day,
            models_trained: day.models_trained,
            train_makespan: day.train_makespan,
            infer_makespan: day.infer_makespan,
            cost: day.cost,
            preemptions: day.preemptions,
            best: day.best,
            recs: day.recs,
            train_stats: day.train_stats,
            infer_stats: day.infer_stats,
            degraded: day.degraded,
            rejected: day.rejected,
        };
        self.day += 1;
        report
    }

    /// The model-GC rule, in its one place: every `/models/` blob that no
    /// carried record references is a superseded generation. Carried
    /// records (including carry-forwards for degraded retailers) pin exactly
    /// the day-stamped generations the next warm starts read. Both the
    /// day-start sweep in [`SigmundService::run_day`] and
    /// [`SigmundService::recover`] delete exactly this list, which is what
    /// makes a crash-interrupted sweep converge (DESIGN.md §14).
    fn unreferenced_models(&self) -> Vec<String> {
        let referenced: BTreeSet<&str> = self
            .last_outputs
            .iter()
            .map(|r| r.model_path.as_str())
            .collect();
        let mut models = self.dfs.list("/models/");
        models.retain(|path| !referenced.contains(path.as_str()));
        models
    }

    /// Snapshot of the service's carry-forward state as a journal manifest.
    fn manifest_now(&self, phase: Phase) -> DayManifest {
        DayManifest {
            day: self.day,
            phase,
            virtual_now: self.virtual_now,
            retailers: self
                .retailers
                .iter()
                .map(|(r, n)| (*r, *n as u64))
                .collect(),
            new_since_last_run: self.new_since_last_run.clone(),
            last_accepted_map: self.last_accepted_map.clone(),
            last_outputs: self.last_outputs.clone(),
            ops: Vec::new(),
        }
    }

    /// Rewrites the day's journal manifest at a phase boundary (tmp +
    /// rename; no-op when the journal is off). A crash propagates — it is
    /// sticky and the day must unwind — while any other failure is
    /// absorbed: journal durability is best-effort, and a lost manifest
    /// only widens recovery's re-run window, never fails the day.
    fn journal_mark(
        &self,
        manifest: Option<&mut DayManifest>,
        phase: Phase,
    ) -> Result<(), SigmundError> {
        let Some(m) = manifest else { return Ok(()) };
        m.phase = phase;
        match journal::write_manifest(&self.dfs, self.cfg.cells[0].cell, m) {
            Err(e @ SigmundError::Crashed(_)) => Err(e),
            _ => Ok(()),
        }
    }

    /// Records a durable per-retailer publish (no-op when the journal is
    /// off). Marker durability is best-effort: a lost marker only makes a
    /// resumed day rewrite one identical table, and a crash mid-marker is
    /// caught at the publish phase boundary.
    fn journal_publish_marker(&self, r: RetailerId) {
        if !self.cfg.journal {
            return;
        }
        // xtask: allow(error-swallow) — marker loss only costs one idempotent re-publish on resume; crashes are caught at the phase boundary
        let _ = journal::write_publish_marker(&self.dfs, self.cfg.cells[0].cell, self.day, r);
    }

    /// How many training tasks (independent single-model SGD runs) compute
    /// at once: the machine's cores divided among `threads`-wide tasks. The
    /// engine further clamps it to the cell's machines and the split count,
    /// and to 1 under a storm schedule. Derived, not configured — outputs,
    /// `JobStats`, traces and virtual makespans do not depend on it.
    ///
    /// A `Dfs` carrying a fault injector gets 1: kill-points and rate
    /// faults are keyed by per-day DFS *op index*, so the order in which
    /// concurrent attempts reach the filesystem would be observable
    /// (lifting this needs faults keyed by logical identity — ROADMAP 6a).
    fn train_workers(&self) -> usize {
        if self.dfs.injector().is_some() {
            return 1;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        (cores / self.cfg.threads.max(1)).max(1)
    }

    /// Unwinds the day if the kill-point has fired.
    fn check_crash(&self, at: &str) -> Result<(), SigmundError> {
        if self.dfs.crashed() {
            return Err(SigmundError::Crashed(format!(
                "kill-point fired during day {} {at}",
                self.day
            )));
        }
        Ok(())
    }

    /// Seals the previous [`SigmundService::run_day`] in the journal: the
    /// day's manifest is overwritten with the *post*-day snapshot plus the
    /// driver's opaque `ops` payload (monitor and serving metadata — see
    /// [`crate::journal::pack_ops`]), and the prior day's sealed manifest
    /// and this day's publish markers are garbage-collected. Call it after
    /// the driver has applied the day's report to its own state; recovery
    /// hands `ops` back verbatim via [`Recovered::ops_state`].
    ///
    /// No-op when [`PipelineConfig::journal`] is off.
    ///
    /// # Errors
    /// [`SigmundError::Invalid`] if no day has completed yet;
    /// [`SigmundError::Crashed`] if the kill-point fires mid-seal.
    pub fn seal_day(&mut self, ops: Vec<u8>) -> Result<(), SigmundError> {
        if !self.cfg.journal {
            return Ok(());
        }
        let Some(day) = self.day.checked_sub(1) else {
            return Err(SigmundError::Invalid(
                "seal_day before any completed day".into(),
            ));
        };
        let mut m = self.manifest_now(Phase::Sealed);
        m.day = day;
        m.ops = ops;
        if let Err(e @ SigmundError::Crashed(_)) =
            journal::write_manifest(&self.dfs, self.cfg.cells[0].cell, &m)
        {
            return Err(e);
        }
        if let Some(prev) = day.checked_sub(1) {
            if self.dfs.exists(&journal::manifest_path(prev)) {
                // xtask: allow(error-swallow) — GC is best-effort: recovery keeps only the newest sealed manifest anyway
                let _ = self.dfs.delete(&journal::manifest_path(prev));
            }
        }
        for path in self.dfs.list(journal::MARKER_PREFIX) {
            // xtask: allow(error-swallow) — GC is best-effort: recovery ignores markers from any day but the interrupted one
            let _ = self.dfs.delete(&path);
        }
        self.check_crash("seal")
    }

    /// Rebuilds a service from durable state after a (simulated) process
    /// death: the restart + recover half of crash–restart recovery
    /// (DESIGN.md §14).
    ///
    /// The old DFS handle is [`Dfs::restart`]ed — files, retained previous
    /// versions and replica homes carry over; the sticky crash, traffic
    /// counters and integrity counters do not, and the kill-point is
    /// stripped from the plan so the revived process does not die at the
    /// same op again. The journal is then scanned *offline* (checksums
    /// verified, torn blobs GC'd) to restore the carry-forward arenas:
    /// retailer roster, pending full-grid sweeps, previous outputs, and
    /// admission baselines — with their original values, so freshness and
    /// quality gates never lie about age.
    ///
    /// If a day was interrupted mid-run ([`Recovered::mid_day`]), its
    /// manifest holds the day-*start* snapshot and the next
    /// [`SigmundService::run_day`] re-executes the whole day: completed
    /// phases are deterministic overwrites, tables the crashed run already
    /// published are skipped via their markers, and stranded scratch state
    /// (training checkpoints, recommendation part blobs, journal tmp
    /// blobs) is GC'd here so the re-run cannot see it.
    ///
    /// Calling this on a healthy, sealed journal (or with
    /// [`crate::ChaosConfig::disabled`] and no prior crash) is
    /// byte-invisible: the recovered service continues exactly where the
    /// original would have (asserted in `tests/chaos.rs`).
    ///
    /// # Errors
    /// None today; the `Result` reserves the right to fail on future
    /// journal versions.
    pub fn recover(dfs: &Dfs, cfg: PipelineConfig) -> Result<Recovered, SigmundError> {
        let mut cfg = cfg;
        cfg.chaos.plan.crash_at = None;
        cfg.journal = true;
        let bus = cfg.bus.clone();
        let fresh = dfs.restart(cfg.chaos.plan.clone());

        // Offline journal scan: `peek` bypasses any injector, and every
        // manifest verifies its own embedded checksum, so a torn tmp blob
        // or a bit flip is rejected (and GC'd) instead of replayed.
        // `list` returns paths in sorted order and day numbers are
        // zero-padded, so "latest" is simply "last seen".
        let mut stale: Vec<String> = Vec::new();
        let mut sealed: Option<DayManifest> = None;
        let mut inprog: Option<DayManifest> = None;
        for path in fresh.list(journal::MANIFEST_PREFIX) {
            if path.rsplit('/').next() == Some("TMP") {
                stale.push(path);
                continue;
            }
            let parsed = fresh
                .peek(&path)
                .and_then(|b| DayManifest::from_bytes(&b).ok());
            match parsed {
                Some(m) if m.phase == Phase::Sealed => {
                    if let Some(old) = sealed.take() {
                        stale.push(journal::manifest_path(old.day));
                    }
                    sealed = Some(m);
                }
                Some(m) => {
                    if let Some(old) = inprog.take() {
                        stale.push(journal::manifest_path(old.day));
                    }
                    inprog = Some(m);
                }
                None => stale.push(path),
            }
        }
        // An "in-progress" manifest for a day the latest seal already
        // covers is a GC leftover, not an interrupted day.
        if let (Some(s), Some(p)) = (&sealed, &inprog) {
            if p.day <= s.day {
                stale.push(journal::manifest_path(p.day));
                inprog = None;
            }
        }

        let mut svc = SigmundService::new(cfg);
        svc.dfs = fresh;
        let ops_state = sealed.as_ref().map(|m| m.ops.clone());
        if let Some(m) = inprog.as_ref().or(sealed.as_ref()) {
            svc.day = if m.phase == Phase::Sealed {
                m.day + 1
            } else {
                m.day
            };
            svc.virtual_now = m.virtual_now;
            svc.retailers = m.retailers.iter().map(|(r, n)| (*r, *n as usize)).collect();
            svc.new_since_last_run = m.new_since_last_run.clone();
            svc.last_accepted_map = m.last_accepted_map.clone();
            svc.last_outputs = m.last_outputs.clone();
        }

        let mid_day = inprog.is_some();
        if let Some(p) = &inprog {
            // Publish markers from the interrupted day feed the resume
            // skip-set; markers from any other day are stale.
            let day_prefix = format!("{}{:08}/", journal::MARKER_PREFIX, p.day);
            for path in svc.dfs.list(journal::MARKER_PREFIX) {
                match path
                    .strip_prefix(&day_prefix)
                    .and_then(|rest| rest.strip_prefix('r'))
                    .and_then(|id| id.parse::<u32>().ok())
                {
                    Some(id) => {
                        svc.resume_publish_done.insert(RetailerId(id));
                    }
                    None => stale.push(path),
                }
            }
            // A half-run day may have stranded training checkpoints and
            // recommendation part blobs. The re-run must start from clean
            // inputs: a leftover checkpoint would make retraining resume
            // mid-stream and diverge from the uninterrupted run.
            stale.extend(svc.dfs.list("/ckpt/"));
            svc.sweep_part_blobs();
            // Model blobs the crashed day already wrote (or superseded
            // generations its start-of-day GC had not finished deleting)
            // are stale too: the baseline keeps exactly the referenced set
            // at every day boundary, so deleting everything else reproduces
            // the uninterrupted run's day-start model tree byte-for-byte
            // (DESIGN.md §14). Last in `stale`: the delete order is part of
            // the crash-sweep's op indexing.
            stale.extend(svc.unreferenced_models());
        } else {
            stale.extend(svc.dfs.list(journal::MARKER_PREFIX));
        }
        for path in &stale {
            // xtask: allow(error-swallow) — recovery GC is best-effort: an undeletable blob is simply re-scanned (and re-ignored) next recovery
            let _ = svc.dfs.delete(path);
        }

        // Announce the recovery on the health bus *before* any enablement
        // checks — bus and obs layers are independent, and the disabled
        // default bus makes this a no-op (byte-invisible on clean runs).
        bus.publish(HealthEvent::Recovered {
            ts: svc.virtual_now,
            day: svc.day,
            mid_day,
        });
        Ok(Recovered {
            mid_day,
            day: svc.day,
            ops_state,
            service: svc,
        })
    }

    /// Admission check for one winning config: re-read its model from the
    /// DFS (the storage layer verifies the blob checksum), parse and
    /// validate the snapshot, then apply the quality gate against the
    /// retailer's last accepted MAP@10.
    ///
    /// Returns the MAP to record as the new accepted baseline (`None` when
    /// the record carries no metrics — nothing to baseline against).
    fn admit(&self, rec: &ConfigRecord) -> Result<Option<f64>, RejectReason> {
        // Read from the blob's home cell: the gate must not charge
        // cross-cell transfer on clean runs.
        let cell = self
            .dfs
            .home_of(&rec.model_path)
            .unwrap_or(self.cfg.cells[0].cell);
        let mut bytes = None;
        for _ in 0..3 {
            match self.dfs.read(cell, &rec.model_path) {
                Ok(b) => {
                    bytes = Some(b);
                    break;
                }
                // A checksum mismatch is persistent: the stored bytes are
                // not the bytes training wrote. No point retrying.
                Err(SigmundError::Corrupt(_)) => return Err(RejectReason::ChecksumFailure),
                // Injected transient faults: retry within a small budget.
                Err(_) => {}
            }
        }
        let Some(bytes) = bytes else {
            return Err(RejectReason::Unreadable);
        };
        let snapshot =
            ModelSnapshot::from_bytes(&bytes).map_err(|_| RejectReason::InvalidSnapshot)?;
        let r = rec.model.retailer;
        let cat_cell = self
            .dfs
            .home_of(&data::catalog_path(r))
            .unwrap_or(self.cfg.cells[0].cell);
        match data::retry_op(|| data::load_catalog(&self.dfs, cat_cell, r)) {
            // Shape checks against the live catalog when it is readable …
            Ok(c) => snapshot.validate_for(&c),
            // … structural checks alone when it is not (the gate judges the
            // model, not the catalog's availability).
            Err(_) => snapshot.validate(),
        }
        .map_err(|_| RejectReason::InvalidSnapshot)?;
        let Some(m) = rec.metrics.as_ref() else {
            return Ok(None);
        };
        let map = m.map_at_10;
        if map.is_nan() || map < self.cfg.integrity.min_map {
            return Err(RejectReason::QualityCollapse);
        }
        let last = self
            .last_accepted_map
            .get(r.0 as usize)
            .copied()
            .unwrap_or(f64::NAN);
        if last.is_finite() && last > 0.0 && map < last * self.cfg.integrity.collapse_fraction {
            return Err(RejectReason::QualityCollapse);
        }
        Ok(Some(map))
    }

    /// Records a newly accepted MAP@10 baseline in the dense arena, growing
    /// it with NaN ("no baseline") slots as the fleet onboards.
    fn set_last_accepted(&mut self, r: RetailerId, map: f64) {
        let i = r.0 as usize;
        if i >= self.last_accepted_map.len() {
            self.last_accepted_map.resize(i + 1, f64::NAN);
        }
        self.last_accepted_map[i] = map;
    }
}

/// Loads a retailer's published recommendations back from the DFS.
///
/// `/recs/r<r>` has one writer (the publish phase) and one format, the
/// `SGRC` codec ([`data::RECS_MAGIC`]).
///
/// # Errors
/// Whatever the read returns, or [`SigmundError::Corrupt`] for bytes that
/// are not a valid `SGRC` table.
pub fn load_recs(
    dfs: &Dfs,
    cell: sigmund_types::CellId,
    r: RetailerId,
) -> Result<Vec<ItemRecs>, SigmundError> {
    data::decode_recs(&dfs.read(cell, &data::recs_path(r))?)
}

/// Convenience: look up the materialized recommendations for an item.
pub fn recs_for_item(
    recs: &BTreeMap<RetailerId, Vec<ItemRecs>>,
    r: RetailerId,
    item: ItemId,
) -> Option<&ItemRecs> {
    recs.get(&r).and_then(|v| v.get(item.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_datagen::RetailerSpec;
    use sigmund_types::CellId;

    fn service() -> SigmundService {
        let cfg = PipelineConfig {
            grid: GridSpec {
                factors: vec![8],
                learning_rates: vec![0.1],
                regs: vec![(0.01, 0.01)],
                features: vec![sigmund_types::FeatureSwitches::NONE],
                samplers: vec![sigmund_types::NegativeSamplerKind::UniformUnseen],
                seeds: vec![1],
                epochs: 3,
            },
            cells: vec![
                CellSpec::standard(CellId(0), 4),
                CellSpec::standard(CellId(1), 4),
            ],
            preemption: PreemptionModel::NONE,
            items_per_split: 30,
            ..Default::default()
        };
        SigmundService::new(cfg)
    }

    fn small_retailer(r: u32, seed: u64) -> sigmund_datagen::RetailerData {
        let mut spec = RetailerSpec::small(sigmund_types::RetailerId(r), seed);
        spec.n_items = 40;
        spec.n_users = 50;
        spec.generate()
    }

    #[test]
    fn first_day_runs_full_cycle() {
        let mut svc = service();
        for r in 0..3 {
            let d = small_retailer(r, 100 + r as u64);
            svc.onboard(&d.catalog, &d.events).unwrap();
        }
        let report = svc.run_day().unwrap();
        assert_eq!(report.day, 0);
        assert_eq!(report.models_trained, 3, "one config per retailer");
        assert_eq!(report.best.len(), 3);
        assert_eq!(report.recs.len(), 3);
        assert!(report.train_makespan > 0.0);
        assert!(report.infer_makespan > 0.0);
        assert!(report.cost.total_cost() > 0.0);
        // Every item of every retailer has a slot.
        for v in report.recs.values() {
            assert_eq!(v.len(), 40);
        }
        // Recommendations were batch-published to the DFS.
        let loaded = load_recs(&svc.dfs, CellId(0), sigmund_types::RetailerId(0)).unwrap();
        assert_eq!(loaded.len(), 40);
    }

    #[test]
    fn second_day_is_incremental_and_cheaper() {
        let mut svc = service();
        let d = small_retailer(0, 7);
        svc.onboard(&d.catalog, &d.events).unwrap();
        let day0 = svc.run_day().unwrap();
        let day1 = svc.run_day().unwrap();
        assert_eq!(day1.day, 1);
        // keep_top=3 but only 1 config exists → 1 incremental model.
        assert_eq!(day1.models_trained, 1);
        // Incremental runs fewer epochs → cheaper.
        assert!(
            day1.cost.total_cpu_s() <= day0.cost.total_cpu_s() + 1e-9,
            "incremental {:.2} vs full {:.2}",
            day1.cost.total_cpu_s(),
            day0.cost.total_cpu_s()
        );
    }

    #[test]
    fn new_retailer_mid_stream_gets_full_grid() {
        let mut svc = service();
        let d0 = small_retailer(0, 1);
        svc.onboard(&d0.catalog, &d0.events).unwrap();
        svc.run_day().unwrap();
        let d1 = small_retailer(1, 2);
        svc.onboard(&d1.catalog, &d1.events).unwrap();
        let report = svc.run_day().unwrap();
        // 1 incremental (retailer 0) + full grid (1 config) for retailer 1.
        assert_eq!(report.models_trained, 2);
        assert!(report.best.contains_key(&sigmund_types::RetailerId(1)));
    }

    #[test]
    fn run_day_emits_full_pipeline_trace() {
        let mut svc = service();
        svc.cfg.obs = Obs::recording(Level::Debug);
        svc.cfg.threads = 1;
        let d = small_retailer(0, 11);
        svc.onboard(&d.catalog, &d.events).unwrap();
        svc.run_day().unwrap();
        let trace = svc.cfg.obs.trace_json();
        for needle in [
            "onboard RetailerId#0",
            "sweep plan",
            "train phase",
            "model selection",
            "infer phase",
            "\"cat\":\"cluster\"",
            "\"cat\":\"mapreduce\"",
            "\"cat\":\"train\"",
            "\"cat\":\"pipeline\"",
        ] {
            assert!(trace.contains(needle), "missing {needle} in trace");
        }
        let metrics = svc.cfg.obs.metrics().unwrap();
        assert_eq!(metrics.counter("pipeline.days"), 1);
        assert!(metrics.counter("pipeline.recs_published") > 0);
        assert!(svc.virtual_now() > 0.0, "virtual clock advanced");
        // Day 2 starts where day 1 ended.
        let t1 = svc.virtual_now();
        svc.run_day().unwrap();
        assert!(svc.virtual_now() > t1);
    }

    #[test]
    fn streaming_publish_day_is_bounded_and_clean() {
        let mut svc = service();
        svc.cfg.stream_recs = true;
        svc.cfg.ledger = ByteLedger::tracking();
        for r in 0..3 {
            let d = small_retailer(r, 300 + r as u64);
            svc.onboard(&d.catalog, &d.events).unwrap();
        }
        let report = svc.run_day().unwrap();
        assert_eq!(report.best.len(), 3);
        assert!(report.degraded.is_empty());
        assert!(
            report.recs.is_empty(),
            "streaming mode must not materialize the fleet's tables"
        );
        // Published tables are complete and readable through the magic path.
        let mut table_bytes = Vec::new();
        for r in 0..3u32 {
            let table = load_recs(&svc.dfs, CellId(0), sigmund_types::RetailerId(r)).unwrap();
            assert_eq!(table.len(), 40);
            assert!(
                table.iter().any(|i| !i.view_based.is_empty()),
                "stitched table for retailer {r} is all holes"
            );
            table_bytes.push(data::recs_logical_bytes(&table));
        }
        // Peak resident output == the largest single retailer's table, not
        // the fleet total: tables are charged one at a time.
        let max = table_bytes.iter().copied().max().unwrap();
        let sum: u64 = table_bytes.iter().sum();
        assert_eq!(svc.cfg.ledger.peak(), max);
        assert!(svc.cfg.ledger.peak() < sum);
        assert_eq!(svc.cfg.ledger.current(), 0, "all charges released");
        // Part blobs are scratch and must not survive the day.
        for r in 0..3u32 {
            for start in (0..40).step_by(svc.cfg.items_per_split) {
                let part = data::recs_part_path(sigmund_types::RetailerId(r), start as u32);
                assert!(!svc.dfs.exists(&part), "leftover part blob {part}");
            }
        }
    }

    /// Every blob under `prefix`, as `(path, bytes)`.
    fn blobs_under(svc: &SigmundService, prefix: &str) -> Vec<(String, Vec<u8>)> {
        svc.dfs
            .list(prefix)
            .into_iter()
            .map(|p| {
                let bytes = svc.dfs.peek(&p).unwrap().to_vec();
                (p, bytes)
            })
            .collect()
    }

    /// One three-retailer day on a tracking ledger.
    fn ledger_day(stream: bool) -> (SigmundService, DayReport) {
        let mut svc = service();
        svc.cfg.stream_recs = stream;
        svc.cfg.ledger = ByteLedger::tracking();
        for r in 0..3 {
            let d = small_retailer(r, 400 + r as u64);
            svc.onboard(&d.catalog, &d.events).unwrap();
        }
        let report = svc.run_day().unwrap();
        (svc, report)
    }

    #[test]
    fn default_config_publishes_sgrc_and_keeps_the_same_tables_in_the_report() {
        let (svc, report) = ledger_day(false);
        let blobs = blobs_under(&svc, "/recs/");
        assert_eq!(blobs.len(), 3);
        for (path, bytes) in &blobs {
            assert!(bytes.starts_with(data::RECS_MAGIC), "{path} is not SGRC");
        }
        assert_eq!(report.recs.len(), 3);
        let mut fleet_sum = 0;
        for (r, table) in &report.recs {
            assert_eq!(table, &load_recs(&svc.dfs, CellId(0), *r).unwrap(), "{r}");
            fleet_sum += data::recs_logical_bytes(table);
        }
        // The report keeps every table, so the ledger peaks at the fleet sum.
        assert_eq!(svc.cfg.ledger.peak(), fleet_sum);
        assert_eq!(svc.cfg.ledger.current(), 0, "all charges released");
        assert!(svc.dfs.list(data::RECS_PARTS_PREFIX).is_empty());
    }

    #[test]
    fn stream_recs_only_empties_the_report() {
        let (kept_svc, kept) = ledger_day(false);
        let (streamed_svc, streamed) = ledger_day(true);
        assert!(streamed.recs.is_empty());
        assert_eq!(
            blobs_under(&streamed_svc, "/recs/"),
            blobs_under(&kept_svc, "/recs/"),
            "one writer, one format: the flag must not move a published byte"
        );
        let fingerprint = |r: &DayReport| {
            let mut r = r.clone();
            r.recs.clear();
            format!("{r:?}")
        };
        assert_eq!(fingerprint(&streamed), fingerprint(&kept));
        // Dropping each table once it is durable is what the flag buys
        // (`streaming_publish_day_is_bounded_and_clean` pins the bound).
        assert!(streamed_svc.cfg.ledger.peak() < kept_svc.cfg.ledger.peak());
    }

    #[test]
    fn load_recs_rejects_anything_but_sgrc() {
        let dfs = Dfs::new();
        let r = sigmund_types::RetailerId(0);
        // A table in the JSON layout the deleted publish twin wrote.
        let legacy = br#"[{"view_based":[[1,0.5]],"purchase_based":[]}]"#;
        for blob in [&legacy[..], &b""[..], &b"SGR"[..]] {
            dfs.write(CellId(0), &data::recs_path(r), blob.to_vec().into())
                .unwrap();
            assert!(
                matches!(load_recs(&dfs, CellId(0), r), Err(SigmundError::Corrupt(_))),
                "{blob:?} must be Corrupt"
            );
        }
        assert!(matches!(
            load_recs(&dfs, CellId(0), sigmund_types::RetailerId(1)),
            Err(SigmundError::NotFound(_))
        ));
    }

    /// A read-fault plan (rate `rate`, active from day 0) whose first rate
    /// draw faults and whose second does not: the first DFS read of the run
    /// fails once and its retry succeeds. Found by probing, so the test
    /// does not depend on the hash's constants.
    fn plan_faulting_the_first_read_once(rate: f64) -> sigmund_types::FaultPlan {
        let probe = Dfs::new();
        probe
            .write(CellId(0), "/probe", bytes::Bytes::from_static(b"x"))
            .unwrap();
        (0..100_000u64)
            .map(|seed| sigmund_types::FaultPlan {
                seed,
                read_error_rate: rate,
                ..Default::default()
            })
            .find(|plan| {
                let dfs = probe.restart(plan.clone());
                dfs.read(CellId(0), "/probe").is_err() && dfs.read(CellId(0), "/probe").is_ok()
            })
            .unwrap()
    }

    #[test]
    fn new_retailer_trains_the_day_its_catalog_read_faults_once() {
        // Onboarding writes draw nothing (write rate 0) and the model GC
        // lists an empty tree, so the day's first read — the plan phase
        // loading the new retailer's catalog — is the run's first draw.
        let mut cfg = service().cfg;
        cfg.chaos.plan = plan_faulting_the_first_read_once(0.01);
        let mut svc = SigmundService::new(cfg);
        let d = small_retailer(0, 21);
        svc.onboard(&d.catalog, &d.events).unwrap();
        let report = svc.run_day().unwrap();
        assert!(svc.dfs.injector().unwrap().stats().read_errors >= 1);
        assert_eq!(report.models_trained, 1, "the retry must read the catalog");
        assert!(report.best.contains_key(&sigmund_types::RetailerId(0)));
    }

    #[test]
    fn new_retailer_whose_catalog_stays_unreadable_gets_tomorrows_full_grid() {
        // Every read of day 0 fails, the plan phase's three tries included;
        // day 1 is clean.
        let mut cfg = service().cfg;
        cfg.chaos.plan = sigmund_types::FaultPlan {
            read_error_rate: 1.0,
            until_day: 1,
            ..Default::default()
        };
        let mut svc = SigmundService::new(cfg);
        let d = small_retailer(0, 22);
        svc.onboard(&d.catalog, &d.events).unwrap();
        let day0 = svc.run_day().unwrap();
        assert_eq!(day0.models_trained, 0);
        assert_eq!(svc.new_since_last_run, vec![sigmund_types::RetailerId(0)]);
        let day1 = svc.run_day().unwrap();
        assert_eq!(day1.models_trained, 1, "still owed its full grid");
        assert!(day1.best.contains_key(&sigmund_types::RetailerId(0)));
        assert!(svc.new_since_last_run.is_empty());
        assert!(load_recs(&svc.dfs, CellId(0), sigmund_types::RetailerId(0)).is_ok());
    }

    #[test]
    fn part_sweep_takes_strays_the_roster_walk_missed() {
        let mut svc = service();
        let d = small_retailer(0, 23);
        svc.onboard(&d.catalog, &d.events).unwrap();
        // Scratch no split of today's roster would name: a part at an offset
        // from another `items_per_split`, one of a retailer that is not
        // onboarded, and a crashed writer's tmp sibling.
        let strays = [
            data::recs_part_path(sigmund_types::RetailerId(0), 7),
            data::recs_part_path(sigmund_types::RetailerId(9), 0),
            format!(
                "{}/TMP",
                data::recs_part_path(sigmund_types::RetailerId(0), 30)
            ),
        ];
        for path in &strays {
            svc.dfs
                .write(CellId(0), path, bytes::Bytes::from_static(b"stale"))
                .unwrap();
        }
        let report = svc.run_day().unwrap();
        assert!(report.degraded.is_empty());
        assert!(svc.dfs.list(data::RECS_PARTS_PREFIX).is_empty());
        assert_eq!(report.recs[&sigmund_types::RetailerId(0)].len(), 40);
    }

    #[test]
    fn same_seed_days_on_the_derived_worker_count_are_identical() {
        // Whatever `train_workers` derives on this machine, two same-seed
        // services publish the same bytes and report the same days — cold
        // sweep, then a warm-started incremental day, under pre-emption.
        let run = || {
            let mut svc = service();
            svc.cfg.grid.learning_rates = vec![0.05, 0.1, 0.15, 0.2];
            svc.cfg.preemption = PreemptionModel {
                rate_per_hour: 40_000.0,
            };
            svc.cfg.checkpoint_interval = 0.0;
            svc.cfg.obs = Obs::recording(Level::Debug);
            for r in 0..4 {
                let d = small_retailer(r, 500 + r as u64);
                svc.onboard(&d.catalog, &d.events).unwrap();
            }
            let days = [svc.run_day().unwrap(), svc.run_day().unwrap()];
            assert_eq!(days[0].models_trained, 16);
            assert!(days[0].preemptions > 0, "hazard should bite");
            (
                blobs_under(&svc, "/"),
                format!("{days:?}"),
                svc.cfg.obs.trace_json(),
            )
        };
        assert_eq!(run(), run());

        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut svc = service();
        assert_eq!(svc.train_workers(), cores);
        svc.cfg.threads = 2;
        assert_eq!(
            svc.train_workers(),
            (cores / 2).max(1),
            "Hogwild divides it"
        );
        let chaotic = SigmundService::new(PipelineConfig {
            chaos: ChaosConfig::mild(1),
            ..Default::default()
        });
        assert_eq!(chaotic.train_workers(), 1, "op-indexed faults need one");
    }

    #[test]
    fn recs_lookup_helper() {
        let mut svc = service();
        let d = small_retailer(0, 9);
        svc.onboard(&d.catalog, &d.events).unwrap();
        let report = svc.run_day().unwrap();
        let r = sigmund_types::RetailerId(0);
        assert!(recs_for_item(&report.recs, r, ItemId(0)).is_some());
        assert!(recs_for_item(&report.recs, r, ItemId(999)).is_none());
    }
}
