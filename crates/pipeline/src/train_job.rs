//! The training MapReduce job (Section IV-B).
//!
//! Each config record becomes one map split. A split:
//!
//! 1. loads (cached) catalog + dataset from the DFS, paying virtual load
//!    time;
//! 2. restores the latest checkpoint if a previous attempt was pre-empted,
//!    else warm-starts from yesterday's model (incremental sweep), else
//!    initializes fresh;
//! 3. trains epoch by epoch — **real SGD** — consuming virtual time per
//!    epoch, publishing a checkpoint whenever the configured virtual time
//!    interval elapses;
//! 4. evaluates on the hold-out (MAP is sampled at 10% for large retailers,
//!    Section III-C2), writes the model to the DFS, and emits the annotated
//!    config record.
//!
//! If the attempt's pre-emption budget runs out anywhere along the way, the
//! split returns [`MapStatus::Preempted`] and the engine re-executes it —
//! step 2 then restores real model state from the real checkpoint bytes.
//!
//! Splits are the paper's independent single-model tasks, and the engine may
//! run several at once on real cores (`run_map_job_obs`'s `workers`). The
//! job is written so that nothing depends on how many: an attempt touches
//! only its own `(retailer, config)` paths in the DFS, records obs through
//! its [`AttemptCtx`] (never a shared handle — the job holds none), finds
//! its retailer's catalog and dataset already loaded by [`MapTask::stage`]
//! — on the scheduling thread, exactly once per retailer however many of
//! its configs start together — and parks its annotated record until the
//! engine commits the attempt, so [`TrainJob::take_outputs`] lists records
//! in commit order.

use crate::cost_model::CostModel;
use crate::data;
use parking_lot::Mutex;
use sigmund_core::prelude::*;
use sigmund_dfs::{CheckpointStore, Dfs};
use sigmund_mapreduce::{AttemptCtx, MapStatus, MapTask};
use sigmund_obs::Level;
use sigmund_types::{Catalog, CellId, ConfigRecord, ModelMetrics, RetailerId, SigmundError};
use std::collections::HashMap;
use std::sync::Arc;

/// Catalogs above this size use 10%-sampled MAP (Section III-C2).
pub const SAMPLED_MAP_THRESHOLD: usize = 2_000;

/// Per-retailer artifacts shared by that retailer's splits.
struct RetailerState {
    catalog: Catalog,
    dataset: Dataset,
    load_bytes: u64,
}

/// A retailer's place in the job's cache: nothing yet, or the outcome of
/// loading it. Whoever finds the slot empty loads holding the slot's lock,
/// so configs of one retailer that start together wait on the slot — not on
/// the whole cache — and find it filled.
type Slot = Arc<Mutex<Option<Result<Arc<RetailerState>, SigmundError>>>>;

/// The training job: implements [`MapTask`] over config records.
pub struct TrainJob<'a> {
    dfs: &'a Dfs,
    cell: CellId,
    records: Vec<ConfigRecord>,
    cost: CostModel,
    /// SGD threads per model. 1 (the default) is the exact, reproducible
    /// path; more is the explicit Hogwild opt-in for models too big to
    /// waste a machine on one core (paper: threads, not co-scheduled
    /// tasks) — racy by design, and slower than 1 on small retailers.
    pub threads: usize,
    /// Virtual seconds between checkpoints (paper: "a fixed time-interval").
    pub checkpoint_interval: f64,
    cache: Mutex<HashMap<RetailerId, Slot>>,
    /// Hold-out metrics of finished attempts, by split, until the engine
    /// commits them.
    finished: Mutex<Vec<Option<ModelMetrics>>>,
    outputs: Mutex<Vec<ConfigRecord>>,
}

impl<'a> TrainJob<'a> {
    /// Creates the job over `records` running in `cell`.
    pub fn new(dfs: &'a Dfs, cell: CellId, records: Vec<ConfigRecord>, cost: CostModel) -> Self {
        let finished = Mutex::new(vec![None; records.len()]);
        Self {
            dfs,
            cell,
            records,
            cost,
            threads: 1,
            checkpoint_interval: 300.0,
            cache: Mutex::new(HashMap::new()),
            finished,
            outputs: Mutex::new(Vec::new()),
        }
    }

    /// Number of splits (= config records).
    pub fn n_splits(&self) -> usize {
        self.records.len()
    }

    /// Takes the annotated output records, in the order the engine
    /// committed their attempts (call after the job finishes).
    pub fn take_outputs(&self) -> Vec<ConfigRecord> {
        std::mem::take(&mut self.outputs.lock())
    }

    fn slot(&self, r: RetailerId) -> Slot {
        Arc::clone(self.cache.lock().entry(r).or_default())
    }

    /// Reads a retailer's catalog and training log and builds its dataset.
    fn load(&self, r: RetailerId) -> Result<Arc<RetailerState>, SigmundError> {
        let catalog = data::load_catalog(self.dfs, self.cell, r)?;
        let raw = self.dfs.read(self.cell, &data::train_path(r))?;
        let load_bytes = raw.len() as u64;
        let events = data::decode_events(&raw)?;
        let dataset = Dataset::build(catalog.len(), events, true);
        Ok(Arc::new(RetailerState {
            catalog,
            dataset,
            load_bytes,
        }))
    }

    /// A retailer's catalog + dataset: what [`MapTask::stage`] loaded, or a
    /// load made here if nothing was. A loaded retailer stays for its other
    /// configs; a failed load is reported to the one attempt that sees it
    /// and forgotten, so the next attempt tries again.
    fn state_for(&self, r: RetailerId) -> Result<Arc<RetailerState>, SigmundError> {
        let slot = self.slot(r);
        let mut slot = slot.lock();
        let loaded = slot.take().unwrap_or_else(|| self.load(r));
        if let Ok(state) = &loaded {
            *slot = Some(Ok(Arc::clone(state)));
        }
        loaded
    }

    /// Evaluation config for a catalog size (sampled MAP on big retailers).
    fn eval_config(n_items: usize) -> EvalConfig {
        if n_items > SAMPLED_MAP_THRESHOLD {
            EvalConfig::sampled_10pct()
        } else {
            EvalConfig::default()
        }
    }
}

impl MapTask for TrainJob<'_> {
    fn run(&self, split: usize, ctx: &mut AttemptCtx) -> MapStatus {
        let rec = &self.records[split];
        let r = rec.model.retailer;
        let state = match self.state_for(r) {
            Ok(s) => s,
            // Injected transient read faults and torn-read corruption may
            // clear on re-execution; report a preemption so the engine
            // retries under its budget (the retry cap bounds genuinely
            // corrupt data).
            Err(SigmundError::Transient(_)) | Err(SigmundError::Corrupt(_)) => {
                return MapStatus::Preempted
            }
            // Missing data is a permanent failure; emit nothing. Real
            // Sigmund would alert; we just finish the split.
            Err(_) => return MapStatus::Done,
        };
        if !ctx.consume(self.cost.load_seconds(state.load_bytes)) {
            return MapStatus::Preempted;
        }

        let catalog = &state.catalog;
        let ds = &state.dataset;
        let ckpt = CheckpointStore::new(
            self.dfs,
            self.cell,
            data::checkpoint_dir(r, rec.model.config),
        );

        // Restore order: checkpoint (pre-empted attempt) > warm start
        // (incremental sweep) > fresh init.
        let (model, mut epochs_done) = match ckpt.latest() {
            Ok(Some(c)) => match ModelSnapshot::from_bytes(&c.data)
                .and_then(|s| s.restore(catalog, rec.params.init_seed))
            {
                Ok(m) => (m, c.progress as u32),
                Err(_) => {
                    // A checkpoint that reads back cleanly but fails to
                    // parse or restore is garbage on every future attempt
                    // too: count it, drop it so retries don't keep
                    // re-parsing it, and fall back to a fresh start.
                    let now = ctx.used();
                    ctx.obs().counter("train.checkpoint_restore_failures", 1);
                    ctx.obs().instant(
                        Level::Debug,
                        "train",
                        &format!("bad checkpoint {r} cfg{}", rec.model.config),
                        now,
                        &[("progress", c.progress.into())],
                    );
                    ckpt.clear();
                    (BprModel::init(catalog, rec.params.clone()), 0)
                }
            },
            _ => {
                let warm = rec.warm_start_path.as_ref().and_then(|p| {
                    let bytes = self.dfs.read(self.cell, p).ok()?;
                    let snap = ModelSnapshot::from_bytes(&bytes).ok()?;
                    let m = snap.restore(catalog, rec.params.init_seed).ok()?;
                    // Incremental runs reset Adagrad norms (Section III-C3).
                    m.reset_adagrad();
                    Some(m)
                });
                match warm {
                    Some(m) => (m, 0),
                    None => (BprModel::init(catalog, rec.params.clone()), 0),
                }
            }
        };

        let sampler = NegativeSampler::new(rec.params.negative_sampler, catalog, None);
        let opts = TrainOptions {
            epochs: 0, // driven manually below
            threads: self.threads,
            seed: rec.params.init_seed ^ 0x5EED,
        };
        let total_epochs = rec.epochs();
        let epoch_cost = self.cost.epoch_seconds(ds.n_examples(), self.threads);
        let mut since_ckpt = 0.0;
        while epochs_done < total_epochs {
            let epoch_start = ctx.used();
            if !ctx.consume(epoch_cost) {
                // Killed mid-epoch: in-memory progress past the last
                // checkpoint is lost (the next attempt restores from DFS).
                return MapStatus::Preempted;
            }
            let stats = train_epoch(&model, catalog, ds, &sampler, &opts, epochs_done);
            epochs_done += 1;
            let now = ctx.used();
            observe_epoch(ctx.obs(), epoch_start, now, epochs_done - 1, &stats, &model);
            since_ckpt += epoch_cost;
            if since_ckpt >= self.checkpoint_interval && epochs_done < total_epochs {
                let snap = ModelSnapshot::capture(&model);
                if ckpt.publish(epochs_done as u64, &snap.to_bytes()).is_err() {
                    // Best-effort: a lost checkpoint only costs recovery time,
                    // but surface the miss. Emitting the counter on the Err
                    // path only keeps clean runs byte-identical.
                    ctx.obs().counter("train.checkpoint_failures", 1);
                }
                since_ckpt = 0.0;
                ctx.obs().counter("train.checkpoints", 1);
                ctx.obs().instant(
                    Level::Debug,
                    "train",
                    &format!("checkpoint {r} cfg{}", rec.model.config),
                    now,
                    &[("epochs_done", epochs_done.into())],
                );
            }
        }

        let eval = Self::eval_config(catalog.len());
        if !ctx.consume(self.cost.eval_seconds(
            ds.holdout.len(),
            catalog.len(),
            eval.sample_fraction,
        )) {
            return MapStatus::Preempted;
        }
        let metrics = evaluate(&model, catalog, ds, eval);

        let snap = ModelSnapshot::capture(&model);
        if self
            .dfs
            .write(self.cell, &rec.model_path, snap.to_bytes())
            .is_err()
        {
            // The trained model never landed; re-execution restores from the
            // last checkpoint and tries the publish again.
            return MapStatus::Preempted;
        }
        ckpt.clear();
        self.finished.lock()[split] = Some(metrics);
        MapStatus::Done
    }

    /// Loads the split's retailer on the scheduling thread unless it is
    /// loaded already: once per retailer however many of its configs then
    /// run together, and on the one thread whose allocations outlive the
    /// job's workers (a dataset lives as long as the job; built on a worker
    /// it would stay behind in that thread's allocator arena).
    fn stage(&self, split: usize) {
        let r = self.records[split].model.retailer;
        let slot = self.slot(r);
        let mut slot = slot.lock();
        if slot.is_none() {
            *slot = Some(self.load(r));
        }
    }

    fn committed(&self, split: usize, _status: MapStatus) {
        // Only a finished attempt parks metrics, and a split finishes once.
        if let Some(metrics) = self.finished.lock()[split].take() {
            let mut out = self.records[split].clone();
            out.metrics = Some(metrics);
            self.outputs.lock().push(out);
        }
    }

    fn label(&self, split: usize) -> String {
        let rec = &self.records[split];
        format!("train {} cfg{}", rec.model.retailer, rec.model.config)
    }

    fn est_work(&self, split: usize) -> f64 {
        let rec = &self.records[split];
        // events ≈ bytes / 17; examples ≈ events.
        let bytes = self
            .dfs
            .read(self.cell, &rec.train_path)
            .map(|b| b.len())
            .unwrap_or(0) as u64;
        let n_examples = (bytes / 17) as usize;
        rec.epochs() as f64 * self.cost.epoch_seconds(n_examples, self.threads)
    }

    fn memory_gb(&self, split: usize) -> f64 {
        let rec = &self.records[split];
        let bytes = self
            .dfs
            .read(self.cell, &rec.train_path)
            .map(|b| b.len())
            .unwrap_or(0) as u64;
        // items ≤ events; a crude but monotone proxy when the catalog isn't
        // loaded yet.
        let n_items_proxy = (bytes / 17) as usize;
        self.cost.model_memory_gb(n_items_proxy, rec.params.factors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::full_sweep_for;
    use sigmund_cluster::{CellSpec, PreemptionModel, Priority};
    use sigmund_datagen::RetailerSpec;
    use sigmund_mapreduce::{run_map_job, run_map_job_obs, JobConfig, JobStats};
    use sigmund_obs::Obs;

    fn publish(dfs: &Dfs, seed: u64) -> Catalog {
        let mut spec = RetailerSpec::small(RetailerId(0), seed);
        spec.n_items = 60;
        spec.n_users = 80;
        let datum = spec.generate();
        data::publish_retailer(dfs, CellId(0), &datum.catalog, &datum.events).unwrap();
        datum.catalog
    }

    fn tiny_grid() -> GridSpec {
        GridSpec {
            factors: vec![8],
            learning_rates: vec![0.1],
            regs: vec![(0.01, 0.01)],
            features: vec![sigmund_types::FeatureSwitches::NONE],
            samplers: vec![sigmund_types::NegativeSamplerKind::UniformUnseen],
            seeds: vec![1],
            epochs: 4,
        }
    }

    fn job_cfg(rate: f64, seed: u64) -> JobConfig {
        JobConfig {
            cell: CellSpec::standard(CellId(0), 2),
            priority: Priority::Preemptible,
            preemption: PreemptionModel {
                rate_per_hour: rate,
            },
            seed,
            // Corrupt/Transient loads are retryable now; a finite cap keeps
            // a persistently failing split from retrying forever.
            max_attempts: Some(50),
            backoff: None,
            storms: sigmund_cluster::StormSchedule::none(),
            flaky: None,
        }
    }

    #[test]
    fn trains_and_emits_annotated_records() {
        let dfs = Dfs::new();
        let catalog = publish(&dfs, 5);
        let records = full_sweep_for(&catalog, &tiny_grid());
        let job = TrainJob::new(&dfs, CellId(0), records.clone(), CostModel::default());
        let stats = run_map_job(&job, records.len(), &job_cfg(0.0, 1));
        assert_eq!(stats.preemptions, 0);
        let outputs = job.take_outputs();
        assert_eq!(outputs.len(), records.len());
        for o in &outputs {
            assert!(o.metrics.is_some());
            assert!(dfs.exists(&o.model_path), "model written to DFS");
        }
    }

    #[test]
    fn survives_heavy_preemption_via_checkpoints() {
        let dfs = Dfs::new();
        let catalog = publish(&dfs, 6);
        let records = full_sweep_for(&catalog, &tiny_grid());
        let mut job = TrainJob::new(&dfs, CellId(0), records.clone(), CostModel::default());
        // Force several pre-emptions per split: epoch cost for this retailer
        // is ~n_examples×2e-5 s; crank the hazard so budgets are tiny but
        // still fit a couple of epochs.
        job.checkpoint_interval = 0.0; // checkpoint after every epoch
        let epoch_cost = CostModel::default().epoch_seconds(1000, job.threads);
        assert!(epoch_cost > 0.0);
        // The hazard was tuned when tasks defaulted to 4 SGD threads; an
        // epoch on the default single thread costs `thread_speedup(4)` times
        // as much virtual time, so the same budgets-per-epoch ratio needs
        // that much less hazard.
        let rate = 500_000.0 / CostModel::default().thread_speedup(4);
        let stats = run_map_job(&job, records.len(), &job_cfg(rate, 3));
        assert!(stats.preemptions > 0, "hazard should bite");
        let outputs = job.take_outputs();
        assert_eq!(outputs.len(), records.len(), "all splits finish anyway");
    }

    #[test]
    fn warm_start_path_is_honored() {
        let dfs = Dfs::new();
        let catalog = publish(&dfs, 7);
        let records = full_sweep_for(&catalog, &tiny_grid());
        let job = TrainJob::new(&dfs, CellId(0), records.clone(), CostModel::default());
        run_map_job(&job, records.len(), &job_cfg(0.0, 1));
        let outputs = job.take_outputs();
        // Incremental record warm-starting from the produced model.
        let mut inc = outputs[0].clone();
        inc.warm_start_path = Some(inc.model_path.clone());
        inc.epochs_override = Some(1);
        inc.metrics = None;
        let job2 = TrainJob::new(&dfs, CellId(0), vec![inc], CostModel::default());
        run_map_job(&job2, 1, &job_cfg(0.0, 2));
        let out2 = job2.take_outputs();
        assert_eq!(out2.len(), 1);
        let warm_map = out2[0].metrics.unwrap().map_at_10;
        // One warm epoch should be comparable to the full cold run — far
        // better than a random model. Sanity: it produced a valid metric.
        assert!(warm_map >= 0.0);
    }

    #[test]
    fn missing_data_finishes_without_output() {
        let dfs = Dfs::new();
        let rec = ConfigRecord::cold(RetailerId(9), 0, Default::default());
        let job = TrainJob::new(&dfs, CellId(0), vec![rec], CostModel::default());
        let stats = run_map_job(&job, 1, &job_cfg(0.0, 1));
        assert_eq!(stats.preemptions, 0);
        assert!(job.take_outputs().is_empty());
    }

    // --- worker-count invariance (named in tests/determinism.rs) ----------

    /// A grid of `n` configs that differ in learning rate only.
    fn grid_of(n: usize) -> GridSpec {
        GridSpec {
            learning_rates: (1..=n).map(|i| 0.03 * i as f32).collect(),
            ..tiny_grid()
        }
    }

    /// Everything a caller can observe of one training job.
    #[derive(Debug, PartialEq)]
    struct Observed {
        files: Vec<(String, Vec<u8>)>,
        outputs: Vec<ConfigRecord>,
        stats: JobStats,
        transfers: sigmund_dfs::TransferStats,
        trace: String,
        metrics: String,
    }

    /// Three retailers × four configs, permuted, trained at `workers`.
    fn observe(workers: usize, rate: f64, checkpoint_interval: f64) -> Observed {
        let dfs = Dfs::new();
        let mut records = Vec::new();
        for r in 0..3u32 {
            let mut spec = RetailerSpec::small(RetailerId(r), 40 + u64::from(r));
            spec.n_items = 40 + 15 * r as usize;
            spec.n_users = 60;
            let datum = spec.generate();
            // Data lives in cell 0 and the job runs in cell 1, so every load
            // shows up in the transfer counters.
            data::publish_retailer(&dfs, CellId(0), &datum.catalog, &datum.events).unwrap();
            records.extend(full_sweep_for(&datum.catalog, &grid_of(4)));
        }
        let records = sigmund_mapreduce::permute(&records, 17);
        let mut job = TrainJob::new(&dfs, CellId(1), records.clone(), CostModel::default());
        job.checkpoint_interval = checkpoint_interval;
        let obs = Obs::recording(Level::Debug);
        let mut cfg = job_cfg(rate, 3);
        cfg.cell = CellSpec::standard(CellId(1), 8);
        let stats = run_map_job_obs(&job, records.len(), &cfg, "train", &obs, 100.0, workers);
        assert!(stats.failed.is_empty());
        Observed {
            files: dfs
                .list("/")
                .into_iter()
                .map(|p| {
                    let bytes = dfs.peek(&p).unwrap().to_vec();
                    (p, bytes)
                })
                .collect(),
            outputs: job.take_outputs(),
            stats,
            transfers: dfs.stats(),
            trace: obs.trace_json(),
            metrics: obs.metrics_jsonl(),
        }
    }

    #[test]
    fn training_job_is_worker_count_invariant() {
        let serial = observe(1, 0.0, 300.0);
        assert_eq!(serial.outputs.len(), 12);
        assert!(serial.trace.contains("\"cat\":\"train\""), "epoch spans");
        for workers in [2, 3, 8] {
            assert_eq!(serial, observe(workers, 0.0, 300.0), "{workers} workers");
        }
    }

    #[test]
    fn training_job_is_worker_count_invariant_under_preemption() {
        // The heavy-pre-emption fixture: a checkpoint after every epoch and
        // a hazard of a few epochs per budget, so attempts die at every
        // stage and resume from real checkpoint bytes.
        let rate = 500_000.0 / CostModel::default().thread_speedup(4);
        let serial = observe(1, rate, 0.0);
        assert!(serial.stats.preemptions > 0, "hazard should bite");
        assert_eq!(serial.outputs.len(), 12, "all splits finish anyway");
        let in_split_order = serial.outputs.windows(2).all(|w| {
            (w[0].model.retailer, w[0].model.config) < (w[1].model.retailer, w[1].model.config)
        });
        assert!(!in_split_order, "commit order is not a sort of the outputs");
        assert!(serial.metrics.contains("train.checkpoints"));
        for workers in [2, 3, 8] {
            assert_eq!(serial, observe(workers, rate, 0.0), "{workers} workers");
        }
    }

    #[test]
    fn same_retailer_burst_loads_the_retailer_once() {
        // Eight configs of one retailer, in order, on eight workers: every
        // first attempt wants the same catalog and dataset at once.
        let dfs = Dfs::new();
        let catalog = publish(&dfs, 9);
        let records = full_sweep_for(&catalog, &grid_of(8));
        assert_eq!(records.len(), 8);
        let load_bytes = |path: &str| dfs.peek(path).unwrap().len() as u64;
        let train_bytes = load_bytes(&data::train_path(RetailerId(0)));
        let catalog_bytes = load_bytes(&data::catalog_path(RetailerId(0)));
        for workers in [1, 8] {
            let before = dfs.stats().cross_cell_read_bytes;
            // The data is homed in cell 0; a job in cell 1 pays for each read.
            let job = TrainJob::new(&dfs, CellId(1), records.clone(), CostModel::default());
            let mut cfg = job_cfg(0.0, 1);
            cfg.cell = CellSpec::standard(CellId(1), 8);
            run_map_job_obs(&job, 8, &cfg, "burst", &Obs::disabled(), 0.0, workers);
            assert_eq!(job.take_outputs().len(), 8);
            // One `memory_gb` probe of the training log per split, and one
            // load of log + catalog for the whole job.
            assert_eq!(
                dfs.stats().cross_cell_read_bytes - before,
                8 * train_bytes + train_bytes + catalog_bytes,
                "{workers} workers"
            );
        }
    }
}
