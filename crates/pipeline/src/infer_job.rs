//! The inference MapReduce job (Section IV-C).
//!
//! Input is "the union of all the items from each retailer", organized so a
//! retailer's items are contiguous; each split covers one retailer's item
//! range (large retailers get many splits and parallelize "over hundreds of
//! machines", small ones one). A map task loads the retailer's **best**
//! model once (one model in memory per task — Section IV-C2), materializes
//! the representation matrices, selects candidates, scores them, and emits
//! the top-K lists for both surfaces. In this process the load and the two
//! matrices are computed once per retailer and shared by its splits (every
//! attempt is still *charged* for them in virtual time), and dropped when
//! the retailer's last split is done.
//!
//! A task may fan its item range out over [`InferenceJob::threads`] scoped
//! worker threads ([`InferenceEngine::map_items`]): inference is read-only,
//! so output stays byte-identical at any thread count, and virtual-time
//! accounting (`ctx.consume`) replays sequentially in item order after the
//! parallel compute so preemption sampling is thread-count-invariant too
//! (DESIGN.md §8).
//!
//! Inference splits are idempotent and cheap relative to training, so they
//! are simply re-executed on pre-emption (no checkpointing).
//!
//! A finished split's rows leave memory at once as an `SGRC` part blob
//! ([`data::recs_part_path`]); the publish phase stitches the parts one
//! retailer at a time (DESIGN.md §12), so the job's resident output is one
//! split regardless of fleet size.
//!
//! That in-split fan-out is this job's use of real cores, so the pipeline
//! gives it one engine worker (`run_map_job_obs(.., 1)`): engine workers on
//! top would exceed the thread budget `threads` was sized for, and the
//! job's per-retailer cache assumes one attempt at a time. Like every task
//! it records obs through its [`AttemptCtx`] and holds no `Obs` of its own.

use crate::cost_model::CostModel;
use crate::data;
use parking_lot::Mutex;
use sigmund_core::prelude::*;
use sigmund_dfs::Dfs;
use sigmund_mapreduce::{AttemptCtx, MapStatus, MapTask};
use sigmund_obs::ObsLog;
use sigmund_types::{Catalog, CellId, ConfigRecord, RetailerId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One inference split: a contiguous item range of one retailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferSplit {
    /// The retailer.
    pub retailer: RetailerId,
    /// First item (inclusive).
    pub start: u32,
    /// Past-the-end item.
    pub end: u32,
}

/// Builds splits covering every item of every retailer, at most
/// `items_per_split` items each, retailer-contiguous.
pub fn make_splits(item_counts: &[(RetailerId, usize)], items_per_split: usize) -> Vec<InferSplit> {
    assert!(items_per_split > 0);
    let mut out = Vec::new();
    for &(retailer, n) in item_counts {
        let mut start = 0usize;
        while start < n {
            let end = (start + items_per_split).min(n);
            out.push(InferSplit {
                retailer,
                start: start as u32,
                end: end as u32,
            });
            start = end;
        }
    }
    out
}

/// Everything a split needs about its retailer, built once and shared.
struct RetailerInferState {
    catalog: Catalog,
    model: BprModel,
    cooc: CoocModel,
    index: CandidateIndex,
    repurchase: RepurchaseStats,
    /// The model's two representation matrices, which every split's engine
    /// scores from.
    item_reps: Arc<ItemRepMatrix>,
    ctx_reps: Arc<CtxRepMatrix>,
    model_bytes: u64,
    hybrid: HybridPolicy,
}

/// A retailer's slot in the job's state cache.
struct Resident {
    /// Splits of the retailer that have not yet returned `Done`.
    splits_left: usize,
    state: Option<Arc<RetailerInferState>>,
}

/// The inference job over item-range splits.
pub struct InferenceJob<'a> {
    dfs: &'a Dfs,
    cell: CellId,
    splits: Vec<InferSplit>,
    /// Best (trained, evaluated) config per retailer.
    best: BTreeMap<RetailerId, ConfigRecord>,
    cost: CostModel,
    /// Recommendations per item surface.
    pub k: usize,
    /// Scoped worker threads per map task (1 = sequential). Output is
    /// byte-identical regardless — inference is read-only.
    pub threads: usize,
    selector: CandidateSelector,
    /// Item count per retailer: the largest end among its splits.
    items: BTreeMap<RetailerId, u32>,
    /// Shared per-retailer state, resident from a retailer's first split
    /// until its last one is done.
    cache: Mutex<BTreeMap<RetailerId, Resident>>,
}

impl<'a> InferenceJob<'a> {
    /// Creates the job. `best` maps each retailer to the config record that
    /// won model selection (its `model_path` must exist in the DFS).
    pub fn new(
        dfs: &'a Dfs,
        cell: CellId,
        splits: Vec<InferSplit>,
        best: BTreeMap<RetailerId, ConfigRecord>,
        cost: CostModel,
    ) -> Self {
        let mut items = BTreeMap::new();
        let mut cache = BTreeMap::new();
        for sp in &splits {
            let n = items.entry(sp.retailer).or_insert(0);
            *n = sp.end.max(*n);
            cache
                .entry(sp.retailer)
                .or_insert(Resident {
                    splits_left: 0,
                    state: None,
                })
                .splits_left += 1;
        }
        Self {
            dfs,
            cell,
            splits,
            best,
            cost,
            k: 10,
            threads: 1,
            selector: CandidateSelector::default(),
            items,
            cache: Mutex::new(cache),
        }
    }

    /// Overrides the candidate selector (T9 sweeps `k`).
    pub fn with_selector(mut self, selector: CandidateSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Number of splits.
    pub fn n_splits(&self) -> usize {
        self.splits.len()
    }

    fn state_for(
        &self,
        r: RetailerId,
        obs: &mut ObsLog,
    ) -> Result<Arc<RetailerInferState>, sigmund_types::SigmundError> {
        if let Some(s) = self.cache.lock().get(&r).and_then(|e| e.state.as_ref()) {
            return Ok(Arc::clone(s));
        }
        let rec = self.best.get(&r).ok_or_else(|| {
            sigmund_types::SigmundError::Invalid(format!("no best model for {r}"))
        })?;
        let catalog = data::load_catalog(self.dfs, self.cell, r)?;
        let model_raw = self.dfs.read(self.cell, &rec.model_path)?;
        let model_bytes = model_raw.len() as u64;
        let model = ModelSnapshot::from_bytes(&model_raw)?.restore(&catalog, 0)?;
        let events = data::load_events(self.dfs, self.cell, r)?;
        let cooc = CoocModel::build(catalog.len(), &events, CoocConfig::default());
        let index = CandidateIndex::build(&catalog);
        let repurchase = RepurchaseStats::estimate(&catalog, &events, 0.3);
        let item_reps = Arc::new(model.materialize_item_reps(&catalog));
        let ctx_reps = Arc::new(model.materialize_context_reps(&catalog));
        obs.counter("infer.rep_builds", 1);
        let state = Arc::new(RetailerInferState {
            catalog,
            model,
            cooc,
            index,
            repurchase,
            item_reps,
            ctx_reps,
            model_bytes,
            hybrid: HybridPolicy::default(),
        });
        if let Some(e) = self.cache.lock().get_mut(&r) {
            e.state = Some(Arc::clone(&state));
        }
        Ok(state)
    }

    /// One of `r`'s splits is done; the last one takes the retailer out of
    /// the cache, so the job holds rep matrices only for retailers with
    /// work left. Pre-empted and failed attempts never get here, so a retry
    /// finds the state still resident.
    fn split_done(&self, r: RetailerId) {
        let mut cache = self.cache.lock();
        if let Some(e) = cache.get_mut(&r) {
            e.splits_left -= 1;
            if e.splits_left == 0 {
                cache.remove(&r);
            }
        }
    }
}

impl MapTask for InferenceJob<'_> {
    fn run(&self, split: usize, ctx: &mut AttemptCtx) -> MapStatus {
        let sp = self.splits[split];
        let state = match self.state_for(sp.retailer, ctx.obs()) {
            Ok(s) => s,
            // Transient read faults and torn-read corruption may clear on
            // re-execution; the retry cap bounds genuinely corrupt data, and
            // an exhausted split degrades the retailer to the previous
            // published generation instead of serving empty tables.
            Err(sigmund_types::SigmundError::Transient(_))
            | Err(sigmund_types::SigmundError::Corrupt(_)) => return MapStatus::Preempted,
            Err(_) => return MapStatus::Done, // permanent failure: skip
        };
        // Each task pays the model load once (tasks on other machines cannot
        // share memory even though our in-process cache shares the compute).
        if !ctx.consume(self.cost.load_seconds(state.model_bytes)) {
            return MapStatus::Preempted;
        }
        // Likewise the two representation matrices — one rep per catalog
        // item and side: shared here, but a task elsewhere would build its
        // own, so every attempt pays for them in virtual time before any
        // scoring happens.
        let rep_build_s = self.cost.scoring_seconds(2 * state.catalog.len() as u64);
        if !ctx.consume(rep_build_s) {
            return MapStatus::Preempted;
        }
        let engine = InferenceEngine::from_reps(
            &state.model,
            &state.catalog,
            &state.index,
            &state.cooc,
            &state.repurchase,
            Arc::clone(&state.item_reps),
            Arc::clone(&state.ctx_reps),
        )
        .with_selector(self.selector.clone());
        let now = ctx.used();
        ctx.obs().gauge("infer.rep_build_s", now, rep_build_s);
        // Parallel phase: pure per-item compute over the split's range.
        // Fan-out over scoped threads keeps results in item order, so the
        // output is byte-identical for any `threads` value.
        let per_item = engine.map_items(sp.start..sp.end, self.threads, |eng, item| {
            let before = eng.candidates_scored();
            let recs = ItemRecs {
                view_based: state.hybrid.recommend(
                    &state.cooc,
                    eng,
                    item,
                    RecTask::ViewBased,
                    self.k,
                ),
                purchase_based: state.hybrid.recommend(
                    &state.cooc,
                    eng,
                    item,
                    RecTask::PurchaseBased,
                    self.k,
                ),
            };
            (recs, eng.candidates_scored() - before)
        });
        // Sequential replay of virtual cost in item order: the `consume`
        // sequence (and thus preemption sampling and traces) must not
        // depend on the thread count.
        let mut split_scored = 0u64;
        let mut table: Vec<ItemRecs> = Vec::with_capacity((sp.end - sp.start) as usize);
        for (recs, scored) in per_item {
            if !ctx.consume(self.cost.scoring_seconds(scored.max(1))) {
                // Discard partial output; the re-executed attempt redoes the
                // whole split (idempotent).
                return MapStatus::Preempted;
            }
            split_scored += scored;
            table.push(recs);
        }
        // The split's output leaves memory immediately as a part blob. It
        // lands via tmp+rename so a crash mid-write can never leave a
        // half-written part at the final path — readers see the old blob or
        // the new one, and orphaned `/TMP` siblings go with the publish
        // phase's part sweep. A failed write or rename is retryable like any
        // other fault in the attempt.
        let part = data::recs_part_path(sp.retailer, sp.start);
        let tmp = format!("{part}/TMP");
        if self
            .dfs
            .write(self.cell, &tmp, data::encode_recs(&table))
            .is_err()
            || self.dfs.rename(&tmp, &part).is_err()
        {
            return MapStatus::Preempted;
        }
        let now = ctx.used();
        let obs = ctx.obs();
        obs.counter("infer.items_materialized", table.len() as u64);
        obs.counter("infer.candidates_scored", split_scored);
        if now > 0.0 {
            obs.gauge("infer.candidates_per_cpu_s", now, split_scored as f64 / now);
        }
        self.split_done(sp.retailer);
        MapStatus::Done
    }

    fn label(&self, split: usize) -> String {
        let sp = self.splits[split];
        format!("infer {} [{}..{})", sp.retailer, sp.start, sp.end)
    }

    fn est_work(&self, split: usize) -> f64 {
        let sp = self.splits[split];
        // Linear in items, thanks to candidate selection (Section IV-C1).
        let items = (sp.end - sp.start) as u64;
        self.cost
            .scoring_seconds(items * 2 * self.selector.max_candidates as u64 / 4)
    }

    fn memory_gb(&self, split: usize) -> f64 {
        let sp = self.splits[split];
        let factors = self
            .best
            .get(&sp.retailer)
            .map(|r| r.params.factors)
            .unwrap_or(16);
        // One model in memory at a time, plus the engine's two materialized
        // representation matrices (item- and context-side, f32 rows).
        let items = self.items.get(&sp.retailer).copied().unwrap_or(0) as f64;
        let rep_matrix_gb = 2.0 * items * factors as f64 * 4.0 / 1e9;
        // The model term must use the retailer's real item count: passing 0
        // collapsed it to the floor and under-packed large retailers, so a
        // cell could admit more concurrent big-catalog tasks than fit.
        self.cost.model_memory_gb(items as usize, factors).max(0.05) + rep_matrix_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::full_sweep_for;
    use crate::train_job::TrainJob;
    use sigmund_cluster::{CellSpec, PreemptionModel, Priority};
    use sigmund_datagen::RetailerSpec;
    use sigmund_mapreduce::{run_map_job, run_map_job_obs, JobConfig};
    use sigmund_obs::{Level, Obs};
    use sigmund_types::ItemId;

    fn cfg(rate: f64, seed: u64) -> JobConfig {
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

    /// Trains one retailer end-to-end and returns its best record.
    fn trained_retailer(dfs: &Dfs, seed: u64) -> (Catalog, ConfigRecord) {
        trained(dfs, RetailerId(0), seed)
    }

    fn trained(dfs: &Dfs, retailer: RetailerId, seed: u64) -> (Catalog, ConfigRecord) {
        let mut spec = RetailerSpec::small(retailer, seed);
        spec.n_items = 50;
        spec.n_users = 60;
        let datum = spec.generate();
        data::publish_retailer(dfs, CellId(0), &datum.catalog, &datum.events).unwrap();
        let grid = GridSpec {
            factors: vec![8],
            learning_rates: vec![0.1],
            regs: vec![(0.01, 0.01)],
            features: vec![sigmund_types::FeatureSwitches::NONE],
            samplers: vec![sigmund_types::NegativeSamplerKind::UniformUnseen],
            seeds: vec![1],
            epochs: 3,
        };
        let records = full_sweep_for(&datum.catalog, &grid);
        let job = TrainJob::new(dfs, CellId(0), records.clone(), CostModel::default());
        run_map_job(&job, records.len(), &cfg(0.0, 1));
        let outputs = job.take_outputs();
        (datum.catalog, outputs.into_iter().next().unwrap())
    }

    /// What a finished job sank: every split's part blob decoded into
    /// `(retailer, item, recs)` rows, in split order. A split that left no
    /// part (skipped or abandoned) contributes nothing.
    fn sunk_rows(dfs: &Dfs, splits: &[InferSplit]) -> Vec<(RetailerId, ItemId, ItemRecs)> {
        let mut rows = Vec::new();
        for sp in splits {
            let part = data::recs_part_path(sp.retailer, sp.start);
            let Some(bytes) = dfs.peek(&part) else {
                continue;
            };
            let table = data::decode_recs(&bytes).unwrap();
            assert_eq!(table.len(), (sp.end - sp.start) as usize, "{part}");
            rows.extend(
                (sp.start..)
                    .zip(table)
                    .map(|(item, recs)| (sp.retailer, ItemId(item), recs)),
            );
        }
        rows
    }

    #[test]
    fn make_splits_covers_all_items() {
        let splits = make_splits(&[(RetailerId(0), 25), (RetailerId(1), 5)], 10);
        assert_eq!(splits.len(), 4);
        assert_eq!(
            splits[0],
            InferSplit {
                retailer: RetailerId(0),
                start: 0,
                end: 10
            }
        );
        assert_eq!(splits[2].end, 25);
        assert_eq!(
            splits[3],
            InferSplit {
                retailer: RetailerId(1),
                start: 0,
                end: 5
            }
        );
    }

    #[test]
    fn inference_materializes_every_item() {
        let dfs = Dfs::new();
        let (catalog, best) = trained_retailer(&dfs, 3);
        let splits = make_splits(&[(RetailerId(0), catalog.len())], 20);
        let mut map = BTreeMap::new();
        map.insert(RetailerId(0), best);
        let job = InferenceJob::new(&dfs, CellId(0), splits.clone(), map, CostModel::default());
        let stats = run_map_job(&job, splits.len(), &cfg(0.0, 1));
        assert_eq!(stats.preemptions, 0);
        let outputs = sunk_rows(&dfs, &splits);
        assert_eq!(outputs.len(), catalog.len());
        // Every item covered exactly once.
        let mut seen: Vec<u32> = outputs.iter().map(|(_, item, _)| item.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..catalog.len() as u32).collect::<Vec<_>>());
        // Lists respect K and never self-recommend.
        for (_, item, recs) in &outputs {
            assert!(recs.view_based.len() <= 10);
            assert!(recs.view_based.iter().all(|(i, _)| i != item));
        }
        // Parts land by rename: no `/TMP` sibling survives a clean job.
        assert_eq!(dfs.list(data::RECS_PARTS_PREFIX).len(), splits.len());
    }

    #[test]
    fn preempted_splits_produce_no_duplicates() {
        let dfs = Dfs::new();
        let (catalog, best) = trained_retailer(&dfs, 4);
        let splits = make_splits(&[(RetailerId(0), catalog.len())], 10);
        let mut map = BTreeMap::new();
        map.insert(RetailerId(0), best);
        // Calibrate: measure the per-split cost without pre-emption, then
        // set the hazard so the mean budget is about half a split.
        let probe = InferenceJob::new(
            &dfs,
            CellId(0),
            splits.clone(),
            map.clone(),
            CostModel::default(),
        );
        let clean = run_map_job(&probe, splits.len(), &cfg(0.0, 9));
        let mean_split = clean.cost.total_cpu_s() / splits.len() as f64;
        assert!(mean_split > 0.0);
        let rate_per_hour = 3600.0 / (mean_split / 2.0);
        let job = InferenceJob::new(&dfs, CellId(0), splits.clone(), map, CostModel::default());
        let obs = Obs::recording(Level::Debug);
        let c = cfg(rate_per_hour, 9);
        let stats = run_map_job_obs(&job, splits.len(), &c, "infer", &obs, 0.0, 1);
        // Only `Done` counts a split off, so every retry found the state
        // the first attempt built, and the last `Done` dropped it.
        assert_eq!(obs.metrics().unwrap().counter("infer.rep_builds"), 1);
        assert!(job.cache.lock().is_empty());
        // `sunk_rows` checks every part holds exactly its split's rows: a
        // pre-empted attempt sinks nothing, and the attempt that finishes
        // sinks the whole split.
        let outputs = sunk_rows(&dfs, &splits);
        assert_eq!(
            outputs.len(),
            catalog.len(),
            "preempted attempts must not leak partial output"
        );
        assert_eq!(dfs.list(data::RECS_PARTS_PREFIX).len(), splits.len());
        assert!(stats.preemptions > 0);
    }

    #[test]
    fn threaded_job_output_matches_single_thread() {
        let dfs = Dfs::new();
        let (catalog, best) = trained_retailer(&dfs, 5);
        let splits = make_splits(&[(RetailerId(0), catalog.len())], 20);
        let mut map = BTreeMap::new();
        map.insert(RetailerId(0), best);
        let run_with = |threads: usize| {
            let mut job = InferenceJob::new(
                &dfs,
                CellId(0),
                splits.clone(),
                map.clone(),
                CostModel::default(),
            );
            job.threads = threads;
            let stats = run_map_job(&job, splits.len(), &cfg(0.0, 7));
            (sunk_rows(&dfs, &splits), stats.makespan)
        };
        let (base, base_makespan) = run_with(1);
        for threads in [2usize, 4] {
            let (outs, makespan) = run_with(threads);
            assert_eq!(outs, base, "thread count changed recs");
            // Virtual-time accounting replays sequentially, so even the
            // simulated makespan is thread-count-invariant.
            assert_eq!(makespan, base_makespan);
        }
    }

    #[test]
    fn missing_model_split_is_skipped() {
        let dfs = Dfs::new();
        let splits = vec![InferSplit {
            retailer: RetailerId(42),
            start: 0,
            end: 5,
        }];
        let job = InferenceJob::new(
            &dfs,
            CellId(0),
            splits,
            BTreeMap::new(),
            CostModel::default(),
        );
        run_map_job(&job, 1, &cfg(0.0, 1));
        assert!(dfs.list(data::RECS_PARTS_PREFIX).is_empty());
    }

    #[test]
    fn memory_gb_matches_the_per_call_scan() {
        // What `memory_gb` computed before the item count moved into `new`:
        // a scan of the whole split list for the retailer's largest end.
        fn scanned(job: &InferenceJob<'_>, split: usize) -> f64 {
            let sp = job.splits[split];
            let factors = job
                .best
                .get(&sp.retailer)
                .map(|r| r.params.factors)
                .unwrap_or(16);
            let items = job
                .splits
                .iter()
                .filter(|s| s.retailer == sp.retailer)
                .map(|s| s.end as f64)
                .fold(0.0, f64::max);
            let rep_matrix_gb = 2.0 * items * factors as f64 * 4.0 / 1e9;
            job.cost.model_memory_gb(items as usize, factors).max(0.05) + rep_matrix_gb
        }
        let dfs = Dfs::new();
        let (_, best) = trained_retailer(&dfs, 3);
        let mut wide = best.clone();
        wide.params.factors = 64;
        // Retailer 7 has a model record, 2 a wider one, 5 none (default 16).
        let map = BTreeMap::from([(RetailerId(7), best), (RetailerId(2), wide)]);
        let splits = make_splits(
            &[
                (RetailerId(7), 2_500_000),
                (RetailerId(2), 301),
                (RetailerId(5), 40_000),
            ],
            100_000,
        );
        assert!(splits.len() > 3);
        let job = InferenceJob::new(&dfs, CellId(0), splits.clone(), map, CostModel::default());
        for s in 0..splits.len() {
            assert_eq!(
                job.memory_gb(s).to_bits(),
                scanned(&job, s).to_bits(),
                "split {s}"
            );
        }
        assert!(job.memory_gb(0) > job.memory_gb(splits.len() - 1));
    }

    #[test]
    fn finished_retailers_leave_the_cache() {
        let dfs = Dfs::new();
        let (cat0, best0) = trained(&dfs, RetailerId(0), 7);
        let (cat1, best1) = trained(&dfs, RetailerId(1), 8);
        let counts = [(RetailerId(0), cat0.len()), (RetailerId(1), cat1.len())];
        let map = BTreeMap::from([(RetailerId(0), best0), (RetailerId(1), best1)]);
        let run = |counts: &[(RetailerId, usize)]| {
            let splits = make_splits(counts, 20);
            let job = InferenceJob::new(
                &dfs,
                CellId(0),
                splits.clone(),
                map.clone(),
                CostModel::default(),
            );
            run_map_job(&job, splits.len(), &cfg(0.0, 1));
            assert!(job.cache.lock().is_empty());
            sunk_rows(&dfs, &splits)
        };
        let both = run(&counts);
        let apart: Vec<_> = counts.iter().flat_map(|c| run(&[*c])).collect();
        assert_eq!(both.len(), cat0.len() + cat1.len());
        assert_eq!(both, apart);
    }

    #[test]
    fn rep_matrices_are_built_once_per_retailer() {
        let dfs = Dfs::new();
        let (catalog, best) = trained_retailer(&dfs, 5);
        let map = BTreeMap::from([(RetailerId(0), best)]);
        let run = |items_per_split: usize| {
            let splits = make_splits(&[(RetailerId(0), catalog.len())], items_per_split);
            let job = InferenceJob::new(
                &dfs,
                CellId(0),
                splits.clone(),
                map.clone(),
                CostModel::default(),
            );
            let obs = Obs::recording(Level::Debug);
            run_map_job_obs(&job, splits.len(), &cfg(0.0, 7), "infer", &obs, 0.0, 1);
            let builds = obs.metrics().unwrap().counter("infer.rep_builds");
            (splits.len(), builds, sunk_rows(&dfs, &splits))
        };
        let (n_splits, builds, stitched) = run(catalog.len().div_ceil(5));
        assert_eq!(n_splits, 5);
        assert_eq!(builds, 1, "one build per retailer, not per split");
        let (n_splits, builds, whole) = run(catalog.len());
        assert_eq!((n_splits, builds), (1, 1));
        assert_eq!(stitched, whole, "split count changed recs");
    }
}
