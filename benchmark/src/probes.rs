//! Isolated layer probes: one public function of one layer, timed alone on
//! a fixed seeded input. They run in every traced pass and do not depend on
//! the workload; each is the best of a few repetitions, because a probe
//! answers "how fast can this layer go", not "how long did the day take".

use crate::clock::{timed, wall_now, Tracer};
use crate::day::{timed_day, Fleet, Ingest};
use crate::fleet;
use crate::serve::{share, synth_table};
use crate::spec::{DaySizes, FleetShape, REC_K};
use bytes::Bytes;
use sigmund_cluster::{CellSpec, ClusterSim, PreemptionModel, Priority, StormSchedule, TaskSpec};
use sigmund_core::prelude::*;
use sigmund_datagen::{evolve_day, EvolutionSpec, RetailerData, RetailerSpec};
use sigmund_dfs::{CheckpointStore, Dfs};
use sigmund_mapreduce::{run_map_job, AttemptCtx, JobConfig, MapStatus, MapTask};
use sigmund_obs::{HealthBus, HealthEvent, Level, Obs, Track};
use sigmund_pipeline::data;
use sigmund_serving::{ColdTier, ColdTierConfig, FetchResult, ServingStore, TierSim};
use sigmund_types::{fnv1a64, CellId, FeatureSwitches, HyperParams, RetailerId, TaskId};
use std::hint::black_box;
use std::sync::Arc;

const CELL: CellId = CellId(0);
const MB: f64 = 1e6;

/// Best (smallest) wall seconds of `reps` runs of `f`.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps.max(1))
        .map(|_| timed(|| black_box(f())).1)
        .fold(f64::INFINITY, f64::min)
}

/// The fixed CPU loop used as the noise sentinel: `fnv1a64` over 64 MiB
/// (1 MiB under `--smoke`, where debug builds hash slowly).
pub fn sentinel_ms(smoke: bool) -> f64 {
    let buf = vec![0xA5u8; if smoke { 1 << 20 } else { 64 << 20 }];
    timed(|| black_box(fnv1a64(black_box(&buf)))).1 * 1e3
}

pub struct ProbeSizes {
    pub train_items: usize,
    pub infer_items: usize,
    pub reps: usize,
    pub loop_n: usize,
    pub overhead_fleet: DaySizes,
}

impl ProbeSizes {
    pub fn new(smoke: bool) -> Self {
        let fleet = |n, max| DaySizes {
            fleet: FleetShape {
                n_retailers: n,
                min_items: 20,
                max_items: max,
                pareto_alpha: 1.16,
                users_per_item: 1.0,
                sessions_per_user: 3.0,
            },
            factors: vec![8],
            learning_rates: vec![0.05, 0.15],
            features: vec![FeatureSwitches::NONE],
            epochs: 3,
            preemption: PreemptionModel::typical(),
            items_per_split: 500,
            nominal_day_s: 1.0,
            nominal_lookups_per_s: 1.0,
        };
        if smoke {
            ProbeSizes {
                train_items: 60,
                infer_items: 80,
                reps: 1,
                loop_n: 50,
                overhead_fleet: fleet(2, 30),
            }
        } else {
            ProbeSizes {
                train_items: 1_500,
                infer_items: 4_000,
                reps: 3,
                loop_n: 2_000,
                // 40 retailers, kept small: six days of it run per pass.
                overhead_fleet: fleet(40, 300),
            }
        }
    }
}

/// Runs every isolated probe; returns `(metric name, value)` pairs.
pub fn run_all(seed: u64, smoke: bool, tr: &Tracer) -> Vec<(&'static str, f64)> {
    let sz = ProbeSizes::new(smoke);
    let mut out = Vec::new();
    tr.span("bench", "probes", || {
        types_and_dfs(&sz, &mut out);
        engines(&sz, &mut out);
        let retailer = datagen(&sz, seed, &mut out);
        core_training(&sz, &retailer, &mut out);
        core_inference(&sz, seed, &mut out);
        pipeline_codecs(&sz, &retailer, &mut out);
        obs_calls(&sz, &mut out);
        serving(&sz, &mut out);
        overheads(&sz, seed, &mut out);
        out.push(("bench.sentinel_ms", sentinel_ms(smoke)));
    });
    out
}

type Out = Vec<(&'static str, f64)>;

fn types_and_dfs(sz: &ProbeSizes, out: &mut Out) {
    let mib = vec![0x5Au8; 1 << 20];
    let t = best_of(sz.reps * 5, || fnv1a64(black_box(&mib)));
    out.push(("types.fnv1a64_mb_per_s", mib.len() as f64 / MB / t));

    // 256 KiB blobs, checksummed on write and verified on read.
    let blob = Bytes::from(vec![7u8; 256 << 10]);
    let n = (sz.loop_n / 50).max(4);
    let dfs = Dfs::new();
    let tw = best_of(sz.reps, || {
        for i in 0..n {
            dfs.write(CELL, &format!("/probe/b{i}"), blob.clone())
                .expect("probe write");
        }
    });
    let tr = best_of(sz.reps, || {
        for i in 0..n {
            black_box(dfs.read(CELL, &format!("/probe/b{i}")).expect("probe read"));
        }
    });
    let moved = (n * blob.len()) as f64 / MB;
    out.push(("dfs.write_mb_per_s", moved / tw));
    out.push(("dfs.read_mb_per_s", moved / tr));

    // The journal / marker / tmp+rename pattern: tiny blob, three ops.
    let tiny = Bytes::from(vec![1u8; 64]);
    let t = best_of(sz.reps, || {
        for i in 0..sz.loop_n {
            let tmp = format!("/probe/s{i}/TMP");
            let live = format!("/probe/s{i}/LIVE");
            dfs.write(CELL, &tmp, tiny.clone()).expect("probe write");
            dfs.rename(&tmp, &live).expect("probe rename");
            dfs.delete(&live).expect("probe delete");
        }
    });
    out.push(("dfs.small_op_ns", t * 1e9 / sz.loop_n as f64));

    let store = CheckpointStore::new(&dfs, CELL, "/probe/ckpt");
    let payload = vec![3u8; 4 << 10];
    let rounds = (sz.loop_n / 10).max(5);
    let t = best_of(sz.reps, || {
        for i in 0..rounds {
            store.publish(i as u64, &payload).expect("probe checkpoint");
            black_box(store.latest().expect("probe checkpoint read"));
        }
    });
    out.push(("dfs.checkpoint_roundtrip_us", t * 1e6 / rounds as f64));
}

/// A map task that only spends virtual time: what a split costs before it
/// does any work.
struct NoOp;

impl MapTask for NoOp {
    fn run(&self, _split: usize, ctx: &mut AttemptCtx) -> MapStatus {
        if ctx.consume(1.0) {
            MapStatus::Done
        } else {
            MapStatus::Preempted
        }
    }
    fn est_work(&self, _split: usize) -> f64 {
        1.0
    }
}

fn engines(sz: &ProbeSizes, out: &mut Out) {
    let n = sz.loop_n * 2;
    let sim = ClusterSim::new(CellSpec::standard(CELL, 8), PreemptionModel::typical(), 1);
    let tasks: Vec<TaskSpec> = (0..n)
        .map(|i| {
            TaskSpec::sigmund_default(TaskId::from_index(i), 60.0 + (i % 17) as f64 * 30.0, 4.0)
        })
        .collect();
    let t = best_of(sz.reps, || sim.run(&tasks));
    out.push(("cluster.sim_tasks_per_s", n as f64 / t));

    let cfg = JobConfig {
        cell: CellSpec::standard(CELL, 8),
        priority: Priority::Preemptible,
        preemption: PreemptionModel::typical(),
        seed: 1,
        max_attempts: Some(200),
        backoff: None,
        storms: StormSchedule::none(),
        flaky: None,
    };
    let t = best_of(sz.reps, || run_map_job(&NoOp, n, &cfg));
    out.push(("mapreduce.split_overhead_us", t * 1e6 / n as f64));
}

fn datagen(sz: &ProbeSizes, seed: u64, out: &mut Out) -> RetailerData {
    let spec = RetailerSpec::sized(RetailerId(0), sz.train_items, sz.train_items, seed ^ 0xDA7A);
    let retailer = spec.generate();
    let t = best_of(sz.reps, || spec.generate());
    out.push(("datagen.events_per_s", retailer.events.len() as f64 / t));
    let mut evolved = retailer.clone();
    let (delta, t) = timed(|| {
        evolve_day(
            &mut evolved,
            &EvolutionSpec {
                seed,
                ..Default::default()
            },
        )
    });
    out.push(("datagen.evolve_events_per_s", delta.new_events as f64 / t));
    retailer
}

fn hp(features: FeatureSwitches) -> HyperParams {
    HyperParams {
        factors: 16,
        learning_rate: 0.05,
        features,
        ..Default::default()
    }
}

fn core_training(sz: &ProbeSizes, r: &RetailerData, out: &mut Out) {
    let n_events = r.events.len() as f64;
    let t = best_of(sz.reps, || {
        Dataset::build(r.catalog.len(), r.events.clone(), true)
    });
    let t_clone = best_of(sz.reps, || r.events.clone());
    out.push((
        "core.dataset_build_events_per_s",
        n_events / (t - t_clone).max(1e-9),
    ));

    let ds = Dataset::build(r.catalog.len(), r.events.clone(), true);
    let epoch = |features, threads: usize| {
        let hp = hp(features);
        let model = BprModel::init(&r.catalog, hp.clone());
        let sampler = NegativeSampler::new(hp.negative_sampler, &r.catalog, None);
        let opts = TrainOptions {
            epochs: 0,
            threads,
            seed: 5,
        };
        let mut examples = 0;
        // Epoch 0 warms the tables; later epochs are the steady cost.
        train_epoch(&model, &r.catalog, &ds, &sampler, &opts, 0);
        let t = (1..=sz.reps as u32)
            .map(|e| {
                let (stats, t) = timed(|| train_epoch(&model, &r.catalog, &ds, &sampler, &opts, e));
                examples = stats.examples;
                t
            })
            .fold(f64::INFINITY, f64::min);
        (examples as f64 / t, model)
    };
    let (plain, _) = epoch(FeatureSwitches::NONE, 1);
    let (feat, model) = epoch(FeatureSwitches::ALL, 1);
    let (feat_2t, _) = epoch(FeatureSwitches::ALL, 2);
    out.push(("core.train_examples_per_s", plain));
    out.push(("core.train_examples_per_s_feat", feat));
    out.push(("core.train_scaling_2t", feat_2t / feat));

    let holdouts = ds.holdout.len() as f64;
    let t = best_of(sz.reps, || {
        evaluate(&model, &r.catalog, &ds, EvalConfig::default())
    });
    out.push(("core.eval_holdouts_per_s", holdouts / t));
    let t = best_of(sz.reps, || {
        evaluate(&model, &r.catalog, &ds, EvalConfig::sampled_10pct())
    });
    out.push(("core.eval_sampled_holdouts_per_s", holdouts / t));

    let bytes = ModelSnapshot::capture(&model).to_bytes();
    let mb = bytes.len() as f64 / MB;
    let t = best_of(sz.reps * 2, || ModelSnapshot::capture(&model).to_bytes());
    out.push(("core.snapshot_encode_mb_per_s", mb / t));
    let t = best_of(sz.reps * 2, || {
        ModelSnapshot::from_bytes(&bytes)
            .and_then(|s| s.restore(&r.catalog, 1))
            .expect("probe restore")
    });
    out.push(("core.snapshot_decode_mb_per_s", mb / t));
}

fn core_inference(sz: &ProbeSizes, seed: u64, out: &mut Out) {
    let n = sz.infer_items;
    let r = RetailerSpec::sized(RetailerId(1), n, n, seed ^ 0x1AFE).generate();
    // An untrained model has the same compute shape as a trained one.
    let model = BprModel::init(&r.catalog, hp(FeatureSwitches::ALL));
    let cooc = CoocModel::build(r.catalog.len(), &r.events, CoocConfig::default());
    let index = CandidateIndex::build(&r.catalog);
    let rep = RepurchaseStats::estimate(&r.catalog, &r.events, 0.3);
    let t = best_of(sz.reps, || {
        InferenceEngine::new(&model, &r.catalog, &index, &cooc, &rep)
    });
    out.push(("core.rep_build_items_per_s", n as f64 / t));

    let engine = InferenceEngine::new(&model, &r.catalog, &index, &cooc, &rep);
    let before = engine.candidates_scored();
    let table = engine.materialize_all(REC_K);
    let per_pass = (engine.candidates_scored() - before) as f64;
    let t1 = best_of(sz.reps, || engine.materialize_all(REC_K));
    let t2 = best_of(sz.reps, || engine.materialize_all_threads(REC_K, 2));
    let t_ref = best_of(1, || engine.materialize_all_reference(REC_K));
    out.push(("core.infer_items_per_s", n as f64 / t1));
    out.push(("core.infer_candidates_per_s", per_pass / t1));
    out.push(("core.infer_scaling_2t", t1 / t2));
    out.push(("core.infer_fast_vs_reference", t_ref / t1));

    let blob = data::encode_recs(&table);
    let mb = blob.len() as f64 / MB;
    let t = best_of(sz.reps * 2, || data::encode_recs(&table));
    out.push(("core.recs_encode_mb_per_s", mb / t));
    let t = best_of(sz.reps * 2, || {
        data::decode_recs(&blob).expect("probe decode")
    });
    out.push(("core.recs_decode_mb_per_s", mb / t));
}

fn pipeline_codecs(sz: &ProbeSizes, r: &RetailerData, out: &mut Out) {
    let ev = data::encode_events(&r.events);
    let mb = ev.len() as f64 / MB;
    let t = best_of(sz.reps * 2, || data::encode_events(&r.events));
    out.push(("pipeline.encode_events_mb_per_s", mb / t));
    let t = best_of(sz.reps * 2, || {
        data::decode_events(&ev).expect("probe decode")
    });
    out.push(("pipeline.decode_events_mb_per_s", mb / t));
    let cat = data::encode_catalog(&r.catalog);
    let mb = cat.len() as f64 / MB;
    let t = best_of(sz.reps * 4, || data::encode_catalog(&r.catalog));
    out.push(("pipeline.encode_catalog_mb_per_s", mb / t));
    let t = best_of(sz.reps * 4, || {
        data::decode_catalog(&cat).expect("probe decode")
    });
    out.push(("pipeline.decode_catalog_mb_per_s", mb / t));
}

fn obs_calls(sz: &ProbeSizes, out: &mut Out) {
    let n = sz.loop_n * 20;
    let t = best_of(sz.reps, || {
        let obs = Obs::recording(Level::Debug);
        for i in 0..n {
            obs.span(
                Level::Debug,
                "probe",
                "span",
                Track::PIPELINE,
                i as f64,
                i as f64 + 0.5,
                &[("i", i.into())],
            );
        }
        obs.event_count()
    });
    out.push(("obs.span_ns", t * 1e9 / n as f64));
    let t = best_of(sz.reps, || {
        let bus = HealthBus::bounded(1024);
        for i in 0..n {
            bus.publish(HealthEvent::Degraded {
                ts: i as f64,
                day: 0,
                retailer: i as u32,
            });
        }
        bus.total_published()
    });
    out.push(("obs.bus_publish_ns", t * 1e9 / n as f64));
}

fn serving(sz: &ProbeSizes, out: &mut Out) {
    let n_tables = (sz.loop_n / 30).max(4);
    let batch =
        share((0..n_tables).map(|i| (RetailerId(i as u32), synth_table(60 + i % 90, REC_K, 0))));
    let t = best_of(sz.reps, || {
        ServingStore::new().publish_shared(batch.clone())
    });
    out.push(("serving.publish_ms_per_batch", t * 1e3));
    let tier_cfg = ColdTierConfig::enabled((n_tables / 8).max(1), 2, 77);
    let t = best_of(sz.reps, || {
        ServingStore::with_cold_tier(tier_cfg, Arc::new(Dfs::new()), CELL)
            .publish_shared(batch.clone())
    });
    out.push(("serving.publish_tiered_ms_per_batch", t * 1e3));

    // Every fetch below is the retailer's first access: a flash read
    // (checksummed DFS read + decode), never a hot hit.
    let tier = ColdTier::new(tier_cfg, Arc::new(Dfs::new()), CELL);
    for (r, table) in &batch {
        tier.spill(*r, 1, table).expect("probe spill");
    }
    let mut us: Vec<f64> = batch
        .keys()
        .map(|r| {
            let t0 = wall_now();
            let fetched = tier.fetch(*r, 1);
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            assert!(
                matches!(fetched, FetchResult::Table(_)),
                "probe fetch degraded"
            );
            dt
        })
        .collect();
    us.sort_by(f64::total_cmp);
    out.push(("serving.tier_fetch_us", us[us.len() / 2]));

    let n = sz.loop_n * 50;
    let t = best_of(sz.reps, || {
        let mut sim = TierSim::new(tier_cfg);
        for i in 0..n {
            black_box(sim.access(RetailerId((i * i % (n_tables * 3)) as u32)));
        }
    });
    out.push(("serving.tiersim_access_ns", t * 1e9 / n as f64));

    let store = ServingStore::new();
    store.publish_shared(batch.clone());
    let t = best_of(sz.reps, || {
        let meta = store.meta_bytes();
        ServingStore::restore(HealthBus::disabled(), &meta, batch.clone()).expect("probe restore")
    });
    out.push(("serving.meta_restore_ms", t * 1e3));
}

/// `(on − off) ÷ off` of `run_day` for the journal and for an enabled
/// `Obs`, on a fixed probe fleet. Days alternate off / journal / obs and
/// each variant keeps its best time, so drift hits all three alike.
fn overheads(sz: &ProbeSizes, seed: u64, out: &mut Out) {
    let fleet_data = fleet::generate(&sz.overhead_fleet.fleet, seed ^ 0x0B5);
    let day = |journal: bool, obs: bool| {
        let mut cfg = fleet::pipeline_cfg(&sz.overhead_fleet, seed);
        cfg.journal = journal;
        if obs {
            cfg.obs = Obs::recording(Level::Debug);
        }
        let mut f = Fleet::new(cfg);
        let tr = Tracer::on();
        timed_day(&mut f, &fleet_data, Ingest::Onboard, &tr).expect("probe day");
        tr.total("pipeline", "run_day")
    };
    let mut best = [f64::INFINITY; 3];
    for _ in 0..sz.reps.max(2) {
        for (slot, (journal, obs)) in [(false, false), (true, false), (false, true)]
            .into_iter()
            .enumerate()
        {
            best[slot] = best[slot].min(day(journal, obs));
        }
    }
    out.push((
        "pipeline.journal_overhead_frac",
        (best[1] - best[0]) / best[0],
    ));
    out.push(("obs.enabled_overhead_frac", (best[2] - best[0]) / best[0]));
}
