// Experiment / test / example code may unwrap freely; the workspace-level
// clippy panic lints target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Failure injection: the manageability story of Section I ("understand and
//! debug problems efficiently") only holds if corrupt or missing state
//! degrades gracefully instead of wedging the daily pipeline.

use bytes::Bytes;
use sigmund_cluster::{CellSpec, PreemptionModel, Priority, StormSchedule};
use sigmund_core::prelude::ModelSnapshot;
use sigmund_core::selection::GridSpec;
use sigmund_datagen::RetailerSpec;
use sigmund_dfs::{CheckpointStore, Dfs};
use sigmund_mapreduce::{run_map_job, run_map_job_obs, JobConfig};
use sigmund_pipeline::{
    data, full_sweep_for, CostModel, MonitorConfig, PipelineConfig, QualityAlert, QualityMonitor,
    SigmundService, TrainJob,
};
use sigmund_types::*;

/// Some of these paths drive the real serde-backed catalog/model codecs; in
/// stripped build environments where `serde_json` is a stub, skip them.
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

/// Every feature-switch combination: the checkpoint fallback path must hold
/// whichever side tables the model carries.
fn all_switch_combos() -> Vec<FeatureSwitches> {
    let mut combos = Vec::new();
    for bits in 0u8..8 {
        combos.push(FeatureSwitches {
            use_taxonomy: bits & 1 != 0,
            use_brand: bits & 2 != 0,
            use_price: bits & 4 != 0,
        });
    }
    combos
}

fn job_cfg(cell_machines: usize) -> JobConfig {
    JobConfig {
        cell: CellSpec::standard(CellId(0), cell_machines),
        priority: Priority::Preemptible,
        preemption: PreemptionModel::NONE,
        seed: 5,
        max_attempts: Some(50),
        backoff: None,
        storms: StormSchedule::none(),
        flaky: None,
    }
}

#[test]
fn corrupt_checkpoint_falls_back_to_fresh_training() {
    let dfs = Dfs::new();
    let d = RetailerSpec::sized(RetailerId(0), 50, 60, 61).generate();
    data::publish_retailer(&dfs, CellId(0), &d.catalog, &d.events).unwrap();
    let records = full_sweep_for(&d.catalog, &tiny_grid());
    // Poison the checkpoint path the first record will try to restore.
    let ckpt_dir = data::checkpoint_dir(RetailerId(0), records[0].model.config);
    dfs.write(
        CellId(0),
        &format!("{ckpt_dir}/LIVE"),
        Bytes::from_static(b"garbage-not-a-checkpoint"),
    )
    .unwrap();
    let job = TrainJob::new(&dfs, CellId(0), records.clone(), CostModel::default());
    let obs = sigmund_obs::Obs::recording(sigmund_obs::Level::Debug);
    let stats = run_map_job_obs(&job, records.len(), &job_cfg(2), "train", &obs, 0.0, 1);
    assert!(stats.failed.is_empty());
    let outputs = job.take_outputs();
    assert_eq!(
        outputs.len(),
        records.len(),
        "corruption must not drop work"
    );
    assert!(outputs.iter().all(|o| o.metrics.is_some()));
    // The bad restore is counted, and the garbage checkpoint is cleared so
    // retries (and tomorrow's run) don't keep re-parsing it.
    assert!(
        obs.metrics_jsonl()
            .contains("train.checkpoint_restore_failures"),
        "bad checkpoint restores must be counted"
    );
    assert!(
        dfs.peek(&format!("{ckpt_dir}/LIVE")).is_none(),
        "the garbage checkpoint must be cleared, not left to poison retries"
    );
}

#[test]
fn corrupt_warm_start_model_degrades_to_cold_start() {
    let dfs = Dfs::new();
    let d = RetailerSpec::sized(RetailerId(0), 50, 60, 62).generate();
    data::publish_retailer(&dfs, CellId(0), &d.catalog, &d.events).unwrap();
    let mut records = full_sweep_for(&d.catalog, &tiny_grid());
    // Point warm start at garbage bytes.
    dfs.write(
        CellId(0),
        "/models/r0/yesterday",
        Bytes::from_static(b"junk"),
    )
    .unwrap();
    records[0].warm_start_path = Some("/models/r0/yesterday".into());
    let job = TrainJob::new(&dfs, CellId(0), records.clone(), CostModel::default());
    run_map_job(&job, records.len(), &job_cfg(2));
    let outputs = job.take_outputs();
    assert_eq!(outputs.len(), records.len());
    assert!(outputs[0].metrics.unwrap().map_at_10.is_finite());
}

#[test]
fn vanished_training_data_degrades_to_previous_generation() {
    let mut svc = SigmundService::new(PipelineConfig {
        grid: tiny_grid(),
        preemption: PreemptionModel::NONE,
        items_per_split: 25,
        ..Default::default()
    });
    let d0 = RetailerSpec::sized(RetailerId(0), 40, 50, 63).generate();
    let d1 = RetailerSpec::sized(RetailerId(1), 40, 50, 64).generate();
    svc.onboard(&d0.catalog, &d0.events).unwrap();
    svc.onboard(&d1.catalog, &d1.events).unwrap();
    let day0 = svc.run_day().unwrap();
    assert_eq!(day0.best.len(), 2);
    let day0_recs = svc.dfs.peek(&data::recs_path(RetailerId(1))).unwrap();

    // Catastrophe: retailer 1's training data disappears from the DFS.
    svc.dfs.delete(&data::train_path(RetailerId(1))).unwrap();
    let onboarded = svc.retailers().to_vec();
    let day1 = svc.run_day().unwrap();
    // The healthy retailer is unaffected…
    assert!(day1.best.contains_key(&RetailerId(0)));
    // …the broken one produced no model today, so it rides its previous
    // published generation instead of vanishing from serving.
    assert!(!day1.best.contains_key(&RetailerId(1)));
    assert_eq!(day1.degraded, vec![RetailerId(1)]);
    assert!(!day1.recs.contains_key(&RetailerId(1)));
    assert_eq!(
        svc.dfs.peek(&data::recs_path(RetailerId(1))).unwrap(),
        day0_recs,
        "the previous generation must survive the degraded day untouched"
    );
    let mut monitor = QualityMonitor::new(MonitorConfig::default());
    let alerts = monitor.record_day(&onboarded, &day1);
    assert!(
        alerts.iter().any(|a| matches!(
            a,
            QualityAlert::Degraded { retailer, days_stale: 1, .. }
                if *retailer == RetailerId(1)
        )),
        "expected a Degraded alert: {alerts:?}"
    );
    assert!(
        !alerts
            .iter()
            .any(|a| matches!(a, QualityAlert::MissingModel { .. })),
        "degradation supersedes MissingModel: {alerts:?}"
    );
}

#[test]
fn corrupt_published_model_skips_inference_for_that_retailer() {
    let mut svc = SigmundService::new(PipelineConfig {
        grid: tiny_grid(),
        preemption: PreemptionModel::NONE,
        items_per_split: 25,
        ..Default::default()
    });
    let d = RetailerSpec::sized(RetailerId(0), 40, 50, 65).generate();
    svc.onboard(&d.catalog, &d.events).unwrap();
    let day0 = svc.run_day().unwrap();
    let model_path = &day0.best[&RetailerId(0)].model_path;
    assert!(svc.dfs.exists(model_path));

    // Clobber the published model, then run inference-only via a fresh day:
    // the incremental sweep will retrain (writing a good model again), so to
    // hit the corrupt-read path we corrupt and read back directly.
    svc.dfs
        .write(CellId(0), model_path, Bytes::from_static(b"not-a-model"))
        .unwrap();
    let raw = svc.dfs.read(CellId(0), model_path).unwrap();
    assert!(sigmund_core::prelude::ModelSnapshot::from_bytes(&raw).is_err());

    // And the service itself recovers on the next day (retrains over it).
    let day1 = svc.run_day().unwrap();
    assert!(day1.best.contains_key(&RetailerId(0)));
    let recs = &day1.recs[&RetailerId(0)];
    assert!(recs.iter().any(|r| !r.view_based.is_empty()));
}

#[test]
fn heavy_preemption_day_still_completes() {
    // This retailer's splits cost ~0.1 virtual seconds each on the default
    // single SGD thread; aim the mean pre-emption budget right at that so
    // kills actually land, and checkpoint every ~half-epoch so progress
    // survives them. (Both constants were tuned at the old 4-thread default
    // — 2 000 000 /h and 0.004 s — and are scaled by the cost model's
    // 4-thread speedup, which keeps every budget-to-epoch ratio.)
    let speedup = CostModel::default().thread_speedup(4);
    let mut svc = SigmundService::new(PipelineConfig {
        grid: tiny_grid(),
        preemption: PreemptionModel {
            rate_per_hour: 2_000_000.0 / speedup,
        },
        checkpoint_interval: 0.004 * speedup,
        items_per_split: 10,
        ..Default::default()
    });
    let d = RetailerSpec::sized(RetailerId(0), 40, 60, 66).generate();
    svc.onboard(&d.catalog, &d.events).unwrap();
    let report = svc.run_day().unwrap();
    assert!(report.preemptions > 0, "the storm must actually hit");
    assert_eq!(report.best.len(), 1);
    assert_eq!(report.recs[&RetailerId(0)].len(), 40);
}

#[test]
fn corrupt_checkpoint_fallback_holds_for_every_feature_combo() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    // The fallback-to-fresh-training path must hold whichever side tables
    // (taxonomy / brand / price) the model carries: each combination lays
    // out parameters differently, and a stale-shape decode must never take
    // the job down.
    let dfs = Dfs::new();
    let d = RetailerSpec::sized(RetailerId(0), 50, 60, 67).generate();
    data::publish_retailer(&dfs, CellId(0), &d.catalog, &d.events).unwrap();
    let grid = GridSpec {
        features: all_switch_combos(),
        ..tiny_grid()
    };
    let records = full_sweep_for(&d.catalog, &grid);
    assert_eq!(records.len(), 8, "one config per switch combination");
    for rec in &records {
        let ckpt_dir = data::checkpoint_dir(RetailerId(0), rec.model.config);
        dfs.write(
            CellId(0),
            &format!("{ckpt_dir}/LIVE"),
            Bytes::from_static(b"garbage-not-a-checkpoint"),
        )
        .unwrap();
    }
    let job = TrainJob::new(&dfs, CellId(0), records.clone(), CostModel::default());
    let stats = run_map_job(&job, records.len(), &job_cfg(2));
    assert!(stats.failed.is_empty());
    let outputs = job.take_outputs();
    assert_eq!(
        outputs.len(),
        records.len(),
        "corruption must not drop work"
    );
    assert!(outputs.iter().all(|o| o.metrics.is_some()));
}

#[test]
fn checkpoint_publish_fault_leaves_live_intact_and_snapshot_round_trips() {
    if !serde_backend_available() {
        eprintln!("skipping: serde_json backend is stubbed in this environment");
        return;
    }
    // A day-windowed plan: every write fails from day 1 onward, so day 0 can
    // set up a good checkpoint and day 1 tries (and fails) to replace it.
    let plan = FaultPlan {
        seed: 9,
        write_error_rate: 1.0,
        from_day: 1,
        ..FaultPlan::default()
    };
    let dfs = Dfs::with_faults(plan);
    let d = RetailerSpec::sized(RetailerId(0), 30, 40, 68).generate();
    let hp = HyperParams {
        factors: 4,
        ..Default::default()
    };
    let model = sigmund_core::prelude::BprModel::init(&d.catalog, hp);
    let snap = ModelSnapshot::capture(&model);
    let bytes = snap.to_bytes();

    let store = CheckpointStore::new(&dfs, CellId(0), "/ckpt/r0/c0");
    store.publish(1, &bytes).unwrap();

    // Day 1: the publish's temp write faults mid-flight. The store aborts
    // before the atomic rename, so the LIVE checkpoint is untouched.
    dfs.injector().unwrap().begin_day(1);
    assert!(store.publish(2, b"half-written-replacement").is_err());
    let live = store.latest().unwrap().expect("LIVE survives the fault");
    assert_eq!(live.progress, 1, "the faulted publish must not be visible");

    // And the surviving payload still round-trips through restore: the
    // recovered model re-captures to byte-identical snapshot bytes.
    let restored_snap = ModelSnapshot::from_bytes(&live.data).unwrap();
    let restored = restored_snap.restore(&d.catalog, 42).unwrap();
    assert_eq!(
        ModelSnapshot::capture(&restored).to_bytes(),
        bytes,
        "restore ∘ capture must be the identity on checkpointed bytes"
    );
}
