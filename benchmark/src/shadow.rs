//! The shadow day: the layer profile `run_day` cannot give from outside.
//!
//! `SigmundService::run_day` is one opaque call. After the traced day, the
//! harness replays that day's work for every retailer by calling the
//! layers' public functions directly on the same DFS inputs — decode the
//! catalog and events, build the dataset, then per trained config init or
//! restore, `train_epoch` × epochs, `evaluate`, snapshot; then for the
//! winner the inference state, and per split the engine, the item map and
//! the recs codec — with a span around each call. What `run_day` took
//! beyond the sum of these spans is orchestration, journal, cluster
//! simulation, redone work after pre-emptions and DFS traffic:
//! `pipeline.unattributed_s`.
//!
//! The replay mirrors the jobs (`train_job.rs`, `infer_job.rs`) call for
//! call, and proves it: every retrained model must reproduce the MAP@10
//! the day reported, and every re-stitched table the published bytes.

use crate::clock::Tracer;
use crate::spec::INCREMENTAL_EPOCHS;
use sigmund_core::inference::rec_order;
use sigmund_core::prelude::*;
use sigmund_dfs::Dfs;
use sigmund_pipeline::{data, make_splits, DayReport, PipelineConfig, SAMPLED_MAP_THRESHOLD};
use sigmund_types::{RetailerId, SigmundError};
use std::cmp::Ordering;

/// Where the shadow day's time went, by span-name prefix.
pub const CATEGORIES: [&str; 4] = ["train.", "eval.", "infer.", "codec."];

/// Replays day `report.day` for `retailers`. Returns what did not
/// reproduce (empty when the shadow matches the real day).
pub fn shadow_day(
    dfs: &Dfs,
    cfg: &PipelineConfig,
    report: &DayReport,
    retailers: &[RetailerId],
    tr: &Tracer,
) -> Vec<String> {
    let mut problems = Vec::new();
    tr.span_of("bench", "shadow_day", Some(report.day), None, || {
        for &r in retailers {
            let (res, _) = tr.span_of("bench", "shadow_retailer", None, Some(r.0), || {
                shadow_retailer(dfs, cfg, report, r, tr)
            });
            match res {
                Ok(mismatches) => problems.extend(mismatches),
                Err(e) => problems.push(format!("shadow {r}: {e}")),
            }
        }
    });
    problems
}

fn blob(dfs: &Dfs, path: &str) -> Result<bytes::Bytes, SigmundError> {
    // `peek` reads without touching transfer counters or the fault plan:
    // the shadow must not perturb the service it profiles.
    dfs.peek(path)
        .ok_or_else(|| SigmundError::NotFound(path.to_string()))
}

fn shadow_retailer(
    dfs: &Dfs,
    cfg: &PipelineConfig,
    report: &DayReport,
    r: RetailerId,
    tr: &Tracer,
) -> Result<Vec<String>, SigmundError> {
    let day = report.day;
    let mut problems = Vec::new();
    let catalog_raw = blob(dfs, &data::catalog_path(r))?;
    let events_raw = blob(dfs, &data::train_path(r))?;

    // --- training side: TrainJob::state_for, then one split per config ---
    let catalog = tr
        .span("pipeline", "codec.decode_catalog", || {
            data::decode_catalog(&catalog_raw)
        })
        .0?;
    let events = tr
        .span("pipeline", "codec.decode_events", || {
            data::decode_events(&events_raw)
        })
        .0?;
    let ds = tr
        .span("core", "train.dataset_build", || {
            Dataset::build(catalog.len(), events, true)
        })
        .0;
    let eval_cfg = if catalog.len() > SAMPLED_MAP_THRESHOLD {
        EvalConfig::sampled_10pct()
    } else {
        EvalConfig::default()
    };
    let suffix = format!("/d{day}");
    for path in dfs.list(&format!("/models/r{}/", r.0)) {
        let Some(stem) = path.strip_suffix(&suffix) else {
            continue;
        };
        // The hyper-parameters travel inside the blob the day wrote.
        let hp = ModelSnapshot::from_bytes(&blob(dfs, &path)?)?.hp;
        let warm_path = day.checked_sub(1).map(|d| format!("{stem}/d{d}"));
        let warm_raw = warm_path.and_then(|p| dfs.peek(&p));
        let (model, epochs) = match warm_raw {
            Some(raw) => {
                let snap = tr
                    .span("core", "codec.snapshot_decode", || {
                        ModelSnapshot::from_bytes(&raw)
                    })
                    .0?;
                let model = tr.span("core", "train.restore", || {
                    snap.restore(&catalog, hp.init_seed)
                        .inspect(BprModel::reset_adagrad)
                });
                (model.0?, INCREMENTAL_EPOCHS)
            }
            None => {
                let model = tr
                    .span("core", "train.init", || {
                        BprModel::init(&catalog, hp.clone())
                    })
                    .0;
                (model, hp.epochs)
            }
        };
        let sampler = NegativeSampler::new(hp.negative_sampler, &catalog, None);
        let opts = TrainOptions {
            epochs: 0,
            threads: 1,
            seed: hp.init_seed ^ 0x5EED,
        };
        for epoch in 0..epochs {
            tr.span("core", "train.epoch", || {
                train_epoch(&model, &catalog, &ds, &sampler, &opts, epoch)
            });
        }
        let metrics = tr
            .span("core", "eval.evaluate", || {
                evaluate(&model, &catalog, &ds, eval_cfg)
            })
            .0;
        tr.span("core", "codec.snapshot_encode", || {
            ModelSnapshot::capture(&model).to_bytes()
        });
        if let Some(best) = report.best.get(&r).filter(|b| b.model_path == path) {
            let real = best.map_at_10().unwrap_or(f64::NAN);
            if real.to_bits() != metrics.map_at_10.to_bits() {
                problems.push(format!(
                    "shadow {r}: retrained winner MAP@10 {} != reported {real}",
                    metrics.map_at_10
                ));
            }
        }
    }

    // --- admission gate: re-read and validate the winner ------------------
    let Some(best) = report.best.get(&r) else {
        return Ok(problems);
    };
    let model_raw = blob(dfs, &best.model_path)?;
    let gate_catalog = tr
        .span("pipeline", "codec.decode_catalog", || {
            data::decode_catalog(&catalog_raw)
        })
        .0?;
    let snap = tr
        .span("core", "codec.snapshot_decode", || {
            ModelSnapshot::from_bytes(&model_raw)
        })
        .0?;
    tr.span("core", "codec.snapshot_validate", || {
        snap.validate_for(&gate_catalog)
    })
    .0?;

    // --- inference side: InferenceJob::state_for, then one engine per split
    let catalog = tr
        .span("pipeline", "codec.decode_catalog", || {
            data::decode_catalog(&catalog_raw)
        })
        .0?;
    let snap = tr
        .span("core", "codec.snapshot_decode", || {
            ModelSnapshot::from_bytes(&model_raw)
        })
        .0?;
    let model = tr
        .span("core", "infer.restore", || snap.restore(&catalog, 0))
        .0?;
    let events = tr
        .span("pipeline", "codec.decode_events", || {
            data::decode_events(&events_raw)
        })
        .0?;
    let cooc = tr
        .span("core", "infer.cooc_build", || {
            CoocModel::build(catalog.len(), &events, CoocConfig::default())
        })
        .0;
    let index = tr
        .span("core", "infer.candidate_index", || {
            CandidateIndex::build(&catalog)
        })
        .0;
    let repurchase = tr
        .span("core", "infer.repurchase", || {
            RepurchaseStats::estimate(&catalog, &events, 0.3)
        })
        .0;
    let hybrid = HybridPolicy::default();
    let k = cfg.rec_k;
    let mut parts = Vec::new();
    for sp in make_splits(&[(r, catalog.len())], cfg.items_per_split) {
        let engine = tr.span("core", "infer.rep_build", || {
            InferenceEngine::new(&model, &catalog, &index, &cooc, &repurchase)
        });
        let engine = engine.0;
        let rows = tr.span("core", "infer.map_items", || {
            engine.map_items(sp.start..sp.end, cfg.infer_threads, |eng, item| ItemRecs {
                view_based: hybrid.recommend(&cooc, eng, item, RecTask::ViewBased, k),
                purchase_based: hybrid.recommend(&cooc, eng, item, RecTask::PurchaseBased, k),
            })
        });
        parts.push(
            tr.span("core", "codec.recs_encode", || data::encode_recs(&rows.0))
                .0,
        );
        // The ordering contract, on the pure factorization list the hybrid
        // merge starts from (one item per split keeps this off the profile).
        let list =
            engine.recommend_for_item(sigmund_types::ItemId(sp.start), RecTask::ViewBased, k);
        if list
            .windows(2)
            .any(|w| rec_order(&w[0], &w[1]) == Ordering::Greater)
        {
            problems.push(format!(
                "shadow {r}: item {} list breaks rec_order",
                sp.start
            ));
        }
    }
    // Publish: re-read every part, stitch, encode the table.
    let mut table = Vec::with_capacity(catalog.len());
    for part in &parts {
        table.extend(
            tr.span("core", "codec.recs_decode", || data::decode_recs(part))
                .0?,
        );
    }
    let stitched = tr
        .span("core", "codec.recs_encode", || data::encode_recs(&table))
        .0;
    if dfs.peek(&data::recs_path(r)).as_deref() != Some(&stitched[..]) {
        problems.push(format!(
            "shadow {r}: re-stitched table differs from the published blob"
        ));
    }
    Ok(problems)
}
