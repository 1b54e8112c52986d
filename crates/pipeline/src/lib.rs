#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
//! # sigmund-pipeline
//!
//! The Sigmund service orchestration (Section IV): sweeps, the training and
//! inference MapReduce jobs, retailer partitioning, DFS data layout, and the
//! daily end-to-end cycle.
//!
//! * [`sweep`] — full and incremental sweeps producing config records.
//! * [`train_job`] — the training MapReduce: real SGD under virtual time,
//!   with checkpoint/restore across pre-emptions.
//! * [`infer_job`] — the inference MapReduce: contiguous per-retailer item
//!   splits, one model in memory at a time, hybrid head/tail output.
//! * [`binpack`] — greedy bin-packing of retailers (by inventory size)
//!   across cells, plus the baselines the T7 experiment compares against.
//! * [`cost_model`] — virtual-seconds cost model (SGD steps, scoring, IO).
//! * [`data`] — DFS layout and event/config codecs.
//! * [`daily`] — [`daily::SigmundService`]: onboard retailers, run days.
//! * [`monitor`] — fleet quality monitoring: per-retailer MAP history,
//!   regression/coverage/missing-model alerts.
//! * [`chaos`] — seeded fault-injection knobs (DFS faults, preemption
//!   storms, retry budgets) and the graceful-degradation wiring.
//! * [`integrity`] — the pre-publish admission gate: checksum-verified
//!   model re-reads, snapshot validation, and MAP collapse detection.
//! * [`journal`] — the durable day journal behind crash–restart recovery:
//!   checksummed phase manifests, publish markers, and the codec
//!   [`daily::SigmundService::recover`] replays them with.

pub mod binpack;
pub mod chaos;
pub mod cost_model;
pub mod daily;
pub mod data;
pub mod infer_job;
pub mod integrity;
pub mod journal;
pub mod monitor;
pub mod sweep;
pub mod train_job;

pub use binpack::{
    max_bin_load, partition_greedy, partition_random, partition_round_robin, Weighted,
};
pub use chaos::{CellStorm, ChaosConfig};
pub use cost_model::CostModel;
pub use daily::{load_recs, recs_for_item, DayReport, PipelineConfig, Recovered, SigmundService};
pub use infer_job::{make_splits, InferSplit, InferenceJob};
pub use integrity::{IntegrityConfig, RejectReason};
pub use monitor::{FleetSummary, MonitorConfig, QualityAlert, QualityMonitor};
pub use sweep::{full_sweep, full_sweep_for, incremental_sweep, top_k_per_retailer};
pub use train_job::{TrainJob, SAMPLED_MAP_THRESHOLD};
