#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
//! # sigmund-serving
//!
//! The serving layer and the online-experiment (CTR) simulator.
//!
//! Section II-A: "the recommendations are loaded into a distributed serving
//! system that leverages main-memory … to serve low-latency requests", and
//! Section V: "the serving infrastructure can now be optimized for
//! batch-updates every time we have the inference job complete" — so the
//! store here is an immutable snapshot swapped atomically per daily batch,
//! with lock-free-ish reads (an `Arc` clone under a read lock).
//!
//! Figure 6 is an *online* experiment (CTR vs item popularity). We cannot
//! run live traffic, so [`ctr`] replays view events against the ground-truth
//! click model from `sigmund-datagen` with position bias — the documented
//! substitution (DESIGN.md §1).
//!
//! The concurrent frontend (DESIGN.md §13): [`store`] stripes retailers over
//! [`shard`]'s lock-free generation-swap cells so readers never block on a
//! publish, and [`tier`] spills rare retailers' tables to checksummed flash
//! blobs behind a deterministic admission-controlled hot cache.

pub mod ctr;
pub mod shard;
pub mod store;
pub mod tier;

pub use ctr::{bucket_by_popularity, simulate_ctr, CtrBucket, CtrConfig, CtrSample};
pub use shard::{Outcome, ShardCounters, ShardState, SHARD_RING};
pub use store::{RecSurface, ServingStats, ServingStore, SharedTable, HISTORY_DEPTH, N_SHARDS};
pub use tier::{ColdTier, ColdTierConfig, FetchResult, TierOutcome, TierSim, TierStats};
