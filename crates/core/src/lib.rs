#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
//! # sigmund-core
//!
//! The Sigmund recommender: everything from Section III of the paper.
//!
//! * [`model`] — BPR factorization with user contexts (Eq. 1) and
//!   hierarchical taxonomy / brand / price side features.
//! * [`storage`] — parameter tables with per-row Adagrad: lock-free atomic
//!   for Hogwild, plain `f32` checked out per exact epoch.
//! * [`dataset`] — hold-out splitting and training-example construction
//!   (Figure 2 + the cross-strength constraints).
//! * [`negative`] — the paper's negative-sampling heuristics.
//! * [`train`] — single-thread and Hogwild multi-thread SGD.
//! * [`metrics`] — MAP@10 (exact and 10%-sampled), AUC, P/R@10, nDCG@10.
//! * [`cooc`] — item-item co-occurrence / PMI models.
//! * [`candidates`] — LCA-based candidate selection, re-purchasability.
//! * [`inference`] — offline materialization of item → top-K tables.
//! * [`selection`] — per-retailer grid search and incremental refresh.
//! * [`tuner`] — successive-halving search (the Vizier direction of §III-C1).
//! * [`calibrate`] — Platt-scaled relevance thresholds (§VII future work).
//! * [`funnel`] — funnel-stage tailored serving (§VII future work).
//! * [`hybrid`] — the head/tail co-occurrence + factorization blend.
//! * [`snapshot`] — binary model checkpoints for pre-emptible training.
//!
//! ## Quick start
//!
//! ```
//! use sigmund_core::prelude::*;
//! use sigmund_types::*;
//!
//! // A toy catalog: one category, four items.
//! let mut tax = Taxonomy::new();
//! let cat = tax.add_child(tax.root());
//! let mut catalog = Catalog::new(RetailerId(0), tax);
//! for _ in 0..4 {
//!     catalog.add_item(ItemMeta::bare(cat));
//! }
//! // Two users who both view items 0 then 1.
//! let events = vec![
//!     Interaction::new(UserId(0), ItemId(0), ActionType::View, 0),
//!     Interaction::new(UserId(0), ItemId(1), ActionType::View, 1),
//!     Interaction::new(UserId(1), ItemId(0), ActionType::View, 0),
//!     Interaction::new(UserId(1), ItemId(1), ActionType::View, 1),
//! ];
//! let ds = Dataset::build(catalog.len(), events, false);
//! let hp = HyperParams { factors: 4, ..Default::default() };
//! let model = BprModel::init(&catalog, hp.clone());
//! let sampler = NegativeSampler::new(hp.negative_sampler, &catalog, None);
//! let stats = train(&model, &catalog, &ds, &sampler, TrainOptions::default());
//! assert!(stats.iter().all(|s| s.mean_loss.is_finite()));
//! ```

pub mod calibrate;
pub mod candidates;
pub mod cooc;
pub mod dataset;
pub mod funnel;
pub mod hybrid;
pub mod inference;
#[cfg(loom)]
pub mod loom_model;
pub mod metrics;
pub mod model;
pub mod negative;
pub mod recs_codec;
pub mod selection;
pub mod snapshot;
pub mod storage;
pub mod train;
pub mod tuner;

/// One-stop imports for typical library use.
pub mod prelude {
    pub use crate::calibrate::{calibrate_on_holdout, PlattScaler};
    pub use crate::candidates::{CandidateIndex, CandidateSelector, RepurchaseStats};
    pub use crate::cooc::{CoocConfig, CoocModel, ExclusionIndex};
    pub use crate::dataset::{Dataset, Example, ExampleKind, ExampleSet, HoldoutExample};
    pub use crate::funnel::{classify, recommend_tailored, FunnelStage, StagePolicy};
    pub use crate::hybrid::HybridPolicy;
    pub use crate::inference::{InferenceEngine, ItemRecs, RecList, RecTask};
    pub use crate::metrics::{
        evaluate, evaluate_filtered, item_train_counts, spearman, EvalConfig,
    };
    pub use crate::model::{dot, BprModel, ContextEvent, CtxRepMatrix, ItemRepMatrix};
    pub use crate::negative::NegativeSampler;
    pub use crate::selection::{
        grid_search, grid_search_obs, incremental_refresh, incremental_refresh_obs, train_config,
        GridSpec, SelectionOutcome, SweepOptions, TrainedCandidate,
    };
    pub use crate::snapshot::ModelSnapshot;
    pub use crate::train::{observe_epoch, train, train_epoch, EpochStats, TrainOptions};
    pub use crate::tuner::{successive_halving, HalvingSchedule, TunerOutcome};
}
