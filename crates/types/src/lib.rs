#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
//! # sigmund-types
//!
//! Shared vocabulary types for the Sigmund reproduction: strongly-typed
//! identifiers, user interactions with the paper's four-level action
//! hierarchy (`view < search < cart < conversion`), per-retailer product
//! catalogs with brand/price/facet metadata, product taxonomies with the
//! least-common-ancestor (LCA) distance used throughout candidate selection,
//! and the hyper-parameter config records that flow through the training
//! pipeline.
//!
//! Every other crate in the workspace depends on this one; it has no
//! dependencies beyond `serde`.

pub mod action;
pub mod catalog;
pub mod config;
pub mod error;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod interaction;
pub mod taxonomy;
pub mod wire;

pub use action::ActionType;
pub use catalog::{Catalog, ItemMeta};
pub use config::{ConfigRecord, FeatureSwitches, HyperParams, ModelMetrics, NegativeSamplerKind};
pub use error::{Result, SigmundError};
pub use fault::{FaultPlan, Partition};
pub use hash::{fnv1a64, fnv1a64_chunks, splitmix64, unit_f64};
pub use ids::{
    BrandId, CategoryId, CellId, FacetId, ItemId, MachineId, ModelId, RetailerId, TaskId, UserId,
};
pub use interaction::{per_user, sort_for_training, Interaction, Timestamp};
pub use taxonomy::Taxonomy;
