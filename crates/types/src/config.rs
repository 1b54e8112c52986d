//! Hyper-parameter configurations and the config records that flow through
//! the pipeline.
//!
//! Section IV-A: "The sweep step determines the overall set of models to
//! train, and outputs a set of config records containing the model number,
//! training and validation dataset locations, and the values assigned to each
//! of the hyperparameters. These config records form the input to the
//! training step." After training, the same record comes back annotated with
//! hold-out metrics, and the inference job picks the best record per
//! retailer.

use crate::ids::ModelId;
use crate::wire::{Reader, Writer};
use crate::{RetailerId, SigmundError};
use serde::{Deserialize, Serialize};

/// Which side features the model uses. Feature selection is per retailer:
/// low-coverage features hurt (paper cites <10% brand coverage as
/// detrimental), so the grid sweeps these switches too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FeatureSwitches {
    /// Hierarchical additive taxonomy embeddings (Kanagal et al. [4]).
    pub use_taxonomy: bool,
    /// Brand embeddings (Ahmed et al. [5]).
    pub use_brand: bool,
    /// Price-bucket embeddings.
    pub use_price: bool,
}

impl FeatureSwitches {
    /// No side features — plain BPR.
    pub const NONE: FeatureSwitches = FeatureSwitches {
        use_taxonomy: false,
        use_brand: false,
        use_price: false,
    };

    /// All side features on.
    pub const ALL: FeatureSwitches = FeatureSwitches {
        use_taxonomy: true,
        use_brand: true,
        use_price: true,
    };
}

/// How negative items are sampled for BPR triples (Section III-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NegativeSamplerKind {
    /// Uniform over items the user has not interacted with.
    UniformUnseen,
    /// Prefer items far from the positive in the taxonomy, and exclude items
    /// highly co-viewed/co-bought with it.
    TaxonomyAware,
    /// Adaptive, affinity-based oversampling (Rendle & Freudenthaler [16]):
    /// sample a few candidates and keep the highest-scoring (hardest) one.
    Adaptive,
}

/// One point in the hyper-parameter grid for one retailer's model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperParams {
    /// Number of latent factors `F` (the paper sweeps 5–200).
    pub factors: u32,
    /// Base learning rate fed to Adagrad.
    pub learning_rate: f32,
    /// L2 regularization for item embeddings (λ_V).
    pub reg_item: f32,
    /// L2 regularization for context embeddings (λ_VC).
    pub reg_context: f32,
    /// Side-feature switches.
    pub features: FeatureSwitches,
    /// Negative-sampling strategy.
    pub negative_sampler: NegativeSamplerKind,
    /// RNG seed for initialization (also swept in the paper's grid).
    pub init_seed: u64,
    /// Standard deviation of the Gaussian prior used for initialization.
    pub init_std: f32,
    /// Number of passes over the training examples for a cold (full) run.
    pub epochs: u32,
    /// Max user-context length `K` (paper: "usually about 25").
    pub context_len: u32,
    /// Exponential decay applied per step of context age (w_j in Eq. 1).
    pub context_decay: f32,
}

impl Default for HyperParams {
    fn default() -> Self {
        Self {
            factors: 16,
            learning_rate: 0.1,
            reg_item: 0.01,
            reg_context: 0.01,
            features: FeatureSwitches::NONE,
            negative_sampler: NegativeSamplerKind::UniformUnseen,
            init_seed: 1,
            init_std: 0.1,
            epochs: 20,
            context_len: 25,
            context_decay: 0.85,
        }
    }
}

impl HyperParams {
    /// Size of the fixed-width wire encoding produced by
    /// [`HyperParams::to_wire`].
    pub const WIRE_LEN: usize = 42;

    /// Serializes to the fixed-width little-endian wire format embedded in
    /// model snapshots and journal records: infallible, no serde backend.
    ///
    /// Layout: factors u32 | learning_rate f32 | reg_item f32 |
    /// reg_context f32 | features u8 (bit 0 taxonomy, 1 brand, 2 price) |
    /// sampler u8 | init_seed u64 | init_std f32 | epochs u32 |
    /// context_len u32 | context_decay f32.
    #[must_use]
    pub fn to_wire(&self) -> [u8; Self::WIRE_LEN] {
        let mut w = Writer::with_capacity(b"", Self::WIRE_LEN);
        w.u32(self.factors);
        w.f32(self.learning_rate);
        w.f32(self.reg_item);
        w.f32(self.reg_context);
        w.u8(u8::from(self.features.use_taxonomy)
            | u8::from(self.features.use_brand) << 1
            | u8::from(self.features.use_price) << 2);
        w.u8(match self.negative_sampler {
            NegativeSamplerKind::UniformUnseen => 0,
            NegativeSamplerKind::TaxonomyAware => 1,
            NegativeSamplerKind::Adaptive => 2,
        });
        w.u64(self.init_seed);
        w.f32(self.init_std);
        w.u32(self.epochs);
        w.u32(self.context_len);
        w.f32(self.context_decay);
        let mut wire = [0u8; Self::WIRE_LEN];
        // The fields above are fixed-width and sum to WIRE_LEN.
        wire.copy_from_slice(&w.finish());
        wire
    }

    /// Parses the [`HyperParams::to_wire`] format.
    ///
    /// # Errors
    /// [`SigmundError::Corrupt`] on a wrong length, an unknown sampler tag,
    /// or reserved feature bits being set.
    pub fn from_wire(b: &[u8]) -> Result<Self, SigmundError> {
        let mut r = Reader::open("hyper-params wire", b"", b)?;
        let factors = r.u32("factors")?;
        let learning_rate = r.f32("learning rate")?;
        let reg_item = r.f32("item regularization")?;
        let reg_context = r.f32("context regularization")?;
        let features = r.u8("feature bits")?;
        if features & !0b111 != 0 {
            return Err(r.corrupt(format_args!("reserved feature bits {features:#04x}")));
        }
        let negative_sampler = match r.u8("sampler tag")? {
            0 => NegativeSamplerKind::UniformUnseen,
            1 => NegativeSamplerKind::TaxonomyAware,
            2 => NegativeSamplerKind::Adaptive,
            x => return Err(r.corrupt(format_args!("unknown sampler tag {x}"))),
        };
        let hp = Self {
            factors,
            learning_rate,
            reg_item,
            reg_context,
            features: FeatureSwitches {
                use_taxonomy: features & 1 != 0,
                use_brand: features & 2 != 0,
                use_price: features & 4 != 0,
            },
            negative_sampler,
            init_seed: r.u64("init seed")?,
            init_std: r.f32("init std")?,
            epochs: r.u32("epochs")?,
            context_len: r.u32("context length")?,
            context_decay: r.f32("context decay")?,
        };
        r.finish()?;
        Ok(hp)
    }
}

/// Hold-out quality metrics attached to a trained model (Section III-C2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ModelMetrics {
    /// Mean average precision at 10 — Sigmund's model-selection metric.
    pub map_at_10: f64,
    /// Area under the ROC curve (kept for the T3 experiment; the paper
    /// disregards it for selection).
    pub auc: f64,
    /// Precision at 10.
    pub precision_at_10: f64,
    /// Recall at 10.
    pub recall_at_10: f64,
    /// Normalized DCG at 10.
    pub ndcg_at_10: f64,
    /// Number of hold-out examples evaluated.
    pub holdout_size: u64,
    /// True if MAP was estimated on a 10% item sample rather than exactly.
    pub map_sampled: bool,
}

/// A config record: the unit of work for the training MapReduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigRecord {
    /// Which model this record describes.
    pub model: ModelId,
    /// Hyper-parameters to train with.
    pub params: HyperParams,
    /// DFS path of the training dataset.
    pub train_path: String,
    /// DFS path of the hold-out dataset.
    pub holdout_path: String,
    /// DFS path the trained model is written to.
    pub model_path: String,
    /// If set, warm-start from this previous model (incremental training).
    pub warm_start_path: Option<String>,
    /// Epochs to run; incremental runs use fewer than `params.epochs`.
    pub epochs_override: Option<u32>,
    /// Filled in by the training step.
    pub metrics: Option<ModelMetrics>,
}

impl ConfigRecord {
    /// Creates a cold-start record with conventional DFS paths.
    pub fn cold(retailer: RetailerId, config: u32, params: HyperParams) -> Self {
        let model = ModelId { retailer, config };
        Self {
            model,
            params,
            train_path: format!("/data/r{}/train", retailer.0),
            holdout_path: format!("/data/r{}/holdout", retailer.0),
            model_path: format!("/models/r{}/c{}", retailer.0, config),
            warm_start_path: None,
            epochs_override: None,
            metrics: None,
        }
    }

    /// Epochs this record should actually run.
    #[inline]
    pub fn epochs(&self) -> u32 {
        self.epochs_override.unwrap_or(self.params.epochs)
    }

    /// MAP@10 if the record has been evaluated.
    #[inline]
    pub fn map_at_10(&self) -> Option<f64> {
        self.metrics.map(|m| m.map_at_10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_record_paths_are_scoped_by_retailer_and_config() {
        let r = ConfigRecord::cold(RetailerId(3), 7, HyperParams::default());
        assert_eq!(r.train_path, "/data/r3/train");
        assert_eq!(r.model_path, "/models/r3/c7");
        assert_eq!(r.model.config, 7);
        assert!(r.metrics.is_none());
    }

    #[test]
    fn epochs_override_wins() {
        let mut r = ConfigRecord::cold(RetailerId(0), 0, HyperParams::default());
        assert_eq!(r.epochs(), HyperParams::default().epochs);
        r.epochs_override = Some(3);
        assert_eq!(r.epochs(), 3);
    }

    #[test]
    fn config_record_serde_round_trip() {
        let mut r = ConfigRecord::cold(RetailerId(1), 2, HyperParams::default());
        r.metrics = Some(ModelMetrics {
            map_at_10: 0.25,
            ..Default::default()
        });
        let j = serde_json::to_string(&r).unwrap();
        let back: ConfigRecord = serde_json::from_str(&j).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.map_at_10(), Some(0.25));
    }

    #[test]
    fn hyper_params_wire_round_trip() {
        let mut hp = HyperParams {
            factors: 24,
            learning_rate: 0.05,
            features: FeatureSwitches::ALL,
            negative_sampler: NegativeSamplerKind::Adaptive,
            init_seed: u64::MAX - 3,
            ..Default::default()
        };
        let back = HyperParams::from_wire(&hp.to_wire()).unwrap();
        assert_eq!(back, hp);
        hp.negative_sampler = NegativeSamplerKind::TaxonomyAware;
        hp.features = FeatureSwitches::NONE;
        assert_eq!(HyperParams::from_wire(&hp.to_wire()).unwrap(), hp);
    }

    #[test]
    fn hyper_params_wire_rejects_malformed_bytes() {
        let wire = HyperParams::default().to_wire();
        assert!(HyperParams::from_wire(&wire[..wire.len() - 1]).is_err());
        assert!(HyperParams::from_wire(&[]).is_err());
        let mut bad_sampler = wire;
        bad_sampler[17] = 9;
        assert!(HyperParams::from_wire(&bad_sampler).is_err());
        let mut bad_features = wire;
        bad_features[16] = 0b1000;
        assert!(HyperParams::from_wire(&bad_features).is_err());
    }

    #[test]
    fn feature_switch_constants() {
        let none = FeatureSwitches::NONE;
        let all = FeatureSwitches::ALL;
        assert_eq!(
            (none.use_taxonomy, none.use_brand, none.use_price),
            (false, false, false)
        );
        assert_eq!(
            (all.use_taxonomy, all.use_brand, all.use_price),
            (true, true, true)
        );
    }
}
