//! Negative-item sampling for BPR (Section III-B3).
//!
//! "The BPR model is sensitive to the choice of negative items … We use a
//! combination of several heuristics":
//!
//! * uniform over items the user has not interacted with;
//! * taxonomy-aware: prefer items far from the positive in LCA distance and
//!   exclude items highly co-viewed/co-bought with it;
//! * adaptive (Rendle & Freudenthaler [16]): oversample candidates and keep
//!   the one the current model scores highest — the "hardest" negative.
//!
//! Strength-constraint examples carry their own negative pool (items of the
//! user at the next-weaker action level) and bypass the sampler kind.

use crate::cooc::ExclusionIndex;
use crate::dataset::{Dataset, Example, ExampleKind};
use rand::prelude::*;
use rand::rngs::StdRng;
use sigmund_types::{Catalog, ItemId, NegativeSamplerKind};

/// Max rejection-sampling attempts before giving up on constraints.
const MAX_TRIES: usize = 24;
/// Candidates drawn by the adaptive sampler.
const ADAPTIVE_CANDIDATES: usize = 4;
/// Taxonomy-aware sampling requires at least this LCA distance from the
/// positive (distance 1 = same category ⇒ likely substitute, a bad negative).
const MIN_LCA_DISTANCE: u32 = 2;

/// A configured negative sampler for one retailer.
pub struct NegativeSampler<'a> {
    kind: NegativeSamplerKind,
    catalog: &'a Catalog,
    exclusions: Option<&'a ExclusionIndex>,
}

impl<'a> NegativeSampler<'a> {
    /// Creates a sampler. `exclusions` is only consulted by
    /// [`NegativeSamplerKind::TaxonomyAware`]; pass `None` to skip the
    /// co-occurrence exclusion heuristic.
    pub fn new(
        kind: NegativeSamplerKind,
        catalog: &'a Catalog,
        exclusions: Option<&'a ExclusionIndex>,
    ) -> Self {
        Self {
            kind,
            catalog,
            exclusions,
        }
    }

    /// The sampler kind.
    pub fn kind(&self) -> NegativeSamplerKind {
        self.kind
    }

    /// Samples the negative item for `example`.
    ///
    /// `score` is the caller's view of the *current* parameters — the
    /// affinity of this example's user for a candidate item — and is only
    /// called by the adaptive sampler. Training passes a view over the
    /// storage the epoch is mutating, so the sampler never scores a stale
    /// copy. Returns `None` when no acceptable negative exists (e.g. a
    /// one-item catalog).
    pub fn sample(
        &self,
        ds: &Dataset,
        example: &Example,
        rng: &mut StdRng,
        score: impl FnMut(ItemId) -> f32,
    ) -> Option<ItemId> {
        // Strength constraints: uniform over the example's own pool.
        if let ExampleKind::Strength { .. } = example.kind {
            let pool = ds.examples.pool(example);
            debug_assert!(!pool.is_empty());
            return Some(pool[rng.random_range(0..pool.len())]);
        }
        match self.kind {
            NegativeSamplerKind::UniformUnseen => self.uniform_unseen(ds, example, rng),
            NegativeSamplerKind::TaxonomyAware => self.taxonomy_aware(ds, example, rng),
            NegativeSamplerKind::Adaptive => self.adaptive(ds, example, rng, score),
        }
    }

    /// Uniform over the catalog, rejecting the positive and the user's seen
    /// items; falls back to any item ≠ positive after [`MAX_TRIES`].
    fn uniform_unseen(&self, ds: &Dataset, example: &Example, rng: &mut StdRng) -> Option<ItemId> {
        let n = ds.n_items;
        if n < 2 {
            return None;
        }
        for _ in 0..MAX_TRIES {
            let j = ItemId(rng.random_range(0..n as u32));
            if j != example.pos && !ds.is_seen(example.user, j) {
                return Some(j);
            }
        }
        // Dense users can have seen nearly everything; fall back to ≠ pos.
        let j = ItemId(rng.random_range(0..n as u32));
        if j != example.pos {
            Some(j)
        } else {
            Some(ItemId((j.0 + 1) % n as u32))
        }
    }

    /// Like uniform, but additionally requires LCA distance ≥
    /// [`MIN_LCA_DISTANCE`] from the positive and rejects items co-occurring
    /// with it. Falls back to plain uniform-unseen when the constraints can't
    /// be met.
    fn taxonomy_aware(&self, ds: &Dataset, example: &Example, rng: &mut StdRng) -> Option<ItemId> {
        let n = ds.n_items;
        if n < 2 {
            return None;
        }
        for _ in 0..MAX_TRIES {
            let j = ItemId(rng.random_range(0..n as u32));
            if j == example.pos || ds.is_seen(example.user, j) {
                continue;
            }
            if self.catalog.lca_distance_from(example.pos, j) < MIN_LCA_DISTANCE {
                continue;
            }
            if let Some(ex) = self.exclusions {
                if ex.excluded(example.pos, j) {
                    continue;
                }
            }
            return Some(j);
        }
        self.uniform_unseen(ds, example, rng)
    }

    /// Adaptive oversampling: draw a few uniform-unseen candidates and keep
    /// the one `score` currently ranks highest for this user.
    fn adaptive(
        &self,
        ds: &Dataset,
        example: &Example,
        rng: &mut StdRng,
        mut score: impl FnMut(ItemId) -> f32,
    ) -> Option<ItemId> {
        let mut best: Option<(ItemId, f32)> = None;
        for _ in 0..ADAPTIVE_CANDIDATES {
            let j = self.uniform_unseen(ds, example, rng)?;
            let s = score(j);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((j, s));
            }
        }
        best.map(|(j, _)| j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooc::{CoocConfig, CoocModel};
    use crate::model::BprModel;
    use sigmund_types::{
        ActionType, HyperParams, Interaction, ItemMeta, RetailerId, Taxonomy, UserId,
    };

    /// Catalog with two top-level categories of 5 items each.
    fn catalog() -> Catalog {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let b = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(0), t);
        for i in 0..10 {
            c.add_item(ItemMeta::bare(if i < 5 { a } else { b }));
        }
        c
    }

    fn dataset() -> Dataset {
        // User 0 viewed items 0,1,2 (positives come from category a).
        let evs = vec![
            Interaction::new(UserId(0), ItemId(0), ActionType::View, 0),
            Interaction::new(UserId(0), ItemId(1), ActionType::View, 1),
            Interaction::new(UserId(0), ItemId(2), ActionType::View, 2),
        ];
        Dataset::build(10, evs, false)
    }

    /// The `score` argument for samplers that must never call it.
    fn unscored(_: ItemId) -> f32 {
        unreachable!("only the adaptive sampler scores candidates")
    }

    #[test]
    fn uniform_avoids_seen_and_positive() {
        let c = catalog();
        let ds = dataset();
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let mut rng = StdRng::seed_from_u64(1);
        let e = ds.examples.examples[0];
        for _ in 0..200 {
            let j = s.sample(&ds, &e, &mut rng, unscored).unwrap();
            assert_ne!(j, e.pos);
            assert!(!ds.is_seen(UserId(0), j), "sampled seen item {j}");
        }
    }

    #[test]
    fn taxonomy_aware_picks_far_items() {
        let c = catalog();
        let ds = dataset();
        let s = NegativeSampler::new(NegativeSamplerKind::TaxonomyAware, &c, None);
        let mut rng = StdRng::seed_from_u64(2);
        let e = ds.examples.examples[0]; // positive in category a
        for _ in 0..100 {
            let j = s.sample(&ds, &e, &mut rng, unscored).unwrap();
            // All unseen items in category a (3,4) are at distance 1; the
            // sampler must land in category b.
            assert!(j.0 >= 5, "expected far item, got {j}");
        }
    }

    #[test]
    fn taxonomy_aware_respects_exclusions() {
        let c = catalog();
        let ds = dataset();
        // Items 0 and 7 strongly co-viewed by other users.
        let mut evs = Vec::new();
        for u in 1..4 {
            evs.push(Interaction::new(UserId(u), ItemId(0), ActionType::View, 0));
            evs.push(Interaction::new(UserId(u), ItemId(7), ActionType::View, 1));
        }
        let cooc = CoocModel::build(10, &evs, CoocConfig::default());
        let ex = ExclusionIndex::from_cooc(&cooc);
        assert!(ex.excluded(ItemId(0), ItemId(7)));
        let s = NegativeSampler::new(NegativeSamplerKind::TaxonomyAware, &c, Some(&ex));
        let mut rng = StdRng::seed_from_u64(3);
        // Example with positive item 0: negative must never be 7.
        let e = ds.examples.examples[0];
        assert_eq!(e.pos, ItemId(1)); // first example: ctx (0), pos 1
        let e0 = Example {
            pos: ItemId(0),
            ..e
        };
        for _ in 0..100 {
            let j = s.sample(&ds, &e0, &mut rng, unscored).unwrap();
            assert_ne!(j, ItemId(7), "co-viewed item used as negative");
        }
    }

    #[test]
    fn strength_examples_sample_from_pool() {
        let c = catalog();
        let evs = vec![
            Interaction::new(UserId(0), ItemId(0), ActionType::Search, 0),
            Interaction::new(UserId(0), ItemId(1), ActionType::View, 1),
        ];
        let ds = Dataset::build(10, evs, false);
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let mut rng = StdRng::seed_from_u64(4);
        let strength = ds
            .examples
            .examples
            .iter()
            .find(|e| matches!(e.kind, ExampleKind::Strength { .. }))
            .copied()
            .expect("has strength example");
        for _ in 0..20 {
            let j = s.sample(&ds, &strength, &mut rng, unscored).unwrap();
            assert_eq!(j, ItemId(1), "pool contains exactly the viewed item");
        }
    }

    #[test]
    fn adaptive_prefers_high_scoring_negatives() {
        let c = catalog();
        let ds = dataset();
        let m = BprModel::init(
            &c,
            HyperParams {
                factors: 4,
                ..Default::default()
            },
        );
        let uni = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let ada = NegativeSampler::new(NegativeSamplerKind::Adaptive, &c, None);
        let mut scratch = vec![0.0; 4];
        let e = ds.examples.examples[0];
        // Build a deterministic user vector.
        let user_vec = vec![1.0, 0.5, -0.5, 0.25];
        let mut avg = |s: &NegativeSampler, seed: u64| -> f32 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0.0;
            for _ in 0..300 {
                let j = s
                    .sample(&ds, &e, &mut rng, |j| {
                        m.score_with(&c, &user_vec, j, &mut scratch)
                    })
                    .unwrap();
                total += m.score_with(&c, &user_vec, j, &mut scratch);
            }
            total / 300.0
        };
        assert!(
            avg(&ada, 5) > avg(&uni, 5),
            "adaptive should pick harder (higher-scoring) negatives"
        );
    }

    #[test]
    fn single_item_catalog_returns_none() {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(0), t);
        c.add_item(ItemMeta::bare(a));
        let evs = vec![
            Interaction::new(UserId(0), ItemId(0), ActionType::View, 0),
            Interaction::new(UserId(0), ItemId(0), ActionType::View, 1),
        ];
        let ds = Dataset::build(1, evs, false);
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let mut rng = StdRng::seed_from_u64(6);
        let e = ds.examples.examples[0];
        assert_eq!(s.sample(&ds, &e, &mut rng, unscored), None);
    }
}
