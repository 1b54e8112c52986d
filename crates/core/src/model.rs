//! The BPR factorization model with side features (Sections III-B and III-B4).
//!
//! Item-side representation (hierarchical additive model, Kanagal et al. [4]
//! + brand/price features, Ahmed et al. [5]):
//!
//! ```text
//! rep(i) = v_i  (+ Σ_{c ∈ ancestors(cat(i))} t_c)  (+ b_{brand(i)})  (+ p_{bucket(price(i))})
//! ```
//!
//! Users are never given their own embedding. Equation 1 of the paper builds
//! the user vector from the *context* — the last K (action, item) pairs —
//! using separate context embeddings `vC` and a decay weight per step of age:
//!
//! ```text
//! u = Σ_j w_j · repC(I_j)      w_j ∝ action_weight(a_j) · decay^age_j
//! ```
//!
//! which is what lets Sigmund serve brand-new users without retraining.
//! The affinity is the dot product `x_ui = ⟨u, rep(i)⟩`.

use crate::storage::Table;
use rand::prelude::*;
use rand::rngs::StdRng;
use sigmund_types::{ActionType, Catalog, HyperParams, ItemId, RetailerId};

/// Number of log-scale price buckets for the price feature.
pub const PRICE_BUCKETS: usize = 16;

/// Maps a price to its log-scale bucket in `0..PRICE_BUCKETS`.
///
/// Prices spanning 1–~3000 units land in distinct buckets; everything above
/// clamps into the last one.
#[inline]
pub fn price_bucket(price: f32) -> usize {
    if !(price.is_finite()) || price <= 1.0 {
        return 0;
    }
    ((price.ln() * 2.0) as usize).min(PRICE_BUCKETS - 1)
}

/// One (action, item) pair of user context, most-recent-last.
pub type ContextEvent = (ItemId, ActionType);

/// A per-retailer BPR model.
#[derive(Debug)]
pub struct BprModel {
    /// Owning retailer.
    pub retailer: RetailerId,
    /// The hyper-parameters the model was built with.
    pub hp: HyperParams,
    pub(crate) item_emb: Table,
    pub(crate) ctx_emb: Table,
    pub(crate) cat_emb: Table,
    pub(crate) cat_ctx_emb: Table,
    pub(crate) brand_emb: Table,
    pub(crate) price_emb: Table,
}

impl BprModel {
    /// Initializes a model for `catalog` with Gaussian `N(0, init_std²)`
    /// embeddings drawn from `hp.init_seed`.
    pub fn init(catalog: &Catalog, hp: HyperParams) -> Self {
        let f = hp.factors as usize;
        assert!(f > 0, "factors must be positive");
        let mut rng = StdRng::seed_from_u64(hp.init_seed);
        let std = hp.init_std;
        let mut gauss = move || gaussian(&mut rng) * std;
        let n_items = catalog.len();
        let n_cats = catalog.taxonomy.len();
        let n_brands = catalog.brand_space().max(1) as usize;
        let item_emb = Table::from_fn(n_items, f, &mut gauss);
        let ctx_emb = Table::from_fn(n_items, f, &mut gauss);
        // Shared feature rows start near zero (10% of the item std): the
        // summed representation is then dominated by the per-item term at
        // init, and feature rows grow only where the data supports them —
        // the hierarchical-prior behaviour of Kanagal et al. [4].
        let mut feature_gauss = move || gauss() * 0.1;
        Self {
            retailer: catalog.retailer,
            item_emb,
            ctx_emb,
            cat_emb: Table::from_fn(n_cats, f, &mut feature_gauss),
            cat_ctx_emb: Table::from_fn(n_cats, f, &mut feature_gauss),
            brand_emb: Table::from_fn(n_brands, f, &mut feature_gauss),
            price_emb: Table::from_fn(PRICE_BUCKETS, f, &mut feature_gauss),
            hp,
        }
    }

    /// Embedding dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.hp.factors as usize
    }

    /// Number of items the model covers.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.item_emb.rows()
    }

    /// Writes the full item-side representation of `item` into `out`.
    pub fn item_rep_into(&self, catalog: &Catalog, item: ItemId, out: &mut [f32]) {
        self.item_emb.read_row(item.index(), out);
        let meta = catalog.meta(item);
        if self.hp.features.use_taxonomy {
            for c in catalog.taxonomy.ancestors(meta.category) {
                self.cat_emb.accumulate_row(c.index(), out);
            }
        }
        if self.hp.features.use_brand {
            if let Some(b) = meta.brand {
                self.brand_emb.accumulate_row(b.index(), out);
            }
        }
        if self.hp.features.use_price {
            if let Some(p) = meta.price {
                self.price_emb.accumulate_row(price_bucket(p), out);
            }
        }
    }

    /// Writes the context-side representation of `item` into `out`.
    ///
    /// The context side has its own embeddings `vC` (and its own taxonomy
    /// table, so cold context items still produce a useful user vector).
    pub fn context_rep_into(&self, catalog: &Catalog, item: ItemId, out: &mut [f32]) {
        self.ctx_emb.read_row(item.index(), out);
        if self.hp.features.use_taxonomy {
            let meta = catalog.meta(item);
            for c in catalog.taxonomy.ancestors(meta.category) {
                self.cat_ctx_emb.accumulate_row(c.index(), out);
            }
        }
    }

    /// Normalized context weights `w_j` for a context of `len` events:
    /// `w_j ∝ action_weight(a_j) · decay^age_j`, normalized to sum to 1 so
    /// user-vector magnitude does not grow with context length.
    ///
    /// `decay^age` is carried as a running multiply from the newest event
    /// backwards instead of a `powi` per event. The chained product can
    /// differ from `powi` (which squares-and-multiplies) by a few ulps at
    /// age ≥ 2; the normalization sum stays in forward event order.
    pub fn context_weights(&self, context: &[ContextEvent], out: &mut Vec<f32>) {
        out.clear();
        let decay = self.hp.context_decay;
        out.extend(context.iter().map(|(_, action)| action.context_weight()));
        let mut factor = 1.0f32;
        for w in out.iter_mut().rev() {
            *w *= factor;
            factor *= decay;
        }
        let sum: f32 = out.iter().sum();
        if sum > 0.0 {
            for w in out.iter_mut() {
                *w /= sum;
            }
        }
    }

    /// Builds the user embedding (Eq. 1) into `out`. `scratch` must be
    /// `dim()` long and is clobbered.
    pub fn user_embedding_into(
        &self,
        catalog: &Catalog,
        context: &[ContextEvent],
        weights: &mut Vec<f32>,
        scratch: &mut [f32],
        out: &mut [f32],
    ) {
        out.fill(0.0);
        if context.is_empty() {
            return;
        }
        // Only the trailing K events participate.
        let k = self.hp.context_len as usize;
        let ctx = if context.len() > k {
            &context[context.len() - k..]
        } else {
            context
        };
        self.context_weights(ctx, weights);
        for ((item, _), &w) in ctx.iter().zip(weights.iter()) {
            self.context_rep_into(catalog, *item, scratch);
            for (o, s) in out.iter_mut().zip(scratch.iter()) {
                *o += w * s;
            }
        }
    }

    /// Scores one item against a prebuilt user vector. `scratch` must be
    /// `dim()` long.
    pub fn score_with(
        &self,
        catalog: &Catalog,
        user_vec: &[f32],
        item: ItemId,
        scratch: &mut [f32],
    ) -> f32 {
        self.item_rep_into(catalog, item, scratch);
        dot(user_vec, scratch)
    }

    /// Convenience: affinity of a context for an item (allocates buffers; use
    /// the `_into`/`_with` variants on hot paths).
    pub fn affinity(&self, catalog: &Catalog, context: &[ContextEvent], item: ItemId) -> f32 {
        let f = self.dim();
        let mut weights = Vec::new();
        let mut scratch = vec![0.0; f];
        let mut user = vec![0.0; f];
        self.user_embedding_into(catalog, context, &mut weights, &mut scratch, &mut user);
        self.score_with(catalog, &user, item, &mut scratch)
    }

    /// Materializes all item representations into a dense row-major matrix
    /// (`n_items × dim`). Ranking all items is then a sequence of cheap dot
    /// products; this is what offline inference and exact-MAP evaluation use.
    pub fn materialize_item_reps(&self, catalog: &Catalog) -> ItemRepMatrix {
        let f = self.dim();
        let n = self.n_items();
        let mut data = vec![0.0f32; n * f];
        for i in 0..n {
            let item = ItemId::from_index(i);
            self.item_rep_into(catalog, item, &mut data[i * f..(i + 1) * f]);
        }
        ItemRepMatrix { data, dim: f }
    }

    /// Materializes all *context-side* representations into a dense
    /// row-major matrix (`n_items × dim`) — the context twin of
    /// [`BprModel::materialize_item_reps`]. Building user vectors
    /// ([`BprModel::user_embedding_from_reps`]) is then a weighted sum of
    /// flat rows instead of a taxonomy walk per context event.
    pub fn materialize_context_reps(&self, catalog: &Catalog) -> CtxRepMatrix {
        let f = self.dim();
        let n = self.n_items();
        let mut data = vec![0.0f32; n * f];
        for i in 0..n {
            let item = ItemId::from_index(i);
            self.context_rep_into(catalog, item, &mut data[i * f..(i + 1) * f]);
        }
        CtxRepMatrix { data, dim: f }
    }

    /// Builds the user embedding (Eq. 1) into `out` from prematerialized
    /// context representations. Bitwise-identical to
    /// [`BprModel::user_embedding_into`]: same trailing-window truncation,
    /// same weights, same accumulation order — the rep rows are just read
    /// from `ctx_reps` instead of being rebuilt per event.
    pub fn user_embedding_from_reps(
        &self,
        ctx_reps: &CtxRepMatrix,
        context: &[ContextEvent],
        weights: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        out.fill(0.0);
        if context.is_empty() {
            return;
        }
        // Only the trailing K events participate.
        let k = self.hp.context_len as usize;
        let ctx = if context.len() > k {
            &context[context.len() - k..]
        } else {
            context
        };
        self.context_weights(ctx, weights);
        for ((item, _), &w) in ctx.iter().zip(weights.iter()) {
            let rep = ctx_reps.rep(*item);
            for (o, s) in out.iter_mut().zip(rep.iter()) {
                *o += w * s;
            }
        }
    }

    /// Resets every Adagrad accumulator (used before incremental runs).
    pub fn reset_adagrad(&self) {
        self.item_emb.reset_adagrad();
        self.ctx_emb.reset_adagrad();
        self.cat_emb.reset_adagrad();
        self.cat_ctx_emb.reset_adagrad();
        self.brand_emb.reset_adagrad();
        self.price_emb.reset_adagrad();
    }

    /// Grows the model to cover a catalog that gained items/categories since
    /// this model was trained. New rows get fresh Gaussian embeddings; old
    /// rows are preserved (incremental training, Section III-C3).
    pub fn grow_for(&mut self, catalog: &Catalog, seed: u64) {
        let std = self.hp.init_std;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gauss = move || gaussian(&mut rng) * std;
        self.item_emb.grow_to(catalog.len(), &mut gauss);
        self.ctx_emb.grow_to(catalog.len(), &mut gauss);
        self.cat_emb.grow_to(catalog.taxonomy.len(), &mut gauss);
        self.cat_ctx_emb.grow_to(catalog.taxonomy.len(), &mut gauss);
        self.brand_emb
            .grow_to(catalog.brand_space().max(1) as usize, &mut gauss);
    }

    /// Read-only access to the six parameter tables in canonical order
    /// (item, context, category, category-context, brand, price; indexes in
    /// [`table`]). Used by the snapshot codec and by training.
    pub(crate) fn tables(&self) -> [&Table; 6] {
        [
            &self.item_emb,
            &self.ctx_emb,
            &self.cat_emb,
            &self.cat_ctx_emb,
            &self.brand_emb,
            &self.price_emb,
        ]
    }
}

/// Positions in the array [`BprModel::tables`] returns.
pub(crate) mod table {
    pub(crate) const ITEM: usize = 0;
    pub(crate) const CTX: usize = 1;
    pub(crate) const CAT: usize = 2;
    pub(crate) const CAT_CTX: usize = 3;
    pub(crate) const BRAND: usize = 4;
    pub(crate) const PRICE: usize = 5;
}

/// Dense, read-only item-representation matrix (see
/// [`BprModel::materialize_item_reps`]).
#[derive(Debug, Clone)]
pub struct ItemRepMatrix {
    data: Vec<f32>,
    dim: usize,
}

impl ItemRepMatrix {
    /// Representation row for an item.
    #[inline]
    pub fn rep(&self, item: ItemId) -> &[f32] {
        let i = item.index();
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True iff there are no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dot product of a user vector with an item's representation.
    #[inline]
    pub fn score(&self, user_vec: &[f32], item: ItemId) -> f32 {
        dot(self.rep(item), user_vec)
    }
}

/// Dense, read-only context-representation matrix: row `i` is
/// [`BprModel::context_rep_into`] for item `i` (see
/// [`BprModel::materialize_context_reps`]). The context-side twin of
/// [`ItemRepMatrix`], used by the inference fast path to build user vectors
/// without re-walking taxonomy ancestors per context event.
#[derive(Debug, Clone)]
pub struct CtxRepMatrix {
    data: Vec<f32>,
    dim: usize,
}

impl CtxRepMatrix {
    /// Context-representation row for an item.
    #[inline]
    pub fn rep(&self, item: ItemId) -> &[f32] {
        let i = item.index();
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True iff there are no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Dot product of two equal-length `f32` slices.
///
/// The single scoring seam shared by [`BprModel::score_with`],
/// [`ItemRepMatrix::score`], and the inference fast path — one place to
/// vectorize when SIMD work lands. Pairs elementwise over the shorter slice
/// and sums in index order, so it is bitwise-identical to the open-coded
/// `zip`/`map`/`sum` loops it replaced.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Candidates scored per [`dot_block`] call on the inference fast path.
pub(crate) const DOT_LANES: usize = 16;

/// `B` independent [`dot`]s of `a` against `rows`, one result per lane.
///
/// Every lane starts from `dot`'s own initial value and adds its products
/// in index order, so lane `l` is bit-for-bit `dot(a, rows[l])`. What the
/// block buys is latency: a lone `dot` is one dependent chain of `f32`
/// adds, while `B` chains that never feed each other overlap in the
/// pipeline. Nothing is reassociated — there is no sum *across* lanes.
#[inline]
pub(crate) fn dot_block<const B: usize>(a: &[f32], rows: [&[f32]; B]) -> [f32; B] {
    if rows.iter().any(|r| r.len() != a.len()) {
        // Mismatched lengths (never matrix rows): `dot` pairs over the
        // shorter side, and each lane must do so on its own.
        return rows.map(|r| dot(a, r));
    }
    let mut acc = [dot(&[], &[]); B];
    for (d, &x) in a.iter().enumerate() {
        for (lane, row) in acc.iter_mut().zip(rows.iter()) {
            *lane += x * row[d];
        }
    }
    acc
}

/// Standard-normal sample via the Irwin–Hall(12) approximation (mean 0,
/// variance 1) — good enough for initialization and allocation-free.
#[inline]
pub(crate) fn gaussian(rng: &mut StdRng) -> f32 {
    (0..12).map(|_| rng.random::<f32>()).sum::<f32>() - 6.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_types::{BrandId, FeatureSwitches, ItemMeta, Taxonomy};

    fn catalog() -> Catalog {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let b = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(0), t);
        for i in 0..10 {
            c.add_item(ItemMeta {
                category: if i % 2 == 0 { a } else { b },
                brand: Some(BrandId((i % 3) as u32)),
                price: Some(5.0 + i as f32 * 20.0),
                facet: None,
            });
        }
        c
    }

    fn hp(features: FeatureSwitches) -> HyperParams {
        HyperParams {
            factors: 4,
            features,
            ..Default::default()
        }
    }

    #[test]
    fn price_bucket_monotone_and_bounded() {
        let mut last = 0;
        for p in [0.5, 1.0, 2.0, 10.0, 100.0, 1000.0, 1e9] {
            let b = price_bucket(p);
            assert!(b >= last);
            assert!(b < PRICE_BUCKETS);
            last = b;
        }
        assert_eq!(price_bucket(f32::NAN), 0);
    }

    #[test]
    fn init_is_deterministic() {
        let c = catalog();
        let m1 = BprModel::init(&c, hp(FeatureSwitches::NONE));
        let m2 = BprModel::init(&c, hp(FeatureSwitches::NONE));
        assert_eq!(m1.item_emb.to_vec(), m2.item_emb.to_vec());
    }

    #[test]
    fn feature_switches_change_representation() {
        let c = catalog();
        let plain = BprModel::init(&c, hp(FeatureSwitches::NONE));
        let full = BprModel::init(&c, hp(FeatureSwitches::ALL));
        let mut r0 = vec![0.0; 4];
        let mut r1 = vec![0.0; 4];
        plain.item_rep_into(&c, ItemId(0), &mut r0);
        full.item_rep_into(&c, ItemId(0), &mut r1);
        // With NONE the rep equals the raw item embedding.
        let mut raw = vec![0.0; 4];
        plain.item_emb.read_row(0, &mut raw);
        assert_eq!(r0, raw);
        // With ALL it must include feature rows (same seed → same item table).
        assert_ne!(r1, raw);
    }

    #[test]
    fn taxonomy_feature_shares_signal_across_category() {
        // Two items in the same category share ancestor rows: nudging the
        // category row moves both reps identically.
        let c = catalog();
        let m = BprModel::init(
            &c,
            HyperParams {
                factors: 4,
                features: FeatureSwitches {
                    use_taxonomy: true,
                    use_brand: false,
                    use_price: false,
                },
                ..Default::default()
            },
        );
        let cat0 = c.category(ItemId(0));
        let grad = vec![-1.0; 4]; // descend => rep increases
        m.cat_emb.adagrad_step(cat0.index(), &grad, 0.5, 0.0);
        let mut r0 = vec![0.0; 4];
        let mut r2 = vec![0.0; 4];
        m.item_rep_into(&c, ItemId(0), &mut r0);
        m.item_rep_into(&c, ItemId(2), &mut r2); // also category a
        let mut raw0 = vec![0.0; 4];
        let mut raw2 = vec![0.0; 4];
        m.item_emb.read_row(0, &mut raw0);
        m.item_emb.read_row(2, &mut raw2);
        let delta0: Vec<f32> = r0.iter().zip(&raw0).map(|(a, b)| a - b).collect();
        let delta2: Vec<f32> = r2.iter().zip(&raw2).map(|(a, b)| a - b).collect();
        for (a, b) in delta0.iter().zip(&delta2) {
            assert!((a - b).abs() < 1e-5, "deltas differ: {delta0:?} {delta2:?}");
        }
    }

    #[test]
    fn context_weights_decay_and_normalize() {
        let c = catalog();
        let m = BprModel::init(&c, hp(FeatureSwitches::NONE));
        let ctx: Vec<ContextEvent> = vec![
            (ItemId(0), ActionType::View),
            (ItemId(1), ActionType::View),
            (ItemId(2), ActionType::View),
        ];
        let mut w = Vec::new();
        m.context_weights(&ctx, &mut w);
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Most recent (last) has the largest weight.
        assert!(w[2] > w[1] && w[1] > w[0]);
    }

    #[test]
    fn stronger_actions_weigh_more_at_equal_age() {
        let c = catalog();
        let m = BprModel::init(&c, hp(FeatureSwitches::NONE));
        let ctx: Vec<ContextEvent> = vec![
            (ItemId(0), ActionType::Conversion),
            (ItemId(1), ActionType::View),
        ];
        let mut w = Vec::new();
        m.context_weights(&ctx, &mut w);
        // The conversion is older but much stronger; with decay 0.85 and
        // weight ratio 4:1 it still dominates.
        assert!(w[0] > w[1]);
    }

    #[test]
    fn user_embedding_empty_context_is_zero() {
        let c = catalog();
        let m = BprModel::init(&c, hp(FeatureSwitches::NONE));
        let mut w = Vec::new();
        let mut scratch = vec![0.0; 4];
        let mut u = vec![1.0; 4];
        m.user_embedding_into(&c, &[], &mut w, &mut scratch, &mut u);
        assert_eq!(u, vec![0.0; 4]);
    }

    #[test]
    fn user_embedding_truncates_to_context_len() {
        let c = catalog();
        let mut h = hp(FeatureSwitches::NONE);
        h.context_len = 2;
        let m = BprModel::init(&c, h);
        let long: Vec<ContextEvent> = (0..6)
            .map(|i| (ItemId(i as u32 % 10), ActionType::View))
            .collect();
        let short = &long[4..];
        let f = m.dim();
        let (mut w, mut s) = (Vec::new(), vec![0.0; f]);
        let mut u_long = vec![0.0; f];
        let mut u_short = vec![0.0; f];
        m.user_embedding_into(&c, &long, &mut w, &mut s, &mut u_long);
        m.user_embedding_into(&c, short, &mut w, &mut s, &mut u_short);
        assert_eq!(u_long, u_short);
    }

    #[test]
    fn materialized_reps_match_item_rep_into() {
        let c = catalog();
        let m = BprModel::init(&c, hp(FeatureSwitches::ALL));
        let mat = m.materialize_item_reps(&c);
        assert_eq!(mat.len(), 10);
        let mut buf = vec![0.0; 4];
        for i in 0..10u32 {
            m.item_rep_into(&c, ItemId(i), &mut buf);
            assert_eq!(mat.rep(ItemId(i)), &buf[..]);
        }
    }

    #[test]
    fn materialized_context_reps_match_context_rep_into() {
        let c = catalog();
        let m = BprModel::init(&c, hp(FeatureSwitches::ALL));
        let mat = m.materialize_context_reps(&c);
        assert_eq!(mat.len(), 10);
        assert!(!mat.is_empty());
        let mut buf = vec![0.0; 4];
        for i in 0..10u32 {
            m.context_rep_into(&c, ItemId(i), &mut buf);
            assert_eq!(mat.rep(ItemId(i)), &buf[..]);
        }
    }

    #[test]
    fn user_embedding_from_reps_is_bitwise_identical() {
        let c = catalog();
        for features in [FeatureSwitches::NONE, FeatureSwitches::ALL] {
            let m = BprModel::init(&c, hp(features));
            let ctx_reps = m.materialize_context_reps(&c);
            let f = m.dim();
            // Longer than context_len to exercise the trailing-window path.
            let long: Vec<ContextEvent> = (0..25)
                .map(|i| {
                    (
                        ItemId(i as u32 % 10),
                        if i % 3 == 0 {
                            ActionType::Conversion
                        } else {
                            ActionType::View
                        },
                    )
                })
                .collect();
            for ctx in [&long[..0], &long[..1], &long[..3], &long[..]] {
                let (mut w1, mut s, mut u1) = (Vec::new(), vec![0.0; f], vec![0.0; f]);
                let (mut w2, mut u2) = (Vec::new(), vec![0.0; f]);
                m.user_embedding_into(&c, ctx, &mut w1, &mut s, &mut u1);
                m.user_embedding_from_reps(&ctx_reps, ctx, &mut w2, &mut u2);
                assert_eq!(
                    u1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    u2.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "len {}",
                    ctx.len()
                );
            }
        }
    }

    #[test]
    fn context_weights_match_powi_reference() {
        // The running-multiply decay must track the old `decay.powi(age)`
        // formulation. Ages 0 and 1 are bitwise-identical; beyond that the
        // chained product may differ by ulps, so compare within 1e-6
        // relative over a long context.
        let c = catalog();
        let m = BprModel::init(&c, hp(FeatureSwitches::NONE));
        let ctx: Vec<ContextEvent> = (0..20)
            .map(|i| {
                (
                    ItemId(i as u32 % 10),
                    if i % 4 == 0 {
                        ActionType::Conversion
                    } else {
                        ActionType::View
                    },
                )
            })
            .collect();
        let mut w = Vec::new();
        m.context_weights(&ctx, &mut w);
        let decay = m.hp.context_decay;
        let n = ctx.len();
        let raw: Vec<f32> = ctx
            .iter()
            .enumerate()
            .map(|(j, (_, a))| a.context_weight() * decay.powi((n - 1 - j) as i32))
            .collect();
        let sum: f32 = raw.iter().sum();
        for (j, (got, want)) in w.iter().zip(raw.iter().map(|r| r / sum)).enumerate() {
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-6, "weight {j}: got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn dot_matches_open_coded_sum() {
        let a = [1.5f32, -2.0, 0.25, 3.0];
        let b = [0.5f32, 4.0, -8.0, 1.0];
        let want: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert_eq!(dot(&a, &b).to_bits(), want.to_bits());
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_block_lanes_are_bitwise_dot() {
        // Values whose sums expose a changed initial value (all products
        // -0.0 sum to -0.0 only from a -0.0 start), a changed order
        // (rounding, subnormals, cancellation) or a dropped term
        // (NaN/±∞ are sticky).
        let pool = [
            1.5f32,
            -2.25,
            0.0,
            -0.0,
            1e-41,  // subnormal
            -3e-45, // subnormal
            3.0e38,
            -3.0e38,
            1.0e-3,
            7.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut state = 0x9E37_79B9u32;
        let mut draw = |special: bool| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let n = if special { pool.len() } else { 10 };
            pool[(state >> 8) as usize % n]
        };
        for len in 0..=33usize {
            for round in 0..8 {
                let special = round % 2 == 1;
                let a: Vec<f32> = (0..len).map(|_| draw(special)).collect();
                let rows: Vec<Vec<f32>> = (0..DOT_LANES)
                    .map(|_| (0..len).map(|_| draw(special)).collect())
                    .collect();
                let got = dot_block::<DOT_LANES>(&a, std::array::from_fn(|l| &rows[l][..]));
                for (l, row) in rows.iter().enumerate() {
                    // Which NaN an operation returns (sign, payload) is
                    // unspecified in Rust; every other value is held to
                    // the bit.
                    let want = dot(&a, row);
                    assert!(
                        got[l].to_bits() == want.to_bits() || (got[l].is_nan() && want.is_nan()),
                        "len {len} round {round} lane {l}: {} vs {want}",
                        got[l]
                    );
                }
            }
        }
        // Signed zeros: the start value shows in the sign of an all-zero sum.
        let neg = [-0.0f32; 5];
        let pos = [1.0f32; 5];
        let got = dot_block::<2>(&pos, [&neg, &pos]);
        assert_eq!(got[0].to_bits(), dot(&pos, &neg).to_bits());
        assert_eq!(got[1].to_bits(), 5.0f32.to_bits());
        // Ragged rows: each lane pairs over its own shorter side, like `dot`.
        let got = dot_block::<2>(&pos, [&pos[..2], &pos[..]]);
        assert_eq!(got, [2.0, 5.0]);
        let got = dot_block::<2>(&pos[..3], [&pos[..], &pos[..1]]);
        assert_eq!(got, [3.0, 1.0]);
    }

    #[test]
    fn grow_for_adds_rows() {
        let mut c = catalog();
        let mut m = BprModel::init(&c, hp(FeatureSwitches::NONE));
        let before = m.n_items();
        let cat0 = c.category(ItemId(0));
        c.add_item(ItemMeta::bare(cat0));
        m.grow_for(&c, 99);
        assert_eq!(m.n_items(), before + 1);
    }

    #[test]
    fn gaussian_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
