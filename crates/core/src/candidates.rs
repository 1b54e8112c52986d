//! Candidate selection for inference (Section III-D1).
//!
//! Ranking every item for every context "does not scale to retailers that
//! have several millions of items", so Sigmund selects ~a thousand likely
//! candidates per context and only ranks those:
//!
//! * **View-based** (substitutes, before the purchase decision):
//!   `C = ∪_{j ∈ cv(i)} lca₂(j)` — co-viewed items expanded two taxonomy
//!   levels ("k = 2 provides a good trade-off between quality and coverage").
//! * **Purchase-based** (complements/accessories, after the decision):
//!   `C = ∪_{j ∈ cb(i)} lca₁(j) \ lca₁(i)` — co-bought items expanded one
//!   level, minus substitutes of the query item.
//! * **Re-purchasable categories** (diapers, water, …) skip the set
//!   difference and get periodic recommendations at the category's observed
//!   inter-purchase interval.
//! * **Late-funnel users** get candidates constrained to the same item facet.

use crate::cooc::CoocModel;
use sigmund_types::{ActionType, Catalog, CategoryId, Interaction, ItemId, Timestamp};
use std::collections::BTreeMap;

/// Default candidate-set size cap ("about a thousand" in the paper).
pub const DEFAULT_MAX_CANDIDATES: usize = 1000;

/// Precomputed per-category subtree item lists enabling O(1) `lca_k` lookups.
///
/// `lca_k(i)` — items at LCA distance ≤ k from item `i` — is exactly the set
/// of items whose category lies in the subtree of `i`'s (k−1)-th ancestor.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// `subtree_items[c]` = all items whose category is in the subtree of c.
    subtree_items: Vec<Vec<ItemId>>,
}

impl CandidateIndex {
    /// Builds the index for a catalog. O(items × depth).
    pub fn build(catalog: &Catalog) -> Self {
        let mut subtree_items: Vec<Vec<ItemId>> = vec![Vec::new(); catalog.taxonomy.len()];
        for (item, meta) in catalog.iter() {
            for c in catalog.taxonomy.ancestors(meta.category) {
                subtree_items[c.index()].push(item);
            }
        }
        Self { subtree_items }
    }

    /// Items at LCA distance ≤ `k` from `item` (k ≥ 1; includes `item`).
    pub fn lca_k<'a>(&'a self, catalog: &Catalog, item: ItemId, k: u32) -> &'a [ItemId] {
        assert!(k >= 1, "lca_k needs k >= 1");
        let cat = catalog.category(item);
        let anc = catalog.taxonomy.ancestor_at(cat, k - 1);
        &self.subtree_items[anc.index()]
    }

    /// Items in the subtree of a category.
    pub fn items_under(&self, c: CategoryId) -> &[ItemId] {
        &self.subtree_items[c.index()]
    }
}

/// Re-purchasability statistics per category (Section III-D1,
/// "Re-purchasing").
#[derive(Debug, Clone)]
pub struct RepurchaseStats {
    repurchasable: Vec<bool>,
    /// Mean virtual seconds between repeat purchases, per category (0 when
    /// not re-purchasable).
    mean_interval: Vec<f64>,
}

impl RepurchaseStats {
    /// Estimates which categories are re-purchasable: among users who bought
    /// in the category, at least `threshold` fraction bought more than once.
    pub fn estimate(catalog: &Catalog, events: &[Interaction], threshold: f64) -> Self {
        let n_cats = catalog.taxonomy.len();
        // (users with ≥1 buy, users with ≥2 buys, interval sum, interval n)
        let mut per_cat_user: BTreeMap<(u32, u32), Vec<Timestamp>> = BTreeMap::new();
        for e in events {
            if e.action == ActionType::Conversion {
                let cat = catalog.category(e.item);
                per_cat_user
                    .entry((cat.0, e.user.0))
                    .or_default()
                    .push(e.when);
            }
        }
        let mut buyers = vec![0u32; n_cats];
        let mut repeaters = vec![0u32; n_cats];
        let mut interval_sum = vec![0.0f64; n_cats];
        let mut interval_n = vec![0u32; n_cats];
        for ((cat, _), mut times) in per_cat_user {
            let c = cat as usize;
            buyers[c] += 1;
            if times.len() > 1 {
                repeaters[c] += 1;
                times.sort_unstable();
                for w in times.windows(2) {
                    interval_sum[c] += (w[1] - w[0]) as f64;
                    interval_n[c] += 1;
                }
            }
        }
        let repurchasable = (0..n_cats)
            .map(|c| buyers[c] > 0 && repeaters[c] as f64 / buyers[c] as f64 >= threshold)
            .collect();
        let mean_interval = (0..n_cats)
            .map(|c| {
                if interval_n[c] > 0 {
                    interval_sum[c] / interval_n[c] as f64
                } else {
                    0.0
                }
            })
            .collect();
        Self {
            repurchasable,
            mean_interval,
        }
    }

    /// Is the category re-purchasable?
    #[inline]
    pub fn is_repurchasable(&self, c: CategoryId) -> bool {
        self.repurchasable[c.index()]
    }

    /// Mean observed inter-purchase interval for a category.
    #[inline]
    pub fn mean_interval(&self, c: CategoryId) -> f64 {
        self.mean_interval[c.index()]
    }

    /// Should a periodic re-purchase reminder fire for `item`, last bought at
    /// `last_purchase`, at current time `now`?
    pub fn due_for_repurchase(
        &self,
        catalog: &Catalog,
        item: ItemId,
        last_purchase: Timestamp,
        now: Timestamp,
    ) -> bool {
        let c = catalog.category(item);
        self.is_repurchasable(c)
            && self.mean_interval(c) > 0.0
            && (now.saturating_sub(last_purchase)) as f64 >= self.mean_interval(c)
    }
}

/// Candidate-selection engine combining taxonomy, co-occurrence,
/// re-purchasability, and facets.
#[derive(Debug, Clone)]
pub struct CandidateSelector {
    /// LCA expansion for view-based recommendation (paper: 2).
    pub view_k: u32,
    /// LCA expansion for purchase-based recommendation (paper: 1).
    pub purchase_k: u32,
    /// Cap on the candidate set size.
    pub max_candidates: usize,
}

impl Default for CandidateSelector {
    fn default() -> Self {
        Self {
            view_k: 2,
            purchase_k: 1,
            max_candidates: DEFAULT_MAX_CANDIDATES,
        }
    }
}

/// Reusable buffers of one candidate-set build: the output list and an
/// epoch-stamped seen-set over the catalog's dense item ids.
///
/// `stamp[i] == epoch` means item `i` was already taken (or excluded) in
/// the current build. Starting the next build bumps `epoch`, which forgets
/// every mark at once; only when the counter wraps is the array rewritten.
#[derive(Debug, Default)]
pub(crate) struct CandidateScratch {
    stamp: Vec<u32>,
    epoch: u32,
    /// The candidates of the latest build, in selection order.
    pub(crate) out: Vec<ItemId>,
}

impl CandidateScratch {
    /// Starts a build over a catalog of `n_items`: nothing is seen.
    fn begin(&mut self, n_items: usize) {
        if self.stamp.len() < n_items {
            self.stamp.resize(n_items, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps written 2^32 builds ago would read as current.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `item` seen; true iff it was not seen before in this build.
    #[inline]
    fn insert(&mut self, item: ItemId) -> bool {
        let slot = &mut self.stamp[item.index()];
        let fresh = *slot != self.epoch;
        *slot = self.epoch;
        fresh
    }
}

impl CandidateSelector {
    /// View-based candidates: `∪_{j ∈ cv(i)} lca_k(j)`, deduplicated, query
    /// item removed, capped. Falls back to `lca_k(i)` when the item has no
    /// co-view data (cold items).
    pub fn view_based(
        &self,
        catalog: &Catalog,
        index: &CandidateIndex,
        cooc: &CoocModel,
        item: ItemId,
    ) -> Vec<ItemId> {
        let mut scratch = CandidateScratch::default();
        self.view_based_into(catalog, index, cooc, item, &mut scratch);
        scratch.out
    }

    /// [`CandidateSelector::view_based`] into `scratch.out`, reusing
    /// `scratch` across calls instead of allocating per query.
    pub(crate) fn view_based_into(
        &self,
        catalog: &Catalog,
        index: &CandidateIndex,
        cooc: &CoocModel,
        item: ItemId,
        scratch: &mut CandidateScratch,
    ) {
        scratch.out.clear();
        scratch.begin(catalog.len());
        scratch.insert(item); // never recommend the query item
        let cv = cooc.co_viewed(item);
        if cv.is_empty() {
            self.extend(index.lca_k(catalog, item, self.view_k), scratch);
        } else {
            for j in cv {
                self.extend(index.lca_k(catalog, j.item, self.view_k), scratch);
                if scratch.out.len() >= self.max_candidates {
                    break;
                }
            }
        }
    }

    /// Purchase-based candidates: `∪_{j ∈ cb(i)} lca_k(j) \ lca_k(i)` —
    /// except in re-purchasable categories, where substitutes (including the
    /// purchased item's own category) stay in.
    pub fn purchase_based(
        &self,
        catalog: &Catalog,
        index: &CandidateIndex,
        cooc: &CoocModel,
        repurchase: &RepurchaseStats,
        item: ItemId,
    ) -> Vec<ItemId> {
        let mut scratch = CandidateScratch::default();
        self.purchase_based_into(catalog, index, cooc, repurchase, item, &mut scratch);
        scratch.out
    }

    /// [`CandidateSelector::purchase_based`] into `scratch.out`, as
    /// [`CandidateSelector::view_based_into`].
    pub(crate) fn purchase_based_into(
        &self,
        catalog: &Catalog,
        index: &CandidateIndex,
        cooc: &CoocModel,
        repurchase: &RepurchaseStats,
        item: ItemId,
        scratch: &mut CandidateScratch,
    ) {
        scratch.out.clear();
        let cb = cooc.co_bought(item);
        if cb.is_empty() {
            return; // nothing to expand: the seen-set is never touched
        }
        scratch.begin(catalog.len());
        scratch.insert(item);
        if !repurchase.is_repurchasable(catalog.category(item)) {
            // Remove substitutes of i (its own lca₁ neighbourhood).
            for &s in index.lca_k(catalog, item, self.purchase_k) {
                scratch.insert(s);
            }
        }
        for j in cb {
            self.extend(index.lca_k(catalog, j.item, self.purchase_k), scratch);
            if scratch.out.len() >= self.max_candidates {
                break;
            }
        }
    }

    /// Late-funnel narrowing: keep only candidates sharing the query item's
    /// facet (color, size class, …). Items without facets are dropped when
    /// the query has one.
    pub fn constrain_to_facet(
        &self,
        catalog: &Catalog,
        query: ItemId,
        candidates: &mut Vec<ItemId>,
    ) {
        let Some(facet) = catalog.meta(query).facet else {
            return;
        };
        candidates.retain(|c| catalog.meta(*c).facet == Some(facet));
    }

    fn extend(&self, items: &[ItemId], scratch: &mut CandidateScratch) {
        for &i in items {
            if scratch.out.len() >= self.max_candidates {
                return;
            }
            if scratch.insert(i) {
                scratch.out.push(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooc::CoocConfig;
    use sigmund_types::{FacetId, ItemMeta, RetailerId, Taxonomy, UserId};

    /// Figure-3-style taxonomy: root → {smart → {android, apple}, other}.
    /// Items: 0,1 android; 2,3 apple; 4 other.
    fn setup() -> (Catalog, CandidateIndex) {
        let mut t = Taxonomy::new();
        let smart = t.add_child(t.root());
        let android = t.add_child(smart);
        let apple = t.add_child(smart);
        let other = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(0), t);
        for cat in [android, android, apple, apple, other] {
            c.add_item(ItemMeta::bare(cat));
        }
        let idx = CandidateIndex::build(&c);
        (c, idx)
    }

    fn ev(u: u32, i: u32, a: ActionType, t: u64) -> Interaction {
        Interaction::new(UserId(u), ItemId(i), a, t)
    }

    #[test]
    fn lca_k_matches_fig3_semantics() {
        let (c, idx) = setup();
        // lca1(item 0) = android items {0,1}.
        let l1: Vec<u32> = idx.lca_k(&c, ItemId(0), 1).iter().map(|i| i.0).collect();
        assert_eq!(l1, vec![0, 1]);
        // lca2(item 0) = all smart phones {0,1,2,3}.
        let l2: Vec<u32> = idx.lca_k(&c, ItemId(0), 2).iter().map(|i| i.0).collect();
        assert_eq!(l2, vec![0, 1, 2, 3]);
        // lca3(item 0) = everything.
        let l3: Vec<u32> = idx.lca_k(&c, ItemId(0), 3).iter().map(|i| i.0).collect();
        assert_eq!(l3, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn view_based_expands_co_views() {
        let (c, idx) = setup();
        // Items 0 and 2 co-viewed by several users.
        let mut evs = Vec::new();
        for u in 0..3 {
            evs.push(ev(u, 0, ActionType::View, 0));
            evs.push(ev(u, 2, ActionType::View, 1));
        }
        let cooc = CoocModel::build(5, &evs, CoocConfig::default());
        let sel = CandidateSelector::default();
        let cands = sel.view_based(&c, &idx, &cooc, ItemId(0));
        // cv(0) = {2}; lca2(2) = smart phones {0,1,2,3}; minus query item 0.
        let mut got: Vec<u32> = cands.iter().map(|i| i.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn view_based_cold_item_falls_back_to_taxonomy() {
        let (c, idx) = setup();
        let cooc = CoocModel::build(5, &[], CoocConfig::default());
        let sel = CandidateSelector::default();
        let cands = sel.view_based(&c, &idx, &cooc, ItemId(2));
        let mut got: Vec<u32> = cands.iter().map(|i| i.0).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 3], "lca2 of an apple phone, minus itself");
    }

    #[test]
    fn purchase_based_removes_substitutes() {
        let (c, idx) = setup();
        // Item 0 co-bought with item 4 (accessory, different branch) and —
        // via a single outlier user — with substitute item 1. Categories are
        // not re-purchasable (each user buys once per category except the
        // outlier, who stays under the 0.5 threshold).
        let mut evs = Vec::new();
        for u in 0..3 {
            evs.push(ev(u, 0, ActionType::Conversion, 0));
            evs.push(ev(u, 4, ActionType::Conversion, 1));
        }
        evs.push(ev(3, 0, ActionType::Conversion, 0));
        evs.push(ev(3, 1, ActionType::Conversion, 1));
        evs.push(ev(4, 0, ActionType::Conversion, 0));
        evs.push(ev(4, 1, ActionType::Conversion, 1));
        let cooc = CoocModel::build(5, &evs, CoocConfig::default());
        let rep = RepurchaseStats::estimate(&c, &evs, 0.5);
        assert!(!rep.is_repurchasable(c.category(ItemId(0))));
        let sel = CandidateSelector::default();
        // cb(0) contains both 4 and 1 (counts 3 and 2).
        assert!(cooc
            .co_bought(ItemId(0))
            .iter()
            .any(|x| x.item == ItemId(1)));
        let cands = sel.purchase_based(&c, &idx, &cooc, &rep, ItemId(0));
        let got: Vec<u32> = cands.iter().map(|i| i.0).collect();
        // lca1(0) = {0,1} is removed; item 4 (different branch) survives.
        assert!(got.contains(&4));
        assert!(!got.contains(&1), "substitute must be removed: {got:?}");
    }

    #[test]
    fn repurchasable_category_keeps_substitutes() {
        let (c, idx) = setup();
        // Users repeatedly buy item 0 (consumable) and also buy item 1.
        let mut evs = Vec::new();
        for u in 0..4 {
            evs.push(ev(u, 0, ActionType::Conversion, 0));
            evs.push(ev(u, 0, ActionType::Conversion, 100));
            evs.push(ev(u, 1, ActionType::Conversion, 150));
        }
        let cooc = CoocModel::build(5, &evs, CoocConfig::default());
        let rep = RepurchaseStats::estimate(&c, &evs, 0.5);
        assert!(rep.is_repurchasable(c.category(ItemId(0))));
        let sel = CandidateSelector::default();
        let cands = sel.purchase_based(&c, &idx, &cooc, &rep, ItemId(0));
        let got: Vec<u32> = cands.iter().map(|i| i.0).collect();
        assert!(
            got.contains(&1),
            "same-category item stays for consumables: {got:?}"
        );
    }

    #[test]
    fn repurchase_interval_and_due() {
        let (c, _) = setup();
        let mut evs = Vec::new();
        for u in 0..4 {
            evs.push(ev(u, 0, ActionType::Conversion, 0));
            evs.push(ev(u, 0, ActionType::Conversion, 1000));
        }
        let rep = RepurchaseStats::estimate(&c, &evs, 0.5);
        let cat = c.category(ItemId(0));
        assert!((rep.mean_interval(cat) - 1000.0).abs() < 1e-9);
        assert!(!rep.due_for_repurchase(&c, ItemId(0), 5000, 5500));
        assert!(rep.due_for_repurchase(&c, ItemId(0), 5000, 6200));
    }

    #[test]
    fn non_repurchasable_when_below_threshold() {
        let (c, _) = setup();
        // 1 of 4 buyers repeats → below 0.5 threshold.
        let mut evs = vec![
            ev(0, 0, ActionType::Conversion, 0),
            ev(0, 0, ActionType::Conversion, 10),
        ];
        for u in 1..4 {
            evs.push(ev(u, 0, ActionType::Conversion, 0));
        }
        let rep = RepurchaseStats::estimate(&c, &evs, 0.5);
        assert!(!rep.is_repurchasable(c.category(ItemId(0))));
    }

    #[test]
    fn facet_constraint_filters() {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(0), t);
        for f in [Some(0u32), Some(0), Some(1), None] {
            c.add_item(ItemMeta {
                category: a,
                brand: None,
                price: None,
                facet: f.map(FacetId),
            });
        }
        let sel = CandidateSelector::default();
        let mut cands = vec![ItemId(1), ItemId(2), ItemId(3)];
        sel.constrain_to_facet(&c, ItemId(0), &mut cands);
        assert_eq!(cands, vec![ItemId(1)]);
        // Query without a facet: no filtering.
        let mut cands2 = vec![ItemId(0), ItemId(2)];
        sel.constrain_to_facet(&c, ItemId(3), &mut cands2);
        assert_eq!(cands2.len(), 2);
    }

    #[test]
    fn candidate_cap_is_respected() {
        let (c, idx) = setup();
        let cooc = CoocModel::build(5, &[], CoocConfig::default());
        let sel = CandidateSelector {
            max_candidates: 2,
            ..Default::default()
        };
        let cands = sel.view_based(&c, &idx, &cooc, ItemId(0));
        assert!(cands.len() <= 2);
    }

    /// A generated retailer: real co-view / co-buy lists, cold items and a
    /// multi-level taxonomy.
    fn generated() -> (Catalog, CandidateIndex, CoocModel, RepurchaseStats) {
        let data = sigmund_datagen::RetailerSpec::sized(RetailerId(0), 60, 80, 10).generate();
        let cooc = CoocModel::build(data.catalog.len(), &data.events, CoocConfig::default());
        let idx = CandidateIndex::build(&data.catalog);
        let rep = RepurchaseStats::estimate(&data.catalog, &data.events, 0.3);
        (data.catalog, idx, cooc, rep)
    }

    fn selectors() -> [CandidateSelector; 4] {
        let with = |view_k, purchase_k, max_candidates| CandidateSelector {
            view_k,
            purchase_k,
            max_candidates,
        };
        [
            CandidateSelector::default(),
            with(2, 1, 7),
            with(3, 2, 25),
            with(2, 1, 0),
        ]
    }

    /// Runs `queries` pseudo-random selections through `scratch` and holds
    /// each to the allocating wrapper; returns how many lists were
    /// non-empty and how many hit their cap.
    fn assert_scratch_matches_wrappers(scratch: &mut CandidateScratch, queries: u32) -> (u32, u32) {
        let (c, idx, cooc, rep) = generated();
        let selectors = selectors();
        let (mut non_empty, mut capped) = (0, 0);
        let mut state = 12345u32;
        for q in 0..queries {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let item = ItemId((state >> 8) % c.len() as u32);
            let sel = &selectors[(state >> 28) as usize % selectors.len()];
            let want = if q % 2 == 0 {
                sel.view_based_into(&c, &idx, &cooc, item, scratch);
                sel.view_based(&c, &idx, &cooc, item)
            } else {
                sel.purchase_based_into(&c, &idx, &cooc, &rep, item, scratch);
                sel.purchase_based(&c, &idx, &cooc, &rep, item)
            };
            assert_eq!(scratch.out, want, "query {q} item {item:?} {sel:?}");
            non_empty += u32::from(!want.is_empty());
            capped += u32::from(sel.max_candidates > 0 && want.len() == sel.max_candidates);
        }
        (non_empty, capped)
    }

    #[test]
    fn reused_scratch_equals_allocating_wrappers() {
        let mut scratch = CandidateScratch::default();
        let (non_empty, capped) = assert_scratch_matches_wrappers(&mut scratch, 10_000);
        assert!(non_empty > 1_000 && capped > 100, "{non_empty} {capped}");
        assert!(scratch.epoch > 5_000, "one epoch per build that dedups");
    }

    #[test]
    fn scratch_survives_epoch_wrap() {
        let mut scratch = CandidateScratch::default();
        // The first query stamps its candidates with epoch 1. Repeating it
        // right at the wrap lands on epoch 1 again, where those stale
        // stamps would hide every candidate.
        let (non_empty, _) = assert_scratch_matches_wrappers(&mut scratch, 1);
        assert_eq!((non_empty, scratch.epoch), (1, 1));
        scratch.epoch = u32::MAX;
        assert_scratch_matches_wrappers(&mut scratch, 40);
        assert!(scratch.epoch < 100, "wrapped: {}", scratch.epoch);
    }
}
