//! Offline inference: materializing item → top-K recommendations
//! (Sections III-D, IV-C).
//!
//! "An offline inference process materializes the recommendations for each
//! item and retailer … in order to offset consuming more expensive CPU cycles
//! at serving time." For every item we build the candidate set
//! (`candidates.rs`), score the candidates with the factorization model using
//! the item itself as the user context, and keep the top K. The cost is
//! "roughly linearly proportional to the number of items" because candidate
//! selection caps the per-item work — the pipeline's bin-packing experiment
//! leans on exactly that property.
//!
//! # Fast path (DESIGN.md §8)
//!
//! Scoring a candidate used to re-walk taxonomy ancestors and re-sum
//! brand/price rows (`score_with` → `item_rep_into`) per candidate per
//! query. The engine instead scores from two representation matrices built
//! once per retailer — [`ItemRepMatrix`] for the scored side and
//! [`CtxRepMatrix`] for the context side, materialized by
//! [`InferenceEngine::new`] or handed in through
//! [`InferenceEngine::from_reps`] — after which a query is one weighted
//! row-sum plus one flat [`dot`] per candidate, scored a block of
//! independent lanes at a time, and top-K is a bounded insertion instead
//! of a full sort. Results are bitwise-identical
//! to the per-candidate walks because every floating-point add happens in
//! the same order; the `*_reference` methods keep the original path alive
//! as an executable spec (`tests/infer_fastpath.rs` proves equivalence).
//!
//! Inference is read-only over the model, so [`InferenceEngine::materialize_all_threads`]
//! may fan out over disjoint item ranges and still produce byte-identical
//! output at any thread count — the opposite contract from Hogwild training,
//! which is deliberately racy.

use crate::candidates::{CandidateIndex, CandidateScratch, CandidateSelector, RepurchaseStats};
use crate::cooc::CoocModel;
use crate::model::{
    dot, dot_block, BprModel, ContextEvent, CtxRepMatrix, ItemRepMatrix, DOT_LANES,
};
use sigmund_types::{ActionType, Catalog, ItemId};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::sync::Arc;

/// Which recommendation surface to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecTask {
    /// Substitutes, shown before the purchase decision.
    ViewBased,
    /// Complements/accessories, shown after the purchase decision.
    PurchaseBased,
}

/// A scored recommendation list (best first).
pub type RecList = Vec<(ItemId, f32)>;

/// Materialized recommendations for one item.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ItemRecs {
    /// Substitute recommendations.
    pub view_based: RecList,
    /// Complement recommendations.
    pub purchase_based: RecList,
}

/// The recommendation-list ordering contract: finite scores first,
/// descending, ties broken by ascending [`ItemId`]; non-finite scores
/// (NaN/±∞ from a diverged model) sort after every finite score, ordered
/// among themselves by ascending id.
///
/// This is a total order (ids are unique), which is what makes bounded
/// top-K agree exactly with a full sort.
/// It also matches the `metrics::rank_of` invariant that non-finite scores
/// rank last — a diverged model must not surface garbage above real
/// recommendations.
pub fn rec_order(a: &(ItemId, f32), b: &(ItemId, f32)) -> Ordering {
    match (a.1.is_finite(), b.1.is_finite()) {
        (true, true) => {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal) // unreachable: both finite
                .then(a.0.cmp(&b.0))
        }
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.0.cmp(&b.0),
    }
}

/// Offers `cand` to `top`, the best `k >= 1` seen so far, sorted under
/// [`rec_order`]. Once `top` is full, a candidate that does not beat the
/// current k-th — almost every one — costs a single comparison. Because
/// `rec_order` is total, the survivors are exactly
/// `sort_by(rec_order); truncate(k)` of everything offered.
#[inline]
fn offer(top: &mut RecList, k: usize, cand: (ItemId, f32)) {
    if top.len() == k {
        if rec_order(&cand, &top[k - 1]) != Ordering::Less {
            return;
        }
        top.pop();
    }
    let at = top.partition_point(|kept| rec_order(kept, &cand) == Ordering::Less);
    top.insert(at, cand);
}

/// Reusable per-engine buffers: the seed path allocated `weights`, a rep
/// scratch row, a user vector and a catalog-sized dedup array on every
/// query.
struct Scratch {
    weights: Vec<f32>,
    user_vec: Vec<f32>,
    candidates: CandidateScratch,
}

impl Scratch {
    fn new(dim: usize) -> Self {
        Self {
            weights: Vec::new(),
            user_vec: vec![0.0; dim],
            candidates: CandidateScratch::default(),
        }
    }
}

/// Per-retailer inference engine. Borrows all the per-retailer artifacts.
///
/// The two representation matrices (`2 × n_items × dim × 4` bytes)
/// snapshot the model parameters: they — and so the engine — must be built
/// *after* training finishes, never from a model that is still being
/// updated.
pub struct InferenceEngine<'a> {
    model: &'a BprModel,
    catalog: &'a Catalog,
    index: &'a CandidateIndex,
    cooc: &'a CoocModel,
    repurchase: &'a RepurchaseStats,
    selector: CandidateSelector,
    /// Item-side representations, one flat row per catalog item.
    item_reps: Arc<ItemRepMatrix>,
    /// Context-side representations (user-vector construction).
    ctx_reps: Arc<CtxRepMatrix>,
    /// Candidates scored so far (cost accounting for the pipeline).
    scored: Cell<u64>,
    scratch: RefCell<Scratch>,
}

impl<'a> InferenceEngine<'a> {
    /// Creates an engine with the default selector, materializing the
    /// representation matrices.
    pub fn new(
        model: &'a BprModel,
        catalog: &'a Catalog,
        index: &'a CandidateIndex,
        cooc: &'a CoocModel,
        repurchase: &'a RepurchaseStats,
    ) -> Self {
        Self::from_reps(
            model,
            catalog,
            index,
            cooc,
            repurchase,
            Arc::new(model.materialize_item_reps(catalog)),
            Arc::new(model.materialize_context_reps(catalog)),
        )
    }

    /// Creates an engine with the default selector over representation
    /// matrices the caller materialized from `model` and `catalog`
    /// ([`BprModel::materialize_item_reps`],
    /// [`BprModel::materialize_context_reps`]) — so that many engines over
    /// one retailer, e.g. one per inference split, share one build.
    pub fn from_reps(
        model: &'a BprModel,
        catalog: &'a Catalog,
        index: &'a CandidateIndex,
        cooc: &'a CoocModel,
        repurchase: &'a RepurchaseStats,
        item_reps: Arc<ItemRepMatrix>,
        ctx_reps: Arc<CtxRepMatrix>,
    ) -> Self {
        assert_eq!(item_reps.len(), catalog.len(), "item reps / catalog");
        assert_eq!(ctx_reps.len(), catalog.len(), "context reps / catalog");
        Self {
            model,
            catalog,
            index,
            cooc,
            repurchase,
            selector: CandidateSelector::default(),
            item_reps,
            ctx_reps,
            scored: Cell::new(0),
            scratch: RefCell::new(Scratch::new(model.dim())),
        }
    }

    /// Replaces the candidate selector (for the T9 k-sweep experiment).
    pub fn with_selector(mut self, selector: CandidateSelector) -> Self {
        self.selector = selector;
        self
    }

    /// Total candidates scored since construction.
    pub fn candidates_scored(&self) -> u64 {
        self.scored.get()
    }

    /// A sibling engine sharing the (read-only) representation matrices but
    /// with its own scratch and scored counter — what each worker thread of
    /// [`InferenceEngine::map_items`] drives.
    fn fork(&self) -> InferenceEngine<'a> {
        InferenceEngine {
            model: self.model,
            catalog: self.catalog,
            index: self.index,
            cooc: self.cooc,
            repurchase: self.repurchase,
            selector: self.selector.clone(),
            item_reps: Arc::clone(&self.item_reps),
            ctx_reps: Arc::clone(&self.ctx_reps),
            scored: Cell::new(0),
            scratch: RefCell::new(Scratch::new(self.model.dim())),
        }
    }

    /// Top-`k` recommendations for a single-item context.
    pub fn recommend_for_item(&self, item: ItemId, task: RecTask, k: usize) -> RecList {
        let context = [single_item_context(item, task)];
        self.recommend(&context, item, task, k, &self.selector, false)
    }

    /// Top-`k` recommendations for an arbitrary user context (used at request
    /// time for contexts the offline tables don't cover).
    pub fn recommend_for_context(
        &self,
        context: &[ContextEvent],
        task: RecTask,
        k: usize,
    ) -> RecList {
        self.recommend_for_context_with(context, task, k, &self.selector, false)
    }

    /// Like [`InferenceEngine::recommend_for_context`], but with an explicit
    /// candidate selector and optional late-funnel facet constraint — the
    /// hook funnel-stage tailoring (`crate::funnel`) drives.
    pub fn recommend_for_context_with(
        &self,
        context: &[ContextEvent],
        task: RecTask,
        k: usize,
        selector: &crate::candidates::CandidateSelector,
        facet_constrained: bool,
    ) -> RecList {
        let Some(&(last_item, _)) = context.last() else {
            return RecList::new();
        };
        self.recommend(context, last_item, task, k, selector, facet_constrained)
    }

    /// The one production query path: select `anchor`'s candidates into the
    /// engine's scratch (no per-query allocation), optionally narrow them to
    /// its facet, and rank them against `context`.
    fn recommend(
        &self,
        context: &[ContextEvent],
        anchor: ItemId,
        task: RecTask,
        k: usize,
        selector: &CandidateSelector,
        facet_constrained: bool,
    ) -> RecList {
        let mut scratch = self.scratch.borrow_mut();
        let Scratch {
            weights,
            user_vec,
            candidates,
        } = &mut *scratch;
        match task {
            RecTask::ViewBased => {
                selector.view_based_into(self.catalog, self.index, self.cooc, anchor, candidates)
            }
            RecTask::PurchaseBased => selector.purchase_based_into(
                self.catalog,
                self.index,
                self.cooc,
                self.repurchase,
                anchor,
                candidates,
            ),
        }
        if facet_constrained {
            selector.constrain_to_facet(self.catalog, anchor, &mut candidates.out);
        }
        self.rank(context, &candidates.out, k, weights, user_vec)
    }

    /// Materializes both surfaces for every catalog item (single-threaded).
    pub fn materialize_all(&self, k: usize) -> Vec<ItemRecs> {
        self.materialize_all_threads(k, 1)
    }

    /// Materializes both surfaces for every catalog item using up to
    /// `threads` scoped worker threads over disjoint contiguous item ranges.
    ///
    /// Inference only reads the model, so the output is byte-identical for
    /// every thread count (DESIGN.md §8) — `tests/infer_fastpath.rs` holds
    /// this at 1, 2, and 4 threads against the reference path.
    pub fn materialize_all_threads(&self, k: usize, threads: usize) -> Vec<ItemRecs> {
        self.map_items(0..self.catalog.len() as u32, threads, |eng, item| {
            ItemRecs {
                view_based: eng.recommend_for_item(item, RecTask::ViewBased, k),
                purchase_based: eng.recommend_for_item(item, RecTask::PurchaseBased, k),
            }
        })
    }

    /// Runs `f` over every item id in `range` and collects the results in
    /// item order, fanning out over at most `threads` scoped threads.
    ///
    /// The range is cut into `threads` contiguous chunks (sizes differing by
    /// at most one); each worker drives a [`InferenceEngine::fork`] of this
    /// engine, and chunk outputs are stitched back in range order, so the
    /// result is identical to the sequential map for any thread count as
    /// long as `f` is pure (it only gets shared `&` state, which inference
    /// never mutates). Workers' scored counts fold back into this engine.
    pub fn map_items<T, F>(&self, range: std::ops::Range<u32>, threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&InferenceEngine<'a>, ItemId) -> T + Sync,
    {
        let n = range.len();
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            return range.map(|i| f(self, ItemId(i))).collect();
        }
        let base = (n / threads) as u32;
        let rem = n % threads;
        let mut bounds = Vec::with_capacity(threads + 1);
        let mut edge = range.start;
        bounds.push(edge);
        for t in 0..threads {
            edge += base + u32::from(t < rem);
            bounds.push(edge);
        }
        let mut out = Vec::with_capacity(n);
        let mut forked_scored = 0u64;
        std::thread::scope(|s| {
            let handles: Vec<_> = bounds
                .windows(2)
                .map(|w| {
                    let (lo, hi) = (w[0], w[1]);
                    let eng = self.fork();
                    let f = &f;
                    s.spawn(move || {
                        let part: Vec<T> = (lo..hi).map(|i| f(&eng, ItemId(i))).collect();
                        (part, eng.candidates_scored())
                    })
                })
                .collect();
            for h in handles {
                // A worker panic is a test-assertion or logic bug; surface
                // it on the caller thread instead of swallowing it.
                let (part, scored) = match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                out.extend(part);
                forked_scored += scored;
            }
        });
        self.scored.set(self.scored.get() + forked_scored);
        out
    }

    /// Scores `candidates` against `context` and keeps the top `k`:
    /// prematerialized user vector, then [`DOT_LANES`] candidates per
    /// [`dot_block`] (the remainder through [`dot`]; every score is the
    /// bits `dot` gives), each offered to a bounded top-K under
    /// [`rec_order`]. `weights` and `user_vec` are clobbered.
    fn rank(
        &self,
        context: &[ContextEvent],
        candidates: &[ItemId],
        k: usize,
        weights: &mut Vec<f32>,
        user_vec: &mut [f32],
    ) -> RecList {
        if candidates.is_empty() || k == 0 {
            return RecList::new();
        }
        self.model
            .user_embedding_from_reps(&self.ctx_reps, context, weights, user_vec);
        let mut top = RecList::with_capacity(k.min(candidates.len()));
        let (blocks, rest) = candidates.as_chunks::<DOT_LANES>();
        for block in blocks {
            let scores = dot_block(user_vec, block.map(|c| self.item_reps.rep(c)));
            for (&c, score) in block.iter().zip(scores) {
                offer(&mut top, k, (c, score));
            }
        }
        for &c in rest {
            offer(&mut top, k, (c, dot(user_vec, self.item_reps.rep(c))));
        }
        self.scored.set(self.scored.get() + candidates.len() as u64);
        top
    }

    /// Candidate selection as the reference path runs it: a fresh list (and
    /// seen-set) per query, through the selector's allocating wrappers.
    fn candidates_for(
        &self,
        item: ItemId,
        task: RecTask,
        selector: &CandidateSelector,
    ) -> Vec<ItemId> {
        match task {
            RecTask::ViewBased => selector.view_based(self.catalog, self.index, self.cooc, item),
            RecTask::PurchaseBased => {
                selector.purchase_based(self.catalog, self.index, self.cooc, self.repurchase, item)
            }
        }
    }

    // --- reference (seed) scoring path -----------------------------------
    //
    // The pre-fast-path implementation, kept as the executable spec the
    // fast path is tested against (and as the Criterion/BENCH_infer slow
    // baseline): fresh buffers per call, per-candidate `score_with` rep
    // walks, full sort. Does not advance the candidates-scored counter so
    // pipeline cost accounting only ever counts the production path.

    /// Reference implementation of [`InferenceEngine::recommend_for_item`]
    /// (per-candidate representation walks + full sort).
    pub fn recommend_for_item_reference(&self, item: ItemId, task: RecTask, k: usize) -> RecList {
        let candidates = self.candidates_for(item, task, &self.selector);
        let context = [single_item_context(item, task)];
        self.rank_reference(&context, &candidates, k)
    }

    /// Reference implementation of [`InferenceEngine::recommend_for_context`].
    pub fn recommend_for_context_reference(
        &self,
        context: &[ContextEvent],
        task: RecTask,
        k: usize,
    ) -> RecList {
        let Some(&(last_item, _)) = context.last() else {
            return RecList::new();
        };
        let candidates = self.candidates_for(last_item, task, &self.selector);
        self.rank_reference(context, &candidates, k)
    }

    /// Reference implementation of [`InferenceEngine::materialize_all`].
    pub fn materialize_all_reference(&self, k: usize) -> Vec<ItemRecs> {
        self.catalog
            .item_ids()
            .map(|item| ItemRecs {
                view_based: self.recommend_for_item_reference(item, RecTask::ViewBased, k),
                purchase_based: self.recommend_for_item_reference(item, RecTask::PurchaseBased, k),
            })
            .collect()
    }

    fn rank_reference(&self, context: &[ContextEvent], candidates: &[ItemId], k: usize) -> RecList {
        if candidates.is_empty() || k == 0 {
            return RecList::new();
        }
        let f = self.model.dim();
        let mut weights = Vec::new();
        let mut scratch = vec![0.0f32; f];
        let mut user_vec = vec![0.0f32; f];
        self.model.user_embedding_into(
            self.catalog,
            context,
            &mut weights,
            &mut scratch,
            &mut user_vec,
        );
        let mut scored: Vec<(ItemId, f32)> = candidates
            .iter()
            .map(|&c| {
                (
                    c,
                    self.model
                        .score_with(self.catalog, &user_vec, c, &mut scratch),
                )
            })
            .collect();
        scored.sort_by(rec_order);
        scored.truncate(k);
        scored
    }
}

fn single_item_context(item: ItemId, task: RecTask) -> ContextEvent {
    (
        item,
        match task {
            RecTask::ViewBased => ActionType::View,
            RecTask::PurchaseBased => ActionType::Conversion,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooc::CoocConfig;
    use sigmund_types::{HyperParams, Interaction, ItemMeta, RetailerId, Taxonomy, UserId};

    fn setup() -> (Catalog, CoocModel, CandidateIndex, RepurchaseStats) {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let b = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(0), t);
        for i in 0..8 {
            c.add_item(ItemMeta::bare(if i < 4 { a } else { b }));
        }
        let mut evs = Vec::new();
        for u in 0..4u32 {
            evs.push(Interaction::new(UserId(u), ItemId(0), ActionType::View, 0));
            evs.push(Interaction::new(UserId(u), ItemId(1), ActionType::View, 1));
            evs.push(Interaction::new(
                UserId(u),
                ItemId(0),
                ActionType::Conversion,
                2,
            ));
            evs.push(Interaction::new(
                UserId(u),
                ItemId(5),
                ActionType::Conversion,
                3,
            ));
        }
        let cooc = CoocModel::build(8, &evs, CoocConfig::default());
        let index = CandidateIndex::build(&c);
        let rep = RepurchaseStats::estimate(&c, &evs, 0.5);
        (c, cooc, index, rep)
    }

    fn model(c: &Catalog) -> BprModel {
        BprModel::init(
            c,
            HyperParams {
                factors: 4,
                ..Default::default()
            },
        )
    }

    fn bits(recs: &RecList) -> Vec<(u32, u32)> {
        recs.iter().map(|(i, s)| (i.0, s.to_bits())).collect()
    }

    /// `rank` over an explicit candidate list, on the engine's own scratch.
    fn rank(
        eng: &InferenceEngine<'_>,
        ctx: &[ContextEvent],
        candidates: &[ItemId],
        k: usize,
    ) -> RecList {
        let mut scratch = eng.scratch.borrow_mut();
        let Scratch {
            weights, user_vec, ..
        } = &mut *scratch;
        eng.rank(ctx, candidates, k, weights, user_vec)
    }

    #[test]
    fn view_based_returns_ranked_substitutes() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let recs = eng.recommend_for_item(ItemId(0), RecTask::ViewBased, 3);
        assert!(!recs.is_empty());
        assert!(recs.len() <= 3);
        // Never recommends the query item; scores are descending.
        assert!(recs.iter().all(|(i, _)| *i != ItemId(0)));
        for w in recs.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn purchase_based_excludes_own_category() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let recs = eng.recommend_for_item(ItemId(0), RecTask::PurchaseBased, 5);
        // cb(0) = {5} in category b; lca1(0) = category a removed.
        assert!(recs.iter().all(|(i, _)| i.0 >= 4), "{recs:?}");
    }

    #[test]
    fn materialize_covers_all_items() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let all = eng.materialize_all(4);
        assert_eq!(all.len(), 8);
        assert!(eng.candidates_scored() > 0);
    }

    #[test]
    fn empty_context_returns_nothing() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        assert!(eng
            .recommend_for_context(&[], RecTask::ViewBased, 5)
            .is_empty());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        assert!(eng
            .recommend_for_item(ItemId(0), RecTask::ViewBased, 0)
            .is_empty());
    }

    #[test]
    fn context_recommendation_uses_last_item() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let ctx = vec![(ItemId(5), ActionType::View), (ItemId(0), ActionType::View)];
        let recs = eng.recommend_for_context(&ctx, RecTask::ViewBased, 3);
        // Candidates derive from item 0 (the last context event).
        assert!(recs.iter().all(|(i, _)| *i != ItemId(0)));
    }

    #[test]
    fn fast_path_matches_reference_bitwise() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let ctx = vec![
            (ItemId(2), ActionType::View),
            (ItemId(5), ActionType::Conversion),
            (ItemId(0), ActionType::View),
        ];
        for k in [0usize, 1, 3, 8, 13] {
            for task in [RecTask::ViewBased, RecTask::PurchaseBased] {
                for item in c.item_ids() {
                    assert_eq!(
                        bits(&eng.recommend_for_item(item, task, k)),
                        bits(&eng.recommend_for_item_reference(item, task, k)),
                        "item {item:?} task {task:?} k {k}"
                    );
                }
                assert_eq!(
                    bits(&eng.recommend_for_context(&ctx, task, k)),
                    bits(&eng.recommend_for_context_reference(&ctx, task, k)),
                    "context task {task:?} k {k}"
                );
            }
        }
    }

    #[test]
    fn non_finite_scores_rank_last() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        // A diverged model: poison three items' embeddings so their scores
        // come out NaN / ±∞. The seed comparator let these interleave
        // arbitrarily; the contract now pins them after every finite score.
        for d in 0..4 {
            m.item_emb.row(1)[d].store(f32::NAN);
            m.item_emb.row(2)[d].store(f32::INFINITY);
            m.item_emb.row(3)[d].store(f32::NEG_INFINITY);
        }
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let ctx = [(ItemId(0), ActionType::View)];
        let candidates: Vec<ItemId> = (1..8).map(ItemId).collect();
        let recs = rank(&eng, &ctx, &candidates, candidates.len());
        assert_eq!(recs.len(), 7);
        let finite: Vec<u32> = recs
            .iter()
            .filter(|(_, s)| s.is_finite())
            .map(|(i, _)| i.0)
            .collect();
        let tail: Vec<u32> = recs.iter().rev().take(3).rev().map(|(i, _)| i.0).collect();
        assert_eq!(finite.len(), 4, "{recs:?}");
        assert_eq!(tail, vec![1, 2, 3], "non-finite last, by id: {recs:?}");
        // The bounded selection agrees with the reference full sort, both
        // for the full list and under truncation through the class border.
        for k in [1usize, 4, 5, 7] {
            assert_eq!(
                bits(&rank(&eng, &ctx, &candidates, k)),
                bits(&eng.rank_reference(&ctx, &candidates, k)),
                "k {k}"
            );
        }
    }

    #[test]
    fn threaded_materialize_is_byte_identical() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let single = eng.materialize_all(4);
        let scored_single = eng.candidates_scored();
        for threads in [2usize, 3, 4, 16] {
            let eng2 = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
            let multi = eng2.materialize_all_threads(4, threads);
            assert_eq!(single.len(), multi.len());
            for (a, b) in single.iter().zip(multi.iter()) {
                assert_eq!(bits(&a.view_based), bits(&b.view_based));
                assert_eq!(bits(&a.purchase_based), bits(&b.purchase_based));
            }
            // Workers' scored counts fold back into the parent engine.
            assert_eq!(eng2.candidates_scored(), scored_single);
        }
    }

    #[test]
    fn map_items_preserves_range_order() {
        let (c, cooc, index, rep) = setup();
        let m = model(&c);
        let eng = InferenceEngine::new(&m, &c, &index, &cooc, &rep);
        let ids = eng.map_items(2..7, 3, |_, item| item.0);
        assert_eq!(ids, vec![2, 3, 4, 5, 6]);
        assert!(eng.map_items(5..5, 4, |_, item| item.0).is_empty());
    }

    #[test]
    fn rec_order_is_a_total_order_over_mixed_scores() {
        // Transitivity smoke over every pair/triple of a mixed-class set —
        // the seed comparator failed this (NaN interleaved via `Equal`).
        let xs = [
            (ItemId(0), 2.0f32),
            (ItemId(1), 2.0),
            (ItemId(2), -1.0),
            (ItemId(3), f32::NAN),
            (ItemId(4), f32::INFINITY),
            (ItemId(5), f32::NEG_INFINITY),
        ];
        for a in &xs {
            assert_eq!(rec_order(a, a), Ordering::Equal);
            for b in &xs {
                if a.0 != b.0 {
                    assert_eq!(rec_order(a, b), rec_order(b, a).reverse());
                }
                for c in &xs {
                    if rec_order(a, b) != Ordering::Greater && rec_order(b, c) != Ordering::Greater
                    {
                        assert_ne!(rec_order(a, c), Ordering::Greater, "{a:?} {b:?} {c:?}");
                    }
                }
            }
        }
    }
}
