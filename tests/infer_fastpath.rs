// Experiment / test / example code may unwrap freely; the workspace-level
// clippy panic lints target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Property-style equivalence suite for the inference fast path (DESIGN.md
//! §8): the rep-matrix + block-of-lanes dots + bounded-top-K + (optionally
//! threaded) fast path must be **bitwise identical** to the seed
//! per-candidate-walk reference path across feature-switch combinations,
//! degenerate and oversized `k`, tie-heavy models, candidate-set lengths
//! on every side of a lane block, non-finite scores in every lane, and any
//! inference thread count.

use sigmund_core::prelude::*;
use sigmund_datagen::RetailerSpec;
use sigmund_types::*;

/// One rec list collapsed to `(item id, score bits)` pairs.
type ListBits = Vec<(u32, u32)>;

/// Collapse a materialized run to comparable bits: f32 scores are compared
/// via `to_bits`, so "equal" here means bit-for-bit, not approximately.
fn bits(recs: &[ItemRecs]) -> Vec<(ListBits, ListBits)> {
    recs.iter()
        .map(|r| {
            (
                r.view_based
                    .iter()
                    .map(|(i, s)| (i.0, s.to_bits()))
                    .collect(),
                r.purchase_based
                    .iter()
                    .map(|(i, s)| (i.0, s.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

fn feature_combos() -> Vec<(&'static str, FeatureSwitches)> {
    vec![
        ("none", FeatureSwitches::NONE),
        ("all", FeatureSwitches::ALL),
        (
            "taxonomy-only",
            FeatureSwitches {
                use_taxonomy: true,
                use_brand: false,
                use_price: false,
            },
        ),
        (
            "brand-only",
            FeatureSwitches {
                use_taxonomy: false,
                use_brand: true,
                use_price: false,
            },
        ),
        (
            "price-only",
            FeatureSwitches {
                use_taxonomy: false,
                use_brand: false,
                use_price: true,
            },
        ),
    ]
}

struct Fixture {
    data: sigmund_datagen::RetailerData,
    model: BprModel,
    cooc: CoocModel,
    index: CandidateIndex,
    rep: RepurchaseStats,
}

fn fixture(features: FeatureSwitches, init_std: f32) -> Fixture {
    fixture_sized(60, 80, features, init_std)
}

fn fixture_sized(
    n_items: usize,
    n_users: usize,
    features: FeatureSwitches,
    init_std: f32,
) -> Fixture {
    let data = RetailerSpec::sized(RetailerId(0), n_items, n_users, 10).generate();
    let hp = HyperParams {
        factors: 8,
        features,
        init_std,
        ..Default::default()
    };
    let model = BprModel::init(&data.catalog, hp);
    let cooc = CoocModel::build(data.catalog.len(), &data.events, CoocConfig::default());
    let index = CandidateIndex::build(&data.catalog);
    let rep = RepurchaseStats::estimate(&data.catalog, &data.events, 0.3);
    Fixture {
        data,
        model,
        cooc,
        index,
        rep,
    }
}

impl Fixture {
    fn engine(&self) -> InferenceEngine<'_> {
        InferenceEngine::new(
            &self.model,
            &self.data.catalog,
            &self.index,
            &self.cooc,
            &self.rep,
        )
    }

    /// An engine whose candidate sets stop at `max_candidates`.
    fn capped_engine(&self, max_candidates: usize) -> InferenceEngine<'_> {
        self.engine().with_selector(capped(max_candidates))
    }

    /// The longest candidate set (either surface) under `selector`.
    fn longest_candidate_set(&self, selector: &CandidateSelector) -> usize {
        let c = &self.data.catalog;
        c.item_ids()
            .map(|item| {
                let view = selector.view_based(c, &self.index, &self.cooc, item);
                let purchase = selector.purchase_based(c, &self.index, &self.cooc, &self.rep, item);
                view.len().max(purchase.len())
            })
            .max()
            .unwrap_or(0)
    }
}

fn capped(max_candidates: usize) -> CandidateSelector {
    CandidateSelector {
        max_candidates,
        ..Default::default()
    }
}

/// The fast path at 1, 2 and 4 threads against the reference, bit for bit.
fn assert_matches_reference(engine: &InferenceEngine<'_>, k: usize, what: &str) {
    let reference = bits(&engine.materialize_all_reference(k));
    for threads in [1usize, 2, 4] {
        assert_eq!(
            bits(&engine.materialize_all_threads(k, threads)),
            reference,
            "{what} k={k} threads={threads}: fast path diverged"
        );
    }
}

/// The lane count of the block kernel is private to `sigmund-core`; these
/// tests cover every candidate-set length (and lane position) up to
/// `MAX_LEN`, which takes in every `len % B` for any `B <= 20` twice over.
const MAX_LEN: usize = 40;

/// The tentpole equivalence property: for every feature combination and for
/// degenerate (0), tiny (1), exact-catalog, and oversized `k`, the fast path
/// reproduces the reference path bit for bit — including under threading.
#[test]
fn fast_path_is_bitwise_identical_to_reference_across_features_and_k() {
    for (name, features) in feature_combos() {
        let fx = fixture(features, 0.1);
        let n = fx.data.catalog.len();
        let engine = fx.engine();
        for k in [0usize, 1, n, n + 5] {
            assert_matches_reference(&engine, k, &format!("features={name}"));
        }
    }
}

/// Candidate sets cut by the `max_candidates` cap at every length
/// `0..=MAX_LEN` — shorter than a lane block, exact multiples of it, and
/// every remainder — each ranked with `k` of 0, 1, the list length, and
/// past it.
#[test]
fn capped_candidate_sets_cover_every_block_remainder() {
    let fx = fixture_sized(300, 200, FeatureSwitches::ALL, 0.1);
    for cap in 0..=MAX_LEN {
        assert_eq!(
            fx.longest_candidate_set(&capped(cap)),
            cap,
            "no candidate set reaches the cap"
        );
        let engine = fx.capped_engine(cap);
        for k in [0usize, 1, cap, cap + 5] {
            assert_matches_reference(&engine, k, &format!("cap={cap}"));
        }
    }
}

/// A diverged model: one candidate each scoring NaN, +∞ and −∞, walked
/// through every position of the first query's candidate list — so through
/// every lane of a block — and, for the other queries, wherever their own
/// lists put those three items. `rec_order` ranks them last; both paths
/// must agree on the bits.
#[test]
fn non_finite_scores_in_every_lane_match_reference() {
    // No side features: an item's rep is its embedding row, so a poisoned
    // row is a poisoned score. Context rows are set to a positive constant
    // so every user vector is positive and ±∞ rows score ±∞ (not NaN).
    let fx = fixture_sized(300, 200, FeatureSwitches::NONE, 0.1);
    let catalog = &fx.data.catalog;
    let selector = CandidateSelector::default();
    let (query, list) = catalog
        .item_ids()
        .map(|i| (i, selector.view_based(catalog, &fx.index, &fx.cooc, i)))
        .max_by_key(|(_, list)| list.len())
        .unwrap();
    assert!(list.len() >= MAX_LEN, "fixture too small: {}", list.len());
    let clean = ModelSnapshot::capture(&fx.model);
    let dim = clean.hp.factors as usize;
    for lane in 0..MAX_LEN {
        let mut snap = clean.clone();
        snap.tables[1].data.fill(0.5);
        for (offset, poison) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let row = list[(lane + offset) % list.len()].index();
            snap.tables[0].data[row * dim..(row + 1) * dim].fill(poison);
        }
        let model = snap.restore(catalog, 0).unwrap();
        let engine = InferenceEngine::new(&model, catalog, &fx.index, &fx.cooc, &fx.rep);
        let scores: Vec<f32> = engine
            .recommend_for_item(query, RecTask::ViewBased, list.len())
            .iter()
            .rev()
            .take(3)
            .map(|(_, s)| *s)
            .collect();
        assert!(
            scores.iter().any(|s| s.is_nan())
                && scores.contains(&f32::INFINITY)
                && scores.contains(&f32::NEG_INFINITY),
            "lane {lane}: the three poisoned items rank last: {scores:?}"
        );
        for k in [1usize, 10, list.len(), list.len() + 5] {
            assert_matches_reference(&engine, k, &format!("lane={lane}"));
        }
    }
}

/// Tie-heavy stress: with `init_std: 0.0` every embedding is all-zero, so
/// every candidate scores exactly 0.0 and ordering is decided purely by the
/// ItemId-ascending tiebreak — for any `k` below the list length the tie
/// straddles the k-th position. The fast path's bounded insertion must
/// agree with the reference full sort even when *everything* ties, with
/// list lengths on both sides of a lane block.
#[test]
fn all_zero_model_ties_resolve_identically() {
    let fx = fixture_sized(300, 200, FeatureSwitches::ALL, 0.0);
    for cap in [MAX_LEN - 3, MAX_LEN] {
        let engine = fx.capped_engine(cap);
        for k in [1usize, 5, 10, cap] {
            assert_matches_reference(&engine, k, &format!("all-zero cap={cap}"));
        }
    }
    let engine = fx.engine();
    for k in [1usize, 5, 10, fx.data.catalog.len()] {
        assert_matches_reference(&engine, k, "all-zero");
        // Every returned list must be ItemId-ascending (all scores tie).
        for recs in &engine.materialize_all(k) {
            for list in [&recs.view_based, &recs.purchase_based] {
                assert!(list.iter().all(|(_, s)| s.to_bits() == 0.0f32.to_bits()));
                assert!(list.windows(2).all(|w| w[0].0 < w[1].0));
            }
        }
    }
}

/// Context-driven queries go through the same fast path; check them too,
/// with contexts shorter and longer than the trailing window.
#[test]
fn context_queries_match_reference_bitwise() {
    let fx = fixture(FeatureSwitches::ALL, 0.1);
    let engine = fx.engine();
    let long_ctx: Vec<(ItemId, ActionType)> = (0..30)
        .map(|i| {
            (
                ItemId(i % fx.data.catalog.len() as u32),
                if i % 3 == 0 {
                    ActionType::Conversion
                } else {
                    ActionType::View
                },
            )
        })
        .collect();
    let contexts: Vec<&[(ItemId, ActionType)]> = vec![
        &long_ctx[..1],
        &long_ctx[..7],
        &long_ctx[..], // longer than the 25-event trailing window
    ];
    for ctx in contexts {
        for task in [RecTask::ViewBased, RecTask::PurchaseBased] {
            for k in [1usize, 10] {
                let fast = engine.recommend_for_context(ctx, task, k);
                let reference = engine.recommend_for_context_reference(ctx, task, k);
                let fb: Vec<(u32, u32)> = fast.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
                let rb: Vec<(u32, u32)> =
                    reference.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
                assert_eq!(fb, rb, "ctx_len={} task={task:?} k={k}", ctx.len());
            }
        }
    }
}

/// Single-item queries (the serving-store miss path) run through the same
/// equivalence contract: `recommend_for_item` must reproduce
/// `recommend_for_item_reference` bit for bit on every item, task, and `k`.
#[test]
fn single_item_queries_match_reference_bitwise() {
    let fx = fixture(FeatureSwitches::ALL, 0.1);
    let engine = fx.engine();
    let n = fx.data.catalog.len();
    for item in (0..n as u32).map(ItemId) {
        for task in [RecTask::ViewBased, RecTask::PurchaseBased] {
            for k in [1usize, 10, n + 5] {
                let fast = engine.recommend_for_item(item, task, k);
                let reference = engine.recommend_for_item_reference(item, task, k);
                let fb: Vec<(u32, u32)> = fast.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
                let rb: Vec<(u32, u32)> =
                    reference.iter().map(|(i, s)| (i.0, s.to_bits())).collect();
                assert_eq!(fb, rb, "item={item} task={task:?} k={k}");
            }
        }
    }
}
