// Experiment / test / example code may unwrap freely; the workspace-level
// clippy panic lints target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! Property-based tests (proptest) over the core data structures and
//! invariants of the workspace.

use proptest::prelude::*;
use sigmund_core::inference::rec_order;
use sigmund_core::prelude::*;
use sigmund_mapreduce::{chunk_evenly, chunk_weighted, permute, BackoffPolicy};
use sigmund_pipeline::journal::{DayManifest, Phase};
use sigmund_pipeline::{max_bin_load, partition_greedy, Weighted};
use sigmund_types::*;
use std::cmp::Ordering;

/// Maps a generated `(class, magnitude)` pair onto a score, covering the
/// full non-finite surface `rec_order` must totally order.
fn score_of(class: u8, magnitude: u32) -> f32 {
    match class % 6 {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        _ => (magnitude as f32 - 25.0) / 3.0,
    }
}

/// Builds a random taxonomy from a sequence of parent picks.
fn taxonomy_from(parents: &[usize]) -> Taxonomy {
    let mut t = Taxonomy::new();
    for &p in parents {
        let existing = t.len();
        t.add_child(CategoryId::from_index(p % existing));
    }
    t
}

proptest! {
    #[test]
    fn lca_distance_is_symmetric_and_positive(
        parents in prop::collection::vec(0usize..50, 1..40),
        a in 0usize..40,
        b in 0usize..40,
    ) {
        let t = taxonomy_from(&parents);
        let a = CategoryId::from_index(a % t.len());
        let b = CategoryId::from_index(b % t.len());
        let d_ab = t.lca_distance(a, b);
        let d_ba = t.lca_distance(b, a);
        prop_assert_eq!(d_ab, d_ba);
        // Items hang one level below their category: distance ≥ 1 always.
        prop_assert!(d_ab >= 1);
        // Same category ⇒ distance exactly 1.
        prop_assert_eq!(t.lca_distance(a, a), t.depth(a) - t.depth(t.lca(a, a)) + 1);
    }

    #[test]
    fn lca_is_a_common_ancestor(
        parents in prop::collection::vec(0usize..50, 1..40),
        a in 0usize..40,
        b in 0usize..40,
    ) {
        let t = taxonomy_from(&parents);
        let a = CategoryId::from_index(a % t.len());
        let b = CategoryId::from_index(b % t.len());
        let l = t.lca(a, b);
        prop_assert!(t.ancestors(a).any(|c| c == l));
        prop_assert!(t.ancestors(b).any(|c| c == l));
    }

    #[test]
    fn event_codec_round_trips(
        raw in prop::collection::vec((0u32..1000, 0u32..1000, 0u8..4, 0u64..1_000_000), 0..200)
    ) {
        let events: Vec<Interaction> = raw.iter().map(|&(u, i, a, w)| {
            let action = match a {
                0 => ActionType::View,
                1 => ActionType::Search,
                2 => ActionType::Cart,
                _ => ActionType::Conversion,
            };
            Interaction::new(UserId(u), ItemId(i), action, w)
        }).collect();
        let bytes = sigmund_pipeline::data::encode_events(&events);
        let back = sigmund_pipeline::data::decode_events(&bytes).unwrap();
        prop_assert_eq!(back, events);
    }

    #[test]
    fn model_snapshot_round_trips(
        n_items in 1usize..30,
        factors in 1u32..12,
        seed in 0u64..1000,
    ) {
        let mut t = Taxonomy::new();
        let c = t.add_child(t.root());
        let mut catalog = Catalog::new(RetailerId(0), t);
        for _ in 0..n_items {
            catalog.add_item(ItemMeta::bare(c));
        }
        let hp = HyperParams { factors, init_seed: seed, ..Default::default() };
        let m = BprModel::init(&catalog, hp);
        let snap = ModelSnapshot::capture(&m);
        let back = ModelSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        prop_assert_eq!(&back, &snap);
        let restored = back.restore(&catalog, 0).unwrap();
        prop_assert_eq!(restored.n_items(), n_items);
    }

    #[test]
    fn holdout_split_conserves_events(
        raw in prop::collection::vec((0u32..20, 0u32..50, 0u64..10_000), 0..300)
    ) {
        let events: Vec<Interaction> = raw.iter()
            .map(|&(u, i, w)| Interaction::new(UserId(u), ItemId(i), ActionType::View, w))
            .collect();
        let n = events.len();
        let ds = Dataset::build(50, events, true);
        // Hold-out removes at least one event per example (all the user's
        // events of the held-out item) and never invents events.
        prop_assert!(ds.train.len() + ds.holdout.len() <= n);
        prop_assert!(ds.train.len() + ds.holdout.len() >= n.saturating_sub(n));
        // At most one hold-out per user, and the positive is genuinely
        // unseen for that user in training.
        let mut users: Vec<u32> = ds.holdout.iter().map(|h| h.user.0).collect();
        users.sort_unstable();
        let before = users.len();
        users.dedup();
        prop_assert_eq!(users.len(), before, "at most one hold-out per user");
        for h in &ds.holdout {
            prop_assert!(!ds.is_seen(h.user, h.positive));
            prop_assert!(!h.context.is_empty());
        }
    }

    #[test]
    fn training_never_produces_nonfinite_loss(
        seed in 0u64..100,
        factors in 2u32..10,
        lr in 0.001f32..0.5,
    ) {
        let mut t = Taxonomy::new();
        let c = t.add_child(t.root());
        let mut catalog = Catalog::new(RetailerId(0), t);
        for _ in 0..12 {
            catalog.add_item(ItemMeta::bare(c));
        }
        let mut events = Vec::new();
        for u in 0..6u32 {
            for s in 0..4u64 {
                events.push(Interaction::new(
                    UserId(u),
                    ItemId(((u as u64 + s * 5) % 12) as u32),
                    ActionType::View,
                    s,
                ));
            }
        }
        let ds = Dataset::build(12, events, false);
        let hp = HyperParams { factors, learning_rate: lr, init_seed: seed, ..Default::default() };
        let m = BprModel::init(&catalog, hp.clone());
        let sampler = NegativeSampler::new(hp.negative_sampler, &catalog, None);
        let stats = train(&m, &catalog, &ds, &sampler, TrainOptions {
            epochs: 3, threads: 1, seed,
        });
        for s in &stats {
            prop_assert!(s.mean_loss.is_finite());
            prop_assert!(s.mean_loss >= 0.0);
        }
    }

    #[test]
    fn greedy_binpack_is_near_optimal(
        weights in prop::collection::vec(1.0f64..100.0, 1..60),
        n_bins in 1usize..8,
    ) {
        let items: Vec<Weighted<usize>> = weights.iter().enumerate()
            .map(|(i, &w)| Weighted { item: i, weight: w })
            .collect();
        let bins = partition_greedy(&items, n_bins);
        let load = max_bin_load(&bins);
        let total: f64 = weights.iter().sum();
        let biggest = weights.iter().cloned().fold(0.0, f64::max);
        let lower = (total / n_bins as f64).max(biggest);
        // Sanity: never below the trivial lower bound…
        prop_assert!(load >= lower - 1e-9);
        // …and within the provable list-scheduling guarantee
        // (makespan ≤ total/m + (1 − 1/m)·max ≤ total/m + max).
        prop_assert!(load <= total / n_bins as f64 + biggest + 1e-9,
            "load {} vs guarantee {}", load, total / n_bins as f64 + biggest);
        // Everything placed exactly once.
        let placed: usize = bins.iter().map(|b| b.len()).sum();
        prop_assert_eq!(placed, weights.len());
    }

    #[test]
    fn chunking_partitions_the_input(
        items in prop::collection::vec(0u32..1000, 0..100),
        n in 1usize..10,
        seed in 0u64..50,
    ) {
        let chunks = chunk_evenly(&items, n);
        prop_assert_eq!(chunks.concat(), items.clone());
        let weighted = chunk_weighted(&items, n, |x| *x as f64 + 1.0);
        prop_assert_eq!(weighted.concat(), items.clone());
        // Permutation preserves the multiset.
        let mut p = permute(&items, seed);
        let mut orig = items.clone();
        p.sort_unstable();
        orig.sort_unstable();
        prop_assert_eq!(p, orig);
    }

    #[test]
    fn metrics_stay_in_unit_interval(
        seed in 0u64..50,
        sample in prop::option::of(0.05f64..1.0),
    ) {
        let mut t = Taxonomy::new();
        let c = t.add_child(t.root());
        let mut catalog = Catalog::new(RetailerId(0), t);
        for _ in 0..20 {
            catalog.add_item(ItemMeta::bare(c));
        }
        let mut events = Vec::new();
        for u in 0..10u32 {
            for s in 0..5u64 {
                events.push(Interaction::new(
                    UserId(u),
                    ItemId(((u as u64 * 3 + s * 7) % 20) as u32),
                    ActionType::View,
                    s,
                ));
            }
        }
        let ds = Dataset::build(20, events, true);
        let hp = HyperParams { factors: 4, init_seed: seed, ..Default::default() };
        let m = BprModel::init(&catalog, hp);
        let metrics = evaluate(&m, &catalog, &ds, EvalConfig {
            k: 10,
            sample_fraction: sample,
            seed,
        });
        for v in [metrics.map_at_10, metrics.auc, metrics.precision_at_10,
                  metrics.recall_at_10, metrics.ndcg_at_10] {
            prop_assert!((0.0..=1.0).contains(&v), "metric {} out of range", v);
        }
        prop_assert_eq!(metrics.map_sampled, sample.is_some());
    }

    #[test]
    fn zipf_sampler_stays_in_range(
        n in 1usize..500,
        s in 0.0f64..2.5,
        seed in 0u64..100,
    ) {
        use rand::SeedableRng;
        let z = sigmund_datagen::ZipfSampler::new(n, s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    #[test]
    fn funnel_classifier_is_total_and_consistent(
        parents in prop::collection::vec(0usize..20, 1..15),
        raw_ctx in prop::collection::vec((0u32..40, 0u8..4), 0..30),
    ) {
        let t = taxonomy_from(&parents);
        let leaves: Vec<CategoryId> = (0..t.len()).map(CategoryId::from_index).collect();
        let mut catalog = Catalog::new(RetailerId(0), t);
        for i in 0..40u32 {
            catalog.add_item(ItemMeta::bare(leaves[i as usize % leaves.len()]));
        }
        let ctx: Vec<ContextEvent> = raw_ctx.iter().map(|&(i, a)| {
            (ItemId(i), match a {
                0 => ActionType::View,
                1 => ActionType::Search,
                2 => ActionType::Cart,
                _ => ActionType::Conversion,
            })
        }).collect();
        let stage = sigmund_core::funnel::classify(&catalog, &ctx);
        // Total (no panic) and consistent with the last action.
        match ctx.last() {
            None => prop_assert_eq!(stage, sigmund_core::funnel::FunnelStage::Browsing),
            Some((_, a)) if *a >= ActionType::Cart => {
                prop_assert_eq!(stage, sigmund_core::funnel::FunnelStage::Accessorizing)
            }
            Some(_) => prop_assert!(stage != sigmund_core::funnel::FunnelStage::Accessorizing),
        }
    }

    #[test]
    fn platt_probabilities_are_bounded_and_monotone(
        pos in prop::collection::vec(-5.0f32..5.0, 1..40),
        neg in prop::collection::vec(-5.0f32..5.0, 1..40),
        query in prop::collection::vec(-10.0f32..10.0, 2..10),
    ) {
        let sc = PlattScaler::fit(&pos, &neg);
        let mut sorted = query.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let probs: Vec<f64> = sorted.iter().map(|&s| sc.probability(s)).collect();
        for p in &probs {
            prop_assert!((0.0..=1.0).contains(p));
        }
        // Monotone in score (direction given by the sign of the slope).
        for w in probs.windows(2) {
            if sc.a >= 0.0 {
                prop_assert!(w[0] <= w[1] + 1e-12);
            } else {
                prop_assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn evolution_preserves_world_invariants(
        seed in 0u64..30,
        new_item_rate in 0.0f64..0.3,
        stockout_rate in 0.0f64..0.5,
        new_user_rate in 0.0f64..0.3,
    ) {
        use sigmund_datagen::{evolve_day, EvolutionSpec, RetailerSpec};
        let mut world = RetailerSpec::sized(RetailerId(0), 40, 50, 5).generate();
        let n_items_before = world.catalog.len();
        let events_before = world.events.clone();
        let horizon = events_before.iter().map(|e| e.when).max().unwrap_or(0);
        let delta = evolve_day(&mut world, &EvolutionSpec {
            new_item_rate,
            stockout_rate,
            new_user_rate,
            seed,
            ..Default::default()
        });
        // Append-only catalog; ground truth covers it.
        prop_assert!(world.catalog.len() >= n_items_before);
        prop_assert_eq!(world.truth.item_vecs.len(), world.catalog.len());
        prop_assert_eq!(world.truth.user_vecs.len(), world.truth.user_budget.len());
        // Yesterday's events are intact (as a multiset: log stays sorted).
        let mut old: Vec<_> = world
            .events
            .iter()
            .filter(|e| e.when <= horizon)
            .copied()
            .collect();
        let mut expect = events_before.clone();
        sigmund_types::sort_for_training(&mut old);
        sigmund_types::sort_for_training(&mut expect);
        prop_assert_eq!(old, expect);
        // All new events reference valid ids and skip stockouts.
        for e in world.events.iter().filter(|e| e.when > horizon) {
            prop_assert!(e.item.index() < world.catalog.len());
            prop_assert!(!delta.stockouts.contains(&e.item));
        }
    }

    #[test]
    fn context_weights_always_normalized(
        actions in prop::collection::vec(0u8..4, 1..30),
        decay in 0.1f32..1.0,
    ) {
        let mut t = Taxonomy::new();
        let c = t.add_child(t.root());
        let mut catalog = Catalog::new(RetailerId(0), t);
        catalog.add_item(ItemMeta::bare(c));
        let hp = HyperParams { factors: 2, context_decay: decay, ..Default::default() };
        let m = BprModel::init(&catalog, hp);
        let ctx: Vec<ContextEvent> = actions.iter().map(|&a| {
            (ItemId(0), match a {
                0 => ActionType::View,
                1 => ActionType::Search,
                2 => ActionType::Cart,
                _ => ActionType::Conversion,
            })
        }).collect();
        let mut w = Vec::new();
        m.context_weights(&ctx, &mut w);
        let sum: f32 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "weights sum to {}", sum);
        prop_assert!(w.iter().all(|x| *x >= 0.0));
    }

    #[test]
    fn rec_order_is_a_total_order(
        raw in prop::collection::vec((0u32..50, 0u8..6, 0u32..50), 3..30),
    ) {
        let items: Vec<(ItemId, f32)> = raw.iter()
            .map(|&(id, class, mag)| (ItemId(id), score_of(class, mag)))
            .collect();
        for a in &items {
            // Reflexive even for NaN scores (where f32's partial order gives up).
            prop_assert_eq!(rec_order(a, a), Ordering::Equal);
            for b in &items {
                // Antisymmetric: comparing the other way exactly reverses.
                prop_assert_eq!(rec_order(a, b), rec_order(b, a).reverse());
                for c in &items {
                    // Transitive: a ≤ b ≤ c ⇒ a ≤ c.
                    if rec_order(a, b) != Ordering::Greater
                        && rec_order(b, c) != Ordering::Greater
                    {
                        prop_assert!(
                            rec_order(a, c) != Ordering::Greater,
                            "transitivity broke on {:?} {:?} {:?}", a, b, c
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rec_order_sorts_finite_desc_ties_by_id_nonfinite_last(
        raw in prop::collection::vec((0u32..50, 0u8..6, 0u32..50), 1..60),
    ) {
        let mut items: Vec<(ItemId, f32)> = raw.iter()
            .map(|&(id, class, mag)| (ItemId(id), score_of(class, mag)))
            .collect();
        items.sort_by(rec_order);
        for w in items.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            // Once the non-finite tail starts, it never goes back to finite.
            prop_assert!(
                a.1.is_finite() || !b.1.is_finite(),
                "non-finite {:?} sorted before finite {:?}", a, b
            );
            if a.1.is_finite() && b.1.is_finite() {
                prop_assert!(a.1 >= b.1, "finite scores must descend");
                if a.1 == b.1 {
                    prop_assert!(a.0 <= b.0, "score ties must break ItemId asc");
                }
            }
            if !a.1.is_finite() && !b.1.is_finite() {
                prop_assert!(a.0 <= b.0, "non-finite tail must sort ItemId asc");
            }
        }
    }

    #[test]
    fn backoff_schedule_is_monotone_capped_and_within_budget(
        base in 0.01f64..5.0,
        multiplier in 1.0f64..3.0,
        cap in 0.5f64..120.0,
        budget in 1.0f64..1_000.0,
        seed in any::<u64>(),
        split in 0usize..64,
    ) {
        let policy = BackoffPolicy { base, multiplier, cap, budget };
        let delays = policy.charged_delays(seed, split);
        // Deterministic per (seed, split): recomputing is bit-identical.
        prop_assert_eq!(&delays, &policy.charged_delays(seed, split));
        let mut spent = 0.0f64;
        for w in delays.windows(2) {
            // Monotone non-decreasing while multiplier ≥ 1.
            prop_assert!(w[1] >= w[0], "delays must not shrink: {:?}", delays);
        }
        for d in &delays {
            prop_assert!(d.is_finite() && *d > 0.0, "delay {} must be positive", d);
            prop_assert!(*d <= cap, "delay {} exceeds cap {}", d, cap);
            spent += d;
        }
        // The engine charges exactly this sequence, so the total virtual
        // time burned in backoff can never exceed the budget.
        prop_assert!(spent <= budget, "total {} exceeds budget {}", spent, budget);
        // A different split gets a different jitter stream but the same
        // invariants; spot-check determinism does not leak across splits.
        let other = policy.charged_delays(seed, split + 64);
        let mut other_spent = 0.0f64;
        for d in &other { other_spent += d; }
        prop_assert!(other_spent <= budget);
    }
}

proptest! {
    /// Torn-write posture of the day journal (ISSUE 10): a manifest blob cut
    /// short mid-write, or hit by a single flipped byte anywhere — header,
    /// payload, or trailing checksum — is rejected by
    /// [`DayManifest::from_bytes`] with a clean error, never mis-parsed into
    /// a plausible manifest and never a panic. Recovery peeks every manifest
    /// before trusting it, so this property is what lets a crash mid-rename
    /// (or a corrupt cell) degrade to "re-run from the previous boundary"
    /// instead of silently resuming from garbage.
    #[test]
    fn journal_manifest_rejects_torn_and_mutated_blobs(
        day in 0u32..1000,
        phase_pick in 0u8..7,
        n_records in 0usize..4,
        vnow_ms in 0u32..1_000_000,
        ops_len in 0usize..16,
        cut_pick in any::<u32>(),
        pos_pick in any::<u32>(),
        delta in 1u8..,
    ) {
        let phase = [
            Phase::Planned,
            Phase::SweepPlanned,
            Phase::Trained,
            Phase::Selected,
            Phase::Inferred,
            Phase::Published,
            Phase::Sealed,
        ][phase_pick as usize % 7];
        let mut last_outputs = Vec::new();
        for i in 0..n_records as u32 {
            let mut rec = ConfigRecord::cold(RetailerId(i), i, HyperParams::default());
            rec.model_path = format!("/models/r{i}/c{i}/d{day}");
            if i % 2 == 0 {
                rec.warm_start_path =
                    Some(format!("/models/r{i}/c{i}/d{}", day.wrapping_sub(1)));
                rec.metrics = Some(ModelMetrics {
                    map_at_10: 0.5,
                    ..Default::default()
                });
            }
            last_outputs.push(rec);
        }
        let m = DayManifest {
            day,
            phase,
            virtual_now: f64::from(vnow_ms) / 1000.0,
            retailers: (0..n_records as u32).map(|i| (RetailerId(i), 10 + u64::from(i))).collect(),
            new_since_last_run: vec![RetailerId(0)],
            last_accepted_map: vec![0.25, 0.5],
            last_outputs,
            ops: (0..ops_len).map(|i| i as u8).collect(),
        };
        let bytes = m.to_bytes().unwrap();
        prop_assert_eq!(&DayManifest::from_bytes(&bytes).unwrap(), &m);
        // Torn write: every strict prefix is rejected.
        let cut = cut_pick as usize % bytes.len();
        prop_assert!(
            DayManifest::from_bytes(&bytes[..cut]).is_err(),
            "manifest truncated to {} of {} bytes parsed anyway",
            cut,
            bytes.len()
        );
        // Silent corruption: a single flipped byte is rejected.
        let pos = pos_pick as usize % bytes.len();
        let mut bad = bytes.to_vec();
        bad[pos] = bad[pos].wrapping_add(delta);
        prop_assert!(
            DayManifest::from_bytes(&bad).is_err(),
            "single-byte mutation at offset {} of {} went undetected",
            pos,
            bytes.len()
        );
    }
}

proptest! {
    /// End-to-end integrity (ISSUE 5): a serialized [`ModelSnapshot`] rejects
    /// *any* single-byte mutation anywhere in the blob — header, payload, or
    /// trailing checksum. The checksum absorb step is bijective per byte, so
    /// a flipped payload byte always changes the digest; header mutations
    /// are caught by the magic/version/shape checks instead.
    #[test]
    fn model_snapshot_rejects_any_single_byte_mutation(
        n_items in 1usize..8,
        seed in 0u64..64,
        pos_pick in any::<u32>(),
        delta in 1u8..,
    ) {
        let mut t = Taxonomy::new();
        let node = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(1), t);
        for _ in 0..n_items {
            c.add_item(ItemMeta::bare(node));
        }
        let m = BprModel::init(
            &c,
            HyperParams {
                factors: 4,
                init_seed: seed,
                ..Default::default()
            },
        );
        let bytes = ModelSnapshot::capture(&m).to_bytes();
        let pos = pos_pick as usize % bytes.len();
        let mut bad = bytes.to_vec();
        bad[pos] = bad[pos].wrapping_add(delta);
        prop_assert!(
            ModelSnapshot::from_bytes(&bad).is_err(),
            "single-byte mutation at offset {} of {} went undetected",
            pos,
            bytes.len()
        );
    }
}

proptest! {
    /// ISSUE 9, hot-cache determinism: [`TierSim`]'s admission/eviction
    /// trajectory is a pure function of `(seed, access sequence)` — two
    /// fresh simulators fed the same sequence agree on every outcome and on
    /// final residency, residency never exceeds capacity, and an `Admit`'s
    /// evicted victim was actually resident the instant before.
    #[test]
    fn tier_cache_is_a_pure_function_of_seed_and_accesses(
        capacity in 1usize..6,
        threshold in 1u64..4,
        seed in 0u64..512,
        accesses in prop::collection::vec(0u32..12, 1..200),
    ) {
        use sigmund_serving::{ColdTierConfig, TierOutcome, TierSim};
        let cfg = ColdTierConfig::enabled(capacity, threshold, seed);
        let mut a = TierSim::new(cfg);
        let mut b = TierSim::new(cfg);
        for (i, &r) in accesses.iter().enumerate() {
            let r = RetailerId(r);
            let before = a.resident();
            let oa = a.access(r);
            let ob = b.access(r);
            prop_assert_eq!(oa, ob, "step {}: replay diverged", i);
            if let TierOutcome::Admit { evicted: Some(v) } = oa {
                prop_assert!(
                    before.contains(&v),
                    "step {}: evicted {:?} was not resident",
                    i,
                    v
                );
                prop_assert!(v != r, "a retailer never evicts itself");
            }
            let now = a.resident();
            prop_assert!(now.len() <= capacity, "residency exceeded capacity");
            if matches!(oa, TierOutcome::Hit) {
                prop_assert!(now.contains(&r), "a Hit retailer must be resident");
            }
        }
        prop_assert_eq!(a.resident(), b.resident());
    }

    /// ISSUE 9, reader safety: eviction never removes a retailer mid-read.
    /// A reader holding the `Arc` returned by [`ColdTier::fetch`] keeps
    /// bitwise-intact bytes no matter how much churn later evicts that
    /// retailer from the hot cache — and a refetch after eviction
    /// round-trips the same bytes from flash.
    #[test]
    fn eviction_never_invalidates_a_held_table(
        seed in 0u64..64,
        churn in prop::collection::vec(1u32..8, 8..64),
    ) {
        use sigmund_dfs::Dfs;
        use sigmund_serving::{ColdTier, ColdTierConfig, FetchResult};
        use std::sync::Arc;
        let tier = ColdTier::new(
            ColdTierConfig::enabled(1, 1, seed),
            Arc::new(Dfs::new()),
            CellId(0),
        );
        let table_of = |r: u32| -> Vec<ItemRecs> {
            (0..3)
                .map(|j| ItemRecs {
                    view_based: vec![(ItemId((j + r) % 3), r as f32 + 0.5)],
                    purchase_based: vec![],
                })
                .collect()
        };
        tier.spill(RetailerId(0), 1, &table_of(0)).unwrap();
        let held = match tier.fetch(RetailerId(0), 1) {
            FetchResult::Table(t) => t,
            other => panic!("clean fetch must return the table, got {other:?}"),
        };
        // Capacity-1 churn across other retailers evicts retailer 0.
        for &r in &churn {
            tier.spill(RetailerId(r), 1, &table_of(r)).unwrap();
            prop_assert!(!matches!(
                tier.fetch(RetailerId(r), 1),
                FetchResult::Miss | FetchResult::Degraded(_)
            ));
        }
        prop_assert!(
            !tier.resident().contains(&RetailerId(0)),
            "churn must have evicted the held retailer"
        );
        // The reader's copy is untouched by eviction...
        prop_assert_eq!(held.as_ref(), &table_of(0));
        // ...and the flash blob still round-trips bitwise after eviction.
        let refetched = match tier.fetch(RetailerId(0), 1) {
            FetchResult::Table(t) => t,
            other => panic!("refetch after eviction must hit flash, got {other:?}"),
        };
        prop_assert_eq!(refetched.as_ref(), &table_of(0));
    }
}

// ---------------------------------------------------------------------------
// One-record cold lookups (ISSUE 19): chunk-checksummed ranged DFS reads, the
// self-indexing `SGRC` blob, and the `TierSim` victim index. Each property is
// a plain function over its inputs, driven twice: by a proptest block, and by
// a seeded `#[test]` that also runs where the proptest stand-in discards its
// tokens.

/// The DFS's bytes-per-checksum. Private there; pinned here because "a flip
/// fails exactly the ranges on its chunk" cannot be stated without it
/// (DESIGN.md §10 documents the value).
const DFS_CHUNK: usize = 512;

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes()[0])
        .collect()
}

fn is_corrupt<T>(r: &Result<T>) -> bool {
    matches!(r, Err(SigmundError::Corrupt(_)))
}

/// On a clean DFS a ranged read is the same bytes as a slice of the whole
/// read; out of bounds is an error, never a panic.
fn check_range_reads_are_slices_of_the_whole_read(data: &[u8], picks: &[(usize, usize)]) {
    use sigmund_dfs::Dfs;
    let dfs = Dfs::new();
    let cell = CellId(0);
    dfs.write(cell, "/b", bytes::Bytes::copy_from_slice(data))
        .unwrap();
    let whole = dfs.read(cell, "/b").unwrap();
    assert_eq!(&whole[..], data);
    for &(o, l) in picks {
        let got = dfs.read_range(cell, "/b", o, l);
        match o.checked_add(l).filter(|&end| end <= data.len()) {
            Some(end) => assert_eq!(&got.unwrap()[..], &whole[o..end], "range {o}+{l}"),
            None => assert!(is_corrupt(&got), "range {o}+{l} of {} bytes", data.len()),
        }
    }
}

/// One bit flipped at rest (after the checksums were stamped): the whole
/// read is `Corrupt`, as it always was, and a ranged read is `Corrupt` iff
/// its range touches the flipped byte's chunk. `scrub` then restores the
/// previous version for both kinds of reader.
fn check_a_flip_fails_exactly_the_ranges_on_its_chunk(
    data: &[u8],
    flip_seed: u64,
    picks: &[(usize, usize)],
) {
    use sigmund_dfs::Dfs;
    assert!(!data.is_empty());
    let dfs = Dfs::with_faults(FaultPlan {
        seed: flip_seed,
        bitflip_rate: 1.0,
        from_day: 1,
        until_day: 2,
        ..FaultPlan::default()
    });
    let cell = CellId(0);
    let previous = seeded_bytes(flip_seed ^ 0xA5, data.len() / 2 + 1);
    dfs.write(cell, "/b", bytes::Bytes::from(previous.clone()))
        .unwrap();
    dfs.injector().unwrap().begin_day(1);
    dfs.write(cell, "/b", bytes::Bytes::copy_from_slice(data))
        .unwrap();
    let stored = dfs.peek("/b").unwrap();
    let flipped: Vec<usize> = (0..data.len()).filter(|&i| stored[i] != data[i]).collect();
    assert_eq!(flipped.len(), 1, "the injector flips exactly one bit");
    let chunk = flipped[0] / DFS_CHUNK;
    assert!(is_corrupt(&dfs.read(cell, "/b")));
    for &(o, l) in picks {
        let (o, l) = (o % data.len(), l.max(1));
        let l = l.min(data.len() - o);
        let touches = o / DFS_CHUNK <= chunk && chunk <= (o + l - 1) / DFS_CHUNK;
        let got = dfs.read_range(cell, "/b", o, l);
        assert_eq!(
            is_corrupt(&got),
            touches,
            "flip at {}, range {o}+{l}",
            flipped[0]
        );
        if let Ok(bytes) = got {
            assert_eq!(&bytes[..], &data[o..o + l]);
        }
    }
    let report = dfs.scrub("/");
    assert_eq!((report.corrupt, report.repaired), (1, 1));
    assert_eq!(&dfs.read(cell, "/b").unwrap()[..], &previous[..]);
    assert_eq!(
        &dfs.read_range(cell, "/b", 0, 1).unwrap()[..],
        &previous[..1]
    );
}

/// A torn transfer of a non-empty range is `Corrupt`, whatever the range.
fn check_a_torn_range_is_corrupt(data: &[u8], picks: &[(usize, usize)]) {
    use sigmund_dfs::Dfs;
    assert!(!data.is_empty());
    let dfs = Dfs::with_faults(FaultPlan {
        seed: 9,
        corrupt_rate: 1.0,
        ..FaultPlan::default()
    });
    let cell = CellId(0);
    dfs.write(cell, "/b", bytes::Bytes::copy_from_slice(data))
        .unwrap();
    assert!(is_corrupt(&dfs.read(cell, "/b")));
    for &(o, l) in picks {
        let (o, l) = (o % data.len(), l.max(1));
        let got = dfs.read_range(cell, "/b", o, l.min(data.len() - o));
        assert!(is_corrupt(&got), "torn range {o}+{l} came back {got:?}");
    }
}

/// A table with `n` items whose lists have 0, 1 or `k` entries, picked per
/// list by `seed`; scores include a NaN and a negative zero.
fn seeded_table(seed: u64, n: usize, k: usize) -> Vec<ItemRecs> {
    let list = |salt: u64| -> RecList {
        let h = splitmix64(seed ^ salt);
        let len = [0, 1, k][(h % 3) as usize];
        (0..len as u64)
            .map(|m| {
                let score = match (h >> 8) % 5 {
                    0 => f32::NAN,
                    1 => -0.0,
                    _ => 1.0 / (m + 1) as f32,
                };
                (ItemId((h >> 16) as u32 ^ m as u32), score)
            })
            .collect()
    };
    (0..n as u64)
        .map(|j| ItemRecs {
            view_based: list(2 * j),
            purchase_based: list(2 * j + 1),
        })
        .collect()
}

fn list_bits(list: &RecList) -> Vec<(u32, u32)> {
    list.iter().map(|&(i, s)| (i.0, s.to_bits())).collect()
}

/// The unindexed, unversioned `SGRC` layout the indexed one replaced.
fn encode_recs_v1(recs: &[ItemRecs]) -> Vec<u8> {
    let mut w = wire::Writer::new(b"SGRC");
    w.list(recs.iter(), |w, r| {
        for list in [&r.view_based, &r.purchase_based] {
            w.list(list.iter(), |w, &(item, score)| {
                w.u32(item.0);
                w.f32(score);
            });
        }
    });
    w.finish()
}

/// Every `(item, surface)` answered through `locate` + `decode_record` is
/// bit for bit the list `decode_recs` puts at that item; an item at or past
/// the end is a clean miss; every strict prefix of the blob and the old
/// layout are `Corrupt` for both readers.
fn check_one_record_reads_agree_with_decode_recs(table: &[ItemRecs]) {
    use sigmund_core::recs_codec::{decode_record, decode_recs, encode_recs, locate};
    let blob = encode_recs(table);
    let whole = decode_recs(&blob).unwrap();
    assert_eq!(whole.len(), table.len());
    for (item, want) in whole.iter().enumerate() {
        let at = locate(&blob, item).unwrap().expect("item is in the table");
        let got = decode_record(&blob[at]).unwrap();
        assert_eq!(list_bits(&got.view_based), list_bits(&want.view_based));
        assert_eq!(
            list_bits(&got.purchase_based),
            list_bits(&want.purchase_based)
        );
        assert_eq!(
            list_bits(&got.view_based),
            list_bits(&table[item].view_based)
        );
    }
    for past in [table.len(), table.len() + 5] {
        assert_eq!(
            locate(&blob, past).unwrap(),
            None,
            "item {past} is a clean miss"
        );
    }
    for cut in 0..blob.len() {
        assert!(
            is_corrupt(&decode_recs(&blob[..cut])),
            "prefix {cut} decoded"
        );
        for item in [0, table.len() / 2, table.len()] {
            assert!(
                is_corrupt(&locate(&blob[..cut], item)),
                "prefix {cut} located {item}"
            );
        }
    }
    let old = encode_recs_v1(table);
    assert!(is_corrupt(&decode_recs(&old)), "the old layout decoded");
    for item in [0, table.len()] {
        assert!(
            is_corrupt(&locate(&old, item)),
            "the old layout located {item}"
        );
    }
}

/// The `TierSim` this PR replaced, kept as the executable spec of its
/// outcomes: on every contested access it scans every resident for the
/// smallest tick.
struct LinearScanTierSim {
    cfg: sigmund_serving::ColdTierConfig,
    clock: u64,
    resident: std::collections::BTreeMap<RetailerId, u64>,
    counts: std::collections::BTreeMap<RetailerId, u64>,
}

impl LinearScanTierSim {
    fn new(cfg: sigmund_serving::ColdTierConfig) -> Self {
        Self {
            cfg,
            clock: 0,
            resident: Default::default(),
            counts: Default::default(),
        }
    }

    fn access(&mut self, retailer: RetailerId) -> sigmund_serving::TierOutcome {
        use sigmund_serving::TierOutcome;
        self.clock += 1;
        let count = self.counts.entry(retailer).or_insert(0);
        *count += 1;
        let count = *count;
        if self.resident.contains_key(&retailer) {
            self.resident.insert(retailer, self.clock);
            return TierOutcome::Hit;
        }
        if self.cfg.hot_capacity == 0 || count < self.cfg.admission_threshold {
            return TierOutcome::Fetch;
        }
        if self.resident.len() < self.cfg.hot_capacity {
            self.resident.insert(retailer, self.clock);
            return TierOutcome::Admit { evicted: None };
        }
        let (victim, _) = self
            .resident
            .iter()
            .min_by_key(|(_, &tick)| tick)
            .map(|(&r, &t)| (r, t))
            .unwrap_or((retailer, 0));
        let victim_count = self.counts.get(&victim).copied().unwrap_or(0);
        let wins = match count.cmp(&victim_count) {
            Ordering::Greater => true,
            Ordering::Less => false,
            Ordering::Equal => {
                splitmix64(self.cfg.seed ^ u64::from(retailer.0))
                    > splitmix64(self.cfg.seed ^ u64::from(victim.0))
            }
        };
        if wins {
            self.resident.remove(&victim);
            self.resident.insert(retailer, self.clock);
            TierOutcome::Admit {
                evicted: Some(victim),
            }
        } else {
            TierOutcome::Fetch
        }
    }

    fn resident(&self) -> Vec<RetailerId> {
        self.resident.keys().copied().collect()
    }
}

/// The indexed `TierSim` and the linear-scan one agree outcome for outcome
/// and on residency after every access.
fn check_tiersim_matches_the_linear_scan(
    capacity: usize,
    threshold: u64,
    seed: u64,
    accesses: &[u32],
) {
    let cfg = sigmund_serving::ColdTierConfig::enabled(capacity, threshold, seed);
    let mut new = sigmund_serving::TierSim::new(cfg);
    let mut old = LinearScanTierSim::new(cfg);
    for (i, &r) in accesses.iter().enumerate() {
        let r = RetailerId(r);
        assert_eq!(new.access(r), old.access(r), "step {i}: outcomes diverged");
        assert_eq!(
            new.resident(),
            old.resident(),
            "step {i}: residency diverged"
        );
        assert_eq!(new.is_resident(r), old.resident.contains_key(&r));
    }
}

proptest! {
    #[test]
    fn range_reads_are_slices_of_the_whole_read(
        seed in any::<u64>(),
        len in 0usize..3000,
        picks in prop::collection::vec((0usize..3200, 0usize..1400), 1..24),
    ) {
        check_range_reads_are_slices_of_the_whole_read(&seeded_bytes(seed, len), &picks);
    }

    #[test]
    fn a_flip_fails_exactly_the_ranges_on_its_chunk(
        seed in any::<u64>(),
        len in 1usize..3000,
        picks in prop::collection::vec((0usize..3000, 0usize..1400), 1..24),
    ) {
        check_a_flip_fails_exactly_the_ranges_on_its_chunk(&seeded_bytes(seed, len), seed, &picks);
    }

    #[test]
    fn a_torn_range_is_corrupt(
        seed in any::<u64>(),
        len in 1usize..3000,
        picks in prop::collection::vec((0usize..3000, 0usize..1400), 1..12),
    ) {
        check_a_torn_range_is_corrupt(&seeded_bytes(seed, len), &picks);
    }

    #[test]
    fn one_record_reads_agree_with_decode_recs(
        seed in any::<u64>(),
        n in 0usize..40,
        k in prop::sample::select(vec![0usize, 1, 10]),
    ) {
        check_one_record_reads_agree_with_decode_recs(&seeded_table(seed, n, k));
    }

    #[test]
    fn tiersim_matches_the_linear_scan(
        capacity in 1usize..=64,
        threshold in 1u64..4,
        seed in 0u64..512,
        accesses in prop::collection::vec(0u32..160, 1..600),
    ) {
        check_tiersim_matches_the_linear_scan(capacity, threshold, seed, &accesses);
    }
}

/// The five properties above on seeded inputs (see the section comment).
#[test]
fn one_record_lookup_properties_hold_on_seeded_cases() {
    let pick = |seed: u64, i: u64, modulo: usize| (splitmix64(seed ^ (i << 20)) as usize) % modulo;
    let edge_lens = [0, 1, 2, 511, 512, 513, 1024, 1025, 2047, 2999];
    for seed in 0..40u64 {
        let len = edge_lens
            .get(seed as usize)
            .copied()
            .unwrap_or_else(|| pick(seed, 0, 3000));
        let data = seeded_bytes(seed, len);
        let picks: Vec<(usize, usize)> = (1..20)
            .map(|i| (pick(seed, 2 * i, 3200), pick(seed, 2 * i + 1, 1400)))
            .chain([
                (0, len),
                (len, 0),
                (len, 1),
                (usize::MAX, 2),
                (1, usize::MAX),
            ])
            .collect();
        check_range_reads_are_slices_of_the_whole_read(&data, &picks);
        if len > 0 {
            check_a_flip_fails_exactly_the_ranges_on_its_chunk(&data, seed, &picks);
            check_a_torn_range_is_corrupt(&data, &picks);
        }
    }
    for seed in 0..30u64 {
        let n = [0, 1, 2, 3][seed as usize % 4] + pick(seed, 1, 3) * 9;
        for k in [0, 1, 10] {
            check_one_record_reads_agree_with_decode_recs(&seeded_table(seed, n, k));
        }
    }
    for seed in 0..60u64 {
        let capacity = 1 + pick(seed, 1, 64);
        let threshold = 1 + pick(seed, 2, 3) as u64;
        let spread = 2 + pick(seed, 3, 3 * capacity + 8);
        // Squaring a uniform draw skews the sequence towards low ids: a
        // popular head that stays resident and a tail that contests it.
        let accesses: Vec<u32> = (0..800u64)
            .map(|i| {
                let u = pick(seed, 10 + i, 1 << 16) as f64 / 65_536.0;
                (u * u * spread as f64) as u32
            })
            .collect();
        check_tiersim_matches_the_linear_scan(capacity, threshold, seed, &accesses);
    }
}

// ---------------------------------------------------------------------------
// Wire formats (ISSUE 14). Plain `#[test]`s, not proptest blocks: they must
// run where the proptest stand-in discards its tokens.

/// One fixed fixture blob per wire format, with its decoder.
struct WireCase {
    name: &'static str,
    bytes: Vec<u8>,
    /// Carries the `fnv1a64` trailer: any prefix or mutation must be `Err`.
    sealed: bool,
    decode: fn(&[u8]) -> Result<()>,
}

fn wire_cases() -> Vec<WireCase> {
    use sigmund_cluster::CostMeter;
    use sigmund_core::snapshot::TableSnapshot;
    use sigmund_dfs::{CheckpointStore, Dfs};
    use sigmund_obs::HealthBus;
    use sigmund_pipeline::data::{
        decode_catalog, decode_events, decode_recs, encode_catalog, encode_events, encode_recs,
    };
    use sigmund_pipeline::journal::{pack_ops, unpack_ops};
    use sigmund_pipeline::{DayReport, MonitorConfig, QualityMonitor};
    use sigmund_serving::ServingStore;
    use std::collections::BTreeMap;

    let hp = HyperParams {
        factors: 3,
        learning_rate: 0.05,
        features: FeatureSwitches::ALL,
        negative_sampler: NegativeSamplerKind::Adaptive,
        init_seed: u64::MAX - 3,
        ..Default::default()
    };

    // Literal tables, not `BprModel::init`: the fixture must not follow the
    // `rand` stream, which differs between the published crate and the
    // offline stand-in.
    let table = |rows: u32| TableSnapshot {
        rows,
        dim: 3,
        data: (0..rows * 3).map(|i| i as f32 * 0.25 - 1.0).collect(),
        acc: (0..rows).map(|i| i as f32 + 0.5).collect(),
    };
    let snapshot = ModelSnapshot {
        retailer: RetailerId(7),
        hp: hp.clone(),
        tables: [4, 4, 2, 2, 1, 0].into_iter().map(table).collect(),
    };

    let recs = vec![
        ItemRecs {
            view_based: vec![(ItemId(1), 0.9), (ItemId(2), -0.5)],
            purchase_based: vec![(ItemId(3), 0.7)],
        },
        ItemRecs::default(),
        ItemRecs {
            view_based: Vec::new(),
            purchase_based: vec![(ItemId(0), 0.125)],
        },
    ];

    let mut tax = Taxonomy::new();
    let c0 = tax.add_child(tax.root());
    let c1 = tax.add_child(c0);
    let mut catalog = Catalog::new(RetailerId(9), tax);
    catalog.add_item(ItemMeta {
        category: c1,
        brand: Some(BrandId(4)),
        price: Some(12.5),
        facet: Some(FacetId(2)),
    });
    catalog.add_item(ItemMeta::bare(c0));
    catalog.add_item(ItemMeta {
        category: c0,
        brand: None,
        price: Some(0.75),
        facet: None,
    });

    let events = vec![
        Interaction::new(UserId(1), ItemId(2), ActionType::View, 10),
        Interaction::new(UserId(1), ItemId(3), ActionType::Conversion, 20),
        Interaction::new(UserId(2), ItemId(0), ActionType::Cart, u64::MAX - 1),
        Interaction::new(UserId(3), ItemId(1), ActionType::Search, 0),
    ];

    let day_report = |day: u32, map: f64, degraded: bool| {
        let mut rec = ConfigRecord::cold(RetailerId(0), 0, HyperParams::default());
        rec.metrics = Some(ModelMetrics {
            map_at_10: map,
            ..Default::default()
        });
        DayReport {
            day,
            models_trained: 1,
            train_makespan: 0.0,
            infer_makespan: 0.0,
            cost: CostMeter::default(),
            preemptions: 0,
            best: BTreeMap::from([(RetailerId(0), rec)]),
            recs: BTreeMap::from([(RetailerId(0), recs.clone())]),
            train_stats: Vec::new(),
            infer_stats: Vec::new(),
            degraded: if degraded {
                vec![RetailerId(2)]
            } else {
                Vec::new()
            },
            rejected: Vec::new(),
        }
    };
    let mut monitor = QualityMonitor::new(MonitorConfig::default());
    let fleet = [(RetailerId(0), 3), (RetailerId(2), 5)];
    monitor.record_day(&fleet, &day_report(0, 0.3, false));
    monitor.record_day(&fleet, &day_report(1, 0.25, true));
    let monitor_blob = monitor.to_bytes();

    let store = ServingStore::new();
    store.publish(BTreeMap::from([
        (RetailerId(0), recs.clone()),
        (RetailerId(9), recs.clone()),
    ]));
    store.publish(BTreeMap::from([(RetailerId(3), recs.clone())]));
    let store_blob = store.meta_bytes();

    let ops = pack_ops(&[&monitor_blob, b"", &store_blob]);

    let dfs = Dfs::new();
    let checkpoints = CheckpointStore::new(&dfs, CellId(0), "/ckpt/r0/c0");
    checkpoints.publish(2, b"first").unwrap();
    checkpoints.publish(3, &snapshot.to_bytes()).unwrap();
    let checkpoint_blob = dfs.peek("/ckpt/r0/c0/LIVE").unwrap().to_vec();

    let mut rec = ConfigRecord::cold(RetailerId(2), 1, hp.clone());
    rec.model_path = "/models/r2/c1/d3".into();
    rec.warm_start_path = Some("/models/r2/c1/d2".into());
    rec.epochs_override = Some(3);
    rec.metrics = Some(ModelMetrics {
        map_at_10: 0.31,
        auc: 0.8,
        precision_at_10: 0.1,
        recall_at_10: 0.4,
        ndcg_at_10: 0.5,
        holdout_size: 17,
        map_sampled: true,
    });
    let manifest = DayManifest {
        day: 3,
        phase: Phase::Sealed,
        virtual_now: 123.5,
        retailers: vec![(RetailerId(0), 40), (RetailerId(2), 55)],
        new_since_last_run: vec![RetailerId(2)],
        last_accepted_map: vec![0.2, f64::NAN, 0.31],
        last_outputs: vec![
            ConfigRecord::cold(RetailerId(0), 0, HyperParams::default()),
            rec,
        ],
        ops: ops.clone(),
    };

    vec![
        WireCase {
            name: "hyper-params wire",
            bytes: hp.to_wire().to_vec(),
            sealed: false,
            decode: |b| HyperParams::from_wire(b).map(drop),
        },
        WireCase {
            name: "SGMD model snapshot",
            bytes: snapshot.to_bytes().to_vec(),
            sealed: true,
            decode: |b| ModelSnapshot::from_bytes(b).map(drop),
        },
        WireCase {
            name: "SGRC recs",
            bytes: encode_recs(&recs).to_vec(),
            sealed: false,
            decode: |b| decode_recs(b).map(drop),
        },
        WireCase {
            name: "SGCT catalog",
            bytes: encode_catalog(&catalog).to_vec(),
            sealed: false,
            decode: |b| decode_catalog(b).map(drop),
        },
        WireCase {
            name: "event log",
            bytes: encode_events(&events).to_vec(),
            sealed: false,
            decode: |b| decode_events(b).map(drop),
        },
        WireCase {
            name: "SGJL day manifest",
            bytes: manifest.to_bytes().unwrap().to_vec(),
            sealed: true,
            decode: |b| DayManifest::from_bytes(b).map(drop),
        },
        WireCase {
            name: "SGJL ops sections",
            bytes: ops,
            sealed: false,
            decode: |b| unpack_ops(b).map(drop),
        },
        WireCase {
            name: "SGQM monitor",
            bytes: monitor_blob,
            sealed: true,
            decode: |b| {
                QualityMonitor::from_bytes(MonitorConfig::default(), HealthBus::disabled(), b)
                    .map(drop)
            },
        },
        WireCase {
            name: "SGSM store meta",
            bytes: store_blob,
            sealed: true,
            decode: |b| ServingStore::restore(HealthBus::disabled(), b, BTreeMap::new()).map(drop),
        },
        WireCase {
            name: "checkpoint header",
            bytes: checkpoint_blob,
            sealed: false,
            decode: |b| {
                let dfs = Dfs::new();
                dfs.write(CellId(0), "/c/LIVE", bytes::Bytes::copy_from_slice(b))?;
                CheckpointStore::new(&dfs, CellId(0), "/c")
                    .latest()
                    .map(drop)
            },
        },
    ]
}

/// The proof that porting the codecs onto `sigmund_types::wire` changed no
/// byte: each constant is `fnv1a64` of the fixture's encoding **recorded at
/// commit 0066810**, before the port. Round-trip tests cannot see a layout
/// change made on both the encode and the decode side; this can. A layout
/// that changes deliberately re-records its row and says why beside it.
#[test]
fn wire_formats_are_byte_stable() {
    let golden: [(&str, usize, u64); 10] = [
        ("hyper-params wire", 42, 0x5dda_6c89_424f_5e68),
        ("SGMD model snapshot", 326, 0x6d53_d0be_b498_ad05),
        // Re-recorded on purpose by ISSUE 19: a version byte and the
        // `n + 1`-entry offset index (+1 + 4 × 4 bytes on this fixture).
        ("SGRC recs", 81, 0x9eae_20c8_37ce_a933),
        ("SGCT catalog", 55, 0x4d56_30e7_cf4d_b03f),
        ("event log", 72, 0xfc64_e45b_4d4f_1d59),
        ("SGJL day manifest", 577, 0xc4ae_571c_54c8_ba69),
        ("SGJL ops sections", 187, 0xe629_f1be_f0c3_1f55),
        ("SGQM monitor", 114, 0x4105_afe5_be79_c119),
        ("SGSM store meta", 61, 0x4b74_650d_2ac4_d690),
        ("checkpoint header", 342, 0x2102_ff5b_5d58_4b8f),
    ];
    let cases = wire_cases();
    assert_eq!(cases.len(), golden.len());
    for (case, (name, len, hash)) in cases.iter().zip(golden) {
        assert_eq!(case.name, name);
        (case.decode)(&case.bytes).unwrap_or_else(|e| panic!("{name}: fixture rejected: {e}"));
        assert_eq!(
            (case.bytes.len(), fnv1a64(&case.bytes)),
            (len, hash),
            "{name}: encoded bytes moved: ({}, {:#018x})",
            case.bytes.len(),
            fnv1a64(&case.bytes)
        );
    }
}

/// Every strict prefix and every single-byte substitution of every format's
/// fixture: `Err` for the sealed formats (the trailer covers every byte),
/// and at least no panic for the unsealed ones (the DFS frame checksum is
/// their integrity layer; their own parser only has to stay total).
#[test]
fn wire_formats_survive_every_prefix_and_single_byte_mutation() {
    for case in wire_cases() {
        let check = |bytes: &[u8], what: String| {
            let got = (case.decode)(bytes);
            assert!(
                !case.sealed || matches!(got, Err(SigmundError::Corrupt(_))),
                "{}: {what} was accepted as {got:?}",
                case.name
            );
        };
        for cut in 0..case.bytes.len() {
            check(&case.bytes[..cut], format!("prefix of {cut} bytes"));
        }
        let mut bad = case.bytes.clone();
        for pos in 0..bad.len() {
            for delta in 1..=u8::MAX {
                bad[pos] = case.bytes[pos].wrapping_add(delta);
                check(&bad, format!("byte {pos} + {delta}"));
            }
            bad[pos] = case.bytes[pos];
        }
    }
}
