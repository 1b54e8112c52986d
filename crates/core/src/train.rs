//! BPR training: stochastic gradient descent with Adagrad and Hogwild-style
//! multi-threading (Sections III-B1, III-C1, IV-B2).
//!
//! For a triple `(u, i, j)` with score difference `s = x_ui − x_uj`, the BPR
//! loss is `−ln σ(s)`. One SGD step updates the positive item's rows, the
//! negative item's rows, and every context event's context rows — each
//! through its own per-row Adagrad accumulator ("Adagrad damps the learning
//! rates of frequently updated items, and relatively increases the rate for
//! the rare items").
//!
//! Multi-threading follows the paper exactly: *one retailer per machine*,
//! threads managed in user code, parameters shared without locks (Hogwild).
//!
//! The example step (`train_slice`) is written once, generic over where the
//! parameters live (`storage::RowStore`). `opts.threads` picks the storage:
//! a `threads == 1` epoch checks the model's tables out into plain `f32`
//! tables, runs on those, and checks them back in; Hogwild threads share the
//! model's atomic tables. Same float evaluation order on both, so trained
//! bytes do not depend on the storage.

use crate::dataset::Dataset;
use crate::model::table::{BRAND, CAT, CAT_CTX, CTX, ITEM, PRICE};
use crate::model::{dot, price_bucket, BprModel};
use crate::negative::NegativeSampler;
use crate::storage::{RowStore, Table};
use rand::prelude::*;
use rand::rngs::StdRng;
use sigmund_obs::{Level, ObsLog};
use sigmund_types::{Catalog, FeatureSwitches, ItemId};

/// Knobs for a training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainOptions {
    /// Passes over the example set.
    pub epochs: u32,
    /// Training threads (1 = exact, deterministic; >1 = Hogwild).
    pub threads: usize,
    /// Seed for example shuffling and negative sampling.
    pub seed: u64,
}

impl Default for TrainOptions {
    fn default() -> Self {
        Self {
            epochs: 10,
            threads: 1,
            seed: 17,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean BPR loss (`−ln σ(s)`) over processed examples.
    pub mean_loss: f64,
    /// Mean gradient magnitude `σ(−s)` over processed examples — the scalar
    /// every row update is proportional to, so it tracks how hard the
    /// optimizer is still pushing (→ 0 as the model converges).
    pub mean_grad: f64,
    /// Examples processed (excludes skipped ones with empty contexts or no
    /// sampleable negative).
    pub examples: u64,
}

/// What one slice of examples adds up to.
#[derive(Debug, Clone, Copy, Default)]
struct SliceSums {
    loss: f64,
    grad: f64,
    count: u64,
}

impl SliceSums {
    fn stats(self) -> EpochStats {
        let denom = if self.count > 0 {
            self.count as f64
        } else {
            1.0
        };
        EpochStats {
            mean_loss: self.loss / denom,
            mean_grad: self.grad / denom,
            examples: self.count,
        }
    }
}

/// Trains `model` in place for `opts.epochs` passes; returns per-epoch stats.
pub fn train(
    model: &BprModel,
    catalog: &Catalog,
    ds: &Dataset,
    sampler: &NegativeSampler<'_>,
    opts: TrainOptions,
) -> Vec<EpochStats> {
    (0..opts.epochs)
        .map(|epoch| train_epoch(model, catalog, ds, sampler, &opts, epoch))
        .collect()
}

/// Runs one epoch (used by the pipeline to interleave checkpointing).
///
/// Between calls the trained parameters live in `model`: a `threads == 1`
/// epoch checks them out at the start and back in at the end, so snapshots,
/// evaluation and `observe_epoch` between epochs see every update.
pub fn train_epoch(
    model: &BprModel,
    catalog: &Catalog,
    ds: &Dataset,
    sampler: &NegativeSampler<'_>,
    opts: &TrainOptions,
    epoch: u32,
) -> EpochStats {
    let n = ds.n_examples();
    if n == 0 {
        return SliceSums::default().stats();
    }
    let order = shuffled_order(n, opts, epoch);
    let plan = RowPlan::build(catalog, model.hp.features);

    let threads = opts.threads.max(1).min(n);
    if threads == 1 {
        let mut stores = model.tables().map(Table::checkout);
        let mut rng = exact_rng(opts, epoch);
        let sums = train_slice(model, &mut stores, &plan, ds, sampler, &order, &mut rng);
        for (table, plain) in model.tables().into_iter().zip(&stores) {
            table.checkin(plain);
        }
        return sums.stats();
    }

    // Hogwild: split the shuffled order across threads; no locks anywhere.
    let chunk = n.div_ceil(threads);
    let plan = &plan;
    let results: Vec<SliceSums> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = order
            .chunks(chunk)
            .enumerate()
            .map(|(t, slice)| {
                scope.spawn(move |_| {
                    let mut rng = StdRng::seed_from_u64(
                        opts.seed
                            .wrapping_add(epoch as u64)
                            .wrapping_add((t as u64 + 1) << 32),
                    );
                    let mut stores = model.tables();
                    train_slice(model, &mut stores, plan, ds, sampler, slice, &mut rng)
                })
            })
            .collect();
        // join/scope only fail when a trainer thread panicked; re-raise the
        // original payload instead of replacing it with an unwrap message.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
    .unwrap_or_else(|p| std::panic::resume_unwind(p));

    results
        .into_iter()
        .fold(SliceSums::default(), |a, b| SliceSums {
            loss: a.loss + b.loss,
            grad: a.grad + b.grad,
            count: a.count + b.count,
        })
        .stats()
}

/// The epoch's example order: every index once, shuffled from the seed.
fn shuffled_order(n: usize, opts: &TrainOptions, epoch: u32) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut rng =
        StdRng::seed_from_u64(opts.seed ^ (epoch as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    order.shuffle(&mut rng);
    order
}

/// Negative-sampling stream of an exact (`threads == 1`) epoch.
fn exact_rng(opts: &TrainOptions, epoch: u32) -> StdRng {
    StdRng::seed_from_u64(opts.seed.wrapping_add(epoch as u64))
}

/// Emits one epoch's obs record into the running attempt's log (times on
/// the attempt's clock; the engine supplies the lane): a `train`-category
/// span plus loss / gradient-magnitude / Adagrad-scale histograms. The
/// Adagrad accumulator is sampled from the item-factor table (at most 64
/// rows, evenly strided) — enough to see the "damped frequent, boosted rare"
/// spread without dumping every row.
pub fn observe_epoch(
    obs: &mut ObsLog,
    start_s: f64,
    end_s: f64,
    epoch: u32,
    stats: &EpochStats,
    model: &BprModel,
) {
    if !obs.level_enabled(Level::Debug) {
        return;
    }
    obs.span(
        Level::Debug,
        "train",
        &format!("epoch {epoch}"),
        start_s,
        end_s,
        &[
            ("epoch", epoch.into()),
            ("mean_loss", stats.mean_loss.into()),
            ("mean_grad", stats.mean_grad.into()),
            ("examples", stats.examples.into()),
        ],
    );
    obs.histogram("train.epoch_loss", stats.mean_loss);
    obs.histogram("train.grad_norm", stats.mean_grad);
    let table = model.tables()[0];
    let rows = table.rows();
    if rows > 0 {
        let step = (rows / 64).max(1);
        let mut r = 0;
        while r < rows {
            obs.histogram("train.adagrad_scale", f64::from(table.adagrad_acc(r)));
            r += step;
        }
    }
}

/// One item's feature rows, as filtered by `hp.features`.
#[derive(Debug)]
struct ItemRows {
    /// `RowPlan::cats[cat_start..cat_end]`: the ancestor category rows.
    cat_start: u32,
    cat_end: u32,
    /// Brand row; `None` when the item has no brand or brands are off.
    brand: Option<u32>,
    /// Price-bucket row; `None` when the item has no price or prices are off.
    price: Option<u32>,
}

/// Every item's parameter rows, resolved once per epoch so the step never
/// walks the taxonomy, re-tests a feature switch or takes a `price.ln()`.
#[derive(Debug)]
struct RowPlan {
    items: Vec<ItemRows>,
    /// Category rows of all items back to back, each item's in
    /// `Taxonomy::ancestors` order; empty with the taxonomy off.
    cats: Vec<u32>,
}

impl RowPlan {
    fn build(catalog: &Catalog, features: FeatureSwitches) -> Self {
        let mut cats: Vec<u32> = Vec::new();
        let items = catalog
            .iter()
            .map(|(_, meta)| {
                let cat_start = cats.len() as u32;
                if features.use_taxonomy {
                    cats.extend(catalog.taxonomy.ancestors(meta.category).map(|c| c.0));
                }
                ItemRows {
                    cat_start,
                    cat_end: cats.len() as u32,
                    brand: meta.brand.filter(|_| features.use_brand).map(|b| b.0),
                    price: meta
                        .price
                        .filter(|_| features.use_price)
                        .map(|p| price_bucket(p) as u32),
                }
            })
            .collect();
        Self { items, cats }
    }

    #[inline]
    fn rows(&self, item: ItemId) -> (&ItemRows, &[u32]) {
        let rows = &self.items[item.index()];
        (
            rows,
            &self.cats[rows.cat_start as usize..rows.cat_end as usize],
        )
    }
}

/// [`BprModel::item_rep_into`] over `stores`: same rows, same order.
fn item_rep<S: RowStore>(stores: &[S; 6], plan: &RowPlan, item: ItemId, out: &mut [f32]) {
    let (rows, cats) = plan.rows(item);
    stores[ITEM].read(item.index(), out);
    for &c in cats {
        stores[CAT].accumulate(c as usize, out);
    }
    if let Some(b) = rows.brand {
        stores[BRAND].accumulate(b as usize, out);
    }
    if let Some(p) = rows.price {
        stores[PRICE].accumulate(p as usize, out);
    }
}

/// [`BprModel::context_rep_into`] over `stores`: same rows, same order.
fn context_rep<S: RowStore>(stores: &[S; 6], plan: &RowPlan, item: ItemId, out: &mut [f32]) {
    let (_, cats) = plan.rows(item);
    stores[CTX].read(item.index(), out);
    for &c in cats {
        stores[CAT_CTX].accumulate(c as usize, out);
    }
}

/// Steps the item row and every feature row of `item` along `grad`, each
/// through its own Adagrad accumulator.
fn step_item<S: RowStore>(
    stores: &mut [S; 6],
    plan: &RowPlan,
    item: ItemId,
    grad: &[f32],
    lr: f32,
    reg: f32,
) {
    let (rows, cats) = plan.rows(item);
    stores[ITEM].adagrad_step(item.index(), grad, lr, reg);
    // Shared feature rows learn at a damped rate: the representation is a
    // sum of all active rows, so stepping each by the full gradient would
    // multiply the effective learning rate by the component count.
    let n_components =
        cats.len() + usize::from(rows.brand.is_some()) + usize::from(rows.price.is_some());
    if n_components == 0 {
        return;
    }
    let lr_f = lr / n_components as f32;
    for &c in cats {
        stores[CAT].adagrad_step(c as usize, grad, lr_f, reg);
    }
    if let Some(b) = rows.brand {
        stores[BRAND].adagrad_step(b as usize, grad, lr_f, reg);
    }
    if let Some(p) = rows.price {
        stores[PRICE].adagrad_step(p as usize, grad, lr_f, reg);
    }
}

/// Steps one context event's rows (context embedding + its category rows).
fn step_context<S: RowStore>(
    stores: &mut [S; 6],
    plan: &RowPlan,
    item: ItemId,
    grad: &[f32],
    lr: f32,
    reg: f32,
) {
    let (_, cats) = plan.rows(item);
    stores[CTX].adagrad_step(item.index(), grad, lr, reg);
    if !cats.is_empty() {
        let lr_f = lr / cats.len() as f32;
        for &c in cats {
            stores[CAT_CTX].adagrad_step(c as usize, grad, lr_f, reg);
        }
    }
}

/// The BPR example step over one slice of example indices, on whichever
/// storage `stores` is. `model` supplies hyper-parameters and context
/// weights only — every parameter read and write goes through `stores`,
/// including the adaptive sampler's candidate scores.
fn train_slice<S: RowStore>(
    model: &BprModel,
    stores: &mut [S; 6],
    plan: &RowPlan,
    ds: &Dataset,
    sampler: &NegativeSampler<'_>,
    indices: &[u32],
    rng: &mut StdRng,
) -> SliceSums {
    let f = model.dim();
    let mut user_vec = vec![0.0f32; f];
    let mut rep_pos = vec![0.0f32; f];
    let mut rep_neg = vec![0.0f32; f];
    let mut grad = vec![0.0f32; f];
    let mut ctx_grad = vec![0.0f32; f];
    let mut scratch = vec![0.0f32; f];
    let mut weights: Vec<f32> = Vec::new();
    let hp = &model.hp;
    let lr = hp.learning_rate;
    let k = hp.context_len as usize;

    let mut sums = SliceSums::default();

    for &idx in indices {
        let e = ds.examples.examples[idx as usize];
        let ctx_full = ds.examples.context(&e);
        if ctx_full.is_empty() {
            continue;
        }
        // Eq. 1 over the trailing K events, as `BprModel::user_embedding_into`.
        let ctx = &ctx_full[ctx_full.len().saturating_sub(k)..];
        model.context_weights(ctx, &mut weights);
        user_vec.fill(0.0);
        for ((item, _), &w) in ctx.iter().zip(weights.iter()) {
            context_rep(stores, plan, *item, &mut scratch);
            for (o, s) in user_vec.iter_mut().zip(scratch.iter()) {
                *o += w * s;
            }
        }
        let Some(neg) = sampler.sample(ds, &e, rng, |j| {
            item_rep(stores, plan, j, &mut scratch);
            dot(&user_vec, &scratch)
        }) else {
            continue;
        };
        item_rep(stores, plan, e.pos, &mut rep_pos);
        item_rep(stores, plan, neg, &mut rep_neg);
        let s: f32 = user_vec
            .iter()
            .zip(rep_pos.iter().zip(rep_neg.iter()))
            .map(|(u, (p, n))| u * (p - n))
            // xtask: allow(dot-seam) — fused pos/neg margin on the training path; splitting into two model::dot calls would reorder float accumulation and change trained bytes
            .sum();
        // Numerically stable softplus(−s).
        let loss = if s > 0.0 {
            ((-s).exp()).ln_1p()
        } else {
            -s + (s.exp()).ln_1p()
        };
        sums.loss += loss as f64;
        sums.count += 1;
        let sig = 1.0 / (1.0 + s.exp()); // σ(−s): gradient magnitude
        sums.grad += f64::from(sig);

        // Positive item rows: dL/d rep_pos = −σ(−s)·u.
        for (g, u) in grad.iter_mut().zip(user_vec.iter()) {
            *g = -sig * u;
        }
        step_item(stores, plan, e.pos, &grad, lr, hp.reg_item);
        // Negative item rows: dL/d rep_neg = +σ(−s)·u.
        for g in grad.iter_mut() {
            *g = -*g;
        }
        step_item(stores, plan, neg, &grad, lr, hp.reg_item);
        // Context rows: dL/du = −σ(−s)·(rep_pos − rep_neg), scaled by each
        // event's context weight (`weights` still matches `ctx`). The
        // unweighted part is the same for every event of the example.
        for (g, (p, n)) in ctx_grad.iter_mut().zip(rep_pos.iter().zip(rep_neg.iter())) {
            *g = -sig * (p - n);
        }
        for ((item, _), &w) in ctx.iter().zip(weights.iter()) {
            for (g, c) in grad.iter_mut().zip(ctx_grad.iter()) {
                *g = c * w;
            }
            step_context(stores, plan, *item, &grad, lr, hp.reg_context);
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigmund_types::{
        ActionType, BrandId, HyperParams, Interaction, ItemId, ItemMeta, NegativeSamplerKind,
        RetailerId, Taxonomy, UserId,
    };

    fn catalog(n: usize) -> Catalog {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let b = t.add_child(t.root());
        let mut c = Catalog::new(RetailerId(0), t);
        for i in 0..n {
            c.add_item(ItemMeta::bare(if i % 2 == 0 { a } else { b }));
        }
        c
    }

    /// Users 0..n_users deterministically browse a preferred block of items,
    /// giving the model clear structure to learn.
    fn dataset(n_items: usize, n_users: usize) -> Dataset {
        let mut evs = Vec::new();
        for u in 0..n_users {
            let base = (u % 4) * (n_items / 4);
            for s in 0..6 {
                let item = (base + (u + s * 3) % (n_items / 4)) % n_items;
                evs.push(Interaction::new(
                    UserId(u as u32),
                    ItemId(item as u32),
                    ActionType::View,
                    s as u64,
                ));
            }
        }
        Dataset::build(n_items, evs, false)
    }

    fn hp() -> HyperParams {
        HyperParams {
            factors: 8,
            learning_rate: 0.1,
            epochs: 5,
            ..Default::default()
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let c = catalog(40);
        let ds = dataset(40, 24);
        let m = BprModel::init(&c, hp());
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let stats = train(
            &m,
            &c,
            &ds,
            &s,
            TrainOptions {
                epochs: 8,
                threads: 1,
                seed: 3,
            },
        );
        assert_eq!(stats.len(), 8);
        let first = stats[0].mean_loss;
        let last = stats.last().unwrap().mean_loss;
        assert!(
            last < first,
            "loss should fall: first {first:.4} last {last:.4}"
        );
        // BPR starts near ln 2 with random init.
        assert!((first - std::f64::consts::LN_2).abs() < 0.2);
    }

    #[test]
    fn single_thread_is_deterministic() {
        let c = catalog(20);
        let ds = dataset(20, 10);
        let opts = TrainOptions {
            epochs: 3,
            threads: 1,
            seed: 5,
        };
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let m1 = BprModel::init(&c, hp());
        let st1 = train(&m1, &c, &ds, &s, opts);
        let m2 = BprModel::init(&c, hp());
        let st2 = train(&m2, &c, &ds, &s, opts);
        assert_eq!(st1, st2);
        let mut r1 = vec![0.0; 8];
        let mut r2 = vec![0.0; 8];
        m1.item_rep_into(&c, ItemId(0), &mut r1);
        m2.item_rep_into(&c, ItemId(0), &mut r2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn hogwild_threads_also_reduce_loss() {
        let c = catalog(40);
        let ds = dataset(40, 24);
        let m = BprModel::init(&c, hp());
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let stats = train(
            &m,
            &c,
            &ds,
            &s,
            TrainOptions {
                epochs: 8,
                threads: 4,
                seed: 3,
            },
        );
        assert!(stats.last().unwrap().mean_loss < stats[0].mean_loss);
        assert!(stats[0].examples > 0);
    }

    #[test]
    fn empty_dataset_is_a_noop() {
        let c = catalog(4);
        let ds = Dataset::build(4, Vec::new(), false);
        let m = BprModel::init(&c, hp());
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let stats = train(&m, &c, &ds, &s, TrainOptions::default());
        assert!(stats.iter().all(|e| e.examples == 0));
    }

    #[test]
    fn training_separates_positive_from_negative() {
        // One user repeatedly alternating between items 0 and 2: the model
        // must learn a higher affinity for them than for never-seen item 1.
        let c = catalog(10);
        let mut evs = Vec::new();
        for u in 0..8u32 {
            for t in 0..8u64 {
                evs.push(Interaction::new(
                    UserId(u),
                    ItemId(if t % 2 == 0 { 0 } else { 2 }),
                    ActionType::View,
                    t,
                ));
            }
        }
        let ds = Dataset::build(10, evs, false);
        let m = BprModel::init(&c, hp());
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        train(
            &m,
            &c,
            &ds,
            &s,
            TrainOptions {
                epochs: 30,
                threads: 1,
                seed: 1,
            },
        );
        let ctx = vec![(ItemId(0), ActionType::View)];
        let pos = m.affinity(&c, &ctx, ItemId(2));
        let neg = m.affinity(&c, &ctx, ItemId(1));
        assert!(pos > neg, "pos {pos} should beat neg {neg}");
    }

    #[test]
    fn adagrad_accumulators_grow_during_training() {
        let c = catalog(20);
        let ds = dataset(20, 10);
        let m = BprModel::init(&c, hp());
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        train(
            &m,
            &c,
            &ds,
            &s,
            TrainOptions {
                epochs: 2,
                threads: 1,
                seed: 9,
            },
        );
        let total_acc: f32 = (0..20).map(|i| m.tables()[0].adagrad_acc(i)).sum();
        assert!(total_acc > 0.0);
    }

    #[test]
    fn mean_grad_tracks_convergence() {
        let c = catalog(40);
        let ds = dataset(40, 24);
        let m = BprModel::init(&c, hp());
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let stats = train(
            &m,
            &c,
            &ds,
            &s,
            TrainOptions {
                epochs: 8,
                threads: 1,
                seed: 3,
            },
        );
        // σ(−s) starts near 0.5 (random scores) and falls as the model
        // separates positives from negatives.
        assert!(
            (stats[0].mean_grad - 0.5).abs() < 0.1,
            "{}",
            stats[0].mean_grad
        );
        assert!(stats.last().unwrap().mean_grad < stats[0].mean_grad);
    }

    #[test]
    fn observe_epoch_emits_span_and_histograms() {
        use sigmund_obs::{Level, Obs, Track};
        let c = catalog(20);
        let ds = dataset(20, 10);
        let m = BprModel::init(&c, hp());
        let s = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let opts = TrainOptions {
            epochs: 1,
            threads: 1,
            seed: 5,
        };
        let stats = train_epoch(&m, &c, &ds, &s, &opts, 0);
        let obs = Obs::recording(Level::Debug);
        let mut log = obs.log();
        observe_epoch(&mut log, 10.0, 12.0, 0, &stats, &m);
        obs.absorb(log, 0.0, Track::machine(0, 0));
        let trace = obs.trace_json();
        assert!(trace.contains("\"cat\":\"train\""), "{trace}");
        assert!(trace.contains("epoch 0"), "{trace}");
        let metrics = obs.metrics_jsonl();
        assert!(metrics.contains("train.epoch_loss"), "{metrics}");
        assert!(metrics.contains("train.grad_norm"), "{metrics}");
        assert!(metrics.contains("train.adagrad_scale"), "{metrics}");
        // Below the Debug threshold nothing is recorded.
        let quiet = Obs::recording(Level::Info);
        let mut log = quiet.log();
        observe_epoch(&mut log, 10.0, 12.0, 0, &stats, &m);
        quiet.absorb(log, 0.0, Track::machine(0, 0));
        assert_eq!(quiet.event_count(), 0);
        assert_eq!(quiet.metrics_jsonl(), "");
    }

    // --- storage invariance: one step, two storages, the same bytes -------

    fn all_feature_switches() -> Vec<FeatureSwitches> {
        (0..8u8)
            .map(|m| FeatureSwitches {
                use_taxonomy: m & 1 != 0,
                use_brand: m & 2 != 0,
                use_price: m & 4 != 0,
            })
            .collect()
    }

    /// Three taxonomy levels; every 4th item has no brand, every 5th no
    /// price, item 7 neither.
    fn rich_catalog(n: usize) -> Catalog {
        let mut t = Taxonomy::new();
        let a = t.add_child(t.root());
        let a1 = t.add_child(a);
        let a2 = t.add_child(a);
        let b = t.add_child(t.root());
        let cats = [a1, a2, b, a, t.root()];
        let mut c = Catalog::new(RetailerId(0), t);
        for i in 0..n {
            c.add_item(ItemMeta {
                category: cats[i % cats.len()],
                brand: (i % 4 != 0 && i != 7).then_some(BrandId((i % 3) as u32)),
                price: (i % 5 != 0 && i != 7).then_some(3.0 + i as f32 * 17.0),
                facet: None,
            });
        }
        c
    }

    /// Sessions mixing all four action levels, so the example set carries
    /// strength constraints next to the next-item examples.
    fn rich_dataset(n_items: usize, n_users: usize) -> Dataset {
        let mut evs = Vec::new();
        for u in 0..n_users {
            for s in 0..7 {
                evs.push(Interaction::new(
                    UserId(u as u32),
                    ItemId(((u * 5 + s * 3) % n_items) as u32),
                    ActionType::ALL[(u + s) % 4],
                    s as u64,
                ));
            }
        }
        let ds = Dataset::build(n_items, evs, false);
        assert!(ds
            .examples
            .examples
            .iter()
            .any(|e| matches!(e.kind, crate::dataset::ExampleKind::Strength { .. })));
        ds
    }

    /// Every parameter and Adagrad accumulator of a model, as bits.
    fn model_bits(m: &BprModel) -> Vec<Vec<u32>> {
        m.tables()
            .iter()
            .flat_map(|t| [t.to_vec(), t.acc_to_vec()])
            .map(|v| v.into_iter().map(f32::to_bits).collect())
            .collect()
    }

    /// `train_epoch` at `threads: 1` minus the checkout: the same exact epoch
    /// run directly on the model's atomic tables.
    fn atomic_epoch(
        model: &BprModel,
        catalog: &Catalog,
        ds: &Dataset,
        sampler: &NegativeSampler<'_>,
        opts: &TrainOptions,
        epoch: u32,
    ) -> EpochStats {
        let order = shuffled_order(ds.n_examples(), opts, epoch);
        let plan = RowPlan::build(catalog, model.hp.features);
        let mut rng = exact_rng(opts, epoch);
        train_slice(
            model,
            &mut model.tables(),
            &plan,
            ds,
            sampler,
            &order,
            &mut rng,
        )
        .stats()
    }

    #[test]
    fn row_plan_reps_match_model_reps() {
        let c = rich_catalog(24);
        for features in all_feature_switches() {
            let m = BprModel::init(&c, HyperParams { features, ..hp() });
            let plan = RowPlan::build(&c, features);
            let (mut want, mut got) = (vec![0.0f32; 8], vec![0.0f32; 8]);
            for item in c.item_ids() {
                m.item_rep_into(&c, item, &mut want);
                item_rep(&m.tables(), &plan, item, &mut got);
                assert_eq!(want, got, "item rep of {item} under {features:?}");
                m.context_rep_into(&c, item, &mut want);
                context_rep(&m.tables(), &plan, item, &mut got);
                assert_eq!(want, got, "context rep of {item} under {features:?}");
            }
        }
    }

    #[test]
    fn storage_invariance_over_features_and_samplers() {
        let c = rich_catalog(24);
        let ds = rich_dataset(24, 16);
        let opts = TrainOptions {
            epochs: 2,
            threads: 1,
            seed: 11,
        };
        for features in all_feature_switches() {
            for kind in [
                NegativeSamplerKind::UniformUnseen,
                NegativeSamplerKind::TaxonomyAware,
                NegativeSamplerKind::Adaptive,
            ] {
                let sampler = NegativeSampler::new(kind, &c, None);
                let h = HyperParams { features, ..hp() };
                let plain = BprModel::init(&c, h.clone());
                let atomic = BprModel::init(&c, h);
                for epoch in 0..opts.epochs {
                    let sp = train_epoch(&plain, &c, &ds, &sampler, &opts, epoch);
                    let sa = atomic_epoch(&atomic, &c, &ds, &sampler, &opts, epoch);
                    assert_eq!(sp, sa, "{features:?} {kind:?} epoch {epoch}");
                    assert!(sp.examples > 0);
                    assert_eq!(
                        model_bits(&plain),
                        model_bits(&atomic),
                        "{features:?} {kind:?} epoch {epoch}"
                    );
                }
            }
        }
    }

    /// The adaptive sampler must score the parameters the epoch is mutating.
    /// The checked-in copy is poisoned right after checkout: one read of it
    /// anywhere in the step (user vector, reps, candidate scores) and the
    /// plain run no longer equals the atomic one.
    #[test]
    fn storage_invariance_adaptive_sampler_reads_live_parameters() {
        let c = rich_catalog(24);
        let ds = rich_dataset(24, 16);
        let opts = TrainOptions {
            epochs: 1,
            threads: 1,
            seed: 23,
        };
        let sampler = NegativeSampler::new(NegativeSamplerKind::Adaptive, &c, None);
        let h = HyperParams {
            features: FeatureSwitches::ALL,
            ..hp()
        };
        let plain = BprModel::init(&c, h.clone());
        let atomic = BprModel::init(&c, h);
        // One ordinary epoch first, so the second starts from moved rows.
        train_epoch(&plain, &c, &ds, &sampler, &opts, 0);
        atomic_epoch(&atomic, &c, &ds, &sampler, &opts, 0);

        let mut stores = plain.tables().map(Table::checkout);
        for t in plain.tables() {
            t.load_from(&vec![f32::NAN; t.rows() * t.dim()]);
        }
        let order = shuffled_order(ds.n_examples(), &opts, 1);
        let plan = RowPlan::build(&c, plain.hp.features);
        let mut rng = exact_rng(&opts, 1);
        let sp = train_slice(&plain, &mut stores, &plan, &ds, &sampler, &order, &mut rng).stats();
        for (table, checked_out) in plain.tables().into_iter().zip(&stores) {
            table.checkin(checked_out);
        }
        let sa = atomic_epoch(&atomic, &c, &ds, &sampler, &opts, 1);
        assert_eq!(sp, sa);
        assert_eq!(model_bits(&plain), model_bits(&atomic));
    }

    #[test]
    fn epoch_by_epoch_equals_train() {
        let c = rich_catalog(24);
        let ds = rich_dataset(24, 16);
        let opts = TrainOptions {
            epochs: 3,
            threads: 1,
            seed: 5,
        };
        let sampler = NegativeSampler::new(NegativeSamplerKind::Adaptive, &c, None);
        let h = HyperParams {
            features: FeatureSwitches::ALL,
            ..hp()
        };
        let whole = BprModel::init(&c, h.clone());
        let stats = train(&whole, &c, &ds, &sampler, opts);
        let stepped = BprModel::init(&c, h);
        let stepped_stats: Vec<EpochStats> = (0..3)
            .map(|e| train_epoch(&stepped, &c, &ds, &sampler, &opts, e))
            .collect();
        assert_eq!(stats, stepped_stats);
        assert_eq!(model_bits(&whole), model_bits(&stepped));
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted() {
        use crate::snapshot::ModelSnapshot;
        let c = rich_catalog(24);
        let ds = rich_dataset(24, 16);
        let opts = TrainOptions {
            epochs: 3,
            threads: 1,
            seed: 7,
        };
        let sampler = NegativeSampler::new(NegativeSamplerKind::UniformUnseen, &c, None);
        let h = HyperParams {
            features: FeatureSwitches::ALL,
            ..hp()
        };
        let straight = BprModel::init(&c, h.clone());
        train(&straight, &c, &ds, &sampler, opts);
        for k in 0..opts.epochs {
            // Epochs 0..=k, capture, restore into a new model, run the rest.
            let first = BprModel::init(&c, h.clone());
            for e in 0..=k {
                train_epoch(&first, &c, &ds, &sampler, &opts, e);
            }
            let blob = ModelSnapshot::capture(&first).to_bytes();
            let resumed = ModelSnapshot::from_bytes(&blob)
                .unwrap()
                .restore(&c, 99)
                .unwrap();
            for e in k + 1..opts.epochs {
                train_epoch(&resumed, &c, &ds, &sampler, &opts, e);
            }
            assert_eq!(
                model_bits(&straight),
                model_bits(&resumed),
                "capture after epoch {k}"
            );
        }
    }
}
