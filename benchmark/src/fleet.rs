//! Seeded fleet inputs and the pipeline configuration the day workloads
//! share.

use crate::spec::{DaySizes, FleetShape, INCREMENTAL_EPOCHS, KEEP_TOP, REC_K};
use sigmund_cluster::CellSpec;
use sigmund_core::prelude::GridSpec;
use sigmund_datagen::{RetailerData, RetailerSpec};
use sigmund_obs::ByteLedger;
use sigmund_pipeline::PipelineConfig;
use sigmund_types::{splitmix64, CellId, NegativeSamplerKind, RetailerId};

/// Worker threads one child may use in total (`nproc` on the target is 2).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Catalog sizes: evenly spaced quantiles of the truncated Pareto, laid out
/// by a fixed stride so neighbouring ids differ in size. A random draw
/// (`FleetSpec::spec_of`) would make the fleet's total size — and with it
/// every timing — swing by tens of percent from seed to seed; quantiles
/// keep the skew and pin the total, so the seed only changes content.
pub fn stratified_sizes(shape: &FleetShape) -> Vec<usize> {
    let n = shape.n_retailers;
    let quantile = |i: usize| {
        let u = (i as f64 + 0.5) / n as f64;
        let raw = shape.min_items as f64 * (1.0 - u).powf(-1.0 / shape.pareto_alpha);
        (raw.min(shape.max_items as f64) as usize).max(shape.min_items)
    };
    // 7 is coprime to every fleet size used here except multiples of 7,
    // where the stride falls back to 1 (still a permutation).
    let stride = if n.is_multiple_of(7) { 1 } else { 7 };
    (0..n).map(|i| quantile(i * stride % n)).collect()
}

/// Users generated beyond the nominal count, so the log can be cut to a
/// fixed amount of work below.
const USER_OVERSAMPLE: f64 = 1.3;
/// Events a session contributes on average (measured: about 7.5).
const EVENTS_PER_SESSION: f64 = 7.0;
/// The model's context window (`HyperParams::context_len`): an example's
/// cost grows with its user's history up to this many events.
const CONTEXT_LEN: usize = 25;

/// Training work of one user's `e` chronological events: every event after
/// the first is an example whose context is the (capped) history before it.
fn user_work(e: usize) -> usize {
    (1..e).map(|t| t.min(CONTEXT_LEN)).sum()
}

/// Generates the fleet for `seed`: sizes from [`stratified_sizes`], content
/// from a per-retailer seed. Each retailer's log is cut where its training
/// work — the summed context lengths above — reaches that of the nominal
/// user count with exactly sessions × [`EVENTS_PER_SESSION`] events each.
/// Session counts and lengths are geometric draws; uncut, a fleet's event
/// count moves by several percent between seeds, and cut by event count its
/// context work still does (measured: 8 %, and day time with it). Like the
/// catalog sizes, the volume of work is part of the workload's definition;
/// the seed chooses the content.
pub fn generate(shape: &FleetShape, seed: u64) -> Vec<RetailerData> {
    stratified_sizes(shape)
        .into_iter()
        .enumerate()
        .map(|(i, n_items)| {
            let n_users = (n_items as f64 * shape.users_per_item).max(10.0);
            let mut spec = RetailerSpec::sized(
                RetailerId::from_index(i),
                n_items,
                (n_users * USER_OVERSAMPLE).ceil() as usize,
                splitmix64(seed ^ splitmix64(i as u64)),
            );
            spec.sessions_per_user = shape.sessions_per_user;
            let mut data = spec.generate();
            let per_user =
                user_work((f64::from(shape.sessions_per_user) * EVENTS_PER_SESSION) as usize);
            let budget = (n_users * per_user as f64) as usize;
            // The log is sorted by user, then time: the cut keeps whole
            // leading users and part of one.
            let (mut work, mut nth, mut user) = (0usize, 0usize, None);
            let keep = data.events.iter().position(|e| {
                nth = if user == Some(e.user) { nth + 1 } else { 0 };
                user = Some(e.user);
                work += nth.min(CONTEXT_LEN);
                work > budget
            });
            data.events.truncate(keep.unwrap_or(data.events.len()));
            data
        })
        .collect()
}

pub fn grid(sizes: &DaySizes) -> GridSpec {
    GridSpec {
        factors: sizes.factors.clone(),
        learning_rates: sizes.learning_rates.clone(),
        regs: vec![(0.01, 0.01)],
        features: sizes.features.clone(),
        samplers: vec![NegativeSamplerKind::UniformUnseen],
        seeds: vec![1],
        epochs: sizes.epochs,
    }
}

/// The configuration every day workload runs: training `threads: 1` so
/// MAP@10 and output bytes repeat exactly, read-only inference fan-out over
/// at most two threads, journal and streamed publish on.
pub fn pipeline_cfg(sizes: &DaySizes, seed: u64) -> PipelineConfig {
    PipelineConfig {
        cells: (0..2).map(|i| CellSpec::standard(CellId(i), 8)).collect(),
        preemption: sizes.preemption,
        grid: grid(sizes),
        keep_top: KEEP_TOP,
        incremental_epochs: INCREMENTAL_EPOCHS,
        threads: 1,
        infer_threads: nproc().min(2),
        rec_k: REC_K,
        items_per_split: sizes.items_per_split,
        seed,
        stream_recs: true,
        ledger: ByteLedger::tracking(),
        journal: true,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: FleetShape = FleetShape {
        n_retailers: 12,
        min_items: 20,
        max_items: 2_000,
        pareto_alpha: 1.16,
        users_per_item: 1.0,
        sessions_per_user: 3.0,
    };

    #[test]
    fn sizes_are_a_skewed_permutation_independent_of_seed() {
        let sizes = stratified_sizes(&SHAPE);
        assert_eq!(sizes.len(), 12);
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_ne!(sizes, sorted, "stride interleaves sizes");
        assert!(sorted[0] >= 20 && *sorted.last().unwrap() <= 2_000);
        assert!(sorted[11] > 4 * sorted[5], "heavy tail: {sorted:?}");
        let tiny = FleetShape {
            n_retailers: 3,
            max_items: 40,
            ..SHAPE
        };
        let (a, b) = (generate(&tiny, 1), generate(&tiny, 2));
        let items = |f: &[RetailerData]| f.iter().map(|d| d.catalog.len()).collect::<Vec<_>>();
        assert_eq!(items(&a), items(&b));
        assert_ne!(a[0].events, b[0].events);
        // n items -> the context work of n users with 21 events each,
        // whatever the seed (short by less than the one event that would
        // have crossed the line).
        let work = |d: &RetailerData| {
            let mut per_user = std::collections::BTreeMap::new();
            for e in &d.events {
                *per_user.entry(e.user).or_insert(0usize) += 1;
            }
            per_user.values().map(|&e| user_work(e)).sum::<usize>()
        };
        assert_eq!(user_work(21), 210);
        for (x, y) in a.iter().zip(&b) {
            let budget = x.catalog.len() * 210;
            assert!(
                (budget - CONTEXT_LEN..=budget).contains(&work(x)),
                "{} vs {budget}",
                work(x)
            );
            assert!((budget - CONTEXT_LEN..=budget).contains(&work(y)));
        }
        assert_eq!(generate(&tiny, 1)[2].events, a[2].events);
    }
}
