//! The lookup side: synthetic tables, the Zipf request log, and the
//! closed-loop replay that times every lookup.
//!
//! The generators follow `sigmund-bench`'s `serve.rs` (same table shape,
//! same splitmix64 streams) but live here so that file stays free to
//! change: the benchmark must not move when the code it judges does.

use crate::clock::{wall_now, Tracer};
use crate::day::Tables;
use crate::spec::LOOKUP_BLOCK;
use sigmund_core::prelude::ItemRecs;
use sigmund_serving::{RecSurface, ServingStats, ServingStore};
use sigmund_types::{splitmix64, unit_f64, ItemId, RetailerId};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Item indexes whose synthetic purchase list is empty: one in seven.
const EMPTY_STRIDE: usize = 7;

/// Synthesizes one retailer's table: every item gets `rec_k` view-based
/// neighbours; purchase lists are empty for one item in [`EMPTY_STRIDE`].
/// `rot` varies targets across publishes without changing any list's
/// emptiness, so a republish never changes how a request classifies.
pub fn synth_table(n_items: usize, rec_k: usize, rot: u64) -> Vec<ItemRecs> {
    let k = rec_k.min(n_items.saturating_sub(1)).max(1);
    let rot = rot as usize;
    (0..n_items)
        .map(|j| ItemRecs {
            view_based: (1..=k)
                .map(|m| (ItemId(((j + m + rot) % n_items) as u32), 1.0 / m as f32))
                .collect(),
            purchase_based: if j % EMPTY_STRIDE == 0 {
                Vec::new()
            } else {
                (1..=k)
                    .map(|m| (ItemId(((j + 2 * m + rot) % n_items) as u32), 0.9 / m as f32))
                    .collect()
            },
        })
        .collect()
}

/// One replayed lookup. `item` may be out of catalog range — those are the
/// log's deliberate misses.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub retailer: RetailerId,
    pub item: ItemId,
    pub surface: RecSurface,
}

/// How purchase-surface requests choose their item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PurchasePick {
    /// An item whose synthetic purchase list is empty by construction.
    EmptyBySynthesis,
    /// Any item (pipeline-built tables decide emptiness themselves).
    Any,
}

/// What a request log looks like.
#[derive(Debug, Clone, Copy)]
pub struct LogSpec {
    pub seed: u64,
    /// Separates independent logs of one seed (warm-up vs replay).
    pub salt: u64,
    pub requests: usize,
    pub zipf_s: f64,
    pub purchase: PurchasePick,
    /// In-catalog requests address only the first `head_items` items of a
    /// retailer: the popular head traffic concentrates on. Out-of-catalog
    /// probes still aim past the whole catalog.
    pub head_items: usize,
}

/// The Zipf log: retailer `i` has rank `i + 1` under exponent `zipf_s`;
/// 94 % view lookups, 4 % purchase lookups, 2 % out-of-catalog probes. A
/// pure function of the spec and the catalog sizes.
pub fn zipf_log(spec: &LogSpec, n_items: &[usize]) -> Vec<Request> {
    let weights: Vec<f64> = (0..n_items.len())
        .map(|i| ((i + 1) as f64).powf(-spec.zipf_s))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf: Vec<f64> = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    let mix = |t: usize, lane: u64| {
        splitmix64(spec.seed ^ spec.salt ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane)
    };
    (0..spec.requests)
        .map(|t| {
            let u = unit_f64(mix(t, 0xA11CE));
            let r = cdf.partition_point(|&c| c <= u).min(n_items.len() - 1);
            let n = n_items[r];
            let head = n.min(spec.head_items);
            let sel = mix(t, 0xB0B) % 100;
            let pick = mix(t, 0xCAFE) as usize;
            let (item, surface) = if sel < 2 {
                (n, RecSurface::ViewBased)
            } else if sel < 6 {
                let item = match spec.purchase {
                    PurchasePick::EmptyBySynthesis => {
                        pick % ((head - 1) / EMPTY_STRIDE + 1) * EMPTY_STRIDE
                    }
                    PurchasePick::Any => pick % head,
                };
                (item, RecSurface::PurchaseBased)
            } else {
                (pick % head, RecSurface::ViewBased)
            };
            Request {
                retailer: RetailerId(r as u32),
                item: ItemId(item as u32),
                surface,
            }
        })
        .collect()
}

/// The hit / empty / miss counts a log must produce against `tables`
/// (computed from the tables themselves, before the replay).
pub fn expected_counts(log: &[Request], tables: &Tables) -> ServingStats {
    let mut s = ServingStats::default();
    for req in log {
        let list = tables
            .get(&req.retailer)
            .and_then(|t| t.get(req.item.index()))
            .map(|recs| match req.surface {
                RecSurface::ViewBased => &recs.view_based,
                RecSurface::PurchaseBased => &recs.purchase_based,
            });
        match list {
            None => s.misses += 1,
            Some(l) if l.is_empty() => s.empties += 1,
            Some(_) => s.hits += 1,
        }
    }
    s
}

/// Churn batches for the publisher to land during a replay.
pub type Batches = Vec<Tables>;

/// Latency quantiles of one block of lookups.
#[derive(Debug, Clone, Copy)]
pub struct BlockQuantiles {
    pub p50: f64,
    pub p99: f64,
    pub p999: f64,
}

/// What one replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    pub lookups: usize,
    pub readers: usize,
    /// Seconds the slowest reader spent inside its lookup blocks. Quantile
    /// bookkeeping between blocks is outside it.
    pub busy_s: f64,
    /// Quantiles of every 64k-lookup block, all readers. The replay's
    /// p50 / p99 are the medians of these: a block is long enough to have
    /// 655 samples beyond its p99, and the median over blocks ignores the
    /// few a scheduler hiccup lands in.
    pub blocks: Vec<BlockQuantiles>,
    /// Every latency in reader order, only when asked for (the traced pass
    /// classes each lookup hot or flash): the gap between consecutive
    /// clock reads, one read per lookup.
    pub lat_ns: Vec<u32>,
    /// Counter deltas over the replay.
    pub stats: ServingStats,
    pub publishes: usize,
}

impl Replay {
    pub fn qps(&self) -> f64 {
        self.lookups as f64 / self.busy_s
    }

    fn over_blocks(&self, pick: impl Fn(&BlockQuantiles) -> f64) -> f64 {
        let mut v: Vec<f64> = self.blocks.iter().map(pick).collect();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    }

    pub fn p50_ns(&self) -> f64 {
        self.over_blocks(|b| b.p50)
    }

    pub fn p99_ns(&self) -> f64 {
        self.over_blocks(|b| b.p99)
    }

    pub fn p999_ns(&self) -> f64 {
        self.over_blocks(|b| b.p999)
    }
}

/// The `q`-quantile of clock-quantized samples, as for grouped data: the
/// nearest-rank value `v` is the floor of a tick-wide bucket, and the
/// quantile is placed inside that bucket by the target rank's position
/// among the samples that read exactly `v`. A median of tick-quantized gaps
/// would otherwise read the same integer on every run, whatever moved
/// underneath it.
pub fn quantile(samples: &[u32], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_unstable();
    quantile_sorted(&v, q)
}

fn quantile_sorted(v: &[u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let target = (v.len() as f64 * q).clamp(0.0, v.len() as f64 - 1.0);
    let at = v[target as usize];
    let lo = v.partition_point(|&x| x < at);
    let hi = v.partition_point(|&x| x <= at);
    // The bucket is as wide as the gap to the next reading the clock gave.
    let width = v.get(hi).map_or(1.0, |&next| f64::from(next - at));
    f64::from(at) + (target - lo as f64) / (hi - lo) as f64 * width
}

/// What to replay and how.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPlan<'a> {
    pub log: &'a [Request],
    /// Times each reader sweeps its chunk (a short log, replayed often,
    /// keeps the harness small beside the process's peak RSS).
    pub passes: usize,
    pub readers: usize,
    /// Batches the publisher lands during the replay, in order.
    pub churn: &'a [Tables],
    /// Keep every latency, not just the block quantiles.
    pub keep_latencies: bool,
}

impl<'a> ReplayPlan<'a> {
    /// One pass, no publisher, quantiles only.
    pub fn once(log: &'a [Request], readers: usize) -> Self {
        ReplayPlan {
            log,
            passes: 1,
            readers,
            churn: &[],
            keep_latencies: false,
        }
    }
}

/// Replays the log closed-loop: each of `readers` threads sweeps its own
/// contiguous chunk, issuing the next lookup when the previous returns.
/// One publisher thread lands `churn` in order, batch `p` once
/// `p / (batches + 1)` of the lookups have been served; it *blocks* on
/// reader progress (condvar), so with nothing to publish it costs no CPU.
/// Spans — one per 64k-lookup block and per publish, never per lookup —
/// reach `tr` after the threads join.
pub fn replay(store: &ServingStore, plan: &ReplayPlan<'_>, tr: &Tracer) -> Replay {
    let ReplayPlan {
        log,
        passes,
        churn,
        keep_latencies,
        ..
    } = *plan;
    let readers = plan.readers.clamp(1, log.len().max(1));
    let before = store.stats();
    let progress = (Mutex::new(0usize), Condvar::new());
    let block = LOOKUP_BLOCK.min(log.len().max(1));
    let total = log.len() * passes;
    type Spans = Vec<(Instant, Instant)>;
    struct Reader {
        blocks: Vec<BlockQuantiles>,
        lat: Vec<u32>,
        spans: Spans,
        busy_s: f64,
    }
    let (per_reader, publish_spans): (Vec<Reader>, Spans) = std::thread::scope(|s| {
        let publisher = s.spawn(|| {
            let mut spans = Spans::new();
            for (p, batch) in churn.iter().enumerate() {
                let threshold = total * (p + 1) / (churn.len() + 1);
                let mut done = progress.0.lock().unwrap_or_else(|e| e.into_inner());
                while *done < threshold {
                    done = progress.1.wait(done).unwrap_or_else(|e| e.into_inner());
                }
                drop(done);
                let start = wall_now();
                store.publish_shared(batch.clone());
                spans.push((start, wall_now()));
            }
            spans
        });
        let handles: Vec<_> = (0..readers)
            .map(|c| {
                let chunk = &log[c * log.len() / readers..(c + 1) * log.len() / readers];
                let progress = &progress;
                s.spawn(move || {
                    let mut r = Reader {
                        blocks: Vec::new(),
                        lat: Vec::new(),
                        spans: Spans::new(),
                        busy_s: 0.0,
                    };
                    let mut buf: Vec<u32> = Vec::with_capacity(block);
                    for part in (0..passes).flat_map(|_| chunk.chunks(block)) {
                        buf.clear();
                        let start = wall_now();
                        let mut prev = start;
                        for req in part {
                            std::hint::black_box(store.lookup(req.retailer, req.item, req.surface));
                            let now = wall_now();
                            buf.push(u32::try_from((now - prev).as_nanos()).unwrap_or(u32::MAX));
                            prev = now;
                        }
                        r.spans.push((start, prev));
                        r.busy_s += (prev - start).as_secs_f64();
                        *progress.0.lock().unwrap_or_else(|e| e.into_inner()) += part.len();
                        progress.1.notify_all();
                        if keep_latencies {
                            r.lat.extend_from_slice(&buf);
                        }
                        buf.sort_unstable();
                        r.blocks.push(BlockQuantiles {
                            p50: quantile_sorted(&buf, 0.50),
                            p99: quantile_sorted(&buf, 0.99),
                            p999: quantile_sorted(&buf, 0.999),
                        });
                    }
                    r
                })
            })
            .collect();
        let per_reader = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect();
        let publish_spans = publisher
            .join()
            .unwrap_or_else(|p| std::panic::resume_unwind(p));
        (per_reader, publish_spans)
    });
    let mut out = Replay {
        lookups: total,
        readers,
        busy_s: 0.0,
        blocks: Vec::new(),
        lat_ns: Vec::new(),
        stats: ServingStats::default(),
        publishes: publish_spans.len(),
    };
    for r in per_reader {
        out.busy_s = out.busy_s.max(r.busy_s);
        out.blocks.extend(r.blocks);
        out.lat_ns.extend(r.lat);
        for (a, b) in r.spans {
            tr.record("serving", "lookup_block", a, b);
        }
    }
    for &(a, b) in &publish_spans {
        tr.record("serving", "churn_publish", a, b);
    }
    let after = store.stats();
    out.stats = ServingStats {
        hits: after.hits - before.hits,
        empties: after.empties - before.empties,
        misses: after.misses - before.misses,
        cold_misses: after.cold_misses - before.cold_misses,
    };
    out
}

/// Lookups the replay got wrong: classification counts that differ from
/// the precomputed ones, plus every cold miss.
pub fn replay_failures(got: &ServingStats, want: &ServingStats) -> u64 {
    got.hits.abs_diff(want.hits)
        + got.empties.abs_diff(want.empties)
        + got.misses.abs_diff(want.misses)
        + got.cold_misses
}

/// Shares a map of owned tables.
pub fn share(tables: impl IntoIterator<Item = (RetailerId, Vec<ItemRecs>)>) -> Tables {
    tables.into_iter().map(|(r, t)| (r, Arc::new(t))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_spec(seed: u64, requests: usize) -> LogSpec {
        LogSpec {
            seed,
            salt: 0,
            requests,
            zipf_s: 1.2,
            purchase: PurchasePick::EmptyBySynthesis,
            head_items: usize::MAX,
        }
    }

    fn fixture() -> (Vec<usize>, Tables) {
        let n_items = vec![30usize, 8, 50, 21];
        let tables = share(
            n_items
                .iter()
                .enumerate()
                .map(|(i, &n)| (RetailerId(i as u32), synth_table(n, 5, 0))),
        );
        (n_items, tables)
    }

    #[test]
    fn log_is_seeded_and_has_all_three_classes() {
        let (n_items, tables) = fixture();
        let spec = log_spec(3, 4_000);
        let (a, b) = (zipf_log(&spec, &n_items), zipf_log(&spec, &n_items));
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| (x.retailer, x.item) == (y.retailer, y.item)));
        let c = zipf_log(&LogSpec { seed: 4, ..spec }, &n_items);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| (x.retailer, x.item) != (y.retailer, y.item)));
        // A head cap keeps hits inside the head; probes still miss.
        let capped = zipf_log(
            &LogSpec {
                head_items: 10,
                ..spec
            },
            &n_items,
        );
        assert!(capped
            .iter()
            .all(|r| r.item.index() < 10 || r.item.index() == n_items[r.retailer.index()]));
        let want = expected_counts(&a, &tables);
        assert_eq!(want.requests(), 4_000);
        // 94 / 4 / 2 within sampling noise.
        assert!((3_650..3_850).contains(&want.hits), "{want:?}");
        assert!(
            (110..220).contains(&want.empties) && (40..130).contains(&want.misses),
            "{want:?}"
        );
    }

    #[test]
    fn replay_matches_expected_counts_with_churn_and_two_readers() {
        let (n_items, tables) = fixture();
        let log = zipf_log(&log_spec(9, 3_000), &n_items);
        let want = expected_counts(&log, &tables);
        let store = ServingStore::new();
        store.publish_shared(tables);
        // Churn lands on a retailer that gets no traffic.
        let churn: Batches = (1..=3)
            .map(|p| share([(RetailerId(9), synth_table(12, 5, p))]))
            .collect();
        let tr = Tracer::on();
        let plan = ReplayPlan {
            passes: 2,
            churn: &churn,
            keep_latencies: true,
            ..ReplayPlan::once(&log, 2)
        };
        let rep = replay(&store, &plan, &tr);
        let twice = ServingStats {
            hits: 2 * want.hits,
            empties: 2 * want.empties,
            misses: 2 * want.misses,
            cold_misses: 0,
        };
        assert_eq!(
            replay_failures(&rep.stats, &twice),
            0,
            "{:?} vs {twice:?}",
            rep.stats
        );
        assert_eq!(
            (rep.lat_ns.len(), rep.lookups, rep.publishes, rep.readers),
            (6_000, 6_000, 3, 2)
        );
        assert_eq!((rep.blocks.len(), store.generation()), (4, 4));
        assert!(rep.qps() > 0.0 && rep.p50_ns() <= rep.p99_ns() && rep.p99_ns() <= rep.p999_ns());
        assert_eq!(
            tr.spans()
                .iter()
                .filter(|s| s.name == "churn_publish")
                .count(),
            3
        );
        // Rank 2 of [1,3,5,9] is the bucket [5,9); rank 2.0 is its floor.
        assert_eq!(quantile(&[5, 1, 9, 3], 0.5), 5.0);
        // Ties spread across their bucket instead of all reading `88`.
        let tied = quantile(&[88, 88, 88, 88, 112, 112], 0.5);
        assert!(tied > 88.0 && tied < 112.0, "{tied}");
    }
}
