//! The batch-swapped, sharded recommendation store.
//!
//! Lookups resolve the *last item* of the request context against the
//! materialized item → top-K tables produced by offline inference; Sigmund
//! deliberately keeps serving-time computation trivial (Section I: "have
//! very lightweight computation at serving-time").
//!
//! Concurrency (DESIGN.md §13): retailers are sharded by
//! `RetailerId % N_SHARDS`, and each shard swaps whole immutable [`Snapshot`]
//! `Arc`s through a lock-free [`ShardState`] — readers never block on a
//! publish. The control plane (generation counter, the [`HISTORY_DEPTH`]-deep
//! rollback ring, truthful-lag queries) lives behind one meta lock that only
//! publishers and operators touch; the query path never takes it, and takes
//! no store-wide lock of its own either: a lookup's outcome is one relaxed
//! bump of its shard's [`ShardCounters`], which [`ServingStore::stats`]
//! sums. With a [`ColdTierConfig`] attached, published tables spill to
//! checksummed `SGRC` flash blobs and lookups go through the
//! admission-controlled hot cache in [`crate::tier`] — one record off flash
//! for a retailer that stays cold — while the default
//! [`ColdTierConfig::disabled`] keeps every table in memory, byte-identical
//! to the untired store.

use crate::shard::{Outcome, ShardCounters, ShardState};
use crate::tier::{ColdTier, ColdTierConfig, FetchResult, TierStats};
use parking_lot::{Mutex, RwLock};
use sigmund_core::inference::{ItemRecs, RecList};
use sigmund_core::model::ContextEvent;
use sigmund_dfs::Dfs;
use sigmund_obs::{HealthBus, HealthEvent, Level, Obs, Track};
use sigmund_types::wire::{Reader, Writer};
use sigmund_types::{ActionType, CellId, ItemId, RetailerId, SigmundError};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Magic bytes opening a serialized store-metadata blob (see
/// [`ServingStore::meta_bytes`]).
pub const STORE_META_MAGIC: &[u8; 4] = b"SGSM";
/// Current store-metadata format version.
pub const STORE_META_VERSION: u8 = 1;

/// A published table shared between the pipeline, the store's slots, and
/// in-flight readers — cloning is a refcount bump, never a table copy.
pub type SharedTable = Arc<Vec<ItemRecs>>;

/// How many published generations the store retains for
/// [`ServingStore::rollback_to`]. Snapshots are shared `Arc`s, so the ring
/// costs pointers, not table copies.
pub const HISTORY_DEPTH: usize = 4;

/// Shards the retailer space is striped across. Each shard swaps
/// independently, so a publish touching one retailer invalidates nothing in
/// the other shards' reader caches.
pub const N_SHARDS: usize = 8;

/// The shard a retailer's table lives in.
fn shard_of(retailer: RetailerId) -> usize {
    retailer.index() % N_SHARDS
}

/// The retailer's dense slot index within its shard.
fn local_of(retailer: RetailerId) -> usize {
    retailer.index() / N_SHARDS
}

/// Which materialized surface to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecSurface {
    /// Substitutes (before the purchase decision).
    ViewBased,
    /// Complements (after the purchase decision).
    PurchaseBased,
}

impl RecSurface {
    /// This surface's list of one item's recommendations.
    fn of(self, recs: &ItemRecs) -> &RecList {
        match self {
            RecSurface::ViewBased => &recs.view_based,
            RecSurface::PurchaseBased => &recs.purchase_based,
        }
    }

    /// [`RecSurface::of`], by value.
    fn take(self, recs: ItemRecs) -> RecList {
        match self {
            RecSurface::ViewBased => recs.view_based,
            RecSurface::PurchaseBased => recs.purchase_based,
        }
    }
}

/// Where a retailer's table currently is.
#[derive(Debug, Clone)]
enum TableRef {
    /// Resident in memory (no tier, or a spill write faulted and the table
    /// stayed pinned — no data loss).
    Hot(Arc<Vec<ItemRecs>>),
    /// Spilled to the flash blob at [`crate::tier::cold_path`] for this
    /// generation; lookups go through the hot cache.
    Cold {
        /// The generation whose spill holds this table.
        generation: u64,
        /// Rows in the spilled table: an out-of-catalog probe is answered
        /// from here, without a flash read.
        n_items: usize,
    },
}

/// One retailer's served table plus its freshness stamp.
///
/// The table is an `Arc` (or a cold marker): a publish that doesn't touch
/// this retailer copies the pointer, not the recommendations — the arena
/// scales with fleet *count*, never with total fleet items (DESIGN.md §12).
#[derive(Debug, Clone)]
struct TableSlot {
    table: TableRef,
    /// Generation at which this retailer's table was last refreshed. A
    /// retailer absent from a publish batch (e.g. degraded to its previous
    /// generation) keeps its old stamp, so `generation - fresh` is how many
    /// batches stale its recommendations are.
    fresh: u64,
}

/// One shard's immutable view: a flat arena of slots indexed by the dense
/// local retailer index (`None` = never published).
#[derive(Debug, Default)]
struct Snapshot {
    slots: Vec<Option<TableSlot>>,
    /// Number of `Some` slots (so `retailer_count` stays O(shards)).
    served: usize,
}

impl Snapshot {
    fn slot(&self, local: usize) -> Option<&TableSlot> {
        self.slots.get(local).and_then(Option::as_ref)
    }
}

/// Control-plane state: the global generation counter and the rollback ring.
/// Publishers serialize on this lock; the query path never touches it.
#[derive(Debug, Default)]
struct StoreMeta {
    generation: u64,
    /// Ring of the most recent published fleet views (newest last), the undo
    /// log [`ServingStore::rollback_to`] restores from. Each entry pins one
    /// snapshot `Arc` per shard.
    history: VecDeque<HistoryEntry>,
}

#[derive(Debug)]
struct HistoryEntry {
    generation: u64,
    shards: Vec<Arc<Snapshot>>,
}

/// Request counters, the observability surface operators watch ("understand
/// and debug problems efficiently", Section I). An *empty* response on a
/// known retailer usually means inference coverage regressed — the
/// `QualityMonitor` sees it offline, these counters see it live.
///
/// Every field is a commutative count of per-request outcomes, so replaying
/// the same request multiset concurrently lands on identical stats at any
/// thread count (`tests/serve_scale.rs`); the schedule-dependent hot/flash
/// split lives in [`TierStats`] instead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServingStats {
    /// Lookups answered with a non-empty list.
    pub hits: u64,
    /// Lookups for a known retailer/item that had no recommendations.
    pub empties: u64,
    /// Lookups for an unknown retailer or out-of-range item.
    pub misses: u64,
    /// Cold-tier flash reads that faulted: the lookup was served from the
    /// last-good cached table, or counted under `misses` when none existed.
    /// Always 0 on a fault-free run — a nonzero value is the flash layer
    /// asking to be looked at.
    pub cold_misses: u64,
}

impl ServingStats {
    /// Fraction of answered lookups that carried recommendations.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.empties + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups answered.
    pub fn requests(&self) -> u64 {
        self.hits + self.empties + self.misses
    }
}

/// The serving store: readers clone an `Arc` to their shard's current
/// snapshot; the daily batch publish builds new shard snapshots and swaps
/// them in without ever stalling a reader.
///
/// ```
/// use sigmund_serving::{RecSurface, ServingStore};
/// use sigmund_core::inference::ItemRecs;
/// use sigmund_types::{ActionType, ItemId, RetailerId};
/// use std::collections::BTreeMap;
/// let store = ServingStore::new();
/// let table = vec![ItemRecs {
///     view_based: vec![(ItemId(1), 0.9)],
///     purchase_based: vec![(ItemId(2), 0.8)],
/// }];
/// store.publish(BTreeMap::from([(RetailerId(0), table)]));
/// // A user viewing item 0 gets substitutes; after buying, complements.
/// let subs = store.serve(RetailerId(0), &[(ItemId(0), ActionType::View)], None);
/// assert_eq!(subs[0].0, ItemId(1));
/// let comps = store.serve(RetailerId(0), &[(ItemId(0), ActionType::Conversion)], None);
/// assert_eq!(comps[0].0, ItemId(2));
/// ```
#[derive(Debug)]
pub struct ServingStore {
    shards: Vec<ShardState<Snapshot>>,
    /// Request counters, one set per shard (see [`ServingStore::stats`]).
    counters: Vec<ShardCounters>,
    meta: RwLock<StoreMeta>,
    /// Streaming health bus: publishes, rollbacks and lag snapshots are
    /// streamed here by the `*_obs`/`observe` methods (which carry virtual
    /// timestamps). Disabled by default — every publish is then a no-op.
    bus: HealthBus,
    /// The flash tier; `None` (the default) keeps every table in memory.
    tier: Option<ColdTier>,
    /// Totals at the last [`ServingStore::observe_load`], for window deltas.
    load_window: Mutex<(ServingStats, TierStats)>,
}

impl Default for ServingStore {
    fn default() -> Self {
        Self::assemble(HealthBus::disabled(), None)
    }
}

impl ServingStore {
    fn assemble(bus: HealthBus, tier: Option<ColdTier>) -> Self {
        Self {
            shards: (0..N_SHARDS)
                .map(|_| ShardState::new(Arc::new(Snapshot::default())))
                .collect(),
            counters: (0..N_SHARDS).map(|_| ShardCounters::default()).collect(),
            meta: RwLock::new(StoreMeta::default()),
            bus,
            tier,
            load_window: Mutex::new((ServingStats::default(), TierStats::default())),
        }
    }

    /// An empty store (generation 0, no tables, no tiering).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store that also streams generation changes and lag
    /// snapshots onto `bus` as [`HealthEvent`]s.
    pub fn with_bus(bus: HealthBus) -> Self {
        Self::assemble(bus, None)
    }

    /// An empty store whose publishes spill to `cell` of `dfs` under `cfg`.
    /// A [`ColdTierConfig::disabled`] config attaches no tier at all — the
    /// store is then byte-identical to [`ServingStore::new`].
    pub fn with_cold_tier(cfg: ColdTierConfig, dfs: Arc<Dfs>, cell: CellId) -> Self {
        Self::with_bus_and_cold_tier(HealthBus::disabled(), cfg, dfs, cell)
    }

    /// [`ServingStore::with_cold_tier`] plus a health bus.
    pub fn with_bus_and_cold_tier(
        bus: HealthBus,
        cfg: ColdTierConfig,
        dfs: Arc<Dfs>,
        cell: CellId,
    ) -> Self {
        let tier = (!cfg.is_disabled()).then(|| ColdTier::new(cfg, dfs, cell));
        Self::assemble(bus, tier)
    }

    /// Publishes a new batch: retailers present in `batch` are replaced,
    /// others keep serving yesterday's tables. Returns the new generation.
    pub fn publish(&self, batch: BTreeMap<RetailerId, Vec<ItemRecs>>) -> u64 {
        self.publish_shared(batch.into_iter().map(|(r, v)| (r, Arc::new(v))).collect())
    }

    /// [`ServingStore::publish`] for tables already behind an `Arc`: the
    /// bounded-memory publish path hands the same `Arc` to the store that it
    /// accounted in the pipeline, so nothing is copied on the way in.
    pub fn publish_shared(&self, batch: BTreeMap<RetailerId, Arc<Vec<ItemRecs>>>) -> u64 {
        let mut meta = self.meta.write();
        let generation = meta.generation + 1;
        // Group by home shard; untouched shards keep their snapshot `Arc`.
        let mut by_shard: BTreeMap<usize, Vec<(RetailerId, SharedTable)>> = BTreeMap::new();
        for (r, table) in batch {
            by_shard.entry(shard_of(r)).or_default().push((r, table));
        }
        for (shard_idx, tables) in by_shard {
            // Publishers are serialized by the meta lock, so this load is
            // the latest snapshot; O(shard count) pointer copies.
            let cur = self.shards[shard_idx].load();
            let mut slots = cur.slots.clone();
            let mut served = cur.served;
            for (r, table) in tables {
                let local = local_of(r);
                if local >= slots.len() {
                    slots.resize(local + 1, None);
                }
                if slots[local].is_none() {
                    served += 1;
                }
                let table = match &self.tier {
                    // The flash copy is the truth on success; a faulted
                    // spill pins the table in memory instead (counted by
                    // the tier, no data loss).
                    Some(tier) => match tier.spill(r, generation, &table) {
                        Ok(()) => TableRef::Cold {
                            generation,
                            n_items: table.len(),
                        },
                        Err(_) => TableRef::Hot(table),
                    },
                    None => TableRef::Hot(table),
                };
                slots[local] = Some(TableSlot {
                    table,
                    fresh: generation,
                });
            }
            self.shards[shard_idx].publish(Arc::new(Snapshot { slots, served }));
        }
        let entry = HistoryEntry {
            generation,
            shards: self.shards.iter().map(ShardState::load).collect(),
        };
        meta.history.push_back(entry);
        while meta.history.len() > HISTORY_DEPTH {
            meta.history.pop_front();
        }
        meta.generation = generation;
        generation
    }

    /// Generations currently available to [`ServingStore::rollback_to`]
    /// (ascending; includes the live generation).
    pub fn generations_retained(&self) -> Vec<u64> {
        self.meta
            .read()
            .history
            .iter()
            .map(|e| e.generation)
            .collect()
    }

    /// Rolls the live snapshots back to a retained previous `generation`.
    ///
    /// The rollback is itself a publish: it installs a *new* generation
    /// whose tables are the target's, so readers swap atomically and the
    /// generation counter never runs backwards. The target's freshness
    /// stamps are kept as-is — [`ServingStore::retailer_lag`] then reports
    /// the *true* staleness of what is being served, which is exactly what
    /// an operator debugging a rollback needs to see. Cold markers keep
    /// their original spill generation, whose blobs the tier retains for
    /// exactly this window (see `crate::tier`).
    ///
    /// Returns the new live generation, or `None` if `generation` is no
    /// longer (or never was) in the ring.
    pub fn rollback_to(&self, generation: u64) -> Option<u64> {
        let mut meta = self.meta.write();
        let target: Vec<Arc<Snapshot>> = meta
            .history
            .iter()
            .find(|e| e.generation == generation)?
            .shards
            .iter()
            .map(Arc::clone)
            .collect();
        let new_gen = meta.generation + 1;
        for (shard, snap) in self.shards.iter().zip(&target) {
            shard.publish(Arc::clone(snap));
        }
        meta.history.push_back(HistoryEntry {
            generation: new_gen,
            shards: target,
        });
        while meta.history.len() > HISTORY_DEPTH {
            meta.history.pop_front();
        }
        meta.generation = new_gen;
        Some(new_gen)
    }

    /// [`ServingStore::rollback_to`] with tracing: a Warn-level `serving`
    /// event plus the `integrity.rollbacks` counter. Emits nothing when the
    /// target generation is gone.
    pub fn rollback_obs(&self, generation: u64, obs: &Obs, ts: f64) -> Option<u64> {
        let new_gen = self.rollback_to(generation)?;
        self.bus.publish(HealthEvent::Rollback {
            ts,
            target_generation: generation,
            generation: new_gen,
        });
        obs.span(
            Level::Warn,
            "serving",
            &format!("rollback to gen {generation}"),
            Track::SERVING,
            ts,
            ts,
            &[
                ("target_generation", generation.into()),
                ("generation", new_gen.into()),
            ],
        );
        obs.counter("integrity.rollbacks", 1);
        obs.gauge("serving.generation", ts, new_gen as f64);
        Some(new_gen)
    }

    /// Current store generation (0 = nothing published yet).
    pub fn generation(&self) -> u64 {
        self.meta.read().generation
    }

    /// Serializes the store's control-plane metadata — the generation
    /// counter and every served retailer's freshness stamp — to a
    /// checksummed little-endian blob, for stashing in a sealed journal
    /// manifest's `ops` payload. Tables are *not* serialized: they are
    /// already durable as DFS recommendation blobs, and
    /// [`ServingStore::restore`] reinstalls them under their original
    /// stamps so post-restart lag queries never lie.
    #[must_use]
    pub fn meta_bytes(&self) -> Vec<u8> {
        // Hold the meta lock so the generation and the shard snapshots are
        // mutually consistent (publishers hold it for write).
        let meta = self.meta.read();
        let mut stamps: BTreeMap<u32, u64> = BTreeMap::new();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let snap = shard.load();
            for (local, slot) in snap.slots.iter().enumerate() {
                if let Some(slot) = slot {
                    let retailer = u32::try_from(local * N_SHARDS + shard_idx).unwrap_or(u32::MAX);
                    stamps.insert(retailer, slot.fresh);
                }
            }
        }
        let mut w = Writer::new(STORE_META_MAGIC);
        w.u8(STORE_META_VERSION);
        w.u64(meta.generation);
        w.list(stamps.iter(), |w, (&r, &fresh)| {
            w.u32(r);
            w.u64(fresh);
        });
        w.seal()
    }

    /// Rebuilds a store from a [`ServingStore::meta_bytes`] blob plus the
    /// tables the caller reloaded from the DFS. Each table is installed
    /// under its *original* freshness stamp and the saved generation
    /// counter, so [`ServingStore::retailer_lag`] reports true staleness
    /// across the restart; a retailer whose table could not be reloaded is
    /// simply absent (it reads as never-published until the next batch),
    /// and a table with no recorded stamp installs as fresh. The rollback
    /// history ring starts empty — only generations published *after* the
    /// restore are rollback targets — and the restored store is untiered
    /// and busless until the caller says otherwise via `bus`.
    ///
    /// # Errors
    /// [`SigmundError::Corrupt`] on any truncation, bit flip, or trailing
    /// garbage in `meta` — never a panic.
    pub fn restore(
        bus: HealthBus,
        meta: &[u8],
        tables: BTreeMap<RetailerId, Arc<Vec<ItemRecs>>>,
    ) -> Result<Self, SigmundError> {
        let mut rd = Reader::open_sealed("store meta", STORE_META_MAGIC, meta)?;
        let version = rd.u8("version")?;
        if version != STORE_META_VERSION {
            return Err(rd.corrupt(format_args!("unknown version {version}")));
        }
        let generation = rd.u64("generation")?;
        let stamps: BTreeMap<RetailerId, u64> = rd
            .list(12, "stamp count", |r| {
                Ok((RetailerId(r.u32("stamp retailer")?), r.u64("stamp value")?))
            })?
            .into_iter()
            .collect();
        rd.finish()?;
        let store = Self::assemble(bus, None);
        for (r, table) in tables {
            let fresh = stamps.get(&r).copied().unwrap_or(generation);
            let shard_idx = shard_of(r);
            let local = local_of(r);
            let cur = store.shards[shard_idx].load();
            let mut slots = cur.slots.clone();
            let mut served = cur.served;
            if local >= slots.len() {
                slots.resize(local + 1, None);
            }
            if slots[local].is_none() {
                served += 1;
            }
            slots[local] = Some(TableSlot {
                table: TableRef::Hot(table),
                fresh,
            });
            store.shards[shard_idx].publish(Arc::new(Snapshot { slots, served }));
        }
        store.meta.write().generation = generation;
        Ok(store)
    }

    /// How many publish batches have landed since `retailer`'s table was
    /// last refreshed (0 = fresh, `None` = never published). A degraded
    /// retailer skipped by the pipeline's batch shows up here as a growing
    /// lag while it keeps serving the stale table.
    pub fn retailer_lag(&self, retailer: RetailerId) -> Option<u64> {
        // Holding the meta read lock keeps the generation and the shard
        // snapshot mutually consistent (publishers hold it for write).
        let meta = self.meta.read();
        let snap = self.shards[shard_of(retailer)].load();
        snap.slot(local_of(retailer))
            .map(|s| meta.generation - s.fresh)
    }

    /// The worst [`ServingStore::retailer_lag`] across all served retailers
    /// (0 for an empty store).
    pub fn max_lag(&self) -> u64 {
        let meta = self.meta.read();
        self.shards
            .iter()
            .flat_map(|shard| {
                let snap = shard.load();
                snap.slots
                    .iter()
                    .flatten()
                    .map(|s| meta.generation - s.fresh)
                    .collect::<Vec<_>>()
            })
            .max()
            .unwrap_or(0)
    }

    /// [`ServingStore::publish`] with tracing: a `serving`-category span at
    /// `ts` (virtual seconds) plus publish counters and retailer/generation
    /// gauges.
    pub fn publish_obs(
        &self,
        batch: BTreeMap<RetailerId, Vec<ItemRecs>>,
        obs: &Obs,
        ts: f64,
    ) -> u64 {
        self.publish_shared_obs(
            batch.into_iter().map(|(r, v)| (r, Arc::new(v))).collect(),
            obs,
            ts,
        )
    }

    /// [`ServingStore::publish_shared`] with the same tracing as
    /// [`ServingStore::publish_obs`].
    pub fn publish_shared_obs(
        &self,
        batch: BTreeMap<RetailerId, Arc<Vec<ItemRecs>>>,
        obs: &Obs,
        ts: f64,
    ) -> u64 {
        let batch_size = batch.len();
        let generation = self.publish_shared(batch);
        self.bus.publish(HealthEvent::Published {
            ts,
            generation,
            retailers: batch_size,
        });
        obs.span(
            Level::Info,
            "serving",
            &format!("publish gen {generation}"),
            Track::SERVING,
            ts,
            ts,
            &[
                ("retailers_updated", batch_size.into()),
                ("generation", generation.into()),
            ],
        );
        obs.counter("serving.publishes", 1);
        obs.gauge("serving.retailers", ts, self.retailer_count() as f64);
        obs.gauge("serving.generation", ts, generation as f64);
        generation
    }

    /// Emits the store's health gauges at `ts`: hit rate, current
    /// generation, and the lag between `expected_generation` (how many
    /// batches the pipeline has produced) and what is actually being served
    /// — a stuck publisher shows up as a growing `serving.generation_lag`.
    pub fn observe(&self, obs: &Obs, ts: f64, expected_generation: u64) {
        // The bus snapshot goes out even when obs is disabled: the two
        // layers are independent, and the dashboard may be the only
        // consumer running.
        if self.bus.is_enabled() {
            self.bus.publish(HealthEvent::ServingLag {
                ts,
                generation: self.generation(),
                expected_generation,
                max_retailer_lag: self.max_lag(),
            });
        }
        if !obs.is_enabled() {
            return;
        }
        let s = self.stats();
        let generation = self.generation();
        obs.gauge("serving.hit_rate", ts, s.hit_rate());
        obs.gauge(
            "serving.generation_lag",
            ts,
            expected_generation.saturating_sub(generation) as f64,
        );
        obs.gauge("serving.max_retailer_lag", ts, self.max_lag() as f64);
        obs.instant(
            Level::Debug,
            "serving",
            "stats",
            Track::SERVING,
            ts,
            &[
                ("hits", s.hits.into()),
                ("empties", s.empties.into()),
                ("misses", s.misses.into()),
            ],
        );
    }

    /// Emits query-traffic gauges for the window ending at `ts` of
    /// `window_s` virtual seconds: QPS, windowed hit rate, the hot-tier hit
    /// rate, and any cold misses — a [`HealthEvent::ServeLoad`] for the
    /// watch header plus `serving.qps`/`serving.hot_hit_rate` gauges and the
    /// `serving.cold_misses` counter. Call once per observation window; the
    /// store keeps the last window's totals. Emits nothing (and keeps no
    /// window state) when both the bus and obs are disabled, so un-observed
    /// stores stay byte-identical.
    pub fn observe_load(&self, obs: &Obs, ts: f64, window_s: f64) {
        if !self.bus.is_enabled() && !obs.is_enabled() {
            return;
        }
        let s = self.stats();
        let t = self.tier_stats().unwrap_or_default();
        let mut window = self.load_window.lock();
        let (last_s, last_t) = *window;
        *window = (s, t);
        drop(window);
        let requests = s.requests().saturating_sub(last_s.requests());
        let hits = s.hits.saturating_sub(last_s.hits);
        let cold_misses = s.cold_misses.saturating_sub(last_s.cold_misses);
        let qps = if window_s > 0.0 {
            requests as f64 / window_s
        } else {
            0.0
        };
        let hit_rate = if requests == 0 {
            0.0
        } else {
            hits as f64 / requests as f64
        };
        let tiered = (t.hot_hits + t.fetches + t.cold_misses)
            .saturating_sub(last_t.hot_hits + last_t.fetches + last_t.cold_misses);
        let hot_hit_rate = if tiered == 0 {
            // No flash pressure this window (untired store, or every lookup
            // stayed in memory).
            1.0
        } else {
            t.hot_hits.saturating_sub(last_t.hot_hits) as f64 / tiered as f64
        };
        // Bus first: the dashboard may be the only consumer running.
        self.bus.publish(HealthEvent::ServeLoad {
            ts,
            requests,
            qps,
            hit_rate,
            hot_hit_rate,
            cold_misses,
        });
        if !obs.is_enabled() {
            return;
        }
        obs.gauge("serving.qps", ts, qps);
        obs.gauge("serving.hot_hit_rate", ts, hot_hit_rate);
        if cold_misses > 0 {
            obs.counter("serving.cold_misses", cold_misses);
        }
    }

    /// Serves a request: recommendations for the last item in `context`.
    ///
    /// The surface defaults from the last action when `surface` is `None`:
    /// a conversion/cart context gets complements, anything else substitutes
    /// (the before/after purchase-decision split of Figure 1).
    pub fn serve(
        &self,
        retailer: RetailerId,
        context: &[ContextEvent],
        surface: Option<RecSurface>,
    ) -> RecList {
        let Some(&(item, action)) = context.last() else {
            return RecList::new();
        };
        let surface = surface.unwrap_or(match action {
            ActionType::Conversion | ActionType::Cart => RecSurface::PurchaseBased,
            _ => RecSurface::ViewBased,
        });
        self.lookup(retailer, item, surface)
    }

    /// Direct item lookup.
    pub fn lookup(&self, retailer: RetailerId, item: ItemId, surface: RecSurface) -> RecList {
        let shard = shard_of(retailer);
        let counters = &self.counters[shard];
        let snap = self.shards[shard].load();
        let answer = snap.slot(local_of(retailer)).and_then(|slot| {
            let in_table = |t: &[ItemRecs]| t.get(item.index()).map(|r| surface.of(r).clone());
            match &slot.table {
                TableRef::Hot(t) => in_table(t),
                TableRef::Cold {
                    generation,
                    n_items,
                } => {
                    // `None` is unreachable by construction (cold markers
                    // are only written with a tier attached); degrade to a
                    // counted miss rather than panic on the query path.
                    let fetched = self.tier.as_ref().map_or(FetchResult::Miss, |tier| {
                        tier.fetch_item(retailer, *generation, item.index(), *n_items)
                    });
                    match fetched {
                        FetchResult::Table(t) => in_table(&t),
                        FetchResult::Record(recs) => recs.map(|r| surface.take(r)),
                        FetchResult::Degraded(t) => {
                            counters.bump(Outcome::ColdMiss);
                            in_table(&t)
                        }
                        FetchResult::Miss => {
                            counters.bump(Outcome::ColdMiss);
                            None
                        }
                    }
                }
            }
        });
        counters.bump(match &answer {
            None => Outcome::Miss,
            Some(list) if list.is_empty() => Outcome::Empty,
            Some(_) => Outcome::Hit,
        });
        answer.unwrap_or_default()
    }

    /// Number of retailers currently served.
    pub fn retailer_count(&self) -> usize {
        let _meta = self.meta.read();
        self.shards.iter().map(|s| s.load().served).sum()
    }

    /// Request counters since construction (or the last
    /// [`ServingStore::reset_stats`]): the sum over the shards' counters.
    /// Sums commute, so the totals do not depend on how many readers there
    /// were or how they interleaved.
    pub fn stats(&self) -> ServingStats {
        let mut sum = [0u64; 4];
        for shard in &self.counters {
            for (s, n) in sum.iter_mut().zip(shard.total()) {
                *s += n;
            }
        }
        // In `Outcome`'s order.
        let [hits, empties, misses, cold_misses] = sum;
        ServingStats {
            hits,
            empties,
            misses,
            cold_misses,
        }
    }

    /// Cold-tier traffic counters, `None` when no tier is attached.
    pub fn tier_stats(&self) -> Option<TierStats> {
        self.tier.as_ref().map(ColdTier::stats)
    }

    /// Zeroes the request counters (e.g. at a metrics-scrape boundary).
    pub fn reset_stats(&self) {
        self.counters.iter().for_each(ShardCounters::reset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(view: &[u32], buy: &[u32]) -> ItemRecs {
        ItemRecs {
            view_based: view.iter().map(|&i| (ItemId(i), 1.0)).collect(),
            purchase_based: buy.iter().map(|&i| (ItemId(i), 1.0)).collect(),
        }
    }

    fn publish_one(store: &ServingStore, r: u32, table: Vec<ItemRecs>) {
        let mut batch = BTreeMap::new();
        batch.insert(RetailerId(r), table);
        store.publish(batch);
    }

    #[test]
    fn meta_round_trips_with_true_staleness() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        publish_one(&store, 1, vec![recs(&[2], &[])]);
        publish_one(&store, 9, vec![recs(&[3], &[])]);
        // Retailer 0 is now 2 generations stale, retailer 9 fresh.
        assert_eq!(store.retailer_lag(RetailerId(0)), Some(2));
        let meta = store.meta_bytes();
        let mut tables = BTreeMap::new();
        for r in [0u32, 1, 9] {
            tables.insert(RetailerId(r), Arc::new(vec![recs(&[r + 1], &[])]));
        }
        let back = ServingStore::restore(HealthBus::disabled(), &meta, tables).unwrap();
        assert_eq!(back.generation(), 3);
        assert_eq!(back.retailer_count(), 3);
        // Original stamps survive: lag never lies across the restart.
        assert_eq!(back.retailer_lag(RetailerId(0)), Some(2));
        assert_eq!(back.retailer_lag(RetailerId(1)), Some(1));
        assert_eq!(back.retailer_lag(RetailerId(9)), Some(0));
        assert_eq!(
            back.lookup(RetailerId(9), ItemId(0), RecSurface::ViewBased),
            vec![(ItemId(10), 1.0)]
        );
        // The ring starts empty; the next publish resumes the counter.
        assert!(back.generations_retained().is_empty());
        publish_one(&back, 1, vec![recs(&[7], &[])]);
        assert_eq!(back.generation(), 4);
        assert_eq!(back.retailer_lag(RetailerId(0)), Some(3));
    }

    #[test]
    fn meta_restore_tolerates_missing_pieces() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        let meta = store.meta_bytes();
        // A table that failed to reload is simply absent; a table with no
        // recorded stamp installs as fresh.
        let mut tables = BTreeMap::new();
        tables.insert(RetailerId(5), Arc::new(vec![recs(&[4], &[])]));
        let back = ServingStore::restore(HealthBus::disabled(), &meta, tables).unwrap();
        assert_eq!(back.retailer_lag(RetailerId(0)), None);
        assert_eq!(back.retailer_lag(RetailerId(5)), Some(0));
    }

    #[test]
    fn meta_rejects_corruption_cleanly() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        let meta = store.meta_bytes();
        let parse = |b: &[u8]| ServingStore::restore(HealthBus::disabled(), b, BTreeMap::new());
        for len in 0..meta.len() {
            assert!(parse(&meta[..len]).is_err(), "truncation to {len} parsed");
        }
        for i in 0..meta.len() {
            let mut bad = meta.clone();
            bad[i] ^= 1;
            assert!(parse(&bad).is_err(), "bit flip at byte {i} parsed");
        }
        assert!(parse(&meta).is_ok());
    }

    #[test]
    fn publish_and_lookup() {
        let store = ServingStore::new();
        assert_eq!(store.generation(), 0);
        publish_one(&store, 0, vec![recs(&[1, 2], &[3])]);
        assert_eq!(store.generation(), 1);
        let v = store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased);
        assert_eq!(v.len(), 2);
        let b = store.lookup(RetailerId(0), ItemId(0), RecSurface::PurchaseBased);
        assert_eq!(b, vec![(ItemId(3), 1.0)]);
    }

    #[test]
    fn unknown_retailer_or_item_is_empty() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        assert!(store
            .lookup(RetailerId(9), ItemId(0), RecSurface::ViewBased)
            .is_empty());
        assert!(store
            .lookup(RetailerId(0), ItemId(5), RecSurface::ViewBased)
            .is_empty());
    }

    #[test]
    fn batch_replaces_only_published_retailers() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        publish_one(&store, 1, vec![recs(&[2], &[])]);
        assert_eq!(store.retailer_count(), 2);
        // Re-publish retailer 0 only; retailer 1 keeps serving.
        publish_one(&store, 0, vec![recs(&[7], &[])]);
        assert_eq!(
            store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased),
            vec![(ItemId(7), 1.0)]
        );
        assert_eq!(
            store.lookup(RetailerId(1), ItemId(0), RecSurface::ViewBased),
            vec![(ItemId(2), 1.0)]
        );
        assert_eq!(store.generation(), 3);
    }

    #[test]
    fn retailers_stripe_across_shards() {
        // Retailers r and r + N_SHARDS share a shard; the rest of the fleet
        // lands elsewhere, so a publish to one shard leaves the others'
        // snapshots untouched (asserted via pointer identity below).
        let store = ServingStore::new();
        for r in 0..(2 * N_SHARDS as u32) {
            publish_one(&store, r, vec![recs(&[r + 1], &[])]);
        }
        assert_eq!(store.retailer_count(), 2 * N_SHARDS);
        for r in 0..(2 * N_SHARDS as u32) {
            assert_eq!(
                store.lookup(RetailerId(r), ItemId(0), RecSurface::ViewBased),
                vec![(ItemId(r + 1), 1.0)],
                "retailer {r} must serve its own table"
            );
        }
        let before: Vec<_> = (0..N_SHARDS).map(|i| store.shards[i].load()).collect();
        publish_one(&store, 0, vec![recs(&[9], &[])]); // shard 0 only
        let after: Vec<_> = (0..N_SHARDS).map(|i| store.shards[i].load()).collect();
        assert!(!Arc::ptr_eq(&before[0], &after[0]), "shard 0 must swap");
        for i in 1..N_SHARDS {
            assert!(
                Arc::ptr_eq(&before[i], &after[i]),
                "shard {i} untouched by a shard-0 publish"
            );
        }
    }

    #[test]
    fn retailer_lag_tracks_skipped_batches() {
        let store = ServingStore::new();
        assert_eq!(store.max_lag(), 0, "empty store has no lag");
        assert_eq!(store.retailer_lag(RetailerId(0)), None);
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        publish_one(&store, 1, vec![recs(&[2], &[])]);
        assert_eq!(store.retailer_lag(RetailerId(0)), Some(1));
        assert_eq!(store.retailer_lag(RetailerId(1)), Some(0));
        assert_eq!(store.max_lag(), 1);
        // Retailer 0 degrades (absent from the next two batches): its lag
        // grows while its stale table keeps serving.
        publish_one(&store, 1, vec![recs(&[3], &[])]);
        publish_one(&store, 1, vec![recs(&[4], &[])]);
        assert_eq!(store.retailer_lag(RetailerId(0)), Some(3));
        assert!(!store
            .lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased)
            .is_empty());
        // A fresh publish clears the lag.
        publish_one(&store, 0, vec![recs(&[9], &[])]);
        assert_eq!(store.retailer_lag(RetailerId(0)), Some(0));
        assert_eq!(store.max_lag(), 1, "retailer 1 is now one batch behind");
    }

    #[test]
    fn rollback_restores_a_previous_generation() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        publish_one(&store, 0, vec![recs(&[2], &[])]);
        assert_eq!(store.generation(), 2);
        assert_eq!(store.generations_retained(), vec![1, 2]);
        // Roll back to generation 1: readers see the old table under a new
        // generation number (the counter never runs backwards).
        let new_gen = store.rollback_to(1).unwrap();
        assert_eq!(new_gen, 3);
        assert_eq!(store.generation(), 3);
        assert_eq!(
            store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased),
            vec![(ItemId(1), 1.0)]
        );
        // The lag reports the true staleness of what is served: the live
        // tables were stamped at generation 1, two publishes ago.
        assert_eq!(store.retailer_lag(RetailerId(0)), Some(2));
        assert_eq!(store.max_lag(), 2);
        // An unknown generation is refused.
        assert!(store.rollback_to(99).is_none());
        // The rollback itself is retained, so it can be re-targeted.
        assert_eq!(store.generations_retained(), vec![1, 2, 3]);
    }

    #[test]
    fn rollback_ring_is_depth_bounded() {
        let store = ServingStore::new();
        for i in 0..8 {
            publish_one(&store, 0, vec![recs(&[i + 1], &[])]);
        }
        let retained = store.generations_retained();
        assert_eq!(retained.len(), HISTORY_DEPTH);
        assert_eq!(retained, vec![5, 6, 7, 8]);
        // Evicted generations are gone for good.
        assert!(store.rollback_to(4).is_none());
        assert!(store.rollback_to(5).is_some());
    }

    #[test]
    fn rollback_obs_counts_and_traces() {
        use sigmund_obs::{Level, Obs};
        let store = ServingStore::new();
        let obs = Obs::recording(Level::Debug);
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        publish_one(&store, 0, vec![recs(&[2], &[])]);
        assert_eq!(store.rollback_obs(1, &obs, 5.0), Some(3));
        let trace = obs.trace_json();
        assert!(trace.contains("rollback to gen 1"), "{trace}");
        let m = obs.metrics().unwrap();
        assert_eq!(m.counter("integrity.rollbacks"), 1);
        // A refused rollback emits nothing.
        assert_eq!(store.rollback_obs(99, &obs, 6.0), None);
        assert_eq!(obs.metrics().unwrap().counter("integrity.rollbacks"), 1);
    }

    #[test]
    fn serve_picks_surface_from_funnel_position() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[2])]);
        let view_ctx = vec![(ItemId(0), ActionType::View)];
        let buy_ctx = vec![(ItemId(0), ActionType::Conversion)];
        assert_eq!(store.serve(RetailerId(0), &view_ctx, None)[0].0, ItemId(1));
        assert_eq!(store.serve(RetailerId(0), &buy_ctx, None)[0].0, ItemId(2));
        // Explicit surface overrides.
        assert_eq!(
            store.serve(RetailerId(0), &view_ctx, Some(RecSurface::PurchaseBased))[0].0,
            ItemId(2)
        );
        assert!(store.serve(RetailerId(0), &[], None).is_empty());
    }

    #[test]
    fn stats_classify_requests() {
        let store = ServingStore::new();
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        // hit (view list non-empty)
        store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased);
        // empty (purchase list empty)
        store.lookup(RetailerId(0), ItemId(0), RecSurface::PurchaseBased);
        // miss ×2 (unknown retailer, out-of-range item)
        store.lookup(RetailerId(7), ItemId(0), RecSurface::ViewBased);
        store.lookup(RetailerId(0), ItemId(99), RecSurface::ViewBased);
        let s = store.stats();
        assert_eq!((s.hits, s.empties, s.misses), (1, 1, 2), "stats: {s:?}");
        assert_eq!(s.cold_misses, 0, "no tier, no cold misses");
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
        store.reset_stats();
        assert_eq!(store.stats(), ServingStats::default());
        assert_eq!(ServingStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_zero_lookups() {
        // Before any traffic the rate must be a well-defined 0.0, not NaN —
        // the monitor and the obs gauges both consume it directly.
        let store = ServingStore::new();
        let s = store.stats();
        assert_eq!((s.hits, s.empties, s.misses), (0, 0, 0));
        assert_eq!(s.hit_rate(), 0.0);
        assert!(s.hit_rate().is_finite());
    }

    #[test]
    fn publish_obs_and_observe_emit_serving_telemetry() {
        use sigmund_obs::{Level, Obs};
        let store = ServingStore::new();
        let obs = Obs::recording(Level::Debug);
        let mut batch = BTreeMap::new();
        batch.insert(RetailerId(0), vec![recs(&[1], &[])]);
        let generation = store.publish_obs(batch, &obs, 2.0);
        assert_eq!(generation, 1);
        store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased); // hit
        store.lookup(RetailerId(9), ItemId(0), RecSurface::ViewBased); // miss
        store.observe(&obs, 3.0, 2); // pipeline is one batch ahead
        let trace = obs.trace_json();
        assert!(trace.contains("\"cat\":\"serving\""), "{trace}");
        assert!(trace.contains("publish gen 1"), "{trace}");
        let m = obs.metrics().unwrap();
        assert_eq!(m.counter("serving.publishes"), 1);
        assert_eq!(m.gauge("serving.hit_rate").map(|g| g.last), Some(0.5));
        assert_eq!(m.gauge("serving.generation_lag").map(|g| g.last), Some(1.0));
    }

    #[test]
    fn observe_load_emits_windowed_traffic_gauges() {
        use sigmund_obs::{Level, Obs};
        let bus = HealthBus::bounded(16);
        let mut cursor = bus.subscribe();
        let store = ServingStore::with_bus(bus);
        let obs = Obs::recording(Level::Debug);
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        cursor.poll(); // drop the publish event
        for _ in 0..10 {
            store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased); // hits
        }
        store.lookup(RetailerId(9), ItemId(0), RecSurface::ViewBased); // miss
        store.observe_load(&obs, 10.0, 10.0);
        let (_, events) = cursor.poll();
        assert!(
            matches!(
                events.as_slice(),
                [HealthEvent::ServeLoad {
                    requests: 11,
                    cold_misses: 0,
                    ..
                }]
            ),
            "{events:?}"
        );
        let m = obs.metrics().unwrap();
        assert_eq!(m.gauge("serving.qps").map(|g| g.last), Some(1.1));
        // Untired store: everything is in memory.
        assert_eq!(m.gauge("serving.hot_hit_rate").map(|g| g.last), Some(1.0));
        assert_eq!(m.counter("serving.cold_misses"), 0);
        // The next window only sees new traffic.
        store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased);
        store.observe_load(&obs, 20.0, 10.0);
        let (_, events) = cursor.poll();
        assert!(
            matches!(
                events.as_slice(),
                [HealthEvent::ServeLoad { requests: 1, .. }]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn store_streams_generation_changes_onto_the_bus() {
        use sigmund_obs::Obs;
        let bus = HealthBus::bounded(16);
        let mut cursor = bus.subscribe();
        let store = ServingStore::with_bus(bus);
        let obs = Obs::disabled(); // bus publishing is independent of obs
        let mut batch = BTreeMap::new();
        batch.insert(RetailerId(0), vec![recs(&[1], &[])]);
        store.publish_obs(batch.clone(), &obs, 1.0);
        store.publish_obs(batch, &obs, 2.0);
        store.rollback_obs(1, &obs, 3.0);
        store.observe(&obs, 4.0, 4); // pipeline one batch ahead of gen 3
        let (lost, events) = cursor.poll();
        assert_eq!(lost, 0);
        assert!(
            matches!(
                events.as_slice(),
                [
                    HealthEvent::Published {
                        generation: 1,
                        retailers: 1,
                        ..
                    },
                    HealthEvent::Published { generation: 2, .. },
                    HealthEvent::Rollback {
                        target_generation: 1,
                        generation: 3,
                        ..
                    },
                    HealthEvent::ServingLag {
                        generation: 3,
                        expected_generation: 4,
                        max_retailer_lag: 2,
                        ..
                    },
                ]
            ),
            "{events:?}"
        );
        // A refused rollback publishes nothing.
        store.rollback_obs(99, &obs, 5.0);
        assert!(cursor.poll().1.is_empty());
    }

    #[test]
    fn publish_shares_untouched_tables_across_generations() {
        let store = ServingStore::new();
        let big = Arc::new(vec![recs(&[1, 2, 3], &[4])]);
        let mut batch = BTreeMap::new();
        batch.insert(RetailerId(0), Arc::clone(&big));
        store.publish_shared(batch);
        // Publish 10 more batches touching only retailer N_SHARDS (same
        // shard as retailer 0): retailer 0's table must be pointer-shared
        // by every shard snapshot, never copied.
        for i in 0..10u32 {
            publish_one(&store, N_SHARDS as u32, vec![recs(&[i], &[])]);
        }
        let snap = store.shards[0].load();
        let served = match &snap.slot(0).unwrap().table {
            TableRef::Hot(t) => Arc::clone(t),
            TableRef::Cold { .. } => panic!("no tier attached, table must be hot"),
        };
        assert!(
            Arc::ptr_eq(&served, &big),
            "untouched table was deep-copied by an unrelated publish"
        );
        // Every live snapshot of shard 0 (ring slots + history entries)
        // holds its own Arc clone, plus `big` and `served` here.
        assert!(Arc::strong_count(&big) >= HISTORY_DEPTH + 2);
    }

    #[test]
    fn cold_tier_spills_and_serves_through_the_hot_cache() {
        let store = ServingStore::with_cold_tier(
            ColdTierConfig::enabled(2, 1, 42),
            Arc::new(Dfs::new()),
            CellId(0),
        );
        publish_one(&store, 0, vec![recs(&[1, 2], &[3])]);
        publish_one(&store, 1, vec![recs(&[5], &[])]);
        // First lookup fetches from flash (and admits); the second hits.
        assert_eq!(
            store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased),
            vec![(ItemId(1), 1.0), (ItemId(2), 1.0)]
        );
        assert_eq!(
            store.lookup(RetailerId(0), ItemId(0), RecSurface::PurchaseBased),
            vec![(ItemId(3), 1.0)]
        );
        let t = store.tier_stats().unwrap();
        assert_eq!((t.fetches, t.hot_hits), (1, 1), "{t:?}");
        // A republish invalidates the cached copy lazily.
        publish_one(&store, 0, vec![recs(&[7], &[])]);
        assert_eq!(
            store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased),
            vec![(ItemId(7), 1.0)]
        );
        assert_eq!(store.stats().cold_misses, 0, "clean run, no degradation");
        // Rollback: the cold markers point at retained spill generations.
        let rolled = store.rollback_to(store.generation() - 1).unwrap();
        assert!(rolled > 0);
        assert_eq!(
            store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased),
            vec![(ItemId(1), 1.0), (ItemId(2), 1.0)],
            "rollback must serve the pre-republish table from flash"
        );
    }

    #[test]
    fn disabled_tier_config_attaches_no_tier() {
        let store = ServingStore::with_cold_tier(
            ColdTierConfig::disabled(),
            Arc::new(Dfs::new()),
            CellId(0),
        );
        assert!(store.tier_stats().is_none());
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        let snap = store.shards[0].load();
        assert!(
            matches!(snap.slot(0).unwrap().table, TableRef::Hot(_)),
            "disabled tier must keep tables in memory"
        );
    }

    #[test]
    fn concurrent_reads_during_publish() {
        // The reader runs a fixed read budget rather than racing a stop
        // flag (see `shard.rs::concurrent_readers_never_see_a_torn_snapshot`
        // for why): on a loaded 2-core box a flag-based reader may never be
        // scheduled before the publisher finishes.
        let store = Arc::new(ServingStore::new());
        publish_one(&store, 0, vec![recs(&[1], &[])]);
        let reader = {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    let v = store.lookup(RetailerId(0), ItemId(0), RecSurface::ViewBased);
                    // Always a complete list, never torn.
                    assert_eq!(v.len(), 1);
                }
            })
        };
        for i in 0..100 {
            publish_one(&store, 0, vec![recs(&[i + 1], &[])]);
        }
        reader.join().unwrap();
        assert_eq!(store.generation(), 101);
        assert_eq!(store.stats().hits, 20_000);
    }
}
