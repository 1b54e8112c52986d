//! The four workloads. Each turns `(seed, --seconds)` into inputs, runs its
//! timed sections, checks what came out, and returns an [`Outcome`].
//!
//! Every workload is a fleet-day followed by a lookup replay against the
//! store that day published into, because the driver's contract wants every
//! end-to-end metric from every workload: the three pipeline workloads
//! spend most of their budget on days and replay a short log against the
//! (untiered) store they published; `serve_replay` publishes synthetic
//! tables — its "day" is the serving half only — and spends its budget on
//! the replay.

use crate::clock::{timed, wall_now, Tracer};
use crate::day::{timed_day, DayResult, Fleet, Ingest, Tables};
use crate::fleet::{self, nproc};
use crate::probes;
use crate::serve::{self, LogSpec, PurchasePick, Replay, ReplayPlan, Request};
use crate::shadow::{self, CATEGORIES};
use crate::spec::{self, Workload};
use sigmund_datagen::{evolve_day, EvolutionSpec, RetailerData};
use sigmund_dfs::Dfs;
use sigmund_pipeline::SigmundService;
use sigmund_serving::{ColdTierConfig, ServingStore, TierOutcome, TierSim, TierStats};
use sigmund_types::{splitmix64, CellId, RetailerId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why anything failed, and notes from the traced pass.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    /// The end-to-end metrics (timings taken with tracing off).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Every sample behind a median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The per-layer metrics (traced pass only).
    pub layers: BTreeMap<&'static str, f64>,
    /// `fnv1a64` over everything published: moves iff bytes moved.
    pub output_digest: u64,
    /// Lookup latency tail beyond p99, for the printout.
    pub lookup_p999_ns: f64,
    /// The rendered Chrome trace (traced pass only).
    pub trace_json: Option<String>,
    pub self_times: Vec<(String, f64, usize)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reader threads of a replay: one core stays free for the publisher.
fn readers() -> usize {
    nproc().saturating_sub(1).max(1)
}

pub fn run(run: &Run) -> Outcome {
    let tr = if run.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut out = Outcome::default();
    if run.workload.is_pipeline() {
        pipeline_days(run, &tr, &mut out);
    } else {
        serve_replay(run, &tr, &mut out);
    }
    if run.trace {
        for (name, v) in probes::run_all(run.seed, run.smoke, &tr) {
            out.layers.insert(name, v);
        }
        // Every per-layer metric is printed by every traced run; the ones
        // this workload has no source for read 0.
        for l in spec::PER_LAYER {
            out.layers.entry(l.name).or_insert(0.0);
        }
        out.self_times = tr.self_times();
        out.trace_json = Some(tr.chrome_json());
    }
    out.e2e.insert("peak_rss_mb", peak_rss_mb());
    out.e2e.insert(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

// --- pipeline workloads ------------------------------------------------------

fn absorb_day(out: &mut Outcome, res: &DayResult) {
    out.attempted += res.check.attempted;
    out.failed += res.check.failed;
    out.problems.extend(res.check.problems.iter().cloned());
}

fn evolve_fleet(data: &mut [RetailerData], seed: u64, day: u32) -> usize {
    data.iter_mut()
        .enumerate()
        .map(|(i, d)| {
            d.spec.sessions_per_user = spec::DAILY_SESSIONS_KNOB;
            let spec = EvolutionSpec {
                seed: splitmix64(seed ^ splitmix64(u64::from(day) << 32 | i as u64)),
                ..Default::default()
            };
            evolve_day(d, &spec).new_events
        })
        .sum()
}

/// One set-up's product: the fleet's data and, on steady_days, the service
/// that has already run day 0 on it.
struct Prepared {
    data: Vec<RetailerData>,
    fleet: Option<Fleet>,
}

fn pipeline_days(run: &Run, tr: &Tracer, out: &mut Outcome) {
    let sizes = spec::day_sizes(run.workload, run.smoke);
    let cfg = fleet::pipeline_cfg(&sizes, run.seed);
    let steady = run.workload == Workload::SteadyDays;
    let quiet = Tracer::off();

    // Set-up, repeated for a median: datagen, plus onboard + day 0 for
    // steady_days. The traced pass keeps two identical set-ups so the same
    // day can run once untraced and once traced.
    let reps = if run.trace {
        2
    } else {
        spec::setup_reps(run.workload, run.smoke)
    };
    let mut setups = Vec::new();
    let mut prepared: Vec<Prepared> = Vec::new();
    for _ in 0..reps {
        let t0 = wall_now();
        let mut p = Prepared {
            data: fleet::generate(&sizes.fleet, run.seed),
            fleet: None,
        };
        if steady {
            let mut f = Fleet::new(cfg.clone());
            match timed_day(&mut f, &p.data, Ingest::Onboard, &quiet) {
                Ok(day0) => absorb_day(out, &day0),
                Err(e) => out.problems.push(format!("day 0: {e}")),
            }
            p.fleet = Some(f);
        }
        setups.push(t0.elapsed().as_secs_f64());
        // Only the last set-up (and, traced, the one before it) is used.
        if prepared.len() == 2 {
            prepared.remove(0);
        }
        prepared.push(p);
    }
    let Some(mut main) = prepared.pop() else {
        return;
    };
    let mut twin = prepared.pop().filter(|_| run.trace);
    drop(prepared);
    out.notes.push(format!(
        "fleet: {} retailers, {} items, {} events; grid {} configs x {} epochs",
        main.data.len(),
        main.data.iter().map(|d| d.catalog.len()).sum::<usize>(),
        main.data.iter().map(|d| d.events.len()).sum::<usize>(),
        cfg.grid.factors.len() * cfg.grid.learning_rates.len() * cfg.grid.features.len(),
        cfg.grid.epochs
    ));

    // Timed days. Cold workloads run the same day on a fresh service each
    // time (identical inputs, so the digest must repeat); steady_days runs
    // consecutive days on one service, evolving the data in between.
    let units = if run.trace {
        1
    } else {
        spec::day_units(&sizes, run.seconds, run.smoke)
    };
    let ingest = if steady {
        Ingest::Refresh
    } else {
        Ingest::Onboard
    };
    let mut days = Vec::new();
    let mut digests = Vec::new();
    let mut untraced_s = f64::NAN;
    let mut last = None;
    for unit in 0..units {
        for p in std::iter::once(&mut main).chain(twin.as_mut()) {
            if steady {
                evolve_fleet(&mut p.data, run.seed, unit as u32 + 1);
            } else {
                p.fleet = Some(Fleet::new(cfg.clone()));
            }
        }
        // The untraced twin of the traced day, for the overhead ratio.
        if let Some(Prepared {
            data,
            fleet: Some(f),
        }) = &mut twin
        {
            match timed_day(f, data, ingest, &quiet) {
                Ok(res) => untraced_s = res.wall_s,
                Err(e) => out.problems.push(format!("untraced twin: {e}")),
            }
        }
        let Some(f) = main.fleet.as_mut() else { break };
        match timed_day(f, &main.data, ingest, tr) {
            Ok(res) => {
                absorb_day(out, &res);
                days.push(res.wall_s);
                digests.push(res.check.digest);
                last = Some(res);
            }
            Err(e) => {
                out.problems.push(format!("day unit {unit}: {e}"));
                break;
            }
        }
    }
    drop(twin);
    let (Some(fleet), Some(res)) = (main.fleet.as_ref(), last) else {
        out.attempted = out.attempted.max(1);
        out.failed = out.failed.max(1);
        return;
    };
    if !steady && digests.windows(2).any(|w| w[0] != w[1]) {
        out.problems.push(format!(
            "output digest differs between identical days: {digests:x?}"
        ));
    }
    out.output_digest = sigmund_types::fnv1a64(
        &digests
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect::<Vec<u8>>(),
    );
    out.e2e.insert("day_wall_s", median(&days));
    out.e2e.insert("map_at_10", res.check.map_at_10);
    out.e2e.insert("setup_s", median(&setups));
    out.samples.insert("day_wall_s", days);
    out.samples.insert("setup_s", setups);

    if run.trace {
        traced_day_layers(fleet, &res, &main.data, untraced_s, tr, out);
    }

    // Lookup phase: a Zipf log against the store the last day published,
    // replayed in several passes so the log itself stays small beside the
    // process's peak RSS.
    let catalog_sizes: Vec<usize> = main.data.iter().map(|d| d.catalog.len()).collect();
    let budget = if run.trace {
        0.0
    } else {
        run.seconds * (1.0 - spec::DAY_SHARE)
    };
    let lookups = spec::lookup_count(sizes.nominal_lookups_per_s, budget, run.smoke);
    let log_len = lookups.min(4 * spec::lookup_block(run.smoke));
    let log = serve::zipf_log(
        &LogSpec {
            seed: run.seed,
            salt: 0x10C,
            requests: log_len,
            zipf_s: 1.2,
            purchase: PurchasePick::Any,
            head_items: spec::LOOKUP_HEAD_ITEMS,
        },
        &catalog_sizes,
    );
    let mut want = serve::expected_counts(&log, &res.tables);
    let passes = lookups / log_len;
    for c in [&mut want.hits, &mut want.empties, &mut want.misses] {
        *c *= passes as u64;
    }
    let plan = ReplayPlan {
        passes,
        ..ReplayPlan::once(&log, readers())
    };
    let (rep, _) = tr.span("serving", "replay", || {
        serve::replay(&fleet.store, &plan, tr)
    });
    absorb_replay(out, &rep, &want);
}

fn absorb_replay(out: &mut Outcome, rep: &Replay, want: &sigmund_serving::ServingStats) {
    let bad = serve::replay_failures(&rep.stats, want);
    out.attempted += rep.lookups as u64;
    out.failed += bad;
    if bad > 0 {
        out.problems
            .push(format!("replay: got {:?}, log says {want:?}", rep.stats));
    }
    out.e2e.insert("lookup_qps", rep.qps());
    out.e2e.insert("lookup_p50_ns", rep.p50_ns());
    out.e2e.insert("lookup_p99_ns", rep.p99_ns());
    out.lookup_p999_ns = rep.p999_ns();
    out.notes.push(format!(
        "replay: {} lookups in {} blocks ({} beyond each block's p99), {} reader(s), {} churn publishes",
        rep.lookups,
        rep.blocks.len(),
        rep.lookups / rep.blocks.len().max(1) / 100,
        rep.readers,
        rep.publishes
    ));
}

/// The per-layer metrics of a traced pipeline day: the harness spans, the
/// shadow day's shares, and the counts the day's report carries.
fn traced_day_layers(
    fleet: &Fleet,
    res: &DayResult,
    data: &[RetailerData],
    untraced_s: f64,
    tr: &Tracer,
    out: &mut Outcome,
) {
    let retailers: Vec<RetailerId> = data.iter().map(RetailerData::retailer).collect();
    let dfs = &fleet.svc.dfs;
    let cfg = &fleet.svc.cfg;
    // Before the shadow day and `recover` read (and copy) the tree.
    let (files, bytes) = (dfs.list("/").len(), dfs.total_bytes());
    let problems = shadow::shadow_day(dfs, cfg, &res.report, &retailers, tr);

    let (recovered, recover_s) = timed(|| SigmundService::recover(dfs, cfg.clone()));
    match recovered {
        Ok(rec) if !rec.mid_day && rec.day == res.report.day + 1 => {}
        Ok(rec) => out.problems.push(format!(
            "recover after a sealed day came back mid_day={} day={}",
            rec.mid_day, rec.day
        )),
        Err(e) => out.problems.push(format!("recover: {e}")),
    }

    let run_day_s = tr.total("pipeline", "run_day");
    let mut l = |k: &'static str, v: f64| {
        out.layers.insert(k, v);
    };
    l("dfs.files_after_day", files as f64);
    l("dfs.bytes_after_day", bytes as f64);
    l("pipeline.onboard_s", tr.total("pipeline", "onboard"));
    l("pipeline.refresh_s", tr.total("pipeline", "refresh"));
    l("pipeline.run_day_s", run_day_s);
    l("pipeline.load_recs_s", tr.total("pipeline", "load_recs"));
    l("pipeline.publish_ms", tr.total("serving", "publish") * 1e3);
    l("pipeline.monitor_ms", tr.total("pipeline", "monitor") * 1e3);
    l(
        "pipeline.seal_day_ms",
        tr.total("pipeline", "seal_day") * 1e3,
    );
    l("pipeline.recover_ms", recover_s * 1e3);
    let mut shadow_s = 0.0;
    for (cat, key) in CATEGORIES.iter().zip([
        "core.train_share",
        "core.eval_share",
        "core.infer_share",
        "core.codec_share",
    ]) {
        let s = tr.total_prefix(cat);
        shadow_s += s;
        l(key, s / run_day_s);
    }
    l("pipeline.unattributed_s", run_day_s - shadow_s);
    l("pipeline.map_at_10", res.check.map_at_10);
    l("pipeline.models_trained", res.report.models_trained as f64);
    l(
        "pipeline.recs_published",
        res.tables.values().map(|t| t.len()).sum::<usize>() as f64,
    );
    l("pipeline.peak_logical_bytes", cfg.ledger.peak() as f64);
    l(
        "pipeline.virtual_train_makespan_s",
        res.report.train_makespan,
    );
    l(
        "pipeline.virtual_infer_makespan_s",
        res.report.infer_makespan,
    );
    let jobs = res.report.train_stats.iter().chain(&res.report.infer_stats);
    let (splits, attempts) = jobs.fold((0u64, 0u64), |(s, a), j| {
        (
            s + j.per_split.len() as u64,
            a + j
                .per_split
                .iter()
                .map(|p| u64::from(p.attempts))
                .sum::<u64>(),
        )
    });
    l("mapreduce.attempts", attempts as f64);
    l("mapreduce.preemptions", res.report.preemptions as f64);
    l(
        "mapreduce.useful_attempt_frac",
        splits as f64 / attempts.max(1) as f64,
    );
    l("bench.trace_overhead_frac", res.wall_s / untraced_s - 1.0);
    out.problems.extend(problems);
}

// --- serve_replay ------------------------------------------------------------

const CELL: CellId = CellId(0);

struct ServeFixture {
    n_items: Vec<usize>,
    /// Generation-1 tables of every retailer, traffic and churn alike.
    tables: Tables,
    churn: serve::Batches,
    warmup: Vec<Request>,
    log: Vec<Request>,
    want: sigmund_serving::ServingStats,
    tier: ColdTierConfig,
}

fn serve_fixture(run: &Run) -> ServeFixture {
    let sz = spec::serve_sizes(run.smoke);
    let fleet_n = sz.traffic_retailers + sz.churn_retailers;
    let sizes = fleet::stratified_sizes(&spec::FleetShape {
        n_retailers: fleet_n,
        min_items: 20,
        max_items: 2_000,
        pareto_alpha: 1.16,
        users_per_item: 1.0,
        sessions_per_user: 3.0,
    });
    let tables = serve::share(
        sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (RetailerId(i as u32), serve::synth_table(n, sz.rec_k, 0))),
    );
    // Churn retailers get no traffic, so a republish (or the trim of an old
    // spill) can never change how a request classifies.
    let churn = (1..=sz.churn_publishes as u64)
        .map(|p| {
            serve::share((sz.traffic_retailers..fleet_n).map(|i| {
                (
                    RetailerId(i as u32),
                    serve::synth_table(sizes[i], sz.rec_k, p),
                )
            }))
        })
        .collect();
    let n_items = sizes[..sz.traffic_retailers].to_vec();
    // The traced pass replays the log four times (see `serve_layers`), so
    // it uses a four-block prefix-sized log of its own.
    let lookups = if run.trace {
        4 * spec::lookup_block(run.smoke)
    } else {
        spec::lookup_count(sz.nominal_lookups_per_s, run.seconds, run.smoke)
    };
    let log_spec = LogSpec {
        seed: run.seed,
        salt: 0x10C,
        requests: lookups,
        zipf_s: sz.zipf_s,
        purchase: PurchasePick::EmptyBySynthesis,
        head_items: usize::MAX,
    };
    let warmup_spec = LogSpec {
        salt: 0x3A93,
        requests: sz.warmup_lookups,
        ..log_spec
    };
    let warmup = serve::zipf_log(&warmup_spec, &n_items);
    let log = serve::zipf_log(&log_spec, &n_items);
    let want = serve::expected_counts(&log, &tables);
    ServeFixture {
        n_items,
        tables,
        churn,
        warmup,
        log,
        want,
        tier: ColdTierConfig::enabled((sz.traffic_retailers / 8).max(1), 2, 77),
    }
}

fn tiered_store(fx: &ServeFixture) -> ServingStore {
    ServingStore::with_cold_tier(fx.tier, Arc::new(Dfs::new()), CELL)
}

fn serve_replay(run: &Run, tr: &Tracer, out: &mut Outcome) {
    let sz = spec::serve_sizes(run.smoke);
    let reps = if run.trace {
        1
    } else {
        spec::setup_reps(run.workload, run.smoke)
    };
    let mut setups = Vec::new();
    let mut fx = None;
    for _ in 0..reps {
        let (f, s) = timed(|| serve_fixture(run));
        setups.push(s);
        fx = Some(f);
    }
    let fx = fx.expect("at least one set-up");
    out.notes.push(format!(
        "fleet: {} traffic + {} churn retailers, {} items; hot capacity {}",
        sz.traffic_retailers,
        sz.churn_retailers,
        fx.tables.values().map(|t| t.len()).sum::<usize>(),
        fx.tier.hot_capacity
    ));

    // The serving half of a fleet-day: publish every table into a fresh
    // tiered store (encode, checksummed spill write, shard swap). The traced
    // pass adds one traced publish for the overhead ratio.
    let quiet = Tracer::off();
    let fleet_publish = |t: &Tracer| {
        let store = tiered_store(&fx);
        let (_, s) = t.span("serving", "fleet_publish", || {
            store.publish_shared(fx.tables.clone())
        });
        (store, s)
    };
    let mut publishes = Vec::new();
    let mut store = tiered_store(&fx);
    for _ in 0..sz.fleet_publishes {
        let (fresh, s) = fleet_publish(&quiet);
        publishes.push(s);
        store = fresh;
    }
    if run.trace {
        let (fresh, traced_s) = fleet_publish(tr);
        store = fresh;
        out.layers.insert(
            "bench.trace_overhead_frac",
            traced_s / median(&publishes) - 1.0,
        );
    }
    out.attempted += fx.tables.len() as u64;
    let spill_failures = store.tier_stats().map_or(0, |t| t.spill_failures);
    if store.retailer_count() != fx.tables.len() || spill_failures > 0 {
        out.failed += 1;
        out.problems.push(format!(
            "fleet publish: {} of {} retailers served, {spill_failures} spill failures",
            store.retailer_count(),
            fx.tables.len()
        ));
    }
    out.e2e.insert("day_wall_s", median(&publishes));
    out.e2e.insert("setup_s", median(&setups));
    out.samples.insert("day_wall_s", publishes);
    out.samples.insert("setup_s", setups);

    // Untimed warm-up, then the timed closed-loop replay with the publisher
    // landing churn batches beside the reads.
    serve::replay(&store, &ReplayPlan::once(&fx.warmup, readers()), &quiet);
    let plan = ReplayPlan {
        churn: &fx.churn,
        ..ReplayPlan::once(&fx.log, readers())
    };
    let (rep, _) = tr.span("serving", "replay", || serve::replay(&store, &plan, tr));
    absorb_replay(out, &rep, &fx.want);
    let tier = store.tier_stats().unwrap_or_default();
    if tier.cold_misses > 0 || tier.spill_failures > 0 {
        out.failed += tier.cold_misses + tier.spill_failures;
        out.problems.push(format!("tier degraded: {tier:?}"));
    }
    // Serving has no model quality; what it published is its output.
    out.output_digest = sigmund_types::fnv1a64(
        &[
            rep.stats.hits,
            rep.stats.empties,
            rep.stats.misses,
            store.generation(),
        ]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect::<Vec<u8>>(),
    );

    if run.trace {
        serve_layers(&fx, out);
    }
}

/// One-reader replays that split the lookup path: an untiered store (the
/// memory path alone), the tiered store with each lookup classed hot or
/// flash by the sequential `TierSim` — which *is* the live tier's
/// trajectory at one reader — and two readers for scaling. No publisher in
/// any of them.
fn serve_layers(fx: &ServeFixture, out: &mut Outcome) {
    let quiet = Tracer::off();
    let mem = ServingStore::new();
    mem.publish_shared(fx.tables.clone());
    serve::replay(&mem, &ReplayPlan::once(&fx.warmup, 1), &quiet);
    let rep = serve::replay(&mem, &ReplayPlan::once(&fx.log, 1), &quiet);
    out.layers.insert("serving.lookup_mem_ns", rep.p50_ns());

    let tiered = |n_readers: usize| {
        let store = tiered_store(fx);
        store.publish_shared(fx.tables.clone());
        serve::replay(&store, &ReplayPlan::once(&fx.warmup, 1), &quiet);
        let before = store.tier_stats().unwrap_or_default();
        let plan = ReplayPlan {
            keep_latencies: true,
            ..ReplayPlan::once(&fx.log, n_readers)
        };
        let rep = serve::replay(&store, &plan, &quiet);
        let after = store.tier_stats().unwrap_or_default();
        let delta = TierStats {
            hot_hits: after.hot_hits - before.hot_hits,
            fetches: after.fetches - before.fetches,
            cold_misses: after.cold_misses - before.cold_misses,
            spill_failures: after.spill_failures,
            ..TierStats::default()
        };
        (rep, delta)
    };
    let (one, tier) = tiered(1);
    let mut sim = TierSim::new(fx.tier);
    for req in &fx.warmup {
        sim.access(req.retailer);
    }
    let (mut hot, mut flash, mut modelled_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (req, &ns) in fx.log.iter().zip(&one.lat_ns) {
        if matches!(sim.access(req.retailer), TierOutcome::Hit) {
            hot.push(ns);
            modelled_ms.push(0.05);
        } else {
            flash.push(ns);
            // sigmund-bench's latency model: 0.8 ms per flash fetch plus
            // 1 µs per item decoded; 0.05 ms from memory.
            modelled_ms.push(0.8 + 0.001 * fx.n_items[req.retailer.index()] as f64);
        }
    }
    modelled_ms.sort_by(f64::total_cmp);
    let p99 = modelled_ms
        [((modelled_ms.len() as f64 * 0.99).ceil() as usize).clamp(1, modelled_ms.len()) - 1];
    let mut l = |k: &'static str, v: f64| {
        out.layers.insert(k, v);
    };
    l("serving.lookup_hot_ns", serve::quantile(&hot, 0.5));
    l(
        "serving.lookup_flash_us",
        serve::quantile(&flash, 0.5) / 1e3,
    );
    l("serving.hot_hit_rate", tier.hot_hit_rate());
    l("serving.cold_misses", tier.cold_misses as f64);
    l("serving.spill_failures", tier.spill_failures as f64);
    l("serving.modelled_p99_ms", p99);
    if tier.hot_hits != hot.len() as u64 {
        out.problems.push(format!(
            "TierSim predicted {} hot lookups, the live tier served {}",
            hot.len(),
            tier.hot_hits
        ));
    }
    let (two, _) = tiered(2);
    out.layers
        .insert("serving.scaling_2t", two.qps() / one.qps());
}
