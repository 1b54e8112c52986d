//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric
//! each is predicted to move, and the frozen input sizes.
//!
//! Later issues refer to these names; renaming one is a benchmark change.

use sigmund_cluster::PreemptionModel;
use sigmund_types::FeatureSwitches;

/// One workload: a seeded set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OnboardDay,
    SteadyDays,
    BigcatDay,
    ServeReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OnboardDay,
        Workload::SteadyDays,
        Workload::BigcatDay,
        Workload::ServeReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OnboardDay => "onboard_day",
            Workload::SteadyDays => "steady_days",
            Workload::BigcatDay => "bigcat_day",
            Workload::ServeReplay => "serve_replay",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists — one line, also written to BENCHMARK.json.
    pub fn why(self) -> &'static str {
        match self {
            Workload::OnboardDay => "cold grid search over a Pareto fleet: core training, evaluation and selection dominate and many tiny MapReduce splits stress scheduling overhead; inference and publish are small",
            Workload::SteadyDays => "incremental days: warm starts from ModelSnapshot blobs, DFS overwrite and re-read, model-generation GC, journal seal, republish over a live serving generation",
            Workload::BigcatDay => "few retailers with huge catalogs: rep-matrix build, candidate scoring, top-K, SGRC part write/re-read/delete, stitch and publish dominate; training is small",
            Workload::ServeReplay => "no pipeline code: a Zipf lookup log against the tiered store while churn batches publish; p50 sits on the hot path, p99 on the flash path",
        }
    }

    pub fn is_pipeline(self) -> bool {
        self != Workload::ServeReplay
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// By how much a metric's median may worsen before `compare` calls it a
/// regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline median.
    Rel(f64),
    /// An absolute amount, in the metric's unit.
    Abs(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `compare`'s bound: two runs of one seed.
    pub bound: Bound,
    /// BENCHMARK.json's bound, a share of the median: the driver's runs
    /// each take another seed, so it also has to hold the spread between
    /// inputs (measured: README, "Steadiness"). `None` = not listed.
    pub driver_bound: Option<f64>,
    /// `map_at_10` and `failed_frac` are not listed: the driver's contract
    /// wants every metric non-zero on every workload, and they are 0 or
    /// undefined on some. They stay end-to-end metrics of `run`/`compare`,
    /// and a failure also shows in the driver's `failed`/`correct`.
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "day_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.05),
        driver_bound: Some(0.10),
        what: "median wall time of one timed fleet-day (ingest, run_day, load_recs, publish, monitor, seal); on serve_replay, of publishing the whole fleet into the tiered store",
    },
    EndToEnd {
        name: "map_at_10",
        unit: "map",
        better: Better::Higher,
        bound: Bound::Abs(0.005),
        driver_bound: None,
        what: "fleet-mean hold-out MAP@10 of the published winners, last timed day (undefined on serve_replay)",
    },
    EndToEnd {
        name: "lookup_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Rel(0.05),
        driver_bound: Some(0.15),
        what: "closed-loop lookups per second over all readers",
    },
    EndToEnd {
        name: "lookup_p50_ns",
        unit: "ns",
        better: Better::Lower,
        bound: Bound::Rel(0.10),
        driver_bound: Some(0.10),
        what: "median lookup latency, one clock read per lookup, back-to-back: median over 64k-lookup blocks of each block's p50",
    },
    EndToEnd {
        name: "lookup_p99_ns",
        unit: "ns",
        better: Better::Lower,
        bound: Bound::Rel(0.10),
        driver_bound: Some(0.25),
        what: "99th-percentile lookup latency: median over 64k-lookup blocks of each block's p99",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Rel(0.20),
        driver_bound: Some(0.25),
        what: "VmHWM of the measuring process",
    },
    EndToEnd {
        name: "failed_frac",
        unit: "frac",
        better: Better::Lower,
        bound: Bound::Abs(0.0),
        driver_bound: None,
        what: "failed / attempted: retailer-days without a fresh valid table, lookups mis-classified or cold-missed",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        driver_bound: Some(0.25),
        what: "median of repeated set-ups: datagen (plus onboard and day 0 on steady_days; plus table synthesis and log generation on serve_replay)",
    },
];

/// One per-layer metric. `moves` names the end-to-end metric @ workload it
/// is predicted to move; `model` marks numbers computed by a simulator
/// rather than measured.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
    pub model: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        model: false,
    }
}

const fn modelled(name: &'static str, unit: &'static str, moves: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        moves,
        model: true,
    }
}

use Better::{Higher as Hi, Lower as Lo};

/// Every per-layer metric, `<crate>.<name>`. A traced run prints all of
/// them; one that does not apply to the workload reads 0.
pub const PER_LAYER: &[Layer] = &[
    // --- isolated probes: workload-independent, run in every traced pass
    layer(
        "types.fnv1a64_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@bigcat_day, lookup_p99_ns@serve_replay",
    ),
    layer(
        "datagen.events_per_s",
        "1/s",
        Hi,
        "setup_s@onboard_day,steady_days,bigcat_day",
    ),
    layer(
        "datagen.evolve_events_per_s",
        "1/s",
        Hi,
        "setup_s@steady_days",
    ),
    layer(
        "dfs.write_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@bigcat_day,steady_days",
    ),
    layer(
        "dfs.read_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@bigcat_day,steady_days",
    ),
    layer("dfs.small_op_ns", "ns", Lo, "day_wall_s@steady_days"),
    layer(
        "dfs.checkpoint_roundtrip_us",
        "us",
        Lo,
        "day_wall_s@onboard_day",
    ),
    layer(
        "cluster.sim_tasks_per_s",
        "1/s",
        Hi,
        "day_wall_s@onboard_day",
    ),
    layer(
        "mapreduce.split_overhead_us",
        "us",
        Lo,
        "day_wall_s@onboard_day",
    ),
    layer(
        "core.dataset_build_events_per_s",
        "1/s",
        Hi,
        "day_wall_s@onboard_day",
    ),
    layer(
        "core.train_examples_per_s",
        "1/s",
        Hi,
        "day_wall_s@onboard_day,steady_days",
    ),
    layer(
        "core.train_examples_per_s_feat",
        "1/s",
        Hi,
        "day_wall_s@onboard_day,steady_days",
    ),
    layer(
        "core.train_scaling_2t",
        "ratio",
        Hi,
        "none today (threads: 1); baseline for Hogwild work",
    ),
    layer(
        "core.eval_holdouts_per_s",
        "1/s",
        Hi,
        "day_wall_s@onboard_day",
    ),
    layer(
        "core.eval_sampled_holdouts_per_s",
        "1/s",
        Hi,
        "day_wall_s@bigcat_day",
    ),
    layer(
        "core.snapshot_encode_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@steady_days",
    ),
    layer(
        "core.snapshot_decode_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@steady_days",
    ),
    layer(
        "core.rep_build_items_per_s",
        "1/s",
        Hi,
        "day_wall_s@bigcat_day",
    ),
    layer("core.infer_items_per_s", "1/s", Hi, "day_wall_s@bigcat_day"),
    layer(
        "core.infer_candidates_per_s",
        "1/s",
        Hi,
        "day_wall_s@bigcat_day",
    ),
    layer(
        "core.infer_scaling_2t",
        "ratio",
        Hi,
        "day_wall_s@bigcat_day",
    ),
    layer(
        "core.infer_fast_vs_reference",
        "ratio",
        Hi,
        "day_wall_s@bigcat_day",
    ),
    layer(
        "core.recs_encode_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@bigcat_day, lookup_p99_ns@serve_replay",
    ),
    layer(
        "core.recs_decode_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@bigcat_day, lookup_p99_ns@serve_replay",
    ),
    layer(
        "pipeline.encode_events_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@steady_days",
    ),
    layer(
        "pipeline.decode_events_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@steady_days",
    ),
    layer(
        "pipeline.encode_catalog_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@steady_days",
    ),
    layer(
        "pipeline.decode_catalog_mb_per_s",
        "MB/s",
        Hi,
        "day_wall_s@steady_days",
    ),
    layer(
        "pipeline.journal_overhead_frac",
        "frac",
        Lo,
        "day_wall_s@steady_days",
    ),
    layer(
        "obs.enabled_overhead_frac",
        "frac",
        Lo,
        "day_wall_s@steady_days",
    ),
    layer(
        "obs.span_ns",
        "ns",
        Lo,
        "day_wall_s once in-program tracing lands",
    ),
    layer(
        "obs.bus_publish_ns",
        "ns",
        Lo,
        "day_wall_s once in-program tracing lands",
    ),
    layer(
        "serving.publish_ms_per_batch",
        "ms",
        Lo,
        "day_wall_s@bigcat_day",
    ),
    layer(
        "serving.publish_tiered_ms_per_batch",
        "ms",
        Lo,
        "day_wall_s@serve_replay",
    ),
    layer(
        "serving.tier_fetch_us",
        "us",
        Lo,
        "lookup_p99_ns@serve_replay",
    ),
    layer(
        "serving.tiersim_access_ns",
        "ns",
        Lo,
        "lookup_p99_ns@serve_replay",
    ),
    layer("serving.meta_restore_ms", "ms", Lo, "pipeline.recover_ms"),
    layer("bench.sentinel_ms", "ms", Lo, "validity of the run itself"),
    // --- traced pipeline day (0 on serve_replay)
    layer(
        "pipeline.onboard_s",
        "s",
        Lo,
        "day_wall_s@onboard_day,bigcat_day",
    ),
    layer("pipeline.refresh_s", "s", Lo, "day_wall_s@steady_days"),
    layer(
        "pipeline.run_day_s",
        "s",
        Lo,
        "day_wall_s on the workload traced",
    ),
    layer(
        "pipeline.load_recs_s",
        "s",
        Lo,
        "day_wall_s on the workload traced",
    ),
    layer(
        "pipeline.publish_ms",
        "ms",
        Lo,
        "day_wall_s on the workload traced",
    ),
    layer(
        "pipeline.monitor_ms",
        "ms",
        Lo,
        "day_wall_s on the workload traced",
    ),
    layer("pipeline.seal_day_ms", "ms", Lo, "day_wall_s@steady_days"),
    layer(
        "pipeline.unattributed_s",
        "s",
        Lo,
        "day_wall_s@onboard_day,steady_days",
    ),
    layer("pipeline.recover_ms", "ms", Lo, "none gated; recovery cost"),
    layer(
        "pipeline.map_at_10",
        "map",
        Hi,
        "map_at_10 on the workload traced",
    ),
    layer(
        "pipeline.models_trained",
        "count",
        Lo,
        "day_wall_s on the workload traced",
    ),
    layer(
        "pipeline.recs_published",
        "count",
        Hi,
        "peak_rss_mb@bigcat_day",
    ),
    layer(
        "pipeline.peak_logical_bytes",
        "bytes",
        Lo,
        "peak_rss_mb@bigcat_day",
    ),
    modelled(
        "pipeline.virtual_train_makespan_s",
        "s",
        "none: modelled, kept beside pipeline.run_day_s",
    ),
    modelled(
        "pipeline.virtual_infer_makespan_s",
        "s",
        "none: modelled, kept beside pipeline.run_day_s",
    ),
    layer(
        "core.train_share",
        "frac",
        Lo,
        "day_wall_s@onboard_day,steady_days",
    ),
    layer("core.eval_share", "frac", Lo, "day_wall_s@onboard_day"),
    layer("core.infer_share", "frac", Lo, "day_wall_s@bigcat_day"),
    layer(
        "core.codec_share",
        "frac",
        Lo,
        "day_wall_s@bigcat_day,steady_days",
    ),
    layer(
        "dfs.files_after_day",
        "count",
        Lo,
        "explains day_wall_s moves; not gated",
    ),
    layer(
        "dfs.bytes_after_day",
        "bytes",
        Lo,
        "explains day_wall_s moves; not gated",
    ),
    layer(
        "mapreduce.attempts",
        "count",
        Lo,
        "day_wall_s@onboard_day,steady_days",
    ),
    layer(
        "mapreduce.preemptions",
        "count",
        Lo,
        "day_wall_s@onboard_day,steady_days",
    ),
    layer(
        "mapreduce.useful_attempt_frac",
        "frac",
        Hi,
        "day_wall_s@onboard_day,steady_days",
    ),
    // --- traced serve replay (0 on the pipeline workloads)
    layer(
        "serving.lookup_mem_ns",
        "ns",
        Lo,
        "lookup_p50_ns@serve_replay",
    ),
    layer(
        "serving.lookup_hot_ns",
        "ns",
        Lo,
        "lookup_p50_ns@serve_replay",
    ),
    layer(
        "serving.lookup_flash_us",
        "us",
        Lo,
        "lookup_p99_ns@serve_replay",
    ),
    layer(
        "serving.hot_hit_rate",
        "frac",
        Hi,
        "lookup_qps@serve_replay",
    ),
    layer(
        "serving.cold_misses",
        "count",
        Lo,
        "failed_frac@serve_replay",
    ),
    layer(
        "serving.spill_failures",
        "count",
        Lo,
        "failed_frac@serve_replay",
    ),
    layer("serving.scaling_2t", "ratio", Hi, "lookup_qps@serve_replay"),
    modelled(
        "serving.modelled_p99_ms",
        "ms",
        "none: modelled, kept beside lookup_p99_ns",
    ),
    // --- the run itself
    layer(
        "bench.trace_overhead_frac",
        "frac",
        Lo,
        "validity of the traced pass",
    ),
];

// --- frozen sizes ----------------------------------------------------------
//
// Calibrated once on the 2-core reference box so that a run at the
// BENCHMARK.json `run_seconds` spends about that long in timed sections,
// then frozen. Nothing here is ever derived from a timing at run time: the
// amount of work is a pure function of `(workload, --seconds, --smoke)`.

/// How retailer catalog sizes are laid out.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub n_retailers: usize,
    pub min_items: usize,
    pub max_items: usize,
    /// Truncated-Pareto tail exponent; sizes are its evenly spaced
    /// quantiles, so the fleet's total size does not depend on the seed.
    pub pareto_alpha: f64,
    /// Users per item (activity density).
    pub users_per_item: f64,
    /// Mean sessions per user in the generated history.
    pub sessions_per_user: f32,
}

/// The pipeline side of a workload.
#[derive(Debug, Clone)]
pub struct DaySizes {
    pub fleet: FleetShape,
    pub factors: Vec<u32>,
    pub learning_rates: Vec<f32>,
    pub features: Vec<FeatureSwitches>,
    pub epochs: u32,
    pub preemption: PreemptionModel,
    pub items_per_split: usize,
    /// Nominal wall seconds of one timed day at these sizes; turns
    /// `--seconds` into a whole number of days.
    pub nominal_day_s: f64,
    /// Lookups replayed against the published store per second of budget.
    pub nominal_lookups_per_s: f64,
}

/// The serving side of `serve_replay`.
#[derive(Debug, Clone, Copy)]
pub struct ServeSizes {
    pub traffic_retailers: usize,
    pub churn_retailers: usize,
    pub rec_k: usize,
    pub zipf_s: f64,
    pub warmup_lookups: usize,
    /// Churn batches the publisher lands during the replay.
    pub churn_publishes: usize,
    /// Fresh whole-fleet publishes timed for `day_wall_s`.
    pub fleet_publishes: usize,
    pub nominal_lookups_per_s: f64,
}

/// Share of `--seconds` spent on timed days; the rest replays lookups.
pub const DAY_SHARE: f64 = 0.75;
/// Lookups per span/progress block and per p99 sample.
pub const LOOKUP_BLOCK: usize = 65_536;
/// How many times a run repeats its set-up to report a median: often
/// where set-up is milliseconds of datagen, three times where it runs a
/// whole day 0.
pub fn setup_reps(w: Workload, smoke: bool) -> usize {
    if smoke {
        return 1;
    }
    match w {
        Workload::OnboardDay | Workload::BigcatDay => 9,
        Workload::ServeReplay => 5,
        Workload::SteadyDays => 3,
    }
}

/// Sessions per user that `evolve_day` derives one day's traffic from
/// (it halves this, floor 1): one new session per user per day on top of
/// the `sessions_per_user` history the fleet was generated with.
pub const DAILY_SESSIONS_KNOB: f32 = 2.0;
/// Recommendations per item and surface.
pub const REC_K: usize = 10;
/// The pipeline workloads' lookup log addresses only this many items per
/// retailer (the Pareto fleets never exceed it; it bites on bigcat_day).
/// A log spread over all of bigcat's tables has a working set of tens of
/// MB, which lives in the L3 cache this box shares with its neighbours:
/// its tail latency then swings by tens of percent from run to run of one
/// binary. The head stays in the core's own cache, like the other fleets.
pub const LOOKUP_HEAD_ITEMS: usize = 2_000;
/// A run never times fewer days than this (the median needs them).
pub const MIN_UNITS: usize = 3;

const PARETO: FleetShape = FleetShape {
    n_retailers: 0,
    min_items: 20,
    max_items: 2_000,
    pareto_alpha: 1.16,
    users_per_item: 1.0,
    sessions_per_user: 3.0,
};

pub fn day_sizes(w: Workload, smoke: bool) -> DaySizes {
    let both = vec![FeatureSwitches::NONE, FeatureSwitches::ALL];
    if smoke {
        // Seconds in a debug build: every code path, no meaningful timing.
        let big = w == Workload::BigcatDay;
        return DaySizes {
            fleet: FleetShape {
                n_retailers: if big { 1 } else { 3 },
                min_items: if big { 90 } else { 20 },
                max_items: if big { 90 } else { 40 },
                users_per_item: if big { 0.5 } else { 1.0 },
                ..PARETO
            },
            factors: vec![4],
            learning_rates: vec![0.1],
            features: if w == Workload::OnboardDay {
                both
            } else {
                vec![FeatureSwitches::ALL]
            },
            epochs: 1,
            preemption: if big {
                PreemptionModel::NONE
            } else {
                PreemptionModel::typical()
            },
            items_per_split: if big { 40 } else { 500 },
            nominal_day_s: 1.0,
            nominal_lookups_per_s: 200.0,
        };
    }
    match w {
        Workload::OnboardDay => DaySizes {
            fleet: FleetShape {
                n_retailers: 40,
                ..PARETO
            },
            factors: vec![8, 16],
            learning_rates: vec![0.05, 0.15],
            features: both,
            epochs: 3,
            preemption: PreemptionModel::typical(),
            items_per_split: 500,
            nominal_day_s: 2.2,
            nominal_lookups_per_s: 3_300_000.0,
        },
        Workload::SteadyDays => DaySizes {
            fleet: FleetShape {
                n_retailers: 20,
                max_items: 60,
                users_per_item: 0.5,
                sessions_per_user: 12.0,
                ..PARETO
            },
            // Four configs of one shape: which three survive `keep_top` is
            // the model selection's choice, and it must not change how
            // much a day costs.
            factors: vec![16],
            learning_rates: vec![0.03, 0.05, 0.1, 0.15],
            features: vec![FeatureSwitches::ALL],
            epochs: 4,
            preemption: PreemptionModel::typical(),
            items_per_split: 500,
            nominal_day_s: 1.8,
            nominal_lookups_per_s: 3_300_000.0,
        },
        Workload::BigcatDay => DaySizes {
            fleet: FleetShape {
                n_retailers: 4,
                min_items: 24_000,
                max_items: 24_000,
                users_per_item: 0.012,
                ..PARETO
            },
            factors: vec![16],
            learning_rates: vec![0.05],
            features: vec![FeatureSwitches::ALL],
            epochs: 2,
            preemption: PreemptionModel::NONE,
            items_per_split: 500,
            nominal_day_s: 2.4,
            nominal_lookups_per_s: 3_300_000.0,
        },
        Workload::ServeReplay => unreachable!("serve_replay has no pipeline side"),
    }
}

pub fn serve_sizes(smoke: bool) -> ServeSizes {
    if smoke {
        return ServeSizes {
            traffic_retailers: 24,
            churn_retailers: 8,
            rec_k: 5,
            zipf_s: 1.2,
            warmup_lookups: 200,
            churn_publishes: 2,
            fleet_publishes: 2,
            nominal_lookups_per_s: 400.0,
        };
    }
    ServeSizes {
        traffic_retailers: 1_600,
        churn_retailers: 32,
        rec_k: REC_K,
        zipf_s: 1.2,
        warmup_lookups: 200_000,
        churn_publishes: 12,
        fleet_publishes: 9,
        nominal_lookups_per_s: 180_000.0,
    }
}

/// Incremental-sweep knobs on `steady_days` (the paper's "typically 3").
pub const KEEP_TOP: usize = 3;
pub const INCREMENTAL_EPOCHS: u32 = 3;

/// Timed days a run of `seconds` performs (two under `--smoke`: enough to
/// check that identical days repeat and consecutive days chain).
pub fn day_units(sizes: &DaySizes, seconds: f64, smoke: bool) -> usize {
    if smoke {
        return 2;
    }
    ((seconds * DAY_SHARE / sizes.nominal_day_s).round() as usize).max(MIN_UNITS)
}

/// Lookups a run replays: whole blocks, at least one.
pub fn lookup_count(per_s: f64, seconds: f64, smoke: bool) -> usize {
    let block = lookup_block(smoke);
    (((per_s * seconds) as usize) / block).max(1) * block
}

pub fn lookup_block(smoke: bool) -> usize {
    if smoke {
        256
    } else {
        LOOKUP_BLOCK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|l| l.name))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for n in names {
            assert!(seen.insert(n), "duplicate name {n}");
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(PER_LAYER
            .iter()
            .all(|l| !l.moves.is_empty() && !l.unit.is_empty()));
        assert!(Workload::ALL
            .iter()
            .all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        assert_eq!(Workload::parse("bigcat_day"), Some(Workload::BigcatDay));
    }

    #[test]
    fn work_is_a_function_of_seconds_only() {
        let s = day_sizes(Workload::OnboardDay, false);
        assert_eq!(day_units(&s, 12.0, false), day_units(&s, 12.0, false));
        assert!(day_units(&s, 0.1, false) >= MIN_UNITS);
        assert_eq!(lookup_count(1e5, 3.0, false) % LOOKUP_BLOCK, 0);
        assert!(lookup_count(1.0, 0.1, true) >= 256);
    }
}
