// Experiment / test / example code may unwrap freely; the workspace-level
// clippy panic lints target library crates only.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! `sigmund` — operator CLI for the reproduction.
//!
//! ```text
//! sigmund simulate  --retailers 6 --days 3 --cells 2 --machines 6 \
//!                   --preempt 0.25 --seed 7       # run the daily service
//! sigmund watch     --retailers 6 --days 8 --headless    # live fleet dashboard
//! sigmund train     --items 300 --users 400 --grid small
//! sigmund evolve    --items 150 --users 200 --days 3   # world churn demo
//! sigmund help
//! ```
//!
//! Everything is deterministic given `--seed`; output is plain text tables.

mod args;

use args::Args;
use sigmund_cluster::{CellSpec, PreemptionModel};
use sigmund_core::prelude::*;
use sigmund_datagen::{evolve_day, EvolutionSpec, FleetSpec, RetailerSpec};
use sigmund_obs::{
    summarize_integrity, summarize_metrics, summarize_trace, Dashboard, HealthBus, Level, Obs,
};
use sigmund_pipeline::{
    journal, load_recs, ChaosConfig, MonitorConfig, PipelineConfig, QualityAlert, QualityMonitor,
    SigmundService,
};
use sigmund_serving::{RecSurface, ServingStore};
use sigmund_types::{CellId, ItemId, RetailerId, SigmundError};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(argv) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `sigmund help` for usage");
            2
        }
    };
    std::process::exit(code);
}

fn run(argv: Vec<String>) -> Result<(), String> {
    if argv.is_empty() {
        print_help();
        return Ok(());
    }
    let args = Args::parse_with_switches(argv, &["trace", "headless", "journal", "resume"])?;
    match args.command.as_str() {
        "simulate" => simulate(&args),
        "watch" => watch(&args),
        "train" => train_cmd(&args),
        "evolve" => evolve_cmd(&args),
        "report" => report_cmd(&args),
        "scrub" => scrub_cmd(&args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn print_help() {
    println!(
        "sigmund — multi-tenant recommendations-as-a-service (ICDE'18 reproduction)\n\n\
         SUBCOMMANDS\n\
         \x20 simulate   run the daily pipeline over a synthetic fleet\n\
         \x20            --retailers N (6) --days D (2) --cells C (2) --machines M (6)\n\
         \x20            --preempt RATE/task-hr (0.25) --min-items (30) --max-items (400)\n\
         \x20            --threads T (1) --infer-threads I (1) --seed S (7)\n\
         \x20                       T = SGD threads per model: 1 is exact and\n\
         \x20                       reproducible, and independent models then\n\
         \x20                       train side by side on all cores; T > 1 opts\n\
         \x20                       into racy Hogwild and divides those cores\n\
         \x20            --fault-profile none|mild|storm|bitflip (none)  seeded chaos\n\
         \x20            --chaos-seed S (= --seed)  fault-injection seed\n\
         \x20            --trace    write results/trace.json (Chrome trace-event\n\
         \x20                       format) + results/metrics.jsonl\n\
         \x20            --journal  durable day journal: manifests + publish\n\
         \x20                       markers in the DFS at each phase boundary\n\
         \x20            --crash-day D --crash-at K (25)  seeded kill-point:\n\
         \x20                       unwind the pipeline at DFS op K of day D\n\
         \x20            --resume   on crash, recover from the journal and\n\
         \x20                       re-run the interrupted day idempotently\n\
         \x20 watch      live-ops dashboard: tick days continuously, streaming\n\
         \x20            fleet health over the in-process bus and rendering one\n\
         \x20            frame per day (same fleet + crash/resume flags as\n\
         \x20            simulate — a recovery renders a RECOVERED badge — plus:)\n\
         \x20            --headless   plain frames to stdout, no ANSI, no sleep\n\
         \x20            --delay-ms N (250)  interactive frame delay\n\
         \x20            --bus-capacity N (1024)  health-bus ring size\n\
         \x20 report     summarize the trace + metrics from a traced simulate\n\
         \x20            --dir PATH (results)\n\
         \x20 scrub      run a fleet under injected corruption, then checksum-scrub\n\
         \x20            the DFS and report repairs\n\
         \x20            --retailers N (3) --days D (2) --seed S (7)\n\
         \x20            --fault-profile none|mild|storm|bitflip (bitflip)\n\
         \x20            --chaos-seed S (= --seed)\n\
         \x20 train      grid-search one retailer and print recommendations\n\
         \x20            --items N (300) --users U (400) --grid small|paper (small)\n\
         \x20            --threads T (1; > 1 = Hogwild) --seed S (42)\n\
         \x20 evolve     show day-over-day catalog churn + incremental refresh\n\
         \x20            --items N (150) --users U (200) --days D (3) --seed S (99)\n\
         \x20 help       this text"
    );
}

/// Parses a `--fault-profile` value into a [`ChaosConfig`].
fn fault_profile(name: &str, chaos_seed: u64) -> Result<ChaosConfig, String> {
    match name {
        "none" => Ok(ChaosConfig::disabled()),
        "mild" => Ok(ChaosConfig::mild(chaos_seed)),
        "storm" => Ok(ChaosConfig::storm(chaos_seed)),
        "bitflip" => Ok(ChaosConfig::bitflip(chaos_seed)),
        other => Err(format!(
            "--fault-profile must be none|mild|storm|bitflip, got {other}"
        )),
    }
}

/// Shared crash–restart recovery for `simulate` and `watch`.
///
/// Rebuilds the pipeline service from the durable day journal, then restores
/// the driver-side state (quality monitor, serving store) from the ops
/// payload sealed with the last completed day. Any missing or unreadable
/// piece falls back to fresh state — recovery must never be worse than
/// starting over. Returns the day the recovered service will run next.
fn recover_cli(
    svc: &mut SigmundService,
    monitor: &mut QualityMonitor,
    store: &mut ServingStore,
    fleet: &FleetSpec,
    base_cfg: &PipelineConfig,
    bus: &HealthBus,
) -> Result<u32, String> {
    let rec = SigmundService::recover(&svc.dfs, base_cfg.clone()).map_err(|e| e.to_string())?;
    println!(
        "RECOVERED: {} day {} from the day journal",
        if rec.mid_day {
            "re-running interrupted"
        } else {
            "restarting at"
        },
        rec.day
    );
    *svc = rec.service;
    *monitor = QualityMonitor::with_bus(MonitorConfig::default(), bus.clone());
    *store = ServingStore::with_bus(bus.clone());
    if let Some(ops) = rec.ops_state.as_deref() {
        if let Ok(sections) = journal::unpack_ops(ops) {
            if let Some(blob) = sections.first() {
                if let Ok(m) =
                    QualityMonitor::from_bytes(MonitorConfig::default(), bus.clone(), blob)
                {
                    *monitor = m;
                }
            }
            if let Some(meta) = sections.get(1) {
                // The store snapshot only carries freshness metadata; the rec
                // tables themselves live in the DFS and are re-read from the
                // home cell. A table that fails to load is simply absent —
                // the store then reports it as never published, not stale.
                let cell = base_cfg.cells[0].cell;
                let mut tables: BTreeMap<RetailerId, Arc<Vec<ItemRecs>>> = BTreeMap::new();
                for &(r, _) in svc.retailers() {
                    if let Ok(t) = load_recs(&svc.dfs, cell, r) {
                        tables.insert(r, Arc::new(t));
                    }
                }
                if let Ok(s) = ServingStore::restore(bus.clone(), meta, tables) {
                    *store = s;
                }
            }
        }
    }
    // A crash before the first manifest (day-0 onboarding) leaves the journal
    // empty; re-onboard the same deterministic fleet before re-running.
    if svc.retailers().is_empty() {
        for d in fleet.stream() {
            svc.onboard(&d.catalog, &d.events)
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(rec.day)
}

fn simulate(args: &Args) -> Result<(), String> {
    args.ensure_known(&[
        "retailers",
        "days",
        "cells",
        "machines",
        "preempt",
        "min-items",
        "max-items",
        "threads",
        "infer-threads",
        "seed",
        "fault-profile",
        "chaos-seed",
        "trace",
        "journal",
        "crash-day",
        "crash-at",
        "resume",
    ])?;
    let n_retailers: usize = args.get("retailers", 6)?;
    let days: u32 = args.get("days", 2)?;
    let cells: usize = args.get("cells", 2)?;
    let machines: usize = args.get("machines", 6)?;
    let preempt: f64 = args.get("preempt", 0.25)?;
    let min_items: usize = args.get("min-items", 30)?;
    let max_items: usize = args.get("max-items", 400)?;
    let threads: usize = args.get("threads", 1)?;
    let infer_threads: usize = args.get("infer-threads", 1)?;
    let seed: u64 = args.get("seed", 7)?;
    let chaos_seed: u64 = args.get("chaos-seed", seed)?;
    let mut chaos = fault_profile(args.get_str("fault-profile").unwrap_or("none"), chaos_seed)?;
    let trace: bool = args.get("trace", false)?;
    let resume: bool = args.get("resume", false)?;
    let crash_day: Option<u32> = match args.get_str("crash-day") {
        Some(_) => Some(args.get("crash-day", 0)?),
        None => None,
    };
    let crash_at: u64 = args.get("crash-at", 25)?;
    if args.get_str("crash-at").is_some() && crash_day.is_none() {
        return Err("--crash-at requires --crash-day".into());
    }
    // Crash injection and resume both need the durable day journal.
    let journal_on: bool = args.get("journal", false)? || resume || crash_day.is_some();
    if let Some(d) = crash_day {
        chaos.plan.crash_at = Some((d, crash_at));
    }
    if n_retailers == 0
        || days == 0
        || cells == 0
        || machines == 0
        || threads == 0
        || infer_threads == 0
    {
        return Err("counts must be positive".into());
    }
    let obs = if trace {
        Obs::recording(Level::Debug)
    } else {
        Obs::disabled()
    };

    let fleet = FleetSpec {
        n_retailers,
        min_items,
        max_items,
        pareto_alpha: 1.0,
        users_per_item: 1.2,
        seed,
    };
    println!("generating {n_retailers} retailers…");
    // Automatic post-publish rollback is only armed under an active fault
    // profile: a clean run must stay byte-identical to the pre-rollback CLI.
    let chaos_active = !chaos.is_disabled();
    let base_cfg = PipelineConfig {
        cells: (0..cells)
            .map(|c| CellSpec::standard(CellId(c as u32), machines))
            .collect(),
        preemption: PreemptionModel {
            rate_per_hour: preempt,
        },
        threads,
        infer_threads,
        seed,
        obs: obs.clone(),
        chaos,
        journal: journal_on,
        ..Default::default()
    };
    let mut svc = SigmundService::new(base_cfg.clone());
    // Streamed onboarding: each retailer is generated, published to the
    // DFS, and dropped before the next — per-retailer seeding makes this
    // byte-identical to materializing the fleet first (DESIGN.md §12).
    for d in fleet.stream() {
        println!(
            "  onboarding {}: {} items, {} events",
            d.retailer(),
            d.catalog.len(),
            d.events.len()
        );
        svc.onboard(&d.catalog, &d.events)
            .map_err(|e| e.to_string())?;
    }

    let mut monitor = QualityMonitor::new(MonitorConfig::default());
    let mut store = ServingStore::new();
    let mut last_load_ts = 0.0;
    let mut day_idx = 0u32;
    while day_idx < days {
        let onboarded = svc.retailers().to_vec();
        let report = match svc.run_day() {
            Ok(r) => r,
            // A seeded kill-point unwound the pipeline mid-day. With
            // --resume, restart from the durable journal and re-run the
            // interrupted day idempotently; without it, surface the crash.
            Err(SigmundError::Crashed(m)) if resume => {
                println!("\nCRASH: {m}");
                day_idx = recover_cli(
                    &mut svc,
                    &mut monitor,
                    &mut store,
                    &fleet,
                    &base_cfg,
                    &HealthBus::disabled(),
                )?;
                last_load_ts = svc.virtual_now();
                continue;
            }
            Err(e) => return Err(e.to_string()),
        };
        println!(
            "\nday {}: {} models | train {:.2}s + infer {:.2}s (virtual) | cost {:.2} | \
             {} pre-emptions",
            report.day,
            report.models_trained,
            report.train_makespan,
            report.infer_makespan,
            report.cost.total_cost(),
            report.preemptions
        );
        let mut rows: Vec<_> = report.best.iter().collect();
        rows.sort_by_key(|(r, _)| r.0);
        for (r, rec) in rows {
            let m = rec.metrics.unwrap();
            println!(
                "  {r}: F={:<3} lr={:<5} MAP@10={:.4}{}",
                rec.params.factors,
                rec.params.learning_rate,
                m.map_at_10,
                if m.map_sampled { " (sampled)" } else { "" }
            );
        }
        if !report.degraded.is_empty() {
            let stale: Vec<String> = report.degraded.iter().map(|r| r.to_string()).collect();
            println!(
                "  degraded (serving previous generation): {}",
                stale.join(", ")
            );
        }
        if !report.rejected.is_empty() {
            let refused: Vec<String> = report.rejected.iter().map(|r| r.to_string()).collect();
            println!("  rejected by admission gate: {}", refused.join(", "));
        }
        let alerts = monitor.record_day_obs(&onboarded, &report, &obs, svc.virtual_now());
        for alert in &alerts {
            println!("  ALERT: {alert:?}");
        }
        // Swap today's batch into the serving store and sample one lookup
        // per retailer so the serving gauges carry signal.
        let generation = store.publish_obs(report.recs.clone(), &obs, svc.virtual_now());
        // Post-publish safety net: a Regression alert on the very batch
        // that just went live means the freshly served generation is
        // suspect — automatically roll the store back to the previous one.
        if chaos_active
            && generation > 1
            && alerts
                .iter()
                .any(|a| matches!(a, QualityAlert::Regression { .. }))
        {
            if let Some(live) = store.rollback_obs(generation - 1, &obs, svc.virtual_now()) {
                println!(
                    "  rollback: regression after publish — serving generation {} again \
                     (live gen {live})",
                    generation - 1
                );
            }
        }
        let mut served: Vec<RetailerId> = report.recs.keys().copied().collect();
        served.sort_unstable();
        for r in served {
            store.lookup(r, ItemId(0), RecSurface::ViewBased);
        }
        store.observe(&obs, svc.virtual_now(), generation);
        let now = svc.virtual_now();
        store.observe_load(&obs, now, now - last_load_ts);
        last_load_ts = now;
        // Seal the completed day in the journal, carrying the driver-side
        // state (monitor + store freshness) so a later restart can rebuild
        // it bit-for-bit.
        if journal_on {
            match svc.seal_day(journal::pack_ops(&[
                &monitor.to_bytes(),
                &store.meta_bytes(),
            ])) {
                Ok(()) => {}
                Err(SigmundError::Crashed(m)) if resume => {
                    println!("\nCRASH: {m}");
                    day_idx = recover_cli(
                        &mut svc,
                        &mut monitor,
                        &mut store,
                        &fleet,
                        &base_cfg,
                        &HealthBus::disabled(),
                    )?;
                    last_load_ts = svc.virtual_now();
                    continue;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        day_idx += 1;
    }
    let summary = monitor.fleet_summary();
    println!(
        "\nfleet: {} retailers | mean MAP {:.4} | worst {:.4}",
        summary.retailers, summary.mean_map, summary.worst_map
    );
    if trace {
        let (trace_path, metrics_path) = obs
            .write_artifacts(Path::new("results"))
            .map_err(|e| format!("write trace artifacts: {e}"))?;
        println!(
            "trace: {} ({} events) | metrics: {}",
            trace_path.display(),
            obs.event_count(),
            metrics_path.display()
        );
    }
    Ok(())
}

/// Live-ops `watch` mode: run the daily pipeline continuously, stream fleet
/// health onto the in-process [`HealthBus`], and render one dashboard frame
/// per day. Frames are a pure function of the bus contents, so a headless
/// same-seed `--threads 1` run is byte-identical across invocations (the CI
/// watch-smoke job `cmp`s two runs).
fn watch(args: &Args) -> Result<(), String> {
    args.ensure_known(&[
        "retailers",
        "days",
        "cells",
        "machines",
        "preempt",
        "min-items",
        "max-items",
        "threads",
        "infer-threads",
        "seed",
        "fault-profile",
        "chaos-seed",
        "headless",
        "delay-ms",
        "bus-capacity",
        "journal",
        "crash-day",
        "crash-at",
        "resume",
    ])?;
    let n_retailers: usize = args.get("retailers", 6)?;
    let days: u32 = args.get("days", 8)?;
    let cells: usize = args.get("cells", 2)?;
    let machines: usize = args.get("machines", 6)?;
    let preempt: f64 = args.get("preempt", 0.25)?;
    let min_items: usize = args.get("min-items", 30)?;
    let max_items: usize = args.get("max-items", 400)?;
    let threads: usize = args.get("threads", 1)?;
    let infer_threads: usize = args.get("infer-threads", 1)?;
    let seed: u64 = args.get("seed", 7)?;
    let chaos_seed: u64 = args.get("chaos-seed", seed)?;
    let mut chaos = fault_profile(args.get_str("fault-profile").unwrap_or("none"), chaos_seed)?;
    let headless: bool = args.get("headless", false)?;
    let delay_ms: u64 = args.get("delay-ms", 250)?;
    let capacity: usize = args.get("bus-capacity", 1024)?;
    let resume: bool = args.get("resume", false)?;
    let crash_day: Option<u32> = match args.get_str("crash-day") {
        Some(_) => Some(args.get("crash-day", 0)?),
        None => None,
    };
    let crash_at: u64 = args.get("crash-at", 25)?;
    if args.get_str("crash-at").is_some() && crash_day.is_none() {
        return Err("--crash-at requires --crash-day".into());
    }
    let journal_on: bool = args.get("journal", false)? || resume || crash_day.is_some();
    if let Some(d) = crash_day {
        chaos.plan.crash_at = Some((d, crash_at));
    }
    if n_retailers == 0
        || days == 0
        || cells == 0
        || machines == 0
        || threads == 0
        || infer_threads == 0
        || capacity == 0
    {
        return Err("counts must be positive".into());
    }

    // Everything below observes through the bus, not the trace layer.
    let obs = Obs::disabled();
    let bus = HealthBus::bounded(capacity);
    let mut cursor = bus.subscribe();
    let mut dash = Dashboard::new();

    let fleet = FleetSpec {
        n_retailers,
        min_items,
        max_items,
        pareto_alpha: 1.0,
        users_per_item: 1.2,
        seed,
    };
    let chaos_active = !chaos.is_disabled();
    let base_cfg = PipelineConfig {
        cells: (0..cells)
            .map(|c| CellSpec::standard(CellId(c as u32), machines))
            .collect(),
        preemption: PreemptionModel {
            rate_per_hour: preempt,
        },
        threads,
        infer_threads,
        seed,
        obs: obs.clone(),
        chaos,
        journal: journal_on,
        bus: bus.clone(),
        ..Default::default()
    };
    let mut svc = SigmundService::new(base_cfg.clone());
    for d in fleet.stream() {
        svc.onboard(&d.catalog, &d.events)
            .map_err(|e| e.to_string())?;
    }

    let mut monitor = QualityMonitor::with_bus(MonitorConfig::default(), bus.clone());
    let mut store = ServingStore::with_bus(bus.clone());
    let mut last_load_ts = 0.0;
    let mut day_idx = 0u32;
    while day_idx < days {
        let onboarded = svc.retailers().to_vec();
        let report = match svc.run_day() {
            Ok(r) => r,
            // Kill-point mid-day: recover from the journal (the Recovered
            // health event reaches the dashboard through the shared bus and
            // renders as a RECOVERED badge on the next frame).
            Err(SigmundError::Crashed(m)) if resume => {
                println!("CRASH: {m}");
                day_idx = recover_cli(&mut svc, &mut monitor, &mut store, &fleet, &base_cfg, &bus)?;
                last_load_ts = svc.virtual_now();
                continue;
            }
            Err(e) => return Err(e.to_string()),
        };
        let alerts = monitor.record_day_obs(&onboarded, &report, &obs, svc.virtual_now());
        let generation = store.publish_obs(report.recs.clone(), &obs, svc.virtual_now());
        // Same post-publish safety net as `simulate`: armed only under an
        // active fault profile. The rollback reaches the frame via the bus.
        if chaos_active
            && generation > 1
            && alerts
                .iter()
                .any(|a| matches!(a, QualityAlert::Regression { .. }))
        {
            let _ = store.rollback_obs(generation - 1, &obs, svc.virtual_now());
        }
        let mut served: Vec<RetailerId> = report.recs.keys().copied().collect();
        served.sort_unstable();
        for r in served {
            store.lookup(r, ItemId(0), RecSurface::ViewBased);
        }
        store.observe(&obs, svc.virtual_now(), generation);
        let now = svc.virtual_now();
        store.observe_load(&obs, now, now - last_load_ts);
        last_load_ts = now;

        if journal_on {
            match svc.seal_day(journal::pack_ops(&[
                &monitor.to_bytes(),
                &store.meta_bytes(),
            ])) {
                Ok(()) => {}
                Err(SigmundError::Crashed(m)) if resume => {
                    println!("CRASH: {m}");
                    day_idx =
                        recover_cli(&mut svc, &mut monitor, &mut store, &fleet, &base_cfg, &bus)?;
                    last_load_ts = svc.virtual_now();
                    continue;
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        day_idx += 1;

        let (lost, events) = cursor.poll();
        dash.apply_batch(lost, &events);
        print!("{}", dash.render(!headless));
        if !headless {
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
    }
    let summary = monitor.fleet_summary();
    println!(
        "watched {days} days | {} retailers | mean MAP {:.4} | worst {:.4}",
        summary.retailers, summary.mean_map, summary.worst_map
    );
    Ok(())
}

fn scrub_cmd(args: &Args) -> Result<(), String> {
    args.ensure_known(&["retailers", "days", "seed", "fault-profile", "chaos-seed"])?;
    let n_retailers: usize = args.get("retailers", 3)?;
    let days: u32 = args.get("days", 2)?;
    let seed: u64 = args.get("seed", 7)?;
    let chaos_seed: u64 = args.get("chaos-seed", seed)?;
    let chaos = fault_profile(
        args.get_str("fault-profile").unwrap_or("bitflip"),
        chaos_seed,
    )?;
    if n_retailers == 0 || days == 0 {
        return Err("counts must be positive".into());
    }

    // The DFS is in-process, so a scrub needs a populated tree: run a small
    // fleet under the chosen fault profile, then walk and verify every blob.
    let fleet = FleetSpec {
        n_retailers,
        min_items: 20,
        max_items: 60,
        pareto_alpha: 1.0,
        users_per_item: 1.2,
        seed,
    };
    let mut svc = SigmundService::new(PipelineConfig {
        cells: vec![CellSpec::standard(CellId(0), 4)],
        preemption: PreemptionModel { rate_per_hour: 0.0 },
        threads: 1,
        seed,
        chaos,
        ..Default::default()
    });
    for d in fleet.stream() {
        svc.onboard(&d.catalog, &d.events)
            .map_err(|e| e.to_string())?;
    }
    for _ in 0..days {
        let report = svc.run_day().map_err(|e| e.to_string())?;
        println!(
            "day {}: {} models | {} rejected by admission gate | {} degraded",
            report.day,
            report.models_trained,
            report.rejected.len(),
            report.degraded.len()
        );
    }

    let stats = svc.dfs.integrity_stats();
    println!(
        "\nread-path checksum failures during the run: {}",
        stats.checksum_failures
    );
    let report = svc.dfs.scrub("/");
    println!(
        "scrub: {} blobs scanned | {} corrupt | {} repaired from previous version",
        report.scanned, report.corrupt, report.repaired
    );
    for path in &report.unrepairable {
        println!("  unrepairable: {path}");
    }
    // A second pass proves the repairs stuck: everything left is healthy or
    // already reported unrepairable.
    let again = svc.dfs.scrub("/");
    if again.corrupt as usize != report.unrepairable.len() {
        return Err(format!(
            "scrub not idempotent: {} corrupt blobs after repair pass, expected {}",
            again.corrupt,
            report.unrepairable.len()
        ));
    }
    println!(
        "re-scrub: {} corrupt (all previously unrepairable)",
        again.corrupt
    );
    Ok(())
}

fn report_cmd(args: &Args) -> Result<(), String> {
    args.ensure_known(&["dir"])?;
    let dir = args.get_str("dir").unwrap_or("results");
    let trace_path = Path::new(dir).join("trace.json");
    let metrics_path = Path::new(dir).join("metrics.jsonl");
    let trace = std::fs::read_to_string(&trace_path).map_err(|e| {
        format!(
            "read {}: {e} (run `sigmund simulate --trace` first)",
            trace_path.display()
        )
    })?;
    println!("trace summary — {}", trace_path.display());
    println!("{}", summarize_trace(&trace));
    let metrics = std::fs::read_to_string(&metrics_path)
        .map_err(|e| format!("read {}: {e}", metrics_path.display()))?;
    println!("metrics — {}", metrics_path.display());
    println!("{}", summarize_metrics(&metrics));
    println!("{}", summarize_integrity(&metrics));
    Ok(())
}

fn train_cmd(args: &Args) -> Result<(), String> {
    args.ensure_known(&["items", "users", "grid", "threads", "seed"])?;
    let items: usize = args.get("items", 300)?;
    let users: usize = args.get("users", 400)?;
    let threads: usize = args.get("threads", 1)?;
    let seed: u64 = args.get("seed", 42)?;
    let grid = match args.get_str("grid").unwrap_or("small") {
        "small" => GridSpec::small(),
        "paper" => GridSpec::paper_scale(),
        other => return Err(format!("--grid must be small|paper, got {other}")),
    };
    if items == 0 || users == 0 {
        return Err("counts must be positive".into());
    }

    let data = RetailerSpec::sized(RetailerId(0), items, users, seed).generate();
    let ds = Dataset::build(data.catalog.len(), data.events.clone(), true);
    println!(
        "retailer: {} items, {} events, {} hold-out users; grid of {} configs",
        data.catalog.len(),
        data.events.len(),
        ds.holdout.len(),
        grid.configs(&data.catalog).len()
    );
    let outcome = grid_search(
        &data.catalog,
        &ds,
        &grid,
        &SweepOptions {
            threads,
            ..Default::default()
        },
    );
    println!("top configs:");
    for (i, c) in outcome.candidates.iter().take(5).enumerate() {
        println!(
            "  #{i}: F={:<3} lr={:<6} regV={:<6} tax={} brand={} → MAP@10 {:.4} AUC {:.4}",
            c.hp.factors,
            c.hp.learning_rate,
            c.hp.reg_item,
            c.hp.features.use_taxonomy,
            c.hp.features.use_brand,
            c.metrics.map_at_10,
            c.metrics.auc
        );
    }

    let model = outcome
        .best()
        .snapshot
        .as_ref()
        .expect("winner keeps its snapshot")
        .restore(&data.catalog, 0)
        .map_err(|e| e.to_string())?;
    let cooc = CoocModel::build(data.catalog.len(), &data.events, CoocConfig::default());
    let index = CandidateIndex::build(&data.catalog);
    let rep = RepurchaseStats::estimate(&data.catalog, &data.events, 0.3);
    let engine = InferenceEngine::new(&model, &data.catalog, &index, &cooc, &rep);
    let hybrid = HybridPolicy::default();
    println!("\nsample output for item #0:");
    for (label, task) in [
        ("substitutes ", RecTask::ViewBased),
        ("complements ", RecTask::PurchaseBased),
    ] {
        let recs = hybrid.recommend(&cooc, &engine, sigmund_types::ItemId(0), task, 5);
        println!(
            "  {label}: {:?}",
            recs.iter().map(|(i, _)| i.0).collect::<Vec<_>>()
        );
    }
    Ok(())
}

fn evolve_cmd(args: &Args) -> Result<(), String> {
    args.ensure_known(&["items", "users", "days", "seed"])?;
    let items: usize = args.get("items", 150)?;
    let users: usize = args.get("users", 200)?;
    let days: u64 = args.get("days", 3)?;
    let seed: u64 = args.get("seed", 99)?;
    if items == 0 || users == 0 || days == 0 {
        return Err("counts must be positive".into());
    }

    let mut world = RetailerSpec::sized(RetailerId(0), items, users, seed).generate();
    let ds = Dataset::build(world.catalog.len(), world.events.clone(), true);
    let opts = SweepOptions {
        threads: 2,
        keep_top: 3,
        ..Default::default()
    };
    let mut outcome = grid_search(&world.catalog, &ds, &GridSpec::small(), &opts);
    println!(
        "day 0: {} items, {} events, best MAP@10 {:.4}",
        world.catalog.len(),
        world.events.len(),
        outcome.best().metrics.map_at_10
    );
    for day in 1..=days {
        let delta = evolve_day(
            &mut world,
            &EvolutionSpec {
                seed: seed + day,
                ..Default::default()
            },
        );
        let ds = Dataset::build(world.catalog.len(), world.events.clone(), true);
        outcome = incremental_refresh(&world.catalog, &ds, &outcome, 3, &opts);
        println!(
            "day {day}: +{} items / {} stockouts / {} repriced / +{} users / +{} events \
             → MAP@10 {:.4}",
            delta.new_items.len(),
            delta.stockouts.len(),
            delta.repriced.len(),
            delta.new_users,
            delta.new_events,
            outcome.best().metrics.map_at_10
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn help_and_empty_are_ok() {
        assert!(run(Vec::new()).is_ok());
        assert!(run(argv("help")).is_ok());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(argv("frobnicate")).is_err());
    }

    #[test]
    fn bad_flags_error_before_any_work() {
        assert!(run(argv("simulate --retailers nope")).is_err());
        assert!(run(argv("simulate --bogus 1")).is_err());
        assert!(run(argv("simulate --infer-threads 0")).is_err());
        assert!(run(argv("simulate --fault-profile bogus")).is_err());
        assert!(run(argv("train --grid huge")).is_err());
        assert!(run(argv("train --items 0")).is_err());
        assert!(run(argv("evolve --days 0")).is_err());
    }

    #[test]
    fn tiny_simulate_runs_end_to_end() {
        run(argv(
            "simulate --retailers 2 --days 1 --cells 1 --machines 2 \
             --min-items 20 --max-items 40 --preempt 0 --infer-threads 2 --seed 3",
        ))
        .expect("simulate should succeed");
    }

    #[test]
    fn chaotic_simulate_runs_end_to_end() {
        run(argv(
            "simulate --retailers 2 --days 2 --cells 1 --machines 3 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 \
             --fault-profile storm --chaos-seed 11",
        ))
        .expect("storm-profile simulate should degrade, not fail");
    }

    #[test]
    fn bitflip_simulate_degrades_and_recovers() {
        run(argv(
            "simulate --retailers 2 --days 3 --cells 1 --machines 3 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 \
             --fault-profile bitflip --chaos-seed 5",
        ))
        .expect("bitflip-profile simulate should reject+degrade, not fail");
    }

    #[test]
    fn crash_flags_error_before_any_work() {
        assert!(run(argv("simulate --crash-at 3")).is_err());
        assert!(run(argv("watch --crash-at 3")).is_err());
        assert!(run(argv("simulate --crash-day nope")).is_err());
    }

    #[test]
    fn journaled_simulate_matches_plain_output_shape() {
        // `--journal` with no crash must complete the same run (the journal
        // is byte-invisible to the pipeline artifacts; here we just prove
        // the seal path threads through the CLI loop cleanly).
        let result = run(argv(
            "simulate --retailers 2 --days 2 --cells 1 --machines 2 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 --journal",
        ));
        match result {
            Ok(()) => {}
            Err(e) if e.contains("stub") => eprintln!("skipping: {e}"),
            Err(e) => panic!("journaled simulate should succeed: {e}"),
        }
    }

    #[test]
    fn crash_and_resume_simulate_completes() {
        let result = run(argv(
            "simulate --retailers 2 --days 2 --cells 1 --machines 2 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 \
             --crash-day 1 --crash-at 7 --resume",
        ));
        match result {
            Ok(()) => {}
            Err(e) if e.contains("stub") => eprintln!("skipping: {e}"),
            Err(e) => panic!("crash+resume simulate should recover: {e}"),
        }
    }

    #[test]
    fn crash_without_resume_surfaces_the_crash() {
        let result = run(argv(
            "simulate --retailers 2 --days 2 --cells 1 --machines 2 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 \
             --crash-day 1 --crash-at 7",
        ));
        match result {
            Err(e) if e.contains("crashed") => {}
            Err(e) if e.contains("stub") => eprintln!("skipping: {e}"),
            other => panic!("expected a surfaced crash, got {other:?}"),
        }
    }

    #[test]
    fn crash_and_resume_watch_completes() {
        let result = run(argv(
            "watch --retailers 2 --days 2 --cells 1 --machines 2 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 \
             --crash-day 1 --crash-at 7 --resume --headless",
        ));
        match result {
            Ok(()) => {}
            Err(e) if e.contains("stub") => eprintln!("skipping: {e}"),
            Err(e) => panic!("crash+resume watch should recover: {e}"),
        }
    }

    #[test]
    fn watch_flags_error_before_any_work() {
        assert!(run(argv("watch --days 0")).is_err());
        assert!(run(argv("watch --bus-capacity 0")).is_err());
        assert!(run(argv("watch --bogus 1")).is_err());
        assert!(run(argv("watch --fault-profile bogus")).is_err());
    }

    #[test]
    fn tiny_headless_watch_runs_end_to_end() {
        let result = run(argv(
            "watch --retailers 2 --days 2 --cells 1 --machines 2 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 --headless",
        ));
        match result {
            Ok(()) => {}
            // Stripped build environments stub out serde_json; the publish
            // path then fails long before the watch loop is at fault.
            Err(e) if e.contains("stub") => eprintln!("skipping: {e}"),
            Err(e) => panic!("headless watch should succeed: {e}"),
        }
    }

    #[test]
    fn scrub_smoke() {
        run(argv(
            "scrub --retailers 2 --days 2 --seed 3 --fault-profile bitflip --chaos-seed 5",
        ))
        .expect("scrub should verify and repair");
        // A clean tree scrubs to zero corruption.
        run(argv(
            "scrub --retailers 2 --days 1 --seed 3 --fault-profile none",
        ))
        .expect("clean scrub");
        assert!(run(argv("scrub --days 0")).is_err());
        assert!(run(argv("scrub --fault-profile bogus")).is_err());
    }

    #[test]
    fn traced_simulate_and_report_round_trip() {
        run(argv(
            "simulate --retailers 2 --days 1 --cells 1 --machines 2 \
             --min-items 20 --max-items 40 --preempt 0 --threads 1 --seed 3 --trace",
        ))
        .expect("traced simulate");
        let trace = std::fs::read_to_string("results/trace.json").expect("trace written");
        assert!(
            trace.starts_with("{\"traceEvents\":["),
            "chrome trace header"
        );
        for cat in ["cluster", "mapreduce", "train", "pipeline", "serving"] {
            assert!(
                trace.contains(&format!("\"cat\":\"{cat}\"")),
                "missing {cat} spans in trace"
            );
        }
        assert!(std::fs::read_to_string("results/metrics.jsonl")
            .expect("metrics written")
            .contains("pipeline.days"));
        run(argv("report --dir results")).expect("report reads artifacts");
        let _ = std::fs::remove_dir_all("results");
    }

    #[test]
    fn report_errors_without_artifacts() {
        assert!(run(argv("report --dir definitely-missing-dir")).is_err());
    }

    #[test]
    fn tiny_train_runs_end_to_end() {
        run(argv("train --items 40 --users 50 --threads 1 --seed 3")).expect("train");
    }

    #[test]
    fn tiny_evolve_runs_end_to_end() {
        run(argv("evolve --items 40 --users 50 --days 1 --seed 3")).expect("evolve");
    }
}
