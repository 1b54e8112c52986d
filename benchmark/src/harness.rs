//! The two ways to run the benchmark.
//!
//! * `measure` runs one workload once, in this process, and ends with the
//!   one-line JSON result the driver reads. It is also the child `run`
//!   spawns.
//! * `run` is the whole benchmark: every workload × repeats, each in a
//!   child of its own so `peak_rss_mb` and allocator state start clean,
//!   strictly one child at a time, a noise sentinel around each, then one
//!   traced child per workload; it writes `<out>/result.json`, the file
//!   `compare` reads.

use crate::json::Json;
use crate::probes::sentinel_ms;
use crate::spec::{self, Bound, Workload, END_TO_END, PER_LAYER};
use crate::workloads::{self, median, Outcome, Run};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The line before the result line, carrying what the driver's strict
/// result object has no room for (every sample, the digest, the problems).
const DETAIL_TAG: &str = "#detail ";

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|l| (l.name, l.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn metric_obj(pairs: impl Iterator<Item = (&'static str, f64)>) -> Json {
    Json::Obj(
        pairs
            .map(|(k, v)| {
                (
                    k.to_string(),
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit_of(k)))]),
                )
            })
            .collect(),
    )
}

pub fn detail_json(run: &Run, out: &Outcome) -> Json {
    let nums = |m: &BTreeMap<&'static str, f64>| {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                .collect(),
        )
    };
    Json::obj([
        ("workload", Json::str(run.workload.name())),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("trace", Json::Bool(run.trace)),
        ("smoke", Json::Bool(run.smoke)),
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("e2e", nums(&out.e2e)),
        ("layers", nums(&out.layers)),
        (
            "samples",
            Json::Obj(
                out.samples
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::nums(v)))
                    .collect(),
            ),
        ),
        (
            "output_digest",
            Json::str(format!("{:016x}", out.output_digest)),
        ),
        ("lookup_p999_ns", Json::Num(out.lookup_p999_ns)),
        (
            "problems",
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
    ])
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` — the driver-listed end-to-end metrics with tracing off,
/// every per-layer metric with tracing on.
pub fn result_line(run: &Run, out: &Outcome) -> String {
    let metrics = if run.trace {
        metric_obj(
            PER_LAYER
                .iter()
                .map(|l| (l.name, out.layers.get(l.name).copied().unwrap_or(0.0))),
        )
    } else {
        metric_obj(
            END_TO_END
                .iter()
                .filter(|m| m.driver_bound.is_some())
                .map(|m| (m.name, out.e2e.get(m.name).copied().unwrap_or(0.0))),
        )
    };
    Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

/// Runs one workload in this process and prints every metric by name with
/// its unit, then the detail line, then the result line. Returns whether
/// the outputs were correct.
pub fn measure(run: &Run, out_dir: &Path) -> bool {
    println!(
        "# sigmund-benchmark measure: workload={} seed={} seconds={} trace={} smoke={} nproc={}",
        run.workload.name(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.smoke,
        crate::fleet::nproc()
    );
    let out = workloads::run(run);
    for note in &out.notes {
        println!("# {note}");
    }
    for m in &END_TO_END {
        let Some(v) = out.e2e.get(m.name) else {
            continue;
        };
        let samples = out.samples.get(m.name).map_or(String::new(), |s| {
            format!(
                "  (median of {}: {})",
                s.len(),
                s.iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            )
        });
        println!("{:<18} {:>16.6} {:<6}{samples}", m.name, v, m.unit);
    }
    println!("{:<18} {:>16.1} ns", "lookup_p999_ns", out.lookup_p999_ns);
    println!("{:<18} {:>16x}", "output_digest", out.output_digest);
    if run.trace {
        for l in PER_LAYER {
            let v = out.layers.get(l.name).copied().unwrap_or(0.0);
            let tag = if l.model { "  [modelled]" } else { "" };
            println!("{:<38} {:>18.6} {:<6}{tag}", l.name, v, l.unit);
        }
        println!("# self time by span (traced pass), largest first:");
        for (name, s, n) in out.self_times.iter().take(24) {
            println!("#   {name:<34} {s:>10.4} s  x{n}");
        }
        for line in dominance(run.workload, &out) {
            println!("# dominance: {line}");
        }
        if let Some(trace) = &out.trace_json {
            let path = out_dir.join(format!("trace-{}.json", run.workload.name()));
            match std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, trace)) {
                Ok(()) => println!("# trace written to {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
    for p in &out.problems {
        eprintln!("FAILED CHECK: {p}");
    }
    println!("{DETAIL_TAG}{}", detail_json(run, &out).render());
    println!("{}", result_line(run, &out));
    out.correct()
}

/// The predicted-dominance table, checked against a traced pass.
fn dominance(w: Workload, out: &Outcome) -> Vec<String> {
    let l = |k: &str| out.layers.get(k).copied().unwrap_or(0.0);
    let verdict = |ok: bool| if ok { "ok" } else { "NOT MET" };
    match w {
        Workload::OnboardDay => {
            let (te, inf) = (
                l("core.train_share") + l("core.eval_share"),
                l("core.infer_share"),
            );
            vec![
                format!("train+eval share {te:.3} >= 0.60: {}", verdict(te >= 0.6)),
                format!("infer share {inf:.3} <= 0.15: {}", verdict(inf <= 0.15)),
            ]
        }
        Workload::BigcatDay => {
            let (ic, tr) = (
                l("core.infer_share") + l("core.codec_share"),
                l("core.train_share"),
            );
            vec![
                format!("infer+codec share {ic:.3} >= 0.50: {}", verdict(ic >= 0.5)),
                format!("train share {tr:.3} <= 0.20: {}", verdict(tr <= 0.2)),
            ]
        }
        Workload::SteadyDays => {
            let day = l("pipeline.run_day_s") + l("pipeline.refresh_s") + l("pipeline.load_recs_s");
            let other = l("pipeline.unattributed_s")
                + l("pipeline.refresh_s")
                + l("pipeline.load_recs_s")
                + l("pipeline.seal_day_ms") / 1e3;
            vec![format!(
                "unattributed+refresh+load_recs+seal share of the day {:.3} (compare with onboard_day's)",
                other / day.max(1e-9)
            )]
        }
        Workload::ServeReplay => Vec::new(),
    }
}

// --- `run`: the parent ---------------------------------------------------------

pub struct RunAll {
    pub workloads: Vec<Workload>,
    pub repeats: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

fn tool_version(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn env_stamp(cfg: &RunAll) -> Json {
    let sizes = Json::Obj(
        Workload::ALL
            .iter()
            .map(|w| {
                let s = if w.is_pipeline() {
                    format!("{:?}", spec::day_sizes(*w, cfg.smoke))
                } else {
                    format!("{:?}", spec::serve_sizes(cfg.smoke))
                };
                (w.name().to_string(), Json::str(s))
            })
            .collect(),
    );
    Json::obj([
        ("nproc", Json::Num(crate::fleet::nproc() as f64)),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("repeats", Json::Num(cfg.repeats as f64)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("debug_assertions", Json::Bool(cfg!(debug_assertions))),
        ("frozen_sizes", sizes),
    ])
}

/// Spawns one `measure` child and returns its detail object. The child's
/// own printout is relayed, indented, so one terminal shows everything.
fn child(cfg: &RunAll, w: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("measure")
        .args(["--workload", w.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out_dir);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end before returning.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix(DETAIL_TAG) {
            Some(d) => detail = Some(Json::parse(d)?),
            None if line.starts_with('{') => {}
            None => println!("    {line}"),
        }
    }
    if !output.status.success() {
        return Err(format!(
            "child {} failed ({}): {}",
            w.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    detail.ok_or_else(|| "child printed no detail line".to_string())
}

/// How `run` gets one workload measured: `(workload, trace) -> detail`.
/// The real one spawns a child; the self-tests measure in-process.
pub type Spawn<'a> = &'a mut dyn FnMut(Workload, bool) -> Result<Json, String>;

/// One measurement between two sentinel readings; `noisy` when they
/// disagree by more than 10 %.
fn sentinelled(cfg: &RunAll, w: Workload, spawn: Spawn<'_>) -> Result<(Json, bool, f64), String> {
    let before = sentinel_ms(cfg.smoke);
    let detail = spawn(w, false)?;
    let after = sentinel_ms(cfg.smoke);
    let noisy = (before - after).abs() / before.min(after) > 0.10;
    Ok((detail, noisy, before.max(after)))
}

pub fn run_all(cfg: &RunAll) -> Result<bool, String> {
    let (ok, doc) = run_all_with(cfg, &mut |w, trace| child(cfg, w, trace))?;
    let path = cfg.out_dir.join("result.json");
    std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&path, doc.render_pretty()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("== result written to {}", path.display());
    Ok(ok)
}

/// Builds the result document; returns it with whether every output check
/// passed.
pub fn run_all_with(cfg: &RunAll, spawn: Spawn<'_>) -> Result<(bool, Json), String> {
    let mut ok = true;
    let mut doc_workloads = BTreeMap::new();
    for &w in &cfg.workloads {
        println!("== {} — {}", w.name(), w.why());
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut digests = Vec::new();
        let mut noisy_flags = Vec::new();
        let mut sentinels = Vec::new();
        for rep in 0..cfg.repeats {
            println!("  -- repeat {}/{}", rep + 1, cfg.repeats);
            let (mut detail, mut noisy, mut sentinel) = sentinelled(cfg, w, spawn)?;
            if noisy {
                println!(
                    "  -- sentinel moved by more than 10 %: sample is noisy, rerunning it once"
                );
                (detail, noisy, sentinel) = sentinelled(cfg, w, spawn)?;
            }
            ok &= detail
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            for m in &END_TO_END {
                if let Some(v) = detail
                    .get("e2e")
                    .and_then(|e| e.get(m.name))
                    .and_then(Json::as_f64)
                {
                    samples.entry(m.name).or_default().push(v);
                }
            }
            digests.push(
                detail
                    .get("output_digest")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            );
            noisy_flags.push(Json::Bool(noisy));
            sentinels.push(sentinel);
        }
        // Same seed, same inputs: the digest, MAP@10 and the failure count
        // must repeat exactly.
        let exact = |v: &[f64]| v.windows(2).all(|p| p[0].to_bits() == p[1].to_bits());
        if digests.windows(2).any(|p| p[0] != p[1])
            || !samples.get("map_at_10").is_none_or(|v| exact(v))
            || !samples.get("failed_frac").is_none_or(|v| exact(v))
        {
            println!("  !! outputs differ between repeats of one seed: {digests:?}");
            ok = false;
        }
        let metrics = Json::Obj(
            END_TO_END
                .iter()
                .filter_map(|m| {
                    let s = samples.get(m.name)?;
                    let bound = match m.bound {
                        Bound::Rel(b) => Json::obj([("rel", Json::Num(b))]),
                        Bound::Abs(b) => Json::obj([("abs", Json::Num(b))]),
                    };
                    Some((
                        m.name.to_string(),
                        Json::obj([
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", bound),
                            ("median", Json::Num(median(s))),
                            (
                                "min",
                                Json::Num(s.iter().copied().fold(f64::INFINITY, f64::min)),
                            ),
                            ("samples", Json::nums(s)),
                        ]),
                    ))
                })
                .collect(),
        );
        let mut entry = BTreeMap::from([
            ("why".to_string(), Json::str(w.why())),
            ("metrics".to_string(), metrics),
            (
                "output_digest".to_string(),
                Json::str(digests.first().cloned().unwrap_or_default()),
            ),
            ("noisy".to_string(), Json::Arr(noisy_flags)),
            ("sentinel_ms".to_string(), Json::nums(&sentinels)),
        ]);
        if cfg.trace {
            println!("  -- traced pass");
            let detail = spawn(w, true)?;
            ok &= detail
                .get("correct")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            let layers = Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        let v = detail
                            .get("layers")
                            .and_then(|x| x.get(l.name))
                            .and_then(Json::as_f64);
                        let mut o = BTreeMap::from([
                            ("value".to_string(), Json::Num(v.unwrap_or(0.0))),
                            ("unit".to_string(), Json::str(l.unit)),
                            ("moves".to_string(), Json::str(l.moves)),
                        ]);
                        if l.model {
                            o.insert("model".to_string(), Json::Bool(true));
                        }
                        (l.name.to_string(), Json::Obj(o))
                    })
                    .collect(),
            );
            entry.insert("per_layer".to_string(), layers);
        }
        doc_workloads.insert(w.name().to_string(), Json::Obj(entry));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("sigmund-benchmark")),
        ("schema", Json::Num(1.0)),
        ("env", env_stamp(cfg)),
        ("workloads", Json::Obj(doc_workloads)),
    ]);
    Ok((ok, doc))
}
