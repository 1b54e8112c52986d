// The harness is a benchmark binary: like the bench crate's bins it may
// `expect` on its own fixed inputs.
#![allow(clippy::unwrap_used, clippy::expect_used)]
//! `sigmund-benchmark` — the repository benchmark. See README.md.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --trace
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare A.json B.json
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     measure --workload onboard_day --seed 1 --seconds 12 --trace 0
//! ```

mod clock;
mod compare;
mod day;
mod fleet;
mod harness;
mod json;
mod probes;
mod serve;
mod shadow;
mod spec;
#[cfg(test)]
mod tests;
mod workloads;

use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  sigmund-benchmark measure --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
  sigmund-benchmark run [--workload W]... [--repeats N] [--seed N] [--seconds S] [--trace] [--smoke] [--out DIR]
  sigmund-benchmark compare A.json B.json
  sigmund-benchmark list | describe
workloads: onboard_day steady_days bigcat_day serve_replay";

/// Default `--seconds`; BENCHMARK.json's `run_seconds` is the same number.
const RUN_SECONDS: f64 = 12.0;
const DEFAULT_SEED: u64 = 20_180_416;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args {
    pairs: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String], bare: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                None => args.positional.push(a.clone()),
                Some(key)
                    if bare.contains(&key) && it.peek().is_none_or(|n| n.starts_with("--")) =>
                {
                    args.pairs.push((key.to_string(), None));
                }
                Some(key) => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.pairs.push((key.to_string(), Some(v.clone())));
                }
            }
        }
        Ok(args)
    }

    fn known(&self, keys: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }

    fn values<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == key)
            .filter_map(|(_, v)| v.as_deref())
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs
            .iter()
            .any(|(k, v)| k == key && v.as_deref().is_none_or(|v| v != "0"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values(key).last() {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
        }
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        self.values("workload")
            .map(|w| Workload::parse(w).ok_or_else(|| format!("unknown workload `{w}`")))
            .collect()
    }
}

fn seconds(args: &Args) -> Result<f64, String> {
    let s: f64 = args.num("seconds", RUN_SECONDS)?;
    if s.is_finite() && s > 0.0 && s <= 600.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 600], got {s}"))
    }
}

fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.values("out").last().unwrap_or("benchmark/out"))
}

fn refuse_debug(smoke: bool) -> Result<(), String> {
    if cfg!(debug_assertions) && !smoke {
        return Err("this is a debug build: timings would mean nothing. Build with --release, or pass --smoke".into());
    }
    Ok(())
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let (cmd, rest) = raw.split_first().ok_or(USAGE)?;
    match cmd.as_str() {
        "measure" => {
            let args = Args::parse(rest, &["smoke"])?;
            args.known(&["workload", "seed", "seconds", "trace", "smoke", "out"])?;
            let workload = *args.workloads()?.last().ok_or("measure needs --workload")?;
            let run = workloads::Run {
                workload,
                seed: args.num("seed", DEFAULT_SEED)?,
                seconds: seconds(&args)?,
                trace: args.flag("trace"),
                smoke: args.flag("smoke"),
            };
            refuse_debug(run.smoke)?;
            Ok(harness::measure(&run, &out_dir(&args)))
        }
        "run" => {
            let args = Args::parse(rest, &["smoke", "trace"])?;
            args.known(&[
                "workload", "repeats", "seed", "seconds", "trace", "smoke", "out",
            ])?;
            let mut workloads = args.workloads()?;
            if workloads.is_empty() {
                workloads = Workload::ALL.to_vec();
            }
            let cfg = harness::RunAll {
                workloads,
                repeats: args.num("repeats", 3usize)?.max(1),
                seed: args.num("seed", DEFAULT_SEED)?,
                seconds: seconds(&args)?,
                trace: args.flag("trace"),
                smoke: args.flag("smoke"),
                out_dir: out_dir(&args),
            };
            refuse_debug(cfg.smoke)?;
            harness::run_all(&cfg)
        }
        "compare" => {
            let args = Args::parse(rest, &[])?;
            let [a, b] = args.positional.as_slice() else {
                return Err(USAGE.into());
            };
            let load = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| json::Json::parse(&t).map_err(|e| format!("{p}: {e}")))
            };
            let (a, b) = (load(a)?, load(b)?);
            let rows = compare::compare_docs(&a, &b);
            if rows.is_empty() {
                return Err("the two files share no (workload, metric) row".into());
            }
            Ok(compare::print_report(&a, &b, &rows))
        }
        "list" => {
            list();
            Ok(true)
        }
        "describe" => {
            print!("{}", describe().render_pretty());
            Ok(true)
        }
        _ => Err(USAGE.into()),
    }
}

/// BENCHMARK.json, generated from `spec` (a self-test holds the committed
/// file to this).
fn describe() -> json::Json {
    use json::Json;
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--offline",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "measure",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                spec::END_TO_END
                    .iter()
                    .filter_map(|m| {
                        Some(Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.driver_bound?)),
                        ]))
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                spec::PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::str(l.name)),
                            ("unit", Json::str(l.unit)),
                            ("better", Json::str(l.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Prints every workload and metric the benchmark knows, with units,
/// bounds and the prediction each per-layer metric carries.
fn list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {:<14} {}", w.name(), w.why());
    }
    println!("end-to-end metrics (bound = how far the median may worsen):");
    for m in &spec::END_TO_END {
        let bound = match m.bound {
            spec::Bound::Rel(r) => format!("{:.0} %", r * 100.0),
            spec::Bound::Abs(a) => format!("{a} abs"),
        };
        let gate = m.driver_bound.map_or("compare only".to_string(), |b| {
            format!("driver {:.0} %", b * 100.0)
        });
        println!(
            "  {:<15} {:<5} {:<7} {:<10} {:<13} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            bound,
            gate,
            m.what
        );
    }
    println!("per-layer metrics (traced pass; `moves` = the end-to-end metric @ workload it should move):");
    for l in spec::PER_LAYER {
        let model = if l.model { " [modelled]" } else { "" };
        println!(
            "  {:<38} {:<6} {:<7} moves {}{model}",
            l.name,
            l.unit,
            l.better.as_str(),
            l.moves
        );
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
