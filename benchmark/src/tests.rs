//! Self-tests: every workload end to end at `--smoke` sizes, the shape of
//! what the harness emits, and `compare` on real documents. They run in a
//! debug build in a few seconds; nothing here looks at a timing's value.

use crate::compare::{compare_docs, Status};
use crate::harness::{self, RunAll};
use crate::json::Json;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::workloads::{self, Run};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn smoke(workload: Workload, trace: bool) -> Run {
    Run {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn every_workload_runs_checks_and_repeats_exactly() {
    for w in Workload::ALL {
        let a = workloads::run(&smoke(w, false));
        assert!(a.correct(), "{}: {:?}", w.name(), a.problems);
        assert!(a.attempted > 0 && a.failed == 0);
        // Every driver-listed metric is present and never 0.
        for m in END_TO_END.iter().filter(|m| m.driver_bound.is_some()) {
            let v = a.e2e.get(m.name).copied().unwrap_or(0.0);
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name(), m.name);
        }
        // Same seed: same bytes and same quality. Another seed: other bytes.
        let b = workloads::run(&smoke(w, false));
        assert_eq!(a.output_digest, b.output_digest, "{}", w.name());
        assert_eq!(
            a.e2e.get("map_at_10").map(|v| v.to_bits()),
            b.e2e.get("map_at_10").map(|v| v.to_bits())
        );
        let other = workloads::run(&Run {
            seed: 8,
            ..smoke(w, false)
        });
        assert!(
            other.correct(),
            "{} on a second seed: {:?}",
            w.name(),
            other.problems
        );
        assert_ne!(a.output_digest, other.output_digest, "{}", w.name());
    }
}

#[test]
fn traced_pass_reports_every_layer_and_writes_a_trace() {
    for w in Workload::ALL {
        let out = workloads::run(&smoke(w, true));
        assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
        let names: BTreeSet<&str> = out.layers.keys().copied().collect();
        assert_eq!(
            names,
            PER_LAYER.iter().map(|l| l.name).collect(),
            "{}",
            w.name()
        );
        assert!(
            out.layers.values().all(|v| v.is_finite()),
            "{}: {:?}",
            w.name(),
            out.layers
        );
        let trace = out.trace_json.as_deref().unwrap_or("");
        assert!(trace.contains("traceEvents") && trace.contains("\"parent\":"));
        if w.is_pipeline() {
            // The shadow day reproduced the real one (else `problems`), and
            // its four shares are all there.
            assert!(trace.contains("shadow_day") && trace.contains("train.epoch"));
            for k in [
                "core.train_share",
                "core.eval_share",
                "core.infer_share",
                "core.codec_share",
            ] {
                assert!(out.layers[k] > 0.0, "{} {k}", w.name());
            }
            assert_eq!(out.layers["serving.lookup_hot_ns"], 0.0);
        } else {
            assert!(trace.contains("lookup_block") && trace.contains("churn_publish"));
            assert!(
                out.layers["serving.lookup_flash_us"] > 0.0
                    && out.layers["serving.hot_hit_rate"] > 0.0
            );
            assert_eq!(out.layers["pipeline.run_day_s"], 0.0);
        }
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    for trace in [false, true] {
        let run = smoke(Workload::ServeReplay, trace);
        let out = workloads::run(&run);
        let line = harness::result_line(&run, &out);
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
        let metrics: BTreeSet<&str> = parsed
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        let want: BTreeSet<&str> = if trace {
            PER_LAYER.iter().map(|l| l.name).collect()
        } else {
            END_TO_END
                .iter()
                .filter(|m| m.driver_bound.is_some())
                .map(|m| m.name)
                .collect()
        };
        assert_eq!(metrics, want);
        for m in parsed.get("metrics").unwrap().as_obj().unwrap().values() {
            assert!(m.get("value").and_then(Json::as_f64).is_some());
            assert!(m
                .get("unit")
                .and_then(Json::as_str)
                .is_some_and(|u| !u.is_empty() && u.len() <= 16));
        }
    }
}

fn smoke_document() -> Json {
    let cfg = RunAll {
        workloads: Workload::ALL.to_vec(),
        repeats: 2,
        seed: 7,
        seconds: 1.0,
        trace: true,
        smoke: true,
        out_dir: PathBuf::from("unused"),
    };
    let mut in_process = |w: Workload, trace: bool| {
        let run = Run {
            workload: w,
            seed: cfg.seed,
            seconds: cfg.seconds,
            trace,
            smoke: true,
        };
        Ok(harness::detail_json(&run, &workloads::run(&run)))
    };
    let (ok, doc) = harness::run_all_with(&cfg, &mut in_process).unwrap();
    assert!(ok, "a smoke workload failed its checks");
    doc
}

#[test]
fn emitted_document_is_complete_and_compare_reads_it() {
    let doc = smoke_document();
    let workloads = doc.get("workloads").and_then(Json::as_obj).unwrap();
    assert_eq!(workloads.len(), 4);
    for key in [
        "nproc",
        "rustc",
        "git_commit",
        "seed",
        "frozen_sizes",
        "debug_assertions",
    ] {
        assert!(doc.get("env").unwrap().get(key).is_some(), "env.{key}");
    }
    for (name, w) in workloads {
        assert!(well_formed(name) && w.get("why").and_then(Json::as_str).is_some());
        let metrics = w.get("metrics").and_then(Json::as_obj).unwrap();
        assert!(!metrics.is_empty() && metrics.len() <= 16);
        for (m, body) in metrics {
            assert!(well_formed(m));
            assert!(body
                .get("unit")
                .and_then(Json::as_str)
                .is_some_and(|u| !u.is_empty()));
            let bound = body.get("bound").unwrap();
            assert!(bound
                .get("rel")
                .or(bound.get("abs"))
                .and_then(Json::as_f64)
                .is_some());
            assert_eq!(
                body.get("samples")
                    .and_then(Json::as_arr)
                    .map(<[Json]>::len),
                Some(2)
            );
        }
        let layers = w.get("per_layer").and_then(Json::as_obj).unwrap();
        assert!(!layers.is_empty() && layers.len() <= 128);
        for (l, body) in layers {
            assert!(well_formed(l));
            assert!(body
                .get("moves")
                .and_then(Json::as_str)
                .is_some_and(|m| !m.is_empty()));
            assert!(body
                .get("unit")
                .and_then(Json::as_str)
                .is_some_and(|u| !u.is_empty()));
        }
        assert!(
            layers["serving.modelled_p99_ms"]
                .get("model")
                .and_then(Json::as_bool)
                == Some(true)
        );
    }
    // The document survives its own writer and parser.
    let reread = Json::parse(&doc.render_pretty()).unwrap();
    assert_eq!(reread, doc);

    // A file against itself is all ok …
    let rows = compare_docs(&doc, &doc);
    assert!(rows.len() >= 4 * 6, "{} rows", rows.len());
    assert!(rows.iter().all(|r| r.status == Status::Ok), "{rows:?}");
    // … and with day_wall_s inflated by 20 % that row regresses, on every
    // workload, and no other row does.
    let slower = inflate(&doc, "day_wall_s", 1.2);
    let rows = compare_docs(&doc, &slower);
    for r in &rows {
        // Smoke timings are microseconds apart, so an inflated sample range
        // may still overlap the baseline's: never `ok`, though.
        let want_bad = r.metric == "day_wall_s";
        assert_eq!(r.status != Status::Ok, want_bad, "{r:?}");
    }
}

/// A copy of `doc` with every sample and the median of `metric` scaled.
fn inflate(doc: &Json, metric: &str, factor: f64) -> Json {
    fn walk(j: &Json, inside: bool, metric: &str, factor: f64) -> Json {
        match j {
            Json::Obj(m) => Json::Obj(
                m.iter()
                    .map(|(k, v)| (k.clone(), walk(v, inside || k == metric, metric, factor)))
                    .collect(),
            ),
            Json::Arr(a) => Json::Arr(a.iter().map(|v| walk(v, inside, metric, factor)).collect()),
            Json::Num(n) if inside => Json::Num(n * factor),
            other => other.clone(),
        }
    }
    // The bound lives inside the metric too; scaling it by 1.2 only widens
    // it, which makes the regression verdict harder, not easier, to reach.
    walk(doc, false, metric, factor)
}

/// BENCHMARK.json at the repository root is the driver's view of `spec`:
/// exactly what `describe` prints.
#[test]
fn benchmark_json_matches_the_spec() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let committed = Json::parse(&text).unwrap();
    let described = crate::describe();
    assert_eq!(
        committed, described,
        "regenerate it with the `describe` subcommand"
    );

    // And what `describe` prints honours the driver's limits.
    let keys: Vec<&str> = described
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let list = |key: &str| described.get(key).unwrap().as_arr().unwrap().to_vec();
    assert!(list("command").len() <= 32 && (2..=8).contains(&list("workloads").len()));
    assert!(
        (1..=16).contains(&list("end_to_end").len())
            && (1..=128).contains(&list("per_layer").len())
    );
    for m in list("end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25 && m.as_obj().unwrap().len() == 4);
    }
    let setup = list("end_to_end")
        .into_iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    for e in list("workloads")
        .iter()
        .chain(&list("end_to_end"))
        .chain(&list("per_layer"))
    {
        assert!(well_formed(e.get("name").and_then(Json::as_str).unwrap()));
    }
    for l in list("per_layer") {
        let unit = l.get("unit").and_then(Json::as_str).unwrap();
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        );
    }
    let seconds = described.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert!(text.len() <= 64 * 1024);
}
