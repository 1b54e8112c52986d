//! `compare A.json B.json`: one row per (workload, end-to-end metric) of
//! two `run` result files — A the baseline, B the change.

use crate::json::Json;
use crate::spec::{Better, Bound, EndToEnd, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    /// B's median is worse, A's own samples spread wider than the bound
    /// and the two sample ranges overlap: the runs cannot tell unchanged
    /// from regressed.
    Unresolved,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub status: Status,
}

struct Side {
    median: f64,
    samples: Vec<f64>,
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some(Side {
        median: m.get("median")?.as_f64()?,
        samples: m
            .get("samples")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

fn judge(m: &EndToEnd, a: &Side, b: &Side) -> Status {
    // Work in "bigger is worse": flip metrics where higher is better.
    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
    let allowed = match m.bound {
        Bound::Rel(r) => r * a.median.abs(),
        Bound::Abs(x) => x,
    };
    let range = |s: &Side| {
        let v: Vec<f64> = s.samples.iter().map(|x| x * sign).collect();
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let shift = (b.median - a.median) * sign;
    if shift <= 0.0 {
        // Equal or better medians are never a regression.
        return Status::Ok;
    }
    if a_hi - a_lo > allowed {
        // The baseline's own spread swallows the bound.
        return if b_hi < a_lo {
            Status::Ok
        } else if b_lo > a_hi {
            Status::Regressed
        } else {
            Status::Unresolved
        };
    }
    if shift > allowed {
        Status::Regressed
    } else {
        Status::Ok
    }
}

pub fn compare_docs(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let Some(workloads) = a.get("workloads").and_then(Json::as_obj) else {
        return rows;
    };
    for workload in workloads.keys() {
        for m in &END_TO_END {
            if let (Some(sa), Some(sb)) = (side(a, workload, m.name), side(b, workload, m.name)) {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: m.name,
                    a: sa.median,
                    b: sb.median,
                    status: judge(m, &sa, &sb),
                });
            }
        }
    }
    rows
}

/// Prints the table; returns true when no row regressed.
pub fn print_report(a: &Json, b: &Json, rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<15} {:>16} {:>16} {:>9}  {:<10} status",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for r in rows {
        let m = END_TO_END.iter().find(|m| m.name == r.metric);
        let bound = match m.map(|m| (m.bound, m.better)) {
            Some((Bound::Rel(x), Better::Lower)) => format!("+{:.0} %", x * 100.0),
            Some((Bound::Rel(x), Better::Higher)) => format!("-{:.0} %", x * 100.0),
            Some((Bound::Abs(x), Better::Lower)) => format!("+{x} abs"),
            Some((Bound::Abs(x), Better::Higher)) => format!("-{x} abs"),
            None => String::new(),
        };
        let ratio = if r.a == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", r.b / r.a)
        };
        println!(
            "{:<14} {:<15} {:>16.6} {:>16.6} {:>9}  {:<10} {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            bound,
            r.status.as_str()
        );
    }
    if let Some(ws) = a.get("workloads").and_then(Json::as_obj) {
        for (w, entry) in ws {
            let da = entry.get("output_digest").and_then(Json::as_str);
            let db = b
                .get("workloads")
                .and_then(|x| x.get(w))
                .and_then(|x| x.get("output_digest"))
                .and_then(Json::as_str);
            if let (Some(da), Some(db)) = (da, db) {
                let verdict = if da == db {
                    "same bytes"
                } else {
                    "bytes changed"
                };
                println!("{w:<14} output_digest   {da:>16} {db:>16}            {verdict}");
            }
        }
    }
    let count = |s: Status| rows.iter().filter(|r| r.status == s).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved (ratios are B over A; A is the base)",
        rows.len(),
        count(Status::Ok),
        count(Status::Regressed),
        count(Status::Unresolved)
    );
    count(Status::Regressed) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(day_wall: &[f64], qps: &[f64]) -> Json {
        let metric = |s: &[f64]| {
            Json::obj([
                ("median", Json::Num(crate::workloads::median(s))),
                ("samples", Json::nums(s)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                "onboard_day",
                Json::obj([(
                    "metrics",
                    Json::obj([
                        ("day_wall_s", metric(day_wall)),
                        ("lookup_qps", metric(qps)),
                    ]),
                )]),
            )]),
        )])
    }

    fn status(rows: &[Row], metric: &str) -> Status {
        rows.iter().find(|r| r.metric == metric).unwrap().status
    }

    #[test]
    fn self_compare_is_ok_and_a_slowdown_regresses() {
        let a = doc(&[2.00, 2.02, 2.01], &[1000.0, 1010.0, 1005.0]);
        let rows = compare_docs(&a, &a);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.status == Status::Ok));
        let slow = doc(&[2.40, 2.42, 2.41], &[1000.0, 1010.0, 1005.0]);
        let rows = compare_docs(&a, &slow);
        assert_eq!(status(&rows, "day_wall_s"), Status::Regressed);
        assert_eq!(status(&rows, "lookup_qps"), Status::Ok);
        // Higher is better for qps: a 10 % drop regresses, a rise never does.
        assert_eq!(
            status(&compare_docs(&a, &doc(&[2.0], &[900.0])), "lookup_qps"),
            Status::Regressed
        );
        assert_eq!(
            status(&compare_docs(&a, &doc(&[2.0], &[2000.0])), "lookup_qps"),
            Status::Ok
        );
    }

    #[test]
    fn a_noisy_baseline_is_unresolved_unless_the_ranges_separate() {
        let noisy = doc(&[2.0, 2.4, 2.2], &[1000.0]);
        let overlapping = doc(&[2.3, 2.5, 2.4], &[1000.0]);
        assert_eq!(
            status(&compare_docs(&noisy, &overlapping), "day_wall_s"),
            Status::Unresolved
        );
        let clearly_worse = doc(&[2.6, 2.7, 2.8], &[1000.0]);
        assert_eq!(
            status(&compare_docs(&noisy, &clearly_worse), "day_wall_s"),
            Status::Regressed
        );
        let clearly_better = doc(&[1.5, 1.6, 1.7], &[1000.0]);
        assert_eq!(
            status(&compare_docs(&noisy, &clearly_better), "day_wall_s"),
            Status::Ok
        );
    }
}
