//! The wall-clock seam and the in-memory span recorder.
//!
//! Everything this crate times goes through [`wall_now`]. Spans are kept in
//! memory while a child runs and rendered once at the end through
//! `sigmund_obs`'s Chrome trace writer (`Obs` is clock-agnostic: it stamps
//! whatever `ts` it is handed, here wall-clock offsets from the tracer's
//! start instead of the simulators' virtual time).

use sigmund_obs::{ArgValue, Level, Obs, Track};
use std::cell::RefCell;
use std::time::Instant;

/// The crate's single wall-clock read.
pub fn wall_now() -> Instant {
    // xtask: allow(determinism) — the benchmark measures real elapsed time by design; readings are reported, never fed back into the simulation or used to size a workload.
    Instant::now()
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = wall_now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// One recorded span. `parent` indexes the enclosing span, so a span's self
/// time is its duration minus its children's.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub layer: &'static str,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    /// `(day, retailer)` — spans of one retailer-day share both.
    pub day: Option<u32>,
    pub retailer: Option<u32>,
}

impl SpanRec {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Records spans around the calls the harness makes into each layer. A
/// disabled tracer only times (the untraced pass pays one clock pair per
/// call and nothing else).
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    buf: Option<RefCell<TraceBuf>>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            t0: wall_now(),
            buf: None,
        }
    }

    pub fn on() -> Self {
        Tracer {
            t0: wall_now(),
            buf: Some(RefCell::new(TraceBuf::default())),
        }
    }

    /// Runs `f` inside a span of `layer` (a crate name) called `name`;
    /// returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.span_of(layer, name, None, None, f)
    }

    /// [`Tracer::span`] tagged with the retailer-day it belongs to.
    pub fn span_of<T>(
        &self,
        layer: &'static str,
        name: &str,
        day: Option<u32>,
        retailer: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let Some(buf) = &self.buf else {
            return timed(f);
        };
        let start = wall_now();
        let idx = {
            let mut b = buf.borrow_mut();
            let parent = b.open.last().copied();
            // Inherit the retailer-day id from the enclosing span.
            let (pd, pr) = parent.map_or((None, None), |p| (b.spans[p].day, b.spans[p].retailer));
            let idx = b.spans.len();
            b.spans.push(SpanRec {
                layer,
                name: name.to_string(),
                start_s: start.duration_since(self.t0).as_secs_f64(),
                end_s: 0.0,
                parent,
                day: day.or(pd),
                retailer: retailer.or(pr),
            });
            b.open.push(idx);
            idx
        };
        let out = f();
        let end = wall_now();
        let mut b = buf.borrow_mut();
        b.spans[idx].end_s = end.duration_since(self.t0).as_secs_f64();
        b.open.pop();
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Adds a span measured elsewhere (reader and publisher threads time
    /// their own blocks and hand the instants back after they join), as a
    /// child of whatever span is open now.
    pub fn record(&self, layer: &'static str, name: &str, start: Instant, end: Instant) {
        let Some(buf) = &self.buf else { return };
        let mut b = buf.borrow_mut();
        let parent = b.open.last().copied();
        b.spans.push(SpanRec {
            layer,
            name: name.to_string(),
            start_s: start.saturating_duration_since(self.t0).as_secs_f64(),
            end_s: end.saturating_duration_since(self.t0).as_secs_f64(),
            parent,
            day: None,
            retailer: None,
        });
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.buf
            .as_ref()
            .map_or_else(Vec::new, |b| b.borrow().spans.clone())
    }

    /// Total duration of the spans `keep` selects.
    fn total_where(&self, keep: impl Fn(&SpanRec) -> bool) -> f64 {
        let sum: f64 = self.buf.as_ref().map_or(0.0, |b| {
            b.borrow()
                .spans
                .iter()
                .filter(|s| keep(s))
                .map(SpanRec::dur_s)
                .sum()
        });
        // An empty float sum is -0.0; report it as plain zero.
        sum + 0.0
    }

    /// Total duration of every span called `name` in `layer`.
    pub fn total(&self, layer: &str, name: &str) -> f64 {
        self.total_where(|s| s.layer == layer && s.name == name)
    }

    /// Total duration of every span whose name starts with `prefix`.
    pub fn total_prefix(&self, prefix: &str) -> f64 {
        self.total_where(|s| s.name.starts_with(prefix))
    }

    /// Self time (duration minus children) summed per `(layer, name)`,
    /// largest first.
    pub fn self_times(&self) -> Vec<(String, f64, usize)> {
        let spans = self.spans();
        let mut child_s = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut by_key: std::collections::BTreeMap<String, (f64, usize)> = Default::default();
        for (i, s) in spans.iter().enumerate() {
            let e = by_key.entry(format!("{}.{}", s.layer, s.name)).or_default();
            e.0 += (s.dur_s() - child_s[i]).max(0.0);
            e.1 += 1;
        }
        let mut rows: Vec<(String, f64, usize)> =
            by_key.into_iter().map(|(k, (s, n))| (k, s, n)).collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Renders the spans as a Chrome trace-event document. Harness calls
    /// land on the pipeline lane, serving spans on the serving lane, and the
    /// shadow day on a lane of its own so it never nests under `run_day`.
    pub fn chrome_json(&self) -> String {
        let obs = Obs::recording(Level::Debug);
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let track = match s.layer {
                "serving" => Track::SERVING,
                _ if in_shadow(&spans, i) => Track::job(0),
                _ => Track::PIPELINE,
            };
            let mut args: Vec<(&str, ArgValue)> = vec![("id", i.into())];
            if let Some(p) = s.parent {
                args.push(("parent", p.into()));
            }
            if let Some(d) = s.day {
                args.push(("day", d.into()));
            }
            if let Some(r) = s.retailer {
                args.push(("retailer", r.into()));
            }
            obs.span(
                Level::Info,
                s.layer,
                &s.name,
                track,
                s.start_s,
                s.end_s,
                &args,
            );
        }
        obs.trace_json()
    }
}

/// True for the `shadow_day` span and everything nested under it.
fn in_shadow(spans: &[SpanRec], mut i: usize) -> bool {
    loop {
        if spans[i].name == "shadow_day" {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_times_and_a_chrome_trace() {
        let tr = Tracer::on();
        tr.span_of("pipeline", "run_day", Some(3), None, || {
            tr.span_of("core", "train", None, Some(7), || {
                std::hint::black_box(1 + 1)
            });
            tr.span("core", "train", || ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].day, spans[1].retailer), (Some(3), Some(7)));
        assert_eq!(spans[2].retailer, None);
        let own = tr.self_times();
        let run_day = own.iter().find(|r| r.0 == "pipeline.run_day").unwrap();
        assert!(run_day.1 <= spans[0].dur_s());
        assert_eq!(own.iter().find(|r| r.0 == "core.train").unwrap().2, 2);
        let json = tr.chrome_json();
        assert!(json.contains("\"name\":\"run_day\"") && json.contains("\"parent\":0"));
        // A disabled tracer still times.
        let (v, s) = Tracer::off().span("x", "y", || 5);
        assert!(v == 5 && s >= 0.0 && Tracer::off().spans().is_empty());
    }
}
