//! The [`Obs`] handle: span/event recording in Chrome trace-event format.
//!
//! All timestamps are **virtual seconds** supplied by the caller; they are
//! quantized to whole microseconds on recording (the unit Chrome's `ts`/
//! `dur` fields expect). Tracks map the fleet onto Chrome's process/thread
//! lanes: the pipeline orchestrator is pid 0, each cluster cell is a
//! process (tid 0 = job lane, tid 1+m = machine `m`'s lane), and the
//! serving store gets its own process.

use crate::metrics::MetricsRegistry;
use crate::{fmt_f64, json_escape};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Severity / verbosity of an event. Ordered: `Error < Warn < Info < Debug`;
/// an event is recorded iff its level is at or above the handle's threshold
/// in severity (i.e. `level <= min_level`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Unrecoverable problems (a job abandoned a split).
    Error,
    /// Conditions an operator should look at (quality alerts, preemptions
    /// that exhausted retries).
    Warn,
    /// Normal milestones (day boundaries, job completions).
    Info,
    /// High-volume detail (per-epoch, per-attempt, per-config).
    Debug,
}

impl Level {
    /// Lower-case name, as embedded in event args.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// A (pid, tid) lane in the Chrome trace. See the module docs for the
/// fleet-to-lane mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Track {
    /// Chrome "process" id.
    pub pid: u32,
    /// Chrome "thread" id within the process.
    pub tid: u32,
}

impl Track {
    /// The pipeline orchestrator lane (day/phase spans, monitor alerts).
    pub const PIPELINE: Track = Track { pid: 0, tid: 0 };

    /// The serving store's lane (publishes, stats snapshots).
    pub const SERVING: Track = Track { pid: 900, tid: 0 };

    /// The chaos harness's lane (per-day injected-fault summaries).
    pub const CHAOS: Track = Track { pid: 950, tid: 0 };

    /// Cell `cell`'s job-level lane (whole map jobs).
    pub fn job(cell: u32) -> Track {
        Track {
            pid: cell + 1,
            tid: 0,
        }
    }

    /// Machine `machine`'s lane inside cell `cell` (task attempts).
    pub fn machine(cell: u32, machine: u32) -> Track {
        Track {
            pid: cell + 1,
            tid: machine + 1,
        }
    }

    fn process_name(pid: u32) -> String {
        match pid {
            0 => "pipeline".to_owned(),
            900 => "serving".to_owned(),
            950 => "chaos".to_owned(),
            p => format!("cell {}", p - 1),
        }
    }
}

/// A typed argument value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (NaN/inf render as `null`).
    F64(f64),
    /// String (JSON-escaped on render).
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl ArgValue {
    fn render(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::I64(v) => v.to_string(),
            ArgValue::F64(v) => fmt_f64(*v),
            ArgValue::Str(s) => format!("\"{}\"", json_escape(s)),
            ArgValue::Bool(b) => b.to_string(),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<f32> for ArgValue {
    fn from(v: f32) -> Self {
        ArgValue::F64(f64::from(v))
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// One recorded trace event (Chrome trace-event model).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Human-readable name shown on the lane.
    pub name: String,
    /// Category, used for filtering (`cluster`, `mapreduce`, `train`,
    /// `sweep`, `pipeline`, `serving`, `monitor`).
    pub cat: String,
    /// Phase: `'X'` complete span, `'i'` instant, `'C'` counter sample.
    pub ph: char,
    /// Start timestamp, virtual microseconds.
    pub ts_us: u64,
    /// Duration in virtual microseconds (`'X'` events only).
    pub dur_us: Option<u64>,
    /// Lane the event belongs to.
    pub track: Track,
    /// Key/value arguments.
    pub args: Vec<(String, ArgValue)>,
}

impl TraceEvent {
    fn render(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{},\"tid\":{}",
            json_escape(&self.name),
            json_escape(&self.cat),
            self.ph,
            self.ts_us,
            self.track.pid,
            self.track.tid
        );
        if let Some(d) = self.dur_us {
            let _ = write!(out, ",\"dur\":{d}");
        }
        if self.ph == 'i' {
            // Instant scope: thread-local arrow.
            out.push_str(",\"s\":\"t\"");
        }
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (k, v)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(k), v.render());
            }
            out.push('}');
        }
        out.push('}');
    }
}

#[derive(Debug)]
struct Recorder {
    min_level: Level,
    events: Mutex<Vec<TraceEvent>>,
    metrics: MetricsRegistry,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the event buffer cannot corrupt it (we only
    // push), so poison recovery is safe and keeps the library panic-free.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Copies borrowed event args into the owned form events store.
pub(crate) fn own_args(args: &[(&str, ArgValue)]) -> Vec<(String, ArgValue)> {
    args.iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect()
}

/// Quantizes virtual seconds to whole microseconds (Chrome's `ts` unit).
fn to_us(seconds: f64) -> u64 {
    if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e6).round() as u64
    } else {
        0
    }
}

/// The recording handle. Cheap to clone (an `Arc`); the default handle is
/// disabled and every call on it is a no-op, so instrumented code pays one
/// branch when tracing is off.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Recorder>>,
}

impl Obs {
    /// A disabled handle: records nothing, all calls are no-ops.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live handle recording events at or above `min_level` severity
    /// (pass [`Level::Debug`] to record everything).
    pub fn recording(min_level: Level) -> Self {
        Self {
            inner: Some(Arc::new(Recorder {
                min_level,
                events: Mutex::new(Vec::new()),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// Whether this handle records anything at all. Use to skip building
    /// expensive args when tracing is off.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether events at `level` would be recorded.
    pub fn level_enabled(&self, level: Level) -> bool {
        self.inner.as_ref().is_some_and(|r| level <= r.min_level)
    }

    /// The recording threshold, `None` when disabled.
    pub(crate) fn min_level(&self) -> Option<Level> {
        self.inner.as_ref().map(|r| r.min_level)
    }

    fn push(&self, level: Level, ev: TraceEvent) {
        if let Some(r) = &self.inner {
            if level <= r.min_level {
                lock(&r.events).push(ev);
            }
        }
    }

    /// Records a complete span `[start_s, end_s]` (virtual seconds) on
    /// `track`. A span whose end precedes its start is clamped to zero
    /// duration.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        level: Level,
        cat: &str,
        name: &str,
        track: Track,
        start_s: f64,
        end_s: f64,
        args: &[(&str, ArgValue)],
    ) {
        if self.level_enabled(level) {
            self.push_span(
                level,
                cat.to_owned(),
                name.to_owned(),
                track,
                start_s,
                end_s,
                own_args(args),
            );
        }
    }

    /// [`Self::span`] on owned strings (what [`Self::absorb`] replays).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_span(
        &self,
        level: Level,
        cat: String,
        name: String,
        track: Track,
        start_s: f64,
        end_s: f64,
        args: Vec<(String, ArgValue)>,
    ) {
        let ts = to_us(start_s);
        let dur = to_us(end_s).saturating_sub(ts);
        self.push(
            level,
            TraceEvent {
                name,
                cat,
                ph: 'X',
                ts_us: ts,
                dur_us: Some(dur),
                track,
                args,
            },
        );
    }

    /// Records an instant event at `ts_s` (virtual seconds). The level is
    /// embedded as a `level` arg so filters in the viewer can find alerts.
    pub fn instant(
        &self,
        level: Level,
        cat: &str,
        name: &str,
        track: Track,
        ts_s: f64,
        args: &[(&str, ArgValue)],
    ) {
        if self.level_enabled(level) {
            self.push_instant(
                level,
                cat.to_owned(),
                name.to_owned(),
                track,
                ts_s,
                own_args(args),
            );
        }
    }

    /// [`Self::instant`] on owned strings.
    pub(crate) fn push_instant(
        &self,
        level: Level,
        cat: String,
        name: String,
        track: Track,
        ts_s: f64,
        mut args: Vec<(String, ArgValue)>,
    ) {
        args.insert(0, ("level".to_owned(), ArgValue::from(level.as_str())));
        self.push(
            level,
            TraceEvent {
                name,
                cat,
                ph: 'i',
                ts_us: to_us(ts_s),
                dur_us: None,
                track,
                args,
            },
        );
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(r) = &self.inner {
            r.metrics.counter_add(name, delta);
        }
    }

    /// Records a gauge sample at `ts_s`: updates the registry *and* emits a
    /// Chrome `'C'` counter event so the value plots as a time series.
    pub fn gauge(&self, name: &str, ts_s: f64, value: f64) {
        let Some(r) = &self.inner else {
            return;
        };
        r.metrics.gauge_set(name, value);
        self.push(
            Level::Error, // counter samples are never level-filtered
            TraceEvent {
                name: name.to_owned(),
                cat: "metric".to_owned(),
                ph: 'C',
                ts_us: to_us(ts_s),
                dur_us: None,
                track: Track::PIPELINE,
                args: vec![("value".to_owned(), ArgValue::F64(value))],
            },
        );
    }

    /// Records a value into the named histogram (log2-bucketed).
    pub fn histogram(&self, name: &str, value: f64) {
        if let Some(r) = &self.inner {
            r.metrics.histogram_record(name, value);
        }
    }

    /// Number of trace events recorded so far.
    pub fn event_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| lock(&r.events).len())
    }

    /// The metrics registry, if recording.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|r| &r.metrics)
    }

    /// Renders the full Chrome trace JSON. Events appear in recording
    /// order, one per line, preceded by process-name metadata; with a
    /// single-threaded deterministic caller the output is byte-identical
    /// across runs.
    pub fn trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        if let Some(r) = &self.inner {
            let events = lock(&r.events);
            // Stable process names: every pid seen, ascending.
            let mut pids: Vec<u32> = events.iter().map(|e| e.track.pid).collect();
            pids.sort_unstable();
            pids.dedup();
            for pid in pids {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"{}\"}}}}",
                    pid,
                    json_escape(&Track::process_name(pid))
                );
            }
            for ev in events.iter() {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                ev.render(&mut out);
            }
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Renders the metrics registry as JSON lines (sorted by type, name).
    pub fn metrics_jsonl(&self) -> String {
        self.inner
            .as_ref()
            .map_or_else(String::new, |r| r.metrics.to_jsonl())
    }

    /// Writes `trace.json` and `metrics.jsonl` under `dir` (created if
    /// missing). Returns the two paths.
    pub fn write_artifacts(&self, dir: &Path) -> io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let trace = dir.join("trace.json");
        let metrics = dir.join("metrics.jsonl");
        std::fs::write(&trace, self.trace_json())?;
        std::fs::write(&metrics, self.metrics_jsonl())?;
        Ok((trace, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let obs = Obs::disabled();
        obs.span(Level::Error, "c", "n", Track::PIPELINE, 0.0, 1.0, &[]);
        obs.instant(Level::Error, "c", "n", Track::PIPELINE, 0.0, &[]);
        obs.counter("x", 1);
        obs.gauge("g", 0.0, 1.0);
        obs.histogram("h", 1.0);
        assert!(!obs.is_enabled());
        assert_eq!(obs.event_count(), 0);
        assert_eq!(obs.metrics_jsonl(), "");
        assert!(obs.trace_json().contains("\"traceEvents\":["));
    }

    #[test]
    fn level_threshold_filters_events() {
        let obs = Obs::recording(Level::Info);
        obs.instant(Level::Debug, "c", "too detailed", Track::PIPELINE, 1.0, &[]);
        obs.instant(Level::Warn, "c", "kept", Track::PIPELINE, 1.0, &[]);
        assert_eq!(obs.event_count(), 1);
        assert!(obs.level_enabled(Level::Error));
        assert!(obs.level_enabled(Level::Info));
        assert!(!obs.level_enabled(Level::Debug));
        let json = obs.trace_json();
        assert!(json.contains("kept"));
        assert!(!json.contains("too detailed"));
        assert!(json.contains("\"level\":\"warn\""));
    }

    #[test]
    fn span_quantizes_to_microseconds() {
        let obs = Obs::recording(Level::Debug);
        obs.span(
            Level::Info,
            "cluster",
            "task 3",
            Track::machine(2, 0),
            1.5,
            2.25,
            &[("attempt", 1u32.into())],
        );
        let json = obs.trace_json();
        assert!(json.contains("\"ts\":1500000"), "{json}");
        assert!(json.contains("\"dur\":750000"), "{json}");
        assert!(json.contains("\"pid\":3"), "{json}");
        assert!(json.contains("\"tid\":1"), "{json}");
        assert!(json.contains("\"name\":\"cell 2\""), "{json}");
    }

    #[test]
    fn negative_and_nonfinite_timestamps_clamp_to_zero() {
        let obs = Obs::recording(Level::Debug);
        obs.span(
            Level::Info,
            "c",
            "backwards",
            Track::PIPELINE,
            5.0,
            1.0,
            &[],
        );
        obs.instant(Level::Info, "c", "nan", Track::PIPELINE, f64::NAN, &[]);
        let json = obs.trace_json();
        assert!(json.contains("\"dur\":0"));
        assert!(json.contains("\"ts\":0"));
    }

    #[test]
    fn gauge_emits_counter_event_and_registry_entry() {
        let obs = Obs::recording(Level::Error);
        obs.gauge("serving.hit_rate", 10.0, 0.25);
        let json = obs.trace_json();
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"value\":0.25"), "{json}");
        assert!(obs.metrics_jsonl().contains("serving.hit_rate"));
    }

    #[test]
    fn args_render_all_value_types() {
        let obs = Obs::recording(Level::Debug);
        obs.instant(
            Level::Info,
            "c",
            "typed",
            Track::PIPELINE,
            0.0,
            &[
                ("u", 7u64.into()),
                ("i", (-2i64).into()),
                ("f", 1.5f64.into()),
                ("s", "he\"llo".into()),
                ("b", true.into()),
            ],
        );
        let json = obs.trace_json();
        assert!(json.contains("\"u\":7"));
        assert!(json.contains("\"i\":-2"));
        assert!(json.contains("\"f\":1.5"));
        assert!(json.contains("\"s\":\"he\\\"llo\""));
        assert!(json.contains("\"b\":true"));
    }

    #[test]
    fn clones_share_one_buffer() {
        let obs = Obs::recording(Level::Debug);
        let clone = obs.clone();
        clone.instant(Level::Info, "c", "via clone", Track::PIPELINE, 0.0, &[]);
        assert_eq!(obs.event_count(), 1);
    }

    #[test]
    fn write_artifacts_round_trips() {
        let obs = Obs::recording(Level::Debug);
        obs.instant(Level::Info, "c", "e", Track::PIPELINE, 1.0, &[]);
        obs.counter("n", 2);
        let dir = std::env::temp_dir().join(format!("sigmund-obs-test-{}", std::process::id()));
        let (t, m) = obs.write_artifacts(&dir).unwrap();
        let trace = std::fs::read_to_string(&t).unwrap();
        let metrics = std::fs::read_to_string(&m).unwrap();
        assert_eq!(trace, obs.trace_json());
        assert_eq!(metrics, obs.metrics_jsonl());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_calls_render_byte_identical_json() {
        let run = || {
            let obs = Obs::recording(Level::Debug);
            obs.span(
                Level::Info,
                "train",
                "epoch 0",
                Track::job(1),
                0.1,
                0.9,
                &[("loss", 0.6931471805599453f64.into())],
            );
            obs.gauge("g", 0.9, 1.0 / 3.0);
            obs.histogram("h", 2.5);
            obs.counter("c", 3);
            (obs.trace_json(), obs.metrics_jsonl())
        };
        assert_eq!(run(), run());
    }
}
