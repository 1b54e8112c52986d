//! Deterministic virtual-time tracing and metrics for the Sigmund fleet.
//!
//! The paper's monitoring story (Section III-C) is an observability problem:
//! thousands of retailers train daily with "no manual per-retailer
//! attention", so one artifact has to tell the whole story of a day. This
//! crate is that artifact's writer. Three design rules keep it compatible
//! with the rest of the workspace:
//!
//! 1. **Virtual time only.** Every span and event is stamped with a
//!    timestamp *passed in* by the caller — the simulators' virtual clock —
//!    never read from a wall clock. `cargo xtask lint` (determinism rule)
//!    enforces this mechanically; byte-identical traces across same-seed
//!    `threads: 1` runs are a test invariant (`tests/trace_determinism.rs`).
//! 2. **No globals.** An [`Obs`] handle is constructed once and handed down
//!    explicitly (it is a cheap `Arc` clone). The default handle is
//!    *disabled* and every recording call on it is a no-op, so library code
//!    can be instrumented unconditionally.
//! 3. **No dependencies.** JSON is rendered by hand (like the `xtask`
//!    linter), so the crate builds anywhere the compiler does.
//!
//! Output formats:
//! - `results/trace.json` — Chrome trace-event format (one event per line),
//!   viewable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//! - `results/metrics.jsonl` — one JSON object per counter/gauge/histogram,
//!   sorted by type then name.
//!
//! ```
//! use sigmund_obs::{Level, Obs, Track};
//! let obs = Obs::recording(Level::Info);
//! obs.span(
//!     Level::Info,
//!     "pipeline",
//!     "day 0",
//!     Track::PIPELINE,
//!     0.0,
//!     10.0,
//!     &[("models", 3u32.into())],
//! );
//! obs.counter("pipeline.days", 1);
//! assert!(obs.trace_json().contains("\"cat\":\"pipeline\""));
//! assert!(obs.metrics_jsonl().contains("pipeline.days"));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod bytes;
mod dashboard;
mod log;
mod metrics;
mod stream;
mod summary;
mod trace;

pub use bytes::{ByteCharge, ByteLedger};
pub use dashboard::Dashboard;
pub use log::ObsLog;
pub use metrics::{Gauge, Histogram, MetricsRegistry};
pub use stream::{AlertKind, HealthBus, HealthCursor, HealthEvent};
pub use summary::{summarize_integrity, summarize_metrics, summarize_trace};
pub use trace::{ArgValue, Level, Obs, TraceEvent, Track};

/// Renders an `f64` as a JSON value: shortest round-trip decimal for finite
/// values (Rust's `Display` — deterministic across runs and platforms),
/// `null` for NaN/infinities (which raw JSON cannot carry).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn f64_formatting_is_json_safe() {
        assert_eq!(fmt_f64(1.5), "1.5");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        // Display never uses scientific notation, which JSON would accept
        // anyway; just check round numbers stay integral-looking.
        assert_eq!(fmt_f64(3.0), "3");
    }

    #[test]
    fn json_escaping_covers_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
    }
}
