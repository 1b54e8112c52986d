//! [`ObsLog`]: a detached, ordered recording replayed onto an [`Obs`] later.
//!
//! A map-task attempt may run on a worker thread before the scheduler has
//! decided when it starts or on which machine. It therefore cannot write to
//! the shared [`Obs`]: it would not know its own timestamps or lane, and
//! events from concurrent attempts would interleave by wall-clock luck. It
//! records into a log of its own instead — on a clock that starts at zero
//! and on no lane at all — and the scheduler [`Obs::absorb`]s the log at the
//! start time and lane it assigns, in the order it commits attempts.
//!
//! Replay preserves recording order for metric samples as well as events:
//! a histogram's `sum` is a float accumulation, so the same samples in a
//! different order could render different bytes.

use crate::trace::{own_args, ArgValue, Level, Obs, Track};

#[derive(Debug)]
enum Op {
    Span {
        level: Level,
        cat: String,
        name: String,
        start_s: f64,
        end_s: f64,
        args: Vec<(String, ArgValue)>,
    },
    Instant {
        level: Level,
        cat: String,
        name: String,
        ts_s: f64,
        args: Vec<(String, ArgValue)>,
    },
    Counter {
        name: String,
        delta: u64,
    },
    Gauge {
        name: String,
        ts_s: f64,
        value: f64,
    },
    Histogram {
        name: String,
        value: f64,
    },
}

/// A detached recording with [`Obs`]'s surface minus the lane: timestamps
/// are seconds on the recorder's own clock, shifted by [`Obs::absorb`].
/// Made by [`Obs::log`], so it filters at its parent's level; the log of a
/// disabled handle records nothing and never allocates.
#[derive(Debug)]
pub struct ObsLog {
    min_level: Option<Level>,
    ops: Vec<Op>,
}

impl ObsLog {
    /// Whether this log records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.min_level.is_some()
    }

    /// Whether events at `level` would be recorded.
    pub fn level_enabled(&self, level: Level) -> bool {
        self.min_level.is_some_and(|min| level <= min)
    }

    /// Records a complete span `[start_s, end_s]`; see [`Obs::span`].
    pub fn span(
        &mut self,
        level: Level,
        cat: &str,
        name: &str,
        start_s: f64,
        end_s: f64,
        args: &[(&str, ArgValue)],
    ) {
        if self.level_enabled(level) {
            self.ops.push(Op::Span {
                level,
                cat: cat.to_owned(),
                name: name.to_owned(),
                start_s,
                end_s,
                args: own_args(args),
            });
        }
    }

    /// Records an instant event at `ts_s`; see [`Obs::instant`].
    pub fn instant(
        &mut self,
        level: Level,
        cat: &str,
        name: &str,
        ts_s: f64,
        args: &[(&str, ArgValue)],
    ) {
        if self.level_enabled(level) {
            self.ops.push(Op::Instant {
                level,
                cat: cat.to_owned(),
                name: name.to_owned(),
                ts_s,
                args: own_args(args),
            });
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter(&mut self, name: &str, delta: u64) {
        if self.is_enabled() {
            self.ops.push(Op::Counter {
                name: name.to_owned(),
                delta,
            });
        }
    }

    /// Records a gauge sample at `ts_s`; see [`Obs::gauge`].
    pub fn gauge(&mut self, name: &str, ts_s: f64, value: f64) {
        if self.is_enabled() {
            self.ops.push(Op::Gauge {
                name: name.to_owned(),
                ts_s,
                value,
            });
        }
    }

    /// Records a value into the named histogram.
    pub fn histogram(&mut self, name: &str, value: f64) {
        if self.is_enabled() {
            self.ops.push(Op::Histogram {
                name: name.to_owned(),
                value,
            });
        }
    }
}

impl Obs {
    /// An empty [`ObsLog`] filtering at this handle's level.
    pub fn log(&self) -> ObsLog {
        ObsLog {
            min_level: self.min_level(),
            ops: Vec::new(),
        }
    }

    /// Replays `log` in recording order, as if each call had been made on
    /// this handle with `offset_s` added to its timestamps and its spans
    /// and instants placed on `track`.
    pub fn absorb(&self, log: ObsLog, offset_s: f64, track: Track) {
        for op in log.ops {
            match op {
                Op::Span {
                    level,
                    cat,
                    name,
                    start_s,
                    end_s,
                    args,
                } => self.push_span(
                    level,
                    cat,
                    name,
                    track,
                    offset_s + start_s,
                    offset_s + end_s,
                    args,
                ),
                Op::Instant {
                    level,
                    cat,
                    name,
                    ts_s,
                    args,
                } => self.push_instant(level, cat, name, track, offset_s + ts_s, args),
                Op::Counter { name, delta } => self.counter(&name, delta),
                Op::Gauge { name, ts_s, value } => self.gauge(&name, offset_s + ts_s, value),
                Op::Histogram { name, value } => self.histogram(&name, value),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbed_log_equals_direct_calls() {
        // The same calls, once straight onto an `Obs` at absolute times and
        // once through a log absorbed at an offset.
        let track = Track::machine(2, 3);
        let loss = [("loss", ArgValue::from(0.7f64))];
        let n = [("n", ArgValue::from(3u32))];

        let a = Obs::recording(Level::Debug);
        a.span(
            Level::Debug,
            "train",
            "epoch 0",
            track,
            100.5,
            101.25,
            &loss,
        );
        for v in [0.1, 0.2, 0.3] {
            a.histogram("h", v);
        }
        a.instant(Level::Info, "train", "ckpt", track, 101.25, &n);
        a.counter("c", 2);
        a.gauge("g", 102.0, 9.5);

        let b = Obs::recording(Level::Debug);
        let mut log = b.log();
        log.span(Level::Debug, "train", "epoch 0", 0.5, 1.25, &loss);
        for v in [0.1, 0.2, 0.3] {
            log.histogram("h", v);
        }
        log.instant(Level::Info, "train", "ckpt", 1.25, &n);
        log.counter("c", 2);
        log.gauge("g", 2.0, 9.5);
        assert_eq!(
            b.event_count(),
            0,
            "nothing reaches the handle before absorb"
        );
        b.absorb(log, 100.0, track);

        assert_eq!(a.trace_json(), b.trace_json());
        assert_eq!(a.metrics_jsonl(), b.metrics_jsonl());
    }

    #[test]
    fn log_filters_at_its_parents_level_and_disabled_records_nothing() {
        let obs = Obs::recording(Level::Info);
        let mut log = obs.log();
        assert!(log.is_enabled());
        assert!(log.level_enabled(Level::Warn));
        assert!(!log.level_enabled(Level::Debug));
        log.instant(Level::Debug, "c", "dropped", 0.0, &[]);
        log.instant(Level::Warn, "c", "kept", 0.0, &[]);
        assert_eq!(log.ops.len(), 1);
        obs.absorb(log, 0.0, Track::PIPELINE);
        assert_eq!(obs.event_count(), 1);

        let mut off = Obs::disabled().log();
        off.span(Level::Error, "c", "n", 0.0, 1.0, &[]);
        off.instant(Level::Error, "c", "n", 0.0, &[]);
        off.counter("x", 1);
        off.gauge("g", 0.0, 1.0);
        off.histogram("h", 1.0);
        assert!(!off.is_enabled());
        assert_eq!(off.ops.capacity(), 0, "a disabled log never allocates");
    }

    #[test]
    fn histogram_samples_replay_in_recording_order() {
        // 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit, so a
        // replay that reordered samples would change the rendered mean.
        let mean = |vals: [f64; 3]| {
            let obs = Obs::recording(Level::Debug);
            let mut log = obs.log();
            for v in vals {
                log.histogram("h", v);
            }
            obs.absorb(log, 0.0, Track::PIPELINE);
            obs.metrics_jsonl()
        };
        assert_ne!(mean([0.1, 0.2, 0.3]), mean([0.3, 0.2, 0.1]));
        assert_eq!(mean([0.1, 0.2, 0.3]), mean([0.1, 0.2, 0.3]));
    }
}
