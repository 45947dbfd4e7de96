//! Fixed-interval sample timelines: the one recorder behind the audit
//! checkpoints and the topology snapshots, and the artifact both
//! serialize to.
//!
//! A [`Timeline`] holds a sampling interval, the next due time, free-form
//! run metadata and the samples recorded so far. A world keeps an
//! `Option<SharedTimeline<T>>` per instrument and, once per traffic step,
//! builds and records a sample only when one is due: detached, the check
//! is a single branch on the `Option` and no sample is ever built.
//!
//! The timeline is its own artifact: [`Timeline::to_json`] writes
//! `{"meta":{…},"interval_us":N,"<items>":[…]}` with one item per line
//! (the shared [`json::write_envelope`] layout) and
//! [`Timeline::from_json`] reads it back. Each sample type supplies only
//! its item key, writer and parser through [`Sample`];
//! [`AuditArtifact`](crate::audit::AuditArtifact) and
//! [`TopoArtifact`](crate::topo::TopoArtifact) name the two timelines.

use crate::json;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A timeline item, stamped with the simulation time it was taken at,
/// and its artifact encoding.
pub trait Sample: Sized {
    /// The artifact key of the item array (`"checkpoints"`, …).
    const ITEMS: &'static str;

    /// When the sample was taken; the next one falls due an interval
    /// later.
    fn at(&self) -> SimTime;

    /// Appends the sample's single-line JSON object to `out`.
    fn write_item(&self, out: &mut String);

    /// Decodes one item written by [`Sample::write_item`].
    ///
    /// # Errors
    ///
    /// Fails with a description of the first malformed or inconsistent
    /// construct.
    fn parse_item(value: &json::Value) -> Result<Self, String>;
}

/// Collects samples at a fixed sim-time interval, plus free-form run
/// metadata (seed, scenario, attack setup…).
///
/// Two timelines from identically-seeded runs are equal and serialize
/// byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline<T> {
    interval: SimDuration,
    next_due: SimTime,
    meta: json::Meta,
    samples: Vec<T>,
}

/// A shared, interiorly-mutable timeline handed to a world.
pub type SharedTimeline<T> = Rc<RefCell<Timeline<T>>>;

/// Creates a [`SharedTimeline`] sampling every `interval`.
#[must_use]
pub fn shared_timeline<T: Sample>(interval: SimDuration) -> SharedTimeline<T> {
    Rc::new(RefCell::new(Timeline::new(interval)))
}

impl<T: Sample> Timeline<T> {
    /// Creates a timeline sampling every `interval` of simulation time
    /// (the first sample is due immediately).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn new(interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "timeline interval must be positive");
        Timeline { interval, next_due: SimTime::ZERO, meta: json::Meta::new(), samples: Vec::new() }
    }

    /// The sampling interval.
    #[must_use]
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Attaches one metadata key (seed, scenario label, …).
    ///
    /// # Panics
    ///
    /// Panics if the key or value contains `"` or `\` — the artifact
    /// encoding is escape-free.
    pub fn set_meta(&mut self, key: &str, value: impl Into<String>) {
        json::set_meta(&mut self.meta, key, value.into());
    }

    /// The run metadata, sorted by key.
    #[must_use]
    pub fn meta(&self) -> &json::Meta {
        &self.meta
    }

    /// Whether a sample is due at `now`.
    #[must_use]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next_due
    }

    /// Appends a sample and advances the next due time.
    pub fn record(&mut self, sample: T) {
        self.next_due = sample.at() + self.interval;
        self.samples.push(sample);
    }

    /// The recorded samples, in sampling order.
    #[must_use]
    pub fn samples(&self) -> &[T] {
        &self.samples
    }

    /// Renders the timeline as its artifact: sorted metadata, the
    /// interval and one sample per line, so the timeline greps well.
    #[must_use]
    pub fn to_json(&self) -> String {
        let header = [("interval_us", self.interval.as_micros().to_string())];
        json::write_envelope(&self.meta, &header, T::ITEMS, &self.samples, |out, s| {
            s.write_item(out);
        })
    }

    /// Parses an artifact written by [`Timeline::to_json`]. The next
    /// due time is the last sample's time plus the interval (zero when
    /// empty), so the result equals the recorder it was written from.
    ///
    /// # Errors
    ///
    /// Fails with a description of the first malformed construct,
    /// including any item [`Sample::parse_item`] rejects.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let env = json::read_envelope(text, &["interval_us"], T::ITEMS, T::parse_item)?;
        let interval =
            SimDuration::from_micros(env.root.get("interval_us")?.as_u64("interval_us")?);
        if interval == SimDuration::ZERO {
            return Err("interval_us must be positive".into());
        }
        let next_due = env.items.last().map_or(SimTime::ZERO, |s| s.at() + interval);
        Ok(Timeline { interval, next_due, meta: env.meta, samples: env.items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Tick(SimTime);

    impl Sample for Tick {
        const ITEMS: &'static str = "ticks";

        fn at(&self) -> SimTime {
            self.0
        }

        fn write_item(&self, out: &mut String) {
            out.push_str(&self.0.as_micros().to_string());
        }

        fn parse_item(value: &json::Value) -> Result<Self, String> {
            Ok(Tick(SimTime::from_micros(value.as_u64("tick")?)))
        }
    }

    #[test]
    fn cadence_and_due() {
        let mut rec = Timeline::new(SimDuration::from_secs(1));
        assert_eq!(rec.interval(), SimDuration::from_secs(1));
        assert!(rec.due(SimTime::ZERO));
        rec.record(Tick(SimTime::ZERO));
        assert!(!rec.due(SimTime::from_millis(900)));
        assert!(rec.due(SimTime::from_secs(1)));
        rec.record(Tick(SimTime::from_secs(1)));
        assert_eq!(rec.samples(), &[Tick(SimTime::ZERO), Tick(SimTime::from_secs(1))]);
    }

    #[test]
    #[should_panic(expected = "must not contain quotes")]
    fn meta_rejects_quotes() {
        Timeline::<Tick>::new(SimDuration::from_secs(1)).set_meta("scenario", "a\"b");
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_is_rejected() {
        let _ = Timeline::<Tick>::new(SimDuration::ZERO);
    }

    #[test]
    fn timeline_round_trips_to_an_equal_recorder() {
        let mut rec = Timeline::new(SimDuration::from_secs(2));
        rec.set_meta("seed", "42");
        rec.set_meta("attacked", "true");
        let empty = Timeline::<Tick>::from_json(&rec.to_json()).unwrap();
        assert_eq!(empty, rec);
        rec.record(Tick(SimTime::from_micros(3)));
        rec.record(Tick(SimTime::from_secs(2)));
        let text = rec.to_json();
        assert_eq!(
            text,
            "{\"meta\":{\"attacked\":\"true\",\"seed\":\"42\"},\"interval_us\":2000000,\
             \"ticks\":[\n3,\n2000000\n]}\n"
        );
        let back = Timeline::<Tick>::from_json(&text).unwrap();
        assert_eq!(back, rec);
        assert!(!back.due(SimTime::from_millis(3_999)) && back.due(SimTime::from_secs(4)));
        let zero = text.replace("2000000,", "0,");
        assert!(Timeline::<Tick>::from_json(&zero).unwrap_err().contains("positive"));
        let renamed = text.replace("ticks", "tocks");
        assert!(Timeline::<Tick>::from_json(&renamed).unwrap_err().contains("unknown top-level"));
    }
}
