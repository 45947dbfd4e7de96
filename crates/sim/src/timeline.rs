//! Fixed-interval sample timelines: the one recorder behind the audit
//! checkpoints and the topology snapshots, and the JSON envelope both of
//! their artifacts share.
//!
//! A [`Timeline`] holds a sampling interval, the next due time, free-form
//! run metadata and the samples recorded so far. A world keeps an
//! `Option<SharedTimeline<T>>` per instrument and, once per traffic step,
//! builds and records a sample only when one is due: detached, the check
//! is a single branch on the `Option` and no sample is ever built.
//!
//! Serialized, a timeline is `{"meta":{…},"interval_us":N,"<items>":[…]}`
//! with one item per line. The envelope codec lives here; each artifact
//! ([`AuditArtifact`](crate::audit::AuditArtifact),
//! [`TopoArtifact`](crate::topo::TopoArtifact)) supplies only its
//! per-item writer and parser.

use crate::telemetry::json;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A timeline item, stamped with the simulation time it was taken at.
pub trait Sample {
    /// When the sample was taken; the next one falls due an interval
    /// later.
    fn at(&self) -> SimTime;
}

/// Collects samples at a fixed sim-time interval, plus free-form run
/// metadata (seed, scenario, attack setup…).
#[derive(Debug)]
pub struct Timeline<T> {
    interval: SimDuration,
    next_due: SimTime,
    meta: BTreeMap<String, String>,
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
        Timeline { interval, next_due: SimTime::ZERO, meta: BTreeMap::new(), samples: Vec::new() }
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
        let value = value.into();
        assert!(
            !key.contains(['"', '\\']) && !value.contains(['"', '\\']),
            "timeline metadata must not contain quotes or backslashes"
        );
        self.meta.insert(key.to_string(), value);
    }

    /// The run metadata, sorted by key.
    #[must_use]
    pub fn meta(&self) -> &BTreeMap<String, String> {
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
}

/// Renders the artifact envelope: sorted metadata, the interval, and the
/// `key` array with one item per line, each written by `write_item`.
pub(crate) fn write_envelope<T>(
    meta: &BTreeMap<String, String>,
    interval: SimDuration,
    key: &str,
    items: &[T],
    write_item: impl Fn(&mut String, &T),
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"meta\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":\"{v}\"");
    }
    let _ = write!(out, "}},\"interval_us\":{},\"{key}\":[", interval.as_micros());
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        write_item(&mut out, item);
    }
    out.push_str("\n]}\n");
    out
}

/// The parts of a parsed envelope: metadata, interval and items.
pub(crate) type Envelope<T> = (BTreeMap<String, String>, SimDuration, Vec<T>);

/// Parses an envelope written by [`write_envelope`] with the same `key`,
/// decoding each item with `parse_item`.
pub(crate) fn read_envelope<T>(
    text: &str,
    key: &str,
    parse_item: impl Fn(&json::Value) -> Result<T, String>,
) -> Result<Envelope<T>, String> {
    let root = json::parse(text)?;
    let mut meta = BTreeMap::new();
    let mut interval = None;
    let mut items = Vec::new();
    for (k, value) in root.as_object("top level")? {
        match k.as_str() {
            "meta" => {
                for (mk, v) in value.as_object("meta")? {
                    match v {
                        json::Value::String(s) => {
                            meta.insert(mk.clone(), s.clone());
                        }
                        other => {
                            return Err(format!("meta {mk:?}: expected string, got {other:?}"))
                        }
                    }
                }
            }
            "interval_us" => {
                interval = Some(SimDuration::from_micros(value.as_u64("interval_us")?));
            }
            k if k == key => {
                for entry in value.as_array(key)? {
                    items.push(parse_item(entry)?);
                }
            }
            other => return Err(format!("unknown top-level key {other:?}")),
        }
    }
    let interval = interval.ok_or("missing interval_us")?;
    Ok((meta, interval, items))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Tick(SimTime);

    impl Sample for Tick {
        fn at(&self) -> SimTime {
            self.0
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
    fn envelope_round_trips() {
        let mut meta = BTreeMap::new();
        meta.insert("seed".to_string(), "42".to_string());
        meta.insert("attacked".to_string(), "true".to_string());
        let ticks = [3u64, 5];
        let text = write_envelope(&meta, SimDuration::from_secs(2), "ticks", &ticks, |out, t| {
            out.push_str(&t.to_string());
        });
        assert_eq!(
            text,
            "{\"meta\":{\"attacked\":\"true\",\"seed\":\"42\"},\"interval_us\":2000000,\
             \"ticks\":[\n3,\n5\n]}\n"
        );
        let (m, interval, items) = read_envelope(&text, "ticks", |v| v.as_u64("tick")).unwrap();
        assert_eq!((m, interval, items), (meta, SimDuration::from_secs(2), ticks.to_vec()));
        let err = read_envelope(&text, "snapshots", |v| v.as_u64("tick")).unwrap_err();
        assert!(err.contains("unknown top-level key \"ticks\""), "got: {err}");
    }
}
