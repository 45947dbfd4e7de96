//! Integration tests of the audit chain: digest timelines recorded from
//! real scenario runs, artifact round-trips, divergence diffing, and the
//! online invariant checker over real traces.

use geonet_geo::{Area, Position};
use geonet_scenarios::{interarea, Family, ScenarioConfig, World};
use geonet_sim::{
    diff_artifacts, shared, shared_auditor, AuditArtifact, InvariantChecker, InvariantParams,
    SharedSink, SimDuration, SimTime, StateHasher, TraceEvent, TraceRecord, TraceSink, VecSink,
};
use geonet_traffic::Direction;
use std::cell::RefCell;
use std::rc::Rc;

/// A short but non-trivial scenario: long enough for beacons, GF
/// forwarding and CBF contention to all fire.
fn short_cfg() -> ScenarioConfig {
    ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(5))
}

fn params(cfg: &ScenarioConfig) -> InvariantParams {
    InvariantParams { to_min: cfg.gn.to_min, to_max: cfg.gn.to_max, loct_ttl: cfg.gn.loct_ttl }
}

fn audited_artifact(cfg: &ScenarioConfig, attacked: bool, seed: u64) -> AuditArtifact {
    let auditor = shared_auditor(SimDuration::from_secs(1));
    interarea::stamp_audit_meta(&auditor, cfg, attacked, seed);
    let mut w = Family::Interception.world(cfg, attacked, seed);
    w.set_auditor(auditor.clone());
    let _ = Family::Interception.drive(cfg, &mut w, |_, _| {});
    let artifact = auditor.borrow().clone();
    assert!(!artifact.samples().is_empty(), "a 5 s run must produce checkpoints");
    artifact
}

/// The determinism acceptance test: two attacked runs with the same seed
/// serialize to byte-identical artifacts, and the diff agrees.
#[test]
fn same_seed_audited_runs_are_byte_identical() {
    let cfg = short_cfg().with_attack_range(486.0);
    let a = audited_artifact(&cfg, true, 42);
    let b = audited_artifact(&cfg, true, 42);
    assert_eq!(a.to_json(), b.to_json(), "same seed must give byte-identical artifacts");
    let report = diff_artifacts(&a, &b);
    assert!(report.identical(), "diff must agree: {report}");
}

/// Different seeds must diverge — the digests actually depend on run
/// state rather than hashing constants.
#[test]
fn different_seeds_diverge() {
    let cfg = short_cfg().with_attack_range(486.0);
    let a = audited_artifact(&cfg, true, 42);
    let b = audited_artifact(&cfg, true, 43);
    assert!(!diff_artifacts(&a, &b).identical(), "different seeds must diverge");
}

/// The forensic acceptance test: a baseline-vs-attacked pair reports a
/// first diverging checkpoint with named components and a join window.
#[test]
fn baseline_vs_attacked_diff_names_checkpoint_and_components() {
    let cfg = short_cfg().with_attack_range(486.0);
    let baseline = audited_artifact(&cfg, false, 42);
    let attacked = audited_artifact(&cfg, true, 42);
    let report = diff_artifacts(&baseline, &attacked);
    assert!(!report.identical());
    assert!(
        report.meta_differences.iter().any(|(k, _, _)| k == "attacked"),
        "the attacked flag must show up as a metadata difference"
    );
    let d = report.first_divergence.clone().expect("an attacked run must diverge from baseline");
    assert!(!d.components.is_empty(), "the diverging components must be named");
    assert!(d.window_start < d.at, "the join window must be non-empty");
    let text = report.to_string();
    assert!(text.contains("DIVERGENCE at checkpoint"), "got: {text}");
}

/// Artifacts survive the serialize → parse round trip with metadata and
/// digests intact.
#[test]
fn artifact_round_trips_through_json() {
    let cfg = short_cfg().with_attack_range(486.0);
    let a = audited_artifact(&cfg, true, 42);
    let parsed = AuditArtifact::from_json(&a.to_json()).expect("own output must parse");
    assert_eq!(parsed.meta().get("scenario").map(String::as_str), Some("interarea"));
    assert!(diff_artifacts(&a, &parsed).identical());
}

/// Every shipped tier-1 scenario — both families, baseline and attacked
/// — satisfies the forwarding invariants.
#[test]
fn invariant_checker_passes_on_shipped_scenarios() {
    for family in Family::BOTH {
        let cfg = family.config(5);
        for attacked in [false, true] {
            let checker = shared(InvariantChecker::new(params(&cfg)));
            let mut w = family.world(&cfg, attacked, 42);
            w.set_trace_sink(checker.clone());
            let _ = family.drive(&cfg, &mut w, |_, _| {});
            let c = checker.borrow();
            assert!(c.ok(), "{} attacked={attacked}: {}", family.name(), c.summary());
            assert!(c.events_checked() > 0);
        }
    }
}

/// The injection acceptance test: replaying a real run's trace passes,
/// but re-injecting one of its CBF fires — a duplicate forward — is
/// caught with the offending event's index cited.
#[test]
fn injected_duplicate_forward_is_caught() {
    let cfg = Family::Blockage.config(5);
    let sink = shared(VecSink::new());
    let mut w = Family::Blockage.world(&cfg, true, 42);
    w.set_trace_sink(sink.clone());
    let _ = Family::Blockage.drive(&cfg, &mut w, |_, _| {});
    let records = sink.borrow().records().to_vec();
    let fired = records
        .iter()
        .find(|r| matches!(r.event, TraceEvent::CbfFired { .. }))
        .expect("the blockage scenario exercises CBF")
        .clone();

    let mut checker = InvariantChecker::new(params(&cfg));
    for r in &records {
        checker.record(r.at, r.node, &r.event);
    }
    assert!(checker.ok(), "the clean trace must pass: {}", checker.summary());

    checker.record(fired.at, fired.node, &fired.event);
    let v = checker.first_violation().expect("the duplicate forward must be flagged");
    assert_eq!(v.rule, "no-reforward");
    assert_eq!(v.event_index, records.len() as u64, "the injected event must be the one cited");
    assert_eq!(v.node, fired.node);
    assert!(v.detail.contains("duplicate forward"), "got: {}", v.detail);
}

/// Runs one attacked 20 s world of a family, with `sink` attached if
/// given, and returns its event count and final combined audit digest.
fn golden_run(family: Family, sink: Option<SharedSink>) -> (u64, u64) {
    let cfg = family.config(20);
    let mut w = family.world(&cfg, true, 7);
    if let Some(sink) = sink {
        w.set_trace_sink(sink);
    }
    let _ = family.drive(&cfg, &mut w, |_, _| {});
    (w.events_processed(), w.audit_checkpoint().combined)
}

/// Golden history pins. Any change to kernel event ordering, the event
/// queue's digest or the simulated behaviour changes these numbers, so
/// this test fails on it and not only the benchmark's reference
/// fingerprints. A world with a trace sink attached must make the same
/// history as one without.
///
/// After an intended history change, regenerate them by running
/// `cargo test -p geonet-scenarios --test audit golden` and copying the
/// `got` array from the failure message.
#[test]
fn golden_histories_are_pinned() {
    for traced in [false, true] {
        let got = Family::BOTH.map(|family| {
            let sink: Option<SharedSink> = traced.then(|| shared(TraceDigest::default()) as _);
            golden_run(family, sink)
        });
        assert_eq!(
            got,
            [(34730, 16215225509723573459), (33589, 3030571092036486867)],
            "golden (interarea, intraarea) histories changed (traced: {traced}): got {got:?}"
        );
    }
}

/// Counts the JSONL lines of a trace and digests their bytes, without
/// holding them.
#[derive(Default)]
struct TraceDigest {
    lines: u64,
    hasher: StateHasher,
}

impl TraceSink for TraceDigest {
    fn record(&mut self, at: SimTime, node: u32, event: &TraceEvent) {
        self.lines += 1;
        self.hasher.write_str(&TraceRecord { at, node, event: event.clone() }.to_json());
    }
}

/// Pins the trace of each golden run: its record count and a digest of
/// its JSONL lines in emission order, the bytes `repro --trace` writes.
/// Regenerate like the golden pins above.
#[test]
fn golden_traces_are_pinned() {
    let got = Family::BOTH.map(|family| {
        let sink: Rc<RefCell<TraceDigest>> = shared(TraceDigest::default());
        golden_run(family, Some(sink.clone()));
        let sink = sink.borrow();
        (sink.lines, sink.hasher.finish())
    });
    assert_eq!(
        got,
        [(67010, 2951596361460869724), (62706, 7081569117597829798)],
        "golden (interarea, intraarea) traces changed: got {got:?}"
    );
}

/// Runs an attacked world for 3 s, originates a road-wide GeoBroadcast and
/// returns the event count and combined audit digest right after the
/// originate call and again 1 µs later. Both samples fall while the
/// broadcast's deliveries are still queued, which the traffic-step
/// checkpoints of the golden runs almost never see.
fn mid_flight(cfg: &ScenarioConfig, seed: u64) -> [(u64, u64); 2] {
    let mut w = Family::Interception.world(cfg, true, seed);
    w.run_until(SimTime::from_secs(3));
    let src = w.random_on_road_vehicle().expect("vehicles on the road");
    let half = cfg.road.length / 2.0;
    let road = Area::rectangle(Position::new(half, 0.0), half + 50.0, 25.0, 90.0);
    let _ = w.originate_from(w.vehicle_node(src), &road, vec![0x5A]);
    let sent = (w.events_processed(), w.audit_checkpoint().combined);
    w.run_until(w.now() + SimDuration::from_micros(1));
    [sent, (w.events_processed(), w.audit_checkpoint().combined)]
}

/// Pins the queue digest while frames are in flight, on the paper road
/// and on a 4 km two-way road at 30 m spacing. Regenerate like the golden
/// pins above.
#[test]
fn mid_flight_checkpoints_are_pinned() {
    let paper = ScenarioConfig::paper_dsrc_default()
        .with_attack_range(486.0)
        .with_duration(SimDuration::from_secs(10));
    let two_way = paper.with_two_way(true).with_spacing(30.0);
    let got = [mid_flight(&paper, 3), mid_flight(&two_way, 3)];
    assert_eq!(
        got,
        [
            [(5306, 18250015358150869388), (5324, 3058507403138352829)],
            [(20838, 4660602643668805181), (20876, 15265055670987371687)],
        ],
        "mid-flight pins changed: got {got:?}"
    );
}

/// Runs an attacker-free 400 s paper-road world: a hazard blocks the
/// eastbound lanes at 3 600 m from t = 100 s and the east entry gate
/// closes at t = 150 s. Vehicles leave past the off-road margin from
/// t ≈ 20 s on and new ones enter behind them until the gate closes, so
/// the traffic step's exit and spawn-after-exit paths both run many
/// times. Returns the event count, the combined audit digest and the
/// `traffic` component.
fn long_run() -> (u64, u64, u64) {
    let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(400));
    let mut w = World::new(cfg, None, 5);
    w.run_until(SimTime::from_secs(100));
    w.add_hazard(Direction::East, 3_600.0);
    w.run_until(SimTime::from_secs(150));
    w.set_entry_open(Direction::East, false);
    w.run_to_end();
    let checkpoint = w.audit_checkpoint();
    let traffic = checkpoint.component("traffic").expect("traffic digest");
    (w.events_processed(), checkpoint.combined, traffic)
}

/// Pins a long run, where the golden runs above (20 s) end before any
/// vehicle spawned during the run reaches the exit. Regenerate like the
/// golden pins above.
#[test]
fn long_run_with_exits_is_pinned() {
    let got = long_run();
    assert_eq!(
        got,
        (1898993, 17839842752294791349, 1604200878598800971),
        "long-run pins changed: got {got:?}"
    );
}
