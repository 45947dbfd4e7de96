//! Integration tests of the topology chain: connectivity snapshots and
//! road-binned heatmaps recorded from real scenario runs, artifact
//! round-trips, same-seed determinism, and the blast-radius report's
//! acceptance claims for both paper attacks.

use geonet_scenarios::topology::{correlate_interception, run, DEFAULT_SNAPSHOT_INTERVAL};
use geonet_scenarios::{
    BlastRadiusReport, Family, HeatmapDiff, RoadHeatmap, ScenarioConfig, TopologyRun,
};
use geonet_sim::{SimDuration, TopoArtifact};

/// Long enough for forwarding chains, interception and CBF suppression
/// to all leave a spatial footprint.
fn cfg(attack_range: f64) -> ScenarioConfig {
    ScenarioConfig::paper_dsrc_default()
        .with_attack_range(attack_range)
        .with_duration(SimDuration::from_secs(40))
}

/// Serializes both artifact kinds and parses them back, asserting the
/// round trip is byte-identical — what `repro --topology-diff` relies
/// on when it rebuilds a report from files alone.
fn round_trip(run: &TopologyRun) -> (TopoArtifact, RoadHeatmap) {
    let topo_text = run.topo.to_json();
    let topo = TopoArtifact::from_json(&topo_text).expect("topo artifact parses");
    assert_eq!(topo.to_json(), topo_text, "topo round trip must be byte-identical");
    let heat_text = run.heatmap.to_json();
    let heat = RoadHeatmap::from_json(&heat_text).expect("heatmap artifact parses");
    assert_eq!(heat.to_json(), heat_text, "heatmap round trip must be byte-identical");
    (topo, heat)
}

/// The interception acceptance claim (mN attacker, DSRC): the attacker
/// acts as the greedy gradient's local maximum, and at least 90% of the
/// intercepted packets made their last forwarding hop inside its
/// coverage set. Built exactly the way `repro --topology-diff` does:
/// from parsed artifacts, with the interception counters read back out
/// of the attacked heatmap's metadata.
#[test]
fn interception_blast_radius_pins_the_attacker() {
    let cfg = cfg(486.0);
    let af = run(Family::Interception, &cfg, false, 42, DEFAULT_SNAPSHOT_INTERVAL);
    let mut atk = run(Family::Interception, &cfg, true, 42, DEFAULT_SNAPSHOT_INTERVAL);
    let (intercepted, _) = correlate_interception(&af, &mut atk);
    assert!(intercepted > 0, "the mN attacker must intercept something in 40 s");

    let (af_topo, af_heat) = round_trip(&af);
    let (atk_topo, atk_heat) = round_trip(&atk);
    let meta_count = |key: &str| -> u64 {
        atk_heat.meta().get(key).expect(key).parse().expect("counter metadata")
    };
    let diff = HeatmapDiff::build(&af_heat, &atk_heat).expect("same geometry");
    let report = BlastRadiusReport::build(
        &af_topo,
        &atk_topo,
        &diff,
        meta_count("intercepted_total"),
        meta_count("last_hop_in_coverage"),
    );
    assert_eq!(report.intercepted, intercepted);
    assert!(
        report.attacker_is_gradient_local_max(),
        "the interception attacker must show up as the greedy local maximum: {report}"
    );
    assert!(
        report.last_hop_coverage_fraction() >= 0.9,
        "expected >= 90% of intercepted last hops inside attacker coverage: {report}"
    );
}

/// The blockage acceptance claim (500 m attacker, DSRC): the attack's
/// footprint shows up as a suppressed-CBF hot bin at the victim region
/// around the attacker's x = 2000 m position.
#[test]
fn blockage_diff_localizes_the_suppression_hot_bin() {
    let cfg = cfg(500.0);
    let af = run(Family::Blockage, &cfg, false, 42, DEFAULT_SNAPSHOT_INTERVAL);
    let atk = run(Family::Blockage, &cfg, true, 42, DEFAULT_SNAPSHOT_INTERVAL);
    let (_, af_heat) = round_trip(&af);
    let (_, atk_heat) = round_trip(&atk);
    let diff = HeatmapDiff::build(&af_heat, &atk_heat).expect("same geometry");
    let hot = diff
        .hottest_suppression_bin()
        .expect("the blockage attacker must suppress CBF timers somewhere");
    let center = (hot.x_lo + hot.x_hi) / 2.0;
    assert!(
        (center - cfg.attacker_position.x).abs() <= cfg.attack_range,
        "hottest suppression bin at {center} m, attacker at {} m (range {} m)",
        cfg.attacker_position.x,
        cfg.attack_range
    );
    assert!(hot.atk.cbf_by_attacker > af_heat.totals().cbf_by_attacker);
}

/// The determinism acceptance test: two attacked same-seed runs
/// serialize to byte-identical topology and heatmap artifacts (what the
/// CI smoke enforces end-to-end through the `repro` binary).
#[test]
fn same_seed_topology_runs_are_byte_identical() {
    let cfg = cfg(486.0);
    let a = run(Family::Interception, &cfg, true, 42, DEFAULT_SNAPSHOT_INTERVAL);
    let b = run(Family::Interception, &cfg, true, 42, DEFAULT_SNAPSHOT_INTERVAL);
    assert_eq!(a.topo.to_json(), b.topo.to_json(), "same seed, same snapshots");
    assert_eq!(a.heatmap.to_json(), b.heatmap.to_json(), "same seed, same heatmap");
    let a_dot: String = a.topo.samples().iter().map(|s| s.to_dot()).collect();
    let b_dot: String = b.topo.samples().iter().map(|s| s.to_dot()).collect();
    assert_eq!(a_dot, b_dot, "same seed, same DOT rendering");
}
