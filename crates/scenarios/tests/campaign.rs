//! Pins of the campaign layer: the merged A/B results of both attack
//! families, their single-side merged runs and the Fig 9 source split,
//! bit for bit. Any change to seeding, the per-second drivers or the
//! fold shows up here before it reaches a report.

use geonet_scenarios::config::Scale;
use geonet_scenarios::{intraarea, Family, ScenarioConfig};
use geonet_sim::TimeBins;

const SCALE: Scale = Scale { runs: 2, duration_s: 20 };
const SEED: u64 = 42;

/// The bit patterns of every per-bin reception rate.
fn bits(bins: &TimeBins) -> Vec<Option<u64>> {
    bins.rates().iter().map(|r| r.map(f64::to_bits)).collect()
}

/// A rate pattern of four bins that all hold the same value.
fn flat(rate: u64) -> Vec<Option<u64>> {
    vec![Some(rate); 4]
}

/// The worst-NLoS interception attacker and the tuned 500 m blockage
/// attacker: both leave every bin strictly between 0 and 1.
fn cfg(family: Family) -> ScenarioConfig {
    match family {
        Family::Interception => ScenarioConfig::paper_dsrc_default(),
        Family::Blockage => ScenarioConfig::paper_dsrc_default().with_attack_range(500.0),
    }
}

#[test]
fn campaign_results_are_pinned() {
    const ONE: u64 = 0x3ff0_0000_0000_0000;
    let inter_attacked = vec![
        Some(0x3fe4_0000_0000_0000),
        Some(0x3fe0_0000_0000_0000),
        Some(0x3fd9_9999_9999_999a),
        Some(0x3fd9_9999_9999_999a),
    ];
    let intra_attacked = vec![
        Some(0x3fe4_0000_0000_0000),
        Some(0x3fe4_10f0_376f_410f),
        Some(0x3fe2_d2d2_d2d2_d2d3),
        Some(0x3fe3_fe75_cc6a_3fe7),
    ];

    let inter = Family::Interception.run_ab(&cfg(Family::Interception), "pin", SCALE, SEED);
    assert_eq!(
        bits(&inter.baseline),
        [
            Some(ONE),
            Some(0x3fe6_6666_6666_6666),
            Some(0x3fe9_9999_9999_999a),
            Some(0x3fe6_6666_6666_6666)
        ]
    );
    assert_eq!(bits(&inter.attacked), inter_attacked);
    let intra = Family::Blockage.run_ab(&cfg(Family::Blockage), "pin", SCALE, SEED);
    assert_eq!(bits(&intra.baseline), flat(ONE));
    assert_eq!(bits(&intra.attacked), intra_attacked);

    // One side of a setting merges exactly as that side of its A/B pair.
    let merged = |family: Family| bits(&family.merged_runs(&cfg(family), "pin", true, SCALE, SEED));
    assert_eq!(merged(Family::Interception), inter_attacked);
    assert_eq!(merged(Family::Blockage), intra_attacked);

    // At this scale no flood starts inside the 28 m fully covered zone,
    // so every packet lands on the "elsewhere" side.
    let (inside, outside) = intraarea::fig9_source_split(SCALE, SEED);
    assert_eq!(bits(&inside.baseline), vec![None; 4]);
    assert_eq!(bits(&inside.attacked), vec![None; 4]);
    assert_eq!(bits(&outside.baseline), flat(ONE));
    assert_eq!(bits(&outside.attacked), intra_attacked);
}
