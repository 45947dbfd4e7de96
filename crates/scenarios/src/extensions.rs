//! Extension experiments beyond the paper's evaluation.
//!
//! The paper's discussion sections sketch three variations it does not
//! evaluate; this module measures them:
//!
//! * [`ack_defense`] — the mitigation the paper *rejects* (§V-A): MAC
//!   acknowledgements with retry for greedy unicasts. Measured against
//!   the inter-area attacker, with and without channel loss, so the
//!   paper's "reduces communication efficiency when ACKs are lost"
//!   argument gets numbers.
//! * [`lossy_channel`] — both attacks on a lossy channel: CBF's
//!   redundancy makes the blockage attack *less* reliable under loss
//!   (the attacker's single replay can be lost; the legitimate flood has
//!   many chances).
//! * [`moving_attacker`] — the paper's threat model covers mobile
//!   attackers "conceptually"; this sweeps the attacker's speed.

use crate::campaign::Family;
use crate::config::{Scale, ScenarioConfig};
use crate::mitigation::MitigationResult;
use crate::report::AbResult;
use geonet::config::LinkAckConfig;

/// The rejected mitigation: link-layer acknowledgements with retry.
///
/// Returns one comparison per channel-loss rate: attacked inter-area
/// reception without ACKs ("unmitigated") vs with ACKs ("mitigated"),
/// against the median-NLoS attacker.
#[must_use]
pub fn ack_defense(scale: Scale, seed: u64) -> Vec<MitigationResult> {
    let family = Family::Interception;
    ack_settings(scale)
        .map(|(label, plain, acked)| {
            MitigationResult::measure(family, &label, &plain, &acked, true, scale, seed)
        })
        .collect()
}

/// The settings of both ACK experiments, against the mN attacker: per
/// channel-loss rate, its label and the scenario without and with link
/// acknowledgements.
fn ack_settings(scale: Scale) -> impl Iterator<Item = (String, ScenarioConfig, ScenarioConfig)> {
    let base = Family::Interception.config(scale.duration_s);
    let acked = ScenarioConfig { gn: base.gn.with_link_ack(LinkAckConfig::default()), ..base };
    [0.0, 0.1, 0.3].into_iter().map(move |loss| {
        let label = format!("loss={:.0}%", loss * 100.0);
        (label, base.with_frame_loss(loss), acked.with_frame_loss(loss))
    })
}

/// Both attacks under per-frame channel loss.
///
/// Returns `(inter-area results, intra-area results)`, one [`AbResult`]
/// per loss rate.
#[must_use]
pub fn lossy_channel(scale: Scale, seed: u64) -> (Vec<AbResult>, Vec<AbResult>) {
    let [inter, intra] = Family::BOTH.map(|family| {
        // The families' single-run attackers: mN interception, 500 m
        // blockage.
        let base = family.config(scale.duration_s);
        [0.0, 0.05, 0.2]
            .into_iter()
            .map(|loss| {
                let label = format!("loss={:.0}%", loss * 100.0);
                family.run_ab(&base.with_frame_loss(loss), &label, scale, seed)
            })
            .collect()
    });
    (inter, intra)
}

/// The channel-load cost of the ACK defense: frames on the air per run,
/// without and with acknowledgements, against the mN attacker.
///
/// Returns `(label, frames_without_ack, frames_with_ack)` per loss rate —
/// the quantitative form of the paper's "reduces communication
/// efficiency" objection.
#[must_use]
pub fn ack_overhead(scale: Scale, seed: u64) -> Vec<(String, u64, u64)> {
    let family = Family::Interception;
    let frames = |cfg: &ScenarioConfig, seed: u64| {
        let mut w = family.world(cfg, true, seed);
        let _ = family.drive(cfg, &mut w, |_, _| {});
        w.frames_on_air()
    };
    ack_settings(scale)
        .map(|(label, plain, acked)| {
            let loads = family.seeded_runs(&format!("{label} frames"), 2, scale, seed, |s| {
                (frames(&plain, s), frames(&acked, s))
            });
            (label, loads.iter().map(|l| l.0).sum(), loads.iter().map(|l| l.1).sum())
        })
        .collect()
}

/// A mobile inter-area attacker driving along the road.
///
/// The victim-classification geometry follows the attacker's *starting*
/// position; a fast-moving attacker drifts away from the vulnerable
/// population it was sized for, so γ degrades with speed — quantifying
/// the "handling mobility and attack responsiveness is required" caveat
/// in the paper's threat model.
#[must_use]
pub fn moving_attacker(scale: Scale, seed: u64) -> Vec<AbResult> {
    let base = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
    [0.0, 15.0, 30.0]
        .into_iter()
        .map(|v| {
            Family::Interception.run_ab(
                &base.with_attacker_velocity(v),
                &format!("v={v:.0} m/s"),
                scale,
                seed,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: Scale = Scale { runs: 1, duration_s: 40 };

    #[test]
    fn ack_defense_recovers_reception_on_clean_channel() {
        let results = ack_defense(SCALE, 31);
        let clean = &results[0];
        assert_eq!(clean.label, "loss=0%");
        // ACK+retry routes around the poisoned next hops.
        assert!(clean.improvement().unwrap() > 0.3, "ACK defense ineffective: {clean}");
    }

    #[test]
    fn ack_defense_costs_transmissions() {
        let over = ack_overhead(Scale { runs: 1, duration_s: 30 }, 41);
        for (label, plain, acked) in &over {
            assert!(
                acked >= plain,
                "{label}: ACK retries should add channel load ({acked} vs {plain})"
            );
        }
    }

    #[test]
    fn lossy_channel_weakens_the_blockage_attack() {
        let (_, intra) = lossy_channel(SCALE, 32);
        let clean_lambda = intra[0].gamma().unwrap();
        let lossy_lambda = intra[2].gamma().unwrap();
        // With 20 % loss the attacker's one replay is itself unreliable
        // while CBF's redundancy keeps the legitimate flood alive.
        assert!(
            lossy_lambda <= clean_lambda + 0.05,
            "loss should not strengthen blockage: clean {clean_lambda:.2} lossy {lossy_lambda:.2}"
        );
        // And the attacker-free flood survives the loss.
        assert!(intra[2].baseline_rate().unwrap() > 0.9);
    }

    #[test]
    fn moving_attacker_still_intercepts() {
        let results = moving_attacker(SCALE, 33);
        for r in &results {
            let gamma = r.gamma().expect("bins populated");
            assert!(gamma > 0.2, "{}: γ = {gamma:.2}", r.label);
        }
    }
}
