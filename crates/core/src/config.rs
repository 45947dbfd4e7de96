//! Protocol configuration.

use crate::cbf::CbfParams;
use geonet_sim::SimDuration;

/// Link-layer acknowledgement configuration for greedy unicast forwarding.
///
/// The paper dismisses acknowledgements as a mitigation ("does not prevent
/// victim vehicles from making wrong forwarding decisions; reduces
/// communication efficiency when ACKs are lost") — this extension
/// implements them anyway so the trade-off can be measured: a forwarder
/// whose unicast goes unacknowledged retries towards its next-best
/// neighbour, up to `max_retries` times, before falling back to a
/// broadcast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAckConfig {
    /// How long to wait for the MAC acknowledgement before declaring the
    /// next hop unreachable.
    pub timeout: SimDuration,
    /// How many alternative next hops to try before broadcasting.
    pub max_retries: u8,
}

impl Default for LinkAckConfig {
    fn default() -> Self {
        // 802.11p-scale retry budget: a few ms per attempt.
        LinkAckConfig { timeout: SimDuration::from_millis(5), max_retries: 3 }
    }
}

/// What a greedy forwarder does when no live neighbour makes progress
/// towards the destination (EN 302 636-4-1 leaves the choice between
/// buffering in the forwarding buffer and falling back to a
/// topologically-scoped broadcast; the paper phrases it as "either
/// rechecks its LocT later or broadcasts").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoProgressPolicy {
    /// Broadcast the packet; any receiver closer to the destination
    /// continues forwarding (the default used for the paper experiments).
    Broadcast,
    /// Buffer the packet and re-run greedy forwarding after `delay`,
    /// up to `max_attempts` times ("recheck the LocT later"); dropped
    /// when the attempts are exhausted.
    BufferRetry {
        /// Time between retries.
        delay: SimDuration,
        /// Retry budget.
        max_attempts: u8,
    },
    /// Drop the packet immediately.
    Drop,
}

/// The two standard-compatible mitigations proposed by the paper (§V).
///
/// Both default to **off**, which is the standard's (vulnerable)
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MitigationConfig {
    /// GF plausibility check (§V-A): before forwarding, only consider
    /// neighbours whose advertised position is within this many metres.
    /// The paper sets it to the median DSRC NLoS range (486 m).
    pub gf_plausibility_threshold: Option<f64>,
    /// CBF RHL-drop check (§V-B): refuse "duplicates" whose RHL dropped by
    /// more than this many hops since the buffered copy. The paper uses 3.
    pub cbf_rhl_drop_threshold: Option<u8>,
}

impl MitigationConfig {
    /// Both mitigations at the paper's parameters (486 m threshold, RHL
    /// drop 3).
    #[must_use]
    pub fn paper_both() -> Self {
        MitigationConfig { gf_plausibility_threshold: Some(486.0), cbf_rhl_drop_threshold: Some(3) }
    }

    /// Only the GF plausibility check, with the given threshold.
    #[must_use]
    pub fn plausibility(threshold: f64) -> Self {
        MitigationConfig {
            gf_plausibility_threshold: Some(threshold),
            cbf_rhl_drop_threshold: None,
        }
    }

    /// Only the CBF RHL-drop check, with the given threshold.
    #[must_use]
    pub fn rhl_check(threshold: u8) -> Self {
        MitigationConfig {
            gf_plausibility_threshold: None,
            cbf_rhl_drop_threshold: Some(threshold),
        }
    }
}

/// Per-node GeoNetworking protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GnConfig {
    /// Beacon period (standard: 3 s).
    pub beacon_interval: SimDuration,
    /// Maximum random jitter added to each beacon period (standard:
    /// 750 ms).
    pub beacon_jitter: SimDuration,
    /// Location-table entry lifetime (standard default: 20 s; the paper
    /// sweeps 5/10/20 s).
    pub loct_ttl: SimDuration,
    /// CBF minimum buffering time (standard: 1 ms).
    pub to_min: SimDuration,
    /// CBF maximum buffering time (standard: 100 ms).
    pub to_max: SimDuration,
    /// `DIST_MAX` for the CBF timeout: the access technology's theoretical
    /// maximum communication range, metres.
    pub dist_max: f64,
    /// Hop limit assigned to originated GeoBroadcast packets (the paper
    /// uses a "large" value, e.g. 10).
    pub default_hop_limit: u8,
    /// Maximum acceptable age of a received position vector; older
    /// messages fail the standard's freshness check. Replay within the
    /// attack's ~1 ms processing delay passes easily.
    pub max_pv_age: SimDuration,
    /// Mitigation switches (both off by default).
    pub mitigations: MitigationConfig,
    /// Link-layer acknowledgement + retry for greedy unicasts (extension;
    /// `None` = the standard's fire-and-forget behaviour the paper
    /// analyses).
    pub link_ack: Option<LinkAckConfig>,
    /// Behaviour when greedy forwarding finds no neighbour making
    /// progress.
    pub no_progress: NoProgressPolicy,
}

impl GnConfig {
    /// The paper's configuration for an access technology with the given
    /// `DIST_MAX` (use `geonet_radio::RangeProfile::dist_max`).
    ///
    /// # Panics
    ///
    /// Panics if `dist_max` is not finite and positive.
    #[must_use]
    pub fn paper_default(dist_max: f64) -> Self {
        assert!(dist_max.is_finite() && dist_max > 0.0, "invalid DIST_MAX: {dist_max}");
        GnConfig {
            beacon_interval: SimDuration::from_secs(3),
            beacon_jitter: SimDuration::from_millis(750),
            loct_ttl: SimDuration::from_secs(20),
            to_min: SimDuration::from_millis(1),
            to_max: SimDuration::from_millis(100),
            dist_max,
            default_hop_limit: 10,
            max_pv_age: SimDuration::from_secs(1),
            mitigations: MitigationConfig::default(),
            link_ack: None,
            no_progress: NoProgressPolicy::Broadcast,
        }
    }

    /// Returns this configuration with a different no-progress policy.
    #[must_use]
    pub fn with_no_progress(self, no_progress: NoProgressPolicy) -> Self {
        GnConfig { no_progress, ..self }
    }

    /// Returns this configuration with link-layer acknowledgements
    /// enabled for greedy unicasts (extension, see [`LinkAckConfig`]).
    #[must_use]
    pub fn with_link_ack(self, ack: LinkAckConfig) -> Self {
        GnConfig { link_ack: Some(ack), ..self }
    }

    /// Returns this configuration with a different LocT TTL (Figure 7c /
    /// 9c sweeps).
    #[must_use]
    pub fn with_loct_ttl(self, ttl: SimDuration) -> Self {
        GnConfig { loct_ttl: ttl, ..self }
    }

    /// Returns this configuration with the given mitigations.
    #[must_use]
    pub fn with_mitigations(self, mitigations: MitigationConfig) -> Self {
        GnConfig { mitigations, ..self }
    }

    /// The CBF parameters implied by this configuration.
    #[must_use]
    pub fn cbf_params(&self) -> CbfParams {
        CbfParams {
            to_min: self.to_min,
            to_max: self.to_max,
            dist_max: self.dist_max,
            rhl_drop_threshold: self.mitigations.cbf_rhl_drop_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_progress_defaults_to_broadcast() {
        let c = GnConfig::paper_default(1_283.0);
        assert_eq!(c.no_progress, NoProgressPolicy::Broadcast);
        let c = c.with_no_progress(NoProgressPolicy::BufferRetry {
            delay: SimDuration::from_millis(500),
            max_attempts: 4,
        });
        assert!(matches!(c.no_progress, NoProgressPolicy::BufferRetry { max_attempts: 4, .. }));
    }

    #[test]
    fn link_ack_off_by_default_and_composable() {
        let c = GnConfig::paper_default(1_283.0);
        assert!(c.link_ack.is_none());
        let c = c.with_link_ack(LinkAckConfig::default());
        let ack = c.link_ack.unwrap();
        assert_eq!(ack.timeout, SimDuration::from_millis(5));
        assert_eq!(ack.max_retries, 3);
    }

    #[test]
    fn paper_default_matches_standard() {
        let c = GnConfig::paper_default(1_283.0);
        assert_eq!(c.beacon_interval, SimDuration::from_secs(3));
        assert_eq!(c.beacon_jitter, SimDuration::from_millis(750));
        assert_eq!(c.loct_ttl, SimDuration::from_secs(20));
        assert_eq!(c.to_min, SimDuration::from_millis(1));
        assert_eq!(c.to_max, SimDuration::from_millis(100));
        assert_eq!(c.default_hop_limit, 10);
        assert_eq!(c.mitigations, MitigationConfig::default());
    }

    #[test]
    fn mitigations_off_by_default() {
        let m = MitigationConfig::default();
        assert!(m.gf_plausibility_threshold.is_none());
        assert!(m.cbf_rhl_drop_threshold.is_none());
    }

    #[test]
    fn paper_both_mitigation_values() {
        let m = MitigationConfig::paper_both();
        assert_eq!(m.gf_plausibility_threshold, Some(486.0));
        assert_eq!(m.cbf_rhl_drop_threshold, Some(3));
    }

    #[test]
    fn builders_compose() {
        let c = GnConfig::paper_default(1_283.0)
            .with_loct_ttl(SimDuration::from_secs(5))
            .with_mitigations(MitigationConfig::plausibility(486.0));
        assert_eq!(c.loct_ttl, SimDuration::from_secs(5));
        assert_eq!(c.mitigations.gf_plausibility_threshold, Some(486.0));
        assert!(c.mitigations.cbf_rhl_drop_threshold.is_none());
        let c2 = c.with_mitigations(MitigationConfig::rhl_check(3));
        assert_eq!(c2.mitigations.cbf_rhl_drop_threshold, Some(3));
    }

    #[test]
    fn cbf_params_inherit_mitigation() {
        let c = GnConfig::paper_default(1_283.0).with_mitigations(MitigationConfig::rhl_check(3));
        let p = c.cbf_params();
        assert_eq!(p.rhl_drop_threshold, Some(3));
        assert_eq!(p.dist_max, 1_283.0);
    }

    #[test]
    #[should_panic(expected = "invalid DIST_MAX")]
    fn rejects_bad_dist_max() {
        let _ = GnConfig::paper_default(0.0);
    }
}
