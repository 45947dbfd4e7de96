//! The campaign layer shared by both attack families.
//!
//! The paper scores both attacks with one method (§IV): same-seed
//! attacker-free and attacked runs, reception collected in 5 s bins,
//! and γ or λ as the mean per-bin drop. [`Family`] is the one place that
//! knows what differs between the two workloads — the attacker
//! [`Family::world`] mounts, the packets [`Family::drive`] sends each
//! second and the seed stride — and everything above it is written
//! once: the seeded runner [`Family::seeded_runs`], [`Family::run_ab`],
//! [`Family::merged_runs`] and the fold [`outcomes_to_bins`].

use crate::config::{AttackerSetup, Scale, ScenarioConfig};
use crate::report::{paper_bins, AbResult};
use crate::world::World;
use crate::{interarea, intraarea, parallel, progress};
use geonet::PacketKey;
use geonet_attack::BlockageMode;
use geonet_geo::Position;
use geonet_radio::NodeId;
use geonet_sim::{SimDuration, SimTime, TimeBins};

/// The paper's two attack families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Inter-area interception of greedy-forwarded packets
    /// ([`crate::interarea`]).
    Interception,
    /// Intra-area blockage of CBF floods ([`crate::intraarea`]).
    Blockage,
}

impl Family {
    /// Both families, interception first.
    pub const BOTH: [Family; 2] = [Family::Interception, Family::Blockage];

    /// The workload's name in file names, artifact metadata and report
    /// lines.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Interception => "interarea",
            Family::Blockage => "intraarea",
        }
    }

    /// The single-run scenario: the median-NLoS attacker (486 m) for
    /// interception, the paper's most effective 500 m attacker for
    /// blockage.
    #[must_use]
    pub fn config(self, duration_s: u64) -> ScenarioConfig {
        let range = match self {
            Family::Interception => 486.0,
            Family::Blockage => 500.0,
        };
        ScenarioConfig::paper_dsrc_default()
            .with_attack_range(range)
            .with_duration(SimDuration::from_secs(duration_s))
    }

    /// Builds the world for one run: the family's attacker (beacon
    /// replay, or RHL-clamping GeoBroadcast replay) mounted when
    /// `attacked`, absent otherwise.
    #[must_use]
    pub fn world(self, cfg: &ScenarioConfig, attacked: bool, seed: u64) -> World {
        let setup = match self {
            Family::Interception => AttackerSetup::InterArea,
            Family::Blockage => AttackerSetup::IntraArea(BlockageMode::ClampRhl),
        };
        World::new(*cfg, attacked.then_some(setup), seed)
    }

    /// Drives the workload on `w`, with whatever instruments the caller
    /// attached: once per simulated second calls `each_second` with the
    /// packets sent so far and sends the family's packet of that second,
    /// then runs to the horizon. Returns every packet sent, in generation
    /// order.
    pub fn drive(
        self,
        cfg: &ScenarioConfig,
        w: &mut World,
        mut each_second: impl FnMut(&World, &[Sent]),
    ) -> Vec<Sent> {
        let started = progress::run_started();
        let mut send = match self {
            Family::Interception => interarea::sender(cfg, w),
            Family::Blockage => intraarea::sender(cfg),
        };
        let mut sent = Vec::new();
        for t in 1..cfg.duration.as_secs() {
            w.run_until(SimTime::from_secs(t));
            each_second(w, &sent);
            sent.extend(send(w));
        }
        w.run_to_end();
        progress::run_completed(started, w.events_processed(), cfg.duration);
        sent
    }

    /// Runs one seeded simulation, returning the outcome of every
    /// generated packet.
    #[must_use]
    pub fn run_one(self, cfg: &ScenarioConfig, attacked: bool, seed: u64) -> Vec<PacketOutcome> {
        let mut w = self.world(cfg, attacked, seed);
        let sent = self.drive(cfg, &mut w, |_, _| {});
        sent.iter().map(|s| s.outcome(&w)).collect()
    }

    /// The one seeded runner every campaign goes through. Announces the
    /// setting `label` to [`progress`] with `scale.runs * runs_per_seed`
    /// planned runs, then calls `f` with each of the setting's
    /// `scale.runs` derived seeds on the [`parallel`] job pool and
    /// returns the results in seed-index order — byte-identical to the
    /// sequential loop at any pool width.
    pub fn seeded_runs<T: Send>(
        self,
        label: &str,
        runs_per_seed: u32,
        scale: Scale,
        seed: u64,
        f: impl Fn(u64) -> T + Sync,
    ) -> Vec<T> {
        let stride = match self {
            Family::Interception => 0x9E37,
            Family::Blockage => 0x517C,
        };
        progress::begin_setting(label, scale.runs * runs_per_seed);
        parallel::run_indexed(scale.runs, |i| f(seed.wrapping_add(u64::from(i) * stride)))
    }

    /// The same-seed attacker-free and attacked runs of one setting at
    /// the given scale: every packet outcome of each side, in seed-index
    /// then generation order.
    #[must_use]
    pub fn ab_outcomes(
        self,
        cfg: &ScenarioConfig,
        label: &str,
        scale: Scale,
        seed: u64,
    ) -> (Vec<PacketOutcome>, Vec<PacketOutcome>) {
        let cfg = cfg.with_duration(scale.duration());
        let pairs = self.seeded_runs(label, 2, scale, seed, |s| {
            (self.run_one(&cfg, false, s), self.run_one(&cfg, true, s))
        });
        let (baseline, attacked): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        (baseline.concat(), attacked.concat())
    }

    /// Runs the A/B pair for one setting at the given scale, folding
    /// every seeded run into one set of bins per side.
    #[must_use]
    pub fn run_ab(self, cfg: &ScenarioConfig, label: &str, scale: Scale, seed: u64) -> AbResult {
        let (baseline, attacked) = self.ab_outcomes(cfg, label, scale, seed);
        AbResult {
            label: label.to_string(),
            baseline: outcomes_to_bins(&baseline, scale.duration()),
            attacked: outcomes_to_bins(&attacked, scale.duration()),
        }
    }

    /// Folds the seeded runs of one side of a setting into one set of
    /// bins — a column of a mitigation or extension comparison.
    #[must_use]
    pub fn merged_runs(
        self,
        cfg: &ScenarioConfig,
        label: &str,
        attacked: bool,
        scale: Scale,
        seed: u64,
    ) -> TimeBins {
        let cfg = cfg.with_duration(scale.duration());
        let runs = self.seeded_runs(label, 1, scale, seed, |s| self.run_one(&cfg, attacked, s));
        outcomes_to_bins(&runs.concat(), cfg.duration)
    }
}

/// A workload's packet source: called once per simulated second, it
/// sends that second's packet, if a vehicle could send one.
pub(crate) type Sender<'a> = Box<dyn FnMut(&mut World) -> Option<Sent> + 'a>;

/// One packet a workload generated.
#[derive(Debug, Clone, PartialEq)]
pub struct Sent {
    /// The packet.
    pub key: PacketKey,
    /// Generation time.
    pub at: SimTime,
    /// The source's position at generation time.
    pub origin: Position,
    /// The nodes the packet was meant to reach: an interception
    /// packet's one static destination, or the vehicles on the road at
    /// a flood's generation time.
    pub audience: Vec<NodeId>,
}

impl Sent {
    /// How the packet fared in the driven world `w`.
    #[must_use]
    pub fn outcome(&self, w: &World) -> PacketOutcome {
        let received = self.audience.iter().filter(|n| w.was_received(self.key, **n)).count();
        PacketOutcome {
            generated_at: self.at,
            source_x: self.origin.x,
            candidates: self.audience.len() as u64,
            received: received as u64,
        }
    }
}

/// Per-packet record from one run: when it was generated, where its
/// source sat, and how it fared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketOutcome {
    /// Generation time.
    pub generated_at: SimTime,
    /// Longitudinal position of the source at generation time.
    pub source_x: f64,
    /// The size of the packet's audience.
    pub candidates: u64,
    /// Of those, how many delivered the packet by the end of the run.
    pub received: u64,
}

impl PacketOutcome {
    /// The packet's reception rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.received as f64 / self.candidates as f64
        }
    }
}

/// Folds packet outcomes into 5 s time bins, weighted by audience size
/// (the paper's flood reception rate is per vehicle; an interception
/// packet weighs one).
#[must_use]
pub fn outcomes_to_bins(outcomes: &[PacketOutcome], duration: SimDuration) -> TimeBins {
    let mut bins = paper_bins(duration);
    for o in outcomes {
        bins.record_weighted(o.generated_at, o.received, o.candidates);
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_outcome_rate() {
        let o = PacketOutcome {
            generated_at: SimTime::from_secs(1),
            source_x: 100.0,
            candidates: 100,
            received: 65,
        };
        assert!((o.rate() - 0.65).abs() < 1e-12);
        let z = PacketOutcome { candidates: 0, received: 0, ..o };
        assert_eq!(z.rate(), 0.0);
    }

    #[test]
    fn one_receiver_outcomes_fold_like_plain_records() {
        // An interception packet's outcome weighs one: its bins equal
        // `TimeBins::record` of the delivery flag.
        let mut plain = paper_bins(SimDuration::from_secs(20));
        let mut outcomes = Vec::new();
        for (t, ok) in [(1, true), (2, false), (7, true), (19, false)] {
            plain.record(SimTime::from_secs(t), ok);
            outcomes.push(PacketOutcome {
                generated_at: SimTime::from_secs(t),
                source_x: 0.0,
                candidates: 1,
                received: u64::from(ok),
            });
        }
        assert_eq!(outcomes_to_bins(&outcomes, SimDuration::from_secs(20)), plain);
    }

    #[test]
    fn config_mounts_each_familys_single_run_attacker() {
        assert_eq!(Family::Interception.config(30).attack_range, 486.0);
        assert_eq!(Family::Blockage.config(30).attack_range, 500.0);
        assert_eq!(Family::Blockage.config(30).duration, SimDuration::from_secs(30));
        assert_eq!(Family::BOTH.map(Family::name), ["interarea", "intraarea"]);
    }
}
