//! The four workloads and the benchmark's slice-timed driver loop.
//!
//! The driver loops are line-for-line copies of the ones in
//! `geonet_scenarios::interarea::run_one` and `intraarea::run_one` (the
//! paper's loop: at each simulated second `t`, `run_until(t)` and then
//! inject one packet), with host timers around the public calls. The
//! equivalence test in `tests/equivalence.rs` pins them bit-for-bit to the
//! library, so the benchmark measures the paper's workload and not a fork
//! of it.

use geonet::PacketKey;
use geonet_attack::BlockageMode;
use geonet_geo::{Area, Position};
use geonet_scenarios::config::AttackerSetup;
use geonet_scenarios::intraarea::{self, PacketOutcome};
use geonet_scenarios::{interarea, ScenarioConfig, World};
use geonet_sim::{SharedRegistry, SimDuration, SimTime, StateHasher, TimeBins};
use std::time::Instant;

/// Which paper experiment family a workload's runs belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Greedy-forwarded vulnerable packets towards static destinations
    /// (Figure 7), interception attacker.
    InterArea,
    /// Whole-road CBF GeoBroadcasts (Figure 9), `ClampRhl` blockage
    /// attacker.
    IntraArea,
}

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline scenario: 4 km one-way road, mN interception
    /// attacker, interarea A/B pairs.
    Interception,
    /// The same road with the mN blockage attacker: intraarea A/B pairs.
    Blockage,
    /// 20 km two-way road at 30 m spacing (~2.7k vehicles), attacked
    /// interarea runs only.
    HighwayScale,
    /// 40 km two-way road at 300 m spacing (~270 vehicles), interarea
    /// A/B pairs.
    SparseHighway,
}

impl Workload {
    /// Every workload, in the order the doc lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Interception,
        Workload::Blockage,
        Workload::HighwayScale,
        Workload::SparseHighway,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interception => "interception",
            Workload::Blockage => "blockage",
            Workload::HighwayScale => "highway-scale",
            Workload::SparseHighway => "sparse-highway",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment family the workload's runs use.
    #[must_use]
    pub fn family(self) -> Family {
        match self {
            Workload::Blockage => Family::IntraArea,
            _ => Family::InterArea,
        }
    }

    /// Whether each seed runs as an attacker-free/attacked pair (`false`:
    /// attacked runs only).
    #[must_use]
    pub fn paired(self) -> bool {
        self != Workload::HighwayScale
    }

    /// The scenario every run of the workload simulates.
    #[must_use]
    pub fn config(self) -> ScenarioConfig {
        let paper = ScenarioConfig::paper_dsrc_default().with_attack_range(486.0);
        match self {
            Workload::Interception | Workload::Blockage => paper,
            // A 200 s highway run takes seconds of host time. 20 s runs
            // (~0.4 s of host time each, five beacon periods after the
            // LocTs fill) keep dozens of runs inside one measurement window,
            // so a per-run median shrugs off the host's periodic stalls.
            Workload::HighwayScale => {
                highway(paper, 20_000.0, 30.0).with_duration(SimDuration::from_secs(20))
            }
            Workload::SparseHighway => highway(paper, 40_000.0, 300.0),
        }
    }

    /// The seed of the `index`-th seeded run (A/B pair) of a campaign
    /// started from `base_seed`: the same derivation as the family's
    /// `run_ab`, so a pooled campaign covers the benchmark's own runs.
    #[must_use]
    pub fn run_seed(self, base_seed: u64, index: u32) -> u64 {
        let stride = match self.family() {
            Family::InterArea => 0x9E37,
            Family::IntraArea => 0x517C,
        };
        base_seed.wrapping_add(u64::from(index) * stride)
    }

    /// The `k`-th world of the workload's run list: `(seed, attacked)`.
    /// Paired workloads alternate attacker-free and attacked worlds of the
    /// same seed.
    #[must_use]
    pub fn job(self, base_seed: u64, k: u32) -> (u64, bool) {
        if self.paired() {
            (self.run_seed(base_seed, k / 2), k % 2 == 1)
        } else {
            (self.run_seed(base_seed, k), true)
        }
    }
}

/// A two-way road of `length` metres at `spacing`, attacker at its centre.
fn highway(base: ScenarioConfig, length: f64, spacing: f64) -> ScenarioConfig {
    let mut cfg = base.with_spacing(spacing).with_two_way(true);
    cfg.road.length = length;
    cfg.attacker_position = Position::new(length / 2.0, base.attacker_position.y);
    cfg
}

/// What one run delivered, in the form the library's `run_one` returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Interarea: per-5-s reception bins of the vulnerable packets at
    /// their destinations.
    Bins(TimeBins),
    /// Intraarea: one record per whole-road broadcast.
    Packets(Vec<PacketOutcome>),
}

impl Outcome {
    /// The outcome folded into 5 s reception bins (the input of γ/λ).
    #[must_use]
    pub fn bins(&self, duration: SimDuration) -> TimeBins {
        match self {
            Outcome::Bins(bins) => bins.clone(),
            Outcome::Packets(packets) => intraarea::outcomes_to_bins(packets, duration),
        }
    }
}

/// A host-time span the benchmark recorded around one public call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `world_new` (`World::new` plus the static destination nodes),
    /// `run_until` or `originate_from`.
    pub name: &'static str,
    /// Start, nanoseconds since the run started.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Everything the benchmark reads from one seeded run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's outcome, comparable with the library's `run_one`.
    pub outcome: Outcome,
    /// Digest of the run's outcome and deterministic counters.
    pub fingerprint: u64,
    /// Simulated seconds the run advanced.
    pub sim_seconds: f64,
    /// Host time from `World::new` to the collected outcome.
    pub wall_ns: u64,
    /// Host time of each simulated second (`run_until` plus that second's
    /// packet injection).
    pub slices_ns: Vec<u64>,
    /// Every span, in call order.
    pub spans: Vec<Span>,
    /// Kernel events dispatched.
    pub events: u64,
    /// Frames put on the air.
    pub frames_on_air: u64,
    /// Wire bytes put on the air.
    pub bytes_on_air: u64,
    /// Link-layer unicasts sent.
    pub unicasts_sent: u64,
    /// Unicasts whose addressee did not hear them.
    pub unicasts_lost: u64,
    /// Router statistics summed over every legitimate node.
    pub stats: geonet::RouterStats,
    /// Beacons the interception attacker replayed.
    pub beacons_replayed: u64,
    /// Packets the blockage attacker replayed.
    pub packets_replayed: u64,
}

impl RunRecord {
    /// Sum of the spans named `name`, nanoseconds.
    #[must_use]
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns).sum()
    }
}

/// Records spans relative to the start of a run.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::with_capacity(512) }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = nanos(start.elapsed());
        let start_ns = nanos(start - self.origin);
        self.spans.push(Span { name, start_ns, dur_ns });
        out
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Builds the run's world and, for interarea runs, its east and west
/// destination nodes, as the library's driver does.
fn build(
    cfg: &ScenarioConfig,
    family: Family,
    attacked: bool,
    seed: u64,
    registry: Option<SharedRegistry>,
) -> (World, Option<(geonet_radio::NodeId, geonet_radio::NodeId)>) {
    let setup = match family {
        Family::InterArea => AttackerSetup::InterArea,
        Family::IntraArea => AttackerSetup::IntraArea(BlockageMode::ClampRhl),
    };
    let mut w = World::new(*cfg, attacked.then_some(setup), seed);
    if let Some(registry) = registry {
        w.set_telemetry(registry);
    }
    let dests = (family == Family::InterArea).then(|| {
        let length = cfg.road.length;
        let east = w.add_static_node(Position::new(length + 20.0, 2.5), cfg.v2v_range);
        let west = w.add_static_node(Position::new(-20.0, 2.5), cfg.v2v_range);
        (east, west)
    });
    (w, dests)
}

/// Builds the world of one run without running it — the unit of the
/// `setup_s` measurement.
#[must_use]
pub fn build_only(workload: Workload, seed: u64, attacked: bool) -> World {
    build(&workload.config(), workload.family(), attacked, seed, None).0
}

/// Runs one seeded world of `workload` through the benchmark's driver,
/// with `registry` attached when given. Returns the record and the
/// finished world (for the layer probes).
#[must_use]
pub fn run(
    workload: Workload,
    seed: u64,
    attacked: bool,
    registry: Option<SharedRegistry>,
) -> (RunRecord, World) {
    run_config(&workload.config(), workload.family(), seed, attacked, registry)
}

/// [`run`] on an explicit configuration.
#[must_use]
pub fn run_config(
    cfg: &ScenarioConfig,
    family: Family,
    seed: u64,
    attacked: bool,
    registry: Option<SharedRegistry>,
) -> (RunRecord, World) {
    let mut spans = Spans::new();
    let started = Instant::now();
    let (mut w, dests) = spans.time("world_new", || build(cfg, family, attacked, seed, registry));
    let duration_s = cfg.duration.as_secs();
    let mut slices_ns = Vec::with_capacity(usize::try_from(duration_s).unwrap_or(0));
    let outcome = match dests {
        Some((east_node, west_node)) => {
            let length = cfg.road.length;
            let east_area = Area::circle(Position::new(length + 20.0, 0.0), 40.0);
            let west_area = Area::circle(Position::new(-20.0, 0.0), 40.0);
            let mut generated = Vec::new();
            for t in 1..duration_s {
                let slice = Instant::now();
                spans.time("run_until", || w.run_until(SimTime::from_secs(t)));
                let mut chosen = None;
                for _ in 0..16 {
                    let Some(vid) = w.random_on_road_vehicle() else { break };
                    let node = w.vehicle_node(vid);
                    let x = w.node_position(node).x;
                    let eastbound = match interarea::vulnerable_directions(cfg, x) {
                        (true, true) => w.workload_coin(),
                        (true, false) => true,
                        (false, true) => false,
                        (false, false) => continue,
                    };
                    chosen = Some((node, eastbound));
                    break;
                }
                if let Some((node, eastbound)) = chosen {
                    let (area, dest) =
                        if eastbound { (&east_area, east_node) } else { (&west_area, west_node) };
                    let key =
                        spans.time("originate_from", || w.originate_from(node, area, vec![0x5A]));
                    generated.push((key, w.now(), dest));
                }
                slices_ns.push(nanos(slice.elapsed()));
            }
            let slice = Instant::now();
            spans.time("run_until", || w.run_to_end());
            slices_ns.push(nanos(slice.elapsed()));
            let mut bins = TimeBins::new(
                SimDuration::from_secs(5),
                usize::try_from(duration_s.div_ceil(5)).expect("bin count fits"),
            );
            for (key, gen_time, dest) in generated {
                bins.record(gen_time, w.was_received(key, dest));
            }
            Outcome::Bins(bins)
        }
        None => {
            let area = intraarea::road_area(cfg);
            let mut generated: Vec<(PacketKey, SimTime, f64, Vec<_>)> = Vec::new();
            for t in 1..duration_s {
                let slice = Instant::now();
                spans.time("run_until", || w.run_until(SimTime::from_secs(t)));
                if let Some(vid) = w.random_on_road_vehicle() {
                    let node = w.vehicle_node(vid);
                    let snapshot = w.on_road_nodes();
                    let x = w.node_position(node).x;
                    let key =
                        spans.time("originate_from", || w.originate_from(node, &area, vec![0xCB]));
                    generated.push((key, w.now(), x, snapshot));
                }
                slices_ns.push(nanos(slice.elapsed()));
            }
            let slice = Instant::now();
            spans.time("run_until", || w.run_to_end());
            slices_ns.push(nanos(slice.elapsed()));
            Outcome::Packets(
                generated
                    .into_iter()
                    .map(|(key, generated_at, source_x, snapshot)| {
                        let received =
                            snapshot.iter().filter(|n| w.was_received(key, **n)).count() as u64;
                        PacketOutcome {
                            generated_at,
                            source_x,
                            candidates: snapshot.len() as u64,
                            received,
                        }
                    })
                    .collect(),
            )
        }
    };
    let wall_ns = nanos(started.elapsed());
    let record = RunRecord {
        fingerprint: fingerprint(&w, &outcome),
        outcome,
        sim_seconds: cfg.duration.as_secs_f64(),
        wall_ns,
        slices_ns,
        spans: spans.spans,
        events: w.events_processed(),
        frames_on_air: w.frames_on_air(),
        bytes_on_air: w.bytes_on_air(),
        unicasts_sent: w.unicasts_sent(),
        unicasts_lost: w.unicasts_lost(),
        stats: w.aggregate_stats(),
        beacons_replayed: w.inter_attacker().map_or(0, |a| a.beacons_replayed()),
        packets_replayed: w.intra_attacker().map_or(0, |a| a.packets_replayed()),
    };
    (record, w)
}

/// Digest of a run's outcome: reception bins or packet outcomes, channel
/// load, unicast losses, the aggregate router statistics and the
/// attacker's replay counts. Kernel event counts and timings stay out, so
/// a correct optimisation that merges or batches events still matches.
#[must_use]
pub fn fingerprint(w: &World, outcome: &Outcome) -> u64 {
    let mut h = StateHasher::new();
    match outcome {
        Outcome::Bins(bins) => {
            h.write_u8(0);
            for rate in bins.rates() {
                h.write_bool(rate.is_some());
                h.write_f64(rate.unwrap_or(0.0));
            }
            h.write_f64(bins.overall_rate().unwrap_or(-1.0));
        }
        Outcome::Packets(packets) => {
            h.write_u8(1);
            for p in packets {
                h.write_u64(p.generated_at.as_micros());
                h.write_f64(p.source_x);
                h.write_u64(p.candidates);
                h.write_u64(p.received);
            }
        }
    }
    for v in [w.frames_on_air(), w.bytes_on_air(), w.unicasts_sent(), w.unicasts_lost()] {
        h.write_u64(v);
    }
    let s = w.aggregate_stats();
    for v in [
        s.beacons_accepted,
        s.auth_failures,
        s.freshness_failures,
        s.delivered,
        s.gf_unicast,
        s.gf_fallback,
        s.cbf_rebroadcast,
        s.cbf_discards,
        s.cbf_mitigation_rejects,
        s.rhl_exhausted,
        s.gf_ack_retries,
        s.gf_ack_exhausted,
    ] {
        h.write_u64(v);
    }
    if let Some(a) = w.inter_attacker() {
        h.write_u64(a.beacons_sniffed());
        h.write_u64(a.beacons_replayed());
    }
    if let Some(a) = w.intra_attacker() {
        h.write_u64(a.packets_sniffed());
        h.write_u64(a.packets_replayed());
    }
    h.finish()
}

/// The library's own driver for the same run: `interarea::run_one` or
/// `intraarea::run_one`.
#[must_use]
pub fn library_outcome(cfg: &ScenarioConfig, family: Family, seed: u64, attacked: bool) -> Outcome {
    match family {
        Family::InterArea => Outcome::Bins(interarea::run_one(cfg, attacked, seed)),
        Family::IntraArea => Outcome::Packets(intraarea::run_one(cfg, attacked, seed)),
    }
}
