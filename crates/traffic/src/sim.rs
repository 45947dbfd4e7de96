//! The fixed-timestep traffic simulation.

use crate::road::{Direction, RoadConfig};
use crate::vehicle::{Vehicle, VehicleId};
use crate::IdmParams;
use geonet_geo::{CellGrid, Position};
use geonet_sim::StateHasher;
use std::fmt;

/// Stable wire code for a direction, for audit digests.
fn direction_code(d: Direction) -> u8 {
    match d {
        Direction::East => 0,
        Direction::West => 1,
    }
}

/// Index of a direction into the per-direction arrays.
fn dir_index(d: Direction) -> usize {
    usize::from(direction_code(d))
}

/// Index of a lane's buffer: East lanes first, then West, each in
/// ascending lane order.
fn lane_slot(d: Direction, lane: u8, lanes_per_direction: u8) -> usize {
    dir_index(d) * usize::from(lanes_per_direction) + usize::from(lane)
}

/// Slots of the free-term memo, a power of two.
const FREE_SLOTS: usize = 512;

/// A direct-mapped memo of [`IdmParams::free_term`] by the bits of the
/// speed. The term is a libm `pow` and a pure function of the speed, and
/// a step sees far fewer distinct speeds than vehicles: mirrored
/// directions and the lanes of a prefilled road move alike. Over 200 s
/// of `sparse-highway` a step met ~29 distinct speeds among 270 vehicles,
/// where runs of equal speeds within a lane still took ~100 calls; the
/// paper's two-way road met ~137 among 316 (~300 calls). A speed that
/// maps to a taken slot evicts the older entry.
#[derive(Clone)]
struct FreeTerms(Box<[(u64, f64)]>);

impl FreeTerms {
    /// An empty memo: every slot holds a NaN's bits, which no speed has.
    fn new() -> Self {
        FreeTerms(vec![(u64::MAX, 0.0); FREE_SLOTS].into_boxed_slice())
    }

    /// `idm.free_term(v)`.
    fn get(&mut self, idm: &IdmParams, v: f64) -> f64 {
        let bits = v.to_bits();
        let hash = bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - FREE_SLOTS.trailing_zeros());
        let slot = &mut self.0[hash as usize];
        if slot.0 != bits {
            *slot = (bits, idm.free_term(v));
        }
        slot.1
    }
}

/// A hazard blocking all lanes of one direction at a longitudinal
/// position (the paper's Figure 11a event blocks both eastbound lanes at
/// 3 600 m).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hazard {
    direction: Direction,
    s: f64,
}

/// The nearest of `hazards` ahead of longitudinal position `s` in
/// `direction`, if any.
fn hazard_ahead(hazards: &[Hazard], direction: Direction, s: f64) -> Option<f64> {
    hazards
        .iter()
        .filter(|h| h.direction == direction && h.s > s)
        .map(|h| h.s)
        .min_by(|a, b| a.partial_cmp(b).expect("hazard positions are finite"))
}

/// The traffic microsimulation.
///
/// Vehicles follow the Intelligent Driver Model within their lane. The road
/// is pre-filled at the configured inter-vehicle spacing so runs start in
/// steady state (the paper's "vehicles are 30 meters apart" default), and
/// new vehicles enter at 30 m/s whenever the vehicle ahead is more than the
/// spacing away from the entrance.
///
/// Hazards block a direction: vehicles treat the hazard as a stopped
/// leader and queue behind it. Each direction has an *entry gate* that the
/// scenario layer closes when the entrance is informed of a hazard — the
/// mechanism behind the paper's Figure 12 traffic-jam comparison.
///
/// # Example
///
/// ```
/// use geonet_traffic::{Direction, RoadConfig, TrafficSim};
///
/// let mut sim = TrafficSim::new(RoadConfig::paper_default());
/// assert!(sim.count_on_road() > 100); // pre-filled 4 km road
/// sim.add_hazard(Direction::East, 3_600.0);
/// sim.set_entry_open(Direction::East, false); // entrance informed
/// for _ in 0..100 { sim.step(0.1); }
/// ```
///
/// A step costs O(vehicles on the road), not O(vehicles ever spawned),
/// and allocates nothing once its buffers have grown to the traffic.
///
/// The simulation is plain data (`Clone + Send`) and reads nothing but
/// its own state: a clone stepped on another thread computes the same
/// trajectory bit for bit, and [`TrafficSim::step_into`] /
/// [`TrafficSim::apply`] carry each step back as a [`StepOutput`]. The
/// record also says where each vehicle landed and which vehicles crossed
/// into another cell of a [`CellGrid`], so a radio medium indexed by that
/// grid takes the step as one load ([`TrafficSim::step_landing`]).
#[derive(Clone)]
pub struct TrafficSim {
    road: RoadConfig,
    vehicles: Vec<Vehicle>,
    /// Ids of the vehicles not yet exited, ascending.
    active: Vec<VehicleId>,
    /// One buffer per lane, indexed by [`lane_slot`]: the lane's active
    /// vehicles, leader first. Refilled every step.
    lanes: Vec<Vec<VehicleId>>,
    /// One lane's accelerations, reused across lanes and steps.
    accels: Vec<f64>,
    free_terms: FreeTerms,
    /// Ids of the vehicles that exited in the last step, ascending.
    exits: Vec<VehicleId>,
    /// Where the gap collapses of the last step happened, in step order.
    collided: Vec<f64>,
    hazards: Vec<Hazard>,
    /// Per-direction state, indexed by [`dir_index`].
    entry_open: [bool; 2],
    next_lane: [u8; 2],
    last_entered: [Option<VehicleId>; 2],
    collisions: u64,
    elapsed: f64,
    /// The cell of each vehicle under `keyed`, by vehicle id: current for
    /// the active vehicles while `keyed` is set. Kept by
    /// [`TrafficSim::step_landing`]; any other step, and an apply, unset
    /// `keyed`.
    cell_keys: Vec<u64>,
    keyed: Option<CellGrid>,
}

impl TrafficSim {
    /// Creates a pre-filled simulation from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`RoadConfig::validate`].
    #[must_use]
    pub fn new(road: RoadConfig) -> Self {
        road.validate().unwrap_or_else(|e| panic!("invalid road config: {e}"));
        let mut entry_open = [false; 2];
        for &d in road.directions() {
            entry_open[dir_index(d)] = true;
        }
        let lanes = road.directions().len() * usize::from(road.lanes_per_direction);
        let mut sim = TrafficSim {
            road,
            vehicles: Vec::new(),
            active: Vec::new(),
            lanes: vec![Vec::new(); lanes],
            accels: Vec::new(),
            free_terms: FreeTerms::new(),
            exits: Vec::new(),
            collided: Vec::new(),
            hazards: Vec::new(),
            entry_open,
            next_lane: [0; 2],
            last_entered: [None; 2],
            collisions: 0,
            elapsed: 0.0,
            cell_keys: Vec::new(),
            keyed: None,
        };
        sim.prefill();
        sim
    }

    /// Pre-fills each direction with vehicles every `spacing` metres,
    /// alternating lanes, travelling at the entry speed.
    fn prefill(&mut self) {
        for &direction in self.road.directions() {
            let mut lane = 0u8;
            let mut s = self.road.length;
            while s >= self.road.spacing {
                let id = self.push_vehicle(direction, lane, s, self.road.entry_speed);
                self.last_entered[dir_index(direction)] = Some(id);
                lane = (lane + 1) % self.road.lanes_per_direction;
                s -= self.road.spacing;
            }
            self.next_lane[dir_index(direction)] = lane;
        }
    }

    fn push_vehicle(&mut self, direction: Direction, lane: u8, s: f64, v: f64) -> VehicleId {
        let id = VehicleId(u32::try_from(self.vehicles.len()).expect("too many vehicles"));
        self.vehicles.push(Vehicle { id, direction, lane, s, v, exited: false });
        self.active.push(id);
        id
    }

    /// The road configuration.
    #[must_use]
    pub fn road(&self) -> &RoadConfig {
        &self.road
    }

    /// Simulated seconds elapsed.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// All vehicles ever spawned (including exited ones), indexable by
    /// [`VehicleId::index`].
    #[must_use]
    pub fn all_vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// The vehicles currently on the road, in ascending id order.
    pub fn active_vehicles(&self) -> impl Iterator<Item = &Vehicle> {
        self.active.iter().map(|id| &self.vehicles[id.index()])
    }

    /// The vehicles that exited in the last [`TrafficSim::step`], in
    /// ascending id order (empty before the first step).
    #[must_use]
    pub fn exited_last_step(&self) -> &[VehicleId] {
        &self.exits
    }

    /// Looks up a vehicle by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not issued by this simulation.
    #[must_use]
    pub fn vehicle(&self, id: VehicleId) -> &Vehicle {
        &self.vehicles[id.index()]
    }

    /// Planar position of a vehicle.
    #[must_use]
    pub fn position(&self, id: VehicleId) -> Position {
        let v = self.vehicle(id);
        v.position(&self.road)
    }

    /// Number of vehicles currently on the road segment proper (not yet
    /// past its end) — the paper's Figure 12 metric.
    #[must_use]
    pub fn count_on_road(&self) -> usize {
        self.active_vehicles().filter(|v| v.s <= self.road.length).count()
    }

    /// The vehicles on the road segment proper (excludes vehicles coasting
    /// through the off-road margin).
    pub fn on_segment_vehicles(&self) -> impl Iterator<Item = &Vehicle> {
        let length = self.road.length;
        self.active_vehicles().filter(move |v| v.s <= length)
    }

    /// The longitudinal positions at which the last [`TrafficSim::step`]
    /// saw a gap collapse, in the order it saw them (empty before the
    /// first step).
    #[must_use]
    pub fn collisions_last_step(&self) -> &[f64] {
        &self.collided
    }

    /// Number of gap-collapse events observed (gap ≤ 0 between follower
    /// and leader). IDM alone never produces these; they indicate scripted
    /// interference.
    #[must_use]
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Opens or closes a direction's entry gate. While closed, no vehicles
    /// enter (the entrance has been informed of a hazard and traffic
    /// diverts).
    pub fn set_entry_open(&mut self, direction: Direction, open: bool) {
        self.entry_open[dir_index(direction)] = open;
    }

    /// Whether a direction's entry gate is open.
    #[must_use]
    pub fn entry_open(&self, direction: Direction) -> bool {
        self.entry_open[dir_index(direction)]
    }

    /// Folds the simulation's canonical state — clock, collision count,
    /// every vehicle's kinematics, hazards and per-direction entry
    /// bookkeeping — into an audit digest. The per-direction state is
    /// walked via [`RoadConfig::directions`].
    pub fn digest_into(&self, h: &mut StateHasher) {
        h.write_f64(self.elapsed);
        h.write_u64(self.collisions);
        h.write_u64(self.vehicles.len() as u64);
        for v in &self.vehicles {
            h.write_u64(u64::from(v.id.0));
            h.write_u8(direction_code(v.direction));
            h.write_u8(v.lane);
            h.write_f64(v.s);
            h.write_f64(v.v);
            h.write_bool(v.exited);
        }
        h.write_u64(self.hazards.len() as u64);
        for hz in &self.hazards {
            h.write_u8(direction_code(hz.direction));
            h.write_f64(hz.s);
        }
        for &d in self.road.directions() {
            h.write_u8(direction_code(d));
            h.write_bool(self.entry_open(d));
            h.write_u8(self.next_lane[dir_index(d)]);
            match self.last_entered[dir_index(d)] {
                Some(id) => h.write_u64(u64::from(id.0) + 1),
                None => h.write_u64(0),
            }
        }
    }

    /// Places a hazard blocking all lanes of `direction` at longitudinal
    /// position `s`. Vehicles behind it queue; vehicles past it drive on
    /// and exit.
    ///
    /// # Panics
    ///
    /// Panics if `s` is outside the road.
    pub fn add_hazard(&mut self, direction: Direction, s: f64) {
        assert!(
            (0.0..=self.road.length).contains(&s),
            "hazard at {s} outside road of length {}",
            self.road.length
        );
        self.hazards.push(Hazard { direction, s });
    }

    /// Removes all hazards in `direction` (the event has been cleared).
    pub fn clear_hazards(&mut self, direction: Direction) {
        self.hazards.retain(|h| h.direction != direction);
    }

    /// Advances the simulation by `dt` seconds (the paper uses 0.1 s).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive.
    pub fn step(&mut self, dt: f64) {
        self.keyed = None;
        self.advance(dt);
    }

    /// [`TrafficSim::step`], leaving the cell keys to the caller.
    fn advance(&mut self, dt: f64) {
        assert!(dt.is_finite() && dt > 0.0, "invalid timestep: {dt}");
        self.elapsed += dt;
        let TrafficSim {
            road,
            vehicles,
            active,
            lanes,
            accels,
            free_terms,
            exits,
            collided,
            hazards,
            collisions,
            ..
        } = self;
        collided.clear();

        // Group active vehicles per lane in id order, then sort each lane
        // by longitudinal position descending (leader first). The sort is
        // stable, so vehicles level with each other stay in id order.
        for lane in lanes.iter_mut() {
            lane.clear();
        }
        for &id in active.iter() {
            let v = &vehicles[id.index()];
            lanes[lane_slot(v.direction, v.lane, road.lanes_per_direction)].push(id);
        }
        let braking_divisor = road.idm.braking_divisor();

        for ids in lanes.iter_mut() {
            ids.sort_by(|a, b| {
                vehicles[b.index()]
                    .s
                    .partial_cmp(&vehicles[a.index()].s)
                    .expect("positions are finite")
            });
            // Compute accelerations against the current (pre-update) state,
            // then integrate — a synchronous update, standard for IDM.
            accels.clear();
            // The free-road term (a libm `pow`) of the last speed seen. It
            // is a pure function of the speed's bits, and a prefilled
            // platoon moves in lockstep, so runs of followers share one
            // lookup. The initial bits are a NaN's, which no speed has.
            let mut last_free = (u64::MAX, 0.0);
            for (rank, id) in ids.iter().enumerate() {
                let v = &vehicles[id.index()];
                let leader_gap = if rank == 0 {
                    None
                } else {
                    let lead = &vehicles[ids[rank - 1].index()];
                    Some((lead.s - road.vehicle_length - v.s, lead.v))
                };
                // A hazard acts as a stopped, zero-length leader.
                let hazard_gap =
                    hazard_ahead(hazards, v.direction, v.s).map(|hs| (hs - v.s, 0.0f64));
                let binding = match (leader_gap, hazard_gap) {
                    (Some(l), Some(h)) => Some(if l.0 <= h.0 { l } else { h }),
                    (l, h) => l.or(h),
                };
                let mut free = || {
                    if last_free.0 != v.v.to_bits() {
                        last_free = (v.v.to_bits(), free_terms.get(&road.idm, v.v));
                    }
                    last_free.1
                };
                let a = match binding {
                    Some((gap, lead_v)) => {
                        if gap <= 0.0 {
                            // Gap collapse: scripted interference (never
                            // produced by IDM itself). Record and stop dead.
                            *collisions += 1;
                            collided.push(v.s);
                            -f64::INFINITY // sentinel: stop below
                        } else {
                            road.idm.acceleration_from(
                                free(),
                                v.v,
                                gap,
                                v.v - lead_v,
                                braking_divisor,
                            )
                        }
                    }
                    // `free_road_acceleration`'s operations.
                    None => road.idm.max_acceleration * free(),
                };
                accels.push(a);
            }
            for (id, &a) in ids.iter().zip(accels.iter()) {
                let veh = &mut vehicles[id.index()];
                if a == -f64::INFINITY {
                    veh.v = 0.0;
                    continue;
                }
                let v_new = (veh.v + a * dt).max(0.0);
                veh.s += (veh.v + v_new) / 2.0 * dt;
                veh.v = v_new;
            }
        }

        // Exits: the vehicle has driven past the off-road margin and can
        // no longer matter to anything on the segment.
        let cutoff = road.length + road.offroad_margin;
        exits.clear();
        active.retain(|&id| {
            let v = &mut vehicles[id.index()];
            if v.s > cutoff {
                v.exited = true;
                exits.push(id);
            }
            !v.exited
        });

        // Entries.
        for &direction in self.road.directions() {
            self.try_spawn(direction);
        }
    }

    /// Entry rule: a vehicle enters at the configured speed when the last
    /// vehicle that entered this direction is more than `spacing` metres
    /// from the entrance (and the gate is open). Lanes are used round-robin.
    ///
    /// Runs at the end of a step: the target lane's buffer still lists
    /// every vehicle the lane held when the step began, so this step's
    /// exits are skipped. Each direction spawns into its own lanes, so no
    /// buffer misses a vehicle spawned in the same step.
    fn try_spawn(&mut self, direction: Direction) {
        let d = dir_index(direction);
        if !self.entry_open[d] {
            return;
        }
        if let Some(last) = self.last_entered[d] {
            let lv = &self.vehicles[last.index()];
            if !lv.exited && lv.s <= self.road.spacing {
                return;
            }
        }
        let lane = self.next_lane[d];
        // Lane safety: the rearmost vehicle in the target lane must also be
        // clear of the entrance.
        let lane_clear = self.lanes[lane_slot(direction, lane, self.road.lanes_per_direction)]
            .iter()
            .map(|id| &self.vehicles[id.index()])
            .filter(|v| !v.exited)
            .all(|v| v.s > self.road.spacing);
        if !lane_clear {
            return;
        }
        let id = self.push_vehicle(direction, lane, 0.0, self.road.entry_speed);
        self.last_entered[d] = Some(id);
        self.next_lane[d] = (lane + 1) % self.road.lanes_per_direction;
    }

    /// [`TrafficSim::step`], recording into `out` where the step left the
    /// vehicles: the planar position of each active vehicle, and which of
    /// the vehicles active before the step crossed into another cell of
    /// `cells`. This is what a radio medium indexed by `cells` needs to
    /// follow the step; `out` is no record for [`TrafficSim::apply`].
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive.
    pub fn step_landing(&mut self, dt: f64, cells: CellGrid, out: &mut StepOutput) {
        if self.keyed != Some(cells) {
            self.cell_keys.resize(self.vehicles.len(), 0);
            for &id in &self.active {
                let p = self.vehicles[id.index()].position(&self.road);
                self.cell_keys[id.index()] = cells.key_of(p);
            }
            self.keyed = Some(cells);
        }
        let before = self.vehicles.len();
        self.advance(dt);
        self.cell_keys.resize(self.vehicles.len(), 0);
        out.before = before;
        out.positions.clear();
        out.crossers.clear();
        out.cells = cells;
        for (i, &id) in self.active.iter().enumerate() {
            let p = self.vehicles[id.index()].position(&self.road);
            let key = &mut self.cell_keys[id.index()];
            if id.index() >= before {
                *key = cells.key_of(p);
            } else if !cells.column_holds(*key, p.x) {
                // A vehicle keeps its lane, so its cell row never changes
                // and a cell is crossed only where its column is left.
                let new = cells.key_of(p);
                if new != *key {
                    out.crossers.push(i as u32);
                    *key = new;
                }
            }
            out.positions.push(p);
        }
    }

    /// [`TrafficSim::step_landing`], recording into `out` as well
    /// everything the step changed, so that [`TrafficSim::apply`] brings a
    /// copy of this simulation from before the step to where this one is
    /// now.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and positive.
    pub fn step_into(&mut self, dt: f64, cells: CellGrid, out: &mut StepOutput) {
        self.step_landing(dt, cells, out);
        // The vehicles active before the step, ascending: the survivors
        // (less this step's spawns) merged with this step's exits.
        out.motion.clear();
        let vehicles = &self.vehicles;
        let mut record = |id: VehicleId| {
            let v = &vehicles[id.index()];
            out.motion.push((v.s, v.v));
        };
        let mut exits = self.exits.iter().copied().peekable();
        for &id in self.active.iter().take_while(|id| id.index() < out.before) {
            while let Some(exit) = exits.next_if(|&e| e < id) {
                record(exit);
            }
            record(id);
        }
        exits.for_each(record);
        out.exits.clone_from(&self.exits);
        out.spawned.clear();
        out.spawned.extend_from_slice(&self.vehicles[out.before..]);
        out.collided.clone_from(&self.collided);
        out.elapsed = self.elapsed;
        out.next_lane = self.next_lane;
        out.last_entered = self.last_entered;
        out.collisions = self.collisions;
    }

    /// Applies a step that [`TrafficSim::step_into`] recorded on a copy of
    /// this simulation in its current state: afterwards this simulation
    /// holds exactly the state [`TrafficSim::step`] would have left. The
    /// lane buffers and accelerations are scratch at a step boundary, so
    /// they are not carried.
    ///
    /// # Panics
    ///
    /// Panics if `out` was recorded from a state with a different number
    /// of vehicles or of active vehicles.
    pub fn apply(&mut self, out: &StepOutput) {
        assert!(
            out.before == self.vehicles.len() && out.motion.len() == self.active.len(),
            "step output of another state"
        );
        let TrafficSim { vehicles, active, .. } = self;
        for (id, &(s, v)) in active.iter().zip(&out.motion) {
            let veh = &mut vehicles[id.index()];
            veh.s = s;
            veh.v = v;
        }
        if !out.exits.is_empty() {
            for id in &out.exits {
                vehicles[id.index()].exited = true;
            }
            active.retain(|id| !vehicles[id.index()].exited);
        }
        active.extend(out.spawned.iter().map(|v| v.id));
        vehicles.extend_from_slice(&out.spawned);
        self.exits.clone_from(&out.exits);
        self.collided.clone_from(&out.collided);
        self.elapsed = out.elapsed;
        self.next_lane = out.next_lane;
        self.last_entered = out.last_entered;
        self.collisions = out.collisions;
        self.keyed = None;
    }
}

/// One recorded [`TrafficSim::step`]. [`TrafficSim::step_landing`] writes
/// where the vehicles landed; [`TrafficSim::step_into`] writes that and
/// the state that [`TrafficSim::apply`] reads. Hazards and entry gates
/// are not in it; a step does not change them.
#[derive(Debug, Clone, Default)]
pub struct StepOutput {
    /// How many vehicles had ever spawned before the step.
    before: usize,
    /// The new `(s, v)` of each vehicle active before the step, in
    /// ascending id order.
    motion: Vec<(f64, f64)>,
    /// The vehicles that exited, ascending.
    exits: Vec<VehicleId>,
    /// The vehicles that entered, in id order.
    spawned: Vec<Vehicle>,
    /// Where the step's gap collapses happened.
    collided: Vec<f64>,
    elapsed: f64,
    next_lane: [u8; 2],
    last_entered: [Option<VehicleId>; 2],
    collisions: u64,
    /// The planar position of each vehicle active after the step, in
    /// ascending id order.
    positions: Vec<Position>,
    /// Indices into `positions`, ascending, of the vehicles whose cell
    /// under `cells` changed in the step; never one that entered in it.
    crossers: Vec<u32>,
    cells: CellGrid,
}

impl StepOutput {
    /// An empty record with room for a step of `vehicles` active vehicles.
    #[must_use]
    pub fn with_capacity(vehicles: usize) -> Self {
        StepOutput {
            motion: Vec::with_capacity(vehicles),
            positions: Vec::with_capacity(vehicles),
            ..StepOutput::default()
        }
    }

    /// The planar position of each vehicle active after the step, in
    /// ascending id order: survivors, then the vehicles that entered.
    #[must_use]
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Indices into [`StepOutput::positions`], ascending, of the vehicles
    /// that crossed into another cell of [`StepOutput::cells`] in the
    /// step. A vehicle that entered in the step is never among them.
    #[must_use]
    pub fn crossers(&self) -> &[u32] {
        &self.crossers
    }

    /// The grid the crossings are of.
    #[must_use]
    pub fn cells(&self) -> CellGrid {
        self.cells
    }
}

impl fmt::Debug for TrafficSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TrafficSim")
            .field("elapsed", &self.elapsed)
            .field("on_road", &self.count_on_road())
            .field("total_spawned", &self.vehicles.len())
            .field("hazards", &self.hazards.len())
            .field("collisions", &self.collisions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(sim: &mut TrafficSim, seconds: f64) {
        let steps = (seconds / 0.1).round() as usize;
        for _ in 0..steps {
            sim.step(0.1);
        }
    }

    #[test]
    fn free_term_memo_returns_the_term_of_each_speed() {
        let idm = IdmParams::paper_default();
        let mut memo = FreeTerms::new();
        // Far more speeds than slots, so most of them collide, and each
        // asked twice, once after the others evicted it.
        let speeds: Vec<f64> = (0..4_000).map(|k| f64::from(k) * 0.012_345 + 0.1).collect();
        for _ in 0..2 {
            for &v in &speeds {
                assert_eq!(memo.get(&idm, v).to_bits(), idm.free_term(v).to_bits(), "v = {v}");
            }
        }
        assert_eq!(memo.get(&idm, 0.0).to_bits(), idm.free_term(0.0).to_bits());
    }

    #[test]
    fn prefill_matches_spacing() {
        let sim = TrafficSim::new(RoadConfig::paper_default());
        // 4 000 / 30 = 133 vehicles pre-filled.
        assert_eq!(sim.count_on_road(), 133);
        // Consecutive vehicles in the direction stream are `spacing` apart.
        let mut ss: Vec<f64> = sim.active_vehicles().map(|v| v.s).collect();
        ss.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in ss.windows(2) {
            assert!((w[1] - w[0] - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn prefill_alternates_lanes() {
        let sim = TrafficSim::new(RoadConfig::paper_default());
        let mut by_lane = [0usize; 2];
        for v in sim.active_vehicles() {
            by_lane[v.lane as usize] += 1;
        }
        assert!(by_lane[0].abs_diff(by_lane[1]) <= 1, "{by_lane:?}");
    }

    #[test]
    fn two_way_prefills_both_directions() {
        let sim = TrafficSim::new(RoadConfig::paper_two_way());
        assert_eq!(sim.count_on_road(), 266);
        assert!(sim.active_vehicles().any(|v| v.direction == Direction::West));
    }

    #[test]
    fn steady_state_flow_is_stable() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        run(&mut sim, 60.0);
        // Entries balance exits: the on-road count stays near 133.
        let n = sim.count_on_road();
        assert!((120..=146).contains(&n), "count = {n}");
        // No collisions under pure IDM.
        assert_eq!(sim.collisions(), 0);
    }

    #[test]
    fn vehicles_exit_at_far_end() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        run(&mut sim, 10.0);
        // After 10 s the head vehicle is past the segment but still
        // simulated (coasting through the off-road margin)...
        assert!(sim.all_vehicles().iter().all(|v| !v.exited));
        assert!(sim.active_vehicles().any(|v| v.s > 4_000.0));
        // ...and after 30 s it has cleared the margin and is gone.
        run(&mut sim, 20.0);
        assert!(sim.all_vehicles().iter().any(|v| v.exited));
    }

    #[test]
    fn spawn_rate_approximates_paper_volume() {
        // ≈1 vehicle/second at 30 m spacing and 30 m/s (the paper's
        // 94 951 AADT ≈ 1.1 vehicles/second).
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        let before = sim.all_vehicles().len();
        run(&mut sim, 100.0);
        let spawned = sim.all_vehicles().len() - before;
        assert!((85..=115).contains(&spawned), "spawned {spawned} in 100 s");
    }

    #[test]
    fn closed_gate_stops_entries() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.set_entry_open(Direction::East, false);
        let before = sim.all_vehicles().len();
        run(&mut sim, 30.0);
        assert_eq!(sim.all_vehicles().len(), before);
        assert!(!sim.entry_open(Direction::East));
    }

    #[test]
    fn hazard_queues_traffic() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 3_600.0);
        run(&mut sim, 120.0);
        // Vehicles queue behind the hazard: none straddle it, and the
        // closest queued vehicle is (nearly) stopped short of it.
        let max_s = sim.active_vehicles().map(|v| v.s).fold(f64::NEG_INFINITY, f64::max);
        assert!(max_s < 3_600.0, "vehicle passed the hazard: {max_s}");
        let queue_head =
            sim.active_vehicles().max_by(|a, b| a.s.partial_cmp(&b.s).unwrap()).unwrap();
        assert!(queue_head.v < 1.0, "queue head still moving at {} m/s", queue_head.v);
        // With the gate open the jam grows past the steady-state count.
        assert!(sim.count_on_road() > 140, "count = {}", sim.count_on_road());
        assert_eq!(sim.collisions(), 0);
    }

    #[test]
    fn hazard_lets_downstream_vehicles_exit() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 3_600.0);
        let downstream: Vec<VehicleId> =
            sim.active_vehicles().filter(|v| v.s > 3_600.0).map(|v| v.id).collect();
        assert!(!downstream.is_empty());
        // Worst case: (4 600 − 3 610) / 30 ≈ 33 s to clear the margin.
        run(&mut sim, 50.0);
        for id in downstream {
            assert!(sim.vehicle(id).exited, "{id} should have exited");
        }
    }

    #[test]
    fn clear_hazards_releases_queue() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 1_000.0);
        run(&mut sim, 60.0);
        sim.clear_hazards(Direction::East);
        run(&mut sim, 30.0);
        let max_s = sim.active_vehicles().map(|v| v.s).fold(f64::NEG_INFINITY, f64::max);
        assert!(max_s > 1_000.0, "queue did not release: {max_s}");
    }

    #[test]
    fn wider_spacing_lowers_density() {
        let sparse = TrafficSim::new(RoadConfig::paper_default().with_spacing(300.0));
        assert_eq!(sparse.count_on_road(), 13); // 4000/300
    }

    #[test]
    #[should_panic(expected = "outside road")]
    fn hazard_outside_road_panics() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.add_hazard(Direction::East, 4_500.0);
    }

    #[test]
    #[should_panic(expected = "invalid timestep")]
    fn step_rejects_bad_dt() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        sim.step(0.0);
    }

    #[test]
    fn determinism_same_config_same_trajectory() {
        let mut a = TrafficSim::new(RoadConfig::paper_default());
        let mut b = TrafficSim::new(RoadConfig::paper_default());
        run(&mut a, 20.0);
        run(&mut b, 20.0);
        assert_eq!(a.all_vehicles().len(), b.all_vehicles().len());
        for (va, vb) in a.all_vehicles().iter().zip(b.all_vehicles()) {
            assert_eq!(va, vb);
        }
    }

    #[test]
    fn debug_output_mentions_counts() {
        let sim = TrafficSim::new(RoadConfig::paper_default());
        let s = format!("{sim:?}");
        assert!(s.contains("on_road"), "{s}");
    }

    #[test]
    fn positions_track_longitudinal_motion() {
        let mut sim = TrafficSim::new(RoadConfig::paper_default());
        let id = sim.active_vehicles().next().unwrap().id;
        let before = sim.position(id);
        run(&mut sim, 1.0);
        let v = sim.vehicle(id);
        if !v.exited {
            let after = sim.position(id);
            assert!(after.x > before.x, "eastbound vehicle must move east");
        }
    }
}

/// Model test of the buffered step against the implementation it
/// replaced: a `HashMap` of freshly allocated lane vectors, rebuilt every
/// step from a scan of every vehicle ever spawned. The oracle below keeps
/// that step, its spawn rule and the pre-fill verbatim; only the type
/// name differs.
#[cfg(test)]
mod oracle_tests {
    use super::*;
    use geonet_sim::{shared, SimTime, Telemetry, TraceEvent, TraceRecord, Tracer, VecSink};
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    struct Oracle {
        road: RoadConfig,
        vehicles: Vec<Vehicle>,
        hazards: Vec<Hazard>,
        entry_open: HashMap<Direction, bool>,
        next_lane: HashMap<Direction, u8>,
        last_entered: HashMap<Direction, VehicleId>,
        collisions: u64,
        elapsed: f64,
        tracer: Tracer,
        telemetry: Telemetry,
    }

    impl Oracle {
        fn new(road: RoadConfig) -> Self {
            road.validate().unwrap_or_else(|e| panic!("invalid road config: {e}"));
            let mut sim = Oracle {
                road,
                vehicles: Vec::new(),
                hazards: Vec::new(),
                entry_open: road.directions().iter().map(|&d| (d, true)).collect(),
                next_lane: road.directions().iter().map(|&d| (d, 0)).collect(),
                last_entered: HashMap::new(),
                collisions: 0,
                elapsed: 0.0,
                tracer: Tracer::disabled(),
                telemetry: Telemetry::disabled(),
            };
            sim.prefill();
            sim
        }

        fn prefill(&mut self) {
            for &direction in self.road.directions() {
                let mut lane = 0u8;
                let mut s = self.road.length;
                while s >= self.road.spacing {
                    let id = self.push_vehicle(direction, lane, s, self.road.entry_speed);
                    self.last_entered.insert(direction, id);
                    lane = (lane + 1) % self.road.lanes_per_direction;
                    s -= self.road.spacing;
                }
                self.next_lane.insert(direction, lane);
            }
        }

        fn push_vehicle(&mut self, direction: Direction, lane: u8, s: f64, v: f64) -> VehicleId {
            let id = VehicleId(u32::try_from(self.vehicles.len()).expect("too many vehicles"));
            self.vehicles.push(Vehicle { id, direction, lane, s, v, exited: false });
            id
        }

        fn set_entry_open(&mut self, direction: Direction, open: bool) {
            self.entry_open.insert(direction, open);
        }

        fn entry_open(&self, direction: Direction) -> bool {
            self.entry_open.get(&direction).copied().unwrap_or(false)
        }

        fn add_hazard(&mut self, direction: Direction, s: f64) {
            self.hazards.push(Hazard { direction, s });
            self.tracer
                .emit(SimTime::from_secs_f64(self.elapsed), || TraceEvent::HazardOnset { x: s });
        }

        fn hazard_ahead(&self, direction: Direction, s: f64) -> Option<f64> {
            self.hazards
                .iter()
                .filter(|h| h.direction == direction && h.s > s)
                .map(|h| h.s)
                .min_by(|a, b| a.partial_cmp(b).expect("hazard positions are finite"))
        }

        pub fn step(&mut self, dt: f64) {
            assert!(dt.is_finite() && dt > 0.0, "invalid timestep: {dt}");
            let _span = self.telemetry.time("traffic_step_ns");
            self.elapsed += dt;

            // Group active vehicle indices per (direction, lane), sorted by
            // longitudinal position descending (leader first).
            let mut lanes: HashMap<(Direction, u8), Vec<usize>> = HashMap::new();
            for (i, v) in self.vehicles.iter().enumerate() {
                if !v.exited {
                    lanes.entry((v.direction, v.lane)).or_default().push(i);
                }
            }
            // Deterministic iteration: sort the lane keys.
            let mut keys: Vec<(Direction, u8)> = lanes.keys().copied().collect();
            keys.sort_by_key(|&(d, l)| (d == Direction::West, l));

            for key in keys {
                let mut idxs = lanes.remove(&key).expect("key from map");
                idxs.sort_by(|&a, &b| {
                    self.vehicles[b]
                        .s
                        .partial_cmp(&self.vehicles[a].s)
                        .expect("positions are finite")
                });
                // Compute accelerations against the current (pre-update) state,
                // then integrate — a synchronous update, standard for IDM.
                let mut accels = Vec::with_capacity(idxs.len());
                for (rank, &i) in idxs.iter().enumerate() {
                    let v = &self.vehicles[i];
                    let leader_gap = if rank == 0 {
                        None
                    } else {
                        let lead = &self.vehicles[idxs[rank - 1]];
                        Some((lead.s - self.road.vehicle_length - v.s, lead.v))
                    };
                    // A hazard acts as a stopped, zero-length leader.
                    let hazard_gap =
                        self.hazard_ahead(v.direction, v.s).map(|hs| (hs - v.s, 0.0f64));
                    let binding = match (leader_gap, hazard_gap) {
                        (Some(l), Some(h)) => Some(if l.0 <= h.0 { l } else { h }),
                        (l, h) => l.or(h),
                    };
                    let a = match binding {
                        Some((gap, lead_v)) => {
                            if gap <= 0.0 {
                                // Gap collapse: scripted interference (never
                                // produced by IDM itself). Record and stop dead.
                                self.collisions += 1;
                                let x = v.s;
                                self.tracer.emit(SimTime::from_secs_f64(self.elapsed), || {
                                    TraceEvent::Collision { x }
                                });
                                -f64::INFINITY // sentinel: stop below
                            } else {
                                self.road.idm.acceleration(v.v, gap, v.v - lead_v)
                            }
                        }
                        None => self.road.idm.free_road_acceleration(v.v),
                    };
                    accels.push(a);
                }
                for (&i, &a) in idxs.iter().zip(&accels) {
                    let veh = &mut self.vehicles[i];
                    if a == -f64::INFINITY {
                        veh.v = 0.0;
                        continue;
                    }
                    let v_new = (veh.v + a * dt).max(0.0);
                    veh.s += (veh.v + v_new) / 2.0 * dt;
                    veh.v = v_new;
                }
            }

            // Exits: the vehicle has driven past the off-road margin and can
            // no longer matter to anything on the segment.
            let cutoff = self.road.length + self.road.offroad_margin;
            for v in &mut self.vehicles {
                if !v.exited && v.s > cutoff {
                    v.exited = true;
                }
            }

            // Entries.
            let directions: Vec<Direction> = self.road.directions().to_vec();
            for direction in directions {
                self.try_spawn(direction);
            }
        }

        fn try_spawn(&mut self, direction: Direction) {
            if !self.entry_open(direction) {
                return;
            }
            if let Some(&last) = self.last_entered.get(&direction) {
                let lv = &self.vehicles[last.index()];
                if !lv.exited && lv.s <= self.road.spacing {
                    return;
                }
            }
            let lane = *self.next_lane.get(&direction).unwrap_or(&0);
            // Lane safety: the rearmost vehicle in the target lane must also be
            // clear of the entrance.
            let lane_clear = self
                .vehicles
                .iter()
                .filter(|v| !v.exited && v.direction == direction && v.lane == lane)
                .all(|v| v.s > self.road.spacing);
            if !lane_clear {
                return;
            }
            let id = self.push_vehicle(direction, lane, 0.0, self.road.entry_speed);
            self.last_entered.insert(direction, id);
            self.next_lane.insert(direction, (lane + 1) % self.road.lanes_per_direction);
        }
    }

    /// One scripted intervention, applied to both simulations before the
    /// step it names.
    #[derive(Debug, Clone, Copy)]
    enum Script {
        /// A hazard in the direction `west`, at `frac` of the road, or
        /// `near` metres ahead of the `pick`-th active vehicle of that
        /// direction (hard braking, and gap collapse behind it).
        Hazard { west: bool, frac: f64, near: Option<(usize, f64)> },
        /// Opens or closes an entry gate.
        Gate { west: bool, open: bool },
        /// Moves the `pick`-th active vehicle level with the vehicle ahead
        /// of it in its lane: a gap collapse whose outcome depends on how
        /// the stable lane sort orders vehicles at equal positions.
        PileUp { pick: usize },
    }

    fn hazard() -> impl Strategy<Value = (usize, Script)> {
        let near = prop::option::of((0usize..1_000, 0.0f64..5.0));
        (0usize..3_000, any::<bool>(), 0.0f64..1.0, near)
            .prop_map(|(at, west, frac, near)| (at, Script::Hazard { west, frac, near }))
    }

    fn gate() -> impl Strategy<Value = (usize, Script)> {
        (0usize..3_000, any::<bool>(), any::<bool>())
            .prop_map(|(at, west, open)| (at, Script::Gate { west, open }))
    }

    fn pile_up() -> impl Strategy<Value = (usize, Script)> {
        (0usize..3_000, 0usize..1_000).prop_map(|(at, pick)| (at, Script::PileUp { pick }))
    }

    fn direction(road: &RoadConfig, west: bool) -> Direction {
        if west && road.two_way {
            Direction::West
        } else {
            Direction::East
        }
    }

    /// A script resolved against the current state: the same mutation
    /// for every simulation holding that state.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        Hazard(Direction, f64),
        Gate(Direction, bool),
        /// Sets a vehicle's longitudinal position.
        Move(VehicleId, f64),
    }

    /// Resolves `script` against `sim`'s state, if it changes anything.
    fn resolve(sim: &TrafficSim, script: Script) -> Option<Action> {
        let road = sim.road;
        match script {
            Script::Hazard { west, frac, near } => {
                let d = direction(&road, west);
                let mut s = frac * road.length;
                if let Some((pick, ahead)) = near {
                    let ss: Vec<f64> =
                        sim.active_vehicles().filter(|v| v.direction == d).map(|v| v.s).collect();
                    if !ss.is_empty() {
                        s = (ss[pick % ss.len()] + ahead).min(road.length);
                    }
                }
                Some(Action::Hazard(d, s))
            }
            Script::Gate { west, open } => Some(Action::Gate(direction(&road, west), open)),
            Script::PileUp { pick } => {
                let active: Vec<Vehicle> = sim.active_vehicles().copied().collect();
                let v = *active.get(pick % active.len().max(1))?;
                let leader = active
                    .iter()
                    .filter(|l| l.direction == v.direction && l.lane == v.lane && l.s > v.s)
                    .min_by(|a, b| a.s.partial_cmp(&b.s).expect("finite"))?;
                Some(Action::Move(v.id, leader.s))
            }
        }
    }

    /// Applies `action` to `sim`, emitting what the scenario world emits
    /// for it through `tracer`.
    fn act(sim: &mut TrafficSim, tracer: &Tracer, action: Action) {
        match action {
            Action::Hazard(d, s) => {
                sim.add_hazard(d, s);
                tracer.emit(SimTime::from_secs_f64(sim.elapsed()), || TraceEvent::HazardOnset {
                    x: s,
                });
            }
            Action::Gate(d, open) => sim.set_entry_open(d, open),
            Action::Move(id, s) => {
                sim.vehicles[id.index()].s = s;
                sim.keyed = None;
            }
        }
    }

    fn act_oracle(oracle: &mut Oracle, action: Action) {
        match action {
            Action::Hazard(d, s) => oracle.add_hazard(d, s),
            Action::Gate(d, open) => oracle.set_entry_open(d, open),
            Action::Move(id, s) => oracle.vehicles[id.index()].s = s,
        }
    }

    /// Emits the last step's gap collapses through `tracer`, as the
    /// scenario world does.
    fn emit_collisions(sim: &TrafficSim, tracer: &Tracer) {
        for &x in sim.collisions_last_step() {
            tracer.emit(SimTime::from_secs_f64(sim.elapsed()), || TraceEvent::Collision { x });
        }
    }

    fn traced() -> (Tracer, Rc<RefCell<VecSink>>) {
        let sink = shared(VecSink::new());
        (Tracer::attached(sink.clone()), sink)
    }

    /// The actions of the scripts due before `step`, resolved in order
    /// against `sim` (a pile-up sees the hazards placed before it).
    fn due(scripts: &[(usize, Script)], step: usize, sim: &TrafficSim) -> Vec<Action> {
        let mut probe = sim.clone();
        let mut actions = Vec::new();
        for &(_, script) in scripts.iter().filter(|(at, _)| *at == step) {
            if let Some(action) = resolve(&probe, script) {
                act(&mut probe, &Tracer::disabled(), action);
                actions.push(action);
            }
        }
        actions
    }

    /// Steps both simulations `steps` times and compares them bit for bit
    /// after every step.
    fn check(road: RoadConfig, steps: usize, scripts: &[(usize, Script)]) -> Result<(), String> {
        let mut sim = TrafficSim::new(road);
        let mut oracle = Oracle::new(road);
        let (sim_tracer, sim_sink) = traced();
        let (tracer, oracle_sink) = traced();
        oracle.tracer = tracer;
        for step in 0..steps {
            for action in due(scripts, step, &sim) {
                act(&mut sim, &sim_tracer, action);
                act_oracle(&mut oracle, action);
            }
            let active_before: Vec<VehicleId> = sim.active_vehicles().map(|v| v.id).collect();
            sim.step(0.1);
            emit_collisions(&sim, &sim_tracer);
            oracle.step(0.1);

            let fail = |what: String| Err(format!("step {step}: {what}"));
            if sim.all_vehicles().len() != oracle.vehicles.len() {
                return fail(format!(
                    "{} vehicles, oracle {}",
                    sim.all_vehicles().len(),
                    oracle.vehicles.len()
                ));
            }
            for (a, b) in sim.all_vehicles().iter().zip(&oracle.vehicles) {
                let same = a.id == b.id
                    && a.direction == b.direction
                    && a.lane == b.lane
                    && a.s.to_bits() == b.s.to_bits()
                    && a.v.to_bits() == b.v.to_bits()
                    && a.exited == b.exited;
                if !same {
                    return fail(format!("{a} differs from oracle {b}"));
                }
            }
            if sim.collisions() != oracle.collisions {
                return fail(format!(
                    "{} collisions, oracle {}",
                    sim.collisions(),
                    oracle.collisions
                ));
            }
            let events: Vec<TraceRecord> = sim_sink.borrow_mut().drain();
            let oracle_events: Vec<TraceRecord> = oracle_sink.borrow_mut().drain();
            if events != oracle_events {
                return fail(format!("trace {events:?}, oracle {oracle_events:?}"));
            }
            // The active list is the non-exited vehicles in id order, and
            // the step's exits are the ones it just marked.
            let active: Vec<VehicleId> = sim.active_vehicles().map(|v| v.id).collect();
            let expected: Vec<VehicleId> =
                oracle.vehicles.iter().filter(|v| !v.exited).map(|v| v.id).collect();
            if active != expected {
                return fail(format!("active list {active:?}, expected {expected:?}"));
            }
            let exits: Vec<VehicleId> =
                active_before.into_iter().filter(|id| oracle.vehicles[id.index()].exited).collect();
            if sim.exited_last_step() != exits {
                return fail(format!("exits {:?}, expected {exits:?}", sim.exited_last_step()));
            }
        }
        Ok(())
    }

    /// Steps one simulation in place and brings another along by applying
    /// the steps a third one records into a ring of reused buffers, as the
    /// scenario world's mobility helper does: the recording copy is cloned
    /// from the applied one at the start and after every mutation, and it
    /// runs up to `ring` steps ahead. Compares the applied simulation
    /// with the in-place one after every step, and each record's landing
    /// (positions and cell crossings under a grid of `cell` metres) with
    /// the vehicles' positions before and after it and with the landing
    /// the in-place simulation records.
    fn check_applied(
        road: RoadConfig,
        steps: usize,
        ring: usize,
        cell: f64,
        scripts: &[(usize, Script)],
    ) -> Result<(), String> {
        let cells = CellGrid::new(cell);
        let mut sim = TrafficSim::new(road);
        let mut applied = sim.clone();
        let mut helper: Option<TrafficSim> = None;
        let mut buffers = vec![StepOutput::default(); ring];
        let mut landing = StepOutput::default();
        let (mut produced, mut consumed) = (0usize, 0usize);
        let disabled = Tracer::disabled();
        for step in 0..steps {
            let actions = due(scripts, step, &sim);
            if !actions.is_empty() {
                // A mutation drops the lookahead.
                helper = None;
                consumed = produced;
            }
            for action in actions {
                act(&mut sim, &disabled, action);
                act(&mut applied, &disabled, action);
            }
            sim.step_landing(0.1, cells, &mut landing);
            let ahead = helper.get_or_insert_with(|| applied.clone());
            while produced - consumed < ring {
                ahead.step_into(0.1, cells, &mut buffers[produced % ring]);
                produced += 1;
            }
            let cell_before: Vec<(VehicleId, u64)> = applied
                .active_vehicles()
                .map(|v| (v.id, cells.key_of(v.position(applied.road()))))
                .collect();
            let out = &buffers[consumed % ring];
            applied.apply(out);
            consumed += 1;

            let digest = |t: &TrafficSim| {
                let mut h = StateHasher::new();
                t.digest_into(&mut h);
                h.finish()
            };
            let fail = |what: String| Err(format!("step {step}: {what}"));
            if digest(&applied) != digest(&sim) {
                return fail("applied digest differs from in-place stepping".into());
            }
            let active: Vec<VehicleId> = applied.active_vehicles().map(|v| v.id).collect();
            let expected: Vec<VehicleId> = sim.active_vehicles().map(|v| v.id).collect();
            if active != expected {
                return fail(format!("active list {active:?}, expected {expected:?}"));
            }
            if applied.exited_last_step() != sim.exited_last_step() {
                return fail(format!(
                    "exits {:?}, expected {:?}",
                    applied.exited_last_step(),
                    sim.exited_last_step()
                ));
            }
            let bits = |t: &TrafficSim| -> Vec<u64> {
                t.collisions_last_step().iter().map(|x| x.to_bits()).collect()
            };
            if bits(&applied) != bits(&sim) {
                return fail(format!(
                    "collisions at {:?}, expected {:?}",
                    applied.collisions_last_step(),
                    sim.collisions_last_step()
                ));
            }
            let positions: Vec<Position> =
                sim.active_vehicles().map(|v| v.position(sim.road())).collect();
            if out.positions() != positions {
                return fail("landed positions differ from the vehicles'".into());
            }
            let crossers: Vec<u32> = sim
                .active_vehicles()
                .enumerate()
                .filter(|(_, v)| {
                    let before = cell_before.binary_search_by_key(&v.id, |&(id, _)| id);
                    before.is_ok_and(|i| cell_before[i].1 != cells.key_of(v.position(sim.road())))
                })
                .map(|(i, _)| i as u32)
                .collect();
            if out.crossers() != crossers || out.cells() != cells {
                return fail(format!("crossers {:?}, expected {crossers:?}", out.crossers()));
            }
            if landing.positions() != positions || landing.crossers() != crossers {
                return fail(format!("in place: crossers {:?}", landing.crossers()));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_step_matches_oracle_bit_for_bit(
            two_way in any::<bool>(),
            lanes in 1u8..=3,
            spacing in 10.0f64..300.0,
            // Half the roads are so short that the entry headway can
            // exceed length + off-road margin: a vehicle that exits then
            // still lies within `spacing` of the entrance.
            extent in prop_oneof![
                (50.0f64..300.0, 10.0f64..100.0),
                (400.0f64..4_000.0, 600.0f64..601.0),
            ],
            steps in 1usize..=3_000,
            hazards in prop::collection::vec(hazard(), 0..4),
            gates in prop::collection::vec(gate(), 0..6),
            pile_ups in prop::collection::vec(pile_up(), 0..3))
        {
            let (length, offroad_margin) = extent;
            let road = RoadConfig {
                length,
                lanes_per_direction: lanes,
                two_way,
                spacing,
                offroad_margin,
                ..RoadConfig::paper_default()
            };
            let scripts: Vec<(usize, Script)> = [hazards, gates, pile_ups].concat();
            let result = check(road, steps, &scripts);
            prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }

        #[test]
        fn prop_applied_steps_match_stepping_in_place(
            two_way in any::<bool>(),
            lanes in 1u8..=3,
            spacing in 10.0f64..300.0,
            extent in prop_oneof![
                (50.0f64..300.0, 10.0f64..100.0),
                (400.0f64..4_000.0, 600.0f64..601.0),
            ],
            steps in 1usize..=3_000,
            ring in 1usize..=16,
            cell in prop_oneof![1.0f64..50.0, 50.0f64..2_000.0],
            hazards in prop::collection::vec(hazard(), 0..4),
            gates in prop::collection::vec(gate(), 0..6),
            pile_ups in prop::collection::vec(pile_up(), 0..3))
        {
            let (length, offroad_margin) = extent;
            let road = RoadConfig {
                length,
                lanes_per_direction: lanes,
                two_way,
                spacing,
                offroad_margin,
                ..RoadConfig::paper_default()
            };
            let scripts: Vec<(usize, Script)> = [hazards, gates, pile_ups].concat();
            let result = check_applied(road, steps, ring, cell, &scripts);
            prop_assert!(result.is_ok(), "{}", result.unwrap_err());
        }
    }
}
