//! `bench_summary` — dependency-free micro-runner behind the audit PR's
//! acceptance criterion.
//!
//! Criterion lives in `dev-dependencies`, so binaries cannot use it;
//! this runner times the `handle_frame` hot path with plain
//! `std::time::Instant` batches and writes best-case timings to a small JSON
//! report (default `BENCH_audit.json`, or the path given as the first
//! argument).
//!
//! ```text
//! bench_summary [AUDIT_OUT.json] [TOPO_OUT.json] [RADIO_OUT.json] [PARALLEL_OUT.json] [--check]
//! ```
//!
//! Measured variants: tracer/telemetry/auditor all off (the baseline),
//! tracer attached to a `NullSink`, telemetry attached to a registry,
//! and auditor detached (the audit layer samples at the world level, so
//! this must be indistinguishable from the baseline — the recorded
//! `auditor_detached_regression_pct` is the acceptance number). The
//! report also prices one audit checkpoint: a loaded router digest and a
//! whole-world digest sample.
//!
//! A second report (default `BENCH_topo.json`) does the same for the
//! topology observer, at the level it hooks: the world's traffic step.
//! Two same-seed default worlds — both with the observer in its default
//! detached state — advance in interleaved lockstep. Both run the same
//! code, so one such pair measures noise alone (one pair in four read
//! over 2 % on a shared 2-vCPU host); the recorded
//! `topo_detached_regression_pct` is the median divergence of
//! [`TOPO_PAIRS`] fresh pairs, with the baseline and detached roles
//! swapped on alternate pairs. No core is left spare meanwhile, so
//! neither world steps its traffic on a helper thread. The report also
//! prices an attached observer's step (5 s snapshot interval) and one
//! whole-world snapshot.
//!
//! A third report (default `BENCH_radio.json`) gates the spatial-indexed
//! medium: the delivery path `World::transmit` actually ships
//! (grid-backed `receivers_into` on a reused buffer) against the
//! pre-index delivery path (the allocating linear scan,
//! `receivers_within_linear`), interleaved, on the paper's two-lane
//! road at 30/100/300 m inter-vehicle spacing. The new path must win
//! at 30 m (the dense case the index exists for) and must not regress
//! the 300 m sparse case by 2% or more; the allocating grid wrapper is
//! reported alongside as the alloc-matched index-only comparison, and
//! `grid_fanout_ns` times the unordered one-pass fan-out that logged
//! beacons take (`Medium::fan_out`, each receiver's id and its delay
//! from a `DelayTable`).
//!
//! A fourth report (default `BENCH_parallel.json`) gates the campaign
//! job pool: an interarea `run_ab` campaign timed under `jobs = 1` vs
//! `jobs = 4` plus the pre-pool hand-written loop. Each sample times
//! both sides of a pair back to back, the first side alternating from
//! sample to sample, and the pair is summarised by the median of the
//! per-sample ratios ([`pair_summary`]), so neither side always runs
//! first into a warm or a cold spell. The pooled sequential path must
//! stay within 2% of the raw loop, the `jobs = 4` report must be
//! byte-identical to `jobs = 1` (hard gate), and on hosts that actually
//! have ≥ 4 cores the campaign must run ≥ 2× faster — on smaller hosts
//! the speedup number is recorded but the gate is skipped
//! (`speedup_gate_enforced: false`).
//!
//! At `jobs = 1` each world may step its traffic on a spare core
//! (DESIGN.md, "Mobility plane ahead"); the raw loop and the pooled
//! sequential path run at `jobs = 1` alike, so the 2% gate still
//! compares like with like. `speedup_4jobs` is the speedup of four pool
//! workers over one worker plus its mobility helper: on a host with 4 or
//! more cores the `jobs = 1` side already uses two of them.
//!
//! `--check` exits nonzero if the detached auditor or the detached
//! topology observer regresses its baseline by 2% or more, or if any of
//! the radio/parallel gates above fails.

use geonet::wire::GnPacket;
use geonet::{CertificateAuthority, Frame, GnAddress, GnConfig, GnRouter};
use geonet_geo::{GeoReference, Heading, Position};
use geonet_radio::{DelayTable, Medium, NodeId};
use geonet_scenarios::config::Scale;
use geonet_scenarios::report::paper_bins;
use geonet_scenarios::{interarea, parallel, ScenarioConfig, World};
use geonet_sim::{
    shared, shared_registry, shared_topo, NullSink, SimDuration, SimTime, StateHasher, Telemetry,
    Tracer,
};
use std::hint::black_box;
use std::time::Instant;

/// Per-sample iteration count: large enough that one `Instant` read
/// amortises to well under a nanosecond per op.
const BATCH: u32 = 20_000;
/// Number of timed batches per variant; the per-batch *minimum* defeats
/// scheduler noise and one-off cache misses. (Preemption and frequency
/// throttling only ever add time, so on a shared runner the fastest
/// batch is the tightest estimate of the code's true cost — medians
/// flaked the 2% gates by ±3.5% on loaded single-core hosts.)
const SAMPLES: usize = 31;

fn fastest(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

/// Collapses paired interleaved samples into two comparable numbers:
/// `a`'s best batch sets the absolute scale, and `b` is placed relative
/// to it by the *median of per-sample ratios* `b[i] / a[i]`. Each ratio
/// comes from two batches only milliseconds apart, so sustained
/// slowdowns (frequency scaling, steal time) hit both sides of a ratio
/// multiplicatively and cancel — unlike `min(a)` vs `min(b)`, which may
/// pick its two minima from differently-throttled time windows and
/// manufacture a delta between identical code paths.
fn pair_summary(pa: Vec<f64>, pb: Vec<f64>) -> (f64, f64) {
    let mut ratios: Vec<f64> = pa.iter().zip(&pb).map(|(a, b)| b / a).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let ratio = ratios[ratios.len() / 2];
    let best_a = fastest(pa);
    (best_a, best_a * ratio)
}

/// Best-case ns/op of `f` over [`SAMPLES`] batches of [`BATCH`] calls.
fn time_ns(mut f: impl FnMut()) -> f64 {
    for _ in 0..BATCH {
        f(); // warm-up: fill caches, settle branch predictors
    }
    let mut per_op = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        per_op.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    fastest(per_op)
}

/// Best-case ns/op of two closures with their batches interleaved, so CPU
/// frequency drift and cache warm-up hit both sides equally — the only
/// honest way to resolve a sub-2% difference between near-identical
/// code paths.
fn time_pair_ns(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    for _ in 0..BATCH {
        a();
        b();
    }
    let (mut pa, mut pb) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            a();
        }
        pa.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
        let t0 = Instant::now();
        for _ in 0..BATCH {
            b();
        }
        pb.push(t0.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    pair_summary(pa, pb)
}

fn beacon_pv(ca: &CertificateAuthority, addr: u64, x: f64) -> Frame {
    let pv = geonet::LongPositionVector::from_sim(
        GnAddress::vehicle(addr),
        SimTime::from_secs(1),
        Position::new(x, 2.5),
        30.0,
        Heading::EAST,
        &GeoReference::default(),
    );
    let beacon = ca.enroll(GnAddress::vehicle(addr)).sign(GnPacket::beacon(pv));
    Frame::broadcast(GnAddress::vehicle(addr), Position::new(x, 2.5), beacon)
}

fn fresh_router(ca: &CertificateAuthority) -> GnRouter {
    GnRouter::new(
        ca.enroll(GnAddress::vehicle(1)),
        ca.verifier(),
        GnConfig::paper_default(1_283.0),
        GeoReference::default(),
    )
}

/// Simulated seconds each world advances per timed sample; even, so the
/// first-mover alternation inside a sample splits exactly 50/50, and
/// small enough that [`SAMPLES`] interleaved samples stay far inside the
/// horizon.
const WORLD_SECONDS_PER_SAMPLE: u64 = 4;

/// Best-case ns per simulated second of two same-seed worlds advancing in
/// interleaved lockstep — the world-level analogue of [`time_pair_ns`],
/// so traffic growth and frequency drift hit both sides equally.
fn time_world_pair_ns(a: &mut World, b: &mut World, from_s: u64) -> (f64, f64) {
    let (mut pa, mut pb) = (Vec::with_capacity(SAMPLES), Vec::with_capacity(SAMPLES));
    let mut t = from_s;
    for _ in 0..SAMPLES {
        let (mut ea, mut eb) = (0u128, 0u128);
        for s in 1..=WORLD_SECONDS_PER_SAMPLE {
            // Alternate one-second slices, swapping who goes first each
            // second: cache state and frequency drift cancel out.
            let end = SimTime::from_secs(t + s);
            let (first, second, ef, es) = if s % 2 == 0 {
                (&mut *a, &mut *b, &mut ea, &mut eb)
            } else {
                (&mut *b, &mut *a, &mut eb, &mut ea)
            };
            let t0 = Instant::now();
            first.run_until(end);
            *ef += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            second.run_until(end);
            *es += t0.elapsed().as_nanos();
        }
        pa.push(ea as f64 / WORLD_SECONDS_PER_SAMPLE as f64);
        pb.push(eb as f64 / WORLD_SECONDS_PER_SAMPLE as f64);
        t += WORLD_SECONDS_PER_SAMPLE;
    }
    pair_summary(pa, pb)
}

/// Fresh same-seed world pairs behind `topo_detached_regression_pct`: an
/// odd number, so that the median is one pair's, whose step times the
/// report shows.
const TOPO_PAIRS: usize = 5;

/// Whole-call seconds of two campaign closures, interleaved — one
/// sample is one full campaign, so far fewer samples than the
/// nanosecond batches above, summarised through the same
/// [`pair_summary`] ratio logic (a 300 ms campaign pair is still short
/// against the seconds-long load swings of a shared runner). Odd
/// samples run `b` first: with `a` always first, one of five gate runs
/// read the pooled path 3.54% slower than the raw loop on a 2-vCPU host.
const CAMPAIGN_SAMPLES: usize = 15;

fn time_campaign_pair_s(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    a(); // warm-up both sides once
    b();
    let (mut pa, mut pb) =
        (Vec::with_capacity(CAMPAIGN_SAMPLES), Vec::with_capacity(CAMPAIGN_SAMPLES));
    fn timed(f: &mut impl FnMut(), samples: &mut Vec<f64>) {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64());
    }
    for i in 0..CAMPAIGN_SAMPLES {
        if i % 2 == 0 {
            timed(&mut a, &mut pa);
            timed(&mut b, &mut pb);
        } else {
            timed(&mut b, &mut pb);
            timed(&mut a, &mut pa);
        }
    }
    pair_summary(pa, pb)
}

fn main() -> std::process::ExitCode {
    let mut check = false;
    let mut outs = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            other => outs.push(other.to_string()),
        }
    }
    let out = outs.first().cloned().unwrap_or_else(|| "BENCH_audit.json".to_string());
    let topo_out = outs.get(1).cloned().unwrap_or_else(|| "BENCH_topo.json".to_string());
    let radio_out = outs.get(2).cloned().unwrap_or_else(|| "BENCH_radio.json".to_string());
    let parallel_out = outs.get(3).cloned().unwrap_or_else(|| "BENCH_parallel.json".to_string());

    let ca = CertificateAuthority::new(1);
    let frame = beacon_pv(&ca, 2, 520.0);
    let own = Position::new(500.0, 2.5);
    let at = SimTime::from_secs(1);

    eprintln!("# timing handle_frame variants ({SAMPLES} x {BATCH} iters each)...");
    // The audit layer hooks the world's traffic step, not the router; a
    // detached auditor must therefore be the baseline in disguise. The
    // two sides are timed interleaved so the comparison resolves below
    // the 2% acceptance threshold.
    let mut r_base = fresh_router(&ca);
    let mut r_aud = fresh_router(&ca);
    let (baseline, auditor_detached) = time_pair_ns(
        || {
            black_box(r_base.handle_frame(black_box(&frame), own, at));
        },
        || {
            black_box(r_aud.handle_frame(black_box(&frame), own, at));
        },
    );
    let mut r = fresh_router(&ca);
    r.set_tracer(Tracer::attached(shared(NullSink)));
    let tracer_null = time_ns(|| {
        black_box(r.handle_frame(black_box(&frame), own, at));
    });
    let mut r = fresh_router(&ca);
    r.set_telemetry(Telemetry::attached(shared_registry()));
    let telemetry = time_ns(|| {
        black_box(r.handle_frame(black_box(&frame), own, at));
    });

    eprintln!("# timing audit digest costs...");
    let mut loaded = fresh_router(&ca);
    for i in 2..66u64 {
        let f = beacon_pv(&ca, i, i as f64 * 30.0);
        loaded.handle_frame(&f, own, at);
    }
    let router_digest = time_ns(|| {
        let mut h = StateHasher::new();
        loaded.digest_into(&mut h);
        black_box(h.finish());
    });
    let cfg = ScenarioConfig::paper_dsrc_default().with_duration(SimDuration::from_secs(3_600));
    let mut w = World::new(cfg, None, 42);
    w.run_until(SimTime::from_secs(5));
    let mut world_samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..100 {
            black_box(w.audit_checkpoint());
        }
        world_samples.push(t0.elapsed().as_nanos() as f64 / 100.0);
    }
    let world_checkpoint = fastest(world_samples);

    let regression_pct = (auditor_detached - baseline) / baseline * 100.0;
    let json = format!(
        "{{\n  \"bench\": \"handle_frame_beacon\",\n  \"samples\": {SAMPLES},\n  \
         \"batch_iters\": {BATCH},\n  \"baseline_ns\": {baseline:.2},\n  \
         \"tracer_null_sink_ns\": {tracer_null:.2},\n  \"telemetry_attached_ns\": {telemetry:.2},\n  \
         \"auditor_detached_ns\": {auditor_detached:.2},\n  \
         \"auditor_detached_regression_pct\": {regression_pct:.2},\n  \
         \"audit_router_digest_64_neighbors_ns\": {router_digest:.2},\n  \
         \"audit_world_checkpoint_ns\": {world_checkpoint:.2}\n}}\n"
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("error: writing {out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    print!("{json}");
    eprintln!("# wrote {out}");

    eprintln!("# timing world step with the topology observer detached vs attached...");
    // The topology observer hooks the traffic step exactly like the
    // auditor; its detached state is the world default, so both sides of
    // the pair run it — the measured divergence is the `Option` check
    // plus noise, and must stay under the same 2% bar. The pair steps on
    // one thread, so with a core spare only the world stepped first would
    // get a mobility helper; with the pool claiming every core, both step
    // their traffic inline.
    let warm = SimTime::from_secs(5);
    let mut pairs = Vec::with_capacity(TOPO_PAIRS);
    parallel::set_jobs(parallel::available_jobs());
    for pair in 0..TOPO_PAIRS {
        let mut w_base = World::new(cfg, None, 42);
        let mut w_det = World::new(cfg, None, 42);
        w_base.run_until(warm);
        w_det.run_until(warm);
        let (base, det) = if pair % 2 == 0 {
            time_world_pair_ns(&mut w_base, &mut w_det, 5)
        } else {
            let (det, base) = time_world_pair_ns(&mut w_det, &mut w_base, 5);
            (base, det)
        };
        pairs.push(((det - base) / base * 100.0, base, det));
    }
    parallel::set_jobs(1);
    // The median pair by divergence: its two step times are reported.
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timings"));
    let (topo_regression_pct, step_baseline, step_detached) = pairs[TOPO_PAIRS / 2];
    let mut w_att = World::new(cfg, None, 42);
    w_att.set_topo_observer(shared_topo(SimDuration::from_secs(5)));
    w_att.set_topo_destination(Position::new(4_020.0, 0.0));
    w_att.run_until(warm);
    let mut att_samples = Vec::with_capacity(SAMPLES);
    let mut t = 5u64;
    for _ in 0..SAMPLES {
        let end = t + WORLD_SECONDS_PER_SAMPLE;
        let t0 = Instant::now();
        w_att.run_until(SimTime::from_secs(end));
        att_samples.push(t0.elapsed().as_nanos() as f64 / WORLD_SECONDS_PER_SAMPLE as f64);
        t = end;
    }
    let step_attached = fastest(att_samples);
    let mut snap_samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        for _ in 0..100 {
            black_box(w_att.topo_snapshot());
        }
        snap_samples.push(t0.elapsed().as_nanos() as f64 / 100.0);
    }
    let world_snapshot = fastest(snap_samples);

    let topo_json = format!(
        "{{\n  \"bench\": \"world_step_topo\",\n  \"pairs\": {TOPO_PAIRS},\n  \
         \"samples\": {SAMPLES},\n  \
         \"seconds_per_sample\": {WORLD_SECONDS_PER_SAMPLE},\n  \
         \"baseline_step_ns\": {step_baseline:.2},\n  \
         \"topo_detached_step_ns\": {step_detached:.2},\n  \
         \"topo_detached_regression_pct\": {topo_regression_pct:.2},\n  \
         \"topo_attached_5s_step_ns\": {step_attached:.2},\n  \
         \"topo_world_snapshot_ns\": {world_snapshot:.2}\n}}\n"
    );
    if let Err(e) = std::fs::write(&topo_out, &topo_json) {
        eprintln!("error: writing {topo_out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    print!("{topo_json}");
    eprintln!("# wrote {topo_out}");

    eprintln!("# timing receiver queries: grid vs linear scan at 30/100/300 m spacing...");
    // The paper's road: 4 km, two lanes, one vehicle per `spacing`
    // metres, everyone at the DSRC NLoS-median 486 m range — in the state
    // a 200 s campaign run actually reaches: ids are dense and permanent,
    // so every vehicle that entered and left the road since t=0 is still
    // in the entry table, inactive. The linear scan visits those corpses
    // on every broadcast; the grid holds active nodes only. The queries
    // are the ones `World::transmit` issues per broadcast, from a
    // mid-road sender: the sorted `receivers_into` of eager deliveries,
    // and the unordered fan-out of logged beacons (`grid_fanout_ns`,
    // reported, not gated). The gated pair is shipped-path vs
    // shipped-path: before this index the delivery loop called the
    // allocating linear scan every broadcast, after it called
    // `receivers_into` on a reused buffer — so those two are interleaved
    // and drive both gates. `grid_ns` (the
    // allocating wrapper) is reported alongside as the alloc-matched,
    // index-only comparison; it is not gated because at sparse spacings
    // the ~10 ns wrapper overhead sits inside measurement noise.
    let mut spacing_rows = String::new();
    let mut grid_beats_linear_30m = false;
    let mut grid_regression_300m_pct = 0.0;
    let delays = DelayTable::<15>::new();
    for &spacing in &[30.0f64, 100.0, 300.0] {
        let mut m = Medium::new();
        let per_lane = (4_000.0 / spacing) as u32 + 1;
        for lane in 0..2u32 {
            for i in 0..per_lane {
                let _ = m.register(
                    Position::new(f64::from(i) * spacing, 2.5 + f64::from(lane) * 3.5),
                    486.0,
                );
            }
        }
        // Flow at ~30 m/s means one departure per lane every
        // `spacing / 30` seconds; after 200 s that is the retired-entry
        // backlog below (e.g. 400 at 30 m spacing).
        let retired = (200.0 * 2.0 * 30.0 / spacing) as u32;
        for i in 0..retired {
            let id = m.register(Position::new(f64::from(i % per_lane) * spacing, 2.5), 486.0);
            m.set_active(id, false);
        }
        let sender = NodeId(per_lane / 2);
        let mut buf = Vec::new();
        let (grid_into_ns, linear_ns) = time_pair_ns(
            || {
                m.receivers_into(black_box(sender), 486.0, &mut buf);
                black_box(&buf);
            },
            || {
                black_box(m.receivers_within_linear(black_box(sender), 486.0));
            },
        );
        let grid_ns = time_ns(|| {
            black_box(m.receivers_within(black_box(sender), 486.0));
        });
        let grid_fanout_ns = time_ns(|| {
            let mut sum = 0u64;
            m.fan_out(black_box(sender), 486.0, |rx, d2| {
                sum += u64::from(rx.0) + delays.delay_us(d2)
            });
            black_box(sum);
        });
        if spacing == 30.0 {
            grid_beats_linear_30m = grid_into_ns < linear_ns;
        }
        if spacing == 300.0 {
            grid_regression_300m_pct = (grid_into_ns - linear_ns) / linear_ns * 100.0;
        }
        if !spacing_rows.is_empty() {
            spacing_rows.push_str(",\n");
        }
        spacing_rows.push_str(&format!(
            "    {{ \"spacing_m\": {spacing:.0}, \"nodes\": {}, \"linear_ns\": {linear_ns:.2}, \
             \"grid_ns\": {grid_ns:.2}, \"grid_into_ns\": {grid_into_ns:.2}, \
             \"grid_fanout_ns\": {grid_fanout_ns:.2}, \"grid_speedup\": {:.2} }}",
            m.len(),
            linear_ns / grid_into_ns,
        ));
    }
    let radio_json = format!(
        "{{\n  \"bench\": \"radio_receiver_query\",\n  \"samples\": {SAMPLES},\n  \
         \"batch_iters\": {BATCH},\n  \"spacings\": [\n{spacing_rows}\n  ],\n  \
         \"grid_beats_linear_30m\": {grid_beats_linear_30m},\n  \
         \"grid_regression_300m_pct\": {grid_regression_300m_pct:.2}\n}}\n"
    );
    if let Err(e) = std::fs::write(&radio_out, &radio_json) {
        eprintln!("error: writing {radio_out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    print!("{radio_json}");
    eprintln!("# wrote {radio_out}");

    eprintln!("# timing campaign: sequential loop vs job pool ({CAMPAIGN_SAMPLES} samples)...");
    // One interarea A/B campaign, small enough to sample repeatedly. The
    // raw loop is the pre-pool code shape: merge each seeded pair as it
    // completes on the calling thread.
    let scale = Scale { runs: 4, duration_s: 40 };
    let campaign_cfg = ScenarioConfig::paper_dsrc_default().with_duration(scale.duration());
    let campaign_seed = 42u64;
    let raw_loop = || {
        let mut baseline = paper_bins(scale.duration());
        let mut attacked = paper_bins(scale.duration());
        for i in 0..scale.runs {
            let seed = campaign_seed.wrapping_add(u64::from(i) * 0x9E37);
            baseline.merge(&interarea::run_one(&campaign_cfg, false, seed));
            attacked.merge(&interarea::run_one(&campaign_cfg, true, seed));
        }
        black_box((baseline, attacked));
    };
    let pooled = |jobs: usize| {
        parallel::set_jobs(jobs);
        let r = interarea::run_ab(&campaign_cfg, "bench", scale, campaign_seed);
        parallel::set_jobs(1);
        r
    };
    let reports_byte_identical = {
        let seq = pooled(1);
        let par = pooled(4);
        seq == par && format!("{seq:?}") == format!("{par:?}")
    };
    let (raw_loop_s, jobs1_s) = time_campaign_pair_s(raw_loop, || {
        black_box(pooled(1));
    });
    let (jobs1b_s, jobs4_s) = time_campaign_pair_s(
        || {
            black_box(pooled(1));
        },
        || {
            black_box(pooled(4));
        },
    );
    let sequential_regression_pct = (jobs1_s - raw_loop_s) / raw_loop_s * 100.0;
    let speedup_4jobs = jobs1b_s / jobs4_s;
    let available = parallel::available_jobs();
    // A 2× speedup needs hardware that can actually run 4 workers; on
    // smaller hosts the number is recorded but not gated.
    let speedup_gate_enforced = available >= 4;
    let parallel_json = format!(
        "{{\n  \"bench\": \"campaign_parallelism\",\n  \
         \"campaign\": \"interarea run_ab, {} runs x {} s\",\n  \
         \"samples\": {CAMPAIGN_SAMPLES},\n  \"available_parallelism\": {available},\n  \
         \"raw_loop_s\": {raw_loop_s:.3},\n  \"jobs1_s\": {jobs1_s:.3},\n  \
         \"jobs4_s\": {jobs4_s:.3},\n  \
         \"sequential_regression_pct\": {sequential_regression_pct:.2},\n  \
         \"speedup_4jobs\": {speedup_4jobs:.2},\n  \
         \"reports_byte_identical\": {reports_byte_identical},\n  \
         \"speedup_gate_enforced\": {speedup_gate_enforced}\n}}\n",
        scale.runs, scale.duration_s,
    );
    if let Err(e) = std::fs::write(&parallel_out, &parallel_json) {
        eprintln!("error: writing {parallel_out}: {e}");
        return std::process::ExitCode::FAILURE;
    }
    print!("{parallel_json}");
    eprintln!("# wrote {parallel_out}");

    if check && regression_pct >= 2.0 {
        eprintln!("error: auditor-detached handle_frame regressed {regression_pct:.2}% (>= 2%)");
        return std::process::ExitCode::FAILURE;
    }
    if check && topo_regression_pct >= 2.0 {
        eprintln!("error: topo-detached world step regressed {topo_regression_pct:.2}% (>= 2%)");
        return std::process::ExitCode::FAILURE;
    }
    if check && !grid_beats_linear_30m {
        eprintln!("error: grid receiver query lost to the linear scan at 30 m spacing");
        return std::process::ExitCode::FAILURE;
    }
    if check && grid_regression_300m_pct >= 2.0 {
        eprintln!(
            "error: grid receiver query regressed {grid_regression_300m_pct:.2}% \
             (>= 2%) at 300 m spacing"
        );
        return std::process::ExitCode::FAILURE;
    }
    if check && !reports_byte_identical {
        eprintln!("error: campaign reports differ between jobs=1 and jobs=4");
        return std::process::ExitCode::FAILURE;
    }
    if check && sequential_regression_pct >= 2.0 {
        eprintln!(
            "error: pooled sequential campaign path regressed \
             {sequential_regression_pct:.2}% (>= 2%) vs the raw loop"
        );
        return std::process::ExitCode::FAILURE;
    }
    if check && speedup_gate_enforced && speedup_4jobs < 2.0 {
        eprintln!(
            "error: campaign speedup at 4 jobs is {speedup_4jobs:.2}x (< 2x) \
             on a {available}-core host"
        );
        return std::process::ExitCode::FAILURE;
    }
    std::process::ExitCode::SUCCESS
}
