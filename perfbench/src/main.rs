//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs a fixed set of one workload's seeded runs round after round for
//! `S` host seconds (`--trace 0`) and prints the end-to-end metrics, or runs a
//! fixed set of the workload's runs with the telemetry registry attached
//! (`--trace 1`) and prints the per-layer breakdown. The last stdout line
//! is the JSON result; a readable copy of every metric goes to stderr.
//! `--print-reference` prints the reference fingerprints instead (the
//! contents of `reference.txt`). See `README.md` for every metric.

use geonet_perfbench::stats::{median, quantile, ratio, result_line, Metric};
use geonet_perfbench::workload::{self, RunRecord, Workload};
use geonet_perfbench::{calib, probe};
use geonet_scenarios::{parallel, World};
use geonet_sim::{shared_registry, AbComparison, SharedRegistry, TimeBins};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed whose first two runs `reference.txt` pins.
const REFERENCE_SEED: u64 = 1;
const REFERENCE: &str = include_str!("../reference.txt");
/// Worlds built per `setup_s` round.
const SETUP_WORLDS: u32 = 16;
/// `setup_s` rounds per untraced pass.
const SETUP_ROUNDS: u32 = 30;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-reference") {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Some(Args { workload, seed, seconds, trace }))
}

/// Runs attempted and failed in this invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// One run of the workload; a panic counts as a failed run.
    fn run(
        &mut self,
        wl: Workload,
        (seed, attacked): (u64, bool),
        registry: Option<SharedRegistry>,
    ) -> Option<(RunRecord, World)> {
        let out = catch_unwind(AssertUnwindSafe(|| workload::run(wl, seed, attacked, registry)));
        self.check(out.is_ok(), &format!("{} seed {seed} attacked {attacked} panicked", wl.name()));
        out.ok()
    }
}

/// The worlds of the `step`-th seed of a workload's run list.
fn step_jobs(wl: Workload, base_seed: u64, step: u32) -> Vec<(u64, bool)> {
    let per = if wl.paired() { 2 } else { 1 };
    (step * per..(step + 1) * per).map(|k| wl.job(base_seed, k)).collect()
}

/// Checks the reference seed's first two runs against `reference.txt`,
/// and the attacked one against the library's own driver. Doubles as the
/// warm-up before anything is timed.
fn check_reference(wl: Workload, tally: &mut Tally) {
    let entries: Vec<(u64, bool, u64)> = REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() >= 4 && f[0] == wl.name()).then(|| {
                (
                    f[1].parse().expect("reference seed"),
                    f[2] == "1",
                    u64::from_str_radix(f[3], 16).expect("reference fingerprint"),
                )
            })
        })
        .collect();
    tally.check(!entries.is_empty(), &format!("no reference fingerprint for {}", wl.name()));
    for (seed, attacked, expected) in entries {
        let Some((record, _)) = tally.run(wl, (seed, attacked), None) else { continue };
        tally.check(
            record.fingerprint == expected,
            &format!(
                "{} seed {seed} attacked {attacked}: fingerprint {:016x}, reference {expected:016x}",
                wl.name(),
                record.fingerprint
            ),
        );
        if attacked {
            let library = workload::library_outcome(&wl.config(), wl.family(), seed, attacked);
            tally.check(
                record.outcome == library,
                &format!("{} seed {seed}: benchmark driver differs from run_one", wl.name()),
            );
        }
    }
}

fn print_reference() {
    println!("# workload run_seed attacked fingerprint reception [gamma|lambda of the pair]");
    for wl in Workload::ALL {
        let duration = wl.config().duration;
        let mut bins: Vec<TimeBins> = Vec::new();
        for k in 0..2 {
            let (seed, attacked) = wl.job(REFERENCE_SEED, k);
            let (record, _) = workload::run(wl, seed, attacked, None);
            let run_bins = record.outcome.bins(duration);
            let reception = run_bins.overall_rate().unwrap_or(0.0);
            let mut line = format!(
                "{} {seed} {} {:016x} reception={reception:.4}",
                wl.name(),
                u8::from(attacked),
                record.fingerprint
            );
            if attacked && wl.paired() {
                let drop = AbComparison::new(bins[0].clone(), run_bins.clone()).drop_rate();
                let name = if wl == Workload::Blockage { "lambda" } else { "gamma" };
                line.push_str(&format!(" {name}={:.4}", drop.unwrap_or(0.0)));
            }
            bins.push(run_bins);
            println!("{line}");
        }
    }
}

/// One `setup_s` round: host seconds to build the worlds of the
/// workload's first `SETUP_WORLDS` runs (`World::new` plus the static
/// destination nodes). Dropping them is not timed.
fn setup_round(wl: Workload, base_seed: u64) -> f64 {
    let mut total = Duration::ZERO;
    for k in 0..SETUP_WORLDS {
        let (seed, attacked) = wl.job(base_seed, k);
        let start = Instant::now();
        let world = workload::build_only(wl, seed, attacked);
        total += start.elapsed();
        drop(world);
    }
    total.as_secs_f64()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Seeds in the untraced job set: about 4 s of host time per round.
fn untraced_seeds(wl: Workload) -> u32 {
    match wl {
        Workload::Interception | Workload::Blockage | Workload::HighwayScale => 8,
        Workload::SparseHighway => 14,
    }
}

/// Rounds the untraced loop runs even when the window is too short.
const MIN_ROUNDS: u32 = 3;

/// One untraced run, in host milliseconds scaled to the reference kernel.
struct Scaled {
    /// The run outside its slices: `World::new` and collecting the outcome.
    fixed_ms: f64,
    slices_ms: Vec<f64>,
}

/// The median over the rounds of `f` of each run.
fn median_of(runs: &[Scaled], f: impl Fn(&Scaled) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// The untraced loop: a fixed job set (the workload's first
/// `untraced_seeds` seeds), run round after round while another round
/// fits in `seconds` of host time, each run followed by one call of the
/// reference kernel. `SETUP_ROUNDS` set-up rounds come first.
///
/// The host's vCPUs are shared. The same code runs 20–30 % slower for
/// minutes at a time while neighbours are busy, and the hypervisor
/// deschedules the benchmark for gaps of up to ~20 ms, hundreds of times a
/// second. So each run's times are scaled by `calib::REFERENCE_NS` over
/// the mean of the kernel calls before and after it. Each slice of each
/// world then takes its median over the rounds, which drops the gaps, and
/// a world's run time is the sum of those medians. Set-up time is the
/// median set-up round, unscaled (see README.md, "Noise").
fn untraced(wl: Workload, base_seed: u64, seconds: u64, tally: &mut Tally) -> Vec<Metric> {
    let budget = Duration::from_secs(seconds);
    let jobs: Vec<(u64, bool)> =
        (0..untraced_seeds(wl)).flat_map(|s| step_jobs(wl, base_seed, s)).collect();
    let mut repeats: Vec<Vec<Scaled>> = jobs.iter().map(|_| Vec::new()).collect();
    let mut fingerprints: Vec<Option<u64>> = vec![None; jobs.len()];
    // Set-up rounds back to back. Interleaved with the runs, a build ran
    // either fast or, in streaks of rounds while the allocator handed back
    // fresh pages, about twice as slow.
    let setups: Vec<f64> = (0..SETUP_ROUNDS).map(|_| setup_round(wl, base_seed)).collect();
    let mut kernels = vec![calib::kernel_ns()];
    let mut rounds = 0u32;
    let start = Instant::now();
    while rounds < MIN_ROUNDS || start.elapsed() * (rounds + 1) / rounds <= budget {
        for (j, &job) in jobs.iter().enumerate() {
            let run = tally.run(wl, job, None);
            let before = kernels[kernels.len() - 1];
            let after = calib::kernel_ns();
            kernels.push(after);
            let Some((r, _)) = run else { continue };
            let first = *fingerprints[j].get_or_insert(r.fingerprint);
            tally.check(
                r.fingerprint == first,
                &format!("{} {job:?}: repeat differs from the first run", wl.name()),
            );
            let scale = calib::REFERENCE_NS / ((before + after) / 2.0);
            let sliced: u64 = r.slices_ns.iter().sum();
            repeats[j].push(Scaled {
                fixed_ms: ms((r.wall_ns - sliced) as f64) * scale,
                slices_ms: r.slices_ns.iter().map(|&n| ms(n as f64) * scale).collect(),
            });
        }
        rounds += 1;
    }
    let host_s = start.elapsed().as_secs_f64();
    let done: Vec<&Vec<Scaled>> = repeats.iter().filter(|r| !r.is_empty()).collect();
    let slices: Vec<Vec<f64>> = done
        .iter()
        .map(|rs| (0..rs[0].slices_ms.len()).map(|i| median_of(rs, |s| s.slices_ms[i])).collect())
        .collect();
    let walls: Vec<f64> = done
        .iter()
        .zip(&slices)
        .map(|(rs, sl)| median_of(rs, |s| s.fixed_ms) + sl.iter().sum::<f64>())
        .collect();
    let sim_s = done.len() as f64 * wl.config().duration.as_secs_f64();
    // One sample per seed, the mean of its worlds: a plain median over
    // attacker-free and attacked worlds would sit in the gap between them.
    let per = if wl.paired() { 2 } else { 1 };
    let seed_walls: Vec<f64> =
        walls.chunks(per).map(|c| c.iter().sum::<f64>() / c.len() as f64).collect();
    let slices: Vec<f64> = slices.concat();
    eprintln!(
        "{}: {rounds} rounds of {} worlds in {host_s:.2} s host; reference kernel median \
         {:.3} ms, scaled to {:.3} ms; timing metrics over {} slice medians",
        wl.name(),
        jobs.len(),
        ms(median(&kernels)),
        ms(calib::REFERENCE_NS),
        slices.len()
    );
    vec![
        Metric {
            name: "sim_s_per_wall_s",
            unit: "sim_s/s",
            value: ratio(sim_s, walls.iter().sum::<f64>() / 1e3),
        },
        Metric { name: "run_wall_ms_p50", unit: "ms", value: median(&seed_walls) },
        Metric { name: "slice_ms_p50", unit: "ms", value: quantile(&slices, 0.5) },
        // p90 is the highest percentile with ten slices beyond it on every
        // workload: `highway-scale` holds 8 × 20 slices.
        Metric { name: "slice_ms_p90", unit: "ms", value: quantile(&slices, 0.9) },
        Metric { name: "setup_s", unit: "s", value: median(&setups) },
        Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss_mb() },
    ]
}

/// Seeds in the traced set, and A/B pairs in the pool probe's campaign.
fn traced_sizes(wl: Workload) -> (u32, u32) {
    match wl {
        Workload::Interception | Workload::Blockage => (4, 4),
        Workload::HighwayScale => (4, 2),
        Workload::SparseHighway => (8, 4),
    }
}

/// Writes the traced pass's spans, one JSON object per line, under
/// `perfbench/out/`.
fn write_spans(wl: Workload, base_seed: u64, jobs: &[(u64, bool)], records: &[RunRecord]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}-seed{base_seed}.spans.jsonl", wl.name());
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut out = BufWriter::new(File::create(&path)?);
        for (k, ((seed, attacked), r)) in jobs.iter().zip(records).enumerate() {
            for s in &r.spans {
                writeln!(
                    out,
                    "{{\"run\": {k}, \"seed\": {seed}, \"attacked\": {attacked}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}}}",
                    s.name, s.start_ns, s.dur_ns
                )?;
            }
        }
        out.flush()
    });
    match written {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(e) => eprintln!("spans not written to {path}: {e}"),
    }
}

/// The traced pass: a fixed set of the workload's runs, untraced and then
/// with the telemetry registry attached, plus the layer and pool probes.
fn traced(wl: Workload, base_seed: u64, tally: &mut Tally) -> Vec<Metric> {
    let (seeds, pool_pairs) = traced_sizes(wl);
    let jobs: Vec<(u64, bool)> = (0..seeds).flat_map(|s| step_jobs(wl, base_seed, s)).collect();
    let untraced: Vec<RunRecord> =
        jobs.iter().filter_map(|&job| tally.run(wl, job, None).map(|(r, _)| r)).collect();
    let registry = shared_registry();
    let mut traced = Vec::new();
    let mut last_world = None;
    for &job in &jobs {
        if let Some((record, world)) = tally.run(wl, job, Some(registry.clone())) {
            traced.push(record);
            last_world = Some(world);
        }
    }
    for (u, t) in untraced.iter().zip(&traced) {
        tally.check(
            u.fingerprint == t.fingerprint,
            &format!("{}: traced run differs from untraced run", wl.name()),
        );
    }
    write_spans(wl, base_seed, &jobs, &traced);

    let costs = last_world.as_ref().map(probe::frame_costs);
    let pool = probe::pool(wl, base_seed, pool_pairs);
    tally.check(pool.identical, &format!("{}: pooled campaign differs from sequential", wl.name()));
    if wl.paired() {
        // The pooled campaign ran the benchmark's own first seeds.
        let duration = wl.config().duration;
        let fold = |attacked: bool| {
            let mut bins = None::<TimeBins>;
            for (job, r) in jobs.iter().zip(&untraced).take(2 * pool_pairs as usize) {
                if job.1 == attacked {
                    let b = r.outcome.bins(duration);
                    bins.get_or_insert_with(|| TimeBins::new(b.bin_width(), b.len())).merge(&b);
                }
            }
            bins
        };
        tally.check(
            fold(false).as_ref() == Some(&pool.result.baseline)
                && fold(true).as_ref() == Some(&pool.result.attacked),
            &format!("{}: run_ab campaign differs from the benchmark's runs", wl.name()),
        );
    }

    let reg = registry.borrow();
    let hist = |name: &str| reg.histogram(name).cloned().unwrap_or_default();
    let gauge = |name: &str| {
        reg.gauge(name).map_or((0.0, 0.0), |g| {
            (g.stats().mean().unwrap_or(0.0), g.stats().max().unwrap_or(0.0))
        })
    };
    let (handle, broadcast, scan, step, dispatch) = (
        hist("router_handle_frame_ns"),
        hist("radio_broadcast_ns"),
        hist("radio_receiver_scan_ns"),
        hist("traffic_step_ns"),
        hist("world_dispatch_ns"),
    );
    let n = traced.len().max(1) as f64;
    let attacked_runs = jobs.iter().filter(|j| j.1).count().max(1) as f64;
    let sum = |f: &dyn Fn(&RunRecord) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let per_run = |f: &dyn Fn(&RunRecord) -> u64| sum(f) / n;
    let p = |h: &geonet_sim::Histogram, q: f64| h.quantile(q).unwrap_or(0) as f64;
    let total_ms = |h: &geonet_sim::Histogram| ms(h.sum() as f64) / n;
    let frames = sum(&|r| r.frames_on_air);
    let calls = handle.count() as f64;
    let host_u: f64 = untraced.iter().map(|r| r.wall_ns as f64).sum();
    let host_t: f64 = traced.iter().map(|r| r.wall_ns as f64).sum();
    let setups: Vec<f64> = traced.iter().map(|r| ms(r.span_total_ns("world_new") as f64)).collect();
    let originates: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.spans.iter().filter(|s| s.name == "originate_from"))
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect();
    let (queue_mean, queue_max) = gauge("event_queue_len");
    let (verify_ns, encode_ns) = costs.map_or((0.0, 0.0), |c| (c.verify_ns, c.encode_ns));
    eprintln!(
        "{}: {} traced runs, {} pool workers, {} available",
        wl.name(),
        traced.len(),
        pool.workers,
        parallel::available_jobs()
    );
    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m("sim.kernel.events", "count", per_run(&|r| r.events)),
        m(
            "sim.kernel.self_ms",
            "ms",
            (ms(sum(&|r| r.span_total_ns("run_until"))) - ms(dispatch.sum() as f64)) / n,
        ),
        m("sim.kernel.queue_depth_mean", "events", queue_mean),
        m("sim.kernel.queue_depth_max", "events", queue_max),
        m(
            "scenarios.world.dispatch_self_ms",
            "ms",
            total_ms(&dispatch) - total_ms(&handle) - total_ms(&broadcast) - total_ms(&step),
        ),
        m("scenarios.world.fanout", "ratio", ratio(calls, frames)),
        m("scenarios.world.originate_us_p50", "us", median(&originates)),
        m("scenarios.world.setup_ms", "ms", median(&setups)),
        m("radio.frames_on_air", "count", frames / n),
        m("radio.bytes_on_air", "bytes", per_run(&|r| r.bytes_on_air)),
        m("radio.broadcast_ns_p50", "ns", p(&broadcast, 0.5)),
        m("radio.broadcast_ns_p99", "ns", p(&broadcast, 0.99)),
        m("radio.broadcast_ms_total", "ms", total_ms(&broadcast)),
        m("radio.receiver_scan_ns_p50", "ns", p(&scan, 0.5)),
        m("radio.receiver_scan_ms_total", "ms", total_ms(&scan)),
        m(
            "radio.unicast_loss_share",
            "ratio",
            ratio(sum(&|r| r.unicasts_lost), sum(&|r| r.unicasts_sent)),
        ),
        m("core.router.handle_frame_calls", "count", calls / n),
        m("core.router.handle_frame_ns_p50", "ns", p(&handle, 0.5)),
        m("core.router.handle_frame_ns_p99", "ns", p(&handle, 0.99)),
        m("core.router.handle_frame_ms_total", "ms", total_ms(&handle)),
        m(
            "core.router.beacon_accept_share",
            "ratio",
            ratio(sum(&|r| r.stats.beacons_accepted), calls),
        ),
        m("core.router.gf_unicast", "count", per_run(&|r| r.stats.gf_unicast)),
        m("core.router.gf_fallback", "count", per_run(&|r| r.stats.gf_fallback)),
        m("core.router.cbf_rebroadcast", "count", per_run(&|r| r.stats.cbf_rebroadcast)),
        m("core.router.cbf_discards", "count", per_run(&|r| r.stats.cbf_discards)),
        m("core.loct.size_p50", "entries", p(&hist("loct_size_per_node"), 0.5)),
        m("core.cbf.buffer_total_mean", "packets", gauge("cbf_buffer_total").0),
        m("core.dupcache.size_p50", "entries", p(&hist("dup_cache_per_node"), 0.5)),
        m("core.security.verify_ns", "ns", verify_ns),
        m("core.security.verify_ms_est", "ms", ms(verify_ns * calls) / n),
        m("core.wire.encode_ns", "ns", encode_ns),
        m("core.wire.encode_ms_est", "ms", ms(encode_ns * (frames + calls)) / n),
        m("traffic.step_ns_p50", "ns", p(&step, 0.5)),
        m("traffic.step_ns_p99", "ns", p(&step, 0.99)),
        m("traffic.step_ms_total", "ms", total_ms(&step)),
        m("traffic.vehicles_on_road_mean", "vehicles", gauge("vehicles_on_road").0),
        m("attack.beacons_replayed", "count", sum(&|r| r.beacons_replayed) / attacked_runs),
        m("attack.packets_replayed", "count", sum(&|r| r.packets_replayed) / attacked_runs),
        m("parallel.speedup", "x", pool.speedup),
        m("parallel.idle_share", "ratio", pool.idle_share),
        m("trace.overhead_pct", "%", (ratio(host_t, host_u) - 1.0) * 100.0),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print_reference();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <interception|blockage|highway-scale|sparse-highway> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    parallel::set_jobs(1);
    let mut tally = Tally::default();
    check_reference(args.workload, &mut tally);
    let metrics = if args.trace {
        traced(args.workload, args.seed, &mut tally)
    } else {
        untraced(args.workload, args.seed, args.seconds, &mut tally)
    };
    for m in &metrics {
        eprintln!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "{:<36} {:>14.4} ratio ({} of {} runs and checks failed)",
        "failed_run_share",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    );
    println!("{}", result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics));
    ExitCode::SUCCESS
}
