//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <band_scan|equi_hop|band_elastic_ckpt> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics: the sustained rate
//! (a staircase over a ladder of offered rates, see [`ladder`]) and latency
//! and CPU at two fixed offered loads.  Every run replays the workload's
//! schedule through the threaded runtime and is checked against the
//! oracle.  With `--trace 1` it measures the per-layer metrics: threaded
//! runs at the high load for the runtime's own counters, and the
//! single-threaded replay of [`replay`], untraced and traced.  Progress
//! goes to stderr; a provenance line and, last, the result line go to
//! stdout.  See `perfbench/README.md` for the workloads and metrics.

mod ladder;
mod measure;
mod oracle;
mod replay;
mod threaded;
mod workloads;

use ladder::{Rung, Staircase};
use llhj_core::driver::DriverSchedule;
use llhj_core::time::TimeDelta;
use llhj_runtime::{llhj_indexed_nodes, llhj_nodes};
use llhj_workload::{BandPredicate, EquiXaPredicate, RTuple, STuple};
use measure::{median, percentile};
use oracle::{diff, error_rate, reference_join, restrict, Diff, Key};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use threaded::{Threaded, NODES};
use workloads::{stream_rate, Kind, Spec};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Share of the measuring time the sustained-rate staircase gets; the
/// fixed-load replays, interleaved with it, get the rest.
const LADDER_SHARE: f64 = 0.5;

/// Share of the measuring time a traced run spends on threaded runs; the
/// replays get the rest.
const THREADED_SHARE: f64 = 0.6;

/// `replay.layer_slack` above this fails the traced run: the spans around
/// the layer calls must account for all but this share of the replay.
const LAYER_SLACK_LIMIT: f64 = 0.5;

type Schedule = DriverSchedule<RTuple, STuple>;

struct Args {
    spec: Spec,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workloads::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    Ok(Args {
        spec: spec.clone().with_seed(seed.ok_or("--seed is required")?),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Metrics in print order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.0.push((name, value + 0.0, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Wrong result pairs over every checked run, and the oracle pairs the
/// runs should have reported.
#[derive(Default)]
struct Check {
    diff: Diff,
    pairs: usize,
}

impl Check {
    fn add(&mut self, oracle: &[Key], reported: &[Key]) -> Diff {
        let d = diff(oracle, reported);
        self.diff.missing += d.missing;
        self.diff.extra += d.extra;
        self.pairs += oracle.len();
        d
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The schedule the fixed loads (and the traced run) replay, and its
/// oracle.
fn fixed_part(spec: &Spec, schedule: &Schedule, oracle: &[Key]) -> (Schedule, Vec<Key>) {
    let part = match spec.fixed_tuples {
        Some(n) => workloads::prefix(schedule, n),
        None => schedule.clone(),
    };
    let part_oracle = restrict(oracle, part.r_count(), part.s_count());
    (part, part_oracle)
}

/// The replays of one fixed offered load.  Each replay yields its own
/// percentiles; a load's figures are their medians over the replays, so a
/// replay hit by a host stall moves them little.
struct FixedLoad {
    tps: f64,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    cpu_us: Vec<f64>,
    rows: Vec<String>,
}

impl FixedLoad {
    fn new(tps: f64) -> Self {
        FixedLoad {
            tps,
            p50: Vec::new(),
            p90: Vec::new(),
            p99: Vec::new(),
            cpu_us: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn run(&mut self, spec: &Spec, schedule: &Schedule, oracle: &[Key], check: &mut Check) {
        let run = threaded::run(spec, schedule, self.tps);
        let d = check.add(oracle, &run.keys);
        let [p50, p90, p99] = [0.50, 0.90, 0.99].map(|p| percentile(&run.lat_ms, p));
        let cpu_us = secs(run.cpu) * 1e6 / run.tuples as f64;
        eprintln!(
            "  fixed {:>9.0} t/s: missing {} extra {} p50 {p50:.3} ms p90 {p90:.3} ms p99 {p99:.3} ms cpu {cpu_us:.2} us/tuple",
            self.tps, d.missing, d.extra
        );
        self.rows.push(format!(
            "{{\"tps\": {}, \"missing\": {}, \"extra\": {}, \"p50_ms\": {p50}, \"p90_ms\": {p90}, \"p99_ms\": {p99}, \"cpu_us_per_tuple\": {cpu_us}}}",
            self.tps, d.missing, d.extra
        ));
        self.p50.push(p50);
        self.p90.push(p90);
        self.p99.push(p99);
        self.cpu_us.push(cpu_us);
    }
}

/// The end-to-end run (`--trace 0`).  The fixed-load replays are spread
/// over the run between the staircase's runs, so a stretch of host noise
/// touches few of either.
fn end_to_end(
    args: &Args,
    schedule: &Schedule,
    oracle: &[Key],
    metrics: &mut Metrics,
    check: &mut Check,
) -> String {
    let spec = &args.spec;
    let (fixed, fixed_oracle) = fixed_part(spec, schedule, oracle);
    let mut low = FixedLoad::new(spec.low_tps);
    let mut high = FixedLoad::new(spec.high_tps);
    let mut stairs = Staircase::new(spec);
    let started = Instant::now();
    // One pair first, so the peak resident set covers the fixed loads but
    // not the overloaded runs the staircase makes on purpose.
    low.run(spec, &fixed, &fixed_oracle, check);
    high.run(spec, &fixed, &fixed_oracle, check);
    let peak_rss_mb = measure::peak_rss_mb();
    let mut fixed_time = started.elapsed();
    while stairs.rungs.is_empty() || secs(started.elapsed()) < args.seconds {
        if secs(fixed_time) < (1.0 - LADDER_SHARE) * secs(started.elapsed()) {
            let t = Instant::now();
            let load = if low.cpu_us.len() <= high.cpu_us.len() {
                &mut low
            } else {
                &mut high
            };
            load.run(spec, &fixed, &fixed_oracle, check);
            fixed_time += t.elapsed();
        } else {
            let run = threaded::run(spec, schedule, stairs.next_tps());
            let rung = Rung {
                tps: run.tps,
                exact: diff(oracle, &run.keys).exact(),
                p99_ms: percentile(&run.lat_ms, 0.99),
                drain_ms: run.drain_ms,
            };
            eprintln!(
                "  rung  {:>9.0} t/s: exact {} p99 {:.3} ms drain {:.2} ms -> {}",
                rung.tps,
                rung.exact,
                rung.p99_ms,
                rung.drain_ms,
                if rung.pass() { "pass" } else { "fail" }
            );
            stairs.record(rung);
        }
    }
    metrics.add("lat_p50_ms", median(&low.p50), "ms");
    metrics.add("lat_p90_ms", median(&low.p90), "ms");
    metrics.add("hi_lat_p50_ms", median(&high.p50), "ms");
    metrics.add("hi_lat_p90_ms", median(&high.p90), "ms");
    metrics.add("cpu_us_per_tuple", median(&high.cpu_us), "us");
    metrics.add("peak_rss_mb", peak_rss_mb, "MB");
    // Measured and printed, but too host-dependent on a shared machine to
    // gate a change on (see README.md): the provenance line carries them.
    let mut reported = Metrics::default();
    reported.add("sustained_tps", stairs.sustained_tps(), "tuples/s");
    reported.add("lat_p99_ms", median(&low.p99), "ms");
    reported.add("hi_lat_p99_ms", median(&high.p99), "ms");
    let rungs: Vec<String> = stairs
        .rungs
        .iter()
        .map(|r| {
            format!(
                "{{\"tps\": {}, \"exact\": {}, \"p99_ms\": {}, \"drain_ms\": {}, \"pass\": {}}}",
                r.tps,
                r.exact,
                r.p99_ms,
                r.drain_ms,
                r.pass()
            )
        })
        .collect();
    format!(
        "\"reported\": {}, \"ladder\": [{}], \"fixed_loads\": [{}]",
        reported.json(),
        rungs.join(", "),
        low.rows
            .iter()
            .chain(&high.rows)
            .cloned()
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// One single-threaded replay of `schedule` on the workload's nodes.
fn replay_once<const TRACE: bool>(
    spec: &Spec,
    schedule: &Schedule,
    config: replay::Config,
) -> replay::Replay {
    match spec.kind {
        Kind::EquiHop => replay::replay::<TRACE, _>(
            llhj_indexed_nodes(NODES, EquiXaPredicate),
            EquiXaPredicate,
            schedule,
            config,
        ),
        Kind::BandScan | Kind::BandElasticCkpt => {
            let pred = BandPredicate::default();
            replay::replay::<TRACE, _>(llhj_nodes(NODES, pred), pred, schedule, config)
        }
    }
}

/// The per-layer run (`--trace 1`).
fn per_layer(
    args: &Args,
    schedule: &Schedule,
    oracle: &[Key],
    metrics: &mut Metrics,
    check: &mut Check,
) -> (String, bool) {
    let spec = &args.spec;
    let (fixed, oracle) = fixed_part(spec, schedule, oracle);
    let tuples = (fixed.r_count() + fixed.s_count()) as f64;
    // The replay batches with the stream-time flush bound the threaded
    // runs at the high load use.
    let speedup = spec.high_tps / stream_rate(&fixed);
    let config = replay::Config {
        batch_size: spec.batch_size,
        flush: spec
            .flush_wall
            .map(|w| TimeDelta::from_secs_f64(w.as_secs_f64() * speedup)),
        punctuate: spec.kind == Kind::BandElasticCkpt,
    };

    // Threaded runs at the high load (the runtime's public counters),
    // then untraced and traced replays in turn, so both kinds of replay
    // see the same host conditions.
    let started = Instant::now();
    let mut runs: Vec<Threaded> = Vec::new();
    while runs.is_empty() || secs(started.elapsed()) < THREADED_SHARE * args.seconds {
        let run = threaded::run(spec, &fixed, spec.high_tps);
        let d = check.add(&oracle, &run.keys);
        eprintln!(
            "  threaded {:.0} t/s: missing {} extra {} drain {:.2} ms",
            spec.high_tps, d.missing, d.extra, run.drain_ms
        );
        runs.push(run);
    }
    let mut untraced: Vec<replay::Replay> = Vec::new();
    let mut traced: Vec<replay::Replay> = Vec::new();
    while traced.is_empty() || secs(started.elapsed()) < args.seconds {
        untraced.push(replay_once::<false>(spec, &fixed, config));
        traced.push(replay_once::<true>(spec, &fixed, config));
    }
    for replay in untraced.iter().chain(&traced) {
        let d = check.add(&oracle, &replay.keys);
        if !d.exact() {
            eprintln!("  replay: missing {} extra {}", d.missing, d.extra);
        }
    }
    // The layers of the traced replay with the median wall time.
    traced.sort_by_key(|r| r.wall);
    let traced = &traced[traced.len() / 2];

    let threaded = |f: &dyn Fn(&Threaded) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|r| secs(r.wall)).collect::<Vec<_>>());
    let untraced_cpu = median(&untraced.iter().map(|r| secs(r.cpu)).collect::<Vec<_>>());
    let traced_wall = secs(traced.wall);
    let layers = traced.layers;
    let slack = (secs(layers.total()) - traced_wall).abs() / traced_wall;
    eprintln!(
        "  replay: untraced {untraced_wall:.3} s, traced {traced_wall:.3} s, layers {:.3} s (slack {slack:.3})",
        secs(layers.total()),
    );
    let slack_ok = slack <= LAYER_SLACK_LIMIT;
    if !slack_ok {
        eprintln!("  layer slack {slack:.3} exceeds the stated {LAYER_SLACK_LIMIT}");
    }
    let per_tuple_ns = |d: Duration| d.as_nanos() as f64 / tuples;
    let per_call_ns = |(d, calls): (Duration, u64)| d.as_nanos() as f64 / calls.max(1) as f64;
    let comparisons: u64 = traced.counters.iter().map(|c| c.comparisons).sum();
    let results: u64 = traced.counters.iter().map(|c| c.results).sum();
    let resizes = |grow: bool, f: &dyn Fn(&llhj_runtime::ResizeEvent) -> f64| {
        threaded(&|r| {
            r.resize_log
                .iter()
                .filter(|e| (e.to_nodes > e.from_nodes) == grow)
                .map(f)
                .sum()
        })
    };

    metrics.add("driver.inject_ns", per_call_ns(layers.inject), "ns");
    metrics.add(
        "driver.frames_per_ktuple",
        threaded(&|r| r.frames_injected as f64 * 1e3 / r.tuples as f64),
        "frames/ktuple",
    );
    metrics.add("driver.drain_ms", threaded(&|r| r.drain_ms), "ms");
    metrics.add(
        "ring.send_recv_ns",
        layers.ring.0.as_nanos() as f64 / traced.frames.max(1) as f64,
        "ns",
    );
    metrics.add(
        "ring.frames_per_tuple",
        traced.frames as f64 / tuples,
        "frames/tuple",
    );
    metrics.add(
        "exec.allocs_per_kframe",
        threaded(&|r| r.batch_allocs.unwrap_or(0) as f64 * 1e3 / r.frames_injected.max(1) as f64),
        "allocs/kframe",
    );
    metrics.add(
        "exec.idle_wakeups",
        threaded(&|r| r.idle_wakeups as f64),
        "count",
    );
    metrics.add(
        "exec.thread_overhead_us_per_tuple",
        threaded(&|r| secs(r.cpu) * 1e6 / r.tuples as f64) - untraced_cpu * 1e6 / tuples,
        "us",
    );
    metrics.add("node_llhj.arrival_ns", per_tuple_ns(layers.arrival.0), "ns");
    metrics.add(
        "node_llhj.cmp_per_arrival",
        comparisons as f64 / tuples,
        "cmp/tuple",
    );
    metrics.add(
        "node_llhj.hit_ratio",
        results as f64 / comparisons.max(1) as f64,
        "ratio",
    );
    metrics.add(
        "node_llhj.protocol_ns",
        per_tuple_ns(layers.protocol.0),
        "ns",
    );
    metrics.add(
        "node_llhj.msgs_per_tuple",
        traced.messages as f64 / tuples,
        "msgs/tuple",
    );
    metrics.add("store.expiry_ns", per_tuple_ns(layers.expiry.0), "ns");
    metrics.add(
        "store.resident_peak",
        threaded(&|r| {
            r.counters
                .iter()
                .map(|c| (c.wr_peak + c.ws_peak) as f64)
                .sum()
        }),
        "tuples",
    );
    metrics.add(
        "store.iws_peak",
        threaded(&|r| r.counters.iter().map(|c| c.iws_peak).max().unwrap_or(0) as f64),
        "tuples",
    );
    metrics.add(
        "punctuation.count",
        threaded(&|r| r.punctuations as f64),
        "count",
    );
    metrics.add(
        "punctuation.observe_ns",
        per_tuple_ns(layers.punctuation.0),
        "ns",
    );
    metrics.add(
        "elastic.grow_fence_us",
        resizes(true, &|e| e.fence_wall_micros as f64),
        "us",
    );
    metrics.add(
        "elastic.shrink_fence_us",
        resizes(false, &|e| e.fence_wall_micros as f64),
        "us",
    );
    metrics.add(
        "elastic.migrated_tuples",
        threaded(&|r| r.resize_log.iter().map(|e| e.migrated_tuples as f64).sum()),
        "tuples",
    );
    metrics.add(
        "elastic.rebalanced_tuples",
        threaded(&|r| {
            r.resize_log
                .iter()
                .map(|e| e.rebalanced_tuples as f64)
                .sum()
        }),
        "tuples",
    );
    metrics.add(
        "checkpoint.count",
        threaded(&|r| r.checkpoints.0 as f64),
        "count",
    );
    metrics.add(
        "checkpoint.bytes",
        threaded(&|r| r.checkpoints.1 as f64),
        "bytes",
    );
    metrics.add("replay.tuples_per_s", tuples / untraced_wall, "tuples/s");
    metrics.add(
        "replay.trace_overhead",
        traced_wall / untraced_wall - 1.0,
        "ratio",
    );
    metrics.add("replay.layer_slack", slack, "ratio");
    let detail = format!(
        "\"replay\": {{\"threaded_runs\": {}, \"replays\": {}, \"untraced_wall_s\": {untraced_wall}, \"traced_wall_s\": {traced_wall}, \"layer_slack_limit\": {LAYER_SLACK_LIMIT}, \"replay_punctuations\": {}}}",
        runs.len(),
        untraced.len(),
        traced.punctuations
    );
    (detail, slack_ok)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = &args.spec;
    let started = Instant::now();
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}",
        spec.name, spec.seed, args.seconds, args.trace
    );

    // Set-up: generating the workload plus building the driver schedule,
    // several times; the last schedule is the one replayed.
    let (mut setups, mut generates, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    let mut schedule = None;
    for _ in 0..SETUP_REPEATS {
        let built = spec.build();
        setups.push(secs(built.generate + built.build));
        generates.push(secs(built.generate));
        builds.push(secs(built.build));
        schedule = Some(built.schedule);
    }
    let schedule = schedule.expect("at least one set-up");
    let oracle = if spec.is_equi() {
        reference_join(&EquiXaPredicate, &schedule)
    } else {
        reference_join(&BandPredicate::default(), &schedule)
    };
    eprintln!(
        "  schedule: {} events, {} oracle pairs, set-up {:.3} s",
        schedule.events().len(),
        oracle.len(),
        median(&setups)
    );

    let mut metrics = Metrics::default();
    let mut check = Check::default();
    let (detail, valid) = if args.trace {
        metrics.add("driver.build_s", median(&builds), "s");
        metrics.add("workload.generate_s", median(&generates), "s");
        per_layer(&args, &schedule, &oracle, &mut metrics, &mut check)
    } else {
        metrics.add("setup_s", median(&setups), "s");
        let detail = end_to_end(&args, &schedule, &oracle, &mut metrics, &mut check);
        (detail, true)
    };
    let error_rate = error_rate(check.diff, check.pairs);
    eprintln!(
        "  checked {} oracle pairs: {} missing, {} extra (error rate {error_rate}), {:.1} s",
        check.pairs,
        check.diff.missing,
        check.diff.extra,
        secs(started.elapsed())
    );
    println!(
        "{{\"provenance\": {{\"host\": {}, \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \"nodes\": {NODES}, \"error_rate\": {error_rate}, {detail}}}}}",
        llhj_bench::host_meta_json_pinned(false),
        llhj_bench::json_escape(&measure::commit()),
        spec.name,
        spec.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        valid && check.diff.exact(),
        check.pairs.max(1),
        check.diff.errors(),
        metrics.json()
    );
}
