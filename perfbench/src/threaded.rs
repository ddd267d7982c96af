//! One paced replay of a workload's schedule through the threaded runtime.
//!
//! The load is open loop: `Pacing::RealTime` makes the runtime's own driver
//! thread inject each event at its due wall time, whether or not the chain
//! keeps up, and a result's latency is counted from the due time of its
//! later input (the paper's `detected_at - max(t_r, t_s)`, scaled from
//! stream to wall time).  The benchmark spawns no threads of its own.

use crate::measure::process_cpu;
use crate::oracle::Key;
use crate::workloads::{stream_rate, Kind, Spec};
use llhj_core::checkpoint::{CheckpointStore, MemoryStore};
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::RoundRobin;
use llhj_core::result::TimedResult;
use llhj_core::stats::NodeCounters;
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_runtime::{
    llhj_factory, llhj_indexed_nodes, llhj_nodes, run_pipeline, CheckpointConfig, ElasticPipeline,
    Pacing, PipelineOptions, ResizeEvent, ScalePlan, ScaleStep,
};
use llhj_workload::{BandPredicate, EquiXaPredicate, RTuple, STuple};
use std::sync::Arc;
use std::time::Duration;

/// Chain width of the fixed workloads (the host's `nproc` when the
/// benchmark was defined).
pub const NODES: usize = 2;

/// Events between two checkpoints of `band_elastic_ckpt`.
pub const CHECKPOINT_EVERY: usize = 20_000;

/// Shares of the stream time at which `band_elastic_ckpt` grows to two
/// nodes and shrinks back to one, around its 40 %–70 % burst.
const GROW_AT: f64 = 0.35;
const SHRINK_AT: f64 = 0.75;

/// What one threaded run measured.
pub struct Threaded {
    /// Offered rate, tuples/s per stream.
    pub tps: f64,
    /// Sorted reported result keys, duplicates kept.
    pub keys: Vec<Key>,
    /// Result latencies in wall milliseconds, ascending.
    pub lat_ms: Vec<f64>,
    /// Wall time from the last event's due time to the end of the run.
    pub drain_ms: f64,
    /// Process CPU time the run consumed.
    pub cpu: Duration,
    /// Input tuples, both streams.
    pub tuples: usize,
    /// Node counters, retired nodes included.
    pub counters: Vec<NodeCounters>,
    /// Entry frames the driver injected.
    pub frames_injected: u64,
    /// Frame buffers allocated after start-up (fixed chains only; the
    /// elastic outcome exposes no such counter).
    pub batch_allocs: Option<u64>,
    /// Worker wake-ups that found no input.
    pub idle_wakeups: u64,
    /// Resizes of the elastic chain.
    pub resize_log: Vec<ResizeEvent>,
    /// Punctuations the collector emitted.
    pub punctuations: u64,
    /// Checkpoint blobs written, and their total size in bytes.
    pub checkpoints: (usize, u64),
}

fn collect_latencies(results: &[TimedResult<RTuple, STuple>], speedup: f64) -> Vec<f64> {
    let mut lat: Vec<f64> = results
        .iter()
        .map(|t| t.latency().as_millis_f64() / speedup)
        .collect();
    lat.sort_by(f64::total_cmp);
    lat
}

fn sorted_keys(results: &[TimedResult<RTuple, STuple>]) -> Vec<Key> {
    let mut keys: Vec<Key> = results.iter().map(|t| t.result.key()).collect();
    keys.sort_unstable();
    keys
}

/// Index of the first event due at or after `share` of the arrival span.
fn event_index_at(schedule: &DriverSchedule<RTuple, STuple>, share: f64) -> usize {
    let last = schedule.last_arrival_ts().expect("arrivals").as_micros() as f64;
    let at = Timestamp::from_micros((last * share) as u64);
    schedule.events().partition_point(|e| e.at < at)
}

/// Replays `schedule` at `tps` tuples/s per stream through the threaded
/// runtime the workload prescribes.
pub fn run(spec: &Spec, schedule: &DriverSchedule<RTuple, STuple>, tps: f64) -> Threaded {
    let speedup = tps / stream_rate(schedule);
    let options = PipelineOptions {
        pacing: Pacing::RealTime { speedup },
        batch_size: spec.batch_size,
        flush_interval: spec
            .flush_wall
            .map(|wall| TimeDelta::from_secs_f64(wall.as_secs_f64() * speedup)),
        punctuate: spec.kind == Kind::BandElasticCkpt,
        pin_cores: false,
        ..Default::default()
    };
    let last_due = options.stream_to_wall(
        schedule
            .events()
            .last()
            .expect("events")
            .at
            .saturating_since(Timestamp::ZERO),
    );
    let tuples = schedule.r_count() + schedule.s_count();
    let cpu0 = process_cpu();
    match spec.kind {
        Kind::BandScan | Kind::EquiHop => {
            let outcome = if spec.kind == Kind::EquiHop {
                run_pipeline(
                    llhj_indexed_nodes(NODES, EquiXaPredicate),
                    EquiXaPredicate,
                    RoundRobin,
                    schedule,
                    &options,
                )
            } else {
                let pred = BandPredicate::default();
                run_pipeline(
                    llhj_nodes(NODES, pred),
                    pred,
                    RoundRobin,
                    schedule,
                    &options,
                )
            };
            let cpu = process_cpu().saturating_sub(cpu0);
            Threaded {
                tps,
                keys: sorted_keys(&outcome.results),
                lat_ms: collect_latencies(&outcome.results, speedup),
                drain_ms: outcome.elapsed.saturating_sub(last_due).as_secs_f64() * 1e3,
                cpu,
                tuples,
                counters: outcome.counters,
                frames_injected: outcome.frames_injected,
                batch_allocs: Some(outcome.batch_allocs),
                idle_wakeups: outcome.idle_wakeups,
                resize_log: Vec::new(),
                punctuations: outcome.punctuation_count,
                checkpoints: (0, 0),
            }
        }
        Kind::BandElasticCkpt => {
            let pred = BandPredicate::default();
            let store = Arc::new(MemoryStore::new());
            let plan = ScalePlan::new(vec![
                ScaleStep {
                    after_events: event_index_at(schedule, GROW_AT),
                    target_nodes: 2,
                },
                ScaleStep {
                    after_events: event_index_at(schedule, SHRINK_AT),
                    target_nodes: 1,
                },
            ]);
            let mut pipeline =
                ElasticPipeline::new(1, llhj_factory(pred), pred, RoundRobin, options);
            let checkpoints = CheckpointConfig::new(store.clone(), CHECKPOINT_EVERY);
            pipeline.run_schedule_checkpointed(schedule, &plan, &checkpoints);
            let outcome = pipeline.finish();
            let cpu = process_cpu().saturating_sub(cpu0);
            let seqs = store.seqs(0).expect("memory store lists its blobs");
            let bytes = seqs
                .iter()
                .map(|&seq| store.get(0, seq).expect("listed blob").len() as u64)
                .sum();
            let mut counters = outcome.counters;
            counters.extend(outcome.retired_counters);
            Threaded {
                tps,
                keys: sorted_keys(&outcome.results),
                lat_ms: collect_latencies(&outcome.results, speedup),
                drain_ms: outcome.elapsed.saturating_sub(last_due).as_secs_f64() * 1e3,
                cpu,
                tuples,
                counters,
                frames_injected: outcome.frames_injected,
                batch_allocs: None,
                idle_wakeups: outcome.idle_wakeups,
                resize_log: outcome.resize_log,
                punctuations: outcome.punctuation_count,
                checkpoints: (seqs.len(), bytes),
            }
        }
    }
}
