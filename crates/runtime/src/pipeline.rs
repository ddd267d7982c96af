//! The fixed-width threaded pipeline.
//!
//! This module deploys a handshake-join pipeline the way the paper does on
//! its 48-core machine: one worker thread per processing node, neighbouring
//! workers connected by point-to-point FIFO links, a driver that replays
//! the window driver's schedule, and a collector thread that vacuums the
//! result queue and (optionally) emits punctuations derived from the
//! high-water marks (Figure 15 / 16 of the paper).
//!
//! The links carry [`MessageBatch`](llhj_core::message::MessageBatch)
//! *frames* rather than individual messages: the driver groups
//! `batch_size` tuples into one entry frame, and every worker drains the
//! complete output of one frame into one outgoing frame per direction.
//! One channel operation (lock, wake-up) is thus amortised over the whole
//! run of messages — the granularity trade-off of the paper's Section 2
//! made configurable.  A `batch_size` of 1 degenerates to one message per
//! frame and reproduces the eager per-tuple transport exactly, FIFO order
//! and quiescence protocol included.
//!
//! A fixed chain *is* an elastic chain with no scale plan:
//! [`run_pipeline`] deploys the given nodes as an [`ElasticPipeline`],
//! replays the schedule with [`ScalePlan::none`] and maps the outcome
//! into a [`RunOutcome`].  There is one driver (it holds each entry frame
//! until its departure, which also bounds a partial frame's wait across a
//! silent stream), one worker loop and one collector in the runtime, so a
//! fix to any of them reaches both entry points at once.
//!
//! The workers execute exactly the same node state machines as the
//! discrete-event simulator, so the produced result *set* is identical; the
//! runtime is what you would deploy on real hardware, while the simulator
//! is what the evaluation harness uses to sweep core counts beyond the host
//! machine.

use crate::elastic::{ElasticPipeline, NodeFactory, ScalePlan};
use crate::exec::StreamClock;
use crate::options::PipelineOptions;
use llhj_core::driver::DriverSchedule;
use llhj_core::homing::HomePolicy;
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::OutputItem;
use llhj_core::result::TimedResult;
use llhj_core::stats::{LatencyPoint, LatencySummary, NodeCounters};
use llhj_core::tuple::SeqNo;
use llhj_sync::sync::Arc;
use llhj_sync::time::Duration;

/// Everything measured during one threaded run.
#[derive(Debug)]
pub struct RunOutcome<R, S> {
    /// All produced results, in collection order.
    pub results: Vec<TimedResult<R, S>>,
    /// The punctuated output stream (empty unless `punctuate` was set).
    pub output: Vec<OutputItem<TimedResult<R, S>>>,
    /// Per-node work counters, indexed by node id.
    pub counters: Vec<NodeCounters>,
    /// Latency statistics (meaningful only for paced runs).
    pub latency: LatencySummary,
    /// Latency time series.
    pub latency_series: Vec<LatencyPoint>,
    /// Wall-clock time the run took.
    pub elapsed: Duration,
    /// Number of punctuations emitted.
    pub punctuation_count: u64,
    /// Number of R/S arrivals actually injected: the schedule's counts,
    /// unless the run was cancelled mid-replay (then the arrivals whose
    /// entry frames departed before the cancel).
    pub arrivals_per_stream: (usize, usize),
    /// Number of frames the driver injected into the pipeline ends.
    pub frames_injected: u64,
    /// Number of frame buffers allocated after start-up — by workers whose
    /// arena pool ran dry and by the driver's entry batchers when the
    /// flow-back rings had nothing to recycle.  Bounded (instead of
    /// growing with the frame count) when the arena circulation works.
    pub batch_allocs: u64,
    /// Number of times a worker woke up (or polled) and found neither of
    /// its inputs ready.  Under event-driven scheduling this stays near
    /// zero; a busy-polling loop accumulates one per idle poll interval.
    pub idle_wakeups: u64,
    /// True if the run was interrupted by [`PipelineOptions::cancel`]
    /// before the whole schedule was replayed.  The results cover exactly
    /// the arrivals whose entry frames departed before the cancel (the
    /// pipeline is drained before returning, so nothing in flight is
    /// lost).
    pub cancelled: bool,
}

impl<R, S> RunOutcome<R, S> {
    /// Sorted `(r_seq, s_seq)` result keys for comparison with the oracle.
    pub fn result_keys(&self) -> Vec<(SeqNo, SeqNo)> {
        let mut keys: Vec<_> = self.results.iter().map(|t| t.result.key()).collect();
        keys.sort_unstable();
        keys
    }

    /// Observed throughput in tuples per second per stream (wall clock).
    pub fn throughput_per_stream(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.arrivals_per_stream.0 as f64 / self.elapsed.as_secs_f64()
    }

    /// Total predicate evaluations across all workers.
    pub fn total_comparisons(&self) -> u64 {
        self.counters.iter().map(|c| c.comparisons).sum()
    }
}

/// Runs a pipeline of the given nodes over a complete driver schedule and
/// waits for all results.
///
/// `nodes` must contain one [`PipelineNode`] per pipeline position, in
/// order (use [`crate::llhj_nodes`] / [`crate::hsj_nodes`] to build them).
/// The chain is an elastic chain run with an empty scale plan, so the
/// nodes need not support state migration.
pub fn run_pipeline<R, S, P, H>(
    nodes: Vec<Box<dyn PipelineNode<R, S>>>,
    predicate: P,
    policy: H,
    schedule: &DriverSchedule<R, S>,
    options: &PipelineOptions,
) -> RunOutcome<R, S>
where
    R: Clone + Send + Sync + 'static,
    S: Clone + Send + Sync + 'static,
    P: JoinPredicate<R, S> + Clone + Send + Sync + 'static,
    H: HomePolicy + Clone,
{
    let never_grows: NodeFactory<R, S> =
        Arc::new(|_, _| unreachable!("an empty scale plan never grows the chain"));
    let clock = Arc::new(StreamClock::new(options.pacing));
    let mut pipeline = ElasticPipeline::with_nodes(
        nodes,
        never_grows,
        predicate,
        policy,
        options.clone(),
        clock,
    );
    pipeline.run_schedule(schedule, &ScalePlan::none());
    let outcome = pipeline.finish();
    RunOutcome {
        results: outcome.results,
        output: outcome.output,
        counters: outcome.counters,
        latency: outcome.latency,
        latency_series: outcome.latency_series,
        elapsed: outcome.elapsed,
        punctuation_count: outcome.punctuation_count,
        arrivals_per_stream: outcome.arrivals_per_stream,
        frames_injected: outcome.frames_injected,
        batch_allocs: outcome.batch_allocs,
        idle_wakeups: outcome.idle_wakeups,
        cancelled: outcome.cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llhj_nodes;
    use crate::options::Pacing;
    use llhj_core::homing::RoundRobin;
    use llhj_core::predicate::FnPredicate;
    use llhj_core::time::{TimeDelta, Timestamp};
    use llhj_core::window::WindowSpec;
    use llhj_sync::thread;
    use llhj_sync::time::Instant;

    #[test]
    #[should_panic(expected = "invalid PipelineOptions")]
    fn run_pipeline_rejects_non_finite_speedup() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        let schedule = DriverSchedule::build(
            vec![(Timestamp::from_millis(1), 1u32)],
            vec![(Timestamp::from_millis(1), 1u32)],
            WindowSpec::time_secs(1),
            WindowSpec::time_secs(1),
        );
        let opts = PipelineOptions {
            pacing: Pacing::RealTime { speedup: f64::NAN },
            ..Default::default()
        };
        let _ = run_pipeline(
            llhj_nodes(1, pred.clone()),
            pred,
            RoundRobin,
            &schedule,
            &opts,
        );
    }

    /// The ROADMAP open item the cancel token closes: a cancel arriving in
    /// the middle of a long pacing gap must interrupt the wait instead of
    /// sleeping the gap out.
    #[test]
    fn cancel_interrupts_a_long_pacing_gap() {
        use crate::channel::CancelToken;
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        // One early pair, then a 30-second silence before the next event:
        // without the deadline-based wait the driver would sleep ~30 s.
        let mk = |v: u32| {
            vec![
                (Timestamp::from_millis(1), v),
                (Timestamp::from_secs(30), v + 1_000),
            ]
        };
        let schedule = DriverSchedule::build(
            mk(7),
            mk(7),
            WindowSpec::time_secs(60),
            WindowSpec::time_secs(60),
        );
        let cancel = CancelToken::new();
        let opts = PipelineOptions {
            batch_size: 1,
            pacing: Pacing::RealTime { speedup: 1.0 },
            cancel: Some(cancel.clone()),
            ..Default::default()
        };
        let canceller = thread::spawn({
            let cancel = cancel.clone();
            move || {
                thread::sleep(Duration::from_millis(100));
                cancel.cancel();
            }
        });
        let started = Instant::now();
        let outcome = run_pipeline(
            llhj_nodes(2, pred.clone()),
            pred,
            RoundRobin,
            &schedule,
            &opts,
        );
        canceller.join().unwrap();
        assert!(outcome.cancelled, "the run must report the interruption");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "cancel must interrupt the 30 s pacing gap, not sleep it out \
             (took {:?})",
            started.elapsed()
        );
        // The injected prefix (the first pair of each stream) was fully
        // processed before returning: nothing in flight was dropped.
        assert_eq!(
            outcome.result_keys(),
            vec![(llhj_core::tuple::SeqNo(0), llhj_core::tuple::SeqNo(0))]
        );
        // And the outcome reports what was actually injected, not the
        // full schedule (throughput numbers would otherwise be inflated).
        assert_eq!(outcome.arrivals_per_stream, (1, 1));
    }

    /// A stream that goes silent mid-run must not hold a partial entry
    /// frame until the stream resumes: the driver queues the post-gap
    /// events at once, which ages the pre-gap frame out, and the frame
    /// departs at its age deadline, one flush interval after it started.
    #[test]
    fn flush_timer_bounds_latency_across_a_silent_gap() {
        let pred = FnPredicate(|r: &u32, s: &u32| r == s);
        // One matching pair right at the start, then ~700 ms of silence
        // before the streams resume.
        let mk = |v: u32| {
            vec![
                (Timestamp::from_millis(1), v),
                (Timestamp::from_millis(700), v + 1_000),
                (Timestamp::from_millis(710), v + 2_000),
            ]
        };
        let schedule = DriverSchedule::build(
            mk(7),
            mk(7),
            WindowSpec::time_secs(2),
            WindowSpec::time_secs(2),
        );
        let opts = PipelineOptions {
            // A batch far larger than the pre-gap tuple count: without the
            // timer the first frame stays partial for the whole gap.
            batch_size: 64,
            flush_interval: Some(TimeDelta::from_millis(10)),
            pacing: Pacing::RealTime { speedup: 1.0 },
            ..Default::default()
        };
        let outcome = run_pipeline(
            llhj_nodes(2, pred.clone()),
            pred,
            RoundRobin,
            &schedule,
            &opts,
        );
        let first = outcome
            .results
            .iter()
            .find(|t| t.result.key() == (llhj_core::tuple::SeqNo(0), llhj_core::tuple::SeqNo(0)))
            .expect("the pre-gap pair must be found");
        let latency = first.latency();
        assert!(
            latency < TimeDelta::from_millis(200),
            "pre-gap result waited {latency} — the wall-clock flush timer \
             should have bounded it near the 10 ms interval"
        );
    }
}
