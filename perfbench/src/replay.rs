//! Single-threaded replay of a schedule through the public layer functions,
//! for the per-layer numbers.
//!
//! The replay is the threaded runtime with the threads taken out: the same
//! entry batching as the fixed driver (frames of `batch_size` arrivals,
//! the stream-time flush bound, the rule that an expiry never overtakes
//! its own still-buffered arrival), the same node state machines behind
//! `PipelineNode`, and the same ring channels between neighbours.  Every
//! injected frame is processed to quiescence before the next one: the
//! frames travel over per-link FIFO queues (`channel::spsc_unbounded`),
//! and each node forwards the complete output of one frame as one frame
//! per direction, as a worker does.  That is one of the interleavings the
//! threaded chain may take, so the result set must equal the oracle's.
//!
//! With `TRACE` set, the replay times every call into a layer —
//! `Injector::inject_*` (driver), `Sender::send`/`Receiver::try_recv`
//! (ring), `PipelineNode::handle_*` split by message kind (node arrivals,
//! node protocol traffic, store expiries) and the high-water marks
//! (punctuation) — and counts the calls.  The glue between the calls is
//! the replay's own code; it shows as `replay.layer_slack`.

use crate::measure::process_cpu;
use crate::oracle::Key;
use llhj_core::driver::{DriverSchedule, Injector, StreamEvent};
use llhj_core::homing::RoundRobin;
use llhj_core::message::{LeftToRight, MessageBatch, NodeOutput, RightToLeft};
use llhj_core::node::PipelineNode;
use llhj_core::predicate::JoinPredicate;
use llhj_core::punctuation::HighWaterMarks;
use llhj_core::result::ResultTuple;
use llhj_core::stats::NodeCounters;
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_runtime::channel::{spsc_unbounded, Receiver, Sender};
use llhj_workload::{RTuple, STuple};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Frame = MessageBatch<RTuple, STuple>;
type Nodes = Vec<Box<dyn PipelineNode<RTuple, STuple>>>;

/// Lock-free fast-path depth of each replay link, in frames.
const RING_CAPACITY: usize = 256;

/// How the replay batches its entry frames.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Arrivals per entry frame.
    pub batch_size: usize,
    /// Stream-time bound on a partial entry frame.
    pub flush: Option<TimeDelta>,
    /// Whether the collector step derives punctuations.
    pub punctuate: bool,
}

/// Busy time and call counts per layer (zero unless traced).
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `Injector::inject_*` time and calls.
    pub inject: (Duration, u64),
    /// Ring `send` + `try_recv` time, and calls.
    pub ring: (Duration, u64),
    /// Node time on tuple arrivals, and arrival messages handled.
    pub arrival: (Duration, u64),
    /// Node time on acknowledgements and expedition ends, and messages.
    pub protocol: (Duration, u64),
    /// Node time on expiries (window store removal), and messages.
    pub expiry: (Duration, u64),
    /// High-water-mark observation and punctuation time, and calls.
    pub punctuation: (Duration, u64),
}

impl Layers {
    /// Sum of all layers' busy time.
    pub fn total(&self) -> Duration {
        self.inject.0
            + self.ring.0
            + self.arrival.0
            + self.protocol.0
            + self.expiry.0
            + self.punctuation.0
    }
}

/// What one replay measured.
pub struct Replay {
    /// Sorted result keys, duplicates kept.
    pub keys: Vec<Key>,
    /// Wall time of the replay.
    pub wall: Duration,
    /// Process CPU time of the replay.
    pub cpu: Duration,
    /// Per-layer busy time (traced replays only).
    pub layers: Layers,
    /// Frames moved over all links, entry links included.
    pub frames: u64,
    /// Messages the nodes handled.
    pub messages: u64,
    /// Node counters at the end of the replay.
    pub counters: Vec<NodeCounters>,
    /// Punctuations the collector step derived.
    pub punctuations: u64,
}

#[derive(Clone, Copy)]
enum Link {
    /// Into node `k` from its left.
    Ltr(usize),
    /// Into node `k` from its right.
    Rtl(usize),
}

#[inline(always)]
fn timed<const TRACE: bool, T>(slot: &mut (Duration, u64), f: impl FnOnce() -> T) -> T {
    if TRACE {
        let t = Instant::now();
        let v = f();
        slot.0 += t.elapsed();
        slot.1 += 1;
        v
    } else {
        f()
    }
}

/// Back-to-back spans over a run of calls: each call's span starts where
/// the previous one ended, so a frame's messages cost one clock read each.
struct Lap<const TRACE: bool>(Option<Instant>);

impl<const TRACE: bool> Lap<TRACE> {
    fn start() -> Self {
        Lap(TRACE.then(Instant::now))
    }

    /// Charges the time since the previous lap to `slot`.
    #[inline(always)]
    fn lap(&mut self, slot: &mut (Duration, u64)) {
        if let Some(last) = &mut self.0 {
            let now = Instant::now();
            slot.0 += now - *last;
            slot.1 += 1;
            *last = now;
        }
    }
}

/// A pending entry frame.
struct Entry<M> {
    msgs: Vec<M>,
    arrivals: usize,
    opened: Option<Timestamp>,
}

impl<M> Entry<M> {
    fn new() -> Self {
        Entry {
            msgs: Vec::new(),
            arrivals: 0,
            opened: None,
        }
    }

    fn push(&mut self, msg: M, at: Timestamp) {
        self.opened.get_or_insert(at);
        self.msgs.push(msg);
    }

    fn older_than(&self, now: Timestamp, interval: TimeDelta) -> bool {
        self.opened
            .is_some_and(|t| now.saturating_since(t) >= interval)
    }

    fn take(&mut self) -> Option<Vec<M>> {
        self.arrivals = 0;
        self.opened = None;
        (!self.msgs.is_empty()).then(|| std::mem::take(&mut self.msgs))
    }
}

struct Chain<const TRACE: bool> {
    nodes: Nodes,
    ltr: Vec<(Sender<Frame>, Receiver<Frame>)>,
    rtl: Vec<(Sender<Frame>, Receiver<Frame>)>,
    pending: VecDeque<Link>,
    out: NodeOutput<RTuple, STuple, ResultTuple<RTuple, STuple>>,
    keys: Vec<Key>,
    hwm: Arc<HighWaterMarks>,
    punctuate: bool,
    last_punctuation: Timestamp,
    punctuations: u64,
    layers: Layers,
    frames: u64,
    messages: u64,
}

impl<const TRACE: bool> Chain<TRACE> {
    fn new(nodes: Nodes, punctuate: bool) -> Self {
        let n = nodes.len();
        let link = || spsc_unbounded(RING_CAPACITY, None);
        Chain {
            nodes,
            ltr: (0..n).map(|_| link()).collect(),
            rtl: (0..n).map(|_| link()).collect(),
            pending: VecDeque::new(),
            out: NodeOutput::new(),
            keys: Vec::new(),
            hwm: HighWaterMarks::new(),
            punctuate,
            last_punctuation: Timestamp::ZERO,
            punctuations: 0,
            layers: Layers::default(),
            frames: 0,
            messages: 0,
        }
    }

    fn send(&mut self, link: Link, frame: Frame) {
        let tx = match link {
            Link::Ltr(k) => &self.ltr[k].0,
            Link::Rtl(k) => &self.rtl[k].0,
        };
        timed::<TRACE, _>(&mut self.layers.ring, || tx.send(frame))
            .unwrap_or_else(|_| panic!("replay link closed"));
        self.frames += 1;
        self.pending.push_back(link);
    }

    /// Injects one entry frame and processes every frame it causes.
    fn inject(&mut self, link: Link, frame: Frame) {
        self.send(link, frame);
        while let Some(link) = self.pending.pop_front() {
            let rx = match link {
                Link::Ltr(k) => &self.ltr[k].1,
                Link::Rtl(k) => &self.rtl[k].1,
            };
            let frame = timed::<TRACE, _>(&mut self.layers.ring, || rx.try_recv())
                .unwrap_or_else(|_| panic!("a sent frame is waiting on its link"));
            match link {
                Link::Ltr(k) | Link::Rtl(k) => self.handle(k, frame),
            }
        }
        if self.punctuate {
            let hwm = &self.hwm;
            let safe = timed::<TRACE, _>(&mut self.layers.punctuation, || hwm.safe_punctuation());
            if safe > self.last_punctuation {
                self.last_punctuation = safe;
                self.punctuations += 1;
            }
        }
    }

    /// One node handles one frame, as a worker does.
    fn handle(&mut self, k: usize, frame: Frame) {
        let n = self.nodes.len();
        let node = &mut self.nodes[k];
        let out = &mut self.out;
        let layers = &mut self.layers;
        out.clear();
        let mut observed_r = None;
        let mut observed_s = None;
        match frame {
            MessageBatch::Left(msgs) => {
                self.messages += msgs.len() as u64;
                let mut lap = Lap::<TRACE>::start();
                for msg in msgs {
                    let slot = match msg {
                        LeftToRight::ArrivalR(ref r) => {
                            if k + 1 == n {
                                observed_r = Some(r.ts());
                            }
                            &mut layers.arrival
                        }
                        LeftToRight::AckS(_) => &mut layers.protocol,
                        LeftToRight::ExpiryS(_) => &mut layers.expiry,
                    };
                    node.handle_left(msg, out);
                    lap.lap(slot);
                }
            }
            MessageBatch::Right(msgs) => {
                self.messages += msgs.len() as u64;
                let mut lap = Lap::<TRACE>::start();
                for msg in msgs {
                    let slot = match msg {
                        RightToLeft::ArrivalS(ref s) => {
                            if k == 0 {
                                observed_s = Some(s.ts());
                            }
                            &mut layers.arrival
                        }
                        RightToLeft::ExpeditionEndR(_) => &mut layers.protocol,
                        RightToLeft::ExpiryR(_) => &mut layers.expiry,
                    };
                    node.handle_right(msg, out);
                    lap.lap(slot);
                }
            }
            MessageBatch::Handoff(_) => unreachable!("the replay never resizes"),
        }
        self.keys.extend(out.results.drain(..).map(|r| r.key()));
        let to_right = std::mem::take(&mut self.out.to_right);
        let to_left = std::mem::take(&mut self.out.to_left);
        if !to_right.is_empty() && k + 1 < n {
            self.send(Link::Ltr(k + 1), MessageBatch::Left(to_right));
        }
        if !to_left.is_empty() && k > 0 {
            self.send(Link::Rtl(k - 1), MessageBatch::Right(to_left));
        }
        let hwm = &self.hwm;
        if let Some(ts) = observed_r {
            timed::<TRACE, _>(&mut self.layers.punctuation, || hwm.observe_r(ts));
        }
        if let Some(ts) = observed_s {
            timed::<TRACE, _>(&mut self.layers.punctuation, || hwm.observe_s(ts));
        }
    }
}

/// Replays `schedule` through `nodes`, single-threaded.
pub fn replay<const TRACE: bool, P>(
    nodes: Nodes,
    predicate: P,
    schedule: &DriverSchedule<RTuple, STuple>,
    config: Config,
) -> Replay
where
    P: JoinPredicate<RTuple, STuple>,
{
    let n = nodes.len();
    let cpu0 = process_cpu();
    let started = Instant::now();
    let injector = Injector::new(predicate, RoundRobin, n);
    let mut chain = Chain::<TRACE>::new(nodes, config.punctuate);
    let mut left: Entry<LeftToRight<RTuple>> = Entry::new();
    let mut right: Entry<RightToLeft<STuple>> = Entry::new();
    let (mut seen_r, mut seen_s) = (0, 0);
    let flush_left = |chain: &mut Chain<TRACE>, left: &mut Entry<LeftToRight<RTuple>>| {
        if let Some(msgs) = left.take() {
            chain.inject(Link::Ltr(0), MessageBatch::Left(msgs));
        }
    };
    let flush_right = |chain: &mut Chain<TRACE>, right: &mut Entry<RightToLeft<STuple>>| {
        if let Some(msgs) = right.take() {
            chain.inject(Link::Rtl(n - 1), MessageBatch::Right(msgs));
        }
    };
    for event in schedule.events() {
        if let Some(interval) = config.flush {
            if left.older_than(event.at, interval) {
                flush_left(&mut chain, &mut left);
            }
            if right.older_than(event.at, interval) {
                flush_right(&mut chain, &mut right);
            }
        }
        match &event.event {
            StreamEvent::ArrivalR(r) => {
                let msg =
                    timed::<TRACE, _>(&mut chain.layers.inject, || injector.inject_r(r.clone()));
                left.push(msg, event.at);
                left.arrivals += 1;
                seen_r += 1;
                if left.arrivals >= config.batch_size || seen_r == schedule.r_count() {
                    flush_left(&mut chain, &mut left);
                }
            }
            StreamEvent::ArrivalS(s) => {
                let msg =
                    timed::<TRACE, _>(&mut chain.layers.inject, || injector.inject_s(s.clone()));
                right.push(msg, event.at);
                right.arrivals += 1;
                seen_s += 1;
                if right.arrivals >= config.batch_size || seen_s == schedule.s_count() {
                    flush_right(&mut chain, &mut right);
                }
            }
            StreamEvent::ExpireS(seq) => {
                // An expiry must not overtake its own arrival still parked
                // in the opposite entry frame.
                if right
                    .msgs
                    .iter()
                    .any(|m| matches!(m, RightToLeft::ArrivalS(t) if t.tuple.seq == *seq))
                {
                    flush_right(&mut chain, &mut right);
                }
                left.push(LeftToRight::ExpiryS(*seq), event.at);
            }
            StreamEvent::ExpireR(seq) => {
                if left
                    .msgs
                    .iter()
                    .any(|m| matches!(m, LeftToRight::ArrivalR(t) if t.tuple.seq == *seq))
                {
                    flush_left(&mut chain, &mut left);
                }
                right.push(RightToLeft::ExpiryR(*seq), event.at);
            }
        }
    }
    flush_left(&mut chain, &mut left);
    flush_right(&mut chain, &mut right);
    let wall = started.elapsed();
    let cpu = process_cpu().saturating_sub(cpu0);
    chain.keys.sort_unstable();
    Replay {
        keys: chain.keys,
        wall,
        cpu,
        layers: chain.layers,
        frames: chain.frames,
        messages: chain.messages,
        counters: chain
            .nodes
            .iter()
            .map(|node| node.node_counters())
            .collect(),
        punctuations: chain.punctuations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::reference_join;
    use crate::workloads::{Kind, Spec, WORKLOADS};
    use llhj_runtime::{llhj_indexed_nodes, llhj_nodes};
    use llhj_workload::{BandPredicate, EquiXaPredicate};

    fn replay_both(spec: &Spec, schedule: &DriverSchedule<RTuple, STuple>) -> [Replay; 2] {
        let config = Config {
            batch_size: spec.batch_size,
            flush: Some(TimeDelta::from_millis(3)),
            punctuate: spec.kind == Kind::BandElasticCkpt,
        };
        if spec.is_equi() {
            let nodes = || llhj_indexed_nodes(2, EquiXaPredicate);
            [
                replay::<false, _>(nodes(), EquiXaPredicate, schedule, config),
                replay::<true, _>(nodes(), EquiXaPredicate, schedule, config),
            ]
        } else {
            let pred = BandPredicate::default();
            [
                replay::<false, _>(llhj_nodes(2, pred), pred, schedule, config),
                replay::<true, _>(llhj_nodes(2, pred), pred, schedule, config),
            ]
        }
    }

    #[test]
    fn replay_equals_the_oracle_and_traces_every_layer() {
        for spec in WORKLOADS {
            let spec = Spec {
                stream_secs: 1.2,
                ..spec.clone()
            }
            .with_seed(9);
            let schedule = spec.schedule();
            let oracle = if spec.is_equi() {
                reference_join(&EquiXaPredicate, &schedule)
            } else {
                reference_join(&BandPredicate::default(), &schedule)
            };
            let [untraced, traced] = replay_both(&spec, &schedule);
            assert!(!oracle.is_empty(), "{}", spec.name);
            assert_eq!(untraced.keys, oracle, "{} untraced", spec.name);
            assert_eq!(traced.keys, oracle, "{} traced", spec.name);
            assert_eq!(untraced.layers.total(), Duration::ZERO);
            let layers = traced.layers;
            for (name, (time, calls)) in [
                ("inject", layers.inject),
                ("ring", layers.ring),
                ("arrival", layers.arrival),
                ("protocol", layers.protocol),
                ("expiry", layers.expiry),
                ("punctuation", layers.punctuation),
            ] {
                assert!(calls > 0 && time > Duration::ZERO, "{} {name}", spec.name);
            }
            assert_eq!(
                layers.inject.1,
                (schedule.r_count() + schedule.s_count()) as u64
            );
            // Every frame is sent once and received once.
            assert_eq!(layers.ring.1, 2 * traced.frames);
            assert!(traced.wall >= layers.total());
            assert_eq!(untraced.frames, traced.frames);
            assert_eq!(untraced.messages, traced.messages);
        }
    }
}
