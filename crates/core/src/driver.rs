//! The external window driver.
//!
//! Both handshake-join variants assume "an external driver that is aware of
//! the sliding window specification and determines when tuples enter or
//! leave one of the sliding windows" (Section 4.2.4).  This module builds
//! that driver in an engine-agnostic way: given the raw arrivals of both
//! streams and a window specification per stream, it produces a single
//! totally-ordered schedule of arrival and expiry events.  The threaded
//! runtime replays the schedule against the wall clock, the discrete-event
//! simulator replays it in virtual time, and the baseline algorithms consume
//! it directly — so every algorithm sees exactly the same window semantics.

use crate::homing::HomePolicy;
use crate::message::{LeftToRight, RightToLeft};
use crate::predicate::JoinPredicate;
use crate::time::Timestamp;
use crate::tuple::{PipelineTuple, SeqNo, StreamTuple};
use crate::window::{WindowSpec, WindowTracker};

/// One driver event: something enters or leaves a sliding window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent<R, S> {
    /// A new R tuple arrives (submitted to the left pipeline end).
    ArrivalR(StreamTuple<R>),
    /// A new S tuple arrives (submitted to the right pipeline end).
    ArrivalS(StreamTuple<S>),
    /// An R tuple leaves its window (submitted to the right pipeline end).
    ExpireR(SeqNo),
    /// An S tuple leaves its window (submitted to the left pipeline end).
    ExpireS(SeqNo),
}

impl<R, S> StreamEvent<R, S> {
    /// True for arrival events.
    pub fn is_arrival(&self) -> bool {
        matches!(self, StreamEvent::ArrivalR(_) | StreamEvent::ArrivalS(_))
    }
}

/// A timestamped driver event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverEvent<R, S> {
    /// The stream time at which the driver submits the event.
    pub at: Timestamp,
    /// What happens.
    pub event: StreamEvent<R, S>,
}

/// The fully-ordered schedule of driver events for one experiment run.
#[derive(Debug, Clone)]
pub struct DriverSchedule<R, S> {
    events: Vec<DriverEvent<R, S>>,
    r_count: usize,
    s_count: usize,
}

impl<R, S> DriverSchedule<R, S> {
    /// Builds a schedule from raw arrivals (timestamp, payload) of both
    /// streams and their window specifications.
    ///
    /// Arrivals must be sorted by timestamp within each stream; sequence
    /// numbers are assigned here in arrival order.  Expiry events that fall
    /// beyond the last arrival are retained (they flush the windows), which
    /// callers may or may not replay.
    pub fn build(
        r_arrivals: Vec<(Timestamp, R)>,
        s_arrivals: Vec<(Timestamp, S)>,
        window_r: WindowSpec,
        window_s: WindowSpec,
    ) -> Self {
        let r_count = r_arrivals.len();
        let s_count = s_arrivals.len();
        let mut events = Vec::with_capacity(2 * (r_count + s_count));

        let mut tracker_r = WindowTracker::new(window_r);
        let mut last = Timestamp::ZERO;
        for (i, (ts, payload)) in r_arrivals.into_iter().enumerate() {
            assert!(ts >= last, "R arrivals must be sorted by timestamp");
            last = ts;
            let seq = SeqNo(i as u64);
            for expiry in tracker_r.on_arrival(seq, ts) {
                events.push(DriverEvent {
                    at: expiry.at,
                    event: StreamEvent::ExpireR(expiry.seq),
                });
            }
            events.push(DriverEvent {
                at: ts,
                event: StreamEvent::ArrivalR(StreamTuple::new(seq, ts, payload)),
            });
        }

        let mut tracker_s = WindowTracker::new(window_s);
        let mut last = Timestamp::ZERO;
        for (i, (ts, payload)) in s_arrivals.into_iter().enumerate() {
            assert!(ts >= last, "S arrivals must be sorted by timestamp");
            last = ts;
            let seq = SeqNo(i as u64);
            for expiry in tracker_s.on_arrival(seq, ts) {
                events.push(DriverEvent {
                    at: expiry.at,
                    event: StreamEvent::ExpireS(expiry.seq),
                });
            }
            events.push(DriverEvent {
                at: ts,
                event: StreamEvent::ArrivalS(StreamTuple::new(seq, ts, payload)),
            });
        }

        // Stable ordering by time only.  Within one stream the generation
        // order is already correct (a count-window expiry is generated right
        // before the arrival that triggers it, a time-window expiry carries a
        // later timestamp), and `sort_by` is stable, so per-stream FIFO order
        // is preserved.  Cross-stream ties at the exact same microsecond are
        // broken in favour of R events; this convention is shared by every
        // algorithm that replays the schedule, so all of them agree on the
        // boundary cases.
        events.sort_by_key(|a| a.at);

        DriverSchedule {
            events,
            r_count,
            s_count,
        }
    }

    /// The ordered events.
    pub fn events(&self) -> &[DriverEvent<R, S>] {
        &self.events
    }

    /// Consumes the schedule, returning the ordered events.
    pub fn into_events(self) -> Vec<DriverEvent<R, S>> {
        self.events
    }

    /// Number of R arrivals in the schedule.
    pub fn r_count(&self) -> usize {
        self.r_count
    }

    /// Number of S arrivals in the schedule.
    pub fn s_count(&self) -> usize {
        self.s_count
    }

    /// A schedule holding only the first `events` events — the crash
    /// recovery suite replays such a prefix to model a driver that died
    /// mid-run with a clean injected prefix.  Arrival counts are recounted
    /// over the kept events.
    pub fn truncated(&self, events: usize) -> Self
    where
        R: Clone,
        S: Clone,
    {
        let kept = self.events[..events.min(self.events.len())].to_vec();
        let r_count = kept
            .iter()
            .filter(|e| matches!(e.event, StreamEvent::ArrivalR(_)))
            .count();
        let s_count = kept
            .iter()
            .filter(|e| matches!(e.event, StreamEvent::ArrivalS(_)))
            .count();
        DriverSchedule {
            events: kept,
            r_count,
            s_count,
        }
    }

    /// Timestamp of the last arrival (useful to stop replay once all input
    /// has been consumed).
    pub fn last_arrival_ts(&self) -> Option<Timestamp> {
        self.events
            .iter()
            .filter(|e| e.event.is_arrival())
            .map(|e| e.at)
            .next_back()
    }
}

/// Converts driver events into pipeline messages, assigning home nodes.
///
/// In the paper the home node is decided at the entry node of the pipeline
/// (line 6 of Figures 13/14).  Factoring the decision into this injector
/// keeps the node state machines independent of the placement policy while
/// remaining semantically identical: the injector is invoked exactly when a
/// tuple is submitted to its entry node.
pub struct Injector<R, S, P, H> {
    predicate: P,
    policy: H,
    nodes: usize,
    _marker: std::marker::PhantomData<fn() -> (R, S)>,
}

impl<R, S, P, H> Injector<R, S, P, H> {
    /// Creates an injector for a pipeline of `nodes` nodes.
    pub fn new(predicate: P, policy: H, nodes: usize) -> Self {
        assert!(nodes > 0, "a pipeline needs at least one node");
        Injector {
            predicate,
            policy,
            nodes,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of pipeline nodes the injector targets.
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

impl<R, S, P, H> Injector<R, S, P, H>
where
    P: JoinPredicate<R, S>,
    H: HomePolicy,
{
    /// Wraps an R arrival for submission to the leftmost node.
    pub fn inject_r(&self, tuple: StreamTuple<R>) -> LeftToRight<R> {
        let key = self.predicate.r_key(&tuple.payload);
        let home = self.policy.assign(tuple.seq, key, self.nodes);
        LeftToRight::ArrivalR(PipelineTuple::fresh(tuple, home))
    }

    /// Wraps an S arrival for submission to the rightmost node.
    pub fn inject_s(&self, tuple: StreamTuple<S>) -> RightToLeft<S> {
        let key = self.predicate.s_key(&tuple.payload);
        let home = self.policy.assign(tuple.seq, key, self.nodes);
        RightToLeft::ArrivalS(PipelineTuple::fresh(tuple, home))
    }

    /// Re-aims a wrapped R arrival that has not entered the pipeline yet at
    /// its home in this injector's width (after the chain was resized).
    pub fn rehome_r(&self, tuple: &mut PipelineTuple<R>) {
        let key = self.predicate.r_key(&tuple.tuple.payload);
        tuple.home = self.policy.assign(tuple.tuple.seq, key, self.nodes);
    }

    /// [`Injector::rehome_r`] for an S arrival.
    pub fn rehome_s(&self, tuple: &mut PipelineTuple<S>) {
        let key = self.predicate.s_key(&tuple.tuple.payload);
        tuple.home = self.policy.assign(tuple.tuple.seq, key, self.nodes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homing::RoundRobin;
    use crate::predicate::{EquiPredicate, FnPredicate};
    use crate::time::TimeDelta;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn schedule_orders_events_and_assigns_seqs() {
        let r = vec![(ts(1), 'a'), (ts(3), 'b')];
        let s = vec![(ts(2), 'x')];
        let sched = DriverSchedule::build(
            r,
            s,
            WindowSpec::Time(TimeDelta::from_secs(10)),
            WindowSpec::Time(TimeDelta::from_secs(10)),
        );
        assert_eq!(sched.r_count(), 2);
        assert_eq!(sched.s_count(), 1);
        let kinds: Vec<String> = sched
            .events()
            .iter()
            .map(|e| match &e.event {
                StreamEvent::ArrivalR(t) => format!("aR{}@{}", t.seq.0, e.at.as_secs_f64()),
                StreamEvent::ArrivalS(t) => format!("aS{}@{}", t.seq.0, e.at.as_secs_f64()),
                StreamEvent::ExpireR(q) => format!("eR{}@{}", q.0, e.at.as_secs_f64()),
                StreamEvent::ExpireS(q) => format!("eS{}@{}", q.0, e.at.as_secs_f64()),
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["aR0@1", "aS0@2", "aR1@3", "eR0@11", "eS0@12", "eR1@13"]
        );
        assert_eq!(sched.last_arrival_ts(), Some(ts(3)));
    }

    #[test]
    fn count_window_expiry_sits_between_the_two_arrivals() {
        // Count-based window of 1 on R with identical timestamps: the second
        // arrival expires the first at the same instant.  The expiry must
        // come after the first arrival (a tuple cannot expire before it
        // arrived) and before the arrival that triggered it.
        let r = vec![(ts(5), 1u32), (ts(5), 2u32)];
        let sched: DriverSchedule<u32, u32> =
            DriverSchedule::build(r, vec![], WindowSpec::Count(1), WindowSpec::Count(1));
        let pos = |pred: &dyn Fn(&StreamEvent<u32, u32>) -> bool| {
            sched.events().iter().position(|e| pred(&e.event)).unwrap()
        };
        let first_arrival = pos(&|e| matches!(e, StreamEvent::ArrivalR(t) if t.seq == SeqNo(0)));
        let expiry = pos(&|e| matches!(e, StreamEvent::ExpireR(SeqNo(0))));
        let second_arrival = pos(&|e| matches!(e, StreamEvent::ArrivalR(t) if t.seq == SeqNo(1)));
        assert!(first_arrival < expiry);
        assert!(expiry < second_arrival);
        assert_eq!(sched.events().len(), 3);
    }

    #[test]
    #[should_panic(expected = "sorted by timestamp")]
    fn unsorted_arrivals_are_rejected() {
        let r = vec![(ts(5), ()), (ts(3), ())];
        let _ = DriverSchedule::<(), ()>::build(
            r,
            vec![],
            WindowSpec::Unbounded,
            WindowSpec::Unbounded,
        );
    }

    #[test]
    fn injector_assigns_round_robin_homes() {
        let pred = FnPredicate(|_: &u32, _: &u32| true);
        let inj = Injector::new(pred, RoundRobin, 3);
        assert_eq!(inj.nodes(), 3);
        for i in 0..6u64 {
            let msg = inj.inject_r(StreamTuple::new(SeqNo(i), ts(i), i as u32));
            match msg {
                LeftToRight::ArrivalR(p) => {
                    assert_eq!(p.home, (i % 3) as usize);
                    assert!(p.is_fresh());
                }
                _ => panic!("expected arrival"),
            }
        }
    }

    #[test]
    fn injector_uses_predicate_keys_for_placement() {
        use crate::homing::HashKey;
        let pred = EquiPredicate::new(|r: &u64| *r, |s: &u64| *s);
        let inj = Injector::new(pred, HashKey, 4);
        // Same key on both sides must land on the same home node, which is
        // what makes hash placement co-partitioning.
        for key in 0..50u64 {
            let r_home = match inj.inject_r(StreamTuple::new(SeqNo(key), ts(1), key)) {
                LeftToRight::ArrivalR(p) => p.home,
                _ => unreachable!(),
            };
            let s_home = match inj.inject_s(StreamTuple::new(SeqNo(1000 + key), ts(1), key)) {
                RightToLeft::ArrivalS(p) => p.home,
                _ => unreachable!(),
            };
            assert_eq!(r_home, s_home);
        }
    }
}
