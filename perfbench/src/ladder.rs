//! The sustained-rate search over a geometric ladder of offered rates.
//!
//! Rung `i` offers `floor * LADDER_STEP^i` tuples/s per stream.  A run on
//! a rung *passes* if its result set equals the oracle, it drains within
//! [`DRAIN_LIMIT_MS`] of the last event's due time, and its p99 latency is
//! at most [`P99_LIMIT_MS`].  Near capacity the outcome of a run is a coin
//! toss — a scheduling stall can tip a chain into a backlog it does not
//! recover from, at a rate it passes on the next try — so the highest rung
//! that happened to pass once is a noisy figure.  The search is therefore
//! an up-down staircase: it climbs after a pass and drops after a failure,
//! which makes it oscillate around the rung that passes half of the time.
//! The first steps are wider (four rungs, then two) so a faster or slower
//! program is reached in a few runs.  The sustained rate is the median of
//! the rates tried from the first reversal on; the median, not the mean,
//! so a stretch of failures while the host is busy with other work moves
//! it by a rung or two at most.

use crate::measure::median;
use crate::workloads::{Spec, LADDER_STEP};

/// A run passes only if it drains within this many milliseconds of the
/// last event's due time (no backlog left).
pub const DRAIN_LIMIT_MS: f64 = 10.0;

/// A run passes only if its p99 latency is at most this many milliseconds.
pub const P99_LIMIT_MS: f64 = 10.0;

/// One run on the ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, tuples/s per stream.
    pub tps: f64,
    /// Result set equal to the oracle.
    pub exact: bool,
    /// p99 latency, wall milliseconds.
    pub p99_ms: f64,
    /// Drain after the last event's due time, milliseconds.
    pub drain_ms: f64,
}

impl Rung {
    /// True if the run sustained its rate.
    pub fn pass(&self) -> bool {
        self.exact && self.drain_ms <= DRAIN_LIMIT_MS && self.p99_ms <= P99_LIMIT_MS
    }
}

/// The state of one staircase search.
pub struct Staircase {
    floor_tps: f64,
    rung: i32,
    step: i32,
    settled_from: Option<usize>,
    /// Every run so far, in order.
    pub rungs: Vec<Rung>,
}

impl Staircase {
    /// A search starting at the rung nearest `spec.ladder_start_tps`.
    pub fn new(spec: &Spec) -> Self {
        let start = (spec.ladder_start_tps / spec.ladder_floor_tps).ln() / LADDER_STEP.ln();
        Staircase {
            floor_tps: spec.ladder_floor_tps,
            rung: start.round().max(0.0) as i32,
            step: 4,
            settled_from: None,
            rungs: Vec::new(),
        }
    }

    /// The rate of the next run.
    pub fn next_tps(&self) -> f64 {
        self.floor_tps * LADDER_STEP.powi(self.rung)
    }

    /// Records the outcome of a run at [`Self::next_tps`] and moves.
    pub fn record(&mut self, rung: Rung) {
        let pass = rung.pass();
        if self.rungs.last().is_some_and(|prev| prev.pass() != pass) {
            self.settled_from.get_or_insert(self.rungs.len());
            self.step = (self.step / 2).max(1);
        }
        self.rungs.push(rung);
        self.rung = if pass {
            self.rung + self.step
        } else {
            (self.rung - self.step).max(0)
        };
    }

    /// The sustained rate: the median rate from the first reversal on
    /// (the last rate tried if the search never reversed).
    pub fn sustained_tps(&self) -> f64 {
        let from = self
            .settled_from
            .unwrap_or(self.rungs.len().saturating_sub(1));
        let settled: Vec<f64> = self.rungs[from..].iter().map(|r| r.tps).collect();
        median(&settled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn rung(tps: f64, pass: bool) -> Rung {
        Rung {
            tps,
            exact: pass,
            p99_ms: 1.0,
            drain_ms: 1.0,
        }
    }

    #[test]
    fn a_run_fails_on_any_of_the_three_criteria() {
        assert!(rung(1.0, true).pass());
        assert!(!rung(1.0, false).pass());
        let late = Rung {
            drain_ms: DRAIN_LIMIT_MS + 0.1,
            ..rung(1.0, true)
        };
        assert!(!late.pass());
        let slow = Rung {
            p99_ms: P99_LIMIT_MS + 0.1,
            ..rung(1.0, true)
        };
        assert!(!slow.pass());
    }

    #[test]
    fn staircase_settles_around_the_capacity_of_a_deterministic_chain() {
        let spec = &WORKLOADS[0];
        let capacity = spec.ladder_start_tps * 1.3;
        let mut stairs = Staircase::new(spec);
        for _ in 0..30 {
            let tps = stairs.next_tps();
            stairs.record(rung(tps, tps <= capacity));
        }
        let sustained = stairs.sustained_tps();
        assert!(
            sustained <= capacity * LADDER_STEP && sustained >= capacity / LADDER_STEP,
            "{sustained} vs {capacity}"
        );
        // Steps of one rung once the search has settled.
        let last: Vec<f64> = stairs.rungs[20..].iter().map(|r| r.tps).collect();
        for pair in last.windows(2) {
            let ratio = (pair[1] / pair[0]).max(pair[0] / pair[1]);
            assert!((ratio - LADDER_STEP).abs() < 1e-9, "{pair:?}");
        }
    }

    #[test]
    fn staircase_never_drops_below_the_floor() {
        let spec = &WORKLOADS[0];
        let mut stairs = Staircase::new(spec);
        for _ in 0..60 {
            let tps = stairs.next_tps();
            stairs.record(rung(tps, false));
        }
        assert_eq!(stairs.next_tps(), spec.ladder_floor_tps);
    }
}
