//! The three benchmark workloads and their schedules.
//!
//! Every workload is one precomputed driver schedule in *stream* time at a
//! base rate of [`BASE_RATE`] tuples per second per stream.  A run offers
//! the schedule at a wall-clock rate by replaying it with
//! `Pacing::RealTime { speedup }`, `speedup = rate / mean stream rate`, so
//! every rate of a run — ladder rungs and both fixed loads — replays the
//! same tuples and is checked against the same oracle.  Time windows are
//! stream time too, so a window holds the same tuples at every speedup.

use llhj_core::driver::{DriverSchedule, StreamEvent};
use llhj_core::time::{TimeDelta, Timestamp};
use llhj_core::window::WindowSpec;
use llhj_workload::{ArrivalPattern, BandJoinWorkload, EquiJoinWorkload, RTuple, STuple};
use std::time::{Duration, Instant};

/// Stream-time arrival rate of every schedule, tuples/s per stream (the
/// bursty workload's rate outside the burst).
pub const BASE_RATE: f64 = 10_000.0;

/// Which join and which driver a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Band join on a fixed 2-node chain with the columnar scan.
    BandScan,
    /// Equi-join on a fixed 2-node chain with hash-indexed windows.
    EquiHop,
    /// Bursty band join through the elastic driver with checkpoints.
    BandElasticCkpt,
}

/// A workload's parameters.  The two fixed loads are absolute per-stream
/// rates, so every commit is compared at the same offered load.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Join and driver.
    pub kind: Kind,
    /// Stream time covered by the arrivals, seconds.
    pub stream_secs: f64,
    /// Window of both streams (time windows are in stream time).
    pub window: WindowSpec,
    /// Upper end of the uniform join-attribute domain.
    pub domain: u32,
    /// Entry-frame size in tuples.
    pub batch_size: usize,
    /// Wall-clock bound on a partial entry frame, if any.
    pub flush_wall: Option<Duration>,
    /// The low fixed load, tuples/s per stream (about 25 % of the
    /// sustained rate when the workload was defined).
    pub low_tps: f64,
    /// The high fixed load, tuples/s per stream (about 50 %).
    pub high_tps: f64,
    /// Tuples per stream the fixed loads replay, from the start of the
    /// schedule (`None`: all of it).
    pub fixed_tuples: Option<usize>,
    /// Lowest rung of the sustained-rate ladder, tuples/s per stream.
    pub ladder_floor_tps: f64,
    /// Where the ladder search starts (the sustained rate measured when
    /// the workload was defined), tuples/s per stream.
    pub ladder_start_tps: f64,
    /// Workload seed.
    pub seed: u64,
}

/// One stream's arrivals, as `DriverSchedule::build` takes them.
type Arrivals<T> = Vec<(Timestamp, T)>;

/// Ratio between neighbouring rungs of the sustained-rate ladder.
pub const LADDER_STEP: f64 = 1.05;

/// The benchmark's workloads.
pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "band_scan",
        kind: Kind::BandScan,
        stream_secs: 6.0,
        window: WindowSpec::Time(TimeDelta::from_millis(800)),
        domain: 10_000,
        batch_size: 64,
        flush_wall: Some(Duration::from_millis(1)),
        low_tps: 35_000.0,
        high_tps: 70_000.0,
        fixed_tuples: Some(30_000),
        ladder_floor_tps: 32_000.0,
        ladder_start_tps: 190_000.0,
        seed: 0,
    },
    Spec {
        name: "equi_hop",
        kind: Kind::EquiHop,
        stream_secs: 6.0,
        window: WindowSpec::Count(1_000),
        domain: 4_000,
        batch_size: 1,
        flush_wall: None,
        low_tps: 10_000.0,
        high_tps: 20_000.0,
        fixed_tuples: Some(12_000),
        ladder_floor_tps: 10_000.0,
        ladder_start_tps: 190_000.0,
        seed: 0,
    },
    Spec {
        name: "band_elastic_ckpt",
        kind: Kind::BandElasticCkpt,
        stream_secs: 2.0,
        window: WindowSpec::Time(TimeDelta::from_millis(200)),
        domain: 10_000,
        batch_size: 64,
        flush_wall: Some(Duration::from_millis(1)),
        low_tps: 12_000.0,
        high_tps: 24_000.0,
        fixed_tuples: None,
        ladder_floor_tps: 8_000.0,
        ladder_start_tps: 110_000.0,
        seed: 0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built schedule plus what building it cost.
pub struct Built {
    /// The schedule, cut after its last arrival.
    pub schedule: DriverSchedule<RTuple, STuple>,
    /// Wall time of generating both streams.
    pub generate: Duration,
    /// Wall time of `DriverSchedule::build`.
    pub build: Duration,
}

impl Spec {
    /// The same workload with another seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True for the equi-join workload.
    pub fn is_equi(&self) -> bool {
        self.kind == Kind::EquiHop
    }

    fn generate(&self) -> (Arrivals<RTuple>, Arrivals<STuple>) {
        let duration = TimeDelta::from_micros((self.stream_secs * 1e6) as u64);
        // Distinct, decorrelated generator seeds per workload.
        let seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.kind as u64;
        match self.kind {
            Kind::EquiHop => {
                let w = EquiJoinWorkload {
                    rate_per_sec: BASE_RATE,
                    duration,
                    domain: self.domain,
                    seed,
                };
                (w.generate_r(), w.generate_s())
            }
            Kind::BandScan | Kind::BandElasticCkpt => {
                let pattern = if self.kind == Kind::BandElasticCkpt {
                    ArrivalPattern::Bursty {
                        factor: 3,
                        from_pct: 40,
                        to_pct: 70,
                    }
                } else {
                    ArrivalPattern::Steady
                };
                let w = BandJoinWorkload {
                    rate_per_sec: BASE_RATE,
                    duration,
                    domain: self.domain,
                    pattern,
                    seed,
                };
                (w.generate_r(), w.generate_s())
            }
        }
    }

    /// Generates the streams and builds the driver schedule, timing both
    /// steps.  Expiries past the last arrival cannot change the result
    /// set, so the replayed schedule stops at the last arrival.
    pub fn build(&self) -> Built {
        let t0 = Instant::now();
        let (r, s) = std::hint::black_box(self.generate());
        let generate = t0.elapsed();
        let t1 = Instant::now();
        let full = std::hint::black_box(DriverSchedule::build(r, s, self.window, self.window));
        let build = t1.elapsed();
        let last = full
            .events()
            .iter()
            .rposition(|e| e.event.is_arrival())
            .expect("a workload has arrivals");
        let schedule = if last + 1 == full.events().len() {
            full
        } else {
            full.truncated(last + 1)
        };
        Built {
            schedule,
            generate,
            build,
        }
    }

    /// Builds the schedule without timing it.
    #[cfg(test)]
    pub fn schedule(&self) -> DriverSchedule<RTuple, STuple> {
        self.build().schedule
    }
}

/// The events of `schedule` up to its `tuples`-th arrival on both streams.
pub fn prefix(
    schedule: &DriverSchedule<RTuple, STuple>,
    tuples: usize,
) -> DriverSchedule<RTuple, STuple> {
    let (mut r, mut s) = (0, 0);
    let end = schedule
        .events()
        .iter()
        .position(|e| {
            match e.event {
                StreamEvent::ArrivalR(_) => r += 1,
                StreamEvent::ArrivalS(_) => s += 1,
                _ => {}
            }
            r >= tuples && s >= tuples
        })
        .map_or(schedule.events().len(), |i| i + 1);
    schedule.truncated(end)
}

/// Mean stream-time rate of a schedule, tuples/s per stream.
pub fn stream_rate(schedule: &DriverSchedule<RTuple, STuple>) -> f64 {
    let span = schedule
        .last_arrival_ts()
        .expect("a workload has arrivals")
        .as_secs_f64();
    schedule.r_count() as f64 / span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for spec in WORKLOADS {
            let short = Spec {
                stream_secs: 0.5,
                ..spec.clone()
            };
            let a = short.clone().with_seed(3).schedule();
            let b = short.clone().with_seed(3).schedule();
            let c = short.clone().with_seed(4).schedule();
            assert_eq!(a.events(), b.events(), "{}", spec.name);
            assert_ne!(a.events(), c.events(), "{}", spec.name);
            assert!(a.events().last().is_some_and(|e| e.event.is_arrival()));
        }
    }

    #[test]
    fn prefix_keeps_the_first_arrivals_of_both_streams() {
        let schedule = Spec {
            stream_secs: 0.5,
            ..WORKLOADS[1].clone()
        }
        .schedule();
        let cut = prefix(&schedule, 1_000);
        assert_eq!((cut.r_count(), cut.s_count()), (1_000, 1_000));
        assert_eq!(cut.events(), &schedule.events()[..cut.events().len()]);
        assert_eq!(prefix(&schedule, usize::MAX).events(), schedule.events());
    }

    #[test]
    fn band_windows_hold_about_eight_thousand_tuples() {
        let spec = by_name("band_scan").expect("defined");
        let WindowSpec::Time(window) = spec.window else {
            panic!("band_scan has time windows");
        };
        let window_tuples = BASE_RATE * window.as_secs_f64();
        assert_eq!(window_tuples, 8_000.0);
        let schedule = Spec {
            stream_secs: 1.0,
            ..spec.clone()
        }
        .schedule();
        assert!((stream_rate(&schedule) - BASE_RATE).abs() / BASE_RATE < 0.01);
    }
}
