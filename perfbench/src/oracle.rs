//! The result-set oracle and the checker every run goes through.
//!
//! The specification of a join run is Kang's sequential procedure
//! (`llhj_baselines::run_kang`): replay the driver schedule in order, scan
//! the opposite window on every arrival, then insert.  Kang scans the
//! whole window with a scalar closure — about two billion predicate calls
//! for one `band_scan` schedule — so the benchmark computes the same
//! result set with [`reference_join`], which keeps each window sorted by
//! join attribute and only verifies the predicate inside the band the
//! predicate advertises.  The unit tests below assert that the two agree
//! pair for pair on short schedules of every workload.

use llhj_core::driver::{DriverSchedule, StreamEvent};
use llhj_core::predicate::JoinPredicate;
use llhj_core::tuple::SeqNo;
use std::collections::BTreeMap;

/// A result pair, `(r_seq, s_seq)`.
pub type Key = (SeqNo, SeqNo);

/// Sorted, duplicate-free result keys of `schedule` under window
/// semantics, computed with attribute-sorted windows.  The predicate must
/// expose a band form (`r_band`/`s_band`) that is sound: every matching
/// pair lies inside the band.
pub fn reference_join<R, S, P>(predicate: &P, schedule: &DriverSchedule<R, S>) -> Vec<Key>
where
    R: Clone,
    S: Clone,
    P: JoinPredicate<R, S>,
{
    let mut wr: BTreeMap<(i64, u64), R> = BTreeMap::new();
    let mut ws: BTreeMap<(i64, u64), S> = BTreeMap::new();
    // Attribute of every live tuple by sequence number, for expiries.
    let mut r_attr: Vec<i64> = Vec::with_capacity(schedule.r_count());
    let mut s_attr: Vec<i64> = Vec::with_capacity(schedule.s_count());
    let mut keys = Vec::new();
    for event in schedule.events() {
        match &event.event {
            StreamEvent::ArrivalR(r) => {
                let band = predicate
                    .s_band(&r.payload)
                    .expect("the reference join needs a band-form predicate");
                for ((_, s_seq), s) in ws.range((band.lo, 0)..=(band.hi, u64::MAX)) {
                    if predicate.matches(&r.payload, s) {
                        keys.push((r.seq, SeqNo(*s_seq)));
                    }
                }
                let attr = predicate.r_attr(&r.payload).expect("band-form predicate");
                assert_eq!(r.seq.0 as usize, r_attr.len(), "R seqs are dense");
                r_attr.push(attr);
                wr.insert((attr, r.seq.0), r.payload.clone());
            }
            StreamEvent::ArrivalS(s) => {
                let band = predicate
                    .r_band(&s.payload)
                    .expect("the reference join needs a band-form predicate");
                for ((_, r_seq), r) in wr.range((band.lo, 0)..=(band.hi, u64::MAX)) {
                    if predicate.matches(r, &s.payload) {
                        keys.push((SeqNo(*r_seq), s.seq));
                    }
                }
                let attr = predicate.s_attr(&s.payload).expect("band-form predicate");
                assert_eq!(s.seq.0 as usize, s_attr.len(), "S seqs are dense");
                s_attr.push(attr);
                ws.insert((attr, s.seq.0), s.payload.clone());
            }
            StreamEvent::ExpireR(seq) => {
                wr.remove(&(r_attr[seq.0 as usize], seq.0));
            }
            StreamEvent::ExpireS(seq) => {
                ws.remove(&(s_attr[seq.0 as usize], seq.0));
            }
        }
    }
    keys.sort_unstable();
    keys
}

/// The oracle of a schedule prefix holding the first `r_count` R and
/// `s_count` S arrivals: a pair is decided when its later tuple arrives,
/// so the prefix finds exactly the pairs whose tuples both lie in it.
pub fn restrict(oracle: &[Key], r_count: usize, s_count: usize) -> Vec<Key> {
    oracle
        .iter()
        .copied()
        .filter(|(r, s)| (r.0 as usize) < r_count && (s.0 as usize) < s_count)
        .collect()
}

/// How a run's result multiset differs from the oracle's result set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Diff {
    /// Oracle pairs the run never reported.
    pub missing: u64,
    /// Reported pairs the oracle does not contain, plus every repeat of a
    /// pair reported more than once.
    pub extra: u64,
}

impl Diff {
    /// True if the run reported exactly the oracle's pairs, once each.
    pub fn exact(&self) -> bool {
        self.missing == 0 && self.extra == 0
    }

    /// Wrong pairs, missing or extra.
    pub fn errors(&self) -> u64 {
        self.missing + self.extra
    }
}

/// Compares the sorted keys a run reported (duplicates kept) with the
/// sorted, duplicate-free oracle keys.
pub fn diff(oracle: &[Key], reported: &[Key]) -> Diff {
    let mut d = Diff::default();
    let (mut i, mut j) = (0, 0);
    while i < oracle.len() || j < reported.len() {
        if j > 0 && j < reported.len() && reported[j] == reported[j - 1] {
            d.extra += 1;
            j += 1;
        } else if j == reported.len() || (i < oracle.len() && oracle[i] < reported[j]) {
            d.missing += 1;
            i += 1;
        } else if i == oracle.len() || reported[j] < oracle[i] {
            d.extra += 1;
            j += 1;
        } else {
            i += 1;
            j += 1;
        }
    }
    d
}

/// Share of wrong pairs, `(missing + extra) / oracle pairs`.
pub fn error_rate(diff: Diff, oracle_pairs: usize) -> f64 {
    diff.errors() as f64 / oracle_pairs.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Spec, WORKLOADS};
    use llhj_baselines::run_kang;
    use llhj_workload::{BandPredicate, EquiXaPredicate};

    fn k(r: u64, s: u64) -> Key {
        (SeqNo(r), SeqNo(s))
    }

    #[test]
    fn checker_counts_one_dropped_and_one_duplicated_pair() {
        let oracle = vec![k(0, 0), k(1, 3), k(2, 2), k(5, 1)];
        // (1, 3) dropped, (2, 2) reported twice.
        let reported = vec![k(0, 0), k(2, 2), k(2, 2), k(5, 1)];
        let d = diff(&oracle, &reported);
        assert_eq!(
            d,
            Diff {
                missing: 1,
                extra: 1
            }
        );
        assert!(!d.exact());
        assert_eq!(error_rate(d, oracle.len()), 0.5);
        assert!(diff(&oracle, &oracle).exact());
        assert_eq!(error_rate(diff(&oracle, &oracle), oracle.len()), 0.0);
    }

    #[test]
    fn checker_counts_foreign_pairs_and_empty_runs() {
        let oracle = vec![k(0, 0), k(1, 1)];
        assert_eq!(
            diff(&oracle, &[]),
            Diff {
                missing: 2,
                extra: 0
            }
        );
        assert_eq!(
            diff(&oracle, &[k(0, 0), k(0, 1), k(1, 1), k(9, 9)]),
            Diff {
                missing: 0,
                extra: 2
            }
        );
        assert_eq!(
            diff(&[], &[k(3, 3), k(3, 3)]),
            Diff {
                missing: 0,
                extra: 2
            }
        );
    }

    #[test]
    fn restricted_oracle_equals_the_oracle_of_the_prefix() {
        let spec = short(&WORKLOADS[1], 5);
        let schedule = spec.schedule();
        let cut = crate::workloads::prefix(&schedule, 3_000);
        let full = reference_join(&EquiXaPredicate, &schedule);
        assert_eq!(
            restrict(&full, cut.r_count(), cut.s_count()),
            run_kang(EquiXaPredicate, &cut).result_keys()
        );
    }

    fn short(spec: &Spec, seed: u64) -> Spec {
        Spec {
            stream_secs: spec.stream_secs / 16.0,
            ..spec.clone()
        }
        .with_seed(seed)
    }

    #[test]
    fn reference_join_equals_kang_on_every_workload() {
        for spec in WORKLOADS {
            for seed in [1, 2] {
                let spec = short(spec, seed);
                let schedule = spec.schedule();
                let (reference, kang) = if spec.is_equi() {
                    (
                        reference_join(&EquiXaPredicate, &schedule),
                        run_kang(EquiXaPredicate, &schedule).result_keys(),
                    )
                } else {
                    (
                        reference_join(&BandPredicate::default(), &schedule),
                        run_kang(BandPredicate::default(), &schedule).result_keys(),
                    )
                };
                assert!(!kang.is_empty(), "{}: the schedule must join", spec.name);
                assert_eq!(reference, kang, "{} seed {seed}", spec.name);
            }
        }
    }
}
