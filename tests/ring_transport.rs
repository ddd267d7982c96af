//! Conformance suite for the lock-free SPSC ring transport.
//!
//! The ring transport is pure plumbing: swapping the per-edge
//! mutex/condvar channel for the bounded lock-free ring must not change a
//! single result byte, at any batch granularity, under either paper
//! workload, and across live grow/shrink reconfigurations.  These sweeps
//! pin that claim three ways for every seeded case:
//!
//! * **byte-identical to the mutex path** — the exact sorted
//!   `(r_seq, s_seq)` key vectors, not counts;
//! * **byte-identical to the Kang oracle** — so the two transports cannot
//!   agree by being wrong together;
//! * **bounded allocations** — the frame arenas recycle emptied batch
//!   buffers back upstream, so a steady-state run allocates a small
//!   constant number of buffers rather than one per injected frame.
//!
//! A final smoke run turns `pin_cores` on: on a host with too few cores
//! pinning degrades to a no-op, and either way the results must stay
//! byte-identical — placement is not semantics.

use handshake_join::baselines::run_kang;
use handshake_join::prelude::*;
use llhj_workload::WorkloadRng;

fn band_schedule(seed: u64) -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = BandJoinWorkload::scaled(400.0, TimeDelta::from_millis(400), 220, seed);
    band_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn equi_schedule(seed: u64) -> llhj_core::DriverSchedule<RTuple, STuple> {
    let workload = EquiJoinWorkload {
        rate_per_sec: 400.0,
        duration: TimeDelta::from_millis(400),
        domain: 60,
        seed,
    };
    equi_join_schedule(
        &workload,
        WindowSpec::Time(TimeDelta::from_millis(150)),
        WindowSpec::Time(TimeDelta::from_millis(150)),
    )
}

fn options(transport: Transport, batch_size: usize) -> PipelineOptions {
    PipelineOptions {
        batch_size,
        transport,
        pacing: Pacing::RealTime { speedup: 4.0 },
        ..Default::default()
    }
}

/// Fixed pipelines: both transports, both predicates, batch 1/16/64,
/// seeded widths — every combination byte-identical to the oracle.
#[test]
fn ring_transport_matches_mutex_path_and_kang_across_substrates() {
    let mut rng = WorkloadRng::seed_from_u64(0x51_C0DE);
    for case in 0..4u64 {
        let seed = 0x51EED ^ case;
        let nodes = rng.gen_range_u32(2, 5) as usize;
        let band = band_schedule(seed);
        let equi = equi_schedule(seed);
        let band_oracle = run_kang(BandPredicate::default(), &band).result_keys();
        let equi_oracle = run_kang(EquiXaPredicate, &equi).result_keys();
        assert!(
            band_oracle.len() > 10,
            "case {case}: degenerate band workload"
        );
        assert!(
            equi_oracle.len() > 10,
            "case {case}: degenerate equi workload"
        );

        for batch_size in [1usize, 16, 64] {
            let label = format!("case {case}, {nodes} nodes, batch {batch_size}");
            let pred = BandPredicate::default();
            let ring = run_pipeline(
                llhj_nodes(nodes, pred),
                pred,
                RoundRobin,
                &band,
                &options(Transport::Ring, batch_size),
            );
            let mutex = run_pipeline(
                llhj_nodes(nodes, pred),
                pred,
                RoundRobin,
                &band,
                &options(Transport::Mutex, batch_size),
            );
            assert_eq!(
                ring.result_keys(),
                band_oracle,
                "{label}: band ring vs oracle"
            );
            assert_eq!(
                mutex.result_keys(),
                band_oracle,
                "{label}: band mutex vs oracle"
            );

            let ring = run_pipeline(
                llhj_indexed_nodes(nodes, EquiXaPredicate),
                EquiXaPredicate,
                HashKey,
                &equi,
                &options(Transport::Ring, batch_size),
            );
            let mutex = run_pipeline(
                llhj_indexed_nodes(nodes, EquiXaPredicate),
                EquiXaPredicate,
                HashKey,
                &equi,
                &options(Transport::Mutex, batch_size),
            );
            assert_eq!(
                ring.result_keys(),
                equi_oracle,
                "{label}: equi ring vs oracle"
            );
            assert_eq!(
                mutex.result_keys(),
                equi_oracle,
                "{label}: equi mutex vs oracle"
            );
        }
    }
}

/// Elastic pipelines resized mid-run: a grow and a shrink at seeded
/// points, on both transports, byte-identical to the oracle and to each
/// other.  The resize fences drain, detach and re-wire the ring edges at
/// the chain boundaries — the window where a transport bug would lose or
/// duplicate a frame.
#[test]
fn ring_transport_survives_grow_and_shrink_mid_run() {
    let mut rng = WorkloadRng::seed_from_u64(0xE1A_571C);
    for case in 0..3u64 {
        let schedule = band_schedule(0xB4D ^ case);
        let events = schedule.events().len();
        let lo = events / 10;
        let hi = events * 9 / 10;
        let a = lo + rng.gen_range_u32(0, (hi - lo) as u32 - 1) as usize;
        let b = lo + rng.gen_range_u32(0, (hi - lo) as u32 - 1) as usize;
        let (grow_at, shrink_at) = (a.min(b), a.max(b).max(a.min(b) + 1));
        let plan = ScalePlan::new(vec![
            ScaleStep {
                after_events: grow_at,
                target_nodes: 4,
            },
            ScaleStep {
                after_events: shrink_at,
                target_nodes: 2,
            },
        ]);
        let pred = BandPredicate::default();
        let oracle = run_kang(pred, &schedule).result_keys();

        let mut keys = Vec::new();
        for transport in [Transport::Ring, Transport::Mutex] {
            let opts = PipelineOptions {
                batch_size: 16,
                transport,
                pacing: Pacing::RealTime { speedup: 1.0 },
                ..Default::default()
            };
            let outcome = run_elastic_pipeline(
                3,
                llhj_factory(pred),
                pred,
                RoundRobin,
                &schedule,
                &plan,
                &opts,
            );
            assert_eq!(
                outcome.resize_log.len(),
                2,
                "case {case} ({transport:?}): both resizes must have run"
            );
            keys.push(outcome.result_keys());
        }
        assert_eq!(keys[0], oracle, "case {case}: ring vs oracle");
        assert_eq!(keys[1], oracle, "case {case}: mutex vs oracle");
        assert_eq!(keys[0], keys[1], "case {case}: transports must agree");
    }
}

/// The arena satellite: with buffers flowing back upstream, a run that
/// injects hundreds of frames allocates only a bounded handful of batch
/// buffers — steady state runs out of the recycled pool, not the
/// allocator.  Covered on a fixed chain and on an elastic chain that grows
/// and shrinks mid-run, whose fences rebuild the circulation for the new
/// chain ends.
#[test]
fn frame_arenas_bound_steady_state_allocations() {
    let pred = BandPredicate::default();
    let schedule = band_schedule(0xA110C);
    assert_arenas_recycle(|| {
        let outcome = run_pipeline(
            llhj_nodes(3, pred),
            pred,
            RoundRobin,
            &schedule,
            &options(Transport::Ring, 1),
        );
        (outcome.batch_allocs, outcome.frames_injected)
    });

    let events = schedule.events().len();
    let plan = ScalePlan::new(vec![
        ScaleStep {
            after_events: events / 3,
            target_nodes: 4,
        },
        ScaleStep {
            after_events: events * 2 / 3,
            target_nodes: 2,
        },
    ]);
    assert_arenas_recycle(|| {
        let outcome = run_elastic_pipeline(
            3,
            llhj_factory(pred),
            pred,
            RoundRobin,
            &schedule,
            &plan,
            &options(Transport::Ring, 1),
        );
        assert_eq!(outcome.resize_log.len(), 2, "both resizes must have run");
        (outcome.batch_allocs, outcome.frames_injected)
    });
}

/// Runs `run` (returning `(batch_allocs, frames_injected)`) until one
/// attempt of three allocates fewer than a quarter as many buffers as it
/// injects frames.
fn assert_arenas_recycle(run: impl Fn() -> (u64, u64)) {
    // Recycling throughput is scheduling-dependent: on a host saturated
    // by the rest of the suite the flow-back rings lag and the driver
    // allocates fresh buffers it would normally reuse.  One clean
    // attempt out of three proves the mechanism; a regression to
    // allocate-per-frame fails all three by 4x.
    let mut last = (0u64, 0u64);
    for attempt in 0..3 {
        let (batch_allocs, frames_injected) = run();
        assert!(
            frames_injected > 100,
            "workload too small to exercise recycling: {} frames",
            frames_injected
        );
        // Warm-up fills the per-worker pools and the flow-back rings;
        // after that every entry frame reuses a recycled buffer.  The
        // bound is deliberately generous (a quarter of the frames) —
        // the honest claim is "bounded, not proportional".
        if batch_allocs * 4 < frames_injected {
            return;
        }
        last = (batch_allocs, frames_injected);
        eprintln!(
            "attempt {attempt}: {} fresh allocations for {} frames (loaded host?), retrying",
            last.0, last.1
        );
    }
    panic!(
        "arenas must recycle: {} fresh allocations for {} frames on every attempt",
        last.0, last.1
    );
}

/// `pin_cores` is placement, not semantics: results stay byte-identical
/// whether pinning engages or (cores < threads) silently no-ops.
#[test]
fn pinned_run_is_byte_identical_to_unpinned() {
    let pred = BandPredicate::default();
    let schedule = band_schedule(0x1D_CA7);
    let oracle = run_kang(pred, &schedule).result_keys();
    for pin_cores in [false, true] {
        let opts = PipelineOptions {
            batch_size: 16,
            pin_cores,
            pacing: Pacing::RealTime { speedup: 4.0 },
            ..Default::default()
        };
        let outcome = run_pipeline(llhj_nodes(3, pred), pred, RoundRobin, &schedule, &opts);
        assert_eq!(outcome.result_keys(), oracle, "pin_cores = {pin_cores}");
    }
}
