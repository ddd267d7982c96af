//! Golden virtual-time snapshots of the simulator-only experiments.
//!
//! `fig05`, `fig17`–`fig21` and `table2` run entirely in the simulator's
//! virtual time, so their rendered text is a deterministic function of the
//! code: no host, no wall clock.  Each is rendered at `Scale::smoke()` and
//! compared byte for byte with the snapshot under `tests/golden/`, which
//! turns "the simulator refactor changed no virtual-time number" from a
//! one-off diff into a standing gate.
//!
//! A deliberate change to the cost model or an experiment regenerates the
//! snapshots; the diff of `tests/golden/` then documents the change.

use llhj_bench::experiments;
use llhj_bench::Scale;
use std::path::PathBuf;

fn golden(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|err| panic!("cannot read snapshot {}: {err}", path.display()))
}

fn assert_matches_snapshot(name: &str, rendered: &str) {
    let expected = golden(&format!("{name}.txt"));
    if rendered == expected {
        return;
    }
    let first_diff = rendered
        .lines()
        .zip(expected.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| rendered.lines().count().min(expected.lines().count()));
    panic!(
        "{name}: rendered text differs from tests/golden/{name}.txt at line {}\n\
         rendered: {:?}\n\
         snapshot: {:?}",
        first_diff + 1,
        rendered.lines().nth(first_diff),
        expected.lines().nth(first_diff),
    );
}

#[test]
fn simulator_experiments_match_their_virtual_time_snapshots() {
    let scale = Scale::smoke();
    assert_matches_snapshot("fig05", &experiments::fig05::run(&scale).text);
    assert_matches_snapshot("fig17", &experiments::fig17::run(&scale).text);
    assert_matches_snapshot("fig18", &experiments::fig18::run(&scale).text);
    assert_matches_snapshot("fig19", &experiments::fig19::run(&scale).text);
    assert_matches_snapshot("fig20", &experiments::fig20::run(&scale).text);
    assert_matches_snapshot("fig21", &experiments::fig21::run(&scale).text);
    assert_matches_snapshot("table2", &experiments::table2::run(&scale).text);
}
