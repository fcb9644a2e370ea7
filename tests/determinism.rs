//! The determinism matrix (`matrix/mod.rs`, DESIGN.md §9): warm-started
//! campaigns and SMP compositions.

mod matrix;

use matrix::{assert_none, check_cells, check_compositions, Mode};

#[test]
fn warm_started_campaigns_match_cold_ones() {
    let cells = [matrix::latency_matrix(), matrix::remaining_presets()].concat();
    assert_none(&check_cells(&cells, &[Mode::Warm]));
}

#[test]
fn smp_compositions_match_their_lockstep_run_in_every_mode() {
    assert_none(&check_compositions());
}
