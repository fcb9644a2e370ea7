//! The determinism matrix (`matrix/mod.rs`, DESIGN.md §9): batched and
//! block-cache runs end in their stepwise run's full machine state, and
//! so does each restored from a snapshot mid-run.

mod matrix;

use matrix::{assert_none, check_cells, Mode};

const BATCHED: [Mode; 2] = [Mode::Batched, Mode::Resumed];
const BLOCKS: [Mode; 2] = [Mode::Blocks, Mode::ResumedBlocks];

#[test]
fn batched_run_matches_stepwise_across_the_latency_matrix() {
    assert_none(&check_cells(&matrix::latency_matrix(), &BATCHED));
}

#[test]
fn batched_run_matches_stepwise_for_remaining_presets() {
    assert_none(&check_cells(&matrix::remaining_presets(), &BATCHED));
}

#[test]
fn batched_run_matches_stepwise_with_a_fault_plan() {
    assert_none(&check_cells(&matrix::fault_plan_cells(), &BATCHED));
}

#[test]
fn blocks_enabled_run_matches_stepwise_across_the_latency_matrix() {
    assert_none(&check_cells(&matrix::latency_matrix(), &BLOCKS));
}

#[test]
fn blocks_enabled_run_matches_stepwise_for_remaining_presets() {
    assert_none(&check_cells(&matrix::remaining_presets(), &BLOCKS));
}

#[test]
fn blocks_enabled_run_matches_stepwise_with_a_fault_plan() {
    assert_none(&check_cells(&matrix::fault_plan_cells(), &BLOCKS));
}
