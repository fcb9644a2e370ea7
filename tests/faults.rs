//! Tier-1 fault-injection coverage.
//!
//! Directed faults prove each detection layer fires where expected —
//! canary, watchdog (both counter corruption and a genuine runaway
//! guest), TCB checksum, scheduler oracle, and the differential
//! silent-corruption layer — and a seeded random campaign injects 200+
//! faults across every core × {vanilla, SLT} without losing a single
//! run to a raw panic.

use rtosunit_suite::check::faultcamp::{
    classify_fault_events, classify_with_reference, fault_plan_for, oracle_reference,
    shrink_fault_events, FaultOutcome,
};
use rtosunit_suite::check::{
    run_fault_campaign, scenario_for_seed, Action, ScenarioSpec, TaskScript,
};
use rtosunit_suite::cores::{CoreKind, FaultEvent, FaultKind};
use rtosunit_suite::isa::Reg;
use rtosunit_suite::kernel::klayout::{canary_addr, tcb, KernelLayout};
use rtosunit_suite::unit::Preset;

/// A hand-written scenario with all three interaction kinds (semaphore
/// hand-off, periodic delay, busy compute) whose fault-free protected
/// run passes the oracle on every core. Task layout: t0 (prio 5) blocks
/// on s0, t1 (prio 3) delays then gives s0, t2 (prio 2) computes then
/// delays — so the idle task runs regularly and pets the watchdog.
fn demo_spec(core: CoreKind, preset: Preset) -> ScenarioSpec {
    ScenarioSpec {
        core,
        preset,
        tick_period: 400,
        tasks: vec![
            TaskScript {
                prio: 5,
                script: vec![Action::SemTake(0), Action::Busy(40)],
            },
            TaskScript {
                prio: 3,
                script: vec![Action::Delay(1), Action::SemGive(0)],
            },
            TaskScript {
                prio: 2,
                script: vec![Action::Busy(30), Action::Delay(2)],
            },
        ],
        sems: vec![0],
        ext_sem: None,
        ext_irqs: Vec::new(),
        max_cycles: 6_000,
    }
}

fn flip(at_cycle: u64, addr: u32, bit: u8) -> FaultEvent {
    FaultEvent {
        at_cycle,
        kind: FaultKind::MemFlip { addr, bit },
    }
}

#[test]
fn canary_corruption_is_detected_on_every_core() {
    // Smash task 1's stack-base canary mid-run: the very next context
    // switch must announce it on all three timing engines.
    for core in CoreKind::ALL {
        let spec = demo_spec(core, Preset::Vanilla);
        let report = classify_fault_events(&spec, vec![flip(2_000, canary_addr(1), 3)]);
        assert_eq!(
            report.outcome,
            FaultOutcome::DetectedCanary,
            "{core:?}: {}",
            report.detail
        );
        assert_eq!(report.faults_applied, 1);
    }
}

#[test]
fn watchdog_counter_corruption_is_detected() {
    // Flip a high bit of the watchdog counter: the unsigned limit
    // compare in the next timer ISR must trip immediately.
    let spec = demo_spec(CoreKind::Cv32e40p, Preset::Vanilla);
    let report = classify_fault_events(&spec, vec![flip(2_000, KernelLayout::WATCHDOG, 30)]);
    assert_eq!(
        report.outcome,
        FaultOutcome::DetectedWatchdog,
        "{}",
        report.detail
    );
}

#[test]
fn runaway_guest_is_caught_by_the_watchdog() {
    // A genuine hang, not counter corruption: flip the busy-loop
    // counter's sign bit so a task spins ~2^31 iterations, starving the
    // idle task. The un-pet watchdog must expire within the budget
    // (WATCHDOG_LIMIT ticks) instead of the run silently exhausting its
    // cycles. The exact cycle the flip lands on decides which task (if
    // any) is mid-busy-loop, so search a window for the hang.
    let mut spec = demo_spec(CoreKind::Cv32e40p, Preset::Vanilla);
    spec.max_cycles = 40_000; // > (WATCHDOG_LIMIT + slack) ticks
    let reference = oracle_reference(&spec);
    let caught = (600..3_000).step_by(100).any(|at| {
        let ev = FaultEvent {
            at_cycle: at,
            kind: FaultKind::RegFlip {
                reg: Reg::T0,
                bit: 31,
            },
        };
        let report = classify_with_reference(&spec, &reference, vec![ev]);
        report.outcome == FaultOutcome::DetectedWatchdog
    });
    assert!(caught, "no injection cycle produced a watchdog-caught hang");
}

#[test]
fn tcb_checksum_corruption_is_detected() {
    // Flip a TCB priority field just before a timer tick, so the ISR
    // integrity sweep sees it before any syscall walks the (now wrong)
    // ready queue. The safe cycle depends on core timing, so search the
    // pre-tick slots.
    let spec = demo_spec(CoreKind::Cv32e40p, Preset::Vanilla);
    let layout = KernelLayout::new(spec.tasks.len() + 1, spec.sems.len());
    let prio0 = layout.tcb_addr(0) + tcb::PRIO as u32;
    let reference = oracle_reference(&spec);
    let caught = (4..14).any(|k| {
        let at = u64::from(spec.tick_period) * k - 5;
        let report = classify_with_reference(&spec, &reference, vec![flip(at, prio0, 1)]);
        report.outcome == FaultOutcome::DetectedChecksum
    });
    assert!(caught, "no pre-tick injection tripped the checksum sweep");
}

#[test]
fn tick_count_corruption_is_caught_by_the_oracle() {
    // The kernel tick counter is outside every guest self-check, but
    // warping it rewrites delay wake-ups — scheduling semantics the
    // host-side oracle models. At least one injection point must be
    // caught by the oracle (and by nothing in the guest).
    let spec = demo_spec(CoreKind::Cv32e40p, Preset::Vanilla);
    let reference = oracle_reference(&spec);
    let caught = (600..4_200).step_by(150).any(|at| {
        let report = classify_with_reference(
            &spec,
            &reference,
            vec![flip(at, KernelLayout::TICK_COUNT, 2)],
        );
        assert!(
            report.outcome != FaultOutcome::DetectedOracle || report.detections.is_empty(),
            "oracle verdict implies no guest detector fired"
        );
        report.outcome == FaultOutcome::DetectedOracle
    });
    assert!(caught, "no tick-count warp produced an oracle violation");
}

#[test]
fn register_upsets_can_corrupt_silently() {
    // A busy-loop counter flip below the sign bit shifts timing without
    // touching any checked state: guest checks and oracle both pass,
    // only the differential signature layer can see it.
    let spec = demo_spec(CoreKind::Cv32e40p, Preset::Vanilla);
    let reference = oracle_reference(&spec);
    let caught = (600..3_000).step_by(100).any(|at| {
        let ev = FaultEvent {
            at_cycle: at,
            kind: FaultKind::RegFlip {
                reg: Reg::T0,
                bit: 2,
            },
        };
        let report = classify_with_reference(&spec, &reference, vec![ev]);
        if report.outcome == FaultOutcome::SilentCorruption {
            assert!(report.detections.is_empty(), "silent means no detector");
            return true;
        }
        false
    });
    assert!(caught, "no register upset produced silent corruption");
}

#[test]
fn dead_state_faults_are_masked() {
    // A flip in the unused middle of task 0's stack touches nothing
    // live: bit-identical observable behaviour.
    let spec = demo_spec(CoreKind::Cv32e40p, Preset::Vanilla);
    let report = classify_fault_events(&spec, vec![flip(2_000, KernelLayout::STACKS + 512, 7)]);
    assert_eq!(report.outcome, FaultOutcome::Masked, "{}", report.detail);
    assert_eq!(report.faults_applied, 1);
}

#[test]
fn shrinking_preserves_the_classification() {
    // ddmin on a canary hit padded with masked decoys must reduce to
    // exactly the one causal event.
    let spec = demo_spec(CoreKind::Cv32e40p, Preset::Vanilla);
    let reference = oracle_reference(&spec);
    let causal = flip(2_000, canary_addr(1), 3);
    let events = vec![
        flip(1_000, KernelLayout::STACKS + 512, 7),
        flip(1_500, KernelLayout::STACKS + 516, 3),
        causal,
        flip(2_500, KernelLayout::STACKS + 520, 9),
        flip(3_000, KernelLayout::STACKS + 524, 1),
    ];
    let before = classify_with_reference(&spec, &reference, events.clone());
    assert_eq!(before.outcome, FaultOutcome::DetectedCanary);
    let shrunk = shrink_fault_events(&spec, &reference, &events, FaultOutcome::DetectedCanary);
    assert_eq!(shrunk, vec![causal], "decoys must shrink away");
    let after = classify_with_reference(&spec, &reference, shrunk);
    assert_eq!(after.outcome, FaultOutcome::DetectedCanary);
}

#[test]
fn seeded_campaign_classifies_every_injection() {
    // 3 cores × {vanilla, SLT} × 34 plans × 2 faults = 204 runs, 408
    // injections planned. Every run must come back classified — the
    // executor never loses one to a raw panic — and the outcome spread
    // must exercise more than one lattice level.
    let cores = CoreKind::ALL;
    let presets = [Preset::Vanilla, Preset::Slt];
    let campaign = run_fault_campaign(&cores, &presets, 1, 34, 2);
    assert_eq!(campaign.runs.len(), 204);
    let planned: usize = campaign.runs.iter().map(|r| r.events.len()).sum();
    assert!(planned >= 200, "only {planned} faults planned");
    for r in &campaign.runs {
        // Replayability: the recorded events regenerate from the seeds.
        let spec = scenario_for_seed(r.core, r.preset, r.scenario_seed);
        assert_eq!(
            fault_plan_for(&spec, r.fault_seed, 2).events(),
            r.events.as_slice(),
            "campaign record is not replayable from its seeds"
        );
    }
    let tally = campaign.tally();
    assert!(tally.len() >= 3, "campaign outcomes too uniform: {tally:?}");
    let detected: usize = tally
        .iter()
        .filter(|(o, _)| o.is_detected())
        .map(|(_, n)| n)
        .sum();
    assert!(detected > 0, "no fault was observable: {tally:?}");
    // Every cell produced a tally (the campaign covered the matrix).
    for core in cores {
        for preset in presets {
            assert!(
                !campaign.tally_for(core, preset).is_empty(),
                "{core:?}/{preset:?} cell is empty"
            );
        }
    }
}
