//! The determinism matrix (DESIGN.md §9): every way of executing a
//! machine ends in the same full machine state, bit for bit.
//!
//! One list of cells, one list of modes, one fingerprint: the
//! `state_snap()` tree with three host-side execution aids masked.
//! Batched and block-cache runs must match the stepwise run; a restored
//! run must match the run of its own mode that never stopped, unmasked.
//! Three test targets run disjoint slices, so each (cell, mode) pair is
//! asserted once: `batching_equivalence.rs`, `snapshot.rs` (the battery
//! cells) and `determinism.rs` (warm starts and SMP compositions).

// Each test target uses part of the matrix.
#![allow(dead_code)]

use rtosunit_suite::bench::campaign::{CampaignSpec, RunSpec, WorkloadSpec};
use rtosunit_suite::bench::workloads;
use rtosunit_suite::check::{smp_scenario_for_seed, smp_scenario_system};
use rtosunit_suite::cores::{CoreKind, FaultEvent, FaultKind, FaultPlan};
use rtosunit_suite::isa::Reg;
use rtosunit_suite::snapshot::{Json, Snap};
use rtosunit_suite::unit::system::RunExit;
use rtosunit_suite::unit::{layout, Preset, SmpSystem, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The campaign executor's wall-limit chunk.
const CHUNK: u64 = 65_536;
/// Warm-start boot prefix: short of `interrupt_latency`'s first IRQ.
const BOOT: u64 = 9_001;
/// Warm-mode run length: the fork it checks happens at [`BOOT`].
const WARM_CYCLES: u64 = 50_000;
/// Event-trace ring capacity on every hart.
const TRACE_RING: usize = 1 << 12;
/// Cycles per SMP composition: past one chunk boundary.
const SMP_CYCLES: u64 = 70_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    Off,
    /// One of each benign kind, spread over the run.
    Tame,
    /// One fault before the resume point, two after.
    Straddling,
}

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    core: CoreKind,
    preset: Preset,
    workload: &'static str,
    faults: Faults,
}

/// How a cell runs; each is checked against a reference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `System::run` to the resume point and on in [`CHUNK`]-cycle
    /// slices, as the executor runs a cell, against the stepwise run.
    Batched,
    /// The same with the block cache attached.
    Blocks,
    /// The stepwise state at the resume point, restored and finished in
    /// [`CHUNK`]-cycle slices, against the stepwise run, unmasked.
    ResumedStepwise,
    /// The same from and against `Batched`.
    Resumed,
    /// The same from and against `Blocks`.
    ResumedBlocks,
    /// A one-run campaign forked from a boot snapshot, against the cold
    /// campaign's artifact (fault-free cells: a `RunSpec` has no plan).
    Warm,
    /// An SMP composition in [`CHUNK`]-cycle slices, against one call.
    Chunked,
    /// The cell as the only hart of an SMP composition, against the
    /// plain stepwise system.
    LoneHart,
}

/// Every single-hart mode.
pub const SINGLE_HART: [Mode; 6] = [
    Mode::Batched,
    Mode::Blocks,
    Mode::ResumedStepwise,
    Mode::Resumed,
    Mode::ResumedBlocks,
    Mode::Warm,
];

/// Every combination of the given cores, presets, workloads and plans.
fn grid(
    cores: &[CoreKind],
    presets: &[Preset],
    workloads: &[&'static str],
    plans: &[Faults],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &core in cores {
        for &preset in presets {
            for &workload in workloads {
                for &faults in plans {
                    let cell = Cell {
                        core,
                        preset,
                        workload,
                        faults,
                    };
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// Voluntary yields (MSIP), periodic ticks (MTIP) and external IRQs
/// (MEIP).
const IRQ_SOURCES: [&str; 3] = ["roundrobin_yield", "delay_periodic", "interrupt_latency"];

/// 3 cores × {vanilla, CV32RT, S, SLT, SPLIT} × the three IRQ sources.
pub fn latency_matrix() -> Vec<Cell> {
    use Preset::*;
    let presets = [Vanilla, Cv32rt, S, Slt, Split];
    grid(&CoreKind::ALL, &presets, &IRQ_SOURCES, &[Faults::Off])
}

/// The other presets on two core/workload pairs.
pub fn remaining_presets() -> Vec<Cell> {
    use {CoreKind::*, Preset::*};
    let presets = [Sl, T, St, Sdlo, Sdlot, SltHs];
    let pairs = [
        (Cv32e40p, "pingpong_semaphore"),
        (NaxRiscv, "priority_chain"),
    ];
    let cells = |(core, w)| grid(&[core], &presets, &[w], &[Faults::Off]);
    pairs.into_iter().flat_map(cells).collect()
}

/// The tame fault plan on 3 cores × {vanilla, SLT}.
pub fn fault_plan_cells() -> Vec<Cell> {
    let presets = [Preset::Vanilla, Preset::Slt];
    let workloads = ["delay_periodic", "interrupt_latency"];
    grid(&CoreKind::ALL, &presets, &workloads, &[Faults::Tame])
}

/// Each engine with a different unit model on `pingpong_semaphore`, with
/// the straddling fault plan off and on.
pub fn battery_cells() -> Vec<Cell> {
    let battery = [
        (CoreKind::Cv32e40p, Preset::Vanilla),
        (CoreKind::Cva6, Preset::Slt),
        (CoreKind::NaxRiscv, Preset::Split),
    ];
    let plans = [Faults::Off, Faults::Straddling];
    let cell = |(core, preset)| grid(&[core], &[preset], &["pingpong_semaphore"], &plans);
    battery.into_iter().flat_map(cell).collect()
}

/// An odd cycle late in a run of `cycles`, where resumed modes restore.
fn resume_point(cycles: u64) -> u64 {
    (cycles * 5 / 8) | 1
}

fn plan(faults: Faults, cycles: u64) -> Option<FaultPlan> {
    use {FaultKind::*, Reg::*};
    // The kernel's tick count and the first DMEM word.
    let (tick, dmem) = (layout::DMEM_BASE + 4, layout::DMEM_BASE);
    let kinds = match faults {
        Faults::Off => return None,
        // None of these can wedge the guest: they perturb timing and
        // values, not control flow.
        Faults::Tame => vec![
            (1, SpuriousIpi),
            (2, MemFlip { addr: tick, bit: 1 }),
            (3, SpuriousIrq),
            (4, CacheUpset { addr: dmem }),
            (5, RegFlip { reg: S3, bit: 0 }),
            (6, BusError),
            (7, DelayIrq { delay: 64 }),
        ],
        Faults::Straddling => vec![
            (5, RegFlip { reg: T4, bit: 5 }),
            (7, SpuriousIrq),
            (8, SpuriousIpi),
        ],
    };
    let events = kinds.into_iter().map(|(tenths, kind)| FaultEvent {
        at_cycle: cycles * tenths / 10,
        kind,
    });
    Some(FaultPlan::new(events.collect()))
}

/// The one cross-mode fingerprint: a `state_snap()` tree minus three
/// host-side execution aids.
fn fingerprint(mut state: Json) -> Json {
    // The translation cache exists only in block mode (host acceleration).
    set(&mut state, &["core", "blocks"], Json::Null);
    // Its bookkeeping counters count host dispatches, not simulated work.
    for counter in ["block_hits", "block_builds", "fused_ops"] {
        set(&mut state, &["core", "counters", counter], Json::UInt(0));
    }
    // A batch-exit hint that stepwise execution never consumes.
    let attention = ["platform", "mmio", "attention"];
    set(&mut state, &attention, Json::Bool(false));
    state
}

fn set(json: &mut Json, path: &[&str], value: Json) {
    let Json::Object(pairs) = json else {
        panic!("no object at {path:?}")
    };
    let slot = pairs.iter_mut().find(|(k, _)| k == path[0]);
    let (_, slot) = slot.unwrap_or_else(|| panic!("no key {path:?}"));
    match path {
        [_] => *slot = value,
        [_, rest @ ..] => set(slot, rest, value),
        [] => unreachable!("empty path"),
    }
}

/// `None` when `mode` reproduced the state `want`; otherwise the first
/// line of the rendered states that differs.
fn diverges(label: &str, mode: Mode, want: &Json, got: &Json) -> Option<String> {
    if got == want {
        return None;
    }
    let (want, got) = (want.render(), got.render());
    let mut lines = want.lines().zip(got.lines()).enumerate();
    let (n, (w, g)) = lines.find(|(_, (w, g))| w != g).unwrap_or((0, ("", "")));
    // Long lines hold whole arrays: show the first difference.
    let col = w.bytes().zip(g.bytes()).take_while(|(a, b)| a == b).count();
    let clip = |s: &str| -> String {
        let tail = s.get(col.saturating_sub(40)..).unwrap_or(s);
        tail.chars().take(90).collect()
    };
    let (n, w, g) = (n + 1, clip(w), clip(g));
    Some(format!("{label} {mode:?}: line {n}: want `{w}`, got `{g}`"))
}

/// A cell's system, ready for `cycles`: image, external-IRQ schedule,
/// fault plan, event tracing and profiling.
fn prepare(cell: &Cell, sys: &mut System, cycles: u64) {
    let w = workloads::by_name(cell.workload).expect("suite workload");
    let image = workloads::build(&w, cell.preset).expect("workload builds");
    image.install(sys);
    sys.enable_tracing(TRACE_RING);
    sys.set_profiling(true);
    if let Some(plan) = plan(cell.faults, cycles) {
        sys.attach_fault_plan(plan);
    }
    if w.ext_irq_interval > 0 {
        for at in (w.ext_irq_interval..cycles).step_by(w.ext_irq_interval as usize) {
            sys.schedule_external_irq(at);
        }
    }
}

fn system(cell: &Cell, cycles: u64, blocks: bool) -> System {
    let mut sys = System::new(cell.core, cell.preset);
    prepare(cell, &mut sys, cycles);
    sys.set_block_cache(blocks);
    sys
}

/// Runs `cycles` in [`CHUNK`]-cycle slices, stopping early on a halt.
fn chunked(cycles: u64, mut run: impl FnMut(u64) -> RunExit) {
    let mut done = 0;
    while done < cycles {
        let chunk = CHUNK.min(cycles - done);
        if run(chunk) == RunExit::Halted {
            break;
        }
        done += chunk;
    }
}

/// A one-run campaign for a fault-free cell, cold or warm-started.
fn campaign(cell: &Cell, warm: bool) -> String {
    let mut w = workloads::by_name(cell.workload).expect("suite workload");
    w.run_cycles = WARM_CYCLES;
    let mut run = RunSpec::new(cell.core, cell.preset, WorkloadSpec::Suite(w));
    if warm {
        let boot = run.boot_snapshot(BOOT).expect("boot prefix simulates");
        run = run.from_snapshot(&boot).expect("fork from boot snapshot");
    }
    let mut spec = CampaignSpec::new("determinism");
    spec.runs.push(run);
    spec.run(1).to_json().render()
}

/// A cell's stepwise `state_snap()` at its resume point and at its end,
/// run once per test process: its batched and block-cache checks share
/// it.
fn stepwise(cell: &Cell, cycles: u64) -> Arc<[Json; 2]> {
    type Run = Arc<OnceLock<Arc<[Json; 2]>>>;
    static RUNS: Mutex<BTreeMap<String, Run>> = Mutex::new(BTreeMap::new());
    let key = format!("{cell:?}");
    let run = RUNS.lock().expect("runs").entry(key).or_default().clone();
    let states = run.get_or_init(|| {
        let mut sys = system(cell, cycles, false);
        let resume = resume_point(cycles);
        sys.run_stepwise(resume);
        let mid = sys.state_snap();
        sys.run_stepwise(cycles - resume);
        Arc::new([mid, sys.state_snap()])
    });
    states.clone()
}

/// Every cell in every one of `modes` (single-hart ones); returns every
/// divergence.
pub fn check_cells(cells: &[Cell], modes: &[Mode]) -> Vec<String> {
    par_check(cells, |cell| check_cell(cell, modes))
}

/// One single-hart cell in `modes`.
fn check_cell(cell: &Cell, modes: &[Mode]) -> Vec<String> {
    let w = workloads::by_name(cell.workload).expect("suite workload");
    let (cycles, label) = (w.run_cycles, format!("{cell:?}"));
    let resume = resume_point(cycles);
    let checks = |mode| modes.contains(&mode);

    let mut bad = Vec::new();
    if checks(Mode::ResumedStepwise) {
        let [snap, end] = &*stepwise(cell, cycles);
        let mut restored = System::from_state_snap(snap).expect("state restores");
        chunked(cycles - resume, |c| restored.run_stepwise(c));
        let got = restored.state_snap();
        bad.extend(diverges(&label, Mode::ResumedStepwise, end, &got));
    }
    for (mode, resumed, blocks) in [
        (Mode::Batched, Mode::Resumed, false),
        (Mode::Blocks, Mode::ResumedBlocks, true),
    ] {
        if !checks(mode) && !checks(resumed) {
            continue;
        }
        let mut sys = system(cell, cycles, blocks);
        sys.run(resume);
        // The unsealed payload: the digest envelope around it is checked
        // by the SMP and warm modes, and would double this mode's cost.
        let snap = checks(resumed).then(|| sys.state_snap());
        chunked(cycles - resume, |c| sys.run(c));
        let engaged = sys.core.counters().block_hits > 0;
        assert_eq!(engaged, blocks, "{label}: block cache use");
        let pending = sys.fault_plan().and_then(FaultPlan::next_cycle);
        assert_eq!(pending, None, "{label}: the fault plan did not finish");
        let end = sys.state_snap();
        if let Some(snap) = snap {
            let mut restored = System::from_state_snap(&snap).expect("state restores");
            chunked(cycles - resume, |c| restored.run(c));
            bad.extend(diverges(&label, resumed, &end, &restored.state_snap()));
        }
        if checks(mode) {
            let want = fingerprint(stepwise(cell, cycles)[1].clone());
            bad.extend(diverges(&label, mode, &want, &fingerprint(end)));
        }
    }
    let warm = checks(Mode::Warm) && cell.faults == Faults::Off;
    if warm && campaign(cell, false) != campaign(cell, true) {
        let mode = Mode::Warm;
        bad.push(format!("{label} {mode:?}: campaign artifacts differ"));
    }
    bad
}

/// The shared bus and mailboxes plus every hart's state: the payload of
/// `SmpSystem::snapshot()`, without the digest envelope.
fn composition_state(smp: &SmpSystem) -> Json {
    let harts: Vec<Json> = (0..smp.harts()).map(|h| smp.hart(h).state_snap()).collect();
    let shared = smp.shared().borrow().encode();
    Json::object().with("shared", shared).with("harts", harts)
}

/// One SMP composition of `harts` battery-cell harts, chunked and
/// restored, against its unchunked lockstep run. A lone hart runs the
/// cell's suite image so the plain system can run it too; larger
/// compositions run the seeded IPI scenario.
fn check_composition(&(cell, harts, seed): &(Cell, usize, u64)) -> Vec<String> {
    let build = || {
        if harts == 1 {
            let mut smp = SmpSystem::new(cell.core, cell.preset, 1);
            prepare(&cell, smp.hart_mut(0), SMP_CYCLES);
            return smp;
        }
        let spec = smp_scenario_for_seed(cell.core, cell.preset, harts, seed);
        let mut smp = smp_scenario_system(&spec);
        smp.set_profiling(true);
        for h in 0..harts {
            smp.hart_mut(h).enable_tracing(TRACE_RING);
        }
        if let Some(plan) = plan(cell.faults, SMP_CYCLES) {
            smp.hart_mut(0).attach_fault_plan(plan);
        }
        smp
    };
    let label = format!("{harts}x {cell:?}");
    let resume = resume_point(SMP_CYCLES);
    let mut reference = build();
    reference.run(resume);
    let mut restored = SmpSystem::from_snapshot(&reference.snapshot()).expect("snapshot restores");
    reference.run(SMP_CYCLES - resume);
    restored.run(SMP_CYCLES - resume);
    let mut chunks = build();
    chunked(SMP_CYCLES, |c| chunks.run(c));

    let want = composition_state(&reference);
    let mut bad = Vec::new();
    for (mode, smp) in [(Mode::Chunked, chunks), (Mode::Resumed, restored)] {
        bad.extend(diverges(&label, mode, &want, &composition_state(&smp)));
    }
    if harts == 1 {
        let mut plain = system(&cell, SMP_CYCLES, false);
        plain.run_stepwise(SMP_CYCLES);
        let plain = fingerprint(plain.state_snap());
        let lone = fingerprint(reference.hart(0).state_snap());
        bad.extend(diverges(&label, Mode::LoneHart, &plain, &lone));
        let wait = reference.shared().borrow().bus_stats(0).wait_cycles;
        assert_eq!(wait, 0, "{label}: a lone master never waits");
    }
    bad
}

/// The SMP compositions: the battery cells on {1, 2, 4} harts, each
/// chunked and restored, and a lone hart also against the plain system;
/// returns every divergence.
pub fn check_compositions() -> Vec<String> {
    let mut compositions = Vec::new();
    for harts in [1, 2, 4] {
        for (i, cell) in battery_cells().into_iter().enumerate() {
            compositions.push((cell, harts, 17 + i as u64 / 2));
        }
    }
    par_check(&compositions, check_composition)
}

/// Runs `check` over `items` on a few threads; returns every divergence.
fn par_check<T: Sync>(items: &[T], check: impl Fn(&T) -> Vec<String> + Sync) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let item = || items.get(next.fetch_add(1, Ordering::Relaxed));
    let worker = || {
        std::iter::from_fn(item)
            .flat_map(&check)
            .collect::<Vec<_>>()
    };
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker"))
            .collect()
    })
}

pub fn assert_none(bad: &[String]) {
    assert!(bad.is_empty(), "divergences:\n{}", bad.join("\n"));
}
