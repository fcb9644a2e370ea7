//! The executor's per-cell path, replayed through the same public calls
//! with a span around each call into a layer.
//!
//! `CampaignSpec::run` prepares, simulates and harvests every cell inside
//! the `rtosbench` executor, out of reach of a timer. This module drives
//! the same cells through the same public entry points — kernel build,
//! `System::new`, `GuestImage::install`, interrupt scheduling,
//! `System::run`, snapshot seal/open/restore, the harvest — so each call
//! can be timed from outside. The replay must be the same program: the
//! benchmark compares every replayed cell with the executor's outcome.

use crate::workload::{Workload, BOOT_CYCLES};
use freertos_lite::GuestImage;
use rtosbench::{
    runner, workloads, Campaign, CampaignSpec, FilterPolicy, Json, RunOutcome, RunSpec, SimOutcome,
    WorkloadSpec,
};
use rtosunit::layout::{DMEM_BASE, IMEM_BASE};
use rtosunit::waterfall;
use rtosunit::{BusMasterStats, SmpSystem, SwitchMetrics, SwitchRecord, System};
use rvsim_isa::csr;
use rvsim_snapshot as snap;
use std::time::Instant;

/// One timed call: `name` is `layer.operation`.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, where the layer is a crate name or `bench`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Cell (run index in the pass) the call served.
    pub cell: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split_once('.').map_or(self.name, |(l, _)| l)
    }
}

/// Span recorder. Spans stay in memory; a disabled tracer only runs the
/// wrapped calls.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    cell: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            cell: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Sets the cell id stamped on the spans that follow.
    pub fn set_cell(&mut self, cell: usize) {
        self.cell = cell;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            cell: self.cell,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A prepared machine: single-core or SMP.
pub enum Machine {
    /// The classic single-core system.
    One(Box<System>),
    /// Measured hart 0 plus contention harts.
    Smp(SmpSystem),
}

/// A cell ready to run.
pub struct Prepared {
    /// The machine, image installed and interrupts scheduled.
    pub machine: Machine,
    /// The run's total cycle budget.
    pub run_cycles: u64,
    /// Text words of the built kernel image.
    pub text_words: usize,
}

/// Builds the run's guest kernel and returns it with the cycle budget.
fn build_image(run: &RunSpec) -> Result<(GuestImage, u64), String> {
    let built = match run.workload {
        WorkloadSpec::Suite(w) => workloads::build(&w, run.preset).map(|i| (i, w.run_cycles)),
        WorkloadSpec::Custom {
            param,
            build,
            run_cycles,
            ..
        }
        | WorkloadSpec::OpenLoop {
            param,
            build,
            run_cycles,
            ..
        } => build(param, run.preset).map(|i| (i, run_cycles)),
        WorkloadSpec::Analytic { .. } => return Err("analytic runs simulate nothing".into()),
    };
    built.map_err(|e| format!("{}: kernel failed to build: {e:?}", run.label()))
}

/// The external-interrupt cycles the executor schedules for `run`.
fn irq_plan(run: &RunSpec, run_cycles: u64) -> Vec<u64> {
    match run.workload {
        WorkloadSpec::Suite(rtosbench::Workload {
            ext_irq_interval: interval,
            ..
        })
        | WorkloadSpec::Custom {
            ext_irq_interval: interval,
            ..
        } => {
            if interval == 0 {
                return Vec::new();
            }
            (1..)
                .map(|k| k * interval)
                .take_while(|&at| at < run_cycles)
                .collect()
        }
        WorkloadSpec::OpenLoop {
            param, arrivals, ..
        } => arrivals(param, run_cycles)
            .into_iter()
            .filter(|&at| at > 0 && at < run_cycles)
            .collect(),
        WorkloadSpec::Analytic { .. } => Vec::new(),
    }
}

/// The executor's SMP contention program: an endless load/store walk
/// over the hart's private DMEM bank, 8 addresses 4 KiB apart, so every
/// access misses and reaches the shared bus.
fn contention_program() -> rvsim_isa::Program {
    use rvsim_isa::{Asm, Reg};
    let mut a = Asm::new(IMEM_BASE);
    a.li(Reg::T4, 4096);
    a.label("pound");
    a.li(Reg::T2, DMEM_BASE as i32);
    a.li(Reg::T1, 8);
    a.label("slot");
    a.sw(Reg::T3, 0, Reg::T2);
    a.lw(Reg::T3, 4, Reg::T2);
    a.add(Reg::T2, Reg::T2, Reg::T4);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bne(Reg::T1, Reg::Zero, "slot");
    a.j("pound");
    a.finish().expect("contention program assembles")
}

/// Prepares a cold cell as the executor does: kernel build, system
/// construction, image install and — when `schedule` — the external
/// interrupts.
///
/// # Errors
///
/// Fails on kernel build errors and on specs this replay does not
/// cover (configuration overrides, analytic runs).
pub fn prepare(run: &RunSpec, tr: &mut Tracer, schedule: bool) -> Result<Prepared, String> {
    if !run.overrides.is_empty() {
        return Err(format!(
            "{}: configuration overrides are not replayed",
            run.label()
        ));
    }
    let (image, run_cycles) = tr.span("freertos-lite.build", |_| build_image(run))?;
    let irqs = if schedule {
        tr.span("rtosbench.arrivals", |_| irq_plan(run, run_cycles))
    } else {
        Vec::new()
    };
    let machine = tr.span("rtosunit.setup", |_| {
        if run.harts > 1 {
            let mut smp = SmpSystem::new(run.core, run.preset, run.harts);
            image.install(smp.hart_mut(0));
            let pounder = contention_program();
            for h in 1..run.harts {
                smp.load_program(h, &pounder);
            }
            for &at in &irqs {
                smp.hart_mut(0).schedule_external_irq(at);
            }
            Machine::Smp(smp)
        } else {
            let mut sys = System::new(run.core, run.preset);
            if run.blocks {
                sys.set_block_cache(true);
            }
            image.install(&mut sys);
            for &at in &irqs {
                sys.schedule_external_irq(at);
            }
            Machine::One(Box::new(sys))
        }
    });
    Ok(Prepared {
        machine,
        run_cycles,
        text_words: image.program.words.len(),
    })
}

/// The executor's episode filter (`FilterPolicy::apply`).
fn filter(run: &RunSpec, raw: &[SwitchRecord]) -> Vec<SwitchRecord> {
    match run.filter {
        FilterPolicy::Standard => runner::filter_episodes(run.core, raw),
        FilterPolicy::WarmupOnly => raw.iter().skip(runner::WARMUP_SWITCHES).copied().collect(),
        FilterPolicy::WarmupTimerTicks => raw
            .iter()
            .skip(runner::WARMUP_SWITCHES)
            .filter(|r| r.cause == csr::CAUSE_TIMER)
            .copied()
            .collect(),
        FilterPolicy::All => raw.to_vec(),
    }
}

/// The executor's harvest: episodes, filter, waterfall, metrics, counters.
fn harvest(
    sys: &mut System,
    run: &RunSpec,
    bus: Option<Vec<BusMasterStats>>,
    slo: Option<u64>,
) -> SimOutcome {
    let raw_records = sys.take_records();
    let records = filter(run, &raw_records);
    let latencies: Vec<u64> = records.iter().map(SwitchRecord::latency).collect();
    let trace_marks = sys.platform.mmio.trace_marks.clone();
    let waterfall = waterfall::decompose(&records, &trace_marks);
    let metrics = SwitchMetrics::from_episodes(&waterfall, slo);
    SimOutcome {
        raw_records,
        records,
        latencies,
        cycles: sys.platform.cycle(),
        retired: sys.core.retired(),
        unit: sys.unit_stats(),
        cv32rt: sys.cv32rt_unit().map(|u| u.stats),
        port: sys.platform.port_occupancy(),
        trace_marks,
        ctx_queue: sys.platform.ctx_queue_stats(),
        counters: sys.core.counters(),
        waterfall,
        metrics,
        bus,
    }
}

/// Host-side facts about one executed cell that the outcome does not
/// carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellExtras {
    /// Cycles this execution stepped (the budget past any boot prefix).
    pub stepped_cycles: u64,
    /// Instructions retired while stepping.
    pub stepped_retired: u64,
    /// Hart count (1 for single-core cells).
    pub harts: usize,
    /// Hart 0 data-cache `(hits, misses)`, on cached cores.
    pub dcache: Option<(u64, u64)>,
}

/// Runs a prepared cell for the rest of its budget after `boot` cycles
/// and harvests it.
pub fn execute(
    prepared: Prepared,
    run: &RunSpec,
    slo: Option<u64>,
    boot: u64,
    tr: &mut Tracer,
) -> (SimOutcome, CellExtras) {
    let budget = prepared.run_cycles - boot;
    match prepared.machine {
        Machine::One(mut sys) => {
            let (c0, r0) = (sys.platform.cycle(), sys.core.retired());
            tr.span("rtosunit.run", |_| {
                if run.stepwise {
                    sys.run_stepwise(budget)
                } else {
                    sys.run(budget)
                }
            });
            let extras = CellExtras {
                stepped_cycles: sys.platform.cycle() - c0,
                stepped_retired: sys.core.retired() - r0,
                harts: 1,
                dcache: sys.platform.dcache().map(|c| c.stats()),
            };
            let sim = tr.span("rtosbench.harvest", |_| harvest(&mut sys, run, None, slo));
            (sim, extras)
        }
        Machine::Smp(mut smp) => {
            tr.span("rtosunit.run", |_| smp.run(budget));
            let bus: Vec<BusMasterStats> = {
                let shared = smp.shared();
                let shared = shared.borrow();
                (0..run.harts).map(|h| shared.bus_stats(h)).collect()
            };
            let hart0 = smp.hart_mut(0);
            let extras = CellExtras {
                stepped_cycles: hart0.platform.cycle(),
                stepped_retired: hart0.core.retired(),
                harts: run.harts,
                dcache: hart0.platform.dcache().map(|c| c.stats()),
            };
            let sim = tr.span("rtosbench.harvest", |_| harvest(hart0, run, Some(bus), slo));
            (sim, extras)
        }
    }
}

/// The workload param of a run (0 when unused), as the artifact shows it.
fn param_of(run: &RunSpec) -> u32 {
    match run.workload {
        WorkloadSpec::Suite(_) => 0,
        WorkloadSpec::Custom { param, .. }
        | WorkloadSpec::OpenLoop { param, .. }
        | WorkloadSpec::Analytic { param, .. } => param,
    }
}

fn outcome(index: usize, run: &RunSpec, sim: SimOutcome, host_nanos: u64) -> RunOutcome {
    RunOutcome {
        index,
        label: run.label(),
        core: run.core,
        preset: run.preset,
        workload: run.workload.name(),
        param: param_of(run),
        harts: run.harts,
        sim: Some(sim),
        analytic: None,
        host_nanos,
    }
}

/// Snapshot-layer facts of a traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapExtras {
    /// Sealed boot documents rendered.
    pub docs: usize,
    /// Their total rendered size in bytes.
    pub doc_bytes: usize,
}

/// One traced pass: the replayed campaign, its spans and the facts the
/// per-layer report reads.
pub struct TracedPass {
    /// The replayed cells, aggregated like the executor's campaign.
    pub campaign: Campaign,
    /// Every span, the pass root first.
    pub spans: Vec<Span>,
    /// Per-cell host facts, in cell order.
    pub extras: Vec<CellExtras>,
    /// Kernel images built, and their total text words.
    pub builds: (usize, usize),
    /// Snapshot documents and bytes.
    pub snap: SnapExtras,
    /// Bytes of the rendered artifact.
    pub artifact_bytes: usize,
}

impl TracedPass {
    /// Wall time of the pass (its root span), nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.spans.first().map_or(0, Span::ns)
    }
}

/// Replays one pass of `spec` (the spec [`Workload::setup`] returned)
/// sequentially with every layer call in a span, and renders the
/// artifact as a user of the campaign would.
///
/// # Errors
///
/// Fails when a cell cannot be prepared or a boot prefix halts.
pub fn traced_pass(wl: &Workload, spec: &CampaignSpec) -> Result<TracedPass, String> {
    let mut tr = Tracer::on();
    let mut outcomes = Vec::with_capacity(spec.runs.len());
    let mut extras = Vec::with_capacity(spec.runs.len());
    let mut builds = (0usize, 0usize);
    let mut snap_extras = SnapExtras::default();
    let mut artifact_bytes = 0;
    let mut add_build = |words: usize| {
        builds.0 += 1;
        builds.1 += words;
    };
    tr.span("bench.pass", |tr| -> Result<(), String> {
        if spec.runs.iter().all(|r| r.warm.is_none()) {
            for (i, run) in spec.runs.iter().enumerate() {
                tr.set_cell(i);
                let slo = run.slo.or(spec.slo);
                let (sim, ex, ns) = tr.span("bench.cell", |tr| -> Result<_, String> {
                    let t = Instant::now();
                    let p = prepare(run, tr, true)?;
                    add_build(p.text_words);
                    let (sim, ex) = execute(p, run, slo, 0, tr);
                    Ok((sim, ex, t.elapsed().as_nanos() as u64))
                })?;
                outcomes.push(outcome(i, run, sim, ns));
                extras.push(ex);
            }
        } else {
            let cells = wl.cells();
            let mut index = 0;
            for (c, cell) in cells.runs.iter().enumerate() {
                tr.set_cell(index);
                let state = tr.span("bench.boot", |tr| -> Result<Json, String> {
                    let p = prepare(cell, tr, false)?;
                    add_build(p.text_words);
                    let Machine::One(mut sys) = p.machine else {
                        return Err("warm start is single-hart only".into());
                    };
                    tr.span("rtosunit.run", |_| sys.run(BOOT_CYCLES));
                    if sys.halted() {
                        return Err(format!("{}: guest halted in the boot prefix", cell.label()));
                    }
                    let state = tr.span("rvsim-snapshot.encode", |_| sys.state_snap());
                    let text = tr.span("rvsim-snapshot.render", |_| snap::seal(state).render());
                    snap_extras.docs += 1;
                    snap_extras.doc_bytes += text.len();
                    tr.span("rvsim-snapshot.open", |_| snap::open(&text))
                        .map_err(|e| e.to_string())
                })?;
                for fork in wl.forks(c, cell) {
                    tr.set_cell(index);
                    let slo = fork.slo.or(spec.slo);
                    let (sim, ex, ns) = tr.span("bench.cell", |tr| -> Result<_, String> {
                        let t = Instant::now();
                        // The executor builds the kernel of a warm run too.
                        let (image, run_cycles) =
                            tr.span("freertos-lite.build", |_| build_image(&fork))?;
                        add_build(image.program.words.len());
                        let mut sys = tr
                            .span("rvsim-snapshot.restore", |_| {
                                System::from_state_snap(&state)
                            })
                            .map_err(|e| e.to_string())?;
                        let irqs = tr.span("rtosbench.arrivals", |_| irq_plan(&fork, run_cycles));
                        tr.span("rtosunit.setup", |_| {
                            for &at in &irqs {
                                sys.schedule_external_irq(at);
                            }
                        });
                        let p = Prepared {
                            machine: Machine::One(Box::new(sys)),
                            run_cycles,
                            text_words: image.program.words.len(),
                        };
                        let (sim, ex) = execute(p, &fork, slo, BOOT_CYCLES, tr);
                        Ok((sim, ex, t.elapsed().as_nanos() as u64))
                    })?;
                    outcomes.push(outcome(index, &fork, sim, ns));
                    extras.push(ex);
                    index += 1;
                }
            }
        }
        let campaign = Campaign {
            name: spec.name,
            workers: 1,
            telemetry: spec.telemetry,
            outcomes: std::mem::take(&mut outcomes),
            failures: Vec::new(),
            host_nanos: 0,
            sections: Vec::new(),
        };
        artifact_bytes = tr.span("rtosbench.render", |_| campaign.to_json().render().len());
        outcomes = campaign.outcomes;
        Ok(())
    })?;
    let spans = tr.into_spans();
    let campaign = Campaign {
        name: spec.name,
        workers: 1,
        telemetry: spec.telemetry,
        outcomes,
        failures: Vec::new(),
        host_nanos: spans.first().map_or(0, Span::ns),
        sections: Vec::new(),
    };
    Ok(TracedPass {
        campaign,
        spans,
        extras,
        builds,
        snap: snap_extras,
        artifact_bytes,
    })
}
