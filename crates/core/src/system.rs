//! System composition: core + RTOSUnit + memory + interrupt sources, plus
//! the latency instrumentation of §6.1.

use crate::config::{Preset, RtosUnitConfig};
use crate::cv32rt::Cv32rtUnit;
use crate::events::TraceEvent;
use crate::layout::{DMEM_BASE, DMEM_SIZE, IMEM_BASE, IMEM_SIZE};
use crate::platform::Platform;
use crate::stats::{LatencyStats, SwitchRecord};
use crate::unit::{RtosUnit, UnitStats};
use rvsim_cores::{
    make_engine, Coprocessor, CoreEngine, CoreEvent, CoreKind, DataBus, FaultKind, FaultPlan,
    NullCoprocessor,
};
use rvsim_isa::{csr, Program};
use rvsim_snapshot::{
    self as snap, snap_fields, Codec, Each, Json, MinusOneIsNone, Named, Opt, Rle, Snap, SnapError,
    Tuple,
};

/// Default timer-tick period in cycles.
pub const DEFAULT_TICK_PERIOD: u32 = 2000;

/// Why [`System::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The guest halted (HALT MMIO write or `ebreak`).
    Halted,
    /// The cycle budget was exhausted first.
    CyclesExhausted,
}

// The Rtos variant dominates runtime use; boxing would only add
// indirection to the hot per-cycle dispatch.
#[allow(clippy::large_enum_variant)]
enum UnitBox {
    None(NullCoprocessor),
    Rtos(RtosUnit),
    Cv32rt(Cv32rtUnit),
}

impl UnitBox {
    fn as_coproc(&mut self) -> &mut dyn Coprocessor {
        match self {
            UnitBox::None(u) => u,
            UnitBox::Rtos(u) => u,
            UnitBox::Cv32rt(u) => u,
        }
    }
}

/// A complete simulated system for one `(core, configuration)` pair.
///
/// ```
/// use rtosunit::{System, Preset};
/// use rvsim_cores::CoreKind;
/// use rvsim_isa::{Asm, Reg};
///
/// # fn main() -> Result<(), rvsim_isa::AsmError> {
/// let mut a = Asm::new(rtosunit::layout::IMEM_BASE);
/// a.li(Reg::A0, 7);
/// a.ebreak();
/// let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
/// sys.load_program(&a.finish()?);
/// sys.run(1_000);
/// assert_eq!(sys.core.state.read_reg(Reg::A0), 7);
/// # Ok(())
/// # }
/// ```
pub struct System {
    /// The core engine.
    pub core: CoreEngine,
    /// Memory, caches, MMIO and arbitration.
    pub platform: Platform,
    unit: UnitBox,
    kind: CoreKind,
    preset: Preset,
    records: Vec<SwitchRecord>,
    prev_mask: u32,
    pending_triggers: [Option<u64>; 3],
    open_episode: Option<(u64, u64, u32)>,
    ext_schedule: Vec<u64>,
    /// Fault-injection schedule; `None` (the default) costs nothing.
    fault_plan: Option<FaultPlan>,
}

fn cause_slot(cause: u32) -> usize {
    match cause {
        csr::CAUSE_TIMER => 0,
        csr::CAUSE_SOFTWARE => 1,
        csr::CAUSE_EXTERNAL => 2,
        _ => panic!("unknown interrupt cause {cause:#x}"),
    }
}

impl System {
    /// Builds a system for `kind` running the given `preset`, with the
    /// default memory map and tick period.
    pub fn new(kind: CoreKind, preset: Preset) -> System {
        let mut platform = Platform::new(kind, DEFAULT_TICK_PERIOD);
        let unit = match preset {
            Preset::Vanilla => UnitBox::None(NullCoprocessor),
            Preset::Cv32rt => UnitBox::Cv32rt(Cv32rtUnit::new(kind)),
            p => UnitBox::Rtos(RtosUnit::new(
                RtosUnitConfig::from_preset(p).expect("preset with unit config"),
            )),
        };
        // The auto-reset timer is part of the (T) modification (§4.4).
        platform.mmio.auto_timer_reset = preset.has_sched();
        System {
            core: make_engine(kind, IMEM_BASE, IMEM_SIZE),
            platform,
            unit,
            kind,
            preset,
            records: Vec::new(),
            prev_mask: 0,
            pending_triggers: [None; 3],
            open_episode: None,
            ext_schedule: Vec::new(),
            fault_plan: None,
        }
    }

    /// The core kind this system was built for.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// The configuration preset in use.
    pub fn preset(&self) -> Preset {
        self.preset
    }

    /// Loads a guest program into instruction memory.
    pub fn load_program(&mut self, program: &Program) {
        self.core.load_program(program);
    }

    /// Rebuilds the attached RTOSUnit with a different hardware list
    /// capacity (only before the guest boots; used by the task-count
    /// scaling studies).
    ///
    /// # Panics
    ///
    /// Panics if this system has no RTOSUnit or the length is invalid.
    pub fn set_unit_list_len(&mut self, list_len: usize) {
        match &mut self.unit {
            UnitBox::Rtos(u) => {
                let mut cfg = *u.config();
                cfg.list_len = list_len;
                *u = RtosUnit::new(cfg);
            }
            _ => panic!("system has no RTOSUnit to resize"),
        }
    }

    /// Overrides the timer-tick period (cycles).
    pub fn set_timer_period(&mut self, period: u32) {
        self.platform.mmio.timer_period = period;
        self.platform.mmio.mtimecmp = self.platform.mmio.mtime.wrapping_add(period);
    }

    /// Schedules the external interrupt line to rise at an absolute cycle.
    pub fn schedule_external_irq(&mut self, cycle: u64) {
        // Kept in descending order, so the next arrival pops from the back.
        let at = self.ext_schedule.partition_point(|&c| c > cycle);
        self.ext_schedule.insert(at, cycle);
    }

    /// Attaches a deterministic fault-injection schedule. The quiescence
    /// horizon is bounded one cycle short of every due fault, so batched
    /// and stepwise execution stay bit-identical with a plan attached.
    pub fn attach_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Number of faults injected so far.
    pub fn faults_applied(&self) -> usize {
        self.fault_plan.as_ref().map_or(0, |p| p.applied())
    }

    /// Applies one due fault. Register flips land on the *active* bank
    /// without marking the register dirty (a silent upset); memory flips
    /// go straight to the DMEM backing store (the cache model is
    /// timing-only, so stored bits live there).
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::RegFlip { reg, bit } => {
                let bank = self.core.state.active_bank();
                let v = self.core.state.bank_read(bank, reg);
                self.core.state.bank_write_clean(bank, reg, v ^ (1 << bit));
            }
            FaultKind::CsrFlip { csr, bit } => {
                let v = self.core.state.csrs.read(csr);
                self.core.state.csrs.write(csr, v ^ (1 << bit));
            }
            FaultKind::MemFlip { addr, bit } => {
                let addr = addr & !0x3;
                if self.platform.dmem.contains(addr) {
                    let w = self.platform.dmem.read_word(addr);
                    self.platform.dmem.write_word(addr, w ^ (1 << bit));
                }
            }
            FaultKind::CacheUpset { addr } => self.platform.invalidate_line(addr),
            FaultKind::BusError => self.platform.arm_bus_error(),
            FaultKind::SpuriousIrq => self.platform.raise_external_irq(),
            FaultKind::DropIrq => {
                self.ext_schedule.pop();
            }
            FaultKind::DelayIrq { delay } => {
                if let Some(next) = self.ext_schedule.pop() {
                    self.schedule_external_irq(next + u64::from(delay));
                }
            }
            FaultKind::SpuriousIpi => self.platform.mmio.msip = true,
            FaultKind::ImemFlip { addr, bit } => {
                // Through the coherent IMEM write path: the cached decode
                // and any live block translation covering the word die
                // with the old bits.
                if let Some(word) = self.core.imem_word(addr) {
                    self.core.write_imem_word(addr, word ^ (1 << bit));
                }
            }
        }
        self.platform
            .record(TraceEvent::FaultInjected { code: kind.code() });
    }

    /// Attaches this system to an SMP composition as `hart`: the guest
    /// reads the id via `mhartid`, DMEM traffic arbitrates on the shared
    /// bus, and queued IPIs raise `mip.MSIP`.
    pub fn attach_smp(
        &mut self,
        hart: usize,
        shared: std::rc::Rc<std::cell::RefCell<crate::smp::SmpShared>>,
    ) {
        self.core.state.csrs.mhartid = hart as u32;
        self.platform.attach_smp(hart, shared);
    }

    /// The RTOSUnit attached to this system, if any.
    pub fn rtos_unit(&self) -> Option<&RtosUnit> {
        match &self.unit {
            UnitBox::Rtos(u) => Some(u),
            _ => None,
        }
    }

    /// Activity counters of the RTOSUnit, if one is attached.
    pub fn unit_stats(&self) -> Option<UnitStats> {
        self.rtos_unit().map(|u| u.stats)
    }

    /// The CV32RT comparison unit, if attached.
    pub fn cv32rt_unit(&self) -> Option<&Cv32rtUnit> {
        match &self.unit {
            UnitBox::Cv32rt(u) => Some(u),
            _ => None,
        }
    }

    /// All completed switch episodes so far.
    pub fn records(&self) -> &[SwitchRecord] {
        &self.records
    }

    /// Removes and returns the recorded episodes.
    pub fn take_records(&mut self) -> Vec<SwitchRecord> {
        std::mem::take(&mut self.records)
    }

    /// Aggregate latency statistics over all recorded episodes.
    pub fn latency_stats(&self) -> Option<LatencyStats> {
        LatencyStats::from_records(&self.records)
    }

    /// The `mcause` of the open interrupt episode — the ISR was entered
    /// but its `mret` has not retired yet — or `None` between episodes.
    /// Checkers use this to stop a run at a consistent point instead of
    /// mid-ISR.
    pub fn isr_cause(&self) -> Option<u32> {
        self.open_episode.map(|(_, _, cause)| cause)
    }

    /// Whether the guest has halted.
    pub fn halted(&self) -> bool {
        self.core.halted() || self.platform.mmio.halted
    }

    /// Enables typed event tracing with a ring of `capacity` events (see
    /// [`Platform::enable_tracing`]). Off by default; retrieve the trace
    /// through `self.platform.trace()` / `take_trace()`.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.platform.enable_tracing(capacity);
    }

    /// Turns the guest PC profiler on or off (see
    /// [`CoreEngine::set_profiling`]). Off by default; profiling never
    /// changes timing. Retrieve the result through
    /// [`take_profile`](Self::take_profile).
    pub fn set_profiling(&mut self, on: bool) {
        self.core.set_profiling(on);
    }

    /// Takes the accumulated cycle-per-PC profile, turning profiling off.
    pub fn take_profile(&mut self) -> Option<rvsim_cores::PcProfile> {
        self.core.take_profile()
    }

    /// Attaches or detaches the core's basic-block translation cache (see
    /// [`CoreEngine::set_block_cache`]). Off by default; simulated timing,
    /// state, counters and artifacts are bit-identical either way — the
    /// cache only accelerates batched host execution.
    pub fn set_block_cache(&mut self, on: bool) {
        self.core.set_block_cache(on);
    }

    /// Block-translation statistics for blocks entered in `[start, end]`
    /// (see [`CoreEngine::block_stats_in`]).
    pub fn block_stats_in(&self, start: u32, end: u32) -> rvsim_cores::BlockStats {
        self.core.block_stats_in(start, end)
    }

    /// Advances the system by one cycle.
    pub fn step(&mut self) {
        self.platform.begin_cycle();
        let now = self.platform.cycle();

        // Faults strike before interrupt sampling, so a spurious /
        // dropped / delayed IRQ due this cycle shapes this cycle's mask.
        if self.fault_plan.is_some() {
            while let Some(ev) = self.fault_plan.as_mut().and_then(|p| p.take_due(now)) {
                self.apply_fault(ev.kind);
            }
        }

        while self.ext_schedule.last().is_some_and(|&c| c <= now) {
            self.ext_schedule.pop();
            self.platform.raise_external_irq();
        }

        // Refresh mip and record rising edges as trigger timestamps. A
        // queued IPI asserts MSIP alongside the local doorbell latch.
        let mut mask = self.platform.mmio.pending_mask();
        if self.platform.ipi_pending() {
            mask |= csr::MIP_MSIP;
        }
        let rising = mask & !self.prev_mask;
        for (bit, cause) in [
            (csr::MIP_MTIP, csr::CAUSE_TIMER),
            (csr::MIP_MSIP, csr::CAUSE_SOFTWARE),
            (csr::MIP_MEIP, csr::CAUSE_EXTERNAL),
        ] {
            if rising & bit != 0 {
                self.pending_triggers[cause_slot(cause)] = Some(now);
                self.platform.record(TraceEvent::IrqRaised { cause });
            }
        }
        self.prev_mask = mask;
        self.core.state.csrs.mip = mask;

        let out = self.core.step(&mut self.platform, self.unit.as_coproc());
        if let Some(event) = out.event {
            self.track_episode(event, now);
        }

        self.unit
            .as_coproc()
            .step(&mut self.core.state, &mut self.platform);
    }

    /// Interrupt-episode bookkeeping for a core event observed at cycle
    /// `now`: ISR entry opens an episode (and re-arms the auto-reset
    /// timer), `mret` closes it into a [`SwitchRecord`].
    fn track_episode(&mut self, event: CoreEvent, now: u64) {
        match event {
            CoreEvent::InterruptEntered { cause } => {
                let trigger = self.pending_triggers[cause_slot(cause)]
                    .take()
                    .unwrap_or(now);
                self.open_episode = Some((trigger, now, cause));
                self.platform.record(TraceEvent::IsrEntry { cause });
                if cause == csr::CAUSE_TIMER && self.platform.mmio.auto_timer_reset {
                    self.platform.auto_reset_timer();
                }
            }
            CoreEvent::MretRetired => {
                self.platform.record(TraceEvent::MretRetired);
                if let Some((trigger, entry, cause)) = self.open_episode.take() {
                    self.records.push(SwitchRecord {
                        trigger_cycle: trigger,
                        entry_cycle: entry,
                        mret_cycle: now,
                        cause,
                    });
                }
            }
            _ => {}
        }
    }

    /// How many upcoming cycles can run batched; 0 when something needs
    /// the full per-cycle path this cycle.
    ///
    /// A batch needs the interrupt lines to already match what the core
    /// sees, and no timer fire, scheduled external IRQ or planned fault
    /// inside the window. Over such a stretch the per-cycle `System`
    /// bookkeeping is provably a no-op, so the engine may run batched.
    /// Guest actions that could break the assumption mid-batch (MMIO
    /// writes to the interrupt devices, custom unit instructions) stop the
    /// batch via the bus attention latch and the engine's
    /// custom-instruction stop. A unit with background work (context
    /// store/restore, preload, a scheduler sort) does not prevent a batch:
    /// [`CoreEngine::run_batch`] then steps it every cycle.
    fn batch_budget(&mut self, now: u64, end: u64) -> u64 {
        // A queued IPI needs the per-cycle path to assert MSIP.
        if self.platform.ipi_pending() {
            return 0;
        }
        let mask = self.platform.mmio.pending_mask();
        if mask != self.prev_mask || self.core.state.csrs.mip != mask {
            return 0;
        }
        let mut horizon = end;
        if let Some(delta) = self.platform.mmio.cycles_until_timer_fire() {
            // Stop one cycle short of the rising edge so the per-cycle
            // path records the trigger timestamp exactly at the edge.
            horizon = horizon.min((now + delta).saturating_sub(1));
        }
        if let Some(&next) = self.ext_schedule.last() {
            horizon = horizon.min(next.saturating_sub(1));
        }
        // Stop short of the next planned fault: injection needs the
        // per-cycle path, keeping batched == stepwise with a plan.
        if let Some(next) = self.fault_plan.as_ref().and_then(|p| p.next_cycle()) {
            horizon = horizon.min(next.saturating_sub(1));
        }
        horizon.saturating_sub(now)
    }

    /// Runs until the guest halts or `max_cycles` elapse.
    ///
    /// Quiescent stretches execute through the engine's batched
    /// [`run_batch`](CoreEngine::run_batch) — cycle-exact with
    /// [`run_stepwise`](Self::run_stepwise) (the differential tests assert
    /// identical records and counters) but without one dynamic dispatch
    /// per cycle.
    pub fn run(&mut self, max_cycles: u64) -> RunExit {
        let end = self.platform.cycle() + max_cycles;
        loop {
            if self.halted() {
                return RunExit::Halted;
            }
            let now = self.platform.cycle();
            if now >= end {
                return RunExit::CyclesExhausted;
            }

            let budget = self.batch_budget(now, end);
            if budget == 0 {
                self.step();
                continue;
            }

            // A unit-active batch co-steps the coprocessor every consumed
            // cycle but one that raised an event.
            let costep = !self.unit.as_coproc().is_idle();
            let exit = self
                .core
                .run_batch(&mut self.platform, self.unit.as_coproc(), budget);
            if let Some(event) = exit.event {
                self.track_episode(event, self.platform.cycle());
            }
            // The exit cycle's unit step, after the episode bookkeeping as
            // in `step`. A quiescent batch leaves it to us; it is a no-op
            // unless the final cycle entered an interrupt or executed a
            // custom instruction — exactly the cycles where the per-cycle
            // path steps a newly-active unit. A co-stepped batch took it
            // already, unless the final cycle raised an event.
            if exit.cycles > 0 && (!costep || exit.event.is_some()) {
                self.unit
                    .as_coproc()
                    .step(&mut self.core.state, &mut self.platform);
            }
        }
    }

    /// Serializes the complete system — core, platform, attached unit,
    /// interrupt bookkeeping, episode records and fault-plan cursor —
    /// into a sealed, self-describing snapshot document.
    ///
    /// The contract: a system rebuilt with
    /// [`from_snapshot`](Self::from_snapshot) continues cycle-for-cycle,
    /// counter-for-counter and trace-for-trace identically to one that
    /// never stopped.
    pub fn snapshot(&self) -> Json {
        snap::seal(self.state_snap())
    }

    /// Rebuilds a system from a sealed snapshot document (the output of
    /// [`snapshot`](Self::snapshot), parsed). The document is fully
    /// self-describing: core kind and preset are read from the payload.
    ///
    /// # Errors
    ///
    /// Fails on a broken envelope, unknown kind/preset tags, or any
    /// malformed state field.
    pub fn from_snapshot(doc: &Json) -> Result<System, SnapError> {
        Self::from_state_snap(snap::verify(doc)?)
    }

    /// Cycle-by-cycle reference path: semantically identical to
    /// [`run`](Self::run) but calls [`step`](Self::step) once per cycle.
    /// Kept for differential testing and throughput comparisons.
    pub fn run_stepwise(&mut self, max_cycles: u64) -> RunExit {
        for _ in 0..max_cycles {
            if self.halted() {
                return RunExit::Halted;
            }
            self.step();
        }
        if self.halted() {
            RunExit::Halted
        } else {
            RunExit::CyclesExhausted
        }
    }
}

snap_fields! {
    // `state_snap` is the unsealed payload of [`System::snapshot`];
    // `from_state_snap` decodes one engine (for the payload's core kind),
    // one platform and one unit and assembles a new system from them. The
    // SMP attachment is wiring, not state: a composition re-attaches it.
    pub fn state_snap, pub fn from_state_snap() for System {
        "kind" => kind: Named(CoreKind::name, CoreKind::from_name),
        "preset" => preset: Named(Preset::tag, Preset::from_tag),
        "core" => core: Engine(kind.timing()),
        "platform" => platform,
        "unit" => unit,
        "records" => records,
        "prev_mask" => prev_mask,
        "pending_triggers" => pending_triggers: Each(MinusOneIsNone),
        "open_episode" => open_episode: Opt(Tuple(&["trigger", "entry", "cause"])),
        "ext_len" => let ext_len: usize = ext_schedule.len(),
        "ext_schedule" => ext_schedule: Rle(ext_len),
        "fault_plan" => fault_plan,
        check => check_unit_model(unit, *preset),
        check => snap::ensure(
            core.imem_bounds() == (IMEM_BASE, IMEM_BASE + IMEM_SIZE)
                && (platform.dmem.base(), platform.dmem.end()) == (DMEM_BASE, DMEM_BASE + DMEM_SIZE),
            || "system: memory geometry disagrees with the layout".into(),
        ),
    }
}

/// The engine for a core model's timing parameters.
struct Engine(rvsim_cores::TimingParams);

impl Codec<CoreEngine> for Engine {
    fn encode(&self, core: &CoreEngine) -> Json {
        core.to_snap()
    }

    fn decode(&self, value: &Json) -> Result<CoreEngine, SnapError> {
        CoreEngine::from_snap(value, &self.0)
    }
}

/// Hand-written: the attached unit is an enum whose payload depends on the
/// model tag.
impl Snap for UnitBox {
    fn encode(&self) -> Json {
        match self {
            UnitBox::None(_) => Json::object().with("model", "none"),
            UnitBox::Rtos(u) => Json::object()
                .with("model", "rtos")
                .with("state", u.encode()),
            UnitBox::Cv32rt(u) => Json::object()
                .with("model", "cv32rt")
                .with("state", u.encode()),
        }
    }

    fn decode(value: &Json) -> Result<UnitBox, SnapError> {
        match snap::get::<String>(value, "model")?.as_str() {
            "none" => Ok(UnitBox::None(NullCoprocessor)),
            "rtos" => snap::get(value, "state").map(UnitBox::Rtos),
            "cv32rt" => snap::get(value, "state").map(UnitBox::Cv32rt),
            m => Err(SnapError::new(format!("system: unknown unit model `{m}`"))),
        }
    }
}

/// The attached unit model is the one the preset calls for.
fn check_unit_model(unit: &UnitBox, preset: Preset) -> Result<(), SnapError> {
    let fits = match unit {
        UnitBox::None(_) => preset == Preset::Vanilla,
        UnitBox::Cv32rt(_) => preset == Preset::Cv32rt,
        UnitBox::Rtos(_) => RtosUnitConfig::from_preset(preset).is_some(),
    };
    snap::ensure(fits, || {
        "system: unit model disagrees with the preset".into()
    })
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("kind", &self.kind)
            .field("preset", &self.preset.label())
            .field("cycle", &self.platform.cycle())
            .field("records", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{MMIO_HALT, MMIO_MTIMECMP, MMIO_TRACE};
    use rvsim_isa::{Asm, Reg};

    fn simple_isr_program() -> Program {
        // Boot: install ISR, enable timer irq, loop. ISR: re-arm timer,
        // count in a0, mret; after 3 ISRs, halt.
        let mut a = Asm::new(IMEM_BASE);
        a.la(Reg::T0, "isr");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MTIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.li(Reg::T1, 3);
        a.bge(Reg::A0, Reg::T1, "done");
        a.j("spin");
        a.label("done");
        a.li(Reg::T2, MMIO_HALT as i32);
        a.sw(Reg::Zero, 0, Reg::T2);
        a.j("done");
        a.label("isr");
        // Re-arm mtimecmp = mtime + 1000.
        a.li(Reg::T0, crate::layout::MMIO_MTIME as i32);
        a.lw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::T1, Reg::T1, 1000);
        a.li(Reg::T0, MMIO_MTIMECMP as i32);
        a.sw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.mret();
        a.finish().expect("assemble")
    }

    #[test]
    fn timer_interrupts_are_recorded() {
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        sys.set_timer_period(500);
        sys.load_program(&simple_isr_program());
        assert_eq!(sys.run(50_000), RunExit::Halted);
        assert_eq!(sys.records().len(), 3);
        for r in sys.records() {
            assert_eq!(r.cause, csr::CAUSE_TIMER);
            assert!(
                r.latency() > 0 && r.latency() < 200,
                "latency {}",
                r.latency()
            );
        }
        // A deterministic core and identical episodes: zero jitter.
        let stats = sys.latency_stats().expect("records");
        assert_eq!(stats.count, 3);
    }

    #[test]
    fn trace_marks_capture_cycles() {
        let mut a = Asm::new(IMEM_BASE);
        a.li(Reg::T0, MMIO_TRACE as i32);
        a.li(Reg::T1, 11);
        a.sw(Reg::T1, 0, Reg::T0);
        a.ebreak();
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        sys.load_program(&a.finish().expect("assemble"));
        sys.run(1000);
        assert_eq!(sys.platform.mmio.trace_marks.len(), 1);
        assert_eq!(sys.platform.mmio.trace_marks[0].code, 11);
    }

    #[test]
    fn external_irq_schedule_fires() {
        let mut a = Asm::new(IMEM_BASE);
        a.la(Reg::T0, "isr");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MEIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.j("spin");
        a.label("isr");
        a.li(Reg::T0, MMIO_HALT as i32);
        a.sw(Reg::Zero, 0, Reg::T0);
        a.mret();
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        sys.load_program(&a.finish().expect("assemble"));
        sys.schedule_external_irq(300);
        assert_eq!(sys.run(5000), RunExit::Halted);
        // The trigger cycle must match the scheduled assertion.
        assert!(sys.platform.cycle() >= 300);
    }

    #[test]
    fn irq_schedule_stays_descending_whatever_the_insert_order() {
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        for cycle in [500, 100, 900, 500, 300, 1_000, 100] {
            sys.schedule_external_irq(cycle);
        }
        assert_eq!(sys.ext_schedule, [1_000, 900, 500, 500, 300, 100, 100]);
    }

    fn isr_program_with_stack() -> Program {
        // `simple_isr_program` plus a stack pointer inside DMEM, so the
        // CV32RT hardware drain has a valid frame to write into.
        let mut a = Asm::new(IMEM_BASE);
        a.li(
            Reg::Sp,
            (crate::layout::DMEM_BASE + crate::layout::DMEM_SIZE / 2) as i32,
        );
        a.la(Reg::T0, "isr");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(Reg::T0, csr::MIP_MTIP as i32);
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.label("spin");
        a.li(Reg::T1, 3);
        a.bge(Reg::A0, Reg::T1, "done");
        a.j("spin");
        a.label("done");
        a.li(Reg::T2, MMIO_HALT as i32);
        a.sw(Reg::Zero, 0, Reg::T2);
        a.j("done");
        a.label("isr");
        a.li(Reg::T0, crate::layout::MMIO_MTIME as i32);
        a.lw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::T1, Reg::T1, 1000);
        a.li(Reg::T0, MMIO_MTIMECMP as i32);
        a.sw(Reg::T1, 0, Reg::T0);
        a.addi(Reg::A0, Reg::A0, 1);
        a.mret();
        a.finish().expect("assemble")
    }

    #[test]
    fn snapshot_roundtrip_mid_isr_workload() {
        for preset in [Preset::Vanilla, Preset::Slt, Preset::Cv32rt] {
            // Cv32rt has no software restore in this tiny ISR; it still
            // exercises the snapshot of a drained unit.
            let build = || {
                let mut s = System::new(CoreKind::Cva6, preset);
                s.set_timer_period(500);
                s.enable_tracing(64);
                s.load_program(&isr_program_with_stack());
                s.schedule_external_irq(100_000); // stays pending state
                s
            };
            let mut a = build();
            a.run(1_200); // past the first ISR entry
            let doc = a.snapshot();
            assert_eq!(
                doc.render(),
                a.snapshot().render(),
                "snapshot must be digest-stable ({preset:?})"
            );
            let mut b = System::from_snapshot(&doc).expect("restore");
            assert_eq!(a.run(50_000), b.run(50_000), "{preset:?}");
            assert_eq!(a.platform.cycle(), b.platform.cycle(), "{preset:?}");
            assert_eq!(a.records(), b.records(), "{preset:?}");
            assert_eq!(
                a.state_snap().render(),
                b.state_snap().render(),
                "continuations must stay bit-identical ({preset:?})"
            );
        }
    }

    #[test]
    fn snapshot_restore_rejects_wrong_identity() {
        let mut sys = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        sys.load_program(&simple_isr_program());
        sys.run(200);
        let state = sys.state_snap();
        let with = |key: &str, value: &str| {
            let mut s = state.clone();
            if let Json::Object(pairs) = &mut s {
                for (k, v) in pairs.iter_mut() {
                    if k == key {
                        *v = Json::from(value);
                    }
                }
            }
            s
        };
        let err = System::from_state_snap(&with("kind", "Z80")).unwrap_err();
        assert_eq!(err.context, "kind: unknown name `Z80`");
        let err = System::from_state_snap(&with("preset", "slt")).unwrap_err();
        assert_eq!(err.context, "system: unit model disagrees with the preset");
        // A payload for one core kind cannot restore another core's engine.
        let err = System::from_state_snap(&with("kind", CoreKind::Cva6.name())).unwrap_err();
        assert!(
            err.context
                .starts_with("core.core: engine: snapshot of core"),
            "{err}"
        );
        assert!(System::from_state_snap(&state).is_ok());
        // An engine whose instruction memory does not match the layout.
        let mut small = state.clone();
        if let Some(Json::Object(core)) = match &mut small {
            Json::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == "core").map(|(_, v)| v),
            _ => None,
        } {
            for (k, v) in core.iter_mut() {
                match k.as_str() {
                    "imem" => *v = rvsim_mem::Mem::new(IMEM_BASE, 0x1000).encode(),
                    "decoded" => *v = snap::rle_encode([0u32; 0x1000 / 4 / 32]),
                    _ => {}
                }
            }
        }
        let err = System::from_state_snap(&small).unwrap_err();
        assert_eq!(
            err.context,
            "system: memory geometry disagrees with the layout"
        );

        // A corrupted sealed document must fail the digest check.
        let doc = sys.snapshot();
        let text = doc.render().replace("\"prev_mask\": 0", "\"prev_mask\": 1");
        assert_ne!(text, doc.render(), "tamper target present");
        assert!(rvsim_snapshot::open(&text).is_err(), "tamper detected");
    }

    #[test]
    fn preset_selects_unit_kind() {
        let v = System::new(CoreKind::Cv32e40p, Preset::Vanilla);
        assert!(v.rtos_unit().is_none() && v.cv32rt_unit().is_none());
        let r = System::new(CoreKind::Cv32e40p, Preset::Slt);
        assert!(r.rtos_unit().is_some());
        let c = System::new(CoreKind::Cva6, Preset::Cv32rt);
        assert!(c.cv32rt_unit().is_some());
        // Auto-reset timer only with hardware scheduling.
        assert!(r.platform.mmio.auto_timer_reset);
        assert!(!v.platform.mmio.auto_timer_reset);
    }
}
