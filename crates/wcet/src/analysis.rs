//! Bounded longest-path WCET analysis on the CV32E40P timing model.

use crate::cfg::{Cfg, LoopBounds};
use freertos_lite::KernelBuilder;
use rtosunit::layout::CTX_WORDS;
use rtosunit::{Preset, RtosUnitConfig};
use rvsim_cores::TimingParams;
use rvsim_isa::{CustomOp, Instr, MulDivOp};
use std::collections::HashMap;

/// Result of analysing one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WcetReport {
    /// The configuration analysed.
    pub preset: Preset,
    /// Worst-case software path through the ISR, in cycles (entry flush
    /// included, `mret` execution included).
    pub software_cycles: u64,
    /// Worst-case stall cycles waiting for the RTOSUnit FSMs
    /// (`SWITCH_RF` / `mret` stalls).
    pub fsm_stall_cycles: u64,
    /// Total WCET of a context switch: trigger-to-`mret` upper bound.
    pub total_cycles: u64,
    /// Number of worst-case paths explored.
    pub paths: u64,
}

struct Explorer<'a> {
    cfg: &'a Cfg,
    bounds: &'a LoopBounds,
    timing: TimingParams,
    unit: Option<RtosUnitConfig>,
    best: u64,
    best_sw: u64,
    best_stall: u64,
    paths: u64,
    steps: u64,
}

#[derive(Clone)]
struct PathState {
    pc: u32,
    cycles: u64,
    mem_ops: u64,
    stalls: u64,
    t_announce: Option<u64>,
    backedges: HashMap<u32, u32>,
}

const STEP_BUDGET: u64 = 50_000_000;

/// Worst-case trigger-to-entry wait for a promptly-taken interrupt: the
/// currently retiring instruction plus the interrupt-enable shadow of a
/// voluntary yield (matches the measurement filter in `rtosbench`).
const TRIGGER_SLACK: u64 = 8;

impl Explorer<'_> {
    fn instr_cost(&self, i: &Instr, taken: bool) -> u64 {
        let p = &self.timing;
        u64::from(match i {
            Instr::Branch { .. } if taken => 1 + p.branch_penalty,
            Instr::Jal { .. } => 1 + p.jump_penalty,
            Instr::Jalr { .. } => 1 + p.jalr_penalty,
            Instr::Load { .. } => p.load_base_latency + 1,
            Instr::Store { .. } => p.store_latency,
            Instr::Csr { .. } => p.csr_latency,
            Instr::MulDiv { op, .. } => match op {
                MulDivOp::Mul | MulDivOp::Mulh | MulDivOp::Mulhsu | MulDivOp::Mulhu => {
                    p.mul_latency
                }
                _ => p.div_latency,
            },
            Instr::Custom { .. } => p.custom_latency,
            Instr::Mret => p.mret_latency,
            _ => 1,
        })
    }

    /// Upper bound on when the store FSM completes, given the processor
    /// used `mem_ops` port cycles so far: 31 words, one per idle cycle,
    /// every processor access steals one (§4.2).
    fn store_done(&self, mem_ops: u64) -> u64 {
        u64::from(self.timing.irq_entry_latency) + CTX_WORDS as u64 + mem_ops
    }

    fn explore(&mut self, mut st: PathState) {
        loop {
            self.steps += 1;
            assert!(
                self.steps < STEP_BUDGET,
                "WCET exploration exceeded its step budget — unbounded loop?"
            );
            let instr = *self.cfg.at(st.pc);

            // FSM interaction stalls.
            if let Instr::Custom { op, .. } = instr {
                match op {
                    CustomOp::SwitchRf if self.unit.is_some_and(|u| u.store) => {
                        let done = self.store_done(st.mem_ops);
                        if done > st.cycles {
                            st.stalls += done - st.cycles;
                            st.cycles = done;
                        }
                    }
                    CustomOp::GetHwSched => {
                        // Iterative sorting: a preceding list mutation
                        // (the entry tick or an ADD_READY on this path)
                        // may still be bubbling; worst case is one
                        // compare-swap wave per list slot from now.
                        if let Some(u) = self.unit {
                            st.stalls += u.list_len as u64;
                            st.cycles += u.list_len as u64;
                        }
                    }
                    CustomOp::SetContextId => {
                        st.t_announce = Some(st.cycles);
                    }
                    _ => {}
                }
            }
            if let Instr::Custom {
                op: CustomOp::GetHwSched,
                ..
            } = instr
            {
                st.t_announce = Some(st.cycles);
            }

            if matches!(instr, Instr::Mret) {
                let mut cycles = st.cycles;
                if let Some(u) = self.unit {
                    if u.load {
                        // Restore: 31 words after both the store drained
                        // and the next task was announced (§4.3).
                        let start = self
                            .store_done(st.mem_ops)
                            .max(st.t_announce.unwrap_or(st.cycles));
                        let done = start + CTX_WORDS as u64;
                        if done > cycles {
                            st.stalls += done - cycles;
                            cycles = done;
                        }
                    }
                }
                let total = cycles + self.instr_cost(&instr, false);
                self.paths += 1;
                if total > self.best {
                    self.best = total;
                    self.best_sw = st.cycles + self.instr_cost(&instr, false) - st.stalls;
                    self.best_stall = st.stalls;
                }
                return;
            }

            if instr.is_mem() {
                st.mem_ops += 1;
            }

            let (fall, taken) = self.cfg.successors(st.pc);
            match (fall, taken) {
                (Some(ft), Some(tk)) => {
                    // Branch: explore the taken direction (recursive) if
                    // its back-edge budget allows, continue with
                    // fall-through in place.
                    let is_backedge = tk <= st.pc;
                    let allowed = if is_backedge {
                        let bound = self.bounds.bound_for(self.cfg.label_at(tk));
                        let count = st.backedges.entry(st.pc).or_insert(0);
                        *count < bound
                    } else {
                        true
                    };
                    if allowed {
                        let mut t = st.clone();
                        if is_backedge {
                            *t.backedges.entry(st.pc).or_insert(0) += 1;
                        }
                        t.cycles += self.instr_cost(&instr, true);
                        t.pc = tk;
                        self.explore(t);
                    }
                    st.cycles += self.instr_cost(&instr, false);
                    st.pc = ft;
                }
                (None, Some(tk)) => {
                    // Unconditional jump. Backward jumps close loops
                    // (e.g. the delay-list walk ends in `j scan`) and
                    // consume that loop's iteration budget; once
                    // exhausted the path is infeasible.
                    if tk <= st.pc {
                        let bound = self.bounds.bound_for(self.cfg.label_at(tk));
                        let count = st.backedges.entry(st.pc).or_insert(0);
                        if *count >= bound {
                            return;
                        }
                        *count += 1;
                    }
                    st.cycles += self.instr_cost(&instr, true);
                    st.pc = tk;
                }
                (Some(ft), None) => {
                    st.cycles += self.instr_cost(&instr, false);
                    st.pc = ft;
                }
                (None, None) => return, // ebreak/ecall: dead end
            }
        }
    }
}

/// Analyses the ISR of `preset` under the paper's WCET scenario (timer
/// tick, 8 delayed tasks, 8 priority levels) on the CV32E40P timing
/// model.
///
/// # Panics
///
/// Panics if the kernel fails to build (suite bug) or exploration
/// exceeds its step budget.
pub fn analyze_preset(preset: Preset) -> WcetReport {
    // A representative image: the ISR's code does not depend on the task
    // set, only on the preset. Include an external semaphore so the
    // external-interrupt path exists.
    let mut k = KernelBuilder::new(preset);
    k.semaphore("ev", 0);
    k.ext_irq_gives("ev");
    k.task("t0", 5, |t| t.yield_now());
    k.task("t1", 5, |t| t.yield_now());
    let image = k.build().expect("kernel builds");
    let cfg = Cfg::from_program(&image.program, "isr");
    let bounds = LoopBounds::paper_defaults();
    let timing = TimingParams::cv32e40p();
    let mut ex = Explorer {
        cfg: &cfg,
        bounds: &bounds,
        timing,
        unit: RtosUnitConfig::from_preset(preset),
        best: 0,
        best_sw: 0,
        best_stall: 0,
        paths: 0,
        steps: 0,
    };
    let entry = PathState {
        pc: cfg.entry,
        cycles: TRIGGER_SLACK + u64::from(timing.irq_entry_latency),
        mem_ops: 0,
        stalls: 0,
        t_announce: None,
        backedges: HashMap::new(),
    };
    ex.explore(entry);
    WcetReport {
        preset,
        software_cycles: ex.best_sw,
        fsm_stall_cycles: ex.best_stall,
        total_cycles: ex.best,
        paths: ex.paths,
    }
}

/// The §6.2 table: WCET per configuration on CV32E40P.
pub fn wcet_table() -> Vec<WcetReport> {
    Preset::LATENCY_SET
        .iter()
        .map(|p| analyze_preset(*p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcet_orderings_match_the_paper() {
        let vanilla = analyze_preset(Preset::Vanilla).total_cycles;
        let sl = analyze_preset(Preset::Sl).total_cycles;
        let t = analyze_preset(Preset::T).total_cycles;
        let slt = analyze_preset(Preset::Slt).total_cycles;
        // §6.2: vanilla 1649 > SL 1442 > T 202 > SLT 70.
        assert!(sl < vanilla, "SL ({sl}) must be below vanilla ({vanilla})");
        assert!(t < sl, "T ({t}) must be far below SL ({sl})");
        assert!(slt < t, "SLT ({slt}) must be the smallest ({t})");
        assert!(
            slt < 110,
            "SLT WCET must be close to the 62-cycle FSM bound, got {slt}"
        );
    }

    #[test]
    fn wcet_upper_bounds_measured_latency() {
        // The static bound must dominate every measured switch.
        use rtosbench::{CampaignSpec, WORKLOADS};
        use rvsim_cores::CoreKind;
        let presets = [Preset::Vanilla, Preset::T, Preset::Slt];
        let campaign =
            CampaignSpec::matrix("wcet_bound", &[CoreKind::Cv32e40p], &presets, &WORKLOADS).run(2);
        assert_eq!(campaign.outcomes.len(), presets.len() * WORKLOADS.len());
        for o in &campaign.outcomes {
            let bound = analyze_preset(o.preset).total_cycles;
            let max = o.stats().map_or(0, |s| s.max);
            assert!(
                max <= bound,
                "{}: measured {max} exceeds WCET bound {bound}",
                o.label
            );
        }
    }

    #[test]
    fn exploration_terminates_with_reasonable_path_counts() {
        let r = analyze_preset(Preset::Vanilla);
        assert!(r.paths > 0);
        assert!(r.total_cycles > 100);
    }
}
