//! Deterministic single-event-upset fault injection.
//!
//! A [`FaultPlan`] is a seeded, replayable list of [`FaultEvent`]s pinned
//! to exact cycles. The system layer (`rtosunit::System`) consumes the
//! plan while it runs: register/CSR/DMEM bit flips, cache-line parity
//! upsets, bus-error responses and interrupt-line faults (spurious /
//! dropped / delayed external IRQs, spurious IPI doorbells). The plan is
//! `None` by default and costs nothing when off; when attached, the
//! quiescence horizon is bounded one cycle short of the next due fault so
//! batched and stepwise execution stay bit-identical.
//!
//! Faults model *silent* hardware upsets: a flipped register bit does not
//! mark the register dirty, a discarded cache line only changes timing,
//! and a poisoned bus response is indistinguishable from a load that
//! returned garbage. Whether anything notices is exactly what the fault
//! campaign (`rvsim-check::faultcamp`) classifies.

use rvsim_isa::rng::Rng64;
use rvsim_isa::Reg;
use rvsim_snapshot::{self as snap, snap_fields, Json, Snap, SnapError};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of an architectural register (active bank), without
    /// marking it dirty — the upset is invisible to save logic.
    RegFlip {
        /// Target register.
        reg: Reg,
        /// Bit index, `0..32`.
        bit: u8,
    },
    /// Flip one bit of a machine-mode CSR (by address).
    CsrFlip {
        /// CSR address (e.g. `csr::MEPC`).
        csr: u16,
        /// Bit index, `0..32`.
        bit: u8,
    },
    /// Flip one bit of a data-memory word.
    MemFlip {
        /// Word-aligned DMEM address.
        addr: u32,
        /// Bit index, `0..32`.
        bit: u8,
    },
    /// Discard the cache line containing `addr` (a detected parity error
    /// forces an eviction): data is unchanged, timing is perturbed.
    CacheUpset {
        /// Any address inside the victim line.
        addr: u32,
    },
    /// Arm a bus-error response: the next data-memory *load* returns the
    /// all-ones poison pattern instead of the stored word.
    BusError,
    /// Raise the external interrupt line although no device asked.
    SpuriousIrq,
    /// Drop the next scheduled external interrupt.
    DropIrq,
    /// Postpone the next scheduled external interrupt.
    DelayIrq {
        /// Extra cycles before the line rises.
        delay: u32,
    },
    /// Ring the inter-processor doorbell (`mip.MSIP`) spuriously.
    SpuriousIpi,
    /// Flip one bit of an instruction-memory word. The write goes through
    /// the engine's coherent IMEM path, so any cached decode and any live
    /// block translation covering the word are invalidated — subsequent
    /// fetches execute the corrupted encoding (or trap on it).
    ///
    /// Not in [`FaultPlan::generate`]'s random table (generated plans are
    /// pinned by regression seeds); construct it explicitly in directed
    /// campaigns and tests.
    ImemFlip {
        /// Word-aligned IMEM address.
        addr: u32,
        /// Bit index, `0..32`.
        bit: u8,
    },
}

impl FaultKind {
    /// Short stable name, used by trace events and replay artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::RegFlip { .. } => "reg_flip",
            FaultKind::CsrFlip { .. } => "csr_flip",
            FaultKind::MemFlip { .. } => "mem_flip",
            FaultKind::CacheUpset { .. } => "cache_upset",
            FaultKind::BusError => "bus_error",
            FaultKind::SpuriousIrq => "spurious_irq",
            FaultKind::DropIrq => "drop_irq",
            FaultKind::DelayIrq { .. } => "delay_irq",
            FaultKind::SpuriousIpi => "spurious_ipi",
            FaultKind::ImemFlip { .. } => "imem_flip",
        }
    }

    /// Dense numeric code for the trace layer (`1..=10`).
    pub fn code(&self) -> u32 {
        match self {
            FaultKind::RegFlip { .. } => 1,
            FaultKind::CsrFlip { .. } => 2,
            FaultKind::MemFlip { .. } => 3,
            FaultKind::CacheUpset { .. } => 4,
            FaultKind::BusError => 5,
            FaultKind::SpuriousIrq => 6,
            FaultKind::DropIrq => 7,
            FaultKind::DelayIrq { .. } => 8,
            FaultKind::SpuriousIpi => 9,
            FaultKind::ImemFlip { .. } => 10,
        }
    }
}

/// The stable name for a trace-layer fault code ([`FaultKind::code`]):
/// the inverse lookup used by trace viewers that only see the numeric
/// code. Codes outside the taxonomy render as `"unknown"`.
pub fn fault_code_name(code: u32) -> &'static str {
    match code {
        1 => "reg_flip",
        2 => "csr_flip",
        3 => "mem_flip",
        4 => "cache_upset",
        5 => "bus_error",
        6 => "spurious_irq",
        7 => "drop_irq",
        8 => "delay_irq",
        9 => "spurious_ipi",
        10 => "imem_flip",
        _ => "unknown",
    }
}

/// One fault pinned to an absolute cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute platform cycle at which the fault strikes.
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Memory regions a generated plan may aim at. Campaigns pass the kernel
/// layout's interesting words (canaries, TCBs, semaphores, globals, live
/// stack frames) so random flips actually land on state that matters.
#[derive(Debug, Clone, Default)]
pub struct FaultTargets {
    /// Word-aligned DMEM addresses worth corrupting.
    pub mem_words: Vec<u32>,
    /// CSR addresses worth corrupting.
    pub csrs: Vec<u16>,
}

/// A seeded, replayable fault schedule (events sorted by cycle; ties keep
/// insertion order). Attach to a `System` before running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// Builds a plan from explicit events (sorted by cycle, stably).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at_cycle);
        FaultPlan { events, cursor: 0 }
    }

    /// Generates `count` faults from `seed`, uniformly spread over
    /// `window` (a half-open cycle range) and aimed at `targets`. The
    /// same `(seed, window, targets)` triple reproduces the same plan.
    pub fn generate(
        seed: u64,
        count: usize,
        window: std::ops::Range<u64>,
        targets: &FaultTargets,
    ) -> FaultPlan {
        let mut rng = Rng64::new(seed ^ 0xFA17_F17E_u64);
        let span = window.end.saturating_sub(window.start).max(1);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let at_cycle = window.start + rng.below(span);
            let kind = loop {
                match rng.below(9) {
                    0 => {
                        // x0 is immutable; flip a real register.
                        let reg = Reg::from_number(1 + rng.below(31) as u8);
                        break FaultKind::RegFlip {
                            reg,
                            bit: rng.below(32) as u8,
                        };
                    }
                    1 if !targets.csrs.is_empty() => {
                        break FaultKind::CsrFlip {
                            csr: *rng.pick(&targets.csrs),
                            bit: rng.below(32) as u8,
                        }
                    }
                    2 if !targets.mem_words.is_empty() => {
                        break FaultKind::MemFlip {
                            addr: *rng.pick(&targets.mem_words),
                            bit: rng.below(32) as u8,
                        }
                    }
                    3 if !targets.mem_words.is_empty() => {
                        break FaultKind::CacheUpset {
                            addr: *rng.pick(&targets.mem_words),
                        }
                    }
                    4 => break FaultKind::BusError,
                    5 => break FaultKind::SpuriousIrq,
                    6 => break FaultKind::DropIrq,
                    7 => {
                        break FaultKind::DelayIrq {
                            delay: 1 + rng.below(64) as u32,
                        }
                    }
                    8 => break FaultKind::SpuriousIpi,
                    _ => continue, // empty target class: reroll
                }
            };
            events.push(FaultEvent { at_cycle, kind });
        }
        FaultPlan::new(events)
    }

    /// The cycle of the next not-yet-applied fault, if any. Batching uses
    /// this to bound the quiescence horizon.
    pub fn next_cycle(&self) -> Option<u64> {
        self.events.get(self.cursor).map(|e| e.at_cycle)
    }

    /// Pops the next fault if it is due at or before `now`.
    pub fn take_due(&mut self, now: u64) -> Option<FaultEvent> {
        let e = *self.events.get(self.cursor)?;
        if e.at_cycle <= now {
            self.cursor += 1;
            Some(e)
        } else {
            None
        }
    }

    /// All events, applied or not, in schedule order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// How many faults have been applied so far.
    pub fn applied(&self) -> usize {
        self.cursor
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Resets the cursor so the plan can drive a fresh run.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }
}

snap_fields! {
    // The schedule and cursor. Already-applied events are kept so a
    // restored plan replays the original exactly (same events, same
    // cursor).
    impl Snap for FaultPlan {
        "cursor" => cursor,
        "events" => events,
        check => snap::ensure(*cursor <= events.len(), || {
            "fault plan: cursor beyond schedule".into()
        }),
    }
}

/// Hand-written: the payload keys depend on the fault kind.
impl Snap for FaultEvent {
    fn encode(&self) -> Json {
        let mut obj = Json::object()
            .with("at_cycle", self.at_cycle)
            .with("kind", self.kind.name());
        match self.kind {
            FaultKind::RegFlip { reg, bit } => {
                obj.push("reg", u64::from(reg.number()));
                obj.push("bit", u64::from(bit));
            }
            FaultKind::CsrFlip { csr, bit } => {
                obj.push("csr", u64::from(csr));
                obj.push("bit", u64::from(bit));
            }
            FaultKind::MemFlip { addr, bit } | FaultKind::ImemFlip { addr, bit } => {
                obj.push("addr", addr);
                obj.push("bit", u64::from(bit));
            }
            FaultKind::CacheUpset { addr } => obj.push("addr", addr),
            FaultKind::DelayIrq { delay } => obj.push("delay", delay),
            FaultKind::BusError
            | FaultKind::SpuriousIrq
            | FaultKind::DropIrq
            | FaultKind::SpuriousIpi => {}
        }
        obj
    }

    fn decode(value: &Json) -> Result<FaultEvent, SnapError> {
        let kind = match snap::get::<String>(value, "kind")?.as_str() {
            "reg_flip" => FaultKind::RegFlip {
                reg: Reg::from_number(snap::get::<u8>(value, "reg")? & 31),
                bit: snap::get(value, "bit")?,
            },
            "csr_flip" => FaultKind::CsrFlip {
                csr: snap::get(value, "csr")?,
                bit: snap::get(value, "bit")?,
            },
            "mem_flip" => FaultKind::MemFlip {
                addr: snap::get(value, "addr")?,
                bit: snap::get(value, "bit")?,
            },
            "imem_flip" => FaultKind::ImemFlip {
                addr: snap::get(value, "addr")?,
                bit: snap::get(value, "bit")?,
            },
            "cache_upset" => FaultKind::CacheUpset {
                addr: snap::get(value, "addr")?,
            },
            "bus_error" => FaultKind::BusError,
            "spurious_irq" => FaultKind::SpuriousIrq,
            "drop_irq" => FaultKind::DropIrq,
            "delay_irq" => FaultKind::DelayIrq {
                delay: snap::get(value, "delay")?,
            },
            "spurious_ipi" => FaultKind::SpuriousIpi,
            other => return Err(SnapError::new(format!("fault: unknown kind `{other}`"))),
        };
        if let FaultKind::RegFlip { bit, .. }
        | FaultKind::CsrFlip { bit, .. }
        | FaultKind::MemFlip { bit, .. }
        | FaultKind::ImemFlip { bit, .. } = kind
        {
            snap::ensure(bit < 32, || format!("fault: bit {bit} outside a word"))?;
        }
        Ok(FaultEvent {
            at_cycle: snap::get(value, "at_cycle")?,
            kind,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_reproducible_and_sorted() {
        let targets = FaultTargets {
            mem_words: vec![0x2000_0000, 0x2000_0040],
            csrs: vec![rvsim_isa::csr::MEPC],
        };
        let a = FaultPlan::generate(7, 50, 100..5000, &targets);
        let b = FaultPlan::generate(7, 50, 100..5000, &targets);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        assert!(a
            .events()
            .windows(2)
            .all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert!(a.events().iter().all(|e| (100..5000).contains(&e.at_cycle)));
        let c = FaultPlan::generate(8, 50, 100..5000, &targets);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn take_due_pops_in_order() {
        let mut p = FaultPlan::new(vec![
            FaultEvent {
                at_cycle: 30,
                kind: FaultKind::BusError,
            },
            FaultEvent {
                at_cycle: 10,
                kind: FaultKind::SpuriousIrq,
            },
        ]);
        assert_eq!(p.next_cycle(), Some(10));
        assert!(p.take_due(5).is_none());
        assert_eq!(p.take_due(10).map(|e| e.kind), Some(FaultKind::SpuriousIrq));
        assert_eq!(p.next_cycle(), Some(30));
        assert_eq!(p.take_due(100).map(|e| e.kind), Some(FaultKind::BusError));
        assert!(p.take_due(1000).is_none());
        assert_eq!(p.applied(), 2);
        p.rewind();
        assert_eq!(p.applied(), 0);
        assert_eq!(p.next_cycle(), Some(10));
    }

    #[test]
    fn imem_flip_has_a_stable_code_but_is_never_generated() {
        let kind = FaultKind::ImemFlip { addr: 0x40, bit: 3 };
        assert_eq!(kind.name(), "imem_flip");
        assert_eq!(kind.code(), 10);
        assert_eq!(fault_code_name(10), "imem_flip");
        // Generated plans are pinned by regression seeds: the random
        // table must not include IMEM flips.
        let targets = FaultTargets {
            mem_words: vec![0x2000_0000],
            csrs: vec![rvsim_isa::csr::MEPC],
        };
        let p = FaultPlan::generate(11, 200, 0..10_000, &targets);
        assert!(p
            .events()
            .iter()
            .all(|e| !matches!(e.kind, FaultKind::ImemFlip { .. })));
    }

    #[test]
    fn empty_target_classes_reroll_without_hanging() {
        let p = FaultPlan::generate(3, 40, 0..1000, &FaultTargets::default());
        assert_eq!(p.len(), 40);
        assert!(p.events().iter().all(|e| !matches!(
            e.kind,
            FaultKind::MemFlip { .. } | FaultKind::CsrFlip { .. }
        )));
    }
}
