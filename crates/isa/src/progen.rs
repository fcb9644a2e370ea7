//! Constrained random program generation for differential fuzzing.
//!
//! The lockstep harness (`rvsim-check`) runs the three timing engines
//! against the golden architectural executor on randomized instruction
//! streams. Fully random words would mostly be undecodable or would wander
//! outside memory, so generation works at the level of [`GenOp`] items —
//! one small, always-valid instruction template each — under a register
//! discipline that keeps every load, store and indirect jump inside known
//! windows:
//!
//! * `tp` and `gp` are pinned to the data window (never written by
//!   generated code), so memory accesses alias heavily inside a small
//!   region but can never leave it;
//! * `s10` is pinned to a landing pad inside the program, so `jalr` targets
//!   stay in text (optionally misaligned by 2 to exercise the
//!   instruction-address-misaligned trap);
//! * branch and jump targets are *item indices*, resolved to labels at
//!   emission — deleting items (shrinking) keeps every target valid by
//!   clamping to the final `ebreak`.
//!
//! A fixed trap handler is emitted with every program: interrupts `mret`
//! straight back; exceptions (misaligned accesses) skip the faulting
//! instruction and realign the PC. CSR coverage deliberately excludes
//! `mcycle` (its value is timing-dependent, which a *timing-diverse*
//! differential harness cannot check) and writes to `mepc`/`mtvec` (wild
//! values would leave text; reads are generated).

use crate::csr;
use crate::instr::{AluOp, BranchOp, CsrOp, Instr, LoadOp, MulDivOp, StoreOp};
use crate::rng::Rng64;
use crate::{Asm, AsmError, CustomOp, Program, Reg};

/// Registers generated code never writes (the discipline above).
pub const PINNED_REGS: [Reg; 3] = [Reg::Tp, Reg::Gp, Reg::S10];

/// CSRs random read-modify-writes may target. `mip`/`mcycle` ignore writes
/// by specification, which is exactly the behaviour worth covering.
const WRITE_CSRS: [u16; 6] = [
    csr::MSCRATCH,
    csr::MCAUSE,
    csr::MIE,
    csr::MSTATUS,
    csr::MIP,
    csr::MCYCLE,
];

/// CSRs plain reads may target (everything modelled except `mcycle`).
const READ_CSRS: [u16; 7] = [
    csr::MSCRATCH,
    csr::MCAUSE,
    csr::MIE,
    csr::MSTATUS,
    csr::MIP,
    csr::MEPC,
    csr::MTVEC,
];

/// Edge-case constants seeded into registers so mul/div/compare operations
/// hit their corner operands far more often than uniform values would.
const EDGE_VALUES: [u32; 8] = [
    0,
    1,
    0xFFFF_FFFF,
    0x8000_0000,
    0x7FFF_FFFF,
    2,
    0x0000_FFFF,
    0xAAAA_5555,
];

const ALU_REG_OPS: [AluOp; 10] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
];

/// No `Sub` here: RV32 has no `subi`.
const ALU_IMM_OPS: [AluOp; 9] = [
    AluOp::Add,
    AluOp::Sll,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Xor,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Or,
    AluOp::And,
];

const MULDIV_OPS: [MulDivOp; 8] = [
    MulDivOp::Mul,
    MulDivOp::Mulh,
    MulDivOp::Mulhsu,
    MulDivOp::Mulhu,
    MulDivOp::Div,
    MulDivOp::Divu,
    MulDivOp::Rem,
    MulDivOp::Remu,
];

const BRANCH_OPS: [BranchOp; 6] = [
    BranchOp::Eq,
    BranchOp::Ne,
    BranchOp::Lt,
    BranchOp::Ge,
    BranchOp::Ltu,
    BranchOp::Geu,
];

const LOAD_OPS: [LoadOp; 5] = [LoadOp::Lb, LoadOp::Lbu, LoadOp::Lh, LoadOp::Lhu, LoadOp::Lw];
const STORE_OPS: [StoreOp; 3] = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw];
const CSR_OPS: [CsrOp; 6] = [
    CsrOp::Rw,
    CsrOp::Rs,
    CsrOp::Rc,
    CsrOp::Rwi,
    CsrOp::Rsi,
    CsrOp::Rci,
];

/// Generation parameters. The defaults match the lockstep harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenConfig {
    /// Program base (and reset PC).
    pub base: u32,
    /// Base of the data window `tp`/`gp` index into.
    pub data_base: u32,
    /// Data-window length in bytes (≤ 4096 keeps every offset encodable).
    pub data_len: u32,
    /// Number of generated body items.
    pub len: usize,
    /// Include the RTOSUnit custom instructions.
    pub custom_ops: bool,
    /// Generate misaligned loads/stores/jump targets (trap coverage).
    pub misaligned: bool,
    /// Allow `wfi` (the driver must be prepared to unpark the core).
    pub allow_wfi: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            base: 0,
            data_base: 0x2000_0000,
            data_len: 4096,
            len: 256,
            custom_ops: true,
            misaligned: true,
            allow_wfi: true,
        }
    }
}

/// One always-valid instruction template. Branch/jump targets are item
/// indices into the surrounding [`ProgramSpec`]; indices past the end
/// resolve to the final `ebreak`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    /// `li rd, value` (1–2 instructions).
    LoadImm { rd: Reg, value: u32 },
    /// Register-register ALU operation.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Register-immediate ALU operation (shift amounts masked at emit).
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// M-extension operation.
    MulDiv {
        op: MulDivOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Load through a pinned data-window base register.
    Load {
        op: LoadOp,
        rd: Reg,
        gp_base: bool,
        off: i32,
    },
    /// Store through a pinned data-window base register.
    Store {
        op: StoreOp,
        rs2: Reg,
        gp_base: bool,
        off: i32,
    },
    /// Conditional branch to item `target`.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        target: u32,
    },
    /// `jal rd, item(target)`.
    Jal { rd: Reg, target: u32 },
    /// `jalr rd, s10, off` — lands `delta` items from the landing pad;
    /// `misalign` adds 2 to exercise the fetch-misaligned trap.
    Jalr { rd: Reg, delta: i32, misalign: bool },
    /// CSR read-modify-write on a [`WRITE_CSRS`] target.
    Csr {
        op: CsrOp,
        csr: u16,
        rd: Reg,
        src: u8,
    },
    /// Plain CSR read (`csrrs rd, csr, x0`).
    CsrRead { csr: u16, rd: Reg },
    /// RTOSUnit custom instruction (operand values taken from registers;
    /// the harness coprocessor masks them into range).
    Custom {
        op: CustomOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `fence`.
    Fence,
    /// `wfi`.
    Wfi,
    /// Controlled trap return: `la t6, item(target); csrw mepc, t6; mret`.
    /// Returns with stale `mepc` are covered by the handler's own `mret`s;
    /// an uncontrolled one here could land mid-preamble and corrupt
    /// `mtvec` through the clobbered `t0`.
    Mret { target: u32 },
    /// `ecall` (halts the simulation early).
    Ecall,
}

/// A generated program: the config it was generated under plus its items.
/// `emit` assembles it; items may be freely deleted (delta-debugging) and
/// the result re-emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramSpec {
    /// Generation parameters (memory windows, base).
    pub cfg: GenConfig,
    /// The body items.
    pub ops: Vec<GenOp>,
}

fn pick_rd(rng: &mut Rng64) -> Reg {
    // x0 as destination is legal and worth covering, but rarely.
    loop {
        let r = *rng.pick(&Reg::ALL);
        if r == Reg::Zero && !rng.chance(10) {
            continue;
        }
        if !PINNED_REGS.contains(&r) {
            return r;
        }
    }
}

fn pick_rs(rng: &mut Rng64) -> Reg {
    // Sources may be anything, including the pinned registers and x0.
    *rng.pick(&Reg::ALL)
}

fn gen_mem_off(rng: &mut Rng64, cfg: &GenConfig, gp_base: bool, align: u32, misalign: bool) -> i32 {
    let half = (cfg.data_len / 2) as i64;
    // Bias half the accesses into the first 64 bytes of the window so
    // loads and stores alias each other often.
    let span = if rng.chance(50) { 64 } else { half };
    let raw = if gp_base {
        rng.below(2 * span as u64) as i64 - span
    } else {
        rng.below(span as u64) as i64
    };
    let mut off = (raw / align as i64) * align as i64;
    if misalign && align > 1 {
        // Any non-multiple of `align` is misaligned; +1 suffices.
        off += 1;
    }
    off as i32
}

fn gen_op(rng: &mut Rng64, cfg: &GenConfig, idx: usize) -> GenOp {
    let roll = rng.below(1000);
    let fwd = |rng: &mut Rng64| {
        let lo = idx as u32 + 1;
        lo + rng.below(16) as u32
    };
    let any_target = |rng: &mut Rng64| {
        if rng.chance(25) && idx > 0 {
            // Backward target: possible loops, bounded by the run budget.
            (idx as u32).saturating_sub(rng.below(8) as u32)
        } else {
            fwd(rng)
        }
    };
    match roll {
        0..=79 => GenOp::LoadImm {
            rd: pick_rd(rng),
            value: if rng.chance(60) {
                *rng.pick(&EDGE_VALUES)
            } else {
                rng.next_u32()
            },
        },
        80..=329 => GenOp::AluImm {
            op: *rng.pick(&ALU_IMM_OPS),
            rd: pick_rd(rng),
            rs1: pick_rs(rng),
            imm: rng.below(4096) as i32 - 2048,
        },
        330..=489 => GenOp::Alu {
            op: *rng.pick(&ALU_REG_OPS),
            rd: pick_rd(rng),
            rs1: pick_rs(rng),
            rs2: pick_rs(rng),
        },
        490..=569 => GenOp::MulDiv {
            op: *rng.pick(&MULDIV_OPS),
            rd: pick_rd(rng),
            rs1: pick_rs(rng),
            rs2: pick_rs(rng),
        },
        570..=669 => {
            let op = *rng.pick(&LOAD_OPS);
            let align = match op {
                LoadOp::Lb | LoadOp::Lbu => 1,
                LoadOp::Lh | LoadOp::Lhu => 2,
                LoadOp::Lw => 4,
            };
            let gp_base = rng.chance(50);
            let mis = cfg.misaligned && align > 1 && rng.chance(4);
            GenOp::Load {
                op,
                rd: pick_rd(rng),
                gp_base,
                off: gen_mem_off(rng, cfg, gp_base, align, mis),
            }
        }
        670..=769 => {
            let op = *rng.pick(&STORE_OPS);
            let align = match op {
                StoreOp::Sb => 1,
                StoreOp::Sh => 2,
                StoreOp::Sw => 4,
            };
            let gp_base = rng.chance(50);
            let mis = cfg.misaligned && align > 1 && rng.chance(4);
            GenOp::Store {
                op,
                rs2: pick_rs(rng),
                gp_base,
                off: gen_mem_off(rng, cfg, gp_base, align, mis),
            }
        }
        770..=829 => GenOp::Branch {
            op: *rng.pick(&BRANCH_OPS),
            rs1: pick_rs(rng),
            rs2: pick_rs(rng),
            target: any_target(rng),
        },
        830..=859 => GenOp::Jal {
            rd: pick_rd(rng),
            target: fwd(rng),
        },
        860..=879 => GenOp::Jalr {
            rd: pick_rd(rng),
            delta: rng.below(17) as i32 - 8,
            misalign: cfg.misaligned && rng.chance(10),
        },
        880..=929 => GenOp::Csr {
            op: *rng.pick(&CSR_OPS),
            csr: *rng.pick(&WRITE_CSRS),
            rd: pick_rd(rng),
            src: if rng.chance(50) {
                // Register sources and 5-bit immediates share the field.
                pick_rs(rng).number()
            } else {
                rng.below(32) as u8
            },
        },
        930..=949 => GenOp::CsrRead {
            csr: *rng.pick(&READ_CSRS),
            rd: pick_rd(rng),
        },
        950..=989 => {
            if cfg.custom_ops {
                GenOp::Custom {
                    op: *rng.pick(&CustomOp::ALL),
                    rd: pick_rd(rng),
                    rs1: pick_rs(rng),
                    rs2: pick_rs(rng),
                }
            } else {
                GenOp::Alu {
                    op: *rng.pick(&ALU_REG_OPS),
                    rd: pick_rd(rng),
                    rs1: pick_rs(rng),
                    rs2: pick_rs(rng),
                }
            }
        }
        990..=992 => GenOp::Fence,
        993..=995 => {
            if cfg.allow_wfi {
                GenOp::Wfi
            } else {
                GenOp::Fence
            }
        }
        996..=998 => GenOp::Mret {
            target: any_target(rng),
        },
        _ => GenOp::Ecall,
    }
}

/// Generates a program spec. Equal `(seed, cfg)` pairs generate equal
/// specs forever — replay artifacts rely on this.
pub fn generate(seed: u64, cfg: GenConfig) -> ProgramSpec {
    let mut rng = Rng64::new(seed);
    let ops = (0..cfg.len).map(|i| gen_op(&mut rng, &cfg, i)).collect();
    ProgramSpec { cfg, ops }
}

impl ProgramSpec {
    fn label(i: usize) -> String {
        format!("b_{i}")
    }

    /// The landing-pad item index `jalr` offsets are relative to.
    pub fn landing_index(&self) -> usize {
        self.ops.len() / 2
    }

    /// Assembles the spec: fixed preamble (pinned registers, trap vector,
    /// interrupt enables), the body items, and a terminating `ebreak`.
    ///
    /// # Panics
    ///
    /// Panics if assembly fails — generated specs assemble by
    /// construction, so a failure is a generator bug.
    pub fn emit(&self) -> Program {
        self.assemble().expect("generated program assembles")
    }

    fn assemble(&self) -> Result<Program, AsmError> {
        let n = self.ops.len();
        let landing = self.landing_index();
        let mut a = Asm::new(self.cfg.base);

        // ---- preamble -------------------------------------------------
        a.li(Reg::Tp, self.cfg.data_base as i32);
        a.li(Reg::Gp, (self.cfg.data_base + self.cfg.data_len / 2) as i32);
        a.la(Reg::S10, &Self::label(landing));
        a.la(Reg::T0, "handler");
        a.csrw(csr::MTVEC, Reg::T0);
        a.li(
            Reg::T0,
            (csr::MIP_MSIP | csr::MIP_MTIP | csr::MIP_MEIP) as i32,
        );
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.j(&Self::label(0));

        // ---- trap handler --------------------------------------------
        // Interrupts resume where they hit; exceptions (misaligned
        // accesses/fetches) skip the faulting instruction and realign.
        a.label("handler");
        a.csrr(Reg::T6, csr::MCAUSE);
        a.blt(Reg::T6, Reg::Zero, "handler_irq");
        a.csrr(Reg::T6, csr::MEPC);
        a.addi(Reg::T6, Reg::T6, 4);
        a.andi(Reg::T6, Reg::T6, -4);
        a.csrw(csr::MEPC, Reg::T6);
        a.label("handler_irq");
        // Leave `t6` holding an in-text address: a trap may interrupt a
        // controlled-mret sequence between its `la t6` and `csrw mepc, t6`,
        // and `t6 = mcause` there would send the resumed `mret` wild.
        a.csrr(Reg::T6, csr::MEPC);
        a.mret();

        // ---- body -----------------------------------------------------
        for (i, op) in self.ops.iter().enumerate() {
            a.label(&Self::label(i));
            self.emit_op(&mut a, *op, n, landing);
        }
        a.label(&Self::label(n));
        // Targets past the end (shrunken specs) all resolve here.
        for i in n + 1..n + 24 {
            a.label(&Self::label(i));
        }
        a.ebreak();
        a.finish()
    }

    /// [`emit`](Self::emit) for a spec from outside the generator (a
    /// replay artifact). `None` unless the spec keeps the discipline the
    /// generator guarantees — no item writes a pinned register, CSR
    /// writes go only to [`WRITE_CSRS`], every load or store that is
    /// aligned (and so really accesses memory) stays inside the data
    /// window, every offset fits its 12-bit immediate — and the program
    /// assembles.
    pub fn try_emit(&self) -> Option<Program> {
        let cfg = &self.cfg;
        let gp = cfg.data_base.checked_add(cfg.data_len / 2)?;
        cfg.data_base.checked_add(cfg.data_len)?;
        let imm12 = |off: i32| (-2048..2048).contains(&off);
        // A data access at `base + off` of `width` bytes.
        let in_window = |gp_base: bool, off: i32, width: u32| {
            let addr = (if gp_base { gp } else { cfg.data_base }).wrapping_add(off as u32);
            imm12(off)
                && (!addr.is_multiple_of(width)
                    || addr.checked_sub(cfg.data_base).is_some_and(|at| {
                        u64::from(at) + u64::from(width) <= u64::from(cfg.data_len)
                    }))
        };
        let landing = self.landing_index();
        let ok = |op: &GenOp| match *op {
            GenOp::LoadImm { rd, .. }
            | GenOp::Alu { rd, .. }
            | GenOp::AluImm { rd, .. }
            | GenOp::MulDiv { rd, .. }
            | GenOp::Jal { rd, .. }
            | GenOp::CsrRead { rd, .. }
            | GenOp::Custom { rd, .. } => !PINNED_REGS.contains(&rd),
            GenOp::Load {
                op,
                rd,
                gp_base,
                off,
            } => {
                let width = match op {
                    LoadOp::Lb | LoadOp::Lbu => 1,
                    LoadOp::Lh | LoadOp::Lhu => 2,
                    LoadOp::Lw => 4,
                };
                !PINNED_REGS.contains(&rd) && in_window(gp_base, off, width)
            }
            GenOp::Store {
                op, gp_base, off, ..
            } => {
                let width = match op {
                    StoreOp::Sb => 1,
                    StoreOp::Sh => 2,
                    StoreOp::Sw => 4,
                };
                in_window(gp_base, off, width)
            }
            GenOp::Jalr {
                rd,
                delta,
                misalign,
            } => !PINNED_REGS.contains(&rd) && imm12(self.jalr_offset(delta, misalign, landing)),
            GenOp::Csr { csr, rd, .. } => WRITE_CSRS.contains(&csr) && !PINNED_REGS.contains(&rd),
            GenOp::Branch { .. }
            | GenOp::Fence
            | GenOp::Wfi
            | GenOp::Mret { .. }
            | GenOp::Ecall => true,
        };
        if !self.ops.iter().all(ok) {
            return None;
        }
        self.assemble().ok()
    }

    fn emit_op(&self, a: &mut Asm, op: GenOp, n: usize, landing: usize) {
        let clamp = |t: u32| Self::label((t as usize).min(n));
        match op {
            GenOp::LoadImm { rd, value } => a.li(rd, value as i32),
            GenOp::Alu { op, rd, rs1, rs2 } => a.emit(Instr::Op { op, rd, rs1, rs2 }),
            GenOp::AluImm { op, rd, rs1, imm } => {
                let imm = match op {
                    AluOp::Sll | AluOp::Srl | AluOp::Sra => imm & 0x1f,
                    _ => imm,
                };
                a.emit(Instr::OpImm { op, rd, rs1, imm });
            }
            GenOp::MulDiv { op, rd, rs1, rs2 } => a.emit(Instr::MulDiv { op, rd, rs1, rs2 }),
            GenOp::Load {
                op,
                rd,
                gp_base,
                off,
            } => {
                let rs1 = if gp_base { Reg::Gp } else { Reg::Tp };
                a.emit(Instr::Load {
                    op,
                    rd,
                    rs1,
                    offset: off,
                });
            }
            GenOp::Store {
                op,
                rs2,
                gp_base,
                off,
            } => {
                let rs1 = if gp_base { Reg::Gp } else { Reg::Tp };
                a.emit(Instr::Store {
                    op,
                    rs1,
                    rs2,
                    offset: off,
                });
            }
            GenOp::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                let label = clamp(target);
                match op {
                    BranchOp::Eq => a.beq(rs1, rs2, &label),
                    BranchOp::Ne => a.bne(rs1, rs2, &label),
                    BranchOp::Lt => a.blt(rs1, rs2, &label),
                    BranchOp::Ge => a.bge(rs1, rs2, &label),
                    BranchOp::Ltu => a.bltu(rs1, rs2, &label),
                    BranchOp::Geu => a.bgeu(rs1, rs2, &label),
                }
            }
            GenOp::Jal { rd, target } => a.jal(rd, &clamp(target)),
            GenOp::Jalr {
                rd,
                delta,
                misalign,
            } => a.jalr(rd, Reg::S10, self.jalr_offset(delta, misalign, landing)),
            GenOp::Csr { op, csr, rd, src } => {
                // `mcycle` writes are architecturally ignored (the coverage
                // we want), but a read of it observes live timing state —
                // discard the old value so programs stay timing-independent.
                let rd = if csr == csr::MCYCLE { Reg::Zero } else { rd };
                a.emit(Instr::Csr { op, rd, csr, src })
            }
            GenOp::CsrRead { csr, rd } => a.csrr(rd, csr),
            GenOp::Custom { op, rd, rs1, rs2 } => a.emit(Instr::Custom { op, rd, rs1, rs2 }),
            GenOp::Fence => a.emit(Instr::Fence),
            GenOp::Wfi => a.wfi(),
            GenOp::Mret { target } => {
                a.la(Reg::T6, &clamp(target));
                a.csrw(csr::MEPC, Reg::T6);
                a.mret();
            }
            GenOp::Ecall => a.ecall(),
        }
    }

    /// The `s10`-relative byte offset a `jalr` item jumps to.
    fn jalr_offset(&self, delta: i32, misalign: bool, landing: usize) -> i32 {
        // `s10` holds the landing-pad address; the offset is a small word
        // delta clamped so the target stays inside the body (any word
        // there decodes — mid-`li` is fine). +2 exercises the
        // fetch-misaligned trap; the handler resumes at the next aligned
        // word, so the cap leaves room for it.
        let before: i32 = self.ops[..landing].iter().map(Self::op_words).sum();
        let after: i32 = self.ops[landing..].iter().map(Self::op_words).sum::<i32>() + 1;
        let mut off = delta
            .saturating_mul(4)
            .clamp(-(before * 4), (after - 1) * 4);
        if misalign && off + 4 <= (after - 1) * 4 {
            off += 2;
        }
        // The first word that executes — the target, or the handler's
        // realigned resume word — must not skip the `la` of a controlled
        // `mret`, which would return to a stale `t6`: back up to the
        // item's start.
        let next = off.div_euclid(4) + i32::from(off % 4 != 0);
        off - 4 * self.words_into_mret(landing, next)
    }

    /// How many words body word `word` (counted from the landing pad) lies
    /// past the start of the controlled-`mret` item containing it; 0 for
    /// an item's first word, any other kind of item, or the final `ebreak`.
    fn words_into_mret(&self, landing: usize, word: i32) -> i32 {
        let mut start = -self.ops[..landing].iter().map(Self::op_words).sum::<i32>();
        for op in &self.ops {
            let end = start + Self::op_words(op);
            if (start..end).contains(&word) {
                return if matches!(op, GenOp::Mret { .. }) {
                    word - start
                } else {
                    0
                };
            }
            start = end;
        }
        0
    }

    /// Re-creates a spec from decoded artifact fields.
    pub fn from_parts(cfg: GenConfig, ops: Vec<GenOp>) -> ProgramSpec {
        ProgramSpec { cfg, ops }
    }

    /// Emitted size of one item in words. Mirrors `Asm::li` exactly: one
    /// word for small immediates or when the low 12 bits come out zero,
    /// two otherwise; every other item is a single instruction.
    fn op_words(op: &GenOp) -> i32 {
        match op {
            GenOp::LoadImm { value, .. } => {
                if (-2048..=2047).contains(&(*value as i32)) {
                    1
                } else {
                    let hi = value.wrapping_add(0x800) & 0xffff_f000;
                    if value.wrapping_sub(hi) == 0 {
                        1
                    } else {
                        2
                    }
                }
            }
            GenOp::Mret { .. } => 4,
            _ => 1,
        }
    }
}

fn pos<T: PartialEq>(arr: &[T], x: &T) -> i64 {
    arr.iter().position(|e| e == x).expect("op in table") as i64
}

fn at<T: Copy>(arr: &[T], i: i64) -> Option<T> {
    usize::try_from(i).ok().and_then(|i| arr.get(i)).copied()
}

fn reg(i: i64) -> Option<Reg> {
    at(&Reg::ALL, i)
}

impl GenOp {
    /// Encodes the op as a flat numeric record (tag first) for replay
    /// artifacts. [`GenOp::decode_fields`] is the exact inverse.
    pub fn encode_fields(&self) -> Vec<i64> {
        let r = |x: Reg| i64::from(x.number());
        match *self {
            GenOp::LoadImm { rd, value } => vec![0, r(rd), i64::from(value)],
            GenOp::Alu { op, rd, rs1, rs2 } => {
                vec![1, pos(&ALU_REG_OPS, &op), r(rd), r(rs1), r(rs2)]
            }
            GenOp::AluImm { op, rd, rs1, imm } => {
                vec![2, pos(&ALU_IMM_OPS, &op), r(rd), r(rs1), i64::from(imm)]
            }
            GenOp::MulDiv { op, rd, rs1, rs2 } => {
                vec![3, pos(&MULDIV_OPS, &op), r(rd), r(rs1), r(rs2)]
            }
            GenOp::Load {
                op,
                rd,
                gp_base,
                off,
            } => {
                vec![
                    4,
                    pos(&LOAD_OPS, &op),
                    r(rd),
                    i64::from(gp_base),
                    i64::from(off),
                ]
            }
            GenOp::Store {
                op,
                rs2,
                gp_base,
                off,
            } => vec![
                5,
                pos(&STORE_OPS, &op),
                r(rs2),
                i64::from(gp_base),
                i64::from(off),
            ],
            GenOp::Branch {
                op,
                rs1,
                rs2,
                target,
            } => vec![6, pos(&BRANCH_OPS, &op), r(rs1), r(rs2), i64::from(target)],
            GenOp::Jal { rd, target } => vec![7, r(rd), i64::from(target)],
            GenOp::Jalr {
                rd,
                delta,
                misalign,
            } => vec![8, r(rd), i64::from(delta), i64::from(misalign)],
            GenOp::Csr { op, csr, rd, src } => {
                vec![9, pos(&CSR_OPS, &op), i64::from(csr), r(rd), i64::from(src)]
            }
            GenOp::CsrRead { csr, rd } => vec![10, i64::from(csr), r(rd)],
            GenOp::Custom { op, rd, rs1, rs2 } => {
                vec![11, pos(&CustomOp::ALL, &op), r(rd), r(rs1), r(rs2)]
            }
            GenOp::Fence => vec![12],
            GenOp::Wfi => vec![13],
            GenOp::Mret { target } => vec![14, i64::from(target)],
            GenOp::Ecall => vec![15],
        }
    }

    /// Decodes a record produced by [`GenOp::encode_fields`]. Returns
    /// `None` for malformed records (wrong arity, out-of-range indices).
    pub fn decode_fields(fields: &[i64]) -> Option<GenOp> {
        let csr16 = |v: i64| u16::try_from(v).ok();
        Some(match fields {
            [0, rd, value] => GenOp::LoadImm {
                rd: reg(*rd)?,
                value: u32::try_from(*value).ok()?,
            },
            [1, op, rd, rs1, rs2] => GenOp::Alu {
                op: at(&ALU_REG_OPS, *op)?,
                rd: reg(*rd)?,
                rs1: reg(*rs1)?,
                rs2: reg(*rs2)?,
            },
            [2, op, rd, rs1, imm] => GenOp::AluImm {
                op: at(&ALU_IMM_OPS, *op)?,
                rd: reg(*rd)?,
                rs1: reg(*rs1)?,
                imm: i32::try_from(*imm).ok()?,
            },
            [3, op, rd, rs1, rs2] => GenOp::MulDiv {
                op: at(&MULDIV_OPS, *op)?,
                rd: reg(*rd)?,
                rs1: reg(*rs1)?,
                rs2: reg(*rs2)?,
            },
            [4, op, rd, gp, off] => GenOp::Load {
                op: at(&LOAD_OPS, *op)?,
                rd: reg(*rd)?,
                gp_base: *gp != 0,
                off: i32::try_from(*off).ok()?,
            },
            [5, op, rs2, gp, off] => GenOp::Store {
                op: at(&STORE_OPS, *op)?,
                rs2: reg(*rs2)?,
                gp_base: *gp != 0,
                off: i32::try_from(*off).ok()?,
            },
            [6, op, rs1, rs2, target] => GenOp::Branch {
                op: at(&BRANCH_OPS, *op)?,
                rs1: reg(*rs1)?,
                rs2: reg(*rs2)?,
                target: u32::try_from(*target).ok()?,
            },
            [7, rd, target] => GenOp::Jal {
                rd: reg(*rd)?,
                target: u32::try_from(*target).ok()?,
            },
            [8, rd, delta, mis] => GenOp::Jalr {
                rd: reg(*rd)?,
                delta: i32::try_from(*delta).ok()?,
                misalign: *mis != 0,
            },
            [9, op, csr, rd, src] => GenOp::Csr {
                op: at(&CSR_OPS, *op)?,
                csr: csr16(*csr)?,
                rd: reg(*rd)?,
                src: u8::try_from(*src).ok()?,
            },
            [10, csr, rd] => GenOp::CsrRead {
                csr: csr16(*csr)?,
                rd: reg(*rd)?,
            },
            [11, op, rd, rs1, rs2] => GenOp::Custom {
                op: at(&CustomOp::ALL, *op)?,
                rd: reg(*rd)?,
                rs1: reg(*rs1)?,
                rs2: reg(*rs2)?,
            },
            [12] => GenOp::Fence,
            [13] => GenOp::Wfi,
            [14, target] => GenOp::Mret {
                target: u32::try_from(*target).ok()?,
            },
            [15] => GenOp::Ecall,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(1234, cfg);
        let b = generate(1234, cfg);
        assert_eq!(a, b);
        let c = generate(1235, cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_programs_assemble_and_decode() {
        for seed in 0..50 {
            let spec = generate(seed, GenConfig::default());
            let prog = spec.emit();
            assert!(prog.words.len() > spec.ops.len());
            for (i, w) in prog.words.iter().enumerate() {
                decode(*w).unwrap_or_else(|e| {
                    panic!("seed {seed}, word {i} undecodable: {e}");
                });
            }
        }
    }

    #[test]
    fn jalr_never_lands_inside_a_controlled_mret() {
        // Decodes every emitted `jalr s10` and checks the first word it
        // executes — the target, or the realigned word the trap handler
        // resumes at after a misaligned target — against the words of
        // every controlled-mret item that follow its `la t6`.
        for seed in 0..10_000 {
            let spec = generate(seed, GenConfig::default());
            let prog = spec.emit();
            let body = prog.symbols.addr(&ProgramSpec::label(0));
            let pad = prog.symbols.addr(&ProgramSpec::label(spec.landing_index()));
            let addr = |i: usize| prog.base + 4 * i as u32;
            let instrs: Vec<Instr> = prog
                .words
                .iter()
                .map(|w| decode(*w).expect("decodes"))
                .collect();
            let inside_mret: Vec<u32> = (0..instrs.len())
                .filter(|&i| instrs[i] == Instr::Mret && addr(i) >= body)
                .flat_map(|i| [addr(i) - 8, addr(i) - 4, addr(i)])
                .collect();
            for (i, instr) in instrs.iter().enumerate() {
                let Instr::Jalr {
                    rs1: Reg::S10,
                    offset,
                    ..
                } = *instr
                else {
                    continue;
                };
                let target = pad.wrapping_add_signed(offset);
                let next = (target + 3) & !3;
                assert!(
                    next < prog.end() && !inside_mret.contains(&next),
                    "seed {seed}: jalr at {:#x} runs {next:#x} next",
                    addr(i)
                );
            }
        }
    }

    #[test]
    fn shrunken_specs_still_emit() {
        let mut spec = generate(77, GenConfig::default());
        while spec.ops.len() > 1 {
            let keep = spec.ops.len() / 2;
            spec.ops.truncate(keep);
            let prog = spec.emit();
            for w in &prog.words {
                decode(*w).expect("decodable after shrink");
            }
        }
    }

    #[test]
    fn aligned_accesses_stay_in_window() {
        let cfg = GenConfig {
            misaligned: false,
            ..GenConfig::default()
        };
        for seed in 0..20 {
            let spec = generate(seed, cfg);
            for op in &spec.ops {
                let (gp, off, align) = match *op {
                    GenOp::Load {
                        op, gp_base, off, ..
                    } => (
                        gp_base,
                        off,
                        match op {
                            LoadOp::Lb | LoadOp::Lbu => 1,
                            LoadOp::Lh | LoadOp::Lhu => 2,
                            LoadOp::Lw => 4,
                        },
                    ),
                    GenOp::Store {
                        op, gp_base, off, ..
                    } => (
                        gp_base,
                        off,
                        match op {
                            StoreOp::Sb => 1,
                            StoreOp::Sh => 2,
                            StoreOp::Sw => 4,
                        },
                    ),
                    _ => continue,
                };
                assert_eq!(off % align, 0, "misaligned offset with misaligned=false");
                let base = if gp {
                    cfg.data_base + cfg.data_len / 2
                } else {
                    cfg.data_base
                };
                let addr = base.wrapping_add(off as u32);
                assert!(addr >= cfg.data_base);
                assert!(addr + align as u32 <= cfg.data_base + cfg.data_len);
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for seed in 0..20 {
            let spec = generate(seed, GenConfig::default());
            for op in &spec.ops {
                let fields = op.encode_fields();
                assert_eq!(
                    GenOp::decode_fields(&fields),
                    Some(*op),
                    "round-trip failed for {op:?}"
                );
            }
        }
        assert_eq!(GenOp::decode_fields(&[99, 0]), None);
        assert_eq!(GenOp::decode_fields(&[1, 0, 99, 0, 0]), None);
        assert_eq!(GenOp::decode_fields(&[]), None);
    }

    #[test]
    fn try_emit_accepts_exactly_what_the_generator_keeps() {
        for seed in 0..500 {
            let spec = generate(seed, GenConfig::default());
            assert_eq!(spec.try_emit(), Some(spec.emit()), "seed {seed}");
        }
        let spec = generate(1, GenConfig::default());
        let with_op = |op| {
            let mut ops = spec.ops.clone();
            ops[0] = op;
            ProgramSpec::from_parts(spec.cfg, ops).try_emit()
        };
        assert_eq!(
            with_op(GenOp::AluImm {
                op: AluOp::Add,
                rd: Reg::Gp,
                rs1: Reg::Gp,
                imm: 4
            }),
            None
        );
        let store = |gp_base, off| GenOp::Store {
            op: StoreOp::Sh,
            rs2: Reg::A0,
            gp_base,
            off,
        };
        // The window is `[tp, tp + 4096)` with `gp = tp + 2048`.
        assert!(with_op(store(true, 2046)).is_some());
        assert!(with_op(store(true, 2047)).is_some(), "misaligned: traps");
        assert_eq!(with_op(store(true, 2048)), None);
        assert_eq!(with_op(store(false, -2)), None);
        assert_eq!(
            with_op(GenOp::Csr {
                op: CsrOp::Rs,
                csr: csr::MEPC,
                rd: Reg::A0,
                src: 0
            }),
            None
        );
    }

    #[test]
    fn pinned_registers_are_never_written() {
        for seed in 0..20 {
            let spec = generate(seed, GenConfig::default());
            let prog = spec.emit();
            // Check the emitted instructions after the fixed preamble
            // (which legitimately initialises the pinned registers).
            let body_start = (prog.symbols.addr("b_0") / 4) as usize;
            for w in &prog.words[body_start..] {
                let i = decode(*w).expect("decodable");
                if let Some(rd) = i.rd() {
                    assert!(
                        !PINNED_REGS.contains(&rd),
                        "pinned register {rd:?} written by {i:?}"
                    );
                }
            }
        }
    }
}
