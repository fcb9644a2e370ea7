//! Architectural state: the dual register banks, dirty bits and CSRs.

use crate::csrs::Csrs;
use rvsim_isa::Reg;
use rvsim_snapshot::{snap_fields, Rle, Tags};

/// Identifies one of the two register-file banks (paper §4.2: the
/// application bank plus the duplicated ISR bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bank {
    /// The register file used by application tasks.
    App,
    /// The duplicated register file used during ISR execution (only
    /// present when context storing is accelerated).
    Isr,
}

impl Bank {
    fn index(self) -> usize {
        match self {
            Bank::App => 0,
            Bank::Isr => 1,
        }
    }
}

/// Full architectural state of a simulated core.
///
/// Cores without an RTOSUnit simply never switch away from [`Bank::App`].
/// Dirty bits (paper §4.5) are maintained for the application bank: any
/// *core* write sets the bit, restore-FSM writes use
/// [`ArchState::bank_write_clean`] and do not.
#[derive(Debug, Clone)]
pub struct ArchState {
    banks: [[u32; 32]; 2],
    active: Bank,
    dirty: u32,
    /// CSR file (shared between banks; `mstatus`/`mepc` are not banked,
    /// paper §4.2).
    pub csrs: Csrs,
    /// Program counter.
    pub pc: u32,
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState::new(0)
    }
}

impl ArchState {
    /// Creates a state with all registers zero and the PC at `reset_pc`.
    pub fn new(reset_pc: u32) -> ArchState {
        ArchState {
            banks: [[0; 32]; 2],
            active: Bank::App,
            dirty: 0,
            csrs: Csrs::default(),
            pc: reset_pc,
        }
    }

    /// The currently active register bank.
    pub fn active_bank(&self) -> Bank {
        self.active
    }

    /// Switches the active bank (used by the RTOSUnit on interrupt entry,
    /// `SWITCH_RF` and `mret`).
    pub fn set_active_bank(&mut self, bank: Bank) {
        self.active = bank;
    }

    /// Reads a register from the active bank.
    #[inline]
    pub fn read_reg(&self, r: Reg) -> u32 {
        self.banks[self.active.index()][r.number() as usize]
    }

    /// Writes a register in the active bank (writes to `zero` are
    /// discarded). Sets the dirty bit when the active bank is the
    /// application bank.
    #[inline]
    pub fn write_reg(&mut self, r: Reg, value: u32) {
        if r == Reg::Zero {
            return;
        }
        self.banks[self.active.index()][r.number() as usize] = value;
        if self.active == Bank::App {
            self.dirty |= 1 << r.number();
        }
    }

    /// Reads a register from a specific bank (RTOSUnit store FSM path).
    #[inline]
    pub fn bank_read(&self, bank: Bank, r: Reg) -> u32 {
        self.banks[bank.index()][r.number() as usize]
    }

    /// Writes a register in a specific bank *without* setting dirty bits
    /// (RTOSUnit restore/preload path: the written value matches context
    /// memory by construction).
    #[inline]
    pub fn bank_write_clean(&mut self, bank: Bank, r: Reg, value: u32) {
        if r == Reg::Zero {
            return;
        }
        self.banks[bank.index()][r.number() as usize] = value;
    }

    /// Dirty-bit mask of the application bank (bit *n* = `x{n}`).
    pub fn dirty_mask(&self) -> u32 {
        self.dirty
    }

    /// Whether `r` is dirty in the application bank.
    pub fn is_dirty(&self, r: Reg) -> bool {
        self.dirty & (1 << r.number()) != 0
    }

    /// Clears all dirty bits (RTOSUnit does this after ISR completion,
    /// paper §4.5).
    pub fn clear_dirty(&mut self) {
        self.dirty = 0;
    }
}

snap_fields! {
    // Both banks, the active-bank selector, dirty bits, the PC and CSRs.
    impl Snap for ArchState {
        "bank_app" => let app: [u32; 32] = banks[0]; Rle(32),
        "bank_isr" => let isr: [u32; 32] = banks[1]; Rle(32),
        _ => banks = [app, isr],
        "active" => active: Tags(&[("app", Bank::App), ("isr", Bank::Isr)]),
        "dirty" => dirty,
        "pc" => pc,
        "csrs" => csrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_immutable() {
        let mut s = ArchState::new(0);
        s.write_reg(Reg::Zero, 123);
        assert_eq!(s.read_reg(Reg::Zero), 0);
        assert_eq!(s.dirty_mask(), 0);
    }

    #[test]
    fn banks_are_independent() {
        let mut s = ArchState::new(0);
        s.write_reg(Reg::A0, 1); // app bank
        s.set_active_bank(Bank::Isr);
        assert_eq!(s.read_reg(Reg::A0), 0);
        s.write_reg(Reg::A0, 2);
        s.set_active_bank(Bank::App);
        assert_eq!(s.read_reg(Reg::A0), 1);
        assert_eq!(s.bank_read(Bank::Isr, Reg::A0), 2);
    }

    #[test]
    fn dirty_bits_track_app_writes_only() {
        let mut s = ArchState::new(0);
        s.write_reg(Reg::T0, 5);
        assert!(s.is_dirty(Reg::T0));
        s.set_active_bank(Bank::Isr);
        s.write_reg(Reg::T1, 6);
        assert!(!s.is_dirty(Reg::T1));
        s.set_active_bank(Bank::App);
        s.bank_write_clean(Bank::App, Reg::T2, 7);
        assert!(!s.is_dirty(Reg::T2));
        s.clear_dirty();
        assert_eq!(s.dirty_mask(), 0);
    }
}
