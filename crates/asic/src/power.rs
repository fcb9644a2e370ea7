//! Power model (paper Fig. 13).
//!
//! The paper derives average power from gate-level simulation of the
//! `mutex_workload` at 500 MHz. This model substitutes: static power
//! proportional to the modelled area (the dominant term at 22 nm, §6.3),
//! plus dynamic power driven by **activity counters from an actual
//! simulation run** of the same workload — retired instructions,
//! data-port cycles, and RTOSUnit/CV32RT word transfers.

use crate::area::area_report;
use crate::calibration::{
    instr_energy_pj, CLOCK_MW_PER_UM2, DEDICATED_WORD_ENERGY_PJ, PORT_ENERGY_PJ, POWER_FREQ_MHZ,
    STATIC_MW_PER_UM2, UNIT_WORD_ENERGY_PJ,
};
use rtosbench::{execute_run, workloads, RunSpec, WorkloadSpec};
use rtosunit::Preset;
use rvsim_cores::CoreKind;

/// Power estimate for one `(core, configuration)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Core model.
    pub core: CoreKind,
    /// Configuration.
    pub preset: Preset,
    /// Static (leakage) power, mW.
    pub static_mw: f64,
    /// Core dynamic power, mW.
    pub core_dynamic_mw: f64,
    /// RTOSUnit / CV32RT dynamic power, mW.
    pub unit_dynamic_mw: f64,
}

impl PowerReport {
    /// Total average power (mW) over the workload.
    pub fn total_mw(&self) -> f64 {
        self.static_mw + self.core_dynamic_mw + self.unit_dynamic_mw
    }
}

/// Runs `mutex_workload` on the pair and derives average power at the
/// paper's 500 MHz operating point.
pub fn power_report(core: CoreKind, preset: Preset) -> PowerReport {
    let w = workloads::by_name("mutex_workload").expect("mutex workload exists");
    let spec = RunSpec::new(core, preset, WorkloadSpec::Suite(w));
    let r = execute_run(0, &spec, None, None)
        .expect("mutex workload runs")
        .sim
        .expect("suite cells simulate");
    let cycles = r.cycles as f64;
    let f_hz = POWER_FREQ_MHZ * 1e6;
    let pj_to_mw = |events: f64, energy_pj: f64| {
        // events/cycle × f [1/s] × E [pJ] → mW
        (events / cycles) * f_hz * energy_pj * 1e-9
    };

    let area = area_report(core, preset);
    let static_mw = area.total_um2() * STATIC_MW_PER_UM2;
    let core_dynamic_mw = pj_to_mw(r.retired as f64, instr_energy_pj(core))
        + pj_to_mw(r.port.1 as f64, PORT_ENERGY_PJ);

    let mut unit_words = 0.0;
    let mut dedicated_words = 0.0;
    if let Some(u) = r.unit {
        unit_words = (u.store_words + u.load_words + u.preload_words) as f64;
    }
    if let Some(rt) = r.cv32rt {
        dedicated_words = rt.snapshot_words as f64;
    }
    let unit_dynamic_mw = pj_to_mw(unit_words, UNIT_WORD_ENERGY_PJ)
        + pj_to_mw(dedicated_words, DEDICATED_WORD_ENERGY_PJ)
        + area.added_um2() * CLOCK_MW_PER_UM2;

    PowerReport {
        core,
        preset,
        static_mw,
        core_dynamic_mw,
        unit_dynamic_mw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_power_tracks_area() {
        let v = power_report(CoreKind::Cv32e40p, Preset::Vanilla);
        let split = power_report(CoreKind::Cv32e40p, Preset::Split);
        assert!(split.static_mw > v.static_mw);
        assert!(split.total_mw() > v.total_mw());
    }

    #[test]
    fn t_is_the_cheapest_addition_on_naxriscv() {
        // §6.3: on NaxRiscv the scheduling-only configuration costs less
        // than 2 mW extra.
        let v = power_report(CoreKind::NaxRiscv, Preset::Vanilla);
        let t = power_report(CoreKind::NaxRiscv, Preset::T);
        let extra = t.total_mw() - v.total_mw();
        assert!(
            (0.0..2.0).contains(&extra),
            "T extra on NaxRiscv: {extra} mW"
        );
    }

    #[test]
    fn cv32rt_is_the_most_power_hungry_on_naxriscv() {
        let rt = power_report(CoreKind::NaxRiscv, Preset::Cv32rt).total_mw();
        for p in [Preset::S, Preset::Slt, Preset::Split] {
            let other = power_report(CoreKind::NaxRiscv, p).total_mw();
            assert!(rt > other, "CV32RT ({rt:.2}) must exceed {p} ({other:.2})");
        }
    }
}
