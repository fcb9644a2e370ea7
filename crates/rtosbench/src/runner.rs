//! The episode filter every measurement path applies before latencies
//! are reported.

use rtosunit::SwitchRecord;
use rvsim_cores::CoreKind;

/// Switches skipped at the start of each run (cold contexts).
pub const WARMUP_SWITCHES: usize = 4;

/// Maximum trigger-to-entry wait for an episode to count as a measured
/// context switch. Interrupts that fire while the kernel is inside a
/// critical section (or another ISR) wait for it to end; such episodes
/// measure section length, not switch latency — RTOSBench arranges its
/// triggers so the switch is taken promptly from task code. The bound is
/// the pipeline-flush latency plus a small allowance for retiring the
/// current instruction (and, for voluntary yields, the interrupt-enable
/// that follows the MSIP write).
pub fn entry_threshold(core: CoreKind) -> u64 {
    u64::from(core.timing().irq_entry_latency) + 8
}

/// Applies the episode filtering shared by every measurement path: drop
/// [`WARMUP_SWITCHES`] cold switches, then drop episodes whose
/// trigger-to-entry wait exceeds [`entry_threshold`] (critical-section
/// delays measure section length, not switch latency).
pub fn filter_episodes(core: CoreKind, records: &[SwitchRecord]) -> Vec<SwitchRecord> {
    let threshold = entry_threshold(core);
    records
        .iter()
        .skip(WARMUP_SWITCHES)
        .filter(|r| r.entry_latency() <= threshold)
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trigger: u64, entry: u64, mret: u64) -> SwitchRecord {
        SwitchRecord {
            trigger_cycle: trigger,
            entry_cycle: entry,
            mret_cycle: mret,
            cause: rvsim_isa::csr::CAUSE_TIMER,
        }
    }

    #[test]
    fn filtering_drops_warmup_switches() {
        // Ten prompt episodes; the first WARMUP_SWITCHES are cold and must
        // not contribute latencies even though they pass the threshold.
        let records: Vec<SwitchRecord> = (0..10)
            .map(|i| {
                let t = 1_000 * (i as u64 + 1);
                record(t, t + 4, t + 80)
            })
            .collect();
        let kept = filter_episodes(CoreKind::Cv32e40p, &records);
        assert_eq!(kept.len(), 10 - WARMUP_SWITCHES);
        assert_eq!(kept[0], records[WARMUP_SWITCHES]);
    }

    #[test]
    fn filtering_drops_critical_section_delayed_episodes() {
        let threshold = entry_threshold(CoreKind::Cv32e40p);
        let mut records = Vec::new();
        // Warm-up padding.
        for i in 0..WARMUP_SWITCHES as u64 {
            let t = 500 * (i + 1);
            records.push(record(t, t + 1, t + 50));
        }
        // A prompt switch, an episode delayed past the threshold (the
        // interrupt waited out a critical section), and one exactly at
        // the threshold (still counted).
        records.push(record(10_000, 10_000 + threshold - 2, 10_100));
        records.push(record(20_000, 20_000 + threshold + 30, 20_200));
        records.push(record(30_000, 30_000 + threshold, 30_100));
        let kept = filter_episodes(CoreKind::Cv32e40p, &records);
        let triggers: Vec<u64> = kept.iter().map(|r| r.trigger_cycle).collect();
        assert_eq!(
            triggers,
            vec![10_000, 30_000],
            "delayed episode must be dropped"
        );
    }

    #[test]
    fn entry_threshold_scales_with_core_entry_latency() {
        for core in CoreKind::ALL {
            assert_eq!(
                entry_threshold(core),
                u64::from(core.timing().irq_entry_latency) + 8
            );
        }
    }
}
