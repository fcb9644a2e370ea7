//! Switch-episode analysis.
//!
//! Helpers over the [`SwitchRecord`] stream: per-cause latency
//! breakdowns (the cause-dispatch paths of the ISR differ in length,
//! which is where the last cycles of (SLT) jitter come from).

use crate::stats::{LatencyStats, SwitchRecord};
use rvsim_isa::csr;

/// Human-readable name of an interrupt cause.
pub fn cause_name(cause: u32) -> &'static str {
    match cause {
        csr::CAUSE_TIMER => "timer",
        csr::CAUSE_SOFTWARE => "yield",
        csr::CAUSE_EXTERNAL => "external",
        _ => "unknown",
    }
}

/// Splits the records by cause and computes per-cause statistics, in a
/// stable order (timer, yield, external). Causes with no episodes are
/// omitted.
pub fn per_cause_stats(records: &[SwitchRecord]) -> Vec<(&'static str, LatencyStats)> {
    [csr::CAUSE_TIMER, csr::CAUSE_SOFTWARE, csr::CAUSE_EXTERNAL]
        .into_iter()
        .filter_map(|cause| {
            let lat: Vec<u64> = records
                .iter()
                .filter(|r| r.cause == cause)
                .map(SwitchRecord::latency)
                .collect();
            LatencyStats::from_latencies(&lat).map(|s| (cause_name(cause), s))
        })
        .collect()
}

/// One line per cause: count, mean, min/max, jitter — the textual
/// equivalent of a Fig. 9 bar with its Δ whisker.
pub fn summary_table(records: &[SwitchRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>6} {:>8} {:>6} {:>6} {:>7}\n",
        "cause", "count", "mean", "min", "max", "jitter"
    ));
    for (name, s) in per_cause_stats(records) {
        out.push_str(&format!(
            "{:<10} {:>6} {:>8.1} {:>6} {:>6} {:>7}\n",
            name,
            s.count,
            s.mean,
            s.min,
            s.max,
            s.jitter()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trigger: u64, entry: u64, mret: u64, cause: u32) -> SwitchRecord {
        SwitchRecord {
            trigger_cycle: trigger,
            entry_cycle: entry,
            mret_cycle: mret,
            cause,
        }
    }

    #[test]
    fn per_cause_separates_distributions() {
        let records = vec![
            rec(0, 4, 70, csr::CAUSE_SOFTWARE),
            rec(100, 104, 170, csr::CAUSE_SOFTWARE),
            rec(200, 204, 400, csr::CAUSE_TIMER),
        ];
        let stats = per_cause_stats(&records);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].0, "timer");
        assert_eq!(stats[0].1.count, 1);
        assert_eq!(stats[1].0, "yield");
        assert_eq!(stats[1].1.count, 2);
        assert_eq!(stats[1].1.min, 70);
    }

    #[test]
    fn summary_table_lists_causes() {
        let records = vec![rec(0, 4, 70, csr::CAUSE_EXTERNAL)];
        let table = summary_table(&records);
        assert!(table.contains("external"));
        assert!(table.contains("70"));
    }

    #[test]
    fn cause_names() {
        assert_eq!(cause_name(csr::CAUSE_TIMER), "timer");
        assert_eq!(cause_name(0xdead), "unknown");
    }
}
