//! Context-switch latency instrumentation.
//!
//! The paper measures latency "from interrupt trigger to the execution of
//! the `mret` instruction" and reports jitter as max − min (§6.1). The
//! [`System`](crate::System) records one [`SwitchRecord`] per ISR episode;
//! [`LatencyStats`] aggregates them.

/// One measured interrupt → `mret` episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchRecord {
    /// Cycle at which the interrupt line was asserted.
    pub trigger_cycle: u64,
    /// Cycle at which the core entered the ISR.
    pub entry_cycle: u64,
    /// Cycle at which `mret` finished executing.
    pub mret_cycle: u64,
    /// The `mcause` value of the episode.
    pub cause: u32,
}

rvsim_snapshot::snap_fields! {
    impl Snap for SwitchRecord {
        "trigger" => trigger_cycle,
        "entry" => entry_cycle,
        "mret" => mret_cycle,
        "cause" => cause,
    }
}

impl SwitchRecord {
    /// Total context-switch latency in cycles (the paper's metric).
    pub fn latency(&self) -> u64 {
        self.mret_cycle - self.trigger_cycle
    }

    /// Latency spent before the first ISR instruction.
    pub fn entry_latency(&self) -> u64 {
        self.entry_cycle - self.trigger_cycle
    }
}

/// Aggregate latency statistics over a set of switches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of switches measured.
    pub count: usize,
    /// Minimum observed latency.
    pub min: u64,
    /// Maximum observed latency.
    pub max: u64,
    /// Mean latency (µ in Fig. 9).
    pub mean: f64,
}

impl LatencyStats {
    /// Computes statistics from individual latencies.
    ///
    /// Returns `None` for an empty input.
    pub fn from_latencies(lat: &[u64]) -> Option<LatencyStats> {
        if lat.is_empty() {
            return None;
        }
        let min = *lat.iter().min().expect("non-empty");
        let max = *lat.iter().max().expect("non-empty");
        let mean = lat.iter().sum::<u64>() as f64 / lat.len() as f64;
        Some(LatencyStats {
            count: lat.len(),
            min,
            max,
            mean,
        })
    }

    /// Computes statistics from switch records.
    pub fn from_records(records: &[SwitchRecord]) -> Option<LatencyStats> {
        let lat: Vec<u64> = records.iter().map(SwitchRecord::latency).collect();
        Self::from_latencies(&lat)
    }

    /// Jitter: max − min (Δ in Fig. 9).
    pub fn jitter(&self) -> u64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = LatencyStats::from_latencies(&[70, 70, 70]).expect("some");
        assert_eq!(s.mean, 70.0);
        assert_eq!(s.jitter(), 0);
        let s2 = LatencyStats::from_latencies(&[100, 150, 350]).expect("some");
        assert_eq!(s2.min, 100);
        assert_eq!(s2.max, 350);
        assert_eq!(s2.jitter(), 250);
        assert!((s2.mean - 200.0).abs() < 1e-9);
    }

    #[test]
    fn empty_yields_none() {
        assert_eq!(LatencyStats::from_latencies(&[]), None);
        assert_eq!(LatencyStats::from_records(&[]), None);
    }

    #[test]
    fn record_latency_spans_trigger_to_mret() {
        let r = SwitchRecord {
            trigger_cycle: 100,
            entry_cycle: 105,
            mret_cycle: 170,
            cause: 7,
        };
        assert_eq!(r.latency(), 70);
        assert_eq!(r.entry_latency(), 5);
    }
}
