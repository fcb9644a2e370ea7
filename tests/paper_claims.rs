//! Cross-crate integration tests asserting the paper's headline claims
//! hold in the reproduction (scaled-down runs so they stay fast in debug
//! builds; the full-size sweeps live in the `fig9` binary).

use rtosunit_suite::bench::{execute_run, CampaignSpec, RunSpec, WorkloadSpec, WORKLOADS};
use rtosunit_suite::cores::CoreKind;
use rtosunit_suite::unit::Preset;

fn mean_latency(kind: CoreKind, preset: Preset, workload: &str) -> (f64, u64, usize) {
    let w = rtosunit_suite::bench::workloads::by_name(workload).expect("workload");
    let spec = RunSpec::new(kind, preset, WorkloadSpec::Suite(w));
    let r = execute_run(0, &spec, None, None).expect("cell runs");
    let s = r.stats().expect("switches recorded");
    (s.mean, s.jitter(), s.count)
}

#[test]
fn slt_reduces_mean_latency_by_more_than_half_on_every_core() {
    // Abstract: "up to 76 % reduction in mean context-switch latency";
    // §6.1: (SLT) minimises latency and jitter on all cores.
    for kind in CoreKind::ALL {
        let (vanilla, _, _) = mean_latency(kind, Preset::Vanilla, "roundrobin_yield");
        let (slt, _, _) = mean_latency(kind, Preset::Slt, "roundrobin_yield");
        assert!(
            slt < vanilla * 0.5,
            "{kind}: SLT {slt:.0} should be <50% of vanilla {vanilla:.0}"
        );
    }
}

#[test]
fn split_achieves_the_largest_mean_reduction_somewhere() {
    // The 76 % headline comes from preloading; verify SPLIT beats SLT on
    // a preload-friendly workload.
    let (slt, _, _) = mean_latency(CoreKind::Cv32e40p, Preset::Slt, "roundrobin_yield");
    let (split, _, _) = mean_latency(CoreKind::Cv32e40p, Preset::Split, "roundrobin_yield");
    assert!(
        split < slt,
        "SPLIT ({split:.0}) must beat SLT ({slt:.0}) when preloads hit"
    );
}

#[test]
fn hardware_scheduling_slashes_jitter() {
    // §6.1: offloading scheduling alone reduces CV32E40P jitter by >90 %
    // (188 -> 16 cycles). Compare (T) to (vanilla) on the delay-heavy
    // workload that drives scheduler variability.
    let (_, vanilla_jitter, _) =
        mean_latency(CoreKind::Cv32e40p, Preset::Vanilla, "delay_periodic");
    let (_, t_jitter, _) = mean_latency(CoreKind::Cv32e40p, Preset::T, "delay_periodic");
    assert!(
        t_jitter * 4 <= vanilla_jitter,
        "(T) jitter {t_jitter} should be well below vanilla {vanilla_jitter}"
    );
}

#[test]
fn slt_virtually_eliminates_jitter_on_the_deterministic_core() {
    // §6.1/§7: jitter eliminated entirely on CV32E40P with (SLT).
    let (_, jitter, count) = mean_latency(CoreKind::Cv32e40p, Preset::Slt, "delay_periodic");
    assert!(count > 20);
    assert!(
        jitter <= 16,
        "SLT jitter on CV32E40P should be near zero, got {jitter}"
    );
}

#[test]
fn residual_jitter_remains_on_cached_speculative_cores() {
    // §6.1: "the remaining jitter is likely due to micro-architectural
    // features like caches and speculative execution".
    let (_, jitter, _) = mean_latency(CoreKind::NaxRiscv, Preset::Slt, "pingpong_semaphore");
    assert!(
        jitter > 0,
        "NaxRiscv must keep some microarchitectural jitter"
    );
}

#[test]
fn cv32rt_gains_are_modest_compared_to_s() {
    // §6.1: CV32RT -3..-12 % vs our (S) -17..-27 % (CV32E40P/CVA6).
    for kind in [CoreKind::Cv32e40p, CoreKind::Cva6] {
        let (vanilla, _, _) = mean_latency(kind, Preset::Vanilla, "pingpong_semaphore");
        let (cv32rt, _, _) = mean_latency(kind, Preset::Cv32rt, "pingpong_semaphore");
        let (s, _, _) = mean_latency(kind, Preset::S, "pingpong_semaphore");
        assert!(cv32rt < vanilla, "{kind}: CV32RT must still beat vanilla");
        assert!(
            s < cv32rt,
            "{kind}: (S) must beat CV32RT (full save overlapped)"
        );
    }
}

#[test]
fn every_workload_runs_on_every_core_and_preset_smoke() {
    // One cheap smoke pass over the full matrix (reduced cycle budget).
    let short = WORKLOADS.map(|mut w| {
        w.run_cycles = 120_000;
        w
    });
    let presets = [Preset::Vanilla, Preset::Slt, Preset::Split, Preset::Cv32rt];
    let c = CampaignSpec::matrix("smoke", &CoreKind::ALL, &presets, &short).run(2);
    assert!(c.failures.is_empty(), "{:?}", c.failures);
    assert_eq!(
        c.outcomes.len(),
        CoreKind::ALL.len() * presets.len() * short.len()
    );
    for o in &c.outcomes {
        let sim = o.sim.as_ref().expect("suite cells simulate");
        assert!(!sim.latencies.is_empty(), "{}: no switches", o.label);
    }
}
