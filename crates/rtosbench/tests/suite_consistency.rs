//! Suite-level consistency tests: the Fig. 9 aggregation must faithfully
//! pool the per-workload runs, and the newer workloads must exercise the
//! kernel paths they claim to.

use rtosbench::{execute_run, workloads, CampaignSpec, RunSpec, SimOutcome, WorkloadSpec};
use rtosunit::{LatencyStats, Preset};
use rvsim_cores::CoreKind;

fn short(w: &workloads::Workload) -> workloads::Workload {
    let mut w = *w;
    w.run_cycles = 150_000;
    w
}

fn run_cell(core: CoreKind, preset: Preset, w: &workloads::Workload) -> SimOutcome {
    let spec = RunSpec::new(core, preset, WorkloadSpec::Suite(*w));
    execute_run(0, &spec, None, None)
        .expect("cell runs")
        .sim
        .expect("suite cells simulate")
}

#[test]
fn queue_burst_exercises_counting_semantics() {
    let w = short(&workloads::by_name("queue_burst").expect("exists"));
    let r = run_cell(CoreKind::Cv32e40p, Preset::Slt, &w);
    assert!(r.latencies.len() > 20, "bursts must produce switches");
    // The flow-control semaphore bounds the queue: the run must not
    // deadlock (progress implies takes and gives kept pairing up).
    assert!(r.retired > 10_000);
}

#[test]
fn priority_chain_produces_back_to_back_preemptions() {
    let w = short(&workloads::by_name("priority_chain").expect("exists"));
    let r = run_cell(CoreKind::Cv32e40p, Preset::Vanilla, &w);
    // Each chain round is low→mid→high→(unwind): several voluntary
    // switches per round, all software-caused.
    let yields = r
        .records
        .iter()
        .filter(|rec| rec.cause == rvsim_isa::csr::CAUSE_SOFTWARE)
        .count();
    assert!(
        yields > 20,
        "the chain must preempt repeatedly, got {yields}"
    );
}

#[test]
fn pooled_stats_match_manual_pooling() {
    // Pool the per-workload cells by hand and compare with the campaign's
    // Fig. 9 pooling over the same matrix.
    let core = CoreKind::Cv32e40p;
    let preset = Preset::T;
    let mut pooled = Vec::new();
    for w in workloads::ALL {
        pooled.extend(run_cell(core, preset, &w).latencies);
    }
    let manual = LatencyStats::from_latencies(&pooled).expect("latencies");
    let campaign = CampaignSpec::matrix("pool", &[core], &[preset], &workloads::ALL).run(2);
    let row = campaign.pooled_stats(core, preset).expect("latencies");
    assert_eq!(row.count, manual.count);
    assert_eq!(row.min, manual.min);
    assert_eq!(row.max, manual.max);
    assert!((row.mean - manual.mean).abs() < 1e-9);
}

#[test]
fn records_and_latencies_stay_in_sync() {
    let w = short(&workloads::by_name("mutex_workload").expect("exists"));
    let r = run_cell(CoreKind::Cva6, Preset::Sl, &w);
    assert_eq!(r.records.len(), r.latencies.len());
    for (rec, lat) in r.records.iter().zip(&r.latencies) {
        assert_eq!(rec.latency(), *lat);
    }
}
