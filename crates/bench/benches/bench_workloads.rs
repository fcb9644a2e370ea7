//! End-to-end workload runs (host time for one full RTOSBench-style run).

use rtosbench::{execute_run, workloads, RunSpec, WorkloadSpec};
use rtosunit::Preset;
use rtosunit_bench::harness::Bench;
use rvsim_cores::CoreKind;

fn main() {
    let w = workloads::by_name("pingpong_semaphore").expect("exists");
    let mut bench = Bench::new("workloads");
    for preset in [Preset::Vanilla, Preset::Slt] {
        let spec = RunSpec::new(CoreKind::Cv32e40p, preset, WorkloadSpec::Suite(w));
        let run = || {
            execute_run(0, &spec, None, None)
                .expect("cell runs")
                .sim
                .expect("suite cells simulate")
        };
        let cycles = run().cycles;
        bench.throughput(
            format!("pingpong_cv32e40p/{}", preset.label()),
            cycles as f64,
            "cycles",
            || run().latencies.len(),
        );
    }
    bench.finish();
}
