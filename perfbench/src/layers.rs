//! Per-layer metrics of the traced run: span times per layer, the
//! simulated attribution counters, and the self-time table.

use crate::bench::Metric;
use crate::check;
use crate::mirror::{self, Machine, Span, TracedPass, Tracer};
use crate::stats::{median, ratio};
use crate::workload::{Workload, BOOT_CYCLES};
use rtosbench::{CampaignSpec, Json, SimOutcome};
use std::collections::BTreeMap;
use std::time::Instant;

/// The layers spans are attributed to; `bench` is the benchmark's own
/// glue between calls.
pub const LAYERS: [&str; 5] = [
    "rtosbench",
    "freertos-lite",
    "rtosunit",
    "rvsim-snapshot",
    "bench",
];

/// Harts whose bus statistics are reported (the widest SMP cell).
pub const BUS_HARTS: usize = 4;

/// Self time of each span: its duration minus its children's.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Simulated Mcycles per host second of a traced pass. Boot prefixes
/// are set-up, outside the untraced pass it is compared with, so their
/// time is left out.
pub fn traced_rate(t: &TracedPass, spec: &CampaignSpec) -> f64 {
    let boots: u64 = t
        .spans
        .iter()
        .filter(|s| s.name == "bench.boot")
        .map(Span::ns)
        .sum();
    let wall = (t.wall_ns() - boots) as f64;
    Workload::stepped_cycles(&t.campaign, spec) as f64 / (wall / 1e9) / 1e6
}

fn sum(sims: &[&SimOutcome], f: impl Fn(&SimOutcome) -> u64) -> f64 {
    sims.iter().map(|s| f(s)).sum::<u64>() as f64
}

/// The per-layer metrics one traced pass yields, in a fixed order.
pub fn pass_metrics(t: &TracedPass) -> Vec<Metric> {
    let spans = &t.spans;
    let selfs = self_ns(spans);
    let total_ms = |name: &str| {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum::<u64>() as f64
            / 1e6
    };
    let layer_self_ms = |layer: &str| {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, &n)| n)
            .sum::<u64>() as f64
            / 1e6
    };
    // Engine time of measured cells (boot prefixes excluded), split by
    // hart count.
    let mut cell_run_ns = 0u64;
    let mut smp_run_ns = 0u64;
    for s in spans.iter().filter(|s| s.name == "rtosunit.run") {
        if s.parent.is_some_and(|p| spans[p].name == "bench.cell") {
            cell_run_ns += s.ns();
            if t.extras[s.cell].harts > 1 {
                smp_run_ns += s.ns();
            }
        }
    }
    let ex = &t.extras;
    let stepped: u64 = ex.iter().map(|e| e.stepped_cycles).sum();
    let stepped_retired: u64 = ex.iter().map(|e| e.stepped_retired).sum();
    let smp_hart_cycles: u64 = ex
        .iter()
        .filter(|e| e.harts > 1)
        .map(|e| e.stepped_cycles * e.harts as u64)
        .sum();
    let (dhits, dmisses) = ex
        .iter()
        .filter_map(|e| e.dcache)
        .fold((0, 0), |(h, m), (a, b)| (h + a, m + b));

    let sims: Vec<&SimOutcome> = t
        .campaign
        .outcomes
        .iter()
        .filter_map(|o| o.sim.as_ref())
        .collect();
    let mut core: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &sims {
        for (name, v) in s.counters.named() {
            *core.entry(name).or_default() += v;
        }
    }
    let c = |name: &str| core.get(name).copied().unwrap_or(0) as f64;
    let cycles = sum(&sims, |s| s.cycles);
    let retired = sum(&sims, |s| s.retired);
    let unit = |f: fn(&rtosunit::UnitStats) -> u64| sum(&sims, |s| s.unit.as_ref().map_or(0, f));

    let mut m = vec![
        Metric::new("rtosbench.render_ms", total_ms("rtosbench.render"), "ms"),
        Metric::new(
            "rtosbench.artifact_kb",
            t.artifact_bytes as f64 / 1024.0,
            "kB",
        ),
        Metric::new("rtosbench.harvest_ms", total_ms("rtosbench.harvest"), "ms"),
        Metric::new(
            "rtosbench.arrivals_ms",
            total_ms("rtosbench.arrivals"),
            "ms",
        ),
        Metric::new("rtosbench.self_ms", layer_self_ms("rtosbench"), "ms"),
        Metric::new(
            "freertos-lite.build_ms",
            total_ms("freertos-lite.build"),
            "ms",
        ),
        Metric::new(
            "freertos-lite.text_words",
            ratio(t.builds.1 as f64, t.builds.0 as f64),
            "words",
        ),
        Metric::new(
            "freertos-lite.self_ms",
            layer_self_ms("freertos-lite"),
            "ms",
        ),
        Metric::new("rtosunit.setup_ms", total_ms("rtosunit.setup"), "ms"),
        Metric::new("rtosunit.run_ms", total_ms("rtosunit.run"), "ms"),
        Metric::new(
            "rtosunit.run_ns_per_cycle",
            ratio(cell_run_ns as f64, stepped as f64),
            "ns/cycle",
        ),
        Metric::new(
            "rtosunit.smp_ns_per_hart_cycle",
            ratio(smp_run_ns as f64, smp_hart_cycles as f64),
            "ns/cycle",
        ),
        Metric::new("rtosunit.self_ms", layer_self_ms("rtosunit"), "ms"),
        Metric::new(
            "rtosunit.unit_store_words",
            unit(|u| u.store_words),
            "words",
        ),
        Metric::new("rtosunit.unit_load_words", unit(|u| u.load_words), "words"),
        Metric::new(
            "rtosunit.unit_store_stall_cycles",
            unit(|u| u.store_stall_cycles),
            "cycles",
        ),
        Metric::new(
            "rtosunit.unit_load_stall_cycles",
            unit(|u| u.load_stall_cycles),
            "cycles",
        ),
        Metric::new(
            "rtosunit.unit_preload_hit_ratio",
            ratio(
                unit(|u| u.preload_hits),
                unit(|u| u.preload_hits + u.preload_misses),
            ),
            "frac",
        ),
        Metric::new(
            "rtosunit.cv32rt_snapshot_words",
            sum(&sims, |s| s.cv32rt.map_or(0, |c| c.snapshot_words)),
            "words",
        ),
        Metric::new(
            "rtosunit.port_unit_share",
            ratio(sum(&sims, |s| s.port.2), sum(&sims, |s| s.port.0)),
            "frac",
        ),
        Metric::new(
            "rtosunit.ctxq_full_stalls",
            sum(&sims, |s| s.ctx_queue.map_or(0, |q| q.1)),
            "count",
        ),
        Metric::new(
            "rtosunit.switches",
            sum(&sims, |s| s.raw_records.len() as u64),
            "count",
        ),
        Metric::new(
            "rvsim-cores.ns_per_insn",
            ratio(cell_run_ns as f64, stepped_retired as f64),
            "ns/insn",
        ),
        Metric::new(
            "rvsim-cores.decode_hit_ratio",
            ratio(c("decode_hits"), c("decode_hits") + c("decode_misses")),
            "frac",
        ),
        Metric::new(
            "rvsim-cores.block_hit_ratio",
            ratio(c("block_hits"), c("block_hits") + c("block_builds")),
            "frac",
        ),
        Metric::new("rvsim-cores.fused_ops", c("fused_ops"), "count"),
        Metric::new("rvsim-cores.cpi", ratio(cycles, retired), "cycles/insn"),
        Metric::new("rvsim-cores.retired", retired, "count"),
    ];
    for stall in [
        "stall_exec",
        "stall_mem",
        "stall_control",
        "stall_irq_entry",
        "stall_mret",
        "stall_coproc",
        "wfi_cycles",
    ] {
        m.push(Metric::new(
            format!("rvsim-cores.{stall}"),
            c(stall),
            "cycles",
        ));
    }
    m.push(Metric::new(
        "rvsim-mem.dcache_hit_ratio",
        ratio(dhits as f64, (dhits + dmisses) as f64),
        "frac",
    ));
    m.push(Metric::new(
        "rvsim-mem.dcache_misses",
        dmisses as f64,
        "count",
    ));
    for h in 0..BUS_HARTS {
        let bus = |f: fn(&rtosunit::BusMasterStats) -> u64| {
            sims.iter()
                .filter_map(|s| s.bus.as_ref().and_then(|b| b.get(h)))
                .map(f)
                .collect::<Vec<u64>>()
        };
        let grants: u64 = bus(|b| b.grants).iter().sum();
        let wait: u64 = bus(|b| b.wait_cycles).iter().sum();
        let max_wait = bus(|b| b.max_wait).into_iter().max().unwrap_or(0);
        m.push(Metric::new(
            format!("rvsim-mem.bus_grants.h{h}"),
            grants as f64,
            "count",
        ));
        m.push(Metric::new(
            format!("rvsim-mem.bus_wait_cycles.h{h}"),
            wait as f64,
            "cycles",
        ));
        m.push(Metric::new(
            format!("rvsim-mem.bus_max_wait.h{h}"),
            max_wait as f64,
            "cycles",
        ));
    }
    let wall = t.wall_ns() as f64;
    m.extend([
        Metric::new(
            "rvsim-snapshot.encode_ms",
            total_ms("rvsim-snapshot.encode"),
            "ms",
        ),
        Metric::new(
            "rvsim-snapshot.render_ms",
            total_ms("rvsim-snapshot.render"),
            "ms",
        ),
        Metric::new(
            "rvsim-snapshot.open_ms",
            total_ms("rvsim-snapshot.open"),
            "ms",
        ),
        Metric::new(
            "rvsim-snapshot.restore_ms",
            total_ms("rvsim-snapshot.restore"),
            "ms",
        ),
        Metric::new(
            "rvsim-snapshot.doc_kb",
            ratio(t.snap.doc_bytes as f64, t.snap.docs as f64) / 1024.0,
            "kB",
        ),
        Metric::new(
            "rvsim-snapshot.self_ms",
            layer_self_ms("rvsim-snapshot"),
            "ms",
        ),
        Metric::new("bench.self_ms", layer_self_ms("bench"), "ms"),
        Metric::new(
            "bench.layer_cover_frac",
            ratio(wall - layer_self_ms("bench") * 1e6, wall),
            "frac",
        ),
    ]);
    m
}

/// Host cost of per-cycle stepping against batched stepping, measured on
/// seed-chosen single-core cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepProbe {
    /// `System::run` nanoseconds over the probed cells.
    pub run_ns: u64,
    /// `System::run_stepwise` nanoseconds over the same cells.
    pub step_ns: u64,
    /// Cycles each path simulated.
    pub cycles: u64,
}

/// Cells the `run_stepwise` probe times.
pub const PROBE_CELLS: usize = 4;

/// Times `System::run` and `System::run_stepwise` on [`PROBE_CELLS`]
/// seed-chosen single-core cells, each from a cold boot. SMP cells have
/// no stepwise path and are skipped.
///
/// # Errors
///
/// Fails when a probed cell cannot be prepared.
pub fn step_probe(wl: &Workload, spec: &CampaignSpec) -> Result<StepProbe, String> {
    let single: Vec<usize> = (0..spec.runs.len())
        .filter(|&i| spec.runs[i].harts == 1)
        .collect();
    let mut probe = StepProbe::default();
    for pick in check::sample_indices(wl.seed, 0x57e9, single.len(), PROBE_CELLS) {
        let mut run = spec.runs[single[pick]].clone();
        run.warm = None;
        for stepwise in [false, true] {
            let p = mirror::prepare(&run, &mut Tracer::off(), true)?;
            let Machine::One(mut sys) = p.machine else {
                continue;
            };
            let t = Instant::now();
            if stepwise {
                sys.run_stepwise(p.run_cycles);
                probe.step_ns += t.elapsed().as_nanos() as u64;
            } else {
                sys.run(p.run_cycles);
                probe.run_ns += t.elapsed().as_nanos() as u64;
                probe.cycles += sys.platform.cycle();
            }
        }
    }
    Ok(probe)
}

/// Combines the traced passes into the per-layer result: the median of
/// each span-time metric across passes (counters are identical in every
/// pass), plus the executor's busy fraction, the stepwise probe and the
/// tracing overhead.
pub fn metrics(
    per_pass: &[Vec<Metric>],
    traced_rates: &[f64],
    untraced_rates: &[f64],
    busy_frac: f64,
    probe: &StepProbe,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = per_pass[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_pass.iter().map(|p| p[i].value).collect();
            Metric::new(m.name.clone(), median(&values), m.unit)
        })
        .collect();
    let step = ratio(probe.step_ns as f64, probe.cycles as f64);
    let run = ratio(probe.run_ns as f64, probe.cycles as f64);
    let (traced, untraced) = (median(traced_rates), median(untraced_rates));
    out.extend([
        Metric::new("rtosbench.worker_busy_frac", busy_frac, "frac"),
        Metric::new("rtosunit.step_ns_per_cycle", step, "ns/cycle"),
        Metric::new("rtosunit.batch_leverage", ratio(step, run), "x"),
        Metric::new("bench.untraced_mcycles_per_s", untraced, "Mc/s"),
        Metric::new("bench.traced_mcycles_per_s", traced, "Mc/s"),
        Metric::new(
            "bench.trace_overhead_mcycles_per_s",
            untraced - traced,
            "Mc/s",
        ),
    ]);
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// The self-time table of one traced pass: per span name, then per
/// layer, with each share of the pass wall time. Self times sum to the
/// wall time of the root span.
pub fn self_time_table(spans: &[Span]) -> Vec<String> {
    let selfs = self_ns(spans);
    let wall = spans.first().map_or(0, Span::ns) as f64;
    let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ns();
        e.2 += own;
    }
    let mut lines = vec![format!(
        "{:<26} {:>7} {:>11} {:>11} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    )];
    for (name, (n, total, own)) in &by_name {
        lines.push(format!(
            "{name:<26} {n:>7} {:>11.3} {:>11.3} {:>6.2}%",
            *total as f64 / 1e6,
            *own as f64 / 1e6,
            100.0 * ratio(*own as f64, wall)
        ));
    }
    let mut accounted = 0u64;
    for layer in LAYERS {
        let own: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.layer() == layer)
            .map(|(_, &n)| n)
            .sum();
        accounted += own;
        lines.push(format!(
            "layer {layer:<20} {:>7} {:>11} {:>11.3} {:>6.2}%",
            "",
            "",
            own as f64 / 1e6,
            100.0 * ratio(own as f64, wall)
        ));
    }
    lines.push(format!(
        "self times sum to {:.3} ms of {:.3} ms traced wall ({:.2}%); rvsim-cores and rvsim-mem \
         run inside rtosunit.run",
        accounted as f64 / 1e6,
        wall / 1e6,
        100.0 * ratio(accounted as f64, wall)
    ));
    lines
}

/// Every traced pass's spans as one JSON document.
pub fn spans_json(passes: &[Vec<Span>]) -> String {
    let passes: Vec<Json> = passes
        .iter()
        .map(|spans| {
            let spans: Vec<Json> = spans
                .iter()
                .map(|s| {
                    Json::object()
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", s.parent.map_or(Json::Null, Json::from))
                        .with("cell", s.cell)
                })
                .collect();
            Json::from(spans)
        })
        .collect();
    Json::object()
        .with("schema", "perfbench-spans-v1")
        .with("boot_cycles", BOOT_CYCLES)
        .with("passes", passes)
        .render()
}
