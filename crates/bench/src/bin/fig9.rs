//! Regenerates Figure 9: context-switch latency (mean µ) and jitter (Δ)
//! for every core × configuration over the RTOSBench-style suite.
//!
//! The full `cores × presets × workloads` matrix is declared as one
//! [`CampaignSpec`] and executed in parallel; the human-readable tables
//! are derived from the in-memory outcomes and the machine-readable
//! artifact lands in `results/fig9.json`.
//!
//! `--quick` restricts the matrix to one core (CI smoke; artifact
//! `results/fig9_quick.json` so the full figure is never clobbered).
//! `--blocks` executes every run through the block translation cache —
//! the tables and artifact must come out identical (host-side speedup
//! only), which is exactly what the CI smoke pass checks.

use rtosbench::{workloads, Campaign, CampaignSpec};
use rtosunit::{trace, LatencyStats, Preset};
use rvsim_cores::CoreKind;

/// Formats one pooled Fig. 9 table for a core, one row per preset.
fn fig9_table(core_name: &str, rows: &[(Preset, LatencyStats)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## {core_name}: context-switch latency (cycles)\n\n"
    ));
    out.push_str(&format!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9}\n",
        "config", "mean", "min", "max", "jitter", "vs_van_µ", "vs_van_Δ"
    ));
    let vanilla = rows
        .iter()
        .find(|(p, _)| *p == Preset::Vanilla)
        .map(|(_, s)| (s.mean, s.jitter()));
    for (preset, s) in rows {
        let (dmu, ddelta) = match vanilla {
            Some((vm, vj)) if vm > 0.0 => (
                format!("{:+.0}%", (s.mean / vm - 1.0) * 100.0),
                if vj > 0 {
                    format!("{:+.0}%", (s.jitter() as f64 / vj as f64 - 1.0) * 100.0)
                } else {
                    "-".to_string()
                },
            ),
            _ => ("-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<10} {:>8.1} {:>8} {:>8} {:>8} {:>9} {:>9}\n",
            preset.label(),
            s.mean,
            s.min,
            s.max,
            s.jitter(),
            dmu,
            ddelta
        ));
    }
    out
}

/// Formats the per-workload breakdown of one `(core, preset)` row.
fn workload_breakdown(
    core: CoreKind,
    preset: Preset,
    per_workload: &[(&str, LatencyStats)],
) -> String {
    let mut out = format!("### {core} {} per-workload\n", preset.label());
    for (name, s) in per_workload {
        out.push_str(&format!(
            "  {:<22} µ={:>7.1}  min={:>5}  max={:>5}  Δ={:>5}  n={}\n",
            name,
            s.mean,
            s.min,
            s.max,
            s.jitter(),
            s.count
        ));
    }
    out
}

/// Renders the tables for every core of a `cores × presets × suite`
/// matrix campaign.
fn render(campaign: &Campaign, cores: &[CoreKind], presets: &[Preset]) -> String {
    let mut out = String::new();
    for &core in cores {
        let rows: Vec<(Preset, LatencyStats)> = presets
            .iter()
            .map(|&p| {
                let stats = campaign
                    .pooled_stats(core, p)
                    .expect("suite produced no context switches");
                (p, stats)
            })
            .collect();
        out.push_str(&fig9_table(core.name(), &rows));
        out.push('\n');
        for &preset in presets {
            let per_workload: Vec<(&str, LatencyStats)> = workloads::ALL
                .iter()
                .filter_map(|w| {
                    let label = format!("{}/{}/{}", core.name(), preset.label(), w.name);
                    let outcome = campaign
                        .find(&label)
                        .expect("matrix covers every (core, preset, workload)");
                    outcome.stats().map(|s| (w.name, s))
                })
                .collect();
            out.push_str(&workload_breakdown(core, preset, &per_workload));
        }
        // Per-cause breakdown for the paper's all-round configuration:
        // the cause-dispatch paths differ in length, which is where the
        // residual (SLT) jitter lives.
        let label = format!("{}/{}/interrupt_latency", core.name(), Preset::Slt.label());
        let slt = campaign
            .find(&label)
            .and_then(|o| o.sim.as_ref())
            .expect("SLT interrupt_latency is in the matrix");
        out.push_str(&format!("### {core} (SLT) per-cause (interrupt_latency)\n"));
        out.push_str(&trace::summary_table(&slt.records));
        out.push('\n');
    }
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let blocks = std::env::args().any(|a| a == "--blocks");
    let presets = rtosunit_bench::latency_presets();
    let cores: &[CoreKind] = if quick {
        &CoreKind::ALL[..1]
    } else {
        &CoreKind::ALL
    };
    let name = if quick { "fig9_quick" } else { "fig9" };
    let mut spec = CampaignSpec::matrix(name, cores, &presets, &workloads::ALL);
    for run in &mut spec.runs {
        run.blocks = blocks;
    }
    let campaign = spec.run(rtosunit_bench::default_workers());

    let mut out = render(&campaign, cores, &presets);
    out.push_str(&rtosunit_bench::paper_note(&[
        "CV32RT: mean -3%..-12% vs vanilla; jitter comparable",
        "S: mean -17%..-27%",
        "T: mean -23% (CV32E40P), -29% (CVA6), -9% (NaxRiscv); CV32E40P jitter 188 -> 16",
        "SLT: zero jitter on CV32E40P (latency 70); jitter -88% on CVA6/NaxRiscv",
        "SDLO ~ SL (sw scheduling dominates); SDLOT adds jitter, some cases < 50 cycles",
        "SPLIT: lowest mean (bimodal: correct preloads save up to 31 cycles vs SLT)",
    ]));
    rtosunit_bench::emit(if quick { "fig9_quick.txt" } else { "fig9.txt" }, &out);

    match campaign.write_json("results") {
        Ok(path) => println!("# campaign artifact: {}", path.display()),
        Err(e) => eprintln!("# campaign artifact not written: {e}"),
    }
    println!("# {}", campaign.throughput_summary());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(mean: f64, min: u64, max: u64) -> LatencyStats {
        LatencyStats {
            count: 10,
            min,
            max,
            mean,
        }
    }

    #[test]
    fn table_contains_relative_columns() {
        let rows = [
            (Preset::Vanilla, stats(200.0, 150, 340)),
            (Preset::Slt, stats(70.0, 70, 70)),
        ];
        let t = fig9_table("CV32E40P", &rows);
        assert!(t.contains("(vanilla)"));
        assert!(t.contains("(SLT)"));
        assert!(t.contains("-65%"), "relative mean missing:\n{t}");
    }

    #[test]
    fn breakdown_lists_workloads() {
        let b = workload_breakdown(
            CoreKind::Cv32e40p,
            Preset::T,
            &[("pingpong_semaphore", stats(100.0, 90, 120))],
        );
        assert!(b.contains("pingpong_semaphore"));
    }

    #[test]
    fn report_tables_render_all_rows() {
        let suite = workloads::ALL.map(|mut w| {
            w.run_cycles = 60_000;
            w
        });
        let presets = [Preset::Vanilla, Preset::Slt];
        let cores = [CoreKind::Cv32e40p];
        let campaign = CampaignSpec::matrix("fig9_test", &cores, &presets, &suite).run(2);
        let out = render(&campaign, &cores, &presets);
        assert!(out.contains("(vanilla)"));
        assert!(out.contains("(SLT)"));
        for w in workloads::ALL {
            assert!(out.contains(w.name), "missing {} in breakdown", w.name);
        }
    }
}
