//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload, prints every metric by name and unit, the host
//! description and the checks, and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer metrics and writes the
//! spans to `<target dir>/perfbench-spans/`.
//!
//! `perfbench --workload <name> --write-reference` re-records the
//! default-seed digests in `reference/<name>.txt` (rebuild afterwards).

use perfbench::bench::{self, Metric, Options, Report};
use perfbench::check;
use perfbench::host::HostInfo;
use perfbench::workload::{Kind, Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fig9_matrix|tail_openloop|smp_contention|\
snapshot_fork> [--seed <n>] [--seconds <n>] [--trace <0|1>] [--write-reference]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut write_reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed `{value}`: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds `{value}` is not a duration"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_reference,
    })
}

/// A JSON number as measured; non-finite values (a ratio over nothing)
/// print as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn metric_line(m: &Metric, note: &str) -> String {
    format!(
        "{:<40} {:>16} {:<12} {note}",
        m.name,
        number(m.value),
        m.unit
    )
}

fn write_spans(kind: Kind, seed: u64, doc: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into()),
    )
    .join("perfbench-spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.json", kind.name()));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn write_reference(kind: Kind) -> Result<(), String> {
    let wl = Workload::new(kind, DEFAULT_SEED);
    let spec = wl.setup()?;
    let mut c = spec.run(kind.workers());
    if !c.failures.is_empty() {
        return Err(format!(
            "{} runs failed; nothing recorded",
            c.failures.len()
        ));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.txt", kind.name()));
    std::fs::write(&path, check::digests(&mut c).to_text())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("recorded {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if args.write_reference {
        return write_reference(args.kind);
    }
    let host = HostInfo::probe();
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let host_line: String = host
        .to_json(args.seed)
        .render()
        .lines()
        .map(str::trim)
        .collect();
    println!("host {host_line}");
    let opts = Options {
        workload: Workload::new(args.kind, args.seed),
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut report = if opts.trace {
        bench::run_traced(&opts)?
    } else {
        bench::run_timed(&opts)?
    };
    for m in &report.metrics {
        println!("{}", metric_line(m, ""));
    }
    for (m, note) in &report.extra {
        println!("{}", metric_line(m, note));
    }
    for line in &report.table {
        println!("{line}");
    }
    if let Some(doc) = report.spans.take() {
        let path = write_spans(args.kind, args.seed, &doc)?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", result_line(&report));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
