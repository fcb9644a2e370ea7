//! The measured runs: timed passes for the end-to-end metrics, and the
//! traced run for the per-layer metrics.

use crate::check::{self, Digests};
use crate::layers;
use crate::mirror;
use crate::probe;
use crate::stats::{median, percentile, ratio};
use crate::workload::{Kind, Workload, DEFAULT_SEED};
use rtosbench::{tail, Campaign, CampaignSpec};
use std::time::{Duration, Instant};

/// Each set-up round repeats set-up until this much time is spent on it
/// (at least once, at most [`MAX_SETUP_REPS`] times), so that a short
/// set-up still yields a steady median.
pub const SETUP_SLICE_S: f64 = 0.05;

/// A set-up round runs before a pass whenever set-up has so far taken
/// less than this share of the time the passes took. A long set-up
/// (`tail_openloop`: half a pass) then leaves most of the run to the
/// passes, and a short one runs before every pass.
pub const SETUP_SHARE: f64 = 0.25;

/// Most set-up repetitions in one set-up round.
pub const MAX_SETUP_REPS: usize = 20;

/// Fewest timed passes per run, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload and its seed.
    pub workload: Workload,
    /// Measurement time budget.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed passes.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A run's result: correctness tally, the metrics of the result line, and
/// human-readable lines printed above it.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Cells executed and checked.
    pub attempted: usize,
    /// Cells that failed to run or failed the output check.
    pub failed: usize,
    /// The result-line metrics.
    pub metrics: Vec<Metric>,
    /// Metrics reported by name and unit but not in the result line,
    /// because they do not exist on every workload.
    pub extra: Vec<(Metric, String)>,
    /// Notes and check failures.
    pub notes: Vec<String>,
    /// The per-layer self-time table (traced runs).
    pub table: Vec<String>,
    /// Spans of the traced passes, as a JSON document.
    pub spans: Option<String>,
}

impl Report {
    /// An empty report that has seen no failure yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// `failed / attempted`, or 0 before anything was attempted.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    fn fail(&mut self, cells: usize, note: String) {
        self.failed += cells;
        self.correct = false;
        self.notes.push(note);
    }
}

/// One executed pass of the workload.
struct Pass {
    campaign: Campaign,
    wall: Duration,
}

impl Pass {
    fn run(spec: &CampaignSpec, workers: usize) -> Pass {
        let t = Instant::now();
        let campaign = spec.run(workers);
        Pass {
            campaign,
            wall: t.elapsed(),
        }
    }

    /// Share of the pass wall time the workers spent inside cells.
    fn busy_frac(&self) -> f64 {
        let cells: u64 = self.campaign.outcomes.iter().map(|o| o.host_nanos).sum();
        cells as f64 / (self.campaign.workers as f64 * self.wall.as_nanos() as f64)
    }

    fn rate(&self, spec: &CampaignSpec) -> f64 {
        Workload::stepped_cycles(&self.campaign, spec) as f64 / self.wall.as_secs_f64() / 1e6
    }
}

/// Checks one executed pass and tallies it into `report`: executor
/// failures, digests against the `first` pass of the run, and — for the
/// default seed's first pass — digests against the recorded reference.
/// Returns the pass's digests.
///
/// # Errors
///
/// Fails when the reference file is malformed.
pub fn check_campaign(
    kind: Kind,
    seed: u64,
    campaign: &mut Campaign,
    first: Option<&Digests>,
    report: &mut Report,
) -> Result<Digests, String> {
    report.attempted += campaign.outcomes.len() + campaign.failures.len();
    for f in &campaign.failures {
        report.fail(
            1,
            format!("run failure: {} ({}): {}", f.label, f.kind.name(), f.detail),
        );
    }
    let d = check::digests(campaign);
    match first {
        Some(first) => {
            let bad = d.mismatches(first);
            if bad > 0 || d.artifact != first.artifact {
                report.fail(
                    bad,
                    format!("{bad} cells rendered other bytes than the first pass"),
                );
            }
        }
        None if seed == DEFAULT_SEED => {
            let reference = check::reference(kind)?;
            let bad = d.mismatches(&reference);
            if bad > 0 || d.artifact != reference.artifact || d.len != reference.len {
                report.fail(
                    bad,
                    format!(
                        "artifact digest {:016x} ({} bytes), reference {:016x} ({} bytes); \
                         {bad} cells differ",
                        d.artifact, d.len, reference.artifact, reference.len
                    ),
                );
            } else {
                report.notes.push(format!(
                    "artifact digest {:016x} matches the reference ({} cells)",
                    d.artifact,
                    d.cells.len()
                ));
            }
        }
        None => {}
    }
    Ok(d)
}

fn run_differential(wl: &Workload, spec: &CampaignSpec, pass: &Campaign, report: &mut Report) {
    let diff = check::differential(wl, spec, pass);
    report.attempted += diff.attempted;
    if diff.failed.is_empty() {
        report.notes.push(format!(
            "differential sample: {} cells re-executed, identical bytes",
            diff.attempted
        ));
    } else {
        report.fail(
            diff.failed.len(),
            format!("differential sample diverged: {}", diff.failed.join(", ")),
        );
    }
}

/// The timed run: set-up rounds and whole passes, repeated until
/// `seconds` are spent, then the untimed differential sample.
///
/// Host times are taken from each cell's fastest time over the passes,
/// as the repository's `bench_campaign` keeps per-cell minimums:
/// `cell_ms_*` directly, and `sim_mcycles_per_s` as a pass rebuilt from
/// those times, spread over the workers as busy as they were (median
/// busy fraction). On a shared host, other tenants slow passes by up to
/// half; between runs the median pass spread 20% and the fastest pass
/// 15%, while the per-cell fastest times spread 6%. `setup_s` is the
/// median of all set-ups of the run. Every host time is then brought to
/// the reference host's speed by the same statistic of the run's
/// [`probe`] times, because a slow stretch of the host can last the whole
/// run: the fastest times by the fastest probe, the median set-up by the
/// median probe.
///
/// # Errors
///
/// Fails when set-up fails or a reference file is malformed.
pub fn run_timed(opts: &Options) -> Result<Report, String> {
    let wl = opts.workload;
    let workers = wl.kind.workers();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut report = Report::new();

    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut walls = Vec::new();
    let mut busy = Vec::new();
    let mut probe_ms = Vec::new();
    let mut cells = 0;
    // Each cell's fastest time over the passes, by run index.
    let mut cell_ms = Vec::new();
    let mut first: Option<(Pass, Digests, CampaignSpec)> = None;
    let mut current: Option<CampaignSpec> = None;
    while rates.len() < MIN_PASSES || Instant::now() < deadline {
        // Set-ups are spread over the run, between passes, so their
        // median sees the same host conditions as the passes.
        if current.is_none() || setup.iter().sum::<f64>() < SETUP_SHARE * walls.iter().sum::<f64>()
        {
            let mut spent = 0.0;
            for _ in 0..MAX_SETUP_REPS {
                if current.is_some() && spent >= SETUP_SLICE_S {
                    break;
                }
                let t = Instant::now();
                current = Some(wl.setup()?);
                let s = t.elapsed().as_secs_f64();
                setup.push(s);
                spent += s;
            }
        }
        let spec = current.as_ref().expect("at least one set-up");
        probe_ms.push(probe::measure());
        let mut pass = Pass::run(spec, workers);
        rates.push(pass.rate(spec));
        walls.push(pass.wall.as_secs_f64());
        busy.push(pass.busy_frac());
        cells = spec.runs.len();
        cell_ms.resize(cells, f64::INFINITY);
        for o in &pass.campaign.outcomes {
            cell_ms[o.index] = cell_ms[o.index].min(o.host_nanos as f64 / 1e6);
        }
        let d = check_campaign(
            wl.kind,
            wl.seed,
            &mut pass.campaign,
            first.as_ref().map(|f| &f.1),
            &mut report,
        )?;
        if first.is_none() {
            first = Some((pass, d, spec.clone()));
        }
    }
    let (first, _, spec) = first.expect("at least one pass");
    run_differential(&wl, &spec, &first.campaign, &mut report);

    let agg = first.campaign.aggregate_metrics();
    cell_ms.retain(|t| t.is_finite());
    let samples = cell_ms.len();
    // The pass rebuilt from each cell's fastest time, spread over the
    // workers as busy as they were: cycles / (sum of cell ms / workers /
    // busy fraction).
    let stepped = Workload::stepped_cycles(&first.campaign, &spec) as f64;
    let rate = stepped * workers as f64 * median(&busy) / cell_ms.iter().sum::<f64>() / 1e3;
    // Host times at the reference host's speed.
    let fastest_probe = probe_ms.iter().copied().fold(f64::INFINITY, f64::min);
    let slowdown = probe::slowdown(fastest_probe);
    let setup_slowdown = probe::slowdown(median(&probe_ms));
    report.metrics = vec![
        Metric::new("sim_mcycles_per_s", rate * slowdown, "Mc/s"),
        Metric::new("cell_ms_p50", median(&cell_ms) / slowdown, "ms"),
        Metric::new("setup_s", median(&setup) / setup_slowdown, "s"),
        Metric::new("peak_rss_mb", crate::host::peak_rss_mb()?, "MB"),
        Metric::new(
            "sim_switch_mean_cycles",
            agg.latency.mean().unwrap_or(0.0),
            "cycles",
        ),
        Metric::new(
            "sim_switch_p99_cycles",
            agg.latency.percentile(99.0).unwrap_or(0) as f64,
            "cycles",
        ),
    ];
    report.extra.push((
        Metric::new("failed_frac", report.failed_frac(), "frac"),
        format!("{} of {} cells", report.failed, report.attempted),
    ));
    match percentile(&cell_ms, 95.0, 10) {
        Some(p95) => report.extra.push((
            Metric::new("cell_ms_p95", p95 / slowdown, "ms"),
            format!("{samples} cells"),
        )),
        None => report.notes.push(format!(
            "cell_ms_p95 not reported: {samples} cells leave fewer than 10 beyond it"
        )),
    }
    if wl.kind == Kind::TailOpenloop {
        let slo = agg.slo.ok_or("tail_openloop runs without an SLO")?;
        report.extra.push((
            Metric::new("slo_miss_rate", slo.miss_rate(), "frac"),
            format!(
                "{} of {} episodes over {} cycles",
                slo.misses,
                slo.total,
                tail::SLO_CYCLES
            ),
        ));
    }
    report.notes.push(format!(
        "host speed probe {fastest_probe:.3}/{:.3} ms (fastest/median, reference {} ms): \
         fastest times above are the measured ones divided by {slowdown:.4}, rates \
         multiplied by it, the median set-up divided by {setup_slowdown:.4}; \
         measured {rate:.3} Mc/s, cell p50 {:.3} ms, setup {:.4} s",
        median(&probe_ms),
        probe::REFERENCE_MS,
        median(&cell_ms),
        median(&setup),
    ));
    let lo = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = walls.iter().copied().fold(0.0, f64::max);
    report.notes.push(format!(
        "{} passes of {} cells on {workers} workers, pass wall {lo:.3}/{:.3}/{hi:.3} s \
         (min/median/max), pass rate {:.3}/{:.3} Mc/s (best/median), workers {:.3} busy, \
         {} episodes pooled",
        rates.len(),
        cells,
        median(&walls),
        rates.iter().copied().fold(0.0, f64::max),
        median(&rates),
        median(&busy),
        agg.latency.count()
    ));
    Ok(report)
}

/// Compares a traced cell with the executor's: cycles, retired
/// instructions, raw switch count and core counters must be equal.
fn same_cell(a: &rtosbench::RunOutcome, b: &rtosbench::RunOutcome) -> bool {
    match (&a.sim, &b.sim) {
        (Some(x), Some(y)) => {
            a.label == b.label
                && x.cycles == y.cycles
                && x.retired == y.retired
                && x.raw_records.len() == y.raw_records.len()
                && x.counters == y.counters
        }
        _ => false,
    }
}

/// The traced run: one untraced pass with the workload's workers (the
/// reference and the executor's busy fraction), then pairs of an
/// untraced sequential pass and a traced pass until `seconds` are spent,
/// then the `run_stepwise` probe and the differential sample.
///
/// # Errors
///
/// Fails when set-up or a traced cell fails, or a reference file is
/// malformed.
pub fn run_traced(opts: &Options) -> Result<Report, String> {
    let wl = opts.workload;
    let workers = wl.kind.workers();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut report = Report::new();
    let spec = wl.setup()?;
    let mut par = Pass::run(&spec, workers);
    let busy_frac = par.busy_frac();
    let reference = check_campaign(wl.kind, wl.seed, &mut par.campaign, None, &mut report)?;

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut per_pass = Vec::new();
    let mut spans = Vec::new();
    while spans.is_empty() || Instant::now() < deadline {
        untraced.push(Pass::run(&spec, 1).rate(&spec));
        // On a thread of its own, as the executor runs every cell.
        let mut t = std::thread::scope(|s| s.spawn(|| mirror::traced_pass(&wl, &spec)).join())
            .map_err(|_| "traced pass panicked".to_string())??;
        report.attempted += t.campaign.outcomes.len();
        let diverged: Vec<&str> = t
            .campaign
            .outcomes
            .iter()
            .zip(&par.campaign.outcomes)
            .filter(|(a, b)| !same_cell(a, b))
            .map(|(a, _)| a.label.as_str())
            .collect();
        let missing = par
            .campaign
            .outcomes
            .len()
            .abs_diff(t.campaign.outcomes.len());
        if !diverged.is_empty() || missing > 0 {
            let note = format!(
                "traced cells differ from the executor's: {}",
                diverged.join(", ")
            );
            report.fail(diverged.len() + missing, note);
        } else if check::digests(&mut t.campaign) != reference {
            report.fail(
                0,
                "traced artifact renders other bytes than the executor's".into(),
            );
        }
        traced.push(layers::traced_rate(&t, &spec));
        per_pass.push(layers::pass_metrics(&t));
        spans.push(t.spans);
    }
    let probe = layers::step_probe(&wl, &spec)?;
    run_differential(&wl, &spec, &par.campaign, &mut report);

    report.metrics = layers::metrics(&per_pass, &traced, &untraced, busy_frac, &probe);
    report.table = layers::self_time_table(spans.last().expect("at least one traced pass"));
    report.notes.push(format!(
        "{} traced passes: untraced sequential {:.3} Mc/s, traced {:.3} Mc/s (medians)",
        spans.len(),
        median(&untraced),
        median(&traced),
    ));
    report.spans = Some(layers::spans_json(&spans));
    Ok(report)
}
