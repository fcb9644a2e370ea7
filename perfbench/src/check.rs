//! The output check behind `failed`: artifact digests against the
//! recorded references, pass-to-pass determinism, and an untimed
//! differential sample.

use crate::workload::{Kind, Workload};
use rtosbench::{Campaign, CampaignSpec, RunOutcome};
use rvsim_isa::rng::Rng64;
use rvsim_snapshot::fnv1a;
use std::time::Duration;

/// FNV-1a digests of a campaign's deterministic v1 artifact: the whole
/// document and each run's entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digests {
    /// Digest of the whole rendered artifact.
    pub artifact: u64,
    /// Length of the whole rendered artifact, bytes.
    pub len: usize,
    /// `(label, digest)` of each run entry, in artifact order.
    pub cells: Vec<(String, u64)>,
}

/// Digests of the v1 rendering of `c` (telemetry is host-dependent and
/// switched off for the rendering).
pub fn digests(c: &mut Campaign) -> Digests {
    let telemetry = std::mem::replace(&mut c.telemetry, false);
    let doc = c.to_json();
    c.telemetry = telemetry;
    let text = doc.render();
    let cells = doc
        .get("runs")
        .and_then(|r| r.as_array())
        .unwrap_or(&[])
        .iter()
        .map(|run| {
            let label = run.get("label").and_then(|l| l.as_str()).unwrap_or("");
            (label.to_string(), fnv1a(run.render().as_bytes()))
        })
        .collect();
    Digests {
        artifact: fnv1a(text.as_bytes()),
        len: text.len(),
        cells,
    }
}

impl Digests {
    /// The reference file format: `artifact <digest> <len>` and one
    /// `<digest> <label>` line per run.
    pub fn to_text(&self) -> String {
        let mut s = format!("artifact {:016x} {}\n", self.artifact, self.len);
        for (label, d) in &self.cells {
            s.push_str(&format!("{d:016x} {label}\n"));
        }
        s
    }

    /// Parses [`to_text`](Self::to_text) output.
    ///
    /// # Errors
    ///
    /// Fails on a missing header or a malformed line.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty reference")?;
        let mut h = header.split_whitespace();
        let (Some("artifact"), Some(d), Some(len)) = (h.next(), h.next(), h.next()) else {
            return Err(format!("bad reference header `{header}`"));
        };
        let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("`{s}`: {e}"));
        let artifact = hex(d)?;
        let len = len.parse().map_err(|e| format!("`{len}`: {e}"))?;
        let cells = lines
            .map(|l| {
                let (d, label) = l.split_once(' ').ok_or(format!("bad line `{l}`"))?;
                Ok((label.to_string(), hex(d)?))
            })
            .collect::<Result<_, String>>()?;
        Ok(Digests {
            artifact,
            len,
            cells,
        })
    }

    /// Runs of `self` whose entry differs from `expected` (or is missing
    /// there), plus runs `expected` has and `self` lacks.
    pub fn mismatches(&self, expected: &Digests) -> usize {
        let differ = self
            .cells
            .iter()
            .enumerate()
            .filter(|(i, cell)| expected.cells.get(*i) != Some(cell))
            .count();
        differ + expected.cells.len().saturating_sub(self.cells.len())
    }
}

/// The recorded default-seed digests of `kind`.
///
/// # Errors
///
/// Fails when the reference file is malformed.
pub fn reference(kind: Kind) -> Result<Digests, String> {
    let text = match kind {
        Kind::Fig9Matrix => include_str!("../reference/fig9_matrix.txt"),
        Kind::TailOpenloop => include_str!("../reference/tail_openloop.txt"),
        Kind::SmpContention => include_str!("../reference/smp_contention.txt"),
        Kind::SnapshotFork => include_str!("../reference/snapshot_fork.txt"),
    };
    Digests::parse(text).map_err(|e| format!("reference/{}.txt: {e}", kind.name()))
}

/// Renders one outcome as a one-run v1 artifact.
fn render_one(name: &'static str, o: &RunOutcome) -> String {
    Campaign {
        name,
        workers: 1,
        telemetry: false,
        outcomes: vec![o.clone()],
        failures: Vec::new(),
        host_nanos: 0,
        sections: Vec::new(),
    }
    .to_json()
    .render()
}

/// Cells the differential sample re-executes.
pub const SAMPLE: usize = 3;

/// Picks `n` distinct run indices of `0..len` from the seed.
pub fn sample_indices(seed: u64, salt: u64, len: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
    let mut picked = Vec::new();
    while picked.len() < n.min(len) {
        let i = rng.index(len);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Outcome of the differential sample.
#[derive(Debug, Default)]
pub struct Differential {
    /// Cells re-executed.
    pub attempted: usize,
    /// Cells whose re-execution rendered other bytes (or failed).
    pub failed: Vec<String>,
}

/// Re-executes [`SAMPLE`] seed-chosen cells of `pass` through another
/// path of the program and compares the rendered bytes:
/// `run_stepwise` against the batched default on `fig9_matrix` and
/// `tail_openloop`, a cold run against the warm fork on
/// `snapshot_fork`, and the chunked (wall-limited) executor against the
/// unchunked run on `smp_contention`.
pub fn differential(wl: &Workload, spec: &CampaignSpec, pass: &Campaign) -> Differential {
    let mut out = Differential::default();
    for i in sample_indices(wl.seed, 0xd1ff, spec.runs.len(), SAMPLE) {
        let mut variant = spec.runs[i].clone();
        let mut single = CampaignSpec::new(spec.name);
        single.slo = spec.slo;
        match wl.kind {
            Kind::Fig9Matrix | Kind::TailOpenloop => variant.stepwise = true,
            Kind::SnapshotFork => variant.warm = None,
            Kind::SmpContention => single = single.with_wall_limit(Duration::from_secs(120)),
        }
        let label = variant.label();
        out.attempted += 1;
        let again = single.with(variant).run(1);
        let same = match (
            again.outcomes.first(),
            pass.outcomes.iter().find(|o| o.index == i),
        ) {
            (Some(a), Some(b)) => render_one(spec.name, a) == render_one(spec.name, b),
            _ => false,
        };
        if !same {
            out.failed.push(label);
        }
    }
    out
}
