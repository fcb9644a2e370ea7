//! The four benchmark workloads and the inputs each derives from a seed.
//!
//! Every workload is a [`CampaignSpec`] run through the public executor.
//! The seed enters only as generated inputs: open-loop arrival lists on
//! `tail_openloop` and per-fork interrupt plans on `snapshot_fork`, both
//! delivered through the [`WorkloadSpec::OpenLoop`] arrivals hook. The
//! seed is folded into the run's `param`, so the hook stays a plain `fn`
//! and the inputs are recorded in every run label.

use crate::mirror::{self, Tracer};
use rtosbench::{tail, workloads, CampaignSpec, RunSpec, WorkloadSpec};
use rtosunit::Preset;
use rvsim_cores::CoreKind;
use rvsim_isa::rng::Rng64;

/// The seed whose inputs reproduce the repository's own figures
/// (`tail::bursty_arrivals` unchanged) and whose artifacts are pinned in
/// `reference/`.
pub const DEFAULT_SEED: u64 = 0;

/// Boot prefix of every `snapshot_fork` cell, in cycles. Boot snapshots
/// are taken before any external interrupt is scheduled, and every fork
/// plan injects strictly after this cycle.
pub const BOOT_CYCLES: u64 = 8_000;

/// Cycles each fork simulates after the boot prefix.
pub const FORK_HORIZON: u64 = 60_000;

/// Forks per `snapshot_fork` cell.
pub const FORKS_PER_CELL: usize = 8;

/// External interrupts in each fork's plan.
pub const FORK_IRQS: usize = 8;

/// Presets of the `smp_contention` and `snapshot_fork` matrices.
const PAIR: [Preset; 2] = [Preset::Vanilla, Preset::Slt];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's Fig. 9 matrix, cold boot, closed loop.
    Fig9Matrix,
    /// The `fig_tail` sweep with seed-generated open-loop arrivals.
    TailOpenloop,
    /// `pingpong_semaphore` on hart 0 beside memory-pounding harts.
    SmpContention,
    /// Per-cell boot snapshots forked under seed-generated interrupt plans.
    SnapshotFork,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::Fig9Matrix,
        Kind::TailOpenloop,
        Kind::SmpContention,
        Kind::SnapshotFork,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig9Matrix => "fig9_matrix",
            Kind::TailOpenloop => "tail_openloop",
            Kind::SmpContention => "smp_contention",
            Kind::SnapshotFork => "snapshot_fork",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Executor workers: every available CPU for `fig9_matrix`, as the
    /// `fig9` binary uses; one for the others.
    pub fn workers(self) -> usize {
        match self {
            Kind::Fig9Matrix => crate::host::available_parallelism(),
            _ => 1,
        }
    }
}

/// A workload instantiated for one seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
}

/// SplitMix64 finaliser: decorrelates nearby seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bits of a `tail_openloop` param that hold the mean gap; the seed salt
/// sits above them.
const GAP_BITS: u32 = 13;

/// Open-loop arrivals for `param = gap | salt << GAP_BITS`. Salt 0 is
/// exactly [`tail::bursty_arrivals`]; any other salt draws the same
/// Markov-modulated process from another generator state (the process
/// seeds itself from its horizon) and keeps the arrivals inside the
/// budget.
fn seeded_bursty_arrivals(param: u32, run_cycles: u64) -> Vec<u64> {
    let gap = param & ((1 << GAP_BITS) - 1);
    let salt = u64::from(param >> GAP_BITS);
    tail::bursty_arrivals(gap, run_cycles + salt)
        .into_iter()
        .take_while(|&at| at < run_cycles)
        .collect()
}

/// Generator states a non-default `tail_openloop` seed chooses among, for
/// each mean gap.
const SALT_CANDIDATES: u64 = 16;

/// The salt of mean gap `gap` under a non-default `seed`: of
/// [`SALT_CANDIDATES`] seed-derived generator states, the one whose
/// arrival count comes closest to seed 0's. Bursty arrival counts vary by
/// up to a tenth between generator states, and a cell's host time grows
/// faster than its count (set-up schedules every arrival), so a free
/// count would make a seed's load, not the simulator, move the host
/// metrics. The seed still decides every arrival time.
fn tail_salt(seed: u64, gap: u32, run_cycles: u64) -> u32 {
    let target = seeded_bursty_arrivals(gap, run_cycles).len();
    (0..SALT_CANDIDATES)
        // Any salt in 1..2^19 keeps `gap | salt << 13` in a u32.
        .map(|k| (mix(seed ^ mix(k)) % ((1 << (32 - GAP_BITS)) - 1)) as u32 + 1)
        .min_by_key(|&salt| {
            seeded_bursty_arrivals(gap | salt << GAP_BITS, run_cycles)
                .len()
                .abs_diff(target)
        })
        .expect("at least one candidate")
}

/// Bits of a `snapshot_fork` param that index the suite workload; the
/// fork's plan salt sits above them.
const SUITE_BITS: u32 = 3;

fn suite_index(param: u32) -> usize {
    (param & ((1 << SUITE_BITS) - 1)) as usize
}

/// Kernel builder of a `snapshot_fork` run: the suite workload the param
/// indexes.
fn fork_build(
    param: u32,
    preset: Preset,
) -> Result<freertos_lite::GuestImage, freertos_lite::KernelError> {
    workloads::build(&workloads::ALL[suite_index(param)], preset)
}

/// A fork's external-interrupt plan: [`FORK_IRQS`] injections drawn
/// uniformly after the boot prefix from the param's salt. Salt 0 (the
/// boot cell itself) injects nothing.
fn fork_arrivals(param: u32, run_cycles: u64) -> Vec<u64> {
    let salt = param >> SUITE_BITS;
    if salt == 0 {
        return Vec::new();
    }
    let mut rng = Rng64::new(mix(u64::from(salt)));
    let span = run_cycles - BOOT_CYCLES - 1;
    let mut at: Vec<u64> = (0..FORK_IRQS)
        .map(|_| BOOT_CYCLES + 1 + rng.below(span))
        .collect();
    at.sort_unstable();
    at
}

/// Replaces the `param` of an open-loop run.
fn with_param(mut run: RunSpec, new: u32) -> RunSpec {
    if let WorkloadSpec::OpenLoop { param, .. } = &mut run.workload {
        *param = new;
    }
    run
}

impl Workload {
    /// The workload `kind` with inputs from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        Workload { kind, seed }
    }

    /// The cold cells of one pass. On `snapshot_fork` these are the boot
    /// cells, one per configuration, which set-up forks.
    pub fn cells(&self) -> CampaignSpec {
        let name = self.kind.name();
        match self.kind {
            Kind::Fig9Matrix => {
                CampaignSpec::matrix(name, &CoreKind::ALL, &Preset::LATENCY_SET, &workloads::ALL)
            }
            Kind::TailOpenloop => {
                let mut spec = tail::tail_spec(false);
                spec.name = name;
                for run in &mut spec.runs {
                    if let WorkloadSpec::OpenLoop {
                        param,
                        arrivals,
                        run_cycles,
                        ..
                    } = &mut run.workload
                    {
                        // Every preset of a gap sees the same arrivals.
                        let salt = if self.seed == DEFAULT_SEED {
                            0
                        } else {
                            tail_salt(self.seed, *param, *run_cycles)
                        };
                        *param |= salt << GAP_BITS;
                        *arrivals = seeded_bursty_arrivals;
                    }
                }
                spec
            }
            Kind::SmpContention => {
                let pingpong = workloads::by_name("pingpong_semaphore").expect("suite workload");
                let mut spec = CampaignSpec::new(name);
                for core in CoreKind::ALL {
                    for preset in PAIR {
                        for harts in [2, 4] {
                            spec.runs.push(
                                RunSpec::new(core, preset, WorkloadSpec::Suite(pingpong))
                                    .with_harts(harts),
                            );
                        }
                    }
                }
                spec
            }
            Kind::SnapshotFork => {
                let mut spec = CampaignSpec::new(name);
                for core in CoreKind::ALL {
                    for preset in PAIR {
                        for (i, w) in workloads::ALL.iter().enumerate() {
                            let workload = WorkloadSpec::OpenLoop {
                                name: w.name,
                                param: i as u32,
                                build: fork_build,
                                run_cycles: BOOT_CYCLES + FORK_HORIZON,
                                arrivals: fork_arrivals,
                            };
                            spec.runs.push(RunSpec::new(core, preset, workload));
                        }
                    }
                }
                spec
            }
        }
    }

    /// The cold fork specs of boot cell `index`: the cell with a
    /// seed-derived plan salt in its param.
    pub fn forks(&self, index: usize, cell: &RunSpec) -> Vec<RunSpec> {
        let mut rng = Rng64::new(mix(self.seed ^ mix(index as u64)));
        let base = match cell.workload {
            WorkloadSpec::OpenLoop { param, .. } => param,
            _ => 0,
        };
        (0..FORKS_PER_CELL)
            .map(|_| {
                let salt = (rng.next_u32() >> SUITE_BITS).max(1);
                with_param(cell.clone(), base | salt << SUITE_BITS)
            })
            .collect()
    }

    /// One pass's set-up, returning the spec the pass executes.
    ///
    /// Cold workloads prepare every cell exactly as the executor does —
    /// kernel build, `System::new`/`SmpSystem::new`, image install,
    /// interrupt scheduling — and drop the machines. `snapshot_fork` boots
    /// each cell to [`BOOT_CYCLES`], seals its snapshot, opens it through
    /// `RunSpec::from_snapshot`, and forks it into warm runs.
    ///
    /// # Errors
    ///
    /// Fails when a kernel does not build or a boot prefix halts.
    pub fn setup(&self) -> Result<CampaignSpec, String> {
        let cells = self.cells();
        if self.kind != Kind::SnapshotFork {
            let mut off = Tracer::off();
            for run in &cells.runs {
                mirror::prepare(run, &mut off, true)?;
            }
            return Ok(cells);
        }
        let mut spec = CampaignSpec::new(cells.name);
        for (i, cell) in cells.runs.iter().enumerate() {
            let doc = cell.boot_snapshot(BOOT_CYCLES)?;
            let warm = cell.clone().from_snapshot(&doc)?.warm;
            for mut fork in self.forks(i, cell) {
                fork.warm.clone_from(&warm);
                spec.runs.push(fork);
            }
        }
        Ok(spec)
    }

    /// Simulated cycles a pass's outcome stepped on the host: every cycle
    /// of a cold run (hart 0 on SMP, as `Campaign::simulated_cycles`
    /// counts), and only the cycles past the boot prefix of a fork.
    pub fn stepped_cycles(campaign: &rtosbench::Campaign, spec: &CampaignSpec) -> u64 {
        campaign
            .outcomes
            .iter()
            .filter_map(|o| {
                let boot = spec.runs[o.index]
                    .warm
                    .as_ref()
                    .map_or(0, |w| w.boot_cycles());
                o.sim.as_ref().map(|s| s.cycles - boot)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_repository_arrivals() {
        let spec = Workload::new(Kind::TailOpenloop, DEFAULT_SEED).cells();
        let reference = tail::tail_spec(false);
        assert_eq!(spec.runs.len(), reference.runs.len());
        for (run, base) in spec.runs.iter().zip(&reference.runs) {
            let (
                WorkloadSpec::OpenLoop {
                    param,
                    arrivals,
                    run_cycles,
                    ..
                },
                WorkloadSpec::OpenLoop {
                    param: p0,
                    run_cycles: r0,
                    ..
                },
            ) = (run.workload, base.workload)
            else {
                panic!("tail runs are open loop");
            };
            assert_eq!((param, run_cycles), (p0, r0));
            assert_eq!(arrivals(param, run_cycles), tail::bursty_arrivals(p0, r0));
        }
    }

    #[test]
    fn other_seeds_change_the_arrivals_but_keep_the_budget() {
        let a = Workload::new(Kind::TailOpenloop, 7).cells();
        let b = Workload::new(Kind::TailOpenloop, 8).cells();
        let arr = |spec: &CampaignSpec| match spec.runs[0].workload {
            WorkloadSpec::OpenLoop {
                param,
                arrivals,
                run_cycles,
                ..
            } => arrivals(param, run_cycles),
            _ => unreachable!(),
        };
        let (x, y) = (arr(&a), arr(&b));
        assert_ne!(x, y);
        assert!(x.iter().all(|&at| at < tail::RUN_CYCLES));
        assert_ne!(a.runs[0].label(), b.runs[0].label());
    }

    #[test]
    fn other_seeds_keep_the_arrival_count_close_to_seed_0() {
        let counts = |seed| {
            let spec = Workload::new(Kind::TailOpenloop, seed).cells();
            spec.runs
                .iter()
                .map(|run| match run.workload {
                    WorkloadSpec::OpenLoop {
                        param,
                        arrivals,
                        run_cycles,
                        ..
                    } => arrivals(param, run_cycles).len(),
                    _ => unreachable!(),
                })
                .collect::<Vec<_>>()
        };
        let base = counts(DEFAULT_SEED);
        for seed in 1..20 {
            for (n, b) in counts(seed).into_iter().zip(&base) {
                assert!(
                    n.abs_diff(*b) * 20 <= *b,
                    "seed {seed}: {n} arrivals, seed 0 has {b}"
                );
            }
        }
    }

    #[test]
    fn fork_plans_start_after_the_boot_prefix() {
        let w = Workload::new(Kind::SnapshotFork, 3);
        let cells = w.cells();
        let forks = w.forks(5, &cells.runs[5]);
        assert_eq!(forks.len(), FORKS_PER_CELL);
        for f in &forks {
            let WorkloadSpec::OpenLoop {
                param,
                arrivals,
                run_cycles,
                ..
            } = f.workload
            else {
                panic!("forks are open loop");
            };
            assert_eq!(suite_index(param), 5);
            let plan = arrivals(param, run_cycles);
            assert_eq!(plan.len(), FORK_IRQS);
            assert!(plan.iter().all(|&at| at > BOOT_CYCLES && at < run_cycles));
        }
    }
}
