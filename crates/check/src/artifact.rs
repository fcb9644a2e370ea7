//! Self-contained replay artifacts for failing episodes.
//!
//! A failure serializes everything needed to re-run it — core kind,
//! generation config, the (shrunk) op list, the interrupt plan, budgets,
//! any injected fault, and the observed mismatch — as one JSON document
//! under `results/repro/`. The `checkfuzz` bin re-runs such files
//! byte-for-byte; nothing references generator internals except the stable
//! numeric [`GenOp`] field encoding, so artifacts survive generator
//! *distribution* changes (new probability tables) though not op-format
//! changes.

use crate::lockstep::{EpisodeSpec, Fault, IrqEvent, Mismatch, IMEM_BASE, IMEM_SIZE};
use crate::oracle::Violation;
use crate::scenario::{Action, ScenarioSpec, TaskScript};
use freertos_lite::klayout::NUM_PRIOS;
use rtosbench::json::Json;
use rtosunit::Preset;
use rvsim_cores::CoreKind;
use rvsim_isa::csr;
use rvsim_isa::progen::{GenConfig, GenOp, ProgramSpec};

/// Artifact format version (bump on incompatible `GenOp` changes).
pub const VERSION: u64 = 1;

/// Serializes a failing lockstep episode (plus the mismatch it produced
/// and the seed it came from) to JSON.
pub fn lockstep_to_json(ep: &EpisodeSpec, seed: u64, mismatch: &Mismatch) -> Json {
    let cfg = ep.spec.cfg;
    let ops = ep
        .spec
        .ops
        .iter()
        .map(|op| Json::Array(op.encode_fields().into_iter().map(Json::Int).collect()))
        .collect();
    let irqs = ep
        .irqs
        .iter()
        .map(|e| Json::Array(vec![Json::UInt(e.at_retire), Json::UInt(u64::from(e.mask))]))
        .collect();
    Json::object()
        .with("kind", Json::Str("lockstep".into()))
        .with("version", Json::UInt(VERSION))
        .with("core", Json::Str(ep.core.tag().into()))
        .with("seed", Json::UInt(seed))
        .with(
            "fault",
            match ep.fault {
                Some(f) => Json::Str(f.name().into()),
                None => Json::Null,
            },
        )
        .with("max_retires", Json::UInt(ep.max_retires))
        .with("max_cycles", Json::UInt(ep.max_cycles))
        .with("blocks", Json::Bool(ep.blocks))
        .with("snap", Json::Bool(ep.snap))
        .with(
            "gen",
            Json::object()
                .with("base", Json::UInt(u64::from(cfg.base)))
                .with("data_base", Json::UInt(u64::from(cfg.data_base)))
                .with("data_len", Json::UInt(u64::from(cfg.data_len)))
                .with("len", Json::UInt(cfg.len as u64))
                .with("custom_ops", Json::Bool(cfg.custom_ops))
                .with("misaligned", Json::Bool(cfg.misaligned))
                .with("allow_wfi", Json::Bool(cfg.allow_wfi)),
        )
        .with("ops", Json::Array(ops))
        .with("irqs", Json::Array(irqs))
        .with(
            "mismatch",
            Json::object()
                .with("field", Json::Str(mismatch.field.clone()))
                .with("engine", Json::UInt(u64::from(mismatch.engine)))
                .with("golden", Json::UInt(u64::from(mismatch.golden)))
                .with("retired", Json::UInt(mismatch.retired))
                .with("cycle", Json::UInt(mismatch.cycle)),
        )
}

/// The interrupt lines an episode's plan may raise.
const IRQ_LINES: u32 = csr::MIP_MSIP | csr::MIP_MTIP | csr::MIP_MEIP;

/// Largest data window the generator's offsets can address.
const MAX_DATA_LEN: u32 = 4096;

/// A number that fits `T` without truncation.
fn num<T: TryFrom<u64>>(j: &Json) -> Option<T> {
    T::try_from(j.as_u64()?).ok()
}

fn get_num<T: TryFrom<u64>>(j: &Json, key: &str) -> Option<T> {
    num(j.get(key)?)
}

fn get_bool(j: &Json, key: &str) -> Option<bool> {
    match j.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn num_i64(j: &Json) -> Option<i64> {
    match j {
        Json::Int(v) => Some(*v),
        Json::UInt(v) => i64::try_from(*v).ok(),
        _ => None,
    }
}

/// Deserializes a lockstep artifact back into a runnable episode.
/// Returns `None` for malformed or incompatible documents, including
/// numbers that do not fit their field, a program that does not fit the
/// instruction memory from its base, a data window that is empty, larger
/// than the generator addresses or wraps the address space, ops that
/// break the generator's discipline ([`ProgramSpec::try_emit`]: e.g. a
/// load or store outside the window) and interrupt masks beyond the
/// three lines.
pub fn lockstep_from_json(j: &Json) -> Option<EpisodeSpec> {
    if j.get("kind")?.as_str()? != "lockstep" || get_num::<u64>(j, "version")? != VERSION {
        return None;
    }
    let core = CoreKind::from_tag(j.get("core")?.as_str()?)?;
    let fault = match j.get("fault") {
        Some(Json::Str(name)) => Some(Fault::from_name(name)?),
        _ => None,
    };
    let g = j.get("gen")?;
    let cfg = GenConfig {
        base: get_num(g, "base")?,
        data_base: get_num(g, "data_base")?,
        data_len: get_num(g, "data_len")?,
        len: get_num(g, "len")?,
        custom_ops: get_bool(g, "custom_ops")?,
        misaligned: get_bool(g, "misaligned")?,
        allow_wfi: get_bool(g, "allow_wfi")?,
    };
    let base_ok =
        cfg.base.is_multiple_of(4) && (IMEM_BASE..IMEM_BASE + IMEM_SIZE).contains(&cfg.base);
    let window_ok = cfg.data_base.is_multiple_of(4)
        && (1..=MAX_DATA_LEN).contains(&cfg.data_len)
        && cfg.data_base.checked_add(cfg.data_len).is_some();
    if !base_ok || !window_ok {
        return None;
    }
    let ops = j
        .get("ops")?
        .as_array()?
        .iter()
        .map(|rec| {
            let fields: Option<Vec<i64>> = rec.as_array()?.iter().map(num_i64).collect();
            GenOp::decode_fields(&fields?)
        })
        .collect::<Option<Vec<GenOp>>>()?;
    let irqs = j
        .get("irqs")?
        .as_array()?
        .iter()
        .map(|rec| {
            let pair = rec.as_array()?;
            match pair {
                [a, b] => Some(IrqEvent {
                    at_retire: a.as_u64()?,
                    mask: num(b).filter(|m| m & !IRQ_LINES == 0)?,
                }),
                _ => None,
            }
        })
        .collect::<Option<Vec<IrqEvent>>>()?;
    // The replay emits the program into IMEM from `base` and runs it
    // against a memory holding only the data window: reject a program
    // that does not fit, or whose accesses could leave the window.
    let spec = ProgramSpec::from_parts(cfg, ops);
    let words = spec.try_emit()?.words.len() as u64;
    if u64::from(cfg.base) + 4 * words > u64::from(IMEM_BASE + IMEM_SIZE) {
        return None;
    }
    Some(EpisodeSpec {
        core,
        spec,
        irqs,
        max_retires: get_num(j, "max_retires")?,
        max_cycles: get_num(j, "max_cycles")?,
        fault,
        // Absent in artifacts written before the block-cache mode existed;
        // those replayed per-cycle and still do.
        blocks: get_bool(j, "blocks").unwrap_or(false),
        // Likewise absent before snapshot stress existed.
        snap: get_bool(j, "snap").unwrap_or(false),
    })
}

fn action_to_json(a: Action) -> Json {
    let fields = match a {
        Action::Busy(n) => vec![0, u64::from(n)],
        Action::Delay(n) => vec![1, u64::from(n)],
        Action::SemTake(s) => vec![2, s as u64],
        Action::SemGive(s) => vec![3, s as u64],
        Action::Yield => vec![4],
        Action::IpiGive { target, sem } => vec![5, target as u64, sem as u64],
    };
    Json::Array(fields.into_iter().map(Json::UInt).collect())
}

fn action_from_json(j: &Json) -> Option<Action> {
    let fields: Option<Vec<u64>> = j.as_array()?.iter().map(Json::as_u64).collect();
    let index = |v: u64| usize::try_from(v).ok();
    match fields?[..] {
        [0, n] => Some(Action::Busy(u32::try_from(n).ok()?)),
        [1, n] => Some(Action::Delay(u32::try_from(n).ok()?)),
        [2, s] => Some(Action::SemTake(index(s)?)),
        [3, s] => Some(Action::SemGive(index(s)?)),
        [4] => Some(Action::Yield),
        [5, target, sem] => Some(Action::IpiGive {
            target: index(target)?,
            sem: index(sem)?,
        }),
        _ => None,
    }
}

/// Serializes a failing oracle scenario (plus the violation it produced
/// and the seed it came from) to JSON.
pub fn oracle_to_json(spec: &ScenarioSpec, seed: u64, violation: &Violation) -> Json {
    let tasks = spec
        .tasks
        .iter()
        .map(|t| {
            Json::object()
                .with("prio", Json::UInt(u64::from(t.prio)))
                .with(
                    "script",
                    Json::Array(t.script.iter().copied().map(action_to_json).collect()),
                )
        })
        .collect();
    Json::object()
        .with("kind", Json::Str("oracle".into()))
        .with("version", Json::UInt(VERSION))
        .with("core", Json::Str(spec.core.tag().into()))
        .with("preset", Json::Str(spec.preset.tag().into()))
        .with("seed", Json::UInt(seed))
        .with("tick_period", Json::UInt(u64::from(spec.tick_period)))
        .with("max_cycles", Json::UInt(spec.max_cycles))
        .with("tasks", Json::Array(tasks))
        .with(
            "sems",
            Json::Array(
                spec.sems
                    .iter()
                    .map(|&c| Json::UInt(u64::from(c)))
                    .collect(),
            ),
        )
        .with(
            "ext_sem",
            match spec.ext_sem {
                Some(s) => Json::UInt(s as u64),
                None => Json::Null,
            },
        )
        .with(
            "ext_irqs",
            Json::Array(spec.ext_irqs.iter().map(|&c| Json::UInt(c)).collect()),
        )
        .with(
            "violation",
            Json::object()
                .with("cycle", Json::UInt(violation.cycle))
                .with("message", Json::Str(violation.message.clone())),
        )
}

/// Deserializes an oracle artifact back into a runnable scenario.
/// Returns `None` for malformed or incompatible documents, including
/// numbers that do not fit their field, no tasks, task priorities that
/// are repeated or outside `1..NUM_PRIOS`, and semaphore references
/// (script steps or `ext_sem`) with no `sems` entry.
pub fn oracle_from_json(j: &Json) -> Option<ScenarioSpec> {
    if j.get("kind")?.as_str()? != "oracle" || get_num::<u64>(j, "version")? != VERSION {
        return None;
    }
    let tasks = j
        .get("tasks")?
        .as_array()?
        .iter()
        .map(|t| {
            let script = t
                .get("script")?
                .as_array()?
                .iter()
                .map(action_from_json)
                .collect::<Option<Vec<Action>>>()?;
            Some(TaskScript {
                prio: get_num(t, "prio")?,
                script,
            })
        })
        .collect::<Option<Vec<TaskScript>>>()?;
    let sems = j
        .get("sems")?
        .as_array()?
        .iter()
        .map(num)
        .collect::<Option<Vec<u32>>>()?;
    let ext_sem = match j.get("ext_sem") {
        Some(Json::Null) | None => None,
        Some(v) => Some(num(v)?),
    };
    let ext_irqs = j
        .get("ext_irqs")?
        .as_array()?
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<u64>>>()?;
    let mut prios: Vec<u8> = tasks.iter().map(|t| t.prio).collect();
    prios.sort_unstable();
    prios.dedup();
    let prios_ok = !tasks.is_empty()
        && prios.len() == tasks.len()
        && prios
            .iter()
            .all(|&p| (1..NUM_PRIOS).contains(&usize::from(p)));
    let declared = |s: usize| s < sems.len();
    let sems_ok = ext_sem.is_none_or(declared)
        && tasks.iter().flat_map(|t| &t.script).all(|a| match *a {
            Action::SemTake(s) | Action::SemGive(s) | Action::IpiGive { sem: s, .. } => declared(s),
            Action::Busy(_) | Action::Delay(_) | Action::Yield => true,
        });
    if !prios_ok || !sems_ok {
        return None;
    }
    Some(ScenarioSpec {
        core: CoreKind::from_tag(j.get("core")?.as_str()?)?,
        preset: Preset::from_tag(j.get("preset")?.as_str()?)?,
        tick_period: get_num(j, "tick_period")?,
        tasks,
        sems,
        ext_sem,
        ext_irqs,
        max_cycles: get_num(j, "max_cycles")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::episode_for_seed;
    use rvsim_isa::{CsrOp, Reg, StoreOp};

    #[test]
    fn lockstep_artifact_roundtrip() {
        let mut ep = episode_for_seed(
            CoreKind::Cva6,
            7,
            GenConfig {
                len: 40,
                ..GenConfig::default()
            },
        );
        ep.fault = Some(Fault::GoldenSltuFlip);
        ep.blocks = true;
        ep.snap = true;
        let mismatch = Mismatch {
            field: "x13".into(),
            engine: 1,
            golden: 0,
            retired: 99,
            cycle: 321,
        };
        let doc = lockstep_to_json(&ep, 7, &mismatch);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("rendered artifact parses");
        let back = lockstep_from_json(&parsed).expect("artifact decodes");
        assert_eq!(back, ep);
    }

    /// `doc` with the value at `path` (object keys, or array indices in
    /// decimal) replaced by `value`.
    fn with_at(doc: &Json, path: &[&str], value: Json) -> Json {
        let Some((head, rest)) = path.split_first() else {
            return value;
        };
        let mut doc = doc.clone();
        let child = match &mut doc {
            Json::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == head).map(|(_, v)| v),
            Json::Array(items) => head.parse::<usize>().ok().and_then(|i| items.get_mut(i)),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no `{head}` in the artifact"));
        *child = with_at(child, rest, value);
        doc
    }

    #[test]
    fn malformed_artifacts_are_rejected() {
        assert!(lockstep_from_json(&Json::Null).is_none());
        let wrong_kind = Json::object().with("kind", Json::Str("oracle".into()));
        assert!(lockstep_from_json(&wrong_kind).is_none());
        assert!(oracle_from_json(&Json::Null).is_none());
        let wrong_kind = Json::object().with("kind", Json::Str("lockstep".into()));
        assert!(oracle_from_json(&wrong_kind).is_none());

        // Lockstep: values that used to truncate or panic on replay.
        let cfg = GenConfig {
            len: 40,
            ..GenConfig::default()
        };
        let mut ep = episode_for_seed(CoreKind::Cva6, 7, cfg);
        ep.irqs = vec![IrqEvent {
            at_retire: 5,
            mask: csr::MIP_MTIP,
        }];
        let mismatch = Mismatch {
            field: "pc".into(),
            engine: 0,
            golden: 0,
            retired: 0,
            cycle: 0,
        };
        let doc = Json::parse(&lockstep_to_json(&ep, 7, &mismatch).render()).unwrap();
        assert_eq!(lockstep_from_json(&doc), Some(ep));
        let wide = 1u64 << 32;
        for (path, value) in [
            (&["gen", "base"][..], wide),
            (&["gen", "base"], 2),
            (&["gen", "base"], u64::from(IMEM_BASE + IMEM_SIZE)),
            (&["gen", "data_base"], wide + 0x2000_0000),
            (&["gen", "data_base"], 0x2000_0002),
            (&["gen", "data_base"], 0xffff_f000),
            (&["gen", "data_len"], wide + 4096),
            (&["gen", "data_len"], 0),
            (&["gen", "data_len"], u64::from(MAX_DATA_LEN) + 4),
            // Loads and stores generated for a 4 KiB window.
            (&["gen", "data_len"], 4),
            // The program would run past the end of IMEM.
            (&["gen", "base"], u64::from(IMEM_BASE + IMEM_SIZE - 4)),
            (&["irqs", "0", "1"], wide | u64::from(csr::MIP_MTIP)),
            (&["irqs", "0", "1"], 1 << 20),
        ] {
            let bad = with_at(&doc, path, Json::UInt(value));
            assert!(
                lockstep_from_json(&bad).is_none(),
                "{path:?} = {value:#x} accepted"
            );
        }
        // Ops that break the generator's discipline.
        for op in [
            GenOp::LoadImm {
                rd: Reg::Tp,
                value: 5,
            },
            GenOp::Store {
                op: StoreOp::Sw,
                rs2: Reg::A0,
                gp_base: false,
                off: -4,
            },
            GenOp::Csr {
                op: CsrOp::Rw,
                csr: csr::MTVEC,
                rd: Reg::A0,
                src: Reg::A0.number(),
            },
        ] {
            let fields = op.encode_fields().into_iter().map(Json::Int).collect();
            let bad = with_at(&doc, &["ops", "0"], Json::Array(fields));
            assert!(lockstep_from_json(&bad).is_none(), "{op:?} accepted");
        }

        // Oracle: truncating numbers and dangling semaphore references.
        let spec = crate::scenario::scenario_for_seed(CoreKind::Cva6, Preset::Slt, 3);
        let v = Violation {
            cycle: 1,
            message: "x".into(),
        };
        let doc = Json::parse(&oracle_to_json(&spec, 3, &v).render()).unwrap();
        assert_eq!(oracle_from_json(&doc), Some(spec.clone()));
        let (t, k) = spec
            .tasks
            .iter()
            .enumerate()
            .find_map(|(t, task)| {
                let k = task
                    .script
                    .iter()
                    .position(|a| matches!(a, Action::SemTake(_) | Action::SemGive(_)))?;
                Some((t.to_string(), k.to_string()))
            })
            .expect("the scenario uses a semaphore");
        let n_sems = spec.sems.len() as u64;
        let ipi = Json::Array(vec![Json::UInt(5), Json::UInt(0), Json::UInt(n_sems)]);
        let mutations = [
            (vec!["tick_period"], Json::UInt(wide + 400)),
            (vec!["sems", "0"], Json::UInt(wide)),
            (vec!["ext_sem"], Json::UInt(n_sems)),
            (vec!["tasks", &t, "script", &k, "1"], Json::UInt(n_sems)),
            (vec!["tasks", &t, "script", &k, "1"], Json::UInt(u64::MAX)),
            (vec!["tasks", &t, "script", &k], ipi),
            (vec!["tasks", &t, "prio"], Json::UInt(0)),
            (vec!["tasks", &t, "prio"], Json::UInt(NUM_PRIOS as u64)),
            (vec!["tasks"], Json::Array(Vec::new())),
        ];
        for (path, value) in mutations {
            let bad = with_at(&doc, &path, value.clone());
            assert!(
                oracle_from_json(&bad).is_none(),
                "{path:?} = {} accepted",
                value.render()
            );
        }
        if let [first, second, ..] = &spec.tasks[..] {
            let dup = with_at(
                &doc,
                &["tasks", "1", "prio"],
                Json::UInt(u64::from(first.prio)),
            );
            assert_ne!(first.prio, second.prio);
            assert!(
                oracle_from_json(&dup).is_none(),
                "repeated priority accepted"
            );
        }
    }

    #[test]
    fn oracle_artifact_roundtrip() {
        use crate::scenario::scenario_for_seed;
        use rtosunit::Preset;

        let spec = scenario_for_seed(CoreKind::NaxRiscv, Preset::Sdlot, 17);
        let v = Violation {
            cycle: 1234,
            message: "sched selected task 2, expected task 0".into(),
        };
        let doc = oracle_to_json(&spec, 17, &v);
        let text = doc.render();
        let parsed = Json::parse(&text).expect("rendered artifact parses");
        let back = oracle_from_json(&parsed).expect("artifact decodes");
        assert_eq!(back, spec);
    }
}
