//! Snapshot envelope and codec checks (tier-1).
//!
//! Serialization is byte-stable, so digests can be pinned; tampered or
//! truncated documents are rejected; and malformed payloads are errors,
//! never panics. The battery checks that a restored system continues
//! identically to one that never stopped, as part of the determinism
//! matrix (`matrix/mod.rs`).

mod matrix;

use rtosunit_suite::bench::workloads;
use rtosunit_suite::check::{smp_scenario_for_seed, smp_scenario_system};
use rtosunit_suite::cores::{CoreKind, FaultEvent, FaultKind, FaultPlan};
use rtosunit_suite::isa::Reg;
use rtosunit_suite::snapshot;
use rtosunit_suite::unit::{Preset, SmpSystem, System};

/// A two-fault plan; a machine stopped between its faults holds it
/// partly fired.
fn battery_faults() -> FaultPlan {
    FaultPlan::new(vec![
        FaultEvent {
            at_cycle: 12_000,
            kind: FaultKind::RegFlip {
                reg: Reg::T4,
                bit: 5,
            },
        },
        FaultEvent {
            at_cycle: 35_000,
            kind: FaultKind::SpuriousIrq,
        },
    ])
}

fn single_hart_system(core: CoreKind, preset: Preset, blocks: bool, faults: bool) -> System {
    let w = workloads::by_name("pingpong_semaphore").expect("suite workload exists");
    let image = workloads::build(&w, preset).expect("workload builds");
    let mut sys = System::new(core, preset);
    image.install(&mut sys);
    sys.enable_tracing(1 << 12);
    sys.set_block_cache(blocks);
    if faults {
        sys.attach_fault_plan(battery_faults());
    }
    sys
}

#[test]
fn single_hart_roundtrip_battery() {
    let modes = matrix::SINGLE_HART;
    matrix::assert_none(&matrix::check_cells(&matrix::battery_cells(), &modes));
}

#[test]
fn snapshot_digests_are_stable_across_identical_runs() {
    // Two independent boots of the same configuration must serialize to
    // the same bytes — the guard against host time, pointer values, or
    // hash-map iteration order leaking into the snapshot (and therefore
    // into pinned digests).
    let run = || {
        let mut sys = single_hart_system(CoreKind::Cva6, Preset::Slt, false, true);
        sys.run(40_000);
        sys.snapshot().render()
    };
    assert_eq!(run(), run());
}

#[test]
fn tampered_and_truncated_snapshots_are_rejected() {
    let mut sys = single_hart_system(CoreKind::Cv32e40p, Preset::Vanilla, false, false);
    sys.run(10_000);
    let text = sys.snapshot().render();

    // The pristine document opens.
    assert!(snapshot::open(&text).is_ok(), "pristine snapshot rejected");

    // Truncation is caught.
    assert!(
        snapshot::open(&text[..text.len() / 2]).is_err(),
        "truncated snapshot accepted"
    );

    // A single flipped payload value breaks the sealed digest.
    let needle = "\"cycle\": 10000";
    assert!(text.contains(needle), "tamper target missing from payload");
    let tampered = text.replace(needle, "\"cycle\": 10001");
    assert_ne!(tampered, text);
    assert!(
        snapshot::open(&tampered).is_err(),
        "tampered snapshot accepted"
    );

    // A wrong schema tag is refused before any state parsing.
    let wrong = text.replace(snapshot::SCHEMA, "rtosunit-snapshot-v0");
    assert!(
        snapshot::open(&wrong).is_err(),
        "wrong-schema snapshot accepted"
    );
}

/// Machines that together exercise every snapshot codec: all three
/// engines under the vanilla, RTOS-unit and CV32RT presets, one with the
/// hardware semaphores holding a waiter, and one with the block cache,
/// profiler, event tracing and a partly-fired fault plan all attached.
fn codec_machines() -> Vec<(String, System)> {
    let mut machines = Vec::new();
    for core in CoreKind::ALL {
        for preset in [Preset::Vanilla, Preset::Slt, Preset::Cv32rt] {
            let mut sys = single_hart_system(core, preset, false, false);
            sys.run(20_000);
            machines.push((format!("{core}/{}", preset.tag()), sys));
        }
    }
    let mut sync = single_hart_system(CoreKind::Cva6, Preset::SltHs, false, false);
    sync.run(20_000);
    machines.push(("CVA6/slt_hs".to_string(), sync));
    let mut full = single_hart_system(CoreKind::NaxRiscv, Preset::Split, true, true);
    full.set_profiling(true);
    full.run(25_000);
    assert_eq!(full.faults_applied(), 1, "fault plan must be partly fired");
    machines.push(("NaxRiscv/split+all".to_string(), full));
    machines
}

/// A two-hart composition stopped while an IPI sits undelivered in a
/// mailbox.
fn smp_machine_with_ipi_in_flight() -> SmpSystem {
    let spec = smp_scenario_for_seed(CoreKind::Cv32e40p, Preset::Slt, 2, 17);
    let mut smp = smp_scenario_system(&spec);
    for _ in 0..200_000 {
        smp.step();
        let shared = smp.shared();
        let shared = shared.borrow();
        if (0..2).any(|h| shared.mailbox_depth(h) > 0) {
            break;
        }
    }
    let shared = smp.shared();
    assert!(
        (0..2).any(|h| shared.borrow().mailbox_depth(h) > 0),
        "no IPI ever in flight"
    );
    smp
}

#[test]
fn snapshot_bytes_match_the_pinned_format() {
    // FNV-1a of each machine's rendered snapshot, recorded before the
    // codec was rewritten: the document format must not move by a byte.
    // `split+all` was re-pinned once, when co-stepped batches started to
    // record ISR entry and `mret` before the unit's op of the same cycle,
    // as stepwise execution always did.
    const PINS: [(&str, u64); 11] = [
        ("CV32E40P/vanilla", 0x903591c448d6309a),
        ("CV32E40P/slt", 0xc29008e03478adb6),
        ("CV32E40P/cv32rt", 0xcb13252b3c05c82f),
        ("CVA6/vanilla", 0x89d25dabf576179e),
        ("CVA6/slt", 0xbf48f6c4a65246ee),
        ("CVA6/cv32rt", 0x2cab6b6662303e33),
        ("NaxRiscv/vanilla", 0xdf9147825d74820c),
        ("NaxRiscv/slt", 0xddc6fdbecc74a2c4),
        ("NaxRiscv/cv32rt", 0x0793a403af1dbaec),
        ("CVA6/slt_hs", 0xaf5fd4e6897e0e57),
        ("NaxRiscv/split+all", 0xd7c16b3a293d1a45),
    ];
    const SMP_PIN: u64 = 0x46271a259c8eca65;
    let mut got = Vec::new();
    for (label, sys) in codec_machines() {
        got.push((label, snapshot::fnv1a(sys.snapshot().render().as_bytes())));
    }
    let smp = snapshot::fnv1a(
        smp_machine_with_ipi_in_flight()
            .snapshot()
            .render()
            .as_bytes(),
    );
    let want: Vec<(String, u64)> = PINS.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    assert_eq!(got, want);
    assert_eq!(smp, SMP_PIN, "2-hart snapshot format moved");
}

/// One step of a key path: an object member (by position) or an array
/// element.
#[derive(Clone, Copy)]
enum Step {
    Member(usize),
    Element(usize),
}

/// Every key path below `value`; arrays contribute only their first and
/// last element.
fn key_paths(value: &snapshot::Json, path: &mut Vec<Step>, out: &mut Vec<Vec<Step>>) {
    use snapshot::Json;
    let children: Vec<(Step, &Json)> = match value {
        Json::Object(pairs) => pairs
            .iter()
            .enumerate()
            .map(|(i, (_, v))| (Step::Member(i), v))
            .collect(),
        Json::Array(items) => {
            let mut ends = vec![0];
            if items.len() > 1 {
                ends.push(items.len() - 1);
            }
            ends.into_iter()
                .filter(|&i| i < items.len())
                .map(|i| (Step::Element(i), &items[i]))
                .collect()
        }
        _ => Vec::new(),
    };
    for (step, child) in children {
        path.push(step);
        out.push(path.clone());
        key_paths(child, path, out);
        path.pop();
    }
}

fn at_path<'a>(value: &'a mut snapshot::Json, path: &[Step]) -> &'a mut snapshot::Json {
    use snapshot::Json;
    path.iter().fold(value, |v, step| match (v, *step) {
        (Json::Object(pairs), Step::Member(i)) => &mut pairs[i].1,
        (Json::Array(items), Step::Element(i)) => &mut items[i],
        _ => unreachable!("paths are taken from the same tree"),
    })
}

fn path_label(value: &snapshot::Json, path: &[Step]) -> String {
    use snapshot::Json;
    let mut label = String::new();
    let mut v = value;
    for step in path {
        v = match (v, *step) {
            (Json::Object(pairs), Step::Member(i)) => {
                label.push('.');
                label.push_str(&pairs[i].0);
                &pairs[i].1
            }
            (Json::Array(items), Step::Element(i)) => {
                label.push_str(&format!("[{i}]"));
                &items[i]
            }
            _ => unreachable!("paths are taken from the same tree"),
        };
    }
    label
}

/// The replacement values tried at one key path.
fn mutations(original: &snapshot::Json) -> Vec<snapshot::Json> {
    use snapshot::Json;
    let mut out = vec![
        Json::UInt(u64::MAX),
        Json::UInt(0),
        Json::Int(-1),
        Json::Null,
        Json::Bool(true),
        Json::Array(Vec::new()),
    ];
    if let Json::Array(items) = original {
        if !items.is_empty() {
            out.push(Json::Array(items[..items.len() - 1].to_vec()));
        }
        let mut longer = items.clone();
        longer.push(items.last().cloned().unwrap_or(Json::UInt(0)));
        out.push(Json::Array(longer));
    }
    out
}

/// Applies every mutation at the key paths below `prefix` of `state` and
/// returns the labels of those for which `decode` panicked.
fn mutation_panics(
    state: &mut snapshot::Json,
    prefix: &[Step],
    decode: &dyn Fn(&mut snapshot::Json) -> bool,
) -> Vec<String> {
    let mut paths = Vec::new();
    key_paths(at_path(state, prefix), &mut prefix.to_vec(), &mut paths);
    let mut panics = Vec::new();
    for path in paths {
        let original = std::mem::replace(at_path(state, &path), snapshot::Json::Null);
        // A replacement equal to the original decodes the unmodified
        // document: nothing to learn, so it is skipped.
        for m in mutations(&original).into_iter().filter(|m| *m != original) {
            *at_path(state, &path) = m;
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| decode(&mut *state)));
            if outcome.is_err() {
                let shown = at_path(state, &path).render();
                panics.push(format!("{} = {}", path_label(state, &path), shown.trim()));
            }
        }
        *at_path(state, &path) = original;
    }
    panics
}

#[test]
fn malformed_state_payloads_are_errors_never_panics() {
    // Digest-valid payloads with one value replaced: decoding must return
    // `Ok` or `Err`, whatever the value — `snap resume` feeds the decoder
    // arbitrary file contents. Machines are split across two threads to
    // keep the debug-build run short.
    let machines = codec_machines();
    let states: Vec<(String, snapshot::Json)> = machines
        .iter()
        .map(|(label, sys)| (label.clone(), sys.state_snap()))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut panics: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut found = Vec::new();
                    while let Some((label, state)) =
                        states.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
                    {
                        let mut state = state.clone();
                        for p in mutation_panics(&mut state, &[], &|s| {
                            System::from_state_snap(s).is_ok()
                        }) {
                            found.push(format!("{label}: {p}"));
                        }
                    }
                    found
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread"))
            .collect()
    });

    // The composition: mutate the shared subtree inside the sealed
    // document and re-seal it before every decode.
    let mut doc = smp_machine_with_ipi_in_flight().snapshot();
    let member = |v: &snapshot::Json, key: &str| match v {
        snapshot::Json::Object(pairs) => pairs.iter().position(|(k, _)| k == key),
        _ => None,
    };
    let state_at = member(&doc, "state").expect("sealed documents carry a state");
    let digest_at = member(&doc, "digest").expect("sealed documents carry a digest");
    let shared_at = member(at_path(&mut doc, &[Step::Member(state_at)]), "shared")
        .expect("composition snapshot has a shared subtree");
    let reseal = |doc: &mut snapshot::Json| {
        let digest = snapshot::fnv1a(at_path(doc, &[Step::Member(state_at)]).render().as_bytes());
        *at_path(doc, &[Step::Member(digest_at)]) = snapshot::Json::from(format!("{digest:#018x}"));
    };
    let prefix = [Step::Member(state_at), Step::Member(shared_at)];
    for p in mutation_panics(&mut doc, &prefix, &|d| {
        reseal(d);
        SmpSystem::from_snapshot(d).is_ok()
    }) {
        panics.push(format!("2x smp: {p}"));
    }
    assert!(
        panics.is_empty(),
        "{} mutations panicked the decoder, e.g. {:#?}",
        panics.len(),
        &panics[..panics.len().min(20)]
    );
}
