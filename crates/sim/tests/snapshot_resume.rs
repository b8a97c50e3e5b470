//! Snapshot/resume equivalence and robustness.
//!
//! The contract under test: pausing any run at an arbitrary instruction
//! count, serializing it, and resuming on a freshly built system is
//! indistinguishable from never having paused — same [`RunResult`], and
//! the same final snapshot bytes. Alongside, the robustness half:
//! serialize → restore → re-serialize is byte-identical, and truncated,
//! corrupted, or mismatched snapshots come back as structured errors,
//! never panics.

use sst_core::{SstConfig, SstCore};
use sst_isa::{SnapError, SnapReader, SnapWriter, SNAPSHOT_VERSION};
use sst_mem::{MemConfig, MemSystem};
use sst_sim::{CoreModel, RunResult, Snapshot, System};
use sst_uarch::{Core, DqEntry};
use sst_workloads::{Scale, Workload};

const MAX_CYCLES: u64 = 200_000_000;

fn models() -> Vec<CoreModel> {
    vec![
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo32,
    ]
}

fn build(model: &CoreModel, w: &Workload, fast_forward: bool) -> System {
    let sys = System::new(model.clone(), w);
    if fast_forward {
        sys
    } else {
        sys.without_fast_forward()
    }
}

/// Runs (model, workload) twice — once straight through, once paused at
/// the midpoint via snapshot/resume — and demands identical results and
/// identical final state bytes.
fn check_equivalence(model: CoreModel, w: &Workload, fast_forward: bool) -> RunResult {
    let label = format!("{} on {} (ff={fast_forward})", model.label(), w.name);

    // Reference: uninterrupted run.
    let mut straight = build(&model, w, fast_forward);
    straight
        .run_insts(u64::MAX, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = straight.result();
    let final_want = straight.snapshot().unwrap();

    // Paused run: stop at the midpoint, serialize, resume on a fresh
    // system, finish.
    let mid = want.insts / 2;
    let mut first_half = build(&model, w, fast_forward);
    first_half
        .run_insts(mid, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(!first_half.halted(), "{label}: midpoint must be mid-run");
    let snap = first_half.snapshot().unwrap();

    // Round-trip determinism: restoring and immediately re-serializing
    // reproduces the bytes exactly.
    let resumed_now = System::resume(model.clone(), w, &snap)
        .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
    let resnap = resumed_now.snapshot().unwrap();
    assert_eq!(
        snap.as_bytes(),
        resnap.as_bytes(),
        "{label}: restore + re-serialize must be byte-identical"
    );

    let header = snap.header().unwrap();
    assert_eq!(header.model, model.label());
    assert_eq!(header.workload, w.name);
    assert_eq!(header.insts, first_half.committed());

    let mut resumed = System::resume(model.clone(), w, &snap)
        .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
    if !fast_forward {
        resumed = resumed.without_fast_forward();
    }
    resumed
        .run_insts(u64::MAX, MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label}: resumed run diverged: {e}"));
    let got = resumed.result();

    assert_eq!(got, want, "{label}: resumed result differs");
    let final_got = resumed.snapshot().unwrap();
    assert_eq!(
        final_want.as_bytes(),
        final_got.as_bytes(),
        "{label}: final machine state differs after resume"
    );
    want
}

#[test]
fn resume_matches_uninterrupted_all_models_oltp() {
    let w = Workload::by_name("oltp", Scale::Smoke, 3).unwrap();
    for m in models() {
        check_equivalence(m, &w, true);
    }
}

#[test]
fn resume_matches_uninterrupted_all_models_erp() {
    let w = Workload::by_name("erp", Scale::Smoke, 3).unwrap();
    for m in models() {
        check_equivalence(m, &w, true);
    }
}

#[test]
fn resume_matches_uninterrupted_all_models_gzip() {
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    for m in models() {
        check_equivalence(m, &w, true);
    }
}

#[test]
fn resume_matches_without_fast_forward() {
    // Fast-forward off exercises the cycle-by-cycle tick path; one
    // workload covers it for every model (ff never changes results,
    // which crates/sim/tests/fastforward.rs pins separately).
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    for m in models() {
        check_equivalence(m, &w, false);
    }
}

/// A replay pass is the deferred strand's only state that spans cycles,
/// and most of what it runs on — wake lists, the timed list — is rebuilt on
/// restore, not saved. Pause an SST and an EA core in the middle of a pass,
/// at a cycle where the cursor is parked past the head of the list, an
/// entry holds one delivered operand while it waits for the other, and a
/// load is blocked behind an unresolved store: the restored core rebuilds a
/// consistent deferred strand and the run ends as if it had never paused.
#[test]
fn resume_mid_replay_pass_rebuilds_the_deferred_strand() {
    let w = Workload::by_name("oltp", Scale::Smoke, 3).unwrap();
    let half_delivered = |e: &DqEntry| {
        let delivered = |i: usize| e.producers[i].is_some() && !e.waits_on(i);
        (delivered(0) && e.waits_on(1)) || (delivered(1) && e.waits_on(0))
    };
    for (model, cfg) in [
        (CoreModel::Sst, SstConfig::sst()),
        (CoreModel::ExecuteAhead, SstConfig::execute_ahead()),
    ] {
        let label = model.label();
        let mut straight = build(&model, &w, false);
        straight.run_insts(u64::MAX, MAX_CYCLES).unwrap();
        let want = straight.result();

        // The same core outside a `System`, to see the moment.
        let boot = || {
            let mut mem = MemSystem::new(&MemConfig::default(), 1);
            w.program.load_into(mem.mem_mut());
            (SstCore::new(cfg.clone(), 0, &w.program), mem)
        };
        let (mut core, mut mem) = boot();
        loop {
            assert!(!core.halted(), "{label}: no such moment");
            core.tick(&mut mem.bus(0));
            let dq = core.deferred_queue();
            if core.cycle() > want.cycles / 2
                && dq.cursor().is_some_and(|at| at > 0)
                && dq.any_blocked()
                && dq.iter().any(half_delivered)
            {
                break;
            }
        }
        let pause = core.cycle();
        let mut bytes = SnapWriter::new();
        core.save_state(&mut bytes);
        let (mut twin, _) = boot();
        twin.restore_state(&mut SnapReader::new(bytes.as_bytes()))
            .unwrap();
        assert!(twin.deferred_state_consistent(), "{label}");
        assert_eq!(
            twin.deferred_queue().cursor(),
            core.deferred_queue().cursor()
        );

        // The same pause through `System`: the cycle budget stops the run
        // there, state intact.
        let mut first_half = build(&model, &w, false);
        first_half.run_insts(u64::MAX, pause).unwrap_err();
        assert!(!first_half.halted(), "{label}");
        let snap = first_half.snapshot().unwrap();
        let mut resumed = System::resume(model.clone(), &w, &snap)
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"))
            .without_fast_forward();
        assert_eq!(
            resumed.snapshot().unwrap().as_bytes(),
            snap.as_bytes(),
            "{label}"
        );
        resumed.run_insts(u64::MAX, MAX_CYCLES).unwrap();
        assert_eq!(resumed.result(), want, "{label}: resumed result differs");
        // The final bytes hold the whole memory image.
        assert_eq!(
            resumed.snapshot().unwrap().as_bytes(),
            straight.snapshot().unwrap().as_bytes(),
            "{label}: final machine state differs after resume"
        );
        // The bare core and the `System` were the same run.
        while !core.halted() {
            core.tick(&mut mem.bus(0));
        }
        assert_eq!(core.cycle(), want.cycles, "{label}");
    }
}

/// Scout queues nothing: a deferral of its holds a DQ slot, and the held
/// slots are a count. Pause a scout inside an episode — once with the queue
/// within 8 of its capacity, once while it is full and `stall_dq_full` is
/// accruing — and the count must come back with the snapshot: without it
/// the restored ahead strand would find the queue empty and run on where
/// the uninterrupted one stalls.
#[test]
fn resume_mid_scout_episode_keeps_held_slots() {
    for (name, cfg, from) in [
        ("chase", SstConfig::scout(), 100_000),
        // The store gadget's episodes are short, and only the first ones
        // defer much: a queue it can fill, from the start.
        (
            "g_store",
            SstConfig {
                dq_entries: 8,
                ..SstConfig::scout()
            },
            0,
        ),
    ] {
        let w = Workload::by_name(name, Scale::Smoke, 3).unwrap();
        let model = CoreModel::CustomSst(cfg.clone());
        let mut straight = build(&model, &w, true);
        straight.run_insts(u64::MAX, MAX_CYCLES).unwrap();
        let want = straight.result();

        let boot = || {
            let mut mem = MemSystem::new(&MemConfig::default(), 1);
            w.program.load_into(mem.mem_mut());
            (SstCore::new(cfg.clone(), 0, &w.program), mem)
        };
        // Told whether the tick just made charged a `stall_dq_full` cycle.
        type Moment = fn(&SstCore, bool) -> bool;
        let moments: [(&str, Moment); 2] = [
            ("nearly full", |core, _| {
                let dq = core.deferred_queue();
                !dq.is_full() && dq.len() + 8 >= dq.capacity() && !dq.is_empty()
            }),
            ("stalling", |core, stalled| {
                core.deferred_queue().is_full() && stalled
            }),
        ];
        for (what, is_moment) in moments {
            let label = format!("scout on {name}, {what}");
            let (mut core, mut mem) = boot();
            loop {
                assert!(!core.halted(), "{label}: no such moment");
                let stalls = core.stats.stall_dq_full;
                core.tick(&mut mem.bus(0));
                if core.cycle() > from && is_moment(&core, core.stats.stall_dq_full > stalls) {
                    break;
                }
            }
            let (pause, held) = (core.cycle(), core.deferred_queue().len());
            assert_eq!(core.deferred_queue().iter().count(), 0, "{label}");

            let mut first_part = build(&model, &w, true);
            first_part.run_insts(u64::MAX, pause).unwrap_err();
            assert!(!first_part.halted(), "{label}");
            let snap = first_part.snapshot().unwrap();
            let mut resumed = System::resume(model.clone(), &w, &snap)
                .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            assert!(
                resumed.snapshot().unwrap().as_bytes() == snap.as_bytes(),
                "{label}: restore + re-serialize differs"
            );
            resumed.run_insts(u64::MAX, MAX_CYCLES).unwrap();
            assert_eq!(resumed.result(), want, "{label}: resumed result differs");
            // The final bytes hold the whole memory image.
            assert!(
                resumed.snapshot().unwrap().as_bytes() == straight.snapshot().unwrap().as_bytes(),
                "{label}: final machine state differs after resume"
            );

            // The count sits behind the DQ's tag, its deferral total and
            // its high-water mark. One past the capacity is refused.
            let mut bytes = snap.as_bytes().to_vec();
            let word =
                |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let at = bytes
                .windows(4)
                .position(|tag| tag == b"DQUE")
                .expect("the core's image holds its DQ")
                + 4
                + 16;
            assert_eq!(
                word(&bytes, at),
                held as u64,
                "{label}: the held-slot count"
            );
            bytes[at..at + 8].copy_from_slice(&(cfg.dq_entries as u64 + 1).to_le_bytes());
            let e = System::resume(model.clone(), &w, &Snapshot::from_bytes(bytes))
                .map(|_| ())
                .unwrap_err();
            assert!(matches!(e, SnapError::Corrupt(_)), "{label}: {e}");
        }
    }
}

/// A snapshot written before the DQ learned to hold slots (version 2) is
/// refused by its version, not misparsed.
#[test]
fn snapshots_of_an_older_version_are_refused() {
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    let mut sys = System::new(CoreModel::Sst, &w);
    sys.run_insts(500, MAX_CYCLES).unwrap();
    let mut bytes = sys.snapshot().unwrap().as_bytes().to_vec();
    assert_eq!(
        bytes[4..8],
        SNAPSHOT_VERSION.to_le_bytes(),
        "the version follows the magic"
    );
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    let e = System::resume(CoreModel::Sst, &w, &Snapshot::from_bytes(bytes))
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(e, SnapError::Mismatch(_)), "{e:?}");
    assert!(e.to_string().contains("version"), "{e}");
}

/// The co-simulation checker is built by the first run or snapshot, not
/// by `System::new`. A system that has never run still snapshots with it:
/// resuming from that snapshot is the run from the start, checker included
/// (the final bytes hold the reference interpreter's state).
#[test]
fn a_system_that_never_ran_snapshots_with_its_checker() {
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    for m in models() {
        let label = m.label();
        let snap = System::new(m.clone(), &w).snapshot().unwrap();
        let unchecked = System::new(m.clone(), &w)
            .without_cosim()
            .snapshot()
            .unwrap();
        assert!(
            snap.as_bytes().len() > unchecked.as_bytes().len() + w.program.image_bytes() as usize,
            "{label}: the reference's memory image is in the snapshot"
        );

        let mut resumed = System::resume(m.clone(), &w, &snap).unwrap();
        assert_eq!(
            resumed.snapshot().unwrap().as_bytes(),
            snap.as_bytes(),
            "{label}"
        );
        resumed.run_insts(u64::MAX, MAX_CYCLES).unwrap();

        let mut straight = System::new(m, &w);
        straight.run_insts(u64::MAX, MAX_CYCLES).unwrap();
        assert_eq!(resumed.result(), straight.result(), "{label}");
        assert_eq!(
            resumed.snapshot().unwrap().as_bytes(),
            straight.snapshot().unwrap().as_bytes(),
            "{label}"
        );
    }
}

#[test]
fn resume_rejects_model_and_workload_mismatch() {
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    let mut sys = System::new(CoreModel::InOrder, &w);
    sys.run_insts(500, MAX_CYCLES).unwrap();
    let snap = sys.snapshot().unwrap();

    let e = System::resume(CoreModel::Sst, &w, &snap)
        .map(|_| ())
        .unwrap_err();
    assert!(e.to_string().contains("model"), "{e}");

    let other = Workload::by_name("erp", Scale::Smoke, 3).unwrap();
    let e = System::resume(CoreModel::InOrder, &other, &snap)
        .map(|_| ())
        .unwrap_err();
    assert!(e.to_string().contains("workload"), "{e}");
}

#[test]
fn truncated_snapshots_error_not_panic() {
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    let mut sys = System::new(CoreModel::Sst, &w);
    sys.run_insts(500, MAX_CYCLES).unwrap();
    let bytes = sys.snapshot().unwrap().as_bytes().to_vec();

    let cuts = [
        0,
        1,
        3,
        7,
        bytes.len() / 3,
        bytes.len() / 2,
        bytes.len() - 1,
    ];
    for &cut in &cuts {
        let truncated = Snapshot::from_bytes(bytes[..cut].to_vec());
        let r = System::resume(CoreModel::Sst, &w, &truncated);
        assert!(r.is_err(), "truncation at {cut}/{} must fail", bytes.len());
    }
    // Trailing garbage is also rejected (the reader must be fully
    // consumed).
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 9]);
    assert!(System::resume(CoreModel::Sst, &w, &Snapshot::from_bytes(padded)).is_err());

    // Every model, cut inside the header and the core's own state.
    for (m, bytes, mems) in core_sections(&w) {
        for cut in (0..mems).step_by((mems / 97).max(1)) {
            let truncated = Snapshot::from_bytes(bytes[..cut].to_vec());
            let r = System::resume(m.clone(), &w, &truncated);
            assert!(
                r.is_err(),
                "{}: truncation at {cut}/{} must fail",
                m.label(),
                bytes.len()
            );
        }
    }
}

#[test]
fn corrupted_snapshots_never_panic() {
    let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
    let mut sys = System::new(CoreModel::Sst, &w);
    sys.run_insts(500, MAX_CYCLES).unwrap();
    let bytes = sys.snapshot().unwrap().as_bytes().to_vec();

    // Flip a byte at a spread of offsets across the image. A flip may
    // produce a different-but-valid state (a register value changed) —
    // that restores fine; what must never happen is a panic or an
    // unchecked huge allocation.
    let step = (bytes.len() / 257).max(1);
    for off in (0..bytes.len()).step_by(step) {
        let mut corrupt = bytes.clone();
        corrupt[off] ^= 0xa5;
        let _ = System::resume(CoreModel::Sst, &w, &Snapshot::from_bytes(corrupt));
    }
    // Length-field attacks: overwrite a mid-stream word with u64::MAX.
    for off in [64usize, 256, 1024] {
        if off + 8 <= bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let _ = System::resume(CoreModel::Sst, &w, &Snapshot::from_bytes(corrupt));
        }
    }
    // Every model: flip bytes from the header to the memory hierarchy's
    // section, where each core's restore validates its own state.
    for (m, bytes, mems) in core_sections(&w) {
        for (i, off) in (0..mems).step_by((mems / 503).max(1)).enumerate() {
            let mut corrupt = bytes.clone();
            corrupt[off] ^= if i % 2 == 0 { 0xff } else { 0x01 };
            let _ = System::resume(m.clone(), &w, &Snapshot::from_bytes(corrupt));
        }
    }
}

/// The hostile-input tests' second input: every model paused mid-run on
/// `w` with co-simulation off, its snapshot, and the offset of the memory
/// hierarchy's `MEMS` section — the bytes before it are the header and the
/// core's own state.
fn core_sections(w: &Workload) -> Vec<(CoreModel, Vec<u8>, usize)> {
    models()
        .into_iter()
        .map(|m| {
            let mut sys = System::new(m.clone(), w).without_cosim();
            sys.run_insts(5_000, MAX_CYCLES).unwrap();
            let bytes = sys.snapshot().unwrap().as_bytes().to_vec();
            let mems = bytes
                .windows(4)
                .position(|tag| tag == b"MEMS")
                .expect("the memory hierarchy's section");
            (m, bytes, mems)
        })
        .collect()
}
