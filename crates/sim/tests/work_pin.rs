//! Work pin: how much host work each model does per run, held to a
//! committed table.
//!
//! `cycle_pin` pins what a run simulates; nothing there fails when a change
//! ticks a core through cycles its parent skipped, which costs wall time
//! on every host and changes no simulated number. This table pins the
//! ticks instead: for the seven lineup models × the twelve smoke
//! workloads (seed 12345), the ticks executed and the cycles skipped when
//! the run is driven one public `Core` call at a time — `tick`,
//! `drain_commits_into`, `next_event_cycle`, `skip_to` — as
//! `solo_span.rs`'s reference loop does. The two sum to the run's cycles.
//!
//! A change that is *meant* to move a core's work regenerates the table in
//! the same commit and says which row moved and why:
//!
//! ```sh
//! cargo test -p sst-sim --test work_pin -- --ignored regenerate
//! ```

use sst_mem::{Cycle, MemConfig, MemSystem};
use sst_sim::CoreModel;
use sst_workloads::{Scale, Workload};

const SEED: u64 = 12345;
const MAX_CYCLES: Cycle = 200_000_000;
const TABLE: &str = include_str!("work_pin.txt");

/// Runs `model` on `w` to its halt; returns (ticks, cycles skipped).
fn work(model: &CoreModel, w: &Workload) -> (u64, u64) {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    w.program.load_into(mem.mem_mut());
    let mut core = model.build(0, &w.program);
    let mut commits = Vec::new();
    let (mut ticks, mut skipped) = (0, 0);
    while !core.halted() {
        assert!(
            core.cycle() < MAX_CYCLES,
            "{} on {} did not halt",
            model.label(),
            w.name
        );
        core.tick(&mut mem.bus(0));
        ticks += 1;
        core.drain_commits_into(&mut commits);
        commits.clear();
        if !core.halted() {
            let wake = core.next_event_cycle().min(MAX_CYCLES);
            if wake > core.cycle() {
                skipped += wake - core.cycle();
                core.skip_to(wake);
            }
        }
    }
    assert_eq!(ticks + skipped, core.cycle());
    (ticks, skipped)
}

/// The table, one line per model and workload.
fn measure() -> String {
    let mut out = String::new();
    for name in Workload::all_names() {
        let w = Workload::by_name(name, Scale::Smoke, SEED).unwrap();
        for model in CoreModel::lineup() {
            let (ticks, skipped) = work(&model, &w);
            out.push_str(&format!(
                "{} {name} ticks={ticks} skipped={skipped}\n",
                model.label()
            ));
        }
    }
    out
}

#[test]
fn host_work_matches_the_committed_table() {
    let now = measure();
    assert_eq!(now.lines().count(), TABLE.lines().count(), "row count");
    for (got, want) in now.lines().zip(TABLE.lines()) {
        assert_eq!(got, want, "a core's host work moved (see the module doc)");
    }
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/work_pin.txt");
    std::fs::write(path, measure()).unwrap();
}
