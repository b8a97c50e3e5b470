//! Snapshot pin: the bytes of whole-system snapshots, held to a committed
//! table.
//!
//! `snapshot_resume` checks that a snapshot round-trips to itself, which a
//! field written and read in a new order on both sides would still do.
//! This table pins the format itself: the length and FNV-1a of
//! `System::snapshot()` for six models × {gzip, oltp, mcf} (smoke, seed 3),
//! once paused mid-run with co-simulation off (core, DQ, store buffer,
//! checkpoints and caches all busy) and once before the first instruction
//! with co-simulation on (the reference interpreter's section).
//!
//! Only a change that is *meant* to move the snapshot format (and bumps
//! `SNAPSHOT_VERSION`) regenerates the table, in the same commit:
//!
//! ```sh
//! cargo test -p sst-sim --test snapshot_pin -- --ignored regenerate
//! ```

use sst_prng::fnv1a;
use sst_sim::{CoreModel, System};
use sst_workloads::{Scale, Workload};

const TABLE: &str = include_str!("snapshot_pin.txt");
const PAUSE_INSTS: u64 = 5_000;
const MAX_CYCLES: u64 = 200_000_000;

fn models() -> [CoreModel; 6] {
    [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo32,
        CoreModel::Ooo128,
    ]
}

fn line(label: &str, bytes: &[u8]) -> String {
    format!("{label} len={} fnv={:016x}\n", bytes.len(), fnv1a(bytes))
}

/// The table, one snapshot per line.
fn measure() -> String {
    let mut out = String::new();
    for name in ["gzip", "oltp", "mcf"] {
        let w = Workload::by_name(name, Scale::Smoke, 3).expect("known name");
        for model in models() {
            let label = format!("{} {name}", model.label());
            let mut sys = System::new(model.clone(), &w).without_cosim();
            sys.run_insts(PAUSE_INSTS, MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(!sys.halted(), "{label}: the pause must be mid-run");
            out.push_str(&line(
                &format!("{label} mid"),
                sys.snapshot().unwrap().as_bytes(),
            ));
            let fresh = System::new(model, &w).snapshot().unwrap();
            out.push_str(&line(&format!("{label} start+cosim"), fresh.as_bytes()));
        }
    }
    out
}

#[test]
fn snapshots_match_the_committed_table() {
    let now = measure();
    assert_eq!(now.lines().count(), TABLE.lines().count(), "row count");
    for (got, want) in now.lines().zip(TABLE.lines()) {
        assert_eq!(got, want, "a snapshot's bytes moved (see the module doc)");
    }
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/");
    std::fs::write(format!("{dir}snapshot_pin.txt"), measure()).unwrap();
}
