//! OoO pin: every simulated number of the three out-of-order baselines,
//! held to a committed table.
//!
//! `cycle_pin` covers only OoO-128, and only nine workloads. Experiment E4
//! runs OoO-32, OoO-64 and OoO-128 over all twelve, so this table pins
//! exactly that matrix: smoke scale, seed 12345 — `cycles`, `insts`, every
//! `Core::counters` entry and every phase row, one line per pair, in
//! `cycle_pin`'s line format.
//!
//! A change that is *meant* to move simulated numbers regenerates the table
//! in the same commit and says so:
//!
//! ```sh
//! cargo test -p sst-sim --test ooo_pin -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use sst_sim::{CoreModel, RunResult, System};
use sst_workloads::{Scale, Workload};

const SEED: u64 = 12345;
const MAX_CYCLES: u64 = 200_000_000;
const TABLE: &str = include_str!("ooo_pin.txt");

fn line(r: &RunResult) -> String {
    let mut s = format!(
        "{} {} cycles={} insts={}",
        r.model, r.workload, r.cycles, r.insts
    );
    for (name, v) in &r.counters {
        write!(s, " {name}={v}").unwrap();
    }
    for (name, v) in &r.phases {
        write!(s, " phase.{name}={v}").unwrap();
    }
    s
}

fn measure() -> String {
    let mut out = String::new();
    for w in Workload::suite(Workload::all_names(), Scale::Smoke, SEED) {
        for model in [CoreModel::Ooo32, CoreModel::Ooo64, CoreModel::Ooo128] {
            let label = model.label();
            let r = System::new(model, &w)
                .without_cosim()
                .run_checked(MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{label} on {}: {e}", w.name));
            out.push_str(&line(&r));
            out.push('\n');
        }
    }
    out
}

#[test]
fn ooo_numbers_match_the_committed_table() {
    let now = measure();
    assert_eq!(now.lines().count(), TABLE.lines().count(), "row count");
    for (got, want) in now.lines().zip(TABLE.lines()) {
        assert_eq!(got, want, "a simulated number moved (see the module doc)");
    }
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/ooo_pin.txt");
    std::fs::write(path, measure()).unwrap();
}
