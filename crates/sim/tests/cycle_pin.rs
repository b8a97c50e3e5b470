//! Cycle pin: every simulated number of the single-core matrix, held to a
//! committed table.
//!
//! Host-side work (a faster replay structure, an inlining pass, a new
//! scheduler queue) promises to change no simulated cycle. The equivalence
//! suites compare two runs of the *same* build; this one compares the build
//! against `cycle_pin.txt`, written by an earlier commit: five models x nine
//! workloads at smoke scale, seed 12345 — `cycles`, `insts`, every
//! `Core::counters` entry and every phase row, one line per pair. A second
//! table, `cycle_pin_warmup.txt`, holds what the run's retirement policy
//! rather than the core counts — `warmup_cycles`, `warmup_insts` and the
//! instruction mix — so a change to how often the engine looks at a core's
//! commits cannot move the warm-up mark unnoticed.
//!
//! A change that is *meant* to move simulated numbers regenerates the table
//! in the same commit and says so:
//!
//! ```sh
//! cargo test -p sst-sim --test cycle_pin -- --ignored regenerate
//! ```

use std::fmt::Write as _;

use sst_sim::{CoreModel, RunResult, System};
use sst_workloads::{Scale, Workload};

const SEED: u64 = 12345;
const MAX_CYCLES: u64 = 200_000_000;
const WORKLOADS: [&str; 9] = [
    "oltp", "erp", "web", "mcf", "gcc", "gups", "chase", "mlp8", "gzip",
];
const TABLE: &str = include_str!("cycle_pin.txt");
const WARMUP_TABLE: &str = include_str!("cycle_pin_warmup.txt");

fn models() -> [CoreModel; 5] {
    [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo128,
    ]
}

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

fn warmup_line(r: &RunResult) -> String {
    let mix: Vec<String> = r.inst_mix.iter().map(u64::to_string).collect();
    format!(
        "{} {} warmup_cycles={} warmup_insts={} inst_mix={}",
        r.model,
        r.workload,
        r.warmup_cycles,
        r.warmup_insts,
        mix.join(",")
    )
}

/// Both tables, from one run per pair.
fn measure() -> (String, String) {
    let mut out = String::new();
    let mut warmup = String::new();
    for name in WORKLOADS {
        let w = Workload::by_name(name, Scale::Smoke, SEED).unwrap();
        for model in models() {
            let label = model.label();
            let r = System::new(model, &w)
                .without_cosim()
                .run_checked(MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{label} on {name}: {e}"));
            out.push_str(&line(&r));
            out.push('\n');
            warmup.push_str(&warmup_line(&r));
            warmup.push('\n');
        }
    }
    (out, warmup)
}

#[test]
fn simulated_numbers_match_the_committed_table() {
    let (now, warmup) = measure();
    for (now, table) in [(now, TABLE), (warmup, WARMUP_TABLE)] {
        assert_eq!(now.lines().count(), table.lines().count(), "row count");
        for (got, want) in now.lines().zip(table.lines()) {
            assert_eq!(got, want, "a simulated number moved (see the module doc)");
        }
    }
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let (table, warmup) = measure();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/");
    std::fs::write(format!("{dir}cycle_pin.txt"), table).unwrap();
    std::fs::write(format!("{dir}cycle_pin_warmup.txt"), warmup).unwrap();
}
