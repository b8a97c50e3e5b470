//! Trace pin: the event rings a traced run captures, held to a committed
//! table.
//!
//! `trace_equiv` checks that tracing leaves a run's `RunResult` unchanged
//! and that the core ring is not empty; an event lost, reordered or
//! recorded at another cycle, or a ring closed at a different cycle, would
//! still pass there. This table pins the rings themselves: for in-order,
//! scout, EA, SST and OoO-32 × {oltp, g_bcb} (smoke, seed 3, as in
//! `trace_equiv`), the `len()` and `dropped()` of the core ring and of the
//! memory port's ring, and the FNV-1a of each ring's events' `Debug` text,
//! one event per line.
//!
//! Only a change that is *meant* to move what a trace records regenerates
//! the table, in the same commit:
//!
//! ```sh
//! cargo test -p sst-sim --test trace_pin -- --ignored regenerate
//! ```

use sst_obs::TraceBuf;
use sst_prng::fnv1a;
use sst_sim::{CoreModel, System};
use sst_workloads::{Scale, Workload};

const TABLE: &str = include_str!("trace_pin.txt");
const MAX_CYCLES: u64 = 200_000_000;
const WORKLOADS: [&str; 2] = ["oltp", "g_bcb"];

fn models() -> [CoreModel; 5] {
    [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo32,
    ]
}

fn ring(name: &str, buf: Option<&TraceBuf>) -> String {
    let Some(buf) = buf else {
        return format!(" {name}=none");
    };
    let text: String = buf.events().map(|e| format!("{e:?}\n")).collect();
    format!(
        " {name} len={} dropped={} fnv={:016x}",
        buf.len(),
        buf.dropped(),
        fnv1a(text.as_bytes())
    )
}

/// The table, one traced run per line.
fn measure() -> String {
    let mut out = String::new();
    for wname in WORKLOADS {
        let w = Workload::by_name(wname, Scale::Smoke, 3).expect("known name");
        for model in models() {
            let label = format!("{} {wname}", model.label());
            let (_, trace) = System::new(model, &w)
                .with_tracing()
                .run_with_trace(MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            out.push_str(&label);
            out.push_str(&ring("core", trace.core.as_ref()));
            out.push_str(&ring("mem", trace.mem.as_ref()));
            out.push('\n');
        }
    }
    out
}

#[test]
fn traces_match_the_committed_table() {
    let now = measure();
    assert_eq!(now.lines().count(), TABLE.lines().count(), "row count");
    for (got, want) in now.lines().zip(TABLE.lines()) {
        assert_eq!(got, want, "a traced run's rings moved (see the module doc)");
    }
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/");
    std::fs::write(format!("{dir}trace_pin.txt"), measure()).unwrap();
}
