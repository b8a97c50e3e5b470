//! Programmatic trace capture: run an SST core on the OLTP workload
//! with the typed event sink enabled, print the per-phase cycle table,
//! and write a Chrome-trace JSON next to the current directory.
//!
//! ```sh
//! cargo run --release -p sst-sim --example trace_sst
//! ```
//!
//! Open `trace_sst.json` in `chrome://tracing` or
//! [ui.perfetto.dev](https://ui.perfetto.dev): the core track shows the
//! normal → execute-ahead → replay phase spans with checkpoint, defer,
//! and replay markers on top; the memory track shows every MSHR miss as
//! a duration slice; the counter rows sample DQ/STB occupancy.
//!
//! Tracing is observation-only — the `RunResult` printed here is
//! byte-identical to an untraced run of the same system (the
//! `probes_equiv` suite enforces this), so numbers from a traced run can
//! be quoted without caveats.

use sst_obs::ChromeTrace;
use sst_sim::{CoreModel, System};
use sst_workloads::{Scale, Workload};

fn main() {
    let w = Workload::by_name("oltp", Scale::Smoke, 12345).expect("oltp exists");
    let sys = System::new(CoreModel::Sst, &w)
        .without_cosim()
        .with_tracing();
    let (result, trace) = sys.run_with_trace(2_000_000_000).expect("run completes");

    println!("== trace_sst: SST core on oltp (smoke scale) ==");
    println!("instructions: {}", result.insts);
    println!("cycles:       {}", result.cycles);
    println!("IPC:          {:.3}", result.ipc());
    println!();
    println!("where the cycles went (RunResult::phases):");
    let total: u64 = result.phases.iter().map(|&(_, v)| v).sum();
    for (phase, cycles) in &result.phases {
        println!(
            "  {phase:<8} {cycles:>12} cycles  {:>5.1}%",
            *cycles as f64 * 100.0 / total.max(1) as f64
        );
    }
    assert_eq!(total, result.cycles, "phase rows partition the timeline");

    let mut chrome = ChromeTrace::new();
    chrome.name_process(1, "sst/oltp");
    if let Some(core) = &trace.core {
        chrome.name_thread(1, 0, "core");
        chrome.add_track(1, 0, "core", core);
        println!();
        println!(
            "core ring: {} events ({} dropped)",
            core.len(),
            core.dropped()
        );
    }
    if let Some(mem) = &trace.mem {
        chrome.name_thread(1, 1, "mem");
        chrome.add_track(1, 1, "mem", mem);
        println!(
            "mem ring:  {} events ({} dropped)",
            mem.len(),
            mem.dropped()
        );
    }

    let out = "trace_sst.json";
    std::fs::write(out, chrome.finish()).expect("writable cwd");
    println!();
    println!("wrote {out} — open it in chrome://tracing or ui.perfetto.dev");
}
