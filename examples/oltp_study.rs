//! OLTP study: the paper's motivating scenario. Runs the OLTP workload on
//! the full core lineup and prints per-model IPC, speedups, and the
//! speculation/stall anatomy of the SST run.
//!
//! ```sh
//! cargo run --release -p sst-sim --example oltp_study
//! ```

use sst_sim::report::{f3, pct, Table};
use sst_sim::{CoreModel, System};
use sst_workloads::{Scale, Workload};

fn main() {
    let w = Workload::by_name("oltp", Scale::Smoke, 42).expect("oltp exists");
    println!("== OLTP on every core model ==");
    println!("workload: {} ({})", w.name, w.description);
    println!();

    let mut table = Table::new(["model", "cycles", "IPC", "vs in-order", "L2 MPKI"]);
    let mut baseline_ipc = None;

    for model in CoreModel::lineup() {
        let w = Workload::by_name("oltp", Scale::Smoke, 42).expect("oltp exists");
        let r = System::measure(model, &w, 1_000_000_000);
        let ipc = r.measured_ipc();
        let base = *baseline_ipc.get_or_insert(ipc);
        table.row([
            r.model.clone(),
            r.cycles.to_string(),
            f3(ipc),
            pct(ipc / base),
            f3(r.mem.l2.mpki(r.insts)),
        ]);
    }
    println!("{}", table.to_markdown());

    println!("Reading the table: the SST core should clearly beat the");
    println!("in-order and scout machines, edge out execute-ahead, and be");
    println!("competitive with (or better than) the larger out-of-order");
    println!("cores — the paper's headline shape. Run the full-scale");
    println!("version with `cargo run --release -p sst-harness --bin sst-run -- e4`.");
}
