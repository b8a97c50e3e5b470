//! Quickstart: assemble a small program, run it on an SST core with
//! co-simulation, and print what the speculation machinery did.
//!
//! ```sh
//! cargo run --release -p sst-sim --example quickstart
//! ```

use sst_core::{SstConfig, SstCore};
use sst_isa::{assemble, Reg};
use sst_mem::{MemConfig, MemSystem};
use sst_sim::RetireChecker;
use sst_uarch::Core;

fn main() {
    // A pointer chase with independent work: the canonical pattern SST
    // accelerates. `table` is a tiny in-source linked structure; each
    // iteration loads a far-apart node (off-chip miss), does dependent
    // work on it, and advances an independent counter the core can run
    // ahead on.
    let program = assemble(
        r#"
        .data
        node3:  .word64 0          # patched: -> node0
                .word64 30
        .align 4096
        node1:  .word64 0          # -> node2
                .word64 10
        .align 4096
        node2:  .word64 0          # -> node3
                .word64 20
        .align 4096
        node0:  .word64 0          # -> node1
                .word64 0

        .text
        main:
            la   x1, node0
            la   x2, node1
            sd   x2, 0(x1)         # link the chain: 0 -> 1 -> 2 -> 3 -> 0
            la   x1, node1
            la   x2, node2
            sd   x2, 0(x1)
            la   x1, node2
            la   x2, node3
            sd   x2, 0(x1)
            la   x1, node3
            la   x2, node0
            sd   x2, 0(x1)

            la   x10, node0        # chase cursor
            li   x11, 64           # hops
            li   x12, 0            # dependent sum
            li   x13, 0            # independent work counter
        loop:
            ld   x14, 8(x10)       # payload (depends on the chase)
            add  x12, x12, x14
            ld   x10, 0(x10)       # next hop (the miss)
            addi x13, x13, 1       # independent work
            addi x13, x13, 1
            addi x11, x11, -1
            bne  x11, x0, loop
            halt
        "#,
    )
    .expect("assembles");

    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    program.load_into(mem.mem_mut());

    let mut core = SstCore::new(SstConfig::sst(), 0, &program);
    let mut checker = RetireChecker::new(&program);
    let mut commits = Vec::new();

    while !core.halted() {
        core.tick(&mut mem.bus(0));
        core.drain_commits_into(&mut commits);
        for c in commits.drain(..) {
            checker.check(&c).expect("co-simulation clean");
        }
    }

    println!("== quickstart: SST core on a 64-hop pointer chase ==");
    println!("cycles:              {}", core.cycle());
    println!("instructions:        {}", core.retired());
    println!(
        "IPC:                 {:.3}",
        core.retired() as f64 / core.cycle() as f64
    );
    println!("speculation episodes: {}", core.stats.episodes);
    println!("instructions deferred: {}", core.stats.deferred);
    println!("instructions replayed: {}", core.stats.replayed);
    println!("epochs committed:     {}", core.stats.epochs_committed);
    println!("deferred-branch fails: {}", core.stats.fail_branch);
    println!("DQ high-water mark:   {}", core.dq_high_water());
    println!(
        "dependent sum (architectural check): {}",
        core.regs().value(Reg::x(12))
    );
    println!();
    println!("every committed instruction was verified against the");
    println!("functional reference interpreter ({} checked).", checker.checked());
}
