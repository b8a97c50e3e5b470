//! Solo-span equivalence suite.
//!
//! A core that is alone on its clock is not looked at after every tick: the
//! engine runs it to the span's end in one `Core::run_until` call and stops
//! early only where the run's policy asked to see it (the warm-up mark, an
//! instruction target, a full buffer). That must be invisible. The
//! reference here is the loop `benchmark/src/rungs.rs` writes out by hand —
//! `tick`, `drain_commits_into`, `halted`, `next_event_cycle`, `skip_to`,
//! one call each per cycle, through the public `Core` methods — with
//! `System`'s bookkeeping (commit count, instruction mix, warm-up mark,
//! pause on a target, cycle budget) done beside it in the open. Against
//! it, for five models on three workloads, with fast-forwarding on and off:
//!
//! * `Core::run_until` itself, for several buffer limits: the same commit
//!   stream (`seq`, `pc`, `at`), the same final core and memory image;
//! * `System`: the same `RunResult` fields, and for `run_insts(t)` around
//!   the warm-up mark the same pause cycle and the same snapshot bytes;
//! * a cycle budget that expires reports the same commit count and leaves
//!   the same machine.

use sst_isa::SnapWriter;
use sst_mem::{Cycle, MemConfig, MemSystem};
use sst_sim::{CoreModel, System};
use sst_uarch::{Commit, Core};
use sst_workloads::{Scale, Workload};

const MAX_CYCLES: Cycle = 200_000_000;
const WORKLOADS: [&str; 3] = ["oltp", "chase", "gzip"];

fn models() -> [CoreModel; 5] {
    [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo128,
    ]
}

/// One core on its own memory system, and what `System` keeps about its
/// commits.
struct Hand {
    core: Box<dyn Core>,
    mem: MemSystem,
    skip_insts: u64,
    stream: Vec<(u64, u64, Cycle)>,
    inst_mix: [u64; 10],
    warmup_cycles: Cycle,
}

impl Hand {
    fn new(model: &CoreModel, w: &Workload) -> Hand {
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        w.program.load_into(mem.mem_mut());
        Hand {
            core: model.build(0, &w.program),
            mem,
            skip_insts: w.skip_insts,
            stream: Vec::new(),
            inst_mix: [0; 10],
            warmup_cycles: 0,
        }
    }

    fn committed(&self) -> u64 {
        self.stream.len() as u64
    }

    /// `System`'s retirement bookkeeping, for commits drained right after
    /// a tick.
    fn retire(&mut self, commits: &mut Vec<Commit>) {
        for c in commits.drain(..) {
            self.stream.push((c.seq, c.pc, c.at));
            self.inst_mix[c.inst.class().index()] += 1;
            if self.committed() == self.skip_insts {
                self.warmup_cycles = self.core.cycle();
            }
        }
    }

    /// The reference: one call of each `Core` method per cycle, until the
    /// core halts, `target` instructions have committed (the run then
    /// stands after that cycle's skip), or the clock reaches `budget`.
    fn per_tick(&mut self, target: u64, budget: Cycle, fast_forward: bool) {
        let mut commits = Vec::new();
        while self.core.cycle() < budget && !self.core.halted() && self.committed() < target {
            self.core.tick(&mut self.mem.bus(0));
            self.core.drain_commits_into(&mut commits);
            self.retire(&mut commits);
            if !self.core.halted() && fast_forward && self.core.cycle() < budget {
                let wake = self.core.next_event_cycle().min(budget);
                if wake > self.core.cycle() {
                    self.core.skip_to(wake);
                }
            }
        }
    }

    /// The same run through the provided methods, the way the engine
    /// drives a solo core: `limit` commits at most between looks, and a
    /// look at the tick that reaches the warm-up mark or the target.
    fn in_spans(&mut self, target: u64, budget: Cycle, fast_forward: bool, limit: u64) {
        let mut commits = Vec::new();
        while self.core.cycle() < budget && !self.core.halted() && self.committed() < target {
            let mut want = limit.min(target - self.committed());
            if self.committed() < self.skip_insts {
                want = want.min(self.skip_insts - self.committed());
            }
            let mut bus = self.mem.bus(0);
            self.core.run_until(&mut bus, budget, want as usize, fast_forward, &mut commits);
            self.retire(&mut commits);
            if !self.core.halted() {
                self.core.sleep_until(budget, fast_forward);
            }
        }
    }

    /// The core's and the memory system's snapshot images, in the order
    /// `System::snapshot` writes them.
    fn image(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.core.save_state(&mut w);
        self.mem.save_state(&mut w);
        w.into_bytes()
    }
}

fn system(model: &CoreModel, w: &Workload, fast_forward: bool) -> System {
    let sys = System::new(model.clone(), w).without_cosim();
    if fast_forward {
        sys
    } else {
        sys.without_fast_forward()
    }
}

/// `sys` stands where `hand` stands: clock, commit count, warm-up mark,
/// instruction mix, and — the tail of its snapshot — the same core and
/// memory image.
fn assert_same_machine(sys: &System, hand: &Hand, label: &str) {
    let r = sys.result();
    assert_eq!(
        (r.cycles, r.insts, r.warmup_cycles, r.inst_mix),
        (hand.core.cycle(), hand.committed(), hand.warmup_cycles, hand.inst_mix),
        "{label}"
    );
    assert_eq!(sys.committed(), hand.committed(), "{label}");
    assert_eq!(sys.halted(), hand.core.halted(), "{label}");
    let snap = sys.snapshot().unwrap();
    assert_eq!(snap.header().unwrap().insts, hand.committed(), "{label}");
    assert!(
        snap.as_bytes().ends_with(&hand.image()),
        "{label}: the snapshot's core and memory image differ"
    );
}

fn for_every_pair(mut check: impl FnMut(&CoreModel, &Workload, bool, &str)) {
    for name in WORKLOADS {
        let w = Workload::by_name(name, Scale::Smoke, 3).unwrap();
        for model in models() {
            for fast_forward in [true, false] {
                let label = format!("{} on {name} (ff={fast_forward})", model.label());
                check(&model, &w, fast_forward, &label);
            }
        }
    }
}

#[test]
fn run_until_makes_the_run_a_per_tick_loop_makes() {
    for_every_pair(|model, w, fast_forward, label| {
        let mut reference = Hand::new(model, w);
        reference.per_tick(u64::MAX, MAX_CYCLES, fast_forward);
        assert!(reference.core.halted(), "{label}");
        assert!(
            reference.stream.windows(2).all(|p| p[0].0 + 1 == p[1].0),
            "{label}: sequence numbers have no gaps"
        );
        // 0 is a look after every tick; 1 a look at every committing tick.
        for limit in [0, 1, 1024, u64::MAX] {
            let mut spans = Hand::new(model, w);
            spans.in_spans(u64::MAX, MAX_CYCLES, fast_forward, limit);
            assert!(spans.stream == reference.stream, "{label}, limit {limit}: commit streams differ");
            assert_eq!(
                (spans.core.cycle(), spans.warmup_cycles, spans.inst_mix),
                (reference.core.cycle(), reference.warmup_cycles, reference.inst_mix),
                "{label}, limit {limit}"
            );
            assert!(spans.image() == reference.image(), "{label}, limit {limit}: final images differ");
        }
    });
}

#[test]
fn a_system_reports_what_the_per_tick_loop_counts() {
    for_every_pair(|model, w, fast_forward, label| {
        let mut hand = Hand::new(model, w);
        hand.per_tick(u64::MAX, MAX_CYCLES, fast_forward);
        let mut sys = system(model, w, fast_forward);
        sys.run_insts(u64::MAX, MAX_CYCLES).unwrap();
        assert_same_machine(&sys, &hand, label);
        assert_eq!(sys.result().warmup_insts, w.skip_insts, "{label}");
        // With the reference interpreter watching, the same result.
        if fast_forward {
            let checked = System::new(model.clone(), w).run_checked(MAX_CYCLES).unwrap();
            assert_eq!(checked, sys.result(), "{label}");
        }
    });
}

#[test]
fn an_instruction_target_pauses_on_the_same_cycle_with_the_same_image() {
    for_every_pair(|model, w, fast_forward, label| {
        let skip = w.skip_insts;
        assert!(skip > 2, "{label}: the workload has a warm-up window");
        let mut total = Hand::new(model, w);
        total.per_tick(u64::MAX, MAX_CYCLES, fast_forward);
        let mid = skip + (total.committed() - skip) / 2;
        for target in [1, skip - 1, skip, skip + 1, mid] {
            let label = format!("{label}, target {target}");
            let mut hand = Hand::new(model, w);
            hand.per_tick(target, MAX_CYCLES, fast_forward);
            assert!(!hand.core.halted() && hand.committed() >= target, "{label}");
            let mut sys = system(model, w, fast_forward);
            sys.run_insts(target, MAX_CYCLES).unwrap();
            assert_same_machine(&sys, &hand, &label);
            // And on from a pause before the warm-up mark, in two more
            // steps, to the same end.
            if target == skip - 1 {
                for next in [mid, u64::MAX] {
                    hand.per_tick(next, MAX_CYCLES, fast_forward);
                    sys.run_insts(next, MAX_CYCLES).unwrap();
                    assert_same_machine(&sys, &hand, &format!("{label}, then {next}"));
                }
                assert!(hand.stream == total.stream, "{label}: commit streams differ");
            }
        }
    });
}

#[test]
fn a_cycle_budget_expires_with_the_same_commits_on_the_same_machine() {
    for_every_pair(|model, w, fast_forward, label| {
        let mut total = Hand::new(model, w);
        total.per_tick(u64::MAX, MAX_CYCLES, fast_forward);
        for budget in [1, 100, total.core.cycle() / 2, total.core.cycle() - 1] {
            let label = format!("{label}, budget {budget}");
            let mut hand = Hand::new(model, w);
            hand.per_tick(u64::MAX, budget, fast_forward);
            let mut sys = system(model, w, fast_forward);
            let e = sys.run_insts(u64::MAX, budget).unwrap_err();
            assert_eq!(e.at, hand.committed(), "{label}");
            assert!(e.what.contains("did not halt"), "{label}: {e}");
            assert_eq!(hand.core.cycle(), budget, "{label}");
            assert_same_machine(&sys, &hand, &label);
        }
    });
}
