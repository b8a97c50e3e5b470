//! The in-order pipeline model.

use sst_isa::{Inst, Program, Reg, SnapError, SnapReader, SnapState, SnapWriter, NUM_REGS};
use sst_mem::{AccessKind, Cycle, MemBus};
use sst_obs::{Phase, Probes, Stage};
use sst_uarch::{
    drain_commits, execute, extend_load, mem_addr, Commit, Core, ExecLatency, FetchedInst, Frontend,
    FrontendConfig, RegImage, Seq,
};

/// Configuration of the in-order baseline.
#[derive(Clone, Debug)]
pub struct InOrderConfig {
    /// Issue width (instructions per cycle).
    pub width: usize,
    /// Frontend (fetch/predict) configuration.
    pub frontend: FrontendConfig,
    /// Functional-unit latencies.
    pub latency: ExecLatency,
    /// Memory operations issued per cycle (D-cache ports).
    pub dcache_ports: usize,
}

impl Default for InOrderConfig {
    fn default() -> InOrderConfig {
        InOrderConfig {
            width: 2,
            frontend: FrontendConfig::default(),
            latency: ExecLatency::default(),
            dcache_ports: 1,
        }
    }
}

/// Cycle-accounting statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct InOrderStats {
    /// Cycles with zero issue because the decode queue was empty.
    pub stall_frontend: u64,
    /// Cycles with issue blocked on a not-ready source operand.
    pub stall_operand: u64,
    /// Issue slots lost to D-cache port limits.
    pub stall_port: u64,
    /// Resolved control transfers that disagreed with the prediction.
    pub mispredicts: u64,
    /// Total issue slots used.
    pub issued: u64,
}

sst_isa::snap_record!(InOrderStats {
    stall_frontend,
    stall_operand,
    stall_port,
    mispredicts,
    issued,
});

/// Why the head of the decode queue cannot issue this cycle: the verdict of
/// [`InOrderCore::issue_gate`], which `tick` acts on and `next_event_cycle`
/// / `skip_to` vouch and charge by.
#[derive(Clone, Copy)]
enum IssueStall {
    /// Decode queue empty; refilled only by fetch.
    Frontend,
    /// A source is not produced or timed ready until the given cycle.
    Operand(Cycle),
}

impl IssueStall {
    /// Charges `n` stalled cycles to this stall's counter.
    #[inline]
    fn charge(self, s: &mut InOrderStats, n: u64) {
        match self {
            IssueStall::Frontend => s.stall_frontend += n,
            IssueStall::Operand(_) => s.stall_operand += n,
        }
    }
}

/// The in-order stall-on-use core.
pub struct InOrderCore {
    cfg: InOrderConfig,
    id: usize,
    frontend: Frontend,
    regs: RegImage,
    seq: Seq,
    cycle: Cycle,
    halted: bool,
    commits: Vec<Commit>,
    /// Event ring and host stage timers (`Core::probes`), record-only. An
    /// in-order core has a single phase, so its track is one `normal` span.
    probes: Probes,
    /// Statistics counters.
    pub stats: InOrderStats,
}

impl InOrderCore {
    /// Creates a core with index `id` that will start at `program.entry`.
    ///
    /// The caller is responsible for loading the program image into the
    /// core's memory port (see `Program::load_into`).
    pub fn new(cfg: InOrderConfig, id: usize, program: &Program) -> InOrderCore {
        InOrderCore {
            frontend: Frontend::new(cfg.frontend, program),
            cfg,
            id,
            regs: RegImage::new(),
            seq: 0,
            cycle: 0,
            halted: false,
            commits: Vec::new(),
            probes: Probes::default(),
            stats: InOrderStats::default(),
        }
    }

    /// Read-only view of the architectural register image (tests).
    pub fn regs(&self) -> &RegImage {
        &self.regs
    }

    /// The frontend (to inspect prediction statistics).
    pub fn frontend(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    fn source_vals(&self, inst: Inst) -> (u64, u64) {
        let [s1, s2] = inst.sources();
        let v1 = s1.map_or(0, |r| self.regs.value(r));
        let v2 = s2.map_or(0, |r| self.regs.value(r));
        (v1, v2)
    }

    /// The issue stage's stall decision for the head of the decode queue at
    /// cycle `now`: the head's instruction, or why it cannot issue. `tick` calls it per
    /// slot to act; `next_event_cycle` and `skip_to` call it to vouch an
    /// idle window and to charge it. The D-cache port limit is outside it:
    /// a head that reaches it counts as able to act. Always inlined, like
    /// the checks it replaced in `tick`'s issue loop.
    #[inline(always)]
    fn issue_gate(&self, now: Cycle) -> Result<Inst, IssueStall> {
        let Some(f) = self.frontend.peek() else {
            return Err(IssueStall::Frontend);
        };
        // Stall-on-use: all sources must be produced and timed ready.
        let ready = self.regs.ready_after(f.inst.sources());
        if ready > now {
            return Err(IssueStall::Operand(ready));
        }
        Ok(f.inst)
    }

    /// Issues one instruction; returns `false` if issue must stop this
    /// cycle (control redirect or halt).
    fn issue(&mut self, fetched: FetchedInst, now: Cycle, mem: &mut MemBus) -> bool {
        self.seq += 1;
        let seq = self.seq;
        let pc = fetched.pc;
        let inst = fetched.inst;
        self.stats.issued += 1;

        let mut reg_write = None;
        let mut store = None;
        let mut redirect = None;

        match inst {
            Inst::Load {
                width, signed, rd, ..
            } => {
                let (base_val, _) = self.source_vals(inst);
                let addr = mem_addr(inst, base_val);
                let bytes = width.bytes();
                let out = mem.access_pc(now, AccessKind::Load, addr, pc);
                let raw = mem.read(addr, bytes);
                let value = extend_load(width, signed, raw);
                self.regs.write(rd, value, seq, out.ready_at);
                if !rd.is_zero() {
                    reg_write = Some((rd, value));
                }
            }
            Inst::Store { width, .. } => {
                let (base_val, data) = self.source_vals(inst);
                let addr = mem_addr(inst, base_val);
                let bytes = width.bytes();
                mem.access_pc(now, AccessKind::Store, addr, pc);
                mem.write(addr, bytes, data);
                store = Some((addr, bytes, data));
            }
            Inst::Prefetch { .. } => {
                let (base_val, _) = self.source_vals(inst);
                let addr = mem_addr(inst, base_val);
                mem.access_pc(now, AccessKind::Prefetch, addr, pc);
            }
            Inst::Halt => {
                self.halted = true;
            }
            _ => {
                let (s1, s2) = self.source_vals(inst);
                let out = execute(inst, s1, s2, pc);
                if let (Some(v), Some(rd)) = (out.value, inst.dest()) {
                    self.regs
                        .write(rd, v, seq, now + self.cfg.latency.of(inst));
                    reg_write = Some((rd, v));
                }
                if inst.is_control() {
                    self.frontend.resolve(pc, inst, out.taken, out.next_pc);
                    if out.next_pc != fetched.pred_next_pc {
                        redirect = Some(out.next_pc);
                    }
                }
            }
        }

        self.commits.push(Commit {
            seq,
            pc,
            inst,
            reg_write,
            store,
            at: now,
        });

        if let Some(target) = redirect {
            self.stats.mispredicts += 1;
            self.frontend.redirect(now + 1, target);
            return false;
        }
        !self.halted
    }
}

sst_isa::snap_record!(state InOrderCore "INOC" {
    cycle,
    seq,
    halted,
    frontend,
    regs,
    commits,
    stats,
});

impl Core for InOrderCore {
    fn tick(&mut self, mem: &mut MemBus) {
        let now = self.cycle;
        self.cycle += 1;
        self.probes.set_phase(Phase::Normal, now);
        if self.halted {
            return;
        }
        let t0 = self.probes.start();
        self.frontend.tick(now, mem);
        self.probes.stop(Stage::Fetch, t0);

        let t0 = self.probes.start();
        let mut mem_ops = 0;
        for slot in 0..self.cfg.width {
            let inst = match self.issue_gate(now) {
                Ok(inst) => inst,
                Err(stall) => {
                    if slot == 0 {
                        stall.charge(&mut self.stats, 1);
                    }
                    break;
                }
            };
            if inst.is_mem() {
                if mem_ops >= self.cfg.dcache_ports {
                    self.stats.stall_port += 1;
                    break;
                }
                mem_ops += 1;
            }

            let fetched = self.frontend.pop().expect("peeked");
            if !self.issue(fetched, now, mem) {
                break;
            }
        }
        self.probes.stop(Stage::Issue, t0);
    }

    #[inline]
    fn cycle(&self) -> Cycle {
        self.cycle
    }

    fn retired(&self) -> u64 {
        self.seq
    }

    #[inline]
    fn halted(&self) -> bool {
        self.halted
    }

    #[inline]
    fn drain_commits_into(&mut self, out: &mut Vec<Commit>) {
        drain_commits(&mut self.commits, out);
    }

    fn next_event_cycle(&self) -> Cycle {
        let now = self.cycle;
        if self.halted {
            return Cycle::MAX;
        }
        let fetch = self.frontend.next_fetch_cycle(now);
        let issue = match self.issue_gate(now) {
            Ok(_) => now,
            Err(IssueStall::Operand(ready)) => ready,
            // An empty queue is refilled only by fetch, which `fetch`
            // already covers.
            Err(IssueStall::Frontend) => Cycle::MAX,
        };
        fetch.min(issue)
    }

    fn skip_to(&mut self, target: Cycle) {
        let from = self.cycle;
        debug_assert!(from < target && target <= self.next_event_cycle());
        let n = target - from;
        self.frontend.note_skipped(from, target);
        // Nothing fetches or issues inside the window, so one stall reason
        // holds for every skipped cycle — the same slot-0 bookkeeping
        // `tick` would have done.
        match self.issue_gate(from) {
            Err(stall) => stall.charge(&mut self.stats, n),
            Ok(_) => debug_assert!(false, "skip_to with an issueable head"),
        }
        self.cycle = target;
    }

    fn gate_to(&mut self, target: Cycle) {
        // Clock gate: dead time, not stall time — no counters move, and
        // absolute-cycle state (outstanding I-miss, operand timers) ages
        // naturally across the gate.
        self.cycle = self.cycle.max(target);
    }

    fn core_id(&self) -> usize {
        self.id
    }

    fn model_name(&self) -> &'static str {
        "in-order"
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let bu = self.frontend.branch_unit_ref();
        vec![
            ("issued", self.stats.issued),
            ("stall_frontend", self.stats.stall_frontend),
            ("stall_operand", self.stats.stall_operand),
            ("stall_port", self.stats.stall_port),
            ("mispredicts", self.stats.mispredicts),
            ("cond_predictions", bu.cond_predictions),
            ("cond_mispredictions", bu.cond_mispredictions),
        ]
    }

    fn probes(&mut self) -> &mut Probes {
        &mut self.probes
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.put_state(w);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.take_state(r)
    }

    fn warm_boot(&mut self, regs: &[u64; NUM_REGS], pc: u64) {
        let mut image = RegImage::new();
        for (i, &v) in regs.iter().enumerate() {
            if let Some(reg) = Reg::from_index(i as u8) {
                image.write(reg, v, 0, 0);
            }
        }
        self.regs = image;
        self.halted = false;
        self.frontend.warm_reset(pc);
    }

    fn warm_predictor(&mut self, pc: u64, inst: Inst, taken: bool, next_pc: u64) {
        self.frontend.resolve(pc, inst, taken, next_pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{Asm, Interp, Reg, StopReason};
    use sst_mem::{MemConfig, MemSystem};

    fn run(
        build: impl FnOnce(&mut Asm),
        max_cycles: u64,
    ) -> (InOrderCore, MemSystem, sst_isa::Program) {
        let mut a = Asm::new();
        build(&mut a);
        let p = a.finish().unwrap();
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        p.load_into(mem.mem_mut());
        let mut core = InOrderCore::new(InOrderConfig::default(), 0, &p);
        while !core.halted() && core.cycle() < max_cycles {
            core.tick(&mut mem.bus(0));
        }
        assert!(core.halted(), "program did not finish in {max_cycles} cycles");
        (core, mem, p)
    }

    /// Full co-simulation: every commit must match the interpreter step.
    fn cosim(build: impl Fn(&mut Asm), max_cycles: u64) -> (InOrderCore, MemSystem) {
        let (mut core, mem, p) = run(&build, max_cycles);
        let mut interp = Interp::new(&p);
        let mut commits = Vec::new();
        core.drain_commits_into(&mut commits);
        assert!(!commits.is_empty());
        for (i, c) in commits.iter().enumerate() {
            let ev = interp.step().expect("interp ok");
            assert_eq!(c.pc, ev.pc, "commit {i}: pc mismatch");
            assert_eq!(c.inst, ev.inst, "commit {i}: inst mismatch");
            assert_eq!(
                c.reg_write, ev.reg_write,
                "commit {i} at pc {:#x}: register write mismatch",
                c.pc
            );
            assert_eq!(c.seq, i as u64 + 1, "commit seq must be dense");
        }
        assert!(interp.is_halted());
        (core, mem)
    }

    #[test]
    fn cosim_arithmetic_loop() {
        cosim(
            |a| {
                a.li(Reg::x(5), 50);
                a.li(Reg::x(6), 0);
                let top = a.here();
                a.add(Reg::x(6), Reg::x(6), Reg::x(5));
                a.addi(Reg::x(5), Reg::x(5), -1);
                a.bne(Reg::x(5), Reg::ZERO, top);
                a.halt();
            },
            100_000,
        );
    }

    #[test]
    fn cosim_memory_traffic() {
        cosim(
            |a| {
                let buf = a.reserve(4096);
                a.la(Reg::x(1), buf);
                a.li(Reg::x(2), 64);
                let top = a.here();
                a.sd(Reg::x(2), Reg::x(1), 0);
                a.ld(Reg::x(3), Reg::x(1), 0);
                a.add(Reg::x(4), Reg::x(4), Reg::x(3));
                a.addi(Reg::x(1), Reg::x(1), 8);
                a.addi(Reg::x(2), Reg::x(2), -1);
                a.bne(Reg::x(2), Reg::ZERO, top);
                a.halt();
            },
            1_000_000,
        );
    }

    #[test]
    fn cosim_calls_and_fp() {
        cosim(
            |a| {
                let vals = a.data_u64(&[1.0f64, 2.0, 3.0, 4.0].map(f64::to_bits));
                a.la(Reg::x(10), vals);
                a.li(Reg::x(11), 4);
                let f = a.label();
                let top = a.here();
                a.ld(Reg::f(0), Reg::x(10), 0);
                a.call(f);
                a.addi(Reg::x(10), Reg::x(10), 8);
                a.addi(Reg::x(11), Reg::x(11), -1);
                a.bne(Reg::x(11), Reg::ZERO, top);
                a.halt();
                a.bind(f);
                a.fadd(Reg::f(1), Reg::f(1), Reg::f(0));
                a.fmul(Reg::f(2), Reg::f(1), Reg::f(1));
                a.ret();
            },
            1_000_000,
        );
    }

    #[test]
    fn final_register_state_matches_interp() {
        let (core, _mem, p) = run(
            |a| {
                a.li(Reg::x(5), 1000);
                a.li(Reg::x(6), 7);
                a.mul(Reg::x(7), Reg::x(5), Reg::x(6));
                a.div(Reg::x(8), Reg::x(7), Reg::x(6));
                a.halt();
            },
            100_000,
        );
        let mut i = Interp::new(&p);
        assert_eq!(i.run(1000).unwrap().stop, StopReason::Halt);
        assert_eq!(core.regs().value(Reg::x(7)), i.state().read(Reg::x(7)));
        assert_eq!(core.regs().value(Reg::x(8)), i.state().read(Reg::x(8)));
    }

    #[test]
    fn dependent_miss_chain_is_slow() {
        // Pointer chase: each load depends on the previous one. The
        // stall-on-use core must pay roughly the full memory latency per
        // hop.
        let hops = 16u64;
        let (core, mem, _p) = run(
            |a| {
                // Build a chain: node[i] -> node[i+1], 1 MiB apart.
                let stride = 1 << 20;
                // The chain is written by code first.
                let base = a.reserve(stride * (hops + 1));
                a.la(Reg::x(1), base);
                a.li(Reg::x(2), hops as i64);
                a.li(Reg::x(3), stride as i64);
                let w = a.here();
                a.add(Reg::x(4), Reg::x(1), Reg::x(3));
                a.sd(Reg::x(4), Reg::x(1), 0);
                a.mv(Reg::x(1), Reg::x(4));
                a.addi(Reg::x(2), Reg::x(2), -1);
                a.bne(Reg::x(2), Reg::ZERO, w);
                // Chase it.
                a.la(Reg::x(1), base);
                a.li(Reg::x(2), hops as i64);
                let c = a.here();
                a.ld(Reg::x(1), Reg::x(1), 0);
                a.addi(Reg::x(2), Reg::x(2), -1);
                a.bne(Reg::x(2), Reg::ZERO, c);
                a.halt();
            },
            10_000_000,
        );
        let st = mem.stats();
        assert!(st.dram_reads > hops, "chase misses in DRAM");
        assert!(
            core.stats.stall_operand > hops * 100,
            "stall-on-use dominated: {} stalls",
            core.stats.stall_operand
        );
    }

    #[test]
    fn independent_misses_overlap() {
        // Two interleaved independent chases: MLP 2. Total time should be
        // well under 2x a single chase of the same total length.
        let build_two = |a: &mut Asm| {
            let stride = 1 << 20;
            let hops = 16u64;
            let base1 = a.reserve(stride * (hops + 1));
            let base2 = a.reserve(stride * (hops + 1));
            for base in [base1, base2] {
                a.la(Reg::x(1), base);
                a.li(Reg::x(2), hops as i64);
                a.li(Reg::x(3), stride as i64);
                let w = a.here();
                a.add(Reg::x(4), Reg::x(1), Reg::x(3));
                a.sd(Reg::x(4), Reg::x(1), 0);
                a.mv(Reg::x(1), Reg::x(4));
                a.addi(Reg::x(2), Reg::x(2), -1);
                a.bne(Reg::x(2), Reg::ZERO, w);
            }
            a.la(Reg::x(10), base1);
            a.la(Reg::x(11), base2);
            a.li(Reg::x(2), hops as i64);
            let c = a.here();
            a.ld(Reg::x(10), Reg::x(10), 0);
            a.ld(Reg::x(11), Reg::x(11), 0);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
        };
        let (core2, _m, _) = run(build_two, 10_000_000);

        // Serial version: one chain of 2*hops.
        let build_one = |a: &mut Asm| {
            let stride = 1 << 20;
            let hops = 32u64;
            let base = a.reserve(stride * (hops + 1));
            a.la(Reg::x(1), base);
            a.li(Reg::x(2), hops as i64);
            a.li(Reg::x(3), stride as i64);
            let w = a.here();
            a.add(Reg::x(4), Reg::x(1), Reg::x(3));
            a.sd(Reg::x(4), Reg::x(1), 0);
            a.mv(Reg::x(1), Reg::x(4));
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, w);
            a.la(Reg::x(1), base);
            a.li(Reg::x(2), hops as i64);
            let c = a.here();
            a.ld(Reg::x(1), Reg::x(1), 0);
            a.addi(Reg::x(2), Reg::x(2), -1);
            a.bne(Reg::x(2), Reg::ZERO, c);
            a.halt();
        };
        let (core1, _m, _) = run(build_one, 10_000_000);
        assert!(
            (core2.cycle() as f64) < core1.cycle() as f64 * 0.8,
            "MLP-2 chase ({}) should beat serial chase ({})",
            core2.cycle(),
            core1.cycle()
        );
    }

    #[test]
    fn mispredict_penalty_visible() {
        // Data-dependent unpredictable-ish branch pattern via xorshift.
        let (core, _m, _) = run(
            |a| {
                a.li(Reg::x(1), 88172645463325252u64 as i64);
                a.li(Reg::x(2), 2000); // iterations
                a.li(Reg::x(9), 0);
                let top = a.here();
                // xorshift64
                a.slli(Reg::x(3), Reg::x(1), 13);
                a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
                a.srli(Reg::x(3), Reg::x(1), 7);
                a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
                a.slli(Reg::x(3), Reg::x(1), 17);
                a.xor(Reg::x(1), Reg::x(1), Reg::x(3));
                a.andi(Reg::x(4), Reg::x(1), 1);
                let skip = a.label();
                a.beq(Reg::x(4), Reg::ZERO, skip);
                a.addi(Reg::x(9), Reg::x(9), 1);
                a.bind(skip);
                a.addi(Reg::x(2), Reg::x(2), -1);
                a.bne(Reg::x(2), Reg::ZERO, top);
                a.halt();
            },
            10_000_000,
        );
        assert!(
            core.stats.mispredicts > 200,
            "random branches mispredict: {}",
            core.stats.mispredicts
        );
    }

    #[test]
    fn halted_core_stops_advancing_state() {
        let (mut core, mut mem, _p) = run(
            |a| {
                a.li(Reg::x(1), 5);
                a.halt();
            },
            10_000,
        );
        let retired = core.retired();
        for _ in 0..100 {
            core.tick(&mut mem.bus(0));
        }
        assert_eq!(core.retired(), retired);
    }
}
