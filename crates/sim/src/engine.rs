//! The simulation engine: the one cycle loop of this crate.
//!
//! A single-core [`crate::System`], a batch [`crate::CmpSystem::run`], a
//! service run ([`crate::CmpSystem::run_service`]) and a sampled detailed
//! interval ([`crate::run_sampled`]) are all [`Stepper::run_span`] over a
//! slice of cores, generic over two things only: the [`Fabric`] (how core
//! `i` reaches memory and publishes progress) and one [`Policy`] per core
//! (what its commits mean to the run, and whether it goes on). Two
//! executors, [`run_serial`] and [`run_parallel`], call `run_span` between
//! *boundaries*: a closure that, on one thread, may rearrange the policies
//! and names the next span's end. A batch CMP run is a service run with a
//! single boundary at its cycle budget; a `System` is the serial executor
//! over one core.
//!
//! # The span rules
//!
//! All cores of a chip share one clock, `now`; one iteration of the span
//! loop is one cycle.
//!
//! 1. **Tick order.** Every running core is ticked in ascending core id,
//!    its commits drained and handed to its policy. This is the reference
//!    interleaving of shared-memory traffic: ascending cycle, within a
//!    cycle ascending core id, each core's whole tick atomic.
//! 2. **Leaving the clock.** On [`Verdict::Retire`] a core is never
//!    ticked, skipped or gated again. On [`Verdict::Idle`] it is
//!    clock-gated ([`Core::gate_to`]) to the span's end and ticked again
//!    only in a later span. [`Verdict::Pause`] keeps it on the clock but
//!    asks for no more ticks.
//! 3. **Lockstep skip.** With fast-forwarding on, the clock then jumps to
//!    the earliest [`Core::next_event_cycle`] over the cores still on the
//!    clock, clamped to the span's end, and each of them is moved there
//!    with [`Core::skip_to`]. Skipped cycles touch no memory and commit
//!    nothing (the `next_event_cycle` contract), so a run is identical
//!    cycle for cycle with skipping on or off, a deadline fires on the
//!    same cycle with the same commit count, and skipping per chunk of a
//!    parallel run cannot reorder shared-memory traffic.
//! 4. **Stop.** The span ends at `end`, or once no core is running.
//!
//! # Horizon publication (parallel runs)
//!
//! Each worker of [`run_parallel`] runs the span loop over a contiguous
//! chunk of cores, yet shared L2/DRAM state must see the interleaving of
//! rule 1. [`ParallelMem`] enforces it from per-core *horizons* (the cycle
//! a core executes next), so the fabric is told whenever a core's clock
//! moves: `now + 1` after a tick, the target after a skip, the span's end
//! when it is gated (cross-chunk ordering never waits on an idle core),
//! "never again" when it retires. Anything that involves more than one
//! core is decided in the boundary closure, on the coordinating thread,
//! while every worker is parked. Together these make results
//! byte-identical for every thread count.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

use sst_mem::{Cycle, MemBus, MemPort, MemSystem, ParallelMem};
use sst_uarch::{Commit, Core};

/// A policy's answer about its core (see the module docs, rule 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep ticking.
    Run,
    /// The core has what this run wanted from it but stays on the clock:
    /// no more ticks, the span stops after this cycle's skip.
    Pause,
    /// The core is finished for good (halted, or failed).
    Retire,
    /// Nothing to do until the next boundary: gate the core to the span's
    /// end.
    Idle,
}

impl Verdict {
    /// The answer of a run that wants `target` commits from its core and
    /// has seen `committed`. On reaching the target the core stays on the
    /// clock, so a run paused here stands after that cycle's skip, between
    /// full iterations of the span loop.
    pub(crate) fn until(core: &dyn Core, committed: u64, target: u64) -> Verdict {
        if core.halted() {
            Verdict::Retire
        } else if committed >= target {
            Verdict::Pause
        } else {
            Verdict::Run
        }
    }
}

/// What one core's commits mean to the run.
pub(crate) trait Policy {
    /// Called once at the start of a span (no commits) and after each of
    /// the core's ticks with the commits that tick drained; `now` is the
    /// cycle that was ticked.
    fn step(&mut self, core: &dyn Core, commits: &[Commit], now: Cycle) -> Verdict;
}

/// Runs until `halt` and wants nothing else: a batch CMP core.
#[derive(Default)]
pub(crate) struct UntilHalt;

impl Policy for UntilHalt {
    fn step(&mut self, core: &dyn Core, _commits: &[Commit], _now: Cycle) -> Verdict {
        Verdict::until(core, 0, u64::MAX)
    }
}

/// How the cores of one chunk reach memory and publish progress. Core
/// indices are chunk-local.
pub(crate) trait Fabric {
    /// Core `i`'s bus for one tick.
    fn bus(&mut self, i: usize) -> MemBus<'_>;
    /// Core `i` has completed every cycle below `next_cycle`
    /// (`Cycle::MAX`: it will never touch memory again).
    fn progress(&self, _i: usize, _next_cycle: Cycle) {}
}

impl Fabric for MemSystem {
    fn bus(&mut self, i: usize) -> MemBus<'_> {
        MemSystem::bus(self, i)
    }
}

/// A worker's view of the split memory system: its own ports, the shared
/// residue behind the horizon gate.
struct Gated<'a> {
    pmem: &'a ParallelMem,
    ports: &'a mut [MemPort],
    base: usize,
}

impl Fabric for Gated<'_> {
    fn bus(&mut self, i: usize) -> MemBus<'_> {
        // Stop promptly even if this chunk never waits on the failed peer.
        assert!(!self.pmem.is_poisoned(), "parallel run: a peer worker panicked");
        self.pmem.bus(&mut self.ports[i], self.base + i)
    }
    fn progress(&self, i: usize, next_cycle: Cycle) {
        self.pmem.note_progress(self.base + i, next_cycle);
    }
}

/// The span stepper. It owns only the buffers [`Stepper::run_span`] reuses
/// from span to span (a run keeps one, so that a run's heap does not
/// churn with its spans); everything simulated lives in the arguments.
#[derive(Default)]
pub(crate) struct Stepper {
    commits: Vec<Commit>,
    state: Vec<Verdict>,
}

impl Stepper {
    /// Runs `cores` from chip cycle `now` to at most `end` under the span
    /// rules in the module docs. Returns the chip clock at the stop — `end`
    /// when it was reached or any core is gated to it — and whether any core
    /// has more to do (still running at `end`, or idle until the next
    /// boundary).
    pub(crate) fn run_span<F: Fabric, P: Policy>(
        &mut self,
        cores: &mut [Box<dyn Core>],
        fabric: &mut F,
        policies: &mut [P],
        mut now: Cycle,
        end: Cycle,
        fast_forward: bool,
    ) -> (Cycle, bool) {
        assert_eq!(cores.len(), policies.len());
        let Stepper { commits, state } = self;
        commits.clear();
        state.clear();
        let leave_clock = |v: Verdict, i: usize, core: &mut dyn Core, fabric: &F| match v {
            Verdict::Retire => fabric.progress(i, Cycle::MAX),
            Verdict::Idle => {
                core.gate_to(end);
                fabric.progress(i, end);
            }
            Verdict::Run | Verdict::Pause => {}
        };

        for (i, (core, policy)) in cores.iter_mut().zip(policies.iter_mut()).enumerate() {
            let v = policy.step(&**core, commits, now);
            leave_clock(v, i, &mut **core, fabric);
            state.push(v);
        }
        let mut running = state.iter().filter(|&&v| v == Verdict::Run).count();

        while running > 0 && now < end {
            for (i, core) in cores.iter_mut().enumerate() {
                if state[i] != Verdict::Run {
                    continue;
                }
                core.tick(&mut fabric.bus(i));
                fabric.progress(i, now + 1);
                core.drain_commits_into(commits);
                let v = policies[i].step(&**core, commits, now);
                commits.clear();
                if v != Verdict::Run {
                    state[i] = v;
                    running -= 1;
                    leave_clock(v, i, &mut **core, fabric);
                }
            }
            now += 1;
            if fast_forward && now < end {
                let on_clock = |v: Verdict| matches!(v, Verdict::Run | Verdict::Pause);
                let wake = cores
                    .iter()
                    .zip(state.iter())
                    .filter(|(_, &v)| on_clock(v))
                    .map(|(c, _)| c.next_event_cycle())
                    .min();
                if let Some(target) = wake.map(|t| t.min(end)).filter(|&t| t > now) {
                    for (i, core) in cores.iter_mut().enumerate() {
                        if on_clock(state[i]) {
                            core.skip_to(target);
                            fabric.progress(i, target);
                        }
                    }
                    now = target;
                }
            }
        }

        let idle = state.contains(&Verdict::Idle);
        (if idle { end } else { now }, running > 0 || idle)
    }
}

/// The serial executor: `boundary(now, policies)` names the end of the
/// next span (or `None` to stop); spans run until one leaves no core with
/// more to do. Returns the final chip clock.
pub(crate) fn run_serial<F: Fabric, P: Policy>(
    cores: &mut [Box<dyn Core>],
    fabric: &mut F,
    policies: &mut [P],
    fast_forward: bool,
    mut now: Cycle,
    mut boundary: impl FnMut(Cycle, &mut [P]) -> Option<Cycle>,
) -> Cycle {
    let mut stepper = Stepper::default();
    while let Some(end) = boundary(now, policies) {
        let (at, live) = stepper.run_span(cores, fabric, policies, now, end, fast_forward);
        now = at;
        if !live {
            break;
        }
    }
    now
}

/// The chunk-parallel executor: the same contract as [`run_serial`] from
/// cycle 0, with the cores split into contiguous chunks, one
/// `std::thread::scope` worker per chunk, each running [`Stepper::run_span`]
/// against a gated fabric. Per span the coordinator (this thread) calls
/// `boundary` alone while the workers are parked, hands each chunk its
/// policies and the span, and releases them (phase A); each worker runs
/// its chunk's span and parks again (phase B). See the module docs for
/// why the result is byte-identical to the serial executor's.
pub(crate) fn run_parallel<P: Policy + Default + Send>(
    cores: &mut [Box<dyn Core>],
    mem: MemSystem,
    policies: &mut [P],
    threads: usize,
    fast_forward: bool,
    mut boundary: impl FnMut(Cycle, &mut [P]) -> Option<Cycle>,
) -> (Cycle, MemSystem) {
    let n = cores.len();
    let chunk = n.div_ceil(threads.clamp(1, n));
    let n_workers = n.div_ceil(chunk);
    let (mut ports, pmem) = mem.into_parallel();

    // Policies cross threads only at the barriers: the coordinator moves
    // each chunk's into its slot before phase A and back after phase B. A
    // slot holder that panics poisons the horizon table on its way out,
    // which stops every peer before it could reach the slot again.
    const HELD: &str = "no peer survives a panicking slot holder";
    let slots: Vec<Mutex<Vec<P>>> = (0..n_workers).map(|_| Mutex::new(Vec::new())).collect();
    let barrier = QuantumBarrier {
        n: n_workers + 1,
        arrived: AtomicUsize::new(0),
        generation: AtomicU64::new(0),
    };
    let stop = AtomicBool::new(false);
    let (span_now, span_end) = (AtomicU64::new(0), AtomicU64::new(0));
    let (reached, live) = (AtomicU64::new(0), AtomicBool::new(false));

    let mut now: Cycle = 0;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (ci, (cores, ports)) in cores.chunks_mut(chunk).zip(ports.chunks_mut(chunk)).enumerate() {
            let (pmem, barrier, slot) = (&pmem, &barrier, &slots[ci]);
            let (stop, span_now, span_end, reached, live) = (&stop, &span_now, &span_end, &reached, &live);
            handles.push(s.spawn(move || {
                let _poison = PoisonOnPanic(pmem);
                let mut fabric = Gated { pmem, ports, base: ci * chunk };
                let mut stepper = Stepper::default();
                // A: the coordinator published its command.
                while barrier.wait(pmem) && !stop.load(SeqCst) {
                    let (now, end) = (span_now.load(SeqCst), span_end.load(SeqCst));
                    let mut mine = slot.lock().expect(HELD);
                    let (at, more) = stepper.run_span(cores, &mut fabric, &mut mine, now, end, fast_forward);
                    drop(mine);
                    reached.fetch_max(at, SeqCst);
                    live.fetch_or(more, SeqCst);
                    // B: this chunk's span is done.
                    if !barrier.wait(pmem) {
                        break;
                    }
                }
            }));
        }

        // Coordinator: the only thread that ever calls `boundary`. The
        // workers are parked at phase A whenever it runs, holding no slot.
        {
            let _poison = PoisonOnPanic(&pmem);
            while let Some(end) = boundary(now, policies) {
                for (slot, mine) in slots.iter().zip(policies.chunks_mut(chunk)) {
                    slot.lock().expect(HELD).extend(mine.iter_mut().map(std::mem::take));
                }
                span_now.store(now, SeqCst);
                span_end.store(end, SeqCst);
                reached.store(now, SeqCst);
                live.store(false, SeqCst);
                // Phases A and B. A failed worker's panic is re-raised at
                // the join below.
                if !(barrier.wait(&pmem) && barrier.wait(&pmem)) {
                    break;
                }
                for (slot, mine) in slots.iter().zip(policies.chunks_mut(chunk)) {
                    for (p, ran) in mine.iter_mut().zip(slot.lock().expect(HELD).drain(..)) {
                        *p = ran;
                    }
                }
                now = reached.load(SeqCst);
                if !live.load(SeqCst) {
                    break;
                }
            }
            stop.store(true, SeqCst);
            barrier.wait(&pmem); // release the workers into their exit
        }

        for h in handles {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
    });
    (now, pmem.into_system(ports))
}

/// Poisons the shared horizon table if the thread unwinds, so peers
/// spin-waiting on its progress panic instead of hanging.
struct PoisonOnPanic<'a>(&'a ParallelMem);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// A spinning phase barrier that gives up when the shared horizon table
/// is poisoned, so a panicking worker can never strand its peers —
/// `std::sync::Barrier` would deadlock there. Generation-counted: safe
/// for arbitrarily many reuse phases.
struct QuantumBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
}

impl QuantumBarrier {
    /// Returns `false`, without waiting for the others, once the run is
    /// poisoned.
    fn wait(&self, pmem: &ParallelMem) -> bool {
        let gen = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == self.n {
            // Reset before the generation bump: nobody re-enters until
            // they observe the new generation.
            self.arrived.store(0, SeqCst);
            self.generation.store(gen + 1, SeqCst);
        } else {
            let mut spins = 0u32;
            while self.generation.load(SeqCst) == gen {
                if pmem.is_poisoned() {
                    return false;
                }
                spins = spins.wrapping_add(1);
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use sst_isa::Inst;
    use sst_mem::MemConfig;

    /// What a [`Scripted`] core was asked to do.
    #[derive(Debug, Default)]
    struct Calls {
        ticked_at: Vec<Cycle>,
        skips: Vec<Cycle>,
        gates: Vec<Cycle>,
    }

    /// A core that does one instruction of work every `period` cycles,
    /// stalls in between (and says so through `next_event_cycle`), and
    /// halts after `work` instructions. It never touches memory.
    struct Scripted {
        period: Cycle,
        work: u64,
        cycle: Cycle,
        next_work: Cycle,
        retired: u64,
        pending: Vec<Commit>,
        calls: Arc<Mutex<Calls>>,
    }

    impl Scripted {
        fn boxed(period: Cycle, work: u64) -> (Box<dyn Core>, Arc<Mutex<Calls>>) {
            let calls = Arc::new(Mutex::new(Calls::default()));
            let core = Scripted {
                period,
                work,
                cycle: 0,
                next_work: 0,
                retired: 0,
                pending: Vec::new(),
                calls: Arc::clone(&calls),
            };
            (Box::new(core), calls)
        }
    }

    impl Core for Scripted {
        fn tick(&mut self, _mem: &mut MemBus) {
            assert!(!self.halted(), "ticked after halt");
            self.calls.lock().unwrap().ticked_at.push(self.cycle);
            if self.cycle >= self.next_work {
                self.retired += 1;
                self.next_work = self.cycle + self.period;
                self.pending.push(Commit {
                    seq: self.retired,
                    pc: 0,
                    inst: Inst::Halt,
                    reg_write: None,
                    store: None,
                    at: self.cycle,
                });
            }
            self.cycle += 1;
        }
        fn cycle(&self) -> Cycle {
            self.cycle
        }
        fn retired(&self) -> u64 {
            self.retired
        }
        fn halted(&self) -> bool {
            self.retired >= self.work
        }
        fn drain_commits_into(&mut self, out: &mut Vec<Commit>) {
            out.append(&mut self.pending);
        }
        fn next_event_cycle(&self) -> Cycle {
            self.next_work.max(self.cycle)
        }
        fn skip_to(&mut self, target: Cycle) {
            assert!(target > self.cycle && target <= self.next_work, "unvouched skip to {target}");
            self.calls.lock().unwrap().skips.push(target);
            self.cycle = target;
        }
        fn gate_to(&mut self, target: Cycle) {
            self.calls.lock().unwrap().gates.push(target);
            self.cycle = self.cycle.max(target);
        }
        fn core_id(&self) -> usize {
            0
        }
        fn model_name(&self) -> &'static str {
            "scripted"
        }
    }

    /// Counts commits; idles once `quota` of them have been seen.
    struct Quota {
        commits: u64,
        quota: u64,
    }

    impl Policy for Quota {
        fn step(&mut self, core: &dyn Core, commits: &[Commit], _now: Cycle) -> Verdict {
            self.commits += commits.len() as u64;
            if core.halted() {
                Verdict::Retire
            } else if self.commits >= self.quota {
                Verdict::Idle
            } else {
                Verdict::Run
            }
        }
    }

    fn quota(quota: u64) -> Quota {
        Quota { commits: 0, quota }
    }

    fn mem(cores: usize) -> MemSystem {
        MemSystem::new(&MemConfig::default(), cores)
    }

    #[test]
    fn a_retired_core_is_never_touched_again() {
        for ff in [true, false] {
            let (short, short_calls) = Scripted::boxed(3, 2);
            let (long, _) = Scripted::boxed(5, 6);
            let mut cores = [short, long];
            let mut policies = [UntilHalt, UntilHalt];
            let (now, live) = Stepper::default().run_span(&mut cores, &mut mem(2), &mut policies, 0, 1000, ff);
            // Work at cycles 0, 5, .., 25: the chip stops the cycle after.
            assert_eq!((now, live), (26, false), "ff={ff}");
            assert_eq!((cores[1].cycle(), cores[1].retired()), (26, 6));
            // The short core halted on its tick at cycle 3 and stayed there.
            assert_eq!((cores[0].cycle(), cores[0].retired()), (4, 2));
            let calls = short_calls.lock().unwrap();
            assert_eq!(calls.ticked_at.last(), Some(&3), "ff={ff}");
            assert!(calls.skips.iter().all(|&t| t <= 4), "ff={ff}: {calls:?}");
            assert!(calls.gates.is_empty());
        }
    }

    #[test]
    fn an_idle_core_ends_the_span_at_exactly_end() {
        let (core, calls) = Scripted::boxed(4, u64::MAX);
        let mut cores = [core];
        let mut policies = [quota(3)];
        let (now, live) = Stepper::default().run_span(&mut cores, &mut mem(1), &mut policies, 0, 100, true);
        assert_eq!((now, live), (100, true));
        assert_eq!(cores[0].cycle(), 100);
        // Third commit on the tick at cycle 8, then one gate, no more ticks.
        let calls = calls.lock().unwrap();
        assert_eq!(calls.ticked_at, [0, 4, 8]);
        assert_eq!(calls.gates, [100]);
        assert_eq!(policies[0].commits, 3);
    }

    #[test]
    fn the_deadline_lands_identically_with_and_without_skipping() {
        let run = |ff: bool| {
            let (core, calls) = Scripted::boxed(7, u64::MAX);
            let mut cores = [core];
            let mut policies = [quota(u64::MAX)];
            let stop = Stepper::default().run_span(&mut cores, &mut mem(1), &mut policies, 0, 50, ff);
            let calls = std::mem::take(&mut *calls.lock().unwrap());
            (stop, cores[0].cycle(), policies[0].commits, calls)
        };
        let (fast_stop, fast_cycle, fast_commits, fast) = run(true);
        let (slow_stop, slow_cycle, slow_commits, slow) = run(false);
        assert_eq!(fast_stop, (50, true));
        assert_eq!((fast_stop, fast_cycle, fast_commits), (slow_stop, slow_cycle, slow_commits));
        assert_eq!((fast_cycle, fast_commits), (50, 8)); // work at 0, 7, .., 49
        // Skipping ticked only the work cycles.
        assert_eq!(fast.ticked_at, [0, 7, 14, 21, 28, 35, 42, 49]);
        assert_eq!(fast.skips, [7, 14, 21, 28, 35, 42, 49]);
        assert_eq!(slow.ticked_at.len(), 50);
        assert!(slow.skips.is_empty());
    }

    #[test]
    fn a_skip_never_passes_end() {
        let (core, calls) = Scripted::boxed(1000, u64::MAX);
        let mut cores = [core];
        let mut policies = [quota(u64::MAX)];
        let (now, live) = Stepper::default().run_span(&mut cores, &mut mem(1), &mut policies, 0, 10, true);
        assert_eq!((now, live, cores[0].cycle()), (10, true, 10));
        assert_eq!(calls.lock().unwrap().skips, [10]);
    }
}
