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
//! loop is one cycle on which at least one core is due, and what the
//! engine does with a due core is one *look*:
//!
//! ```text
//! Core::run_until(bus, horizon, want)   tick, drain, [sleep, tick, drain ...]
//! Policy::step(core, commits, ticked)   -> Verdict
//! Core::gate_to(end)                    on Idle
//! Core::sleep_until(end)                on Run and Pause
//! ```
//!
//! The per-tick sequence itself — `tick`, `drain_commits_into`, `halted`,
//! `next_event_cycle`, `skip_to` — exists once, in those two provided
//! methods of [`Core`]; the engine calls none of the five.
//!
//! 1. **Tick order, and how far a look goes.** Due cores are looked at in
//!    ascending core id. On a chip a look is one tick (horizon `now + 1`),
//!    its commits drained and handed to its policy: the reference
//!    interleaving of shared-memory traffic is ascending cycle, within a
//!    cycle ascending core id, each core's whole tick atomic. One core on
//!    the serial fabric (a `System`, a sampled detailed interval) has
//!    nobody to interleave with: its look runs to the span's end and stops
//!    early only right after the tick that halts the core or brings the
//!    drained commits to the count its policy named ([`Verdict::Run`]; at
//!    most [`LOOK_CAP`]). The policy thus sees the core as it would have
//!    after that tick in a per-tick run: a warm-up mark, a pause point or
//!    a snapshot lands on the same cycle.
//! 2. **Leaving the clock.** On [`Verdict::Retire`] a core is never
//!    ticked, skipped or gated again. On [`Verdict::Idle`] it is
//!    clock-gated ([`Core::gate_to`]) to the span's end and ticked again
//!    only in a later span. On [`Verdict::Pause`] it still goes to sleep
//!    as under rule 3 (that is where a paused run stands) and gets no more
//!    ticks.
//! 3. **Per-core sleep.** With fast-forwarding on, a core that runs on
//!    (or pauses) is moved to its own [`Core::next_event_cycle`] at once,
//!    clamped to the span's end ([`Core::sleep_until`], the one place this
//!    rule lives: `run_until` sleeps between its ticks through it too), and
//!    is not due again before that *wake* cycle. The chip clock then jumps
//!    to the earliest wake among the running cores, so a core parked on
//!    DRAM costs nothing while its neighbours run. This is exact by the
//!    `Core` contract: the
//!    window a core vouches for touches no memory and commits nothing; a
//!    miss's ready cycle is fixed when it is issued, so nothing another
//!    core does can move the wake; and `MemPort`s are private and address
//!    slots disjoint, so a sleeper's state is out of its neighbours'
//!    reach. Hence a run is identical cycle for cycle with skipping on or
//!    off, a deadline fires on the same cycle with the same commit count,
//!    and sleeping per chunk of a parallel run cannot reorder
//!    shared-memory traffic.
//! 4. **Stop.** The span ends at `end`, or once no core is running. Wakes
//!    are clamped to `end`, so every core still running at `end` stands
//!    exactly there and is due on the next span's first cycle.
//!
//! # Horizon publication (parallel runs)
//!
//! Each worker of [`run_parallel`] runs the span loop over a contiguous
//! chunk of cores, yet shared L2/DRAM state must see the interleaving of
//! rule 1. [`ParallelMem`] enforces it from per-core *horizons* (the cycle
//! a core executes next), so the fabric is told whenever a core's clock
//! moves: `now + 1` after a tick, its wake cycle when it goes to sleep
//! (cross-chunk ordering never waits on a sleeper), the span's end when it
//! is gated, "never again" when it retires. Anything that involves more
//! than one core is decided in the boundary closure, on the coordinating
//! thread, while every worker is parked. Together these make results
//! byte-identical for every thread count.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::Mutex;

use sst_mem::{Cycle, MemBus, MemPort, MemSystem, ParallelMem};
use sst_uarch::{Commit, Core};

/// A policy's answer about its core (see the module docs, rule 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Keep ticking; show the core again once this many more commits have
    /// drained (rule 1; 0: after its next tick), or when it halts.
    Run(u64),
    /// The core has what this run wanted from it: no more ticks after this
    /// cycle's skip, which it still gets. The span stops there if no core
    /// is left running.
    Pause,
    /// The core is finished for good (halted, or failed).
    Retire,
    /// Nothing to do until the next boundary: gate the core to the span's
    /// end.
    Idle,
}

impl Verdict {
    /// The answer of a run that wants `target` commits from its core and
    /// has seen `committed`. On reaching the target the core pauses, so
    /// the run stands after that cycle's skip, between full iterations of
    /// the span loop; until then nothing needs looking at.
    pub(crate) fn until(core: &dyn Core, committed: u64, target: u64) -> Verdict {
        if core.halted() {
            Verdict::Retire
        } else if committed >= target {
            Verdict::Pause
        } else {
            Verdict::Run(target - committed)
        }
    }
}

/// What one core's commits mean to the run.
pub(crate) trait Policy {
    /// Called once at the start of a span (no commits) and after each look
    /// at the core (rule 1) with the commits drained since the last call;
    /// `now` is the cycle of the core's latest tick.
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
    /// Whether a lone core may run a whole span in one look (rule 1). Not
    /// behind the horizon gate, where peers order their shared accesses by
    /// the horizon a core publishes after every tick.
    const SOLO_SPANS: bool;
    /// Core `i`'s bus for one look.
    fn bus(&mut self, i: usize) -> MemBus<'_>;
    /// Core `i` has completed every cycle below `next_cycle`
    /// (`Cycle::MAX`: it will never touch memory again).
    fn progress(&self, _i: usize, _next_cycle: Cycle) {}
}

impl Fabric for MemSystem {
    const SOLO_SPANS: bool = true;
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
    const SOLO_SPANS: bool = false;
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
    /// Per core, the cycle it is due next (rule 3); [`OFF`] once it is to
    /// get no more ticks in this span.
    wake: Vec<Cycle>,
    /// Per running core, the commit count its next look stops at (rule 1).
    want: Vec<usize>,
}

/// The wake cycle of a core that is not running.
const OFF: Cycle = Cycle::MAX;

/// The most commits a look hands over, give or take its last tick's. Small
/// on purpose: at 1 000 records the ~100 KB buffers left holes in the heap
/// that moved `peak_rss_mb` (DESIGN.md §7, "Steady host memory").
pub(crate) const LOOK_CAP: u64 = 256;

#[cfg(test)]
thread_local! {
    /// Looks made on this thread (rule 1), for the tests that count them.
    pub(crate) static LOOKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
        let Stepper { commits, wake, want } = self;
        commits.clear();
        wake.clear();
        want.clear();
        let solo = F::SOLO_SPANS && cores.len() == 1;
        let mut idle = false;
        let mut leave_clock = |v: Verdict, i: usize, core: &mut dyn Core, fabric: &F| match v {
            Verdict::Retire => fabric.progress(i, Cycle::MAX),
            Verdict::Idle => {
                idle = true;
                core.gate_to(end);
                fabric.progress(i, end);
            }
            Verdict::Run(_) | Verdict::Pause => {}
        };
        // A running core's entry in `wake` and `want`.
        let on_clock = |v: Verdict, at: Cycle| match v {
            Verdict::Run(n) => (at, n.min(LOOK_CAP) as usize),
            _ => (OFF, 0),
        };

        for (i, (core, policy)) in cores.iter_mut().zip(policies.iter_mut()).enumerate() {
            let v = policy.step(&**core, commits, now);
            leave_clock(v, i, &mut **core, fabric);
            let (at, n) = on_clock(v, now);
            wake.push(at);
            want.push(n);
        }
        let mut running = wake.iter().filter(|&&w| w != OFF).count();

        while running > 0 && now < end {
            // Where the chip clock goes from here: the earliest cycle any
            // core on the clock stands at after this one.
            let mut next = Cycle::MAX;
            for (i, core) in cores.iter_mut().enumerate() {
                if wake[i] > now {
                    next = next.min(wake[i]);
                    continue;
                }
                // One look (rule 1). Only a solo core moves the clock
                // inside it: on a chip the tick is the one at `now`.
                let horizon = if solo { end } else { now + 1 };
                now = core.run_until(&mut fabric.bus(i), horizon, want[i], fast_forward, commits);
                #[cfg(test)]
                LOOKS.with(|n| n.set(n.get() + 1));
                fabric.progress(i, now + 1);
                let v = policies[i].step(&**core, commits, now);
                commits.clear();
                leave_clock(v, i, &mut **core, fabric);
                let mut at = now + 1;
                if matches!(v, Verdict::Run(_) | Verdict::Pause) {
                    at = core.sleep_until(end, fast_forward);
                    if at > now + 1 {
                        fabric.progress(i, at);
                    }
                    next = next.min(at);
                }
                (wake[i], want[i]) = on_clock(v, at);
                running -= usize::from(!matches!(v, Verdict::Run(_)));
            }
            now = if next == Cycle::MAX { now + 1 } else { next };
        }

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

    use sst_isa::{Inst, SnapError, SnapReader, SnapWriter, NUM_REGS};
    use sst_mem::MemConfig;
    use sst_workloads::Scale;

    use crate::{CmpSystem, CoreModel};

    /// One thing a [`Scripted`] core was asked to do.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Call {
        /// `tick` at this cycle.
        Tick(Cycle),
        /// `skip_to` this target.
        Skip(Cycle),
        /// `gate_to` this target.
        Gate(Cycle),
    }
    use Call::{Gate, Skip, Tick};

    /// The calls a [`Scripted`] core received, in order.
    #[derive(Debug, Default)]
    struct Calls(Vec<Call>);

    impl Calls {
        fn ticked_at(&self) -> Vec<Cycle> {
            self.0.iter().filter_map(|c| if let Tick(at) = *c { Some(at) } else { None }).collect()
        }
        fn skips(&self) -> Vec<Cycle> {
            self.0.iter().filter_map(|c| if let Skip(to) = *c { Some(to) } else { None }).collect()
        }
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
        probes: sst_obs::Probes,
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
                probes: Default::default(),
            };
            (Box::new(core), calls)
        }
    }

    impl Core for Scripted {
        fn tick(&mut self, _mem: &mut MemBus) {
            assert!(!self.halted(), "ticked after halt");
            self.calls.lock().unwrap().0.push(Tick(self.cycle));
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
            self.calls.lock().unwrap().0.push(Skip(target));
            self.cycle = target;
        }
        fn gate_to(&mut self, target: Cycle) {
            self.calls.lock().unwrap().0.push(Gate(target));
            self.cycle = self.cycle.max(target);
        }
        fn core_id(&self) -> usize {
            0
        }
        fn save_state(&self, _: &mut SnapWriter) {
            unreachable!("the engine never snapshots a core")
        }
        fn restore_state(&mut self, _: &mut SnapReader<'_>) -> Result<(), SnapError> {
            unreachable!("the engine never restores a core")
        }
        fn warm_boot(&mut self, _: &[u64; NUM_REGS], _: u64) {
            unreachable!("the engine never warm-boots a core")
        }
        fn phases(&self) -> sst_obs::PhaseTable {
            let mut t = sst_obs::PhaseTable::new();
            t.add(sst_obs::Phase::Normal, self.cycle);
            t
        }
        fn probes(&mut self) -> &mut sst_obs::Probes {
            &mut self.probes
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
                Verdict::Run(self.quota - self.commits)
            }
        }
    }

    fn quota(quota: u64) -> Quota {
        Quota { commits: 0, quota }
    }

    /// Never stops a core that has not halted.
    fn forever() -> Quota {
        quota(u64::MAX)
    }

    fn mem(cores: usize) -> MemSystem {
        MemSystem::new(&MemConfig::default(), cores)
    }

    /// Every multiple of `period` in `[0, end)`: the work cycles of a
    /// [`Scripted`] core that is never held up.
    fn multiples(period: Cycle, end: Cycle) -> Vec<Cycle> {
        (0..end).step_by(period as usize).collect()
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
            assert_eq!(calls.0.last(), Some(&Tick(3)), "ff={ff}: {calls:?}");
            assert!(!calls.0.iter().any(|c| matches!(c, Gate(_))));
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
        assert_eq!(calls.0, [Tick(0), Skip(4), Tick(4), Skip(8), Tick(8), Gate(100)]);
        assert_eq!(policies[0].commits, 3);
    }

    #[test]
    fn the_deadline_lands_identically_with_and_without_skipping() {
        let run = |ff: bool| {
            let (core, calls) = Scripted::boxed(7, u64::MAX);
            let mut cores = [core];
            let mut policies = [forever()];
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
        assert_eq!(fast.ticked_at(), multiples(7, 50));
        assert_eq!(fast.skips(), [7, 14, 21, 28, 35, 42, 49]);
        assert_eq!(slow.ticked_at().len(), 50);
        assert!(slow.skips().is_empty());
    }

    #[test]
    fn a_skip_never_passes_end() {
        let (core, calls) = Scripted::boxed(1000, u64::MAX);
        let mut cores = [core];
        let mut policies = [forever()];
        let (now, live) = Stepper::default().run_span(&mut cores, &mut mem(1), &mut policies, 0, 10, true);
        assert_eq!((now, live, cores[0].cycle()), (10, true, 10));
        assert_eq!(calls.lock().unwrap().0, [Tick(0), Skip(10)]);
    }

    /// Rule 3 with one core is what the lockstep skip did with one core:
    /// this is the exact `tick` / `skip_to` sequence of the parent commit,
    /// through a halt and through `Verdict::Pause`'s standing point (after
    /// the pausing tick's own skip).
    #[test]
    fn one_core_makes_the_call_sequence_it_always_made() {
        let (core, calls) = Scripted::boxed(4, 3);
        let mut cores = [core];
        let stop = Stepper::default().run_span(&mut cores, &mut mem(1), &mut [UntilHalt], 0, 1000, true);
        assert_eq!(stop, (9, false));
        assert_eq!(calls.lock().unwrap().0, [Tick(0), Skip(4), Tick(4), Skip(8), Tick(8)]);

        struct Until(u64);
        impl Policy for Until {
            fn step(&mut self, core: &dyn Core, _commits: &[Commit], _now: Cycle) -> Verdict {
                Verdict::until(core, core.retired(), self.0)
            }
        }
        let (core, calls) = Scripted::boxed(4, u64::MAX);
        let mut cores = [core];
        let mut stepper = Stepper::default();
        let stop = stepper.run_span(&mut cores, &mut mem(1), &mut [Until(2)], 0, 1000, true);
        assert_eq!((stop, cores[0].cycle()), ((8, false), 8));
        // Resumed from the standing point, as `System::run_insts` does.
        let stop = stepper.run_span(&mut cores, &mut mem(1), &mut [Until(3)], 8, 1000, true);
        assert_eq!((stop, cores[0].cycle()), ((12, false), 12));
        assert_eq!(calls.lock().unwrap().0, [Tick(0), Skip(4), Tick(4), Skip(8), Tick(8), Skip(12)]);
    }

    /// Wants to see its core every `every` commits; writes down what it is
    /// shown: the core's clock, the commits handed over, the tick's cycle.
    struct Every {
        every: u64,
        commits: u64,
        seen: Vec<(Cycle, usize, Cycle)>,
    }

    impl Policy for Every {
        fn step(&mut self, core: &dyn Core, commits: &[Commit], now: Cycle) -> Verdict {
            self.commits += commits.len() as u64;
            self.seen.push((core.cycle(), commits.len(), now));
            Verdict::until(core, self.commits % self.every, self.every)
        }
    }

    fn every(every: u64) -> Every {
        Every { every, commits: 0, seen: Vec::new() }
    }

    /// Rule 1, second half: alone on the serial fabric a core is shown to
    /// its policy right after the tick that drains the commit it asked for —
    /// before that tick's sleep, so it reads the clock a per-tick run would
    /// have read — and at the span's end; beside a neighbour, or without
    /// the fabric's leave, after every tick. The core is driven the same
    /// either way.
    #[test]
    fn a_solo_look_stops_right_after_the_tick_the_policy_asked_for() {
        let (core, solo_calls) = Scripted::boxed(4, u64::MAX);
        let mut policies = [every(3)];
        let stop = Stepper::default().run_span(&mut [core], &mut mem(1), &mut policies, 0, 30, true);
        assert_eq!(stop, (30, true));
        // Commits at 0, 4, .., 28: the third on the tick at 8, the sixth on
        // the tick at 20; the last two are handed over at the end.
        assert_eq!(policies[0].seen, [(0, 0, 0), (9, 3, 8), (21, 3, 20), (30, 2, 28)]);

        let (core, chip_calls) = Scripted::boxed(4, u64::MAX);
        let (neighbour, _) = Scripted::boxed(1, u64::MAX);
        let mut policies = [every(3), every(3)];
        let stop = Stepper::default().run_span(&mut [core, neighbour], &mut mem(2), &mut policies, 0, 30, true);
        assert_eq!(stop, (30, true));
        let ticks: Vec<_> = multiples(4, 30).into_iter().map(|at| (at + 1, 1, at)).collect();
        assert_eq!(policies[0].seen[1..], ticks);

        struct Shared(MemSystem);
        impl Fabric for Shared {
            const SOLO_SPANS: bool = false;
            fn bus(&mut self, i: usize) -> MemBus<'_> {
                self.0.bus(i)
            }
        }
        let (core, gated_calls) = Scripted::boxed(4, u64::MAX);
        let mut policies = [every(3)];
        let stop = Stepper::default().run_span(&mut [core], &mut Shared(mem(1)), &mut policies, 0, 30, true);
        assert_eq!(stop, (30, true));
        assert_eq!(policies[0].seen[1..], ticks);

        let solo = solo_calls.lock().unwrap();
        assert_eq!(solo.0, chip_calls.lock().unwrap().0);
        assert_eq!(solo.0, gated_calls.lock().unwrap().0);
        assert_eq!(solo.ticked_at(), multiples(4, 30));
    }

    /// The buffer between looks is bounded whatever the policy says.
    #[test]
    fn a_look_hands_over_at_most_a_full_buffer() {
        let (core, _) = Scripted::boxed(1, u64::MAX);
        let mut policies = [every(u64::MAX)];
        let end = 3 * LOOK_CAP + 10;
        let stop = Stepper::default().run_span(&mut [core], &mut mem(1), &mut policies, 0, end, true);
        assert_eq!(stop, (end, true));
        let cap = LOOK_CAP as usize;
        let handed: Vec<usize> = policies[0].seen.iter().map(|s| s.1).collect();
        assert_eq!(handed, [0, cap, cap, cap, 10]);
    }

    #[test]
    fn each_core_is_ticked_only_at_its_own_events() {
        let (a, a_calls) = Scripted::boxed(3, u64::MAX);
        let (b, b_calls) = Scripted::boxed(5, u64::MAX);
        let mut cores = [a, b];
        let mut policies = [forever(), forever()];
        let stop = Stepper::default().run_span(&mut cores, &mut mem(2), &mut policies, 0, 32, true);
        assert_eq!(stop, (32, true));
        assert_eq!((cores[0].cycle(), cores[1].cycle()), (32, 32));
        let (a, b) = (a_calls.lock().unwrap(), b_calls.lock().unwrap());
        // Neither is woken by the other's work, and each skip goes straight
        // to the core's own wake cycle, the last one clamped to `end`.
        assert_eq!(a.ticked_at(), multiples(3, 32));
        assert_eq!(b.ticked_at(), multiples(5, 32));
        assert_eq!(a.skips(), [3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 32]);
        assert_eq!(b.skips(), [5, 10, 15, 20, 25, 30, 32]);
        assert_eq!((policies[0].commits, policies[1].commits), (11, 7));
    }

    #[test]
    fn a_sleeper_stands_at_end_and_is_due_first_in_the_next_span() {
        let (sleeper, sleeper_calls) = Scripted::boxed(10, u64::MAX);
        let (busy, busy_calls) = Scripted::boxed(1, u64::MAX);
        let mut cores = [sleeper, busy];
        let mut policies = [forever(), forever()];
        let mut fabric = mem(2);
        let mut stepper = Stepper::default();
        let stop = stepper.run_span(&mut cores, &mut fabric, &mut policies, 0, 15, true);
        assert_eq!((stop, cores[0].cycle(), cores[1].cycle()), ((15, true), 15, 15));
        assert_eq!(sleeper_calls.lock().unwrap().0, [Tick(0), Skip(10), Tick(10), Skip(15)]);
        let stop = stepper.run_span(&mut cores, &mut fabric, &mut policies, 15, 40, true);
        assert_eq!((stop, cores[0].cycle(), cores[1].cycle()), ((40, true), 40, 40));
        // Cycle 15 is a stall tick (the wake at 20 was cut short by the
        // boundary), then the core sleeps on its own schedule again.
        assert_eq!(
            sleeper_calls.lock().unwrap().0[4..],
            [Tick(15), Skip(20), Tick(20), Skip(30), Tick(30), Skip(40)]
        );
        // The neighbour that never stalls is ticked every cycle throughout.
        let busy = busy_calls.lock().unwrap();
        assert_eq!(busy.ticked_at(), multiples(1, 40));
        assert!(busy.skips().is_empty());
    }

    #[test]
    fn without_fast_forward_every_core_on_the_clock_is_ticked_every_cycle() {
        let (a, a_calls) = Scripted::boxed(3, u64::MAX);
        let (b, b_calls) = Scripted::boxed(5, 4);
        let mut cores = [a, b];
        let mut policies = [forever(), forever()];
        let stop = Stepper::default().run_span(&mut cores, &mut mem(2), &mut policies, 0, 32, false);
        assert_eq!(stop, (32, true));
        let (a, b) = (a_calls.lock().unwrap(), b_calls.lock().unwrap());
        assert_eq!(a.0, multiples(1, 32).into_iter().map(Tick).collect::<Vec<_>>());
        // `b` halts on its fourth instruction, at cycle 15, and leaves.
        assert_eq!(b.0, multiples(1, 16).into_iter().map(Tick).collect::<Vec<_>>());
        assert_eq!((policies[0].commits, policies[1].commits), (11, 4));
    }

    /// A fabric that writes down every horizon it is told.
    struct Recording {
        mem: MemSystem,
        log: Mutex<Vec<(usize, Cycle)>>,
    }

    impl Fabric for Recording {
        const SOLO_SPANS: bool = true;
        fn bus(&mut self, i: usize) -> MemBus<'_> {
            self.mem.bus(i)
        }
        fn progress(&self, i: usize, next_cycle: Cycle) {
            self.log.lock().unwrap().push((i, next_cycle));
        }
    }

    #[test]
    fn the_fabric_hears_every_tick_and_every_wake() {
        let (a, _) = Scripted::boxed(3, 2);
        let (b, _) = Scripted::boxed(2, u64::MAX);
        let mut cores = [a, b];
        let mut policies = [quota(u64::MAX), quota(3)];
        let mut fabric = Recording { mem: mem(2), log: Mutex::default() };
        let stop = Stepper::default().run_span(&mut cores, &mut fabric, &mut policies, 0, 9, true);
        assert_eq!(stop, (9, true));
        assert_eq!(
            *fabric.log.lock().unwrap(),
            [
                // Cycle 0: both work; `now + 1` after the tick, then the wake.
                (0, 1), (0, 3), (1, 1), (1, 2),
                // Cycle 2: only core 1 is due.
                (1, 3), (1, 4),
                // Cycle 3: core 0 halts and is never heard of again.
                (0, 4), (0, Cycle::MAX),
                // Cycle 4: core 1's third commit; it is gated to the end.
                (1, 5), (1, 9),
            ]
        );
    }

    /// Counts the ticks of the core it wraps; otherwise transparent to the
    /// engine (every call `run_span` makes is forwarded).
    struct TickCounted {
        inner: Box<dyn Core>,
        ticks: Arc<AtomicU64>,
    }

    impl Core for TickCounted {
        fn tick(&mut self, mem: &mut MemBus) {
            self.ticks.fetch_add(1, SeqCst);
            self.inner.tick(mem);
        }
        fn cycle(&self) -> Cycle {
            self.inner.cycle()
        }
        fn retired(&self) -> u64 {
            self.inner.retired()
        }
        fn halted(&self) -> bool {
            self.inner.halted()
        }
        fn drain_commits_into(&mut self, out: &mut Vec<Commit>) {
            self.inner.drain_commits_into(out);
        }
        fn next_event_cycle(&self) -> Cycle {
            self.inner.next_event_cycle()
        }
        fn skip_to(&mut self, target: Cycle) {
            self.inner.skip_to(target);
        }
        fn gate_to(&mut self, target: Cycle) {
            self.inner.gate_to(target);
        }
        fn core_id(&self) -> usize {
            self.inner.core_id()
        }
        fn save_state(&self, w: &mut SnapWriter) {
            self.inner.save_state(w);
        }
        fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.inner.restore_state(r)
        }
        fn warm_boot(&mut self, regs: &[u64; NUM_REGS], pc: u64) {
            self.inner.warm_boot(regs, pc);
        }
        fn phases(&self) -> sst_obs::PhaseTable {
            self.inner.phases()
        }
        fn probes(&mut self) -> &mut sst_obs::Probes {
            self.inner.probes()
        }
    }

    /// The work-counter gate on per-core sleep (ROADMAP item 1: noise-free,
    /// so it can be hard-gated where wall time cannot): on the benchmark's
    /// `cmp16` chip a core is ticked only on its own event cycles. Over the
    /// first 60 000 cycles (no core has halted yet) per-core sleep executes
    /// 116 324 of the 960 000 core-cycles, a ratio of 0.121; the lockstep
    /// skip it replaced executed 767 296 (0.799), so a change that
    /// re-introduces lockstep ticking fails here without a stopwatch.
    #[test]
    fn a_sixteen_core_chip_ticks_a_core_only_when_it_is_due() {
        const CORES: u64 = 16;
        const SPAN: Cycle = 60_000;
        let ticks_executed = |fast_forward: bool| {
            let mut sys = CmpSystem::homogeneous(
                CoreModel::Sst,
                "erp",
                Scale::Smoke,
                12345,
                CORES as usize,
                &MemConfig::default(),
            );
            let ticks = Arc::new(AtomicU64::new(0));
            sys.cores = std::mem::take(&mut sys.cores)
                .into_iter()
                .map(|inner| Box::new(TickCounted { inner, ticks: Arc::clone(&ticks) }) as Box<dyn Core>)
                .collect();
            let mut policies: Vec<UntilHalt> = (0..CORES).map(|_| UntilHalt).collect();
            let stop = Stepper::default().run_span(&mut sys.cores, &mut sys.mem, &mut policies, 0, SPAN, fast_forward);
            assert_eq!(stop, (SPAN, true));
            assert!(sys.cores.iter().all(|c| !c.halted() && c.cycle() == SPAN));
            let retired: u64 = sys.cores.iter().map(|c| c.retired()).sum();
            (ticks.load(SeqCst), retired, sys.mem.stats())
        };
        let (slow_ticks, slow_retired, slow_mem) = ticks_executed(false);
        let (fast_ticks, fast_retired, fast_mem) = ticks_executed(true);
        assert_eq!(slow_ticks, CORES * SPAN);
        assert!(
            fast_ticks * 10 <= CORES * SPAN * 6,
            "{fast_ticks} ticks for {} core-cycles: asleep cores are being ticked",
            CORES * SPAN
        );
        assert_eq!((fast_retired, fast_mem), (slow_retired, slow_mem));
    }
}
