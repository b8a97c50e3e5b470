//! SMARTS-style sampled simulation.
//!
//! Detailed timing simulation costs ~100x the functional interpreter per
//! instruction. Systematic sampling (Wunderlich et al., ISCA 2003) buys
//! that factor back: execute the workload functionally, and only drop
//! into the detailed core for short, evenly spaced *measurement
//! intervals*. Each sampling unit of `period` instructions is spent as
//!
//! ```text
//! |---- functional skip ----|-- functional warming --|-- detailed interval --|
//!   period - warm - interval          warm                   interval
//! ```
//!
//! * **Skip** — the reference interpreter executes at full speed
//!   (hundreds of Minst/s) with no model updates.
//! * **Warming** — the interpreter still executes every instruction, but
//!   each one also touches the cache *tags* ([`sst_mem::MemSystem::warm_touch`])
//!   and trains the branch predictor
//!   ([`sst_uarch::Core::warm_predictor`]), so the detailed interval
//!   starts against warm long-history state instead of a cold hierarchy.
//!   The interpreter runs ahead and trains the predictor; one worker
//!   thread per run applies the tag touches behind it, in program order,
//!   and returns the memory system at the end of each window, so all
//!   state is what a serial loop leaves (DESIGN.md §9.2).
//! * **Detailed** — the timing core is *teleported* to the
//!   interpreter's architectural point ([`sst_uarch::Core::warm_boot`]:
//!   squash speculative state, reload registers, redirect fetch — but
//!   keep predictor tables and cache warmth), its backing memory is
//!   replaced with a clone of the interpreter's image, in-flight miss
//!   state is dropped, and `interval` instructions run under the full
//!   model. The interval's CPI is the cycle delta over the commit delta.
//!
//! One core and one memory system persist across the whole run — warmth
//! accumulates; nothing is rebuilt per interval. The sampled CPI is the
//! mean of the per-interval CPIs, reported with its 95% confidence
//! interval (`1.96 · s/√n`), and validated against a full detailed run
//! by `tests/sampling_pin.rs` (3% gate).

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, Scope};

use sst_isa::{Hooks, Inst, Interp, StopReason};
use sst_mem::{AccessKind, Cycle, MemConfig, MemSystem};
use sst_uarch::{Commit, Core};
use sst_workloads::Workload;

use crate::engine::{Policy, Stepper, Verdict};
use crate::{CoreModel, CosimError};

/// Sampling-schedule parameters.
#[derive(Clone, Debug)]
pub struct SamplingConfig {
    /// Instructions per sampling unit (skip + warming + detailed).
    pub period: u64,
    /// Detailed (measured) instructions per unit.
    pub interval: u64,
    /// Functional-warming instructions run immediately before each
    /// detailed interval.
    pub warm: u64,
    /// Watchdog: abort if one detailed interval exceeds this many cycles.
    pub max_interval_cycles: Cycle,
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            period: 500_000,
            interval: 10_000,
            warm: 10_000,
            max_interval_cycles: 50_000_000,
        }
    }
}

/// Result of a sampled run.
#[derive(Clone, Debug)]
pub struct SampledResult {
    /// Model label.
    pub model: String,
    /// Workload name.
    pub workload: String,
    /// Total instructions executed functionally (the whole program).
    pub insts: u64,
    /// Number of measured intervals.
    pub intervals: usize,
    /// Instructions committed under the detailed model.
    pub detailed_insts: u64,
    /// Cycles spent in detailed intervals.
    pub detailed_cycles: Cycle,
    /// Sampled CPI: mean of the per-interval CPIs.
    pub cpi: f64,
    /// Half-width of the 95% confidence interval on [`SampledResult::cpi`].
    pub ci95: f64,
    /// The per-interval CPIs themselves.
    pub cpis: Vec<f64>,
}

impl SampledResult {
    /// Sampled IPC (reciprocal of the sampled CPI).
    pub fn ipc(&self) -> f64 {
        1.0 / self.cpi
    }

    /// The confidence interval as a fraction of the mean.
    pub fn rel_ci(&self) -> f64 {
        self.ci95 / self.cpi.max(f64::MIN_POSITIVE)
    }

    /// Fraction of the program executed under the detailed model.
    pub fn detail_fraction(&self) -> f64 {
        self.detailed_insts as f64 / self.insts.max(1) as f64
    }
}

/// The engine policy of one detailed interval: count commits up to the
/// interval length.
struct Measure {
    committed: u64,
    interval: u64,
}

impl Policy for Measure {
    fn step(&mut self, core: &dyn Core, commits: &[Commit], _now: Cycle) -> Verdict {
        self.committed += commits.len() as u64;
        Verdict::until(core, self.committed, self.interval)
    }
}

/// Touch records per batch: 16 KiB.
const BATCH: usize = 2048;
/// Batches in circulation between the interpreter and the tag worker.
const POOL: usize = 4;
/// A touch record is a line address with its access kind in the low bits
/// (lines are far wider than four bytes).
const KIND_MASK: u64 = 3;
const IFETCH: u64 = 0;
const LOAD: u64 = 1;
const STORE: u64 = 2;

/// Interpreter thread to tag worker.
enum ToWorker<'t, T> {
    /// A warm window opens: the worker holds the state until `End`.
    Begin(&'t mut T),
    /// Touch records, in program order.
    Batch(Vec<u64>),
    /// The window closes: hand the state back.
    End,
}

/// Tag worker to interpreter thread.
enum FromWorker<'t, T> {
    /// An applied batch, emptied for reuse.
    Spare(Vec<u64>),
    /// Every batch sent before `End` is applied; the state returns.
    Ended(&'t mut T),
}

/// The interpreter thread's end of an ordered touch queue: records pushed
/// between [`TouchQueue::begin`] and [`TouchQueue::end`] are applied to
/// the state, one at a time and in push order, by the one worker thread
/// [`TouchQueue::spawn`] starts. At most [`POOL`] batches of [`BATCH`]
/// records exist; the pusher waits when all are in flight.
struct TouchQueue<'t, T> {
    to_worker: SyncSender<ToWorker<'t, T>>,
    from_worker: Receiver<FromWorker<'t, T>>,
    batch: Vec<u64>,
    spare: Vec<Vec<u64>>,
}

/// A worker that stopped (it panicked) makes the pushing side panic too.
const WORKER_GONE: &str = "the tag-warming worker stopped";

impl<'t, T: Send> TouchQueue<'t, T> {
    /// Spawns the worker on `scope`; it applies `touch` to each record.
    fn spawn<'s>(
        scope: &'s Scope<'s, '_>,
        mut touch: impl FnMut(&mut T, u64) + Send + 's,
    ) -> TouchQueue<'t, T>
    where
        't: 's,
    {
        let (to_worker, work) = sync_channel::<ToWorker<'t, T>>(POOL + 1);
        let (done, from_worker) = sync_channel(POOL + 1);
        scope.spawn(move || {
            // Ends when the queue is dropped, mid-window or not.
            while let Ok(ToWorker::Begin(state)) = work.recv() {
                while let Ok(ToWorker::Batch(mut batch)) = work.recv() {
                    for &record in &batch {
                        touch(state, record);
                    }
                    batch.clear();
                    if done.send(FromWorker::Spare(batch)).is_err() {
                        return;
                    }
                }
                if done.send(FromWorker::Ended(state)).is_err() {
                    return;
                }
            }
        });
        TouchQueue {
            to_worker,
            from_worker,
            batch: Vec::with_capacity(BATCH),
            spare: (1..POOL).map(|_| Vec::with_capacity(BATCH)).collect(),
        }
    }

    fn send(&self, msg: ToWorker<'t, T>) {
        self.to_worker.send(msg).expect(WORKER_GONE);
    }

    fn recv(&self) -> FromWorker<'t, T> {
        self.from_worker.recv().expect(WORKER_GONE)
    }

    fn begin(&mut self, state: &'t mut T) {
        self.send(ToWorker::Begin(state));
    }

    #[inline(always)]
    fn push(&mut self, record: u64) {
        self.batch.push(record);
        if self.batch.len() == BATCH {
            self.ship();
        }
    }

    #[inline(never)]
    fn ship(&mut self) {
        let next = match self.spare.pop() {
            Some(b) => b,
            None => match self.recv() {
                FromWorker::Spare(b) => b,
                FromWorker::Ended(_) => unreachable!("no window is closing"),
            },
        };
        let full = std::mem::replace(&mut self.batch, next);
        self.send(ToWorker::Batch(full));
    }

    /// Hands over the tail batch, waits for the worker to apply every
    /// record, and takes the state back.
    fn end(&mut self) -> &'t mut T {
        let tail = std::mem::take(&mut self.batch);
        self.send(ToWorker::Batch(tail));
        self.send(ToWorker::End);
        let state = loop {
            match self.recv() {
                FromWorker::Spare(b) => self.spare.push(b),
                FromWorker::Ended(state) => break state,
            }
        };
        // Every batch is back: the tail was applied before `Ended`.
        self.batch = self.spare.pop().expect("the pool is whole");
        state
    }
}

/// The interpreter thread's half of functional warming, as [`Hooks`]:
/// trains the predictor itself and queues line-aligned tag touches, one
/// per fetched line (sequential fetch re-touches a line `line_bytes /
/// INST_BYTES` times; one probe warms it) and one per load or store.
struct Warming<'a, 't> {
    core: &'a mut dyn Core,
    touches: &'a mut TouchQueue<'t, MemSystem>,
    line_mask: u64,
    last_fetch_line: u64,
}

impl Warming<'_, '_> {
    #[inline(always)]
    fn touch(&mut self, kind: u64, addr: u64) {
        self.touches.push(addr & self.line_mask | kind);
    }
}

/// The tag worker's half: one queued touch.
fn apply_touch(mem: &mut MemSystem, record: u64) {
    let kind = match record & KIND_MASK {
        IFETCH => AccessKind::IFetch,
        LOAD => AccessKind::Load,
        _ => AccessKind::Store,
    };
    mem.warm_touch(0, kind, record & !KIND_MASK);
}

impl Hooks for Warming<'_, '_> {
    #[inline(always)]
    fn fetch(&mut self, pc: u64) {
        let line = pc & self.line_mask;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            self.touch(IFETCH, pc);
        }
    }

    #[inline(always)]
    fn load(&mut self, addr: u64) {
        self.touch(LOAD, addr);
    }

    #[inline(always)]
    fn store(&mut self, addr: u64) {
        self.touch(STORE, addr);
    }

    #[inline(always)]
    fn control(&mut self, pc: u64, inst: Inst, taken: bool, next_pc: u64) {
        self.core.warm_predictor(pc, inst, taken, next_pc);
    }
}

/// Runs `steps` instructions of functional warming: every instruction
/// executes on the interpreter, which trains the core's branch predictor
/// and queues the memory hierarchy's tag touches on `touches` (the caller
/// opens and closes the window). Returns `true` if the program halted
/// inside the window.
// Not inlined, so that the loop most of a sampled run's wall time is spent
// in gets its code generation from this function alone, not from whatever
// `run_sampled` inlines next to it (the engine's `run_span`). With the tag
// touches moved to the worker it measures level either way.
#[inline(never)]
fn warm_run(
    interp: &mut Interp,
    core: &mut dyn Core,
    touches: &mut TouchQueue<'_, MemSystem>,
    line_mask: u64,
    steps: u64,
) -> Result<bool, CosimError> {
    let mut warming = Warming {
        core,
        touches,
        line_mask,
        last_fetch_line: u64::MAX,
    };
    let outcome = interp
        .run_with_hooks(steps, &mut warming)
        .map_err(|t| CosimError {
            at: interp.retired(),
            what: format!("reference trapped during warming: {t}"),
        })?;
    Ok(outcome.stop == StopReason::Halt)
}

/// Runs `workload` under `model` with SMARTS-style systematic sampling,
/// using the default memory configuration.
///
/// # Errors
///
/// [`CosimError`] on a reference trap, a detailed-interval watchdog
/// timeout, an infeasible configuration (`interval + warm >= period`,
/// zero-length interval), or a workload too short to yield even one
/// measured interval.
pub fn run_sampled(
    model: CoreModel,
    workload: &Workload,
    cfg: &SamplingConfig,
) -> Result<SampledResult, CosimError> {
    let bad_cfg = |what: String| CosimError { at: 0, what };
    if cfg.interval == 0 {
        return Err(bad_cfg("sampling interval must be nonzero".into()));
    }
    // A sum that overflows exceeds every period.
    let detailed = cfg.interval.checked_add(cfg.warm);
    if detailed.map_or(true, |d| d >= cfg.period) {
        return Err(bad_cfg(format!(
            "sampling period {} must exceed interval {} + warming {}",
            cfg.period, cfg.interval, cfg.warm
        )));
    }

    let mut interp = Interp::new(&workload.program);
    let mut core = model.build(0, &workload.program);
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    workload.program.load_into(mem.mem_mut());

    let skip = cfg.period - cfg.interval - cfg.warm;
    let line_mask = !(mem.line_bytes() - 1);
    debug_assert!(mem.line_bytes() > KIND_MASK);
    let mut stepper = Stepper::default();
    let mut cpis: Vec<f64> = Vec::new();
    let mut detailed_insts = 0u64;
    let mut detailed_cycles: Cycle = 0;

    thread::scope(|s| {
        let mut touches = TouchQueue::spawn(s, apply_touch);
        let mut mem = &mut mem;
        'units: while !interp.is_halted() {
            // Functional skip: no model updates, full interpreter speed.
            interp.run(skip).map_err(|t| CosimError {
                at: interp.retired(),
                what: format!("reference trapped during fast-forward: {t}"),
            })?;
            if interp.is_halted() {
                break;
            }
            // Functional warming: tags + predictor follow the reference
            // stream; the tags are the worker's until the window closes.
            touches.begin(mem);
            let halted = warm_run(
                &mut interp,
                core.as_mut(),
                &mut touches,
                line_mask,
                cfg.warm,
            );
            mem = touches.end();
            if halted? {
                break 'units;
            }
            // Detailed interval: teleport the core to the reference point and
            // measure `interval` instructions under the full timing model —
            // one engine span to the watchdog deadline.
            core.warm_boot(interp.state().regs(), interp.state().pc);
            mem.replace_port_mem(0, interp.mem().clone());
            mem.reset_timing();
            let cycles0 = core.cycle();
            let deadline = cycles0.saturating_add(cfg.max_interval_cycles);
            let mut measure = Measure {
                committed: 0,
                interval: cfg.interval,
            };
            let (_, overran) = stepper.run_span(
                std::slice::from_mut(&mut core),
                mem,
                std::slice::from_mut(&mut measure),
                cycles0,
                deadline,
                true,
            );
            let committed = measure.committed;
            if overran {
                return Err(CosimError {
                    at: interp.retired() + committed,
                    what: format!(
                        "detailed interval exceeded {} cycles at sample {}",
                        cfg.max_interval_cycles,
                        cpis.len()
                    ),
                });
            }
            let dcycles = core.cycle() - cycles0;
            if committed > 0 {
                cpis.push(dcycles as f64 / committed as f64);
                detailed_insts += committed;
                detailed_cycles += dcycles;
            }
            // Re-synchronize the reference: the detailed core just executed
            // `committed` architecturally correct instructions (its commit
            // stream is cosim-verified elsewhere), so the reference advances
            // past them at functional speed.
            interp.run(committed).map_err(|t| CosimError {
                at: interp.retired(),
                what: format!("reference trapped re-synchronizing: {t}"),
            })?;
            if core.halted() {
                break;
            }
        }
        Ok(())
    })?;

    if cpis.is_empty() {
        return Err(bad_cfg(format!(
            "workload '{}' retired {} instructions — too short for period {}",
            workload.name,
            interp.retired(),
            cfg.period
        )));
    }

    let n = cpis.len() as f64;
    let mean = cpis.iter().sum::<f64>() / n;
    let var = if cpis.len() > 1 {
        cpis.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    let ci95 = 1.96 * (var / n).sqrt();

    Ok(SampledResult {
        model: model.label(),
        workload: workload.name.to_string(),
        insts: interp.retired(),
        intervals: cpis.len(),
        detailed_insts,
        detailed_cycles,
        cpi: mean,
        ci95,
        cpis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{Asm, Reg};
    use sst_workloads::Scale;

    #[test]
    fn infeasible_configs_are_rejected() {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        let cfg = SamplingConfig {
            period: 1000,
            interval: 600,
            warm: 500,
            ..SamplingConfig::default()
        };
        let e = run_sampled(CoreModel::InOrder, &w, &cfg).unwrap_err();
        assert!(e.what.contains("must exceed"), "{e}");
        let cfg = SamplingConfig {
            interval: 0,
            ..SamplingConfig::default()
        };
        let e = run_sampled(CoreModel::InOrder, &w, &cfg).unwrap_err();
        assert!(e.what.contains("nonzero"), "{e}");
        // interval + warm overflows u64: infeasible for every period.
        let cfg = SamplingConfig {
            interval: u64::MAX,
            warm: 1,
            ..SamplingConfig::default()
        };
        let e = run_sampled(CoreModel::InOrder, &w, &cfg).unwrap_err();
        assert!(e.what.contains("must exceed"), "{e}");
        // An unbounded watchdog is not an error: from the second interval
        // on, `start cycle + max_interval_cycles` must saturate, not wrap.
        let cfg = SamplingConfig {
            period: 20_000,
            interval: 2_000,
            warm: 2_000,
            max_interval_cycles: u64::MAX,
        };
        let r = run_sampled(CoreModel::InOrder, &w, &cfg).unwrap();
        assert!(r.intervals >= 2, "intervals {}", r.intervals);
    }

    #[test]
    fn too_short_workload_is_reported() {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        let cfg = SamplingConfig {
            period: u64::MAX / 2,
            ..SamplingConfig::default()
        };
        let e = run_sampled(CoreModel::InOrder, &w, &cfg).unwrap_err();
        assert!(e.what.contains("too short"), "{e}");
    }

    /// `iters` two-instruction loop trips after a one-instruction setup,
    /// then `tail`.
    fn looping(iters: i64, tail: impl FnOnce(&mut Asm)) -> Workload {
        let mut a = Asm::new();
        a.li(Reg::x(5), iters);
        let top = a.here();
        a.addi(Reg::x(5), Reg::x(5), -1);
        a.bne(Reg::x(5), Reg::ZERO, top);
        tail(&mut a);
        Workload {
            name: "loop",
            class: sst_workloads::Class::Micro,
            program: a.finish().unwrap(),
            skip_insts: 0,
            description: "counted loop",
        }
    }

    /// Units of 1 000: skip 100, warm 800, measure 100.
    fn short_units() -> SamplingConfig {
        SamplingConfig {
            period: 1_000,
            interval: 100,
            warm: 800,
            ..SamplingConfig::default()
        }
    }

    #[test]
    fn trap_inside_a_warm_window_is_reported_where_it_happened() {
        // 1 + 2*1200 + 2 instructions retire, the last a `jalr` to 0, whose
        // fetch traps at 2 403: inside the third unit's warm window
        // (2 100..2 900).
        let w = looping(1_200, |a| {
            a.li(Reg::x(1), 0);
            a.jalr(Reg::ZERO, Reg::x(1), 0);
        });
        let e = run_sampled(CoreModel::Sst, &w, &short_units()).unwrap_err();
        assert_eq!(e.at, 2_403);
        assert_eq!(
            e.what,
            "reference trapped during warming: pc 0x0 is outside the text segment"
        );
    }

    #[test]
    fn halt_inside_a_warm_window_ends_the_run_after_the_measured_units() {
        // 1 + 2*1200 + 1 instructions: the halt retires at 2 402, inside
        // the third unit's warm window, after two measured intervals.
        let w = looping(1_200, |a| a.halt());
        let r = run_sampled(CoreModel::Sst, &w, &short_units()).unwrap();
        assert_eq!((r.insts, r.intervals, r.detailed_insts), (2_402, 2, 200));
        assert_eq!(r.detailed_cycles, 100);
    }

    #[test]
    fn touches_apply_in_push_order_and_the_state_comes_back() {
        let mut applied: Vec<u64> = Vec::new();
        thread::scope(|s| {
            let mut q = TouchQueue::spawn(s, |v: &mut Vec<u64>, r| v.push(r));
            let mut state = &mut applied;
            let mut pushed = 0;
            // An empty window, a short one, and one that cycles the pool.
            for len in [0, 5, (POOL * BATCH * 3 + 7) as u64] {
                q.begin(state);
                for _ in 0..len {
                    q.push(pushed);
                    pushed += 1;
                }
                state = q.end();
                assert_eq!(*state, (0..pushed).collect::<Vec<u64>>());
            }
        });
    }

    #[test]
    fn a_worker_that_panics_makes_the_pusher_panic_not_hang() {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let mut applied = 0u64;
                thread::scope(|s| {
                    let mut q = TouchQueue::spawn(s, |n: &mut u64, _| {
                        *n += 1;
                        assert!(*n < BATCH as u64 + 10, "fake consumer gives up");
                    });
                    q.begin(&mut applied);
                    for r in 0..(POOL * BATCH * 10) as u64 {
                        q.push(r << 2);
                    }
                    q.end();
                });
            });
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx.recv_timeout(std::time::Duration::from_secs(60));
        assert_eq!(panicked, Ok(true), "the pusher must panic, not hang");
    }

    #[test]
    fn sampled_run_produces_sane_cpi() {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        let cfg = SamplingConfig {
            period: 20_000,
            interval: 2_000,
            warm: 2_000,
            ..SamplingConfig::default()
        };
        let r = run_sampled(CoreModel::Sst, &w, &cfg).unwrap();
        assert!(r.intervals >= 2, "intervals {}", r.intervals);
        assert!(r.cpi > 0.3 && r.cpi < 30.0, "cpi {}", r.cpi);
        assert!(r.ci95 >= 0.0);
        assert_eq!(r.cpis.len(), r.intervals);
        assert!(r.detailed_insts > 0 && r.detailed_insts < r.insts);
        assert!(r.detail_fraction() < 0.5);
        assert!(r.ipc() > 0.0);
    }
}
