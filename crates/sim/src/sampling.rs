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
//! interval (`1.96 · s/√n`), and validated against full detailed runs by
//! the harness's sampling benchmark (3% gate).

use sst_isa::{Inst, Interp, MemEffect, INST_BYTES};
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

/// Runs `steps` instructions of functional warming: every instruction
/// executes on the interpreter while its effects feed the memory
/// hierarchy's tags and the core's branch predictor. Returns `true` if
/// the program halted inside the window.
///
/// Two throughput tricks keep this within a small multiple of the plain
/// fast-forward loop: the batched [`Interp::run_traced`] inlines the
/// observer into the dispatch loop, and instruction-fetch touches are
/// deduplicated per cache line (sequential fetch re-touches the same
/// line `line_bytes / INST_BYTES` times; one probe warms it).
// Not inlined: this loop is most of a sampled run's wall time, and inside
// `run_sampled` it sits next to the engine's `run_span` instantiation, so
// an unrelated edit to the engine re-shapes its code (measured at 6-7% of
// `sampled_oltp`). On its own its code generation depends on this function
// alone.
#[inline(never)]
fn warm_run(
    interp: &mut Interp,
    core: &mut dyn Core,
    mem: &mut MemSystem,
    steps: u64,
) -> Result<bool, CosimError> {
    let line_mask = !(mem.line_bytes() - 1);
    let mut last_fetch_line = u64::MAX;
    let mut halted = false;
    let outcome = interp.run_traced(steps, |ev| {
        let fetch_line = ev.pc & line_mask;
        if fetch_line != last_fetch_line {
            last_fetch_line = fetch_line;
            mem.warm_touch(0, AccessKind::IFetch, ev.pc);
        }
        match ev.mem {
            MemEffect::Load { addr, .. } => mem.warm_touch(0, AccessKind::Load, addr),
            MemEffect::Store { addr, .. } => mem.warm_touch(0, AccessKind::Store, addr),
            MemEffect::None => {}
        }
        match ev.inst {
            Inst::Branch { .. } => {
                let taken = ev.next_pc != ev.pc.wrapping_add(INST_BYTES);
                core.warm_predictor(ev.pc, ev.inst, taken, ev.next_pc);
            }
            Inst::Jal { .. } | Inst::Jalr { .. } => {
                core.warm_predictor(ev.pc, ev.inst, true, ev.next_pc);
            }
            _ => {}
        }
        halted = ev.halted;
    });
    outcome.map_err(|t| CosimError {
        at: interp.retired(),
        what: format!("reference trapped during warming: {t}"),
    })?;
    Ok(halted)
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
    let mut stepper = Stepper::default();
    let mut cpis: Vec<f64> = Vec::new();
    let mut detailed_insts = 0u64;
    let mut detailed_cycles: Cycle = 0;

    'units: while !interp.is_halted() {
        // Functional skip: no model updates, full interpreter speed.
        interp.run(skip).map_err(|t| CosimError {
            at: interp.retired(),
            what: format!("reference trapped during fast-forward: {t}"),
        })?;
        if interp.is_halted() {
            break;
        }
        // Functional warming: tags + predictor follow the reference stream.
        if warm_run(&mut interp, core.as_mut(), &mut mem, cfg.warm)? {
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
            &mut mem,
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
