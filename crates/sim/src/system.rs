//! Single-core simulation with warm-up accounting and optional
//! co-simulation: [`crate::engine`]'s serial executor over one core.

use std::sync::Arc;

use sst_isa::{
    Inst, InstClass, Snap, SnapError, SnapReader, SnapState, SnapWriter, SparseMem,
    SNAPSHOT_VERSION,
};
use sst_mem::{Cycle, MemConfig, MemStats, MemSystem};
use sst_obs::{HostTimes, TraceBuf};
use sst_uarch::{Commit, Core};
use sst_workloads::Workload;

use crate::engine::{self, Policy, Verdict};
use crate::snapshot::{Snapshot, SNAPSHOT_MAGIC};
use crate::{CoreModel, CosimError, RetireChecker};

/// Result of a single-core run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Model label.
    pub model: String,
    /// Workload name.
    pub workload: String,
    /// Total cycles to `halt`.
    pub cycles: Cycle,
    /// Total instructions committed.
    pub insts: u64,
    /// Cycles consumed by the warm-up window.
    pub warmup_cycles: Cycle,
    /// Instructions in the warm-up window.
    pub warmup_insts: u64,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
    /// Model-specific counters (`Core::counters`), in the core's stable
    /// display order: defer rates, stall breakdowns, prediction counts...
    /// Owned keys so results can round-trip through the harness cache.
    pub counters: Vec<(String, u64)>,
    /// Committed-instruction mix, indexed like [`InstClass::ALL`].
    pub inst_mix: [u64; 10],
    /// Per-phase cycle accounting (`Core::phases`), in stable phase
    /// order. The rows sum exactly to [`RunResult::cycles`] — the
    /// trace-equivalence suite pins this for every model — so the table
    /// is a true decomposition of where the run's time went.
    pub phases: Vec<(String, u64)>,
}

sst_isa::snap_record!(RunResult {
    model,
    workload,
    cycles,
    insts,
    warmup_cycles,
    warmup_insts,
    mem,
    counters,
    inst_mix,
    phases,
});

impl RunResult {
    /// Whole-run IPC.
    pub fn ipc(&self) -> f64 {
        self.insts as f64 / self.cycles.max(1) as f64
    }

    /// Steady-state IPC (warm-up window excluded).
    ///
    /// Execute-ahead-style cores can commit in large end-of-run bursts
    /// (an epoch that never drains mid-run); when the post-warm-up window
    /// degenerates to under 10% of the run, the whole-run IPC is the
    /// honest figure and is returned instead.
    pub fn measured_ipc(&self) -> f64 {
        let insts = self.insts - self.warmup_insts;
        let cycles = self.cycles - self.warmup_cycles;
        if cycles * 10 < self.cycles {
            return self.ipc();
        }
        insts as f64 / cycles.max(1) as f64
    }

    /// Looks up a model counter by name (`None` when the model does not
    /// report it).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Fraction of committed instructions in `class`.
    pub fn mix_fraction(&self, class: InstClass) -> f64 {
        self.inst_mix[class.index()] as f64 / self.insts.max(1) as f64
    }

    /// Looks up a phase row by label (`None` for unknown labels).
    pub fn phase(&self, label: &str) -> Option<u64> {
        self.phases.iter().find(|(n, _)| n == label).map(|(_, v)| *v)
    }
}

/// The trace bundle captured by [`System::run_with_trace`]: the core's
/// typed pipeline events and the memory port's demand-miss lifetimes.
#[derive(Debug)]
pub struct SystemTrace {
    /// The core's event ring (`None` for cores that emit nothing).
    pub core: Option<TraceBuf>,
    /// The memory port's miss-span ring.
    pub mem: Option<TraceBuf>,
}

/// A single core attached to its own memory hierarchy, running one
/// workload.
///
/// Runs are restartable: [`System::run_insts`] advances until an
/// instruction target, [`System::snapshot`] captures the complete run
/// state, and [`System::resume`] rebuilds an equivalent system that
/// continues byte-identically (the `snapshot_resume` suite pins this for
/// every model).
pub struct System {
    core: Box<dyn Core>,
    mem: MemSystem,
    workload_name: &'static str,
    model_label: String,
    fast_forward: bool,
    retirement: Retirement,
}

/// What `System` does with its core's commits — the engine policy of a
/// single-core run. The accumulators live here (not in a run loop) so a
/// snapshot taken mid-run carries them and a resumed run reports the same
/// totals as an uninterrupted one.
struct Retirement {
    cosim: Cosim,
    skip_insts: u64,
    committed: u64,
    warmup_cycles: Cycle,
    inst_mix: [u64; 10],
    /// Cumulative instruction target of the current `run_insts` call.
    target_insts: u64,
    /// The first co-simulation divergence; the core is retired on it.
    diverged: Option<CosimError>,
}

/// Per-commit co-simulation against the reference interpreter.
enum Cosim {
    Off,
    /// Wanted, and built by the first run or snapshot, so that a system
    /// that turns co-simulation off right after construction never builds
    /// the reference. Until then nothing has run and the system's own
    /// memory still holds exactly the program image: the reference starts
    /// from a copy of it (sharing its frames), running the program's
    /// decoded `text` at `text_base`.
    Pending {
        text_base: u64,
        text: Arc<[Option<Inst>]>,
        entry: u64,
    },
    On(Box<RetireChecker>),
}

impl Cosim {
    /// The checker a `Pending` co-simulation starts with; `image` is the
    /// never-run system's memory.
    fn start(&self, image: &SparseMem) -> Option<Box<RetireChecker>> {
        match self {
            Cosim::Pending {
                text_base,
                text,
                entry,
            } => Some(Box::new(RetireChecker::over_image(
                image.clone(),
                *text_base,
                text,
                *entry,
            ))),
            _ => None,
        }
    }
}

impl Policy for Retirement {
    fn step(&mut self, core: &dyn Core, commits: &[Commit], _now: Cycle) -> Verdict {
        for c in commits {
            if let Cosim::On(ck) = &mut self.cosim {
                if let Err(e) = ck.check(c) {
                    self.diverged = Some(e);
                    return Verdict::Retire;
                }
            }
            self.inst_mix[c.inst.class().index()] += 1;
            self.committed += 1;
            if self.committed == self.skip_insts {
                self.warmup_cycles = core.cycle();
            }
        }
        // The warm-up mark is taken from the core's clock right after the
        // tick that commits it: ask to be shown that tick.
        match Verdict::until(core, self.committed, self.target_insts) {
            Verdict::Run(n) if self.committed < self.skip_insts => {
                Verdict::Run(n.min(self.skip_insts - self.committed))
            }
            v => v,
        }
    }
}

impl System {
    /// Builds a system with the default memory configuration.
    pub fn new(model: CoreModel, workload: &Workload) -> System {
        System::with_mem(model, workload, &MemConfig::default())
    }

    /// Builds a system with an explicit memory configuration (latency and
    /// structure sweeps).
    pub fn with_mem(model: CoreModel, workload: &Workload, mem_cfg: &MemConfig) -> System {
        let mut mem = MemSystem::new(mem_cfg, 1);
        workload.program.load_into(mem.mem_mut());
        System {
            core: model.build(0, &workload.program),
            mem,
            workload_name: workload.name,
            model_label: model.label(),
            fast_forward: true,
            retirement: Retirement {
                cosim: Cosim::Pending {
                    text_base: workload.program.text_base(),
                    text: Arc::clone(workload.program.decoded()),
                    entry: workload.program.entry,
                },
                skip_insts: workload.skip_insts,
                committed: 0,
                warmup_cycles: 0,
                inst_mix: [0; 10],
                target_insts: 0,
                diverged: None,
            },
        }
    }

    /// Disables per-commit co-simulation (saves ~2x wall clock on large
    /// sweeps; the test suite keeps it on).
    pub fn without_cosim(mut self) -> System {
        self.retirement.cosim = Cosim::Off;
        self
    }

    /// Disables idle-cycle fast-forwarding, ticking every cycle one by
    /// one. Fast-forwarding never changes architected results — cycles,
    /// commits, and counters are identical either way (the equivalence
    /// test suite holds this invariant) — so this exists for those tests
    /// and for debugging, not for accuracy.
    pub fn without_fast_forward(mut self) -> System {
        self.fast_forward = false;
        self
    }

    /// Enables typed event tracing on the core and its memory port.
    /// Record-only (the `sst-obs` event-sink contract): a traced run's
    /// [`RunResult`] is byte-identical to an untraced one, which
    /// `crates/sim/tests/trace_equiv.rs` enforces. Collect the events
    /// with [`System::run_with_trace`].
    pub fn with_tracing(mut self) -> System {
        self.core.probes().enable_trace();
        self.mem.probes(0).enable_trace();
        self
    }

    /// Enables host-side self-profiling: wall-time scoped timers around
    /// the core's pipeline stages and the memory port's timing walks.
    /// Record-only, like tracing. Collect with
    /// [`System::run_with_profile`].
    pub fn with_host_prof(mut self) -> System {
        self.core.probes().enable_prof();
        self.mem.probes(0).enable_prof();
        self
    }

    /// Runs to `halt`, co-simulating every commit when enabled.
    ///
    /// # Errors
    ///
    /// Returns the first [`CosimError`], or an error-shaped divergence when
    /// the core fails to finish within `max_cycles`.
    pub fn run_checked(mut self, max_cycles: Cycle) -> Result<RunResult, CosimError> {
        self.run_inner(max_cycles)
    }

    /// Runs to `halt` like [`System::run_checked`], additionally returning
    /// the core's speculation-leakage summary (experiment E13). `None`
    /// unless the model was built with taint tracking enabled — leakage is
    /// deliberately reported out of band of [`RunResult`] so that enabling
    /// taint leaves the performance result byte-identical.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_with_leakage(
        mut self,
        max_cycles: Cycle,
    ) -> Result<(RunResult, Option<sst_uarch::LeakageSummary>), CosimError> {
        let result = self.run_inner(max_cycles)?;
        let leakage = self.core.leakage().cloned();
        Ok((result, leakage))
    }

    /// Runs to `halt` like [`System::run_checked`], additionally
    /// returning the captured trace bundle. Enable capture with
    /// [`System::with_tracing`] first; without it both rings are `None`.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_with_trace(
        mut self,
        max_cycles: Cycle,
    ) -> Result<(RunResult, SystemTrace), CosimError> {
        let result = self.run_inner(max_cycles)?;
        let now = self.core.cycle();
        let trace = SystemTrace {
            core: self.core.probes().take_trace(now),
            mem: self.mem.probes(0).take_trace(now),
        };
        Ok((result, trace))
    }

    /// Runs to `halt` like [`System::run_checked`], additionally
    /// returning the host-side stage times (core stages merged with the
    /// memory port's walk time). Enable with [`System::with_host_prof`]
    /// first; without it the times are `None`.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_with_profile(
        mut self,
        max_cycles: Cycle,
    ) -> Result<(RunResult, Option<HostTimes>), CosimError> {
        let result = self.run_inner(max_cycles)?;
        let mut times = self.core.probes().host_times().copied();
        if let Some(m) = self.mem.probes(0).host_times() {
            times.get_or_insert_with(HostTimes::new).merge(m);
        }
        Ok((result, times))
    }

    fn run_inner(&mut self, max_cycles: Cycle) -> Result<RunResult, CosimError> {
        self.run_insts(u64::MAX, max_cycles)?;
        Ok(self.result())
    }

    /// Runs until at least `target_insts` total instructions have
    /// committed, or the core halts, whichever comes first. The target is
    /// cumulative over the whole run (a resumed system keeps counting
    /// from the snapshot's total). Pausing here, snapshotting, and
    /// resuming continues the run byte-identically — the pause point is
    /// between full tick iterations, where no partial pipeline step is in
    /// flight.
    ///
    /// # Errors
    ///
    /// As [`System::run_checked`].
    pub fn run_insts(&mut self, target_insts: u64, max_cycles: Cycle) -> Result<(), CosimError> {
        self.retirement.target_insts = target_insts;
        if let Some(ck) = self.retirement.cosim.start(self.mem.mem()) {
            self.retirement.cosim = Cosim::On(ck);
        }
        // One span to the cycle budget; clamping the skip to it makes the
        // timeout fire at the same cycle (and with the same commit count)
        // as an unskipped run.
        let now = self.core.cycle();
        engine::run_serial(
            std::slice::from_mut(&mut self.core),
            &mut self.mem,
            std::slice::from_mut(&mut self.retirement),
            self.fast_forward,
            now,
            |now, _| (now < max_cycles).then_some(max_cycles),
        );
        if let Some(e) = self.retirement.diverged.take() {
            return Err(e);
        }
        if self.core.halted() || self.retirement.committed >= target_insts {
            return Ok(());
        }
        Err(CosimError {
            at: self.retirement.committed,
            what: format!(
                "{} on {} did not halt within {max_cycles} cycles",
                self.model_label, self.workload_name
            ),
        })
    }

    /// Total instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.retirement.committed
    }

    /// `true` once the core has retired its `halt`.
    pub fn halted(&self) -> bool {
        self.core.halted()
    }

    /// The core's functional memory (its port's backing image).
    pub fn mem(&self) -> &SparseMem {
        self.mem.mem()
    }

    /// Assembles the [`RunResult`] for the run so far (normally called
    /// once the core has halted).
    pub fn result(&self) -> RunResult {
        RunResult {
            model: self.model_label.clone(),
            workload: self.workload_name.to_string(),
            cycles: self.core.cycle(),
            insts: self.retirement.committed,
            warmup_cycles: self.retirement.warmup_cycles,
            warmup_insts: self.retirement.skip_insts.min(self.retirement.committed),
            mem: self.mem.stats(),
            counters: self
                .core
                .counters()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            inst_mix: self.retirement.inst_mix,
            phases: self
                .core
                .phases()
                .rows()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    /// Captures the complete run state — accumulators, co-simulation
    /// checker, core timing state, and the full memory hierarchy — as a
    /// versioned [`Snapshot`].
    ///
    /// # Errors
    ///
    /// None today: every [`Core`] captures its state. The `Result` is kept
    /// for existing callers.
    pub fn snapshot(&self) -> Result<Snapshot, SnapError> {
        let mut w = SnapWriter::new();
        w.tag(SNAPSHOT_MAGIC);
        w.put_u32(SNAPSHOT_VERSION);
        w.put_str(&self.model_label);
        w.put_str(self.workload_name);
        w.put_u64(self.retirement.skip_insts);
        w.put_u64(self.retirement.committed);
        w.put_u64(self.retirement.warmup_cycles);
        self.retirement.inst_mix.put(&mut w);
        let not_run_yet = self.retirement.cosim.start(self.mem.mem());
        let checker = match &self.retirement.cosim {
            Cosim::On(ck) => Some(ck),
            _ => not_run_yet.as_ref(),
        };
        match checker {
            Some(ck) => {
                w.put_bool(true);
                ck.put_state(&mut w);
            }
            None => w.put_bool(false),
        }
        self.core.save_state(&mut w);
        self.mem.save_state(&mut w);
        Ok(Snapshot::from_bytes(w.into_bytes()))
    }

    /// Rebuilds a system from a [`Snapshot`] with the default memory
    /// configuration. See [`System::resume_with_mem`].
    ///
    /// # Errors
    ///
    /// As [`System::resume_with_mem`].
    pub fn resume(model: CoreModel, workload: &Workload, snap: &Snapshot) -> Result<System, SnapError> {
        System::resume_with_mem(model, workload, &MemConfig::default(), snap)
    }

    /// Rebuilds a system from a [`Snapshot`], continuing the run exactly
    /// where [`System::snapshot`] left it. The caller supplies the same
    /// model, workload, and memory configuration the snapshot was taken
    /// under; model and workload are validated against the snapshot
    /// header, and the restored core/memory state is validated
    /// structurally against the rebuilt configuration.
    ///
    /// # Errors
    ///
    /// [`SnapError::Mismatch`] when the model or workload disagrees with
    /// the header; [`SnapError::Corrupt`] on truncated or damaged bytes.
    pub fn resume_with_mem(
        model: CoreModel,
        workload: &Workload,
        mem_cfg: &MemConfig,
        snap: &Snapshot,
    ) -> Result<System, SnapError> {
        let mut sys = System::with_mem(model, workload, mem_cfg);
        let mut r = SnapReader::new(snap.as_bytes());
        r.tag(SNAPSHOT_MAGIC)?;
        let version = r.take_u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::Mismatch(format!(
                "snapshot version {version}, this build reads {SNAPSHOT_VERSION}"
            )));
        }
        let model_label = r.take_str()?;
        if model_label != sys.model_label {
            return Err(SnapError::Mismatch(format!(
                "snapshot of model '{model_label}', resuming as '{}'",
                sys.model_label
            )));
        }
        let workload_name = r.take_str()?;
        if workload_name != sys.workload_name {
            return Err(SnapError::Mismatch(format!(
                "snapshot of workload '{workload_name}', resuming on '{}'",
                sys.workload_name
            )));
        }
        let skip_insts = r.take_u64()?;
        let acc = &mut sys.retirement;
        if skip_insts != acc.skip_insts {
            return Err(SnapError::Mismatch(format!(
                "snapshot warm-up window {skip_insts}, workload has {}",
                acc.skip_insts
            )));
        }
        acc.committed = r.take_u64()?;
        acc.warmup_cycles = r.take_u64()?;
        acc.inst_mix = Snap::take(&mut r)?;
        acc.cosim = if r.take_bool()? {
            let mut ck = Box::new(RetireChecker::new(&workload.program));
            ck.take_state(&mut r)?;
            Cosim::On(ck)
        } else {
            Cosim::Off
        };
        sys.core.restore_state(&mut r)?;
        sys.mem.restore_state(&mut r)?;
        r.finish()?;
        Ok(sys)
    }

    /// Convenience: build + run one (model, workload) pair, panicking on
    /// divergence — the form every experiment binary uses.
    pub fn measure(model: CoreModel, workload: &Workload, max_cycles: Cycle) -> RunResult {
        System::new(model, workload)
            .run_checked(max_cycles)
            .expect("co-simulation clean")
    }
}

/// Geometric mean of a slice of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_workloads::{Scale, Workload};

    #[test]
    fn run_produces_sane_result() {
        let w = Workload::by_name("gzip", Scale::Smoke, 3).unwrap();
        let r = System::measure(CoreModel::InOrder, &w, 50_000_000);
        assert!(r.cycles > 0);
        assert!(r.insts > w.skip_insts);
        assert!(r.ipc() > 0.05 && r.ipc() < 2.0, "ipc {}", r.ipc());
        assert!(r.measured_ipc() > 0.0);
        assert!(r.warmup_cycles < r.cycles);
        // Counters and instruction mix ride along on every run.
        assert_eq!(r.counter("ahead_issued"), Some(r.insts - 1), "all but the halt issue once");
        assert!(r.counter("cond_predictions").unwrap() > 0);
        assert_eq!(r.inst_mix.iter().sum::<u64>(), r.insts);
        assert!(r.mix_fraction(sst_isa::InstClass::Load) > 0.0);
        assert_eq!(r.inst_mix[9], 1, "exactly one halt commits");
    }

    #[test]
    fn sst_counters_surface_speculation_activity() {
        let w = Workload::by_name("erp", Scale::Smoke, 3).unwrap();
        let r = System::measure(CoreModel::Sst, &w, 100_000_000);
        assert!(r.counter("episodes").unwrap() > 0, "erp must trigger episodes");
        assert!(r.counter("deferred").unwrap() > 0);
        assert!(r.counter("epochs_committed").unwrap() > 0);
        // Unknown names come back as None, not a panic.
        assert_eq!(r.counter("no-such-counter"), None);
    }

    #[test]
    fn cosim_runs_for_all_models_on_a_memory_workload() {
        let w = Workload::by_name("erp", Scale::Smoke, 3).unwrap();
        for m in CoreModel::lineup() {
            let label = m.label();
            let r = System::new(m, &w)
                .run_checked(100_000_000)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(r.insts > 0);
        }
    }

    #[test]
    fn timeout_is_reported() {
        let w = Workload::by_name("oltp", Scale::Smoke, 3).unwrap();
        let e = System::new(CoreModel::InOrder, &w)
            .run_checked(100)
            .unwrap_err();
        assert!(e.what.contains("did not halt"));
    }

    /// The work-counter gate on solo spans: a core alone on its clock is
    /// looked at when its commit buffer fills, at the warm-up mark and at
    /// the halt — not after every tick (in-order/gzip alone ticks 27 000
    /// times at this scale).
    #[test]
    fn a_solo_run_is_looked_at_once_per_full_buffer() {
        use crate::engine::{LOOKS, LOOK_CAP};
        for name in ["gzip", "chase", "oltp"] {
            let w = Workload::by_name(name, Scale::Smoke, 3).unwrap();
            for m in CoreModel::lineup() {
                let label = m.label();
                let before = LOOKS.with(|n| n.get());
                let r = System::new(m, &w).without_cosim().run_checked(100_000_000).unwrap();
                let looks = LOOKS.with(|n| n.get()) - before;
                assert!(
                    looks <= r.insts / LOOK_CAP + 3,
                    "{label} on {name}: {looks} looks for {} commits",
                    r.insts
                );
            }
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }
}
