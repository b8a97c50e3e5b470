//! Chip-multiprocessor simulation: `n` cores over a shared L2, running a
//! multiprogrammed workload mix (disjoint address slots, as in the paper's
//! throughput methodology — no data sharing, so no coherence traffic).
//!
//! [`CmpSystem::run`] is a façade over [`crate::engine`]: every core runs
//! to its `halt` within one span that ends at the cycle budget. The
//! engine's serial and chunk-parallel executors
//! ([`CmpSystem::with_threads`]) produce byte-identical [`CmpResult`]s —
//! per-core cycles and instructions, makespan, every memory counter; the
//! tick order, per-core sleep and horizon rules that guarantee it are
//! stated there, and `crates/sim/tests/parallel_cmp.rs` enforces it across
//! models, mixes, and thread counts.

use sst_isa::{Program, SparseMem};
use sst_mem::{Cycle, MemConfig, MemStats, MemSystem};
use sst_prng::splitmix64;
use sst_uarch::Core;
use sst_workloads::{Scale, Workload};

use crate::engine::{self, Policy, UntilHalt};
use crate::CoreModel;

/// Derives core `id`'s workload seed from the run seed.
///
/// Seeds are element `id` of the SplitMix64 stream anchored at `seed`,
/// so distinct `(seed, id)` pairs map to distinct, well-mixed streams.
/// (The old `seed + id` derivation collided for adjacent pairs: seed 5
/// core 1 ran the same instruction stream as seed 6 core 0.)
fn core_seed(seed: u64, id: usize) -> u64 {
    let mut s = seed.wrapping_add((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut s)
}

/// Result of a CMP run.
#[derive(Clone, Debug, PartialEq)]
pub struct CmpResult {
    /// Model label.
    pub model: String,
    /// Per-core (cycles, instructions) at each core's own halt.
    pub per_core: Vec<(Cycle, u64)>,
    /// Cycles until every core halted.
    pub cycles: Cycle,
    /// Shared memory statistics.
    pub mem: MemStats,
}

sst_isa::snap_record!(CmpResult {
    model,
    per_core,
    cycles,
    mem
});

impl CmpResult {
    /// Aggregate throughput: total instructions / makespan cycles.
    pub fn throughput_ipc(&self) -> f64 {
        let insts: u64 = self.per_core.iter().map(|&(_, i)| i).sum();
        insts as f64 / self.cycles.max(1) as f64
    }

    /// Mean per-core IPC measured over each core's own runtime.
    pub fn mean_core_ipc(&self) -> f64 {
        let sum: f64 = self
            .per_core
            .iter()
            .map(|&(c, i)| i as f64 / c.max(1) as f64)
            .sum();
        sum / self.per_core.len().max(1) as f64
    }
}

/// An `n`-core chip: private L1s, shared banked L2, one DRAM channel.
pub struct CmpSystem {
    pub(crate) cores: Vec<Box<dyn Core>>,
    pub(crate) mem: MemSystem,
    pub(crate) model_label: String,
    pub(crate) fast_forward: bool,
    pub(crate) threads: usize,
}

impl CmpSystem {
    /// Builds a CMP where every core runs `workload_name` (per-core seeds
    /// and address slots differ, so the mix is homogeneous but not
    /// identical).
    pub fn homogeneous(
        model: CoreModel,
        workload_name: &str,
        scale: Scale,
        seed: u64,
        n_cores: usize,
        mem_cfg: &MemConfig,
    ) -> CmpSystem {
        let names = vec![workload_name; n_cores];
        CmpSystem::mix(model, &names, scale, seed, mem_cfg)
    }

    /// Builds a CMP from an explicit per-core workload list.
    pub fn mix(
        model: CoreModel,
        mix: &[&str],
        scale: Scale,
        seed: u64,
        mem_cfg: &MemConfig,
    ) -> CmpSystem {
        let mut sys = CmpSystem::empty(&model, mix.len(), mem_cfg);
        for (id, name) in mix.iter().enumerate() {
            let w = Workload::by_name_slot(name, scale, core_seed(seed, id), id)
                .expect("known workload");
            sys.attach(&model, &w.program);
        }
        sys
    }

    /// Builds a CMP whose core `i` runs `programs[i]` directly, with no
    /// workload lookup — the service-driver path (`run_service`) hands
    /// endless server kernels here. Each program's text/data must live in
    /// address slot `i` (`Workload::by_name_slot`-style), because each
    /// slot's image is loaded into port `i`'s private memory.
    pub fn from_programs(
        model: CoreModel,
        programs: &[&Program],
        mem_cfg: &MemConfig,
    ) -> CmpSystem {
        let mut sys = CmpSystem::empty(&model, programs.len(), mem_cfg);
        for p in programs {
            sys.attach(&model, p);
        }
        sys
    }

    fn empty(model: &CoreModel, n_cores: usize, mem_cfg: &MemConfig) -> CmpSystem {
        assert!(n_cores > 0);
        CmpSystem {
            cores: Vec::new(),
            mem: MemSystem::new(mem_cfg, n_cores),
            model_label: model.label(),
            fast_forward: true,
            threads: 1,
        }
    }

    /// Adds the next core, running `program`. Each slot's image goes to
    /// its own port: slots are disjoint 64 GiB ranges, so the per-port
    /// split is exact.
    fn attach(&mut self, model: &CoreModel, program: &Program) {
        let id = self.cores.len();
        program.load_into(self.mem.port_mem_mut(id));
        self.cores.push(model.build(id, program));
    }

    /// Core `core`'s functional memory (its port's backing image).
    pub fn port_mem(&self, core: usize) -> &SparseMem {
        self.mem.port_mem(core)
    }

    /// Disables idle-cycle fast-forwarding (see
    /// `System::without_fast_forward`); for the equivalence tests and
    /// debugging only — results are identical either way.
    pub fn without_fast_forward(mut self) -> CmpSystem {
        self.fast_forward = false;
        self
    }

    /// Ticks cores on `threads` worker threads (contiguous chunks of the
    /// core list). Results are byte-identical for every thread count —
    /// shared-memory arbitration is replayed in the exact serial order —
    /// so this is purely a wall-clock knob. `threads <= 1` runs the
    /// serial executor.
    pub fn with_threads(mut self, threads: usize) -> CmpSystem {
        self.threads = threads.max(1);
        self
    }

    /// Runs until every core halts (cores that finish early sit idle,
    /// matching a fixed-work throughput experiment).
    ///
    /// # Panics
    ///
    /// Panics if any core fails to halt within `max_cycles`.
    pub fn run(self, max_cycles: Cycle) -> CmpResult {
        let mut until_halt: Vec<UntilHalt> = self.cores.iter().map(|_| UntilHalt).collect();
        // The engine asks for a second span only if the first reached the
        // budget with a core still running.
        self.drive(&mut until_halt, |now, _| {
            assert!(
                now < max_cycles,
                "CMP did not finish in {max_cycles} cycles"
            );
            Some(max_cycles)
        })
    }

    /// Runs the chip through the engine — serial, or chunk-parallel when
    /// `threads` and the core count allow — and assembles the result:
    /// `per_core` is each core's final `(cycle, retired)` (a retired core
    /// is never moved again, so for a halted one that is its halt point),
    /// `cycles` the chip clock at the stop.
    pub(crate) fn drive<P: Policy + Default + Send>(
        mut self,
        policies: &mut [P],
        boundary: impl FnMut(Cycle, &mut [P]) -> Option<Cycle>,
    ) -> CmpResult {
        let cycles = if self.threads > 1 && self.cores.len() > 1 {
            let (cycles, mem) = engine::run_parallel(
                &mut self.cores,
                self.mem,
                policies,
                self.threads,
                self.fast_forward,
                boundary,
            );
            self.mem = mem;
            cycles
        } else {
            engine::run_serial(
                &mut self.cores,
                &mut self.mem,
                policies,
                self.fast_forward,
                0,
                boundary,
            )
        };
        CmpResult {
            model: self.model_label,
            per_core: self
                .cores
                .iter()
                .map(|c| (c.cycle(), c.retired()))
                .collect(),
            cycles,
            mem: self.mem.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_core_mix_runs() {
        let r = CmpSystem::mix(
            CoreModel::Sst,
            &["gzip", "gzip", "gzip", "gzip"],
            Scale::Smoke,
            1,
            &MemConfig::default(),
        )
        .run(100_000_000);
        assert_eq!(r.per_core.len(), 4);
        assert!(r.throughput_ipc() > 0.0);
        assert!(r.mean_core_ipc() > 0.0);
    }

    #[test]
    fn shared_l2_sees_all_cores() {
        let r = CmpSystem::homogeneous(
            CoreModel::InOrder,
            "erp",
            Scale::Smoke,
            9,
            2,
            &MemConfig::default(),
        )
        .run(200_000_000);
        assert!(r.mem.l1d[0].accesses > 0);
        assert!(r.mem.l1d[1].accesses > 0);
        assert!(r.mem.l2.accesses > 0);
    }

    #[test]
    fn more_cores_more_throughput_when_uncontended() {
        let one = CmpSystem::homogeneous(
            CoreModel::InOrder,
            "gzip",
            Scale::Smoke,
            5,
            1,
            &MemConfig::default(),
        )
        .run(200_000_000);
        let four = CmpSystem::homogeneous(
            CoreModel::InOrder,
            "gzip",
            Scale::Smoke,
            5,
            4,
            &MemConfig::default(),
        )
        .run(200_000_000);
        assert!(
            four.throughput_ipc() > one.throughput_ipc() * 2.5,
            "cache-resident work should scale: {} vs {}",
            four.throughput_ipc(),
            one.throughput_ipc()
        );
    }

    #[test]
    fn core_seeds_do_not_collide_across_adjacent_runs() {
        // The old `seed + id` derivation made (seed, id) and
        // (seed + 1, id - 1) share a workload stream.
        assert_ne!(core_seed(5, 1), core_seed(6, 0));
        assert_ne!(core_seed(5, 0), core_seed(5, 1));
        // And the mapping is deterministic.
        assert_eq!(core_seed(5, 1), core_seed(5, 1));
    }

    #[test]
    fn budget_overrun_panics_alike_serial_and_parallel() {
        for threads in [1, 2] {
            let sys = CmpSystem::homogeneous(
                CoreModel::InOrder,
                "gzip",
                Scale::Smoke,
                5,
                2,
                &MemConfig::default(),
            )
            .with_threads(threads);
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run(100)))
                .expect_err("a 100-cycle budget is too small");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some("CMP did not finish in 100 cycles"),
                "threads={threads}"
            );
        }
    }

    /// `tests/fastforward.rs` and `tests/parallel_cmp.rs` sweep chips of one
    /// model; here every slot is a different machine on a different kind of
    /// program, so no two cores sleep on the same schedule. The chip is the
    /// same run with skipping on or off at every thread count.
    #[test]
    fn a_chip_of_unlike_cores_is_the_same_run_however_driven() {
        let slots = [
            (CoreModel::InOrder, "chase"),
            (CoreModel::Sst, "gzip"),
            (CoreModel::Ooo128, "oltp"),
            (CoreModel::Scout, "erp"),
        ];
        let build = || {
            let mut sys = CmpSystem::empty(&CoreModel::Sst, slots.len(), &MemConfig::default());
            for (id, (model, name)) in slots.iter().enumerate() {
                let w = Workload::by_name_slot(name, Scale::Smoke, core_seed(7, id), id).unwrap();
                sys.attach(model, &w.program);
            }
            sys
        };
        let reference = build().run(400_000_000);
        assert!(reference
            .per_core
            .iter()
            .all(|&(cycles, insts)| cycles > 0 && insts > 0));
        for fast_forward in [true, false] {
            for threads in [1, 2, 8] {
                let mut sys = build().with_threads(threads);
                if !fast_forward {
                    sys = sys.without_fast_forward();
                }
                assert_eq!(
                    reference,
                    sys.run(400_000_000),
                    "threads={threads} fast_forward={fast_forward}"
                );
            }
        }
    }

    #[test]
    fn two_threads_match_serial_quickcheck() {
        // The full sweep lives in tests/parallel_cmp.rs; this is the
        // fast in-crate smoke check.
        let build = || {
            CmpSystem::mix(
                CoreModel::InOrder,
                &["gzip", "erp", "gzip"],
                Scale::Smoke,
                11,
                &MemConfig::default(),
            )
        };
        let serial = build().run(200_000_000);
        let parallel = build().with_threads(2).run(200_000_000);
        assert_eq!(serial, parallel);
    }
}
