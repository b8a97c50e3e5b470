//! Deterministic parallel access to the shared memory residue.
//!
//! [`crate::MemSystem::into_parallel`] splits a memory system into its
//! per-core [`MemPort`]s (moved onto worker threads) and a
//! [`ParallelMem`] holding the shared L2/DRAM residue. Workers drive
//! their cores through gated [`MemBus`]es; every escalation into the
//! shared residue first waits for the core's *turn*, defined so that
//! shared structures observe accesses in exactly the order a serial
//! driver produces: ascending cycle, and within one cycle ascending
//! core id, with each core's whole tick atomic.
//!
//! # The horizon protocol
//!
//! Each core `i` publishes a *horizon* `h[i]`: the number of cycles it
//! has fully completed (equivalently, the cycle it will execute next).
//! A halted core publishes `u64::MAX`. Core `i`, mid-tick at cycle
//! `c`, may touch shared state once
//!
//! * every lower-id core `j < i` has `h[j] > c` (its cycle-`c` shared
//!   accesses are all done), and
//! * every higher-id core `j > i` has `h[j] >= c` (its accesses from
//!   cycles before `c` are all done; its cycle-`c` accesses come after
//!   `i`'s and are blocked on `h[i] > c`, which cannot hold while `i`
//!   is still mid-tick).
//!
//! Suppose cores `i < j` were both inside the shared residue at once,
//! at cycles `ci` and `cj`. `i` required `h[j] >= ci`, and `j` mid-tick
//! means `h[j] = cj`, so `cj >= ci`; `j` required `h[i] > cj`, and `i`
//! mid-tick means `h[i] = ci`, so `ci > cj` — a contradiction. Mutual
//! exclusion therefore holds *by the protocol*; the [`Mutex`] around
//! the residue is uncontended and exists to make the sharing sound
//! safe Rust, not to order anything. Progress: the globally minimal
//! `(cycle, id)` unhalted core satisfies both conditions and never
//! blocks. Because horizons only grow, one wait per `(core, cycle)`
//! suffices; the bus caches the acquired cycle and skips the scan for
//! further shared accesses within the same tick.
//!
//! If a worker panics (a wedged core, a model bug), it poisons the
//! horizon table on unwind so that peers spinning on its horizon panic
//! too instead of waiting forever.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::system::{L2Shared, MemBus, MemPort, MemSystem};
use crate::{Cycle, MemConfig};

/// Per-core progress horizons plus the poison flag (see module docs).
pub(crate) struct Horizons {
    h: Vec<AtomicU64>,
    poisoned: AtomicBool,
}

impl Horizons {
    fn new(cores: usize) -> Horizons {
        Horizons {
            h: (0..cores).map(|_| AtomicU64::new(0)).collect(),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until it is `core`'s turn to touch shared state at `now`.
    ///
    /// # Panics
    ///
    /// Panics if a peer worker poisoned the table (its own panic is
    /// already unwinding; this one just stops the spin).
    fn wait_turn(&self, core: usize, now: Cycle) {
        let mut spins = 0u32;
        loop {
            let mut ready = true;
            for (j, h) in self.h.iter().enumerate() {
                if j == core {
                    continue;
                }
                let need = if j < core { now + 1 } else { now };
                if h.load(Ordering::Acquire) < need {
                    ready = false;
                    break;
                }
            }
            if ready {
                return;
            }
            if self.poisoned.load(Ordering::Relaxed) {
                panic!("parallel CMP worker: a peer worker panicked");
            }
            // Brief spin for the common near-lockstep case, then yield so
            // lagging workers get the CPU (essential on small hosts).
            spins = spins.wrapping_add(1);
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// The shared half of a split [`MemSystem`]: configuration, the
/// L2/DRAM residue behind an (uncontended, see module docs) [`Mutex`],
/// and the horizon table that serializes access to it.
///
/// `&ParallelMem` is shared across worker threads; each worker pairs it
/// with its owned [`MemPort`]s via [`ParallelMem::bus`].
pub struct ParallelMem {
    cfg: MemConfig,
    shared: Mutex<L2Shared>,
    horizons: Horizons,
}

impl MemSystem {
    /// Splits the system into its per-core ports (to be moved onto
    /// worker threads) and the shared residue. [`ParallelMem::into_system`]
    /// reassembles the pieces for final statistics.
    pub fn into_parallel(self) -> (Vec<MemPort>, ParallelMem) {
        let n = self.ports.len();
        (
            self.ports,
            ParallelMem {
                cfg: self.cfg,
                shared: Mutex::new(self.shared),
                horizons: Horizons::new(n),
            },
        )
    }
}

impl ParallelMem {
    /// A gated bus for `core`: L1-local traffic hits `port` directly;
    /// escalations into the shared residue wait for the core's turn.
    ///
    /// The caller must pass the port that was at index `core` in the
    /// [`MemSystem::into_parallel`] result — the pairing is what keeps
    /// per-core statistics and the turn order consistent.
    pub fn bus<'a>(&'a self, port: &'a mut MemPort, core: usize) -> MemBus<'a> {
        MemBus::new(
            &self.cfg,
            port,
            SharedHandle::Gated {
                shared: &self.shared,
                horizons: &self.horizons,
                core,
                acquired_for: None,
            },
        )
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Publishes that `core` has completed every cycle below
    /// `next_cycle`. Call after each tick with `now + 1`, and after a
    /// fast-forward skip with the skip target (skipped cycles touch no
    /// memory, so jumping the horizon over them is exact).
    pub fn note_progress(&self, core: usize, next_cycle: Cycle) {
        self.horizons.h[core].store(next_cycle, Ordering::Release);
    }

    /// Publishes that `core` has halted and will never touch shared
    /// state again.
    pub fn note_halted(&self, core: usize) {
        self.horizons.h[core].store(u64::MAX, Ordering::Release);
    }

    /// Marks the run as failed so peers blocked in a turn wait panic
    /// instead of spinning forever. Called from workers' unwind paths.
    pub fn poison(&self) {
        self.horizons.poisoned.store(true, Ordering::Release);
    }

    /// `true` once any worker poisoned the run.
    pub fn is_poisoned(&self) -> bool {
        self.horizons.poisoned.load(Ordering::Relaxed)
    }

    /// Reassembles a serial [`MemSystem`] (for [`MemSystem::stats`])
    /// from the shared residue and the ports handed back by the
    /// workers, in core order.
    pub fn into_system(self, ports: Vec<MemPort>) -> MemSystem {
        let shared = match self.shared.into_inner() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        MemSystem {
            cfg: self.cfg,
            ports,
            shared,
        }
    }
}

/// How a [`MemBus`] reaches the shared residue: directly (serial) or
/// through the horizon gate (parallel).
pub(crate) enum SharedHandle<'a> {
    /// Serial simulation: a plain reborrow, zero synchronization.
    Direct(&'a mut L2Shared),
    /// Parallel simulation: wait for the core's turn, then lock the
    /// (uncontended) mutex.
    Gated {
        shared: &'a Mutex<L2Shared>,
        horizons: &'a Horizons,
        core: usize,
        /// Cycle for which the turn wait has already been performed;
        /// horizons only grow, so one wait per (core, cycle) suffices.
        acquired_for: Option<Cycle>,
    },
}

impl<'a> SharedHandle<'a> {
    /// Grants access to the shared residue for an access at cycle `now`,
    /// waiting for the core's deterministic turn when gated.
    pub(crate) fn acquire(&mut self, now: Cycle) -> SharedGuard<'_> {
        match self {
            SharedHandle::Direct(s) => SharedGuard::Direct(s),
            SharedHandle::Gated {
                shared,
                horizons,
                core,
                acquired_for,
            } => {
                if *acquired_for != Some(now) {
                    horizons.wait_turn(*core, now);
                    *acquired_for = Some(now);
                }
                let guard = shared.lock().unwrap_or_else(|p| p.into_inner());
                SharedGuard::Locked(guard)
            }
        }
    }
}

/// Exclusive access to the shared residue for one escalation.
pub(crate) enum SharedGuard<'g> {
    Direct(&'g mut L2Shared),
    Locked(MutexGuard<'g, L2Shared>),
}

impl std::ops::Deref for SharedGuard<'_> {
    type Target = L2Shared;
    fn deref(&self) -> &L2Shared {
        match self {
            SharedGuard::Direct(s) => s,
            SharedGuard::Locked(g) => g,
        }
    }
}

impl std::ops::DerefMut for SharedGuard<'_> {
    fn deref_mut(&mut self) -> &mut L2Shared {
        match self {
            SharedGuard::Direct(s) => s,
            SharedGuard::Locked(g) => g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, MemConfig};

    /// Runs `accesses` (one per core, all at the same cycle) through a
    /// serial MemSystem and returns the outcomes in core order.
    fn serial_outcomes(
        cfg: &MemConfig,
        cores: usize,
        accesses: &[(AccessKind, u64)],
    ) -> Vec<crate::AccessOutcome> {
        let mut ms = MemSystem::new(cfg, cores);
        accesses
            .iter()
            .enumerate()
            .map(|(i, &(kind, addr))| ms.access(0, i, kind, addr))
            .collect()
    }

    /// Same accesses through the parallel path, with thread `i` started
    /// in *reverse* core order and staggered so the raw thread schedule
    /// is maximally wrong — the horizon gate must still impose core
    /// order. Returns (outcomes, reassembled system).
    fn parallel_outcomes(
        cfg: &MemConfig,
        cores: usize,
        accesses: &[(AccessKind, u64)],
    ) -> (Vec<crate::AccessOutcome>, MemSystem) {
        let ms = MemSystem::new(cfg, cores);
        let (mut ports, pmem) = ms.into_parallel();
        let mut outcomes = vec![None; cores];
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            // Reverse order + stagger: higher-id cores race ahead.
            for (i, port) in ports.iter_mut().enumerate().rev() {
                let pmem = &pmem;
                let (kind, addr) = accesses[i];
                handles.push((
                    i,
                    s.spawn(move || {
                        // Lower-id cores start later: if the gate were
                        // absent, higher cores would win the L2 port.
                        std::thread::sleep(std::time::Duration::from_millis(
                            10 * (cores - 1 - i) as u64,
                        ));
                        let out = pmem.bus(port, i).access(0, kind, addr);
                        pmem.note_halted(i);
                        out
                    }),
                ));
            }
            for (i, h) in handles {
                outcomes[i] = Some(h.join().expect("worker ok"));
            }
        });
        let sys = pmem.into_system(ports);
        (outcomes.into_iter().map(|o| o.unwrap()).collect(), sys)
    }

    fn assert_parallel_matches_serial(cfg: &MemConfig, accesses: &[(AccessKind, u64)]) {
        let n = accesses.len();
        let serial = serial_outcomes(cfg, n, accesses);
        let (par, sys) = parallel_outcomes(cfg, n, accesses);
        assert_eq!(par, serial, "outcomes must match the serial interleaving");
        let mut ms = MemSystem::new(cfg, n);
        for (i, &(kind, addr)) in accesses.iter().enumerate() {
            ms.access(0, i, kind, addr);
        }
        assert_eq!(sys.stats(), ms.stats(), "stats must match too");
    }

    #[test]
    fn same_cycle_requests_are_serviced_in_core_order() {
        // Distinct lines, same cycle: the L2 port arbiter must see core
        // 0 first even though core 2's thread runs first.
        let cfg = MemConfig {
            l2_port_cycles: 7,
            ..MemConfig::default()
        };
        let accesses = [
            (AccessKind::Load, 0x1_0000),
            (AccessKind::Load, 0x2_0000),
            (AccessKind::Load, 0x3_0000),
        ];
        assert_parallel_matches_serial(&cfg, &accesses);
        // And the ordering is visible in the outcomes: core 0 wins the
        // port, each later core waits one more port slot.
        let serial = serial_outcomes(&cfg, 3, &accesses);
        assert!(serial[0].ready_at < serial[1].ready_at);
        assert!(serial[1].ready_at < serial[2].ready_at);
    }

    #[test]
    fn bank_conflict_backpressure_is_deterministic() {
        // Large port occupancy: same-cycle accesses serialize hard on
        // the shared port; order must still be core 0 < 1 < 2 < 3.
        let cfg = MemConfig {
            l2_port_cycles: 50,
            ..MemConfig::default()
        };
        let accesses = [
            (AccessKind::Load, 0x1_0000),
            (AccessKind::Store, 0x2_0000),
            (AccessKind::Load, 0x3_0000),
            (AccessKind::Store, 0x4_0000),
        ];
        assert_parallel_matches_serial(&cfg, &accesses);
    }

    #[test]
    fn l2_mshr_full_backpressure_is_deterministic() {
        // One L2 MSHR: the second and third cores' misses must queue
        // behind the first in core order, regardless of thread schedule.
        let cfg = MemConfig {
            l2_mshrs: 1,
            ..MemConfig::default()
        };
        let accesses = [
            (AccessKind::Load, 0x1_0000),
            (AccessKind::Load, 0x2_0000),
            (AccessKind::Load, 0x3_0000),
        ];
        assert_parallel_matches_serial(&cfg, &accesses);
        let serial = serial_outcomes(&cfg, 3, &accesses);
        assert!(
            serial[2].ready_at > serial[0].ready_at,
            "third miss queues behind the single MSHR"
        );
        let mut ms = MemSystem::new(&cfg, 3);
        for (i, &(kind, addr)) in accesses.iter().enumerate() {
            ms.access(0, i, kind, addr);
        }
        assert!(ms.stats().mshr_full_delays > 0);
    }

    #[test]
    fn multi_cycle_interleaving_matches_serial() {
        // Two cores, several ticks each, sharing L2 lines (cross-core
        // L2 reuse): drive the parallel path tick by tick with real
        // progress notes and compare against the serial driver.
        let cfg = MemConfig::default();
        let plan: [&[(AccessKind, u64)]; 2] = [
            &[(AccessKind::Load, 0x5000), (AccessKind::Load, 0x6000)],
            &[(AccessKind::Load, 0x5000), (AccessKind::Store, 0x6000)],
        ];

        // Serial reference: cycle-major, core-minor.
        let mut ms = MemSystem::new(&cfg, 2);
        let mut serial = Vec::new();
        for t in 0..2 {
            for (core, steps) in plan.iter().enumerate() {
                let (kind, addr) = steps[t];
                serial.push(ms.access(t as Cycle, core, kind, addr));
            }
        }
        let serial_stats = ms.stats();

        // Parallel: each worker plays its core's two ticks.
        let (mut ports, pmem) = MemSystem::new(&cfg, 2).into_parallel();
        let mut par = vec![Vec::new(); 2];
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for (i, port) in ports.iter_mut().enumerate().rev() {
                let pmem = &pmem;
                let my_plan = plan[i];
                handles.push((
                    i,
                    s.spawn(move || {
                        let mut outs = Vec::new();
                        for (t, &(kind, addr)) in my_plan.iter().enumerate() {
                            outs.push(pmem.bus(port, i).access(t as Cycle, kind, addr));
                            pmem.note_progress(i, t as Cycle + 1);
                        }
                        pmem.note_halted(i);
                        outs
                    }),
                ));
            }
            for (i, h) in handles {
                par[i] = h.join().expect("worker ok");
            }
        });
        let psys = pmem.into_system(ports);

        let par_flat: Vec<_> = (0..2).flat_map(|t| [par[0][t], par[1][t]]).collect();
        assert_eq!(par_flat, serial);
        assert_eq!(psys.stats(), serial_stats);
    }

    #[test]
    fn poison_unblocks_waiters() {
        let (mut ports, pmem) = MemSystem::new(&MemConfig::default(), 2).into_parallel();
        let mut it = ports.iter_mut();
        let p0 = it.next().unwrap();
        let _p0 = p0; // core 0 never progresses: core 1 would wait forever
        let p1 = it.next().unwrap();
        let caught = std::thread::scope(|s| {
            let pmem = &pmem;
            let h = s.spawn(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut bus = pmem.bus(p1, 1);
                    bus.access(0, AccessKind::Load, 0x9000)
                }));
                r.is_err()
            });
            std::thread::sleep(std::time::Duration::from_millis(30));
            pmem.poison();
            h.join().expect("join")
        });
        assert!(caught, "waiter must panic once poisoned");
        assert!(pmem.is_poisoned());
    }
}
