//! The service façade: a CMP run where cores execute externally
//! dispatched *requests* instead of running a fixed program to halt.
//!
//! A [`WorkSource`] (e.g. `sst-traffic`'s open-loop generator) feeds
//! per-core [`Lane`]s at **quantum boundaries**: every `quantum()` cycles
//! the engine stops the chip clock, the source is handed every lane
//! (arrived requests in, completed requests out), and the next span runs
//! to the next boundary. In between, all dispatch state is strictly
//! core-local — a core that finishes its request pops the next one from
//! *its own* lane queue, and a core with nothing queued is clock-gated
//! ([`sst_uarch::Core::gate_to`]) until the boundary. Global decisions
//! happen only at boundaries, on one thread; that, with the span rules of
//! [`crate::engine`] (which every run of this crate shares), keeps the
//! parallel executor byte-identical to the serial one.
//!
//! A request is "serve `insts` more retired instructions of the core's
//! resident kernel" — the kernel is an endless server loop, so the slice
//! boundaries are the transaction boundaries the source chose. Completion
//! is detected on the tick whose commits crossed the target; idle-cycle
//! fast-forwarding still applies between events (skips never cross a
//! commit, so completion cycles are unaffected).

use std::collections::VecDeque;

use sst_mem::Cycle;
use sst_uarch::{Commit, Core};

use crate::cmp::{CmpResult, CmpSystem};
use crate::engine::{Policy, Verdict};

/// One dispatched unit of work: serve `insts` retired instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Source-assigned id (arrival order in `sst-traffic`).
    pub id: u64,
    /// Retired-instruction budget of this request.
    pub insts: u64,
}

/// A core's dispatch lane: the run queue the source fills, the completion
/// log the source drains, and the in-flight request the driver tracks.
#[derive(Debug, Default)]
pub struct Lane {
    /// Requests waiting on this core, FIFO.
    pub queue: VecDeque<Request>,
    /// Completions since the last boundary: `(request id, cycle)`.
    pub done: Vec<(u64, Cycle)>,
    /// The running request: `(id, retired-count target)`.
    in_flight: Option<(u64, u64)>,
}

impl Lane {
    /// Queued plus in-flight requests (the least-loaded metric).
    pub fn load(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// `true` while a request is being served.
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }
}

impl Policy for Lane {
    /// Completes the in-flight request if the core's retired count has
    /// reached its target (logging chip cycle `now`), then starts the
    /// next queued one; with nothing queued the core idles to the
    /// boundary. The target is a [`Core::retired`] count, which on the
    /// speculative models is not a count of drained commits, so a lane
    /// asks to see its core after every tick ([`Verdict::Run`]`(0)`).
    fn step(&mut self, core: &dyn Core, _commits: &[Commit], now: Cycle) -> Verdict {
        if let Some((id, target)) = self.in_flight {
            if core.halted() {
                panic!(
                    "service core {}: kernel halted with request {id} in flight (server \
                     kernels must loop forever)",
                    core.core_id()
                );
            }
            if core.retired() < target {
                return Verdict::Run(0);
            }
            self.done.push((id, now));
            self.in_flight = None;
        }
        match self.queue.pop_front() {
            Some(req) => {
                // The target counts from the core's current retired count:
                // every request is exactly `insts` more instructions from
                // wherever the resident kernel stands now.
                self.in_flight = Some((req.id, core.retired() + req.insts));
                Verdict::Run(0)
            }
            None => Verdict::Idle,
        }
    }
}

/// The request generator/consumer driving a service run.
///
/// Determinism contract: `boundary` is always called on a single thread,
/// in strictly increasing `now` order, with every lane — its behaviour
/// must be a pure function of its own state plus the lane contents, which
/// is what makes service runs byte-identical across `--threads`.
pub trait WorkSource {
    /// The dispatch quantum in cycles (global decisions happen only every
    /// `quantum()` cycles; smaller = finer dispatch, more sync).
    fn quantum(&self) -> Cycle;

    /// Called at chip cycle `now` (a quantum multiple) before the next
    /// quantum runs. Harvest `done`, push into `queue`, account sheds.
    /// Return `false` to stop the run — only legal once every lane is
    /// idle with an empty queue, so the makespan is exact.
    fn boundary(&mut self, now: Cycle, lanes: &mut [Lane]) -> bool;
}

impl CmpSystem {
    /// Runs the chip under `source` until it stops, returning the same
    /// shape as a fixed-work run ([`CmpResult`]): `per_core` holds each
    /// core's final `(cycle, retired)` (cores never halt — server kernels
    /// loop forever), `cycles` the makespan. Serial and parallel
    /// (`with_threads`) drivers are byte-identical, including everything
    /// the source observed through its lanes.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `max_cycles` (runaway source), or if a
    /// kernel halts mid-request.
    pub fn run_service(self, source: &mut dyn WorkSource, max_cycles: Cycle) -> CmpResult {
        let q = source.quantum().max(1);
        let mut lanes: Vec<Lane> = self.cores.iter().map(|_| Lane::default()).collect();
        self.drive(&mut lanes, |now, lanes| {
            if !source.boundary(now, lanes) {
                return None;
            }
            let end = now + q;
            assert!(end <= max_cycles, "service run exceeded {max_cycles} cycles");
            Some(end)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreModel;
    use sst_mem::MemConfig;
    use sst_workloads::{Scale, ServerKernel};

    /// A scripted source: `reqs[i]` arrives at cycle `arrive[i]`, all
    /// dispatched round-robin; used to pin driver semantics without the
    /// full traffic stack.
    struct Script {
        arrivals: Vec<(Cycle, u64)>, // (cycle, insts)
        next: usize,
        rr: usize,
        completions: Vec<(u64, Cycle)>,
        quantum: Cycle,
    }

    impl WorkSource for Script {
        fn quantum(&self) -> Cycle {
            self.quantum
        }
        fn boundary(&mut self, now: Cycle, lanes: &mut [Lane]) -> bool {
            for lane in lanes.iter_mut() {
                self.completions.append(&mut lane.done);
            }
            while self.next < self.arrivals.len() && self.arrivals[self.next].0 <= now {
                let (_, insts) = self.arrivals[self.next];
                lanes[self.rr % lanes.len()].queue.push_back(Request {
                    id: self.next as u64,
                    insts,
                });
                self.rr += 1;
                self.next += 1;
            }
            let drained = self.next == self.arrivals.len()
                && lanes.iter().all(|l| !l.busy() && l.queue.is_empty());
            !drained
        }
    }

    fn kernels(n: usize, seed: u64) -> Vec<ServerKernel> {
        (0..n)
            .map(|slot| ServerKernel::by_name("oltp", Scale::Smoke, seed + slot as u64, slot).unwrap())
            .collect()
    }

    fn run_script(model: CoreModel, threads: usize, fast_forward: bool) -> (CmpResult, Vec<(u64, Cycle)>) {
        let ks = kernels(3, 7);
        let programs: Vec<&sst_isa::Program> = ks.iter().map(|k| &k.workload.program).collect();
        let mut sys = CmpSystem::from_programs(model, &programs, &MemConfig::default())
            .with_threads(threads);
        if !fast_forward {
            sys = sys.without_fast_forward();
        }
        let mut src = Script {
            arrivals: (0..24).map(|i| (i * 700, 200 + (i % 3) * 50)).collect(),
            next: 0,
            rr: 0,
            completions: Vec::new(),
            quantum: 256,
        };
        let r = sys.run_service(&mut src, 50_000_000);
        (r, src.completions)
    }

    #[test]
    fn serves_all_requests_and_stops() {
        let (r, completions) = run_script(CoreModel::InOrder, 1, true);
        assert_eq!(completions.len(), 24);
        assert!(r.cycles > 0 && r.cycles % 256 == 0);
        // Every core ends on the final chip clock.
        for &(c, _) in &r.per_core {
            assert_eq!(c, r.cycles);
        }
        // Completions are at or after each request's arrival.
        for &(id, cyc) in &completions {
            assert!(cyc >= (id * 700), "req {id} done at {cyc}");
        }
    }

    #[test]
    fn parallel_and_fast_forward_are_transparent() {
        let base = run_script(CoreModel::InOrder, 1, true);
        for (threads, ff) in [(1, false), (2, true), (3, true), (2, false)] {
            let other = run_script(CoreModel::InOrder, threads, ff);
            assert_eq!(base.0, other.0, "threads={threads} ff={ff}");
            assert_eq!(base.1, other.1, "threads={threads} ff={ff}");
        }
    }

    /// The same on speculative cores, which sleep on DRAM mid-request and
    /// so leave and rejoin the tick loop on schedules of their own between
    /// the quantum boundaries that gate them.
    #[test]
    fn sleeping_sst_cores_serve_identically_however_driven() {
        let base = run_script(CoreModel::Sst, 1, true);
        assert_eq!(base.1.len(), 24);
        for ff in [true, false] {
            for threads in [1, 2, 8] {
                let other = run_script(CoreModel::Sst, threads, ff);
                assert_eq!(base, other, "threads={threads} ff={ff}");
            }
        }
    }
}
