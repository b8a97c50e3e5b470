//! The open-loop traffic generator: a [`WorkSource`] that admits a
//! pre-sampled Poisson arrival trace through a bounded admission queue,
//! dispatches to the least-loaded per-core lane, and records every
//! request's arrival, placement, and completion.

use std::collections::VecDeque;

use sst_mem::{Cycle, MemConfig, MemStats};
use sst_prng::splitmix64;
use sst_sim::{CmpSystem, CoreModel, Lane, Request, WorkSource};
use sst_workloads::{Scale, ServerKernel};

use crate::arrival::arrival_cycles;
use crate::hist::LatencyHistogram;

/// Histogram sub-bucket precision bits (~3% relative error).
const HIST_PRECISION: u32 = 5;
/// Histogram range: latencies beyond 2^34 cycles saturate.
const HIST_MAX: u64 = 1 << 34;

/// Dispatch policy for moving admitted requests onto core lanes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Lowest queued+running count wins, ties to the lowest core id.
    LeastLoaded,
}

/// Everything that defines one traffic point. `Debug` is the harness
/// cache identity: every field lands in the cache key, so any sweep
/// parameter change re-simulates.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Core model under test.
    pub model: CoreModel,
    /// Server-kernel name ("oltp", "erp", "web").
    pub workload: String,
    /// Chip width (one server kernel per core).
    pub cores: usize,
    /// Offered load in permille of nominal chip capacity, where nominal
    /// is 1 instruction per core-cycle (IPC 1.0 per core).
    pub load_permille: u32,
    /// Transactions bundled into one request.
    pub txns_per_request: u64,
    /// Total requests offered (the trace length).
    pub requests: u64,
    /// Leading requests excluded from the latency histogram (cold caches).
    pub warmup: u64,
    /// Admission-queue bound; arrivals beyond it are shed.
    pub admission_cap: usize,
    /// Per-core lane bound (queued + running) for dispatch eligibility.
    pub lane_cap: usize,
    /// Dispatch quantum in cycles (global decisions happen only here).
    pub quantum: u64,
    /// Dispatch policy.
    pub policy: Policy,
}

impl TrafficSpec {
    /// Mean inter-arrival time in cycles for this spec's offered load:
    /// at `load_permille = 1000` the chip receives work at exactly its
    /// nominal capacity of `cores` instructions per cycle.
    pub fn mean_interarrival(&self) -> u64 {
        let k = self.request_insts();
        (k * 1000 / (self.load_permille as u64 * self.cores as u64)).max(1)
    }

    /// Instructions per request (transaction size x bundle count).
    pub fn request_insts(&self) -> u64 {
        let txn = ServerKernel::txn_insts_of(&self.workload)
            .unwrap_or_else(|| panic!("{}: not a server workload", self.workload));
        txn * self.txns_per_request
    }
}

/// One request's lifecycle, in arrival order. The `Vec<ReqRecord>` a run
/// produces *is* the request trace the determinism contract covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReqRecord {
    /// Arrival cycle (sampled, independent of simulation behaviour).
    pub arrival: Cycle,
    /// Core the request was dispatched to (`None` if shed).
    pub core: Option<u32>,
    /// Completion cycle (`None` if shed).
    pub completion: Option<Cycle>,
    /// `true` when the admission queue was full at arrival.
    pub shed: bool,
}

/// Aggregate outcome of one traffic point (what the harness caches).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficResult {
    /// Core model label.
    pub model: String,
    /// Server-kernel name.
    pub workload: String,
    /// Chip width.
    pub cores: usize,
    /// Offered load in permille of nominal capacity.
    pub load_permille: u32,
    /// Mean inter-arrival time the load mapped to (cycles).
    pub mean_interarrival: u64,
    /// Makespan: the boundary cycle at which the source declared done.
    pub cycles: Cycle,
    /// Requests offered (trace length).
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Arrival-to-completion latency histogram (post-warm-up requests).
    pub hist: LatencyHistogram,
    /// Final per-core `(cycle, retired)`.
    pub per_core: Vec<(Cycle, u64)>,
    /// Shared-memory statistics.
    pub mem: MemStats,
}

sst_isa::snap_record!(TrafficResult {
    model,
    workload,
    cores,
    load_permille,
    mean_interarrival,
    cycles,
    offered,
    completed,
    shed,
    hist,
    per_core,
    mem,
});

impl TrafficResult {
    /// Delivered throughput in permille of nominal chip capacity
    /// (completed work over elapsed core-cycles), for knee detection
    /// against `load_permille`.
    pub fn delivered_permille(&self, request_insts: u64) -> u64 {
        if self.cycles == 0 {
            return 0;
        }
        (self.completed as u128 * request_insts as u128 * 1000
            / (self.cycles as u128 * self.cores as u128)) as u64
    }
}

/// A full run: the aggregate result plus the per-request trace (the
/// equivalence tests compare the trace byte-for-byte across `--threads`).
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficRun {
    /// Aggregate tables input.
    pub result: TrafficResult,
    /// Per-request lifecycle, arrival order.
    pub records: Vec<ReqRecord>,
}

/// The open-loop generator driving [`CmpSystem::run_service`].
struct TrafficSource {
    arrivals: Vec<Cycle>,
    request_insts: u64,
    next_arrival: usize,
    admission: VecDeque<u64>,
    admission_cap: usize,
    lane_cap: usize,
    quantum: Cycle,
    records: Vec<ReqRecord>,
}

impl TrafficSource {
    fn new(spec: &TrafficSpec, arrivals: Vec<Cycle>) -> TrafficSource {
        let records = arrivals
            .iter()
            .map(|&arrival| ReqRecord {
                arrival,
                core: None,
                completion: None,
                shed: false,
            })
            .collect();
        TrafficSource {
            arrivals,
            request_insts: spec.request_insts(),
            next_arrival: 0,
            admission: VecDeque::new(),
            admission_cap: spec.admission_cap,
            lane_cap: spec.lane_cap,
            quantum: spec.quantum,
            records,
        }
    }

    /// The least-loaded lane with headroom ([`Policy::LeastLoaded`]), or
    /// `None` when every lane is full.
    fn pick_lane(&self, lanes: &[Lane]) -> Option<usize> {
        lanes
            .iter()
            .enumerate()
            .filter(|(_, l)| l.load() < self.lane_cap)
            .min_by_key(|(i, l)| (l.load(), *i))
            .map(|(i, _)| i)
    }
}

impl WorkSource for TrafficSource {
    fn quantum(&self) -> Cycle {
        self.quantum
    }

    fn boundary(&mut self, now: Cycle, lanes: &mut [Lane]) -> bool {
        // 1. Harvest completions since the last boundary.
        for lane in lanes.iter_mut() {
            for (id, cycle) in lane.done.drain(..) {
                self.records[id as usize].completion = Some(cycle);
            }
        }
        // 2. Admit (or shed) everything that has arrived by `now`. Open
        //    loop: arrivals never wait for the system, only for the queue
        //    bound.
        while self.next_arrival < self.arrivals.len() && self.arrivals[self.next_arrival] <= now {
            let id = self.next_arrival as u64;
            if self.admission.len() < self.admission_cap {
                self.admission.push_back(id);
            } else {
                self.records[self.next_arrival].shed = true;
            }
            self.next_arrival += 1;
        }
        // 3. Dispatch to lanes with headroom.
        while let Some(&id) = self.admission.front() {
            let Some(lane) = self.pick_lane(lanes) else {
                break;
            };
            self.admission.pop_front();
            self.records[id as usize].core = Some(lane as u32);
            lanes[lane].queue.push_back(Request {
                id,
                insts: self.request_insts,
            });
        }
        // 4. Keep running until the trace is exhausted and drained.
        let drained = self.next_arrival == self.arrivals.len()
            && self.admission.is_empty()
            && lanes.iter().all(|l| !l.busy() && l.queue.is_empty());
        !drained
    }
}

/// Per-core seed derivation: distinct data images per slot, decoupled
/// from the arrival stream (same recipe as the CMP mix driver).
fn core_seed(seed: u64, id: usize) -> u64 {
    let mut s = seed.wrapping_add((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut s)
}

/// The arrival-stream seed, decoupled from workload-data seeds.
fn arrival_seed(seed: u64) -> u64 {
    let mut s = seed ^ 0x5452_4146_4649_4331; // "TRAFFIC1"
    splitmix64(&mut s)
}

/// Runs one traffic point and returns both the aggregate result and the
/// per-request trace. Deterministic in `(spec, scale, seed)`: `threads`
/// only changes wall-clock, never a byte of the outcome.
pub fn run_traffic_full(
    spec: &TrafficSpec,
    scale: Scale,
    seed: u64,
    threads: usize,
    max_cycles: Cycle,
) -> TrafficRun {
    assert!(spec.cores > 0 && spec.load_permille > 0, "degenerate spec");
    assert!(
        spec.admission_cap > 0 && spec.lane_cap > 0,
        "degenerate caps"
    );
    let kernels: Vec<ServerKernel> = (0..spec.cores)
        .map(|slot| {
            ServerKernel::by_name(&spec.workload, scale, core_seed(seed, slot), slot)
                .unwrap_or_else(|| panic!("{}: not a server workload", spec.workload))
        })
        .collect();
    let programs: Vec<&sst_isa::Program> = kernels.iter().map(|k| &k.workload.program).collect();
    let sys = CmpSystem::from_programs(spec.model.clone(), &programs, &MemConfig::default())
        .with_threads(threads);

    let arrivals = arrival_cycles(arrival_seed(seed), spec.mean_interarrival(), spec.requests);
    let mut source = TrafficSource::new(spec, arrivals);
    let sim = sys.run_service(&mut source, max_cycles);

    let records = source.records;
    let mut hist = LatencyHistogram::new(HIST_PRECISION, HIST_MAX);
    let mut completed = 0u64;
    let mut shed = 0u64;
    for (i, r) in records.iter().enumerate() {
        if r.shed {
            shed += 1;
        }
        if let Some(c) = r.completion {
            completed += 1;
            if (i as u64) >= spec.warmup {
                hist.record(c - r.arrival);
            }
        }
    }
    let result = TrafficResult {
        model: sim.model,
        workload: spec.workload.clone(),
        cores: spec.cores,
        load_permille: spec.load_permille,
        mean_interarrival: spec.mean_interarrival(),
        cycles: sim.cycles,
        offered: spec.requests,
        completed,
        shed,
        hist,
        per_core: sim.per_core,
        mem: sim.mem,
    };
    TrafficRun { result, records }
}

/// [`run_traffic_full`] without the trace — what harness jobs call.
pub fn run_traffic(
    spec: &TrafficSpec,
    scale: Scale,
    seed: u64,
    threads: usize,
    max_cycles: Cycle,
) -> TrafficResult {
    run_traffic_full(spec, scale, seed, threads, max_cycles).result
}
