//! Every workload and metric the benchmark reports, by name.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! (`--print-spec`), and a test holds the committed file to them.

use crate::json::Json;

/// Seed used when none is given; the committed baseline was taken with it.
pub const DEFAULT_SEED: u64 = 12345;
/// How long one run measures.
pub const RUN_SECONDS: u64 = 12;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "core_compute",
        why: "5 core models x {gzip, matmul}, full scale: high-IPC, cache-resident; fetch, decode, issue and branch prediction do the work, so a replay or memory-path change must show no change here",
    },
    WorkloadInfo {
        name: "core_missheavy",
        why: "5 core models x 8 miss-heavy workloads (oltp, erp, web, mcf, gcc, gups, chase, mlp8; smoke footprint): deferral, replay, rollback, the miss path and idle-cycle skipping dominate",
    },
    WorkloadInfo {
        name: "cmp16",
        why: "16-core SST chip on erp (smoke footprint), serial driver: the MemBus / shared-L2 / CMP-driver path that single-core runs never touch",
    },
    WorkloadInfo {
        name: "sampled_oltp",
        why: "SMARTS-sampled 40M-instruction oltp: bound by functional warming, which uses isa/mem/branch differently from detailed runs; carries the sampled-vs-detailed CPI check",
    },
    WorkloadInfo {
        name: "traffic_oltp",
        why: "open-loop (in simulated time) oltp service on 8 SST cores, 1200 requests, below the knee and in overload (smoke-footprint kernels): service driver, arrival generation, histogram, per-call kernel build",
    },
    WorkloadInfo {
        name: "study_e4",
        why: "what a user types (sst-run e4, smoke scale, cold results dir, 48 jobs): scheduler, per-job workload rebuild, cache put/claim, fold and CSV/JSON emit on top of the simulation",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the simulator sees, per workload: how fast it simulates,
/// how long it takes to get ready, and how much memory it needs.
///
/// The time bounds are the largest the contract allows. Sizing runs on the
/// shared 2-vCPU VM this was written on showed the same binary and seed
/// moving by 10-20% between processes for minutes at a time (memory-system
/// contention from neighbours; a pure-ALU loop stayed within 1%), so a
/// tighter bound would reject unchanged code. `--compare` reports
/// `unresolved` whenever the parent's own spread exceeds the bound.
pub const END_TO_END: &[EndToEnd] = &[
    // Committed simulated instructions per host second of the timed unit
    // (median over the run's repeats). Host seconds of one unit are this
    // number's reciprocal at a stated input size; instructions per second
    // stays comparable when the seed changes the instruction count.
    EndToEnd {
        name: "sim_minst_per_s",
        unit: "Minst/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Host seconds building the unit's inputs; rebuilt before every repeat.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // VmHWM of the workload's process.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Where a per-layer value comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// A layer rung: the same measurement in every traced run.
    Rung,
    /// Measured on the traced workload's own calls; 0 when the workload
    /// does not exercise that layer, model or load point.
    Workload,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn rung(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Rung,
    }
}

const fn of_workload(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source: Source::Workload,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics; the prefix up to the first dot (two for
/// `core.<config>` and `ooo.<config>`) is the crate directory. Which
/// end-to-end number each should move is tabulated in the README.
pub const PER_LAYER: &[PerLayer] = &[
    // workloads
    rung("workloads.build_ms.full12", "ms", Lower),
    rung("workloads.server_kernel_build_ms", "ms", Lower),
    rung("workloads.image_mb", "MB", Lower),
    // isa
    rung("isa.interp.run_minst_per_s", "Minst/s", Higher),
    rung("isa.interp.run_traced_minst_per_s", "Minst/s", Higher),
    rung("isa.interp.step_minst_per_s", "Minst/s", Higher),
    rung("isa.sparse_mem.clone_ms", "ms", Lower),
    rung("isa.snap.bytes", "bytes", Lower),
    rung("isa.snap.encode_mb_per_s", "MB/s", Higher),
    rung("isa.snap.decode_mb_per_s", "MB/s", Higher),
    // mem
    rung("mem.access.l1_hit_mops", "Mops/s", Higher),
    rung("mem.access.l2_hit_mops", "Mops/s", Higher),
    rung("mem.access.dram_mops", "Mops/s", Higher),
    rung("mem.warm_touch_mops", "Mops/s", Higher),
    of_workload("mem.parallel.speedup_t2", "ratio", Higher),
    of_workload("mem.l1d_misses", "count", Lower),
    of_workload("mem.l2_misses", "count", Lower),
    of_workload("mem.dram_reads", "count", Lower),
    // branch
    rung("branch.unit.predict_update_mops", "Mops/s", Higher),
    of_workload("branch.cond_mispredict_ppm", "ppm", Lower),
    // uarch
    rung("uarch.frontend.fetch_minst_per_s", "Minst/s", Higher),
    rung("uarch.dq.push_remove_mops", "Mops/s", Higher),
    rung("uarch.dq.squash_mops", "Mops/s", Higher),
    rung("uarch.stb.push_forward_drain_mops", "Mops/s", Higher),
    rung("uarch.stb.squash_mops", "Mops/s", Higher),
    // inorder / core / ooo: throughput inside the traced workload ...
    of_workload("inorder.minst_per_s", "Minst/s", Higher),
    of_workload("core.scout.minst_per_s", "Minst/s", Higher),
    of_workload("core.ea.minst_per_s", "Minst/s", Higher),
    of_workload("core.sst.minst_per_s", "Minst/s", Higher),
    of_workload("ooo.o128.minst_per_s", "Minst/s", Higher),
    // ... the hand-driven tick loop ...
    rung("inorder.ns_per_tick.oltp", "ns", Lower),
    rung("inorder.ticks_executed.oltp", "count", Lower),
    rung("inorder.cycles_skipped.oltp", "count", Higher),
    rung("inorder.ns_per_tick.gzip", "ns", Lower),
    rung("inorder.ticks_executed.gzip", "count", Lower),
    rung("inorder.cycles_skipped.gzip", "count", Higher),
    rung("core.sst.ns_per_tick.oltp", "ns", Lower),
    rung("core.sst.ticks_executed.oltp", "count", Lower),
    rung("core.sst.cycles_skipped.oltp", "count", Higher),
    rung("core.sst.ns_per_tick.gzip", "ns", Lower),
    rung("core.sst.ticks_executed.gzip", "count", Lower),
    rung("core.sst.cycles_skipped.gzip", "count", Higher),
    rung("ooo.o128.ns_per_tick.oltp", "ns", Lower),
    rung("ooo.o128.ticks_executed.oltp", "count", Lower),
    rung("ooo.o128.cycles_skipped.oltp", "count", Higher),
    rung("ooo.o128.ns_per_tick.gzip", "ns", Lower),
    rung("ooo.o128.ticks_executed.gzip", "count", Lower),
    rung("ooo.o128.cycles_skipped.gzip", "count", Higher),
    // ... the simulator's own stage profile, and wasted speculative work.
    rung("core.sst.host_share.fetch.oltp", "ratio", Lower),
    rung("core.sst.host_share.issue.oltp", "ratio", Lower),
    rung("core.sst.host_share.replay.oltp", "ratio", Lower),
    rung("core.sst.host_share.mem.oltp", "ratio", Lower),
    rung("core.sst.host_share.fetch.gzip", "ratio", Lower),
    rung("core.sst.host_share.issue.gzip", "ratio", Lower),
    rung("core.sst.host_share.replay.gzip", "ratio", Lower),
    rung("core.sst.host_share.mem.gzip", "ratio", Lower),
    of_workload("core.sst.deferred_per_kinst", "1/kinst", Lower),
    of_workload("core.sst.replayed_per_kinst", "1/kinst", Lower),
    of_workload("core.sst.redeferred_per_kinst", "1/kinst", Lower),
    of_workload("core.sst.fail_branch_per_kinst", "1/kinst", Lower),
    // sim
    rung("sim.system.ff_speedup.inorder.oltp", "ratio", Higher),
    rung("sim.system.ff_speedup.sst.oltp", "ratio", Higher),
    rung("sim.cosim.overhead_ratio", "ratio", Lower),
    of_workload("sim.cmp.tax_ratio", "ratio", Lower),
    of_workload("sim.sampling.functional_insts", "count", Lower),
    of_workload("sim.sampling.detailed_insts", "count", Lower),
    of_workload("sim.sampling.intervals", "count", Higher),
    of_workload("sim.sampling.cpi_err_pct", "%", Lower),
    of_workload("sim.sampling.warm_bound_ratio", "ratio", Lower),
    of_workload("sim.service.minst_per_s.sst_l100", "Minst/s", Higher),
    of_workload("sim.service.minst_per_s.sst_l350", "Minst/s", Higher),
    of_workload("sim.cycles", "cycles", Lower),
    of_workload("sim.insts", "count", Lower),
    of_workload("sim.drift", "count", Lower),
    of_workload("sim.headline_pct", "%", Higher),
    // traffic
    rung("traffic.arrival.gen_mops", "Mops/s", Higher),
    rung("traffic.hist.record_mops", "Mops/s", Higher),
    rung("traffic.hist.merge_us", "us", Lower),
    of_workload("traffic.p99_cycles.sst_l100", "cycles", Lower),
    of_workload("traffic.shed.sst_l350", "count", Lower),
    // harness
    rung("harness.cache.store_us", "us", Lower),
    rung("harness.cache.load_us", "us", Lower),
    rung("harness.cache.claim_us", "us", Lower),
    rung("harness.json.render_mb_per_s", "MB/s", Higher),
    of_workload("harness.sched.cached_pass_ms", "ms", Lower),
    of_workload("harness.sched.overhead_ms", "ms", Lower),
    of_workload("harness.sched.jobs2_speedup", "ratio", Higher),
    of_workload("harness.failed_jobs", "count", Lower),
    // obs
    rung("obs.trace.overhead_ratio", "ratio", Lower),
    rung("obs.trace.events", "count", Lower),
    rung("obs.prof.overhead_ratio", "ratio", Lower),
    // the benchmark itself
    of_workload("bench.trace_overhead_ratio", "ratio", Lower),
    of_workload("bench.span_coverage", "ratio", Higher),
    of_workload("bench.spans", "count", Lower),
    of_workload("bench.ops_failed_share", "ratio", Lower),
    of_workload("bench.self_ms.workloads", "ms", Lower),
    of_workload("bench.self_ms.sim", "ms", Lower),
    of_workload("bench.self_ms.traffic", "ms", Lower),
    of_workload("bench.self_ms.harness", "ms", Lower),
];

pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(seen.insert(name), "{name} is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn setup_s_is_present_and_has_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_is_rendered_from_these_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(
            Json::parse(committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with: benchmark/run.sh --print-spec > BENCHMARK.json"
        );
    }
}
