//! Per-layer rungs: one small measurement per layer, the same in every
//! traced run whatever the end-to-end workload.
//!
//! Each rung calls a layer's public functions directly with a fixed amount
//! of work sized to run for about 100 ms, and reports a rate, a time or an
//! exact count. A rung exists so that a change in an end-to-end number can
//! be attributed to one layer; which end-to-end number each should move is
//! tabulated in [`crate::registry::PER_LAYER`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sst_branch::{BranchKind, BranchUnit};
use sst_harness::json::JVal;
use sst_harness::{cache, Env, JobOutput, JobSpec};
use sst_isa::{Inst, Interp, Reg, INST_BYTES};
use sst_mem::{AccessKind, MemConfig, MemSystem};
use sst_obs::Stage;
use sst_sim::{CoreModel, RunResult, System};
use sst_traffic::{arrival_cycles, LatencyHistogram};
use sst_uarch::{DeferredQueue, DqEntry, Frontend, FrontendConfig, StoreBuffer, StoreEntry};
use sst_workloads::{oltp_sized, Scale, Workload};

use crate::driver::Ops;
use crate::ladders::{build_server_kernels, MAX_CYCLES};
use crate::span::Tracer;
use crate::stats::median;

pub type Metrics = BTreeMap<String, f64>;

/// Shared rung parameters.
pub struct Rungs<'a> {
    pub seed: u64,
    /// `Full` normally; `Smoke` under `--quick`.
    pub scale: Scale,
    /// Divides every iteration count (1 normally, 10 under `--quick`).
    pub shrink: u64,
    /// Scratch directory inside the checkout, for the cache rung.
    pub scratch: &'a Path,
}

impl Rungs<'_> {
    /// Runs every rung, in layer order.
    pub fn run_all(&self, tr: &mut Tracer, ops: &mut Ops) -> Metrics {
        let mut m = Metrics::new();
        let root = tr.enter("bench", || "rungs".into());
        self.workloads(tr, &mut m);
        self.isa(tr, &mut m);
        self.mem(tr, &mut m);
        self.branch(tr, &mut m);
        self.uarch(tr, &mut m);
        let gzip_result = self.cores_and_sim(tr, ops, &mut m);
        self.traffic(tr, &mut m);
        self.harness(tr, ops, &mut m, gzip_result);
        tr.exit(root);
        m
    }

    fn n(&self, iterations: u64) -> u64 {
        (iterations / self.shrink).max(1)
    }

    // -- workloads ------------------------------------------------------

    fn workloads(&self, tr: &mut Tracer, m: &mut Metrics) {
        let s = tr.enter("workloads", || "Workload::suite[all 12]".into());
        let t = Instant::now();
        let suite = Workload::suite(Workload::all_names(), self.scale, self.seed);
        m.insert("workloads.build_ms.full12".into(), ms(t));
        tr.exit(s);
        let bytes: u64 = suite.iter().map(|w| w.program.image_bytes()).sum();
        m.insert("workloads.image_mb".into(), bytes as f64 / (1 << 20) as f64);
        drop(suite);

        let s = tr.enter("workloads", || "ServerKernel::by_name[oltp x8]".into());
        let t = Instant::now();
        build_server_kernels(self.scale, self.seed, 8);
        m.insert("workloads.server_kernel_build_ms".into(), ms(t));
        tr.exit(s);
    }

    // -- isa ------------------------------------------------------------

    fn isa(&self, tr: &mut Tracer, m: &mut Metrics) {
        // ~63.5 instructions per transaction.
        let long = oltp_sized(Scale::Smoke, self.seed, 0, self.n(320_000) as i64);

        let s = tr.enter("isa", || "Interp::run".into());
        let mut interp = Interp::new(&long.program);
        let t = Instant::now();
        let steps = interp.run(u64::MAX).map_or(0, |o| o.steps);
        m.insert("isa.interp.run_minst_per_s".into(), per_us(steps, t));
        tr.exit(s);

        let s = tr.enter("isa", || "Interp::run_traced[no-op sink]".into());
        let mut interp = Interp::new(&long.program);
        let t = Instant::now();
        let steps = interp
            .run_traced(u64::MAX, |ev| {
                black_box(ev);
            })
            .map_or(0, |o| o.steps);
        m.insert("isa.interp.run_traced_minst_per_s".into(), per_us(steps, t));
        tr.exit(s);

        let s = tr.enter("isa", || "Interp::step".into());
        let mut interp = Interp::new(&long.program);
        let steps = self.n(6_000_000);
        let t = Instant::now();
        for _ in 0..steps {
            black_box(interp.step().expect("oltp does not trap"));
        }
        m.insert("isa.interp.step_minst_per_s".into(), per_us(steps, t));
        tr.exit(s);

        // The image sampling clones at every detailed interval.
        let oltp = Workload::by_name("oltp", self.scale, self.seed).expect("known workload");
        let image = Interp::new(&oltp.program);
        let s = tr.enter("isa", || "SparseMem::clone[oltp image]".into());
        let clones: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(image.mem().clone());
                ms(t)
            })
            .collect();
        m.insert("isa.sparse_mem.clone_ms".into(), median(&clones));
        tr.exit(s);

        // Snapshot codec, through the only public way in: a whole-system
        // snapshot of sst/oltp 100k instructions into the run.
        let mut sys = System::new(CoreModel::Sst, &oltp).without_cosim();
        sys.run_insts(self.n(100_000), MAX_CYCLES)
            .expect("sst/oltp runs");
        let s = tr.enter("isa", || "System::snapshot[sst/oltp]".into());
        let mut snap = None;
        let encode: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                snap = Some(sys.snapshot().expect("stock models snapshot"));
                t.elapsed().as_secs_f64()
            })
            .collect();
        tr.exit(s);
        let snap = snap.expect("three snapshots were taken");
        let mb = snap.len() as f64 / 1e6;
        m.insert("isa.snap.bytes".into(), snap.len() as f64);
        m.insert("isa.snap.encode_mb_per_s".into(), mb / median(&encode));
        let s = tr.enter("isa", || "System::resume[sst/oltp]".into());
        let decode: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(
                    System::resume(CoreModel::Sst, &oltp, &snap).expect("own snapshot resumes"),
                );
                t.elapsed().as_secs_f64()
            })
            .collect();
        tr.exit(s);
        m.insert("isa.snap.decode_mb_per_s".into(), mb / median(&decode));
    }

    // -- mem ------------------------------------------------------------

    fn mem(&self, tr: &mut Tracer, m: &mut Metrics) {
        let cfg = MemConfig::default();
        let line = cfg.l1d.line_bytes;
        // Footprints sized from the configuration: half the L1D always
        // hits it; half the L2 walked cyclically always misses the L1D and
        // hits the L2; four L2s walked cyclically always go to DRAM.
        let cases = [
            (
                "mem.access.l1_hit_mops",
                cfg.l1d.size_bytes / 2,
                self.n(6_000_000),
            ),
            (
                "mem.access.l2_hit_mops",
                cfg.l2.size_bytes / 2,
                self.n(3_000_000),
            ),
            (
                "mem.access.dram_mops",
                cfg.l2.size_bytes * 4,
                self.n(1_500_000),
            ),
        ];
        for (name, footprint, accesses) in cases {
            let mut ms_ = MemSystem::new(&cfg, 1);
            let lines = footprint / line;
            let mut now = 0;
            for i in 0..lines {
                now = ms_
                    .access(now, 0, AccessKind::Load, 0x1000_0000 + i * line)
                    .ready_at;
            }
            let s = tr.enter("mem", || format!("MemSystem::access[{name}]"));
            let t = Instant::now();
            for i in 0..accesses {
                // Dependent accesses: each issues when the last one returns.
                now = ms_
                    .access(now, 0, AccessKind::Load, 0x1000_0000 + (i % lines) * line)
                    .ready_at;
            }
            m.insert(name.into(), per_us(accesses, t));
            tr.exit(s);
            black_box(now);
        }

        let mut ms_ = MemSystem::new(&cfg, 1);
        let lines = cfg.l2.size_bytes / line;
        let touches = self.n(6_000_000);
        let s = tr.enter("mem", || "MemSystem::warm_touch".into());
        let t = Instant::now();
        for i in 0..touches {
            ms_.warm_touch(0, AccessKind::Load, 0x1000_0000 + (i * 7 % lines) * line);
        }
        m.insert("mem.warm_touch_mops".into(), per_us(touches, t));
        tr.exit(s);
    }

    // -- branch ---------------------------------------------------------

    fn branch(&self, tr: &mut Tracer, m: &mut Metrics) {
        let cfg = FrontendConfig::default();
        let mut unit = BranchUnit::new(cfg.predictor, cfg.btb_entries, cfg.ras_depth);
        let pairs = self.n(6_000_000);
        let mut lcg = self.seed | 1;
        let s = tr.enter("branch", || "BranchUnit::predict + update".into());
        let t = Instant::now();
        for i in 0..pairs {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pc = 0x4000 + (i % 512) * INST_BYTES;
            // Three branches in four follow a per-PC bias; the rest are noise.
            let taken = if lcg >> 62 == 0 {
                lcg >> 33 & 1 == 1
            } else {
                pc & 8 == 0
            };
            let p = unit.predict(pc, BranchKind::Conditional);
            black_box(p);
            unit.update(pc, BranchKind::Conditional, taken, pc + 64);
        }
        m.insert("branch.unit.predict_update_mops".into(), per_us(pairs, t));
        tr.exit(s);
    }

    // -- uarch ----------------------------------------------------------

    fn uarch(&self, tr: &mut Tracer, m: &mut Metrics) {
        self.frontend(tr, m);

        let dq_cap = 128u64; // SstConfig's default DQ
        let entry = |seq: u64| DqEntry {
            seq,
            pc: 0x4000 + seq * INST_BYTES,
            inst: Inst::AluImm {
                op: sst_isa::AluOp::Add,
                rd: Reg::x(5),
                rs1: Reg::x(6),
                imm: 1,
            },
            captured: [Some(seq), None],
            producers: [None, Some(seq.saturating_sub(1))],
            predicted_taken: None,
            pred_next_pc: None,
            data_ready_at: (seq % 4 == 0).then_some(seq + 300),
        };
        let rounds = self.n(24_000);
        let mut dq = DeferredQueue::new(dq_cap as usize);
        let mut seq = 1;
        let s = tr.enter("uarch", || "DeferredQueue::push + remove_seq".into());
        let t = Instant::now();
        for _ in 0..rounds {
            let first = seq;
            for _ in 0..dq_cap {
                dq.push(entry(seq));
                seq += 1;
            }
            for done in first..seq {
                black_box(dq.remove_seq(done));
            }
        }
        m.insert(
            "uarch.dq.push_remove_mops".into(),
            per_us(rounds * dq_cap * 2, t),
        );
        tr.exit(s);

        let s = tr.enter("uarch", || "DeferredQueue::squash_from".into());
        let t = Instant::now();
        for _ in 0..rounds {
            let first = seq;
            for _ in 0..dq_cap {
                dq.push(entry(seq));
                seq += 1;
            }
            // A failed-speculation rollback: the younger three quarters
            // go, then the rest at the epoch's end.
            dq.squash_from(first + dq_cap / 4);
            dq.squash_from(first);
        }
        m.insert("uarch.dq.squash_mops".into(), per_us(rounds * dq_cap, t));
        tr.exit(s);

        let stb_cap = 64u64; // SstConfig's default store buffer
        let store = |seq: u64| StoreEntry {
            seq,
            addr: Some(0x8000 + seq % 48 * 8),
            bytes: 8,
            value: Some(seq),
        };
        let rounds = self.n(40_000);
        let mut stb = StoreBuffer::new(stb_cap as usize);
        let mut drained = Vec::new();
        let s = tr.enter("uarch", || "StoreBuffer::push + forward + drain".into());
        let t = Instant::now();
        for _ in 0..rounds {
            for _ in 0..stb_cap {
                stb.push(store(seq));
                // A younger load, hitting a buffered store half the time.
                black_box(stb.forward(seq + 1, 0x8000 + seq % 96 * 8, 8));
                seq += 2;
            }
            stb.drain_through_into(seq, &mut drained);
            drained.clear();
        }
        m.insert(
            "uarch.stb.push_forward_drain_mops".into(),
            per_us(rounds * stb_cap * 3, t),
        );
        tr.exit(s);

        let s = tr.enter("uarch", || "StoreBuffer::squash_from".into());
        let t = Instant::now();
        for _ in 0..rounds {
            let first = seq;
            for _ in 0..stb_cap {
                stb.push(store(seq));
                seq += 1;
            }
            stb.squash_from(first + stb_cap / 4);
            stb.squash_from(first);
        }
        m.insert("uarch.stb.squash_mops".into(), per_us(rounds * stb_cap, t));
        tr.exit(s);
    }

    /// Fetch, decode and predict over a loop kernel (gzip), resolving every
    /// control transfer against a pre-recorded functional trace the way a
    /// core would: train the predictor, redirect on a wrong next PC.
    fn frontend(&self, tr: &mut Tracer, m: &mut Metrics) {
        let gzip = Workload::by_name("gzip", self.scale, self.seed).expect("known workload");
        let mut oracle = Interp::new(&gzip.program);
        let mut next_pcs = Vec::new();
        oracle
            .run_traced(self.n(800_000), |ev| next_pcs.push(ev.next_pc))
            .expect("gzip does not trap");

        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        gzip.program.load_into(mem.mem_mut());
        let mut fe = Frontend::new(FrontendConfig::default(), &gzip.program);
        let (mut now, mut done) = (0u64, 0usize);
        let s = tr.enter("uarch", || {
            "Frontend::tick + pop + resolve + redirect".into()
        });
        let t = Instant::now();
        while done < next_pcs.len() {
            fe.tick(now, &mut mem.bus(0));
            while done < next_pcs.len() {
                let Some(f) = fe.pop() else { break };
                let next = next_pcs[done];
                done += 1;
                fe.resolve(f.pc, f.inst, next != f.pc + INST_BYTES, next);
                if f.pred_next_pc != next {
                    fe.redirect(now, next);
                    break;
                }
            }
            if fe.waiting_indirect() && fe.queued() == 0 && done < next_pcs.len() {
                let resume = if done == 0 {
                    gzip.program.entry
                } else {
                    next_pcs[done - 1]
                };
                fe.redirect(now, resume);
            }
            now += 1;
        }
        m.insert(
            "uarch.frontend.fetch_minst_per_s".into(),
            per_us(done as u64, t),
        );
        tr.exit(s);
    }

    // -- core / inorder / ooo / sim / obs --------------------------------

    /// Three models on a miss-heavy (oltp) and a compute (gzip) workload:
    /// the plain `System` run, the same loop driven by hand (which exposes
    /// ticks executed against cycles skipped), and for SST the profiled,
    /// traced, co-simulated and unskipped variants. Returns one result for
    /// the harness cache rung to store.
    fn cores_and_sim(&self, tr: &mut Tracer, ops: &mut Ops, m: &mut Metrics) -> Option<RunResult> {
        let mut keep = None;
        for wname in ["oltp", "gzip"] {
            let w = Workload::by_name(wname, self.scale, self.seed).expect("known workload");
            for (model, key) in [
                (CoreModel::InOrder, "inorder"),
                (CoreModel::Sst, "core.sst"),
                (CoreModel::Ooo128, "ooo.o128"),
            ] {
                let label = model.label();
                // The plain run is the base of every ratio below: take the
                // faster of two, so that a cold first run does not flatter
                // the variants.
                let s = tr.enter("sim", || format!("System::run_checked[{label}/{wname}] x2"));
                let mut plain_s = f64::INFINITY;
                let mut plain = None;
                for _ in 0..2 {
                    let t = Instant::now();
                    plain = System::new(model.clone(), &w)
                        .without_cosim()
                        .run_checked(MAX_CYCLES)
                        .ok();
                    plain_s = plain_s.min(t.elapsed().as_secs_f64());
                }
                tr.exit(s);
                let Some(plain) = plain else {
                    ops.check(false, || format!("rung {label}/{wname} failed"));
                    continue;
                };

                let s = tr.enter(crate_of(key), || {
                    format!("Core::tick loop[{label}/{wname}]")
                });
                let hand = hand_loop(&model, &w);
                tr.exit(s);
                ops.check(
                    (hand.cycles, hand.insts) == (plain.cycles, plain.insts),
                    || {
                        format!(
                            "{label}/{wname}: hand loop {}c/{}i, System {}c/{}i",
                            hand.cycles, hand.insts, plain.cycles, plain.insts
                        )
                    },
                );
                m.insert(
                    format!("{key}.ns_per_tick.{wname}"),
                    hand.seconds * 1e9 / hand.ticks.max(1) as f64,
                );
                m.insert(format!("{key}.ticks_executed.{wname}"), hand.ticks as f64);
                m.insert(format!("{key}.cycles_skipped.{wname}"), hand.skipped as f64);

                if wname == "oltp" && key != "ooo.o128" {
                    let s = tr.enter("sim", || {
                        format!("System::run_checked[{label}/{wname}, no fast-forward]")
                    });
                    let t = Instant::now();
                    let slow = System::new(model.clone(), &w)
                        .without_cosim()
                        .without_fast_forward()
                        .run_checked(MAX_CYCLES);
                    let slow_s = t.elapsed().as_secs_f64();
                    tr.exit(s);
                    ops.check(matches!(&slow, Ok(r) if *r == plain), || {
                        format!("{label}/{wname}: fast-forward changed the result")
                    });
                    let short = if key == "inorder" { "inorder" } else { "sst" };
                    m.insert(
                        format!("sim.system.ff_speedup.{short}.oltp"),
                        slow_s / plain_s,
                    );
                }
                if key == "core.sst" {
                    self.sst_variants(tr, ops, m, &w, &plain, plain_s);
                    if wname == "gzip" {
                        keep = Some(plain);
                    }
                }
            }
        }
        keep
    }

    fn sst_variants(
        &self,
        tr: &mut Tracer,
        ops: &mut Ops,
        m: &mut Metrics,
        w: &Workload,
        plain: &RunResult,
        plain_s: f64,
    ) {
        let wname = w.name;
        let sst = || System::new(CoreModel::Sst, w).without_cosim();

        let s = tr.enter("obs", || format!("System::run_with_profile[sst/{wname}]"));
        let t = Instant::now();
        let profiled = sst().with_host_prof().run_with_profile(MAX_CYCLES);
        let profiled_s = t.elapsed().as_secs_f64();
        tr.exit(s);
        match profiled {
            Ok((r, Some(times))) => {
                ops.check(&r == plain, || {
                    format!("sst/{wname}: profiling changed the result")
                });
                let total = times.total_ns().max(1) as f64;
                for (name, stage) in [
                    ("fetch", Stage::Fetch),
                    ("issue", Stage::Issue),
                    ("replay", Stage::Replay),
                    ("mem", Stage::MemTick),
                ] {
                    m.insert(
                        format!("core.sst.host_share.{name}.{wname}"),
                        times.get(stage) as f64 / total,
                    );
                }
            }
            _ => ops.check(false, || format!("sst/{wname}: profiled run failed")),
        }
        if wname != "oltp" {
            return;
        }
        m.insert("obs.prof.overhead_ratio".into(), profiled_s / plain_s);

        let s = tr.enter("obs", || "System::run_with_trace[sst/oltp]".into());
        let t = Instant::now();
        let traced = sst().with_tracing().run_with_trace(MAX_CYCLES);
        m.insert(
            "obs.trace.overhead_ratio".into(),
            t.elapsed().as_secs_f64() / plain_s,
        );
        tr.exit(s);
        match traced {
            Ok((r, trace)) => {
                ops.check(&r == plain, || {
                    "sst/oltp: tracing changed the result".into()
                });
                let events = trace.core.map_or(0, |b| b.len()) + trace.mem.map_or(0, |b| b.len());
                m.insert("obs.trace.events".into(), events as f64);
            }
            Err(e) => ops.check(false, || format!("sst/oltp traced: {}", e.what)),
        }

        let s = tr.enter("sim", || "System::run_checked[sst/oltp, cosim]".into());
        let t = Instant::now();
        let checked = System::new(CoreModel::Sst, w).run_checked(MAX_CYCLES);
        m.insert(
            "sim.cosim.overhead_ratio".into(),
            t.elapsed().as_secs_f64() / plain_s,
        );
        tr.exit(s);
        ops.check(matches!(&checked, Ok(r) if r == plain), || {
            "sst/oltp: co-simulation diverged".into()
        });
    }

    // -- traffic ----------------------------------------------------------

    fn traffic(&self, tr: &mut Tracer, m: &mut Metrics) {
        let count = self.n(3_000_000);
        let s = tr.enter("traffic", || "arrival_cycles".into());
        let t = Instant::now();
        let arrivals = arrival_cycles(self.seed, 4_000, count);
        m.insert("traffic.arrival.gen_mops".into(), per_us(count, t));
        tr.exit(s);

        // `run_traffic`'s histogram shape.
        let mut hist = LatencyHistogram::new(5, 1 << 34);
        let s = tr.enter("traffic", || "LatencyHistogram::record".into());
        let t = Instant::now();
        for pair in arrivals.windows(2) {
            hist.record((pair[1] - pair[0]) * 16);
        }
        m.insert("traffic.hist.record_mops".into(), per_us(count - 1, t));
        tr.exit(s);

        let mut total = LatencyHistogram::new(5, 1 << 34);
        let merges = self.n(20_000);
        let s = tr.enter("traffic", || "LatencyHistogram::merge".into());
        let t = Instant::now();
        for _ in 0..merges {
            total.merge(&hist);
        }
        m.insert(
            "traffic.hist.merge_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / merges as f64,
        );
        tr.exit(s);
        black_box(total.count());
    }

    // -- harness ----------------------------------------------------------

    fn harness(&self, tr: &mut Tracer, ops: &mut Ops, m: &mut Metrics, result: Option<RunResult>) {
        let Some(result) = result else {
            ops.check(false, || "no result for the cache rung".into());
            return;
        };
        let dir = self.scratch;
        let _ = std::fs::remove_dir_all(dir);
        let env = Env {
            scale: self.scale,
            seed: self.seed,
            max_cycles: MAX_CYCLES,
        };
        let spec = JobSpec::single("sst/gzip", CoreModel::Sst, "gzip");
        let key = spec.cache_key("bench", &env);
        let hash = spec.cache_hash("bench", &env);
        let out = JobOutput::Run(result);
        let entries = self.n(1_500);

        let s = tr.enter("harness", || "cache::store".into());
        let t = Instant::now();
        let stored =
            (0..entries).all(|i| cache::store(dir, hash.wrapping_add(i), &key, &out).is_ok());
        m.insert(
            "harness.cache.store_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / entries as f64,
        );
        tr.exit(s);
        ops.check(stored, || "cache::store failed".into());

        let s = tr.enter("harness", || "cache::load".into());
        let t = Instant::now();
        let loaded = (0..entries)
            .filter(|i| cache::load(dir, hash.wrapping_add(*i), &key).is_some())
            .count();
        m.insert(
            "harness.cache.load_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / entries as f64,
        );
        tr.exit(s);
        ops.check(loaded as u64 == entries, || {
            format!("cache::load returned {loaded} of {entries} entries")
        });

        let s = tr.enter("harness", || "cache::claim + release".into());
        let t = Instant::now();
        let won = (0..entries)
            .filter(|i| {
                matches!(
                    cache::claim(dir, hash.wrapping_add(*i)),
                    Ok(cache::Claim::Won(_))
                )
            })
            .count();
        m.insert(
            "harness.cache.claim_us".into(),
            t.elapsed().as_secs_f64() * 1e6 / entries as f64,
        );
        tr.exit(s);
        ops.check(won as u64 == entries, || {
            format!("won {won} of {entries} uncontended claims")
        });
        let _ = std::fs::remove_dir_all(dir);

        // A document shaped like `results/<id>.json`: many small job records.
        let doc = JVal::Arr(
            (0..self.n(30_000))
                .map(|i| {
                    JVal::obj([
                        ("name", JVal::str(format!("sst/job{i}"))),
                        ("cycles", JVal::Int(1_000_000 + i)),
                        ("ipc", JVal::Num(0.5 + i as f64 * 1e-6)),
                        (
                            "counters",
                            JVal::obj([("deferred", JVal::Int(i)), ("replayed", JVal::Int(i / 2))]),
                        ),
                    ])
                })
                .collect(),
        );
        let s = tr.enter("harness", || "JVal::render_pretty".into());
        let t = Instant::now();
        let text = doc.render_pretty();
        m.insert(
            "harness.json.render_mb_per_s".into(),
            text.len() as f64 / 1e6 / t.elapsed().as_secs_f64(),
        );
        tr.exit(s);
    }
}

/// The crate directory behind a model key.
fn crate_of(key: &str) -> &'static str {
    match key {
        "inorder" => "inorder",
        "ooo.o128" => "ooo",
        _ => "core",
    }
}

struct HandLoop {
    cycles: u64,
    insts: u64,
    ticks: u64,
    skipped: u64,
    seconds: f64,
}

/// `System::run_checked`'s loop written out against the `Core` trait, so
/// the model's own `tick` / `next_event_cycle` / `skip_to` are what is
/// timed and counted.
fn hand_loop(model: &CoreModel, w: &Workload) -> HandLoop {
    let mut mem = MemSystem::new(&MemConfig::default(), 1);
    w.program.load_into(mem.mem_mut());
    let mut core = model.build(0, &w.program);
    let mut commits = Vec::new();
    let (mut insts, mut ticks, mut skipped) = (0u64, 0u64, 0u64);
    let t = Instant::now();
    while !core.halted() {
        core.tick(&mut mem.bus(0));
        ticks += 1;
        core.drain_commits_into(&mut commits);
        insts += commits.len() as u64;
        commits.clear();
        if !core.halted() {
            let target = core.next_event_cycle();
            if target > core.cycle() {
                skipped += target - core.cycle();
                core.skip_to(target);
            }
        }
    }
    core.drain_commits_into(&mut commits);
    insts += commits.len() as u64;
    HandLoop {
        cycles: core.cycle(),
        insts,
        ticks,
        skipped,
        seconds: t.elapsed().as_secs_f64(),
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Events per microsecond, i.e. millions per second.
fn per_us(events: u64, since: Instant) -> f64 {
    events as f64 / since.elapsed().as_secs_f64() / 1e6
}
