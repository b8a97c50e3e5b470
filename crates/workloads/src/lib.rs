//! # sst-workloads
//!
//! The benchmark suite for the SST study. The paper evaluates commercial
//! workloads (OLTP/database, ERP/Java-server, web) and SPEC CPU; those
//! traces are proprietary, so this crate builds synthetic stand-ins that
//! pin the four properties the paper's results actually depend on:
//!
//! 1. the fraction of off-chip load misses,
//! 2. the depth of the dependence chain behind each miss,
//! 3. the independent work (memory-level parallelism) available past a
//!    miss, and
//! 4. branch predictability.
//!
//! See `DESIGN.md` (substitution S2) for the mapping. Every workload is a
//! real program in the workspace ISA whose *data* (pointer graphs, hash
//! tables, payloads) is generated host-side into the binary image, so the
//! simulated instruction stream is pure steady-state work.
//!
//! ```
//! use sst_workloads::{Workload, Scale};
//!
//! let w = Workload::by_name("oltp", Scale::Smoke, 42).unwrap();
//! assert_eq!(w.name, "oltp");
//! // w.program runs on any core model; w.skip_insts marks warm-up.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod commercial;
mod common;
mod gadgets;
mod micro;
mod spec;

pub use commercial::oltp_sized;
pub use gadgets::gadget_names;

use sst_isa::Program;

/// Workload footprint / duration scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: unit tests (seconds of wall-clock across all models).
    Smoke,
    /// Full: the experiment harness.
    Full,
}

/// Category, mirroring the paper's suite structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Commercial server workloads (the paper's headline suite).
    Commercial,
    /// SPEC-CPU-like integer kernels.
    SpecInt,
    /// SPEC-CPU-like floating-point kernels.
    SpecFp,
    /// Microbenchmarks with controlled memory behaviour.
    Micro,
}

impl Class {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Class::Commercial => "commercial",
            Class::SpecInt => "spec-int",
            Class::SpecFp => "spec-fp",
            Class::Micro => "micro",
        }
    }
}

/// A ready-to-run benchmark.
pub struct Workload {
    /// Short name ("oltp", "mcf", ...).
    pub name: &'static str,
    /// Suite category.
    pub class: Class,
    /// The program (text + host-generated data image).
    pub program: Program,
    /// Instructions to treat as warm-up when computing steady-state IPC.
    pub skip_insts: u64,
    /// One-line description for reports.
    pub description: &'static str,
}

impl Workload {
    /// Builds a workload by name at address slot 0. Returns `None` for
    /// unknown names.
    pub fn by_name(name: &str, scale: Scale, seed: u64) -> Option<Workload> {
        Workload::by_name_slot(name, scale, seed, 0)
    }

    /// Builds a workload whose text/data live in `slot`'s private 64 GiB
    /// address range, so multiprogrammed CMP mixes never alias.
    pub fn by_name_slot(name: &str, scale: Scale, seed: u64, slot: usize) -> Option<Workload> {
        Some(match name {
            "oltp" => commercial::oltp(scale, seed, slot),
            "erp" => commercial::erp(scale, seed, slot),
            "web" => commercial::web(scale, seed, slot),
            "mcf" => spec::mcf_like(scale, seed, slot),
            "gcc" => spec::gcc_like(scale, seed, slot),
            "gzip" => spec::gzip_like(scale, seed, slot),
            "gups" => spec::gups(scale, seed, slot),
            "stream" => spec::stream_like(scale, seed, slot),
            "stencil" => spec::stencil_like(scale, seed, slot),
            "matmul" => spec::matmul_like(scale, seed, slot),
            "chase" => micro::chase(scale, seed, slot),
            "mlp8" => micro::mlp8(scale, seed, slot),
            // E13 leakage gadgets: buildable by name, but deliberately not
            // in `all_names` — they measure leakage, not performance.
            "g_bcb" => gadgets::g_bcb(scale, seed, slot),
            "g_chase" => gadgets::g_chase(scale, seed, slot),
            "g_store" => gadgets::g_store(scale, seed, slot),
            _ => return None,
        })
    }

    /// All workload names, suite order.
    pub fn all_names() -> &'static [&'static str] {
        &[
            "oltp", "erp", "web", "mcf", "gcc", "gzip", "gups", "stream", "stencil", "matmul",
            "chase", "mlp8",
        ]
    }

    /// The commercial suite (the paper's headline comparison set).
    pub fn commercial_names() -> &'static [&'static str] {
        &["oltp", "erp", "web"]
    }

    /// The SPEC-like integer set.
    pub fn spec_int_names() -> &'static [&'static str] {
        &["mcf", "gcc", "gzip", "gups"]
    }

    /// The SPEC-like floating-point set.
    pub fn spec_fp_names() -> &'static [&'static str] {
        &["stream", "stencil", "matmul"]
    }

    /// Builds every workload in a name list.
    pub fn suite(names: &[&str], scale: Scale, seed: u64) -> Vec<Workload> {
        names
            .iter()
            .map(|n| Workload::by_name(n, scale, seed).expect("known name"))
            .collect()
    }
}

/// A commercial workload packaged for the service driver: the same kernel
/// as [`Workload::by_name`], but with an effectively endless main loop
/// (the driver slices *requests* — N transactions' worth of retired
/// instructions — off the running loop, so the program must never halt on
/// its own) and the nominal per-transaction instruction count the traffic
/// layer needs to convert offered load into an arrival rate.
pub struct ServerKernel {
    /// The endless-loop kernel (`skip_insts` is 0: warm-up is the traffic
    /// layer's business, expressed in requests).
    pub workload: Workload,
    /// Nominal instructions per transaction (one main-loop trip).
    pub txn_insts: u64,
}

impl ServerKernel {
    /// Builds a server kernel by name at address slot `slot` (one slot per
    /// core, as in [`Workload::by_name_slot`]). Only the commercial suite
    /// has server variants; other names return `None`.
    pub fn by_name(name: &str, scale: Scale, seed: u64, slot: usize) -> Option<ServerKernel> {
        let (workload, txn_insts) = match name {
            "oltp" => (
                commercial::oltp_server(scale, seed, slot),
                commercial::OLTP_TXN_INSTS,
            ),
            "erp" => (
                commercial::erp_server(scale, seed, slot),
                commercial::ERP_TXN_INSTS,
            ),
            "web" => (
                commercial::web_server(scale, seed, slot),
                commercial::WEB_TXN_INSTS,
            ),
            _ => return None,
        };
        Some(ServerKernel {
            workload,
            txn_insts,
        })
    }

    /// Nominal per-transaction instruction count by name, without building
    /// the (expensive) data image. `None` for non-server names.
    pub fn txn_insts_of(name: &str) -> Option<u64> {
        Some(match name {
            "oltp" => commercial::OLTP_TXN_INSTS,
            "erp" => commercial::ERP_TXN_INSTS,
            "web" => commercial::WEB_TXN_INSTS,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::{Interp, StopReason};

    #[test]
    fn every_workload_builds_and_halts_functionally() {
        for name in Workload::all_names() {
            let w = Workload::by_name(name, Scale::Smoke, 7).unwrap();
            let mut i = Interp::new(&w.program);
            let out = i
                .run(20_000_000)
                .unwrap_or_else(|t| panic!("{name}: trap {t}"));
            assert_eq!(out.stop, StopReason::Halt, "{name} did not halt");
            assert!(
                out.steps > w.skip_insts,
                "{name}: ran {} insts but skip is {}",
                out.steps,
                w.skip_insts
            );
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(Workload::by_name("nope", Scale::Smoke, 1).is_none());
    }

    #[test]
    fn server_kernels_build_and_never_halt_early() {
        for name in Workload::commercial_names() {
            let k = ServerKernel::by_name(name, Scale::Smoke, 3, 1).unwrap();
            assert_eq!(k.workload.skip_insts, 0, "{name}");
            assert!(k.txn_insts > 0);
            assert_eq!(ServerKernel::txn_insts_of(name), Some(k.txn_insts));
            let mut i = Interp::new(&k.workload.program);
            let out = i
                .run(200_000)
                .unwrap_or_else(|t| panic!("{name}: trap {t}"));
            assert_eq!(out.stop, StopReason::StepLimit, "{name} halted early");
        }
        assert!(ServerKernel::by_name("mcf", Scale::Smoke, 3, 0).is_none());
        assert!(ServerKernel::txn_insts_of("mcf").is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Workload::by_name("oltp", Scale::Smoke, 5).unwrap();
        let b = Workload::by_name("oltp", Scale::Smoke, 5).unwrap();
        let image = |w: &Workload| {
            let mut out = sst_isa::SnapWriter::new();
            w.program.image().save_state(&mut out);
            out.into_bytes()
        };
        assert_eq!(a.program.decoded(), b.program.decoded());
        assert!(image(&a) == image(&b), "same seed, same image");
        let c = Workload::by_name("oltp", Scale::Smoke, 6).unwrap();
        let same_data = image(&a) == image(&c);
        assert!(!same_data, "different seeds must change the data image");
    }

    #[test]
    fn suites_partition_sensibly() {
        let all = Workload::all_names();
        for n in Workload::commercial_names() {
            assert!(all.contains(n));
        }
        for n in Workload::spec_int_names() {
            assert!(all.contains(n));
        }
        for n in Workload::spec_fp_names() {
            assert!(all.contains(n));
        }
    }
}
