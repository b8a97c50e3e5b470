use sst_mem::Cycle;
use sst_uarch::{ExecLatency, FrontendConfig};

/// Configuration of the SST core family.
///
/// The three named constructors ([`SstConfig::scout`],
/// [`SstConfig::execute_ahead`], [`SstConfig::sst`]) produce the paper's
/// three design points; every field can also be swept independently for
/// the sensitivity studies (experiments E6–E8).
#[derive(Clone, Debug)]
pub struct SstConfig {
    /// Issue width shared by the ahead and deferred strands.
    pub width: usize,
    /// Frontend (fetch/predict) configuration.
    pub frontend: FrontendConfig,
    /// Functional-unit latencies.
    pub latency: ExecLatency,
    /// Memory operations issued per cycle (shared by both strands).
    pub dcache_ports: usize,
    /// Number of hardware checkpoints: the maximum simultaneously live
    /// speculative epochs. 1 = execute-ahead / scout; 2 = ROCK's SST.
    pub checkpoints: usize,
    /// Deferred-queue capacity (shared by all live epochs).
    pub dq_entries: usize,
    /// Speculative store-buffer capacity.
    pub stb_entries: usize,
    /// A load defers when its memory latency exceeds this many cycles
    /// (set between the L2 hit and DRAM latencies so that off-chip misses
    /// defer but L2 hits do not).
    pub defer_threshold: Cycle,
    /// `true` keeps speculative results (EA/SST); `false` is hardware
    /// scout: results are discarded and execution restarts at the
    /// checkpoint when the originating miss returns.
    pub retain_results: bool,
    /// During replay, an entry whose inputs land within this many cycles
    /// stalls the deferred strand in place (pipeline bypass); anything
    /// longer re-defers for a later pass.
    pub bypass_stall_window: u64,
    /// Confidence gate (off by default, as in ROCK): when enabled, the
    /// ahead strand stalls at a *low-confidence* deferred branch instead of
    /// speculating past it, trading run-ahead coverage for fewer
    /// deferred-branch rollbacks. Ablation A3 measures the trade.
    pub confidence_gate: bool,
    /// Speculation-taint tracking (off by default): tag every line touch,
    /// predictor update, and prefetcher training performed between
    /// checkpoint creation and rollback, and sweep the squashed range
    /// into a leakage record at each rollback (experiment E13, "does SST
    /// leak?"). Purely observational: recording and the rollback sweep
    /// never touch timing state, so runs with the flag on and off are
    /// byte-identical — same cycles, commits, counters, and memory
    /// statistics (the taint equivalence test pins this). The collected
    /// summary is reported through `Core::leakage`, never through
    /// `Core::counters`.
    pub taint: bool,
}

impl SstConfig {
    /// ROCK's SST design point: two checkpoints, result retention.
    pub fn sst() -> SstConfig {
        SstConfig {
            width: 2,
            frontend: FrontendConfig::default(),
            latency: ExecLatency::default(),
            dcache_ports: 1,
            checkpoints: 2,
            dq_entries: 128,
            stb_entries: 64,
            defer_threshold: 30,
            retain_results: true,
            bypass_stall_window: 6,
            confidence_gate: false,
            taint: false,
        }
    }

    /// Execute-ahead: one checkpoint, result retention, ahead thread
    /// suspends during replay.
    pub fn execute_ahead() -> SstConfig {
        SstConfig {
            checkpoints: 1,
            ..SstConfig::sst()
        }
    }

    /// Hardware scout / runahead: one checkpoint, no result retention.
    pub fn scout() -> SstConfig {
        SstConfig {
            checkpoints: 1,
            retain_results: false,
            ..SstConfig::sst()
        }
    }

    /// Short model label for reports ("scout", "ea", "sst", "sst-4", ...).
    pub fn label(&self) -> String {
        if !self.retain_results {
            "scout".to_string()
        } else if self.checkpoints == 1 {
            "ea".to_string()
        } else if self.checkpoints == 2 {
            "sst".to_string()
        } else {
            format!("sst-{}", self.checkpoints)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_point_labels() {
        assert_eq!(SstConfig::scout().label(), "scout");
        assert_eq!(SstConfig::execute_ahead().label(), "ea");
        assert_eq!(SstConfig::sst().label(), "sst");
        let wide = SstConfig {
            checkpoints: 4,
            ..SstConfig::sst()
        };
        assert_eq!(wide.label(), "sst-4");
    }

    #[test]
    fn scout_is_ea_without_retention() {
        let s = SstConfig::scout();
        let e = SstConfig::execute_ahead();
        assert_eq!(s.checkpoints, e.checkpoints);
        assert!(!s.retain_results);
        assert!(e.retain_results);
    }
}
