/// Statistics of one SST-family core.
#[derive(Clone, Copy, Debug, Default)]
pub struct SstStats {
    // --- speculation machinery ---
    /// Speculative episodes started (checkpoints taken at a deferrable
    /// miss from normal mode).
    pub episodes: u64,
    /// Epochs that committed (retained their results).
    pub epochs_committed: u64,
    /// Instructions sent to the deferred queue.
    pub deferred: u64,
    /// Deferred instructions successfully replayed.
    pub replayed: u64,
    /// Replayed loads that missed again and stayed deferred.
    pub redeferred: u64,
    /// Rollbacks caused by a mispredicted deferred branch/jump.
    pub fail_branch: u64,
    /// Scout-mode episodes ended by the designed rollback (not a failure).
    pub scout_rollbacks: u64,
    /// Deferred loads issued while another deferred miss was outstanding
    /// (the memory-level-parallelism the paper's mechanism exposes).
    pub overlapped_misses: u64,

    // --- defer-cause taxonomy (rows sum to `deferred`) ---
    /// Defers caused by an NT source register (dependents of an earlier
    /// deferred instruction).
    pub defer_nt_source: u64,
    /// Loads deferred because an older store's address was unknown.
    pub defer_store_order: u64,
    /// Loads deferred by a partial store-buffer forwarding match.
    pub defer_forward_miss: u64,
    /// Loads deferred by a long-latency cache miss itself.
    pub defer_cache_miss: u64,

    // --- ahead-thread stalls ---
    /// Cycles the ahead strand issued nothing: empty decode queue.
    pub stall_frontend: u64,
    /// Cycles stalled on a not-ready (but not NT) operand.
    pub stall_operand: u64,
    /// Cycles stalled because the DQ was full.
    pub stall_dq_full: u64,
    /// Cycles stalled because the store buffer was full.
    pub stall_stb_full: u64,
    /// Cycles the ahead strand was suspended for EA replay.
    pub stall_ea_replay: u64,
    /// Cycles stalled waiting for epochs to commit at a `halt`.
    pub stall_halt_wait: u64,
    /// Issue slots lost to D-cache port limits.
    pub stall_port: u64,
    /// Cycles stalled at a low-confidence deferred branch (only with
    /// [`crate::SstConfig::confidence_gate`]).
    pub stall_lowconf: u64,

    // --- general ---
    /// Issue slots used by the ahead strand.
    pub ahead_issued: u64,
    /// Issue slots used by the deferred strand.
    pub replay_issued: u64,
    /// Control transfers resolved against the prediction and found wrong
    /// (ahead strand; deferred-branch failures are counted separately).
    pub mispredicts: u64,
}

sst_isa::snap_record!(SstStats {
    episodes,
    epochs_committed,
    deferred,
    replayed,
    redeferred,
    fail_branch,
    scout_rollbacks,
    overlapped_misses,
    defer_nt_source,
    defer_store_order,
    defer_forward_miss,
    defer_cache_miss,
    stall_frontend,
    stall_operand,
    stall_dq_full,
    stall_stb_full,
    stall_ea_replay,
    stall_halt_wait,
    stall_port,
    stall_lowconf,
    ahead_issued,
    replay_issued,
    mispredicts,
});

impl SstStats {
    /// Fraction of deferred instructions among all issued.
    pub fn defer_rate(&self) -> f64 {
        let total = self.ahead_issued + self.replay_issued;
        if total == 0 {
            0.0
        } else {
            self.deferred as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defer_rate_handles_idle() {
        assert_eq!(SstStats::default().defer_rate(), 0.0);
        let s = SstStats {
            deferred: 5,
            ahead_issued: 10,
            replay_issued: 10,
            ..SstStats::default()
        };
        assert!((s.defer_rate() - 0.25).abs() < 1e-12);
    }
}
