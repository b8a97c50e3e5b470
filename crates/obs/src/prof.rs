//! Host-side self-profiling: scoped wall-time timers around the
//! simulator's own hot stages.
//!
//! An owner's [`crate::Probes`] holds the accumulator while profiling is
//! enabled; stage boundaries then bracket `Instant::now()` reads and
//! accumulate nanoseconds per [`Stage`]. Host profiling never touches
//! model state, so — like tracing — a profiled run's `RunResult` is
//! byte-identical to an unprofiled one.
//!
//! `MemTick` is accumulated inside the memory system's miss walk, which
//! cores invoke from within their own stages: it *overlaps* `Issue`/
//! `Replay` rather than adding to them, and the per-model tables say so.

/// A simulator hot-loop stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Frontend fetch (+ the fused decode in cores that decode once).
    Fetch,
    /// Standalone decode/rename work (the OoO core's rename stage).
    Decode,
    /// Issue/execute/commit of the ahead strand.
    Issue,
    /// Deferred-queue replay and speculation management.
    Replay,
    /// The memory system's miss walk (overlaps Issue/Replay).
    MemTick,
    /// Everything else attributable to a stage owner.
    Other,
}

impl Stage {
    /// Every stage, in table order.
    pub const ALL: [Stage; 6] = [
        Stage::Fetch,
        Stage::Decode,
        Stage::Issue,
        Stage::Replay,
        Stage::MemTick,
        Stage::Other,
    ];

    /// Dense index for table storage.
    pub fn index(self) -> usize {
        match self {
            Stage::Fetch => 0,
            Stage::Decode => 1,
            Stage::Issue => 2,
            Stage::Replay => 3,
            Stage::MemTick => 4,
            Stage::Other => 5,
        }
    }

    /// Stable label used in reports and `manifest.json`.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Fetch => "fetch",
            Stage::Decode => "decode",
            Stage::Issue => "issue",
            Stage::Replay => "replay",
            Stage::MemTick => "mem_tick",
            Stage::Other => "other",
        }
    }
}

/// Accumulated host nanoseconds per stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostTimes {
    ns: [u64; Stage::ALL.len()],
}

impl HostTimes {
    /// An empty accumulator.
    pub fn new() -> HostTimes {
        HostTimes::default()
    }

    /// Adds `ns` nanoseconds to `stage`.
    pub fn add(&mut self, stage: Stage, ns: u64) {
        self.ns[stage.index()] += ns;
    }

    /// Nanoseconds accumulated for `stage`.
    pub fn get(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Total nanoseconds, *excluding* the overlapping `MemTick` stage
    /// (which is nested inside Issue/Replay time).
    pub fn total_ns(&self) -> u64 {
        Stage::ALL
            .iter()
            .filter(|s| **s != Stage::MemTick)
            .map(|s| self.get(*s))
            .sum()
    }

    /// All rows in stable order (zeros included).
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        Stage::ALL
            .iter()
            .map(|s| (s.label(), self.get(*s)))
            .collect()
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &HostTimes) {
        for s in Stage::ALL {
            self.ns[s.index()] += other.get(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Probes;

    #[test]
    fn rows_and_totals() {
        let mut t = HostTimes::new();
        t.add(Stage::Fetch, 100);
        t.add(Stage::Issue, 300);
        t.add(Stage::MemTick, 250);
        assert_eq!(t.get(Stage::Fetch), 100);
        assert_eq!(t.rows().len(), Stage::ALL.len());
        assert_eq!(t.total_ns(), 400, "MemTick overlaps and is excluded");
        let mut u = HostTimes::new();
        u.add(Stage::Fetch, 1);
        u.merge(&t);
        assert_eq!(u.get(Stage::Fetch), 101);
    }

    #[test]
    fn disabled_probe_is_inert() {
        let mut probes = Probes::default();
        let t0 = probes.start();
        assert!(t0.is_none());
        probes.stop(Stage::Fetch, t0);
        assert!(probes.host_times().is_none());
    }

    #[test]
    fn enabled_probe_accumulates() {
        let mut probes = Probes::default();
        probes.enable_prof();
        let t0 = probes.start();
        std::hint::black_box(0u64);
        probes.stop(Stage::Replay, t0);
        // Elapsed time is clock-dependent; the structural fact is that
        // the credited stage is the one asked for.
        let times = probes.host_times().unwrap();
        assert_eq!(times.total_ns(), times.get(Stage::Replay));
    }
}
