//! The top-level memory system: per-core L1s, shared L2, DRAM.
//!
//! # Ports and the shared residue
//!
//! The system is split along the chip's natural ownership boundary:
//!
//! * [`MemPort`] — everything private to one core: its L1I/L1D tag
//!   arrays, L1 MSHR files, stride prefetcher, prefetch-residency set,
//!   its slice of the functional backing store, and its per-core
//!   statistics. A port can be handed to a worker thread wholesale.
//! * [`L2Shared`] (crate-private) — the residue every core contends on:
//!   the shared L2 tags, the L2 MSHR file, the L2 port arbiter, DRAM,
//!   and the L2/DRAM counters.
//!
//! Cores never touch either piece directly; they go through a
//! [`MemBus`], a per-core handle that routes L1-local traffic to the
//! port and escalates misses to the shared residue. In serial
//! simulation the bus holds a plain `&mut` to the shared state
//! ([`MemSystem::bus`]); in parallel simulation it holds a gated
//! reference that blocks until the core's deterministic turn comes up
//! (see [`crate::ParallelMem`]), so the shared structures observe the
//! exact same access interleaving — ascending `(cycle, core)` — as a
//! serial run.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use sst_isa::{SnapError, SnapReader, SnapState, SnapWriter, SparseMem};
use sst_obs::{Event, Probes, Residue, Stage};

use crate::cache::TagArray;
use crate::dram::Dram;
use crate::mshr::MshrFile;
use crate::parallel::SharedHandle;
use crate::prefetch::StridePrefetcher;
use crate::stats::{CacheStats, MemStats};
use crate::{Cycle, MemConfig};

/// Hasher for block-address keys: one multiply, then the halves swapped. A
/// block address has zeros in its low bits and a multiply leaves them
/// there, while the table takes its bucket index from the low bits.
///
/// Fixed rather than the default randomly keyed SipHash for two reasons.
/// Every L1 hit probes the residency set while a prefetch is outstanding.
/// And a table's rehashes depend on where removals leave tombstones, i.e.
/// on the hash values: under a per-process key the same simulation makes
/// a different sequence of allocations in every process, and through the
/// heap's layout reaches a different peak memory.
#[derive(Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(32);
    }
}

type BlockSet = HashSet<u64, BuildHasherDefault<BlockHasher>>;

/// What an access is, for routing and statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Instruction fetch (routed to the L1I).
    IFetch,
    /// Demand data load.
    Load,
    /// Demand data store (write-allocate).
    Store,
    /// Software or hardware prefetch (fills caches, nobody waits).
    Prefetch,
}

/// Deepest level an access had to reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the L1.
    L1,
    /// Served by the shared L2.
    L2,
    /// Served by DRAM.
    Mem,
}

impl HitLevel {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HitLevel::L1 => "L1",
            HitLevel::L2 => "L2",
            HitLevel::Mem => "mem",
        }
    }
}

/// Timing result of one access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Absolute cycle at which the data is available to the core.
    pub ready_at: Cycle,
    /// Deepest level reached.
    pub level: HitLevel,
}

impl AccessOutcome {
    /// Latency relative to the issue cycle.
    #[inline]
    pub fn latency(&self, issued_at: Cycle) -> Cycle {
        self.ready_at.saturating_sub(issued_at)
    }
}

/// One core's private side of the memory system: L1 caches, L1 MSHRs,
/// prefetcher, prefetch-residency tracking, functional backing store,
/// and per-core counters.
///
/// Ports are created by [`MemSystem::new`] and either used in place
/// (serial simulation, through [`MemSystem::bus`]) or carved out with
/// [`MemSystem::into_parallel`] and moved onto worker threads.
pub struct MemPort {
    mem: SparseMem,
    l1i: TagArray,
    l1d: TagArray,
    l1i_mshr: MshrFile,
    l1d_mshr: MshrFile,
    prefetcher: Prefetcher,
    /// Blocks brought in by a prefetch and still resident in this L1D.
    /// Cleared on eviction, so the set is bounded by L1D capacity and a
    /// long-evicted prefetch is never credited as useful. Workload
    /// address slots are disjoint across cores, so per-port tracking is
    /// exact.
    prefetched: BlockSet,
    l1i_stats: CacheStats,
    l1d_stats: CacheStats,
    prefetches: u64,
    useful_prefetches: u64,
    /// Event ring of demand-miss lifetimes and the host time spent inside
    /// this port's timing walks. Record-only (the `sst-obs` event-sink
    /// contract): nothing in the walk ever consults it.
    probes: Probes,
}

impl MemPort {
    fn new(cfg: &MemConfig) -> MemPort {
        MemPort {
            mem: SparseMem::new(),
            l1i: TagArray::new(&cfg.l1i),
            l1d: TagArray::new(&cfg.l1d),
            l1i_mshr: MshrFile::new(4),
            l1d_mshr: MshrFile::new(cfg.l1d_mshrs),
            prefetcher: Prefetcher(cfg.prefetch.map(StridePrefetcher::new)),
            prefetched: BlockSet::default(),
            l1i_stats: CacheStats::default(),
            l1d_stats: CacheStats::default(),
            prefetches: 0,
            useful_prefetches: 0,
            probes: Probes::default(),
        }
    }

    /// Mutable access to the port's functional backing store (program
    /// loading, test setup).
    pub fn mem_mut(&mut self) -> &mut SparseMem {
        &mut self.mem
    }

    /// Credits a prefetched line the first time a demand access touches
    /// it while it is still cached (or in flight).
    ///
    /// Policy: credit survives speculation rollback. A demand touch from
    /// a path that is later squashed still converts the prefetch to
    /// "useful", and a prefetch trained by a squashed load keeps its
    /// entry in `prefetched` until the line itself is evicted. This is
    /// deliberate: `useful_prefetches` measures *fill timeliness* — did
    /// the prefetcher move the line before something wanted it — not
    /// architectural correctness of the wanter, which is E13's business
    /// (the taint sweep separately reports squashed trainings as
    /// `leak_prefetch_trainings`). Rolling the credit back would also
    /// make the counter depend on checkpoint placement, destroying its
    /// comparability across the scout/EA/SST lineup, whose rollback
    /// cadences differ by design. `remove` keeps the credit at-most-once
    /// per prefetched fill; re-prefetching after eviction re-arms it.
    fn note_useful_prefetch(&mut self, block: u64) {
        if self.untag_prefetch(block) {
            self.useful_prefetches += 1;
        }
    }

    /// Drops `block`'s prefetch tag — on its first demand touch, or when
    /// the line leaves the L1D (a later demand to it is no longer a useful
    /// prefetch, and the set stays bounded by the cache's capacity).
    /// Returns whether it had one.
    fn untag_prefetch(&mut self, block: u64) -> bool {
        // The set is empty whenever no prefetch is outstanding (always, with
        // no prefetcher configured, or for workloads the stride table never
        // locks onto) — skip the hash.
        !self.prefetched.is_empty() && self.prefetched.remove(&block)
    }
}

sst_isa::snap_record!(state MemPort "PORT" {
    mem,
    l1i,
    l1d,
    l1i_mshr,
    l1d_mshr,
    prefetcher,
    prefetched,
    l1i_stats,
    l1d_stats,
    prefetches,
    useful_prefetches,
});

/// A port's stride prefetcher, present or not by configuration: a
/// presence flag, then its state; a snapshot that disagrees with the
/// configuration is a mismatch.
struct Prefetcher(Option<StridePrefetcher>);

impl SnapState for Prefetcher {
    fn put_state(&self, w: &mut SnapWriter) {
        w.put_bool(self.0.is_some());
        if let Some(p) = &self.0 {
            p.put_state(w);
        }
    }

    fn take_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        match (&mut self.0, r.take_bool()?) {
            (Some(p), true) => p.take_state(r),
            (None, false) => Ok(()),
            _ => Err(SnapError::Mismatch(
                "prefetcher presence differs between snapshot and config".into(),
            )),
        }
    }
}

/// The state every core contends on: shared L2 tags and MSHRs, the L2
/// port arbiter, DRAM, and their counters. Only ever touched through a
/// [`MemBus`], which serializes access in `(cycle, core)` order.
pub(crate) struct L2Shared {
    l2: TagArray,
    l2_mshr: MshrFile,
    l2_port_free_at: Cycle,
    dram: Dram,
    l2_stats: CacheStats,
}

impl L2Shared {
    /// The shared L2 + DRAM portion of a miss that starts at `start`.
    fn l2_walk(
        &mut self,
        cfg: &MemConfig,
        start: Cycle,
        write: bool,
        block: u64,
    ) -> (Cycle, HitLevel) {
        // Shared L2 port arbitration.
        let at_port = start.max(self.l2_port_free_at);
        self.l2_port_free_at = at_port + cfg.l2_port_cycles;
        let after_l2 = at_port + cfg.l2_latency;

        self.l2_stats.accesses += 1;

        // In-flight L2 fill?
        if let Some((ready, _)) = self.l2_mshr.lookup(at_port, block) {
            self.l2_mshr.note_merge();
            self.l2.access(block, false);
            return (ready.max(after_l2), HitLevel::Mem);
        }

        // Note: fills never mark L2 dirty — dirtiness reaches L2 only via
        // L1 writebacks (write-back hierarchy).
        if self.l2.access(block, false) {
            self.l2_stats.hits += 1;
            return (after_l2, HitLevel::L2);
        }

        // L2 miss: MSHR, then DRAM.
        let slot = self.l2_mshr.earliest_slot(after_l2);
        let dram_out = self.dram.read(slot, block);
        let ready = dram_out.ready_at;
        self.l2_mshr.insert(slot, block, ready, true);
        if let Some(ev) = self.l2.fill(block, false) {
            if ev.dirty {
                self.l2_stats.writebacks += 1;
                self.dram.writeback(slot, ev.addr);
            }
        }
        let _ = write;
        (ready, HitLevel::Mem)
    }

    /// An L1 dirty-victim writeback arriving at the L2 at `at`.
    fn l1_writeback(&mut self, at: Cycle, victim: u64) {
        // Write the dirty line into L2 (tag state only; the backing
        // store is always current).
        if let Some(l2_ev) = self.l2.fill(victim, true) {
            if l2_ev.dirty {
                self.l2_stats.writebacks += 1;
                self.dram.writeback(at, l2_ev.addr);
            }
        }
    }
}

sst_isa::snap_record!(state L2Shared "L2SH" { l2, l2_mshr, l2_port_free_at, dram, l2_stats });

/// A core's handle onto the memory system: its private [`MemPort`] plus
/// a (possibly gated) reference to the shared L2/DRAM residue.
///
/// All timing and functional traffic from a core goes through its bus;
/// the core index is implicit. In serial runs the bus is a zero-cost
/// reborrow ([`MemSystem::bus`]); in parallel runs shared-state
/// escalations first wait for the core's deterministic turn
/// ([`crate::ParallelMem::bus`]).
pub struct MemBus<'a> {
    cfg: &'a MemConfig,
    port: &'a mut MemPort,
    shared: SharedHandle<'a>,
}

impl<'a> MemBus<'a> {
    pub(crate) fn new(
        cfg: &'a MemConfig,
        port: &'a mut MemPort,
        shared: SharedHandle<'a>,
    ) -> MemBus<'a> {
        MemBus { cfg, port, shared }
    }

    /// The configuration in use.
    #[inline]
    pub fn config(&self) -> &MemConfig {
        self.cfg
    }

    /// Cache line size in bytes (uniform across levels).
    #[inline]
    pub fn line_bytes(&self) -> u64 {
        self.cfg.l1d.line_bytes
    }

    // ---- functional data path ----------------------------------------------

    /// The core's functional backing memory.
    #[inline]
    pub fn mem(&self) -> &SparseMem {
        &self.port.mem
    }

    /// Functionally reads `bytes` little-endian bytes at `addr`.
    #[inline]
    pub fn read(&self, addr: u64, bytes: u64) -> u64 {
        self.port.mem.read_le(addr, bytes)
    }

    /// Functionally writes the low `bytes` bytes of `val` at `addr`.
    #[inline]
    pub fn write(&mut self, addr: u64, bytes: u64, val: u64) {
        self.port.mem.write_le(addr, bytes, val);
    }

    // ---- timing path -------------------------------------------------------

    /// Performs the timing walk for one access and returns when it
    /// completes.
    ///
    /// `pc` is used only to train the optional stride prefetcher (pass the
    /// accessing instruction's PC; the value is irrelevant for fetches and
    /// prefetches). Accesses are attributed to the line containing `addr`;
    /// the rare line-straddling access is charged to its first line.
    #[inline]
    pub fn access(&mut self, now: Cycle, kind: AccessKind, addr: u64) -> AccessOutcome {
        self.access_pc(now, kind, addr, 0)
    }

    /// Like [`MemBus::access`] but with the accessing PC for prefetcher
    /// training.
    pub fn access_pc(&mut self, now: Cycle, kind: AccessKind, addr: u64, pc: u64) -> AccessOutcome {
        let t0 = self.port.probes.start();
        let outcome = self.demand_walk(now, kind, addr);

        // Train the prefetcher on demand data accesses and issue its
        // candidates as best-effort fills.
        if matches!(kind, AccessKind::Load | AccessKind::Store) {
            let candidates = match self.port.prefetcher.0.as_mut() {
                Some(p) => p.train(pc, addr),
                None => Vec::new(),
            };
            for cand in candidates {
                self.issue_prefetch(now, cand);
            }
        }
        self.port.probes.stop(Stage::MemTick, t0);
        outcome
    }

    fn demand_walk(&mut self, now: Cycle, kind: AccessKind, addr: u64) -> AccessOutcome {
        let is_fetch = kind == AccessKind::IFetch;
        let write = kind == AccessKind::Store;
        let block = self.port.l1d.block_of(addr);

        if kind == AccessKind::Prefetch {
            self.issue_prefetch(now, addr);
            return AccessOutcome {
                ready_at: now,
                level: HitLevel::L1,
            };
        }

        let port = &mut *self.port;

        // Stats: L1 lookup.
        {
            let s = if is_fetch {
                &mut port.l1i_stats
            } else {
                &mut port.l1d_stats
            };
            s.accesses += 1;
        }

        // An in-flight fill for this block wins over the tag state (the tag
        // is installed at issue; data arrives at the MSHR's ready cycle).
        let mshr_hit = {
            let mshr = if is_fetch {
                &mut port.l1i_mshr
            } else {
                &mut port.l1d_mshr
            };
            mshr.lookup(now, block)
        };
        if let Some((ready, deep)) = mshr_hit {
            let mshr = if is_fetch {
                &mut port.l1i_mshr
            } else {
                &mut port.l1d_mshr
            };
            mshr.note_merge();
            // Keep dirty/recency state coherent with the logical access.
            let l1 = if is_fetch {
                &mut port.l1i
            } else {
                &mut port.l1d
            };
            l1.access(addr, write);
            port.note_useful_prefetch(block);
            return AccessOutcome {
                ready_at: ready.max(now + self.cfg.l1_latency),
                level: if deep { HitLevel::Mem } else { HitLevel::L2 },
            };
        }

        // L1 tag lookup.
        let l1_hit = {
            let l1 = if is_fetch {
                &mut port.l1i
            } else {
                &mut port.l1d
            };
            l1.access(addr, write)
        };
        if l1_hit {
            let s = if is_fetch {
                &mut port.l1i_stats
            } else {
                &mut port.l1d_stats
            };
            s.hits += 1;
            port.note_useful_prefetch(block);
            return AccessOutcome {
                ready_at: now + self.cfg.l1_latency,
                level: HitLevel::L1,
            };
        }

        // L1 miss: wait for an MSHR, then go to L2.
        let after_lookup = now + self.cfg.l1_latency;
        let start = {
            let mshr = if is_fetch {
                &mut port.l1i_mshr
            } else {
                &mut port.l1d_mshr
            };
            mshr.earliest_slot(after_lookup)
        };

        // Escalate into the shared residue: in parallel runs this blocks
        // until every lower-id core has finished this cycle and every
        // higher-id core has reached it, reproducing the serial
        // interleaving exactly.
        let mut sh = self.shared.acquire(now);
        let (ready_at, level) = sh.l2_walk(self.cfg, start, write, block);

        // Install the line in L1 and register the in-flight fill.
        {
            let l1 = if is_fetch {
                &mut port.l1i
            } else {
                &mut port.l1d
            };
            let evicted = l1.fill(addr, write);
            if let Some(ev) = evicted {
                if !is_fetch {
                    port.untag_prefetch(ev.addr);
                }
                if ev.dirty {
                    let s = if is_fetch {
                        &mut port.l1i_stats
                    } else {
                        &mut port.l1d_stats
                    };
                    s.writebacks += 1;
                    sh.l1_writeback(start, ev.addr);
                }
            }
            let mshr = if is_fetch {
                &mut port.l1i_mshr
            } else {
                &mut port.l1d_mshr
            };
            // The register is claimed from the miss's start time (which
            // earliest_slot() may have pushed past `now` when the file was
            // full).
            mshr.insert(start, block, ready_at, level == HitLevel::Mem);
            port.probes.emit(Event::MissSpan {
                start,
                end: ready_at,
                block,
                deep: level == HitLevel::Mem,
            });
        }

        AccessOutcome { ready_at, level }
    }

    /// The block-aligned address of `addr`'s cache line.
    #[inline]
    pub fn block_of(&self, addr: u64) -> u64 {
        self.port.l1d.block_of(addr)
    }

    /// Probes where `addr`'s line currently lives, without perturbing
    /// anything: no recency refresh, no dirty bits, no MSHR reaping, no
    /// counters. The speculation-taint sweep calls this at rollback to
    /// ask what squashed speculation left behind, and "zero cost when
    /// disabled" only holds because an *enabled* sweep is also invisible
    /// to timing. In parallel CMP runs the L2-side probe waits for the
    /// core's deterministic turn like any other shared-residue access.
    pub fn probe_residency(&mut self, now: Cycle, addr: u64) -> Residue {
        let block = self.port.l1d.block_of(addr);
        let l1d = self.port.l1d.probe(block);
        let l1_in_flight = self.port.l1d_mshr.probe(now, block);
        let sh = self.shared.acquire(now);
        Residue {
            resident: l1d || sh.l2.probe(block),
            in_flight: l1_in_flight || sh.l2_mshr.probe(now, block),
        }
    }

    /// Issues a best-effort prefetch of `addr`'s line.
    fn issue_prefetch(&mut self, now: Cycle, addr: u64) {
        let port = &mut *self.port;
        let block = port.l1d.block_of(addr);
        // Already cached or already in flight: nothing to do.
        if port.l1d.probe(block) || port.l1d_mshr.lookup(now, block).is_some() {
            return;
        }
        port.prefetches += 1;

        // Prefetches do not steal demand MSHRs if the file is full.
        let slot = {
            let mshr = &mut port.l1d_mshr;
            if mshr.in_flight(now) >= mshr.capacity() {
                return; // drop: demand traffic saturates the file
            }
            now + self.cfg.l1_latency
        };

        let mut sh = self.shared.acquire(now);
        let (ready_at, level) = sh.l2_walk(self.cfg, slot, false, block);
        let evicted = port.l1d.fill(block, false);
        if let Some(ev) = evicted {
            port.untag_prefetch(ev.addr);
            if ev.dirty {
                port.l1d_stats.writebacks += 1;
                sh.l1_writeback(slot, ev.addr);
            }
        }
        port.l1d_mshr
            .insert(now, block, ready_at, level == HitLevel::Mem);
        port.prefetched.insert(block);
    }
}

/// The complete memory system for `n` cores sharing an L2 and DRAM.
///
/// See the [crate documentation](crate) for the modeling approach. All
/// methods taking a `core` index panic if it is out of range.
pub struct MemSystem {
    pub(crate) cfg: MemConfig,
    pub(crate) ports: Vec<MemPort>,
    pub(crate) shared: L2Shared,
}

impl MemSystem {
    /// Builds an empty (cold) memory system for `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or any cache geometry is inconsistent.
    pub fn new(cfg: &MemConfig, cores: usize) -> MemSystem {
        assert!(cores > 0, "need at least one core");
        MemSystem {
            cfg: cfg.clone(),
            ports: (0..cores).map(|_| MemPort::new(cfg)).collect(),
            shared: L2Shared {
                l2: TagArray::new(&cfg.l2),
                l2_mshr: MshrFile::new(cfg.l2_mshrs),
                l2_port_free_at: 0,
                dram: Dram::new(cfg.dram),
                l2_stats: CacheStats::default(),
            },
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Cache line size in bytes (uniform across levels).
    pub fn line_bytes(&self) -> u64 {
        self.cfg.l1d.line_bytes
    }

    /// A serial (ungated) bus for `core`: the view a core gets of its
    /// private port plus direct access to the shared residue.
    #[inline]
    pub fn bus(&mut self, core: usize) -> MemBus<'_> {
        MemBus {
            cfg: &self.cfg,
            port: &mut self.ports[core],
            shared: SharedHandle::Direct(&mut self.shared),
        }
    }

    // ---- functional data path ------------------------------------------------

    /// The backing memory image of core 0 (single-core systems' program
    /// and data live here).
    pub fn mem(&self) -> &SparseMem {
        &self.ports[0].mem
    }

    /// Mutable backing memory of core 0 (program loading, test setup).
    pub fn mem_mut(&mut self) -> &mut SparseMem {
        &mut self.ports[0].mem
    }

    /// Mutable backing memory of `core`'s port. Multiprogrammed CMP
    /// drivers load each slot's program through this; workload address
    /// slots are disjoint, so splitting the image per port is exact.
    pub fn port_mem_mut(&mut self, core: usize) -> &mut SparseMem {
        &mut self.ports[core].mem
    }

    /// Backing memory of `core`'s port.
    pub fn port_mem(&self, core: usize) -> &SparseMem {
        &self.ports[core].mem
    }

    /// Functionally reads `bytes` little-endian bytes at `addr` from
    /// core 0's image.
    pub fn read(&self, addr: u64, bytes: u64) -> u64 {
        self.ports[0].mem.read_le(addr, bytes)
    }

    /// Functionally writes the low `bytes` bytes of `val` at `addr` into
    /// core 0's image.
    pub fn write(&mut self, addr: u64, bytes: u64, val: u64) {
        self.ports[0].mem.write_le(addr, bytes, val);
    }

    // ---- timing path -----------------------------------------------------------

    /// Performs the timing walk for one access by `core` and returns when
    /// it completes. Convenience form of [`MemBus::access`] for tests and
    /// single-threaded callers.
    pub fn access(
        &mut self,
        now: Cycle,
        core: usize,
        kind: AccessKind,
        addr: u64,
    ) -> AccessOutcome {
        self.bus(core).access_pc(now, kind, addr, 0)
    }

    /// Like [`MemSystem::access`] but with the accessing PC for prefetcher
    /// training.
    pub fn access_pc(
        &mut self,
        now: Cycle,
        core: usize,
        kind: AccessKind,
        addr: u64,
        pc: u64,
    ) -> AccessOutcome {
        self.bus(core).access_pc(now, kind, addr, pc)
    }

    // ---- observability ---------------------------------------------------------

    /// `core`'s port's record-only attachments: its demand-miss ring and
    /// the host time spent in its timing walks (the `sst-obs` event-sink
    /// contract: traced and profiled runs are byte-identical to plain ones).
    pub fn probes(&mut self, core: usize) -> &mut Probes {
        &mut self.ports[core].probes
    }

    // ---- snapshot / sampling support -------------------------------------------

    /// Serializes the complete mutable state — every port (backing memory,
    /// L1 tags, MSHRs, prefetcher, counters) and the shared L2/DRAM
    /// residue — so a run can resume byte-identically on a freshly built
    /// system of the same configuration. Observability attachments
    /// (traces, host profiles) are excluded: they are record-only.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.tag("MEMS");
        w.put_usize(self.ports.len());
        for p in &self.ports {
            p.put_state(w);
        }
        self.shared.put_state(w);
    }

    /// Restores state written by [`MemSystem::save_state`] on a system
    /// built with the same configuration and core count.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated, corrupt, or configuration-mismatched
    /// input.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag("MEMS")?;
        SnapError::check_size("memory port count", r.take_usize()?, self.ports.len())?;
        for p in &mut self.ports {
            p.take_state(r)?;
        }
        self.shared.take_state(r)
    }

    /// Warms the cache *tags* with one architecturally executed access —
    /// no timing, no MSHRs, no statistics. Functional warming between
    /// sampled measurement intervals drives this: the L1 (and on an L1
    /// miss, the shared L2) observes the reference stream's fills,
    /// recency, and dirtiness, so the next detailed interval starts with
    /// realistic cache contents instead of a cold or stale hierarchy.
    pub fn warm_touch(&mut self, core: usize, kind: AccessKind, addr: u64) {
        let port = &mut self.ports[core];
        let block = port.l1d.block_of(addr);
        let is_fetch = kind == AccessKind::IFetch;
        let write = kind == AccessKind::Store;
        let l1 = if is_fetch {
            &mut port.l1i
        } else {
            &mut port.l1d
        };
        if l1.access(block, write) {
            return;
        }
        if let Some(ev) = l1.fill(block, write) {
            if !is_fetch {
                port.untag_prefetch(ev.addr);
            }
            if ev.dirty {
                self.shared.l2.fill(ev.addr, true);
            }
        }
        if !self.shared.l2.access(block, false) {
            self.shared.l2.fill(block, false);
        }
    }

    /// Drops all in-flight miss state (every L1 and L2 MSHR entry),
    /// keeping tags, counters, and DRAM bank state. The sampled driver
    /// calls this when it teleports cores to a new architectural point:
    /// fills issued on the abandoned path must not linger into the next
    /// measured interval.
    pub fn reset_timing(&mut self) {
        for p in &mut self.ports {
            p.l1i_mshr.clear();
            p.l1d_mshr.clear();
        }
        self.shared.l2_mshr.clear();
    }

    /// Replaces `core`'s functional backing image wholesale. The sampled
    /// driver hands in the reference interpreter's memory after functional
    /// warming (pages it never wrote stay shared with the program image),
    /// so the detailed core executes the measured window against the
    /// architecturally correct bytes.
    pub fn replace_port_mem(&mut self, core: usize, mem: SparseMem) {
        self.ports[core].mem = mem;
    }

    // ---- statistics -----------------------------------------------------------

    /// A snapshot of all statistics, folding in per-structure counters.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::new(self.ports.len());
        for (i, p) in self.ports.iter().enumerate() {
            s.l1i[i] = p.l1i_stats;
            s.l1d[i] = p.l1d_stats;
            s.prefetches += p.prefetches;
            s.useful_prefetches += p.useful_prefetches;
        }
        s.l2 = self.shared.l2_stats;
        s.dram_reads = self.shared.dram.accesses;
        s.dram_row_hits = self.shared.dram.row_hits;
        s.dram_writebacks = self.shared.dram.writebacks;
        s.mshr_merges = self.shared.l2_mshr.merged
            + self
                .ports
                .iter()
                .map(|p| p.l1d_mshr.merged + p.l1i_mshr.merged)
                .sum::<u64>();
        s.mshr_full_delays = self.shared.l2_mshr.full_stalls
            + self
                .ports
                .iter()
                .map(|p| p.l1d_mshr.full_stalls + p.l1i_mshr.full_stalls)
                .sum::<u64>();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(&MemConfig::default(), 1)
    }

    #[test]
    fn block_addresses_spread_over_the_low_hash_bits() {
        // The table indexes with the low bits and tags with the top seven:
        // a run of line-aligned addresses must not collapse in either.
        let hash = |block: u64| {
            let mut h = BlockHasher::default();
            h.write_u64(block);
            h.finish()
        };
        let blocks = (0..512u64).map(|i| 0x100_0000 + i * 64);
        let low: HashSet<u64> = blocks.clone().map(|b| hash(b) & 511).collect();
        let top: HashSet<u64> = blocks.map(|b| hash(b) >> 57).collect();
        assert!(low.len() > 256, "{} of 512 buckets used", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits() {
        let mut ms = sys();
        let a = ms.access(0, 0, AccessKind::Load, 0x4000);
        assert_eq!(a.level, HitLevel::Mem);
        assert!(a.ready_at >= ms.config().mem_round_trip() - ms.config().dram.row_miss_cycles);
        let b = ms.access(a.ready_at + 1, 0, AccessKind::Load, 0x4000);
        assert_eq!(b.level, HitLevel::L1);
        assert_eq!(b.latency(a.ready_at + 1), ms.config().l1_latency);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut ms = sys();
        let mut t = 0;
        // Fill way beyond L1 capacity (32 KiB) but within L2 (2 MiB).
        for i in 0..2048u64 {
            let o = ms.access(t, 0, AccessKind::Load, 0x10_0000 + i * 64);
            t = o.ready_at + 1;
        }
        // First lines have been evicted from L1 but live in L2.
        let o = ms.access(t, 0, AccessKind::Load, 0x10_0000);
        assert_eq!(o.level, HitLevel::L2);
    }

    #[test]
    fn merged_miss_completes_with_primary() {
        let mut ms = sys();
        let a = ms.access(0, 0, AccessKind::Load, 0x8000);
        let b = ms.access(5, 0, AccessKind::Load, 0x8010); // same line
        assert_eq!(a.level, HitLevel::Mem);
        assert_eq!(b.ready_at, a.ready_at.max(5 + ms.config().l1_latency));
        assert_eq!(ms.stats().mshr_merges, 1);
        assert_eq!(ms.stats().dram_reads, 1, "one line fetch");
    }

    #[test]
    fn mshr_capacity_limits_overlap() {
        let cfg = MemConfig {
            l1d_mshrs: 2,
            ..MemConfig::default()
        };
        let mut ms = MemSystem::new(&cfg, 1);
        // Three distinct-line misses at once: third must start after one
        // of the first two completes.
        let a = ms.access(0, 0, AccessKind::Load, 0x10000);
        let b = ms.access(0, 0, AccessKind::Load, 0x20000);
        let c = ms.access(0, 0, AccessKind::Load, 0x30000);
        let first_done = a.ready_at.min(b.ready_at);
        assert!(
            c.ready_at >= first_done + ms.config().dram.base_cycles,
            "third miss serialized: {} vs {}",
            c.ready_at,
            first_done
        );
        assert!(ms.stats().mshr_full_delays > 0);
    }

    #[test]
    fn store_allocates_and_dirties() {
        let mut ms = sys();
        let a = ms.access(0, 0, AccessKind::Store, 0x9000);
        assert_eq!(a.level, HitLevel::Mem, "write-allocate fetches the line");
        let b = ms.access(a.ready_at + 1, 0, AccessKind::Store, 0x9000);
        assert_eq!(b.level, HitLevel::L1);
        // Evict it by conflict to force a writeback.
        let sets = ms.config().l1d.sets() as u64;
        let stride = sets * 64;
        let mut t = b.ready_at + 1;
        for i in 1..=4u64 {
            let o = ms.access(t, 0, AccessKind::Load, 0x9000 + i * stride);
            t = o.ready_at + 1;
        }
        assert!(ms.stats().l1d[0].writebacks >= 1);
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut ms = sys();
        let a = ms.access(0, 0, AccessKind::IFetch, 0x1000);
        assert_eq!(a.level, HitLevel::Mem);
        let st = ms.stats();
        assert_eq!(st.l1i[0].accesses, 1);
        assert_eq!(st.l1d[0].accesses, 0);
        let b = ms.access(a.ready_at, 0, AccessKind::IFetch, 0x1004);
        assert_eq!(b.level, HitLevel::L1, "same line");
    }

    #[test]
    fn cores_have_private_l1_but_shared_l2() {
        let mut ms = MemSystem::new(&MemConfig::default(), 2);
        let a = ms.access(0, 0, AccessKind::Load, 0xa000);
        // Other core: misses its own L1 but hits shared L2.
        let b = ms.access(a.ready_at + 1, 1, AccessKind::Load, 0xa000);
        assert_eq!(b.level, HitLevel::L2);
        let st = ms.stats();
        assert_eq!(st.l1d[0].accesses, 1);
        assert_eq!(st.l1d[1].accesses, 1);
    }

    #[test]
    fn l2_port_contention_serializes_cores() {
        let cfg = MemConfig {
            l2_port_cycles: 10,
            ..MemConfig::default()
        };
        let mut ms = MemSystem::new(&cfg, 2);
        let a = ms.access(0, 0, AccessKind::Load, 0xb000);
        let b = ms.access(0, 1, AccessKind::Load, 0xc000);
        // Same issue cycle: second core's L2 access waits for the port.
        assert!(b.ready_at >= a.ready_at.min(b.ready_at) + 10 - 1);
        assert!(b.ready_at > a.ready_at || a.ready_at > b.ready_at);
    }

    #[test]
    fn software_prefetch_hides_latency() {
        let mut ms = sys();
        let p = ms.access(0, 0, AccessKind::Prefetch, 0xd000);
        assert_eq!(p.ready_at, 0, "nobody waits for a prefetch");
        // Demand access long after the prefetch completes: L1 hit.
        let o = ms.access(2000, 0, AccessKind::Load, 0xd000);
        assert_eq!(o.level, HitLevel::L1);
        assert_eq!(ms.stats().useful_prefetches, 1);
        // Demand access shortly after: merged with in-flight fill.
        let p2 = ms.access(2100, 0, AccessKind::Prefetch, 0xe000);
        let o2 = ms.access(2110, 0, AccessKind::Load, 0xe000);
        assert!(o2.ready_at > 2110 + ms.config().l1_latency);
        assert!(o2.ready_at < 2110 + ms.config().mem_round_trip());
        let _ = p2;
    }

    #[test]
    fn prefetch_credit_is_at_most_once_per_fill() {
        // Policy regression (see `note_useful_prefetch`): the first demand
        // touch converts the prefetch to useful; further touches — e.g.
        // re-execution after a speculation rollback demanding the same
        // line — must not double-credit. There is deliberately no rollback
        // hook in the memory system: a squashed path's touch counts, since
        // the counter measures fill timeliness, not architectural use.
        let mut ms = sys();
        let p = ms.access(0, 0, AccessKind::Prefetch, 0xd000);
        let t = p.ready_at.max(2000);
        let o1 = ms.access(t, 0, AccessKind::Load, 0xd000);
        assert_eq!(o1.level, HitLevel::L1);
        assert_eq!(ms.stats().useful_prefetches, 1);
        let o2 = ms.access(o1.ready_at + 1, 0, AccessKind::Load, 0xd000);
        assert_eq!(o2.level, HitLevel::L1);
        assert_eq!(ms.stats().useful_prefetches, 1, "credit is at-most-once");
        // A fresh prefetch of a *different* line re-arms normally.
        let p2 = ms.access(o2.ready_at + 1, 0, AccessKind::Prefetch, 0x2d000);
        let o3 = ms.access(
            p2.ready_at.max(o2.ready_at + 2000),
            0,
            AccessKind::Load,
            0x2d000,
        );
        assert_eq!(o3.level, HitLevel::L1);
        assert_eq!(ms.stats().useful_prefetches, 2);
    }

    #[test]
    fn evicted_prefetch_is_not_counted_useful() {
        let mut ms = sys();
        let p = ms.access(0, 0, AccessKind::Prefetch, 0xd000);
        let mut t = p.ready_at.max(2000);
        // Conflict-evict the prefetched line: demand-load `ways` other
        // lines mapping to the same set.
        let sets = ms.config().l1d.sets() as u64;
        let stride = sets * ms.config().l1d.line_bytes;
        for i in 1..=ms.config().l1d.ways as u64 {
            let o = ms.access(t, 0, AccessKind::Load, 0xd000 + i * stride);
            t = o.ready_at + 1;
        }
        // The prefetched line is gone from L1D; demanding it now must not
        // credit the long-dead prefetch.
        let o = ms.access(t, 0, AccessKind::Load, 0xd000);
        assert_ne!(o.level, HitLevel::L1, "line was evicted");
        assert_eq!(ms.stats().useful_prefetches, 0);
        // And after the re-fetch, a hit still earns no credit (the line is
        // demand-resident now, not prefetch-resident).
        let o2 = ms.access(o.ready_at + 1, 0, AccessKind::Load, 0xd000);
        assert_eq!(o2.level, HitLevel::L1);
        assert_eq!(ms.stats().useful_prefetches, 0);
    }

    #[test]
    fn stride_prefetcher_trains_and_helps() {
        let cfg = MemConfig {
            prefetch: Some(crate::StrideConfig::default()),
            ..MemConfig::default()
        };
        let mut ms = MemSystem::new(&cfg, 1);
        let mut t = 0;
        let pc = 0x1000;
        let mut slow = 0;
        for i in 0..32u64 {
            let o = ms.access_pc(t, 0, AccessKind::Load, 0x10_0000 + i * 64, pc);
            if o.latency(t) >= ms.config().dram.base_cycles {
                slow += 1;
            }
            t = o.ready_at + 10;
        }
        let st = ms.stats();
        assert!(st.prefetches > 0, "prefetcher fired");
        // Most of the stream is covered (fully or partially) by prefetches;
        // only the training prefix pays the full memory latency.
        assert!(
            slow <= 8,
            "prefetch should hide most latency, {slow}/32 slow"
        );
        assert!(st.useful_prefetches > 0);
    }

    #[test]
    fn functional_rw_independent_of_timing() {
        let mut ms = sys();
        ms.write(0xf000, 8, 0x1234);
        assert_eq!(ms.read(0xf000, 8), 0x1234);
        // No timing access happened.
        assert_eq!(ms.stats().l1d[0].accesses, 0);
    }

    #[test]
    fn bus_and_system_access_agree() {
        // The MemBus form and the MemSystem convenience form are the same
        // walk: interleaving them must behave like one serial stream.
        let mut ms = MemSystem::new(&MemConfig::default(), 2);
        let a = ms.bus(0).access(0, AccessKind::Load, 0x4000);
        let b = ms.access(a.ready_at + 1, 1, AccessKind::Load, 0x4000);
        assert_eq!(a.level, HitLevel::Mem);
        assert_eq!(b.level, HitLevel::L2, "L2 is shared across ports");
        // Functional state is per-port.
        ms.bus(1).write(0x100, 8, 77);
        assert_eq!(ms.bus(1).read(0x100, 8), 77);
        assert_eq!(ms.bus(0).read(0x100, 8), 0, "port images are disjoint");
    }
}
