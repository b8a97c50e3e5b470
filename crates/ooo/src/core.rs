//! The out-of-order pipeline model.

use std::collections::VecDeque;

use sst_isa::{Inst, Program, Reg, Snap, SnapError, SnapReader, SnapState, SnapWriter, NUM_REGS};
use sst_mem::{AccessKind, Cycle, MemBus};
use sst_obs::{Phase, PhaseTable, Probes, Stage};
use sst_uarch::{
    drain_commits, execute, extend_load, mem_addr, Commit, Core, ExecLatency, FetchedInst, Frontend,
    FrontendConfig, LeakageSummary, Seq, SquashCounts, TaintState,
};

/// Configuration of the out-of-order baseline.
#[derive(Clone, Debug)]
pub struct OooConfig {
    /// Frontend (fetch/predict) configuration.
    pub frontend: FrontendConfig,
    /// Functional-unit latencies.
    pub latency: ExecLatency,
    /// Instructions renamed per cycle.
    pub rename_width: usize,
    /// Instructions issued per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Unified issue-queue entries (instructions waiting to issue).
    pub iq_entries: usize,
    /// Load-queue entries. Rename stalls on this only for a load: a
    /// prefetch takes a load-queue record without checking it (and is
    /// violation-checked like a load), so the queue may hold more records
    /// than this. Changing either would move simulated cycles.
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
    /// Memory operations issued per cycle.
    pub dcache_ports: usize,
    /// Speculation-taint tracking (off by default): tag the cache lines
    /// touched by wrong-path work — the phantom walk's prefetches and
    /// loads squashed by a memory-order violation — plus the predictor
    /// and prefetcher state they mutate, and sweep the residue into a
    /// leakage record at each redirect/squash (experiment E13). Purely
    /// observational: runs with the flag on and off are byte-identical;
    /// the summary is reported through `Core::leakage`, never through
    /// `Core::counters`.
    pub taint: bool,
}

impl OooConfig {
    /// A small 2-wide machine with a 32-entry window (area-comparable to
    /// the SST core plus its rename/ROB overhead).
    pub fn ooo_32() -> OooConfig {
        OooConfig {
            frontend: FrontendConfig {
                width: 2,
                ..FrontendConfig::default()
            },
            latency: ExecLatency::default(),
            rename_width: 2,
            issue_width: 2,
            commit_width: 2,
            rob_entries: 32,
            iq_entries: 16,
            lq_entries: 16,
            sq_entries: 12,
            dcache_ports: 1,
            taint: false,
        }
    }

    /// A 4-wide machine with a 64-entry window.
    pub fn ooo_64() -> OooConfig {
        OooConfig {
            frontend: FrontendConfig {
                width: 4,
                ..FrontendConfig::default()
            },
            rename_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_entries: 64,
            iq_entries: 32,
            lq_entries: 24,
            sq_entries: 20,
            dcache_ports: 2,
            ..OooConfig::ooo_32()
        }
    }

    /// A large 4-wide machine with a 128-entry window (the "larger and
    /// higher-powered out-of-order core" of the paper's headline claim).
    pub fn ooo_128() -> OooConfig {
        OooConfig {
            rob_entries: 128,
            iq_entries: 64,
            lq_entries: 48,
            sq_entries: 32,
            ..OooConfig::ooo_64()
        }
    }

    /// Label for reports ("ooo-32", ...).
    pub fn label(&self) -> String {
        format!("ooo-{}", self.rob_entries)
    }
}

/// Statistics of the out-of-order core.
#[derive(Clone, Copy, Debug, Default)]
pub struct OooStats {
    /// Cycles rename stalled: empty decode queue.
    pub stall_frontend: u64,
    /// Cycles rename stalled: ROB full.
    pub stall_rob_full: u64,
    /// Cycles rename stalled: issue queue full.
    pub stall_iq_full: u64,
    /// Cycles rename stalled: load or store queue full.
    pub stall_lsq_full: u64,
    /// Cycles rename stalled waiting for a mispredicted branch to resolve.
    pub stall_branch_resolve: u64,
    /// Mispredicted control transfers.
    pub mispredicts: u64,
    /// Memory-order violations (load issued past a conflicting store).
    pub violations: u64,
    /// Loads served by store-to-load forwarding.
    pub forwards: u64,
    /// Wrong-path loads/stores turned into prefetches while fetch was
    /// blocked on a mispredicted branch.
    pub wrong_path_prefetches: u64,
    /// Instructions issued.
    pub issued: u64,
    /// Peak ROB occupancy.
    pub rob_high_water: usize,
}

sst_isa::snap_record!(OooStats {
    stall_frontend,
    stall_rob_full,
    stall_iq_full,
    stall_lsq_full,
    stall_branch_resolve,
    mispredicts,
    violations,
    forwards,
    wrong_path_prefetches,
    issued,
    rob_high_water,
});

/// Instructions the wrong-path phantom walk may consume per blocked
/// branch (see [`OooCore::phantom_walk`]).
const PHANTOM_LIMIT: usize = 64;

/// Why rename cannot accept an instruction this cycle: the verdict of
/// [`OooCore::rename_gate`], which `rename` acts on and `next_event_cycle` /
/// `skip_to` vouch and charge by.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RenameStall {
    /// Waiting for a mispredicted branch to resolve (the phantom walk runs
    /// meanwhile).
    BranchResolve,
    /// Decode queue empty.
    Frontend,
    /// Reorder buffer full.
    RobFull,
    /// Issue queue full.
    IqFull,
    /// Load or store queue full.
    LsqFull,
}

impl RenameStall {
    /// Charges `n` stalled cycles to this stall's counter.
    #[inline]
    fn charge(self, s: &mut OooStats, n: u64) {
        let counter = match self {
            RenameStall::BranchResolve => &mut s.stall_branch_resolve,
            RenameStall::Frontend => &mut s.stall_frontend,
            RenameStall::RobFull => &mut s.stall_rob_full,
            RenameStall::IqFull => &mut s.stall_iq_full,
            RenameStall::LsqFull => &mut s.stall_lsq_full,
        };
        *counter += n;
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EntryState {
    /// Waiting in the issue queue for its sources.
    Waiting,
    /// Executing; result ready at the given cycle.
    Issued(Cycle),
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: Seq,
    pc: u64,
    inst: Inst,
    state: EntryState,
    /// Physical sources (None = no register / always-ready). Physical
    /// register numbers are `u32` here to keep the entry small.
    srcs: [Option<u32>; 2],
    dest_phys: Option<u32>,
    old_phys: Option<u32>,
    /// Future-file value of the destination before this instruction.
    old_future: u64,
    /// Architectural result (computed functionally at rename).
    value: Option<u64>,
    /// Control: resolved next PC differed from the prediction.
    mispredicted: bool,
    /// Resolved next PC for control instructions.
    actual_next: u64,
    /// A load's, prefetch's or store's record number in its queue.
    mem_slot: u32,
}

/// An in-flight store: its store-queue record, from rename to commit.
/// Queue records are numbered in push order (wrapping `u32`); the record
/// numbered `n` sits at `n - popped`, `popped` counting the records
/// committed from the front since the queue was last rebuilt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SqEntry {
    seq: Seq,
    addr: u64,
    bytes: u64,
    /// The stored value (known functionally at rename).
    value: u64,
    /// Issued: the address is resolved and younger loads may forward.
    executed: bool,
    /// The number of the first load renamed after it.
    loads_before: u32,
}

/// An in-flight load or prefetch: its load-queue record, from rename to
/// commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LqEntry {
    seq: Seq,
    pc: u64,
    addr: u64,
    bytes: u64,
    /// Issued: the access has performed, from memory or by forwarding.
    executed: bool,
    /// The store whose value it forwarded, if any.
    forwarded_from: Option<Seq>,
    /// The number of the first store renamed after it.
    stores_before: u32,
}

/// A window entry as a snapshot holds it: physical registers widened to
/// `u64`, and the memory fields its load- or store-queue record keeps —
/// `(addr, bytes, is_store, store value)` and the forwarding store.
struct SavedEntry {
    seq: Seq,
    pc: u64,
    inst: Inst,
    state: EntryState,
    srcs: [Option<u64>; 2],
    dest_phys: Option<u64>,
    old_phys: Option<u64>,
    old_future: u64,
    value: Option<u64>,
    mem: Option<(u64, u64, bool, u64)>,
    forwarded_from: Option<Seq>,
    /// Issued (the state says it; not read back).
    executed: bool,
    mispredicted: bool,
    actual_next: u64,
}

sst_isa::snap_record!(SavedEntry {
    seq,
    pc,
    inst,
    state,
    srcs,
    dest_phys,
    old_phys,
    old_future,
    value,
    mem,
    forwarded_from,
    executed,
    mispredicted,
    actual_next,
});

/// `Waiting` as a 0 byte; `Issued(done_at)` as a 1 byte and the cycle.
impl Snap for EntryState {
    fn put(&self, w: &mut SnapWriter) {
        match *self {
            EntryState::Waiting => w.put_u8(0),
            EntryState::Issued(done_at) => {
                w.put_u8(1);
                w.put_u64(done_at);
            }
        }
    }

    fn take(r: &mut SnapReader<'_>) -> Result<EntryState, SnapError> {
        match r.take_u8()? {
            0 => Ok(EntryState::Waiting),
            1 => Ok(EntryState::Issued(r.take_u64()?)),
            b => Err(SnapError::Corrupt(format!("invalid window-entry state byte {b}"))),
        }
    }
}

/// One waiting instruction the issue scan can select: what the scan
/// compares each cycle, so that it reads the (much larger) window entry
/// only for an instruction it is about to issue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct IqEntry {
    seq: Seq,
    /// When the last source arrives: the maximum of the sources'
    /// `phys_ready`, all of them known.
    ready_at: Cycle,
}

/// The out-of-order baseline core.
pub struct OooCore {
    cfg: OooConfig,
    id: usize,
    frontend: Frontend,
    /// Rename-time architectural values (future file).
    future: [u64; 64],
    /// Architectural-to-physical map.
    rat: [usize; 64],
    /// Physical-register readiness times.
    phys_ready: Vec<Cycle>,
    free: Vec<usize>,
    rob: VecDeque<RobEntry>,
    /// The select list of the issue queue: the window's `Waiting` entries
    /// whose producers have all issued, oldest first. Derived from `rob` +
    /// `phys_ready` (rebuilt on restore, never serialized): rename appends
    /// an instruction whose sources are all timed, an issuing producer
    /// inserts the dependents it was the last to hold back (`wakers`), and
    /// issue / squash remove. The scan and `issue_wake` read one word per
    /// listed instruction; one that still waits for a producer to issue
    /// cannot be selected and is not looked at.
    iq: Vec<IqEntry>,
    /// Per physical register: the instructions that were renamed while its
    /// producer had not issued, to be looked at again when it does. A
    /// squash leaves the sequence numbers of the entries it removed
    /// behind; they are harmless because a wake-up recomputes from the
    /// window entry that carries the number *now* (or finds none), and the
    /// list is cleared when its register is next allocated.
    wakers: Vec<Vec<Seq>>,
    /// Issue-queue occupancy, maintained incrementally at rename / issue /
    /// squash (`rename` consults it once per slot).
    n_waiting: usize,
    /// The store queue: the window's stores, oldest first. Rename pushes,
    /// commit pops the front, a squash pops the back; memory ordering
    /// (`read_through_sq`, `lookup_forward`) reads it, never the window.
    sq: VecDeque<SqEntry>,
    /// The load queue: the window's loads and prefetches, oldest first,
    /// kept like `sq`; `find_violation` reads it. A prefetch takes a record
    /// though rename checks `lq_entries` only for a load, so the length may
    /// exceed `lq_entries`.
    lq: VecDeque<LqEntry>,
    /// Records committed from the front of `sq` / `lq` (see `SqEntry`).
    sq_popped: u32,
    lq_popped: u32,
    seq: Seq,
    cycle: Cycle,
    /// Cycles spent clock-gated ([`Core::gate_to`]); every other cycle is
    /// a `normal` one.
    gated: Cycle,
    halted: bool,
    /// Renaming is blocked until the mispredicted branch at this seq
    /// executes and redirects fetch.
    fetch_blocked_on: Option<Seq>,
    /// Shadow register values and poison bits for the wrong-path phantom
    /// walk (see `phantom_walk`); live while renaming is blocked. A
    /// poisoned register holds a value that would not have arrived in time
    /// on the real wrong path (a missing load or its dependents).
    phantom: Option<([u64; 64], [bool; 64])>,
    /// Instructions consumed by the current phantom walk (bounded).
    phantom_count: usize,
    /// Cycles strictly before this one are vouched issue no-ops: a scan
    /// that issued nothing records the earliest `ready_at` it saw, and
    /// nothing else advances readiness — rename (which adds entries)
    /// resets this to 0. Lets `tick` skip the scan altogether while the
    /// window drains a long miss.
    issue_quiet_until: Cycle,
    /// Speculation-taint tracker (experiment E13); `None` unless
    /// [`OooConfig::taint`] is set, so the disabled path costs one
    /// discriminant test per hook.
    taint: Option<Box<TaintState>>,
    /// Event ring and host stage timers (`Core::probes`), record-only. The
    /// OoO core's track is one `normal` span (broken only by `gated`
    /// windows) plus ROB-occupancy samples.
    probes: Probes,
    commits: Vec<Commit>,
    /// Window entries the issue scan has read (work-counter tests).
    #[cfg(test)]
    issue_rob_reads: u64,
    /// Memory-order checks (work-counter tests): per check, the sequence
    /// number it ran for, the queue records it read and the queue's length.
    #[cfg(test)]
    mem_order_reads: std::cell::RefCell<Vec<(Seq, usize, usize)>>,
    /// Statistics.
    pub stats: OooStats,
}

impl OooCore {
    /// Creates a core with index `id` starting at `program.entry`. The
    /// caller loads the program image into the core's memory port.
    pub fn new(cfg: OooConfig, id: usize, program: &Program) -> OooCore {
        let phys_count = 64 + cfg.rob_entries;
        let mut free: Vec<usize> = (64..phys_count).rev().collect();
        free.shrink_to_fit();
        let taint = cfg.taint.then(|| Box::new(TaintState::new()));
        OooCore {
            frontend: Frontend::new(cfg.frontend, program),
            cfg,
            id,
            future: [0; 64],
            rat: std::array::from_fn(|i| i),
            phys_ready: vec![0; phys_count],
            free,
            rob: VecDeque::new(),
            iq: Vec::new(),
            wakers: vec![Vec::new(); phys_count],
            n_waiting: 0,
            sq: VecDeque::new(),
            lq: VecDeque::new(),
            sq_popped: 0,
            lq_popped: 0,
            seq: 0,
            cycle: 0,
            gated: 0,
            halted: false,
            fetch_blocked_on: None,
            phantom: None,
            phantom_count: 0,
            issue_quiet_until: 0,
            taint,
            probes: Probes::default(),
            commits: Vec::new(),
            #[cfg(test)]
            issue_rob_reads: 0,
            #[cfg(test)]
            mem_order_reads: Default::default(),
            stats: OooStats::default(),
        }
    }

    /// The frontend (prediction statistics).
    pub fn frontend(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// Current future-file value of a register (tests).
    pub fn future_value(&self, r: Reg) -> u64 {
        self.future[r.index()]
    }

    /// Checks the derived state against the window: the select list is the
    /// `Waiting` entries whose sources are all timed, in program order, each
    /// with the readiness its sources give it now, the occupancy count
    /// matches, and the store and load queues hold one record per window
    /// store and per window load or prefetch, in order, each agreeing with
    /// its entry and numbered where it sits. Debug builds assert this every
    /// tick; release builds never call it.
    fn counts_consistent(&self) -> bool {
        let waiting = || self.rob.iter().filter(|e| e.state == EntryState::Waiting);
        let selectable = waiting()
            .map(|e| IqEntry {
                seq: e.seq,
                ready_at: sources_ready(&self.phys_ready, e.srcs),
            })
            .filter(|w| w.ready_at != Cycle::MAX);
        let issued = |e: &RobEntry| e.state != EntryState::Waiting;
        let stores = self.rob.iter().filter(|e| e.inst.is_store());
        let loads = self.rob.iter().filter(|e| e.inst.is_mem() && !e.inst.is_store());
        let at = |n: u32, popped: u32| n.wrapping_sub(popped) as usize;
        let sq_matches = self.sq.len() == stores.clone().count()
            && self.sq.iter().zip(stores).enumerate().all(|(i, (s, e))| {
                (s.seq, s.bytes, s.executed) == (e.seq, access_bytes(e.inst), issued(e))
                    && at(e.mem_slot, self.sq_popped) == i
                    && at(s.loads_before, self.lq_popped)
                        == self.lq.partition_point(|l| l.seq < s.seq)
            });
        let lq_matches = self.lq.len() == loads.clone().count()
            && self.lq.iter().zip(loads).enumerate().all(|(i, (l, e))| {
                (l.seq, l.pc, l.bytes, l.executed) == (e.seq, e.pc, access_bytes(e.inst), issued(e))
                    && at(e.mem_slot, self.lq_popped) == i
                    && at(l.stores_before, self.sq_popped)
                        == self.sq.partition_point(|s| s.seq < l.seq)
            });
        self.iq.iter().copied().eq(selectable)
            && self.n_waiting == waiting().count()
            && sq_matches
            && lq_matches
    }

    /// Rebuilds the issue queue's derived state from the window, after a
    /// restore or a warm boot.
    fn rebuild_issue_queue(&mut self) {
        self.iq.clear();
        self.wakers.iter_mut().for_each(Vec::clear);
        self.n_waiting = 0;
        for e in &self.rob {
            if e.state == EntryState::Waiting {
                self.n_waiting += 1;
                enqueue(&mut self.iq, &mut self.wakers, &self.phys_ready, e.seq, e.srcs);
            }
        }
    }

    // ------------------------------------------------------------- rename

    /// While fetch is blocked on a mispredicted branch, a real machine
    /// keeps fetching and executing down the wrong path; the useful side
    /// effect is prefetching (wrong-path loads frequently target
    /// correct-path data beyond a reconvergence point). This walk models
    /// that benefit *generously*: wrong-path instructions execute against
    /// shadow registers at zero timing cost, and their memory references
    /// become prefetches. Without it the OoO baseline would be unfairly
    /// denied a real machine's wrong-path prefetching.
    fn phantom_walk(&mut self, now: Cycle, mem: &mut MemBus) {
        /// A wrong-path load slower than this poisons its consumers: its
        /// data would not return before the mispredicted branch resolves.
        const POISON_LATENCY: u64 = 30;
        // Taint attributes every wrong-path touch to the blocking branch's
        // sequence number; the redirect sweeps that epoch.
        let bseq = self.fetch_blocked_on.unwrap_or(self.seq);
        let (shadow, poison) = self
            .phantom
            .get_or_insert((self.future, [false; 64]));
        for _ in 0..self.cfg.rename_width {
            let Some(f) = phantom_head(self.phantom_count, &self.frontend) else {
                return;
            };
            self.frontend.pop();
            self.phantom_count += 1;
            let inst = f.inst;
            let srcs = inst.sources();
            let s1 = srcs[0].map_or(0, |r| shadow[r.index()]);
            let s2 = srcs[1].map_or(0, |r| shadow[r.index()]);
            let any_poison = srcs
                .iter()
                .flatten()
                .any(|r| poison[r.index()]);
            match inst {
                Inst::Load {
                    width, signed, rd, ..
                } => {
                    if any_poison {
                        // Address chain is unavailable on the real wrong
                        // path: no prefetch, destination poisoned.
                        if !rd.is_zero() {
                            poison[rd.index()] = true;
                        }
                        continue;
                    }
                    let addr = mem_addr(inst, s1);
                    let out = mem.access_pc(now, AccessKind::Prefetch, addr, f.pc);
                    self.stats.wrong_path_prefetches += 1;
                    if let Some(t) = self.taint.as_mut() {
                        t.note_line(bseq, mem.block_of(addr));
                        t.note_training(bseq);
                    }
                    if out.level == sst_mem::HitLevel::Mem && out.latency(now) > POISON_LATENCY {
                        if !rd.is_zero() {
                            poison[rd.index()] = true;
                        }
                    } else if !rd.is_zero() {
                        let raw = mem.read(addr, width.bytes());
                        shadow[rd.index()] = extend_load(width, signed, raw);
                        poison[rd.index()] = false;
                    }
                }
                Inst::Store { .. } | Inst::Prefetch { .. } => {
                    if srcs[0].is_some_and(|r| poison[r.index()]) {
                        continue; // address unknown on the real wrong path
                    }
                    let addr = mem_addr(inst, s1);
                    mem.access_pc(now, AccessKind::Prefetch, addr, f.pc);
                    self.stats.wrong_path_prefetches += 1;
                    if let Some(t) = self.taint.as_mut() {
                        t.note_line(bseq, mem.block_of(addr));
                        t.note_training(bseq);
                    }
                }
                _ => {
                    let out = execute(inst, s1, s2, f.pc);
                    if let (Some(v), Some(rd)) = (out.value, inst.dest()) {
                        shadow[rd.index()] = v;
                        poison[rd.index()] = any_poison;
                    }
                    // Control flow follows the frontend's own predicted
                    // path (the queue was fetched that way).
                }
            }
        }
    }

    /// Rename's stall decision for the head of the decode queue: the head,
    /// or why it cannot be renamed. `rename` calls it per slot to act;
    /// `next_event_cycle` and `skip_to` call it to vouch an idle window and
    /// to charge it.
    #[inline]
    fn rename_gate(&self) -> Result<FetchedInst, RenameStall> {
        if self.fetch_blocked_on.is_some() {
            return Err(RenameStall::BranchResolve);
        }
        let Some(&f) = self.frontend.peek() else {
            return Err(RenameStall::Frontend);
        };
        if self.rob.len() >= self.cfg.rob_entries {
            return Err(RenameStall::RobFull);
        }
        if self.n_waiting >= self.cfg.iq_entries {
            return Err(RenameStall::IqFull);
        }
        if f.inst.is_load() && self.lq.len() >= self.cfg.lq_entries {
            return Err(RenameStall::LsqFull);
        }
        if f.inst.is_store() && self.sq.len() >= self.cfg.sq_entries {
            return Err(RenameStall::LsqFull);
        }
        Ok(f)
    }

    fn rename(&mut self, now: Cycle, mem: &mut MemBus) {
        for slot in 0..self.cfg.rename_width {
            if self.halted {
                break;
            }
            let f = match self.rename_gate() {
                Ok(f) => f,
                Err(stall) => {
                    // An empty decode queue counts only a fully idle cycle.
                    if slot == 0 || stall != RenameStall::Frontend {
                        stall.charge(&mut self.stats, 1);
                    }
                    if stall == RenameStall::BranchResolve {
                        self.phantom_walk(now, mem);
                    }
                    break;
                }
            };
            let inst = f.inst;

            self.frontend.pop();
            self.seq += 1;
            let seq = self.seq;

            // Physical sources.
            let srcs = inst.sources().map(|s| s.map(|r| self.rat[r.index()] as u32));

            // Functional execution against the future file (rename order is
            // program order on the correct path, so these values are
            // architecturally exact).
            let s1 = inst.sources()[0].map_or(0, |r| self.future[r.index()]);
            let s2 = inst.sources()[1].map_or(0, |r| self.future[r.index()]);

            let mut value = None;
            let mut actual_next = f.pc.wrapping_add(4);
            let mut taken = false;
            match inst {
                Inst::Load {
                    width, signed, ..
                } => {
                    let addr = mem_addr(inst, s1);
                    // Architectural load value: backing memory (committed
                    // stores) overlaid with the in-flight store queue.
                    let raw = self.read_through_sq(mem, seq, addr, width.bytes());
                    value = Some(extend_load(width, signed, raw));
                }
                Inst::Store { .. } | Inst::Prefetch { .. } | Inst::Halt => {}
                _ => {
                    let out = execute(inst, s1, s2, f.pc);
                    value = out.value;
                    actual_next = out.next_pc;
                    taken = out.taken;
                }
            }

            // Rename the destination.
            let (dest_phys, old_phys, old_future) = match inst.dest() {
                Some(rd) => {
                    let p = self.free.pop().expect("phys regs cover ROB size");
                    let old = self.rat[rd.index()];
                    self.rat[rd.index()] = p;
                    let old_future = self.future[rd.index()];
                    self.future[rd.index()] =
                        value.expect("dest implies a value");
                    self.phys_ready[p] = Cycle::MAX; // until executed
                    self.wakers[p].clear(); // what a squash left behind
                    (Some(p as u32), Some(old as u32), old_future)
                }
                None => (None, None, 0),
            };

            let mispredicted = inst.is_control() && actual_next != f.pred_next_pc;
            if inst.is_control() {
                self.frontend.resolve(f.pc, inst, taken, actual_next);
            }

            self.n_waiting += 1;
            enqueue(&mut self.iq, &mut self.wakers, &self.phys_ready, seq, srcs);
            let mut entry = RobEntry {
                seq,
                pc: f.pc,
                inst,
                state: EntryState::Waiting,
                srcs,
                dest_phys,
                old_phys,
                old_future,
                value,
                mispredicted,
                actual_next,
                mem_slot: 0,
            };
            if inst.is_mem() {
                entry.mem_slot = self.push_mem(&entry, mem_addr(inst, s1), s2, None);
            }
            self.rob.push_back(entry);
            self.stats.rob_high_water = self.stats.rob_high_water.max(self.rob.len());
            // A fresh entry may be issuable immediately: drop the memo.
            self.issue_quiet_until = 0;

            if inst == Inst::Halt {
                // Stop consuming; the halt commits when it reaches the head.
                break;
            }
            if mispredicted {
                self.stats.mispredicts += 1;
                self.fetch_blocked_on = Some(seq);
                break;
            }
        }
    }

    /// Files the memory record of window entry `e`, a load, prefetch or
    /// store (`value` counts for a store only), at the back of its queue and
    /// returns the record's number.
    fn push_mem(&mut self, e: &RobEntry, addr: u64, value: u64, fwd: Option<Seq>) -> u32 {
        let next_store = self.sq_popped.wrapping_add(self.sq.len() as u32);
        let next_load = self.lq_popped.wrapping_add(self.lq.len() as u32);
        let (seq, bytes) = (e.seq, access_bytes(e.inst));
        let executed = e.state != EntryState::Waiting;
        if e.inst.is_store() {
            let loads_before = next_load;
            self.sq.push_back(SqEntry { seq, addr, bytes, value, executed, loads_before });
            next_store
        } else {
            let (pc, forwarded_from, stores_before) = (e.pc, fwd, next_store);
            let l = LqEntry { seq, pc, addr, bytes, executed, forwarded_from, stores_before };
            self.lq.push_back(l);
            next_load
        }
    }

    /// The architectural bytes the load `seq`, being renamed, reads:
    /// backing memory overlaid, in program order, with the in-flight
    /// (uncommitted) stores — all older than it, their values known
    /// functionally at rename.
    fn read_through_sq(&self, mem: &MemBus, seq: Seq, addr: u64, bytes: u64) -> u64 {
        let mut buf = mem.mem().read_le(addr, bytes).to_le_bytes();
        #[cfg(test)]
        self.note_mem_order_check(seq, self.sq.len(), self.sq.len());
        let l_end = addr + bytes;
        for s in &self.sq {
            debug_assert!(s.seq < seq);
            if addr >= s.addr + s.bytes || s.addr >= l_end {
                continue;
            }
            for i in 0..s.bytes {
                let byte_addr = s.addr + i;
                if byte_addr >= addr && byte_addr < l_end {
                    buf[(byte_addr - addr) as usize] = (s.value >> (8 * i)) as u8;
                }
            }
        }
        let raw = u64::from_le_bytes(buf);
        if bytes == 8 {
            raw
        } else {
            raw & ((1u64 << (bytes * 8)) - 1)
        }
    }

    // ------------------------------------------------------------- issue

    fn issue(&mut self, now: Cycle, mem: &mut MemBus) {
        let mut issued = 0;
        let mut mem_ops = 0;
        let mut squash_at: Option<(Seq, u64)> = None;
        let mut redirect: Option<(Cycle, u64)> = None;

        // Earliest source-arrival among still-waiting entries, collected
        // during the scan itself; on a zero-issue scan it becomes the
        // issue-quiet memo (no extra walk). Entries that are ready but
        // held back for another reason (port, store data) must retry next
        // cycle, so they pin the memo to "scan again".
        let mut wake = Cycle::MAX;
        let mut blocked_now = false;

        // Oldest first over the select list, compacting it in place: `at`
        // reads, `kept` writes the entries that stay. The list leaves
        // `self` for the scan so the window helpers can borrow the core.
        let mut iq = std::mem::take(&mut self.iq);
        let head_seq = self.rob.front().map_or(0, |e| e.seq);
        let mut kept = 0;
        let mut at = 0;
        while at < iq.len() {
            if issued >= self.cfg.issue_width {
                blocked_now = true;
                break;
            }
            let waiting = iq[at];
            at += 1;
            // Source readiness.
            if waiting.ready_at > now {
                wake = wake.min(waiting.ready_at);
                iq[kept] = waiting;
                kept += 1;
                continue;
            }

            let idx = (waiting.seq - head_seq) as usize;
            let e = &self.rob[idx];
            debug_assert!(e.seq == waiting.seq && e.state == EntryState::Waiting);
            #[cfg(test)]
            {
                self.issue_rob_reads += 1;
            }
            let (inst, mem_slot) = (e.inst, e.mem_slot);
            let mut held_back = false;
            let mut done_at = now + 1;
            if inst.is_mem() && mem_ops >= self.cfg.dcache_ports {
                held_back = true;
            } else if inst.is_store() {
                // Store: address+data resolved. Check younger executed
                // loads for a memory-order violation.
                let at_sq = mem_slot.wrapping_sub(self.sq_popped) as usize;
                self.sq[at_sq].executed = true;
                if let Some(v) = self.find_violation(&self.sq[at_sq]) {
                    self.stats.violations += 1;
                    squash_at = Some(v);
                    self.rob[idx].state = EntryState::Issued(now + 1);
                    self.n_waiting -= 1;
                    break;
                }
            } else if inst.is_mem() {
                // Load (or prefetch): forwarding / memory.
                let at_lq = mem_slot.wrapping_sub(self.lq_popped) as usize;
                let l = self.lq[at_lq];
                match self.lookup_forward(&l) {
                    ForwardState::Forward(from) => {
                        self.stats.forwards += 1;
                        self.lq[at_lq].forwarded_from = Some(from);
                        done_at = now + 2;
                    }
                    ForwardState::WaitData => held_back = true,
                    ForwardState::Memory => {
                        mem_ops += 1;
                        let kind = if matches!(inst, Inst::Prefetch { .. }) {
                            AccessKind::Prefetch
                        } else {
                            AccessKind::Load
                        };
                        let out = mem.access_pc(now, kind, l.addr, l.pc);
                        done_at = out.ready_at.max(now + 1);
                    }
                }
                self.lq[at_lq].executed = !held_back;
            } else {
                done_at = now + self.cfg.latency.of(inst);
            }
            if held_back {
                // Port taken or store data not drained: retry next cycle.
                blocked_now = true;
                iq[kept] = waiting;
                kept += 1;
                continue;
            }

            self.n_waiting -= 1;
            let e = &mut self.rob[idx];
            e.state = EntryState::Issued(done_at);
            if e.mispredicted {
                redirect = Some((done_at, e.actual_next));
            }
            if let Some(p) = e.dest_phys {
                let p = p as usize;
                self.phys_ready[p] = done_at;
                self.wake_dependents(p, head_seq, &mut iq, at);
            }
            issued += 1;
            self.stats.issued += 1;
        }
        let unread = iq.len() - at;
        iq.copy_within(at.., kept);
        iq.truncate(kept + unread);
        self.iq = iq;

        if let Some((done_at, target)) = redirect {
            // The wrong-path episode ends here: sweep whatever the phantom
            // walk left behind (lines, trainings) into a leakage record
            // before the walk state is torn down.
            if let (Some(t), Some(bseq)) = (self.taint.as_mut(), self.fetch_blocked_on) {
                t.sweep(bseq, now, false, mem, SquashCounts::default());
            }
            self.frontend.redirect(done_at, target);
            self.fetch_blocked_on = None;
            self.phantom = None;
            self.phantom_count = 0;
        }
        if let Some((seq, pc)) = squash_at {
            self.squash_from(now, seq, pc, mem);
        }

        // Nothing issued and nothing can retry sooner: the scan is a
        // provable no-op until `wake` (rename resets the memo when it adds
        // an entry). An issuing or blocked scan reruns next cycle.
        self.issue_quiet_until = if issued == 0 && !blocked_now && squash_at.is_none() {
            wake
        } else {
            0
        };
    }

    /// The producer of physical register `p` has just issued: the
    /// instructions renamed while it was pending whose other source is
    /// timed too become selectable. They are younger than the producer, so
    /// their place is in the unread rest of the list, `iq[at..]` (sorted by
    /// sequence number). Each is judged by the window entry that holds its
    /// number now, which is what makes a number left behind by a squash
    /// harmless: it names nothing, or an instruction that is not waiting,
    /// or one the list has already (then the refresh changes nothing).
    fn wake_dependents(&mut self, p: usize, head_seq: Seq, iq: &mut Vec<IqEntry>, at: usize) {
        let mut list = std::mem::take(&mut self.wakers[p]);
        for seq in list.drain(..) {
            let Some(e) = self.rob.get(seq.wrapping_sub(head_seq) as usize) else {
                continue;
            };
            let ready_at = sources_ready(&self.phys_ready, e.srcs);
            if e.state != EntryState::Waiting || ready_at == Cycle::MAX {
                continue;
            }
            match iq[at..].binary_search_by_key(&seq, |w| w.seq) {
                Ok(i) => iq[at + i].ready_at = ready_at,
                Err(i) => iq.insert(at + i, IqEntry { seq, ready_at }),
            }
        }
        self.wakers[p] = list; // keep the allocation
    }

    /// Forwarding decision for the load (or prefetch) `l`: the youngest
    /// overlapping store older than it decides.
    fn lookup_forward(&self, l: &LqEntry) -> ForwardState {
        let (addr, l_end) = (l.addr, l.addr + l.bytes);
        let older = l.stores_before.wrapping_sub(self.sq_popped) as usize;
        let hit = self
            .sq
            .range(..older)
            .rev()
            .position(|s| addr < s.addr + s.bytes && s.addr < l_end);
        #[cfg(test)]
        self.note_mem_order_check(l.seq, hit.map_or(older, |i| i + 1), self.sq.len());
        let Some(i) = hit else {
            return ForwardState::Memory;
        };
        let s = &self.sq[older - 1 - i];
        if !s.executed {
            // Unresolved older store: speculate past it (aggressive
            // disambiguation); a violation squash fixes mistakes.
            ForwardState::Memory
        } else if s.addr <= addr && l_end <= s.addr + s.bytes {
            ForwardState::Forward(s.seq)
        } else {
            // Partial overlap with a resolved store: wait for it to drain
            // (conservative but rare).
            ForwardState::WaitData
        }
    }

    /// The store `s`, resolving, finds the oldest younger executed load (or
    /// prefetch) it overlaps that did not forward from it or from anything
    /// younger: that load read a stale value.
    fn find_violation(&self, s: &SqEntry) -> Option<(Seq, u64)> {
        let (seq, addr, s_end) = (s.seq, s.addr, s.addr + s.bytes);
        let younger = s.loads_before.wrapping_sub(self.lq_popped) as usize;
        let hit = self.lq.range(younger..).position(|l| {
            l.executed
                && l.addr < s_end
                && addr < l.addr + l.bytes
                && !l.forwarded_from.is_some_and(|from| from >= seq)
        });
        #[cfg(test)]
        {
            let read = hit.map_or(self.lq.len() - younger, |i| i + 1);
            self.note_mem_order_check(seq, read, self.lq.len());
        }
        hit.map(|i| {
            let l = &self.lq[younger + i];
            (l.seq, l.pc)
        })
    }

    /// Logs one memory-order check for the work-counter tests.
    #[cfg(test)]
    fn note_mem_order_check(&self, seq: Seq, read: usize, queue_len: usize) {
        self.mem_order_reads.borrow_mut().push((seq, read, queue_len));
    }

    // ------------------------------------------------------------- squash

    /// Squashes every entry with `seq >= from` and refetches from `pc`.
    fn squash_from(&mut self, now: Cycle, from: Seq, pc: u64, mem: &mut MemBus) {
        self.iq.truncate(self.iq.partition_point(|w| w.seq < from));
        while let Some(e) = self.rob.back() {
            if e.seq < from {
                break;
            }
            let e = self.rob.pop_back().expect("checked back");
            if e.state == EntryState::Waiting {
                self.n_waiting -= 1;
            }
            let load = if e.inst.is_store() {
                self.sq.pop_back();
                None
            } else if e.inst.is_mem() {
                self.lq.pop_back()
            } else {
                None
            };
            if let Some(t) = self.taint.as_mut() {
                // Squashed loads that went to memory (not forwarded) left
                // fills behind; squashed control already trained the
                // predictor at rename. Record both for the sweep below.
                if let Some(l) = load.filter(|l| l.executed && l.forwarded_from.is_none()) {
                    t.note_line(e.seq, mem.block_of(l.addr));
                    t.note_training(e.seq);
                }
                if e.inst.is_control() {
                    t.note_predictor(e.seq);
                }
            }
            if let (Some(dest), Some(old)) = (e.dest_phys, e.old_phys) {
                let rd = e.inst.dest().expect("dest_phys implies dest");
                self.rat[rd.index()] = old as usize;
                self.future[rd.index()] = e.old_future;
                self.free.push(dest as usize);
            }
        }
        if let Some(t) = self.taint.as_mut() {
            t.sweep(from, now, false, mem, SquashCounts::default());
        }
        self.seq = from - 1;
        if self
            .fetch_blocked_on
            .is_some_and(|s| s >= from)
        {
            self.fetch_blocked_on = None;
            self.phantom = None;
            self.phantom_count = 0;
        }
        self.frontend.redirect(now + 1, pc);
    }

    // ------------------------------------------------------- idle wake-up

    /// When the ROB head could commit: the head's completion time, or
    /// `Cycle::MAX` while it is still waiting to issue (the issue wake
    /// covers that) or the ROB is empty (the rename wake covers that).
    fn commit_wake(&self, now: Cycle) -> Cycle {
        match self.rob.front() {
            Some(e) => match e.state {
                EntryState::Issued(done_at) => done_at.max(now),
                EntryState::Waiting => Cycle::MAX,
            },
            None => Cycle::MAX,
        }
    }

    /// When the issue stage could next act: `now` if any waiting entry has
    /// timing-ready sources (ports or width may still hold it back — not
    /// skippable), else the earliest known source-ready time — the select
    /// list's minimum. Entries whose producer has not issued yet are not
    /// on the list and are woken transitively through their producer's own
    /// wake.
    fn issue_wake(&self, now: Cycle) -> Cycle {
        self.iq
            .iter()
            .map(|w| w.ready_at)
            .min()
            .map_or(Cycle::MAX, |t| t.max(now))
    }

    // ------------------------------------------------------------- commit

    fn commit(&mut self, now: Cycle, mem: &mut MemBus) {
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else {
                break;
            };
            let EntryState::Issued(done_at) = head.state else {
                break;
            };
            if done_at > now {
                break;
            }
            let e = self.rob.pop_front().expect("checked front");
            let mut store = None;
            let addr = if e.inst.is_store() {
                let s = self.sq.pop_front().expect("a store has a store-queue record");
                self.sq_popped = self.sq_popped.wrapping_add(1);
                mem.access(now, AccessKind::Store, s.addr);
                mem.write(s.addr, s.bytes, s.value);
                store = Some((s.addr, s.bytes, s.value));
                Some(s.addr)
            } else if e.inst.is_mem() {
                self.lq_popped = self.lq_popped.wrapping_add(1);
                self.lq.pop_front().map(|l| l.addr)
            } else {
                None
            };
            if let (Some(t), Some(addr)) = (self.taint.as_mut(), addr) {
                // A committed access is architectural demand for its line:
                // it no longer counts toward the leaked footprint.
                t.note_architectural(mem.block_of(addr));
            }
            if let Some(old) = e.old_phys {
                self.free.push(old as usize);
            }
            let reg_write = match (e.inst.dest(), e.value) {
                (Some(rd), Some(v)) => Some((rd, v)),
                _ => None,
            };
            self.commits.push(Commit {
                seq: e.seq,
                pc: e.pc,
                inst: e.inst,
                reg_write,
                store,
                at: now,
            });
            if e.inst == Inst::Halt {
                self.halted = true;
                break;
            }
        }
    }
}

/// The next instruction the wrong-path phantom walk consumes, given how many
/// it has consumed: it does real (prefetching) work only while it has
/// budget and a non-halt instruction to consume.
#[inline]
fn phantom_head(consumed: usize, frontend: &Frontend) -> Option<FetchedInst> {
    if consumed >= PHANTOM_LIMIT {
        return None;
    }
    frontend.peek().copied().filter(|f| f.inst != Inst::Halt)
}

/// When the last of `srcs` arrives (0 with no register source).
fn sources_ready(phys_ready: &[Cycle], srcs: [Option<u32>; 2]) -> Cycle {
    srcs.iter()
        .flatten()
        .map(|&p| phys_ready[p as usize])
        .max()
        .unwrap_or(0)
}

/// The bytes a memory instruction accesses (a prefetch touches one).
fn access_bytes(inst: Inst) -> u64 {
    match inst {
        Inst::Load { width, .. } | Inst::Store { width, .. } => width.bytes(),
        _ => 1,
    }
}

/// Files a waiting instruction that has just been renamed (it is the
/// youngest): on the select list when its sources are all timed, else on
/// the wake list of every source whose producer has not issued yet (twice
/// when both sources are that register: a second wake-up is harmless).
fn enqueue(
    iq: &mut Vec<IqEntry>,
    wakers: &mut [Vec<Seq>],
    phys_ready: &[Cycle],
    seq: Seq,
    srcs: [Option<u32>; 2],
) {
    let ready_at = sources_ready(phys_ready, srcs);
    if ready_at != Cycle::MAX {
        iq.push(IqEntry { seq, ready_at });
        return;
    }
    for &p in srcs.iter().flatten() {
        if phys_ready[p as usize] == Cycle::MAX {
            wakers[p as usize].push(seq);
        }
    }
}

enum ForwardState {
    Forward(Seq),
    WaitData,
    Memory,
}

impl Core for OooCore {
    fn tick(&mut self, mem: &mut MemBus) {
        let now = self.cycle;
        self.cycle += 1;
        self.probes.set_phase(Phase::Normal, now);
        self.probes.sample_occupancy(now, self.rob.len() as u32, self.sq.len() as u32);
        if self.halted {
            return;
        }
        debug_assert!(self.counts_consistent());
        let t0 = self.probes.start();
        self.frontend.tick(now, mem);
        self.probes.stop(Stage::Fetch, t0);

        let t0 = self.probes.start();
        self.commit(now, mem);
        if now >= self.issue_quiet_until {
            self.issue(now, mem);
        }
        self.probes.stop(Stage::Issue, t0);

        let t0 = self.probes.start();
        self.rename(now, mem);
        self.probes.stop(Stage::Decode, t0);
    }

    #[inline]
    fn cycle(&self) -> Cycle {
        self.cycle
    }

    fn retired(&self) -> u64 {
        self.seq
    }

    #[inline]
    fn halted(&self) -> bool {
        self.halted
    }

    #[inline]
    fn drain_commits_into(&mut self, out: &mut Vec<Commit>) {
        drain_commits(&mut self.commits, out);
    }

    fn next_event_cycle(&self) -> Cycle {
        let now = self.cycle;
        if self.halted {
            return Cycle::MAX;
        }
        // Cheap wakes first: on a busy cycle (the common case) one of
        // them returns `now` and the O(window) issue scan is skipped
        // entirely — this runs after every tick, so it must cost nothing
        // when there is nothing to skip.
        let fetch = self.frontend.next_fetch_cycle(now);
        if fetch <= now {
            return now;
        }
        let rename = match self.rename_gate() {
            Ok(_) => return now,
            Err(RenameStall::BranchResolve)
                if phantom_head(self.phantom_count, &self.frontend).is_some() =>
            {
                return now;
            }
            // Released only by fetch, issue or commit: their own terms.
            Err(_) => Cycle::MAX,
        };
        let commit = self.commit_wake(now);
        if commit <= now {
            return now;
        }
        fetch.min(rename).min(commit).min(self.issue_wake(now))
    }

    fn skip_to(&mut self, target: Cycle) {
        let from = self.cycle;
        debug_assert!(from < target && target <= self.next_event_cycle());
        let n = target - from;
        self.frontend.note_skipped(from, target);
        match self.rename_gate() {
            Err(stall) => stall.charge(&mut self.stats, n),
            Ok(_) => debug_assert!(false, "skip_to with rename able to act"),
        }
        self.cycle = target;
    }

    fn gate_to(&mut self, target: Cycle) {
        // Clock gate (see the trait docs): no stall accounting, in-flight
        // absolute-cycle state ages across the gated window, which is
        // credited to its own phase row.
        if target <= self.cycle {
            return;
        }
        self.gated += target - self.cycle;
        self.probes.set_phase(Phase::Gated, self.cycle);
        self.cycle = target;
    }

    fn phases(&self) -> PhaseTable {
        let mut t = PhaseTable::new();
        t.add(Phase::Normal, self.cycle - self.gated);
        t.add(Phase::Gated, self.gated);
        t
    }

    fn core_id(&self) -> usize {
        self.id
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let bu = self.frontend.branch_unit_ref();
        vec![
            ("issued", self.stats.issued),
            ("stall_frontend", self.stats.stall_frontend),
            ("stall_rob_full", self.stats.stall_rob_full),
            ("stall_iq_full", self.stats.stall_iq_full),
            ("stall_lsq_full", self.stats.stall_lsq_full),
            ("stall_branch_resolve", self.stats.stall_branch_resolve),
            ("mispredicts", self.stats.mispredicts),
            ("violations", self.stats.violations),
            ("forwards", self.stats.forwards),
            ("wrong_path_prefetches", self.stats.wrong_path_prefetches),
            ("rob_high_water", self.stats.rob_high_water as u64),
            ("cond_predictions", bu.cond_predictions),
            ("cond_mispredictions", bu.cond_mispredictions),
        ]
    }

    fn leakage(&self) -> Option<&LeakageSummary> {
        self.taint.as_deref().map(|t| &t.summary)
    }

    fn probes(&mut self) -> &mut Probes {
        &mut self.probes
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.put_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.take_state(r)
    }

    fn warm_boot(&mut self, regs: &[u64; NUM_REGS], pc: u64) {
        let phys_count = self.phys_ready.len();
        self.rob.clear();
        self.free = (64..phys_count).rev().collect();
        self.rat = std::array::from_fn(|i| i);
        self.future = *regs;
        self.phys_ready.fill(0);
        self.rebuild_issue_queue();
        self.sq.clear();
        self.lq.clear();
        (self.sq_popped, self.lq_popped) = (0, 0);
        self.fetch_blocked_on = None;
        self.phantom = None;
        self.phantom_count = 0;
        self.issue_quiet_until = 0;
        self.halted = false;
        self.frontend.warm_reset(pc);
    }

    fn warm_predictor(&mut self, pc: u64, inst: Inst, taken: bool, next_pc: u64) {
        self.frontend.resolve(pc, inst, taken, next_pc);
    }
}

sst_isa::snap_record!(state OooCore "OOOC" {
    cycle,
    gated,
    seq,
    halted,
    fetch_blocked_on,
    phantom_count,
    issue_quiet_until,
    frontend,
    future,
    rat,
    phys_ready,
    free,
    (OooCore::put_window, OooCore::take_window),
    phantom,
    commits,
    stats,
} then OooCore::restored);

impl OooCore {
    /// The window, each entry with the memory fields of its queue record.
    fn put_window(&self, w: &mut SnapWriter) {
        let (mut sq, mut lq) = (self.sq.iter(), self.lq.iter());
        let wide = |p: Option<u32>| p.map(u64::from);
        let window: Vec<SavedEntry> = self
            .rob
            .iter()
            .map(|e| {
                let (mem, forwarded_from) = if e.inst.is_store() {
                    let s = sq.next().expect("a store has a store-queue record");
                    (Some((s.addr, s.bytes, true, s.value)), None)
                } else if e.inst.is_mem() {
                    let l = lq.next().expect("a load has a load-queue record");
                    (Some((l.addr, l.bytes, false, 0)), l.forwarded_from)
                } else {
                    (None, None)
                };
                SavedEntry {
                    seq: e.seq,
                    pc: e.pc,
                    inst: e.inst,
                    state: e.state,
                    srcs: e.srcs.map(wide),
                    dest_phys: wide(e.dest_phys),
                    old_phys: wide(e.old_phys),
                    old_future: e.old_future,
                    value: e.value,
                    mem,
                    forwarded_from,
                    executed: e.state != EntryState::Waiting,
                    mispredicted: e.mispredicted,
                    actual_next: e.actual_next,
                }
            })
            .collect();
        window.put(w);
    }

    /// Rebuilds the window and, from its entries' memory fields, the load
    /// and store queues (numbered from 0; width and progress follow from
    /// the entry). Physical registers are checked against the configured
    /// count so corrupt input cannot index out of bounds.
    fn take_window(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let window: Vec<SavedEntry> = Snap::take(r)?;
        SnapError::check_bound("window occupancy", window.len(), self.cfg.rob_entries)?;
        let phys_count = self.phys_count();
        let phys = |p: Option<u64>| match p {
            Some(p) if p >= phys_count as u64 => Err(SnapError::Corrupt(format!(
                "physical register {p} out of range (count {phys_count})"
            ))),
            p => Ok(p.map(|p| p as u32)),
        };
        self.rob.clear();
        self.sq.clear();
        self.lq.clear();
        (self.sq_popped, self.lq_popped) = (0, 0);
        for s in window {
            // The issue queue finds a window entry by its distance from
            // the head's sequence number.
            if self.rob.back().is_some_and(|prev| prev.seq.checked_add(1) != Some(s.seq)) {
                return Err(SnapError::Corrupt(format!(
                    "window sequence number {} does not follow its predecessor",
                    s.seq
                )));
            }
            let mut e = RobEntry {
                seq: s.seq,
                pc: s.pc,
                inst: s.inst,
                state: s.state,
                srcs: [phys(s.srcs[0])?, phys(s.srcs[1])?],
                dest_phys: phys(s.dest_phys)?,
                old_phys: phys(s.old_phys)?,
                old_future: s.old_future,
                value: s.value,
                mispredicted: s.mispredicted,
                actual_next: s.actual_next,
                mem_slot: 0,
            };
            match s.mem {
                None if !e.inst.is_mem() => {}
                Some((addr, _, store, value)) if e.inst.is_mem() && store == e.inst.is_store() => {
                    e.mem_slot = self.push_mem(&e, addr, value, s.forwarded_from);
                }
                _ => {
                    return Err(SnapError::Corrupt(format!(
                        "window entry {}'s memory fields do not match its instruction",
                        e.seq
                    )))
                }
            }
            self.rob.push_back(e);
        }
        Ok(())
    }

    /// Physical registers: the architectural ones plus one per window
    /// entry.
    fn phys_count(&self) -> usize {
        64 + self.cfg.rob_entries
    }

    /// The snapshot's register map, readiness table and free list fit the
    /// configured physical registers; the occupancy count, the select list
    /// and the wake lists are derived state, recomputed from the restored
    /// window so they are consistent by construction (the debug-build
    /// `counts_consistent` assertion would catch drift).
    fn restored(&mut self) -> Result<(), SnapError> {
        if self.gated > self.cycle {
            return Err(SnapError::Corrupt(format!(
                "{} gated cycles exceed the clock {}",
                self.gated, self.cycle
            )));
        }
        let phys_count = self.phys_count();
        SnapError::check_size("physical register count", self.phys_ready.len(), phys_count)?;
        SnapError::check_bound("free list length", self.free.len(), phys_count)?;
        if let Some(p) = self.rat.iter().chain(&self.free).find(|&&p| p >= phys_count) {
            return Err(SnapError::Corrupt(format!(
                "physical register {p} out of range (count {phys_count})"
            )));
        }
        self.rebuild_issue_queue();
        Ok(())
    }
}

#[cfg(test)]
mod tests;
