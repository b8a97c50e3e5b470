//! Commercial-workload stand-ins: OLTP, ERP/Java-server, web.
//!
//! These model the memory behaviour the paper's introduction attributes to
//! commercial server code: large data footprints with poor cache locality,
//! dependent load chains (index/row navigation), data-dependent branches,
//! and enough instruction-level independence between transactions for an
//! execute-ahead machine to exploit.

use sst_isa::Reg;

use crate::common::{pointer_chain, random_words, rng, slot_asm, words, xorshift};
use crate::{Class, Scale, Workload};

/// Nominal instructions per OLTP transaction (one trip round the main
/// loop, averaged over the data-dependent branch arms). The service layer
/// uses this to convert offered load into an arrival rate.
pub const OLTP_TXN_INSTS: u64 = 55;
/// Nominal instructions per ERP iteration.
pub const ERP_TXN_INSTS: u64 = 40;
/// Nominal instructions per web request.
pub const WEB_TXN_INSTS: u64 = 60;

/// Transaction count for server variants: effectively endless — the
/// service driver slices requests off the running loop and never lets it
/// reach the halt (it would take ~centuries of simulated time).
const SERVER_TXNS: i64 = 1 << 42;

/// OLTP / database: hash-directory probe, two-hop bucket-chain walk, row
/// processing with a data-dependent branch, log append, hot-counter update.
/// Large footprint, miss-dominated, deep dependence behind each miss.
pub fn oltp(scale: Scale, seed: u64, slot: usize) -> Workload {
    let txns = match scale {
        Scale::Smoke => 300,
        Scale::Full => 4_000,
    };
    oltp_build(scale, seed, slot, txns, (txns as u64 / 10) * OLTP_TXN_INSTS)
}

/// OLTP with an explicit transaction count, for runs that need a
/// specific instruction budget (the sampling benchmark runs ~10M
/// instructions, far beyond the standard `Full` sizing). Keeps the
/// standard warm-up convention: the first 10% of transactions are
/// marked as skip instructions.
pub fn oltp_sized(scale: Scale, seed: u64, slot: usize, txns: i64) -> Workload {
    oltp_build(scale, seed, slot, txns, (txns as u64 / 10) * OLTP_TXN_INSTS)
}

/// The endless-loop OLTP variant for the service driver (`sst-traffic`).
pub fn oltp_server(scale: Scale, seed: u64, slot: usize) -> Workload {
    oltp_build(scale, seed, slot, SERVER_TXNS, 0)
}

fn oltp_build(scale: Scale, seed: u64, slot: usize, txns: i64, skip_insts: u64) -> Workload {
    let (nodes, dir_entries) = match scale {
        Scale::Smoke => (32 * 1024, 4 * 1024),  // 2 MiB chain
        Scale::Full => (512 * 1024, 64 * 1024), // 32 MiB chain
    };
    let mut r = rng("oltp", seed);
    let mut a = slot_asm(slot);

    let chain = pointer_chain(&mut a, &mut r, nodes);
    // Hash directory: pointers to random chain nodes.
    let dir = words(&mut a, dir_entries, || chain + r.gen_range(0..nodes) * 64);
    let log = a.reserve(64 * 1024);
    let hot = a.data_u64(&[0]);

    let state = Reg::x(1);
    let tmp = Reg::x(3);
    a.li(state, 0x2545_F491_4F6C_DD1Du64 as i64);
    a.la(Reg::x(20), dir);
    a.la(Reg::x(21), log);
    a.la(Reg::x(22), hot);
    a.li(Reg::x(23), 0); // txn counter (log cursor)
    a.li(Reg::x(2), txns);
    let top = a.here();

    // Probe: hash -> directory entry -> bucket head.
    xorshift(&mut a, state, tmp);
    a.li(Reg::x(4), (dir_entries as i64 - 1) * 8);
    a.slli(Reg::x(5), state, 3);
    a.and(Reg::x(5), Reg::x(5), Reg::x(4));
    a.add(Reg::x(5), Reg::x(5), Reg::x(20));
    a.ld(Reg::x(6), Reg::x(5), 0); // directory entry (often misses)
                                   // Two dependent chain hops (index navigation).
    a.ld(Reg::x(7), Reg::x(6), 0); // hop 1
    a.ld(Reg::x(8), Reg::x(7), 0); // hop 2
                                   // Row fields (same lines as the pointers: cheap once fetched).
    a.ld(Reg::x(9), Reg::x(7), 8);
    a.ld(Reg::x(10), Reg::x(8), 16);

    // Row processing: a substantial dependent computation rooted at the
    // fetched fields (this is what fills the deferred queue).
    a.xor(Reg::x(11), Reg::x(9), Reg::x(10));
    for _ in 0..7 {
        a.slli(Reg::x(12), Reg::x(11), 7);
        a.xor(Reg::x(11), Reg::x(11), Reg::x(12));
        a.srli(Reg::x(12), Reg::x(11), 9);
        a.add(Reg::x(11), Reg::x(11), Reg::x(12));
    }

    // Data-dependent branch on a row predicate (~50/50, unpredictable).
    a.andi(Reg::x(13), Reg::x(11), 1);
    let even = a.label();
    let join = a.label();
    a.beq(Reg::x(13), Reg::ZERO, even);
    a.addi(Reg::x(14), Reg::x(14), 1);
    a.slli(Reg::x(11), Reg::x(11), 1);
    a.j(join);
    a.bind(even);
    a.addi(Reg::x(15), Reg::x(15), 1);
    a.srli(Reg::x(11), Reg::x(11), 1);
    a.bind(join);

    // Log append (sequential stores, wraps in 64 KiB).
    a.slli(Reg::x(16), Reg::x(23), 3);
    a.li(Reg::x(18), 0xfff8);
    a.and(Reg::x(16), Reg::x(16), Reg::x(18));
    a.add(Reg::x(16), Reg::x(16), Reg::x(21));
    a.sd(Reg::x(11), Reg::x(16), 0);
    a.addi(Reg::x(23), Reg::x(23), 1);

    // Hot-counter update (always cached).
    a.ld(Reg::x(17), Reg::x(22), 0);
    a.add(Reg::x(17), Reg::x(17), Reg::x(13));
    a.sd(Reg::x(17), Reg::x(22), 0);

    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();

    Workload {
        name: "oltp",
        class: Class::Commercial,
        program: a.finish().expect("oltp assembles"),
        skip_insts,
        description: "hash probe + 2-hop bucket chain + row processing + log append",
    }
}

/// ERP / Java-server: object-graph navigation with a hot working set,
/// moderate compute per object, occasional field updates.
pub fn erp(scale: Scale, seed: u64, slot: usize) -> Workload {
    let iters = match scale {
        Scale::Smoke => 400,
        Scale::Full => 5_000,
    };
    erp_build(
        scale,
        seed,
        slot,
        iters,
        (iters as u64 / 10) * ERP_TXN_INSTS,
    )
}

/// The endless-loop ERP variant for the service driver.
pub fn erp_server(scale: Scale, seed: u64, slot: usize) -> Workload {
    erp_build(scale, seed, slot, SERVER_TXNS, 0)
}

fn erp_build(scale: Scale, seed: u64, slot: usize, iters: i64, skip_insts: u64) -> Workload {
    let (objects, hot_objects) = match scale {
        Scale::Smoke => (16 * 1024, 1024),     // 1 MiB of objects
        Scale::Full => (128 * 1024, 8 * 1024), // 8 MiB of objects
    };
    let mut r = rng("erp", seed);
    let mut a = slot_asm(slot);

    let heap = pointer_chain(&mut a, &mut r, objects);
    // Object handle table: all objects, first `hot_objects` are "hot".
    let table = words(&mut a, objects, || heap + r.gen_range(0..objects) * 64);

    let state = Reg::x(1);
    let tmp = Reg::x(3);
    a.li(state, 0x0DDB_1A5E_5BAD_5EEDu64 as i64);
    a.la(Reg::x(20), table);
    a.li(Reg::x(2), iters);
    let top = a.here();

    xorshift(&mut a, state, tmp);
    // 3 of 4 references go to the hot subset (predictable branch).
    a.andi(Reg::x(4), state, 3);
    let cold = a.label();
    let picked = a.label();
    a.beq(Reg::x(4), Reg::ZERO, cold);
    a.li(Reg::x(5), (hot_objects as i64 - 1) * 8);
    a.j(picked);
    a.bind(cold);
    a.li(Reg::x(5), (objects as i64 - 1) * 8);
    a.bind(picked);
    a.srli(Reg::x(6), state, 3);
    a.slli(Reg::x(6), Reg::x(6), 3);
    a.and(Reg::x(6), Reg::x(6), Reg::x(5));
    a.add(Reg::x(6), Reg::x(6), Reg::x(20));
    a.ld(Reg::x(7), Reg::x(6), 0); // handle
    a.ld(Reg::x(8), Reg::x(7), 0); // object header (one dependent hop)
    a.ld(Reg::x(9), Reg::x(7), 8); // field

    // Method-ish compute on the fields.
    a.add(Reg::x(10), Reg::x(9), Reg::x(8));
    for _ in 0..4 {
        a.xor(Reg::x(11), Reg::x(10), Reg::x(9));
        a.slli(Reg::x(10), Reg::x(11), 3);
        a.srli(Reg::x(12), Reg::x(10), 5);
        a.add(Reg::x(10), Reg::x(10), Reg::x(12));
    }
    // Occasional field write-back (1 in 4).
    a.andi(Reg::x(13), state, 12);
    let no_write = a.label();
    a.bne(Reg::x(13), Reg::ZERO, no_write);
    a.sd(Reg::x(10), Reg::x(7), 16);
    a.bind(no_write);

    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();

    Workload {
        name: "erp",
        class: Class::Commercial,
        program: a.finish().expect("erp assembles"),
        skip_insts,
        description: "object-graph navigation, hot working set, field updates",
    }
}

/// Web server: per request, a short header scan (data-dependent inner
/// loop), a session-table lookup (dependent pointer hop into a large
/// footprint), response formatting, and an access-log append. Branchier
/// than OLTP/ERP with a moderate off-chip miss rate — a real server's mix
/// is mostly lookup and bookkeeping around a small amount of byte
/// scanning.
pub fn web(scale: Scale, seed: u64, slot: usize) -> Workload {
    let requests = match scale {
        Scale::Smoke => 250,
        Scale::Full => 3_000,
    };
    web_build(
        scale,
        seed,
        slot,
        requests,
        (requests as u64 / 10) * WEB_TXN_INSTS,
    )
}

/// The endless-loop web variant for the service driver.
pub fn web_server(scale: Scale, seed: u64, slot: usize) -> Workload {
    web_build(scale, seed, slot, SERVER_TXNS, 0)
}

fn web_build(scale: Scale, seed: u64, slot: usize, requests: i64, skip_insts: u64) -> Workload {
    // The request buffer is a small connection ring: a real server parses
    // bytes it just received (cache-warm); the off-chip misses come from
    // session state, not the scan.
    // Web is the least memory-bound of the commercial suite: a modest
    // session footprint (partially L2-resident) and a fair amount of
    // per-request formatting compute.
    let (buf_bytes, sessions) = match scale {
        Scale::Smoke => (64 * 1024, 8 * 1024),
        Scale::Full => (64 * 1024, 64 * 1024),
    };
    let mut r = rng("web", seed);
    let mut a = slot_asm(slot);

    // Request buffer: short runs of nonzero bytes with zero terminators
    // (header tokens, mean length ~7).
    let mut bytes: Vec<u8> = Vec::with_capacity(buf_bytes as usize);
    while bytes.len() < buf_bytes as usize {
        let len = r.gen_range(3..12usize);
        for _ in 0..len {
            bytes.push(r.gen_range(1..=255u8));
        }
        bytes.push(0);
    }
    bytes.truncate(buf_bytes as usize);
    *bytes.last_mut().expect("nonempty") = 0;
    let buf = a.data_bytes(&bytes);
    // Session table: pointers into a large object heap (8 MiB full scale).
    let heap = pointer_chain(&mut a, &mut r, sessions);
    let session_tab = words(&mut a, sessions, || heap + r.gen_range(0..sessions) * 64);
    let table = random_words(&mut a, &mut r, 8 * 1024); // 64 KiB mime table
    let stats = a.reserve(sessions * 8); // flat per-session counters
    let out = a.reserve(64 * 1024);

    let state = Reg::x(1);
    let tmp = Reg::x(3);
    a.li(state, 0xFACE_FEED_0BAD_F00Du64 as i64);
    a.la(Reg::x(20), buf);
    a.la(Reg::x(21), table);
    a.la(Reg::x(22), out);
    a.la(Reg::x(24), session_tab);
    a.li(Reg::x(23), 0); // request number
    a.li(Reg::x(2), requests);
    let top = a.here();

    // Pick a random 128-aligned offset into the buffer.
    xorshift(&mut a, state, tmp);
    a.li(Reg::x(4), buf_bytes as i64 - 256);
    a.and(Reg::x(5), state, Reg::x(4));
    a.srli(Reg::x(5), Reg::x(5), 7);
    a.slli(Reg::x(5), Reg::x(5), 7);
    a.add(Reg::x(5), Reg::x(5), Reg::x(20)); // scan pointer
    a.li(Reg::x(6), 0); // rolling hash
    a.li(Reg::x(7), 0); // length

    // Scan one header token (data-dependent loop, short).
    let scan = a.here();
    let done = a.label();
    a.lbu(Reg::x(8), Reg::x(5), 0);
    a.beq(Reg::x(8), Reg::ZERO, done);
    // hash = hash*31 + byte  (31x = (x<<5) - x)
    a.slli(Reg::x(9), Reg::x(6), 5);
    a.sub(Reg::x(9), Reg::x(9), Reg::x(6));
    a.add(Reg::x(6), Reg::x(9), Reg::x(8));
    a.addi(Reg::x(5), Reg::x(5), 1);
    a.addi(Reg::x(7), Reg::x(7), 1);
    a.j(scan);
    a.bind(done);

    // Session lookup: random handle -> object header (dependent hop into
    // the big heap; this is where the off-chip misses live).
    a.li(Reg::x(13), (sessions as i64 - 1) * 8);
    a.srli(Reg::x(14), state, 5);
    a.slli(Reg::x(14), Reg::x(14), 3);
    a.and(Reg::x(14), Reg::x(14), Reg::x(13));
    a.add(Reg::x(14), Reg::x(14), Reg::x(24));
    a.ld(Reg::x(15), Reg::x(14), 0); // session handle (misses)
    a.ld(Reg::x(16), Reg::x(15), 8); // session state (dependent)
    a.ld(Reg::x(17), Reg::x(15), 16); // payload (dependent)
                                      // Bump the per-session counter in the flat stats array (its address
                                      // comes straight from the session index — servers keep such counters
                                      // in directly indexed tables, not behind the object pointer).
    a.la(Reg::x(18), stats);
    a.srli(Reg::x(19), Reg::x(14), 0);
    a.and(Reg::x(19), Reg::x(14), Reg::x(13));
    a.add(Reg::x(19), Reg::x(19), Reg::x(18));
    a.ld(Reg::x(25), Reg::x(19), 0);
    a.addi(Reg::x(25), Reg::x(25), 1);
    a.sd(Reg::x(25), Reg::x(19), 0);

    // Response formatting: mime lookup + a realistic chunk of compute on
    // the header hash and session state (escaping, checksums, headers).
    a.li(Reg::x(13), 0xfff8);
    a.and(Reg::x(10), Reg::x(6), Reg::x(13));
    a.add(Reg::x(10), Reg::x(10), Reg::x(21));
    a.ld(Reg::x(11), Reg::x(10), 0);
    a.xor(Reg::x(11), Reg::x(11), Reg::x(16));
    for _ in 0..6 {
        a.slli(Reg::x(9), Reg::x(11), 3);
        a.add(Reg::x(11), Reg::x(11), Reg::x(9));
        a.srli(Reg::x(9), Reg::x(11), 7);
        a.xor(Reg::x(11), Reg::x(11), Reg::x(9));
        a.xor(Reg::x(26), Reg::x(26), Reg::x(11));
        a.addi(Reg::x(26), Reg::x(26), 13);
    }

    // Access-log append.
    a.slli(Reg::x(12), Reg::x(23), 3);
    a.and(Reg::x(12), Reg::x(12), Reg::x(13));
    a.add(Reg::x(12), Reg::x(12), Reg::x(22));
    a.sd(Reg::x(11), Reg::x(12), 0);
    a.sd(Reg::x(7), Reg::x(12), 8);
    a.addi(Reg::x(23), Reg::x(23), 1);

    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();

    Workload {
        name: "web",
        class: Class::Commercial,
        program: a.finish().expect("web assembles"),
        skip_insts,
        description: "header-token scan, session-table lookup, response formatting, log append",
    }
}
