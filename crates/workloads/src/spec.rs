//! SPEC-CPU-like integer and floating-point kernels.

use sst_isa::Reg;

use crate::common::{pointer_chain, random_bytes, random_words, rng, slot_asm, words, xorshift};
use crate::{Class, Scale, Workload};

/// `mcf`-like: pure pointer chasing over a large graph with minimal
/// compute — the latency-bound, MLP-1 extreme.
pub fn mcf_like(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (nodes, hops) = match scale {
        Scale::Smoke => (32 * 1024, 2_000),  // 2 MiB
        Scale::Full => (256 * 1024, 30_000), // 16 MiB
    };
    let mut r = rng("mcf", seed);
    let mut a = slot_asm(slot);
    let chain = pointer_chain(&mut a, &mut r, nodes);

    a.la(Reg::x(1), chain);
    a.li(Reg::x(2), hops);
    a.li(Reg::x(10), 0);
    let top = a.here();
    a.ld(Reg::x(3), Reg::x(1), 8); // cost field
    a.add(Reg::x(10), Reg::x(10), Reg::x(3));
    a.ld(Reg::x(1), Reg::x(1), 0); // next arc
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();

    Workload {
        name: "mcf",
        class: Class::SpecInt,
        program: a.finish().expect("mcf assembles"),
        skip_insts: (hops as u64 / 10) * 6,
        description: "pointer chase over a large arc graph (MLP 1)",
    }
}

/// `gcc`-like: a branchy interpreter over a random opcode stream with
/// occasional symbol-table derefs. Mispredict-heavy, moderate miss rate.
pub fn gcc_like(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (stream_bytes, symbols, iters) = match scale {
        Scale::Smoke => (128 * 1024, 16 * 1024, 2_000),
        Scale::Full => (2 * 1024 * 1024, 256 * 1024, 30_000),
    };
    let mut r = rng("gcc", seed);
    let mut a = slot_asm(slot);
    let stream = random_bytes(&mut a, &mut r, stream_bytes);
    let symtab = random_words(&mut a, &mut r, symbols); // 8B entries

    a.la(Reg::x(20), stream);
    a.la(Reg::x(21), symtab);
    a.li(Reg::x(22), 0); // stream cursor
    a.li(Reg::x(10), 0); // accumulator
    a.li(Reg::x(2), iters);
    let top = a.here();

    // Fetch the next opcode byte (sequential: mostly cache-friendly).
    a.li(Reg::x(4), stream_bytes as i64 - 1);
    a.and(Reg::x(5), Reg::x(22), Reg::x(4));
    a.add(Reg::x(5), Reg::x(5), Reg::x(20));
    a.lbu(Reg::x(6), Reg::x(5), 0);
    a.addi(Reg::x(22), Reg::x(22), 1);

    // 4-way switch on the low bits (random -> mispredicts).
    let c1 = a.label();
    let c23 = a.label();
    let c3 = a.label();
    let join = a.label();
    a.andi(Reg::x(7), Reg::x(6), 3);
    a.andi(Reg::x(8), Reg::x(7), 2);
    a.bne(Reg::x(8), Reg::ZERO, c23);
    a.bne(Reg::x(7), Reg::ZERO, c1);
    // case 0: arithmetic
    a.add(Reg::x(10), Reg::x(10), Reg::x(6));
    a.j(join);
    a.bind(c1); // case 1: shift mix
    a.slli(Reg::x(9), Reg::x(10), 3);
    a.xor(Reg::x(10), Reg::x(9), Reg::x(6));
    a.j(join);
    a.bind(c23);
    a.andi(Reg::x(8), Reg::x(7), 1);
    a.bne(Reg::x(8), Reg::ZERO, c3);
    // case 2: symbol-table deref (can miss)
    a.li(Reg::x(4), (symbols as i64 - 1) * 8);
    a.slli(Reg::x(9), Reg::x(10), 3);
    a.and(Reg::x(9), Reg::x(9), Reg::x(4));
    a.add(Reg::x(9), Reg::x(9), Reg::x(21));
    a.ld(Reg::x(11), Reg::x(9), 0);
    a.add(Reg::x(10), Reg::x(10), Reg::x(11));
    a.j(join);
    a.bind(c3); // case 3: compare chain
    a.slti(Reg::x(9), Reg::x(10), 0);
    a.add(Reg::x(10), Reg::x(10), Reg::x(9));
    a.xori(Reg::x(10), Reg::x(10), 0x2a);
    a.bind(join);

    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();

    Workload {
        name: "gcc",
        class: Class::SpecInt,
        program: a.finish().expect("gcc assembles"),
        skip_insts: (iters as u64 / 10) * 15,
        description: "branchy opcode interpreter with symbol-table derefs",
    }
}

/// `gzip`-like: byte stream + CRC-style table lookups + bit manipulation.
/// Cache-resident, long dependence through the accumulator.
pub fn gzip_like(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (stream_bytes, iters) = match scale {
        Scale::Smoke => (64 * 1024, 3_000),
        Scale::Full => (512 * 1024, 50_000),
    };
    let mut r = rng("gzip", seed);
    let mut a = slot_asm(slot);
    let stream = random_bytes(&mut a, &mut r, stream_bytes);
    let table = random_words(&mut a, &mut r, 256); // 2 KiB CRC table

    a.la(Reg::x(20), stream);
    a.la(Reg::x(21), table);
    a.li(Reg::x(22), 0);
    a.li(Reg::x(10), !0i64); // crc
    a.li(Reg::x(2), iters);
    let top = a.here();
    a.li(Reg::x(4), stream_bytes as i64 - 1);
    a.and(Reg::x(5), Reg::x(22), Reg::x(4));
    a.add(Reg::x(5), Reg::x(5), Reg::x(20));
    a.lbu(Reg::x(6), Reg::x(5), 0);
    a.addi(Reg::x(22), Reg::x(22), 1);
    // crc = table[(crc ^ byte) & 0xff] ^ (crc >> 8)
    a.xor(Reg::x(7), Reg::x(10), Reg::x(6));
    a.andi(Reg::x(7), Reg::x(7), 0xff);
    a.slli(Reg::x(7), Reg::x(7), 3);
    a.add(Reg::x(7), Reg::x(7), Reg::x(21));
    a.ld(Reg::x(8), Reg::x(7), 0);
    a.srli(Reg::x(9), Reg::x(10), 8);
    a.xor(Reg::x(10), Reg::x(8), Reg::x(9));
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();

    Workload {
        name: "gzip",
        class: Class::SpecInt,
        program: a.finish().expect("gzip assembles"),
        skip_insts: (iters as u64 / 10) * 12,
        description: "CRC-style table-driven byte processing (cache resident)",
    }
}

/// GUPS: random read-modify-write updates over a huge table. Every
/// iteration is independent — the MLP-rich extreme.
pub fn gups(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (table_words, updates) = match scale {
        Scale::Smoke => (256 * 1024, 1_500),      // 2 MiB
        Scale::Full => (4 * 1024 * 1024, 20_000), // 32 MiB
    };
    let mut r = rng("gups", seed);
    let mut a = slot_asm(slot);
    let table = random_words(&mut a, &mut r, table_words.min(1024 * 1024));
    // For very large tables, only the first chunk is initialized; the rest
    // reads as zero, which is fine for xor updates.
    if table_words > 1024 * 1024 {
        a.reserve((table_words - 1024 * 1024) * 8);
    }

    let state = Reg::x(1);
    let tmp = Reg::x(3);
    a.li(state, 0x9E37_79B9_7F4A_7C15u64 as i64);
    a.la(Reg::x(20), table);
    a.li(Reg::x(2), updates);
    let top = a.here();
    xorshift(&mut a, state, tmp);
    a.li(Reg::x(4), (table_words as i64 - 1) * 8);
    a.slli(Reg::x(5), state, 3);
    a.and(Reg::x(5), Reg::x(5), Reg::x(4));
    a.add(Reg::x(5), Reg::x(5), Reg::x(20));
    a.ld(Reg::x(6), Reg::x(5), 0);
    a.xor(Reg::x(6), Reg::x(6), state);
    a.sd(Reg::x(6), Reg::x(5), 0);
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, top);
    a.halt();

    Workload {
        name: "gups",
        class: Class::SpecInt,
        program: a.finish().expect("gups assembles"),
        skip_insts: (updates as u64 / 10) * 13,
        description: "random read-modify-write updates (independent misses)",
    }
}

/// STREAM-like triad: `a[i] = b[i] + k * c[i]` over long f64 arrays.
/// Unit-stride, bandwidth-bound, prefetch-friendly.
pub fn stream_like(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (elems, passes) = match scale {
        Scale::Smoke => (32 * 1024, 1), // 3 x 256 KiB
        Scale::Full => (256 * 1024, 2), // 3 x 2 MiB
    };
    let mut r = rng("stream", seed);
    let mut a = slot_asm(slot);
    let b_base = words(&mut a, elems, || r.gen::<f64>().to_bits());
    let c_base = words(&mut a, elems, || r.gen::<f64>().to_bits());
    let a_base = a.reserve(elems * 8);

    a.li(Reg::x(9), passes);
    let kreg = Reg::f(10);
    a.li(Reg::x(4), 3.0f64.to_bits() as i64);
    a.mv(kreg, Reg::x(4));
    let pass = a.here();
    a.la(Reg::x(1), b_base);
    a.la(Reg::x(2), c_base);
    a.la(Reg::x(3), a_base);
    a.li(Reg::x(5), elems as i64);
    let top = a.here();
    a.ld(Reg::f(0), Reg::x(1), 0);
    a.ld(Reg::f(1), Reg::x(2), 0);
    a.fmul(Reg::f(2), Reg::f(1), kreg);
    a.fadd(Reg::f(3), Reg::f(0), Reg::f(2));
    a.sd(Reg::f(3), Reg::x(3), 0);
    a.addi(Reg::x(1), Reg::x(1), 8);
    a.addi(Reg::x(2), Reg::x(2), 8);
    a.addi(Reg::x(3), Reg::x(3), 8);
    a.addi(Reg::x(5), Reg::x(5), -1);
    a.bne(Reg::x(5), Reg::ZERO, top);
    a.addi(Reg::x(9), Reg::x(9), -1);
    a.bne(Reg::x(9), Reg::ZERO, pass);
    a.halt();

    Workload {
        name: "stream",
        class: Class::SpecFp,
        program: a.finish().expect("stream assembles"),
        skip_insts: 2_000,
        description: "unit-stride f64 triad (bandwidth bound)",
    }
}

/// Stencil: 5-point Jacobi sweep over an f64 grid. Strided with reuse.
pub fn stencil_like(scale: Scale, seed: u64, slot: usize) -> Workload {
    let (nx, ny, sweeps) = match scale {
        Scale::Smoke => (128usize, 64usize, 2),
        Scale::Full => (512, 256, 3), // 1 MiB grids
    };
    let mut r = rng("stencil", seed);
    let mut a = slot_asm(slot);
    let src = words(&mut a, (nx * ny) as u64, || r.gen::<f64>().to_bits());
    let dst = a.reserve((nx * ny) as u64 * 8);
    let row_bytes = (nx * 8) as i64;

    a.li(Reg::x(9), sweeps);
    let sweep = a.here();
    a.la(Reg::x(1), src + row_bytes as u64 + 8); // interior start (center)
    a.la(Reg::x(2), dst + row_bytes as u64 + 8);
    // Neighbor-row pointers kept in registers (rows can exceed the 12-bit
    // load-offset range).
    a.la(Reg::x(3), src + 8); // up
    a.la(Reg::x(4), src + 2 * row_bytes as u64 + 8); // down
    a.li(Reg::x(5), ((ny - 2) * (nx - 2)) as i64);
    a.li(Reg::x(6), 0); // column counter for row wrap
    let top = a.here();
    a.ld(Reg::f(0), Reg::x(1), 0);
    a.ld(Reg::f(1), Reg::x(1), -8);
    a.ld(Reg::f(2), Reg::x(1), 8);
    a.ld(Reg::f(3), Reg::x(3), 0);
    a.ld(Reg::f(4), Reg::x(4), 0);
    a.fadd(Reg::f(5), Reg::f(1), Reg::f(2));
    a.fadd(Reg::f(6), Reg::f(3), Reg::f(4));
    a.fadd(Reg::f(5), Reg::f(5), Reg::f(6));
    a.fadd(Reg::f(5), Reg::f(5), Reg::f(0));
    a.sd(Reg::f(5), Reg::x(2), 0);
    a.addi(Reg::x(1), Reg::x(1), 8);
    a.addi(Reg::x(2), Reg::x(2), 8);
    a.addi(Reg::x(3), Reg::x(3), 8);
    a.addi(Reg::x(4), Reg::x(4), 8);
    a.addi(Reg::x(6), Reg::x(6), 1);
    // Row wrap: skip the two boundary columns.
    a.li(Reg::x(7), (nx - 2) as i64);
    let no_wrap = a.label();
    a.bne(Reg::x(6), Reg::x(7), no_wrap);
    a.addi(Reg::x(1), Reg::x(1), 16);
    a.addi(Reg::x(2), Reg::x(2), 16);
    a.addi(Reg::x(3), Reg::x(3), 16);
    a.addi(Reg::x(4), Reg::x(4), 16);
    a.li(Reg::x(6), 0);
    a.bind(no_wrap);
    a.addi(Reg::x(5), Reg::x(5), -1);
    a.bne(Reg::x(5), Reg::ZERO, top);
    a.addi(Reg::x(9), Reg::x(9), -1);
    a.bne(Reg::x(9), Reg::ZERO, sweep);
    a.halt();

    Workload {
        name: "stencil",
        class: Class::SpecFp,
        program: a.finish().expect("stencil assembles"),
        skip_insts: 2_000,
        description: "5-point Jacobi sweep over an f64 grid",
    }
}

/// Matmul: naive `n x n` f64 matrix multiply, cache-resident compute-bound
/// (the workload where a wide OoO should shine).
pub fn matmul_like(scale: Scale, seed: u64, slot: usize) -> Workload {
    let n: usize = match scale {
        Scale::Smoke => 20,
        Scale::Full => 36,
    };
    let mut r = rng("matmul", seed);
    let mut a = slot_asm(slot);
    let a_base = words(&mut a, (n * n) as u64, || r.gen::<f64>().to_bits());
    let b_base = words(&mut a, (n * n) as u64, || r.gen::<f64>().to_bits());
    let c_base = a.reserve((n * n) as u64 * 8);
    let row = (n * 8) as i64;

    // for i { for j { acc = 0; for k { acc += A[i][k]*B[k][j] }; C[i][j]=acc } }
    a.li(Reg::x(1), n as i64); // i counter
    a.la(Reg::x(11), a_base); // A row ptr
    a.la(Reg::x(13), c_base); // C row ptr
    let i_loop = a.here();
    a.li(Reg::x(2), n as i64); // j counter
    a.la(Reg::x(12), b_base); // B column ptr (top of column j)
    a.mv(Reg::x(14), Reg::x(13)); // C element ptr
    let j_loop = a.here();
    a.li(Reg::x(3), n as i64); // k counter
    a.mv(Reg::x(15), Reg::x(11)); // A element ptr
    a.mv(Reg::x(16), Reg::x(12)); // B element ptr
    a.li(Reg::x(4), 0);
    a.mv(Reg::f(0), Reg::x(4)); // acc = 0.0
    let k_loop = a.here();
    a.ld(Reg::f(1), Reg::x(15), 0);
    a.ld(Reg::f(2), Reg::x(16), 0);
    a.fmul(Reg::f(3), Reg::f(1), Reg::f(2));
    a.fadd(Reg::f(0), Reg::f(0), Reg::f(3));
    a.addi(Reg::x(15), Reg::x(15), 8);
    a.addi(Reg::x(16), Reg::x(16), row);
    a.addi(Reg::x(3), Reg::x(3), -1);
    a.bne(Reg::x(3), Reg::ZERO, k_loop);
    a.sd(Reg::f(0), Reg::x(14), 0);
    a.addi(Reg::x(14), Reg::x(14), 8);
    a.addi(Reg::x(12), Reg::x(12), 8); // next column
    a.addi(Reg::x(2), Reg::x(2), -1);
    a.bne(Reg::x(2), Reg::ZERO, j_loop);
    a.addi(Reg::x(11), Reg::x(11), row);
    a.addi(Reg::x(13), Reg::x(13), row);
    a.addi(Reg::x(1), Reg::x(1), -1);
    a.bne(Reg::x(1), Reg::ZERO, i_loop);
    a.halt();

    Workload {
        name: "matmul",
        class: Class::SpecFp,
        program: a.finish().expect("matmul assembles"),
        skip_insts: 2_000,
        description: "dense f64 matrix multiply (compute bound)",
    }
}
