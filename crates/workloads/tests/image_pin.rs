//! Image pin: every workload's built program, held to a committed table.
//!
//! A generator may change how it writes its data image (staged or in
//! place, word by word or a page at a time) but not what it writes: the
//! same RNG draws in the same order into the same bytes, with the same
//! pages materialized. One line per build: entry, text length in
//! instructions, `image_bytes`, page count and the FNV-1a of the image's
//! `SparseMem::save_state` bytes, for the twelve suite workloads at both
//! scales, the three E13 gadgets at both scales, the commercial server
//! kernels in slots 0 and 1, and the sampled-run oltp.
//!
//! A change that is *meant* to move an image regenerates the table in the
//! same commit and says so:
//!
//! ```sh
//! cargo test -p sst-workloads --test image_pin -- --ignored regenerate
//! ```

use sst_isa::{Program, SnapWriter};
use sst_workloads::{gadget_names, oltp_sized, Scale, ServerKernel, Workload};

const SEED: u64 = 12345;
const TABLE: &str = include_str!("image_pin.txt");

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn line(label: &str, p: &Program) -> String {
    let mut snap = SnapWriter::new();
    p.image().save_state(&mut snap);
    format!(
        "{label} entry={:#x} text={} image_bytes={} pages={} fnv={:016x}",
        p.entry,
        p.len_insts(),
        p.image_bytes(),
        p.image().page_count(),
        fnv1a(&snap.into_bytes())
    )
}

/// The table, one build at a time.
fn measure() -> String {
    let mut out = String::new();
    let mut row = |label: String, p: &Program| {
        out.push_str(&line(&label, p));
        out.push('\n');
    };
    for (scale, tag) in [(Scale::Smoke, "smoke"), (Scale::Full, "full")] {
        for name in Workload::all_names().iter().chain(gadget_names()) {
            let w = Workload::by_name(name, scale, SEED).expect("known name");
            row(format!("{name}/{tag}"), &w.program);
        }
    }
    for name in Workload::commercial_names() {
        for slot in 0..2 {
            let k = ServerKernel::by_name(name, Scale::Smoke, SEED, slot).expect("server kernel");
            row(
                format!("{name}_server/smoke/slot{slot}"),
                &k.workload.program,
            );
        }
    }
    let sized = oltp_sized(Scale::Smoke, SEED, 0, 640_000);
    row("oltp_sized/smoke/640000".to_string(), &sized.program);
    out
}

#[test]
fn images_match_the_committed_table() {
    let now = measure();
    assert_eq!(now.lines().count(), TABLE.lines().count(), "row count");
    for (got, want) in now.lines().zip(TABLE.lines()) {
        assert_eq!(got, want, "an image moved (see the module doc)");
    }
}

#[test]
#[ignore = "rewrites the committed table"]
fn regenerate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/");
    std::fs::write(format!("{dir}image_pin.txt"), measure()).unwrap();
}
