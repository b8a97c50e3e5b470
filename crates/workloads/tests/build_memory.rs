//! Build memory: no workload build holds its image twice.
//!
//! A counting global allocator tracks live heap bytes and their peak. For
//! every full-scale workload, gadget and server kernel, the peak reached
//! while building, less the live bytes once the build returns (the image
//! and everything else the `Workload` keeps), must stay within an eighth
//! of the image plus 64 KiB: room for a `u32` visit order over 64-byte
//! nodes and a page-sized buffer, not for a staged copy of the data.
//!
//! The counter is process-wide, so this file holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use sst_workloads::{gadget_names, Scale, ServerKernel, Workload};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Relaxed) + n;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as if old and new were both live for a moment.
            grow(new_size);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SEED: u64 = 12345;

#[test]
fn no_build_holds_its_image_twice() {
    let names = Workload::all_names().iter().chain(gadget_names());
    let builds = names.map(|&name| (name, false)).chain(
        Workload::commercial_names()
            .iter()
            .map(|&name| (name, true)),
    );
    let mut over = Vec::new();
    for (name, server) in builds {
        PEAK.store(LIVE.load(Relaxed), Relaxed);
        let w = if server {
            ServerKernel::by_name(name, Scale::Full, SEED, 0)
                .expect("server kernel")
                .workload
        } else {
            Workload::by_name(name, Scale::Full, SEED).expect("known name")
        };
        let transient = PEAK.load(Relaxed) - LIVE.load(Relaxed);
        let image = w.program.image_bytes() as usize;
        let budget = image / 8 + 64 * 1024;
        let label = if server {
            format!("{name} (server)")
        } else {
            name.to_string()
        };
        eprintln!("{label:<14} image {image:>9} B  build transient {transient:>9} B  budget {budget:>8} B");
        if transient > budget {
            over.push(format!(
                "{label}: transient {transient} B > budget {budget} B"
            ));
        }
        drop(w);
    }
    assert!(
        over.is_empty(),
        "a build held its image twice:\n{}",
        over.join("\n")
    );
}
