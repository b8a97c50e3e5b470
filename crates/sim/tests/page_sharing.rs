//! Copy-on-write page sharing, checked rather than assumed.
//!
//! A built program holds its image once, as shared page frames; a memory
//! it is loaded into copies a page only when it first writes it. So a
//! freshly built system owns none of its pages; after a run to `halt` a
//! core's memory owns exactly the pages the program stores to (the pages
//! the reference interpreter's store hook reports), whatever the model;
//! and a CMP over server kernels owns no page when it is built.

use std::collections::BTreeSet;

use sst_isa::{Hooks, Interp};
use sst_mem::MemConfig;
use sst_sim::{CmpSystem, CoreModel, System};
use sst_workloads::{Scale, ServerKernel, Workload};

const SEED: u64 = 12345;
const MAX_CYCLES: u64 = 200_000_000;

/// The page numbers a run stores to.
#[derive(Default)]
struct StorePages(BTreeSet<u64>);

impl Hooks for StorePages {
    fn store(&mut self, addr: u64) {
        self.0.insert(addr >> 12);
    }
}

#[test]
fn a_new_system_owns_none_of_its_pages() {
    for &name in Workload::all_names() {
        let w = Workload::by_name(name, Scale::Smoke, SEED).unwrap();
        let sys = System::new(CoreModel::Sst, &w);
        let image = w.program.image().page_count();
        assert!(image > 0, "{name}");
        assert_eq!(sys.mem().page_count(), image, "{name}");
        assert_eq!(sys.mem().owned_pages(), 0, "{name}");
    }
}

#[test]
fn a_run_owns_exactly_the_pages_it_stores_to() {
    let models = [
        CoreModel::InOrder,
        CoreModel::Scout,
        CoreModel::ExecuteAhead,
        CoreModel::Sst,
        CoreModel::Ooo32,
        CoreModel::Ooo64,
        CoreModel::Ooo128,
    ];
    for (name, pages) in [("oltp", 2), ("mcf", 0), ("erp", 78)] {
        let w = Workload::by_name(name, Scale::Smoke, SEED).unwrap();
        let mut stores = StorePages::default();
        Interp::new(&w.program)
            .run_with_hooks(u64::MAX, &mut stores)
            .unwrap();
        assert_eq!(stores.0.len(), pages, "{name}: pages stored to");
        for model in &models {
            let label = model.label();
            let mut sys = System::new(model.clone(), &w);
            sys.run_insts(u64::MAX, MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{label} on {name}: {e}"));
            assert!(sys.halted(), "{label} on {name}");
            assert_eq!(sys.mem().owned_pages(), pages, "{label} on {name}");
        }
    }
}

#[test]
fn a_chip_of_server_kernels_owns_no_page_when_built() {
    let kernels: Vec<ServerKernel> = (0..8)
        .map(|slot| ServerKernel::by_name("oltp", Scale::Smoke, SEED + slot as u64, slot).unwrap())
        .collect();
    let programs: Vec<_> = kernels.iter().map(|k| &k.workload.program).collect();
    let chip = CmpSystem::from_programs(CoreModel::Sst, &programs, &MemConfig::default());
    for (core, p) in programs.iter().enumerate() {
        let mem = chip.port_mem(core);
        assert_eq!(mem.page_count(), p.image().page_count(), "core {core}");
        assert_eq!(mem.owned_pages(), 0, "core {core}");
    }
}
