//! The machine lineup of the study.

use sst_core::{SstConfig, SstCore};
use sst_isa::Program;
use sst_ooo::{OooConfig, OooCore};
use sst_uarch::Core;

/// One of the study's core models. Each variant fully determines a core
/// configuration, so experiments can sweep models by value; custom
/// configurations use the `Custom*` variants.
#[derive(Clone, Debug)]
pub enum CoreModel {
    /// 2-wide in-order, stall-on-use: SST's pipeline without checkpoints
    /// ([`SstConfig::in_order`]).
    InOrder,
    /// Hardware scout (runahead, results discarded).
    Scout,
    /// Execute-ahead (one checkpoint).
    ExecuteAhead,
    /// SST, ROCK's design point (two checkpoints).
    Sst,
    /// 2-wide out-of-order, 32-entry window.
    Ooo32,
    /// 4-wide out-of-order, 64-entry window.
    Ooo64,
    /// 4-wide out-of-order, 128-entry window (the paper's "larger,
    /// higher-powered" comparison core).
    Ooo128,
    /// Any SST-family configuration (sweeps).
    CustomSst(SstConfig),
    /// Any out-of-order configuration (sweeps).
    CustomOoo(OooConfig),
}

impl CoreModel {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            CoreModel::InOrder => "in-order".into(),
            CoreModel::Scout => "scout".into(),
            CoreModel::ExecuteAhead => "ea".into(),
            CoreModel::Sst => "sst".into(),
            CoreModel::Ooo32 => "ooo-32".into(),
            CoreModel::Ooo64 => "ooo-64".into(),
            CoreModel::Ooo128 => "ooo-128".into(),
            CoreModel::CustomSst(c) => c.label(),
            CoreModel::CustomOoo(c) => c.label(),
        }
    }

    /// Builds the core for `program` as core number `id`.
    pub fn build(&self, id: usize, program: &Program) -> Box<dyn Core> {
        match self {
            CoreModel::InOrder => Box::new(SstCore::new(SstConfig::in_order(), id, program)),
            CoreModel::Scout => Box::new(SstCore::new(SstConfig::scout(), id, program)),
            CoreModel::ExecuteAhead => {
                Box::new(SstCore::new(SstConfig::execute_ahead(), id, program))
            }
            CoreModel::Sst => Box::new(SstCore::new(SstConfig::sst(), id, program)),
            CoreModel::Ooo32 => Box::new(OooCore::new(OooConfig::ooo_32(), id, program)),
            CoreModel::Ooo64 => Box::new(OooCore::new(OooConfig::ooo_64(), id, program)),
            CoreModel::Ooo128 => Box::new(OooCore::new(OooConfig::ooo_128(), id, program)),
            CoreModel::CustomSst(c) => Box::new(SstCore::new(c.clone(), id, program)),
            CoreModel::CustomOoo(c) => Box::new(OooCore::new(c.clone(), id, program)),
        }
    }

    /// The standard lineup of the study's main comparisons (E3/E4).
    pub fn lineup() -> Vec<CoreModel> {
        vec![
            CoreModel::InOrder,
            CoreModel::Scout,
            CoreModel::ExecuteAhead,
            CoreModel::Sst,
            CoreModel::Ooo32,
            CoreModel::Ooo64,
            CoreModel::Ooo128,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sst_isa::Asm;

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = CoreModel::lineup().iter().map(|m| m.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn every_model_builds() {
        let mut a = Asm::new();
        a.halt();
        let p = a.finish().unwrap();
        for m in CoreModel::lineup() {
            let c = m.build(0, &p);
            assert_eq!(c.core_id(), 0);
            assert!(!c.halted());
        }
    }

    #[test]
    fn every_model_credits_a_gated_window_to_gated() {
        let mut a = Asm::new();
        a.halt();
        let p = a.finish().unwrap();
        for m in CoreModel::lineup() {
            let mut c = m.build(0, &p);
            c.gate_to(1000);
            let phases = c.phases();
            assert_eq!(phases.get(sst_obs::Phase::Gated), 1000, "{}", m.label());
            assert_eq!(phases.total(), c.cycle(), "{}", m.label());
        }
    }
}
