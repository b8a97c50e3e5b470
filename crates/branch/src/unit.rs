//! The combined branch unit used by core frontends.

use crate::btb::Btb;
use crate::direction::{Gshare, PredictorKind};
use crate::ras::ReturnAddressStack;

/// Control-flow class as seen by the predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchKind {
    /// Conditional direct branch.
    Conditional,
    /// Unconditional direct jump (`jal`, including calls).
    Direct,
    /// Indirect jump that is a call (`jalr` writing the link register).
    IndirectCall,
    /// Indirect jump that is a return (`jalr` through the link register).
    Return,
    /// Other indirect jump.
    Indirect,
}

/// A combined direction + target prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted taken? (always `true` for unconditional kinds).
    pub taken: bool,
    /// Predicted target, if the unit has one (BTB/RAS hit). Direct targets
    /// are also served from the BTB, mirroring a real front end that has not
    /// yet decoded the instruction.
    pub target: Option<u64>,
    /// Direction-predictor confidence (saturated counter). Unconditional
    /// kinds are always confident.
    pub confident: bool,
}

/// Direction predictor + BTB + RAS behind one interface.
pub struct BranchUnit {
    direction: Gshare,
    btb: Btb,
    ras: ReturnAddressStack,
    /// Conditional predictions made.
    pub cond_predictions: u64,
    /// Conditional predictions that resolved wrong.
    pub cond_mispredictions: u64,
    /// Indirect target predictions that resolved wrong (including RAS).
    pub target_mispredictions: u64,
}

impl BranchUnit {
    /// Builds a unit with the given direction predictor, BTB entry count
    /// (power of two) and RAS depth.
    pub fn new(kind: PredictorKind, btb_entries: usize, ras_depth: usize) -> BranchUnit {
        let PredictorKind::Gshare { bits } = kind;
        BranchUnit {
            direction: Gshare::new(bits),
            btb: Btb::new(btb_entries),
            ras: ReturnAddressStack::new(ras_depth),
            cond_predictions: 0,
            cond_mispredictions: 0,
            target_mispredictions: 0,
        }
    }

    /// Predicts the branch at `pc`. For [`BranchKind::Return`] the RAS is
    /// popped; for [`BranchKind::IndirectCall`] the return address is
    /// pushed — callers therefore invoke `predict` exactly once per fetched
    /// control instruction, in fetch order.
    #[inline]
    pub fn predict(&mut self, pc: u64, kind: BranchKind) -> Prediction {
        match kind {
            BranchKind::Conditional => {
                self.cond_predictions += 1;
                Prediction {
                    taken: self.direction.predict(pc),
                    target: self.btb.lookup(pc),
                    confident: self.direction.confident(pc),
                }
            }
            BranchKind::Direct => Prediction {
                taken: true,
                target: self.btb.lookup(pc),
                confident: true,
            },
            BranchKind::IndirectCall => {
                self.ras.push(pc + 4);
                Prediction {
                    taken: true,
                    target: self.btb.lookup(pc),
                    confident: true,
                }
            }
            BranchKind::Return => Prediction {
                taken: true,
                target: self.ras.pop().or_else(|| self.btb.lookup(pc)),
                confident: true,
            },
            BranchKind::Indirect => Prediction {
                taken: true,
                target: self.btb.lookup(pc),
                confident: true,
            },
        }
    }

    /// Trains with the resolved outcome and records misprediction stats
    /// against the prediction this unit would have made.
    ///
    /// `taken` and `target` are the architectural outcome. For calls
    /// resolved here the RAS is *not* re-pushed (that happened at predict
    /// time); cores that squash wrong paths may call
    /// [`BranchUnit::repair_ras`].
    #[inline]
    pub fn update(&mut self, pc: u64, kind: BranchKind, taken: bool, target: u64) {
        match kind {
            BranchKind::Conditional => {
                let predicted = self.direction.predict(pc);
                if predicted != taken {
                    self.cond_mispredictions += 1;
                }
                self.direction.update(pc, taken);
                if taken {
                    self.btb.update(pc, target);
                }
            }
            BranchKind::Direct | BranchKind::IndirectCall | BranchKind::Indirect => {
                if self.btb.lookup(pc) != Some(target) {
                    if kind != BranchKind::Direct {
                        self.target_mispredictions += 1;
                    }
                    self.btb.update(pc, target);
                }
            }
            BranchKind::Return => {
                // Target correctness was determined at predict time; keep
                // the BTB warm as a fallback.
                self.btb.update(pc, target);
            }
        }
    }

    /// Clears the RAS after a pipeline flush whose squashed path may have
    /// pushed/popped entries. (A conservative repair, as in many real
    /// designs.)
    pub fn repair_ras(&mut self) {
        while self.ras.pop().is_some() {}
    }

    /// The return-address stack.
    pub fn ras(&self) -> &ReturnAddressStack {
        &self.ras
    }

    /// Fraction of conditional predictions that were wrong.
    pub fn cond_mispredict_rate(&self) -> f64 {
        if self.cond_predictions == 0 {
            0.0
        } else {
            self.cond_mispredictions as f64 / self.cond_predictions as f64
        }
    }
}

sst_isa::snap_record!(state BranchUnit {
    direction,
    btb,
    ras,
    cond_predictions,
    cond_mispredictions,
    target_mispredictions,
});

impl std::fmt::Debug for BranchUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchUnit")
            .field("cond_predictions", &self.cond_predictions)
            .field("cond_mispredictions", &self.cond_mispredictions)
            .field("target_mispredictions", &self.target_mispredictions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> BranchUnit {
        BranchUnit::new(PredictorKind::Gshare { bits: 10 }, 64, 8)
    }

    #[test]
    fn conditional_training_flow() {
        let mut bu = unit();
        for _ in 0..8 {
            bu.update(0x100, BranchKind::Conditional, true, 0x80);
        }
        let p = bu.predict(0x100, BranchKind::Conditional);
        assert!(p.taken);
        assert_eq!(p.target, Some(0x80));
        assert_eq!(bu.cond_predictions, 1);
    }

    #[test]
    fn mispredictions_counted() {
        let mut bu = unit();
        for _ in 0..4 {
            bu.update(0x100, BranchKind::Conditional, true, 0x80);
        }
        let p = bu.predict(0x100, BranchKind::Conditional);
        assert!(p.taken);
        bu.update(0x100, BranchKind::Conditional, false, 0); // surprise
        assert_eq!(bu.cond_mispredictions, 1);
        assert!(bu.cond_mispredict_rate() > 0.0);
    }

    #[test]
    fn call_return_pair_predicts_return_target() {
        let mut bu = unit();
        let call_pc = 0x1000;
        let ret_pc = 0x2000;
        let p = bu.predict(call_pc, BranchKind::IndirectCall);
        assert!(p.taken);
        let r = bu.predict(ret_pc, BranchKind::Return);
        assert_eq!(r.target, Some(call_pc + 4));
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let mut bu = unit();
        bu.predict(0x1000, BranchKind::IndirectCall);
        bu.predict(0x2000, BranchKind::IndirectCall);
        assert_eq!(
            bu.predict(0x3000, BranchKind::Return).target,
            Some(0x2004)
        );
        assert_eq!(
            bu.predict(0x3100, BranchKind::Return).target,
            Some(0x1004)
        );
    }

    #[test]
    fn empty_ras_falls_back_to_btb() {
        let mut bu = unit();
        bu.update(0x3000, BranchKind::Return, true, 0x1234);
        let r = bu.predict(0x3000, BranchKind::Return);
        assert_eq!(r.target, Some(0x1234));
    }

    #[test]
    fn indirect_target_learning() {
        let mut bu = unit();
        assert_eq!(bu.predict(0x500, BranchKind::Indirect).target, None);
        bu.update(0x500, BranchKind::Indirect, true, 0x9000);
        assert_eq!(bu.target_mispredictions, 1);
        assert_eq!(bu.predict(0x500, BranchKind::Indirect).target, Some(0x9000));
        bu.update(0x500, BranchKind::Indirect, true, 0x9000);
        assert_eq!(bu.target_mispredictions, 1, "correct target not counted");
    }

    #[test]
    fn repair_ras_empties_stack() {
        let mut bu = unit();
        bu.predict(0x1000, BranchKind::IndirectCall);
        bu.repair_ras();
        let r = bu.predict(0x3000, BranchKind::Return);
        assert_eq!(r.target, None);
    }
}
