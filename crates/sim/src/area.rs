//! Structure-count area/power proxy (experiment E9).
//!
//! The paper's efficiency argument is structural: an SST core spends its
//! transistors on checkpoints, a deferred queue, and a store buffer, while
//! an OoO core needs rename tables, a reorder buffer, an issue-window CAM,
//! and a load/store disambiguation CAM. This module counts the storage
//! bits of those structures — SRAM bits and (power-dominant) CAM bits
//! separately — as a technology-neutral proxy. It is **not** a circuit
//! model; see DESIGN.md substitution S4.

use sst_core::SstConfig;
use sst_inorder::InOrderConfig;
use sst_ooo::OooConfig;

use crate::CoreModel;

/// Storage-bit estimate for one core's pipeline structures (caches
/// excluded — they are identical across the study).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AreaEstimate {
    /// Plain SRAM bits.
    pub sram_bits: u64,
    /// Content-addressed bits (searched every cycle: issue window wakeup,
    /// LSQ search). These dominate dynamic power per bit.
    pub cam_bits: u64,
}

impl AreaEstimate {
    /// Total bits.
    pub fn total_bits(&self) -> u64 {
        self.sram_bits + self.cam_bits
    }

    /// A single relative "cost" figure weighting CAM bits 4x (a common
    /// rule of thumb for search-port energy/area overhead).
    pub fn weighted_cost(&self) -> f64 {
        self.sram_bits as f64 + 4.0 * self.cam_bits as f64
    }
}

const REG_BITS: u64 = 64;
const ARCH_REGS: u64 = 64;
const ADDR_BITS: u64 = 48;
const SEQ_TAG_BITS: u64 = 10;
const INST_BITS: u64 = 32;

/// Estimates the in-order baseline: one register file plus a scoreboard.
pub fn inorder_area(_cfg: &InOrderConfig) -> AreaEstimate {
    AreaEstimate {
        sram_bits: ARCH_REGS * REG_BITS + ARCH_REGS, // regfile + ready bits
        cam_bits: 0,
    }
}

/// Estimates an SST-family core: register image with NT bits, checkpoint
/// images, the deferred queue, and the store buffer.
pub fn sst_area(cfg: &SstConfig) -> AreaEstimate {
    let live_image = ARCH_REGS * (REG_BITS + 1 + SEQ_TAG_BITS); // value + NT + writer
    let checkpoints = cfg.checkpoints as u64 * (ARCH_REGS * REG_BITS + ADDR_BITS);
    // DQ entry: inst + pc + one captured operand + producer tags + flags.
    // (ROCK-style: an instruction deferred for an NT source captures the
    // *other* operand; the rare both-captured cases spill into a second
    // entry, which the count amortizes away.)
    let dq_entry = INST_BITS + ADDR_BITS + REG_BITS + 2 * SEQ_TAG_BITS + 8;
    let dq = cfg.dq_entries as u64 * dq_entry;
    // Store buffer entry: addr + data + seq + flags. The address field is
    // searched by loads: CAM.
    let stb_cam = cfg.stb_entries as u64 * ADDR_BITS;
    let stb_sram = cfg.stb_entries as u64 * (REG_BITS + SEQ_TAG_BITS + 8);
    AreaEstimate {
        sram_bits: live_image + checkpoints + dq + stb_sram,
        cam_bits: stb_cam,
    }
}

/// Estimates an out-of-order core: rename map + physical register file +
/// ROB + issue-window CAM + LSQ CAM.
pub fn ooo_area(cfg: &OooConfig) -> AreaEstimate {
    let phys = (ARCH_REGS + cfg.rob_entries as u64) * REG_BITS;
    let rat = ARCH_REGS * 8; // 8-bit phys tags
    let free_list = cfg.rob_entries as u64 * 8;
    let future_file = ARCH_REGS * REG_BITS; // rename-time value copies
    // ROB entry: inst, pc, source/dest tags, the *old* mapping and value
    // needed for selective squash recovery, and flags — exactly the fields
    // this workspace's model stores per entry.
    let rob_entry = INST_BITS + ADDR_BITS + 2 * 8 + 8 + 8 + REG_BITS + 8;
    let rob = cfg.rob_entries as u64 * rob_entry;
    // Issue queue: every entry compares two source tags against every
    // wakeup broadcast bus, so the comparator count scales with issue
    // width.
    let iq_cam = cfg.iq_entries as u64 * 2 * 8 * cfg.issue_width as u64;
    let iq_sram = cfg.iq_entries as u64 * (INST_BITS + 16);
    // LSQ: address CAMs searched by every load and store.
    let lsq_cam = (cfg.lq_entries + cfg.sq_entries) as u64 * ADDR_BITS;
    let lsq_sram = cfg.sq_entries as u64 * REG_BITS + (cfg.lq_entries + cfg.sq_entries) as u64 * SEQ_TAG_BITS;
    AreaEstimate {
        sram_bits: phys + rat + free_list + future_file + rob + iq_sram + lsq_sram,
        cam_bits: iq_cam + lsq_cam,
    }
}

/// Estimates any lineup model.
pub fn model_area(model: &CoreModel) -> AreaEstimate {
    match model {
        CoreModel::InOrder => inorder_area(&InOrderConfig::default()),
        CoreModel::Scout => sst_area(&SstConfig::scout()),
        CoreModel::ExecuteAhead => sst_area(&SstConfig::execute_ahead()),
        CoreModel::Sst => sst_area(&SstConfig::sst()),
        CoreModel::CustomSst(c) => sst_area(c),
        CoreModel::Ooo32 => ooo_area(&OooConfig::ooo_32()),
        CoreModel::Ooo64 => ooo_area(&OooConfig::ooo_64()),
        CoreModel::Ooo128 => ooo_area(&OooConfig::ooo_128()),
        CoreModel::CustomOoo(c) => ooo_area(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_the_papers_argument() {
        let io = model_area(&CoreModel::InOrder);
        let sst = model_area(&CoreModel::Sst);
        let o128 = model_area(&CoreModel::Ooo128);
        assert!(io.total_bits() < sst.total_bits());
        assert!(
            sst.weighted_cost() < o128.weighted_cost(),
            "SST ({}) must be cheaper than a large OoO ({})",
            sst.weighted_cost(),
            o128.weighted_cost()
        );
        assert!(o128.cam_bits > sst.cam_bits * 2, "OoO is CAM-heavy");
    }

    #[test]
    fn ooo_scales_with_window() {
        let a = model_area(&CoreModel::Ooo32);
        let b = model_area(&CoreModel::Ooo128);
        assert!(b.total_bits() > a.total_bits());
        assert!(b.cam_bits > a.cam_bits);
    }

    #[test]
    fn sst_scales_with_dq() {
        let small = sst_area(&SstConfig {
            dq_entries: 16,
            ..SstConfig::sst()
        });
        let big = sst_area(&SstConfig {
            dq_entries: 512,
            ..SstConfig::sst()
        });
        assert!(big.sram_bits > small.sram_bits);
        assert_eq!(big.cam_bits, small.cam_bits, "the DQ is not a CAM");
    }
}
