//! # sst-branch
//!
//! Branch prediction for the `rock-sst` workspace: a gshare direction
//! predictor, a branch target buffer, and a return-address stack, combined
//! behind the [`BranchUnit`] facade that every core frontend uses.
//!
//! All core models in the SST study (in-order, scout/EA/SST, out-of-order)
//! share the *same* predictor configuration, so direction accuracy is never
//! a confound in the comparisons — exactly as in the paper's methodology.
//!
//! ```
//! use sst_branch::{BranchUnit, PredictorKind, BranchKind};
//!
//! let mut bu = BranchUnit::new(PredictorKind::Gshare { bits: 12 }, 512, 8);
//! let pc = 0x1000;
//! // Train a loop branch: strongly taken.
//! for _ in 0..8 {
//!     bu.update(pc, BranchKind::Conditional, true, 0x900);
//! }
//! let p = bu.predict(pc, BranchKind::Conditional);
//! assert!(p.taken);
//! assert_eq!(p.target, Some(0x900));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod direction;
mod ras;
mod unit;

pub use btb::Btb;
pub use direction::{Gshare, PredictorKind};
pub use ras::ReturnAddressStack;
pub use unit::{BranchKind, BranchUnit, Prediction};
