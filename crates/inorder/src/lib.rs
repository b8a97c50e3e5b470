//! # sst-inorder
//!
//! Empty. The in-order, stall-on-use baseline is `sst_core::SstConfig::
//! in_order()`: SST's pipeline with no checkpoint, deferred queue or store
//! buffer, which `sst_sim::CoreModel::InOrder` builds. No workspace crate
//! depends on this package; it is kept only because the measurement
//! ladder's manifest (`benchmark/Cargo.toml`) still names it as a path
//! dependency, and goes when that line does.

#![forbid(unsafe_code)]
