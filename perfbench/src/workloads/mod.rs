//! The four workloads.

pub mod cgp;
pub mod comb;
mod common;
pub mod seq;
pub mod serve;
