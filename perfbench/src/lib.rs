//! End-to-end and per-layer benchmark of the axmc exact-error stack.
//!
//! Four workloads drive the public API of the crates in one process each:
//! `comb_wce` (`axmc_core::CombAnalyzer`), `seq_wce`
//! (`axmc_core::SeqAnalyzer`), `cgp_evolve` (`axmc_cgp::evolve`) and
//! `serve_batch` (`axmc_serve::Server::run_batch`). See `METRICS.md` for
//! what each metric means and which layer should move it.

#![forbid(unsafe_code)]

pub mod harness;
pub mod layers;
pub mod reference;
pub mod serve_gen;
pub mod stats;
pub mod trace;
pub mod workloads;

use axmc_rand::{Rng, SplitMix64};
use harness::Workload;
use std::path::Path;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["comb_wce", "seq_wce", "cgp_evolve", "serve_batch"];

/// Builds workload `name` for `seed`, computing its reference answers.
pub fn workload(name: &str, seed: u64, work_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "comb_wce" => Box::new(workloads::comb::Comb::new(seed)?),
        "seq_wce" => Box::new(workloads::seq::Seq::new(seed)),
        "cgp_evolve" => Box::new(workloads::cgp::Cgp::new(seed)),
        "serve_batch" => Box::new(workloads::serve::Serve::new(seed, work_dir)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// Shuffles `items` in place (Fisher–Yates), so the benchmark's inputs
/// depend only on the generator's seed.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}
