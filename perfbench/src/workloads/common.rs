//! Helpers shared by the workloads.

use crate::trace::Tracer;
use axmc_aig::{aiger, Aig};
use std::time::Instant;

/// Writes `aig` as ASCII AIGER and parses it back inside an `aig.parse`
/// span, so every analysis runs on a circuit that went through the same
/// file format a user's would.
pub fn round_trip(tracer: &mut Tracer, name: &str, aig: &Aig) -> Result<Aig, String> {
    let text = aiger::to_ascii(aig);
    tracer.span("aig.parse", name, |_| {
        aiger::from_ascii(&text).map_err(|e| format!("{name}: AIGER round trip failed: {e}"))
    })
}

/// Runs `f`, returning its result and its wall time in milliseconds, then
/// times a shot of the host-speed reference (untimed by the caller).
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let _ = crate::reference::shot();
    (out, ms)
}

/// Builds the word-level error miter of a combinational pair and encodes
/// it to CNF, inside `miter.build` and `cnf.encode` spans. Returns the
/// miter's AND count and the clause count. Traced passes call this once
/// per pair, outside the timed work, to measure those two layers on the
/// workload's own circuits.
pub fn probe_comb_layers(
    tracer: &mut Tracer,
    item: &str,
    golden: &Aig,
    candidate: &Aig,
) -> (u64, u64) {
    let miter = tracer.span("miter.build", item, |_| {
        axmc_miter::abs_diff_word_miter(golden, candidate)
    });
    let clauses = tracer.span("cnf.encode", item, |_| {
        let (solver, _) = axmc_cnf::encode_comb(&miter);
        solver.num_clauses() as u64
    });
    (miter.num_ands() as u64, clauses)
}
