//! Per-layer metrics of a traced pass.
//!
//! Times of calls the benchmark makes itself come from its own spans
//! ([`crate::trace`]). Work the program does inside those calls is read
//! from the `axmc_obs` registry the crates already fill: counters, and
//! the duration histograms their spans record into. The one figure the
//! registry does not split, solve time by answer, comes from the
//! `sat.solve` events through [`UnsatTimeSink`].

use crate::harness::Pass;
use crate::trace::{layer_times, SpanRecord};
use axmc_obs::{Event, Sink, Snapshot, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// Every per-layer metric with its unit, in report order.
/// `obs.trace_overhead_ratio` is added by the harness.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuit.gen_ms", "ms"),
    ("aig.parse_ms", "ms"),
    ("miter.build_ms", "ms"),
    ("miter.ands", "count"),
    ("absint.bounds_ms", "ms"),
    ("absint.decided_ratio", "ratio"),
    ("cnf.encode_ms", "ms"),
    ("cnf.clauses", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.unsat_solve_ms", "ms"),
    ("sat.solves", "count"),
    ("sat.conflicts", "count"),
    ("sat.props_per_ms", "1/ms"),
    ("check.certify_ms", "ms"),
    ("check.proof_steps", "count"),
    ("mc.frame_encode_ms", "ms"),
    ("mc.vars_created", "count"),
    ("mc.bmc_check_ms", "ms"),
    ("mc.induction_ms", "ms"),
    ("mc.proved_ratio", "ratio"),
    ("core.query_ms", "ms"),
    ("core.probes", "count"),
    ("core.self_ms", "ms"),
    ("cgp.verify_ms", "ms"),
    ("cgp.verifier_calls", "count"),
    ("cgp.static_decided_ratio", "ratio"),
    ("cgp.evals_per_s", "1/s"),
    ("cgp.best_area_ratio", "ratio"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.hit_service_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_entries", "count"),
];

/// Sums the wall time of SAT calls that answered UNSAT.
#[derive(Default)]
pub struct UnsatTimeSink {
    unsat_us: AtomicU64,
}

impl UnsatTimeSink {
    /// Microseconds spent in UNSAT solves since the last reset.
    pub fn unsat_us(&self) -> u64 {
        self.unsat_us.load(Ordering::Relaxed)
    }

    /// Zeroes the sum.
    pub fn reset(&self) {
        self.unsat_us.store(0, Ordering::Relaxed);
    }
}

impl Sink for UnsatTimeSink {
    fn emit(&self, event: &Event) {
        if event.kind != "sat.solve" {
            return;
        }
        if let (Some(Value::Str(result)), Some(Value::U64(us))) =
            (event.get("result"), event.get("time_us"))
        {
            if result == "unsat" {
                self.unsat_us.fetch_add(*us, Ordering::Relaxed);
            }
        }
    }
}

fn hist_sum(s: &Snapshot, name: &str) -> f64 {
    s.histograms.get(name).map_or(0.0, |h| h.sum as f64)
}

fn hist_count(s: &Snapshot, name: &str) -> f64 {
    s.histograms.get(name).map_or(0.0, |h| h.count as f64)
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

fn share(part: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        part / base
    }
}

/// The per-layer values of one traced pass: the registry snapshot taken
/// over the pass, the UNSAT solve time, the benchmark's spans (set-up
/// and pass) and the pass's own figures.
pub fn per_layer(
    snap: &Snapshot,
    unsat_us: u64,
    spans: &[SpanRecord],
    pass: &Pass,
) -> Vec<(String, f64)> {
    let queries = spans.iter().filter(|s| s.name == "core.query").count() as f64;
    let spans = layer_times(spans);
    let span_ms = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |&(total, _)| total as f64 / 1e3)
    };
    let solve_ms = hist_sum(snap, "sat.solve.time_us") / 1e3;
    let certify_ms = hist_sum(snap, "check.certify.time_us") / 1e3;
    let query_ms = span_ms("core.query");
    let mut out: Vec<(String, f64)> = vec![
        ("circuit.gen_ms".into(), span_ms("circuit.gen")),
        ("aig.parse_ms".into(), span_ms("aig.parse")),
        ("miter.build_ms".into(), span_ms("miter.build")),
        ("cnf.encode_ms".into(), span_ms("cnf.encode")),
        (
            "absint.bounds_ms".into(),
            (hist_sum(snap, "absint.analyze_us") + hist_sum(snap, "absint.sweep_us")) / 1e3,
        ),
        // Verdicts the static tier gave without a solver, over verdicts
        // asked for: one per analyzer query, one per CGP verifier call.
        (
            "absint.decided_ratio".into(),
            share(
                counter(snap, "absint.decided") + counter(snap, "cgp.verify.static_decided"),
                queries + hist_count(snap, "cgp.verify.time_us"),
            ),
        ),
        ("sat.solve_ms".into(), solve_ms),
        ("sat.unsat_solve_ms".into(), unsat_us as f64 / 1e3),
        ("sat.solves".into(), counter(snap, "sat.solves")),
        (
            "sat.conflicts".into(),
            hist_sum(snap, "sat.solve.conflicts"),
        ),
        (
            "sat.props_per_ms".into(),
            share(hist_sum(snap, "sat.solve.propagations"), solve_ms),
        ),
        ("check.certify_ms".into(), certify_ms),
        (
            "check.proof_steps".into(),
            hist_sum(snap, "check.proof.steps"),
        ),
        (
            "mc.frame_encode_ms".into(),
            hist_sum(snap, "mc.frame.encode_us") / 1e3,
        ),
        ("mc.vars_created".into(), hist_sum(snap, "mc.frame.vars")),
        (
            "mc.bmc_check_ms".into(),
            hist_sum(snap, "bmc.check.time_us") / 1e3,
        ),
        (
            "mc.induction_ms".into(),
            hist_sum(snap, "induction.round.time_us") / 1e3,
        ),
        ("core.query_ms".into(), query_ms),
        ("core.probes".into(), hist_sum(snap, "core.search.probes")),
        // The analyzers' own time: encoding, miters, the probe ladder.
        (
            "core.self_ms".into(),
            if query_ms > 0.0 {
                (query_ms - solve_ms - certify_ms).max(0.0)
            } else {
                0.0
            },
        ),
        (
            "cgp.verify_ms".into(),
            hist_sum(snap, "cgp.verify.time_us") / 1e3,
        ),
    ];
    let calls = pass.layer.get("cgp.verifier_calls").copied().unwrap_or(0.0);
    out.push((
        "cgp.static_decided_ratio".into(),
        share(counter(snap, "cgp.verify.static_decided"), calls),
    ));
    out.extend(pass.layer.iter().map(|(k, v)| (k.clone(), *v)));
    out
}
