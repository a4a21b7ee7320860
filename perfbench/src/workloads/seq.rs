//! `seq_wce`: the paper's sequential contribution. For each pair of
//! `axmc_seq::standard_suite(8)`, `SeqAnalyzer` computes the exact
//! worst-case error and bit-flip error within `k` cycles, then tries to
//! prove the measured WCE as an unbounded bound by k-induction.
//!
//! Each pair has a fixed horizon: `k = 8`, the horizon of tables T1/T2,
//! where that costs under about half a second, and a shorter one for the
//! feedback designs whose BMC ladder grows steeply. The seed fixes the
//! order the queries run in.

use super::common::{round_trip, timed_ms};
use crate::harness::{Pass, Workload};
use crate::trace::Tracer;
use axmc_aig::Aig;
use axmc_core::{AnalysisOptions, SeqAnalyzer, Verdict};
use axmc_mc::InductionOptions;
use axmc_rand::SplitMix64;
use std::time::Instant;

/// `(pair, k, WCE@k, bit-flip@k)`. Every `k = 8` row equals its T1/T2 row
/// in EXPERIMENTS.md except `pulsecnt8`, whose pulse level changed after
/// T1 was recorded (see the T1 notes). The `k = 4` rows of
/// `accumulator8/trunc4`, `accumulator8/loa4` and `fir4_8/trunc4` equal
/// the F1 profile at `k = 4`; `mac4/optrunc2` grows by its per-cycle
/// error 81, reaching T1's 648 at `k = 8`; FIR pairs plateau at their
/// T1 value once the window fills.
const PINNED: &[(&str, usize, u128, u32)] = &[
    ("alu8/trunc4", 8, 30, 8),
    ("alu8/loa4", 8, 8, 9),
    ("alu8/spec2", 8, 64, 5),
    ("regmul4/pptrunc2", 8, 5, 5),
    ("regmul4/optrunc2", 8, 81, 7),
    ("regmul4/kulkarni", 8, 50, 5),
    ("counter8/specinc1", 8, 120, 4),
    ("counter8/specinc2", 8, 0, 0),
    ("pulsecnt8/trunccmp1", 8, 8, 4),
    ("pulsecnt8/trunccmp4", 8, 8, 4),
    ("leaky8/trunc4", 8, 45, 9),
    ("leaky8/spec2", 8, 469, 9),
    ("accumulator8/spec2", 8, 1968, 7),
    ("accumulator8/trunc4", 4, 60, 10),
    ("accumulator8/loa4", 4, 24, 10),
    ("fir4_8/trunc4", 4, 60, 10),
    ("leaky8/loa4", 4, 14, 9),
    ("fir4_8/spec2", 4, 144, 6),
    ("maxtrack8/trunccmp1", 4, 1, 1),
    ("maxtrack8/trunccmp4", 4, 15, 4),
    ("mac4/optrunc2", 4, 324, 10),
    ("fir4_8/loa4", 3, 24, 10),
];

/// Deepest induction step tried by the proof attempt.
const PROVE_MAX_K: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Wce,
    BitFlip,
    Prove,
}

#[derive(Clone, Debug)]
struct Query {
    id: String,
    pair: usize,
    kind: Kind,
}

/// The `seq_wce` workload.
pub struct Seq {
    /// Per pinned row, in `PINNED` order.
    pairs: Vec<(Aig, Aig)>,
    /// Queries in run order. A pair's prove attempt runs after its WCE
    /// query, since it proves the WCE measured in the same pass.
    queries: Vec<Query>,
}

impl Seq {
    /// Builds the query order for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut order: Vec<usize> = (0..PINNED.len()).collect();
        crate::shuffle(&mut SplitMix64::new(seed ^ 0x5E9), &mut order);
        let queries = order
            .into_iter()
            .flat_map(|pair| {
                let (name, k, _, _) = PINNED[pair];
                [
                    (Kind::Wce, format!("{name}@{k}/wce")),
                    (Kind::BitFlip, format!("{name}@{k}/bf")),
                    (Kind::Prove, format!("{name}/prove")),
                ]
                .map(|(kind, id)| Query { id, pair, kind })
            })
            .collect();
        Seq {
            pairs: Vec::new(),
            queries,
        }
    }
}

impl Workload for Seq {
    fn nominal_pass_s(&self) -> f64 {
        4.05
    }

    fn setup(&mut self, _input: usize, tracer: &mut Tracer) -> Result<(), String> {
        let suite = tracer.span("circuit.gen", "seq", |_| axmc_seq::suite::standard_suite(8));
        self.pairs.clear();
        for (name, _, _, _) in PINNED {
            let p = suite
                .iter()
                .find(|p| p.name == *name)
                .ok_or_else(|| format!("{name} is not in the standard suite"))?;
            let golden = round_trip(tracer, name, &p.golden)?;
            let approx = round_trip(tracer, name, &p.approx)?;
            self.pairs.push((golden, approx));
        }
        // Warm-up: one WCE query of a feed-forward and a feedback design.
        for name in ["alu8/trunc4", "leaky8/spec2"] {
            let i = PINNED.iter().position(|r| r.0 == name).expect("pinned");
            let (g, a) = &self.pairs[i];
            SeqAnalyzer::new(g, a)
                .worst_case_error_at(PINNED[i].1)
                .map_err(|e| format!("warm-up {name}: {e}"))?;
        }
        Ok(())
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut measured: Vec<Option<u128>> = vec![None; PINNED.len()];
        let (mut proved, mut attempts) = (0u64, 0u64);
        let start = Instant::now();
        for q in &self.queries {
            let (_, k, wce, bf) = PINNED[q.pair];
            let (golden, approx) = &self.pairs[q.pair];
            let analyzer =
                SeqAnalyzer::new(golden, approx).with_options(AnalysisOptions::new().with_jobs(1));
            let (outcome, ms) = tracer.span("core.query", &q.id, |_| {
                timed_ms(|| -> Result<(), String> {
                    match q.kind {
                        Kind::Wce => {
                            let v = analyzer
                                .worst_case_error_at(k)
                                .map_err(|e| e.to_string())?
                                .value;
                            measured[q.pair] = Some(v);
                            check(v, wce)
                        }
                        Kind::BitFlip => check(
                            analyzer
                                .bit_flip_error_at(k)
                                .map_err(|e| e.to_string())?
                                .value as u128,
                            bf as u128,
                        ),
                        Kind::Prove => {
                            let bound = measured[q.pair].ok_or("prove before its WCE query")?;
                            let options = InductionOptions {
                                max_k: PROVE_MAX_K,
                                ..InductionOptions::default()
                            };
                            attempts += 1;
                            match analyzer
                                .prove_error_bound(bound, &options)
                                .map_err(|e| e.to_string())?
                            {
                                Verdict::Proved => proved += 1,
                                // A refutation must replay to an error
                                // above the bound.
                                Verdict::Refuted { witness } => {
                                    let err = analyzer.trace_error(&witness);
                                    if err <= bound {
                                        return Err(format!(
                                            "refuted by a trace of error {err} <= {bound}"
                                        ));
                                    }
                                }
                                // Not k-inductive within PROVE_MAX_K.
                                Verdict::Interrupted { .. } => {}
                            }
                            Ok(())
                        }
                    }
                })
            });
            pass.attempted += 1;
            if let Err(e) = outcome {
                pass.failed += 1;
                eprintln!("seq_wce: {} failed: {e}", q.id);
            }
            pass.items.push((q.id.clone(), ms));
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.layer.insert(
            "mc.proved_ratio".into(),
            proved as f64 / attempts.max(1) as f64,
        );
        Ok(pass)
    }
}

fn check(got: u128, pinned: u128) -> Result<(), String> {
    if got == pinned {
        Ok(())
    } else {
        Err(format!("returned {got}, pinned {pinned}"))
    }
}
