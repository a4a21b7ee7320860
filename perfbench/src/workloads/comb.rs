//! `comb_wce`: exact worst-case and bit-flip error of approximate adders
//! and multipliers through `CombAnalyzer`, the paper's component query.
//!
//! The query set is fixed: the builtin multiplier library at widths 4–6,
//! two 7-bit multipliers and the adder library at widths 8, 10 and 16,
//! each pair asked for both metrics. A quarter of the queries run
//! certified: the 6-bit operand-truncated multiplier's WCE, which alone
//! costs about a third of a pass, and every fourth of the other queries
//! except the heaviest. The seed fixes the order the queries run in. A
//! seed that also picked adder parameters and the certified queries made
//! the pass time and the median query move by about a tenth between
//! seeds, more than the metrics' bounds allow.

use super::common::{probe_comb_layers, round_trip, timed_ms};
use crate::harness::{Pass, Workload};
use crate::trace::Tracer;
use axmc_aig::Aig;
use axmc_circuit::{approx, generators, Netlist};
use axmc_core::{exhaustive_stats, AnalysisOptions, CombAnalyzer};
use axmc_rand::SplitMix64;
use std::time::Instant;

/// Worst-case and bit-flip error of the 16-bit adder library (32 inputs,
/// beyond exhaustive simulation), pinned from a BDD-backend run.
const PINNED_ADD16: &[(&str, u128, u32)] = &[
    ("add16_trunc4", 30, 16),
    ("add16_trunc8", 510, 16),
    ("add16_loa4", 8, 17),
    ("add16_loa8", 128, 17),
    ("add16_spec2", 17472, 13),
    ("add16_spec4", 4096, 9),
];

/// Queries whose uncertified time alone is a large share of a pass; of
/// these only [`ALWAYS_CERTIFIED`] runs certified.
const HEAVY: &[&str] = &[
    "mul6_pptrunc3/wce",
    "mul6_optrunc1/wce",
    "mul6_pptrunc6/wce",
    "mul7_pptrunc7/wce",
    "mul7_optrunc3/wce",
];

/// The heavy query that is always certified.
const ALWAYS_CERTIFIED: &str = "mul6_optrunc1/wce";

struct PairSpec {
    name: String,
    golden: Netlist,
    candidate: Netlist,
}

#[derive(Clone, Debug)]
struct Query {
    id: String,
    pair: usize,
    bit_flip: bool,
    certify: bool,
}

/// The `comb_wce` workload.
pub struct Comb {
    queries: Vec<Query>,
    /// `(wce, bit_flip)` per pair.
    reference: Vec<(u128, u32)>,
    pairs: Vec<(String, Aig, Aig)>,
}

fn pair_specs() -> Vec<PairSpec> {
    let mut specs = Vec::new();
    let mut library =
        |golden: Netlist, lib: Vec<approx::Component>, keep: &dyn Fn(&str) -> bool| {
            for c in lib.into_iter().skip(1).filter(|c| keep(&c.name)) {
                specs.push(PairSpec {
                    name: c.name,
                    golden: golden.clone(),
                    candidate: c.netlist,
                });
            }
        };
    for w in [4, 5, 6] {
        library(
            generators::array_multiplier(w),
            approx::multiplier_library(w),
            &|_| true,
        );
    }
    library(
        generators::array_multiplier(7),
        approx::multiplier_library(7),
        &|n| n == "mul7_pptrunc7" || n == "mul7_optrunc3",
    );
    for w in [8, 10, 16] {
        library(
            generators::ripple_carry_adder(w),
            approx::adder_library(w),
            &|_| true,
        );
    }
    specs
}

impl Comb {
    /// Builds the query set for `seed` and computes every reference value.
    pub fn new(seed: u64) -> Result<Self, String> {
        let specs = pair_specs();
        let mut reference = Vec::with_capacity(specs.len());
        for s in &specs {
            let (g, c) = (s.golden.to_aig(), s.candidate.to_aig());
            if g.num_inputs() <= 20 {
                let ex = exhaustive_stats(&g, &c);
                reference.push((ex.wce, ex.bit_flip));
            } else {
                let &(_, wce, bf) = PINNED_ADD16
                    .iter()
                    .find(|(n, _, _)| *n == s.name)
                    .ok_or_else(|| format!("no pinned value for {}", s.name))?;
                reference.push((wce, bf));
            }
        }

        let mut queries: Vec<Query> = specs
            .iter()
            .enumerate()
            .flat_map(|(pair, s)| {
                [false, true].map(|bit_flip| Query {
                    id: format!("{}/{}", s.name, if bit_flip { "bf" } else { "wce" }),
                    pair,
                    bit_flip,
                    certify: false,
                })
            })
            .collect();
        let light: Vec<usize> = (0..queries.len())
            .filter(|&i| !HEAVY.contains(&queries[i].id.as_str()))
            .collect();
        for &i in light.iter().step_by(4) {
            queries[i].certify = true;
        }
        for q in queries.iter_mut() {
            if q.id == ALWAYS_CERTIFIED {
                q.certify = true;
            }
        }
        crate::shuffle(&mut SplitMix64::new(seed ^ 0xCE47), &mut queries);
        Ok(Comb {
            queries,
            reference,
            pairs: Vec::new(),
        })
    }
}

impl Workload for Comb {
    fn nominal_pass_s(&self) -> f64 {
        4.1
    }

    fn setup(&mut self, _input: usize, tracer: &mut Tracer) -> Result<(), String> {
        let specs = tracer.span("circuit.gen", "comb", |_| pair_specs());
        self.pairs.clear();
        for s in specs {
            let golden = round_trip(tracer, &s.name, &s.golden.to_aig())?;
            let candidate = round_trip(tracer, &s.name, &s.candidate.to_aig())?;
            self.pairs.push((s.name, golden, candidate));
        }
        // Warm-up: one uncertified query of each component class.
        for name in ["mul5_pptrunc5", "add10_trunc5", "add16_loa8"] {
            let (_, g, c) = self
                .pairs
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("warm-up pair {name} is not in the query set"))?;
            CombAnalyzer::new(g, c)
                .worst_case_error()
                .map_err(|e| format!("warm-up {name}: {e}"))?;
        }
        Ok(())
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let start = Instant::now();
        for q in &self.queries {
            let (name, golden, candidate) = &self.pairs[q.pair];
            let options = AnalysisOptions::new().with_certify(q.certify).with_jobs(1);
            let analyzer = CombAnalyzer::new(golden, candidate).with_options(options);
            let (value, ms) = tracer.span("core.query", &q.id, |_| {
                timed_ms(|| {
                    if q.bit_flip {
                        analyzer.bit_flip_error().map(|r| r.value as u128)
                    } else {
                        analyzer.worst_case_error().map(|r| r.value)
                    }
                })
            });
            let (wce, bf) = self.reference[q.pair];
            let expected = if q.bit_flip { bf as u128 } else { wce };
            pass.attempted += 1;
            match value {
                Ok(v) if v == expected => {}
                Ok(v) => {
                    pass.failed += 1;
                    eprintln!(
                        "comb_wce: {} ({name}) returned {v}, reference {expected}",
                        q.id
                    );
                }
                Err(e) => {
                    pass.failed += 1;
                    eprintln!("comb_wce: {} failed: {e}", q.id);
                }
            }
            pass.items.push((q.id.clone(), ms));
        }
        pass.wall_s = start.elapsed().as_secs_f64();

        if tracer.enabled() {
            let (mut ands, mut clauses) = (0, 0);
            for (name, golden, candidate) in &self.pairs {
                let (a, c) = probe_comb_layers(tracer, name, golden, candidate);
                ands += a;
                clauses += c;
            }
            pass.layer.insert("miter.ands".into(), ands as f64);
            pass.layer.insert("cnf.clauses".into(), clauses as f64);
        }
        Ok(pass)
    }
}
