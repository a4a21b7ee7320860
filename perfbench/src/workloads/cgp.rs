//! `cgp_evolve`: the verifiability-driven CGP search (`axmc_cgp::evolve`)
//! approximating a 6-bit multiplier under a 10 % worst-case relative
//! error. A pass is [`RUNS`] independent runs of [`GENERATIONS`]
//! generations each. The budget is a generation count, not a time, so a
//! pass does the same work every time.
//!
//! Run slot `i` searches with seed `(seed + i) mod RUNS`: the workload
//! seed rotates the fixed search seeds `0..RUNS` over the slots, so every
//! pass covers the same five trajectories. A run's cost depends strongly
//! on its trajectory; with ten search seeds drawn freely from the
//! workload seed, pass time moved by 13 % between workload seeds. Five
//! runs make a short pass, so each run is timed in about ten passes:
//! back to back, one run of ~0.4 s varies by ±17 %, and its best of the
//! five repetitions that ten runs per pass allowed spread by 10–13 % over
//! five seeds.

use super::common::{probe_comb_layers, round_trip, timed_ms};
use crate::harness::{Pass, Workload};
use crate::trace::Tracer;
use axmc_aig::Aig;
use axmc_cgp::{evolve, SearchOptions};
use axmc_circuit::{generators, Netlist};
use axmc_core::exhaustive_stats;
use std::time::{Duration, Instant};

/// Operand width of the multiplier.
const WIDTH: usize = 6;
/// Independent runs per pass.
const RUNS: usize = 5;
/// Generation budget of each run.
const GENERATIONS: u64 = 30;
/// Worst-case relative error allowed, in percent of the output range.
const WCRE_PERCENT: u128 = 10;

/// The `cgp_evolve` workload.
pub struct Cgp {
    /// Search seed of each run slot.
    run_seeds: Vec<u64>,
    golden: Option<(Netlist, Aig)>,
}

impl Cgp {
    /// Assigns the search seeds to run slots for workload seed `seed`.
    pub fn new(seed: u64) -> Self {
        Cgp {
            run_seeds: (0..RUNS as u64)
                .map(|i| (seed % RUNS as u64 + i) % RUNS as u64)
                .collect(),
            golden: None,
        }
    }

    fn options(seed: u64, generations: u64) -> SearchOptions {
        let max_output = (1u128 << (2 * WIDTH)) - 1;
        SearchOptions {
            threshold: max_output * WCRE_PERCENT / 100,
            max_generations: generations,
            // Never binding: the generation budget ends every run.
            time_limit: Duration::from_secs(3600),
            seed,
            jobs: 1,
            ..SearchOptions::default()
        }
    }
}

impl Workload for Cgp {
    fn nominal_pass_s(&self) -> f64 {
        3.2
    }

    fn setup(&mut self, _input: usize, tracer: &mut Tracer) -> Result<(), String> {
        let netlist = tracer.span("circuit.gen", "cgp", |_| {
            generators::array_multiplier(WIDTH)
        });
        let aig = round_trip(tracer, "golden", &netlist.to_aig())?;
        // Warm-up: a short run on a search seed no timed run uses.
        evolve(&netlist, &Self::options(RUNS as u64, 5))
            .map_err(|e| format!("warm-up run: {e}"))?;
        self.golden = Some((netlist, aig));
        Ok(())
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Result<Pass, String> {
        let (golden, golden_aig) = self.golden.as_ref().ok_or("pass before set-up")?;
        let mut pass = Pass::default();
        let (mut offspring, mut calls, mut evolve_s, mut area_sum) = (0u64, 0u64, 0.0, 0.0);
        let mut bests = Vec::new();
        let start = Instant::now();
        for &seed in &self.run_seeds {
            let id = format!("search-seed{seed}");
            let options = Self::options(seed, GENERATIONS);
            let (result, ms) =
                tracer.span("cgp.evolve", &id, |_| timed_ms(|| evolve(golden, &options)));
            pass.attempted += 1;
            pass.items.push((id.clone(), ms));
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    pass.failed += 1;
                    eprintln!("cgp_evolve: {id} failed: {e}");
                    continue;
                }
            };
            // Independent re-check: the best circuit's exact error by
            // exhaustive simulation, and its area against the golden.
            let best = result.netlist.to_aig();
            let wce = exhaustive_stats(golden_aig, &best).wce;
            if wce > options.threshold || result.area > result.golden_area {
                pass.failed += 1;
                eprintln!(
                    "cgp_evolve: {id} best circuit has WCE {wce} (threshold {}) and area {} (golden {})",
                    options.threshold, result.area, result.golden_area
                );
            }
            offspring += result.stats.offspring;
            calls += result.stats.verifier_calls;
            evolve_s += ms / 1e3;
            area_sum += result.relative_area();
            bests.push((id, best));
        }
        pass.wall_s = start.elapsed().as_secs_f64();

        pass.layer.insert("cgp.verifier_calls".into(), calls as f64);
        pass.layer
            .insert("cgp.evals_per_s".into(), offspring as f64 / evolve_s);
        pass.layer.insert(
            "cgp.best_area_ratio".into(),
            area_sum / bests.len().max(1) as f64,
        );
        if tracer.enabled() {
            let (mut ands, mut clauses) = (0, 0);
            for (id, best) in &bests {
                let (a, c) = probe_comb_layers(tracer, id, golden_aig, best);
                ands += a;
                clauses += c;
            }
            pass.layer.insert("miter.ands".into(), ands as f64);
            pass.layer.insert("cnf.clauses".into(), clauses as f64);
        }
        Ok(pass)
    }
}
