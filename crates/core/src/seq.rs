//! Precise error determination for approximated components in
//! **sequential** circuits — the paper's headline capability.
//!
//! All metrics are defined over the golden/approximated product machine
//! from the reset state:
//!
//! * **earliest error** — the first cycle in which the outputs can differ
//!   at all (incremental BMC over the strict sequential miter);
//! * **WCE@k** — the precise worst-case arithmetic error over all input
//!   sequences and all cycles `<= k` (counterexample-guided binary search,
//!   each probe a BMC run over a threshold miter);
//! * **bit-flip@k** — the analogous Hamming-distance metric;
//! * **total error@k** — the maximum accumulated sum of per-cycle errors
//!   (the general accumulating-miter scheme);
//! * **temporal error rate** — the maximum number of erroneous cycles
//!   within a horizon;
//! * **error-bound proof** — `G (|error| <= T)` for *unbounded* time via
//!   k-induction over the threshold miter;
//! * **growth classification** — whether WCE@k keeps growing with k
//!   (feedback accumulation) or saturates.
//!
//! Every engine is *anytime* under resource governance: a blown deadline,
//! exhausted budget or raised cancellation token surfaces as
//! [`AnalysisError::Interrupted`] (or an `Interrupted` [`Verdict`]) whose
//! payload carries the tightest certified bounds reached so far.

use crate::bound_search::{search_max_error_batched, search_max_error_batched_in};
use crate::cache::{cached, metric, CachedResult, QueryKey};
use crate::engine::{Backend, EngineKind};
use crate::options::AnalysisOptions;
use crate::report::{AnalysisError, ErrorProfile, ErrorReport, Partial};
use crate::verdict::Verdict;
use axmc_aig::{bits_to_u128, Aig, Simulator};
use axmc_cnf::gates;
use axmc_cnf::sweep::{fraig, SweepOptions};
use axmc_mc::{
    prove_invariant, Bmc, BmcOptions, BmcResult, InductionOptions, ProofResult, Trace, Unroller,
};
use axmc_miter::{
    accumulated_error_miter, error_cycle_count_miter, sequential_diff_miter,
    sequential_diff_word_miter, sequential_popcount_word_miter, sequential_strict_miter,
};
use axmc_sat::{Interrupt, SolveResult};
use std::sync::atomic::{AtomicU64, Ordering};

/// How one persistent threshold probe interprets the miter's output word.
#[derive(Clone, Copy)]
enum WordKind {
    /// Two's-complement difference (sign bit last): probe `|diff| > t`.
    SignedDiff,
    /// Unsigned magnitude (popcount): probe `word > t`.
    Unsigned,
}

/// A persistent incremental engine for threshold probes over a BMC
/// unrolling: the product machine is encoded **once**; every probe only
/// adds a small comparator at the clause level and solves under an
/// assumption, so learnt clauses amortize across the entire search.
///
/// Cloning duplicates the whole warmed-up solver state, which is how a
/// portfolio of speculative probes gets one independent engine per lane
/// without re-encoding the product machine. Clones share the control's
/// cancellation token, so one `cancel()` stops the whole pool.
#[derive(Clone)]
struct ThresholdEngine {
    unroller: Unroller,
    kind: WordKind,
}

impl ThresholdEngine {
    fn new(miter: Aig, kind: WordKind, options: &AnalysisOptions) -> Self {
        let miter = if options.sweep {
            fraig(&miter, &SweepOptions::default()).0
        } else {
            miter.compact()
        };
        // With the static tier on, the product machine is additionally
        // swept by the ternary fixpoint before encoding: an
        // equisatisfiable interface-preserving reduction, so every probe
        // verdict is unchanged while each BMC frame encodes fewer gates.
        let mut unroller = if options.static_tier {
            Unroller::new_reduced(miter).0
        } else {
            Unroller::new(miter)
        };
        unroller.configure(&options.solver_config());
        ThresholdEngine { unroller, kind }
    }

    /// Can the per-cycle word exceed `threshold` in any cycle `<= k`?
    fn probe(&mut self, threshold: u128, k: usize) -> Result<Verdict<Trace>, AnalysisError> {
        self.unroller.extend_to(k + 1);
        let true_lit = self.unroller.true_lit();
        let mut flags = Vec::with_capacity(k + 1);
        for frame in 0..=k {
            let word = self.unroller.frame(frame).outputs.clone();
            let solver = self.unroller.solver_mut();
            let flag = match self.kind {
                WordKind::SignedDiff => gates::abs_diff_exceeds(solver, &word, threshold, true_lit),
                WordKind::Unsigned => gates::ugt_const(solver, &word, threshold, true_lit),
            };
            flags.push(flag);
        }
        let solver = self.unroller.solver_mut();
        let any = gates::or_all(solver, &flags, true_lit);
        match solver.solve_with_assumptions(&[any]) {
            SolveResult::Sat => Ok(Verdict::Refuted {
                witness: self.unroller.extract_trace(k),
            }),
            SolveResult::Unsat => {
                if self.unroller.certify() {
                    if let Err(e) = self.unroller.certify_unsat() {
                        return Err(AnalysisError::CertificateRejected {
                            engine: "seq".to_string(),
                            detail: format!(
                                "UNSAT certificate for a threshold probe (t={threshold}, \
                                 k={k}) failed validation ({e})"
                            ),
                        });
                    }
                }
                Ok(Verdict::Proved)
            }
            SolveResult::Unknown => Ok(Verdict::Interrupted {
                best_so_far: Partial::trivial(
                    self.unroller
                        .solver()
                        .last_interrupt()
                        .unwrap_or(Interrupt::Conflicts),
                ),
            }),
        }
    }

    fn conflicts(&self) -> u64 {
        self.unroller.solver().stats().conflicts
    }
}

/// The result of the earliest-error analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EarliestError {
    /// First cycle (0-based) in which the outputs can differ, or `None`
    /// if they provably agree for all cycles up to the horizon.
    pub cycle: Option<usize>,
    /// A witnessing input trace when `cycle` is `Some`.
    pub trace: Option<Trace>,
    /// BMC queries issued.
    pub sat_calls: u64,
}

/// Precise sequential error analysis of a golden/approximated pair.
///
/// Both circuits must have identical input and output counts; outputs are
/// interpreted as unsigned little-endian integers each cycle.
///
/// # Examples
///
/// ```
/// use axmc_circuit::{generators, approx};
/// use axmc_seq::accumulator;
/// use axmc_core::SeqAnalyzer;
///
/// let golden = accumulator(&generators::ripple_carry_adder(4), 4);
/// let apx = accumulator(&approx::truncated_adder(4, 1), 4);
/// let analyzer = SeqAnalyzer::new(&golden, &apx);
/// // The truncated accumulator state first differs one cycle after the
/// // first mis-added input arrives.
/// let earliest = analyzer.earliest_error(8)?;
/// assert_eq!(earliest.cycle, Some(1));
/// # Ok::<(), axmc_core::AnalysisError>(())
/// ```
#[derive(Debug)]
pub struct SeqAnalyzer<'a> {
    golden: &'a Aig,
    approx: &'a Aig,
    options: AnalysisOptions,
}

impl<'a> SeqAnalyzer<'a> {
    /// Creates an analyzer for the pair.
    ///
    /// # Panics
    ///
    /// Panics if the interfaces differ.
    pub fn new(golden: &'a Aig, approx: &'a Aig) -> Self {
        assert_eq!(golden.num_inputs(), approx.num_inputs(), "input counts");
        assert_eq!(golden.num_outputs(), approx.num_outputs(), "output counts");
        SeqAnalyzer {
            golden,
            approx,
            options: AnalysisOptions::default(),
        }
    }

    /// Replaces the full analysis option bundle (resource control,
    /// certification, portfolio width, sweeping).
    pub fn with_options(mut self, options: AnalysisOptions) -> Self {
        self.options = options;
        self
    }

    /// Whether the static pre-analysis tier runs before solver work.
    fn static_tier_active(&self) -> bool {
        self.options.static_tier || self.options.backend == Backend::Static
    }

    /// Certified `[lo, hi]` interval on a sequential miter's unsigned
    /// output word over **every** reachable cycle, from the converged
    /// ternary fixpoint (latch values over-approximated from reset).
    /// `None` when the word is too wide to bound. The bits proven
    /// constant hold in all reachable states, so `lo` is attained in
    /// every cycle of every run and `hi` is a sound ceiling at any
    /// horizon.
    fn static_word_interval(miter: &Aig) -> Option<(u128, u128)> {
        axmc_absint::TernaryAnalysis::fixpoint(miter).output_interval(miter)
    }

    /// One warmed-up engine per portfolio lane, all starting from the
    /// same encoded product machine. With clause sharing enabled and at
    /// least two lanes, every lane is attached to one fresh
    /// [`ShareRing`](axmc_sat::ShareRing): the lanes are clones of one
    /// prototype, so the variables existing at pool-creation time are
    /// encoded identically everywhere and safe to share over.
    fn engine_pool(&self, prototype: ThresholdEngine) -> Vec<ThresholdEngine> {
        let jobs = self.options.effective_jobs();
        let mut pool = Vec::with_capacity(jobs);
        pool.push(prototype);
        while pool.len() < jobs {
            let clone = pool[0].clone();
            pool.push(clone);
        }
        if self.options.share && jobs > 1 {
            let ring = axmc_sat::ShareRing::new();
            let shared_vars = pool[0].unroller.solver().num_vars();
            for (lane, engine) in pool.iter_mut().enumerate() {
                let config = engine
                    .unroller
                    .solver()
                    .current_config()
                    .with_share(ring.handle(lane, shared_vars));
                engine.unroller.configure(&config);
            }
        }
        pool
    }

    /// Finds the earliest cycle (up to `max_cycles - 1`) in which the two
    /// circuits' outputs can differ.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a BMC query is stopped by a
    /// resource limit before a verdict; `completed_bound` in the payload
    /// is the number of leading cycles already certified clear.
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn earliest_error(&self, max_cycles: usize) -> Result<EarliestError, AnalysisError> {
        let miter = sequential_strict_miter(self.golden, self.approx);
        let mut bmc = Bmc::with_options(
            &miter,
            &BmcOptions::new().with_solver(self.options.solver_config()),
        );
        let mut sat_calls = 0;
        for k in 0..max_cycles {
            sat_calls += 1;
            match bmc.check_at(k)? {
                BmcResult::Cex(trace) => {
                    return Ok(EarliestError {
                        cycle: Some(k),
                        trace: Some(trace),
                        sat_calls,
                    })
                }
                BmcResult::Clear => continue,
                BmcResult::Unknown(reason) => {
                    return Err(AnalysisError::Interrupted(Partial {
                        reason: Some(reason),
                        known_low: 0,
                        known_high: u128::MAX,
                        completed_bound: Some(k),
                    }))
                }
            }
        }
        Ok(EarliestError {
            cycle: None,
            trace: None,
            sat_calls,
        })
    }

    /// Replays a trace on both circuits and returns the maximum per-cycle
    /// absolute output difference.
    pub fn trace_error(&self, trace: &Trace) -> u128 {
        let og = trace.replay(self.golden);
        let oc = trace.replay(self.approx);
        og.iter()
            .zip(&oc)
            .map(|(g, c)| bits_to_u128(g).abs_diff(bits_to_u128(c)))
            .max()
            .unwrap_or(0)
    }

    /// One threshold probe: can the error exceed `threshold` in any cycle
    /// `<= k`? `Refuted` carries the witnessing trace.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn check_error_exceeds(
        &self,
        threshold: u128,
        k: usize,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(self.golden, self.approx, metric::SEQ_EXCEEDS, &self.options)
                    .with_threshold(threshold)
                    .with_cycles(k)
            },
            |hit| match hit {
                CachedResult::SeqVerdict(v) => Some(v),
                _ => None,
            },
            |v| match v {
                Verdict::Interrupted { .. } => None,
                done => Some(CachedResult::SeqVerdict(done.clone())),
            },
            || {
                if self.static_tier_active() {
                    let miter = sequential_diff_word_miter(self.golden, self.approx);
                    if Self::static_word_interval(&miter) == Some((0, 0)) {
                        // The difference word is statically zero in every
                        // reachable cycle: no threshold can be exceeded.
                        axmc_obs::counter("absint.decided").inc();
                        return Ok(Verdict::Proved);
                    }
                }
                let mut engine = self.diff_engine();
                engine.probe(threshold, k)
            },
        )
    }

    /// Opens a **persistent probe session** over the pair's difference
    /// miter: the product machine is encoded once, and every subsequent
    /// [`SeqProbe::check_error_exceeds`] reuses the warmed-up incremental
    /// solver (unrolled frames, learnt clauses). A batch service probing
    /// the same pair at many thresholds or horizons should hold one
    /// session per pair instead of paying the encoding on every query.
    pub fn probe_session(&self) -> SeqProbe {
        SeqProbe {
            engine: self.diff_engine(),
        }
    }

    fn diff_engine(&self) -> ThresholdEngine {
        ThresholdEngine::new(
            sequential_diff_word_miter(self.golden, self.approx),
            WordKind::SignedDiff,
            &self.options,
        )
    }

    /// The precise worst-case error over all cycles `<= k`, via
    /// counterexample-guided galloping search over BMC probes. With
    /// `jobs` above 1 in the options the probes run as a speculative
    /// portfolio on cloned engines.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] with the tightest bracketing
    /// interval reached when a resource limit stops the search.
    pub fn worst_case_error_at(&self, k: usize) -> Result<ErrorReport<u128>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(self.golden, self.approx, metric::SEQ_WCE, &self.options)
                    .with_cycles(k)
            },
            |hit| match hit {
                CachedResult::Wide(r) => Some(r),
                _ => None,
            },
            |r| Some(CachedResult::Wide(*r)),
            || {
                let m = self.golden.num_outputs();
                let max: u128 = if m >= 128 {
                    u128::MAX
                } else {
                    (1u128 << m) - 1
                };
                if self.static_tier_active() {
                    // The diff word is signed, so only the all-bits-zero
                    // ceiling is a certified |error| bound — but that one
                    // case decides the query with no solver at all.
                    let miter = sequential_diff_word_miter(self.golden, self.approx);
                    if Self::static_word_interval(&miter) == Some((0, 0)) {
                        axmc_obs::counter("absint.decided").inc();
                        return Ok(ErrorReport {
                            value: 0,
                            sat_calls: 0,
                            conflicts: 0,
                            engine: EngineKind::Static,
                        });
                    }
                    if self.options.backend == Backend::Static {
                        return Err(AnalysisError::Interrupted(Partial {
                            reason: None,
                            known_low: 0,
                            known_high: max,
                            completed_bound: None,
                        }));
                    }
                }
                let mut engines = self.engine_pool(self.diff_engine());
                let sat_calls = AtomicU64::new(0);
                let value = search_max_error_batched("seq.wce", max, engines.len(), |ts| {
                    axmc_par::parallel_zip_mut(&mut engines, ts, |_, engine, &t| {
                        sat_calls.fetch_add(1, Ordering::Relaxed);
                        Ok(engine.probe(t, k)?.map(|trace| {
                            let witnessed = self.trace_error(&trace);
                            debug_assert!(witnessed > t);
                            witnessed
                        }))
                    })
                })?;
                Ok(ErrorReport {
                    value,
                    sat_calls: sat_calls.into_inner(),
                    conflicts: engines.iter().map(ThresholdEngine::conflicts).sum(),
                    engine: EngineKind::Sat,
                })
            },
        )
    }

    /// The precise worst-case Hamming distance of the outputs over all
    /// cycles `<= k`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] with the tightest bracketing
    /// interval reached when a resource limit stops the search.
    pub fn bit_flip_error_at(&self, k: usize) -> Result<ErrorReport<u32>, AnalysisError> {
        cached(
            &self.options,
            || {
                QueryKey::new(
                    self.golden,
                    self.approx,
                    metric::SEQ_BIT_FLIP,
                    &self.options,
                )
                .with_cycles(k)
            },
            |hit| match hit {
                CachedResult::Narrow(r) => Some(r),
                _ => None,
            },
            |r| Some(CachedResult::Narrow(*r)),
            || {
                let max = self.golden.num_outputs() as u128;
                let miter = sequential_popcount_word_miter(self.golden, self.approx);
                let mut window = None;
                if self.static_tier_active() {
                    // The popcount word is unsigned, so the full ternary
                    // interval seeds the search window; a pinned interval
                    // decides the query outright.
                    if let Some((lo, hi)) = Self::static_word_interval(&miter) {
                        if lo == hi {
                            axmc_obs::counter("absint.decided").inc();
                            return Ok(ErrorReport {
                                value: lo as u32,
                                sat_calls: 0,
                                conflicts: 0,
                                engine: EngineKind::Static,
                            });
                        }
                        if self.options.backend == Backend::Static {
                            return Err(AnalysisError::Interrupted(Partial {
                                reason: None,
                                known_low: lo,
                                known_high: hi.min(max),
                                completed_bound: None,
                            }));
                        }
                        window = Some((lo, hi));
                    } else if self.options.backend == Backend::Static {
                        return Err(AnalysisError::Interrupted(Partial {
                            reason: None,
                            known_low: 0,
                            known_high: max,
                            completed_bound: None,
                        }));
                    }
                }
                let mut engines = self.engine_pool(ThresholdEngine::new(
                    miter,
                    WordKind::Unsigned,
                    &self.options,
                ));
                let sat_calls = AtomicU64::new(0);
                let value = search_max_error_batched_in(
                    "seq.bit_flip",
                    max,
                    engines.len(),
                    window,
                    |ts| {
                        axmc_par::parallel_zip_mut(&mut engines, ts, |_, engine, &t| {
                            sat_calls.fetch_add(1, Ordering::Relaxed);
                            Ok(engine.probe(t, k)?.map(|trace| {
                                let og = trace.replay(self.golden);
                                let oc = trace.replay(self.approx);
                                og.iter()
                                    .zip(&oc)
                                    .map(|(g, c)| (bits_to_u128(g) ^ bits_to_u128(c)).count_ones())
                                    .max()
                                    .unwrap_or(0) as u128
                            }))
                        })
                    },
                )?;
                Ok(ErrorReport {
                    value: value as u32,
                    sat_calls: sat_calls.into_inner(),
                    conflicts: engines.iter().map(ThresholdEngine::conflicts).sum(),
                    engine: EngineKind::Sat,
                })
            },
        )
    }

    /// The per-horizon worst-case error profile `WCE@0 .. WCE@k`, computed
    /// incrementally (each horizon's search starts from the previous
    /// value as lower bound).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit stops any
    /// horizon's search.
    pub fn error_profile(&self, k: usize) -> Result<ErrorProfile, AnalysisError> {
        let m = self.golden.num_outputs();
        let max = if m >= 128 {
            u128::MAX
        } else {
            (1u128 << m) - 1
        };
        let mut profile = Vec::with_capacity(k + 1);
        let sat_calls = AtomicU64::new(0);
        let mut prev: u128 = 0;
        let mut engines = self.engine_pool(self.diff_engine());
        for horizon in 0..=k {
            // WCE@horizon >= WCE@(horizon-1): probes below `prev` are
            // answered from the invariant without touching the solver.
            let floor = prev;
            let value = search_max_error_batched("seq.profile", max, engines.len(), |ts| {
                axmc_par::parallel_zip_mut(&mut engines, ts, |_, engine, &t| {
                    if t < floor {
                        return Ok(Verdict::Refuted { witness: floor });
                    }
                    sat_calls.fetch_add(1, Ordering::Relaxed);
                    Ok(engine
                        .probe(t, horizon)?
                        .map(|trace| self.trace_error(&trace)))
                })
            })?;
            prev = value;
            profile.push(value);
        }
        Ok(ErrorProfile {
            profile,
            sat_calls: sat_calls.into_inner(),
        })
    }

    /// Attempts to prove the **unbounded** bound `G (|error| <= threshold)`
    /// by k-induction over the sequential threshold miter.
    ///
    /// The analyzer's resource control composes into the proof attempt:
    /// its deadline can only tighten the one in `options`, and its
    /// cancellation token is adopted when `options` carries none. An
    /// attempt stopped by `max_k` or a resource limit returns
    /// `Verdict::Interrupted`; `completed_bound` in the payload is the
    /// number of leading cycles certified clear by the base cases.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn prove_error_bound(
        &self,
        threshold: u128,
        options: &InductionOptions,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        let miter = sequential_diff_miter(self.golden, self.approx, threshold);
        let mut options = options.clone();
        if let Some(deadline) = self.options.ctl.deadline() {
            options.ctl = options.ctl.with_deadline(deadline);
        }
        if options.ctl.cancel_token().is_none() {
            if let Some(token) = self.options.ctl.cancel_token() {
                options.ctl = options.ctl.with_cancel(token.clone());
            }
        }
        options.certify |= self.options.certify;
        match prove_invariant(&miter, &options)? {
            ProofResult::Proved { .. } => Ok(Verdict::Proved),
            ProofResult::Falsified(trace) => Ok(Verdict::Refuted { witness: trace }),
            ProofResult::Unknown {
                completed_k,
                interrupt,
            } => Ok(Verdict::Interrupted {
                best_so_far: Partial {
                    reason: interrupt,
                    known_low: 0,
                    known_high: u128::MAX,
                    completed_bound: Some(completed_k),
                },
            }),
        }
    }

    /// One probe of the **total** (accumulated) error: can the sum of the
    /// per-cycle absolute errors over cycles `<= k` exceed `threshold`?
    ///
    /// Uses the general accumulating miter (the paper's Gen/C/G/E/A/D
    /// scheme) with a saturating `acc_width`-bit running total, checked by
    /// BMC. Saturation makes a positive answer sound for any horizon.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    ///
    /// # Panics
    ///
    /// Panics if `acc_width` is 0 or exceeds 127.
    pub fn check_total_error_exceeds(
        &self,
        threshold: u128,
        k: usize,
        acc_width: usize,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        let miter = accumulated_error_miter(self.golden, self.approx, acc_width, threshold);
        let mut bmc = Bmc::with_options(
            &miter,
            &BmcOptions::new().with_solver(self.options.solver_config()),
        );
        match bmc.check_any_up_to(k)? {
            BmcResult::Cex(t) => Ok(Verdict::Refuted { witness: t }),
            BmcResult::Clear => Ok(Verdict::Proved),
            BmcResult::Unknown(reason) => Ok(Verdict::Interrupted {
                best_so_far: Partial::trivial(reason),
            }),
        }
    }

    /// The exact **total** error within `k` cycles: the maximum over input
    /// sequences of the *sum* of per-cycle absolute errors.
    ///
    /// `acc_width` must be wide enough to hold the result; it is checked
    /// by verifying the final answer is below the saturation point.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit stops the
    /// search, or — with `reason: None` and `known_low` at the saturation
    /// point — if `acc_width` saturated (the total exceeds its range and
    /// the caller must widen the accumulator).
    pub fn total_error_at(
        &self,
        k: usize,
        acc_width: usize,
    ) -> Result<ErrorReport<u128>, AnalysisError> {
        let max = (1u128 << acc_width) - 1;
        let sat_calls = AtomicU64::new(0);
        let jobs = self.options.effective_jobs();
        // Each probe builds its own accumulating miter + BMC instance, so
        // the portfolio shape here is a plain parallel map.
        let value = search_max_error_batched("seq.total", max, jobs, |ts| {
            axmc_par::parallel_map(jobs, ts, |_, &t| {
                sat_calls.fetch_add(1, Ordering::Relaxed);
                Ok(self
                    .check_total_error_exceeds(t, k, acc_width)?
                    .map(|trace| {
                        let witnessed = self.trace_total_error(&trace);
                        witnessed.max(t + 1).min(max)
                    }))
            })
        })?;
        if value >= max {
            // The saturating accumulator cannot distinguish totals at or
            // above its ceiling; the caller must widen it.
            return Err(AnalysisError::Interrupted(Partial {
                reason: None,
                known_low: max,
                known_high: u128::MAX,
                completed_bound: None,
            }));
        }
        Ok(ErrorReport {
            value,
            sat_calls: sat_calls.into_inner(),
            conflicts: 0,
            engine: EngineKind::Sat,
        })
    }

    /// Replays a trace on both circuits and returns the **sum** of
    /// per-cycle absolute output differences.
    pub fn trace_total_error(&self, trace: &Trace) -> u128 {
        let og = trace.replay(self.golden);
        let oc = trace.replay(self.approx);
        og.iter()
            .zip(&oc)
            .map(|(g, c)| bits_to_u128(g).abs_diff(bits_to_u128(c)))
            .sum()
    }

    /// One probe of the **temporal error rate**: can more than
    /// `max_bad_cycles` of the first `k + 1` cycles have a per-cycle
    /// absolute error exceeding `per_cycle_threshold`?
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn check_error_cycles_exceed(
        &self,
        max_bad_cycles: u128,
        k: usize,
        per_cycle_threshold: u128,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        // The counter must hold k + 1; one extra bit covers saturation.
        let count_width = (usize::BITS - (k + 1).leading_zeros()) as usize + 1;
        let miter = error_cycle_count_miter(
            self.golden,
            self.approx,
            count_width.min(127),
            max_bad_cycles,
            per_cycle_threshold,
        );
        let mut bmc = Bmc::with_options(
            &miter,
            &BmcOptions::new().with_solver(self.options.solver_config()),
        );
        match bmc.check_any_up_to(k)? {
            BmcResult::Cex(t) => Ok(Verdict::Refuted { witness: t }),
            BmcResult::Clear => Ok(Verdict::Proved),
            BmcResult::Unknown(reason) => Ok(Verdict::Interrupted {
                best_so_far: Partial::trivial(reason),
            }),
        }
    }

    /// The exact maximum number of erroneous cycles (error above
    /// `per_cycle_threshold`) any input sequence can cause within the
    /// first `k + 1` cycles — the worst-case temporal error rate is this
    /// value divided by `k + 1`.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Interrupted`] if a resource limit stops the
    /// search.
    pub fn max_error_cycles_at(
        &self,
        k: usize,
        per_cycle_threshold: u128,
    ) -> Result<ErrorReport<u32>, AnalysisError> {
        let sat_calls = AtomicU64::new(0);
        let max = (k + 1) as u128;
        let jobs = self.options.effective_jobs();
        let value = search_max_error_batched("seq.error_cycles", max, jobs, |ts| {
            axmc_par::parallel_map(jobs, ts, |_, &t| {
                sat_calls.fetch_add(1, Ordering::Relaxed);
                Ok(self
                    .check_error_cycles_exceed(t, k, per_cycle_threshold)?
                    .map(|trace| {
                        // Count the erroneous cycles the witness actually shows.
                        let og = trace.replay(self.golden);
                        let oc = trace.replay(self.approx);
                        let witnessed = og
                            .iter()
                            .zip(&oc)
                            .filter(|(g, c)| {
                                bits_to_u128(g).abs_diff(bits_to_u128(c)) > per_cycle_threshold
                            })
                            .count() as u128;
                        witnessed.max(t + 1)
                    }))
            })
        })?;
        Ok(ErrorReport {
            value: value as u32,
            sat_calls: sat_calls.into_inner(),
            conflicts: 0,
            engine: EngineKind::Sat,
        })
    }

    /// Random-simulation baseline: the largest error observed over
    /// `trajectories` random input sequences of `cycles` cycles (64
    /// trajectories are simulated per pass). A **lower bound** with no
    /// guarantee — the comparison point for the precise engines.
    pub fn simulated_worst_case_error(&self, cycles: usize, trajectories: u64, seed: u64) -> u128 {
        use axmc_rand::{Rng, SeedableRng};
        let mut rng = axmc_rand::rngs::StdRng::seed_from_u64(seed);
        let n_in = self.golden.num_inputs();
        let n_out = self.golden.num_outputs();
        let mut worst = 0u128;
        let mut done = 0u64;
        while done < trajectories {
            let lanes = 64.min(trajectories - done) as usize;
            let mut sg = Simulator::new(self.golden);
            let mut sa = Simulator::new(self.approx);
            for _ in 0..cycles {
                let inputs: Vec<u64> = (0..n_in).map(|_| rng.gen()).collect();
                let og = sg.step(&inputs);
                let oc = sa.step(&inputs);
                for l in 0..lanes {
                    let mut g = 0u128;
                    let mut c = 0u128;
                    for b in 0..n_out.min(128) {
                        g |= (((og[b] >> l) & 1) as u128) << b;
                        c |= (((oc[b] >> l) & 1) as u128) << b;
                    }
                    worst = worst.max(g.abs_diff(c));
                }
            }
            done += lanes as u64;
        }
        worst
    }
}

/// A warmed-up, reusable threshold-probe engine for one golden/approx
/// pair, opened with [`SeqAnalyzer::probe_session`].
///
/// The product-machine difference miter is encoded into an incremental
/// solver exactly once; every probe extends the unrolling as needed and
/// adds only a small comparator, so learnt clauses and frames amortize
/// across arbitrarily many queries. Cloning duplicates the entire warmed
/// solver state.
///
/// Two properties matter to pooling layers (such as `axmc serve`):
///
/// * **Certification is fixed at construction.** Proof logging cannot be
///   enabled retroactively on a warmed solver, so a probe built from an
///   uncertified analyzer can never answer a certified query — pool
///   instances per `(pair, certified)`.
/// * **Resource control is re-armable.** [`SeqProbe::set_ctl`] replaces
///   the deadline/budget/cancellation bundle, letting a pooled instance
///   serve requests with different resource envelopes.
#[derive(Clone)]
pub struct SeqProbe {
    engine: ThresholdEngine,
}

impl SeqProbe {
    /// Can the error exceed `threshold` in any cycle `<= k`? Identical
    /// semantics to [`SeqAnalyzer::check_error_exceeds`], against the
    /// warm engine (no per-call cache lookup — callers pooling probes
    /// manage their own cache).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::CertificateRejected`] on a rejected certificate
    /// in certified mode.
    pub fn check_error_exceeds(
        &mut self,
        threshold: u128,
        k: usize,
    ) -> Result<Verdict<Trace>, AnalysisError> {
        self.engine.probe(threshold, k)
    }

    /// Replaces the resource control (deadline, budget, cancellation)
    /// applied to subsequent probes — re-arm a pooled instance before
    /// each checkout. Every other knob (certification, inprocessing)
    /// is preserved.
    pub fn set_ctl(&mut self, ctl: axmc_sat::ResourceCtl) {
        let config = self.engine.unroller.solver().current_config().with_ctl(ctl);
        self.engine.unroller.configure(&config);
    }

    /// Total solver conflicts accumulated across the session so far.
    pub fn conflicts(&self) -> u64 {
        self.engine.conflicts()
    }
}

impl std::fmt::Debug for SeqProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SeqProbe(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::ErrorGrowth;
    use axmc_circuit::{approx, generators};
    use axmc_sat::{Budget, CancelToken, ResourceCtl};
    use axmc_seq::{accumulator, fir_moving_sum, registered_alu};
    use std::time::Duration;

    fn induction_options(max_k: usize) -> InductionOptions {
        InductionOptions {
            max_k,
            ctl: ResourceCtl::unlimited(),
            simple_path: false,
            certify: false,
        }
    }

    #[test]
    fn earliest_error_accumulator() {
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let apx = accumulator(&approx::truncated_adder(4, 2), 4);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let e = analyzer.earliest_error(8).unwrap();
        // State is output; first wrong state appears at cycle 1 (after the
        // first mis-addition is latched).
        assert_eq!(e.cycle, Some(1));
        let trace = e.trace.unwrap();
        assert!(analyzer.trace_error(&trace) > 0);
    }

    #[test]
    fn seq_static_tier_decides_statically_zero_pairs() {
        // A combinational pair analyzed sequentially: the shared-input
        // product machine strash-merges the identical cones, the diff
        // word folds to zero, and the ternary fixpoint certifies it —
        // no unrolling, no solver.
        let golden = generators::ripple_carry_adder(4).to_aig();
        let copy = golden.clone();
        let analyzer = SeqAnalyzer::new(&golden, &copy);
        let wce = analyzer.worst_case_error_at(3).unwrap();
        assert_eq!(wce.value, 0);
        assert_eq!(wce.engine, EngineKind::Static);
        assert_eq!(wce.sat_calls, 0);
        let flips = analyzer.bit_flip_error_at(3).unwrap();
        assert_eq!(flips.value, 0);
        assert_eq!(flips.engine, EngineKind::Static);
        assert!(analyzer.check_error_exceeds(0, 5).unwrap().is_proved());
    }

    #[test]
    fn seq_static_tier_preserves_solver_verdicts() {
        // The reduced (swept) product machine and the seeded bit-flip
        // window must not change any metric value.
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let apx = accumulator(&approx::truncated_adder(4, 2), 4);
        let with_tier = SeqAnalyzer::new(&golden, &apx);
        let without_tier = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_static_tier(false));
        for k in [0usize, 1, 3] {
            let a = with_tier.worst_case_error_at(k).unwrap();
            let b = without_tier.worst_case_error_at(k).unwrap();
            assert_eq!(a.value, b.value, "wce@{k}");
            assert_eq!(
                with_tier.bit_flip_error_at(k).unwrap().value,
                without_tier.bit_flip_error_at(k).unwrap().value,
                "bit_flip@{k}"
            );
        }
    }

    #[test]
    fn certified_analysis_matches_uncertified() {
        // The full earliest-error + WCE pipeline with every UNSAT answer
        // re-validated by the RUP/DRAT checker must agree with the plain
        // run bit for bit. A checker rejection surfaces as an error.
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let apx = accumulator(&approx::truncated_adder(4, 2), 4);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let certified =
            SeqAnalyzer::new(&golden, &apx).with_options(AnalysisOptions::new().with_certify(true));
        assert_eq!(
            plain.earliest_error(6).unwrap().cycle,
            certified.earliest_error(6).unwrap().cycle
        );
        assert_eq!(
            plain.worst_case_error_at(3).unwrap().value,
            certified.worst_case_error_at(3).unwrap().value
        );
    }

    #[test]
    fn earliest_error_respects_pipeline_latency() {
        // Registered ALU: operands register in cycle 0, result registers in
        // cycle 1, output observable in cycle 2.
        let golden = registered_alu(&generators::ripple_carry_adder(4), 4);
        let apx = registered_alu(&approx::truncated_adder(4, 2), 4);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let e = analyzer.earliest_error(8).unwrap();
        assert_eq!(e.cycle, Some(2));
    }

    #[test]
    fn no_error_for_equivalent_components() {
        let golden = accumulator(&generators::ripple_carry_adder(4), 4);
        let same = accumulator(&generators::carry_select_adder(4, 2), 4);
        let analyzer = SeqAnalyzer::new(&golden, &same);
        let e = analyzer.earliest_error(6).unwrap();
        assert_eq!(e.cycle, None);
        assert_eq!(analyzer.worst_case_error_at(4).unwrap().value, 0);
    }

    #[test]
    fn wce_at_k_matches_explicit_search() {
        // 4-bit accumulator with LOA(2): cross-check BMC-based WCE@k
        // against brute-force search over all input sequences.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);

        // Brute force over all input sequences of length 3 (16^3 = 4096).
        let mut brute = 0u128;
        for seq_id in 0..(16u64 * 16 * 16) {
            let inputs: Vec<u128> = vec![
                (seq_id % 16) as u128,
                ((seq_id / 16) % 16) as u128,
                ((seq_id / 256) % 16) as u128,
            ];
            let trace = Trace {
                inputs: inputs
                    .iter()
                    .map(|&v| (0..width).map(|i| (v >> i) & 1 == 1).collect())
                    .collect(),
            };
            brute = brute.max(analyzer.trace_error(&trace));
        }
        let formal = analyzer.worst_case_error_at(2).unwrap();
        assert_eq!(formal.value, brute);
    }

    #[test]
    fn accumulator_errors_grow_but_fir_errors_plateau() {
        let width = 4;
        let golden_acc = accumulator(&generators::ripple_carry_adder(width), width);
        let apx_acc = accumulator(&approx::truncated_adder(width, 2), width);
        let acc_profile = SeqAnalyzer::new(&golden_acc, &apx_acc)
            .error_profile(5)
            .unwrap();
        assert_eq!(acc_profile.growth(), ErrorGrowth::Accumulating);
        // Profile is monotone by construction.
        for w in acc_profile.profile.windows(2) {
            assert!(w[0] <= w[1]);
        }

        let golden_fir = fir_moving_sum(&generators::ripple_carry_adder(width), width, 2);
        let apx_fir = fir_moving_sum(&approx::truncated_adder(width, 2), width, 2);
        let fir_profile = SeqAnalyzer::new(&golden_fir, &apx_fir)
            .error_profile(5)
            .unwrap();
        assert_eq!(fir_profile.growth(), ErrorGrowth::Bounded);
    }

    #[test]
    fn prove_bound_on_feedforward_design() {
        // Registered ALU output error equals the component's combinational
        // error, so the component's WCE is an unbounded sequential bound.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let comb_wce: u128 = 6; // 2^(cut+1) - 2 for cut = 2
        let opts = induction_options(4);
        assert!(
            analyzer
                .prove_error_bound(comb_wce, &opts)
                .unwrap()
                .is_proved(),
            "the component WCE must close inductively"
        );
        // One less is falsifiable.
        match analyzer.prove_error_bound(comb_wce - 1, &opts).unwrap() {
            Verdict::Refuted { witness } => {
                assert!(analyzer.trace_error(&witness) > comb_wce - 1)
            }
            other => panic!("expected falsification, got {other:?}"),
        }
    }

    #[test]
    fn simulation_is_a_lower_bound() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::speculative_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let formal = analyzer.worst_case_error_at(3).unwrap().value;
        let simulated = analyzer.simulated_worst_case_error(4, 128, 7);
        assert!(simulated <= formal || formal == 0);
    }

    #[test]
    fn temporal_error_rate_matches_structure() {
        // Registered ALU (2-deep pipeline): within k = 4 (5 cycles), at
        // most 3 result cycles are visible (cycles 2, 3, 4), and with a
        // truncated adder every visible result can err.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let cycles = analyzer.max_error_cycles_at(4, 0).unwrap();
        assert_eq!(cycles.value, 3);
        // With a per-cycle threshold at the component WCE nothing counts.
        let none = analyzer.max_error_cycles_at(4, 6).unwrap();
        assert_eq!(none.value, 0);
        // Equivalent pair: zero erroneous cycles.
        let same = registered_alu(&generators::carry_select_adder(width, 2), width);
        let eq = SeqAnalyzer::new(&golden, &same);
        assert_eq!(eq.max_error_cycles_at(3, 0).unwrap().value, 0);
    }

    #[test]
    fn max_tracker_error_is_bounded_in_feedback() {
        // A feedback design whose error does NOT accumulate: the truncated
        // comparator's lag is capped at 2^cut - 1 forever.
        use axmc_seq::max_tracker;
        let width = 4;
        let cut = 2;
        let bound = (1u128 << cut) - 1;
        let golden = max_tracker(&generators::comparator(width), width);
        let apx = max_tracker(&approx::truncated_comparator(width, cut), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let profile = analyzer.error_profile(6).unwrap();
        assert_eq!(profile.growth(), crate::report::ErrorGrowth::Bounded);
        assert_eq!(*profile.profile.last().unwrap(), bound);
        // The bound can never be falsified at any horizon. Proved or
        // Interrupted are both acceptable: the invariant may need
        // auxiliary strengthening to close inductively.
        let opts = induction_options(6);
        if let Verdict::Refuted { witness } = analyzer.prove_error_bound(bound, &opts).unwrap() {
            panic!("bound {bound} falsified by a {}-cycle trace", witness.len())
        }
        // One below the bound is falsifiable.
        match analyzer.prove_error_bound(bound - 1, &opts).unwrap() {
            Verdict::Refuted { .. } => {}
            other => panic!("expected falsification below the bound, got {other:?}"),
        }
    }

    #[test]
    fn sweep_does_not_change_answers() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let swept =
            SeqAnalyzer::new(&golden, &apx).with_options(AnalysisOptions::new().with_sweep(true));
        for k in [1usize, 3] {
            assert_eq!(
                plain.worst_case_error_at(k).unwrap().value,
                swept.worst_case_error_at(k).unwrap().value,
                "k = {k}"
            );
            assert_eq!(
                plain.bit_flip_error_at(k).unwrap().value,
                swept.bit_flip_error_at(k).unwrap().value,
                "bitflip k = {k}"
            );
        }
        // Witness traces from the swept engine replay on the originals.
        let trace = swept
            .check_error_exceeds(0, 3)
            .unwrap()
            .witness()
            .expect("diverges");
        assert!(swept.trace_error(&trace) > 0);
    }

    #[test]
    fn total_error_bounds_worst_case() {
        // In a feed-forward pipeline each cycle contributes independently:
        // the total error over k cycles can reach roughly k * WCE, while
        // WCE@k is the single-cycle maximum.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let k = 3;
        let wce = analyzer.worst_case_error_at(k).unwrap().value;
        let total = analyzer.total_error_at(k, 10).unwrap().value;
        assert!(total >= wce, "total {total} >= per-cycle max {wce}");
        assert!(
            total <= wce * (k as u128 + 1),
            "total {total} bounded by (k+1)*wce"
        );
        // A 2-deep pipeline emits its first result in cycle 2, so within
        // k = 3 at most two results are visible: total = 2 * wce.
        assert_eq!(total, 2 * wce);
    }

    #[test]
    fn total_error_zero_for_equivalent() {
        let width = 4;
        let a = accumulator(&generators::ripple_carry_adder(width), width);
        let b = accumulator(&generators::carry_select_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&a, &b);
        assert_eq!(analyzer.total_error_at(3, 8).unwrap().value, 0);
        assert!(analyzer
            .check_total_error_exceeds(0, 4, 8)
            .unwrap()
            .is_proved());
    }

    #[test]
    fn total_error_saturation_is_reported() {
        // A 2-bit accumulator-wide total cannot hold the real sum: the
        // API must refuse instead of under-reporting.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        match analyzer.total_error_at(4, 2) {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.known_low, 3); // saturated at 2^2 - 1
                assert_eq!(p.known_high, u128::MAX);
                assert_eq!(
                    p.reason, None,
                    "saturation is range exhaustion, not a limit"
                );
            }
            other => panic!("expected saturation error, got {other:?}"),
        }
    }

    #[test]
    fn portfolio_jobs_match_serial_values() {
        // The portfolio merges speculative answers deterministically:
        // every metric must come out identical to the serial search for
        // any jobs value.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let serial = SeqAnalyzer::new(&golden, &apx);
        for jobs in [2usize, 4] {
            let par = SeqAnalyzer::new(&golden, &apx)
                .with_options(AnalysisOptions::new().with_jobs(jobs));
            assert_eq!(
                serial.worst_case_error_at(3).unwrap().value,
                par.worst_case_error_at(3).unwrap().value,
                "wce, jobs {jobs}"
            );
            assert_eq!(
                serial.bit_flip_error_at(3).unwrap().value,
                par.bit_flip_error_at(3).unwrap().value,
                "bit flip, jobs {jobs}"
            );
            assert_eq!(
                serial.error_profile(4).unwrap().profile,
                par.error_profile(4).unwrap().profile,
                "profile, jobs {jobs}"
            );
            assert_eq!(
                serial.total_error_at(3, 10).unwrap().value,
                par.total_error_at(3, 10).unwrap().value,
                "total, jobs {jobs}"
            );
            assert_eq!(
                serial.max_error_cycles_at(3, 0).unwrap().value,
                par.max_error_cycles_at(3, 0).unwrap().value,
                "error cycles, jobs {jobs}"
            );
        }
    }

    #[test]
    fn budget_exhaustion_in_portfolio_is_deterministic() {
        // With a starvation budget, a portfolio run either brackets the
        // metric from the lanes that finished or reports exhaustion —
        // and repeated runs with the same jobs value agree exactly.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let budget = Budget::unlimited().with_conflicts(1);
        let run = || {
            SeqAnalyzer::new(&golden, &apx)
                .with_options(AnalysisOptions::new().with_budget(budget).with_jobs(4))
                .worst_case_error_at(3)
                .map(|r| r.value)
        };
        assert_eq!(run(), run(), "same jobs value must reproduce exactly");
    }

    #[test]
    fn probe_session_matches_one_shot_probes() {
        // The warm engine must give the same verdicts as the one-shot
        // path, across interleaved thresholds and horizons (the reuse
        // pattern a batch service produces).
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let mut probe = analyzer.probe_session();
        for (t, k) in [(0u128, 1usize), (2, 3), (0, 3), (200, 2), (1, 2)] {
            let warm = probe.check_error_exceeds(t, k).unwrap();
            let cold = analyzer.check_error_exceeds(t, k).unwrap();
            assert_eq!(
                warm.is_proved(),
                cold.is_proved(),
                "t = {t}, k = {k}: warm and cold sessions must agree"
            );
            if let Verdict::Refuted { witness } = &warm {
                assert!(analyzer.trace_error(witness) > t, "witness must exceed t");
            }
        }
    }

    #[test]
    fn cached_seq_metrics_replay_identically() {
        use crate::cache::{CacheHandle, CachedResult, QueryCache, QueryKey};
        use std::collections::HashMap;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Mem {
            map: Mutex<HashMap<QueryKey, CachedResult>>,
            puts: AtomicU64,
        }
        impl QueryCache for Mem {
            fn get(&self, key: &QueryKey) -> Option<CachedResult> {
                self.map.lock().unwrap().get(key).cloned()
            }
            fn put(&self, key: &QueryKey, value: CachedResult) {
                self.puts.fetch_add(1, Ordering::Relaxed);
                self.map.lock().unwrap().insert(key.clone(), value);
            }
        }

        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let store = Arc::new(Mem::default());
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_cache(CacheHandle::new(store.clone())));

        let wce_cold = analyzer.worst_case_error_at(3).unwrap();
        let bf_cold = analyzer.bit_flip_error_at(3).unwrap();
        let v_cold = analyzer.check_error_exceeds(1, 3).unwrap();
        assert_eq!(store.puts.load(Ordering::Relaxed), 3);

        // Warm calls must replay byte-identical results (including the
        // effort counters) without storing anything new.
        assert_eq!(analyzer.worst_case_error_at(3).unwrap(), wce_cold);
        assert_eq!(analyzer.bit_flip_error_at(3).unwrap(), bf_cold);
        assert_eq!(analyzer.check_error_exceeds(1, 3).unwrap(), v_cold);
        assert_eq!(store.puts.load(Ordering::Relaxed), 3);

        // A different horizon is a different key: computed, then stored.
        let _ = analyzer.worst_case_error_at(2).unwrap();
        assert_eq!(store.puts.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn bit_flip_at_k_is_positive_for_truncation() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx);
        let bf = analyzer.bit_flip_error_at(3).unwrap();
        assert!(bf.value >= 1);
        assert!(bf.value <= width as u32);
    }

    #[test]
    fn clause_sharing_preserves_every_jobs_value() {
        // Sharing changes which learnt clauses a lane holds, never a
        // verdict: with unlimited budgets, every metric value must be
        // identical to the serial run for every jobs value, sharing on
        // or off.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let serial = SeqAnalyzer::new(&golden, &apx);
        let wce = serial.worst_case_error_at(3).unwrap().value;
        let flips = serial.bit_flip_error_at(3).unwrap().value;
        for jobs in [1usize, 2, 4] {
            let sharing = SeqAnalyzer::new(&golden, &apx).with_options(
                AnalysisOptions::new()
                    .with_jobs(jobs)
                    .with_clause_sharing(true),
            );
            assert_eq!(
                sharing.worst_case_error_at(3).unwrap().value,
                wce,
                "wce, sharing on, jobs {jobs}"
            );
            assert_eq!(
                sharing.bit_flip_error_at(3).unwrap().value,
                flips,
                "bit flip, sharing on, jobs {jobs}"
            );
        }
    }

    #[test]
    fn inprocessing_preserves_certified_analysis() {
        // Inprocessing rewrites the clause database between solves; with
        // certification on, every UNSAT answer behind these metrics is
        // re-validated through the DRAT checker, so this doubles as an
        // end-to-end proof-logging test for the inprocessing passes.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let inproc = SeqAnalyzer::new(&golden, &apx).with_options(
            AnalysisOptions::new()
                .with_inprocessing(true)
                .with_certify(true),
        );
        assert_eq!(
            plain.worst_case_error_at(3).unwrap().value,
            inproc.worst_case_error_at(3).unwrap().value
        );
        assert_eq!(
            plain.earliest_error(6).unwrap().cycle,
            inproc.earliest_error(6).unwrap().cycle
        );
        assert!(inproc.check_error_exceeds(200, 3).unwrap().is_proved());
    }

    #[test]
    fn sharing_and_inprocessing_compose_under_a_portfolio() {
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 2), width);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let tuned = SeqAnalyzer::new(&golden, &apx).with_options(
            AnalysisOptions::new()
                .with_jobs(3)
                .with_clause_sharing(true)
                .with_inprocessing(true)
                .with_certify(true),
        );
        assert_eq!(
            plain.worst_case_error_at(3).unwrap().value,
            tuned.worst_case_error_at(3).unwrap().value
        );
        assert_eq!(
            plain.error_profile(4).unwrap().profile,
            tuned.error_profile(4).unwrap().profile
        );
    }

    // -- satellite: typed interruption behavior ------------------------

    #[test]
    fn expired_deadline_mid_bmc_reports_the_completed_bound() {
        // An already-expired deadline stops the very first BMC bound: the
        // anytime payload must say "0 cycles certified clear" and name
        // the deadline as the reason — and return in microseconds, not
        // after grinding through the instance.
        let width = 8;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 4), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_timeout(Duration::ZERO));
        match analyzer.earliest_error(16) {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Deadline));
                assert_eq!(p.completed_bound, Some(0));
            }
            other => panic!("expected a deadline interruption, got {other:?}"),
        }
    }

    #[test]
    fn budget_interruption_carries_certified_clear_cycles() {
        // A conflict budget that clears a few bounds and then starves:
        // the payload's completed_bound must reflect the cycles actually
        // certified clear (deterministic for a fixed budget).
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let same = accumulator(&generators::carry_select_adder(width, 2), width);
        let starving = SeqAnalyzer::new(&golden, &same).with_options(
            AnalysisOptions::new().with_budget(Budget::unlimited().with_conflicts(1)),
        );
        match starving.earliest_error(12) {
            Err(AnalysisError::Interrupted(p)) => {
                assert!(matches!(
                    p.reason,
                    Some(Interrupt::Conflicts | Interrupt::Propagations)
                ));
                assert!(p.completed_bound.is_some());
            }
            // A tiny equivalent pair may still clear every bound within
            // the budget; that is also a correct outcome.
            Ok(e) => assert_eq!(e.cycle, None),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn cancel_token_stops_all_portfolio_workers() {
        // A 20-bit accumulator WCE search takes far longer than the
        // cancellation delay; raising the token from another thread must
        // stop every cloned portfolio engine promptly with a typed
        // Cancelled interrupt.
        let width = 20;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::truncated_adder(width, 10), width);
        let token = CancelToken::new();
        let canceller = token.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            canceller.cancel();
        });
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_jobs(4).with_cancel(token));
        let result = analyzer.worst_case_error_at(12);
        handle.join().unwrap();
        match result {
            Err(AnalysisError::Interrupted(p)) => {
                assert_eq!(p.reason, Some(Interrupt::Cancelled));
                assert!(p.known_low <= p.known_high);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn deadline_composes_into_induction_proofs() {
        // The analyzer's (expired) deadline must tighten the induction
        // options' unlimited control: the proof attempt is interrupted
        // with zero cycles certified, not run to completion.
        let width = 4;
        let golden = registered_alu(&generators::ripple_carry_adder(width), width);
        let apx = registered_alu(&approx::truncated_adder(width, 2), width);
        let analyzer = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_timeout(Duration::ZERO));
        match analyzer
            .prove_error_bound(6, &induction_options(4))
            .unwrap()
        {
            Verdict::Interrupted { best_so_far } => {
                assert_eq!(best_so_far.reason, Some(Interrupt::Deadline));
                assert_eq!(best_so_far.completed_bound, Some(0));
            }
            other => panic!("expected an interrupted proof, got {other:?}"),
        }
    }

    #[test]
    fn generous_timeout_is_byte_identical_to_no_timeout() {
        // A deadline that never trips must not perturb any answer: the
        // deterministic trajectory with and without it is identical.
        let width = 4;
        let golden = accumulator(&generators::ripple_carry_adder(width), width);
        let apx = accumulator(&approx::lower_or_adder(width, 2), width);
        let plain = SeqAnalyzer::new(&golden, &apx);
        let timed = SeqAnalyzer::new(&golden, &apx)
            .with_options(AnalysisOptions::new().with_timeout(Duration::from_secs(3600)));
        let a = plain.worst_case_error_at(3).unwrap();
        let b = timed.worst_case_error_at(3).unwrap();
        assert_eq!((a.value, a.sat_calls), (b.value, b.sat_calls));
        assert_eq!(
            plain.error_profile(4).unwrap().profile,
            timed.error_profile(4).unwrap().profile
        );
    }
}
