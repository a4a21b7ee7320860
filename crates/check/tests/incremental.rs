//! The incremental proof checker against the whole-certificate check.
//!
//! A [`ProofChecker`] that follows one solver checks only the premises and
//! steps logged since its previous check. These tests pin that this is
//! exactly as strong as re-checking the whole log: both agree on every
//! probe of a real incremental ladder, a step corrupted after a passing
//! check is rejected at the next one, a new log (re-enabled logging, a
//! cloned solver) is checked from scratch, and the variable count may grow
//! between checks.

use axmc_aig::bits_to_u128;
use axmc_check::{check_certificate, CheckStats, ProofChecker, ProofError};
use axmc_circuit::{approx, generators};
use axmc_cnf::{encode_comb, gates};
use axmc_sat::{Certificate, Lit, ProofStep, SolveResult, Solver, SolverConfig, Var};

/// One logging solver holding the difference word of a 5-bit multiplier
/// and its 2-column truncation; each probe adds a comparator and solves
/// under its flag, as the worst-case-error search does.
struct Ladder {
    solver: Solver,
    word: Vec<Lit>,
    true_lit: Lit,
}

impl Ladder {
    fn new() -> Self {
        let golden = generators::array_multiplier(5).to_aig();
        let candidate = approx::truncated_multiplier(5, 2).to_aig();
        let miter = axmc_miter::diff_word_miter(&golden, &candidate).compact();
        let (mut solver, enc) = encode_comb(&miter);
        solver.configure(&SolverConfig::new().with_proof_logging(true));
        let true_lit = enc.lit(axmc_aig::Lit::TRUE);
        Ladder {
            solver,
            word: enc.outputs,
            true_lit,
        }
    }

    /// Can the error exceed `t`?
    fn probe(&mut self, t: u128) -> SolveResult {
        let flag = gates::abs_diff_exceeds(&mut self.solver, &self.word, t, self.true_lit);
        self.solver.solve_with_assumptions(&[flag])
    }

    /// Binary search for the worst-case error; `on_unsat` sees the solver
    /// after every UNSAT probe. Returns the error and the UNSAT count.
    fn search(&mut self, mut on_unsat: impl FnMut(&Solver)) -> (u128, usize) {
        let (mut lo, mut hi) = (0u128, (1 << 10) - 1);
        let mut unsat = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.probe(mid) {
                SolveResult::Unsat => {
                    unsat += 1;
                    on_unsat(&self.solver);
                    hi = mid;
                }
                SolveResult::Sat => lo = mid + 1,
                SolveResult::Unknown => unreachable!("no budget is set"),
            }
        }
        (lo, unsat)
    }
}

/// The ladder pair's worst-case error by simulating every input.
fn exhaustive_wce() -> u128 {
    let golden = generators::array_multiplier(5).to_aig();
    let candidate = approx::truncated_multiplier(5, 2).to_aig();
    (0..1u32 << 10)
        .map(|x| {
            let input: Vec<bool> = (0..10).map(|i| x >> i & 1 == 1).collect();
            let g = bits_to_u128(&golden.eval_comb(&input));
            let c = bits_to_u128(&candidate.eval_comb(&input));
            g.abs_diff(c)
        })
        .max()
        .unwrap()
}

/// Where a certificate's log stood at one check: enough to rebuild the
/// view that check saw from any later, longer view of the same log.
struct Mark {
    num_vars: usize,
    premises: usize,
    steps: usize,
    conclusion: Vec<Lit>,
    assumptions: Vec<Lit>,
}

impl Mark {
    fn of(cert: &Certificate<'_>) -> Self {
        Mark {
            num_vars: cert.num_vars,
            premises: cert.premises.len(),
            steps: cert.steps.len(),
            conclusion: cert.conclusion.to_vec(),
            assumptions: cert.assumptions.to_vec(),
        }
    }

    /// The earlier view, cut from `later`.
    fn view<'a>(&'a self, later: &Certificate<'a>) -> Certificate<'a> {
        Certificate {
            log_id: later.log_id,
            num_vars: self.num_vars,
            premises: &later.premises[..self.premises],
            steps: &later.steps[..self.steps],
            conclusion: &self.conclusion,
            assumptions: &self.assumptions,
        }
    }
}

/// `true` when `stats` covers the whole of `cert`: a check from scratch.
fn covers_whole_log(stats: &CheckStats, cert: &Certificate<'_>) -> bool {
    stats.premises == cert.premises.len() && stats.steps() == cert.steps.len()
}

#[test]
fn delta_checks_agree_with_whole_certificate_checks_on_every_probe() {
    let mut ladder = Ladder::new();
    let mut checker = ProofChecker::new();
    let mut delta_steps = 0;
    let mut delta_premises = 0;
    let mut probes = 0;
    let (wce, unsat) = ladder.search(|solver| {
        let cert = solver.certificate().expect("UNSAT leaves a certificate");
        let whole = check_certificate(&cert).expect("the whole log checks");
        assert!(covers_whole_log(&whole, &cert));
        let delta = checker.certify(solver).expect("the delta checks");
        if probes == 0 {
            assert_eq!(delta, whole, "the first check is a whole-log check");
        }
        assert_eq!(delta.conclusion_len, whole.conclusion_len);
        delta_steps += delta.steps();
        delta_premises += delta.premises;
        assert_eq!(delta_steps, cert.steps.len(), "every step checked once");
        assert_eq!(delta_premises, cert.premises.len());
        probes += 1;
    });
    assert_eq!(wce, exhaustive_wce());
    assert!(
        unsat >= 3,
        "the ladder needs several UNSAT probes, got {unsat}"
    );
    assert_eq!(probes, unsat);
}

/// Runs the ladder down from the top: the first UNSAT probe is the
/// passing check, the next UNSAT probe that logged new clauses is the
/// one whose delta the tests corrupt. Hands the mark of the first and the
/// log at the second to `f`.
fn with_two_unsat_probes(f: impl FnOnce(&Mark, &Certificate<'_>)) {
    let mut ladder = Ladder::new();
    let mut first: Option<Mark> = None;
    for t in [512, 256, 128, 64, 32, 16, 8, 4, 2, 1] {
        if ladder.probe(t) != SolveResult::Unsat {
            continue;
        }
        let cert = ladder.solver.certificate().unwrap();
        match &first {
            None => first = Some(Mark::of(&cert)),
            Some(mark) if !delta_adds(mark, &cert).is_empty() => return f(mark, &cert),
            Some(_) => {}
        }
    }
    panic!("no UNSAT probe logged new clauses after the first");
}

/// Checks `first`, then the corrupted second view, on one checker.
/// Returns whether the whole-log check rejects the corruption; when it
/// does, the delta check must reject it too.
fn delta_rejects_what_whole_rejects(
    first: &Mark,
    cert: &Certificate<'_>,
    steps: &[ProofStep],
) -> bool {
    let corrupted = Certificate { steps, ..*cert };
    let Err(whole) = check_certificate(&corrupted) else {
        return false;
    };
    let mut checker = ProofChecker::new();
    checker
        .check(&first.view(cert))
        .expect("the genuine first probe checks");
    let delta = checker
        .check(&corrupted)
        .expect_err("a corrupted delta must be rejected");
    for err in [&whole, &delta] {
        assert!(
            matches!(
                err,
                ProofError::NotRup { .. } | ProofError::ConclusionNotRup
            ),
            "unexpected error: {err}"
        );
    }
    // The rejection dropped the checker's state: the genuine log now
    // checks from scratch.
    let again = checker.check(cert).expect("the genuine log checks");
    assert!(covers_whole_log(&again, cert));
    true
}

/// Indices of the clause additions logged after the first check.
fn delta_adds(first: &Mark, cert: &Certificate<'_>) -> Vec<usize> {
    (first.steps..cert.steps.len())
        .filter(|&k| matches!(cert.steps[k], ProofStep::Add(ref c) if !c.is_empty()))
        .collect()
}

#[test]
fn dropped_delta_clause_is_rejected_after_a_passing_check() {
    with_two_unsat_probes(|first, cert| {
        let caught = delta_adds(first, cert).into_iter().any(|k| {
            let mut steps = cert.steps.to_vec();
            steps.remove(k);
            delta_rejects_what_whole_rejects(first, cert, &steps)
        });
        assert!(caught, "some dropped delta clause must break the proof");
    });
}

#[test]
fn permuted_pivot_in_the_delta_is_rejected_after_a_passing_check() {
    with_two_unsat_probes(|first, cert| {
        let caught = delta_adds(first, cert).into_iter().any(|k| {
            let mut steps = cert.steps.to_vec();
            if let ProofStep::Add(lits) = &mut steps[k] {
                lits[0] = !lits[0];
            }
            delta_rejects_what_whole_rejects(first, cert, &steps)
        });
        assert!(caught, "some flipped delta literal must break the proof");
    });
}

#[test]
fn spliced_delta_clause_is_rejected_after_a_passing_check() {
    with_two_unsat_probes(|first, cert| {
        // Variable 1 is the first multiplier input: free, so a unit on it
        // follows from nothing.
        let mut steps = cert.steps.to_vec();
        steps.insert(first.steps, ProofStep::Add(vec![Var::new(1).positive()]));
        let corrupted = Certificate {
            steps: &steps,
            ..*cert
        };
        let mut checker = ProofChecker::new();
        checker
            .check(&first.view(cert))
            .expect("first probe checks");
        assert_eq!(
            checker.check(&corrupted),
            Err(ProofError::NotRup { step: first.steps }),
            "the error names the spliced step by its index in the log"
        );
        assert!(delta_rejects_what_whole_rejects(first, cert, &steps));
    });
}

#[test]
fn re_enabled_logging_forces_a_full_re_check() {
    let mut ladder = Ladder::new();
    let mut checker = ProofChecker::new();
    assert_eq!(ladder.probe(1 << 9), SolveResult::Unsat);
    let old_id = ladder.solver.certificate().unwrap().log_id;
    checker.certify(&ladder.solver).unwrap();

    ladder
        .solver
        .configure(&SolverConfig::new().with_proof_logging(false));
    ladder
        .solver
        .configure(&SolverConfig::new().with_proof_logging(true));
    assert_eq!(ladder.probe(1 << 8), SolveResult::Unsat);
    let cert = ladder.solver.certificate().unwrap();
    assert_ne!(cert.log_id, old_id, "a re-enabled log is a new log");
    let stats = checker.certify(&ladder.solver).unwrap();
    assert!(covers_whole_log(&stats, &cert), "new log: {stats:?}");
}

#[test]
fn a_cloned_solvers_log_is_checked_from_scratch() {
    let mut ladder = Ladder::new();
    let mut checker = ProofChecker::new();
    assert_eq!(ladder.probe(1 << 9), SolveResult::Unsat);
    checker.certify(&ladder.solver).unwrap();
    let original_id = ladder.solver.certificate().unwrap().log_id;

    let mut clone = Ladder {
        solver: ladder.solver.clone(),
        word: ladder.word.clone(),
        true_lit: ladder.true_lit,
    };
    assert_eq!(clone.probe(1 << 8), SolveResult::Unsat);
    let cert = clone.solver.certificate().unwrap();
    assert_ne!(cert.log_id, original_id, "clones diverge, so logs differ");
    let stats = checker.certify(&clone.solver).unwrap();
    assert!(covers_whole_log(&stats, &cert), "clone: {stats:?}");

    // Back to the original: its log is a different one again.
    assert_eq!(ladder.probe(1 << 7), SolveResult::Unsat);
    let cert = ladder.solver.certificate().unwrap();
    let stats = checker.certify(&ladder.solver).unwrap();
    assert!(covers_whole_log(&stats, &cert), "original: {stats:?}");
    // ...and now it resumes: only the conclusion of a repeated answer.
    let again = checker.certify(&ladder.solver).unwrap();
    assert_eq!((again.premises, again.steps()), (0, 0));
}

#[test]
fn a_shrunk_log_under_the_same_identity_is_checked_from_scratch() {
    with_two_unsat_probes(|first, cert| {
        let mut checker = ProofChecker::new();
        checker.check(cert).expect("second probe checks");
        let earlier = first.view(cert);
        let stats = checker.check(&earlier).expect("first probe checks");
        assert!(covers_whole_log(&stats, &earlier));
    });
}

#[test]
fn the_variable_count_may_grow_between_checks() {
    let mut s = Solver::with_config(SolverConfig::new().with_proof_logging(true));
    let x = s.new_var().positive();
    let y = s.new_var().positive();
    s.add_clause(&[x, y]);
    let mut checker = ProofChecker::new();
    assert_eq!(s.solve_with_assumptions(&[!x, !y]), SolveResult::Unsat);
    checker.certify(&s).unwrap();
    let vars_before = s.num_vars();

    // New variables, clauses over them, and a query through them.
    let z: Vec<Lit> = (0..40).map(|_| s.new_var().positive()).collect();
    s.add_clause(&[!z[0], !x]);
    for w in z.windows(2) {
        s.add_clause(&[!w[1], w[0]]);
    }
    assert_eq!(s.solve_with_assumptions(&[z[39], !y]), SolveResult::Unsat);
    let cert = s.certificate().unwrap();
    assert!(cert.num_vars > vars_before);
    let stats = checker.certify(&s).expect("the grown log checks");
    assert_eq!(stats.premises, z.len(), "only the new clauses are loaded");

    // A delta step on a variable beyond the declared count is caught.
    let mut steps = cert.steps.to_vec();
    steps.push(ProofStep::Add(vec![
        Var::new(cert.num_vars as u32).positive()
    ]));
    let past_the_end = Certificate {
        steps: &steps,
        ..cert
    };
    assert!(matches!(
        checker.check(&past_the_end),
        Err(ProofError::LitOutOfRange {
            section: "derivation",
            ..
        })
    ));
}
