//! End-to-end certification tests: every UNSAT verdict the analysis
//! engines report under `--certify` must carry a DRAT certificate the
//! in-tree RUP/DRAT checker accepts — and the checker must *reject*
//! deliberately corrupted proofs, or the whole exercise is vacuous.

use axmc::check::{check_certificate, ProofError};
use axmc::circuit::{approx, generators};
use axmc::core::{AnalysisOptions, CombAnalyzer, SeqAnalyzer};
use axmc::sat::{Certificate, Lit, ProofStep, ShareRing, SolveResult, Solver, SolverConfig, Var};
use axmc::seq::accumulator;

/// A pigeonhole instance (n pigeons, n-1 holes): small, UNSAT, and with a
/// proof whose steps genuinely depend on one another.
fn pigeonhole(solver: &mut Solver, pigeons: usize) -> Vec<Vec<Lit>> {
    let holes = pigeons - 1;
    let var = |p: usize, h: usize| Var::new((p * holes + h) as u32);
    for _ in 0..pigeons * holes {
        solver.new_var();
    }
    let mut clauses = Vec::new();
    for p in 0..pigeons {
        clauses.push((0..holes).map(|h| var(p, h).positive()).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    for c in &clauses {
        solver.add_clause(c);
    }
    clauses
}

/// Records a real refutation of a pigeonhole instance and returns the
/// solver (still holding the certificate).
fn refuted_solver() -> Solver {
    let mut solver = Solver::with_config(SolverConfig::new().with_proof_logging(true));
    pigeonhole(&mut solver, 4);
    assert_eq!(solver.solve(), SolveResult::Unsat);
    solver
}

#[test]
fn recorded_refutation_is_accepted() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("UNSAT leaves a certificate");
    let stats = check_certificate(&cert).expect("genuine proof must check");
    assert!(stats.additions > 0, "pigeonhole needs learned clauses");
}

#[test]
fn dropped_proof_clause_is_rejected() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    // Drop the first learned clause: later steps (and ultimately the
    // empty conclusion) lean on it, so forward checking must fail.
    let mutated: Vec<ProofStep> = cert
        .steps
        .iter()
        .enumerate()
        .filter(|&(k, step)| {
            !(k == first_add_index(cert.steps) && matches!(step, ProofStep::Add(_)))
        })
        .map(|(_, step)| step.clone())
        .collect();
    let corrupted = Certificate {
        steps: &mutated,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("dropped clause must be caught");
    assert!(
        matches!(
            err,
            ProofError::NotRup { .. } | ProofError::ConclusionNotRup
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn permuted_pivot_is_rejected() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    // Flip the polarity of one literal in the first learned clause: the
    // mutated clause is no longer implied by unit propagation.
    let k = first_add_index(cert.steps);
    let mut mutated: Vec<ProofStep> = cert.steps.to_vec();
    if let ProofStep::Add(lits) = &mut mutated[k] {
        lits[0] = !lits[0];
    }
    let corrupted = Certificate {
        steps: &mutated,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("permuted pivot must be caught");
    assert!(
        matches!(
            err,
            ProofError::NotRup { .. } | ProofError::ConclusionNotRup
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn proof_stripped_to_premises_is_rejected() {
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    let empty: Vec<ProofStep> = Vec::new();
    let corrupted = Certificate {
        steps: &empty,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("premises alone prove nothing here");
    assert!(
        matches!(err, ProofError::ConclusionNotRup),
        "unexpected error: {err}"
    );
}

/// Index of the first clause-addition step in a proof.
fn first_add_index(steps: &[ProofStep]) -> usize {
    steps
        .iter()
        .position(|s| matches!(s, ProofStep::Add(_)))
        .expect("refutation contains at least one learned clause")
}

#[test]
fn certified_sequential_analysis_suite() {
    // A miniature tier-1 sweep: sequential accumulator designs over two
    // approximate adders, analyzed with certification on. Every UNSAT the
    // engines see is re-derived by the checker (a rejected certificate
    // panics inside the engine), and results must match the uncertified
    // run bit for bit.
    axmc::obs::set_enabled(true);
    axmc::obs::reset();
    let golden_comp = generators::ripple_carry_adder(4);
    for approx_comp in [approx::truncated_adder(4, 2), approx::lower_or_adder(4, 2)] {
        let golden = accumulator(&golden_comp, 4);
        let approximate = accumulator(&approx_comp, 4);

        let plain = SeqAnalyzer::new(&golden, &approximate);
        let certified = SeqAnalyzer::new(&golden, &approximate)
            .with_options(AnalysisOptions::new().with_certify(true));

        let e1 = plain.earliest_error(4).expect("analysis");
        let e2 = certified.earliest_error(4).expect("certified analysis");
        assert_eq!(e1.cycle, e2.cycle);

        let w1 = plain.worst_case_error_at(3).expect("analysis");
        let w2 = certified
            .worst_case_error_at(3)
            .expect("certified analysis");
        assert_eq!(w1.value, w2.value);
    }
    let checked = axmc::obs::snapshot()
        .counters
        .get("check.certified")
        .copied()
        .unwrap_or(0);
    assert!(
        checked > 0,
        "the certified sweep must actually exercise the checker"
    );
}

#[test]
fn certified_comb_wce_checks_every_unsat_probe_once() {
    // The worst-case-error search probes one incremental solver; its
    // proof checker follows that solver, so every UNSAT probe is
    // certified (one `check.certified` each) and the value is unchanged.
    // A thread-local metrics scope keeps other tests' solver calls out
    // of the counts.
    let golden = generators::array_multiplier(6).to_aig();
    let candidate = approx::truncated_multiplier(6, 3).to_aig();
    let plain = CombAnalyzer::new(&golden, &candidate)
        .worst_case_error()
        .expect("analysis");
    axmc::obs::set_enabled(true);
    let (certified, checks, unsat, steps) = axmc::obs::worker_scope(|| {
        let report = CombAnalyzer::new(&golden, &candidate)
            .with_options(AnalysisOptions::new().with_certify(true))
            .worst_case_error()
            .expect("certified analysis");
        (
            report,
            axmc::obs::counter("check.certified").get(),
            axmc::obs::counter("sat.result.unsat").get(),
            axmc::obs::histogram("check.proof.steps").count(),
        )
    });
    assert_eq!(certified.value, plain.value);
    assert!(unsat >= 2, "the search must refute several thresholds");
    assert_eq!(checks, unsat, "one certification per UNSAT probe");
    assert_eq!(steps, unsat, "one proof-step record per check");
}

#[test]
fn certified_analysis_with_inprocessing_and_sharing() {
    // The full speed stack — portfolio probing, learned-clause sharing
    // between the lanes, and between-solves inprocessing — under
    // certification: the checker must accept every UNSAT the tuned
    // engines report (a rejection would surface as an error), and the
    // metric values must match the plain serial run bit for bit.
    let golden = accumulator(&generators::ripple_carry_adder(4), 4);
    let approximate = accumulator(&approx::lower_or_adder(4, 2), 4);
    let plain = SeqAnalyzer::new(&golden, &approximate);
    let tuned = SeqAnalyzer::new(&golden, &approximate).with_options(
        AnalysisOptions::new()
            .with_certify(true)
            .with_jobs(3)
            .with_inprocessing(true)
            .with_clause_sharing(true),
    );
    assert_eq!(
        plain.worst_case_error_at(3).expect("analysis").value,
        tuned
            .worst_case_error_at(3)
            .expect("tuned certified analysis")
            .value
    );
    assert_eq!(
        plain.earliest_error(4).expect("analysis").cycle,
        tuned
            .earliest_error(4)
            .expect("tuned certified analysis")
            .cycle
    );
}

#[test]
fn mutated_shared_clauses_cannot_certify() {
    // Import side: a corrupted fleet-mate publishes a clause that does
    // not follow from the importer's database. RUP validation at import
    // must reject it, leaving the verdict (and the model) untouched.
    let ring = ShareRing::new();
    let mut s = Solver::with_config(
        SolverConfig::new()
            .with_proof_logging(true)
            .with_share(ring.handle(0, 8)),
    );
    let x1 = s.new_var().positive();
    let x2 = s.new_var().positive();
    s.add_clause(&[x1, x2]);
    s.add_clause(&[!x1, x2]);
    ring.publish(1, &[!x2]); // the database implies x2: not RUP
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(
        s.model_lit(x2),
        Some(true),
        "the mutated import must not constrain the solver"
    );

    // Checker side: even a mutated clause spliced straight into a
    // recorded refutation is caught by the forward DRAT check — the
    // spliced step is not derivable from the premises before it.
    let solver = refuted_solver();
    let cert = solver.certificate().expect("certificate");
    let mut spliced = cert.steps.to_vec();
    spliced.insert(0, ProofStep::Add(vec![Var::new(0).positive()]));
    let corrupted = Certificate {
        steps: &spliced,
        ..cert
    };
    let err = check_certificate(&corrupted).expect_err("spliced clause must be caught");
    assert!(
        matches!(err, ProofError::NotRup { step: 0 }),
        "unexpected error: {err}"
    );
}
