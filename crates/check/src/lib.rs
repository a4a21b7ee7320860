//! Static analysis and self-certification for the `axmc` toolkit.
//!
//! Every headline number `axmc` produces — worst-case errors, earliest
//! error cycles, `G (error ≤ T)` bound proofs, CGP acceptance verdicts —
//! ultimately rests on an **UNSAT** answer from the in-tree CDCL solver.
//! This crate turns "trust the solver" into "check the proof", with two
//! pillars:
//!
//! * **Certified UNSAT** ([`drat`]): a forward RUP/DRAT checker that
//!   independently validates the clausal proofs recorded by a
//!   proof-logging [`axmc_sat::Solver`] (see
//!   [`axmc_sat::SolverConfig::with_proof_logging`]). The checker re-derives
//!   every learnt clause by reverse unit propagation and finally verifies
//!   the concluded clause — including assumption cores for incremental
//!   BMC queries. A [`ProofChecker`] follows one incremental solver: at
//!   each `Unsat` answer it inserts only the premises and checks only the
//!   steps logged since its previous check, then the new conclusion, so
//!   every proof step is checked once over the solver's life (see
//!   [`drat`] for the delta order, why it is sound, and how a log's
//!   identity makes the checker start over). The engines behind
//!   `--certify` keep one beside each incremental solver; solvers that
//!   answer once use [`certify_unsat`], a fresh checker fed once.
//! * **Structural linting** ([`lint`]): diagnostics-style well-formedness
//!   passes over the circuit IRs — AIG topology and latch wiring, netlist
//!   topology and interface contracts, miter pair wiring, CNF sanity —
//!   exposed as `axmc lint` and as debug-build entry checks in the
//!   engines.
//!
//! # Examples
//!
//! Certify a small refutation end to end:
//!
//! ```
//! use axmc_sat::{Solver, SolverConfig, SolveResult};
//! use axmc_check::certify_unsat;
//!
//! let mut solver = Solver::with_config(SolverConfig::new().with_proof_logging(true));
//! let x = solver.new_var().positive();
//! solver.add_clause(&[x]);
//! solver.add_clause(&[!x]);
//! assert_eq!(solver.solve(), SolveResult::Unsat);
//! let stats = certify_unsat(&solver).expect("proof checks");
//! assert_eq!(stats.premises, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drat;
pub mod lint;

pub use crate::drat::{
    certify_unsat, check_certificate, format_drat, parse_drat, CertifyError, CheckStats,
    ParseDratError, ProofChecker, ProofError,
};
pub use crate::lint::{
    has_errors, lint_aig, lint_cnf, lint_netlist, lint_pair, lint_semantics, Diagnostic, Severity,
};

// The static pre-analysis tier (ternary abstract interpretation,
// interval bounds, structural sweeping) lives in its own dependency-light
// crate; it is re-exported here so every consumer of the checking stack
// sees one coherent static-analysis surface.
pub use axmc_absint as absint;
