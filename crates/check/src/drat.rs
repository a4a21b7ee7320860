//! A forward RUP/DRAT proof checker.
//!
//! The checker validates the [`Certificate`] recorded by a proof-logging
//! [`Solver`]: it loads the premises, re-verifies every added clause by
//! **reverse unit propagation** (assume the clause's negation, run unit
//! propagation over the live database, require a conflict), applies
//! deletions, and finally verifies the concluded clause — the empty
//! clause for an unconditional refutation, or an assumption core for an
//! `Unsat`-under-assumptions answer.
//!
//! # Incremental checking
//!
//! An incremental solver answers many queries on one growing proof log.
//! A [`ProofChecker`] follows that log: it keeps its watched clause
//! database, root trail and deletion index between checks, and at each
//! `Unsat` answer it
//!
//! 1. inserts the premises logged since its last check,
//! 2. RUP-checks and applies the derivation steps logged since then, in
//!    order,
//! 3. RUP-checks the new conclusion (which is never inserted).
//!
//! So every proof step is checked exactly once over the solver's life,
//! instead of once per `Unsat` answer. [`check_certificate`] and
//! [`certify_unsat`] are a fresh checker fed once: the one-shot check is
//! the same engine with an empty starting state.
//!
//! Why checking deltas is sound: every clause in the database, and every
//! unit on its root trail, is implied by the premises inserted so far —
//! premises trivially, each accepted step because it is RUP with respect
//! to such clauses. Deletions only remove clauses. So an accepted
//! conclusion is implied by the premises of the log, as with a whole-log
//! check. It is also at least as strict: a delta's premises go in before
//! its steps, so no step is checked against a premise logged after its
//! delta, and a step sees a subset of the premises a whole-log check
//! would offer it.
//!
//! A log is identified by [`Certificate::log_id`], which is fresh each
//! time logging is enabled and on every clone of a solver (clones share a
//! prefix but diverge). The checker starts over from an empty database
//! when the identity changes, when the premise or step count is smaller
//! than what it has already checked, or when the variable count shrinks.
//! It also drops its state after any rejection, so a later check
//! re-verifies the whole log.
//!
//! Further soundness notes:
//!
//! * Deletions can never make the check unsound — clause entailment is
//!   monotone — so a deletion that does not match any derived clause is
//!   *ignored* (and counted), never an error. Premises are never deleted.
//! * Tautological clauses cannot participate in unit propagation and are
//!   skipped on insertion.
//! * Once the root database propagates to a conflict, every clause is
//!   trivially RUP; the checker short-circuits from that point on. The
//!   premises only grow, so this stays true for the rest of the log.

use axmc_sat::{Certificate, LBool, Lit, ProofStep, Solver};
use std::collections::HashMap;
use std::fmt;

/// Counters describing one successful check. They count the work of
/// that check only: for a [`ProofChecker`] that resumes a log, the
/// premises and steps logged since its previous check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Premise clauses loaded.
    pub premises: usize,
    /// Derivation steps verified as RUP additions.
    pub additions: usize,
    /// Deletion steps applied.
    pub deletions: usize,
    /// Deletion steps that matched no deletable clause (skipped; sound).
    pub ignored_deletions: usize,
    /// Unit propagations performed while checking.
    pub propagations: u64,
    /// Literals in the concluded clause (0 = unconditional refutation).
    pub conclusion_len: usize,
}

impl CheckStats {
    /// Derivation steps processed: additions plus applied and ignored
    /// deletions.
    pub fn steps(&self) -> usize {
        self.additions + self.deletions + self.ignored_deletions
    }
}

/// A defect found while checking a certificate: the proof does **not**
/// establish the claimed `Unsat` verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofError {
    /// A clause mentions a variable outside the declared range.
    LitOutOfRange {
        /// Which section of the certificate the clause came from.
        section: &'static str,
        /// Clause index within that section.
        index: usize,
        /// The offending literal.
        lit: Lit,
    },
    /// An added clause is not a reverse-unit-propagation consequence of
    /// the clauses alive before it.
    NotRup {
        /// Index of the offending step in [`Certificate::steps`].
        step: usize,
    },
    /// The concluded clause is not RUP with respect to the final database.
    ConclusionNotRup,
    /// A conclusion literal is not the negation of any assumption.
    ConclusionNotOnAssumptions {
        /// The offending literal.
        lit: Lit,
    },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::LitOutOfRange {
                section,
                index,
                lit,
            } => write!(f, "{section} clause {index}: literal {lit} out of range"),
            ProofError::NotRup { step } => {
                write!(f, "derivation step {step} is not a RUP consequence")
            }
            ProofError::ConclusionNotRup => write!(f, "concluded clause is not RUP"),
            ProofError::ConclusionNotOnAssumptions { lit } => {
                write!(f, "conclusion literal {lit} does not negate any assumption")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// Why [`certify_unsat`] could not produce a verdict about a solver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// The solver has no certificate: proof logging is off, or the most
    /// recent answer was not `Unsat`.
    NoCertificate,
    /// The certificate was checked and rejected.
    Rejected(ProofError),
}

impl fmt::Display for CertifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertifyError::NoCertificate => {
                write!(f, "no certificate (logging off or last answer not Unsat)")
            }
            CertifyError::Rejected(e) => write!(f, "certificate rejected: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

/// The watched-literal clause database of the forward checker.
#[derive(Default)]
struct Checker {
    assigns: Vec<LBool>,
    clauses: Vec<Vec<Lit>>,
    alive: Vec<bool>,
    /// Watcher lists indexed by the code of the *negation* of the watched
    /// literal (visited when that literal becomes false).
    watches: Vec<Vec<u32>>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Sorted-literal key → derived (deletable) clause ids.
    by_key: HashMap<Vec<Lit>, Vec<u32>>,
    /// Scratch buffer for the sorted key of a deletion step.
    key: Vec<Lit>,
    root_conflict: bool,
    propagations: u64,
}

impl Checker {
    fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Makes room for variables `0..num_vars`.
    fn grow(&mut self, num_vars: usize) {
        if num_vars > self.assigns.len() {
            self.assigns.resize(num_vars, LBool::Undef);
            self.watches.resize_with(2 * num_vars, Vec::new);
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index() as usize].negate_if(l.is_negative())
    }

    #[inline]
    fn enqueue(&mut self, l: Lit) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        self.assigns[l.var().index() as usize] = LBool::from_bool(!l.is_negative());
        self.trail.push(l);
    }

    /// Unit propagation to fixpoint; returns `true` on conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let mut j = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let cid = ws[i];
                i += 1;
                if !self.alive[cid as usize] {
                    continue; // lazily drop watchers of deleted clauses
                }
                let c = &mut self.clauses[cid as usize];
                if c[0] == false_lit {
                    c.swap(0, 1);
                }
                debug_assert_eq!(c[1], false_lit);
                let first = c[0];
                if self.value(first) == LBool::True {
                    ws[j] = cid;
                    j += 1;
                    continue;
                }
                let len = self.clauses[cid as usize].len();
                for k in 2..len {
                    let lk = self.clauses[cid as usize][k];
                    if self.value(lk) != LBool::False {
                        let c = &mut self.clauses[cid as usize];
                        c.swap(1, k);
                        let new_watch = c[1];
                        self.watches[(!new_watch).code() as usize].push(cid);
                        continue 'watchers;
                    }
                }
                // Unit or conflicting.
                ws[j] = cid;
                j += 1;
                if self.value(first) == LBool::False {
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[p.code() as usize] = ws;
                    self.qhead = self.trail.len();
                    return true;
                }
                self.enqueue(first);
            }
            ws.truncate(j);
            self.watches[p.code() as usize] = ws;
        }
        false
    }

    /// Inserts a clause at the root level, classifying it under the
    /// current root assignment, and propagates to fixpoint.
    fn insert(&mut self, lits: &[Lit], deletable: bool) {
        if self.root_conflict {
            return;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        for i in 0..c.len().saturating_sub(1) {
            if c[i + 1] == !c[i] {
                return; // tautology: never propagates, skip
            }
        }
        // Partition: move non-false literals to the front.
        let mut n_nonfalse = 0;
        for i in 0..c.len() {
            if self.value(c[i]) != LBool::False {
                c.swap(n_nonfalse, i);
                n_nonfalse += 1;
            }
        }
        match n_nonfalse {
            0 => {
                self.root_conflict = true;
            }
            1 => {
                match self.value(c[0]) {
                    LBool::True => {} // satisfied at root forever
                    LBool::Undef => {
                        self.enqueue(c[0]);
                        if self.propagate() {
                            self.root_conflict = true;
                        }
                    }
                    LBool::False => unreachable!("partitioned as non-false"),
                }
            }
            _ => {
                let cid = self.clauses.len() as u32;
                self.watches[(!c[0]).code() as usize].push(cid);
                self.watches[(!c[1]).code() as usize].push(cid);
                if deletable {
                    let mut key = c.clone();
                    key.sort_unstable();
                    self.by_key.entry(key).or_default().push(cid);
                }
                self.clauses.push(c);
                self.alive.push(true);
            }
        }
    }

    /// Checks that `clause` is a reverse-unit-propagation consequence of
    /// the live database: assuming its negation must propagate to a
    /// conflict.
    fn is_rup(&mut self, clause: &[Lit]) -> bool {
        if self.root_conflict {
            return true;
        }
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in clause {
            match self.value(!l) {
                LBool::True => {}
                LBool::False => {
                    conflict = true;
                    break;
                }
                LBool::Undef => self.enqueue(!l),
            }
        }
        if !conflict {
            conflict = self.propagate();
        }
        for idx in mark..self.trail.len() {
            self.assigns[self.trail[idx].var().index() as usize] = LBool::Undef;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
        conflict
    }

    /// Removes one derived clause with the given literal set, if any, and
    /// frees its literals (watchers of a dead clause are skipped before
    /// the clause is read). Returns `false` when nothing matched (the
    /// deletion is skipped).
    fn delete(&mut self, lits: &[Lit]) -> bool {
        self.key.clear();
        self.key.extend_from_slice(lits);
        self.key.sort_unstable();
        self.key.dedup();
        let Some(ids) = self.by_key.get_mut(self.key.as_slice()) else {
            return false;
        };
        let mut deleted = false;
        while let Some(cid) = ids.pop() {
            if self.alive[cid as usize] {
                self.alive[cid as usize] = false;
                self.clauses[cid as usize] = Vec::new();
                deleted = true;
                break;
            }
        }
        if ids.is_empty() {
            self.by_key.remove(self.key.as_slice());
        }
        deleted
    }
}

fn check_range(
    num_vars: usize,
    section: &'static str,
    index: usize,
    lits: &[Lit],
) -> Result<(), ProofError> {
    for &l in lits {
        if l.var().index() as usize >= num_vars {
            return Err(ProofError::LitOutOfRange {
                section,
                index,
                lit: l,
            });
        }
    }
    Ok(())
}

/// A forward RUP/DRAT checker that follows one proof-logging solver
/// across its `Unsat` answers, checking each proof step once (see the
/// [module documentation](self) for the delta order and why it is
/// sound).
///
/// Cloning yields an empty checker: a clone accompanies a cloned solver,
/// whose log has a fresh identity, so carried-over state would be
/// discarded at its first check anyway.
///
/// # Examples
///
/// ```
/// use axmc_check::ProofChecker;
/// use axmc_sat::{Solver, SolverConfig, SolveResult};
///
/// let mut solver = Solver::with_config(SolverConfig::new().with_proof_logging(true));
/// let x = solver.new_var().positive();
/// let y = solver.new_var().positive();
/// solver.add_clause(&[x, y]);
/// let mut checker = ProofChecker::new();
/// assert_eq!(solver.solve_with_assumptions(&[!x, !y]), SolveResult::Unsat);
/// assert_eq!(checker.certify(&solver)?.premises, 1);
/// solver.add_clause(&[!x]);
/// assert_eq!(solver.solve_with_assumptions(&[!y]), SolveResult::Unsat);
/// // The second check loads only the premise added since the first.
/// assert_eq!(checker.certify(&solver)?.premises, 1);
/// # Ok::<(), axmc_check::CertifyError>(())
/// ```
#[derive(Default)]
pub struct ProofChecker {
    db: Checker,
    /// Identity of the log `db` was built from; `None` while empty.
    log_id: Option<u64>,
    /// Premises of that log already inserted into `db`.
    premises: usize,
    /// Steps of that log already checked and applied to `db`.
    steps: usize,
}

impl Clone for ProofChecker {
    fn clone(&self) -> Self {
        ProofChecker::new()
    }
}

impl fmt::Debug for ProofChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProofChecker")
            .field("log_id", &self.log_id)
            .field("premises", &self.premises)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl ProofChecker {
    /// An empty checker, following no log yet.
    pub fn new() -> Self {
        ProofChecker::default()
    }

    /// Checks `cert`, resuming from this checker's previous check when
    /// `cert` extends the same log, and from an empty database otherwise.
    ///
    /// Verifies, in order: every new premise and step literal is in
    /// range; every new [`ProofStep::Add`] clause is RUP with respect to
    /// the database alive before it; the concluded clause consists only
    /// of negated assumptions; and the concluded clause is itself RUP
    /// with respect to the final database. An empty conclusion therefore
    /// certifies that the premises alone are unsatisfiable.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProofError`] encountered (step indices count
    /// from the start of the log) and drops the checker's state; a
    /// returned `Ok` means the `Unsat` verdict is independently
    /// established by the certificate.
    pub fn check(&mut self, cert: &Certificate<'_>) -> Result<CheckStats, ProofError> {
        let resumable = self.log_id == Some(cert.log_id)
            && cert.premises.len() >= self.premises
            && cert.steps.len() >= self.steps
            && cert.num_vars >= self.db.num_vars();
        if !resumable {
            *self = ProofChecker {
                log_id: Some(cert.log_id),
                ..ProofChecker::new()
            };
        }
        let outcome = self.check_delta(cert);
        if outcome.is_err() {
            *self = ProofChecker::new();
        }
        outcome
    }

    fn check_delta(&mut self, cert: &Certificate<'_>) -> Result<CheckStats, ProofError> {
        let db = &mut self.db;
        db.grow(cert.num_vars);
        let propagations_before = db.propagations;
        let mut stats = CheckStats {
            conclusion_len: cert.conclusion.len(),
            ..CheckStats::default()
        };
        for (i, premise) in cert.premises.iter().enumerate().skip(self.premises) {
            check_range(cert.num_vars, "premise", i, premise)?;
            db.insert(premise, false);
            stats.premises += 1;
        }
        for (i, step) in cert.steps.iter().enumerate().skip(self.steps) {
            match step {
                ProofStep::Add(lits) => {
                    check_range(cert.num_vars, "derivation", i, lits)?;
                    if !db.is_rup(lits) {
                        return Err(ProofError::NotRup { step: i });
                    }
                    db.insert(lits, true);
                    stats.additions += 1;
                }
                ProofStep::Delete(lits) => {
                    check_range(cert.num_vars, "deletion", i, lits)?;
                    if db.delete(lits) {
                        stats.deletions += 1;
                    } else {
                        stats.ignored_deletions += 1;
                    }
                }
            }
        }
        self.premises = cert.premises.len();
        self.steps = cert.steps.len();
        check_range(cert.num_vars, "conclusion", 0, cert.conclusion)?;
        for &l in cert.conclusion {
            if !cert.assumptions.contains(&!l) {
                return Err(ProofError::ConclusionNotOnAssumptions { lit: l });
            }
        }
        if !db.is_rup(cert.conclusion) {
            return Err(ProofError::ConclusionNotRup);
        }
        stats.propagations = db.propagations - propagations_before;
        Ok(stats)
    }

    /// Fetches and checks the certificate of `solver`'s most recent
    /// `Unsat` answer (see [`ProofChecker::check`]), recording the work
    /// of this check via `axmc-obs`: `check.certified` / `check.rejected`
    /// counters; `check.proof.steps`, `check.proof.premises` and
    /// `check.certify.propagations` histograms of the steps, premises and
    /// propagations this call checked; and the `check.certify.time_us`
    /// span.
    ///
    /// # Errors
    ///
    /// [`CertifyError::NoCertificate`] when the solver is not logging or
    /// its last answer was not `Unsat`; [`CertifyError::Rejected`] when
    /// the checker refutes the proof (which indicates a solver soundness
    /// bug).
    pub fn certify(&mut self, solver: &Solver) -> Result<CheckStats, CertifyError> {
        let cert = solver.certificate().ok_or(CertifyError::NoCertificate)?;
        let timer = axmc_obs::span("check.certify.time_us");
        let outcome = self.check(&cert);
        let time_us = timer.finish();
        if axmc_obs::enabled() {
            match &outcome {
                Ok(stats) => {
                    axmc_obs::counter("check.certified").inc();
                    axmc_obs::histogram("check.proof.steps").record(stats.steps() as u64);
                    axmc_obs::histogram("check.proof.premises").record(stats.premises as u64);
                    axmc_obs::histogram("check.certify.propagations").record(stats.propagations);
                }
                Err(_) => {
                    axmc_obs::counter("check.rejected").inc();
                }
            }
            if axmc_obs::tracing_active() {
                let checked = outcome.as_ref().copied().unwrap_or_default();
                axmc_obs::emit(
                    axmc_obs::Event::new("check.certify")
                        .field("ok", outcome.is_ok())
                        .field("premises", checked.premises)
                        .field("steps", checked.steps())
                        .field("conclusion_len", cert.conclusion.len())
                        .field("time_us", time_us),
                );
            }
        }
        outcome.map_err(CertifyError::Rejected)
    }
}

/// Forward-checks a complete certificate with a fresh [`ProofChecker`].
///
/// # Errors
///
/// As [`ProofChecker::check`].
pub fn check_certificate(cert: &Certificate<'_>) -> Result<CheckStats, ProofError> {
    ProofChecker::new().check(cert)
}

/// Fetches and forward-checks the whole certificate of `solver`'s most
/// recent `Unsat` answer with a fresh [`ProofChecker`], for solvers
/// that answer once. A solver that answers many queries should keep one
/// [`ProofChecker`] beside it instead, so each proof step is checked
/// once.
///
/// # Errors
///
/// As [`ProofChecker::certify`].
pub fn certify_unsat(solver: &Solver) -> Result<CheckStats, CertifyError> {
    ProofChecker::new().certify(solver)
}

/// Error produced when parsing DRAT text fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseDratError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseDratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drat parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseDratError {}

/// Serializes derivation steps as standard DRAT text (the same format
/// [`Solver::write_drat`] streams).
pub fn format_drat(steps: &[ProofStep]) -> String {
    let mut out = String::new();
    for step in steps {
        let lits = match step {
            ProofStep::Add(lits) => lits,
            ProofStep::Delete(lits) => {
                out.push_str("d ");
                lits
            }
        };
        for l in lits {
            out.push_str(&l.to_dimacs().to_string());
            out.push(' ');
        }
        out.push_str("0\n");
    }
    out
}

/// Parses DRAT text (clause-addition lines and `d`-prefixed deletion
/// lines, DIMACS literal numbering, `0`-terminated) into derivation
/// steps. Comment lines starting with `c` and blank lines are skipped.
///
/// # Errors
///
/// Returns [`ParseDratError`] on junk tokens or unterminated lines.
pub fn parse_drat(text: &str) -> Result<Vec<ProofStep>, ParseDratError> {
    let mut steps = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let (is_delete, rest) = match line.strip_prefix('d') {
            Some(rest) if rest.starts_with(char::is_whitespace) => (true, rest),
            _ => (false, line),
        };
        let mut lits = Vec::new();
        let mut terminated = false;
        for tok in rest.split_whitespace() {
            if terminated {
                return Err(ParseDratError {
                    line: lineno + 1,
                    message: format!("token '{tok}' after clause terminator"),
                });
            }
            let v: i64 = tok.parse().map_err(|_| ParseDratError {
                line: lineno + 1,
                message: format!("bad literal '{tok}'"),
            })?;
            if v == 0 {
                terminated = true;
            } else {
                lits.push(Lit::from_dimacs(v));
            }
        }
        if !terminated {
            return Err(ParseDratError {
                line: lineno + 1,
                message: "missing clause terminator 0".to_string(),
            });
        }
        steps.push(if is_delete {
            ProofStep::Delete(lits)
        } else {
            ProofStep::Add(lits)
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_sat::{SolveResult, SolverConfig, Var};

    /// A fresh solver with proof logging armed from the start.
    fn logging_solver() -> Solver {
        Solver::with_config(SolverConfig::new().with_proof_logging(true))
    }

    fn pigeonhole(n: usize, h: usize) -> Solver {
        let mut s = logging_solver();
        let vars: Vec<Var> = (0..n * h).map(|_| s.new_var()).collect();
        let p = |i: usize, j: usize| vars[i * h + j].positive();
        for i in 0..n {
            let holes: Vec<Lit> = (0..h).map(|j| p(i, j)).collect();
            s.add_clause(&holes);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p(i1, j), !p(i2, j)]);
                }
            }
        }
        s
    }

    #[test]
    fn accepts_pigeonhole_refutation() {
        let mut s = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let stats = certify_unsat(&s).expect("valid refutation");
        assert!(stats.additions > 0);
        assert_eq!(stats.conclusion_len, 0);
    }

    #[test]
    fn accepts_assumption_core() {
        let mut s = logging_solver();
        let v: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        s.add_clause(&[v[1].negative(), v[2].positive()]);
        assert_eq!(
            s.solve_with_assumptions(&[v[0].positive(), v[2].negative()]),
            SolveResult::Unsat
        );
        let stats = certify_unsat(&s).expect("valid assumption core");
        assert!(stats.conclusion_len > 0);
    }

    #[test]
    fn accepts_contradictory_assumptions() {
        let mut s = logging_solver();
        let x = s.new_var();
        assert_eq!(
            s.solve_with_assumptions(&[x.positive(), x.negative()]),
            SolveResult::Unsat
        );
        certify_unsat(&s).expect("tautological core is trivially RUP");
    }

    #[test]
    fn no_certificate_for_sat_answers() {
        let mut s = logging_solver();
        let x = s.new_var();
        s.add_clause(&[x.positive()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(certify_unsat(&s), Err(CertifyError::NoCertificate));
    }

    #[test]
    fn rejects_fabricated_non_rup_step() {
        // Premises: (a ∨ b). Claimed derivation: (a) — not RUP.
        let a = Var::new(0).positive();
        let b = Var::new(1).positive();
        let premises = vec![vec![a, b]];
        let steps = vec![ProofStep::Add(vec![a])];
        let cert = Certificate {
            log_id: 0,
            num_vars: 2,
            premises: &premises,
            steps: &steps,
            conclusion: &[],
            assumptions: &[],
        };
        assert_eq!(
            check_certificate(&cert),
            Err(ProofError::NotRup { step: 0 })
        );
    }

    #[test]
    fn rejects_claimed_refutation_of_satisfiable_premises() {
        let a = Var::new(0).positive();
        let premises = vec![vec![a]];
        let cert = Certificate {
            log_id: 0,
            num_vars: 1,
            premises: &premises,
            steps: &[],
            conclusion: &[],
            assumptions: &[],
        };
        assert_eq!(check_certificate(&cert), Err(ProofError::ConclusionNotRup));
    }

    #[test]
    fn rejects_out_of_range_literal() {
        let premises = vec![vec![Var::new(7).positive()]];
        let cert = Certificate {
            log_id: 0,
            num_vars: 3,
            premises: &premises,
            steps: &[],
            conclusion: &[],
            assumptions: &[],
        };
        assert!(matches!(
            check_certificate(&cert),
            Err(ProofError::LitOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_conclusion_literal_outside_assumptions() {
        let mut s = logging_solver();
        let v: Vec<Var> = (0..2).map(|_| s.new_var()).collect();
        s.add_clause(&[v[0].negative(), v[1].positive()]);
        assert_eq!(
            s.solve_with_assumptions(&[v[0].positive(), v[1].negative()]),
            SolveResult::Unsat
        );
        let cert = s.certificate().unwrap();
        assert!(!cert.conclusion.is_empty());
        // Corrupt the conclusion: !(!v1) = v1 is not among the assumptions.
        let corrupted = vec![Var::new(1).negative()];
        let bad = Certificate {
            conclusion: &corrupted,
            ..cert
        };
        assert!(matches!(
            check_certificate(&bad),
            Err(ProofError::ConclusionNotOnAssumptions { .. })
        ));
    }

    #[test]
    fn deletion_of_unknown_clause_is_ignored_not_fatal() {
        let mut s = pigeonhole(4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().unwrap();
        let mut steps: Vec<ProofStep> = cert.steps.to_vec();
        steps.insert(
            0,
            ProofStep::Delete(vec![Var::new(0).positive(), Var::new(1).positive()]),
        );
        let patched = Certificate {
            steps: &steps,
            ..cert
        };
        let stats = check_certificate(&patched).expect("still a valid proof");
        assert_eq!(stats.ignored_deletions, 1);
    }

    #[test]
    fn deleted_derived_clause_no_longer_propagates() {
        // Premises: (a ∨ b), (a ∨ !b). Derive (a) by RUP, delete it, then
        // claim (a) again — after re-deriving it must still be RUP (from
        // the premises), so this stays valid; but deleting BOTH premises'
        // consequence and claiming something unsupported must fail.
        let a = Var::new(0).positive();
        let b = Var::new(1).positive();
        let c = Var::new(2).positive();
        let premises = vec![vec![a, b], vec![a, !b]];
        let steps = vec![
            ProofStep::Add(vec![a]),
            ProofStep::Delete(vec![a]),
            ProofStep::Add(vec![c]), // unsupported: not RUP
        ];
        let cert = Certificate {
            log_id: 0,
            num_vars: 3,
            premises: &premises,
            steps: &steps,
            conclusion: &[],
            assumptions: &[],
        };
        assert_eq!(
            check_certificate(&cert),
            Err(ProofError::NotRup { step: 2 })
        );
    }

    #[test]
    fn drat_text_round_trip() {
        let a = Var::new(0).positive();
        let b = Var::new(1).negative();
        let steps = vec![
            ProofStep::Add(vec![a, b]),
            ProofStep::Delete(vec![a, b]),
            ProofStep::Add(vec![]),
        ];
        let text = format_drat(&steps);
        let back = parse_drat(&text).unwrap();
        assert_eq!(back, steps);
    }

    #[test]
    fn parse_drat_rejects_junk() {
        assert!(parse_drat("1 2 x 0\n").is_err());
        assert!(parse_drat("1 2\n").is_err()); // missing terminator
        assert!(parse_drat("1 0 2\n").is_err()); // token after terminator
        assert!(parse_drat("c comment\n\nd 1 0\n").is_ok());
    }

    #[test]
    fn solver_drat_text_parses_back() {
        let mut s = pigeonhole(4, 3);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let text = s.proof_drat().unwrap();
        let steps = parse_drat(&text).unwrap();
        assert_eq!(steps.len(), s.certificate().unwrap().steps.len());
    }
}
