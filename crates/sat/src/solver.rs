//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The design follows the MiniSat lineage: two-watched-literal propagation,
//! first-UIP conflict analysis with clause minimization, VSIDS branching
//! with phase saving, Luby restarts and activity-based learnt-clause
//! deletion. On top of the classic loop it exposes **resource budgets**
//! (conflict and propagation limits): a budgeted call returns
//! [`SolveResult::Unknown`] instead of running to completion, which is the
//! primitive the verifiability-driven search strategy is built on.

use crate::config::{InprocessConfig, SolverConfig};
use crate::ctl::{Interrupt, ResourceCtl};
use crate::heap::VarOrder;
use crate::share::ShareHandle;
use crate::{LBool, Lit, Var};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

mod inprocess;

/// How many conflicts pass between wall-clock deadline checks inside the
/// search loop. Cancellation is checked every conflict (an atomic load);
/// reading the clock is pricier, so it is amortized over this interval.
const DEADLINE_CHECK_CONFLICTS: u64 = 128;

/// How many decisions pass between full interrupt checks on the
/// conflict-free path, so propagation-heavy runs that rarely conflict
/// still observe deadlines and cancellation.
const DECISION_CHECK_INTERVAL: u64 = 1024;

/// Outcome of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::model_value`]).
    Sat,
    /// The formula is unsatisfiable (under the given assumptions, if any).
    Unsat,
    /// The resource budget was exhausted before a verdict was reached.
    Unknown,
}

/// Resource limits for a single solver invocation.
///
/// A fresh [`Budget::unlimited`] imposes no limits. Limits are measured
/// per-call: each `solve` starts counting from zero.
///
/// # Examples
///
/// ```
/// use axmc_sat::Budget;
///
/// let b = Budget::unlimited().with_conflicts(20_000);
/// assert_eq!(b.max_conflicts(), Some(20_000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Budget {
    max_conflicts: Option<u64>,
    max_propagations: Option<u64>,
}

impl Budget {
    /// A budget with no limits.
    pub const fn unlimited() -> Self {
        Budget {
            max_conflicts: None,
            max_propagations: None,
        }
    }

    /// Limits the number of conflicts per call.
    pub const fn with_conflicts(mut self, limit: u64) -> Self {
        self.max_conflicts = Some(limit);
        self
    }

    /// Limits the number of unit propagations per call.
    pub const fn with_propagations(mut self, limit: u64) -> Self {
        self.max_propagations = Some(limit);
        self
    }

    /// The conflict limit, if any.
    pub const fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The propagation limit, if any.
    pub const fn max_propagations(&self) -> Option<u64> {
        self.max_propagations
    }
}

/// Cumulative statistics over the lifetime of a [`Solver`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learnt: u64,
    /// Learnt clauses deleted by database reduction.
    pub removed: u64,
    /// `solve` invocations.
    pub solves: u64,
}

const NO_REASON: u32 = u32::MAX;

/// One step of the clausal (DRAT-style) derivation recorded by a proof
/// logging [`Solver`] (see [`SolverConfig::with_proof_logging`]).
///
/// The sequence of steps, replayed in order on top of the premises,
/// reconstructs the evolution of the solver's clause database. Every
/// [`ProofStep::Add`] clause is a *reverse unit propagation* (RUP)
/// consequence of the clauses alive before it, which is what the
/// `axmc-check` forward checker verifies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// A derived (learnt) clause appended to the database.
    Add(Vec<Lit>),
    /// A clause removed from the database by garbage collection.
    Delete(Vec<Lit>),
}

/// Source of proof-log identities (see [`Certificate::log_id`]). Starts
/// at 1, so 0 is free for hand-built certificates.
static NEXT_LOG_ID: AtomicU64 = AtomicU64::new(1);

/// The in-memory proof buffer of a logging solver.
///
/// Both sections only ever grow. Cloning gives the copy a fresh identity:
/// the two logs share a prefix but diverge from the clone point on.
#[derive(Debug)]
struct ProofLog {
    /// The log's identity; see [`Certificate::log_id`].
    id: u64,
    /// The trusted input clauses, recorded verbatim as passed to
    /// [`Solver::add_clause`] (plus a snapshot of the database at the
    /// moment logging was enabled).
    premises: Vec<Vec<Lit>>,
    /// The derivation: learnt-clause additions and deletions, in order.
    steps: Vec<ProofStep>,
    /// The conclusion clause of the most recent `Unsat` answer: empty for
    /// an unconditional refutation, otherwise a subset of the negated
    /// assumptions. `None` when the last answer was not `Unsat`.
    conclusion: Option<Vec<Lit>>,
    /// The assumptions of the most recent `Unsat` answer.
    assumptions: Vec<Lit>,
    /// How many root-trail literals have been re-recorded as explicit
    /// `Add` steps, so inprocessing can delete the clauses that implied
    /// them without breaking later RUP checks. Counts trail positions.
    root_units_logged: usize,
}

impl ProofLog {
    fn new() -> Self {
        ProofLog {
            id: NEXT_LOG_ID.fetch_add(1, Ordering::Relaxed),
            premises: Vec::new(),
            steps: Vec::new(),
            conclusion: None,
            assumptions: Vec::new(),
            root_units_logged: 0,
        }
    }
}

impl Clone for ProofLog {
    fn clone(&self) -> Self {
        ProofLog {
            premises: self.premises.clone(),
            steps: self.steps.clone(),
            conclusion: self.conclusion.clone(),
            assumptions: self.assumptions.clone(),
            root_units_logged: self.root_units_logged,
            ..ProofLog::new()
        }
    }
}

/// A borrowed view of everything needed to independently re-check an
/// `Unsat` verdict: premises, derivation steps, the concluded clause and
/// the assumptions it is expressed over.
///
/// Produced by [`Solver::certificate`]; consumed by the `axmc-check`
/// forward RUP/DRAT checker.
#[derive(Clone, Copy, Debug)]
pub struct Certificate<'a> {
    /// Identity of the proof log the certificate is a view of. A log
    /// gets a fresh identity each time logging is enabled and on every
    /// clone of its solver; under one identity `premises` and `steps`
    /// only grow, so a checker that follows the log may resume where its
    /// last check stopped. Identities start at 1; hand-built
    /// certificates may use 0.
    pub log_id: u64,
    /// Number of variables in the solver at certificate time.
    pub num_vars: usize,
    /// The trusted input clauses (exactly as given to the solver).
    pub premises: &'a [Vec<Lit>],
    /// The recorded derivation steps.
    pub steps: &'a [ProofStep],
    /// The concluded clause: empty means the premises alone are
    /// unsatisfiable; otherwise every literal is the negation of one of
    /// the `assumptions`.
    pub conclusion: &'a [Lit],
    /// The assumptions the `Unsat` answer was conditional on.
    pub assumptions: &'a [Lit],
}

/// Clause header; the literals live in the solver's shared arena at
/// `start .. start + len`, so propagation walks one contiguous
/// allocation instead of taking a heap hop per clause.
#[derive(Clone, Copy, Debug, Default)]
struct Clause {
    start: u32,
    len: u32,
    activity: f64,
    lbd: u32,
    learnt: bool,
    deleted: bool,
}

/// Marks a watcher of a binary clause in `Watcher::cref_flag`. Binary
/// watchers carry the whole clause (the blocker is the other literal),
/// so propagating them never touches clause memory.
const WATCH_BINARY: u32 = 1 << 31;

#[derive(Clone, Copy, Debug)]
struct Watcher {
    cref_flag: u32,
    blocker: Lit,
}

impl Watcher {
    #[inline]
    fn new(cref: u32, blocker: Lit, binary: bool) -> Self {
        debug_assert_eq!(cref & WATCH_BINARY, 0, "clause reference overflow");
        Watcher {
            cref_flag: cref | if binary { WATCH_BINARY } else { 0 },
            blocker,
        }
    }

    #[inline]
    fn cref(self) -> u32 {
        self.cref_flag & !WATCH_BINARY
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.cref_flag & WATCH_BINARY != 0
    }
}

/// An incremental CDCL SAT solver with assumption and budget support.
///
/// # Examples
///
/// ```
/// use axmc_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause(&[a, b]);
/// solver.add_clause(&[!a]);
/// assert_eq!(solver.solve(), SolveResult::Sat);
/// assert_eq!(solver.model_value(b.var()), Some(true));
///
/// solver.add_clause(&[!b]);
/// assert_eq!(solver.solve(), SolveResult::Unsat);
/// ```
///
/// The solver is plain owned data (no interior shared state), so it is
/// `Send` — instances move freely onto worker threads — and `Clone` —
/// a warmed-up instance (including its learnt clauses) can be duplicated
/// for portfolio solving, after which the copies are fully independent.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// Literal storage for every clause (see [`Clause`]). Deleted and
    /// shrunk clauses leave holes, tracked in `garbage` and reclaimed by
    /// `collect_garbage`.
    arena: Vec<Lit>,
    garbage: usize,
    learnt_refs: Vec<u32>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarOrder,
    cla_inc: f64,
    ok: bool,
    seen: Vec<bool>,
    model: Vec<LBool>,
    stats: SolverStats,
    ctl: ResourceCtl,
    last_interrupt: Option<Interrupt>,
    max_learnts: f64,
    num_original: usize,
    proof: Option<Box<ProofLog>>,
    /// Variables the caller has declared safe to eliminate (never
    /// referenced again in clauses or assumptions).
    eliminable: Vec<bool>,
    /// Variables removed by bounded variable elimination.
    eliminated: Vec<bool>,
    num_eliminated: usize,
    /// Clauses removed by variable elimination, per variable, in
    /// elimination order — replayed backwards to extend a model over the
    /// eliminated variables.
    elim_stack: Vec<(Var, Vec<Vec<Lit>>)>,
    /// Inprocessing knobs; `None` disables the pass (the default).
    inprocess: Option<InprocessConfig>,
    /// `(num_original, root-trail length)` at the end of the last
    /// inprocessing pass; when unchanged, the pass is skipped, so a
    /// burst of solves on a static database pays for simplification
    /// once.
    inprocess_stamp: Option<(usize, usize)>,
    /// Portfolio clause-sharing lane; `None` disables sharing (the
    /// default).
    share: Option<ShareHandle>,
    // LBD histogram resolved once per instrumented solve call, so the
    // per-learnt-clause record in the search loop is a few relaxed
    // atomic adds instead of a registry name lookup. `None` whenever
    // observability is off.
    lbd_hist: Option<std::sync::Arc<axmc_obs::Histogram>>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            max_learnts: 3000.0,
            ..Default::default()
        }
    }

    /// Adds a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.eliminable.push(false);
        self.eliminated.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.insert(v, &self.activity);
        if axmc_obs::enabled() {
            axmc_obs::counter("sat.vars.created").inc();
        }
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of original (problem) clauses added, excluding units
    /// absorbed into the top-level assignment.
    pub fn num_clauses(&self) -> usize {
        self.num_original
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Creates a solver governed by `config`.
    ///
    /// Equivalent to [`Solver::new`] followed by [`Solver::configure`].
    pub fn with_config(config: SolverConfig) -> Self {
        let mut s = Solver::new();
        s.configure(&config);
        s
    }

    /// Applies a complete [`SolverConfig`]: resource control, proof
    /// logging, inprocessing and clause sharing in one call.
    ///
    /// This is the one way to (re)configure a solver. Applying a
    /// proof-logging configuration to a solver that is already logging
    /// keeps the existing buffer (so re-arming a budget between solves
    /// never drops a certificate); applying a non-logging one discards
    /// it.
    ///
    /// While logging is on, every clause passed to [`Solver::add_clause`]
    /// is recorded verbatim as a premise, and every learnt-clause addition
    /// or deletion is recorded as a derivation step. After an `Unsat`
    /// answer, [`Solver::certificate`] returns the material for an
    /// independent forward RUP/DRAT check (the `axmc-check` crate
    /// implements one). Enabling logging on a solver that already holds
    /// clauses snapshots the current database (including the root-level
    /// trail) as premises: certification is then relative to that state,
    /// not to clauses added before the call.
    pub fn configure(&mut self, config: &SolverConfig) {
        self.ctl = config.ctl().clone();
        self.inprocess = config.inprocess().copied();
        self.share = config.share().cloned();
        self.apply_proof_logging(config.proof_logging());
    }

    /// Captures the solver's current configuration, so a single knob can
    /// be changed without disturbing the others:
    ///
    /// ```
    /// # use axmc_sat::{Budget, Solver};
    /// # let mut solver = Solver::new();
    /// let cfg = solver.current_config().with_budget(Budget::unlimited());
    /// solver.configure(&cfg);
    /// ```
    pub fn current_config(&self) -> SolverConfig {
        let mut cfg = SolverConfig::new()
            .with_ctl(self.ctl.clone())
            .with_proof_logging(self.proof.is_some());
        if let Some(ip) = self.inprocess {
            cfg = cfg.with_inprocessing(ip);
        }
        if let Some(sh) = &self.share {
            cfg = cfg.with_share(sh.clone());
        }
        cfg
    }

    /// Declares that the caller will never reference `v` again — not in
    /// clauses, not in assumptions — making it a candidate for bounded
    /// variable elimination during inprocessing. Variables are frozen by
    /// default; elimination only ever touches marked ones.
    pub fn mark_eliminable(&mut self, v: Var) {
        self.eliminable[v.index() as usize] = true;
    }

    /// Whether inprocessing has eliminated `v`. Eliminated variables
    /// must not appear in later clauses or assumptions; their model
    /// values are reconstructed automatically after a `Sat` answer.
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index() as usize]
    }

    /// The resource control currently governing `solve` calls.
    pub fn ctl(&self) -> &ResourceCtl {
        &self.ctl
    }

    /// Why the most recent `solve` call returned
    /// [`SolveResult::Unknown`], or `None` if it ran to a verdict.
    pub fn last_interrupt(&self) -> Option<Interrupt> {
        self.last_interrupt
    }

    fn apply_proof_logging(&mut self, on: bool) {
        if !on {
            self.proof = None;
            return;
        }
        if self.proof.is_some() {
            return;
        }
        let mut log = ProofLog::new();
        for c in &self.clauses {
            if !c.deleted {
                log.premises
                    .push(self.arena[c.start as usize..(c.start + c.len) as usize].to_vec());
            }
        }
        debug_assert_eq!(self.decision_level(), 0);
        for &l in &self.trail {
            log.premises.push(vec![l]);
        }
        log.root_units_logged = self.trail.len();
        if !self.ok {
            log.premises.push(Vec::new());
        }
        self.proof = Some(Box::new(log));
    }

    /// Returns `true` if proof logging is currently enabled.
    pub fn proof_logging(&self) -> bool {
        self.proof.is_some()
    }

    /// Returns the certificate of the most recent `Unsat` answer, or
    /// `None` if proof logging is off or the last answer was not `Unsat`.
    pub fn certificate(&self) -> Option<Certificate<'_>> {
        let log = self.proof.as_deref()?;
        let conclusion = log.conclusion.as_deref()?;
        Some(Certificate {
            log_id: log.id,
            num_vars: self.num_vars(),
            premises: &log.premises,
            steps: &log.steps,
            conclusion,
            assumptions: &log.assumptions,
        })
    }

    /// Streams the recorded derivation in standard DRAT text format
    /// (`d` lines for deletions, plain clause lines for additions, DIMACS
    /// literal numbering) to `out`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if proof logging is off (`InvalidInput`), or
    /// propagates I/O errors from `out`.
    pub fn write_drat<W: std::io::Write>(&self, out: &mut W) -> std::io::Result<()> {
        let log = self.proof.as_deref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "proof logging is off")
        })?;
        for step in &log.steps {
            let lits = match step {
                ProofStep::Add(lits) => lits,
                ProofStep::Delete(lits) => {
                    out.write_all(b"d ")?;
                    lits
                }
            };
            for l in lits {
                write!(out, "{} ", l.to_dimacs())?;
            }
            out.write_all(b"0\n")?;
        }
        Ok(())
    }

    /// The recorded derivation as DRAT text (see [`Solver::write_drat`]),
    /// or `None` if proof logging is off.
    pub fn proof_drat(&self) -> Option<String> {
        let mut buf = Vec::new();
        self.write_drat(&mut buf).ok()?;
        Some(String::from_utf8(buf).expect("DRAT text is ASCII"))
    }

    #[inline]
    fn log_step(&mut self, step: ProofStep) {
        if let Some(log) = self.proof.as_mut() {
            log.steps.push(step);
        }
    }

    /// Records the verdict of the search that just finished.
    fn log_conclusion(&mut self, conclusion: Option<Vec<Lit>>, assumptions: &[Lit]) {
        if let Some(log) = self.proof.as_mut() {
            log.conclusion = conclusion;
            log.assumptions = assumptions.to_vec();
        }
    }

    /// Current decision level.
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    #[inline]
    fn value_lit(&self, l: Lit) -> LBool {
        self.assigns[l.var().index() as usize].negate_if(l.is_negative())
    }

    /// Adds a clause. Returns `false` if the solver is now in an
    /// unsatisfiable state at the root level (the clause — possibly
    /// combined with earlier ones — is contradictory).
    ///
    /// Must be called with the solver at decision level 0, which is always
    /// the case between `solve` calls.
    ///
    /// # Panics
    ///
    /// Panics if any literal refers to a variable that was not created
    /// with [`Solver::new_var`].
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert_eq!(self.decision_level(), 0);
        if !self.ok {
            return false;
        }
        for &l in lits {
            assert!(
                (l.var().index() as usize) < self.assigns.len(),
                "unknown variable {:?}",
                l.var()
            );
        }
        if self.num_eliminated > 0 {
            for &l in lits {
                assert!(
                    !self.eliminated[l.var().index() as usize],
                    "clause mentions eliminated variable {:?}",
                    l.var()
                );
            }
        }
        if let Some(log) = self.proof.as_mut() {
            log.premises.push(lits.to_vec());
        }
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        // Tautology / root-level simplification.
        let mut filtered = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            if i + 1 < c.len() && c[i + 1] == !l {
                return true; // tautology: contains l and !l adjacently after sort
            }
            match self.value_lit(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.alloc_clause(filtered, false);
                true
            }
        }
    }

    /// The literals of a clause, resolved through the arena.
    #[inline]
    fn lits(&self, cref: u32) -> &[Lit] {
        let c = &self.clauses[cref as usize];
        &self.arena[c.start as usize..(c.start + c.len) as usize]
    }

    /// Compacts the arena once at least half of it is holes left by
    /// deleted or shrunk clauses. Clause references are indices into
    /// `clauses` (only `start` offsets move), so watchers, reasons, and
    /// the eliminated-clause stack all survive compaction untouched.
    fn collect_garbage(&mut self) {
        if self.garbage == 0 || self.garbage * 2 < self.arena.len() {
            return;
        }
        let mut arena = Vec::with_capacity(self.arena.len() - self.garbage);
        for c in &mut self.clauses {
            if c.deleted || c.len == 0 {
                c.start = 0;
                c.len = 0;
                continue;
            }
            let start = arena.len() as u32;
            arena.extend_from_slice(&self.arena[c.start as usize..(c.start + c.len) as usize]);
            c.start = start;
        }
        self.arena = arena;
        self.garbage = 0;
    }

    fn alloc_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        let w0 = !lits[0];
        let w1 = !lits[1];
        let blocker0 = lits[1];
        let blocker1 = lits[0];
        let binary = lits.len() == 2;
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(&lits);
        self.clauses.push(Clause {
            start,
            len: lits.len() as u32,
            activity: 0.0,
            lbd: 0,
            learnt,
            deleted: false,
        });
        self.watches[w0.code() as usize].push(Watcher::new(cref, blocker0, binary));
        self.watches[w1.code() as usize].push(Watcher::new(cref, blocker1, binary));
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnt += 1;
        } else {
            self.num_original += 1;
        }
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var().index() as usize;
        self.assigns[v] = LBool::from_bool(!l.is_negative());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause reference, if any.
    fn propagate(&mut self) -> Option<u32> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.code() as usize]);
            let mut j = 0;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: blocker already satisfied.
                if self.value_lit(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref();
                if self.clauses[cref as usize].deleted {
                    continue; // drop watcher of deleted clause
                }
                // Binary clauses carry the whole clause in the watcher:
                // the blocker is the other literal, so it is unit or
                // conflicting now and no clause memory is touched.
                if w.is_binary() {
                    ws[j] = w;
                    j += 1;
                    // Reason-clause convention: the implied literal must
                    // sit at position 0 for conflict analysis and
                    // `is_locked`.
                    let s = self.clauses[cref as usize].start as usize;
                    if self.arena[s] != w.blocker {
                        self.arena.swap(s, s + 1);
                    }
                    if self.value_lit(w.blocker) == LBool::False {
                        while i < ws.len() {
                            ws[j] = ws[i];
                            j += 1;
                            i += 1;
                        }
                        self.qhead = self.trail.len();
                        conflict = Some(cref);
                    } else {
                        self.unchecked_enqueue(w.blocker, cref);
                    }
                    continue;
                }
                let false_lit = !p;
                let (s, n) = {
                    let c = &self.clauses[cref as usize];
                    (c.start as usize, c.len as usize)
                };
                // Normalize: watched false literal at index 1.
                if self.arena[s] == false_lit {
                    self.arena.swap(s, s + 1);
                }
                debug_assert_eq!(self.arena[s + 1], false_lit);
                let first = self.arena[s];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[j] = Watcher::new(cref, first, false);
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..n {
                    let lk = self.arena[s + k];
                    if self.value_lit(lk) != LBool::False {
                        self.arena.swap(s + 1, s + k);
                        let new_watch = !self.arena[s + 1];
                        self.watches[new_watch.code() as usize]
                            .push(Watcher::new(cref, first, false));
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting under the current trail.
                ws[j] = Watcher::new(cref, first, false);
                j += 1;
                if self.value_lit(first) == LBool::False {
                    // Conflict: flush remaining watchers and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            ws.truncate(j);
            self.watches[p.code() as usize] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for idx in (bound..self.trail.len()).rev() {
            let l = self.trail[idx];
            let v = l.var().index() as usize;
            self.assigns[v] = LBool::Undef;
            self.polarity[v] = !l.is_negative();
            self.reason[v] = NO_REASON;
            self.order.insert(l.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        let a = &mut self.activity[v.index() as usize];
        *a += self.var_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: u32) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for r in &self.learnt_refs {
                self.clauses[*r as usize].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot for the UIP
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut to_clear: Vec<Var> = Vec::new();
        let current = self.decision_level();

        loop {
            debug_assert_ne!(confl, NO_REASON, "decision reached during analysis");
            if self.clauses[confl as usize].learnt {
                self.bump_clause(confl);
            }
            let start = usize::from(p.is_some());
            let (cs, nlits) = {
                let c = &self.clauses[confl as usize];
                (c.start as usize, c.len as usize)
            };
            for k in start..nlits {
                let q = self.arena[cs + k];
                let v = q.var();
                let vi = v.index() as usize;
                if !self.seen[vi] && self.level[vi] > 0 {
                    self.seen[vi] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[vi] >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var().index() as usize] = false;
            path_count -= 1;
            if path_count == 0 {
                break;
            }
            confl = self.reason[pl.var().index() as usize];
        }
        learnt[0] = !p.expect("UIP exists");

        // Local clause minimization: drop literals implied by the rest.
        let mut minimized = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.implied_by_seen(l) {
                minimized.push(l);
            }
        }
        let mut learnt = minimized;

        // Clear seen flags.
        for v in to_clear {
            self.seen[v.index() as usize] = false;
        }

        // Compute backtrack level; place a watch on the second-highest level.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index() as usize]
                    > self.level[learnt[max_i].var().index() as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index() as usize]
        };
        (learnt, bt_level)
    }

    /// A literal is redundant if its reason clause's other literals are all
    /// already in the learnt clause (marked seen) or at level 0.
    fn implied_by_seen(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index() as usize];
        if r == NO_REASON {
            return false;
        }
        self.lits(r).iter().skip(1).all(|&q| {
            let vi = q.var().index() as usize;
            self.seen[vi] || self.level[vi] == 0
        })
    }

    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.level[l.var().index() as usize])
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop(&self.activity) {
            let vi = v.index() as usize;
            if self.assigns[vi] == LBool::Undef && !self.eliminated[vi] {
                return Some(v);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Sort learnt clauses by (glue, activity): keep low-LBD, active ones.
        let clauses = &self.clauses;
        self.learnt_refs.retain(|&r| !clauses[r as usize].deleted);
        let mut refs = self.learnt_refs.clone();
        refs.sort_by(|&a, &b| {
            let ca = &self.clauses[a as usize];
            let cb = &self.clauses[b as usize];
            cb.lbd.cmp(&ca.lbd).then(
                ca.activity
                    .partial_cmp(&cb.activity)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let target = refs.len() / 2;
        let mut removed = 0;
        for &r in &refs {
            if removed >= target {
                break;
            }
            let keep = {
                let c = &self.clauses[r as usize];
                c.lbd <= 2 || c.len == 2 || self.is_locked(r)
            };
            if !keep {
                if self.proof.is_some() {
                    let lits = self.lits(r).to_vec();
                    self.log_step(ProofStep::Delete(lits));
                }
                let c = &mut self.clauses[r as usize];
                self.garbage += c.len as usize;
                c.deleted = true;
                c.len = 0;
                removed += 1;
                self.stats.removed += 1;
            }
        }
        let clauses = &self.clauses;
        self.learnt_refs.retain(|&r| !clauses[r as usize].deleted);
        self.collect_garbage();
    }

    fn is_locked(&self, cref: u32) -> bool {
        let c = &self.clauses[cref as usize];
        if c.len == 0 {
            return false;
        }
        let first = self.arena[c.start as usize];
        self.value_lit(first) == LBool::True && self.reason[first.var().index() as usize] == cref
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Publishes a freshly learnt clause on the sharing ring if a lane is
    /// attached and the clause passes the export filter (LBD, length,
    /// fleet-common variable prefix).
    #[inline]
    fn export_learnt(&self, lits: &[Lit], lbd: u32) {
        let Some(h) = &self.share else { return };
        if lbd > h.max_lbd || lits.len() > h.max_len {
            return;
        }
        if lits
            .iter()
            .any(|l| l.var().index() as usize >= h.shared_vars)
        {
            return;
        }
        h.ring.publish(h.lane, lits);
        if axmc_obs::enabled() {
            axmc_obs::counter("sat.share.exported").inc();
        }
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// [`SolveResult::Unsat`] means unsatisfiable *under the assumptions*;
    /// the solver remains usable afterwards (assumptions are not clauses).
    ///
    /// When [`axmc_obs::enabled`] observability is on, each call records
    /// its wall-clock time and per-query conflict/decision/propagation
    /// deltas into the global metrics registry and emits one
    /// `sat.solve` trace event.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !axmc_obs::enabled() {
            return self.run_search(assumptions);
        }
        let before = self.stats;
        self.lbd_hist = Some(axmc_obs::histogram("sat.learnt.lbd"));
        let timer = axmc_obs::span("sat.solve.time_us");
        let result = self.run_search(assumptions);
        let time_us = timer.finish();
        self.lbd_hist = None;
        let conflicts = self.stats.conflicts - before.conflicts;
        let decisions = self.stats.decisions - before.decisions;
        let propagations = self.stats.propagations - before.propagations;
        let restarts = self.stats.restarts - before.restarts;
        let learnt = self.stats.learnt - before.learnt;
        let removed = self.stats.removed - before.removed;
        axmc_obs::counter("sat.solves").inc();
        axmc_obs::counter(match result {
            SolveResult::Sat => "sat.result.sat",
            SolveResult::Unsat => "sat.result.unsat",
            SolveResult::Unknown => "sat.result.unknown",
        })
        .inc();
        axmc_obs::counter("sat.restarts").add(restarts);
        axmc_obs::counter("sat.learnt").add(learnt);
        axmc_obs::counter("sat.learnt.removed").add(removed);
        axmc_obs::histogram("sat.solve.conflicts").record(conflicts);
        axmc_obs::histogram("sat.solve.decisions").record(decisions);
        axmc_obs::histogram("sat.solve.propagations").record(propagations);
        // Propagations per conflict: the classic "is the search making
        // progress or thrashing" CDCL health indicator. Conflict-free
        // solves have no meaningful ratio and are skipped.
        if let Some(ratio) = propagations.checked_div(conflicts) {
            axmc_obs::histogram("sat.solve.props_per_conflict").record(ratio);
        }
        // Deadline slack: how much wall clock was left when the call
        // returned. A shrinking slack histogram is the early signal that
        // a run is about to degrade into Interrupted partial results.
        if let Some(slack) = self.ctl.slack() {
            axmc_obs::histogram("sat.deadline.slack_us")
                .record(slack.as_micros().min(u64::MAX as u128) as u64);
        }
        if result == SolveResult::Unknown {
            if let Some(reason) = self.last_interrupt {
                axmc_obs::counter(match reason {
                    Interrupt::Conflicts => "sat.interrupt.conflicts",
                    Interrupt::Propagations => "sat.interrupt.propagations",
                    Interrupt::Deadline => "sat.interrupt.deadline",
                    Interrupt::Cancelled => "sat.interrupt.cancelled",
                })
                .inc();
            }
        }
        if axmc_obs::tracing_active() {
            axmc_obs::emit(
                axmc_obs::Event::new("sat.solve")
                    .field(
                        "result",
                        match result {
                            SolveResult::Sat => "sat",
                            SolveResult::Unsat => "unsat",
                            SolveResult::Unknown => "unknown",
                        },
                    )
                    .field("time_us", time_us)
                    .field("conflicts", conflicts)
                    .field("decisions", decisions)
                    .field("propagations", propagations)
                    .field("restarts", restarts)
                    .field("learnt", learnt)
                    .field("removed", removed)
                    .field("vars", self.num_vars() as u64)
                    .field("clauses", self.num_clauses() as u64)
                    .field("assumptions", assumptions.len()),
            );
        }
        result
    }

    /// Checks the wall-clock limits: the shared cancellation token (an
    /// atomic load, cheap enough for every conflict) and the effective
    /// per-call deadline.
    #[inline]
    fn wallclock_interrupt(&self, call_deadline: Option<Instant>) -> Option<Interrupt> {
        if self.ctl.is_cancelled() {
            return Some(Interrupt::Cancelled);
        }
        if call_deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Interrupt::Deadline);
        }
        None
    }

    /// The CDCL search loop behind [`Solver::solve_with_assumptions`].
    fn run_search(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        self.last_interrupt = None;
        if !self.ok {
            self.log_conclusion(Some(Vec::new()), assumptions);
            return SolveResult::Unsat;
        }
        // An already-cancelled token or expired deadline returns before
        // any work: once an analysis is interrupted, every later phase
        // that reuses the control bails out in microseconds.
        if let Some(reason) = self.ctl.interrupted() {
            self.last_interrupt = Some(reason);
            self.log_conclusion(None, assumptions);
            return SolveResult::Unknown;
        }
        // Between-solves inprocessing and shared-clause import, both at
        // decision level 0. Either can expose a root-level conflict.
        if self.inprocess.is_some() || self.share.is_some() {
            self.presolve();
            if !self.ok {
                self.log_conclusion(Some(Vec::new()), assumptions);
                return SolveResult::Unsat;
            }
        }
        if self.num_eliminated > 0 {
            for &l in assumptions {
                assert!(
                    !self.eliminated[l.var().index() as usize],
                    "assumption on eliminated variable {:?}",
                    l.var()
                );
            }
        }
        let call_deadline = self.ctl.call_deadline();
        let start_conflicts = self.stats.conflicts;
        let start_props = self.stats.propagations;
        let mut restart_round: u64 = 0;
        let restart_base: u64 = 100;
        // Conclusion clause of an Unsat answer: empty for an unconditional
        // refutation, an assumption core otherwise.
        let mut conclusion: Vec<Lit> = Vec::new();

        let result = 'outer: loop {
            let budget_limit = restart_base * luby(restart_round);
            restart_round += 1;
            let mut conflicts_this_round: u64 = 0;

            loop {
                if let Some(confl) = self.propagate() {
                    self.stats.conflicts += 1;
                    conflicts_this_round += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        break 'outer SolveResult::Unsat;
                    }
                    let (learnt, bt) = self.analyze(confl);
                    if self.proof.is_some() {
                        self.log_step(ProofStep::Add(learnt.clone()));
                    }
                    self.cancel_until(bt);
                    if learnt.len() == 1 {
                        if let Some(h) = &self.lbd_hist {
                            h.record(1); // a unit spans one decision level
                        }
                        self.export_learnt(&learnt, 1);
                        self.unchecked_enqueue(learnt[0], NO_REASON);
                    } else {
                        let lbd = self.lbd(&learnt);
                        if let Some(h) = &self.lbd_hist {
                            h.record(lbd as u64);
                        }
                        self.export_learnt(&learnt, lbd);
                        let first = learnt[0];
                        let cref = self.alloc_clause(learnt, true);
                        self.clauses[cref as usize].lbd = lbd;
                        self.bump_clause(cref);
                        self.unchecked_enqueue(first, cref);
                    }
                    self.decay_activities();

                    let spent_conflicts = self.stats.conflicts - start_conflicts;
                    if let Some(max) = self.ctl.budget().max_conflicts() {
                        if spent_conflicts >= max {
                            self.last_interrupt = Some(Interrupt::Conflicts);
                            break 'outer SolveResult::Unknown;
                        }
                    }
                    if let Some(max) = self.ctl.budget().max_propagations() {
                        if self.stats.propagations - start_props >= max {
                            self.last_interrupt = Some(Interrupt::Propagations);
                            break 'outer SolveResult::Unknown;
                        }
                    }
                    // Cancellation every conflict; the (pricier) clock
                    // read amortized over DEADLINE_CHECK_CONFLICTS.
                    let check_deadline = spent_conflicts.is_multiple_of(DEADLINE_CHECK_CONFLICTS);
                    if let Some(reason) =
                        self.wallclock_interrupt(if check_deadline { call_deadline } else { None })
                    {
                        self.last_interrupt = Some(reason);
                        break 'outer SolveResult::Unknown;
                    }
                } else {
                    // No conflict: maybe restart, reduce, then decide.
                    // Propagation-heavy runs can go a long time without
                    // conflicting; a decision-count-gated check keeps
                    // them responsive to deadlines and cancellation too.
                    if self.stats.decisions.is_multiple_of(DECISION_CHECK_INTERVAL) {
                        if let Some(reason) = self.wallclock_interrupt(call_deadline) {
                            self.last_interrupt = Some(reason);
                            break 'outer SolveResult::Unknown;
                        }
                    }
                    if conflicts_this_round >= budget_limit {
                        self.stats.restarts += 1;
                        self.cancel_until(0);
                        break; // next Luby round
                    }
                    if self.learnt_refs.len() as f64 > self.max_learnts {
                        self.reduce_db();
                        self.max_learnts *= 1.1;
                    }
                    // Assumption levels first.
                    let dl = self.decision_level() as usize;
                    if dl < assumptions.len() {
                        let p = assumptions[dl];
                        match self.value_lit(p) {
                            LBool::True => {
                                // Dummy level so indices line up.
                                self.trail_lim.push(self.trail.len());
                            }
                            LBool::False => {
                                if self.proof.is_some() {
                                    conclusion = self.analyze_final(p);
                                }
                                break 'outer SolveResult::Unsat;
                            }
                            LBool::Undef => {
                                self.stats.decisions += 1;
                                self.trail_lim.push(self.trail.len());
                                self.unchecked_enqueue(p, NO_REASON);
                            }
                        }
                        continue;
                    }
                    match self.pick_branch_var() {
                        None => {
                            // Complete assignment: model found.
                            self.model = self.assigns.clone();
                            if !self.elim_stack.is_empty() {
                                self.extend_model();
                            }
                            break 'outer SolveResult::Sat;
                        }
                        Some(v) => {
                            self.stats.decisions += 1;
                            let phase = self.polarity[v.index() as usize];
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(Lit::new(v, !phase), NO_REASON);
                        }
                    }
                }
            }
        };
        self.log_conclusion(
            if result == SolveResult::Unsat {
                Some(conclusion)
            } else {
                None
            },
            assumptions,
        );
        self.cancel_until(0);
        result
    }

    /// Computes the conclusion clause of an `Unsat`-under-assumptions
    /// answer: the MiniSat-style assumption core. `p` is the assumption
    /// found false on the current trail; the returned clause consists of
    /// `!p` plus the negations of the assumptions that forced it, and is a
    /// RUP consequence of the clause database.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut out = vec![!p];
        if self.level[p.var().index() as usize] == 0 || self.decision_level() == 0 {
            return out;
        }
        self.seen[p.var().index() as usize] = true;
        for idx in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[idx];
            let qv = q.var().index() as usize;
            if !self.seen[qv] {
                continue;
            }
            self.seen[qv] = false;
            let r = self.reason[qv];
            if r == NO_REASON {
                // Every decision below `assumptions.len()` levels is an
                // assumption; its negation belongs in the core. (When `p`
                // contradicts an earlier assumption `!p` this yields the
                // tautology `{!p, p}`, which is trivially RUP.)
                out.push(!q);
            } else {
                let (cs, nlits) = {
                    let c = &self.clauses[r as usize];
                    (c.start as usize, c.len as usize)
                };
                for k in 1..nlits {
                    let l = self.arena[cs + k];
                    let lv = l.var().index() as usize;
                    if self.level[lv] > 0 {
                        self.seen[lv] = true;
                    }
                }
            }
        }
        self.seen[p.var().index() as usize] = false;
        out
    }

    /// Returns the model value of `var` from the most recent
    /// [`SolveResult::Sat`] answer, or `None` if the variable was
    /// irrelevant or no model is available.
    pub fn model_value(&self, var: Var) -> Option<bool> {
        self.model
            .get(var.index() as usize)
            .and_then(|v| v.to_option())
    }

    /// Returns the model value of a literal (see [`Solver::model_value`]).
    pub fn model_lit(&self, lit: Lit) -> Option<bool> {
        self.model_value(lit.var()).map(|b| b ^ lit.is_negative())
    }
}

/// The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut i: u64) -> u64 {
    // Find the subsequence containing index i.
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctl::CancelToken;

    fn lit(solver_vars: &[Var], dimacs: i64) -> Lit {
        let v = solver_vars[(dimacs.unsigned_abs() - 1) as usize];
        Lit::new(v, dimacs < 0)
    }

    fn make(n: usize) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars = (0..n).map(|_| s.new_var()).collect();
        (s, vars)
    }

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn trivially_sat() {
        let (mut s, v) = make(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m1 = s.model_value(v[0]).unwrap();
        let m2 = s.model_value(v[1]).unwrap();
        assert!(m1 || m2);
    }

    #[test]
    fn trivially_unsat() {
        let (mut s, v) = make(1);
        s.add_clause(&[lit(&v, 1)]);
        assert!(!s.add_clause(&[lit(&v, -1)]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let (mut s, v) = make(4);
        s.add_clause(&[lit(&v, 1)]);
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3)]);
        s.add_clause(&[lit(&v, -3), lit(&v, 4)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &var in &v {
            assert_eq!(s.model_value(var), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes.
        let (mut s, v) = make(6);
        let p = |i: usize, j: usize| v[i * 2 + j].positive();
        for i in 0..3 {
            s.add_clause(&[p(i, 0), p(i, 1)]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p(i1, j), !p(i2, j)]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5;
        let h = 4;
        let (mut s, v) = make(n * h);
        let p = |i: usize, j: usize| v[i * h + j].positive();
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
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_do_not_persist() {
        let (mut s, v) = make(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, -1), lit(&v, -2)]),
            SolveResult::Unsat
        );
        // Without the assumptions the formula is still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Sat);
        assert_eq!(s.model_value(v[1]), Some(true));
    }

    #[test]
    fn contradictory_assumptions() {
        let (mut s, v) = make(1);
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, 1), lit(&v, -1)]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn budget_exhaustion_returns_unknown() {
        // A hard pigeonhole instance with a one-conflict budget.
        let n = 8;
        let h = 7;
        let (mut s, v) = make(n * h);
        let p = |i: usize, j: usize| v[i * h + j].positive();
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
        s.configure(&SolverConfig::new().with_budget(Budget::unlimited().with_conflicts(1)));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Lifting the budget lets it finish.
        s.configure(&SolverConfig::new());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    /// A pigeonhole instance PHP(n, n-1) for the interruption tests:
    /// `n = 10` is large enough that no machine finishes it within a few
    /// milliseconds; smaller sizes solve quickly when a test needs a
    /// completed verdict.
    fn pigeonhole(n: usize) -> Solver {
        let h = n - 1;
        let (mut s, v) = make(n * h);
        let p = |i: usize, j: usize| v[i * h + j].positive();
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
    fn budget_exhaustion_reports_the_interrupt_reason() {
        let mut s = pigeonhole(10);
        s.configure(&SolverConfig::new().with_budget(Budget::unlimited().with_conflicts(1)));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_interrupt(), Some(Interrupt::Conflicts));
        s.configure(&SolverConfig::new().with_budget(Budget::unlimited().with_propagations(1)));
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_interrupt(), Some(Interrupt::Propagations));
    }

    #[test]
    fn expired_deadline_returns_unknown_immediately() {
        let mut s = pigeonhole(10);
        s.configure(
            &SolverConfig::new()
                .with_ctl(ResourceCtl::unlimited().with_timeout(std::time::Duration::ZERO)),
        );
        let start = Instant::now();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_interrupt(), Some(Interrupt::Deadline));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "expired deadline must short-circuit the search"
        );
        // Conflict counters untouched: nothing ran.
        assert_eq!(s.stats().conflicts, 0);
    }

    #[test]
    fn raised_cancel_token_stops_the_search() {
        let mut s = pigeonhole(10);
        let token = CancelToken::new();
        s.configure(
            &SolverConfig::new().with_ctl(ResourceCtl::unlimited().with_cancel(token.clone())),
        );
        token.cancel();
        assert_eq!(s.solve(), SolveResult::Unknown);
        assert_eq!(s.last_interrupt(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn cancellation_from_another_thread_interrupts_a_running_solve() {
        let mut s = pigeonhole(10);
        let token = CancelToken::new();
        s.configure(
            &SolverConfig::new().with_ctl(ResourceCtl::unlimited().with_cancel(token.clone())),
        );
        let start = Instant::now();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            token.cancel();
        });
        let result = s.solve();
        canceller.join().expect("canceller thread");
        // Either the instance happened to finish first (Unsat) or the
        // token stopped it; it must not run to the multi-second solve a
        // PHP(10, 9) instance would otherwise take.
        if result == SolveResult::Unknown {
            assert_eq!(s.last_interrupt(), Some(Interrupt::Cancelled));
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "cancellation must stop the solve promptly"
        );
    }

    #[test]
    fn verdicts_clear_the_last_interrupt() {
        // A solve that trips the budget...
        let mut hard = pigeonhole(7);
        hard.configure(&SolverConfig::new().with_budget(Budget::unlimited().with_conflicts(1)));
        assert_eq!(hard.solve(), SolveResult::Unknown);
        assert!(hard.last_interrupt().is_some());
        // ...then completes once the limit is lifted: reason cleared.
        hard.configure(&SolverConfig::new());
        assert_eq!(hard.solve(), SolveResult::Unsat);
        assert_eq!(hard.last_interrupt(), None);
    }

    #[test]
    fn completed_assumption_solves_clear_the_last_interrupt() {
        // Same invariant as above, but through the assumptions path: a
        // stale interrupt reason must not survive a solve that reached a
        // verdict under assumptions.
        let (mut s, v) = make(3);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3)]);
        s.configure(
            &SolverConfig::new()
                .with_ctl(ResourceCtl::unlimited().with_timeout(std::time::Duration::ZERO)),
        );
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, -1)]),
            SolveResult::Unknown
        );
        assert!(s.last_interrupt().is_some());
        s.configure(&SolverConfig::new());
        assert_eq!(s.solve_with_assumptions(&[lit(&v, -1)]), SolveResult::Sat);
        assert_eq!(s.last_interrupt(), None, "Sat verdict clears the reason");
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, -1), lit(&v, -2)]),
            SolveResult::Unsat
        );
        assert_eq!(s.last_interrupt(), None, "Unsat verdict clears the reason");
    }

    #[test]
    fn current_config_round_trips_every_knob() {
        let mut s = pigeonhole(7);
        s.configure(
            &SolverConfig::new()
                .with_budget(Budget::unlimited().with_conflicts(123))
                .with_proof_logging(true)
                .with_inprocessing(crate::InprocessConfig::default()),
        );
        let cfg = s.current_config();
        assert_eq!(cfg.ctl().budget().max_conflicts(), Some(123));
        assert!(cfg.proof_logging());
        assert!(cfg.inprocess().is_some());
        assert!(cfg.share().is_none());
        // Re-applying the captured config with one knob changed keeps
        // the proof buffer alive (logging stays on).
        s.configure(&cfg.with_budget(Budget::unlimited()));
        assert!(s.proof_logging());
        assert_eq!(s.ctl().budget().max_conflicts(), None);
    }

    #[test]
    fn generous_deadline_does_not_change_the_verdict() {
        let mut plain = pigeonhole(7);
        let mut governed = pigeonhole(7);
        governed.configure(
            &SolverConfig::new().with_ctl(
                ResourceCtl::unlimited().with_timeout(std::time::Duration::from_secs(3600)),
            ),
        );
        assert_eq!(plain.solve(), governed.solve());
        assert_eq!(governed.last_interrupt(), None);
    }

    #[test]
    fn cloned_solvers_share_the_cancel_token() {
        let token = CancelToken::new();
        let mut a = pigeonhole(10);
        a.configure(
            &SolverConfig::new().with_ctl(ResourceCtl::unlimited().with_cancel(token.clone())),
        );
        let mut b = a.clone();
        token.cancel();
        assert_eq!(a.solve(), SolveResult::Unknown);
        assert_eq!(b.solve(), SolveResult::Unknown);
        assert_eq!(b.last_interrupt(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn incremental_clause_addition() {
        let (mut s, v) = make(3);
        s.add_clause(&[lit(&v, 1), lit(&v, 2), lit(&v, 3)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[lit(&v, -1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause(&[lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[2]), Some(true));
        s.add_clause(&[lit(&v, -3)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let (mut s, v) = make(2);
        assert!(s.add_clause(&[lit(&v, 1), lit(&v, -1)]));
        assert_eq!(s.num_clauses(), 0);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let (mut s, v) = make(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -1)]);
        s.add_clause(&[lit(&v, -2), lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_smoke() {
        // Deterministic pseudo-random 3-SAT instances around the phase
        // transition; verify SAT answers against the model.
        let mut seed = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..20 {
            let n = 30;
            let m = 120 + round;
            let (mut s, v) = make(n);
            let mut cls = Vec::new();
            for _ in 0..m {
                let mut lits = Vec::new();
                for _ in 0..3 {
                    let var = (next() % n as u64) as usize;
                    let neg = next() % 2 == 1;
                    lits.push(Lit::new(v[var], neg));
                }
                cls.push(lits.clone());
                s.add_clause(&lits);
            }
            if s.solve() == SolveResult::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|&l| s.model_lit(l) == Some(true)),
                        "model violates clause {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn xor_chain_forces_unique_model() {
        // x1 ^ x2 = 1, x2 ^ x3 = 1, x1 = 1 -> x2 = 0, x3 = 1.
        let (mut s, v) = make(3);
        let xor_clauses = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause(&[a, b]);
            s.add_clause(&[!a, !b]);
        };
        xor_clauses(&mut s, lit(&v, 1), lit(&v, 2));
        xor_clauses(&mut s, lit(&v, 2), lit(&v, 3));
        s.add_clause(&[lit(&v, 1)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.model_value(v[0]), Some(true));
        assert_eq!(s.model_value(v[1]), Some(false));
        assert_eq!(s.model_value(v[2]), Some(true));
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, v) = make(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        s.solve();
        s.solve();
        assert_eq!(s.stats().solves, 2);
    }

    /// The parallel oracle layer moves solvers onto worker threads; this
    /// fails to compile if interior non-`Send` state (e.g. `Rc`) sneaks
    /// into the solver.
    #[test]
    fn solver_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Solver>();
        assert_send::<Budget>();
        assert_send::<SolveResult>();
    }

    #[test]
    fn proof_logging_records_premises_and_conclusion() {
        let (mut s, v) = make(2);
        s.configure(&SolverConfig::new().with_proof_logging(true));
        assert!(s.proof_logging());
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -1)]);
        s.add_clause(&[lit(&v, -2)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().expect("unsat certificate");
        assert_eq!(cert.premises.len(), 3);
        assert!(cert.conclusion.is_empty());
        assert!(cert.assumptions.is_empty());
    }

    #[test]
    fn certificate_is_absent_for_sat_answers() {
        let (mut s, v) = make(2);
        s.configure(&SolverConfig::new().with_proof_logging(true));
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.certificate().is_none());
        // A later Unsat answer on the same solver does produce one.
        assert_eq!(
            s.solve_with_assumptions(&[lit(&v, -1), lit(&v, -2)]),
            SolveResult::Unsat
        );
        assert!(s.certificate().is_some());
    }

    #[test]
    fn assumption_core_consists_of_negated_assumptions() {
        let (mut s, v) = make(3);
        s.configure(&SolverConfig::new().with_proof_logging(true));
        s.add_clause(&[lit(&v, -1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2), lit(&v, 3)]);
        let a = [lit(&v, 1), lit(&v, -3)];
        assert_eq!(s.solve_with_assumptions(&a), SolveResult::Unsat);
        let cert = s.certificate().expect("unsat certificate");
        assert!(!cert.conclusion.is_empty());
        for l in cert.conclusion {
            assert!(cert.assumptions.contains(&!*l), "{l:?} not an assumption");
        }
    }

    #[test]
    fn proof_logging_snapshots_existing_clauses() {
        let (mut s, v) = make(2);
        s.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        s.add_clause(&[lit(&v, -2)]); // becomes a root-trail unit
        s.configure(&SolverConfig::new().with_proof_logging(true));
        s.add_clause(&[lit(&v, -1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().expect("unsat certificate");
        // Snapshot: binary clause + the unit from the trail + the new unit.
        assert!(cert.premises.len() >= 3);
        assert!(cert.conclusion.is_empty());
    }

    #[test]
    fn pigeonhole_proof_records_learnt_steps() {
        let n = 5;
        let h = 4;
        let (mut s, v) = make(n * h);
        s.configure(&SolverConfig::new().with_proof_logging(true));
        let p = |i: usize, j: usize| v[i * h + j].positive();
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
        assert_eq!(s.solve(), SolveResult::Unsat);
        let cert = s.certificate().expect("unsat certificate");
        assert!(!cert.steps.is_empty(), "refutation has derivation steps");
        let drat = s.proof_drat().expect("drat text");
        assert!(drat.lines().count() >= cert.steps.len());
        assert!(drat.lines().all(|l| l.ends_with(" 0") || l == "0"));
    }

    #[test]
    fn disabling_proof_logging_discards_the_buffer() {
        let (mut s, v) = make(1);
        s.configure(&SolverConfig::new().with_proof_logging(true));
        s.add_clause(&[lit(&v, 1)]);
        s.add_clause(&[lit(&v, -1)]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.configure(&SolverConfig::new().with_proof_logging(false));
        assert!(!s.proof_logging());
        assert!(s.certificate().is_none());
        assert!(s.proof_drat().is_none());
    }

    #[test]
    fn cloned_solvers_diverge_independently() {
        let (mut a, v) = make(3);
        a.add_clause(&[lit(&v, 1), lit(&v, 2)]);
        a.add_clause(&[lit(&v, -1), lit(&v, 3)]);
        assert_eq!(a.solve(), SolveResult::Sat);
        let mut b = a.clone();
        // Contradict var 3 only in the clone.
        b.add_clause(&[lit(&v, -3)]);
        b.add_clause(&[lit(&v, 3)]);
        assert_eq!(b.solve(), SolveResult::Unsat);
        assert_eq!(b.solve(), SolveResult::Unsat);
        // The original is unaffected and still satisfiable.
        assert_eq!(a.solve(), SolveResult::Sat);
        // Stats diverge per instance after the clone point (both started
        // from the snapshot of one solve).
        assert_eq!(a.stats().solves, 2);
        assert_eq!(b.stats().solves, 3);
    }
}
