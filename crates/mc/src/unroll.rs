//! Time-frame unrolling of sequential AIGs into one incremental SAT
//! instance.
//!
//! [`Unroller`] is the shared machinery under [`Bmc`](crate::Bmc) and the
//! incremental threshold-search engines: it owns the circuit, creates
//! frames on demand (fresh input variables per frame, latch chaining,
//! reset constants in frame 0) and exposes the per-frame encodings and
//! the underlying solver so callers can pose arbitrary queries over them.

use crate::Trace;
use axmc_aig::Aig;
use axmc_check::{CertifyError, CheckStats, ProofChecker};
use axmc_cnf::{assert_const_false, encode_frame, FrameEncoding};
use axmc_sat::{Lit as SatLit, Solver, SolverConfig};

/// An incremental time-frame unroller over a sequential AIG.
///
/// # Examples
///
/// ```
/// use axmc_aig::Aig;
/// use axmc_mc::Unroller;
/// use axmc_sat::SolveResult;
///
/// // Toggle latch, output q.
/// let mut aig = Aig::new();
/// let q = aig.add_latch(false);
/// aig.set_latch_next(0, !q);
/// aig.add_output(q);
///
/// let mut unroller = Unroller::new(aig);
/// unroller.extend_to(3);
/// let o1 = unroller.frame(1).outputs[0];
/// // The latch is high in frame 1.
/// assert_eq!(unroller.solver_mut().solve_with_assumptions(&[o1]), SolveResult::Sat);
/// ```
///
/// An unroller is plain owned data: it is `Send` (movable onto worker
/// threads) and `Clone` — cloning duplicates the solver with all frames
/// and learnt clauses, which is how portfolio threshold probes get
/// warmed-up engines without re-encoding the product machine. The clone's
/// proof checker starts empty, since the cloned solver's proof log is a
/// new log.
#[derive(Clone, Debug)]
pub struct Unroller {
    aig: Aig,
    solver: Solver,
    /// Follows `solver`'s proof log; see [`Unroller::certify_unsat`].
    checker: ProofChecker,
    const_false: SatLit,
    frames: Vec<FrameEncoding>,
    frontier: Vec<SatLit>,
}

impl Unroller {
    /// Creates an unroller that owns `aig`. No frames exist yet.
    pub fn new(aig: Aig) -> Self {
        let mut solver = Solver::new();
        let const_false = assert_const_false(&mut solver);
        let frontier = aig
            .latches()
            .iter()
            .map(|l| if l.init { !const_false } else { const_false })
            .collect();
        Unroller {
            aig,
            solver,
            checker: ProofChecker::new(),
            const_false,
            frames: Vec::new(),
            frontier,
        }
    }

    /// Creates an unroller over the **statically reduced** form of
    /// `aig`: the circuit is first swept by the `axmc-absint` ternary
    /// fixpoint (constant folding through proven-constant gates,
    /// frozen-latch substitution, structural re-hashing, dangling-node
    /// elimination), and the unroller encodes the smaller equisatisfiable
    /// circuit. The interface (inputs, latches, outputs) is preserved
    /// exactly, so frames, traces and queries are interchangeable with an
    /// unroller over the original circuit; only the per-frame CNF is
    /// smaller. The reduction report says by how much.
    pub fn new_reduced(aig: Aig) -> (Self, axmc_absint::ReductionReport) {
        let (reduced, report) = axmc_absint::sweep(&aig);
        (Unroller::new(reduced), report)
    }

    /// The unrolled circuit.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Number of frames encoded so far.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// A literal asserted true in the solver.
    pub fn true_lit(&self) -> SatLit {
        !self.const_false
    }

    /// Ensures at least `frames` frames are encoded.
    ///
    /// With observability on, every newly encoded frame records its
    /// variable/clause growth and encode time and emits an `mc.frame`
    /// trace event.
    pub fn extend_to(&mut self, frames: usize) {
        while self.frames.len() < frames {
            let k = self.frames.len();
            let vars_before = self.solver.num_vars();
            let clauses_before = self.solver.num_clauses();
            let timer = axmc_obs::span("mc.frame.encode_us");
            let inputs: Vec<SatLit> = (0..self.aig.num_inputs())
                .map(|_| self.solver.new_var().positive())
                .collect();
            let enc = encode_frame(
                &self.aig,
                &mut self.solver,
                &inputs,
                &self.frontier,
                self.const_false,
            );
            self.frontier = enc.latch_next.clone();
            self.frames.push(enc);
            let time_us = timer.finish();
            if axmc_obs::enabled() {
                let vars = (self.solver.num_vars() - vars_before) as u64;
                let clauses = (self.solver.num_clauses() - clauses_before) as u64;
                axmc_obs::counter("mc.frames_encoded").inc();
                axmc_obs::gauge("mc.max_frame").set_max(k as i64);
                axmc_obs::histogram("mc.frame.vars").record(vars);
                axmc_obs::histogram("mc.frame.clauses").record(clauses);
                if axmc_obs::tracing_active() {
                    axmc_obs::emit(
                        axmc_obs::Event::new("mc.frame")
                            .field("frame", k)
                            .field("vars", vars)
                            .field("clauses", clauses)
                            .field("time_us", time_us),
                    );
                }
            }
        }
    }

    /// The encoding of frame `k`.
    ///
    /// # Panics
    ///
    /// Panics if frame `k` has not been created yet.
    pub fn frame(&self, k: usize) -> &FrameEncoding {
        &self.frames[k]
    }

    /// Mutable access to the underlying solver, for posing queries and
    /// adding clauses over frame literals.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Shared access to the underlying solver (e.g. for reading models
    /// and statistics).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Applies a full [`SolverConfig`] — resource control, proof
    /// logging, inprocessing and clause sharing — to the underlying
    /// solver. Enabling proof logging on a live unroller snapshots the
    /// already-encoded frames as premises, so UNSAT answers posed over the
    /// frames carry a [`Certificate`](axmc_sat::Certificate) that
    /// [`Unroller::certify_unsat`] checks; re-applying a logging
    /// configuration keeps the existing proof buffer.
    pub fn configure(&mut self, config: &SolverConfig) {
        self.solver.configure(config);
    }

    /// Certifies the `Unsat` answer the solver just gave with the
    /// unroller's own proof checker. The checker follows the solver's
    /// proof log across calls, so each call checks only the premises and
    /// steps logged since the previous one, then the new conclusion.
    ///
    /// # Errors
    ///
    /// As [`ProofChecker::certify`].
    pub fn certify_unsat(&mut self) -> Result<CheckStats, CertifyError> {
        self.checker.certify(&self.solver)
    }

    /// Returns `true` if proof logging is active.
    pub fn certify(&self) -> bool {
        self.solver.proof_logging()
    }

    /// Reads the inputs of frames `0..=k` out of the current model into a
    /// trace (valid after a `Sat` answer).
    pub fn extract_trace(&self, k: usize) -> Trace {
        let inputs = self.frames[..=k]
            .iter()
            .map(|f| {
                f.inputs
                    .iter()
                    .map(|&l| self.solver.model_lit(l).unwrap_or(false))
                    .collect()
            })
            .collect();
        Trace { inputs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmc_aig::Word;
    use axmc_sat::SolveResult;

    /// Compile-time audit for the parallel layer: unrollers (and the BMC
    /// engines built on them) must move onto worker threads.
    #[test]
    fn unroller_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Unroller>();
        assert_send::<crate::Bmc<'_>>();
    }

    #[test]
    fn cloned_unroller_is_independent() {
        let mut aig = Aig::new();
        let q = aig.add_latch(false);
        aig.set_latch_next(0, !q);
        aig.add_output(q);
        let mut a = Unroller::new(aig);
        a.extend_to(2);
        let mut b = a.clone();
        b.extend_to(5);
        assert_eq!(a.num_frames(), 2);
        assert_eq!(b.num_frames(), 5);
        let o1 = a.frame(1).outputs[0];
        assert_eq!(
            a.solver_mut().solve_with_assumptions(&[o1]),
            SolveResult::Sat
        );
        let o3 = b.frame(3).outputs[0];
        assert_eq!(
            b.solver_mut().solve_with_assumptions(&[!o3]),
            SolveResult::Unsat,
            "toggle latch is high in every odd frame"
        );
    }

    #[test]
    fn frames_chain_state() {
        // 2-bit counter; frame k's state must equal k.
        let mut aig = Aig::new();
        let state = Word::from_lits((0..2).map(|_| aig.add_latch(false)).collect());
        let (next, _) = state.add(&mut aig, &Word::constant(1, 2));
        for (k, &b) in next.bits().iter().enumerate() {
            aig.set_latch_next(k, b);
        }
        aig.add_output(state.bit(0));
        aig.add_output(state.bit(1));

        let mut u = Unroller::new(aig);
        u.extend_to(4);
        assert_eq!(u.num_frames(), 4);
        assert_eq!(u.solver_mut().solve(), SolveResult::Sat);
        for k in 0..4usize {
            let b0 = u.frame(k).outputs[0];
            let b1 = u.frame(k).outputs[1];
            let v = u.solver().model_lit(b0).unwrap() as usize
                + 2 * u.solver().model_lit(b1).unwrap() as usize;
            assert_eq!(v, k % 4, "frame {k}");
        }
    }

    #[test]
    fn trace_extraction_matches_model() {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let q = aig.add_latch(false);
        let nxt = aig.or(q, x);
        aig.set_latch_next(0, nxt);
        aig.add_output(q);

        let mut u = Unroller::new(aig);
        u.extend_to(3);
        let o2 = u.frame(2).outputs[0];
        assert_eq!(
            u.solver_mut().solve_with_assumptions(&[o2]),
            SolveResult::Sat
        );
        let trace = u.extract_trace(2);
        assert_eq!(trace.len(), 3);
        // Replay: the latch must indeed be high in cycle 2.
        assert_eq!(trace.replay(u.aig())[2], vec![true]);
    }

    #[test]
    fn reduced_unroller_answers_like_the_original() {
        // A sticky latch plus a semantically constant cone: a frozen
        // latch (never leaves its reset value) gates a second output that
        // only the ternary fixpoint — not structural hashing — can fold.
        let mut aig = Aig::new();
        let x = aig.add_input();
        let q = aig.add_latch(false);
        let nxt = aig.or(q, x);
        aig.set_latch_next(0, nxt);
        aig.add_output(q);
        let f = aig.add_latch(false);
        aig.set_latch_next(1, f);
        let dead = aig.and(f, x);
        aig.add_output(dead);

        let (mut reduced, report) = Unroller::new_reduced(aig.clone());
        let mut plain = Unroller::new(aig);
        assert!(report.nodes_removed() > 0, "the dead AND must be swept");
        assert_eq!(reduced.aig().num_inputs(), plain.aig().num_inputs());
        assert_eq!(reduced.aig().num_latches(), plain.aig().num_latches());
        assert_eq!(reduced.aig().num_outputs(), plain.aig().num_outputs());
        for u in [&mut reduced, &mut plain] {
            u.extend_to(3);
            let o0 = u.frame(2).outputs[0];
            assert_eq!(
                u.solver_mut().solve_with_assumptions(&[o0]),
                SolveResult::Sat,
                "latch reachable high in cycle 2"
            );
            let o1 = u.frame(2).outputs[1];
            assert_eq!(
                u.solver_mut().solve_with_assumptions(&[o1]),
                SolveResult::Unsat,
                "dead output is never high"
            );
        }
    }
}
