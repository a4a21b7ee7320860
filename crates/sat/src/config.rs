//! The unified solver configuration surface.
//!
//! [`SolverConfig`] is the one way to configure a
//! [`Solver`](crate::Solver): resource governance, proof logging,
//! inprocessing and portfolio clause sharing are all carried by a single
//! immutable builder value that can be stamped onto a solver with
//! [`Solver::configure`](crate::Solver::configure), captured back with
//! [`Solver::current_config`](crate::Solver::current_config), and handed
//! across layers (the model checker's `BmcOptions` and the analysis
//! layer's `AnalysisOptions` both embed or produce one).
//!
//! # Examples
//!
//! ```
//! use axmc_sat::{Budget, ResourceCtl, Solver, SolverConfig};
//!
//! let cfg = SolverConfig::new()
//!     .with_ctl(ResourceCtl::unlimited())
//!     .with_budget(Budget::unlimited().with_conflicts(20_000))
//!     .with_proof_logging(true);
//! let mut solver = Solver::with_config(cfg.clone());
//! assert!(solver.proof_logging());
//!
//! // Re-arm only the budget, preserving everything else.
//! let rearmed = solver.current_config().with_budget(Budget::unlimited());
//! solver.configure(&rearmed);
//! assert!(solver.proof_logging());
//! ```

use crate::ctl::ResourceCtl;
use crate::share::ShareHandle;
use crate::solver::Budget;

/// Knobs of the between-solves inprocessing pass (see
/// [`SolverConfig::with_inprocessing`]).
///
/// All limits are deterministic work counts, never wall clock, so an
/// inprocessing solver stays reproducible run to run. The pass runs at
/// solve entry, at decision level 0, and comprises:
///
/// * **root simplification** — satisfied clauses removed, root-false
///   literals stripped;
/// * **subsumption and self-subsuming resolution** over the problem
///   clauses (capped by [`subsumption_checks`](Self::subsumption_checks));
/// * **clause vivification** under a propagation budget slice
///   ([`vivify_propagations`](Self::vivify_propagations), additionally
///   capped by the [`ResourceCtl`] propagation budget);
/// * **bounded variable elimination** of variables explicitly marked
///   [`Solver::mark_eliminable`](crate::Solver::mark_eliminable) (every
///   variable is frozen by default — the incremental API lets callers
///   reference any variable in later clauses or assumptions, so only the
///   caller knows which variables are dead).
///
/// Every rewrite is proof-logged (strengthened clauses as DRAT
/// additions, replaced ones as deletions), so `--certify` keeps working
/// with inprocessing enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InprocessConfig {
    /// Propagation budget for the vivification sweep (per solve call).
    pub vivify_propagations: u64,
    /// Cap on subsumption subset tests (per solve call).
    pub subsumption_checks: u64,
    /// Longest clause the vivifier will walk; longer clauses are skipped.
    pub vivify_max_len: usize,
}

impl Default for InprocessConfig {
    fn default() -> Self {
        InprocessConfig {
            vivify_propagations: 20_000,
            subsumption_checks: 100_000,
            vivify_max_len: 64,
        }
    }
}

/// The complete configuration of a [`Solver`](crate::Solver): resource
/// control, proof logging, inprocessing and clause sharing.
///
/// See the [module documentation](self) for a usage example.
#[derive(Clone, Debug, Default)]
pub struct SolverConfig {
    ctl: ResourceCtl,
    proof_logging: bool,
    inprocess: Option<InprocessConfig>,
    share: Option<ShareHandle>,
}

impl SolverConfig {
    /// An unlimited, non-logging, non-inprocessing configuration.
    pub fn new() -> Self {
        SolverConfig::default()
    }

    /// Replaces the resource control (budget, deadline, per-call timeout
    /// and cancellation tokens).
    pub fn with_ctl(mut self, ctl: ResourceCtl) -> Self {
        self.ctl = ctl;
        self
    }

    /// Replaces only the deterministic budget, keeping any deadline or
    /// cancellation token of the current control.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.ctl = self.ctl.with_budget(budget);
        self
    }

    /// Enables or disables clausal (DRAT) proof logging. Applying a
    /// logging configuration to a solver that is already logging keeps
    /// the existing buffer; applying a non-logging one discards it.
    pub fn with_proof_logging(mut self, on: bool) -> Self {
        self.proof_logging = on;
        self
    }

    /// Enables the between-solves inprocessing pass with the given knobs
    /// (see [`InprocessConfig`]). Off by default.
    pub fn with_inprocessing(mut self, cfg: InprocessConfig) -> Self {
        self.inprocess = Some(cfg);
        self
    }

    /// Disables inprocessing (the default).
    pub fn without_inprocessing(mut self) -> Self {
        self.inprocess = None;
        self
    }

    /// Attaches a portfolio clause-sharing lane (see
    /// [`ShareRing`](crate::ShareRing)). Off by default.
    pub fn with_share(mut self, handle: ShareHandle) -> Self {
        self.share = Some(handle);
        self
    }

    /// The resource control.
    pub fn ctl(&self) -> &ResourceCtl {
        &self.ctl
    }

    /// Whether proof logging is requested.
    pub fn proof_logging(&self) -> bool {
        self.proof_logging
    }

    /// The inprocessing knobs, if inprocessing is enabled.
    pub fn inprocess(&self) -> Option<&InprocessConfig> {
        self.inprocess.as_ref()
    }

    /// The clause-sharing lane, if sharing is enabled.
    pub fn share(&self) -> Option<&ShareHandle> {
        self.share.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_knobs() {
        let cfg = SolverConfig::new()
            .with_budget(Budget::unlimited().with_conflicts(7))
            .with_proof_logging(true)
            .with_inprocessing(InprocessConfig::default());
        assert_eq!(cfg.ctl().budget().max_conflicts(), Some(7));
        assert!(cfg.proof_logging());
        assert!(cfg.inprocess().is_some());
        assert!(cfg.share().is_none());
        let cfg = cfg.without_inprocessing();
        assert!(cfg.inprocess().is_none());
    }

    #[test]
    fn with_budget_preserves_the_rest_of_the_control() {
        let ctl = ResourceCtl::unlimited().with_timeout(std::time::Duration::from_secs(3600));
        let cfg = SolverConfig::new()
            .with_ctl(ctl)
            .with_budget(Budget::unlimited().with_conflicts(3));
        assert!(cfg.ctl().deadline().is_some(), "deadline survives");
        assert_eq!(cfg.ctl().budget().max_conflicts(), Some(3));
    }
}
