//! Synthesis of self-testable controllers: the OSTR problem and its solver.
//!
//! This crate is the primary contribution of the `stc` workspace and
//! implements sections 2 and 3 of Hellebrand & Wunderlich, *Synthesis of
//! Self-Testable Controllers* (DATE 1994):
//!
//! * [`Cost`] — the OSTR objective (minimal total register bits, then
//!   balanced factor sizes);
//! * [`OstrSolver`] / [`solve`] — the depth-first search over the Mm-lattice
//!   skeleton with the Lemma 1 pruning, returning the best symmetric
//!   partition pair `(π, τ)` with `π ∩ τ ⊆ ε` together with search
//!   statistics ([`SearchStats`], the data behind Table 2 of the paper);
//! * [`Realization`] — the Theorem 1 construction turning such a pair into a
//!   pipeline machine `M*` over `S/π × S/τ` with factor tables `δ1`, `δ2`
//!   and output table `λ*`, plus verification that `M*` realizes the
//!   specification in the sense of Definition 3;
//! * [`solve_naive`] — a brute-force reference solver used to cross-validate
//!   the lattice search on small machines.
//!
//! # Example: the paper's worked example (Figs. 5–8)
//!
//! ```
//! use stc_fsm::paper_example;
//! use stc_synth::solve;
//!
//! let machine = paper_example();
//! let outcome = solve(&machine);
//! assert_eq!(outcome.pipeline_flipflops(), 2); // one flip-flop per register
//!
//! let realization = outcome.best.realize(&machine);
//! assert_eq!(realization.s1_len(), 2);
//! assert_eq!(realization.s2_len(), 2);
//! assert!(realization.verify(&machine).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod engine;
mod error;
mod naive;
mod observe;
mod realization;
mod solver;

pub use cost::Cost;
pub use error::SynthError;
pub use naive::{solve_naive, NaiveStats, NAIVE_STATE_LIMIT};
pub use observe::{NullSearchObserver, SearchObserver, PROGRESS_INTERVAL};
pub use realization::{FactorTables, Realization, RealizationViolation};
pub use solver::{
    solve, OstrOutcome, OstrSolution, OstrSolver, PreparedOstr, SearchStats, SolverConfig,
};

#[cfg(test)]
mod proptests;
