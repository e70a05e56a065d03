//! Mealy finite state machines, the KISS2 benchmark format, state equivalence
//! and the benchmark suite used by the self-testable-controller synthesis.
//!
//! This crate is the FSM substrate of the `stc` workspace, which reproduces
//! Hellebrand & Wunderlich, *Synthesis of Self-Testable Controllers*
//! (DATE 1994).  It provides:
//!
//! * [`Mealy`] / [`MealyBuilder`] — fully specified Mealy machines
//!   (Definition 1 of the paper) with symbolic state/input/output names;
//! * [`kiss2`] — reading and writing the KISS2 format used by the MCNC/IWLS
//!   benchmark distributions;
//! * [`state_equivalence`], [`minimize`] — the state-equivalence partition `ε`
//!   and machine reduction, needed by the `π ∩ τ ⊆ ε` condition of Theorem 1;
//! * [`reachable_states`], [`restrict_to_reachable`], [`stats`] — structural
//!   analyses;
//! * [`PipelineFactors`], [`crossed_product`] — composing factor machines into
//!   pipeline-structured products (Definition 2 structure);
//! * [`random_machine`], [`planted_decomposable`] — deterministic generation
//!   of random and decomposition-planted machines;
//! * [`benchmarks`] — the embedded 13-machine benchmark suite mirroring
//!   Table 1 / Table 2 of the paper.
//!
//! # Example
//!
//! ```
//! use stc_fsm::{kiss2, state_equivalence};
//!
//! let toggle = "\
//! .i 1
//! .o 1
//! .s 2
//! .r a
//! 0 a a 0
//! 1 a b 0
//! 0 b b 1
//! 1 b a 1
//! .e
//! ";
//! let machine = kiss2::parse(toggle, "toggle")?;
//! assert_eq!(machine.num_states(), 2);
//! assert!(state_equivalence(&machine).is_identity());
//! # Ok::<(), stc_fsm::FsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod benchmarks;
mod equivalence;
mod error;
pub mod kiss2;
mod machine;
mod product;
mod random;

pub use analysis::{
    is_strongly_reachable, reachable_states, restrict_to_reachable, stats, MachineStats,
};
pub use benchmarks::Benchmark;
pub use equivalence::{is_reduced, minimize, quotient, state_equivalence, states_equivalent};
pub use error::FsmError;
pub use machine::{ceil_log2, fnv1a, paper_example, Mealy, MealyBuilder};
pub use product::{crossed_product, PipelineFactors};
pub use random::{planted_decomposable, random_machine, PlantedInfo, PlantedSpec};

#[cfg(test)]
mod proptests;
