//! Two-level logic minimisation, gate-level netlists and area/delay
//! estimation.
//!
//! This crate is the logic-synthesis substrate of the `stc` workspace: after
//! `stc-synth` has produced a pipeline realization at the FSM level and
//! `stc-encoding` has assigned binary codes, this crate turns the encoded
//! transition tables into minimised two-level covers and gate-level netlists
//! whose area (gates, literals), delay (levels) and testability (stuck-at
//! fault sites) can be measured by `stc-bist`.
//!
//! * [`Cube`], [`Cover`] — product terms as positional cubes (two `u64`
//!   masks, up to [`MAX_VARS`] = 64 variables) and sums of products with
//!   an Espresso-style EXPAND/IRREDUNDANT/REDUCE minimiser whose
//!   containment checks are unate-recursive tautology on a reused scratch
//!   stack;
//! * [`Netlist`] — two-level AND-OR netlists with evaluation (scalar,
//!   64-patterns-per-word packed, and a 256-pattern SIMD-wide sweep, all
//!   with fault injection), levelization, gate/literal counts and depth;
//! * [`synthesize_controller`], [`synthesize_pipeline`] — end-to-end logic
//!   synthesis of the monolithic (Fig. 1) and pipeline (Fig. 4) controller
//!   structures.
//!
//! The `Vec<Literal>` cube and minimiser the packed ones replaced are kept
//! as the hidden `reference` module: the specification the property tests,
//! `tests/minimizer_equivalence.rs` and the `logic/minimize/reference/*`
//! benches compare against, never called by the flow.  Both return the
//! same covers, cube for cube and in order (`DESIGN.md` §13).
//!
//! # Example
//!
//! ```
//! use stc_encoding::EncodedMachine;
//! use stc_fsm::paper_example;
//! use stc_logic::{synthesize_controller, SynthOptions};
//!
//! let machine = paper_example();
//! let encoded = EncodedMachine::new(&machine);
//! let logic = synthesize_controller(&encoded, SynthOptions::default());
//! assert_eq!(logic.block.netlist.num_inputs(), 3);  // 1 input + 2 state bits
//! assert!(logic.block.netlist.gate_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cover;
mod cube;
mod error;
mod netlist;
#[doc(hidden)]
pub mod reference;
mod synth;

pub use cover::Cover;
pub use cube::{Cube, Literal, MAX_VARS};
pub use error::LogicError;
pub use netlist::{Gate, Netlist, NodeId, WideWord, PACKED_LANES, PACKED_WORDS};
pub use synth::{
    synthesize_controller, synthesize_pipeline, ControllerLogic, PipelineLogic, SynthOptions,
    SynthesizedBlock,
};

#[cfg(test)]
mod proptests;
