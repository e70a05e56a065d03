//! Bit-level views of finite state machines and pipeline realizations.
//!
//! After the FSM-level transformation of `stc-synth` produces a realization
//! supporting a self-testable structure, "state coding and logic minimization
//! are then applied to this realization" (section 1 of the paper).  This crate
//! performs the first of those two steps.  Every code is the minimum-width
//! binary code of an index ([`bits`]): the paper realizes the pipeline with
//! `⌈log2 |S1|⌉ + ⌈log2 |S2|⌉` flip-flops, and the registers `R1`/`R2` hold
//! block indices, which carry no adjacency for a state-assignment heuristic
//! to exploit.
//!
//! * [`EncodedMachine`] — the bit-level combinational function
//!   `C : (inputs, state) → (next state, outputs)` of a monolithic controller
//!   (Fig. 1);
//! * [`EncodedPipeline`] — the bit-level functions `C1`, `C2` and the output
//!   logic of the pipeline structure (Fig. 4).
//!
//! The encoded forms are consumed by `stc-logic` for two-level minimisation
//! and netlist generation.
//!
//! # Example
//!
//! ```
//! use stc_encoding::EncodedMachine;
//! use stc_fsm::paper_example;
//!
//! let machine = paper_example();
//! let encoded = EncodedMachine::new(&machine);
//! assert_eq!(encoded.state_bits, 2);
//! assert_eq!(encoded.rows.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoded;

pub use encoded::{EncodedMachine, EncodedPipeline, EncodedRow};

/// The binary code of `index` in exactly `width` bits, most significant bit
/// first: zero-padded on the left, and the high bits of `index` dropped when
/// it does not fit.  Code widths come from [`stc_fsm::ceil_log2`].
///
/// ```
/// use stc_encoding::bits;
///
/// assert_eq!(bits(5, 3), [true, false, true]);
/// assert_eq!(bits(1, 4), [false, false, false, true]);
/// assert!(bits(0, 0).is_empty());
/// assert_eq!(bits(usize::MAX, 66)[..3], [false, false, true]);
/// ```
#[must_use]
pub fn bits(index: usize, width: u32) -> Vec<bool> {
    (0..width)
        .rev()
        .map(|b| index.checked_shr(b).is_some_and(|v| v & 1 == 1))
        .collect()
}
