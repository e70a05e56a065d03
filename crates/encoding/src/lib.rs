//! State assignment (encoding) for finite state machines and pipeline
//! realizations.
//!
//! After the FSM-level transformation of `stc-synth` produces a realization
//! supporting a self-testable structure, "state coding and logic minimization
//! are then applied to this realization" (section 1 of the paper).  This crate
//! performs the first of those two steps:
//!
//! * [`Encoding`] / [`EncodingStrategy`] — binary, Gray, one-hot and a greedy
//!   adjacency-based minimum-width assignment;
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
//! use stc_encoding::{EncodedMachine, EncodingStrategy};
//! use stc_fsm::paper_example;
//!
//! let machine = paper_example();
//! let encoded = EncodedMachine::new(&machine, EncodingStrategy::Binary);
//! assert_eq!(encoded.state_bits, 2);
//! assert_eq!(encoded.rows.len(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
mod encoded;

pub use code::{Encoding, EncodingStrategy};
pub use encoded::{EncodedMachine, EncodedPipeline, EncodedRow};

/// Minimum number of bits needed to give `items` symbols distinct codes:
/// `⌈log2(items)⌉`, with `min_width(0) = min_width(1) = 0`.
#[must_use]
pub fn min_width(items: usize) -> u32 {
    if items <= 1 {
        0
    } else {
        usize::BITS - (items - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_width_boundaries() {
        assert_eq!(min_width(0), 0);
        assert_eq!(min_width(1), 0);
        assert_eq!(min_width(2), 1);
        assert_eq!(min_width(3), 2);
        assert_eq!(min_width(4), 2);
        assert_eq!(min_width(5), 3);
        assert_eq!(min_width(16), 4);
        assert_eq!(min_width(17), 5);
    }
}
