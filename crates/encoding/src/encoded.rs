//! Encoded (bit-level) views of machines and pipeline realizations.
//!
//! Logic synthesis works on Boolean functions, so the symbolic machines of
//! `stc-fsm` and the factor tables of `stc-synth` are first lowered to
//! bit-level truth tables: every (present-state code, input code) pair maps to
//! a (next-state code, output code) pair.  [`EncodedMachine`] does this for a
//! monolithic controller (Fig. 1 of the paper); [`EncodedPipeline`] does it
//! for the two factor blocks `C1`, `C2` and the output logic of the
//! self-testable structure (Fig. 4).

use crate::bits;
use stc_fsm::{ceil_log2, Mealy};
use stc_synth::Realization;

/// One row of an encoded transition table: fully specified input bits mapping
/// to fully specified output bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedRow {
    /// Input bits (most significant first): primary inputs followed by the
    /// present-state code.
    pub inputs: Vec<bool>,
    /// Output bits (most significant first): next-state code followed by the
    /// primary-output code.
    pub outputs: Vec<bool>,
}

/// A bit-level view of a monolithic controller: the combinational function
/// `C : (inputs, state) → (next state, outputs)` of Fig. 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedMachine {
    /// Machine name.
    pub name: String,
    /// Number of primary-input bits.
    pub input_bits: u32,
    /// Number of state bits (flip-flops of register `R`).
    pub state_bits: u32,
    /// Number of primary-output bits.
    pub output_bits: u32,
    /// One row per (state, input symbol) pair.
    pub rows: Vec<EncodedRow>,
}

impl EncodedMachine {
    /// Encodes `machine`: states, inputs and outputs get the minimum-width
    /// binary codes of their indices.
    #[must_use]
    pub fn new(machine: &Mealy) -> Self {
        let (input_bits, state_bits, output_bits) = (
            machine.input_bits(),
            machine.state_bits(),
            machine.output_bits(),
        );
        let rows = machine
            .transitions()
            .map(|(s, i, next, out)| {
                let mut inputs = bits(i, input_bits);
                inputs.extend(bits(s, state_bits));
                let mut outputs = bits(next, state_bits);
                outputs.extend(bits(out, output_bits));
                EncodedRow { inputs, outputs }
            })
            .collect();
        Self {
            name: machine.name().to_string(),
            input_bits,
            state_bits,
            output_bits,
            rows,
        }
    }

    /// Number of input bits of the combinational block `C`
    /// (primary inputs + state bits).
    #[must_use]
    pub fn combinational_inputs(&self) -> u32 {
        self.input_bits + self.state_bits
    }

    /// Number of output bits of the combinational block `C`
    /// (next-state bits + primary outputs).
    #[must_use]
    pub fn combinational_outputs(&self) -> u32 {
        self.state_bits + self.output_bits
    }
}

/// A bit-level view of a pipeline realization: the two combinational blocks
/// `C1 : (inputs, R1) → R2` and `C2 : (inputs, R2) → R1` plus the output
/// logic `λ : (inputs, R1, R2) → outputs` of Fig. 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedPipeline {
    /// Machine name.
    pub name: String,
    /// Number of primary-input bits.
    pub input_bits: u32,
    /// Register `R1` width (`⌈log2 |S1|⌉`, at least 1).
    pub r1_bits: u32,
    /// Register `R2` width (`⌈log2 |S2|⌉`, at least 1).
    pub r2_bits: u32,
    /// Number of primary-output bits.
    pub output_bits: u32,
    /// Rows of `C1`: inputs are (primary inputs, R1), outputs are R2.
    pub c1_rows: Vec<EncodedRow>,
    /// Rows of `C2`: inputs are (primary inputs, R2), outputs are R1.
    pub c2_rows: Vec<EncodedRow>,
    /// Rows of the output logic: inputs are (primary inputs, R1, R2), outputs
    /// are the primary outputs.  Product states with empty block intersection
    /// are omitted (their output is a don't-care realized as the default).
    pub output_rows: Vec<EncodedRow>,
}

impl EncodedPipeline {
    /// Encodes a pipeline realization.
    ///
    /// `R1` holds the binary code of an `S/π` block index and `R2` that of
    /// an `S/τ` block index; registers are at least one bit wide so that
    /// degenerate single-block factors still have a physical register to
    /// test.
    #[must_use]
    pub fn new(machine: &Mealy, realization: &Realization) -> Self {
        let input_bits = machine.input_bits();
        let output_bits = machine.output_bits();
        let (s1, s2) = (realization.s1_len(), realization.s2_len());
        let r1_bits = ceil_log2(s1).max(1);
        let r2_bits = ceil_log2(s2).max(1);
        let k = machine.num_inputs();
        let tables = &realization.tables;
        let row = |i: usize, registers: &[(usize, u32)], outputs: Vec<bool>| {
            let mut inputs = bits(i, input_bits);
            for &(block, width) in registers {
                inputs.extend(bits(block, width));
            }
            EncodedRow { inputs, outputs }
        };

        let mut c1_rows = Vec::with_capacity(s1 * k);
        for b1 in 0..s1 {
            for i in 0..k {
                c1_rows.push(row(
                    i,
                    &[(b1, r1_bits)],
                    bits(tables.delta1[b1][i], r2_bits),
                ));
            }
        }
        let mut c2_rows = Vec::with_capacity(s2 * k);
        for b2 in 0..s2 {
            for i in 0..k {
                c2_rows.push(row(
                    i,
                    &[(b2, r2_bits)],
                    bits(tables.delta2[b2][i], r1_bits),
                ));
            }
        }
        let mut output_rows = Vec::new();
        for b1 in 0..s1 {
            for b2 in 0..s2 {
                for i in 0..k {
                    if let Some(out) = tables.lambda(b1, b2, i) {
                        let registers = [(b1, r1_bits), (b2, r2_bits)];
                        output_rows.push(row(i, &registers, bits(out, output_bits)));
                    }
                }
            }
        }
        Self {
            name: machine.name().to_string(),
            input_bits,
            r1_bits,
            r2_bits,
            output_bits,
            c1_rows,
            c2_rows,
            output_rows,
        }
    }

    /// Total register bits of the pipeline structure (`R1` + `R2`).
    #[must_use]
    pub fn register_bits(&self) -> u32 {
        self.r1_bits + self.r2_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_fsm::paper_example;
    use stc_synth::solve;

    #[test]
    fn encoded_machine_has_one_row_per_transition() {
        let m = paper_example();
        let e = EncodedMachine::new(&m);
        assert_eq!(e.rows.len(), 8);
        assert_eq!(e.input_bits, 1);
        assert_eq!(e.state_bits, 2);
        assert_eq!(e.output_bits, 1);
        assert_eq!(e.combinational_inputs(), 3);
        assert_eq!(e.combinational_outputs(), 3);
        for row in &e.rows {
            assert_eq!(row.inputs.len(), 3);
            assert_eq!(row.outputs.len(), 3);
        }
    }

    #[test]
    fn encoded_machine_rows_match_the_transition_table() {
        let m = paper_example();
        let e = EncodedMachine::new(&m);
        // Row for (state 3, input 1): next = 1, output = 1.
        let row = &e.rows[3 * 2 + 1];
        assert_eq!(row.inputs, vec![true, true, true]); // input 1, state code 11
        assert_eq!(row.outputs, vec![false, true, true]); // next 01, output 1
    }

    #[test]
    fn encoded_pipeline_matches_the_realization_tables() {
        let m = paper_example();
        let outcome = solve(&m);
        let r = outcome.best.realize(&m);
        let e = EncodedPipeline::new(&m, &r);
        assert_eq!(e.r1_bits, 1);
        assert_eq!(e.r2_bits, 1);
        assert_eq!(e.register_bits(), 2);
        assert_eq!(e.c1_rows.len(), r.s1_len() * m.num_inputs());
        assert_eq!(e.c2_rows.len(), r.s2_len() * m.num_inputs());
        // Every output row corresponds to a non-empty block intersection.
        assert_eq!(e.output_rows.len(), 8);
        for row in &e.c1_rows {
            assert_eq!(row.inputs.len() as u32, e.input_bits + e.r1_bits);
            assert_eq!(row.outputs.len() as u32, e.r2_bits);
        }
    }

    #[test]
    fn single_block_factors_still_get_a_register_bit() {
        // A machine whose best decomposition collapses one side to a single
        // block (universal partition) must still produce a 1-bit register.
        let mut b = stc_fsm::Mealy::builder("const", 2, 1, 2);
        b.transition(0, 0, 0, 0).unwrap();
        b.transition(1, 0, 0, 1).unwrap();
        let m = b.build().unwrap();
        let outcome = solve(&m);
        let r = outcome.best.realize(&m);
        let e = EncodedPipeline::new(&m, &r);
        assert!(e.r1_bits >= 1);
        assert!(e.r2_bits >= 1);
    }
}
