//! Logic synthesis of controllers: from encoded machines / pipelines to
//! minimised covers and gate-level netlists.

use crate::cover::Cover;
use crate::cube::Cube;
use crate::netlist::Netlist;
use stc_encoding::{EncodedMachine, EncodedPipeline, EncodedRow};

/// Options controlling logic synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthOptions {
    /// Run the two-level minimiser on every output cover.  Disable for very
    /// large machines where the raw minterm covers are good enough for the
    /// structural comparison (the relative area ordering is preserved).
    pub minimize: bool,
    /// Skip minimisation of a block whose output ON-sets hold more than this
    /// many cubes in total, summed over the block's output bits (one cube
    /// per row and per output bit that is 1 in it).  This is not the row
    /// count: a 384-row block with three output bits holds up to 1152 such
    /// cubes, so it can be skipped although it has fewer than 400 rows.
    /// The minimiser's cost grows faster than linearly in this count: each
    /// EXPAND step is a containment query against all of ON ∪ DC.
    pub minimize_row_limit: usize,
}

impl Default for SynthOptions {
    fn default() -> Self {
        Self {
            minimize: true,
            minimize_row_limit: 400,
        }
    }
}

/// A synthesised combinational block: one minimised cover per output bit plus
/// the two-level netlist implementing them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesizedBlock {
    /// Human-readable block name (`C`, `C1`, `C2`, `lambda`, …).
    pub name: String,
    /// Number of input bits of the block.
    pub num_inputs: usize,
    /// One cover per output bit.
    pub covers: Vec<Cover>,
    /// The gate-level implementation.
    pub netlist: Netlist,
}

impl SynthesizedBlock {
    /// Builds a block from explicit per-output ON-sets and a shared
    /// don't-care set.
    #[must_use]
    pub fn from_covers(
        name: impl Into<String>,
        num_inputs: usize,
        on_sets: Vec<Cover>,
        dont_care: &Cover,
        options: SynthOptions,
    ) -> Self {
        Self::from_covers_with(
            name,
            num_inputs,
            on_sets,
            dont_care,
            options,
            Cover::minimized,
        )
    }

    fn from_covers_with(
        name: impl Into<String>,
        num_inputs: usize,
        on_sets: Vec<Cover>,
        dont_care: &Cover,
        options: SynthOptions,
        minimize: MinimizeFn,
    ) -> Self {
        let total_rows: usize = on_sets.iter().map(Cover::len).sum();
        let do_minimize = options.minimize && total_rows <= options.minimize_row_limit;
        let covers: Vec<Cover> = on_sets
            .into_iter()
            .map(|c| {
                if do_minimize {
                    minimize(&c, dont_care)
                } else {
                    c
                }
            })
            .collect();
        let netlist = Netlist::from_covers(num_inputs, &covers);
        Self {
            name: name.into(),
            num_inputs,
            covers,
            netlist,
        }
    }

    /// Total literal count of the covers (two-level area proxy).
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.covers.iter().map(Cover::literal_count).sum()
    }

    /// Total cube (product term) count.
    #[must_use]
    pub fn cube_count(&self) -> usize {
        self.covers.iter().map(Cover::len).sum()
    }
}

/// The synthesised logic of a monolithic controller (Fig. 1): a single block
/// `C : (inputs, state) → (next state, outputs)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerLogic {
    /// The combinational block `C`.
    pub block: SynthesizedBlock,
    /// Number of primary-input bits.
    pub input_bits: u32,
    /// Number of state bits (flip-flops).
    pub state_bits: u32,
    /// Number of primary-output bits.
    pub output_bits: u32,
}

/// The synthesised logic of a pipeline controller (Fig. 4): the two crossed
/// blocks `C1`, `C2` and the output logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineLogic {
    /// `C1 : (inputs, R1) → R2`.
    pub c1: SynthesizedBlock,
    /// `C2 : (inputs, R2) → R1`.
    pub c2: SynthesizedBlock,
    /// Output logic `λ : (inputs, R1, R2) → outputs`.
    pub output: SynthesizedBlock,
    /// Number of primary-input bits.
    pub input_bits: u32,
    /// Register `R1` width.
    pub r1_bits: u32,
    /// Register `R2` width.
    pub r2_bits: u32,
    /// Number of primary-output bits.
    pub output_bits: u32,
}

impl PipelineLogic {
    /// Total literal count of all three blocks.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.c1.literal_count() + self.c2.literal_count() + self.output.literal_count()
    }

    /// Total gate count of all three blocks.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.c1.netlist.gate_count()
            + self.c2.netlist.gate_count()
            + self.output.netlist.gate_count()
    }

    /// Total flip-flop count (`R1` + `R2`).
    #[must_use]
    pub fn flipflops(&self) -> u32 {
        self.r1_bits + self.r2_bits
    }
}

/// Converts encoded rows into per-output-bit ON-set covers.
fn on_sets_from_rows(rows: &[EncodedRow], num_inputs: usize, num_outputs: usize) -> Vec<Cover> {
    let mut on_sets = vec![Cover::new(num_inputs); num_outputs];
    for row in rows {
        debug_assert_eq!(row.inputs.len(), num_inputs);
        debug_assert_eq!(row.outputs.len(), num_outputs);
        let cube = Cube::from_minterm(&row.inputs);
        for (bit, &value) in row.outputs.iter().enumerate() {
            if value {
                on_sets[bit].push(cube);
            }
        }
    }
    on_sets
}

/// Builds the don't-care cover of a block: every input minterm that does not
/// appear in any row (unused state/input codes, unreachable block pairs).
/// Enumerated only when the input space is small enough; otherwise an empty
/// (conservative) DC set is used.
fn dont_care_from_rows(rows: &[EncodedRow], num_inputs: usize) -> Cover {
    const MAX_ENUMERATED_SPACE: u32 = 12;
    if num_inputs as u32 > MAX_ENUMERATED_SPACE {
        return Cover::new(num_inputs);
    }
    let mut used = vec![false; 1usize << num_inputs];
    for row in rows {
        let idx = row
            .inputs
            .iter()
            .fold(0usize, |acc, &b| (acc << 1) | usize::from(b));
        used[idx] = true;
    }
    let mut dc = Cover::new(num_inputs);
    for (idx, &u) in used.iter().enumerate() {
        if !u {
            let bits: Vec<bool> = (0..num_inputs).rev().map(|b| (idx >> b) & 1 == 1).collect();
            dc.push(Cube::from_minterm(&bits));
        }
    }
    dc
}

/// Synthesises the combinational block of a monolithic controller.
#[must_use]
pub fn synthesize_controller(encoded: &EncodedMachine, options: SynthOptions) -> ControllerLogic {
    let num_inputs = encoded.combinational_inputs() as usize;
    let num_outputs = encoded.combinational_outputs() as usize;
    let on_sets = on_sets_from_rows(&encoded.rows, num_inputs, num_outputs);
    let dc = dont_care_from_rows(&encoded.rows, num_inputs);
    let block = SynthesizedBlock::from_covers("C", num_inputs, on_sets, &dc, options);
    ControllerLogic {
        block,
        input_bits: encoded.input_bits,
        state_bits: encoded.state_bits,
        output_bits: encoded.output_bits,
    }
}

/// A two-level minimiser: `(ON-set, DC-set) → cover`.
pub(crate) type MinimizeFn = fn(&Cover, &Cover) -> Cover;

/// Synthesises the three blocks of a pipeline controller.
#[must_use]
pub fn synthesize_pipeline(encoded: &EncodedPipeline, options: SynthOptions) -> PipelineLogic {
    pipeline_with(encoded, options, Cover::minimized)
}

/// [`synthesize_pipeline`] with the given minimiser.
pub(crate) fn pipeline_with(
    encoded: &EncodedPipeline,
    options: SynthOptions,
    minimize: MinimizeFn,
) -> PipelineLogic {
    let c1_inputs = (encoded.input_bits + encoded.r1_bits) as usize;
    let c2_inputs = (encoded.input_bits + encoded.r2_bits) as usize;
    let out_inputs = (encoded.input_bits + encoded.r1_bits + encoded.r2_bits) as usize;

    let c1_on = on_sets_from_rows(&encoded.c1_rows, c1_inputs, encoded.r2_bits as usize);
    let c1_dc = dont_care_from_rows(&encoded.c1_rows, c1_inputs);
    let c1 = SynthesizedBlock::from_covers_with("C1", c1_inputs, c1_on, &c1_dc, options, minimize);

    let c2_on = on_sets_from_rows(&encoded.c2_rows, c2_inputs, encoded.r1_bits as usize);
    let c2_dc = dont_care_from_rows(&encoded.c2_rows, c2_inputs);
    let c2 = SynthesizedBlock::from_covers_with("C2", c2_inputs, c2_on, &c2_dc, options, minimize);

    let out_on = on_sets_from_rows(
        &encoded.output_rows,
        out_inputs,
        encoded.output_bits as usize,
    );
    let out_dc = dont_care_from_rows(&encoded.output_rows, out_inputs);
    let output = SynthesizedBlock::from_covers_with(
        "lambda", out_inputs, out_on, &out_dc, options, minimize,
    );

    PipelineLogic {
        c1,
        c2,
        output,
        input_bits: encoded.input_bits,
        r1_bits: encoded.r1_bits,
        r2_bits: encoded.r2_bits,
        output_bits: encoded.output_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_encoding::{bits, EncodedMachine, EncodedPipeline};
    use stc_fsm::paper_example;
    use stc_synth::solve;

    fn encoded_example() -> EncodedMachine {
        EncodedMachine::new(&paper_example())
    }

    #[test]
    fn controller_logic_implements_the_transition_table() {
        let m = paper_example();
        let encoded = encoded_example();
        let logic = synthesize_controller(&encoded, SynthOptions::default());
        assert_eq!(logic.block.netlist.num_inputs(), 3);
        assert_eq!(logic.block.netlist.num_outputs(), 3);
        // Check every (state, input) pair against the machine.
        for s in 0..m.num_states() {
            for i in 0..m.num_inputs() {
                let mut inputs = bits(i, encoded.input_bits);
                inputs.extend(bits(s, encoded.state_bits));
                let out = logic.block.netlist.evaluate(&inputs);
                let next_bits = bits(m.next_state(s, i), encoded.state_bits);
                let out_bits = bits(m.output(s, i), encoded.output_bits);
                let expected: Vec<bool> = next_bits.into_iter().chain(out_bits).collect();
                assert_eq!(out, expected, "state {s} input {i}");
            }
        }
    }

    #[test]
    fn minimization_reduces_or_preserves_literals() {
        let encoded = encoded_example();
        let raw = synthesize_controller(
            &encoded,
            SynthOptions {
                minimize: false,
                ..SynthOptions::default()
            },
        );
        let min = synthesize_controller(&encoded, SynthOptions::default());
        assert!(min.block.literal_count() <= raw.block.literal_count());
        assert!(min.block.cube_count() <= raw.block.cube_count());
    }

    #[test]
    fn pipeline_logic_implements_the_factor_tables() {
        let m = paper_example();
        let outcome = solve(&m);
        let realization = outcome.best.realize(&m);
        let encoded = EncodedPipeline::new(&m, &realization);
        let logic = synthesize_pipeline(&encoded, SynthOptions::default());
        // C1 must compute δ1 for every (input, R1) combination that encodes a
        // real block.
        for b1 in 0..realization.s1_len() {
            for i in 0..m.num_inputs() {
                let mut inputs = vec![i & 1 == 1]; // 1 input bit for the example
                inputs.extend(bits(b1, encoded.r1_bits));
                let got = logic.c1.netlist.evaluate(&inputs);
                let expected = bits(realization.tables.delta1[b1][i], encoded.r2_bits);
                assert_eq!(got, expected, "C1 block {b1} input {i}");
            }
        }
        assert!(logic.flipflops() >= 2);
        assert!(logic.literal_count() > 0);
    }

    #[test]
    fn pipeline_blocks_are_smaller_than_the_doubled_controller() {
        // The paper's area argument: C1 + C2 implement fewer transitions than
        // two copies of C.  Compare literal counts on the worked example.
        let m = paper_example();
        let encoded_single = EncodedMachine::new(&m);
        let single = synthesize_controller(&encoded_single, SynthOptions::default());
        let outcome = solve(&m);
        let realization = outcome.best.realize(&m);
        let encoded_pipe = EncodedPipeline::new(&m, &realization);
        let pipeline = synthesize_pipeline(&encoded_pipe, SynthOptions::default());
        // Doubling C (Fig. 3) costs twice the single-copy next-state logic.
        let doubled_literals = 2 * single.block.literal_count();
        assert!(
            pipeline.c1.literal_count() + pipeline.c2.literal_count() <= doubled_literals,
            "pipeline next-state logic should not exceed the doubled controller"
        );
    }

    /// tbk's blocks are over the row limit, so the flow never minimises
    /// them; lifted, they are the largest minimiser inputs of the embedded
    /// suite.  The reference takes about half a minute in release, so this
    /// runs in the nightly workflow (`cargo test --release -p stc-logic --
    /// --ignored`).
    #[test]
    #[ignore = "the reference minimiser takes ~30 s on tbk; run with --ignored"]
    fn tbk_with_the_row_limit_lifted_matches_the_reference() {
        let m = stc_fsm::benchmarks::by_name("tbk")
            .expect("tbk is embedded")
            .machine;
        let realization = solve(&m).best.realize(&m);
        let encoded = EncodedPipeline::new(&m, &realization);
        let options = SynthOptions {
            minimize: true,
            minimize_row_limit: usize::MAX,
        };
        let packed = synthesize_pipeline(&encoded, options);
        let spec = crate::reference::synthesize_pipeline(&encoded, options);
        for (p, r) in [
            (&packed.c1, &spec.c1),
            (&packed.c2, &spec.c2),
            (&packed.output, &spec.output),
        ] {
            assert_eq!(p.covers, r.covers, "block {}", p.name);
        }
        assert!(
            packed.c1.cube_count() < encoded.c1_rows.len(),
            "C1 was minimised"
        );
    }

    #[test]
    fn large_blocks_skip_minimization() {
        let encoded = encoded_example();
        let logic = synthesize_controller(
            &encoded,
            SynthOptions {
                minimize: true,
                minimize_row_limit: 0,
            },
        );
        // With the row limit at 0 the covers stay at one cube per ON minterm.
        assert!(logic.block.cube_count() >= 8);
    }
}
