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
//! * [`Cube`], [`Cover`] — product terms and sums of products with an
//!   Espresso-style EXPAND/IRREDUNDANT/REDUCE minimiser;
//! * [`Netlist`] — two-level AND-OR netlists with evaluation (scalar,
//!   64-patterns-per-word packed, and a 256-pattern SIMD-wide sweep, all
//!   with fault injection), levelization, gate/literal counts and depth;
//! * [`synthesize_controller`], [`synthesize_pipeline`] — end-to-end logic
//!   synthesis of the monolithic (Fig. 1) and pipeline (Fig. 4) controller
//!   structures.
//!
//! # Example
//!
//! ```
//! use stc_encoding::{EncodedMachine, EncodingStrategy};
//! use stc_fsm::paper_example;
//! use stc_logic::{synthesize_controller, SynthOptions};
//!
//! let machine = paper_example();
//! let encoded = EncodedMachine::new(&machine, EncodingStrategy::Binary);
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
mod synth;

pub use cover::Cover;
pub use cube::{Cube, Literal};
pub use error::LogicError;
pub use netlist::{Gate, Netlist, NodeId, WideWord, PACKED_LANES, PACKED_WORDS};
pub use synth::{
    synthesize_controller, synthesize_pipeline, ControllerLogic, PipelineLogic, SynthOptions,
    SynthesizedBlock,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_cover(num_vars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
        proptest::collection::vec(proptest::collection::vec(0u8..3, num_vars), 0..=max_cubes)
            .prop_map(move |cubes| {
                Cover::from_cubes(
                    num_vars,
                    cubes
                        .into_iter()
                        .map(|lits| {
                            Cube::from_literals(
                                lits.into_iter()
                                    .map(|l| match l {
                                        0 => Literal::Zero,
                                        1 => Literal::One,
                                        _ => Literal::DontCare,
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn minimization_preserves_the_function(cover in arb_cover(4, 6)) {
            let minimized = cover.minimized(&Cover::new(4));
            // The minimised cover must agree with the original on every
            // minterm (no don't-cares were provided, so exact equivalence).
            for m in 0u32..16 {
                let minterm: Vec<bool> = (0..4).rev().map(|b| (m >> b) & 1 == 1).collect();
                prop_assert_eq!(cover.evaluate(&minterm), minimized.evaluate(&minterm));
            }
            prop_assert!(minimized.len() <= cover.len().max(1));
        }

        #[test]
        fn minimization_with_dont_cares_covers_the_on_set(on in arb_cover(4, 5), dc in arb_cover(4, 3)) {
            let minimized = on.minimized(&dc);
            for m in 0u32..16 {
                let minterm: Vec<bool> = (0..4).rev().map(|b| (m >> b) & 1 == 1).collect();
                if on.evaluate(&minterm) {
                    prop_assert!(minimized.evaluate(&minterm), "ON minterm lost");
                }
                if minimized.evaluate(&minterm) {
                    prop_assert!(on.evaluate(&minterm) || dc.evaluate(&minterm),
                        "minimised cover strayed outside ON ∪ DC");
                }
            }
        }

        #[test]
        fn netlists_implement_their_covers(cover in arb_cover(5, 6)) {
            let netlist = Netlist::from_covers(5, std::slice::from_ref(&cover));
            for m in 0u32..32 {
                let minterm: Vec<bool> = (0..5).rev().map(|b| (m >> b) & 1 == 1).collect();
                prop_assert_eq!(netlist.evaluate(&minterm)[0], cover.evaluate(&minterm));
            }
        }

        #[test]
        fn cover_equivalence_is_reflexive_and_symmetric(a in arb_cover(3, 4), b in arb_cover(3, 4)) {
            prop_assert!(a.equivalent(&a));
            prop_assert_eq!(a.equivalent(&b), b.equivalent(&a));
        }

        #[test]
        fn wide_evaluation_is_packed_words_narrow_sweeps(
            covers in proptest::collection::vec(arb_cover(5, 5), 1..=3),
            flat_words in proptest::collection::vec(any::<u64>(), 20..=20),
            fault_site in 0usize..64,
            stuck in any::<bool>(),
        ) {
            let wide_inputs: Vec<WideWord> = flat_words
                .chunks_exact(PACKED_WORDS)
                .map(|c| [c[0], c[1], c[2], c[3]])
                .collect();
            let netlist = Netlist::from_covers(5, &covers);
            let fault = (fault_site < netlist.gates().len()).then_some((fault_site, stuck));
            let mut wide = Vec::new();
            netlist.eval_packed_wide_into(&wide_inputs, fault, &mut wide);
            prop_assert_eq!(wide.len(), netlist.gates().len());
            let mut narrow = Vec::new();
            for w in 0..PACKED_WORDS {
                let words: Vec<u64> = wide_inputs.iter().map(|g| g[w]).collect();
                netlist.eval_packed_into(&words, fault, &mut narrow);
                for (id, group) in wide.iter().enumerate() {
                    prop_assert_eq!(
                        group[w], narrow[id],
                        "node {} word {} fault {:?}", id, w, fault
                    );
                }
            }
        }

        #[test]
        fn packed_evaluation_is_64_scalar_evaluations(
            covers in proptest::collection::vec(arb_cover(5, 5), 1..=3),
            words in proptest::collection::vec(any::<u64>(), 5..=5),
            fault_site in 0usize..64,
            stuck in any::<bool>(),
        ) {
            let netlist = Netlist::from_covers(5, &covers);
            let fault = (fault_site < netlist.gates().len()).then_some((fault_site, stuck));
            let packed = netlist.eval_packed_with_fault(&words, fault);
            prop_assert_eq!(packed.len(), netlist.num_outputs());
            for lane in 0..PACKED_LANES {
                let scalar_inputs: Vec<bool> =
                    words.iter().map(|w| (w >> lane) & 1 == 1).collect();
                let scalar = netlist.evaluate_with_fault(&scalar_inputs, fault);
                for (o, word) in packed.iter().enumerate() {
                    prop_assert_eq!(
                        (word >> lane) & 1 == 1,
                        scalar[o],
                        "output {} lane {} fault {:?}", o, lane, fault
                    );
                }
            }
        }
    }
}
