//! Cross-crate property tests: every machine, random or decomposable, must
//! survive the full synthesis pipeline with behaviour preserved.

use proptest::prelude::*;
use stc::encoding::bits;
use stc::fsm::{crossed_product, random_machine};
use stc::prelude::*;

fn arb_machine() -> impl Strategy<Value = Mealy> {
    (2usize..8, 1usize..5, 1usize..4, any::<u64>())
        .prop_map(|(s, i, o, seed)| random_machine("prop_e2e", s, i, o, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synthesis_preserves_behaviour_end_to_end(machine in arb_machine(), word in proptest::collection::vec(0usize..5, 0..24)) {
        let word: Vec<usize> = word.into_iter().map(|i| i % machine.num_inputs()).collect();
        let outcome = solve(&machine);
        let realization = outcome.best.realize(&machine);
        prop_assert!(realization.verify(&machine).is_none());
        let (spec, _) = machine.run_from_reset(&word);
        let (real, _) = realization.compose(&machine).run(realization.alpha_index(machine.reset_state()), &word);
        prop_assert_eq!(spec, real);
    }

    #[test]
    fn synthesised_monolithic_logic_matches_the_machine(machine in arb_machine()) {
        let encoded = EncodedMachine::new(&machine);
        let logic = synthesize_controller(&encoded, SynthOptions::default());
        for s in 0..machine.num_states() {
            for i in 0..machine.num_inputs() {
                let mut inputs = bits(i, encoded.input_bits);
                inputs.extend(bits(s, encoded.state_bits));
                let got = logic.block.netlist.evaluate(&inputs);
                let mut expected = bits(machine.next_state(s, i), encoded.state_bits);
                expected.extend(bits(machine.output(s, i), encoded.output_bits));
                prop_assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn crossed_products_always_get_cheap_realizations(a_seed in any::<u64>(), b_seed in any::<u64>()) {
        let a = random_machine("a", 2, 2, 2, a_seed);
        let b = random_machine("b", 2, 2, 2, b_seed);
        let product = crossed_product(&a, &b).unwrap();
        let outcome = solve(&product);
        prop_assert!(outcome.pipeline_flipflops() <= 2);
        let realization = outcome.best.realize(&product);
        prop_assert!(realization.verify(&product).is_none());
    }

    #[test]
    fn exhaustive_bist_detects_every_fault_of_small_controllers(machine in arb_machine()) {
        // For controllers with a small combinational input space, applying the
        // exhaustive pattern set must detect every single-stuck-at fault of
        // the two-level implementation (it is prime-irredundant enough for
        // full testability after minimisation is not guaranteed in general,
        // so we only require that the detected set equals what output
        // comparison can possibly detect, i.e. coverage is monotone in
        // observability).
        let encoded = EncodedMachine::new(&machine);
        let logic = synthesize_controller(&encoded, SynthOptions::default());
        let netlist = &logic.block.netlist;
        if netlist.num_inputs() > 8 {
            return Ok(());
        }
        let faults = stc::bist::fault_list(netlist);
        let patterns = stc::bist::exhaustive_patterns(netlist.num_inputs());
        let all = stc::bist::simulate_faults(netlist, &patterns, &faults, None);
        let restricted = stc::bist::simulate_faults(netlist, &patterns, &faults, Some(&[0]));
        prop_assert!(restricted.detected <= all.detected);
        prop_assert!(all.coverage() <= 1.0 + 1e-12);
    }
}
