//! Golden integration test: the paper's worked example (Figs. 5–8) must be
//! reproduced exactly by the full pipeline (parse/solve/realize/encode/
//! synthesise/self-test).

use stc::prelude::*;

#[test]
fn figs_5_to_8_are_reproduced() {
    let machine = stc::fsm::paper_example();

    // Fig. 6: the symmetric partition pair π = {{1,2},{3,4}}, τ = {{1,4},{2,3}}
    // (0-indexed: {{0,1},{2,3}} and {{0,3},{1,2}}).
    let pi = Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]]).unwrap();
    let tau = Partition::from_blocks(4, &[vec![0, 3], vec![1, 2]]).unwrap();
    assert!(is_symmetric_pair(&machine, &pi, &tau));
    assert!(pi.meet(&tau).unwrap().is_identity());

    // The solver finds a solution of the same (optimal) cost: 1 + 1 bits.
    let outcome = solve(&machine);
    assert_eq!(outcome.best.cost, Cost::new(2, 2));
    assert_eq!(outcome.pipeline_flipflops(), 2);

    // Fig. 7: the factor tables of the realization built from the published
    // pair (block 0 of π is [1]π = {1,2}, block 0 of τ is [1]τ = {1,4}).
    let realization = Realization::from_symmetric_pair(&machine, pi, tau).unwrap();
    assert_eq!(realization.tables.delta1, vec![vec![1, 0], vec![0, 1]]);
    assert_eq!(realization.tables.delta2, vec![vec![1, 0], vec![0, 1]]);

    // Fig. 8: the realization is a pipeline machine that realizes M.
    assert!(realization.verify(&machine).is_none());
    assert_eq!(realization.compose(&machine).num_states(), 4);

    // End-to-end: encode, synthesise logic, self-test.
    let encoded = EncodedPipeline::new(&machine, &realization);
    assert_eq!(encoded.register_bits(), 2);
    let pipeline = synthesize_pipeline(&encoded, SynthOptions::default());
    let result = pipeline_self_test(&pipeline, 64);
    assert!(result.overall_coverage() > 0.95);
}

/// Smoke test pinned to the acceptance criterion of the workspace bootstrap:
/// `solve(&paper_example())` must yield 2 pipeline flip-flops and a verifying
/// realization, end to end, with nothing but the public facade API.
#[test]
fn paper_example_smoke() {
    let machine = stc::fsm::paper_example();
    let outcome = solve(&machine);
    assert_eq!(outcome.pipeline_flipflops(), 2);
    assert!(!outcome.best.is_trivial());
    assert_eq!(outcome.best.cost.s1(), 2);
    assert_eq!(outcome.best.cost.s2(), 2);
    let realization = outcome.best.realize(&machine);
    assert!(realization.verify(&machine).is_none());
    // The realization is a genuine pipeline: its state set is S1 × S2 and it
    // reproduces the specification's output behaviour from the reset state.
    let composed = realization.compose(&machine);
    assert_eq!(
        composed.num_states(),
        outcome.best.cost.s1() * outcome.best.cost.s2()
    );
    let word = [0, 1, 1, 0, 1, 0, 0, 1];
    let (spec_out, _) = machine.run_from_reset(&word);
    let (real_out, _) = composed.run(realization.alpha_index(machine.reset_state()), &word);
    assert_eq!(spec_out, real_out);
}

#[test]
fn the_naive_and_lattice_solvers_agree_on_the_example() {
    let machine = stc::fsm::paper_example();
    let (naive, stats) = stc::synth::solve_naive(&machine);
    let lattice = solve(&machine);
    assert_eq!(naive.cost, lattice.best.cost);
    assert!(stats.solutions_found > 0);
}
