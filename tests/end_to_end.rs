//! End-to-end integration tests: KISS2 text → OSTR synthesis → encoding →
//! logic synthesis → BIST, across the crate boundaries.

use stc::encoding::bits;
use stc::prelude::*;

/// A small elevator controller used as an external (non-benchmark) input.
const ELEVATOR: &str = "\
.i 2
.o 2
.s 4
.r floor0
00 floor0 floor0 00
01 floor0 moving_up 01
1- floor0 floor0 00
-- moving_up floor1 01
00 floor1 floor1 10
10 floor1 moving_down 11
0- floor1 floor1 10
-- moving_down floor0 11
";

fn elevator() -> Mealy {
    kiss2::parse_with_options(
        ELEVATOR,
        "elevator",
        kiss2::Kiss2Options {
            complete_with_self_loops: true,
        },
    )
    .expect("embedded KISS2 is valid")
}

#[test]
fn kiss2_to_self_testable_controller() {
    let machine = elevator();
    assert_eq!(machine.num_states(), 4);

    let outcome = solve(&machine);
    let realization = outcome.best.realize(&machine);
    assert!(realization.verify(&machine).is_none());

    // The realization must agree with the specification on random words.
    let words: Vec<Vec<usize>> = (0..50u64)
        .map(|seed| {
            (0..32)
                .map(|i| {
                    ((seed.wrapping_mul(6364136223846793005).wrapping_add(i * 17)) % 4) as usize
                })
                .collect()
        })
        .collect();
    let composed = realization.compose(&machine);
    for word in &words {
        let (spec, _) = machine.run_from_reset(word);
        let (real, _) = composed.run(realization.alpha_index(machine.reset_state()), word);
        assert_eq!(spec, real);
    }
}

#[test]
fn every_benchmark_flows_through_the_whole_stack() {
    // One `Synthesis` session drives the same staged flow `stc-pipeline`
    // runs at corpus scale.  Keep the integration test fast: only the small
    // benchmarks go through gate-level synthesis and fault simulation here;
    // the big ones are covered by the (release-mode) bench harness.
    let session = Synthesis::builder().max_nodes(50_000).build();
    for benchmark in stc::fsm::benchmarks::suite() {
        let machine = &benchmark.machine;
        if machine.num_states() > 10 || machine.num_inputs() > 16 {
            continue;
        }
        let decomposition = session.decompose_only(machine);
        let realization = &decomposition.realization;
        assert!(
            decomposition.verified,
            "{}: realization does not realize the specification",
            benchmark.name()
        );

        let encoded = session.encode(&decomposition).unwrap();
        let netlist = session.synthesize_logic(&encoded);
        let pipeline = &netlist.logic;
        let encoded = &encoded.pipeline;
        assert_eq!(pipeline.flipflops(), encoded.register_bits());

        // Functional cross-check of the synthesised C1 block against δ1.
        for b1 in 0..realization.s1_len() {
            for i in 0..machine.num_inputs() {
                let mut inputs = bits(i, machine.input_bits());
                inputs.extend(bits(b1, encoded.r1_bits));
                let got = pipeline.c1.netlist.evaluate(&inputs);
                let expected = bits(realization.tables.delta1[b1][i], encoded.r2_bits);
                assert_eq!(got, expected, "{}: C1({b1}, {i})", benchmark.name());
            }
        }
    }
}

#[test]
fn architecture_claims_hold_on_small_benchmarks() {
    for name in ["shiftreg", "tav", "dk15", "mc"] {
        let machine = stc::fsm::benchmarks::by_name(name).unwrap().machine;
        let reports = evaluate_architectures(&machine, &ArchitectureOptions::default());
        let conventional = &reports[0];
        let conv_bist = &reports[1];
        let doubled = &reports[2];
        let pipeline = &reports[3];
        // Fig. 2 doubles the flip-flops and adds a bypass level.
        assert_eq!(conv_bist.flipflops, 2 * conventional.flipflops);
        assert_eq!(conv_bist.logic_depth, conventional.logic_depth + 1);
        assert!(conv_bist.untestable_faults > 0);
        // Fig. 3 doubles the logic but adds no delay and leaves nothing untested.
        assert_eq!(doubled.gate_count, 2 * conventional.gate_count);
        assert_eq!(doubled.logic_depth, conventional.logic_depth);
        assert_eq!(doubled.untestable_faults, 0);
        // Fig. 4 never needs more flip-flops than Fig. 2/3 and is fully testable.
        assert!(pipeline.flipflops <= conv_bist.flipflops, "{name}");
        assert_eq!(pipeline.untestable_faults, 0);
        assert!(
            pipeline.fault_coverage.unwrap() + 0.02 >= conv_bist.fault_coverage.unwrap(),
            "{name}"
        );
    }
}
