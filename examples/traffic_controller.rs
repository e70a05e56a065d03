//! A realistic scenario: a traffic-light / walk-request intersection
//! controller is specified as a Mealy machine in KISS2, synthesised into a
//! self-testable pipeline structure through the `Synthesis` session API, and
//! self-tested.
//!
//! Run with `cargo run --example traffic_controller`.

use stc::prelude::*;

/// A 10-state intersection controller.
///
/// Inputs (2 bits): `car` on the side road, `walk` request.
/// Outputs (2 bits): `01` = main green, `10` = side green, `11` = all red /
/// walk phase, `00` = amber.
///
/// The controller cycles main-green → amber → side-green → amber and inserts
/// a walk phase when requested; the two timer states per phase give it the
/// crossed structure that the OSTR solver can exploit.
const TRAFFIC_KISS2: &str = "\
.i 2
.o 2
.s 10
.r MG0
-- MG0 MG1 01
0- MG1 MG0 01
1- MG1 AM0 01
-- AM0 AM1 00
-0 AM1 SG0 00
-1 AM1 WK0 00
-- SG0 SG1 10
-- SG1 AM2 10
-- AM2 AM3 00
-- AM3 MG0 00
-- WK0 WK1 11
-- WK1 AM2 11
";

fn main() {
    let machine = kiss2::parse_with_options(
        TRAFFIC_KISS2,
        "traffic",
        kiss2::Kiss2Options {
            complete_with_self_loops: true,
        },
    )
    .expect("embedded KISS2 is valid");
    println!(
        "traffic controller: {} states, {} input vectors, {} output vectors",
        machine.num_states(),
        machine.num_inputs(),
        machine.num_outputs()
    );

    // Conventional synthesis (Fig. 1) for reference.
    let encoded = EncodedMachine::new(&machine);
    let conventional = synthesize_controller(&encoded, SynthOptions::default());
    println!(
        "conventional controller: {} flip-flops, {} gates, depth {}",
        encoded.state_bits,
        conventional.block.netlist.gate_count(),
        conventional.block.netlist.depth()
    );

    // Self-testable synthesis (Fig. 4), configured through the layered
    // session builder: the profile text plays the role of a config file, and
    // the typed setter layers a "CLI" override on top.
    let session = Synthesis::builder()
        .profile("[bist]\npatterns = 128\n")
        .expect("embedded profile is valid")
        .patterns_per_session(256)
        .build();

    let decomposition = session.decompose_only(&machine);
    println!(
        "OSTR solution: |S1| = {}, |S2| = {} -> {} flip-flops (conventional BIST would need {})",
        decomposition.outcome.best.cost.s1(),
        decomposition.outcome.best.cost.s2(),
        decomposition.pipeline_flipflops(),
        2 * encoded.state_bits
    );
    assert!(decomposition.verified);

    let encoded_pipe = session
        .encode(&decomposition)
        .expect("within gate-level limits");
    let netlist = session.synthesize_logic(&encoded_pipe);
    println!(
        "pipeline logic: C1 = {} gates, C2 = {} gates, output logic = {} gates",
        netlist.logic.c1.netlist.gate_count(),
        netlist.logic.c2.netlist.gate_count(),
        netlist.logic.output.netlist.gate_count()
    );

    // Run the built-in self-test.
    let plan = session.plan_bist(&netlist);
    let result = &plan.result;
    println!(
        "self-test coverage: C1 {:.1}% ({} of {} faults), C2 {:.1}% ({} of {} faults)",
        100.0 * result.session1.coverage(),
        result.session1.detected_faults,
        result.session1.total_faults,
        100.0 * result.session2.coverage(),
        result.session2.detected_faults,
        result.session2.total_faults
    );

    // Sanity check: the realization behaves like the specification on a
    // realistic input trace (cars arriving, one walk request).
    let realization = &decomposition.realization;
    let trace: Vec<usize> = vec![0b00, 0b10, 0b10, 0b00, 0b01, 0b00, 0b00, 0b00, 0b00, 0b00];
    let (spec_out, _) = machine.run_from_reset(&trace);
    let (real_out, _) = realization
        .compose(&machine)
        .run(realization.alpha_index(machine.reset_state()), &trace);
    assert_eq!(spec_out, real_out);
    println!(
        "specification and realization agree on a {}-step traffic scenario",
        trace.len()
    );
}
