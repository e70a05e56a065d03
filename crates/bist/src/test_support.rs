//! Shared strategies of the crate's property tests.

use proptest::prelude::*;
use stc_logic::{Cover, Cube, Gate, Literal, Netlist};

/// A random cover of up to `max_cubes` cubes over `num_vars` variables.
pub(crate) fn arb_cover(num_vars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    proptest::collection::vec(proptest::collection::vec(0u8..3, num_vars), 0..=max_cubes).prop_map(
        move |cubes| {
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
        },
    )
}

/// A random multi-level netlist over 1–6 inputs: inverters, ANDs and ORs
/// over arbitrary earlier nodes (so products can be shared between
/// outputs, and fanout reconverges), constants, and 1–6 outputs that may
/// repeat a node or name an input, an inverter or a constant directly.
/// Inputs no gate or output references stay unconnected.
pub(crate) fn arb_netlist() -> impl Strategy<Value = Netlist> {
    let gate = (0u8..8, proptest::collection::vec(any::<u32>(), 1..=4));
    (
        1usize..=6,
        proptest::collection::vec(gate, 0..=24),
        proptest::collection::vec(any::<u32>(), 1..=6),
    )
        .prop_map(|(num_inputs, specs, outputs)| {
            let mut gates: Vec<Gate> = (0..num_inputs).map(Gate::Input).collect();
            for (kind, picks) in specs {
                let pick = |p: &u32| *p as usize % gates.len();
                let gate = match kind {
                    0 => Gate::Const(picks[0] % 2 == 1),
                    1 | 2 => Gate::Not(pick(&picks[0])),
                    3..=5 => Gate::And(picks.iter().map(pick).collect()),
                    _ => Gate::Or(picks.iter().map(pick).collect()),
                };
                gates.push(gate);
            }
            let outputs = outputs.iter().map(|&o| o as usize % gates.len()).collect();
            Netlist::from_gates(num_inputs, gates, outputs)
        })
}

/// The pipeline logic of an embedded benchmark machine with the flow's
/// gate-level limits lifted (binary encoding, default minimisation).
pub(crate) fn lifted_pipeline(name: &str) -> stc_logic::PipelineLogic {
    let machine = stc_fsm::benchmarks::by_name(name)
        .expect("benchmark exists")
        .machine;
    let realization = stc_synth::solve(&machine).best.realize(&machine);
    let encoded = stc_encoding::EncodedPipeline::new(&machine, &realization);
    stc_logic::synthesize_pipeline(&encoded, stc_logic::SynthOptions::default())
}
