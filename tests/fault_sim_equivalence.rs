//! The cone-restricted fault simulator against full-sweep references, on
//! the machines the flow actually synthesises.
//!
//! `stc-bist` simulates each fault over its fanout cone only.  Its own
//! property tests pin that kernel on random netlists; this test pins the
//! three BIST stages that use it on real pipeline blocks: every gate-level
//! machine of the embedded suite (at the default gate-level limits) and two
//! machines shaped like the `bist_heavy` benchmark pool (tbk's 64 inputs,
//! two map pairs on a 24-state planted grid, 32 patterns per session).
//!
//! * the signature session equals the scalar per-pattern MISR model;
//! * the fixed plan's measured coverage, and the optimized plan's
//!   detected/undetected split, equal a whole-netlist re-simulation of the
//!   same stimuli ([`full_sweep_undetected`] below).

use stc::bist::{
    fault_list, measure_plan_coverage, optimize_plan, pipeline_self_test,
    pipeline_self_test_scalar, session_patterns, session_patterns_from, OptimizeOptions,
    PackedPatterns, StuckAtFault,
};
use stc::encoding::EncodedPipeline;
use stc::fsm::{benchmarks, planted_decomposable, Mealy, PlantedSpec};
use stc::logic::{synthesize_pipeline, Netlist, PipelineLogic, SynthOptions, PACKED_WORDS};
use stc::pipeline::GateLevelLimits;
use stc::synth::solve;

fn pipeline_logic(machine: &Mealy) -> PipelineLogic {
    let realization = solve(machine).best.realize(machine);
    let encoded = EncodedPipeline::new(machine, &realization);
    synthesize_pipeline(&encoded, SynthOptions::default())
}

/// The `bist_heavy` pool's generator parameters for one seed.
fn bist_heavy_shaped(seed: u64) -> Mealy {
    let spec = PlantedSpec {
        rows: 6,
        cols: 6,
        states: 24,
        inputs: 64,
        outputs: 3,
        map_pairs: 2,
        seed,
        max_attempts: 2000,
    };
    planted_decomposable(&format!("bist_heavy_{seed}"), spec).0
}

/// The machines under test with their patterns per session.
fn machines() -> Vec<(String, PipelineLogic, usize)> {
    let limits = GateLevelLimits::default();
    let mut machines: Vec<(String, PipelineLogic, usize)> = benchmarks::suite()
        .into_iter()
        .map(|b| b.machine)
        .filter(|m| m.num_states() <= limits.max_states && m.num_inputs() <= limits.max_inputs)
        .map(|m| (m.name().to_string(), pipeline_logic(&m), 256))
        .collect();
    assert!(
        machines.len() >= 5,
        "the embedded suite has gate-level machines"
    );
    for seed in [143_542, 198_975] {
        let machine = bist_heavy_shaped(seed);
        machines.push((machine.name().to_string(), pipeline_logic(&machine), 32));
    }
    machines
}

/// The faults of `block` that no pattern detects, by whole-netlist faulty
/// sweeps: every fault re-evaluates the complete netlist per superblock.
fn full_sweep_undetected(block: &Netlist, patterns: &[Vec<bool>]) -> Vec<StuckAtFault> {
    let packed = PackedPatterns::pack(block.num_inputs(), patterns);
    let (mut good, mut bad) = (Vec::new(), Vec::new());
    fault_list(block)
        .into_iter()
        .filter(|fault| {
            !(0..packed.num_superblocks()).any(|s| {
                let inputs = packed.wide_block(s);
                let masks = packed.wide_lane_masks(s);
                block.eval_packed_wide_into(&inputs, None, &mut good);
                block.eval_packed_wide_into(&inputs, Some((fault.node, fault.stuck_at)), &mut bad);
                block
                    .outputs()
                    .iter()
                    .any(|&o| (0..PACKED_WORDS).any(|w| (good[o][w] ^ bad[o][w]) & masks[w] != 0))
            })
        })
        .collect()
}

#[test]
fn bist_stages_equal_their_full_sweep_references() {
    for (name, logic, patterns) in machines() {
        assert_eq!(
            pipeline_self_test(&logic, patterns),
            pipeline_self_test_scalar(&logic, patterns),
            "{name}: signature session"
        );

        let coverage = measure_plan_coverage(&logic, patterns);
        for (measured, block) in [
            (&coverage.session1, &logic.c1.netlist),
            (&coverage.session2, &logic.c2.netlist),
        ] {
            let undetected = full_sweep_undetected(block, &session_patterns(block, patterns));
            assert_eq!(measured.undetected, undetected, "{name} {}", measured.block);
            assert_eq!(
                measured.detected + undetected.len(),
                measured.total_faults,
                "{name} {}",
                measured.block
            );
        }

        let options = OptimizeOptions {
            max_total_length: 2 * patterns,
            ..OptimizeOptions::default()
        };
        let plan = optimize_plan(&logic, &options);
        for (session, block) in [
            (&plan.session1, &logic.c1.netlist),
            (&plan.session2, &logic.c2.netlist),
        ] {
            let stimuli = session_patterns_from(block, &session.taps, session.seed, session.length);
            let undetected = full_sweep_undetected(block, &stimuli);
            assert_eq!(session.undetected, undetected, "{name} {}", session.block);
            assert_eq!(
                session.detected + undetected.len(),
                session.total_faults,
                "{name} {}",
                session.block
            );
        }
    }
}
