//! Criterion bench: the bit-parallel (PP-SFP) fault simulator against the
//! scalar per-fault reference.
//!
//! The `scalar/*` vs `packed/*` pairs on the same netlist and pattern set
//! are the ≥5x-speedup evidence behind the coverage gate: the packed
//! simulator evaluates 64 patterns per netlist sweep, so exact coverage of
//! every PR stays cheap enough for CI.  `plan_coverage/*` measures the
//! end-to-end `measure_plan_coverage` entry point the pipeline's coverage
//! stage calls.
//!
//! `session/scalar/*` vs `session/packed/*` pair the scalar reference of the
//! two-session signature self-test with the packed impulse-response session
//! the pipeline's `bist` stage runs, and `optimize_batch/*` measures the
//! candidate-batched plan optimizer.  Both run on bbara and on a tbk-shaped
//! planted machine (64 inputs, the `bist_heavy` perfbench pool's generator
//! parameters) at that workload's 32 patterns per session.
//!
//! `coverage/tbk_lifted` and `optimize_batch/tbk_lifted` run the coverage
//! measurement and the plan optimizer at the flow's defaults (256 patterns
//! per session, a 512-pattern budget) on tbk with the gate-level limits
//! lifted — the largest blocks of the embedded suite, where simulating
//! each fault over its fanout cone instead of the whole netlist pays most.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stc_bist::{
    fault_list, lfsr_patterns, measure_plan_coverage, optimize_plan, pipeline_self_test,
    pipeline_self_test_scalar, simulate_faults, simulate_faults_packed, OptimizeOptions,
};
use stc_encoding::{EncodedMachine, EncodedPipeline, EncodingStrategy};
use stc_fsm::{benchmarks, planted_decomposable, Mealy, PlantedSpec};
use stc_logic::{synthesize_controller, synthesize_pipeline, Netlist, PipelineLogic, SynthOptions};
use stc_synth::solve;

/// The monolithic controller netlist of a benchmark machine — the biggest
/// single combinational block the workspace synthesises.
fn controller_netlist(name: &str) -> Netlist {
    let machine = benchmarks::by_name(name).expect("benchmark exists").machine;
    let encoded = EncodedMachine::new(&machine, EncodingStrategy::Binary);
    synthesize_controller(&encoded, SynthOptions::default())
        .block
        .netlist
}

/// The synthesised two-block pipeline of a machine.
fn pipeline_logic(machine: &Mealy) -> PipelineLogic {
    let realization = solve(machine).best.realize(machine);
    let encoded = EncodedPipeline::new(machine, &realization);
    synthesize_pipeline(&encoded, SynthOptions::default())
}

/// The first machine of the `bist_heavy` perfbench pool: tbk's 64 inputs
/// and two shared map pairs on a 24-state planted grid.
fn tbk_shaped() -> Mealy {
    let spec = PlantedSpec {
        rows: 6,
        cols: 6,
        states: 24,
        inputs: 64,
        outputs: 3,
        map_pairs: 2,
        seed: 143_542,
        max_attempts: 2000,
    };
    planted_decomposable("tbk_shaped", spec).0
}

fn fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim");
    group.sample_size(20);

    // shiftreg (8 states) and bbara (10 states, the largest gate-level
    // machine of the embedded suite) under a 256-pattern LFSR budget.
    for name in ["shiftreg", "bbara"] {
        let netlist = controller_netlist(name);
        let faults = fault_list(&netlist);
        let patterns = lfsr_patterns(netlist.num_inputs(), 256, 1);
        group.bench_with_input(BenchmarkId::new("scalar", name), &netlist, |b, n| {
            b.iter(|| simulate_faults(n, &patterns, &faults, None));
        });
        group.bench_with_input(BenchmarkId::new("packed", name), &netlist, |b, n| {
            b.iter(|| simulate_faults_packed(n, &patterns, &faults, None));
        });
    }

    // The pipeline coverage stage end to end: plan stimuli generation plus
    // bit-parallel simulation of both blocks.
    for name in ["shiftreg", "dk27"] {
        let machine = benchmarks::by_name(name).expect("benchmark exists").machine;
        let realization = solve(&machine).best.realize(&machine);
        let encoded = EncodedPipeline::new(&machine, &realization);
        let pipeline = synthesize_pipeline(&encoded, SynthOptions::default());
        group.bench_with_input(
            BenchmarkId::new("plan_coverage", name),
            &pipeline,
            |b, p| {
                b.iter(|| measure_plan_coverage(p, 256));
            },
        );
    }

    // The signature self-test and the plan optimizer at `bist_heavy`'s
    // 32 patterns per session (a 64-pattern optimizer budget).
    let bbara = benchmarks::by_name("bbara")
        .expect("benchmark exists")
        .machine;
    let options = OptimizeOptions {
        max_total_length: 64,
        ..OptimizeOptions::default()
    };
    for (name, machine) in [("bbara", bbara), ("tbk_shaped", tbk_shaped())] {
        let pipeline = pipeline_logic(&machine);
        group.bench_with_input(
            BenchmarkId::new("session/scalar", name),
            &pipeline,
            |b, p| {
                b.iter(|| pipeline_self_test_scalar(p, 32));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("session/packed", name),
            &pipeline,
            |b, p| {
                b.iter(|| pipeline_self_test(p, 32));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("optimize_batch", name),
            &pipeline,
            |b, p| {
                b.iter(|| optimize_plan(p, &options));
            },
        );
    }

    let tbk = benchmarks::by_name("tbk")
        .expect("benchmark exists")
        .machine;
    let tbk_lifted = pipeline_logic(&tbk);
    group.bench_with_input(
        BenchmarkId::new("coverage", "tbk_lifted"),
        &tbk_lifted,
        |b, p| {
            b.iter(|| measure_plan_coverage(p, 256));
        },
    );
    group.bench_with_input(
        BenchmarkId::new("optimize_batch", "tbk_lifted"),
        &tbk_lifted,
        |b, p| {
            b.iter(|| optimize_plan(p, &OptimizeOptions::default()));
        },
    );
    group.finish();
}

criterion_group!(benches, fault_sim);
criterion_main!(benches);
