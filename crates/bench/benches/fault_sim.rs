//! Criterion bench: fault simulation, the plan optimizer's inner loop, and
//! the substrate components (partition operators, logic minimisation,
//! LFSR/MISR stepping).
//!
//! The `fault_sim/scalar/*` vs `fault_sim/packed/*` pairs on the same
//! netlist and pattern set are the ≥5x-speedup evidence behind the coverage
//! gate: the packed simulator evaluates 64 patterns per netlist sweep, so
//! exact coverage of every PR stays cheap enough for CI.
//! `plan_coverage/*` measures the end-to-end `measure_plan_coverage` entry
//! point the pipeline's coverage stage calls.
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
//!
//! The substrate benches (`partition/*`, `logic/*`, `bist/*`) time single
//! components on shiftreg; `bist/fault_sim_shiftreg` measures the scalar
//! reference simulator.  `logic/minimize/reference/*` vs
//! `logic/minimize/packed/*` pair the `Vec<Literal>` reference minimiser
//! with the positional-cube one on the whole pipeline logic (`C1`, `C2`, λ)
//! of bbara, the costliest logic stage of the embedded suite, and of
//! `heavy_00`, the first machine of the `bist_heavy` perfbench pool.  Both
//! sides return identical covers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stc_bist::{
    fault_list, lfsr_patterns, measure_plan_coverage, optimize_plan, pipeline_self_test,
    pipeline_self_test_scalar, simulate_faults, simulate_faults_packed, Lfsr, OptimizeOptions,
};
use stc_encoding::{EncodedMachine, EncodedPipeline};
use stc_fsm::{benchmarks, kiss2, planted_decomposable, Mealy, PlantedSpec};
use stc_logic::{
    reference, synthesize_controller, synthesize_pipeline, Netlist, PipelineLogic, SynthOptions,
};
use stc_partition::{basis_partitions, big_m_operator, m_operator, Partition};
use stc_synth::solve;

fn machine(name: &str) -> Mealy {
    benchmarks::by_name(name).expect("benchmark exists").machine
}

/// The monolithic controller netlist of a benchmark machine — the biggest
/// single combinational block the workspace synthesises.
fn controller_netlist(name: &str) -> Netlist {
    let encoded = EncodedMachine::new(&machine(name));
    synthesize_controller(&encoded, SynthOptions::default())
        .block
        .netlist
}

/// The binary-encoded pipeline of a machine's best OSTR realization.
fn encoded_pipeline(machine: &Mealy) -> EncodedPipeline {
    let realization = solve(machine).best.realize(machine);
    EncodedPipeline::new(machine, &realization)
}

/// The synthesised two-block pipeline of a machine.
fn pipeline_logic(machine: &Mealy) -> PipelineLogic {
    synthesize_pipeline(&encoded_pipeline(machine), SynthOptions::default())
}

/// The generator parameters of the `bist_heavy` perfbench pool: tbk's 64
/// inputs and two shared map pairs on a 24-state planted grid.
const BIST_HEAVY_SPEC: PlantedSpec = PlantedSpec {
    rows: 6,
    cols: 6,
    states: 24,
    inputs: 64,
    outputs: 3,
    map_pairs: 2,
    seed: 143_542,
    max_attempts: 2000,
};

/// The first machine of the `bist_heavy` pool, as planted.
fn tbk_shaped() -> Mealy {
    planted_decomposable("tbk_shaped", BIST_HEAVY_SPEC).0
}

/// `heavy_00` of the `bist_heavy` pool, generated and read back through
/// KISS2 as that workload does.  The round trip renumbers the machine, so
/// it is not [`tbk_shaped`] under another name: their `stable_hash`es
/// differ even with the names made equal.
fn heavy_00() -> Mealy {
    let machine = planted_decomposable("heavy_00", BIST_HEAVY_SPEC).0;
    kiss2::parse(&kiss2::write(&machine), "heavy_00").expect("written KISS2 parses")
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
        group.bench_with_input(
            BenchmarkId::new("plan_coverage", name),
            &pipeline_logic(&machine(name)),
            |b, p| {
                b.iter(|| measure_plan_coverage(p, 256));
            },
        );
    }

    // The signature self-test and the plan optimizer at `bist_heavy`'s
    // 32 patterns per session (a 64-pattern optimizer budget).
    let options = OptimizeOptions {
        max_total_length: 64,
        ..OptimizeOptions::default()
    };
    for (name, machine) in [("bbara", machine("bbara")), ("tbk_shaped", tbk_shaped())] {
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

    let tbk_lifted = pipeline_logic(&machine("tbk"));
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

fn substrates(c: &mut Criterion) {
    let shiftreg = machine("shiftreg");

    c.bench_function("partition/basis_shiftreg", |b| {
        b.iter(|| basis_partitions(&shiftreg));
    });
    let pi = Partition::from_labels(&[0, 0, 1, 1, 2, 2, 3, 3]);
    c.bench_function("partition/m_and_M_shiftreg", |b| {
        b.iter(|| {
            let m = m_operator(&shiftreg, &pi);
            big_m_operator(&shiftreg, &m)
        });
    });

    let encoded = EncodedMachine::new(&shiftreg);
    c.bench_function("logic/synthesize_shiftreg", |b| {
        b.iter(|| synthesize_controller(&encoded, SynthOptions::default()));
    });

    let netlist = controller_netlist("shiftreg");
    let faults = fault_list(&netlist);
    let patterns = lfsr_patterns(netlist.num_inputs(), 64, 1);
    c.bench_function("bist/fault_sim_shiftreg", |b| {
        b.iter(|| simulate_faults(&netlist, &patterns, &faults, None));
    });

    c.bench_function("bist/lfsr_16bit_1k_steps", |b| {
        b.iter(|| {
            let mut l = Lfsr::with_primitive_polynomial(16, 0xACE1);
            (0..1000).map(|_| l.step()).sum::<u64>()
        });
    });

    let mut group = c.benchmark_group("logic/minimize");
    for (name, machine) in [("bbara", machine("bbara")), ("heavy_00", heavy_00())] {
        let encoded = encoded_pipeline(&machine);
        group.bench_with_input(BenchmarkId::new("reference", name), &encoded, |b, e| {
            b.iter(|| reference::synthesize_pipeline(e, SynthOptions::default()));
        });
        group.bench_with_input(BenchmarkId::new("packed", name), &encoded, |b, e| {
            b.iter(|| synthesize_pipeline(e, SynthOptions::default()));
        });
    }
    group.finish();
}

criterion_group!(benches, fault_sim, substrates);
criterion_main!(benches);
