//! Criterion bench: substrate components (partition operators, logic
//! minimisation, fault simulation, LFSR/MISR stepping).
//!
//! `logic/minimize/reference/*` vs `logic/minimize/packed/*` pair the
//! `Vec<Literal>` reference minimiser with the positional-cube one on the
//! whole pipeline logic (`C1`, `C2`, λ) of bbara, the costliest logic stage
//! of the embedded suite, and of `heavy_00`, the first machine of the
//! `bist_heavy` perfbench pool.  Both sides return identical covers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stc_bist::{fault_list, lfsr_patterns, simulate_faults, Lfsr, Misr};
use stc_encoding::{EncodedMachine, EncodedPipeline, EncodingStrategy};
use stc_fsm::{benchmarks, kiss2, planted_decomposable, Mealy, PlantedSpec};
use stc_logic::{reference, synthesize_controller, synthesize_pipeline, SynthOptions};
use stc_partition::{basis_partitions, big_m_operator, m_operator, Partition};
use stc_synth::solve;

/// `heavy_00` of the `bist_heavy` perfbench pool, generated and read back
/// through KISS2 as that workload does.
fn heavy_00() -> Mealy {
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
    let machine = planted_decomposable("heavy_00", spec).0;
    kiss2::parse(&kiss2::write(&machine), "heavy_00").expect("written KISS2 parses")
}

/// The binary-encoded pipeline of a machine's best OSTR realization.
fn encoded_pipeline(machine: &Mealy) -> EncodedPipeline {
    let realization = solve(machine).best.realize(machine);
    EncodedPipeline::new(machine, &realization)
}

fn substrates(c: &mut Criterion) {
    let machine = benchmarks::by_name("shiftreg")
        .expect("benchmark exists")
        .machine;

    c.bench_function("partition/basis_shiftreg", |b| {
        b.iter(|| basis_partitions(&machine));
    });
    let pi = Partition::from_labels(&[0, 0, 1, 1, 2, 2, 3, 3]);
    c.bench_function("partition/m_and_M_shiftreg", |b| {
        b.iter(|| {
            let m = m_operator(&machine, &pi);
            big_m_operator(&machine, &m)
        });
    });

    let encoded = EncodedMachine::new(&machine, EncodingStrategy::Binary);
    c.bench_function("logic/synthesize_shiftreg", |b| {
        b.iter(|| synthesize_controller(&encoded, SynthOptions::default()));
    });

    let logic = synthesize_controller(&encoded, SynthOptions::default());
    let faults = fault_list(&logic.block.netlist);
    let patterns = lfsr_patterns(logic.block.netlist.num_inputs(), 64, 1);
    c.bench_function("bist/fault_sim_shiftreg", |b| {
        b.iter(|| simulate_faults(&logic.block.netlist, &patterns, &faults, None));
    });

    c.bench_function("bist/lfsr_16bit_1k_steps", |b| {
        b.iter(|| {
            let mut l = Lfsr::with_primitive_polynomial(16, 0xACE1);
            (0..1000).map(|_| l.step()).sum::<u64>()
        });
    });
    c.bench_function("bist/misr_16bit_1k_absorbs", |b| {
        b.iter(|| {
            let mut m = Misr::new(16, 1);
            for i in 0..1000u32 {
                m.absorb(&[i % 2 == 0, i % 3 == 0, i % 5 == 0]);
            }
            m.signature()
        });
    });

    let bbara = benchmarks::by_name("bbara")
        .expect("benchmark exists")
        .machine;
    let mut group = c.benchmark_group("logic/minimize");
    for (name, machine) in [("bbara", bbara), ("heavy_00", heavy_00())] {
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

criterion_group!(benches, substrates);
criterion_main!(benches);
