//! Criterion bench: the v2 iterative branch-and-bound OSTR engine.
//!
//! Complements `ostr_solver` (the historical end-to-end group kept for
//! baseline continuity) with targeted measurements of the rebuilt search
//! core under the deterministic pipeline configuration: branch and bound on
//! the hardest embedded machines, the no-bound ablation, parallel subtree
//! exploration, the symmetric-basis construction that dominates setup
//! for machines with many inputs, and the realization of the best pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stc_fsm::benchmarks;
use stc_partition::symmetric_basis;
use stc_synth::{OstrSolver, SolverConfig};

/// The deterministic pipeline configuration (no wall-clock limit).
fn engine_config(branch_and_bound: bool, jobs: usize) -> SolverConfig {
    SolverConfig {
        max_nodes: 100_000,
        time_limit: None,
        lemma1_pruning: true,
        stop_at_lower_bound: true,
        branch_and_bound,
        parallel_subtrees: jobs,
    }
}

fn ostr_solver_v2(c: &mut Criterion) {
    let mut group = c.benchmark_group("ostr_solver_v2");
    group.sample_size(10);
    for name in ["dk27", "shiftreg", "bbara", "tbk"] {
        let machine = benchmarks::by_name(name).expect("benchmark exists").machine;
        group.bench_with_input(BenchmarkId::new("bnb", name), &machine, |b, m| {
            b.iter(|| OstrSolver::new(engine_config(true, 1)).solve(m));
        });
    }
    // Ablation: the same search without the cost lower bound.
    let bbara = benchmarks::by_name("bbara")
        .expect("benchmark exists")
        .machine;
    group.bench_with_input(BenchmarkId::new("no_bnb", "bbara"), &bbara, |b, m| {
        b.iter(|| OstrSolver::new(engine_config(false, 1)).solve(m));
    });
    // Parallel subtree exploration (byte-identical results, different wall
    // clock) on the two largest searches.
    for name in ["bbara", "tbk"] {
        let machine = benchmarks::by_name(name).expect("benchmark exists").machine;
        group.bench_with_input(BenchmarkId::new("parallel4", name), &machine, |b, m| {
            b.iter(|| OstrSolver::new(engine_config(true, 4)).solve(m));
        });
    }
    // Setup path: the symmetric-pair basis (tbk: 64 inputs sharing two
    // transition maps; ex1: 512 distinct input columns, every closure
    // universal, so the lazy closure's early return is what it measures).
    for name in ["shiftreg", "tbk", "ex1"] {
        let machine = benchmarks::by_name(name).expect("benchmark exists").machine;
        group.bench_with_input(BenchmarkId::new("basis", name), &machine, |b, m| {
            b.iter(|| symmetric_basis(m));
        });
    }
    // Theorem 1 realization plus its Definition 3 check, from a solved
    // pair: ex1's 20 × 20 product over 512 inputs is the case the table
    // representation exists for, tbk (11 × 11, 64 inputs) a mid-sized one.
    for name in ["ex1", "tbk"] {
        let machine = benchmarks::by_name(name).expect("benchmark exists").machine;
        let best = OstrSolver::new(engine_config(true, 1)).solve(&machine).best;
        group.bench_with_input(
            BenchmarkId::new("realize_verify", name),
            &machine,
            |b, m| {
                b.iter(|| best.realize(m).verify(m).is_none());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, ostr_solver_v2);
criterion_main!(benches);
