//! Criterion bench: the OSTR solver and its ablations.
//!
//! * `ostr_solver_v2/*` — the iterative branch-and-bound engine under the
//!   deterministic pipeline configuration: branch and bound on the hardest
//!   embedded machines, the no-bound ablation, parallel subtree
//!   exploration, the symmetric-basis construction that dominates setup
//!   for machines with many inputs, the serial search alone on the
//!   prepared `scale_s` tier, and the realization of the best pair.
//! * `ostr_solver/*` — end-to-end solves of the small embedded machines
//!   under a 50,000-node / 5 s budget (the workload behind Table 1 of the
//!   paper).
//! * `lemma1_pruning/*` — the same budget with and without the Lemma 1
//!   pruning, exploring the whole tree (the ablation behind Table 2).
//! * `naive_vs_lattice/*` — `solve`, the search over the symmetric-pair
//!   basis (`symmetric_basis`), against `solve_naive`, the brute-force
//!   enumeration of all partition pairs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stc_bench::scale::{scale_machine, scale_solver_config, scale_tiers};
use stc_fsm::{benchmarks, paper_example, random_machine, Mealy};
use stc_partition::symmetric_basis;
use stc_synth::{solve, solve_naive, OstrSolver, PreparedOstr, SolverConfig};
use std::time::Duration;

fn machine(name: &str) -> Mealy {
    benchmarks::by_name(name).expect("benchmark exists").machine
}

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

/// The 50,000-node / 5 s budget of the `ostr_solver` and `lemma1_pruning`
/// groups.
fn budget_config(lemma1_pruning: bool, stop_at_lower_bound: bool) -> SolverConfig {
    SolverConfig {
        max_nodes: 50_000,
        time_limit: Some(Duration::from_secs(5)),
        lemma1_pruning,
        stop_at_lower_bound,
        ..SolverConfig::default()
    }
}

fn ostr_solver_v2(c: &mut Criterion) {
    let mut group = c.benchmark_group("ostr_solver_v2");
    group.sample_size(10);
    for name in ["dk27", "shiftreg", "bbara", "tbk"] {
        group.bench_with_input(BenchmarkId::new("bnb", name), &machine(name), |b, m| {
            b.iter(|| OstrSolver::new(engine_config(true, 1)).solve(m));
        });
    }
    // Ablation: the same search without the cost lower bound.
    group.bench_with_input(
        BenchmarkId::new("no_bnb", "bbara"),
        &machine("bbara"),
        |b, m| {
            b.iter(|| OstrSolver::new(engine_config(false, 1)).solve(m));
        },
    );
    // Parallel subtree exploration (byte-identical results, different wall
    // clock) on the two largest searches.
    for name in ["bbara", "tbk"] {
        group.bench_with_input(
            BenchmarkId::new("parallel4", name),
            &machine(name),
            |b, m| {
                b.iter(|| OstrSolver::new(engine_config(true, 4)).solve(m));
            },
        );
    }
    // Setup path: the symmetric-pair basis, one walk over the pair graph's
    // n(n-1) nodes with an edge per distinct input column.  tbk: 64 inputs
    // sharing two transition maps; ex1: 512 distinct columns, so the walk's
    // edge count dominates; scale_s: 107 states whose 5,671 state pairs
    // collapse to a 33-element basis, where closing each component once
    // instead of each pair pays most.
    let scale_s = scale_tiers()
        .into_iter()
        .find(|t| t.name == "scale_s")
        .expect("scale_s is a tier");
    let bases = [
        ("shiftreg", machine("shiftreg")),
        ("tbk", machine("tbk")),
        ("ex1", machine("ex1")),
        ("scale_s", scale_machine(&scale_s)),
    ];
    for (name, m) in &bases {
        group.bench_with_input(BenchmarkId::new("basis", name), m, |b, m| {
            b.iter(|| symmetric_basis(m));
        });
    }
    // The search alone, serial, on scale_s's prepared basis: the 465,737
    // nodes behind perfbench's `solver_scale` workload.
    let (_, scale_s_machine) = &bases[3];
    let serial = OstrSolver::new(scale_solver_config(&scale_s, 1));
    group.bench_with_input(
        BenchmarkId::new("search", "scale_s"),
        &PreparedOstr::new(scale_s_machine),
        |b, prepared| {
            b.iter(|| serial.solve_prepared(prepared));
        },
    );
    // Theorem 1 realization plus its Definition 3 check, from a solved
    // pair: ex1's 20 × 20 product over 512 inputs is the case the table
    // representation exists for, tbk (11 × 11, 64 inputs) a mid-sized one.
    for name in ["ex1", "tbk"] {
        let machine = machine(name);
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

fn ostr_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("ostr_solver");
    group.sample_size(10);
    // shiftreg and dk27 are timed by `ostr_solver_v2/bnb`: the budget does
    // not bind at their 36 and 444 nodes.
    for name in ["tav", "dk15", "bbtas", "mc"] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &machine(name), |b, m| {
            b.iter(|| OstrSolver::new(budget_config(true, true)).solve(m));
        });
    }
    group.finish();
}

fn lemma1_pruning(c: &mut Criterion) {
    let mut group = c.benchmark_group("lemma1_pruning");
    group.sample_size(10);
    for name in ["tav", "dk15", "mc", "dk27"] {
        let machine = machine(name);
        group.bench_with_input(BenchmarkId::new("with_pruning", name), &machine, |b, m| {
            b.iter(|| OstrSolver::new(budget_config(true, false)).solve(m));
        });
        group.bench_with_input(
            BenchmarkId::new("without_pruning", name),
            &machine,
            |b, m| {
                b.iter(|| OstrSolver::new(budget_config(false, false)).solve(m));
            },
        );
    }
    group.finish();
}

fn naive_vs_lattice(c: &mut Criterion) {
    let mut group = c.benchmark_group("naive_vs_lattice");
    group.sample_size(10);
    let machines = [
        ("paper_fig5", paper_example()),
        ("random_5", random_machine("random_5", 5, 2, 2, 7)),
        ("random_6", random_machine("random_6", 6, 2, 2, 11)),
    ];
    for (name, machine) in &machines {
        group.bench_with_input(BenchmarkId::new("lattice", name), machine, |b, m| {
            b.iter(|| solve(m));
        });
        group.bench_with_input(BenchmarkId::new("naive", name), machine, |b, m| {
            b.iter(|| solve_naive(m));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ostr_solver_v2,
    ostr_solver,
    lemma1_pruning,
    naive_vs_lattice
);
criterion_main!(benches);
