//! Stress tests for the iterative OSTR search core.
//!
//! The pre-refactor solver recursed once per search-tree level and cloned
//! two `Vec<Vec<usize>>` partitions into every frame, so a machine with a
//! large symmetric-pair basis (deep strict-coarsening chains) could blow a
//! small thread stack.  The iterative engine keeps the whole DFS path on
//! the heap, as a frame stack over one κ-pair and its undo trail, and must
//! complete the same search inside a minimal stack.

use stc::partition::symmetric_basis;
use stc::prelude::*;

/// A 5-bit serial shift register: 32 states, 460 symmetric-basis elements,
/// and strict-coarsening chains of depth ~60 — the deepest DFS spine in the
/// test suite.  Shift registers are the richest known source of symmetric
/// pairs (every window partition pairs with a shifted copy of itself).
fn stress_machine() -> Mealy {
    let bits = 5u32;
    let n = 1usize << bits;
    let mut builder = Mealy::builder("wide_shiftreg", n, 2, 2);
    for s in 0..n {
        for i in 0..2 {
            let next = ((s << 1) | i) & (n - 1);
            let out = (s >> (bits - 1)) & 1;
            builder
                .transition(s, i, next, out)
                .expect("indices are in range");
        }
    }
    let machine = builder.build().expect("fully specified");
    let basis = symmetric_basis(&machine);
    assert!(
        basis.len() >= 24,
        "the stress machine must have a ≥24-element basis (got {})",
        basis.len()
    );
    machine
}

#[test]
fn deep_basis_search_completes_in_a_minimal_stack_thread() {
    let machine = stress_machine();
    // 64 KiB is far below what ~80 recursion frames with per-frame partition
    // clones needed; the explicit-stack engine keeps its state on the heap.
    let handle = std::thread::Builder::new()
        .name("ostr-stress".into())
        .stack_size(64 * 1024)
        .spawn(move || {
            let outcome = OstrSolver::new(SolverConfig {
                max_nodes: 5_000,
                time_limit: None,
                stop_at_lower_bound: true,
                ..SolverConfig::default()
            })
            .solve(&machine);
            let verified = outcome.best.realize(&machine).verify(&machine).is_none();
            (outcome, verified)
        })
        .expect("spawning a 64 KiB stack thread succeeds");
    let (outcome, verified) = handle
        .join()
        .expect("the iterative search must not overflow a 64 KiB stack");
    assert!(outcome.stats.nodes_investigated > 0);
    assert!(outcome.stats.basis_size >= 24);
    assert!(verified, "the returned solution must realize the machine");
}

#[test]
fn deep_basis_search_is_identical_serial_and_parallel() {
    let machine = stress_machine();
    let config = SolverConfig {
        max_nodes: 5_000,
        time_limit: None,
        stop_at_lower_bound: true,
        ..SolverConfig::default()
    };
    let serial = OstrSolver::new(config).solve(&machine);
    let parallel = OstrSolver::new(SolverConfig {
        parallel_subtrees: 8,
        ..config
    })
    .solve(&machine);
    assert_eq!(serial.best, parallel.best);
    let (mut s, mut p) = (serial.stats, parallel.stats);
    s.elapsed_micros = 0;
    p.elapsed_micros = 0;
    assert_eq!(s, p, "parallel subtree exploration must be byte-identical");
}

/// The parallel runner on the 460-element basis, driven from a
/// minimal-stack thread: each worker count claims the subtrees in a
/// different interleaving (and discards different speculative passes),
/// none of which may reach the solution or the statistics — and the
/// reduction must keep every frame on the heap just like the serial engine.
#[test]
fn deep_basis_parallel_search_is_deterministic_across_worker_counts() {
    let machine = stress_machine();
    let config = SolverConfig {
        max_nodes: 5_000,
        time_limit: None,
        stop_at_lower_bound: true,
        ..SolverConfig::default()
    };
    let serial = OstrSolver::new(config).solve(&machine);
    for jobs in [2usize, 3, 4, 8] {
        let machine = machine.clone();
        let serial_best = serial.best.clone();
        let serial_stats = serial.stats;
        let handle = std::thread::Builder::new()
            .name(format!("ostr-parallel-{jobs}"))
            .stack_size(64 * 1024)
            .spawn(move || {
                let parallel = OstrSolver::new(SolverConfig {
                    parallel_subtrees: jobs,
                    ..config
                })
                .solve(&machine);
                assert_eq!(serial_best, parallel.best, "jobs={jobs}");
                let (mut s, mut p) = (serial_stats, parallel.stats);
                s.elapsed_micros = 0;
                p.elapsed_micros = 0;
                assert_eq!(s, p, "jobs={jobs}");
            })
            .expect("spawning a 64 KiB stack thread succeeds");
        handle
            .join()
            .expect("the parallel reduction must not overflow a 64 KiB stack");
    }
}
