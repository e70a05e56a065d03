//! The scale gate: determinism and parallel speedup of the OSTR search on
//! the smallest planted scale tier (`scale_s`, see [`stc_bench::scale`]).
//!
//! The gate first proves determinism: solver outcomes must be
//! byte-identical at 1/2/4/8 workers (stats included, modulo wall-clock) on
//! a shared [`PreparedOstr`].  Then, in a release run on a machine with at
//! least 4 cores, the 4-worker search must beat serial by >= 1.5x.  A
//! timing gate that passes on a wrong answer is worthless, so the
//! determinism asserts always run first.
//!
//! Debug builds and `--test` runs (`cargo test`) trim the node budget to
//! 5,000 and skip the timing.  The target writes no baseline: solver
//! parallelism is measured end to end by perfbench's `solver_scale`
//! workload and per kernel by `ostr_solver_v2/parallel4/*`.

use stc_bench::scale::{scale_machine, scale_solver_config, scale_tiers};
use stc_synth::{OstrOutcome, OstrSolver, PreparedOstr};
use std::time::Instant;

/// Asserts two solver outcomes are byte-identical modulo wall-clock time.
fn assert_same_outcome(serial: &OstrOutcome, other: &OstrOutcome, tier: &str, jobs: usize) {
    assert_eq!(
        serial.best, other.best,
        "{tier}: solution differs at {jobs} workers"
    );
    let mut a = serial.stats;
    let mut b = other.stats;
    a.elapsed_micros = 0;
    b.elapsed_micros = 0;
    assert_eq!(a, b, "{tier}: search stats differ at {jobs} workers");
}

fn main() {
    // Debug timings are meaningless, so debug builds always run the reduced
    // mode; `--bench` and test filters are cargo's business.
    let test_mode = cfg!(debug_assertions) || std::env::args().any(|arg| arg == "--test");
    let mut tier = scale_tiers()[0];
    if test_mode {
        // Debug builds pay ~10-20x per node; trim the budget so `cargo
        // test` stays quick while still exercising every code path.
        tier.max_nodes = 5_000;
    }
    let machine = scale_machine(&tier);
    let prepared = PreparedOstr::new(&machine);
    let serial_solver = OstrSolver::new(scale_solver_config(&tier, 1));
    let serial = serial_solver.solve_prepared(&prepared);
    for jobs in [2, 4, 8] {
        let solver = OstrSolver::new(scale_solver_config(&tier, jobs));
        assert_same_outcome(&serial, &solver.solve_prepared(&prepared), tier.name, jobs);
    }
    eprintln!(
        "scale gate: {} solver outcomes byte-identical at 1/2/4/8 workers \
         ({} nodes, basis {})",
        tier.name,
        serial.stats.nodes_investigated,
        prepared.basis_size()
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if test_mode {
        eprintln!("scale gate: test mode, timing assertions skipped");
    } else if cores < 4 {
        eprintln!("scale gate: {cores} core(s) available, speedup assertion skipped");
    } else {
        // Minimum of three runs per configuration: load noise is one-sided,
        // and the gate compares a ratio from the same process on the same
        // machine, so runner-to-runner absolute speed cannot fail it.
        let ws4_solver = OstrSolver::new(scale_solver_config(&tier, 4));
        let time_min = |solver: &OstrSolver| {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let outcome = solver.solve_prepared(&prepared);
                    let elapsed = t0.elapsed();
                    assert_same_outcome(&serial, &outcome, tier.name, 0);
                    elapsed
                })
                .min()
                .expect("three samples")
        };
        let serial_time = time_min(&serial_solver);
        let ws4_time = time_min(&ws4_solver);
        let speedup = serial_time.as_secs_f64() / ws4_time.as_secs_f64();
        eprintln!(
            "scale gate: {} serial {:.1}ms vs 4 workers {:.1}ms = {speedup:.2}x on {cores} cores",
            tier.name,
            serial_time.as_secs_f64() * 1e3,
            ws4_time.as_secs_f64() * 1e3
        );
        assert!(
            speedup >= 1.5,
            "parallel-subtree speedup gate: expected >= 1.5x at 4 workers on {cores} cores, \
             measured {speedup:.2}x"
        );
    }
    println!("scale gate passed");
}
