//! The 10–100x scale suite: speedup-vs-threads curves on planted machines.
//!
//! Two groups, both over the tiers of [`stc_bench::scale`]:
//!
//! * `ostr_solver_scale/{serial,ws2,ws4,ws8}/<tier>` — the parallel-subtree
//!   OSTR search at 1/2/4/8 workers on a shared [`PreparedOstr`] (basis
//!   construction is serial and identical in every configuration, so it is
//!   excluded from the timed region);
//! * `fault_sim_scale/{packed_narrow,packed_wide}/<tier>` — the PP-SFP
//!   fault simulator on the gate-level fault tiers (decoupled from the
//!   solver tiers; see `stc_bench::scale`): 64-pattern narrow blocks as the
//!   reference and the 256-pattern SIMD-wide superblocks.
//!
//! Every full or smoke run re-proves determinism before timing anything:
//! solver outcomes must be byte-identical across all worker counts (stats
//! included, modulo wall-clock), and fault-sim verdicts must be identical
//! narrow-vs-wide.  A timing gate that passes on a
//! wrong answer is worthless.
//!
//! Flags (after `--` under cargo): `--smoke` runs the CI scale gate — the
//! smallest tier only, all correctness checks, the 1-vs-4-worker speedup
//! assertion (skipped below 4 cores), no baseline write.  Under `cargo
//! test` the target runs in reduced test mode: a trimmed node budget and
//! pattern count, correctness checks only, no timing, no file writes.
//! A plain `cargo bench --bench scale` runs the full sweep and writes
//! `BENCH_scale.json` (the committed baseline lives in `crates/bench/`;
//! see README for the re-baselining workflow).

use criterion::{BenchmarkId, Criterion};
use stc_bench::scale::{
    fault_machine, fault_tiers, scale_machine, scale_solver_config, scale_tiers, FaultTier,
    SOLVER_WORKER_COUNTS,
};
use stc_bist::{fault_list, lfsr_patterns, simulate_faults_packed, PackedPatterns, StuckAtFault};
use stc_encoding::{EncodedMachine, EncodingStrategy};
use stc_logic::{synthesize_controller, Netlist, SynthOptions};
use stc_synth::{OstrOutcome, OstrSolver, PreparedOstr};
use std::time::Instant;

struct Options {
    /// `cargo test` reduced mode (`--test`, or any debug build).
    test_mode: bool,
    /// Correctness + 1-vs-4 speedup gate for CI (`--smoke`).
    smoke: bool,
}

fn parse_args() -> Options {
    let mut options = Options {
        // Debug timings are meaningless, so debug builds always run the
        // reduced correctness-only mode and never write a baseline.
        test_mode: cfg!(debug_assertions),
        smoke: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--test" => options.test_mode = true,
            "--smoke" => options.smoke = true,
            // `--bench` and test filters are cargo's business.
            _ => {}
        }
    }
    options
}

/// The monolithic controller netlist of a fault tier's planted machine.
fn scale_netlist(tier: &FaultTier) -> Netlist {
    let machine = fault_machine(tier);
    let encoded = EncodedMachine::new(&machine, EncodingStrategy::Binary);
    synthesize_controller(&encoded, SynthOptions::default())
        .block
        .netlist
}

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

/// The pre-superblock reference: PP-SFP over narrow 64-pattern blocks with
/// per-block fault dropping.  Kept as a measured baseline so the committed
/// `BENCH_scale.json` records the SIMD-widening speedup itself, not just the
/// widened kernel's absolute time.
fn narrow_packed(
    netlist: &Netlist,
    patterns: &[Vec<bool>],
    faults: &[StuckAtFault],
) -> (usize, usize) {
    let packed = PackedPatterns::pack(netlist.num_inputs(), patterns);
    let observed: Vec<usize> = netlist.outputs().to_vec();
    let mut scratch: Vec<u64> = Vec::new();
    let mut good: Vec<Vec<u64>> = Vec::new();
    for b in 0..packed.num_blocks() {
        netlist.eval_packed_into(packed.block(b), None, &mut scratch);
        good.push(observed.iter().map(|&n| scratch[n]).collect());
    }
    let mut detected = 0usize;
    let mut undetected = 0usize;
    'faults: for fault in faults {
        for (b, gw) in good.iter().enumerate() {
            netlist.eval_packed_into(
                packed.block(b),
                Some((fault.node, fault.stuck_at)),
                &mut scratch,
            );
            let mask = packed.lane_mask(b);
            if observed
                .iter()
                .zip(gw)
                .any(|(&n, &g)| (scratch[n] ^ g) & mask != 0)
            {
                detected += 1;
                continue 'faults;
            }
        }
        undetected += 1;
    }
    (detected, undetected)
}

fn ostr_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("ostr_solver_scale");
    for tier in scale_tiers() {
        let machine = scale_machine(&tier);
        let prepared = PreparedOstr::new(&machine);
        let serial = OstrSolver::new(scale_solver_config(&tier, 1)).solve_prepared(&prepared);
        for jobs in SOLVER_WORKER_COUNTS {
            let solver = OstrSolver::new(scale_solver_config(&tier, jobs));
            assert_same_outcome(&serial, &solver.solve_prepared(&prepared), tier.name, jobs);
            let label = if jobs == 1 {
                "serial".to_string()
            } else {
                format!("ws{jobs}")
            };
            group.bench_with_input(BenchmarkId::new(label, tier.name), &prepared, |b, p| {
                b.iter(|| solver.solve_prepared(p));
            });
        }
    }
    group.finish();
}

fn fault_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim_scale");
    for tier in &fault_tiers() {
        let netlist = scale_netlist(tier);
        let faults = fault_list(&netlist);
        let patterns = lfsr_patterns(netlist.num_inputs(), 1024, 1);
        let wide = simulate_faults_packed(&netlist, &patterns, &faults, None);
        let (narrow_detected, narrow_undetected) = narrow_packed(&netlist, &patterns, &faults);
        assert_eq!(
            (wide.detected, wide.undetected.len()),
            (narrow_detected, narrow_undetected),
            "{}: wide superblock verdicts differ from the narrow reference",
            tier.name
        );
        group.bench_with_input(
            BenchmarkId::new("packed_narrow", tier.name),
            &netlist,
            |b, n| {
                b.iter(|| narrow_packed(n, &patterns, &faults));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("packed_wide", tier.name),
            &netlist,
            |b, n| {
                b.iter(|| simulate_faults_packed(n, &patterns, &faults, None));
            },
        );
    }
    group.finish();
}

/// The CI scale gate (and, reduced, the `cargo test` mode): correctness on
/// the smallest tier, plus the 1-vs-4-worker speedup assertion when the
/// machine has the cores to make it meaningful.
fn run_smoke(test_mode: bool) {
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

    let fault_tier = fault_tiers()[0];
    let netlist = scale_netlist(&fault_tier);
    let faults = fault_list(&netlist);
    let pattern_count = if test_mode { 256 } else { 1024 };
    let patterns = lfsr_patterns(netlist.num_inputs(), pattern_count, 1);
    let wide = simulate_faults_packed(&netlist, &patterns, &faults, None);
    let (narrow_detected, narrow_undetected) = narrow_packed(&netlist, &patterns, &faults);
    assert_eq!(
        (wide.detected, wide.undetected.len()),
        (narrow_detected, narrow_undetected),
        "{}: wide superblock verdicts differ from the narrow reference",
        fault_tier.name
    );
    eprintln!(
        "scale gate: {} fault-sim verdicts identical narrow/wide \
         ({} faults, {} patterns, {:.1}% coverage)",
        fault_tier.name,
        faults.len(),
        pattern_count,
        100.0 * wide.coverage()
    );

    if test_mode {
        eprintln!("scale gate: test mode, timing assertions skipped");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 4 {
        eprintln!("scale gate: {cores} core(s) available, speedup assertion skipped");
        return;
    }
    // Minimum of three runs per configuration: load noise is one-sided, and
    // the gate compares a ratio from the same process on the same machine,
    // so runner-to-runner absolute speed cannot fail it.
    let ws4_solver = OstrSolver::new(scale_solver_config(&tier, 4));
    let time_min = |f: &dyn Fn() -> OstrOutcome| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                let outcome = f();
                assert_same_outcome(&serial, &outcome, tier.name, 0);
                t0.elapsed()
            })
            .min()
            .expect("three samples")
    };
    let serial_time = time_min(&|| serial_solver.solve_prepared(&prepared));
    let ws4_time = time_min(&|| ws4_solver.solve_prepared(&prepared));
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

fn main() {
    let options = parse_args();
    if options.smoke || options.test_mode {
        run_smoke(options.test_mode && !options.smoke);
        println!("scale gate passed");
        return;
    }
    let mut criterion = Criterion::default();
    ostr_scale(&mut criterion);
    fault_scale(&mut criterion);
    criterion.write_baseline("scale");
}
