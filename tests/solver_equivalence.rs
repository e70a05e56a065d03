//! Frozen OSTR search statistics for the embedded suite.
//!
//! The search engine is tuned for speed (joins counted before they are
//! applied, one κ per worker joined in place and undone along a trail,
//! Lemma 1 checked on the merged blocks only, a pairwise Lemma 1 prefilter,
//! a basis closed once per pair-graph component), and every such change
//! must be invisible: same node order, same prunes, same solution.  This
//! test pins, for every embedded machine, the full
//! [`SearchStats`] except the wall clock and a digest of the best `(π, τ)`
//! under {branch and bound on, off} × {`stop_at_lower_bound` on, off}, plus
//! a few budget-limited and Lemma-1-off runs, each at one and two solver
//! workers.  The values were recorded from the engine before those
//! optimisations; `tests/golden/search_stats.json` pins only the default
//! configuration.

use stc::fsm::{benchmarks, planted_decomposable, Mealy, PlantedSpec};
use stc::partition::{symmetric_basis, symmetric_pair_closure, Partition};
use stc::synth::{OstrOutcome, OstrSolver, PreparedOstr, SolverConfig};

/// One pinned search: the configuration and its expected outcome.
struct Row {
    machine: &'static str,
    bnb: bool,
    stop: bool,
    lemma1: bool,
    max_nodes: u64,
    /// `basis_size`, `nodes_investigated`, `subtrees_pruned`,
    /// `subtrees_bound_pruned`, `solutions_found`.
    counts: [u64; 5],
    /// `budget_exhausted`, `cancelled`.
    flags: [bool; 2],
    /// `|S1|`, `|S2|` of the best solution.
    cost: (usize, usize),
    /// [`pair_digest`] of the best solution.
    digest: u64,
}

#[allow(clippy::too_many_arguments)]
const fn row(
    machine: &'static str,
    bnb: bool,
    stop: bool,
    lemma1: bool,
    max_nodes: u64,
    counts: [u64; 5],
    flags: [bool; 2],
    cost: (usize, usize),
    digest: u64,
) -> Row {
    Row {
        machine,
        bnb,
        stop,
        lemma1,
        max_nodes,
        counts,
        flags,
        cost,
        digest,
    }
}

/// FNV-1a over the `Display` rendering `"{π}|{τ}"` of the best pair.
fn pair_digest(outcome: &OstrOutcome) -> u64 {
    stc::fsm::fnv1a(format!("{}|{}", outcome.best.pi, outcome.best.tau).as_bytes())
}

/// `row(machine, bnb, stop, lemma1, max_nodes, counts, flags, cost, digest)`.
#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    row("bbara", true, true, true, 100000, [67, 12523, 10776, 12, 1747], [false, false], (6, 6), 0x4e7deeda265cae65),
    row("bbara", true, false, true, 100000, [67, 12523, 10776, 12, 1747], [false, false], (6, 6), 0x4e7deeda265cae65),
    row("bbara", false, true, true, 100000, [67, 12535, 10788, 0, 1747], [false, false], (6, 6), 0x4e7deeda265cae65),
    row("bbara", false, false, true, 100000, [67, 12535, 10788, 0, 1747], [false, false], (6, 6), 0x4e7deeda265cae65),
    row("bbara", true, false, false, 2000, [67, 2000, 0, 7250, 1], [true, false], (10, 10), 0x9a81a4c6bad762b1),
    row("bbara", true, true, true, 1, [67, 1, 0, 0, 1], [true, false], (10, 10), 0x9a81a4c6bad762b1),
    row("bbara", true, true, true, 17, [67, 17, 15, 0, 2], [true, false], (6, 7), 0x094fb7dc9dfc408b),
    row("bbara", true, true, true, 300, [67, 300, 280, 9, 20], [true, false], (6, 6), 0x4e7deeda265cae65),
    row("bbara", true, true, true, 5000, [67, 5000, 4526, 12, 474], [true, false], (6, 6), 0x4e7deeda265cae65),
    row("bbtas", true, true, true, 100000, [2, 2, 1, 1, 1], [false, false], (6, 6), 0xf85375ccc7934c35),
    row("bbtas", true, false, true, 100000, [2, 2, 1, 1, 1], [false, false], (6, 6), 0xf85375ccc7934c35),
    row("bbtas", false, true, true, 100000, [2, 3, 2, 0, 1], [false, false], (6, 6), 0xf85375ccc7934c35),
    row("bbtas", false, false, true, 100000, [2, 3, 2, 0, 1], [false, false], (6, 6), 0xf85375ccc7934c35),
    row("bbtas", true, false, false, 2000, [2, 2, 0, 1, 1], [false, false], (6, 6), 0xf85375ccc7934c35),
    row("dk14", true, true, true, 100000, [1, 1, 0, 1, 1], [false, false], (7, 7), 0xbde777cab48d6c63),
    row("dk14", true, false, true, 100000, [1, 1, 0, 1, 1], [false, false], (7, 7), 0xbde777cab48d6c63),
    row("dk14", false, true, true, 100000, [1, 2, 1, 0, 1], [false, false], (7, 7), 0xbde777cab48d6c63),
    row("dk14", false, false, true, 100000, [1, 2, 1, 0, 1], [false, false], (7, 7), 0xbde777cab48d6c63),
    row("dk14", true, false, false, 2000, [1, 1, 0, 1, 1], [false, false], (7, 7), 0xbde777cab48d6c63),
    row("dk15", true, true, true, 100000, [1, 1, 0, 1, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("dk15", true, false, true, 100000, [1, 1, 0, 1, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("dk15", false, true, true, 100000, [1, 2, 1, 0, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("dk15", false, false, true, 100000, [1, 2, 1, 0, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("dk15", true, false, false, 2000, [1, 1, 0, 1, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("dk16", true, true, true, 100000, [3, 3, 0, 2, 3], [false, false], (15, 15), 0xc29d070e990e4ca3),
    row("dk16", true, false, true, 100000, [3, 3, 0, 2, 3], [false, false], (15, 15), 0xc29d070e990e4ca3),
    row("dk16", false, true, true, 100000, [3, 5, 2, 0, 3], [false, false], (15, 15), 0xc29d070e990e4ca3),
    row("dk16", false, false, true, 100000, [3, 5, 2, 0, 3], [false, false], (15, 15), 0xc29d070e990e4ca3),
    row("dk16", true, false, false, 2000, [3, 3, 0, 2, 3], [false, false], (15, 15), 0xc29d070e990e4ca3),
    row("dk17", true, true, true, 100000, [1, 1, 0, 1, 1], [false, false], (8, 8), 0x4753f5a295823bc7),
    row("dk17", true, false, true, 100000, [1, 1, 0, 1, 1], [false, false], (8, 8), 0x4753f5a295823bc7),
    row("dk17", false, true, true, 100000, [1, 2, 1, 0, 1], [false, false], (8, 8), 0x4753f5a295823bc7),
    row("dk17", false, false, true, 100000, [1, 2, 1, 0, 1], [false, false], (8, 8), 0x4753f5a295823bc7),
    row("dk17", true, false, false, 2000, [1, 1, 0, 1, 1], [false, false], (8, 8), 0x4753f5a295823bc7),
    row("dk27", true, true, true, 100000, [33, 444, 339, 9, 105], [false, false], (4, 5), 0xa2da4672ba0acc05),
    row("dk27", true, false, true, 100000, [33, 444, 339, 9, 105], [false, false], (4, 5), 0xa2da4672ba0acc05),
    row("dk27", false, true, true, 100000, [33, 453, 348, 0, 105], [false, false], (4, 5), 0xa2da4672ba0acc05),
    row("dk27", false, false, true, 100000, [33, 453, 348, 0, 105], [false, false], (4, 5), 0xa2da4672ba0acc05),
    row("dk27", true, false, false, 2000, [33, 1864, 0, 611, 105], [false, false], (4, 5), 0xa2da4672ba0acc05),
    row("dk512", true, true, true, 100000, [9, 22, 11, 2, 11], [false, false], (4, 5), 0x84c1e6d0d450a00d),
    row("dk512", true, false, true, 100000, [9, 22, 11, 2, 11], [false, false], (4, 5), 0x84c1e6d0d450a00d),
    row("dk512", false, true, true, 100000, [9, 24, 13, 0, 11], [false, false], (4, 5), 0x84c1e6d0d450a00d),
    row("dk512", false, false, true, 100000, [9, 24, 13, 0, 11], [false, false], (4, 5), 0x84c1e6d0d450a00d),
    row("dk512", true, false, false, 2000, [9, 24, 0, 5, 11], [false, false], (4, 5), 0x84c1e6d0d450a00d),
    row("mc", true, true, true, 100000, [1, 1, 0, 1, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("mc", true, false, true, 100000, [1, 1, 0, 1, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("mc", false, true, true, 100000, [1, 2, 1, 0, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("mc", false, false, true, 100000, [1, 2, 1, 0, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("mc", true, false, false, 2000, [1, 1, 0, 1, 1], [false, false], (4, 4), 0x1591a953ea41849f),
    row("ex1", true, true, true, 100000, [1, 1, 0, 1, 1], [false, false], (20, 20), 0x548ecd94f1303dbf),
    row("ex1", true, false, true, 100000, [1, 1, 0, 1, 1], [false, false], (20, 20), 0x548ecd94f1303dbf),
    row("ex1", false, true, true, 100000, [1, 2, 1, 0, 1], [false, false], (20, 20), 0x548ecd94f1303dbf),
    row("ex1", false, false, true, 100000, [1, 2, 1, 0, 1], [false, false], (20, 20), 0x548ecd94f1303dbf),
    row("ex1", true, false, false, 2000, [1, 1, 0, 1, 1], [false, false], (20, 20), 0x548ecd94f1303dbf),
    row("shiftreg", true, true, true, 100000, [32, 36, 2, 22, 34], [false, false], (2, 4), 0x055b13968e6b75b3),
    row("shiftreg", true, false, true, 100000, [32, 5, 2, 72, 3], [false, false], (2, 4), 0x055b13968e6b75b3),
    row("shiftreg", false, true, true, 100000, [32, 58, 22, 0, 36], [false, false], (2, 4), 0x055b13968e6b75b3),
    row("shiftreg", false, false, true, 100000, [32, 2281, 1830, 0, 451], [false, false], (2, 4), 0x055b13968e6b75b3),
    row("shiftreg", true, false, false, 2000, [32, 5, 0, 101, 3], [false, false], (2, 4), 0x055b13968e6b75b3),
    row("shiftreg", false, false, false, 3000, [32, 3000, 0, 0, 17], [true, false], (2, 4), 0x055b13968e6b75b3),
    row("tav", true, true, true, 100000, [3, 4, 1, 0, 3], [false, false], (2, 2), 0x30d4cf167a303e91),
    row("tav", true, false, true, 100000, [3, 2, 0, 4, 2], [false, false], (2, 2), 0x30d4cf167a303e91),
    row("tav", false, true, true, 100000, [3, 4, 1, 0, 3], [false, false], (2, 2), 0x30d4cf167a303e91),
    row("tav", false, false, true, 100000, [3, 7, 4, 0, 3], [false, false], (2, 2), 0x30d4cf167a303e91),
    row("tav", true, false, false, 2000, [3, 2, 0, 4, 2], [false, false], (2, 2), 0x30d4cf167a303e91),
    row("tbk", true, true, true, 100000, [73, 28126, 22709, 24585, 5417], [false, false], (11, 11), 0xbd94854c3454eaef),
    row("tbk", true, false, true, 100000, [73, 28126, 22709, 24585, 5417], [false, false], (11, 11), 0xbd94854c3454eaef),
    row("tbk", false, true, true, 100000, [73, 52711, 47294, 0, 5417], [false, false], (11, 11), 0xbd94854c3454eaef),
    row("tbk", false, false, true, 100000, [73, 52711, 47294, 0, 5417], [false, false], (11, 11), 0xbd94854c3454eaef),
    row("tbk", true, false, false, 2000, [73, 2000, 0, 6191, 162], [true, false], (11, 11), 0xbd94854c3454eaef),
    row("tbk", true, false, true, 10000, [73, 10000, 8434, 10928, 1566], [true, false], (11, 11), 0xbd94854c3454eaef),
    row("tbk", false, false, true, 30000, [73, 30000, 27564, 0, 2436], [true, false], (11, 11), 0xbd94854c3454eaef),
];

#[test]
fn search_statistics_match_the_frozen_values() {
    let mut machines = benchmarks::suite();
    assert_eq!(machines.len(), 13, "every embedded machine is covered");
    machines.retain(|b| EXPECTED.iter().any(|r| r.machine == b.name()));
    assert_eq!(machines.len(), 13, "every embedded machine has rows");
    for bench in &machines {
        let prepared = PreparedOstr::new(&bench.machine);
        for r in EXPECTED.iter().filter(|r| r.machine == bench.name()) {
            for jobs in [1, 2] {
                let outcome = OstrSolver::new(SolverConfig {
                    max_nodes: r.max_nodes,
                    time_limit: None,
                    lemma1_pruning: r.lemma1,
                    stop_at_lower_bound: r.stop,
                    branch_and_bound: r.bnb,
                    parallel_subtrees: jobs,
                })
                .solve_prepared(&prepared);
                let s = outcome.stats;
                let context = format!(
                    "{} bnb={} stop={} lemma1={} max_nodes={} jobs={jobs}: best {} | {}",
                    r.machine,
                    r.bnb,
                    r.stop,
                    r.lemma1,
                    r.max_nodes,
                    outcome.best.pi,
                    outcome.best.tau
                );
                assert_eq!(
                    [
                        s.basis_size as u64,
                        s.nodes_investigated,
                        s.subtrees_pruned,
                        s.subtrees_bound_pruned,
                        s.solutions_found,
                    ],
                    r.counts,
                    "{context}"
                );
                assert_eq!([s.budget_exhausted, s.cancelled], r.flags, "{context}");
                assert_eq!(
                    (outcome.best.cost.s1(), outcome.best.cost.s2()),
                    r.cost,
                    "{context}"
                );
                assert_eq!(pair_digest(&outcome), r.digest, "{context}");
            }
        }
    }
}

/// The basis as the per-pair closures define it: the closure of every state
/// pair `s < t` and its mirror, deduplicated and in `symmetric_basis` order
/// (total blocks, then the `Display` rendering).
fn basis_of_pair_closures(machine: &Mealy) -> Vec<(Partition, Partition)> {
    let n = machine.num_states();
    let mut basis: Vec<(Partition, Partition)> = Vec::new();
    for s in 0..n {
        for t in (s + 1)..n {
            let (pi, tau) = symmetric_pair_closure(machine, s, t);
            for pair in [(pi.clone(), tau.clone()), (tau, pi)] {
                if !basis.contains(&pair) {
                    basis.push(pair);
                }
            }
        }
    }
    basis.sort_by_key(|(pi, tau)| (pi.num_blocks() + tau.num_blocks(), format!("{pi}|{tau}")));
    basis
}

/// `symmetric_basis` closes each pair-graph component once instead of each
/// state pair; its output must be the per-pair closures' basis, element for
/// element and in order, on every embedded machine and on the `scale_s`
/// planted machine (107 states, 5,671 pair closures, 33 elements).
#[test]
fn the_basis_is_the_deduplicated_pair_closures() {
    let scale_s = PlantedSpec {
        rows: 13,
        cols: 12,
        states: 156,
        inputs: 4,
        outputs: 2,
        map_pairs: 2,
        seed: 1,
        max_attempts: 50,
    };
    let scale_s = planted_decomposable("scale_s", scale_s).0;
    assert_eq!(scale_s.num_states(), 107);
    assert_eq!(symmetric_basis(&scale_s).len(), 33);
    let mut machines: Vec<Mealy> = benchmarks::suite().into_iter().map(|b| b.machine).collect();
    assert_eq!(machines.len(), 13, "every embedded machine is covered");
    machines.push(scale_s);
    for machine in &machines {
        assert_eq!(
            symmetric_basis(machine),
            basis_of_pair_closures(machine),
            "{}",
            machine.name()
        );
    }
}
