//! The pruned OSTR search procedure of section 3 of the paper.
//!
//! The search space is the tree of subsets of the ordered basis
//! `𝔐 = { symmetric_pair_closure(s, t) }` — the smallest symmetric partition
//! pairs identifying one pair of states (in either orientation).  Because
//! symmetric pairs are exactly the substitution-property partitions of the
//! doubled machine, they are closed under component-wise join and every
//! symmetric pair is a join of basis elements, so enumerating subset joins is
//! *complete* for problem OSTR.  A node 𝒩 induces the candidate pair
//! `κ = (κ_π, κ_τ) = ∨𝒩`, which is itself a symmetric pair; it is a solution
//! when `κ_π ∩ κ_τ ⊆ ε`.  When that criterion fails, the whole subtree is
//! discarded (the paper's Lemma 1): joins only coarsen both components, so
//! the intersection only grows along tree edges.
//!
//! The search core (see the `engine` module and `DESIGN.md` §5) is an
//! iterative, explicit-stack branch-and-bound over one κ-pair per worker,
//! joined in place and taken back along an undo trail: no recursion, no
//! per-node allocation.  On top of Lemma 1 it
//! prunes subtrees whose cost lower bound cannot beat the incumbent
//! ([`SolverConfig::branch_and_bound`]) and can explore the root's subtrees
//! on scoped worker threads ([`SolverConfig::parallel_subtrees`]) with a
//! deterministic reduction, so results — solution *and* statistics — are
//! byte-identical to a serial run.

use crate::cost::Cost;
use crate::engine;
use crate::observe::{NullSearchObserver, SearchObserver};
use crate::realization::Realization;
use stc_fsm::{state_equivalence, Mealy};
use stc_partition::{symmetric_basis, Partition};
use std::time::{Duration, Instant};

/// Configuration of the OSTR search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Maximum number of search-tree nodes to investigate before giving up
    /// and returning the best solution found so far (the paper's time limit
    /// for `tbk` plays the same role).
    pub max_nodes: u64,
    /// Optional wall-clock limit.  Unlike the node budget this makes results
    /// depend on machine speed; leave `None` for reproducible statistics.
    pub time_limit: Option<Duration>,
    /// Enable the Lemma 1 pruning (disable only for the ablation benchmark —
    /// the search is exponential without it).
    pub lemma1_pruning: bool,
    /// Stop as soon as a solution reaching the information-theoretic lower
    /// bound `|S1| · |S2| = |S|` with balanced factors is found.  This is a
    /// heuristic early stop: it does not change the result for any machine
    /// in the benchmark suite but shortens the search for machines like
    /// `shiftreg`/`tav`.  In exact-cost-tie corners (possible only when
    /// distinct factor pairs tie in both register bits and balance) it can
    /// stop at a different equally-ranked solution than an exhaustive run —
    /// see `DESIGN.md` §5.
    pub stop_at_lower_bound: bool,
    /// Enable the branch-and-bound layer: subtrees whose cost lower bound
    /// cannot strictly beat the incumbent are discarded before they are
    /// visited.  With `stop_at_lower_bound` off (the default) this never
    /// changes the reported solution, only `nodes_investigated` /
    /// `solutions_found` and the `subtrees_bound_pruned` counter; with the
    /// early stop on, the exact-cost-tie caveat of that flag applies to the
    /// combination too (see `DESIGN.md` §5).
    pub branch_and_bound: bool,
    /// Number of worker threads for exploring the root's subtrees
    /// (`<= 1` selects the serial path).  Workers claim whole top-level
    /// subtrees from an atomic counter, so the speedup is capped by the
    /// largest subtree's share of the nodes (`DESIGN.md` §12).  The
    /// parallel reduction is deterministic: solution and statistics are
    /// byte-identical to a serial run with the same configuration.
    pub parallel_subtrees: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            max_nodes: 2_000_000,
            time_limit: Some(Duration::from_secs(30)),
            lemma1_pruning: true,
            stop_at_lower_bound: false,
            branch_and_bound: true,
            parallel_subtrees: 1,
        }
    }
}

/// Statistics gathered during the search (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Size of the basis `|𝔐|`; the full search tree has `2^|𝔐|` nodes.
    pub basis_size: usize,
    /// Number of nodes actually investigated.
    pub nodes_investigated: u64,
    /// Number of subtrees discarded by the Lemma 1 criterion.
    pub subtrees_pruned: u64,
    /// Number of subtrees discarded by the branch-and-bound cost lower
    /// bound before being visited (0 when the layer is disabled).
    pub subtrees_bound_pruned: u64,
    /// Number of candidate pairs that were accepted as OSTR solutions
    /// (improving or not).
    pub solutions_found: u64,
    /// `true` if the node or time budget was exhausted before the search
    /// completed (the returned solution is then a best effort, like the
    /// paper's `tbk` row).
    pub budget_exhausted: bool,
    /// `true` if a [`SearchObserver`] requested a cooperative stop before
    /// the search completed.  Implies `budget_exhausted` (cancellation is
    /// handled exactly like running out of budget: the best solution found
    /// so far is returned).
    pub cancelled: bool,
    /// Wall-clock time of the search, in microseconds.
    pub elapsed_micros: u64,
}

impl SearchStats {
    /// `log2` of the full search-tree size `2^|𝔐|`.
    #[must_use]
    pub fn log2_tree_size(&self) -> u32 {
        self.basis_size as u32
    }
}

/// A solution of problem OSTR: a symmetric partition pair with
/// `π ∩ τ ⊆ ε`, its cost, and the Theorem 1 realization built from it.
#[derive(Debug, Clone, PartialEq)]
pub struct OstrSolution {
    /// The first partition `π` (`S1 = S/π`).
    pub pi: Partition,
    /// The second partition `τ` (`S2 = S/τ`).
    pub tau: Partition,
    /// The OSTR cost of the pair.
    pub cost: Cost,
}

impl OstrSolution {
    /// `true` if this is the trivial doubling solution.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.pi.is_identity() && self.tau.is_identity()
    }

    /// Builds the Theorem 1 realization for this solution.
    #[must_use]
    pub fn realize(&self, machine: &Mealy) -> Realization {
        Realization::from_checked_pair(machine, self.pi.clone(), self.tau.clone())
    }
}

/// The result of an OSTR search: the best solution found plus statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct OstrOutcome {
    /// The best (lowest-cost) solution found.  Always present: the trivial
    /// doubling solution is a valid fallback.
    pub best: OstrSolution,
    /// Search statistics.
    pub stats: SearchStats,
}

impl OstrOutcome {
    /// Convenience: `⌈log2|S1|⌉ + ⌈log2|S2|⌉` of the best solution.
    #[must_use]
    pub fn pipeline_flipflops(&self) -> u32 {
        self.best.cost.register_bits()
    }
}

/// The OSTR solver.
///
/// # Example
///
/// ```
/// use stc_fsm::paper_example;
/// use stc_synth::{OstrSolver, SolverConfig};
///
/// let machine = paper_example();
/// let outcome = OstrSolver::new(SolverConfig::default()).solve(&machine);
/// // The paper's example decomposes into two 2-state factors (Fig. 6–8).
/// assert_eq!(outcome.best.cost.s1(), 2);
/// assert_eq!(outcome.best.cost.s2(), 2);
/// assert_eq!(outcome.pipeline_flipflops(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct OstrSolver {
    config: SolverConfig,
}

impl OstrSolver {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(config: SolverConfig) -> Self {
        Self { config }
    }

    /// Creates a solver with [`SolverConfig::default`].
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The solver's configuration.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Runs the branch-and-bound OSTR search on `machine`.
    ///
    /// The search always terminates with a valid solution because the trivial
    /// doubling pair `(identity, identity)` is a solution of OSTR (the
    /// identity intersection is contained in every `ε`).
    #[must_use]
    pub fn solve(&self, machine: &Mealy) -> OstrOutcome {
        self.solve_observed(machine, &NullSearchObserver)
    }

    /// Runs the search with a side-channel [`SearchObserver`]: progress
    /// ticks, incumbent improvements and a cooperative-cancellation poll.
    ///
    /// An observer that never requests a stop is invisible — solution and
    /// statistics are byte-identical to [`Self::solve`].  When the observer
    /// requests a stop, the best solution found so far is returned with
    /// [`SearchStats::cancelled`] (and [`SearchStats::budget_exhausted`])
    /// set, so a cancelled search still yields a well-formed outcome.
    #[must_use]
    pub fn solve_observed(&self, machine: &Mealy, observer: &dyn SearchObserver) -> OstrOutcome {
        self.solve_prepared_observed(&PreparedOstr::new(machine), observer)
    }

    /// Runs the search on a machine prepared with [`PreparedOstr::new`],
    /// reusing its precomputed ε and symmetric-pair basis.
    ///
    /// Byte-identical (solution and statistics, wall clock aside) to
    /// [`Self::solve`] on the underlying machine; only the setup cost is
    /// amortised.
    #[must_use]
    pub fn solve_prepared(&self, prepared: &PreparedOstr) -> OstrOutcome {
        self.solve_prepared_observed(prepared, &NullSearchObserver)
    }

    /// [`Self::solve_prepared`] with a side-channel [`SearchObserver`].
    #[must_use]
    pub fn solve_prepared_observed(
        &self,
        prepared: &PreparedOstr,
        observer: &dyn SearchObserver,
    ) -> OstrOutcome {
        let start = Instant::now();
        let deadline = self.config.time_limit.map(|d| start + d);
        let problem = engine::SearchProblem::new(
            prepared.n,
            &prepared.eps,
            &prepared.basis,
            self.config,
            deadline,
            observer,
        );
        let (best, engine_stats) = engine::run_search(&problem);
        if engine_stats.exhausted && !engine_stats.cancelled {
            observer.on_budget_exhausted();
        }
        let stats = SearchStats {
            basis_size: prepared.basis.len(),
            nodes_investigated: engine_stats.nodes,
            subtrees_pruned: engine_stats.pruned,
            subtrees_bound_pruned: engine_stats.bound_pruned,
            solutions_found: engine_stats.solutions,
            budget_exhausted: engine_stats.exhausted,
            cancelled: engine_stats.cancelled,
            elapsed_micros: start.elapsed().as_micros() as u64,
        };
        OstrOutcome { best, stats }
    }
}

/// A machine prepared for repeated OSTR searches: the state-equivalence
/// partition ε and the symmetric-pair basis 𝔐 — the serial, search-invariant
/// setup of [`OstrSolver::solve`] — computed once and reused across solves.
///
/// Solving the same machine under several configurations (different budgets,
/// worker counts) repays the basis construction only once;
/// [`OstrSolver::solve_prepared`] is byte-identical to [`OstrSolver::solve`]
/// per call.  The scale benches use this to measure the parallel *search* in
/// isolation: the basis is identical serial work in every configuration and
/// would otherwise flatten any speedup-vs-threads curve.
#[derive(Debug, Clone)]
pub struct PreparedOstr {
    n: usize,
    eps: Partition,
    basis: Vec<(Partition, Partition)>,
}

impl PreparedOstr {
    /// Computes ε and the symmetric-pair basis of `machine`.
    #[must_use]
    pub fn new(machine: &Mealy) -> Self {
        Self {
            n: machine.num_states(),
            eps: state_equivalence(machine),
            basis: symmetric_basis(machine),
        }
    }

    /// Size of the symmetric-pair basis `|𝔐|`.
    #[must_use]
    pub fn basis_size(&self) -> usize {
        self.basis.len()
    }
}

/// Convenience function: solve OSTR with the default configuration.
#[must_use]
pub fn solve(machine: &Mealy) -> OstrOutcome {
    OstrSolver::with_defaults().solve(machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_fsm::benchmarks;
    use stc_fsm::paper_example;

    #[test]
    fn paper_example_finds_the_2x2_solution() {
        let outcome = solve(&paper_example());
        assert_eq!(outcome.best.cost, Cost::new(2, 2));
        assert!(!outcome.best.is_trivial());
        assert!(!outcome.stats.budget_exhausted);
        let r = outcome.best.realize(&paper_example());
        assert_eq!(r.verify(&paper_example()), None);
    }

    #[test]
    fn shiftreg_reaches_the_lower_bound() {
        let m = benchmarks::by_name("shiftreg").unwrap().machine;
        let outcome = solve(&m);
        // Paper Table 1: |S1| = 4, |S2| = 2 (3 flip-flops); orientation of the
        // two registers is symmetric, so accept either.
        assert_eq!(outcome.pipeline_flipflops(), 3);
        assert_eq!(
            outcome.best.cost.s1() * outcome.best.cost.s2(),
            m.num_states()
        );
        let r = outcome.best.realize(&m);
        assert_eq!(r.verify(&m), None);
    }

    #[test]
    fn tav_reaches_the_lower_bound() {
        let m = benchmarks::by_name("tav").unwrap().machine;
        let outcome = solve(&m);
        assert_eq!(outcome.best.cost, Cost::new(2, 2));
        assert_eq!(outcome.pipeline_flipflops(), 2);
    }

    #[test]
    fn prepared_solve_is_byte_identical_to_solve() {
        for name in ["shiftreg", "bbara"] {
            let m = benchmarks::by_name(name).unwrap().machine;
            let prepared = PreparedOstr::new(&m);
            for jobs in [1usize, 4] {
                let solver = OstrSolver::new(SolverConfig {
                    max_nodes: 5_000,
                    parallel_subtrees: jobs,
                    ..SolverConfig::default()
                });
                let direct = solver.solve(&m);
                // Repeated solves on the same prepared machine must all agree
                // with the direct solve — setup is amortised, nothing else.
                for _ in 0..2 {
                    let via_prepared = solver.solve_prepared(&prepared);
                    assert_eq!(direct.best, via_prepared.best, "{name} jobs={jobs}");
                    let (mut a, mut b) = (direct.stats, via_prepared.stats);
                    a.elapsed_micros = 0;
                    b.elapsed_micros = 0;
                    assert_eq!(a, b, "{name} jobs={jobs}");
                }
            }
            assert_eq!(prepared.basis_size(), symmetric_basis(&m).len());
        }
    }

    #[test]
    fn solutions_are_never_worse_than_trivial() {
        for b in benchmarks::suite() {
            if b.machine.num_states() > 12 {
                continue; // keep the unit test fast; large machines run in benches
            }
            let outcome = OstrSolver::new(SolverConfig {
                max_nodes: 200_000,
                time_limit: Some(Duration::from_secs(5)),
                ..SolverConfig::default()
            })
            .solve(&b.machine);
            assert!(
                outcome.best.cost <= Cost::trivial(b.machine.num_states()),
                "{}",
                b.name()
            );
            let r = outcome.best.realize(&b.machine);
            assert_eq!(r.verify(&b.machine), None, "{}", b.name());
        }
    }

    #[test]
    fn pruning_does_not_change_the_result_on_small_machines() {
        for name in ["dk15", "mc", "tav"] {
            let m = benchmarks::by_name(name).unwrap().machine;
            let pruned = OstrSolver::new(SolverConfig::default()).solve(&m);
            let unpruned = OstrSolver::new(SolverConfig {
                lemma1_pruning: false,
                max_nodes: 5_000_000,
                time_limit: Some(Duration::from_secs(20)),
                ..SolverConfig::default()
            })
            .solve(&m);
            assert_eq!(pruned.best.cost, unpruned.best.cost, "{name}");
            assert!(
                pruned.stats.nodes_investigated <= unpruned.stats.nodes_investigated,
                "{name}: pruning must not increase the node count"
            );
        }
    }

    #[test]
    fn branch_and_bound_preserves_the_solution_exactly() {
        for name in ["dk27", "dk512", "shiftreg", "bbara", "tav"] {
            let m = benchmarks::by_name(name).unwrap().machine;
            let base = SolverConfig {
                max_nodes: 100_000,
                time_limit: None,
                stop_at_lower_bound: true,
                ..SolverConfig::default()
            };
            let with = OstrSolver::new(SolverConfig {
                branch_and_bound: true,
                ..base
            })
            .solve(&m);
            let without = OstrSolver::new(SolverConfig {
                branch_and_bound: false,
                ..base
            })
            .solve(&m);
            // The bound may only discard subtrees that cannot improve on an
            // earlier incumbent, so the reported solution — not just its
            // cost — is identical.
            assert_eq!(with.best, without.best, "{name}");
            assert!(
                with.stats.nodes_investigated <= without.stats.nodes_investigated,
                "{name}: the bound must not increase the node count"
            );
            assert_eq!(without.stats.subtrees_bound_pruned, 0, "{name}");
        }
    }

    /// The iterative engine with branch and bound disabled is a faithful
    /// rewrite of the recursive reference implementation: it must reproduce
    /// that solver's statistics *exactly*.  The expected values are the
    /// numbers the recursive solver produced for the embedded suite under
    /// the pipeline configuration (committed in PR 2's golden report).
    #[test]
    fn legacy_search_statistics_are_reproduced_exactly() {
        // (machine, basis_size, nodes_investigated, subtrees_pruned)
        let expected = [
            ("bbara", 67, 12_535, 10_788),
            ("dk27", 33, 453, 348),
            ("dk512", 9, 24, 13),
            ("shiftreg", 32, 58, 22),
            ("tav", 3, 4, 1),
            ("tbk", 73, 52_711, 47_294),
        ];
        for (name, basis, nodes, pruned) in expected {
            let m = benchmarks::by_name(name).unwrap().machine;
            let outcome = OstrSolver::new(SolverConfig {
                max_nodes: 100_000,
                time_limit: None,
                lemma1_pruning: true,
                stop_at_lower_bound: true,
                branch_and_bound: false,
                parallel_subtrees: 1,
            })
            .solve(&m);
            assert_eq!(outcome.stats.basis_size, basis, "{name}");
            assert_eq!(outcome.stats.nodes_investigated, nodes, "{name}");
            assert_eq!(outcome.stats.subtrees_pruned, pruned, "{name}");
            assert!(!outcome.stats.budget_exhausted, "{name}");
        }
    }

    #[test]
    fn parallel_subtrees_match_serial_exactly() {
        for name in ["bbara", "dk27", "shiftreg", "tbk"] {
            let m = benchmarks::by_name(name).unwrap().machine;
            for (bnb, stop) in [(true, true), (true, false), (false, true)] {
                let config = SolverConfig {
                    max_nodes: 100_000,
                    time_limit: None,
                    stop_at_lower_bound: stop,
                    branch_and_bound: bnb,
                    ..SolverConfig::default()
                };
                let serial = OstrSolver::new(config).solve(&m);
                for jobs in [2, 4, 16] {
                    let parallel = OstrSolver::new(SolverConfig {
                        parallel_subtrees: jobs,
                        ..config
                    })
                    .solve(&m);
                    assert_eq!(serial.best, parallel.best, "{name} jobs={jobs}");
                    // Everything except the wall clock must be identical.
                    let mut s = serial.stats;
                    let mut p = parallel.stats;
                    s.elapsed_micros = 0;
                    p.elapsed_micros = 0;
                    assert_eq!(s, p, "{name} jobs={jobs} bnb={bnb} stop={stop}");
                }
            }
        }
    }

    #[test]
    fn parallel_reduction_respects_a_tight_node_budget() {
        let m = benchmarks::by_name("bbara").unwrap().machine;
        for max_nodes in [1, 2, 17, 300, 5_000] {
            let config = SolverConfig {
                max_nodes,
                time_limit: None,
                stop_at_lower_bound: true,
                ..SolverConfig::default()
            };
            let serial = OstrSolver::new(config).solve(&m);
            let parallel = OstrSolver::new(SolverConfig {
                parallel_subtrees: 4,
                ..config
            })
            .solve(&m);
            assert_eq!(serial.best, parallel.best, "max_nodes={max_nodes}");
            let mut s = serial.stats;
            let mut p = parallel.stats;
            s.elapsed_micros = 0;
            p.elapsed_micros = 0;
            assert_eq!(s, p, "max_nodes={max_nodes}");
        }
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let m = benchmarks::by_name("shiftreg").unwrap().machine;
        let outcome = OstrSolver::new(SolverConfig {
            max_nodes: 3,
            ..SolverConfig::default()
        })
        .solve(&m);
        assert!(outcome.stats.budget_exhausted);
        // Even with an exhausted budget the trivial solution is available.
        assert!(outcome.best.cost <= Cost::trivial(m.num_states()));
    }

    #[test]
    fn stats_are_populated() {
        let outcome = solve(&paper_example());
        assert!(outcome.stats.basis_size > 0);
        assert!(outcome.stats.nodes_investigated > 0);
        assert!(outcome.stats.solutions_found > 0);
        assert_eq!(
            outcome.stats.log2_tree_size(),
            outcome.stats.basis_size as u32
        );
    }
}
