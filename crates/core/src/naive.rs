//! A brute-force reference solver for problem OSTR.
//!
//! The reference solver enumerates *all* pairs of partitions of the state set
//! and keeps the best symmetric partition pair satisfying `π ∩ τ ⊆ ε`.  Its
//! complexity is `O(B(n)²)` where `B(n)` is the Bell number, so it is only
//! usable for very small machines — which is exactly its purpose: it
//! cross-validates the lattice-based search of [`crate::OstrSolver`] on small
//! inputs (the Theorem 2 correctness argument made executable) and serves as
//! the baseline of the `naive_vs_lattice` ablation group in the
//! `ostr_solver_v2` bench.

use crate::cost::Cost;
use crate::solver::OstrSolution;
use stc_fsm::{state_equivalence, Mealy};
use stc_partition::{enumerate_partitions, is_symmetric_pair, Partition};

/// Maximum number of states accepted by [`solve_naive`].
pub const NAIVE_STATE_LIMIT: usize = 9;

/// Statistics of a naive enumeration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NaiveStats {
    /// Number of partitions of the state set (`B(n)`).
    pub partitions: usize,
    /// Number of candidate pairs examined (`B(n)²`).
    pub pairs_examined: u64,
    /// Number of symmetric pairs satisfying `π ∩ τ ⊆ ε`.
    pub solutions_found: u64,
}

/// Solves OSTR by exhaustive enumeration of partition pairs.
///
/// # Panics
///
/// Panics if the machine has more than [`NAIVE_STATE_LIMIT`] states — the
/// enumeration would be astronomically large; use [`crate::OstrSolver`]
/// instead.
#[must_use]
pub fn solve_naive(machine: &Mealy) -> (OstrSolution, NaiveStats) {
    let n = machine.num_states();
    assert!(
        n <= NAIVE_STATE_LIMIT,
        "naive enumeration is limited to {NAIVE_STATE_LIMIT} states, got {n}"
    );
    let eps = state_equivalence(machine);
    let partitions = enumerate_partitions(n);
    let mut stats = NaiveStats {
        partitions: partitions.len(),
        ..NaiveStats::default()
    };
    let mut best = OstrSolution {
        pi: Partition::identity(n),
        tau: Partition::identity(n),
        cost: Cost::trivial(n),
    };
    for pi in &partitions {
        for tau in &partitions {
            stats.pairs_examined += 1;
            if !pi.intersection_within(tau, &eps).expect("same ground set") {
                continue;
            }
            if !is_symmetric_pair(machine, pi, tau) {
                continue;
            }
            stats.solutions_found += 1;
            let cost = Cost::new(pi.num_blocks(), tau.num_blocks());
            if cost < best.cost {
                best = OstrSolution {
                    pi: pi.clone(),
                    tau: tau.clone(),
                    cost,
                };
            }
        }
    }
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use stc_fsm::{paper_example, random_machine};

    #[test]
    fn naive_matches_lattice_solver_on_the_paper_example() {
        let m = paper_example();
        let (naive, stats) = solve_naive(&m);
        let lattice = solve(&m);
        assert_eq!(naive.cost, lattice.best.cost);
        assert_eq!(naive.cost, Cost::new(2, 2));
        assert!(stats.solutions_found >= 1);
        assert_eq!(stats.partitions, 15); // Bell(4)
    }

    #[test]
    fn naive_matches_lattice_solver_on_random_machines() {
        for seed in 0..12u64 {
            let states = 3 + (seed as usize % 4);
            let m = random_machine("naive_cmp", states, 2, 2, seed);
            let (naive, _) = solve_naive(&m);
            let lattice = solve(&m);
            assert_eq!(
                naive.cost, lattice.best.cost,
                "seed {seed}: naive and lattice search disagree"
            );
        }
    }

    #[test]
    fn naive_solution_is_a_valid_realization() {
        let m = paper_example();
        let (naive, _) = solve_naive(&m);
        let r = naive.realize(&m);
        assert_eq!(r.verify(&m), None);
    }

    #[test]
    #[should_panic(expected = "naive enumeration is limited")]
    fn naive_rejects_large_machines() {
        let m = random_machine("big", 12, 2, 2, 0);
        let _ = solve_naive(&m);
    }
}
