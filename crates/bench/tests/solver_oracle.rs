//! Frozen OSTR search statistics for the three scale tiers.
//!
//! The counterpart of the root `tests/solver_equivalence.rs` for the
//! planted scale machines: the full search statistics (wall clock aside)
//! and a digest of the best `(π, τ)` of each tier's solver configuration,
//! at one, two and four workers, recorded from the engine before its edge
//! joins, pairwise Lemma 1 prefilter and basis closed once per pair-graph
//! component; and each tier's basis against the per-pair closures it
//! replaced.  `scale_l` alone searches 43.5M nodes per run, minutes in a
//! debug build, so these tests are `#[ignore]`d and CI's `build-and-test`
//! job runs them in release on every change (~6 s for all three tiers on a
//! 2-vCPU host):
//!
//! ```text
//! cargo test --release -p stc-bench --test solver_oracle -- --ignored
//! ```

use stc_bench::scale::{scale_machine, scale_solver_config, scale_tiers};
use stc_fsm::Mealy;
use stc_partition::{symmetric_basis, symmetric_pair_closure, Partition};
use stc_synth::{OstrOutcome, OstrSolver, PreparedOstr};

/// FNV-1a over the `Display` rendering `"{π}|{τ}"` of the best pair.
fn pair_digest(outcome: &OstrOutcome) -> u64 {
    stc_fsm::fnv1a(format!("{}|{}", outcome.best.pi, outcome.best.tau).as_bytes())
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

/// Checks `tier`'s basis against the per-pair closures, then solves it at
/// 1, 2 and 4 workers and checks each run against the frozen `basis_size`, `nodes_investigated`, `subtrees_pruned`,
/// `subtrees_bound_pruned` and `solutions_found`, the two flags (both
/// clear: every tier completes within its budget), the cost and the pair
/// digest.
fn check(tier: &str, counts: [u64; 5], cost: (usize, usize), digest: u64) {
    let tier = scale_tiers()
        .into_iter()
        .find(|t| t.name == tier)
        .expect("tier exists");
    let machine = scale_machine(&tier);
    assert_eq!(
        symmetric_basis(&machine),
        basis_of_pair_closures(&machine),
        "{}",
        tier.name
    );
    let prepared = PreparedOstr::new(&machine);
    for jobs in [1, 2, 4] {
        let outcome = OstrSolver::new(scale_solver_config(&tier, jobs)).solve_prepared(&prepared);
        let s = outcome.stats;
        let context = format!("{} jobs={jobs}", tier.name);
        assert_eq!(
            [
                s.basis_size as u64,
                s.nodes_investigated,
                s.subtrees_pruned,
                s.subtrees_bound_pruned,
                s.solutions_found,
            ],
            counts,
            "{context}"
        );
        assert!(!s.budget_exhausted && !s.cancelled, "{context}");
        assert_eq!(
            (outcome.best.cost.s1(), outcome.best.cost.s2()),
            cost,
            "{context}"
        );
        assert_eq!(pair_digest(&outcome), digest, "{context}");
    }
}

#[test]
#[ignore = "release only, run by CI with --ignored: under 0.1 s per worker count"]
fn scale_s_statistics_are_frozen() {
    check(
        "scale_s",
        [33, 465_737, 229_540, 27, 236_197],
        (12, 12),
        0x4f39_99bd_3887_7db3,
    );
}

#[test]
#[ignore = "release only, run by CI with --ignored: about 0.1 s per worker count"]
fn scale_m_statistics_are_frozen() {
    check(
        "scale_m",
        [35, 1_839_913, 895_124, 83, 944_789],
        (12, 12),
        0x2955_75e3_9f65_ad25,
    );
}

#[test]
#[ignore = "release only, run by CI with --ignored: about 2 s per worker count"]
fn scale_l_statistics_are_frozen() {
    check(
        "scale_l",
        [57, 43_500_001, 22_198_607, 54, 21_301_394],
        (12, 12),
        0x08b5_0e6b_cbac_3e51,
    );
}
