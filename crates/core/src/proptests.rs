//! Property-based tests for the OSTR solver and the Theorem 1 construction.

use crate::cost::Cost;
use crate::realization::{verify_composed, Realization};
use crate::solver::{solve, OstrSolver, SolverConfig};
use proptest::prelude::*;
use stc_fsm::{crossed_product, random_machine, Mealy};
use stc_partition::Partition;

fn arb_machine() -> impl Strategy<Value = Mealy> {
    (2usize..8, 1usize..4, 1usize..4, any::<u64>())
        .prop_map(|(s, i, o, seed)| random_machine("prop", s, i, o, seed))
}

/// `v` moved to a different value below `len` (chosen by `bump`), or `v`
/// itself when there is no other value.
fn shift(v: usize, bump: usize, len: usize) -> usize {
    if len < 2 {
        v
    } else {
        (v + 1 + bump % (len - 1)) % len
    }
}

fn arb_toggleish(states: usize) -> impl Strategy<Value = Mealy> {
    // A small machine with `states` states, 2 inputs and 2 outputs.
    (any::<u64>(),).prop_map(move |(seed,)| random_machine("factor", states, 2, 2, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn solver_never_beats_the_information_theoretic_bound(machine in arb_machine()) {
        let outcome = solve(&machine);
        let n = machine.num_states();
        // π ∩ τ ⊆ ε forces |S/π| · |S/τ| ≥ (number of ε-blocks).
        let eps_blocks = stc_fsm::state_equivalence(&machine).num_blocks();
        prop_assert!(outcome.best.cost.s1() * outcome.best.cost.s2() >= eps_blocks);
        prop_assert!(outcome.best.cost <= Cost::trivial(n));
    }

    #[test]
    fn solver_solution_always_realizes_the_machine(machine in arb_machine()) {
        let outcome = solve(&machine);
        let realization = outcome.best.realize(&machine);
        prop_assert!(realization.verify(&machine).is_none());
    }

    #[test]
    fn realizations_agree_on_random_words(machine in arb_machine(), word in proptest::collection::vec(0usize..4, 0..32)) {
        let word: Vec<usize> = word.into_iter().map(|i| i % machine.num_inputs()).collect();
        let outcome = solve(&machine);
        let realization = outcome.best.realize(&machine);
        let (out_spec, _) = machine.run_from_reset(&word);
        let (out_real, _) = realization
            .compose(&machine)
            .run(realization.alpha_index(machine.reset_state()), &word);
        prop_assert_eq!(out_spec, out_real);
    }

    #[test]
    fn crossed_products_always_decompose(a in arb_toggleish(2), b in arb_toggleish(2)) {
        // A crossed product of two 2-state machines supports a self-testable
        // structure by construction, so the solver must find a solution that
        // is at least as good as (2, 2) — 2 flip-flops.
        let product = crossed_product(&a, &b).unwrap();
        let outcome = solve(&product);
        prop_assert!(outcome.best.cost.register_bits() <= 2,
            "expected ≤ 2 flip-flops, got {}", outcome.best.cost);
    }

    #[test]
    fn pruning_is_conservative(machine in arb_machine()) {
        // Lemma 1 must not change the optimum, only the node count.
        let with = OstrSolver::new(SolverConfig::default()).solve(&machine);
        let without = OstrSolver::new(SolverConfig {
            lemma1_pruning: false,
            max_nodes: 300_000,
            ..SolverConfig::default()
        })
        .solve(&machine);
        if !without.stats.budget_exhausted {
            prop_assert_eq!(with.best.cost, without.best.cost);
            prop_assert!(with.stats.nodes_investigated <= without.stats.nodes_investigated);
        }
    }

    #[test]
    fn branch_and_bound_never_changes_the_solution(machine in arb_machine()) {
        let base = SolverConfig {
            max_nodes: 50_000,
            time_limit: None,
            ..SolverConfig::default()
        };
        let with = OstrSolver::new(SolverConfig { branch_and_bound: true, ..base }).solve(&machine);
        let without = OstrSolver::new(SolverConfig { branch_and_bound: false, ..base }).solve(&machine);
        if !without.stats.budget_exhausted {
            // Not merely the cost: the bound may only discard subtrees that
            // cannot beat an earlier incumbent, so the reported pair is the
            // same partition pair.
            prop_assert_eq!(with.best, without.best);
        }
    }

    #[test]
    fn parallel_and_serial_searches_are_identical(
        machine in arb_machine(),
        jobs in 2usize..9,
        bnb in any::<bool>(),
        stop in any::<bool>(),
        budget_choice in 0usize..4,
    ) {
        let max_nodes = [3u64, 40, 1_000, 50_000][budget_choice];
        // The deterministic reduction must make worker count unobservable:
        // solution *and* statistics agree for any budget and configuration.
        let config = SolverConfig {
            max_nodes,
            time_limit: None,
            stop_at_lower_bound: stop,
            branch_and_bound: bnb,
            ..SolverConfig::default()
        };
        let serial = OstrSolver::new(config).solve(&machine);
        let parallel = OstrSolver::new(SolverConfig { parallel_subtrees: jobs, ..config }).solve(&machine);
        prop_assert_eq!(&serial.best, &parallel.best);
        let (mut s, mut p) = (serial.stats, parallel.stats);
        s.elapsed_micros = 0;
        p.elapsed_micros = 0;
        prop_assert_eq!(s, p);
    }

    #[test]
    fn table_verify_agrees_with_the_composed_machine(
        machine in arb_machine(),
        pick in any::<usize>(),
        bump in any::<usize>(),
    ) {
        let (n, k) = (machine.num_states(), machine.num_inputs());
        let solved = solve(&machine).best.realize(&machine);
        let id = Partition::identity(n);
        let trivial = Realization::from_symmetric_pair(&machine, id.clone(), id).unwrap();
        // One δ1 entry, one δ2 entry, one λ* output changed in turn.
        let (n1, n2) = (solved.s1_len(), solved.s2_len());
        let mut delta1 = solved.clone();
        let cell = &mut delta1.tables.delta1[pick % n1][pick % k];
        *cell = shift(*cell, bump, n2);
        let mut delta2 = solved.clone();
        let cell = &mut delta2.tables.delta2[(pick / 3) % n2][(pick / 5) % k];
        *cell = shift(*cell, bump, n1);
        let mut lambda = solved.clone();
        let rows = lambda.tables.outputs.len();
        let cell = &mut lambda.tables.outputs[(pick / 7) % rows][(pick / 11) % k];
        *cell = shift(*cell, bump, machine.num_outputs());
        let cases = [
            (&solved, &solved),
            (&trivial, &trivial),
            (&delta1, &solved),
            (&delta2, &solved),
            (&lambda, &solved),
        ];
        for (r, original) in cases {
            let got = r.verify(&machine);
            prop_assert_eq!(got, verify_composed(r, &machine));
            // Every table entry is read by some state, so a changed one is
            // always caught.
            prop_assert_eq!(got.is_none(), r.tables == original.tables);
        }
    }

    #[test]
    fn trivial_realization_always_verifies(machine in arb_machine()) {
        let n = machine.num_states();
        let id = Partition::identity(n);
        let r = Realization::from_symmetric_pair(&machine, id.clone(), id).unwrap();
        prop_assert!(r.verify(&machine).is_none());
        prop_assert_eq!(r.compose(&machine).num_states(), n * n);
    }
}
