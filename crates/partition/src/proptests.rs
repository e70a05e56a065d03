//! Property-based tests for the partition lattice and the `m`/`M` operators.

use crate::lattice::{enumerate_partitions, symmetric_basis, symmetric_pair_closure};
use crate::packed::{JoinEdges, PackedPartition, Side, TrailedPair};
use crate::pairs::{big_m_operator, is_partition_pair, m_operator, pair_identifying, Transitions};
use crate::partition::Partition;
use proptest::prelude::*;

/// A random complete transition function over `n` states and `k` inputs,
/// stored as a flat table.
#[derive(Debug, Clone)]
struct TableMachine {
    n: usize,
    k: usize,
    table: Vec<usize>,
}

impl Transitions for TableMachine {
    fn num_states(&self) -> usize {
        self.n
    }
    fn num_inputs(&self) -> usize {
        self.k
    }
    fn next_state(&self, state: usize, input: usize) -> usize {
        self.table[state * self.k + input]
    }
}

fn arb_machine(max_states: usize, max_inputs: usize) -> impl Strategy<Value = TableMachine> {
    (2..=max_states, 1..=max_inputs).prop_flat_map(|(n, k)| {
        proptest::collection::vec(0..n, n * k).prop_map(move |table| TableMachine { n, k, table })
    })
}

/// A machine over `n` states whose `k` input columns are drawn from a pool
/// of `c ≤ 3` next-state maps, so most columns are duplicates.
fn arb_duplicate_column_machine() -> impl Strategy<Value = TableMachine> {
    (2usize..=12, 1usize..=40, 1usize..=3).prop_flat_map(|(n, k, c)| {
        (
            proptest::collection::vec(0..n, n * c),
            proptest::collection::vec(0..c, k),
        )
            .prop_map(move |(pool, choice)| TableMachine {
                n,
                k,
                table: (0..n)
                    .flat_map(|s| choice.iter().map(move |&col| col * n + s))
                    .map(|at| pool[at])
                    .collect(),
            })
    })
}

/// The symmetric-pair closure of `(s, t)` as a plain fixpoint of the pair
/// conditions: start from `(ρ_{s,t}, 0)` and repeat `τ := τ ∨ m(π)`,
/// `π := π ∨ m(τ)` until neither changes.
fn closure_fixpoint<T: Transitions>(delta: &T, s: usize, t: usize) -> (Partition, Partition) {
    let n = delta.num_states();
    let mut pi = pair_identifying(n, s, t);
    let mut tau = Partition::identity(n);
    loop {
        let next_tau = tau.join(&m_operator(delta, &pi)).unwrap();
        let next_pi = pi.join(&m_operator(delta, &next_tau)).unwrap();
        if next_pi == pi && next_tau == tau {
            return (pi, tau);
        }
        pi = next_pi;
        tau = next_tau;
    }
}

/// The basis as the per-pair closures define it: the closure of every state
/// pair `s < t` and its mirror, deduplicated and in `symmetric_basis` order
/// (total blocks, then the `Display` rendering).
fn basis_of_pair_closures<T: Transitions>(delta: &T) -> Vec<(Partition, Partition)> {
    let n = delta.num_states();
    let mut basis: Vec<(Partition, Partition)> = Vec::new();
    for s in 0..n {
        for t in (s + 1)..n {
            let (pi, tau) = symmetric_pair_closure(delta, s, t);
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

fn arb_labels(n: usize) -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..n, n)
}

/// Labels over one ground set: a base pair `(π, τ)`, an ε, and a sequence
/// of joins, each into π (`false`) or τ (`true`).
type TrailCase = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<(bool, Vec<usize>)>);

/// A [`TrailCase`] over 1..=40 elements.
fn arb_trail_case() -> impl Strategy<Value = TrailCase> {
    (1usize..=40).prop_flat_map(|n| {
        (
            arb_labels(n),
            arb_labels(n),
            arb_labels(n),
            proptest::collection::vec((any::<bool>(), arb_labels(n)), 1..6),
        )
    })
}

fn side_of(tau: bool) -> Side {
    if tau {
        Side::Tau
    } else {
        Side::Pi
    }
}

fn edges_of(p: &Partition) -> JoinEdges {
    JoinEdges::of(&PackedPartition::from_partition(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn meet_is_lower_bound(labels_a in arb_labels(8), labels_b in arb_labels(8)) {
        let a = Partition::from_labels(&labels_a);
        let b = Partition::from_labels(&labels_b);
        let m = a.meet(&b).unwrap();
        prop_assert!(m.refines(&a));
        prop_assert!(m.refines(&b));
    }

    #[test]
    fn join_is_upper_bound(labels_a in arb_labels(8), labels_b in arb_labels(8)) {
        let a = Partition::from_labels(&labels_a);
        let b = Partition::from_labels(&labels_b);
        let j = a.join(&b).unwrap();
        prop_assert!(a.refines(&j));
        prop_assert!(b.refines(&j));
    }

    #[test]
    fn meet_join_commute_and_are_idempotent(labels_a in arb_labels(7), labels_b in arb_labels(7)) {
        let a = Partition::from_labels(&labels_a);
        let b = Partition::from_labels(&labels_b);
        prop_assert_eq!(a.meet(&b).unwrap(), b.meet(&a).unwrap());
        prop_assert_eq!(a.join(&b).unwrap(), b.join(&a).unwrap());
        prop_assert_eq!(a.meet(&a).unwrap(), a.clone());
        prop_assert_eq!(a.join(&a).unwrap(), a);
    }

    #[test]
    fn absorption_laws(labels_a in arb_labels(6), labels_b in arb_labels(6)) {
        let a = Partition::from_labels(&labels_a);
        let b = Partition::from_labels(&labels_b);
        // a ∧ (a ∨ b) = a and a ∨ (a ∧ b) = a.
        prop_assert_eq!(a.meet(&a.join(&b).unwrap()).unwrap(), a.clone());
        prop_assert_eq!(a.join(&a.meet(&b).unwrap()).unwrap(), a);
    }

    #[test]
    fn refinement_is_antisymmetric(labels_a in arb_labels(7), labels_b in arb_labels(7)) {
        let a = Partition::from_labels(&labels_a);
        let b = Partition::from_labels(&labels_b);
        if a.refines(&b) && b.refines(&a) {
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn identity_and_universal_are_extremes(labels in arb_labels(9)) {
        let p = Partition::from_labels(&labels);
        let n = p.ground_set_size();
        prop_assert!(Partition::identity(n).refines(&p));
        prop_assert!(p.refines(&Partition::universal(n)));
    }

    #[test]
    fn m_gives_a_partition_pair(machine in arb_machine(7, 3), labels in arb_labels(7)) {
        let labels: Vec<usize> = labels.into_iter().take(machine.n).map(|l| l % machine.n).collect();
        let pi = Partition::from_labels(&labels);
        let tau = m_operator(&machine, &pi);
        prop_assert!(is_partition_pair(&machine, &pi, &tau));
    }

    #[test]
    fn m_is_the_smallest_partner(machine in arb_machine(5, 2), labels in arb_labels(5)) {
        let labels: Vec<usize> = labels.into_iter().take(machine.n).map(|l| l % machine.n).collect();
        let pi = Partition::from_labels(&labels);
        let m_pi = m_operator(&machine, &pi);
        for tau in enumerate_partitions(machine.n) {
            if is_partition_pair(&machine, &pi, &tau) {
                prop_assert!(m_pi.refines(&tau), "m(π) must refine every partner");
            }
        }
    }

    #[test]
    fn big_m_gives_a_partition_pair(machine in arb_machine(7, 3), labels in arb_labels(7)) {
        let labels: Vec<usize> = labels.into_iter().take(machine.n).map(|l| l % machine.n).collect();
        let tau = Partition::from_labels(&labels);
        let pi = big_m_operator(&machine, &tau);
        prop_assert!(is_partition_pair(&machine, &pi, &tau));
    }

    #[test]
    fn big_m_is_the_largest_partner(machine in arb_machine(5, 2), labels in arb_labels(5)) {
        let labels: Vec<usize> = labels.into_iter().take(machine.n).map(|l| l % machine.n).collect();
        let tau = Partition::from_labels(&labels);
        let cap_m = big_m_operator(&machine, &tau);
        for pi in enumerate_partitions(machine.n) {
            if is_partition_pair(&machine, &pi, &tau) {
                prop_assert!(pi.refines(&cap_m), "every partner must refine M(τ)");
            }
        }
    }

    #[test]
    fn galois_connection(machine in arb_machine(6, 3), labels in arb_labels(6)) {
        let labels: Vec<usize> = labels.into_iter().take(machine.n).map(|l| l % machine.n).collect();
        let p = Partition::from_labels(&labels);
        // π ≤ M(m(π)) and m(M(π)) ≤ π.
        prop_assert!(p.refines(&big_m_operator(&machine, &m_operator(&machine, &p))));
        prop_assert!(m_operator(&machine, &big_m_operator(&machine, &p)).refines(&p));
    }

    #[test]
    fn operators_are_monotone(machine in arb_machine(6, 2), labels in arb_labels(6)) {
        let labels: Vec<usize> = labels.into_iter().take(machine.n).map(|l| l % machine.n).collect();
        let pi = Partition::from_labels(&labels);
        // Coarsen π by joining with a basis pair; monotonicity must hold.
        let coarser = pi.join(&Partition::from_pairs(machine.n, [(0, machine.n - 1)]).unwrap()).unwrap();
        prop_assert!(m_operator(&machine, &pi).refines(&m_operator(&machine, &coarser)));
        prop_assert!(big_m_operator(&machine, &pi).refines(&big_m_operator(&machine, &coarser)));
    }

    /// After each `apply` the pair is the general join and `merges` (taken
    /// before it) is the block-count drop; `undo_to` then restores every
    /// representative, ring, size and count of each mark, newest first.
    #[test]
    fn trailed_pair_joins_like_the_general_join_and_undoes_exactly(
        (pi, tau, _, joins) in arb_trail_case(),
    ) {
        let n = pi.len();
        let mut pair = TrailedPair::new(n);
        let mut current = [Partition::identity(n), Partition::identity(n)];
        let mut marks = Vec::new();
        for (tau_side, labels) in [(false, pi), (true, tau)].into_iter().chain(joins) {
            let (side, s) = (side_of(tau_side), usize::from(tau_side));
            let p = Partition::from_labels(&labels);
            let edges = edges_of(&p);
            marks.push((pair.mark(), pair.sides().clone()));
            let joined = current[s].join(&p).unwrap();
            let drop = current[s].num_blocks() - joined.num_blocks();
            prop_assert_eq!(pair.merges(side, &edges), drop);
            prop_assert_eq!(pair.apply(side, &edges), drop);
            prop_assert_eq!(pair.num_blocks(side), joined.num_blocks());
            current[s] = joined;
            prop_assert_eq!(&pair.partition(Side::Pi), &current[0]);
            prop_assert_eq!(&pair.partition(Side::Tau), &current[1]);
        }
        for (mark, sides) in marks.into_iter().rev() {
            pair.undo_to(mark);
            prop_assert_eq!(pair.sides(), &sides);
        }
    }

    /// `meets_since(mark)` is `intersection_within` whenever the pair at the
    /// mark met it, and `parent_meets && meets_since(mark)` always is.
    #[test]
    fn meets_since_a_meeting_mark_is_intersection_within(
        (pi, tau, eps, joins) in arb_trail_case(),
    ) {
        let n = pi.len();
        let eps = Partition::from_labels(&eps);
        let packed_eps = PackedPartition::from_partition(&eps);
        let mut current = [Partition::from_labels(&pi), Partition::from_labels(&tau)];
        let mut pair = TrailedPair::new(n);
        pair.apply(Side::Pi, &edges_of(&current[0]));
        pair.apply(Side::Tau, &edges_of(&current[1]));
        // The identity pair meets, so mark 0 is always a meeting mark.
        let mut meets = pair.meets_since(0, &packed_eps);
        prop_assert_eq!(meets, current[0].intersection_within(&current[1], &eps).unwrap());
        for (tau_side, labels) in joins {
            let s = usize::from(tau_side);
            let p = Partition::from_labels(&labels);
            let mark = pair.mark();
            pair.apply(side_of(tau_side), &edges_of(&p));
            current[s] = current[s].join(&p).unwrap();
            let truth = current[0].intersection_within(&current[1], &eps).unwrap();
            let since = pair.meets_since(mark, &packed_eps);
            if meets {
                prop_assert_eq!(since, truth);
            }
            prop_assert_eq!(meets && since, truth);
            meets = truth;
        }
    }

    #[test]
    fn symmetric_closure_is_the_pair_fixpoint(machine in arb_machine(8, 6), s in 0usize..8, t in 0usize..8) {
        let (s, t) = (s % machine.n, t % machine.n);
        prop_assert_eq!(symmetric_pair_closure(&machine, s, t), closure_fixpoint(&machine, s, t));
    }

    #[test]
    fn symmetric_closure_is_the_pair_fixpoint_with_duplicate_columns(
        machine in arb_duplicate_column_machine(),
        s in 0usize..12,
        t in 0usize..12,
    ) {
        let (s, t) = (s % machine.n, t % machine.n);
        prop_assert_eq!(symmetric_pair_closure(&machine, s, t), closure_fixpoint(&machine, s, t));
    }

    #[test]
    fn symmetric_basis_is_the_deduplicated_pair_closures(machine in arb_machine(9, 5)) {
        prop_assert_eq!(symmetric_basis(&machine), basis_of_pair_closures(&machine));
    }

    #[test]
    fn symmetric_basis_is_the_deduplicated_pair_closures_with_duplicate_columns(
        machine in arb_duplicate_column_machine(),
    ) {
        prop_assert_eq!(symmetric_basis(&machine), basis_of_pair_closures(&machine));
    }

    #[test]
    fn from_pairs_equals_join_of_generators(pairs in proptest::collection::vec((0..8usize, 0..8usize), 0..10)) {
        let p = Partition::from_pairs(8, pairs.iter().copied()).unwrap();
        let mut joined = Partition::identity(8);
        for &(a, b) in &pairs {
            joined = joined.join(&Partition::from_pairs(8, [(a, b)]).unwrap()).unwrap();
        }
        prop_assert_eq!(p, joined);
    }
}

/// A 20-state machine with 64 pseudo-random input columns, shaped like
/// `ex1`: every closure is universal on both sides, the case where the lazy
/// closure returns early.
#[test]
fn universal_closures_match_the_fixpoint() {
    let (n, k) = (20, 64);
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let table = (0..n * k)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        })
        .collect();
    let machine = TableMachine { n, k, table };
    for (s, t) in [(0, 1), (3, 17), (18, 19)] {
        let closure = symmetric_pair_closure(&machine, s, t);
        assert!(closure.0.is_universal() && closure.1.is_universal());
        assert_eq!(closure, closure_fixpoint(&machine, s, t));
    }
}

/// Every machine with one or two states and one or two inputs: the pair
/// graph has no node, or the two sides of `{0, 1}`, which lead to each
/// other or nowhere.
#[test]
fn symmetric_basis_matches_the_pair_closures_on_every_tiny_machine() {
    for n in 1usize..=2 {
        for k in 1..=2 {
            for code in 0..n.pow((n * k) as u32) {
                let table = (0..n * k).map(|at| code / n.pow(at as u32) % n).collect();
                let machine = TableMachine { n, k, table };
                assert_eq!(
                    symmetric_basis(&machine),
                    basis_of_pair_closures(&machine),
                    "{machine:?}"
                );
            }
        }
    }
}
