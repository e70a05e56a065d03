//! Mm-pairs, symmetric-pair closures and helpers for exploring the lattices
//! of a machine.
//!
//! The set of all partition pairs of a machine forms a lattice whose
//! "skeleton" is the set of *Mm-pairs*: pairs `(π, τ)` with `M(τ) = π` and
//! `m(π) = τ` (Definition 5 of the paper, following Hartmanis & Stearns).
//! Theorem 2 of the paper restricts the search for symmetric partition pairs
//! to this skeleton, generated by the basis relations `m(ρ_{s,t})`
//! ([`basis_partitions`], [`mm_pairs`]).  No solver walks this skeleton:
//! the code is the paper's construction, kept for the tests, which show
//! that the search's basis reaches pairs outside it.
//!
//! The production OSTR search in `stc-synth` walks a different, complete
//! basis: [`symmetric_basis`], the smallest symmetric pairs
//! ([`symmetric_pair_closure`]) identifying one pair of states.  Each
//! closure is a lazy congruence closure on the doubled machine that stops
//! as soon as both sides are universal, which makes machines with many
//! distinct input columns (`ex1`: 512) cheap.

use crate::dsu::DisjointSets;
use crate::pairs::{big_m_operator, is_symmetric_pair, m_operator, pair_identifying, Transitions};
use crate::partition::Partition;

/// An *Mm-pair* `(π, τ)`: a partition pair satisfying `M(τ) = π` and
/// `m(π) = τ`.
///
/// Mm-pairs are the canonical representatives of partition pairs: every
/// partition pair `(π', τ')` is "sandwiched" by an Mm-pair with a larger first
/// and a smaller second component, so enumerating Mm-pairs suffices to decide
/// the existence of useful symmetric pairs (Theorem 2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MmPair {
    /// The first (coarse, `M`) component `π`.
    pub pi: Partition,
    /// The second (fine, `m`) component `τ`.
    pub tau: Partition,
}

impl MmPair {
    /// Builds the Mm-pair generated by a partition `π`: `(M(m(π)), m(π))`.
    ///
    /// For any `π` the result is a valid Mm-pair; if `π` already satisfies
    /// `M(m(π)) = π` the first component equals `π`.
    pub fn generated_by<T: Transitions + ?Sized>(delta: &T, pi: &Partition) -> Self {
        let tau = m_operator(delta, pi);
        let pi_up = big_m_operator(delta, &tau);
        Self { pi: pi_up, tau }
    }

    /// Returns `true` if this Mm-pair is itself a symmetric partition pair.
    pub fn is_symmetric<T: Transitions + ?Sized>(&self, delta: &T) -> bool {
        is_symmetric_pair(delta, &self.pi, &self.tau)
    }

    /// Checks the defining property `M(τ) = π ∧ m(π) = τ`.
    pub fn is_valid<T: Transitions + ?Sized>(&self, delta: &T) -> bool {
        big_m_operator(delta, &self.tau) == self.pi && m_operator(delta, &self.pi) == self.tau
    }
}

/// Generates the basis set `𝔐 = { m(ρ_{s,t}) | s < t }` of the Mm-lattice:
/// the `m`-images of all partitions identifying exactly one pair of states.
///
/// The returned list is deduplicated (several pairs may generate the same
/// partition) and sorted by `(num_blocks, Display)` so that the ordering is
/// deterministic, which the search procedure of the paper requires
/// ("ordered arbitrarily" — any fixed order is fine).
///
/// Identity partitions (arising when `δ(s,·)` and `δ(t,·)` already coincide
/// block-wise) are kept: they are legitimate lattice elements and joining with
/// them is harmless.
pub fn basis_partitions<T: Transitions + ?Sized>(delta: &T) -> Vec<Partition> {
    let n = delta.num_states();
    let mut seen = std::collections::HashSet::new();
    let mut result = Vec::new();
    for s in 0..n {
        for t in (s + 1)..n {
            let rho = pair_identifying(n, s, t);
            let m_rho = m_operator(delta, &rho);
            if seen.insert(m_rho.clone()) {
                result.push(m_rho);
            }
        }
    }
    result.sort_by(|a, b| {
        a.num_blocks()
            .cmp(&b.num_blocks())
            .then_with(|| a.to_string().cmp(&b.to_string()))
    });
    result
}

/// Computes the smallest *symmetric* partition pair `(π, τ)` such that `s`
/// and `t` share a `π`-block.
///
/// Symmetric pairs on a machine `δ` correspond exactly to substitution-
/// property (S.P.) partitions of the *doubled* machine `D` over `S × {π, τ}`
/// with `δ_D((s, side), i) = (δ(s, i), other side)`: the `π` side must map
/// into the `τ` side and vice versa, which is precisely the two directions of
/// Definition 4.  The smallest such partition containing a seed pair is the
/// congruence closure of the seed, computed here with a union–find worklist:
/// whenever two states are merged on one side, their successors are merged on
/// the other.
///
/// Because S.P. partitions are closed under join, the component-wise join of
/// two symmetric pairs is again a symmetric pair, and *every* symmetric pair
/// is the join of the closures of the state pairs it identifies (on either
/// side).  The closures therefore generate the complete lattice of symmetric
/// pairs — this is the basis the OSTR search in `stc-synth` walks.
///
/// # Panics
///
/// Panics if `s` or `t` is not a state of `delta`.
#[must_use]
pub fn symmetric_pair_closure<T: Transitions + ?Sized>(
    delta: &T,
    s: usize,
    t: usize,
) -> (Partition, Partition) {
    let n = delta.num_states();
    assert!(s < n && t < n, "states must lie in the ground set");
    let inputs: Vec<usize> = (0..delta.num_inputs()).collect();
    let labels = closure_labels(delta, s, t, &inputs);
    (
        Partition::from_labels(&labels[..n]),
        Partition::from_labels(&labels[n..]),
    )
}

/// The union–find core of [`symmetric_pair_closure`]: returns the root
/// labels of the doubled ground set (π side `0..n`, τ side `n..2n`).
///
/// `inputs` is the set of input symbols to close over; restricting it to one
/// representative per distinct next-state column yields the same closure
/// (identical columns contribute identical unions) at a fraction of the cost
/// for machines whose many inputs share a few transition maps.
fn closure_labels<T: Transitions + ?Sized>(
    delta: &T,
    s: usize,
    t: usize,
    inputs: &[usize],
) -> Vec<usize> {
    let n = delta.num_states();
    let mut dsu = DisjointSets::new(2 * n);
    let mut worklist = Vec::new();
    closure_labels_into(delta, s, t, inputs, &mut dsu, &mut worklist);
    dsu.labels()
}

/// Allocation-reusing core of [`closure_labels`]: `dsu` must arrive reset to
/// `2n` singletons; `worklist` is cleared on entry.
///
/// The closure is lazy: a pair enters the worklist only when its union
/// succeeded, and its successors are unioned when it is popped.  A union
/// that fails relates states already joined by a chain of successful
/// unions, whose successors are (or will be) unioned pair by pair, so the
/// failed pair's successors end up related by transitivity.
/// Unions never cross sides, so once `dsu` is down to two sets each side is
/// a single block and no further union can succeed: the loop returns there.
/// The closure is the least congruence containing the seed, independent of
/// processing order, so the early return changes no label.
fn closure_labels_into<T: Transitions + ?Sized>(
    delta: &T,
    s: usize,
    t: usize,
    inputs: &[usize],
    dsu: &mut DisjointSets,
    worklist: &mut Vec<(usize, usize, bool)>,
) {
    let n = delta.num_states();
    worklist.clear();
    // Doubled ground set: 0..n is the π side, n..2n is the τ side.
    if !dsu.union(s, t) {
        return;
    }
    worklist.push((s, t, false));
    while let Some((u, v, tau_side)) = worklist.pop() {
        // Successors of a π-side pair are related on the τ side and back.
        let offset = if tau_side { 0 } else { n };
        for &i in inputs {
            let (a, b) = (delta.next_state(u, i), delta.next_state(v, i));
            if dsu.union(a + offset, b + offset) {
                if dsu.num_sets() == 2 {
                    return;
                }
                worklist.push((a, b, !tau_side));
            }
        }
    }
}

/// One representative input per distinct next-state column `δ(·, i)`.
fn distinct_input_representatives<T: Transitions + ?Sized>(delta: &T) -> Vec<usize> {
    let n = delta.num_states();
    let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    let mut reps = Vec::new();
    for i in 0..delta.num_inputs() {
        let column: Vec<usize> = (0..n).map(|s| delta.next_state(s, i)).collect();
        if seen.insert(column) {
            reps.push(i);
        }
    }
    reps
}

/// Rewrites `labels` into canonical compact form (first-occurrence order,
/// the numbering [`Partition::from_labels`] assigns) using a flat scratch
/// map.
fn canonicalize(labels: &mut [usize], map: &mut [usize]) {
    for m in map.iter_mut() {
        *m = usize::MAX;
    }
    let mut next = 0;
    for l in labels.iter_mut() {
        if map[*l] == usize::MAX {
            map[*l] = next;
            next += 1;
        }
        *l = map[*l];
    }
}

/// Generates the basis of the symmetric-pair lattice: the closures
/// [`symmetric_pair_closure`] of every state pair `s < t`, in both
/// orientations, deduplicated.
///
/// Every symmetric partition pair of `delta` is a component-wise join of
/// elements of this basis (see [`symmetric_pair_closure`] for the argument),
/// so a search over subsets of the basis is *complete* for problem OSTR.
/// The mirrored orientation `(τ, π)` of each closure is included because a
/// target pair may identify states only on its second component.
///
/// The list is sorted by `(total blocks, Display)` so the ordering is
/// deterministic, as the depth-first search requires.
#[must_use]
pub fn symmetric_basis<T: Transitions + ?Sized>(delta: &T) -> Vec<(Partition, Partition)> {
    let n = delta.num_states();
    // Closing over one representative per distinct next-state column yields
    // the same closures (identical columns contribute identical unions);
    // machines like `tbk` share two transition maps among 64 inputs.
    let inputs = distinct_input_representatives(delta);
    // Deduplicate on canonical labels before materialising any `Partition`:
    // canonical labels are equal iff the partitions are, so the set of kept
    // elements — and their insertion order — is identical to deduplicating
    // the materialised pairs.
    let mut seen: std::collections::HashSet<(Vec<usize>, Vec<usize>)> =
        std::collections::HashSet::new();
    let mut result = Vec::new();
    let mut scratch = vec![usize::MAX; 2 * n];
    let mut dsu = DisjointSets::new(2 * n);
    let mut worklist: Vec<(usize, usize, bool)> = Vec::new();
    for s in 0..n {
        for t in (s + 1)..n {
            dsu.reset(2 * n);
            closure_labels_into(delta, s, t, &inputs, &mut dsu, &mut worklist);
            let mut pi_labels = Vec::with_capacity(n);
            let mut tau_labels = Vec::with_capacity(n);
            for x in 0..n {
                pi_labels.push(dsu.find(x));
                tau_labels.push(dsu.find(n + x));
            }
            canonicalize(&mut pi_labels, &mut scratch);
            canonicalize(&mut tau_labels, &mut scratch);
            for pair in [
                (pi_labels.clone(), tau_labels.clone()),
                (tau_labels, pi_labels),
            ] {
                if !seen.contains(&pair) {
                    result.push((
                        Partition::from_labels(&pair.0),
                        Partition::from_labels(&pair.1),
                    ));
                    seen.insert(pair);
                }
            }
        }
    }
    result.sort_by_cached_key(|(pi, tau)| {
        (pi.num_blocks() + tau.num_blocks(), pair_sort_key(pi, tau))
    });
    result
}

/// The string sort key of a basis element: byte-identical to
/// `format!("{pi}|{tau}")`, built without the formatting machinery (the
/// formatted keys dominated basis construction for small machines).
fn pair_sort_key(pi: &Partition, tau: &Partition) -> String {
    let n = pi.ground_set_size() + tau.ground_set_size();
    let mut key = String::with_capacity(6 * n + 8);
    push_partition(&mut key, pi);
    key.push('|');
    push_partition(&mut key, tau);
    key
}

/// Pushes the `Display` rendering of a partition (`{{0,2}, {1}}`).
fn push_partition(out: &mut String, p: &Partition) {
    out.push('{');
    for (i, block) in p.blocks().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        for (j, &x) in block.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_decimal(out, x);
        }
        out.push('}');
    }
    out.push('}');
}

/// Pushes the decimal rendering of `v` without going through `fmt`.
fn push_decimal(out: &mut String, mut v: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

/// Enumerates the Mm-pairs generated by the basis relations and all joins of
/// basis subsets, for machines small enough for exhaustive enumeration.
///
/// This is a reference implementation used in tests and in the
/// naive-vs-lattice ablation benchmark; the production search lives in
/// `stc-synth` and explores the same space with the Lemma 1 pruning.
///
/// # Panics
///
/// Panics if the basis has more than 20 elements (2^20 subsets), to guard
/// against accidental exponential blow-up; call sites that need the full
/// search should use `stc-synth::OstrSolver` instead.
pub fn mm_pairs<T: Transitions + ?Sized>(delta: &T) -> Vec<MmPair> {
    let basis = basis_partitions(delta);
    assert!(
        basis.len() <= 20,
        "exhaustive Mm-pair enumeration is limited to 20 basis relations, got {}",
        basis.len()
    );
    let n = delta.num_states();
    let mut seen = std::collections::HashSet::new();
    let mut result = Vec::new();
    for mask in 0u32..(1u32 << basis.len()) {
        let mut join = Partition::identity(n);
        for (k, b) in basis.iter().enumerate() {
            if mask & (1 << k) != 0 {
                join = join.join(b).expect("same ground set");
            }
        }
        let pair = MmPair::generated_by(delta, &join);
        if seen.insert((pair.pi.clone(), pair.tau.clone())) {
            result.push(pair);
        }
    }
    result
}

/// Enumerates *all* partitions of a ground set of size `n` via restricted
/// growth strings.
///
/// The number of partitions is the Bell number `B(n)`, which grows very fast;
/// this helper is intended for property tests and the naive reference solver
/// on small machines.
///
/// # Panics
///
/// Panics if `n > 12` (B(12) = 4 213 597) to prevent runaway memory use.
pub fn enumerate_partitions(n: usize) -> Vec<Partition> {
    assert!(n <= 12, "partition enumeration is limited to n <= 12");
    if n == 0 {
        return vec![Partition::identity(0)];
    }
    let mut result = Vec::new();
    // Restricted growth strings: labels[0] = 0, labels[i] <= max(labels[..i]) + 1.
    let mut labels = vec![0usize; n];
    loop {
        result.push(Partition::from_labels(&labels));
        // Advance to the next restricted growth string.
        let mut i = n - 1;
        loop {
            if i == 0 {
                return result;
            }
            let max_prefix = labels[..i].iter().copied().max().unwrap_or(0);
            if labels[i] <= max_prefix {
                labels[i] += 1;
                for l in labels.iter_mut().skip(i + 1) {
                    *l = 0;
                }
                break;
            }
            i -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fig5;
    impl Transitions for Fig5 {
        fn num_states(&self) -> usize {
            4
        }
        fn num_inputs(&self) -> usize {
            2
        }
        fn next_state(&self, s: usize, i: usize) -> usize {
            const TABLE: [[usize; 2]; 4] = [[2, 0], [1, 3], [0, 2], [3, 1]];
            TABLE[s][i]
        }
    }

    #[test]
    fn bell_numbers() {
        assert_eq!(enumerate_partitions(0).len(), 1);
        assert_eq!(enumerate_partitions(1).len(), 1);
        assert_eq!(enumerate_partitions(2).len(), 2);
        assert_eq!(enumerate_partitions(3).len(), 5);
        assert_eq!(enumerate_partitions(4).len(), 15);
        assert_eq!(enumerate_partitions(5).len(), 52);
        assert_eq!(enumerate_partitions(6).len(), 203);
    }

    #[test]
    fn enumerated_partitions_are_distinct() {
        let parts = enumerate_partitions(5);
        let set: std::collections::HashSet<_> = parts.iter().cloned().collect();
        assert_eq!(set.len(), parts.len());
    }

    #[test]
    fn basis_partitions_are_m_images() {
        let basis = basis_partitions(&Fig5);
        assert!(!basis.is_empty());
        // Every basis element must admit the generating π as a partner:
        // (ρ_{s,t}, m(ρ_{s,t})) is a partition pair by construction; check the
        // weaker invariant that each element is reproduced by applying m to
        // some pair-identifying partition.
        for b in &basis {
            let reproduced = (0..4)
                .any(|s| ((s + 1)..4).any(|t| m_operator(&Fig5, &pair_identifying(4, s, t)) == *b));
            assert!(reproduced);
        }
    }

    #[test]
    fn mm_pairs_are_valid_and_include_paper_solution() {
        let pairs = mm_pairs(&Fig5);
        for p in &pairs {
            assert!(p.is_valid(&Fig5), "invalid Mm-pair {p:?}");
        }
        // The paper's symmetric pair ({0,1},{2,3}) / ({0,3},{1,2}) must appear
        // as (a coarsening of) some Mm-pair that is itself symmetric with
        // identity intersection.
        let found = pairs.iter().any(|p| {
            p.is_symmetric(&Fig5)
                && p.pi.meet(&p.tau).expect("same ground set").is_identity()
                && p.pi.num_blocks() == 2
                && p.tau.num_blocks() == 2
        });
        assert!(found, "expected the Fig. 6 symmetric Mm-pair to be found");
    }

    #[test]
    fn symmetric_closures_are_symmetric_pairs() {
        for s in 0..4 {
            for t in (s + 1)..4 {
                let (pi, tau) = symmetric_pair_closure(&Fig5, s, t);
                assert!(pi.same_block(s, t));
                assert!(is_symmetric_pair(&Fig5, &pi, &tau), "closure of ({s},{t})");
            }
        }
    }

    #[test]
    fn symmetric_basis_contains_the_paper_solution() {
        let basis = symmetric_basis(&Fig5);
        assert!(!basis.is_empty());
        let pi = Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]]).unwrap();
        let tau = Partition::from_blocks(4, &[vec![0, 3], vec![1, 2]]).unwrap();
        // The Fig. 6 pair must be reachable as a join of basis elements; for
        // this machine it already appears as a single closure.
        assert!(
            basis.iter().any(|(p, t)| p.refines(&pi) && t.refines(&tau)),
            "no basis element below the paper pair"
        );
    }

    /// Regression: a crossed product of two 2-state machines whose planted
    /// column partition is *not* a join of `m(ρ_{s,t})` images — the old
    /// basis missed the 2×2 solution entirely.
    struct Crossed;
    impl Transitions for Crossed {
        fn num_states(&self) -> usize {
            4
        }
        fn num_inputs(&self) -> usize {
            2
        }
        fn next_state(&self, s: usize, i: usize) -> usize {
            const TABLE: [[usize; 2]; 4] = [[1, 3], [1, 3], [0, 3], [0, 3]];
            TABLE[s][i]
        }
    }

    #[test]
    fn symmetric_basis_reaches_pairs_outside_the_m_image_lattice() {
        let pi = Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]]).unwrap();
        let tau = Partition::from_blocks(4, &[vec![0, 2], vec![1, 3]]).unwrap();
        assert!(is_symmetric_pair(&Crossed, &pi, &tau));
        // The old m(ρ)-image basis cannot express τ ...
        let old = basis_partitions(&Crossed);
        let mut join_all = Partition::identity(4);
        for b in &old {
            join_all = join_all.join(b).unwrap();
        }
        assert!(
            !tau.refines(&join_all),
            "τ unexpectedly inside the old lattice"
        );
        // ... but (π, τ) is the join of the symmetric-basis elements below it
        // (the completeness property of the basis).
        let mut joined = (Partition::identity(4), Partition::identity(4));
        for (bp, bt) in symmetric_basis(&Crossed) {
            if bp.refines(&pi) && bt.refines(&tau) {
                joined = (joined.0.join(&bp).unwrap(), joined.1.join(&bt).unwrap());
            }
        }
        assert_eq!(joined, (pi, tau));
    }

    #[test]
    fn pair_sort_key_matches_the_display_rendering() {
        // The hand-rolled key builder must stay byte-identical to the
        // `Display`-based key it replaced, or the basis order — and with it
        // every committed search statistic — silently changes.
        for pi in enumerate_partitions(5) {
            for tau in [Partition::identity(5), Partition::universal(5)] {
                assert_eq!(pair_sort_key(&pi, &tau), format!("{pi}|{tau}"));
            }
        }
        // Multi-digit elements (where string order differs from numeric
        // order) are exactly the case the byte-identity must cover.
        let big = Partition::from_pairs(12, [(0, 11), (1, 10)]).unwrap();
        assert_eq!(
            pair_sort_key(&big, &big),
            format!("{big}|{big}"),
            "multi-digit elements"
        );
    }

    #[test]
    fn symmetric_basis_is_deduplicated_and_deterministic() {
        let a = symmetric_basis(&Fig5);
        let b = symmetric_basis(&Fig5);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().cloned().collect();
        assert_eq!(set.len(), a.len());
    }

    #[test]
    fn generated_by_is_idempotent() {
        for p in enumerate_partitions(4) {
            let pair = MmPair::generated_by(&Fig5, &p);
            let again = MmPair::generated_by(&Fig5, &pair.pi);
            assert_eq!(pair, again);
        }
    }
}
