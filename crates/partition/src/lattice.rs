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
//! ([`symmetric_pair_closure`]) identifying one pair of states.  Rather than
//! closing each of the `n(n−1)/2` state pairs on its own, it walks the pair
//! graph once and closes each strongly connected component once, sinks
//! first: `scale_s`'s 5,671 pairs share 33 basis elements.  The per-pair
//! closure stays as the reference its tests compare against.

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
/// [`symmetric_basis`] computes all of them at once; this per-pair closure
/// is the reference its tests compare against.
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
    let labels = closure_labels(delta, s, t);
    (
        Partition::from_labels(&labels[..n]),
        Partition::from_labels(&labels[n..]),
    )
}

/// The union–find core of [`symmetric_pair_closure`]: returns the root
/// labels of the doubled ground set (π side `0..n`, τ side `n..2n`).
///
/// The closure is lazy: a pair enters the worklist only when its union
/// succeeded, and its successors are unioned when it is popped.  A union
/// that fails relates states already joined by a chain of successful
/// unions, whose successors are (or will be) unioned pair by pair, so the
/// failed pair's successors end up related by transitivity.
/// Unions never cross sides, so once the union–find is down to two sets
/// each side is a single block and no further union can succeed: the loop
/// returns there.  The closure is the least congruence containing the seed,
/// independent of processing order, so the early return changes no label.
fn closure_labels<T: Transitions + ?Sized>(delta: &T, s: usize, t: usize) -> Vec<usize> {
    let n = delta.num_states();
    let mut dsu = DisjointSets::new(2 * n);
    let mut worklist = Vec::new();
    // Doubled ground set: 0..n is the π side, n..2n is the τ side.
    if dsu.union(s, t) {
        worklist.push((s, t, false));
    }
    while let Some((u, v, tau_side)) = worklist.pop() {
        // Successors of a π-side pair are related on the τ side and back.
        let offset = if tau_side { 0 } else { n };
        for i in 0..delta.num_inputs() {
            let (a, b) = (delta.next_state(u, i), delta.next_state(v, i));
            if dsu.union(a + offset, b + offset) {
                if dsu.num_sets() == 2 {
                    return dsu.labels();
                }
                worklist.push((a, b, !tau_side));
            }
        }
    }
    dsu.labels()
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
/// The closures are not computed pair by pair.  In the *pair graph*, a node
/// is a pair `{u, v}` of distinct states on the π or the τ side, and each
/// distinct input column leads it to `{δ(u, i), δ(v, i)}` on the other
/// side.  The closure of `(s, t)` is the equivalence closure of the pairs
/// reachable from `{s, t}` on the π side, so every node of one strongly
/// connected component shares one closure, and a component's closure is
/// the join of its own pairs with the closures of the components it
/// reaches.  One pass of Tarjan's algorithm, which finishes components
/// sinks first, closes each component once.
///
/// The list is sorted by `(total blocks, Display)` so the ordering is
/// deterministic, as the depth-first search requires; the sort keys are
/// unique, so the order in which the closures are found does not matter.
#[must_use]
pub fn symmetric_basis<T: Transitions + ?Sized>(delta: &T) -> Vec<(Partition, Partition)> {
    let n = delta.num_states();
    let (closures, of_node) = PairGraph::new(delta).close_components();
    let mut taken = vec![false; closures.labels.len()];
    let mut seen = std::collections::HashSet::new();
    let mut result = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            let id = of_node[u * n + v] as usize;
            if std::mem::replace(&mut taken[id], true) {
                continue;
            }
            let (pi, tau) = closures.labels[id].split_at(n);
            for (first, second) in [(pi, tau), (tau, pi)] {
                if seen.insert((first, second)) {
                    result.push((half_partition(first), half_partition(second)));
                }
            }
        }
    }
    result.sort_by_cached_key(|(pi, tau)| {
        (pi.num_blocks() + tau.num_blocks(), pair_sort_key(pi, tau))
    });
    result
}

/// An absent `u32`: a node the walk has not reached, a node whose component
/// is still open, a union–find root not yet labelled.
const NONE: u32 = u32::MAX;

/// The pair graph of a machine, whose components [`symmetric_basis`]
/// closes.
///
/// A node is an ordered pair `(u, v)` of distinct states, numbered `u·n + v`:
/// `u < v` stands for the pair `{u, v}` on the π side, `u > v` for the same
/// pair on the τ side.  Each distinct next-state column `δ(·, i)` gives a
/// node one edge, to `{δ(u, i), δ(v, i)}` on the other side, unless the two
/// successors coincide.  Edges are computed on the fly from the columns,
/// never stored: `ex1` would need 380 nodes × 512 columns of them.
struct PairGraph {
    n: usize,
    /// The distinct next-state columns, one after another: state `s` of
    /// column `k` is at `k·n + s`.
    columns: Vec<u32>,
    num_columns: usize,
}

/// One node of the depth-first walk in progress.
struct Frame {
    u: u32,
    v: u32,
    /// The next column whose edge the walk follows.
    column: usize,
    /// Where this node's entries start in the walk's successor stack.
    mark: usize,
}

impl PairGraph {
    fn new<T: Transitions + ?Sized>(delta: &T) -> Self {
        let n = delta.num_states();
        // Identical columns contribute identical edges; machines like `tbk`
        // share two transition maps among 64 inputs.
        let mut seen = std::collections::HashSet::new();
        let mut columns = Vec::new();
        for i in 0..delta.num_inputs() {
            let column: Vec<u32> = (0..n)
                .map(|s| u32::try_from(delta.next_state(s, i)).expect("state fits in u32"))
                .collect();
            if !seen.contains(&column) {
                columns.extend_from_slice(&column);
                seen.insert(column);
            }
        }
        let num_columns = seen.len();
        Self {
            n,
            columns,
            num_columns,
        }
    }

    /// The node `(u, v)` leads to through column `k`, unless the column
    /// maps `u` and `v` to the same state.
    fn successor(&self, u: u32, v: u32, k: usize) -> Option<u32> {
        let column = &self.columns[k * self.n..(k + 1) * self.n];
        let (a, b) = (column[u as usize], column[v as usize]);
        if a == b {
            return None;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let n = self.n as u32;
        // A π-side node leads to the τ side and back.
        Some(if u < v { hi * n + lo } else { lo * n + hi })
    }

    /// Closes every component reachable from a π-side node; returns the
    /// closures and, for each node, the id of its closure (`NONE` for
    /// nodes the walk does not reach).
    ///
    /// Iterative Tarjan: `open` is Tarjan's stack of nodes whose component
    /// is not finished, and `successors` collects, above each frame's
    /// `mark`, the closure ids of finished components that the frame's
    /// node and its open descendants reach.  Those descendants belong to
    /// the node's component or finish before it, so when a component's
    /// root finishes, its entries above the root's mark are exactly the
    /// closures of the components it leads to.
    fn close_components(&self) -> (Closures, Vec<u32>) {
        let n = self.n;
        let nodes = u32::try_from(n * n).expect("pair-graph nodes fit in u32");
        let mut order = vec![NONE; nodes as usize];
        let mut low = vec![0u32; nodes as usize];
        let mut closure = vec![NONE; nodes as usize];
        let mut closures = Closures::new(n);
        let mut open: Vec<u32> = Vec::new();
        let mut successors: Vec<u32> = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        let mut visited = 0u32;
        let node = |u: u32, v: u32| u * n as u32 + v;
        let pi_side = (0..n as u32).flat_map(|u| (u + 1..n as u32).map(move |v| (u, v)));
        for (u, v) in pi_side {
            if order[node(u, v) as usize] != NONE {
                continue;
            }
            let mut next = Some((u, v));
            loop {
                if let Some((u, v)) = next.take() {
                    let x = node(u, v) as usize;
                    order[x] = visited;
                    low[x] = visited;
                    visited += 1;
                    open.push(x as u32);
                    frames.push(Frame {
                        u,
                        v,
                        column: 0,
                        mark: successors.len(),
                    });
                }
                let Some(top) = frames.last_mut() else { break };
                let x = node(top.u, top.v) as usize;
                while top.column < self.num_columns {
                    let k = top.column;
                    top.column += 1;
                    let Some(y) = self.successor(top.u, top.v, k) else {
                        continue;
                    };
                    let y = y as usize;
                    if order[y] == NONE {
                        next = Some(((y / n) as u32, (y % n) as u32));
                        break;
                    }
                    if closure[y] == NONE {
                        low[x] = low[x].min(order[y]);
                    } else {
                        push_successor(&mut successors, top.mark, closure[y]);
                    }
                }
                if next.is_some() {
                    continue;
                }
                let finished = frames.pop().expect("the loop holds a frame");
                if low[x] == order[x] {
                    let start = open
                        .iter()
                        .rposition(|&m| m as usize == x)
                        .expect("a component root is open");
                    let id = closures.close(&open[start..], successors.drain(finished.mark..));
                    for &m in &open[start..] {
                        closure[m as usize] = id;
                    }
                    open.truncate(start);
                }
                if let Some(parent) = frames.last() {
                    let p = node(parent.u, parent.v) as usize;
                    if closure[x] == NONE {
                        low[p] = low[p].min(low[x]);
                    } else {
                        push_successor(&mut successors, parent.mark, closure[x]);
                    }
                }
            }
        }
        (closures, closure)
    }
}

/// Records a reached closure for the frame whose entries start at `mark`,
/// skipping a repeat of the frame's latest entry.
fn push_successor(successors: &mut Vec<u32>, mark: usize, id: u32) {
    if successors.len() == mark || successors.last() != Some(&id) {
        successors.push(id);
    }
}

/// The interned closures of [`PairGraph::close_components`].
///
/// A closure is stored as labels over the doubled ground set, each side
/// relabelled canonically (first occurrence, starting at 0) on its own, so
/// equal closures have equal labels and one side's labels are a
/// [`Partition::from_labels`] input as they stand.
struct Closures {
    n: usize,
    labels: Vec<std::rc::Rc<[u32]>>,
    ids: std::collections::HashMap<std::rc::Rc<[u32]>, u32>,
    /// Memoized joins of sets (sorted, deduplicated) of two or more
    /// closure ids.
    joins: std::collections::HashMap<Vec<u32>, u32>,
    dsu: DisjointSets,
    /// Scratch: the successor set of the component being closed.
    set: Vec<u32>,
    /// Scratch: the first element of each block of the closure being
    /// loaded into `dsu`.
    first: Vec<usize>,
    /// Scratch: the canonical label of each union–find root.
    root_label: Vec<u32>,
}

impl Closures {
    fn new(n: usize) -> Self {
        Self {
            n,
            labels: Vec::new(),
            ids: std::collections::HashMap::new(),
            joins: std::collections::HashMap::new(),
            dsu: DisjointSets::new(2 * n),
            set: Vec::new(),
            first: vec![0; n],
            root_label: vec![NONE; 2 * n],
        }
    }

    /// The closure of a component with nodes `members` whose edges leave
    /// it for components with closures `successors`.
    fn close(&mut self, members: &[u32], successors: impl Iterator<Item = u32>) -> u32 {
        let mut set = std::mem::take(&mut self.set);
        set.clear();
        set.extend(successors);
        set.sort_unstable();
        set.dedup();
        let base = match set.as_slice() {
            [] => None,
            &[only] => Some(only),
            several => Some(if let Some(&id) = self.joins.get(several) {
                id
            } else {
                let id = self.join(several, &[]);
                self.joins.insert(several.to_vec(), id);
                id
            }),
        };
        self.set = set;
        match base {
            Some(id) if self.holds(id, members) => id,
            _ => self.join(base.as_slice(), members),
        }
    }

    /// The two doubled-ground-set elements a node relates.
    fn elements(&self, node: u32) -> (usize, usize) {
        let (u, v) = (node as usize / self.n, node as usize % self.n);
        let side = if u < v { 0 } else { self.n };
        (side + u, side + v)
    }

    /// Whether closure `id` already relates every member's pair.
    fn holds(&self, id: u32, members: &[u32]) -> bool {
        let labels = &self.labels[id as usize];
        members.iter().all(|&m| {
            let (a, b) = self.elements(m);
            labels[a] == labels[b]
        })
    }

    /// Interns the join of closures `ids` with the pairs of `members`.
    fn join(&mut self, ids: &[u32], members: &[u32]) -> u32 {
        let n = self.n;
        self.dsu.reset(2 * n);
        for &id in ids {
            let labels = &self.labels[id as usize];
            for side in [0, n] {
                let mut blocks = 0;
                for x in side..side + n {
                    let l = labels[x] as usize;
                    if l == blocks {
                        self.first[l] = x;
                        blocks += 1;
                    } else {
                        self.dsu.union(self.first[l], x);
                    }
                }
            }
        }
        for &m in members {
            let (a, b) = self.elements(m);
            self.dsu.union(a, b);
        }
        let mut key = Vec::with_capacity(2 * n);
        for side in [0, n] {
            let mut blocks = 0;
            for x in side..side + n {
                let root = self.dsu.find(x);
                if self.root_label[root] == NONE {
                    self.root_label[root] = blocks;
                    blocks += 1;
                }
                key.push(self.root_label[root]);
            }
        }
        for x in 0..2 * n {
            self.root_label[self.dsu.find(x)] = NONE;
        }
        if let Some(&id) = self.ids.get(key.as_slice()) {
            return id;
        }
        let id = u32::try_from(self.labels.len()).expect("closure ids fit in u32");
        let key: std::rc::Rc<[u32]> = key.into();
        self.labels.push(key.clone());
        self.ids.insert(key, id);
        id
    }
}

/// The partition of one side's canonical closure labels.
fn half_partition(labels: &[u32]) -> Partition {
    let labels: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
    Partition::from_labels(&labels)
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
