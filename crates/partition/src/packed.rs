//! Packed, allocation-free partition kernels for the OSTR search hot path.
//!
//! The [`crate::Partition`] type is the canonical, self-describing
//! representation: it owns its sorted block lists and every lattice operation
//! allocates a fresh result.  That is the right shape for APIs and tests, but
//! the depth-first OSTR search in `stc-synth` performs one join and one
//! `π ∩ τ ⊆ ε` check *per search-tree node*, and the allocation traffic of
//! the general representation dominates the solver's runtime.
//!
//! This module provides the packed counterpart used by that hot path:
//!
//! * [`PackedPartition`] — a partition stored as one canonical label per
//!   element (`u32` labels, numbered in order of each block's smallest
//!   element, exactly like [`crate::Partition`]'s block ids);
//! * [`PackedPair`] — a partition pair `(π, τ)`, the κ of a search node;
//! * [`JoinEdges`] and [`EdgeJoin`] — the one join kernel.  A partition `p`
//!   is generated by its *edges* `(first, x)`, one per non-first member `x`
//!   of each block; `base ∨ p` is `base` with its blocks unioned along those
//!   edges.  [`EdgeJoin::merge`] runs that union–find over `base`'s block
//!   ids only and returns the number of merges — the join's block count is
//!   `base.num_blocks() - merges`, and zero merges means `p` refines `base`
//!   — without writing a label.  [`EdgeJoin::write_into`] then materialises
//!   the join in one first-occurrence relabelling pass.  The search counts
//!   and bound-checks a child from the merge count alone and materialises
//!   only the children it keeps;
//! * [`PackedScratch`] — the reusable workspace of [`meets_within`] and
//!   [`PackedPartition::is_refinement_of`] (stamped label maps and chains).
//!
//! All operations are loops over flat `u32` words — no hashing, no per-call
//! `Vec`s — and allocation-free once their scratch has reached the
//! ground-set size.  The semantics are pinned to the general implementation
//! by the property tests in `proptests.rs` ([`EdgeJoin`] ⇔
//! [`crate::Partition::join`], [`PackedPartition::is_refinement_of`] ⇔
//! [`crate::Partition::refines`], [`meets_within`] ⇔
//! [`crate::Partition::intersection_within`]).
//!
//! # Why these kernels are not SIMD-wide
//!
//! Unlike the bit-packed logic/BIST evaluators (which carry 64 independent
//! patterns per word and widen further to `[u64; 4]` groups), the partition
//! kernels chase *labels through memory*: union–find parent updates in
//! [`EdgeJoin::merge`] and the stamp-dedup chains in [`meets_within`] have a
//! loop-carried data dependence (one edge's or element's outcome feeds the
//! state the next one reads), so they cannot process several elements per
//! step.  What *can* be straightened is the read-only refinement check:
//! [`PackedPartition::is_refinement_of`] exploits the canonical
//! first-occurrence labelling to replace the per-element bitset probe with
//! an integer compare and accumulates mismatches branch-free in 64-element
//! chunks, which is the unroll-friendly form of the same test.

use crate::partition::Partition;

/// Reusable scratch space for [`meets_within`] and
/// [`PackedPartition::is_refinement_of`].
///
/// One scratch serves any number of partitions; it grows to the largest
/// ground set it has seen and every operation is allocation-free once the
/// high-water mark is reached.  A scratch is cheap to create and is *not*
/// tied to a particular partition.
#[derive(Debug, Default, Clone)]
pub struct PackedScratch {
    /// First `other`-label witnessed per block for `is_refinement_of`.
    relabel: Vec<u32>,
    /// Chain heads per π-block for [`meets_within`].
    head: Vec<u32>,
    /// Chain links per element for [`meets_within`].
    next: Vec<u32>,
    /// Stamp per τ-label (validity of `tau_first`).
    tau_stamp: Vec<u32>,
    /// First `within`-label seen for a τ-label inside the current π-block.
    tau_first: Vec<u32>,
    /// Current stamp epoch for `tau_stamp`.
    epoch: u32,
}

impl PackedScratch {
    /// Creates an empty scratch; storage grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize) {
        if self.relabel.len() < n {
            self.relabel.resize(n, 0);
            self.head.resize(n, 0);
            self.next.resize(n, 0);
            self.tau_stamp.resize(n, 0);
            self.tau_first.resize(n, 0);
        }
    }

    /// Advances the τ-label stamp epoch, clearing the stamps on wrap-around.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for s in &mut self.tau_stamp {
                *s = 0;
            }
            self.epoch = 1;
        }
        self.epoch
    }
}

/// A partition of `{0, …, n-1}` packed as one canonical `u32` label per
/// element.
///
/// Labels are block ids numbered in order of each block's smallest element,
/// so `packed.label(x) == partition.block_of(x)` for the corresponding
/// [`Partition`] and two packed partitions over the same ground set are equal
/// as relations iff their label arrays are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPartition {
    n: u32,
    num_blocks: u32,
    labels: Vec<u32>,
}

impl PackedPartition {
    /// The identity (all-singleton) partition.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            n: n as u32,
            num_blocks: n as u32,
            labels: (0..n as u32).collect(),
        }
    }

    /// Packs a general [`Partition`].
    #[must_use]
    pub fn from_partition(p: &Partition) -> Self {
        let n = p.ground_set_size();
        Self {
            n: n as u32,
            num_blocks: p.num_blocks() as u32,
            labels: (0..n).map(|x| p.block_of(x) as u32).collect(),
        }
    }

    /// Unpacks into a general [`Partition`].
    #[must_use]
    pub fn to_partition(&self) -> Partition {
        let labels: Vec<usize> = self.labels.iter().map(|&l| l as usize).collect();
        Partition::from_labels(&labels)
    }

    /// Size of the ground set.
    #[must_use]
    pub fn ground_set_size(&self) -> usize {
        self.n as usize
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks as usize
    }

    /// The canonical block label of element `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the ground set.
    #[must_use]
    pub fn label(&self, x: usize) -> u32 {
        self.labels[x]
    }

    /// Overwrites `self` with a copy of `other` (same ground set), reusing
    /// the existing label storage.
    pub fn copy_from(&mut self, other: &Self) {
        debug_assert_eq!(self.n, other.n, "ground sets must match");
        self.num_blocks = other.num_blocks;
        self.labels.copy_from_slice(&other.labels);
    }

    /// Returns `true` if `self` refines `other` (`self ≤ other`): every block
    /// of `self` lies inside a block of `other`.  Allocation-free.
    ///
    /// Every `PackedPartition` carries canonical first-occurrence labels
    /// (blocks numbered by smallest element — constructed that way and
    /// preserved by [`EdgeJoin::write_into`]), so scanning left to right,
    /// element `x` opens a new `self`-block iff its label equals the count
    /// of blocks seen so far.  That turns the "first sighting of this
    /// block" test into one integer compare — no bitset probe, no clearing
    /// pass — and lets the loop accumulate mismatches branch-free,
    /// early-exiting once per 64-element chunk instead of per element.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the ground sets differ.
    pub fn is_refinement_of(&self, other: &Self, scratch: &mut PackedScratch) -> bool {
        debug_assert_eq!(self.n, other.n, "ground sets must match");
        let n = self.n as usize;
        scratch.ensure(n);
        // `relabel[b]` caches the `other`-label witnessed by block `b`'s
        // first element; `self` refines `other` iff every later element of
        // the block sees the same witness.
        let mut fresh = 0u32;
        for chunk_start in (0..n).step_by(64) {
            let end = (chunk_start + 64).min(n);
            let mut mismatch = false;
            for x in chunk_start..end {
                let l = self.labels[x];
                let o = other.labels[x];
                if l == fresh {
                    scratch.relabel[l as usize] = o;
                    fresh += 1;
                }
                mismatch |= scratch.relabel[l as usize] != o;
            }
            if mismatch {
                return false;
            }
        }
        true
    }
}

/// Returns `true` if `π ∩ τ ⊆ within` — the Theorem 1 / Lemma 1 criterion
/// `π ∩ τ ⊆ ε` of the paper — without materialising the meet.
///
/// Equivalent to `pi.meet(&tau)?.refines(within)` on the general
/// representation: elements sharing both a π-block and a τ-block must share a
/// `within`-block.  Runs in `O(n)` and is allocation-free once `scratch` has
/// reached the ground-set size.
///
/// # Panics
///
/// Panics (debug assertion) if the ground sets differ.
pub fn meets_within(
    pi: &PackedPartition,
    tau: &PackedPartition,
    within: &PackedPartition,
    scratch: &mut PackedScratch,
) -> bool {
    debug_assert_eq!(pi.n, tau.n, "ground sets must match");
    debug_assert_eq!(pi.n, within.n, "ground sets must match");
    let n = pi.n as usize;
    scratch.ensure(n);
    const NONE: u32 = u32::MAX;
    let blocks = pi.num_blocks as usize;
    scratch.head[..blocks].fill(NONE);
    // Thread the elements of each π-block onto a chain (ascending order).
    for x in (0..n).rev() {
        let b = pi.labels[x] as usize;
        scratch.next[x] = scratch.head[b];
        scratch.head[b] = x as u32;
    }
    for b in 0..blocks {
        let epoch = scratch.next_epoch();
        let mut x = scratch.head[b];
        while x != NONE {
            let tl = tau.labels[x as usize] as usize;
            let wl = within.labels[x as usize];
            if scratch.tau_stamp[tl] == epoch {
                // Another element of this π-block shares the τ-block; the
                // meet relates them, so they must share a `within`-block.
                if scratch.tau_first[tl] != wl {
                    return false;
                }
            } else {
                scratch.tau_stamp[tl] = epoch;
                scratch.tau_first[tl] = wl;
            }
            x = scratch.next[x as usize];
        }
    }
    true
}

/// A packed partition pair `(π, τ)` — the κ of an OSTR search node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPair {
    /// The first component `π`.
    pub pi: PackedPartition,
    /// The second component `τ`.
    pub tau: PackedPartition,
}

impl PackedPair {
    /// The identity pair `(0, 0)` — the κ of the search root.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            pi: PackedPartition::identity(n),
            tau: PackedPartition::identity(n),
        }
    }

    /// Packs a general pair.
    #[must_use]
    pub fn from_pair(pi: &Partition, tau: &Partition) -> Self {
        Self {
            pi: PackedPartition::from_partition(pi),
            tau: PackedPartition::from_partition(tau),
        }
    }

    /// Overwrites `self` with a copy of `other` (same ground set).
    pub fn copy_from(&mut self, other: &Self) {
        self.pi.copy_from(&other.pi);
        self.tau.copy_from(&other.tau);
    }
}

/// The generator edges of a partition `p`: for every block, `(first, x)`
/// for each other member `x`, in ascending element order.
///
/// `p` is the finest partition relating the ends of every edge, so for any
/// `base` over the same ground set, `base ∨ p` is `base` with its blocks
/// unioned along these edges ([`EdgeJoin`]).  A partition with `b` blocks
/// over `n` elements has `n - b` edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinEdges {
    edges: Vec<[u32; 2]>,
}

impl JoinEdges {
    /// The generator edges of `p`.
    #[must_use]
    pub fn of(p: &PackedPartition) -> Self {
        // Canonical labels number blocks by smallest element, so element `x`
        // opens block `l` exactly when `l` equals the blocks seen so far.
        let mut first: Vec<u32> = Vec::with_capacity(p.num_blocks());
        let mut edges = Vec::with_capacity(p.ground_set_size() - p.num_blocks());
        for (x, &l) in p.labels.iter().enumerate() {
            if l as usize == first.len() {
                first.push(x as u32);
            } else {
                edges.push([first[l as usize], x as u32]);
            }
        }
        Self { edges }
    }
}

/// The join kernel: `base ∨ p` from `base`'s labels and `p`'s
/// [`JoinEdges`], counted before it is materialised.
///
/// [`Self::merge`] runs a union–find over `base`'s *block ids*, initialised
/// lazily: a block's slot is valid only when its stamp equals the current
/// epoch, so starting a join costs one counter increment rather than a
/// pass over the blocks.  [`Self::write_into`] then writes the canonical
/// first-occurrence labels of the join.  Both are allocation-free once the
/// state has grown to the largest block count seen.
#[derive(Debug, Clone, Default)]
pub struct EdgeJoin {
    /// Union–find parent per `base` block id (valid when stamped).
    parent: Vec<u32>,
    /// Epoch stamp per block id: validity of `parent`.
    stamp: Vec<u32>,
    /// Output label per union–find root (valid when `relabel_stamp`ed).
    relabel: Vec<u32>,
    /// Epoch stamp per root: validity of `relabel`.
    relabel_stamp: Vec<u32>,
    epoch: u32,
    /// Merges of the last [`Self::merge`].
    merges: usize,
}

impl EdgeJoin {
    /// Creates an empty kernel; storage grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Unions `base`'s blocks along `edges` and returns the number of
    /// merges: `base ∨ p` has `base.num_blocks() - merges` blocks, and zero
    /// merges means `p` refines `base`.  Writes no labels.
    ///
    /// # Panics
    ///
    /// Panics if an edge lies outside `base`'s ground set.
    pub fn merge(&mut self, base: &PackedPartition, edges: &JoinEdges) -> usize {
        self.begin(base.num_blocks());
        // Once everything is one block no later edge can merge.
        let max_merges = base.num_blocks().saturating_sub(1);
        let mut merges = 0;
        for &[a, x] in &edges.edges {
            let (la, lx) = (base.labels[a as usize], base.labels[x as usize]);
            if la != lx {
                let (ra, rx) = (self.root(la), self.root(lx));
                if ra != rx {
                    self.parent[ra as usize] = rx;
                    merges += 1;
                    if merges == max_merges {
                        break;
                    }
                }
            }
        }
        self.merges = merges;
        merges
    }

    /// Writes the join of the last [`Self::merge`] into `out`: the canonical
    /// first-occurrence relabelling of `base` through the union–find, one
    /// pass over the elements (a plain copy when nothing merged).
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `base` is not the partition of the last
    /// `merge` or the ground sets differ.
    pub fn write_into(&mut self, base: &PackedPartition, out: &mut PackedPartition) {
        debug_assert_eq!(base.n, out.n, "ground sets must match");
        if self.merges == 0 {
            out.copy_from(base);
            return;
        }
        let epoch = self.epoch;
        let mut next = 0u32;
        for (slot, &l) in out.labels.iter_mut().zip(&base.labels) {
            let r = self.root(l) as usize;
            if self.relabel_stamp[r] != epoch {
                self.relabel_stamp[r] = epoch;
                self.relabel[r] = next;
                next += 1;
            }
            *slot = self.relabel[r];
        }
        out.num_blocks = next;
    }

    /// Starts a join over `blocks` block ids: a new epoch invalidates every
    /// slot at once (stamps are cleared only when the epoch wraps).
    fn begin(&mut self, blocks: usize) {
        if self.parent.len() < blocks {
            self.parent.resize(blocks, 0);
            self.stamp.resize(blocks, 0);
            self.relabel.resize(blocks, 0);
            self.relabel_stamp.resize(blocks, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.relabel_stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Union–find `find` with path halving; an unstamped id is a singleton.
    fn root(&mut self, mut b: u32) -> u32 {
        let epoch = self.epoch;
        loop {
            let i = b as usize;
            if self.stamp[i] != epoch {
                self.stamp[i] = epoch;
                self.parent[i] = b;
                return b;
            }
            let p = self.parent[i];
            if p == b {
                return b;
            }
            // Parents are always stamped roots or interior ids of this epoch.
            let grand = self.parent[p as usize];
            self.parent[i] = grand;
            b = grand;
        }
    }
}

/// The [`JoinEdges`] of both components of a pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairEdges {
    pi: JoinEdges,
    tau: JoinEdges,
}

impl PairEdges {
    /// The generator edges of both components of `pair`.
    #[must_use]
    pub fn of(pair: &PackedPair) -> Self {
        Self {
            pi: JoinEdges::of(&pair.pi),
            tau: JoinEdges::of(&pair.tau),
        }
    }
}

/// The component-wise [`EdgeJoin`] of pairs.
#[derive(Debug, Clone, Default)]
pub struct PairJoin {
    pi: EdgeJoin,
    tau: EdgeJoin,
}

impl PairJoin {
    /// Creates an empty kernel; storage grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// [`EdgeJoin::merge`] per component: the merges of `base.pi ∨ p.pi`
    /// and `base.tau ∨ p.tau`.  `(0, 0)` means `p ≤ base`.
    pub fn merge(&mut self, base: &PackedPair, edges: &PairEdges) -> (usize, usize) {
        (
            self.pi.merge(&base.pi, &edges.pi),
            self.tau.merge(&base.tau, &edges.tau),
        )
    }

    /// [`EdgeJoin::write_into`] per component.
    pub fn write_into(&mut self, base: &PackedPair, out: &mut PackedPair) {
        self.pi.write_into(&base.pi, &mut out.pi);
        self.tau.write_into(&base.tau, &mut out.tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(blocks: &[&[usize]], n: usize) -> Partition {
        Partition::from_blocks(n, &blocks.iter().map(|b| b.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_canonical_labels() {
        let p = parts(&[&[0, 2], &[1, 4], &[3]], 5);
        let packed = PackedPartition::from_partition(&p);
        assert_eq!(packed.num_blocks(), 3);
        for x in 0..5 {
            assert_eq!(packed.label(x) as usize, p.block_of(x));
        }
        assert_eq!(packed.to_partition(), p);
    }

    /// `base ∨ other` through the edge kernel: (merges, joined partition).
    fn edge_join(base: &Partition, other: &Partition) -> (usize, Partition) {
        let base = PackedPartition::from_partition(base);
        let edges = JoinEdges::of(&PackedPartition::from_partition(other));
        let mut join = EdgeJoin::new();
        let merges = join.merge(&base, &edges);
        let mut out = PackedPartition::identity(base.ground_set_size());
        join.write_into(&base, &mut out);
        (merges, out.to_partition())
    }

    #[test]
    fn generator_edges_link_each_member_to_its_block_head() {
        let p = PackedPartition::from_partition(&parts(&[&[0, 2, 3], &[1, 4], &[5]], 6));
        assert_eq!(JoinEdges::of(&p).edges, vec![[0, 2], [0, 3], [1, 4]]);
        assert!(JoinEdges::of(&PackedPartition::identity(4))
            .edges
            .is_empty());
    }

    #[test]
    fn edge_join_matches_the_general_join() {
        let a = parts(&[&[0, 1], &[2], &[3], &[4]], 5);
        let b = parts(&[&[1, 2], &[0], &[3, 4]], 5);
        let (merges, joined) = edge_join(&a, &b);
        assert_eq!(merges, 2);
        assert_eq!(joined, a.join(&b).unwrap());
    }

    #[test]
    fn edge_join_reports_no_merge_for_refinements() {
        let coarse = parts(&[&[0, 1, 2], &[3]], 4);
        let fine = parts(&[&[0, 1], &[2], &[3]], 4);
        assert_eq!(edge_join(&coarse, &fine), (0, coarse));
    }

    #[test]
    fn refinement_matches_the_general_order() {
        let fine = parts(&[&[0, 1], &[2], &[3]], 4);
        let coarse = parts(&[&[0, 1, 2], &[3]], 4);
        let other = parts(&[&[0, 3], &[1, 2]], 4);
        let mut scratch = PackedScratch::new();
        let pf = PackedPartition::from_partition(&fine);
        let pc = PackedPartition::from_partition(&coarse);
        let po = PackedPartition::from_partition(&other);
        assert!(pf.is_refinement_of(&pc, &mut scratch));
        assert!(!pc.is_refinement_of(&pf, &mut scratch));
        assert!(!pf.is_refinement_of(&po, &mut scratch));
        assert!(pf.is_refinement_of(&pf.clone(), &mut scratch));
    }

    #[test]
    fn meets_within_matches_intersection_within() {
        let pi = parts(&[&[0, 1], &[2, 3]], 4);
        let tau = parts(&[&[0, 3], &[1, 2]], 4);
        let eps = Partition::identity(4);
        let mut scratch = PackedScratch::new();
        let (ppi, ptau, peps) = (
            PackedPartition::from_partition(&pi),
            PackedPartition::from_partition(&tau),
            PackedPartition::from_partition(&eps),
        );
        assert!(meets_within(&ppi, &ptau, &peps, &mut scratch));
        // π ∩ π = π ⊄ identity.
        assert!(!meets_within(&ppi, &ppi, &peps, &mut scratch));
        // Everything is contained in the universal relation.
        let uni = PackedPartition::from_partition(&Partition::universal(4));
        assert!(meets_within(&ppi, &ppi, &uni, &mut scratch));
    }

    #[test]
    fn large_ground_sets_join_to_the_universal_partition() {
        let n = 130;
        let even_odd: Vec<usize> = (0..n).map(|x| x % 2).collect();
        let mod3: Vec<usize> = (0..n).map(|x| x % 3).collect();
        let a = Partition::from_labels(&even_odd);
        let b = Partition::from_labels(&mod3);
        let (merges, joined) = edge_join(&a, &b);
        assert_eq!(merges, 1);
        assert_eq!(joined, a.join(&b).unwrap());
        assert!(joined.is_universal());
    }

    #[test]
    fn pair_join_and_copy() {
        let n = 4;
        let b1 = PackedPair::from_pair(
            &parts(&[&[0, 1], &[2], &[3]], n),
            &parts(&[&[2, 3], &[0], &[1]], n),
        );
        let edges = PairEdges::of(&b1);
        let kappa = PackedPair::identity(n);
        let mut join = PairJoin::new();
        assert_eq!(join.merge(&kappa, &edges), (1, 1));
        let mut joined = PackedPair::identity(n);
        join.write_into(&kappa, &mut joined);
        assert_eq!(joined, b1);
        assert_eq!(join.merge(&joined, &edges), (0, 0));
        let mut copy = PackedPair::identity(n);
        copy.copy_from(&joined);
        assert_eq!(copy, joined);
    }

    #[test]
    fn epochs_survive_wrap_around() {
        let a = PackedPartition::from_partition(&parts(&[&[0, 1], &[2], &[3]], 4));
        let edges = JoinEdges::of(&PackedPartition::from_partition(&parts(
            &[&[1, 2], &[0], &[3]],
            4,
        )));
        let mut join = EdgeJoin::new();
        join.epoch = u32::MAX - 1;
        let mut out = PackedPartition::identity(4);
        for _ in 0..4 {
            assert_eq!(join.merge(&a, &edges), 1);
            join.write_into(&a, &mut out);
            assert_eq!(out.to_partition(), parts(&[&[0, 1, 2], &[3]], 4));
        }
    }
}
