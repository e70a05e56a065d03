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
//!   element, exactly like [`crate::Partition`]'s block ids); the search
//!   keeps ε in this form;
//! * [`JoinEdges`] — a partition's generator edges `(first, x)`, one per
//!   non-first member `x` of each block: `κ ∨ p` is κ with its blocks
//!   unioned along `p`'s edges;
//! * [`TrailedPair`] — the one join kernel: a partition pair `(π, τ)`, the κ
//!   of a search node, joined *in place* and taken back with an undo trail
//!   (union–find with backtracking; Westbrook and Tarjan, SIAM J. Comput.,
//!   1989).  Each side keeps every element's block representative, a
//!   circular ring through each block's members and each block's size, so a
//!   union relabels only the smaller block and an undo relabels it back.
//!   [`TrailedPair::merges`] counts a join before anything is written,
//!   [`TrailedPair::apply`] performs it, [`TrailedPair::undo_to`] reverts
//!   it, and [`TrailedPair::meets_since`] checks Lemma 1 (`π ∩ τ ⊆ ε`) on
//!   the blocks merged since a trail mark only — the full check whenever
//!   the pair at that mark met it.
//!
//! All operations are loops over flat `u32` words — no hashing, no per-call
//! `Vec`s — and allocation-free once their state has reached the ground-set
//! size, except the canonical write-out [`TrailedPair::partition`].  The
//! semantics are pinned to the general implementation by the property tests
//! in `proptests.rs` ([`TrailedPair::apply`] ⇔ [`crate::Partition::join`],
//! [`TrailedPair::undo_to`] ⇔ the state at the mark,
//! [`TrailedPair::meets_since`] ⇔ [`crate::Partition::intersection_within`]).
//!
//! # Why these kernels are not SIMD-wide
//!
//! Unlike the bit-packed logic/BIST evaluators (which carry 64 independent
//! patterns per word and widen further to `[u64; 4]` groups), the partition
//! kernels chase *labels through memory*: union–find parent updates, ring
//! walks and stamp-dedup maps have a loop-carried data dependence (one
//! edge's or element's outcome feeds the state the next one reads), so they
//! cannot process several elements per step.

use crate::partition::Partition;

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
}

/// The generator edges of a partition `p`: for every block, `(first, x)`
/// for each other member `x`, in ascending element order.
///
/// `p` is the finest partition relating the ends of every edge, so for any
/// `base` over the same ground set, `base ∨ p` is `base` with its blocks
/// unioned along these edges ([`TrailedPair::apply`]).  A partition with
/// `b` blocks over `n` elements has `n - b` edges.
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

/// A component of a [`TrailedPair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first component `π`.
    Pi = 0,
    /// The second component `τ`.
    Tau = 1,
}

impl Side {
    /// Both components, `π` first.
    pub const BOTH: [Side; 2] = [Side::Pi, Side::Tau];

    fn other(self) -> Self {
        match self {
            Side::Pi => Side::Tau,
            Side::Tau => Side::Pi,
        }
    }
}

/// One element's slot in one component of a [`TrailedPair`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// The element's block representative.
    rep: u32,
    /// The next member of the element's block, circularly.
    ring: u32,
    /// The block's size, meaningful while the element represents it.
    size: u32,
}

/// One component of a [`TrailedPair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Blocks {
    slots: Vec<Slot>,
    /// Number of blocks.
    count: u32,
}

impl Blocks {
    fn identity(n: usize) -> Self {
        Self {
            slots: (0..n as u32)
                .map(|x| Slot {
                    rep: x,
                    ring: x,
                    size: 1,
                })
                .collect(),
            count: n as u32,
        }
    }

    fn rep(&self, x: u32) -> u32 {
        self.slots[x as usize].rep
    }

    /// Sets the representative of every member of `r`'s ring to `to`.
    fn relabel_ring(&mut self, r: u32, to: u32) {
        let mut x = r;
        loop {
            let slot = &mut self.slots[x as usize];
            slot.rep = to;
            x = slot.ring;
            if x == r {
                return;
            }
        }
    }

    /// Splices (or, repeated, splits) the rings of `a` and `b` by swapping
    /// their successors.
    fn swap_successors(&mut self, a: u32, b: u32) {
        let next_a = self.slots[a as usize].ring;
        self.slots[a as usize].ring = self.slots[b as usize].ring;
        self.slots[b as usize].ring = next_a;
    }
}

/// Epoch-stamped scratch per element id; every id read is a representative.
#[derive(Debug, Clone, Copy, Default)]
struct Scratch {
    /// Union–find parent for [`TrailedPair::merges`], valid when
    /// `parent_stamp` is the current epoch.
    parent: u32,
    parent_stamp: u32,
    /// Per side, the walk epoch in which [`TrailedPair::meets_since`] last
    /// walked this final block.
    walked: [u32; 2],
    /// The first ε-label seen for this partner-side block in the block
    /// being walked, valid when `eps_stamp` is that block's epoch.
    eps_first: u32,
    eps_stamp: u32,
}

/// One union of [`TrailedPair::apply`]: on `side`, the block of
/// representative `absorbed` joined the block of representative `kept`.
#[derive(Debug, Clone, Copy)]
struct Union {
    side: Side,
    kept: u32,
    absorbed: u32,
}

/// A partition pair `(π, τ)` joined in place, with an undo trail — the κ of
/// a depth-first search, advanced to a child by [`Self::apply`] and taken
/// back to an ancestor by [`Self::undo_to`].
///
/// Union by size keeps every representative map exact (no `find` chains):
/// a union relabels the smaller block's ring, splices the two rings by
/// swapping their representatives' successors, and pushes
/// `(side, kept, absorbed)` on the trail, which both sides share.  Undoing
/// the newest union swaps the same two successors back — in LIFO order the
/// rings are exactly as the union left them — and relabels the absorbed
/// ring, so [`Self::undo_to`] restores every representative, ring, size and
/// block count exactly.  Scratch (the counting union–find and
/// [`Self::meets_since`]'s maps) is epoch-stamped, so starting an operation
/// costs one counter increment.
#[derive(Debug, Clone)]
pub struct TrailedPair {
    sides: [Blocks; 2],
    trail: Vec<Union>,
    scratch: Vec<Scratch>,
    epoch: u32,
}

impl TrailedPair {
    /// The identity pair `(0, 0)` over `n` elements, with an empty trail.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            sides: [Blocks::identity(n), Blocks::identity(n)],
            // Each side can merge at most `n - 1` times.
            trail: Vec::with_capacity(2 * n),
            scratch: vec![Scratch::default(); n],
            epoch: 0,
        }
    }

    /// Number of blocks of `side`.
    #[must_use]
    pub fn num_blocks(&self, side: Side) -> usize {
        self.sides[side as usize].count as usize
    }

    /// The current trail length: the mark [`Self::undo_to`] returns to.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// The number of merges of `side ∨ p` for `p` with generator `edges`:
    /// the join has `num_blocks(side) - merges` blocks, and zero merges
    /// means `p` refines `side`.  Writes nothing to the pair.
    ///
    /// # Panics
    ///
    /// Panics if an edge lies outside the ground set.
    pub fn merges(&mut self, side: Side, edges: &JoinEdges) -> usize {
        let epoch = self.next_epoch();
        let blocks = &self.sides[side as usize];
        // Once everything is one block no later edge can merge.
        let max_merges = (blocks.count as usize).saturating_sub(1);
        let mut merges = 0;
        for &[a, x] in &edges.edges {
            let (ra, rx) = (blocks.rep(a), blocks.rep(x));
            if ra != rx {
                let ra = root(&mut self.scratch, epoch, ra);
                let rx = root(&mut self.scratch, epoch, rx);
                if ra != rx {
                    self.scratch[ra as usize].parent = rx;
                    merges += 1;
                    if merges == max_merges {
                        break;
                    }
                }
            }
        }
        merges
    }

    /// Joins `side` with the partition of generator `edges` in place and
    /// returns the number of merges (as [`Self::merges`]).
    ///
    /// # Panics
    ///
    /// Panics if an edge lies outside the ground set.
    pub fn apply(&mut self, side: Side, edges: &JoinEdges) -> usize {
        let blocks = &mut self.sides[side as usize];
        let before = self.trail.len();
        for &[a, x] in &edges.edges {
            if blocks.count == 1 {
                break;
            }
            let (ra, rx) = (blocks.rep(a), blocks.rep(x));
            if ra == rx {
                continue;
            }
            let (size_a, size_x) = (
                blocks.slots[ra as usize].size,
                blocks.slots[rx as usize].size,
            );
            let (kept, absorbed) = if size_a >= size_x { (ra, rx) } else { (rx, ra) };
            blocks.relabel_ring(absorbed, kept);
            blocks.swap_successors(kept, absorbed);
            blocks.slots[kept as usize].size = size_a + size_x;
            blocks.count -= 1;
            self.trail.push(Union {
                side,
                kept,
                absorbed,
            });
        }
        self.trail.len() - before
    }

    /// Undoes every union after `mark` (a [`Self::mark`] taken earlier),
    /// newest first, restoring the pair exactly as it was at the mark.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let Union {
                side,
                kept,
                absorbed,
            } = self.trail.pop().expect("longer than the mark");
            let blocks = &mut self.sides[side as usize];
            blocks.swap_successors(kept, absorbed);
            blocks.slots[kept as usize].size -= blocks.slots[absorbed as usize].size;
            blocks.count += 1;
            blocks.relabel_ring(absorbed, absorbed);
        }
    }

    /// Returns `true` if no two elements share a π-block and a τ-block
    /// without sharing an `eps`-block, *looking only at the blocks merged
    /// since `mark`*: every final block of a union on the trail after the
    /// mark is walked, and its members that share a block on the other side
    /// must share an `eps`-block.
    ///
    /// This is the full `π ∩ τ ⊆ ε` check whenever the pair at `mark` met
    /// it: a pair of elements related by the current `π ∩ τ` but not at the
    /// mark became related on at least one side since, so both lie in a
    /// block merged on that side.  A pair that did not meet at the mark
    /// cannot meet now (joins only grow `π ∩ τ`), so the caller combines the
    /// two: `parent_meets && meets_since(mark, eps)`.  The identity pair
    /// always meets, so from a mark-0 identity this is the whole check.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if `eps` has another ground set.
    pub fn meets_since(&mut self, mark: usize, eps: &PackedPartition) -> bool {
        debug_assert_eq!(eps.ground_set_size(), self.scratch.len());
        // One epoch for the walk plus at most one per trail entry.
        self.reserve_epochs(self.trail.len() - mark + 1);
        self.epoch += 1;
        let walk = self.epoch;
        for i in mark..self.trail.len() {
            let Union { side, kept, .. } = self.trail[i];
            let (own, partner) = (
                &self.sides[side as usize],
                &self.sides[side.other() as usize],
            );
            let r = own.rep(kept);
            let walked = &mut self.scratch[r as usize].walked[side as usize];
            if *walked == walk {
                continue;
            }
            *walked = walk;
            self.epoch += 1;
            let block = self.epoch;
            let mut x = r;
            loop {
                let slot = &own.slots[x as usize];
                let seen = &mut self.scratch[partner.rep(x) as usize];
                let w = eps.labels[x as usize];
                if seen.eps_stamp == block {
                    // Another member of this block shares x's partner
                    // block; the meet relates them, so they must share an
                    // ε-block.
                    if seen.eps_first != w {
                        return false;
                    }
                } else {
                    seen.eps_stamp = block;
                    seen.eps_first = w;
                }
                x = slot.ring;
                if x == r {
                    break;
                }
            }
        }
        true
    }

    /// The current partition of `side`, canonical.
    #[must_use]
    pub fn partition(&self, side: Side) -> Partition {
        let labels: Vec<usize> = self.sides[side as usize]
            .slots
            .iter()
            .map(|slot| slot.rep as usize)
            .collect();
        Partition::from_labels(&labels)
    }

    /// Both sides' representatives, rings, sizes and block counts.
    #[cfg(test)]
    pub(crate) fn sides(&self) -> &[Blocks; 2] {
        &self.sides
    }

    /// Advances the stamp epoch.
    fn next_epoch(&mut self) -> u32 {
        self.reserve_epochs(1);
        self.epoch += 1;
        self.epoch
    }

    /// Makes room for `k` more epochs before the counter wraps, clearing
    /// every stamp and restarting the count when there is none.
    fn reserve_epochs(&mut self, k: usize) {
        if ((u32::MAX - self.epoch) as usize) < k {
            self.scratch.fill(Scratch::default());
            self.epoch = 0;
        }
    }
}

/// Union–find `find` with path halving over `epoch`-stamped slots; an
/// unstamped id is a singleton.
fn root(scratch: &mut [Scratch], epoch: u32, mut b: u32) -> u32 {
    loop {
        let i = b as usize;
        if scratch[i].parent_stamp != epoch {
            scratch[i].parent_stamp = epoch;
            scratch[i].parent = b;
            return b;
        }
        let p = scratch[i].parent;
        if p == b {
            return b;
        }
        // Parents are always stamped roots or interior ids of this epoch.
        let grand = scratch[p as usize].parent;
        scratch[i].parent = grand;
        b = grand;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parts(blocks: &[&[usize]], n: usize) -> Partition {
        Partition::from_blocks(n, &blocks.iter().map(|b| b.to_vec()).collect::<Vec<_>>()).unwrap()
    }

    fn edges(p: &Partition) -> JoinEdges {
        JoinEdges::of(&PackedPartition::from_partition(p))
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

    #[test]
    fn generator_edges_link_each_member_to_its_block_head() {
        let p = PackedPartition::from_partition(&parts(&[&[0, 2, 3], &[1, 4], &[5]], 6));
        assert_eq!(JoinEdges::of(&p).edges, vec![[0, 2], [0, 3], [1, 4]]);
        assert!(edges(&Partition::identity(4)).edges.is_empty());
    }

    #[test]
    fn apply_matches_the_general_join_and_undo_restores_it() {
        let a = parts(&[&[0, 1], &[2], &[3], &[4]], 5);
        let b = parts(&[&[1, 2], &[0], &[3, 4]], 5);
        let mut pair = TrailedPair::new(5);
        assert_eq!(pair.apply(Side::Pi, &edges(&a)), 1);
        let mark = pair.mark();
        let at_mark = pair.sides().clone();
        assert_eq!(pair.merges(Side::Pi, &edges(&b)), 2);
        assert_eq!(pair.apply(Side::Pi, &edges(&b)), 2);
        assert_eq!(pair.partition(Side::Pi), a.join(&b).unwrap());
        assert_eq!(pair.partition(Side::Tau), Partition::identity(5));
        // A refinement of the current side merges nothing.
        assert_eq!(pair.merges(Side::Pi, &edges(&a)), 0);
        pair.undo_to(mark);
        assert_eq!(pair.sides(), &at_mark);
        assert_eq!(pair.partition(Side::Pi), a);
    }

    #[test]
    fn meets_since_from_the_identity_is_the_lemma_1_check() {
        let pi = parts(&[&[0, 1], &[2, 3]], 4);
        let tau = parts(&[&[0, 3], &[1, 2]], 4);
        let eps = PackedPartition::from_partition(&Partition::identity(4));
        let mut pair = TrailedPair::new(4);
        pair.apply(Side::Pi, &edges(&pi));
        pair.apply(Side::Tau, &edges(&tau));
        assert!(pair.meets_since(0, &eps));
        pair.undo_to(0);
        // π ∩ π = π ⊄ identity, but everything lies in the universal relation.
        pair.apply(Side::Pi, &edges(&pi));
        pair.apply(Side::Tau, &edges(&pi));
        assert!(!pair.meets_since(0, &eps));
        let universal = PackedPartition::from_partition(&Partition::universal(4));
        assert!(pair.meets_since(0, &universal));
    }

    /// `meets_since` looks only at the blocks merged since the mark, so it
    /// is the full check only when the pair at the mark met: here the
    /// parent already fails in a block the child leaves alone.
    #[test]
    fn meets_since_a_failing_parent_sees_only_the_new_blocks() {
        let eps = PackedPartition::from_partition(&Partition::identity(4));
        let mut pair = TrailedPair::new(4);
        let both = edges(&parts(&[&[0, 1], &[2], &[3]], 4));
        pair.apply(Side::Pi, &both);
        pair.apply(Side::Tau, &both);
        assert!(!pair.meets_since(0, &eps), "0 and 1 share both blocks");
        let mark = pair.mark();
        pair.apply(Side::Pi, &edges(&parts(&[&[2, 3], &[0], &[1]], 4)));
        assert!(pair.meets_since(mark, &eps), "{{2, 3}} alone meets");
        let (pi, tau) = (pair.partition(Side::Pi), pair.partition(Side::Tau));
        assert!(!pi
            .intersection_within(&tau, &Partition::identity(4))
            .unwrap());
    }

    #[test]
    fn large_ground_sets_join_to_the_universal_partition() {
        let n = 130;
        let even_odd: Vec<usize> = (0..n).map(|x| x % 2).collect();
        let mod3: Vec<usize> = (0..n).map(|x| x % 3).collect();
        let a = Partition::from_labels(&even_odd);
        let b = Partition::from_labels(&mod3);
        let mut pair = TrailedPair::new(n);
        pair.apply(Side::Tau, &edges(&a));
        assert_eq!(pair.merges(Side::Tau, &edges(&b)), 1);
        assert_eq!(pair.apply(Side::Tau, &edges(&b)), 1);
        assert!(pair.partition(Side::Tau).is_universal());
        pair.undo_to(0);
        assert_eq!(pair.sides(), TrailedPair::new(n).sides());
    }

    #[test]
    fn epochs_survive_wrap_around() {
        let a = parts(&[&[0, 1], &[2], &[3]], 4);
        let b = edges(&parts(&[&[1, 2], &[0], &[3]], 4));
        let eps = PackedPartition::from_partition(&Partition::identity(4));
        let mut pair = TrailedPair::new(4);
        pair.apply(Side::Pi, &edges(&a));
        pair.epoch = u32::MAX - 2;
        for _ in 0..4 {
            assert_eq!(pair.merges(Side::Pi, &b), 1);
            let mark = pair.mark();
            pair.apply(Side::Pi, &b);
            assert!(pair.meets_since(mark, &eps));
            assert_eq!(pair.partition(Side::Pi), parts(&[&[0, 1, 2], &[3]], 4));
            pair.undo_to(mark);
        }
    }
}
