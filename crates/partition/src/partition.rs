//! The [`Partition`] type: a partition of `{0, …, n-1}` viewed as an
//! equivalence relation, together with the lattice operations used by
//! structure theory.

use crate::dsu::DisjointSets;
use crate::error::PartitionError;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a block inside a [`Partition`].
///
/// Blocks are numbered `0..num_blocks()` in order of their smallest element.
pub type BlockId = usize;

/// A partition of the ground set `{0, 1, …, n-1}`.
///
/// A partition is the standard representation of an equivalence relation on
/// the states of a finite state machine: two states are related iff they lie
/// in the same block.  The representation is canonical — blocks are numbered
/// in order of their smallest element and the elements inside each block are
/// sorted — so [`PartialEq`]/[`Hash`] compare partitions as equivalence
/// relations.
///
/// # Example
///
/// ```
/// use stc_partition::Partition;
///
/// let pi = Partition::from_blocks(4, &[vec![0, 2], vec![1], vec![3]])?;
/// assert_eq!(pi.num_blocks(), 3);
/// assert!(pi.same_block(0, 2));
/// assert!(!pi.same_block(0, 1));
/// assert!(Partition::identity(4).refines(&pi));
/// assert!(pi.refines(&Partition::universal(4)));
/// # Ok::<(), stc_partition::PartitionError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partition {
    /// Size of the ground set.
    n: usize,
    /// `block_of[x]` is the canonical block id of element `x`.
    block_of: Vec<BlockId>,
    /// The blocks themselves; `blocks[b]` is sorted ascending.
    blocks: Vec<Vec<usize>>,
}

impl Partition {
    /// The identity (zero) partition `{{0}, {1}, …, {n-1}}`: every element in
    /// its own block.  As a relation this is the diagonal `{(x, x)}`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            n,
            block_of: (0..n).collect(),
            blocks: (0..n).map(|x| vec![x]).collect(),
        }
    }

    /// The universal (one) partition `{{0, 1, …, n-1}}`: a single block.
    #[must_use]
    pub fn universal(n: usize) -> Self {
        if n == 0 {
            return Self::identity(0);
        }
        Self {
            n,
            block_of: vec![0; n],
            blocks: vec![(0..n).collect()],
        }
    }

    /// Builds a partition from an explicit list of blocks.
    ///
    /// # Errors
    ///
    /// Returns an error if any element is out of range, duplicated or missing.
    pub fn from_blocks(n: usize, blocks: &[Vec<usize>]) -> Result<Self, PartitionError> {
        let mut block_of = vec![usize::MAX; n];
        for (b, block) in blocks.iter().enumerate() {
            for &x in block {
                if x >= n {
                    return Err(PartitionError::ElementOutOfRange {
                        element: x,
                        ground_set: n,
                    });
                }
                if block_of[x] != usize::MAX {
                    return Err(PartitionError::DuplicateElement { element: x });
                }
                block_of[x] = b;
            }
        }
        if let Some(x) = block_of.iter().position(|&b| b == usize::MAX) {
            return Err(PartitionError::MissingElement { element: x });
        }
        Ok(Self::from_labels(&block_of))
    }

    /// Builds a partition from a labelling: elements with equal labels end up
    /// in the same block.  The labels themselves are arbitrary.
    #[must_use]
    pub fn from_labels(labels: &[usize]) -> Self {
        let n = labels.len();
        // Fast path for bounded labels (union–find roots, canonical labels):
        // a flat first-seen map avoids hashing every element.
        if labels.iter().all(|&l| l < n) {
            let mut first_seen = vec![usize::MAX; n];
            let mut block_of = vec![0; n];
            let mut blocks: Vec<Vec<usize>> = Vec::new();
            for (x, &label) in labels.iter().enumerate() {
                let mut b = first_seen[label];
                if b == usize::MAX {
                    b = blocks.len();
                    first_seen[label] = b;
                    blocks.push(Vec::new());
                }
                block_of[x] = b;
                blocks[b].push(x);
            }
            return Self {
                n,
                block_of,
                blocks,
            };
        }
        let mut first_seen: HashMap<usize, BlockId> = HashMap::new();
        let mut block_of = vec![0; n];
        let mut blocks: Vec<Vec<usize>> = Vec::new();
        for (x, &label) in labels.iter().enumerate() {
            let next_id = blocks.len();
            let b = *first_seen.entry(label).or_insert(next_id);
            if b == blocks.len() {
                blocks.push(Vec::new());
            }
            block_of[x] = b;
            blocks[b].push(x);
        }
        Self {
            n,
            block_of,
            blocks,
        }
    }

    /// Builds the smallest partition in which every listed pair is related,
    /// i.e. the transitive closure of the listed pairs (plus the diagonal).
    ///
    /// # Errors
    ///
    /// Returns an error if any element of a pair is out of range.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Result<Self, PartitionError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut dsu = DisjointSets::new(n);
        for (a, b) in pairs {
            for x in [a, b] {
                if x >= n {
                    return Err(PartitionError::ElementOutOfRange {
                        element: x,
                        ground_set: n,
                    });
                }
            }
            dsu.union(a, b);
        }
        Ok(Self::from_labels(&dsu.labels()))
    }

    /// Builds a partition from an existing union–find structure.
    #[must_use]
    pub fn from_disjoint_sets(dsu: &mut DisjointSets) -> Self {
        Self::from_labels(&dsu.labels())
    }

    /// Size of the ground set the partition lives on.
    #[must_use]
    pub fn ground_set_size(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The canonical block id of element `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the ground set.
    #[must_use]
    pub fn block_of(&self, x: usize) -> BlockId {
        self.block_of[x]
    }

    /// The elements of block `b`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `b >= self.num_blocks()`.
    #[must_use]
    pub fn block(&self, b: BlockId) -> &[usize] {
        &self.blocks[b]
    }

    /// Iterates over the blocks in canonical order.
    pub fn blocks(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.blocks.iter().map(Vec::as_slice)
    }

    /// Returns `true` if `a` and `b` lie in the same block (are equivalent).
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is outside the ground set.
    #[must_use]
    pub fn same_block(&self, a: usize, b: usize) -> bool {
        self.block_of[a] == self.block_of[b]
    }

    /// Returns `true` if this is the identity (all-singleton) partition.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.blocks.len() == self.n
    }

    /// Returns `true` if this is the universal (single-block) partition.
    #[must_use]
    pub fn is_universal(&self) -> bool {
        self.blocks.len() <= 1
    }

    /// The refinement partial order: `self ≤ other`, i.e. every block of
    /// `self` is contained in a block of `other` (equivalently, `self ⊆ other`
    /// as equivalence relations).
    ///
    /// Partitions over different ground sets are never comparable.
    #[must_use]
    pub fn refines(&self, other: &Self) -> bool {
        if self.n != other.n {
            return false;
        }
        self.blocks.iter().all(|block| {
            let target = other.block_of[block[0]];
            block.iter().all(|&x| other.block_of[x] == target)
        })
    }

    /// The meet (greatest lower bound): the common refinement of the two
    /// partitions.  As relations this is the intersection `self ∩ other`.
    ///
    /// # Errors
    ///
    /// Returns an error if the ground sets differ.
    pub fn meet(&self, other: &Self) -> Result<Self, PartitionError> {
        self.check_size(other)?;
        let mut seen: HashMap<(BlockId, BlockId), usize> = HashMap::new();
        let mut labels = vec![0usize; self.n];
        for (x, label) in labels.iter_mut().enumerate() {
            let key = (self.block_of[x], other.block_of[x]);
            let next = seen.len();
            *label = *seen.entry(key).or_insert(next);
        }
        Ok(Self::from_labels(&labels))
    }

    /// The join (least upper bound): the transitive closure of the union of
    /// the two relations, written `(self ∪ other)^t` in the paper.
    ///
    /// # Errors
    ///
    /// Returns an error if the ground sets differ.
    pub fn join(&self, other: &Self) -> Result<Self, PartitionError> {
        self.check_size(other)?;
        let mut dsu = DisjointSets::new(self.n);
        for block in self.blocks.iter().chain(other.blocks.iter()) {
            for window in block.windows(2) {
                dsu.union(window[0], window[1]);
            }
        }
        Ok(Self::from_disjoint_sets(&mut dsu))
    }

    /// Returns `true` if the intersection of the two relations is contained in
    /// the relation `within`, i.e. `self ∩ other ⊆ within`.
    ///
    /// This is the `π ∩ τ ⊆ ε` condition of Theorem 1 of the paper (with
    /// `within = ε`, the state-equivalence partition).
    ///
    /// # Errors
    ///
    /// Returns an error if the ground sets differ.
    pub fn intersection_within(&self, other: &Self, within: &Self) -> Result<bool, PartitionError> {
        self.check_size(other)?;
        self.check_size(within)?;
        Ok(self.meet(other)?.refines(within))
    }

    fn check_size(&self, other: &Self) -> Result<(), PartitionError> {
        if self.n == other.n {
            Ok(())
        } else {
            Err(PartitionError::SizeMismatch {
                left: self.n,
                right: other.n,
            })
        }
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, block) in self.blocks.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, x) in block.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{x}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_universal() {
        let id = Partition::identity(4);
        let uni = Partition::universal(4);
        assert!(id.is_identity());
        assert!(!id.is_universal());
        assert!(uni.is_universal());
        assert!(!uni.is_identity());
        assert_eq!(id.num_blocks(), 4);
        assert_eq!(uni.num_blocks(), 1);
        assert!(id.refines(&uni));
        assert!(!uni.refines(&id));
    }

    #[test]
    fn single_element_ground_set() {
        let p = Partition::identity(1);
        assert!(p.is_identity());
        assert!(p.is_universal());
    }

    #[test]
    fn from_blocks_validates() {
        assert!(Partition::from_blocks(3, &[vec![0, 1], vec![2]]).is_ok());
        assert_eq!(
            Partition::from_blocks(3, &[vec![0, 3], vec![1, 2]]),
            Err(PartitionError::ElementOutOfRange {
                element: 3,
                ground_set: 3
            })
        );
        assert_eq!(
            Partition::from_blocks(3, &[vec![0, 1], vec![1, 2]]),
            Err(PartitionError::DuplicateElement { element: 1 })
        );
        assert_eq!(
            Partition::from_blocks(3, &[vec![0, 1]]),
            Err(PartitionError::MissingElement { element: 2 })
        );
    }

    #[test]
    fn canonical_equality() {
        let a = Partition::from_blocks(4, &[vec![2, 3], vec![0, 1]]).unwrap();
        let b = Partition::from_blocks(4, &[vec![1, 0], vec![3, 2]]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.block(0), &[0, 1]);
        assert_eq!(a.block(1), &[2, 3]);
    }

    #[test]
    fn from_pairs_takes_transitive_closure() {
        let p = Partition::from_pairs(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        assert_eq!(p.num_blocks(), 2);
        assert!(p.same_block(0, 2));
        assert!(p.same_block(3, 4));
        assert!(!p.same_block(2, 3));
    }

    #[test]
    fn from_pairs_rejects_out_of_range() {
        assert!(Partition::from_pairs(3, [(0, 5)]).is_err());
    }

    #[test]
    fn meet_is_common_refinement() {
        let a = Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]]).unwrap();
        let b = Partition::from_blocks(4, &[vec![0, 3], vec![1, 2]]).unwrap();
        let m = a.meet(&b).unwrap();
        assert!(m.is_identity());
    }

    #[test]
    fn join_is_transitive_closure_of_union() {
        let a = Partition::from_blocks(4, &[vec![0, 1], vec![2], vec![3]]).unwrap();
        let b = Partition::from_blocks(4, &[vec![1, 2], vec![0], vec![3]]).unwrap();
        let j = a.join(&b).unwrap();
        assert_eq!(j.num_blocks(), 2);
        assert!(j.same_block(0, 2));
        assert!(!j.same_block(0, 3));
    }

    #[test]
    fn meet_join_size_mismatch() {
        let a = Partition::identity(3);
        let b = Partition::identity(4);
        assert!(a.meet(&b).is_err());
        assert!(a.join(&b).is_err());
        assert!(!a.refines(&b));
    }

    #[test]
    fn intersection_within_matches_theorem_condition() {
        let pi = Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]]).unwrap();
        let tau = Partition::from_blocks(4, &[vec![0, 3], vec![1, 2]]).unwrap();
        let eps = Partition::identity(4);
        assert!(pi.intersection_within(&tau, &eps).unwrap());
        // π ∩ π = π which is not contained in the identity unless π is.
        assert!(!pi.intersection_within(&pi, &eps).unwrap());
    }

    #[test]
    fn display_is_readable() {
        let p = Partition::from_blocks(3, &[vec![0, 2], vec![1]]).unwrap();
        assert_eq!(p.to_string(), "{{0,2}, {1}}");
    }
}
