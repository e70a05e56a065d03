//! Partition algebra, partition pairs and the Mm-lattice for finite state machines.
//!
//! This crate implements the algebraic-structure-theory substrate used by the
//! OSTR solver in `stc-synth`.  It follows Hartmanis & Stearns, *Algebraic
//! Structure Theory of Sequential Machines* (1966), as used by Hellebrand &
//! Wunderlich, *Synthesis of Self-Testable Controllers*, DATE 1994.
//!
//! The central type is [`Partition`], a partition of the state set
//! `{0, 1, …, n-1}` of a machine, representing an equivalence relation on the
//! states.  Partitions form a lattice under refinement:
//!
//! * [`Partition::meet`] — the common refinement (set intersection of the
//!   relations),
//! * [`Partition::join`] — the transitive closure of the union of the
//!   relations,
//! * [`Partition::refines`] — the partial order `π ≤ τ` (`π ⊆ τ` as relations).
//!
//! On top of the lattice the crate provides the *partition pair* operators of
//! structure theory with respect to a state-transition function (any type
//! implementing [`Transitions`]):
//!
//! * [`m_operator`] — `m(π)`: the smallest partition `τ` such that `(π, τ)` is
//!   a partition pair,
//! * [`big_m_operator`] — `M(τ)`: the largest partition `π` such that `(π, τ)`
//!   is a partition pair,
//! * [`is_partition_pair`] / [`is_symmetric_pair`] — the defining conditions,
//! * [`MmPair`] and [`basis_partitions`] — Mm-pairs and the basis relations
//!   `m(ρ_{s,t})` from which the whole Mm-lattice can be generated.
//!
//! For the solver hot path the crate additionally provides packed,
//! allocation-free kernels: [`PackedPartition`], a partition's generator
//! edges [`JoinEdges`], and [`TrailedPair`], a partition pair joined in
//! place along those edges and taken back with an undo trail.  It counts a
//! join's merges before writing anything, relabels only the blocks a join
//! merges, and checks `π ∩ τ ⊆ ε` on those blocks alone; see the `packed`
//! module docs.
//!
//! # Example
//!
//! The 4-state machine of Fig. 5 of the paper has the symmetric partition pair
//! `π = {{1,2},{3,4}}`, `τ = {{1,4},{2,3}}` (states renumbered from 0 here):
//!
//! ```
//! use stc_partition::{Partition, Transitions, is_symmetric_pair};
//!
//! /// Next-state function of the Fig. 5 example (2 inputs, 4 states).
//! struct Fig5;
//! impl Transitions for Fig5 {
//!     fn num_states(&self) -> usize { 4 }
//!     fn num_inputs(&self) -> usize { 2 }
//!     fn next_state(&self, s: usize, i: usize) -> usize {
//!         // rows: states 1..4 of the paper; columns: inputs 1, 0
//!         const TABLE: [[usize; 2]; 4] = [[2, 0], [1, 3], [0, 2], [3, 1]];
//!         TABLE[s][i]
//!     }
//! }
//!
//! let pi = Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]])?;
//! let tau = Partition::from_blocks(4, &[vec![0, 3], vec![1, 2]])?;
//! assert!(is_symmetric_pair(&Fig5, &pi, &tau));
//! # Ok::<(), stc_partition::PartitionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dsu;
mod error;
mod lattice;
mod packed;
mod pairs;
mod partition;

pub use dsu::DisjointSets;
pub use error::PartitionError;
pub use lattice::{
    basis_partitions, enumerate_partitions, mm_pairs, symmetric_basis, symmetric_pair_closure,
    MmPair,
};
pub use packed::{JoinEdges, PackedPartition, Side, TrailedPair};
pub use pairs::{
    big_m_operator, is_partition_pair, is_symmetric_pair, m_operator, pair_identifying, Transitions,
};
pub use partition::{BlockId, Partition};

#[cfg(test)]
mod proptests;
