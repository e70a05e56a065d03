//! The Theorem 1 construction: turning a symmetric partition pair into a
//! pipeline realization.
//!
//! A realization *is* its factor tables `δ1`, `δ2`, `λ*` plus the state map
//! `α`: that is all the encoder reads, and Definition 3 is a relation between
//! those tables and the specification.  The flat machine over `S1 × S2` that
//! the tables define is never needed by the flow; [`Realization::compose`]
//! builds it on demand for callers that want to run words through it.

use crate::error::SynthError;
use stc_fsm::{state_equivalence, Mealy};
use stc_partition::{is_symmetric_pair, Partition};

/// The factor tables `δ1 : S/π × I → S/τ`, `δ2 : S/τ × I → S/π` and the
/// output table `λ* : S/π × S/τ × I → O` of a pipeline realization
/// (Theorem 1, items (ii) and (iii)).
///
/// `λ*` is stored per *occupied* product state: a product state `(B1, B2)`
/// with `B1 ∩ B2 ≠ ∅` owns one `|I|`-wide row of [`FactorTables::outputs`],
/// and there are at most `|S|` of them.  The other product states have no
/// row; their output is arbitrary (the paper's `o*`) and they are not images
/// of original states.  Read the table through [`FactorTables::lambda`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorTables {
    /// `delta1[b1][i]` — the τ-block reached from π-block `b1` under input `i`.
    pub delta1: Vec<Vec<usize>>,
    /// `delta2[b2][i]` — the π-block reached from τ-block `b2` under input `i`.
    pub delta2: Vec<Vec<usize>>,
    /// `product_row[b1 · |S2| + b2]` — the row of `outputs` holding the
    /// outputs of product state `(b1, b2)`, or `None` if `B1 ∩ B2 = ∅`.
    pub product_row: Vec<Option<usize>>,
    /// `outputs[r][i]` — the output of the `r`-th occupied product state
    /// under input `i`.
    pub outputs: Vec<Vec<usize>>,
}

impl FactorTables {
    /// Number of first-factor states `|S/π|`.
    #[must_use]
    pub fn s1_len(&self) -> usize {
        self.delta1.len()
    }

    /// Number of second-factor states `|S/τ|`.
    #[must_use]
    pub fn s2_len(&self) -> usize {
        self.delta2.len()
    }

    /// Number of input symbols.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.delta1.first().map_or(0, Vec::len)
    }

    /// `λ*((b1, b2), i)`, or `None` if `B1 ∩ B2 = ∅`.
    #[must_use]
    pub fn lambda(&self, b1: usize, b2: usize, i: usize) -> Option<usize> {
        self.product_row[b1 * self.s2_len() + b2].map(|r| self.outputs[r][i])
    }

    /// Number of state transitions the two factor networks implement together
    /// (`|S/π| · |I| + |S/τ| · |I|`), compared with `|S| · |I|` for the
    /// original network `C` — the quantity behind the paper's claim that
    /// "the combined networks C1 and C2 need to implement less state
    /// transitions than the original network".
    #[must_use]
    pub fn factor_transitions(&self) -> usize {
        (self.s1_len() + self.s2_len()) * self.num_inputs()
    }
}

/// A self-testable realization `M*` of a machine `M`, produced by the
/// Theorem 1 construction from a symmetric partition pair `(π, τ)` with
/// `π ∩ τ ⊆ ε`.
///
/// The realization is held as its factor tables and the state map `α`; its
/// memory is `O((|S1| + |S2|) · |I| + |S| · |I| + |S1| · |S2|)`.  The flat
/// machine over `S1 × S2` is available through [`Realization::compose`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Realization {
    /// The first partition `π` (defines `S1 = S/π`).
    pub pi: Partition,
    /// The second partition `τ` (defines `S2 = S/τ`).
    pub tau: Partition,
    /// The factor tables (`δ1`, `δ2`, `λ*`).
    pub tables: FactorTables,
    /// The state map `α : S → S1 × S2`, `α(s) = ([s]π, [s]τ)`.
    pub alpha: Vec<(usize, usize)>,
    /// The default output `o*` used for unreachable product states.
    pub default_output: usize,
}

impl Realization {
    /// Applies the Theorem 1 construction.
    ///
    /// # Errors
    ///
    /// Returns an error if `(pi, tau)` is not a symmetric partition pair for
    /// `machine` or violates `π ∩ τ ⊆ ε`, or if the partitions do not match
    /// the machine's state count.
    pub fn from_symmetric_pair(
        machine: &Mealy,
        pi: Partition,
        tau: Partition,
    ) -> Result<Self, SynthError> {
        let n = machine.num_states();
        if pi.ground_set_size() != n || tau.ground_set_size() != n {
            return Err(SynthError::GroundSetMismatch {
                machine_states: n,
                pi_states: pi.ground_set_size(),
                tau_states: tau.ground_set_size(),
            });
        }
        if !is_symmetric_pair(machine, &pi, &tau) {
            return Err(SynthError::NotSymmetricPair);
        }
        let eps = state_equivalence(machine);
        if !pi
            .intersection_within(&tau, &eps)
            .expect("ground sets checked above")
        {
            return Err(SynthError::IntersectionNotInEquivalence);
        }
        Ok(Self::from_checked_pair(machine, pi, tau))
    }

    /// Applies the construction assuming the preconditions have already been
    /// verified (used internally by the solver, which checks them as part of
    /// the search).
    ///
    /// # Panics
    ///
    /// May panic or produce an inconsistent realization if the preconditions
    /// of [`Realization::from_symmetric_pair`] do not hold.
    #[must_use]
    pub fn from_checked_pair(machine: &Mealy, pi: Partition, tau: Partition) -> Self {
        let k = machine.num_inputs();
        let n1 = pi.num_blocks();
        let n2 = tau.num_blocks();

        // δ1([s]π, i) := [δ(s, i)]τ — well-defined because (π, τ) is a pair.
        let delta1: Vec<Vec<usize>> = (0..n1)
            .map(|b1| {
                let rep = pi.block(b1)[0];
                (0..k)
                    .map(|i| tau.block_of(machine.next_state(rep, i)))
                    .collect()
            })
            .collect();
        // δ2([s]τ, i) := [δ(s, i)]π — well-defined because (τ, π) is a pair.
        let delta2: Vec<Vec<usize>> = (0..n2)
            .map(|b2| {
                let rep = tau.block(b2)[0];
                (0..k)
                    .map(|i| pi.block_of(machine.next_state(rep, i)))
                    .collect()
            })
            .collect();
        let alpha: Vec<(usize, usize)> = (0..machine.num_states())
            .map(|s| (pi.block_of(s), tau.block_of(s)))
            .collect();
        // λ*((B1, B2), i) := λ(s, i) for s ∈ B1 ∩ B2 — the first such s; all
        // of them behave alike because π ∩ τ ⊆ ε.  Empty cells get no row.
        let mut product_row = vec![None; n1 * n2];
        let mut outputs: Vec<Vec<usize>> = Vec::new();
        for (s, &(b1, b2)) in alpha.iter().enumerate() {
            let cell = &mut product_row[b1 * n2 + b2];
            match *cell {
                None => {
                    *cell = Some(outputs.len());
                    outputs.push((0..k).map(|i| machine.output(s, i)).collect());
                }
                Some(r) => debug_assert!(
                    (0..k).all(|i| outputs[r][i] == machine.output(s, i)),
                    "state {s} shares product state ({b1}, {b2}) with a state of \
                     different outputs: π ∩ τ ⊄ ε"
                ),
            }
        }

        Self {
            pi,
            tau,
            tables: FactorTables {
                delta1,
                delta2,
                product_row,
                outputs,
            },
            alpha,
            default_output: 0,
        }
    }

    /// The state map of Definition 3: `α(s) = ([s]π, [s]τ)`.
    #[must_use]
    pub fn alpha(&self, s: usize) -> (usize, usize) {
        self.alpha[s]
    }

    /// The flat index of `α(s)`: its state in [`Realization::compose`] and
    /// its cell in [`FactorTables::product_row`].
    #[must_use]
    pub fn alpha_index(&self, s: usize) -> usize {
        let (b1, b2) = self.alpha[s];
        b1 * self.tables.s2_len() + b2
    }

    /// `|S1| = |S/π|`.
    #[must_use]
    pub fn s1_len(&self) -> usize {
        self.tables.s1_len()
    }

    /// `|S2| = |S/τ|`.
    #[must_use]
    pub fn s2_len(&self) -> usize {
        self.tables.s2_len()
    }

    /// The OSTR cost of this realization.
    #[must_use]
    pub fn cost(&self) -> crate::Cost {
        crate::Cost::new(self.s1_len(), self.s2_len())
    }

    /// Whether this is the trivial "doubling" realization (both partitions are
    /// the identity, Fig. 3 of the paper).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.pi.is_identity() && self.tau.is_identity()
    }

    /// Verifies that the realization realizes the specification in the sense
    /// of Definition 3, reading the factor tables directly: for every state
    /// `s` and input `i`, `δ*(α(s), i) = (δ2([s]τ, i), δ1([s]π, i))` must
    /// equal `α(δ(s, i))`, and `λ*(α(s), i)` (or `o*` where it is empty) must
    /// equal `λ(s, i)`.
    ///
    /// Returns the first violation found, in state-major, input-minor order
    /// with the transition checked before the output, or `None` if the
    /// realization is correct.
    #[must_use]
    pub fn verify(&self, machine: &Mealy) -> Option<RealizationViolation> {
        let tables = &self.tables;
        for s in 0..machine.num_states() {
            let (b1, b2) = self.alpha[s];
            for i in 0..machine.num_inputs() {
                let expected = self.alpha[machine.next_state(s, i)];
                let got = (tables.delta2[b2][i], tables.delta1[b1][i]);
                if got != expected {
                    return Some(RealizationViolation::Transition {
                        state: s,
                        input: i,
                        expected,
                        got,
                    });
                }
                let expected = machine.output(s, i);
                let got = tables.lambda(b1, b2, i).unwrap_or(self.default_output);
                if got != expected {
                    return Some(RealizationViolation::Output {
                        state: s,
                        input: i,
                        expected,
                        got,
                    });
                }
            }
        }
        None
    }

    /// The realization as a flat Mealy machine over `S1 × S2` (state
    /// `(b1, b2)` has index `b1 · |S2| + b2`, reset state `α(reset)`), named
    /// after `spec` and sharing its input and output names.
    ///
    /// This materialises `|S1| · |S2| · |I|` transitions; the synthesis flow
    /// never needs it.  It exists to run words through the realization.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is not the machine the realization was built from
    /// (its input count or reset state do not fit the tables).
    #[must_use]
    pub fn compose(&self, spec: &Mealy) -> Mealy {
        let tables = &self.tables;
        let n1 = tables.s1_len();
        let n2 = tables.s2_len();
        let k = tables.num_inputs();
        let mut builder = Mealy::builder(
            format!("{}_pipeline", spec.name()),
            n1 * n2,
            k,
            spec.num_outputs(),
        );
        builder
            .state_names((0..n1 * n2).map(|idx| format!("p{}q{}", idx / n2, idx % n2)))
            .expect("generated names are distinct");
        builder
            .input_names((0..k).map(|i| spec.input_name(i).to_string()))
            .expect("copied input names");
        builder
            .output_names((0..spec.num_outputs()).map(|o| spec.output_name(o).to_string()))
            .expect("copied output names");
        for b1 in 0..n1 {
            for b2 in 0..n2 {
                for i in 0..k {
                    // δ*((B1, B2), i) = (δ2(B2, i), δ1(B1, i)).
                    let next = tables.delta2[b2][i] * n2 + tables.delta1[b1][i];
                    let out = tables.lambda(b1, b2, i).unwrap_or(self.default_output);
                    builder
                        .transition(b1 * n2 + b2, i, next, out)
                        .expect("block indices are in range");
                }
            }
        }
        builder
            .reset_state(self.alpha_index(spec.reset_state()))
            .expect("reset block pair is in range");
        builder.build().expect("fully specified by construction")
    }
}

/// A violation found by [`Realization::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealizationViolation {
    /// `δ*(α(s), i) ≠ α(δ(s, i))`.
    Transition {
        /// Original state.
        state: usize,
        /// Input symbol.
        input: usize,
        /// Expected product state `α(δ(s, i))`.
        expected: (usize, usize),
        /// Product state actually reached.
        got: (usize, usize),
    },
    /// `λ*(α(s), i) ≠ λ(s, i)`.
    Output {
        /// Original state.
        state: usize,
        /// Input symbol.
        input: usize,
        /// Expected output `λ(s, i)`.
        expected: usize,
        /// Output actually produced.
        got: usize,
    },
}

/// The Definition 3 check against the composed machine (the construction
/// [`Realization::verify`] replaced): the oracle of the table-based check.
#[cfg(test)]
pub(crate) fn verify_composed(r: &Realization, spec: &Mealy) -> Option<RealizationViolation> {
    let composed = r.compose(spec);
    let n2 = r.tables.s2_len();
    for s in 0..spec.num_states() {
        let idx = r.alpha_index(s);
        for i in 0..spec.num_inputs() {
            let expected_next = r.alpha_index(spec.next_state(s, i));
            let got_next = composed.next_state(idx, i);
            if got_next != expected_next {
                return Some(RealizationViolation::Transition {
                    state: s,
                    input: i,
                    expected: (expected_next / n2, expected_next % n2),
                    got: (got_next / n2, got_next % n2),
                });
            }
            if composed.output(idx, i) != spec.output(s, i) {
                return Some(RealizationViolation::Output {
                    state: s,
                    input: i,
                    expected: spec.output(s, i),
                    got: composed.output(idx, i),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_fsm::paper_example;

    fn paper_pair() -> (Partition, Partition) {
        (
            Partition::from_blocks(4, &[vec![0, 1], vec![2, 3]]).unwrap(),
            Partition::from_blocks(4, &[vec![0, 3], vec![1, 2]]).unwrap(),
        )
    }

    #[test]
    fn paper_example_realization_matches_fig7() {
        let m = paper_example();
        let (pi, tau) = paper_pair();
        let r = Realization::from_symmetric_pair(&m, pi, tau).unwrap();
        assert_eq!(r.s1_len(), 2);
        assert_eq!(r.s2_len(), 2);
        // Fig. 7: δ1([1]π, "1") = [2]τ, δ1([1]π, "0") = [1]τ,
        //         δ1([3]π, "1") = [1]τ, δ1([3]π, "0") = [2]τ.
        // Block ids: π: {0,1} = [1]π → 0, {2,3} = [3]π → 1;
        //            τ: {0,3} = [1]τ → 0, {1,2} = [2]τ → 1.
        assert_eq!(r.tables.delta1[0], vec![1, 0]);
        assert_eq!(r.tables.delta1[1], vec![0, 1]);
        // Fig. 7: δ2([1]τ, "1") = [3]π, δ2([1]τ, "0") = [1]π,
        //         δ2([2]τ, "1") = [1]π, δ2([2]τ, "0") = [3]π.
        assert_eq!(r.tables.delta2[0], vec![1, 0]);
        assert_eq!(r.tables.delta2[1], vec![0, 1]);
        // Every product state corresponds to exactly one original state here,
        // so every cell owns an output row and no default outputs are needed.
        assert!(r.tables.product_row.iter().all(Option::is_some));
        assert_eq!(r.tables.outputs.len(), 4);
        assert_eq!(r.tables.lambda(1, 0, 1), Some(m.output(3, 1)));
        assert_eq!(r.cost(), crate::Cost::new(2, 2));
        assert!(!r.is_trivial());
    }

    #[test]
    fn realization_verifies_against_the_specification() {
        let m = paper_example();
        let (pi, tau) = paper_pair();
        let r = Realization::from_symmetric_pair(&m, pi, tau).unwrap();
        assert_eq!(r.verify(&m), None);
        // The composed machine run from α(reset) must produce the same
        // output word as the specification for arbitrary input words.
        let composed = r.compose(&m);
        for w in 0..(1u32 << 10) {
            let word: Vec<usize> = (0..10).map(|b| ((w >> b) & 1) as usize).collect();
            let (out_spec, _) = m.run_from_reset(&word);
            let (out_real, _) = composed.run(r.alpha_index(m.reset_state()), &word);
            assert_eq!(out_spec, out_real);
        }
    }

    #[test]
    fn trivial_realization_is_doubling() {
        let m = paper_example();
        let id = Partition::identity(4);
        let r = Realization::from_symmetric_pair(&m, id.clone(), id).unwrap();
        assert!(r.is_trivial());
        assert_eq!(r.s1_len(), 4);
        assert_eq!(r.s2_len(), 4);
        assert_eq!(r.compose(&m).num_states(), 16);
        // 16 product states, but only the 4 diagonal ones own an output row.
        assert_eq!(r.tables.outputs.len(), 4);
        assert_eq!(r.verify(&m), None);
        assert_eq!(r.cost(), crate::Cost::trivial(4));
    }

    #[test]
    fn a_flipped_delta1_entry_is_the_first_transition_violation() {
        let m = paper_example();
        let (pi, tau) = paper_pair();
        let mut r = Realization::from_symmetric_pair(&m, pi, tau).unwrap();
        // δ1([3]π, "0") = [2]τ becomes [1]τ.  States 0 and 1 lie in [1]π and
        // pass; state 2 = ([3]π, [2]τ) passes input 0 and then, under input
        // 1, must reach α(δ(2, 1)) = α(2) = (1, 1) but reaches
        // (δ2(1, 1), δ1(1, 1)) = (1, 0).
        assert_eq!(r.tables.delta1[1][1], 1);
        r.tables.delta1[1][1] = 0;
        let expected = RealizationViolation::Transition {
            state: 2,
            input: 1,
            expected: (1, 1),
            got: (1, 0),
        };
        assert_eq!(r.verify(&m), Some(expected));
        assert_eq!(verify_composed(&r, &m), Some(expected));
    }

    #[test]
    fn a_changed_output_row_is_the_first_output_violation() {
        let m = paper_example();
        let (pi, tau) = paper_pair();
        let mut r = Realization::from_symmetric_pair(&m, pi, tau).unwrap();
        // State 3 is the only state of product state ([3]π, [1]τ) = (1, 0).
        // Flip its output under input 0: every transition still holds, and
        // states 0..2 still pass, so the first violation is λ*(α(3), 0).
        let row = r.tables.product_row[r.alpha_index(3)].unwrap();
        assert_eq!(r.tables.outputs[row], vec![0, 1]);
        r.tables.outputs[row][0] = 1;
        let expected = RealizationViolation::Output {
            state: 3,
            input: 0,
            expected: 0,
            got: 1,
        };
        assert_eq!(r.verify(&m), Some(expected));
        assert_eq!(verify_composed(&r, &m), Some(expected));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "π ∩ τ ⊄ ε")]
    fn a_product_state_of_distinguishable_states_is_caught() {
        // π = τ = universal puts all four states into product state (0, 0),
        // but states 0 and 1 differ in output: the sparse λ* has no single
        // row for that cell.
        let uni = Partition::universal(4);
        let _ = Realization::from_checked_pair(&paper_example(), uni.clone(), uni);
    }

    #[test]
    fn non_symmetric_pair_is_rejected() {
        let m = paper_example();
        let pi = Partition::from_blocks(4, &[vec![0, 2], vec![1, 3]]).unwrap();
        let tau = Partition::identity(4);
        // (identity as τ) makes (τ, π) a pair trivially, but (π, identity)
        // requires states 0 and 2 to have identical successor rows, which they
        // do not — so the pair is not symmetric.
        assert_eq!(
            Realization::from_symmetric_pair(&m, pi, tau).unwrap_err(),
            SynthError::NotSymmetricPair
        );
    }

    #[test]
    fn violating_intersection_is_rejected() {
        let m = paper_example();
        // π = τ = universal is a symmetric pair but π ∩ τ = universal ⊄ ε.
        let uni = Partition::universal(4);
        assert_eq!(
            Realization::from_symmetric_pair(&m, uni.clone(), uni).unwrap_err(),
            SynthError::IntersectionNotInEquivalence
        );
    }

    #[test]
    fn ground_set_mismatch_is_rejected() {
        let m = paper_example();
        let p3 = Partition::identity(3);
        let p4 = Partition::identity(4);
        assert!(matches!(
            Realization::from_symmetric_pair(&m, p3, p4).unwrap_err(),
            SynthError::GroundSetMismatch { .. }
        ));
    }

    #[test]
    fn factor_transitions_count() {
        let m = paper_example();
        let (pi, tau) = paper_pair();
        let r = Realization::from_symmetric_pair(&m, pi, tau).unwrap();
        // 2 blocks × 2 inputs + 2 blocks × 2 inputs = 8 = |S|·|I| here, but
        // for the trivial solution it would be 16.
        assert_eq!(r.tables.factor_transitions(), 8);
    }
}
