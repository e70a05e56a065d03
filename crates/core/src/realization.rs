//! The Theorem 1 construction: turning a symmetric partition pair into a
//! pipeline realization.

use crate::error::SynthError;
use stc_fsm::{state_equivalence, Mealy};
use stc_partition::{is_symmetric_pair, Partition};

/// The factor tables `δ1 : S/π × I → S/τ`, `δ2 : S/τ × I → S/π` and the
/// output table `λ* : S/π × S/τ × I → O` of a pipeline realization
/// (Theorem 1, items (ii) and (iii)).
///
/// The output table stores `None` for product states `(B1, B2)` whose blocks
/// have an empty intersection; the output there is arbitrary (the paper's
/// `o*`) and such product states are unreachable images of original states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorTables {
    /// `delta1[b1][i]` — the τ-block reached from π-block `b1` under input `i`.
    pub delta1: Vec<Vec<usize>>,
    /// `delta2[b2][i]` — the π-block reached from τ-block `b2` under input `i`.
    pub delta2: Vec<Vec<usize>>,
    /// `lambda[b1][b2][i]` — the output of product state `(b1, b2)` under `i`,
    /// or `None` if `B1 ∩ B2 = ∅`.
    pub lambda: Vec<Vec<Vec<Option<usize>>>>,
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
    /// The realization as a flat Mealy machine over `S1 × S2` (state
    /// `(b1, b2)` has index `b1 · |S2| + b2`).
    pub machine: Mealy,
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
        let default_output = 0;

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
        // λ*((B1, B2), i) := λ(s, i) for s ∈ B1 ∩ B2 (unique behaviour because
        // π ∩ τ ⊆ ε), or o* if the intersection is empty.
        let mut lambda = vec![vec![vec![None; k]; n2]; n1];
        for s in 0..machine.num_states() {
            let (b1, b2) = (pi.block_of(s), tau.block_of(s));
            for (i, slot) in lambda[b1][b2].iter_mut().enumerate() {
                *slot = Some(machine.output(s, i));
            }
        }

        let tables = FactorTables {
            delta1,
            delta2,
            lambda,
        };
        let alpha: Vec<(usize, usize)> = (0..machine.num_states())
            .map(|s| (pi.block_of(s), tau.block_of(s)))
            .collect();
        let composed = compose_machine(machine, &tables, default_output, &alpha);
        Self {
            pi,
            tau,
            tables,
            alpha,
            default_output,
            machine: composed,
        }
    }

    /// The state map of Definition 3: `α(s) = ([s]π, [s]τ)`.
    #[must_use]
    pub fn alpha(&self, s: usize) -> (usize, usize) {
        self.alpha[s]
    }

    /// The flat index of `α(s)` in the realization machine.
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

    /// Verifies that the realization machine realizes the specification in the
    /// sense of Definition 3, by checking `δ*(α(s), i) = α(δ(s, i))` and
    /// `λ*(α(s), i) = λ(s, i)` for every state and input.
    ///
    /// Returns the first violation found, or `None` if the realization is
    /// correct.
    #[must_use]
    pub fn verify(&self, machine: &Mealy) -> Option<RealizationViolation> {
        let n2 = self.tables.s2_len();
        for s in 0..machine.num_states() {
            let idx = self.alpha_index(s);
            for i in 0..machine.num_inputs() {
                let expected_next = self.alpha_index(machine.next_state(s, i));
                let got_next = self.machine.next_state(idx, i);
                if got_next != expected_next {
                    return Some(RealizationViolation::Transition {
                        state: s,
                        input: i,
                        expected: (expected_next / n2, expected_next % n2),
                        got: (got_next / n2, got_next % n2),
                    });
                }
                if self.machine.output(idx, i) != machine.output(s, i) {
                    return Some(RealizationViolation::Output {
                        state: s,
                        input: i,
                        expected: machine.output(s, i),
                        got: self.machine.output(idx, i),
                    });
                }
            }
        }
        None
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

fn compose_machine(
    machine: &Mealy,
    tables: &FactorTables,
    default_output: usize,
    alpha: &[(usize, usize)],
) -> Mealy {
    let n1 = tables.s1_len();
    let n2 = tables.s2_len();
    let k = tables.num_inputs();
    let mut builder = Mealy::builder(
        format!("{}_pipeline", machine.name()),
        n1 * n2,
        k,
        machine.num_outputs(),
    );
    builder
        .state_names((0..n1 * n2).map(|idx| format!("p{}q{}", idx / n2, idx % n2)))
        .expect("generated names are distinct");
    builder
        .input_names((0..k).map(|i| machine.input_name(i).to_string()))
        .expect("copied input names");
    builder
        .output_names((0..machine.num_outputs()).map(|o| machine.output_name(o).to_string()))
        .expect("copied output names");
    for b1 in 0..n1 {
        for b2 in 0..n2 {
            for i in 0..k {
                // δ*((B1, B2), i) = (δ2(B2, i), δ1(B1, i)).
                let next = tables.delta2[b2][i] * n2 + tables.delta1[b1][i];
                let out = tables.lambda[b1][b2][i].unwrap_or(default_output);
                builder
                    .transition(b1 * n2 + b2, i, next, out)
                    .expect("block indices are in range");
            }
        }
    }
    let (r1, r2) = alpha[machine.reset_state()];
    builder
        .reset_state(r1 * n2 + r2)
        .expect("reset block pair is in range");
    builder.build().expect("fully specified by construction")
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
        // so no default outputs are needed.
        assert!(r
            .tables
            .lambda
            .iter()
            .flatten()
            .flatten()
            .all(Option::is_some));
        assert_eq!(r.cost(), crate::Cost::new(2, 2));
        assert!(!r.is_trivial());
    }

    #[test]
    fn realization_verifies_against_the_specification() {
        let m = paper_example();
        let (pi, tau) = paper_pair();
        let r = Realization::from_symmetric_pair(&m, pi, tau).unwrap();
        assert_eq!(r.verify(&m), None);
        // The realization machine run from α(reset) must produce the same
        // output word as the specification for arbitrary input words.
        for w in 0..(1u32 << 10) {
            let word: Vec<usize> = (0..10).map(|b| ((w >> b) & 1) as usize).collect();
            let (out_spec, _) = m.run_from_reset(&word);
            let (out_real, _) = r.machine.run(r.alpha_index(m.reset_state()), &word);
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
        assert_eq!(r.machine.num_states(), 16);
        assert_eq!(r.verify(&m), None);
        assert_eq!(r.cost(), crate::Cost::trivial(4));
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
