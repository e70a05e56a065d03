//! Cone-restricted PP-SFP: the one faulty-circuit kernel behind the
//! coverage measurement ([`crate::simulate_faults_packed`]), the plan
//! optimizer's first-detection profiles and the signature session.
//!
//! A stuck-at fault can only change the nodes in its site's transitive
//! fanout — its *cone*.  So instead of re-sweeping the whole netlist per
//! fault, a [`ConeSim`] evaluates the fault-free circuit once per wide
//! superblock, keeps every node's value, and per fault forces the site,
//! re-evaluates only the cone (ascending node ids, which is topological),
//! reads the observed outputs and restores the cone from the good values
//! (Waicukauski et al., *Fault simulation for structured VLSI*, 1985).
//! Faults that are not excited in any lane of interest — the good value
//! already equals the stuck value there — are skipped outright.
//!
//! Exactness: a node outside the cone does not depend on the site, so its
//! faulty value is its good value; cone nodes are recomputed in topological
//! order from fan-ins that are either already faulty or equal to good.
//! Every node therefore takes the value of a full faulty sweep
//! ([`stc_logic::Netlist::eval_packed_wide_into`] with the fault), bit for
//! bit — the property tests below pin it against that oracle.

use crate::fault::StuckAtFault;
use stc_logic::{Netlist, NodeId, WideWord, PACKED_WORDS};

/// The transitive fanout of every node in compressed-sparse-row form:
/// `nodes[offsets[v]..offsets[v + 1]]` is the cone of node `v` (excluding
/// `v` itself) in ascending id order.
///
/// Built once per block per call.  It costs `4 × (nodes + 1 + Σ |cone|)`
/// bytes; in the two-level AND-OR netlists the flow builds a cone is at
/// most an inverter, the products it feeds and the sums those feed.
pub(crate) struct ConeIndex {
    offsets: Vec<u32>,
    nodes: Vec<u32>,
}

impl ConeIndex {
    /// Indexes the fanout cone of every node of `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the index would hold more than `u32::MAX` entries.
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let gates = netlist.gates();
        let n = gates.len();
        let id32 = |x: usize| u32::try_from(x).expect("cone index exceeds u32 ids");
        // Direct fanout, CSR: `fanout[start[v]..start[v + 1]]`.
        let mut start = vec![0usize; n + 1];
        for gate in gates {
            for &f in gate.fanins() {
                start[f + 1] += 1;
            }
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fanout = vec![0u32; start[n]];
        let mut fill = start.clone();
        for (id, gate) in gates.iter().enumerate() {
            for &f in gate.fanins() {
                fanout[fill[f]] = id32(id);
                fill[f] += 1;
            }
        }

        // One depth-first walk per node; `seen[w] == v` marks w as already
        // collected into v's cone.
        let mut seen = vec![usize::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nodes: Vec<u32> = Vec::new();
        offsets.push(0);
        for v in 0..n {
            let first = nodes.len();
            stack.push(v);
            while let Some(u) = stack.pop() {
                for &w in &fanout[start[u]..start[u + 1]] {
                    let w = w as usize;
                    if seen[w] != v {
                        seen[w] = v;
                        nodes.push(id32(w));
                        stack.push(w);
                    }
                }
            }
            nodes[first..].sort_unstable();
            offsets.push(id32(nodes.len()));
        }
        Self { offsets, nodes }
    }

    /// The cone of `node`, ascending.
    fn cone(&self, node: NodeId) -> &[u32] {
        &self.nodes[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }
}

/// Cone-restricted fault simulation over one wide superblock at a time,
/// with reusable scratch.
pub(crate) struct ConeSim<'a> {
    netlist: &'a Netlist,
    cones: &'a ConeIndex,
    /// Fault-free value of every node for the loaded superblock.
    good: Vec<WideWord>,
    /// Equal to `good` between [`Self::errors`] calls.
    faulty: Vec<WideWord>,
}

impl<'a> ConeSim<'a> {
    pub(crate) fn new(netlist: &'a Netlist, cones: &'a ConeIndex) -> Self {
        Self {
            netlist,
            cones,
            good: Vec::new(),
            faulty: Vec::new(),
        }
    }

    /// Evaluates the fault-free circuit on one superblock of inputs.
    pub(crate) fn load(&mut self, inputs: &[WideWord]) {
        self.netlist
            .eval_packed_wide_into(inputs, None, &mut self.good);
        self.faulty.clone_from(&self.good);
    }

    /// The fault-free value of every node of the loaded superblock.
    pub(crate) fn good(&self) -> &[WideWord] {
        &self.good
    }

    /// Simulates `fault` on the loaded superblock and writes the error
    /// group (faulty ⊕ good) of each `observed` node into `errors`.
    ///
    /// Lanes outside `care` are of no interest to the caller: when the
    /// fault is not excited in any care lane (the good value already equals
    /// the stuck value there) nothing is simulated, `errors` is left as it
    /// was and `false` is returned.  Error bits outside `care` are
    /// unspecified; callers mask them.
    ///
    /// # Panics
    ///
    /// Panics if the fault node id is out of range or `errors` is shorter
    /// than `observed`.
    pub(crate) fn errors(
        &mut self,
        fault: StuckAtFault,
        care: &WideWord,
        observed: &[NodeId],
        errors: &mut [WideWord],
    ) -> bool {
        let site = fault.node;
        assert!(site < self.good.len(), "fault node out of range");
        let stuck = [if fault.stuck_at { u64::MAX } else { 0 }; PACKED_WORDS];
        let good_site = self.good[site];
        if (0..PACKED_WORDS).all(|w| (good_site[w] ^ stuck[w]) & care[w] == 0) {
            return false;
        }
        let gates = self.netlist.gates();
        let cone = self.cones.cone(site);
        self.faulty[site] = stuck;
        for &v in cone {
            let v = v as usize;
            // Cone members are gates with fan-ins, never primary inputs, so
            // the input slice is never read.
            self.faulty[v] = gates[v].eval_wide(&[], &self.faulty);
        }
        for (e, &o) in errors.iter_mut().zip(observed) {
            let (bad, good) = (&self.faulty[o], &self.good[o]);
            *e = std::array::from_fn(|w| bad[w] ^ good[w]);
        }
        self.faulty[site] = good_site;
        for &v in cone {
            self.faulty[v as usize] = self.good[v as usize];
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{fault_list, lfsr_patterns, PackedPatterns};
    use stc_logic::Gate;

    /// Two outputs sharing the product `ab`, a bare-input output, a
    /// repeated output and a constant output: f = ab + c, g = ab + !c,
    /// h = a, f again, k = 0.
    fn shared_netlist() -> Netlist {
        let gates = vec![
            Gate::Input(0),
            Gate::Input(1),
            Gate::Input(2),
            Gate::And(vec![0, 1]), // 3: ab
            Gate::Not(2),          // 4: !c
            Gate::Or(vec![3, 2]),  // 5: f
            Gate::Or(vec![3, 4]),  // 6: g
            Gate::Const(false),    // 7: k
        ];
        Netlist::from_gates(3, gates, vec![5, 6, 0, 5, 7])
    }

    #[test]
    fn cones_are_the_ascending_transitive_fanout() {
        let n = shared_netlist();
        let cones = ConeIndex::new(&n);
        for (v, _) in n.gates().iter().enumerate() {
            let cone = cones.cone(v);
            assert!(cone.windows(2).all(|p| p[0] < p[1]), "node {v}: {cone:?}");
            // Brute force: w is in the cone iff some fan-in of w is v or in
            // the cone.
            let mut reach = vec![false; n.gates().len()];
            reach[v] = true;
            let mut expect = Vec::new();
            for (w, gate) in n.gates().iter().enumerate().skip(v + 1) {
                if gate.fanins().iter().any(|&f| reach[f]) {
                    reach[w] = true;
                    expect.push(w as u32);
                }
            }
            assert_eq!(cone, &expect[..], "node {v}");
        }
        // Inputs and constants never appear in a cone.
        for &v in &cones.nodes {
            assert!(!matches!(
                n.gates()[v as usize],
                Gate::Input(_) | Gate::Const(_)
            ));
        }
    }

    #[test]
    fn cone_errors_equal_the_full_sweep_and_leave_the_scratch_clean() {
        let n = shared_netlist();
        let cones = ConeIndex::new(&n);
        let mut sim = ConeSim::new(&n, &cones);
        let packed = PackedPatterns::pack(3, &lfsr_patterns(3, 300, 5));
        let observed = n.outputs();
        let mut errors = vec![[0; PACKED_WORDS]; observed.len()];
        let mut full = Vec::new();
        for s in 0..packed.num_superblocks() {
            let inputs = packed.wide_block(s);
            sim.load(&inputs);
            let all = [u64::MAX; PACKED_WORDS];
            for fault in fault_list(&n) {
                n.eval_packed_wide_into(&inputs, Some((fault.node, fault.stuck_at)), &mut full);
                let expect: Vec<WideWord> = observed
                    .iter()
                    .map(|&o| std::array::from_fn(|w| full[o][w] ^ sim.good()[o][w]))
                    .collect();
                if sim.errors(fault, &all, observed, &mut errors) {
                    assert_eq!(errors, expect, "{fault:?}");
                } else {
                    assert!(expect.iter().all(|e| *e == [0; PACKED_WORDS]), "{fault:?}");
                }
                assert_eq!(sim.faulty, sim.good, "{fault:?} left the scratch dirty");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::fault::{fault_list, lfsr_patterns, PackedPatterns};
    use crate::test_support::arb_netlist;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every fault's cone-restricted error groups equal the full faulty
        /// sweep's, whichever care lanes are asked for, and the scratch is
        /// back to the good values after every fault.
        #[test]
        fn cone_errors_equal_the_full_sweep_on_random_netlists(
            netlist in arb_netlist(),
            seed in 1u64..1000,
            care in any::<u64>(),
        ) {
            let cones = ConeIndex::new(&netlist);
            let mut sim = ConeSim::new(&netlist, &cones);
            let packed = PackedPatterns::pack(
                netlist.num_inputs(),
                &lfsr_patterns(netlist.num_inputs(), 256, seed),
            );
            let inputs = packed.wide_block(0);
            sim.load(&inputs);
            let care: WideWord = std::array::from_fn(|w| care.rotate_left(16 * w as u32));
            let observed = netlist.outputs();
            let mut errors = vec![[0; PACKED_WORDS]; observed.len()];
            let mut full = Vec::new();
            for fault in fault_list(&netlist) {
                netlist.eval_packed_wide_into(
                    &inputs,
                    Some((fault.node, fault.stuck_at)),
                    &mut full,
                );
                let expect: Vec<WideWord> = observed
                    .iter()
                    .map(|&o| std::array::from_fn(|w| (full[o][w] ^ sim.good()[o][w]) & care[w]))
                    .collect();
                if sim.errors(fault, &care, observed, &mut errors) {
                    let masked: Vec<WideWord> = errors
                        .iter()
                        .map(|e| std::array::from_fn(|w| e[w] & care[w]))
                        .collect();
                    prop_assert_eq!(masked, expect);
                } else {
                    prop_assert!(expect.iter().all(|e| *e == [0; PACKED_WORDS]));
                }
                prop_assert!(sim.faulty == sim.good, "{:?} left the scratch dirty", fault);
            }
        }
    }
}
