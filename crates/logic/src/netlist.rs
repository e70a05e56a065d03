//! Gate-level netlists: construction from covers, evaluation, and area/delay
//! estimation.

use crate::cover::Cover;
use crate::cube::Literal;

/// Identifier of a node (gate) inside a [`Netlist`].
pub type NodeId = usize;

/// Number of independent patterns carried by one machine word in the packed
/// evaluation path ([`Netlist::eval_packed_wide_into`]): bit `k` of every
/// word belongs to pattern `k` of that word's 64-pattern block.
pub const PACKED_LANES: usize = 64;

/// Number of `u64` pattern words processed side by side per node in the wide
/// evaluation path ([`Netlist::eval_packed_wide_into`]).  One wide sweep
/// therefore evaluates `PACKED_WORDS * PACKED_LANES` = 256 patterns.  The
/// width is chosen so a node's value group fills one AVX2 register (4 × 64
/// bits) while still autovectorizing to paired SSE2 operations on baseline
/// x86-64 — the per-lane loops in the evaluator are fixed-trip-count and
/// branch-free precisely so stable rustc can vectorize them without
/// `std::simd`.
pub const PACKED_WORDS: usize = 4;

/// A group of [`PACKED_WORDS`] pattern words: the unit of data carried per
/// node by [`Netlist::eval_packed_wide_into`].
pub type WideWord = [u64; PACKED_WORDS];

/// A combinational gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// Primary input with the given index.
    Input(usize),
    /// Constant value.
    Const(bool),
    /// Inverter.
    Not(NodeId),
    /// AND of the listed nodes (empty = constant 1).
    And(Vec<NodeId>),
    /// OR of the listed nodes (empty = constant 0).
    Or(Vec<NodeId>),
}

impl Gate {
    /// The fan-in node ids of the gate, borrowed from the gate itself.
    ///
    /// Returns a slice instead of allocating: levelization, fault-site
    /// enumeration, SCOAP and codegen all walk fan-ins in tight per-node
    /// loops, where a fresh `Vec` per call dominated the traversal cost.
    #[must_use]
    pub fn fanins(&self) -> &[NodeId] {
        match self {
            Gate::Input(_) | Gate::Const(_) => &[],
            Gate::Not(a) => std::slice::from_ref(a),
            Gate::And(xs) | Gate::Or(xs) => xs,
        }
    }

    /// The gate's output group over one wide superblock: `inputs` carries
    /// the primary inputs and `values` every node with a smaller id.  The
    /// single per-gate step shared by [`Netlist::eval_packed_wide_into`]
    /// and the fault simulators that re-evaluate only a fault's fanout
    /// cone.  The fixed-trip-count lane loops autovectorize (see
    /// [`PACKED_WORDS`]).
    #[inline]
    #[must_use]
    pub fn eval_wide(&self, inputs: &[WideWord], values: &[WideWord]) -> WideWord {
        match self {
            Gate::Input(i) => inputs[*i],
            Gate::Const(c) => [if *c { u64::MAX } else { 0 }; PACKED_WORDS],
            Gate::Not(a) => {
                let v = &values[*a];
                std::array::from_fn(|w| !v[w])
            }
            Gate::And(xs) => {
                let mut acc = [u64::MAX; PACKED_WORDS];
                for &x in xs {
                    let v = &values[x];
                    for w in 0..PACKED_WORDS {
                        acc[w] &= v[w];
                    }
                }
                acc
            }
            Gate::Or(xs) => {
                let mut acc = [0u64; PACKED_WORDS];
                for &x in xs {
                    let v = &values[x];
                    for w in 0..PACKED_WORDS {
                        acc[w] |= v[w];
                    }
                }
                acc
            }
        }
    }
}

/// A combinational gate-level netlist in topological order.
///
/// Gates are stored so that every gate's fan-ins have smaller node ids, which
/// makes single-pass evaluation possible.  The netlist also carries the list
/// of primary-output nodes.
///
/// # Example
///
/// ```
/// use stc_logic::{Cover, Cube, Netlist};
///
/// // f = a·b + !a·c  over inputs (a, b, c)
/// let cover = Cover::from_cubes(3, vec![
///     Cube::parse("11-")?,
///     Cube::parse("0-1")?,
/// ]);
/// let netlist = Netlist::from_covers(3, &[cover]);
/// assert_eq!(netlist.evaluate(&[true, true, false]), vec![true]);
/// assert_eq!(netlist.evaluate(&[true, false, true]), vec![false]);
/// assert!(netlist.depth() >= 2);
/// # Ok::<(), stc_logic::LogicError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Netlist {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<NodeId>,
}

impl Netlist {
    /// Builds an empty netlist with only the primary-input nodes.
    #[must_use]
    pub fn new(num_inputs: usize) -> Self {
        Self {
            num_inputs,
            gates: (0..num_inputs).map(Gate::Input).collect(),
            outputs: Vec::new(),
        }
    }

    /// Builds a netlist from explicit gates and output nodes: the first
    /// `num_inputs` gates must be `Input(0)`, `Input(1)`, …, no other gate
    /// may be an input, and every fan-in and output must name an earlier
    /// node.  Unlike [`Self::from_covers`] this admits any multi-level
    /// structure, e.g. product terms shared between outputs.
    ///
    /// # Panics
    ///
    /// Panics if the gates are not in that shape.
    #[must_use]
    pub fn from_gates(num_inputs: usize, gates: Vec<Gate>, outputs: Vec<NodeId>) -> Self {
        for (id, gate) in gates.iter().enumerate() {
            match gate {
                Gate::Input(i) => assert!(id < num_inputs && *i == id, "misplaced input {id}"),
                _ => assert!(id >= num_inputs, "node {id} must be an input"),
            }
            assert!(
                gate.fanins().iter().all(|&f| f < id),
                "node {id} references a fan-in >= its own id"
            );
        }
        assert!(gates.len() >= num_inputs, "missing input nodes");
        assert!(
            outputs.iter().all(|&o| o < gates.len()),
            "output node out of range"
        );
        Self {
            num_inputs,
            gates,
            outputs,
        }
    }

    /// Builds a two-level (AND-OR with shared input inverters) netlist that
    /// implements one output per cover.  All covers must be defined over the
    /// same `num_inputs` variables.
    ///
    /// # Panics
    ///
    /// Panics if a cover's variable count differs from `num_inputs`.
    #[must_use]
    pub fn from_covers(num_inputs: usize, covers: &[Cover]) -> Self {
        let mut netlist = Self::new(num_inputs);
        // Shared inverters, allocated lazily.
        let mut inverted: Vec<Option<NodeId>> = vec![None; num_inputs];
        let mut outputs = Vec::with_capacity(covers.len());
        for cover in covers {
            assert_eq!(cover.num_vars(), num_inputs, "cover width mismatch");
            let mut product_nodes = Vec::with_capacity(cover.len());
            for cube in cover.cubes() {
                let mut inputs_of_and = Vec::new();
                #[allow(clippy::needless_range_loop)]
                // `v` indexes both the cube literals and the inverter cache.
                for v in 0..num_inputs {
                    match cube.literal(v) {
                        Literal::DontCare => {}
                        Literal::One => inputs_of_and.push(v),
                        Literal::Zero => {
                            let inv = *inverted[v].get_or_insert_with(|| {
                                netlist.gates.push(Gate::Not(v));
                                netlist.gates.len() - 1
                            });
                            inputs_of_and.push(inv);
                        }
                    }
                }
                let node = match inputs_of_and.len() {
                    0 => netlist.push(Gate::Const(true)),
                    1 => inputs_of_and[0],
                    _ => netlist.push(Gate::And(inputs_of_and)),
                };
                product_nodes.push(node);
            }
            let out = match product_nodes.len() {
                0 => netlist.push(Gate::Const(false)),
                1 => product_nodes[0],
                _ => netlist.push(Gate::Or(product_nodes)),
            };
            outputs.push(out);
        }
        netlist.outputs = outputs;
        netlist
    }

    fn push(&mut self, gate: Gate) -> NodeId {
        self.gates.push(gate);
        self.gates.len() - 1
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The primary-output node ids.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All gates in topological order (including the input nodes).
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of logic gates (inverters, ANDs, ORs; excludes inputs and
    /// constants), a first-order area measure.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Not(_) | Gate::And(_) | Gate::Or(_)))
            .count()
    }

    /// Total number of gate-input connections (literals), the classical
    /// technology-independent area proxy.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.gates.iter().map(|g| g.fanins().len()).sum()
    }

    /// Logic depth in gate levels (inverters count as a level), a first-order
    /// delay measure.  Inputs have depth 0.
    #[must_use]
    pub fn depth(&self) -> usize {
        let level = self.node_levels();
        self.outputs.iter().map(|&o| level[o]).max().unwrap_or(0)
    }

    /// The logic level of every node: inputs and constants at 0, every gate
    /// one above its deepest fan-in.  Shared by [`Self::depth`] and
    /// [`Self::levelize`].
    fn node_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.gates.len()];
        for (id, gate) in self.gates.iter().enumerate() {
            // The storage order is topological by construction (builders only
            // reference already-pushed nodes); the single forward pass below
            // is only correct under that invariant.
            debug_assert!(
                gate.fanins().iter().all(|&f| f < id),
                "netlist not topological: node {id} references a fan-in >= its own id"
            );
            level[id] = match gate {
                Gate::Input(_) | Gate::Const(_) => 0,
                _ => 1 + gate.fanins().iter().map(|&f| level[f]).max().unwrap_or(0),
            };
        }
        level
    }

    /// Evaluates the netlist on an input vector (fault-free).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    #[must_use]
    pub fn evaluate(&self, inputs: &[bool]) -> Vec<bool> {
        self.evaluate_with_fault(inputs, None)
    }

    /// Evaluates the netlist with an optional stuck-at fault: node
    /// `fault.0` is forced to the value `fault.1` regardless of its inputs.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs or
    /// the fault node id is out of range.
    #[must_use]
    pub fn evaluate_with_fault(&self, inputs: &[bool], fault: Option<(NodeId, bool)>) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        if let Some((node, _)) = fault {
            assert!(node < self.gates.len(), "fault node out of range");
        }
        let mut values = vec![false; self.gates.len()];
        for (id, gate) in self.gates.iter().enumerate() {
            let v = match gate {
                Gate::Input(i) => inputs[*i],
                Gate::Const(c) => *c,
                Gate::Not(a) => !values[*a],
                Gate::And(xs) => xs.iter().all(|&x| values[x]),
                Gate::Or(xs) => xs.iter().any(|&x| values[x]),
            };
            values[id] = match fault {
                Some((node, stuck)) if node == id => stuck,
                _ => v,
            };
        }
        self.outputs.iter().map(|&o| values[o]).collect()
    }

    /// Node ids that are meaningful stuck-at fault sites: every gate and every
    /// *connected* primary input.
    ///
    /// Constants are excluded (they are not circuit lines), and so are primary
    /// inputs with no fanout that are not primary outputs either — an input
    /// the block does not depend on is simply not routed to it in hardware,
    /// so it contributes no fault sites.
    #[must_use]
    pub fn fault_sites(&self) -> Vec<NodeId> {
        let mut referenced = vec![false; self.gates.len()];
        for gate in &self.gates {
            for &f in gate.fanins() {
                referenced[f] = true;
            }
        }
        for &o in &self.outputs {
            referenced[o] = true;
        }
        (0..self.gates.len())
            .filter(|&id| match self.gates[id] {
                Gate::Const(_) => false,
                Gate::Input(_) => referenced[id],
                _ => true,
            })
            .collect()
    }

    /// Groups the nodes by logic level: inputs and constants at level 0,
    /// every gate one level above its deepest fan-in.  Every node appears in
    /// exactly one group, and every gate's fan-ins lie in strictly earlier
    /// groups — the levelized schedule that word-level evaluation sweeps.
    ///
    /// The storage order of [`Self::gates`] is already topological (fan-ins
    /// have smaller ids), so a single in-order pass visits the levels in
    /// non-decreasing order; `levelize` makes that schedule explicit for
    /// callers that want per-level parallelism or the depth profile.
    #[must_use]
    pub fn levelize(&self) -> Vec<Vec<NodeId>> {
        let level = self.node_levels();
        let depth = level.iter().copied().max().unwrap_or(0);
        let mut groups: Vec<Vec<NodeId>> = vec![Vec::new(); depth + 1];
        for (id, &l) in level.iter().enumerate() {
            groups[l].push(id);
        }
        groups
    }

    /// The packed evaluator: each node carries a group of [`PACKED_WORDS`]
    /// pattern words, so one netlist sweep evaluates
    /// `PACKED_WORDS × PACKED_LANES` = 256 patterns, and the value group of
    /// *every* node is left in `values` (indexed by node id), reusing the
    /// buffer's capacity across calls.  `inputs[i]` carries primary input
    /// `i`: bit `k` of word `w` is input `i` of pattern `64·w + k`.  An
    /// optional stuck-at fault forces node `fault.0` to `fault.1` in every
    /// lane.  The per-gate loops ([`Gate::eval_wide`]) run over fixed-length
    /// `[u64; PACKED_WORDS]` arrays with no data-dependent control flow,
    /// which the compiler autovectorizes (SSE2/AVX2 on x86-64); `std::simd`
    /// is nightly-only, so the explicit unrolled form is the stable-toolchain
    /// spelling of the kernel.  Bit-for-bit equivalent to 256 scalar
    /// [`Self::evaluate_with_fault`] calls (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs or
    /// the fault node id is out of range.
    pub fn eval_packed_wide_into(
        &self,
        inputs: &[WideWord],
        fault: Option<(NodeId, bool)>,
        values: &mut Vec<WideWord>,
    ) {
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        if let Some((node, _)) = fault {
            assert!(node < self.gates.len(), "fault node out of range");
        }
        values.clear();
        values.resize(self.gates.len(), [0; PACKED_WORDS]);
        for (id, gate) in self.gates.iter().enumerate() {
            let group = gate.eval_wide(inputs, values);
            values[id] = match fault {
                Some((node, stuck)) if node == id => {
                    [if stuck { u64::MAX } else { 0 }; PACKED_WORDS]
                }
                _ => group,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Cube;

    fn xor_netlist() -> Netlist {
        let cover = Cover::from_cubes(
            2,
            vec![Cube::parse("10").unwrap(), Cube::parse("01").unwrap()],
        );
        Netlist::from_covers(2, &[cover])
    }

    #[test]
    fn evaluation_matches_the_cover() {
        let n = xor_netlist();
        assert_eq!(n.evaluate(&[false, false]), vec![false]);
        assert_eq!(n.evaluate(&[true, false]), vec![true]);
        assert_eq!(n.evaluate(&[false, true]), vec![true]);
        assert_eq!(n.evaluate(&[true, true]), vec![false]);
    }

    #[test]
    fn structure_counts() {
        let n = xor_netlist();
        // 2 inverters + 2 ANDs + 1 OR.
        assert_eq!(n.gate_count(), 5);
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.depth(), 3); // NOT → AND → OR
        assert_eq!(n.literal_count(), 2 + 4 + 2);
    }

    #[test]
    fn constant_and_single_literal_covers() {
        let zero = Cover::new(2);
        let one = Cover::from_cubes(2, vec![Cube::parse("--").unwrap()]);
        let single = Cover::from_cubes(2, vec![Cube::parse("-1").unwrap()]);
        let n = Netlist::from_covers(2, &[zero, one, single]);
        assert_eq!(n.evaluate(&[false, false]), vec![false, true, false]);
        assert_eq!(n.evaluate(&[false, true]), vec![false, true, true]);
    }

    #[test]
    fn shared_inverters_are_reused() {
        // Two outputs both needing !a must share one inverter.
        let f = Cover::from_cubes(2, vec![Cube::parse("0-").unwrap()]);
        let g = Cover::from_cubes(2, vec![Cube::parse("01").unwrap()]);
        let n = Netlist::from_covers(2, &[f, g]);
        let inverters = n
            .gates()
            .iter()
            .filter(|gate| matches!(gate, Gate::Not(_)))
            .count();
        assert_eq!(inverters, 1);
    }

    #[test]
    fn stuck_at_faults_change_outputs() {
        let n = xor_netlist();
        // Find the OR gate (the output node) and force it to 0.
        let out = n.outputs()[0];
        assert_eq!(
            n.evaluate_with_fault(&[true, false], Some((out, false))),
            vec![false]
        );
        // Forcing a primary input to 1: input node 0 stuck-at-1 makes (1,1).
        assert_eq!(
            n.evaluate_with_fault(&[false, true], Some((0, true))),
            vec![false]
        );
    }

    #[test]
    fn explicit_gates_can_share_a_product_between_outputs() {
        // f = ab + c, g = ab + !c with one shared AND.
        let gates = vec![
            Gate::Input(0),
            Gate::Input(1),
            Gate::Input(2),
            Gate::And(vec![0, 1]),
            Gate::Not(2),
            Gate::Or(vec![3, 2]),
            Gate::Or(vec![3, 4]),
        ];
        let n = Netlist::from_gates(3, gates, vec![5, 6]);
        assert_eq!(n.evaluate(&[true, true, false]), vec![true, true]);
        assert_eq!(n.evaluate(&[false, true, false]), vec![false, true]);
        // Stuck-at-0 on the shared AND reaches both outputs.
        assert_eq!(
            n.evaluate_with_fault(&[true, true, false], Some((3, false))),
            vec![false, true]
        );
    }

    #[test]
    #[should_panic(expected = "fan-in")]
    fn explicit_gates_must_be_topological() {
        let gates = vec![Gate::Input(0), Gate::Not(2), Gate::Const(true)];
        let _ = Netlist::from_gates(1, gates, vec![1]);
    }

    #[test]
    fn fault_sites_exclude_constants() {
        let one = Cover::from_cubes(1, vec![Cube::parse("-").unwrap()]);
        let n = Netlist::from_covers(1, &[one]);
        for site in n.fault_sites() {
            assert!(!matches!(n.gates()[site], Gate::Const(_)));
        }
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let n = xor_netlist();
        let _ = n.evaluate(&[true]);
    }

    #[test]
    fn levelize_groups_every_node_exactly_once_in_fanin_order() {
        let n = xor_netlist();
        let groups = n.levelize();
        // Inputs at level 0; NOT → AND → OR gives four levels in total.
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0], vec![0, 1]);
        let mut seen = vec![false; n.gates().len()];
        for (l, group) in groups.iter().enumerate() {
            for &id in group {
                assert!(!seen[id], "node {id} appears twice");
                seen[id] = true;
                for &f in n.gates()[id].fanins() {
                    let fanin_level = groups.iter().position(|g| g.contains(&f)).unwrap();
                    assert!(
                        fanin_level < l,
                        "fan-in {f} of {id} not in an earlier level"
                    );
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "levelize dropped a node");
    }

    /// The output groups of one [`Netlist::eval_packed_wide_into`] sweep.
    fn wide_outputs(
        n: &Netlist,
        inputs: &[WideWord],
        fault: Option<(NodeId, bool)>,
    ) -> Vec<WideWord> {
        let mut values = Vec::new();
        n.eval_packed_wide_into(inputs, fault, &mut values);
        n.outputs().iter().map(|&o| values[o]).collect()
    }

    /// Bit `pattern` of a wide group: lane `pattern % 64` of word `pattern / 64`.
    fn lane(group: &WideWord, pattern: usize) -> bool {
        (group[pattern / PACKED_LANES] >> (pattern % PACKED_LANES)) & 1 == 1
    }

    const WIDE_PATTERNS: usize = PACKED_WORDS * PACKED_LANES;

    #[test]
    fn packed_evaluation_matches_scalar_on_all_xor_lanes() {
        let n = xor_netlist();
        // Pattern k carries the inputs (k & 1, k & 2): build the input groups.
        let mut a = [0u64; PACKED_WORDS];
        let mut b = [0u64; PACKED_WORDS];
        for k in 0..WIDE_PATTERNS {
            let bit = 1 << (k % PACKED_LANES);
            if k & 1 != 0 {
                a[k / PACKED_LANES] |= bit;
            }
            if k & 2 != 0 {
                b[k / PACKED_LANES] |= bit;
            }
        }
        let out = wide_outputs(&n, &[a, b], None);
        assert_eq!(out.len(), 1);
        for k in 0..WIDE_PATTERNS {
            let scalar = n.evaluate(&[k & 1 != 0, k & 2 != 0])[0];
            assert_eq!(lane(&out[0], k), scalar, "pattern {k}");
        }
    }

    #[test]
    fn packed_fault_injection_matches_scalar_fault_injection() {
        let n = xor_netlist();
        let inputs = [
            [0xF0F0_F0F0_F0F0_F0F0, 0x0F0F_0F0F_0F0F_0F0F, 0, u64::MAX],
            [0xFF00_FF00_FF00_FF00, 0xFF00_FF00_FF00_FF00, u64::MAX, 0],
        ];
        for site in n.fault_sites() {
            for stuck in [false, true] {
                let packed = wide_outputs(&n, &inputs, Some((site, stuck)));
                for k in [0usize, 4, 17, 63, 64, 100, 150, 255] {
                    let scalar_inputs: Vec<bool> = inputs.iter().map(|g| lane(g, k)).collect();
                    let scalar = n.evaluate_with_fault(&scalar_inputs, Some((site, stuck)));
                    assert_eq!(lane(&packed[0], k), scalar[0], "pattern {k}");
                }
            }
        }
    }

    #[test]
    fn packed_constants_fill_every_lane() {
        let zero = Cover::new(1);
        let one = Cover::from_cubes(1, vec![Cube::parse("-").unwrap()]);
        let n = Netlist::from_covers(1, &[zero, one]);
        let out = wide_outputs(&n, &[[0xDEAD_BEEF_DEAD_BEEF; PACKED_WORDS]], None);
        assert_eq!(out, vec![[0; PACKED_WORDS], [u64::MAX; PACKED_WORDS]]);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn packed_wrong_input_width_panics() {
        let n = xor_netlist();
        let _ = wide_outputs(&n, &[[0; PACKED_WORDS]], None);
    }
}
