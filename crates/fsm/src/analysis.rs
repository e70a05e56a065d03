//! Reachability and other structural analyses of Mealy machines.

use crate::machine::Mealy;
use std::collections::VecDeque;

/// Returns the set of states reachable from the reset state, in BFS order.
#[must_use]
pub fn reachable_states(machine: &Mealy) -> Vec<usize> {
    let mut seen = vec![false; machine.num_states()];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    seen[machine.reset_state()] = true;
    queue.push_back(machine.reset_state());
    while let Some(s) = queue.pop_front() {
        order.push(s);
        for i in 0..machine.num_inputs() {
            let t = machine.next_state(s, i);
            if !seen[t] {
                seen[t] = true;
                queue.push_back(t);
            }
        }
    }
    order
}

/// Returns `true` if every state is reachable from the reset state.
#[must_use]
pub fn is_strongly_reachable(machine: &Mealy) -> bool {
    reachable_states(machine).len() == machine.num_states()
}

/// Restricts the machine to the states reachable from the reset state,
/// renumbering states densely (in BFS order) and preserving names.
///
/// If every state is already reachable the machine is returned unchanged
/// (modulo the BFS renumbering).
#[must_use]
pub fn restrict_to_reachable(machine: &Mealy) -> Mealy {
    let order = reachable_states(machine);
    let mut new_index = vec![usize::MAX; machine.num_states()];
    for (new, &old) in order.iter().enumerate() {
        new_index[old] = new;
    }
    let mut builder = Mealy::builder(
        machine.name().to_string(),
        order.len(),
        machine.num_inputs(),
        machine.num_outputs(),
    );
    builder
        .state_names(order.iter().map(|&s| machine.state_name(s).to_string()))
        .expect("names of distinct states are distinct");
    builder
        .input_names((0..machine.num_inputs()).map(|i| machine.input_name(i).to_string()))
        .expect("copied input names");
    builder
        .output_names((0..machine.num_outputs()).map(|o| machine.output_name(o).to_string()))
        .expect("copied output names");
    for (new, &old) in order.iter().enumerate() {
        for i in 0..machine.num_inputs() {
            let target = new_index[machine.next_state(old, i)];
            builder
                .transition(new, i, target, machine.output(old, i))
                .expect("reachable targets are renumbered");
        }
    }
    builder.reset_state(0).expect("reset is first in BFS order");
    builder.build().expect("restriction is fully specified")
}

/// Simple structural statistics of a machine, used by reports and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineStats {
    /// Number of states.
    pub states: usize,
    /// Number of input symbols.
    pub inputs: usize,
    /// Number of output symbols.
    pub outputs: usize,
    /// Number of reachable states.
    pub reachable: usize,
    /// Number of transitions (states × inputs for a fully specified machine).
    pub transitions: usize,
    /// Flip-flops for a minimum-length binary state encoding.
    pub state_bits: u32,
}

/// Computes [`MachineStats`] for a machine.
#[must_use]
pub fn stats(machine: &Mealy) -> MachineStats {
    MachineStats {
        states: machine.num_states(),
        inputs: machine.num_inputs(),
        outputs: machine.num_outputs(),
        reachable: reachable_states(machine).len(),
        transitions: machine.num_states() * machine.num_inputs(),
        state_bits: machine.state_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::paper_example;

    #[test]
    fn paper_example_reachability() {
        // The paper's Fig. 5 machine falls into two closed components
        // {1, 3} and {2, 4}; from the reset state "1" only {1, 3} is
        // reachable (indices 0 and 2).
        let m = paper_example();
        assert!(!is_strongly_reachable(&m));
        assert_eq!(reachable_states(&m), vec![0, 2]);
        let from_two = m.clone().with_reset_state(1).unwrap();
        assert_eq!(reachable_states(&from_two), vec![1, 3]);
    }

    #[test]
    fn unreachable_states_are_dropped() {
        let mut b = Mealy::builder("u", 4, 1, 1);
        b.transition(0, 0, 1, 0).unwrap();
        b.transition(1, 0, 0, 0).unwrap();
        // States 2 and 3 are disconnected from the reset state.
        b.transition(2, 0, 3, 0).unwrap();
        b.transition(3, 0, 2, 0).unwrap();
        let m = b.build().unwrap();
        assert!(!is_strongly_reachable(&m));
        let r = restrict_to_reachable(&m);
        assert_eq!(r.num_states(), 2);
        assert!(is_strongly_reachable(&r));
        assert_eq!(r.state_name(0), "s0");
        assert_eq!(r.next_state(0, 0), 1);
    }

    #[test]
    fn restriction_preserves_behaviour() {
        let mut b = Mealy::builder("u", 3, 2, 2);
        b.transition(0, 0, 1, 1).unwrap();
        b.transition(0, 1, 0, 0).unwrap();
        b.transition(1, 0, 0, 1).unwrap();
        b.transition(1, 1, 1, 0).unwrap();
        b.transition(2, 0, 0, 0).unwrap();
        b.transition(2, 1, 2, 1).unwrap();
        let m = b.build().unwrap();
        let r = restrict_to_reachable(&m);
        for w in 0..(1u32 << 8) {
            let word: Vec<usize> = (0..8).map(|b| ((w >> b) & 1) as usize).collect();
            assert_eq!(m.run_from_reset(&word).0, r.run_from_reset(&word).0);
        }
    }

    #[test]
    fn stats_reports_counts() {
        let m = paper_example();
        let st = stats(&m);
        assert_eq!(st.states, 4);
        assert_eq!(st.inputs, 2);
        assert_eq!(st.reachable, 2);
        assert_eq!(st.transitions, 8);
        assert_eq!(st.state_bits, 2);
    }
}
