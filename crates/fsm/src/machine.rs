//! The Mealy machine type and its builder.

use crate::error::FsmError;
use std::fmt;

/// A fully specified Mealy-type finite state machine `M = (S, I, O, δ, λ)`
/// (Definition 1 of the paper).
///
/// States, inputs and outputs are identified by dense indices
/// `0..num_states()`, `0..num_inputs()`, `0..num_outputs()`; symbolic names
/// are retained for display and KISS2 round-trips.  The transition function
/// `δ` and output function `λ` are total (fully specified machine).
///
/// # Example
///
/// ```
/// use stc_fsm::Mealy;
///
/// // A 2-state toggle: input 1 flips the state, the output reports the
/// // state before the transition.
/// let mut builder = Mealy::builder("toggle", 2, 2, 2);
/// builder.transition(0, 0, 0, 0)?;
/// builder.transition(0, 1, 1, 0)?;
/// builder.transition(1, 0, 1, 1)?;
/// builder.transition(1, 1, 0, 1)?;
/// let fsm = builder.build()?;
/// assert_eq!(fsm.next_state(0, 1), 1);
/// assert_eq!(fsm.output(1, 0), 1);
/// # Ok::<(), stc_fsm::FsmError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mealy {
    name: String,
    num_states: usize,
    num_inputs: usize,
    num_outputs: usize,
    /// `next[s * num_inputs + i]` is `δ(s, i)`.
    next: Vec<usize>,
    /// `out[s * num_inputs + i]` is `λ(s, i)`.
    out: Vec<usize>,
    reset_state: usize,
    state_names: Vec<String>,
    input_names: Vec<String>,
    output_names: Vec<String>,
}

impl Mealy {
    /// Starts building a machine with the given numbers of states, input
    /// symbols and output symbols.  Default names (`s0`, `i0`, `o0`, …) are
    /// assigned and can be overridden on the builder.
    #[must_use]
    pub fn builder(
        name: impl Into<String>,
        num_states: usize,
        num_inputs: usize,
        num_outputs: usize,
    ) -> MealyBuilder {
        MealyBuilder::new(name, num_states, num_inputs, num_outputs)
    }

    /// The machine's name (benchmark name or user-supplied identifier).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of states `|S|`.
    #[must_use]
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of input symbols `|I|`.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of output symbols `|O|`.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The reset (initial) state.
    #[must_use]
    pub fn reset_state(&self) -> usize {
        self.reset_state
    }

    /// The next state `δ(s, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `i` is out of range.
    #[must_use]
    pub fn next_state(&self, s: usize, i: usize) -> usize {
        self.next[s * self.num_inputs + i]
    }

    /// The output `λ(s, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `i` is out of range.
    #[must_use]
    pub fn output(&self, s: usize, i: usize) -> usize {
        self.out[s * self.num_inputs + i]
    }

    /// The symbolic name of state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn state_name(&self, s: usize) -> &str {
        &self.state_names[s]
    }

    /// The symbolic name of input symbol `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// The symbolic name of output symbol `o`.
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    #[must_use]
    pub fn output_name(&self, o: usize) -> &str {
        &self.output_names[o]
    }

    /// Looks up a state index by name.
    #[must_use]
    pub fn state_index(&self, name: &str) -> Option<usize> {
        self.state_names.iter().position(|n| n == name)
    }

    /// Runs the machine on an input word starting from `start`, returning the
    /// produced output word and the final state.
    ///
    /// # Panics
    ///
    /// Panics if `start` or any input symbol is out of range.
    #[must_use]
    pub fn run(&self, start: usize, word: &[usize]) -> (Vec<usize>, usize) {
        let mut state = start;
        let mut outputs = Vec::with_capacity(word.len());
        for &i in word {
            outputs.push(self.output(state, i));
            state = self.next_state(state, i);
        }
        (outputs, state)
    }

    /// Runs the machine from the reset state; see [`Mealy::run`].
    #[must_use]
    pub fn run_from_reset(&self, word: &[usize]) -> (Vec<usize>, usize) {
        self.run(self.reset_state, word)
    }

    /// Iterates over all transitions as `(state, input, next_state, output)`.
    pub fn transitions(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        (0..self.num_states).flat_map(move |s| {
            (0..self.num_inputs).map(move |i| (s, i, self.next_state(s, i), self.output(s, i)))
        })
    }

    /// Number of flip-flops required to hold the state in a minimum-length
    /// binary encoding: `⌈log2 |S|⌉`.
    #[must_use]
    pub fn state_bits(&self) -> u32 {
        ceil_log2(self.num_states)
    }

    /// Number of input bits needed to binary-encode the input alphabet.
    #[must_use]
    pub fn input_bits(&self) -> u32 {
        ceil_log2(self.num_inputs)
    }

    /// Number of output bits needed to binary-encode the output alphabet.
    #[must_use]
    pub fn output_bits(&self) -> u32 {
        ceil_log2(self.num_outputs)
    }

    /// A stable 64-bit content hash of the machine.
    ///
    /// Covers everything that defines the machine — name, alphabet sizes,
    /// reset state, the full `δ`/`λ` tables and the symbolic state, input and
    /// output names — via FNV-1a, a fixed published algorithm.  Unlike
    /// [`std::hash::Hash`] with the standard library's default hasher, the
    /// value does not depend on the platform, the process (no random seed) or
    /// the compiler version, so it is safe to use as a persistent cache key
    /// or to compare across machines and releases.  Two machines hash equal
    /// iff they are equal (modulo the astronomically unlikely 64-bit
    /// collision); content-addressed consumers that cannot afford even that
    /// should verify a cheap field such as the name on lookup.
    ///
    /// # Example
    ///
    /// ```
    /// use stc_fsm::paper_example;
    ///
    /// let m = paper_example();
    /// assert_eq!(m.stable_hash(), m.clone().stable_hash());
    /// assert_ne!(m.stable_hash(), m.with_name("renamed").stable_hash());
    /// ```
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a, 64-bit.  Each field is prefixed with its length (for
        // strings/tables) so concatenation ambiguities cannot collide
        // ("ab"+"c" vs "a"+"bc").
        fn eat(h: &mut u64, bytes: &[u8]) {
            *h = fnv1a_extend(*h, bytes);
        }
        fn eat_u64(h: &mut u64, v: u64) {
            eat(h, &v.to_le_bytes());
        }
        fn eat_str(h: &mut u64, s: &str) {
            eat_u64(h, s.len() as u64);
            eat(h, s.as_bytes());
        }
        let mut h = FNV_OFFSET;
        eat_str(&mut h, &self.name);
        eat_u64(&mut h, self.num_states as u64);
        eat_u64(&mut h, self.num_inputs as u64);
        eat_u64(&mut h, self.num_outputs as u64);
        eat_u64(&mut h, self.reset_state as u64);
        for &n in &self.next {
            eat_u64(&mut h, n as u64);
        }
        for &o in &self.out {
            eat_u64(&mut h, o as u64);
        }
        for name in self
            .state_names
            .iter()
            .chain(&self.input_names)
            .chain(&self.output_names)
        {
            eat_str(&mut h, name);
        }
        h
    }

    /// Returns a copy of the machine with a different name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns a copy of the machine with a different reset state.
    ///
    /// # Errors
    ///
    /// Returns an error if `reset` is not a valid state index.
    pub fn with_reset_state(mut self, reset: usize) -> Result<Self, FsmError> {
        if reset >= self.num_states {
            return Err(FsmError::IndexOutOfRange {
                what: "state",
                index: reset,
                bound: self.num_states,
            });
        }
        self.reset_state = reset;
        Ok(self)
    }
}

impl stc_partition::Transitions for Mealy {
    fn num_states(&self) -> usize {
        self.num_states
    }
    fn num_inputs(&self) -> usize {
        self.num_inputs
    }
    fn next_state(&self, state: usize, input: usize) -> usize {
        Mealy::next_state(self, state, input)
    }
}

impl fmt::Display for Mealy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mealy {} ({} states, {} inputs, {} outputs, reset {})",
            self.name,
            self.num_states,
            self.num_inputs,
            self.num_outputs,
            self.state_names[self.reset_state]
        )?;
        for (s, i, n, o) in self.transitions() {
            writeln!(
                f,
                "  {} --{}/{}--> {}",
                self.state_names[s], self.input_names[i], self.output_names[o], self.state_names[n]
            )?;
        }
        Ok(())
    }
}

/// Builder for [`Mealy`] machines.
///
/// Transitions are added one at a time; [`MealyBuilder::build`] checks that
/// the machine is fully specified and free of conflicts.
#[derive(Debug, Clone)]
pub struct MealyBuilder {
    name: String,
    num_states: usize,
    num_inputs: usize,
    num_outputs: usize,
    next: Vec<Option<usize>>,
    out: Vec<Option<usize>>,
    reset_state: usize,
    state_names: Vec<String>,
    input_names: Vec<String>,
    output_names: Vec<String>,
}

impl MealyBuilder {
    /// Creates a builder; see [`Mealy::builder`].
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        num_states: usize,
        num_inputs: usize,
        num_outputs: usize,
    ) -> Self {
        Self {
            name: name.into(),
            num_states,
            num_inputs,
            num_outputs,
            next: vec![None; num_states * num_inputs],
            out: vec![None; num_states * num_inputs],
            reset_state: 0,
            state_names: (0..num_states).map(|s| format!("s{s}")).collect(),
            input_names: (0..num_inputs).map(|i| format!("i{i}")).collect(),
            output_names: (0..num_outputs).map(|o| format!("o{o}")).collect(),
        }
    }

    /// Adds the transition `δ(state, input) = next`, `λ(state, input) = output`.
    ///
    /// # Errors
    ///
    /// Returns an error if any index is out of range or if the (state, input)
    /// pair was already specified with a different target.
    pub fn transition(
        &mut self,
        state: usize,
        input: usize,
        next: usize,
        output: usize,
    ) -> Result<&mut Self, FsmError> {
        Self::check_index("state", state, self.num_states)?;
        Self::check_index("input", input, self.num_inputs)?;
        Self::check_index("state", next, self.num_states)?;
        Self::check_index("output", output, self.num_outputs)?;
        let idx = state * self.num_inputs + input;
        match (self.next[idx], self.out[idx]) {
            (None, None) => {
                self.next[idx] = Some(next);
                self.out[idx] = Some(output);
                Ok(self)
            }
            (Some(n), Some(o)) if n == next && o == output => Ok(self),
            _ => Err(FsmError::ConflictingTransition { state, input }),
        }
    }

    /// Sets the reset state.
    ///
    /// # Errors
    ///
    /// Returns an error if `state` is out of range.
    pub fn reset_state(&mut self, state: usize) -> Result<&mut Self, FsmError> {
        Self::check_index("state", state, self.num_states)?;
        self.reset_state = state;
        Ok(self)
    }

    /// Overrides the default state names.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of names differs from the number of
    /// states or the names are not distinct.
    pub fn state_names<S: Into<String>>(
        &mut self,
        names: impl IntoIterator<Item = S>,
    ) -> Result<&mut Self, FsmError> {
        self.state_names = Self::collect_names(names, self.num_states, "state")?;
        Ok(self)
    }

    /// Overrides the default input names.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of names differs from the number of
    /// inputs or the names are not distinct.
    pub fn input_names<S: Into<String>>(
        &mut self,
        names: impl IntoIterator<Item = S>,
    ) -> Result<&mut Self, FsmError> {
        self.input_names = Self::collect_names(names, self.num_inputs, "input")?;
        Ok(self)
    }

    /// Overrides the default output names.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of names differs from the number of
    /// outputs or the names are not distinct.
    pub fn output_names<S: Into<String>>(
        &mut self,
        names: impl IntoIterator<Item = S>,
    ) -> Result<&mut Self, FsmError> {
        self.output_names = Self::collect_names(names, self.num_outputs, "output")?;
        Ok(self)
    }

    /// Finalizes the machine.
    ///
    /// # Errors
    ///
    /// Returns an error if the machine is empty or not fully specified.
    pub fn build(&self) -> Result<Mealy, FsmError> {
        if self.num_states == 0 {
            return Err(FsmError::EmptyMachine { what: "states" });
        }
        if self.num_inputs == 0 {
            return Err(FsmError::EmptyMachine { what: "inputs" });
        }
        if self.num_outputs == 0 {
            return Err(FsmError::EmptyMachine { what: "outputs" });
        }
        let mut next = Vec::with_capacity(self.next.len());
        let mut out = Vec::with_capacity(self.out.len());
        for s in 0..self.num_states {
            for i in 0..self.num_inputs {
                let idx = s * self.num_inputs + i;
                match (self.next[idx], self.out[idx]) {
                    (Some(n), Some(o)) => {
                        next.push(n);
                        out.push(o);
                    }
                    _ => return Err(FsmError::Incomplete { state: s, input: i }),
                }
            }
        }
        Ok(Mealy {
            name: self.name.clone(),
            num_states: self.num_states,
            num_inputs: self.num_inputs,
            num_outputs: self.num_outputs,
            next,
            out,
            reset_state: self.reset_state,
            state_names: self.state_names.clone(),
            input_names: self.input_names.clone(),
            output_names: self.output_names.clone(),
        })
    }

    /// Fills every unspecified (state, input) pair with a self-loop and the
    /// given default output, making the machine fully specified.
    pub fn complete_with_self_loops(&mut self, default_output: usize) -> &mut Self {
        for s in 0..self.num_states {
            for i in 0..self.num_inputs {
                let idx = s * self.num_inputs + i;
                if self.next[idx].is_none() {
                    self.next[idx] = Some(s);
                    self.out[idx] = Some(default_output);
                }
            }
        }
        self
    }

    fn check_index(what: &'static str, index: usize, bound: usize) -> Result<(), FsmError> {
        if index >= bound {
            Err(FsmError::IndexOutOfRange { what, index, bound })
        } else {
            Ok(())
        }
    }

    fn collect_names<S: Into<String>>(
        names: impl IntoIterator<Item = S>,
        expected: usize,
        what: &'static str,
    ) -> Result<Vec<String>, FsmError> {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        if names.len() != expected {
            return Err(FsmError::IndexOutOfRange {
                what,
                index: names.len(),
                bound: expected,
            });
        }
        let mut seen = std::collections::HashSet::new();
        for n in &names {
            if !seen.insert(n.clone()) {
                return Err(FsmError::DuplicateName { name: n.clone() });
            }
        }
        Ok(names)
    }
}

/// `⌈log2(x)⌉` with `ceil_log2(0) = ceil_log2(1) = 0`.
#[must_use]
pub fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a hash of a byte string — the workspace's cheap content
/// digest: emitted sources in reports and goldens, serve-cache config
/// fingerprints, and (length-prefixed, field by field)
/// [`Mealy::stable_hash`].
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Folds `bytes` into the running FNV-1a state `hash`.
fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// The 4-state example machine of Fig. 5 of the paper.
///
/// States `1..4` of the paper are indices `0..3`; the two input columns `1`
/// and `0` of the paper are input symbols `0` and `1`; outputs are the bits
/// `0`/`1` printed in the table.  The entry `δ(2, 1)` (paper numbering) is
/// reconstructed from Fig. 7, which forces it into the block `{2, 3}`.
///
/// # Example
///
/// ```
/// use stc_fsm::paper_example;
///
/// let m = paper_example();
/// assert_eq!(m.num_states(), 4);
/// assert_eq!(m.next_state(0, 0), 2); // δ(1, "1") = 3 in paper numbering
/// assert_eq!(m.output(0, 0), 1);     // λ(1, "1") = 1
/// ```
#[must_use]
pub fn paper_example() -> Mealy {
    let next = [[2usize, 0], [1, 3], [0, 2], [3, 1]];
    let out = [[1usize, 1], [0, 0], [1, 0], [0, 1]];
    let mut b = Mealy::builder("paper_fig5", 4, 2, 2);
    b.state_names(["1", "2", "3", "4"]).expect("4 names");
    b.input_names(["1", "0"]).expect("2 names");
    b.output_names(["0", "1"]).expect("2 names");
    for s in 0..4 {
        for i in 0..2 {
            b.transition(s, i, next[s][i], out[s][i]).expect("valid");
        }
    }
    b.build().expect("fully specified")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let mut b = Mealy::builder("t", 2, 2, 2);
        b.transition(0, 0, 1, 0).unwrap();
        b.transition(0, 1, 0, 1).unwrap();
        b.transition(1, 0, 0, 1).unwrap();
        b.transition(1, 1, 1, 0).unwrap();
        b.reset_state(1).unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.name(), "t");
        assert_eq!(m.reset_state(), 1);
        assert_eq!(m.next_state(0, 0), 1);
        assert_eq!(m.output(0, 1), 1);
        assert_eq!(m.transitions().count(), 4);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn stable_hash_is_content_addressed_and_pinned() {
        let m = paper_example();
        // Equal content hashes equal, independent of allocation identity.
        assert_eq!(m.stable_hash(), m.clone().stable_hash());
        // Any field change moves the hash: name, reset state, one output.
        assert_ne!(m.stable_hash(), m.clone().with_name("x").stable_hash());
        assert_ne!(
            m.stable_hash(),
            m.clone().with_reset_state(1).unwrap().stable_hash()
        );
        let mut b = Mealy::builder("paper_example", 4, 2, 2);
        for (s, i, n, o) in m.transitions() {
            b.transition(s, i, n, if (s, i) == (3, 1) { 1 - o } else { o })
                .unwrap();
        }
        b.state_names(["1", "2", "3", "4"]).unwrap();
        b.input_names(["1", "0"]).unwrap();
        b.output_names(["0", "1"]).unwrap();
        assert_ne!(m.stable_hash(), b.build().unwrap().stable_hash());
        // Pinned value: this hash is a persistent cache key, so it must not
        // drift across releases, platforms or compiler versions.  If this
        // assertion fails the hash function changed — bump persisted caches.
        assert_eq!(m.stable_hash(), 0xc544_b37e_565c_d89b);
    }

    #[test]
    fn incomplete_machine_is_rejected() {
        let mut b = Mealy::builder("t", 2, 2, 2);
        b.transition(0, 0, 1, 0).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            FsmError::Incomplete { state: 0, input: 1 }
        );
    }

    #[test]
    fn conflicting_transition_is_rejected() {
        let mut b = Mealy::builder("t", 2, 1, 2);
        b.transition(0, 0, 1, 0).unwrap();
        // Re-adding the identical transition is fine.
        b.transition(0, 0, 1, 0).unwrap();
        assert_eq!(
            b.transition(0, 0, 0, 0).unwrap_err(),
            FsmError::ConflictingTransition { state: 0, input: 0 }
        );
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let mut b = Mealy::builder("t", 2, 2, 2);
        assert!(b.transition(2, 0, 0, 0).is_err());
        assert!(b.transition(0, 2, 0, 0).is_err());
        assert!(b.transition(0, 0, 2, 0).is_err());
        assert!(b.transition(0, 0, 0, 2).is_err());
        assert!(b.reset_state(5).is_err());
    }

    #[test]
    fn empty_machines_are_rejected() {
        assert!(Mealy::builder("t", 0, 1, 1).build().is_err());
        assert!(Mealy::builder("t", 1, 0, 1).build().is_err());
        assert!(Mealy::builder("t", 1, 1, 0).build().is_err());
    }

    #[test]
    fn complete_with_self_loops_fills_gaps() {
        let mut b = Mealy::builder("t", 3, 2, 2);
        b.transition(0, 0, 1, 1).unwrap();
        b.complete_with_self_loops(0);
        let m = b.build().unwrap();
        assert_eq!(m.next_state(0, 1), 0);
        assert_eq!(m.next_state(2, 1), 2);
        assert_eq!(m.output(2, 0), 0);
        assert_eq!(m.next_state(0, 0), 1, "explicit transition preserved");
    }

    #[test]
    fn run_produces_mealy_outputs() {
        let m = paper_example();
        let (outs, end) = m.run_from_reset(&[0, 1, 0]);
        // From state 1: input "1" → out 1, go to 3; input "0" → out 0, go to 3;
        // input "1" → out 1, go to 1.
        assert_eq!(outs, vec![1, 0, 1]);
        assert_eq!(end, 0);
    }

    #[test]
    fn names_and_lookup() {
        let m = paper_example();
        assert_eq!(m.state_name(0), "1");
        assert_eq!(m.state_index("4"), Some(3));
        assert_eq!(m.state_index("nope"), None);
        assert_eq!(m.input_name(1), "0");
        assert_eq!(m.output_name(1), "1");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = Mealy::builder("t", 2, 1, 1);
        assert_eq!(
            b.state_names(["a", "a"]).unwrap_err(),
            FsmError::DuplicateName { name: "a".into() }
        );
        assert!(b.state_names(["a"]).is_err(), "wrong count");
    }

    #[test]
    fn bit_counts() {
        let m = paper_example();
        assert_eq!(m.state_bits(), 2);
        assert_eq!(m.input_bits(), 1);
        assert_eq!(m.output_bits(), 1);
        // The code width of `x` symbols, across the power-of-two boundaries.
        let widths = [0, 1, 2, 3, 4, 5, 16, 17, 27].map(ceil_log2);
        assert_eq!(widths, [0, 0, 1, 2, 2, 3, 4, 5, 5]);
    }

    #[test]
    fn transitions_trait_matches_method() {
        let m = paper_example();
        for s in 0..4 {
            for i in 0..2 {
                assert_eq!(
                    stc_partition::Transitions::next_state(&m, s, i),
                    m.next_state(s, i)
                );
            }
        }
    }

    #[test]
    fn with_name_and_reset() {
        let m = paper_example().with_name("renamed");
        assert_eq!(m.name(), "renamed");
        let m2 = m.clone().with_reset_state(3).unwrap();
        assert_eq!(m2.reset_state(), 3);
        assert!(m.with_reset_state(9).is_err());
    }

    #[test]
    fn display_contains_transitions() {
        let text = paper_example().to_string();
        assert!(text.contains("paper_fig5"));
        assert!(text.contains("-->"));
    }
}
