//! State-code assignment strategies.

use stc_fsm::Mealy;
use std::collections::HashMap;

/// A binary code assignment for a set of `items` symbols.
///
/// Codes are `width`-bit values stored in a `u64`; every item has a distinct
/// code.  For state assignment the items are the machine's states; the same
/// type is reused for input and output alphabets.
///
/// # Example
///
/// ```
/// use stc_encoding::{Encoding, EncodingStrategy};
///
/// let enc = Encoding::sequential(5, EncodingStrategy::Binary);
/// assert_eq!(enc.width(), 3);
/// assert_eq!(enc.code_of(4), 0b100);
/// assert_eq!(enc.decode(0b100), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Encoding {
    width: u32,
    codes: Vec<u64>,
    decode: HashMap<u64, usize>,
}

/// The available code-assignment strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum EncodingStrategy {
    /// Item `i` gets code `i` in `⌈log2 n⌉` bits.
    #[default]
    Binary,
    /// Item `i` gets the `i`-th Gray code in `⌈log2 n⌉` bits (adjacent items
    /// differ in one bit).
    Gray,
    /// Item `i` gets a one-hot code of `n` bits.
    OneHot,
    /// Minimum-width code assignment that greedily gives adjacent (frequently
    /// co-transitioning) states codes at small Hamming distance.  Only
    /// meaningful for state encodings built with [`Encoding::for_states`];
    /// falls back to [`EncodingStrategy::Binary`] otherwise.
    AdjacencyGreedy,
}

impl Encoding {
    /// Builds an encoding for items `0..items` without looking at a machine.
    ///
    /// [`EncodingStrategy::AdjacencyGreedy`] degenerates to binary here.
    ///
    /// # Panics
    ///
    /// Panics if `items` is 0 or exceeds `2^63`.
    #[must_use]
    pub fn sequential(items: usize, strategy: EncodingStrategy) -> Self {
        assert!(items > 0, "cannot encode an empty alphabet");
        let codes: Vec<u64> = match strategy {
            EncodingStrategy::OneHot => (0..items).map(|i| 1u64 << i).collect(),
            EncodingStrategy::Gray => (0..items).map(|i| (i ^ (i >> 1)) as u64).collect(),
            EncodingStrategy::Binary | EncodingStrategy::AdjacencyGreedy => {
                (0..items).map(|i| i as u64).collect()
            }
        };
        let width = match strategy {
            EncodingStrategy::OneHot => items as u32,
            _ => crate::min_width(items),
        };
        Self::from_codes(width, codes)
    }

    /// Builds a state encoding for a machine using the given strategy.
    ///
    /// The adjacency-greedy strategy orders states by how often they appear as
    /// successors of a common predecessor (a lightweight stand-in for
    /// MUSTANG/NOVA-style heuristics) and assigns Gray codes along that order,
    /// so strongly coupled states get codes at Hamming distance 1.
    #[must_use]
    pub fn for_states(machine: &Mealy, strategy: EncodingStrategy) -> Self {
        let n = machine.num_states();
        match strategy {
            EncodingStrategy::AdjacencyGreedy => {
                let order = adjacency_order(machine);
                let width = crate::min_width(n);
                let mut codes = vec![0u64; n];
                for (rank, &state) in order.iter().enumerate() {
                    codes[state] = (rank ^ (rank >> 1)) as u64;
                }
                Self::from_codes(width, codes)
            }
            other => Self::sequential(n, other),
        }
    }

    fn from_codes(width: u32, codes: Vec<u64>) -> Self {
        let mut decode = HashMap::with_capacity(codes.len());
        for (i, &c) in codes.iter().enumerate() {
            let previous = decode.insert(c, i);
            assert!(previous.is_none(), "duplicate code {c:#b}");
        }
        Self {
            width,
            codes,
            decode,
        }
    }

    /// Number of bits per code word.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of encoded items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns `true` if no items are encoded (never the case for encodings
    /// produced by the constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The code of item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn code_of(&self, i: usize) -> u64 {
        self.codes[i]
    }

    /// The bits of item `i`'s code, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bits_of(&self, i: usize) -> Vec<bool> {
        let code = self.codes[i];
        (0..self.width)
            .rev()
            .map(|b| (code >> b) & 1 == 1)
            .collect()
    }

    /// The item with the given code, if any.
    #[must_use]
    pub fn decode(&self, code: u64) -> Option<usize> {
        self.decode.get(&code).copied()
    }

    /// Total Hamming weight of all transitions of `machine` under this state
    /// encoding: the sum over transitions of the Hamming distance between the
    /// present- and next-state codes.  A rough proxy for switching activity
    /// and logic complexity, used to compare strategies.
    ///
    /// # Panics
    ///
    /// Panics if the encoding does not cover the machine's states.
    #[must_use]
    pub fn transition_hamming_cost(&self, machine: &Mealy) -> u64 {
        assert_eq!(self.len(), machine.num_states());
        machine
            .transitions()
            .map(|(s, _, n, _)| (self.codes[s] ^ self.codes[n]).count_ones() as u64)
            .sum()
    }
}

/// Orders states so that states sharing predecessors/successors are adjacent.
fn adjacency_order(machine: &Mealy) -> Vec<usize> {
    let n = machine.num_states();
    // Affinity between states: number of (predecessor, input) pairs they share
    // plus the number of direct transitions between them.
    let mut affinity = vec![vec![0u32; n]; n];
    for s in 0..n {
        for i in 0..machine.num_inputs() {
            let a = machine.next_state(s, i);
            affinity[s][a] += 1;
            affinity[a][s] += 1;
            for j in (i + 1)..machine.num_inputs() {
                let b = machine.next_state(s, j);
                if a != b {
                    affinity[a][b] += 1;
                    affinity[b][a] += 1;
                }
            }
        }
    }
    // Greedy chain: start from the reset state, repeatedly append the
    // unvisited state with the highest affinity to the last one.
    let mut order = vec![machine.reset_state()];
    let mut visited = vec![false; n];
    visited[machine.reset_state()] = true;
    while order.len() < n {
        let last = *order.last().expect("order is non-empty");
        let next = (0..n)
            .filter(|&s| !visited[s])
            .max_by_key(|&s| affinity[last][s])
            .expect("unvisited state exists");
        visited[next] = true;
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_fsm::paper_example;

    #[test]
    fn binary_and_gray_are_minimum_width() {
        for n in [2usize, 3, 4, 5, 8, 9, 16] {
            let b = Encoding::sequential(n, EncodingStrategy::Binary);
            let g = Encoding::sequential(n, EncodingStrategy::Gray);
            assert_eq!(b.width(), crate::min_width(n));
            assert_eq!(g.width(), crate::min_width(n));
            assert_eq!(b.len(), n);
        }
    }

    #[test]
    fn gray_codes_of_consecutive_items_differ_in_one_bit() {
        let g = Encoding::sequential(8, EncodingStrategy::Gray);
        for i in 0..7 {
            let d = (g.code_of(i) ^ g.code_of(i + 1)).count_ones();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn one_hot_uses_one_bit_per_item() {
        let oh = Encoding::sequential(5, EncodingStrategy::OneHot);
        assert_eq!(oh.width(), 5);
        for i in 0..5 {
            assert_eq!(oh.code_of(i).count_ones(), 1);
        }
    }

    #[test]
    fn codes_are_distinct_and_decodable() {
        for strat in [
            EncodingStrategy::Binary,
            EncodingStrategy::Gray,
            EncodingStrategy::OneHot,
        ] {
            let e = Encoding::sequential(9, strat);
            for i in 0..9 {
                assert_eq!(e.decode(e.code_of(i)), Some(i));
            }
            assert_eq!(e.decode(u64::MAX), None);
        }
    }

    #[test]
    fn bits_of_matches_code_of() {
        let e = Encoding::sequential(6, EncodingStrategy::Binary);
        let bits = e.bits_of(5);
        assert_eq!(bits, vec![true, false, true]);
    }

    #[test]
    fn adjacency_greedy_covers_all_states_once() {
        let m = paper_example();
        let e = Encoding::for_states(&m, EncodingStrategy::AdjacencyGreedy);
        assert_eq!(e.len(), 4);
        assert_eq!(e.width(), 2);
        let mut seen: Vec<u64> = (0..4).map(|s| e.code_of(s)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn adjacency_greedy_is_no_worse_than_binary_on_the_example() {
        let m = paper_example();
        let greedy = Encoding::for_states(&m, EncodingStrategy::AdjacencyGreedy);
        let binary = Encoding::for_states(&m, EncodingStrategy::Binary);
        assert!(greedy.transition_hamming_cost(&m) <= binary.transition_hamming_cost(&m) + 2);
    }

    #[test]
    #[should_panic(expected = "empty alphabet")]
    fn empty_alphabet_is_rejected() {
        let _ = Encoding::sequential(0, EncodingStrategy::Binary);
    }
}
