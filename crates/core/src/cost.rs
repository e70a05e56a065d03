//! The OSTR cost function.
//!
//! Problem OSTR (section 2 of the paper) asks for a realization
//! `M* = (S1* × S2*, I, O, δ*, λ*)` supporting a self-testable structure such
//! that
//!
//! 1. `⌈log2 |S1*|⌉ + ⌈log2 |S2*|⌉` is minimal (total register bits), and
//! 2. `| |S1*| / |S2*| − 1 |` is minimal among all solutions satisfying (1)
//!    (registers of about equal size).
//!
//! [`Cost`] captures this lexicographic objective exactly, using integer
//! cross-multiplication for the balance term so no floating point is involved.

use stc_fsm::ceil_log2;
use std::cmp::Ordering;
use std::fmt;

/// The OSTR cost of a candidate factor-size pair `(|S1|, |S2|)`.
///
/// Costs compare lexicographically: first by total register bits, then by the
/// imbalance `| |S1|/|S2| − 1 |`.
///
/// # Example
///
/// ```
/// use stc_synth::Cost;
///
/// let shiftreg = Cost::new(4, 2);   // 2 + 1 = 3 flip-flops
/// let trivial = Cost::new(8, 8);    // 3 + 3 = 6 flip-flops
/// assert!(shiftreg < trivial);
/// assert_eq!(shiftreg.register_bits(), 3);
///
/// // Equal bit totals are ranked by balance.
/// assert!(Cost::new(4, 4) < Cost::new(8, 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cost {
    s1: usize,
    s2: usize,
}

impl Cost {
    /// Builds the cost of a candidate with `s1` first-factor states and `s2`
    /// second-factor states.
    ///
    /// # Panics
    ///
    /// Panics if either factor is empty.
    #[must_use]
    pub fn new(s1: usize, s2: usize) -> Self {
        assert!(s1 > 0 && s2 > 0, "factors must be non-empty");
        Self { s1, s2 }
    }

    /// The first factor size `|S1|`.
    #[must_use]
    pub fn s1(&self) -> usize {
        self.s1
    }

    /// The second factor size `|S2|`.
    #[must_use]
    pub fn s2(&self) -> usize {
        self.s2
    }

    /// Total register bits `⌈log2 |S1|⌉ + ⌈log2 |S2|⌉` — criterion (i).
    #[must_use]
    pub fn register_bits(&self) -> u32 {
        ceil_log2(self.s1) + ceil_log2(self.s2)
    }

    /// The imbalance `| |S1|/|S2| − 1 |` as an exact rational
    /// `(numerator, denominator)` — criterion (ii).
    #[must_use]
    pub fn imbalance(&self) -> (u64, u64) {
        let (s1, s2) = (self.s1 as u64, self.s2 as u64);
        (s1.abs_diff(s2), s2)
    }

    /// The cost of the trivial "doubling" solution for a machine with
    /// `states` states (Fig. 3 of the paper): both factors equal the original
    /// state set.
    #[must_use]
    pub fn trivial(states: usize) -> Self {
        Self::new(states, states)
    }
}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> Ordering {
        self.register_bits()
            .cmp(&other.register_bits())
            .then_with(|| {
                let (an, ad) = self.imbalance();
                let (bn, bd) = other.imbalance();
                // an/ad vs bn/bd  ⇔  an·bd vs bn·ad (denominators positive).
                (an as u128 * bd as u128).cmp(&(bn as u128 * ad as u128))
            })
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|S1|={} |S2|={} ({} flip-flops)",
            self.s1,
            self.s2,
            self.register_bits()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bits_matches_the_paper_rows() {
        assert_eq!(Cost::new(7, 7).register_bits(), 6); // bbara
        assert_eq!(Cost::new(24, 24).register_bits(), 10); // dk16
        assert_eq!(Cost::new(6, 7).register_bits(), 6); // dk27
        assert_eq!(Cost::new(4, 2).register_bits(), 3); // shiftreg
        assert_eq!(Cost::new(2, 2).register_bits(), 2); // tav
        assert_eq!(Cost::trivial(10).register_bits(), 8); // bbara, doubled
    }

    #[test]
    fn fewer_bits_always_wins() {
        assert!(Cost::new(4, 2) < Cost::new(4, 4));
        assert!(Cost::new(16, 2) > Cost::new(4, 4));
    }

    #[test]
    fn ties_are_broken_by_balance() {
        // Both use 4 bits in total.
        assert!(Cost::new(4, 4) < Cost::new(8, 2));
        // Both use 6 bits; 7/7 is balanced, 8/5 is not.
        assert!(Cost::new(7, 7) < Cost::new(8, 5));
        // Identical costs are equal.
        assert_eq!(Cost::new(5, 5).cmp(&Cost::new(5, 5)), Ordering::Equal);
    }

    #[test]
    fn imbalance_is_an_exact_fraction() {
        assert_eq!(Cost::new(4, 2).imbalance(), (2, 2));
        assert_eq!(Cost::new(2, 4).imbalance(), (2, 4));
        assert_eq!(Cost::new(5, 5).imbalance(), (0, 5));
        // 2/4 < 2/2, so (2,4) is the better-balanced orientation.
        assert!(Cost::new(2, 4) < Cost::new(4, 2));
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let costs = [
            Cost::new(2, 2),
            Cost::new(4, 2),
            Cost::new(4, 4),
            Cost::new(8, 2),
            Cost::new(7, 7),
            Cost::new(8, 8),
        ];
        let mut sorted = costs;
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_factor_is_rejected() {
        let _ = Cost::new(0, 3);
    }

    #[test]
    fn display_mentions_flip_flops() {
        assert_eq!(Cost::new(4, 2).to_string(), "|S1|=4 |S2|=2 (3 flip-flops)");
    }
}
