//! Linear feedback shift registers (LFSRs) for pseudo-random test-pattern
//! generation.

/// Primitive polynomial feedback taps for LFSR widths 1..=24.
///
/// Entry `PRIMITIVE_TAPS[w]` lists the tap positions (1-based, as in the usual
/// `x^w + x^t + … + 1` notation) of a primitive polynomial of degree `w`, so
/// the corresponding LFSR runs through all `2^w − 1` non-zero states.
pub const PRIMITIVE_TAPS: [&[u32]; 25] = [
    &[],           // width 0 (unused)
    &[1],          // x + 1
    &[2, 1],       // x^2 + x + 1
    &[3, 2],       // x^3 + x^2 + 1
    &[4, 3],       // x^4 + x^3 + 1
    &[5, 3],       // x^5 + x^3 + 1
    &[6, 5],       // x^6 + x^5 + 1
    &[7, 6],       // x^7 + x^6 + 1
    &[8, 6, 5, 4], // x^8 + x^6 + x^5 + x^4 + 1
    &[9, 5],       // x^9 + x^5 + 1
    &[10, 7],      // x^10 + x^7 + 1
    &[11, 9],      // x^11 + x^9 + 1
    &[12, 11, 10, 4],
    &[13, 12, 11, 8],
    &[14, 13, 12, 2],
    &[15, 14],
    &[16, 15, 13, 4],
    &[17, 14],
    &[18, 11],
    &[19, 18, 17, 14],
    &[20, 17],
    &[21, 19],
    &[22, 21],
    &[23, 18],
    &[24, 23, 22, 17],
];

/// The mask selecting the low `width` bits of a word, overflow-safe across
/// the full `1..=64` range (`(1u64 << 64) - 1` would overflow the shift,
/// which is exactly the trap a 64-bit test register walks into).
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 64.
#[must_use]
pub fn width_mask(width: u32) -> u64 {
    assert!((1..=64).contains(&width), "width must be in 1..=64");
    u64::MAX >> (64 - width)
}

/// A Fibonacci (external-XOR) linear feedback shift register.
///
/// The register's parallel output is used as a pseudo-random test pattern;
/// with a primitive feedback polynomial the sequence visits every non-zero
/// state exactly once per period of `2^width − 1` steps.
///
/// # Example
///
/// ```
/// use stc_bist::Lfsr;
///
/// let mut lfsr = Lfsr::with_primitive_polynomial(4, 0b1001);
/// let first = lfsr.state();
/// let patterns: Vec<u64> = (0..15).map(|_| lfsr.step()).collect();
/// assert_eq!(lfsr.state(), first, "period of a primitive degree-4 LFSR is 15");
/// assert_eq!(patterns.iter().collect::<std::collections::HashSet<_>>().len(), 15);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr {
    width: u32,
    taps: Vec<u32>,
    state: u64,
    de_bruijn: bool,
}

impl Lfsr {
    /// Creates an LFSR with an explicit tap list (1-based positions).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 63, if a tap is out of range,
    /// or if the seed is zero (an all-zero LFSR state never changes).
    #[must_use]
    pub fn new(width: u32, taps: &[u32], seed: u64) -> Self {
        assert!(width > 0 && width <= 63, "width must be in 1..=63");
        assert!(
            taps.iter().all(|&t| t >= 1 && t <= width),
            "taps must lie in 1..=width"
        );
        assert!(!taps.is_empty(), "at least one tap is required");
        let seed = seed & ((1u64 << width) - 1);
        assert!(seed != 0, "the all-zero seed locks up an LFSR");
        Self {
            width,
            taps: taps.to_vec(),
            state: seed,
            de_bruijn: false,
        }
    }

    /// Creates an LFSR of the given width using the built-in primitive
    /// polynomial table, so the period is maximal (`2^width − 1`).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=24` or the seed is zero.
    #[must_use]
    pub fn with_primitive_polynomial(width: u32, seed: u64) -> Self {
        assert!(
            (1..PRIMITIVE_TAPS.len() as u32).contains(&width),
            "primitive polynomials are tabulated for widths 1..=24"
        );
        Self::new(width, PRIMITIVE_TAPS[width as usize], seed)
    }

    /// Creates a *modified* (de Bruijn) LFSR: a maximal-length LFSR with the
    /// standard extra NOR-gate term that splices the all-zero state into the
    /// cycle, so the register visits **all** `2^width` states per period.
    ///
    /// This is the form used as an exhaustive pattern source: a plain
    /// maximal-length LFSR skips the all-zero pattern (and degenerates to a
    /// constant for width 1), which leaves input combinations — and hence
    /// faults — untested on small blocks.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=24` or the seed is zero.
    #[must_use]
    pub fn de_bruijn(width: u32, seed: u64) -> Self {
        let mut lfsr = Self::with_primitive_polynomial(width, seed);
        lfsr.de_bruijn = true;
        lfsr
    }

    /// Creates a modified (de Bruijn) LFSR with an explicit tap list — the
    /// generalisation of [`Lfsr::de_bruijn`] the plan optimizer searches
    /// over.  The full `2^width` period is only guaranteed when `taps`
    /// describes a primitive polynomial (the tabulated
    /// [`PRIMITIVE_TAPS`] entry or its reciprocal, see
    /// [`reciprocal_taps`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Lfsr::new`].
    #[must_use]
    pub fn de_bruijn_with_taps(width: u32, taps: &[u32], seed: u64) -> Self {
        let mut lfsr = Self::new(width, taps, seed);
        lfsr.de_bruijn = true;
        lfsr
    }

    /// The register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current register contents.
    #[must_use]
    pub fn state(&self) -> u64 {
        self.state
    }

    /// The current register contents as a bit vector (most significant bit
    /// first), the form consumed by netlist evaluation.
    #[must_use]
    pub fn state_bits(&self) -> Vec<bool> {
        (0..self.width)
            .rev()
            .map(|b| (self.state >> b) & 1 == 1)
            .collect()
    }

    /// Advances the register by one clock and returns the *new* state.
    pub fn step(&mut self) -> u64 {
        let mut feedback = self
            .taps
            .iter()
            .fold(0u64, |acc, &t| acc ^ ((self.state >> (t - 1)) & 1));
        if self.de_bruijn && self.state & ((1u64 << (self.width - 1)) - 1) == 0 {
            // NOR of the low width−1 bits: inverts the feedback next to the
            // states `10…0` and `00…0`, splicing zero into the cycle.
            feedback ^= 1;
        }
        self.state = ((self.state << 1) | feedback) & ((1u64 << self.width) - 1);
        self.state
    }

    /// Generates `count` consecutive patterns (the states after each step).
    pub fn patterns(&mut self, count: usize) -> Vec<u64> {
        (0..count).map(|_| self.step()).collect()
    }

    /// Measures the period of the LFSR from its current state (number of steps
    /// until the state repeats).  Intended for widths small enough to iterate.
    #[must_use]
    pub fn period(&self) -> u64 {
        let mut copy = self.clone();
        let start = copy.state();
        let mut steps = 0u64;
        loop {
            copy.step();
            steps += 1;
            if copy.state() == start {
                return steps;
            }
            assert!(
                steps < (1u64 << self.width.min(32)) + 1,
                "period exceeds the state space — inconsistent LFSR"
            );
        }
    }
}

/// The tap list of the *reciprocal* polynomial of the one given: tap `t`
/// maps to `width − t` (with the degree term `width` kept in place).
///
/// The reciprocal of a primitive polynomial is itself primitive — its LFSR
/// steps through the same maximal cycle in time-reversed order — so this
/// doubles the polynomial choices available to the plan optimizer without
/// extending the tabulated [`PRIMITIVE_TAPS`].  Self-reciprocal entries
/// (width 1, width 2) map to themselves.
///
/// # Panics
///
/// Panics if a tap lies outside `1..=width`.
#[must_use]
pub fn reciprocal_taps(taps: &[u32], width: u32) -> Vec<u32> {
    assert!(
        taps.iter().all(|&t| t >= 1 && t <= width),
        "taps must lie in 1..=width"
    );
    let mut reciprocal: Vec<u32> = taps
        .iter()
        .map(|&t| if t == width { width } else { width - t })
        .collect();
    reciprocal.sort_unstable_by(|a, b| b.cmp(a));
    reciprocal.dedup();
    reciprocal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_polynomials_have_maximal_period() {
        for width in 1..=12u32 {
            let lfsr = Lfsr::with_primitive_polynomial(width, 1);
            assert_eq!(
                lfsr.period(),
                (1u64 << width) - 1,
                "width {width} is not primitive"
            );
        }
    }

    #[test]
    fn all_nonzero_states_are_visited() {
        let mut lfsr = Lfsr::with_primitive_polynomial(6, 0b101);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..63 {
            seen.insert(lfsr.step());
        }
        assert_eq!(seen.len(), 63);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn de_bruijn_visits_every_state_including_zero() {
        for width in 1..=10u32 {
            let mut lfsr = Lfsr::de_bruijn(width, 1);
            let mut seen = std::collections::HashSet::new();
            for _ in 0..(1u64 << width) {
                seen.insert(lfsr.step());
            }
            assert_eq!(
                seen.len() as u64,
                1u64 << width,
                "width {width} misses states"
            );
            assert!(seen.contains(&0), "width {width} skips the zero state");
        }
    }

    #[test]
    fn de_bruijn_width_one_toggles() {
        let mut lfsr = Lfsr::de_bruijn(1, 1);
        assert_eq!(lfsr.step(), 0);
        assert_eq!(lfsr.step(), 1);
        assert_eq!(lfsr.step(), 0);
    }

    #[test]
    fn state_bits_match_state() {
        let lfsr = Lfsr::with_primitive_polynomial(5, 0b10110);
        let bits = lfsr.state_bits();
        assert_eq!(bits.len(), 5);
        let reconstructed = bits.iter().fold(0u64, |acc, &b| (acc << 1) | u64::from(b));
        assert_eq!(reconstructed, lfsr.state());
    }

    #[test]
    fn patterns_returns_consecutive_states() {
        let mut a = Lfsr::with_primitive_polynomial(8, 42);
        let mut b = a.clone();
        let pats = a.patterns(10);
        for p in pats {
            assert_eq!(p, b.step());
        }
    }

    #[test]
    fn reciprocal_taps_mirror_and_self_reciprocal_entries_are_fixed_points() {
        assert_eq!(reciprocal_taps(&[4, 3], 4), vec![4, 1]);
        assert_eq!(reciprocal_taps(&[8, 6, 5, 4], 8), vec![8, 4, 3, 2]);
        // Width 1 and 2 are self-reciprocal.
        assert_eq!(reciprocal_taps(PRIMITIVE_TAPS[1], 1), PRIMITIVE_TAPS[1]);
        assert_eq!(reciprocal_taps(PRIMITIVE_TAPS[2], 2), PRIMITIVE_TAPS[2]);
        // An involution: applying it twice restores the tabulated taps.
        for width in 1..=24u32 {
            let taps = PRIMITIVE_TAPS[width as usize];
            let twice = reciprocal_taps(&reciprocal_taps(taps, width), width);
            assert_eq!(twice, taps, "width {width}");
        }
    }

    #[test]
    fn reciprocal_polynomials_are_maximal_too() {
        for width in 1..=14u32 {
            let taps = reciprocal_taps(PRIMITIVE_TAPS[width as usize], width);
            let lfsr = Lfsr::new(width, &taps, 1);
            assert_eq!(
                lfsr.period(),
                (1u64 << width) - 1,
                "reciprocal of width {width} is not maximal"
            );
        }
    }

    #[test]
    fn de_bruijn_with_reciprocal_taps_visits_every_state() {
        for width in 1..=10u32 {
            let taps = reciprocal_taps(PRIMITIVE_TAPS[width as usize], width);
            for seed in [1u64, (1u64 << width) - 1] {
                let mut lfsr = Lfsr::de_bruijn_with_taps(width, &taps, seed);
                let mut seen = std::collections::HashSet::new();
                for _ in 0..(1u64 << width) {
                    seen.insert(lfsr.step());
                }
                assert_eq!(seen.len() as u64, 1u64 << width, "width {width}");
            }
        }
    }

    #[test]
    fn width_mask_covers_the_full_word_range() {
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(24), (1u64 << 24) - 1);
        assert_eq!(width_mask(63), u64::MAX >> 1);
        assert_eq!(width_mask(64), u64::MAX);
        for width in 1..=63u32 {
            assert_eq!(width_mask(width), (1u64 << width) - 1, "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn width_mask_rejects_zero() {
        let _ = width_mask(0);
    }

    #[test]
    #[should_panic(expected = "all-zero seed")]
    fn zero_seed_is_rejected() {
        let _ = Lfsr::with_primitive_polynomial(4, 0);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_is_rejected() {
        let _ = Lfsr::new(0, &[1], 1);
    }
}
