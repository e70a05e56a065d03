//! Multiple-input signature registers (MISRs) for test-response compaction.

use crate::lfsr::{width_mask, PRIMITIVE_TAPS};

/// A multiple-input signature register.
///
/// A MISR is an LFSR whose stages additionally XOR one response bit per clock;
/// after the test session the register contents (the *signature*) are compared
/// against the fault-free signature.  Aliasing (a faulty response producing
/// the good signature) has probability about `2^-width`.
///
/// # Example
///
/// ```
/// use stc_bist::Misr;
///
/// let mut good = Misr::new(8, 1);
/// let mut faulty = Misr::new(8, 1);
/// for step in 0..100u32 {
///     let response = vec![step % 3 == 0, step % 5 == 0];
///     good.absorb(&response);
///     // The faulty circuit differs in one response bit at step 17.
///     let mut bad = response.clone();
///     if step == 17 { bad[0] = !bad[0]; }
///     faulty.absorb(&bad);
/// }
/// assert_ne!(good.signature(), faulty.signature());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    width: u32,
    taps: Vec<u32>,
    state: u64,
}

impl Misr {
    /// Creates a MISR of the given width with a primitive feedback polynomial
    /// and the given initial contents (the seed may be zero for a MISR).
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=24` (the tabulated range; wider
    /// registers take explicit taps via [`Misr::with_taps`]).
    #[must_use]
    pub fn new(width: u32, seed: u64) -> Self {
        assert!(
            (1..PRIMITIVE_TAPS.len() as u32).contains(&width),
            "primitive polynomials are tabulated for widths 1..=24"
        );
        Self::with_taps(width, PRIMITIVE_TAPS[width as usize], seed)
    }

    /// Creates a MISR with an explicit feedback-tap list (1-based positions),
    /// supporting the full machine-word range of widths.  Aliasing bounds
    /// only hold when the taps describe a primitive polynomial.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=64`, the tap list is empty, or a
    /// tap lies outside `1..=width`.
    #[must_use]
    pub fn with_taps(width: u32, taps: &[u32], seed: u64) -> Self {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        assert!(!taps.is_empty(), "at least one tap is required");
        assert!(
            taps.iter().all(|&t| t >= 1 && t <= width),
            "taps must lie in 1..=width"
        );
        Self {
            width,
            taps: taps.to_vec(),
            state: seed & width_mask(width),
        }
    }

    /// The register width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current signature.
    #[must_use]
    pub fn signature(&self) -> u64 {
        self.state
    }

    /// Absorbs one clock's worth of response bits.  If the response is wider
    /// than the register, the extra bits are folded (`XORed`) onto the existing
    /// stages; if narrower, the remaining stages only shift.
    pub fn absorb(&mut self, response: &[bool]) {
        // LFSR step.
        let feedback = self
            .taps
            .iter()
            .fold(0u64, |acc, &t| acc ^ ((self.state >> (t - 1)) & 1));
        let mut next = ((self.state << 1) | feedback) & width_mask(self.width);
        // Parallel response injection.
        for (i, &bit) in response.iter().enumerate() {
            if bit {
                next ^= 1 << (i as u32 % self.width);
            }
        }
        self.state = next;
    }

    /// Absorbs a whole sequence of responses.
    pub fn absorb_all<'a, I>(&mut self, responses: I)
    where
        I: IntoIterator<Item = &'a [bool]>,
    {
        for r in responses {
            self.absorb(r);
        }
    }

    /// Resets the register to a new seed.
    pub fn reset(&mut self, seed: u64) {
        self.state = seed & width_mask(self.width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_responses_give_identical_signatures() {
        let responses: Vec<Vec<bool>> = (0..50u32)
            .map(|i| vec![i % 2 == 0, i % 3 == 0, i % 7 == 0])
            .collect();
        let mut a = Misr::new(10, 3);
        let mut b = Misr::new(10, 3);
        a.absorb_all(responses.iter().map(Vec::as_slice));
        b.absorb_all(responses.iter().map(Vec::as_slice));
        assert_eq!(a.signature(), b.signature());
    }

    #[test]
    fn single_bit_errors_change_the_signature() {
        // Single-bit errors can never alias in an LFSR-based compactor.
        let responses: Vec<Vec<bool>> = (0..64u32).map(|i| vec![i % 2 == 0, i % 5 == 0]).collect();
        let mut good = Misr::new(12, 1);
        good.absorb_all(responses.iter().map(Vec::as_slice));
        for flip_step in [0usize, 13, 31, 63] {
            let mut faulty = Misr::new(12, 1);
            for (step, r) in responses.iter().enumerate() {
                let mut r = r.clone();
                if step == flip_step {
                    r[1] = !r[1];
                }
                faulty.absorb(&r);
            }
            assert_ne!(good.signature(), faulty.signature(), "step {flip_step}");
        }
    }

    #[test]
    fn wide_responses_are_folded() {
        let mut m = Misr::new(3, 0);
        m.absorb(&[true, false, true, true]); // 4 bits into a 3-bit register
        assert!(m.signature() < 8);
    }

    #[test]
    fn reset_restores_the_seed() {
        let mut m = Misr::new(6, 0b10101);
        m.absorb(&[true, true]);
        m.reset(0b10101);
        assert_eq!(m.signature(), 0b10101);
    }

    /// Taps of the primitive polynomial `x^64 + x^63 + x^61 + x^60 + 1`.
    const TAPS_64: &[u32] = &[64, 63, 61, 60];

    #[test]
    fn width_one_misr_reduces_to_parity_accumulation() {
        // At width 1 the shift contributes state back to itself, so each
        // absorb XORs the response bit: the signature is seed ^ parity.
        let mut m = Misr::new(1, 1);
        for bit in [true, false, true, true] {
            m.absorb(&[bit]);
        }
        assert_eq!(m.signature(), 1 ^ 1); // three ones: odd parity
        m.absorb(&[true]);
        assert_eq!(m.signature(), 1);
    }

    #[test]
    fn width_sixty_four_misr_absorbs_full_width_responses_without_overflow() {
        let mut good = Misr::with_taps(64, TAPS_64, u64::MAX);
        assert_eq!(good.signature(), u64::MAX, "full-width seed survives");
        good.absorb(&[true; 64]);
        good.absorb(&[false; 64]);

        // A single flipped bit in the top response position still changes
        // the signature (the injection at i = 63 must not shift-overflow).
        let mut faulty = Misr::with_taps(64, TAPS_64, u64::MAX);
        let mut response = [true; 64];
        response[63] = false;
        faulty.absorb(&response);
        faulty.absorb(&[false; 64]);
        assert_ne!(good.signature(), faulty.signature());

        good.reset(u64::MAX);
        assert_eq!(good.signature(), u64::MAX);
    }

    #[test]
    fn different_seeds_give_different_signatures() {
        let responses: Vec<Vec<bool>> = (0..20u32).map(|i| vec![i % 4 == 0]).collect();
        let mut a = Misr::new(8, 1);
        let mut b = Misr::new(8, 2);
        a.absorb_all(responses.iter().map(Vec::as_slice));
        b.absorb_all(responses.iter().map(Vec::as_slice));
        assert_ne!(a.signature(), b.signature());
    }
}
