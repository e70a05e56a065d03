//! BILBO-style multi-functional test registers.
//!
//! A BILBO (Built-In Logic Block Observation) register can operate as a plain
//! system register, as a pseudo-random pattern generator (LFSR), as a
//! multiple-input signature register, or in a transparent/scan mode.  The
//! conventional BIST architecture of Fig. 2 of the paper needs an extra such
//! register `T` with a transparent system mode; the pipeline architecture of
//! Fig. 4 only ever uses its two registers in system, pattern-generation or
//! signature-analysis mode — no transparency is required, which is one of the
//! paper's arguments for the structure.

use crate::lfsr::{width_mask, PRIMITIVE_TAPS};

/// Operating mode of a [`Bilbo`] register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BilboMode {
    /// Plain parallel-load system register.
    System,
    /// Autonomous pseudo-random pattern generation (LFSR).
    PatternGeneration,
    /// Test-response compaction (MISR).
    SignatureAnalysis,
    /// Transparent: the parallel inputs are passed through combinationally.
    /// Needed by the extra test register of the conventional BIST structure;
    /// adds a multiplexer to the system path.
    Transparent,
}

/// A multi-functional (BILBO-style) register model.
///
/// # Example
///
/// ```
/// use stc_bist::{Bilbo, BilboMode};
///
/// let mut reg = Bilbo::new(4, 0b1010);
/// reg.set_mode(BilboMode::PatternGeneration);
/// let p1 = reg.clock(&[false; 4]);
/// let p2 = reg.clock(&[false; 4]);
/// assert_ne!(p1, p2, "pattern generation advances autonomously");
///
/// reg.set_mode(BilboMode::System);
/// let loaded = reg.clock(&[true, false, false, true]);
/// assert_eq!(loaded, vec![true, false, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bilbo {
    width: u32,
    taps: Vec<u32>,
    state: u64,
    mode: BilboMode,
}

impl Bilbo {
    /// Creates a register of the given width with the given initial contents,
    /// using the built-in primitive-polynomial table for the feedback taps.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=24` (the tabulated range; wider
    /// registers take explicit taps via [`Bilbo::with_taps`]).
    #[must_use]
    pub fn new(width: u32, seed: u64) -> Self {
        assert!(
            (1..PRIMITIVE_TAPS.len() as u32).contains(&width),
            "BILBO widths are limited to 1..=24"
        );
        Self::with_taps(width, PRIMITIVE_TAPS[width as usize], seed)
    }

    /// Creates a register with an explicit feedback-tap list (1-based
    /// positions), supporting the full machine-word range of widths.  The
    /// LFSR/MISR modes only have maximal period when the taps describe a
    /// primitive polynomial.
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
            mode: BilboMode::System,
        }
    }

    /// The register width.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The current operating mode.
    #[must_use]
    pub fn mode(&self) -> BilboMode {
        self.mode
    }

    /// Switches the operating mode.
    pub fn set_mode(&mut self, mode: BilboMode) {
        self.mode = mode;
    }

    /// The current register contents as bits (most significant first).
    #[must_use]
    pub fn contents(&self) -> Vec<bool> {
        (0..self.width)
            .rev()
            .map(|b| (self.state >> b) & 1 == 1)
            .collect()
    }

    /// The current register contents as an integer.
    #[must_use]
    pub fn contents_word(&self) -> u64 {
        self.state
    }

    /// Loads explicit contents (e.g. to seed a test session).
    pub fn load(&mut self, value: u64) {
        self.state = value & width_mask(self.width);
    }

    /// Applies one clock edge with the given parallel input and returns the
    /// register's (new) outputs.
    ///
    /// * `System` — the parallel input is captured.
    /// * `PatternGeneration` — the register steps autonomously as an LFSR and
    ///   ignores the parallel input.
    /// * `SignatureAnalysis` — the register steps as a MISR absorbing the
    ///   parallel input.
    /// * `Transparent` — the register passes the parallel input through
    ///   without storing it (contents unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `parallel_input.len()` differs from the register width.
    pub fn clock(&mut self, parallel_input: &[bool]) -> Vec<bool> {
        assert_eq!(
            parallel_input.len() as u32,
            self.width,
            "parallel input width mismatch"
        );
        match self.mode {
            BilboMode::System => {
                self.state = bits_to_word(parallel_input);
                self.contents()
            }
            BilboMode::PatternGeneration => {
                self.lfsr_step(0);
                self.contents()
            }
            BilboMode::SignatureAnalysis => {
                self.lfsr_step(bits_to_word(parallel_input));
                self.contents()
            }
            BilboMode::Transparent => parallel_input.to_vec(),
        }
    }

    /// One signature-analysis clock with the parallel input given as a word
    /// (bit `width - 1 - i` carries input `i`, as in [`Self::clock`]),
    /// independent of the current mode and without building the output
    /// vector.  The step is linear over GF(2) in `(state, word)`, which the
    /// packed session simulation relies on.
    pub(crate) fn absorb_word(&mut self, word: u64) {
        self.lfsr_step(word);
    }

    fn lfsr_step(&mut self, inject: u64) {
        let feedback = self
            .taps
            .iter()
            .fold(0u64, |acc, &t| acc ^ ((self.state >> (t - 1)) & 1));
        self.state = (((self.state << 1) | feedback) ^ inject) & width_mask(self.width);
    }
}

fn bits_to_word(bits: &[bool]) -> u64 {
    bits.iter().fold(0u64, |acc, &b| (acc << 1) | u64::from(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_mode_captures_inputs() {
        let mut r = Bilbo::new(3, 0);
        r.set_mode(BilboMode::System);
        assert_eq!(r.clock(&[true, true, false]), vec![true, true, false]);
        assert_eq!(r.contents_word(), 0b110);
    }

    #[test]
    fn pattern_generation_ignores_inputs_and_cycles() {
        let mut r = Bilbo::new(4, 0b0001);
        r.set_mode(BilboMode::PatternGeneration);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..15 {
            r.clock(&[true, true, true, true]);
            seen.insert(r.contents_word());
        }
        assert_eq!(seen.len(), 15, "maximal-length sequence");
    }

    #[test]
    fn signature_analysis_depends_on_the_responses() {
        let mut a = Bilbo::new(6, 1);
        let mut b = Bilbo::new(6, 1);
        a.set_mode(BilboMode::SignatureAnalysis);
        b.set_mode(BilboMode::SignatureAnalysis);
        for i in 0..32u32 {
            let resp = [(i % 3) == 0, (i % 5) == 0, false, true, (i % 2) == 0, false];
            a.clock(&resp);
            let mut flipped = resp;
            if i == 20 {
                flipped[3] = !flipped[3];
            }
            b.clock(&flipped);
        }
        assert_ne!(a.contents_word(), b.contents_word());
    }

    #[test]
    fn transparent_mode_passes_through_without_storing() {
        let mut r = Bilbo::new(2, 0b11);
        r.set_mode(BilboMode::Transparent);
        assert_eq!(r.clock(&[false, true]), vec![false, true]);
        assert_eq!(r.contents_word(), 0b11, "contents untouched");
    }

    /// Taps of the primitive polynomial `x^64 + x^63 + x^61 + x^60 + 1`.
    const TAPS_64: &[u32] = &[64, 63, 61, 60];

    #[test]
    fn width_one_register_shifts_and_compacts_without_panicking() {
        let mut r = Bilbo::new(1, 1);
        assert_eq!(r.contents_word(), 1);
        // At width 1 the MISR step degenerates to state ^ response.
        r.set_mode(BilboMode::SignatureAnalysis);
        assert_eq!(r.clock(&[true]), vec![false]);
        assert_eq!(r.clock(&[true]), vec![true]);
        assert_eq!(r.clock(&[false]), vec![true]);
        r.set_mode(BilboMode::System);
        assert_eq!(r.clock(&[false]), vec![false]);
    }

    #[test]
    fn width_sixty_four_register_keeps_every_bit_without_overflow() {
        // The full-width seed must survive the mask: the old
        // `(1u64 << width) - 1` form overflows exactly here.
        let mut r = Bilbo::with_taps(64, TAPS_64, u64::MAX);
        assert_eq!(r.contents_word(), u64::MAX);

        // Shift semantics at the top bit: from state 1<<63 only the tap at
        // position 64 contributes, so one LFSR step lands on state 1.
        r.load(1u64 << 63);
        r.set_mode(BilboMode::PatternGeneration);
        r.clock(&[false; 64]);
        assert_eq!(r.contents_word(), 1);

        // No short cycle early in the sequence.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            r.clock(&[false; 64]);
            seen.insert(r.contents_word());
        }
        assert_eq!(seen.len(), 1000);

        // Full-width injection and full-width parallel capture.
        r.set_mode(BilboMode::SignatureAnalysis);
        r.clock(&[true; 64]);
        r.set_mode(BilboMode::System);
        assert_eq!(r.clock(&[true; 64]), vec![true; 64]);
        assert_eq!(r.contents_word(), u64::MAX);
    }

    #[test]
    fn load_and_mode_switching() {
        let mut r = Bilbo::new(5, 0);
        r.load(0b10110);
        assert_eq!(r.contents_word(), 0b10110);
        assert_eq!(r.mode(), BilboMode::System);
        r.set_mode(BilboMode::SignatureAnalysis);
        assert_eq!(r.mode(), BilboMode::SignatureAnalysis);
    }
}
