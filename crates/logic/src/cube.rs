//! Cubes: products of literals over a fixed set of Boolean variables, in
//! positional-cube form (two bit masks per cube).

use std::fmt;

/// The value a cube assigns to one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Literal {
    /// The variable must be 0 (negative literal).
    Zero,
    /// The variable must be 1 (positive literal).
    One,
    /// The variable is unconstrained (don't care).
    DontCare,
}

impl Literal {
    /// Returns `true` if the literal is compatible with the Boolean value `v`.
    #[must_use]
    pub fn matches(self, v: bool) -> bool {
        match self {
            Literal::Zero => !v,
            Literal::One => v,
            Literal::DontCare => true,
        }
    }
}

/// The widest cube a [`Cube`] can hold: one bit per variable in a `u64`.
pub const MAX_VARS: usize = 64;

/// A cube (product term) over `n ≤ 64` Boolean variables.
///
/// Stored as a positional cube: bit `v` of `care` is set when variable `v`
/// has a literal, and bit `v` of `value` is then the literal's polarity
/// (`value` is zero wherever `care` is).  Containment, intersection and
/// distance are a few mask operations, and the cube is `Copy`.
///
/// # Example
///
/// ```
/// use stc_logic::Cube;
///
/// let cube = Cube::parse("1-0")?;
/// assert!(cube.contains_minterm(&[true, true, false]));
/// assert!(cube.contains_minterm(&[true, false, false]));
/// assert!(!cube.contains_minterm(&[false, true, false]));
/// assert_eq!(cube.literal_count(), 2);
/// # Ok::<(), stc_logic::LogicError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    pub(crate) care: u64,
    pub(crate) value: u64,
    num_vars: u8,
}

/// Checks a width against [`MAX_VARS`] for the panicking constructors.
fn width(n: usize) -> u8 {
    assert!(
        n <= MAX_VARS,
        "a cube has at most {MAX_VARS} variables, got {n}"
    );
    n as u8
}

/// The mask of bit `v`, checked against the cube width.
fn bit(num_vars: usize, v: usize) -> u64 {
    assert!(
        v < num_vars,
        "variable {v} out of range for {num_vars} variables"
    );
    1u64 << v
}

impl Cube {
    /// The universal cube (all don't cares) over `n` variables.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`MAX_VARS`].
    #[must_use]
    pub fn universal(n: usize) -> Self {
        Self {
            care: 0,
            value: 0,
            num_vars: width(n),
        }
    }

    /// A cube matching exactly one minterm.
    ///
    /// # Panics
    ///
    /// Panics if `bits` has more than [`MAX_VARS`] entries.
    #[must_use]
    pub fn from_minterm(bits: &[bool]) -> Self {
        let num_vars = width(bits.len());
        Self {
            care: mask_below(bits.len()),
            value: pack(bits),
            num_vars,
        }
    }

    /// Builds a cube from explicit literals.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_VARS`] literals.
    #[must_use]
    pub fn from_literals(literals: Vec<Literal>) -> Self {
        let mut cube = Self::universal(literals.len());
        for (v, literal) in literals.into_iter().enumerate() {
            cube.set(v, literal);
        }
        cube
    }

    /// Parses a cube from a string of `0`, `1` and `-` characters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LogicError::ParseCube`] on any other character and
    /// [`crate::LogicError::TooManyVariables`] on more than [`MAX_VARS`]
    /// characters.
    pub fn parse(text: &str) -> Result<Self, crate::LogicError> {
        let literals = text
            .chars()
            .map(|c| match c {
                '0' => Ok(Literal::Zero),
                '1' => Ok(Literal::One),
                '-' | '~' | 'x' | 'X' => Ok(Literal::DontCare),
                other => Err(crate::LogicError::ParseCube { character: other }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        if literals.len() > MAX_VARS {
            return Err(crate::LogicError::TooManyVariables {
                count: literals.len(),
            });
        }
        Ok(Self::from_literals(literals))
    }

    /// Number of variables the cube is defined over.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        usize::from(self.num_vars)
    }

    /// The literal for variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn literal(&self, v: usize) -> Literal {
        let b = bit(self.num_vars(), v);
        if self.care & b == 0 {
            Literal::DontCare
        } else if self.value & b == 0 {
            Literal::Zero
        } else {
            Literal::One
        }
    }

    /// Number of non-don't-care literals (the conventional two-level cost of
    /// the product term's AND gate inputs).
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.care.count_ones() as usize
    }

    /// Returns `true` if the given minterm satisfies the cube.
    ///
    /// # Panics
    ///
    /// Panics if `minterm.len()` differs from the cube's variable count.
    #[must_use]
    pub fn contains_minterm(&self, minterm: &[bool]) -> bool {
        assert_eq!(minterm.len(), self.num_vars());
        (pack(minterm) ^ self.value) & self.care == 0
    }

    /// Returns `true` if every minterm of `other` is also a minterm of `self`.
    #[must_use]
    pub fn covers(&self, other: &Self) -> bool {
        self.num_vars == other.num_vars
            && self.care & !other.care == 0
            && (self.value ^ other.value) & self.care == 0
    }

    /// The intersection of two cubes, or `None` if they are disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Self) -> Option<Self> {
        self.intersects(other).then_some(Self {
            care: self.care | other.care,
            value: self.value | other.value,
            num_vars: self.num_vars,
        })
    }

    /// Returns `true` if the cubes share at least one minterm.
    #[must_use]
    pub fn intersects(&self, other: &Self) -> bool {
        self.num_vars == other.num_vars && self.conflicts(other) == 0
    }

    /// The number of variables on which the cubes conflict (one requires 0 and
    /// the other requires 1).
    #[must_use]
    pub fn distance(&self, other: &Self) -> usize {
        self.conflicts(other).count_ones() as usize
    }

    /// The variables on which both cubes have a literal, of opposite
    /// polarity.
    fn conflicts(&self, other: &Self) -> u64 {
        (self.value ^ other.value) & self.care & other.care
    }

    /// Expands variable `v` to don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn with_dont_care(&self, v: usize) -> Self {
        let mut cube = *self;
        cube.set(v, Literal::DontCare);
        cube
    }

    /// Restricts variable `v` to the given value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn with_literal(&self, v: usize, literal: Literal) -> Self {
        let mut cube = *self;
        cube.set(v, literal);
        cube
    }

    fn set(&mut self, v: usize, literal: Literal) {
        let b = bit(self.num_vars(), v);
        self.care &= !b;
        self.value &= !b;
        match literal {
            Literal::DontCare => {}
            Literal::Zero => self.care |= b,
            Literal::One => {
                self.care |= b;
                self.value |= b;
            }
        }
    }

    /// Number of don't-care variables.
    pub(crate) fn dont_cares(&self) -> usize {
        self.num_vars() - self.literal_count()
    }

    /// Number of minterms the cube contains (`2^(don't cares)`), saturating
    /// at `u64::MAX` for the universal cube over 64 variables.
    #[must_use]
    pub fn num_minterms(&self) -> u64 {
        1u64.checked_shl(self.dont_cares() as u32)
            .unwrap_or(u64::MAX)
    }

    /// Iterates over all minterms of the cube (exponential in the number of
    /// don't cares; intended for small cubes in tests and fault simulation).
    pub fn minterms(&self) -> impl Iterator<Item = Vec<bool>> + '_ {
        let n = self.num_vars();
        let free = mask_below(n) & !self.care;
        (0u64..(1u64 << free.count_ones())).map(move |index| {
            // Deposit the bits of `index` into the free positions.
            let mut bits = self.value;
            let mut rest = free;
            let mut k = 0;
            while rest != 0 {
                let low = rest & rest.wrapping_neg();
                if (index >> k) & 1 == 1 {
                    bits |= low;
                }
                rest &= rest - 1;
                k += 1;
            }
            (0..n).map(|v| (bits >> v) & 1 == 1).collect()
        })
    }
}

/// The mask of the `n` lowest bits.
fn mask_below(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Packs a minterm into a mask: bit `v` is `bits[v]`.
fn pack(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0, |acc, (v, &b)| acc | (u64::from(b) << v))
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.num_vars() {
            let c = match self.literal(v) {
                Literal::Zero => '0',
                Literal::One => '1',
                Literal::DontCare => '-',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cube(\"{self}\")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let c = Cube::parse("10-1").unwrap();
        assert_eq!(c.to_string(), "10-1");
        assert_eq!(c.num_vars(), 4);
        assert_eq!(c.literal_count(), 3);
        assert!(Cube::parse("10z").is_err());
    }

    #[test]
    fn containment_and_covering() {
        let wide = Cube::parse("1--").unwrap();
        let narrow = Cube::parse("1-0").unwrap();
        assert!(wide.covers(&narrow));
        assert!(!narrow.covers(&wide));
        assert!(wide.covers(&wide));
        assert!(narrow.contains_minterm(&[true, true, false]));
        assert!(!narrow.contains_minterm(&[true, true, true]));
    }

    #[test]
    fn intersection_and_distance() {
        let a = Cube::parse("1-0").unwrap();
        let b = Cube::parse("-10").unwrap();
        assert_eq!(a.intersect(&b), Some(Cube::parse("110").unwrap()));
        assert!(a.intersects(&b));
        let c = Cube::parse("0--").unwrap();
        assert_eq!(a.intersect(&c), None);
        assert_eq!(a.distance(&c), 1);
        assert_eq!(a.distance(&b), 0);
    }

    #[test]
    fn minterm_enumeration() {
        let c = Cube::parse("1-0-").unwrap();
        assert_eq!(c.num_minterms(), 4);
        let minterms: Vec<Vec<bool>> = c.minterms().collect();
        assert_eq!(minterms.len(), 4);
        for m in &minterms {
            assert!(c.contains_minterm(m));
        }
    }

    #[test]
    fn from_minterm_and_expansion() {
        let m = Cube::from_minterm(&[true, false, true]);
        assert_eq!(m.to_string(), "101");
        assert_eq!(m.num_minterms(), 1);
        let e = m.with_dont_care(1);
        assert_eq!(e.to_string(), "1-1");
        assert!(e.covers(&m));
        let r = e.with_literal(1, Literal::Zero);
        assert_eq!(r.to_string(), "101");
    }

    #[test]
    fn universal_cube_covers_everything() {
        let u = Cube::universal(3);
        assert_eq!(u.literal_count(), 0);
        assert_eq!(u.num_minterms(), 8);
        assert!(u.covers(&Cube::parse("010").unwrap()));
    }

    #[test]
    fn mismatched_widths_are_never_related() {
        let a = Cube::parse("10").unwrap();
        let b = Cube::parse("101").unwrap();
        assert!(!a.covers(&b));
        assert_eq!(a.intersect(&b), None);
    }
}
