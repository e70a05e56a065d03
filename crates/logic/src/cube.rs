//! Cubes: products of literals over a fixed set of Boolean variables.

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

/// A cube (product term) over `n` Boolean variables.
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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cube {
    literals: Vec<Literal>,
}

impl Cube {
    /// The universal cube (all don't cares) over `n` variables.
    #[must_use]
    pub fn universal(n: usize) -> Self {
        Self {
            literals: vec![Literal::DontCare; n],
        }
    }

    /// A cube matching exactly one minterm.
    #[must_use]
    pub fn from_minterm(bits: &[bool]) -> Self {
        Self {
            literals: bits
                .iter()
                .map(|&b| if b { Literal::One } else { Literal::Zero })
                .collect(),
        }
    }

    /// Builds a cube from explicit literals.
    #[must_use]
    pub fn from_literals(literals: Vec<Literal>) -> Self {
        Self { literals }
    }

    /// Parses a cube from a string of `0`, `1` and `-` characters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::LogicError::ParseCube`] on any other character.
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
        Ok(Self { literals })
    }

    /// Number of variables the cube is defined over.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.literals.len()
    }

    /// The literal for variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn literal(&self, v: usize) -> Literal {
        self.literals[v]
    }

    /// Number of non-don't-care literals (the conventional two-level cost of
    /// the product term's AND gate inputs).
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.literals
            .iter()
            .filter(|l| !matches!(l, Literal::DontCare))
            .count()
    }

    /// Returns `true` if the given minterm satisfies the cube.
    ///
    /// # Panics
    ///
    /// Panics if `minterm.len()` differs from the cube's variable count.
    #[must_use]
    pub fn contains_minterm(&self, minterm: &[bool]) -> bool {
        assert_eq!(minterm.len(), self.literals.len());
        self.literals
            .iter()
            .zip(minterm)
            .all(|(l, &v)| l.matches(v))
    }

    /// Returns `true` if every minterm of `other` is also a minterm of `self`.
    #[must_use]
    pub fn covers(&self, other: &Self) -> bool {
        if self.num_vars() != other.num_vars() {
            return false;
        }
        self.literals
            .iter()
            .zip(&other.literals)
            .all(|(a, b)| matches!(a, Literal::DontCare) || a == b)
    }

    /// The intersection of two cubes, or `None` if they are disjoint.
    #[must_use]
    pub fn intersect(&self, other: &Self) -> Option<Self> {
        if self.num_vars() != other.num_vars() {
            return None;
        }
        let mut literals = Vec::with_capacity(self.num_vars());
        for (a, b) in self.literals.iter().zip(&other.literals) {
            let merged = match (a, b) {
                (Literal::DontCare, x) | (x, Literal::DontCare) => *x,
                (x, y) if x == y => *x,
                _ => return None,
            };
            literals.push(merged);
        }
        Some(Self { literals })
    }

    /// Returns `true` if the cubes share at least one minterm.
    #[must_use]
    pub fn intersects(&self, other: &Self) -> bool {
        self.intersect(other).is_some()
    }

    /// The number of variables on which the cubes conflict (one requires 0 and
    /// the other requires 1).
    #[must_use]
    pub fn distance(&self, other: &Self) -> usize {
        self.literals
            .iter()
            .zip(&other.literals)
            .filter(|(a, b)| {
                matches!(
                    (a, b),
                    (Literal::Zero, Literal::One) | (Literal::One, Literal::Zero)
                )
            })
            .count()
    }

    /// Expands variable `v` to don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn with_dont_care(&self, v: usize) -> Self {
        let mut literals = self.literals.clone();
        literals[v] = Literal::DontCare;
        Self { literals }
    }

    /// Restricts variable `v` to the given value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn with_literal(&self, v: usize, literal: Literal) -> Self {
        let mut literals = self.literals.clone();
        literals[v] = literal;
        Self { literals }
    }

    /// Number of minterms the cube contains (`2^(don't cares)`).
    #[must_use]
    pub fn num_minterms(&self) -> u64 {
        let dc = self.num_vars() - self.literal_count();
        1u64 << dc
    }

    /// Iterates over all minterms of the cube (exponential in the number of
    /// don't cares; intended for small cubes in tests and fault simulation).
    pub fn minterms(&self) -> impl Iterator<Item = Vec<bool>> + '_ {
        let dc_positions: Vec<usize> = self
            .literals
            .iter()
            .enumerate()
            .filter(|(_, l)| matches!(l, Literal::DontCare))
            .map(|(i, _)| i)
            .collect();
        let base: Vec<bool> = self
            .literals
            .iter()
            .map(|l| matches!(l, Literal::One))
            .collect();
        (0u64..(1u64 << dc_positions.len())).map(move |mask| {
            let mut m = base.clone();
            for (bit, &pos) in dc_positions.iter().enumerate() {
                m[pos] = (mask >> bit) & 1 == 1;
            }
            m
        })
    }
}

impl fmt::Display for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for l in &self.literals {
            let c = match l {
                Literal::Zero => '0',
                Literal::One => '1',
                Literal::DontCare => '-',
            };
            write!(f, "{c}")?;
        }
        Ok(())
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
