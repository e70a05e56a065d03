//! The `Vec<Literal>` cube and minimiser the positional-cube [`crate::Cube`]
//! and [`crate::Cover`] replaced, kept verbatim as their specification.
//!
//! Nothing in the flow calls this module.  The property tests and the
//! tier-1 `minimizer_equivalence` test assert that the packed minimiser
//! returns exactly these covers (same cubes, same order), and the
//! `logic/minimize/reference/*` benches measure the speed-up against it.
//! [`minimized`], [`covers_cube`], [`equivalent`] and
//! [`synthesize_pipeline`] take and return the packed types, converting at
//! the boundary.

use crate::cube::Literal;
use crate::synth::{pipeline_with, PipelineLogic, SynthOptions};
use stc_encoding::EncodedPipeline;
use std::fmt;

/// A cube (product term) over `n` Boolean variables.
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

/// A cover: a set of cubes whose union (sum of products) defines a single
/// Boolean output function over a fixed set of input variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// An empty cover (the constant-0 function) over `num_vars` variables.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// Builds a cover from cubes.
    ///
    /// # Panics
    ///
    /// Panics if a cube has the wrong number of variables.
    #[must_use]
    pub fn from_cubes(num_vars: usize, cubes: Vec<Cube>) -> Self {
        for c in &cubes {
            assert_eq!(c.num_vars(), num_vars, "cube width mismatch");
        }
        Self { num_vars, cubes }
    }

    /// Number of input variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of cubes (product terms).
    #[must_use]
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Returns `true` if the cover has no cubes (constant 0).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The cubes of the cover.
    #[must_use]
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds a cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube has the wrong number of variables.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_vars, "cube width mismatch");
        self.cubes.push(cube);
    }

    /// Total literal count (sum over cubes), the usual two-level area proxy.
    #[must_use]
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// Evaluates the cover on a minterm.
    ///
    /// # Panics
    ///
    /// Panics if `minterm.len()` differs from the variable count.
    #[must_use]
    pub fn evaluate(&self, minterm: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.contains_minterm(minterm))
    }

    /// Returns `true` if the cover contains (covers) the given cube entirely,
    /// i.e. every minterm of `cube` is covered.  Decided by recursive
    /// Shannon expansion (cofactoring), so it is exact.
    #[must_use]
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        // Cofactor the cover against the cube and check for tautology.
        let cofactored: Vec<Cube> = self
            .cubes
            .iter()
            .filter_map(|c| cofactor_against(c, cube))
            .collect();
        let free_vars: Vec<usize> = (0..self.num_vars)
            .filter(|&v| matches!(cube.literal(v), Literal::DontCare))
            .collect();
        is_tautology(&cofactored, &free_vars)
    }

    /// Returns `true` if the two covers define the same function.
    #[must_use]
    pub fn equivalent(&self, other: &Self) -> bool {
        if self.num_vars != other.num_vars {
            return false;
        }
        self.cubes.iter().all(|c| other.covers_cube(c))
            && other.cubes.iter().all(|c| self.covers_cube(c))
    }

    /// Espresso-style minimisation of the cover, treating `dont_care` as a
    /// don't-care set: the result covers every minterm of `self` and possibly
    /// minterms of `dont_care`, with (heuristically) fewer cubes and literals.
    ///
    /// The implementation performs the classical EXPAND / IRREDUNDANT /
    /// REDUCE loop until the cost stops improving.  It is exact on the cube
    /// containment checks (tautology-based) but heuristic in the expansion
    /// order, like Espresso itself.
    ///
    /// # Panics
    ///
    /// Panics if `dont_care` is defined over a different variable count.
    #[must_use]
    pub fn minimized(&self, dont_care: &Self) -> Self {
        assert_eq!(self.num_vars, dont_care.num_vars, "cover width mismatch");
        if self.cubes.is_empty() {
            return self.clone();
        }
        // The permissible area: ON ∪ DC.
        let mut permitted = self.clone();
        for c in dont_care.cubes() {
            permitted.push(c.clone());
        }
        let mut current = self.clone();
        let mut best_cost = (usize::MAX, usize::MAX);
        loop {
            current = expand(&current, &permitted);
            current = irredundant(&current, self);
            let cost = (current.len(), current.literal_count());
            if cost >= best_cost {
                break;
            }
            best_cost = cost;
            current = reduce(&current, self);
        }
        current
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Cofactors `cube` against `against`: the part of `cube` that lies inside
/// `against`, expressed over `against`'s don't-care variables.  Returns `None`
/// if they do not intersect.
fn cofactor_against(cube: &Cube, against: &Cube) -> Option<Cube> {
    if !cube.intersects(against) {
        return None;
    }
    let literals = (0..cube.num_vars())
        .map(|v| match against.literal(v) {
            Literal::DontCare => cube.literal(v),
            _ => Literal::DontCare,
        })
        .collect();
    Some(Cube::from_literals(literals))
}

/// Tautology check restricted to `free_vars` (all other variables are already
/// fixed / irrelevant): do the cubes cover the whole space spanned by
/// `free_vars`?
fn is_tautology(cubes: &[Cube], free_vars: &[usize]) -> bool {
    if cubes.iter().any(|c| {
        free_vars
            .iter()
            .all(|&v| matches!(c.literal(v), Literal::DontCare))
    }) {
        return true;
    }
    let Some((&split, rest)) = free_vars.split_first() else {
        return !cubes.is_empty();
    };
    for value in [Literal::Zero, Literal::One] {
        let cofactored: Vec<Cube> = cubes
            .iter()
            .filter(|c| c.literal(split) == value || c.literal(split) == Literal::DontCare)
            .cloned()
            .collect();
        if !is_tautology(&cofactored, rest) {
            return false;
        }
    }
    true
}

/// EXPAND: enlarge each cube literal-by-literal as long as it stays inside the
/// permitted (ON ∪ DC) area, then drop cubes covered by other cubes.
fn expand(cover: &Cover, permitted: &Cover) -> Cover {
    let mut cubes = cover.cubes().to_vec();
    // Expand larger cubes first so small ones can be absorbed.
    cubes.sort_by_key(|c| std::cmp::Reverse(c.num_vars() - c.literal_count()));
    let mut expanded: Vec<Cube> = Vec::with_capacity(cubes.len());
    for cube in &cubes {
        let mut current = cube.clone();
        for v in 0..cover.num_vars() {
            if matches!(current.literal(v), Literal::DontCare) {
                continue;
            }
            let candidate = current.with_dont_care(v);
            if permitted.covers_cube(&candidate) {
                current = candidate;
            }
        }
        expanded.push(current);
    }
    // Single-cube containment removal.
    let mut kept: Vec<Cube> = Vec::with_capacity(expanded.len());
    for (i, cube) in expanded.iter().enumerate() {
        let covered = expanded
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && other.covers(cube) && (other != cube || j < i));
        if !covered {
            kept.push(cube.clone());
        }
    }
    Cover::from_cubes(cover.num_vars(), kept)
}

/// IRREDUNDANT: greedily drop cubes that are not needed to cover the ON-set.
fn irredundant(cover: &Cover, on_set: &Cover) -> Cover {
    let mut cubes = cover.cubes().to_vec();
    // Try to remove the largest cubes last (they are most likely essential).
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| cubes[i].num_minterms());
    let mut removed = vec![false; cubes.len()];
    for &i in &order {
        removed[i] = true;
        let remaining = Cover::from_cubes(
            cover.num_vars(),
            cubes
                .iter()
                .enumerate()
                .filter(|(j, _)| !removed[*j])
                .map(|(_, c)| c.clone())
                .collect(),
        );
        let still_covered = on_set.cubes().iter().all(|c| remaining.covers_cube(c));
        if !still_covered {
            removed[i] = false;
        }
    }
    let kept: Vec<Cube> = cubes
        .drain(..)
        .enumerate()
        .filter(|(i, _)| !removed[*i])
        .map(|(_, c)| c)
        .collect();
    Cover::from_cubes(cover.num_vars(), kept)
}

/// REDUCE: shrink each cube to the smallest cube that still covers the part of
/// the ON-set not covered by the other cubes, giving EXPAND room to find a
/// different (hopefully better) expansion in the next iteration.
fn reduce(cover: &Cover, on_set: &Cover) -> Cover {
    let cubes = cover.cubes().to_vec();
    let mut result: Vec<Cube> = cubes.clone();
    for i in 0..result.len() {
        let cube = result[i].clone();
        for v in 0..cover.num_vars() {
            if !matches!(cube.literal(v), Literal::DontCare) {
                continue;
            }
            for value in [Literal::Zero, Literal::One] {
                let candidate = result[i].with_literal(v, value);
                // The reduced cube together with the others must still cover
                // the ON-set.
                let mut trial = result.clone();
                trial[i] = candidate.clone();
                let trial_cover = Cover::from_cubes(cover.num_vars(), trial);
                if on_set.cubes().iter().all(|c| trial_cover.covers_cube(c)) {
                    result[i] = candidate;
                    break;
                }
            }
        }
    }
    Cover::from_cubes(cover.num_vars(), result)
}

impl From<&crate::Cube> for Cube {
    fn from(cube: &crate::Cube) -> Self {
        Self::from_literals((0..cube.num_vars()).map(|v| cube.literal(v)).collect())
    }
}

impl From<&Cube> for crate::Cube {
    fn from(cube: &Cube) -> Self {
        Self::from_literals(cube.literals.clone())
    }
}

impl From<&crate::Cover> for Cover {
    fn from(cover: &crate::Cover) -> Self {
        Self::from_cubes(
            cover.num_vars(),
            cover.cubes().iter().map(Cube::from).collect(),
        )
    }
}

impl From<&Cover> for crate::Cover {
    fn from(cover: &Cover) -> Self {
        Self::from_cubes(
            cover.num_vars(),
            cover.cubes().iter().map(crate::Cube::from).collect(),
        )
    }
}

/// [`crate::Cover::minimized`] as the reference minimiser computes it.
#[must_use]
pub fn minimized(on: &crate::Cover, dont_care: &crate::Cover) -> crate::Cover {
    (&Cover::from(on).minimized(&Cover::from(dont_care))).into()
}

/// [`crate::Cover::covers_cube`] as the reference computes it.
#[must_use]
pub fn covers_cube(cover: &crate::Cover, cube: &crate::Cube) -> bool {
    Cover::from(cover).covers_cube(&Cube::from(cube))
}

/// [`crate::Cover::equivalent`] as the reference computes it.
#[must_use]
pub fn equivalent(a: &crate::Cover, b: &crate::Cover) -> bool {
    Cover::from(a).equivalent(&Cover::from(b))
}

/// [`crate::synthesize_pipeline`] with every block minimised by the
/// reference minimiser.
#[must_use]
pub fn synthesize_pipeline(encoded: &EncodedPipeline, options: SynthOptions) -> PipelineLogic {
    pipeline_with(encoded, options, minimized)
}
