//! Covers (sums of products) and a compact Espresso-style two-level
//! minimiser.

use crate::cube::{Cube, Literal};
use std::fmt;

/// A cover: a set of cubes whose union (sum of products) defines a single
/// Boolean output function over a fixed set of input variables.
///
/// # Example
///
/// ```
/// use stc_logic::{Cover, Cube};
///
/// let mut f = Cover::new(2);
/// f.push(Cube::parse("10")?);
/// f.push(Cube::parse("11")?);
/// assert!(f.evaluate(&[true, false]));
/// assert!(!f.evaluate(&[false, true]));
///
/// let minimized = f.minimized(&Cover::new(2));
/// assert_eq!(minimized.len(), 1);           // merges to "1-"
/// assert_eq!(minimized.literal_count(), 1);
/// # Ok::<(), stc_logic::LogicError>(())
/// ```
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cover(num_vars: usize, cubes: &[&str]) -> Cover {
        Cover::from_cubes(
            num_vars,
            cubes.iter().map(|c| Cube::parse(c).unwrap()).collect(),
        )
    }

    #[test]
    fn evaluate_matches_cube_semantics() {
        let f = cover(3, &["1-0", "011"]);
        assert!(f.evaluate(&[true, true, false]));
        assert!(f.evaluate(&[false, true, true]));
        assert!(!f.evaluate(&[false, false, false]));
        assert_eq!(f.literal_count(), 5);
    }

    #[test]
    fn covers_cube_is_exact() {
        // x OR !x = tautology over 1 variable.
        let f = cover(2, &["1-", "0-"]);
        assert!(f.covers_cube(&Cube::parse("--").unwrap()));
        let g = cover(2, &["1-"]);
        assert!(!g.covers_cube(&Cube::parse("--").unwrap()));
        assert!(g.covers_cube(&Cube::parse("11").unwrap()));
    }

    #[test]
    fn minimization_merges_adjacent_cubes() {
        let f = cover(2, &["10", "11"]);
        let m = f.minimized(&Cover::new(2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.cubes()[0].to_string(), "1-");
        assert!(m.equivalent(&f));
    }

    #[test]
    fn minimization_uses_dont_cares() {
        // ON = {11}, DC = {10}: the minimiser may expand to "1-".
        let on = cover(2, &["11"]);
        let dc = cover(2, &["10"]);
        let m = on.minimized(&dc);
        assert_eq!(m.len(), 1);
        assert_eq!(m.literal_count(), 1);
        // Every ON minterm is still covered.
        assert!(m.evaluate(&[true, true]));
    }

    #[test]
    fn minimization_never_loses_on_set_minterms() {
        let on = cover(4, &["1100", "1101", "1111", "0011", "0111", "1011"]);
        let m = on.minimized(&Cover::new(4));
        for c in on.cubes() {
            for minterm in c.minterms() {
                assert!(m.evaluate(&minterm), "lost minterm {minterm:?}");
            }
        }
        assert!(m.len() <= on.len());
    }

    #[test]
    fn minimization_of_xor_keeps_two_cubes() {
        // XOR has no two-level simplification.
        let on = cover(2, &["10", "01"]);
        let m = on.minimized(&Cover::new(2));
        assert_eq!(m.len(), 2);
        assert!(m.equivalent(&on));
    }

    #[test]
    fn equivalence_detects_differences() {
        let a = cover(2, &["1-"]);
        let b = cover(2, &["11", "10"]);
        let c = cover(2, &["11"]);
        assert!(a.equivalent(&b));
        assert!(!a.equivalent(&c));
        assert!(!a.equivalent(&cover(3, &["1--"])));
    }

    #[test]
    fn empty_cover_is_constant_zero() {
        let z = Cover::new(3);
        assert!(z.is_empty());
        assert!(!z.evaluate(&[true, true, true]));
        assert_eq!(z.minimized(&Cover::new(3)).len(), 0);
        assert_eq!(z.to_string(), "0");
    }

    #[test]
    fn display_formats_sum_of_products() {
        let f = cover(2, &["10", "0-"]);
        assert_eq!(f.to_string(), "10 + 0-");
    }
}
