//! Covers (sums of products) and a compact Espresso-style two-level
//! minimiser over positional cubes.
//!
//! Every decision of the minimiser is the boolean answer of an exact
//! containment query ("does this set of cubes cover that cube?"), asked in
//! a fixed order.  Queries are answered by cofactoring the cubes against the
//! queried cube into a reused scratch stack and running the unate-recursive
//! tautology check on the result (Brayton et al., *Logic Minimization
//! Algorithms for VLSI Synthesis*, 1984); see DESIGN.md, "Positional cubes".

use crate::cube::{Cube, Literal};
use std::cmp::Reverse;
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
    /// i.e. every minterm of `cube` is covered.  Decided by cofactoring the
    /// cover against the cube and checking the cofactor for tautology, so it
    /// is exact.
    #[must_use]
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        cube.num_vars() == self.num_vars && contains(&self.cubes, cube, &mut Vec::new())
    }

    /// Returns `true` if the two covers define the same function.
    #[must_use]
    pub fn equivalent(&self, other: &Self) -> bool {
        if self.num_vars != other.num_vars {
            return false;
        }
        let mut stack = Vec::new();
        self.cubes
            .iter()
            .all(|c| contains(&other.cubes, c, &mut stack))
            && other
                .cubes
                .iter()
                .all(|c| contains(&self.cubes, c, &mut stack))
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
        let mut permitted = self.cubes.clone();
        permitted.extend_from_slice(&dont_care.cubes);
        let on = &self.cubes;
        let mut stack = Vec::new();
        let mut current = on.clone();
        let mut best_cost = (usize::MAX, usize::MAX);
        loop {
            current = expand(&current, &permitted, &mut stack);
            current = irredundant(current, on, &mut stack);
            let cost = (current.len(), current.iter().map(Cube::literal_count).sum());
            if cost >= best_cost {
                break;
            }
            best_cost = cost;
            current = reduce(current, on, &mut stack);
        }
        Self {
            num_vars: self.num_vars,
            cubes: current,
        }
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

/// A cube of a cofactor on the scratch stack: the `care`/`value` masks of
/// a [`Cube`] restricted to the variables still free.
#[derive(Clone, Copy)]
struct Term {
    care: u64,
    value: u64,
}

/// Do `cubes` cover every minterm of `cube`?  Cofactors each cube that meets
/// `cube` against it onto `stack` (cleared first), then decides tautology of
/// the cofactor.  All cubes have `cube`'s width.
fn contains<'a>(
    cubes: impl IntoIterator<Item = &'a Cube>,
    cube: &Cube,
    stack: &mut Vec<Term>,
) -> bool {
    stack.clear();
    for c in cubes {
        if (c.value ^ cube.value) & c.care & cube.care != 0 {
            continue;
        }
        let care = c.care & !cube.care;
        if care == 0 {
            return true;
        }
        stack.push(Term {
            care,
            value: c.value & care,
        });
    }
    is_tautology(stack, 0)
}

/// Unate-recursive tautology check of the terms `stack[start..]`, which it
/// leaves in place.  A term without literals is universal.  A cover with no
/// binate variable is a tautology only if it has a universal term, and the
/// terms with a literal in a unate variable can be dropped without changing
/// the answer; otherwise the cover is a tautology iff both cofactors on a
/// binate variable are, and each cofactor is pushed above `stack[..end]`
/// and popped again.
fn is_tautology(stack: &mut Vec<Term>, start: usize) -> bool {
    let end = stack.len();
    let (mut ones, mut zeros) = (0u64, 0u64);
    for t in &stack[start..end] {
        if t.care == 0 {
            return true;
        }
        ones |= t.value;
        zeros |= t.care & !t.value;
    }
    let binate = ones & zeros;
    if binate == 0 {
        return false;
    }
    let unate = (ones | zeros) & !binate;
    let split = most_binate(&stack[start..end], binate);
    for want in [0, split] {
        let mut universal = false;
        for i in start..end {
            let t = stack[i];
            if t.care & unate != 0 || (t.care & split != 0 && t.value & split != want) {
                continue;
            }
            let care = t.care & !split;
            if care == 0 {
                universal = true;
                break;
            }
            stack.push(Term {
                care,
                value: t.value & care,
            });
        }
        let holds = universal || is_tautology(stack, end);
        stack.truncate(end);
        if !holds {
            return false;
        }
    }
    true
}

/// The bit of the binate variable with the most literals in `terms`
/// (the lowest such variable on ties): the split that shrinks both
/// cofactors most.
fn most_binate(terms: &[Term], binate: u64) -> u64 {
    let mut counts = [0u32; 64];
    for t in terms {
        let mut rest = t.care & binate;
        while rest != 0 {
            counts[rest.trailing_zeros() as usize] += 1;
            rest &= rest - 1;
        }
    }
    let mut best = binate.trailing_zeros() as usize;
    let mut rest = binate;
    while rest != 0 {
        let v = rest.trailing_zeros() as usize;
        if counts[v] > counts[best] {
            best = v;
        }
        rest &= rest - 1;
    }
    1u64 << best
}

/// EXPAND: enlarge each cube literal-by-literal as long as it stays inside the
/// permitted (ON ∪ DC) area, then drop cubes covered by other cubes.
fn expand(cubes: &[Cube], permitted: &[Cube], stack: &mut Vec<Term>) -> Vec<Cube> {
    let mut order = cubes.to_vec();
    // Expand larger cubes first so small ones can be absorbed.
    order.sort_by_key(|c| Reverse(c.dont_cares()));
    let expanded: Vec<Cube> = order
        .iter()
        .map(|&cube| {
            let mut current = cube;
            for v in 0..cube.num_vars() {
                if matches!(current.literal(v), Literal::DontCare) {
                    continue;
                }
                let candidate = current.with_dont_care(v);
                if contains(permitted, &candidate, stack) {
                    current = candidate;
                }
            }
            current
        })
        .collect();
    // Single-cube containment removal; of equal cubes the first is kept.
    expanded
        .iter()
        .enumerate()
        .filter(|&(i, cube)| {
            !expanded
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && other.covers(cube) && (other != cube || j < i))
        })
        .map(|(_, &cube)| cube)
        .collect()
}

/// IRREDUNDANT: greedily drop cubes that are not needed to cover the ON-set.
///
/// The cover covers the ON-set on entry and after every step, so dropping
/// cube `i` can only uncover the ON cubes that meet it, and only those are
/// checked: the answer is that of checking every ON cube.
fn irredundant(cubes: Vec<Cube>, on_set: &[Cube], stack: &mut Vec<Term>) -> Vec<Cube> {
    // Try to remove the smallest cubes first (the largest are most likely
    // essential); the sort is stable, so ties keep cover order.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| cubes[i].dont_cares());
    let mut removed = vec![false; cubes.len()];
    for &i in &order {
        removed[i] = true;
        let still_covered = on_set.iter().filter(|c| c.intersects(&cubes[i])).all(|c| {
            let remaining = cubes.iter().zip(&removed).filter(|(_, &r)| !r);
            contains(remaining.map(|(cube, _)| cube), c, stack)
        });
        if !still_covered {
            removed[i] = false;
        }
    }
    cubes
        .into_iter()
        .zip(removed)
        .filter(|&(_, r)| !r)
        .map(|(cube, _)| cube)
        .collect()
}

/// REDUCE: shrink each cube to the smallest cube that still covers the part of
/// the ON-set not covered by the other cubes, giving EXPAND room to find a
/// different (hopefully better) expansion in the next iteration.
///
/// As in [`irredundant`], the cover covers the ON-set throughout, so
/// restricting a cube to one half on `v` can only uncover the ON cubes that
/// meet the other half, and only those are checked.
fn reduce(mut cubes: Vec<Cube>, on_set: &[Cube], stack: &mut Vec<Term>) -> Vec<Cube> {
    for i in 0..cubes.len() {
        let cube = cubes[i];
        for v in 0..cube.num_vars() {
            if !matches!(cube.literal(v), Literal::DontCare) {
                continue;
            }
            let zero = cubes[i].with_literal(v, Literal::Zero);
            let one = cubes[i].with_literal(v, Literal::One);
            for (candidate, given_up) in [(zero, one), (one, zero)] {
                // The reduced cube together with the others must still cover
                // the ON-set.
                let still_covered = on_set.iter().filter(|c| c.intersects(&given_up)).all(|c| {
                    let trial =
                        cubes
                            .iter()
                            .enumerate()
                            .map(|(j, other)| if j == i { &candidate } else { other });
                    contains(trial, c, stack)
                });
                if still_covered {
                    cubes[i] = candidate;
                    break;
                }
            }
        }
    }
    cubes
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
