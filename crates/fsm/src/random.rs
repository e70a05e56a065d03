//! Deterministic generation of random and structure-planted Mealy machines.
//!
//! Two generators are provided:
//!
//! * [`random_machine`] — a fully specified random machine with a guaranteed
//!   reachable state set.  Random machines essentially never admit non-trivial
//!   symmetric partition pairs, so they serve as stand-ins for the benchmark
//!   machines for which the paper reports only the trivial OSTR solution.
//! * [`planted_decomposable`] — a machine constructed as the reachable part of
//!   a pipeline product (Definition 2 structure), so that a non-trivial
//!   symmetric partition pair with identity intersection *exists by
//!   construction*.  These stand in for benchmark machines for which the paper
//!   reports a non-trivial decomposition (see `DESIGN.md` for the substitution
//!   rationale).
//!
//! All generation is seeded and therefore reproducible.

use crate::machine::Mealy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a fully specified random machine with `states` states, `inputs`
/// input symbols and `outputs` output symbols.
///
/// Every state is reachable from the reset state 0: the generator first draws
/// a random spanning in-tree (each state `s > 0` is made the successor of a
/// random earlier state under a random input) and then fills the remaining
/// table entries uniformly at random.
///
/// # Panics
///
/// Panics if any of `states`, `inputs`, `outputs` is zero.
#[must_use]
pub fn random_machine(
    name: &str,
    states: usize,
    inputs: usize,
    outputs: usize,
    seed: u64,
) -> Mealy {
    assert!(states > 0 && inputs > 0 && outputs > 0, "empty alphabet");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = vec![usize::MAX; states * inputs];
    // Spanning structure: state s is reached from a random earlier state.
    for s in 1..states {
        let parent = rng.gen_range(0..s);
        let input = rng.gen_range(0..inputs);
        let idx = parent * inputs + input;
        if next[idx] == usize::MAX {
            next[idx] = s;
        } else {
            // Slot already used; chain through the previously selected target.
            let mut cur = next[idx];
            loop {
                let i2 = rng.gen_range(0..inputs);
                let idx2 = cur * inputs + i2;
                if next[idx2] == usize::MAX {
                    next[idx2] = s;
                    break;
                }
                cur = next[idx2];
            }
        }
    }
    let mut builder = Mealy::builder(name, states, inputs, outputs);
    for s in 0..states {
        for i in 0..inputs {
            let idx = s * inputs + i;
            let target = if next[idx] == usize::MAX {
                rng.gen_range(0..states)
            } else {
                next[idx]
            };
            let out = rng.gen_range(0..outputs);
            builder
                .transition(s, i, target, out)
                .expect("indices are in range");
        }
    }
    builder.build().expect("fully specified by construction")
}

/// Specification for [`planted_decomposable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlantedSpec {
    /// Number of blocks of the planted first factor (grid rows).
    pub rows: usize,
    /// Number of blocks of the planted second factor (grid columns).
    pub cols: usize,
    /// Desired number of states of the generated machine.
    pub states: usize,
    /// Number of input symbols.
    pub inputs: usize,
    /// Number of output symbols.
    pub outputs: usize,
    /// Number of distinct `(f, g)` map pairs shared among the inputs.  Small
    /// values keep the reachable closure small; the value is clamped to
    /// `1..=inputs`.
    pub map_pairs: usize,
    /// Base RNG seed; the generator scans seeds deterministically from here.
    pub seed: u64,
    /// Maximum number of seeds to try before accepting the best effort.
    pub max_attempts: u32,
}

/// Description of the structure actually planted by [`planted_decomposable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedInfo {
    /// Number of grid rows actually used (upper bound on the optimal `|S1|`).
    pub rows_used: usize,
    /// Number of grid columns actually used (upper bound on the optimal `|S2|`).
    pub cols_used: usize,
    /// Whether the generator hit the requested state count exactly.
    pub exact_state_count: bool,
    /// The row block (π label) of every state.
    pub row_of_state: Vec<usize>,
    /// The column block (τ label) of every state.
    pub col_of_state: Vec<usize>,
}

/// Generates a machine with a *planted* pipeline decomposition.
///
/// The generator draws crossed next-state maps `f_i : rows → cols`,
/// `g_i : cols → rows` on an abstract `rows × cols` grid, computes the cells
/// reachable from `(0, 0)` and uses them as the states of the machine with
/// `δ((r, c), i) = (g_i(c), f_i(r))`.  By construction the partitions induced
/// by the two grid coordinates form a symmetric partition pair with identity
/// intersection, so the machine admits a non-trivial OSTR solution with at
/// most `rows_used × cols_used` factor states.
///
/// Attempt `a` draws its maps from the seed `spec.seed + a`, so attempts are
/// independent of each other.  Up to `max_attempts` of them are scored, in
/// order, by how close their reachable closure comes to exactly `spec.states`
/// cells (and, secondarily, to using exactly `rows`/`cols` distinct
/// coordinates); the scan stops at the first exact hit.  The machine is built
/// from the first best-scoring attempt, with
/// [`PlantedInfo::exact_state_count`] reporting whether the target was hit.
///
/// # Panics
///
/// Panics if `rows`, `cols`, `states`, `inputs` or `outputs` is zero, or if
/// `states > rows * cols`.
#[must_use]
pub fn planted_decomposable(name: &str, spec: PlantedSpec) -> (Mealy, PlantedInfo) {
    assert!(
        spec.rows > 0 && spec.cols > 0 && spec.states > 0 && spec.inputs > 0 && spec.outputs > 0,
        "empty alphabet"
    );
    assert!(
        spec.states <= spec.rows * spec.cols,
        "cannot place {} states on a {}x{} grid",
        spec.states,
        spec.rows,
        spec.cols
    );
    planted_attempt(name, &spec, best_planted_attempt(&spec))
}

/// The attempt [`planted_decomposable`] builds for `spec`: the first attempt
/// in `0..max_attempts` with the lowest score.
pub(crate) fn best_planted_attempt(spec: &PlantedSpec) -> u32 {
    let mut best: Option<(u32, i64)> = None;
    for attempt in 0..spec.max_attempts.max(1) {
        let (f_maps, g_maps) = draw_maps(spec, &mut attempt_rng(spec, attempt));
        let cells = reachable_cells(spec, &f_maps, &g_maps);
        let rows_used = count_distinct(cells.iter().map(|&(r, _)| r), spec.rows);
        let cols_used = count_distinct(cells.iter().map(|&(_, c)| c), spec.cols);
        // Score: exact state count is mandatory for a "perfect" hit; among
        // those prefer using the full requested grid.
        let state_gap = (cells.len() as i64 - spec.states as i64).abs();
        let grid_gap = (spec.rows as i64 - rows_used as i64).abs()
            + (spec.cols as i64 - cols_used as i64).abs();
        let score = state_gap * 1000 + grid_gap;
        if best.is_none_or(|(_, best_score)| score < best_score) {
            best = Some((attempt, score));
            if score == 0 {
                break;
            }
        }
    }
    best.expect("at least one attempt ran").0
}

/// Builds the machine of one attempt of [`planted_decomposable`]'s scan, for
/// a `spec` that function accepts.
pub(crate) fn planted_attempt(
    name: &str,
    spec: &PlantedSpec,
    attempt: u32,
) -> (Mealy, PlantedInfo) {
    let mut rng = attempt_rng(spec, attempt);
    let (f_maps, g_maps) = draw_maps(spec, &mut rng);
    let map_pairs = f_maps.len();
    // Every map pair `p` is assigned to input `p`; the remaining inputs share
    // a random pair.
    let assignment: Vec<usize> = (0..spec.inputs)
        .map(|i| {
            if i < map_pairs {
                i
            } else {
                rng.gen_range(0..map_pairs)
            }
        })
        .collect();
    let mut cells = reachable_cells(spec, &f_maps, &g_maps);
    cells.sort_unstable();
    let index_of: std::collections::HashMap<(usize, usize), usize> = cells
        .iter()
        .copied()
        .enumerate()
        .map(|(i, cell)| (cell, i))
        .collect();

    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5e1f_7e57);
    let mut builder = Mealy::builder(name, cells.len(), spec.inputs, spec.outputs);
    builder
        .state_names(cells.iter().map(|&(r, c)| format!("r{r}c{c}")))
        .expect("cell names are distinct");
    for (idx, &(r, c)) in cells.iter().enumerate() {
        for (i, &pair) in assignment.iter().enumerate() {
            let target_cell = (g_maps[pair][c], f_maps[pair][r]);
            let target = index_of[&target_cell];
            let out = rng.gen_range(0..spec.outputs);
            builder
                .transition(idx, i, target, out)
                .expect("closure guarantees the target is a state");
        }
    }
    let reset = index_of[&(0, 0)];
    builder.reset_state(reset).expect("reset cell is a state");
    let machine = builder.build().expect("fully specified by construction");

    let info = PlantedInfo {
        rows_used: count_distinct(cells.iter().map(|&(r, _)| r), spec.rows),
        cols_used: count_distinct(cells.iter().map(|&(_, c)| c), spec.cols),
        exact_state_count: cells.len() == spec.states,
        row_of_state: cells.iter().map(|&(r, _)| r).collect(),
        col_of_state: cells.iter().map(|&(_, c)| c).collect(),
    };
    (machine, info)
}

/// The RNG that attempt `attempt` of the scan draws from.
fn attempt_rng(spec: &PlantedSpec, attempt: u32) -> StdRng {
    StdRng::seed_from_u64(spec.seed.wrapping_add(u64::from(attempt)))
}

/// Draws the shared map pairs of one attempt: the `f` maps (rows → cols),
/// then the `g` maps (cols → rows), `map_pairs` clamped to `1..=inputs`.
fn draw_maps(spec: &PlantedSpec, rng: &mut StdRng) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let map_pairs = spec.map_pairs.clamp(1, spec.inputs);
    let f_maps = (0..map_pairs)
        .map(|_| {
            (0..spec.rows)
                .map(|_| rng.gen_range(0..spec.cols))
                .collect()
        })
        .collect();
    let g_maps = (0..map_pairs)
        .map(|_| {
            (0..spec.cols)
                .map(|_| rng.gen_range(0..spec.rows))
                .collect()
        })
        .collect();
    (f_maps, g_maps)
}

/// The grid cells reachable from `(0, 0)`, in discovery order.
///
/// Every map pair is assigned to at least one input, so closing over the
/// distinct pairs yields the same reachable set as closing over all inputs —
/// at a fraction of the cost for machines with large input alphabets (e.g.
/// `tbk`, 64 inputs sharing 2 map pairs).
fn reachable_cells(
    spec: &PlantedSpec,
    f_maps: &[Vec<usize>],
    g_maps: &[Vec<usize>],
) -> Vec<(usize, usize)> {
    let mut occupied: Vec<(usize, usize)> = vec![(0, 0)];
    let mut seen = vec![false; spec.rows * spec.cols];
    seen[0] = true;
    let mut head = 0;
    while head < occupied.len() {
        let (r, c) = occupied[head];
        head += 1;
        for (f, g) in f_maps.iter().zip(g_maps) {
            let cell = (g[c], f[r]);
            let flat = cell.0 * spec.cols + cell.1;
            if !seen[flat] {
                seen[flat] = true;
                occupied.push(cell);
            }
        }
    }
    occupied
}

/// The number of distinct values in `coords`, each below `bound`.
fn count_distinct(coords: impl Iterator<Item = usize>, bound: usize) -> usize {
    let mut used = vec![false; bound];
    coords
        .filter(|&x| !std::mem::replace(&mut used[x], true))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_strongly_reachable;
    use stc_partition::{is_symmetric_pair, Partition};

    #[test]
    fn random_machine_is_reachable_and_deterministic() {
        let a = random_machine("r", 9, 3, 4, 42);
        let b = random_machine("r", 9, 3, 4, 42);
        let c = random_machine("r", 9, 3, 4, 43);
        assert_eq!(a, b, "same seed gives the same machine");
        assert_ne!(a, c, "different seeds give different machines");
        assert!(is_strongly_reachable(&a));
        assert_eq!(a.num_states(), 9);
        assert_eq!(a.num_inputs(), 3);
    }

    #[test]
    #[should_panic(expected = "empty alphabet")]
    fn random_machine_rejects_empty() {
        let _ = random_machine("r", 0, 1, 1, 0);
    }

    #[test]
    fn planted_machine_has_the_planted_pair() {
        let spec = PlantedSpec {
            rows: 4,
            cols: 3,
            states: 12,
            inputs: 3,
            outputs: 2,
            map_pairs: 3,
            seed: 7,
            max_attempts: 500,
        };
        let (m, info) = planted_decomposable("planted", spec);
        assert!(is_strongly_reachable(&m));
        // The planted row/column partitions must form a symmetric partition
        // pair with identity intersection.
        let pi = Partition::from_labels(&info.row_of_state);
        let tau = Partition::from_labels(&info.col_of_state);
        assert!(is_symmetric_pair(&m, &pi, &tau));
        assert!(pi.meet(&tau).unwrap().is_identity());
        assert_eq!(pi.num_blocks(), info.rows_used);
        assert_eq!(tau.num_blocks(), info.cols_used);
    }

    #[test]
    fn planted_machine_hits_small_targets_exactly() {
        let spec = PlantedSpec {
            rows: 3,
            cols: 3,
            states: 6,
            inputs: 2,
            outputs: 2,
            map_pairs: 2,
            seed: 1,
            max_attempts: 2000,
        };
        let (m, info) = planted_decomposable("planted6", spec);
        assert!(
            info.exact_state_count,
            "expected an exact hit for a tiny target"
        );
        assert_eq!(m.num_states(), 6);
        assert!(info.rows_used < 6 || info.cols_used < 6);
    }

    #[test]
    fn planted_generation_is_deterministic() {
        let spec = PlantedSpec {
            rows: 5,
            cols: 5,
            states: 10,
            inputs: 4,
            outputs: 3,
            map_pairs: 2,
            seed: 99,
            max_attempts: 300,
        };
        let (a, ia) = planted_decomposable("p", spec);
        let (b, ib) = planted_decomposable("p", spec);
        assert_eq!(a, b);
        assert_eq!(ia, ib);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn planted_rejects_impossible_grid() {
        let spec = PlantedSpec {
            rows: 2,
            cols: 2,
            states: 5,
            inputs: 1,
            outputs: 1,
            map_pairs: 1,
            seed: 0,
            max_attempts: 1,
        };
        let _ = planted_decomposable("bad", spec);
    }
}
