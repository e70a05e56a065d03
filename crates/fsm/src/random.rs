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
/// Seeds are scanned deterministically until the reachable closure has
/// exactly `spec.states` cells (and, preferably, uses exactly `rows`/`cols`
/// distinct coordinates); after `max_attempts` the closest match found is
/// returned, with [`PlantedInfo::exact_state_count`] reporting whether the
/// target was hit.
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
    let map_pairs = spec.map_pairs.clamp(1, spec.inputs);

    // Best attempt so far: (occupied cells, per-input f tables, per-input g
    // tables, score).
    type Candidate = (Vec<(usize, usize)>, Vec<Vec<usize>>, Vec<Vec<usize>>, i64);
    let mut best: Option<Candidate> = None;
    for attempt in 0..spec.max_attempts.max(1) {
        let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(u64::from(attempt)));
        // Draw the shared map pairs and an assignment of inputs to pairs.
        let f_maps: Vec<Vec<usize>> = (0..map_pairs)
            .map(|_| {
                (0..spec.rows)
                    .map(|_| rng.gen_range(0..spec.cols))
                    .collect()
            })
            .collect();
        let g_maps: Vec<Vec<usize>> = (0..map_pairs)
            .map(|_| {
                (0..spec.cols)
                    .map(|_| rng.gen_range(0..spec.rows))
                    .collect()
            })
            .collect();
        let assignment: Vec<usize> = (0..spec.inputs)
            .map(|i| {
                if i < map_pairs {
                    i
                } else {
                    rng.gen_range(0..map_pairs)
                }
            })
            .collect();
        // Reachable closure from (0, 0).  Every map pair `p < map_pairs` is
        // assigned to input `p`, so closing over the distinct pairs yields the
        // same reachable set as closing over all inputs — at a fraction of the
        // cost for machines with large input alphabets (e.g. `tbk`, 64 inputs
        // sharing 2 map pairs).
        let mut occupied: Vec<(usize, usize)> = vec![(0, 0)];
        let mut seen = vec![false; spec.rows * spec.cols];
        seen[0] = true;
        let mut head = 0;
        while head < occupied.len() {
            let (r, c) = occupied[head];
            head += 1;
            for pair in 0..map_pairs {
                let cell = (g_maps[pair][c], f_maps[pair][r]);
                let flat = cell.0 * spec.cols + cell.1;
                if !seen[flat] {
                    seen[flat] = true;
                    occupied.push(cell);
                }
            }
        }
        let count_distinct = |coords: &mut dyn Iterator<Item = usize>, bound: usize| {
            let mut used = vec![false; bound];
            let mut count = 0;
            for x in coords {
                if !used[x] {
                    used[x] = true;
                    count += 1;
                }
            }
            count
        };
        let rows_used = count_distinct(&mut occupied.iter().map(|&(r, _)| r), spec.rows);
        let cols_used = count_distinct(&mut occupied.iter().map(|&(_, c)| c), spec.cols);
        // Score: exact state count is mandatory for a "perfect" hit; among
        // those prefer using the full requested grid.
        let state_gap = (occupied.len() as i64 - spec.states as i64).abs();
        let grid_gap = (spec.rows as i64 - rows_used as i64).abs()
            + (spec.cols as i64 - cols_used as i64).abs();
        let score = state_gap * 1000 + grid_gap;
        let better = match &best {
            None => true,
            Some((_, _, _, best_score)) => score < *best_score,
        };
        if better {
            // Expand per-input tables from the shared maps.
            let f_inputs: Vec<Vec<usize>> = assignment.iter().map(|&p| f_maps[p].clone()).collect();
            let g_inputs: Vec<Vec<usize>> = assignment.iter().map(|&p| g_maps[p].clone()).collect();
            best = Some((occupied, f_inputs, g_inputs, score));
            if score == 0 {
                break;
            }
        }
    }

    let (mut cells, f_inputs, g_inputs, _) = best.expect("at least one attempt ran");
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
        for (i, (f, g)) in f_inputs.iter().zip(&g_inputs).enumerate() {
            let target_cell = (g[c], f[r]);
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

    let rows_used = cells
        .iter()
        .map(|&(r, _)| r)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let cols_used = cells
        .iter()
        .map(|&(_, c)| c)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let info = PlantedInfo {
        rows_used,
        cols_used,
        exact_state_count: cells.len() == spec.states,
        row_of_state: cells.iter().map(|&(r, _)| r).collect(),
        col_of_state: cells.iter().map(|&(_, c)| c).collect(),
    };
    (machine, info)
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
