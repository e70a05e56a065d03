//! The 10–100x scale suite: planted decomposable machines far beyond the
//! embedded MCNC corpus, as solver workloads.
//!
//! The embedded suite tops out at 32 states (`tbk`), where whole solves take
//! tens of milliseconds and parallel speedups drown in setup noise.  The
//! scale tiers use [`stc_fsm::planted_decomposable`] to grow machines with a
//! *guaranteed* non-trivial decomposition at 3–10x the largest embedded
//! machine's state count and 10–100x its search size.  The generator
//! landscape is viciously non-monotonic: most grid shapes collapse to a
//! 3–27 element symmetric-pair basis whose search finishes in microseconds,
//! and among the rich families search size varies 40x between neighbouring
//! grids — so each tier pins exact generator parameters, and the tests pin
//! the resulting state and basis counts.
//!
//! The solver tiers ([`scale_tiers`]) are ordered by *search size* (0.47M,
//! 1.8M and 43.5M investigated nodes), not state count.  Every tier's search
//! **completes** within its node budget — the parallel reduction only
//! accepts a speculative subtree result that finished naturally inside the
//! serial remainder, so a budget-exhausted workload rejects all speculation
//! and parallelism cannot pay on it (`DESIGN.md` §12).  Budgets sit ~2x
//! above each tier's known completion point.
//!
//! `scale_s` is the workload of the `scale` bench target (the CI scale
//! gate) and of perfbench's `solver_scale`; all three tiers are frozen by
//! the nightly `tests/solver_oracle.rs`.  The planted grid, the seed and the
//! node budget together determine each workload byte for byte.

use stc_fsm::{planted_decomposable, Mealy, PlantedSpec};
use stc_synth::SolverConfig;

/// Shared generator parameters; tiers override the grid (and occasionally
/// inputs/seed — the rich-basis families are shape- and seed-specific).
fn base_spec() -> PlantedSpec {
    PlantedSpec {
        rows: 0,
        cols: 0,
        states: 0,
        inputs: 4,
        outputs: 2,
        map_pairs: 2,
        seed: 1,
        max_attempts: 50,
    }
}

/// One solver workload of the scale suite.
#[derive(Debug, Clone, Copy)]
pub struct ScaleTier {
    /// Tier name, used as the benchmark parameter (`scale_s`, …).
    pub name: &'static str,
    /// Generator parameters (deterministic: same spec, same machine).
    pub spec: PlantedSpec,
    /// Node budget of the tier's solver configuration.  Roughly 2x the
    /// tier's known completion point: the search must finish *within*
    /// budget or the deterministic reduction rejects all stolen work.
    pub max_nodes: u64,
}

/// The three solver tiers, smallest search first (0.47M / 1.8M / 43.5M
/// investigated nodes).
///
/// The smallest tier doubles as the CI scale gate, so it is sized to keep
/// the whole gate (generation, basis, a handful of solves) within seconds.
#[must_use]
pub fn scale_tiers() -> [ScaleTier; 3] {
    [
        ScaleTier {
            name: "scale_s",
            spec: PlantedSpec {
                rows: 13,
                cols: 12,
                states: 156,
                ..base_spec()
            },
            max_nodes: 1_000_000,
        },
        ScaleTier {
            name: "scale_m",
            spec: PlantedSpec {
                rows: 12,
                cols: 10,
                states: 120,
                ..base_spec()
            },
            max_nodes: 4_000_000,
        },
        ScaleTier {
            name: "scale_l",
            spec: PlantedSpec {
                rows: 12,
                cols: 11,
                states: 132,
                inputs: 3,
                seed: 3,
                ..base_spec()
            },
            max_nodes: 80_000_000,
        },
    ]
}

/// Generates a solver tier's machine (deterministic).
#[must_use]
pub fn scale_machine(tier: &ScaleTier) -> Mealy {
    planted_decomposable(tier.name, tier.spec).0
}

/// The tier's solver configuration at the given worker count.
///
/// `stop_at_lower_bound` is off: none of the planted tiers ever hits the
/// lower bound (probed — node counts are identical either way), and a full
/// run to natural exhaustion of the tree makes "the search completes within
/// budget" an unconditional property of the tier rather than one dependent
/// on where an early stop lands.
#[must_use]
pub fn scale_solver_config(tier: &ScaleTier, jobs: usize) -> SolverConfig {
    SolverConfig {
        max_nodes: tier.max_nodes,
        time_limit: None,
        lemma1_pruning: true,
        stop_at_lower_bound: false,
        branch_and_bound: true,
        parallel_subtrees: jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_synth::PreparedOstr;

    /// Every solver tier's shape is pinned: the CI scale gate, perfbench's
    /// `solver_scale` and the nightly solver oracle assume these exact
    /// workloads.
    #[test]
    fn solver_tier_shapes_are_pinned() {
        let tiers = scale_tiers();
        let shapes: Vec<(&str, usize, usize)> = tiers
            .iter()
            .map(|t| {
                let machine = scale_machine(t);
                let basis = PreparedOstr::new(&machine).basis_size();
                (t.name, machine.num_states(), basis)
            })
            .collect();
        assert_eq!(
            shapes,
            vec![
                ("scale_s", 107, 33),
                ("scale_m", 109, 35),
                ("scale_l", 92, 57)
            ]
        );
    }

    #[test]
    fn tiers_are_deterministic() {
        let tiers = scale_tiers();
        let a = scale_machine(&tiers[0]);
        let b = scale_machine(&tiers[0]);
        assert_eq!(a, b, "same spec must generate the same machine");
    }
}
