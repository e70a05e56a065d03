//! The Theorem 1 realization is its factor tables: `verify` checks
//! Definition 3 on `δ1`, `δ2` and `λ*` directly, and the flat machine over
//! `S1 × S2` is built only on request by `compose`.  This test pins both on
//! every embedded machine at the perfbench `embedded_flow` solver
//! configuration: each table realization verifies, its `λ*` holds at most
//! one row per original state, and `compose` yields exactly the machine the
//! construction stored before it became on-demand (FNV `stable_hash` values
//! recorded from that construction).

use stc::fsm::benchmarks;
use stc::synth::{OstrSolver, SolverConfig};

/// `(machine, stable_hash of the composed S1 × S2 machine)`.
const COMPOSED: &[(&str, u64)] = &[
    ("bbara", 0xf34b_11b0_dd76_a142),
    ("bbtas", 0x7d76_55b5_cc22_55cc),
    ("dk14", 0xa200_b487_64f5_ca1d),
    ("dk15", 0xb69b_73b9_0f7d_39f1),
    ("dk16", 0x542a_c4b6_9056_403f),
    ("dk17", 0x6d91_e7ee_9459_c9cc),
    ("dk27", 0xb9cf_cb57_c5a4_8b90),
    ("dk512", 0x5f0a_8ee5_a808_f799),
    ("mc", 0x686d_2948_8f04_7bcf),
    ("ex1", 0x7b7f_ca05_d415_b800),
    ("shiftreg", 0x0042_f157_348d_8419),
    ("tav", 0x939d_4f39_ecba_4e41),
    ("tbk", 0xa2c3_6c55_8fec_846b),
];

#[test]
fn table_realizations_verify_and_compose_to_the_recorded_machines() {
    let suite = benchmarks::suite();
    assert_eq!(
        suite.len(),
        COMPOSED.len(),
        "every embedded machine is covered"
    );
    let solver = OstrSolver::new(SolverConfig {
        max_nodes: 100_000,
        time_limit: None,
        lemma1_pruning: true,
        stop_at_lower_bound: true,
        branch_and_bound: true,
        parallel_subtrees: 1,
    });
    for bench in &suite {
        let (name, m) = (bench.name(), &bench.machine);
        let r = solver.solve(m).best.realize(m);
        assert_eq!(r.verify(m), None, "{name}");

        let tables = &r.tables;
        assert_eq!(tables.product_row.len(), r.s1_len() * r.s2_len(), "{name}");
        assert!(tables.outputs.len() <= m.num_states(), "{name}");
        assert!(
            tables.outputs.iter().all(|row| row.len() == m.num_inputs()),
            "{name}"
        );

        let (_, expected) = COMPOSED
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a recorded hash for every machine");
        let composed = r.compose(m);
        assert_eq!(composed.num_states(), r.s1_len() * r.s2_len(), "{name}");
        assert_eq!(composed.stable_hash(), *expected, "{name}");
    }
}
