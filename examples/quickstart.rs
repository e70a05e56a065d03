//! Quickstart: the paper's worked example (Figs. 5–8) end to end, driven
//! through the `Synthesis` session API and its typed artifacts
//! (`Decomposition → Encoded → Netlist → BistPlan`).
//!
//! Run with `cargo run --example quickstart`.

use stc::prelude::*;

fn main() {
    // The 4-state machine of Fig. 5.
    let machine = stc::fsm::paper_example();
    println!("Specification:\n{machine}");

    // State equivalence ε (needed for the π ∩ τ ⊆ ε condition).
    let eps = state_equivalence(&machine);
    println!("state equivalence ε = {eps}\n");

    // One session carries the whole (layered) configuration.
    let session = Synthesis::builder().patterns_per_session(128).build();

    // Stage 1 — solve problem OSTR and realize the best pair (Theorem 1).
    // `decompose_only` is a first-class partial flow: the artifact can be
    // stored and resumed later.
    let decomposition = session.decompose_only(&machine);
    let outcome = &decomposition.outcome;
    println!(
        "OSTR solution: π = {}, τ = {}  ({})",
        outcome.best.pi, outcome.best.tau, outcome.best.cost
    );
    println!(
        "search statistics: basis |M| = {}, nodes investigated = {}, subtrees pruned = {}\n",
        outcome.stats.basis_size, outcome.stats.nodes_investigated, outcome.stats.subtrees_pruned
    );
    assert!(decomposition.verified);
    println!(
        "realization M*: |S1| = {}, |S2| = {} (Fig. 8 structure, {} flip-flops)",
        decomposition.realization.s1_len(),
        decomposition.realization.s2_len(),
        decomposition.pipeline_flipflops()
    );
    println!("δ1 table: {:?}", decomposition.realization.tables.delta1);
    println!("δ2 table: {:?}", decomposition.realization.tables.delta2);

    // Stage 2 + 3 — state coding and logic minimisation, resumed from the
    // decomposition artifact.
    let encoded = session
        .encode(&decomposition)
        .expect("within gate-level limits");
    let netlist = session.synthesize_logic(&encoded);
    println!(
        "\nsynthesised pipeline logic: C1 = {} literals, C2 = {} literals, output logic = {} literals",
        netlist.logic.c1.literal_count(),
        netlist.logic.c2.literal_count(),
        netlist.logic.output.literal_count()
    );

    // Stage 4 — the two-session self-test (R1 generates / R2 analyses, then
    // swapped).
    let plan = session.plan_bist(&netlist);
    let self_test = &plan.result;
    println!(
        "self-test: session 1 ({}) coverage {:.1}%, session 2 ({}) coverage {:.1}%, overall {:.1}%",
        self_test.session1.block,
        100.0 * self_test.session1.coverage(),
        self_test.session2.block,
        100.0 * self_test.session2.coverage(),
        100.0 * self_test.overall_coverage()
    );

    // Architecture comparison (Figs. 1-4).
    let reports = evaluate_architectures(&machine, &ArchitectureOptions::default());
    println!("\narchitecture comparison:");
    for r in &reports {
        println!(
            "  {:<26} flip-flops = {}, gates = {}, depth = {}, untestable faults = {}",
            r.architecture.name(),
            r.flipflops,
            r.gate_count,
            r.logic_depth,
            r.untestable_faults
        );
    }
}
