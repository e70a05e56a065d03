//! Validates the SCOAP testability ranking against the exact fault
//! simulator: on a *truncated* BIST plan (far fewer patterns than the blocks
//! need for full coverage), the faults that escape detection must
//! concentrate on the sites SCOAP ranks hardest.  The pinned claim: over
//! both blocks of each machine, at least half of the undetected fault sites
//! lie in the SCOAP worst decile of their block.

use stc_analyze::Scoap;
use stc_bist::measure_plan_coverage;
use stc_encoding::EncodedPipeline;
use stc_fsm::{benchmarks, Mealy};
use stc_logic::{synthesize_pipeline, Netlist, PipelineLogic, SynthOptions};
use stc_synth::solve;

fn pipeline_for(machine: &Mealy) -> PipelineLogic {
    let outcome = solve(machine);
    let realization = outcome.best.realize(machine);
    let encoded = EncodedPipeline::new(machine, &realization);
    synthesize_pipeline(&encoded, SynthOptions::default())
}

/// Counts how many of `undetected` land on worst-decile sites of `block`.
/// Returns `(in_decile, undetected_sites)` over the *distinct* fault sites
/// (both polarities of one node count once — SCOAP ranks sites, not
/// polarities).
fn decile_hits(block: &Netlist, undetected: &[stc_bist::StuckAtFault]) -> (usize, usize) {
    let scoap = Scoap::compute(block);
    let worst: Vec<usize> = scoap.worst_decile(&block.fault_sites());
    let mut sites: Vec<usize> = undetected.iter().map(|f| f.node).collect();
    sites.sort_unstable();
    sites.dedup();
    let hits = sites.iter().filter(|s| worst.contains(s)).count();
    (hits, sites.len())
}

/// Runs `machine` through the full flow with a deliberately truncated
/// pattern budget and checks the concentration claim.
fn assert_escapes_concentrate(name: &str, patterns: usize) {
    let bench = benchmarks::by_name(name).expect("embedded benchmark");
    let pipeline = pipeline_for(&bench.machine);
    let coverage = measure_plan_coverage(&pipeline, patterns);

    let (h1, n1) = decile_hits(&pipeline.c1.netlist, &coverage.session1.undetected);
    let (h2, n2) = decile_hits(&pipeline.c2.netlist, &coverage.session2.undetected);
    let (hits, total) = (h1 + h2, n1 + n2);

    assert!(
        total > 0,
        "{name}: the truncated plan ({patterns} patterns) detected everything; \
         lower the budget so the validation exercises real escapes"
    );
    assert!(
        2 * hits >= total,
        "{name}: only {hits}/{total} undetected fault sites fall in the SCOAP \
         worst decile (need >= 50%)"
    );
}

// The budgets below are tuned so the plan is well past the
// everything-escapes regime (where escapes are decided by which patterns
// happened to be applied, not by intrinsic difficulty) but still short of
// full coverage: the surviving escapes are then the intrinsically hard
// faults SCOAP is supposed to point at.  All inputs are deterministic
// (fixed netlists, de Bruijn pattern sources), so the ratios are exact.

#[test]
fn undetected_faults_concentrate_on_scoap_worst_decile_bbtas() {
    assert_escapes_concentrate("bbtas", 20);
}

#[test]
fn undetected_faults_concentrate_on_scoap_worst_decile_dk17() {
    assert_escapes_concentrate("dk17", 24);
}

#[test]
fn undetected_faults_concentrate_on_scoap_worst_decile_dk27() {
    assert_escapes_concentrate("dk27", 6);
}
