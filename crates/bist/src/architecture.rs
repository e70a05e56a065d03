//! The four controller/BIST architectures of Figs. 1–4 and their quantitative
//! comparison (flip-flops, area, delay, achievable fault coverage).

use crate::coverage::coverage_fraction;
use crate::fault::{fault_list, lfsr_patterns, simulate_faults_packed, StuckAtFault};
use stc_encoding::{EncodedMachine, EncodedPipeline};
use stc_fsm::Mealy;
use stc_logic::{synthesize_controller, synthesize_pipeline, Gate, Netlist, SynthOptions};
use stc_synth::{OstrSolver, Realization, SolverConfig};

/// The controller structures compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Fig. 1: conventional synthesis, no self-test hardware.
    Conventional,
    /// Fig. 2: conventional BIST with an extra transparent test register `T`.
    ConventionalBist,
    /// Fig. 3: doubled system register and doubled combinational circuitry.
    DoubledBist,
    /// Fig. 4: the paper's pipeline structure with registers `R1`, `R2` and
    /// blocks `C1`, `C2`.
    PipelineBist,
}

impl Architecture {
    /// All four architectures in figure order.
    #[must_use]
    pub fn all() -> [Architecture; 4] {
        [
            Architecture::Conventional,
            Architecture::ConventionalBist,
            Architecture::DoubledBist,
            Architecture::PipelineBist,
        ]
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Architecture::Conventional => "conventional (fig 1)",
            Architecture::ConventionalBist => "conventional BIST (fig 2)",
            Architecture::DoubledBist => "doubled BIST (fig 3)",
            Architecture::PipelineBist => "pipeline BIST (fig 4)",
        }
    }
}

/// Quantitative comparison data for one architecture on one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureReport {
    /// Which architecture the row describes.
    pub architecture: Architecture,
    /// Flip-flops (state registers plus any test registers).
    pub flipflops: u32,
    /// Logic gates (combinational blocks plus bypass multiplexers).
    pub gate_count: usize,
    /// Gate-input connections (area proxy).
    pub literal_count: usize,
    /// Combinational levels on the state path, including multiplexer levels
    /// introduced by transparent/bypass test registers.
    pub logic_depth: usize,
    /// Single-stuck-at fault coverage achievable by the architecture's
    /// self-test (`None` for the conventional structure, which has no BIST).
    pub fault_coverage: Option<f64>,
    /// Number of faults that are structurally untestable by the self-test
    /// (the feedback-line faults of Fig. 2; zero for Figs. 3 and 4).
    pub untestable_faults: usize,
}

/// Options for the architecture evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchitectureOptions {
    /// Number of pseudo-random patterns applied per self-test session.
    pub patterns_per_session: usize,
    /// Logic-synthesis options.
    pub synth: SynthOptions,
    /// OSTR solver configuration (for the pipeline architecture).
    pub solver: SolverConfig,
}

impl Default for ArchitectureOptions {
    fn default() -> Self {
        Self {
            patterns_per_session: 256,
            synth: SynthOptions::default(),
            solver: SolverConfig::default(),
        }
    }
}

/// Evaluates all four architectures for one machine.
///
/// The returned vector is ordered as [`Architecture::all`].
#[must_use]
pub fn evaluate_architectures(
    machine: &Mealy,
    options: &ArchitectureOptions,
) -> Vec<ArchitectureReport> {
    let encoded = EncodedMachine::new(machine);
    let controller = synthesize_controller(&encoded, options.synth);
    let c_netlist = &controller.block.netlist;
    let state_bits = encoded.state_bits.max(1);
    let patterns = test_patterns(c_netlist.num_inputs(), options.patterns_per_session);

    // Fig. 1 — no self-test.
    let conventional = ArchitectureReport {
        architecture: Architecture::Conventional,
        flipflops: state_bits,
        gate_count: c_netlist.gate_count(),
        literal_count: c_netlist.literal_count(),
        logic_depth: c_netlist.depth(),
        fault_coverage: None,
        untestable_faults: 0,
    };

    // Fig. 2 — extra transparent test register T: double flip-flops, one
    // 2:1 multiplexer per state bit on the feedback path (3 gates / 4 literals
    // each, one extra logic level), and the feedback-line faults from R to the
    // inputs of C stay untested.
    let faults = fault_list(c_netlist);
    let feedback_nodes: Vec<usize> = state_input_nodes(c_netlist, encoded.input_bits as usize);
    let report = simulate_faults_packed(c_netlist, &patterns, &faults, None);
    let untestable: Vec<StuckAtFault> = faults
        .iter()
        .copied()
        .filter(|f| feedback_nodes.contains(&f.node))
        .collect();
    let detected_excluding_feedback = faults
        .iter()
        .filter(|f| !feedback_nodes.contains(&f.node))
        .filter(|f| !report.undetected.contains(f))
        .count();
    let conventional_bist = ArchitectureReport {
        architecture: Architecture::ConventionalBist,
        flipflops: 2 * state_bits,
        gate_count: c_netlist.gate_count() + 3 * state_bits as usize,
        literal_count: c_netlist.literal_count() + 4 * state_bits as usize,
        logic_depth: c_netlist.depth() + 1,
        fault_coverage: Some(coverage_fraction(detected_excluding_feedback, faults.len())),
        untestable_faults: untestable.len(),
    };

    // Fig. 3 — doubled register and combinational circuitry: no multiplexer,
    // no untestable faults, but twice the logic.
    let doubled = ArchitectureReport {
        architecture: Architecture::DoubledBist,
        flipflops: 2 * state_bits,
        gate_count: 2 * c_netlist.gate_count(),
        literal_count: 2 * c_netlist.literal_count(),
        logic_depth: c_netlist.depth(),
        fault_coverage: Some(report.coverage()),
        untestable_faults: 0,
    };

    // Fig. 4 — the pipeline structure synthesised by the OSTR solver.
    let outcome = OstrSolver::new(options.solver).solve(machine);
    let realization: Realization = outcome.best.realize(machine);
    let encoded_pipe = EncodedPipeline::new(machine, &realization);
    let pipeline = synthesize_pipeline(&encoded_pipe, options.synth);
    let blocks = [
        &pipeline.c1.netlist,
        &pipeline.c2.netlist,
        &pipeline.output.netlist,
    ];
    let mut total_faults = 0usize;
    let mut total_detected = 0usize;
    for netlist in blocks {
        let block_faults = fault_list(netlist);
        let block_patterns = test_patterns(netlist.num_inputs(), options.patterns_per_session);
        let block_report = simulate_faults_packed(netlist, &block_patterns, &block_faults, None);
        total_faults += block_report.total_faults;
        total_detected += block_report.detected;
    }
    let pipeline_report = ArchitectureReport {
        architecture: Architecture::PipelineBist,
        flipflops: pipeline.flipflops(),
        gate_count: pipeline.gate_count(),
        literal_count: pipeline.literal_count(),
        logic_depth: blocks.iter().map(|n| n.depth()).max().unwrap_or(0),
        fault_coverage: Some(coverage_fraction(total_detected, total_faults)),
        untestable_faults: 0,
    };

    vec![conventional, conventional_bist, doubled, pipeline_report]
}

/// Exhaustive patterns when the input space is small, pseudo-random LFSR
/// patterns otherwise.
fn test_patterns(num_inputs: usize, budget: usize) -> Vec<Vec<bool>> {
    if num_inputs <= 12 && (1usize << num_inputs) <= budget.max(16) {
        crate::fault::exhaustive_patterns(num_inputs)
    } else {
        lfsr_patterns(num_inputs, budget, 0x5eed)
    }
}

/// The netlist nodes corresponding to the present-state inputs of the
/// combinational block `C` (the feedback lines from register `R`).
fn state_input_nodes(netlist: &Netlist, primary_input_bits: usize) -> Vec<usize> {
    netlist
        .gates()
        .iter()
        .enumerate()
        .filter_map(|(id, g)| match g {
            Gate::Input(i) if *i >= primary_input_bits => Some(id),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_fsm::{benchmarks, paper_example};

    #[test]
    fn four_reports_in_figure_order() {
        let reports = evaluate_architectures(&paper_example(), &ArchitectureOptions::default());
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].architecture, Architecture::Conventional);
        assert_eq!(reports[3].architecture, Architecture::PipelineBist);
    }

    #[test]
    fn flipflop_counts_follow_the_paper() {
        let m = paper_example();
        let reports = evaluate_architectures(&m, &ArchitectureOptions::default());
        let conv = &reports[0];
        let conv_bist = &reports[1];
        let doubled = &reports[2];
        let pipeline = &reports[3];
        assert_eq!(conv.flipflops, 2);
        assert_eq!(conv_bist.flipflops, 4);
        assert_eq!(doubled.flipflops, 4);
        // The example decomposes into 1 + 1 bits.
        assert_eq!(pipeline.flipflops, 2);
        assert!(pipeline.flipflops <= conv_bist.flipflops);
    }

    #[test]
    fn transparent_register_adds_a_logic_level() {
        let reports = evaluate_architectures(&paper_example(), &ArchitectureOptions::default());
        assert_eq!(reports[1].logic_depth, reports[0].logic_depth + 1);
        assert_eq!(reports[2].logic_depth, reports[0].logic_depth);
    }

    #[test]
    fn pipeline_and_doubled_have_no_untestable_faults() {
        let reports = evaluate_architectures(&paper_example(), &ArchitectureOptions::default());
        assert!(
            reports[1].untestable_faults > 0,
            "fig 2 has untested feedback lines"
        );
        assert_eq!(reports[2].untestable_faults, 0);
        assert_eq!(reports[3].untestable_faults, 0);
    }

    #[test]
    fn pipeline_coverage_is_at_least_conventional_bist_coverage() {
        for name in ["shiftreg", "tav", "dk27"] {
            let m = benchmarks::by_name(name).unwrap().machine;
            let reports = evaluate_architectures(&m, &ArchitectureOptions::default());
            let conv_bist = reports[1].fault_coverage.unwrap();
            let pipeline = reports[3].fault_coverage.unwrap();
            assert!(
                pipeline + 0.02 >= conv_bist,
                "{name}: pipeline coverage {pipeline} < conventional BIST coverage {conv_bist}"
            );
        }
    }

    #[test]
    fn empty_netlists_report_zero_coverage_not_nan_or_vacuous_one() {
        // A one-state constant-output machine synthesises to a netlist with
        // no fault sites at all.  The coverage fields must then report the
        // defined 0.0 of `coverage_fraction` — not NaN (0/0) and not a
        // vacuous 1.0 — on every architecture that reports coverage.
        let machine = stc_fsm::MealyBuilder::new("constant", 1, 1, 1)
            .transition(0, 0, 0, 0)
            .unwrap()
            .build()
            .unwrap();
        let reports = evaluate_architectures(&machine, &ArchitectureOptions::default());
        for report in &reports {
            if let Some(coverage) = report.fault_coverage {
                assert_eq!(
                    coverage,
                    0.0,
                    "{}: expected the empty-fault-list convention",
                    report.architecture.name()
                );
                assert!(!coverage.is_nan());
            }
        }
        assert_eq!(reports[1].untestable_faults, 0);
    }

    #[test]
    fn doubled_logic_is_twice_the_conventional_logic() {
        let reports = evaluate_architectures(&paper_example(), &ArchitectureOptions::default());
        assert_eq!(reports[2].gate_count, 2 * reports[0].gate_count);
        assert_eq!(reports[2].literal_count, 2 * reports[0].literal_count);
    }
}
