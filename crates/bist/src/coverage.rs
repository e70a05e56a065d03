//! Exact single-stuck-at coverage of the two-session BIST plan.
//!
//! The session simulation in [`crate::pipeline_self_test`] detects faults by
//! *signature comparison* — faithful to the hardware, but an estimate of the
//! plan's quality in two ways: aliasing can hide a detected fault, and the
//! signature tells nothing about *which* faults escape.  This module
//! measures the plan exactly: the same stimuli the plan applies
//! ([`crate::session_patterns`], driven by the actual de Bruijn LFSR
//! sources) are run through the bit-parallel fault simulator
//! ([`crate::simulate_faults_packed`]) with every block output observed, so
//! the result is the definitive detected/undetected split of the complete
//! single-stuck-at fault list under the plan's pattern budget.  The
//! simulation runs serially on the calling thread, so the report is a pure
//! function of the plan.
//!
//! The measured coverage is detection-at-the-block-outputs: a fault counts
//! as detected when some applied pattern produces a response that differs
//! from the fault-free one in at least one observed output.  Signature-based
//! session coverage can only be lower (aliasing), so
//! `session.coverage() <= measured.coverage()` always holds — pinned by a
//! unit test below.

use crate::fault::{fault_list, simulate_faults_packed, FaultSimReport, StuckAtFault};
use crate::session::session_patterns;
use stc_logic::{Netlist, PipelineLogic};

/// Exact coverage of one self-test session (one block under test).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockCoverage {
    /// Name of the block under test (`C1` or `C2`).
    pub block: String,
    /// Number of test patterns applied.
    pub patterns: usize,
    /// Size of the block's complete single-stuck-at fault list.
    pub total_faults: usize,
    /// Faults detected at the block outputs by at least one pattern.
    pub detected: usize,
    /// The faults no applied pattern detects, in fault-list order.
    pub undetected: Vec<StuckAtFault>,
}

impl BlockCoverage {
    /// Measured fault coverage as a fraction in `[0, 1]`; `0.0` for an
    /// empty fault list (no fault was demonstrated detectable).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        coverage_fraction(self.detected, self.total_faults)
    }

    pub(crate) fn from_report(block: &str, report: FaultSimReport) -> Self {
        Self {
            block: block.to_string(),
            patterns: report.patterns,
            total_faults: report.total_faults,
            detected: report.detected,
            undetected: report.undetected,
        }
    }
}

/// Exact single-stuck-at coverage of the complete two-session plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCoverage {
    /// Session 1: `C1` under test.
    pub session1: BlockCoverage,
    /// Session 2: `C2` under test.
    pub session2: BlockCoverage,
}

impl PlanCoverage {
    /// Total faults over both blocks.
    #[must_use]
    pub fn total_faults(&self) -> usize {
        self.session1.total_faults + self.session2.total_faults
    }

    /// Detected faults over both blocks.
    #[must_use]
    pub fn detected(&self) -> usize {
        self.session1.detected + self.session2.detected
    }

    /// Undetected faults over both blocks.
    #[must_use]
    pub fn undetected_faults(&self) -> usize {
        self.session1.undetected.len() + self.session2.undetected.len()
    }

    /// Measured fault coverage over both blocks as a fraction in `[0, 1]`;
    /// `0.0` when both fault lists are empty.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        coverage_fraction(self.detected(), self.total_faults())
    }
}

/// The shared coverage convention: `detected / total`, with an empty fault
/// list reporting `0.0` — no fault was demonstrated detectable — rather
/// than a vacuous `1.0` or a silent `0/0 = NaN`.
#[must_use]
pub fn coverage_fraction(detected: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        detected as f64 / total as f64
    }
}

/// Measures the exact single-stuck-at coverage of the two-session plan:
/// `patterns_per_session` stimuli from each session's actual pattern source
/// are fault-simulated bit-parallel against each block's complete fault
/// list.
#[must_use]
pub fn measure_plan_coverage(
    pipeline: &PipelineLogic,
    patterns_per_session: usize,
) -> PlanCoverage {
    PlanCoverage {
        session1: measure_block("C1", &pipeline.c1.netlist, patterns_per_session),
        session2: measure_block("C2", &pipeline.c2.netlist, patterns_per_session),
    }
}

fn measure_block(name: &str, block: &Netlist, patterns: usize) -> BlockCoverage {
    let stimuli = session_patterns(block, patterns);
    let faults = fault_list(block);
    let report = simulate_faults_packed(block, &stimuli, &faults, None);
    BlockCoverage::from_report(name, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::simulate_faults;
    use crate::session::pipeline_self_test;
    use stc_encoding::EncodedPipeline;
    use stc_fsm::paper_example;
    use stc_logic::{synthesize_pipeline, SynthOptions};
    use stc_synth::solve;

    fn example_pipeline() -> PipelineLogic {
        let m = paper_example();
        let outcome = solve(&m);
        let realization = outcome.best.realize(&m);
        let encoded = EncodedPipeline::new(&m, &realization);
        synthesize_pipeline(&encoded, SynthOptions::default())
    }

    #[test]
    fn measured_coverage_is_complete_for_the_worked_example() {
        // Each block's input cone is 2 bits; 4 de Bruijn patterns sweep it
        // exhaustively, so the plan detects every fault.
        let pipeline = example_pipeline();
        let coverage = measure_plan_coverage(&pipeline, 8);
        assert_eq!(coverage.detected(), coverage.total_faults());
        assert_eq!(coverage.undetected_faults(), 0);
        assert!((coverage.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_uses_the_plan_patterns_not_an_arbitrary_set() {
        let pipeline = example_pipeline();
        let coverage = measure_plan_coverage(&pipeline, 5);
        for (session, block) in [
            (&coverage.session1, &pipeline.c1.netlist),
            (&coverage.session2, &pipeline.c2.netlist),
        ] {
            let stimuli = crate::session::session_patterns(block, 5);
            let reference = simulate_faults(block, &stimuli, &fault_list(block), None);
            assert_eq!(session.patterns, 5);
            assert_eq!(session.detected, reference.detected);
            assert_eq!(session.undetected, reference.undetected);
        }
    }

    #[test]
    fn signature_coverage_never_exceeds_measured_coverage() {
        let pipeline = example_pipeline();
        for patterns in [1, 3, 16, 64] {
            let plan = pipeline_self_test(&pipeline, patterns);
            let measured = measure_plan_coverage(&pipeline, patterns);
            assert!(
                plan.session1.detected_faults <= measured.session1.detected,
                "patterns = {patterns}"
            );
            assert!(
                plan.session2.detected_faults <= measured.session2.detected,
                "patterns = {patterns}"
            );
        }
    }

    #[test]
    fn coverage_fraction_defines_the_empty_case_as_zero() {
        assert_eq!(coverage_fraction(0, 0), 0.0);
        assert_eq!(coverage_fraction(3, 4), 0.75);
    }
}
