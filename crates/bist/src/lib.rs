//! Built-in self-test (BIST) substrate: test registers, the single-stuck-at
//! fault model, fault simulation and the controller/BIST architecture
//! comparison of the paper.
//!
//! * [`Lfsr`], [`Bilbo`] — the multi-functional test registers used for
//!   pattern generation and (a [`Bilbo`] in [`BilboMode::SignatureAnalysis`])
//!   signature analysis;
//! * [`fault_list`], [`simulate_faults`] — single-stuck-at fault enumeration
//!   and serial fault simulation over gate-level netlists from `stc-logic`;
//! * [`evaluate_architectures`] — the quantitative comparison of the four
//!   structures of Figs. 1–4 (flip-flops, gates, literals, logic depth,
//!   achievable fault coverage, untestable feedback-line faults);
//! * [`pipeline_self_test`] — the two-session self-test of the pipeline
//!   structure with signature-based fault detection, simulated bit-parallel
//!   from per-session impulse responses (exact by linearity of the MISR);
//! * [`simulate_faults_packed`] / [`measure_plan_coverage`] — the
//!   bit-parallel (PP-SFP) fault simulator and the exact single-stuck-at
//!   coverage of the two-session plan it enables;
//! * [`optimize_plan`] — the coverage-driven plan search, simulating four
//!   pattern-source candidates per wide superblock.
//!
//! All three simulate faults with one cone-restricted kernel, serially on
//! the calling thread: the good circuit is swept once per 256-pattern
//! superblock, and each fault re-evaluates only its site's fanout cone —
//! or nothing, when the superblock does not excite it.  The results are
//! bit-identical to whole-netlist faulty sweeps.  The crate spawns no
//! threads; callers parallelise across machines, not within one.  The
//! scalar `simulate_faults` and the doc-hidden `pipeline_self_test_scalar`
//! are the references the packed paths are property-tested against, and
//! the full faulty sweep
//! ([`stc_logic::Netlist::eval_packed_wide_into`] with a fault) is the
//! oracle the kernel is checked against.
//!
//! # Example
//!
//! ```
//! use stc_bist::{evaluate_architectures, Architecture, ArchitectureOptions};
//! use stc_fsm::paper_example;
//!
//! let reports = evaluate_architectures(&paper_example(), &ArchitectureOptions::default());
//! let pipeline = &reports[3];
//! let conventional_bist = &reports[1];
//! assert_eq!(pipeline.architecture, Architecture::PipelineBist);
//! assert!(pipeline.flipflops <= conventional_bist.flipflops);
//! assert_eq!(pipeline.untestable_faults, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod architecture;
mod bilbo;
mod cone;
mod coverage;
mod fault;
mod lfsr;
mod optimize;
mod session;
#[cfg(test)]
mod test_support;

pub use architecture::{
    evaluate_architectures, Architecture, ArchitectureOptions, ArchitectureReport,
};
pub use bilbo::{Bilbo, BilboMode};
pub use coverage::{coverage_fraction, measure_plan_coverage, BlockCoverage, PlanCoverage};
pub use fault::{
    exhaustive_patterns, fault_list, lfsr_patterns, simulate_faults, simulate_faults_packed,
    FaultSimReport, PackedPatterns, StuckAtFault,
};
pub use lfsr::{reciprocal_taps, width_mask, Lfsr, PRIMITIVE_TAPS};
pub use optimize::{
    measure_optimized_plan, optimize_plan, optimize_plan_with, OptimizeOptions, OptimizeProgress,
    PlanOptimization, SessionOptimization,
};
pub use session::{
    analyser_width, good_signature, pipeline_self_test, pipeline_self_test_scalar,
    session_patterns, session_patterns_from, session_source_width, SelfTestResult, SessionResult,
    AUX_LFSR_SEED, AUX_LFSR_TAPS, AUX_LFSR_WIDTH,
};
