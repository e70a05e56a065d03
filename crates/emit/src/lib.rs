//! Codegen backends: compiles a synthesized pipeline decomposition and its
//! BIST plan into deployable self-testable controller modules.
//!
//! The synthesis flow ends with three combinational blocks (`C1`, `C2`,
//! `lambda`), two state registers (`R1`, `R2`) and a two-session BIST plan
//! whose fault-free signatures are known.  This crate turns that package
//! into source text:
//!
//! * [`emit_rust`] — an allocation-free `#![no_std]` Rust module with the
//!   encoded state registers, the block logic lowered to straight-line
//!   boolean expressions, and a software-runnable two-session self-test
//!   (de Bruijn LFSR stimulus, MISR signature compaction, expected
//!   signatures baked in as constants);
//! * [`emit_verilog`] — a structural Verilog netlist view over the same
//!   gates, with the BIST wrapper of the paper's Fig. 4 as a separate
//!   module.
//!
//! Both backends consume a [`SelfTestSpec`], the emit-time contract that
//! pins the pattern sources (taps, seeds, session lengths) and the expected
//! signatures.  It is built either from the default plan
//! ([`SelfTestSpec::from_plan`]) or from an optimizer result
//! ([`SelfTestSpec::from_optimized`]); in both cases the baked-in
//! signatures replicate `stc_bist::pipeline_self_test` bit for bit, which
//! the workspace-level differential harness verifies by compiling and
//! running the emitted code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rust;
mod verilog;

pub use rust::emit_rust;
pub use verilog::emit_verilog;

use stc_bist::{
    good_signature, session_source_width, PlanOptimization, SelfTestResult, PRIMITIVE_TAPS,
};
use stc_logic::PipelineLogic;

/// Code-generation target of one emit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EmitTarget {
    /// Allocation-free `#![no_std]` Rust module with an embedded self-test.
    #[default]
    Rust,
    /// Structural Verilog netlist with a separate BIST wrapper module.
    Verilog,
}

impl EmitTarget {
    /// The canonical lower-case name (`"rust"` / `"verilog"`), as accepted
    /// by the `emit.target` configuration key.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EmitTarget::Rust => "rust",
            EmitTarget::Verilog => "verilog",
        }
    }

    /// Parses a canonical target name; `None` for anything else.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "rust" => Some(EmitTarget::Rust),
            "verilog" => Some(EmitTarget::Verilog),
            _ => None,
        }
    }
}

/// One generated source module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmittedModule {
    /// The module name (sanitized, valid as a Rust and Verilog identifier).
    pub module: String,
    /// Suggested file name (`<module>.rs` / `<module>.v`).
    pub file_name: String,
    /// The complete source text.
    pub source: String,
}

/// The pattern source and expected signature of one self-test session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Feedback taps (1-based) of the de Bruijn pattern source.
    pub taps: Vec<u32>,
    /// Seed of the pattern source.
    pub seed: u64,
    /// Number of test patterns the session applies.
    pub patterns: usize,
    /// The fault-free signature the analysing register must collect.
    pub expected_signature: u64,
}

/// The complete emit-time self-test contract: both sessions of the paper's
/// two-session BIST, with their pattern sources and fault-free signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTestSpec {
    /// Session 1: `R1` generates, `R2` analyses, `C1` is tested.
    pub session1: SessionSpec,
    /// Session 2: `R2` generates, `R1` analyses, `C2` is tested.
    pub session2: SessionSpec,
}

impl SelfTestSpec {
    /// Builds the spec of the *default* BIST plan: tabulated primitive
    /// polynomials, seed 1, and the session lengths and fault-free
    /// signatures of `result` (as produced by
    /// `stc_bist::pipeline_self_test`).
    #[must_use]
    pub fn from_plan(pipeline: &PipelineLogic, result: &SelfTestResult) -> Self {
        let w1 = session_source_width(&pipeline.c1.netlist);
        let w2 = session_source_width(&pipeline.c2.netlist);
        Self {
            session1: SessionSpec {
                taps: PRIMITIVE_TAPS[w1 as usize].to_vec(),
                seed: 0b1,
                patterns: result.session1.patterns,
                expected_signature: result.session1.good_signature,
            },
            session2: SessionSpec {
                taps: PRIMITIVE_TAPS[w2 as usize].to_vec(),
                seed: 0b1,
                patterns: result.session2.patterns,
                expected_signature: result.session2.good_signature,
            },
        }
    }

    /// Builds the spec of an *optimized* BIST plan: the taps, seeds and
    /// session lengths the optimizer picked, with the fault-free signatures
    /// recomputed from the actual stimuli (the optimizer reports coverage,
    /// not signatures).
    #[must_use]
    pub fn from_optimized(pipeline: &PipelineLogic, plan: &PlanOptimization) -> Self {
        let s1 = &plan.session1;
        let s2 = &plan.session2;
        Self {
            session1: SessionSpec {
                taps: s1.taps.clone(),
                seed: s1.seed,
                patterns: s1.length,
                expected_signature: good_signature(
                    &pipeline.c1.netlist,
                    pipeline.r2_bits,
                    &s1.taps,
                    s1.seed,
                    s1.length,
                ),
            },
            session2: SessionSpec {
                taps: s2.taps.clone(),
                seed: s2.seed,
                patterns: s2.length,
                expected_signature: good_signature(
                    &pipeline.c2.netlist,
                    pipeline.r1_bits,
                    &s2.taps,
                    s2.seed,
                    s2.length,
                ),
            },
        }
    }
}

/// Sanitizes a machine name into a valid Rust/Verilog identifier: ASCII
/// alphanumerics are kept (lower-cased), everything else becomes `_`, and a
/// leading digit is prefixed with `_`.  Empty names become `controller`.
#[must_use]
pub fn sanitize_module_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push_str("controller");
    }
    if out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_bist::{AUX_LFSR_SEED, AUX_LFSR_TAPS};
    use stc_encoding::EncodedPipeline;
    use stc_fsm::paper_example;
    use stc_logic::{synthesize_pipeline, Cover, Cube, SynthOptions, SynthesizedBlock};
    use stc_synth::solve;

    fn example_pipeline() -> PipelineLogic {
        let m = paper_example();
        let outcome = solve(&m);
        let realization = outcome.best.realize(&m);
        let encoded = EncodedPipeline::new(&m, &realization);
        synthesize_pipeline(&encoded, SynthOptions::default())
    }

    #[test]
    fn from_plan_signatures_match_an_independent_recomputation() {
        // `from_plan` copies the signatures out of the self-test result;
        // `good_signature` recomputes them from the default pattern source.
        // Agreement pins the replicated session semantics.
        let pipeline = example_pipeline();
        let result = stc_bist::pipeline_self_test(&pipeline, 64);
        let spec = SelfTestSpec::from_plan(&pipeline, &result);
        assert_eq!(spec.session1.patterns, 64);
        assert_eq!(
            spec.session1.expected_signature,
            good_signature(
                &pipeline.c1.netlist,
                pipeline.r2_bits,
                &spec.session1.taps,
                spec.session1.seed,
                64,
            )
        );
        assert_eq!(
            spec.session2.expected_signature,
            good_signature(
                &pipeline.c2.netlist,
                pipeline.r1_bits,
                &spec.session2.taps,
                spec.session2.seed,
                64,
            )
        );
    }

    #[test]
    fn from_optimized_recomputes_signatures_for_the_chosen_source() {
        let pipeline = example_pipeline();
        let result = stc_bist::pipeline_self_test(&pipeline, 64);
        let opts = stc_bist::OptimizeOptions::default();
        let plan = stc_bist::optimize_plan(&pipeline, &opts);
        let spec = SelfTestSpec::from_optimized(&pipeline, &plan);
        assert_eq!(spec.session1.patterns, plan.session1.length);
        assert_eq!(spec.session2.taps, plan.session2.taps);
        // When the optimizer lands on the default source with the default
        // length, the recomputed signature must equal the plan signature.
        let default = SelfTestSpec::from_plan(&pipeline, &result);
        if spec.session1.taps == default.session1.taps
            && spec.session1.seed == default.session1.seed
            && spec.session1.patterns == 64
        {
            assert_eq!(
                spec.session1.expected_signature,
                default.session1.expected_signature
            );
        }
    }

    #[test]
    fn wide_cones_write_the_aux_lfsr_from_the_bist_constants() {
        // A 30-input C1 cone exceeds the 24-bit pattern source, so both
        // backends pad it from the auxiliary LFSR.
        let mut pipeline = example_pipeline();
        let one = Cover::from_cubes(30, vec![Cube::universal(30)]);
        let options = SynthOptions::default();
        pipeline.c1 = SynthesizedBlock::from_covers("C1", 30, vec![one], &Cover::new(30), options);
        let result = stc_bist::pipeline_self_test(&pipeline, 16);
        let spec = SelfTestSpec::from_plan(&pipeline, &result);
        let rust = emit_rust("wide", &pipeline, &spec).source;
        let taps: Vec<String> = AUX_LFSR_TAPS.iter().map(u32::to_string).collect();
        assert!(rust.contains(&format!("const AUX_TAPS: &[u32] = &[{}];", taps.join(", "))));
        assert!(rust.contains(&format!("let mut aux: u64 = 0x{AUX_LFSR_SEED:x};")));
        let verilog = emit_verilog("wide", &pipeline, &spec).source;
        assert!(verilog.contains("aux_step = {a[14:0], a[15] ^ a[14] ^ a[12] ^ a[3]};"));
        assert!(verilog.contains(&format!("aux   <= 16'h{AUX_LFSR_SEED:x};")));
    }

    #[test]
    fn sanitize_handles_hostile_names() {
        assert_eq!(sanitize_module_name("bbsse"), "bbsse");
        assert_eq!(sanitize_module_name("Paper Example"), "paper_example");
        assert_eq!(sanitize_module_name("3bit-counter"), "_3bit_counter");
        assert_eq!(sanitize_module_name(""), "controller");
        assert_eq!(sanitize_module_name("§§"), "__");
    }

    #[test]
    fn emitted_rust_is_deterministic_and_freestanding() {
        let pipeline = example_pipeline();
        let result = stc_bist::pipeline_self_test(&pipeline, 64);
        let spec = SelfTestSpec::from_plan(&pipeline, &result);
        let a = emit_rust("paper_example", &pipeline, &spec);
        let b = emit_rust("paper_example", &pipeline, &spec);
        assert_eq!(a, b, "emission is a pure function of its inputs");
        assert_eq!(a.module, "paper_example");
        assert_eq!(a.file_name, "paper_example.rs");
        assert!(a.source.starts_with("//!"), "leads with module docs");
        assert!(a.source.contains("#![no_std]"));
        assert!(a.source.contains("pub fn self_test()"));
        assert!(a.source.contains(&format!(
            "pub const EXPECTED_SIGNATURE_SESSION1: u64 = 0x{:x};",
            spec.session1.expected_signature
        )));
        assert!(
            !a.source.contains("std::"),
            "no_std module must not name std"
        );
    }

    #[test]
    fn emitted_verilog_has_controller_blocks_and_bist_wrapper() {
        let pipeline = example_pipeline();
        let result = stc_bist::pipeline_self_test(&pipeline, 64);
        let spec = SelfTestSpec::from_plan(&pipeline, &result);
        let v = emit_verilog("paper_example", &pipeline, &spec);
        assert_eq!(v.file_name, "paper_example.v");
        for module in [
            "module paper_example (",
            "module paper_example_c1 (",
            "module paper_example_c2 (",
            "module paper_example_lambda (",
            "module paper_example_bist (",
        ] {
            assert!(v.source.contains(module), "missing {module}");
        }
        assert!(v.source.contains("always @(posedge clk)"));
        // Balanced module/endmodule pairs.
        let opens = v
            .source
            .lines()
            .filter(|l| l.starts_with("module "))
            .count();
        let closes = v.source.matches("endmodule").count();
        assert_eq!(opens, 5);
        assert_eq!(opens, closes);
    }
}
