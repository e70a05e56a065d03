//! The `#![no_std]` Rust backend: lowers the three combinational blocks to
//! straight-line boolean expressions and embeds the two-session self-test
//! with its expected signatures.

use crate::{sanitize_module_name, EmittedModule, SelfTestSpec, SessionSpec};
use stc_bist::{
    analyser_width, session_source_width, width_mask, AUX_LFSR_SEED, AUX_LFSR_TAPS, AUX_LFSR_WIDTH,
    PRIMITIVE_TAPS,
};
use stc_logic::{Gate, Netlist, PipelineLogic};
use std::fmt::Write as _;

/// Emits one self-contained `#![no_std]` Rust module implementing the
/// controller and its embedded self-test.
///
/// The module compiles standalone (`rustc --crate-type rlib`) with no
/// dependencies: block logic is straight-line `let` bindings mirroring the
/// topological netlist evaluation, the state registers are plain `bool`
/// arrays, and the self-test replays the exact pattern source and MISR of
/// the synthesis-time session simulation, comparing against the baked-in
/// fault-free signatures.
#[must_use]
pub fn emit_rust(
    module_name: &str,
    pipeline: &PipelineLogic,
    spec: &SelfTestSpec,
) -> EmittedModule {
    let name = sanitize_module_name(module_name);
    let input_bits = pipeline.input_bits as usize;
    let r1_bits = pipeline.r1_bits as usize;
    let r2_bits = pipeline.r2_bits as usize;
    let output_bits = pipeline.output_bits as usize;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "//! Self-testable pipeline controller `{name}`, generated by `stc emit`."
    );
    s.push_str(
        "//!\n\
         //! Two-block pipeline decomposition: registers `R1`/`R2`, next-state\n\
         //! blocks `C1`/`C2` and output logic `lambda`.  The embedded two-session\n\
         //! self-test drives each block exhaustively from a modified (de Bruijn)\n\
         //! LFSR while the opposite register compacts the responses into a MISR\n\
         //! signature; the fault-free signatures are baked in below.\n\
         //!\n\
         //! Generated file — do not edit by hand.\n\
         #![no_std]\n\
         #![forbid(unsafe_code)]\n\n",
    );

    // Width constants.
    s.push_str("/// Primary-input bits of the controller.\n");
    let _ = writeln!(s, "pub const INPUT_BITS: usize = {input_bits};");
    s.push_str("/// Width of state register R1.\n");
    let _ = writeln!(s, "pub const R1_BITS: usize = {r1_bits};");
    s.push_str("/// Width of state register R2.\n");
    let _ = writeln!(s, "pub const R2_BITS: usize = {r2_bits};");
    s.push_str("/// Primary-output bits of the controller.\n");
    let _ = writeln!(s, "pub const OUTPUT_BITS: usize = {output_bits};");
    s.push_str("/// Input-cone width of block C1 (primary inputs plus R1).\n");
    s.push_str("pub const C1_INPUTS: usize = INPUT_BITS + R1_BITS;\n");
    s.push_str("/// Input-cone width of block C2 (primary inputs plus R2).\n");
    s.push_str("pub const C2_INPUTS: usize = INPUT_BITS + R2_BITS;\n");
    s.push_str("/// Input-cone width of the output logic (primary inputs plus both registers).\n");
    s.push_str("pub const LAMBDA_INPUTS: usize = INPUT_BITS + R1_BITS + R2_BITS;\n\n");

    // Block logic.
    block_fn(
        &mut s,
        "c1",
        "Next-state block C1: `(x, R1)` to the next contents of R2.",
        &pipeline.c1.netlist,
        "C1_INPUTS",
        "R2_BITS",
    );
    block_fn(
        &mut s,
        "c2",
        "Next-state block C2: `(x, R2)` to the next contents of R1.",
        &pipeline.c2.netlist,
        "C2_INPUTS",
        "R1_BITS",
    );
    block_fn(
        &mut s,
        "lambda",
        "Output logic: `(x, R1, R2)` to the primary outputs.",
        &pipeline.output.netlist,
        "LAMBDA_INPUTS",
        "OUTPUT_BITS",
    );

    controller(&mut s);
    self_test(&mut s, pipeline, spec);

    EmittedModule {
        file_name: format!("{name}.rs"),
        module: name,
        source: s,
    }
}

/// Lowers one combinational block to a straight-line function.  Only nodes
/// with a path to a primary output are emitted (mirroring the dead-logic
/// analysis), so every binding is used and the function compiles clean.
fn block_fn(
    s: &mut String,
    fn_name: &str,
    doc: &str,
    netlist: &Netlist,
    in_const: &str,
    out_const: &str,
) {
    let gates = netlist.gates();
    let mut live = vec![false; gates.len()];
    for &o in netlist.outputs() {
        live[o] = true;
    }
    for id in (0..gates.len()).rev() {
        if live[id] {
            for &f in gates[id].fanins() {
                live[f] = true;
            }
        }
    }
    let operand = |j: usize| -> String {
        match &gates[j] {
            Gate::Input(i) => format!("inputs[{i}]"),
            Gate::Const(c) => format!("{c}"),
            _ => format!("n{j}"),
        }
    };

    let mut body = String::new();
    let mut uses_inputs = false;
    for (id, gate) in gates.iter().enumerate() {
        if !live[id] {
            continue;
        }
        let expr = match gate {
            Gate::Input(_) | Gate::Const(_) => continue,
            Gate::Not(a) => format!("!{}", operand(*a)),
            Gate::And(xs) if xs.is_empty() => "true".to_string(),
            Gate::Or(xs) if xs.is_empty() => "false".to_string(),
            Gate::And(xs) => xs
                .iter()
                .map(|&x| operand(x))
                .collect::<Vec<_>>()
                .join(" && "),
            Gate::Or(xs) => xs
                .iter()
                .map(|&x| operand(x))
                .collect::<Vec<_>>()
                .join(" || "),
        };
        if expr.contains("inputs[") {
            uses_inputs = true;
        }
        let _ = writeln!(body, "    let n{id} = {expr};");
    }
    let outs: Vec<String> = netlist.outputs().iter().map(|&o| operand(o)).collect();
    if outs.iter().any(|e| e.contains("inputs[")) {
        uses_inputs = true;
    }

    let _ = writeln!(s, "/// {doc}");
    s.push_str("#[must_use]\n");
    let _ = writeln!(
        s,
        "pub fn {fn_name}(inputs: &[bool; {in_const}]) -> [bool; {out_const}] {{"
    );
    if !uses_inputs {
        s.push_str("    let _ = inputs;\n");
    }
    s.push_str(&body);
    let _ = writeln!(s, "    [{}]", outs.join(", "));
    s.push_str("}\n\n");
}

/// The register pair and the clocked system step.
fn controller(s: &mut String) {
    s.push_str(
        "/// The pipeline controller: state registers R1 and R2 around the\n\
         /// combinational blocks.  Both registers reset to all-zero.\n\
         #[derive(Debug, Clone, Copy, PartialEq, Eq)]\n\
         pub struct Controller {\n\
         \x20   r1: [bool; R1_BITS],\n\
         \x20   r2: [bool; R2_BITS],\n\
         }\n\
         \n\
         impl Controller {\n\
         \x20   /// A controller with both registers cleared.\n\
         \x20   #[must_use]\n\
         \x20   pub const fn new() -> Self {\n\
         \x20       Self { r1: [false; R1_BITS], r2: [false; R2_BITS] }\n\
         \x20   }\n\
         \n\
         \x20   /// Current contents of register R1 (most significant bit first).\n\
         \x20   #[must_use]\n\
         \x20   pub fn r1(&self) -> &[bool; R1_BITS] {\n\
         \x20       &self.r1\n\
         \x20   }\n\
         \n\
         \x20   /// Current contents of register R2 (most significant bit first).\n\
         \x20   #[must_use]\n\
         \x20   pub fn r2(&self) -> &[bool; R2_BITS] {\n\
         \x20       &self.r2\n\
         \x20   }\n\
         \n\
         \x20   /// Applies one clock edge: the outputs are computed from the current\n\
         \x20   /// register contents, then R2 captures `C1(x, R1)` and R1 captures\n\
         \x20   /// `C2(x, R2)`.\n\
         \x20   pub fn step(&mut self, inputs: &[bool; INPUT_BITS]) -> [bool; OUTPUT_BITS] {\n\
         \x20       let mut c1_in = [false; C1_INPUTS];\n\
         \x20       c1_in[..INPUT_BITS].copy_from_slice(inputs);\n\
         \x20       c1_in[INPUT_BITS..].copy_from_slice(&self.r1);\n\
         \x20       let mut c2_in = [false; C2_INPUTS];\n\
         \x20       c2_in[..INPUT_BITS].copy_from_slice(inputs);\n\
         \x20       c2_in[INPUT_BITS..].copy_from_slice(&self.r2);\n\
         \x20       let mut lambda_in = [false; LAMBDA_INPUTS];\n\
         \x20       lambda_in[..INPUT_BITS].copy_from_slice(inputs);\n\
         \x20       lambda_in[INPUT_BITS..INPUT_BITS + R1_BITS].copy_from_slice(&self.r1);\n\
         \x20       lambda_in[INPUT_BITS + R1_BITS..].copy_from_slice(&self.r2);\n\
         \x20       let outputs = lambda(&lambda_in);\n\
         \x20       let next_r2 = c1(&c1_in);\n\
         \x20       let next_r1 = c2(&c2_in);\n\
         \x20       self.r1 = next_r1;\n\
         \x20       self.r2 = next_r2;\n\
         \x20       outputs\n\
         \x20   }\n\
         }\n\
         \n\
         impl Default for Controller {\n\
         \x20   fn default() -> Self {\n\
         \x20       Self::new()\n\
         \x20   }\n\
         }\n\n",
    );
}

/// Renders a tap list as a Rust slice literal.
fn taps_literal(taps: &[u32]) -> String {
    let items: Vec<String> = taps.iter().map(u32::to_string).collect();
    format!("&[{}]", items.join(", "))
}

/// The embedded two-session self-test: constants, the shared LFSR feedback
/// helper, one function per session and the pass/fail entry point.
fn self_test(s: &mut String, pipeline: &PipelineLogic, spec: &SelfTestSpec) {
    let sessions = [
        SessionCtx {
            number: 1,
            block_fn: "c1",
            cone_const: "C1_INPUTS",
            cone: pipeline.c1.netlist.num_inputs(),
            source_width: session_source_width(&pipeline.c1.netlist),
            response_const: "R2_BITS",
            spec: &spec.session1,
            ana_width: analyser_width(pipeline.r2_bits),
        },
        SessionCtx {
            number: 2,
            block_fn: "c2",
            cone_const: "C2_INPUTS",
            cone: pipeline.c2.netlist.num_inputs(),
            source_width: session_source_width(&pipeline.c2.netlist),
            response_const: "R1_BITS",
            spec: &spec.session2,
            ana_width: analyser_width(pipeline.r1_bits),
        },
    ];

    for ctx in &sessions {
        session_constants(s, ctx);
    }

    if sessions.iter().any(|c| c.cone > c.source_width as usize) {
        let _ = writeln!(
            s,
            "/// Feedback taps of the auxiliary {AUX_LFSR_WIDTH}-bit LFSR that pads input cones\n\
             /// wider than the main pattern source."
        );
        let _ = writeln!(
            s,
            "const AUX_TAPS: &[u32] = {};\n",
            taps_literal(AUX_LFSR_TAPS)
        );
    }
    s.push_str(
        "/// XOR of the tapped stages of an LFSR state (1-based tap positions).\n\
         fn lfsr_feedback(state: u64, taps: &[u32]) -> u64 {\n\
         \x20   let mut acc = 0u64;\n\
         \x20   for &t in taps {\n\
         \x20       acc ^= (state >> (t - 1)) & 1;\n\
         \x20   }\n\
         \x20   acc\n\
         }\n\n",
    );

    for ctx in &sessions {
        session_fn(s, ctx);
    }

    s.push_str(
        "/// Runs both self-test sessions and compares the collected signatures\n\
         /// against the baked-in fault-free references.\n\
         #[must_use]\n\
         pub fn self_test() -> bool {\n\
         \x20   self_test_session1() == EXPECTED_SIGNATURE_SESSION1\n\
         \x20       && self_test_session2() == EXPECTED_SIGNATURE_SESSION2\n\
         }\n",
    );
}

/// Emit-time facts about one session.
struct SessionCtx<'a> {
    number: u32,
    block_fn: &'a str,
    cone_const: &'a str,
    /// Input-cone width of the block under test.
    cone: usize,
    /// Width of the combined de Bruijn pattern source.
    source_width: u32,
    response_const: &'a str,
    spec: &'a SessionSpec,
    ana_width: u32,
}

fn session_constants(s: &mut String, ctx: &SessionCtx<'_>) {
    let n = ctx.number;
    let under_test = ctx.block_fn.to_uppercase();
    let _ = writeln!(
        s,
        "/// Feedback taps (1-based) of the session-{n} de Bruijn pattern source."
    );
    let _ = writeln!(
        s,
        "pub const SESSION{n}_TAPS: &[u32] = {};",
        taps_literal(&ctx.spec.taps)
    );
    let _ = writeln!(s, "/// Seed of the session-{n} pattern source.");
    let _ = writeln!(s, "pub const SESSION{n}_SEED: u64 = 0x{:x};", ctx.spec.seed);
    let _ = writeln!(s, "/// Number of test patterns session {n} applies.");
    let _ = writeln!(
        s,
        "pub const SESSION{n}_PATTERNS: usize = {};",
        ctx.spec.patterns
    );
    let _ = writeln!(
        s,
        "/// Width of the session-{n} pattern source (input cone of {under_test}, clamped to 24)."
    );
    let _ = writeln!(
        s,
        "pub const SESSION{n}_SOURCE_WIDTH: u32 = {};",
        ctx.source_width
    );
    let _ = writeln!(s, "/// Width of the session-{n} signature analyser.");
    let _ = writeln!(
        s,
        "pub const SESSION{n}_ANA_WIDTH: u32 = {};",
        ctx.ana_width
    );
    let _ = writeln!(
        s,
        "/// Feedback taps of the session-{n} signature analyser."
    );
    let _ = writeln!(
        s,
        "pub const SESSION{n}_ANA_TAPS: &[u32] = {};",
        taps_literal(PRIMITIVE_TAPS[ctx.ana_width as usize])
    );
    let _ = writeln!(
        s,
        "/// Fault-free signature session {n} must collect ({under_test} under test)."
    );
    let _ = writeln!(
        s,
        "pub const EXPECTED_SIGNATURE_SESSION{n}: u64 = 0x{:x};\n",
        ctx.spec.expected_signature
    );
}

fn session_fn(s: &mut String, ctx: &SessionCtx<'_>) {
    let n = ctx.number;
    let block = ctx.block_fn;
    let under_test = block.to_uppercase();
    let cone = ctx.cone_const;
    let resp = ctx.response_const;
    let needs_aux = ctx.cone > ctx.source_width as usize;

    let _ = writeln!(
        s,
        "/// Runs self-test session {n} ({under_test} under test) and returns the collected"
    );
    s.push_str("/// MISR signature.\n#[must_use]\n");
    let _ = writeln!(s, "pub fn self_test_session{n}() -> u64 {{");
    let _ = writeln!(
        s,
        "    let source_mask: u64 = (1u64 << SESSION{n}_SOURCE_WIDTH) - 1;"
    );
    let _ = writeln!(
        s,
        "    let ana_mask: u64 = (1u64 << SESSION{n}_ANA_WIDTH) - 1;"
    );
    let _ = writeln!(
        s,
        "    let mut source: u64 = SESSION{n}_SEED & source_mask;"
    );
    if needs_aux {
        let _ = writeln!(s, "    let mut aux: u64 = 0x{AUX_LFSR_SEED:x};");
    }
    s.push_str("    let mut misr: u64 = 0;\n");
    let _ = writeln!(s, "    let mut inputs = [false; {cone}];");
    let _ = writeln!(s, "    for _ in 0..SESSION{n}_PATTERNS {{");
    s.push_str("        // Modified (de Bruijn) step of the pattern source: the extra\n");
    s.push_str("        // NOR term splices the all-zero state into the cycle.\n");
    let _ = writeln!(
        s,
        "        let mut feedback = lfsr_feedback(source, SESSION{n}_TAPS);"
    );
    let _ = writeln!(
        s,
        "        if source & ((1u64 << (SESSION{n}_SOURCE_WIDTH - 1)) - 1) == 0 {{"
    );
    s.push_str("            feedback ^= 1;\n        }\n");
    s.push_str("        source = ((source << 1) | feedback) & source_mask;\n");
    s.push_str("        // The source register drives the input cone most significant bit\n");
    s.push_str("        // first, truncated to the cone width.\n");
    let _ = writeln!(
        s,
        "        let direct = if (SESSION{n}_SOURCE_WIDTH as usize) < {cone} {{"
    );
    let _ = writeln!(s, "            SESSION{n}_SOURCE_WIDTH as usize");
    let _ = writeln!(s, "        }} else {{\n            {cone}\n        }};");
    s.push_str("        for (k, slot) in inputs.iter_mut().take(direct).enumerate() {\n");
    let _ = writeln!(
        s,
        "            *slot = (source >> (SESSION{n}_SOURCE_WIDTH as usize - 1 - k)) & 1 == 1;"
    );
    s.push_str("        }\n");
    if needs_aux {
        let width = AUX_LFSR_WIDTH;
        let _ = writeln!(
            s,
            "        // Cones wider than the source get the excess bits from the\n\
             \x20       // free-running auxiliary LFSR, {width} bits per step.\n\
             \x20       let mut filled = direct;"
        );
        let _ = writeln!(s, "        while filled < {cone} {{");
        let _ = writeln!(
            s,
            "            aux = ((aux << 1) | lfsr_feedback(aux, AUX_TAPS)) & 0x{:x};",
            width_mask(width)
        );
        let _ = writeln!(
            s,
            "            let take = if {cone} - filled < {width} {{ {cone} - filled }} else {{ {width} }};"
        );
        let _ = writeln!(
            s,
            "            for k in 0..take {{\n\
             \x20               inputs[filled + k] = (aux >> ({} - k)) & 1 == 1;\n\
             \x20           }}\n\
             \x20           filled += take;\n\
             \x20       }}",
            width - 1
        );
    }
    let _ = writeln!(s, "        let response = {block}(&inputs);");
    s.push_str("        // MISR step: shift with feedback, then XOR-inject the response\n");
    s.push_str("        // word (most significant bit first, truncated or zero-padded to\n");
    s.push_str("        // the analyser width).\n");
    s.push_str("        let mut inject: u64 = 0;\n");
    let _ = writeln!(s, "        for k in 0..(SESSION{n}_ANA_WIDTH as usize) {{");
    let _ = writeln!(s, "            let bit = k < {resp} && response[k];");
    s.push_str("            inject = (inject << 1) | u64::from(bit);\n        }\n");
    let _ = writeln!(
        s,
        "        let fb = lfsr_feedback(misr, SESSION{n}_ANA_TAPS);"
    );
    s.push_str("        misr = (((misr << 1) | fb) ^ inject) & ana_mask;\n");
    s.push_str("    }\n    misr\n}\n\n");
}
