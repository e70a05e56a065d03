//! The Verilog backend: a structural netlist view of the controller with
//! the two-session BIST wrapper of the paper's Fig. 4 as a separate module.

use crate::{sanitize_module_name, EmittedModule, SelfTestSpec, SessionSpec};
use stc_bist::{
    analyser_width, session_source_width, AUX_LFSR_SEED, AUX_LFSR_TAPS, AUX_LFSR_WIDTH,
    PRIMITIVE_TAPS,
};
use stc_logic::{Gate, Netlist, PipelineLogic};
use std::fmt::Write as _;

/// Emits one Verilog file containing:
///
/// * one structural module per combinational block (`<name>_c1`,
///   `<name>_c2`, and `<name>_lambda` when the controller has outputs),
///   a `wire` per live netlist node;
/// * the controller module `<name>` instantiating the blocks around the
///   clocked state registers `r1`/`r2`;
/// * the BIST wrapper `<name>_bist` sequencing the two self-test sessions
///   (de Bruijn pattern source, MISR compaction) and comparing against the
///   baked-in fault-free signatures.
#[must_use]
pub fn emit_verilog(
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
        "// Self-testable pipeline controller `{name}`, generated by `stc emit`."
    );
    s.push_str(
        "//\n\
         // Two-block pipeline decomposition: registers r1/r2, next-state blocks\n\
         // C1/C2 and output logic lambda, plus the two-session BIST wrapper in\n\
         // which each register alternates between pattern generation and\n\
         // signature analysis (no transparent mode is needed).\n\
         //\n\
         // Generated file - do not edit by hand.\n\n",
    );

    block_module(
        &mut s,
        &format!("{name}_c1"),
        "Next-state block C1: {x, r1} -> next r2.",
        &pipeline.c1.netlist,
    );
    block_module(
        &mut s,
        &format!("{name}_c2"),
        "Next-state block C2: {x, r2} -> next r1.",
        &pipeline.c2.netlist,
    );
    if output_bits > 0 {
        block_module(
            &mut s,
            &format!("{name}_lambda"),
            "Output logic: {x, r1, r2} -> y.",
            &pipeline.output.netlist,
        );
    }
    controller_module(&mut s, &name, input_bits, r1_bits, r2_bits, output_bits);
    bist_module(&mut s, &name, pipeline, spec);

    EmittedModule {
        file_name: format!("{name}.v"),
        module: name,
        source: s,
    }
}

/// Lowers one combinational block to a structural module with a `wire` per
/// live node.  Bit `i[w-1-k]` carries block input `k` (the blocks consume
/// their input vectors most significant bit first).
fn block_module(s: &mut String, module: &str, doc: &str, netlist: &Netlist) {
    let gates = netlist.gates();
    let cone = netlist.num_inputs();
    let out_w = netlist.num_outputs();
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
            Gate::Input(k) => format!("i[{}]", cone - 1 - k),
            Gate::Const(true) => "1'b1".to_string(),
            Gate::Const(false) => "1'b0".to_string(),
            _ => format!("n{j}"),
        }
    };

    let _ = writeln!(s, "// {doc}");
    let _ = writeln!(s, "module {module} (");
    let _ = writeln!(s, "    input  wire [{}:0] i,", cone - 1);
    let _ = writeln!(s, "    output wire [{}:0] o", out_w - 1);
    s.push_str(");\n");
    for (id, gate) in gates.iter().enumerate() {
        if !live[id] {
            continue;
        }
        let expr = match gate {
            Gate::Input(_) | Gate::Const(_) => continue,
            Gate::Not(a) => format!("~{}", operand(*a)),
            Gate::And(xs) if xs.is_empty() => "1'b1".to_string(),
            Gate::Or(xs) if xs.is_empty() => "1'b0".to_string(),
            Gate::And(xs) => xs
                .iter()
                .map(|&x| operand(x))
                .collect::<Vec<_>>()
                .join(" & "),
            Gate::Or(xs) => xs
                .iter()
                .map(|&x| operand(x))
                .collect::<Vec<_>>()
                .join(" | "),
        };
        let _ = writeln!(s, "    wire n{id} = {expr};");
    }
    for (k, &o) in netlist.outputs().iter().enumerate() {
        let _ = writeln!(s, "    assign o[{}] = {};", out_w - 1 - k, operand(o));
    }
    s.push_str("endmodule\n\n");
}

/// Joins the non-empty parts of a Verilog concatenation, collapsing the
/// braces when only one part remains.
fn concat(parts: &[&str]) -> String {
    let parts: Vec<&str> = parts.iter().copied().filter(|p| !p.is_empty()).collect();
    if parts.len() == 1 {
        parts[0].to_string()
    } else {
        format!("{{{}}}", parts.join(", "))
    }
}

fn controller_module(
    s: &mut String,
    name: &str,
    input_bits: usize,
    r1_bits: usize,
    r2_bits: usize,
    output_bits: usize,
) {
    let x = if input_bits > 0 { "x" } else { "" };
    s.push_str("// The controller: clocked registers around the combinational blocks.\n");
    let _ = writeln!(s, "module {name} (");
    s.push_str("    input  wire clk,\n    input  wire rst,\n");
    if input_bits > 0 {
        let _ = writeln!(s, "    input  wire [{}:0] x,", input_bits - 1);
    }
    if output_bits > 0 {
        let _ = writeln!(s, "    output wire [{}:0] y", output_bits - 1);
    } else {
        // No outputs: close the port list after rst (drop the trailing comma).
        let trimmed = s.trim_end_matches('\n').trim_end_matches(',').to_string();
        s.clear();
        s.push_str(&trimmed);
        s.push('\n');
    }
    s.push_str(");\n");
    let _ = writeln!(s, "    reg  [{}:0] r1;", r1_bits - 1);
    let _ = writeln!(s, "    reg  [{}:0] r2;", r2_bits - 1);
    let _ = writeln!(s, "    wire [{}:0] r1_next;", r1_bits - 1);
    let _ = writeln!(s, "    wire [{}:0] r2_next;", r2_bits - 1);
    s.push('\n');
    let _ = writeln!(
        s,
        "    {name}_c1 u_c1 (.i({}), .o(r2_next));",
        concat(&[x, "r1"])
    );
    let _ = writeln!(
        s,
        "    {name}_c2 u_c2 (.i({}), .o(r1_next));",
        concat(&[x, "r2"])
    );
    if output_bits > 0 {
        let _ = writeln!(
            s,
            "    {name}_lambda u_lambda (.i({}), .o(y));",
            concat(&[x, "r1", "r2"])
        );
    }
    s.push_str("\n    always @(posedge clk) begin\n        if (rst) begin\n");
    let _ = writeln!(s, "            r1 <= {{{r1_bits}{{1'b0}}}};");
    let _ = writeln!(s, "            r2 <= {{{r2_bits}{{1'b0}}}};");
    s.push_str(
        "        end else begin\n\
         \x20           r1 <= r1_next;\n\
         \x20           r2 <= r2_next;\n\
         \x20       end\n\
         \x20   end\n\
         endmodule\n\n",
    );
}

/// Emit-time facts about one BIST session of the wrapper.
struct VSession<'a> {
    number: u32,
    block_module: String,
    /// Input-cone width of the block under test.
    cone: usize,
    /// Width of the combined de Bruijn pattern source.
    source_width: usize,
    /// Block output (response) width.
    response: usize,
    spec: &'a SessionSpec,
    ana_width: usize,
}

impl VSession<'_> {
    /// Number of [`AUX_LFSR_WIDTH`]-bit auxiliary-LFSR chunks padding the
    /// input cone.
    fn aux_chunks(&self) -> usize {
        (self.cone - self.source_width).div_ceil(AUX_LFSR_WIDTH as usize)
    }
}

/// Reloads the auxiliary LFSR with its seed, at `indent` spaces.
fn aux_reset(s: &mut String, indent: usize) {
    let _ = writeln!(
        s,
        "{:indent$}aux   <= {AUX_LFSR_WIDTH}'h{AUX_LFSR_SEED:x};",
        ""
    );
}

/// XOR expression over the tapped stages of a register signal.
fn tap_xor(signal: &str, taps: &[u32]) -> String {
    taps.iter()
        .map(|&t| format!("{signal}[{}]", t - 1))
        .collect::<Vec<_>>()
        .join(" ^ ")
}

fn bist_module(s: &mut String, name: &str, pipeline: &PipelineLogic, spec: &SelfTestSpec) {
    let sessions = [
        VSession {
            number: 1,
            block_module: format!("{name}_c1"),
            cone: pipeline.c1.netlist.num_inputs(),
            source_width: session_source_width(&pipeline.c1.netlist) as usize,
            response: pipeline.r2_bits as usize,
            spec: &spec.session1,
            ana_width: analyser_width(pipeline.r2_bits) as usize,
        },
        VSession {
            number: 2,
            block_module: format!("{name}_c2"),
            cone: pipeline.c2.netlist.num_inputs(),
            source_width: session_source_width(&pipeline.c2.netlist) as usize,
            response: pipeline.r1_bits as usize,
            spec: &spec.session2,
            ana_width: analyser_width(pipeline.r1_bits) as usize,
        },
    ];
    let any_aux = sessions.iter().any(|c| c.aux_chunks() > 0);

    s.push_str(
        "// Two-session BIST wrapper: session 1 drives C1 from the de Bruijn\n\
         // pattern source and compacts its responses in a MISR; session 2 swaps\n\
         // the register roles and tests C2.  `pass` is asserted with `done` when\n\
         // both signatures match the baked-in fault-free references.\n",
    );
    let _ = writeln!(s, "module {name}_bist (");
    s.push_str(
        "    input  wire clk,\n\
         \x20   input  wire rst,\n\
         \x20   input  wire run,\n\
         \x20   output reg  done,\n\
         \x20   output reg  pass\n\
         );\n\
         \x20   localparam [1:0] ST_IDLE = 2'd0;\n\
         \x20   localparam [1:0] ST_S1   = 2'd1;\n\
         \x20   localparam [1:0] ST_S2   = 2'd2;\n\
         \x20   localparam [1:0] ST_DONE = 2'd3;\n\
         \n\
         \x20   reg [1:0]  state;\n\
         \x20   reg [31:0] count;\n\
         \x20   reg        s1_ok;\n",
    );
    if any_aux {
        let msb = AUX_LFSR_WIDTH - 1;
        let _ = writeln!(
            s,
            "\n\
             \x20   // Auxiliary {AUX_LFSR_WIDTH}-bit LFSR padding input cones wider than the source.\n\
             \x20   reg [{msb}:0] aux;\n\
             \x20   function [{msb}:0] aux_step(input [{msb}:0] a);\n\
             \x20       begin"
        );
        let _ = writeln!(
            s,
            "            aux_step = {{a[{}:0], {}}};",
            msb - 1,
            tap_xor("a", AUX_LFSR_TAPS)
        );
        s.push_str("        end\n    endfunction\n");
    }
    for ctx in &sessions {
        session_datapath(s, ctx);
    }

    // Sequencer.
    s.push_str("\n    always @(posedge clk) begin\n        if (rst) begin\n");
    s.push_str(
        "            state <= ST_IDLE;\n\
         \x20           done  <= 1'b0;\n\
         \x20           pass  <= 1'b0;\n\
         \x20           count <= 32'd0;\n\
         \x20           s1_ok <= 1'b0;\n",
    );
    for ctx in &sessions {
        let n = ctx.number;
        let _ = writeln!(
            s,
            "            src{n}  <= {}'h{:x};",
            ctx.source_width, ctx.spec.seed
        );
        let _ = writeln!(s, "            misr{n} <= {{{}{{1'b0}}}};", ctx.ana_width);
    }
    if any_aux {
        aux_reset(s, 12);
    }
    s.push_str("        end else begin\n            case (state)\n");

    // ST_IDLE.
    s.push_str(
        "                ST_IDLE: begin\n\
         \x20                   done <= 1'b0;\n\
         \x20                   if (run) begin\n\
         \x20                       state <= ST_S1;\n\
         \x20                       count <= 32'd0;\n",
    );
    let _ = writeln!(
        s,
        "                        src1  <= {}'h{:x};",
        sessions[0].source_width, sessions[0].spec.seed
    );
    let _ = writeln!(
        s,
        "                        misr1 <= {{{}{{1'b0}}}};",
        sessions[0].ana_width
    );
    if any_aux {
        aux_reset(s, 24);
    }
    s.push_str("                    end\n                end\n");

    // ST_S1.
    session_sequencer_arm(s, &sessions[0], Some(&sessions[1]), any_aux);
    // ST_S2.
    session_sequencer_arm(s, &sessions[1], None, any_aux);

    s.push_str(
        "                default: state <= ST_DONE;\n\
         \x20           endcase\n\
         \x20       end\n\
         \x20   end\n\
         endmodule\n",
    );
}

/// The per-session datapath: de Bruijn source step, block instance, MISR
/// step and inject word.
fn session_datapath(s: &mut String, ctx: &VSession<'_>) {
    let n = ctx.number;
    let sw = ctx.source_width;
    let a = ctx.ana_width;
    let r = ctx.response;
    let _ = writeln!(
        s,
        "\n    // Session {n}: {} under test, {sw}-bit pattern source, {a}-bit MISR.",
        ctx.block_module
    );
    let _ = writeln!(s, "    reg  [{}:0] src{n};", sw - 1);
    let _ = writeln!(s, "    reg  [{}:0] misr{n};", a - 1);
    if sw == 1 {
        // Width-1 modified LFSR: the de Bruijn term always fires, so the
        // register simply toggles.
        let _ = writeln!(s, "    wire src{n}_fb = ~src{n}[0];");
        let _ = writeln!(s, "    wire [0:0] src{n}_next = src{n}_fb;");
    } else {
        let _ = writeln!(
            s,
            "    wire src{n}_fb_raw = {};",
            tap_xor(&format!("src{n}"), &ctx.spec.taps)
        );
        let _ = writeln!(
            s,
            "    wire src{n}_fb = (src{n}[{}:0] == {{{}{{1'b0}}}}) ? ~src{n}_fb_raw : src{n}_fb_raw;",
            sw - 2,
            sw - 1
        );
        let _ = writeln!(
            s,
            "    wire [{}:0] src{n}_next = {{src{n}[{}:0], src{n}_fb}};",
            sw - 1,
            sw - 2
        );
    }
    // Input assembly: the stepped source drives the cone most significant
    // bit first; wider cones append auxiliary-LFSR chunks.
    let mut parts = vec![format!("src{n}_next")];
    if ctx.aux_chunks() > 0 {
        let width = AUX_LFSR_WIDTH as usize;
        let mut prev = "aux".to_string();
        let mut remaining = ctx.cone - sw;
        for chunk in 1..=ctx.aux_chunks() {
            let wire = format!("s{n}_aux{chunk}");
            let _ = writeln!(s, "    wire [{}:0] {wire} = aux_step({prev});", width - 1);
            let take = remaining.min(width);
            parts.push(if take == width {
                wire.clone()
            } else {
                format!("{wire}[{}:{}]", width - 1, width - take)
            });
            remaining -= take;
            prev = wire;
        }
    }
    let _ = writeln!(
        s,
        "    wire [{}:0] s{n}_in = {};",
        ctx.cone - 1,
        if parts.len() == 1 {
            parts[0].clone()
        } else {
            format!("{{{}}}", parts.join(", "))
        }
    );
    let _ = writeln!(s, "    wire [{}:0] s{n}_out;", r - 1);
    let _ = writeln!(
        s,
        "    {} u_s{n} (.i(s{n}_in), .o(s{n}_out));",
        ctx.block_module
    );
    // Response word, MSB first, zero-padded / truncated to the MISR width.
    let inject = if a > r {
        format!("{{s{n}_out, {{{}{{1'b0}}}}}}", a - r)
    } else if a == r {
        format!("s{n}_out")
    } else {
        format!("s{n}_out[{}:{}]", r - 1, r - a)
    };
    let _ = writeln!(s, "    wire [{}:0] s{n}_inject = {inject};", a - 1);
    let _ = writeln!(
        s,
        "    wire s{n}_misr_fb = {};",
        tap_xor(&format!("misr{n}"), PRIMITIVE_TAPS[a])
    );
    let _ = writeln!(
        s,
        "    wire [{}:0] misr{n}_next = {{misr{n}[{}:0], s{n}_misr_fb}} ^ s{n}_inject;",
        a - 1,
        a - 2
    );
}

/// One sequencer case arm: advance the session's registers each cycle; at
/// the session's last pattern either hand over to the next session or latch
/// the verdict.
fn session_sequencer_arm(
    s: &mut String,
    ctx: &VSession<'_>,
    next: Option<&VSession<'_>>,
    any_aux: bool,
) {
    let n = ctx.number;
    let _ = writeln!(s, "                ST_S{n}: begin");
    let _ = writeln!(s, "                    src{n}  <= src{n}_next;");
    let _ = writeln!(s, "                    misr{n} <= misr{n}_next;");
    if ctx.aux_chunks() > 0 {
        let _ = writeln!(
            s,
            "                    aux   <= s{n}_aux{};",
            ctx.aux_chunks()
        );
    }
    s.push_str("                    count <= count + 32'd1;\n");
    let _ = writeln!(
        s,
        "                    if (count == 32'd{}) begin",
        ctx.spec.patterns.saturating_sub(1)
    );
    let check = format!(
        "misr{n}_next == {}'h{:x}",
        ctx.ana_width, ctx.spec.expected_signature
    );
    if let Some(next) = next {
        let m = next.number;
        let _ = writeln!(s, "                        s1_ok <= {check};");
        let _ = writeln!(s, "                        state <= ST_S{m};");
        s.push_str("                        count <= 32'd0;\n");
        let _ = writeln!(
            s,
            "                        src{m}  <= {}'h{:x};",
            next.source_width, next.spec.seed
        );
        let _ = writeln!(
            s,
            "                        misr{m} <= {{{}{{1'b0}}}};",
            next.ana_width
        );
        if any_aux {
            aux_reset(s, 24);
        }
    } else {
        let _ = writeln!(s, "                        pass  <= s1_ok && ({check});");
        s.push_str(
            "                        done  <= 1'b1;\n\
             \x20                       state <= ST_DONE;\n",
        );
    }
    s.push_str("                    end\n                end\n");
}
