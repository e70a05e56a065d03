//! The code-emission regression gate, enforced from the test suite.
//!
//! Two layers of defence:
//!
//! 1. **Digest golden** — CI diffs `stc emit --suite embedded --jobs 2`
//!    against `tests/golden/emit.json`; the tests here enforce the same
//!    golden from `cargo test`, plus worker-count determinism and the
//!    emit-off byte-identity of the batch report.  Re-golden after an
//!    intentional codegen change:
//!
//!    ```text
//!    cargo run --release --bin stc -- emit --suite embedded --jobs 2 \
//!        > tests/golden/emit.json
//!    ```
//!
//! 2. **Differential compile-and-run** — for every gate-level embedded
//!    machine the Rust module a `Synthesis::run` with emit on generated is
//!    compiled *standalone* with `rustc`
//!    (proving the `#![no_std]` module has no hidden dependencies), then a
//!    generated harness links against it and checks the generated `step()`
//!    cycle-for-cycle against `Netlist::evaluate` over 1200 directed and
//!    pseudo-random steps, and the generated `self_test()` signatures
//!    against the session's own BIST simulation.  Codegen bugs that keep
//!    the digest stable (none) cannot exist, but codegen bugs introduced
//!    *with* an intentional re-golden are caught here.
//!
//! The CLI tests drive the `stc` binary itself: `stc emit --out DIR` writes
//! the modules its digest JSON lists, and `stc run --progress` times every
//! stage it reports finished.

use std::path::{Path, PathBuf};
use std::process::Command;

use stc::pipeline::{embedded_corpus, emit_json, Json, StcConfig, SuiteRun, Synthesis};

fn emit_suite(jobs: &str) -> SuiteRun {
    let mut config = StcConfig::default();
    config.set("emit.enabled", "true").unwrap();
    config.set("jobs", jobs).unwrap();
    Synthesis::builder()
        .config(config)
        .build()
        .run_suite(&embedded_corpus(), "embedded")
}

#[test]
fn embedded_emit_report_matches_the_committed_golden() {
    let run = emit_suite("2");
    let fresh = emit_json(&run.report).to_pretty();
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/emit.json");
    let golden = std::fs::read_to_string(golden_path).expect("tests/golden/emit.json is committed");
    assert_eq!(
        fresh, golden,
        "the emitted-module digests diverged from tests/golden/emit.json; \
         if the codegen change is intentional, re-golden (see this file's \
         module docs) — the differential test below still has to pass"
    );
}

#[test]
fn emit_report_is_identical_across_worker_counts() {
    let serial = emit_suite("1").report.to_json_string();
    let parallel = emit_suite("4").report.to_json_string();
    assert_eq!(
        serial, parallel,
        "codegen must not depend on the worker count"
    );
}

#[test]
fn emit_off_report_matches_the_pre_emit_golden() {
    let mut config = StcConfig::default();
    config.set("jobs", "2").unwrap();
    let run = Synthesis::builder()
        .config(config)
        .build()
        .run_suite(&embedded_corpus(), "embedded");
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/embedded_suite.json"
    );
    let golden = std::fs::read_to_string(golden_path)
        .expect("tests/golden/embedded_suite.json is committed");
    assert_eq!(
        run.report.to_json_string(),
        golden,
        "with emit off, the suite report must stay byte-identical to the \
         pre-emit golden — the emit section is additive"
    );
}

/// Deterministic input sequence for the differential run: a directed prefix
/// (all-zero, all-one, every one-hot pattern) followed by LCG pseudo-random
/// words, `total` steps in all, each step one `u64` carrying the input bits
/// most significant bit first.
fn input_words(input_bits: usize, total: usize) -> Vec<u64> {
    let mask = if input_bits == 0 {
        0
    } else {
        u64::MAX >> (64 - input_bits)
    };
    let mut words = vec![0, 0, mask, mask];
    for k in 0..input_bits {
        words.push(1u64 << (input_bits - 1 - k));
    }
    let mut x: u64 = 0x5dee_ce66_d1ce_4e1d;
    while words.len() < total {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        words.push((x >> 32) & mask);
    }
    words.truncate(total);
    words
}

fn bits_of(word: u64, width: usize) -> Vec<bool> {
    (0..width)
        .map(|k| (word >> (width - 1 - k)) & 1 == 1)
        .collect()
}

fn word_of(bits: &[bool]) -> u64 {
    bits.iter().fold(0, |acc, &b| (acc << 1) | u64::from(b))
}

fn run_command(cmd: &mut Command, what: &str) {
    let output = cmd
        .output()
        .unwrap_or_else(|e| panic!("{what}: cannot spawn: {e}"));
    assert!(
        output.status.success(),
        "{what} failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn emitted_rust_compiles_standalone_and_matches_the_netlist() {
    const STEPS: usize = 1200;
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("emit-gate");
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let session = Synthesis::builder().jobs(1).emit(true).build();
    let mut verified = 0usize;
    for entry in &embedded_corpus() {
        // Machines beyond the gate-level limits have no netlist to compile.
        let Some(emit) = session.run(entry).emit else {
            continue;
        };
        assert_eq!(emit.modules.len(), 1, "{}", entry.name());
        let module = &emit.modules[0];

        // The reference trace comes from the session's own typed artifacts:
        // the same netlists the BIST plan was computed from.
        let decomposition = session.decompose_only(&entry.machine);
        let encoded = session.encode(&decomposition).unwrap();
        let netlist = session.synthesize_logic(&encoded);
        let plan = session.plan_bist(&netlist);
        let logic = plan.logic.as_ref();
        let (ib, r1b, r2b) = (
            logic.input_bits as usize,
            logic.r1_bits as usize,
            logic.r2_bits as usize,
        );

        let inputs = input_words(ib, STEPS);
        let mut r1 = vec![false; r1b];
        let mut r2 = vec![false; r2b];
        let mut expected = Vec::with_capacity(STEPS);
        for &word in &inputs {
            let x = bits_of(word, ib);
            let mut lambda_in = x.clone();
            lambda_in.extend_from_slice(&r1);
            lambda_in.extend_from_slice(&r2);
            expected.push(word_of(&logic.output.netlist.evaluate(&lambda_in)));
            let mut c1_in = x.clone();
            c1_in.extend_from_slice(&r1);
            let next_r2 = logic.c1.netlist.evaluate(&c1_in);
            let mut c2_in = x;
            c2_in.extend_from_slice(&r2);
            r1 = logic.c2.netlist.evaluate(&c2_in);
            r2 = next_r2;
        }

        let dir = scratch.join(entry.name());
        std::fs::create_dir_all(&dir).expect("machine dir");
        let module_path = dir.join(&module.file);
        std::fs::write(&module_path, &module.source).expect("write module");

        // Standalone compile: the emitted file is its own no_std crate with
        // zero dependencies.
        let rlib = dir.join(format!("lib{}.rlib", module.module));
        run_command(
            Command::new("rustc")
                .args(["--edition", "2021", "--crate-type", "rlib", "-o"])
                .arg(&rlib)
                .arg(&module_path),
            &format!("{}: standalone rustc", entry.name()),
        );

        let harness = harness_source(
            &module.module,
            &inputs,
            &expected,
            plan.result.session1.good_signature,
            plan.result.session2.good_signature,
        );
        let harness_path = dir.join("harness.rs");
        std::fs::write(&harness_path, harness).expect("write harness");
        let harness_bin = dir.join("harness.bin");
        run_command(
            Command::new("rustc")
                .args(["--edition", "2021", "--extern"])
                .arg(format!("{}={}", module.module, rlib.display()))
                .arg("-o")
                .arg(&harness_bin)
                .arg(&harness_path),
            &format!("{}: harness rustc", entry.name()),
        );
        run_differential(&harness_bin, entry.name());
        verified += 1;
    }
    assert_eq!(
        verified, 9,
        "the differential gate must cover all 9 gate-level embedded machines"
    );
}

/// Runs the `stc` binary, asserting success; returns stdout and stderr.
fn stc(args: &[&str]) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_stc"))
        .args(args)
        .output()
        .expect("spawn stc");
    assert!(
        output.status.success(),
        "stc {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
        String::from_utf8(output.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn emit_out_writes_the_modules_its_digests_list() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("emit-out");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 path");
    let (stdout, stderr) = stc(&[
        "emit", "--suite", "embedded", "--jobs", "1", "--out", dir_arg,
    ]);
    let digests = Json::parse(&stdout).expect("digest JSON on stdout");
    let mut listed = 0usize;
    for machine in digests.get("machines").unwrap().as_array().unwrap() {
        let Some(emit) = machine.get("emit").filter(|e| **e != Json::Null) else {
            continue;
        };
        for module in emit.get("modules").unwrap().as_array().unwrap() {
            let file = module.get("file").unwrap().as_str().unwrap();
            let source = std::fs::read(dir.join(file)).expect("every listed module is written");
            assert_eq!(
                Some(source.len() as u64),
                module.get("bytes").unwrap().as_u64(),
                "{file}"
            );
            // The JSON renders the 64-bit hash as a number, which is exact
            // only up to an f64's precision; compare at that precision.
            #[allow(clippy::cast_precision_loss)]
            let hash = stc::fsm::fnv1a(&source) as f64;
            assert_eq!(Some(hash), module.get("fnv1a").unwrap().as_f64(), "{file}");
            listed += 1;
        }
    }
    assert_eq!(listed, 9, "one module per gate-level embedded machine");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), listed);
    assert!(
        stderr.contains(&format!("wrote {listed} module(s)")),
        "{stderr}"
    );
}

#[test]
fn progress_lines_carry_each_stage_time() {
    let (_, stderr) = stc(&["run", "--machine", "tav", "--progress"]);
    let finished: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with('[') && l.split_whitespace().any(|w| w == "ok"))
        .collect();
    assert_eq!(finished.len(), 4, "solve, encode, logic, bist:\n{stderr}");
    for line in finished {
        let time = line
            .split_once(" ok (")
            .and_then(|(_, rest)| rest.strip_suffix(" ms)"))
            .unwrap_or_else(|| panic!("no stage time on '{line}'"));
        assert!(time.parse::<f64>().is_ok_and(|ms| ms >= 0.0), "{line}");
    }
}

fn run_differential(binary: &Path, machine: &str) {
    let output = Command::new(binary)
        .output()
        .unwrap_or_else(|e| panic!("{machine}: cannot run harness: {e}"));
    assert!(
        output.status.success(),
        "{machine}: emitted controller diverged from the netlist/BIST \
         reference:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// A `std` harness crate that links the emitted module and replays the
/// reference trace: every `step()` output word is compared against the
/// `Netlist::evaluate` trace, and the self-test signatures against the
/// session's BIST simulation.
fn harness_source(module: &str, inputs: &[u64], expected: &[u64], sig1: u64, sig2: u64) -> String {
    let fmt = |words: &[u64]| {
        words
            .iter()
            .map(|w| format!("{w:#x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "use {module} as ctrl;\n\
         \n\
         const INPUTS: [u64; {n}] = [{inputs}];\n\
         const EXPECTED: [u64; {n}] = [{expected}];\n\
         const SIG1: u64 = {sig1:#x};\n\
         const SIG2: u64 = {sig2:#x};\n\
         \n\
         fn main() {{\n\
         \x20   let mut c = ctrl::Controller::new();\n\
         \x20   for (i, (&word, &want)) in INPUTS.iter().zip(EXPECTED.iter()).enumerate() {{\n\
         \x20       let mut inputs = [false; ctrl::INPUT_BITS];\n\
         \x20       for k in 0..ctrl::INPUT_BITS {{\n\
         \x20           inputs[k] = (word >> (ctrl::INPUT_BITS - 1 - k)) & 1 == 1;\n\
         \x20       }}\n\
         \x20       let outputs = c.step(&inputs);\n\
         \x20       let mut got = 0u64;\n\
         \x20       for k in 0..ctrl::OUTPUT_BITS {{\n\
         \x20           got = (got << 1) | u64::from(outputs[k]);\n\
         \x20       }}\n\
         \x20       if got != want {{\n\
         \x20           eprintln!(\"step {{i}}: outputs {{got:#x}}, reference {{want:#x}}\");\n\
         \x20           std::process::exit(1);\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   if ctrl::self_test_session1() != SIG1 {{\n\
         \x20       eprintln!(\"session 1 signature {{:#x}}, reference {{SIG1:#x}}\", ctrl::self_test_session1());\n\
         \x20       std::process::exit(2);\n\
         \x20   }}\n\
         \x20   if ctrl::self_test_session2() != SIG2 {{\n\
         \x20       eprintln!(\"session 2 signature {{:#x}}, reference {{SIG2:#x}}\", ctrl::self_test_session2());\n\
         \x20       std::process::exit(3);\n\
         \x20   }}\n\
         \x20   assert!(ctrl::self_test());\n\
         }}\n",
        n = inputs.len(),
        inputs = fmt(inputs),
        expected = fmt(expected),
    )
}
