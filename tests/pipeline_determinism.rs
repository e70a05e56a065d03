//! Determinism guarantees of the batch pipeline: a one-worker (serial) run
//! and any parallel run must produce byte-identical JSON reports, and a
//! machine's report must not depend on the worker count it happened to run
//! under.

use stc::pipeline::{embedded_corpus, filter_by_names, CorpusEntry, GateLevelLimits};
use stc::prelude::*;

/// Runs `corpus` on a reduced-budget session (so the full embedded suite
/// stays fast in debug-mode test runs) with `jobs` corpus workers and
/// `solver_jobs` subtree workers; determinism must hold for every
/// configuration.
fn run_suite(corpus: &[CorpusEntry], jobs: usize, solver_jobs: usize, name: &str) -> SuiteRun {
    Synthesis::builder()
        .max_nodes(5_000)
        .patterns_per_session(32)
        .gate_level(GateLevelLimits {
            max_states: 8,
            max_inputs: 8,
        })
        .jobs(jobs)
        .solver_jobs(solver_jobs)
        .build()
        .run_suite(corpus, name)
}

#[test]
fn parallel_report_is_byte_identical_to_the_serial_fallback() {
    let corpus = embedded_corpus();
    let serial = run_suite(&corpus, 1, 1, "embedded");
    let serial_json = serial.report.to_json_string();
    for jobs in [2, 4, 13, 32] {
        let parallel = run_suite(&corpus, jobs, 1, "embedded");
        // The reports carry their own worker counts, which the config echo
        // leaves out; every machine report and the summary must match.
        assert_eq!(
            serial.report.machines, parallel.report.machines,
            "jobs = {jobs}"
        );
        assert_eq!(
            serial.report.summary, parallel.report.summary,
            "jobs = {jobs}"
        );
        assert_eq!(
            serial_json,
            parallel.report.to_json_string(),
            "jobs = {jobs}: JSON must match byte for byte"
        );
    }
    // Sanity: the suite actually ran and produced substantive sections.
    assert_eq!(serial.report.machines.len(), 13);
    assert!(serial.report.summary.full > 0);
    assert!(serial.report.summary.nontrivial >= 4);
}

#[test]
fn report_is_deterministic_across_repeated_runs() {
    let corpus = filter_by_names(
        embedded_corpus(),
        &["tav".to_string(), "shiftreg".to_string()],
    )
    .unwrap();
    let first = run_suite(&corpus, 2, 1, "subset");
    let second = run_suite(&corpus, 2, 1, "subset");
    assert_eq!(
        first.report.to_json_string(),
        second.report.to_json_string()
    );
}

/// The solver's parallel subtree exploration must be invisible in the
/// report: its deterministic reduction is byte-identical to serial, and the
/// worker count is deliberately not echoed in the config section.
#[test]
fn report_is_independent_of_solver_parallelism() {
    let corpus = filter_by_names(
        embedded_corpus(),
        &["bbara".to_string(), "dk27".to_string(), "tbk".to_string()],
    )
    .unwrap();
    let serial = run_suite(&corpus, 1, 1, "subset");
    for solver_jobs in [2, 4, 16] {
        let parallel = run_suite(&corpus, 1, solver_jobs, "subset");
        assert_eq!(
            serial.report.to_json_string(),
            parallel.report.to_json_string(),
            "solver_jobs = {solver_jobs}"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Per-machine pipeline results are independent of the worker count: for
    /// a random worker count and a random slice of the (small-machine)
    /// corpus, every machine's report equals its serial single-machine run.
    #[test]
    fn per_machine_results_are_independent_of_worker_count(
        jobs in 2usize..9,
        start in 0usize..4,
        len in 1usize..5,
    ) {
        let small: Vec<_> = embedded_corpus()
            .into_iter()
            .filter(|e| e.machine.num_states() <= 8 && e.machine.num_inputs() <= 8)
            .collect();
        let start = start.min(small.len() - 1);
        let end = (start + len).min(small.len());
        let slice = &small[start..end];
        let parallel = run_suite(slice, jobs, 1, "slice");
        proptest::prop_assert_eq!(parallel.report.machines.len(), slice.len());
        for (entry, from_parallel) in slice.iter().zip(&parallel.report.machines) {
            let alone = run_suite(std::slice::from_ref(entry), 1, 1, "slice");
            proptest::prop_assert_eq!(
                &alone.report.machines[0],
                from_parallel,
                "machine {} changed under jobs={}",
                entry.name(),
                jobs
            );
        }
    }
}

/// `encoding` is accepted, echoed and fingerprinted, but the pipeline
/// registers hold binary block indices: every accepted spelling moves no
/// report byte except its own echo.
#[test]
fn the_encoding_key_changes_only_its_config_echo() {
    let corpus = embedded_corpus();
    let run = |encoding: &str| {
        Synthesis::builder()
            .max_nodes(5_000)
            .patterns_per_session(32)
            .gate_level(GateLevelLimits {
                max_states: 8,
                max_inputs: 8,
            })
            .coverage(true)
            .optimize(true)
            .emit(true)
            .set("encoding", encoding)
            .unwrap()
            .build()
            .run_suite(&corpus, "embedded")
    };
    let binary = run("binary");
    assert!(binary.report.summary.full > 0);
    let echo = |label: &str| format!("\"encoding\": \"{label}\"");
    let binary_json = binary.report.to_json_string();
    for (spelling, label) in [
        ("gray", "gray"),
        ("one-hot", "onehot"),
        ("onehot", "onehot"),
        ("adjacency-greedy", "adjacencygreedy"),
        ("adjacencygreedy", "adjacencygreedy"),
    ] {
        let other = run(spelling);
        assert_eq!(other.report.config.pipeline.encoding, label, "{spelling}");
        assert_eq!(binary.report.machines, other.report.machines, "{spelling}");
        let other_json = other.report.to_json_string();
        assert_eq!(other_json.matches(&echo(label)).count(), 1, "{spelling}");
        assert_eq!(
            binary_json,
            other_json.replace(&echo(label), &echo("binary")),
            "{spelling}"
        );
    }
}

/// Pins the 13 embedded stand-in machines by content: every golden, emit
/// digest and perfbench digest rests on them, so a change to how the suite
/// is built must leave each machine's `stable_hash` where it is.
#[test]
fn the_embedded_stand_ins_keep_their_content_hashes() {
    const PINNED: [(&str, u64); 13] = [
        ("bbara", 0x5efe_c4c2_330d_89f5),
        ("bbtas", 0x436a_2ff2_e85b_5b26),
        ("dk14", 0x4df2_501e_df28_9745),
        ("dk15", 0xd954_e375_1510_4ae4),
        ("dk16", 0x3f55_749b_568f_695b),
        ("dk17", 0x87b9_e63d_d1ef_89f0),
        ("dk27", 0x6cf2_5f02_ab20_dc9d),
        ("dk512", 0x4d8f_7ae4_69c2_b740),
        ("mc", 0xbb8a_fe5b_b628_e217),
        ("ex1", 0x10d6_6fe5_c30a_2cc2),
        ("shiftreg", 0x9564_aa2f_d283_717f),
        ("tav", 0x810f_d3db_46b5_a11f),
        ("tbk", 0xd436_a224_5a5c_3d3d),
    ];
    let corpus = embedded_corpus();
    let hashes: Vec<(&str, u64)> = corpus
        .iter()
        .map(|entry| (entry.name(), entry.machine.stable_hash()))
        .collect();
    assert_eq!(hashes, PINNED);
}
