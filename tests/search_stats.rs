//! The search-stats regression gate and the Tables 1–2 summary, enforced
//! from the test suite.
//!
//! CI diffs `stc run --suite embedded --stats-out` against
//! `tests/golden/search_stats.json`; this test enforces the same golden from
//! `cargo test`, so a pruning regression (more nodes investigated, fewer
//! subtrees discarded) fails fast locally even when wall-clock noise hides
//! it from the perf gate.  Re-golden after an intentional search change:
//!
//! ```text
//! cargo run --release --bin stc -- run --suite embedded --jobs 2 \
//!     --out tests/golden/embedded_suite.json \
//!     --stats-out tests/golden/search_stats.json
//! ```
//!
//! and review the stats diff like any other code change.
//!
//! The same run feeds the human-readable summary `stc run` prints to
//! stderr, the repo's reproduction of the paper's Tables 1 and 2.

use stc::pipeline::{
    embedded_corpus, format_summary_table, kiss2_corpus, search_stats_json, StcConfig, SuiteRun,
    Synthesis,
};
use std::sync::OnceLock;

/// A session that skips the gate-level stages: the search statistics
/// depend only on the solver configuration, which must stay the default.
fn solve_only() -> Synthesis {
    let session = Synthesis::builder()
        .set("gate_level.max_states", "0")
        .unwrap()
        .set("gate_level.max_inputs", "0")
        .unwrap()
        .jobs(2)
        .build();
    assert_eq!(
        session.config().pipeline.solver,
        StcConfig::default().pipeline.solver,
        "the gate must measure the default solver configuration"
    );
    session
}

/// The embedded suite, solved once per test binary.
fn embedded_run() -> &'static SuiteRun {
    static RUN: OnceLock<SuiteRun> = OnceLock::new();
    RUN.get_or_init(|| solve_only().run_suite(&embedded_corpus(), "embedded"))
}

#[test]
fn embedded_search_stats_match_the_committed_golden() {
    let fresh = search_stats_json(&embedded_run().report).to_pretty();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/search_stats.json"
    );
    let golden =
        std::fs::read_to_string(golden_path).expect("tests/golden/search_stats.json is committed");
    assert_eq!(
        fresh, golden,
        "search-effort statistics diverged from tests/golden/search_stats.json; \
         if the change is intentional, re-golden (see this file's module docs) \
         and review the pruning impact"
    );
}

#[test]
fn the_summary_prints_tables_1_and_2_against_the_paper() {
    let summary = format_summary_table(&embedded_run().report);
    let bbara = summary
        .lines()
        .find(|line| line.starts_with("bbara "))
        .expect("bbara has a summary row");
    // log2|V| and nodes investigated, paper/measured (Table 2).
    assert!(bbara.contains(" 43/67 "), "{bbara}");
    assert!(bbara.contains(" 815/12523 "), "{bbara}");
    // The paper's counts come from its transcribed Table 1 rows.
    assert!(
        summary.contains("non-trivial decompositions: 7/13 (paper: 7/13)\n"),
        "{summary}"
    );
    assert!(
        summary.contains("fewer flip-flops than a conventional BIST: 7/13 (paper: 4/13)\n"),
        "{summary}"
    );
}

#[test]
fn a_kiss2_corpus_without_paper_rows_prints_no_paper_counts() {
    let dir = std::env::temp_dir().join(format!("stc-summary-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A stem that names no embedded benchmark, so no paper row attaches.
    std::fs::write(
        dir.join("custom.kiss2"),
        stc::fsm::benchmarks::SHIFTREG_KISS2,
    )
    .unwrap();
    let corpus = kiss2_corpus(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let summary = format_summary_table(&solve_only().run_suite(&corpus, "custom").report);
    assert!(
        summary.contains("non-trivial decompositions: 1/1\n"),
        "{summary}"
    );
    assert!(!summary.contains("paper"), "{summary}");
}
