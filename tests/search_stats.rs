//! The search-stats regression gate, enforced from the test suite.
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

use stc::pipeline::{embedded_corpus, search_stats_json, StcConfig, Synthesis};

#[test]
fn embedded_search_stats_match_the_committed_golden() {
    // Skip the gate-level stages: the search statistics depend only on the
    // solver configuration, which must stay the default.
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
    let run = session.run_suite(&embedded_corpus(), "embedded");
    let fresh = search_stats_json(&run.report).to_pretty();
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
