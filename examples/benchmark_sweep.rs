//! Runs the batch-synthesis pipeline over the whole embedded benchmark suite
//! and prints the paper-vs-measured summary of Tables 1 and 2 — the same
//! flow `stc run` exposes on the command line, driven through the
//! `Synthesis` session API.
//!
//! Run with `cargo run --release --example benchmark_sweep`.

use stc::pipeline::{embedded_corpus, format_summary_table, Synthesis};

fn main() {
    let corpus = embedded_corpus();
    // `jobs(0)` means auto-detect via available parallelism — the resolved
    // count never influences the report.
    let session = Synthesis::builder().jobs(0).build();
    let run = session.run_suite(&corpus, "embedded");

    // The footer compares the non-trivial and fewer-flip-flop counts with
    // the paper's, derived from the Table 1 rows the report carries.
    print!("{}", format_summary_table(&run.report));
    // The report contains no wall-clock values, so its JSON is byte-identical
    // for any worker count — asserted by tests/pipeline_determinism.rs and
    // diffed against tests/golden/embedded_suite.json by the CI smoke job.
}
