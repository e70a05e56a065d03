//! The README's speedup-vs-threads tables must be the exact render of the
//! committed `crates/bench/BENCH_scale.json` through the `stc scale-table`
//! code path.  Like `readme_sync`, this is an anti-drift gate: after an
//! accepted re-baseline, regenerate the README block with
//! `cargo run --release --bin stc -- scale-table`.

use stc_pipeline::{format_speedup_table, parse_baseline};
use std::path::Path;

#[test]
fn readme_scale_tables_match_the_committed_baseline() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let baseline_path = root.join("crates/bench/BENCH_scale.json");
    let text =
        std::fs::read_to_string(&baseline_path).expect("committed BENCH_scale.json is readable");
    let measurements =
        parse_baseline(&text, &baseline_path).expect("committed BENCH_scale.json parses");
    let table = format_speedup_table(&measurements);
    assert!(
        table.contains("| scale_"),
        "committed BENCH_scale.json no longer contains the scale groups"
    );
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    for line in table.lines().filter(|l| !l.trim().is_empty()) {
        assert!(
            readme.contains(line),
            "README.md is missing this line of the table rendered from \
             crates/bench/BENCH_scale.json:\n  {line}\nRegenerate the README \
             block with: cargo run --release --bin stc -- scale-table"
        );
    }
}
