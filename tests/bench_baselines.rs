//! The committed perf baselines stay loadable by `stc bench-check`: every
//! `crates/bench/BENCH_*.json` parses, and no bench ID appears in two files
//! (the gate flattens all files into one list, so a duplicate would be
//! compared twice).

use stc::pipeline::load_baseline_dir;
use std::collections::BTreeMap;
use std::path::Path;

#[test]
fn committed_baselines_parse_and_name_each_bench_once() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench");
    let files = load_baseline_dir(&dir).expect("every committed BENCH_*.json parses");
    let mut owner: BTreeMap<&str, &str> = BTreeMap::new();
    for (stem, measurements) in &files {
        assert!(!measurements.is_empty(), "BENCH_{stem}.json has no entries");
        for m in measurements {
            if let Some(first) = owner.insert(&m.name, stem) {
                panic!(
                    "bench '{}' appears in BENCH_{first}.json and BENCH_{stem}.json",
                    m.name
                );
            }
        }
    }
}
