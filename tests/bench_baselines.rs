//! The committed perf baselines stay loadable by `stc bench-check`: every
//! `crates/bench/BENCH_*.json` parses, names a `[[bench]]` target of
//! `crates/bench/Cargo.toml` (a baseline left behind by a deleted target
//! would only show up as `MISSING` in the gate), and no bench ID appears in
//! two files (the gate flattens all files into one list, so a duplicate
//! would be compared twice).

use stc::pipeline::load_baseline_dir;
use std::collections::BTreeMap;
use std::path::Path;

#[test]
fn committed_baselines_parse_and_name_each_bench_once() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench");
    let files = load_baseline_dir(&dir).expect("every committed BENCH_*.json parses");
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).expect("bench manifest");
    let targets: Vec<&str> = manifest
        .split("[[bench]]")
        .skip(1)
        .filter_map(|section| section.trim_start().strip_prefix("name = \""))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    let mut owner: BTreeMap<&str, &str> = BTreeMap::new();
    for (stem, measurements) in &files {
        assert!(
            targets.contains(&stem.as_str()),
            "BENCH_{stem}.json names no [[bench]] target of crates/bench/Cargo.toml {targets:?}"
        );
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
