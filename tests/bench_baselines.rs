//! The committed perf baselines stay loadable by the perf gate: every
//! `crates/bench/BENCH_*.json` parses with `vendor/criterion`'s reader,
//! names a `[[bench]]` target of `crates/bench/Cargo.toml` (a baseline left
//! behind by a deleted target would never be checked), and no bench ID
//! appears in two files (one benchmark, one baseline).

use criterion::parse_baseline;
use std::collections::BTreeMap;
use std::path::Path;

#[test]
fn committed_baselines_parse_and_name_each_bench_once() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/bench");
    let mut files: Vec<(String, Vec<criterion::Measurement>)> = std::fs::read_dir(&dir)
        .expect("crates/bench is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?;
            let stem = name
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .to_string();
            let text = std::fs::read_to_string(&path).expect("baseline is readable");
            Some((
                stem,
                parse_baseline(&text, &path).expect("every committed BENCH_*.json parses"),
            ))
        })
        .collect();
    files.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!files.is_empty(), "crates/bench has committed baselines");
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
