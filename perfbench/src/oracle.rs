//! Output oracles: every op's output is checked, and `success_frac` counts
//! the ops that passed.
//!
//! Expected report digests live in `expected.json` next to this package.
//! They were recorded at the commit that introduced the benchmark (the
//! embedded ones equal the sections of `tests/golden/` there; see the
//! `embedded_digests_follow_the_goldens` test) and are re-recorded with
//! `perfbench --record` after an intentional output change.

use stc_pipeline::{Json, MachineReport};

/// FNV-1a over bytes: the digest of a report's compact JSON.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn digest_hex(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// What one op's report must satisfy.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The report's compact JSON has this digest.
    Digest(String),
    /// A planted machine: the recorded digest, plus the independent bound
    /// `pipeline_ff ≤ ⌈log2 rows_used⌉ + ⌈log2 cols_used⌉` of its grid.
    Planted { digest: String, max_ff: u32 },
    /// The pinned solver tier: node count and register bits, which are the
    /// same for every steal seed, plus the digest.
    Solver {
        digest: String,
        nodes: u64,
        pipeline_ff: u32,
    },
}

impl Expect {
    /// Checks a report and its compact JSON text.
    pub fn check(&self, report: &MachineReport, json: &str) -> Result<(), String> {
        let digest_matches = |want: &str| {
            let got = digest_hex(json);
            if got == want {
                Ok(())
            } else {
                Err(format!(
                    "{}: report digest {got}, expected {want}",
                    report.name
                ))
            }
        };
        let solve = report
            .solve
            .as_ref()
            .ok_or_else(|| format!("{}: no solve section", report.name))?;
        match self {
            Expect::Digest(want) => digest_matches(want),
            Expect::Planted { digest, max_ff } => {
                if solve.pipeline_ff > *max_ff {
                    return Err(format!(
                        "{}: {} register bits exceed the planted grid's {max_ff}",
                        report.name, solve.pipeline_ff
                    ));
                }
                digest_matches(digest)
            }
            Expect::Solver {
                digest,
                nodes,
                pipeline_ff,
            } => {
                if solve.nodes_investigated != *nodes || solve.pipeline_ff != *pipeline_ff {
                    return Err(format!(
                        "{}: {} nodes / {} register bits, expected {nodes} / {pipeline_ff}",
                        report.name, solve.nodes_investigated, solve.pipeline_ff
                    ));
                }
                digest_matches(digest)
            }
        }
    }
}

/// A serve response line without its leading `"id"` member, so that a
/// repeat can be compared byte for byte with the first response.
pub fn without_id(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"id\":")?;
    let comma = rest.find(',')?;
    Some(&rest[comma + 1..])
}

/// Whether a repeated serve response is byte-identical to the first one,
/// apart from the echoed id.
pub fn same_response(first: &str, repeat: &str) -> bool {
    matches!((without_id(first), without_id(repeat)), (Some(a), Some(b)) if a == b)
}

/// The `report` member of a serve response, re-serialised compactly (the
/// server writes it with the same writer, so this is its exact bytes).
pub fn response_report(line: &str) -> Result<String, String> {
    let json = Json::parse(line).map_err(|e| format!("unparseable response: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error response: {line}"));
    }
    json.get("report")
        .map(Json::to_compact)
        .ok_or_else(|| "response without a report".to_string())
}

/// Counts ops attempted and failed, keeping the first few failures for the
/// log.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(message) => {
                self.failed += 1;
                if self.failures.len() < 5 {
                    self.failures.push(message);
                }
                false
            }
        }
    }

    pub fn success_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::run_op;
    use stc_pipeline::{embedded_corpus, CorpusEntry, Synthesis};

    fn bench_file(name: &str) -> Json {
        let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
        Json::parse(&std::fs::read_to_string(&path).expect("bench file")).expect("valid JSON")
    }

    fn spec(workload: &str) -> Json {
        bench_file("workloads.json")
            .get("workloads")
            .and_then(|w| w.get(workload))
            .cloned()
            .expect("workload")
    }

    fn session(workload: &str) -> Synthesis {
        crate::session_from(&spec(workload), 0).expect("valid config")
    }

    fn embedded(name: &str) -> CorpusEntry {
        embedded_corpus()
            .into_iter()
            .find(|e| e.name() == name)
            .expect("embedded machine")
    }

    fn expected_digest(workload: &str, name: &str) -> String {
        bench_file("expected.json")
            .get(workload)
            .and_then(|w| w.get(name))
            .and_then(|m| m.get("digest"))
            .and_then(Json::as_str)
            .expect("recorded digest")
            .to_string()
    }

    fn flip_byte(text: &str) -> String {
        let mut bytes = text.as_bytes().to_vec();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 1;
        String::from_utf8(bytes).expect("ASCII stays ASCII")
    }

    #[test]
    fn embedded_oracle_rejects_a_flipped_byte() {
        let (report, json) = run_op(&session("embedded_flow"), &embedded("tav"));
        let expect = Expect::Digest(expected_digest("embedded_flow", "tav"));
        let mut tally = Tally::default();
        assert!(tally.record(expect.check(&report, &json)));
        assert!(!tally.record(expect.check(&report, &flip_byte(&json))));
        assert_eq!(tally.success_frac(), 0.5);
    }

    #[test]
    fn planted_oracle_rejects_a_wrong_digest_and_a_broken_bound() {
        let (report, json) = run_op(&session("bist_heavy"), &embedded("tav"));
        let ff = report.solve.as_ref().expect("solved").pipeline_ff;
        let planted = |digest: String, max_ff| Expect::Planted { digest, max_ff };
        let mut tally = Tally::default();
        assert!(tally.record(planted(digest_hex(&json), ff).check(&report, &json)));
        let wrong = format!("{:016x}", fnv1a(json.as_bytes()) ^ 1);
        assert!(!tally.record(planted(wrong, ff).check(&report, &json)));
        assert!(!tally.record(planted(digest_hex(&json), ff - 1).check(&report, &json)));
        assert!(tally.success_frac() < 0.5);
    }

    #[test]
    fn solver_oracle_rejects_a_changed_node_count() {
        let (mut report, json) = run_op(&session("solver_scale"), &embedded("dk27"));
        let solve = report.solve.clone().expect("solved");
        let expect = Expect::Solver {
            digest: digest_hex(&json),
            nodes: solve.nodes_investigated,
            pipeline_ff: solve.pipeline_ff,
        };
        let mut tally = Tally::default();
        assert!(tally.record(expect.check(&report, &json)));
        report.solve.as_mut().expect("solved").nodes_investigated += 1;
        assert!(!tally.record(expect.check(&report, &json)));
        assert_eq!(tally.success_frac(), 0.5);
    }

    #[test]
    fn serve_oracle_rejects_a_mismatched_repeat() {
        let (report, _) = run_op(&session("serve_mixed"), &embedded("tav"));
        let line = |id: u64, report: &Json| {
            Json::Object(vec![
                ("id".into(), Json::from_u64(id)),
                ("ok".into(), Json::Bool(true)),
                ("machine".into(), Json::String("tav".into())),
                ("report".into(), report.clone()),
            ])
            .to_compact()
        };
        let first = line(3, &report.to_json());
        let body = response_report(&first).expect("a report");
        assert_eq!(digest_hex(&body), expected_digest("embedded_flow", "tav"));
        let mut tally = Tally::default();
        let check = |repeat: &str| {
            if same_response(&first, repeat) {
                Ok(())
            } else {
                Err("repeat differs".to_string())
            }
        };
        assert!(tally.record(check(&line(17, &report.to_json()))));
        assert!(!tally.record(check(&flip_byte(&line(17, &report.to_json())))));
        assert!(response_report("{\"id\":1,\"ok\":false,\"error\":\"x\"}").is_err());
        assert_eq!(tally.success_frac(), 0.5);
    }

    /// The recorded embedded digests describe reports whose sections equal
    /// the committed goldens: solve, logic and paper columns as in
    /// `embedded_suite.json`, the measured BIST section as in
    /// `coverage.json`, the optimized plan as in `optimize.json` and the
    /// analysis as in `lint.json`.
    #[test]
    fn embedded_digests_follow_the_goldens() {
        let golden = |file: &str| {
            let path = format!("{}/../tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(path).expect("golden file");
            Json::parse(&text).expect("valid golden")
        };
        let machines = |doc: &Json| {
            doc.get("machines")
                .and_then(Json::as_array)
                .expect("machines")
                .to_vec()
        };
        let suite = machines(&golden("embedded_suite.json"));
        let coverage = machines(&golden("coverage.json"));
        let optimize = machines(&golden("optimize.json"));
        let lint = machines(&golden("lint.json"));
        let session = session("embedded_flow");
        for (i, entry) in embedded_corpus().iter().enumerate() {
            let (_, json) = run_op(&session, entry);
            assert_eq!(
                digest_hex(&json),
                expected_digest("embedded_flow", entry.name())
            );
            let ours = Json::parse(&json).expect("valid report");
            for key in [
                "name", "status", "states", "inputs", "outputs", "solve", "paper", "logic",
            ] {
                assert_eq!(ours.get(key), suite[i].get(key), "{} {key}", entry.name());
            }
            assert_eq!(
                ours.get("bist"),
                coverage[i].get("bist"),
                "{} bist",
                entry.name()
            );
            let ours_optimize = ours.get("optimize").unwrap_or(&Json::Null);
            assert_eq!(
                Some(ours_optimize),
                optimize[i].get("optimize"),
                "{}",
                entry.name()
            );
            let analysis = ours.get("analysis").expect("analysis section");
            for key in ["diagnostics", "blocks"] {
                assert_eq!(
                    analysis.get(key),
                    lint[i].get(key),
                    "{} {key}",
                    entry.name()
                );
            }
        }
    }
}
