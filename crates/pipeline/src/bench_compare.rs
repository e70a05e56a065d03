//! Perf-baseline comparison behind the `stc bench-check` CI gate.
//!
//! The vendored criterion stand-in writes one `BENCH_<bench>.json` baseline
//! per bench target (see `vendor/criterion`).  This module parses those files
//! and compares a fresh measurement run against the committed baselines with
//! a relative tolerance, so CI fails on perf regressions instead of letting
//! the baselines rot as decoration.
//!
//! Each benchmark compares its **absolute** mean time against the baseline
//! (same-machine assumption: the committed baselines and CI run on
//! comparable hardware, and the trimmed mean plus tolerance absorb the
//! rest); a baseline entry missing from the fresh run fails the check.

use crate::error::PipelineError;
use crate::json::Json;
use std::path::{Path, PathBuf};

/// One measured benchmark from a `BENCH_*.json` baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeasurement {
    /// Fully qualified benchmark name (`group/function/parameter`).
    pub name: String,
    /// Mean wall-clock time per iteration, in nanoseconds.
    pub mean_ns: f64,
}

/// Parses the contents of one `BENCH_*.json` file.
pub fn parse_baseline(text: &str, path: &Path) -> Result<Vec<BenchMeasurement>, PipelineError> {
    let fail = |message: String| PipelineError::Json {
        path: path.to_path_buf(),
        message,
    };
    let doc = Json::parse(text).map_err(|e| fail(e.to_string()))?;
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_array)
        .ok_or_else(|| fail("missing 'benchmarks' array".into()))?;
    let mut out = Vec::with_capacity(benches.len());
    for bench in benches {
        let name = bench
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("benchmark entry without a 'name' string".into()))?;
        let mean_ns = bench
            .get("mean_ns")
            .and_then(Json::as_f64)
            .ok_or_else(|| fail(format!("benchmark '{name}' without a 'mean_ns' number")))?;
        if !(mean_ns.is_finite() && mean_ns >= 0.0) {
            return Err(fail(format!("benchmark '{name}' has invalid mean_ns")));
        }
        out.push(BenchMeasurement {
            name: name.to_string(),
            mean_ns,
        });
    }
    Ok(out)
}

/// Reads and parses every `BENCH_*.json` file of a directory, sorted by file
/// name.  Returns `(file stem, measurements)` pairs.
pub fn load_baseline_dir(
    dir: &Path,
) -> Result<Vec<(String, Vec<BenchMeasurement>)>, PipelineError> {
    let read_dir = std::fs::read_dir(dir).map_err(|source| PipelineError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut files: Vec<PathBuf> = read_dir
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(PipelineError::EmptyCorpus(format!(
            "no BENCH_*.json files in {}",
            dir.display()
        )));
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path).map_err(|source| PipelineError::Io {
            path: path.clone(),
            source,
        })?;
        let stem = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("filtered above")
            .trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string();
        out.push((stem, parse_baseline(&text, &path)?));
    }
    Ok(out)
}

/// One baseline-vs-measured pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Benchmark name.
    pub name: String,
    /// Committed baseline mean, in nanoseconds.
    pub baseline_ns: f64,
    /// Freshly measured mean, in nanoseconds.
    pub measured_ns: f64,
}

impl BenchDelta {
    /// `measured / baseline`; values above 1 are slowdowns.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns <= 0.0 {
            1.0
        } else {
            self.measured_ns / self.baseline_ns
        }
    }
}

/// The outcome of comparing one measurement run against the baselines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchCheck {
    /// Relative tolerance (0.30 = ±30%).
    pub tolerance: f64,
    /// Benchmarks present in both sets.
    pub compared: Vec<BenchDelta>,
    /// Baseline benchmarks missing from the measured run (a coverage loss —
    /// fails the check).
    pub missing: Vec<String>,
    /// Measured benchmarks with no committed baseline (re-baseline to adopt
    /// them; does not fail the check).
    pub extra: Vec<String>,
}

impl BenchCheck {
    /// Benchmarks slower than `1 + tolerance` times the baseline.
    #[must_use]
    pub fn regressions(&self) -> Vec<&BenchDelta> {
        self.compared
            .iter()
            .filter(|d| d.ratio() > 1.0 + self.tolerance)
            .collect()
    }

    /// Benchmarks faster than `1 - tolerance` times the baseline (candidates
    /// for re-baselining so the gate keeps teeth).
    #[must_use]
    pub fn improvements(&self) -> Vec<&BenchDelta> {
        self.compared
            .iter()
            .filter(|d| d.ratio() < 1.0 - self.tolerance)
            .collect()
    }

    /// `true` when no benchmark regressed and none went missing.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }

    /// Human-readable comparison table.
    #[must_use]
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<50} {:>14} {:>14} {:>8}  verdict\n",
            "benchmark", "baseline ns", "measured ns", "ratio"
        ));
        for delta in &self.compared {
            let ratio = delta.ratio();
            let verdict = if ratio > 1.0 + self.tolerance {
                "REGRESSION"
            } else if ratio < 1.0 - self.tolerance {
                "improved"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "{:<50} {:>14.1} {:>14.1} {:>8.2}  {}\n",
                delta.name, delta.baseline_ns, delta.measured_ns, ratio, verdict
            ));
        }
        for name in &self.missing {
            out.push_str(&format!("{name:<50} MISSING from the measured run\n"));
        }
        for name in &self.extra {
            out.push_str(&format!(
                "{name:<50} new benchmark (no baseline; re-baseline to adopt)\n"
            ));
        }
        out
    }
}

/// Compares a measured run against the committed baselines.
#[must_use]
pub fn compare_benchmarks(
    baseline: &[BenchMeasurement],
    measured: &[BenchMeasurement],
    tolerance: f64,
) -> BenchCheck {
    let mut check = BenchCheck {
        tolerance,
        ..BenchCheck::default()
    };
    for base in baseline {
        match measured.iter().find(|m| m.name == base.name) {
            Some(m) => check.compared.push(BenchDelta {
                name: base.name.clone(),
                baseline_ns: base.mean_ns,
                measured_ns: m.mean_ns,
            }),
            None => check.missing.push(base.name.clone()),
        }
    }
    for m in measured {
        if !baseline.iter().any(|b| b.name == m.name) {
            check.extra.push(m.name.clone());
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str, mean_ns: f64) -> BenchMeasurement {
        BenchMeasurement {
            name: name.to_string(),
            mean_ns,
        }
    }

    #[test]
    fn parses_the_committed_baseline_format() {
        let text = r#"{
  "benchmarks": [
    {"name": "ostr_solver/tav", "mean_ns": 17006.2, "iterations": 20},
    {"name": "ostr_solver/mc", "mean_ns": 12147.4, "iterations": 20}
  ]
}"#;
        let parsed = parse_baseline(text, Path::new("BENCH_test.json")).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "ostr_solver/tav");
        assert_eq!(parsed[1].mean_ns, 12147.4);
        assert!(parse_baseline("{}", Path::new("x.json")).is_err());
        assert!(parse_baseline("not json", Path::new("x.json")).is_err());
    }

    #[test]
    fn detects_regressions_improvements_missing_and_extra() {
        let baseline = [m("a", 100.0), m("b", 100.0), m("c", 100.0), m("gone", 50.0)];
        let measured = [m("a", 129.0), m("b", 131.0), m("c", 60.0), m("new", 10.0)];
        let check = compare_benchmarks(&baseline, &measured, 0.30);
        assert_eq!(
            check
                .regressions()
                .iter()
                .map(|d| &d.name)
                .collect::<Vec<_>>(),
            ["b"]
        );
        assert_eq!(
            check
                .improvements()
                .iter()
                .map(|d| &d.name)
                .collect::<Vec<_>>(),
            ["c"]
        );
        assert_eq!(check.missing, ["gone"]);
        assert_eq!(check.extra, ["new"]);
        assert!(!check.passed());

        let ok = compare_benchmarks(&baseline[..3], &measured[..3], 0.40);
        assert!(ok.passed());
        let table = check.format_table();
        assert!(table.contains("REGRESSION"));
        assert!(table.contains("MISSING"));
    }

    #[test]
    fn zero_baseline_does_not_divide_by_zero() {
        let check = compare_benchmarks(&[m("z", 0.0)], &[m("z", 10.0)], 0.3);
        assert!(check.passed());
    }
}
