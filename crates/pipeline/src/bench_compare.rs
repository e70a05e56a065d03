//! Perf-baseline comparison behind the `stc bench-check` CI gate.
//!
//! The vendored criterion stand-in writes one `BENCH_<bench>.json` baseline
//! per bench target (see `vendor/criterion`).  This module parses those files
//! and compares a fresh measurement run against the committed baselines with
//! a relative tolerance, so CI fails on perf regressions instead of letting
//! the baselines rot as decoration.
//!
//! Two comparison regimes coexist:
//!
//! * ordinary benchmarks compare **absolute** mean times against the
//!   baseline (same-machine assumption: the committed baselines and CI run
//!   on comparable hardware, and the trimmed mean plus tolerance absorb the
//!   rest);
//! * the scale-suite groups ([`SPEEDUP_GROUPS`]) compare **within-run
//!   speedup ratios** instead.  A parallel solver bench on a 4-core runner
//!   is not slower code when it posts a different absolute time than the
//!   16-core machine that wrote the baseline — but its speedup over the
//!   serial entry *of the same run* is hardware-normalised.  The gate fails
//!   only when the measured speedup falls below the baseline speedup by
//!   more than the tolerance; configurations needing more workers than the
//!   runner has cores are skipped, and a measured speedup better than the
//!   baseline always passes.

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

/// Benchmark groups compared by within-run speedup ratio instead of
/// absolute time: `(group name, serial reference function)`.  Entries are
/// matched against fully qualified names of the form `group/function/param`;
/// each non-reference function is compared to the reference entry with the
/// same `param` from the same run.
pub const SPEEDUP_GROUPS: &[(&str, &str)] = &[
    ("ostr_solver_scale", "serial"),
    ("fault_sim_scale", "packed_narrow"),
];

/// Splits `group/function/param` and returns
/// `(group, reference function, function, param)` when the group is
/// speedup-compared.
fn speedup_group(name: &str) -> Option<(&str, &str, &str, &str)> {
    let mut parts = name.splitn(3, '/');
    let group = parts.next()?;
    let func = parts.next()?;
    let param = parts.next()?;
    SPEEDUP_GROUPS
        .iter()
        .find(|(g, _)| *g == group)
        .map(|&(g, reference)| (g, reference, func, param))
}

/// Worker count encoded in a function name's trailing digits (`ws4` → 4,
/// `packed_ws8` → 8); `None` for undecorated names like `packed_wide`.
fn worker_count(func: &str) -> Option<usize> {
    let start = func
        .rfind(|c: char| !c.is_ascii_digit())
        .map_or(0, |i| i + 1);
    func[start..].parse().ok()
}

/// `reference / variant`, the speedup of a variant over its serial
/// reference; 1.0 when the variant time is degenerate.
fn speedup(reference_ns: f64, variant_ns: f64) -> f64 {
    if variant_ns <= 0.0 {
        1.0
    } else {
        reference_ns / variant_ns
    }
}

/// One baseline-vs-measured speedup pair of a [`SPEEDUP_GROUPS`] benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupDelta {
    /// Variant benchmark name (`ostr_solver_scale/ws4/scale_l`).
    pub name: String,
    /// Serial reference benchmark name (`ostr_solver_scale/serial/scale_l`).
    pub reference: String,
    /// Worker count parsed from the function name, if any.
    pub workers: Option<usize>,
    /// Speedup over the reference in the committed baseline run.
    pub baseline_speedup: f64,
    /// Speedup over the reference in the fresh measured run.
    pub measured_speedup: f64,
    /// `true` when the configuration needs more workers than the measuring
    /// machine has cores — the entry is reported but never fails the gate.
    pub skipped: bool,
}

impl SpeedupDelta {
    /// `true` when the measured speedup lost more than `tolerance` of the
    /// baseline speedup (and the entry is not skipped).  Measured-better
    /// can never regress.
    #[must_use]
    pub fn regressed(&self, tolerance: f64) -> bool {
        !self.skipped && self.measured_speedup < self.baseline_speedup * (1.0 - tolerance)
    }
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
    /// Cores of the measuring machine (bounds which worker counts are
    /// meaningful; see [`SpeedupDelta::skipped`]).
    pub cores: usize,
    /// Benchmarks present in both sets.
    pub compared: Vec<BenchDelta>,
    /// Speedup-compared benchmarks present in both sets (the scale suite).
    pub speedups: Vec<SpeedupDelta>,
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

    /// Scale-suite benchmarks whose measured speedup lost more than the
    /// tolerance relative to the baseline speedup.
    #[must_use]
    pub fn speedup_regressions(&self) -> Vec<&SpeedupDelta> {
        self.speedups
            .iter()
            .filter(|d| d.regressed(self.tolerance))
            .collect()
    }

    /// `true` when no benchmark regressed (absolute or speedup) and none
    /// went missing.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
            && self.speedup_regressions().is_empty()
            && self.missing.is_empty()
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
        for delta in &self.speedups {
            let verdict = if delta.skipped {
                format!(
                    "skipped (needs {} workers, have {} cores)",
                    delta.workers.unwrap_or(0),
                    self.cores
                )
            } else if delta.regressed(self.tolerance) {
                "SPEEDUP REGRESSION".to_string()
            } else {
                "ok".to_string()
            };
            out.push_str(&format!(
                "{:<50} speedup {:>6.2}x -> {:>6.2}x          {}\n",
                delta.name, delta.baseline_speedup, delta.measured_speedup, verdict
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

/// Compares a measured run against the committed baselines, taking the
/// worker-count cutoff for speedup entries from the current machine.
#[must_use]
pub fn compare_benchmarks(
    baseline: &[BenchMeasurement],
    measured: &[BenchMeasurement],
    tolerance: f64,
) -> BenchCheck {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    compare_benchmarks_with_cores(baseline, measured, tolerance, cores)
}

/// Compares a measured run against the committed baselines with an explicit
/// core count (the testable entry point behind [`compare_benchmarks`]).
#[must_use]
pub fn compare_benchmarks_with_cores(
    baseline: &[BenchMeasurement],
    measured: &[BenchMeasurement],
    tolerance: f64,
    cores: usize,
) -> BenchCheck {
    let mut check = BenchCheck {
        tolerance,
        cores,
        ..BenchCheck::default()
    };
    let find = |set: &[BenchMeasurement], name: &str| -> Option<f64> {
        set.iter().find(|m| m.name == name).map(|m| m.mean_ns)
    };
    for base in baseline {
        let Some(measured_ns) = find(measured, &base.name) else {
            check.missing.push(base.name.clone());
            continue;
        };
        if let Some((group, reference, func, param)) = speedup_group(&base.name) {
            if func == reference {
                // The reference is only a denominator: its absolute time is
                // as hardware-bound as the variants'.
                continue;
            }
            let ref_name = format!("{group}/{reference}/{param}");
            if let (Some(base_ref), Some(measured_ref)) =
                (find(baseline, &ref_name), find(measured, &ref_name))
            {
                let workers = worker_count(func);
                check.speedups.push(SpeedupDelta {
                    name: base.name.clone(),
                    reference: ref_name,
                    workers,
                    baseline_speedup: speedup(base_ref, base.mean_ns),
                    measured_speedup: speedup(measured_ref, measured_ns),
                    skipped: workers.is_some_and(|w| w > cores),
                });
                continue;
            }
            // No reference entry in one of the runs: fall through to the
            // absolute comparison rather than silently dropping the gate.
        }
        check.compared.push(BenchDelta {
            name: base.name.clone(),
            baseline_ns: base.mean_ns,
            measured_ns,
        });
    }
    for m in measured {
        if !baseline.iter().any(|b| b.name == m.name) {
            check.extra.push(m.name.clone());
        }
    }
    check
}

/// Formats the speedup-vs-threads table of the scale suite as Markdown, from
/// the measurements of one `BENCH_scale.json` run.  The README embeds this
/// table verbatim; a drift test regenerates it from the committed baseline.
#[must_use]
pub fn format_speedup_table(measurements: &[BenchMeasurement]) -> String {
    let find = |name: String| -> Option<f64> {
        measurements
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.mean_ns)
    };
    let fmt_time = |ns: f64| -> String {
        if ns >= 1e9 {
            format!("{:.2} s", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.1} ms", ns / 1e6)
        } else {
            format!("{:.1} µs", ns / 1e3)
        }
    };
    let mut out = String::new();
    out.push_str("| machine | serial | 2 workers | 4 workers | 8 workers |\n");
    out.push_str("|---|---|---|---|---|\n");
    for m in measurements {
        let Some(param) = m.name.strip_prefix("ostr_solver_scale/serial/") else {
            continue;
        };
        out.push_str(&format!("| {param} | {} |", fmt_time(m.mean_ns)));
        for workers in [2, 4, 8] {
            let cell = find(format!("ostr_solver_scale/ws{workers}/{param}")).map_or_else(
                || "n/a".to_string(),
                |ns| format!("{:.2}x", speedup(m.mean_ns, ns)),
            );
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out.push('\n');
    out.push_str("| machine | narrow blocks | SIMD-wide |\n");
    out.push_str("|---|---|---|\n");
    for m in measurements {
        let Some(param) = m.name.strip_prefix("fault_sim_scale/packed_narrow/") else {
            continue;
        };
        let cell = find(format!("fault_sim_scale/packed_wide/{param}")).map_or_else(
            || "n/a".to_string(),
            |ns| format!("{:.2}x", speedup(m.mean_ns, ns)),
        );
        out.push_str(&format!("| {param} | {} | {cell} |\n", fmt_time(m.mean_ns)));
    }
    out
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

    /// Scale entries compare by within-run speedup ratio: halving every
    /// absolute time (a faster runner) must not trip the gate, while losing
    /// the parallel speedup at unchanged serial time must.
    #[test]
    fn scale_entries_compare_speedups_not_absolute_times() {
        let baseline = [
            m("ostr_solver_scale/serial/scale_s", 4000.0),
            m("ostr_solver_scale/ws4/scale_s", 1000.0), // 4.0x at 4 workers
        ];
        // Twice as fast across the board, same 4.0x speedup: passes even
        // though 'serial' would count as a ±30% "improvement" absolutely.
        let faster_runner = [
            m("ostr_solver_scale/serial/scale_s", 2000.0),
            m("ostr_solver_scale/ws4/scale_s", 500.0),
        ];
        let check = compare_benchmarks_with_cores(&baseline, &faster_runner, 0.30, 8);
        assert!(
            check.compared.is_empty(),
            "no absolute comparison for scale entries"
        );
        assert_eq!(check.speedups.len(), 1);
        assert_eq!(check.speedups[0].workers, Some(4));
        assert!(check.passed());

        // Same serial time, parallel collapsed to 1.5x: 1.5 < 4.0 * 0.7.
        let lost_parallelism = [
            m("ostr_solver_scale/serial/scale_s", 4000.0),
            m("ostr_solver_scale/ws4/scale_s", 2666.0),
        ];
        let check = compare_benchmarks_with_cores(&baseline, &lost_parallelism, 0.30, 8);
        assert_eq!(check.speedup_regressions().len(), 1);
        assert!(!check.passed());
        assert!(check.format_table().contains("SPEEDUP REGRESSION"));

        // The same loss on a 2-core machine is skipped: the runner cannot
        // host 4 workers, so the measurement says nothing about the code.
        let check = compare_benchmarks_with_cores(&baseline, &lost_parallelism, 0.30, 2);
        assert!(check.speedups[0].skipped);
        assert!(check.passed());
        assert!(check.format_table().contains("skipped"));

        // Measured better than baseline always passes.
        let better = [
            m("ostr_solver_scale/serial/scale_s", 4000.0),
            m("ostr_solver_scale/ws4/scale_s", 800.0),
        ];
        assert!(compare_benchmarks_with_cores(&baseline, &better, 0.30, 8).passed());
    }

    #[test]
    fn scale_entries_missing_from_the_measured_run_still_fail() {
        let baseline = [
            m("ostr_solver_scale/serial/scale_s", 4000.0),
            m("ostr_solver_scale/ws4/scale_s", 1000.0),
        ];
        let check = compare_benchmarks_with_cores(&baseline, &baseline[..1], 0.30, 8);
        assert_eq!(check.missing, ["ostr_solver_scale/ws4/scale_s"]);
        assert!(!check.passed());
    }

    #[test]
    fn speedup_entries_without_a_reference_fall_back_to_absolute() {
        // A hypothetical scale entry with no serial reference in the
        // baseline is still gated, absolutely.
        let baseline = [m("fault_sim_scale/packed_wide/scale_m", 1000.0)];
        let measured = [m("fault_sim_scale/packed_wide/scale_m", 2000.0)];
        let check = compare_benchmarks_with_cores(&baseline, &measured, 0.30, 8);
        assert!(check.speedups.is_empty());
        assert_eq!(check.regressions().len(), 1);
    }

    #[test]
    fn speedup_table_renders_both_groups() {
        let measurements = [
            m("ostr_solver_scale/serial/scale_s", 3_400_000.0),
            m("ostr_solver_scale/ws2/scale_s", 1_700_000.0),
            m("ostr_solver_scale/ws4/scale_s", 1_000_000.0),
            m("ostr_solver_scale/ws8/scale_s", 850_000.0),
            m("fault_sim_scale/packed_narrow/scale_s", 116_000_000.0),
            m("fault_sim_scale/packed_wide/scale_s", 81_000_000.0),
        ];
        let table = format_speedup_table(&measurements);
        assert!(table.contains("| scale_s | 3.4 ms | 2.00x | 3.40x | 4.00x |"));
        assert!(table.contains("| scale_s | 116.0 ms | 1.43x |\n"));
    }
}
