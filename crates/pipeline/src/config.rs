//! The layered session configuration behind [`crate::Synthesis`].
//!
//! One [`StcConfig`] carries every knob of the flow — solver, encoding,
//! logic synthesis, BIST, gate-level limits, worker counts — and is built in
//! three layers of increasing precedence:
//!
//! 1. **crate defaults** ([`StcConfig::default`]);
//! 2. **a profile file** ([`StcConfig::apply_profile`]): a TOML-style text
//!    of `[section]` headers and `key = value` lines;
//! 3. **individual overrides** ([`StcConfig::set`]): dotted `key = value`
//!    pairs, the exact mechanism behind CLI flags and the per-request
//!    `overrides` object of the `stc serve` protocol.
//!
//! Which knobs can influence a result is decided in one place,
//! [`StcConfig::to_json`], the configuration echo: worker counts (`jobs`,
//! `solver.jobs`) cannot influence a result, and the wall-clock bounds
//! (`machine_timeout_secs`, `stage_deadline_secs`, `solver.time_limit_secs`)
//! depend on machine speed and show their effect — when one fires — in the
//! report itself (`status`, `budget_exhausted`), so the echo leaves all five
//! out.  A suite report and a serve response carry that echo, and the serve
//! cache keys on it, so reports stay machine-independent.  The optional
//! stages' knobs are echoed only when their stage is *enabled*: an additive
//! feature must leave stage-free golden reports byte-identical.

use crate::json::Json;
use stc_logic::SynthOptions;
use stc_synth::SolverConfig;
use std::time::Duration;

/// An error raised while layering configuration: an unknown key, a malformed
/// value or a syntax error in a profile text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending key (or line, for profile syntax errors).
    pub key: String,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "config key '{}': {}", self.key, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Every override key [`StcConfig::set`] understands, with a short value
/// description — kept next to the parser so the list cannot drift, and used
/// verbatim in unknown-key error messages and the CLI help text.
pub const CONFIG_KEYS: &[(&str, &str)] = &[
    ("jobs", "corpus-runner worker threads (0 = auto)"),
    ("solver.max_nodes", "OSTR node budget per machine"),
    (
        "solver.time_limit_secs",
        "solver wall-clock limit (0 = none)",
    ),
    ("solver.lemma1_pruning", "true/false"),
    ("solver.stop_at_lower_bound", "true/false"),
    ("solver.branch_and_bound", "true/false"),
    ("solver.jobs", "threads for parallel subtree exploration"),
    (
        "solver.steal_seed",
        "accepted for compatibility; has no effect",
    ),
    (
        "encoding",
        "binary | gray | one-hot | adjacency-greedy; accepted; has no effect — R1/R2 hold binary block indices",
    ),
    ("synth.minimize", "true/false"),
    ("bist.patterns", "BIST patterns per self-test session"),
    (
        "coverage.enabled",
        "true/false — measure exact BIST-plan fault coverage",
    ),
    (
        "coverage.max_patterns",
        "cap on patterns per session for the coverage measurement (0 = plan budget)",
    ),
    (
        "coverage.optimize.enabled",
        "true/false — search seeds/polynomials/lengths for the shortest plan reaching the target",
    ),
    (
        "coverage.optimize.target",
        "coverage target of the plan optimizer, a fraction in (0, 1]",
    ),
    (
        "coverage.optimize.max_candidates",
        "candidate pattern sources the optimizer evaluates per session",
    ),
    (
        "coverage.optimize.max_total_length",
        "total-pattern budget of the optimized plan (0 = 2 x bist.patterns)",
    ),
    (
        "analysis.enabled",
        "true/false — run static FSM/netlist lints and SCOAP testability analysis",
    ),
    (
        "analysis.deny",
        "comma-separated diagnostic codes promoted to error severity",
    ),
    (
        "emit.enabled",
        "true/false — compile the plan into a deployable controller module",
    ),
    ("emit.target", "rust | verilog"),
    (
        "emit.module_name",
        "override for the emitted module name (empty = machine name)",
    ),
    ("gate_level.max_states", "max |S| for the gate-level stages"),
    (
        "gate_level.max_inputs",
        "max input-alphabet size for gate level",
    ),
    (
        "machine_timeout_secs",
        "per-machine wall-clock safety net (0 = none)",
    ),
    (
        "stage_deadline_secs",
        "per-stage wall-clock deadline (0 = none)",
    ),
];

/// Size limits above which the gate-level stages (encode, logic, BIST) are
/// skipped and a machine gets a `solve-only` report — mirroring the paper,
/// which reports gate-level numbers only for tractable machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateLevelLimits {
    /// Maximum `|S|` for gate-level synthesis.
    pub max_states: usize,
    /// Maximum input-alphabet size for gate-level synthesis.
    pub max_inputs: usize,
}

impl Default for GateLevelLimits {
    fn default() -> Self {
        Self {
            max_states: 10,
            max_inputs: 16,
        }
    }
}

/// Configuration of the exact fault-coverage measurement of the BIST plan
/// (the `coverage` stage).  Disabled by default: with `enabled == false` no
/// coverage stage runs and reports are byte-identical to pre-coverage
/// reports, so existing golden files are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CoverageConfig {
    /// Whether to measure exact single-stuck-at coverage of the two-session
    /// BIST plan (bit-parallel fault simulation of the plan's own stimuli).
    pub enabled: bool,
    /// Cap on the patterns applied per session by the measurement.  `0`
    /// (the default) means no cap: exactly the plan's
    /// `patterns_per_session` stimuli are simulated.
    pub max_patterns: usize,
}

impl CoverageConfig {
    /// The number of patterns the measurement applies per session for a
    /// plan with the given pattern budget.
    #[must_use]
    pub fn applied_patterns(&self, patterns_per_session: usize) -> usize {
        if self.max_patterns == 0 {
            patterns_per_session
        } else {
            patterns_per_session.min(self.max_patterns)
        }
    }
}

/// Configuration of the coverage-driven BIST plan optimization (the
/// `optimize` stage).  Disabled by default: with `enabled == false` no
/// optimize stage runs and reports are byte-identical to pre-optimizer
/// reports, so existing golden files are unaffected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeConfig {
    /// Whether to search LFSR seed/polynomial candidates and the
    /// per-session length split for the shortest plan reaching the target
    /// coverage.
    pub enabled: bool,
    /// Coverage each session must reach, as a fraction in `(0, 1]`.
    pub target: f64,
    /// Candidate pattern sources evaluated per session.
    pub max_candidates: usize,
    /// Total-pattern budget for the optimized plan.  `0` (the default)
    /// means *the fixed plan's budget*: `2 × patterns_per_session`.
    pub max_total_length: usize,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            target: 1.0,
            max_candidates: 16,
            max_total_length: 0,
        }
    }
}

impl OptimizeConfig {
    /// The effective total-length budget for a plan with the given
    /// per-session pattern budget (`0` resolves to `2 ×
    /// patterns_per_session`, floored at one pattern).
    #[must_use]
    pub fn resolved_max_total_length(&self, patterns_per_session: usize) -> usize {
        if self.max_total_length == 0 {
            (2 * patterns_per_session).max(1)
        } else {
            self.max_total_length
        }
    }
}

/// The per-stage knobs of the flow that fit in a `Copy` struct: solver,
/// encoding, minimisation, BIST, gate-level limits and the optional
/// coverage and optimize stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// OSTR solver configuration.  The default is *deterministic*: a node
    /// budget with no wall-clock limit, so `nodes_investigated` and
    /// `budget_exhausted` are pure functions of the machine.
    pub solver: SolverConfig,
    /// The `encoding` key's echo label (`"binary"`, `"gray"`, `"onehot"`
    /// or `"adjacencygreedy"`): parsed, echoed and fingerprinted, but the
    /// pipeline registers hold binary block indices, so it moves no other
    /// report byte.
    pub encoding: &'static str,
    /// Two-level minimisation options.
    pub synth: SynthOptions,
    /// BIST patterns per self-test session.
    pub patterns_per_session: usize,
    /// Gate-level stage limits.
    pub gate_level: GateLevelLimits,
    /// Exact fault-coverage measurement of the BIST plan.
    pub coverage: CoverageConfig,
    /// Coverage-driven optimization of the BIST plan.
    pub optimize: OptimizeConfig,
    /// Optional per-machine wall-clock timeout, checked between stages.
    /// `None` (the default) keeps the run fully deterministic.
    pub machine_timeout: Option<Duration>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            solver: SolverConfig {
                max_nodes: 100_000,
                time_limit: None,
                lemma1_pruning: true,
                stop_at_lower_bound: true,
                branch_and_bound: true,
                parallel_subtrees: 1,
            },
            encoding: "binary",
            synth: SynthOptions::default(),
            patterns_per_session: 256,
            gate_level: GateLevelLimits::default(),
            coverage: CoverageConfig::default(),
            optimize: OptimizeConfig::default(),
            machine_timeout: None,
        }
    }
}

/// Settings of the optional static-analysis stage (`stc-analyze`).
///
/// Lives on [`StcConfig`] rather than [`PipelineConfig`] because the deny
/// list is heap-allocated and `PipelineConfig` stays `Copy`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisSettings {
    /// Run the FSM lints, netlist structural checks and SCOAP metrics and
    /// attach an `analysis` section to each machine report.
    pub enabled: bool,
    /// Diagnostic codes promoted to error severity (sorted, deduplicated).
    /// Every entry is validated against the `stc-analyze` code registry.
    pub deny: Vec<String>,
}

/// Settings of the optional code-emission stage (`stc-emit`).
///
/// Like [`AnalysisSettings`] this lives on [`StcConfig`] rather than
/// [`PipelineConfig`]: the module-name override is heap-allocated and
/// `PipelineConfig` stays `Copy`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EmitSettings {
    /// Compile the decomposition + BIST plan into a deployable controller
    /// module and attach an `emit` digest section to each machine report.
    pub enabled: bool,
    /// The codegen backend: an allocation-free `no_std` Rust module or a
    /// structural Verilog netlist with a BIST wrapper.
    pub target: stc_emit::EmitTarget,
    /// Override for the emitted module name; empty means *derive from the
    /// machine name*.  Either way the name is sanitised to an identifier.
    pub module_name: String,
}

/// The complete, layered configuration of a [`crate::Synthesis`] session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StcConfig {
    /// The `Copy` per-stage knobs.
    pub pipeline: PipelineConfig,
    /// The static-analysis stage (disabled by default; additive in reports).
    pub analysis: AnalysisSettings,
    /// The code-emission stage (disabled by default; additive in reports).
    pub emit: EmitSettings,
    /// Worker threads for corpus runs and the serve loop.  `0` means *auto*:
    /// resolve via [`std::thread::available_parallelism`] at run time.  The
    /// resolved value is logged but — like `solver.jobs` — deliberately
    /// never echoed into reports, which keeps them machine-independent.
    pub jobs: usize,
    /// Optional per-stage wall-clock deadline.  The solve stage honours it
    /// by cooperative cancellation (the observer machinery), the later
    /// stages by a check on completion; exceeding it marks the machine
    /// [`crate::MachineStatus::TimedOut`].  Like `machine_timeout`, enabling
    /// it trades determinism for boundedness.
    pub stage_deadline: Option<Duration>,
}

impl StcConfig {
    /// The configuration echo embedded in suite reports and serve responses,
    /// and the content the serve cache keys on: every knob that can change a
    /// report byte, and nothing else.  Worker counts and wall-clock bounds
    /// are left out (see the module docs), and each optional stage's knobs
    /// are present only when that stage is enabled.  Two configurations with
    /// equal echoes produce the same report bytes for any machine (unless a
    /// wall-clock bound fires).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let p = &self.pipeline;
        let mut entries = vec![
            ("max_nodes".into(), Json::from_u64(p.solver.max_nodes)),
            ("lemma1_pruning".into(), Json::Bool(p.solver.lemma1_pruning)),
            (
                "stop_at_lower_bound".into(),
                Json::Bool(p.solver.stop_at_lower_bound),
            ),
            (
                "branch_and_bound".into(),
                Json::Bool(p.solver.branch_and_bound),
            ),
            ("encoding".into(), Json::String(p.encoding.into())),
            ("minimize".into(), Json::Bool(p.synth.minimize)),
            (
                "patterns_per_session".into(),
                Json::from_usize(p.patterns_per_session),
            ),
            (
                "gate_level_max_states".into(),
                Json::from_usize(p.gate_level.max_states),
            ),
            (
                "gate_level_max_inputs".into(),
                Json::from_usize(p.gate_level.max_inputs),
            ),
        ];
        if p.coverage.enabled {
            entries.push(("coverage_enabled".into(), Json::Bool(true)));
            entries.push((
                "coverage_max_patterns".into(),
                Json::from_usize(p.coverage.max_patterns),
            ));
        }
        if p.optimize.enabled {
            entries.push(("optimize_enabled".into(), Json::Bool(true)));
            entries.push(("optimize_target".into(), Json::Number(p.optimize.target)));
            entries.push((
                "optimize_max_candidates".into(),
                Json::from_usize(p.optimize.max_candidates),
            ));
            entries.push((
                "optimize_max_total_length".into(),
                Json::from_usize(p.optimize.max_total_length),
            ));
        }
        if self.analysis.enabled {
            entries.push(("analysis_enabled".into(), Json::Bool(true)));
            entries.push((
                "analysis_deny".into(),
                Json::Array(
                    self.analysis
                        .deny
                        .iter()
                        .map(|code| Json::String(code.clone()))
                        .collect(),
                ),
            ));
        }
        if self.emit.enabled {
            entries.push(("emit_enabled".into(), Json::Bool(true)));
            entries.push((
                "emit_target".into(),
                Json::String(self.emit.target.as_str().to_string()),
            ));
            entries.push((
                "emit_module_name".into(),
                Json::String(self.emit.module_name.clone()),
            ));
        }
        Json::Object(entries)
    }

    /// Applies a profile text: TOML-style `[section]` headers, `key = value`
    /// lines, `#` comments and blank lines.  Section headers prefix the keys
    /// of the following lines (`[solver]` + `max_nodes = 1` ≡
    /// `solver.max_nodes = 1`); top-level dotted keys work without a header.
    pub fn apply_profile(&mut self, text: &str) -> Result<(), ConfigError> {
        let mut section = String::new();
        for (number, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header.strip_suffix(']').ok_or_else(|| ConfigError {
                    key: format!("line {}", number + 1),
                    message: format!("malformed section header '{raw}'"),
                })?;
                section = header.trim().to_string();
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                key: format!("line {}", number + 1),
                message: format!("expected 'key = value', got '{raw}'"),
            })?;
            let key = key.trim();
            let dotted = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            self.set(&dotted, value.trim().trim_matches('"'))?;
        }
        Ok(())
    }

    /// Sets one dotted key (see [`CONFIG_KEYS`]) — the shared override
    /// mechanism of profile files, CLI flags and serve-request overrides.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
        let p = &mut self.pipeline;
        match key {
            "jobs" => self.jobs = parse(key, value)?,
            "solver.max_nodes" => p.solver.max_nodes = parse(key, value)?,
            "solver.time_limit_secs" => {
                p.solver.time_limit = optional_secs(parse(key, value)?);
            }
            "solver.lemma1_pruning" => p.solver.lemma1_pruning = parse_bool(key, value)?,
            "solver.stop_at_lower_bound" => p.solver.stop_at_lower_bound = parse_bool(key, value)?,
            "solver.branch_and_bound" => p.solver.branch_and_bound = parse_bool(key, value)?,
            "solver.jobs" => p.solver.parallel_subtrees = parse(key, value)?,
            // No effect; still validated so existing profiles and requests
            // keep parsing.
            "solver.steal_seed" => {
                parse::<u64>(key, value)?;
            }
            "encoding" => {
                p.encoding = match value {
                    "binary" => "binary",
                    "gray" => "gray",
                    "one-hot" | "onehot" => "onehot",
                    "adjacency-greedy" | "adjacencygreedy" => "adjacencygreedy",
                    other => {
                        return Err(ConfigError {
                            key: key.to_string(),
                            message: format!(
                                "unknown encoding '{other}' (expected binary, gray, one-hot \
                                 or adjacency-greedy)"
                            ),
                        })
                    }
                };
            }
            "synth.minimize" => p.synth.minimize = parse_bool(key, value)?,
            "bist.patterns" => p.patterns_per_session = parse(key, value)?,
            "coverage.enabled" => p.coverage.enabled = parse_bool(key, value)?,
            "coverage.max_patterns" => p.coverage.max_patterns = parse(key, value)?,
            "coverage.optimize.enabled" => p.optimize.enabled = parse_bool(key, value)?,
            "coverage.optimize.target" => {
                let target: f64 = parse(key, value)?;
                if !(target > 0.0 && target <= 1.0) {
                    return Err(ConfigError {
                        key: key.to_string(),
                        message: format!("target '{value}' must lie in (0, 1]"),
                    });
                }
                p.optimize.target = target;
            }
            "coverage.optimize.max_candidates" => {
                let candidates: usize = parse(key, value)?;
                if candidates == 0 {
                    return Err(ConfigError {
                        key: key.to_string(),
                        message: "at least one candidate is required".to_string(),
                    });
                }
                p.optimize.max_candidates = candidates;
            }
            "coverage.optimize.max_total_length" => {
                p.optimize.max_total_length = parse(key, value)?;
            }
            "analysis.enabled" => self.analysis.enabled = parse_bool(key, value)?,
            "analysis.deny" => {
                let mut deny: Vec<String> = Vec::new();
                for code in value.split(',').map(str::trim).filter(|c| !c.is_empty()) {
                    if !stc_analyze::is_known_code(code) {
                        return Err(ConfigError {
                            key: key.to_string(),
                            message: format!("unknown diagnostic code '{code}'"),
                        });
                    }
                    deny.push(code.to_string());
                }
                deny.sort_unstable();
                deny.dedup();
                self.analysis.deny = deny;
            }
            "emit.enabled" => self.emit.enabled = parse_bool(key, value)?,
            "emit.target" => {
                self.emit.target =
                    stc_emit::EmitTarget::parse(value).ok_or_else(|| ConfigError {
                        key: key.to_string(),
                        message: format!("unknown target '{value}' (expected rust or verilog)"),
                    })?;
            }
            "emit.module_name" => self.emit.module_name = value.to_string(),
            "gate_level.max_states" => p.gate_level.max_states = parse(key, value)?,
            "gate_level.max_inputs" => p.gate_level.max_inputs = parse(key, value)?,
            "machine_timeout_secs" => p.machine_timeout = optional_secs(parse(key, value)?),
            "stage_deadline_secs" => self.stage_deadline = optional_secs(parse(key, value)?),
            other => {
                let known: Vec<&str> = CONFIG_KEYS.iter().map(|(k, _)| *k).collect();
                return Err(ConfigError {
                    key: other.to_string(),
                    message: format!("unknown key (known keys: {})", known.join(", ")),
                });
            }
        }
        Ok(())
    }

    /// Resolves the worker count: `jobs` itself when positive, otherwise the
    /// machine's available parallelism (falling back to 1 when detection
    /// fails).  Callers log the resolved value; it is never echoed into
    /// reports.
    #[must_use]
    pub fn resolve_jobs(&self) -> usize {
        resolve_jobs(self.jobs)
    }
}

/// Resolves a `--jobs` value: positive counts pass through, `0` means
/// auto-detect via [`std::thread::available_parallelism`].
#[must_use]
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

fn optional_secs(secs: u64) -> Option<Duration> {
    (secs > 0).then(|| Duration::from_secs(secs))
}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ConfigError> {
    value.parse().map_err(|_| ConfigError {
        key: key.to_string(),
        message: format!("invalid value '{value}'"),
    })
}

fn parse_bool(key: &str, value: &str) -> Result<bool, ConfigError> {
    match value {
        "true" | "1" | "on" | "yes" => Ok(true),
        "false" | "0" | "off" | "no" => Ok(false),
        other => Err(ConfigError {
            key: key.to_string(),
            message: format!("invalid boolean '{other}'"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_pipeline_defaults() {
        let config = StcConfig::default();
        assert_eq!(config.pipeline, PipelineConfig::default());
        assert_eq!(config.jobs, 0);
        assert_eq!(config.stage_deadline, None);
    }

    #[test]
    fn profile_layers_over_defaults_and_overrides_layer_over_profile() {
        let mut config = StcConfig::default();
        config
            .apply_profile(
                "# a profile\n\
                 jobs = 3\n\
                 encoding = \"gray\"\n\
                 [solver]\n\
                 max_nodes = 1234  # inline comment\n\
                 branch_and_bound = false\n\
                 [gate_level]\n\
                 max_states = 6\n",
            )
            .unwrap();
        assert_eq!(config.jobs, 3);
        assert_eq!(config.pipeline.solver.max_nodes, 1234);
        assert!(!config.pipeline.solver.branch_and_bound);
        assert_eq!(config.pipeline.encoding, "gray");
        assert_eq!(config.pipeline.gate_level.max_states, 6);
        // The CLI layer wins over the profile layer.
        config.set("solver.max_nodes", "99").unwrap();
        assert_eq!(config.pipeline.solver.max_nodes, 99);
        // Untouched keys keep their defaults.
        assert_eq!(
            config.pipeline.gate_level.max_inputs,
            GateLevelLimits::default().max_inputs
        );
    }

    #[test]
    fn every_documented_key_is_accepted() {
        let mut config = StcConfig::default();
        for (key, _) in CONFIG_KEYS {
            let value = match *key {
                "encoding" => "binary",
                "emit.target" => "rust",
                "emit.module_name" => "ctrl",
                "analysis.deny" => "net-cycle, kiss2-syntax",
                "coverage.optimize.target" => "0.95",
                k if k.contains("pruning")
                    || k.contains("bound")
                    || k.contains("minimize")
                    || k.contains("enabled") =>
                {
                    "true"
                }
                _ => "2",
            };
            config.set(key, value).unwrap_or_else(|e| {
                panic!("documented key '{key}' rejected: {e}");
            });
        }
    }

    #[test]
    fn optimize_keys_are_validated() {
        let mut config = StcConfig::default();
        assert!(!config.pipeline.optimize.enabled);
        config.set("coverage.optimize.enabled", "true").unwrap();
        config.set("coverage.optimize.target", "0.97").unwrap();
        config.set("coverage.optimize.max_candidates", "8").unwrap();
        config
            .set("coverage.optimize.max_total_length", "64")
            .unwrap();
        assert!(config.pipeline.optimize.enabled);
        assert!((config.pipeline.optimize.target - 0.97).abs() < 1e-12);
        assert_eq!(config.pipeline.optimize.max_candidates, 8);
        assert_eq!(config.pipeline.optimize.max_total_length, 64);
        for (key, bad) in [
            ("coverage.optimize.target", "0"),
            ("coverage.optimize.target", "1.5"),
            ("coverage.optimize.target", "-0.2"),
            ("coverage.optimize.max_candidates", "0"),
        ] {
            let err = config.set(key, bad).unwrap_err();
            assert!(err.to_string().contains(key), "{err}");
        }
    }

    #[test]
    fn errors_name_the_key_and_list_known_keys() {
        let mut config = StcConfig::default();
        // A typo, and two field names that are not keys: only the names in
        // CONFIG_KEYS are accepted.
        for unknown in [
            "solver.max_nodez",
            "solver.parallel_subtrees",
            "patterns_per_session",
        ] {
            let err = config.set(unknown, "1").unwrap_err();
            assert!(err.to_string().contains(unknown), "{err}");
            assert!(err.to_string().contains("solver.max_nodes"), "{err}");
        }
        assert_eq!(config, StcConfig::default());
        let err = config.set("jobs", "many").unwrap_err();
        assert!(err.to_string().contains("invalid value"));
        let err = config.apply_profile("[solver\nmax_nodes = 1").unwrap_err();
        assert!(err.message.contains("section header"));
        let err = config.apply_profile("just a line").unwrap_err();
        assert!(err.message.contains("key = value"));
    }

    #[test]
    fn an_unknown_encoding_is_rejected_with_the_accepted_spellings() {
        let mut config = StcConfig::default();
        let err = config.set("encoding", "x").unwrap_err();
        assert_eq!(err.key, "encoding");
        assert_eq!(
            err.message,
            "unknown encoding 'x' (expected binary, gray, one-hot or adjacency-greedy)"
        );
        assert_eq!(config, StcConfig::default());
    }

    #[test]
    fn zero_disables_the_optional_durations() {
        let mut config = StcConfig::default();
        config.set("machine_timeout_secs", "5").unwrap();
        config.set("stage_deadline_secs", "7").unwrap();
        assert_eq!(
            config.pipeline.machine_timeout,
            Some(Duration::from_secs(5))
        );
        assert_eq!(config.stage_deadline, Some(Duration::from_secs(7)));
        config.set("machine_timeout_secs", "0").unwrap();
        config.set("stage_deadline_secs", "0").unwrap();
        assert_eq!(config.pipeline.machine_timeout, None);
        assert_eq!(config.stage_deadline, None);
    }

    #[test]
    fn resolve_jobs_auto_detects_on_zero() {
        assert_eq!(resolve_jobs(4), 4);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn analysis_deny_is_validated_sorted_and_deduplicated() {
        let mut config = StcConfig::default();
        config
            .set(
                "analysis.deny",
                "net-dead-gate, fsm-unreachable-state, net-dead-gate",
            )
            .unwrap();
        assert_eq!(
            config.analysis.deny,
            vec![
                "fsm-unreachable-state".to_string(),
                "net-dead-gate".to_string()
            ]
        );
        let err = config.set("analysis.deny", "no-such-code").unwrap_err();
        assert!(err.to_string().contains("no-such-code"), "{err}");
        config.set("analysis.deny", "").unwrap();
        assert!(config.analysis.deny.is_empty());
        assert!(!config.analysis.enabled);
        config.set("analysis.enabled", "true").unwrap();
        assert!(config.analysis.enabled);
    }
}
