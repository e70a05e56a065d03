//! Machine-readable pipeline reports.
//!
//! A [`SuiteReport`]'s JSON is a pure function of the corpus and the
//! configuration echo ([`crate::StcConfig::to_json`]): it contains no
//! wall-clock measurements, no host-dependent values and no hash-ordered
//! collections, so serial and parallel runs of the same corpus serialise to
//! byte-identical JSON and CI can diff the output against a committed
//! golden file.  Wall-clock timings
//! are reported separately (see [`crate::SuiteRun`]).

use crate::config::StcConfig;
use crate::json::Json;
use stc_analyze::{BlockAnalysis, Diagnostic, Severity};
use stc_bist::{SessionOptimization, SessionResult};
use stc_fsm::benchmarks::{PaperTable1Row, PaperTable2Row};

/// Version of the report schema, bumped on any breaking change to the JSON
/// layout (documented in the README).
///
/// v2: added `config.branch_and_bound` and `solve.subtrees_bound_pruned`
/// for the branch-and-bound search core.  Still v2 (additive, no bump):
/// `bist.measured_coverage` / `bist.undetected_faults` and the
/// `config.coverage_enabled` / `config.coverage_max_patterns` echo appear
/// only when the exact coverage stage is enabled — coverage-free reports
/// keep the original v2 byte layout.  Likewise additive: the per-machine
/// `analysis` section and the `config.analysis_enabled` /
/// `config.analysis_deny` echo appear only when the static-analysis stage
/// is enabled, the per-machine `optimize` section and the
/// `config.optimize_*` echo appear only when the plan-optimization stage is
/// enabled, and the per-machine `emit` digest section and the
/// `config.emit_*` echo appear only when the code-emission stage is
/// enabled.
pub const REPORT_SCHEMA_VERSION: u64 = 2;

/// How far a machine travelled through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineStatus {
    /// All stages ran: solve, encode, logic synthesis and BIST.
    Full,
    /// Only the FSM-level stage ran; the machine exceeds the configured
    /// gate-level limits (states/inputs), matching the paper's evaluation
    /// which reports gate-level numbers only for tractable machines.
    SolveOnly,
    /// The per-machine wall-clock timeout expired between stages; the report
    /// carries the sections completed before the deadline.
    TimedOut,
    /// A session observer requested cancellation before this machine's flow
    /// completed; the report carries the sections completed before the stop
    /// (none, when the machine was never started).  Never appears in
    /// observer-free runs, so golden reports are unaffected.
    Cancelled,
    /// A stage failed (e.g. the realization did not verify).
    Error(String),
}

impl MachineStatus {
    /// The status as the string used in the JSON report.
    #[must_use]
    pub fn as_json_str(&self) -> &str {
        match self {
            MachineStatus::Full => "full",
            MachineStatus::SolveOnly => "solve-only",
            MachineStatus::TimedOut => "timeout",
            MachineStatus::Cancelled => "cancelled",
            MachineStatus::Error(_) => "error",
        }
    }
}

/// Results of the OSTR solve stage for one machine (Tables 1 and 2 columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveReport {
    /// Measured best first-factor size `|S1|`.
    pub s1: usize,
    /// Measured best second-factor size `|S2|`.
    pub s2: usize,
    /// Flip-flops for a conventional BIST: `2 · ⌈log2 |S|⌉`.
    pub conventional_bist_ff: u32,
    /// Flip-flops for the pipeline structure: `⌈log2 |S1|⌉ + ⌈log2 |S2|⌉`.
    pub pipeline_ff: u32,
    /// `true` if the solution is non-trivial (`|S1| < |S|` or `|S2| < |S|`).
    pub nontrivial: bool,
    /// Size of the symmetric-pair basis `|𝔐|` (`log2` of the search-tree
    /// size).
    pub basis_size: usize,
    /// Nodes investigated by the depth-first search.
    pub nodes_investigated: u64,
    /// Subtrees discarded by the Lemma 1 pruning.
    pub subtrees_pruned: u64,
    /// Subtrees discarded by the branch-and-bound cost lower bound.
    pub subtrees_bound_pruned: u64,
    /// Whether the deterministic node budget was exhausted.
    pub budget_exhausted: bool,
    /// Whether the Theorem 1 realization of the best solution verified
    /// against the specification (Definition 3).
    pub realization_verified: bool,
}

/// Results of the encoding + logic-synthesis stages for one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogicReport {
    /// Register `R1` width in bits.
    pub r1_bits: u32,
    /// Register `R2` width in bits.
    pub r2_bits: u32,
    /// Total gates over `C1`, `C2` and the output logic.
    pub gates: usize,
    /// Total gate-input connections (area proxy).
    pub literals: usize,
    /// Maximum combinational depth over the three blocks.
    pub depth: usize,
}

/// Results of the BIST stage for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct BistReport {
    /// Session 1 (`C1` under test).
    pub session1: SessionResult,
    /// Session 2 (`C2` under test).
    pub session2: SessionResult,
    /// Signature-based fault coverage over both sessions.
    pub overall_coverage: f64,
    /// Exact single-stuck-at coverage of the plan, measured by bit-parallel
    /// fault simulation of the plan's own stimuli.  `None` when the
    /// coverage stage is disabled — the fields are then absent from the
    /// JSON, keeping coverage-free reports byte-identical.
    pub measured_coverage: Option<f64>,
    /// Faults of `C1 ∪ C2` no plan pattern detects (measured).  `None` when
    /// the coverage stage is disabled.
    pub undetected_faults: Option<usize>,
}

/// A test-point suggestion for a fault the optimized plan cannot detect,
/// ranked by SCOAP fault difficulty (hardest first) — the concrete
/// design-for-test advice the report gives when full coverage is
/// unreachable within the budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestPointSuggestion {
    /// Block the undetected fault lives in (`C1` or `C2`).
    pub block: String,
    /// Netlist node of the fault site.
    pub node: usize,
    /// The undetected stuck-at value.
    pub stuck_at: bool,
    /// SCOAP fault difficulty `CC(¬v) + CO` of the site — the cost of
    /// provoking and observing the fault, justifying a control/observe
    /// point there.
    pub score: u32,
}

/// Results of the coverage-driven plan optimization for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// Session 1 (`C1` under test).
    pub session1: SessionOptimization,
    /// Session 2 (`C2` under test).
    pub session2: SessionOptimization,
    /// The coverage target the search ran against.
    pub target: f64,
    /// The effective total-length budget the search ran against.
    pub max_total_length: usize,
    /// Total test length of the optimized plan (both sessions).
    pub total_length: usize,
    /// The fixed plan's total test length (`2 × patterns_per_session`),
    /// for the economics comparison the optimizer exists to win.
    pub baseline_length: usize,
    /// Coverage of the optimized plan over both blocks.
    pub coverage: f64,
    /// Whether both sessions reach the target within the total budget.
    pub target_reached: bool,
    /// Test-point suggestions for the undetected faults, ranked by SCOAP
    /// difficulty (hardest first).  Empty when the target was reached.
    pub test_points: Vec<TestPointSuggestion>,
}

/// A deterministic digest of one emitted source module, kept beside the
/// source itself.
///
/// The JSON report renders the digest only, never the source text: the full
/// source is the artefact `stc emit --out` writes to disk from the same run,
/// while the report pins its identity — length plus FNV-1a hash — so the CI
/// `golden-diff` can detect codegen drift without megabyte goldens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitModuleDigest {
    /// The module name inside the source (`mod`/`module` identifier).
    pub module: String,
    /// The suggested file name (`<module>.rs` / `<module>.v`).
    pub file: String,
    /// Source length in bytes.
    pub bytes: usize,
    /// FNV-1a 64-bit hash of the source text.
    pub fnv1a: u64,
    /// The generated source text (not rendered into the JSON report).
    pub source: String,
}

/// Results of the code-emission stage for one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmitReport {
    /// The codegen backend (`rust` or `verilog`).
    pub target: String,
    /// One digest per emitted module, in emission order.
    pub modules: Vec<EmitModuleDigest>,
}

/// Results of the static-analysis stage for one machine.
///
/// Severities are *effective*: codes named by `analysis.deny` have already
/// been promoted to [`Severity::Error`] when the report is assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Machine-level findings (unreachable states, mergeable states, input
    /// columns).  KISS2 *source*-level findings are a separate surface
    /// ([`stc_analyze::lint_kiss2`]): corpus entries hold built machines,
    /// not source text.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-block structural analysis (empty when the gate-level stages were
    /// skipped).
    pub blocks: Vec<BlockAnalysis>,
}

impl AnalysisReport {
    /// Counts findings at or above `severity` across the machine and all
    /// blocks.
    #[must_use]
    pub fn count_at_least(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .chain(self.blocks.iter().flat_map(|b| b.diagnostics.iter()))
            .filter(|d| d.severity >= severity)
            .count()
    }
}

/// The full pipeline report for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineReport {
    /// Machine name.
    pub name: String,
    /// How far the machine travelled through the pipeline.
    pub status: MachineStatus,
    /// `|S|`.
    pub states: usize,
    /// Input alphabet size.
    pub inputs: usize,
    /// Output alphabet size.
    pub outputs: usize,
    /// Solve-stage results (absent only when the machine timed out before
    /// the solver finished or a stage errored out).
    pub solve: Option<SolveReport>,
    /// The paper's Table 1 row, if this machine is one of the 13 benchmarks.
    pub paper_table1: Option<PaperTable1Row>,
    /// The paper's Table 2 row, if present.
    pub paper_table2: Option<PaperTable2Row>,
    /// Logic-synthesis results (machines within the gate-level limits only).
    pub logic: Option<LogicReport>,
    /// BIST results (machines within the gate-level limits only).
    pub bist: Option<BistReport>,
    /// Plan-optimization results.  `None` when the optimize stage is
    /// disabled — the section is then absent from the JSON, keeping
    /// optimizer-free reports byte-identical.
    pub optimize: Option<OptimizeReport>,
    /// Static-analysis results.  `None` when the analysis stage is disabled
    /// — the section is then absent from the JSON, keeping analysis-free
    /// reports byte-identical.
    pub analysis: Option<AnalysisReport>,
    /// Code-emission digests.  `None` when the emit stage is disabled — the
    /// section is then absent from the JSON, keeping emit-free reports
    /// byte-identical.
    pub emit: Option<EmitReport>,
}

/// Aggregate counters over a suite run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SuiteSummary {
    /// Machines in the corpus.
    pub machines: usize,
    /// Machines that ran all stages.
    pub full: usize,
    /// Machines that ran the solve stage only.
    pub solve_only: usize,
    /// Machines cut off by the per-machine timeout.
    pub timed_out: usize,
    /// Machines cut short (or never started) because a session observer
    /// requested cancellation.  Only emitted into the JSON summary when
    /// nonzero, so observer-free golden reports are unchanged.
    pub cancelled: usize,
    /// Machines on which a stage failed.
    pub errors: usize,
    /// Machines with a non-trivial decomposition.
    pub nontrivial: usize,
    /// Sum of `2 · ⌈log2 |S|⌉` over all solved machines (conventional BIST).
    pub conventional_bist_ff_total: u64,
    /// Sum of pipeline register bits over all solved machines.
    pub pipeline_ff_total: u64,
}

/// The complete report of one corpus run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Corpus label (`embedded`, a directory name, …).
    pub suite: String,
    /// The configuration that produced the report.  Its JSON rendering is
    /// the echo ([`StcConfig::to_json`]), which leaves out the knobs that
    /// cannot change a report byte.
    pub config: StcConfig,
    /// One report per machine, in corpus order.
    pub machines: Vec<MachineReport>,
    /// Aggregate counters.
    pub summary: SuiteSummary,
}

impl SuiteReport {
    /// Serialises the report as deterministic pretty-printed JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// The report as a [`Json`] value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            (
                "schema_version".into(),
                Json::from_u64(REPORT_SCHEMA_VERSION),
            ),
            ("suite".into(), Json::String(self.suite.clone())),
            ("config".into(), self.config.to_json()),
            (
                "machines".into(),
                Json::Array(self.machines.iter().map(machine_json).collect()),
            ),
            ("summary".into(), summary_json(&self.summary)),
        ])
    }

    /// Counts static-analysis findings at or above `severity` over every
    /// machine (machines without an analysis section count zero).
    #[must_use]
    pub fn count_findings(&self, severity: Severity) -> usize {
        self.machines
            .iter()
            .filter_map(|m| m.analysis.as_ref())
            .map(|a| a.count_at_least(severity))
            .sum()
    }
}

impl MachineReport {
    /// The single-machine report as a [`Json`] value — the `report` payload
    /// of an `stc serve` response, identical in shape to one element of the
    /// suite report's `machines` array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        machine_json(self)
    }
}

fn machine_json(m: &MachineReport) -> Json {
    let mut entries = vec![
        ("name".into(), Json::String(m.name.clone())),
        (
            "status".into(),
            Json::String(m.status.as_json_str().to_string()),
        ),
        ("states".into(), Json::from_usize(m.states)),
        ("inputs".into(), Json::from_usize(m.inputs)),
        ("outputs".into(), Json::from_usize(m.outputs)),
    ];
    if let MachineStatus::Error(message) = &m.status {
        entries.push(("error".into(), Json::String(message.clone())));
    }
    entries.push((
        "solve".into(),
        m.solve.as_ref().map_or(Json::Null, solve_json),
    ));
    entries.push((
        "paper".into(),
        paper_json(m.paper_table1.as_ref(), m.paper_table2.as_ref()),
    ));
    entries.push((
        "logic".into(),
        m.logic.as_ref().map_or(Json::Null, logic_json),
    ));
    entries.push(("bist".into(), m.bist.as_ref().map_or(Json::Null, bist_json)));
    // The optimize and analysis sections are additive: absent (not null)
    // when their stages are off, so pre-existing goldens stay
    // byte-identical.
    if let Some(optimize) = &m.optimize {
        entries.push(("optimize".into(), optimize_report_json(optimize)));
    }
    if let Some(analysis) = &m.analysis {
        entries.push(("analysis".into(), analysis_json(analysis)));
    }
    if let Some(emit) = &m.emit {
        entries.push(("emit".into(), emit_report_json(emit)));
    }
    Json::Object(entries)
}

fn emit_module_json(d: &EmitModuleDigest) -> Json {
    Json::Object(vec![
        ("module".into(), Json::String(d.module.clone())),
        ("file".into(), Json::String(d.file.clone())),
        ("bytes".into(), Json::from_usize(d.bytes)),
        ("fnv1a".into(), Json::from_u64(d.fnv1a)),
    ])
}

fn emit_report_json(e: &EmitReport) -> Json {
    Json::Object(vec![
        ("target".into(), Json::String(e.target.clone())),
        (
            "modules".into(),
            Json::Array(e.modules.iter().map(emit_module_json).collect()),
        ),
    ])
}

fn diagnostic_json(d: &Diagnostic) -> Json {
    Json::Object(vec![
        ("code".into(), Json::String(d.code.to_string())),
        (
            "severity".into(),
            Json::String(d.severity.as_str().to_string()),
        ),
        ("location".into(), Json::String(d.location.clone())),
        ("message".into(), Json::String(d.message.clone())),
    ])
}

fn block_analysis_json(b: &BlockAnalysis) -> Json {
    Json::Object(vec![
        ("block".into(), Json::String(b.block.clone())),
        (
            "diagnostics".into(),
            Json::Array(b.diagnostics.iter().map(diagnostic_json).collect()),
        ),
        (
            "stats".into(),
            Json::Object(vec![
                ("gates".into(), Json::from_usize(b.stats.gates)),
                ("literals".into(), Json::from_usize(b.stats.literals)),
                ("depth".into(), Json::from_usize(b.stats.depth)),
                ("levels".into(), Json::from_usize(b.stats.levels)),
                ("max_fanout".into(), Json::from_usize(b.stats.max_fanout)),
                ("dead_gates".into(), Json::from_usize(b.stats.dead_gates)),
            ]),
        ),
        (
            "hard_nets".into(),
            Json::Array(
                b.hard_nets
                    .iter()
                    .map(|h| {
                        Json::Object(vec![
                            ("node".into(), Json::from_usize(h.node)),
                            ("cc0".into(), Json::from_u64(u64::from(h.cc0))),
                            ("cc1".into(), Json::from_u64(u64::from(h.cc1))),
                            ("co".into(), Json::from_u64(u64::from(h.co))),
                            ("score".into(), Json::from_u64(u64::from(h.score))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn analysis_json(a: &AnalysisReport) -> Json {
    Json::Object(vec![
        (
            "diagnostics".into(),
            Json::Array(a.diagnostics.iter().map(diagnostic_json).collect()),
        ),
        (
            "blocks".into(),
            Json::Array(a.blocks.iter().map(block_analysis_json).collect()),
        ),
        (
            "errors".into(),
            Json::from_usize(a.count_at_least(Severity::Error)),
        ),
        (
            "warnings".into(),
            Json::from_usize(
                a.count_at_least(Severity::Warning) - a.count_at_least(Severity::Error),
            ),
        ),
    ])
}

fn solve_json(s: &SolveReport) -> Json {
    Json::Object(vec![
        ("s1".into(), Json::from_usize(s.s1)),
        ("s2".into(), Json::from_usize(s.s2)),
        (
            "conventional_bist_ff".into(),
            Json::from_u64(u64::from(s.conventional_bist_ff)),
        ),
        (
            "pipeline_ff".into(),
            Json::from_u64(u64::from(s.pipeline_ff)),
        ),
        ("nontrivial".into(), Json::Bool(s.nontrivial)),
        ("basis_size".into(), Json::from_usize(s.basis_size)),
        (
            "nodes_investigated".into(),
            Json::from_u64(s.nodes_investigated),
        ),
        ("subtrees_pruned".into(), Json::from_u64(s.subtrees_pruned)),
        (
            "subtrees_bound_pruned".into(),
            Json::from_u64(s.subtrees_bound_pruned),
        ),
        ("budget_exhausted".into(), Json::Bool(s.budget_exhausted)),
        (
            "realization_verified".into(),
            Json::Bool(s.realization_verified),
        ),
    ])
}

fn paper_json(t1: Option<&PaperTable1Row>, t2: Option<&PaperTable2Row>) -> Json {
    if t1.is_none() && t2.is_none() {
        return Json::Null;
    }
    let mut entries = Vec::new();
    if let Some(row) = t1 {
        entries.push(("s1".into(), Json::from_usize(row.s1)));
        entries.push(("s2".into(), Json::from_usize(row.s2)));
        entries.push((
            "conventional_bist_ff".into(),
            Json::from_u64(u64::from(row.conventional_bist_ff)),
        ));
        entries.push((
            "pipeline_ff".into(),
            Json::from_u64(u64::from(row.pipeline_ff)),
        ));
        entries.push(("timeout".into(), Json::Bool(row.timeout)));
    }
    if let Some(row) = t2 {
        entries.push((
            "log2_tree_size".into(),
            row.log2_tree_size
                .map_or(Json::Null, |v| Json::from_u64(u64::from(v))),
        ));
        entries.push((
            "nodes_investigated".into(),
            row.nodes_investigated.map_or(Json::Null, Json::from_u64),
        ));
    }
    Json::Object(entries)
}

fn logic_json(l: &LogicReport) -> Json {
    Json::Object(vec![
        ("r1_bits".into(), Json::from_u64(u64::from(l.r1_bits))),
        ("r2_bits".into(), Json::from_u64(u64::from(l.r2_bits))),
        ("gates".into(), Json::from_usize(l.gates)),
        ("literals".into(), Json::from_usize(l.literals)),
        ("depth".into(), Json::from_usize(l.depth)),
    ])
}

fn session_json(s: &SessionResult) -> Json {
    Json::Object(vec![
        ("block".into(), Json::String(s.block.clone())),
        ("patterns".into(), Json::from_usize(s.patterns)),
        ("good_signature".into(), Json::from_u64(s.good_signature)),
        ("total_faults".into(), Json::from_usize(s.total_faults)),
        (
            "detected_faults".into(),
            Json::from_usize(s.detected_faults),
        ),
    ])
}

fn bist_json(b: &BistReport) -> Json {
    let mut entries = vec![
        ("session1".into(), session_json(&b.session1)),
        ("session2".into(), session_json(&b.session2)),
        ("overall_coverage".into(), Json::Number(b.overall_coverage)),
    ];
    // Measured-coverage fields are additive: absent (not null) when the
    // coverage stage is off, so pre-coverage goldens stay byte-identical.
    if let Some(measured) = b.measured_coverage {
        entries.push(("measured_coverage".into(), Json::Number(measured)));
    }
    if let Some(undetected) = b.undetected_faults {
        entries.push(("undetected_faults".into(), Json::from_usize(undetected)));
    }
    Json::Object(entries)
}

fn optimize_session_json(s: &SessionOptimization) -> Json {
    Json::Object(vec![
        ("block".into(), Json::String(s.block.clone())),
        (
            "taps".into(),
            Json::Array(
                s.taps
                    .iter()
                    .map(|&t| Json::from_u64(u64::from(t)))
                    .collect(),
            ),
        ),
        ("seed".into(), Json::from_u64(s.seed)),
        ("length".into(), Json::from_usize(s.length)),
        ("total_faults".into(), Json::from_usize(s.total_faults)),
        ("detected".into(), Json::from_usize(s.detected)),
        ("candidates".into(), Json::from_usize(s.candidates)),
        ("target_reached".into(), Json::Bool(s.target_reached)),
    ])
}

fn test_point_json(t: &TestPointSuggestion) -> Json {
    Json::Object(vec![
        ("block".into(), Json::String(t.block.clone())),
        ("node".into(), Json::from_usize(t.node)),
        ("stuck_at".into(), Json::Bool(t.stuck_at)),
        ("score".into(), Json::from_u64(u64::from(t.score))),
    ])
}

fn optimize_report_json(o: &OptimizeReport) -> Json {
    Json::Object(vec![
        ("session1".into(), optimize_session_json(&o.session1)),
        ("session2".into(), optimize_session_json(&o.session2)),
        ("target".into(), Json::Number(o.target)),
        (
            "max_total_length".into(),
            Json::from_usize(o.max_total_length),
        ),
        ("total_length".into(), Json::from_usize(o.total_length)),
        (
            "baseline_length".into(),
            Json::from_usize(o.baseline_length),
        ),
        ("coverage".into(), Json::Number(o.coverage)),
        ("target_reached".into(), Json::Bool(o.target_reached)),
        (
            "test_points".into(),
            Json::Array(o.test_points.iter().map(test_point_json).collect()),
        ),
    ])
}

fn summary_json(s: &SuiteSummary) -> Json {
    let mut entries = vec![
        ("machines".into(), Json::from_usize(s.machines)),
        ("full".into(), Json::from_usize(s.full)),
        ("solve_only".into(), Json::from_usize(s.solve_only)),
        ("timed_out".into(), Json::from_usize(s.timed_out)),
    ];
    if s.cancelled > 0 {
        entries.push(("cancelled".into(), Json::from_usize(s.cancelled)));
    }
    entries.extend([
        ("errors".into(), Json::from_usize(s.errors)),
        ("nontrivial".into(), Json::from_usize(s.nontrivial)),
        (
            "conventional_bist_ff_total".into(),
            Json::from_u64(s.conventional_bist_ff_total),
        ),
        (
            "pipeline_ff_total".into(),
            Json::from_u64(s.pipeline_ff_total),
        ),
    ]);
    Json::Object(entries)
}

/// The envelope shared by the focused per-machine projections of a suite
/// report: `schema_version`, `suite` and one `machines` entry per machine,
/// each led by its `name` (and `status`, when `with_status`).  `fields`
/// returns the machine's projected fields, or `None` when the machine has no
/// such section — it is then reported as `section: null`, so a disappearing
/// machine also fails a diff against the document.  The returned top-level
/// entries are open for a trailing summary.
fn per_machine(
    report: &SuiteReport,
    with_status: bool,
    section: &str,
    fields: impl Fn(&MachineReport) -> Option<Vec<(String, Json)>>,
) -> Vec<(String, Json)> {
    let machines = report
        .machines
        .iter()
        .map(|m| {
            let mut entries = vec![("name".into(), Json::String(m.name.clone()))];
            if with_status {
                entries.push((
                    "status".into(),
                    Json::String(m.status.as_json_str().to_string()),
                ));
            }
            entries.extend(fields(m).unwrap_or_else(|| vec![(section.into(), Json::Null)]));
            Json::Object(entries)
        })
        .collect();
    vec![
        (
            "schema_version".into(),
            Json::from_u64(REPORT_SCHEMA_VERSION),
        ),
        ("suite".into(), Json::String(report.suite.clone())),
        ("machines".into(), Json::Array(machines)),
    ]
}

/// Extracts the per-machine search-effort statistics of a suite report as a
/// compact, deterministic JSON document — the artefact behind the CI
/// `search-stats` regression gate (`stc run --stats-out`, diffed against
/// `tests/golden/search_stats.json`).
///
/// Wall-clock noise can hide a pruning regression from the perf gate; these
/// counters cannot.  Machines without a solve section (timed out before the
/// solver finished) are reported with a `null` entry.
#[must_use]
pub fn search_stats_json(report: &SuiteReport) -> Json {
    Json::Object(per_machine(report, false, "solve", |m| {
        m.solve.as_ref().map(|s| {
            vec![
                ("basis_size".into(), Json::from_usize(s.basis_size)),
                (
                    "nodes_investigated".into(),
                    Json::from_u64(s.nodes_investigated),
                ),
                ("subtrees_pruned".into(), Json::from_u64(s.subtrees_pruned)),
                (
                    "subtrees_bound_pruned".into(),
                    Json::from_u64(s.subtrees_bound_pruned),
                ),
                ("budget_exhausted".into(), Json::Bool(s.budget_exhausted)),
            ]
        })
    }))
}

/// Extracts the per-machine *measured* fault-coverage results of a suite
/// report as a compact, deterministic JSON document — the focused artefact
/// `stc coverage` emits (CI's `golden-diff` job diffs the full report
/// instead, via `stc run --coverage`).  Machines without a measured
/// coverage section (gate-level stages skipped, timed out, or coverage
/// disabled) are reported with a `null` entry.
#[must_use]
pub fn coverage_json(report: &SuiteReport) -> Json {
    Json::Object(per_machine(report, true, "coverage", |m| {
        let b = m.bist.as_ref()?;
        Some(vec![
            (
                "total_faults".into(),
                Json::from_usize(b.session1.total_faults + b.session2.total_faults),
            ),
            (
                "measured_coverage".into(),
                Json::Number(b.measured_coverage?),
            ),
            (
                "undetected_faults".into(),
                Json::from_usize(b.undetected_faults?),
            ),
        ])
    }))
}

/// Extracts the per-machine plan-optimization results of a suite report as
/// a compact, deterministic JSON document — the focused artefact
/// `stc optimize` emits and CI's `golden-diff` job diffs against
/// `tests/golden/optimize.json`.  Machines without an optimize section are
/// reported with a `null` entry.
#[must_use]
pub fn optimize_json(report: &SuiteReport) -> Json {
    Json::Object(per_machine(report, true, "optimize", |m| {
        let o = m.optimize.as_ref()?;
        Some(vec![("optimize".into(), optimize_report_json(o))])
    }))
}

/// Extracts the per-machine static-analysis results of a suite report as a
/// compact, deterministic JSON document — the focused artefact `stc lint`
/// emits and CI's `golden-diff` job diffs against `tests/golden/lint.json` —
/// followed by a suite-wide finding summary.  Machines without an analysis
/// section (the stage was disabled) are reported with a `null` entry.
#[must_use]
pub fn lint_json(report: &SuiteReport) -> Json {
    let mut entries = per_machine(report, false, "analysis", |m| {
        let a = m.analysis.as_ref()?;
        Some(vec![
            (
                "diagnostics".into(),
                Json::Array(a.diagnostics.iter().map(diagnostic_json).collect()),
            ),
            (
                "blocks".into(),
                Json::Array(a.blocks.iter().map(block_analysis_json).collect()),
            ),
        ])
    });
    let errors = report.count_findings(Severity::Error);
    entries.push((
        "summary".into(),
        Json::Object(vec![
            ("errors".into(), Json::from_usize(errors)),
            (
                "warnings".into(),
                Json::from_usize(report.count_findings(Severity::Warning) - errors),
            ),
            (
                "findings".into(),
                Json::from_usize(report.count_findings(Severity::Info)),
            ),
        ]),
    ));
    Json::Object(entries)
}

/// Extracts the per-machine code-emission digests of a suite report as a
/// compact, deterministic JSON document — the focused artefact `stc emit`
/// emits and CI's `golden-diff` job diffs against `tests/golden/emit.json`.
/// Machines without an emit section are reported with a `null` entry.
#[must_use]
pub fn emit_json(report: &SuiteReport) -> Json {
    Json::Object(per_machine(report, true, "emit", |m| {
        let e = m.emit.as_ref()?;
        Some(vec![("emit".into(), emit_report_json(e))])
    }))
}

/// Formats the paper-vs-measured summary (the columns of Tables 1 and 2)
/// as fixed-width text for human consumption on stderr; the JSON report is
/// the machine-readable artefact.
///
/// Cells read `paper/measured`: `-` where a side has no value, `n/a` where
/// the paper's Table 2 entry is illegible.  `(budget)` marks a search that
/// exhausted its node budget.  The footer counts non-trivial decompositions
/// and machines needing fewer flip-flops than a conventional BIST; the
/// paper's counts are derived from the Table 1 rows the report carries and
/// printed only when it carries any.
#[must_use]
pub fn format_summary_table(report: &SuiteReport) -> String {
    fn cell<T: ToString>(value: Option<T>, missing: &str) -> String {
        value.map_or_else(|| missing.to_string(), |v| v.to_string())
    }
    fn pair<P: ToString, M: ToString>(paper: Option<P>, measured: Option<M>) -> String {
        format!("{}/{}", cell(paper, "-"), cell(measured, "-"))
    }
    let mut out = String::from(
        "name           status  |S|    |S1|    |S2| conv FF      FF  log2|V|            nodes  pruned  coverage\n",
    );
    for m in &report.machines {
        let p1 = m.paper_table1.as_ref();
        let p2 = m.paper_table2.as_ref();
        let s = m.solve.as_ref();
        // The measured number replaces the signature-based estimate in the
        // human-readable table whenever the coverage stage produced one.
        let coverage = m.bist.as_ref().map(|b| {
            format!(
                "{:.2}%",
                100.0 * b.measured_coverage.unwrap_or(b.overall_coverage)
            )
        });
        out.push_str(&format!(
            "{:<10} {:>10} {:>4} {:>7} {:>7} {:>7} {:>7} {:>8} {:>16} {:>7} {:>9}{}\n",
            m.name,
            m.status.as_json_str(),
            m.states,
            pair(p1.map(|p| p.s1), s.map(|s| s.s1)),
            pair(p1.map(|p| p.s2), s.map(|s| s.s2)),
            pair(
                p1.map(|p| p.conventional_bist_ff),
                s.map(|s| s.conventional_bist_ff)
            ),
            pair(p1.map(|p| p.pipeline_ff), s.map(|s| s.pipeline_ff)),
            pair(
                p2.map(|p| cell(p.log2_tree_size, "n/a")),
                s.map(|s| s.basis_size)
            ),
            pair(
                p2.map(|p| cell(p.nodes_investigated, "n/a")),
                s.map(|s| s.nodes_investigated)
            ),
            cell(s.map(|s| s.subtrees_pruned), "-"),
            cell(coverage, "-"),
            if s.is_some_and(|s| s.budget_exhausted) {
                "  (budget)"
            } else {
                ""
            }
        ));
    }
    let s = &report.summary;
    let cancelled = if s.cancelled > 0 {
        format!(", {} cancelled", s.cancelled)
    } else {
        String::new()
    };
    out.push_str(&format!(
        "\n{} machines: {} full, {} solve-only, {} timeout{cancelled}, {} error; {} non-trivial; register bits {} -> {}\n",
        s.machines,
        s.full,
        s.solve_only,
        s.timed_out,
        s.errors,
        s.nontrivial,
        s.conventional_bist_ff_total,
        s.pipeline_ff_total
    ));
    let fewer_ff = report
        .machines
        .iter()
        .filter_map(|m| m.solve.as_ref())
        .filter(|s| s.pipeline_ff < s.conventional_bist_ff)
        .count();
    let paper: Vec<&PaperTable1Row> = report
        .machines
        .iter()
        .filter_map(|m| m.paper_table1.as_ref())
        .collect();
    let paper_count = |counted: usize| {
        if paper.is_empty() {
            String::new()
        } else {
            format!(" (paper: {counted}/{})", paper.len())
        }
    };
    out.push_str(&format!(
        "non-trivial decompositions: {}/{}{}\n",
        s.nontrivial,
        s.machines,
        paper_count(
            paper
                .iter()
                .filter(|p| p.s1 < p.states || p.s2 < p.states)
                .count()
        )
    ));
    out.push_str(&format!(
        "fewer flip-flops than a conventional BIST: {fewer_ff}/{}{}\n",
        s.machines,
        paper_count(
            paper
                .iter()
                .filter(|p| p.pipeline_ff < p.conventional_bist_ff)
                .count()
        )
    ));
    out
}
