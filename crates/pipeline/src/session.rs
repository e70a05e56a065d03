//! The unified `Synthesis` session API.
//!
//! The paper's flow is staged — OSTR decomposition, state encoding, logic
//! synthesis, BIST session planning — and this module exposes it as one
//! session object producing *typed artifacts* that flow one into the next:
//!
//! ```text
//! Decomposition → Encoded → Netlist → BistPlan (→ CoverageReport) → MachineReport
//! ```
//!
//! A [`Synthesis`] is built once from a layered [`StcConfig`] (crate
//! defaults < profile file < individual overrides; see
//! [`SynthesisBuilder`]) and then drives any number of machines.  Partial
//! flows are first-class: [`Synthesis::decompose_only`] stops after the
//! OSTR search, and any stored artifact can be resumed later
//! ([`Synthesis::encode`], [`Synthesis::synthesize_logic`],
//! [`Synthesis::plan_bist`] each pick up where the artifact left off).
//! [`Synthesis::run`] and [`Synthesis::run_suite`] assemble the classic
//! [`MachineReport`] / [`crate::SuiteReport`] from the same artifacts.
//! Every stage, in flow order, is a row of the [`Stage`] table.
//!
//! An [`Observer`] attached at build time receives stage and solver events
//! and can request cooperative cancellation; events are side-channel only
//! (see `DESIGN.md` §6 for the determinism argument), so an observer that
//! never cancels leaves every report byte-identical.

use crate::config::{GateLevelLimits, StcConfig};
use crate::corpus::CorpusEntry;
use crate::observe::{Event, NullObserver, Observer};
use crate::report::{
    AnalysisReport, BistReport, EmitModuleDigest, EmitReport, LogicReport, MachineReport,
    MachineStatus, OptimizeReport, SolveReport, SuiteReport, SuiteSummary, TestPointSuggestion,
};
use stc_bist::{
    measure_plan_coverage, optimize_plan_with, pipeline_self_test, OptimizeOptions,
    OptimizeProgress, PlanCoverage, PlanOptimization, SelfTestResult,
};
use stc_emit::{
    emit_rust, emit_verilog, sanitize_module_name, EmitTarget, EmittedModule, SelfTestSpec,
};
use stc_encoding::EncodedPipeline;
use stc_fsm::{ceil_log2, Mealy};
use stc_logic::{synthesize_pipeline, PipelineLogic};
use stc_synth::{Cost, OstrOutcome, OstrSolver, Realization, SearchObserver};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The stages of the flow.  [`Stage::ALL`] is the one ordered table of
/// them: observer events, serve metrics and the `stc` commands all derive
/// from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The OSTR decomposition stage.
    Solve,
    /// The state-assignment stage.
    Encode,
    /// The two-level logic-synthesis stage.
    Logic,
    /// The BIST session-planning stage.
    Bist,
    /// The exact fault-coverage measurement stage (optional).
    Coverage,
    /// The coverage-driven plan-optimization stage (optional).
    Optimize,
    /// The static-analysis stage (optional): FSM lints, netlist structure
    /// checks and SCOAP testability metrics.
    Analyze,
    /// The code-generation stage (optional): compiles the decomposition and
    /// BIST plan into a deployable self-testable controller module.
    Emit,
}

impl Stage {
    /// Every stage, in flow order.
    pub const ALL: [Stage; 8] = [
        Stage::Solve,
        Stage::Encode,
        Stage::Logic,
        Stage::Bist,
        Stage::Coverage,
        Stage::Optimize,
        Stage::Analyze,
        Stage::Emit,
    ];

    /// The stage's name in observer events, serve metrics and logs.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Solve => "solve",
            Stage::Encode => "encode",
            Stage::Logic => "logic",
            Stage::Bist => "bist",
            Stage::Coverage => "coverage",
            Stage::Optimize => "optimize",
            Stage::Analyze => "analyze",
            Stage::Emit => "emit",
        }
    }

    /// Whether a full flow ([`Synthesis::run`]) under `config` runs this
    /// stage (the gate-level limits aside).
    #[must_use]
    pub fn enabled(self, config: &StcConfig) -> bool {
        match self {
            Stage::Solve | Stage::Encode | Stage::Logic | Stage::Bist => true,
            Stage::Coverage => config.pipeline.coverage.enabled,
            Stage::Optimize => config.pipeline.optimize.enabled,
            Stage::Analyze => config.analysis.enabled,
            Stage::Emit => config.emit.enabled,
        }
    }

    /// The config key switching an optional stage on; `None` for the four
    /// stages every full run goes through.
    #[must_use]
    pub const fn enable_key(self) -> Option<&'static str> {
        match self {
            Stage::Solve | Stage::Encode | Stage::Logic | Stage::Bist => None,
            Stage::Coverage => Some("coverage.enabled"),
            Stage::Optimize => Some("coverage.optimize.enabled"),
            Stage::Analyze => Some("analysis.enabled"),
            Stage::Emit => Some("emit.enabled"),
        }
    }
}

/// Hard-to-test nets reported per block by the analysis stage: enough to
/// point at the problem spots without bloating the report.
const HARD_NETS_REPORTED: usize = 5;

/// Test-point suggestions reported by the optimize stage when the coverage
/// target is unreachable: the SCOAP-hardest undetected fault sites, capped
/// like the analysis stage's hard-net list.
const TEST_POINTS_REPORTED: usize = 10;

/// An error surfaced by a typed partial flow.
///
/// [`Synthesis::run`] maps these onto [`MachineStatus`] values instead of
/// returning them; the typed stage methods surface them so embedders can
/// react per machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The Theorem 1 realization of the best OSTR solution failed
    /// verification against the specification — a solver bug by definition,
    /// surfaced loudly rather than silently reported.
    RealizationInvalid {
        /// The machine whose realization failed.
        machine: String,
    },
    /// The machine exceeds the configured gate-level limits, so the encode /
    /// logic / BIST stages would be intractable (the paper reports
    /// gate-level numbers only for tractable machines).
    GateLevelLimit {
        /// The machine that exceeded the limits.
        machine: String,
        /// Its state count.
        states: usize,
        /// Its input-alphabet size.
        inputs: usize,
        /// The configured limits it exceeded.
        limits: GateLevelLimits,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::RealizationInvalid { machine } => write!(
                f,
                "{machine}: the realization of the best OSTR solution does not realize the \
                 specification"
            ),
            SessionError::GateLevelLimit {
                machine,
                states,
                inputs,
                limits,
            } => write!(
                f,
                "{machine}: {states} states / {inputs} inputs exceed the gate-level limits \
                 ({} states / {} inputs)",
                limits.max_states, limits.max_inputs
            ),
        }
    }
}

impl std::error::Error for SessionError {}

// ---------------------------------------------------------------------------
// Typed artifacts
// ---------------------------------------------------------------------------

/// The first typed artifact: the OSTR search outcome and Theorem 1
/// realization for one machine.  Self-contained (it owns a copy of the
/// machine), so it can be stored and resumed later with
/// [`Synthesis::encode`].
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The specification machine.
    pub machine: Mealy,
    /// The OSTR search outcome (best solution plus statistics; a cancelled
    /// search still carries its best-so-far solution, flagged via
    /// [`stc_synth::SearchStats::cancelled`]).
    pub outcome: OstrOutcome,
    /// The pipeline realization of the best solution.
    pub realization: Realization,
    /// Whether the realization verified against the specification
    /// (Definition 3).  Always checked; `false` indicates a solver bug.
    pub verified: bool,
}

impl Decomposition {
    /// `⌈log2|S1|⌉ + ⌈log2|S2|⌉` of the best solution.
    #[must_use]
    pub fn pipeline_flipflops(&self) -> u32 {
        self.outcome.pipeline_flipflops()
    }

    /// Whether the search was stopped by a cooperative cancellation request.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.outcome.stats.cancelled
    }

    /// The report section for this artifact (the Tables 1–2 columns).
    #[must_use]
    pub fn solve_report(&self) -> SolveReport {
        let states = self.machine.num_states();
        SolveReport {
            s1: self.outcome.best.cost.s1(),
            s2: self.outcome.best.cost.s2(),
            conventional_bist_ff: 2 * ceil_log2(states),
            pipeline_ff: self.outcome.pipeline_flipflops(),
            nontrivial: self.outcome.best.cost.s1() < states
                || self.outcome.best.cost.s2() < states,
            basis_size: self.outcome.stats.basis_size,
            nodes_investigated: self.outcome.stats.nodes_investigated,
            subtrees_pruned: self.outcome.stats.subtrees_pruned,
            subtrees_bound_pruned: self.outcome.stats.subtrees_bound_pruned,
            budget_exhausted: self.outcome.stats.budget_exhausted,
            realization_verified: self.verified,
        }
    }
}

/// The second typed artifact: the bit-level pipeline view after state
/// assignment, ready for logic synthesis.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The machine's name (threaded through for reports and events).
    pub name: String,
    /// The encoded pipeline (registers `R1`/`R2` and the three
    /// combinational blocks as truth tables).
    pub pipeline: EncodedPipeline,
}

/// The third typed artifact: synthesised two-level covers and gate-level
/// netlists for `C1`, `C2` and the output logic.
///
/// The logic is behind an [`Arc`] so downstream artifacts ([`BistPlan`],
/// and through it the coverage measurement) can share it without deep
/// copies; field and method access auto-deref as usual.
#[derive(Debug, Clone)]
pub struct Netlist {
    /// The machine's name.
    pub name: String,
    /// The synthesised pipeline logic.
    pub logic: Arc<PipelineLogic>,
}

impl Netlist {
    /// The report section for this artifact.
    #[must_use]
    pub fn logic_report(&self) -> LogicReport {
        let logic = &self.logic;
        LogicReport {
            r1_bits: logic.r1_bits,
            r2_bits: logic.r2_bits,
            gates: logic.gate_count(),
            literals: logic.literal_count(),
            depth: [&logic.c1.netlist, &logic.c2.netlist, &logic.output.netlist]
                .iter()
                .map(|n| n.depth())
                .max()
                .unwrap_or(0),
        }
    }
}

/// The fourth typed artifact: the two-session self-test plan with
/// signature-based fault-coverage estimates.  Carries the synthesised
/// logic it was planned for, so the optional fifth artifact
/// ([`Synthesis::measure_coverage`]: `BistPlan` → [`CoverageReport`]) can
/// re-apply exactly the plan's stimuli.
#[derive(Debug, Clone)]
pub struct BistPlan {
    /// The machine's name.
    pub name: String,
    /// The self-test result (both sessions).
    pub result: SelfTestResult,
    /// The pipeline logic the plan tests (shared with the [`Netlist`]
    /// artifact it came from — no deep copy).
    pub logic: Arc<PipelineLogic>,
}

impl BistPlan {
    /// The report section for this artifact.  The measured-coverage fields
    /// stay empty until a [`CoverageReport`] fills them
    /// ([`CoverageReport::annotate`]).
    #[must_use]
    pub fn bist_report(&self) -> BistReport {
        BistReport {
            overall_coverage: self.result.overall_coverage(),
            session1: self.result.session1.clone(),
            session2: self.result.session2.clone(),
            measured_coverage: None,
            undetected_faults: None,
        }
    }
}

/// The fifth (optional) typed artifact: the exact single-stuck-at coverage
/// of the BIST plan, measured by bit-parallel simulation of the plan's own
/// stimuli against the complete fault list of `C1` and `C2`.
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// The machine's name.
    pub name: String,
    /// The per-session measured coverage, including the undetected faults.
    pub coverage: PlanCoverage,
}

impl CoverageReport {
    /// Measured fault coverage over both blocks in `[0, 1]`.
    #[must_use]
    pub fn measured_coverage(&self) -> f64 {
        self.coverage.coverage()
    }

    /// Number of faults no plan pattern detects.
    #[must_use]
    pub fn undetected_faults(&self) -> usize {
        self.coverage.undetected_faults()
    }

    /// Fills the measured fields of a [`BistReport`].
    pub fn annotate(&self, report: &mut BistReport) {
        report.measured_coverage = Some(self.measured_coverage());
        report.undetected_faults = Some(self.undetected_faults());
    }
}

/// The sixth (optional) typed artifact: the coverage-optimized two-session
/// plan — the shortest seed/polynomial/length choice the search found that
/// reaches the coverage target — plus SCOAP-ranked test-point suggestions
/// for any faults the optimized plan cannot detect.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The machine's name.
    pub name: String,
    /// The optimization outcome (both sessions, winner sources, lengths).
    pub result: PlanOptimization,
    /// The fixed plan's total test length (`2 × patterns_per_session`).
    pub baseline_length: usize,
    /// Test-point suggestions for the undetected faults, ranked by SCOAP
    /// fault difficulty (hardest first; capped).  Empty when the target was
    /// reached.
    pub test_points: Vec<TestPointSuggestion>,
}

impl OptimizedPlan {
    /// The report section for this artifact.
    #[must_use]
    pub fn optimize_report(&self) -> OptimizeReport {
        OptimizeReport {
            session1: self.result.session1.clone(),
            session2: self.result.session2.clone(),
            target: self.result.target,
            max_total_length: self.result.max_total_length,
            total_length: self.result.total_length(),
            baseline_length: self.baseline_length,
            coverage: self.result.coverage(),
            target_reached: self.result.target_reached(),
            test_points: self.test_points.clone(),
        }
    }
}

/// The seventh (optional) typed artifact: generated source code for the
/// self-testable controller — the configured target's modules with the
/// BIST plan's pattern sources and fault-free signatures baked into the
/// embedded self-test.
#[derive(Debug, Clone)]
pub struct EmittedCode {
    /// The machine's name.
    pub name: String,
    /// The code-generation target.
    pub target: EmitTarget,
    /// The generated modules (currently one per machine and target).
    pub modules: Vec<EmittedModule>,
}

impl EmittedCode {
    /// The report section for this artifact: per module its digest (module
    /// name, file name, byte length, FNV-1a hash) and its source text.  The
    /// JSON report renders the digests only, keeping it compact and
    /// deterministic; `stc emit --out` writes the sources of the same run.
    #[must_use]
    pub fn emit_report(&self) -> EmitReport {
        EmitReport {
            target: self.target.as_str().to_string(),
            modules: self
                .modules
                .iter()
                .map(|m| EmitModuleDigest {
                    module: m.module.clone(),
                    file: m.file_name.clone(),
                    bytes: m.source.len(),
                    fnv1a: stc_fsm::fnv1a(m.source.as_bytes()),
                    source: m.source.clone(),
                })
                .collect(),
        }
    }
}

/// Ranks the undetected faults of an optimization outcome by SCOAP fault
/// difficulty (hardest first; node then stuck-at value break ties for a
/// deterministic order) and keeps the top [`TEST_POINTS_REPORTED`].
fn rank_test_points(logic: &PipelineLogic, result: &PlanOptimization) -> Vec<TestPointSuggestion> {
    let mut points = Vec::new();
    for (session, block) in [(&result.session1, &logic.c1), (&result.session2, &logic.c2)] {
        if session.undetected.is_empty() {
            continue;
        }
        let scoap = stc_analyze::Scoap::compute(&block.netlist);
        points.extend(session.undetected.iter().map(|fault| TestPointSuggestion {
            block: block.name.clone(),
            node: fault.node,
            stuck_at: fault.stuck_at,
            score: scoap.fault_difficulty(fault.node, fault.stuck_at),
        }));
    }
    points.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then_with(|| a.block.cmp(&b.block))
            .then_with(|| a.node.cmp(&b.node))
            .then_with(|| a.stuck_at.cmp(&b.stuck_at))
    });
    points.truncate(TEST_POINTS_REPORTED);
    points
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builds a [`Synthesis`] session from layered configuration.
///
/// ```
/// use stc_pipeline::Synthesis;
///
/// let session = Synthesis::builder()
///     .profile("[solver]\nmax_nodes = 50000\n")
///     .unwrap()
///     .set("bist.patterns", "64")
///     .unwrap()
///     .jobs(1)
///     .build();
/// let decomposition = session.decompose_only(&stc_fsm::paper_example());
/// assert_eq!(decomposition.pipeline_flipflops(), 2);
/// ```
#[derive(Clone)]
pub struct SynthesisBuilder {
    config: StcConfig,
    observer: Arc<dyn Observer>,
}

impl Default for SynthesisBuilder {
    fn default() -> Self {
        Self {
            config: StcConfig::default(),
            observer: Arc::new(NullObserver),
        }
    }
}

impl std::fmt::Debug for SynthesisBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SynthesisBuilder")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SynthesisBuilder {
    /// Replaces the whole configuration (all layers so far).
    #[must_use]
    pub fn config(mut self, config: StcConfig) -> Self {
        self.config = config;
        self
    }

    /// Layers a profile text (TOML-style `[section]` + `key = value` lines)
    /// over the configuration built so far.
    pub fn profile(mut self, text: &str) -> Result<Self, crate::ConfigError> {
        self.config.apply_profile(text)?;
        Ok(self)
    }

    /// Layers one dotted-key override (the CLI-flag / serve-request
    /// mechanism) over the configuration built so far.
    pub fn set(mut self, key: &str, value: &str) -> Result<Self, crate::ConfigError> {
        self.config.set(key, value)?;
        Ok(self)
    }

    /// Attaches an observer receiving stage/solver events and cancellation
    /// polls.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = observer;
        self
    }

    /// Sets the OSTR solver node budget per machine.
    #[must_use]
    pub fn max_nodes(mut self, max_nodes: u64) -> Self {
        self.config.pipeline.solver.max_nodes = max_nodes;
        self
    }

    /// Sets the worker count for corpus runs (`0` = auto-detect).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// Sets the solver's parallel-subtree worker count (byte-identical
    /// results for any value).
    #[must_use]
    pub fn solver_jobs(mut self, jobs: usize) -> Self {
        self.config.pipeline.solver.parallel_subtrees = jobs;
        self
    }

    /// Sets the BIST pattern budget per self-test session.
    #[must_use]
    pub fn patterns_per_session(mut self, patterns: usize) -> Self {
        self.config.pipeline.patterns_per_session = patterns;
        self
    }

    /// Enables or disables the exact fault-coverage measurement of the
    /// BIST plan ([`Synthesis::run`] stage 5; off by default).
    #[must_use]
    pub fn coverage(mut self, enabled: bool) -> Self {
        self.config.pipeline.coverage.enabled = enabled;
        self
    }

    /// Enables or disables the coverage-driven plan optimization
    /// ([`Synthesis::run`] stage 6; off by default).  The optimizer's knobs
    /// (`coverage.optimize.target` / `.max_candidates` /
    /// `.max_total_length`) layer via [`Self::set`].
    #[must_use]
    pub fn optimize(mut self, enabled: bool) -> Self {
        self.config.pipeline.optimize.enabled = enabled;
        self
    }

    /// Enables or disables code generation ([`Synthesis::run`] stage 7;
    /// off by default).  The backend knobs (`emit.target`,
    /// `emit.module_name`) layer via [`Self::set`].
    #[must_use]
    pub fn emit(mut self, enabled: bool) -> Self {
        self.config.emit.enabled = enabled;
        self
    }

    /// Sets the gate-level stage limits.
    #[must_use]
    pub fn gate_level(mut self, limits: GateLevelLimits) -> Self {
        self.config.pipeline.gate_level = limits;
        self
    }

    /// Sets the per-machine wall-clock safety net.
    #[must_use]
    pub fn machine_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.pipeline.machine_timeout = timeout;
        self
    }

    /// Sets the per-stage wall-clock deadline.
    #[must_use]
    pub fn stage_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.stage_deadline = deadline;
        self
    }

    /// Finishes the builder.  Infallible: every layer was validated as it
    /// was applied.
    #[must_use]
    pub fn build(self) -> Synthesis {
        Synthesis {
            config: self.config,
            observer: self.observer,
        }
    }
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// A synthesis session: one effective configuration plus an optional
/// observer, driving any number of machines through the staged flow.
///
/// See the crate-level docs for the artifact flow and the
/// [`SynthesisBuilder`] docs for the configuration layers.
#[derive(Clone)]
pub struct Synthesis {
    config: StcConfig,
    observer: Arc<dyn Observer>,
}

impl std::fmt::Debug for Synthesis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synthesis")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Default for Synthesis {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Adapts the session observer (plus an optional per-stage deadline) onto
/// the engine-level [`SearchObserver`] for one machine's solve stage.
struct SolveAdapter<'a> {
    machine: &'a str,
    observer: &'a dyn Observer,
    deadline: Option<Instant>,
    /// Register bits of the best incumbent reported so far.  The engine
    /// reports subtree-local improvements, which repeat and regress; only a
    /// strict drop below this becomes an event.
    best_bits: AtomicU32,
}

impl SearchObserver for SolveAdapter<'_> {
    fn on_progress(&self, nodes: u64) {
        self.observer.on_event(&Event::SolverProgress {
            machine: self.machine,
            nodes,
        });
    }

    fn on_incumbent(&self, cost: Cost) {
        let register_bits = cost.register_bits();
        if self.best_bits.fetch_min(register_bits, Ordering::Relaxed) > register_bits {
            self.observer.on_event(&Event::IncumbentImproved {
                machine: self.machine,
                register_bits,
            });
        }
    }

    fn on_budget_exhausted(&self) {
        self.observer.on_event(&Event::BudgetExhausted {
            machine: self.machine,
        });
    }

    fn should_stop(&self) -> bool {
        self.observer.should_cancel() || past(self.deadline)
    }
}

impl Synthesis {
    /// Starts a builder with crate-default configuration and no observer.
    #[must_use]
    pub fn builder() -> SynthesisBuilder {
        SynthesisBuilder::default()
    }

    /// A session with crate-default configuration and no observer.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The session's effective configuration (all layers applied).
    #[must_use]
    pub fn config(&self) -> &StcConfig {
        &self.config
    }

    fn emit(&self, event: Event<'_>) {
        self.observer.on_event(&event);
    }

    /// Runs `body` as `stage` of `machine`, bracketed by the stage's
    /// started/finished events.  This is where every stage is timed: the
    /// finished event carries the body's wall-clock time.
    fn in_stage<T>(&self, machine: &str, stage: Stage, body: impl FnOnce() -> T) -> T {
        self.emit(Event::StageStarted {
            machine,
            stage: stage.name(),
        });
        let start = Instant::now();
        let out = body();
        self.emit(Event::StageFinished {
            machine,
            stage: stage.name(),
            elapsed: start.elapsed(),
        });
        out
    }

    fn stage_deadline(&self) -> Option<Instant> {
        self.config.stage_deadline.map(|d| Instant::now() + d)
    }

    // -- typed partial flows -----------------------------------------------

    /// Runs only the OSTR decomposition stage: search for the cheapest
    /// symmetric partition pair, realize it (Theorem 1) and verify the
    /// realization.  Infallible — even a cancelled or budget-exhausted
    /// search has a best-so-far solution (the trivial doubling pair at
    /// worst), so the returned artifact is always well-formed.
    #[must_use]
    pub fn decompose_only(&self, machine: &Mealy) -> Decomposition {
        self.in_stage(machine.name(), Stage::Solve, || {
            let adapter = SolveAdapter {
                machine: machine.name(),
                observer: self.observer.as_ref(),
                deadline: self.stage_deadline(),
                best_bits: AtomicU32::new(u32::MAX),
            };
            let outcome =
                OstrSolver::new(self.config.pipeline.solver).solve_observed(machine, &adapter);
            let realization = outcome.best.realize(machine);
            let verified = realization.verify(machine).is_none();
            Decomposition {
                machine: machine.clone(),
                outcome,
                realization,
                verified,
            }
        })
    }

    /// Resumes a flow from a [`Decomposition`]: runs the state-assignment
    /// stage, producing the bit-level pipeline view.
    ///
    /// Fails when the decomposition's realization did not verify or when the
    /// machine exceeds the configured gate-level limits.
    pub fn encode(&self, decomposition: &Decomposition) -> Result<Encoded, SessionError> {
        let machine = &decomposition.machine;
        if !decomposition.verified {
            return Err(SessionError::RealizationInvalid {
                machine: machine.name().to_string(),
            });
        }
        if !self.within_gate_level(machine) {
            return Err(SessionError::GateLevelLimit {
                machine: machine.name().to_string(),
                states: machine.num_states(),
                inputs: machine.num_inputs(),
                limits: self.config.pipeline.gate_level,
            });
        }
        let pipeline = self.in_stage(machine.name(), Stage::Encode, || {
            EncodedPipeline::new(machine, &decomposition.realization)
        });
        Ok(Encoded {
            name: machine.name().to_string(),
            pipeline,
        })
    }

    /// Resumes a flow from an [`Encoded`] artifact: two-level minimisation
    /// and netlist construction for `C1`, `C2` and the output logic.
    #[must_use]
    pub fn synthesize_logic(&self, encoded: &Encoded) -> Netlist {
        let logic = self.in_stage(&encoded.name, Stage::Logic, || {
            synthesize_pipeline(&encoded.pipeline, self.config.pipeline.synth)
        });
        Netlist {
            name: encoded.name.clone(),
            logic: Arc::new(logic),
        }
    }

    /// Resumes a flow from a [`Netlist`]: plans the two self-test sessions
    /// and estimates signature-based fault coverage.
    #[must_use]
    pub fn plan_bist(&self, netlist: &Netlist) -> BistPlan {
        let result = self.in_stage(&netlist.name, Stage::Bist, || {
            pipeline_self_test(
                netlist.logic.as_ref(),
                self.config.pipeline.patterns_per_session,
            )
        });
        BistPlan {
            name: netlist.name.clone(),
            result,
            logic: Arc::clone(&netlist.logic),
        }
    }

    /// Resumes a flow from a [`BistPlan`]: measures the plan's exact
    /// single-stuck-at coverage by bit-parallel fault simulation of the
    /// plan's own stimuli (`coverage.max_patterns` caps the per-session
    /// pattern count; `0` measures the full plan budget).
    ///
    /// Runs regardless of `coverage.enabled` — the flag only controls
    /// whether [`Self::run`] performs the measurement automatically.  The
    /// simulation runs on the calling thread; corpus runs parallelise over
    /// machines instead.
    #[must_use]
    pub fn measure_coverage(&self, plan: &BistPlan) -> CoverageReport {
        let config = &self.config.pipeline;
        let patterns = config
            .coverage
            .applied_patterns(config.patterns_per_session);
        let coverage = self.in_stage(&plan.name, Stage::Coverage, || {
            measure_plan_coverage(plan.logic.as_ref(), patterns)
        });
        CoverageReport {
            name: plan.name.clone(),
            coverage,
        }
    }

    /// Resumes a flow from a [`BistPlan`]: searches LFSR seed/polynomial
    /// candidates and the per-session length split for the shortest plan
    /// reaching the `coverage.optimize.target` coverage, and ranks any
    /// remaining undetected faults by SCOAP difficulty as test-point
    /// suggestions.
    ///
    /// Runs regardless of `coverage.optimize.enabled` — the flag only
    /// controls whether [`Self::run`] performs the optimization
    /// automatically.  The search runs on the calling thread, like
    /// [`Self::measure_coverage`]; progress surfaces as
    /// [`Event::OptimizeCandidate`] / [`Event::OptimizeIncumbent`].
    #[must_use]
    pub fn optimize_plan(&self, plan: &BistPlan) -> OptimizedPlan {
        let config = &self.config.pipeline;
        let options = OptimizeOptions {
            target: config.optimize.target,
            max_candidates: config.optimize.max_candidates,
            max_total_length: config
                .optimize
                .resolved_max_total_length(config.patterns_per_session),
        };
        let (result, test_points) = self.in_stage(&plan.name, Stage::Optimize, || {
            let logic = plan.logic.as_ref();
            let result = optimize_plan_with(logic, &options, &mut |progress| {
                self.emit(match progress {
                    OptimizeProgress::CandidateEvaluated {
                        block,
                        candidate,
                        length,
                        coverage,
                    } => Event::OptimizeCandidate {
                        machine: &plan.name,
                        block,
                        candidate: *candidate,
                        length: *length,
                        coverage: *coverage,
                    },
                    OptimizeProgress::IncumbentImproved {
                        block,
                        candidate,
                        length,
                    } => Event::OptimizeIncumbent {
                        machine: &plan.name,
                        block,
                        candidate: *candidate,
                        length: *length,
                    },
                });
            });
            let test_points = rank_test_points(logic, &result);
            (result, test_points)
        });
        OptimizedPlan {
            name: plan.name.clone(),
            result,
            baseline_length: 2 * config.patterns_per_session,
            test_points,
        }
    }

    /// Resumes a flow from a [`BistPlan`], optionally refined by an
    /// [`OptimizedPlan`]: generates the configured code target for the
    /// controller.  With an optimized plan the emitted self-test uses the
    /// optimizer's pattern sources and session lengths (signatures
    /// recomputed for them); otherwise it bakes in the default plan's
    /// signatures.
    ///
    /// Runs regardless of `emit.enabled` — the flag only controls whether
    /// [`Self::run`] attaches an `emit` section automatically.  The module
    /// name defaults to the sanitized machine name; a non-empty
    /// `emit.module_name` overrides it (intended for single-machine runs).
    #[must_use]
    pub fn emit_code(&self, plan: &BistPlan, optimized: Option<&OptimizedPlan>) -> EmittedCode {
        let target = self.config.emit.target;
        let module = self.in_stage(&plan.name, Stage::Emit, || {
            let logic = plan.logic.as_ref();
            let spec = match optimized {
                Some(opt) => SelfTestSpec::from_optimized(logic, &opt.result),
                None => SelfTestSpec::from_plan(logic, &plan.result),
            };
            let module_name = if self.config.emit.module_name.is_empty() {
                sanitize_module_name(&plan.name)
            } else {
                sanitize_module_name(&self.config.emit.module_name)
            };
            match target {
                EmitTarget::Rust => emit_rust(&module_name, logic, &spec),
                EmitTarget::Verilog => emit_verilog(&module_name, logic, &spec),
            }
        });
        EmittedCode {
            name: plan.name.clone(),
            target,
            modules: vec![module],
        }
    }

    /// Runs the static analysis as one `analyze` stage: the machine-level
    /// lints (unreachable states, mergeable states, input-column findings)
    /// and, given the synthesised [`Netlist`], the structural and SCOAP
    /// analysis of each combinational block (`C1`, `C2`, output logic), with
    /// the session's `analysis.deny` list applied.
    ///
    /// Runs regardless of `analysis.enabled` — the flag only controls
    /// whether [`Self::run`] attaches an `analysis` section automatically.
    #[must_use]
    pub fn analyze(&self, machine: &Mealy, netlist: Option<&Netlist>) -> AnalysisReport {
        self.in_stage(machine.name(), Stage::Analyze, || {
            let mut diagnostics = stc_analyze::lint_machine(machine);
            self.promote_denied(&mut diagnostics);
            let blocks = netlist.map_or_else(Vec::new, |netlist| {
                let logic = netlist.logic.as_ref();
                [&logic.c1, &logic.c2, &logic.output]
                    .into_iter()
                    .map(|block| {
                        let mut analysis = stc_analyze::analyze_block(
                            &block.name,
                            &block.netlist,
                            HARD_NETS_REPORTED,
                        );
                        self.promote_denied(&mut analysis.diagnostics);
                        analysis
                    })
                    .collect()
            });
            AnalysisReport {
                diagnostics,
                blocks,
            }
        })
    }

    /// Promotes diagnostics whose code is on the `analysis.deny` list to
    /// error severity.
    fn promote_denied(&self, diagnostics: &mut [stc_analyze::Diagnostic]) {
        for d in diagnostics {
            if self.config.analysis.deny.iter().any(|code| code == d.code) {
                d.severity = stc_analyze::Severity::Error;
            }
        }
    }

    /// Whether `machine` is within the gate-level limits, so the stages
    /// after solve that need a netlist can run on it.
    fn within_gate_level(&self, machine: &Mealy) -> bool {
        let limits = self.config.pipeline.gate_level;
        machine.num_states() <= limits.max_states && machine.num_inputs() <= limits.max_inputs
    }

    // -- full flows --------------------------------------------------------

    /// Drives one corpus entry through the full flow and assembles its
    /// [`MachineReport`]; the status names the stop, if the flow stopped
    /// early, and is `full` otherwise.
    #[must_use]
    pub fn run(&self, entry: &CorpusEntry) -> MachineReport {
        let mut report = blank_report(entry, MachineStatus::Full);
        if let Err(status) = self.walk(&entry.machine, &mut report) {
            report.status = status;
        }
        self.emit(Event::MachineFinished {
            machine: &report.name,
            status: report.status.as_json_str(),
        });
        report
    }

    /// The one place the flow is sequenced and stopped.  The enabled rows
    /// of [`Stage::ALL`] run in table order; a machine beyond the gate-level
    /// limits runs only solve and analyze and ends `solve-only`.  Before
    /// every stage after solve the machine timeout (`timeout`) and the
    /// observer (`cancelled`) are checked, and the machine timeout once more
    /// after the last stage; after every stage its stage-deadline window is
    /// (`timeout`, keeping that stage's section).
    /// The solve stage also stops inside the search, through
    /// [`SolveAdapter`], when the window closes or the observer cancels.
    fn walk(&self, machine: &Mealy, report: &mut MachineReport) -> Result<(), MachineStatus> {
        let machine_deadline = self
            .config
            .pipeline
            .machine_timeout
            .map(|t| Instant::now() + t);
        let gate_level = self.within_gate_level(machine);
        let stages = Stage::ALL.into_iter().filter(|&stage| {
            stage.enabled(&self.config)
                && (gate_level || matches!(stage, Stage::Solve | Stage::Analyze))
        });
        let mut flow = Flow::default();
        for stage in stages {
            if stage != Stage::Solve {
                if past(machine_deadline) {
                    return Err(MachineStatus::TimedOut);
                }
                if self.observer.should_cancel() {
                    return Err(MachineStatus::Cancelled);
                }
            }
            // `decompose_only` opens its own window after this one, so a
            // search the deadline stopped is always past this window too.
            let window = self.stage_deadline();
            let outcome = self.run_stage(stage, machine, &mut flow, report);
            if past(window) && matches!(outcome, Ok(()) | Err(MachineStatus::Cancelled)) {
                return Err(MachineStatus::TimedOut);
            }
            outcome?;
        }
        if past(machine_deadline) {
            return Err(MachineStatus::TimedOut);
        }
        if gate_level {
            Ok(())
        } else {
            Err(MachineStatus::SolveOnly)
        }
    }

    /// Runs one stage of [`Self::walk`]: the stage's typed method on the
    /// artifacts of the stages before it, its report section, and the
    /// artifact later stages consume.  `Err` stops the flow with a status.
    fn run_stage(
        &self,
        stage: Stage,
        machine: &Mealy,
        flow: &mut Flow,
        report: &mut MachineReport,
    ) -> Result<(), MachineStatus> {
        match stage {
            Stage::Solve => {
                let decomposition = self.decompose_only(machine);
                report.solve = Some(decomposition.solve_report());
                if !decomposition.verified {
                    return Err(MachineStatus::Error(
                        "the realization of the best OSTR solution does not realize the \
                         specification"
                            .into(),
                    ));
                }
                if decomposition.cancelled() {
                    return Err(MachineStatus::Cancelled);
                }
                flow.decomposition = Some(decomposition);
            }
            Stage::Encode => {
                let encoded = self.encode(earlier(&flow.decomposition));
                flow.encoded = Some(encoded.map_err(|e| MachineStatus::Error(e.to_string()))?);
            }
            Stage::Logic => {
                let netlist = self.synthesize_logic(earlier(&flow.encoded));
                report.logic = Some(netlist.logic_report());
                flow.netlist = Some(netlist);
            }
            Stage::Bist => {
                let plan = self.plan_bist(earlier(&flow.netlist));
                report.bist = Some(plan.bist_report());
                flow.plan = Some(plan);
            }
            Stage::Coverage => {
                let coverage = self.measure_coverage(earlier(&flow.plan));
                if let Some(bist) = report.bist.as_mut() {
                    coverage.annotate(bist);
                }
            }
            Stage::Optimize => {
                let optimized = self.optimize_plan(earlier(&flow.plan));
                report.optimize = Some(optimized.optimize_report());
                flow.optimized = Some(optimized);
            }
            // The machine-level lints need no netlist; the per-block analysis
            // runs when the gate-level stages produced one.
            Stage::Analyze => {
                report.analysis = Some(self.analyze(machine, flow.netlist.as_ref()));
            }
            Stage::Emit => {
                let code = self.emit_code(earlier(&flow.plan), flow.optimized.as_ref());
                report.emit = Some(code.emit_report());
            }
        }
        Ok(())
    }

    /// Runs the whole corpus on the session's worker pool (the resolved
    /// `jobs` value, at most one worker per machine; every value produces
    /// byte-identical reports) and assembles the [`crate::SuiteReport`] in
    /// corpus order.
    ///
    /// Cancellation stops workers from claiming further machines; machines
    /// never started are reported with [`MachineStatus::Cancelled`] and no
    /// stage sections, so the report always covers the full corpus.
    #[must_use]
    pub fn run_suite(&self, entries: &[CorpusEntry], suite_name: &str) -> SuiteRun {
        let results = self.run_parallel(entries, self.config.resolve_jobs().min(entries.len()));

        let mut machines = Vec::with_capacity(results.len());
        let mut timings = Vec::with_capacity(results.len());
        let mut summary = SuiteSummary {
            machines: results.len(),
            ..SuiteSummary::default()
        };
        for (entry, result) in entries.iter().zip(results) {
            // Never started: a cancelled placeholder keeps the report
            // corpus-shaped.
            let (report, elapsed) = result.unwrap_or_else(|| {
                (
                    blank_report(entry, MachineStatus::Cancelled),
                    Duration::ZERO,
                )
            });
            match &report.status {
                MachineStatus::Full => summary.full += 1,
                MachineStatus::SolveOnly => summary.solve_only += 1,
                MachineStatus::TimedOut => summary.timed_out += 1,
                MachineStatus::Cancelled => summary.cancelled += 1,
                MachineStatus::Error(_) => summary.errors += 1,
            }
            if let Some(solve) = &report.solve {
                summary.nontrivial += usize::from(solve.nontrivial);
                summary.conventional_bist_ff_total += u64::from(solve.conventional_bist_ff);
                summary.pipeline_ff_total += u64::from(solve.pipeline_ff);
            }
            timings.push(MachineTiming {
                name: report.name.clone(),
                elapsed,
            });
            machines.push(report);
        }

        SuiteRun {
            report: SuiteReport {
                suite: suite_name.to_string(),
                config: self.config.clone(),
                machines,
                summary,
            },
            timings,
        }
    }

    fn timed_run(&self, entry: &CorpusEntry) -> (MachineReport, Duration) {
        let start = Instant::now();
        let report = self.run(entry);
        (report, start.elapsed())
    }

    /// The scoped worker pool: `jobs` std threads pull machine indices from
    /// a shared atomic counter and deposit results into per-index slots, so
    /// the output order is the corpus order regardless of completion order.
    /// Workers poll the observer before claiming, so cancellation leaves
    /// unclaimed slots empty.
    fn run_parallel(
        &self,
        entries: &[CorpusEntry],
        jobs: usize,
    ) -> Vec<Option<(MachineReport, Duration)>> {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(MachineReport, Duration)>>> =
            entries.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    if self.observer.should_cancel() {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(entry) = entries.get(index) else {
                        break;
                    };
                    let result = self.timed_run(entry);
                    *slots[index].lock().expect("no panics while holding lock") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("worker threads joined"))
            .collect()
    }
}

/// Wall-clock timing of one machine, reported alongside (never inside) the
/// deterministic report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineTiming {
    /// Machine name.
    pub name: String,
    /// Wall-clock time of the machine's flow.
    pub elapsed: Duration,
}

/// The outcome of [`Synthesis::run_suite`]: the deterministic report plus
/// the non-deterministic timing side channel.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The deterministic, machine-readable report.
    pub report: SuiteReport,
    /// Per-machine wall-clock timings, in corpus order.
    pub timings: Vec<MachineTiming>,
}

/// A machine's report before any stage ran: the machine's shape and paper
/// rows, no stage sections.
fn blank_report(entry: &CorpusEntry, status: MachineStatus) -> MachineReport {
    let machine = &entry.machine;
    MachineReport {
        name: machine.name().to_string(),
        status,
        states: machine.num_states(),
        inputs: machine.num_inputs(),
        outputs: machine.num_outputs(),
        solve: None,
        paper_table1: entry.table1,
        paper_table2: entry.table2,
        logic: None,
        bist: None,
        optimize: None,
        analysis: None,
        emit: None,
    }
}

/// The artifacts [`Synthesis::walk`] has produced so far for one machine.
#[derive(Default)]
struct Flow {
    decomposition: Option<Decomposition>,
    encoded: Option<Encoded>,
    netlist: Option<Netlist>,
    plan: Option<BistPlan>,
    optimized: Option<OptimizedPlan>,
}

/// The artifact of a stage that [`Stage::ALL`] orders before the one asking.
fn earlier<T>(artifact: &Option<T>) -> &T {
    artifact
        .as_ref()
        .expect("Stage::ALL runs every stage after the stages it consumes")
}

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{embedded_corpus, filter_by_names};
    use crate::observe::CancelFlag;
    use stc_fsm::paper_example;

    fn small_session() -> Synthesis {
        Synthesis::builder()
            .max_nodes(10_000)
            .set("solver.stop_at_lower_bound", "true")
            .unwrap()
            .patterns_per_session(32)
            .jobs(1)
            .build()
    }

    #[test]
    fn typed_flow_reaches_the_bist_plan() {
        let session = small_session();
        let machine = paper_example();
        let decomposition = session.decompose_only(&machine);
        assert!(decomposition.verified);
        assert!(!decomposition.cancelled());
        assert_eq!(decomposition.pipeline_flipflops(), 2);
        let encoded = session.encode(&decomposition).unwrap();
        let netlist = session.synthesize_logic(&encoded);
        assert_eq!(
            netlist.logic_report().r1_bits + netlist.logic_report().r2_bits,
            2
        );
        let plan = session.plan_bist(&netlist);
        assert!(plan.bist_report().overall_coverage > 0.5);
    }

    #[test]
    fn gate_level_limit_is_a_typed_error() {
        let session = Synthesis::builder()
            .gate_level(GateLevelLimits {
                max_states: 1,
                max_inputs: 1,
            })
            .build();
        let decomposition = session.decompose_only(&paper_example());
        match session.encode(&decomposition) {
            Err(SessionError::GateLevelLimit { states, .. }) => assert_eq!(states, 4),
            other => panic!("expected a gate-level error, got {other:?}"),
        }
    }

    #[test]
    fn artifacts_resume_across_sessions() {
        let machine = paper_example();
        let decomposition = small_session().decompose_only(&machine);
        // A different session picks the stored artifact up later.
        let resumer = Synthesis::builder().patterns_per_session(16).build();
        let encoded = resumer.encode(&decomposition).unwrap();
        let plan = resumer.plan_bist(&resumer.synthesize_logic(&encoded));
        assert_eq!(plan.result.session1.patterns, 16);
    }

    #[test]
    fn coverage_artifact_measures_the_plan_exactly() {
        let session = small_session();
        let machine = paper_example();
        let decomposition = session.decompose_only(&machine);
        let encoded = session.encode(&decomposition).unwrap();
        let netlist = session.synthesize_logic(&encoded);
        let plan = session.plan_bist(&netlist);
        let coverage = session.measure_coverage(&plan);
        // The worked example's blocks have 2-bit input cones: 32 de Bruijn
        // patterns sweep them exhaustively, so the measured coverage is
        // exactly complete.
        assert_eq!(coverage.name, machine.name());
        assert_eq!(coverage.undetected_faults(), 0);
        assert!((coverage.measured_coverage() - 1.0).abs() < 1e-12);
        // Annotation fills exactly the two measured fields.
        let mut report = plan.bist_report();
        assert_eq!(report.measured_coverage, None);
        assert_eq!(report.undetected_faults, None);
        coverage.annotate(&mut report);
        assert_eq!(report.measured_coverage, Some(1.0));
        assert_eq!(report.undetected_faults, Some(0));
    }

    /// Every optional stage is additive: off, neither its report section
    /// nor its config echo appears; on, both do, and the core sections are
    /// unchanged.
    #[test]
    fn optional_stages_add_their_sections_only_when_enabled() {
        let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
        let off = small_session().run_suite(&corpus, "test");
        let off_json = off.report.to_json_string();
        let off = &off.report.machines[0];
        for (stage, section, echo) in [
            (
                Stage::Coverage,
                "\"measured_coverage\"",
                "\"coverage_enabled\": true",
            ),
            (
                Stage::Optimize,
                "\"optimize\"",
                "\"optimize_enabled\": true",
            ),
            (Stage::Analyze, "\"analysis\"", "\"analysis_enabled\": true"),
            (Stage::Emit, "\"emit\"", "\"emit_enabled\": true"),
        ] {
            assert!(!off_json.contains(section), "{stage:?}");
            assert!(!off_json.contains(echo), "{stage:?}");
            let run = Synthesis::builder()
                .max_nodes(10_000)
                .patterns_per_session(32)
                .set(stage.enable_key().unwrap(), "true")
                .unwrap()
                .jobs(1)
                .build()
                .run_suite(&corpus, "test");
            let json = run.report.to_json_string();
            assert!(json.contains(section), "{stage:?}");
            assert!(json.contains(echo), "{stage:?}");
            let on = &run.report.machines[0];
            assert_eq!(on.solve, off.solve, "{stage:?}");
            assert_eq!(on.logic, off.logic, "{stage:?}");
            let (on_bist, off_bist) = (on.bist.as_ref().unwrap(), off.bist.as_ref().unwrap());
            assert_eq!(on_bist.session1, off_bist.session1, "{stage:?}");
            assert_eq!(on_bist.overall_coverage, off_bist.overall_coverage);
            match stage {
                Stage::Coverage => {
                    assert!(json.contains("\"undetected_faults\""));
                    assert!(json.contains("\"coverage_max_patterns\": 0"));
                }
                Stage::Optimize => {
                    // tav's cones are 2-bit: the optimizer reaches full
                    // coverage far below the fixed 2 × 32 budget, with no
                    // test points needed.
                    let optimize = on.optimize.as_ref().unwrap();
                    assert!(optimize.target_reached);
                    assert!(optimize.total_length <= optimize.baseline_length);
                    assert_eq!(optimize.baseline_length, 64);
                    assert!((optimize.coverage - 1.0).abs() < 1e-12);
                    assert!(optimize.test_points.is_empty());
                }
                Stage::Analyze => {
                    assert!(json.contains("\"hard_nets\""));
                    let analysis = on.analysis.as_ref().unwrap();
                    assert_eq!(analysis.blocks.len(), 3, "C1, C2 and the output logic");
                    assert!(analysis
                        .blocks
                        .iter()
                        .all(|b| b.hard_nets.len() <= HARD_NETS_REPORTED));
                }
                _ => {
                    assert!(json.contains("\"emit_target\": \"rust\""));
                    let emit = on.emit.as_ref().unwrap();
                    assert_eq!(emit.target, "rust");
                    assert_eq!(emit.modules.len(), 1);
                    assert_eq!(emit.modules[0].module, "tav");
                    assert_eq!(emit.modules[0].file, "tav.rs");
                    assert!(emit.modules[0].bytes > 0);
                }
            }
            if stage != Stage::Coverage {
                assert_eq!(on.bist, off.bist, "{stage:?}");
            }
        }
    }

    #[test]
    fn the_emit_stage_produces_both_targets_and_honours_the_name_override() {
        let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
        let emit = |builder: SynthesisBuilder| {
            let report = builder.max_nodes(10_000).emit(true).build().run(&corpus[0]);
            report.emit.expect("tav is within the gate-level limits")
        };
        let rust = emit(Synthesis::builder());
        assert_eq!(rust.target, "rust");
        assert!(rust.modules[0].source.contains("#![no_std]"));
        assert!(rust.modules[0].source.contains("pub fn self_test"));

        let builder = Synthesis::builder()
            .set("emit.target", "verilog")
            .unwrap()
            .set("emit.module_name", "My Ctrl-2")
            .unwrap();
        let verilog = emit(builder);
        assert_eq!(verilog.target, "verilog");
        let module = &verilog.modules[0];
        assert_eq!(module.file, "my_ctrl_2.v");
        assert!(module.source.contains("module my_ctrl_2"));
        assert!(module.source.contains("module my_ctrl_2_bist"));
        // The digest the JSON report renders is the digest of this source.
        assert_eq!(module.bytes, module.source.len());
        assert_eq!(module.fnv1a, stc_fsm::fnv1a(module.source.as_bytes()));
    }

    #[test]
    fn unreachable_targets_surface_scoap_ranked_test_points() {
        let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
        let run = Synthesis::builder()
            .max_nodes(10_000)
            .patterns_per_session(32)
            .optimize(true)
            .set("coverage.optimize.max_total_length", "1")
            .unwrap()
            .jobs(1)
            .build()
            .run_suite(&corpus, "test");
        let optimize = run.report.machines[0].optimize.as_ref().unwrap();
        assert!(!optimize.target_reached);
        assert!(!optimize.test_points.is_empty());
        // Ranked hardest-first by SCOAP fault difficulty.
        for pair in optimize.test_points.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        let json = run.report.to_json_string();
        assert!(json.contains("\"test_points\""));
        assert!(json.contains("\"stuck_at\""));
    }

    #[test]
    fn deny_list_promotes_codes_to_error_severity() {
        let machine = paper_example();
        let lenient = small_session();
        let strict = Synthesis::builder()
            .max_nodes(10_000)
            .set("analysis.deny", "fsm-unreachable-state")
            .unwrap()
            .build();
        let base = lenient.analyze(&machine, None).diagnostics;
        let promoted = strict.analyze(&machine, None).diagnostics;
        let find = |diags: &[stc_analyze::Diagnostic]| {
            diags
                .iter()
                .find(|d| d.code == "fsm-unreachable-state")
                .map(|d| d.severity)
        };
        assert_eq!(find(&base), Some(stc_analyze::Severity::Warning));
        assert_eq!(find(&promoted), Some(stc_analyze::Severity::Error));
    }

    #[test]
    fn coverage_max_patterns_caps_the_measurement() {
        let machine = paper_example();
        let session = Synthesis::builder()
            .patterns_per_session(32)
            .coverage(true)
            .set("coverage.max_patterns", "1")
            .unwrap()
            .jobs(1)
            .build();
        let plan = {
            let decomposition = session.decompose_only(&machine);
            let encoded = session.encode(&decomposition).unwrap();
            session.plan_bist(&session.synthesize_logic(&encoded))
        };
        let capped = session.measure_coverage(&plan);
        assert_eq!(capped.coverage.session1.patterns, 1);
        assert!(capped.measured_coverage() < 1.0);
        // The plan itself still used the full 32-pattern budget.
        assert_eq!(plan.result.session1.patterns, 32);
    }

    #[test]
    fn cancelled_corpus_run_reports_cancelled_machines() {
        let flag = CancelFlag::shared();
        flag.cancel();
        let session = Synthesis::builder().observer(flag).jobs(1).build();
        let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
        let run = session.run_suite(&corpus, "test");
        assert_eq!(run.report.machines[0].status, MachineStatus::Cancelled);
        assert_eq!(run.report.summary.cancelled, 1);
        let json = run.report.to_json_string();
        assert!(json.contains("\"cancelled\""));
    }
}
