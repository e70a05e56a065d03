//! # stc — Synthesis of Self-Testable Controllers
//!
//! A Rust reproduction of Hellebrand & Wunderlich, *Synthesis of Self-Testable
//! Controllers* (European Design and Test Conference, 1994).
//!
//! The paper synthesises controllers as **pipeline-like structures** with two
//! registers `R1`, `R2` and two combinational blocks `C1`, `C2` arranged
//! without direct feedback around either register.  Such a structure can be
//! self-tested in two sessions — each register alternately generates patterns
//! and compacts responses — without any extra test registers, without
//! transparency/bypass delay, and with complete coverage of the register/logic
//! interconnect.  The synthesis problem (**OSTR**) is solved at the FSM level
//! with algebraic structure theory: find a symmetric partition pair `(π, τ)`
//! with `π ∩ τ ⊆ ε` minimising the total register bits.
//!
//! This facade crate re-exports the workspace members (module alias, crate
//! name and source directory):
//!
//! | module | crate | directory | contents |
//! |--------|-------|-----------|----------|
//! | [`fsm`] | `stc-fsm` | `crates/fsm` | Mealy machines, KISS2, state equivalence, benchmark suite |
//! | [`partition`] | `stc-partition` | `crates/partition` | partition algebra, partition pairs, symmetric-pair basis, Mm-lattice |
//! | [`synth`] | `stc-synth` | `crates/core` | the OSTR solver and the Theorem 1 realization |
//! | [`encoding`] | `stc-encoding` | `crates/encoding` | binary codes and bit-level machine/pipeline views |
//! | [`logic`] | `stc-logic` | `crates/logic` | two-level minimisation, netlists, area/delay estimation |
//! | [`bist`] | `stc-bist` | `crates/bist` | LFSR/MISR/BILBO, fault simulation, architecture comparison |
//! | [`emit`] | `stc-emit` | `crates/emit` | codegen backends: `no_std` Rust controllers and Verilog netlists with a BIST wrapper |
//! | [`pipeline`] | `stc-pipeline` | `crates/pipeline` | corpus-level batch pipeline, parallel runner, JSON reports, perf-baseline checks |
//!
//! The staged flow is driven through one **session API**: a [`Synthesis`]
//! built from a layered [`StcConfig`] produces typed artifacts that flow one
//! into the next — [`Decomposition`] → [`Encoded`] → `Netlist` → [`BistPlan`]
//! (→ [`CoverageReport`], the exact measured fault coverage of the plan, →
//! [`OptimizedPlan`], the shortest LFSR pattern source reaching a coverage
//! target) → [`pipeline::MachineReport`] — with progress events and
//! cooperative cancellation via [`Observer`].  The `stc` binary
//! (`src/bin/stc.rs`) exposes the same flow as `stc run` (batch),
//! `stc coverage` (measured fault coverage), `stc optimize` (the plan
//! optimizer), `stc serve` (a JSON-lines request loop) and the
//! perf-regression gate; see the README for flags and the report schema.
//!
//! # Quickstart
//!
//! ```
//! use stc::prelude::*;
//!
//! // The worked example of the paper (Figs. 5-8).
//! let machine = stc::fsm::paper_example();
//!
//! // One session drives the whole staged flow via typed artifacts.
//! let session = Synthesis::builder().patterns_per_session(64).build();
//! let decomposition = session.decompose_only(&machine);
//! assert_eq!(decomposition.pipeline_flipflops(), 2);
//! assert!(decomposition.verified);
//!
//! let encoded = session.encode(&decomposition).unwrap();
//! let netlist = session.synthesize_logic(&encoded);
//! let plan = session.plan_bist(&netlist);
//! assert!(plan.result.overall_coverage() > 0.5);
//!
//! // Compare the four architectures of Figs. 1-4.
//! let reports = stc::bist::evaluate_architectures(&machine, &ArchitectureOptions::default());
//! assert!(reports[3].flipflops <= reports[1].flipflops);
//! ```
//!
//! # Configuration keys
//!
//! Every knob of the flow is one dotted key, shared verbatim by
//! [`StcConfig::set`], `--set KEY=VALUE` on the CLI, `--profile` files and
//! per-request `overrides` objects of the serve protocol
//! (`docs/SERVE.md`).  The canonical table — names and help text — is
//! [`pipeline::CONFIG_KEYS`], which `stc help` prints; the list below is
//! asserted against it, so it cannot drift:
//!
//! ```
//! let keys: Vec<&str> = stc::pipeline::CONFIG_KEYS.iter().map(|(key, _)| *key).collect();
//! assert_eq!(
//!     keys,
//!     [
//!         "jobs",                       // corpus-runner worker threads (0 = auto)
//!         "solver.max_nodes",           // OSTR node budget per machine
//!         "solver.time_limit_secs",     // solver wall-clock limit (0 = none)
//!         "solver.lemma1_pruning",      // Lemma 1 subtree pruning
//!         "solver.stop_at_lower_bound", // stop at the proven lower bound
//!         "solver.branch_and_bound",    // cost-bound pruning
//!         "solver.jobs",                // parallel subtree exploration
//!         "solver.steal_seed",          // accepted for compatibility; has no effect
//!         "encoding",                   // accepted; has no effect (binary block indices)
//!         "synth.minimize",             // two-level minimisation
//!         "bist.patterns",              // patterns per self-test session
//!         "coverage.enabled",           // exact fault-coverage measurement
//!         "coverage.max_patterns",      // measurement pattern cap (0 = plan budget)
//!         "coverage.optimize.enabled",  // BIST plan optimizer stage
//!         "coverage.optimize.target",   // optimizer coverage target in (0, 1]
//!         "coverage.optimize.max_candidates",   // pattern sources per block
//!         "coverage.optimize.max_total_length", // session-length budget (0 = 2x patterns)
//!         "analysis.enabled",           // static lints + SCOAP testability
//!         "analysis.deny",              // diagnostic codes promoted to error
//!         "emit.enabled",               // codegen stage (controller + self-test)
//!         "emit.target",                // rust | verilog
//!         "emit.module_name",           // module-name override (empty = machine name)
//!         "gate_level.max_states",      // gate-level stage |S| limit
//!         "gate_level.max_inputs",      // gate-level input-alphabet limit
//!         "machine_timeout_secs",       // per-machine wall-clock net (0 = none)
//!         "stage_deadline_secs",        // per-stage deadline (0 = none)
//!     ]
//! );
//! ```
//!
//! # Optimizing the BIST plan
//!
//! [`Synthesis::optimize_plan`] searches LFSR seed and polynomial
//! candidates for each block and truncates the winner to the shortest
//! session reaching the configured coverage target (default 100%), so the
//! two test sessions apply as few patterns as the fault population
//! requires instead of the fixed budget.  The search order is
//! deterministic, the reported coverage is re-checkable with
//! [`bist::measure_optimized_plan`], and when the target is unreachable
//! within the length budget the artifact carries SCOAP-ranked test-point
//! suggestions (`docs/COVERAGE.md`):
//!
//! ```
//! use stc::Synthesis;
//!
//! let machine = stc::fsm::paper_example();
//! let session = Synthesis::builder().patterns_per_session(64).build();
//! let decomposition = session.decompose_only(&machine);
//! let encoded = session.encode(&decomposition).unwrap();
//! let netlist = session.synthesize_logic(&encoded);
//! let plan = session.plan_bist(&netlist);
//!
//! let optimized = session.optimize_plan(&plan);
//! let target = optimized.result.target;
//! assert!(optimized.result.coverage() >= target);
//! assert!(optimized.result.total_length() <= optimized.baseline_length);
//! assert!(optimized.test_points.is_empty()); // 100% reached: no suggestions
//! ```
//!
//! # Observer events
//!
//! An [`Observer`] attached via [`SynthesisBuilder::observer`] receives
//! the full event vocabulary of [`Event`]: `StageStarted` /
//! `StageFinished` (stage names from the [`pipeline::Stage::ALL`] table;
//! each `StageFinished` carries the stage's wall-clock `elapsed`, timed
//! once by the session), `SolverProgress`, `IncumbentImproved`,
//! `BudgetExhausted`, `OptimizeCandidate` / `OptimizeIncumbent` (the plan
//! optimizer's search progress) and `MachineFinished` — and may request
//! cooperative cancellation via `should_cancel`.  Events are a side
//! channel: attaching an observer never changes report bytes.
//!
//! ```
//! use stc::pipeline::Stage;
//! use stc::{Event, Observer, Synthesis};
//! use std::sync::{Arc, Mutex};
//! use std::time::Duration;
//!
//! #[derive(Default)]
//! struct Trace(Mutex<Vec<(&'static str, Duration)>>);
//! impl Observer for Trace {
//!     fn on_event(&self, event: &Event<'_>) {
//!         if let Event::StageFinished { stage, elapsed, .. } = event {
//!             self.0.lock().unwrap().push((stage, *elapsed));
//!         }
//!     }
//! }
//!
//! let trace = Arc::new(Trace::default());
//! let session = Synthesis::builder().observer(trace.clone()).build();
//! let corpus = stc::pipeline::filter_by_names(
//!     stc::pipeline::embedded_corpus(),
//!     &["tav".to_string()],
//! )
//! .unwrap();
//! session.run(&corpus[0]);
//! let stages: Vec<&str> = trace.0.lock().unwrap().iter().map(|(s, _)| *s).collect();
//! // The default flow runs the first four rows of the stage table, in order.
//! let table: Vec<&str> = Stage::ALL[..4].iter().map(|s| s.name()).collect();
//! assert_eq!(stages, table);
//! ```
//!
//! # The service layer
//!
//! [`pipeline::serve_with`] is the JSON-lines request loop behind
//! `stc serve` (requests in, responses out in request order, per-request
//! config overrides); [`pipeline::NetServer`] runs the same loop on each TCP
//! connection, with a shared content-addressed [`pipeline::ArtifactCache`]
//! (cache hits replay byte-identical responses) and
//! [`pipeline::ServeMetrics`] behind the in-protocol `stats` request.  The full protocol reference
//! is `docs/SERVE.md`; the architecture notes are `DESIGN.md` §9.
//!
//! ```
//! use stc::pipeline::{serve_with, CacheLimits};
//!
//! let input: &[u8] = b"{\"id\": 1, \"ping\": true}\n";
//! let mut output = Vec::new();
//! let stats = serve_with(
//!     input,
//!     &mut output,
//!     &stc::StcConfig::default(),
//!     Some(CacheLimits::default()),
//! )
//! .unwrap();
//! assert_eq!(stats.requests, 1);
//! assert!(String::from_utf8(output).unwrap().contains("\"pong\":true"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Mealy finite state machines, KISS2 parsing and the benchmark suite
/// (re-export of [`stc_fsm`]).
pub use stc_fsm as fsm;

/// Partition algebra and the Mm-lattice (re-export of [`stc_partition`]).
pub use stc_partition as partition;

/// The OSTR solver and Theorem 1 realizations (re-export of [`stc_synth`]).
pub use stc_synth as synth;

/// Binary codes and bit-level machine/pipeline views (re-export of
/// [`stc_encoding`]).
pub use stc_encoding as encoding;

/// Two-level logic synthesis and netlists (re-export of [`stc_logic`]).
pub use stc_logic as logic;

/// BIST registers, fault simulation and architecture comparison
/// (re-export of [`stc_bist`]).
pub use stc_bist as bist;

/// Static testability and structural analysis: FSM/netlist lints and SCOAP
/// metrics (re-export of [`stc_analyze`]).
pub use stc_analyze as analyze;

/// Codegen backends: `no_std` Rust controllers with a built-in two-session
/// self-test, and structural Verilog with a BIST wrapper (re-export of
/// [`stc_emit`]).
pub use stc_emit as emit;

/// The corpus-level batch-synthesis pipeline, parallel runner and reports
/// (re-export of [`stc_pipeline`]).
pub use stc_pipeline as pipeline;

// The session API at the crate root: the primary public surface.
// (`stc_pipeline::Netlist`, the logic artifact, is reachable as
// `stc::pipeline::Netlist`; the root keeps `stc::logic::Netlist` for the
// gate-level type.)
pub use stc_pipeline::{
    BistPlan, CancelFlag, ConfigError, CoverageReport, Decomposition, EmittedCode, Encoded, Event,
    NullObserver, Observer, OptimizedPlan, SessionError, StcConfig, Synthesis, SynthesisBuilder,
};

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use stc_analyze::{analyze_block, lint_kiss2, lint_machine, Diagnostic, Scoap, Severity};
    pub use stc_bist::{
        evaluate_architectures, pipeline_self_test, Architecture, ArchitectureOptions, Bilbo,
        BilboMode, Lfsr,
    };
    pub use stc_encoding::{EncodedMachine, EncodedPipeline};
    pub use stc_fsm::{kiss2, state_equivalence, Mealy, MealyBuilder};
    pub use stc_logic::{synthesize_controller, synthesize_pipeline, Netlist, SynthOptions};
    pub use stc_partition::{is_symmetric_pair, Partition};
    pub use stc_pipeline::{
        embedded_corpus, BistPlan, CancelFlag, Decomposition, Encoded, Event, Observer,
        OptimizedPlan, PipelineConfig, StcConfig, SuiteReport, SuiteRun, Synthesis,
        SynthesisBuilder,
    };
    pub use stc_synth::{solve, Cost, OstrSolver, PreparedOstr, Realization, SolverConfig};
}
