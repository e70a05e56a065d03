//! Corpus-level batch-synthesis pipeline for the `stc` workspace.
//!
//! The paper's evaluation is batch-shaped: Tables 1–2 run the OSTR
//! decomposition, state encoding and BIST flow over 13 IWLS'93 machines and
//! compare costs.  This crate drives that full flow over an entire corpus —
//! KISS2 files or the embedded benchmark suite — in parallel on a scoped
//! `std::thread` worker pool, and emits a deterministic, machine-readable
//! JSON report with paper-vs-measured columns (see `DESIGN.md` §3 at the
//! repository root).
//!
//! * [`Synthesis`] / [`SynthesisBuilder`] — the unified session API: one
//!   layered [`StcConfig`], typed artifacts ([`Decomposition`] → [`Encoded`]
//!   → [`Netlist`] → [`BistPlan`] → [`MachineReport`]), progress events and
//!   cooperative cancellation ([`Observer`]);
//! * [`embedded_corpus`] / [`kiss2_corpus`] — corpus loading;
//! * [`serve_with`] — the in-order JSON-lines request loop behind `stc serve`;
//! * [`NetServer`] — the TCP front end running the same loop per connection
//!   (`stc serve --listen`), with connection limits and graceful shutdown;
//! * [`ArtifactCache`] — the content-addressed response cache keyed by
//!   `(machine hash, config fingerprint)`;
//! * [`ServeMetrics`] — service counters behind the `stats` request and the
//!   periodic log line;
//! * [`SuiteReport`] — the deterministic report and its JSON serialisation;
//! * [`compare_benchmarks`] — the perf-baseline comparison behind the
//!   `stc bench-check` CI gate;
//! * [`Json`] — the minimal JSON value type used for emission and parsing;
//! * [`Stage`] — the ordered table of flow stages behind observer events,
//!   serve metrics and the `stc` commands.
//!
//! # Example
//!
//! ```
//! use stc_pipeline::{embedded_corpus, filter_by_names, Synthesis};
//!
//! let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
//! let serial = Synthesis::builder().jobs(1).build().run_suite(&corpus, "demo");
//! let parallel = Synthesis::builder().jobs(4).build().run_suite(&corpus, "demo");
//! assert_eq!(
//!     serial.report.to_json_string(),
//!     parallel.report.to_json_string()
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_compare;
pub mod cache;
mod config;
mod corpus;
mod error;
mod json;
mod metrics;
mod net;
mod observe;
mod report;
mod serve;
mod session;

pub use bench_compare::{
    compare_benchmarks, load_baseline_dir, parse_baseline, BenchCheck, BenchDelta, BenchMeasurement,
};
pub use cache::{ArtifactCache, CacheCounters, CacheLimits};
pub use config::{
    resolve_jobs, AnalysisSettings, ConfigError, CoverageConfig, EmitSettings, GateLevelLimits,
    OptimizeConfig, PipelineConfig, StcConfig, CONFIG_KEYS,
};
pub use corpus::{embedded_corpus, filter_by_names, kiss2_corpus, CorpusEntry};
pub use error::PipelineError;
pub use json::{Json, JsonError};
pub use metrics::ServeMetrics;
pub use net::{NetOptions, NetServer, ServerHandle};
pub use observe::{CancelFlag, Event, NullObserver, Observer};
pub use report::{
    coverage_json, emit_json, format_summary_table, lint_json, optimize_json, search_stats_json,
    AnalysisReport, BistReport, EmitModuleDigest, EmitReport, LogicReport, MachineReport,
    MachineStatus, OptimizeReport, OptimizeSessionReport, SolveReport, SuiteReport, SuiteSummary,
    TestPointSuggestion, REPORT_SCHEMA_VERSION,
};
pub use serve::{serve_with, ServeStats};
pub use session::{
    BistPlan, CoverageReport, Decomposition, EmittedCode, Encoded, MachineTiming, Netlist,
    OptimizedPlan, SessionError, Stage, SuiteRun, Synthesis, SynthesisBuilder,
};
pub use stc_emit::{EmitTarget, EmittedModule};
