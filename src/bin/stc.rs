//! The `stc` command-line interface: batch synthesis of self-testable
//! controllers over a corpus, and a long-lived JSON-lines service.
//!
//! * `stc run` — drive the full flow (OSTR solve → encode → logic → BIST,
//!   plus the exact fault-coverage stage with `--coverage`) over the
//!   embedded benchmark suite or a directory of KISS2 files, in parallel,
//!   and emit a deterministic JSON report.
//! * `stc coverage` — the same flow with the coverage stage forced on,
//!   emitting the focused per-machine measured-coverage JSON.
//! * `stc optimize` — the flow with the plan-optimizer stage forced on,
//!   emitting the focused per-machine optimized-plan JSON (LFSR seed and
//!   polynomial per session, minimal session lengths, and — when the target
//!   is unreachable — SCOAP-ranked test-point suggestions).
//! * `stc lint` — the flow with the static-analysis stage forced on,
//!   emitting the focused per-machine lint/testability JSON (FSM lints,
//!   netlist structure checks, SCOAP hard-to-test nets); non-zero exit when
//!   any finding reaches error severity (`--deny` promotes codes).
//! * `stc emit` — the flow with the code-emission stage forced on, printing
//!   the per-machine module digests as JSON and (with `--out DIR`) writing
//!   the generated sources: allocation-free `no_std` Rust controllers with a
//!   built-in two-session self-test, or structural Verilog with a BIST
//!   wrapper (`--target rust|verilog`; see docs/EMIT.md).
//! * `stc serve` — serve one-machine synthesis requests over
//!   stdin/stdout (one JSON request per line, one JSON response per line).
//! * `stc list` — list the machines of a corpus.
//!
//! All commands layer configuration the same way: crate defaults, then an
//! optional `--profile` file, then individual flags — the `stc::Synthesis`
//! session's `StcConfig` layers.  See the README for the JSON report schema.

#![forbid(unsafe_code)]

use stc::analyze::Severity;
use stc::pipeline::{
    coverage_json, embedded_corpus, emit_json, filter_by_names, format_summary_table, kiss2_corpus,
    lint_json, optimize_json, search_stats_json, serve_with, CacheLimits, CorpusEntry, Event, Json,
    NetOptions, NetServer, Observer, PipelineError, Stage, StcConfig, SuiteReport, SuiteRun,
    Synthesis,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
stc — synthesis of self-testable controllers (Hellebrand & Wunderlich, EURO-DAC '94)

USAGE:
    stc run [OPTIONS]            run the batch pipeline and print a JSON report
    stc coverage [OPTIONS]       run the pipeline with the exact fault-coverage
                                 stage and print the per-machine coverage JSON
    stc optimize [OPTIONS]       run the pipeline with the BIST plan optimizer
                                 and print the per-machine optimized-plan JSON
                                 (shortest LFSR source reaching the coverage
                                 target; see docs/COVERAGE.md)
    stc lint [OPTIONS]           run the pipeline with the static-analysis stage
                                 and print the per-machine lint/testability JSON;
                                 exit 1 if any finding reaches error severity
    stc emit [OPTIONS]           run the pipeline with the code-emission stage
                                 and print the per-machine module-digest JSON;
                                 --out DIR also writes the generated sources
                                 (no_std Rust with a built-in self-test, or
                                 Verilog with a BIST wrapper; see docs/EMIT.md)
    stc serve [OPTIONS]          serve synthesis requests over stdin/stdout, or
                                 over TCP with --listen (JSON lines; see
                                 docs/SERVE.md for the full protocol)
    stc list [OPTIONS]           list the machines of the selected corpus
    stc help                     print this message

CORPUS OPTIONS (run, coverage, optimize, lint, emit, list):
    --suite embedded             the embedded 13-machine benchmark suite (default)
    --kiss2 <DIR>                load every *.kiss2 / *.kiss file of a directory
    --machine <NAME>             restrict to the named machine (repeatable)

CONFIG OPTIONS (run, serve; layered over --profile, which layers over defaults):
    --profile <FILE>             a TOML-style profile ([section] + key = value
                                 lines; full key list at the bottom)
    --jobs <N>                   corpus-runner worker threads (0 = auto-detect,
                                 the default; any value gives the same output)
    --solver-jobs <N>            threads for the OSTR solver's parallel subtree
                                 exploration per machine (default 1; any value
                                 produces byte-identical results)
    --no-bnb                     disable the solver's branch-and-bound pruning
                                 (changes search statistics, not the reported
                                 solution; tie corner: DESIGN.md §5)
    --max-nodes <N>              OSTR solver node budget per machine (default 100000)
    --patterns <N>               BIST patterns per self-test session (default 256)
    --gate-states <N>            max |S| for the gate-level stages (default 10)
    --gate-inputs <N>            max input-alphabet size for gate level (default 16)
    --no-minimize                skip two-level minimisation
    --timeout-secs <S>           per-machine wall-clock safety net, checked between
                                 stages (0 = off, the default; using it can make
                                 reports depend on machine speed)
    --stage-deadline-secs <S>    per-stage wall-clock deadline (default: off; the
                                 solve stage honours it by cooperative cancellation)
    --set <KEY=VALUE>            any dotted config key (e.g. bist.patterns=64),
                                 repeatable — the full key list is at the bottom

RUN OPTIONS:
    --coverage                   measure exact single-stuck-at coverage of each
                                 machine's BIST plan (bit-parallel fault
                                 simulation of the plan's own stimuli); adds
                                 bist.measured_coverage / bist.undetected_faults
                                 to the report
    --optimize                   search LFSR seed / polynomial candidates for a
                                 shorter two-session plan reaching the coverage
                                 target; adds an optimize section to each
                                 machine report
    --lint                       run the static-analysis stage (FSM lints,
                                 netlist structure checks, SCOAP metrics); adds
                                 an analysis section to each machine report
    --emit                       run the code-emission stage; adds an emit
                                 digest section (module, file, bytes, FNV-1a)
                                 to each machine report
    --progress                   live per-stage / solver-progress events on stderr
    --out <FILE>                 write the JSON report to FILE instead of stdout
    --stats-out <FILE>           also write the per-machine search-effort stats
                                 (the CI search-stats gate artefact) to FILE

COVERAGE OPTIONS (corpus + config options also apply):
    --out <FILE>                 write the coverage JSON to FILE instead of stdout
    --max-patterns <N>           cap patterns per session in the measurement
                                 (0 = the plan's full budget, the default)

OPTIMIZE OPTIONS (corpus + config options also apply):
    --out <FILE>                 write the optimize JSON to FILE instead of stdout
    --target <F>                 coverage target as a fraction in (0, 1]
                                 (default 1.0)
    --max-candidates <N>         pattern sources tried per block (default 16)
    --max-total-length <N>       budget for the summed session lengths
                                 (0 = 2 x bist.patterns, the default)

LINT OPTIONS (corpus + config options also apply):
    --out <FILE>                 write the lint JSON to FILE instead of stdout
    --deny <CODE[,CODE…]>        promote diagnostic codes to error severity
                                 (repeatable; same as --set analysis.deny=…)

EMIT OPTIONS (corpus + config options also apply):
    --target <T>                 codegen backend: rust (default) or verilog
                                 (same as --set emit.target=…)
    --module-name <NAME>         module-name override, sanitised to an
                                 identifier (default: the machine name)
    --out <DIR>                  also write the generated source files into DIR
                                 (one .rs or .v file per gate-level machine);
                                 the digest JSON still goes to stdout

SERVE OPTIONS (config options also apply):
    --listen <ADDR>              serve over TCP at ADDR (e.g. 127.0.0.1:7878;
                                 port 0 picks an ephemeral port, logged on
                                 stderr) instead of stdin/stdout; one
                                 JSON-lines conversation per connection
    --cache-size <N>             artifact-cache entry bound (default 256;
                                 0 disables the cache)
    --cache-bytes <N>            artifact-cache payload bound in bytes
                                 (default 67108864 = 64 MiB; 0 disables)
    --max-connections <N>        simultaneous TCP connections; extra clients
                                 get one error line and are disconnected
                                 (default 64; --listen only)

The JSON report contains no wall-clock values: for a fixed corpus and options
it is byte-identical for any --jobs / --solver-jobs value, so CI diffs it
against a golden file.  Timings and --progress events go to stderr.
";

/// The full help text: the static usage plus the dotted config-key table
/// generated from [`stc::pipeline::CONFIG_KEYS`], so the list printed here
/// can never drift from what `--set`, profile files and serve-request
/// overrides actually accept.
fn usage() -> String {
    let mut out = String::from(USAGE);
    out.push_str("\nCONFIG KEYS (--set, --profile files, serve-request overrides):\n");
    for (key, help) in stc::pipeline::CONFIG_KEYS {
        out.push_str(&format!("    {key:<28} {help}\n"));
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match FLOW_COMMANDS.iter().find(|c| c.name == command) {
        Some(flow) => cmd_flow(flow, rest),
        None => match command.as_str() {
            "serve" => cmd_serve(rest),
            "list" => cmd_list(rest),
            "help" | "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown command '{other}'\n");
                eprint!("{}", usage());
                return ExitCode::from(2);
            }
        },
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// Shared corpus selection flags of `run` and `list`.
struct CorpusArgs {
    suite: String,
    kiss2: Option<PathBuf>,
    machines: Vec<String>,
}

impl CorpusArgs {
    fn new() -> Self {
        Self {
            suite: "embedded".into(),
            kiss2: None,
            machines: Vec::new(),
        }
    }

    fn load(&self) -> Result<(String, Vec<CorpusEntry>), String> {
        let (label, corpus) = match &self.kiss2 {
            Some(dir) => (
                dir.display().to_string(),
                kiss2_corpus(dir).map_err(|e| e.to_string())?,
            ),
            None => {
                if self.suite != "embedded" {
                    return Err(format!(
                        "unknown suite '{}' (only 'embedded' is built in; use --kiss2 for \
                         external corpora)",
                        self.suite
                    ));
                }
                ("embedded".to_string(), embedded_corpus())
            }
        };
        let corpus = if self.machines.is_empty() {
            corpus
        } else {
            filter_by_names(corpus, &self.machines).map_err(|e| e.to_string())?
        };
        Ok((label, corpus))
    }
}

/// Pulls the value of a `--flag VALUE` pair out of the argument stream.
fn take_value<'a>(
    flag: &str,
    iter: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, String> {
    iter.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: invalid value '{text}'"))
}

fn parse_corpus_flag(
    flag: &str,
    iter: &mut std::slice::Iter<'_, String>,
    corpus: &mut CorpusArgs,
) -> Result<bool, String> {
    match flag {
        "--suite" => corpus.suite = take_value(flag, iter)?.clone(),
        "--kiss2" => corpus.kiss2 = Some(PathBuf::from(take_value(flag, iter)?)),
        "--machine" => corpus.machines.push(take_value(flag, iter)?.clone()),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Flags shared by `run` and `serve` that layer onto the session
/// configuration.  Collected as `(key, value)` overrides so the layering
/// order (defaults < profile < flags) holds no matter where `--profile`
/// appears on the command line.
struct ConfigArgs {
    profile: Option<PathBuf>,
    overrides: Vec<(String, String)>,
}

impl ConfigArgs {
    fn new() -> Self {
        Self {
            profile: None,
            overrides: Vec::new(),
        }
    }

    /// Tries to consume one config flag; `Ok(false)` means the flag is not a
    /// config flag.
    fn parse_flag(
        &mut self,
        flag: &str,
        iter: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        let mut push = |key: &str, value: String| {
            self.overrides.push((key.to_string(), value));
        };
        match flag {
            "--profile" => self.profile = Some(PathBuf::from(take_value(flag, iter)?)),
            "--jobs" => push("jobs", take_value(flag, iter)?.clone()),
            "--solver-jobs" => push("solver.jobs", take_value(flag, iter)?.clone()),
            "--no-bnb" => push("solver.branch_and_bound", "false".into()),
            "--max-nodes" => push("solver.max_nodes", take_value(flag, iter)?.clone()),
            "--patterns" => push("bist.patterns", take_value(flag, iter)?.clone()),
            "--gate-states" => push("gate_level.max_states", take_value(flag, iter)?.clone()),
            "--gate-inputs" => push("gate_level.max_inputs", take_value(flag, iter)?.clone()),
            "--no-minimize" => push("synth.minimize", "false".into()),
            "--timeout-secs" => push("machine_timeout_secs", take_value(flag, iter)?.clone()),
            "--stage-deadline-secs" => {
                push("stage_deadline_secs", take_value(flag, iter)?.clone());
            }
            "--set" => {
                let pair = take_value(flag, iter)?;
                let (key, value) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects KEY=VALUE, got '{pair}'"))?;
                push(key.trim(), value.trim().to_string());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the effective configuration: defaults < profile < flags.
    fn build(&self) -> Result<StcConfig, String> {
        let mut config = StcConfig::default();
        if let Some(path) = &self.profile {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read profile {}: {e}", path.display()))?;
            config
                .apply_profile(&text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        for (key, value) in &self.overrides {
            config.set(key, value).map_err(|e| e.to_string())?;
        }
        Ok(config)
    }
}

/// The `--progress` observer: one line per event on stderr, timestamped
/// relative to the start of the run.  Purely a side channel — the JSON
/// report is unaffected.
struct ProgressObserver {
    start: Instant,
}

impl ProgressObserver {
    fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    fn line(&self, machine: &str, what: &str) {
        eprintln!(
            "[{:9.3}s] {:<10} {what}",
            self.start.elapsed().as_secs_f64(),
            machine
        );
    }
}

impl Observer for ProgressObserver {
    fn on_event(&self, event: &Event<'_>) {
        match event {
            Event::StageStarted { machine, stage } => self.line(machine, &format!("{stage} …")),
            Event::StageFinished {
                machine,
                stage,
                elapsed,
            } => self.line(
                machine,
                &format!("{stage} ok ({:.3} ms)", elapsed.as_secs_f64() * 1e3),
            ),
            Event::SolverProgress { machine, nodes } => {
                self.line(machine, &format!("solve {nodes} nodes"));
            }
            Event::IncumbentImproved {
                machine,
                register_bits,
            } => self.line(machine, &format!("incumbent {register_bits} register bits")),
            Event::BudgetExhausted { machine } => self.line(machine, "solve budget exhausted"),
            Event::OptimizeCandidate {
                machine,
                block,
                candidate,
                length,
                coverage,
            } => {
                let reach = match length {
                    Some(length) => format!("length {length}"),
                    None => format!("coverage {coverage:.3}"),
                };
                self.line(machine, &format!("optimize {block} #{candidate}: {reach}"));
            }
            Event::OptimizeIncumbent {
                machine,
                block,
                candidate,
                length,
            } => self.line(
                machine,
                &format!("optimize {block} incumbent #{candidate}: length {length}"),
            ),
            Event::MachineFinished { machine, status } => {
                self.line(machine, &format!("finished: {status}"));
            }
        }
    }
}

/// A flow command: a suite run that prints one projection of its report.
/// `stc run` and the four stage commands are the rows of [`FLOW_COMMANDS`]
/// and share [`cmd_flow`].
struct FlowCommand {
    /// The subcommand name; for a stage row also the `stc run --<name>`
    /// switch enabling its stage.
    name: &'static str,
    /// The optional stage the command forces on; `None` for `stc run`.
    stage: Option<Stage>,
    /// Command flags taking a value, each layered onto its config key in
    /// command-line order (like `--set`).
    flags: &'static [(&'static str, &'static str)],
    /// A repeatable flag whose values are comma-joined onto its config key
    /// after every other layer.
    joined: Option<(&'static str, &'static str)>,
    /// The document printed on stdout (or written to `--out FILE`).
    project: fn(&SuiteReport) -> Json,
    /// What happens after the run besides printing the projection.
    epilogue: Epilogue,
}

/// The command-specific tail of [`cmd_flow`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Epilogue {
    /// The summary table on stderr; `stc run` adds the cpu-time line and
    /// `--stats-out`.
    Summary,
    /// The finding counts on stderr; exit 1 when any finding reaches error
    /// severity.
    LintGate,
    /// The summary table on stderr; `--out DIR` receives the run's
    /// generated sources while the digest JSON always goes to stdout.
    WriteSources,
}

const FLOW_COMMANDS: [FlowCommand; 5] = [
    FlowCommand {
        name: "run",
        stage: None,
        flags: &[],
        joined: None,
        project: SuiteReport::to_json,
        epilogue: Epilogue::Summary,
    },
    FlowCommand {
        name: "coverage",
        stage: Some(Stage::Coverage),
        flags: &[("--max-patterns", "coverage.max_patterns")],
        joined: None,
        project: coverage_json,
        epilogue: Epilogue::Summary,
    },
    FlowCommand {
        name: "optimize",
        stage: Some(Stage::Optimize),
        flags: &[
            ("--target", "coverage.optimize.target"),
            ("--max-candidates", "coverage.optimize.max_candidates"),
            ("--max-total-length", "coverage.optimize.max_total_length"),
        ],
        joined: None,
        project: optimize_json,
        epilogue: Epilogue::Summary,
    },
    FlowCommand {
        name: "lint",
        stage: Some(Stage::Analyze),
        flags: &[],
        joined: Some(("--deny", "analysis.deny")),
        project: lint_json,
        epilogue: Epilogue::LintGate,
    },
    FlowCommand {
        name: "emit",
        stage: Some(Stage::Emit),
        flags: &[
            ("--target", "emit.target"),
            ("--module-name", "emit.module_name"),
        ],
        joined: None,
        project: emit_json,
        epilogue: Epilogue::WriteSources,
    },
];

/// Runs one [`FLOW_COMMANDS`] row: parse its flags, layer the config, run
/// the suite, print the projection and finish with the row's epilogue.
fn cmd_flow(command: &FlowCommand, args: &[String]) -> Result<ExitCode, String> {
    let mut corpus_args = CorpusArgs::new();
    let mut config_args = ConfigArgs::new();
    let mut joined: Vec<String> = Vec::new();
    let mut out: Option<PathBuf> = None;
    let mut stats_out: Option<PathBuf> = None;
    let mut progress = false;
    let unknown = |flag: &str| format!("unknown flag '{flag}' for 'stc {}'", command.name);

    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if parse_corpus_flag(flag, &mut iter, &mut corpus_args)?
            || config_args.parse_flag(flag, &mut iter)?
        {
            continue;
        }
        if flag == "--out" {
            out = Some(PathBuf::from(take_value(flag, &mut iter)?));
        } else if let Some((_, key)) = command.flags.iter().find(|(f, _)| f == flag) {
            let value = take_value(flag, &mut iter)?.clone();
            config_args.overrides.push(((*key).to_string(), value));
        } else if command.joined.is_some_and(|(f, _)| f == flag) {
            joined.push(take_value(flag, &mut iter)?.clone());
        } else if command.stage.is_some() {
            return Err(unknown(flag));
        } else if flag == "--progress" {
            progress = true;
        } else if flag == "--stats-out" {
            stats_out = Some(PathBuf::from(take_value(flag, &mut iter)?));
        } else {
            // `stc run --<stage command>` enables that command's stage.
            let key = FLOW_COMMANDS
                .iter()
                .find(|c| flag.strip_prefix("--") == Some(c.name))
                .and_then(|c| c.stage?.enable_key())
                .ok_or_else(|| unknown(flag))?;
            config_args.overrides.push((key.into(), "true".into()));
        }
    }
    let mut config = config_args.build()?;
    if let Some(key) = command.stage.and_then(Stage::enable_key) {
        config.set(key, "true").map_err(|e| e.to_string())?;
    }
    if let Some((_, key)) = command.joined.filter(|_| !joined.is_empty()) {
        config
            .set(key, &joined.join(","))
            .map_err(|e| e.to_string())?;
    }
    let jobs = config.resolve_jobs();

    let (label, corpus) = corpus_args.load()?;
    if corpus.is_empty() {
        return Err(PipelineError::EmptyCorpus(label).to_string());
    }
    // The resolved worker count is logged, never echoed into the report.
    eprintln!(
        "stc {}: {} machines from '{label}', {jobs} worker(s){}",
        command.name,
        corpus.len(),
        if config.jobs == 0 { " [auto]" } else { "" }
    );

    let mut builder = Synthesis::builder().config(config);
    if progress {
        builder = builder.observer(Arc::new(ProgressObserver::new()));
    }
    let SuiteRun { report, timings } = builder.build().run_suite(&corpus, &label);

    let mut code = ExitCode::SUCCESS;
    match command.epilogue {
        Epilogue::Summary | Epilogue::WriteSources => eprint!("{}", format_summary_table(&report)),
        Epilogue::LintGate => {
            let errors = report.count_findings(Severity::Error);
            let warnings = report.count_findings(Severity::Warning) - errors;
            eprintln!("stc lint: {errors} error(s), {warnings} warning(s)");
            if errors > 0 {
                code = ExitCode::FAILURE;
            }
        }
    }
    if command.stage.is_none() {
        let total: std::time::Duration = timings.iter().map(|t| t.elapsed).sum();
        if let Some(slowest) = timings.iter().max_by_key(|t| t.elapsed) {
            eprintln!(
                "cpu time {:.1}s total, slowest machine '{}' at {:.1}s",
                total.as_secs_f64(),
                slowest.name,
                slowest.elapsed.as_secs_f64()
            );
        }
    }
    if let Some(path) = stats_out {
        write_file(&path, &search_stats_json(&report).to_pretty())?;
    }
    if command.epilogue == Epilogue::WriteSources {
        if let Some(dir) = out.take() {
            write_sources(&report, &dir)?;
        }
    }
    let json = (command.project)(&report).to_pretty();
    match out {
        Some(path) => write_file(&path, &json)?,
        None => print!("{json}"),
    }
    Ok(code)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `stc emit --out DIR`: writes the modules the run just generated into
/// `dir`.
fn write_sources(report: &SuiteReport, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let mut written = 0usize;
    for machine in &report.machines {
        let Some(emit) = &machine.emit else {
            // Solve-only machines have no netlist to compile, and a flow
            // stopped early never reached emit; the status says which.
            let status = machine.status.as_json_str();
            eprintln!("stc emit: {}: skipped ({status})", machine.name);
            continue;
        };
        for module in &emit.modules {
            write_file(&dir.join(&module.file), &module.source)?;
            written += 1;
        }
    }
    eprintln!("stc emit: wrote {written} module(s) to {}", dir.display());
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let default_limits = CacheLimits::default();
    let mut config_args = ConfigArgs::new();
    let mut listen: Option<String> = None;
    let mut cache_size = default_limits.max_entries;
    let mut cache_bytes = default_limits.max_bytes;
    let mut max_connections = NetOptions::default().max_connections;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if config_args.parse_flag(flag, &mut iter)? {
            continue;
        }
        match flag.as_str() {
            "--listen" => listen = Some(take_value(flag, &mut iter)?.clone()),
            "--cache-size" => cache_size = parse_number(flag, take_value(flag, &mut iter)?)?,
            "--cache-bytes" => cache_bytes = parse_number(flag, take_value(flag, &mut iter)?)?,
            "--max-connections" => {
                max_connections = parse_number(flag, take_value(flag, &mut iter)?)?;
            }
            other => return Err(format!("unknown flag '{other}' for 'stc serve'")),
        }
    }
    let config = config_args.build()?;
    let cache = (cache_size > 0 && cache_bytes > 0).then_some(CacheLimits {
        max_entries: cache_size,
        max_bytes: cache_bytes,
    });
    let cache_label = match cache {
        Some(limits) => format!(
            "cache {} entries / {} bytes",
            limits.max_entries, limits.max_bytes
        ),
        None => "cache off".to_string(),
    };

    let stats = if let Some(addr) = listen {
        let options = NetOptions {
            max_connections,
            cache,
        };
        let server = NetServer::bind(addr.as_str(), &config, options)
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
        let local = server
            .local_addr()
            .map_err(|e| format!("cannot resolve listen address: {e}"))?;
        // Tests and scripts parse this line to discover an ephemeral port.
        eprintln!(
            "stc serve: listening on {local}, up to {max_connections} connection(s), \
             {cache_label} — send {{\"shutdown\":true}} or Ctrl-C to stop"
        );
        server.run().map_err(|e| format!("serve I/O error: {e}"))?
    } else {
        eprintln!(
            "stc serve: ready on stdin/stdout, {cache_label} — one JSON request per line, \
             answered in order"
        );
        serve_with(
            std::io::stdin().lock(),
            std::io::stdout().lock(),
            &config,
            cache,
        )
        .map_err(|e| format!("serve I/O error: {e}"))?
    };
    eprintln!(
        "stc serve: done, {} request(s), {} error response(s)",
        stats.requests, stats.errors
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_list(args: &[String]) -> Result<ExitCode, String> {
    let mut corpus_args = CorpusArgs::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if !parse_corpus_flag(flag, &mut iter, &mut corpus_args)? {
            return Err(format!("unknown flag '{flag}' for 'stc list'"));
        }
    }
    let (label, corpus) = corpus_args.load()?;
    println!("corpus '{label}': {} machines", corpus.len());
    for entry in &corpus {
        println!(
            "  {:<12} |S|={:<4} inputs={:<4} outputs={:<3}{}",
            entry.name(),
            entry.machine.num_states(),
            entry.machine.num_inputs(),
            entry.machine.num_outputs(),
            if entry.table1.is_some() {
                "  [paper Table 1]"
            } else {
                ""
            }
        );
    }
    Ok(ExitCode::SUCCESS)
}
