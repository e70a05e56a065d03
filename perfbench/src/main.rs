//! `perfbench`: the end-to-end and per-layer benchmark of the stc flow.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --stc PATH
//! perfbench --record --stc PATH        # re-record expected.json
//! perfbench --setup-sample --workload NAME --seed N  # one set-up sample
//! ```
//!
//! `run.py` builds this package and the `stc` binary, then runs it.  The
//! last line of standard output is the result object; the line before it
//! carries the raw (not host-normalized) values and the probe time.  See
//! `README.md` for the workloads and metrics.

mod closed;
mod flow;
mod oracle;
mod probe;
mod serve;
mod setup;
mod stats;
mod trace;

use oracle::Tally;
use stats::{median, percentile};
use stc_pipeline::{Json, StcConfig, Synthesis};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// What a run knows about its workload.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub stc: PathBuf,
    /// The directory holding `workloads.json` and `expected.json`.
    pub bench_dir: PathBuf,
    /// The workload's entry of `workloads.json`.
    pub spec: Json,
    /// `expected.json`.
    pub expected: Json,
    /// K_ref: the probe time that defines reference host speed.
    pub k_ref_ms: f64,
}

/// What a workload measured, before normalization.
#[derive(Default)]
pub struct RunResult {
    pub tally: Tally,
    pub latencies_ms: Vec<f64>,
    /// The same latencies at reference host speed.
    pub norm_latencies_ms: Vec<f64>,
    /// Closed loops: the summed op time, raw and at reference speed.
    pub busy_s: f64,
    pub norm_busy_s: f64,
    /// Open loop: correct responses per second of the schedule as run.
    pub goodput_ops_s: f64,
    pub slo_met: u64,
    /// Set-up times of fresh processes, normalized with the run's median
    /// probe time: they ran in other processes, so no probe brackets them.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// The compact report JSON of each distinct input, for the
    /// quality-of-result totals.
    pub distinct_reports: Vec<String>,
    pub traced_s: f64,
    pub untraced_s: f64,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub lag_ms: Vec<f64>,
    pub serve_stats: Option<Json>,
}

/// A small seeded generator (SplitMix64): the benchmark's inputs and
/// orders are a pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5bd1_e995_0bad_cafe)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A number field of a JSON object.
pub fn num(spec: &Json, key: &str) -> Result<f64, String> {
    spec.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

/// The workload's pinned config keys, in file order.
pub fn config_pairs(spec: &Json) -> Result<Vec<(String, String)>, String> {
    match spec.get("config") {
        Some(Json::Object(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .map(|v| (k.clone(), v.to_string()))
                    .ok_or_else(|| format!("config value of '{k}' must be a string"))
            })
            .collect(),
        _ => Err("missing 'config' object".into()),
    }
}

/// A session with the workload's pinned keys, then `extra` keys layered
/// over them.
pub fn session_with(spec: &Json, extra: &[(String, String)]) -> Result<Synthesis, String> {
    let mut config = StcConfig::default();
    for (key, value) in config_pairs(spec)?.iter().chain(extra) {
        config.set(key, value).map_err(|e| e.to_string())?;
    }
    Ok(Synthesis::builder().config(config).build())
}

/// A closed-loop workload's session: the seed becomes the solver's steal
/// seed (scheduling only; the results are the same for every seed).
pub fn session_from(spec: &Json, seed: u64) -> Result<Synthesis, String> {
    session_with(spec, &[("solver.steal_seed".into(), seed.to_string())])
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
    setup_sample: bool,
    stc: PathBuf,
    bench_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 20.0,
        trace: false,
        record: false,
        setup_sample: false,
        stc: PathBuf::from("stc"),
        bench_dir: PathBuf::from("perfbench"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        if flag == "--setup-sample" {
            args.setup_sample = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--stc" => args.stc = PathBuf::from(value),
            "--bench-dir" => args.bench_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let settings = read_json(&args.bench_dir.join("workloads.json"))?;
    let k_ref_ms = num(&settings, "k_ref_ms")?;
    let make_ctx = |workload: &str, expected: Json| -> Result<Ctx, String> {
        let spec = settings
            .get("workloads")
            .and_then(|w| w.get(workload))
            .cloned()
            .ok_or_else(|| format!("unknown workload '{workload}'"))?;
        Ok(Ctx {
            workload: workload.to_string(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            stc: args.stc.clone(),
            bench_dir: args.bench_dir.clone(),
            spec,
            expected,
            k_ref_ms,
        })
    };

    if args.record {
        let mut sections = Vec::new();
        for workload in ["embedded_flow", "bist_heavy", "solver_scale"] {
            let ctx = make_ctx(workload, Json::Null)?;
            let inputs = closed::generate(&ctx)?;
            let entries = closed::load(&inputs, &mut trace::Tracer::new(Instant::now()))?;
            sections.push((
                workload.to_string(),
                closed::record(&session_from(&ctx.spec, 0)?, &entries),
            ));
        }
        print!("{}", Json::Object(sections).to_pretty());
        return Ok(());
    }

    let workload = args.workload.clone().ok_or("--workload is required")?;
    if args.setup_sample {
        let ctx = make_ctx(&workload, Json::Null)?;
        let closed::Inputs::Kiss2(texts) = closed::generate(&ctx)? else {
            return Err(format!("{workload} has no in-process set-up sample"));
        };
        println!("{}", closed::setup_sample(&ctx, &texts)?);
        return Ok(());
    }
    let ctx = make_ctx(&workload, read_json(&args.bench_dir.join("expected.json"))?)?;
    let (detail, result) = run_workload(&ctx)?;
    println!("{}", detail.to_compact());
    println!("{}", result.to_compact());
    Ok(())
}

fn run_workload(ctx: &Ctx) -> Result<(Json, Json), String> {
    let mut probe = probe::Probe::new();
    let origin = Instant::now();
    let mut tracer = trace::Tracer::new(origin);
    let mut counts = flow::LayerCounts::default();
    let result = if ctx.workload == "serve_mixed" {
        serve::run(ctx, &mut probe, &mut tracer, &mut counts)?
    } else {
        let inputs = closed::generate(ctx)?;
        let entries = closed::load(&inputs, &mut tracer)?;
        let ops = closed::oracles(ctx, &inputs, entries)?;
        let session = session_from(&ctx.spec, ctx.seed)?;
        let setup_s = closed::measure_setup(ctx, &inputs)?;
        let mut result = closed::run(ctx, &session, &ops, &mut probe, &mut tracer, &mut counts)?;
        result.setup_s = setup_s;
        result.peak_rss_mb = setup::peak_rss_mb("/proc/self/status")?;
        result
    };
    for failure in &result.tally.failures {
        eprintln!("perfbench: oracle: {failure}");
    }

    let k_run = probe.median_ms();
    let factor = ctx.k_ref_ms / k_run;
    let tail = num(&ctx.spec, "tail_percentile")?;
    let mut out = Metrics::new(factor);
    if ctx.trace {
        per_layer(&mut out, &result, &tracer, &counts, k_run);
        write_trace(ctx, &tracer, &out)?;
    } else {
        end_to_end(&mut out, ctx, &result, tail)?;
    }
    let detail = Json::Object(vec![
        ("workload".into(), Json::String(ctx.workload.clone())),
        ("seed".into(), Json::from_u64(ctx.seed)),
        ("host.probe_ms".into(), Json::Number(k_run)),
        ("probe_samples".into(), Json::from_usize(probe.samples())),
        ("ops".into(), Json::from_usize(result.latencies_ms.len())),
        ("tail_percentile".into(), Json::Number(tail)),
        (
            "latency_max_ms".into(),
            Json::Number(percentile(&result.norm_latencies_ms, 100.0)),
        ),
        ("slo_ms".into(), Json::Number(num(&ctx.spec, "slo_ms")?)),
        (
            "samples_beyond_tail".into(),
            Json::from_usize(stats::samples_beyond(&result.latencies_ms, tail)),
        ),
        ("raw".into(), Json::Object(out.raw.clone())),
    ]);
    let line = Json::Object(vec![
        ("correct".into(), Json::Bool(result.tally.failed == 0)),
        ("attempted".into(), Json::from_u64(result.tally.attempted)),
        ("failed".into(), Json::from_u64(result.tally.failed)),
        ("metrics".into(), Json::Object(out.metrics)),
    ]);
    Ok((Json::Object(vec![("detail".into(), detail)]), line))
}

/// How a metric scales with host speed, for metrics normalized with the
/// run's median probe time K_run (set-up and the per-layer ones).
#[derive(Clone, Copy)]
enum Kind {
    /// A duration: reported as raw × K_ref / K_run.
    Duration,
    /// A rate per unit time: reported as raw × K_run / K_ref.
    Rate,
    /// A count or ratio: reported as measured.
    Plain,
}

struct Metrics {
    factor: f64,
    metrics: Vec<(String, Json)>,
    raw: Vec<(String, Json)>,
}

impl Metrics {
    fn new(factor: f64) -> Self {
        Self {
            factor,
            metrics: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// A metric normalized sample by sample, with its raw counterpart.
    fn measured(&mut self, name: &str, unit: &str, value: f64, raw: f64) {
        self.raw.push((name.to_string(), Json::Number(raw)));
        self.metric(name, unit, value);
    }

    fn metric(&mut self, name: &str, unit: &str, value: f64) {
        self.metrics.push((
            name.to_string(),
            Json::Object(vec![
                ("value".into(), Json::Number(value)),
                ("unit".into(), Json::String(unit.to_string())),
            ]),
        ));
    }

    /// A metric normalized with the run's median probe time.
    fn push(&mut self, name: &str, unit: &str, kind: Kind, raw: f64) {
        let value = match kind {
            Kind::Duration => raw * self.factor,
            Kind::Rate => raw / self.factor,
            Kind::Plain => raw,
        };
        if !matches!(kind, Kind::Plain) {
            self.raw.push((name.to_string(), Json::Number(raw)));
        }
        self.metric(name, unit, value);
    }
}

fn end_to_end(out: &mut Metrics, ctx: &Ctx, r: &RunResult, tail: f64) -> Result<(), String> {
    let attempted = r.tally.attempted.max(1) as f64;
    let correct = (r.tally.attempted - r.tally.failed) as f64;
    out.push("setup_s", "s", Kind::Duration, median(&r.setup_s));
    if ctx.workload == "serve_mixed" {
        // Goodput on a fixed schedule is set by the schedule's rate, not by
        // host speed, so it is not normalized.
        out.push("throughput_ops_s", "ops/s", Kind::Plain, r.goodput_ops_s);
    } else {
        let (norm, raw) = (correct / r.norm_busy_s, correct / r.busy_s);
        out.measured("throughput_ops_s", "ops/s", norm, raw);
    }
    let (norm, raw) = (&r.norm_latencies_ms, &r.latencies_ms);
    out.measured(
        "latency_p50_ms",
        "ms",
        percentile(norm, 50.0),
        percentile(raw, 50.0),
    );
    out.measured(
        "latency_tail_ms",
        "ms",
        percentile(norm, tail),
        percentile(raw, tail),
    );
    out.push("success_frac", "ratio", Kind::Plain, r.tally.success_frac());
    out.push(
        "slo_met_frac",
        "ratio",
        Kind::Plain,
        r.slo_met as f64 / attempted,
    );
    out.push("peak_rss_mb", "MiB", Kind::Plain, r.peak_rss_mb);
    let field = |report: &Json, section: &str, key: &str| {
        report
            .get(section)
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
    };
    let reports: Vec<Json> = r
        .distinct_reports
        .iter()
        .map(|text| Json::parse(text).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let total = |section: &str, key: &str| -> f64 {
        reports.iter().filter_map(|j| field(j, section, key)).sum()
    };
    let coverages: Vec<f64> = reports
        .iter()
        .filter_map(|j| field(j, "bist", "measured_coverage"))
        .collect();
    out.push(
        "register_bits_total",
        "bits",
        Kind::Plain,
        total("solve", "pipeline_ff"),
    );
    out.push("gates_total", "gates", Kind::Plain, total("logic", "gates"));
    out.push(
        "test_length_total",
        "patterns",
        Kind::Plain,
        total("optimize", "total_length"),
    );
    out.push(
        "fault_coverage_mean",
        "ratio",
        Kind::Plain,
        coverages.iter().sum::<f64>() / coverages.len().max(1) as f64,
    );
    Ok(())
}

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.  A layer
/// a workload does not exercise reports 0.
fn per_layer(
    out: &mut Metrics,
    r: &RunResult,
    tracer: &trace::Tracer,
    counts: &flow::LayerCounts,
    k_run: f64,
) {
    let busy = tracer.self_ms();
    let total = |name: &str| busy.get(name).copied().unwrap_or(0.0);
    let ops = counts.ops.max(1) as f64;
    let per_op = |name: &str| total(name) / ops;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    use Kind::{Duration, Plain, Rate};
    out.push(
        "fsm.suite_build_ms",
        "ms",
        Duration,
        total("fsm.suite_build"),
    );
    out.push(
        "fsm.kiss2_parse_ms",
        "ms",
        Duration,
        total("fsm.kiss2_parse"),
    );
    out.push(
        "partition.basis_ms",
        "ms",
        Duration,
        per_op("partition.basis"),
    );
    out.push("core.search_ms", "ms", Duration, per_op("core.search"));
    out.push(
        "core.realize_verify_ms",
        "ms",
        Duration,
        per_op("core.realize_verify"),
    );
    out.push("core.nodes", "count", Plain, counts.nodes as f64 / ops);
    let search_s = total("core.search") / 1e3;
    out.push(
        "core.nodes_per_s",
        "1/s",
        Rate,
        ratio(counts.nodes as f64, search_s),
    );
    let visited = (counts.nodes + counts.pruned) as f64;
    out.push(
        "core.pruned_frac",
        "ratio",
        Plain,
        ratio(counts.pruned as f64, visited),
    );
    out.push("encoding.busy_ms", "ms", Duration, per_op("encoding"));
    out.push("logic.busy_ms", "ms", Duration, per_op("logic"));
    out.push(
        "logic.literals",
        "count",
        Plain,
        counts.literals as f64 / ops,
    );
    out.push("analyze.busy_ms", "ms", Duration, per_op("analyze"));
    out.push("bist.session_ms", "ms", Duration, per_op("bist.session"));
    let fault_patterns = counts.fault_patterns as f64;
    out.push(
        "bist.session_fault_patterns",
        "count",
        Plain,
        fault_patterns / ops,
    );
    let session_s = total("bist.session") / 1e3;
    out.push(
        "bist.session_mfp_s",
        "Mfp/s",
        Rate,
        ratio(fault_patterns / 1e6, session_s),
    );
    out.push("bist.coverage_ms", "ms", Duration, per_op("bist.coverage"));
    out.push("bist.optimize_ms", "ms", Duration, per_op("bist.optimize"));
    let candidates = counts.optimize_candidates as f64;
    out.push("bist.optimize_candidates", "count", Plain, candidates / ops);
    out.push("emit.busy_ms", "ms", Duration, per_op("emit"));
    out.push("emit.bytes", "bytes", Plain, counts.emit_bytes as f64 / ops);
    out.push(
        "pipeline.report_json_ms",
        "ms",
        Duration,
        per_op("pipeline.report_json"),
    );

    let stat = |path: &[&str]| {
        let mut node = r.serve_stats.as_ref();
        for key in path {
            node = node.and_then(|n| n.get(key));
        }
        node.and_then(Json::as_f64).unwrap_or(0.0)
    };
    let hits = stat(&["cache", "hits"]);
    let misses = stat(&["cache", "misses"]);
    out.push(
        "serve.cache_hit_frac",
        "ratio",
        Plain,
        ratio(hits, hits + misses),
    );
    out.push(
        "serve.cache_evictions",
        "count",
        Plain,
        stat(&["cache", "evictions"]),
    );
    out.push(
        "serve.hit_latency_p50_ms",
        "ms",
        Duration,
        percentile(&r.hit_ms, 50.0),
    );
    out.push(
        "serve.miss_latency_p50_ms",
        "ms",
        Duration,
        percentile(&r.miss_ms, 50.0),
    );
    out.push(
        "serve.mean_service_ms",
        "ms",
        Duration,
        stat(&["requests", "mean_service_ms"]),
    );
    out.push("serve.queue_peak", "count", Plain, stat(&["queue", "peak"]));
    for (stage, name) in [
        ("solve", "serve.stage.solve_mean_ms"),
        ("encode", "serve.stage.encode_mean_ms"),
        ("logic", "serve.stage.logic_mean_ms"),
        ("bist", "serve.stage.bist_mean_ms"),
        ("coverage", "serve.stage.coverage_mean_ms"),
        ("analyze", "serve.stage.analyze_mean_ms"),
    ] {
        out.push(name, "ms", Duration, stat(&["stages", stage, "mean_ms"]));
    }
    out.push(
        "serve.generator_lag_ms",
        "ms",
        Plain,
        percentile(&r.lag_ms, 99.0),
    );
    out.push("host.probe_ms", "ms", Plain, k_run);
    // Traced over untraced time of the same inputs, run back to back.
    let overhead = ratio(r.traced_s, r.untraced_s) - 1.0;
    out.push("trace.overhead_frac", "ratio", Plain, overhead);
}

/// Writes the traced run's spans (Chrome trace-event JSON, with the
/// per-layer aggregates under `otherData`) to `.bench_trace/`.
fn write_trace(ctx: &Ctx, tracer: &trace::Tracer, out: &Metrics) -> Result<(), String> {
    let dir = PathBuf::from(".bench_trace");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.json", ctx.workload, ctx.seed));
    let mut trace = tracer.chrome_json();
    if let Json::Object(fields) = &mut trace {
        let aggregates: BTreeMap<&str, &Json> = out
            .metrics
            .iter()
            .map(|(name, metric)| (name.as_str(), metric))
            .collect();
        fields.push((
            "otherData".into(),
            Json::Object(
                aggregates
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            ),
        ));
    }
    std::fs::write(&path, trace.to_compact()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: trace written to {}", path.display());
    Ok(())
}
