//! The closed-loop workloads: one caller, the next op starts when the last
//! one has finished.  `embedded_flow`, `bist_heavy` and `solver_scale`
//! differ only in their inputs, their pinned configuration and how their
//! set-up is measured.

use crate::flow::{run_op, LayerCounts, TracedFlow};
use crate::oracle::Expect;
use crate::probe::{normalize, Probe};
use crate::setup::time_stc;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, Rng, RunResult};
use stc_fsm::{ceil_log2, kiss2, planted_decomposable, PlantedSpec};
use stc_pipeline::{embedded_corpus, CorpusEntry, Json, Synthesis};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// One distinct input of a workload and what its report must satisfy.
pub struct OpInput {
    pub entry: CorpusEntry,
    pub expect: Expect,
}

/// A machine the benchmark generated, as the KISS2 text the program reads.
pub struct Kiss2Input {
    pub name: String,
    pub text: String,
    /// For planted machines: `⌈log2 rows_used⌉ + ⌈log2 cols_used⌉` of the
    /// planted grid, an upper bound on the register bits.
    pub max_ff: Option<u32>,
}

/// The workload's inputs as the program receives them: either the embedded
/// suite, or KISS2 texts the benchmark generated.
pub enum Inputs {
    Embedded,
    Kiss2(Vec<Kiss2Input>),
}

/// Generates the inputs of a closed-loop workload.  Generation is the
/// benchmark's own work and is never timed.
pub fn generate(ctx: &Ctx) -> Result<Inputs, String> {
    match ctx.workload.as_str() {
        "embedded_flow" => Ok(Inputs::Embedded),
        "bist_heavy" => {
            let spec = ctx
                .spec
                .get("planted")
                .ok_or("bist_heavy needs 'planted'")?;
            let field = |key: &str| crate::num(spec, key).map(|v| v as usize);
            let seeds = spec
                .get("seeds")
                .and_then(Json::as_array)
                .ok_or("planted.seeds must be an array")?;
            seeds
                .iter()
                .enumerate()
                .map(|(i, seed)| {
                    let name = format!("heavy_{i:02}");
                    let (machine, info) = planted_decomposable(
                        &name,
                        PlantedSpec {
                            rows: field("rows")?,
                            cols: field("cols")?,
                            states: field("states")?,
                            inputs: field("inputs")?,
                            outputs: field("outputs")?,
                            map_pairs: field("map_pairs")?,
                            seed: seed.as_u64().ok_or("planted seeds are integers")?,
                            max_attempts: field("max_attempts")? as u32,
                        },
                    );
                    Ok(Kiss2Input {
                        text: kiss2::write(&machine),
                        name,
                        max_ff: Some(ceil_log2(info.rows_used) + ceil_log2(info.cols_used)),
                    })
                })
                .collect::<Result<Vec<_>, String>>()
                .map(Inputs::Kiss2)
        }
        "solver_scale" => {
            let tier = stc_bench::scale::scale_tiers()[0];
            let machine = stc_bench::scale::scale_machine(&tier);
            Ok(Inputs::Kiss2(vec![Kiss2Input {
                name: tier.name.to_string(),
                text: kiss2::write(&machine),
                max_ff: None,
            }]))
        }
        other => Err(format!("'{other}' is not a closed-loop workload")),
    }
}

/// Turns the inputs into corpus entries: the program's own input handling
/// (suite build or KISS2 parse), timed in the traced run.
pub fn load(inputs: &Inputs, tracer: &mut Tracer) -> Result<Vec<CorpusEntry>, String> {
    match inputs {
        Inputs::Embedded => Ok(tracer.span("fsm.suite_build", 0, embedded_corpus)),
        Inputs::Kiss2(texts) => tracer.span("fsm.kiss2_parse", 0, || parse(texts)),
    }
}

fn parse(texts: &[Kiss2Input]) -> Result<Vec<CorpusEntry>, String> {
    texts
        .iter()
        .map(|input| {
            kiss2::parse(&input.text, &input.name)
                .map(CorpusEntry::external)
                .map_err(|e| format!("{}: {e}", input.name))
        })
        .collect()
}

/// Pairs each entry with its oracle from `expected.json`.
pub fn oracles(
    ctx: &Ctx,
    inputs: &Inputs,
    entries: Vec<CorpusEntry>,
) -> Result<Vec<OpInput>, String> {
    let recorded = |name: &str, key: &str| {
        ctx.expected
            .get(&ctx.workload)
            .and_then(|e| e.get(name))
            .and_then(|d| d.get(key))
            .cloned()
            .ok_or_else(|| format!("expected.json lacks {}/{name}/{key}", ctx.workload))
    };
    entries
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            let digest = recorded(entry.name(), "digest")?
                .as_str()
                .ok_or("digests are strings")?
                .to_string();
            let count = |key: &str| {
                recorded(entry.name(), key)?
                    .as_u64()
                    .ok_or_else(|| format!("{key} is a count"))
            };
            let expect = match (ctx.workload.as_str(), inputs) {
                ("bist_heavy", Inputs::Kiss2(texts)) => Expect::Planted {
                    digest,
                    max_ff: texts[i].max_ff.ok_or("planted inputs carry their bound")?,
                },
                ("solver_scale", _) => Expect::Solver {
                    digest,
                    nodes: count("nodes_investigated")?,
                    pipeline_ff: count("pipeline_ff")? as u32,
                },
                _ => Expect::Digest(digest),
            };
            Ok(OpInput { entry, expect })
        })
        .collect()
}

/// Set-up times in seconds, one per fresh process.  `embedded_flow`: fresh
/// `stc list` processes, spawn to exit, since the embedded-suite build runs
/// once per process.  KISS2 workloads: fresh `perfbench --setup-sample`
/// processes, each reporting [`setup_sample`].  Timed in fresh `stc list
/// --kiss2` processes, these few milliseconds were mostly process start and
/// spread 31% between runs; a single process's in-process median spread
/// 30–38% between runs, so the median is taken over processes.
pub fn measure_setup(ctx: &Ctx, inputs: &Inputs) -> Result<Vec<f64>, String> {
    let repeats = crate::num(&ctx.spec, "setup_repeats")? as usize;
    match inputs {
        Inputs::Embedded => time_stc(&ctx.stc, &["list".to_string()], repeats),
        Inputs::Kiss2(_) => (0..repeats).map(|_| sample_in_fresh_process(ctx)).collect(),
    }
}

/// In-process repeats of the KISS2 set-up within one sampling process.
const SETUP_REPEATS_IN_PROCESS: usize = 21;

/// The median of in-process repeats of parsing the generated texts plus the
/// session build, in seconds.
pub fn setup_sample(ctx: &Ctx, texts: &[Kiss2Input]) -> Result<f64, String> {
    let times = (0..SETUP_REPEATS_IN_PROCESS)
        .map(|_| {
            let start = Instant::now();
            let entries = parse(texts)?;
            let session = crate::session_from(&ctx.spec, ctx.seed)?;
            std::hint::black_box((entries, session));
            Ok(start.elapsed().as_secs_f64())
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&times))
}

/// Runs this binary with `--setup-sample` and reads the seconds it prints.
/// The child generates the inputs itself, untimed.
fn sample_in_fresh_process(ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--setup-sample")
        .args(["--workload", &ctx.workload, "--seed", &ctx.seed.to_string()])
        .arg("--bench-dir")
        .arg(&ctx.bench_dir)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run a set-up sample: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up sample failed with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("set-up sample printed '{}': {e}", text.trim()))
}

/// Op time between two probes.  Each op is normalized with the probes just
/// before and after its group, so the normalization follows the host's speed
/// as it drifts within a run.
const PROBE_EVERY_S: f64 = 0.25;

/// Runs the closed loop for the run's seconds.  Every pass visits every
/// input once, in a seeded order; the probe runs after every quarter second
/// of ops.  The first pass always completes, so the quality-of-result totals
/// cover every input.
pub fn run(
    ctx: &Ctx,
    session: &Synthesis,
    inputs: &[OpInput],
    probe: &mut Probe,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<RunResult, String> {
    let mut rng = Rng::new(ctx.seed);
    let mut result = RunResult::default();
    let mut first_reports: Vec<Option<String>> = vec![None; inputs.len()];
    let slo_ms = crate::num(&ctx.spec, "slo_ms")?;
    let traced = ctx.trace.then(|| TracedFlow::new(session));

    // Untimed warm-up: lazy set-up and caches settle before timing.
    let _ = run_op(session, &inputs[0].entry);

    // The op times since the last probe, each with whether it was correct.
    let mut group: Vec<(f64, bool)> = Vec::new();
    let mut before = probe.sample();
    let mut flush = |group: &mut Vec<(f64, bool)>, result: &mut RunResult, probe: &mut Probe| {
        let after = probe.sample();
        let raw: Vec<f64> = group.iter().map(|&(ms, _)| ms).collect();
        let norm = normalize(&raw, ctx.k_ref_ms, before, after);
        for (&ms, &(_, ok)) in norm.iter().zip(group.iter()) {
            if ok && ms <= slo_ms {
                result.slo_met += 1;
            }
        }
        result.norm_busy_s += norm.iter().sum::<f64>() / 1e3;
        result.norm_latencies_ms.extend(norm);
        result.latencies_ms.extend(raw);
        group.clear();
        before = after;
    };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut op = 0u64;
    let mut group_s = 0.0;
    'passes: loop {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            if Instant::now() >= deadline && first_reports.iter().all(Option::is_some) {
                break 'passes;
            }
            let input = &inputs[i];
            let start = Instant::now();
            let (report, json) = run_op(session, &input.entry);
            let elapsed = start.elapsed().as_secs_f64();
            let ok = result.tally.record(input.expect.check(&report, &json));
            group.push((elapsed * 1e3, ok));
            group_s += elapsed;
            result.busy_s += elapsed;
            if let Some(traced) = &traced {
                // The same input again, traced, right after the untraced op:
                // the pair gives the tracing overhead.
                let start = Instant::now();
                let (report, json, traced_s) = traced.run(&input.entry, tracer, op, counts);
                result.traced_s += traced_s;
                result.untraced_s += elapsed;
                group_s += start.elapsed().as_secs_f64();
                result.tally.record(input.expect.check(&report, &json));
            }
            first_reports[i].get_or_insert(json);
            op += 1;
            if group_s >= PROBE_EVERY_S {
                flush(&mut group, &mut result, probe);
                group_s = 0.0;
            }
        }
    }
    if !group.is_empty() {
        flush(&mut group, &mut result, probe);
    }
    result.distinct_reports = first_reports.into_iter().flatten().collect();
    Ok(result)
}

/// Records the digests of a workload's inputs for `expected.json`.
pub fn record(session: &Synthesis, entries: &[CorpusEntry]) -> Json {
    Json::Object(
        entries
            .iter()
            .map(|entry| {
                let (report, json) = run_op(session, entry);
                let mut fields = vec![(
                    "digest".to_string(),
                    Json::String(crate::oracle::digest_hex(&json)),
                )];
                if let Some(solve) = &report.solve {
                    fields.push((
                        "nodes_investigated".into(),
                        Json::from_u64(solve.nodes_investigated),
                    ));
                    fields.push((
                        "pipeline_ff".into(),
                        Json::from_u64(u64::from(solve.pipeline_ff)),
                    ));
                }
                (entry.name().to_string(), Json::Object(fields))
            })
            .collect(),
    )
}
