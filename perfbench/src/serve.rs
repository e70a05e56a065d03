//! `serve_mixed`: an open loop from one client process against a child
//! `stc serve --listen`.
//!
//! The untimed warm-up requests every embedded machine under each override
//! variant once, so in the timed phase those requests are cache hits
//! (reads); fresh inline KISS2 machines are misses and insertions (writes).
//! A seeded schedule at a fixed rate, well under one server thread's
//! capacity, goes over one connection, driven by the calling thread.  The
//! schedule is cut into segments; between segments the client waits until
//! nothing is in flight and runs the host probe.  Latency is
//! timed from each request's scheduled send time, so a stall also counts
//! against the requests queued behind it.
//!
//! Misses outnumber hits, so the median sits among the misses: a hit takes
//! well under a millisecond, mostly scheduler wake-ups, and its run-to-run
//! spread measured 44% where a synthesis-bound miss is steady.  Cache gains
//! show in `serve.hit_latency_p50_ms` of the traced run.

use crate::flow::{run_op, LayerCounts, TracedFlow};
use crate::oracle::{digest_hex, response_report, same_response};
use crate::probe::Probe;
use crate::setup::ServeChild;
use crate::trace::Tracer;
use crate::{num, Ctx, Rng, RunResult};
use stc_fsm::{kiss2, random_machine};
use stc_pipeline::{embedded_corpus, CorpusEntry, Json, Synthesis};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long before a send the connection thread stops sleeping and spins.
const SPIN: Duration = Duration::from_millis(1);
/// How long a segment may overrun its schedule before the run fails.
const GRACE: Duration = Duration::from_secs(30);
/// The server's connection limit: the workload's connection plus the short
/// untimed ones for stats and shutdown.
const MAX_CONNECTIONS: &str = "3";

/// One distinct request of the working set.
enum Key {
    /// An embedded machine under an override variant (index into the
    /// workload's `variants`; variant 0 has no overrides).
    Embedded { machine: String, variant: usize },
    /// A fresh inline machine.
    Inline { name: String, text: String },
}

struct Answer {
    k: usize,
    due: Instant,
    sent: Instant,
    recv: Instant,
    line: String,
}

/// The override variants of the workload, as (key, value) pairs.
fn variants(spec: &Json) -> Result<Vec<Vec<(String, String)>>, String> {
    spec.get("variants")
        .and_then(Json::as_array)
        .ok_or("serve_mixed needs 'variants'")?
        .iter()
        .map(|variant| match variant {
            Json::Object(pairs) => pairs
                .iter()
                .map(|(k, v)| {
                    let v = v.as_str().ok_or("variant values are strings")?;
                    Ok((k.clone(), v.to_string()))
                })
                .collect(),
            _ => Err("each variant is an object".to_string()),
        })
        .collect()
}

fn request_line(k: usize, key: &Key, variants: &[Vec<(String, String)>]) -> String {
    let mut fields = vec![("id".to_string(), Json::from_usize(k))];
    match key {
        Key::Embedded { machine, variant } => {
            fields.push(("machine".into(), Json::String(machine.clone())));
            if !variants[*variant].is_empty() {
                let overrides = variants[*variant]
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::String(v.clone())))
                    .collect();
                fields.push(("overrides".into(), Json::Object(overrides)));
            }
        }
        Key::Inline { name, text } => {
            fields.push(("kiss2".into(), Json::String(text.clone())));
            fields.push(("name".into(), Json::String(name.clone())));
        }
    }
    Json::Object(fields).to_compact()
}

/// The seeded schedule: the keys (embedded ones first, then one fresh
/// inline machine per miss) and the key each request asks for.  A fixed
/// share of the requests are hits, each on a uniformly drawn embedded key.
fn schedule(ctx: &Ctx, requests: usize, variants: usize) -> Result<(Vec<Key>, Vec<usize>), String> {
    let spec = &ctx.spec;
    let mut rng = Rng::new(ctx.seed);
    let inline = spec.get("inline").ok_or("serve_mixed needs 'inline'")?;
    let mut keys: Vec<Key> = Vec::new();
    for machine in stc_fsm::benchmarks::names() {
        for variant in 0..variants {
            keys.push(Key::Embedded {
                machine: machine.to_string(),
                variant,
            });
        }
    }
    let embedded = keys.len();
    let hits = (num(spec, "hit_frac")? * requests as f64).round() as usize;
    let mut is_hit: Vec<bool> = (0..requests).map(|k| k < hits).collect();
    rng.shuffle(&mut is_hit);
    let mut plan = Vec::with_capacity(requests);
    for hit in is_hit {
        if hit {
            plan.push(rng.below(embedded));
            continue;
        }
        let name = format!("inline_{}_{}", ctx.seed, keys.len() - embedded);
        let machine = random_machine(
            &name,
            num(inline, "states")? as usize,
            num(inline, "inputs")? as usize,
            num(inline, "outputs")? as usize,
            rng.next_u64(),
        );
        plan.push(keys.len());
        keys.push(Key::Inline {
            text: kiss2::write(&machine),
            name,
        });
    }
    Ok((keys, plan))
}

/// Drives the connection through one segment: sends each request at its due
/// time and reads the in-order responses as they arrive.
fn drive(
    stream: &mut TcpStream,
    requests: &[(usize, Instant, &str)],
) -> Result<Vec<Answer>, String> {
    let mut answers = Vec::with_capacity(requests.len());
    let mut pending: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let limit = requests.last().map_or_else(Instant::now, |r| r.1) + GRACE;
    let mut next = 0;
    while next < requests.len() || !pending.is_empty() {
        let now = Instant::now();
        let wait = if let Some((k, due, line)) = requests.get(next) {
            if now + SPIN >= *due {
                while Instant::now() < *due {
                    std::hint::spin_loop();
                }
                let sent = Instant::now();
                stream
                    .write_all(format!("{line}\n").as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                pending.push_back((*k, *due, sent));
                next += 1;
                continue;
            }
            *due - now - SPIN
        } else {
            Duration::from_millis(50)
        };
        if now > limit {
            return Err(format!("{} response(s) overdue", pending.len()));
        }
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        stream
            .set_read_timeout(Some(wait.max(Duration::from_micros(100))))
            .map_err(|e| e.to_string())?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                let recv = Instant::now();
                buffer.extend_from_slice(&chunk[..n]);
                while let Some(end) = buffer.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buffer.drain(..=end).collect();
                    let (k, due, sent) =
                        pending.pop_front().ok_or("a response nobody asked for")?;
                    answers.push(Answer {
                        k,
                        due,
                        sent,
                        recv,
                        line: String::from_utf8_lossy(&line).trim_end().to_string(),
                    });
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
    Ok(answers)
}

pub fn run(
    ctx: &Ctx,
    probe: &mut Probe,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> Result<RunResult, String> {
    let spec = &ctx.spec;
    let variants = variants(spec)?;
    let rate = num(spec, "rate_per_s")?;
    let segments = num(spec, "segments")? as usize;
    let slo_ms = num(spec, "slo_ms")?;
    let requests = (rate * ctx.seconds).round() as usize;
    let (keys, plan) = schedule(ctx, requests, variants.len())?;
    let embedded = stc_fsm::benchmarks::names().len() * variants.len();
    let lines: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(k, &key)| request_line(k, &keys[key], &variants))
        .collect();

    let mut args = vec![
        "--cache-size".to_string(),
        num(spec, "cache_size")?.to_string(),
        "--max-connections".into(),
        MAX_CONNECTIONS.into(),
    ];
    for (key, value) in crate::config_pairs(spec)? {
        args.push("--set".into());
        args.push(format!("{key}={value}"));
    }

    // Set-up: spawn to first pong, in several fresh servers; the last one
    // serves the workload.
    let mut result = RunResult::default();
    let repeats = num(spec, "setup_repeats")? as usize;
    let mut server = None;
    for _ in 0..repeats {
        if let Some(old) = server.take() {
            ServeChild::shutdown(old)?;
        }
        let (child, setup_s) = ServeChild::start(&ctx.stc, &args)?;
        result.setup_s.push(setup_s);
        server = Some(child);
    }
    let server = server.ok_or("setup_repeats must be at least 1")?;

    // Untimed warm-up: a ping, then every embedded key once, which makes
    // their timed requests cache hits.
    let mut first_line: Vec<Option<String>> = vec![None; keys.len()];
    let mut conn = server.connect()?;
    conn.roundtrip("{\"id\":-1,\"ping\":true}")?;
    for (index, key) in keys.iter().enumerate().take(embedded) {
        first_line[index] = Some(conn.roundtrip(&request_line(0, key, &variants))?);
    }
    let mut stream = conn.into_stream();

    let mut answers: Vec<Answer> = Vec::with_capacity(requests);
    let mut factors: Vec<f64> = Vec::with_capacity(requests);
    let per_segment = requests.div_ceil(segments);
    // The segments' spans from first due send to last response: the time
    // the schedule actually took, longer than planned if a backlog built.
    let mut schedule_s = 0.0;
    let mut before = probe.sample();
    for (segment, chunk) in lines.chunks(per_segment).enumerate() {
        let first = segment * per_segment;
        let start = Instant::now() + Duration::from_millis(2);
        let due: Vec<(usize, Instant, &str)> = chunk
            .iter()
            .enumerate()
            .map(|(offset, line)| {
                let at = start + Duration::from_secs_f64(offset as f64 / rate);
                (first + offset, at, line.as_str())
            })
            .collect();
        let segment_answers = drive(&mut stream, &due)?;
        let after = probe.sample();
        let factor = 2.0 * ctx.k_ref_ms / (before + after);
        before = after;
        let end = segment_answers
            .iter()
            .map(|a| a.recv)
            .fold(start, Instant::max);
        schedule_s += end.duration_since(start).as_secs_f64();
        factors.extend(std::iter::repeat_n(factor, segment_answers.len()));
        answers.extend(segment_answers);
    }
    drop(stream);

    // Untimed: the server's own counters and memory, then shutdown.
    let stats = server.connect()?.roundtrip("{\"id\":-2,\"stats\":true}")?;
    result.serve_stats = Json::parse(&stats)
        .ok()
        .and_then(|s| s.get("stats").cloned());
    result.peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;

    // The oracle, untimed: check each key's first response once, and every
    // repeat against it byte for byte.
    for answer in &answers {
        first_line[plan[answer.k]].get_or_insert_with(|| answer.line.clone());
    }
    let corpus = tracer.span("fsm.suite_build", 0, embedded_corpus);
    let mut content_ok = vec![false; keys.len()];
    for (index, key) in keys.iter().enumerate() {
        let Some(line) = &first_line[index] else {
            continue;
        };
        let Ok(report) = response_report(line) else {
            continue;
        };
        content_ok[index] = match key {
            Key::Embedded {
                machine,
                variant: 0,
            } => ctx
                .expected
                .get("embedded_flow")
                .and_then(|e| e.get(machine))
                .and_then(|d| d.get("digest"))
                .and_then(Json::as_str)
                .is_some_and(|want| want == digest_hex(&report)),
            Key::Embedded { machine, variant } => {
                let session = crate::session_with(spec, &variants[*variant])?;
                let entry = corpus
                    .iter()
                    .find(|e| e.name() == machine)
                    .ok_or_else(|| format!("no embedded machine {machine}"))?;
                matches_in_process(
                    ctx,
                    &session,
                    entry,
                    &report,
                    index,
                    tracer,
                    counts,
                    &mut result,
                )
            }
            Key::Inline { name, text } => {
                let session = crate::session_with(spec, &[])?;
                let entry = tracer
                    .span("fsm.kiss2_parse", index as u64, || kiss2::parse(text, name))
                    .map(CorpusEntry::external)
                    .map_err(|e| format!("{name}: {e}"))?;
                matches_in_process(
                    ctx,
                    &session,
                    &entry,
                    &report,
                    index,
                    tracer,
                    counts,
                    &mut result,
                )
            }
        };
        if content_ok[index] {
            result.distinct_reports.push(report);
        }
    }

    for (answer, factor) in answers.iter().zip(factors) {
        let key = plan[answer.k];
        let first = first_line[key].as_deref().unwrap_or_default();
        let ok = result.tally.record(if !content_ok[key] {
            Err(format!("request {}: wrong report for key {key}", answer.k))
        } else if !same_response(first, &answer.line) {
            Err(format!(
                "request {}: repeat differs from the first response",
                answer.k
            ))
        } else {
            Ok(())
        });
        let latency_ms = answer.recv.duration_since(answer.due).as_secs_f64() * 1e3;
        result.latencies_ms.push(latency_ms);
        result.norm_latencies_ms.push(latency_ms * factor);
        result
            .lag_ms
            .push(answer.sent.duration_since(answer.due).as_secs_f64() * 1e3);
        if key < embedded {
            result.hit_ms.push(latency_ms);
        } else {
            result.miss_ms.push(latency_ms);
        }
        if ok && latency_ms * factor <= slo_ms {
            result.slo_met += 1;
        }
        if ctx.trace {
            tracer.record("serve.request", answer.k as u64, answer.due, answer.recv);
        }
    }
    for _ in answers.len()..requests {
        result
            .tally
            .record(Err("request without a response".to_string()));
    }
    result.goodput_ops_s = (result.tally.attempted - result.tally.failed) as f64 / schedule_s;
    Ok(result)
}

/// Whether a served report equals the one an in-process `Synthesis::run`
/// gives for the same input.  The traced run runs the input twice, untraced
/// and then traced, and both must match: the misses then also yield
/// per-layer numbers, and the pair gives the tracing overhead.
#[allow(clippy::too_many_arguments)]
fn matches_in_process(
    ctx: &Ctx,
    session: &Synthesis,
    entry: &CorpusEntry,
    served: &str,
    op: usize,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
    result: &mut RunResult,
) -> bool {
    let start = Instant::now();
    let (_, json) = run_op(session, entry);
    if !ctx.trace {
        return json == served;
    }
    result.untraced_s += start.elapsed().as_secs_f64();
    let (_, traced, traced_s) = TracedFlow::new(session).run(entry, tracer, op as u64, counts);
    result.traced_s += traced_s;
    json == served && traced == served
}
