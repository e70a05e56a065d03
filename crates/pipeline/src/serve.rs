//! The `stc serve` request loop: a long-lived JSON-lines service over any
//! reader/writer pair (the CLI wires it to stdin/stdout, or to TCP
//! connections via [`crate::NetServer`]).
//!
//! # Protocol
//!
//! One request per input line, one response per output line, both compact
//! JSON objects.  Requests:
//!
//! ```text
//! {"id": 1, "machine": "tav"}
//! {"id": 2, "machine": "tav", "overrides": {"solver.max_nodes": 5000}}
//! {"id": 3, "kiss2": ".i 1\n…", "name": "custom"}
//! {"id": 4, "ping": true}
//! {"id": 5, "stats": true}
//! ```
//!
//! * `id` — any JSON value, echoed verbatim in the response (absent → `null`);
//! * `machine` — a machine of the embedded benchmark suite, by name;
//! * `kiss2` (+ optional `name`) — an inline KISS2 machine instead;
//! * `overrides` — an object of dotted [`crate::StcConfig`] keys layered
//!   over the server's base configuration *for this request only* (the same
//!   mechanism as profile files and CLI flags); `jobs` sizes only the
//!   corpus runner and is rejected here;
//! * `"ping": true` — answered immediately with
//!   `{"id":…,"ok":true,"pong":true}` (any other `ping` value is ignored);
//! * `"stats": true` — answered with a [`crate::ServeMetrics`] snapshot:
//!   `{"id":…,"ok":true,"stats":{…}}` (same `true`-only rule as `ping`);
//! * `"shutdown": true` — acknowledged with
//!   `{"id":…,"ok":true,"shutdown":true}`, after which the conversation
//!   reads no further request (over TCP the whole server stops; see
//!   [`crate::NetServer`]).
//!
//! Successful responses carry the machine report and the effective
//! configuration that produced it:
//!
//! ```text
//! {"id":1,"ok":true,"machine":"tav","config":{…},"report":{…}}
//! ```
//!
//! failures carry `{"id":…,"ok":false,"error":"…"}` and the loop keeps
//! serving.  Stdin/stdout is one conversation and each TCP connection is
//! another; both run the same loop, which answers one request at a time,
//! **in request order**, and ends at EOF or after a shutdown request.  For
//! a fixed request, the `report` payload is deterministic: it contains no
//! wall-clock values.
//!
//! # Artifact cache
//!
//! With cache limits given, successful responses are memoized in a
//! content-addressed [`crate::ArtifactCache`] keyed by `(machine content
//! hash, hash of the effective-config echo)`.  A hit skips the solver and
//! replays the stored rendering — responses are **byte-identical** cache-on vs
//! cache-off (both paths splice the same fragments around the request's
//! `id`).  Requests whose effective configuration sets any wall-clock bound
//! bypass the cache (see [`crate::cache::cacheable`]).

use crate::cache::{cacheable, ArtifactCache, CacheKey, CachedSynthesis};
use crate::config::StcConfig;
use crate::corpus::{embedded_corpus, CorpusEntry};
use crate::json::Json;
use crate::metrics::ServeMetrics;
use crate::session::Synthesis;
use crate::CacheLimits;
use std::io::{BufRead, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters of one serve loop, for logging and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests read (well-formed or not).
    pub requests: u64,
    /// Responses with `"ok": false`.
    pub errors: u64,
}

/// The shared state of one serve loop: base configuration, the embedded
/// corpus, the optional artifact cache and the service metrics.  One context
/// outlives every conversation (for the network server, all connections).
pub(crate) struct ServeContext {
    base: StcConfig,
    corpus: Vec<CorpusEntry>,
    cache: Option<ArtifactCache>,
    metrics: Arc<ServeMetrics>,
}

/// A rendered response line plus its outcome flags.
struct Response {
    /// The compact-JSON response, without trailing newline.
    line: String,
    /// Whether the response carries `"ok": true`.
    ok: bool,
    /// Whether it acknowledges a shutdown request.
    shutdown: bool,
}

impl Response {
    fn ok(line: String) -> Self {
        Self {
            line,
            ok: true,
            shutdown: false,
        }
    }
}

impl ServeContext {
    pub(crate) fn new(base: StcConfig, cache: Option<CacheLimits>) -> Self {
        Self {
            base,
            corpus: embedded_corpus(),
            cache: cache.map(ArtifactCache::new),
            metrics: ServeMetrics::shared(),
        }
    }

    pub(crate) fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.metrics.requests(),
            errors: self.metrics.errors(),
        }
    }

    /// Parses and serves one request line; infallible (errors become error
    /// responses).  Updates the request/outcome/latency metrics.
    fn handle_line(&self, line: &str) -> Response {
        self.metrics.request_read();
        let started = Instant::now();
        let response = self.handle_request(line);
        let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics.request_served_in(elapsed);
        self.metrics.response(response.ok);
        response
    }

    fn handle_request(&self, line: &str) -> Response {
        let request = match Json::parse(line) {
            Ok(value @ Json::Object(_)) => value,
            Ok(_) => return error_response(Json::Null, "request must be a JSON object"),
            Err(e) => return error_response(Json::Null, &format!("malformed request: {e}")),
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);

        // Only `"ping": true` is a ping — a client that always serialises a
        // `ping: false` field must still get its machine served.  Same for
        // `stats` and `shutdown`.
        if request.get("shutdown") == Some(&Json::Bool(true)) {
            return Response {
                line: format!(
                    "{{\"id\":{},\"ok\":true,\"shutdown\":true}}",
                    id.to_compact()
                ),
                ok: true,
                shutdown: true,
            };
        }
        if request.get("ping") == Some(&Json::Bool(true)) {
            self.metrics.ping();
            return Response::ok(format!(
                "{{\"id\":{},\"ok\":true,\"pong\":true}}",
                id.to_compact()
            ));
        }
        if request.get("stats") == Some(&Json::Bool(true)) {
            self.metrics.stats_request();
            let snapshot = self.metrics.snapshot(self.cache.as_ref());
            return Response::ok(format!(
                "{{\"id\":{},\"ok\":true,\"stats\":{}}}",
                id.to_compact(),
                snapshot.to_compact()
            ));
        }

        // Layer the request's overrides over the server's base configuration.
        let mut config = self.base.clone();
        if let Some(overrides) = request.get("overrides") {
            let Json::Object(entries) = overrides else {
                return error_response(id, "'overrides' must be an object of dotted config keys");
            };
            for (key, value) in entries {
                if key == "jobs" {
                    // Each request runs exactly one machine, so a per-request
                    // 'jobs' would be silently ignored — reject it instead.
                    return error_response(
                        id,
                        "'jobs' sizes the corpus runner (stc run --jobs); a request runs one \
                         machine, so it cannot be overridden per request",
                    );
                }
                let value = match value {
                    Json::String(s) => s.clone(),
                    other => other.to_compact(),
                };
                if let Err(e) = config.set(key, &value) {
                    return error_response(id, &e.to_string());
                }
            }
        }

        let entry = match resolve_machine(&request, &self.corpus) {
            Ok(entry) => entry,
            Err(message) => return error_response(id, &message),
        };

        // The config echo is rendered once: it is the response's `config`
        // fragment and the config half of the cache key.  Only
        // configurations without wall-clock bounds are content-addressable
        // (their results are pure functions of the key).
        let config_json = config.to_json().to_compact();
        let cache_key = self
            .cache
            .as_ref()
            .filter(|_| cacheable(&config))
            .map(|cache| {
                let key = CacheKey {
                    machine: entry.machine.stable_hash(),
                    config: stc_fsm::fnv1a(config_json.as_bytes()),
                };
                (cache, key)
            });
        if let Some((cache, key)) = &cache_key {
            if let Some(hit) = cache.get(*key, entry.name(), &config_json) {
                return Response::ok(splice_ok(
                    &id,
                    &hit.machine_name,
                    &hit.config_json,
                    &hit.report_json,
                ));
            }
        }

        let session = Synthesis::builder()
            .config(config)
            .observer(self.metrics.clone())
            .build();
        let report = session.run(&entry);
        let rendered = CachedSynthesis {
            machine_name: report.name.clone(),
            config_json,
            report_json: report.to_json().to_compact(),
        };
        let line = splice_ok(
            &id,
            &rendered.machine_name,
            &rendered.config_json,
            &rendered.report_json,
        );
        if let Some((cache, key)) = cache_key {
            cache.insert(key, rendered);
        }
        Response::ok(line)
    }
}

/// Splices a success response from its rendered fragments.  Cold and cached
/// paths both go through here, which is what makes cached responses
/// byte-identical: the only varying part, the request `id`, is rendered the
/// same way on both.
fn splice_ok(id: &Json, machine_name: &str, config_json: &str, report_json: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":true,\"machine\":{},\"config\":{},\"report\":{}}}",
        id.to_compact(),
        Json::String(machine_name.to_string()).to_compact(),
        config_json,
        report_json
    )
}

/// Runs the serve loop over one reader/writer pair (the CLI passes
/// stdin/stdout), with an artifact cache when `cache` is given.
///
/// # Errors
///
/// Only I/O errors on `input`/`output` abort the loop; malformed requests
/// produce error *responses* and the loop continues.  A failed response
/// write (e.g. `EPIPE` because the client went away) stops the loop and is
/// returned — a response the client never got must not look like success.
pub fn serve_with<R: BufRead, W: Write>(
    input: R,
    output: W,
    base: &StcConfig,
    cache: Option<CacheLimits>,
) -> std::io::Result<ServeStats> {
    let context = ServeContext::new(base.clone(), cache);
    converse(&context, input, output, &AtomicBool::new(false))?;
    Ok(context.stats())
}

/// One JSON-lines conversation: reads a request line, writes and flushes its
/// response, and repeats until EOF, an I/O error, or `stop` is set.  A
/// shutdown request sets `stop`, so the loop ends after answering it.
///
/// Reads that time out (a socket's read timeout, set so that the loop polls
/// `stop`) are retried; the bytes of a partial line read before the timeout
/// stay buffered until its newline arrives.
pub(crate) fn converse<R: BufRead, W: Write>(
    context: &ServeContext,
    mut input: R,
    mut output: W,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut line = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // Raw bytes, not `read_line`: a timeout that splits a multi-byte
        // character would make `read_line` drop the partial line.
        match input.read_until(b'\n', &mut line) {
            Ok(0) => return Ok(()),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
        let request = String::from_utf8(std::mem::take(&mut line))
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
        let request = request.trim_end_matches(['\n', '\r']);
        if request.trim().is_empty() {
            continue;
        }
        let response = context.handle_line(request);
        if response.shutdown {
            stop.store(true, Ordering::Relaxed);
        }
        writeln!(output, "{}", response.line)?;
        output.flush()?;
    }
    Ok(())
}

fn error_response(id: Json, message: &str) -> Response {
    Response {
        line: Json::Object(vec![
            ("id".into(), id),
            ("ok".into(), Json::Bool(false)),
            ("error".into(), Json::String(message.to_string())),
        ])
        .to_compact(),
        ok: false,
        shutdown: false,
    }
}

/// Resolves the request's machine: an embedded-corpus name or inline KISS2.
fn resolve_machine(request: &Json, corpus: &[CorpusEntry]) -> Result<CorpusEntry, String> {
    match (request.get("machine"), request.get("kiss2")) {
        (Some(_), Some(_)) => Err("give either 'machine' or 'kiss2', not both".into()),
        (Some(Json::String(name)), None) => corpus
            .iter()
            .find(|e| e.name() == name)
            .cloned()
            .ok_or_else(|| crate::corpus::no_such_machine(name, corpus)),
        (Some(_), None) => Err("'machine' must be a string".into()),
        (None, Some(Json::String(text))) => {
            let name = match request.get("name") {
                Some(Json::String(name)) => name.clone(),
                Some(_) => return Err("'name' must be a string".into()),
                None => "machine".to_string(),
            };
            stc_fsm::kiss2::parse(text, &name)
                .map(CorpusEntry::external)
                .map_err(|e| format!("KISS2 parse error: {e}"))
        }
        (None, Some(_)) => Err("'kiss2' must be a string".into()),
        (None, None) => Err("request needs 'machine', 'kiss2', 'ping' or 'stats'".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> StcConfig {
        let mut config = StcConfig::default();
        // Keep the unit tests fast: a small budget and pattern count.
        config.set("solver.max_nodes", "10000").unwrap();
        config.set("solver.stop_at_lower_bound", "true").unwrap();
        config.set("bist.patterns", "16").unwrap();
        config
    }

    fn serve_lines(input: &str) -> (Vec<Json>, ServeStats) {
        serve_lines_with(input, None)
    }

    fn serve_lines_with(input: &str, cache: Option<CacheLimits>) -> (Vec<Json>, ServeStats) {
        let mut output = Vec::new();
        let stats = serve_with(input.as_bytes(), &mut output, &base(), cache).unwrap();
        let text = String::from_utf8(output).unwrap();
        let responses = text
            .lines()
            .map(|line| Json::parse(line).expect("every response line is valid JSON"))
            .collect();
        (responses, stats)
    }

    #[test]
    fn serves_an_embedded_machine_with_overrides() {
        let (responses, stats) = serve_lines(
            "{\"id\": 1, \"machine\": \"tav\", \"overrides\": {\"bist.patterns\": 8}}\n",
        );
        assert_eq!(
            stats,
            ServeStats {
                requests: 1,
                errors: 0
            }
        );
        let r = &responses[0];
        assert_eq!(r.get("id").unwrap().as_u64(), Some(1));
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(r.get("machine").unwrap().as_str(), Some("tav"));
        let report = r.get("report").unwrap();
        assert_eq!(report.get("status").unwrap().as_str(), Some("full"));
        let solve = report.get("solve").unwrap();
        assert_eq!(solve.get("pipeline_ff").unwrap().as_u64(), Some(2));
        // The effective config echoes the request override.
        let config = r.get("config").unwrap();
        assert_eq!(
            config.get("patterns_per_session").unwrap().as_u64(),
            Some(8)
        );
    }

    /// A per-request override switches an optional stage on for that
    /// request only: its report section and config echo appear in that
    /// response and in no other.
    #[test]
    fn per_request_stage_overrides_add_their_sections() {
        type Check = fn(&Json, &Json);
        let cases: [(&str, &[&str], &str, Check); 4] = [
            (
                r#"{"coverage.enabled": true}"#,
                &["bist", "measured_coverage"],
                "coverage_enabled",
                |report, _| {
                    // tav's plan is exhaustive for its 2-bit cones: complete.
                    let bist = report.get("bist").unwrap();
                    assert_eq!(bist.get("measured_coverage"), Some(&Json::Number(1.0)));
                    assert_eq!(bist.get("undetected_faults").unwrap().as_u64(), Some(0));
                },
            ),
            (
                r#"{"coverage.optimize.enabled": true, "coverage.optimize.max_candidates": "4"}"#,
                &["optimize"],
                "optimize_enabled",
                |report, config| {
                    let optimize = report.get("optimize").unwrap();
                    assert_eq!(optimize.get("target_reached"), Some(&Json::Bool(true)));
                    // tav's cones are small: the optimized plan is strictly
                    // shorter than the fixed two-session baseline.
                    let total = optimize.get("total_length").unwrap().as_u64().unwrap();
                    let baseline = optimize.get("baseline_length").unwrap().as_u64().unwrap();
                    assert!(total < baseline);
                    let candidates = config.get("optimize_max_candidates").unwrap();
                    assert_eq!(candidates.as_u64(), Some(4));
                },
            ),
            (
                r#"{"emit.enabled": true, "emit.target": "verilog"}"#,
                &["emit"],
                "emit_enabled",
                |report, config| {
                    let emit = report.get("emit").unwrap();
                    assert_eq!(emit.get("target").unwrap().as_str(), Some("verilog"));
                    let modules = emit.get("modules").unwrap().as_array().unwrap();
                    assert_eq!(modules.len(), 1);
                    assert_eq!(modules[0].get("file").unwrap().as_str(), Some("tav.v"));
                    assert!(modules[0].get("bytes").unwrap().as_u64().unwrap() > 0);
                    assert_eq!(config.get("emit_target").unwrap().as_str(), Some("verilog"));
                },
            ),
            (
                r#"{"analysis.enabled": true, "analysis.deny": "net-unused-input"}"#,
                &["analysis"],
                "analysis_enabled",
                |report, config| {
                    let analysis = report.get("analysis").unwrap();
                    let blocks = analysis.get("blocks").unwrap().as_array().unwrap();
                    assert_eq!(blocks.len(), 3, "C1, C2 and the output block");
                    let deny = config.get("analysis_deny").unwrap().as_array().unwrap();
                    assert_eq!(deny.len(), 1);
                    // tav's unused block inputs are promoted by the deny list.
                    let promoted = blocks.iter().any(|b| {
                        let diagnostics = b.get("diagnostics").unwrap().as_array().unwrap();
                        diagnostics.iter().any(|d| {
                            d.get("code").unwrap().as_str() == Some("net-unused-input")
                                && d.get("severity").unwrap().as_str() == Some("error")
                        })
                    });
                    assert!(promoted, "{blocks:?}");
                },
            ),
        ];
        for (overrides, section, echo, check) in cases {
            let (responses, stats) = serve_lines(&format!(
                "{{\"id\": 1, \"machine\": \"tav\", \"overrides\": {overrides}}}\n\
                     {{\"id\": 2, \"machine\": \"tav\"}}\n"
            ));
            assert_eq!(stats.errors, 0, "{overrides}");
            for r in &responses {
                let on = r.get("id").unwrap().as_u64() == Some(1);
                let report = r.get("report").unwrap();
                let config = r.get("config").unwrap();
                let found = section.iter().try_fold(report, |json, key| json.get(key));
                assert_eq!(found.is_some(), on, "{overrides}: {r:?}");
                assert_eq!(config.get(echo).is_some(), on, "{overrides}: {r:?}");
                if on {
                    assert_eq!(config.get(echo), Some(&Json::Bool(true)));
                    check(report, config);
                }
            }
        }
    }

    #[test]
    fn malformed_and_unknown_requests_get_error_responses_and_the_loop_continues() {
        let input = "not json\n\
                     {\"id\": \"a\", \"machine\": \"nope\"}\n\
                     {\"id\": 2, \"overrides\": {\"bad.key\": 1}, \"machine\": \"tav\"}\n\
                     {\"id\": 3, \"ping\": true}\n";
        let (responses, stats) = serve_lines(input);
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.errors, 3);
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(false)));
        let unknown = responses[1].get("error").unwrap().as_str().unwrap();
        assert!(
            unknown.contains("'nope'") && unknown.contains("tav"),
            "{unknown}"
        );
        let bad_key = responses[2].get("error").unwrap().as_str().unwrap();
        assert!(bad_key.contains("bad.key"), "{bad_key}");
        assert_eq!(responses[3].get("pong"), Some(&Json::Bool(true)));
    }

    /// A client that went away: every write fails.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_write_stops_the_loop_and_is_returned() {
        let input = "{\"ping\": true}\n".repeat(64);
        // The loop runs on its own thread so a hang fails the test instead
        // of stalling it.
        let (done, outcome) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || {
            let result = serve_with(input.as_bytes(), BrokenPipe, &base(), None);
            done.send(result).unwrap();
        });
        let result = outcome
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the serve loop returns after a write error");
        server.join().expect("the serve thread does not panic");
        let error = result.expect_err("a failed write is an error");
        assert_eq!(error.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn a_shutdown_request_is_acknowledged_and_ends_the_conversation() {
        let input = "{\"id\": 1, \"ping\": true}\n\
                     {\"id\":2,\"shutdown\":true}\n\
                     {\"id\": 3, \"ping\": true}\n";
        let mut output = Vec::new();
        let stats = serve_with(input.as_bytes(), &mut output, &base(), None).unwrap();
        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(lines[1], "{\"id\":2,\"ok\":true,\"shutdown\":true}");
        assert_eq!(
            stats,
            ServeStats {
                requests: 2,
                errors: 0
            }
        );
    }

    #[test]
    fn only_ping_true_pings_other_values_fall_through() {
        let input = "{\"id\": 1, \"machine\": \"tav\", \"ping\": false}\n\
                     {\"id\": 2, \"ping\": false}\n";
        let (responses, stats) = serve_lines(input);
        assert_eq!(stats.errors, 1);
        // `ping: false` plus a machine serves the machine…
        assert_eq!(responses[0].get("machine").unwrap().as_str(), Some("tav"));
        assert!(responses[0].get("pong").is_none());
        // …and on its own is an invalid request, not a pong.
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn a_per_request_jobs_override_is_rejected_not_ignored() {
        let (responses, stats) =
            serve_lines("{\"id\": 5, \"machine\": \"tav\", \"overrides\": {\"jobs\": 8}}\n");
        assert_eq!(stats.errors, 1);
        let error = responses[0].get("error").unwrap().as_str().unwrap();
        assert!(error.contains("corpus runner"), "{error}");
    }

    #[test]
    fn inline_kiss2_machines_are_served() {
        let kiss2 = ".i 1\\n.o 1\\n.s 2\\n.r a\\n0 a b 0\\n1 a a 1\\n0 b a 1\\n1 b b 0\\n";
        let (responses, stats) = serve_lines(&format!(
            "{{\"id\": 9, \"kiss2\": \"{kiss2}\", \"name\": \"toy\"}}\n\
             {{\"id\": 10, \"kiss2\": \"{kiss2}\"}}\n"
        ));
        assert_eq!(stats.errors, 0);
        assert_eq!(responses[0].get("machine").unwrap().as_str(), Some("toy"));
        // Without `name`, the machine is labelled `machine`.
        assert_eq!(
            responses[1].get("machine").unwrap().as_str(),
            Some("machine")
        );
        assert_eq!(
            responses[0]
                .get("report")
                .unwrap()
                .get("states")
                .unwrap()
                .as_u64(),
            Some(2)
        );
    }

    #[test]
    fn responses_come_back_in_request_order() {
        let input = "{\"id\": 0, \"machine\": \"tav\"}\n\
                     {\"id\": 1, \"ping\": true}\n\
                     not json\n\
                     {\"id\": 3, \"stats\": true}\n\
                     {\"id\": 4, \"machine\": \"mc\"}\n\
                     {\"id\": 5, \"ping\": true}\n";
        let (responses, stats) = serve_lines(input);
        assert_eq!(
            stats,
            ServeStats {
                requests: 6,
                errors: 1
            }
        );
        let ids: Vec<Json> = responses
            .iter()
            .map(|r| r.get("id").unwrap().clone())
            .collect();
        let expected = [0, 1, 2, 3, 4, 5].map(|i| {
            if i == 2 {
                Json::Null
            } else {
                Json::from_u64(i)
            }
        });
        assert_eq!(ids, expected);
        assert_eq!(responses[0].get("machine").unwrap().as_str(), Some("tav"));
        assert_eq!(responses[2].get("ok"), Some(&Json::Bool(false)));
        assert!(responses[3].get("stats").is_some());
        assert_eq!(responses[4].get("machine").unwrap().as_str(), Some("mc"));
    }

    #[test]
    fn stats_requests_answer_a_metrics_snapshot() {
        let input =
            "{\"id\": 1, \"machine\": \"tav\", \"overrides\": {\"analysis.enabled\": \"true\"}}\n\
                     {\"id\": 2, \"stats\": true}\n\
                     {\"id\": 3, \"stats\": false}\n";
        let (responses, stats) = serve_lines_with(input, Some(CacheLimits::default()));
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.errors, 1, "stats:false alone is an invalid request");
        let snapshot = responses[1].get("stats").expect("stats section");
        let requests = snapshot.get("requests").unwrap();
        assert_eq!(requests.get("read").unwrap().as_u64(), Some(2));
        assert_eq!(
            snapshot.get("cache").unwrap().get("enabled"),
            Some(&Json::Bool(true))
        );
        let stages = snapshot.get("stages").unwrap();
        assert_eq!(
            stages.get("solve").unwrap().get("count").unwrap().as_u64(),
            Some(1),
            "the stage timer saw the one cold synthesis"
        );
        assert_eq!(
            stages
                .get("analyze")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1),
            "one request brackets its analysis once"
        );
        assert_eq!(responses[2].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn cached_responses_are_byte_identical_to_cold_ones() {
        let input = "{\"id\": 1, \"machine\": \"tav\"}\n";
        let repeated = input.repeat(3);
        let mut cold_output = Vec::new();
        serve_with(repeated.as_bytes(), &mut cold_output, &base(), None).unwrap();
        let mut cached_output = Vec::new();
        let cache = Some(CacheLimits::default());
        serve_with(repeated.as_bytes(), &mut cached_output, &base(), cache).unwrap();
        assert_eq!(
            String::from_utf8(cold_output).unwrap(),
            String::from_utf8(cached_output).unwrap()
        );
    }

    #[test]
    fn cache_hits_skip_the_solver() {
        let context = ServeContext::new(base(), Some(CacheLimits::default()));
        let request = "{\"id\": 1, \"machine\": \"tav\"}";
        let cold = context.handle_line(request);
        let warm = context.handle_line(request);
        assert_eq!(cold.line, warm.line);
        let counters = context.cache.as_ref().unwrap().counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
        // The solver ran exactly once: the stage timer counted one solve.
        let stages = context.metrics().snapshot(context.cache.as_ref());
        let solve = stages.get("stages").unwrap().get("solve").unwrap();
        assert_eq!(solve.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn wall_clock_bounded_requests_bypass_the_cache() {
        let context = ServeContext::new(base(), Some(CacheLimits::default()));
        let request =
            "{\"id\": 1, \"machine\": \"tav\", \"overrides\": {\"machine_timeout_secs\": 3600}}";
        let first = context.handle_line(request);
        let second = context.handle_line(request);
        assert_eq!(first.line, second.line, "generous timeout never fires");
        let counters = context.cache.as_ref().unwrap().counters();
        assert_eq!(counters.hits, 0);
        assert_eq!(counters.misses, 0, "the cache was never consulted");
        assert_eq!(counters.insertions, 0);
    }

    #[test]
    fn override_and_base_requests_cache_separately() {
        let context = ServeContext::new(base(), Some(CacheLimits::default()));
        let plain = context.handle_line("{\"id\": 1, \"machine\": \"tav\"}");
        let with_override = context.handle_line(
            "{\"id\": 1, \"machine\": \"tav\", \"overrides\": {\"bist.patterns\": 8}}",
        );
        assert_ne!(plain.line, with_override.line);
        assert_eq!(context.cache.as_ref().unwrap().counters().insertions, 2);
        // Re-issuing both hits both entries.
        context.handle_line("{\"id\": 1, \"machine\": \"tav\"}");
        context.handle_line(
            "{\"id\": 1, \"machine\": \"tav\", \"overrides\": {\"bist.patterns\": 8}}",
        );
        assert_eq!(context.cache.as_ref().unwrap().counters().hits, 2);
    }
}
