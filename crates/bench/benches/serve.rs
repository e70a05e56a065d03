//! Load-test harness for the `stc serve` TCP front end.
//!
//! Unlike the criterion-style benches, this is a client/server load test: it
//! starts an in-process [`NetServer`] on an ephemeral port, replays a fixed
//! request corpus (the small machines of the embedded suite) from several
//! concurrent TCP clients, and measures whole-roundtrip latency as a client
//! would see it.  Two configurations are measured:
//!
//! * `serve/cold/*` — artifact cache disabled: every request is a fresh
//!   synthesis;
//! * `serve/warm/*` — cache enabled and primed: every request is a cache
//!   hit replayed from the content-addressed store.
//!
//! Each configuration reports `mean`, `p50` and `p99` roundtrip latency
//! through `vendor/criterion`'s `record_baseline`, which writes
//! `BENCH_serve.json` and, under `STC_BENCH_DIR`, checks the run against
//! the committed file like every other bench target.  Load noise is
//! one-sided — contention only ever makes a sample slower — so every
//! reported metric is the **minimum across passes** of the per-pass
//! statistic, and the per-pass mean additionally drops the slowest quarter
//! of its samples, mirroring the trimmed mean of `vendor/criterion`.
//!
//! Independently of timing, the harness checks correctness on every run:
//!
//! * responses are **byte-identical** cache-on vs cache-off (requests for
//!   the same machine reuse the same `id`, so the full response lines can
//!   be compared as strings);
//! * the warm server's `stats` report shows the expected cache hits;
//! * every response's `report` object must equal the corresponding
//!   `machines[]` entry of the committed golden embedded-suite report
//!   (`tests/golden/embedded_suite.json`; a missing file fails the run) —
//!   the serve path and `stc run` must agree artifact for artifact.
//!
//! Flags (after `--` under cargo): `--clients N`, `--smoke` (correctness
//! only, nothing recorded — the CI serve gate).
//! Under `cargo test` the target runs in `--test` mode: a reduced corpus,
//! all correctness checks, no timing assertions and no file writes.

use criterion::{record_baseline, Measurement};
use stc_pipeline::{CacheLimits, Json, NetOptions, NetServer, ServerHandle, StcConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// The replayed machines: the embedded suite minus the three big machines
/// (`dk16`, `ex1`, `tbk`), whose solve times would drown the service-layer
/// signal this harness is after.
const MACHINES: &[&str] = &[
    "tav", "dk27", "shiftreg", "bbtas", "dk15", "mc", "dk17", "dk14", "dk512", "bbara",
];

/// Reduced corpus for `cargo test` smoke runs.
const TEST_MACHINES: &[&str] = &["tav", "dk27", "shiftreg", "bbtas"];

/// `id` used by the harness's own `stats` requests (never a machine id).
const STATS_ID: usize = 1_000_000;

struct Options {
    /// `cargo test` smoke mode (`--test`).
    test_mode: bool,
    /// Correctness-only mode for the CI serve gate (`--smoke`).
    smoke: bool,
    clients: Option<usize>,
}

fn parse_args() -> Options {
    let mut options = Options {
        // `cargo test` runs this target without arguments but in the debug
        // `test` profile; `cargo bench` uses the optimized `bench` profile.
        // Debug timings are meaningless anyway, so debug builds always get
        // the reduced smoke corpus and never write a baseline.
        test_mode: cfg!(debug_assertions),
        smoke: false,
        clients: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test" => options.test_mode = true,
            "--smoke" => options.smoke = true,
            "--clients" => {
                let value = args.next().expect("--clients needs a count");
                options.clients = Some(value.parse().expect("--clients needs a number"));
            }
            // `--bench`, test filters and the like are cargo's business.
            _ => {}
        }
    }
    options
}

/// One measured request/response roundtrip.
struct Sample {
    /// Request id == index into the machine list.
    id: usize,
    latency_ns: u64,
    /// The raw response line, newline stripped.
    response: String,
}

fn start_server(cache: bool) -> (SocketAddr, ServerHandle, JoinHandle<()>) {
    let options = NetOptions {
        max_connections: 128,
        cache: cache.then(CacheLimits::default),
    };
    let server =
        NetServer::bind("127.0.0.1:0", &StcConfig::default(), options).expect("bind server");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let running = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle, running)
}

/// One JSON-lines roundtrip on an existing connection.
fn roundtrip(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    writeln!(writer, "{request}").expect("write request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.ends_with('\n'), "response line is newline-terminated");
    line.pop();
    line
}

fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let writer = TcpStream::connect(addr).expect("connect");
    // Requests are single small lines; without TCP_NODELAY, Nagle plus
    // delayed ACKs adds ~40 ms to every roundtrip and drowns the signal.
    writer.set_nodelay(true).expect("set nodelay");
    let reader = BufReader::new(writer.try_clone().expect("clone stream"));
    (writer, reader)
}

/// Replays `requests` (`(id, line)` pairs) across `clients` concurrent
/// connections, round-robin, measuring each roundtrip.
fn replay(addr: SocketAddr, requests: &[(usize, String)], clients: usize) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || {
                    let (mut writer, mut reader) = connect(addr);
                    // Untimed ping: connection setup (the server's accept
                    // poll) is not a per-request cost and would otherwise
                    // pollute each connection's first sample.
                    roundtrip(&mut writer, &mut reader, "{\"id\": 0, \"ping\": true}");
                    let mut samples = Vec::new();
                    for (id, line) in requests.iter().skip(k).step_by(clients) {
                        let start = Instant::now();
                        let response = roundtrip(&mut writer, &mut reader, line);
                        let latency_ns =
                            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        samples.push(Sample {
                            id: *id,
                            latency_ns,
                            response,
                        });
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    })
}

/// Nearest-rank percentile of an unsorted latency set.
fn percentile(latencies: &mut [u64], p: f64) -> u64 {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    let rank = (p / 100.0 * latencies.len() as f64).ceil() as usize;
    latencies[rank.clamp(1, latencies.len()) - 1]
}

/// Per-pass statistics: trimmed mean (slowest quarter dropped, as in
/// `vendor/criterion`), p50 and p99 in nanoseconds.
struct PassStats {
    mean_ns: f64,
    p50_ns: u64,
    p99_ns: u64,
    samples: usize,
}

impl PassStats {
    /// The `serve/<config>/{mean,p50,p99}` baseline entries.
    #[allow(clippy::cast_precision_loss)]
    fn measurements(&self, config: &str) -> Vec<Measurement> {
        let stats = [
            ("mean", self.mean_ns),
            ("p50", self.p50_ns as f64),
            ("p99", self.p99_ns as f64),
        ];
        stats
            .into_iter()
            .map(|(stat, mean_ns)| Measurement {
                name: format!("serve/{config}/{stat}"),
                iterations: self.samples as u64,
                mean_ns,
            })
            .collect()
    }
}

fn pass_stats(samples: &[Sample]) -> PassStats {
    let mut latencies: Vec<u64> = samples.iter().map(|s| s.latency_ns).collect();
    let p50_ns = percentile(&mut latencies, 50.0);
    let p99_ns = percentile(&mut latencies, 99.0);
    let keep = (latencies.len() - latencies.len() / 4).max(1);
    #[allow(clippy::cast_precision_loss)]
    let mean_ns = latencies[..keep].iter().sum::<u64>() as f64 / keep as f64;
    PassStats {
        mean_ns,
        p50_ns,
        p99_ns,
        samples: samples.len(),
    }
}

/// Folds per-pass statistics into the reported metric: the minimum across
/// passes (load noise is one-sided).
fn best(passes: &[PassStats]) -> PassStats {
    PassStats {
        mean_ns: passes.iter().map(|p| p.mean_ns).fold(f64::MAX, f64::min),
        p50_ns: passes.iter().map(|p| p.p50_ns).min().expect("passes"),
        p99_ns: passes.iter().map(|p| p.p99_ns).min().expect("passes"),
        samples: passes.iter().map(|p| p.samples).sum(),
    }
}

/// Groups response lines by request id and asserts each id always got the
/// same bytes; returns one representative line per id.
fn unique_responses(samples: &[Sample]) -> BTreeMap<usize, String> {
    let mut by_id: BTreeMap<usize, String> = BTreeMap::new();
    for sample in samples {
        by_id
            .entry(sample.id)
            .and_modify(|seen| {
                assert_eq!(
                    seen, &sample.response,
                    "responses for request id {} must be byte-identical",
                    sample.id
                );
            })
            .or_insert_with(|| sample.response.clone());
    }
    by_id
}

/// The committed golden embedded-suite report the responses are diffed
/// against.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/embedded_suite.json"
);

/// Diffs every response's `report` against the golden suite's `machines[]`
/// entry of the same name.
fn check_golden(responses: &BTreeMap<usize, String>) {
    let text =
        std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("read golden {GOLDEN}: {e}"));
    let golden = Json::parse(&text).expect("golden file is JSON");
    let machines = golden
        .get("machines")
        .and_then(Json::as_array)
        .expect("golden file has machines[]");
    let mut checked = 0usize;
    for line in responses.values() {
        let response = Json::parse(line).expect("response is JSON");
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{line}");
        let name = response
            .get("machine")
            .and_then(Json::as_str)
            .expect("response names its machine");
        let entry = machines
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("machine {name} missing from golden suite"));
        assert_eq!(
            response.get("report"),
            Some(entry),
            "serve report for {name} diverges from the golden suite report"
        );
        checked += 1;
    }
    eprintln!("serve: {checked} response(s) match the golden suite reports in {GOLDEN}");
}

/// Queries the warm server's `stats` request and returns the cache-hit count.
fn cache_hits(addr: SocketAddr) -> u64 {
    let (mut writer, mut reader) = connect(addr);
    let line = roundtrip(
        &mut writer,
        &mut reader,
        &format!("{{\"id\": {STATS_ID}, \"stats\": true}}"),
    );
    let response = Json::parse(&line).expect("stats response is JSON");
    response
        .get("stats")
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get("hits"))
        .and_then(Json::as_u64)
        .expect("stats report cache hits")
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let options = parse_args();
    let machines: &[&str] = if options.test_mode {
        TEST_MACHINES
    } else {
        MACHINES
    };
    // Cold requests synthesize (~ms each) so their repeat count is kept low;
    // warm requests are cache hits (~µs each), so the warm pass affords a
    // much larger sample set and a correspondingly stabler p99.
    let (passes, cold_repeats, warm_repeats) = if options.test_mode {
        (1, 2, 4)
    } else {
        (if options.smoke { 1 } else { 3 }, 4, 40)
    };
    let clients = options
        .clients
        .unwrap_or(if options.test_mode { 2 } else { 8 });
    assert!(clients >= 1, "--clients must be at least 1");

    // One pass = every machine `repeats` times; requests for the same
    // machine share the machine's index as `id`, so responses can be
    // compared byte for byte across servers.
    let requests_for = |repeats: usize| -> Vec<(usize, String)> {
        (0..repeats)
            .flat_map(|_| {
                machines
                    .iter()
                    .enumerate()
                    .map(|(id, name)| (id, format!("{{\"id\": {id}, \"machine\": \"{name}\"}}")))
            })
            .collect()
    };
    let cold_requests = requests_for(cold_repeats);
    let warm_requests = requests_for(warm_repeats);

    // Cold: cache disabled, every request synthesizes.
    let (cold_addr, cold_handle, cold_running) = start_server(false);
    let mut cold_passes = Vec::new();
    let mut cold_samples_last = Vec::new();
    for _ in 0..passes {
        let samples = replay(cold_addr, &cold_requests, clients);
        cold_passes.push(pass_stats(&samples));
        cold_samples_last = samples;
    }
    cold_handle.shutdown();
    cold_running.join().expect("cold server thread");
    let cold_responses = unique_responses(&cold_samples_last);

    // Warm: cache enabled; prime each distinct machine once on a single
    // connection, then every replayed request is a hit.
    let (warm_addr, warm_handle, warm_running) = start_server(true);
    {
        let (mut writer, mut reader) = connect(warm_addr);
        for (id, name) in machines.iter().enumerate() {
            let line = roundtrip(
                &mut writer,
                &mut reader,
                &format!("{{\"id\": {id}, \"machine\": \"{name}\"}}"),
            );
            let parsed = Json::parse(&line).expect("prime response is JSON");
            assert_eq!(
                parsed.get("ok"),
                Some(&Json::Bool(true)),
                "prime {name}: {line}"
            );
        }
    }
    let mut warm_passes = Vec::new();
    let mut warm_samples_last = Vec::new();
    for _ in 0..passes {
        let samples = replay(warm_addr, &warm_requests, clients);
        warm_passes.push(pass_stats(&samples));
        warm_samples_last = samples;
    }
    let hits = cache_hits(warm_addr);
    warm_handle.shutdown();
    warm_running.join().expect("warm server thread");
    let warm_responses = unique_responses(&warm_samples_last);

    // Correctness, on every run: cache-on and cache-off responses are
    // byte-identical, and the replay really hit the cache.
    assert_eq!(cold_responses.len(), machines.len());
    assert_eq!(
        warm_responses, cold_responses,
        "cache-on responses differ from cache-off"
    );
    let expected_hits = (passes * warm_requests.len()) as u64;
    assert!(
        hits >= expected_hits,
        "warm server reports {hits} cache hits, expected at least {expected_hits}"
    );

    check_golden(&cold_responses);

    let cold = best(&cold_passes);
    let warm = best(&warm_passes);
    let speedup = cold.mean_ns / warm.mean_ns;
    eprintln!(
        "serve: {} machines, {passes} pass(es) of {} cold / {} warm requests, {clients} client(s)",
        machines.len(),
        cold_requests.len(),
        warm_requests.len()
    );
    eprintln!(
        "serve: cold mean {:>10.0} ns  p50 {:>10} ns  p99 {:>10} ns  ({} samples)",
        cold.mean_ns, cold.p50_ns, cold.p99_ns, cold.samples
    );
    eprintln!(
        "serve: warm mean {:>10.0} ns  p50 {:>10} ns  p99 {:>10} ns  ({} samples)",
        warm.mean_ns, warm.p50_ns, warm.p99_ns, warm.samples
    );
    eprintln!("serve: cache speedup {speedup:.1}x (cold mean / warm mean)");
    if options.smoke {
        assert!(
            speedup >= 10.0,
            "cached path must be at least 10x faster (measured {speedup:.1}x)"
        );
    }

    if !options.test_mode && !options.smoke {
        let mut entries = cold.measurements("cold");
        entries.extend(warm.measurements("warm"));
        record_baseline("serve", &entries);
    }
}
