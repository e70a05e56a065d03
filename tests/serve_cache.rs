//! The artifact cache must be invisible in responses and visible in speed.
//!
//! * Property: for any interleaving of machine requests (with or without
//!   per-request overrides), a cache-enabled serve loop answers with the
//!   **same bytes** as a cache-disabled one.
//! * Eviction under pressure (`max_entries: 1`) keeps responses correct.
//! * Requests whose configs echo the same bytes share one entry.
//! * Concurrent clients replaying the same machine over TCP all read
//!   identical bytes.
//! * The cached path is pinned at >= 10x faster than fresh synthesis.

use proptest::prelude::*;
use stc::pipeline::{serve_with, CacheLimits, Json, NetOptions, NetServer, StcConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Machines small enough to synthesize many times in a test.
const MACHINES: &[&str] = &["tav", "mc", "dk27", "bbtas"];

/// A fast base config shared by all serve loops of this file.
fn base() -> StcConfig {
    let mut config = StcConfig::default();
    config.set("solver.max_nodes", "20000").unwrap();
    config.set("bist.patterns", "32").unwrap();
    config
}

/// Runs one in-process serve loop over `requests` and returns the raw
/// response bytes.  Responses come back in request order, so outputs of
/// different loops are comparable as whole transcripts.
fn transcript(requests: &str, cache: Option<CacheLimits>) -> String {
    let mut output = Vec::new();
    serve_with(requests.as_bytes(), &mut output, &base(), cache).expect("serve loop runs");
    String::from_utf8(output).expect("responses are UTF-8")
}

/// One request line for machine index `i`, optionally with an override that
/// changes the effective config (and therefore the cache key).
fn request_line(id: usize, machine_index: usize, with_override: bool) -> String {
    let name = MACHINES[machine_index % MACHINES.len()];
    if with_override {
        format!(
            "{{\"id\": {id}, \"machine\": \"{name}\", \"overrides\": {{\"bist.patterns\": 64}}}}\n"
        )
    } else {
        format!("{{\"id\": {id}, \"machine\": \"{name}\"}}\n")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of (machine, override?) requests produces the same
    /// transcript with the cache on as with the cache off — hits replay the
    /// exact bytes a fresh synthesis would have produced.
    #[test]
    fn any_interleaving_is_byte_identical_to_a_cold_server(
        picks in collection::vec((0usize..MACHINES.len(), any::<bool>()), 1..10)
    ) {
        let requests: String = picks
            .iter()
            .enumerate()
            .map(|(id, &(machine, with_override))| request_line(id, machine, with_override))
            .collect();
        let cold = transcript(&requests, None);
        let cached = transcript(&requests, Some(CacheLimits::default()));
        prop_assert_eq!(cold, cached);
    }
}

#[test]
fn eviction_under_pressure_keeps_responses_byte_identical() {
    // Two machines fighting over a single cache slot: every request evicts
    // the other machine, so the loop exercises miss -> insert -> evict on
    // every line, and a final `stats` request proves evictions happened.
    let mut requests = String::new();
    for id in 0..8 {
        requests.push_str(&request_line(id, id % 2, false));
    }
    let cold = transcript(&requests, None);
    requests.push_str("{\"id\": 99, \"stats\": true}\n");
    let squeezed = transcript(
        &requests,
        Some(CacheLimits {
            max_entries: 1,
            ..CacheLimits::default()
        }),
    );
    let squeezed = squeezed.trim_end_matches('\n');
    let (machine_lines, stats_line) = squeezed.rsplit_once('\n').expect("stats line present");
    assert_eq!(cold.trim_end_matches('\n'), machine_lines);
    let stats = Json::parse(stats_line).expect("stats response is JSON");
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));
    assert!(
        cache.get("evictions").unwrap().as_u64().unwrap() >= 6,
        "alternating machines through a 1-entry cache must evict"
    );
}

#[test]
fn a_disabled_stages_knob_shares_one_cache_entry() {
    // Coverage is off in `base()`, so `coverage.max_patterns` is not echoed:
    // it cannot change a report byte, both requests key on the same echo,
    // and the second is answered from the first one's entry.
    let requests = "{\"id\": 1, \"machine\": \"tav\"}\n\
                    {\"id\": 1, \"machine\": \"tav\", \"overrides\": {\"coverage.max_patterns\": 7}}\n\
                    {\"id\": 2, \"stats\": true}\n";
    let output = transcript(requests, Some(CacheLimits::default()));
    let lines: Vec<&str> = output.lines().collect();
    assert_eq!(lines.len(), 3, "{output}");
    assert_eq!(lines[0], lines[1]);
    let stats = Json::parse(lines[2]).expect("stats response is JSON");
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert_eq!(cache.get("entries").unwrap().as_u64(), Some(1));
    assert_eq!(cache.get("hits").unwrap().as_u64(), Some(1));
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Self { writer, reader }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("write");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        line
    }
}

#[test]
fn concurrent_cache_hits_are_deterministic() {
    let server = NetServer::bind("127.0.0.1:0", &base(), NetOptions::default()).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let running = std::thread::spawn(move || server.run());

    // Prime the cache, keeping the reference bytes.
    let reference = Client::connect(addr).roundtrip("{\"id\": 7, \"machine\": \"tav\"}");

    // Six clients hammer the same entry concurrently; every hit must replay
    // exactly the primed bytes.
    let lines: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(addr);
                    (0..5)
                        .map(|_| client.roundtrip("{\"id\": 7, \"machine\": \"tav\"}"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    for line in &lines {
        assert_eq!(line, &reference);
    }

    let stats = Json::parse(&Client::connect(addr).roundtrip("{\"id\": 8, \"stats\": true}"))
        .expect("stats JSON");
    let cache = stats.get("stats").unwrap().get("cache").unwrap();
    assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 30);

    handle.shutdown();
    running.join().unwrap().unwrap();
}

#[test]
fn the_cached_path_is_at_least_ten_times_faster() {
    // Minimum-of-5 roundtrips on each server: the minimum strips scheduler
    // noise, leaving the true service time, so the 10x pin (the ISSUE's
    // acceptance bar; typically 50-200x) cannot flap under parallel tests.
    let min_roundtrip = |cache: Option<CacheLimits>| -> u128 {
        let options = NetOptions {
            cache,
            ..NetOptions::default()
        };
        let server = NetServer::bind("127.0.0.1:0", &base(), options).expect("bind");
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let running = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr);
        // Untimed: connection setup, and (with the cache on) the priming miss.
        client.roundtrip("{\"id\": 1, \"machine\": \"tav\"}");
        let best = (0..5)
            .map(|_| {
                let start = Instant::now();
                let line = client.roundtrip("{\"id\": 1, \"machine\": \"tav\"}");
                assert!(line.contains("\"ok\":true"));
                start.elapsed().as_nanos()
            })
            .min()
            .unwrap();
        handle.shutdown();
        running.join().unwrap().unwrap();
        best
    };
    let cold = min_roundtrip(None);
    let warm = min_roundtrip(Some(CacheLimits::default()));
    assert!(
        cold >= 10 * warm,
        "cached roundtrip must be >= 10x faster: cold {cold} ns, warm {warm} ns"
    );
}
