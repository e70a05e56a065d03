//! Service-level observability for `stc serve`.
//!
//! One [`ServeMetrics`] instance lives for the whole life of a serve loop
//! (stdin/stdout or network) and aggregates lock-free counters: request
//! outcomes, connection accounting, per-stage latency (the
//! metrics are themselves the [`Observer`] of every serve session and add up
//! the stage times [`Event::StageFinished`] carries) and end-to-end request
//! latency.  The `{"stats": true}` request of the serve protocol is
//! answered with a snapshot, [`ServeMetrics::snapshot`] (a JSON object; see
//! `docs/SERVE.md`).
//!
//! Stats are observability, not artifacts: unlike machine reports they
//! contain wall-clock durations and are exempt from the byte-determinism
//! contract.

use crate::cache::ArtifactCache;
use crate::json::Json;
use crate::observe::{Event, Observer};
use crate::session::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct StageCounter {
    count: AtomicU64,
    total_ns: AtomicU64,
}

/// Lock-free service counters for one serve loop.
///
/// All counters are monotonic except the one gauge, `connections_active`.
/// Relaxed ordering everywhere: the values are statistics, not
/// synchronisation.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    requests: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    pings: AtomicU64,
    stats_requests: AtomicU64,
    connections_active: AtomicU64,
    connections_total: AtomicU64,
    connections_rejected: AtomicU64,
    request_count: AtomicU64,
    request_total_ns: AtomicU64,
    /// One counter per [`Stage::ALL`] row.
    stages: [StageCounter; Stage::ALL.len()],
}

impl ServeMetrics {
    /// Creates zeroed metrics behind an [`Arc`], ready to be shared between
    /// the serve loop, its connections and a stats thread.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records a request read from the wire (well-formed or not).
    pub fn request_read(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request outcome: `ok` responses, error responses, and the
    /// two introspection kinds.
    pub fn response(&self, ok: bool) {
        if ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a pong.
    pub fn ping(&self) {
        self.pings.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a `stats` request.
    pub fn stats_request(&self) {
        self.stats_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an accepted connection; pair with [`Self::connection_closed`].
    pub fn connection_opened(&self) {
        self.connections_active.fetch_add(1, Ordering::Relaxed);
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection ending.
    pub fn connection_closed(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records a connection turned away at the connection limit.
    pub fn connection_rejected(&self) {
        self.connections_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of connections currently open.
    #[must_use]
    pub fn active_connections(&self) -> u64 {
        self.connections_active.load(Ordering::Relaxed)
    }

    /// Records one end-to-end request service time (parse to rendered
    /// response, cold or cached).
    pub fn request_served_in(&self, elapsed_ns: u64) {
        self.request_count.fetch_add(1, Ordering::Relaxed);
        self.request_total_ns
            .fetch_add(elapsed_ns, Ordering::Relaxed);
    }

    /// Total requests read so far.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Total error responses so far.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// The stats snapshot answered to a `{"stats": true}` request.
    ///
    /// Counters are read individually (relaxed), so a snapshot taken while
    /// requests are in flight is approximate — internally consistent enough
    /// for observability, not a transaction.
    #[must_use]
    pub fn snapshot(&self, cache: Option<&ArtifactCache>) -> Json {
        let load = |a: &AtomicU64| Json::from_u64(a.load(Ordering::Relaxed));
        let requests_section = Json::Object(vec![
            ("read".into(), load(&self.requests)),
            ("ok".into(), load(&self.ok)),
            ("errors".into(), load(&self.errors)),
            ("pings".into(), load(&self.pings)),
            ("stats".into(), load(&self.stats_requests)),
            (
                "mean_service_ms".into(),
                Json::Number(mean_ms(
                    self.request_total_ns.load(Ordering::Relaxed),
                    self.request_count.load(Ordering::Relaxed),
                )),
            ),
        ]);
        let connections_section = Json::Object(vec![
            ("active".into(), load(&self.connections_active)),
            ("total".into(), load(&self.connections_total)),
            ("rejected".into(), load(&self.connections_rejected)),
        ]);
        let cache_section = match cache {
            None => Json::Object(vec![("enabled".into(), Json::Bool(false))]),
            Some(cache) => {
                let counters = cache.counters();
                Json::Object(vec![
                    ("enabled".into(), Json::Bool(true)),
                    ("entries".into(), Json::from_usize(cache.len())),
                    ("bytes".into(), Json::from_u64(cache.payload_bytes())),
                    ("hits".into(), Json::from_u64(counters.hits)),
                    ("misses".into(), Json::from_u64(counters.misses)),
                    ("insertions".into(), Json::from_u64(counters.insertions)),
                    ("evictions".into(), Json::from_u64(counters.evictions)),
                ])
            }
        };
        let stages_section = Json::Object(
            Stage::ALL
                .iter()
                .zip(&self.stages)
                .map(|(stage, counter)| {
                    let count = counter.count.load(Ordering::Relaxed);
                    let total_ns = counter.total_ns.load(Ordering::Relaxed);
                    (
                        stage.name().to_string(),
                        Json::Object(vec![
                            ("count".into(), Json::from_u64(count)),
                            ("mean_ms".into(), Json::Number(mean_ms(total_ns, count))),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Object(vec![
            ("requests".into(), requests_section),
            ("connections".into(), connections_section),
            ("cache".into(), cache_section),
            ("stages".into(), stages_section),
        ])
    }
}

/// Serve sessions report to their metrics directly: each finished stage
/// lands in its [`Stage::ALL`] counter.  Never cancels and feeds only the
/// metrics side channel, so under the observer contract reports stay
/// byte-identical.
impl Observer for ServeMetrics {
    fn on_event(&self, event: &Event<'_>) {
        if let Event::StageFinished { stage, elapsed, .. } = event {
            if let Some(i) = Stage::ALL.iter().position(|s| s.name() == *stage) {
                let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
                self.stages[i].count.fetch_add(1, Ordering::Relaxed);
                self.stages[i]
                    .total_ns
                    .fetch_add(elapsed_ns, Ordering::Relaxed);
            }
        }
    }
}

fn mean_ms(total_ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        // Precision loss is fine for a statistics display.
        #[allow(clippy::cast_precision_loss)]
        {
            total_ns as f64 / count as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{ArtifactCache, CacheKey, CacheLimits, CachedSynthesis};
    use std::time::Duration;

    #[test]
    fn counters_land_in_the_snapshot() {
        let metrics = ServeMetrics::shared();
        metrics.request_read();
        metrics.request_read();
        metrics.response(true);
        metrics.response(false);
        metrics.ping();
        metrics.stats_request();
        metrics.connection_opened();
        metrics.connection_rejected();
        metrics.request_served_in(2_000_000);
        let snapshot = metrics.snapshot(None);
        let requests = snapshot.get("requests").unwrap();
        assert_eq!(requests.get("read").unwrap().as_u64(), Some(2));
        assert_eq!(requests.get("ok").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("errors").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("pings").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("stats").unwrap().as_u64(), Some(1));
        assert_eq!(requests.get("mean_service_ms").unwrap().as_f64(), Some(2.0));
        let connections = snapshot.get("connections").unwrap();
        assert_eq!(connections.get("active").unwrap().as_u64(), Some(1));
        assert_eq!(connections.get("rejected").unwrap().as_u64(), Some(1));
        assert_eq!(
            snapshot.get("cache").unwrap().get("enabled"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn cache_section_reflects_the_cache() {
        let metrics = ServeMetrics::shared();
        let cache = ArtifactCache::new(CacheLimits::default());
        cache.insert(
            CacheKey {
                machine: 1,
                config: 2,
            },
            CachedSynthesis {
                machine_name: "tav".into(),
                config_json: "{}".into(),
                report_json: "{}".into(),
            },
        );
        let _ = cache.get(
            CacheKey {
                machine: 1,
                config: 2,
            },
            "tav",
            "{}",
        );
        let section = metrics.snapshot(Some(&cache));
        let cache_stats = section.get("cache").unwrap();
        assert_eq!(cache_stats.get("enabled"), Some(&Json::Bool(true)));
        assert_eq!(cache_stats.get("entries").unwrap().as_u64(), Some(1));
        assert_eq!(cache_stats.get("hits").unwrap().as_u64(), Some(1));
    }

    fn finished(stage: &'static str, elapsed_ms: u64) -> Event<'static> {
        Event::StageFinished {
            machine: "tav",
            stage,
            elapsed: Duration::from_millis(elapsed_ms),
        }
    }

    #[test]
    fn finished_stages_are_counted_and_started_ones_are_not() {
        let metrics = ServeMetrics::shared();
        metrics.on_event(&finished("solve", 2));
        // A start alone is not a finished stage.
        metrics.on_event(&Event::StageStarted {
            machine: "tav",
            stage: "encode",
        });
        let snapshot = metrics.snapshot(None);
        let stage = |name: &str| snapshot.get("stages").unwrap().get(name).unwrap();
        assert_eq!(stage("solve").get("count").unwrap().as_u64(), Some(1));
        assert_eq!(stage("solve").get("mean_ms").unwrap().as_f64(), Some(2.0));
        assert_eq!(stage("encode").get("count").unwrap().as_u64(), Some(0));
        assert!(!metrics.should_cancel());
    }

    #[test]
    fn every_flow_stage_is_counted_in_flow_order() {
        let metrics = ServeMetrics::shared();
        for stage in [Stage::Optimize, Stage::Emit, Stage::Emit] {
            metrics.on_event(&finished(stage.name(), 3));
        }
        let snapshot = metrics.snapshot(None);
        let Some(Json::Object(stages)) = snapshot.get("stages") else {
            panic!("stages is an object");
        };
        let names: Vec<&str> = stages.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            ["solve", "encode", "logic", "bist", "coverage", "optimize", "analyze", "emit"]
        );
        let stage = |name: &str| snapshot.get("stages").unwrap().get(name).unwrap();
        assert_eq!(stage("optimize").get("count").unwrap().as_u64(), Some(1));
        assert_eq!(stage("emit").get("count").unwrap().as_u64(), Some(2));
        assert_eq!(stage("emit").get("mean_ms").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn unknown_stage_names_are_ignored() {
        let metrics = ServeMetrics::shared();
        metrics.on_event(&finished("no-such-stage", 1));
        let stages = metrics.snapshot(None);
        let stages = stages.get("stages").unwrap();
        let Json::Object(entries) = stages else {
            panic!("stages is an object");
        };
        assert!(entries
            .iter()
            .all(|(_, v)| v.get("count").unwrap().as_u64() == Some(0)));
    }
}
