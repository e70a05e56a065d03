//! The content-addressed artifact cache behind `stc serve`.
//!
//! A successful serve request runs the full staged flow — `Decomposition →
//! Encoded → Netlist → BistPlan` (→ `CoverageReport`) — and renders the
//! result to two JSON fragments: the effective-config echo and the machine
//! report.  Because the whole flow is a pure function of **(machine,
//! effective [`StcConfig`])** under the determinism contract (no wall-clock
//! values in reports, no dependence on worker counts), those rendered
//! fragments can be memoized under a content-addressed key:
//!
//! * the machine half is [`stc_fsm::Mealy::stable_hash`] — a platform- and
//!   release-stable FNV-1a content hash;
//! * the config half is [`stc_fsm::fnv1a`] of the configuration echo
//!   ([`StcConfig::to_json`], compact): the same bytes a response splices
//!   in as its `config`, which hold every knob that can change a report
//!   byte.  Knobs that no config key reaches (such as
//!   `SynthOptions::minimize_row_limit`) are fixed by the server's base
//!   configuration, so they cannot differ between one cache's entries.
//!
//! A hit skips the solver entirely and replays the stored fragments, so the
//! response is **byte-identical** to what a cold synthesis would have
//! produced (only the request `id` differs, and it is spliced in the same
//! way on both paths).  Configurations that trade determinism for
//! boundedness — any wall-clock limit set — are excluded by [`cacheable`]:
//! their results can legitimately differ run to run, so memoizing them
//! would freeze one arbitrary outcome.
//!
//! Eviction is LRU, bounded both by entry count and by total payload bytes
//! ([`CacheLimits`]); hit/miss/insertion/eviction counters are exposed for
//! the `stats` request.

use crate::config::StcConfig;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Size bounds of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLimits {
    /// Maximum number of cached responses (`0` disables the cache).
    pub max_entries: usize,
    /// Maximum total payload bytes (config + report fragments) before LRU
    /// eviction kicks in (`0` disables the cache).
    pub max_bytes: usize,
}

impl Default for CacheLimits {
    /// 256 entries / 64 MiB — a full embedded-suite working set many times
    /// over, while one pathological corpus cannot exhaust server memory.
    fn default() -> Self {
        Self {
            max_entries: 256,
            max_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Counter snapshot of one cache, for `stats` responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing (or a colliding key, see
    /// [`ArtifactCache::get`]).
    pub misses: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Entries discarded to stay within [`CacheLimits`].
    pub evictions: u64,
}

/// The memoized outcome of one successful synthesis request: the rendered
/// compact-JSON fragments a response is spliced from.  The machine name and
/// the config echo are also verified on lookup: a 64-bit collision must
/// produce a miss, not a wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedSynthesis {
    /// The machine's name.
    pub machine_name: String,
    /// The compact rendering of the effective-config echo
    /// ([`StcConfig::to_json`]).
    pub config_json: String,
    /// The compact rendering of the machine report.
    pub report_json: String,
}

impl CachedSynthesis {
    fn payload_bytes(&self) -> usize {
        self.machine_name.len() + self.config_json.len() + self.report_json.len()
    }
}

/// The cache key: machine content hash × config-echo hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheKey {
    /// [`stc_fsm::Mealy::stable_hash`] of the requested machine.
    pub machine: u64,
    /// [`stc_fsm::fnv1a`] of the effective request configuration's compact
    /// echo ([`StcConfig::to_json`]).
    pub config: u64,
}

/// A bounded, thread-safe LRU cache of rendered synthesis responses.
///
/// The store is a deque ordered most-recently-used first.  Lookups scan
/// linearly — with the default bound of a few hundred entries a scan is
/// nanoseconds against the milliseconds-to-seconds of a synthesis run, and
/// it keeps the structure dependency-free and obviously correct.
#[derive(Debug)]
pub struct ArtifactCache {
    limits: CacheLimits,
    entries: Mutex<VecDeque<(CacheKey, CachedSynthesis)>>,
    bytes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl ArtifactCache {
    /// Creates an empty cache with the given bounds.
    #[must_use]
    pub fn new(limits: CacheLimits) -> Self {
        Self {
            limits,
            entries: Mutex::new(VecDeque::new()),
            bytes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up a rendered response.  A hit promotes the entry to
    /// most-recently-used.  An entry whose stored machine name or config
    /// echo differs from `machine_name` or `config_json` — a 64-bit key
    /// collision — is treated as a miss.
    #[must_use]
    pub fn get(
        &self,
        key: CacheKey,
        machine_name: &str,
        config_json: &str,
    ) -> Option<CachedSynthesis> {
        let mut entries = self.entries.lock().expect("no panics while holding lock");
        let position = entries.iter().position(|(k, e)| {
            *k == key && e.machine_name == machine_name && e.config_json == config_json
        });
        match position {
            Some(i) => {
                let entry = entries.remove(i).expect("position is in range");
                let cached = entry.1.clone();
                entries.push_front(entry);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(cached)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a rendered response, evicting least-recently-used entries
    /// until both bounds hold.  An entry larger than `max_bytes` on its own
    /// is not stored at all.
    pub fn insert(&self, key: CacheKey, entry: CachedSynthesis) {
        let entry_bytes = entry.payload_bytes();
        if self.limits.max_entries == 0 || entry_bytes > self.limits.max_bytes {
            return;
        }
        let mut entries = self.entries.lock().expect("no panics while holding lock");
        // Replace a duplicate key in place (two threads can race to fill the
        // same miss); the payloads are identical by the determinism
        // contract, so keeping either is correct.
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            let (_, old) = entries.remove(i).expect("position is in range");
            self.bytes
                .fetch_sub(old.payload_bytes() as u64, Ordering::Relaxed);
        }
        entries.push_front((key, entry));
        self.bytes.fetch_add(entry_bytes as u64, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while entries.len() > self.limits.max_entries
            || self.bytes.load(Ordering::Relaxed) > self.limits.max_bytes as u64
        {
            let Some((_, evicted)) = entries.pop_back() else {
                break;
            };
            self.bytes
                .fetch_sub(evicted.payload_bytes() as u64, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of cached responses.
    ///
    /// # Panics
    ///
    /// Panics if a previous holder of the internal lock panicked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("no panics while holding lock")
            .len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes currently cached.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The configured bounds.
    #[must_use]
    pub fn limits(&self) -> CacheLimits {
        self.limits
    }

    /// A snapshot of the hit/miss/insertion/eviction counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Whether results under `config` may be memoized at all.
///
/// Any wall-clock bound — `machine_timeout_secs`, `stage_deadline_secs`,
/// `solver.time_limit_secs` — makes the outcome depend on machine speed and
/// load, so such requests always run cold.  Everything else in the
/// configuration is covered by the determinism contract (reports carry no
/// wall-clock values and do not depend on worker counts).
#[must_use]
pub fn cacheable(config: &StcConfig) -> bool {
    config.pipeline.machine_timeout.is_none()
        && config.stage_deadline.is_none()
        && config.pipeline.solver.time_limit.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, payload: &str) -> CachedSynthesis {
        CachedSynthesis {
            machine_name: name.to_string(),
            config_json: "{}".to_string(),
            report_json: payload.to_string(),
        }
    }

    fn key(machine: u64, config: u64) -> CacheKey {
        CacheKey { machine, config }
    }

    #[test]
    fn hit_returns_the_stored_fragments_and_counts() {
        let cache = ArtifactCache::new(CacheLimits::default());
        assert_eq!(cache.get(key(1, 1), "tav", "{}"), None);
        cache.insert(key(1, 1), entry("tav", "r1"));
        let hit = cache.get(key(1, 1), "tav", "{}").expect("hit");
        assert_eq!(hit.report_json, "r1");
        assert_eq!(
            cache.counters(),
            CacheCounters {
                hits: 1,
                misses: 1,
                insertions: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn a_name_mismatch_is_a_miss_not_a_wrong_answer() {
        let cache = ArtifactCache::new(CacheLimits::default());
        cache.insert(key(7, 7), entry("tav", "r"));
        assert_eq!(cache.get(key(7, 7), "bbara", "{}"), None);
        assert_eq!(cache.counters().misses, 1);
    }

    #[test]
    fn entry_count_bound_evicts_least_recently_used() {
        let cache = ArtifactCache::new(CacheLimits {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        cache.insert(key(1, 0), entry("a", "ra"));
        cache.insert(key(2, 0), entry("b", "rb"));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.get(key(1, 0), "a", "{}").is_some());
        cache.insert(key(3, 0), entry("c", "rc"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(key(2, 0), "b", "{}").is_none(), "b was evicted");
        assert!(cache.get(key(1, 0), "a", "{}").is_some());
        assert!(cache.get(key(3, 0), "c", "{}").is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn byte_bound_evicts_and_oversized_entries_are_refused() {
        let cache = ArtifactCache::new(CacheLimits {
            max_entries: 100,
            max_bytes: 20,
        });
        cache.insert(key(1, 0), entry("a", "0123456789")); // 1 + 2 + 10 = 13 bytes
        cache.insert(key(2, 0), entry("b", "0123456789"));
        assert_eq!(cache.len(), 1, "26 bytes exceed the 20-byte bound");
        assert_eq!(cache.payload_bytes(), 13);
        assert!(cache.get(key(2, 0), "b", "{}").is_some(), "newest survives");
        // An entry that alone exceeds the bound is never stored.
        cache.insert(key(3, 0), entry("c", &"x".repeat(30)));
        assert!(cache.get(key(3, 0), "c", "{}").is_none());
    }

    #[test]
    fn duplicate_insert_replaces_without_double_counting_bytes() {
        let cache = ArtifactCache::new(CacheLimits::default());
        cache.insert(key(1, 1), entry("a", "r1"));
        let bytes = cache.payload_bytes();
        cache.insert(key(1, 1), entry("a", "r1"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.payload_bytes(), bytes);
    }

    #[test]
    fn zero_limits_disable_storage() {
        let cache = ArtifactCache::new(CacheLimits {
            max_entries: 0,
            max_bytes: 0,
        });
        cache.insert(key(1, 1), entry("a", "r"));
        assert!(cache.is_empty());
    }

    #[test]
    fn a_config_echo_mismatch_is_a_miss_not_a_wrong_answer() {
        let cache = ArtifactCache::new(CacheLimits::default());
        cache.insert(key(7, 7), entry("tav", "r"));
        assert_eq!(cache.get(key(7, 7), "tav", "{\"max_nodes\":1}"), None);
        assert_eq!(cache.counters().misses, 1);
        assert!(cache.get(key(7, 7), "tav", "{}").is_some());
    }

    #[test]
    fn every_knob_but_worker_counts_and_wall_clock_bounds_changes_the_echo() {
        // The echo is the cache's config key: a result-relevant key it left
        // out would let two configurations share one entry.  With every
        // optional stage enabled every knob is echoed, so each key's
        // non-default value must move it, except the worker counts, the
        // wall-clock bounds (both out of the determinism contract) and the
        // inert steal seed.  A new key fails here until it gets a test value.
        let mut base = StcConfig::default();
        for stage in [
            "coverage.enabled",
            "coverage.optimize.enabled",
            "analysis.enabled",
            "emit.enabled",
        ] {
            base.set(stage, "true").unwrap();
        }
        let echo = |config: &StcConfig| config.to_json().to_compact();
        let unechoed = [
            "jobs",
            "solver.jobs",
            "solver.time_limit_secs",
            "machine_timeout_secs",
            "stage_deadline_secs",
            "solver.steal_seed",
        ];
        for &(key, _) in crate::config::CONFIG_KEYS {
            let value = match key {
                "solver.lemma1_pruning"
                | "solver.stop_at_lower_bound"
                | "solver.branch_and_bound"
                | "synth.minimize"
                | "coverage.enabled"
                | "coverage.optimize.enabled"
                | "analysis.enabled"
                | "emit.enabled" => "false",
                "encoding" => "gray",
                "coverage.optimize.target" => "0.5",
                "analysis.deny" => "net-unused-input",
                "emit.target" => "verilog",
                "emit.module_name" => "ctl",
                "jobs"
                | "solver.jobs"
                | "solver.time_limit_secs"
                | "solver.steal_seed"
                | "solver.max_nodes"
                | "bist.patterns"
                | "coverage.max_patterns"
                | "coverage.optimize.max_candidates"
                | "coverage.optimize.max_total_length"
                | "gate_level.max_states"
                | "gate_level.max_inputs"
                | "machine_timeout_secs"
                | "stage_deadline_secs" => "7",
                other => panic!("no non-default test value for the key '{other}'"),
            };
            let mut changed = base.clone();
            changed.set(key, value).unwrap();
            // The retired steal seed is still validated, then dropped.
            assert_eq!(changed == base, key == "solver.steal_seed", "{key}");
            assert_eq!(
                echo(&changed) != echo(&base),
                !unechoed.contains(&key),
                "{key}"
            );
        }
        assert!(base.clone().set("solver.steal_seed", "x").is_err());
    }

    #[test]
    fn wall_clock_bounds_make_a_config_uncacheable() {
        let mut config = StcConfig::default();
        assert!(cacheable(&config));
        config.set("solver.time_limit_secs", "5").unwrap();
        assert!(!cacheable(&config));
        config.set("solver.time_limit_secs", "0").unwrap();
        config.set("machine_timeout_secs", "5").unwrap();
        assert!(!cacheable(&config));
        config.set("machine_timeout_secs", "0").unwrap();
        config.set("stage_deadline_secs", "5").unwrap();
        assert!(!cacheable(&config));
        config.set("stage_deadline_secs", "0").unwrap();
        assert!(cacheable(&config));
    }
}
