//! The benchmark-owned host-speed probe.
//!
//! The VM this benchmark was tuned on drifts 15–25% in speed between and
//! within processes.  A fixed workload run between ops measures the host's
//! current speed, and each op's duration is reported as
//! `raw × K_ref / K_local`, where `K_local` is the mean of the probe times
//! just before and just after the op and `K_ref` is the constant `k_ref_ms`
//! of `workloads.json`.
//!
//! The probe builds 64 short vectors of random length and sorts them, 1500
//! times (about 10 ms): allocation, pointer chasing and comparisons, like
//! the flow's cube lists and partitions.  Across twenty processes on a
//! noisy host, embedded-suite passes divided by this probe spread 3.7%
//! (quartile distance over median) where the raw passes spread 16% and
//! passes divided by a pure ALU probe (an LCG scattering into a 256 KiB
//! table) 10.8%.
//!
//! The probe only ever runs while the program has no work in flight, so a
//! change that leaves threads busy cannot slow the probe and flatter itself.

use std::hint::black_box;
use std::time::Instant;

const ROUNDS: usize = 1500;
const VECTORS: usize = 64;

pub struct Probe {
    samples_ms: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        Self {
            samples_ms: Vec::new(),
        }
    }

    /// Runs the probe once; returns and records its time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut checksum = 0u64;
        for _ in 0..black_box(ROUNDS) {
            let mut vectors: Vec<Vec<u64>> = Vec::with_capacity(VECTORS);
            for _ in 0..VECTORS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let len = 4 + (x >> 60) as usize;
                vectors.push((0..len).map(|k| x.rotate_left(k as u32)).collect());
            }
            vectors.sort();
            checksum = checksum.wrapping_add(vectors[0][0]);
        }
        black_box(checksum);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        ms
    }

    /// The median of the run's probe times (`host.probe_ms`).
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples_ms)
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}

/// Normalizes raw samples taken between two probes to reference speed.
pub fn normalize(raw: &[f64], k_ref_ms: f64, before_ms: f64, after_ms: f64) -> Vec<f64> {
    let factor = 2.0 * k_ref_ms / (before_ms + after_ms);
    raw.iter().map(|r| r * factor).collect()
}
