//! Experiment harness: the architecture comparison behind Figs. 1–4 of the
//! paper, the scale tiers, and the Criterion benches.
//!
//! Tables 1 and 2 (factor sizes and flip-flops; search-tree size against
//! nodes investigated) are reproduced by `stc run --suite embedded`, whose
//! stderr summary prints every paper/measured column.  This crate adds:
//!
//! * `figure_arch` — the quantitative comparison behind Figs. 1–4
//!   (flip-flops, area, delay, fault coverage of the four architectures);
//! * [`scale`] — the planted scale tiers behind the `scale` gate, perfbench's
//!   `solver_scale` workload and the nightly solver oracle;
//! * the benches in `benches/`: the solver and its ablations
//!   (`ostr_solver_v2`), fault simulation and the substrate components
//!   (`fault_sim`), the plan optimizer, the architectures and the serve
//!   load harness, each with a committed `BENCH_<target>.json` baseline,
//!   plus the `scale` gate (determinism and parallel speedup, no baseline).
//!   `STC_BENCH_DIR=<abs dir> cargo bench -p stc-bench` is the perf gate:
//!   each target writes its fresh file there and checks itself against its
//!   committed baseline (see `vendor/criterion`'s `record_baseline`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scale;

use stc_bist::{evaluate_architectures, ArchitectureOptions, ArchitectureReport};
use stc_fsm::benchmarks::Benchmark;
use stc_fsm::ceil_log2;

/// One row of the architecture comparison (Figs. 1–4) for one benchmark.
#[derive(Debug, Clone)]
pub struct ArchitectureExperiment {
    /// Benchmark name.
    pub name: String,
    /// The four reports, in figure order.
    pub reports: Vec<ArchitectureReport>,
}

/// Benchmarks small enough for gate-level fault simulation in the figure
/// experiment (combinational input space of at most `2^12`).
#[must_use]
pub fn architecture_benchmarks() -> Vec<Benchmark> {
    stc_fsm::benchmarks::suite()
        .into_iter()
        .filter(|b| {
            let bits = ceil_log2(b.machine.num_inputs()) + ceil_log2(b.machine.num_states());
            bits <= 12 && b.machine.num_states() <= 16
        })
        .collect()
}

/// Runs the architecture comparison over [`architecture_benchmarks`].
#[must_use]
pub fn run_architecture_experiments(options: &ArchitectureOptions) -> Vec<ArchitectureExperiment> {
    architecture_benchmarks()
        .iter()
        .map(|b| ArchitectureExperiment {
            name: b.name().to_string(),
            reports: evaluate_architectures(&b.machine, options),
        })
        .collect()
}

/// Formats the architecture comparison as text.
#[must_use]
pub fn format_architecture_table(rows: &[ArchitectureExperiment]) -> String {
    let mut out = String::new();
    out.push_str(
        "Architecture comparison (Figs. 1-4): flip-flops / gates / literals / depth / coverage / untestable\n",
    );
    for row in rows {
        out.push_str(&format!("\n{}\n", row.name));
        for r in &row.reports {
            let coverage = r
                .fault_coverage
                .map_or_else(|| "   n/a".to_string(), |c| format!("{:6.2}%", 100.0 * c));
            out.push_str(&format!(
                "  {:<26} FF={:<3} gates={:<5} literals={:<6} depth={:<3} coverage={} untestable={}\n",
                r.architecture.name(),
                r.flipflops,
                r.gate_count,
                r.literal_count,
                r.logic_depth,
                coverage,
                r.untestable_faults
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn architecture_benchmarks_are_a_nonempty_subset() {
        let subset = architecture_benchmarks();
        assert!(!subset.is_empty());
        assert!(subset.len() <= 13);
        assert!(subset.iter().any(|b| b.name() == "shiftreg"));
    }
}
