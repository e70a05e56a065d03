//! Experiment harness: regenerates every table and figure of the paper.
//!
//! The binaries in this crate print the measured counterparts of the paper's
//! evaluation artefacts:
//!
//! * `table1` — Table 1 (OSTR results: factor sizes and flip-flop counts),
//! * `table2` — Table 2 (search-tree size vs. nodes investigated with the
//!   Lemma 1 pruning),
//! * `figure_arch` — the quantitative comparison behind Figs. 1–4
//!   (flip-flops, area, delay, fault coverage of the four architectures).
//!
//! The Criterion benches in `benches/` measure the runtime of the solver, the
//! effect of the pruning, and the substrate components.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scale;

use stc_bist::{evaluate_architectures, ArchitectureOptions, ArchitectureReport};
use stc_fsm::benchmarks::{Benchmark, PaperTable1Row, PaperTable2Row};
use stc_fsm::ceil_log2;
use stc_synth::{OstrOutcome, OstrSolver, SolverConfig};
use std::time::Duration;

/// The result of running the OSTR solver on one benchmark machine, together
/// with the paper-reported reference values.
#[derive(Debug, Clone)]
pub struct OstrExperiment {
    /// Benchmark name.
    pub name: String,
    /// Number of states of the (stand-in) machine.
    pub states: usize,
    /// Measured best first-factor size.
    pub s1: usize,
    /// Measured best second-factor size.
    pub s2: usize,
    /// Flip-flops for a conventional BIST: `2 · ⌈log2 |S|⌉`.
    pub conventional_bist_ff: u32,
    /// Flip-flops for the pipeline structure: `⌈log2 |S1|⌉ + ⌈log2 |S2|⌉`.
    pub pipeline_ff: u32,
    /// `log2` of the full search-tree size (`|𝔐|`).
    pub log2_tree_size: u32,
    /// Nodes investigated by the depth-first search with pruning.
    pub nodes_investigated: u64,
    /// Subtrees discarded by the Lemma 1 criterion.
    pub subtrees_pruned: u64,
    /// Whether the node/time budget was exhausted (best-effort result).
    pub budget_exhausted: bool,
    /// Solver wall-clock time in milliseconds.
    pub elapsed_ms: f64,
    /// Paper-reported Table 1 row, if available.
    pub paper_table1: Option<PaperTable1Row>,
    /// Paper-reported Table 2 row, if available.
    pub paper_table2: Option<PaperTable2Row>,
}

impl OstrExperiment {
    /// `true` if the measured solution is non-trivial (`|S1| < |S|` or
    /// `|S2| < |S|`).
    #[must_use]
    pub fn nontrivial(&self) -> bool {
        self.s1 < self.states || self.s2 < self.states
    }
}

/// Solver configuration used for the table experiments: generous but bounded,
/// mirroring the paper's time-limited run for `tbk`.
#[must_use]
pub fn table_solver_config() -> SolverConfig {
    SolverConfig {
        max_nodes: 500_000,
        time_limit: Some(Duration::from_secs(20)),
        lemma1_pruning: true,
        stop_at_lower_bound: true,
        ..SolverConfig::default()
    }
}

/// Runs the OSTR solver on one benchmark and packages the results.
#[must_use]
pub fn run_ostr_experiment(benchmark: &Benchmark, config: SolverConfig) -> OstrExperiment {
    let outcome: OstrOutcome = OstrSolver::new(config).solve(&benchmark.machine);
    let states = benchmark.machine.num_states();
    OstrExperiment {
        name: benchmark.name().to_string(),
        states,
        s1: outcome.best.cost.s1(),
        s2: outcome.best.cost.s2(),
        conventional_bist_ff: 2 * ceil_log2(states),
        pipeline_ff: outcome.best.cost.register_bits(),
        log2_tree_size: outcome.stats.log2_tree_size(),
        nodes_investigated: outcome.stats.nodes_investigated,
        subtrees_pruned: outcome.stats.subtrees_pruned,
        budget_exhausted: outcome.stats.budget_exhausted,
        elapsed_ms: outcome.stats.elapsed_micros as f64 / 1000.0,
        paper_table1: benchmark.table1,
        paper_table2: benchmark.table2,
    }
}

/// Runs the OSTR solver over the whole benchmark suite (Tables 1 and 2).
#[must_use]
pub fn run_all_ostr_experiments(config: SolverConfig) -> Vec<OstrExperiment> {
    stc_fsm::benchmarks::suite()
        .iter()
        .map(|b| run_ostr_experiment(b, config))
        .collect()
}

/// Formats Table 1 (paper vs. measured) as fixed-width text.
#[must_use]
pub fn format_table1(rows: &[OstrExperiment]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 1: OSTR results (paper -> measured)\n\
         name      |S|   |S1| paper/meas  |S2| paper/meas  conv.BIST FF  pipeline FF paper/meas\n\
         --------------------------------------------------------------------------------------\n",
    );
    for r in rows {
        let (p_s1, p_s2, p_pipe) = r
            .paper_table1
            .map_or((0, 0, 0), |p| (p.s1, p.s2, p.pipeline_ff));
        out.push_str(&format!(
            "{:<9} {:>4}   {:>6}/{:<6}      {:>6}/{:<6}      {:>8}      {:>6}/{:<6}{}\n",
            r.name,
            r.states,
            p_s1,
            r.s1,
            p_s2,
            r.s2,
            r.conventional_bist_ff,
            p_pipe,
            r.pipeline_ff,
            if r.budget_exhausted { "  (budget)" } else { "" }
        ));
    }
    out
}

/// Formats Table 2 (search-tree size vs. nodes investigated) as text.
#[must_use]
pub fn format_table2(rows: &[OstrExperiment]) -> String {
    let mut out = String::new();
    out.push_str(
        "Table 2: impact of the Lemma 1 pruning (paper -> measured)\n\
         name      |S|   log2|V| paper/meas   nodes investigated paper/meas   subtrees pruned\n\
         -------------------------------------------------------------------------------------\n",
    );
    for r in rows {
        let p_log = r
            .paper_table2
            .and_then(|p| p.log2_tree_size)
            .map_or_else(|| "n/a".to_string(), |v| v.to_string());
        let p_nodes = r
            .paper_table2
            .and_then(|p| p.nodes_investigated)
            .map_or_else(|| "n/a".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{:<9} {:>4}   {:>7}/{:<7}      {:>12}/{:<12}      {:>10}\n",
            r.name,
            r.states,
            p_log,
            r.log2_tree_size,
            p_nodes,
            r.nodes_investigated,
            r.subtrees_pruned
        ));
    }
    out
}

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
    fn ostr_experiment_on_a_small_benchmark() {
        let b = stc_fsm::benchmarks::by_name("tav").unwrap();
        let e = run_ostr_experiment(&b, table_solver_config());
        assert_eq!(e.name, "tav");
        assert_eq!(e.states, 4);
        assert_eq!(e.pipeline_ff, 2);
        assert!(e.nontrivial());
        assert!(e.nodes_investigated > 0);
    }

    #[test]
    fn tables_format_without_panicking() {
        let b = stc_fsm::benchmarks::by_name("shiftreg").unwrap();
        let rows = vec![run_ostr_experiment(&b, table_solver_config())];
        let t1 = format_table1(&rows);
        let t2 = format_table2(&rows);
        assert!(t1.contains("shiftreg"));
        assert!(t2.contains("shiftreg"));
    }

    #[test]
    fn architecture_benchmarks_are_a_nonempty_subset() {
        let subset = architecture_benchmarks();
        assert!(!subset.is_empty());
        assert!(subset.len() <= 13);
        assert!(subset.iter().any(|b| b.name() == "shiftreg"));
    }
}
