//! One op: a machine through `Synthesis::run`, untraced or traced.
//!
//! The traced op runs the same `Synthesis::run` on a session carrying a
//! [`StageRecorder`], whose stage events become spans (analyze, solve,
//! encode, logic, BIST session, coverage, optimize, emit), and wraps the
//! report's JSON in a span of its own.  The solve stage has no finer events,
//! so after the op the traced run splits it by calling the solver's public
//! entry points directly: basis, search, and realize plus verify.

use crate::trace::Tracer;
use stc_pipeline::{CorpusEntry, Event, MachineReport, Observer, Synthesis};
use stc_synth::{OstrSolver, PreparedOstr};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Work counts read off the reports of traced ops.
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub ops: u64,
    pub nodes: u64,
    pub pruned: u64,
    pub literals: u64,
    pub fault_patterns: u64,
    pub optimize_candidates: u64,
    pub emit_bytes: u64,
}

/// The untraced op: `Synthesis::run` plus the report's JSON text.
pub fn run_op(session: &Synthesis, entry: &CorpusEntry) -> (MachineReport, String) {
    let report = session.run(entry);
    let json = report.to_json().to_compact();
    (report, json)
}

/// The span name of a pipeline stage.
fn span_name(stage: &str) -> &'static str {
    match stage {
        "solve" => "core.solve",
        "encode" => "encoding",
        "logic" => "logic",
        "bist" => "bist.session",
        "coverage" => "bist.coverage",
        "optimize" => "bist.optimize",
        "emit" => "emit",
        "analyze" => "analyze",
        _ => "stage.other",
    }
}

/// A session observer that keeps each stage's start and end.
#[derive(Default)]
pub struct StageRecorder {
    stages: Mutex<Vec<(&'static str, Instant, Option<Instant>)>>,
}

impl Observer for StageRecorder {
    fn on_event(&self, event: &Event<'_>) {
        let now = Instant::now();
        let mut stages = self.stages.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            Event::StageStarted { stage, .. } => stages.push((span_name(stage), now, None)),
            Event::StageFinished { stage, .. } => {
                let name = span_name(stage);
                if let Some(open) = stages
                    .iter_mut()
                    .rev()
                    .find(|(n, _, end)| *n == name && end.is_none())
                {
                    open.2 = Some(now);
                }
            }
            _ => {}
        }
    }
}

impl StageRecorder {
    fn drain(&self) -> Vec<(&'static str, Instant, Option<Instant>)> {
        std::mem::take(&mut *self.stages.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A session like the workload's, with a [`StageRecorder`] attached.
pub struct TracedFlow {
    session: Synthesis,
    recorder: Arc<StageRecorder>,
}

impl TracedFlow {
    pub fn new(session: &Synthesis) -> Self {
        let recorder = Arc::new(StageRecorder::default());
        let session = Synthesis::builder()
            .config(session.config().clone())
            .observer(recorder.clone())
            .build();
        Self { session, recorder }
    }

    /// Runs one traced op.  Returns the report, its JSON text and the
    /// seconds the op took with its tracing, the solve split excluded.
    pub fn run(
        &self,
        entry: &CorpusEntry,
        tracer: &mut Tracer,
        op: u64,
        counts: &mut LayerCounts,
    ) -> (MachineReport, String, f64) {
        let start = Instant::now();
        tracer.begin("op", op);
        let report = self.session.run(entry);
        let json = tracer.span("pipeline.report_json", op, || report.to_json().to_compact());
        for (name, begin, end) in self.recorder.drain() {
            tracer.record(name, op, begin, end.unwrap_or(begin));
        }
        tracer.end();
        let elapsed = start.elapsed().as_secs_f64();
        self.split_solve(entry, tracer, op);
        count(&report, counts);
        (report, json, elapsed)
    }

    /// The solve stage again, through the solver's own entry points.
    fn split_solve(&self, entry: &CorpusEntry, tracer: &mut Tracer, op: u64) {
        let machine = &entry.machine;
        let solver = OstrSolver::new(self.session.config().pipeline.solver);
        tracer.begin("core.solve_split", op);
        let prepared = tracer.span("partition.basis", op, || PreparedOstr::new(machine));
        let outcome = tracer.span("core.search", op, || solver.solve_prepared(&prepared));
        tracer.span("core.realize_verify", op, || {
            let realization = outcome.best.realize(machine);
            std::hint::black_box(realization.verify(machine).is_none())
        });
        tracer.end();
    }
}

fn count(report: &MachineReport, counts: &mut LayerCounts) {
    counts.ops += 1;
    if let Some(solve) = &report.solve {
        counts.nodes += solve.nodes_investigated;
        counts.pruned += solve.subtrees_pruned + solve.subtrees_bound_pruned;
    }
    if let Some(logic) = &report.logic {
        counts.literals += logic.literals as u64;
    }
    if let Some(bist) = &report.bist {
        counts.fault_patterns += [&bist.session1, &bist.session2]
            .iter()
            .map(|s| (s.total_faults * s.patterns) as u64)
            .sum::<u64>();
    }
    if let Some(optimize) = &report.optimize {
        counts.optimize_candidates +=
            (optimize.session1.candidates + optimize.session2.candidates) as u64;
    }
    if let Some(emit) = &report.emit {
        counts.emit_bytes += emit.modules.iter().map(|m| m.bytes as u64).sum::<u64>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_pipeline::embedded_corpus;

    #[test]
    fn traced_op_matches_the_untraced_one_and_spans_every_stage() {
        let session = Synthesis::builder()
            .coverage(true)
            .optimize(true)
            .emit(true)
            .build();
        let entry = embedded_corpus()
            .into_iter()
            .find(|e| e.name() == "tav")
            .expect("embedded machine");
        let (_, untraced) = run_op(&session, &entry);
        let mut tracer = Tracer::new(Instant::now());
        let mut counts = LayerCounts::default();
        let (_, traced, seconds) =
            TracedFlow::new(&session).run(&entry, &mut tracer, 0, &mut counts);
        assert_eq!(traced, untraced);
        assert!(seconds > 0.0);
        let spans = tracer.self_ms();
        for name in [
            "op",
            "core.solve",
            "encoding",
            "logic",
            "bist.session",
            "bist.coverage",
            "bist.optimize",
            "emit",
            "pipeline.report_json",
            "partition.basis",
            "core.search",
            "core.realize_verify",
        ] {
            assert!(spans.contains_key(name), "no {name} span");
        }
        assert_eq!(counts.ops, 1);
        assert!(counts.nodes > 0 && counts.literals > 0 && counts.emit_bytes > 0);
    }
}
