//! Integration tests of the `Synthesis` session API: typed partial flows,
//! cooperative cancellation, early-stop statuses, event ordering and the
//! configuration echo.

use stc::pipeline::{
    embedded_corpus, filter_by_names, GateLevelLimits, MachineReport, MachineStatus,
};
use stc::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn by_name(name: &str) -> Mealy {
    stc::fsm::benchmarks::by_name(name).unwrap().machine
}

#[test]
fn decompose_only_is_a_first_class_partial_flow() {
    let session = Synthesis::with_defaults();
    let machine = by_name("shiftreg");
    let decomposition = session.decompose_only(&machine);
    assert!(decomposition.verified);
    assert!(!decomposition.cancelled());
    assert_eq!(decomposition.pipeline_flipflops(), 3);
    // The artifact is self-contained: its solve report matches the one the
    // full flow embeds.
    let report = decomposition.solve_report();
    assert_eq!(report.pipeline_ff, 3);
    assert!(report.realization_verified);
}

#[test]
fn a_flow_resumes_from_a_stored_encoding() {
    let machine = by_name("tav");
    // Produce and "store" the encoding with one session…
    let encoded = {
        let session = Synthesis::with_defaults();
        let decomposition = session.decompose_only(&machine);
        session.encode(&decomposition).unwrap()
    };
    // …then resume from it with a fresh, differently configured session.
    let resumer = Synthesis::builder().patterns_per_session(32).build();
    let netlist = resumer.synthesize_logic(&encoded);
    let plan = resumer.plan_bist(&netlist);
    assert_eq!(plan.result.session1.patterns, 32);
    assert!(plan.result.overall_coverage() > 0.5);
}

/// An observer that requests a stop as soon as the solver reports its first
/// progress tick (i.e. mid-search), recording what it saw.
#[derive(Default)]
struct CancelAfterFirstProgress {
    progress_events: AtomicU64,
}

impl Observer for CancelAfterFirstProgress {
    fn on_event(&self, event: &Event<'_>) {
        if matches!(event, Event::SolverProgress { .. }) {
            self.progress_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn should_cancel(&self) -> bool {
        self.progress_events.load(Ordering::Relaxed) > 0
    }
}

#[test]
fn a_cancelled_search_returns_a_well_formed_typed_result() {
    // `tbk` investigates ~28k nodes under the pipeline defaults, so the
    // first progress tick (every 4096 nodes) lands mid-search.
    let machine = by_name("tbk");
    let observer = Arc::new(CancelAfterFirstProgress::default());
    let session = Synthesis::builder()
        .set("solver.stop_at_lower_bound", "true")
        .unwrap()
        .observer(observer.clone())
        .build();
    let decomposition = session.decompose_only(&machine);

    // Cancellation is cooperative but must be observed mid-search here.
    assert!(decomposition.cancelled(), "the observer's stop was ignored");
    assert!(decomposition.outcome.stats.budget_exhausted);
    let uncancelled = Synthesis::with_defaults().decompose_only(&machine);
    assert!(
        decomposition.outcome.stats.nodes_investigated
            < uncancelled.outcome.stats.nodes_investigated,
        "cancellation did not shorten the search"
    );
    // The typed artifact is still fully usable: best-so-far solution,
    // verified realization (the trivial doubling pair at worst).
    assert!(decomposition.verified);
    assert!(decomposition.outcome.best.cost.s1() <= machine.num_states());
    assert!(observer.progress_events.load(Ordering::Relaxed) >= 1);
}

/// An observer that requests a stop exactly once (armed by the first
/// progress tick, disarmed by the first positive poll) — the "skip the
/// current machine, keep the suite going" shape.
#[derive(Default)]
struct CancelOnce {
    armed: AtomicU64,
}

impl Observer for CancelOnce {
    fn on_event(&self, event: &Event<'_>) {
        if matches!(event, Event::SolverProgress { .. }) {
            self.armed.store(1, Ordering::Relaxed);
        }
    }

    fn should_cancel(&self) -> bool {
        self.armed.swap(0, Ordering::Relaxed) == 1
    }
}

/// A cancellation whose observer has stopped requesting by the time the
/// solve stage returns is still reported `cancelled` — not mistaken for a
/// timeout (no deadline is configured here at all).
#[test]
fn a_non_latching_cancel_is_reported_cancelled_not_timed_out() {
    let corpus = filter_by_names(embedded_corpus(), &["tbk".to_string()]).unwrap();
    let session = Synthesis::builder()
        .jobs(1)
        .observer(Arc::new(CancelOnce::default()))
        .build();
    let run = session.run_suite(&corpus, "cancel-once");
    let tbk = &run.report.machines[0];
    assert_eq!(tbk.status, MachineStatus::Cancelled);
    assert!(tbk.solve.is_some());
}

/// The flow's other early stops keep the solve section too and name their
/// own cause in the status:
///
/// * a zero per-machine timeout fires at the first check after the solve
///   stage: `timeout`, with the solve section present;
/// * a machine beyond the gate-level limits is `solve-only`, with no
///   gate-level sections and the suite summary counting it.
#[test]
fn early_stops_keep_the_solve_section_and_report_their_cause() {
    let small = || {
        Synthesis::builder()
            .max_nodes(10_000)
            .patterns_per_session(32)
            .jobs(1)
    };
    let cases = [
        (
            "tav",
            small().machine_timeout(Some(Duration::ZERO)).build(),
            MachineStatus::TimedOut,
        ),
        (
            "shiftreg",
            small().machine_timeout(Some(Duration::ZERO)).build(),
            MachineStatus::TimedOut,
        ),
        (
            "bbara",
            small()
                .gate_level(GateLevelLimits {
                    max_states: 4,
                    max_inputs: 4,
                })
                .build(),
            MachineStatus::SolveOnly,
        ),
    ];
    for (name, session, status) in cases {
        let corpus = filter_by_names(embedded_corpus(), &[name.to_string()]).unwrap();
        let run = session.run_suite(&corpus, "early-stop");
        let machine = &run.report.machines[0];
        assert_eq!(machine.status, status, "{name}");
        assert!(machine.solve.is_some(), "{name}: the solve section is kept");
        if status == MachineStatus::SolveOnly {
            assert!(machine.logic.is_none() && machine.bist.is_none(), "{name}");
            assert_eq!(run.report.summary.solve_only, 1, "{name}");
        }
    }
}

/// Sleeps 600 ms when bist finishes, past a 500 ms machine timeout.
struct SlowAfterBist;

impl Observer for SlowAfterBist {
    fn on_event(&self, event: &Event<'_>) {
        if let Event::StageFinished { stage: "bist", .. } = event {
            std::thread::sleep(Duration::from_millis(600));
        }
    }
}

/// Runs tav with a 500 ms machine timeout that bist's observer overruns.
fn run_tav_past_bist(coverage: bool) -> MachineReport {
    let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
    let run = Synthesis::builder()
        .coverage(coverage)
        .machine_timeout(Some(Duration::from_millis(500)))
        .observer(Arc::new(SlowAfterBist))
        .jobs(1)
        .build()
        .run_suite(&corpus, "late-timeout");
    run.report.machines.into_iter().next().expect("one machine")
}

/// The machine timeout is checked before every stage after solve, not only
/// after the first gate-level ones: a machine whose deadline passes while
/// bist finishes stops before coverage, keeping the bist section.
#[test]
fn the_machine_timeout_is_checked_after_bist() {
    let tav = run_tav_past_bist(true);
    assert_eq!(tav.status, MachineStatus::TimedOut);
    let bist = tav.bist.as_ref().expect("the bist section is kept");
    assert_eq!(bist.measured_coverage, None, "coverage must not run");
}

/// The machine timeout is checked after the last enabled stage too: an
/// overrun there ends `timeout`, keeping every section, instead of `full`.
#[test]
fn the_machine_timeout_is_checked_after_the_last_stage() {
    let tav = run_tav_past_bist(false);
    assert_eq!(tav.status, MachineStatus::TimedOut);
    assert!(tav.bist.is_some(), "the bist section is kept");
}

/// Under parallel subtree exploration a one-shot cancel can be consumed by
/// a speculative pass whose outcome the reduction discards; the stop must
/// still be reflected in the typed result.
#[test]
fn a_cancel_granted_during_parallel_speculation_is_still_reported() {
    #[derive(Default)]
    struct CancelOnceCounting {
        armed: AtomicU64,
        granted: AtomicU64,
    }
    impl Observer for CancelOnceCounting {
        fn on_event(&self, event: &Event<'_>) {
            if matches!(event, Event::SolverProgress { .. }) {
                self.armed.store(1, Ordering::Relaxed);
            }
        }
        fn should_cancel(&self) -> bool {
            let granted = self.armed.swap(0, Ordering::Relaxed) == 1;
            if granted {
                self.granted.fetch_add(1, Ordering::Relaxed);
            }
            granted
        }
    }
    let machine = by_name("tbk");
    let observer = Arc::new(CancelOnceCounting::default());
    let session = Synthesis::builder()
        .solver_jobs(4)
        .observer(observer.clone())
        .build();
    let decomposition = session.decompose_only(&machine);
    // Whether the one-shot stop lands on a speculative worker or in the
    // reduction is scheduling-dependent; what must hold is that a granted
    // stop is never swallowed.
    if observer.granted.load(Ordering::Relaxed) > 0 {
        assert!(
            decomposition.cancelled(),
            "a granted stop disappeared from the typed result"
        );
    }
    assert!(decomposition.verified);
}

/// Progress events report the approximate *cumulative* node count: the
/// values must track the search's true size, not double-count subtrees.
#[test]
fn solver_progress_counts_track_the_true_node_count() {
    let machine = by_name("tbk");
    #[derive(Default)]
    struct MaxProgress(AtomicU64);
    impl Observer for MaxProgress {
        fn on_event(&self, event: &Event<'_>) {
            if let Event::SolverProgress { nodes, .. } = event {
                self.0.fetch_max(*nodes, Ordering::Relaxed);
            }
        }
    }
    let observer = Arc::new(MaxProgress::default());
    let session = Synthesis::builder().observer(observer.clone()).build();
    let decomposition = session.decompose_only(&machine);
    let investigated = decomposition.outcome.stats.nodes_investigated;
    let reported = observer.0.load(Ordering::Relaxed);
    assert!(
        reported >= stc::synth::PROGRESS_INTERVAL,
        "the search is large enough to tick at least once (saw {reported})"
    );
    assert!(
        reported <= investigated + stc::synth::PROGRESS_INTERVAL,
        "progress {reported} overshoots the {investigated} nodes actually investigated"
    );
}

/// The engine reports subtree-local incumbents, which repeat and regress;
/// the session forwards only strict improvements, so each solve's events
/// count down to the solution it returns.
#[test]
fn incumbent_events_strictly_decrease_to_the_solution() {
    #[derive(Default)]
    struct Incumbents(Mutex<Vec<u32>>);
    impl Observer for Incumbents {
        fn on_event(&self, event: &Event<'_>) {
            if let Event::IncumbentImproved { register_bits, .. } = event {
                self.0.lock().unwrap().push(*register_bits);
            }
        }
    }
    for entry in embedded_corpus() {
        let observer = Arc::new(Incumbents::default());
        let session = Synthesis::builder()
            .solver_jobs(1)
            .observer(observer.clone())
            .build();
        let best = session.decompose_only(&entry.machine).outcome.best;
        let bits = observer.0.lock().unwrap().clone();
        let name = entry.name();
        assert!(
            bits.windows(2).all(|w| w[0] > w[1]),
            "{name}: incumbent events {bits:?} are not strictly decreasing"
        );
        if !best.is_trivial() {
            assert_eq!(bits.last(), Some(&best.cost.register_bits()), "{name}");
        }
    }
}

#[test]
fn a_cancelled_corpus_run_reports_every_machine() {
    let corpus = filter_by_names(
        embedded_corpus(),
        &["tbk".to_string(), "tav".to_string(), "mc".to_string()],
    )
    .unwrap();
    let observer = Arc::new(CancelAfterFirstProgress::default());
    let session = Synthesis::builder().jobs(1).observer(observer).build();
    let run = session.run_suite(&corpus, "cancel-test");
    // The report still covers the full corpus, in corpus order.
    assert_eq!(run.report.machines.len(), 3);
    assert_eq!(run.report.machines[0].name, "mc");
    // `tbk` is last in corpus order here? No: corpus order is embedded order
    // (mc, tav, tbk).  tbk triggers the cancellation; by then mc and tav
    // (1 and 4 nodes) are long done.
    let tbk = &run.report.machines[2];
    assert_eq!(tbk.name, "tbk");
    assert_eq!(tbk.status, MachineStatus::Cancelled);
    assert!(tbk.solve.is_some(), "partial results are kept");
    assert_eq!(run.report.summary.cancelled, 1);
    assert_eq!(run.report.summary.full, 2);
    // The cancelled counter appears in the JSON only when nonzero.
    assert!(run.report.to_json_string().contains("\"cancelled\": 1"));
}

/// Observer recording event lines for ordering assertions, and the summed
/// stage time of each machine.
#[derive(Default)]
struct Recorder {
    lines: Mutex<Vec<String>>,
    stage_time: Mutex<BTreeMap<String, Duration>>,
}

impl Observer for Recorder {
    fn on_event(&self, event: &Event<'_>) {
        let line = match event {
            Event::StageStarted { machine, stage } => format!("{machine}:{stage}:start"),
            Event::StageFinished {
                machine,
                stage,
                elapsed,
            } => {
                *self
                    .stage_time
                    .lock()
                    .unwrap()
                    .entry((*machine).to_string())
                    .or_default() += *elapsed;
                format!("{machine}:{stage}:finish")
            }
            Event::MachineFinished { machine, status } => format!("{machine}:done:{status}"),
            _ => return,
        };
        self.lines.lock().unwrap().push(line);
    }
}

#[test]
fn stage_events_bracket_each_stage_in_order() {
    let observer = Arc::new(Recorder::default());
    let session = Synthesis::builder()
        .patterns_per_session(16)
        .observer(observer.clone())
        .jobs(1)
        .build();
    let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
    let run = session.run_suite(&corpus, "events");
    assert_eq!(run.report.machines[0].status, MachineStatus::Full);
    let events = observer.lines.lock().unwrap().clone();
    assert_eq!(
        events,
        [
            "tav:solve:start",
            "tav:solve:finish",
            "tav:encode:start",
            "tav:encode:finish",
            "tav:logic:start",
            "tav:logic:finish",
            "tav:bist:start",
            "tav:bist:finish",
            "tav:done:full",
        ]
    );
}

/// Events are side-channel only: an observer that never cancels must leave
/// the report byte-identical to an observer-free run.  The stage times the
/// finished events carry add up, per machine, to no more than the machine's
/// own wall-clock timing.
#[test]
fn observers_never_change_the_report() {
    let corpus = filter_by_names(
        embedded_corpus(),
        &[
            "tav".to_string(),
            "shiftreg".to_string(),
            "bbara".to_string(),
        ],
    )
    .unwrap();
    let bare = Synthesis::builder().jobs(2).build().run_suite(&corpus, "s");
    let recorder = Arc::new(Recorder::default());
    let observed = Synthesis::builder()
        .jobs(2)
        .observer(recorder.clone())
        .build()
        .run_suite(&corpus, "s");
    assert_eq!(
        bare.report.to_json_string(),
        observed.report.to_json_string()
    );
    let stage_time = recorder.stage_time.lock().unwrap().clone();
    assert_eq!(stage_time.len(), observed.timings.len());
    for timing in &observed.timings {
        let summed = stage_time[&timing.name];
        assert!(
            summed > Duration::ZERO,
            "{}: stages carry no time",
            timing.name
        );
        assert!(
            summed <= timing.elapsed,
            "{}: stages sum to {summed:?}, the machine took {:?}",
            timing.name,
            timing.elapsed
        );
    }
}

#[test]
fn builder_layers_defaults_profile_and_overrides() {
    let session = Synthesis::builder()
        .profile("[solver]\nmax_nodes = 11111\n[bist]\npatterns = 8\n")
        .unwrap()
        .set("solver.max_nodes", "22222")
        .unwrap()
        .build();
    // The override layer wins over the profile layer…
    assert_eq!(session.config().pipeline.solver.max_nodes, 22222);
    // …which wins over the defaults.
    assert_eq!(session.config().pipeline.patterns_per_session, 8);
    // The effective config is what reports carry, and its echo is what
    // they render.
    let corpus = filter_by_names(embedded_corpus(), &["tav".to_string()]).unwrap();
    let run = session.run_suite(&corpus, "layered");
    assert_eq!(run.report.config.to_json(), session.config().to_json());
    assert_eq!(run.report.config.pipeline.solver.max_nodes, 22222);
    assert_eq!(run.report.config.pipeline.patterns_per_session, 8);
}
