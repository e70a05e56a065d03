//! Side-channel progress events and cooperative cancellation for the
//! [`crate::Synthesis`] session.
//!
//! An [`Observer`] receives [`Event`]s while a session runs — stage
//! boundaries (each finish carrying the stage's wall-clock time), solver
//! progress ticks, incumbent improvements, budget exhaustion — and is
//! polled for cancellation between units of work.  The
//! determinism contract mirrors the engine-level
//! [`stc_synth::SearchObserver`]: information flows one way (session →
//! observer), and the only path back is [`Observer::should_cancel`], which
//! stops the flow cooperatively and is always reflected in the *typed
//! result* (a cancelled solve reports [`stc_synth::SearchStats::cancelled`];
//! a cancelled corpus run marks unstarted machines
//! [`crate::MachineStatus::Cancelled`]).  An observer that never cancels is
//! invisible: reports are byte-identical with or without it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A progress event emitted by a [`crate::Synthesis`] session.
///
/// Events borrow the machine name: they are ephemeral notifications, not
/// artifacts, and must be copied out by observers that want to keep them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event<'a> {
    /// A stage began for a machine.
    StageStarted {
        /// Machine name.
        machine: &'a str,
        /// Stage name: a [`crate::Stage::name`] of a [`crate::Stage::ALL`]
        /// row.
        stage: &'static str,
    },
    /// A stage completed for a machine.
    StageFinished {
        /// Machine name.
        machine: &'a str,
        /// Stage name: a [`crate::Stage::name`] of a [`crate::Stage::ALL`]
        /// row.
        stage: &'static str,
        /// Wall-clock time of the stage, measured once by the session: from
        /// the return of its `StageStarted` callback to just before this
        /// event.  Stages never overlap within a machine, so a machine's
        /// summed stage times stay within its [`crate::MachineTiming`].
        elapsed: Duration,
    },
    /// The OSTR search crossed another [`stc_synth::PROGRESS_INTERVAL`]
    /// nodes (approximate cumulative count; see
    /// [`stc_synth::SearchObserver::on_progress`]).
    SolverProgress {
        /// Machine name.
        machine: &'a str,
        /// Approximate nodes investigated so far on this machine.
        nodes: u64,
    },
    /// The solver found a solution with fewer register bits than any
    /// reported before for this machine: per solve, these events are
    /// strictly decreasing in `register_bits`, also under parallel search.
    IncumbentImproved {
        /// Machine name.
        machine: &'a str,
        /// Register bits `⌈log2|S1|⌉ + ⌈log2|S2|⌉` of the new incumbent.
        register_bits: u32,
    },
    /// The solver's node or time budget ran out before the search completed.
    BudgetExhausted {
        /// Machine name.
        machine: &'a str,
    },
    /// The plan optimizer evaluated one candidate pattern source
    /// ([`crate::Synthesis::optimize_plan`]).
    OptimizeCandidate {
        /// Machine name.
        machine: &'a str,
        /// Block under test (`C1` or `C2`).
        block: &'a str,
        /// Candidate index in the deterministic enumeration order.
        candidate: usize,
        /// Minimal session length reaching the coverage target, when the
        /// candidate reached it within its simulation window.
        length: Option<usize>,
        /// Coverage the candidate achieved within its window.
        coverage: f64,
    },
    /// A candidate became the plan optimizer's new incumbent — the shortest
    /// session so far to reach the coverage target.
    OptimizeIncumbent {
        /// Machine name.
        machine: &'a str,
        /// Block under test (`C1` or `C2`).
        block: &'a str,
        /// Candidate index of the new incumbent.
        candidate: usize,
        /// The incumbent's session length.
        length: usize,
    },
    /// A machine's flow finished (any status, including errors/timeouts).
    MachineFinished {
        /// Machine name.
        machine: &'a str,
        /// The status string of the machine's report (the
        /// [`crate::MachineStatus::as_json_str`] value).
        status: &'a str,
    },
}

impl Event<'_> {
    /// The machine this event concerns.
    #[must_use]
    pub fn machine(&self) -> &str {
        match self {
            Event::StageStarted { machine, .. }
            | Event::StageFinished { machine, .. }
            | Event::SolverProgress { machine, .. }
            | Event::IncumbentImproved { machine, .. }
            | Event::BudgetExhausted { machine }
            | Event::OptimizeCandidate { machine, .. }
            | Event::OptimizeIncumbent { machine, .. }
            | Event::MachineFinished { machine, .. } => machine,
        }
    }
}

/// Receives session events and answers cancellation polls.
///
/// Implementations must be `Send + Sync`: with a parallel corpus runner (or
/// parallel subtree exploration inside the solver) events arrive
/// concurrently from worker threads, in a nondeterministic order.  Event
/// *content* for a given machine is still deterministic for stage
/// boundaries; solver progress ticks are approximate by design.
pub trait Observer: Send + Sync {
    /// Called for every [`Event`].  The default does nothing.
    fn on_event(&self, event: &Event<'_>) {
        let _ = event;
    }

    /// Polled between units of work (solver progress intervals, stage
    /// boundaries, corpus items).  Returning `true` requests a cooperative
    /// stop; in-flight stages finish via the solver's cancellation path and
    /// the session returns well-formed partial results.
    fn should_cancel(&self) -> bool {
        false
    }
}

/// The default observer: ignores every event, never cancels.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// A thread-safe cancellation latch, usable directly as an [`Observer`] or
/// composed into one.
///
/// ```
/// use stc_pipeline::CancelFlag;
///
/// let flag = CancelFlag::new();
/// assert!(!flag.is_cancelled());
/// flag.cancel();
/// assert!(flag.is_cancelled());
/// ```
#[derive(Debug, Default)]
pub struct CancelFlag(AtomicBool);

impl CancelFlag {
    /// Creates an un-cancelled flag.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an un-cancelled flag behind an [`Arc`], ready to be shared
    /// between the requesting thread and a session observer.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Requests cancellation.  Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

impl Observer for CancelFlag {
    fn should_cancel(&self) -> bool {
        self.is_cancelled()
    }
}

impl<T: Observer + ?Sized> Observer for Arc<T> {
    fn on_event(&self, event: &Event<'_>) {
        (**self).on_event(event);
    }

    fn should_cancel(&self) -> bool {
        (**self).should_cancel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_inert() {
        let observer = NullObserver;
        observer.on_event(&Event::StageStarted {
            machine: "tav",
            stage: "solve",
        });
        assert!(!observer.should_cancel());
    }

    #[test]
    fn cancel_flag_latches_and_answers_polls() {
        let flag = CancelFlag::shared();
        assert!(!Observer::should_cancel(&flag));
        flag.cancel();
        flag.cancel();
        assert!(Observer::should_cancel(&flag));
    }

    #[test]
    fn events_expose_their_machine() {
        let events = [
            Event::StageStarted {
                machine: "a",
                stage: "solve",
            },
            Event::SolverProgress {
                machine: "a",
                nodes: 4096,
            },
            Event::IncumbentImproved {
                machine: "a",
                register_bits: 3,
            },
            Event::BudgetExhausted { machine: "a" },
            Event::OptimizeCandidate {
                machine: "a",
                block: "C1",
                candidate: 0,
                length: Some(4),
                coverage: 1.0,
            },
            Event::OptimizeIncumbent {
                machine: "a",
                block: "C1",
                candidate: 0,
                length: 4,
            },
            Event::MachineFinished {
                machine: "a",
                status: "full",
            },
        ];
        assert!(events.iter().all(|e| e.machine() == "a"));
    }
}
