//! Side-channel observation of the OSTR search.
//!
//! A [`SearchObserver`] receives progress callbacks from the engine while a
//! search runs: a tick every [`PROGRESS_INTERVAL`] investigated nodes, a
//! notification when the incumbent solution improves, and a poll that lets
//! the caller request a cooperative stop.  The contract that keeps results
//! reproducible is one-directional information flow: the engine *tells* the
//! observer things, and the only way back in is [`SearchObserver::should_stop`],
//! which behaves exactly like budget exhaustion (the search returns the best
//! solution found so far with [`crate::SearchStats::budget_exhausted`] and
//! [`crate::SearchStats::cancelled`] set).  An observer that never requests a
//! stop is invisible: solution and statistics are byte-identical to an
//! unobserved run.

use crate::cost::Cost;

/// How often [`SearchObserver::on_progress`] fires and
/// [`SearchObserver::should_stop`] is polled inside a subtree, in
/// investigated nodes.
pub const PROGRESS_INTERVAL: u64 = 4096;

/// Receives side-channel events from the OSTR search engine.
///
/// All methods take `&self` and implementations must be [`Sync`]: with
/// [`crate::SolverConfig::parallel_subtrees`] above one, callbacks arrive
/// concurrently from worker threads (in a nondeterministic order — another
/// reason events may never feed back into results).
pub trait SearchObserver: Sync {
    /// Called roughly every [`PROGRESS_INTERVAL`] investigated nodes with the
    /// approximate cumulative node count of the whole search.
    fn on_progress(&self, nodes: u64) {
        let _ = nodes;
    }

    /// Called when a subtree's incumbent solution improves, with the new cost.
    ///
    /// Every top-level subtree is searched with subtree-local state, so this
    /// reports *subtree-local* improvements: a cost may be reported more than
    /// once and not in monotonically improving order — on the serial path
    /// too, and from concurrent workers under parallel subtree exploration.
    /// Callers that want a monotone stream keep a running minimum; the final
    /// solution is the one in the returned [`crate::OstrOutcome`].
    fn on_incumbent(&self, cost: Cost) {
        let _ = cost;
    }

    /// Called once when the node or time budget runs out before the search
    /// completes.
    fn on_budget_exhausted(&self) {}

    /// Polled together with [`Self::on_progress`] and before each top-level
    /// subtree.  Returning `true` requests a cooperative stop: the search
    /// returns its best solution so far, with
    /// [`crate::SearchStats::cancelled`] set.
    fn should_stop(&self) -> bool {
        false
    }
}

/// The default observer: ignores every event and never requests a stop.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSearchObserver;

impl SearchObserver for NullSearchObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_defaults_are_inert() {
        let observer = NullSearchObserver;
        observer.on_progress(1);
        observer.on_incumbent(Cost::new(2, 2));
        observer.on_budget_exhausted();
        assert!(!observer.should_stop());
    }
}
