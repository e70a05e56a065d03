//! The iterative branch-and-bound search core behind [`crate::OstrSolver`].
//!
//! The paper's depth-first search over subsets of the symmetric-pair basis is
//! implemented here as an *explicit-stack* loop over one κ-pair per worker,
//! joined in place and taken back with an undo trail
//! (`stc_partition::TrailedPair`), so the hot path performs no recursion and
//! no per-node allocation.  A frame holds the trail mark at which the pair
//! is its κ; a child `κ ∨ basis[k]` is decided before anything is written:
//! `merges` unions κ's blocks along `basis[k]`'s precomputed generator edges
//! in scratch, so zero merges on both sides identifies a duplicate and κ's
//! block counts minus the merges feed the bound check.  Only a child that
//! survives those checks and the pairwise Lemma 1 prefilter is applied,
//! relabelling just the smaller block of each merge, and judged by
//! `meets_since` on the merged blocks alone — the full Lemma 1 check,
//! because a κ that is expanded with `lemma1_pruning` on met it, and a κ
//! that did not (pruning off) passes its verdict down.  The next child
//! first undoes back to its parent's mark.
//!
//! Four layers sit on top of the faithful Lemma 1 search:
//!
//! * **Pairwise Lemma 1 prefilter** (with `SolverConfig::lemma1_pruning`).
//!   If `basis[j] ∨ basis[k]` already fails `π ∩ τ ⊆ ε` for some `j` on the
//!   DFS path, or for `j = k`, the child `κ ∨ basis[k] ≥ basis[j] ∨
//!   basis[k]` fails too — the intersection only grows under joins — so it
//!   is counted and pruned exactly as an applied failing child would be,
//!   without being applied.  [`PairVerdicts`] caches the pairwise
//!   verdicts per worker.
//! * **Branch and bound** (`SolverConfig::branch_and_bound`).  Joins only
//!   coarsen, so every descendant of a node with block counts `(c1, c2)` has
//!   component sizes `a ≤ c1`, `b ≤ c2`; a solution additionally needs
//!   `a · b ≥ |S/ε|` (the meet must refine ε).  [`BoundTable`] precomputes,
//!   for every `(c1, c2)`, the minimum achievable [`Cost`] over that feasible
//!   rectangle with an `O(n²)` dynamic program; a subtree is discarded when
//!   its bound cannot *strictly* beat an incumbent that occurs earlier in
//!   DFS order, which provably never changes the reported solution — up to
//!   the exact-cost-tie corner of the `stop_at_lower_bound` early stop,
//!   whose interaction is analysed in `DESIGN.md` §5.
//! * **Deterministic subtree decomposition.**  The root's children (one per
//!   basis element) partition the search tree into independent subtrees.
//!   Each subtree is searched with subtree-local state only — its pruning
//!   incumbent is seeded from the trivial solution and the prefix of
//!   top-level candidates, never from a concurrently discovered result — so
//!   a subtree's outcome is a pure function of `(machine, config, index,
//!   node budget)`.
//! * **Parallel subtree exploration** (`SolverConfig::parallel_subtrees`).
//!   Workers (the calling thread and `jobs - 1` scoped threads) claim
//!   top-level subtree indices from one atomic counter, search
//!   each whole subtree speculatively with the full node budget and publish
//!   the outcome into a per-index slot.  Workers share the incumbent through
//!   an atomic best-cost word used for work-skipping and cancellation only.
//!   The deterministic reduction in [`merge_subtrees`] replays the serial
//!   schedule: results are folded in basis order, a subtree whose
//!   speculative run overshot the serial node budget is re-searched with the
//!   exact remaining budget, and anything the reduction decides to skip is
//!   simply discarded — so the solution *and* the statistics are
//!   byte-identical to a serial run.  The speedup is capped by the largest
//!   subtree's share of the nodes; `DESIGN.md` §12 has the measurements.

use crate::cost::Cost;
use crate::observe::{SearchObserver, PROGRESS_INTERVAL};
use crate::solver::{OstrSolution, SolverConfig};
use stc_partition::{JoinEdges, PackedPartition, Partition, Side, TrailedPair};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Counters produced by the search, folded into
/// [`crate::SearchStats`] by the solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EngineStats {
    pub nodes: u64,
    pub pruned: u64,
    pub bound_pruned: u64,
    pub solutions: u64,
    pub exhausted: bool,
    pub cancelled: bool,
}

/// The immutable description of one OSTR search, shared across worker
/// threads.
pub(crate) struct SearchProblem<'a> {
    /// `|S|` of the machine.
    n: usize,
    /// The state-equivalence partition ε, packed.
    eps: PackedPartition,
    /// The symmetric-pair basis as the search uses it (same order as
    /// `general_basis`).
    basis: Vec<Element>,
    /// The basis in its general representation (for reporting solutions).
    general_basis: &'a [(Partition, Partition)],
    config: SolverConfig,
    deadline: Option<Instant>,
    /// The side-channel observer.  Its callbacks never feed back into the
    /// result except through `should_stop`, which behaves exactly like
    /// budget exhaustion.
    observer: &'a dyn SearchObserver,
    /// Approximate cumulative node count across all subtrees (and, in
    /// parallel mode, all workers), reported to the observer's progress
    /// callback.  Never read by the search itself.
    progress: AtomicU64,
    /// Latched whenever any `should_stop` poll answered `true` — including
    /// polls consumed by a speculative parallel pass whose outcome the
    /// reduction later discards — so a requested stop is always reflected
    /// in the final statistics.
    stop_seen: AtomicBool,
    /// Cost lower bounds per block-count pair (present iff branch and bound
    /// is enabled).
    bound: Option<BoundTable>,
    /// `seeds[k]`: the best normalized cost among the trivial solution and
    /// the top-level candidates `basis[0..=k]` that meet ε — every one of
    /// them occurs no later than subtree `k`'s root in DFS order, so it is a
    /// sound pruning incumbent for subtree `k` (present iff branch and bound
    /// is enabled).
    seeds: Vec<Cost>,
}

/// The lower-bound table of the branch-and-bound layer.
///
/// `lower(a, b)` is `min { cost'(a', b') : a' ≤ a, b' ≤ b, a'·b' ≥ E }`
/// where `cost'` is the orientation-normalized [`Cost`] and `E = |S/ε|`;
/// `None` means the rectangle contains no feasible pair at all (no
/// descendant can satisfy `π ∩ τ ⊆ ε`).
struct BoundTable {
    n: usize,
    cells: Vec<Option<Cost>>,
}

impl BoundTable {
    fn new(n: usize, eps_blocks: usize) -> Self {
        let w = n + 1;
        let mut cells: Vec<Option<Cost>> = vec![None; w * w];
        for a in 1..=n {
            for b in 1..=n {
                let mut best = if a * b >= eps_blocks {
                    Some(normalized_cost(a, b))
                } else {
                    None
                };
                for neighbour in [cells[(a - 1) * w + b], cells[a * w + b - 1]] {
                    best = match (best, neighbour) {
                        (Some(x), Some(y)) => Some(x.min(y)),
                        (x, y) => x.or(y),
                    };
                }
                cells[a * w + b] = best;
            }
        }
        Self { n, cells }
    }

    fn lower(&self, a: usize, b: usize) -> Option<Cost> {
        self.cells[a * (self.n + 1) + b]
    }
}

/// A basis element as the search uses it.
struct Element {
    /// The generator edges of `π` and of `τ`.
    edges: [JoinEdges; 2],
    /// The block counts of `π` and of `τ`.
    blocks: [usize; 2],
    /// Whether the element meets `π ∩ τ ⊆ ε` on its own.
    meets: bool,
}

/// Joins `elem` into both sides of `pair`.
fn apply(pair: &mut TrailedPair, elem: &Element) {
    for side in Side::BOTH {
        pair.apply(side, &elem.edges[side as usize]);
    }
}

/// The orientation-normalized cost of a factor-size pair: the solver may use
/// a symmetric pair in either orientation and picks the better one.
fn normalized_cost(c1: usize, c2: usize) -> Cost {
    Cost::new(c1, c2).min(Cost::new(c2, c1))
}

impl<'a> SearchProblem<'a> {
    pub(crate) fn new(
        n: usize,
        eps: &Partition,
        basis: &'a [(Partition, Partition)],
        config: SolverConfig,
        deadline: Option<Instant>,
        observer: &'a dyn SearchObserver,
    ) -> Self {
        let eps_packed = PackedPartition::from_partition(eps);
        // The identity pair meets Lemma 1, so each element's own verdict is
        // `meets_since(0)` after joining it into the identity.
        let mut pair = TrailedPair::new(n);
        let elements: Vec<Element> = basis
            .iter()
            .map(|(pi, tau)| {
                let mut elem = Element {
                    edges: [pi, tau].map(|p| JoinEdges::of(&PackedPartition::from_partition(p))),
                    blocks: [pi.num_blocks(), tau.num_blocks()],
                    meets: false,
                };
                apply(&mut pair, &elem);
                elem.meets = pair.meets_since(0, &eps_packed);
                pair.undo_to(0);
                elem
            })
            .collect();
        let (bound, seeds) = if config.branch_and_bound {
            let bound = BoundTable::new(n, eps.num_blocks());
            let mut current = Cost::trivial(n);
            let seeds = elements
                .iter()
                .map(|elem| {
                    if elem.meets {
                        current = current.min(normalized_cost(elem.blocks[0], elem.blocks[1]));
                    }
                    current
                })
                .collect();
            (Some(bound), seeds)
        } else {
            (None, Vec::new())
        };
        Self {
            n,
            eps: eps_packed,
            basis: elements,
            general_basis: basis,
            config,
            deadline,
            observer,
            progress: AtomicU64::new(0),
            stop_seen: AtomicBool::new(false),
            bound,
            seeds,
        }
    }

    fn trivial_solution(&self) -> OstrSolution {
        OstrSolution {
            pi: Partition::identity(self.n),
            tau: Partition::identity(self.n),
            cost: Cost::trivial(self.n),
        }
    }
}

/// One explicit-stack frame: the trail mark at which the worker's pair is
/// its κ, whether κ meets Lemma 1, the basis index that was joined last to
/// reach it, and the next basis index to try as a child.  The frame stack
/// is exactly the current DFS path, so the `elem`s of the frames are the
/// basis elements κ is the join of.
#[derive(Debug, Clone, Copy)]
struct Frame {
    mark: u32,
    meets: bool,
    elem: u32,
    next: u32,
}

/// The most entries a [`PairVerdicts`] table holds (128 KiB of `u64`s).
const MAX_VERDICT_SLOTS: usize = 1 << 14;

/// A [`PairVerdicts`] slot that holds no verdict.
const EMPTY_VERDICT: u64 = u64::MAX;

/// Per-worker cache of pairwise Lemma 1 verdicts: does `basis[j] ∨
/// basis[k]` fail `π ∩ τ ⊆ ε`?
///
/// Direct-mapped on the key `j·B + k` with the full key as its tag, so a
/// collision only costs a recompute.  The table has the next power of two
/// at or above `B²` slots, capped at [`MAX_VERDICT_SLOTS`], and is
/// allocated with its pair on the first lookup, so a search that never
/// prefilters pays nothing and a small basis gets a small table.
struct PairVerdicts {
    /// `key << 1 | fails`, or [`EMPTY_VERDICT`].
    slots: Vec<u64>,
    /// The identity pair between verdicts.
    pair: TrailedPair,
}

impl PairVerdicts {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            pair: TrailedPair::new(0),
        }
    }

    /// `true` iff `basis[j] ∨ basis[k]` fails `π ∩ τ ⊆ ε`.
    fn fails(&mut self, p: &SearchProblem<'_>, j: usize, k: usize) -> bool {
        let b = p.basis.len();
        if self.slots.is_empty() {
            let slots = (b * b).next_power_of_two().min(MAX_VERDICT_SLOTS);
            self.slots = vec![EMPTY_VERDICT; slots];
            self.pair = TrailedPair::new(p.n);
        }
        let key = (j * b + k) as u64;
        let slot = key as usize & (self.slots.len() - 1);
        let entry = self.slots[slot];
        if entry != EMPTY_VERDICT && entry >> 1 == key {
            return entry & 1 == 1;
        }
        apply(&mut self.pair, &p.basis[j]);
        apply(&mut self.pair, &p.basis[k]);
        let fails = !self.pair.meets_since(0, &p.eps);
        self.pair.undo_to(0);
        self.slots[slot] = key << 1 | u64::from(fails);
        fails
    }
}

/// Per-thread reusable search state: the in-place κ with its undo trail,
/// the DFS frame stack and the pairwise verdict cache.  All growth is
/// high-water-marked, so steady-state subtree searches allocate nothing
/// but the write-out of a new incumbent.
pub(crate) struct Workspace {
    pair: TrailedPair,
    verdicts: PairVerdicts,
    frames: Vec<Frame>,
}

impl Workspace {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            pair: TrailedPair::new(n),
            verdicts: PairVerdicts::new(),
            frames: Vec::new(),
        }
    }
}

/// The complete outcome of one subtree search.
#[derive(Debug, Clone, Default)]
pub(crate) struct SubtreeOutcome {
    stats: EngineStats,
    lb_hit: bool,
    /// Best solution found in the subtree (normalized orientation), if any
    /// candidate beat the trivial cost.
    best: Option<(Cost, Partition, Partition)>,
}

/// Shared cancellation / work-skipping state for the parallel runner.  It
/// never influences a merged result — only whether speculative work is
/// started or abandoned — which is what keeps the parallel search
/// deterministic.
struct CancelState {
    /// Smallest subtree index known to stop the search at the lower bound;
    /// subtrees with larger indices will be discarded by the reduction.
    lb_floor: AtomicUsize,
    /// Best solution register-bit count found by any worker so far (the
    /// shared incumbent).
    best_bits: AtomicU32,
}

impl CancelState {
    fn new(n: usize) -> Self {
        Self {
            lb_floor: AtomicUsize::new(usize::MAX),
            best_bits: AtomicU32::new(Cost::trivial(n.max(1)).register_bits()),
        }
    }

    /// `true` when a speculative pass over subtree `k0` should abandon its
    /// work because the reduction will discard it past the lower-bound stop.
    fn discards(&self, k0: usize) -> bool {
        self.lb_floor.load(Ordering::Relaxed) < k0
    }

    /// `true` when a speculative pass over subtree `k0` should not start:
    /// the reduction discards it, or — shared-incumbent work skipping — even
    /// the subtree root's bound cannot beat the best register-bit count any
    /// worker has published, so the reduction will almost surely prune it.
    /// Skipping is always safe because the reduction re-searches on demand.
    fn skips(&self, p: &SearchProblem<'_>, k0: usize) -> bool {
        self.discards(k0)
            || p.bound.as_ref().is_some_and(|bound| {
                let [c1, c2] = p.basis[k0].blocks;
                bound
                    .lower(c1, c2)
                    .is_none_or(|lb| lb.register_bits() > self.best_bits.load(Ordering::Relaxed))
            })
    }

    /// Shares a finished speculative pass over subtree `k0` with the other
    /// workers: its incumbent and, if it reached the lower bound, the floor
    /// past which the reduction discards everything.
    fn publish(&self, p: &SearchProblem<'_>, k0: usize, outcome: &SubtreeOutcome) {
        if let Some((cost, _, _)) = &outcome.best {
            self.best_bits
                .fetch_min(cost.register_bits(), Ordering::Relaxed);
        }
        if outcome.lb_hit && p.config.stop_at_lower_bound {
            self.lb_floor.fetch_min(k0, Ordering::Relaxed);
        }
    }
}

/// Budget/deadline/observer check, mirroring the recursive implementation:
/// the node budget is checked on every call, the wall clock only every 256
/// nodes, and the observer is ticked every [`PROGRESS_INTERVAL`] local
/// nodes (`mark` remembers the node count of the last tick; the ticked
/// delta is folded into the shared cumulative counter).  A stop requested
/// by the observer behaves exactly like budget exhaustion, plus the
/// `cancelled` marker.
fn out_of_budget(
    p: &SearchProblem<'_>,
    stats: &mut EngineStats,
    budget: u64,
    mark: &mut u64,
) -> bool {
    if stats.nodes >= budget {
        stats.exhausted = true;
        return true;
    }
    if stats.nodes - *mark >= PROGRESS_INTERVAL {
        let delta = stats.nodes - *mark;
        *mark = stats.nodes;
        let total = p.progress.fetch_add(delta, Ordering::Relaxed) + delta;
        p.observer.on_progress(total);
        if p.observer.should_stop() {
            p.stop_seen.store(true, Ordering::Relaxed);
            stats.exhausted = true;
            stats.cancelled = true;
            return true;
        }
    }
    if let Some(d) = p.deadline {
        if stats.nodes.is_multiple_of(256) && Instant::now() >= d {
            stats.exhausted = true;
            return true;
        }
    }
    false
}

/// Flushes a subtree's not-yet-ticked tail of nodes (those since its last
/// in-subtree progress tick) into the shared cumulative counter, so a
/// search pass contributes each of its nodes once regardless of subtree
/// size.  (In parallel mode a subtree can be searched more than once —
/// speculatively and again by the reduction — so cumulative progress can
/// overshoot there; it is approximate by contract.)  No observer tick here
/// — the merge loop decides when the *global* count has crossed another
/// interval.
fn flush_progress(p: &SearchProblem<'_>, nodes: u64, mark: u64) {
    if nodes > mark {
        p.progress.fetch_add(nodes - mark, Ordering::Relaxed);
    }
}

/// Evaluates the candidate κ (the worker's pair) given its Lemma 1
/// verdict: counts it if it is a solution (`π ∩ τ ⊆ ε`) and writes it out
/// into `out.best` on strict improvement.
fn eval_candidate(
    p: &SearchProblem<'_>,
    pair: &TrailedPair,
    meets: bool,
    out: &mut SubtreeOutcome,
) {
    if !meets {
        return;
    }
    out.stats.solutions += 1;
    let (c1, c2) = (pair.num_blocks(Side::Pi), pair.num_blocks(Side::Tau));
    let forward = Cost::new(c1, c2);
    let backward = Cost::new(c2, c1);
    let (cost, swapped) = if forward <= backward {
        (forward, false)
    } else {
        (backward, true)
    };
    let incumbent = out
        .best
        .as_ref()
        .map_or(Cost::trivial(p.n.max(1)), |best| best.0);
    if cost < incumbent {
        let (pi, tau) = (pair.partition(Side::Pi), pair.partition(Side::Tau));
        out.best = Some(if swapped {
            (cost, tau, pi)
        } else {
            (cost, pi, tau)
        });
        p.observer.on_incumbent(cost);
        if c1 * c2 == p.n && cost.register_bits() == stc_fsm::ceil_log2(p.n) {
            out.lb_hit = true;
        }
    }
}

/// Searches the subtree rooted at the root's child `κ = basis[k0]`, visiting
/// at most `budget` nodes.  Returns `None` only when `cancel` signalled that
/// the result will be discarded by the reduction.
fn search_subtree(
    p: &SearchProblem<'_>,
    ws: &mut Workspace,
    k0: usize,
    budget: u64,
    cancel: Option<&CancelState>,
) -> Option<SubtreeOutcome> {
    let cfg = &p.config;
    let mut out = SubtreeOutcome::default();
    let mut progress_mark = 0u64;
    ws.frames.clear();
    ws.pair.undo_to(0);
    let prune_seed = if p.bound.is_some() {
        p.seeds[k0]
    } else {
        Cost::trivial(p.n)
    };

    if budget == 0 {
        out.stats.exhausted = true;
        return Some(out);
    }
    let root = &p.basis[k0];
    apply(&mut ws.pair, root);
    out.stats.nodes = 1;
    eval_candidate(p, &ws.pair, root.meets, &mut out);
    let expand = if cfg.lemma1_pruning && !root.meets {
        out.stats.pruned += 1;
        false
    } else {
        !(out.lb_hit && cfg.stop_at_lower_bound)
    };
    if expand {
        ws.frames.push(Frame {
            mark: ws.pair.mark() as u32,
            meets: root.meets,
            elem: k0 as u32,
            next: (k0 + 1) as u32,
        });
    }

    let b_len = p.basis.len() as u32;
    while let Some(frame) = ws.frames.last_mut() {
        if frame.next >= b_len {
            ws.frames.pop();
            continue;
        }
        let k = frame.next as usize;
        frame.next += 1;
        let (mark, parent_meets) = (frame.mark as usize, frame.meets);
        // Take back the previous child and any finished descendants.
        ws.pair.undo_to(mark);
        if out_of_budget(p, &mut out.stats, budget, &mut progress_mark) {
            break;
        }
        if let Some(cancel) = cancel {
            if out.stats.nodes.is_multiple_of(1024) && cancel.discards(k0) {
                return None; // this subtree will be discarded — stop early
            }
        }
        let elem = &p.basis[k];
        let merges_pi = ws.pair.merges(Side::Pi, &elem.edges[0]);
        let merges_tau = ws.pair.merges(Side::Tau, &elem.edges[1]);
        if merges_pi == 0 && merges_tau == 0 {
            // The basis element is already below κ; the child duplicates it.
            continue;
        }
        let c1 = ws.pair.num_blocks(Side::Pi) - merges_pi;
        let c2 = ws.pair.num_blocks(Side::Tau) - merges_tau;
        if let Some(bound) = &p.bound {
            let incumbent = out
                .best
                .as_ref()
                .map_or(prune_seed, |best| best.0.min(prune_seed));
            let beatable = bound.lower(c1, c2).is_some_and(|lb| lb < incumbent);
            if !beatable {
                out.stats.bound_pruned += 1;
                continue;
            }
        }
        out.stats.nodes += 1;
        if cfg.lemma1_pruning
            && std::iter::once(k)
                .chain(ws.frames.iter().map(|f| f.elem as usize))
                .any(|j| ws.verdicts.fails(p, j, k))
        {
            if cfg!(debug_assertions) {
                apply(&mut ws.pair, elem);
                debug_assert!(
                    !(parent_meets && ws.pair.meets_since(mark, &p.eps)),
                    "a pairwise-prefiltered child must fail Lemma 1"
                );
            }
            out.stats.pruned += 1;
            continue;
        }
        apply(&mut ws.pair, elem);
        debug_assert_eq!(
            (ws.pair.num_blocks(Side::Pi), ws.pair.num_blocks(Side::Tau)),
            (c1, c2),
            "counted merges must match the applied join"
        );
        let meets = parent_meets && ws.pair.meets_since(mark, &p.eps);
        eval_candidate(p, &ws.pair, meets, &mut out);
        if cfg.lemma1_pruning && !meets {
            out.stats.pruned += 1;
            continue;
        }
        if out.lb_hit && cfg.stop_at_lower_bound {
            continue;
        }
        ws.frames.push(Frame {
            mark: ws.pair.mark() as u32,
            meets,
            elem: k as u32,
            next: (k + 1) as u32,
        });
    }

    flush_progress(p, out.stats.nodes, progress_mark);
    Some(out)
}

/// The deterministic reduction: folds subtree outcomes in basis order,
/// replaying the serial schedule exactly.
///
/// `provide` must return the outcome of subtree `k` searched with the given
/// node budget; the serial runner computes it on the spot, the parallel
/// runner serves a speculative full-budget result when it is provably
/// equivalent and re-searches otherwise.
fn merge_subtrees(
    p: &SearchProblem<'_>,
    ws: &mut Workspace,
    mut provide: impl FnMut(usize, u64, &mut Workspace) -> SubtreeOutcome,
) -> (OstrSolution, EngineStats) {
    let cfg = &p.config;
    let mut stats = EngineStats::default();
    let mut best = p.trivial_solution();

    // The root node: the empty subset, κ = (0, 0).  Its candidate is the
    // trivial solution, which never strictly improves on itself.
    if cfg.max_nodes == 0 {
        stats.exhausted = true;
        return (best, stats);
    }
    stats.nodes = 1;
    stats.solutions = 1;

    // After the lower bound has been reached (`stop_at_lower_bound`), the
    // remaining top-level children are still evaluated as candidates but
    // their subtrees are not expanded — mirroring the recursive search.
    let mut tail_mode = false;
    // Global progress total at this loop's last observer tick, and the
    // merge loop's own nodes (root + tail-mode candidates) not yet folded
    // into the shared counter.  Subtree nodes reach the counter inside
    // `search_subtree` (ticked intervals) and via its exit flush — exactly
    // once per search pass, so serial progress tracks `stats.nodes`
    // closely, while parallel re-searched or discarded speculative passes
    // can push the (approximate-by-contract) total higher; this loop only
    // decides when the global total has crossed another interval.
    let mut last_tick = 0u64;
    let mut unflushed = 1u64; // the root node
    for k in 0..p.basis.len() {
        if stats.nodes >= cfg.max_nodes {
            stats.exhausted = true;
            break;
        }
        if let Some(d) = p.deadline {
            if Instant::now() >= d {
                stats.exhausted = true;
                break;
            }
        }
        // Progress and a cooperative-stop poll once per top-level subtree,
        // so cancellation is prompt even when the remaining subtrees are
        // all small ones that never cross the in-subtree interval.
        let total = if unflushed > 0 {
            let total = p.progress.fetch_add(unflushed, Ordering::Relaxed) + unflushed;
            unflushed = 0;
            total
        } else {
            p.progress.load(Ordering::Relaxed)
        };
        if total - last_tick >= PROGRESS_INTERVAL {
            last_tick = total;
            p.observer.on_progress(total);
        }
        if p.observer.should_stop() {
            p.stop_seen.store(true, Ordering::Relaxed);
            stats.exhausted = true;
            stats.cancelled = true;
            break;
        }
        if tail_mode {
            stats.nodes += 1;
            unflushed += 1;
            let elem = &p.basis[k];
            if elem.meets {
                stats.solutions += 1;
                let [c1, c2] = elem.blocks;
                let cost = normalized_cost(c1, c2);
                if cost < best.cost {
                    let (gp, gt) = &p.general_basis[k];
                    let (pi, tau) = if Cost::new(c1, c2) <= Cost::new(c2, c1) {
                        (gp.clone(), gt.clone())
                    } else {
                        (gt.clone(), gp.clone())
                    };
                    best = OstrSolution { pi, tau, cost };
                    p.observer.on_incumbent(cost);
                }
            } else if cfg.lemma1_pruning {
                stats.pruned += 1;
            }
            continue;
        }
        if let Some(bound) = &p.bound {
            let [c1, c2] = p.basis[k].blocks;
            let beatable = bound.lower(c1, c2).is_some_and(|lb| lb < best.cost);
            if !beatable {
                stats.bound_pruned += 1;
                continue;
            }
        }
        let remaining = cfg.max_nodes - stats.nodes;
        let outcome = provide(k, remaining, ws);
        stats.nodes += outcome.stats.nodes;
        stats.pruned += outcome.stats.pruned;
        stats.bound_pruned += outcome.stats.bound_pruned;
        stats.solutions += outcome.stats.solutions;
        stats.cancelled |= outcome.stats.cancelled;
        if let Some((cost, pi, tau)) = outcome.best {
            if cost < best.cost {
                best = OstrSolution { pi, tau, cost };
            }
        }
        if outcome.stats.exhausted {
            stats.exhausted = true;
            break;
        }
        if outcome.lb_hit && cfg.stop_at_lower_bound {
            tail_mode = true;
        }
    }
    (best, stats)
}

/// Runs the full search: serial when `config.parallel_subtrees <= 1`,
/// otherwise on the calling thread plus `jobs - 1` scoped worker threads,
/// followed by the deterministic reduction.
pub(crate) fn run_search(p: &SearchProblem<'_>) -> (OstrSolution, EngineStats) {
    let (best, mut stats) = run_search_inner(p);
    // A requested stop must be reflected even when the positive poll was
    // consumed by a speculative parallel pass whose outcome the reduction
    // discarded (its re-search runs with the observer possibly disarmed
    // and can complete the search).  With a never-stopping observer the
    // latch stays clear, so unobserved statistics are untouched.
    if p.stop_seen.load(Ordering::Relaxed) && !stats.cancelled {
        stats.cancelled = true;
        stats.exhausted = true;
    }
    (best, stats)
}

fn run_search_inner(p: &SearchProblem<'_>) -> (OstrSolution, EngineStats) {
    let jobs = p.config.parallel_subtrees.clamp(1, p.basis.len().max(1));
    let mut ws = Workspace::new(p.n);
    if jobs <= 1 {
        return merge_subtrees(p, &mut ws, |k, budget, ws| {
            search_subtree(p, ws, k, budget, None).expect("serial searches are never cancelled")
        });
    }

    let slots: Vec<Mutex<Option<SubtreeOutcome>>> =
        p.basis.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let cancel = CancelState::new(p.n);
    let claim = |ws: &mut Workspace| loop {
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= p.basis.len() {
            break;
        }
        if cancel.skips(p, k) {
            continue;
        }
        let outcome = search_subtree(p, ws, k, p.config.max_nodes, Some(&cancel));
        if let Some(outcome) = outcome {
            cancel.publish(p, k, &outcome);
            *slots[k].lock().expect("no panics while holding lock") = Some(outcome);
        }
    };
    // The calling thread is one of the `jobs` workers.
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(|| claim(&mut Workspace::new(p.n)));
        }
        claim(&mut ws);
    });

    merge_subtrees(p, &mut ws, |k, budget, ws| {
        let cached = slots[k].lock().expect("worker threads joined").take();
        match cached {
            // A speculative full-budget result is equivalent to the serial
            // one iff it finished naturally strictly inside the serial
            // budget: every budget/deadline check it performed then sees the
            // same verdict either way.
            Some(outcome) if !outcome.stats.exhausted && outcome.stats.nodes < budget => outcome,
            _ => search_subtree(p, ws, k, budget, None)
                .expect("reduction searches are never cancelled"),
        }
    })
}
