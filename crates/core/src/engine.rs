//! The iterative branch-and-bound search core behind [`crate::OstrSolver`].
//!
//! The paper's depth-first search over subsets of the symmetric-pair basis is
//! implemented here as an *explicit-stack* loop over an arena of packed
//! κ-pairs (`stc_partition::PackedPair`), so the hot path performs no
//! recursion and no per-node allocation: expanding a child copies the
//! parent's arena slot and applies an in-place `join_assign`.
//!
//! Three layers sit on top of the faithful Lemma 1 search:
//!
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
//! * **Work-stealing parallel exploration**
//!   (`SolverConfig::parallel_subtrees`).  Top-level subtrees are dealt
//!   round-robin onto per-worker deques; an idle worker steals from the back
//!   of a random victim's deque (seeded by `SolverConfig::steal_seed`, which
//!   affects scheduling only).  A worker that owns a large subtree publishes
//!   its remaining top-frame *child segments* for stealing and folds
//!   owner-searched and thief-published segments in serial order, accepting a
//!   stolen result only when it is provably the one the serial walk would
//!   have produced (same boundary state, finished strictly inside the
//!   remaining budget).  Workers share the incumbent through an atomic
//!   best-cost word used for work-skipping and cancellation only.  The
//!   deterministic reduction in [`merge_subtrees`] replays the serial
//!   schedule: results are folded in basis order, a subtree whose
//!   speculative run overshot the serial node budget is re-searched with the
//!   exact remaining budget, and anything the reduction decides to skip is
//!   simply discarded — so the solution *and* the statistics are
//!   byte-identical to a serial run.  See `DESIGN.md` §12 for the stealing
//!   determinism argument.

use crate::cost::Cost;
use crate::observe::{SearchObserver, PROGRESS_INTERVAL};
use crate::solver::{OstrSolution, SolverConfig};
use stc_partition::{meets_within, PackedPair, PackedPartition, PackedScratch, Partition};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
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
    /// The symmetric-pair basis, packed (same order as `general_basis`).
    basis: Vec<PackedPair>,
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
        let packed: Vec<PackedPair> = basis
            .iter()
            .map(|(pi, tau)| PackedPair::from_pair(pi, tau))
            .collect();
        let (bound, seeds) = if config.branch_and_bound {
            let bound = BoundTable::new(n, eps.num_blocks());
            let mut scratch = PackedScratch::new();
            let mut current = Cost::trivial(n);
            let seeds = packed
                .iter()
                .map(|pair| {
                    if meets_within(&pair.pi, &pair.tau, &eps_packed, &mut scratch) {
                        current = current
                            .min(normalized_cost(pair.pi.num_blocks(), pair.tau.num_blocks()));
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
            basis: packed,
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

/// One explicit-stack frame: the arena depth of its κ and the next basis
/// index to try as a child.
#[derive(Debug, Clone, Copy)]
struct Frame {
    depth: u32,
    next: u32,
}

/// The best solution found so far within one subtree, kept packed so
/// acceptance is two label-array copies.
struct BestSlot {
    cost: Cost,
    has: bool,
    pi: PackedPartition,
    tau: PackedPartition,
}

/// Per-thread reusable search state: the κ arena, the DFS frame stack and
/// the partition scratch.  All growth is high-water-marked, so steady-state
/// subtree searches allocate nothing.
pub(crate) struct Workspace {
    scratch: PackedScratch,
    arena: Vec<PackedPair>,
    frames: Vec<Frame>,
    best: BestSlot,
}

impl Workspace {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            scratch: PackedScratch::new(),
            arena: Vec::new(),
            frames: Vec::new(),
            best: BestSlot {
                cost: Cost::trivial(n.max(1)),
                has: false,
                pi: PackedPartition::identity(n),
                tau: PackedPartition::identity(n),
            },
        }
    }

    fn reset(&mut self, n: usize) {
        self.frames.clear();
        self.best.cost = Cost::trivial(n.max(1));
        self.best.has = false;
    }

    fn ensure_depth(&mut self, depth: usize, n: usize) {
        while self.arena.len() <= depth {
            self.arena.push(PackedPair::identity(n));
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
    /// shared incumbent, updated eagerly: owners on fold, thieves on
    /// publishing an improving segment).
    best_bits: AtomicU32,
    /// Set once every top-level subtree has been folded or skipped; any
    /// still-running speculative segment search is then pointless and
    /// aborts so the thread scope can join promptly.
    done: AtomicBool,
}

impl CancelState {
    fn new(n: usize) -> Self {
        Self {
            lb_floor: AtomicUsize::new(usize::MAX),
            best_bits: AtomicU32::new(Cost::trivial(n.max(1)).register_bits()),
            done: AtomicBool::new(false),
        }
    }

    /// `true` when a speculative pass over subtree `k0` should abandon its
    /// work because the reduction can no longer use the result.
    fn discards(&self, k0: usize) -> bool {
        self.lb_floor.load(Ordering::Relaxed) < k0 || self.done.load(Ordering::Relaxed)
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

/// Evaluates the candidate κ: counts it if it is a solution (`π ∩ τ ⊆ ε`)
/// and accepts it into `best` on strict improvement.  Returns the Lemma 1
/// criterion (`true` iff the intersection condition held).
fn eval_candidate(
    p: &SearchProblem<'_>,
    pair: &PackedPair,
    scratch: &mut PackedScratch,
    best: &mut BestSlot,
    stats: &mut EngineStats,
    lb_hit: &mut bool,
) -> bool {
    if !meets_within(&pair.pi, &pair.tau, &p.eps, scratch) {
        return false;
    }
    stats.solutions += 1;
    let (c1, c2) = (pair.pi.num_blocks(), pair.tau.num_blocks());
    let forward = Cost::new(c1, c2);
    let backward = Cost::new(c2, c1);
    let (cost, swapped) = if forward <= backward {
        (forward, false)
    } else {
        (backward, true)
    };
    if cost < best.cost {
        best.cost = cost;
        best.has = true;
        if swapped {
            best.pi.copy_from(&pair.tau);
            best.tau.copy_from(&pair.pi);
        } else {
            best.pi.copy_from(&pair.pi);
            best.tau.copy_from(&pair.tau);
        }
        p.observer.on_incumbent(cost);
        if c1 * c2 == p.n && cost.register_bits() == stc_fsm::ceil_log2(p.n) {
            *lb_hit = true;
        }
    }
    true
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
    ws.reset(p.n);
    let prune_seed = if p.bound.is_some() {
        p.seeds[k0]
    } else {
        Cost::trivial(p.n)
    };

    if budget == 0 {
        out.stats.exhausted = true;
        return Some(out);
    }
    ws.ensure_depth(0, p.n);
    ws.arena[0].copy_from(&p.basis[k0]);
    out.stats.nodes = 1;
    let meets = eval_candidate(
        p,
        &ws.arena[0],
        &mut ws.scratch,
        &mut ws.best,
        &mut out.stats,
        &mut out.lb_hit,
    );
    let expand = if cfg.lemma1_pruning && !meets {
        out.stats.pruned += 1;
        false
    } else {
        !(out.lb_hit && cfg.stop_at_lower_bound)
    };
    if expand {
        ws.frames.push(Frame {
            depth: 0,
            next: (k0 + 1) as u32,
        });
    }

    if !dfs_frames(
        p,
        ws,
        &mut out.stats,
        &mut out.lb_hit,
        prune_seed,
        budget,
        cancel,
        k0,
        &mut progress_mark,
    ) {
        return None;
    }

    flush_progress(p, out.stats.nodes, progress_mark);
    if ws.best.has {
        out.best = Some((
            ws.best.cost,
            ws.best.pi.to_partition(),
            ws.best.tau.to_partition(),
        ));
    }
    Some(out)
}

/// The explicit-stack DFS driver shared by whole-subtree and child-segment
/// searches: pops frames until the stack drains, the budget / deadline /
/// observer stops the walk, or `cancel` abandons it (returning `false` —
/// only possible when `cancel` is present).  All counters are relative to
/// the caller's `stats`, so the same loop serves both a subtree counted
/// from its root and a segment counted from its boundary.
#[allow(clippy::too_many_arguments)]
fn dfs_frames(
    p: &SearchProblem<'_>,
    ws: &mut Workspace,
    stats: &mut EngineStats,
    lb_hit: &mut bool,
    prune_seed: Cost,
    budget: u64,
    cancel: Option<&CancelState>,
    cancel_k0: usize,
    progress_mark: &mut u64,
) -> bool {
    let cfg = &p.config;
    let b_len = p.basis.len() as u32;
    while !ws.frames.is_empty() {
        let (depth, k) = {
            let frame = ws.frames.last_mut().expect("non-empty");
            if frame.next >= b_len {
                ws.frames.pop();
                continue;
            }
            let k = frame.next;
            frame.next += 1;
            (frame.depth as usize, k as usize)
        };
        if out_of_budget(p, stats, budget, progress_mark) {
            break;
        }
        if let Some(cancel) = cancel {
            if stats.nodes.is_multiple_of(1024) && cancel.discards(cancel_k0) {
                return false; // this work will be discarded — stop early
            }
        }
        let child = depth + 1;
        ws.ensure_depth(child, p.n);
        let (head, tail) = ws.arena.split_at_mut(child);
        let child_pair = &mut tail[0];
        child_pair.copy_from(&head[depth]);
        if !child_pair.join_assign(&p.basis[k], &mut ws.scratch) {
            // The basis element is already below κ; the child duplicates it.
            continue;
        }
        if let Some(bound) = &p.bound {
            let incumbent = if ws.best.has && ws.best.cost < prune_seed {
                ws.best.cost
            } else {
                prune_seed
            };
            let beatable = bound
                .lower(child_pair.pi.num_blocks(), child_pair.tau.num_blocks())
                .is_some_and(|lb| lb < incumbent);
            if !beatable {
                stats.bound_pruned += 1;
                continue;
            }
        }
        stats.nodes += 1;
        let meets = eval_candidate(p, &tail[0], &mut ws.scratch, &mut ws.best, stats, lb_hit);
        if cfg.lemma1_pruning && !meets {
            stats.pruned += 1;
            continue;
        }
        if *lb_hit && cfg.stop_at_lower_bound {
            continue;
        }
        ws.frames.push(Frame {
            depth: child as u32,
            next: (k + 1) as u32,
        });
    }
    true
}

/// The DFS state of a subtree search at a *top-frame child boundary* — the
/// instant the serial walk pops `(depth 0, k1)` from the frame stack.
/// Everything a child segment's outcome can depend on besides
/// `(machine, config, k0, k1, remaining budget)` is captured here, so two
/// segment searches entered with equal boundary states and budgets produce
/// identical outcomes.  This is the unit of speculation of the
/// work-stealing layer (`DESIGN.md` §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SegEntry {
    /// The subtree's incumbent cost at the boundary.
    best_cost: Cost,
    /// Whether the incumbent was found inside this subtree (only then does
    /// it tighten bound pruning past the subtree's prefix seed).
    best_has: bool,
    /// Whether the lower-bound early stop has fired inside this subtree.
    lb_hit: bool,
}

/// The outcome of one child segment: the statistics delta, the boundary
/// state at the segment's exit, and the improved incumbent if the segment
/// found one.
#[derive(Debug, Clone)]
struct ChildOutcome {
    stats: EngineStats,
    exit: SegEntry,
    improved: Option<(Cost, Partition, Partition)>,
}

/// Searches the segment of subtree `k0` spanned by its top-frame child
/// `k1`: exactly the iterations the serial subtree walk performs from
/// popping `(depth 0, k1)` until the stack returns to the top frame,
/// starting from boundary state `entry` with `budget` nodes left.
/// Returns `None` only when `cancel` signalled that the result will be
/// discarded.
fn search_child_segment(
    p: &SearchProblem<'_>,
    ws: &mut Workspace,
    k0: usize,
    k1: usize,
    entry: SegEntry,
    budget: u64,
    cancel: Option<&CancelState>,
) -> Option<ChildOutcome> {
    let cfg = &p.config;
    let mut stats = EngineStats::default();
    let mut lb_hit = entry.lb_hit;
    let mut progress_mark = 0u64;
    ws.frames.clear();
    ws.best.cost = entry.best_cost;
    ws.best.has = entry.best_has;
    let prune_seed = if p.bound.is_some() {
        p.seeds[k0]
    } else {
        Cost::trivial(p.n)
    };

    'segment: {
        ws.ensure_depth(1, p.n);
        ws.arena[0].copy_from(&p.basis[k0]);
        let (head, tail) = ws.arena.split_at_mut(1);
        let child_pair = &mut tail[0];
        child_pair.copy_from(&head[0]);
        if !child_pair.join_assign(&p.basis[k1], &mut ws.scratch) {
            break 'segment; // duplicate join: the serial walk skips it uncounted
        }
        if let Some(bound) = &p.bound {
            let incumbent = if ws.best.has && ws.best.cost < prune_seed {
                ws.best.cost
            } else {
                prune_seed
            };
            let beatable = bound
                .lower(child_pair.pi.num_blocks(), child_pair.tau.num_blocks())
                .is_some_and(|lb| lb < incumbent);
            if !beatable {
                stats.bound_pruned += 1;
                break 'segment;
            }
        }
        stats.nodes = 1;
        let meets = eval_candidate(
            p,
            &tail[0],
            &mut ws.scratch,
            &mut ws.best,
            &mut stats,
            &mut lb_hit,
        );
        if cfg.lemma1_pruning && !meets {
            stats.pruned += 1;
            break 'segment;
        }
        if lb_hit && cfg.stop_at_lower_bound {
            break 'segment;
        }
        ws.frames.push(Frame {
            depth: 1,
            next: (k1 + 1) as u32,
        });
        if !dfs_frames(
            p,
            ws,
            &mut stats,
            &mut lb_hit,
            prune_seed,
            budget,
            cancel,
            k0,
            &mut progress_mark,
        ) {
            return None;
        }
    }

    flush_progress(p, stats.nodes, progress_mark);
    // Any acceptance strictly lowers the incumbent cost, so a strict drop
    // against the entry cost detects exactly the segments that improved.
    let improved = (ws.best.cost < entry.best_cost).then(|| {
        (
            ws.best.cost,
            ws.best.pi.to_partition(),
            ws.best.tau.to_partition(),
        )
    });
    Some(ChildOutcome {
        stats,
        exit: SegEntry {
            best_cost: ws.best.cost,
            best_has: ws.best.has,
            lb_hit,
        },
        improved,
    })
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
            let pair = &p.basis[k];
            if meets_within(&pair.pi, &pair.tau, &p.eps, &mut ws.scratch) {
                stats.solutions += 1;
                let (c1, c2) = (pair.pi.num_blocks(), pair.tau.num_blocks());
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
            let pair = &p.basis[k];
            let beatable = bound
                .lower(pair.pi.num_blocks(), pair.tau.num_blocks())
                .is_some_and(|lb| lb < best.cost);
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
/// otherwise on scoped worker threads with the deterministic reduction.
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

    let st = StealState::new(p, jobs);
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let st = &st;
            scope.spawn(move || worker(st, w));
        }
    });

    merge_subtrees(p, &mut ws, |k, budget, ws| {
        let cached = st.slots[k].lock().expect("worker threads joined").take();
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

/// One unit of schedulable work in the work-stealing runner.
#[derive(Debug, Clone, Copy)]
enum Task {
    /// A whole top-level subtree, rooted at the root's child `basis[k0]`.
    Top(u32),
    /// One top-frame child segment of subtree `k0`, offered for stealing
    /// while the subtree's owner folds earlier segments.
    Child { k0: u32, k1: u32 },
}

/// A speculative segment result published by a thief: usable by the
/// owner's fold iff the boundary state the thief assumed is the one the
/// fold actually reaches (and the segment stayed inside the remaining
/// budget — checked at fold time).
struct SpecResult {
    assumed: SegEntry,
    outcome: ChildOutcome,
}

/// The per-subtree bulletin board through which a subtree's owner and its
/// thieves coordinate.  Created by the owner when it decides to offer the
/// subtree's remaining child segments for stealing.
struct Board {
    /// The `k1` of slot 0; slot `i` covers child `base + i`.
    base: usize,
    /// The owner's current boundary state — the thieves' speculation guess.
    cursor: Mutex<SegEntry>,
    /// Claim flags (owner or thief), one per offered child.
    claimed: Vec<AtomicBool>,
    /// Published speculative results, one per offered child.
    published: Vec<Mutex<Option<SpecResult>>>,
}

impl Board {
    fn new(base: usize, len: usize, entry: SegEntry) -> Self {
        Self {
            base,
            cursor: Mutex::new(entry),
            claimed: (0..len).map(|_| AtomicBool::new(false)).collect(),
            published: (0..len).map(|_| Mutex::new(None)).collect(),
        }
    }
}

/// Only split a subtree whose unexplored top-frame children number at
/// least this many: below it the per-segment coordination overhead cannot
/// pay for itself.
const MIN_SPLIT_CHILDREN: usize = 4;

/// The shared state of the work-stealing runner.
struct StealState<'p, 'a> {
    p: &'p SearchProblem<'a>,
    /// Per-worker task deques: a worker pops from the front of its own
    /// deque and steals from the back of a random victim's.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Lazily created per-subtree boards, indexed by `k0`.
    boards: Vec<OnceLock<Board>>,
    /// Finished subtree outcomes, consumed by the reduction.
    slots: Vec<Mutex<Option<SubtreeOutcome>>>,
    /// Top-level subtrees finished or skipped; workers exit when this
    /// reaches `basis.len()`.
    tops_done: AtomicUsize,
    /// Workers currently idle (found nothing to pop or steal).  Owners
    /// consult it so they only pay for publishing segments when somebody
    /// could actually steal one.
    idle: AtomicUsize,
    cancel: CancelState,
}

impl<'p, 'a> StealState<'p, 'a> {
    fn new(p: &'p SearchProblem<'a>, jobs: usize) -> Self {
        let mut deques: Vec<VecDeque<Task>> = (0..jobs).map(|_| VecDeque::new()).collect();
        // Deal the top-level subtrees round-robin so the early (usually
        // largest) subtrees start immediately on distinct workers.
        for k0 in 0..p.basis.len() {
            deques[k0 % jobs].push_back(Task::Top(k0 as u32));
        }
        Self {
            p,
            deques: deques.into_iter().map(Mutex::new).collect(),
            boards: p.basis.iter().map(|_| OnceLock::new()).collect(),
            slots: p.basis.iter().map(|_| Mutex::new(None)).collect(),
            tops_done: AtomicUsize::new(0),
            idle: AtomicUsize::new(0),
            cancel: CancelState::new(p.n),
        }
    }
}

/// `splitmix64` — the classic 64-bit mixer; drives the victim-selection
/// streams.  Statistical quality is irrelevant here (any schedule yields
/// the same result); it only needs to spread workers apart cheaply.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pops the next task: own deque front first, then up to `jobs` random
/// steal attempts from victims' backs.
fn next_task(st: &StealState<'_, '_>, me: usize, rng: &mut u64) -> Option<Task> {
    if let Some(t) = st.deques[me]
        .lock()
        .expect("no panics under lock")
        .pop_front()
    {
        return Some(t);
    }
    let n = st.deques.len();
    for _ in 0..n {
        let victim = (splitmix64(rng) % n as u64) as usize;
        if victim == me {
            continue;
        }
        if let Some(t) = st.deques[victim]
            .lock()
            .expect("no panics under lock")
            .pop_back()
        {
            return Some(t);
        }
    }
    None
}

/// The work-stealing worker loop: drain own deque, steal when empty, exit
/// once every top-level subtree has been folded or skipped.
fn worker(st: &StealState<'_, '_>, me: usize) {
    let total = st.p.basis.len();
    let mut ws = Workspace::new(st.p.n);
    let mut rng =
        st.p.config
            .steal_seed
            .wrapping_add((me as u64).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut idle = false;
    while st.tops_done.load(Ordering::Acquire) < total {
        let Some(task) = next_task(st, me, &mut rng) else {
            if !idle {
                idle = true;
                st.idle.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::yield_now();
            continue;
        };
        if idle {
            idle = false;
            st.idle.fetch_sub(1, Ordering::Relaxed);
        }
        match task {
            Task::Top(k0) => run_top(st, &mut ws, me, k0 as usize),
            Task::Child { k0, k1 } => run_stolen_child(st, &mut ws, k0 as usize, k1 as usize),
        }
    }
    if idle {
        st.idle.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Processes one top-level subtree: skip if the reduction provably cannot
/// use it, otherwise search it cooperatively and publish the outcome.
fn run_top(st: &StealState<'_, '_>, ws: &mut Workspace, me: usize, k0: usize) {
    let p = st.p;
    let skip = k0 > st.cancel.lb_floor.load(Ordering::Relaxed)
        || p.bound.as_ref().is_some_and(|bound| {
            // Shared-incumbent work skipping: if even the subtree root's
            // bound cannot beat the best register-bit count any worker has
            // published, the reduction will almost surely prune it;
            // skipping is safe because the reduction re-searches on demand.
            let pair = &p.basis[k0];
            bound
                .lower(pair.pi.num_blocks(), pair.tau.num_blocks())
                .is_none_or(|lb| lb.register_bits() > st.cancel.best_bits.load(Ordering::Relaxed))
        });
    if !skip {
        if let Some(outcome) = cooperative_subtree(st, ws, me, k0) {
            if let Some((cost, _, _)) = &outcome.best {
                st.cancel
                    .best_bits
                    .fetch_min(cost.register_bits(), Ordering::Relaxed);
            }
            if outcome.lb_hit && p.config.stop_at_lower_bound {
                st.cancel.lb_floor.fetch_min(k0, Ordering::Relaxed);
            }
            *st.slots[k0].lock().expect("no panics under lock") = Some(outcome);
        }
    }
    let done = st.tops_done.fetch_add(1, Ordering::AcqRel) + 1;
    if done == p.basis.len() {
        st.cancel.done.store(true, Ordering::Relaxed);
    }
}

/// Searches subtree `k0` with the full speculative budget, possibly with
/// help: once idle workers exist, the subtree's remaining top-frame child
/// segments are published for stealing and the owner folds owner-searched
/// and thief-published segments *in serial order*, validating every stolen
/// result against the boundary state the serial walk actually reaches.
/// The outcome is therefore identical to
/// `search_subtree(p, ws, k0, max_nodes, …)` — the segment decomposition
/// argument is spelled out in `DESIGN.md` §12.
fn cooperative_subtree(
    st: &StealState<'_, '_>,
    ws: &mut Workspace,
    me: usize,
    k0: usize,
) -> Option<SubtreeOutcome> {
    let p = st.p;
    let cfg = &p.config;
    let budget = cfg.max_nodes;
    let mut out = SubtreeOutcome::default();
    ws.reset(p.n);
    if budget == 0 {
        out.stats.exhausted = true;
        return Some(out);
    }
    ws.ensure_depth(0, p.n);
    ws.arena[0].copy_from(&p.basis[k0]);
    out.stats.nodes = 1;
    let meets = eval_candidate(
        p,
        &ws.arena[0],
        &mut ws.scratch,
        &mut ws.best,
        &mut out.stats,
        &mut out.lb_hit,
    );
    let expand = if cfg.lemma1_pruning && !meets {
        out.stats.pruned += 1;
        false
    } else {
        !(out.lb_hit && cfg.stop_at_lower_bound)
    };
    let mut best = ws.best.has.then(|| {
        (
            ws.best.cost,
            ws.best.pi.to_partition(),
            ws.best.tau.to_partition(),
        )
    });

    if expand {
        let mut entry = SegEntry {
            best_cost: ws.best.cost,
            best_has: ws.best.has,
            lb_hit: out.lb_hit,
        };
        let mut board: Option<&Board> = None;
        for k1 in (k0 + 1)..p.basis.len() {
            // The serial walk's per-pop checks at the top-frame boundary.
            if out.stats.nodes >= budget {
                out.stats.exhausted = true;
                break;
            }
            if st.cancel.discards(k0) {
                return None; // the reduction will discard this subtree
            }
            if let Some(d) = p.deadline {
                if Instant::now() >= d {
                    out.stats.exhausted = true;
                    break;
                }
            }
            // Publish the remaining segments the moment somebody is idle.
            if board.is_none()
                && p.basis.len() - k1 >= MIN_SPLIT_CHILDREN
                && st.idle.load(Ordering::Relaxed) > 0
            {
                let created =
                    st.boards[k0].get_or_init(|| Board::new(k1, p.basis.len() - k1, entry));
                {
                    let mut dq = st.deques[me].lock().expect("no panics under lock");
                    for c in k1..p.basis.len() {
                        dq.push_back(Task::Child {
                            k0: k0 as u32,
                            k1: c as u32,
                        });
                    }
                }
                board = Some(created);
            }
            let mut spec: Option<ChildOutcome> = None;
            if let Some(b) = board {
                *b.cursor.lock().expect("no panics under lock") = entry;
                let i = k1 - b.base;
                if b.claimed[i].swap(true, Ordering::AcqRel) {
                    // A thief claimed this segment.  Its result replaces the
                    // owner's search iff it assumed the boundary state the
                    // fold actually reached and finished naturally strictly
                    // inside the remaining budget — the same equivalence
                    // rule the top-level reduction applies to subtrees.
                    if let Some(sr) = b.published[i].lock().expect("no panics under lock").take() {
                        if sr.assumed == entry
                            && !sr.outcome.stats.exhausted
                            && sr.outcome.stats.nodes < budget - out.stats.nodes
                        {
                            spec = Some(sr.outcome);
                        }
                    }
                }
            }
            let child = match spec {
                Some(c) => c,
                None => search_child_segment(
                    p,
                    ws,
                    k0,
                    k1,
                    entry,
                    budget - out.stats.nodes,
                    Some(&st.cancel),
                )?,
            };
            out.stats.nodes += child.stats.nodes;
            out.stats.pruned += child.stats.pruned;
            out.stats.bound_pruned += child.stats.bound_pruned;
            out.stats.solutions += child.stats.solutions;
            out.stats.cancelled |= child.stats.cancelled;
            if let Some(imp) = child.improved {
                st.cancel
                    .best_bits
                    .fetch_min(imp.0.register_bits(), Ordering::Relaxed);
                best = Some(imp);
            }
            out.lb_hit = child.exit.lb_hit;
            entry = child.exit;
            if child.stats.exhausted {
                out.stats.exhausted = true;
                break;
            }
        }
    }
    // The segments flushed their own nodes; account for the subtree root.
    flush_progress(p, 1, 0);
    out.best = best;
    Some(out)
}

/// A thief's side of the bargain: claim an offered segment, search it
/// under the owner's current boundary state as the speculation guess, and
/// publish the result for the owner's fold to validate.
fn run_stolen_child(st: &StealState<'_, '_>, ws: &mut Workspace, k0: usize, k1: usize) {
    let p = st.p;
    if st.cancel.discards(k0) {
        return; // the whole subtree will be discarded
    }
    let Some(b) = st.boards[k0].get() else {
        return; // board not published yet (only possible for stale tasks)
    };
    let i = k1 - b.base;
    if b.claimed[i].swap(true, Ordering::AcqRel) {
        return; // the owner or another thief already has it
    }
    let assumed = *b.cursor.lock().expect("no panics under lock");
    let Some(outcome) =
        search_child_segment(p, ws, k0, k1, assumed, p.config.max_nodes, Some(&st.cancel))
    else {
        return;
    };
    if let Some((cost, _, _)) = &outcome.improved {
        // Eager incumbent sharing: other workers can start bound-skipping
        // on this before the owner ever folds the segment.
        st.cancel
            .best_bits
            .fetch_min(cost.register_bits(), Ordering::Relaxed);
    }
    *b.published[i].lock().expect("no panics under lock") = Some(SpecResult { assumed, outcome });
}
