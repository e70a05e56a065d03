//! The single-stuck-at fault model and fault simulation of combinational
//! netlists.
//!
//! Two simulators share one fault model and one report type:
//!
//! * [`simulate_faults`] — the scalar *reference*: one netlist evaluation
//!   per (fault, pattern) pair.  Kept simple on purpose; every optimised
//!   path is property-tested against it.
//! * [`simulate_faults_packed`] — the production PP-SFP (parallel-pattern
//!   single-fault propagation) simulator: patterns are packed 64 per
//!   machine word ([`PackedPatterns`]) and grouped [`PACKED_WORDS`] words
//!   per SIMD-wide superblock of 256 patterns.  The good circuit is swept
//!   once per superblock; each live fault then re-evaluates only its
//!   fanout cone (the crate's cone-restricted kernel), and a fault that is
//!   not excited in the superblock is skipped outright.  *Fault dropping*
//!   removes a fault at its first detecting superblock.  The report is
//!   identical to the scalar reference.

use crate::cone::{ConeIndex, ConeSim};
use stc_logic::{Netlist, NodeId, WideWord, PACKED_LANES, PACKED_WORDS};

/// A single stuck-at fault: one netlist node permanently forced to a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckAtFault {
    /// The faulty node.
    pub node: NodeId,
    /// The value the node is stuck at.
    pub stuck_at: bool,
}

impl StuckAtFault {
    /// Creates a stuck-at-0 fault on `node`.
    #[must_use]
    pub fn stuck_at_0(node: NodeId) -> Self {
        Self {
            node,
            stuck_at: false,
        }
    }

    /// Creates a stuck-at-1 fault on `node`.
    #[must_use]
    pub fn stuck_at_1(node: NodeId) -> Self {
        Self {
            node,
            stuck_at: true,
        }
    }
}

/// Enumerates the complete single-stuck-at fault list of a netlist: every
/// gate output and every primary input, stuck at 0 and at 1.
#[must_use]
pub fn fault_list(netlist: &Netlist) -> Vec<StuckAtFault> {
    netlist
        .fault_sites()
        .into_iter()
        .flat_map(|node| {
            [
                StuckAtFault::stuck_at_0(node),
                StuckAtFault::stuck_at_1(node),
            ]
        })
        .collect()
}

/// The result of simulating a pattern set against a fault list.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSimReport {
    /// Total number of faults simulated.
    pub total_faults: usize,
    /// Number of faults detected by at least one pattern.
    pub detected: usize,
    /// The faults that no pattern detected.
    pub undetected: Vec<StuckAtFault>,
    /// Number of patterns applied.
    pub patterns: usize,
}

impl FaultSimReport {
    /// Fault coverage as a fraction in `[0, 1]`; `0.0` for an empty fault
    /// list (see [`crate::coverage_fraction`] for the convention).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        crate::coverage_fraction(self.detected, self.total_faults)
    }
}

/// Scalar reference fault simulation: for every fault, every pattern is
/// applied to the good and the faulty circuit and the primary outputs are
/// compared.  A fault is *detected* if some pattern produces differing
/// outputs.
///
/// `observable_outputs` optionally restricts which primary outputs are
/// observed (e.g. only those compacted by a signature register); `None`
/// observes all outputs.
///
/// This is the specification the bit-parallel [`simulate_faults_packed`] is
/// property-tested against; production callers should prefer the packed
/// path, which produces an identical report ~an order of magnitude faster.
#[must_use]
pub fn simulate_faults(
    netlist: &Netlist,
    patterns: &[Vec<bool>],
    faults: &[StuckAtFault],
    observable_outputs: Option<&[usize]>,
) -> FaultSimReport {
    let good_responses: Vec<Vec<bool>> = patterns.iter().map(|p| netlist.evaluate(p)).collect();
    let observed = |out: &[bool]| -> Vec<bool> {
        match observable_outputs {
            None => out.to_vec(),
            Some(idx) => idx.iter().map(|&i| out[i]).collect(),
        }
    };
    let mut undetected = Vec::new();
    let mut detected = 0usize;
    for fault in faults {
        let mut found = false;
        for (pattern, good) in patterns.iter().zip(&good_responses) {
            let bad = netlist.evaluate_with_fault(pattern, Some((fault.node, fault.stuck_at)));
            if observed(&bad) != observed(good) {
                found = true;
                break;
            }
        }
        if found {
            detected += 1;
        } else {
            undetected.push(*fault);
        }
    }
    FaultSimReport {
        total_faults: faults.len(),
        detected,
        undetected,
        patterns: patterns.len(),
    }
}

/// A pattern set packed for word-level simulation: 64 patterns per block,
/// one `u64` word per input line within a block (bit `k` of a word is the
/// input value of pattern `k`).
///
/// This is the transposed layout the packed evaluator consumes:
/// [`Self::wide_block`] sets [`PACKED_WORDS`] blocks side by side, so one
/// [`stc_logic::Netlist::eval_packed_wide_into`] sweep processes up to
/// `PACKED_WORDS × PACKED_LANES` patterns at once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPatterns {
    num_inputs: usize,
    num_patterns: usize,
    /// `blocks[b]` holds `num_inputs` words; lanes beyond the pattern count
    /// in the last block are zero and masked out via [`Self::lane_mask`].
    blocks: Vec<Vec<u64>>,
}

impl PackedPatterns {
    /// Packs a scalar pattern set.
    ///
    /// # Panics
    ///
    /// Panics if a pattern's width differs from `num_inputs`.
    #[must_use]
    pub fn pack(num_inputs: usize, patterns: &[Vec<bool>]) -> Self {
        let mut blocks = Vec::with_capacity(patterns.len().div_ceil(PACKED_LANES));
        for chunk in patterns.chunks(PACKED_LANES) {
            let mut words = vec![0u64; num_inputs];
            for (lane, pattern) in chunk.iter().enumerate() {
                assert_eq!(pattern.len(), num_inputs, "pattern width mismatch");
                for (i, &bit) in pattern.iter().enumerate() {
                    if bit {
                        words[i] |= 1 << lane;
                    }
                }
            }
            blocks.push(words);
        }
        Self {
            num_inputs,
            num_patterns: patterns.len(),
            blocks,
        }
    }

    /// Number of packed patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of 64-lane blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The input words of block `b` (one word per input line).
    #[must_use]
    pub fn block(&self, b: usize) -> &[u64] {
        &self.blocks[b]
    }

    /// The mask of valid lanes in block `b` (all ones except in the final,
    /// possibly partial block).
    #[must_use]
    pub fn lane_mask(&self, b: usize) -> u64 {
        let filled = self.num_patterns - b * PACKED_LANES;
        if filled >= PACKED_LANES {
            u64::MAX
        } else {
            (1u64 << filled) - 1
        }
    }

    /// Number of SIMD-wide superblocks ([`PACKED_WORDS`] blocks each, the
    /// last possibly zero-padded).
    #[must_use]
    pub fn num_superblocks(&self) -> usize {
        self.blocks.len().div_ceil(PACKED_WORDS)
    }

    /// The input groups of superblock `s`: one [`WideWord`] per input line,
    /// word `w` holding block `s * PACKED_WORDS + w` of that input.  Words
    /// past the last block are zero; [`Self::wide_lane_masks`] masks them
    /// out of any comparison.
    #[must_use]
    pub fn wide_block(&self, s: usize) -> Vec<WideWord> {
        let base = s * PACKED_WORDS;
        (0..self.num_inputs)
            .map(|i| std::array::from_fn(|w| self.blocks.get(base + w).map_or(0, |words| words[i])))
            .collect()
    }

    /// Valid-lane masks of superblock `s`, one per word: [`Self::lane_mask`]
    /// of the underlying block, or zero for padding words past the last
    /// block.
    #[must_use]
    pub fn wide_lane_masks(&self, s: usize) -> WideWord {
        let base = s * PACKED_WORDS;
        std::array::from_fn(|w| {
            if base + w < self.blocks.len() {
                self.lane_mask(base + w)
            } else {
                0
            }
        })
    }
}

/// Bit-parallel (PP-SFP) single-stuck-at fault simulation with fault
/// dropping: the exact counterpart of the scalar [`simulate_faults`]
/// reference, [`PACKED_WORDS`] × 64 patterns per superblock.
///
/// The good circuit is evaluated once per SIMD-wide superblock
/// ([`PackedPatterns::wide_block`]); each live fault then re-evaluates its
/// fanout cone only, and is *dropped* at the first superblock in which an
/// observed output group differs (within the superblock's valid-lane
/// masks).  A fault whose site already carries the stuck value in every
/// valid lane is not excited and costs no evaluation at all.  Undetected
/// faults are reported in fault-list order.
///
/// # Panics
///
/// Panics if a pattern's width differs from the netlist's input count, a
/// fault node id is out of range, or an observable output index is out of
/// range.
#[must_use]
pub fn simulate_faults_packed(
    netlist: &Netlist,
    patterns: &[Vec<bool>],
    faults: &[StuckAtFault],
    observable_outputs: Option<&[usize]>,
) -> FaultSimReport {
    let packed = PackedPatterns::pack(netlist.num_inputs(), patterns);
    // The observed output *nodes*, resolved once.
    let observed_nodes: Vec<NodeId> = match observable_outputs {
        None => netlist.outputs().to_vec(),
        Some(idx) => idx.iter().map(|&i| netlist.outputs()[i]).collect(),
    };
    let cones = ConeIndex::new(netlist);
    let mut sim = ConeSim::new(netlist, &cones);
    let mut errors = vec![[0; PACKED_WORDS]; observed_nodes.len()];
    let mut live: Vec<StuckAtFault> = faults.to_vec();
    for s in 0..packed.num_superblocks() {
        if live.is_empty() {
            break;
        }
        sim.load(&packed.wide_block(s));
        let masks = packed.wide_lane_masks(s);
        // Fault dropping: a fault detected in this superblock leaves the
        // simulation.
        live.retain(|&fault| {
            let detected = sim.errors(fault, &masks, &observed_nodes, &mut errors)
                && errors
                    .iter()
                    .any(|e| (0..PACKED_WORDS).any(|w| e[w] & masks[w] != 0));
            !detected
        });
    }
    FaultSimReport {
        total_faults: faults.len(),
        detected: faults.len() - live.len(),
        undetected: live,
        patterns: patterns.len(),
    }
}

/// Generates the exhaustive pattern set for a netlist with few inputs.
///
/// # Panics
///
/// Panics if the netlist has more than 20 inputs (the pattern set would have
/// more than a million entries); use LFSR-generated pseudo-random patterns
/// instead.
#[must_use]
pub fn exhaustive_patterns(num_inputs: usize) -> Vec<Vec<bool>> {
    assert!(num_inputs <= 20, "exhaustive patterns limited to 20 inputs");
    (0u64..(1u64 << num_inputs))
        .map(|v| (0..num_inputs).rev().map(|b| (v >> b) & 1 == 1).collect())
        .collect()
}

/// Generates `count` pseudo-random patterns of the given width from an LFSR
/// with a primitive polynomial (width capped at 24 internally; wider patterns
/// are produced by concatenating successive LFSR states).
#[must_use]
pub fn lfsr_patterns(width: usize, count: usize, seed: u64) -> Vec<Vec<bool>> {
    let chunk = width.clamp(1, 24) as u32;
    // Mask the seed to the register width *before* the zero check: a seed
    // whose low `chunk` bits are all zero would otherwise slip past
    // `max(1)` and trip the LFSR's all-zero lock-up assertion.
    let seed = seed & ((1u64 << chunk) - 1);
    let mut lfsr = crate::Lfsr::with_primitive_polynomial(chunk, seed.max(1));
    (0..count)
        .map(|_| {
            let mut bits = Vec::with_capacity(width);
            while bits.len() < width {
                lfsr.step();
                let state_bits = lfsr.state_bits();
                let take = (width - bits.len()).min(state_bits.len());
                bits.extend_from_slice(&state_bits[..take]);
            }
            bits
        })
        .collect()
}

/// The full-sweep PP-SFP the cone-restricted kernel replaced: every
/// fault re-evaluates the whole netlist per superblock, with fault
/// dropping.
#[cfg(test)]
fn full_sweep_report(
    netlist: &Netlist,
    patterns: &[Vec<bool>],
    faults: &[StuckAtFault],
    observable_outputs: Option<&[usize]>,
) -> FaultSimReport {
    let packed = PackedPatterns::pack(netlist.num_inputs(), patterns);
    let observed: Vec<NodeId> = match observable_outputs {
        None => netlist.outputs().to_vec(),
        Some(idx) => idx.iter().map(|&i| netlist.outputs()[i]).collect(),
    };
    let (mut good, mut bad) = (Vec::new(), Vec::new());
    let undetected: Vec<StuckAtFault> = faults
        .iter()
        .filter(|fault| {
            !(0..packed.num_superblocks()).any(|s| {
                let inputs = packed.wide_block(s);
                let masks = packed.wide_lane_masks(s);
                netlist.eval_packed_wide_into(&inputs, None, &mut good);
                netlist.eval_packed_wide_into(
                    &inputs,
                    Some((fault.node, fault.stuck_at)),
                    &mut bad,
                );
                observed
                    .iter()
                    .any(|&n| (0..PACKED_WORDS).any(|w| (good[n][w] ^ bad[n][w]) & masks[w] != 0))
            })
        })
        .copied()
        .collect();
    FaultSimReport {
        total_faults: faults.len(),
        detected: faults.len() - undetected.len(),
        undetected,
        patterns: patterns.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_logic::{Cover, Cube};

    fn xor_netlist() -> Netlist {
        let cover = Cover::from_cubes(
            2,
            vec![Cube::parse("10").unwrap(), Cube::parse("01").unwrap()],
        );
        Netlist::from_covers(2, &[cover])
    }

    #[test]
    fn exhaustive_patterns_cover_all_vectors() {
        let p = exhaustive_patterns(3);
        assert_eq!(p.len(), 8);
        assert_eq!(p[5], vec![true, false, true]);
    }

    #[test]
    fn exhaustive_test_of_xor_detects_every_fault() {
        let n = xor_netlist();
        let faults = fault_list(&n);
        let report = simulate_faults(&n, &exhaustive_patterns(2), &faults, None);
        assert_eq!(report.total_faults, faults.len());
        assert_eq!(
            report.detected, report.total_faults,
            "{:?}",
            report.undetected
        );
        assert!((report.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_patterns_detect_nothing() {
        let n = xor_netlist();
        let faults = fault_list(&n);
        let report = simulate_faults(&n, &[], &faults, None);
        assert_eq!(report.detected, 0);
        assert_eq!(report.undetected.len(), faults.len());
    }

    #[test]
    fn restricted_observability_reduces_coverage() {
        // Two outputs: f = a, g = b.  If only f is observed, faults on b's
        // path go undetected.
        let f = Cover::from_cubes(2, vec![Cube::parse("1-").unwrap()]);
        let g = Cover::from_cubes(2, vec![Cube::parse("-1").unwrap()]);
        let n = Netlist::from_covers(2, &[f, g]);
        let faults = fault_list(&n);
        let all = simulate_faults(&n, &exhaustive_patterns(2), &faults, None);
        let only_f = simulate_faults(&n, &exhaustive_patterns(2), &faults, Some(&[0]));
        assert!(only_f.detected < all.detected);
    }

    #[test]
    fn lfsr_patterns_have_the_requested_shape() {
        let p = lfsr_patterns(10, 37, 5);
        assert_eq!(p.len(), 37);
        assert!(p.iter().all(|x| x.len() == 10));
        // Deterministic for a fixed seed.
        assert_eq!(p, lfsr_patterns(10, 37, 5));
        assert_ne!(p, lfsr_patterns(10, 37, 6));
    }

    #[test]
    fn fault_list_has_two_faults_per_site() {
        let n = xor_netlist();
        assert_eq!(fault_list(&n).len(), 2 * n.fault_sites().len());
    }

    #[test]
    fn packed_patterns_transpose_and_mask_correctly() {
        // 70 patterns of width 3: two blocks, the second with 6 valid lanes.
        let patterns: Vec<Vec<bool>> = (0..70u32)
            .map(|v| (0..3).rev().map(|b| (v >> b) & 1 == 1).collect())
            .collect();
        let packed = PackedPatterns::pack(3, &patterns);
        assert_eq!(packed.num_patterns(), 70);
        assert_eq!(packed.num_blocks(), 2);
        assert_eq!(packed.lane_mask(0), u64::MAX);
        assert_eq!(packed.lane_mask(1), (1 << 6) - 1);
        for (p, pattern) in patterns.iter().enumerate() {
            let (b, lane) = (p / 64, p % 64);
            for (i, &bit) in pattern.iter().enumerate() {
                assert_eq!((packed.block(b)[i] >> lane) & 1 == 1, bit, "p={p} i={i}");
            }
        }
    }

    #[test]
    fn packed_simulation_equals_the_scalar_reference() {
        let n = xor_netlist();
        let faults = fault_list(&n);
        // Exhaustive (4 patterns: a partial block) and a >64-pattern LFSR
        // set (a full block plus a partial one).
        for patterns in [exhaustive_patterns(2), lfsr_patterns(2, 100, 7)] {
            let scalar = simulate_faults(&n, &patterns, &faults, None);
            let packed = simulate_faults_packed(&n, &patterns, &faults, None);
            assert_eq!(scalar, packed);
        }
    }

    #[test]
    fn packed_simulation_respects_restricted_observability() {
        let f = Cover::from_cubes(2, vec![Cube::parse("1-").unwrap()]);
        let g = Cover::from_cubes(2, vec![Cube::parse("-1").unwrap()]);
        let n = Netlist::from_covers(2, &[f, g]);
        let faults = fault_list(&n);
        let patterns = exhaustive_patterns(2);
        for observable in [None, Some(&[0usize][..]), Some(&[1usize][..])] {
            assert_eq!(
                simulate_faults(&n, &patterns, &faults, observable),
                simulate_faults_packed(&n, &patterns, &faults, observable),
                "{observable:?}"
            );
        }
    }

    #[test]
    fn wide_superblocks_tile_the_narrow_blocks() {
        // 130 patterns of width 3: 3 narrow blocks → 1 superblock with one
        // zero-padded word.
        let patterns = lfsr_patterns(3, 130, 9);
        let packed = PackedPatterns::pack(3, &patterns);
        assert_eq!(packed.num_blocks(), 3);
        assert_eq!(packed.num_superblocks(), 1);
        let wide = packed.wide_block(0);
        let masks = packed.wide_lane_masks(0);
        assert_eq!(wide.len(), 3);
        for (i, group) in wide.iter().enumerate() {
            for (w, &word) in group.iter().enumerate() {
                let expect = if w < packed.num_blocks() {
                    packed.block(w)[i]
                } else {
                    0
                };
                assert_eq!(word, expect, "input {i} word {w}");
            }
        }
        for (w, &mask) in masks.iter().enumerate() {
            let expect = if w < packed.num_blocks() {
                packed.lane_mask(w)
            } else {
                0
            };
            assert_eq!(mask, expect, "mask word {w}");
        }
        // 5 blocks → 2 superblocks.
        let packed = PackedPatterns::pack(2, &lfsr_patterns(2, 64 * 4 + 1, 3));
        assert_eq!(packed.num_superblocks(), 2);
        assert_eq!(packed.wide_lane_masks(1), [1, 0, 0, 0]);
    }

    /// tbk with the gate-level limits lifted: the fixed plan's coverage
    /// measurement against the full sweep.  Runs in the nightly workflow
    /// (`cargo test --release -p stc-bist -- --ignored`).
    #[test]
    #[ignore = "builds lifted tbk and re-sweeps it whole; run with --ignored"]
    fn lifted_tbk_coverage_equals_the_full_sweep() {
        let pipeline = crate::test_support::lifted_pipeline("tbk");
        for block in [&pipeline.c1.netlist, &pipeline.c2.netlist] {
            let patterns = crate::session_patterns(block, 256);
            let faults = fault_list(block);
            assert_eq!(
                simulate_faults_packed(block, &patterns, &faults, None),
                full_sweep_report(block, &patterns, &faults, None)
            );
        }
    }

    #[test]
    fn empty_patterns_and_empty_fault_lists_are_handled() {
        let n = xor_netlist();
        let faults = fault_list(&n);
        let no_patterns = simulate_faults_packed(&n, &[], &faults, None);
        assert_eq!(no_patterns.detected, 0);
        assert_eq!(no_patterns.undetected.len(), faults.len());
        let no_faults = simulate_faults_packed(&n, &exhaustive_patterns(2), &[], None);
        assert_eq!(no_faults.total_faults, 0);
        // The workspace-wide convention: an empty fault list is 0.0
        // coverage, not a vacuous 1.0 (or a 0/0 NaN).
        assert_eq!(no_faults.coverage(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::test_support::{arb_cover, arb_netlist};
    use proptest::prelude::*;

    /// Pattern counts around the 64-lane block and 256-lane superblock
    /// boundaries, plus the empty pattern set.
    const PATTERN_COUNTS: [usize; 7] = [0, 1, 63, 64, 65, 257, 513];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cone-restricted simulator reports exactly what the full
        /// sweep reports, on multi-level netlists with shared products,
        /// repeated, bare-input and constant outputs and unconnected
        /// inputs, observing all outputs or any subset.
        #[test]
        fn cone_simulation_equals_the_full_sweep_on_random_netlists(
            netlist in arb_netlist(),
            pattern_index in 0usize..PATTERN_COUNTS.len(),
            seed in 1u64..1000,
            (observe_all, subset) in (any::<bool>(), any::<u8>()),
        ) {
            let faults = fault_list(&netlist);
            let patterns = lfsr_patterns(
                netlist.num_inputs(),
                PATTERN_COUNTS[pattern_index],
                seed,
            );
            let observable: Option<Vec<usize>> = (!observe_all).then(|| {
                (0..netlist.num_outputs()).filter(|i| subset >> i & 1 == 1).collect()
            });
            let observable = observable.as_deref();
            prop_assert_eq!(
                simulate_faults_packed(&netlist, &patterns, &faults, observable),
                full_sweep_report(&netlist, &patterns, &faults, observable)
            );
        }

        #[test]
        fn packed_simulator_equals_scalar_reference_on_random_netlists(
            covers in proptest::collection::vec(arb_cover(4, 4), 1..=3),
            pattern_count in 0usize..80,
            seed in 1u64..1000,
        ) {
            let netlist = Netlist::from_covers(4, &covers);
            let faults = fault_list(&netlist);
            let patterns = lfsr_patterns(4, pattern_count, seed);
            prop_assert_eq!(
                simulate_faults(&netlist, &patterns, &faults, None),
                simulate_faults_packed(&netlist, &patterns, &faults, None)
            );
        }
    }
}
