//! The embedded benchmark suite mirroring the machines evaluated in the paper.
//!
//! The paper evaluates the OSTR synthesis procedure on 13 fully specified FSM
//! benchmarks from the IWLS'93 distribution.  That distribution is not shipped
//! with this repository, so the suite is reconstructed as follows (see
//! `DESIGN.md` §2 at the repository root for the full rationale):
//!
//! * **Functional reconstructions** — machines whose behaviour is defined by
//!   their name: `shiftreg` (3-bit serial shift register) and `tav`
//!   (a 2×2 crossed product), both of which reach the lower bound
//!   `|S1| · |S2| = |S|` exactly as the paper reports.
//! * **Planted machines** — `bbara`, `dk16`, `dk27`, `dk512`, `tbk`: the paper
//!   found non-trivial decompositions for these, so stand-ins are generated
//!   as [`crate::planted_decomposable`] would generate them, which
//!   guarantees a non-trivial symmetric partition pair of approximately the
//!   published factor sizes.  The suite records the attempt that function's
//!   seed scan picks for each, and builds only that attempt.
//! * **Random machines** — `bbtas`, `dk14`, `dk15`, `dk17`, `mc`, `ex1`: the
//!   paper found only the trivial solution for these; seeded random machines
//!   with the published state/input/output counts share that property with
//!   overwhelming probability.
//!
//! Every entry also records the values published in Table 1 / Table 2 of the
//! paper so the benchmark harness can print paper-vs-measured comparisons.

use crate::kiss2;
use crate::machine::Mealy;
use crate::random::{planted_attempt, random_machine, PlantedInfo, PlantedSpec};

/// One row of Table 1 of the paper (paper-reported values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperTable1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `|S|` — states of the original machine.
    pub states: usize,
    /// `|S1|` — states of the first factor of the best realization found.
    pub s1: usize,
    /// `|S2|` — states of the second factor of the best realization found.
    pub s2: usize,
    /// Flip-flops for a conventional BIST (`2 · ⌈log2 |S|⌉`).
    pub conventional_bist_ff: u32,
    /// Flip-flops for the pipeline structure (`⌈log2 |S1|⌉ + ⌈log2 |S2|⌉`).
    pub pipeline_ff: u32,
    /// `true` for `tbk`, where the paper reports the best solution found
    /// within a time limit rather than the exact optimum.
    pub timeout: bool,
}

/// One row of Table 2 of the paper (paper-reported values).
///
/// Entries that are illegible in the archival scan are `None`; the harness
/// reports them as "n/a" and compares only the measured values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperTable2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// `log2 |V|` — the full search-tree size is `2^|𝔐|`.
    pub log2_tree_size: Option<u32>,
    /// Number of nodes actually investigated with the Lemma 1 pruning.
    pub nodes_investigated: Option<u64>,
}

/// A benchmark machine together with the paper-reported reference data.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The machine itself.
    pub machine: Mealy,
    /// The corresponding row of Table 1, if the machine appears there.
    pub table1: Option<PaperTable1Row>,
    /// The corresponding row of Table 2, if the machine appears there.
    pub table2: Option<PaperTable2Row>,
    /// For planted machines, the planted decomposition (an upper bound on the
    /// optimal factor sizes).
    pub planted: Option<PlantedInfo>,
    /// How the stand-in machine was constructed.
    pub provenance: Provenance,
}

/// How a benchmark stand-in was constructed (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Functionally reconstructed from the benchmark's known behaviour.
    Functional,
    /// Generated with a planted pipeline decomposition.
    Planted,
    /// Seeded random machine with the published alphabet sizes.
    Random,
}

impl Benchmark {
    /// The benchmark's name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.machine.name()
    }
}

/// The paper's Table 1, as published.
#[must_use]
pub fn paper_table1() -> Vec<PaperTable1Row> {
    fn row(
        name: &'static str,
        states: usize,
        s1: usize,
        s2: usize,
        conv: u32,
        pipe: u32,
        timeout: bool,
    ) -> PaperTable1Row {
        PaperTable1Row {
            name,
            states,
            s1,
            s2,
            conventional_bist_ff: conv,
            pipeline_ff: pipe,
            timeout,
        }
    }
    vec![
        row("bbara", 10, 7, 7, 8, 6, false),
        row("bbtas", 6, 6, 6, 6, 6, false),
        row("dk14", 7, 7, 7, 6, 6, false),
        row("dk15", 4, 4, 4, 4, 4, false),
        row("dk16", 27, 24, 24, 10, 10, false),
        row("dk17", 8, 8, 8, 6, 6, false),
        row("dk27", 7, 6, 7, 6, 6, false),
        row("dk512", 15, 14, 14, 8, 8, false),
        row("mc", 4, 4, 4, 4, 4, false),
        row("ex1", 20, 20, 20, 10, 10, false),
        row("shiftreg", 8, 4, 2, 6, 3, false),
        row("tav", 4, 2, 2, 4, 2, false),
        row("tbk", 32, 16, 16, 10, 8, true),
    ]
}

/// The paper's Table 2, as published (illegible entries are `None`).
#[must_use]
pub fn paper_table2() -> Vec<PaperTable2Row> {
    fn row(name: &'static str, log2: Option<u32>, investigated: Option<u64>) -> PaperTable2Row {
        PaperTable2Row {
            name,
            log2_tree_size: log2,
            nodes_investigated: investigated,
        }
    }
    vec![
        row("bbara", Some(43), Some(815)),
        row("bbtas", None, Some(375)),
        row("dk14", Some(10), None),
        row("dk15", Some(4), Some(7)),
        row("dk16", Some(206), Some(337_041)),
        row("dk17", Some(20), Some(63)),
        row("dk27", None, Some(203)),
        row("dk512", Some(56), Some(343_853)),
        row("mc", Some(7), Some(13)),
        row("ex1", Some(162), Some(323)),
        row("shiftreg", Some(8), Some(45)),
        row("tav", Some(7), Some(47)),
    ]
}

/// KISS2 source of the `shiftreg` benchmark: a 3-bit serial shift register
/// whose output is the bit shifted out.
pub const SHIFTREG_KISS2: &str = "\
# shiftreg: 3-bit serial shift register, output = bit shifted out (MSB)
.i 1
.o 1
.s 8
.p 16
.r 000
0 000 000 0
1 000 001 0
0 001 010 0
1 001 011 0
0 010 100 0
1 010 101 0
0 011 110 0
1 011 111 0
0 100 000 1
1 100 001 1
0 101 010 1
1 101 011 1
0 110 100 1
1 110 101 1
0 111 110 1
1 111 111 1
.e
";

/// Builds the `shiftreg` benchmark machine by parsing [`SHIFTREG_KISS2`].
#[must_use]
pub fn shiftreg() -> Mealy {
    kiss2::parse(SHIFTREG_KISS2, "shiftreg").expect("embedded KISS2 is valid")
}

/// Builds the `tav` stand-in: a 4-state machine built as a crossed product of
/// two 1-bit cells (`a' = b ⊕ i0`, `b' = a ⊕ i1`), with 4 input bits and
/// 4 output symbols as in the original benchmark.
#[must_use]
pub fn tav() -> Mealy {
    let num_inputs = 16; // 4 input bits
    let mut builder = Mealy::builder("tav", 4, num_inputs, 4);
    builder
        .state_names(["a0b0", "a0b1", "a1b0", "a1b1"])
        .expect("distinct names");
    for a in 0..2usize {
        for b in 0..2usize {
            let state = a * 2 + b;
            for input in 0..num_inputs {
                let i0 = input & 1;
                let i1 = (input >> 1) & 1;
                let i2 = (input >> 2) & 1;
                let i3 = (input >> 3) & 1;
                // Crossed structure: the next a depends only on b (and the
                // input), the next b depends only on a (and the input).
                let next_a = b ^ i0;
                let next_b = a ^ i1;
                let next = next_a * 2 + next_b;
                // Output: two bits mixing state and input, arbitrary but fixed.
                let out = ((a ^ i2) << 1) | (b & i3);
                builder
                    .transition(state, input, next, out)
                    .expect("indices in range");
            }
        }
    }
    builder.build().expect("fully specified")
}

/// The scan length that picked each planted stand-in's recorded attempt in
/// [`PLANTED`].
const SCAN_ATTEMPTS: u32 = 30_000;

/// The spec of a planted stand-in, scanned over [`SCAN_ATTEMPTS`] attempts.
const fn planted_spec(
    rows: usize,
    cols: usize,
    states: usize,
    inputs: usize,
    outputs: usize,
    map_pairs: usize,
    seed: u64,
) -> PlantedSpec {
    PlantedSpec {
        rows,
        cols,
        states,
        inputs,
        outputs,
        map_pairs,
        seed,
        max_attempts: SCAN_ATTEMPTS,
    }
}

/// The planted stand-ins: name, spec, and the attempt that
/// [`crate::planted_decomposable`]'s scan of that spec picks.  The suite
/// builds only the recorded attempt; the
/// `recorded_attempts_are_the_scan_winners` test re-runs the scan to check
/// each one.
const PLANTED: [(&str, PlantedSpec, u32); 5] = [
    ("bbara", planted_spec(7, 7, 10, 16, 4, 2, 0xbba7a), 6249),
    ("dk16", planted_spec(24, 24, 27, 4, 5, 2, 0xd16), 2750),
    ("dk27", planted_spec(6, 7, 7, 2, 2, 2, 0xd27), 3337),
    ("dk512", planted_spec(14, 14, 15, 2, 3, 2, 0xd512), 20008),
    ("tbk", planted_spec(16, 16, 32, 64, 3, 2, 0x7bc), 2507),
];

/// Builds the complete benchmark suite (13 machines, same order as Table 1).
///
/// Construction is deterministic: repeated calls return identical machines.
/// Each planted stand-in is built from the one seed-scan attempt recorded
/// for it, not re-scanned.  The suite is built once per process and cached,
/// so a later call only clones it.
#[must_use]
pub fn suite() -> Vec<Benchmark> {
    cached_suite().to_vec()
}

/// The suite, built on first use.
fn cached_suite() -> &'static [Benchmark] {
    static SUITE: std::sync::OnceLock<Vec<Benchmark>> = std::sync::OnceLock::new();
    SUITE.get_or_init(build_suite)
}

fn build_suite() -> Vec<Benchmark> {
    let t1 = paper_table1();
    let t2 = paper_table2();
    let find1 = |name: &str| t1.iter().copied().find(|r| r.name == name);
    let find2 = |name: &str| t2.iter().copied().find(|r| r.name == name);

    let planted = |name: &'static str| {
        let (_, spec, attempt) = PLANTED
            .iter()
            .find(|(planted, ..)| *planted == name)
            .expect("every planted stand-in has a PLANTED row");
        let (machine, info) = planted_attempt(name, spec, *attempt);
        Benchmark {
            machine,
            table1: find1(name),
            table2: find2(name),
            planted: Some(info),
            provenance: Provenance::Planted,
        }
    };
    let random = |name: &'static str, states, inputs, outputs, seed| Benchmark {
        machine: random_machine(name, states, inputs, outputs, seed),
        table1: find1(name),
        table2: find2(name),
        planted: None,
        provenance: Provenance::Random,
    };
    let functional = |name: &'static str, machine: Mealy| Benchmark {
        machine,
        table1: find1(name),
        table2: find2(name),
        planted: None,
        provenance: Provenance::Functional,
    };

    vec![
        planted("bbara"),
        random("bbtas", 6, 4, 4, 0xbb7a5),
        random("dk14", 7, 8, 5, 0xd14),
        random("dk15", 4, 8, 5, 0xd15),
        planted("dk16"),
        random("dk17", 8, 4, 3, 0xd17),
        planted("dk27"),
        planted("dk512"),
        random("mc", 4, 8, 5, 0x3c),
        random("ex1", 20, 512, 8, 0xe1),
        functional("shiftreg", shiftreg()),
        functional("tav", tav()),
        planted("tbk"),
    ]
}

/// Looks up a single benchmark by name.
#[must_use]
pub fn by_name(name: &str) -> Option<Benchmark> {
    cached_suite().iter().find(|b| b.name() == name).cloned()
}

/// Names of all benchmarks in suite order.
#[must_use]
pub fn names() -> Vec<&'static str> {
    paper_table1().iter().map(|r| r.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::is_strongly_reachable;
    use crate::random::{best_planted_attempt, planted_decomposable};
    use stc_partition::{is_symmetric_pair, Partition};

    #[test]
    fn suite_has_thirteen_machines_in_table_order() {
        let suite = suite();
        assert_eq!(suite.len(), 13);
        let names: Vec<&str> = suite.iter().map(Benchmark::name).collect();
        assert_eq!(
            names,
            vec![
                "bbara", "bbtas", "dk14", "dk15", "dk16", "dk17", "dk27", "dk512", "mc", "ex1",
                "shiftreg", "tav", "tbk"
            ]
        );
    }

    #[test]
    fn every_benchmark_is_reachable_and_annotated() {
        for b in suite() {
            assert!(
                is_strongly_reachable(&b.machine),
                "{} unreachable",
                b.name()
            );
            assert!(b.table1.is_some(), "{} missing Table 1 row", b.name());
        }
    }

    #[test]
    fn functional_and_random_machines_match_published_state_counts() {
        for b in suite() {
            let expected = b.table1.unwrap().states;
            match b.provenance {
                Provenance::Functional | Provenance::Random => {
                    assert_eq!(b.machine.num_states(), expected, "{}", b.name());
                }
                Provenance::Planted => {
                    // Planted machines aim for the published count; allow a
                    // small deviation but never a trivial machine.
                    assert!(b.machine.num_states() >= 2, "{}", b.name());
                }
            }
        }
    }

    #[test]
    fn shiftreg_matches_the_shift_register_semantics() {
        let m = shiftreg();
        assert_eq!(m.num_states(), 8);
        assert_eq!(m.num_inputs(), 2);
        // Shifting in 1,1,1 from state 000 outputs 0,0,0 and ends in 111.
        let start = m.state_index("000").unwrap();
        let (outs, end) = m.run(start, &[1, 1, 1]);
        assert_eq!(
            outs.iter().map(|&o| m.output_name(o)).collect::<Vec<_>>(),
            ["0", "0", "0"]
        );
        assert_eq!(m.state_name(end), "111");
        // Three more shifts of 0 push the ones out.
        let (outs, end) = m.run(end, &[0, 0, 0]);
        assert_eq!(
            outs.iter().map(|&o| m.output_name(o)).collect::<Vec<_>>(),
            ["1", "1", "1"]
        );
        assert_eq!(m.state_name(end), "000");
    }

    #[test]
    fn shiftreg_admits_the_published_4x2_pair() {
        // π groups states by (b2, b0), τ groups by b1; this is a symmetric
        // partition pair with identity intersection (|S1| = 4, |S2| = 2).
        let m = shiftreg();
        let label = |s: usize| -> (usize, usize) {
            let name = m.state_name(s).as_bytes();
            let b2 = (name[0] - b'0') as usize;
            let b1 = (name[1] - b'0') as usize;
            let b0 = (name[2] - b'0') as usize;
            (b2 * 2 + b0, b1)
        };
        let pi = Partition::from_labels(&(0..8).map(|s| label(s).0).collect::<Vec<_>>());
        let tau = Partition::from_labels(&(0..8).map(|s| label(s).1).collect::<Vec<_>>());
        assert_eq!(pi.num_blocks(), 4);
        assert_eq!(tau.num_blocks(), 2);
        assert!(is_symmetric_pair(&m, &pi, &tau));
        assert!(pi.meet(&tau).unwrap().is_identity());
    }

    #[test]
    fn tav_admits_a_2x2_pair() {
        let m = tav();
        assert_eq!(m.num_states(), 4);
        assert_eq!(m.num_inputs(), 16);
        let pi = Partition::from_labels(&[0, 0, 1, 1]); // by a
        let tau = Partition::from_labels(&[0, 1, 0, 1]); // by b
        assert!(is_symmetric_pair(&m, &pi, &tau));
        assert!(pi.meet(&tau).unwrap().is_identity());
    }

    #[test]
    fn planted_benchmarks_have_nontrivial_planted_pairs() {
        for b in suite() {
            if b.provenance != Provenance::Planted {
                continue;
            }
            let info = b.planted.as_ref().expect("planted info present");
            let pi = Partition::from_labels(&info.row_of_state);
            let tau = Partition::from_labels(&info.col_of_state);
            assert!(
                is_symmetric_pair(&b.machine, &pi, &tau),
                "{}: planted pair is not symmetric",
                b.name()
            );
            assert!(pi.meet(&tau).unwrap().is_identity(), "{}", b.name());
            assert!(
                info.rows_used < b.machine.num_states() || info.cols_used < b.machine.num_states(),
                "{}: planted pair is trivial",
                b.name()
            );
        }
    }

    #[test]
    fn by_name_and_names_are_consistent() {
        assert_eq!(names().len(), 13);
        assert!(by_name("shiftreg").is_some());
        assert!(by_name("not-a-benchmark").is_none());
    }

    #[test]
    fn paper_tables_are_internally_consistent() {
        for r in paper_table1() {
            // Conventional BIST always needs 2·⌈log2|S|⌉ flip-flops.
            let expect = 2 * crate::machine::ceil_log2(r.states);
            assert_eq!(r.conventional_bist_ff, expect, "{}", r.name);
            // The pipeline FF count follows from the factor sizes.
            let pipe = crate::machine::ceil_log2(r.s1) + crate::machine::ceil_log2(r.s2);
            assert_eq!(r.pipeline_ff, pipe, "{}", r.name);
        }
    }

    #[test]
    fn recorded_attempts_are_the_scan_winners() {
        for (name, spec, attempt) in &PLANTED {
            assert_eq!(best_planted_attempt(spec), *attempt, "{name}");
            assert_eq!(
                planted_decomposable(name, *spec),
                planted_attempt(name, spec, *attempt),
                "{name}"
            );
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = suite();
        let b = suite();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.machine, y.machine);
        }
    }
}
