//! Property-based tests of the cube, cover, minimiser and netlist layers.

use super::*;
use proptest::prelude::*;

fn arb_cover(num_vars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
    proptest::collection::vec(proptest::collection::vec(0u8..3, num_vars), 0..=max_cubes).prop_map(
        move |cubes| {
            Cover::from_cubes(
                num_vars,
                cubes
                    .into_iter()
                    .map(|lits| {
                        Cube::from_literals(
                            lits.into_iter()
                                .map(|l| match l {
                                    0 => Literal::Zero,
                                    1 => Literal::One,
                                    _ => Literal::DontCare,
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            )
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn minimization_preserves_the_function(cover in arb_cover(4, 6)) {
        let minimized = cover.minimized(&Cover::new(4));
        // The minimised cover must agree with the original on every
        // minterm (no don't-cares were provided, so exact equivalence).
        for m in 0u32..16 {
            let minterm: Vec<bool> = (0..4).rev().map(|b| (m >> b) & 1 == 1).collect();
            prop_assert_eq!(cover.evaluate(&minterm), minimized.evaluate(&minterm));
        }
        prop_assert!(minimized.len() <= cover.len().max(1));
    }

    #[test]
    fn minimization_with_dont_cares_covers_the_on_set(on in arb_cover(4, 5), dc in arb_cover(4, 3)) {
        let minimized = on.minimized(&dc);
        for m in 0u32..16 {
            let minterm: Vec<bool> = (0..4).rev().map(|b| (m >> b) & 1 == 1).collect();
            if on.evaluate(&minterm) {
                prop_assert!(minimized.evaluate(&minterm), "ON minterm lost");
            }
            if minimized.evaluate(&minterm) {
                prop_assert!(on.evaluate(&minterm) || dc.evaluate(&minterm),
                    "minimised cover strayed outside ON ∪ DC");
            }
        }
    }

    #[test]
    fn netlists_implement_their_covers(cover in arb_cover(5, 6)) {
        let netlist = Netlist::from_covers(5, std::slice::from_ref(&cover));
        for m in 0u32..32 {
            let minterm: Vec<bool> = (0..5).rev().map(|b| (m >> b) & 1 == 1).collect();
            prop_assert_eq!(netlist.evaluate(&minterm)[0], cover.evaluate(&minterm));
        }
    }

    #[test]
    fn cover_equivalence_is_reflexive_and_symmetric(a in arb_cover(3, 4), b in arb_cover(3, 4)) {
        prop_assert!(a.equivalent(&a));
        prop_assert_eq!(a.equivalent(&b), b.equivalent(&a));
    }

    #[test]
    fn packed_evaluation_is_256_scalar_evaluations(
        covers in proptest::collection::vec(arb_cover(5, 5), 1..=3),
        flat_words in proptest::collection::vec(any::<u64>(), 20..=20),
        fault_site in 0usize..64,
        stuck in any::<bool>(),
    ) {
        let inputs: Vec<WideWord> = flat_words
            .chunks_exact(PACKED_WORDS)
            .map(|c| [c[0], c[1], c[2], c[3]])
            .collect();
        let netlist = Netlist::from_covers(5, &covers);
        let fault = (fault_site < netlist.gates().len()).then_some((fault_site, stuck));
        let mut values = Vec::new();
        netlist.eval_packed_wide_into(&inputs, fault, &mut values);
        prop_assert_eq!(values.len(), netlist.gates().len());
        let bit = |group: &WideWord, k: usize| (group[k / PACKED_LANES] >> (k % PACKED_LANES)) & 1 == 1;
        for k in 0..PACKED_WORDS * PACKED_LANES {
            let scalar_inputs: Vec<bool> = inputs.iter().map(|g| bit(g, k)).collect();
            let scalar = netlist.evaluate_with_fault(&scalar_inputs, fault);
            for (o, &node) in netlist.outputs().iter().enumerate() {
                prop_assert_eq!(
                    bit(&values[node], k),
                    scalar[o],
                    "output {} pattern {} fault {:?}", o, k, fault
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The positional-cube minimiser against the `Vec<Literal>` reference.

/// The widths the reference comparisons run at: the narrow end, the
/// synthesised-block range, and both sides of the 64-bit word boundary.
const WIDTHS: [usize; 7] = [1, 2, 5, 12, 33, 63, 64];

fn literal_of(code: u8) -> Literal {
    match code {
        0 => Literal::Zero,
        1 => Literal::One,
        _ => Literal::DontCare,
    }
}

/// One cube: the shared `background` literals, overwritten by
/// three-valued codes at the `active` positions and by up to two stray
/// codes anywhere (`(position, code)`).
fn build_cube(background: &[u8], active: &[usize], codes: &[u8], strays: &[(usize, u8)]) -> Cube {
    let n = background.len();
    let mut literals: Vec<Literal> = background.iter().map(|&code| literal_of(code)).collect();
    for (&v, &code) in active.iter().zip(codes) {
        literals[v] = literal_of(code);
    }
    for &(v, code) in strays {
        literals[v % n] = literal_of(code);
    }
    Cube::from_literals(literals)
}

/// Raw cubes: codes at the active positions plus stray codes.
type RawCube = (Vec<u8>, Vec<(usize, u8)>);

fn arb_raw_cubes(max_cubes: usize) -> impl Strategy<Value = Vec<RawCube>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0u8..3, 6),
            proptest::collection::vec((0usize..64, 0u8..3), 0..=2),
        ),
        0..=max_cubes,
    )
}

/// An ON-set and a DC-set over one of [`WIDTHS`].  The cubes share a random
/// background literal on every variable and vary on six shared positions
/// (the first is always the top variable) and two stray ones, so they
/// overlap and the minimiser has work to do at any width.  (A background
/// keeps the reference tractable: its tautology check splits on every free
/// variable in index order, so wide cubes with many don't-cares below a
/// literal cost it time exponential in their number.)
fn arb_on_dc() -> impl Strategy<Value = (Cover, Cover)> {
    (0usize..WIDTHS.len()).prop_flat_map(|w| {
        let n = WIDTHS[w];
        (
            proptest::collection::vec(0u8..2, n),
            proptest::collection::vec(0..n, 5),
            arb_raw_cubes(8),
            arb_raw_cubes(4),
        )
            .prop_map(move |(background, rest, on, dc)| {
                let mut active = vec![n - 1];
                active.extend(rest);
                let cover = |raw: Vec<RawCube>| {
                    Cover::from_cubes(
                        n,
                        raw.iter()
                            .map(|(codes, strays)| build_cube(&background, &active, codes, strays))
                            .collect(),
                    )
                };
                (cover(on), cover(dc))
            })
    })
}

/// The shape `synth.rs` produces: an ON-set of distinct minterm cubes in
/// table order and a DC-set of minterm cubes, over 3 to 7 variables.
fn arb_minterm_table() -> impl Strategy<Value = (Cover, Cover)> {
    (3usize..=7).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u8..6, 1 << n),
            proptest::collection::vec(any::<u32>(), 1 << n),
        )
            .prop_map(move |(kinds, keys)| {
                // Visit the minterms in a random order, like table rows.
                let mut order: Vec<usize> = (0..1 << n).collect();
                order.sort_by_key(|&m| keys[m]);
                let mut on = Cover::new(n);
                let mut dc = Cover::new(n);
                for m in order {
                    let bits: Vec<bool> = (0..n).map(|b| (m >> b) & 1 == 1).collect();
                    match kinds[m] {
                        0 | 1 => on.push(Cube::from_minterm(&bits)),
                        2 => dc.push(Cube::from_minterm(&bits)),
                        _ => {}
                    }
                }
                (on, dc)
            })
    })
}

/// Two cubes, usually of the same width (one of [`WIDTHS`]), a variable of
/// the first, a literal and a minterm of the first cube's width.
fn arb_cube_pair() -> impl Strategy<Value = (Cube, Cube, usize, Literal, Vec<bool>)> {
    (0usize..WIDTHS.len(), 0usize..WIDTHS.len(), 0u8..4).prop_flat_map(|(w, w2, same)| {
        let n = WIDTHS[w];
        let m = if same == 0 { WIDTHS[w2] } else { n };
        (
            proptest::collection::vec(0u8..4, n),
            proptest::collection::vec(0u8..4, m),
            0..n,
            0u8..3,
            proptest::collection::vec(any::<bool>(), n),
        )
            .prop_map(|(a, b, v, code, minterm)| {
                // Codes 2 and 3 are both don't-care: half the positions free.
                let cube = |codes: Vec<u8>| {
                    Cube::from_literals(codes.into_iter().map(literal_of).collect())
                };
                (cube(a), cube(b), v, literal_of(code), minterm)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_minimiser_returns_the_reference_cover((on, dc) in arb_on_dc()) {
        prop_assert_eq!(on.minimized(&dc), reference::minimized(&on, &dc));
    }

    #[test]
    fn packed_minimiser_returns_the_reference_cover_on_minterm_tables(
        (on, dc) in arb_minterm_table()
    ) {
        prop_assert_eq!(on.minimized(&dc), reference::minimized(&on, &dc));
    }

    #[test]
    fn containment_and_equivalence_match_the_reference((on, dc) in arb_on_dc()) {
        let n = on.num_vars();
        let queries = dc.cubes().iter().chain(on.cubes()).copied();
        for cube in queries.chain([Cube::universal(n)]) {
            prop_assert_eq!(
                on.covers_cube(&cube),
                reference::covers_cube(&on, &cube),
                "covers_cube({})", cube
            );
            prop_assert_eq!(dc.covers_cube(&cube), reference::covers_cube(&dc, &cube));
        }
        let minimized = on.minimized(&Cover::new(n));
        for (a, b) in [(&on, &dc), (&on, &minimized), (&minimized, &on), (&dc, &dc)] {
            prop_assert_eq!(a.equivalent(b), reference::equivalent(a, b));
        }
        prop_assert!(on.equivalent(&minimized));
    }

    #[test]
    fn cube_primitives_match_the_per_literal_model(
        (a, b, v, literal, minterm) in arb_cube_pair()
    ) {
        let (ra, rb) = (reference::Cube::from(&a), reference::Cube::from(&b));
        let n = a.num_vars();
        prop_assert_eq!(n, ra.num_vars());
        for u in 0..n {
            prop_assert_eq!(a.literal(u), ra.literal(u));
        }
        prop_assert_eq!(a.to_string(), ra.to_string());
        prop_assert_eq!(Cube::parse(&a.to_string()), Ok(a));
        prop_assert_eq!(a.literal_count(), ra.literal_count());
        if a.literal_count() > 0 || n < 64 {
            prop_assert_eq!(a.num_minterms(), ra.num_minterms());
        } else {
            prop_assert_eq!(a.num_minterms(), u64::MAX);
        }
        prop_assert_eq!(a.contains_minterm(&minterm), ra.contains_minterm(&minterm));
        prop_assert_eq!(
            Cube::from_minterm(&minterm),
            (&reference::Cube::from_minterm(&minterm)).into()
        );
        prop_assert_eq!(a == b, ra == rb);
        prop_assert_eq!(a.covers(&b), ra.covers(&rb));
        prop_assert_eq!(b.covers(&a), rb.covers(&ra));
        prop_assert_eq!(a.intersects(&b), ra.intersects(&rb));
        prop_assert_eq!(a.intersect(&b), ra.intersect(&rb).as_ref().map(Cube::from));
        prop_assert_eq!(a.distance(&b), ra.distance(&rb));
        prop_assert_eq!(a.with_dont_care(v), (&ra.with_dont_care(v)).into());
        prop_assert_eq!(a.with_literal(v, literal), (&ra.with_literal(v, literal)).into());
        if n - a.literal_count() <= 8 {
            prop_assert!(a.minterms().eq(ra.minterms()));
        }
        prop_assert_eq!(Cube::universal(n), (&reference::Cube::universal(n)).into());
    }
}

#[test]
fn widths_above_64_variables_are_rejected() {
    let text = "-".repeat(MAX_VARS + 1);
    assert_eq!(
        Cube::parse(&text),
        Err(LogicError::TooManyVariables {
            count: MAX_VARS + 1
        })
    );
    assert_eq!(Cube::parse(&text[1..]).map(|c| c.num_vars()), Ok(MAX_VARS));
    let result = std::panic::catch_unwind(|| Cube::universal(MAX_VARS + 1));
    assert!(result.is_err(), "wide constructors panic");
}
