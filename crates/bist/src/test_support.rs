//! Shared strategies of the crate's property tests.

use proptest::prelude::*;
use stc_logic::{Cover, Cube, Literal};

/// A random cover of up to `max_cubes` cubes over `num_vars` variables.
pub(crate) fn arb_cover(num_vars: usize, max_cubes: usize) -> impl Strategy<Value = Cover> {
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
