//! The positional-cube minimiser returns exactly the covers of the
//! `Vec<Literal>` reference it replaced (`stc_logic::reference`): same
//! cubes in the same order, on every block the flow minimises.
//!
//! The inputs are every gate-level machine of the embedded suite and two
//! machines shaped like the `bist_heavy` benchmark pool (tbk's 64 inputs on
//! a 24-state planted grid), whose blocks are minimised under the default
//! row limit.  The crate proptests cover random and minterm-table covers;
//! this test pins the flow's own blocks.

use stc::fsm::{kiss2, planted_decomposable, Mealy, PlantedSpec};
use stc::logic::{reference, synthesize_pipeline, PipelineLogic, SynthOptions};
use stc::pipeline::{embedded_corpus, StcConfig, Synthesis};

/// A `bist_heavy`-shaped machine, generated and read back through KISS2
/// as that pool is.
fn heavy(seed: u64) -> Mealy {
    let spec = PlantedSpec {
        rows: 6,
        cols: 6,
        states: 24,
        inputs: 64,
        outputs: 3,
        map_pairs: 2,
        seed,
        max_attempts: 2000,
    };
    let machine = planted_decomposable("heavy", spec).0;
    kiss2::parse(&kiss2::write(&machine), "heavy").expect("written KISS2 parses")
}

/// Asserts packed ≡ reference on every block of `machine`, and returns
/// whether any block was minimised at all.
fn assert_matches_reference(session: &Synthesis, machine: &Mealy) -> Option<bool> {
    let encoded = session.encode(&session.decompose_only(machine)).ok()?;
    let options = SynthOptions::default();
    let packed = synthesize_pipeline(&encoded.pipeline, options);
    let spec = reference::synthesize_pipeline(&encoded.pipeline, options);
    let blocks = |logic: &PipelineLogic| [logic.c1.clone(), logic.c2.clone(), logic.output.clone()];
    for (p, r) in blocks(&packed).iter().zip(&blocks(&spec)) {
        assert_eq!(
            p.covers,
            r.covers,
            "{}: block {} differs from the reference minimiser",
            machine.name(),
            p.name
        );
    }
    assert_eq!(packed, spec, "{}: netlists differ", machine.name());
    let raw = synthesize_pipeline(
        &encoded.pipeline,
        SynthOptions {
            minimize: false,
            ..options
        },
    );
    Some(packed != raw)
}

#[test]
fn embedded_gate_level_blocks_match_the_reference_minimiser() {
    let session = Synthesis::builder().build();
    let checked: Vec<String> = embedded_corpus()
        .iter()
        .filter(|entry| assert_matches_reference(&session, &entry.machine).is_some())
        .map(|entry| entry.name().to_string())
        .collect();
    assert!(
        checked.iter().any(|name| name == "bbara"),
        "bbara, the costliest logic stage, is gate-level: {checked:?}"
    );
}

#[test]
fn bist_heavy_shaped_blocks_match_the_reference_minimiser() {
    let mut config = StcConfig::default();
    config.set("gate_level.max_states", "64").unwrap();
    config.set("gate_level.max_inputs", "64").unwrap();
    let session = Synthesis::builder().config(config).build();
    for seed in [143_542, 198_975] {
        let minimised = assert_matches_reference(&session, &heavy(seed))
            .expect("the lifted limits admit the machine");
        assert!(minimised, "seed {seed}: some block is minimised");
    }
}
