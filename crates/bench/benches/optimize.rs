//! Criterion bench: the BIST plan optimizer end to end.
//!
//! `plan_optimize/*` measures `optimize_plan` — deterministic candidate
//! enumeration, incumbent-windowed detection profiles and minimal-length
//! truncation — on the same two machines `plan_coverage/*` measures, so the
//! committed baseline pins the cost of the optimize stage relative to a
//! single coverage measurement.  Fault dropping across candidates and the
//! shrinking simulation window are what keep the 16-candidate default within
//! a small multiple of one plain measurement; a regression here usually
//! means one of those reuse paths broke.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use stc_bist::{optimize_plan, OptimizeOptions};
use stc_encoding::EncodedPipeline;
use stc_fsm::benchmarks;
use stc_logic::{synthesize_pipeline, PipelineLogic, SynthOptions};
use stc_synth::solve;

/// The synthesised two-block pipeline of a benchmark machine, as the
/// pipeline's optimize stage sees it.
fn pipeline_logic(name: &str) -> PipelineLogic {
    let machine = benchmarks::by_name(name).expect("benchmark exists").machine;
    let realization = solve(&machine).best.realize(&machine);
    let encoded = EncodedPipeline::new(&machine, &realization);
    synthesize_pipeline(&encoded, SynthOptions::default())
}

fn plan_optimize(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_optimize");
    group.sample_size(10);

    // The pipeline stage's defaults: 100% target, 16 candidates per block,
    // and the 2 × 256 total-length budget of the default pattern count.
    let options = OptimizeOptions {
        max_total_length: 512,
        ..OptimizeOptions::default()
    };
    for name in ["shiftreg", "dk27"] {
        let pipeline = pipeline_logic(name);
        group.bench_with_input(BenchmarkId::new("default16", name), &pipeline, |b, p| {
            b.iter(|| optimize_plan(p, &options));
        });
    }
    group.finish();
}

criterion_group!(benches, plan_optimize);
criterion_main!(benches);
