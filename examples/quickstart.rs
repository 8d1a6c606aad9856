//! Quickstart: build the paper's validation problem, run it, and read the
//! report.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use smache::prelude::*;

fn main() {
    // The paper's validation configuration: an 11×11 grid, a 4-point
    // averaging stencil, circular boundaries at the horizontal edges
    // (top/bottom rows wrap) and open boundaries at the vertical edges.
    let grid = GridSpec::d2(11, 11).expect("valid grid");
    let mut system = SmacheBuilder::new(grid.clone())
        .shape(StencilShape::four_point_2d())
        .boundaries(BoundarySpec::paper_case())
        .build()
        .expect("valid configuration");

    // What did the planner decide? Two static buffers (T and B: the
    // wrapped rows) and a 25-word stream buffer.
    let plan = system.plan();
    println!(
        "stream buffer: {} words (lookahead {}, lookback {})",
        plan.capacity, plan.lookahead, plan.lookback
    );
    for b in plan.static_buffers.iter() {
        println!(
            "static buffer {}: {} words, serves stream offset {:+} of elements {}..{}",
            b.name,
            b.len,
            b.offset,
            b.range_start,
            b.range_start + b.len
        );
    }
    println!("stencil cases: {}", plan.n_cases);

    // Run 100 work-instances, as in Fig. 2 of the paper.
    let input: Vec<u64> = (0..121).collect();
    let report = system.run(&input, 100).expect("simulation");
    println!("\n{}", report.metrics);
    println!("warm-up: {} cycles", report.warmup_cycles);
    println!("resources: {}", report.metrics.resources);

    // Verify against the direct software evaluation.
    let golden = golden_run(
        &grid,
        &BoundarySpec::paper_case(),
        &StencilShape::four_point_2d(),
        &AverageKernel,
        &input,
        100,
    )
    .expect("golden");
    assert_eq!(report.output, golden);
    println!("\noutput verified bit-identical to the golden reference");
}
