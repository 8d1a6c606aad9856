//! 3D stencils end to end — "arbitrary stencil shapes" includes volumes.
//!
//! A 7-point stencil on a 3D grid with a circular depth axis: the wrap
//! offsets span whole planes, so the planner must statify two plane-sized
//! buffers while the stream window stays at two planes + 3 words.

use smache::arch::kernel::{AverageKernel, MaxKernel};
use smache::functional::golden::golden_run;
use smache::functional::model::FunctionalSmache;
use smache::{HybridMode, SmacheBuilder};
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

fn bounds_3d(depth: Boundary) -> BoundarySpec {
    BoundarySpec::new(&[
        AxisBoundaries::both(depth),
        AxisBoundaries::both(Boundary::Open),
        AxisBoundaries::both(Boundary::Open),
    ])
    .expect("three axes")
}

#[test]
fn planner_statifies_plane_wraps() {
    let (d, h, w) = (5usize, 6usize, 8usize);
    let grid = GridSpec::d3(d, h, w).expect("grid");
    let plan = SmacheBuilder::new(grid)
        .shape(StencilShape::seven_point_3d())
        .boundaries(bounds_3d(Boundary::Circular))
        .plan()
        .expect("plan");

    let plane = h * w;
    assert_eq!(plan.lookahead, plane, "window spans one plane each way");
    assert_eq!(plan.lookback, plane);
    assert_eq!(plan.capacity, 2 * plane + 3);
    assert_eq!(plan.static_buffers.len(), 2, "top and bottom planes");
    for b in plan.static_buffers.iter() {
        assert_eq!(b.len, plane, "each static buffer holds a whole plane");
        assert_eq!(b.offset.unsigned_abs(), ((d - 1) * plane) as u64);
    }
}

#[test]
fn cycle_accurate_3d_matches_golden() {
    let (d, h, w) = (4usize, 5usize, 6usize);
    let grid = GridSpec::d3(d, h, w).expect("grid");
    let bounds = bounds_3d(Boundary::Circular);
    let shape = StencilShape::seven_point_3d();
    let input: Vec<u64> = (0..(d * h * w) as u64)
        .map(|i| (i * 31 + 7) % 1013)
        .collect();

    let golden = golden_run(&grid, &bounds, &shape, &AverageKernel, &input, 3).expect("golden");

    let mut system = SmacheBuilder::new(grid.clone())
        .shape(shape.clone())
        .boundaries(bounds.clone())
        .build()
        .expect("build");
    let report = system.run(&input, 3).expect("run");
    assert_eq!(report.output, golden, "3D cycle-accurate output");

    // Functional model too.
    let plan = SmacheBuilder::new(grid)
        .shape(shape)
        .boundaries(bounds)
        .plan()
        .expect("plan");
    let mut f = FunctionalSmache::new(plan);
    assert_eq!(
        f.run(&AverageKernel, &input, 3).expect("functional"),
        golden
    );
}

#[test]
fn open_3d_volume_needs_no_statics() {
    let grid = GridSpec::d3(4, 4, 4).expect("grid");
    let plan = SmacheBuilder::new(grid.clone())
        .shape(StencilShape::seven_point_3d())
        .boundaries(bounds_3d(Boundary::Open))
        .plan()
        .expect("plan");
    assert!(plan.static_buffers.is_empty());

    let input: Vec<u64> = (0..64).collect();
    let mut system = SmacheBuilder::new(grid.clone())
        .shape(StencilShape::seven_point_3d())
        .boundaries(bounds_3d(Boundary::Open))
        .kernel(Box::new(MaxKernel))
        .build()
        .expect("build");
    let report = system.run(&input, 2).expect("run");
    let golden = golden_run(
        &grid,
        &bounds_3d(Boundary::Open),
        &StencilShape::seven_point_3d(),
        &MaxKernel,
        &input,
        2,
    )
    .expect("golden");
    assert_eq!(report.output, golden);
}

#[test]
fn mirror_depth_axis_3d() {
    let grid = GridSpec::d3(3, 4, 5).expect("grid");
    let bounds = bounds_3d(Boundary::Mirror);
    let shape = StencilShape::seven_point_3d();
    let input: Vec<u64> = (0..60).map(|i| i * i % 97).collect();
    let mut system = SmacheBuilder::new(grid.clone())
        .shape(shape.clone())
        .boundaries(bounds.clone())
        .hybrid(HybridMode::CaseR)
        .build()
        .expect("build");
    let report = system.run(&input, 2).expect("run");
    let golden = golden_run(&grid, &bounds, &shape, &AverageKernel, &input, 2).expect("golden");
    assert_eq!(report.output, golden);
}
