//! Failure injection: the error paths users will actually hit must be
//! loud, typed, and descriptive.

use smache::arch::kernel::AverageKernel;
use smache::system::cascade::CascadeSystem;
use smache::system::multilane::MultilaneSystem;
use smache::system::smache_system::SystemConfig;
use smache::{CoreError, PipelineConfig, SmacheBuilder, SmacheSystem, TemporalPipeline};
use smache_sim::SimError;
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

#[test]
fn permanent_stall_trips_the_watchdog() {
    let mut sys = SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
        .build()
        .expect("build");
    // A consumer that never unstalls: the run must abort with a watchdog
    // error rather than spin forever.
    sys.set_stall_schedule(Box::new(|_| true));
    let input: Vec<u64> = (0..64).collect();
    let err = sys.run(&input, 1).expect_err("deadlock must be detected");
    match err {
        CoreError::Sim(SimError::Watchdog { waiting_for, .. }) => {
            assert!(waiting_for.contains("smache"), "{waiting_for}");
        }
        other => panic!("expected watchdog, got {other}"),
    }
}

#[test]
fn stall_released_before_budget_recovers() {
    // A long-but-finite stall burst must not trip the watchdog.
    let mut sys = SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
        .build()
        .expect("build");
    sys.set_stall_schedule(Box::new(|c| c < 500));
    let input: Vec<u64> = (0..64).collect();
    let report = sys.run(&input, 1).expect("recovers after the burst");
    assert!(report.metrics.cycles > 500);
}

/// A plan whose wiring cannot be resolved fails when the system is
/// elaborated — typed, naming the element and the offset — and never
/// panics or fails mid-run.
#[test]
fn unresolvable_plans_fail_at_construction() {
    let full = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
        .plan()
        .expect("plan");
    assert_eq!(full.static_buffers.len(), 2);
    for removed in 0..2 {
        let mut plan = full.clone();
        let missing = plan.static_buffers[removed].clone();
        plan.static_buffers = plan
            .static_buffers
            .iter()
            .filter(|b| b.id != missing.id)
            .cloned()
            .collect();
        let expected = format!(
            "no static buffer for offset {} serving element {}",
            missing.offset, missing.range_start
        );
        let err = SmacheSystem::new(
            plan.clone(),
            Box::new(AverageKernel),
            SystemConfig::default(),
        )
        .map(|_| ())
        .expect_err("unresolvable plan rejected");
        assert_eq!(err, CoreError::Config(expected.clone()), "buffer {removed}");
        let err = TemporalPipeline::new(plan, Box::new(AverageKernel), PipelineConfig::default())
            .map(|_| ())
            .expect_err("every surface rejects it");
        assert_eq!(err, CoreError::Config(expected), "buffer {removed}");
    }

    // Static banks are instantiated in plan order, so a buffer id must name
    // its own index. With the two buffers swapped, element 0 reads buffer 0
    // from index 1.
    let mut plan = full.clone();
    plan.static_buffers = full.static_buffers.iter().rev().cloned().collect();
    assert_eq!(plan.static_buffers[0].id, 1);
    let err = SmacheSystem::new(plan, Box::new(AverageKernel), SystemConfig::default())
        .map(|_| ())
        .expect_err("misnumbered bank rejected");
    assert_eq!(
        err,
        CoreError::Config(
            "element 0 reads static buffer 0, which is not at index 0 of the plan".into()
        )
    );

    // The kernel mask has one bit per stencil point: a 9×9 box (81 points)
    // cannot be wired.
    let box9: Vec<Vec<isize>> = (-4..=4)
        .flat_map(|r| (-4..=4).map(move |c| vec![r, c]))
        .collect();
    let plan = SmacheBuilder::new(GridSpec::d2(16, 16).expect("grid"))
        .shape(StencilShape::new(&box9).expect("shape"))
        .plan()
        .expect("plan");
    let err = SmacheSystem::new(plan, Box::new(AverageKernel), SystemConfig::default())
        .map(|_| ())
        .expect_err("over-wide shape rejected");
    assert_eq!(
        err,
        CoreError::Config("81-point shape exceeds the 64-bit kernel mask".into())
    );
}

#[test]
fn config_errors_are_descriptive() {
    let plan = || {
        SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
            .boundaries(BoundarySpec::paper_case())
            .plan()
            .expect("plan")
    };
    // Cascade refuses wrap boundaries with an explanation.
    let err = CascadeSystem::new(plan(), Box::new(AverageKernel), 2, SystemConfig::default())
        .map(|_| ())
        .expect_err("wraps rejected");
    assert!(err.to_string().contains("static buffers"), "{err}");

    // Multilane refuses too many lanes against dual-port banks.
    let err = MultilaneSystem::new(plan(), Box::new(AverageKernel), 3, SystemConfig::default())
        .map(|_| ())
        .expect_err("lanes capped");
    assert!(err.to_string().contains("ports"), "{err}");

    // Budget violations carry both numbers.
    let err = SmacheBuilder::new(GridSpec::d2(64, 64).expect("grid"))
        .on_chip_budget_bits(64)
        .plan()
        .expect_err("budget");
    match err {
        CoreError::BudgetExceeded {
            required_bits,
            budget_bits,
        } => {
            assert!(required_bits > budget_bits);
            assert_eq!(budget_bits, 64);
        }
        other => panic!("expected budget error, got {other}"),
    }
}

#[test]
fn dimension_mismatches_reported_at_plan_time() {
    let err = SmacheBuilder::new(GridSpec::d3(4, 4, 4).expect("grid"))
        .shape(StencilShape::four_point_2d())
        .boundaries(BoundarySpec::all_open(3).expect("bounds"))
        .plan()
        .expect_err("2D shape on a 3D grid");
    assert!(
        err.to_string().contains("2D") || err.to_string().contains("dims"),
        "{err}"
    );
}

#[test]
fn input_length_errors_name_both_sizes() {
    let mut sys = SmacheBuilder::new(GridSpec::d2(5, 5).expect("grid"))
        .build()
        .expect("build");
    let err = sys.run(&[1, 2, 3], 1).expect_err("length check");
    let msg = err.to_string();
    assert!(msg.contains('3') && msg.contains("25"), "{msg}");
}
