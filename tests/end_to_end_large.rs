//! Larger end-to-end runs: stalls, long instance chains, a big grid, and
//! the codegen path — the slow-but-thorough tier of the suite.

use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::{HybridMode, SmacheBuilder};
use smache_baseline::{BaselineConfig, BaselineSystem};
use smache_codegen::{lint_verilog, VerilogGen};
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

#[test]
fn large_grid_long_run_matches_golden() {
    let grid = GridSpec::d2(96, 96).expect("valid");
    let bounds = BoundarySpec::paper_case();
    let shape = StencilShape::four_point_2d();
    let input: Vec<u64> = (0..grid.len() as u64)
        .map(|i| (i * 2654435761) % 1_000_003)
        .collect();

    let mut system = SmacheBuilder::new(grid.clone())
        .shape(shape.clone())
        .boundaries(bounds.clone())
        .build()
        .expect("build");
    let report = system.run(&input, 12).expect("run");
    let golden = golden_run(&grid, &bounds, &shape, &AverageKernel, &input, 12).expect("golden");
    assert_eq!(report.output, golden);

    // Streaming efficiency: at 96×96 the per-instance overhead is small.
    let per_instance = (report.metrics.cycles - report.warmup_cycles) as f64 / 12.0;
    assert!(
        per_instance < grid.len() as f64 * 1.15,
        "per-instance cycles {per_instance} vs N={}",
        grid.len()
    );
}

#[test]
fn heavy_stall_schedule_preserves_output() {
    let grid = GridSpec::d2(16, 16).expect("valid");
    let input: Vec<u64> = (0..256).collect();

    let mut clean = SmacheBuilder::new(grid.clone()).build().expect("build");
    let clean_out = clean.run(&input, 4).expect("run").output;

    // Stall 2 of every 3 cycles.
    let mut stalled = SmacheBuilder::new(grid).build().expect("build");
    stalled.set_stall_schedule(Box::new(|c| c % 3 != 0));
    let stalled_report = stalled.run(&input, 4).expect("stalled run");
    assert_eq!(stalled_report.output, clean_out);
}

#[test]
fn irregular_stall_bursts() {
    let grid = GridSpec::d2(12, 12).expect("valid");
    let input: Vec<u64> = (0..144).map(|i| i * 13 % 997).collect();
    let mut clean = SmacheBuilder::new(grid.clone()).build().expect("build");
    let expected = clean.run(&input, 3).expect("run").output;

    // Pseudo-random stall bursts from a simple LCG.
    let mut sys = SmacheBuilder::new(grid).build().expect("build");
    sys.set_stall_schedule(Box::new(|c| {
        let x = c
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % 5 < 2
    }));
    let got = sys.run(&input, 3).expect("stalled run");
    assert_eq!(got.output, expected);
}

#[test]
fn baseline_and_smache_agree_on_large_grid() {
    let grid = GridSpec::d2(48, 48).expect("valid");
    let bounds = BoundarySpec::paper_case();
    let shape = StencilShape::four_point_2d();
    let input: Vec<u64> = (0..grid.len() as u64).map(|i| i % 4096).collect();

    let mut smache = SmacheBuilder::new(grid.clone())
        .shape(shape.clone())
        .boundaries(bounds.clone())
        .build()
        .expect("build");
    let s = smache.run(&input, 3).expect("smache");

    let mut baseline = BaselineSystem::new(
        grid,
        shape,
        bounds,
        Box::new(AverageKernel),
        BaselineConfig::default(),
    )
    .expect("baseline");
    let b = baseline.run(&input, 3).expect("baseline");
    assert_eq!(s.output, b.output);
    assert!(
        b.metrics.cycles > 3 * s.metrics.cycles,
        "the gap must be substantial"
    );
}

#[test]
fn codegen_works_for_varied_plans() {
    for (h, w, hybrid) in [
        (11usize, 11usize, HybridMode::default()),
        (11, 11, HybridMode::CaseR),
        (32, 64, HybridMode::default()),
        (
            8,
            8,
            HybridMode::CaseH {
                min_bram_stretch: 5,
            },
        ),
    ] {
        let plan = SmacheBuilder::new(GridSpec::d2(h, w).expect("valid"))
            .hybrid(hybrid)
            .plan()
            .expect("plan");
        let design = VerilogGen::new(&plan).generate().expect("codegen");
        for (name, src) in &design.files {
            let issues = lint_verilog(src);
            assert!(issues.is_empty(), "{h}x{w} {hybrid:?} {name}: {issues:?}");
        }
        // The top must mention every static buffer and the window centre.
        let top = design.file("smache_top.v").expect("top exists");
        for b in plan.static_buffers.iter() {
            assert!(top.contains(&format!("sb_{}", b.id)));
        }
    }
}

#[test]
fn run_twice_reuses_the_system() {
    // A system is reusable: a second run continues from a consistent state
    // (fresh DRAM preload, fresh instance counters).
    let grid = GridSpec::d2(9, 9).expect("valid");
    let input1: Vec<u64> = (0..81).collect();
    let input2: Vec<u64> = (0..81).map(|i| 81 - i).collect();
    let mut sys = SmacheBuilder::new(grid.clone()).build().expect("build");
    let r1 = sys.run(&input1, 2).expect("first run");
    let r2 = sys.run(&input2, 2).expect("second run");
    let g2 = golden_run(
        &grid,
        &BoundarySpec::paper_case(),
        &StencilShape::four_point_2d(),
        &AverageKernel,
        &input2,
        2,
    )
    .expect("golden");
    assert_eq!(r2.output, g2);
    // Metrics are per run: the second run restarts the counters.
    let diff = r2.metrics.cycles.abs_diff(r1.metrics.cycles);
    assert!(diff < 16, "run-to-run cycle drift {diff}");
    assert_eq!(r1.metrics.dram.writes, r2.metrics.dram.writes);
}
