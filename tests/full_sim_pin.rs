//! Simulated statistics are pinned, bit for bit.
//!
//! The cycle-accurate model may only get faster on the host: its outputs,
//! cycle counts, DRAM traffic and row hits, stall and warm-up counts must
//! not move. This test fingerprints the compact report JSON of the full
//! single-step simulation and of the two-stage temporal pipeline over a
//! spread of specs and seeds (plus one latency-only chaos run) and compares
//! them with `tests/golden/full_sim_reports.txt`.
//!
//! Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test
//! full_sim_pin` — only for a change that is meant to alter the model.

use std::collections::BTreeMap;

use smache::arch::kernel::AverageKernel;
use smache::spec::{seeded_input, ProblemSpec};
use smache::system::{RunReport, SystemConfig};
use smache::{PipelineConfig, SmacheBuilder, TemporalPipeline};
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::hash::fingerprint128;
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/full_sim_reports.txt"
);
const SEEDS: [u64; 2] = [3, 1_000_003];
const INSTANCES: u64 = 3;
const PASSES: u64 = 2;

fn spec(text: &str) -> ProblemSpec {
    let kv: BTreeMap<String, String> = text
        .split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').expect("key=value");
            (k.to_string(), v.to_string())
        })
        .collect();
    ProblemSpec::from_source(&kv).expect("spec")
}

/// The pinned specs: the nine-case grid in both hybrid modes, 3D circular,
/// nine-point mirror/open, a constant boundary, a fully periodic
/// nine-point torus, a 1D ring and a region-deduplicated reach-2 cross.
fn builders() -> Vec<(String, Box<dyn Fn() -> SmacheBuilder>)> {
    let mut out: Vec<(String, Box<dyn Fn() -> SmacheBuilder>)> = [
        "grid=11x11",
        "grid=11x11 hybrid=r",
        "grid=8x8x8 bounds=circular",
        "grid=24x24 shape=nine rows=mirror cols=open",
        "grid=16x16 rows=const:7",
        "grid=16x16 shape=nine rows=circular cols=circular",
        "grid=64 shape=2 bounds=circular",
    ]
    .iter()
    .map(|t| {
        let s = spec(t);
        let make: Box<dyn Fn() -> SmacheBuilder> = Box::new(move || s.builder());
        (t.replace(' ', ","), make)
    })
    .collect();
    let cross = || {
        SmacheBuilder::new(GridSpec::d2(14, 14).expect("grid"))
            .shape(StencilShape::cross_2d(2).expect("cross"))
            .boundaries(
                BoundarySpec::new(&[
                    AxisBoundaries::both(Boundary::Circular),
                    AxisBoundaries::both(Boundary::Open),
                ])
                .expect("bounds"),
            )
            .dedupe_static_regions(true)
    };
    out.push((
        "grid=14x14,shape=cross2,dedupe".to_string(),
        Box::new(cross),
    ));
    out
}

fn fp(report: &RunReport) -> String {
    let (a, b) = fingerprint128(report.to_json().compact().as_bytes());
    format!("{a:016x}{b:016x}")
}

fn pinned_lines() -> String {
    let mut text = String::new();
    for (label, builder) in builders() {
        let plan = builder().plan().expect("plan");
        for seed in SEEDS {
            let input = seeded_input(plan.grid.len(), seed);
            let mut system = builder().build().expect("system");
            let single = system.run(&input, INSTANCES).expect("full sim");
            let config = PipelineConfig {
                depth: 2,
                channels: 2,
                ..Default::default()
            };
            let mut pipe = TemporalPipeline::new(plan.clone(), Box::new(AverageKernel), config)
                .expect("pipeline");
            let piped = pipe.run(&input, PASSES).expect("pipeline run");
            text.push_str(&format!(
                "{label} seed={seed} system={} pipeline={}\n",
                fp(&single),
                fp(&piped)
            ));
        }
    }
    // One latency-only chaos run: stall storms reshape timing without
    // touching data, so their cycle and stall counts are pinned too.
    let chaos = FaultPlan::new(17, ChaosProfile::storms());
    let mut system = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
        .system_config(SystemConfig {
            fault_plan: chaos,
            ..Default::default()
        })
        .build()
        .expect("chaos system");
    let report = system
        .run(&seeded_input(121, SEEDS[0]), INSTANCES)
        .expect("chaos run");
    text.push_str(&format!(
        "grid=11x11 chaos=storms:17 seed={} system={}\n",
        SEEDS[0],
        fp(&report)
    ));
    text
}

#[test]
fn full_simulation_reports_match_the_pinned_fingerprints() {
    let got = pinned_lines();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    let moved: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        moved.is_empty() && got.lines().count() == want.lines().count(),
        "simulated statistics moved:\n{}",
        moved.join("\n")
    );
}
