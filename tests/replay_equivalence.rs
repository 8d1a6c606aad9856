//! Schedule replay ≡ full simulation — and clean, typed refusals.
//!
//! The positive half pins the tentpole guarantee: a [`ControlSchedule`]
//! captured from one full cycle-accurate run reproduces **bit-exact**
//! outputs, cycle counts and report metrics for fresh inputs of the same
//! spec — across the nine boundary cases of the 11×11 validation grid and
//! across randomised specs (grids, shapes, boundaries, kernels, hybrid
//! modes, instance counts).
//!
//! The negative half pins the safety property: whenever the control plane
//! stops being data-independent (corrupting fault plans, stall fuzzing,
//! tracing, telemetry, result taps), capture *refuses* with a typed
//! [`ReplayUnsupported`] reason and the auto mode falls back to the full
//! simulation — never a silently divergent replay. Latency-only fault
//! plans are the deliberate exception: their chaos draws are a pure
//! function of (chaos-seed, cycle), so they capture and replay across
//! data seeds.

use proptest::prelude::*;
use smache::arch::kernel::{AverageKernel, Kernel, MaxKernel, SumKernel, WeightedKernel};
use smache::system::batch::{BatchJob, BatchOptions};
use smache::system::{ReplayMode, RunEngine, SmacheSystem};
use smache::{CoreError, HybridMode, SmacheBuilder};
use smache_mem::{ChaosProfile, FaultPlan};
use smache_sim::ReplayUnsupported;
use smache_stencil::{AxisBoundaries, Boundary, BoundarySpec, GridSpec, StencilShape};
use std::sync::Arc;

const W: usize = 11;

fn paper_system() -> SmacheSystem {
    SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .shape(StencilShape::four_point_2d())
        .boundaries(BoundarySpec::paper_case())
        .build()
        .expect("build")
}

fn seeded(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(seed | 1).wrapping_add(seed >> 7) % 100_000)
        .collect()
}

/// The nine-case validation grid: one capture serves many seeds, each
/// replay bit-exact with its own full simulation.
#[test]
fn nine_case_grid_replays_bit_exactly() {
    let mut capture_sys = paper_system();
    let (captured, schedule) = capture_sys
        .run_captured(&seeded(W * W, 0), 3)
        .expect("capture");
    assert_eq!(captured.engine, RunEngine::FullSim);
    assert_eq!(schedule.len(), W * W);

    for seed in 1..=4u64 {
        let input = seeded(W * W, seed);
        let replayed = schedule.replay(&AverageKernel, &input).expect("replay");
        let mut full_sys = paper_system();
        let full = full_sys.run(&input, 3).expect("run");
        assert_eq!(replayed.output, full.output, "seed {seed}: outputs");
        assert_eq!(replayed.stats, full.stats, "seed {seed}: cycle stats");
        assert_eq!(
            replayed.metrics.cycles, full.metrics.cycles,
            "seed {seed}: metrics cycles"
        );
        assert_eq!(
            replayed.warmup_cycles, full.warmup_cycles,
            "seed {seed}: warm-up"
        );
        assert_eq!(
            replayed.metrics.dram, full.metrics.dram,
            "seed {seed}: DRAM traffic"
        );
        assert_eq!(replayed.engine, RunEngine::Replay);

        // The lane-batched engine agrees with the per-lane one, element
        // for element, over the same nine-case grid.
        let batched = schedule
            .replay_lanes(&AverageKernel, &[input.as_slice()])
            .expect("lanes");
        assert_eq!(batched[0].output, replayed.output, "seed {seed}: lanes");
        assert_eq!(batched[0].stats, replayed.stats, "seed {seed}: lanes");
    }
}

/// The batched sweep path: the unified `run_batch` in auto mode captures
/// once, lane-batch-replays the rest, and agrees with full simulation
/// lane for lane — at every lane-block size.
#[test]
fn batch_replay_matches_batch_full_sim() {
    let jobs = |n: u64| -> Vec<BatchJob> {
        let kernel: smache::system::KernelFactory = Arc::new(|| Box::new(AverageKernel));
        (0..n)
            .map(|s| {
                BatchJob::new(
                    SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
                        .boundaries(BoundarySpec::paper_case())
                        .plan()
                        .expect("plan"),
                    Arc::clone(&kernel),
                    seeded(W * W, s),
                    2,
                )
            })
            .collect()
    };
    let full = SmacheSystem::run_batch(
        jobs(6),
        BatchOptions::new().threads(3).replay(ReplayMode::Off),
    );
    for lane_block in [1, 2, 16] {
        let fast = SmacheSystem::run_batch(
            jobs(6),
            BatchOptions::new().threads(3).lane_block(lane_block),
        );
        assert_eq!(full.aggregate, fast.aggregate, "block {lane_block}");
        let mut replayed = 0;
        for (a, b) in full.lanes.iter().zip(&fast.lanes) {
            let (a, b) = (a.as_ref().expect("full"), b.as_ref().expect("fast"));
            assert_eq!(a.output, b.output);
            assert_eq!(a.stats, b.stats);
            if b.engine == RunEngine::Replay {
                replayed += 1;
            }
        }
        assert_eq!(replayed, 5, "one capture lane, five replayed lanes");
    }
}

fn arb_boundary() -> impl Strategy<Value = Boundary> {
    prop_oneof![
        Just(Boundary::Open),
        Just(Boundary::Circular),
        Just(Boundary::Mirror),
        (0u64..1000).prop_map(Boundary::Constant),
    ]
}

fn arb_bounds() -> impl Strategy<Value = BoundarySpec> {
    (
        arb_boundary(),
        arb_boundary(),
        arb_boundary(),
        arb_boundary(),
    )
        .prop_map(|(rl, rh, cl, ch)| {
            BoundarySpec::new(&[
                AxisBoundaries { low: rl, high: rh },
                AxisBoundaries { low: cl, high: ch },
            ])
            .expect("two axes")
        })
}

fn arb_shape() -> impl Strategy<Value = StencilShape> {
    prop_oneof![
        Just(StencilShape::four_point_2d()),
        Just(StencilShape::five_point_2d()),
        Just(StencilShape::nine_point_2d()),
    ]
}

fn kernel_of(id: usize) -> Box<dyn Kernel> {
    match id {
        0 => Box::new(AverageKernel),
        1 => Box::new(SumKernel),
        _ => Box::new(MaxKernel),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomised specs: capture on one input, replay a second input, and
    /// the replay must match that second input's full simulation exactly —
    /// outputs, cycle counts and report metrics.
    #[test]
    fn replay_equals_full_sim_on_random_specs(
        h in 4usize..10,
        w in 4usize..10,
        bounds in arb_bounds(),
        shape in arb_shape(),
        kernel_id in 0usize..3,
        hybrid_h in any::<bool>(),
        instances in 1u64..4,
        seed in any::<u64>(),
    ) {
        let grid = GridSpec::d2(h, w).expect("grid");
        let n = grid.len();
        let hybrid = if hybrid_h { HybridMode::default() } else { HybridMode::CaseR };
        let builder = || SmacheBuilder::new(grid.clone())
            .shape(shape.clone())
            .boundaries(bounds.clone())
            .hybrid(hybrid)
            .kernel(kernel_of(kernel_id));

        let mut capture_sys = builder().build().expect("build");
        let (_, schedule) = capture_sys
            .run_captured(&seeded(n, seed), instances)
            .expect("capture");

        let fresh = seeded(n, seed.wrapping_add(0x9E37_79B9));
        let replayed = schedule
            .replay(kernel_of(kernel_id).as_ref(), &fresh)
            .expect("replay");
        let mut full_sys = builder().build().expect("build");
        let full = full_sys.run(&fresh, instances).expect("run");

        prop_assert_eq!(&replayed.output, &full.output);
        prop_assert_eq!(replayed.stats, full.stats);
        prop_assert_eq!(replayed.metrics.cycles, full.metrics.cycles);
        prop_assert_eq!(replayed.warmup_cycles, full.warmup_cycles);
        prop_assert_eq!(replayed.engine, RunEngine::Replay);

        // The structure-of-arrays engine agrees with both, lane for lane.
        let second = seeded(n, seed.wrapping_mul(0x2545_F491));
        let lanes = schedule
            .replay_lanes(kernel_of(kernel_id).as_ref(), &[&fresh, &second])
            .expect("replay_lanes");
        prop_assert_eq!(&lanes[0].output, &full.output);
        prop_assert_eq!(lanes[0].stats, full.stats);
        let single = schedule
            .replay(kernel_of(kernel_id).as_ref(), &second)
            .expect("replay");
        prop_assert_eq!(&lanes[1].output, &single.output);
    }
}

/// Every data-dependent control-plane feature refuses capture with its
/// own typed reason — no silent divergence possible. Latency-only chaos
/// is *not* on that list any more: it captures (covered below).
#[test]
fn capture_refuses_each_ineligible_feature() {
    let input = seeded(W * W, 1);

    // Corrupting plans: the fault's effect depends on the data it hits.
    let mut corrupting = SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
        .fault_plan(FaultPlan::new(9, ChaosProfile::flip(30)))
        .build()
        .expect("build");
    assert!(matches!(
        corrupting.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::FaultPlan))
    ));

    let mut fuzzed = paper_system();
    fuzzed.set_stall_schedule(Box::new(|c| c % 3 == 0));
    assert!(matches!(
        fuzzed.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::StallSchedule))
    ));

    let mut traced = paper_system();
    traced.attach_tracer(smache_sim::TracerConfig::default());
    assert!(matches!(
        traced.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::Tracer))
    ));

    let mut telemetered = paper_system();
    telemetered.attach_telemetry(smache_sim::TelemetryConfig::default());
    assert!(matches!(
        telemetered.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::Telemetry))
    ));

    let mut tapped = paper_system();
    tapped.set_result_tap(Box::new(|_| {}));
    assert!(matches!(
        tapped.run_captured(&input, 1),
        Err(CoreError::ReplayRefused(ReplayUnsupported::ResultTap))
    ));
}

fn chaotic_jobs(n: u64, chaos_seed: u64, profile: ChaosProfile) -> Vec<BatchJob> {
    let kernel: smache::system::KernelFactory = Arc::new(|| Box::new(AverageKernel));
    (0..n)
        .map(|s| {
            BatchJob::new(
                SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
                    .plan()
                    .expect("plan"),
                Arc::clone(&kernel),
                seeded(W * W, s),
                2,
            )
            .with_config(smache::system::smache_system::SystemConfig {
                fault_plan: FaultPlan::new(chaos_seed, profile),
                ..Default::default()
            })
        })
        .collect()
}

/// Latency-only chaos captures and replays: even under forced replay every
/// lane succeeds, bit-exact with the chaotic full simulation — one capture
/// per (spec, chaos-seed), replayed across the data seeds.
#[test]
fn latency_only_chaos_replays_bit_exactly_across_data_seeds() {
    let full = SmacheSystem::run_batch(
        chaotic_jobs(8, 5, ChaosProfile::heavy()),
        BatchOptions::new().threads(2).replay(ReplayMode::Off),
    );
    let forced = SmacheSystem::run_batch(
        chaotic_jobs(8, 5, ChaosProfile::heavy()),
        BatchOptions::new().threads(2).replay(ReplayMode::On),
    );
    assert_eq!(forced.succeeded(), 8);
    let mut replayed = 0;
    for (a, b) in full.lanes.iter().zip(&forced.lanes) {
        let (a, b) = (a.as_ref().expect("full"), b.as_ref().expect("forced"));
        assert_eq!(a.output, b.output, "chaos replay stays bit-exact");
        assert_eq!(a.stats, b.stats, "chaotic cycle accounting replays too");
        if b.engine == RunEngine::Replay {
            replayed += 1;
        }
    }
    assert_eq!(replayed, 7, "one capture lane, seven replayed lanes");

    // A different chaos seed is a different schedule: nothing is shared,
    // and the runs come out different (storms land elsewhere).
    let other = SmacheSystem::run_batch(
        chaotic_jobs(2, 6, ChaosProfile::heavy()),
        BatchOptions::new().replay(ReplayMode::On),
    );
    assert_eq!(other.succeeded(), 2);
    let (a, b) = (
        forced.lanes[0].as_ref().expect("ok"),
        other.lanes[0].as_ref().expect("ok"),
    );
    assert_ne!(a.stats.stall_cycles, b.stats.stall_cycles, "distinct chaos");
}

/// Corrupting chaos still refuses forced replay with typed provenance;
/// auto mode falls back to the full simulation and reproduces its result
/// exactly (here: the typed FaultDetected diagnosis of the bit flip).
#[test]
fn corrupting_chaos_refuses_with_typed_provenance() {
    let forced = SmacheSystem::run_batch(
        chaotic_jobs(3, 5, ChaosProfile::flip(30)),
        BatchOptions::new().threads(2).replay(ReplayMode::On),
    );
    assert_eq!(forced.succeeded(), 0);
    for lane in &forced.lanes {
        match lane {
            Err(CoreError::ReplayRefused(r)) => assert_eq!(r.label(), "fault_plan"),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
    }

    let auto = SmacheSystem::run_batch(
        chaotic_jobs(3, 5, ChaosProfile::flip(30)),
        BatchOptions::new().threads(2),
    );
    let full = SmacheSystem::run_batch(
        chaotic_jobs(3, 5, ChaosProfile::flip(30)),
        BatchOptions::new().threads(2).replay(ReplayMode::Off),
    );
    for (a, f) in auto.lanes.iter().zip(&full.lanes) {
        match (a, f) {
            (Ok(a), Ok(f)) => assert_eq!(a.output, f.output),
            (Err(a), Err(f)) => assert_eq!(a.to_string(), f.to_string()),
            _ => panic!("auto fallback diverged from the full simulation"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chaos-replay equivalence: for any latency-only profile and chaos
    /// seed, a schedule captured under the plan replays fresh data seeds
    /// bit-exactly against the chaotic full simulation — outputs, cycle
    /// stats and fault accounting alike.
    #[test]
    fn latency_only_chaos_replay_equals_full_sim(
        profile_id in 0usize..4,
        chaos_seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let profile = [
            ChaosProfile::jitter(),
            ChaosProfile::storms(),
            ChaosProfile::drain(),
            ChaosProfile::heavy(),
        ][profile_id];
        let builder = || SmacheBuilder::new(GridSpec::d2(W, W).expect("grid"))
            .fault_plan(FaultPlan::new(chaos_seed, profile));

        let mut capture_sys = builder().build().expect("build");
        let (_, schedule) = capture_sys
            .run_captured(&seeded(W * W, data_seed), 2)
            .expect("latency-only chaos must capture");

        let fresh = seeded(W * W, data_seed.wrapping_add(0x9E37_79B9));
        let replayed = schedule.replay(&AverageKernel, &fresh).expect("replay");
        let mut full_sys = builder().build().expect("build");
        let full = full_sys.run(&fresh, 2).expect("run");

        prop_assert_eq!(&replayed.output, &full.output);
        prop_assert_eq!(replayed.stats, full.stats);
        prop_assert_eq!(replayed.metrics.faults, full.metrics.faults);
        prop_assert_eq!(replayed.engine, RunEngine::Replay);
    }
}

/// The byte-identity contract of the persistent store: a schedule saved
/// to disk and loaded back by a fresh [`ScheduleStore`] handle replays
/// bit-exactly against both the in-memory capture and a full simulation.
#[test]
fn stored_schedule_round_trips_bit_exactly() {
    use smache::system::ScheduleStore;
    let dir = std::env::temp_dir().join(format!("smache-replay-store-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut sys = paper_system();
    let (_, schedule) = sys.run_captured(&seeded(W * W, 0), 3).expect("capture");
    let key = (0xfeed_u64, 0xbeef_u64);

    let mut store = ScheduleStore::open(&dir, 0).expect("open");
    store.save(key, &schedule).expect("save");
    drop(store);

    // A fresh handle (fresh process, in spirit) must see the same bytes.
    let mut store = ScheduleStore::open(&dir, 0).expect("reopen");
    let loaded = store.load(key).expect("load").expect("present");

    for seed in 1..=3u64 {
        let input = seeded(W * W, seed);
        let from_disk = loaded.replay(&AverageKernel, &input).expect("disk replay");
        let from_memory = schedule.replay(&AverageKernel, &input).expect("mem replay");
        let mut full_sys = paper_system();
        let full = full_sys.run(&input, 3).expect("run");
        assert_eq!(from_disk.output, from_memory.output, "seed {seed}");
        assert_eq!(from_disk.output, full.output, "seed {seed}");
        assert_eq!(from_disk.stats, full.stats, "seed {seed}");
        assert_eq!(from_disk.metrics.dram, full.metrics.dram, "seed {seed}");
        assert_eq!(from_disk.engine, RunEngine::Replay);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One canonical encoded store entry, captured once per process.
fn encoded_entry() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&seeded(W * W, 0), 2).expect("capture");
        smache::system::store::encode_entry((1, 2), &schedule)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Corruption safety: ANY single bit flip anywhere in a stored entry
    /// — header, payload or checksum — decodes to a typed [`StoreError`],
    /// never to a plausible-but-wrong schedule.
    #[test]
    fn any_single_bit_flip_yields_a_typed_error(
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let pristine = encoded_entry();
        prop_assert!(smache::system::store::decode_entry(pristine).is_ok());

        let mut bytes = pristine.to_vec();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        let err = smache::system::store::decode_entry(&bytes)
            .expect_err("flipped entry must not decode");
        prop_assert!(
            ["bad_magic", "unsupported_version", "truncated", "checksum_mismatch", "malformed"]
                .contains(&err.label()),
            "unexpected error class {} at byte {pos} bit {bit}", err.label()
        );
    }

    /// Truncation safety: an entry cut short anywhere decodes to a typed
    /// error.
    #[test]
    fn any_truncation_yields_a_typed_error(cut in any::<usize>()) {
        let pristine = encoded_entry();
        let cut = cut % pristine.len();
        let err = smache::system::store::decode_entry(&pristine[..cut])
            .expect_err("truncated entry must not decode");
        prop_assert!(
            ["truncated", "bad_magic", "checksum_mismatch"].contains(&err.label()),
            "unexpected error class {} at cut {cut}", err.label()
        );
    }
}

/// A schedule refuses inputs and kernels it was not captured for, with
/// typed reasons a caller can fall back on.
#[test]
fn schedule_refuses_mismatched_requests() {
    let mut sys = paper_system();
    let (_, schedule) = sys.run_captured(&seeded(W * W, 0), 1).expect("capture");
    assert!(matches!(
        schedule.replay(&AverageKernel, &seeded(64, 0)),
        Err(ReplayUnsupported::InputLength {
            expected: 121,
            actual: 64
        })
    ));
    assert!(matches!(
        schedule.replay(&MaxKernel, &seeded(W * W, 0)),
        Err(ReplayUnsupported::KernelMismatch { .. })
    ));
}

/// A test-only kernel that keeps [`Kernel::apply_rows`]'s provided body.
/// Its result depends on every present value, its slot position and the
/// mask, so a slot read from the wrong lane, element or position shows.
struct PositionalXor;

impl Kernel for PositionalXor {
    fn name(&self) -> &str {
        "positional-xor"
    }

    fn apply(&self, values: &[u64], mask: u64) -> u64 {
        values
            .iter()
            .enumerate()
            .filter(|&(p, _)| mask >> p & 1 == 1)
            .fold(mask, |a, (p, &v)| {
                a.rotate_left(7) ^ v.rotate_left(p as u32 * 5)
            })
    }

    fn resources(&self) -> smache_sim::ResourceUsage {
        smache_sim::ResourceUsage::default()
    }
}

/// The four built-in kernels plus the default-`apply_rows` test kernel.
fn differential_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(AverageKernel),
        Box::new(SumKernel),
        Box::new(MaxKernel),
        Box::new(WeightedKernel::new("w19", (1..=9).collect()).expect("weights")),
        Box::new(PositionalXor),
    ]
}

/// One lane's input of word class `class`: 0 large words in
/// `[2^57, 2^58)` (row sums still fit `u64`), 1 small words, 2 large
/// words with `u64::MAX` sprinkled in (row sums overflow `u64`).
fn wide_input(n: usize, seed: usize, class: usize) -> Vec<u64> {
    let base = seeded(n, seed as u64 + 11);
    base.iter()
        .enumerate()
        .map(|(i, &v)| {
            let spread = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            match class {
                0 => 1 << 57 | spread >> 7,
                1 => v,
                _ if i % 5 == seed % 5 => u64::MAX,
                _ => 1 << 58 | spread >> 6,
            }
        })
        .collect()
}

/// Compiled replay against `SmacheSystem::run`: every kernel — the
/// overriding `AverageKernel` and the provided `apply_rows` of the rest —
/// over the nine-case grid, an 8×8×8 circular grid, a 24×24 nine-point
/// mirror/open grid and a latency-only chaos plan, at lane counts that hit
/// whole eight-lane blocks, remainders and both sum paths. Every lane of
/// every block must equal its own full simulation (outputs and cycle
/// accounting) bit for bit.
#[test]
fn compiled_replay_matches_full_sim_for_every_kernel_and_lane_count() {
    let spec = |pairs: &[(&str, &str)]| {
        let map: std::collections::BTreeMap<String, String> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        smache::ProblemSpec::from_source(&map).expect("spec")
    };
    let nine_case = spec(&[("grid", "11x11")]);
    let cube = spec(&[("grid", "8x8x8"), ("bounds", "circular")]);
    let mirror = spec(&[
        ("grid", "24x24"),
        ("shape", "nine"),
        ("rows", "mirror"),
        ("cols", "open"),
    ]);
    let chaos = Some(FaultPlan::new(5, ChaosProfile::storms()));
    let cases = [
        ("nine-case", &nine_case, 3, None),
        ("8x8x8 circular", &cube, 2, None),
        ("24x24 nine-point", &mirror, 2, None),
        ("latency-only chaos", &nine_case, 2, chaos),
    ];
    const LANE_COUNTS: [usize; 7] = [1, 2, 3, 4, 16, 17, 64];
    // Full simulations are the expensive half: lanes past the seventeenth
    // reuse earlier inputs (never a neighbour's), so every lane count
    // still checks against a real run. One pool keeps every row sum
    // within `u64`, so whole blocks take `AverageKernel`'s `u64` path; the
    // other mixes in `u64::MAX`, so blocks of three or more lanes take the
    // `u128` path.
    const DISTINCT: usize = 17;
    for (name, spec, instances, plan) in cases {
        let n = spec.grid.len();
        let pools: [Vec<Vec<u64>>; 2] = [
            (0..DISTINCT).map(|l| wide_input(n, l, l % 2)).collect(),
            (0..DISTINCT)
                .map(|l| wide_input(n, DISTINCT + l, l % 3))
                .collect(),
        ];
        for kernel_id in 0..differential_kernels().len() {
            let builder = || {
                let mut b = spec
                    .builder()
                    .word_bits(64)
                    .kernel(differential_kernels().swap_remove(kernel_id));
                if let Some(plan) = plan {
                    b = b.fault_plan(plan);
                }
                b
            };
            let kernel = &differential_kernels()[kernel_id];
            let label = format!("{name} / {}", kernel.name());
            let (_, schedule) = builder()
                .build()
                .expect("build")
                .run_captured(&pools[0][0], instances)
                .unwrap_or_else(|e| panic!("{label}: capture: {e}"));
            for (p, inputs) in pools.iter().enumerate() {
                let full: Vec<_> = inputs
                    .iter()
                    .map(|input| {
                        builder()
                            .build()
                            .expect("build")
                            .run(input, instances)
                            .expect("run")
                    })
                    .collect();
                for lanes in LANE_COUNTS {
                    let views: Vec<&[u64]> =
                        (0..lanes).map(|l| &inputs[l % DISTINCT][..]).collect();
                    let replayed = schedule
                        .replay_lanes(kernel.as_ref(), &views)
                        .unwrap_or_else(|e| panic!("{label}: {lanes} lanes: {e}"));
                    for (l, report) in replayed.iter().enumerate() {
                        let want = &full[l % DISTINCT];
                        let at = format!("{label}: pool {p}, lane {l} of {lanes}");
                        assert_eq!(report.output, want.output, "{at}");
                        assert_eq!(report.stats, want.stats, "{at}");
                        assert_eq!(report.metrics.cycles, want.metrics.cycles, "{at}");
                    }
                }
            }
        }
    }
}
