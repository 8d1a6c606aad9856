//! The schedule key names entries already on disk and is shared by every
//! surface, so it must not drift, and it must not depend on which surface
//! derived it:
//!
//! - `tests/golden/schedule_keys.txt` pins the key of about forty `serve`
//!   requests (2D, 3D and 1D grids, every boundary kind, four-, five- and
//!   nine-point shapes, planner variants, pipelined specs, latency-only
//!   chaos, 1–4 instances); the engine reproduces every one;
//! - the key a batch lane derives from its plan equals the key derived
//!   from the spec the plan came from, over random specs;
//! - everything outside the spec that shapes the control plane forks it.

use std::collections::BTreeMap;

use proptest::prelude::*;
use smache::arch::kernel::{Kernel, MaxKernel};
use smache::engine::{average, Job};
use smache::spec::ProblemSpec;
use smache::system::SystemConfig;
use smache_mem::{ChaosProfile, DramConfig, FaultPlan};
use smache_serve::{Request, RequestBody, RunRequest};

fn parse(line: &str) -> RunRequest {
    match Request::parse_line(line).expect("request parses").body {
        RequestBody::Run(run) => *run,
        other => panic!("not a run request: {other:?}"),
    }
}

fn spec(pairs: &[(&str, &str)]) -> ProblemSpec {
    let src: BTreeMap<String, String> = pairs
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ProblemSpec::from_source(&src).expect("spec")
}

#[test]
fn engine_keys_reproduce_the_pinned_request_keys() {
    let pinned = include_str!("golden/schedule_keys.txt");
    let mut checked = 0;
    for line in pinned
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (hex, request) = line.split_once(' ').expect("<key> <request>");
        let run = parse(request);
        let job = run.job().expect("a run");
        let key = job.key().expect("replay-eligible");
        assert_eq!(format!("{:016x}{:016x}", key.0, key.1), hex, "{request}");
        assert_eq!(run.schedule_key(), Some(key), "{request}");
        // A batch lane over the planned spec files its schedule under the
        // same key (the pipeline runs only from a spec).
        if !run.spec.pipelined() {
            let plan = run.spec.builder().plan().expect("plan");
            let profile = ChaosProfile::from_name(&run.profile).expect("profile");
            let config = SystemConfig {
                fault_plan: FaultPlan::new(run.chaos_seed, profile),
                ..SystemConfig::default()
            };
            let lane = Job::plan(&plan, &average, config, run.instances);
            assert_eq!(lane.key(), Ok(key), "{request}");
        }
        checked += 1;
    }
    assert!(checked >= 40, "only {checked} pinned keys");
}

#[test]
fn dedupe_kernel_and_system_config_fork_the_key() {
    let s = spec(&[("grid", "11x11")]);
    let plan = s.builder().plan().expect("plan");
    let base = Job::spec(&s, 2).key().expect("key");
    let config = SystemConfig::default();
    assert_eq!(Job::plan(&plan, &average, config, 2).key(), Ok(base));

    let deduped = s
        .builder()
        .dedupe_static_regions(true)
        .plan()
        .expect("plan");
    let dedupe = Job::plan(&deduped, &average, config, 2).key().unwrap();
    assert_ne!(dedupe, base, "region deduplication forks");

    let max = || Box::new(MaxKernel) as Box<dyn Kernel>;
    let kernel = Job::plan(&plan, &max, config, 2).key().unwrap();
    assert_ne!(kernel, base, "a non-default kernel forks");

    let no_double_buffering = SystemConfig {
        double_buffering: false,
        ..config
    };
    let slow_dram = SystemConfig {
        dram: DramConfig {
            cas_latency: DramConfig::default().cas_latency + 3,
            ..DramConfig::default()
        },
        ..config
    };
    let keys =
        [no_double_buffering, slow_dram].map(|c| Job::plan(&plan, &average, c, 2).key().unwrap());
    for k in keys {
        assert_ne!(k, base, "a non-default SystemConfig forks");
        assert_ne!(k, dedupe);
        assert_ne!(k, kernel);
    }
    assert_ne!(keys[0], keys[1]);
}

const GRIDS: [&str; 6] = ["11x11", "8x13", "16x16", "5x6x7", "4x4x4", "40"];
const BOUNDS: [&str; 5] = ["open", "circular", "mirror", "const:9", "wrap"];
const SHAPES_2D: [&str; 3] = ["four", "five", "nine"];
const HYBRIDS: [&str; 3] = ["h", "r", "h:5"];
const STRATEGIES: [&str; 4] = ["global", "greedy", "exact", "allstream"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The key a batch lane derives from its plan equals the key derived
    /// from the spec, for random specs: the plan records every input of
    /// the canonical spec.
    #[test]
    fn plan_keys_equal_spec_keys(
        grid in 0usize..6,
        shape in 0usize..3,
        rows in 0usize..5,
        cols in 0usize..5,
        hybrid in 0usize..3,
        strategy in 0usize..4,
        statics in any::<bool>(),
        word_bits in 1u32..65,
        instances in 1u64..5
    ) {
        let grid = GRIDS[grid];
        let ndim = grid.split('x').count();
        let word_bits = word_bits.to_string();
        let mut pairs = vec![
            ("grid", grid),
            ("hybrid", HYBRIDS[hybrid]),
            ("strategy", STRATEGIES[strategy]),
            ("statics", if statics { "reg" } else { "bram" }),
            ("word-bits", word_bits.as_str()),
        ];
        match ndim {
            2 => pairs.extend([
                ("shape", SHAPES_2D[shape]),
                ("rows", BOUNDS[rows]),
                ("cols", BOUNDS[cols]),
            ]),
            _ => pairs.push(("bounds", BOUNDS[rows])),
        }
        let s = spec(&pairs);
        let Ok(plan) = s.builder().plan() else {
            return Ok(());
        };
        let from_spec = Job::spec(&s, instances).key();
        let from_plan = Job::plan(&plan, &average, SystemConfig::default(), instances).key();
        prop_assert_eq!(from_spec, from_plan);
        prop_assert!(from_spec.is_ok());
    }
}
