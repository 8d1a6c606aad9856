//! `batch_sweep`: `SmacheSystem::run_batch` with `ReplayMode::Auto`, two
//! threads and the default lane block, over three fixed specs × many
//! seeded lanes. Each call captures once per spec and replays every
//! other lane, so the replay kernel does most of the work.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smache::arch::kernel::AverageKernel;
use smache::config::BufferPlan;
use smache::system::{BatchJob, BatchOptions, KernelFactory, ReplayMode, RunEngine, RunReport};
use smache::SmacheSystem;

use crate::layers::{fig2_problem, pipeline_problems, probe, run_fig2, run_pipeline_pair};
use crate::problem::{report_shape, Problem};
use crate::util::{
    median, ms, peak_rss_mb, process_cpu_time, quantile, Outcome, Rng, SetupTimes, WorkDir,
};

/// Lanes per spec in one call.
const LANES: usize = 512;
/// Distinct input sets the calls cycle through.
const POOL: usize = 3;
/// Lanes per spec checked against `golden_run` in every call, besides the
/// captured one.
const SAMPLED: usize = 2;
/// Set-ups timed before the measured loop and again after it.
const SETUP_REPS: usize = 5;

fn problems() -> Vec<Problem> {
    vec![
        Problem::new(&[("grid", "16x16")], 16),
        Problem::new(
            &[
                ("grid", "24x24"),
                ("shape", "nine"),
                ("rows", "mirror"),
                ("cols", "open"),
            ],
            8,
        ),
        Problem::new(&[("grid", "8x8x8"), ("bounds", "circular")], 8),
    ]
}

/// The data seeds of spec `s`'s lanes in input set `k`.
fn lane_seeds(seed: u64, k: usize, s: usize) -> impl Iterator<Item = u64> {
    let mut rng = Rng::new(seed, &format!("batch/{k}/{s}"));
    (0..LANES).map(move |_| rng.data_seed())
}

struct Setup {
    problems: Vec<Problem>,
    plans: Vec<BufferPlan>,
    kernel: KernelFactory,
    /// `pool[k][spec][lane]`: the lane inputs of input set `k`.
    pool: Vec<Vec<Vec<Vec<u64>>>>,
}

impl Setup {
    fn new(seed: u64) -> Setup {
        let problems = problems();
        let plans = problems
            .iter()
            .map(|p| p.spec.builder().plan().expect("plan"))
            .collect();
        let pool = (0..POOL)
            .map(|k| {
                problems
                    .iter()
                    .enumerate()
                    .map(|(s, p)| lane_seeds(seed, k, s).map(|l| p.input(l)).collect())
                    .collect()
            })
            .collect();
        Setup {
            problems,
            plans,
            kernel: Arc::new(|| Box::new(AverageKernel)),
            pool,
        }
    }

    fn jobs(&self, k: usize) -> Vec<BatchJob> {
        let mut jobs = Vec::with_capacity(LANES * self.problems.len());
        for (s, p) in self.problems.iter().enumerate() {
            for input in &self.pool[k][s] {
                jobs.push(BatchJob::new(
                    self.plans[s].clone(),
                    Arc::clone(&self.kernel),
                    input.clone(),
                    p.instances,
                ));
            }
        }
        jobs
    }

    /// One `run_batch` call over input set `k`: its lanes, wall time and
    /// process CPU time.
    fn call(&self, k: usize) -> (Vec<smache::CoreResult<RunReport>>, Duration, Duration) {
        let jobs = self.jobs(k);
        let (start, cpu) = (Instant::now(), process_cpu_time());
        let report = SmacheSystem::run_batch(
            jobs,
            BatchOptions::new().threads(2).replay(ReplayMode::Auto),
        );
        (report.lanes, start.elapsed(), process_cpu_time() - cpu)
    }
}

/// What one call's lanes add up to, after the correctness gate.
#[derive(Default)]
struct CallTotals {
    replayed: u64,
    cycles: u64,
    model: (u64, u64, u64),
}

/// Checks one call's lanes: every lane succeeded; the captured lane and a
/// seeded sample of replayed lanes per spec equal `golden_run`; every
/// sampled replayed report equals the captured one except for `output`
/// and `engine`.
fn check_call(
    setup: &Setup,
    k: usize,
    lanes: &[smache::CoreResult<RunReport>],
    rng: &mut Rng,
    out: &mut Outcome,
) -> CallTotals {
    let mut totals = CallTotals::default();
    out.attempted += lanes.len() as u64;
    for (s, p) in setup.problems.iter().enumerate() {
        let spec_lanes = &lanes[s * LANES..(s + 1) * LANES];
        let mut captured = None;
        for (l, lane) in spec_lanes.iter().enumerate() {
            match lane {
                Ok(r) => {
                    totals.cycles += r.metrics.cycles;
                    match r.engine {
                        RunEngine::Replay => totals.replayed += 1,
                        RunEngine::FullSim => captured = captured.or(Some(l)),
                    }
                }
                Err(e) => out.fail(format!("batch lane {l} of spec {s} failed: {e}")),
            }
        }
        let Some(captured) = captured else {
            out.fail(format!("spec {s}: no lane ran the full simulation"));
            continue;
        };
        let Ok(reference) = &spec_lanes[captured] else {
            continue;
        };
        let shape = report_shape(&reference.to_json());
        let m = &reference.metrics;
        totals.model.0 += m.cycles;
        totals.model.1 += m.dram.total_bytes();
        totals.model.2 += p.updates();
        let mut sample = vec![captured];
        sample.extend((0..SAMPLED).map(|_| rng.below(LANES)));
        for l in sample {
            let Ok(report) = &spec_lanes[l] else { continue };
            if report.output != p.golden(&setup.pool[k][s][l]) {
                out.fail(format!("spec {s} lane {l}: output differs from golden_run"));
            } else if report_shape(&report.to_json()) != shape {
                out.fail(format!(
                    "spec {s} lane {l}: replayed report differs from the full simulation"
                ));
            }
        }
    }
    totals
}

pub fn run(seed: u64, seconds: u64, trace: bool, stream_gbps: f64, out: &mut Outcome) {
    // Set-up: plans, the seeded input pool, and one warm-up call.
    let mut setup_times = SetupTimes::default();
    let set_up = |_| {
        let setup = Setup::new(seed);
        let _ = setup.call(0);
        setup
    };
    let setup = setup_times.time(SETUP_REPS, set_up);
    let mut rng = Rng::new(seed, "batch/sample");

    let updates_per_call: u64 = setup
        .problems
        .iter()
        .map(|p| p.updates() * LANES as u64)
        .sum();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut call_ms, mut update_rates, mut cycle_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_per_update = Vec::new();
    let (mut replayed, mut lanes_run) = (0u64, 0u64);
    let mut model = None;
    let mut k = 0;
    while Instant::now() < deadline {
        let (lanes, took, cpu) = setup.call(k);
        let totals = check_call(&setup, k, &lanes, &mut rng, out);
        call_ms.push(ms(took));
        update_rates.push(updates_per_call as f64 / took.as_secs_f64());
        cpu_per_update.push(cpu.as_secs_f64() * 1e9 / updates_per_call as f64);
        cycle_rates.push(totals.cycles as f64 / took.as_secs_f64());
        replayed += totals.replayed;
        lanes_run += lanes.len() as u64;
        if model.is_some_and(|m| m != totals.model) {
            out.fail(format!(
                "model counts changed between calls: {:?}",
                totals.model
            ));
        }
        model = Some(totals.model);
        k = (k + 1) % POOL;
    }
    let (cycles, bytes, updates) = model.expect("at least one call");
    out.set("latency_p50_ms", median(&call_ms));
    out.set("latency_p99_ms", quantile(&call_ms, 0.99));
    out.set("cell_updates_per_s", median(&update_rates));
    out.set("sim_cycles_per_s", median(&cycle_rates));
    out.set("cpu_ns_per_cell_update", median(&cpu_per_update));
    out.set("model_cycles_per_cell", cycles as f64 / updates as f64);
    out.set("model_dram_bytes_per_cell", bytes as f64 / updates as f64);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "core.batch.replayed_share",
        replayed as f64 / lanes_run as f64,
    );
    setup_times.time(SETUP_REPS, set_up);
    out.set("setup_s", setup_times.median());

    // The model pins (untimed): Fig. 2's exact counts on Smache and the
    // baseline, and the T=4 pipeline's traffic at exactly 1/4 of T=1.
    let fig2_input = fig2_problem().input(seed);
    run_fig2(&fig2_input).check(&fig2_problem().golden(&fig2_input), out);
    let (deep, _) = pipeline_problems();
    let pipe_input = deep.input(seed);
    run_pipeline_pair(&pipe_input).check(&deep.golden(&pipe_input), out);
    out.attempted += 4;

    if trace {
        // The probe parses the first input set's lanes as request lines.
        let lines: Vec<String> = setup
            .problems
            .iter()
            .enumerate()
            .flat_map(|(s, p)| {
                lane_seeds(seed, 0, s)
                    .enumerate()
                    .map(move |(l, data)| p.request_line(&format!("b{s}.{l}"), data))
            })
            .collect();
        let work = WorkDir::new("batch_sweep").expect("work directory");
        probe(&setup.problems, &lines, seed, work.path(), stream_gbps, out);
    }
}
