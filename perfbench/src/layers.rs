//! Per-layer timings taken from outside: the benchmark calls each layer's
//! public functions itself, on a workload's own problems and seeded
//! inputs, and times the calls.

use std::path::Path;
use std::time::{Duration, Instant};

use smache::arch::kernel::AverageKernel;
use smache::spec::seeded_input;
use smache::system::store::ScheduleStore;
use smache::system::RunReport;
use smache_baseline::{BaselineConfig, BaselineReport, BaselineSystem};
use smache_serve::{Request, RequestBody};
use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

use crate::problem::{report_shape, Problem};
use crate::util::{median, ms, timed, us, Outcome};

/// Fig. 2 as the paper reports it: Smache cycles, DRAM traffic (KB) and
/// the execution-time speed-up over the baseline.
pub const PAPER_CYCLES: f64 = 14_039.0;
pub const PAPER_DRAM_KB: f64 = 95.5;
/// The model's exact Fig. 2 counts at the commit that defined this
/// benchmark. A change to either is a change to the model, not to host
/// speed, and fails the correctness gate.
pub const MODEL_FIG2_CYCLES: u64 = 13_937;
pub const MODEL_FIG2_DRAM_BYTES: u64 = 96_888;

/// Repeats `f` until `budget` has passed (at least once, at most `cap`
/// times) and returns the median duration of one call.
pub fn median_time(budget: Duration, cap: usize, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || (start.elapsed() < budget && samples.len() < cap) {
        let ((), took) = timed(&mut f);
        samples.push(took.as_secs_f64());
    }
    Duration::from_secs_f64(median(&samples))
}

/// The paper's Fig. 2 problem (11×11, four-point, circular rows, open
/// columns, 100 instances) on Smache and on the baseline.
pub struct Fig2 {
    pub smache: RunReport,
    pub baseline: BaselineReport,
    pub baseline_time: Duration,
}

pub fn fig2_problem() -> Problem {
    Problem::new(&[("grid", "11x11")], 100)
}

pub fn run_fig2(input: &[u64]) -> Fig2 {
    let p = fig2_problem();
    let smache = p.run(input).expect("Fig. 2 Smache run");
    let mut baseline = BaselineSystem::new(
        GridSpec::d2(11, 11).expect("grid"),
        StencilShape::four_point_2d(),
        BoundarySpec::paper_case(),
        Box::new(AverageKernel),
        BaselineConfig::default(),
    )
    .expect("Fig. 2 baseline");
    let (baseline, baseline_time) = timed(|| {
        baseline
            .run(input, p.instances)
            .expect("Fig. 2 baseline run")
    });
    Fig2 {
        smache,
        baseline,
        baseline_time,
    }
}

impl Fig2 {
    /// The correctness gate: both designs match the reference and the
    /// model's counts are the pinned ones.
    pub fn check(&self, golden: &[u64], out: &mut Outcome) {
        if self.smache.output != golden {
            out.fail("Fig. 2 Smache output differs from golden_run".into());
        }
        if self.baseline.output != golden {
            out.fail("Fig. 2 baseline output differs from golden_run".into());
        }
        let m = &self.smache.metrics;
        if m.cycles != MODEL_FIG2_CYCLES || m.dram.total_bytes() != MODEL_FIG2_DRAM_BYTES {
            out.fail(format!(
                "Fig. 2 counts moved: {} cycles / {} DRAM bytes, pinned {} / {}",
                m.cycles,
                m.dram.total_bytes(),
                MODEL_FIG2_CYCLES,
                MODEL_FIG2_DRAM_BYTES
            ));
        }
    }

    pub fn report(&self, out: &mut Outcome) {
        let sm = &self.smache.metrics;
        let base = &self.baseline.metrics;
        out.set("model.speedup_vs_baseline", base.exec_us() / sm.exec_us());
        out.set(
            "model.cycles_error_vs_paper",
            (sm.cycles as f64 - PAPER_CYCLES).abs() / PAPER_CYCLES,
        );
        out.set(
            "model.dram_error_vs_paper",
            (sm.traffic_kb() - PAPER_DRAM_KB).abs() / PAPER_DRAM_KB,
        );
        out.set(
            "baseline.host_ns_per_cycle",
            self.baseline_time.as_secs_f64() * 1e9 / base.cycles as f64,
        );
    }
}

/// Temporal blocking at T=4 over two DRAM channels against the same
/// updates at T=1 over the same channels: DRAM traffic must fall to
/// exactly a quarter.
pub struct PipelinePair {
    pub problem: Problem,
    pub deep: RunReport,
    pub deep_time: Duration,
    pub shallow: RunReport,
}

pub fn pipeline_problems() -> (Problem, Problem) {
    let deep = Problem::new(
        &[("grid", "32x32"), ("timesteps", "4"), ("channels", "2")],
        8,
    );
    let shallow = Problem::new(
        &[("grid", "32x32"), ("timesteps", "1"), ("channels", "2")],
        8,
    );
    (deep, shallow)
}

pub fn run_pipeline_pair(input: &[u64]) -> PipelinePair {
    let (deep_p, shallow_p) = pipeline_problems();
    let (deep, deep_time) = timed(|| deep_p.run(input).expect("T=4 pipeline run"));
    let shallow = shallow_p.run(input).expect("T=1 pipeline run");
    PipelinePair {
        problem: deep_p,
        deep,
        deep_time,
        shallow,
    }
}

impl PipelinePair {
    pub fn dram_ratio(&self) -> f64 {
        self.deep.metrics.dram.total_bytes() as f64 / self.shallow.metrics.dram.total_bytes() as f64
    }

    pub fn check(&self, golden: &[u64], out: &mut Outcome) {
        if self.deep.output != golden || self.shallow.output != golden {
            out.fail("pipeline output differs from golden_run".into());
        }
        let depth = self.problem.spec.timesteps;
        if self.deep.metrics.dram.total_bytes() * depth != self.shallow.metrics.dram.total_bytes() {
            out.fail(format!(
                "T={depth} pipeline DRAM traffic is not exactly 1/{depth}: {} vs {} bytes",
                self.deep.metrics.dram.total_bytes(),
                self.shallow.metrics.dram.total_bytes()
            ));
        }
    }
}

/// Least number of timed parses behind the `serve.protocol` medians: each
/// request line is parsed often enough to reach it.
const PARSE_SAMPLES: usize = 300;

/// Layer probe over a workload's own `problems` (at least one of them not
/// pipelined) and its own request `lines`: times plan, protocol parsing
/// and keys, full simulation, capture, replay (1 and 16 lanes), store
/// save/load and report serialisation, and adds Fig. 2, the T=4 pipeline
/// pair and the replay memory floor.
pub fn probe(
    problems: &[Problem],
    lines: &[String],
    seed: u64,
    work: &Path,
    stream_gbps: f64,
    out: &mut Outcome,
) {
    assert!(
        problems.iter().any(|p| !p.spec.pipelined()) && !lines.is_empty(),
        "the probe needs a plain problem and request lines"
    );
    // core.plan
    let mut plan_us = Vec::new();
    for p in problems {
        for _ in 0..5 {
            let (plan, took) = timed(|| p.spec.builder().plan());
            std::hint::black_box(plan.expect("plan"));
            plan_us.push(us(took));
        }
    }
    out.set("core.plan.us", median(&plan_us));

    // serve.protocol
    let reps = PARSE_SAMPLES.div_ceil(lines.len());
    let (mut parse_us, mut key_us) = (Vec::new(), Vec::new());
    for line in lines {
        for _ in 0..reps {
            let (parsed, took) = timed(|| Request::parse_line(std::hint::black_box(line)));
            parse_us.push(us(took));
            let Ok(Request {
                body: RequestBody::Run(request),
                ..
            }) = parsed
            else {
                out.fail(format!("request line did not parse as a run: {line}"));
                break;
            };
            let (keys, took) = timed(|| (request.cache_key(), request.schedule_key()));
            std::hint::black_box(keys);
            key_us.push(us(took));
        }
    }
    out.set("serve.protocol.parse_us", median(&parse_us));
    out.set("serve.protocol.key_us", median(&key_us));

    // Full simulation, capture, replay, serialisation and the store.
    let store_dir = work.join("probe-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = ScheduleStore::open(&store_dir, 0).expect("open probe store");
    let mut capture_ms = Vec::new();
    let (mut run_s, mut capture_s) = (0.0, 0.0);
    let (mut sim_s, mut sim_cycles) = (0.0, 0u64);
    let (mut row_hits, mut row_total, mut read_stalls, mut updates) = (0u64, 0u64, 0u64, 0u64);
    let (mut replay1_s, mut replay16_s, mut floor_bytes) = (0.0, 0.0, 0.0);
    let (mut json_s, mut json_kb) = (0.0, 0.0);
    let (mut save_s, mut load_s, mut store_kb) = (0.0, 0.0, 0.0);
    let mut saved = Vec::new();
    for (i, p) in problems.iter().enumerate() {
        let input = p.input(seed.wrapping_add(i as u64));
        let (run, t_run) = timed(|| p.run(&input));
        let (captured, t_cap) = timed(|| p.capture(&input));
        let (run, (captured, schedule)) = match (run, captured) {
            (Ok(r), Ok(c)) => (r, c),
            (r, c) => {
                out.fail(format!(
                    "probe run failed for {:?}: run {:?} capture {:?}",
                    p.pairs,
                    r.err(),
                    c.err()
                ));
                continue;
            }
        };
        if run.output != p.golden(&input) || captured.output != run.output {
            out.fail(format!(
                "probe output differs from golden_run for {:?}",
                p.pairs
            ));
        }
        capture_ms.push(ms(t_cap));
        run_s += t_run.as_secs_f64();
        capture_s += t_cap.as_secs_f64();
        if !p.spec.pipelined() {
            sim_s += t_run.as_secs_f64();
            sim_cycles += run.metrics.cycles;
        }
        let dram = &run.metrics.dram;
        row_hits += dram.row_hits;
        row_total += dram.row_hits + dram.row_misses;
        read_stalls += dram.read_stall_cycles;
        updates += p.updates();
        floor_bytes += p.updates() as f64 * (4 * p.spec.shape.len() + 16) as f64;

        // core.replay, one lane and a 16-lane block.
        let budget = Duration::from_millis(5);
        let replayed = schedule.replay(&AverageKernel, &input);
        match &replayed {
            Ok(r)
                if r.output == run.output
                    && report_shape(&r.to_json()) == report_shape(&run.to_json()) => {}
            _ => out.fail(format!(
                "replay differs from full simulation for {:?}",
                p.pairs
            )),
        }
        replay1_s += median_time(budget, 200, || {
            std::hint::black_box(schedule.replay(&AverageKernel, &input).ok());
        })
        .as_secs_f64();
        let lanes: Vec<Vec<u64>> = (0..16)
            .map(|l| seeded_input(p.spec.grid.len(), seed ^ (l << 32)))
            .collect();
        let lane_refs: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
        match schedule.replay_lanes(&AverageKernel, &lane_refs) {
            Ok(reports) if reports.len() == 16 && reports[15].output == p.golden(&lanes[15]) => {}
            _ => out.fail(format!(
                "16-lane replay differs from golden_run for {:?}",
                p.pairs
            )),
        }
        replay16_s += median_time(budget, 50, || {
            std::hint::black_box(schedule.replay_lanes(&AverageKernel, &lane_refs).ok());
        })
        .as_secs_f64()
            / 16.0;

        // core.report
        let text_len = run.to_json().compact().len();
        json_s += median_time(Duration::from_millis(2), 100, || {
            std::hint::black_box(run.to_json().compact());
        })
        .as_secs_f64();
        json_kb += text_len as f64 / 1000.0;

        // core.store save
        let before = store.bytes();
        let (result, took) = timed(|| store.save(schedule.key(), &schedule));
        if let Err(e) = result {
            out.fail(format!("store save failed: {e}"));
            continue;
        }
        save_s += took.as_secs_f64();
        store_kb += (store.bytes() - before) as f64 / 1000.0;
        saved.push((schedule.key(), input, run.output));
    }
    // core.store load, through a fresh handle as after a restart.
    let entries = store.len().max(1) as f64;
    out.set("core.store.bytes_per_entry", store.bytes() as f64 / entries);
    drop(store);
    let mut store = ScheduleStore::open(&store_dir, 0).expect("reopen probe store");
    for (key, input, expected) in &saved {
        let (loaded, took) = timed(|| store.load(*key));
        load_s += took.as_secs_f64();
        let ok = matches!(&loaded, Ok(Some(s))
            if s.replay(&AverageKernel, input).is_ok_and(|r| r.output == *expected));
        if !ok {
            out.fail("store load did not replay to the captured output".into());
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);

    let n = updates.max(1) as f64;
    out.set("core.capture.ms", median(&capture_ms));
    out.set("core.capture.overhead_ratio", capture_s / run_s);
    out.set("core.replay.ns_per_cell.lanes1", replay1_s * 1e9 / n);
    out.set("core.replay.ns_per_cell.lanes16", replay16_s * 1e9 / n);
    let floor = floor_bytes / n / stream_gbps;
    out.set("core.replay.floor_ns_per_cell", floor);
    out.set("core.replay.floor_ratio", replay1_s * 1e9 / n / floor);
    out.set("core.report.to_json_us_per_kb", json_s * 1e6 / json_kb);
    out.set("core.store.save_us_per_kb", save_s * 1e6 / store_kb);
    out.set("core.store.load_us_per_kb", load_s * 1e6 / store_kb);
    out.set(
        "mem.dram.row_hit_ratio",
        row_hits as f64 / row_total.max(1) as f64,
    );
    out.set(
        "mem.dram.read_stall_cycles_per_cell",
        read_stalls as f64 / n,
    );
    out.set("sim.host_ns_per_cycle", sim_s * 1e9 / sim_cycles as f64);

    // The paper's problem and the pipeline pair, on every workload.
    let fig2_input = fig2_problem().input(seed);
    let fig2 = run_fig2(&fig2_input);
    fig2.check(&fig2_problem().golden(&fig2_input), out);
    fig2.report(out);
    let (deep, _) = pipeline_problems();
    let pipe_input = deep.input(seed);
    let pair = run_pipeline_pair(&pipe_input);
    pair.check(&deep.golden(&pipe_input), out);
    out.set("core.pipeline.dram_bytes_ratio", pair.dram_ratio());
    out.set(
        "core.pipeline.host_ns_per_cycle",
        pair.deep_time.as_secs_f64() * 1e9 / pair.deep.metrics.cycles as f64,
    );
    out.set("host.stream_gbps", stream_gbps);
}
