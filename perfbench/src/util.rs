//! Shared plumbing: arguments, the metric catalogue, result printing,
//! statistics, the seeded generator and host probes (RSS, bandwidth,
//! environment).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve_mix", "batch_sweep"];

/// End-to-end metrics (`--trace 0`): every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ns_per_cell_update", "ns"),
    ("model_cycles_per_cell", "cycles"),
    ("model_dram_bytes_per_cell", "B"),
];

/// Per-layer metrics (`--trace 1`). A metric the workload does not
/// exercise (for example the server's hit ratios on `batch_sweep`) reads 0;
/// `perfbench/README.md` lists which workload each one belongs to. The
/// `traced.*` entries are the end-to-end metrics of the traced run's own
/// measured loop, so the traced and untraced runs can be compared, and its
/// wall-clock latency quantiles, which only the traced run reports.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mb", "MB"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.latency_p99_ms", "ms"),
    ("traced.cell_updates_per_s", "1/s"),
    ("traced.sim_cycles_per_s", "1/s"),
    ("traced.cpu_ns_per_cell_update", "ns"),
    ("traced.model_cycles_per_cell", "cycles"),
    ("traced.model_dram_bytes_per_cell", "B"),
    ("host.stream_gbps", "GB/s"),
    ("error_rate", "ratio"),
    ("serve.protocol.parse_us", "us"),
    ("serve.protocol.key_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.schedule_cache.hit_ratio", "ratio"),
    ("serve.store.hit_ratio", "ratio"),
    ("serve.store.cross_surface_hit_ratio", "ratio"),
    ("serve.share.hit", "ratio"),
    ("serve.share.replay", "ratio"),
    ("serve.share.store_load", "ratio"),
    ("serve.share.capture", "ratio"),
    ("serve.class.hit.latency_p50_ms", "ms"),
    ("serve.class.replay.latency_p50_ms", "ms"),
    ("serve.class.store_load.latency_p50_ms", "ms"),
    ("serve.class.capture.latency_p50_ms", "ms"),
    ("serve.stages_ms.hit", "ms"),
    ("serve.stages_ms.replay", "ms"),
    ("serve.stages_ms.store_load", "ms"),
    ("serve.stages_ms.capture", "ms"),
    ("serve.unattributed_ms.hit", "ms"),
    ("serve.unattributed_ms.replay", "ms"),
    ("serve.unattributed_ms.store_load", "ms"),
    ("serve.unattributed_ms.capture", "ms"),
    ("serve.generator_late_ms", "ms"),
    ("core.plan.us", "us"),
    ("core.capture.ms", "ms"),
    ("core.capture.overhead_ratio", "ratio"),
    ("core.replay.ns_per_cell.lanes1", "ns"),
    ("core.replay.ns_per_cell.lanes16", "ns"),
    ("core.replay.floor_ns_per_cell", "ns"),
    ("core.replay.floor_ratio", "ratio"),
    ("core.store.save_us_per_kb", "us/KB"),
    ("core.store.load_us_per_kb", "us/KB"),
    ("core.store.bytes_per_entry", "B"),
    ("core.report.to_json_us_per_kb", "us/KB"),
    ("core.batch.replayed_share", "ratio"),
    ("sim.host_ns_per_cycle", "ns"),
    ("core.pipeline.host_ns_per_cycle", "ns"),
    ("baseline.host_ns_per_cycle", "ns"),
    ("mem.dram.row_hit_ratio", "ratio"),
    ("mem.dram.read_stall_cycles_per_cell", "cycles"),
    ("core.pipeline.dram_bytes_ratio", "ratio"),
    ("model.speedup_vs_baseline", "x"),
    ("model.cycles_error_vs_paper", "ratio"),
    ("model.dram_error_vs_paper", "ratio"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Open-loop arrival rate of `serve_mix`, requests per second.
    pub rate: f64,
    /// The seed kept out of tuning, echoed in the environment line.
    pub held_out_seed: Option<u64>,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10;
        let mut trace = false;
        let mut rate = 100.0;
        let mut held_out_seed = None;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = |what: &str| format!("`{flag}` wants {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    if !WORKLOADS.contains(&value.as_str()) {
                        return Err(bad(&WORKLOADS.join("|")));
                    }
                    workload = Some(value);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad("an integer"))?;
                    if seconds == 0 {
                        return Err(bad("at least 1"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                "--rate" => {
                    rate = value.parse().map_err(|_| bad("a number"))?;
                    if !(rate > 0.0 && rate <= 10_000.0) {
                        return Err(bad("a rate in (0, 10000]"));
                    }
                }
                "--held-out-seed" => {
                    held_out_seed = Some(value.parse().map_err(|_| bad("an integer"))?)
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace,
            rate,
            held_out_seed,
        })
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Human-readable reasons for every failed check (printed to stderr).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Prints the result line: the end-to-end catalogue untraced, the
    /// per-layer catalogue traced (where `traced.<name>` reads the
    /// end-to-end metric `<name>`). Returns whether the run was correct.
    pub fn print(&mut self, trace: bool) -> bool {
        if self.attempted > 0 {
            self.set("error_rate", self.failed as f64 / self.attempted as f64);
        }
        for e in &self.errors {
            eprintln!("perfbench: check failed: {e}");
        }
        let catalogue = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let measured = name.strip_prefix("traced.").unwrap_or(name);
            let value = match self.metrics.get(measured) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.fail(format!("metric {name} is not finite"));
                    0.0
                }
                // Per-layer metrics a workload does not exercise read 0;
                // an end-to-end metric must always be measured.
                None if trace => 0.0,
                None => {
                    self.fail(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
        correct
    }
}

pub fn json_str(s: &str) -> String {
    smache_sim::Json::str(s).compact()
}

/// A float with every digit `{:?}` keeps (shortest round-trip form).
pub fn json_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}

/// splitmix64-driven generator: the only randomness the benchmark uses,
/// so one `--seed` names one set of inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(smache_sim::hash::stream_seed(seed, stream))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        smache_sim::hash::splitmix64(self.0)
    }

    /// A data seed for an input grid, small enough to travel as a JSON
    /// integer in a request line.
    pub fn data_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The value at quantile `q` (0..=1) of `values`, by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` once.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// CPU times (all threads of the process) of repeated set-ups. A workload
/// sets up several times before its measured loop and several times after
/// it, and `setup_s` is the median. CPU time rather than wall time, so the
/// hypervisor's steal time on a shared host stays out of it.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs `setup` `reps` times, passing each repetition its index
    /// across all calls, and returns the last repetition's product (the
    /// state the measured loop uses).
    pub fn time<T>(&mut self, reps: usize, mut setup: impl FnMut(usize) -> T) -> T {
        let mut last = None;
        for _ in 0..reps {
            let index = self.0.len();
            let cpu = process_cpu_time();
            let value = setup(index);
            self.0.push((process_cpu_time() - cpu).as_secs_f64());
            last = Some(value);
        }
        last.expect("at least one setup repetition")
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// `struct rusage` from `<sys/resource.h>` (Linux, 64-bit).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// `struct timespec` (Linux, 64-bit).
#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut TimeSpec) -> i32;
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = TimeSpec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, and the callers
    // pass CLOCK_PROCESS_CPUTIME_ID (2) or CLOCK_THREAD_CPUTIME_ID (3).
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

/// CPU time used so far by all threads of this process. Unlike wall time
/// it leaves out the time a virtual CPU waits while the hypervisor runs
/// another guest (steal time).
pub fn process_cpu_time() -> Duration {
    cpu_clock(2)
}

/// CPU time used so far by the calling thread.
pub fn thread_cpu_time() -> Duration {
    cpu_clock(3)
}

/// Peak resident set of this process in MB (`getrusage` `ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library expects, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Host streaming-copy bandwidth in GB/s (bytes read plus bytes written
/// per nanosecond), best of a few copies of a 32 MiB buffer.
pub fn stream_gbps() -> f64 {
    const WORDS: usize = 4 << 20;
    let src: Vec<u64> = (0..WORDS as u64).collect();
    let mut dst = vec![0u64; WORDS];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let ((), took) = timed(|| dst.copy_from_slice(std::hint::black_box(&src)));
        std::hint::black_box(&dst);
        best = best.min(took.as_secs_f64());
    }
    (2 * WORDS * 8) as f64 / best / 1e9
}

/// A scratch directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(workload: &str) -> std::io::Result<WorkDir> {
        let dir =
            PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create work subdirectory");
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// The environment block printed ahead of the result line.
pub fn environment(args: &Args, stream_gbps: f64) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = cpu_model();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let held_out = args
        .held_out_seed
        .map_or("null".to_string(), |s| s.to_string());
    format!(
        "{{\"env\":{{\"workload\":{},\"seed\":{},\"held_out_seed\":{held_out},\"seconds\":{},\"trace\":{},\"rate\":{},\"commit\":{},\"nproc\":{cpus},\"cpu_model\":{},\"rustc\":{},\"profile\":{},\"host.stream_gbps\":{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_num(args.rate),
        json_str(&commit()),
        json_str(&cpu_model),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(profile),
        json_num(stream_gbps),
    )
}

/// The processor brand string from CPUID (x86-64), or `unknown`.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // The brand leaves are read only when the extended maximum leaf
        // says they exist.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes);
            return brand.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

/// The checked-out commit, read from `.git` in the working directory
/// when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}
