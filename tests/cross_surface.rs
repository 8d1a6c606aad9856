//! Cross-surface differential test: one spec gives one report whichever
//! surface runs it, and a schedule any surface persisted is found by every
//! other.
//!
//! Surfaces: `smache simulate` (single run), `smache simulate --batch`,
//! [`SmacheSystem::run_batch`], and an in-process `smache serve` (a
//! capture, a schedule-cache replay, and a store load after a restart).
//! Every report equals a direct full simulation except for `engine` (the
//! CLI prints its metrics, warm-up and output fingerprint, which are
//! compared instead), and every output equals `golden_run`. For every
//! ordered pair of store-taking surfaces, a store written by the first is
//! hit by the second: one more hit, no new write, the same file count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use smache::arch::kernel::AverageKernel;
use smache::functional::golden::golden_run;
use smache::spec::{seeded_input, ProblemSpec};
use smache::system::{
    BatchJob, BatchOptions, KernelFactory, RunReport, ScheduleStore, SmacheSystem, SystemConfig,
};
use smache::{PipelineConfig, TemporalPipeline};
use smache_mem::{ChaosProfile, FaultPlan};
use smache_serve::{start, Client, Listen, ServeConfig, ServerHandle};
use smache_sim::hash::fingerprint128;
use smache_sim::Json;

const INSTANCES: u64 = 2;

/// One problem, spelled once and handed to every surface.
struct Case {
    tag: &'static str,
    pairs: &'static [(&'static str, &'static str)],
    /// `(profile, chaos seed)` of a latency-only chaos run.
    chaos: Option<(&'static str, u64)>,
    instances: u64,
}

impl Case {
    fn spec(&self) -> ProblemSpec {
        let src: BTreeMap<String, String> = self
            .pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ProblemSpec::from_source(&src).expect("spec")
    }

    fn fault_plan(&self) -> FaultPlan {
        match self.chaos {
            Some((name, seed)) => FaultPlan::new(seed, ChaosProfile::from_name(name).unwrap()),
            None => FaultPlan::default(),
        }
    }

    fn input(&self, seed: u64) -> Vec<u64> {
        seeded_input(self.spec().grid.len(), seed)
    }

    /// A direct full simulation, outside every surface.
    fn reference(&self, seed: u64) -> RunReport {
        let spec = self.spec();
        let system = SystemConfig {
            fault_plan: self.fault_plan(),
            ..SystemConfig::default()
        };
        let plan = spec.builder().plan().expect("plan");
        if spec.pipelined() {
            let config = PipelineConfig {
                depth: spec.timesteps as usize,
                channels: spec.channels,
                system,
                ..PipelineConfig::default()
            };
            let mut pipe = TemporalPipeline::new(plan, Box::new(AverageKernel), config).unwrap();
            return pipe
                .run(&self.input(seed), self.instances / spec.timesteps)
                .unwrap();
        }
        let mut sys = SmacheSystem::new(plan, Box::new(AverageKernel), system).unwrap();
        sys.run(&self.input(seed), self.instances).unwrap()
    }

    fn golden(&self, seed: u64) -> Vec<u64> {
        let spec = self.spec();
        golden_run(
            &spec.grid,
            &spec.bounds,
            &spec.shape,
            &AverageKernel,
            &self.input(seed),
            self.instances,
        )
        .expect("golden")
    }

    fn cli_args(&self, seed: u64) -> String {
        let mut argv = format!("simulate --instances {} --seed {seed}", self.instances);
        for (k, v) in self.pairs {
            let _ = write!(argv, " --{k} {v}");
        }
        if let Some((profile, chaos_seed)) = self.chaos {
            let _ = write!(argv, " --chaos-profile {profile} --chaos-seed {chaos_seed}");
        }
        argv
    }

    fn request(&self, seed: u64) -> Json {
        let spec = self.pairs.iter().map(|&(k, v)| (k, Json::str(v))).collect();
        let mut pairs = vec![
            (
                "cmd",
                Json::str(if self.chaos.is_some() {
                    "chaos"
                } else {
                    "simulate"
                }),
            ),
            ("spec", Json::obj(spec)),
            ("seed", Json::Int(seed as i64)),
            ("instances", Json::Int(self.instances as i64)),
        ];
        if let Some((profile, chaos_seed)) = self.chaos {
            pairs.push(("profile", Json::str(profile)));
            pairs.push(("chaos-seed", Json::Int(chaos_seed as i64)));
        }
        Json::obj(pairs)
    }

    fn batch_jobs(&self, seeds: &[u64]) -> Vec<BatchJob> {
        let plan = self.spec().builder().plan().expect("plan");
        let kernel: KernelFactory = Arc::new(|| Box::new(AverageKernel));
        let config = SystemConfig {
            fault_plan: self.fault_plan(),
            ..SystemConfig::default()
        };
        seeds
            .iter()
            .map(|&s| {
                BatchJob::new(
                    plan.clone(),
                    Arc::clone(&kernel),
                    self.input(s),
                    self.instances,
                )
                .with_config(config)
            })
            .collect()
    }
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            tag: "paper",
            pairs: &[("grid", "11x11")],
            chaos: None,
            instances: INSTANCES,
        },
        Case {
            tag: "cube",
            pairs: &[("grid", "8x8x8"), ("bounds", "circular")],
            chaos: None,
            instances: INSTANCES,
        },
        Case {
            tag: "nine",
            pairs: &[
                ("grid", "24x24"),
                ("shape", "nine"),
                ("rows", "mirror"),
                ("cols", "open"),
            ],
            chaos: None,
            instances: INSTANCES,
        },
        Case {
            tag: "storms",
            pairs: &[("grid", "11x11")],
            chaos: Some(("storms", 7)),
            instances: INSTANCES,
        },
    ]
}

fn pipelined() -> Case {
    Case {
        tag: "pipe",
        pairs: &[("grid", "8x8"), ("timesteps", "2"), ("channels", "2")],
        chaos: None,
        instances: 4,
    }
}

/// The report text with the engine tag normalised, as `serve_integration`
/// compares served and direct reports.
fn engine_blind(report_text: &str) -> String {
    report_text.replace("\"engine\":\"replay\"", "\"engine\":\"full_sim\"")
}

fn output_fp(output: &[u64]) -> String {
    let bytes: Vec<u8> = output.iter().flat_map(|w| w.to_le_bytes()).collect();
    let (hi, lo) = fingerprint128(&bytes);
    format!("{hi:016x}{lo:016x}")
}

fn cli(argv: &str) -> String {
    let raw: Vec<String> = argv.split_whitespace().map(String::from).collect();
    smache_cli::run(&raw).unwrap_or_else(|e| panic!("`{argv}`: {e}"))
}

/// `(hits, writes)` from a CLI `store:` line.
fn cli_store_counts(out: &str) -> (u64, u64) {
    let line = out
        .lines()
        .find(|l| l.starts_with("store: "))
        .unwrap_or_else(|| panic!("no store line in {out}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    (words[1].parse().unwrap(), words[3].parse().unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smache-xs-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn entries(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "sched"))
                .count()
        })
        .unwrap_or(0)
}

fn serve(tag: &str, store: &Path) -> ServerHandle {
    start(ServeConfig {
        listen: Listen::Unix(
            std::env::temp_dir().join(format!("smache-xs-{}-{tag}.sock", std::process::id())),
        ),
        workers: 1,
        store_dir: Some(store.to_path_buf()),
        store_bytes: 0,
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn served_report(handle: &ServerHandle, request: &Json) -> Json {
    let reply = Client::connect(handle.addr())
        .expect("connect")
        .call(request)
        .expect("call");
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("ok"),
        "{reply:?}"
    );
    reply.get("report").expect("report").clone()
}

/// The lines a CLI single run prints about its report, rendered from a
/// report the same way.
fn cli_view(report: &RunReport) -> Vec<String> {
    vec![
        report.metrics.to_string(),
        format!(
            "  warm-up {} cycles; resources: {}",
            report.warmup_cycles, report.metrics.resources
        ),
        format!("fp={}", output_fp(&report.output)),
    ]
}

fn cli_lines(out: &str) -> Vec<String> {
    let lines: Vec<&str> = out.lines().collect();
    let metrics = lines.iter().position(|l| l.contains(" cycles @ ")).unwrap();
    let fp = lines[metrics + 2].split(' ').next_back().unwrap();
    vec![
        lines[metrics].to_string(),
        lines[metrics + 1].to_string(),
        fp.to_string(),
    ]
}

fn check_cli_single(case: &Case, seed: u64, out: &str) {
    assert!(out.contains("verified against golden reference"), "{out}");
    assert_eq!(
        cli_lines(out),
        cli_view(&case.reference(seed)),
        "{}",
        case.tag
    );
}

/// Every surface reports what a direct full simulation reports.
fn reports_agree(case: &Case, batchable: bool) {
    let seeds = [3, 5, 8];
    let reference: Vec<String> = seeds
        .iter()
        .map(|&s| case.reference(s).to_json().compact())
        .collect();
    for seed in seeds {
        assert_eq!(
            case.reference(seed).output,
            case.golden(seed),
            "{}",
            case.tag
        );
    }

    // CLI single: storeless, then captured and replayed through a store.
    let dir = temp_dir(&format!("{}-cli", case.tag));
    check_cli_single(
        case,
        seeds[0],
        &cli(&format!("{} --verify", case.cli_args(seeds[0]))),
    );
    for &seed in &seeds {
        let out = cli(&format!(
            "{} --verify --store {}",
            case.cli_args(seed),
            dir.display()
        ));
        check_cli_single(case, seed, &out);
    }
    std::fs::remove_dir_all(&dir).ok();

    // serve: capture, schedule-cache replay, then a store load after a
    // restart.
    let dir = temp_dir(&format!("{}-serve", case.tag));
    let handle = serve(&format!("{}-a", case.tag), &dir);
    let captured = served_report(&handle, &case.request(seeds[0]));
    let replayed = served_report(&handle, &case.request(seeds[1]));
    assert_eq!(handle.metrics().counter("serve.schedule_cache.hits"), 1);
    handle.shutdown();
    let handle = serve(&format!("{}-b", case.tag), &dir);
    let loaded = served_report(&handle, &case.request(seeds[2]));
    assert_eq!(handle.metrics().counter("serve.store.hits"), 1);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    let served = [captured, replayed, loaded];
    assert_eq!(
        served[0].get("engine").and_then(Json::as_str),
        Some("full_sim")
    );
    for (i, report) in served.iter().enumerate() {
        if i > 0 {
            assert_eq!(report.get("engine").and_then(Json::as_str), Some("replay"));
        }
        assert_eq!(
            engine_blind(&report.compact()),
            reference[i],
            "{} serve {i}",
            case.tag
        );
    }
    if !batchable {
        return;
    }

    // run_batch and CLI --batch.
    let batch = SmacheSystem::run_batch(case.batch_jobs(&seeds), BatchOptions::new().threads(2));
    for (i, lane) in batch.lanes.iter().enumerate() {
        let lane = lane.as_ref().expect("lane");
        assert_eq!(
            engine_blind(&lane.to_json().compact()),
            reference[i],
            "{} lane {i}",
            case.tag
        );
        assert_eq!(lane.output, case.golden(seeds[i]));
    }
    let out = cli(&format!("{} --batch 3 --verify", case.cli_args(seeds[0])));
    assert!(
        out.contains("all lanes verified against golden reference"),
        "{out}"
    );
    for (lane, line) in out
        .lines()
        .filter(|l| l.contains(" beats, engine="))
        .enumerate()
    {
        let r = case.reference(seeds[0] + lane as u64);
        let expect = format!(
            "{} cycles, {:>6} beats",
            r.metrics.cycles, r.stats.transfers
        );
        assert!(line.contains(&expect), "{line} vs {expect}");
    }
}

#[test]
fn every_surface_reports_what_the_full_simulation_reports() {
    for case in cases() {
        reports_agree(&case, true);
    }
    reports_agree(&pipelined(), false);
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Surface {
    CliSingle,
    CliBatch,
    RunBatch,
    Serve,
}

/// Runs `case` once on `surface` over the store in `dir` and returns the
/// run's store `(hits, writes)`.
fn persist(surface: Surface, case: &Case, dir: &Path, seed: u64) -> (u64, u64) {
    match surface {
        Surface::CliSingle => cli_store_counts(&cli(&format!(
            "{} --store {}",
            case.cli_args(seed),
            dir.display()
        ))),
        Surface::CliBatch => cli_store_counts(&cli(&format!(
            "{} --batch 1 --store {}",
            case.cli_args(seed),
            dir.display()
        ))),
        Surface::RunBatch => {
            let mut store = ScheduleStore::open(dir, 0).expect("open");
            let report = SmacheSystem::run_batch(
                case.batch_jobs(&[seed]),
                BatchOptions::new().store(&mut store),
            );
            assert_eq!(report.succeeded(), 1);
            let stats = store.stats();
            (stats.hits, stats.writes)
        }
        Surface::Serve => {
            let handle = serve(&format!("{}-{seed}", case.tag), dir);
            served_report(&handle, &case.request(seed));
            let counts = (
                handle.metrics().counter("serve.store.hits"),
                handle.metrics().counter("serve.store.writes"),
            );
            handle.shutdown();
            counts
        }
    }
}

fn stores_are_shared(case: &Case, surfaces: &[Surface]) {
    for &writer in surfaces {
        for &reader in surfaces.iter().filter(|&&s| s != writer) {
            let dir = temp_dir(&format!("{}-{writer:?}-{reader:?}", case.tag));
            let what = format!("{}: {writer:?} then {reader:?}", case.tag);
            assert_eq!(persist(writer, case, &dir, 11), (0, 1), "{what}");
            assert_eq!(entries(&dir), 1, "{what}");
            assert_eq!(persist(reader, case, &dir, 12), (1, 0), "{what}");
            assert_eq!(entries(&dir), 1, "{what}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_store_written_by_any_surface_is_hit_by_every_other() {
    use Surface::*;
    for case in cases() {
        stores_are_shared(&case, &[CliSingle, CliBatch, RunBatch, Serve]);
    }
    stores_are_shared(&pipelined(), &[CliSingle, Serve]);
}
