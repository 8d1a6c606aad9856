//! `serve_mix`: an in-process `smache_serve::start` server over a schedule
//! store, fed by an open loop of seeded Poisson arrivals on two Unix-socket
//! connections. Each request is timed from when it was due.
//!
//! The mix has four classes: exact repeats (result cache), fresh seeds on
//! a spec seen earlier in the run (schedule-cache replay), first touches
//! of specs an earlier server lifetime persisted during set-up (store
//! load), and first touches of new specs (capture plus store write).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use epoll::{Event, Interest, Poller};
use smache::arch::kernel::AverageKernel;
use smache::system::store::ScheduleStore;
use smache::system::{BatchJob, BatchOptions, ControlSchedule, KernelFactory};
use smache::SmacheSystem;
use smache_serve::{start, Listen, Request, RequestBody, RunRequest, ServeConfig, ServerHandle};
use smache_sim::Json;

use crate::layers::probe;
use crate::problem::{report_output, report_shape, Problem};
use crate::util::{
    median, ms, peak_rss_mb, process_cpu_time, quantile, thread_cpu_time, timed, Args, Outcome,
    Rng, SetupTimes, WorkDir,
};

/// Intended share of each class among the generated requests. The shares
/// are assumptions, not measurements: no document of the repository gives
/// a traffic mix, and the load generator's 50/50 splits would put the
/// median on a class boundary, where it jumps between two class medians.
/// The rule that chose them:
/// - capture 0.12: at 100 requests/s, 12 captures of about 4 ms each
///   keep one worker about 5 % busy, so no backlog grows;
/// - store load 0.06, half of capture: the pool of persisted specs stays
///   small enough to build in set-up;
/// - hit 0.25, replay the rest (0.57): the median lies inside the replay
///   class with a margin of a quarter of the requests to either edge, and
///   p99 lies inside the capture class.
const MIX: [(Class, f64); 4] = [
    (Class::Hit, 0.25),
    (Class::Replay, 0.57),
    (Class::StoreLoad, 0.06),
    (Class::Capture, 0.12),
];
/// A repeat (hit or replay) refers only to requests due at least this
/// long before it, so the earlier response has landed at this rate.
const REPEAT_AGE_S: f64 = 0.5;
/// Persisted specs per store load the mix asks for: half again as many,
/// for the first `REPEAT_AGE_S`, when store loads stand in for repeats
/// that have nothing to repeat yet, and so the pool rarely runs out.
const PERSISTED_SPARE: f64 = 1.5;
/// Largest cells × instances × stencil points of a generated spec, so
/// that no single capture dominates the tail where p99 sits.
const MAX_WORK: u64 = 24_576;
/// Set-ups timed before the measured loop and again after it.
const SETUP_REPS: usize = 3;
/// How long after the last due time missing responses are waited for.
const DRAIN_S: u64 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    Hit,
    Replay,
    StoreLoad,
    Capture,
}

const CLASSES: [Class; 4] = [Class::Hit, Class::Replay, Class::StoreLoad, Class::Capture];

impl Class {
    /// The class's end-to-end median, stage-sum and unattributed metrics.
    fn metric_names(self) -> [&'static str; 3] {
        match self {
            Class::Hit => [
                "serve.class.hit.latency_p50_ms",
                "serve.stages_ms.hit",
                "serve.unattributed_ms.hit",
            ],
            Class::Replay => [
                "serve.class.replay.latency_p50_ms",
                "serve.stages_ms.replay",
                "serve.unattributed_ms.replay",
            ],
            Class::StoreLoad => [
                "serve.class.store_load.latency_p50_ms",
                "serve.stages_ms.store_load",
                "serve.unattributed_ms.store_load",
            ],
            Class::Capture => [
                "serve.class.capture.latency_p50_ms",
                "serve.stages_ms.capture",
                "serve.unattributed_ms.capture",
            ],
        }
    }
}

/// The spec generator's universe, in three forms: plain 2D grids from
/// 16×16 to 64×64, 3D grids, and the pipelined form (`timesteps` and
/// `channels` 2). The run draws from it by seed.
fn forms() -> [Vec<Problem>; 3] {
    const BOUNDS: [&str; 3] = ["circular", "open", "mirror"];
    const SIDES: [usize; 7] = [16, 24, 32, 40, 48, 56, 64];
    let mut plain = Vec::new();
    for h in SIDES {
        for w in SIDES {
            for shape in ["four", "nine"] {
                for rows in BOUNDS {
                    for cols in BOUNDS {
                        for instances in 1..=3 {
                            let grid = format!("{h}x{w}");
                            plain.push(Problem::new(
                                &[
                                    ("grid", &grid),
                                    ("shape", shape),
                                    ("rows", rows),
                                    ("cols", cols),
                                ],
                                instances,
                            ));
                        }
                    }
                }
            }
        }
    }
    let mut cubes = Vec::new();
    for d in [8, 12, 16] {
        for h in [8, 12, 16] {
            for w in [8, 12, 16] {
                for bounds in BOUNDS {
                    for instances in 1..=2 {
                        let grid = format!("{d}x{h}x{w}");
                        cubes.push(Problem::new(
                            &[("grid", &grid), ("bounds", bounds)],
                            instances,
                        ));
                    }
                }
            }
        }
    }
    let mut piped = Vec::new();
    for h in [16, 24, 32, 40] {
        for w in [16, 24, 32, 40] {
            for rows in BOUNDS {
                for cols in BOUNDS {
                    for instances in [2, 4] {
                        let grid = format!("{h}x{w}");
                        piped.push(Problem::new(
                            &[
                                ("grid", &grid),
                                ("rows", rows),
                                ("cols", cols),
                                ("timesteps", "2"),
                                ("channels", "2"),
                            ],
                            instances,
                        ));
                    }
                }
            }
        }
    }
    // Bound the work of one run (cells × instances × stencil points) so
    // the capture tail, where p99 sits, is dense rather than a few giants.
    [plain, cubes, piped].map(|form| {
        form.into_iter()
            .filter(|p| p.updates() * p.spec.shape.len() as u64 <= MAX_WORK)
            .collect()
    })
}

/// Draws specs in a seeded order: 80% plain, 10% 3D, 10% pipelined.
struct SpecStream {
    forms: [Vec<Problem>; 3],
    rng: Rng,
}

impl SpecStream {
    fn new(seed: u64) -> SpecStream {
        let mut rng = Rng::new(seed, "serve/specs");
        let mut forms = forms();
        for form in &mut forms {
            rng.shuffle(form);
        }
        SpecStream { forms, rng }
    }

    /// The next unused spec, or `None` once the universe is used up.
    fn next(&mut self) -> Option<Problem> {
        let u = self.rng.unit();
        let pick = if u < 0.8 {
            0
        } else if u < 0.9 {
            1
        } else {
            2
        };
        let form = if self.forms[pick].is_empty() { 0 } else { pick };
        self.forms[form].pop()
    }
}

/// One request of the open loop.
struct Planned {
    due_s: f64,
    problem: usize,
    seed: u64,
    intent: Class,
    line: String,
}

/// The seeded inputs: the persisted specs with the set-up requests that
/// persist them, the cross-surface probe's spec, and the measured run's
/// arrival schedule.
struct Plan {
    problems: Vec<Problem>,
    setup_lines: Vec<(usize, u64, String)>,
    /// Index in `problems` of `cross_surface_problem()`.
    cross_surface: usize,
    requests: Vec<Planned>,
}

fn make_plan(seed: u64, rate: f64, seconds: u64) -> Plan {
    let mut specs = SpecStream::new(seed);
    let mut rng = Rng::new(seed, "serve/arrivals");
    let store_share = MIX
        .iter()
        .find_map(|&(class, share)| (class == Class::StoreLoad).then_some(share))
        .expect("the mix has a store-load share");
    let persisted = (store_share * rate * seconds as f64 * PERSISTED_SPARE).ceil() as usize;
    let mut problems: Vec<Problem> = (0..persisted)
        .map(|_| {
            specs
                .next()
                .expect("the universe holds the persisted specs")
        })
        .collect();
    let setup_lines = (0..persisted)
        .map(|i| {
            let s = rng.data_seed();
            (i, s, problems[i].request_line(&format!("a{i}"), s))
        })
        .collect();
    let cross_surface = problems.len();
    problems.push(cross_surface_problem());

    let mut requests: Vec<Planned> = Vec::new();
    // Specs touched so far in the run, with the due time of first touch.
    let mut touched: Vec<(f64, usize)> = Vec::new();
    let mut next_persisted = 0;
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds as f64 {
            break;
        }
        let mut u = rng.unit();
        let mut intent = Class::Capture;
        for (class, share) in MIX {
            if u < share {
                intent = class;
                break;
            }
            u -= share;
        }
        let old = |due: f64| due <= t - REPEAT_AGE_S;
        let aged_requests = requests.iter().filter(|r| old(r.due_s)).count();
        let aged_specs = touched.iter().filter(|(due, _)| old(*due)).count();
        // Fall back when the intended class has nothing to draw on:
        // hit → replay → store load → capture early in the run (so it
        // does not open with a burst of captures), store load → replay
        // once the persisted pool is used up.
        if intent == Class::Hit && aged_requests == 0 {
            intent = Class::Replay;
        }
        if intent == Class::Replay && aged_specs == 0 {
            intent = Class::StoreLoad;
        }
        if intent == Class::StoreLoad && next_persisted == persisted {
            intent = Class::Replay;
        }
        if intent == Class::Replay && aged_specs == 0 {
            intent = Class::Capture;
        }
        let (problem, data) = match intent {
            Class::Hit => {
                let r = &requests[rng.below(aged_requests)];
                (r.problem, r.seed)
            }
            Class::Replay => (touched[rng.below(aged_specs)].1, rng.data_seed()),
            Class::StoreLoad => {
                next_persisted += 1;
                touched.push((t, next_persisted - 1));
                (next_persisted - 1, rng.data_seed())
            }
            Class::Capture => match specs.next() {
                Some(fresh) => {
                    problems.push(fresh);
                    touched.push((t, problems.len() - 1));
                    (problems.len() - 1, rng.data_seed())
                }
                // A run long or fast enough to use up the universe
                // replays from then on.
                None => {
                    intent = Class::Replay;
                    (touched[rng.below(touched.len())].1, rng.data_seed())
                }
            },
        };
        let line = problems[problem].request_line(&format!("r{}", requests.len()), data);
        requests.push(Planned {
            due_s: t,
            problem,
            seed: data,
            intent,
            line,
        });
    }
    Plan {
        problems,
        setup_lines,
        cross_surface,
        requests,
    }
}

fn config(socket: &Path, store: &Path) -> ServeConfig {
    ServeConfig {
        listen: Listen::Unix(socket.to_path_buf()),
        workers: 2,
        queue_cap: 512,
        cache_bytes: 64 << 20,
        schedule_cache_bytes: 128 << 20,
        store_dir: Some(store.to_path_buf()),
        store_bytes: 0,
        ..ServeConfig::default()
    }
}

/// What came back for one request.
struct Reply {
    sent: Instant,
    received: Instant,
    line: String,
}

/// Sends `lines` (each due `due_s` after `start`) over two connections
/// from one sender thread and reads the replies on this thread. Returns
/// the reply to each line, in line order (`None` when none came), and the
/// CPU time the rest of the process (the server) used meanwhile.
fn exchange(
    socket: &Path,
    lines: &[(f64, &str)],
    start: Instant,
) -> (Vec<Option<Reply>>, Duration) {
    let (process_cpu, receiver_cpu) = (process_cpu_time(), thread_cpu_time());
    let conns: Vec<UnixStream> = (0..2)
        .map(|_| UnixStream::connect(socket).expect("connect to the server"))
        .collect();
    let poller = Poller::new().expect("epoll");
    for (token, conn) in conns.iter().enumerate() {
        poller
            .add(conn.as_raw_fd(), token as u64, Interest::READ)
            .expect("register connection");
    }
    let mut sent_at: Vec<Option<Instant>> = vec![None; lines.len()];
    let mut replies: Vec<Option<(Instant, String)>> = (0..lines.len()).map(|_| None).collect();
    let last_due = lines.last().map_or(0.0, |l| l.0);
    let give_up = start + Duration::from_secs_f64(last_due) + Duration::from_secs(DRAIN_S);
    let mut sender_cpu = Duration::ZERO;
    std::thread::scope(|scope| {
        let conns = &conns;
        let sender = scope.spawn(move || {
            let mut sent = Vec::with_capacity(lines.len());
            for (i, (due_s, line)) in lines.iter().enumerate() {
                let due = start + Duration::from_secs_f64(*due_s);
                // Sleep to just short of the due time, then yield-spin.
                let now = Instant::now();
                if due > now + Duration::from_micros(300) {
                    std::thread::sleep(due - now - Duration::from_micros(200));
                }
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                let mut conn = &conns[i % 2];
                let mut framed = String::with_capacity(line.len() + 1);
                framed.push_str(line);
                framed.push('\n');
                // Stamped before the write: the server thread the write
                // wakes may preempt this one before the write returns.
                sent.push(Instant::now());
                conn.write_all(framed.as_bytes()).expect("send request");
            }
            (sent, thread_cpu_time())
        });

        let mut pending = lines.len();
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let mut events: Vec<Event> = Vec::new();
        let mut chunk = vec![0u8; 1 << 16];
        while pending > 0 && Instant::now() < give_up {
            // Block rather than spin: a spinning reader would take a CPU
            // from the server and inflate its CPU time. The timeout only
            // bounds how late the drain deadline is noticed.
            poller.wait(&mut events, 10).expect("epoll wait");
            for ev in &events {
                let token = ev.token as usize;
                let n = (&conns[token]).read(&mut chunk).unwrap_or(0);
                if n == 0 {
                    // The server closed the connection; whatever is still
                    // outstanding on it counts as failed.
                    let _ = poller.delete(conns[token].as_raw_fd());
                    continue;
                }
                let now = Instant::now();
                let buf = &mut bufs[token];
                buf.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Some(pos) = buf[consumed..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&buf[consumed..consumed + pos]).into_owned();
                    consumed += pos + 1;
                    if let Some(i) = reply_index(&line).filter(|&i| i < lines.len()) {
                        if replies[i].is_none() {
                            replies[i] = Some((now, line));
                            pending -= 1;
                        }
                    }
                }
                buf.drain(..consumed);
            }
        }
        let (sent, cpu) = sender.join().expect("sender thread");
        for (slot, at) in sent_at.iter_mut().zip(sent) {
            *slot = Some(at);
        }
        sender_cpu = cpu;
    });
    let client_cpu = sender_cpu + (thread_cpu_time() - receiver_cpu);
    let server_cpu = (process_cpu_time() - process_cpu).saturating_sub(client_cpu);
    let replies = replies
        .into_iter()
        .zip(sent_at)
        .map(|(reply, sent)| {
            let (received, line) = reply?;
            Some(Reply {
                sent: sent?,
                received,
                line,
            })
        })
        .collect();
    (replies, server_cpu)
}

/// The request index carried in a reply's id (`r<i>` or `a<i>`).
fn reply_index(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    let digits: String = rest
        .get(1..)?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Verifies replies against `golden_run` and against the full-simulation
/// report of the same spec (equal except for `output` and `engine`).
struct Verifier<'p> {
    problems: &'p [Problem],
    shapes: HashMap<usize, String>,
}

/// A verified `ok` reply.
struct Served {
    cached: bool,
    replayed: bool,
    cycles: u64,
    dram_bytes: u64,
}

impl Verifier<'_> {
    /// Makes a full simulation of `problem` the reference its replies are
    /// checked against, unless the spec already has one.
    fn full_reference(&mut self, problem: usize, seed: u64) -> Result<(), String> {
        if let Entry::Vacant(e) = self.shapes.entry(problem) {
            let p = &self.problems[problem];
            let full = p.run(&p.input(seed)).map_err(|e| e.to_string())?;
            e.insert(report_shape(&full.to_json()));
        }
        Ok(())
    }

    fn check(&mut self, problem: usize, seed: u64, line: &str) -> Result<Served, String> {
        let doc = Json::parse(line).map_err(|e| format!("unparsable reply: {e}"))?;
        if doc.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("not ok: {}", &line[..line.len().min(200)]));
        }
        let report = doc.get("report").ok_or("reply without report")?;
        let p = &self.problems[problem];
        let output = report_output(report).ok_or("report without output")?;
        if output != p.golden(&p.input(seed)) {
            return Err(format!(
                "output differs from golden_run for {:?} seed {seed}",
                p.pairs
            ));
        }
        let replayed = report.get("engine").and_then(Json::as_str) == Some("replay");
        let shape = report_shape(report);
        // The first reply of a spec is normally its capture, a full
        // simulation itself; when it is a replay, a full simulation run
        // here supplies the reference.
        if replayed {
            self.full_reference(problem, seed)?;
        }
        let reference = self.shapes.entry(problem).or_insert_with(|| shape.clone());
        if *reference != shape {
            return Err(format!(
                "report differs from the full simulation for {:?}",
                p.pairs
            ));
        }
        let metrics = report.get("metrics").ok_or("report without metrics")?;
        let dram = metrics.get("dram").ok_or("report without dram")?;
        let count = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
        Ok(Served {
            cached: doc.get("cached").and_then(Json::as_bool) == Some(true),
            replayed,
            cycles: count(metrics.get("cycles")),
            dram_bytes: count(dram.get("bytes_read")) + count(dram.get("bytes_written")),
        })
    }
}

/// The server under test plus where it lives.
struct Live {
    server: ServerHandle,
    socket: PathBuf,
    store: PathBuf,
    setup_replies: Vec<Option<Reply>>,
}

/// The spec the cross-surface probe persists through `run_batch`; it is
/// outside the generator's universe.
fn cross_surface_problem() -> Problem {
    Problem::new(&[("grid", "20x20")], 2)
}

/// One set-up: an earlier server lifetime persists the plan's specs,
/// `run_batch` persists the cross-surface spec into the same store, and
/// the server under test starts warm over it.
fn set_up(work: &WorkDir, rep: usize, plan: &Plan, seed: u64) -> Live {
    let store = work.sub(&format!("store{rep}"));
    let socket = work.path().join(format!("s{rep}.sock"));
    // The set-up lines arrive in one burst, so the earlier server's queue
    // holds all of them inside the ¾ band in which it admits captures.
    let earlier = start(ServeConfig {
        queue_cap: 2 * plan.setup_lines.len().max(256),
        ..config(&socket, &store)
    })
    .expect("start the earlier server");
    let lines: Vec<(f64, &str)> = plan
        .setup_lines
        .iter()
        .map(|(_, _, l)| (0.0, l.as_str()))
        .collect();
    let (setup_replies, _) = exchange(&socket, &lines, Instant::now());
    earlier.shutdown();

    let p = &plan.problems[plan.cross_surface];
    let mut batch_store = ScheduleStore::open(&store, 0).expect("open the store for run_batch");
    let kernel: KernelFactory = Arc::new(|| Box::new(AverageKernel));
    let buffer_plan = p.spec.builder().plan().expect("plan");
    let job = BatchJob::new(buffer_plan, kernel, p.input(seed), p.instances);
    let report = SmacheSystem::run_batch(vec![job], BatchOptions::new().store(&mut batch_store));
    assert_eq!(report.succeeded(), 1, "cross-surface run_batch lane failed");
    drop(batch_store);

    let server = start(config(&socket, &store)).expect("start the server under test");
    Live {
        server,
        socket,
        store,
        setup_replies,
    }
}

fn counters(server: &ServerHandle) -> HashMap<&'static str, u64> {
    [
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.schedule_cache.hits",
        "serve.schedule_cache.misses",
        "serve.store.hits",
        "serve.store.misses",
    ]
    .into_iter()
    .map(|name| (name, server.metrics().counter(name)))
    .collect()
}

pub fn run(args: &Args, stream_gbps: f64, out: &mut Outcome) {
    let plan = make_plan(args.seed, args.rate, args.seconds);
    let work = WorkDir::new("serve_mix").expect("work directory");
    let mut setup_times = SetupTimes::default();
    let live = setup_times.time(SETUP_REPS, |rep| {
        let live = set_up(&work, rep, &plan, args.seed);
        if rep + 1 < SETUP_REPS {
            live.server.shutdown();
            return None;
        }
        Some(live)
    });
    let live = live.expect("the last set-up keeps its server");

    let mut verifier = Verifier {
        problems: &plan.problems,
        shapes: HashMap::new(),
    };
    for ((problem, seed, _), reply) in plan.setup_lines.iter().zip(&live.setup_replies) {
        out.attempted += 1;
        match reply {
            None => out.fail("set-up request got no reply".into()),
            Some(r) => {
                if let Err(e) = verifier.check(*problem, *seed, &r.line) {
                    out.fail(format!("set-up: {e}"));
                }
            }
        }
    }

    // Cross-surface store probe (untimed): the spec run_batch persisted,
    // checked against golden_run and a full simulation like every reply.
    let before = counters(&live.server);
    let probe_line = plan.problems[plan.cross_surface].request_line("x0", args.seed);
    let (reply, _) = exchange(&live.socket, &[(0.0, &probe_line)], Instant::now());
    let cross_hits = counters(&live.server)["serve.store.hits"] - before["serve.store.hits"];
    out.set("serve.store.cross_surface_hit_ratio", cross_hits as f64);
    out.attempted += 1;
    let checked = match &reply[0] {
        None => Err("no reply".to_string()),
        Some(r) => verifier
            .full_reference(plan.cross_surface, args.seed)
            .and_then(|()| verifier.check(plan.cross_surface, args.seed, &r.line)),
    };
    if let Err(e) = checked {
        out.fail(format!("cross-surface probe: {e}"));
    }

    // The measured open loop.
    let before = counters(&live.server);
    let lines: Vec<(f64, &str)> = plan
        .requests
        .iter()
        .map(|r| (r.due_s, r.line.as_str()))
        .collect();
    let start = Instant::now();
    let (replies, server_cpu) = exchange(&live.socket, &lines, start);
    let after = counters(&live.server);
    live.server.shutdown();

    let delta = |name: &str| (after[name] - before[name]) as f64;
    let ratio = |hits: &str, misses: &str| {
        let total = delta(hits) + delta(misses);
        if total > 0.0 {
            delta(hits) / total
        } else {
            0.0
        }
    };
    out.set(
        "serve.cache.hit_ratio",
        ratio("serve.cache.hits", "serve.cache.misses"),
    );
    out.set(
        "serve.schedule_cache.hit_ratio",
        ratio("serve.schedule_cache.hits", "serve.schedule_cache.misses"),
    );
    out.set(
        "serve.store.hit_ratio",
        ratio("serve.store.hits", "serve.store.misses"),
    );
    let tiers = [
        ("serve.share.hit", "serve.cache.hits"),
        ("serve.share.replay", "serve.schedule_cache.hits"),
        ("serve.share.store_load", "serve.store.hits"),
        ("serve.share.capture", "serve.store.misses"),
    ];
    let answered: f64 = tiers.iter().map(|(_, c)| delta(c)).sum();
    for (metric, counter) in tiers {
        out.set(metric, delta(counter) / answered.max(1.0));
    }

    // Verify every reply and classify it by the tier that answered.
    let mut latency = Vec::new();
    let mut late = Vec::new();
    let mut by_class: HashMap<Class, Vec<(usize, f64)>> = HashMap::new();
    let (mut updates, mut cycles, mut dram_bytes) = (0u64, 0u64, 0u64);
    let mut last = start;
    for (i, (req, reply)) in plan.requests.iter().zip(&replies).enumerate() {
        out.attempted += 1;
        let Some(reply) = reply else {
            out.fail(format!("request {i} got no reply"));
            continue;
        };
        let due = start + Duration::from_secs_f64(req.due_s);
        late.push(ms(reply.sent.saturating_duration_since(due)));
        match verifier.check(req.problem, req.seed, &reply.line) {
            Err(e) => out.fail(format!("request {i}: {e}")),
            Ok(served) => {
                let took = ms(reply.received.saturating_duration_since(due));
                latency.push(took);
                last = last.max(reply.received);
                let class = if served.cached {
                    Class::Hit
                } else if !served.replayed {
                    Class::Capture
                } else if req.intent == Class::StoreLoad {
                    Class::StoreLoad
                } else {
                    Class::Replay
                };
                by_class.entry(class).or_default().push((i, took));
                updates += plan.problems[req.problem].updates();
                cycles += served.cycles;
                dram_bytes += served.dram_bytes;
            }
        }
    }
    let elapsed = last.duration_since(start).as_secs_f64().max(1e-9);
    out.set(
        "cpu_ns_per_cell_update",
        server_cpu.as_secs_f64() * 1e9 / updates.max(1) as f64,
    );
    out.set("latency_p50_ms", median(&latency));
    out.set("latency_p99_ms", quantile(&latency, 0.99));
    out.set("cell_updates_per_s", updates as f64 / elapsed);
    out.set("sim_cycles_per_s", cycles as f64 / elapsed);
    out.set(
        "model_cycles_per_cell",
        cycles as f64 / updates.max(1) as f64,
    );
    out.set(
        "model_dram_bytes_per_cell",
        dram_bytes as f64 / updates.max(1) as f64,
    );
    out.set("serve.generator_late_ms", median(&late));
    out.set("peak_rss_mb", peak_rss_mb());
    setup_times.time(SETUP_REPS, |rep| {
        set_up(&work, rep, &plan, args.seed).server.shutdown();
    });
    out.set("setup_s", setup_times.median());

    if args.trace {
        stages(&plan, &by_class, &live.store, &work, out);
        // Probe five plain specs and one pipelined spec the run touched.
        let mut rng = Rng::new(args.seed, "serve/probe");
        let mut touched: Vec<usize> = plan.requests.iter().map(|r| r.problem).collect();
        touched.sort_unstable();
        touched.dedup();
        rng.shuffle(&mut touched);
        let (piped, plain): (Vec<&Problem>, Vec<&Problem>) = touched
            .iter()
            .map(|&i| &plan.problems[i])
            .partition(|p| p.spec.pipelined());
        let sample: Vec<Problem> = plain
            .into_iter()
            .take(5)
            .chain(piped.into_iter().take(1))
            .cloned()
            .collect();
        let request_lines: Vec<String> = plan.requests.iter().map(|r| r.line.clone()).collect();
        probe(
            &sample,
            &request_lines,
            args.seed,
            work.path(),
            stream_gbps,
            out,
        );
    }
}

/// Per-class stage timings, re-measured by calling each stage's public
/// function on the same requests after the run: framing/parse
/// (`Request::parse_line`), keys (`cache_key` + `schedule_key`), and
/// execution plus serialisation by class — nothing for a result-cache
/// hit, `execute_replay` for a schedule-cache replay, `ScheduleStore::load`
/// then `execute_replay` for a store load, `execute_capture` then
/// `ScheduleStore::save` for a capture. What the class's end-to-end
/// median leaves over is queue wait plus reactor and socket time.
fn stages(
    plan: &Plan,
    by_class: &HashMap<Class, Vec<(usize, f64)>>,
    served_store: &Path,
    work: &WorkDir,
    out: &mut Outcome,
) {
    let mut store = ScheduleStore::open(served_store, 0).expect("reopen the served store");
    let mut scratch = ScheduleStore::open(work.sub("stage-store"), 0).expect("scratch store");
    let mut schedules: HashMap<(u64, u64), Arc<ControlSchedule>> = HashMap::new();
    for class in CLASSES {
        let reqs = by_class.get(&class).map_or(&[][..], Vec::as_slice);
        let (mut parse, mut keys, mut exec) = (Vec::new(), Vec::new(), Vec::new());
        for &(i, _) in reqs {
            let line = &plan.requests[i].line;
            let (parsed, took) = timed(|| Request::parse_line(line));
            parse.push(ms(took));
            let Ok(Request {
                body: RequestBody::Run(request),
                ..
            }) = parsed
            else {
                out.fail(format!("request {i} does not parse as a run"));
                continue;
            };
            let request: RunRequest = *request;
            let ((_, key), took) = timed(|| (request.cache_key(), request.schedule_key()));
            keys.push(ms(took));
            let key = key.expect("simulate requests have a schedule key");
            let took = match class {
                Class::Hit => Duration::ZERO,
                Class::Replay => {
                    let schedule = Arc::clone(schedules.entry(key).or_insert_with(|| {
                        match store.load(key) {
                            Ok(Some(s)) => s,
                            _ => request
                                .execute_capture()
                                .ok()
                                .and_then(|(_, s)| s)
                                .expect("capture"),
                        }
                    }));
                    timed(|| request.execute_replay(&schedule).map(|j| j.compact())).1
                }
                Class::StoreLoad => {
                    timed(|| {
                        let schedule = store.load(key).ok().flatten().expect("persisted entry");
                        request.execute_replay(&schedule).map(|j| j.compact())
                    })
                    .1
                }
                Class::Capture => {
                    timed(|| {
                        let (doc, schedule) = request.execute_capture().expect("capture");
                        if let Some(s) = schedule {
                            let _ = scratch.save(key, &s);
                        }
                        doc.compact()
                    })
                    .1
                }
            };
            exec.push(ms(took));
        }
        let e2e: Vec<f64> = reqs.iter().map(|&(_, l)| l).collect();
        let stage_sum = median(&parse) + median(&keys) + median(&exec);
        let [e2e_key, stages_key, rest_key] = class.metric_names();
        out.set(e2e_key, median(&e2e));
        out.set(stages_key, stage_sum);
        out.set(rest_key, median(&e2e) - stage_sum);
    }
}
