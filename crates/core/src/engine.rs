//! The one execution engine: the schedule key and the resolution ladder
//! that the CLI, [`SmacheSystem::run_batch`] and `smache serve` share, so
//! a schedule one surface captured is found by every other.
//!
//! * **The key** ([`Job::key`]):
//!   `sched-v1;spec=<ProblemSpec::canonical>;instances=N`, then
//!   `;chaos=<profile>:<seed>` for an active latency-only fault plan,
//!   then region deduplication, a non-default kernel, [`SystemConfig`]
//!   or pipeline knobs only when they differ from the default. Derived
//!   from a spec without planning, or from a [`BufferPlan`]; never from
//!   the data seed.
//! * **The ladder** ([`Engine::run`]): schedule cache → store → capture →
//!   replay, falling back to the full simulation on a typed refusal under
//!   one [`ReplayMode`] policy. A damaged store entry is evicted and
//!   recaptured. A capture happens only when the schedule has somewhere
//!   to live (a cache budget or a store).

use std::borrow::BorrowMut;
use std::sync::{Arc, Mutex, MutexGuard};

use smache_mem::{FaultPlan, Word};
use smache_sim::hash::fingerprint128;
use smache_sim::{ReplayUnsupported, ScheduleCache, TelemetryConfig};

use crate::arch::kernel::{AverageKernel, Kernel};
use crate::config::BufferPlan;
use crate::error::CoreError;
use crate::pipeline::{PipelineConfig, TemporalPipeline};
use crate::spec::ProblemSpec;
use crate::system::{
    ControlSchedule, ReplayMode, RunReport, ScheduleStore, SmacheSystem, SystemConfig,
};
use crate::CoreResult;

/// Revision of the schedule-key text (the `v1` in `sched-v1`).
const KEY_VERSION: u32 = 1;

/// Builds a kernel. Batch lanes share an
/// [`KernelFactory`](crate::system::KernelFactory); spec jobs use
/// [`average`].
pub type KernelFn = dyn Fn() -> Box<dyn Kernel> + Send + Sync;

/// The paper's averaging kernel, the default of every surface.
pub fn average() -> Box<dyn Kernel> {
    Box::new(AverageKernel)
}

/// What a [`Job`] simulates: a spec, planned only when the job has to
/// simulate (a pipelined spec runs the [`TemporalPipeline`]), or a ready
/// plan for the single-step [`SmacheSystem`].
#[derive(Clone, Copy)]
enum Source<'a> {
    Spec(&'a ProblemSpec),
    Plan(&'a BufferPlan),
}

/// One run the engine can key, capture, replay or simulate.
#[derive(Clone, Copy)]
pub struct Job<'a> {
    source: Source<'a>,
    kernel: &'a KernelFn,
    config: SystemConfig,
    instances: u64,
    telemetry: bool,
}

/// The machine a job builds.
enum Machine {
    Single(Box<SmacheSystem>, u64),
    Pipeline(Box<TemporalPipeline>, u64),
}

impl Machine {
    fn run(&mut self, input: &[Word]) -> CoreResult<RunReport> {
        match self {
            Machine::Single(system, instances) => system.run(input, *instances),
            Machine::Pipeline(pipe, passes) => pipe.run(input, *passes),
        }
    }

    fn run_captured(&mut self, input: &[Word]) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        match self {
            Machine::Single(system, instances) => system.run_captured(input, *instances),
            Machine::Pipeline(pipe, passes) => pipe.run_captured(input, *passes),
        }
    }
}

impl<'a> Job<'a> {
    /// A job for `spec` with the default kernel and system configuration.
    pub fn spec(spec: &'a ProblemSpec, instances: u64) -> Job<'a> {
        Job {
            source: Source::Spec(spec),
            kernel: &average,
            config: SystemConfig::default(),
            instances,
            telemetry: false,
        }
    }

    /// A job for a ready plan (a batch lane).
    pub fn plan(
        plan: &'a BufferPlan,
        kernel: &'a KernelFn,
        config: SystemConfig,
        instances: u64,
    ) -> Job<'a> {
        Job {
            source: Source::Plan(plan),
            kernel,
            config,
            instances,
            telemetry: false,
        }
    }

    /// Arms a fault-injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = plan;
        self
    }

    /// Attaches telemetry, which rules replay out.
    pub fn telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// The pipeline a pipelined spec runs on; `None` for the single-step
    /// system.
    fn pipeline(&self) -> Option<PipelineConfig> {
        match self.source {
            Source::Spec(spec) if spec.pipelined() => Some(PipelineConfig {
                depth: spec.timesteps as usize,
                channels: spec.channels,
                system: self.config,
                ..PipelineConfig::default()
            }),
            _ => None,
        }
    }

    /// The job's schedule key, or why it has no replayable schedule:
    /// telemetry, or an active fault plan that corrupts data. Cheap for a
    /// spec job: no planning, one canonical text and one fingerprint.
    pub fn key(&self) -> Result<(u64, u64), ReplayUnsupported> {
        if self.telemetry {
            return Err(ReplayUnsupported::Telemetry);
        }
        let faults = &self.config.fault_plan;
        if faults.is_active() && !faults.is_replayable() {
            return Err(ReplayUnsupported::FaultPlan);
        }
        let kernel = (self.kernel)();
        Ok(match self.source {
            Source::Spec(spec) => key(
                spec,
                self.instances,
                &self.config,
                kernel.as_ref(),
                false,
                self.pipeline().as_ref(),
            ),
            Source::Plan(plan) => {
                plan_key(plan, &self.config, kernel.as_ref(), self.instances, None)
            }
        })
    }

    fn build(&self) -> CoreResult<Machine> {
        let plan = match self.source {
            Source::Spec(spec) => spec.builder().plan()?,
            Source::Plan(plan) => plan.clone(),
        };
        let telemetry = self.telemetry.then(TelemetryConfig::default);
        match self.pipeline() {
            Some(config) => {
                let depth = config.depth as u64;
                if !self.instances.is_multiple_of(depth) {
                    return Err(CoreError::Config(format!(
                        "instances ({}) must be a multiple of the pipeline depth ({depth})",
                        self.instances
                    )));
                }
                let mut pipe = TemporalPipeline::new(plan, (self.kernel)(), config)?;
                if let Some(t) = telemetry {
                    pipe.attach_telemetry(t);
                }
                Ok(Machine::Pipeline(Box::new(pipe), self.instances / depth))
            }
            None => {
                let mut system = SmacheSystem::new(plan, (self.kernel)(), self.config)?;
                if let Some(t) = telemetry {
                    system.attach_telemetry(t);
                }
                Ok(Machine::Single(Box::new(system), self.instances))
            }
        }
    }

    /// Runs the full cycle-accurate simulation over `input`.
    pub fn full(&self, input: &[Word]) -> CoreResult<RunReport> {
        self.build()?.run(input)
    }

    /// Runs the full simulation with the control recorder attached: the
    /// run's own report (`engine: full_sim`) plus its schedule, keyed
    /// [`Job::key`].
    pub fn capture(&self, input: &[Word]) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        self.build()?.run_captured(input)
    }

    /// Replays `schedule` over `input` with this job's kernel.
    pub fn replay(
        &self,
        schedule: &ControlSchedule,
        input: &[Word],
    ) -> Result<RunReport, ReplayUnsupported> {
        schedule.replay((self.kernel)().as_ref(), input)
    }
}

/// The key of a schedule captured from `plan`: on a [`TemporalPipeline`]
/// with `pipeline` (`instances` = depth × passes), else on a
/// single-step [`SmacheSystem`].
pub(crate) fn plan_key(
    plan: &BufferPlan,
    config: &SystemConfig,
    kernel: &dyn Kernel,
    instances: u64,
    pipeline: Option<&PipelineConfig>,
) -> (u64, u64) {
    let mut spec = ProblemSpec::of_plan(plan);
    if let Some(p) = pipeline {
        (spec.timesteps, spec.channels) = (p.depth as u64, p.channels);
    }
    let dedupe = plan.statics_are_regions;
    key(&spec, instances, config, kernel, dedupe, pipeline)
}

/// The one place a schedule key is written. Every part that shapes the
/// control plane is present; the data seed is not.
fn key(
    spec: &ProblemSpec,
    instances: u64,
    config: &SystemConfig,
    kernel: &dyn Kernel,
    dedupe: bool,
    pipeline: Option<&PipelineConfig>,
) -> (u64, u64) {
    let mut text = format!(
        "sched-v{KEY_VERSION};spec={};instances={instances}",
        spec.canonical()
    );
    // Chaos draws are a pure function of (chaos seed, cycle), so an active
    // latency-only plan shapes the control plane like any spec parameter.
    // An inactive plan (any seed) leaves it untouched and adds nothing.
    let faults = &config.fault_plan;
    if faults.is_active() {
        let profile = faults
            .profile
            .name()
            .unwrap_or_else(|| format!("{:?}", faults.profile));
        text.push_str(&format!(";chaos={profile}:{}", faults.seed));
    }
    if dedupe {
        text.push_str(";dedupe");
    }
    let default_kernel = AverageKernel;
    if kernel.name() != default_kernel.name() || kernel.latency() != default_kernel.latency() {
        text.push_str(&format!(";kernel={}:{}", kernel.name(), kernel.latency()));
    }
    let system = SystemConfig {
        fault_plan: FaultPlan::default(),
        ..*config
    };
    if system != SystemConfig::default() {
        text.push_str(&format!(";system={system:?}"));
    }
    // The spec carries depth and channels. A one-stage, one-channel
    // pipeline is still not the single-step system, so it always says so.
    if let Some(p) = pipeline {
        if !spec.pipelined() || (p.interleave_words, p.cmd_gap) != (1, 1) {
            text.push_str(&format!(";pipeline={}:{}", p.interleave_words, p.cmd_gap));
        }
    }
    fingerprint128(text.as_bytes())
}

/// The tier that produced a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// Replayed a schedule from the in-memory cache.
    ScheduleCache,
    /// Replayed a schedule loaded from the persistent store.
    Store,
    /// Captured a schedule; the report is the capture's own full run.
    Capture,
    /// Ran the full simulation without a schedule.
    #[default]
    FullSim,
}

/// Why the engine ran the full simulation instead of replaying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fallback {
    /// The caller asked for [`ReplayMode::Off`].
    Off,
    /// Neither a schedule cache nor a store: a capture would be thrown
    /// away.
    Nowhere,
    /// The run is not replay-eligible, or a capture or replay refused.
    Refused(ReplayUnsupported),
}

/// What one tier lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lookup {
    /// The tier was not consulted.
    #[default]
    Skipped,
    /// Found a schedule.
    Hit,
    /// Found nothing.
    Miss,
    /// Found a damaged entry, which was evicted.
    Damaged,
}

/// How the engine answered one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance {
    /// The tier that produced the report.
    pub tier: Tier,
    /// Why the run fell back to the full simulation (`tier` is
    /// [`Tier::FullSim`]).
    pub fallback: Option<Fallback>,
    /// What the in-memory schedule cache lookup found.
    pub cache: Lookup,
    /// What the store lookup found.
    pub store: Lookup,
    /// A fresh capture was written to the store.
    pub stored: bool,
}

/// The schedule tiers: a byte-budgeted in-memory cache and an optional
/// persistent store, each behind its own lock so concurrent runs hold
/// neither while they simulate. `S` is the store handle: owned, or
/// `&mut ScheduleStore` for a caller that lends one.
pub struct Engine<S = ScheduleStore> {
    cache: Mutex<ScheduleCache<ControlSchedule>>,
    store: Option<Mutex<S>>,
}

impl<S: BorrowMut<ScheduleStore>> Engine<S> {
    /// An engine with a `cache_bytes` schedule cache (`0` disables it) and
    /// an optional store.
    pub fn new(cache_bytes: usize, store: Option<S>) -> Self {
        Engine {
            cache: Mutex::new(ScheduleCache::new(cache_bytes)),
            store: store.map(Mutex::new),
        }
    }

    /// The in-memory schedule cache.
    pub fn cache(&self) -> MutexGuard<'_, ScheduleCache<ControlSchedule>> {
        self.cache.lock().expect("schedule cache poisoned")
    }

    /// The persistent store, if the engine has one.
    pub fn store(&self) -> Option<MutexGuard<'_, S>> {
        self.store
            .as_ref()
            .map(|s| s.lock().expect("schedule store poisoned"))
    }

    /// True when the schedule under `key` sits in the cache or the store.
    /// A pure probe: no recency refresh, no lookup counted.
    pub fn resident(&self, key: (u64, u64)) -> bool {
        let cached = self.cache().contains(key);
        cached || self.with_store(|s| s.contains(key)).unwrap_or(false)
    }

    /// Runs `f` on the store under its lock; `None` without a store.
    fn with_store<R>(&self, f: impl FnOnce(&mut ScheduleStore) -> R) -> Option<R> {
        let mut guard = self.store()?;
        Some(f(<S as BorrowMut<ScheduleStore>>::borrow_mut(&mut guard)))
    }

    /// Runs `job` over `input` through the ladder: replay a cached or
    /// stored schedule, else capture one, else run the full simulation.
    ///
    /// [`ReplayMode::Off`] runs the full simulation. [`ReplayMode::Auto`]
    /// falls back to it on any typed refusal. [`ReplayMode::On`] surfaces
    /// a refusal as [`CoreError::ReplayRefused`] instead.
    pub fn run(
        &self,
        job: &Job<'_>,
        input: &[Word],
        mode: ReplayMode,
    ) -> CoreResult<(RunReport, Provenance)> {
        let mut prov = Provenance::default();
        let fallback = 'ladder: {
            if mode == ReplayMode::Off {
                break 'ladder Fallback::Off;
            }
            let key = match job.key() {
                Ok(key) => key,
                Err(reason) => break 'ladder Fallback::Refused(reason),
            };
            if self.cache().budget() == 0 && self.store.is_none() {
                break 'ladder Fallback::Nowhere;
            }
            let (schedule, captured) = match self.schedule(job, key, input, &mut prov) {
                Ok(found) => found,
                Err(CoreError::ReplayRefused(reason)) => break 'ladder Fallback::Refused(reason),
                Err(e) => return Err(e),
            };
            if let Some(report) = captured {
                return Ok((report, prov));
            }
            match job.replay(&schedule, input) {
                Ok(report) => return Ok((report, prov)),
                Err(reason) => break 'ladder Fallback::Refused(reason),
            }
        };
        if let (ReplayMode::On, Fallback::Refused(reason)) = (mode, &fallback) {
            return Err(CoreError::ReplayRefused(reason.clone()));
        }
        prov.tier = Tier::FullSim;
        prov.fallback = Some(fallback);
        Ok((job.full(input)?, prov))
    }

    /// Finds the schedule under `key` (cache, then store) or captures it
    /// from `input`, keeping a capture in every tier. Returns the schedule
    /// and, when it was captured now, the capture's own report. A capture
    /// refusal is [`CoreError::ReplayRefused`]; whether to fall back is
    /// the caller's call.
    pub(crate) fn schedule(
        &self,
        job: &Job<'_>,
        key: (u64, u64),
        input: &[Word],
        prov: &mut Provenance,
    ) -> CoreResult<(Arc<ControlSchedule>, Option<RunReport>)> {
        let mut cache = self.cache();
        if cache.budget() > 0 {
            prov.cache = Lookup::Miss;
            if let Some(schedule) = cache.get(key) {
                (prov.cache, prov.tier) = (Lookup::Hit, Tier::ScheduleCache);
                return Ok((schedule, None));
            }
        }
        drop(cache);
        if let Some(loaded) = self.with_store(|s| s.load_or_evict(key)) {
            match loaded {
                Ok(Some(schedule)) => {
                    (prov.store, prov.tier) = (Lookup::Hit, Tier::Store);
                    self.remember(key, &schedule);
                    return Ok((schedule, None));
                }
                Ok(None) => prov.store = Lookup::Miss,
                Err(_) => prov.store = Lookup::Damaged,
            }
        }
        let (report, schedule) = job.capture(input)?;
        prov.tier = Tier::Capture;
        self.remember(key, &schedule);
        prov.stored = self
            .with_store(|s| s.save(key, &schedule).is_ok())
            .unwrap_or(false);
        Ok((schedule, Some(report)))
    }

    fn remember(&self, key: (u64, u64), schedule: &Arc<ControlSchedule>) {
        let mut cache = self.cache();
        if cache.budget() > 0 {
            cache.insert(key, Arc::clone(schedule), schedule.approx_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::MaxKernel;
    use crate::spec::seeded_input;
    use smache_mem::ChaosProfile;
    use std::collections::BTreeMap;

    fn spec(pairs: &[(&str, &str)]) -> ProblemSpec {
        let src: BTreeMap<String, String> = pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        ProblemSpec::from_source(&src).expect("spec")
    }

    fn max() -> Box<dyn Kernel> {
        Box::new(MaxKernel)
    }

    #[test]
    fn keys_are_seed_blind_and_fork_on_instances_kernel_and_chaos() {
        let s = spec(&[("grid", "11x11")]);
        let plan = s.builder().plan().expect("plan");
        let base = Job::spec(&s, 4).key().expect("key");
        // Keys never see data: two plans of one spec key alike, and a
        // plan-derived key equals the spec-derived one.
        let config = SystemConfig::default();
        assert_eq!(base, Job::plan(&plan, &average, config, 4).key().unwrap());
        assert_ne!(base, Job::spec(&s, 5).key().unwrap(), "instances fork");
        assert_ne!(
            base,
            Job::plan(&plan, &max, config, 4).key().unwrap(),
            "kernel forks"
        );
        // Inactive plans (any seed) key like no plan at all; an active
        // latency-only plan forks per chaos seed and per profile.
        let chaos = |seed, profile| {
            Job::spec(&s, 4)
                .fault_plan(FaultPlan::new(seed, profile))
                .key()
        };
        assert_eq!(chaos(99, ChaosProfile::none()), Ok(base));
        let storms = chaos(7, ChaosProfile::storms()).unwrap();
        assert_ne!(storms, base);
        assert_ne!(storms, chaos(8, ChaosProfile::storms()).unwrap());
        assert_ne!(storms, chaos(7, ChaosProfile::jitter()).unwrap());
        // Corrupting chaos and telemetry have no replayable schedule.
        assert_eq!(
            chaos(7, ChaosProfile::flip(3)),
            Err(ReplayUnsupported::FaultPlan)
        );
        assert_eq!(
            Job::spec(&s, 4).telemetry().key(),
            Err(ReplayUnsupported::Telemetry)
        );
    }

    #[test]
    fn keys_fork_on_pipeline_geometry() {
        let s = spec(&[("grid", "11x11")]);
        let plan = s.builder().plan().expect("plan");
        let kernel = AverageKernel;
        let geometry = |depth, channels, cmd_gap| PipelineConfig {
            depth,
            channels,
            cmd_gap,
            ..PipelineConfig::default()
        };
        let key = |depth, channels, cmd_gap, passes| {
            let geometry = geometry(depth, channels, cmd_gap);
            let instances = depth as u64 * passes;
            plan_key(&plan, &geometry.system, &kernel, instances, Some(&geometry))
        };
        let base = key(2, 1, 1, 3);
        assert_ne!(base, key(3, 1, 1, 2), "depth");
        assert_ne!(base, key(2, 4, 1, 3), "channels");
        assert_ne!(base, key(2, 1, 4, 3), "cmd_gap");
        // A one-stage, one-channel pipeline is not the single-step system.
        let single = plan_key(&plan, &SystemConfig::default(), &kernel, 6, None);
        assert_ne!(key(1, 1, 1, 6), single);
        // The spec route and the pipeline's own capture agree.
        let piped = spec(&[("grid", "11x11"), ("timesteps", "2")]);
        assert_eq!(Job::spec(&piped, 6).key(), Ok(base));
    }

    #[test]
    fn captures_only_when_the_schedule_has_a_home() {
        let s = spec(&[("grid", "8x8")]);
        let job = Job::spec(&s, 2);
        let input = seeded_input(64, 1);
        let homeless: Engine = Engine::new(0, None);
        let (report, prov) = homeless.run(&job, &input, ReplayMode::Auto).unwrap();
        assert_eq!(prov.fallback, Some(Fallback::Nowhere));
        assert_eq!(report.engine, crate::system::RunEngine::FullSim);

        let engine: Engine = Engine::new(1 << 20, None);
        let (first, prov) = engine.run(&job, &input, ReplayMode::Auto).unwrap();
        assert_eq!((prov.tier, prov.cache), (Tier::Capture, Lookup::Miss));
        assert_eq!(first.engine, crate::system::RunEngine::FullSim);
        let (second, prov) = engine.run(&job, &input, ReplayMode::Auto).unwrap();
        assert_eq!((prov.tier, prov.cache), (Tier::ScheduleCache, Lookup::Hit));
        assert_eq!(second.output, first.output);
        assert_eq!(second.stats, first.stats);
        assert_eq!(second.engine, crate::system::RunEngine::Replay);

        let (_, prov) = engine.run(&job, &input, ReplayMode::Off).unwrap();
        assert_eq!(prov.fallback, Some(Fallback::Off));
    }

    #[test]
    fn forced_replay_surfaces_refusals_and_auto_falls_back() {
        let s = spec(&[("grid", "8x8")]);
        let flip = Job::spec(&s, 1).fault_plan(FaultPlan::new(3, ChaosProfile::flip(40)));
        let input = seeded_input(64, 1);
        let engine: Engine = Engine::new(1 << 20, None);
        assert!(matches!(
            engine.run(&flip, &input, ReplayMode::On),
            Err(CoreError::ReplayRefused(ReplayUnsupported::FaultPlan))
        ));
        let traced = Job::spec(&s, 1).telemetry();
        let (report, prov) = engine.run(&traced, &input, ReplayMode::Auto).unwrap();
        assert_eq!(
            prov.fallback,
            Some(Fallback::Refused(ReplayUnsupported::Telemetry))
        );
        assert!(report.telemetry.is_some());
    }
}
