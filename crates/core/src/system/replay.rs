//! Schedule replay: capture the control plane once, stream data through it.
//!
//! The paper's central observation is that a stencil's memory-access
//! pattern is a *static* function of the spec — offsets, reaches and
//! boundary ranges are known before the first datum arrives. The same is
//! true of the simulator: for a fixed (plan, system config, kernel,
//! instance count), every FSM transition, buffer address, DRAM issue cycle
//! and stall decision of [`SmacheSystem`] is independent of the data words
//! flowing through the datapath. So the control plane can be **recorded
//! once and replayed**:
//!
//! 1. **Capture** ([`SmacheSystem::run_captured`]): one full cycle-accurate
//!    run with the per-cycle control recorder attached, yielding a
//!    [`ControlSchedule`] — the packed [`ControlTrace`], the per-element
//!    [`GatherTable`], and the run's data-independent report template.
//! 2. **Replay** ([`ControlSchedule::replay_lanes`], one lane for
//!    [`ControlSchedule::replay`]): for each work-instance, one
//!    [`Kernel::apply_rows`] call applies the kernel to every element's
//!    gathered slots — indexed grid reads resolved at capture time, no
//!    delta settling, no module dispatch. Outputs and cycle counts are
//!    **bit-exact** versus the full simulation; capture verifies this on
//!    its own input before handing the schedule out
//!    ([`ReplayUnsupported::ScheduleDivergence`] otherwise — replay never
//!    silently diverges).
//!
//! Why one gather table serves every instance: each instance's input is the
//! previous instance's output, and *all* architectural reads resolve to
//! current-instance grid indices — a stream tap at offset `o` reads grid
//! index `e + o` of the streamed (current) region, and a static-bank slot
//! holds the previous instance's captured output (or, without double
//! buffering, the re-prefetched previous output region), which is exactly
//! the current input at the same index.
//!
//! Replay **refuses** with a typed [`ReplayUnsupported`] whenever the
//! control plane stops being data-independent: corrupting fault plans,
//! stall schedules, external backpressure, or attached observers (tracer,
//! telemetry, result tap). Callers in `auto` mode fall back to the full
//! simulation; `on` mode surfaces [`CoreError::ReplayRefused`].
//! **Latency-only** fault plans are the deliberate exception: their chaos
//! draws are a pure function of (chaos-seed, cycle), so a schedule
//! captured under one — keyed on (spec, chaos-seed) — replays across data
//! seeds like any clean schedule.
//!
//! Schedules are keyed by the data-seed-independent key of
//! [`crate::engine`], whose ladder (schedule cache → store → capture →
//! replay) every surface shares:
//! [`SmacheSystem::run_batch`](crate::system::SmacheSystem::run_batch)
//! captures once per distinct key and replays the other lanes — grouped
//! into structure-of-arrays lane blocks driven by
//! [`ControlSchedule::replay_lanes`] — and `smache serve` keeps a
//! second-level schedule cache behind its result cache. See
//! `docs/PERFORMANCE.md` §6 for measured speedups.

use std::sync::Arc;

use smache_mem::Word;
use smache_sim::{ControlTrace, GatherTable, ReplayUnsupported, SlotSource};

use crate::arch::kernel::Kernel;
use crate::config::{BufferPlan, SourceSlot, SourceTable};
use crate::engine::plan_key;
use crate::error::CoreError;
use crate::system::report::{RunEngine, RunReport};
use crate::system::smache_system::SmacheSystem;
use crate::CoreResult;

/// How a front end chooses between full simulation and schedule replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplayMode {
    /// Replay when eligible, fall back to full simulation on any typed
    /// refusal. The default.
    #[default]
    Auto,
    /// Replay or fail: a refusal surfaces as [`CoreError::ReplayRefused`].
    On,
    /// Always run the full simulation.
    Off,
}

impl ReplayMode {
    /// Stable flag/label text (`auto` / `on` / `off`).
    pub fn label(&self) -> &'static str {
        match self {
            ReplayMode::Auto => "auto",
            ReplayMode::On => "on",
            ReplayMode::Off => "off",
        }
    }

    /// Parses a label written by [`ReplayMode::label`].
    pub fn from_label(s: &str) -> Option<ReplayMode> {
        match s {
            "auto" => Some(ReplayMode::Auto),
            "on" => Some(ReplayMode::On),
            "off" => Some(ReplayMode::Off),
            _ => None,
        }
    }
}

/// A captured control schedule: everything needed to reproduce a run of
/// the captured spec over fresh data without re-simulating.
#[derive(Debug, Clone)]
pub struct ControlSchedule {
    // Crate-visible so the store decoder, which checksums and
    // cross-validates every field first, can reassemble a schedule.
    pub(crate) key: (u64, u64),
    pub(crate) n: usize,
    pub(crate) instances: u64,
    pub(crate) kernel_name: String,
    pub(crate) kernel_latency: u64,
    pub(crate) gather: GatherTable,
    pub(crate) trace: ControlTrace,
    /// The capture run's report with the output cleared: every remaining
    /// field (cycles, DRAM traffic, resources, warm-up, stats) is
    /// data-independent, so replay clones it and fills in fresh outputs.
    pub(crate) template: RunReport,
}

impl ControlSchedule {
    /// The schedule's content-address: the [`crate::engine`] key of the
    /// captured run.
    pub fn key(&self) -> (u64, u64) {
        self.key
    }

    /// Grid elements per instance.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for a degenerate zero-element schedule (never produced by a
    /// valid plan).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Work-instances the schedule was captured for.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// Name of the kernel the schedule was captured with.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Pipeline latency of the kernel the schedule was captured with.
    pub fn kernel_latency(&self) -> u64 {
        self.kernel_latency
    }

    /// The data-independent report template replay clones and fills in.
    /// Its `output` is always empty — outputs come from the replayed data.
    pub fn template(&self) -> &RunReport {
        &self.template
    }

    /// Seals a capture run into a schedule, after checking it: the
    /// recorded trace totals must reproduce the run's cycle accounting,
    /// and replaying the capture input must reproduce the run's output
    /// bit-exactly. A mismatch surfaces as
    /// [`ReplayUnsupported::ScheduleDivergence`] — a loud, typed failure
    /// instead of a silently wrong schedule.
    pub(crate) fn seal(
        key: (u64, u64),
        kernel: &dyn Kernel,
        instances: u64,
        gather: GatherTable,
        mut trace: ControlTrace,
        report: RunReport,
        input: &[Word],
    ) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        trace.shrink_to_fit();
        let totals = trace.totals();
        let diverged = |detail: String| {
            CoreError::ReplayRefused(ReplayUnsupported::ScheduleDivergence { detail })
        };
        if totals.cycles != report.stats.cycles
            || totals.stall_cycles != report.stats.stall_cycles
            || totals.transfers != report.stats.transfers
            || totals.warmup_cycles != report.warmup_cycles
        {
            return Err(diverged(format!(
                "trace totals {totals:?} disagree with run stats {:?} (warmup {})",
                report.stats, report.warmup_cycles
            )));
        }
        let schedule = ControlSchedule {
            key,
            n: gather.len(),
            instances,
            kernel_name: kernel.name().to_string(),
            kernel_latency: kernel.latency(),
            gather,
            trace,
            template: RunReport {
                output: Vec::new(),
                ..report.clone()
            },
        };
        let replayed = schedule
            .replay(kernel, input)
            .map_err(|e| diverged(format!("self-replay refused: {e}")))?;
        if replayed.output != report.output {
            let idx = replayed
                .output
                .iter()
                .zip(&report.output)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(diverged(format!(
                "self-replay output mismatch at element {idx}"
            )));
        }
        Ok((report, Arc::new(schedule)))
    }

    /// The recorded per-cycle control-plane trace.
    pub fn trace(&self) -> &ControlTrace {
        &self.trace
    }

    /// The per-element gather table.
    pub fn gather(&self) -> &GatherTable {
        &self.gather
    }

    /// Heap bytes the schedule holds, for cache budgeting: the capacity of
    /// every vector in the gather table and trace, the kernel name, and an
    /// allowance for the report template.
    pub fn approx_bytes(&self) -> usize {
        self.gather.approx_bytes()
            + self.trace.approx_bytes()
            + self.kernel_name.capacity()
            + self.template.fault_events.capacity() * 32
            + 512
    }

    /// Replays the schedule over `input`: advances the datapath directly
    /// from the recorded control plane and returns a report bit-exact with
    /// the full simulation of the same input (verified at capture time).
    /// This is the one-lane case of [`ControlSchedule::replay_lanes`].
    ///
    /// Refuses with a typed reason when the request does not match the
    /// captured spec (kernel, grid size, instance count).
    pub fn replay(
        &self,
        kernel: &dyn Kernel,
        input: &[Word],
    ) -> Result<RunReport, ReplayUnsupported> {
        let mut reports = self.replay_lanes(kernel, &[input])?;
        Ok(reports.pop().expect("one lane in, one report out"))
    }

    /// Data-parallel replay: one schedule walk drives **all** lanes of a
    /// sweep at once.
    ///
    /// The grids are interleaved into a structure-of-arrays block — the
    /// word for (element `e`, lane `l`) lives at `e * lanes + l` — and each
    /// instance is one [`Kernel::apply_rows`] call over the compact gather
    /// rows: each row is read once and applied across every lane, and the
    /// grid reads of one slot land on consecutive words of the block. Per
    /// lane the result is bit-exact with the full simulation of that
    /// lane's input.
    ///
    /// Refuses with a typed reason when the kernel or any lane's input
    /// length does not match the captured spec. An empty `inputs` returns
    /// an empty report list.
    pub fn replay_lanes(
        &self,
        kernel: &dyn Kernel,
        inputs: &[&[Word]],
    ) -> Result<Vec<RunReport>, ReplayUnsupported> {
        if kernel.name() != self.kernel_name || kernel.latency() != self.kernel_latency {
            return Err(ReplayUnsupported::KernelMismatch {
                expected: format!("{} (latency {})", self.kernel_name, self.kernel_latency),
                actual: format!("{} (latency {})", kernel.name(), kernel.latency()),
            });
        }
        for input in inputs {
            if input.len() != self.n {
                return Err(ReplayUnsupported::InputLength {
                    expected: self.n,
                    actual: input.len(),
                });
            }
        }
        let lanes = inputs.len();
        if lanes == 0 {
            return Ok(Vec::new());
        }
        // Interleave: lane l's element e goes to cur[e * lanes + l].
        let mut cur = vec![0u64; self.n * lanes];
        for (l, input) in inputs.iter().enumerate() {
            for (e, &w) in input.iter().enumerate() {
                cur[e * lanes + l] = w;
            }
        }
        let mut next = vec![0u64; self.n * lanes];
        for _ in 0..self.instances {
            kernel.apply_rows(&self.gather, lanes, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        let reports = (0..lanes)
            .map(|l| {
                let mut report = self.template.clone();
                report.output = cur.iter().skip(l).step_by(lanes).copied().collect();
                report.engine = RunEngine::Replay;
                report
            })
            .collect();
        Ok(reports)
    }
}

/// Derives the per-element gather table from a module's resolved source
/// table. Every architectural source resolves to a current-instance grid
/// index: a stream tap at window position `p` serves offset
/// `lookahead + 1 − p`, i.e. grid index `e + o`; a static-bank slot holds
/// grid index `region_start + slot` of the current input (the previous
/// instance's captured output).
pub(crate) fn build_gather_table(
    plan: &BufferPlan,
    sources: &SourceTable,
) -> CoreResult<GatherTable> {
    let n = plan.grid.len();
    GatherTable::build(sources.width(), n, |e, slots| {
        for src in sources.row(e) {
            let slot = match *src {
                SourceSlot::Hole => SlotSource::Hole,
                SourceSlot::Const(i) => SlotSource::Const(sources.consts()[i as usize]),
                SourceSlot::Tap(pos) => {
                    let offset = plan.lookahead as i64 + 1 - pos as i64;
                    let g = e as i64 + offset;
                    if g < 0 || g >= n as i64 {
                        return Err(CoreError::Config(format!(
                            "gather: tap offset {offset} of element {e} escapes the grid"
                        )));
                    }
                    SlotSource::Grid(g as u32)
                }
                SourceSlot::Static { bank, slot, .. } => {
                    let b = plan.static_buffers.get(bank as usize).ok_or_else(|| {
                        CoreError::Config(format!("gather: unknown static buffer {bank}"))
                    })?;
                    let g = b.region_start + slot as usize;
                    if g >= n {
                        return Err(CoreError::Config(format!(
                            "gather: static slot {slot} of buffer {bank} escapes the grid"
                        )));
                    }
                    SlotSource::Grid(g as u32)
                }
            };
            slots.push(slot);
        }
        Ok(sources.mask(e))
    })
}

impl SmacheSystem {
    /// Runs the full cycle-accurate simulation *once* with the control
    /// recorder attached and returns both the run's report and the
    /// captured [`ControlSchedule`].
    ///
    /// Before handing the schedule out, capture **self-verifies**: the
    /// recorded trace totals must reproduce the run's cycle accounting,
    /// and replaying the capture input must reproduce the run's output
    /// bit-exactly. Any mismatch surfaces as
    /// [`CoreError::ReplayRefused`]`(`[`ReplayUnsupported::ScheduleDivergence`]`)`
    /// — a loud, typed failure instead of a silently wrong schedule.
    ///
    /// Refuses (typed) when the system is not replay-eligible — see
    /// [`SmacheSystem::replay_eligibility`].
    pub fn run_captured(
        &mut self,
        input: &[Word],
        instances: u64,
    ) -> CoreResult<(RunReport, Arc<ControlSchedule>)> {
        self.replay_eligibility()
            .map_err(CoreError::ReplayRefused)?;
        let gather = build_gather_table(self.plan(), self.module_sources())?;
        let key = plan_key(self.plan(), self.config(), self.kernel(), instances, None);

        self.begin_capture();
        let outcome = self.run(input, instances);
        let trace = self.take_capture().unwrap_or_default();
        ControlSchedule::seal(
            key,
            self.kernel(),
            instances,
            gather,
            trace,
            outcome?,
            input,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::{AverageKernel, MaxKernel};
    use crate::builder::SmacheBuilder;
    use smache_stencil::GridSpec;

    fn paper_system() -> SmacheSystem {
        SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .build()
            .expect("build")
    }

    fn ramp(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 3 + 1).collect()
    }

    #[test]
    fn capture_report_matches_plain_run() {
        let input = ramp(121);
        let mut a = paper_system();
        let plain = a.run(&input, 3).expect("run");
        let mut b = paper_system();
        let (captured, schedule) = b.run_captured(&input, 3).expect("capture");
        assert_eq!(captured.output, plain.output);
        assert_eq!(captured.stats, plain.stats);
        assert_eq!(captured.engine, RunEngine::FullSim);
        assert_eq!(schedule.trace().len() as u64, plain.stats.cycles);
        assert_eq!(schedule.instances(), 3);
    }

    #[test]
    fn replay_is_bit_exact_for_fresh_inputs() {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&ramp(121), 2).expect("capture");
        // A different input through the same schedule vs a fresh full run.
        let other: Vec<u64> = (0..121u64).map(|i| (i * 97 + 13) % 4096).collect();
        let replayed = schedule.replay(&AverageKernel, &other).expect("replay");
        let mut fresh = paper_system();
        let full = fresh.run(&other, 2).expect("run");
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
        assert_eq!(replayed.metrics.cycles, full.metrics.cycles);
        assert_eq!(replayed.warmup_cycles, full.warmup_cycles);
        assert_eq!(replayed.engine, RunEngine::Replay);
        assert_eq!(full.engine, RunEngine::FullSim);
    }

    #[test]
    fn replay_refuses_mismatched_requests() {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&ramp(121), 1).expect("capture");
        assert!(matches!(
            schedule.replay(&MaxKernel, &ramp(121)),
            Err(ReplayUnsupported::KernelMismatch { .. })
        ));
        assert!(matches!(
            schedule.replay(&AverageKernel, &ramp(64)),
            Err(ReplayUnsupported::InputLength {
                expected: 121,
                actual: 64
            })
        ));
    }

    #[test]
    fn capture_refuses_ineligible_systems() {
        use smache_mem::{ChaosProfile, FaultPlan};
        // A *corrupting* plan refuses: the fault effect depends on data.
        let mut corrupting = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .fault_plan(FaultPlan::new(3, ChaosProfile::flip(40)))
            .build()
            .expect("build");
        assert!(matches!(
            corrupting.run_captured(&ramp(121), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::FaultPlan))
        ));

        let mut traced = paper_system();
        traced.attach_telemetry(smache_sim::TelemetryConfig::default());
        assert!(matches!(
            traced.run_captured(&ramp(121), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::Telemetry))
        ));

        let mut stalled = paper_system();
        stalled.set_stall_schedule(Box::new(|c| c % 5 == 0));
        assert!(matches!(
            stalled.run_captured(&ramp(121), 1),
            Err(CoreError::ReplayRefused(ReplayUnsupported::StallSchedule))
        ));
    }

    #[test]
    fn latency_only_chaos_captures_and_replays_across_data_seeds() {
        use smache_mem::{ChaosProfile, FaultPlan};
        let chaotic = || {
            SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
                .fault_plan(FaultPlan::new(7, ChaosProfile::storms()))
                .build()
                .expect("build")
        };
        let mut sys = chaotic();
        let (report, schedule) = sys.run_captured(&ramp(121), 2).expect("capture");
        assert!(
            report.stats.stall_cycles > 0,
            "storms actually perturbed the captured run"
        );
        // Fresh data through the chaotic schedule vs a fresh chaotic run.
        let other: Vec<u64> = (0..121u64).map(|i| (i * 131 + 5) % 8192).collect();
        let replayed = schedule.replay(&AverageKernel, &other).expect("replay");
        let full = chaotic().run(&other, 2).expect("run");
        assert_eq!(replayed.output, full.output);
        assert_eq!(replayed.stats, full.stats);
        assert_eq!(replayed.metrics.faults, full.metrics.faults);
    }

    #[test]
    fn lane_batched_replay_matches_per_lane_replay() {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&ramp(121), 2).expect("capture");
        let inputs: Vec<Vec<u64>> = (0..5u64)
            .map(|s| (0..121u64).map(|i| (i * 97 + 13 * s) % 4096).collect())
            .collect();
        let views: Vec<&[u64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let batched = schedule
            .replay_lanes(&AverageKernel, &views)
            .expect("lanes");
        assert_eq!(batched.len(), 5);
        for (lane, input) in batched.iter().zip(&inputs) {
            let single = schedule.replay(&AverageKernel, input).expect("replay");
            assert_eq!(lane.output, single.output);
            assert_eq!(lane.stats, single.stats);
            assert_eq!(lane.engine, RunEngine::Replay);
        }
        assert!(schedule
            .replay_lanes(&AverageKernel, &[])
            .expect("empty")
            .is_empty());
        assert!(matches!(
            schedule.replay_lanes(&MaxKernel, &views),
            Err(ReplayUnsupported::KernelMismatch { .. })
        ));
        assert!(matches!(
            schedule.replay_lanes(&AverageKernel, &[&[0u64; 64][..]]),
            Err(ReplayUnsupported::InputLength {
                expected: 121,
                actual: 64
            })
        ));
    }

    #[test]
    fn gather_table_covers_every_element() {
        let sys = paper_system();
        let table = build_gather_table(sys.plan(), sys.module_sources()).expect("gather");
        assert_eq!(table.len(), 121);
        assert_eq!(table.width(), 4);
        let rows: Vec<_> = table.rows().collect();
        // Interior element: four grid sources, full mask.
        assert_eq!(rows[60].mask, 0b1111);
        assert_eq!(rows[60].index, &[49, 59, 61, 71]);
        assert_eq!(rows[60].pos, &[0, 1, 2, 3]);
        // NW corner: west point is a hole, north wraps to the bottom row.
        assert_eq!(rows[0].mask, 0b1101);
        assert_eq!(rows[0].index[0], 110);
        assert_eq!(rows[0].pos, &[0, 2, 3]);
        assert!(table.consts().is_empty());
    }

    #[test]
    fn approx_bytes_counts_every_resident_vector() {
        let mut sys = paper_system();
        let (_, schedule) = sys.run_captured(&ramp(121), 100).expect("capture");
        let resident = schedule.gather().approx_bytes()
            + schedule.trace().records().len()
            + schedule.kernel_name().len();
        assert!(schedule.approx_bytes() >= resident);
        // The trace keeps no spare capacity from recording.
        assert_eq!(schedule.trace().approx_bytes(), 13_937);
        // Smaller than the per-slot enum table it replaces (23,656 bytes
        // for this Fig. 2 schedule).
        assert!(
            schedule.approx_bytes() <= 23_656,
            "{}",
            schedule.approx_bytes()
        );
    }
}
