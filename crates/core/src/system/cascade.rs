//! Temporal blocking: a cascade of Smache stages computing several time
//! steps per DRAM pass.
//!
//! The paper cites multi-time-step streaming (its refs \[2\], \[4\]) as
//! complementary work: "processing multiple time steps in one pass" to
//! re-use data on-chip. This module implements that composition: `T`
//! Smache modules chained back to back, stage `t+1` consuming stage `t`'s
//! kernel results directly on-chip, so one DRAM read+write pass advances
//! the grid by `T` work-instances — DRAM traffic drops by ~`T`×.
//!
//! The composition is only possible when every stage's stencil is served
//! by its stream window alone (open/mirror/constant boundaries): a static
//! buffer would need the *end* of the upstream stage's output while the
//! downstream stage is still near its *start*, which is exactly why the
//! paper treats wrap-around boundaries and temporal blocking as orthogonal
//! — the constructor enforces this.

use std::collections::VecDeque;
use std::sync::Arc;

use smache_mem::{Dram, Word};

use crate::arch::controller::{ControllerPhase, SmacheModule};
use crate::arch::kernel::Kernel;
use crate::config::{BufferPlan, SourceTable};
use crate::cost::FreqModel;
use crate::error::CoreError;
use crate::system::metrics::DesignMetrics;
use crate::system::smache_system::SystemConfig;
use crate::CoreResult;

/// Report of a completed cascade run.
#[derive(Debug, Clone)]
pub struct CascadeReport {
    /// The final grid contents.
    pub output: Vec<Word>,
    /// Fig. 2-style metrics for the whole run.
    pub metrics: DesignMetrics,
    /// Number of DRAM passes executed.
    pub passes: u64,
}

/// A cascade of `T` identical Smache stages.
pub struct CascadeSystem {
    stages: Vec<SmacheModule>,
    kernel: Box<dyn Kernel>,
    config: SystemConfig,
    dram: Dram,
    n: usize,
    base: [usize; 2],
    in_region: usize,

    read_ptr: usize,
    /// Words queued for each stage's stream input (`feed[0]` holds DRAM
    /// responses; `feed[t]` holds stage `t-1`'s results).
    feed: Vec<VecDeque<Word>>,
    /// Per-stage kernel pipelines: (remaining latency, element, result).
    pipes: Vec<VecDeque<(u64, usize, Word)>>,
    write_queue: VecDeque<(usize, Word)>,
    writes_done: usize,
    passes_left: u64,
    cycle: u64,
    scratch_values: Vec<Word>,
}

impl CascadeSystem {
    /// Builds a cascade of `depth` stages over one plan.
    ///
    /// The plan must need no static buffers (see module docs) and `depth`
    /// must be at least 1.
    pub fn new(
        plan: BufferPlan,
        kernel: Box<dyn Kernel>,
        depth: usize,
        config: SystemConfig,
    ) -> CoreResult<Self> {
        if depth == 0 {
            return Err(CoreError::Config("cascade depth must be >= 1".into()));
        }
        if !plan.static_buffers.is_empty() {
            return Err(CoreError::Config(
                "temporal blocking requires a plan without static buffers \
                 (open/mirror/constant boundaries); wrap-around boundaries \
                 are served per instance by the single-stage system"
                    .into(),
            ));
        }
        if kernel.latency() == 0 {
            return Err(CoreError::KernelLatencyZero);
        }
        if config.fault_plan.is_active() {
            return Err(CoreError::ChaosUnsupported { system: "cascade" });
        }
        let n = plan.grid.len();
        let row = config.dram.row_words;
        let region = n.div_ceil(row) * row;
        let dram = Dram::new(2 * region + row, config.dram)?;
        let sources = Arc::new(SourceTable::build(&plan)?);
        let stages = (0..depth)
            .map(|_| SmacheModule::with_sources(plan.clone(), Arc::clone(&sources)))
            .collect::<CoreResult<Vec<_>>>()?;
        Ok(CascadeSystem {
            stages,
            kernel,
            config,
            dram,
            n,
            base: [0, region],
            in_region: 0,
            read_ptr: 0,
            feed: (0..depth).map(|_| VecDeque::new()).collect(),
            pipes: (0..depth).map(|_| VecDeque::new()).collect(),
            write_queue: VecDeque::new(),
            writes_done: 0,
            passes_left: 0,
            cycle: 0,
            scratch_values: Vec::new(),
        })
    }

    /// Number of stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    fn step(&mut self) -> CoreResult<()> {
        // DRAM read engine feeds stage 0.
        let in_base = self.base[self.in_region];
        if self.read_ptr < self.n && self.feed[0].len() < self.config.resp_high_water {
            self.dram.hold_read(in_base + self.read_ptr)?;
        } else {
            self.dram.cancel_read();
        }
        if let Some(&(addr, w)) = self.write_queue.front() {
            self.dram.hold_write(addr, w)?;
        } else {
            self.dram.cancel_write();
        }
        let report = self.dram.tick();
        if report.read_accepted.is_some() {
            self.read_ptr += 1;
        }
        if let Some((_, w)) = report.response {
            self.feed[0].push_back(w);
        }
        if report.write_accepted.is_some() {
            self.write_queue.pop_front();
            self.writes_done += 1;
        }

        // Stage datapaths, upstream to downstream.
        for t in 0..self.stages.len() {
            let stage = &mut self.stages[t];
            if stage.phase() != ControllerPhase::Streaming {
                continue;
            }
            if let Some(e) = stage.emit_ready() {
                let mut values = std::mem::take(&mut self.scratch_values);
                let mask = stage.gather(e, &mut values)?;
                let result = self.kernel.apply(&values, mask);
                self.scratch_values = values;
                self.pipes[t].push_back((self.kernel.latency(), e, result));
            }
            if stage.wants_shift() {
                if stage.real_words_remaining() > 0 {
                    if let Some(w) = self.feed[t].pop_front() {
                        stage.shift_in(w);
                    }
                } else {
                    stage.shift_in(0);
                }
            }
            stage.preissue_static_reads()?;
        }

        // Kernel pipelines: stage t's results feed stage t+1 (or DRAM).
        for t in 0..self.stages.len() {
            for entry in self.pipes[t].iter_mut() {
                entry.0 -= 1;
            }
            while self.pipes[t].front().is_some_and(|e| e.0 == 0) {
                let (_, e, w) = self.pipes[t].pop_front().expect("checked front");
                if t + 1 < self.stages.len() {
                    self.feed[t + 1].push_back(w);
                } else {
                    let out_base = self.base[1 - self.in_region];
                    self.write_queue.push_back((out_base + e, w));
                }
            }
        }

        // Pass boundary: the last stage has emitted everything and every
        // write has landed.
        if self.stages.iter().all(|s| s.instance_emitted())
            && self.writes_done == self.n
            && self.pipes.iter().all(VecDeque::is_empty)
            && self.write_queue.is_empty()
        {
            self.passes_left -= 1;
            for stage in &mut self.stages {
                stage.end_instance(self.passes_left);
            }
            self.read_ptr = 0;
            self.writes_done = 0;
            self.in_region = 1 - self.in_region;
            for f in &mut self.feed {
                debug_assert!(f.is_empty(), "feeds drain exactly");
                f.clear();
            }
        }

        for stage in &mut self.stages {
            stage.tick()?;
        }
        self.cycle += 1;
        Ok(())
    }

    /// Runs `passes` DRAM passes (= `passes × depth` work-instances).
    pub fn run(&mut self, input: &[Word], passes: u64) -> CoreResult<CascadeReport> {
        if input.len() != self.n {
            return Err(CoreError::Config(format!(
                "input length {} does not match grid size {}",
                input.len(),
                self.n
            )));
        }
        self.dram.preload(self.base[0], input)?;
        self.dram.reset_stats();
        self.passes_left = passes;

        let budget = (passes + 2)
            * ((self.n as u64 + 64 * self.stages.len() as u64)
                * self.config.watchdog_cycles_per_element
                + 512)
            + 4096;
        while self.passes_left > 0 {
            if self.cycle >= budget {
                return Err(CoreError::Sim(smache_sim::SimError::Watchdog {
                    budget,
                    waiting_for: "cascade run completion".into(),
                }));
            }
            self.step()?;
        }

        let out_region = (passes % 2) as usize;
        let output = self.dram.dump(self.base[out_region], self.n)?;
        let plan = self.stages[0].plan();
        let depth = self.stages.len() as u64;
        let resources = self
            .stages
            .iter()
            .map(|s| s.resource_breakdown().total())
            .sum::<smache_sim::ResourceUsage>()
            + self.kernel.resources();
        let metrics = DesignMetrics {
            name: format!("Smache-cascade{depth}"),
            cycles: self.cycle,
            fmax_mhz: FreqModel.smache_fmax(plan),
            dram: *self.dram.stats(),
            ops: plan.shape.ops_per_point() * self.n as u64 * depth * passes,
            resources,
            faults: smache_mem::FaultCounters::default(),
        };
        Ok(CascadeReport {
            output,
            metrics,
            passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::kernel::AverageKernel;
    use crate::builder::SmacheBuilder;
    use crate::functional::golden::golden_run;
    use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

    fn open_plan(h: usize, w: usize) -> BufferPlan {
        SmacheBuilder::new(GridSpec::d2(h, w).expect("grid"))
            .shape(StencilShape::four_point_2d())
            .boundaries(BoundarySpec::all_open(2).expect("bounds"))
            .plan()
            .expect("plan")
    }

    fn golden(h: usize, w: usize, input: &[Word], steps: u64) -> Vec<Word> {
        golden_run(
            &GridSpec::d2(h, w).expect("grid"),
            &BoundarySpec::all_open(2).expect("bounds"),
            &StencilShape::four_point_2d(),
            &AverageKernel,
            input,
            steps,
        )
        .expect("golden")
    }

    #[test]
    fn cascade_matches_golden_multi_step() {
        let (h, w) = (12usize, 16usize);
        let input: Vec<Word> = (0..192u64).map(|i| (i * 29 + 3) % 509).collect();
        for depth in [1usize, 2, 3, 4] {
            let mut sys = CascadeSystem::new(
                open_plan(h, w),
                Box::new(AverageKernel),
                depth,
                SystemConfig::default(),
            )
            .expect("cascade");
            let passes = 12 / depth as u64;
            let report = sys.run(&input, passes).expect("run");
            assert_eq!(
                report.output,
                golden(h, w, &input, depth as u64 * passes),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn traffic_drops_by_the_cascade_depth() {
        let (h, w) = (16usize, 16usize);
        let input: Vec<Word> = (0..256).collect();
        let run = |depth: usize, passes: u64| {
            let mut sys = CascadeSystem::new(
                open_plan(h, w),
                Box::new(AverageKernel),
                depth,
                SystemConfig::default(),
            )
            .expect("cascade");
            sys.run(&input, passes).expect("run").metrics
        };
        // 12 time steps both ways.
        let single = run(1, 12);
        let quad = run(4, 3);
        assert_eq!(single.ops, quad.ops, "same computation performed");
        let ratio = single.dram.total_bytes() as f64 / quad.dram.total_bytes() as f64;
        assert!(
            (ratio - 4.0).abs() < 0.05,
            "DRAM traffic must drop ~4x, got {ratio:.2}"
        );
        assert!(
            quad.cycles < single.cycles,
            "fewer passes, fewer cycles: {} vs {}",
            quad.cycles,
            single.cycles
        );
        // The price: ~4x the buffering resources.
        assert!(quad.resources.total_memory_bits() > 3 * single.resources.total_memory_bits());
    }

    #[test]
    fn wrap_boundaries_are_rejected() {
        let plan = SmacheBuilder::new(GridSpec::d2(8, 8).expect("grid"))
            .boundaries(BoundarySpec::paper_case())
            .plan()
            .expect("plan");
        let err = CascadeSystem::new(plan, Box::new(AverageKernel), 2, SystemConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("temporal blocking"));
    }

    #[test]
    fn zero_depth_rejected() {
        let err = CascadeSystem::new(
            open_plan(4, 4),
            Box::new(AverageKernel),
            0,
            SystemConfig::default(),
        )
        .map(|_| ())
        .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)));
    }

    #[test]
    fn mirror_boundaries_compose() {
        use smache_stencil::{AxisBoundaries, Boundary};
        let bounds = BoundarySpec::new(&[
            AxisBoundaries::both(Boundary::Mirror),
            AxisBoundaries::both(Boundary::Constant(50)),
        ])
        .expect("bounds");
        let grid = GridSpec::d2(10, 10).expect("grid");
        let plan = SmacheBuilder::new(grid.clone())
            .boundaries(bounds.clone())
            .plan()
            .expect("plan");
        let input: Vec<Word> = (0..100).map(|i| i * 11 % 97).collect();
        let mut sys = CascadeSystem::new(plan, Box::new(AverageKernel), 3, SystemConfig::default())
            .expect("cascade");
        let report = sys.run(&input, 2).expect("run");
        let expected = golden_run(
            &grid,
            &bounds,
            &StencilShape::four_point_2d(),
            &AverageKernel,
            &input,
            6,
        )
        .expect("golden");
        assert_eq!(report.output, expected);
    }
}
