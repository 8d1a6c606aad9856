//! Spatial parallelism: a multi-lane Smache processing `P` elements per
//! cycle behind a `P`-word DRAM bus.
//!
//! This is the scaling axis of the paper's ref \[5\] (Sano et al.'s scalable
//! streaming arrays): replicate the gather+kernel datapath `P`-fold, widen
//! the stream window so `P` consecutive elements sit at their tap
//! positions simultaneously, and move `P` words per DRAM beat. Throughput
//! approaches `P` elements per cycle; the stencil logic is unchanged —
//! lane `l` of group `e` simply resolves element `e + l` with the same
//! per-case sources the single-lane controller uses.
//!
//! Static buffers are served per lane through the banks' two BRAM ports
//! (lane-consecutive slots are conflict-free on a dual-port memory for
//! `P = 2`; wider lane counts with static buffers would need `P`-way slot
//! banking and are rejected for now). The multi-lane window is modelled
//! register-resident (Case-R style); hybridising a multi-lane window is
//! future work.

use std::collections::VecDeque;

use smache_mem::{Dram, Word};

use crate::arch::kernel::Kernel;
use crate::arch::static_buffer::StaticBank;
use crate::config::{BufferPlan, SourceSlot, SourceTable};
use crate::cost::synthesis::clog2;
use crate::cost::{FreqModel, SynthesisModel};
use crate::error::CoreError;
use crate::system::metrics::DesignMetrics;
use crate::system::smache_system::SystemConfig;
use crate::CoreResult;

/// Report of a completed multi-lane run.
#[derive(Debug, Clone)]
pub struct MultilaneReport {
    /// The final grid contents.
    pub output: Vec<Word>,
    /// Fig. 2-style metrics.
    pub metrics: DesignMetrics,
    /// Lane count.
    pub lanes: usize,
}

/// The `P`-lane Smache system.
pub struct MultilaneSystem {
    plan: BufferPlan,
    kernel: Box<dyn Kernel>,
    lanes: usize,
    config: SystemConfig,
    dram: Dram,
    n: usize,
    base: [usize; 2],
    in_region: usize,

    /// The widened stream window (newest word first).
    window: VecDeque<Word>,
    window_capacity: usize,
    banks: Vec<StaticBank>,
    /// Words applied into the window this instance (incl. flush zeros).
    applied: u64,
    /// Base element of the next group to emit.
    next_group: usize,
    /// Prefetch progress (warm-up).
    prefetch_issue: usize,
    prefetch_fill: usize,
    warmed_up: bool,
    read_ptr: usize,
    feed: VecDeque<Word>,
    /// Kernel pipeline: (remaining latency, base element, lane results).
    pipe: VecDeque<(u64, usize, Vec<Word>)>,
    write_queue: VecDeque<(usize, Vec<Word>)>,
    writes_done: usize,
    instances_left: u64,
    cycle: u64,
    warmup_cycles: u64,
    /// The lanes' wiring, resolved once at elaboration.
    sources: SourceTable,
    scratch_values: Vec<Word>,
}

impl MultilaneSystem {
    /// Builds a `lanes`-wide system over `plan`.
    pub fn new(
        plan: BufferPlan,
        kernel: Box<dyn Kernel>,
        lanes: usize,
        mut config: SystemConfig,
    ) -> CoreResult<Self> {
        if lanes == 0 || lanes > 16 {
            return Err(CoreError::LaneCountUnsupported { lanes, max: 16 });
        }
        if config.fault_plan.is_active() {
            return Err(CoreError::ChaosUnsupported {
                system: "multilane",
            });
        }
        if plan.statics_are_regions {
            return Err(CoreError::Config(
                "multi-lane requires per-offset static buffers (no region dedupe)".into(),
            ));
        }
        if !plan.static_buffers.is_empty() && lanes > 2 {
            return Err(CoreError::Config(
                "static buffers expose two BRAM ports: more than two lanes \
                 would need P-way slot banking (not implemented)"
                    .into(),
            ));
        }
        if kernel.latency() == 0 {
            return Err(CoreError::KernelLatencyZero);
        }
        let sources = SourceTable::build(&plan)?;
        config.dram.bus_words = lanes;
        let n = plan.grid.len();
        let row = config.dram.row_words;
        let region = (n + lanes).div_ceil(row) * row;
        let dram = Dram::new(2 * region + row, config.dram)?;
        let banks = plan
            .static_buffers
            .iter()
            .map(|spec| StaticBank::new(spec.clone(), plan.word_bits))
            .collect::<CoreResult<Vec<_>>>()?;
        // Shifts can run up to a full beat ahead of emission and the
        // trailing (partial) group still needs its lookback: size the
        // window generously (the multi-lane window is a modelling
        // simplification — register-resident, Case-R style).
        let window_capacity = plan.lookahead + plan.lookback + 3 * lanes + 4;
        let warmed_up = plan.static_buffers.is_empty();
        Ok(MultilaneSystem {
            plan,
            kernel,
            lanes,
            config,
            dram,
            n,
            base: [0, region],
            in_region: 0,
            window: VecDeque::new(),
            window_capacity,
            banks,
            applied: 0,
            next_group: 0,
            prefetch_issue: 0,
            prefetch_fill: 0,
            warmed_up,
            read_ptr: 0,
            feed: VecDeque::new(),
            pipe: VecDeque::new(),
            write_queue: VecDeque::new(),
            writes_done: 0,
            instances_left: 0,
            cycle: 0,
            warmup_cycles: 0,
            sources,
            scratch_values: Vec::new(),
        })
    }

    /// Lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    fn prefetch_addrs(&self) -> Vec<usize> {
        let mut addrs = Vec::new();
        for b in self.plan.static_buffers.iter() {
            addrs.extend(b.region_start..b.region_start + b.len);
        }
        addrs
    }

    /// Window read: element `x` when `applied` words have entered.
    fn window_read(&self, x: i64) -> CoreResult<Word> {
        let pos = self.applied as i64 - 1 - x;
        self.window
            .get(pos as usize)
            .copied()
            .ok_or_else(|| CoreError::Config(format!("window position {pos} out of range")))
    }

    fn step(&mut self) -> CoreResult<()> {
        let in_base = self.base[self.in_region];

        // --- Warm-up (FSM-1): narrow prefetch of the static regions.
        if !self.warmed_up {
            let addrs = self.prefetch_addrs();
            if self.prefetch_issue < addrs.len() {
                self.dram.hold_read(in_base + addrs[self.prefetch_issue])?;
            } else {
                self.dram.cancel_read();
            }
            let report = self.dram.tick();
            if report.read_accepted.is_some() {
                self.prefetch_issue += 1;
            }
            if let Some((_, w)) = report.response {
                // Route to (bank, slot) in address order.
                let mut idx = self.prefetch_fill;
                for bank in &mut self.banks {
                    let len = bank.spec().len;
                    if idx < len {
                        bank.stage_prefetch(idx, w)?;
                        break;
                    }
                    idx -= len;
                }
                self.prefetch_fill += 1;
                if self.prefetch_fill == addrs.len() {
                    self.warmed_up = true;
                }
            }
            for bank in &mut self.banks {
                bank.tick();
            }
            self.warmup_cycles += 1;
            self.cycle += 1;
            return Ok(());
        }

        // --- DRAM: wide reads feed the window; wide writes drain results.
        if self.read_ptr < self.n && self.feed.len() < self.config.resp_high_water * self.lanes {
            self.dram.hold_read_wide(in_base + self.read_ptr)?;
        } else {
            self.dram.cancel_read();
        }
        if let Some((addr, words)) = self.write_queue.front() {
            self.dram.hold_write_wide(*addr, words)?;
        } else {
            self.dram.cancel_write();
        }
        let report = self.dram.tick();
        if report.read_accepted.is_some() {
            self.read_ptr = (self.read_ptr + self.lanes).min(self.n);
        }
        if let Some((_, words)) = report.wide_response {
            self.feed.extend(words);
        }
        if report.write_accepted.is_some() {
            let (_, words) = self.write_queue.pop_front().expect("front staged");
            self.writes_done += words.len();
        }

        // --- Emission of one group (reads the pre-edge window/banks).
        let group = self.next_group;
        let group_lanes = self.lanes.min(self.n - group.min(self.n));
        let ready = group < self.n
            && self.applied >= (group + group_lanes - 1) as u64 + self.plan.lookahead as u64 + 2;
        if ready {
            let mut results = Vec::with_capacity(group_lanes);
            let mut values = std::mem::take(&mut self.scratch_values);
            for lane in 0..group_lanes {
                let e = group + lane;
                values.clear();
                for src in self.sources.row(e) {
                    values.push(match *src {
                        SourceSlot::Hole => 0,
                        // Window position is lane-relative: recover the
                        // absolute element the tap denotes.
                        SourceSlot::Tap(pos) => {
                            let o = self.plan.lookahead as i64 + 1 - pos as i64;
                            self.window_read(e as i64 + o)?
                        }
                        // Lane uses its own bank port (pre-issued).
                        SourceSlot::Static { bank, .. } => self.banks[bank as usize].out_port(lane),
                        SourceSlot::Const(i) => self.sources.consts()[i as usize],
                    });
                }
                results.push(self.kernel.apply(&values, self.sources.mask(e)));
            }
            self.scratch_values = values;
            self.pipe.push_back((self.kernel.latency(), group, results));
            self.next_group = group + group_lanes;
        }

        // --- Shift up to `lanes` words into the window.
        let instance_words = self.n as u64 + self.plan.lookahead as u64 + self.lanes as u64;
        let mut shifted = 0usize;
        while shifted < self.lanes && self.applied < instance_words {
            let w = if self.applied < self.n as u64 {
                match self.feed.pop_front() {
                    Some(w) => w,
                    None => break, // starved this cycle
                }
            } else {
                0 // flush
            };
            self.window.push_front(w);
            self.applied += 1;
            shifted += 1;
        }
        self.window.truncate(self.window_capacity);

        // --- Pre-issue static reads for the next group (per lane port).
        if self.next_group < self.n {
            let base = self.next_group;
            for lane in 0..self.lanes.min(self.n - base) {
                for src in self.sources.row(base + lane) {
                    if let SourceSlot::Static { bank, slot, .. } = *src {
                        self.banks[bank as usize].stage_read_port(lane, slot as usize)?;
                    }
                }
            }
        }

        // --- Kernel pipeline → captures + wide write.
        for entry in self.pipe.iter_mut() {
            entry.0 -= 1;
        }
        while self.pipe.front().is_some_and(|e| e.0 == 0) {
            let (_, base, results) = self.pipe.pop_front().expect("checked front");
            for (lane, &w) in results.iter().enumerate() {
                let g = base + lane;
                for bank in &mut self.banks {
                    if bank.spec().contains_region(g) {
                        bank.stage_capture(g - bank.spec().region_start, w)?;
                    }
                }
            }
            let out_base = self.base[1 - self.in_region];
            self.write_queue.push_back((out_base + base, results));
        }

        // --- Instance boundary.
        if self.next_group >= self.n
            && self.writes_done == self.n
            && self.pipe.is_empty()
            && self.write_queue.is_empty()
        {
            self.instances_left -= 1;
            for bank in &mut self.banks {
                bank.stage_swap();
            }
            self.applied = 0;
            self.next_group = 0;
            self.read_ptr = 0;
            self.writes_done = 0;
            self.in_region = 1 - self.in_region;
            self.window.clear();
            // The wide bus over-fetches up to `lanes-1` pad words at the
            // end of the grid; they are discarded here (and counted as
            // traffic — bus granularity is real).
            self.feed.clear();
        }

        for bank in &mut self.banks {
            bank.tick();
        }
        self.cycle += 1;
        Ok(())
    }

    /// Runs `instances` work-instances.
    pub fn run(&mut self, input: &[Word], instances: u64) -> CoreResult<MultilaneReport> {
        if input.len() != self.n {
            return Err(CoreError::InputLengthMismatch {
                expected: self.n,
                actual: input.len(),
            });
        }
        self.dram.preload(self.base[0], input)?;
        self.dram.reset_stats();
        self.instances_left = instances;

        let budget = (instances + 2)
            * (self.n as u64 * self.config.watchdog_cycles_per_element + 512)
            + 4096;
        while self.instances_left > 0 {
            if self.cycle >= budget {
                return Err(CoreError::Sim(smache_sim::SimError::Watchdog {
                    budget,
                    waiting_for: "multilane run completion".into(),
                }));
            }
            self.step()?;
        }

        let out_region = (instances % 2) as usize;
        let output = self.dram.dump(self.base[out_region], self.n)?;
        // Resources: the window is register-resident and lane datapaths
        // replicate the gather + kernel; static banks are shared.
        let window_regs = self.window_capacity as u64 * self.plan.word_bits as u64;
        let statics: smache_sim::ResourceUsage = self.banks.iter().map(|b| b.resources()).sum();
        let kernel_res = self.kernel.resources();
        let resources = smache_sim::ResourceUsage {
            alms: SynthesisModel.smache_alms(&self.plan, kernel_res.alms) * self.lanes as u64,
            registers: window_regs
                + statics.registers
                + SynthesisModel.controller_registers(&self.plan)
                + kernel_res.registers * self.lanes as u64,
            bram_bits: statics.bram_bits,
            dsps: kernel_res.dsps * self.lanes as u64,
        };
        let fmax = FreqModel.fmax_mhz(
            FreqModel.smache_levels(self.plan.n_cases as u64) + clog2(self.lanes as u64),
            self.n as u64,
        );
        let metrics = DesignMetrics {
            name: format!("Smache-x{}", self.lanes),
            cycles: self.cycle,
            fmax_mhz: fmax,
            dram: *self.dram.stats(),
            ops: self.plan.shape.ops_per_point() * self.n as u64 * instances,
            resources,
            faults: smache_mem::FaultCounters::default(),
        };
        Ok(MultilaneReport {
            output,
            metrics,
            lanes: self.lanes,
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

    fn plan(h: usize, w: usize, bounds: &BoundarySpec) -> BufferPlan {
        SmacheBuilder::new(GridSpec::d2(h, w).expect("grid"))
            .shape(StencilShape::four_point_2d())
            .boundaries(bounds.clone())
            .plan()
            .expect("plan")
    }

    fn golden(h: usize, w: usize, bounds: &BoundarySpec, input: &[Word], steps: u64) -> Vec<Word> {
        golden_run(
            &GridSpec::d2(h, w).expect("grid"),
            bounds,
            &StencilShape::four_point_2d(),
            &AverageKernel,
            input,
            steps,
        )
        .expect("golden")
    }

    #[test]
    fn open_boundaries_scale_to_many_lanes() {
        let bounds = BoundarySpec::all_open(2).expect("bounds");
        let (h, w) = (12usize, 20usize);
        let input: Vec<Word> = (0..240u64).map(|i| (i * 37 + 1) % 1021).collect();
        let expected = golden(h, w, &bounds, &input, 3);
        let mut cycles = Vec::new();
        for lanes in [1usize, 2, 4, 8] {
            let mut sys = MultilaneSystem::new(
                plan(h, w, &bounds),
                Box::new(AverageKernel),
                lanes,
                SystemConfig::default(),
            )
            .expect("system");
            let report = sys.run(&input, 3).expect("run");
            assert_eq!(report.output, expected, "{lanes} lanes");
            cycles.push((lanes, report.metrics.cycles));
        }
        // Throughput scales: 4 lanes at least 2.5x faster than 1.
        let one = cycles[0].1 as f64;
        let four = cycles[2].1 as f64;
        assert!(one / four > 2.5, "4-lane speed-up {:.2}", one / four);
    }

    #[test]
    fn two_lanes_with_wrap_boundaries_match_golden() {
        let bounds = BoundarySpec::paper_case();
        let (h, w) = (11usize, 11usize);
        let input: Vec<Word> = (0..121).collect();
        let expected = golden(h, w, &bounds, &input, 5);
        let mut sys = MultilaneSystem::new(
            plan(h, w, &bounds),
            Box::new(AverageKernel),
            2,
            SystemConfig::default(),
        )
        .expect("system");
        let report = sys.run(&input, 5).expect("run");
        assert_eq!(report.output, expected);
        // Two lanes beat one on cycles for the same workload.
        let mut single = MultilaneSystem::new(
            plan(h, w, &bounds),
            Box::new(AverageKernel),
            1,
            SystemConfig::default(),
        )
        .expect("system");
        let single_report = single.run(&input, 5).expect("run");
        assert_eq!(single_report.output, expected);
        assert!(report.metrics.cycles < single_report.metrics.cycles);
    }

    #[test]
    fn single_lane_matches_the_reference_system() {
        // The multilane machine at P=1 and the reference SmacheSystem must
        // compute identical grids (cycle counts may differ slightly).
        let bounds = BoundarySpec::paper_case();
        let input: Vec<Word> = (0..121).map(|i| i * 3 + 1).collect();
        let mut multi = MultilaneSystem::new(
            plan(11, 11, &bounds),
            Box::new(AverageKernel),
            1,
            SystemConfig::default(),
        )
        .expect("system");
        let m = multi.run(&input, 4).expect("run");
        let mut reference = SmacheBuilder::new(GridSpec::d2(11, 11).expect("grid"))
            .build()
            .expect("reference");
        let r = reference.run(&input, 4).expect("run");
        assert_eq!(m.output, r.output);
    }

    #[test]
    fn invalid_configurations_rejected() {
        let bounds = BoundarySpec::paper_case();
        let p = plan(11, 11, &bounds);
        assert!(MultilaneSystem::new(
            p.clone(),
            Box::new(AverageKernel),
            0,
            SystemConfig::default()
        )
        .map(|_| ())
        .is_err());
        // Wrap boundaries (static buffers) cap lanes at the two BRAM ports.
        assert!(MultilaneSystem::new(
            p.clone(),
            Box::new(AverageKernel),
            4,
            SystemConfig::default()
        )
        .map(|_| ())
        .is_err());
        let mut deduped = p;
        deduped.dedupe_static_regions();
        assert!(
            MultilaneSystem::new(deduped, Box::new(AverageKernel), 2, SystemConfig::default())
                .map(|_| ())
                .is_err()
        );
    }

    #[test]
    fn traffic_is_unchanged_by_lanes() {
        let bounds = BoundarySpec::all_open(2).expect("bounds");
        let input: Vec<Word> = (0..256).collect();
        let run = |lanes| {
            let mut sys = MultilaneSystem::new(
                plan(16, 16, &bounds),
                Box::new(AverageKernel),
                lanes,
                SystemConfig::default(),
            )
            .expect("system");
            sys.run(&input, 4).expect("run").metrics
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.dram.total_bytes(), four.dram.total_bytes());
        assert_eq!(one.ops, four.ops);
        assert!(
            four.fmax_mhz < one.fmax_mhz,
            "wider mux clocks a little lower"
        );
    }
}
