//! The simulated-synthesis "actual" model (Table I "Actual" rows).
//!
//! Real synthesis adds overhead the analytic estimate does not see. This
//! module models the overhead classes that explain the paper's Table I
//! actual-vs-estimate gaps (see DESIGN.md "Calibration notes"):
//!
//! 1. **BRAM output-register word** — a registered-output buffer allocates
//!    one extra word of block memory per physical bank (11→12, 1024→1025).
//! 2. **FIFO depth rounding** — BRAM FIFO depths synthesise at the next
//!    power of two (7→8, 1020→1024).
//! 3. **Shared FIFO occupancy counter** — the lock-stepped FIFO pair of the
//!    hybrid stream buffer needs one fill counter of `⌈log2 depth⌉` bits
//!    (+3 at depth 7, +10 at depth 1020 — exactly the paper's Rsm gaps).
//! 4. **Controller state** — `3 + 8·⌈log2 N⌉ + W` register bits: the
//!    one-hot state of the three FSMs, eight address/index counters of
//!    stream-index width, and a row of write-enable fanout-duplication
//!    registers scaling with the grid row width. This reproduces the
//!    paper's `Rtotal − Rsm` of 70 (11×11) and 1187 (1024×1024) exactly.
//! 5. **ALM counts** — calibrated formulas anchored on the paper's §IV
//!    prose (79 ALMs baseline, ≈520 ALMs Smache at 11×11).

use smache_mem::MemKind;
use smache_sim::ResourceUsage;

use crate::config::{BufferPlan, HybridMode, Segment};
use crate::cost::estimate::MemoryBreakdown;

/// Ceil(log2(n)) for n ≥ 1 (0 for n ≤ 1).
pub fn clog2(n: u64) -> u64 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros() as u64
    }
}

/// The simulated-synthesis model.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesisModel;

impl SynthesisModel {
    /// "Actual" memory breakdown after synthesis of the plan.
    pub fn memory(&self, plan: &BufferPlan) -> MemoryBreakdown {
        let w = plan.word_bits as u64;
        let mut out = MemoryBreakdown::default();

        // Static buffers: two physical banks each, +1 output-register word
        // per BRAM bank.
        for b in plan.static_buffers.iter() {
            match b.kind {
                MemKind::Bram => out.b_static += 2 * (b.len as u64 + 1) * w,
                MemKind::Reg => out.r_static += 2 * b.len as u64 * w,
            }
        }

        // Stream buffer.
        match plan.hybrid {
            HybridMode::CaseR => {
                out.r_stream = plan.capacity as u64 * w;
            }
            HybridMode::CaseH { .. } => {
                let mut max_depth = 0u64;
                for s in plan.segments() {
                    match s {
                        Segment::Regs { len, .. } => out.r_stream += len as u64 * w,
                        Segment::Stretch { len, .. } => {
                            out.r_stream += 2 * w;
                            let depth = len as u64 - 2;
                            out.b_stream += depth.next_power_of_two() * w;
                            max_depth = max_depth.max(depth);
                        }
                    }
                }
                // Shared occupancy counter for the lock-stepped FIFOs.
                out.r_stream += clog2(max_depth);
            }
        }

        // Controller registers (overhead class 4).
        out.r_other = self.controller_registers(plan);
        out
    }

    /// Controller register bits: FSM state + counters + fanout duplication.
    pub fn controller_registers(&self, plan: &BufferPlan) -> u64 {
        let n = plan.grid.len() as u64;
        let row = plan.grid.row_width() as u64;
        3 + 8 * clog2(n) + row
    }

    /// ALMs of the Smache controller + gather datapath (calibrated; the
    /// dominant terms are the per-case gather multiplexing and the
    /// per-static-buffer address logic).
    pub fn smache_alms(&self, plan: &BufferPlan, kernel_alms: u64) -> u64 {
        let n = plan.grid.len() as u64;
        100 + 40 * plan.static_buffers.len() as u64
            + 32 * plan.n_cases as u64
            + 4 * plan.taps.len() as u64
            + 2 * clog2(n)
            + kernel_alms
    }

    /// Full "actual" resource report of a synthesised Smache instance.
    pub fn smache_resources(&self, plan: &BufferPlan, kernel: ResourceUsage) -> ResourceUsage {
        let m = self.memory(plan);
        ResourceUsage {
            alms: self.smache_alms(plan, kernel.alms),
            registers: m.r_total() + kernel.registers,
            bram_bits: m.b_total() + kernel.bram_bits,
            dsps: kernel.dsps,
        }
    }

    /// Baseline (no stencil buffering) ALMs: address generation, the
    /// gather of `n_points` in-flight reads, and the kernel. Calibrated to
    /// the paper's 79 ALMs at 11×11 with the 4-point kernel.
    pub fn baseline_alms(&self, n: u64, n_points: u64, kernel_alms: u64) -> u64 {
        20 + 5 * n_points + 2 * n_points + clog2(n) + kernel_alms
    }

    /// Baseline registers: gather value buffer, counters, in-flight queue.
    /// Calibrated to the paper's 262 registers at 11×11.
    pub fn baseline_registers(&self, n: u64, n_points: u64, word_bits: u64) -> u64 {
        64 + n_points * word_bits + 10 * clog2(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlanStrategy;
    use smache_stencil::{BoundarySpec, GridSpec, StencilShape};

    fn plan(h: usize, w: usize, hybrid: HybridMode) -> BufferPlan {
        BufferPlan::analyse(
            GridSpec::d2(h, w).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            hybrid,
            MemKind::Bram,
            32,
        )
        .unwrap()
    }

    #[test]
    fn clog2_values() {
        assert_eq!(clog2(1), 0);
        assert_eq!(clog2(2), 1);
        assert_eq!(clog2(7), 3);
        assert_eq!(clog2(8), 3);
        assert_eq!(clog2(121), 7);
        assert_eq!(clog2(1020), 10);
        assert_eq!(clog2(1 << 20), 20);
    }

    #[test]
    fn table1_actual_11x11_case_h() {
        let m = SynthesisModel.memory(&plan(11, 11, HybridMode::default()));
        // Paper actual row `11×11h`: Rsm 355, Bsm 512, Bsc 1536.
        assert_eq!(m.b_static, 1536);
        assert_eq!(m.r_stream, 355);
        assert_eq!(m.b_stream, 512);
        assert_eq!(m.b_total(), 2048);
        // Rtotal = Rsm + controller (70) = 425, matching the paper exactly.
        assert_eq!(m.r_other, 70);
        assert_eq!(m.r_total(), 425);
    }

    #[test]
    fn table1_actual_1024x1024_case_h() {
        let m = SynthesisModel.memory(&plan(1024, 1024, HybridMode::default()));
        // Paper actual row `1024×1024h`: Rsm 362, Bsm 65536, Bsc 131200.
        assert_eq!(m.b_static, 131_200);
        assert_eq!(m.r_stream, 362);
        assert_eq!(m.b_stream, 65_536);
        assert_eq!(m.b_total(), 196_736);
        assert_eq!(m.r_other, 1187);
        assert_eq!(m.r_total(), 1549);
    }

    #[test]
    fn table1_actual_case_r_tracks_estimate() {
        // Case-R rows: our synthesis model adds no stream overhead (the
        // paper's Quartus run shows +128/+38 bits of retiming artefacts we
        // deliberately do not model — see EXPERIMENTS.md).
        let m = SynthesisModel.memory(&plan(11, 11, HybridMode::CaseR));
        assert_eq!(m.r_stream, 800);
        assert_eq!(m.b_static, 1536);
        assert_eq!(m.r_total(), 800 + 70);
        let m = SynthesisModel.memory(&plan(1024, 1024, HybridMode::CaseR));
        assert_eq!(m.r_stream, 65_632);
        assert_eq!(m.r_total(), 65_632 + 1187);
        assert_eq!(m.b_total(), 131_200);
    }

    #[test]
    fn controller_registers_match_paper_deltas() {
        assert_eq!(
            SynthesisModel.controller_registers(&plan(11, 11, HybridMode::CaseR)),
            70
        );
        assert_eq!(
            SynthesisModel.controller_registers(&plan(1024, 1024, HybridMode::CaseR)),
            1187
        );
    }

    #[test]
    fn baseline_calibration_anchors() {
        // Paper §IV prose: baseline uses 79 ALMs and 262 registers.
        let kernel_alms = 24;
        assert_eq!(SynthesisModel.baseline_alms(121, 4, kernel_alms), 79);
        assert_eq!(SynthesisModel.baseline_registers(121, 4, 32), 262);
    }

    #[test]
    fn smache_alm_estimate_near_paper_prose() {
        // Paper §IV prose: the Smache version used 520 ALMs at 11×11.
        let p = plan(11, 11, HybridMode::CaseR);
        let alms = SynthesisModel.smache_alms(&p, 24);
        let err = (alms as f64 - 520.0).abs() / 520.0;
        assert!(err < 0.05, "ALMs {alms} should be within 5% of 520");
    }

    #[test]
    fn estimate_tracks_actual_within_tolerance() {
        use crate::cost::estimate::CostEstimate;
        // The estimate deliberately ignores controller state (as the
        // paper's does), so tracking is asserted on the buffer columns.
        let col_err = |e: u64, a: u64| -> f64 {
            if a == 0 {
                if e == 0 {
                    0.0
                } else {
                    1.0
                }
            } else {
                (e as f64 - a as f64).abs() / a as f64
            }
        };
        for (h, w) in [(11usize, 11usize), (64, 64), (1024, 1024)] {
            for hybrid in [HybridMode::CaseR, HybridMode::default()] {
                let p = plan(h, w, hybrid);
                let est = CostEstimate.memory(&p);
                let act = SynthesisModel.memory(&p);
                for (e, a, name) in [
                    (est.r_static, act.r_static, "Rsc"),
                    (est.b_static, act.b_static, "Bsc"),
                    (est.r_stream, act.r_stream, "Rsm"),
                    (est.b_stream, act.b_stream, "Bsm"),
                ] {
                    let err = col_err(e, a);
                    assert!(
                        err < 0.20,
                        "{name} estimate {e} vs actual {a} off by {err} ({h}x{w} {hybrid:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn full_resource_report_includes_kernel() {
        let p = plan(11, 11, HybridMode::default());
        let kernel = ResourceUsage {
            alms: 24,
            registers: 90,
            bram_bits: 0,
            dsps: 0,
        };
        let r = SynthesisModel.smache_resources(&p, kernel);
        assert_eq!(r.registers, 425 + 90);
        assert_eq!(r.bram_bits, 2048);
        assert!(r.alms > 400);
    }
}
