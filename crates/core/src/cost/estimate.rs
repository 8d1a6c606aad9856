//! The analytic cost estimate (Table I "Estimate" rows).

use smache_mem::MemKind;
use smache_sim::ResourceUsage;

use crate::config::{BufferPlan, HybridMode, Segment};

/// Registers/BRAM bits split by buffer class, using the paper's Table I
/// column names: `sc` = static buffers, `sm` = streaming buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    /// Register bits in static buffers (column `Rsc`).
    pub r_static: u64,
    /// BRAM bits in static buffers (column `Bsc`).
    pub b_static: u64,
    /// Register bits in the streaming buffer (column `Rsm`).
    pub r_stream: u64,
    /// BRAM bits in the streaming buffer (column `Bsm`).
    pub b_stream: u64,
    /// Register bits outside the buffers (controller etc.; zero in the
    /// estimate — the paper's estimate ignores control state).
    pub r_other: u64,
}

impl MemoryBreakdown {
    /// Column `Rtotal`.
    pub fn r_total(&self) -> u64 {
        self.r_static + self.r_stream + self.r_other
    }

    /// Column `Btotal`.
    pub fn b_total(&self) -> u64 {
        self.b_static + self.b_stream
    }

    /// Everything as a [`ResourceUsage`] (memory bits only).
    pub fn as_resources(&self) -> ResourceUsage {
        ResourceUsage {
            alms: 0,
            registers: self.r_total(),
            bram_bits: self.b_total(),
            dsps: 0,
        }
    }
}

/// The analytic estimator.
///
/// All formulas are pure functions of the plan:
///
/// * static buffers: `2 × len × width` bits each (double-buffered), placed
///   per the configured [`MemKind`];
/// * stream buffer Case-R: `capacity × width` register bits;
/// * stream buffer Case-H: `register_positions × width` register bits plus
///   `Σ (stretch_len − 2) × width` BRAM bits (ideal depths, no rounding).
///
/// On the paper's validation problems these reproduce the Table I
/// "Estimate" rows exactly (see tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct CostEstimate;

impl CostEstimate {
    /// Estimates the memory breakdown of a plan.
    pub fn memory(&self, plan: &BufferPlan) -> MemoryBreakdown {
        let w = plan.word_bits as u64;
        let mut out = MemoryBreakdown::default();

        for b in plan.static_buffers.iter() {
            let bits = 2 * b.len as u64 * w;
            match b.kind {
                MemKind::Bram => out.b_static += bits,
                MemKind::Reg => out.r_static += bits,
            }
        }

        match plan.hybrid {
            HybridMode::CaseR => {
                out.r_stream = plan.capacity as u64 * w;
            }
            HybridMode::CaseH { .. } => {
                for s in plan.segments() {
                    match s {
                        Segment::Regs { len, .. } => out.r_stream += len as u64 * w,
                        Segment::Stretch { len, .. } => {
                            out.r_stream += 2 * w;
                            out.b_stream += (len as u64 - 2) * w;
                        }
                    }
                }
            }
        }
        out
    }

    /// Total estimated on-chip memory bits.
    pub fn total_bits(&self, plan: &BufferPlan) -> u64 {
        let m = self.memory(plan);
        m.r_total() + m.b_total()
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
    fn table1_estimate_11x11_case_r() {
        let m = CostEstimate.memory(&plan(11, 11, HybridMode::CaseR));
        assert_eq!(m.r_static, 0);
        assert_eq!(m.b_static, 1408);
        assert_eq!(m.r_stream, 800);
        assert_eq!(m.b_stream, 0);
        assert_eq!(m.r_total(), 800);
        assert_eq!(m.b_total(), 1408);
    }

    #[test]
    fn table1_estimate_11x11_case_h() {
        let m = CostEstimate.memory(&plan(11, 11, HybridMode::default()));
        assert_eq!(m.r_stream, 352);
        assert_eq!(m.b_stream, 448);
        assert_eq!(m.r_total(), 352);
        assert_eq!(m.b_total(), 1856);
    }

    #[test]
    fn table1_estimate_1024x1024_case_r() {
        let m = CostEstimate.memory(&plan(1024, 1024, HybridMode::CaseR));
        assert_eq!(m.b_static, 131_072);
        assert_eq!(m.r_stream, 65_632);
        assert_eq!(m.b_stream, 0);
        assert_eq!(m.r_total(), 65_632);
        assert_eq!(m.b_total(), 131_072);
    }

    #[test]
    fn table1_estimate_1024x1024_case_h() {
        let m = CostEstimate.memory(&plan(1024, 1024, HybridMode::default()));
        assert_eq!(m.r_stream, 352);
        assert_eq!(m.b_stream, 65_280);
        assert_eq!(m.b_total(), 196_352);
    }

    #[test]
    fn register_kind_static_buffers_count_as_registers() {
        let p = BufferPlan::analyse(
            GridSpec::d2(11, 11).unwrap(),
            StencilShape::four_point_2d(),
            BoundarySpec::paper_case(),
            PlanStrategy::GlobalWindow,
            HybridMode::CaseR,
            MemKind::Reg,
            32,
        )
        .unwrap();
        let m = CostEstimate.memory(&p);
        assert_eq!(m.r_static, 1408);
        assert_eq!(m.b_static, 0);
    }

    #[test]
    fn total_bits_sums_everything() {
        let p = plan(11, 11, HybridMode::default());
        let m = CostEstimate.memory(&p);
        assert_eq!(CostEstimate.total_bits(&p), m.r_total() + m.b_total());
        assert_eq!(m.as_resources().registers, m.r_total());
        assert_eq!(m.as_resources().bram_bits, m.b_total());
    }
}
