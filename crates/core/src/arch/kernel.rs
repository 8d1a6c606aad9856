//! Computation kernels fed by the Smache tuple stream.

use smache_sim::{GatherTable, ResourceUsage, Word, MAX_GATHER_WIDTH};

/// A combinational reduction over one stencil tuple.
///
/// The Smache module hands the kernel the gathered tuple *positionally*:
/// `values[p]` holds the data of shape point `p` and bit `p` of `mask` is
/// set when that point exists for this element (boundary skips clear the
/// bit and zero the slot). This mirrors the `val_p`/`valid_mask` port
/// interface of the generated RTL, and lets kernels weight points by their
/// position in the shape.
///
/// Kernels must be pure functions of `(values, mask)`: the golden
/// reference evaluates the same function software-side, and the validation
/// suite requires bit-identical results. Schedule replay drives a kernel
/// through [`Kernel::apply_rows`], one call per instance, which must equal
/// `apply` on every tuple bit for bit.
pub trait Kernel {
    /// Kernel name for reports.
    fn name(&self) -> &str;

    /// Computes the output word for one gathered tuple.
    fn apply(&self, values: &[Word], mask: u64) -> Word;

    /// Runs one whole replayed instance over a lane block: for every
    /// element `e` of `rows` and lane `l < lanes`, writes
    /// `next[e * lanes + l]` from the lane's current grid, whose element
    /// `g` is `cur[g * lanes + l]`.
    ///
    /// **Contract:** the result must equal [`Kernel::apply`] on each lane's
    /// gathered tuple (`rows.width()` values, grid slots read from `cur`,
    /// constants from the side list, holes zero) with the element's mask,
    /// bit for bit. Replay makes one call per instance, so the provided
    /// body is compiled for each kernel type with `apply` inlined; a kernel
    /// overrides it only to hoist work out of the lane loop.
    fn apply_rows(&self, rows: &GatherTable, lanes: usize, cur: &[Word], next: &mut [Word]) {
        if lanes == 0 {
            return;
        }
        let mut buf = [0 as Word; MAX_GATHER_WIDTH];
        let values = &mut buf[..rows.width()];
        for (row, out) in rows.rows().zip(next.chunks_exact_mut(lanes)) {
            values.fill(0);
            for c in row.consts {
                values[c.pos as usize] = c.value;
            }
            for (l, o) in out.iter_mut().enumerate() {
                for (&i, &p) in row.index.iter().zip(row.pos) {
                    values[p as usize] = cur[i as usize * lanes + l];
                }
                *o = self.apply(values, row.mask);
            }
        }
    }

    /// Pipeline latency in cycles between tuple input and result output.
    fn latency(&self) -> u64 {
        1
    }

    /// Synthesised footprint of the kernel datapath.
    fn resources(&self) -> ResourceUsage;
}

/// Iterates the present values of a masked tuple.
#[inline]
pub fn present(values: &[Word], mask: u64) -> impl Iterator<Item = Word> + '_ {
    values
        .iter()
        .enumerate()
        .filter(move |(p, _)| mask & (1 << p) != 0)
        .map(|(_, &v)| v)
}

/// Mask bits addressing a `width`-slot tuple.
fn width_mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// `sum / count`, with a divisor the compiler knows for counts 1–9 (a
/// multiply and shift instead of a hardware divide).
#[inline(always)]
fn mean(sum: Word, count: u64) -> Word {
    match count {
        0 => 0,
        1 => sum,
        2 => sum / 2,
        3 => sum / 3,
        4 => sum / 4,
        5 => sum / 5,
        6 => sum / 6,
        7 => sum / 7,
        8 => sum / 8,
        9 => sum / 9,
        c => sum / c,
    }
}

/// Writes each lane's mean of its grid slots plus `base` over `count`
/// points, summing in `u64`: blocks of eight contiguous lanes are summed
/// slot by slot in registers, the remaining lanes one at a time. The
/// caller has proved no sum overflows.
#[inline(always)]
fn mean_lanes(out: &mut [Word], base: Word, count: u64, grid: &[u32], cur: &[Word]) {
    const BLOCK: usize = 8;
    let lanes = out.len();
    let mut blocks = out.chunks_exact_mut(BLOCK);
    for (b, block) in blocks.by_ref().enumerate() {
        let mut acc = [base; BLOCK];
        for &i in grid {
            let src = &cur[i as usize * lanes + b * BLOCK..][..BLOCK];
            for (a, &v) in acc.iter_mut().zip(src) {
                *a += v;
            }
        }
        for (o, a) in block.iter_mut().zip(acc) {
            *o = mean(a, count);
        }
    }
    let done = lanes - lanes % BLOCK;
    for (l, o) in (done..).zip(blocks.into_remainder()) {
        let sum = grid
            .iter()
            .fold(base, |s, &i| s + cur[i as usize * lanes + l]);
        *o = mean(sum, count);
    }
}

/// The paper's validation kernel: a 4-point averaging filter, generalised
/// to the integer mean of however many points the boundary case supplies.
#[derive(Debug, Clone, Copy, Default)]
pub struct AverageKernel;

impl Kernel for AverageKernel {
    fn name(&self) -> &str {
        "average"
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        let count = (mask & width_mask(values.len())).count_ones() as u128;
        if count == 0 {
            return 0;
        }
        let sum: u128 = present(values, mask).map(|v| v as u128).sum();
        (sum / count) as Word
    }

    /// Works out each row's present grid slots, count and constant sum
    /// once for the whole lane block. When one check of the block's
    /// largest possible word (the bitwise OR of every word bounds it)
    /// proves no row sum can reach 2^64, lanes are summed in `u64` over
    /// contiguous lanes and divided by a constant the compiler knows for
    /// counts 1–9; otherwise each lane takes `apply`'s exact `u128` path.
    fn apply_rows(&self, rows: &GatherTable, lanes: usize, cur: &[Word], next: &mut [Word]) {
        if lanes == 0 {
            return;
        }
        let lim = width_mask(rows.width());
        let ceiling =
            cur.iter().fold(0, |a, &w| a | w) | rows.consts().iter().fold(0, |a, c| a | c.value);
        let fits = ceiling as u128 * rows.width() as u128 <= u64::MAX as u128;
        let mut buf = [0u32; MAX_GATHER_WIDTH];
        for (row, out) in rows.rows().zip(next.chunks_exact_mut(lanes)) {
            let mask = row.mask & lim;
            let grid = if rows.all_present() {
                row.index
            } else {
                let mut k = 0;
                for (&i, &p) in row.index.iter().zip(row.pos) {
                    if mask >> p & 1 == 1 {
                        buf[k] = i;
                        k += 1;
                    }
                }
                &buf[..k]
            };
            let consts = row.consts.iter().filter(|c| mask >> c.pos & 1 == 1);
            let count = mask.count_ones() as u64;
            if fits {
                mean_lanes(out, consts.map(|c| c.value).sum(), count, grid, cur);
            } else {
                let base: u128 = consts.map(|c| c.value as u128).sum();
                for (l, o) in out.iter_mut().enumerate() {
                    let sum = grid
                        .iter()
                        .fold(base, |s, &i| s + cur[i as usize * lanes + l] as u128);
                    *o = sum.checked_div(count as u128).unwrap_or(0) as Word;
                }
            }
        }
    }

    fn latency(&self) -> u64 {
        2 // adder tree stage + divide/normalise stage
    }

    fn resources(&self) -> ResourceUsage {
        // Calibrated to the paper's §IV prose: the Smache 11×11 build
        // reports 1088 registers against 998 of buffer+controller state;
        // the ~90-register, ~24-ALM difference is this kernel's pipeline.
        ResourceUsage {
            alms: 24,
            registers: 90,
            bram_bits: 0,
            dsps: 0,
        }
    }
}

/// Sum reduction (wrapping), useful for integral-image style workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumKernel;

impl Kernel for SumKernel {
    fn name(&self) -> &str {
        "sum"
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        present(values, mask).fold(0u64, |a, v| a.wrapping_add(v))
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage {
            alms: 16,
            registers: 64,
            bram_bits: 0,
            dsps: 0,
        }
    }
}

/// Maximum reduction (morphological dilation and similar filters).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxKernel;

impl Kernel for MaxKernel {
    fn name(&self) -> &str {
        "max"
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        present(values, mask).max().unwrap_or(0)
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage {
            alms: 12,
            registers: 48,
            bram_bits: 0,
            dsps: 0,
        }
    }
}

/// A positionally weighted stencil kernel with fixed-point weights:
/// `result = Σ w_p·v_p / Σ w_p` over the *present* points — the masked
/// normalisation keeps boundary cases well-defined (e.g. a Laplacian-style
/// smoother with a heavier centre).
#[derive(Debug, Clone)]
pub struct WeightedKernel {
    name: String,
    weights: Vec<u64>,
}

impl WeightedKernel {
    /// Creates a weighted kernel; `weights[p]` multiplies shape point `p`.
    /// At least one weight must be non-zero.
    pub fn new(name: &str, weights: Vec<u64>) -> Result<Self, crate::CoreError> {
        if weights.is_empty() || weights.iter().all(|&w| w == 0) {
            return Err(crate::CoreError::KernelNeedsNonZeroWeight);
        }
        Ok(WeightedKernel {
            name: name.to_string(),
            weights,
        })
    }

    /// The weight vector.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }
}

impl Kernel for WeightedKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn apply(&self, values: &[Word], mask: u64) -> Word {
        let mut num: u128 = 0;
        let mut den: u128 = 0;
        for (p, &v) in values.iter().enumerate() {
            if mask & (1 << p) != 0 {
                let w = self.weights.get(p).copied().unwrap_or(0) as u128;
                num += w * v as u128;
                den += w;
            }
        }
        num.checked_div(den).unwrap_or(0) as Word
    }

    fn latency(&self) -> u64 {
        3 // multiply, adder tree, normalise
    }

    fn resources(&self) -> ResourceUsage {
        ResourceUsage {
            alms: 30,
            registers: 120,
            bram_bits: 0,
            dsps: self.weights.iter().filter(|&&w| w > 1).count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u64 = 0b1111;

    #[test]
    fn average_is_integer_mean_over_present() {
        assert_eq!(AverageKernel.apply(&[1, 2, 3, 4], ALL), 2); // 10/4
        assert_eq!(AverageKernel.apply(&[10, 20, 30], 0b111), 20);
        assert_eq!(AverageKernel.apply(&[7], 1), 7);
        assert_eq!(AverageKernel.apply(&[], 0), 0);
        // Masked-out points do not count: west (slot 1) absent.
        assert_eq!(AverageKernel.apply(&[9, 999, 3, 3], 0b1101), 5); // 15/3
    }

    #[test]
    fn average_does_not_overflow_on_large_words() {
        let big = u64::MAX - 1;
        assert_eq!(AverageKernel.apply(&[big, big, big, big], ALL), big);
    }

    #[test]
    fn sum_wraps_and_respects_mask() {
        assert_eq!(SumKernel.apply(&[u64::MAX, 2], 0b11), 1);
        assert_eq!(SumKernel.apply(&[1, 2, 3], 0b111), 6);
        assert_eq!(SumKernel.apply(&[1, 2, 3], 0b101), 4);
    }

    #[test]
    fn max_reduction() {
        assert_eq!(MaxKernel.apply(&[3, 9, 1], 0b111), 9);
        assert_eq!(MaxKernel.apply(&[3, 9, 1], 0b101), 3);
        assert_eq!(MaxKernel.apply(&[], 0), 0);
    }

    #[test]
    fn weighted_kernel_normalises_over_present_weights() {
        // Laplacian-ish: centre weight 4, neighbours 1 (5-point order:
        // N, W, centre, E, S).
        let k = WeightedKernel::new("laplace", vec![1, 1, 4, 1, 1]).unwrap();
        // All present: (10+20+4*30+40+50)/8 = 240/8 = 30.
        assert_eq!(k.apply(&[10, 20, 30, 40, 50], 0b11111), 30);
        // West missing: (10+4*30+40+50)/7 = 220/7 = 31.
        assert_eq!(k.apply(&[10, 0, 30, 40, 50], 0b11101), 31);
        assert_eq!(k.apply(&[1, 2, 3, 4, 5], 0), 0);
    }

    #[test]
    fn weighted_kernel_validation() {
        assert!(WeightedKernel::new("w", vec![]).is_err());
        assert!(WeightedKernel::new("w", vec![0, 0]).is_err());
        let k = WeightedKernel::new("w", vec![2, 0, 1]).unwrap();
        assert_eq!(k.weights(), &[2, 0, 1]);
        assert!(k.resources().dsps >= 1);
    }

    #[test]
    fn latencies_and_resources() {
        assert_eq!(AverageKernel.latency(), 2);
        assert_eq!(SumKernel.latency(), 1);
        assert_eq!(AverageKernel.resources().registers, 90);
        assert_eq!(AverageKernel.resources().alms, 24);
    }

    #[test]
    fn present_iterator() {
        let vals = [5u64, 6, 7, 8];
        let got: Vec<u64> = present(&vals, 0b1010).collect();
        assert_eq!(got, vec![6, 8]);
    }

    #[test]
    fn kernels_are_object_safe() {
        let kernels: Vec<Box<dyn Kernel>> = vec![
            Box::new(AverageKernel),
            Box::new(SumKernel),
            Box::new(MaxKernel),
            Box::new(WeightedKernel::new("w", vec![1, 2]).unwrap()),
        ];
        for k in &kernels {
            let _ = k.apply(&[1, 2], 0b11);
            assert!(!k.name().is_empty());
        }
    }
}
