//! SIMD microkernels for the native backend.
//!
//! Two kernel families, matching the `SIMD_NNZ_LANES` / `SIMD_ROW_LANES`
//! mapping operators:
//!
//! * **nnz-lane dots** — `lanes` consecutive non-zeros of one row are
//!   processed per step; column indices load as a vector, `x` entries are
//!   **gathered**, and a fixed-shape horizontal-add tree folds the lane
//!   partials into the row result.  On AVX2 this is `_mm256_i32gather_ps`
//!   (8 lanes) / `_mm_i32gather_ps` (4 lanes); on NEON the gather is emulated
//!   with lane loads; everywhere else a portable multi-accumulator loop with
//!   the **same accumulation tree** runs instead — so hardware and portable
//!   paths are bit-compatible lane for lane.
//! * **row-lane dots** — `lanes` adjacent rows are accumulated together, one
//!   independent accumulator chain per lane.  Each lane walks its row in the
//!   same serial order as the scalar kernel (bitwise-identical results); the
//!   win is instruction-level parallelism from `lanes` independent FP chains
//!   instead of one serial dependency chain.
//!
//! Both families accept a software **prefetch distance** (in non-zeros): the
//! value/index streams — and, for nnz-lanes, the gathered `x` target — are
//! prefetched that far ahead.  On targets without a stable prefetch intrinsic
//! (aarch64) the distance is accepted and ignored.
//!
//! All multiply-accumulate steps use separate multiply and add (no FMA), so
//! every backend computing the same lane schedule produces identical bits.

use crate::cpu_features;
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::cpu_features::SimdSupport;
use crate::specialized::SimdClass;
use alpha_graph::{SimdLaneMapping, SimdPlan};
use alpha_matrix::Scalar;

/// Widest lane count any backend supports.
pub const MAX_LANES: usize = 8;

/// How a kernel build decides between vectorized and scalar execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Follow the design's [`SimdPlan`], the hardware probe, and the
    /// [`cpu_features::NO_SIMD_ENV`] override.
    #[default]
    Auto,
    /// Ignore the plan and execute every partition scalar — used by benches
    /// to build a scalar twin of a vectorized kernel without touching the
    /// process environment.
    ForceScalar,
}

/// Lane width of a vectorized kernel: the only widths the lane kernels
/// implement.  A closed set, so a shape with an unimplemented width cannot
/// be constructed, let alone reach the kernel library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lanes {
    /// Two lanes (portable kernels only — a gather would not pay).
    X2,
    /// Four lanes.
    X4,
    /// Eight lanes.
    X8,
}

impl Lanes {
    /// The width for a plan's lane count; `None` outside {2, 4, 8}.
    pub fn from_count(lanes: usize) -> Option<Lanes> {
        match lanes {
            2 => Some(Lanes::X2),
            4 => Some(Lanes::X4),
            8 => Some(Lanes::X8),
            _ => None,
        }
    }

    /// The lane count as a number.
    pub fn count(self) -> usize {
        match self {
            Lanes::X2 => 2,
            Lanes::X4 => 4,
            Lanes::X8 => 8,
        }
    }

    /// The hardware-gather width this lane count maps to, if any.
    pub fn gather(self) -> Option<GatherLanes> {
        match self {
            Lanes::X2 => None,
            Lanes::X4 => Some(GatherLanes::X4),
            Lanes::X8 => Some(GatherLanes::X8),
        }
    }
}

/// Lane width of a hardware-gather kernel (AVX2 / NEON), which exist only at
/// four and eight lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatherLanes {
    /// Four lanes.
    X4,
    /// Eight lanes.
    X8,
}

impl GatherLanes {
    /// The lane count as a number.
    pub fn count(self) -> usize {
        match self {
            GatherLanes::X4 => 4,
            GatherLanes::X8 => 8,
        }
    }
}

/// The vectorization decision for one partition, resolved once at kernel
/// build time from the design's [`SimdPlan`], the [`SimdMode`], and the
/// host's [`cpu_features`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedSimd {
    /// The lane kernel the plan resolved to on this host, backend and lane
    /// width included ([`SimdClass::Scalar`] = scalar execution).
    pub class: SimdClass,
    /// Prefetch distance in non-zeros (0 = no software prefetch).
    pub prefetch: usize,
}

/// Counts a vectorized plan resolving to scalar execution on the
/// process-wide registry (`cpu_simd_fallback_total{reason=...}`): `"forced"`
/// for an explicit [`SimdMode::ForceScalar`] / env override, `"lanes"` for a
/// lane width no backend implements.  Resolution happens once per kernel
/// build, so a direct registry lookup is cheap enough here.
fn count_simd_fallback(reason: &'static str) {
    alpha_telemetry::global()
        .counter("cpu_simd_fallback_total", &[("reason", reason)])
        .inc();
}

impl ResolvedSimd {
    /// Plain scalar execution (the pre-SIMD native backend).
    pub fn scalar() -> Self {
        ResolvedSimd {
            class: SimdClass::Scalar,
            prefetch: 0,
        }
    }

    /// Effective lane count (1 = scalar execution).
    pub fn lanes(&self) -> usize {
        self.class.lanes()
    }

    /// True when lane kernels (rather than the scalar loop) will run.
    pub fn is_vectorized(&self) -> bool {
        self.class != SimdClass::Scalar
    }

    /// Resolves a design's plan for this host.  Fallback rules:
    /// `ForceScalar` or the env override pin everything scalar; row-lane
    /// kernels are always portable (their win is independent accumulator
    /// chains, not vector loads); nnz-lane kernels use hardware gathers for
    /// 4/8 lanes when available and portable lane code otherwise; lane
    /// widths outside {2, 4, 8} run scalar.
    pub fn resolve(plan: &SimdPlan, mode: SimdMode) -> ResolvedSimd {
        if !plan.is_vectorized() {
            return ResolvedSimd::scalar();
        }
        if mode == SimdMode::ForceScalar || cpu_features::force_scalar() {
            count_simd_fallback("forced");
            return ResolvedSimd::scalar();
        }
        let Some(lanes) = Lanes::from_count(plan.lanes) else {
            count_simd_fallback("lanes");
            return ResolvedSimd::scalar();
        };
        let class = match plan.lane_mapping {
            SimdLaneMapping::Rows => SimdClass::RowLanes { lanes },
            SimdLaneMapping::Nnz => match (cpu_features::detect_hardware(), lanes.gather()) {
                #[cfg(target_arch = "x86_64")]
                (SimdSupport::Avx2, Some(lanes)) => SimdClass::NnzAvx2 { lanes },
                #[cfg(target_arch = "aarch64")]
                (SimdSupport::Neon, Some(lanes)) => SimdClass::NnzNeon { lanes },
                _ => SimdClass::NnzPortable { lanes },
            },
        };
        ResolvedSimd {
            class,
            prefetch: plan.prefetch_distance,
        }
    }

    /// Compact label for bench records, e.g. `avx2-nnz-x8+pf16`,
    /// `portable-row-x4`, or `scalar`.
    pub fn label(&self) -> String {
        let kernel = match self.class {
            SimdClass::Scalar => return "scalar".to_string(),
            SimdClass::RowLanes { lanes } => format!("portable-row-x{}", lanes.count()),
            class => class.label(),
        };
        if self.prefetch > 0 {
            format!("{kernel}+pf{}", self.prefetch)
        } else {
            kernel
        }
    }
}

/// Prefetches the cache line holding `ptr` into all cache levels.  No-op on
/// targets without a stable prefetch intrinsic.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        // SAFETY: prefetch is a hint; it never faults, even on wild pointers.
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
    }
}

/// Prefetches the value/index streams — and the gathered `x` target — at
/// `idx + distance`, clamped to the stream end.
#[inline(always)]
fn prefetch_streams(
    values: &[Scalar],
    col_indices: &[u32],
    x: &[Scalar],
    col_offset: usize,
    idx: usize,
    end: usize,
    distance: usize,
) {
    if distance == 0 {
        return;
    }
    let ahead = (idx + distance).min(end.saturating_sub(1));
    prefetch_read(&values[ahead]);
    prefetch_read(&col_indices[ahead]);
    // The x gather is the cache-miss magnet: prefetch its future target too.
    prefetch_read(&x[col_indices[ahead] as usize + col_offset]);
}

/// The fixed horizontal-add tree every backend uses for `L` lane partials:
/// fold the upper half onto the lower until one value remains.  For L=8 this
/// is `((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7))` — exactly the shape of the
/// AVX2 `extract_hi + movehl + shuffle` sequence.
#[inline(always)]
fn hsum_tree<const L: usize>(acc: &[Scalar; L]) -> Scalar {
    let mut folded = *acc;
    let mut width = L;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            folded[i] += folded[i + width];
        }
        // After the first fold of 8 lanes the live values are
        // [a0+a4, a1+a5, a2+a6, a3+a7]; the next folds pair (0,2) and (1,3),
        // which the loop above expresses as folded[i] += folded[i+width].
    }
    folded[0]
}

/// Portable nnz-lane dot over `[start, end)`: `L` independent accumulators
/// stride the row, the tail accumulates serially, and `hsum_tree` folds the
/// lanes.  Bit-compatible with the AVX2/NEON implementations of the same `L`.
pub fn row_dot_nnz_portable<const L: usize>(
    values: &[Scalar],
    col_indices: &[u32],
    x: &[Scalar],
    col_offset: usize,
    start: usize,
    end: usize,
    prefetch: usize,
) -> Scalar {
    let mut acc = [0.0 as Scalar; L];
    let mut i = start;
    while i + L <= end {
        prefetch_streams(values, col_indices, x, col_offset, i, end, prefetch);
        for l in 0..L {
            acc[l] += values[i + l] * x[col_indices[i + l] as usize + col_offset];
        }
        i += L;
    }
    let mut tail = 0.0 as Scalar;
    for j in i..end {
        tail += values[j] * x[col_indices[j] as usize + col_offset];
    }
    hsum_tree(&acc) + tail
}

/// Portable row-lane dot: each of the `L` lanes accumulates one row of
/// `ranges` serially (the exact order of the scalar kernel, so results are
/// bitwise identical to it); interleaving the lanes gives `L` independent FP
/// dependency chains.
pub fn rows_dot_row_lanes<const L: usize>(
    values: &[Scalar],
    col_indices: &[u32],
    x: &[Scalar],
    col_offset: usize,
    ranges: &[(usize, usize); L],
    out: &mut [Scalar; L],
    prefetch: usize,
) {
    let min_len = ranges.iter().map(|&(s, e)| e - s).min().unwrap_or(0);
    let mut acc = [0.0 as Scalar; L];
    for k in 0..min_len {
        if prefetch > 0 {
            // One stream prefetch per step, on the lane furthest ahead.
            let i = ranges[L - 1].0 + k;
            prefetch_streams(
                values,
                col_indices,
                x,
                col_offset,
                i,
                ranges[L - 1].1,
                prefetch,
            );
        }
        for l in 0..L {
            let i = ranges[l].0 + k;
            acc[l] += values[i] * x[col_indices[i] as usize + col_offset];
        }
    }
    for l in 0..L {
        for i in ranges[l].0 + min_len..ranges[l].1 {
            acc[l] += values[i] * x[col_indices[i] as usize + col_offset];
        }
        out[l] = acc[l];
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{prefetch_streams, Scalar};
    use std::arch::x86_64::*;

    /// 8-lane nnz dot via `_mm256_i32gather_ps`.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at resolve time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_dot_nnz8(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
        prefetch: usize,
    ) -> Scalar {
        let mut acc = _mm256_setzero_ps();
        let offset = _mm256_set1_epi32(col_offset as i32);
        let mut i = start;
        while i + 8 <= end {
            prefetch_streams(values, col_indices, x, col_offset, i, end, prefetch);
            let v = _mm256_loadu_ps(values.as_ptr().add(i));
            let idx = _mm256_loadu_si256(col_indices.as_ptr().add(i) as *const __m256i);
            let idx = _mm256_add_epi32(idx, offset);
            // Gather x[col + col_offset] for all 8 lanes; every index is a
            // valid in-bounds column, the same loads the scalar loop issues.
            let gathered = _mm256_i32gather_ps::<4>(x.as_ptr(), idx);
            // mul + add (not FMA) keeps bits identical to the portable path.
            acc = _mm256_add_ps(acc, _mm256_mul_ps(v, gathered));
            i += 8;
        }
        let mut tail = 0.0 as Scalar;
        for j in i..end {
            tail += values[j] * x[col_indices[j] as usize + col_offset];
        }
        // Horizontal add with the shared tree shape:
        // q = lo + hi; d = [q0+q2, q1+q3]; result = d0 + d1.
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let q = _mm_add_ps(lo, hi);
        let d = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let r = _mm_add_ss(d, _mm_shuffle_ps::<0b01>(d, d));
        _mm_cvtss_f32(r) + tail
    }

    /// 4-lane nnz dot via `_mm_i32gather_ps`.
    ///
    /// # Safety
    /// The caller must have verified AVX2 support at resolve time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn row_dot_nnz4(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
        prefetch: usize,
    ) -> Scalar {
        let mut acc = _mm_setzero_ps();
        let offset = _mm_set1_epi32(col_offset as i32);
        let mut i = start;
        while i + 4 <= end {
            prefetch_streams(values, col_indices, x, col_offset, i, end, prefetch);
            let v = _mm_loadu_ps(values.as_ptr().add(i));
            let idx = _mm_loadu_si128(col_indices.as_ptr().add(i) as *const __m128i);
            let idx = _mm_add_epi32(idx, offset);
            let gathered = _mm_i32gather_ps::<4>(x.as_ptr(), idx);
            acc = _mm_add_ps(acc, _mm_mul_ps(v, gathered));
            i += 4;
        }
        let mut tail = 0.0 as Scalar;
        for j in i..end {
            tail += values[j] * x[col_indices[j] as usize + col_offset];
        }
        let d = _mm_add_ps(acc, _mm_movehl_ps(acc, acc));
        let r = _mm_add_ss(d, _mm_shuffle_ps::<0b01>(d, d));
        _mm_cvtss_f32(r) + tail
    }
}

#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use super::Scalar;
    use std::arch::aarch64::*;

    /// Gathers 4 `x` entries through the column-index stream into one NEON
    /// register (aarch64 has no hardware gather).
    ///
    /// # Safety
    /// `col_indices[i..i + 4]` must be in bounds and every indexed `x` entry
    /// valid — the same accesses the scalar loop performs.
    #[inline(always)]
    unsafe fn gather4(
        x: &[Scalar],
        col_indices: &[u32],
        col_offset: usize,
        i: usize,
    ) -> float32x4_t {
        let g = [
            x[col_indices[i] as usize + col_offset],
            x[col_indices[i + 1] as usize + col_offset],
            x[col_indices[i + 2] as usize + col_offset],
            x[col_indices[i + 3] as usize + col_offset],
        ];
        vld1q_f32(g.as_ptr())
    }

    /// Folds one NEON register with the shared tree shape:
    /// `d = [a0+a2, a1+a3]; result = d0 + d1`.
    #[inline(always)]
    unsafe fn hsum4(acc: float32x4_t) -> Scalar {
        let d = vadd_f32(vget_low_f32(acc), vget_high_f32(acc));
        vget_lane_f32::<0>(d) + vget_lane_f32::<1>(d)
    }

    /// 4-lane nnz dot (NEON vectors, emulated gather).
    ///
    /// # Safety
    /// The caller must have verified NEON support at resolve time.
    #[target_feature(enable = "neon")]
    pub unsafe fn row_dot_nnz4(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
        _prefetch: usize,
    ) -> Scalar {
        let mut acc = vdupq_n_f32(0.0);
        let mut i = start;
        while i + 4 <= end {
            let v = vld1q_f32(values.as_ptr().add(i));
            let g = gather4(x, col_indices, col_offset, i);
            acc = vaddq_f32(acc, vmulq_f32(v, g));
            i += 4;
        }
        let mut tail = 0.0 as Scalar;
        for j in i..end {
            tail += values[j] * x[col_indices[j] as usize + col_offset];
        }
        hsum4(acc) + tail
    }

    /// 8-lane nnz dot: two NEON registers per step, folded with the 8-wide
    /// tree (`lo + hi` first, then the 4-wide tree).
    ///
    /// # Safety
    /// The caller must have verified NEON support at resolve time.
    #[target_feature(enable = "neon")]
    pub unsafe fn row_dot_nnz8(
        values: &[Scalar],
        col_indices: &[u32],
        x: &[Scalar],
        col_offset: usize,
        start: usize,
        end: usize,
        _prefetch: usize,
    ) -> Scalar {
        let mut acc_lo = vdupq_n_f32(0.0);
        let mut acc_hi = vdupq_n_f32(0.0);
        let mut i = start;
        while i + 8 <= end {
            let v_lo = vld1q_f32(values.as_ptr().add(i));
            let v_hi = vld1q_f32(values.as_ptr().add(i + 4));
            let g_lo = gather4(x, col_indices, col_offset, i);
            let g_hi = gather4(x, col_indices, col_offset, i + 4);
            acc_lo = vaddq_f32(acc_lo, vmulq_f32(v_lo, g_lo));
            acc_hi = vaddq_f32(acc_hi, vmulq_f32(v_hi, g_hi));
            i += 8;
        }
        let mut tail = 0.0 as Scalar;
        for j in i..end {
            tail += values[j] * x[col_indices[j] as usize + col_offset];
        }
        hsum4(vaddq_f32(acc_lo, acc_hi)) + tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streams(n: usize, cols: usize, seed: u64) -> (Vec<Scalar>, Vec<u32>, Vec<Scalar>) {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let values: Vec<Scalar> = (0..n)
            .map(|_| (next() % 1000) as Scalar / 500.0 - 1.0)
            .collect();
        let col_indices: Vec<u32> = (0..n).map(|_| (next() % cols as u64) as u32).collect();
        let x: Vec<Scalar> = (0..cols)
            .map(|_| (next() % 1000) as Scalar / 250.0 - 2.0)
            .collect();
        (values, col_indices, x)
    }

    fn scalar_dot(values: &[Scalar], cols: &[u32], x: &[Scalar], s: usize, e: usize) -> Scalar {
        let mut acc = 0.0;
        for i in s..e {
            acc += values[i] * x[cols[i] as usize];
        }
        acc
    }

    #[test]
    fn portable_lane_dots_match_scalar_within_tolerance() {
        let (values, cols, x) = streams(513, 97, 42);
        for end in [0, 1, 5, 8, 13, 64, 513] {
            let reference = scalar_dot(&values, &cols, &x, 0, end);
            for (l, got) in [
                (
                    2,
                    row_dot_nnz_portable::<2>(&values, &cols, &x, 0, 0, end, 0),
                ),
                (
                    4,
                    row_dot_nnz_portable::<4>(&values, &cols, &x, 0, 0, end, 4),
                ),
                (
                    8,
                    row_dot_nnz_portable::<8>(&values, &cols, &x, 0, 0, end, 16),
                ),
            ] {
                assert!(
                    (got - reference).abs() <= 1e-3 * reference.abs().max(1.0),
                    "lanes={l} end={end}: {got} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn hardware_and_portable_nnz_lanes_are_bit_identical() {
        let (values, cols, x) = streams(1027, 211, 7);
        for lanes in [4usize, 8] {
            for end in [3, 7, 8, 9, 64, 1000, 1027] {
                let portable = match lanes {
                    4 => row_dot_nnz_portable::<4>(&values, &cols, &x, 0, 0, end, 0),
                    _ => row_dot_nnz_portable::<8>(&values, &cols, &x, 0, 0, end, 0),
                };
                let hw_dot = match cpu_features::detect_hardware() {
                    // SAFETY: the probe just reported AVX2.
                    #[cfg(target_arch = "x86_64")]
                    SimdSupport::Avx2 => unsafe {
                        match lanes {
                            4 => avx2::row_dot_nnz4(&values, &cols, &x, 0, 0, end, 8),
                            _ => avx2::row_dot_nnz8(&values, &cols, &x, 0, 0, end, 8),
                        }
                    },
                    // SAFETY: the probe just reported NEON.
                    #[cfg(target_arch = "aarch64")]
                    SimdSupport::Neon => unsafe {
                        match lanes {
                            4 => neon::row_dot_nnz4(&values, &cols, &x, 0, 0, end, 8),
                            _ => neon::row_dot_nnz8(&values, &cols, &x, 0, 0, end, 8),
                        }
                    },
                    _ => return, // nothing to compare on this host
                };
                assert_eq!(
                    hw_dot.to_bits(),
                    portable.to_bits(),
                    "lanes={lanes} end={end}: hardware {hw_dot} != portable {portable}"
                );
            }
        }
    }

    #[test]
    fn row_lane_dots_are_bitwise_scalar() {
        let (values, cols, x) = streams(256, 64, 9);
        // Four rows of unequal lengths starting back-to-back.
        let ranges = [(0usize, 13usize), (13, 13), (13, 40), (40, 96)];
        let mut out = [0.0 as Scalar; 4];
        rows_dot_row_lanes::<4>(&values, &cols, &x, 0, &ranges, &mut out, 8);
        for (l, &(s, e)) in ranges.iter().enumerate() {
            let reference = scalar_dot(&values, &cols, &x, s, e);
            assert_eq!(
                out[l].to_bits(),
                reference.to_bits(),
                "lane {l}: {} != scalar {reference}",
                out[l]
            );
        }
    }

    #[test]
    fn hsum_tree_matches_documented_shape() {
        let acc = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        // ((1+16)+(4+64)) + ((2+32)+(8+128)) = 255 for these powers of two.
        assert_eq!(hsum_tree::<8>(&acc), 255.0);
        assert_eq!(hsum_tree::<4>(&[1.0, 2.0, 4.0, 8.0]), 15.0);
        assert_eq!(hsum_tree::<2>(&[1.5, 2.5]), 4.0);
    }

    #[test]
    fn resolve_honours_mode_and_plan() {
        let vec_plan = SimdPlan {
            lanes: 8,
            lane_mapping: SimdLaneMapping::Nnz,
            prefetch_distance: 16,
        };
        let forced = ResolvedSimd::resolve(&vec_plan, SimdMode::ForceScalar);
        assert!(!forced.is_vectorized());
        assert_eq!(forced.label(), "scalar");

        let auto = ResolvedSimd::resolve(&vec_plan, SimdMode::Auto);
        if !cpu_features::force_scalar() {
            assert_eq!(auto.lanes(), 8);
            assert_eq!(auto.prefetch, 16);
            assert!(auto.label().contains("nnz-x8"));
        }

        let scalar_plan = SimdPlan::scalar();
        assert!(!ResolvedSimd::resolve(&scalar_plan, SimdMode::Auto).is_vectorized());

        // Row lanes resolve to the portable backend everywhere.
        let row_plan = SimdPlan {
            lanes: 4,
            lane_mapping: SimdLaneMapping::Rows,
            prefetch_distance: 0,
        };
        let row = ResolvedSimd::resolve(&row_plan, SimdMode::Auto);
        if !cpu_features::force_scalar() {
            assert_eq!(row.class, SimdClass::RowLanes { lanes: Lanes::X4 });
            assert_eq!(row.label(), "portable-row-x4");
        }
    }

    #[test]
    fn nan_propagates_through_the_horizontal_add() {
        let (values, mut cols, mut x) = streams(64, 32, 11);
        x[5] = Scalar::NAN;
        cols[17] = 5; // one lane in the middle hits the NaN
        let got = row_dot_nnz_portable::<8>(&values, &cols, &x, 0, 0, 64, 0);
        assert!(got.is_nan(), "NaN must survive the lane reduction tree");
    }
}
