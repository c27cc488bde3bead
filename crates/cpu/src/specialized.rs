//! The monomorphized kernel library: branch-free specialized SpMV loops.
//!
//! A machine-designed format deserves a loop with every design decision
//! compiled in — `emit_rust` already prints the exact straight-line loop for
//! the chosen design; this module is where an equivalent loop actually
//! *runs*, and it is the only executor [`crate::NativeKernel`] has.
//!
//! The library is generated at build time by the compiler's monomorphizer:
//! every combination of
//!
//! * partition strategy ([`PartitionKind::Rows`] / [`PartitionKind::Nnz`]),
//! * row-bounds index-fn kind (stored table vs affine/identity arithmetic),
//! * SIMD variant ([`SimdClass`]: scalar, portable/AVX2/NEON nnz lanes,
//!   row lanes) and
//! * prefetch class
//!
//! is instantiated as one dedicated function (`chunk_nnz::<TB, D>`,
//! `chunk_row_lanes::<TB, L>`, `span_nnz::<D>`, `scatter_to::<TB>`) in which
//! the index arithmetic is inlined as constants/affine expressions and every
//! enum match is hoisted entirely out of the loop.  `specialize` maps a
//! [`KernelShape`] computed at kernel build to the library entry's function
//! pointers.  It is total: lane widths are closed enums ([`Lanes`],
//! [`GatherLanes`]) and hardware variants exist only on their target, so its
//! match has no wildcard arm and a shape without a library entry does not
//! compile.
//!
//! Non-affine compressions ([`IndexKind::Model`] — step/periodic models or
//! models with patched exceptions) are covered by *materialisation*: the
//! kernel builder evaluates the closed-form model over its whole domain into
//! a lookup table once at build time and the shape takes the table
//! instantiation, trading memory for a branch-free hot loop.
//!
//! Scalar shapes accumulate each row serially in stream order, like the
//! reference CSR product; vectorized shapes reorder the reduction and match
//! it to the tolerance the differential suites enforce.

use crate::simd::{self, GatherLanes, Lanes, ResolvedSimd};
use alpha_matrix::Scalar;

/// The lowered kind of one format index array — the dimension of the shape
/// lattice that decides how the specialized loop addresses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// `f(i) = i` (compressed identity).
    Identity,
    /// `f(i) = base + slope * i` (fitted linear model, no exceptions).
    Affine,
    /// A stored array; loads are real.
    Table,
    /// Any other fitted model (step/periodic or patched exceptions) —
    /// materialised into a table at kernel build, so it runs the table
    /// instantiation.
    Model,
}

impl IndexKind {
    /// Classifies a lowered [`crate::IndexFn`].
    pub fn of(f: &crate::IndexFn) -> IndexKind {
        match f {
            crate::IndexFn::Identity => IndexKind::Identity,
            crate::IndexFn::Affine { .. } => IndexKind::Affine,
            crate::IndexFn::Model(_) => IndexKind::Model,
            crate::IndexFn::Table(_) => IndexKind::Table,
        }
    }

    fn label(self) -> &'static str {
        match self {
            IndexKind::Identity => "id",
            IndexKind::Affine => "affine",
            IndexKind::Table => "table",
            IndexKind::Model => "model",
        }
    }
}

/// Partition strategy dimension of the shape lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// Row-partition loop (`BMT_ROW_BLOCK` / `BMT_COL_BLOCK` designs).
    Rows,
    /// Nnz-partition loop (`BMT_NNZ_BLOCK` designs).
    Nnz,
}

/// The SIMD variant dimension: which inner-loop dot kernel the shape runs.
/// [`ResolvedSimd::class`] holds the variant a design's plan resolved to;
/// a partition's shape holds the variant it *executes* — a row-lane plan on
/// an nnz partition runs its segments scalar, so it classifies as
/// [`SimdClass::Scalar`] there even though the kernel's SIMD label still
/// names the plan.
///
/// Hardware variants exist only on the target that implements them, so
/// every constructible class has a library entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdClass {
    /// Plain scalar accumulation.
    Scalar,
    /// Portable nnz-lane dot with `lanes` accumulators.
    NnzPortable {
        /// Lane count.
        lanes: Lanes,
    },
    /// AVX2 hardware-gather nnz-lane dot.
    #[cfg(target_arch = "x86_64")]
    NnzAvx2 {
        /// Lane count.
        lanes: GatherLanes,
    },
    /// NEON nnz-lane dot with emulated gathers.
    #[cfg(target_arch = "aarch64")]
    NnzNeon {
        /// Lane count.
        lanes: GatherLanes,
    },
    /// Row-lane groups: `lanes` adjacent rows advance together.
    RowLanes {
        /// Lane count.
        lanes: Lanes,
    },
}

impl SimdClass {
    /// The variant a partition executes under the resolved decision `rs`.
    /// `rows_path` says whether the partition executes the row-partition
    /// loop (row-lane kernels only exist there).
    pub fn classify(rs: &ResolvedSimd, rows_path: bool) -> SimdClass {
        match rs.class {
            SimdClass::RowLanes { .. } if !rows_path => SimdClass::Scalar,
            class => class,
        }
    }

    /// Lane count (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            SimdClass::Scalar => 1,
            SimdClass::NnzPortable { lanes } | SimdClass::RowLanes { lanes } => lanes.count(),
            #[cfg(target_arch = "x86_64")]
            SimdClass::NnzAvx2 { lanes } => lanes.count(),
            #[cfg(target_arch = "aarch64")]
            SimdClass::NnzNeon { lanes } => lanes.count(),
        }
    }

    /// Shape-label form, e.g. `avx2-nnz-x8` or `row-x4`.
    pub(crate) fn label(self) -> String {
        match self {
            SimdClass::Scalar => "scalar".to_string(),
            SimdClass::NnzPortable { lanes } => format!("portable-nnz-x{}", lanes.count()),
            #[cfg(target_arch = "x86_64")]
            SimdClass::NnzAvx2 { lanes } => format!("avx2-nnz-x{}", lanes.count()),
            #[cfg(target_arch = "aarch64")]
            SimdClass::NnzNeon { lanes } => format!("neon-nnz-x{}", lanes.count()),
            SimdClass::RowLanes { lanes } => format!("row-x{}", lanes.count()),
        }
    }
}

/// Software-prefetch dimension of the shape lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchClass {
    /// No software prefetch.
    None,
    /// Stream prefetch at the design's distance (the distance itself is a
    /// runtime parameter; the *class* decides whether the loop contains
    /// prefetch instructions at all).
    Stream,
}

/// The shape descriptor of one lowered partition: the coordinates in the
/// shape lattice that pick a monomorphized library kernel.  Two kernels with
/// equal shapes run byte-identical inner loops regardless of which matrix
/// they were designed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelShape {
    /// Partition strategy.
    pub partition: PartitionKind,
    /// Kind of the row-bounds map: `row_offsets` for row partitions,
    /// `bmt_row_starts` for nnz partitions (where it is resolved once per
    /// worker span, so a [`IndexKind::Model`] here does not disqualify the
    /// shape).
    pub bounds: IndexKind,
    /// Kind of the `origin_rows` map (output placement).
    pub origin: IndexKind,
    /// Kind of the column-index stream.  Always [`IndexKind::Table`] today —
    /// column indices are raw streams on the partition's sub-matrix — but
    /// part of the descriptor so a future compressed-column design widens
    /// the lattice instead of silently colliding with existing shapes.
    pub col_index: IndexKind,
    /// Executed SIMD variant.
    pub simd: SimdClass,
    /// Prefetch class.
    pub prefetch: PrefetchClass,
}

impl KernelShape {
    /// Stable, compact label, e.g.
    /// `rows[off:table,org:id,col:table]:avx2-nnz-x8+pf`.  This string is
    /// what travels through search results, the design store and bench
    /// records.
    pub fn label(&self) -> String {
        let partition = match self.partition {
            PartitionKind::Rows => "rows",
            PartitionKind::Nnz => "nnz",
        };
        let pf = match self.prefetch {
            PrefetchClass::None => "",
            PrefetchClass::Stream => "+pf",
        };
        format!(
            "{partition}[off:{},org:{},col:{}]:{}{pf}",
            self.bounds.label(),
            self.origin.label(),
            self.col_index.label(),
            self.simd.label()
        )
    }
}

/// The `cpu_kernel_fallback_total` invariant: kernel builds that missed the
/// specialized library.  Always 0 — `specialize` is total — and kept as
/// public API because benchmarks and the daemon's job summaries report it.
pub fn kernel_fallback_total() -> u64 {
    0
}

// ---------------------------------------------------------------------------
// Runtime arguments of a specialized loop
// ---------------------------------------------------------------------------

/// The runtime parameters of one partition's specialized loops.  Everything
/// *structural* (which fields are read, how bounds are computed, which dot
/// kernel runs) is baked into the monomorphized function; this struct only
/// carries the data the chosen instantiation reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartitionArgs<'a> {
    /// Value stream of the partition's sub-matrix.
    pub values: &'a [Scalar],
    /// Column-index stream.
    pub col_indices: &'a [u32],
    /// Input vector.
    pub x: &'a [Scalar],
    /// Column offset of a `COL_DIV` branch.
    pub col_offset: usize,
    /// Stored row bounds (empty unless the shape's bounds kind is `Table`).
    pub bounds_table: &'a [u32],
    /// Affine bounds base (identity is `base 0, slope 1`).
    pub bounds_base: i64,
    /// Affine bounds slope.
    pub bounds_slope: i64,
    /// Prefetch distance in non-zeros (0 under [`PrefetchClass::None`]).
    pub prefetch: usize,
}

/// Runtime parameters of a specialized scatter.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScatterArgs<'a> {
    /// Stored origin map (empty unless the origin kind is `Table`).
    pub table: &'a [u32],
    /// Affine origin base.
    pub base: i64,
    /// Affine origin slope.
    pub slope: i64,
}

/// One worker chunk of a row partition: accumulate rows
/// `[first, first + out.len())` into `out`.
pub(crate) type ChunkFn = fn(&PartitionArgs<'_>, usize, &mut [Scalar]);

/// One worker span of an nnz partition: emit one partial per row segment of
/// `[start, end)`, starting at `row0` (the span's pre-resolved first row).
pub(crate) type SpanFn = fn(&PartitionArgs<'_>, &[u32], usize, usize, usize) -> Vec<Scalar>;

/// Merge partial sums into `y` through the origin map (`+=` semantics).
pub(crate) type ScatterFn = fn(&ScatterArgs<'_>, usize, &[Scalar], &mut [Scalar]);

/// The library entry a matched shape resolves to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SpecExec {
    /// Row-partition chunk loop.
    Rows(ChunkFn),
    /// Nnz-partition span loop.
    Nnz(SpanFn),
}

/// A partition's pre-resolved specialized functions: computed once at kernel
/// build, called through plain function pointers at run time (one indirect
/// call per worker chunk/span — never per row or per non-zero).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpecializedPartition {
    /// The inner-loop kernel.
    pub exec: SpecExec,
    /// The output merge (used when the origin map is not contiguous; the
    /// contiguous case accumulates in place and never scatters).
    pub scatter: ScatterFn,
}

// ---------------------------------------------------------------------------
// The monomorphized loop bodies
// ---------------------------------------------------------------------------

/// Row bounds, monomorphized on storage kind: `TB = true` reads the stored
/// offsets table (two adjacent loads), `TB = false` computes the affine form
/// (identity is `base 0, slope 1`) — pure arithmetic, no enum in sight.
#[inline(always)]
fn row_range<const TB: bool>(a: &PartitionArgs<'_>, row: usize) -> (usize, usize) {
    if TB {
        (
            a.bounds_table[row] as usize,
            a.bounds_table[row + 1] as usize,
        )
    } else {
        let start = a.bounds_base + a.bounds_slope * row as i64;
        (start as usize, (start + a.bounds_slope) as usize)
    }
}

/// The inner dot product of one row (or row segment), monomorphized on the
/// SIMD variant.  Implementations call straight into the backend kernel, so
/// no backend match runs per row.
trait Dot {
    /// Dot of stream positions `[start, end)` against `x`.
    fn dot(a: &PartitionArgs<'_>, start: usize, end: usize) -> Scalar;
}

/// Scalar accumulation: one serial chain in stream order.
struct DotScalar;

impl Dot for DotScalar {
    #[inline(always)]
    fn dot(a: &PartitionArgs<'_>, start: usize, end: usize) -> Scalar {
        let mut acc = 0.0;
        for idx in start..end {
            acc += a.values[idx] * a.x[a.col_indices[idx] as usize + a.col_offset];
        }
        acc
    }
}

/// Portable nnz-lane dot with `L` accumulators.
struct DotNnzPortable<const L: usize>;

impl<const L: usize> Dot for DotNnzPortable<L> {
    #[inline(always)]
    fn dot(a: &PartitionArgs<'_>, start: usize, end: usize) -> Scalar {
        simd::row_dot_nnz_portable::<L>(
            a.values,
            a.col_indices,
            a.x,
            a.col_offset,
            start,
            end,
            a.prefetch,
        )
    }
}

#[cfg(target_arch = "x86_64")]
mod hw {
    use super::{Dot, PartitionArgs, Scalar};
    use crate::simd;

    /// AVX2 8-lane gather dot.  Only reachable through shapes whose
    /// [`super::SimdClass::NnzAvx2`] came from a resolve that verified AVX2
    /// support at runtime.
    pub(super) struct DotAvx2x8;

    impl Dot for DotAvx2x8 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, start: usize, end: usize) -> Scalar {
            // SAFETY: shapes classify as NnzAvx2 only when ResolvedSimd
            // carried Backend::Avx2, which requires a positive runtime probe.
            unsafe {
                simd::avx2::row_dot_nnz8(
                    a.values,
                    a.col_indices,
                    a.x,
                    a.col_offset,
                    start,
                    end,
                    a.prefetch,
                )
            }
        }
    }

    /// AVX2 4-lane gather dot (same safety argument as the 8-lane variant).
    pub(super) struct DotAvx2x4;

    impl Dot for DotAvx2x4 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, start: usize, end: usize) -> Scalar {
            // SAFETY: as above.
            unsafe {
                simd::avx2::row_dot_nnz4(
                    a.values,
                    a.col_indices,
                    a.x,
                    a.col_offset,
                    start,
                    end,
                    a.prefetch,
                )
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod hw {
    use super::{Dot, PartitionArgs, Scalar};
    use crate::simd;

    /// NEON 8-lane dot.  Only reachable through shapes whose
    /// [`super::SimdClass::NnzNeon`] came from a resolve that verified NEON
    /// support at runtime.
    pub(super) struct DotNeon8;

    impl Dot for DotNeon8 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, start: usize, end: usize) -> Scalar {
            // SAFETY: shapes classify as NnzNeon only when ResolvedSimd
            // carried Backend::Neon, which requires a positive runtime probe.
            unsafe {
                simd::neon::row_dot_nnz8(
                    a.values,
                    a.col_indices,
                    a.x,
                    a.col_offset,
                    start,
                    end,
                    a.prefetch,
                )
            }
        }
    }

    /// NEON 4-lane dot (same safety argument as the 8-lane variant).
    pub(super) struct DotNeon4;

    impl Dot for DotNeon4 {
        #[inline(always)]
        fn dot(a: &PartitionArgs<'_>, start: usize, end: usize) -> Scalar {
            // SAFETY: as above.
            unsafe {
                simd::neon::row_dot_nnz4(
                    a.values,
                    a.col_indices,
                    a.x,
                    a.col_offset,
                    start,
                    end,
                    a.prefetch,
                )
            }
        }
    }
}

/// Row-partition chunk loop, monomorphized over bounds storage and dot
/// kernel: the whole inner loop is branch-free straight-line code after
/// inlining.
fn chunk_nnz<const TB: bool, D: Dot>(a: &PartitionArgs<'_>, first: usize, out: &mut [Scalar]) {
    for (i, slot) in out.iter_mut().enumerate() {
        let (start, end) = row_range::<TB>(a, first + i);
        *slot += D::dot(a, start, end);
    }
}

/// Row-lane chunk loop: `L` adjacent rows advance together (one accumulator
/// chain per lane, each summing its row serially, so results are bitwise
/// scalar); leftover rows take the scalar loop.
fn chunk_row_lanes<const TB: bool, const L: usize>(
    a: &PartitionArgs<'_>,
    first: usize,
    out: &mut [Scalar],
) {
    let mut i = 0;
    while i + L <= out.len() {
        let mut ranges = [(0usize, 0usize); L];
        for (l, range) in ranges.iter_mut().enumerate() {
            *range = row_range::<TB>(a, first + i + l);
        }
        let mut acc = [0.0 as Scalar; L];
        simd::rows_dot_row_lanes::<L>(
            a.values,
            a.col_indices,
            a.x,
            a.col_offset,
            &ranges,
            &mut acc,
            a.prefetch,
        );
        for (l, &v) in acc.iter().enumerate() {
            out[i + l] += v;
        }
        i += L;
    }
    for (j, slot) in out.iter_mut().enumerate().skip(i) {
        let (start, end) = row_range::<TB>(a, first + j);
        *slot += DotScalar::dot(a, start, end);
    }
}

/// Nnz-partition span loop: walk `[start, end)` of the stream emitting one
/// partial per row segment (row boundaries from the partition's real CSR
/// offsets), the segment dot monomorphized.  `row0` is the span's first row,
/// resolved by the caller from the chunk descriptor.
fn span_nnz<D: Dot>(
    a: &PartitionArgs<'_>,
    offsets: &[u32],
    row0: usize,
    start: usize,
    end: usize,
) -> Vec<Scalar> {
    let mut row = row0;
    let mut sums = Vec::new();
    let mut cursor = start;
    loop {
        let seg_end = (offsets[row + 1] as usize).min(end);
        sums.push(D::dot(a, cursor, seg_end));
        cursor = seg_end;
        if cursor >= end {
            break;
        }
        row += 1;
    }
    sums
}

/// Specialized scatter: merge partials into `y` through a stored table
/// (`TB = true`) or affine arithmetic (`TB = false`; identity is
/// `base 0, slope 1`).
fn scatter_to<const TB: bool>(
    a: &ScatterArgs<'_>,
    base_row: usize,
    sums: &[Scalar],
    y: &mut [Scalar],
) {
    if TB {
        for (j, &v) in sums.iter().enumerate() {
            y[a.table[base_row + j] as usize] += v;
        }
    } else {
        for (j, &v) in sums.iter().enumerate() {
            y[(a.base + a.slope * (base_row + j) as i64) as usize] += v;
        }
    }
}

// ---------------------------------------------------------------------------
// The shape matcher
// ---------------------------------------------------------------------------

/// Picks the chunk instantiation for a bounds kind (`$tb`) and loop body
/// (`chunk_nnz` with a dot type, or `chunk_row_lanes` with a lane count).
macro_rules! chunk_for {
    ($tb:expr, $body:ident, const $l:literal) => {
        if $tb {
            $body::<true, $l> as ChunkFn
        } else {
            $body::<false, $l> as ChunkFn
        }
    };
    ($tb:expr, $body:ident, $p:ty) => {
        if $tb {
            $body::<true, $p> as ChunkFn
        } else {
            $body::<false, $p> as ChunkFn
        }
    };
}

/// Resolves a shape to its library entry.  Total: every constructible
/// shape has one.  [`IndexKind::Model`] bounds and origins take the table
/// instantiations: the kernel builder materialises the closed-form model
/// into a lookup table once at build time, so the hot loop stays
/// branch-free (memory traded for the per-element model evaluation).
pub(crate) fn specialize(shape: &KernelShape) -> SpecializedPartition {
    // Output placement: contiguous origins compute, everything else —
    // including materialised models — reads the table (the contiguous case
    // bypasses the scatter entirely at run time).
    let scatter: ScatterFn = match shape.origin {
        IndexKind::Table | IndexKind::Model => scatter_to::<true>,
        IndexKind::Identity | IndexKind::Affine => scatter_to::<false>,
    };
    let exec = match shape.partition {
        PartitionKind::Rows => {
            let tb = match shape.bounds {
                IndexKind::Table | IndexKind::Model => true,
                IndexKind::Identity | IndexKind::Affine => false,
            };
            SpecExec::Rows(match shape.simd {
                SimdClass::Scalar => chunk_for!(tb, chunk_nnz, DotScalar),
                SimdClass::NnzPortable { lanes: Lanes::X2 } => {
                    chunk_for!(tb, chunk_nnz, DotNnzPortable<2>)
                }
                SimdClass::NnzPortable { lanes: Lanes::X4 } => {
                    chunk_for!(tb, chunk_nnz, DotNnzPortable<4>)
                }
                SimdClass::NnzPortable { lanes: Lanes::X8 } => {
                    chunk_for!(tb, chunk_nnz, DotNnzPortable<8>)
                }
                #[cfg(target_arch = "x86_64")]
                SimdClass::NnzAvx2 {
                    lanes: GatherLanes::X4,
                } => chunk_for!(tb, chunk_nnz, hw::DotAvx2x4),
                #[cfg(target_arch = "x86_64")]
                SimdClass::NnzAvx2 {
                    lanes: GatherLanes::X8,
                } => chunk_for!(tb, chunk_nnz, hw::DotAvx2x8),
                #[cfg(target_arch = "aarch64")]
                SimdClass::NnzNeon {
                    lanes: GatherLanes::X4,
                } => chunk_for!(tb, chunk_nnz, hw::DotNeon4),
                #[cfg(target_arch = "aarch64")]
                SimdClass::NnzNeon {
                    lanes: GatherLanes::X8,
                } => chunk_for!(tb, chunk_nnz, hw::DotNeon8),
                SimdClass::RowLanes { lanes: Lanes::X2 } => {
                    chunk_for!(tb, chunk_row_lanes, const 2)
                }
                SimdClass::RowLanes { lanes: Lanes::X4 } => {
                    chunk_for!(tb, chunk_row_lanes, const 4)
                }
                SimdClass::RowLanes { lanes: Lanes::X8 } => {
                    chunk_for!(tb, chunk_row_lanes, const 8)
                }
            })
        }
        // Nnz spans resolve `bmt_row_starts` once per span outside the hot
        // loop, so its kind never changes the instantiation.
        PartitionKind::Nnz => SpecExec::Nnz(match shape.simd {
            // Row lanes group whole rows, which a span's segments are not:
            // they run scalar (`SimdClass::classify` labels them so).
            SimdClass::Scalar | SimdClass::RowLanes { .. } => span_nnz::<DotScalar>,
            SimdClass::NnzPortable { lanes: Lanes::X2 } => span_nnz::<DotNnzPortable<2>>,
            SimdClass::NnzPortable { lanes: Lanes::X4 } => span_nnz::<DotNnzPortable<4>>,
            SimdClass::NnzPortable { lanes: Lanes::X8 } => span_nnz::<DotNnzPortable<8>>,
            #[cfg(target_arch = "x86_64")]
            SimdClass::NnzAvx2 {
                lanes: GatherLanes::X4,
            } => span_nnz::<hw::DotAvx2x4>,
            #[cfg(target_arch = "x86_64")]
            SimdClass::NnzAvx2 {
                lanes: GatherLanes::X8,
            } => span_nnz::<hw::DotAvx2x8>,
            #[cfg(target_arch = "aarch64")]
            SimdClass::NnzNeon {
                lanes: GatherLanes::X4,
            } => span_nnz::<hw::DotNeon4>,
            #[cfg(target_arch = "aarch64")]
            SimdClass::NnzNeon {
                lanes: GatherLanes::X8,
            } => span_nnz::<hw::DotNeon8>,
        }),
    };
    SpecializedPartition { exec, scatter }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(partition: PartitionKind, bounds: IndexKind, simd: SimdClass) -> KernelShape {
        KernelShape {
            partition,
            bounds,
            origin: IndexKind::Identity,
            col_index: IndexKind::Table,
            simd,
            prefetch: PrefetchClass::None,
        }
    }

    /// Every SIMD class constructible on this host.
    fn simd_classes() -> Vec<SimdClass> {
        let mut classes = vec![SimdClass::Scalar];
        for lanes in [Lanes::X2, Lanes::X4, Lanes::X8] {
            classes.push(SimdClass::NnzPortable { lanes });
            classes.push(SimdClass::RowLanes { lanes });
        }
        for _lanes in [GatherLanes::X4, GatherLanes::X8] {
            #[cfg(target_arch = "x86_64")]
            classes.push(SimdClass::NnzAvx2 { lanes: _lanes });
            #[cfg(target_arch = "aarch64")]
            classes.push(SimdClass::NnzNeon { lanes: _lanes });
        }
        classes
    }

    #[test]
    fn every_designer_reachable_shape_is_in_the_library() {
        // Every partition strategy × bounds kind × SIMD class resolves to an
        // entry of the matching loop kind, and that entry computes the
        // reference row sums.  Hardware classes only run where the probe
        // allows them.
        let hw = crate::cpu_features::detect_hardware() != crate::SimdSupport::None;
        let x: Vec<Scalar> = (0..8).map(|i| 1.0 + i as Scalar * 0.25).collect();
        for bounds in [
            IndexKind::Identity,
            IndexKind::Affine,
            IndexKind::Table,
            IndexKind::Model,
        ] {
            // Identity bounds mean one non-zero per row; affine ones a fixed
            // row length; table-backed kinds read real offsets.
            let row_len = if bounds == IndexKind::Identity { 1 } else { 11 };
            let rows = 13;
            let nnz = rows * row_len;
            let values: Vec<Scalar> = (0..nnz).map(|i| (i % 7) as Scalar - 3.0).collect();
            let cols: Vec<u32> = (0..nnz).map(|i| (i * 5 % 8) as u32).collect();
            let offsets: Vec<u32> = (0..=rows).map(|r| (r * row_len) as u32).collect();
            let table = matches!(bounds, IndexKind::Table | IndexKind::Model);
            let args = PartitionArgs {
                values: &values,
                col_indices: &cols,
                x: &x,
                col_offset: 0,
                bounds_table: if table { &offsets } else { &[] },
                bounds_base: 0,
                bounds_slope: if table { 0 } else { row_len as i64 },
                prefetch: 4,
            };
            let expected: Vec<Scalar> = (0..rows)
                .map(|r| DotScalar::dot(&args, r * row_len, (r + 1) * row_len))
                .collect();
            for simd in simd_classes() {
                // Hardware entries must not run on a host without them.
                let runnable = hw
                    || matches!(
                        simd,
                        SimdClass::Scalar
                            | SimdClass::NnzPortable { .. }
                            | SimdClass::RowLanes { .. }
                    );
                for partition in [PartitionKind::Rows, PartitionKind::Nnz] {
                    let context = format!("{partition:?}/{bounds:?}/{simd:?}");
                    let got = match (partition, specialize(&shape(partition, bounds, simd)).exec) {
                        (PartitionKind::Rows, SpecExec::Rows(_)) if !runnable => continue,
                        (PartitionKind::Nnz, SpecExec::Nnz(_)) if !runnable => continue,
                        (PartitionKind::Rows, SpecExec::Rows(chunk)) => {
                            let mut out = vec![0.0; rows];
                            chunk(&args, 0, &mut out);
                            out
                        }
                        (PartitionKind::Nnz, SpecExec::Nnz(span)) => {
                            span(&args, &offsets, 0, 0, nnz)
                        }
                        _ => panic!("{context}: entry kind does not match the partition"),
                    };
                    for (r, (&g, &e)) in got.iter().zip(&expected).enumerate() {
                        assert!(
                            (g - e).abs() <= 1e-4 * e.abs().max(1.0),
                            "{context}: row {r} computed {g}, expected {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn model_shapes_hit_the_library_via_materialised_tables() {
        // A Model origin scatters through its build-time materialised
        // table, exactly like a stored one; contiguous kinds compute.
        let sums = [1.0, 2.0, 3.0];
        let table = [2u32, 0, 1];
        for (origin, args, expected) in [
            (
                IndexKind::Model,
                ScatterArgs {
                    table: &table,
                    base: 0,
                    slope: 0,
                },
                [2.0, 3.0, 1.0],
            ),
            (
                IndexKind::Table,
                ScatterArgs {
                    table: &table,
                    base: 0,
                    slope: 0,
                },
                [2.0, 3.0, 1.0],
            ),
            (
                IndexKind::Identity,
                ScatterArgs {
                    table: &[],
                    base: 0,
                    slope: 1,
                },
                [1.0, 2.0, 3.0],
            ),
        ] {
            let mut s = shape(PartitionKind::Rows, IndexKind::Table, SimdClass::Scalar);
            s.origin = origin;
            let mut y = [0.0; 3];
            (specialize(&s).scatter)(&args, 0, &sums, &mut y);
            assert_eq!(y, expected, "{origin:?} origin");
        }
    }

    #[test]
    fn labels_are_stable_and_compact() {
        #[cfg(target_arch = "x86_64")]
        {
            let s = KernelShape {
                partition: PartitionKind::Rows,
                bounds: IndexKind::Table,
                origin: IndexKind::Identity,
                col_index: IndexKind::Table,
                simd: SimdClass::NnzAvx2 {
                    lanes: GatherLanes::X8,
                },
                prefetch: PrefetchClass::Stream,
            };
            assert_eq!(s.label(), "rows[off:table,org:id,col:table]:avx2-nnz-x8+pf");
        }
        let p = KernelShape {
            partition: PartitionKind::Rows,
            bounds: IndexKind::Model,
            origin: IndexKind::Identity,
            col_index: IndexKind::Table,
            simd: SimdClass::NnzPortable { lanes: Lanes::X2 },
            prefetch: PrefetchClass::Stream,
        };
        assert_eq!(
            p.label(),
            "rows[off:model,org:id,col:table]:portable-nnz-x2+pf"
        );
        let n = KernelShape {
            partition: PartitionKind::Nnz,
            bounds: IndexKind::Affine,
            origin: IndexKind::Table,
            col_index: IndexKind::Table,
            simd: SimdClass::Scalar,
            prefetch: PrefetchClass::None,
        };
        assert_eq!(n.label(), "nnz[off:affine,org:table,col:table]:scalar");
    }

    #[test]
    fn row_range_affine_matches_table() {
        let offsets: Vec<u32> = (0..=64u32).map(|i| i * 3).collect();
        let a = PartitionArgs {
            values: &[],
            col_indices: &[],
            x: &[],
            col_offset: 0,
            bounds_table: &offsets,
            bounds_base: 0,
            bounds_slope: 3,
            prefetch: 0,
        };
        for row in 0..64 {
            assert_eq!(row_range::<true>(&a, row), row_range::<false>(&a, row));
        }
    }
}
