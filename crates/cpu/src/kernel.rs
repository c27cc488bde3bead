//! Lowering a machine-designed format to executable, threaded CPU loops.
//!
//! A [`NativeKernel`] is built from the same inputs as the simulator kernel —
//! the Designer's [`MatrixMetadataSet`] and the extracted [`MachineFormat`] —
//! but instead of charging modelled costs it runs the SpMV:
//!
//! * **row-partition loops** for `BMT_ROW_BLOCK` / `BMT_COL_BLOCK` designs:
//!   contiguous local-row ranges are split across workers, each worker
//!   accumulates one dot product per row;
//! * **nnz-partition loops** for `BMT_NNZ_BLOCK` designs: the design's
//!   fixed-size non-zero chunks are grouped across workers, each worker walks
//!   its span emitting one partial per row segment (the merge/CSR5 layout);
//!   boundary rows are merged by accumulation during the scatter phase;
//! * **closed-form index functions**: an index array that Model-Driven Format
//!   Compression replaced with a fitted identity / affine model is
//!   *computed*, not loaded ([`IndexFn`]); any other fitted model is
//!   materialised into a table once, at build.
//!
//! Every partition runs through the monomorphized kernel library in
//! [`crate::specialized`]: the build computes its [`KernelShape`] and
//! resolves it to branch-free loop bodies, so the hot path makes one
//! indirect call per worker chunk and no per-element dispatch.
//!
//! Workers communicate only through their return values (per-range partial
//! sums); the serial scatter applies the `origin_rows` permutation and merges
//! rows shared between workers or `COL_DIV` sibling partitions by `+=`.
//!
//! Execution runs on a persistent [`Pool`]: [`NativeKernel::run`] and
//! [`NativeKernel::run_into`] use the process-wide one (or an explicit pool
//! via the `_with_pool` variants), so repeated runs never pay a thread
//! spawn.  Row-partition work is split at **nnz-balanced** row boundaries
//! cached at build time, so skewed (power-law) matrices keep their workers
//! evenly loaded.

use crate::simd::{ResolvedSimd, SimdMode};
use crate::specialized::{
    IndexKind, KernelShape, PartitionArgs, PartitionKind, PrefetchClass, ScatterArgs, SimdClass,
    SpecExec, SpecializedPartition,
};
use alpha_codegen::compress::CompressedArray;
use alpha_codegen::{CompressionModel, FormatArray, MachineFormat};
use alpha_graph::{Mapping, MatrixMetadataSet};
use alpha_matrix::{CsrMatrix, Scalar};
use alpha_parallel::Pool;
use alpha_telemetry::Histogram;
use std::time::Instant;

/// Non-zeros one worker should own, at minimum, before another **pooled**
/// worker is worth waking.  A persistent [`Pool`] dispatches a job in a
/// mutex/condvar round-trip (single-digit microseconds), so parallelism pays
/// off from a few tens of thousands of non-zeros — small and medium
/// matrices spread across cores instead of running on one.
pub const MIN_NNZ_PER_WORKER_POOLED: usize = 16_384;

/// Resolves a requested thread count for **pooled** execution: `0` means
/// one worker per available core, but never more than
/// [`MIN_NNZ_PER_WORKER_POOLED`] would justify for `nnz` non-zeros.
/// Explicit counts are honoured verbatim.
pub fn effective_workers_pooled(threads: usize, nnz: usize) -> usize {
    effective_workers_pooled_for(threads, nnz, 1)
}

/// Kernel-aware variant of [`effective_workers_pooled`]: a vectorized kernel
/// retires `lanes` non-zeros per step, so it finishes a fixed chunk of work
/// roughly `lanes` times sooner and the break-even point for waking another
/// pooled worker shifts out by the same factor.  The threshold therefore
/// scales with the kernel's lane width instead of staying a global constant.
pub fn effective_workers_pooled_for(threads: usize, nnz: usize, lanes: usize) -> usize {
    if threads == 0 {
        let per_worker = MIN_NNZ_PER_WORKER_POOLED.saturating_mul(lanes.max(1));
        alpha_parallel::default_threads()
            .min(nnz.div_ceil(per_worker))
            .max(1)
    } else {
        threads
    }
}

/// A format index array as the native kernel reads it: either a real array
/// lookup or the closed-form function Model-Driven Format Compression fitted
/// (in which case no array exists in memory at all).
#[derive(Debug, Clone)]
pub enum IndexFn {
    /// `f(i) = i` — the compressed identity permutation.
    Identity,
    /// `f(i) = base + slope * i` — a fitted linear model with no exceptions.
    Affine {
        /// Value at index 0.
        base: i64,
        /// Increment per index.
        slope: i64,
    },
    /// Any other fitted model (step, periodic, or one with patched
    /// exceptions); still computed, not loaded.
    Model(CompressedArray),
    /// The raw array — compression did not apply, the loads are real.
    Table(Vec<u32>),
}

impl IndexFn {
    /// Lowers a format array into its access function.
    pub fn from_array(array: &FormatArray) -> IndexFn {
        match &array.compressed {
            Some(c) if c.exceptions.is_empty() => match c.model {
                CompressionModel::Linear { base: 0, slope: 1 } => IndexFn::Identity,
                CompressionModel::Linear { base, slope } => IndexFn::Affine { base, slope },
                _ => IndexFn::Model(c.clone()),
            },
            Some(c) => IndexFn::Model(c.clone()),
            None => IndexFn::Table(array.data.clone()),
        }
    }

    /// Reads entry `i`.
    ///
    /// An affine map that computes a negative value is a corrupt design, not
    /// index 0: kernel builds reject it up front with
    /// [`KernelBuildError::NegativeIndex`], and this accessor only debug-asserts
    /// the invariant instead of silently clamping.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            IndexFn::Identity => i as u32,
            IndexFn::Affine { base, slope } => {
                let v = base + slope * i as i64;
                debug_assert!(
                    v >= 0,
                    "affine index map produced negative index f({i}) = {v}; \
                     corrupt designs must be rejected at kernel build"
                );
                v as u32
            }
            IndexFn::Model(c) => c.evaluate(i),
            IndexFn::Table(data) => data[i],
        }
    }

    /// Validates that an affine map stays non-negative over `[0, domain)` —
    /// the build-time guard behind the debug assertion in [`IndexFn::get`].
    /// Non-affine kinds are vacuously valid (models reproduce the original
    /// `u32` array; tables and identity cannot go negative).
    fn validate_domain(
        &self,
        domain: usize,
        partition: usize,
        array: &'static str,
    ) -> Result<(), KernelBuildError> {
        if let IndexFn::Affine { base, slope } = self {
            if domain == 0 {
                return Ok(());
            }
            let at_start = *base;
            let at_end = base + slope * (domain as i64 - 1);
            let (index, value) = if at_start <= at_end {
                (0, at_start)
            } else {
                (domain - 1, at_end)
            };
            if value < 0 {
                return Err(KernelBuildError::NegativeIndex {
                    partition,
                    array,
                    index,
                    value,
                });
            }
        }
        Ok(())
    }

    /// True when the array was eliminated — reads are computed, not loaded.
    pub fn is_closed_form(&self) -> bool {
        !matches!(self, IndexFn::Table(_))
    }

    /// When this map is `f(i) = base + i` (no reordering, only an offset),
    /// returns `base`: consumers can then address a contiguous output range
    /// directly instead of scattering through the map.
    pub fn contiguous_base(&self) -> Option<usize> {
        match self {
            IndexFn::Identity => Some(0),
            IndexFn::Affine { base, slope: 1 } if *base >= 0 => Some(*base as usize),
            _ => None,
        }
    }
}

/// A design that cannot be lowered into a valid native kernel.  These are
/// build-time rejections of *corrupt* inputs — a well-formed design from the
/// generator never triggers them — surfaced as typed errors so the evaluator
/// can mark the candidate infeasible instead of executing garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelBuildError {
    /// Metadata and format describe different partition counts.
    PartitionMismatch {
        /// Partitions in the designed metadata.
        metadata: usize,
        /// Partitions in the extracted format.
        format: usize,
    },
    /// An affine index map computes a negative index somewhere in its
    /// domain — a corrupt compression model, not a request for index 0.
    NegativeIndex {
        /// Partition the corrupt array belongs to.
        partition: usize,
        /// Which index array is corrupt.
        array: &'static str,
        /// First domain position where the map goes negative.
        index: usize,
        /// The negative value the map computes there.
        value: i64,
    },
}

impl std::fmt::Display for KernelBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelBuildError::PartitionMismatch { metadata, format } => write!(
                f,
                "metadata describes {metadata} partition(s) but the format has {format}"
            ),
            KernelBuildError::NegativeIndex {
                partition,
                array,
                index,
                value,
            } => write!(
                f,
                "partition {partition}: affine {array} map computes negative index \
                 f({index}) = {value} — corrupt design"
            ),
        }
    }
}

impl std::error::Error for KernelBuildError {}

/// How one partition's work is split over threads.
#[derive(Debug, Clone)]
enum ExecPath {
    /// Row-partition loop (`BMT_ROW_BLOCK` / `BMT_COL_BLOCK` designs).
    Rows,
    /// Nnz-partition loop (`BMT_NNZ_BLOCK` designs).
    Nnz {
        /// Non-zeros per design chunk (workers own groups of whole chunks).
        nnz_per_thread: usize,
        /// First row of each chunk (`bmt_row_starts`, possibly closed-form).
        row_starts: IndexFn,
    },
}

/// Row boundaries (length `workers + 1`, first entry 0, last entry `rows`)
/// splitting the rows of a partition so every piece owns ≈
/// `total_nnz / workers` non-zeros.  Computed from the CSR prefix sums: the
/// boundary for worker `w` is the first row whose cumulative non-zero count
/// reaches `w / workers` of the total.
fn balanced_row_cuts(offsets: &[u32], workers: usize) -> Vec<usize> {
    let rows = offsets.len().saturating_sub(1);
    let workers = workers.clamp(1, rows.max(1));
    let total = offsets.last().copied().unwrap_or(0) as usize;
    let mut cuts = Vec::with_capacity(workers + 1);
    cuts.push(0);
    for w in 1..workers {
        let target = (total * w) / workers;
        // First row boundary at or above the target...
        let above = offsets.partition_point(|&o| (o as usize) < target);
        // ...but the boundary just below may sit closer (rows are atomic, so
        // the best reachable split is whichever side of the target is
        // nearer).
        let cut = if above > 0
            && target - offsets[above - 1] as usize
                <= offsets.get(above).map_or(usize::MAX, |&o| o as usize) - target
        {
            above - 1
        } else {
            above
        };
        cuts.push(cut.clamp(*cuts.last().expect("cuts start at 0"), rows));
    }
    cuts.push(rows);
    cuts
}

/// Nnz-balanced row boundaries for every worker count up to the host's core
/// count, computed **once** from the partition's prefix-sum row offsets at
/// kernel build time.
///
/// Equal-*row* splitting (the old `split_mut` scheme) serialises skewed
/// matrices — a power-law partition puts most of its non-zeros in a few
/// rows, so one worker owns almost all the work while the rest finish
/// instantly and wait.  Splitting at equal-*nnz* boundaries keeps per-worker
/// work even regardless of the row-length distribution; caching the
/// boundaries keeps the binary searches off the per-run hot path.
#[derive(Debug, Clone)]
struct BalancedRowCuts {
    /// `per_count[w - 1]` holds the boundaries for `w` workers.
    per_count: Vec<Vec<usize>>,
}

impl BalancedRowCuts {
    fn build(offsets: &[u32]) -> Self {
        let max_workers = alpha_parallel::default_threads().max(1);
        BalancedRowCuts {
            per_count: (1..=max_workers)
                .map(|workers| balanced_row_cuts(offsets, workers))
                .collect(),
        }
    }

    /// The cached boundaries for `workers`, when within the precomputed
    /// range (worker counts above the core count fall back to an on-demand
    /// computation at the call site).
    fn get(&self, workers: usize) -> Option<&[usize]> {
        if workers == 0 || workers > self.per_count.len() {
            return None;
        }
        Some(&self.per_count[workers - 1])
    }
}

#[derive(Debug, Clone)]
struct NativePartition {
    /// The partition's permuted sub-matrix (value and column-index streams).
    matrix: CsrMatrix,
    /// Column offset of a `COL_DIV` branch in the original matrix.
    col_offset: usize,
    /// Local row → original row (the `origin_rows` array, often closed-form).
    origin: IndexFn,
    /// Row addressing (the `row_offsets` array, closed-form for regular
    /// matrices whose rows all have the same length).
    row_offsets: IndexFn,
    path: ExecPath,
    /// Build-time nnz-balanced row boundaries (row-partition loops only).
    row_cuts: Option<BalancedRowCuts>,
    /// [`IndexFn::Model`] row bounds of a row partition, materialised into
    /// a table at build (rows + 1 entries); `None` for every other kind.
    model_bounds: Option<Vec<u32>>,
    /// [`IndexFn::Model`] origin map, materialised into a table at build
    /// (rows entries); `None` for every other kind.
    model_origin: Option<Vec<u32>>,
    /// Vectorization decision resolved from the design's `SimdPlan`, the
    /// build [`SimdMode`] and the host's feature probe.
    simd: ResolvedSimd,
    /// This partition's coordinates in the shape lattice.
    shape: KernelShape,
    /// The shape's pre-resolved monomorphized library entry.
    spec: SpecializedPartition,
}

impl NativePartition {
    /// The runtime arguments of this partition's specialized loops,
    /// borrowing the streams for one execution.
    fn args<'a>(&'a self, x: &'a [Scalar]) -> PartitionArgs<'a> {
        let (bounds_table, bounds_base, bounds_slope): (&[u32], i64, i64) = match &self.row_offsets
        {
            IndexFn::Table(table) => (table, 0, 0),
            IndexFn::Identity => (&[], 0, 1),
            IndexFn::Affine { base, slope } => (&[], *base, *slope),
            // Model bounds run the table instantiation over the build-time
            // materialisation (absent only on nnz partitions, which never
            // read row bounds).
            IndexFn::Model(_) => (self.model_bounds.as_deref().unwrap_or(&[]), 0, 0),
        };
        PartitionArgs {
            values: self.matrix.values(),
            col_indices: self.matrix.col_indices(),
            x,
            col_offset: self.col_offset,
            bounds_table,
            bounds_base,
            bounds_slope,
            prefetch: self.simd.prefetch,
        }
    }

    /// The runtime arguments of this partition's specialized scatter.
    fn scatter_args(&self) -> ScatterArgs<'_> {
        match &self.origin {
            IndexFn::Table(table) => ScatterArgs {
                table,
                base: 0,
                slope: 0,
            },
            IndexFn::Identity => ScatterArgs {
                table: &[],
                base: 0,
                slope: 1,
            },
            IndexFn::Affine { base, slope } => ScatterArgs {
                table: &[],
                base: *base,
                slope: *slope,
            },
            // Model origins scatter through the build-time materialisation.
            IndexFn::Model(_) => ScatterArgs {
                table: self
                    .model_origin
                    .as_deref()
                    .expect("model origins are materialised at build"),
                base: 0,
                slope: 0,
            },
        }
    }
}

/// A machine-designed SpMV program lowered to native threaded CPU loops.
pub struct NativeKernel {
    partitions: Vec<NativePartition>,
    rows: usize,
    cols: usize,
    nnz: usize,
    format_bytes: usize,
    name: String,
    /// Widest lane count across partitions (1 = fully scalar); feeds the
    /// lane-aware pooled worker threshold.
    max_lanes: usize,
    /// Resolved vectorization label (see [`NativeKernel::simd_label`]).
    simd_label: String,
    /// `cpu_kernel_run_us{simd=..., path=...}` — the run-latency histogram,
    /// resolved **once** at build so the hot path pays two clock reads and a
    /// few relaxed atomics.
    run_hist: Histogram,
}

impl NativeKernel {
    /// Lowers the designed metadata plus extracted format into executable
    /// loops — the same two inputs the simulator kernel is built from.
    /// Vectorization follows the design's `SimdPlan` and the host probe
    /// ([`SimdMode::Auto`]); use [`NativeKernel::with_simd_mode`] to force
    /// scalar execution.  Panics on corrupt inputs — use
    /// [`NativeKernel::try_new`] where a typed rejection is wanted.
    pub fn new(metadata: &MatrixMetadataSet, format: &MachineFormat) -> Self {
        Self::with_simd_mode(metadata, format, SimdMode::Auto)
    }

    /// [`NativeKernel::new`], rejecting corrupt designs with a typed
    /// [`KernelBuildError`] instead of panicking.
    pub fn try_new(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
    ) -> Result<Self, KernelBuildError> {
        Self::lower(metadata, format, SimdMode::Auto)
    }

    /// [`NativeKernel::new`] with an explicit [`SimdMode`] — benches build a
    /// [`SimdMode::ForceScalar`] twin of a vectorized kernel this way to
    /// measure the SIMD win without mutating the process environment.
    pub fn with_simd_mode(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
        mode: SimdMode,
    ) -> Self {
        Self::lower(metadata, format, mode)
            .expect("designs from the generator lower to valid kernels")
    }

    /// The complete lowering: resolves vectorization, validates every index
    /// map's domain, computes each partition's [`KernelShape`] and resolves
    /// it to its monomorphized library entry.
    fn lower(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
        simd_mode: SimdMode,
    ) -> Result<Self, KernelBuildError> {
        if metadata.partitions.len() != format.partitions.len() {
            return Err(KernelBuildError::PartitionMismatch {
                metadata: metadata.partitions.len(),
                format: format.partitions.len(),
            });
        }
        let mut partitions = Vec::with_capacity(metadata.partitions.len());
        for (index, (plan, pf)) in metadata
            .partitions
            .iter()
            .zip(&format.partitions)
            .enumerate()
        {
            let lookup = |name: &str| {
                pf.array(name)
                    .map(IndexFn::from_array)
                    .unwrap_or(IndexFn::Identity)
            };
            let rows = plan.matrix.rows();
            let origin = lookup("origin_rows");
            let row_offsets = lookup("row_offsets");
            // Corrupt affine maps (negative computed indices) are rejected
            // here, once, so the hot loops can drop the silent clamp.
            origin.validate_domain(rows, index, "origin_rows")?;
            row_offsets.validate_domain(rows + 1, index, "row_offsets")?;
            let path = match plan.mapping {
                Mapping::RowPerThread { .. } | Mapping::VectorPerRow { .. } => ExecPath::Rows,
                Mapping::NnzSplit { nnz_per_thread } => {
                    let nnz_per_thread = nnz_per_thread.max(1);
                    let row_starts = lookup("bmt_row_starts");
                    let chunks = plan.matrix.nnz().div_ceil(nnz_per_thread).max(1);
                    row_starts.validate_domain(chunks, index, "bmt_row_starts")?;
                    ExecPath::Nnz {
                        nnz_per_thread,
                        row_starts,
                    }
                }
            };
            let rows_path = matches!(path, ExecPath::Rows);
            // Row-partition loops split work at nnz-balanced row
            // boundaries; the boundaries come from the sub-matrix's
            // prefix sums and are cached here, once, at build time.
            let row_cuts = rows_path.then(|| BalancedRowCuts::build(plan.matrix.row_offsets()));
            let simd = ResolvedSimd::resolve(&plan.simd, simd_mode);
            // The partition's coordinates in the shape lattice; the library
            // resolves every inner-loop decision they fix into
            // monomorphized function pointers.
            let bounds = match &path {
                ExecPath::Rows => IndexKind::of(&row_offsets),
                ExecPath::Nnz { row_starts, .. } => IndexKind::of(row_starts),
            };
            let simd_class = SimdClass::classify(&simd, rows_path);
            let shape = KernelShape {
                partition: if rows_path {
                    PartitionKind::Rows
                } else {
                    PartitionKind::Nnz
                },
                bounds,
                origin: IndexKind::of(&origin),
                col_index: IndexKind::Table,
                simd: simd_class,
                prefetch: if simd_class != SimdClass::Scalar && simd.prefetch > 0 {
                    PrefetchClass::Stream
                } else {
                    PrefetchClass::None
                },
            };
            // Materialise Model index functions into lookup tables: the
            // closed-form model is evaluated once per domain point here, at
            // build time, so the hot loop reads a plain table instead of
            // evaluating the model per element.
            let model_bounds = match (&path, &row_offsets) {
                (ExecPath::Rows, bounds @ IndexFn::Model(_)) => {
                    Some((0..=rows).map(|i| bounds.get(i)).collect())
                }
                _ => None,
            };
            let model_origin = match &origin {
                model @ IndexFn::Model(_) => Some((0..rows).map(|i| model.get(i)).collect()),
                _ => None,
            };
            partitions.push(NativePartition {
                matrix: plan.matrix.clone(),
                col_offset: plan.col_offset,
                origin,
                row_offsets,
                path,
                row_cuts,
                model_bounds,
                model_origin,
                simd,
                spec: crate::specialized::specialize(&shape),
                shape,
            });
        }
        let max_lanes = partitions
            .iter()
            .map(|p: &NativePartition| p.simd.lanes())
            .max()
            .unwrap_or(1);
        let name = format!(
            "alpha-cpu[{}]",
            metadata
                .partitions
                .first()
                .map(|p| p.describe())
                .unwrap_or_else(|| "empty".to_string())
        );
        let simd_label = joined_labels(partitions.iter().map(|p| p.simd.label()), "scalar");
        // Resolve the run-latency histogram handle now, not per run: the
        // labels (resolved SIMD backend + partition strategy) are fixed for
        // the kernel's lifetime, so runs touch only atomics.
        let path_label = {
            let any_rows = partitions.iter().any(|p| matches!(p.path, ExecPath::Rows));
            let any_nnz = partitions
                .iter()
                .any(|p| matches!(p.path, ExecPath::Nnz { .. }));
            match (any_rows, any_nnz) {
                (true, true) => "mixed",
                (false, true) => "nnz",
                _ => "rows",
            }
        };
        let run_hist = alpha_telemetry::global().histogram(
            "cpu_kernel_run_us",
            &[("simd", &simd_label), ("path", path_label)],
        );
        Ok(NativeKernel {
            partitions,
            rows: metadata.original_rows,
            cols: metadata.original_cols,
            nnz: metadata.original_nnz,
            format_bytes: format.bytes(),
            name,
            max_lanes,
            simd_label,
            run_hist,
        })
    }

    /// True when at least one partition runs a multi-lane kernel.
    pub fn is_vectorized(&self) -> bool {
        self.max_lanes > 1
    }

    /// Widest lane count across partitions (1 = fully scalar).
    pub fn max_lanes(&self) -> usize {
        self.max_lanes
    }

    /// Label of the resolved vectorization, e.g. `avx2-nnz-x8+pf16` or
    /// `scalar`; branched designs with differing decisions join them with
    /// `|`.  Recorded in bench results next to the host's CPU feature
    /// summary.
    pub fn simd_label(&self) -> String {
        self.simd_label.clone()
    }

    /// True when every partition runs through the monomorphized kernel
    /// library — always, since every shape has a library entry.  Kept as
    /// public API for callers that report it.
    pub fn is_specialized(&self) -> bool {
        true
    }

    /// Label of each partition's [`KernelShape`] (deduped, joined with `|`),
    /// e.g. `rows[off:affine,org:id,col:table]:avx2-nnz-x8+pf`.  Persisted
    /// with design-store winners and recorded in bench results.
    pub fn shape_label(&self) -> String {
        joined_labels(self.partitions.iter().map(|p| p.shape.label()), "none")
    }

    /// Output dimension (`y.len()`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Input dimension (`x.len()`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Non-zeros of the original matrix.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Useful floating-point operations of one execution (`2 * nnz`).
    pub fn useful_flops(&self) -> u64 {
        2 * self.nnz as u64
    }

    /// Bytes of the machine-designed format (compressed arrays counted at
    /// their model size).
    pub fn format_bytes(&self) -> usize {
        self.format_bytes
    }

    /// Kernel display name (mirrors the simulator kernel's).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of index arrays across partitions that execute as closed-form
    /// functions instead of loads.
    pub fn closed_form_arrays(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| {
                let path_fns = match &p.path {
                    ExecPath::Nnz { row_starts, .. } => row_starts.is_closed_form() as usize,
                    ExecPath::Rows => 0,
                };
                p.origin.is_closed_form() as usize
                    + p.row_offsets.is_closed_form() as usize
                    + path_fns
            })
            .sum()
    }

    /// Runs `y = A·x`, allocating the output.  `threads == 0` means one
    /// worker per available CPU core, `1` runs serially.
    ///
    /// Executes on the process-wide shared [`Pool`] — repeated runs reuse
    /// the same parked workers and **never spawn threads**.
    pub fn run(&self, x: &[Scalar], threads: usize) -> Result<Vec<Scalar>, String> {
        let mut y = vec![0.0; self.rows];
        self.run_into(x, &mut y, threads)?;
        Ok(y)
    }

    /// Runs `y = A·x` into a caller-provided buffer (zeroed here first) —
    /// the allocation-free path the timing harness drives.  Pooled, like
    /// [`NativeKernel::run`].
    pub fn run_into(&self, x: &[Scalar], y: &mut [Scalar], threads: usize) -> Result<(), String> {
        self.run_into_with_pool(x, y, threads, Pool::shared())
    }

    /// [`NativeKernel::run`] on an explicit persistent [`Pool`] (e.g. a
    /// daemon's dedicated execution pool or an evaluator's private pool).
    pub fn run_with_pool(
        &self,
        x: &[Scalar],
        threads: usize,
        pool: &Pool,
    ) -> Result<Vec<Scalar>, String> {
        let mut y = vec![0.0; self.rows];
        self.run_into_with_pool(x, &mut y, threads, pool)?;
        Ok(y)
    }

    /// [`NativeKernel::run_into`] on an explicit persistent [`Pool`].
    pub fn run_into_with_pool(
        &self,
        x: &[Scalar],
        y: &mut [Scalar],
        threads: usize,
        pool: &Pool,
    ) -> Result<(), String> {
        if x.len() != self.cols {
            return Err(format!(
                "input vector has length {}, matrix has {} columns",
                x.len(),
                self.cols
            ));
        }
        if y.len() != self.rows {
            return Err(format!(
                "output vector has length {}, matrix has {} rows",
                y.len(),
                self.rows
            ));
        }
        y.fill(0.0);
        let workers = effective_workers_pooled_for(threads, self.nnz, self.max_lanes);
        let started = Instant::now();
        // Partitions run one after another (their outputs may overlap under
        // COL_DIV); the parallelism lives inside each partition.
        for partition in &self.partitions {
            match (&partition.path, partition.spec.exec) {
                (ExecPath::Rows, SpecExec::Rows(chunk)) => {
                    exec_rows(partition, chunk, x, y, workers, pool)
                }
                (
                    ExecPath::Nnz {
                        nnz_per_thread,
                        row_starts,
                    },
                    SpecExec::Nnz(span),
                ) => exec_nnz(
                    partition,
                    span,
                    *nnz_per_thread,
                    row_starts,
                    x,
                    y,
                    workers,
                    pool,
                ),
                _ => unreachable!("shapes specialize to their partition's loop kind"),
            }
        }
        self.run_hist.observe_duration(started.elapsed());
        Ok(())
    }
}

/// Dedupes adjacent per-partition labels and joins them with `|`
/// (`empty` when there are no partitions).
fn joined_labels(labels: impl Iterator<Item = String>, empty: &str) -> String {
    let mut labels: Vec<String> = labels.collect();
    labels.dedup();
    if labels.is_empty() {
        empty.to_string()
    } else {
        labels.join("|")
    }
}

impl std::fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeKernel")
            .field("name", &self.name)
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("nnz", &self.nnz)
            .field("partitions", &self.partitions.len())
            .field("closed_form_arrays", &self.closed_form_arrays())
            .finish()
    }
}

/// Row-partition loop: contiguous local-row ranges across workers, one dot
/// product per row.  `chunk` is the partition's pre-resolved library body —
/// bounds arithmetic, SIMD backend and prefetch class compiled into
/// straight-line code — so the only indirection left is one indirect call
/// per worker chunk.  Worker boundaries are **nnz-balanced** (see
/// [`BalancedRowCuts`]): each worker owns roughly the same number of
/// non-zeros, not the same number of rows, so skewed matrices stop
/// serialising behind their heaviest worker.
///
/// When the origin map is contiguous (no reordering — the common case for
/// unsorted designs, whose `origin_rows` compressed to identity/affine),
/// each worker owns a disjoint slice of `y` and accumulates **in place**:
/// no staging buffers, no scatter pass, no per-run allocation.  Reordered
/// designs (SORT/BIN) stage per-worker partials and pay a permuted scatter —
/// a real cost of that format, not an artifact of the harness.
fn exec_rows(
    p: &NativePartition,
    chunk: crate::specialized::ChunkFn,
    x: &[Scalar],
    y: &mut [Scalar],
    workers: usize,
    pool: &Pool,
) {
    let rows = p.matrix.rows();
    if rows == 0 {
        return;
    }
    let args = p.args(x);
    let workers = workers.clamp(1, rows);
    let computed;
    let cuts: &[usize] = match p.row_cuts.as_ref().and_then(|cache| cache.get(workers)) {
        Some(cached) => cached,
        None => {
            computed = balanced_row_cuts(p.matrix.row_offsets(), workers);
            &computed
        }
    };

    if let Some(base) = p.origin.contiguous_base() {
        let target = &mut y[base..base + rows];
        pool.run_over_chunks(alpha_parallel::split_mut_at(target, cuts), |first, out| {
            chunk(&args, first, out)
        });
        return;
    }

    let ranges: Vec<(usize, usize)> = cuts
        .windows(2)
        .map(|w| (w[0], w[1]))
        .filter(|&(first, last)| first < last)
        .collect();
    let sums: Vec<Vec<Scalar>> = pool.parallel_map(&ranges, |&(first, last)| {
        let mut out = vec![0.0; last - first];
        chunk(&args, first, &mut out);
        out
    });
    let scatter_args = p.scatter_args();
    for (&(first, _), partial) in ranges.iter().zip(&sums) {
        (p.spec.scatter)(&scatter_args, first, partial, y);
    }
}

/// Nnz-partition loop: workers own groups of whole design chunks and walk
/// their non-zero span with the pre-resolved library body `span`, emitting
/// one partial per row segment; boundary rows merge by accumulation in the
/// scatter.  The chunk descriptor (`bmt_row_starts`) may be *any* index
/// map — even a fitted model — because it resolves once per worker span,
/// never per element.
#[allow(clippy::too_many_arguments)]
fn exec_nnz(
    p: &NativePartition,
    span: crate::specialized::SpanFn,
    nnz_per_thread: usize,
    row_starts: &IndexFn,
    x: &[Scalar],
    y: &mut [Scalar],
    threads: usize,
    pool: &Pool,
) {
    let nnz = p.matrix.nnz();
    if nnz == 0 {
        return;
    }
    let total_chunks = nnz.div_ceil(nnz_per_thread).max(1);
    let workers = threads.min(total_chunks).max(1);
    let chunks_per_worker = total_chunks.div_ceil(workers);
    let spans: Vec<(usize, usize, usize)> = (0..workers)
        .map(|w| {
            let first_chunk = w * chunks_per_worker;
            let start = (first_chunk * nnz_per_thread).min(nnz);
            let end = ((first_chunk + chunks_per_worker) * nnz_per_thread).min(nnz);
            (first_chunk, start, end)
        })
        .filter(|&(_, start, end)| start < end)
        .collect();

    let args = p.args(x);
    let offsets = p.matrix.row_offsets();
    let last_row = p.matrix.rows().saturating_sub(1);
    let partials: Vec<(usize, Vec<Scalar>)> =
        pool.parallel_map(&spans, |&(first_chunk, start, end)| {
            // The chunk descriptor gives the first row (closed-form when the
            // row structure is regular); skip any empty rows before `start`.
            let mut row = (row_starts.get(first_chunk) as usize).min(last_row);
            while row < last_row && offsets[row + 1] as usize <= start {
                row += 1;
            }
            (row, span(&args, offsets, row, start, end))
        });
    let scatter_args = p.scatter_args();
    for (base_row, sums) in &partials {
        (p.spec.scatter)(&scatter_args, *base_row, sums, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_codegen::{generate, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::{gen, DenseVector};

    fn native_for(
        graph: &alpha_graph::OperatorGraph,
        matrix: &CsrMatrix,
        compression: bool,
    ) -> NativeKernel {
        let generated = generate(
            graph,
            matrix,
            GeneratorOptions {
                model_compression: compression,
            },
        )
        .expect("generation succeeds");
        NativeKernel::new(generated.kernel.metadata(), &generated.format)
    }

    fn check(graph: &alpha_graph::OperatorGraph, matrix: &CsrMatrix, threads: usize) {
        let kernel = native_for(graph, matrix, true);
        let x = DenseVector::random(matrix.cols(), 11);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let y = kernel.run(x.as_slice(), threads).expect("kernel runs");
        assert!(
            DenseVector::from_vec(y).approx_eq(&expected, 1e-3),
            "{}: wrong result at {threads} threads",
            kernel.name()
        );
    }

    #[test]
    fn every_preset_is_correct_on_every_pattern_family() {
        for family in gen::PatternFamily::ALL {
            let matrix = family.generate(256, 6, 33);
            for (_, graph) in presets::all_presets() {
                check(&graph, &matrix, 1);
                check(&graph, &matrix, 4);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results_materially() {
        let matrix = gen::powerlaw(1_024, 1_024, 12, 1.9, 5);
        let x = DenseVector::random(1_024, 3);
        for (_, graph) in presets::all_presets() {
            let kernel = native_for(&graph, &matrix, true);
            let serial = kernel.run(x.as_slice(), 1).unwrap();
            for threads in [2, 3, 8] {
                let parallel = kernel.run(x.as_slice(), threads).unwrap();
                assert!(
                    DenseVector::from_vec(parallel).approx_eq(&serial, 1e-4),
                    "{}: thread count changed the result",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn compression_toggles_closed_form_execution_not_results() {
        let matrix = gen::uniform_random(512, 512, 8, 7);
        let x = DenseVector::random(512, 9);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let with = native_for(&presets::csr_scalar(), &matrix, true);
        let without = native_for(&presets::csr_scalar(), &matrix, false);
        assert!(
            with.closed_form_arrays() > 0,
            "identity origin must compress"
        );
        assert_eq!(without.closed_form_arrays(), 0);
        for kernel in [&with, &without] {
            let y = kernel.run(x.as_slice(), 2).unwrap();
            assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
        }
    }

    #[test]
    fn nnz_split_handles_rows_spanning_worker_boundaries() {
        // One long row dominates: every worker span cuts through it, so the
        // scatter's accumulation is load-bearing.
        let mut coo = alpha_matrix::CooMatrix::new(4, 512);
        for c in 0..512 {
            coo.push(0, c, 0.5);
        }
        for r in 1..4 {
            coo.push(r, r, 1.0);
        }
        let matrix = CsrMatrix::from_coo(&coo);
        check(&presets::csr5_like(16), &matrix, 8);
    }

    #[test]
    fn col_div_partitions_accumulate_shared_rows() {
        let matrix = gen::uniform_random(200, 200, 12, 3);
        check(&presets::col_split_atomic(2), &matrix, 4);
    }

    #[test]
    fn empty_rows_are_preserved_as_zeros() {
        let mut coo = alpha_matrix::CooMatrix::new(64, 64);
        for r in (0..64).step_by(3) {
            coo.push(r, (r * 7) % 64, 1.0 + r as Scalar);
        }
        let matrix = CsrMatrix::from_coo(&coo);
        for (_, graph) in presets::all_presets() {
            check(&graph, &matrix, 2);
        }
    }

    #[test]
    fn run_rejects_wrong_dimensions() {
        let matrix = gen::uniform_random(64, 32, 4, 1);
        let kernel = native_for(&presets::csr_scalar(), &matrix, true);
        assert!(kernel.run(&[1.0; 31], 1).is_err());
        let mut y = vec![0.0; 63];
        assert!(kernel.run_into(&[1.0; 32], &mut y, 1).is_err());
    }

    #[test]
    fn kernel_reports_its_shape() {
        let matrix = gen::powerlaw(300, 300, 8, 2.0, 5);
        let kernel = native_for(&presets::sell_like(), &matrix, true);
        assert_eq!(kernel.rows(), 300);
        assert_eq!(kernel.cols(), 300);
        assert_eq!(kernel.nnz(), matrix.nnz());
        assert_eq!(kernel.useful_flops(), 2 * matrix.nnz() as u64);
        assert!(kernel.format_bytes() > 0);
        assert!(kernel.name().contains("alpha-cpu"));
    }

    #[test]
    fn balanced_cuts_cover_rows_and_balance_nnz() {
        // An adversarially skewed matrix: the first rows carry almost all
        // the work (descending row lengths), so an equal-ROW split loads its
        // first worker with nearly everything.
        let rows = 512usize;
        let mut coo = alpha_matrix::CooMatrix::new(rows, rows);
        for r in 0..rows {
            let len = (rows / (r + 1)).max(1);
            for k in 0..len {
                coo.push(r, (r + k * 7) % rows, 1.0);
            }
        }
        let matrix = CsrMatrix::from_coo(&coo);
        let offsets = matrix.row_offsets();
        let total = matrix.nnz();
        let max_row = (0..rows)
            .map(|r| (offsets[r + 1] - offsets[r]) as usize)
            .max()
            .unwrap();
        let nnz_of = |first: usize, last: usize| offsets[last] as usize - offsets[first] as usize;

        for workers in [1usize, 2, 3, 4, 8] {
            let cuts = balanced_row_cuts(offsets, workers);
            assert_eq!(*cuts.first().unwrap(), 0);
            assert_eq!(*cuts.last().unwrap(), rows);
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must ascend");

            // Rows are atomic, so the best reachable balance is the ideal
            // share plus at most one row's worth of slack.
            let balanced_max = cuts
                .windows(2)
                .map(|w| nnz_of(w[0], w[1]))
                .max()
                .unwrap_or(0);
            let ideal = total.div_ceil(workers);
            assert!(
                balanced_max <= ideal + max_row,
                "{workers} workers: balanced max {balanced_max} > ideal {ideal} + max row {max_row}"
            );
            // And on this skew the equal-rows split is strictly worse.
            if workers > 1 {
                let rows_per = rows.div_ceil(workers);
                let equal_max = (0..workers)
                    .map(|w| nnz_of((w * rows_per).min(rows), ((w + 1) * rows_per).min(rows)))
                    .max()
                    .unwrap_or(total);
                assert!(
                    balanced_max < equal_max,
                    "{workers} workers: balanced {balanced_max} should beat equal-rows {equal_max}"
                );
            }
        }
    }

    #[test]
    fn balanced_cuts_handle_degenerate_shapes() {
        // Empty matrix, single row, more workers than rows.
        assert_eq!(balanced_row_cuts(&[0], 4), vec![0, 0]);
        assert_eq!(balanced_row_cuts(&[0, 5], 4), vec![0, 1]);
        let cuts = balanced_row_cuts(&[0, 1, 2, 3], 8);
        assert_eq!(*cuts.first().unwrap(), 0);
        assert_eq!(*cuts.last().unwrap(), 3);
    }

    #[test]
    fn pooled_threshold_scales_workers_with_nnz_and_lanes() {
        // Automatic counts wake one pooled worker per
        // MIN_NNZ_PER_WORKER_POOLED non-zeros (scaled by the lane width),
        // capped at the core count.
        let nnz = 100_000;
        let cores = alpha_parallel::default_threads();
        assert_eq!(
            effective_workers_pooled(0, nnz),
            cores.min(nnz.div_ceil(MIN_NNZ_PER_WORKER_POOLED))
        );
        assert_eq!(
            effective_workers_pooled_for(0, nnz, 8),
            cores
                .min(nnz.div_ceil(8 * MIN_NNZ_PER_WORKER_POOLED))
                .max(1)
        );
        assert_eq!(effective_workers_pooled(0, 0), 1);
        // Explicit counts are honoured verbatim.
        assert_eq!(effective_workers_pooled(3, nnz), 3);
        assert_eq!(effective_workers_pooled_for(3, nnz, 8), 3);
    }

    #[test]
    fn index_fn_lowers_compression_models() {
        let linear = FormatArray {
            name: "origin_rows".into(),
            data: (0..100).collect(),
            compressed: alpha_codegen::compress_array(&(0..100).collect::<Vec<u32>>()),
        };
        assert!(matches!(IndexFn::from_array(&linear), IndexFn::Identity));

        let stepped: Vec<u32> = (0..100).map(|i| 16 * (i / 8)).collect();
        let step = FormatArray {
            name: "row_offsets".into(),
            data: stepped.clone(),
            compressed: alpha_codegen::compress_array(&stepped),
        };
        let f = IndexFn::from_array(&step);
        assert!(f.is_closed_form());
        for (i, &v) in stepped.iter().enumerate() {
            assert_eq!(f.get(i), v);
        }

        let irregular: Vec<u32> = (0..100u32)
            .map(|i| i.wrapping_mul(2654435761) % 977)
            .collect();
        let table = FormatArray {
            name: "origin_rows".into(),
            data: irregular.clone(),
            compressed: alpha_codegen::compress_array(&irregular),
        };
        let f = IndexFn::from_array(&table);
        assert!(!f.is_closed_form());
        assert_eq!(f.get(42), irregular[42]);
    }
}
