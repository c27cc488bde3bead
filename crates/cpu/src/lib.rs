//! `alpha-cpu` — the native CPU execution backend of the AlphaSparse
//! reproduction.
//!
//! Every other layer of this repository *models* performance: the `alpha-gpu`
//! simulator interprets a generated kernel and charges it analytical costs.
//! This crate is where a machine-designed format finally **computes
//! `y = A·x` for real**: a [`GeneratedSpmv`](alpha_codegen::GeneratedSpmv)
//! (machine format + compression models + reduction fragments) is lowered
//! into a [`NativeKernel`] — specialized row/nnz-partition loops over the
//! extracted index and value arrays, with compressed arrays evaluated as
//! closed-form functions instead of loads, parallelized across
//! `alpha-parallel` workers with per-partition work splitting.
//!
//! On top of execution it provides:
//!
//! * [`TimingHarness`] — a steady-state wall-clock harness (warmup +
//!   min-of-N) producing a [`MeasuredReport`], shared with `alpha-baselines`
//!   so generated-vs-baseline comparisons are apples-to-apples;
//! * [`NativeEvaluator`] — an [`Evaluator`](alpha_search::Evaluator)
//!   implementation that scores search candidates by **measured time**
//!   instead of modelled cost, selectable through
//!   [`SearchConfig::evaluator`](alpha_search::SearchConfig) and composable
//!   with the existing `CachingEvaluator` / `BatchEvaluator` layers;
//! * [`simd`] — AVX2/NEON SpMV microkernels behind the runtime
//!   [`cpu_features`] probe, with lane width, row-vs-nnz lane mapping and
//!   prefetch distance taken from the design's
//!   [`SimdPlan`](alpha_graph::SimdPlan) so vectorization is a **search
//!   dimension**, not a compile-time constant;
//! * [`specialized`] — the **monomorphized kernel library**, the one
//!   executor: every [`KernelShape`] (partition strategy × index-fn kinds ×
//!   SIMD variant × prefetch class) compiles to a branch-free straight-line
//!   loop at build time, and `NativeKernel::new` resolves each partition's
//!   shape to its library entry.

#![warn(missing_docs)]

pub mod cpu_features;
pub mod eval;
pub mod harness;
pub mod kernel;
pub mod simd;
pub mod specialized;

pub use cpu_features::{SimdSupport, NO_SIMD_ENV};
pub use eval::{NativeEvaluator, NATIVE_DEVICE_LABEL};
pub use harness::{MeasuredReport, TimingHarness};
pub use kernel::{
    effective_workers_pooled, effective_workers_pooled_for, IndexFn, KernelBuildError,
    NativeKernel, MIN_NNZ_PER_WORKER_POOLED,
};
pub use simd::{GatherLanes, Lanes, ResolvedSimd, SimdMode};
pub use specialized::{
    kernel_fallback_total, IndexKind, KernelShape, PartitionKind, PrefetchClass, SimdClass,
};
