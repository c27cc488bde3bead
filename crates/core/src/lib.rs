//! `alphasparse` — the top-level API of the AlphaSparse reproduction.
//!
//! AlphaSparse takes an arbitrary sparse matrix and a target device and
//! returns a **machine-designed SpMV program**: a format tailored to the
//! matrix's sparsity pattern, an executable kernel, and the emitted CUDA-like
//! source code (paper Section III).
//!
//! ```
//! use alphasparse::{AlphaSparse, DeviceProfile};
//! use alpha_matrix::gen;
//!
//! // A small irregular matrix.
//! let matrix = gen::powerlaw(512, 512, 8, 2.0, 7);
//!
//! // Tune with a tiny budget (larger budgets find better designs).
//! let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(20);
//! let tuned = tuner.auto_tune(&matrix).expect("tuning succeeds");
//!
//! // Run the machine-designed SpMV natively on this CPU (y = A·x for real)...
//! let x = vec![1.0; 512];
//! let y = tuned.run(&x).expect("native SpMV succeeds");
//! assert_eq!(y.len(), 512);
//!
//! // ...or on the simulated device the design was modelled for.
//! let y_sim = tuned.spmv(&x).expect("simulated SpMV succeeds");
//! assert_eq!(y_sim.len(), 512);
//! println!("{:.1} modelled GFLOPS with {}", tuned.gflops(), tuned.operator_graph());
//! ```

#![warn(missing_docs)]

pub use alpha_baselines as baselines;
pub use alpha_codegen as codegen;
pub use alpha_cpu as cpu;
pub use alpha_gpu as gpu;
pub use alpha_graph as graph;
pub use alpha_matrix as matrix;
pub use alpha_ml as ml;
pub use alpha_search as search;

pub use alpha_cpu::{MeasuredReport, NativeEvaluator, NativeKernel, TimingHarness};
pub use alpha_gpu::{DeviceProfile, GpuSim, PerfReport, SpmvKernel};
pub use alpha_matrix::{CsrMatrix, MatrixStats, Scalar};
pub use alpha_search::{
    BatchEvaluator, CacheStats, CachingEvaluator, DesignCache, EvalContext, Evaluation, Evaluator,
    EvaluatorChoice, EvaluatorId, SearchConfig, SearchOutcome, SearchStats, SimEvaluator,
};

use alpha_codegen::{generate, GeneratedSpmv, GeneratorOptions};
use alpha_graph::OperatorGraph;
use std::sync::Arc;

/// The AlphaSparse auto-designer: configure once, tune any number of matrices.
///
/// Every tuner owns a [`DesignCache`] that persists across `auto_tune` calls
/// (clones share it): candidate designs evaluated for one matrix are reused
/// verbatim when the same matrix — or an identical copy of it — is tuned
/// again, and re-tuning with a different budget resumes from the cached
/// evaluations instead of re-simulating them.  With
/// [`AlphaSparse::with_store`] the cache additionally survives process
/// restarts.
///
/// This type is the *in-process* entry point.  To reach the same pipeline
/// over a socket — submit a matrix from another process or machine, poll
/// the tuning job, run the machine-designed SpMV remotely — run the
/// `alpha-net` daemon (`NetServer`) over an `alpha-serve` `TuningService`
/// and connect with its typed `Client`; every daemon job flows through the
/// same search, cache and store machinery this type uses, so a fleet tuned
/// remotely warms the store for everyone (see `examples/netd.rs` and the
/// serving-tier section of ARCHITECTURE.md).
///
/// The README quickstart, as a tested example:
///
/// ```
/// use alphasparse::{AlphaSparse, DeviceProfile};
/// use alpha_matrix::gen;
///
/// // A small irregular matrix.
/// let matrix = gen::powerlaw(512, 512, 8, 2.0, 7);
///
/// // Tune with a tiny budget (larger budgets find better designs).
/// let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(20);
/// let tuned = tuner.auto_tune(&matrix).expect("tuning succeeds");
///
/// // Run the machine-designed SpMV natively on this CPU (y = A·x for real)...
/// let x = vec![1.0; 512];
/// let y = tuned.run(&x).expect("native SpMV succeeds");
/// assert_eq!(y.len(), 512);
///
/// // ...or on the simulated device the design was modelled for.
/// let y_sim = tuned.spmv(&x).expect("simulated SpMV succeeds");
/// assert_eq!(y_sim.len(), 512);
/// println!("{:.1} modelled GFLOPS with {}", tuned.gflops(), tuned.operator_graph());
/// ```
#[derive(Debug, Clone)]
pub struct AlphaSparse {
    config: SearchConfig,
    cache: Arc<DesignCache>,
    store_path: Option<std::path::PathBuf>,
}

impl AlphaSparse {
    /// Creates a tuner for the given device with the default search budget.
    pub fn new(device: DeviceProfile) -> Self {
        Self::with_config(SearchConfig {
            device,
            ..SearchConfig::default()
        })
    }

    /// Creates a tuner from a fully custom search configuration.
    pub fn with_config(config: SearchConfig) -> Self {
        AlphaSparse {
            config,
            cache: Arc::new(DesignCache::new()),
            store_path: None,
        }
    }

    /// Makes the tuner's design cache durable at `path` (a single cache
    /// file, created on the first save; missing parent directories are
    /// created too).
    ///
    /// An existing file is loaded immediately — evaluations, winners and
    /// warm-start pins from earlier processes replace the tuner's (empty)
    /// cache — and every successful [`AlphaSparse::auto_tune`] writes the
    /// grown cache back, so re-tuning a matrix in a fresh process is served
    /// entirely from disk.  Corrupted, truncated or schema-incompatible
    /// files are rejected with an error rather than silently ignored; delete
    /// the file to start over.
    ///
    /// For serving whole fleets of matrices with an LRU memory tier and
    /// similarity-based warm starts, use `alpha-serve`'s `DesignStore` and
    /// `TuningService` instead — this entry point is the single-process
    /// convenience.
    ///
    /// ```
    /// use alphasparse::{AlphaSparse, DeviceProfile};
    /// use alpha_matrix::gen;
    ///
    /// let path = std::env::temp_dir()
    ///     .join(format!("alphasparse_doc_{}", std::process::id()))
    ///     .join("designs.acds");
    /// let matrix = gen::powerlaw(256, 256, 6, 2.0, 3);
    ///
    /// // First process: tunes for real and saves the cache.
    /// let tuner = AlphaSparse::new(DeviceProfile::a100())
    ///     .with_search_budget(8)
    ///     .with_store(&path)
    ///     .expect("store opens");
    /// tuner.auto_tune(&matrix).expect("tuning succeeds");
    ///
    /// // "Second process": a fresh tuner answers from the stored designs.
    /// let revived = AlphaSparse::new(DeviceProfile::a100())
    ///     .with_search_budget(8)
    ///     .with_store(&path)
    ///     .expect("store opens");
    /// let tuned = revived.auto_tune(&matrix).expect("tuning succeeds");
    /// assert_eq!(tuned.search_stats().cache_misses, 0);
    /// # std::fs::remove_dir_all(path.parent().unwrap()).ok();
    /// ```
    pub fn with_store<P: AsRef<std::path::Path>>(mut self, path: P) -> Result<Self, String> {
        let path = path.as_ref().to_path_buf();
        let cache = DesignCache::load_or_empty(&path)
            .map_err(|e| format!("cannot open design store {}: {e}", path.display()))?;
        self.cache = Arc::new(cache);
        self.store_path = Some(path);
        Ok(self)
    }

    /// The durable cache file this tuner saves to, when one was configured
    /// with [`AlphaSparse::with_store`].
    pub fn store_path(&self) -> Option<&std::path::Path> {
        self.store_path.as_deref()
    }

    /// Sets the maximum number of candidate kernels evaluated during the
    /// search (the dominant cost of tuning).
    pub fn with_search_budget(mut self, max_iterations: usize) -> Self {
        self.config.max_iterations = max_iterations;
        self
    }

    /// Sets the number of worker threads candidate batches are evaluated on
    /// (0 = one per available core).  Thread count never changes which
    /// design wins — only how fast the search gets there.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Replaces the tuner's design cache with a shared one, so several
    /// tuners (e.g. per-device instances) can pool their evaluations.
    pub fn with_shared_cache(mut self, cache: Arc<DesignCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The design cache backing this tuner.
    pub fn cache(&self) -> &Arc<DesignCache> {
        &self.cache
    }

    /// Switches the search to **native measured-time evaluation**: every
    /// candidate is executed as a real threaded CPU kernel (`alpha-cpu`) and
    /// scored by a steady-state wall clock instead of the simulator's cost
    /// model, so `auto_tune` optimises the time this machine actually takes.
    ///
    /// Candidates are evaluated one at a time (`threads = 1`) so concurrent
    /// measurements do not steal each other's cores; the kernels themselves
    /// still use every available core.  Measured winners are cached and
    /// stored under a distinct identity — they never mix with cost-model
    /// results.
    pub fn with_native_execution(self) -> Self {
        self.with_native_execution_harness(TimingHarness::default(), 0)
    }

    /// [`with_native_execution`](AlphaSparse::with_native_execution) with
    /// explicit timing-harness parameters and kernel worker count
    /// (0 = one per available core).
    pub fn with_native_execution_harness(
        mut self,
        harness: TimingHarness,
        kernel_threads: usize,
    ) -> Self {
        self.config.evaluator = NativeEvaluator::choice(harness, kernel_threads);
        self.config.threads = 1;
        self
    }

    /// Replaces the ground-truth evaluation backend wholesale (the generic
    /// form of [`with_native_execution`](AlphaSparse::with_native_execution)).
    pub fn with_evaluator(mut self, choice: EvaluatorChoice) -> Self {
        self.config.evaluator = choice;
        self
    }

    /// Enables or disables the pruning rules (Table III ablation).
    pub fn with_pruning(mut self, enabled: bool) -> Self {
        self.config.enable_pruning = enabled;
        self
    }

    /// Enables or disables Model-Driven Format Compression (Figure 14c
    /// ablation).
    pub fn with_model_compression(mut self, enabled: bool) -> Self {
        self.config.enable_model_compression = enabled;
        self
    }

    /// The search configuration this tuner will use.
    pub fn config(&self) -> &SearchConfig {
        &self.config
    }

    /// Reads a Matrix Market file and tunes it — the paper's end-to-end entry
    /// point ("users only need to input a Matrix Market file").
    pub fn auto_tune_mtx<P: AsRef<std::path::Path>>(&self, path: P) -> Result<TunedSpmv, String> {
        let matrix = alpha_matrix::mm::read_matrix_market_file(path).map_err(|e| e.to_string())?;
        self.auto_tune(&matrix)
    }

    /// Searches the operator-graph design space for the matrix and returns
    /// the winning machine-designed SpMV program.  Candidate evaluations are
    /// memoised in the tuner's [`DesignCache`], so repeated tuning of the
    /// same matrix is answered from the cache.
    pub fn auto_tune(&self, matrix: &CsrMatrix) -> Result<TunedSpmv, String> {
        let outcome = alpha_search::search_with_cache(matrix, &self.config, &self.cache)?;
        // Save only when the search actually learned something: a fully
        // cache-served replay leaves the cache clean and costs no write.
        if let Some(path) = &self.store_path {
            if self.cache.is_dirty() {
                self.cache
                    .save_to_file(path)
                    .map_err(|e| format!("cannot save design store {}: {e}", path.display()))?;
                self.cache.mark_clean();
            }
        }
        let options = GeneratorOptions {
            model_compression: self.config.enable_model_compression,
        };
        let generated =
            generate(&outcome.best_graph, matrix, options).map_err(|e| e.to_string())?;
        Ok(TunedSpmv {
            device: self.config.device.clone(),
            evaluator: self.config.evaluator.id(),
            matrix: matrix.clone(),
            generated,
            native: std::sync::OnceLock::new(),
            outcome,
        })
    }

    /// Generates the SpMV program for an explicit operator graph, without any
    /// search — useful for reproducing a known design or benchmarking a
    /// hand-written graph.
    pub fn generate_for_graph(
        &self,
        matrix: &CsrMatrix,
        graph: &OperatorGraph,
    ) -> Result<GeneratedSpmv, String> {
        let options = GeneratorOptions {
            model_compression: self.config.enable_model_compression,
        };
        generate(graph, matrix, options).map_err(|e| e.to_string())
    }
}

/// The result of auto-tuning one matrix: the machine-designed format, kernel
/// and source, plus the search outcome.
pub struct TunedSpmv {
    device: DeviceProfile,
    evaluator: EvaluatorId,
    matrix: CsrMatrix,
    generated: GeneratedSpmv,
    /// Lazily lowered on first native use: the lowering clones the partition
    /// matrices and index arrays, which purely-simulated callers (the common
    /// pre-existing path) should not pay for.
    native: std::sync::OnceLock<NativeKernel>,
    outcome: SearchOutcome,
}

impl TunedSpmv {
    /// Runs `y = A·x` with the machine-designed kernel on the simulated
    /// device.
    pub fn spmv(&self, x: &[Scalar]) -> Result<Vec<Scalar>, String> {
        let sim = GpuSim::new(self.device.clone());
        Ok(sim.run(&self.generated.kernel, x)?.y)
    }

    /// Runs `y = A·x` **natively**: the stored winner executes as a real
    /// threaded CPU kernel (`alpha-cpu`), no simulator involved.  `y` is the
    /// actual product, computed at memory speed.  Steady-state friendly:
    /// repeated calls reuse the process-wide persistent worker pool — no
    /// thread is ever spawned on this path.
    ///
    /// The shared pool runs one job at a time, and candidate-batch fan-out
    /// during a concurrent `auto_tune` uses the same pool (in bounded
    /// `batch_size` jobs), so a multi-threaded `run` issued *while another
    /// thread is tuning in the same process* can wait out a batch.  A
    /// latency-sensitive server running SpMV next to tuning should give its
    /// execution traffic a dedicated pool via
    /// [`TunedSpmv::run_with_pool`] — `alpha-net` does exactly that.
    pub fn run(&self, x: &[Scalar]) -> Result<Vec<Scalar>, String> {
        self.native_kernel().run(x, 0)
    }

    /// [`run`](TunedSpmv::run) with an explicit worker-thread count
    /// (0 = one per available core, 1 = serial).
    pub fn run_with_threads(&self, x: &[Scalar], threads: usize) -> Result<Vec<Scalar>, String> {
        self.native_kernel().run(x, threads)
    }

    /// [`run`](TunedSpmv::run) on an explicit persistent pool — what a
    /// long-lived server uses so its SpMV traffic has a dedicated executor
    /// (e.g. `alpha-net` keeps one per daemon) instead of sharing the
    /// process-wide pool with tuning work.
    pub fn run_with_pool(
        &self,
        x: &[Scalar],
        pool: &alpha_parallel::Pool,
    ) -> Result<Vec<Scalar>, String> {
        self.native_kernel().run_with_pool(x, 0, pool)
    }

    /// Measures the stored winner's native execution with a steady-state
    /// timing harness (warmup + min-of-N), returning wall-clock GFLOP/s.
    pub fn measure(
        &self,
        harness: TimingHarness,
        threads: usize,
    ) -> Result<MeasuredReport, String> {
        let x = alpha_matrix::DenseVector::ones(self.matrix.cols());
        harness.measure_kernel(self.native_kernel(), x.as_slice(), threads)
    }

    /// The lowered native kernel (built on first native use; see
    /// [`TunedSpmv::run`]).
    pub fn native_kernel(&self) -> &NativeKernel {
        self.native.get_or_init(|| {
            NativeKernel::new(self.generated.kernel.metadata(), &self.generated.format)
        })
    }

    /// Which evaluation backend selected this design — the simulator's cost
    /// model or native measured time (with its harness parameters).
    pub fn evaluator(&self) -> EvaluatorId {
        self.evaluator
    }

    /// The monomorphized-library shape key of the lowered native kernel
    /// (see `alpha_cpu::KernelShape::label`).  Lowers the kernel if it has
    /// not run natively yet.
    pub fn kernel_shape(&self) -> String {
        self.native_kernel().shape_label()
    }

    /// Whether every partition of the native kernel executes through a
    /// specialized (branch-free, monomorphized) loop — always true, since
    /// every kernel shape has a library entry.
    pub fn is_specialized(&self) -> bool {
        self.native_kernel().is_specialized()
    }

    /// The winning operator graph, formatted for display.
    pub fn operator_graph(&self) -> String {
        self.outcome.best_graph.to_string().trim_end().to_string()
    }

    /// Modelled performance of the winning kernel.
    pub fn report(&self) -> &PerfReport {
        &self.outcome.best_report
    }

    /// Modelled throughput in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.outcome.best_report.gflops
    }

    /// The emitted CUDA-like source of the winning kernel.
    pub fn source(&self) -> &str {
        &self.generated.source
    }

    /// The emitted Rust source of the specialized loops the native backend
    /// runs for this design (see [`TunedSpmv::run`]).
    pub fn rust_source(&self) -> &str {
        &self.generated.rust_source
    }

    /// The machine-designed format description.
    pub fn format(&self) -> &alpha_codegen::MachineFormat {
        &self.generated.format
    }

    /// The executable kernel (for running on a custom simulator instance).
    pub fn kernel(&self) -> &alpha_codegen::GeneratedKernel {
        &self.generated.kernel
    }

    /// Search statistics (iterations, pruning, modelled search time).
    pub fn search_stats(&self) -> &SearchStats {
        &self.outcome.stats
    }

    /// Statistics of the tuned matrix.
    pub fn matrix_stats(&self) -> MatrixStats {
        MatrixStats::from_csr(&self.matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::{gen, DenseVector};

    #[test]
    fn auto_tune_produces_correct_spmv() {
        let matrix = gen::powerlaw(768, 768, 10, 2.0, 11);
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(25);
        let tuned = tuner.auto_tune(&matrix).unwrap();
        let x = DenseVector::random(768, 3);
        let y = tuned.spmv(x.as_slice()).unwrap();
        let expected = matrix.spmv(x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));
        assert!(tuned.gflops() > 0.0);
        assert!(!tuned.source().is_empty());
        assert!(tuned.operator_graph().contains("COMPRESS"));
        assert!(tuned.search_stats().iterations > 0);
    }

    #[test]
    fn builder_methods_configure_the_search() {
        let tuner = AlphaSparse::new(DeviceProfile::rtx2080())
            .with_search_budget(5)
            .with_pruning(false)
            .with_model_compression(false);
        assert_eq!(tuner.config().max_iterations, 5);
        assert!(!tuner.config().enable_pruning);
        assert!(!tuner.config().enable_model_compression);
        assert_eq!(tuner.config().device.name, "RTX2080");
    }

    #[test]
    fn generate_for_graph_skips_the_search() {
        let matrix = gen::uniform_random(256, 256, 8, 5);
        let tuner = AlphaSparse::new(DeviceProfile::a100());
        let generated = tuner
            .generate_for_graph(&matrix, &alpha_graph::presets::sell_like())
            .unwrap();
        assert!(generated.source.contains("alphasparse_partition_0"));
    }

    #[test]
    fn repeated_tuning_is_served_from_the_design_cache() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 21);
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(15);
        let first = tuner.auto_tune(&matrix).unwrap();
        // A fresh cache may still hit within the first search (canonically
        // equal mutation variants), but most lookups must be misses.
        assert!(first.search_stats().cache_misses > first.search_stats().cache_hits);
        let second = tuner.auto_tune(&matrix).unwrap();
        assert_eq!(
            second.search_stats().cache_misses,
            0,
            "rerun must be fully cached"
        );
        assert!(second.search_stats().cache_hit_rate() > 0.99);
        assert_eq!(first.operator_graph(), second.operator_graph());
        assert_eq!(first.gflops(), second.gflops());
        // Clones share the cache.
        let clone = tuner.clone();
        let third = clone.auto_tune(&matrix).unwrap();
        assert_eq!(third.search_stats().cache_misses, 0);
    }

    #[test]
    fn with_store_makes_tuning_durable_across_tuner_instances() {
        let dir = std::env::temp_dir().join(format!("alphasparse_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/designs.acds");
        let matrix = gen::powerlaw(384, 384, 8, 2.0, 17);

        let first = AlphaSparse::new(DeviceProfile::a100())
            .with_search_budget(12)
            .with_store(&path)
            .unwrap()
            .auto_tune(&matrix)
            .unwrap();
        assert!(
            first.search_stats().cache_misses > 0,
            "cold run must search"
        );
        assert!(path.is_file(), "auto_tune must save the store");

        // A brand-new tuner (standing in for a fresh process) loads the
        // stored designs: the warm run is strictly cheaper — in fact free.
        let revived = AlphaSparse::new(DeviceProfile::a100())
            .with_search_budget(12)
            .with_store(&path)
            .unwrap();
        assert_eq!(revived.store_path(), Some(path.as_path()));
        let second = revived.auto_tune(&matrix).unwrap();
        assert!(
            second.search_stats().cache_misses < first.search_stats().cache_misses,
            "warm run must cost strictly fewer fresh evaluations"
        );
        assert_eq!(second.search_stats().cache_misses, 0, "warm run is free");
        assert_eq!(first.operator_graph(), second.operator_graph());
        assert_eq!(first.gflops(), second.gflops());

        // A corrupted store file is reported, not silently discarded.
        std::fs::write(&path, b"junk").unwrap();
        assert!(AlphaSparse::new(DeviceProfile::a100())
            .with_store(&path)
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn native_run_matches_the_simulated_kernel_and_reference() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 19);
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(12);
        let tuned = tuner.auto_tune(&matrix).unwrap();
        assert_eq!(tuned.evaluator(), EvaluatorId::Simulated);
        let x = DenseVector::random(512, 4);
        let reference = matrix.spmv(x.as_slice()).unwrap();
        let native = tuned.run(x.as_slice()).unwrap();
        let simulated = tuned.spmv(x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(native.clone()).approx_eq(&reference, 1e-3));
        assert!(DenseVector::from_vec(native).approx_eq(&simulated, 1e-3));
        assert!(tuned.rust_source().contains("alphasparse_spmv"));
    }

    #[test]
    fn native_execution_tunes_on_measured_time() {
        let matrix = gen::powerlaw(384, 384, 8, 2.0, 13);
        let tuner = AlphaSparse::new(DeviceProfile::a100())
            .with_search_budget(10)
            .with_native_execution_harness(TimingHarness::quick(), 1);
        let tuned = tuner.auto_tune(&matrix).unwrap();
        assert!(tuned.evaluator().is_native());
        assert_eq!(tuned.report().device, alpha_cpu::NATIVE_DEVICE_LABEL);
        assert!(
            tuned.report().time_us > 0.0,
            "winner carries a measured time"
        );

        let x = DenseVector::random(384, 5);
        let y = tuned.run(x.as_slice()).unwrap();
        let expected = matrix.spmv(x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(y).approx_eq(&expected, 1e-3));

        let measured = tuned.measure(TimingHarness::quick(), 1).unwrap();
        assert!(measured.gflops > 0.0);
    }

    #[test]
    fn auto_tune_mtx_reads_matrix_market_files() {
        let dir = std::env::temp_dir().join("alphasparse_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.mtx");
        let mut text = String::from("%%MatrixMarket matrix coordinate real general\n64 64 128\n");
        for i in 0..64 {
            text.push_str(&format!("{} {} 1.5\n", i + 1, i + 1));
            text.push_str(&format!("{} {} -0.5\n", i + 1, (i + 7) % 64 + 1));
        }
        std::fs::write(&path, text).unwrap();
        let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(8);
        let tuned = tuner.auto_tune_mtx(&path).unwrap();
        assert_eq!(tuned.matrix_stats().rows, 64);
        assert!(tuner.auto_tune_mtx(dir.join("missing.mtx")).is_err());
    }
}
