//! `alpha-bench` — the experiment harness.
//!
//! Every table and figure of the paper's evaluation (Section VII) has a
//! regenerating function here; the `reproduce` binary prints the same rows /
//! series the paper reports, and the Criterion benches wrap the same
//! functions at reduced scale.  Absolute numbers are *modelled* GFLOPS from
//! the `alpha-gpu` cost model (see DESIGN.md), so the comparison of interest
//! is the shape: who wins, by roughly what factor, and where the crossovers
//! fall.

mod serve_load;

pub use serve_load::{
    serve_load, serve_sweep, traced_serve_run, ServeLoadConfig, ServeLoadReport, TracedServeReport,
    TUNE_TRACE_STAGES,
};

use alpha_baselines::{run_pfs, Baseline, PfsOutcome, TacoKernel};
use alpha_gpu::{DeviceProfile, GpuSim};
use alpha_matrix::suite::{self, CorpusConfig, SuiteScale};
use alpha_matrix::{CsrMatrix, DenseVector, MatrixStats};
use alpha_search::{search_with_cache, DesignCache, SearchConfig, SearchOutcome};
use std::sync::Arc;
use std::time::Instant;

/// Scale of one experiment run: how large the corpus, named matrices and
/// search budgets are.  The context also carries the [`DesignCache`] every
/// search of the run shares, so sweeps that revisit a matrix (e.g. the
/// pruning ablation, which searches each Table III matrix twice) reuse
/// evaluations instead of re-simulating them.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Target device profile.
    pub device: DeviceProfile,
    /// Corpus sweep configuration (stands in for the 843-matrix test set).
    pub corpus: CorpusConfig,
    /// Scale factor for the named (Table III / case-study) matrices.
    pub suite_scale: SuiteScale,
    /// Kernel evaluations allowed per search.
    pub search_budget: usize,
    /// Worker threads candidate batches are fanned out over
    /// (0 = one per available core); the `--threads` CLI override lands
    /// here.  Never changes which design wins, only how fast.
    pub threads: usize,
    /// Design cache shared by every search in this experiment run.
    pub cache: Arc<DesignCache>,
}

impl ExperimentContext {
    /// Small scale: used by the Criterion benches and CI (seconds).
    pub fn quick(device: DeviceProfile) -> Self {
        ExperimentContext {
            device,
            corpus: CorpusConfig {
                sizes: vec![1_024, 4_096],
                avg_row_lens: vec![4, 16],
                families: alpha_matrix::gen::PatternFamily::ALL.to_vec(),
                seed: 11,
            },
            suite_scale: SuiteScale(1.0 / 256.0),
            search_budget: 25,
            threads: 0,
            cache: Arc::new(DesignCache::new()),
        }
    }

    /// Default scale of the `reproduce` binary (minutes).
    pub fn standard(device: DeviceProfile) -> Self {
        ExperimentContext {
            device,
            corpus: CorpusConfig {
                sizes: vec![2_048, 8_192, 32_768],
                avg_row_lens: vec![4, 16],
                families: alpha_matrix::gen::PatternFamily::ALL.to_vec(),
                seed: 11,
            },
            suite_scale: SuiteScale(1.0 / 64.0),
            search_budget: 60,
            threads: 0,
            cache: Arc::new(DesignCache::new()),
        }
    }

    /// Sets the candidate-evaluation worker-thread override (see
    /// [`ExperimentContext::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn search_config(&self) -> SearchConfig {
        SearchConfig {
            device: self.device.clone(),
            max_iterations: self.search_budget,
            mutations_per_seed: 3,
            threads: self.threads,
            ..SearchConfig::default()
        }
    }

    /// Runs one search through this context's shared design cache.
    pub fn search(
        &self,
        matrix: &CsrMatrix,
        config: &SearchConfig,
    ) -> Result<SearchOutcome, String> {
        search_with_cache(matrix, config, &self.cache)
    }
}

/// The per-matrix measurements every corpus figure (9-13) is derived from.
#[derive(Debug, Clone)]
pub struct CorpusResult {
    /// Corpus entry name (encodes family, size and row length).
    pub name: String,
    /// Matrix statistics.
    pub stats: MatrixStats,
    /// Performance of every PFS candidate format plus the selected best.
    pub pfs: PfsOutcome,
    /// Performance of the TACO-like baseline.
    pub taco_gflops: f64,
    /// Search outcome for AlphaSparse.
    pub alphasparse: SearchOutcome,
    /// Wall-clock seconds the AlphaSparse search took on the host.
    pub search_wall_secs: f64,
}

impl CorpusResult {
    /// AlphaSparse speedup over the Perfect Format Selector.
    pub fn speedup_over_pfs(&self) -> f64 {
        self.alphasparse.best_report.gflops / self.pfs.best_gflops().max(1e-9)
    }

    /// AlphaSparse speedup over the TACO-like baseline.
    pub fn speedup_over_taco(&self) -> f64 {
        self.alphasparse.best_report.gflops / self.taco_gflops.max(1e-9)
    }

    /// Geometric-mean speedup over the five artificial formats of Figure 9.
    pub fn mean_speedup_over_artificial(&self) -> f64 {
        let speedups: Vec<f64> = Baseline::figure9_set()
            .into_iter()
            .filter_map(|b| self.pfs.report_for(b))
            .map(|r| self.alphasparse.best_report.gflops / r.gflops.max(1e-9))
            .collect();
        geometric_mean(&speedups)
    }
}

/// Geometric mean helper used throughout the report tables.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Evaluates the corpus once: baselines, TACO, PFS and the AlphaSparse search
/// on every entry.  Figures 9, 10, 11, 12 and 13 all derive from this data.
pub fn evaluate_corpus(ctx: &ExperimentContext) -> Vec<CorpusResult> {
    let sim = GpuSim::new(ctx.device.clone());
    let mut results = Vec::new();
    for entry in suite::corpus(&ctx.corpus) {
        if let Some(result) = evaluate_matrix(ctx, &sim, &entry.name, &entry.matrix) {
            results.push(result);
        }
    }
    results
}

/// Evaluates one matrix (used by the corpus sweep and the case studies).
pub fn evaluate_matrix(
    ctx: &ExperimentContext,
    sim: &GpuSim,
    name: &str,
    matrix: &CsrMatrix,
) -> Option<CorpusResult> {
    let x = DenseVector::ones(matrix.cols());
    let pfs = run_pfs(sim, matrix, x.as_slice(), &Baseline::pfs_set()).ok()?;
    let taco = sim
        .run(&TacoKernel::new(matrix.clone()), x.as_slice())
        .ok()?;
    let search_start = Instant::now();
    let alphasparse = ctx.search(matrix, &ctx.search_config()).ok()?;
    let search_wall_secs = search_start.elapsed().as_secs_f64();
    Some(CorpusResult {
        name: name.to_string(),
        stats: MatrixStats::from_csr(matrix),
        pfs,
        taco_gflops: taco.report.gflops,
        alphasparse,
        search_wall_secs,
    })
}

// ---------------------------------------------------------------------------
// Figure 2 — motivating mixed designs
// ---------------------------------------------------------------------------

/// One row of the Figure 2 comparison.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Design name.
    pub design: String,
    /// Modelled GFLOPS.
    pub gflops: f64,
}

/// Figure 2: on the `2D_27628_bjtcai` stand-in, mixed operator-graph designs
/// outperform each of their source formats.
pub fn figure2(ctx: &ExperimentContext) -> Vec<Fig2Row> {
    let matrix = suite::named_matrix("2D_27628_bjtcai", ctx.suite_scale)
        .expect("catalogue entry")
        .matrix;
    let sim = GpuSim::new(ctx.device.clone());
    let x = DenseVector::ones(matrix.cols());
    let mut rows = Vec::new();
    for baseline in [
        Baseline::CsrAdaptive,
        Baseline::RowGroupedCsr,
        Baseline::Sell,
    ] {
        let kernel = baseline.build(&matrix);
        let report = sim
            .run(kernel.as_ref(), x.as_slice())
            .expect("baseline runs")
            .report;
        rows.push(Fig2Row {
            design: baseline.name().to_string(),
            gflops: report.gflops,
        });
    }
    for (name, graph) in [
        (
            "SELL blocking + CSR-Adaptive reduction",
            alpha_graph::presets::fig2_sell_blocking_adaptive_reduction(),
        ),
        (
            "+ row-grouped blocking (triple mix)",
            alpha_graph::presets::fig2_triple_mix(),
        ),
    ] {
        let generated =
            alpha_codegen::generate(&graph, &matrix, alpha_codegen::GeneratorOptions::default())
                .expect("mixed design generates");
        let report = sim
            .run(&generated.kernel, x.as_slice())
            .expect("mixed design runs")
            .report;
        rows.push(Fig2Row {
            design: name.to_string(),
            gflops: report.gflops,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table III — pruning ablation on the 13 named matrices
// ---------------------------------------------------------------------------

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Matrix name.
    pub matrix: String,
    /// Modelled search hours without pruning.
    pub hours_no_pruning: f64,
    /// Modelled search hours with pruning.
    pub hours_pruning: f64,
    /// GFLOPS of the winner found without pruning.
    pub gflops_no_pruning: f64,
    /// GFLOPS of the winner found with pruning.
    pub gflops_pruning: f64,
    /// Machine-readable record of the full-system (pruned) search.
    pub record: BenchRecord,
}

/// Table III: search time and winner quality with and without pruning.
pub fn table3(ctx: &ExperimentContext) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    for name in suite::table3_names() {
        let matrix = suite::named_matrix(name, ctx.suite_scale)
            .expect("catalogue entry")
            .matrix;
        let mut pruned_cfg = ctx.search_config();
        pruned_cfg.enable_pruning = true;
        let mut unpruned_cfg = ctx.search_config();
        unpruned_cfg.enable_pruning = false;
        // Without pruning the paper always runs into the 8-hour cap; model
        // that by giving the unpruned search a larger iteration budget.
        unpruned_cfg.max_iterations = ctx.search_budget * 3;
        // Both searches share ctx.cache: candidates the pruned search already
        // simulated are served from the cache during the unpruned search.
        let pruned_start = Instant::now();
        let pruned_result = ctx.search(&matrix, &pruned_cfg);
        let pruned_wall_secs = pruned_start.elapsed().as_secs_f64();
        let (Ok(pruned), Ok(unpruned)) = (pruned_result, ctx.search(&matrix, &unpruned_cfg)) else {
            continue;
        };
        rows.push(Table3Row {
            matrix: name.to_string(),
            record: BenchRecord::from_search(ctx.device.name, name, &pruned, pruned_wall_secs),
            hours_no_pruning: unpruned.stats.search_hours,
            hours_pruning: pruned.stats.search_hours,
            gflops_no_pruning: unpruned.best_report.gflops,
            gflops_pruning: pruned.best_report.gflops,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 14 — case study on scfxm1-2r
// ---------------------------------------------------------------------------

/// The Figure 14 case-study result.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// Winning operator graph (textual form, Figure 14a).
    pub operator_graph: String,
    /// Baseline + PFS + AlphaSparse comparison (Figure 14b).
    pub comparison: Vec<Fig2Row>,
    /// GFLOPS without Model-Driven Format Compression and without pruning
    /// (the left bar of Figure 14c).
    pub gflops_origin: f64,
    /// GFLOPS with format compression only.
    pub gflops_compression: f64,
    /// GFLOPS with format compression and pruning (the full system).
    pub gflops_full: f64,
    /// Machine-readable record of the full-system search.
    pub record: BenchRecord,
}

/// Figure 14: the machine-designed format for `scfxm1-2r`, its performance
/// against the artificial formats and PFS, and the ablation of the two key
/// optimisations.
pub fn figure14(ctx: &ExperimentContext) -> Fig14Result {
    let matrix = suite::named_matrix("scfxm1-2r", ctx.suite_scale)
        .expect("catalogue entry")
        .matrix;
    let sim = GpuSim::new(ctx.device.clone());
    let x = DenseVector::ones(matrix.cols());

    let mut comparison = Vec::new();
    let pfs = run_pfs(&sim, &matrix, x.as_slice(), &Baseline::pfs_set()).expect("PFS runs");
    for baseline in Baseline::figure9_set() {
        let gflops = pfs.report_for(baseline).map(|r| r.gflops).unwrap_or(0.0);
        comparison.push(Fig2Row {
            design: baseline.name().to_string(),
            gflops,
        });
    }
    comparison.push(Fig2Row {
        design: "PFS".to_string(),
        gflops: pfs.best_gflops(),
    });

    // Full system.
    let full_start = Instant::now();
    let full = ctx
        .search(&matrix, &ctx.search_config())
        .expect("search succeeds");
    let full_wall_secs = full_start.elapsed().as_secs_f64();
    comparison.push(Fig2Row {
        design: "AlphaSparse".to_string(),
        gflops: full.best_report.gflops,
    });

    // Ablations: no compression + no pruning ("origin"), compression only.
    let mut origin_cfg = ctx.search_config();
    origin_cfg.enable_model_compression = false;
    origin_cfg.enable_pruning = false;
    let origin = ctx.search(&matrix, &origin_cfg).expect("search succeeds");
    let mut compress_cfg = ctx.search_config();
    compress_cfg.enable_pruning = false;
    let compression = ctx.search(&matrix, &compress_cfg).expect("search succeeds");

    Fig14Result {
        operator_graph: full.best_graph.to_string().trim_end().to_string(),
        record: BenchRecord::from_search(ctx.device.name, "scfxm1-2r", &full, full_wall_secs),
        comparison,
        gflops_origin: origin.best_report.gflops,
        gflops_compression: compression.best_report.gflops,
        gflops_full: full.best_report.gflops,
    }
}

// ---------------------------------------------------------------------------
// Derived summaries for Figures 9-13
// ---------------------------------------------------------------------------

/// Figure 10: histogram of AlphaSparse-over-PFS speedups with the paper's
/// bucket edges (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, inf).
pub fn fig10_histogram(results: &[CorpusResult]) -> Vec<(String, usize)> {
    let edges = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, f64::INFINITY];
    let mut counts = vec![0usize; edges.len()];
    for r in results {
        let s = r.speedup_over_pfs();
        let bucket = edges.iter().position(|&e| s < e).unwrap_or(edges.len() - 1);
        counts[bucket] += 1;
    }
    let labels = [
        "<0.8", "0.8-1.0", "1.0-1.2", "1.2-1.4", "1.4-1.6", "1.6-1.8", "1.8-2.0", ">2.0",
    ];
    labels.iter().map(|l| l.to_string()).zip(counts).collect()
}

/// Figure 11/12 style slices: average speedup for regular vs irregular
/// matrices.
pub fn speedup_by_regularity(
    results: &[CorpusResult],
    speedup: impl Fn(&CorpusResult) -> f64,
) -> (f64, f64) {
    let regular: Vec<f64> = results
        .iter()
        .filter(|r| !r.stats.is_irregular())
        .map(&speedup)
        .collect();
    let irregular: Vec<f64> = results
        .iter()
        .filter(|r| r.stats.is_irregular())
        .map(&speedup)
        .collect();
    (geometric_mean(&regular), geometric_mean(&irregular))
}

/// Figure 13: average search iterations for regular vs irregular matrices.
pub fn fig13_iterations(results: &[CorpusResult]) -> (f64, f64) {
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let regular: Vec<f64> = results
        .iter()
        .filter(|r| !r.stats.is_irregular())
        .map(|r| r.alphasparse.stats.iterations as f64)
        .collect();
    let irregular: Vec<f64> = results
        .iter()
        .filter(|r| r.stats.is_irregular())
        .map(|r| r.alphasparse.stats.iterations as f64)
        .collect();
    (mean(&regular), mean(&irregular))
}

// ---------------------------------------------------------------------------
// Machine-readable results (BENCH_results.json)
// ---------------------------------------------------------------------------

/// One machine-readable measurement row of a `reproduce` run.  Serialised to
/// `BENCH_results.json` so successive PRs accumulate a performance
/// trajectory that scripts can diff.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Device the measurement was modelled on (`host-cpu` for native runs).
    pub device: String,
    /// Matrix (corpus entry or named catalogue matrix).
    pub matrix: String,
    /// The winning design: the machine-designed operator-graph signature, or
    /// a baseline format name.
    pub format: String,
    /// GFLOPS of the winner under its evaluator: modelled for `simulated`
    /// records, wall-clock for `native` ones.
    pub gflops: f64,
    /// Wall-clock GFLOP/s measured by the native CPU backend's timing
    /// harness; `None` for purely simulated records.
    pub measured_gflops: Option<f64>,
    /// Which backend produced `gflops`: `"simulated"` or `"native"`.
    pub evaluator: String,
    /// Resolved vectorization of the measured kernel (e.g.
    /// `avx2-nnz-x8+pf16`, `scalar`); `None` for records that never lowered
    /// to a native kernel.
    pub simd: Option<String>,
    /// Host CPU feature probe at measurement time (`x86_64:avx2`,
    /// `x86_64:scalar(forced)` under `ALPHA_CPU_NO_SIMD`); `None` for
    /// simulated records.
    pub cpu_features: Option<String>,
    /// Candidate evaluations the search consumed (0 for baselines).
    pub search_iterations: usize,
    /// Design-cache hit rate of the search (0 for baselines).
    pub cache_hit_rate: f64,
    /// Host wall-clock seconds of the search (0 for baselines).
    pub wall_secs: f64,
    /// The `--threads` override this run was configured with (0 = one per
    /// available core, the default).
    pub threads: usize,
    /// Median of the native timing harness's trials in microseconds;
    /// `None` for simulated records.  With `measured_stddev_us`, the
    /// record's noise next to its min-of-N `measured_gflops`.
    pub measured_median_us: Option<f64>,
    /// Standard deviation of the native timing harness's trials in
    /// microseconds; `None` for simulated records.
    pub measured_stddev_us: Option<f64>,
    /// The monomorphized-library shape key of the measured native kernel
    /// (see `alpha_cpu::KernelShape::label`); `None` for records that never
    /// lowered to a native kernel.
    pub kernel_shape: Option<String>,
    /// Latency percentiles + throughput, for serve-bench records only.
    pub latency: Option<LatencySummary>,
    /// Concurrent closed-loop connections that produced this record;
    /// `None` for non-serve records.  The serve sweep emits one record set
    /// per connection count, in increasing order, so scripts can read the
    /// latency-vs-connection-count curve straight out of
    /// `BENCH_results.json`.
    pub clients: Option<usize>,
}

/// Throughput and tail-latency summary of one closed-loop load test (the
/// `reproduce -- serve` records).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// 50th-percentile request latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: f64,
    /// Completed requests per wall-clock second over the whole run.
    pub requests_per_sec: f64,
}

impl LatencySummary {
    /// Summarises a sample of request latencies (microseconds) measured
    /// over `wall_secs` of closed-loop load.
    pub fn from_samples(samples_us: &[f64], wall_secs: f64) -> Self {
        let mut sorted = samples_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        LatencySummary {
            p50_us: percentile(&sorted, 50.0),
            p95_us: percentile(&sorted, 95.0),
            p99_us: percentile(&sorted, 99.0),
            requests_per_sec: if wall_secs > 0.0 {
                samples_us.len() as f64 / wall_secs
            } else {
                0.0
            },
        }
    }
}

/// Nearest-rank percentile of an already **sorted** sample (0 for an empty
/// one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl BenchRecord {
    /// Builds the record for one AlphaSparse search outcome (simulated cost
    /// model).
    pub fn from_search(
        device: &str,
        matrix: &str,
        outcome: &SearchOutcome,
        wall_secs: f64,
    ) -> Self {
        BenchRecord {
            device: device.to_string(),
            matrix: matrix.to_string(),
            format: outcome.best_graph.signature(),
            gflops: outcome.best_report.gflops,
            measured_gflops: None,
            evaluator: alpha_search::EvaluatorId::Simulated.label().to_string(),
            simd: None,
            cpu_features: None,
            search_iterations: outcome.stats.iterations,
            cache_hit_rate: outcome.stats.cache_hit_rate(),
            wall_secs,
            threads: 0,
            measured_median_us: None,
            measured_stddev_us: None,
            kernel_shape: None,
            latency: None,
            clients: None,
        }
    }

    /// Builds the record for one corpus result's AlphaSparse search.
    pub fn from_corpus_result(device: &str, result: &CorpusResult) -> Self {
        BenchRecord {
            device: device.to_string(),
            matrix: result.name.clone(),
            format: result.alphasparse.best_graph.signature(),
            gflops: result.alphasparse.best_report.gflops,
            measured_gflops: None,
            evaluator: alpha_search::EvaluatorId::Simulated.label().to_string(),
            simd: None,
            cpu_features: None,
            search_iterations: result.alphasparse.stats.iterations,
            cache_hit_rate: result.alphasparse.stats.cache_hit_rate(),
            wall_secs: result.search_wall_secs,
            threads: 0,
            measured_median_us: None,
            measured_stddev_us: None,
            kernel_shape: None,
            latency: None,
            clients: None,
        }
    }

    /// Builds a record for one natively measured kernel (generated design or
    /// baseline format).
    pub fn measured(
        matrix: &str,
        format: &str,
        report: &alpha_cpu::MeasuredReport,
        search_iterations: usize,
        cache_hit_rate: f64,
        wall_secs: f64,
    ) -> Self {
        BenchRecord {
            device: alpha_cpu::NATIVE_DEVICE_LABEL.to_string(),
            matrix: matrix.to_string(),
            format: format.to_string(),
            gflops: report.gflops,
            measured_gflops: Some(report.gflops),
            evaluator: "native".to_string(),
            simd: Some("scalar".to_string()),
            cpu_features: Some(alpha_cpu::cpu_features::summary()),
            search_iterations,
            cache_hit_rate,
            wall_secs,
            threads: 0,
            measured_median_us: Some(report.median_us),
            measured_stddev_us: Some(report.stddev_us),
            kernel_shape: None,
            latency: None,
            clients: None,
        }
    }

    /// Attaches the kernel's resolved vectorization label (see
    /// [`BenchRecord::simd`]).  [`BenchRecord::measured`] defaults to
    /// `"scalar"` — the truth for every baseline — so only generated-kernel
    /// records need this override.
    pub fn with_simd(mut self, label: impl Into<String>) -> Self {
        self.simd = Some(label.into());
        self
    }

    /// Attaches the measured kernel's monomorphized-library shape key (see
    /// [`BenchRecord::kernel_shape`]).
    pub fn with_kernel_shape(mut self, shape: impl Into<String>) -> Self {
        self.kernel_shape = Some(shape.into());
        self
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_string())
}

fn json_opt_str(v: Option<&str>) -> String {
    v.map(|s| format!("\"{}\"", json_escape(s)))
        .unwrap_or_else(|| "null".to_string())
}

/// Serialises the records as a JSON array (pretty-printed, stable field
/// order; no external JSON crate needed).
pub fn results_to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"device\": \"{}\", \"matrix\": \"{}\", \"format\": \"{}\", \
             \"gflops\": {}, \"measured_gflops\": {}, \"evaluator\": \"{}\", \
             \"simd\": {}, \"cpu_features\": {}, \
             \"search_iterations\": {}, \"cache_hit_rate\": {}, \
             \"wall_secs\": {}, \"threads\": {}, \"measured_median_us\": {}, \
             \"measured_stddev_us\": {}, \"kernel_shape\": {}, \
             \"clients\": {}, \"p50_us\": {}, \
             \"p95_us\": {}, \"p99_us\": {}, \"requests_per_sec\": {}}}{}\n",
            json_escape(&r.device),
            json_escape(&r.matrix),
            json_escape(&r.format),
            json_f64(r.gflops),
            json_opt_f64(r.measured_gflops),
            json_escape(&r.evaluator),
            json_opt_str(r.simd.as_deref()),
            json_opt_str(r.cpu_features.as_deref()),
            r.search_iterations,
            json_f64(r.cache_hit_rate),
            json_f64(r.wall_secs),
            r.threads,
            json_opt_f64(r.measured_median_us),
            json_opt_f64(r.measured_stddev_us),
            json_opt_str(r.kernel_shape.as_deref()),
            r.clients
                .map(|c| c.to_string())
                .unwrap_or_else(|| "null".to_string()),
            json_opt_f64(r.latency.map(|l| l.p50_us)),
            json_opt_f64(r.latency.map(|l| l.p95_us)),
            json_opt_f64(r.latency.map(|l| l.p99_us)),
            json_opt_f64(r.latency.map(|l| l.requests_per_sec)),
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

/// Writes the records to `path` as JSON, creating missing parent directories
/// first (so `reproduce` can be pointed at a results path that does not
/// exist yet without panicking or losing the run's measurements).
pub fn write_results_json(
    path: impl AsRef<std::path::Path>,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, results_to_json(records))
}

// ---------------------------------------------------------------------------
// Native snapshot history (BENCH_native.json)
// ---------------------------------------------------------------------------

/// One record array re-indented for embedding as an object value: the `[`
/// stays on the key's line, every following line gains two spaces.
fn snapshot_entry(records: &[BenchRecord]) -> String {
    let json = results_to_json(records);
    let mut out = String::new();
    for (i, line) in json.trim_end().lines().enumerate() {
        if i == 0 {
            out.push_str(line);
        } else {
            out.push_str("\n  ");
            out.push_str(line);
        }
    }
    out
}

/// Splits a snapshot file written by [`write_native_snapshot`] back into
/// `(key, raw array text)` entries.  Line-oriented on the writer's own
/// stable layout — not a general JSON parser; unrecognised lines are
/// skipped, so a corrupted file degrades to fewer surviving entries rather
/// than an error.
pub fn parse_native_snapshot(text: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    let mut key: Option<String> = None;
    let mut value = String::new();
    for line in text.lines() {
        match &key {
            None => {
                if let Some(rest) = line.strip_prefix("  \"") {
                    if let Some(pos) = rest.find("\": [") {
                        key = Some(rest[..pos].to_string());
                        value = String::from("[");
                    }
                }
            }
            Some(_) => {
                if line == "  ]" || line == "  ]," {
                    value.push_str("\n  ]");
                    entries.push((key.take().unwrap(), std::mem::take(&mut value)));
                } else {
                    value.push('\n');
                    value.push_str(line);
                }
            }
        }
    }
    entries
}

/// Writes/updates one entry of the native snapshot file
/// (`BENCH_native.json`): a JSON object mapping snapshot keys (`git
/// describe` strings) to record arrays.  Existing entries under **other**
/// keys are preserved, so successive PRs accumulate a SIMD-era throughput
/// history; a rerun of the same tree replaces its own entry instead of
/// duplicating it.  Missing parent directories are created.
pub fn write_native_snapshot(
    path: impl AsRef<std::path::Path>,
    key: &str,
    records: &[BenchRecord],
) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => parse_native_snapshot(&text),
        Err(_) => Vec::new(),
    };
    entries.retain(|(k, _)| k != key);
    entries.push((key.to_string(), snapshot_entry(records)));
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "  \"{}\": {}{}\n",
            json_escape(k),
            v,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("}\n");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, out)
}

// ---------------------------------------------------------------------------
// Cold-vs-warm serving comparison (`reproduce -- warm`)
// ---------------------------------------------------------------------------

/// The measurements of one cold-vs-warm serving comparison: the same matrix
/// fleet tuned twice through a persistent `DesignStore`.
#[derive(Debug, Clone)]
pub struct WarmComparison {
    /// Number of distinct matrices in the fleet.
    pub fleet_size: usize,
    /// Wall-clock seconds of the cold pass (empty store: every search runs).
    pub cold_wall_secs: f64,
    /// Wall-clock seconds of the warm pass (store reopened from disk: every
    /// search replays from cached evaluations).
    pub warm_wall_secs: f64,
    /// Fresh simulator evaluations the cold pass performed.
    pub cold_fresh_evaluations: usize,
    /// Fresh simulator evaluations the warm pass performed (0 when the store
    /// is working as designed).
    pub warm_fresh_evaluations: usize,
}

impl WarmComparison {
    /// Cold wall-clock over warm wall-clock — the search-time amortisation a
    /// persistent store buys.
    pub fn speedup(&self) -> f64 {
        if self.warm_wall_secs <= 0.0 {
            return 0.0;
        }
        self.cold_wall_secs / self.warm_wall_secs
    }
}

/// Tunes a synthetic fleet twice through an `alpha-serve` `TuningService`
/// backed by a `DesignStore` at `store_dir`, simulating a process restart in
/// between: the first pass searches for real, the store is flushed and
/// reopened, and the second pass must be answered from disk.
///
/// The store directory is wiped first so the cold pass is genuinely cold.
pub fn warm_vs_cold(
    device: DeviceProfile,
    store_dir: &std::path::Path,
    fleet_size: usize,
    search_budget: usize,
    threads: usize,
) -> Result<WarmComparison, String> {
    use alpha_serve::{DesignStore, TuneRequest, TuningService};

    let _ = std::fs::remove_dir_all(store_dir);
    let requests: Vec<TuneRequest> = (0..fleet_size)
        .map(|i| {
            let family = alpha_matrix::gen::PatternFamily::ALL
                [i % alpha_matrix::gen::PatternFamily::ALL.len()];
            TuneRequest::new(family.generate(2_048, 8, 1_000 + i as u64), device.clone())
        })
        .collect();
    let config = SearchConfig {
        device: device.clone(),
        max_iterations: search_budget,
        mutations_per_seed: 3,
        threads,
        ..SearchConfig::default()
    };

    let serve_pass = |service: &TuningService| -> Result<(f64, usize), String> {
        let start = Instant::now();
        let served = service.tune_batch(&requests);
        let wall = start.elapsed().as_secs_f64();
        let mut fresh = 0;
        for result in served {
            fresh += result?.fresh_evaluations;
        }
        Ok((wall, fresh))
    };

    let cold_service = TuningService::new(DesignStore::open(store_dir)?, config.clone());
    let (cold_wall_secs, cold_fresh_evaluations) = serve_pass(&cold_service)?;
    cold_service.store().flush().map_err(String::from)?;
    drop(cold_service);

    // The reopened store stands in for a fresh process: nothing is resident,
    // everything must come from the cache files.
    let warm_service = TuningService::new(DesignStore::open(store_dir)?, config);
    let (warm_wall_secs, warm_fresh_evaluations) = serve_pass(&warm_service)?;

    Ok(WarmComparison {
        fleet_size,
        cold_wall_secs,
        warm_wall_secs,
        cold_fresh_evaluations,
        warm_fresh_evaluations,
    })
}

// ---------------------------------------------------------------------------
// Native execution mode (`reproduce -- native`)
// ---------------------------------------------------------------------------

/// Configuration of one `reproduce -- native` run.
#[derive(Debug, Clone, Copy)]
pub struct NativeModeConfig {
    /// Matrices in the fleet (pattern families cycle).
    pub fleet_size: usize,
    /// Rows (= columns) of each matrix.
    pub rows: usize,
    /// Base average row length.  The fleet cycles a density ladder of
    /// `avg_row_len << (i % 3)` (1x/2x/4x) alongside the pattern families:
    /// sparse rows are the regime where vectorization must prove it does no
    /// harm, dense rows the one where it must pay.
    pub avg_row_len: usize,
    /// Search budget per matrix (candidate measurements).
    pub budget: usize,
    /// Timing harness for both the search and the final measurements.
    pub harness: alpha_cpu::TimingHarness,
    /// Worker threads each measured kernel runs with (0 = one per available
    /// core); the `--threads` CLI override lands here.
    pub kernel_threads: usize,
}

impl Default for NativeModeConfig {
    fn default() -> Self {
        NativeModeConfig {
            fleet_size: 6,
            rows: 16_384,
            avg_row_len: 8,
            budget: 80,
            harness: alpha_cpu::TimingHarness::default(),
            kernel_threads: 0,
        }
    }
}

impl NativeModeConfig {
    /// Tiny scale for tests.
    pub fn tiny() -> Self {
        NativeModeConfig {
            fleet_size: 2,
            rows: 256,
            avg_row_len: 6,
            budget: 6,
            harness: alpha_cpu::TimingHarness::quick(),
            kernel_threads: 0,
        }
    }
}

/// One matrix's rows of the native comparison: the tuned generated kernel
/// plus every native baseline, all timed with the same harness.
#[derive(Debug, Clone)]
pub struct NativeMatrixResult {
    /// Matrix name.
    pub name: String,
    /// Record of the generated (machine-designed) kernel.
    pub generated: BenchRecord,
    /// Record of the same winning design re-lowered with vectorization
    /// forced off ([`alpha_cpu::SimdMode::ForceScalar`]) and measured on a
    /// single thread — the scalar side of the SIMD differential.
    pub scalar: BenchRecord,
    /// Single-thread GFLOP/s of the tuned kernel as actually lowered (SIMD
    /// when the winning design carries lane operators and the host supports
    /// them) — the vector side of the SIMD differential.
    pub simd_single_thread_gflops: f64,
    /// Records of the native baselines (CSR, ELL, HYB, Merge).
    pub baselines: Vec<BenchRecord>,
}

impl NativeMatrixResult {
    /// Measured speedup of the generated kernel over the best baseline.
    pub fn speedup_over_best_baseline(&self) -> f64 {
        let best = self
            .baselines
            .iter()
            .map(|r| r.gflops)
            .fold(0.0f64, f64::max);
        if best <= 0.0 {
            0.0
        } else {
            self.generated.gflops / best
        }
    }

    /// Single-thread SIMD-vs-scalar speedup of the winning design (~1.0 when
    /// the winner carries no lane operators, so both kernels are scalar).
    pub fn simd_speedup(&self) -> f64 {
        if self.scalar.gflops <= 0.0 {
            0.0
        } else {
            self.simd_single_thread_gflops / self.scalar.gflops
        }
    }
}

/// `reproduce -- native`: tunes a matrix fleet with the **native
/// measured-time evaluator** (the search optimises the wall clock of this
/// machine), then measures the winning generated kernels against the native
/// baseline implementations with the same steady-state harness.  Every row
/// carries `measured_gflops`, so `BENCH_results.json` gains real throughput
/// next to the simulated trajectory.
///
/// Before anything is timed, the kernel's output is checked against the
/// reference SpMV within [`alpha_matrix::max_scaled_error`] tolerance; a
/// divergence fails the run (this is what lets CI assert correctness under
/// the real binary at several `--threads` values).
///
/// Each winning design is additionally re-lowered with vectorization forced
/// off and both twins are timed on a single thread: the SIMD differential
/// ([`NativeMatrixResult::simd_speedup`]) isolates what the microkernels buy
/// from what thread scaling buys.  Every generated row records its
/// [`BenchRecord::kernel_shape`].
pub fn native_mode(config: NativeModeConfig) -> Result<Vec<NativeMatrixResult>, String> {
    use alphasparse::AlphaSparse;

    /// Same tolerance as the differential suite.
    const TOL: f32 = 1e-3;

    let mut results = Vec::new();
    for i in 0..config.fleet_size {
        let families = alpha_matrix::gen::PatternFamily::ALL;
        let family = families[i % families.len()];
        let avg_row_len = config.avg_row_len << (i % 3);
        let matrix = family.generate(config.rows, avg_row_len, 4_000 + i as u64);
        let name = format!("{}_{}x{}_{}", family.name(), config.rows, avg_row_len, i);

        let search_config = SearchConfig {
            max_iterations: config.budget,
            mutations_per_seed: 2,
            ..SearchConfig::default()
        };
        let tuner = AlphaSparse::with_config(search_config)
            .with_native_execution_harness(config.harness, config.kernel_threads);
        let start = Instant::now();
        let tuned = tuner.auto_tune(&matrix)?;
        let wall_secs = start.elapsed().as_secs_f64();

        let x = DenseVector::ones(matrix.cols());
        // Correctness gate: the pooled (nnz-balanced) execution must
        // reproduce the reference product before its timing counts.
        let reference = matrix.spmv(x.as_slice()).map_err(|e| e.to_string())?;
        let y = tuned.run_with_threads(x.as_slice(), config.kernel_threads)?;
        let error = alpha_matrix::max_scaled_error(&y, &reference);
        if error > TOL {
            return Err(format!(
                "{name}: kernel diverged from the reference SpMV \
                 (max scaled error {error:.2e} > {TOL:.0e})"
            ));
        }

        let measured = tuned.measure(config.harness, config.kernel_threads)?;
        let generated = BenchRecord::measured(
            &name,
            &tuned.operator_graph(),
            &measured,
            tuned.search_stats().iterations,
            tuned.search_stats().cache_hit_rate(),
            wall_secs,
        )
        .with_simd(tuned.native_kernel().simd_label())
        .with_kernel_shape(tuned.kernel_shape());

        // SIMD differential: re-lower the same winning design with
        // vectorization forced off and time both sides single-threaded, so
        // the microkernels' win is visible independent of thread scaling.
        // The twin must also pass the correctness gate before it is timed.
        let scalar_kernel = alpha_cpu::NativeKernel::with_simd_mode(
            tuned.kernel().metadata(),
            tuned.format(),
            alpha_cpu::SimdMode::ForceScalar,
        );
        let y_scalar = scalar_kernel.run(x.as_slice(), 1)?;
        let scalar_error = alpha_matrix::max_scaled_error(&y_scalar, &reference);
        if scalar_error > TOL {
            return Err(format!(
                "{name}: forced-scalar twin diverged from the reference SpMV \
                 (max scaled error {scalar_error:.2e} > {TOL:.0e})"
            ));
        }
        let simd_1t = config
            .harness
            .measure_kernel(tuned.native_kernel(), x.as_slice(), 1)?;
        let scalar_1t = config
            .harness
            .measure_kernel(&scalar_kernel, x.as_slice(), 1)?;
        let scalar = BenchRecord::measured(&name, &tuned.operator_graph(), &scalar_1t, 0, 0.0, 0.0)
            .with_simd(scalar_kernel.simd_label())
            .with_kernel_shape(scalar_kernel.shape_label());

        let mut baselines = Vec::new();
        for baseline in alpha_baselines::native_set() {
            let kernel = alpha_baselines::NativeBaselineKernel::new(baseline, &matrix)?;
            let report = kernel.measure(config.harness, x.as_slice(), config.kernel_threads)?;
            baselines.push(BenchRecord::measured(
                &name,
                baseline.name(),
                &report,
                0,
                0.0,
                0.0,
            ));
        }
        results.push(NativeMatrixResult {
            name,
            generated,
            scalar,
            simd_single_thread_gflops: simd_1t.gflops,
            baselines,
        });
    }
    Ok(results)
}

// ---------------------------------------------------------------------------
// Mode parsing for the `reproduce` binary
// ---------------------------------------------------------------------------

/// Every mode `reproduce` understands.  `warm`, `native` and `serve` are
/// opt-in only (not part of `all`): they benchmark this repo's serving and
/// native layers rather than a figure of the paper.
pub const KNOWN_MODES: &[&str] = &[
    "all", "fig2", "fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13", "table3", "fig14", "warm",
    "native", "serve",
];

/// The modes excluded from `all` (see [`KNOWN_MODES`]).
const OPT_IN_MODES: &[&str] = &["warm", "native", "serve"];

/// The parsed `reproduce` command line: the mode list plus the flags that
/// apply across modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCli {
    /// Validated, lower-cased modes (defaults to `["all"]`).
    pub modes: Vec<String>,
    /// Worker-thread override (`--threads N`); 0 = one per available core.
    /// Flows into `SearchConfig::threads` for every mode and is recorded in
    /// every `BenchRecord`.
    pub threads: usize,
    /// `--trace`: the `serve` mode additionally runs one traced request
    /// batch against the daemon, stitches client- and server-side spans
    /// into a Chrome trace artifact, and prints per-stage attribution for
    /// the slowest request from the daemon's flight recorder.
    pub trace: bool,
}

/// Parses the full `reproduce` command line: `--threads N` / `--threads=N`
/// and `--trace` flags anywhere, every other argument a mode.
pub fn parse_cli(args: &[String]) -> Result<BenchCli, String> {
    let mut modes = Vec::new();
    let mut threads = 0usize;
    let mut trace = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(value) = arg.strip_prefix("--threads=") {
            threads = parse_threads(value)?;
        } else if arg == "--threads" {
            let value = iter
                .next()
                .ok_or_else(|| "--threads requires a value (0 = one per core)".to_string())?;
            threads = parse_threads(value)?;
        } else if arg == "--trace" {
            trace = true;
        } else if arg.starts_with("--") {
            return Err(format!(
                "unknown flag '{arg}'\nknown flags: --threads N, --trace"
            ));
        } else {
            modes.push(arg.clone());
        }
    }
    Ok(BenchCli {
        modes: resolve_modes(&modes)?,
        threads,
        trace,
    })
}

fn parse_threads(value: &str) -> Result<usize, String> {
    value
        .parse::<usize>()
        .map_err(|_| format!("--threads expects a non-negative integer, got '{value}'"))
}

/// Normalises and validates the `reproduce` mode list.  No arguments means
/// `all`; an unknown mode is an error whose message lists every known mode
/// (the binary prints it and exits non-zero).
pub fn resolve_modes(args: &[String]) -> Result<Vec<String>, String> {
    if args.is_empty() {
        return Ok(vec!["all".to_string()]);
    }
    let wanted: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
    for mode in &wanted {
        if !KNOWN_MODES.contains(&mode.as_str()) {
            return Err(format!(
                "unknown mode '{mode}'\nknown modes: {}",
                KNOWN_MODES.join(", ")
            ));
        }
    }
    Ok(wanted)
}

/// True when `key` should run for the resolved mode list: either named
/// explicitly, or covered by `all` (which excludes the opt-in `warm` and
/// `native` modes).
pub fn mode_selected(wanted: &[String], key: &str) -> bool {
    wanted.iter().any(|w| w == key)
        || (!OPT_IN_MODES.contains(&key) && wanted.iter().any(|w| w == "all"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::gen;

    fn tiny_context() -> ExperimentContext {
        ExperimentContext {
            device: DeviceProfile::a100(),
            corpus: CorpusConfig::tiny(),
            suite_scale: SuiteScale(1.0 / 512.0),
            search_budget: 8,
            threads: 0,
            cache: Arc::new(DesignCache::new()),
        }
    }

    #[test]
    fn figure2_mixed_designs_beat_their_sources() {
        let rows = figure2(&tiny_context());
        assert_eq!(rows.len(), 5);
        let best_source = rows[..3].iter().map(|r| r.gflops).fold(0.0, f64::max);
        let best_mix = rows[3..].iter().map(|r| r.gflops).fold(0.0, f64::max);
        assert!(
            best_mix >= 0.9 * best_source,
            "mixed designs ({best_mix:.1}) should be competitive with sources ({best_source:.1})"
        );
    }

    #[test]
    fn corpus_evaluation_produces_speedups() {
        let ctx = tiny_context();
        let results = evaluate_corpus(&ctx);
        assert!(!results.is_empty());
        for r in &results {
            assert!(r.speedup_over_pfs() > 0.0);
            assert!(r.speedup_over_taco() > 0.0);
        }
        let histogram = fig10_histogram(&results);
        assert_eq!(
            histogram.iter().map(|(_, c)| c).sum::<usize>(),
            results.len()
        );
        let (reg, irr) = fig13_iterations(&results);
        assert!(reg >= 0.0 && irr >= 0.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn shared_cache_speeds_up_the_pruning_ablation() {
        // table3 searches every matrix twice (pruned + unpruned) through the
        // context's shared cache: the second search must see hits.
        let ctx = tiny_context();
        let rows = table3(&ctx);
        assert!(!rows.is_empty());
        let stats = ctx.cache.stats();
        assert!(
            stats.hits > 0,
            "the ablation's second search should reuse evaluations"
        );
    }

    #[test]
    fn bench_records_serialise_to_valid_json() {
        let records = vec![
            BenchRecord {
                device: "A100".into(),
                matrix: "powerlaw_1024".into(),
                format: "COMPRESS;[0]BMT_ROW_BLOCK(rows=1);".into(),
                gflops: 123.4,
                measured_gflops: None,
                evaluator: "simulated".into(),
                simd: None,
                cpu_features: None,
                search_iterations: 25,
                cache_hit_rate: 0.5,
                wall_secs: 1.25,
                threads: 0,
                measured_median_us: None,
                measured_stddev_us: None,
                kernel_shape: None,
                latency: None,
                clients: None,
            },
            BenchRecord {
                device: "RTX2080".into(),
                matrix: "with \"quotes\"\nand newline".into(),
                format: "CSR5".into(),
                gflops: 56.7,
                measured_gflops: Some(61.2),
                evaluator: "native".into(),
                simd: Some("avx2-nnz-x8+pf16".into()),
                cpu_features: Some("x86_64:avx2".into()),
                search_iterations: 0,
                cache_hit_rate: 0.0,
                wall_secs: 0.0,
                threads: 2,
                measured_median_us: Some(70.5),
                measured_stddev_us: Some(3.25),
                kernel_shape: Some("rows[off:table,org:id,col:table]:avx2-nnz-x8+pf".into()),
                latency: Some(LatencySummary {
                    p50_us: 10.0,
                    p95_us: 20.0,
                    p99_us: 30.0,
                    requests_per_sec: 123.0,
                }),
                clients: Some(16),
            },
        ];
        let json = results_to_json(&records);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"gflops\": 123.4"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"simd\": null"));
        assert!(json.contains("\"simd\": \"avx2-nnz-x8+pf16\""));
        assert!(json.contains("\"cpu_features\": \"x86_64:avx2\""));
        assert!(json.contains("\"kernel_shape\": null"));
        assert!(
            json.contains("\"kernel_shape\": \"rows[off:table,org:id,col:table]:avx2-nnz-x8+pf\"")
        );
        assert_eq!(json.matches("\"device\"").count(), 2);
        // Round-trip through a file.
        let dir = std::env::temp_dir().join("alpha_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_results.json");
        write_results_json(&path, &records).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
    }

    #[test]
    fn native_snapshot_accumulates_history_and_replaces_its_own_key() {
        let dir = std::env::temp_dir().join(format!("alpha_bench_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("history/BENCH_native.json");
        let record = |gflops: f64| BenchRecord {
            device: "host-cpu".into(),
            matrix: "m".into(),
            format: "CSR".into(),
            gflops,
            measured_gflops: Some(gflops),
            evaluator: "native".into(),
            simd: Some("avx2-nnz-x8+pf16".into()),
            cpu_features: Some("x86_64:avx2".into()),
            search_iterations: 0,
            cache_hit_rate: 0.0,
            wall_secs: 0.0,
            threads: 0,
            measured_median_us: Some(1.0),
            measured_stddev_us: Some(0.1),
            kernel_shape: None,
            latency: None,
            clients: None,
        };
        write_native_snapshot(&path, "v5-1-gaaaa", &[record(1.0)]).unwrap();
        write_native_snapshot(&path, "v6-1-gbbbb", &[record(2.0), record(3.0)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = parse_native_snapshot(&text);
        assert_eq!(entries.len(), 2, "distinct keys accumulate");
        assert_eq!(entries[0].0, "v5-1-gaaaa");
        assert_eq!(entries[1].0, "v6-1-gbbbb");
        // A rerun of the same tree replaces its entry, preserving the rest.
        write_native_snapshot(&path, "v6-1-gbbbb", &[record(4.0)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let entries = parse_native_snapshot(&text);
        assert_eq!(entries.len(), 2, "rerun must not duplicate its key");
        assert!(entries[0].1.contains("\"gflops\": 1"));
        assert!(entries[1].1.contains("\"gflops\": 4"));
        assert!(!text.contains("\"gflops\": 2"), "replaced entry is gone");
        // The embedded arrays keep the full record shape (SIMD columns in).
        assert!(text.starts_with("{\n"));
        assert!(text.trim_end().ends_with('}'));
        assert!(text.contains("\"simd\": \"avx2-nnz-x8+pf16\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_results_json_creates_missing_parent_directories() {
        let dir = std::env::temp_dir().join(format!("alpha_bench_parents_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("does/not/exist/BENCH_results.json");
        let records = vec![BenchRecord {
            device: "A100".into(),
            matrix: "m".into(),
            format: "CSR".into(),
            gflops: 1.0,
            measured_gflops: None,
            evaluator: "simulated".into(),
            simd: None,
            cpu_features: None,
            search_iterations: 1,
            cache_hit_rate: 0.0,
            wall_secs: 0.0,
            threads: 0,
            measured_median_us: None,
            measured_stddev_us: None,
            kernel_shape: None,
            latency: None,
            clients: None,
        }];
        write_results_json(&path, &records).expect("parents are created");
        assert!(path.is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_pass_is_free_and_not_slower() {
        let dir = std::env::temp_dir().join(format!("alpha_bench_warm_{}", std::process::id()));
        let cmp = warm_vs_cold(DeviceProfile::a100(), &dir, 3, 8, 0).expect("comparison runs");
        assert_eq!(cmp.fleet_size, 3);
        assert!(cmp.cold_fresh_evaluations > 0, "cold pass must search");
        assert_eq!(cmp.warm_fresh_evaluations, 0, "warm pass must be cached");
        assert!(cmp.speedup() > 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_modes_are_rejected_with_the_mode_list() {
        let err = resolve_modes(&["fig9a".into(), "bogus".into()]).unwrap_err();
        assert!(err.contains("unknown mode 'bogus'"));
        for mode in KNOWN_MODES {
            assert!(err.contains(mode), "error must list '{mode}'");
        }
        // Case-insensitive, defaulting to `all`.
        assert_eq!(resolve_modes(&[]).unwrap(), vec!["all".to_string()]);
        assert_eq!(
            resolve_modes(&["Fig9A".into(), "NATIVE".into()]).unwrap(),
            vec!["fig9a".to_string(), "native".to_string()]
        );
    }

    #[test]
    fn cli_parses_threads_flag_in_both_spellings() {
        let cli = parse_cli(&["fig2".into(), "--threads".into(), "4".into()]).unwrap();
        assert_eq!(cli.modes, vec!["fig2".to_string()]);
        assert_eq!(cli.threads, 4);
        let cli = parse_cli(&["--threads=2".into(), "native".into(), "warm".into()]).unwrap();
        assert_eq!(cli.modes, vec!["native".to_string(), "warm".to_string()]);
        assert_eq!(cli.threads, 2);
        assert!(!cli.trace);
        let cli = parse_cli(&[
            "serve".into(),
            "--trace".into(),
            "--threads".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(cli.trace);
        assert_eq!(cli.modes, vec!["serve".to_string()]);
        // Default: all modes, auto threads, no tracing.
        let cli = parse_cli(&[]).unwrap();
        assert_eq!(cli.modes, vec!["all".to_string()]);
        assert_eq!(cli.threads, 0);
        assert!(!cli.trace);
        // Errors: missing/garbled value, unknown flag, unknown mode.
        assert!(parse_cli(&["--threads".into()]).is_err());
        assert!(parse_cli(&["--threads".into(), "many".into()]).is_err());
        assert!(parse_cli(&["--frobnicate".into()]).is_err());
        assert!(parse_cli(&["bogus".into()]).is_err());
    }

    #[test]
    fn threads_override_flows_into_search_configs_without_changing_winners() {
        let base = tiny_context();
        let pinned = tiny_context().with_threads(1);
        assert_eq!(pinned.search_config().threads, 1);
        assert_eq!(base.search_config().threads, 0);
        // The engine's determinism guarantee, spot-checked end to end: the
        // same search at different thread counts finds the same design.
        let matrix = gen::powerlaw(256, 256, 6, 2.0, 7);
        let a = base.search(&matrix, &base.search_config()).unwrap();
        let b = pinned.search(&matrix, &pinned.search_config()).unwrap();
        assert_eq!(a.best_graph, b.best_graph);
        assert_eq!(a.best_report.gflops, b.best_report.gflops);
    }

    #[test]
    fn warm_and_native_dispatch_only_when_named() {
        // `all` covers the paper artifacts but not the opt-in modes...
        let all = resolve_modes(&[]).unwrap();
        assert!(mode_selected(&all, "fig9a"));
        assert!(mode_selected(&all, "table3"));
        assert!(!mode_selected(&all, "warm"));
        assert!(!mode_selected(&all, "native"));
        assert!(!mode_selected(&all, "serve"));
        let serve = resolve_modes(&["serve".into()]).unwrap();
        assert!(mode_selected(&serve, "serve"));
        assert!(!mode_selected(&serve, "fig9a"));
        // ...which run exactly when named.
        let native = resolve_modes(&["native".into()]).unwrap();
        assert!(mode_selected(&native, "native"));
        assert!(!mode_selected(&native, "warm"));
        assert!(!mode_selected(&native, "fig9a"));
        let warm = resolve_modes(&["warm".into(), "fig2".into()]).unwrap();
        assert!(mode_selected(&warm, "warm"));
        assert!(mode_selected(&warm, "fig2"));
        assert!(!mode_selected(&warm, "native"));
    }

    #[test]
    fn native_mode_measures_generated_kernels_against_baselines() {
        let results = native_mode(NativeModeConfig::tiny()).expect("native mode runs");
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.generated.evaluator, "native");
            assert_eq!(r.generated.measured_gflops, Some(r.generated.gflops));
            assert!(r.generated.gflops > 0.0);
            assert!(r.generated.search_iterations > 0);
            // Every native record carries the SIMD label + the host probe.
            assert!(r.generated.simd.is_some());
            assert!(r.generated.cpu_features.is_some());
            // ...and the library shape the kernel runs.
            assert!(r.generated.kernel_shape.is_some());
            // The forced-scalar twin really resolved scalar and was measured.
            assert_eq!(r.scalar.simd.as_deref(), Some("scalar"));
            assert!(r.scalar.gflops > 0.0);
            assert!(r.simd_single_thread_gflops > 0.0);
            assert!(r.simd_speedup() > 0.0);
            // At least the CSR/ELL/HYB/Merge quartet, all measured.
            assert!(r.baselines.len() >= 3);
            for b in &r.baselines {
                assert_eq!(b.evaluator, "native");
                assert!(b.measured_gflops.unwrap() > 0.0);
                assert_eq!(b.simd.as_deref(), Some("scalar"));
            }
            assert!(r.speedup_over_best_baseline() > 0.0);
        }
        // The records serialise with measured numbers present.
        let mut records = Vec::new();
        for r in results {
            records.push(r.generated);
            records.push(r.scalar);
            records.extend(r.baselines);
        }
        let json = results_to_json(&records);
        assert!(json.contains("\"evaluator\": \"native\""));
        assert!(json.contains("\"measured_gflops\": "));
        assert!(!json.contains("\"measured_gflops\": null"));
        assert!(!json.contains("\"simd\": null"));
        assert!(json.contains(&format!(
            "\"cpu_features\": \"{}\"",
            alpha_cpu::cpu_features::summary()
        )));
    }

    #[test]
    fn corpus_results_map_to_records() {
        let ctx = tiny_context();
        let results = evaluate_corpus(&ctx);
        assert!(!results.is_empty());
        let records: Vec<BenchRecord> = results
            .iter()
            .map(|r| BenchRecord::from_corpus_result("A100", r))
            .collect();
        assert_eq!(records.len(), results.len());
        for record in &records {
            assert!(record.gflops > 0.0);
            assert!(record.search_iterations > 0);
            assert!(!record.format.is_empty());
        }
    }
}
