//! Metric definitions and the result line.
//!
//! Every end-to-end metric is measured on every workload; a per-layer
//! metric whose layer a workload does not exercise is reported as 0 and
//! listed as "not exercised" in the human-readable table.
//!
//! The bounded end-to-end metrics are ratios of kernels timed round-robin
//! on the same thread, plus set-up time and memory.  Absolute times of
//! in-cache and memory-bound work drift by 10-30% between runs on a shared
//! host (the co-tenants' cache and memory traffic moves them, not the
//! program), while an interleaved ratio cancels that drift.  The absolute
//! end-to-end timings are still measured on the untraced pass and reported
//! as the unbounded `bench.*` metrics.

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit (names and units match BENCHMARK.json).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("speedup_vs_best_baseline", "x"),
    ("speedup_vs_csr", "x"),
];

/// Absolute end-to-end timings of the untraced pass, reported with the
/// per-layer metrics (names and units match BENCHMARK.json).
pub const TIMINGS: &[(&str, &str)] = &[
    ("bench.spmv_p50_us", "us"),
    ("bench.spmv_max_rps", "1/s"),
    ("bench.tune_cold_ms", "ms"),
    ("bench.tune_warm_ms", "ms"),
];

/// Per-layer metrics of the traced run: name and unit.  They are followed
/// in BENCHMARK.json by [`TIMINGS`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("matrix.gen_s", "s"),
    ("search.candidates", "count"),
    ("search.ms_per_candidate", "ms"),
    ("search.cache_hit_rate", "ratio"),
    ("search.pruned_frac", "ratio"),
    ("search.timing_skew", "x"),
    ("codegen.generate_ms", "ms"),
    ("codegen.bytes_per_nnz", "B"),
    ("cpu.lower_ms", "ms"),
    ("cpu.tuned_gflops", "GFLOP/s"),
    ("cpu.gbs", "GB/s"),
    ("cpu.bw_frac", "ratio"),
    ("cpu.triad_gbs", "GB/s"),
    ("cpu.specialized_frac", "ratio"),
    ("cpu.vectorized_frac", "ratio"),
    ("cpu.fallback_total", "count"),
    ("baselines.csr_gflops", "GFLOP/s"),
    ("baselines.ell_gflops", "GFLOP/s"),
    ("baselines.hyb_gflops", "GFLOP/s"),
    ("baselines.merge_gflops", "GFLOP/s"),
    ("parallel.speedup_nt", "x"),
    ("serve.tune_warm_ms", "ms"),
    ("serve.winners_ms", "ms"),
    ("serve.corpus_size", "count"),
    ("serve.store_hit_rate", "ratio"),
    ("serve.fresh_evals_warm", "count"),
    ("serve.tune_exec_warm_ms", "ms"),
    ("serve.tune_exec_cold_ms", "ms"),
    ("net.queue_wait_ms", "ms"),
    ("net.spmv_encode_us", "us"),
    ("net.spmv_decode_us", "us"),
    ("net.tune_encode_us", "us"),
    ("net.tune_decode_us", "us"),
    ("net.spmv_p99_us", "us"),
    ("net.rpc_overhead_us", "us"),
    ("net.server_spmv_p50_us", "us"),
    ("net.busy_sheds", "count"),
    ("net.generator_lag_ms", "ms"),
    ("self_ms.matrix", "ms"),
    ("self_ms.search", "ms"),
    ("self_ms.codegen", "ms"),
    ("self_ms.cpu", "ms"),
    ("self_ms.baselines", "ms"),
    ("self_ms.core", "ms"),
    ("self_ms.serve", "ms"),
    ("self_ms.net", "ms"),
    ("self_ms.bench", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples or items it summarises.
    pub samples: usize,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, Value>,
    /// Per-layer metrics by name.
    pub layers: BTreeMap<&'static str, Value>,
    /// Operations whose output or outcome was checked.
    pub attempted: u64,
    /// Wrong outputs, errors, timeouts and Busy past deadline.
    pub failed: u64,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.e2e.insert(name, Value { value, samples });
    }

    /// Records a per-layer metric or a [`TIMINGS`] entry.
    pub fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().chain(TIMINGS).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.layers.insert(name, Value { value, samples });
    }

    /// `failed / attempted`.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the human-readable table of `set` (end-to-end or per-layer).
    pub fn print_table(&self, title: &str, defs: &[(&str, &str)], values: &BTreeMap<&str, Value>) {
        println!("{title}");
        for (name, unit) in defs {
            match values.get(name) {
                Some(v) => println!("  {name:<28} {:>14.4} {unit:<8} (n={})", v.value, v.samples),
                None => println!("  {name:<28} {:>14} {unit:<8} (not exercised)", "-"),
            }
        }
    }

    /// Prints `failed_ratio` with the counts behind it.
    pub fn print_failed_ratio(&self) {
        println!(
            "  {:<28} {:>14.6} ratio    ({} failed of {} attempted)",
            "failed_ratio",
            self.failed_ratio(),
            self.failed,
            self.attempted
        );
    }

    /// The result line: `defs` metrics from `values`, 0 for absent ones.
    pub fn json_line(&self, defs: &[(&str, &str)], values: &BTreeMap<&str, Value>) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).map_or(0.0, |v| v.value);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}
