//! Tuning and kernel racing shared by the workloads: cold and warm native
//! tunes through the public tuner API, and the race of one tuned kernel
//! against the four native baselines.

use crate::report::Report;
use crate::timing::{self, Contender, Race, RaceOptions, Stats};
use crate::trace;
use alpha_baselines::{Baseline, NativeBaselineKernel};
use alpha_matrix::{CsrMatrix, Scalar};
use alphasparse::{AlphaSparse, DeviceProfile, NativeKernel, SearchStats, TimingHarness};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A tuner that searches on measured native time with the default budget
/// and harness, timing candidates on one thread: the thread count the
/// benchmark times the winner on.
pub fn native_tuner() -> AlphaSparse {
    AlphaSparse::new(DeviceProfile::a100())
        .with_native_execution_harness(TimingHarness::default(), 1)
}

/// A cold tune: search, generate and lower a never-seen matrix, which is
/// what `auto_tune` plus the first native run cost.
pub struct ColdTune {
    /// The winner lowered to native loops.
    pub kernel: NativeKernel,
    /// The search's statistics.
    pub stats: SearchStats,
    /// Wall time of the search, ms.
    pub search_ms: f64,
    /// Wall time of `generate_for_graph` on the winner, ms.
    pub generate_ms: f64,
    /// Wall time of `NativeKernel::try_new`, ms.
    pub lower_ms: f64,
    /// Whole cold tune, ms.
    pub total_ms: f64,
}

/// Runs a cold tune of `matrix`; evaluations land in the tuner's cache.
pub fn tune_cold(tuner: &AlphaSparse, matrix: &CsrMatrix) -> Result<ColdTune, String> {
    let _span = trace::span("bench.tune_cold");
    let start = Instant::now();
    let outcome = {
        let _span = trace::span("search.search_with_cache");
        alpha_search::search_with_cache(matrix, tuner.config(), tuner.cache())?
    };
    let searched = Instant::now();
    let generated = {
        let _span = trace::span("codegen.generate_for_graph");
        tuner.generate_for_graph(matrix, &outcome.best_graph)?
    };
    let generated_at = Instant::now();
    let kernel = lower(&generated)?;
    let end = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(ColdTune {
        kernel,
        stats: outcome.stats,
        search_ms: ms(start, searched),
        generate_ms: ms(searched, generated_at),
        lower_ms: ms(generated_at, end),
        total_ms: ms(start, end),
    })
}

/// Lowers generated code to a native kernel.
pub fn lower(generated: &alphasparse::codegen::GeneratedSpmv) -> Result<NativeKernel, String> {
    let _span = trace::span("cpu.lower");
    NativeKernel::try_new(generated.kernel.metadata(), &generated.format).map_err(|e| e.to_string())
}

/// A warm tune of a matrix the tuner has seen: `auto_tune` replayed from
/// its cache plus lowering the winner.  Returns the wall time in ms and,
/// when `skew_of` is given, `search.timing_skew`: the search harness'
/// min-of-5 over this routine's median for the same design.
pub fn tune_warm(
    tuner: &AlphaSparse,
    matrix: &CsrMatrix,
    skew_of: Option<&Stats>,
) -> Result<(f64, Option<f64>), String> {
    let start = Instant::now();
    let tuned = {
        let _span = trace::span("core.auto_tune");
        tuner.auto_tune(matrix)?
    };
    {
        let _span = trace::span("cpu.lower");
        tuned.native_kernel();
    }
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;
    let skew = match skew_of {
        Some(stats) => {
            let _span = trace::span("core.measure");
            let report = tuned.measure(TimingHarness::default(), 1)?;
            Some(report.min_us / stats.median())
        }
        None => None,
    };
    Ok((warm_ms, skew))
}

/// Short names of the native baselines, in `native_set()` order.
pub fn baseline_name(baseline: Baseline) -> &'static str {
    match baseline {
        Baseline::CsrScalar => "csr",
        Baseline::Ell => "ell",
        Baseline::Hyb => "hyb",
        Baseline::Merge => "merge",
        _ => "other",
    }
}

/// Builds the four native baselines for `matrix`.
pub fn build_baselines(matrix: &CsrMatrix) -> Result<Vec<NativeBaselineKernel>, String> {
    alpha_baselines::native_set()
        .into_iter()
        .map(|b| {
            let _span = trace::span("baselines.new");
            NativeBaselineKernel::new(b, matrix)
        })
        .collect()
}

/// Races the tuned kernel against the baselines, all on one thread.  With
/// `threads = Some(n)` the tuned kernel also runs on `n` threads (the
/// `tuned_nt` contender behind `parallel.speedup_nt`).
pub fn race_matrix(
    tuned: &NativeKernel,
    baselines: &[NativeBaselineKernel],
    x: &[Scalar],
    reference: &[Scalar],
    options: RaceOptions,
    threads: Option<usize>,
) -> Race {
    let mut contenders = vec![Contender {
        name: "tuned".into(),
        span: "cpu.run",
        run: Box::new(move |x, y| tuned.run_into(x, y, 1)),
    }];
    if let Some(n) = threads {
        contenders.push(Contender {
            name: "tuned_nt".into(),
            span: "cpu.run_nt",
            run: Box::new(move |x, y| tuned.run_into(x, y, n)),
        });
    }
    for b in baselines {
        contenders.push(Contender {
            name: baseline_name(b.baseline()).into(),
            span: "baselines.run",
            run: Box::new(move |x, y| b.run_into(x, y, 1)),
        });
    }
    timing::race(&mut contenders, x, reference, options)
}

/// Prints one line per contender of `race`: median, quartiles and sample
/// count, in microseconds.
pub fn print_race(label: &str, race: &Race) {
    println!("  {label}:");
    for r in &race.results {
        match &r.stats {
            Some(s) => println!(
                "    {:<9} p50 {:>12.2} us  (q1 {:.2}, q3 {:.2}, n={})",
                r.name,
                s.median(),
                s.quantile(0.25),
                s.quantile(0.75),
                s.count()
            ),
            None => println!("    {:<9} failed", r.name),
        }
    }
}

/// Calls per second that `callers` independent threads sustain together,
/// each running the one-thread kernel into its own output until `duration`
/// has passed.  Each thread's rate counts only its completed calls.
pub fn saturation_rps(
    kernel: &NativeKernel,
    x: &[Scalar],
    callers: usize,
    duration: Duration,
) -> f64 {
    let deadline = Instant::now() + duration;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                scope.spawn(|| {
                    let mut y = vec![0.0; kernel.rows()];
                    let start = Instant::now();
                    let mut calls = 0u32;
                    let mut last = start;
                    while last < deadline {
                        let _span = trace::span("cpu.run_saturated");
                        if kernel.run_into(x, &mut y, 1).is_err() {
                            break;
                        }
                        calls += 1;
                        last = Instant::now();
                    }
                    if calls == 0 {
                        0.0
                    } else {
                        f64::from(calls) / (last - start).as_secs_f64()
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0.0)).sum()
    })
}

/// Kernel results gathered over a workload's matrices.
#[derive(Default)]
pub struct KernelTally {
    gflops: Vec<f64>,
    speedup: Vec<f64>,
    csr_speedup: Vec<f64>,
    p50_us: Vec<f64>,
    samples: usize,
    rps: Vec<f64>,
    parallel: Vec<f64>,
    baselines: BTreeMap<&'static str, Vec<f64>>,
    gbs: Vec<f64>,
    bytes_per_nnz: Vec<f64>,
    kernels: usize,
    specialized: usize,
    vectorized: usize,
}

impl KernelTally {
    /// Adds one matrix's race and, when measured, its saturation rate;
    /// counts the race's checks into `report`.
    pub fn add(
        &mut self,
        kernel: &NativeKernel,
        race: &Race,
        rps: Option<f64>,
        report: &mut Report,
    ) {
        report.attempted += race.attempted as u64;
        report.failed += race.failed as u64;
        self.kernels += 1;
        self.specialized += kernel.is_specialized() as usize;
        self.vectorized += kernel.is_vectorized() as usize;
        self.bytes_per_nnz
            .push(kernel.format_bytes() as f64 / kernel.nnz().max(1) as f64);
        let flops = kernel.useful_flops() as f64;
        let Some(tuned) = race.stats("tuned") else {
            return;
        };
        let median = tuned.median();
        self.gflops.push(flops / median / 1e3);
        self.p50_us.push(median);
        self.samples += tuned.count();
        self.rps.extend(rps);
        self.parallel.extend(race.speedup("tuned_nt", &["tuned"]));
        let bytes = kernel.format_bytes() as f64 + 4.0 * (kernel.rows() + kernel.cols()) as f64;
        self.gbs.push(bytes / median / 1e3);
        let names: Vec<&str> = alpha_baselines::native_set()
            .into_iter()
            .map(baseline_name)
            .collect();
        self.speedup.extend(race.speedup("tuned", &names));
        self.csr_speedup.extend(race.speedup("tuned", &["csr"]));
        for b in alpha_baselines::native_set() {
            let name = baseline_name(b);
            if let Some(stats) = race.stats(name) {
                self.baselines
                    .entry(name)
                    .or_default()
                    .push(flops / stats.median() / 1e3);
            }
        }
    }

    /// Median of the per-matrix computed bandwidths, GB/s.
    pub fn gbs(&self) -> f64 {
        timing::median(&self.gbs)
    }

    /// Writes the end-to-end kernel metrics and the kernel [`TIMINGS`].
    ///
    /// [`TIMINGS`]: crate::report::TIMINGS
    pub fn end_to_end(&self, report: &mut Report) {
        report.e2e(
            "speedup_vs_best_baseline",
            timing::geomean(&self.speedup),
            self.speedup.len(),
        );
        report.e2e(
            "speedup_vs_csr",
            timing::geomean(&self.csr_speedup),
            self.csr_speedup.len(),
        );
        report.layer(
            "bench.spmv_p50_us",
            timing::geomean(&self.p50_us),
            self.samples,
        );
        if !self.rps.is_empty() {
            report.layer(
                "bench.spmv_max_rps",
                timing::geomean(&self.rps),
                self.rps.len(),
            );
        }
    }

    /// Writes the per-layer kernel metrics; `triad_gbs` is the host's
    /// measured one-thread bandwidth.
    pub fn layers(&self, report: &mut Report, triad_gbs: f64) {
        let n = self.kernels;
        report.layer(
            "cpu.tuned_gflops",
            timing::geomean(&self.gflops),
            self.gflops.len(),
        );
        report.layer(
            "codegen.bytes_per_nnz",
            timing::geomean(&self.bytes_per_nnz),
            n,
        );
        report.layer("cpu.gbs", self.gbs(), self.gbs.len());
        report.layer("cpu.bw_frac", self.gbs() / triad_gbs, self.gbs.len());
        report.layer("cpu.triad_gbs", triad_gbs, 1);
        report.layer(
            "cpu.specialized_frac",
            self.specialized as f64 / n.max(1) as f64,
            n,
        );
        report.layer(
            "cpu.vectorized_frac",
            self.vectorized as f64 / n.max(1) as f64,
            n,
        );
        report.layer(
            "cpu.fallback_total",
            alpha_cpu::kernel_fallback_total() as f64,
            1,
        );
        report.layer(
            "parallel.speedup_nt",
            timing::geomean(&self.parallel),
            self.parallel.len(),
        );
        for (name, values) in &self.baselines {
            let metric = match *name {
                "csr" => "baselines.csr_gflops",
                "ell" => "baselines.ell_gflops",
                "hyb" => "baselines.hyb_gflops",
                _ => "baselines.merge_gflops",
            };
            report.layer(metric, timing::geomean(values), values.len());
        }
    }
}

/// Search metrics of a set of cold searches.
#[derive(Default)]
pub struct SearchTally {
    candidates: Vec<f64>,
    ms_per_candidate: Vec<f64>,
    hits: usize,
    lookups: usize,
    pruned: usize,
    considered: usize,
}

impl SearchTally {
    /// Adds one cold search that took `search_ms`.
    pub fn add(&mut self, stats: &SearchStats, search_ms: f64) {
        let candidates = (stats.iterations + stats.ml_evaluations).max(1);
        self.candidates.push(candidates as f64);
        self.ms_per_candidate.push(search_ms / candidates as f64);
        self.hits += stats.cache_hits;
        self.lookups += stats.cache_hits + stats.cache_misses;
        self.pruned += stats.structures_pruned;
        self.considered += stats.structures_enumerated + stats.structures_pruned;
    }

    /// Writes the `search.*` metrics (except the timing skew).
    pub fn layers(&self, report: &mut Report) {
        let n = self.candidates.len();
        report.layer("search.candidates", timing::median(&self.candidates), n);
        report.layer(
            "search.ms_per_candidate",
            timing::median(&self.ms_per_candidate),
            n,
        );
        report.layer(
            "search.cache_hit_rate",
            self.hits as f64 / self.lookups.max(1) as f64,
            self.lookups,
        );
        report.layer(
            "search.pruned_frac",
            self.pruned as f64 / self.considered.max(1) as f64,
            self.considered,
        );
    }
}

/// Seconds to milliseconds for a `Duration`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
