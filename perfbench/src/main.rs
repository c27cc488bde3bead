//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <tune_fleet|daemon_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`; the system receives only the
//! generated matrices and vectors, through its public API.  Every kernel
//! output and every remote reply is checked against `CsrMatrix::spmv`
//! before its time counts.  The run prints a human-readable table and, as
//! its last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced pass with `--trace 1`.  A traced run also
//! writes its spans as a Chrome trace under `.perfbench_out/`.

mod daemon;
mod fleet;
mod host;
mod kernels;
mod report;
mod timing;
mod trace;

use alpha_matrix::{CsrMatrix, Scalar};
use alpha_net::proto::{self, Request, Response};
use report::{Report, END_TO_END, PER_LAYER, TIMINGS};
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order BENCHMARK.json lists them.
const WORKLOADS: &[&str] = &["tune_fleet", "daemon_mix"];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time of one pass.
    pub seconds: f64,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Derives the seed of input `index` from the run seed (splitmix64).
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Where runs write their artifacts: `.perfbench_out/` in the working
/// directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// The absolute timings the tracing overhead is taken over.
const OVERHEAD_METRICS: &[&str] = &[
    "bench.tune_cold_ms",
    "bench.tune_warm_ms",
    "bench.spmv_p50_us",
];

/// Folds the untraced pass (end-to-end metrics and [`TIMINGS`]) and the
/// traced pass (per-layer metrics) into `report`, and records the tracing
/// overhead: the traced timing minus the untraced one, relative to the
/// untraced.
pub fn merge_passes(report: &mut Report, plain: Report, traced: Option<Report>) {
    report.attempted += plain.attempted;
    report.failed += plain.failed;
    report.e2e.extend(plain.e2e);
    let Some(traced) = traced else {
        report.layers.extend(plain.layers);
        return;
    };
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let mut deltas = Vec::new();
    println!("tracing overhead (traced pass vs untraced pass):");
    for name in OVERHEAD_METRICS {
        if let (Some(a), Some(b)) = (plain.layers.get(name), traced.layers.get(name)) {
            if a.value > 0.0 {
                let delta = (b.value - a.value) / a.value;
                deltas.push(delta);
                println!(
                    "  {name:<28} {:>12.4} -> {:>12.4}  ({:+.2}%)",
                    a.value,
                    b.value,
                    delta * 100.0
                );
            }
        }
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
    report.layers.extend(traced.layers);
    report.layers.extend(plain.layers);
    report.layer("trace.overhead_frac", mean, deltas.len());
}

/// Times `f` and returns the median µs per call over 15 samples.
pub fn time_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    let once = start.elapsed().as_secs_f64() * 1e6;
    let reps = (200.0 / once.max(0.01)).ceil().max(1.0) as usize;
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    timing::median(&samples)
}

/// `net.*_encode_us` / `net.*_decode_us` at this workload's payload sizes:
/// an SpMV request carrying `x` plus its reply carrying `y` (both sides'
/// encode, respectively decode, work of one RPC), and a tune submission
/// carrying `matrix`.
pub fn net_codec_layers(matrix: &CsrMatrix, x: &[Scalar], y: &[Scalar], report: &mut Report) {
    let _span = trace::span("net.codec");
    let request = Request::Spmv {
        job_id: 1,
        x: x.to_vec(),
    };
    let response = Response::SpmvResult { y: y.to_vec() };
    let request_bytes = proto::encode_request(&request);
    let response_bytes = proto::encode_response(&response);
    let encode =
        time_us(|| proto::encode_request(&request)) + time_us(|| proto::encode_response(&response));
    let decode = time_us(|| proto::decode_request(&request_bytes).is_ok())
        + time_us(|| proto::decode_response(&response_bytes).is_ok());
    report.layer("net.spmv_encode_us", encode, 15);
    report.layer("net.spmv_decode_us", decode, 15);
    let tune = Request::SubmitTune {
        matrix: matrix.clone(),
        device: "A100".to_string(),
    };
    let tune_bytes = proto::encode_request(&tune);
    report.layer(
        "net.tune_encode_us",
        time_us(|| proto::encode_request(&tune)),
        15,
    );
    report.layer(
        "net.tune_decode_us",
        time_us(|| proto::decode_request(&tune_bytes).is_ok()),
        15,
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    trace::set_enabled(args.trace);
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "tune_fleet" => fleet::run(&args),
        _ => daemon::run(&args),
    };
    trace::set_enabled(false);
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report.e2e("peak_rss_mb", host::peak_rss_mb(), 1);
    if args.trace {
        let spans = trace::take();
        let times = trace::self_times(&spans);
        println!("self time per layer along the traced run:");
        for (layer, (us, count)) in &times {
            println!("  {layer:<12} {:>12.3} ms over {count} spans", us / 1e3);
        }
        for (name, _) in PER_LAYER {
            if let Some(layer) = name.strip_prefix("self_ms.") {
                let (us, count) = times.get(layer).copied().unwrap_or((0.0, 0));
                report.layer(name, us / 1e3, count);
            }
        }
        let path = out_dir().join(format!("trace_{}_{}.json", args.workload, args.seed));
        match trace::write_chrome_trace(&path, &spans) {
            Ok(()) => println!("chrome trace: {} ({} spans)", path.display(), spans.len()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "workload {} seed {} ({:.1} s wall)",
        args.workload,
        args.seed,
        started.elapsed().as_secs_f64()
    );
    report.print_table("end-to-end (untraced pass):", END_TO_END, &report.e2e);
    report.print_failed_ratio();
    report.print_table(
        "absolute timings (untraced pass, unbounded):",
        TIMINGS,
        &report.layers,
    );
    if args.trace {
        report.print_table("per-layer (traced pass):", PER_LAYER, &report.layers);
        let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().chain(TIMINGS).copied().collect();
        println!("{}", report.json_line(&per_layer, &report.layers));
    } else {
        for (name, _) in END_TO_END {
            if !report.e2e.contains_key(name) {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                std::process::exit(1);
            }
        }
        println!("{}", report.json_line(END_TO_END, &report.e2e));
    }
}
