//! `tune_fleet`: ten in-cache matrices, each tuned cold on native time and
//! then raced against the four baselines on one thread.

use crate::kernels::{self, KernelTally, SearchTally};
use crate::report::Report;
use crate::timing::{self, RaceOptions};
use crate::{host, trace, Args};
use alpha_matrix::gen::PatternFamily;
use alpha_matrix::{CsrMatrix, DenseVector, Scalar};
use std::time::{Duration, Instant};

/// Rows of every fleet matrix.
const ROWS: usize = 16_384;
/// Average row lengths crossed with the five pattern families.
const ROW_LENGTHS: [usize; 2] = [8, 32];
/// Share of each matrix's measuring time spent on `bench.spmv_max_rps`.
const SATURATION_FRAC: f64 = 0.2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// One fleet matrix with its input vector and reference product.
pub struct Item {
    /// `family_rows x avg` label.
    pub name: String,
    /// The matrix.
    pub matrix: CsrMatrix,
    /// Input vector.
    pub x: Vec<Scalar>,
    /// `CsrMatrix::spmv(x)`.
    pub reference: Vec<Scalar>,
}

/// Generates a matrix of `family` with its input vector and reference.
pub fn item(family: PatternFamily, rows: usize, avg: usize, seed: u64) -> Result<Item, String> {
    let matrix = {
        let _span = trace::span("matrix.generate");
        family.generate(rows, avg, seed)
    };
    let x = DenseVector::random(matrix.cols(), seed ^ 0x9e37_79b9).into_vec();
    let reference = {
        let _span = trace::span("matrix.spmv");
        matrix.spmv(&x).map_err(|e| e.to_string())?
    };
    Ok(Item {
        name: format!("{}_{rows}x{avg}", family.name()),
        matrix,
        x,
        reference,
    })
}

fn make_fleet(seed: u64) -> Result<(Vec<Item>, f64), String> {
    let _span = trace::span("bench.setup");
    let start = Instant::now();
    let mut fleet = Vec::new();
    for (i, &avg) in ROW_LENGTHS.iter().enumerate() {
        for (j, family) in PatternFamily::ALL.into_iter().enumerate() {
            let index = (i * PatternFamily::ALL.len() + j) as u64;
            fleet.push(item(family, ROWS, avg, crate::mix(seed, index))?);
        }
    }
    Ok((fleet, start.elapsed().as_secs_f64()))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let nproc = host::nproc();
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut fleet = Vec::new();
    for _ in 0..SETUPS {
        let (items, secs) = make_fleet(args.seed)?;
        setups.push(secs);
        fleet = items;
    }
    let nnz: usize = fleet.iter().map(|i| i.matrix.nnz()).sum();
    println!(
        "tune_fleet: {} matrices, {ROWS} rows, {nnz} nnz in total, LLC {} MiB, {nproc} cores",
        fleet.len(),
        host::llc_bytes() >> 20
    );
    report.e2e("setup_s", timing::median(&setups), setups.len());
    report.layer("matrix.gen_s", timing::median(&setups), setups.len());

    let mut plain = Report::default();
    measure(&fleet, args.seconds, nproc, None, &mut plain)?;
    let traced = if args.trace {
        let triad = host::triad(4 * host::llc_bytes(), 5);
        println!(
            "STREAM triad: 3 arrays of {} MiB, LLC {} MiB, {:.3} GB/s on one thread",
            triad.array_bytes >> 20,
            host::llc_bytes() >> 20,
            triad.gbs
        );
        let mut traced = Report::default();
        measure(&fleet, args.seconds, nproc, Some(triad.gbs), &mut traced)?;
        Some(traced)
    } else {
        None
    };
    crate::merge_passes(&mut report, plain, traced);
    Ok(report)
}

fn measure(
    fleet: &[Item],
    seconds: f64,
    nproc: usize,
    triad_gbs: Option<f64>,
    report: &mut Report,
) -> Result<(), String> {
    let traced = triad_gbs.is_some();
    trace::set_enabled(traced);
    let _span = trace::span("bench.measure");
    let share = seconds / fleet.len() as f64;
    let saturation = Duration::from_secs_f64(share * SATURATION_FRAC);
    let options = RaceOptions {
        budget: Duration::from_secs_f64(share * (1.0 - SATURATION_FRAC)),
        min_rounds: 5,
        min_sample_us: 200.0,
    };
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut generate = Vec::new();
    let mut lower = Vec::new();
    let mut skews = Vec::new();
    let mut search = SearchTally::default();
    let mut tally = KernelTally::default();
    for item in fleet {
        report.attempted += 1;
        let tuner = kernels::native_tuner();
        let tune = match kernels::tune_cold(&tuner, &item.matrix) {
            Ok(tune) => tune,
            Err(e) => {
                eprintln!("perfbench: cold tune of {} failed: {e}", item.name);
                report.failed += 1;
                continue;
            }
        };
        cold.push(tune.total_ms);
        generate.push(tune.generate_ms);
        lower.push(tune.lower_ms);
        search.add(&tune.stats, tune.search_ms);
        let baselines = kernels::build_baselines(&item.matrix)?;
        let race = kernels::race_matrix(
            &tune.kernel,
            &baselines,
            &item.x,
            &item.reference,
            options,
            traced.then_some(nproc),
        );
        if !traced {
            let label = format!("{} [{}]", item.name, tune.kernel.shape_label());
            kernels::print_race(&label, &race);
        }
        let rps = kernels::saturation_rps(&tune.kernel, &item.x, nproc, saturation);
        tally.add(&tune.kernel, &race, Some(rps), report);
        let skew_of = if traced { race.stats("tuned") } else { None };
        report.attempted += 1;
        match kernels::tune_warm(&tuner, &item.matrix, skew_of) {
            Ok((ms, skew)) => {
                warm.push(ms);
                skews.extend(skew);
            }
            Err(e) => {
                eprintln!("perfbench: warm tune of {} failed: {e}", item.name);
                report.failed += 1;
            }
        }
    }
    trace::set_enabled(false);
    report.layer("bench.tune_cold_ms", timing::median(&cold), cold.len());
    report.layer("bench.tune_warm_ms", timing::median(&warm), warm.len());
    tally.end_to_end(report);
    if let Some(triad_gbs) = triad_gbs {
        tally.layers(report, triad_gbs);
        search.layers(report);
        report.layer("search.timing_skew", timing::median(&skews), skews.len());
        report.layer(
            "codegen.generate_ms",
            timing::median(&generate),
            generate.len(),
        );
        report.layer("cpu.lower_ms", timing::median(&lower), lower.len());
        let largest = fleet
            .iter()
            .max_by_key(|i| i.matrix.nnz())
            .expect("the fleet is not empty");
        crate::net_codec_layers(&largest.matrix, &largest.x, &largest.reference, report);
    }
    Ok(())
}
