//! The one timing routine behind every kernel number the benchmark reports.
//!
//! [`race`] takes the tuned kernel and its rivals for one matrix and:
//!
//! 1. touches `x` and every output buffer, then runs each kernel once and
//!    checks its output against the reference product, so page faults of
//!    every array land (and wrong kernels drop out) before any timing;
//! 2. sizes each kernel's sample to at least [`RaceOptions::min_sample_us`]
//!    by repeating short kernels;
//! 3. times the kernels round-robin, rotating the start of every round, so
//!    drift of the host hits every contender alike;
//! 4. keeps every sample and reports the median, quartiles and count;
//! 5. compares kernels round by round: a speed-up is the median over rounds
//!    of the ratio of the samples taken in the same round, so a change of
//!    host speed between rounds cancels out of it.
//!
//! It deliberately does not reuse `TimingHarness`' warmup + min-of-5: the
//! search's own number is compared against this one as `search.timing_skew`.

use crate::trace;
use alpha_matrix::Scalar;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Largest scaled error a kernel's output may show against `CsrMatrix::spmv`.
pub const TOLERANCE: Scalar = 1e-3;

/// Computes `y = A·x` into `y`.
pub type KernelFn<'a> = Box<dyn FnMut(&[Scalar], &mut [Scalar]) -> Result<(), String> + 'a>;

/// One kernel entered in a race.
pub struct Contender<'a> {
    /// Name the result is reported under.
    pub name: String,
    /// Span name each timed call is recorded under in a traced run.
    pub span: &'static str,
    /// The kernel.
    pub run: KernelFn<'a>,
}

/// Sorted samples in microseconds.
#[derive(Debug, Clone)]
pub struct Stats {
    sorted: Vec<f64>,
}

impl Stats {
    /// Summarises raw samples; `None` when there are none.
    pub fn new(mut samples: Vec<f64>) -> Option<Stats> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(Stats { sorted: samples })
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile, linearly interpolated between order statistics.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// The `q`-quantile of ascending `sorted` data (linear interpolation).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of unsorted data (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Median across `windows` equal slices of `[0, span)` of each slice's
/// median, for `(offset, value)` samples; slices without samples are
/// skipped.
pub fn windowed_median(samples: &[(f64, f64)], span: f64, windows: usize) -> f64 {
    let n = windows.max(1);
    let mut slices = vec![Vec::new(); n];
    for &(offset, value) in samples {
        let i = ((offset / span) * n as f64) as usize;
        slices[i.min(n - 1)].push(value);
    }
    let medians: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    median(&medians)
}

/// Geometric mean of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How long a race runs.
#[derive(Debug, Clone, Copy)]
pub struct RaceOptions {
    /// Wall-clock budget of the timed rounds.
    pub budget: Duration,
    /// Rounds run even when the budget is spent.
    pub min_rounds: usize,
    /// Short kernels are repeated until one sample lasts this long.
    pub min_sample_us: f64,
}

/// What a race found for one contender.
pub struct RaceResult {
    /// The contender's name.
    pub name: String,
    /// Per-call times; `None` when the kernel failed its check or errored.
    pub stats: Option<Stats>,
    /// Per-call times in round order.
    pub samples: Vec<f64>,
}

/// Outcome of one race: per-contender results plus the correctness tally.
pub struct Race {
    /// One result per contender, in input order.
    pub results: Vec<RaceResult>,
    /// Kernels checked against the reference.
    pub attempted: usize,
    /// Kernels that produced a wrong output or an error.
    pub failed: usize,
}

impl Race {
    /// The stats of the contender called `name`, if it passed.
    pub fn stats(&self, name: &str) -> Option<&Stats> {
        self.results
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.stats.as_ref())
    }

    /// Speed-up of `tuned` over the fastest of `rivals`: per round, the
    /// fastest rival's sample over `tuned`'s sample; the median over rounds.
    /// `None` when `tuned` or every rival failed.
    pub fn speedup(&self, tuned: &str, rivals: &[&str]) -> Option<f64> {
        let passed = |r: &&RaceResult| r.stats.is_some();
        let tuned = &self
            .results
            .iter()
            .filter(passed)
            .find(|r| r.name == tuned)?
            .samples;
        let rivals: Vec<&[f64]> = self
            .results
            .iter()
            .filter(passed)
            .filter(|r| rivals.contains(&r.name.as_str()))
            .map(|r| r.samples.as_slice())
            .collect();
        if rivals.is_empty() {
            return None;
        }
        let ratios: Vec<f64> = tuned
            .iter()
            .enumerate()
            .map(|(round, t)| {
                let best = rivals
                    .iter()
                    .map(|s| s[round])
                    .fold(f64::INFINITY, f64::min);
                best / t
            })
            .collect();
        Some(median(&ratios))
    }
}

/// Races `contenders` on `x`; see the module docs for the procedure.
pub fn race(
    contenders: &mut [Contender<'_>],
    x: &[Scalar],
    reference: &[Scalar],
    options: RaceOptions,
) -> Race {
    black_box(x.iter().sum::<Scalar>());
    let mut outputs: Vec<Vec<Scalar>> = contenders
        .iter()
        .map(|_| vec![1.0; reference.len()])
        .collect();
    let mut failed = 0;
    let mut live = vec![true; contenders.len()];
    let mut reps = vec![1usize; contenders.len()];
    for (i, c) in contenders.iter_mut().enumerate() {
        let y = &mut outputs[i];
        let ok = (c.run)(x, y).is_ok() && alpha_matrix::max_scaled_error(y, reference) <= TOLERANCE;
        if !ok {
            eprintln!("perfbench: kernel {} failed its correctness check", c.name);
            failed += 1;
            live[i] = false;
            continue;
        }
        let start = Instant::now();
        let _ = (c.run)(x, y);
        let once_us = start.elapsed().as_secs_f64() * 1e6;
        reps[i] = (options.min_sample_us / once_us.max(0.01)).ceil().max(1.0) as usize;
    }

    let mut samples: Vec<Vec<f64>> = contenders.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    let n = contenders.len();
    let mut round = 0;
    while round < options.min_rounds || start.elapsed() < options.budget {
        for k in 0..n {
            let i = (round + k) % n;
            if !live[i] {
                continue;
            }
            let c = &mut contenders[i];
            let y = &mut outputs[i];
            let t0 = Instant::now();
            let mut result = Ok(());
            for _ in 0..reps[i] {
                let _span = trace::span(c.span);
                result = (c.run)(black_box(x), y);
                if result.is_err() {
                    break;
                }
            }
            let elapsed = t0.elapsed().as_secs_f64() * 1e6;
            black_box(&y);
            match result {
                Ok(()) => samples[i].push(elapsed / reps[i] as f64),
                Err(e) => {
                    eprintln!("perfbench: kernel {} errored: {e}", c.name);
                    failed += 1;
                    live[i] = false;
                }
            }
        }
        round += 1;
        if !live.iter().any(|&l| l) {
            break;
        }
    }

    let results = contenders
        .iter()
        .zip(samples)
        .zip(&live)
        .map(|((c, s), &ok)| RaceResult {
            name: c.name.clone(),
            stats: if ok { Stats::new(s.clone()) } else { None },
            samples: s,
        })
        .collect();
    Race {
        results,
        attempted: n,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = Stats::new(vec![4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(geomean(&[1.0, 4.0]), 2.0);
        let samples = [(0.1, 1.0), (0.2, 3.0), (0.6, 10.0), (0.9, 30.0), (1.5, 5.0)];
        assert_eq!(windowed_median(&samples, 2.0, 2), (6.5 + 5.0) / 2.0);
    }

    #[test]
    fn speedup_pairs_samples_of_the_same_round() {
        let result = |name: &str, samples: &[f64]| RaceResult {
            name: name.into(),
            stats: Stats::new(samples.to_vec()),
            samples: samples.to_vec(),
        };
        // The host halves its speed after two rounds; every round the
        // tuned kernel is twice as fast as the best rival.
        let race = Race {
            results: vec![
                result("tuned", &[1.0, 1.0, 2.0, 2.0, 2.0]),
                result("csr", &[3.0, 3.0, 6.0, 6.0, 6.0]),
                result("ell", &[2.0, 2.0, 4.0, 4.0, 4.0]),
                RaceResult {
                    name: "hyb".into(),
                    stats: None,
                    samples: vec![0.1],
                },
            ],
            attempted: 4,
            failed: 1,
        };
        assert_eq!(race.speedup("tuned", &["csr", "ell", "hyb"]), Some(2.0));
        assert_eq!(race.speedup("tuned", &["csr"]), Some(3.0));
        assert_eq!(race.speedup("tuned", &["hyb"]), None);
        assert_eq!(race.speedup("merge", &["csr"]), None);
    }
}
