//! Native CPU implementations of the reference baselines.
//!
//! The simulator kernels in this crate model GPU behaviour; this module runs
//! the same formats **for real** on the host, timed with the *same*
//! [`TimingHarness`] as `alpha-cpu`'s machine-designed kernels — the
//! apples-to-apples other half of every "generated vs CSR/ELL/HYB/merge"
//! measured comparison.
//!
//! Four baselines have native implementations (the classic CPU quartet):
//!
//! * **CSR** — row-parallel scalar loop;
//! * **ELL** — row-major padded storage, fixed trip count per row;
//! * **HYB** — padded ELL part (width ≈ average row length) plus a COO
//!   overflow pass;
//! * **Merge** — nnz-partitioned chunks with row-boundary accumulation.

use crate::Baseline;
use alpha_cpu::{MeasuredReport, TimingHarness};
use alpha_matrix::{CsrMatrix, Scalar};
use alpha_parallel::Pool;

/// The baselines with a native CPU implementation.
pub fn native_set() -> Vec<Baseline> {
    vec![
        Baseline::CsrScalar,
        Baseline::Ell,
        Baseline::Hyb,
        Baseline::Merge,
    ]
}

/// Non-zeros each merge chunk owns (mirrors merge-based CSR's tile size).
const MERGE_NNZ_PER_CHUNK: usize = 256;

enum Imp {
    Csr,
    /// Row-major padded ELL: `width` slots per row, zero-padded.
    Ell {
        width: usize,
        cols: Vec<u32>,
        values: Vec<Scalar>,
    },
    /// HYB: padded ELL part plus COO overflow triplets.
    Hyb {
        width: usize,
        ell_cols: Vec<u32>,
        ell_values: Vec<Scalar>,
        coo: Vec<(u32, u32, Scalar)>,
    },
    Merge,
}

/// A baseline format prepared for native execution: conversion happens once
/// at construction, so the timing harness measures only the SpMV itself.
pub struct NativeBaselineKernel {
    baseline: Baseline,
    matrix: CsrMatrix,
    imp: Imp,
}

impl NativeBaselineKernel {
    /// Prepares `baseline` for native execution.  Returns an error for
    /// baselines without a native implementation (see [`native_set`]).
    pub fn new(baseline: Baseline, matrix: &CsrMatrix) -> Result<Self, String> {
        let imp = match baseline {
            Baseline::CsrScalar => Imp::Csr,
            Baseline::Merge => Imp::Merge,
            Baseline::Ell => {
                let width = matrix.max_row_len().max(1);
                let (cols, values) = pad_rows(matrix, width, 0..matrix.rows());
                Imp::Ell {
                    width,
                    cols,
                    values,
                }
            }
            Baseline::Hyb => {
                // The cuSPARSE heuristic: the ELL part covers roughly the
                // average row length, long rows overflow into COO.
                let rows = matrix.rows().max(1);
                let width = (matrix.nnz() as f64 / rows as f64).ceil().max(1.0) as usize;
                let (ell_cols, ell_values) = pad_rows(matrix, width, 0..matrix.rows());
                let mut coo = Vec::new();
                for row in 0..matrix.rows() {
                    let range = matrix.row_range(row);
                    for idx in range.start + width.min(range.len())..range.end {
                        coo.push((row as u32, matrix.col_indices()[idx], matrix.values()[idx]));
                    }
                }
                Imp::Hyb {
                    width,
                    ell_cols,
                    ell_values,
                    coo,
                }
            }
            other => {
                return Err(format!(
                    "baseline {} has no native CPU implementation",
                    other.name()
                ))
            }
        };
        Ok(NativeBaselineKernel {
            baseline,
            matrix: matrix.clone(),
            imp,
        })
    }

    /// The baseline this kernel implements.
    pub fn baseline(&self) -> Baseline {
        self.baseline
    }

    /// Useful floating-point operations per execution (`2 * nnz`; padding
    /// slots do not count as useful work).
    pub fn useful_flops(&self) -> u64 {
        2 * self.matrix.nnz() as u64
    }

    /// Runs `y = A·x`, allocating the output.  Pooled like the generated
    /// kernels: repeated runs reuse the process-wide persistent worker pool.
    pub fn run(&self, x: &[Scalar], threads: usize) -> Result<Vec<Scalar>, String> {
        let mut y = vec![0.0; self.matrix.rows()];
        self.run_into(x, &mut y, threads)?;
        Ok(y)
    }

    /// Runs `y = A·x` into a caller-provided buffer (zeroed here first).
    pub fn run_into(&self, x: &[Scalar], y: &mut [Scalar], threads: usize) -> Result<(), String> {
        if x.len() != self.matrix.cols() {
            return Err(format!(
                "input vector has length {}, matrix has {} columns",
                x.len(),
                self.matrix.cols()
            ));
        }
        if y.len() != self.matrix.rows() {
            return Err(format!(
                "output vector has length {}, matrix has {} rows",
                y.len(),
                self.matrix.rows()
            ));
        }
        y.fill(0.0);
        // The same automatic work-size scaling as the generated kernels, so
        // baseline timings face identical threading overheads.
        let workers = alpha_cpu::effective_workers_pooled(threads, self.matrix.nnz());
        let pool = Pool::shared();
        match &self.imp {
            Imp::Csr => self.run_csr(x, y, workers, pool),
            Imp::Ell {
                width,
                cols,
                values,
            } => run_ell(*width, cols, values, x, y, workers, pool),
            Imp::Hyb {
                width,
                ell_cols,
                ell_values,
                coo,
            } => {
                run_ell(*width, ell_cols, ell_values, x, y, workers, pool);
                for &(row, col, value) in coo {
                    y[row as usize] += value * x[col as usize];
                }
            }
            Imp::Merge => self.run_merge(x, y, workers, pool),
        }
        Ok(())
    }

    /// Steady-state measurement of this baseline with the shared harness:
    /// identical warmup/min-of-N treatment as the machine-designed kernels
    /// (pooled, buffer reused across reps).
    pub fn measure(
        &self,
        harness: TimingHarness,
        x: &[Scalar],
        threads: usize,
    ) -> Result<MeasuredReport, String> {
        let mut y = vec![0.0; self.matrix.rows()];
        self.run_into(x, &mut y, threads)?;
        let threads = alpha_cpu::effective_workers_pooled(threads, self.matrix.nnz());
        Ok(harness.measure(self.useful_flops(), threads, || {
            self.run_into(x, &mut y, threads)
                .expect("dimensions validated above");
        }))
    }

    fn run_csr(&self, x: &[Scalar], y: &mut [Scalar], threads: usize, pool: &Pool) {
        let m = &self.matrix;
        for_row_chunks(m.rows(), threads, y, pool, |first, last, out| {
            let offsets = m.row_offsets();
            let cols = m.col_indices();
            let values = m.values();
            for (row, slot) in (first..last).zip(out.iter_mut()) {
                let mut acc = 0.0;
                for idx in offsets[row] as usize..offsets[row + 1] as usize {
                    acc += values[idx] * x[cols[idx] as usize];
                }
                *slot = acc;
            }
        });
    }

    fn run_merge(&self, x: &[Scalar], y: &mut [Scalar], threads: usize, pool: &Pool) {
        let m = &self.matrix;
        let nnz = m.nnz();
        if nnz == 0 {
            return;
        }
        let chunks = nnz.div_ceil(MERGE_NNZ_PER_CHUNK).max(1);
        let workers = threads.min(chunks).max(1);
        let chunks_per_worker = chunks.div_ceil(workers);
        let spans: Vec<(usize, usize)> = (0..workers)
            .map(|w| {
                (
                    (w * chunks_per_worker * MERGE_NNZ_PER_CHUNK).min(nnz),
                    ((w + 1) * chunks_per_worker * MERGE_NNZ_PER_CHUNK).min(nnz),
                )
            })
            .filter(|&(start, end)| start < end)
            .collect();
        let offsets = m.row_offsets();
        let cols = m.col_indices();
        let values = m.values();
        let last_row = m.rows().saturating_sub(1);
        let partials: Vec<(usize, Vec<Scalar>)> = pool.parallel_map(&spans, |&(start, end)| {
            let mut row = match offsets.binary_search(&(start as u32)) {
                Ok(r) => r.min(last_row),
                Err(r) => r - 1,
            };
            while row < last_row && offsets[row + 1] as usize <= start {
                row += 1;
            }
            let base_row = row;
            let mut sums = Vec::new();
            let mut cursor = start;
            loop {
                let seg_end = (offsets[row + 1] as usize).min(end);
                let mut acc = 0.0;
                for idx in cursor..seg_end {
                    acc += values[idx] * x[cols[idx] as usize];
                }
                sums.push(acc);
                cursor = seg_end;
                if cursor >= end {
                    break;
                }
                row += 1;
            }
            (base_row, sums)
        });
        for (base_row, sums) in &partials {
            for (j, &v) in sums.iter().enumerate() {
                y[base_row + j] += v;
            }
        }
    }
}

/// Pads each row of `rows` to `width` slots (column 0 / value 0 filler),
/// row-major.
fn pad_rows(
    matrix: &CsrMatrix,
    width: usize,
    rows: std::ops::Range<usize>,
) -> (Vec<u32>, Vec<Scalar>) {
    let count = rows.len();
    let mut cols = vec![0u32; count * width];
    let mut values = vec![0.0; count * width];
    for (i, row) in rows.enumerate() {
        let range = matrix.row_range(row);
        let take = range.len().min(width);
        cols[i * width..i * width + take]
            .copy_from_slice(&matrix.col_indices()[range.start..range.start + take]);
        values[i * width..i * width + take]
            .copy_from_slice(&matrix.values()[range.start..range.start + take]);
    }
    (cols, values)
}

/// Splits `[0, rows)` into contiguous chunks across workers; each worker
/// writes its per-row results straight into its disjoint slice of `y`
/// (baseline formats have identity row order) — no staging buffers, no
/// per-run allocation, exactly like the generated kernels' contiguous path.
fn for_row_chunks(
    rows: usize,
    threads: usize,
    y: &mut [Scalar],
    pool: &Pool,
    body: impl Fn(usize, usize, &mut [Scalar]) + Sync,
) {
    if rows == 0 {
        return;
    }
    pool.run_over_chunks(
        alpha_parallel::split_mut(&mut y[..rows], threads),
        |first, out| body(first, first + out.len(), out),
    );
}

fn run_ell(
    width: usize,
    cols: &[u32],
    values: &[Scalar],
    x: &[Scalar],
    y: &mut [Scalar],
    threads: usize,
    pool: &Pool,
) {
    let rows = cols.len() / width.max(1);
    for_row_chunks(rows, threads, y, pool, |first, last, out| {
        for (row, slot) in (first..last).zip(out.iter_mut()) {
            let base = row * width;
            let mut acc = 0.0;
            for k in 0..width {
                acc += values[base + k] * x[cols[base + k] as usize];
            }
            *slot = acc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::{gen, max_scaled_error, DenseVector};

    #[test]
    fn native_baselines_match_the_reference_spmv() {
        for family in gen::PatternFamily::ALL {
            let matrix = family.generate(512, 8, 17);
            let x = DenseVector::random(512, 5);
            let expected = matrix.spmv(x.as_slice()).unwrap();
            for baseline in native_set() {
                let kernel = NativeBaselineKernel::new(baseline, &matrix).unwrap();
                for threads in [1, 4] {
                    let y = kernel.run(x.as_slice(), threads).unwrap();
                    assert!(
                        max_scaled_error(&y, &expected) <= 1e-3,
                        "{} diverged on {} at {threads} thread(s)",
                        baseline.name(),
                        family.name()
                    );
                }
            }
        }
    }

    #[test]
    fn hyb_splits_overflow_into_coo() {
        // One long row forces a COO part.
        let mut coo = alpha_matrix::CooMatrix::new(16, 64);
        for c in 0..64 {
            coo.push(0, c, 1.0);
        }
        for r in 1..16 {
            coo.push(r, r, 2.0);
        }
        let matrix = alpha_matrix::CsrMatrix::from_coo(&coo);
        let kernel = NativeBaselineKernel::new(Baseline::Hyb, &matrix).unwrap();
        match &kernel.imp {
            Imp::Hyb { coo, .. } => assert!(!coo.is_empty(), "long row must overflow"),
            _ => panic!("expected HYB"),
        }
        let x = DenseVector::ones(64);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let y = kernel.run(x.as_slice(), 3).unwrap();
        assert!(max_scaled_error(&y, &expected) <= 1e-3);
    }

    #[test]
    fn measure_uses_the_shared_harness() {
        let matrix = gen::uniform_random(1_024, 1_024, 8, 3);
        let x = DenseVector::ones(1_024);
        for baseline in native_set() {
            let kernel = NativeBaselineKernel::new(baseline, &matrix).unwrap();
            let report = kernel
                .measure(TimingHarness::quick(), x.as_slice(), 2)
                .unwrap();
            assert!(report.min_us > 0.0, "{}", baseline.name());
            assert!(report.gflops > 0.0);
            assert_eq!(report.useful_flops, 2 * matrix.nnz() as u64);
        }
    }

    #[test]
    fn unsupported_baselines_are_an_error() {
        let matrix = gen::uniform_random(64, 64, 4, 1);
        assert!(NativeBaselineKernel::new(Baseline::Csr5, &matrix).is_err());
        assert!(!native_set().contains(&Baseline::Taco));
    }

    #[test]
    fn dimension_mismatches_are_errors() {
        let matrix = gen::uniform_random(64, 32, 4, 1);
        let kernel = NativeBaselineKernel::new(Baseline::CsrScalar, &matrix).unwrap();
        assert!(kernel.run(&[1.0; 31], 1).is_err());
        let mut y = vec![0.0; 63];
        assert!(kernel.run_into(&[1.0; 32], &mut y, 1).is_err());
    }

    #[test]
    fn empty_rows_and_matrices_are_handled() {
        let coo = alpha_matrix::CooMatrix::new(8, 8);
        let empty = alpha_matrix::CsrMatrix::from_coo(&coo);
        for baseline in native_set() {
            let kernel = NativeBaselineKernel::new(baseline, &empty).unwrap();
            let y = kernel.run(&[1.0; 8], 2).unwrap();
            assert!(y.iter().all(|&v| v == 0.0));
        }
    }
}
