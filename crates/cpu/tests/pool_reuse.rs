//! Acceptance property of the pooled execution rework: the steady-state
//! SpMV path performs **zero** thread spawns — repeated `NativeKernel` runs
//! and harness measurements reuse a persistent pool whose worker count never
//! grows past its initial size.
//!
//! Single `#[test]` binary on purpose: `parallel_thread_spawns_total` is
//! process-global, so no other test may spawn concurrently.

use alpha_cpu::{NativeKernel, TimingHarness};
use alpha_matrix::{gen, DenseVector};
use alpha_parallel::Pool;

/// The spawn counter now lives in the process-wide telemetry registry
/// (the old `thread_spawns()` free function is gone; this is the counter).
fn thread_spawns() -> u64 {
    alpha_telemetry::global()
        .counter("parallel_thread_spawns_total", &[])
        .get()
}

#[test]
fn steady_state_spmv_never_spawns() {
    // Large enough that the pooled `effective_workers` wants real
    // parallelism (nnz ≈ 96k, well above MIN_NNZ_PER_WORKER_POOLED).
    let matrix = gen::powerlaw(8_192, 8_192, 12, 2.0, 5);
    let generated = alpha_codegen::generate(
        &alpha_graph::presets::csr_scalar(),
        &matrix,
        alpha_codegen::GeneratorOptions::default(),
    )
    .expect("generation succeeds");
    let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
    let x = DenseVector::random(matrix.cols(), 3);
    let expected = matrix.spmv(x.as_slice()).unwrap();

    // Dedicated pool: its spawn count is its initial worker count, forever.
    let pool = Pool::new(4);
    let initial_workers = pool.workers();
    let mut y = vec![0.0; kernel.rows()];
    kernel
        .run_into_with_pool(x.as_slice(), &mut y, 0, &pool)
        .unwrap();

    let baseline = thread_spawns();
    for _ in 0..100 {
        kernel
            .run_into_with_pool(x.as_slice(), &mut y, 0, &pool)
            .unwrap();
    }
    assert!(
        DenseVector::from_vec(y.clone()).approx_eq(&expected, 1e-3),
        "pooled result must stay correct"
    );
    assert_eq!(
        thread_spawns(),
        baseline,
        "100 pooled runs must spawn zero threads"
    );
    assert_eq!(
        pool.workers(),
        initial_workers,
        "pool worker count across N runs == initial worker count"
    );

    // The default `run`/`run_into` and the timing harness ride the shared
    // pool: warm it once, then assert the steady state is spawn-free too.
    kernel.run(x.as_slice(), 0).unwrap();
    let harness = TimingHarness { warmup: 1, runs: 3 };
    harness.measure_kernel(&kernel, x.as_slice(), 0).unwrap();
    let baseline = thread_spawns();
    for _ in 0..25 {
        kernel.run_into(x.as_slice(), &mut y, 0).unwrap();
    }
    harness.measure_kernel(&kernel, x.as_slice(), 0).unwrap();
    assert_eq!(
        thread_spawns(),
        baseline,
        "default run/measure paths must reuse the shared pool"
    );
}
