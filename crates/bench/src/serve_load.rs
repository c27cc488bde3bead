//! `reproduce -- serve`: a closed-loop load test of the `alpha-net` daemon.
//!
//! Spawns the daemon in-process on a loopback port, then drives it with a
//! configurable number of closed-loop clients (each waits for its previous
//! request before issuing the next — the classic closed-loop load model).
//! The run has two phases separated by a barrier: every client first tunes
//! its share of a matrix fleet over the wire (the tune storm — this is
//! where admission control and queue-wait are measured), then all clients
//! switch together to remote SpMV against the finished kernels.  SpMV
//! requests are *paced*: each client thinks for [`ServeLoadConfig::
//! spmv_pace`] between requests, with client start times staggered across
//! one pace interval, so the SpMV phase measures how latency scales with
//! *connection count* at a bounded offered load — the event-loop question —
//! rather than rediscovering that a saturated closed loop queues linearly
//! in the number of clients (which no server design can beat).  The report
//! carries throughput plus p50/p95/p99 latency for both request classes,
//! which `reproduce` writes into `BENCH_results.json`; any failed request
//! fails the whole run (the binary exits non-zero).
//!
//! Every client-observed class has a server-side twin (`*_server` record
//! classes) digested from the daemon's **private telemetry registry**: the
//! daemon's own latency histograms, percentile-estimated from their log2
//! buckets.  Client p99 diverging from the daemon's by more than
//! [`ServeLoadReport::DIVERGENCE_FLAG`] is flagged in the `reproduce`
//! output — it means the wire or the event loop, not the kernels, owns the
//! tail.
//!
//! [`Busy`](alpha_net::Response::Busy) sheds are *not* failures: admission
//! control rejecting under pressure is the daemon working as designed, so
//! shed requests are retried after the daemon's `retry_after_ms` hint and
//! reported as their own `shed` request class instead of aborting the run.
//!
//! [`serve_sweep`] repeats the load at increasing connection counts over
//! one shared warm store (only the first count pays for tuning), producing
//! the latency-vs-connection-count curve of the event-loop server.

use crate::{BenchRecord, LatencySummary};
use alpha_matrix::CsrMatrix;
use alpha_net::{Client, NetServer, ServerConfig};
use alpha_search::SearchConfig;
use alpha_serve::{DesignStore, TuningService};
use alpha_telemetry::Registry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of one `reproduce -- serve` run.
#[derive(Debug, Clone, Copy)]
pub struct ServeLoadConfig {
    /// Matrices in the fleet (pattern families cycle).
    pub fleet_size: usize,
    /// Rows (= columns) of each matrix.
    pub rows: usize,
    /// Average row length of each matrix.
    pub avg_row_len: usize,
    /// Search budget per tune job.
    pub budget: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Remote SpMV requests per finished tune job.
    pub spmv_per_job: usize,
    /// Think time between a client's SpMV requests.  The total offered
    /// SpMV load is `clients / spmv_pace`; keep it below the daemon's
    /// execution capacity so the sweep's latency curve isolates connection
    /// scaling instead of saturation queueing.
    pub spmv_pace: Duration,
    /// Daemon admission-queue capacity.
    pub queue_capacity: usize,
    /// Daemon tuning workers (0 = auto).
    pub workers: usize,
    /// `SearchConfig::threads` for the daemon's searches (the `--threads`
    /// override; 0 = auto).
    pub threads: usize,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig {
            fleet_size: 24,
            rows: 2_048,
            avg_row_len: 8,
            budget: 30,
            clients: 4,
            spmv_per_job: 8,
            spmv_pace: Duration::from_millis(100),
            queue_capacity: 16,
            workers: 0,
            threads: 0,
        }
    }
}

impl ServeLoadConfig {
    /// Tiny scale for tests.
    pub fn tiny() -> Self {
        ServeLoadConfig {
            fleet_size: 4,
            rows: 256,
            avg_row_len: 5,
            budget: 6,
            clients: 2,
            spmv_per_job: 2,
            spmv_pace: Duration::from_millis(1),
            queue_capacity: 4,
            workers: 2,
            threads: 0,
        }
    }
}

/// The measurements of one closed-loop load run.
#[derive(Debug, Clone)]
pub struct ServeLoadReport {
    /// The run's configuration.
    pub config: ServeLoadConfig,
    /// Wall-clock seconds the whole load took (daemon spawn to last reply).
    pub wall_secs: f64,
    /// Per-request tune latencies in microseconds (submit → job done,
    /// including queueing — what a closed-loop caller experiences).
    pub tune_latencies_us: Vec<f64>,
    /// Server-side admission-queue wait per tune job in microseconds
    /// (submit → worker pickup).  Reported separately from execution so
    /// pool improvements are attributable: queue wait is capacity/backlog,
    /// not kernel speed.
    pub tune_queue_wait_us: Vec<f64>,
    /// Server-side tuning execution time per job in microseconds (worker
    /// pickup → done), i.e. the tune latency minus queueing and transport.
    pub tune_exec_us: Vec<f64>,
    /// Per-request remote SpMV round-trip latencies in microseconds.
    pub spmv_latencies_us: Vec<f64>,
    /// Submissions that hit [`Busy`](alpha_net::Response::Busy)
    /// backpressure before being admitted on retry.
    pub backpressure_hits: u64,
    /// SpMV requests the daemon shed with `Busy` (execution lane
    /// saturated) before succeeding on retry.
    pub shed_spmv: u64,
    /// Jobs served with zero fresh evaluations (warm-store hits).
    pub store_served_jobs: usize,
    /// The daemon's own view of the tune admission-queue wait, digested
    /// from its private telemetry registry (`net_tune_queue_wait_us`).
    pub server_tune_queue: Option<ServerClassSummary>,
    /// The daemon's own view of tune execution (`net_tune_exec_us`).
    pub server_tune_exec: Option<ServerClassSummary>,
    /// The daemon's own view of SpMV latency, received frame → executed
    /// (`net_spmv_latency_us`) — the client number minus transport and
    /// client-side queueing.
    pub server_spmv: Option<ServerClassSummary>,
}

/// One server-side request class digested from the daemon's telemetry
/// registry: percentiles estimated from the log2-bucket histogram (accuracy
/// ~the 2x bucket width — made for divergence checks, not for sub-bucket
/// comparisons) plus the daemon's own observation count.
#[derive(Debug, Clone, Copy)]
pub struct ServerClassSummary {
    /// Percentiles + per-wall-second rate as the daemon saw them.
    pub latency: LatencySummary,
    /// Observations the daemon recorded for the class.
    pub count: u64,
}

impl ServerClassSummary {
    /// Digests one histogram out of a registry snapshot (`None` when the
    /// daemon never observed the class).
    fn from_snapshot(
        snapshot: &alpha_telemetry::Snapshot,
        name: &str,
        wall_secs: f64,
    ) -> Option<ServerClassSummary> {
        let hist = snapshot.histogram(name, &[])?;
        Some(ServerClassSummary {
            latency: LatencySummary {
                p50_us: hist.quantile(0.50),
                p95_us: hist.quantile(0.95),
                p99_us: hist.quantile(0.99),
                requests_per_sec: if wall_secs > 0.0 {
                    hist.count as f64 / wall_secs
                } else {
                    0.0
                },
            },
            count: hist.count,
        })
    }
}

impl ServeLoadReport {
    /// Throughput + tail latency of the tune request class.
    pub fn tune_summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.tune_latencies_us, self.wall_secs)
    }

    /// Throughput + tail latency of the SpMV request class.
    pub fn spmv_summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.spmv_latencies_us, self.wall_secs)
    }

    /// Tail summary of the tuning-queue wait component.
    pub fn tune_queue_summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.tune_queue_wait_us, self.wall_secs)
    }

    /// Tail summary of the server-side tuning execution component.
    pub fn tune_exec_summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.tune_exec_us, self.wall_secs)
    }

    /// Total requests the daemon shed with `Busy` backpressure during the
    /// run (tune submissions plus SpMVs); each was retried, never dropped.
    pub fn sheds(&self) -> u64 {
        self.backpressure_hits + self.shed_spmv
    }

    /// Client-observed p99 over the daemon's own p99 for the SpMV class —
    /// the transport + queueing multiplier.  `None` until the daemon
    /// recorded at least one SpMV.  Values past
    /// [`DIVERGENCE_FLAG`](ServeLoadReport::DIVERGENCE_FLAG) mean the
    /// client is eating far more latency than the server spends, i.e. the
    /// event loop or the wire is the bottleneck, not the kernels.
    pub fn spmv_p99_divergence(&self) -> Option<f64> {
        let server = self.server_spmv?;
        if server.latency.p99_us <= 0.0 {
            return None;
        }
        Some(self.spmv_summary().p99_us / server.latency.p99_us)
    }

    /// Divergence past this ratio is flagged by `reproduce -- serve`.  Set
    /// above the server histogram's ~2x bucket resolution so a flag always
    /// means real transport/queueing cost, never rounding.
    pub const DIVERGENCE_FLAG: f64 = 2.0;

    /// True when the client-observed SpMV p99 diverges from the daemon's by
    /// more than [`DIVERGENCE_FLAG`](ServeLoadReport::DIVERGENCE_FLAG).
    pub fn divergence_flagged(&self) -> bool {
        self.spmv_p99_divergence()
            .is_some_and(|ratio| ratio > Self::DIVERGENCE_FLAG)
    }

    /// The `BENCH_results.json` records of this run: one per request class,
    /// carrying percentiles and throughput in the latency columns.  The
    /// `shed` class counts Busy rejections absorbed by retry — a load
    /// signal, not a failure.  Classes suffixed `_server` are the daemon's
    /// own view of the same traffic, digested from its telemetry registry,
    /// so the trajectory file carries both sides of every latency claim.
    pub fn records(&self) -> Vec<BenchRecord> {
        let fleet = format!(
            "serve_fleet{}x{}c_q{}",
            self.config.fleet_size, self.config.clients, self.config.queue_capacity
        );
        let record = |format: &str, latency: LatencySummary, count: usize| BenchRecord {
            device: "alpha-net".to_string(),
            matrix: fleet.clone(),
            format: format.to_string(),
            gflops: 0.0,
            measured_gflops: None,
            evaluator: "simulated".to_string(),
            simd: None,
            cpu_features: None,
            search_iterations: count,
            cache_hit_rate: 0.0,
            wall_secs: self.wall_secs,
            threads: self.config.threads,
            measured_median_us: None,
            measured_stddev_us: None,
            kernel_shape: None,
            latency: Some(latency),
            clients: Some(self.config.clients),
        };
        let mut records = vec![
            record("tune", self.tune_summary(), self.tune_latencies_us.len()),
            record(
                "tune_queue",
                self.tune_queue_summary(),
                self.tune_queue_wait_us.len(),
            ),
            record(
                "tune_exec",
                self.tune_exec_summary(),
                self.tune_exec_us.len(),
            ),
            record("spmv", self.spmv_summary(), self.spmv_latencies_us.len()),
            record(
                "shed",
                LatencySummary::from_samples(&[], self.wall_secs),
                self.sheds() as usize,
            ),
        ];
        for (class, summary) in [
            ("tune_queue_server", self.server_tune_queue),
            ("tune_exec_server", self.server_tune_exec),
            ("spmv_server", self.server_spmv),
        ] {
            if let Some(s) = summary {
                records.push(record(class, s.latency, s.count as usize));
            }
        }
        records
    }
}

struct ClientOutcome {
    tune_latencies_us: Vec<f64>,
    tune_queue_wait_us: Vec<f64>,
    tune_exec_us: Vec<f64>,
    spmv_latencies_us: Vec<f64>,
    backpressure_hits: u64,
    shed_spmv: u64,
    store_served_jobs: usize,
}

/// One load client: identifies as its own tenant, tunes its share of the
/// fleet (phase 1), waits at the barrier for every other client, then runs
/// paced SpMV against its finished kernels (phase 2).  `Busy` sheds are
/// retried (and counted); any *failed* request aborts the client — and
/// with it the whole run.
///
/// The barrier is reached exactly once per client, error or not — an
/// early return before it would deadlock every other client.
fn drive_client(
    addr: std::net::SocketAddr,
    tenant: u64,
    matrices: &[CsrMatrix],
    spmv_per_job: usize,
    pace: Duration,
    stagger: Duration,
    phase_barrier: &std::sync::Barrier,
) -> Result<ClientOutcome, String> {
    let tuned = tune_phase(addr, tenant, matrices);
    phase_barrier.wait();
    let (mut client, mut outcome, jobs) = tuned?;
    // Stagger client starts across one pace interval so the paced phase
    // offers a uniform arrival stream instead of a synchronized burst at
    // every pace boundary.
    std::thread::sleep(stagger);
    for (job, rows, cols) in jobs {
        let x = vec![1.0; cols];
        for _ in 0..spmv_per_job {
            let start = Instant::now();
            // A shed is backpressure, not failure: honour the daemon's
            // retry hint and try again (deadline-bounded so a wedged
            // daemon still fails the run instead of hanging it).
            let y = loop {
                match client.spmv(job, &x) {
                    Ok(y) => break y,
                    Err(alpha_net::NetError::Busy { retry_after_ms, .. }) => {
                        outcome.shed_spmv += 1;
                        if start.elapsed() >= DEADLINE {
                            return Err(format!("spmv on job {job} shed past the deadline"));
                        }
                        std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 50)));
                    }
                    Err(e) => return Err(format!("spmv on job {job} failed: {e}")),
                }
            };
            outcome
                .spmv_latencies_us
                .push(start.elapsed().as_secs_f64() * 1e6);
            if y.len() != rows {
                return Err(format!(
                    "spmv on job {job} returned {} rows, expected {rows}",
                    y.len()
                ));
            }
            std::thread::sleep(pace);
        }
    }
    Ok(outcome)
}

const DEADLINE: Duration = Duration::from_secs(3_600);

/// Phase 1 of one client: connect as the tenant and tune every matrix in
/// its share, recording tune/queue/exec latencies.  Returns the connected
/// client and the finished `(job_id, rows, cols)` handles for phase 2.
#[allow(clippy::type_complexity)]
fn tune_phase(
    addr: std::net::SocketAddr,
    tenant: u64,
    matrices: &[CsrMatrix],
) -> Result<(Client, ClientOutcome, Vec<(u64, usize, usize)>), String> {
    let (mut client, _weight) = Client::connect_as(addr, tenant).map_err(String::from)?;
    let mut outcome = ClientOutcome {
        tune_latencies_us: Vec::new(),
        tune_queue_wait_us: Vec::new(),
        tune_exec_us: Vec::new(),
        spmv_latencies_us: Vec::new(),
        backpressure_hits: 0,
        shed_spmv: 0,
        store_served_jobs: 0,
    };
    let mut jobs = Vec::with_capacity(matrices.len());
    for matrix in matrices {
        // Closed loop: submit (deadline-bounded backoff on Busy — a wedged
        // daemon must fail the run, not hang it), wait for completion.
        let start = Instant::now();
        let (job, rejections) = client
            .submit_tune_counting_backoff(matrix, "A100", Duration::from_millis(2), DEADLINE)
            .map_err(|e| format!("submit failed: {e}"))?;
        outcome.backpressure_hits += rejections;
        let summary = client
            .wait_job(job, Duration::from_millis(2), DEADLINE)
            .map_err(|e| format!("tune job {job} failed: {e}"))?;
        outcome
            .tune_latencies_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        outcome
            .tune_queue_wait_us
            .push(summary.queue_wait_secs * 1e6);
        outcome.tune_exec_us.push(summary.wall_secs * 1e6);
        outcome.store_served_jobs += (summary.fresh_evaluations == 0) as usize;
        jobs.push((job, matrix.rows(), matrix.cols()));
    }
    Ok((client, outcome, jobs))
}

/// A store directory under the system temp dir that no other call in any
/// process shares: the process id plus a process-wide sequence number, so
/// concurrent runs in one process (parallel tests) never remove each
/// other's live store.
fn unique_temp_dir(prefix: &str) -> PathBuf {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "{prefix}_{}_{}",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs the closed-loop load test end to end: spawn daemon, drive it with
/// `config.clients` concurrent clients, shut it down cleanly, aggregate.
pub fn serve_load(config: ServeLoadConfig) -> Result<ServeLoadReport, String> {
    let store_dir = unique_temp_dir("alphasparse_serve_load");
    let _ = std::fs::remove_dir_all(&store_dir);
    let report = serve_load_at(config, &store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    report
}

/// Repeats the load at each connection count in `counts` over one shared
/// design store: the first run pays for tuning, every later count is
/// warm-store served, so the sweep isolates how latency scales with
/// concurrent connections rather than with search cost.  Returns one
/// report per count, in the given order.
pub fn serve_sweep(
    config: ServeLoadConfig,
    counts: &[usize],
) -> Result<Vec<ServeLoadReport>, String> {
    let store_dir = unique_temp_dir("alphasparse_serve_sweep");
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut reports = Vec::with_capacity(counts.len());
    for &clients in counts {
        let point = ServeLoadConfig { clients, ..config };
        match serve_load_at(point, &store_dir) {
            Ok(report) => reports.push(report),
            Err(e) => {
                let _ = std::fs::remove_dir_all(&store_dir);
                return Err(format!("sweep point at {clients} clients failed: {e}"));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(reports)
}

/// One load run against a caller-owned store directory (kept afterwards,
/// so successive runs share the warm store).
fn serve_load_at(
    config: ServeLoadConfig,
    store_dir: &std::path::Path,
) -> Result<ServeLoadReport, String> {
    // A private registry per run: the daemon's histograms become this
    // point's server-side percentiles without bleeding into other sweep
    // points (or other tests in the same process via the global registry).
    let registry = Registry::new();
    let service = TuningService::new(
        DesignStore::open_with_registry(store_dir, registry.clone()).map_err(String::from)?,
        SearchConfig {
            max_iterations: config.budget,
            mutations_per_seed: 3,
            threads: config.threads,
            ..SearchConfig::default()
        },
    );
    let server = NetServer::spawn(
        "127.0.0.1:0",
        service,
        ServerConfig {
            queue_capacity: config.queue_capacity,
            workers: config.workers,
            ..ServerConfig::default()
        },
    )
    .map_err(String::from)?;
    let addr = server.local_addr();

    let matrices: Vec<CsrMatrix> = (0..config.fleet_size)
        .map(|i| {
            let family = alpha_matrix::gen::PatternFamily::ALL
                [i % alpha_matrix::gen::PatternFamily::ALL.len()];
            family.generate(config.rows, config.avg_row_len, 20_000 + i as u64)
        })
        .collect();
    let clients = config.clients.max(1);
    // Up to fleet-size clients split the fleet; beyond that every extra
    // client re-tunes an already-covered matrix (warm-store served), so
    // high connection counts measure the serving tier, not extra search.
    let shares: Vec<Vec<CsrMatrix>> = if clients <= matrices.len() {
        matrices
            .chunks(matrices.len().div_ceil(clients))
            .map(|chunk| chunk.to_vec())
            .collect()
    } else {
        (0..clients)
            .map(|i| vec![matrices[i % matrices.len()].clone()])
            .collect()
    };

    let start = Instant::now();
    let phase_barrier = std::sync::Barrier::new(shares.len());
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let barrier = &phase_barrier;
        let handles: Vec<_> = shares
            .iter()
            .enumerate()
            .map(|(i, share)| {
                // Spread client start offsets uniformly across one pace
                // interval.
                let stagger = config.spmv_pace.mul_f64(i as f64 / shares.len() as f64);
                scope.spawn(move || {
                    drive_client(
                        addr,
                        1 + i as u64,
                        share,
                        config.spmv_per_job,
                        config.spmv_pace,
                        stagger,
                        barrier,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load client panicked".to_string()))
            })
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    // Stop the daemon before judging the outcomes, so a failed run still
    // shuts down cleanly.
    let shutdown = Client::connect(addr)
        .and_then(|mut c| c.shutdown())
        .map_err(String::from);
    server.join();
    shutdown?;

    // The daemon has fully stopped: its registry now holds the complete
    // server-side view of the run's traffic.
    let snapshot = registry.snapshot();
    let mut report = ServeLoadReport {
        config,
        wall_secs,
        tune_latencies_us: Vec::new(),
        tune_queue_wait_us: Vec::new(),
        tune_exec_us: Vec::new(),
        spmv_latencies_us: Vec::new(),
        backpressure_hits: 0,
        shed_spmv: 0,
        store_served_jobs: 0,
        server_tune_queue: ServerClassSummary::from_snapshot(
            &snapshot,
            "net_tune_queue_wait_us",
            wall_secs,
        ),
        server_tune_exec: ServerClassSummary::from_snapshot(
            &snapshot,
            "net_tune_exec_us",
            wall_secs,
        ),
        server_spmv: ServerClassSummary::from_snapshot(&snapshot, "net_spmv_latency_us", wall_secs),
    };
    for outcome in outcomes {
        let outcome = outcome?;
        report.tune_latencies_us.extend(outcome.tune_latencies_us);
        report.tune_queue_wait_us.extend(outcome.tune_queue_wait_us);
        report.tune_exec_us.extend(outcome.tune_exec_us);
        report.spmv_latencies_us.extend(outcome.spmv_latencies_us);
        report.backpressure_hits += outcome.backpressure_hits;
        report.shed_spmv += outcome.shed_spmv;
        report.store_served_jobs += outcome.store_served_jobs;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Traced run (`reproduce -- serve --trace`)
// ---------------------------------------------------------------------------

/// The span names one fully traced tune request must show, client submit to
/// server reply — the end-to-end-tracing acceptance bar.
pub const TUNE_TRACE_STAGES: [&str; 5] = [
    "client.submit",
    "net.admission",
    "net.queue_wait",
    "net.tune_exec",
    "net.reply",
];

/// Report of one traced serve run: where the stitched Chrome trace landed
/// and what it proved.
#[derive(Debug)]
pub struct TracedServeReport {
    /// Where the stitched Chrome trace artifact was written.
    pub trace_path: std::path::PathBuf,
    /// Client-origin spans in the artifact (`pid` 1).
    pub client_spans: usize,
    /// Server-origin spans in the artifact (`pid` 2).
    pub server_spans: usize,
    /// Distinct nonzero trace ids observed across both halves.
    pub trace_ids: usize,
    /// Trace ids whose spans cover every stage in [`TUNE_TRACE_STAGES`] —
    /// requests traced end to end, client submit through server reply.
    pub complete_tune_traces: usize,
    /// The client-minus-server clock offset estimate applied when
    /// stitching, µs (≈ 0 in-process: both halves share one clock).
    pub clock_offset_us: i64,
    /// Flight-recorder attribution of the slowest traced request.
    pub slowest: Option<alpha_telemetry::TraceAttribution>,
}

/// Runs one traced request batch against an in-process daemon: every
/// request carries a minted trace id, the daemon's spans and flight events
/// tag themselves with it, and the client-fetched trace is stitched into a
/// Chrome trace artifact (`BENCH_trace.json`, or `$BENCH_TRACE_PATH`).
/// Returns what the artifact contains plus the flight recorder's per-stage
/// attribution of the slowest request.
pub fn traced_serve_run(threads: usize) -> Result<TracedServeReport, String> {
    let store_dir = unique_temp_dir("alphasparse_serve_trace");
    let _ = std::fs::remove_dir_all(&store_dir);
    let result = traced_serve_run_at(threads, &store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    result
}

fn traced_serve_run_at(
    threads: usize,
    store_dir: &std::path::Path,
) -> Result<TracedServeReport, String> {
    // Tracing on for the run's duration, with the ring drained of whatever
    // earlier modes recorded; restored to its prior state on every exit
    // path that matters (the artifact is written before shutdown).
    let was_tracing = alpha_telemetry::tracing_enabled();
    alpha_telemetry::enable_tracing(65_536);
    let _ = alpha_telemetry::drain_spans();
    let result = traced_serve_run_traced(threads, store_dir);
    if !was_tracing {
        alpha_telemetry::disable_tracing();
    }
    result
}

fn traced_serve_run_traced(
    threads: usize,
    store_dir: &std::path::Path,
) -> Result<TracedServeReport, String> {
    let registry = Registry::new();
    let service = TuningService::new(
        DesignStore::open_with_registry(store_dir, registry).map_err(String::from)?,
        SearchConfig {
            max_iterations: 6,
            mutations_per_seed: 3,
            threads,
            ..SearchConfig::default()
        },
    );
    let server = NetServer::spawn(
        "127.0.0.1:0",
        service,
        ServerConfig {
            workers: 2,
            // Pin every traced request's flight events: the run exists to
            // produce attribution, not to sample it.
            slow_request_us: 1,
            ..ServerConfig::default()
        },
    )
    .map_err(String::from)?;
    let flightrec = server.flight_recorder().clone();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).map_err(String::from)?;
    for i in 0..3u64 {
        let family = alpha_matrix::gen::PatternFamily::ALL
            [i as usize % alpha_matrix::gen::PatternFamily::ALL.len()];
        let matrix = family.generate(96, 4, 31_000 + i);
        let job = client
            .submit_tune_with_backoff(
                &matrix,
                "A100",
                Duration::from_millis(5),
                Duration::from_secs(30),
            )
            .map_err(String::from)?;
        client
            .wait_job(job, Duration::from_millis(2), DEADLINE)
            .map_err(String::from)?;
        let x = vec![1.0f32; matrix.cols()];
        client.spmv(job, &x).map_err(String::from)?;
    }

    // One fetch drains the shared ring.  In-process, client- and
    // server-side spans land in the *same* ring, so the fetch returns both
    // halves and the `client.` name prefix partitions them by origin; over
    // a real wire the fetch would return only the server half and the local
    // drain the client half.
    let fetch = client.fetch_trace().map_err(String::from)?;
    let (client_spans, server_spans): (Vec<_>, Vec<_>) = fetch
        .spans
        .iter()
        .cloned()
        .partition(|s| s.name.starts_with("client."));
    let offset = fetch.clock_offset_us();
    let stitched = alpha_telemetry::stitch_chrome_trace(&client_spans, &server_spans, offset);

    let trace_path = std::env::var_os("BENCH_TRACE_PATH")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_trace.json"));
    std::fs::write(&trace_path, &stitched)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    // End-to-end coverage: a trace id counts as complete when its spans
    // name every stage from client submit to server reply.
    let mut stages_by_trace: std::collections::HashMap<u64, std::collections::HashSet<&str>> =
        std::collections::HashMap::new();
    for span in &fetch.spans {
        if span.trace_id != 0 {
            stages_by_trace
                .entry(span.trace_id)
                .or_default()
                .insert(span.name.as_str());
        }
    }
    let complete_tune_traces = stages_by_trace
        .values()
        .filter(|names| TUNE_TRACE_STAGES.iter().all(|stage| names.contains(stage)))
        .count();

    let mut ids: Vec<u64> = stages_by_trace.keys().copied().collect();
    ids.sort_unstable();

    client.shutdown().map_err(String::from)?;
    server.join();
    let slowest = flightrec.slowest_trace();

    Ok(TracedServeReport {
        trace_path,
        client_spans: client_spans.len(),
        server_spans: server_spans.len(),
        trace_ids: ids.len(),
        complete_tune_traces,
        clock_offset_us: offset,
        slowest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_load_measures_both_request_classes() {
        let config = ServeLoadConfig::tiny();
        let report = serve_load(config).expect("load run succeeds");
        assert_eq!(report.tune_latencies_us.len(), config.fleet_size);
        assert_eq!(
            report.spmv_latencies_us.len(),
            config.fleet_size * config.spmv_per_job
        );
        let tune = report.tune_summary();
        assert!(tune.p50_us > 0.0);
        assert!(tune.p50_us <= tune.p95_us && tune.p95_us <= tune.p99_us);
        assert!(tune.requests_per_sec > 0.0);
        let spmv = report.spmv_summary();
        assert!(spmv.p50_us > 0.0 && spmv.requests_per_sec > 0.0);

        // Queue wait and execution are reported separately, and each
        // component is bounded by the end-to-end latency the client saw.
        assert_eq!(report.tune_queue_wait_us.len(), config.fleet_size);
        assert_eq!(report.tune_exec_us.len(), config.fleet_size);
        let p50_total = tune.p50_us;
        let queue = report.tune_queue_summary();
        let exec = report.tune_exec_summary();
        assert!(queue.p50_us >= 0.0);
        assert!(exec.p50_us > 0.0, "execution time must be measured");
        assert!(
            exec.p50_us <= p50_total * 1.5,
            "execution p50 ({}) cannot dwarf the end-to-end p50 ({})",
            exec.p50_us,
            p50_total
        );

        // The daemon's own histograms produced the server-side twin of
        // every class, with counts matching what the clients drove.
        let server_exec = report.server_tune_exec.expect("server-side exec class");
        assert_eq!(server_exec.count as usize, config.fleet_size);
        assert!(server_exec.latency.p50_us > 0.0);
        assert!(server_exec.latency.p50_us <= server_exec.latency.p99_us);
        let server_spmv = report.server_spmv.expect("server-side spmv class");
        assert_eq!(
            server_spmv.count as usize,
            config.fleet_size * config.spmv_per_job
        );
        // The server's view excludes transport, so it can never exceed the
        // client's by more than the histogram's bucket resolution.
        let ratio = report
            .spmv_p99_divergence()
            .expect("divergence is computable");
        assert!(ratio > 0.0 && ratio.is_finite());

        let records = report.records();
        assert_eq!(records.len(), 8);
        let formats: Vec<&str> = records.iter().map(|r| r.format.as_str()).collect();
        assert_eq!(
            formats,
            [
                "tune",
                "tune_queue",
                "tune_exec",
                "spmv",
                "shed",
                "tune_queue_server",
                "tune_exec_server",
                "spmv_server"
            ]
        );
        for record in &records {
            assert_eq!(record.device, "alpha-net");
            assert_eq!(record.clients, Some(config.clients));
            let latency = record.latency.expect("serve records carry latency");
            assert!(latency.p99_us >= latency.p50_us);
        }
        let json = crate::results_to_json(&records);
        assert!(json.contains("\"p50_us\": "));
        assert!(json.contains("\"requests_per_sec\": "));
        assert!(json.contains(&format!("\"clients\": {}", config.clients)));
        assert!(!json.contains("\"p50_us\": null"));
    }

    #[test]
    fn busy_sheds_are_reported_not_fatal() {
        // A 1-slot queue behind concurrent clients sheds aggressively; the
        // run must still succeed and surface the sheds as their own record
        // class instead of exiting non-zero.
        let config = ServeLoadConfig {
            queue_capacity: 1,
            workers: 1,
            ..ServeLoadConfig::tiny()
        };
        let report = serve_load(config).expect("a shedding run still succeeds");
        assert_eq!(report.tune_latencies_us.len(), config.fleet_size);
        let records = report.records();
        let shed = records
            .iter()
            .find(|r| r.format == "shed")
            .expect("shed class is always reported");
        assert_eq!(shed.search_iterations, report.sheds() as usize);
        assert_eq!(shed.clients, Some(config.clients));
        // Shed counting is additive across request classes.
        assert_eq!(report.sheds(), report.backpressure_hits + report.shed_spmv);
    }

    #[test]
    fn concurrent_runs_keep_their_stores_apart() {
        // Two identical configurations at once: each run must own its store
        // directory, or one run's cleanup deletes the other's live store.
        let runs: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(|| serve_load(ServeLoadConfig::tiny())))
            .collect();
        for run in runs {
            let report = run
                .join()
                .expect("load thread")
                .expect("concurrent load run succeeds");
            assert_eq!(
                report.tune_latencies_us.len(),
                ServeLoadConfig::tiny().fleet_size
            );
        }
        assert_ne!(unique_temp_dir("x"), unique_temp_dir("x"));
    }

    #[test]
    fn sweep_reports_one_point_per_connection_count_in_order() {
        let config = ServeLoadConfig {
            fleet_size: 2,
            spmv_per_job: 1,
            ..ServeLoadConfig::tiny()
        };
        let counts = [1usize, 3];
        let reports = serve_sweep(config, &counts).expect("sweep succeeds");
        assert_eq!(reports.len(), counts.len());
        for (report, &count) in reports.iter().zip(&counts) {
            assert_eq!(report.config.clients, count);
            for record in report.records() {
                assert_eq!(record.clients, Some(count));
            }
        }
        // 3 clients > 2 matrices: every client still gets work (round-robin
        // re-tunes), and the warm store makes the second point cheap.
        assert_eq!(reports[1].tune_latencies_us.len(), 3);
        assert!(
            reports[1].store_served_jobs > 0,
            "later sweep points must hit the warm store"
        );
    }

    #[test]
    fn failed_requests_fail_the_run() {
        // An empty matrix in the fleet makes its tune job fail server-side;
        // the closed-loop driver must surface that as a run failure.
        let config = ServeLoadConfig::tiny();
        let store_dir = unique_temp_dir("alphasparse_serve_load_fail");
        let _ = std::fs::remove_dir_all(&store_dir);
        let service = TuningService::new(
            DesignStore::open(&store_dir).unwrap(),
            SearchConfig {
                max_iterations: config.budget,
                ..SearchConfig::default()
            },
        );
        let server = NetServer::spawn("127.0.0.1:0", service, ServerConfig::default()).unwrap();
        let empty = CsrMatrix::from_coo(&alpha_matrix::CooMatrix::new(8, 8));
        let barrier = std::sync::Barrier::new(1);
        let result = drive_client(
            server.local_addr(),
            1,
            &[empty],
            1,
            Duration::ZERO,
            Duration::ZERO,
            &barrier,
        );
        assert!(result.is_err(), "failed tune must fail the client loop");
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.shutdown().unwrap();
        server.join();
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(crate::percentile(&sorted, 50.0), 50.0);
        assert_eq!(crate::percentile(&sorted, 95.0), 95.0);
        assert_eq!(crate::percentile(&sorted, 99.0), 99.0);
        assert_eq!(crate::percentile(&sorted, 100.0), 100.0);
        assert_eq!(crate::percentile(&[], 50.0), 0.0);
        assert_eq!(crate::percentile(&[7.5], 99.0), 7.5);
        let summary = LatencySummary::from_samples(&[3.0, 1.0, 2.0], 2.0);
        assert_eq!(summary.p50_us, 2.0);
        assert_eq!(summary.requests_per_sec, 1.5);
    }
}
