//! `daemon_mix`: an in-process `NetServer` on loopback over a store
//! pre-warmed with a 24-matrix fleet, driven by one generator of at most
//! `nproc` threads and connections.
//!
//! A pass first races the daemon's designs in-process against the
//! baselines, then drives the daemon in two phases.  An open loop sends
//! requests on a fixed schedule of [`RATE`] requests per second: 90% `Spmv`
//! on finished jobs, 8% tunes of stored matrices (warm) and 2% tunes of
//! never-seen matrices (cold).  `Spmv` goes out on one connection; tunes
//! and their polls (every [`POLL`]) on the other, so polling never delays
//! a scheduled `Spmv`.  Every request is timed from when it was due, so a
//! stall shows in the requests behind it, and the generator's lateness is
//! reported.  A closed loop of `Spmv` over `nproc` connections then
//! measures saturation throughput.

use crate::fleet::{self, Item};
use crate::kernels::{self, KernelTally, SearchTally};
use crate::report::Report;
use crate::timing::{self, RaceOptions};
use crate::{host, trace, Args};
use alpha_matrix::gen::PatternFamily;
use alpha_matrix::Scalar;
use alpha_net::{Client, JobState, NetError, NetServer, ServerConfig};
use alpha_search::SearchConfig;
use alpha_serve::{DesignStore, ServedTune, TuneRequest, TuningService};
use alphasparse::{AlphaSparse, DeviceProfile, TimingHarness};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Matrices the store is pre-warmed with.
const FLEET: usize = 24;
/// Rows of every daemon matrix.
const ROWS: usize = 2_048;
/// Average row length of every daemon matrix.
const ROW_LEN: usize = 8;
/// Search budget of the daemon's (simulated-evaluator) searches.
const BUDGET: usize = 30;
/// Offered rate of the open loop, requests per second (below saturation).
pub const RATE: f64 = 200.0;
/// The open loop's mix per block of 50 consecutive requests: 45 `Spmv`
/// (90%), 4 warm tunes (8%) and 1 cold tune (2%), in an order shuffled
/// from the seed.  Exact counts keep the work of a run, and the jobs the
/// daemon retains, the same from seed to seed.
const BLOCK: usize = 50;
const SPMV_PER_BLOCK: usize = 45;
const WARM_PER_BLOCK: usize = 4;
/// Lengths of the in-process kernel race, the open loop and the closed loop
/// as multiples of `--seconds`.
const RACE_FRAC: f64 = 0.5;
const OPEN_FRAC: f64 = 1.5;
const CLOSED_FRAC: f64 = 0.3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Interval between polls of one pending tune job.
const POLL: Duration = Duration::from_millis(2);
/// A request still shed with Busy this long after it was due has failed.
const BUSY_DEADLINE: Duration = Duration::from_secs(1);
/// The open loop's medians are taken per window of this many equal slices
/// and then across windows, so a host stall in one slice moves them less.
const WINDOWS: usize = 6;
/// A tune job not done this long after it was due has timed out.
const JOB_DEADLINE: Duration = Duration::from_secs(30);
/// Device name the tunes are submitted for.
const DEVICE: &str = "A100";

fn search_config() -> SearchConfig {
    SearchConfig {
        max_iterations: BUDGET,
        mutations_per_seed: 3,
        ..SearchConfig::default()
    }
}

/// Slot order of the block starting at request `first`: a Fisher-Yates
/// shuffle of `0..BLOCK` driven by the seed.
fn block_order(seed: u64, first: usize, order: &mut Vec<usize>) {
    order.clear();
    order.extend(0..BLOCK);
    for k in (1..BLOCK).rev() {
        let j = (crate::mix(seed, 70_000 + (first + k) as u64) % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
}

fn fleet_item(seed: u64, index: u64) -> Result<Item, String> {
    let family = PatternFamily::ALL[index as usize % PatternFamily::ALL.len()];
    fleet::item(family, ROWS, ROW_LEN, crate::mix(seed, index))
}

/// What the set-up leaves behind.
struct Warmed {
    dir: std::path::PathBuf,
    fleet: Vec<Item>,
    registry: std::sync::Arc<alpha_telemetry::Registry>,
    service: TuningService,
    served: Vec<ServedTune>,
    gen_s: f64,
}

fn set_up(seed: u64, k: usize) -> Result<Warmed, String> {
    let _span = trace::span("bench.setup");
    let dir = crate::out_dir().join(format!("store_{}_{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let fleet: Vec<Item> = (0..FLEET as u64)
        .map(|i| fleet_item(seed, i))
        .collect::<Result<_, _>>()?;
    let gen_s = start.elapsed().as_secs_f64();
    let registry = alpha_telemetry::Registry::new();
    let store = {
        let _span = trace::span("serve.open");
        DesignStore::open_with_registry(&dir, registry.clone()).map_err(String::from)?
    };
    let service = TuningService::new(store, search_config());
    let requests: Vec<TuneRequest> = fleet
        .iter()
        .map(|i| TuneRequest::new(i.matrix.clone(), DeviceProfile::a100()))
        .collect();
    let served = {
        let _span = trace::span("serve.tune_batch");
        service.tune_batch(&requests)
    };
    let served = served.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Warmed {
        dir,
        fleet,
        registry,
        service,
        served,
        gen_s,
    })
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let nproc = host::nproc();
    let mut report = Report::default();
    let triad_gbs = args
        .trace
        .then(|| host::triad(4 * host::llc_bytes(), 5).gbs);
    let mut setups = Vec::new();
    let mut warmed = None;
    for k in 0..SETUPS {
        let start = Instant::now();
        let w = set_up(args.seed, k)?;
        setups.push(start.elapsed().as_secs_f64());
        if let Some(old) = warmed.replace(w) {
            let Warmed { dir, service, .. } = old;
            drop(service);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let w = warmed.expect("at least one set-up ran");
    report.e2e("setup_s", timing::median(&setups), setups.len());
    println!(
        "daemon_mix: store pre-warmed with {FLEET} matrices of {ROWS} rows; open loop at {RATE} req/s, {nproc} generator threads"
    );

    // Per-layer numbers of the serving layer, taken in-process before the
    // service moves into the daemon.
    let mut traced = Report::default();
    let mut search = SearchTally::default();
    let mut lower = Vec::new();
    for tune in &w.served {
        let stats = tune.tuned.search_stats();
        search.add(stats, tune.wall_secs * 1e3);
        let start = Instant::now();
        let _span = trace::span("cpu.lower");
        tune.tuned.native_kernel();
        lower.push(kernels::ms(start.elapsed()));
    }
    if args.trace {
        search.layers(&mut traced);
        traced.layer("matrix.gen_s", w.gen_s, FLEET);
        traced.layer("cpu.lower_ms", timing::median(&lower), lower.len());
        serve_layers(&w, &mut traced)?;
    }

    let mut plain = Report::default();
    let Warmed {
        dir,
        fleet,
        registry,
        service,
        served,
        ..
    } = w;
    let server =
        NetServer::spawn("127.0.0.1:0", service, ServerConfig::default()).map_err(String::from)?;
    let addr = server.local_addr();
    let result = (|| -> Result<(), String> {
        let jobs = submit_fleet(addr, &fleet, &mut report)?;
        let pass = Pass {
            args,
            nproc,
            addr,
            fleet: &fleet,
            served: &served,
            jobs: &jobs,
        };
        trace::set_enabled(false);
        pass.run(None, &mut plain)?;
        if let Some(triad_gbs) = triad_gbs {
            trace::set_enabled(true);
            let _span = trace::span("bench.measure");
            pass.run(Some(triad_gbs), &mut traced)?;
            trace::set_enabled(false);
        }
        Ok(())
    })();
    server.request_shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
    result?;
    if let Some(h) = registry.snapshot().histogram("net_spmv_latency_us", &[]) {
        traced.layer("net.server_spmv_p50_us", h.quantile(0.5), h.count as usize);
    }
    crate::merge_passes(&mut report, plain, args.trace.then_some(traced));
    Ok(report)
}

/// `serve.*` metrics measured in-process on the warmed service, plus the
/// code-generation time of a few fleet designs.
fn serve_layers(w: &Warmed, traced: &mut Report) -> Result<(), String> {
    let mut warm = Vec::new();
    for item in w.fleet.iter().take(5) {
        let request = [TuneRequest::new(item.matrix.clone(), DeviceProfile::a100())];
        let start = Instant::now();
        let _span = trace::span("serve.tune_batch");
        w.service.tune_batch(&request).pop().expect("one result")?;
        warm.push(kernels::ms(start.elapsed()));
    }
    traced.layer("serve.tune_warm_ms", timing::median(&warm), warm.len());
    let mut winners = Vec::new();
    let mut corpus = 0;
    for _ in 0..5 {
        let start = Instant::now();
        let _span = trace::span("serve.winners");
        corpus = w.service.store().winners().map_err(String::from)?.len();
        winners.push(kernels::ms(start.elapsed()));
    }
    traced.layer("serve.winners_ms", timing::median(&winners), winners.len());
    traced.layer("serve.corpus_size", corpus as f64, 1);

    let tuner = AlphaSparse::with_config(search_config());
    let mut generate = Vec::new();
    for item in w.fleet.iter().take(5) {
        generate.push(kernels::tune_cold(&tuner, &item.matrix)?.generate_ms);
    }
    traced.layer(
        "codegen.generate_ms",
        timing::median(&generate),
        generate.len(),
    );
    Ok(())
}

/// Submits the fleet to the daemon (served from the warm store) and checks
/// one `Spmv` per finished job; returns the job ids.
fn submit_fleet(addr: SocketAddr, fleet: &[Item], report: &mut Report) -> Result<Vec<u64>, String> {
    let mut client = Client::connect(addr).map_err(String::from)?;
    let mut jobs = Vec::with_capacity(fleet.len());
    for item in fleet {
        let job = client
            .submit_tune_with_backoff(&item.matrix, DEVICE, POLL, JOB_DEADLINE)
            .map_err(String::from)?;
        client
            .wait_job(job, POLL, JOB_DEADLINE)
            .map_err(String::from)?;
        let y = client.spmv(job, &item.x).map_err(String::from)?;
        report.attempted += 1;
        if alpha_matrix::max_scaled_error(&y, &item.reference) > timing::TOLERANCE {
            report.failed += 1;
        }
        jobs.push(job);
    }
    Ok(jobs)
}

/// What one pass drives.
struct Pass<'a> {
    args: &'a Args,
    nproc: usize,
    addr: SocketAddr,
    fleet: &'a [Item],
    served: &'a [ServedTune],
    jobs: &'a [u64],
}

impl Pass<'_> {
    /// One pass: in-process kernel race, open loop, closed loop.  The pass is
    /// traced exactly when `triad_gbs` is given.
    fn run(&self, triad_gbs: Option<f64>, report: &mut Report) -> Result<(), String> {
        let Pass {
            args,
            nproc,
            addr,
            fleet,
            served,
            jobs,
        } = *self;
        let traced = triad_gbs.is_some();
        // In-process: the daemon's designs, lowered here, against the
        // baselines.
        let options = RaceOptions {
            budget: Duration::from_secs_f64(args.seconds * RACE_FRAC / fleet.len() as f64),
            min_rounds: 5,
            min_sample_us: 200.0,
        };
        let mut tally = KernelTally::default();
        let mut kernel_us = Vec::new();
        let mut skews = Vec::new();
        for (item, tune) in fleet.iter().zip(served) {
            let kernel = tune.tuned.native_kernel();
            let baselines = kernels::build_baselines(&item.matrix)?;
            let race = kernels::race_matrix(
                kernel,
                &baselines,
                &item.x,
                &item.reference,
                options,
                traced.then_some(nproc),
            );
            if let Some(stats) = race.stats("tuned") {
                kernel_us.push(stats.median());
                if traced {
                    let _span = trace::span("core.measure");
                    let harness = tune.tuned.measure(TimingHarness::default(), 1)?;
                    skews.push(harness.min_us / stats.median());
                }
            }
            tally.add(kernel, &race, None, report);
        }
        tally.end_to_end(report);
        if traced {
            report.layer("search.timing_skew", timing::median(&skews), skews.len());
        }

        // Open loop.
        let open_secs = args.seconds * OPEN_FRAC;
        let count = (RATE * open_secs).round() as usize;
        let mut schedule = Vec::with_capacity(count);
        let mut colds = Vec::new();
        let mut order = Vec::new();
        for i in 0..count {
            if i % BLOCK == 0 {
                block_order(args.seed, i, &mut order);
            }
            let slot = order[i % BLOCK];
            let target = (crate::mix(args.seed, 50_000 + i as u64) % FLEET as u64) as usize;
            let kind = if slot < SPMV_PER_BLOCK {
                Kind::Spmv(target)
            } else if slot < SPMV_PER_BLOCK + WARM_PER_BLOCK {
                Kind::Warm(target)
            } else {
                let index = 100_000 + 1_000 * traced as u64 + colds.len() as u64;
                colds.push(fleet_item(args.seed, index)?);
                Kind::Cold(colds.len() - 1)
            };
            schedule.push((Duration::from_secs_f64(i as f64 / RATE), kind));
        }
        let threads = nproc.clamp(1, 2);
        let start = Instant::now() + Duration::from_millis(20);
        let outcomes: Vec<Result<Open, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    // Spmv on the first connection, tunes and their polls on
                    // the last, so polling never delays a scheduled Spmv.
                    let mine: Vec<(Duration, Kind)> = schedule
                        .iter()
                        .filter(|(_, kind)| match kind {
                            Kind::Spmv(_) => t == 0,
                            _ => t == threads - 1,
                        })
                        .cloned()
                        .collect();
                    let colds = &colds;
                    scope.spawn(move || {
                        trace::set_enabled(traced);
                        open_loop(addr, start, &mine, fleet, colds, jobs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("generator thread panicked".into()))
                })
                .collect()
        });
        let mut open = Open::default();
        for outcome in outcomes {
            open.merge(outcome?);
        }
        report.attempted += open.attempted;
        report.failed += open.failed;

        // Closed loop.
        let closed_secs = args.seconds * CLOSED_FRAC;
        let closed: Vec<Result<Closed, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        trace::set_enabled(traced);
                        closed_loop(addr, closed_secs, args.seed ^ t as u64, fleet, jobs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("closed-loop thread panicked".into()))
                })
                .collect()
        });
        let mut windows = vec![0u64; (closed_secs / WINDOW.as_secs_f64()).ceil() as usize];
        let mut served_ok = 0;
        for c in closed {
            let c = c?;
            for (total, n) in windows.iter_mut().zip(&c.per_window) {
                *total += n;
            }
            served_ok += c.per_window.iter().sum::<u64>();
            report.attempted += c.attempted;
            report.failed += c.failed;
            open.sheds += c.sheds;
        }
        // Median over whole windows: a stall of the host in one window does
        // not move the rate.
        windows.pop();
        let rates: Vec<f64> = windows
            .iter()
            .map(|&n| n as f64 / WINDOW.as_secs_f64())
            .collect();

        let values = |v: &[(f64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<f64>>();
        let spmv = timing::Stats::new(values(&open.spmv_us)).ok_or("no Spmv completed")?;
        let warm = timing::Stats::new(values(&open.warm_ms)).ok_or("no warm tune completed")?;
        let cold = timing::Stats::new(values(&open.cold_ms)).ok_or("no cold tune completed")?;
        let windowed = |v: &[(f64, f64)]| timing::windowed_median(v, open_secs, WINDOWS);
        report.layer("bench.spmv_p50_us", windowed(&open.spmv_us), spmv.count());
        report.layer(
            "bench.spmv_max_rps",
            timing::median(&rates),
            served_ok as usize,
        );
        report.layer("bench.tune_warm_ms", windowed(&open.warm_ms), warm.count());
        report.layer("bench.tune_cold_ms", windowed(&open.cold_ms), cold.count());
        let lag_p99_ms = timing::Stats::new(open.lag_ms.clone()).map_or(0.0, |s| s.quantile(0.99));
        println!(
            "  {} pass: {} Spmv (p99 {:.1} us), {} warm tunes (p90 {:.3} ms), {} cold tunes, \
             {} Busy sheds, generator lag p99 {lag_p99_ms:.3} ms",
            if traced { "traced" } else { "untraced" },
            spmv.count(),
            spmv.quantile(0.99),
            warm.count(),
            warm.quantile(0.9),
            cold.count(),
            open.sheds,
        );
        if let Some(triad_gbs) = triad_gbs {
            tally.layers(report, triad_gbs);
            report.layer(
                "serve.tune_exec_warm_ms",
                timing::median(&open.warm_exec_ms),
                open.warm_exec_ms.len(),
            );
            report.layer(
                "serve.tune_exec_cold_ms",
                timing::median(&open.cold_exec_ms),
                open.cold_exec_ms.len(),
            );
            report.layer(
                "serve.store_hit_rate",
                open.warm_hits as f64 / open.warm_ms.len().max(1) as f64,
                open.warm_ms.len(),
            );
            report.layer(
                "serve.fresh_evals_warm",
                open.fresh_warm as f64,
                open.warm_ms.len(),
            );
            report.layer(
                "net.queue_wait_ms",
                timing::median(&open.queue_wait_ms),
                open.queue_wait_ms.len(),
            );
            report.layer(
                "net.rpc_overhead_us",
                spmv.median() - timing::median(&kernel_us),
                spmv.count(),
            );
            report.layer("net.spmv_p99_us", spmv.quantile(0.99), spmv.count());
            report.layer("net.busy_sheds", open.sheds as f64, 1);
            report.layer("net.generator_lag_ms", lag_p99_ms, open.lag_ms.len());
            crate::net_codec_layers(&fleet[0].matrix, &fleet[0].x, &fleet[0].reference, report);
        }
        Ok(())
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
enum Kind {
    /// `Spmv` on the fleet job with this index.
    Spmv(usize),
    /// Tune of the stored fleet matrix with this index.
    Warm(usize),
    /// Tune of the never-seen matrix with this index.
    Cold(usize),
}

/// Open-loop results of one generator thread (or all of them, merged).
#[derive(Default)]
struct Open {
    /// `(seconds into the open loop the request was due, latency)`.
    spmv_us: Vec<(f64, f64)>,
    warm_ms: Vec<(f64, f64)>,
    cold_ms: Vec<(f64, f64)>,
    warm_exec_ms: Vec<f64>,
    cold_exec_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    warm_hits: usize,
    fresh_warm: u64,
    sheds: u64,
    attempted: u64,
    failed: u64,
}

impl Open {
    fn merge(&mut self, other: Open) {
        self.spmv_us.extend(other.spmv_us);
        self.warm_ms.extend(other.warm_ms);
        self.cold_ms.extend(other.cold_ms);
        self.warm_exec_ms.extend(other.warm_exec_ms);
        self.cold_exec_ms.extend(other.cold_exec_ms);
        self.queue_wait_ms.extend(other.queue_wait_ms);
        self.lag_ms.extend(other.lag_ms);
        self.warm_hits += other.warm_hits;
        self.fresh_warm += other.fresh_warm;
        self.sheds += other.sheds;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A tune job waiting to finish.
struct Pending {
    job: u64,
    due: Instant,
    /// Seconds into the open loop the request was due.
    offset: f64,
    kind: Kind,
    next_poll: Instant,
}

/// Sends `Spmv` for `job` and checks the reply, retrying Busy until
/// [`BUSY_DEADLINE`] after `due`.  Returns whether it succeeded.
fn checked_spmv(
    client: &mut Client,
    job: u64,
    x: &[Scalar],
    reference: &[Scalar],
    due: Instant,
    sheds: &mut u64,
) -> bool {
    loop {
        let result = {
            let _span = trace::span("net.spmv_rpc");
            client.spmv(job, x)
        };
        match result {
            Ok(y) => {
                return y.len() == reference.len()
                    && alpha_matrix::max_scaled_error(&y, reference) <= timing::TOLERANCE
            }
            Err(NetError::Busy { retry_after_ms, .. }) => {
                *sheds += 1;
                if due.elapsed() >= BUSY_DEADLINE {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 5)));
            }
            Err(e) => {
                eprintln!("perfbench: Spmv on job {job} failed: {e}");
                return false;
            }
        }
    }
}

/// Spin-yield window before a send: the generator stays on its core for
/// the last stretch before a due time, so a send is not late by a core's
/// wake-up from idle.  Polls do not spin, so the generator takes little
/// CPU from the daemon beside it.
const SPIN: Duration = Duration::from_micros(500);

/// Waits until `at`: sleeps until `spin` before it, then yields in a loop.
fn wait_until(at: Instant, spin: Duration) {
    let now = Instant::now();
    if at > now + spin {
        std::thread::sleep(at - now - spin);
    }
    while Instant::now() < at {
        std::thread::yield_now();
    }
}

fn open_loop(
    addr: SocketAddr,
    start: Instant,
    mine: &[(Duration, Kind)],
    fleet: &[Item],
    colds: &[Item],
    jobs: &[u64],
) -> Result<Open, String> {
    let mut client = Client::connect(addr).map_err(String::from)?;
    let mut out = Open::default();
    let mut pending: Vec<Pending> = Vec::new();
    for &(offset, kind) in mine {
        let due = start + offset;
        // Poll finished-or-not tune jobs until this request is due.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let next = pending
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.next_poll)
                .map(|(i, p)| (i, p.next_poll));
            match next {
                Some((i, at)) if at <= now => poll(&mut client, &mut pending, i, colds, &mut out),
                Some((_, at)) if at < due => wait_until(at, Duration::ZERO),
                _ => wait_until(due, SPIN),
            }
        }
        out.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        match kind {
            Kind::Spmv(i) => {
                let item = &fleet[i];
                if checked_spmv(
                    &mut client,
                    jobs[i],
                    &item.x,
                    &item.reference,
                    due,
                    &mut out.sheds,
                ) {
                    let latency = due.elapsed().as_secs_f64() * 1e6;
                    out.spmv_us.push((offset.as_secs_f64(), latency));
                } else {
                    out.failed += 1;
                }
            }
            Kind::Warm(i) | Kind::Cold(i) => {
                let matrix = match kind {
                    Kind::Warm(_) => &fleet[i].matrix,
                    _ => &colds[i].matrix,
                };
                match submit(&mut client, matrix, due, &mut out.sheds) {
                    Some(job) => pending.push(Pending {
                        job,
                        due,
                        offset: offset.as_secs_f64(),
                        kind,
                        next_poll: Instant::now() + POLL,
                    }),
                    None => out.failed += 1,
                }
            }
        }
    }
    while !pending.is_empty() {
        let now = Instant::now();
        let (i, at) = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, p)| p.next_poll)
            .map(|(i, p)| (i, p.next_poll))
            .expect("pending is not empty");
        if at > now {
            wait_until(at, Duration::ZERO);
        }
        poll(&mut client, &mut pending, i, colds, &mut out);
    }
    Ok(out)
}

fn submit(
    client: &mut Client,
    matrix: &alpha_matrix::CsrMatrix,
    due: Instant,
    sheds: &mut u64,
) -> Option<u64> {
    loop {
        let result = {
            let _span = trace::span("net.submit_tune");
            client.submit_tune(matrix, DEVICE)
        };
        match result {
            Ok(job) => return Some(job),
            Err(NetError::Busy { retry_after_ms, .. }) => {
                *sheds += 1;
                if due.elapsed() >= BUSY_DEADLINE {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 5)));
            }
            Err(e) => {
                eprintln!("perfbench: tune submission failed: {e}");
                return None;
            }
        }
    }
}

/// Polls `pending[i]` once; a finished job leaves the list.
fn poll(client: &mut Client, pending: &mut Vec<Pending>, i: usize, colds: &[Item], out: &mut Open) {
    let p = &mut pending[i];
    let state = {
        let _span = trace::span("net.poll_job");
        client.poll_job(p.job)
    };
    match state {
        Ok(JobState::Queued) | Ok(JobState::Running) => {
            if p.due.elapsed() >= JOB_DEADLINE {
                eprintln!("perfbench: tune job {} timed out", p.job);
                out.failed += 1;
                pending.swap_remove(i);
            } else {
                p.next_poll = Instant::now() + POLL;
            }
        }
        Ok(JobState::Done(summary)) => {
            let latency_ms = p.due.elapsed().as_secs_f64() * 1e3;
            out.queue_wait_ms.push(summary.queue_wait_secs * 1e3);
            match p.kind {
                Kind::Warm(_) => {
                    out.warm_ms.push((p.offset, latency_ms));
                    out.warm_exec_ms.push(summary.wall_secs * 1e3);
                    out.warm_hits += (summary.fresh_evaluations == 0) as usize;
                    out.fresh_warm += summary.fresh_evaluations;
                }
                Kind::Cold(c) => {
                    out.cold_ms.push((p.offset, latency_ms));
                    out.cold_exec_ms.push(summary.wall_secs * 1e3);
                    // The cold design must compute the right product.
                    let (job, due) = (p.job, p.due);
                    let item = &colds[c];
                    out.attempted += 1;
                    let mut sheds = 0;
                    if !checked_spmv(
                        client,
                        job,
                        &item.x,
                        &item.reference,
                        due.max(Instant::now()),
                        &mut sheds,
                    ) {
                        out.failed += 1;
                    }
                    out.sheds += sheds;
                }
                Kind::Spmv(_) => unreachable!("Spmv requests are never pending"),
            }
            pending.swap_remove(i);
        }
        Ok(other) => {
            eprintln!("perfbench: tune job {} ended as {other:?}", p.job);
            out.failed += 1;
            pending.swap_remove(i);
        }
        Err(e) => {
            eprintln!("perfbench: polling job {} failed: {e}", p.job);
            out.failed += 1;
            pending.swap_remove(i);
        }
    }
}

/// Window the closed loop's completions are counted in.
const WINDOW: Duration = Duration::from_millis(100);

/// Closed-loop results of one connection.
struct Closed {
    /// Checked replies completed in each [`WINDOW`] since the start.
    per_window: Vec<u64>,
    attempted: u64,
    failed: u64,
    sheds: u64,
}

fn closed_loop(
    addr: SocketAddr,
    seconds: f64,
    seed: u64,
    fleet: &[Item],
    jobs: &[u64],
) -> Result<Closed, String> {
    let mut client = Client::connect(addr).map_err(String::from)?;
    let mut out = Closed {
        per_window: Vec::new(),
        attempted: 0,
        failed: 0,
        sheds: 0,
    };
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut n = 0u64;
    while start.elapsed() < budget {
        let i = (crate::mix(seed, 900_000 + n) % fleet.len() as u64) as usize;
        n += 1;
        out.attempted += 1;
        let item = &fleet[i];
        if checked_spmv(
            &mut client,
            jobs[i],
            &item.x,
            &item.reference,
            Instant::now(),
            &mut out.sheds,
        ) {
            let window = (start.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
            if out.per_window.len() <= window {
                out.per_window.resize(window + 1, 0);
            }
            out.per_window[window] += 1;
        } else {
            out.failed += 1;
        }
    }
    Ok(out)
}
