//! `alpha-parallel` — std-only data-parallel primitives: scoped helpers built
//! on `std::thread::scope` plus a persistent worker [`Pool`].
//!
//! The evaluation layer of the search engine fans candidate batches out
//! across threads (ISSUE: "via rayon"); this container has no network access
//! to crates.io, so the workspace carries this std-only stand-in instead.  It
//! provides an order-preserving parallel map over a slice — with the same
//! determinism guarantee rayon's `par_iter().map().collect()` gives: the
//! output index `i` always holds `f(&items[i])`, regardless of how work
//! interleaves — and a disjoint-chunk in-place runner.
//!
//! * **spawn-per-call** [`parallel_map`]: scoped threads are created and
//!   joined per call.  Fine for coarse work (a batch of millisecond-scale
//!   searches), ruinous for a sub-100 µs SpMV where the spawn alone costs
//!   tens of microseconds.
//! * **the persistent [`Pool`]** ([`Pool::parallel_map`],
//!   [`Pool::run_over_chunks`]): workers are spawned once and parked on a
//!   condvar; a job wakes them, they drain an atomic work counter, and the
//!   submitting thread (which participates in its own job) collects the
//!   results.  Per-call dispatch cost is a mutex/condvar round-trip —
//!   microseconds, not thread spawns — which is what lets the native SpMV
//!   backend parallelise small matrices profitably.
//!
//! Work distribution is a simple atomic work-stealing counter in both: each
//! worker repeatedly claims the next unprocessed index.  That keeps
//! long-running items (e.g. a slow kernel simulation) from serialising
//! behind a static chunking.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use alpha_telemetry::{Counter, Gauge, Histogram};

/// Number of worker threads to use when the caller passes `0`: one per
/// available CPU core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Cached handle on the process-wide `parallel_thread_spawns_total` counter —
/// the observability hook the "no spawn on the steady-state path" tests rely
/// on: snapshot the counter via `alpha_telemetry::global()`, run the hot
/// path N times, and assert it did not move.  (The counter is global, so
/// such assertions belong in single-test binaries where no unrelated test
/// spawns concurrently.)
fn spawn_counter() -> &'static Counter {
    static COUNTER: OnceLock<Counter> = OnceLock::new();
    COUNTER.get_or_init(|| alpha_telemetry::global().counter("parallel_thread_spawns_total", &[]))
}

/// Cached handle on the process-wide `parallel_queue_depth` gauge — additive
/// across every live [`TaskQueue`] / [`ShardedTaskQueue`].
fn queue_depth_gauge() -> Gauge {
    static GAUGE: OnceLock<Gauge> = OnceLock::new();
    GAUGE
        .get_or_init(|| alpha_telemetry::global().gauge("parallel_queue_depth", &[]))
        .clone()
}

fn count_spawn() {
    spawn_counter().inc();
}

// ---------------------------------------------------------------------------
// Order-preserving result slots
// ---------------------------------------------------------------------------

/// Preallocated, index-addressed result storage for an order-preserving
/// parallel map.
///
/// Each index is claimed by exactly one worker (through an atomic counter),
/// so writes land in disjoint slots of the output vector's spare capacity and
/// need **no lock** — this replaces the old per-item `Mutex<Option<R>>`
/// slots, which paid a lock acquisition and an `Option` rewrap per element.
/// A plain atomic flag per slot records which results exist, so a panicking
/// job can drop the results it did produce instead of leaking them.
struct MapSlots<R> {
    /// Owns the allocation; `len` stays 0 until `finish`.
    vec: Vec<R>,
    /// Start of the allocation, captured while `vec` was exclusively held.
    base: *mut R,
    /// `written[i]` is set after slot `i` holds a live `R`.
    written: Vec<AtomicBool>,
}

// SAFETY: slot writes are disjoint by construction (each index is claimed by
// exactly one worker) and land in memory no reference covers (beyond the
// vector's length); the flags are atomics.
unsafe impl<R: Send> Sync for MapSlots<R> {}

impl<R: Send> MapSlots<R> {
    fn new(len: usize) -> Self {
        let mut vec = Vec::with_capacity(len);
        let base = vec.as_mut_ptr();
        MapSlots {
            vec,
            base,
            written: (0..len).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Stores the result for `index`.
    ///
    /// SAFETY: `index` is in bounds and written at most once.
    unsafe fn write(&self, index: usize, value: R) {
        unsafe { self.base.add(index).write(value) };
        self.written[index].store(true, Ordering::Release);
    }

    /// Consumes the slots: re-raises `panic` (dropping whatever results were
    /// produced before it) or returns the completed vector.
    fn finish(mut self, panic: Option<Box<dyn Any + Send>>) -> Vec<R> {
        if let Some(payload) = panic {
            for (index, flag) in self.written.iter().enumerate() {
                if flag.load(Ordering::Acquire) {
                    // SAFETY: the flag says this slot holds a live R that the
                    // vector (len 0) will not drop itself.
                    unsafe { std::ptr::drop_in_place(self.base.add(index)) };
                }
            }
            resume_unwind(payload);
        }
        debug_assert!(self.written.iter().all(|flag| flag.load(Ordering::Acquire)));
        // SAFETY: every index was claimed and written exactly once.
        unsafe { self.vec.set_len(self.written.len()) };
        self.vec
    }
}

/// Maps `f` over `items` on `threads` **freshly spawned** worker threads,
/// preserving order: `result[i] == f(&items[i])`.
///
/// This is the spawn-per-call flavour — each call creates and joins scoped
/// threads, so it suits coarse work only; hot paths should go through a
/// [`Pool`].  `threads == 0` means [`default_threads`]; `threads == 1` (or a
/// singleton / empty input) runs inline on the caller's thread with no
/// spawning overhead.  Panics in `f` propagate to the caller (results
/// produced before the panic are dropped, not leaked).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len()).max(1);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots = MapSlots::new(items.len());
    let worker = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= items.len() {
            break;
        }
        let result = f(&items[index]);
        // SAFETY: `index` came from the shared counter, so it is claimed
        // exactly once and in bounds.
        unsafe { slots.write(index, result) };
    };
    // Panics are caught per worker (first payload wins) rather than letting
    // the scope re-raise, so the slots can drop the partial results first.
    let panic_slot: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            count_spawn();
            scope.spawn(|| {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(&worker)) {
                    let mut slot = panic_slot.lock().expect("panic slot poisoned");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            });
        }
    });
    slots.finish(panic_slot.into_inner().expect("panic slot poisoned"))
}

/// Splits `slice` into up to `parts` contiguous chunks of near-equal length,
/// tagged with their start offsets — the input shape
/// [`Pool::run_over_chunks`] consumes.
pub fn split_mut<T>(slice: &mut [T], parts: usize) -> Vec<(usize, &mut [T])> {
    let len = slice.len();
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let chunk_size = len.div_ceil(parts);
    let mut chunks = Vec::with_capacity(parts);
    let mut offset = 0;
    let mut rest = slice;
    while !rest.is_empty() {
        let take = chunk_size.min(rest.len());
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((offset, head));
        offset += take;
        rest = tail;
    }
    chunks
}

/// Splits `slice` at the given ascending cut positions, tagged with start
/// offsets — the unequal-length sibling of [`split_mut`].
///
/// `cuts` must start at 0, end at `slice.len()`, and be non-decreasing;
/// zero-length pieces (repeated cuts) are dropped.  This is how nnz-balanced
/// row partitioning turns its boundary list into the disjoint output chunks
/// [`Pool::run_over_chunks`] consumes.
pub fn split_mut_at<'a, T>(slice: &'a mut [T], cuts: &[usize]) -> Vec<(usize, &'a mut [T])> {
    debug_assert!(cuts.first().is_none_or(|&c| c == 0));
    debug_assert!(cuts.last().is_none_or(|&c| c == slice.len()));
    debug_assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
    let mut chunks = Vec::with_capacity(cuts.len().saturating_sub(1));
    let mut offset = 0;
    let mut rest = slice;
    for window in cuts.windows(2) {
        let take = window[1] - window[0];
        if take == 0 {
            continue;
        }
        let (head, tail) = rest.split_at_mut(take);
        chunks.push((offset, head));
        offset += take;
        rest = tail;
    }
    chunks
}

// ---------------------------------------------------------------------------
// The persistent worker pool
// ---------------------------------------------------------------------------

thread_local! {
    /// Id of the pool whose job this thread is currently executing (0 when
    /// the thread is not running pool work).  Lets a nested submission to the
    /// same pool run inline instead of deadlocking on the submit lock.
    static EXECUTING_POOL: Cell<usize> = const { Cell::new(0) };
}

/// Restores the previous [`EXECUTING_POOL`] marker on drop, so nesting
/// between *different* pools unwinds correctly.
struct ExecutingGuard {
    previous: usize,
}

impl ExecutingGuard {
    fn enter(pool_id: usize) -> ExecutingGuard {
        let previous = EXECUTING_POOL.with(|cell| cell.replace(pool_id));
        ExecutingGuard { previous }
    }
}

impl Drop for ExecutingGuard {
    fn drop(&mut self) {
        EXECUTING_POOL.with(|cell| cell.set(self.previous));
    }
}

/// A lifetime-erased pointer to the current job's work closure.
#[derive(Clone, Copy)]
struct WorkPtr(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointer is only dereferenced while the submitting stack frame —
// which owns the closure — blocks in `Pool::execute` waiting for every worker
// to finish with it.
unsafe impl Send for WorkPtr {}

impl WorkPtr {
    /// Erases the borrow's lifetime so the pointer can sit in the pool's
    /// shared state.
    ///
    /// SAFETY contract (upheld by [`Pool::execute`]): the returned pointer
    /// must not be dereferenced after `execute` returns, and `execute` must
    /// not return before every worker has finished running the closure.
    fn erase<'a>(work: &'a (dyn Fn() + Sync + 'a)) -> WorkPtr {
        let raw = work as *const (dyn Fn() + Sync + 'a);
        #[allow(clippy::missing_transmute_annotations)]
        WorkPtr(unsafe { std::mem::transmute(raw) })
    }

    /// SAFETY: see [`WorkPtr::erase`] — only valid during the owning
    /// submission.
    unsafe fn get(&self) -> &(dyn Fn() + Sync) {
        unsafe { &*self.0 }
    }
}

struct PoolState {
    /// The job currently being executed, if any.
    job: Option<WorkPtr>,
    /// Bumped once per job so late-waking workers can tell a new job from
    /// the one they already ran.
    epoch: u64,
    /// Pool workers the current job wants (dispatch cost scales with the
    /// job's parallelism, not the host's core count: a 2-chunk SpMV on a
    /// 64-core pool wakes 1 worker, not 63).
    target: usize,
    /// Pool workers that have picked the current job up so far (never
    /// exceeds `target`; late or spuriously woken workers beyond it go
    /// straight back to sleep without touching `remaining`).
    claimed: usize,
    /// Claiming workers that have not yet finished the current job.
    remaining: usize,
    /// First panic payload raised inside the current job, if any.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`; workers exit when they observe it.
    shutdown: bool,
    /// When the current job was published; taken by the first worker to
    /// claim it, which observes the elapsed time as dispatch latency.
    published: Option<Instant>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Wakes parked workers when a job is published (or shutdown begins).
    work_ready: Condvar,
    /// Wakes the submitter when the last worker finishes the job.
    work_done: Condvar,
    /// Serialises submissions: one job runs at a time, concurrent submitters
    /// queue here (the admission order is the OS's lock wake order).
    submit: Mutex<()>,
    /// `parallel_dispatch_latency_us`: publish-to-first-worker-pickup, the
    /// condvar round-trip cost the pool exists to keep small.
    dispatch: Histogram,
}

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

/// A persistent worker pool: threads are spawned **once** and parked on a
/// condvar between jobs, removing the per-call `std::thread` spawn cost (tens
/// of microseconds — more than an entire sub-100 µs SpMV) from steady-state
/// hot paths.
///
/// Jobs are **scoped**: [`Pool::parallel_map`] and [`Pool::run_over_chunks`]
/// borrow their inputs and outputs from the caller's stack and do not return
/// until every worker is done with them, so non-`'static` closures work
/// exactly as they do with `std::thread::scope`.  The submitting thread
/// participates in its own job, so a pool built with [`Pool::new`]`(n)`
/// executes with the same parallelism as `n` spawned threads while keeping
/// only `n - 1` OS threads parked.
///
/// Concurrency and failure semantics:
///
/// * One job runs at a time; concurrent submitters (e.g. several daemon
///   connection threads sharing one execution pool) queue on an internal
///   lock and run back to back.
/// * A panic inside a job is caught on the worker, handed to the submitter,
///   and re-raised there **after** every worker has finished — the pool
///   itself stays usable for the next job.
/// * Submitting from inside a job of the same pool (nesting) runs the nested
///   job inline on the current thread instead of deadlocking.
/// * `Drop` parks no new work, wakes the workers and joins them.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    id: usize,
}

impl Pool {
    /// A pool executing with `threads`-way parallelism (`0` means one per
    /// available CPU core).  `threads - 1` workers are spawned and parked;
    /// the submitting thread is the final executor.  `Pool::new(1)` spawns
    /// nothing — every job runs inline.
    pub fn new(threads: usize) -> Pool {
        let threads = resolve_threads(threads).max(1);
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                target: 0,
                claimed: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
                published: None,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            submit: Mutex::new(()),
            dispatch: alpha_telemetry::global().histogram("parallel_dispatch_latency_us", &[]),
        });
        let handles = (0..threads - 1)
            .map(|worker| {
                let shared = shared.clone();
                count_spawn();
                std::thread::Builder::new()
                    .name(format!("alpha-pool-{id}-{worker}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("pool worker spawns")
            })
            .collect();
        Pool {
            shared,
            handles,
            id,
        }
    }

    /// The process-wide shared pool, sized to the host's core count and
    /// created on first use.  This is the default executor of every
    /// steady-state SpMV (`NativeKernel::run`, `TunedSpmv::run`, the native
    /// baselines) and of candidate-batch fan-out — the paths that used to
    /// spawn threads per call.
    pub fn shared() -> &'static Pool {
        static SHARED: OnceLock<Pool> = OnceLock::new();
        SHARED.get_or_init(|| Pool::new(0))
    }

    /// The pool's parallelism: parked workers plus the submitting thread.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// OS threads this pool keeps parked (its spawn count for the whole
    /// lifetime of the pool — reused, never re-spawned).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// True when the calling thread is already executing a job of *this*
    /// pool, in which case submissions run inline.
    fn is_reentrant(&self) -> bool {
        EXECUTING_POOL.with(|cell| cell.get() == self.id)
    }

    /// Publishes `work` to at most `worker_hint` pool workers, runs it on
    /// the calling thread too, waits for every engaged worker to finish,
    /// and returns the first panic payload (worker or caller), if any.
    ///
    /// `worker_hint` is the job's parallelism minus the caller: only that
    /// many workers are woken and waited on, so small jobs pay dispatch
    /// proportional to their own size, not to the pool's.
    fn execute(&self, work: &(dyn Fn() + Sync), worker_hint: usize) -> Option<Box<dyn Any + Send>> {
        let target = worker_hint.min(self.handles.len());
        let _admission = self
            .shared
            .submit
            .lock()
            .expect("pool submit lock poisoned");
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.job = Some(WorkPtr::erase(work));
            state.epoch = state.epoch.wrapping_add(1);
            state.target = target;
            state.claimed = 0;
            state.remaining = target;
            state.panic = None;
            state.published = if target > 0 {
                Some(Instant::now())
            } else {
                None
            };
        }
        // Waking is lost-wakeup-safe without notify_all: a worker that is
        // between jobs (not yet waiting) re-checks the claim predicate under
        // the lock before it ever sleeps.
        if target == self.handles.len() {
            self.shared.work_ready.notify_all();
        } else {
            for _ in 0..target {
                self.shared.work_ready.notify_one();
            }
        }

        // The submitter is an executor too: mark the thread (for reentrancy
        // detection) and run the same work function the workers run.
        let caller_outcome = {
            let _executing = ExecutingGuard::enter(self.id);
            catch_unwind(AssertUnwindSafe(work))
        };

        let mut state = self.shared.state.lock().expect("pool state poisoned");
        while state.remaining > 0 {
            state = self
                .shared
                .work_done
                .wait(state)
                .expect("pool state poisoned");
        }
        // Only now may the borrow behind the erased pointer end.
        state.job = None;
        let worker_panic = state.panic.take();
        drop(state);
        worker_panic.or(caller_outcome.err())
    }

    /// Order-preserving parallel map on the pool: `result[i] == f(&items[i])`
    /// with up to [`Pool::threads`] concurrent executors.  Panics in `f`
    /// propagate to the caller; the pool survives them.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.parallel_map_capped(items, usize::MAX, f)
    }

    /// [`Pool::parallel_map`] with at most `cap` concurrent executors — the
    /// knob a configured thread count (`SearchConfig::threads`,
    /// `with_batch_threads`) maps onto when the pool itself is larger.
    /// `cap <= 1` runs inline with no pool dispatch at all.
    pub fn parallel_map_capped<T, R, F>(&self, items: &[T], cap: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let cap = cap.clamp(1, self.threads()).min(items.len().max(1));
        if cap == 1 || self.is_reentrant() {
            return items.iter().map(&f).collect();
        }
        let slots = MapSlots::new(items.len());
        let next = AtomicUsize::new(0);
        let participants = AtomicUsize::new(0);
        let work = || {
            // Late-waking executors beyond the cap bow out immediately.
            if participants.fetch_add(1, Ordering::Relaxed) >= cap {
                return;
            }
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= items.len() {
                    break;
                }
                let result = f(&items[index]);
                // SAFETY: `index` came from the shared counter — claimed
                // exactly once, in bounds.
                unsafe { slots.write(index, result) };
            }
        };
        // The caller takes one executor slot; only `cap - 1` workers are
        // engaged.
        let panic = self.execute(&work, cap - 1);
        slots.finish(panic)
    }

    /// Runs `f(offset, chunk)` over disjoint mutable chunks on the pool —
    /// the zero-copy in-place sibling of [`Pool::parallel_map`]: kernels
    /// that own disjoint output ranges write straight into them instead of
    /// staging results in fresh buffers.  Panics propagate; the pool
    /// survives them.
    pub fn run_over_chunks<T, F>(&self, chunks: Vec<(usize, &mut [T])>, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if chunks.len() <= 1 || self.is_reentrant() {
            for (offset, chunk) in chunks {
                f(offset, chunk);
            }
            return;
        }
        // Erase the chunk borrows into raw parts so workers can claim them
        // by index; each index is claimed once, so access stays exclusive.
        let raw = RawChunks(
            chunks
                .into_iter()
                .map(|(offset, chunk)| (offset, chunk.as_mut_ptr(), chunk.len()))
                .collect::<Vec<_>>(),
        );
        let next = AtomicUsize::new(0);
        let work = || {
            // Capture the `Sync` wrapper itself, not its raw-pointer field.
            let raw = &raw;
            loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= raw.0.len() {
                    break;
                }
                let (offset, ptr, len) = raw.0[index];
                // SAFETY: the chunks were disjoint `&mut` borrows and each
                // index is claimed by exactly one executor.
                let chunk = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
                f(offset, chunk);
            }
        };
        // One chunk runs on the caller; at most one worker per remaining
        // chunk is engaged.
        let worker_hint = raw.0.len() - 1;
        if let Some(payload) = self.execute(&work, worker_hint) {
            resume_unwind(payload);
        }
    }
}

struct RawChunks<T>(Vec<(usize, *mut T, usize)>);

// SAFETY: see `run_over_chunks` — the raw parts come from disjoint `&mut`
// slices and are claimed exclusively by index.
unsafe impl<T: Send> Sync for RawChunks<T> {}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .field("workers", &self.workers())
            .finish()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, pool_id: usize) {
    // Workers belong to exactly one pool; mark the thread permanently so a
    // nested submission from inside job code runs inline.
    EXECUTING_POOL.with(|cell| cell.set(pool_id));
    let mut seen_epoch = 0u64;
    loop {
        let work = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                // A job this worker has not run yet, with a claim slot
                // left?  (The job is cleared only after `remaining` hits 0,
                // which needs every claimer's decrement — so no claimable
                // job can slip past a slow waker; workers beyond `target`
                // simply keep sleeping.)
                if state.epoch != seen_epoch && state.claimed < state.target {
                    if let Some(job) = state.job {
                        seen_epoch = state.epoch;
                        state.claimed += 1;
                        if let Some(published) = state.published.take() {
                            shared.dispatch.observe_duration(published.elapsed());
                        }
                        break job;
                    }
                }
                state = shared.work_ready.wait(state).expect("pool state poisoned");
            }
        };
        // SAFETY: the submitter blocks until this worker decrements
        // `remaining` below, so the closure behind the pointer is alive.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { work.get() }()));
        let mut state = shared.state.lock().expect("pool state poisoned");
        if let Err(payload) = outcome {
            if state.panic.is_none() {
                state.panic = Some(payload);
            }
        }
        state.remaining -= 1;
        let finished = state.remaining == 0;
        drop(state);
        if finished {
            shared.work_done.notify_all();
        }
    }
}

/// Why [`TaskQueue::try_push`] refused an item.  The item is handed back so
/// the caller can reply with backpressure (or retry) without cloning it.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — admission control says reject.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer / multi-consumer FIFO built on
/// `Mutex` + `Condvar` — the admission-control primitive a long-lived
/// service puts between its accept loop and its worker pool.
///
/// Producers use [`TaskQueue::try_push`], which **never blocks**: a full
/// queue returns [`PushError::Full`] immediately so the caller can shed load
/// (reply "busy") instead of stacking unbounded work.  Consumers use
/// [`TaskQueue::pop`], which blocks until an item arrives or the queue is
/// [closed](TaskQueue::close) and drained — the clean-shutdown signal for a
/// worker pool.
pub struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    capacity: usize,
    not_empty: Condvar,
    /// Shared `parallel_queue_depth` gauge (additive across queues).
    depth: Gauge,
}

impl<T> TaskQueue<T> {
    /// A queue admitting at most `capacity` items at a time (minimum 1).
    pub fn bounded(capacity: usize) -> Self {
        TaskQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            depth: queue_depth_gauge(),
        }
    }

    /// Enqueues `item` unless the queue is full or closed; never blocks.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("task queue poisoned");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        drop(state);
        self.depth.add(1);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.  Returns
    /// `None` once the queue is closed **and** drained — consuming workers
    /// use that as their exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("task queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                drop(state);
                self.depth.sub(1);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("task queue poisoned");
        }
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`], and
    /// every blocked or future [`TaskQueue::pop`] returns `None` once the
    /// remaining items are drained.
    pub fn close(&self) {
        let mut state = self.state.lock().expect("task queue poisoned");
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
    }

    /// Items currently queued (racy by nature; for stats and tests).
    pub fn len(&self) -> usize {
        self.state.lock().expect("task queue poisoned").items.len()
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission-control bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for TaskQueue<T> {
    fn drop(&mut self) {
        // Undrained items leave with the queue; keep the shared gauge honest.
        let remaining = self.state.lock().expect("task queue poisoned").items.len();
        if remaining > 0 {
            self.depth.sub(remaining as i64);
        }
    }
}

/// A [`TaskQueue`] split into N shards with per-shard locks, behind one
/// global admission bound — the event-loop daemon's job queue.
///
/// The motivation is contention *shape*, not raw throughput: with one lock,
/// every producer and every worker serialise on the same mutex, so a burst
/// from one hot tenant stalls admission for everyone.  Here items are pushed
/// to the shard chosen by the caller's hash key (the daemon hashes the
/// submitting tenant, so one tenant's storm lands in one shard), and
/// consumers drain shards in rotating order, which approximates round-robin
/// service across shards — a cheap fairness floor on top of the explicit
/// per-tenant admission credits.
///
/// Capacity is **global**: the admission bound spans all shards, so the
/// `Busy` semantics of the single-lock queue are preserved exactly (a
/// `queue_capacity = 1` daemon still rejects the second concurrent job no
/// matter which shard it hashes to).
pub struct ShardedTaskQueue<T> {
    /// Per-shard FIFOs, each behind its own short-held lock.
    shards: Vec<Mutex<VecDeque<T>>>,
    /// Global admission state: queued count + closed flag.  Pushes publish
    /// to a shard *before* raising `len`, so any count a popper reserves is
    /// already visible in some shard.
    sync: Mutex<SharedQueueSync>,
    not_empty: Condvar,
    capacity: usize,
    /// Rotating start shard for consumers — spreads drain order so shard 0
    /// is not structurally favoured.
    next_scan: AtomicUsize,
    /// Shared `parallel_queue_depth` gauge (additive across queues).
    depth: Gauge,
}

struct SharedQueueSync {
    len: usize,
    closed: bool,
}

impl<T> ShardedTaskQueue<T> {
    /// A queue of `shards` shards (minimum 1) admitting at most `capacity`
    /// items at a time across all of them (minimum 1).
    pub fn bounded(capacity: usize, shards: usize) -> Self {
        ShardedTaskQueue {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            sync: Mutex::new(SharedQueueSync {
                len: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            next_scan: AtomicUsize::new(0),
            depth: queue_depth_gauge(),
        }
    }

    /// Number of shards the queue was built with.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a hash key routes to (Fibonacci multiplicative hash, so
    /// sequential keys spread instead of clustering).
    pub fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shards.len()
    }

    /// Enqueues `item` on the shard `key` hashes to unless the queue is full
    /// or closed; never blocks.
    pub fn try_push(&self, key: u64, item: T) -> Result<(), PushError<T>> {
        let shard = self.shard_of(key);
        {
            let sync = self.sync.lock().expect("sharded queue poisoned");
            if sync.closed {
                return Err(PushError::Closed(item));
            }
            if sync.len >= self.capacity {
                return Err(PushError::Full(item));
            }
            // Admission is decided; publish the item under the shard lock,
            // then raise the global count.  Order matters: a popper that
            // decrements `len` must always find a published item.
            self.shards[shard]
                .lock()
                .expect("sharded queue shard poisoned")
                .push_back(item);
            let mut sync = sync;
            sync.len += 1;
        }
        self.depth.add(1);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues one item, blocking while all shards are empty.  Shards are
    /// scanned in rotating order from a moving start, so consumers drain the
    /// shards round-robin instead of always favouring the lowest index.
    /// Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        {
            let mut sync = self.sync.lock().expect("sharded queue poisoned");
            loop {
                if sync.len > 0 {
                    sync.len -= 1;
                    self.depth.sub(1);
                    break;
                }
                if sync.closed {
                    return None;
                }
                sync = self.not_empty.wait(sync).expect("sharded queue poisoned");
            }
        }
        // One item is reserved and guaranteed published; scan until found.
        // Concurrent poppers may race for the same shard, but the reserved
        // counts never exceed the published items, so the scan terminates.
        let start = self.next_scan.fetch_add(1, Ordering::Relaxed);
        loop {
            for offset in 0..self.shards.len() {
                let shard = (start + offset) % self.shards.len();
                let item = self.shards[shard]
                    .lock()
                    .expect("sharded queue shard poisoned")
                    .pop_front();
                if let Some(item) = item {
                    return Some(item);
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`], and
    /// every blocked or future [`ShardedTaskQueue::pop`] returns `None` once
    /// the remaining items are drained.
    pub fn close(&self) {
        self.sync.lock().expect("sharded queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued across all shards (racy by nature; for stats).
    pub fn len(&self) -> usize {
        self.sync.lock().expect("sharded queue poisoned").len
    }

    /// True when nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The global admission bound this queue was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for ShardedTaskQueue<T> {
    fn drop(&mut self) {
        // Undrained items leave with the queue; keep the shared gauge honest.
        let remaining = self.sync.lock().expect("sharded queue poisoned").len;
        if remaining > 0 {
            self.depth.sub(remaining as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_order_and_covers_every_item() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [0, 1, 2, 7] {
            let doubled = parallel_map(&items, threads, |&x| 2 * x);
            assert_eq!(doubled, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn runs_on_multiple_threads_when_asked() {
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        parallel_map(&items, 4, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "work never overlapped");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u8> = parallel_map::<u8, u8, _>(&[], 8, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn split_mut_covers_the_slice_with_correct_offsets() {
        let mut data: Vec<usize> = vec![0; 103];
        let chunks = split_mut(&mut data, 4);
        assert_eq!(chunks.len(), 4);
        let mut expected_offset = 0;
        for (offset, chunk) in &chunks {
            assert_eq!(*offset, expected_offset);
            expected_offset += chunk.len();
        }
        assert_eq!(expected_offset, 103);
        assert!(split_mut(&mut data, 0).len() == 1);
        assert!(split_mut::<u8>(&mut [], 4).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn task_queue_is_fifo_and_bounded() {
        let queue = TaskQueue::bounded(2);
        assert_eq!(queue.capacity(), 2);
        assert!(queue.is_empty());
        queue.try_push(1).unwrap();
        queue.try_push(2).unwrap();
        match queue.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(1));
        queue.try_push(3).unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn closed_queue_drains_then_signals_workers_to_exit() {
        let queue = TaskQueue::bounded(4);
        queue.try_push(10).unwrap();
        queue.close();
        match queue.try_push(11) {
            Err(PushError::Closed(11)) => {}
            other => panic!("expected Closed(11), got {other:?}"),
        }
        assert_eq!(queue.pop(), Some(10), "closing must not drop queued work");
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None, "pop after close stays None");
    }

    #[test]
    fn pop_blocks_until_an_item_or_close_arrives() {
        let queue = TaskQueue::bounded(1);
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while queue.pop().is_some() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            for i in 0..20 {
                // Capacity 1: spin until the workers make room.
                let mut item = i;
                loop {
                    match queue.try_push(item) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            item = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Closed(_)) => unreachable!(),
                    }
                }
            }
            queue.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn sharded_queue_enforces_global_capacity_across_shards() {
        let queue = ShardedTaskQueue::bounded(2, 8);
        assert_eq!(queue.capacity(), 2);
        assert_eq!(queue.shards(), 8);
        // Keys chosen to land in different shards; the *global* bound still
        // rejects the third push.
        let (a, b) = (0u64, 1u64);
        assert_ne!(queue.shard_of(a), queue.shard_of(b));
        queue.try_push(a, 10).unwrap();
        queue.try_push(b, 20).unwrap();
        match queue.try_push(a, 30) {
            Err(PushError::Full(30)) => {}
            other => panic!("expected Full(30), got {other:?}"),
        }
        assert_eq!(queue.len(), 2);
        let mut drained = vec![queue.pop().unwrap(), queue.pop().unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 20]);
        assert!(queue.is_empty());
    }

    #[test]
    fn sharded_queue_is_fifo_within_a_shard() {
        let queue = ShardedTaskQueue::bounded(16, 4);
        for i in 0..8 {
            queue.try_push(7, i).unwrap(); // same key → same shard
        }
        for i in 0..8 {
            assert_eq!(queue.pop(), Some(i), "per-shard order must be FIFO");
        }
    }

    #[test]
    fn sharded_queue_close_drains_then_signals_exit() {
        let queue = ShardedTaskQueue::bounded(4, 2);
        queue.try_push(0, 10).unwrap();
        queue.try_push(1, 11).unwrap();
        queue.close();
        match queue.try_push(2, 12) {
            Err(PushError::Closed(12)) => {}
            other => panic!("expected Closed(12), got {other:?}"),
        }
        let mut drained = vec![queue.pop().unwrap(), queue.pop().unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 11], "closing must not drop queued work");
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None, "pop after close stays None");
    }

    #[test]
    fn sharded_queue_single_shard_degenerates_to_task_queue() {
        let queue = ShardedTaskQueue::bounded(8, 1);
        for (key, item) in [(3u64, 1), (99, 2), (12345, 3)] {
            assert_eq!(queue.shard_of(key), 0);
            queue.try_push(key, item).unwrap();
        }
        // One shard → global FIFO regardless of key.
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn sharded_queue_survives_concurrent_producers_and_consumers() {
        let queue = ShardedTaskQueue::bounded(4, 8);
        let consumed = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        let queue = &queue;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(item) = queue.pop() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                        sum.fetch_add(item, Ordering::SeqCst);
                    }
                });
            }
            let producers: Vec<_> = (0..4u64)
                .map(|producer| {
                    scope.spawn(move || {
                        for i in 0..50usize {
                            let mut item = i;
                            loop {
                                match queue.try_push(producer.wrapping_mul(31) + i as u64, item) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        item = back;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => unreachable!(),
                                }
                            }
                        }
                    })
                })
                .collect();
            for handle in producers {
                handle.join().unwrap();
            }
            // Close only after every producer finished, so the blocked
            // consumers drain the remainder and exit; the scope then joins
            // them without deadlocking.
            queue.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 200);
        assert_eq!(sum.load(Ordering::SeqCst), 4 * (0..50).sum::<usize>());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let queue = TaskQueue::bounded(0);
        assert_eq!(queue.capacity(), 1);
        queue.try_push(1).unwrap();
        assert!(matches!(queue.try_push(2), Err(PushError::Full(2))));
    }

    #[test]
    fn split_mut_at_honours_uneven_cuts_and_skips_empties() {
        let mut data: Vec<usize> = (0..10).collect();
        let chunks = split_mut_at(&mut data, &[0, 3, 3, 4, 10]);
        let shapes: Vec<(usize, usize)> = chunks.iter().map(|(o, c)| (*o, c.len())).collect();
        assert_eq!(shapes, vec![(0, 3), (3, 1), (4, 6)]);
        for (offset, chunk) in &chunks {
            for (i, v) in chunk.iter().enumerate() {
                assert_eq!(*v, offset + i);
            }
        }
        assert!(split_mut_at::<u8>(&mut [], &[0]).is_empty());
        assert!(split_mut_at::<u8>(&mut [], &[]).is_empty());
    }

    #[test]
    fn pool_map_preserves_order_and_matches_serial() {
        let items: Vec<usize> = (0..513).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            assert_eq!(pool.threads(), threads);
            assert_eq!(pool.workers(), threads - 1);
            for _ in 0..3 {
                assert_eq!(pool.parallel_map(&items, |&x| x * x), expected);
            }
        }
    }

    #[test]
    fn pool_actually_runs_work_concurrently() {
        let pool = Pool::new(4);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        pool.parallel_map(&items, |_| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            concurrent.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "work never overlapped");
    }

    #[test]
    fn pool_map_cap_bounds_concurrency() {
        let pool = Pool::new(8);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let out = pool.parallel_map_capped(&items, 2, |&x| {
            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(300));
            concurrent.fetch_sub(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "cap must bound concurrency, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn small_jobs_engage_only_as_many_executors_as_they_have_chunks() {
        // A 2-chunk job on an 8-way pool must run with at most 2 concurrent
        // executors (1 worker + the caller) — dispatch scales with the job,
        // not with the pool.
        let pool = Pool::new(8);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let mut data = vec![0usize; 64];
        for _ in 0..10 {
            pool.run_over_chunks(split_mut(&mut data, 2), |_, chunk| {
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(500));
                concurrent.fetch_sub(1, Ordering::SeqCst);
                for v in chunk.iter_mut() {
                    *v += 1;
                }
            });
        }
        assert!(data.iter().all(|&v| v == 10));
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "2-chunk jobs must engage at most 2 executors, saw {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pool_run_over_chunks_writes_in_place() {
        let pool = Pool::new(3);
        let mut data: Vec<usize> = vec![0; 257];
        for parts in [1, 2, 5] {
            data.fill(0);
            pool.run_over_chunks(split_mut(&mut data, parts), |offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = offset + i;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i));
        }
    }

    #[test]
    fn pool_propagates_panics_and_survives_them() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map(&items, |&x| {
                if x == 17 {
                    panic!("candidate 17 exploded");
                }
                // Results produced before/around the panic are dropped, not
                // leaked (exercised by returning an owned allocation).
                vec![x; 3]
            })
        }));
        let payload = result.expect_err("panic must propagate to the submitter");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("formatted panic");
        assert!(message.contains("exploded") || message == "formatted panic");

        // Drop-after-panic: the pool keeps working and still shuts down
        // cleanly when it goes out of scope at the end of this test.
        let doubled = pool.parallel_map(&items, |&x| 2 * x);
        assert_eq!(doubled, items.iter().map(|x| 2 * x).collect::<Vec<_>>());
    }

    #[test]
    fn pool_handles_concurrent_submissions() {
        // The daemon shape: many OS threads share one execution pool.
        let pool = Pool::new(4);
        let items_per_client: Vec<Vec<usize>> =
            (0..6).map(|c| (c * 100..c * 100 + 97).collect()).collect();
        std::thread::scope(|scope| {
            for items in &items_per_client {
                let pool = &pool;
                scope.spawn(move || {
                    for _ in 0..5 {
                        let out = pool.parallel_map(items, |&x| x + 1);
                        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn nested_submission_to_the_same_pool_runs_inline() {
        let pool = Pool::new(4);
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..16).collect();
        let results = pool.parallel_map(&outer, |&o| {
            // A nested map on the same pool must not deadlock; it degrades
            // to inline execution on this executor thread.
            let nested = pool.parallel_map(&inner, |&i| i * 10);
            nested.iter().sum::<usize>() + o
        });
        let nested_sum: usize = inner.iter().map(|i| i * 10).sum();
        assert_eq!(
            results,
            outer.iter().map(|o| nested_sum + o).collect::<Vec<_>>()
        );
    }

    #[test]
    fn drop_while_idle_joins_cleanly() {
        let pool = Pool::new(3);
        let _ = pool.parallel_map(&[1, 2, 3], |&x| x);
        drop(pool); // Must not hang or panic.
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = Pool::shared() as *const Pool;
        let b = Pool::shared() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::shared().threads() >= 1);
    }

    #[test]
    fn spawn_path_parallel_map_still_propagates_panics() {
        // The rewritten lock-free slots must keep the old contract.
        let items: Vec<usize> = (0..16).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&x| {
                if x == 3 {
                    panic!("boom");
                }
                vec![x]
            })
        }));
        assert!(result.is_err());
    }
}
