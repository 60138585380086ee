//! The persistent shard pool.
//!
//! A [`ShardPool`] owns a fixed set of worker threads that live as long as
//! the pool. Work is submitted as one *staged fan-out*
//! ([`ShardPool::staged`]): `stages × tasks_per_stage` task indices that
//! workers (and the calling thread) claim in ascending order from a shared
//! cursor, while the caller consumes each stage as soon as all of its tasks
//! have completed. The task closure is borrowed, not boxed — publication
//! writes one lifetime-erased fat pointer into the job slot — and the
//! per-stage completion counters are pre-sized, so a warm fan-out performs
//! **zero heap allocation**, which is what lets the streaming engine's
//! allocation-free cycle invariant survive parallelization.
//!
//! Determinism: the pool itself guarantees only that each task index runs
//! exactly once per fan-out and that stage `s` is consumed after all of its
//! tasks. Thread-count independence is the *caller's* construction — each
//! task must write only its own shard and draw randomness only from its own
//! [`stream_seed`](crate::stream_seed)-derived stream. Every call site in
//! this workspace follows that pattern and pins it with a determinism test.
//!
//! Scheduling is dynamic (free threads take the next index), which keeps
//! ragged shard runtimes load-balanced without affecting results.
//!
//! Idle threads **spin, then park**. A worker that finds nothing to claim
//! spins on the pool's generation counter for a bounded time before it
//! parks on a condvar, and the caller spins on the completion counter of
//! the stage it waits for before it parks in turn. A parked thread on a
//! loaded 2-core host can wake too late to help with a fan-out that lasts a
//! few hundred microseconds; a spinning one joins at once. A pool with more
//! threads than the host has cores (read once, in [`ShardPool::new`]) never
//! spins: its spinners would only steal the cores the working threads need,
//! so it parks at once.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use herqles_telemetry::time::now_ns;

use crate::telemetry::PoolTelemetry;
use crate::tiles::Tiles;

/// How long an idle thread spins before it parks. The streaming engine
/// publishes one fan-out per QEC cycle; between two fan-outs the caller
/// runs the cycle's end (last consume step, perfect round, block write,
/// window finish) and the next cycle's prologue. At d = 7 on a 2-vCPU AVX2
/// host that gap measured 27 / 36 / 45 / 68 µs at p10 / p50 / p90 / p99
/// (pool task spans of `perfbench --workload stream_d7_pool2 --trace 1`),
/// and inside a fan-out the caller waits at most one ≈ 20–25 µs group
/// synthesis for a stage to complete. 100 µs covers both with margin, and
/// a pool that has gone quiet burns at most a tenth of a millisecond of
/// one core before it parks.
const SPIN: Duration = Duration::from_micros(100);

/// Spin iterations between two clock reads of a spinning thread.
const SPINS_PER_CLOCK_READ: u32 = 64;

thread_local! {
    /// The pool this thread is currently running a fan-out for — as
    /// publisher or as worker. A nested fan-out on the *same* pool can never
    /// make progress (the job slot is busy and, for a worker, its own task
    /// must finish first), so publication checks this and panics immediately
    /// instead of deadlocking. Fan-outs on a *different* pool nest fine.
    static ACTIVE_POOL: Cell<*const ()> = const { Cell::new(std::ptr::null()) };
}

/// RAII restore of [`ACTIVE_POOL`], unwind-safe.
struct ActivePoolGuard(*const ());

impl ActivePoolGuard {
    fn enter(pool_id: *const ()) -> Self {
        ActivePoolGuard(ACTIVE_POOL.with(|p| p.replace(pool_id)))
    }
}

impl Drop for ActivePoolGuard {
    fn drop(&mut self) {
        ACTIVE_POOL.with(|p| p.set(self.0));
    }
}

/// What the calling thread runs of a [`ShardPool::staged`] fan-out, between
/// its own task claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallerStep {
    /// Runs once, right after publication and before any consume, while
    /// the other threads start on the tasks.
    Prelude,
    /// Stage `s` has completed: every one of its tasks has run.
    Consume(usize),
}

/// Lifetime-erased view of the current job.
///
/// Only dereferenced by a thread holding a claim on one of the job's tasks:
/// an unfinished task keeps its stage's completion counter short, and the
/// publishing [`ShardPool::staged`] frame does not return (nor drop the
/// closure or the counters) until every stage is complete.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize, usize) + Sync + 'static),
    n_tasks: usize,
    tasks_per_stage: usize,
    /// One completion counter per stage.
    done: *const AtomicUsize,
}

// SAFETY: the pointers are only sent to pool workers and only dereferenced
// under the validity protocol above.
unsafe impl Send for Job {}

impl Job {
    /// Runs task `i` as `worker` and counts it complete. A panic is caught
    /// and stored (the task still counts as complete, so the fan-out
    /// drains); the caller re-raises it once every stage has completed.
    fn run(&self, shared: &Shared, i: usize, worker: usize, telem: Option<&PoolTelemetry>) {
        let begin = telem.map(|_| now_ns());
        // SAFETY: this thread holds the claim on task `i` (see `Job`).
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*self.task)(i, worker) }));
        if let (Some(t), Some(begin)) = (telem, begin) {
            t.note_task(worker, i, begin, now_ns().saturating_sub(begin));
        }
        if let Err(payload) = result {
            shared.lock().panic.get_or_insert(payload);
        }
        // SAFETY: as above; the increment is this thread's last touch of
        // the job, after which the publisher may return.
        let done = unsafe { &*self.done.add(i / self.tasks_per_stage) };
        if done.fetch_add(1, Ordering::SeqCst) + 1 == self.tasks_per_stage
            && shared.caller_parked.load(Ordering::SeqCst)
        {
            // Taking the lock orders this notify after the caller's wait
            // began (it holds the lock from raising the flag until it waits).
            let _slot = shared.lock();
            shared.stage_done.notify_all();
        }
    }
}

/// Dispatch state behind the mutex: read by workers once per fan-out.
struct Slot {
    job: Option<Job>,
    /// Workers parked on `work`.
    parked: usize,
    shutdown: bool,
    /// The first panic payload of the current fan-out's tasks.
    panic: Option<Box<dyn Any + Send>>,
    /// Optional per-worker instrumentation. Read (one `Arc` clone) at most
    /// once per fan-out per thread, under this same lock; `None` costs one
    /// branch.
    telem: Option<Arc<PoolTelemetry>>,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Bumped at every publication (and at shutdown), under the lock;
    /// idle workers spin on it, then park on `work`.
    generation: AtomicU64,
    /// Claim cursor: the low 32 bits of the current generation in the high
    /// word, the next unclaimed task index in the low word. Claims are a
    /// compare-exchange that fails on a stale generation, so a worker that
    /// wakes after its fan-out ended can never claim a task of the next.
    cursor: AtomicU64,
    /// Whether the caller is parked on `stage_done`.
    caller_parked: AtomicBool,
    /// Whether idle threads spin before parking.
    spin: bool,
    /// Workers wait here for a new generation.
    work: Condvar,
    /// The caller waits here for the stage it needs.
    stage_done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Claims the next task index of generation `generation`, if any is left.
    fn claim(&self, generation: u64, n_tasks: usize) -> Option<usize> {
        let tag = generation as u32;
        let mut cur = self.cursor.load(Ordering::Acquire);
        loop {
            let next = cur as u32 as usize;
            if (cur >> 32) as u32 != tag || next >= n_tasks {
                return None;
            }
            match self.cursor.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(next),
                Err(now) => cur = now,
            }
        }
    }

    /// Spins until `ready` holds or the spin bound expires (at once when
    /// this pool does not spin). Returns whether `ready` held.
    fn spin_until(&self, ready: impl Fn() -> bool) -> bool {
        if !self.spin {
            return ready();
        }
        let deadline = Instant::now() + SPIN;
        loop {
            for _ in 0..SPINS_PER_CLOCK_READ {
                if ready() {
                    return true;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= deadline {
                return ready();
            }
        }
    }

    /// Blocks the caller until stage counter `done` reaches `target`.
    fn wait_stage(&self, done: &AtomicUsize, target: usize) {
        if self.spin_until(|| done.load(Ordering::Acquire) >= target) {
            return;
        }
        let mut slot = self.lock();
        self.caller_parked.store(true, Ordering::SeqCst);
        while done.load(Ordering::SeqCst) < target {
            slot = self
                .stage_done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        self.caller_parked.store(false, Ordering::SeqCst);
    }
}

/// A persistent, deterministic worker pool for sharded fan-outs.
///
/// `ShardPool::new(t)` provides total parallelism `t`: `t - 1` background
/// workers plus the calling thread, which always participates in fan-outs
/// (so `ShardPool::new(1)` spawns nothing and runs everything inline).
///
/// Every entry point is one [`ShardPool::staged`] fan-out: [`ShardPool::run`]
/// and [`ShardPool::run_mut`] are the case with one stage and nothing to
/// consume. Idle threads spin briefly, then park (see the module docs); a
/// pool with more threads than the host has cores parks at once.
///
/// Fan-outs on one pool are serialized internally; the pool is `Sync` and
/// may be shared, but concurrent fan-outs queue rather than interleave.
/// *Nested* fan-outs on the same pool — publishing from inside a task, a
/// prelude or a consume step — can never make progress and therefore panic
/// immediately rather than deadlock; nesting across *different* pools is
/// fine.
pub struct ShardPool {
    shared: Arc<Shared>,
    /// Serializes publications so one job slot suffices, and owns the
    /// per-stage completion counters (grow-only, so warm fan-outs do not
    /// allocate).
    fan_out_guard: Mutex<Vec<AtomicUsize>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.threads())
            .field("spins", &self.shared.spin)
            .finish()
    }
}

impl ShardPool {
    /// Builds a pool with total parallelism `threads` (the caller counts as
    /// one; `threads - 1` background workers are spawned). Its idle threads
    /// spin before parking only if `threads` does not exceed
    /// [`std::thread::available_parallelism`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one thread");
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                parked: 0,
                shutdown: false,
                panic: None,
                telem: None,
            }),
            generation: AtomicU64::new(0),
            cursor: AtomicU64::new(0),
            caller_parked: AtomicBool::new(false),
            spin: threads <= cores,
            work: Condvar::new(),
            stage_done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("herqles-shard-{k}"))
                    .spawn(move || worker_loop(&shared, k))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ShardPool {
            shared,
            fan_out_guard: Mutex::new(Vec::new()),
            workers,
        }
    }

    /// Total parallelism: background workers plus the calling thread.
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Attaches (or, with `None`, detaches) per-worker instrumentation:
    /// every subsequently executed task records a span + busy-ns into
    /// `telem`. Zero-cost when unset beyond one branch per task. Takes
    /// effect from the next fan-out.
    ///
    /// # Panics
    ///
    /// Panics if `telem` was sized for a different worker count than
    /// [`ShardPool::threads`].
    pub fn set_telemetry(&self, telem: Option<Arc<PoolTelemetry>>) {
        if let Some(t) = &telem {
            assert_eq!(
                t.workers(),
                self.threads(),
                "PoolTelemetry sized for {} workers, pool has {} threads",
                t.workers(),
                self.threads()
            );
        }
        self.shared.lock().telem = telem;
    }

    /// The currently attached instrumentation, if any.
    pub fn telemetry(&self) -> Option<Arc<PoolTelemetry>> {
        self.shared.lock().telem.clone()
    }

    /// Forces every thread of the pool through one full task execution
    /// (publication, claim, run, completion) before returning.
    ///
    /// Dynamic scheduling means an idle worker may otherwise claim its first
    /// task arbitrarily late and pay its one-time lazy runtime
    /// initialization (TLS, unwind bookkeeping) in the middle of a
    /// latency-critical — or allocation-probed — region. One fan-out of
    /// exactly `threads()` barrier-synchronized tasks guarantees each thread
    /// claims exactly one task (no thread can take a second before all have
    /// arrived), making the warm-up deterministic rather than scheduling-
    /// dependent.
    pub fn warm_up(&self) {
        let barrier = std::sync::Barrier::new(self.threads());
        self.run(self.threads(), |_| {
            barrier.wait();
        });
    }

    /// Runs `f(i)` for every `i in 0..n_tasks` across the pool, returning
    /// when all tasks have completed. The calling thread participates.
    ///
    /// Each index is executed exactly once; scheduling is dynamic, so `f`
    /// must not depend on execution order (write only shard `i`'s output,
    /// derive randomness from `i`).
    ///
    /// Warm calls perform no heap allocation.
    ///
    /// # Panics
    ///
    /// Re-raises a task's panic after all tasks have finished, so no worker
    /// still borrows `f`.
    pub fn run<F: Fn(usize) + Sync>(&self, n_tasks: usize, f: F) {
        self.staged(1, n_tasks, |i, _| f(i), |_| ());
    }

    /// Runs `f(i, &mut shards[i])` for every shard across the pool.
    ///
    /// The `&mut` accesses are disjoint by construction (task `i` touches
    /// shard `i` only), which is what makes lock-free parallel mutation
    /// sound here.
    pub fn run_mut<S: Send, F: Fn(usize, &mut S) + Sync>(&self, shards: &mut [S], f: F) {
        let tiles = Tiles::new(shards);
        self.run(tiles.len(), |i| {
            // SAFETY: the dispatch loop hands index `i` to exactly one task,
            // so this is the only live borrow of shard `i`.
            f(i, unsafe { tiles.item(i) });
        });
    }

    /// The staged fan-out, the pool's one dispatch primitive.
    ///
    /// Publishes `stages × tasks_per_stage` tasks; task `i` belongs to stage
    /// `i / tasks_per_stage`, and every thread claims tasks in ascending
    /// index order. `produce(i, worker)` runs task `i` on the thread with
    /// index `worker` — `0` for the caller, `1..threads()` for the
    /// background workers — and no two tasks running at the same time share
    /// a worker index, so `worker` may select per-thread scratch.
    ///
    /// On the calling thread `caller` runs [`CallerStep::Prelude`] once,
    /// right after publication; then, for each stage `s` in ascending
    /// order, the caller claims and runs tasks until all of stage `s`'s
    /// tasks have completed and calls `caller(CallerStep::Consume(s))`.
    /// Later stages' tasks keep running on the other threads meanwhile, so
    /// `produce` must touch only state that no consume step touches (e.g.
    /// the rows of later stages). Under that contract the result is the
    /// same as running prelude, then each stage's tasks followed by its
    /// consume step, in order — which is exactly what a 1-thread pool does.
    ///
    /// Warm calls with no more stages than an earlier call perform no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// A panic in a task, the prelude or a consume step is caught; once one
    /// has happened no further consume step runs, the remaining tasks still
    /// run, and the first caller-side panic (else the first task panic) is
    /// re-raised after every task has finished. The pool stays usable.
    pub fn staged<P, C>(&self, stages: usize, tasks_per_stage: usize, produce: P, mut caller: C)
    where
        P: Fn(usize, usize) + Sync,
        C: FnMut(CallerStep),
    {
        let n_tasks = stages
            .checked_mul(tasks_per_stage)
            .expect("task count overflows usize");
        let mut failure: Option<Box<dyn Any + Send>> = None;
        let mut step = |s: CallerStep, healthy: bool| {
            if failure.is_none() && healthy {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| caller(s))) {
                    failure = Some(payload);
                }
            }
        };

        if self.workers.is_empty() || n_tasks == 0 {
            // Inline: the prelude, then each stage's tasks and its consume
            // step. The caller is worker 0 for instrumentation purposes.
            let telem = (n_tasks > 0)
                .then(|| self.shared.lock().telem.clone())
                .flatten();
            let mut task_panic = None;
            step(CallerStep::Prelude, true);
            for s in 0..stages {
                for i in s * tasks_per_stage..(s + 1) * tasks_per_stage {
                    let begin = telem.as_deref().map(|_| now_ns());
                    let result = catch_unwind(AssertUnwindSafe(|| produce(i, 0)));
                    if let (Some(t), Some(begin)) = (telem.as_deref(), begin) {
                        t.note_task(0, i, begin, now_ns().saturating_sub(begin));
                    }
                    if let Err(payload) = result {
                        task_panic.get_or_insert(payload);
                    }
                }
                step(CallerStep::Consume(s), task_panic.is_none());
            }
            if let Some(payload) = failure.or(task_panic) {
                resume_unwind(payload);
            }
            return;
        }

        assert!(
            u32::try_from(n_tasks).is_ok(),
            "a fan-out holds at most u32::MAX tasks"
        );
        let shared = &*self.shared;
        let pool_id = Arc::as_ptr(&self.shared) as *const ();
        assert!(
            ACTIVE_POOL.with(Cell::get) != pool_id,
            "nested fan-out on the same ShardPool (from a task or caller step) would deadlock"
        );
        let _active = ActivePoolGuard::enter(pool_id);
        let mut done = self.fan_out_guard.lock().unwrap_or_else(|e| e.into_inner());
        if done.len() < stages {
            done.resize_with(stages, || AtomicUsize::new(0));
        }
        for d in &done[..stages] {
            d.store(0, Ordering::Relaxed);
        }

        // Publish the job. SAFETY of the lifetime erasure: this frame does
        // not return (and neither `produce` nor the counters are dropped or
        // moved) until every stage is complete, and only a thread holding a
        // claim on an unfinished task dereferences the job.
        let task_ref: &(dyn Fn(usize, usize) + Sync) = &produce;
        let task: *const (dyn Fn(usize, usize) + Sync + 'static) =
            unsafe { std::mem::transmute(task_ref) };
        let job = Job {
            task,
            n_tasks,
            tasks_per_stage,
            done: done.as_ptr(),
        };
        let (generation, telem) = {
            let mut slot = shared.lock();
            let generation = shared.generation.load(Ordering::Relaxed).wrapping_add(1);
            slot.job = Some(job);
            slot.panic = None;
            shared
                .cursor
                .store((generation as u32 as u64) << 32, Ordering::Release);
            shared.generation.store(generation, Ordering::Release);
            if slot.parked > 0 {
                shared.work.notify_all();
            }
            (generation, slot.telem.clone())
        };

        step(CallerStep::Prelude, true);
        for (s, stage_done) in done[..stages].iter().enumerate() {
            while stage_done.load(Ordering::Acquire) < tasks_per_stage {
                match shared.claim(generation, n_tasks) {
                    Some(i) => job.run(shared, i, 0, telem.as_deref()),
                    None => shared.wait_stage(stage_done, tasks_per_stage),
                }
            }
            // A task stores its panic before counting itself complete.
            let healthy = shared.lock().panic.is_none();
            step(CallerStep::Consume(s), healthy);
        }
        // Every stage is complete: no thread holds a claim any more.
        let task_panic = shared.lock().panic.take();
        drop(done);
        if let Some(payload) = failure.or(task_panic) {
            resume_unwind(payload);
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.lock();
            slot.shutdown = true;
            let generation = self.shared.generation.load(Ordering::Relaxed);
            self.shared
                .generation
                .store(generation.wrapping_add(1), Ordering::Release);
            self.shared.work.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    // Workers belong to exactly one pool for their whole life: mark it once
    // so a task that tries to publish a nested fan-out on this same pool
    // panics (propagated to the publisher) instead of deadlocking.
    ACTIVE_POOL.with(|p| p.set(shared as *const Shared as *const ()));
    let mut seen = 0u64;
    loop {
        // Wait for a generation this worker has not joined: spin, then park.
        shared.spin_until(|| shared.generation.load(Ordering::Acquire) != seen);
        let (job, generation, telem) = {
            let mut slot = shared.lock();
            slot.parked += 1;
            while shared.generation.load(Ordering::Relaxed) == seen && !slot.shutdown {
                slot = shared.work.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
            slot.parked -= 1;
            if slot.shutdown {
                return;
            }
            // One `Arc` clone per fan-out, under the lock we already hold —
            // not per task, and no allocation.
            (
                slot.job,
                shared.generation.load(Ordering::Relaxed),
                slot.telem.clone(),
            )
        };
        seen = generation;
        let Some(job) = job else { continue };
        // Claims fail once the cursor has moved to a later generation, so
        // every claim made here is on an unfinished task of this job.
        while let Some(i) = shared.claim(generation, job.n_tasks) {
            job.run(shared, i, worker, telem.as_deref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

    #[test]
    fn every_index_runs_exactly_once() {
        for threads in THREAD_COUNTS {
            let pool = ShardPool::new(threads);
            for n in [0usize, 1, 3, 64, 1000] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.run(n, |i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}: some index ran zero or multiple times"
                );
            }
        }
    }

    #[test]
    fn run_mut_gives_each_task_its_own_shard() {
        for threads in THREAD_COUNTS {
            let pool = ShardPool::new(threads);
            let mut shards = vec![0usize; 37];
            pool.run_mut(&mut shards, |i, s| *s = i * i);
            let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(shards, expect, "threads={threads}");
        }
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let reference: Vec<u64> = (0..100).map(|i| crate::stream_seed(5, i)).collect();
        for threads in [1, 2, 3, 7] {
            let pool = ShardPool::new(threads);
            let mut out = vec![0u64; 100];
            pool.run_mut(&mut out, |i, v| *v = crate::stream_seed(5, i as u64));
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn pool_is_reusable_across_many_fan_outs() {
        let pool = ShardPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(17, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 17);
    }

    /// Checks every ordering guarantee of one staged fan-out.
    fn check_staged(pool: &ShardPool, stages: usize, per_stage: usize) {
        let threads = pool.threads();
        let n = stages * per_stage;
        let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let completed: Vec<AtomicUsize> = (0..stages).map(|_| AtomicUsize::new(0)).collect();
        let in_use: Vec<AtomicBool> = (0..threads).map(|_| AtomicBool::new(false)).collect();
        let shared_worker = AtomicBool::new(false);
        let mut log = Vec::new();
        pool.staged(
            stages,
            per_stage,
            |i, w| {
                assert!(w < threads, "worker index {w} out of range");
                if in_use[w].swap(true, Ordering::SeqCst) {
                    shared_worker.store(true, Ordering::SeqCst);
                }
                // Long enough for the other threads to claim concurrently.
                std::thread::sleep(Duration::from_micros(50));
                ran[i].fetch_add(1, Ordering::SeqCst);
                in_use[w].store(false, Ordering::SeqCst);
                completed[i / per_stage].fetch_add(1, Ordering::SeqCst);
            },
            |step| {
                if let CallerStep::Consume(s) = step {
                    assert_eq!(
                        completed[s].load(Ordering::SeqCst),
                        per_stage,
                        "threads={threads}: stage {s} consumed before its tasks completed"
                    );
                }
                log.push(step);
            },
        );
        assert!(
            ran.iter().all(|r| r.load(Ordering::SeqCst) == 1),
            "threads={threads}: some task ran zero or multiple times"
        );
        assert!(
            !shared_worker.load(Ordering::SeqCst),
            "threads={threads}: two concurrent tasks shared a worker index"
        );
        let expect: Vec<CallerStep> = std::iter::once(CallerStep::Prelude)
            .chain((0..stages).map(CallerStep::Consume))
            .collect();
        assert_eq!(
            log, expect,
            "threads={threads}: prelude once, then stages in order"
        );
    }

    #[test]
    fn staged_fan_out_runs_each_task_once_and_consumes_stages_in_order() {
        for threads in THREAD_COUNTS {
            let pool = ShardPool::new(threads);
            for (stages, per_stage) in [(1, 1), (7, 5), (3, 16)] {
                check_staged(&pool, stages, per_stage);
            }
        }
    }

    #[test]
    fn staged_fan_out_with_no_tasks_still_runs_every_caller_step() {
        for threads in THREAD_COUNTS {
            let pool = ShardPool::new(threads);
            check_staged(&pool, 4, 0);
            check_staged(&pool, 0, 3);
        }
    }

    #[test]
    fn staged_fan_outs_with_fewer_stages_reuse_the_counters() {
        let pool = ShardPool::new(2);
        check_staged(&pool, 9, 2);
        check_staged(&pool, 2, 9);
        check_staged(&pool, 9, 2);
    }

    #[test]
    fn task_panic_propagates_after_the_fan_out_completes() {
        for threads in THREAD_COUNTS {
            let pool = ShardPool::new(threads);
            let completed = AtomicUsize::new(0);
            let mut consumed = Vec::new();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.staged(
                    4,
                    3,
                    |i, _| {
                        if i == 4 {
                            panic!("boom");
                        }
                        completed.fetch_add(1, Ordering::SeqCst);
                    },
                    |step| consumed.push(step),
                );
            }));
            let payload = result.expect_err("a task panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            assert_eq!(
                completed.load(Ordering::SeqCst),
                11,
                "threads={threads}: every other task still runs"
            );
            // Stage 1 holds the panicking task: it and later stages are not
            // consumed.
            assert!(!consumed.contains(&CallerStep::Consume(1)));
            assert!(!consumed.contains(&CallerStep::Consume(3)));
            // The pool remains usable after a panicked fan-out.
            check_staged(&pool, 3, 4);
        }
    }

    #[test]
    fn consume_panic_propagates_after_the_fan_out_drains() {
        for threads in THREAD_COUNTS {
            let pool = ShardPool::new(threads);
            let completed = AtomicUsize::new(0);
            let mut consumed = Vec::new();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.staged(
                    4,
                    3,
                    |_, _| {
                        completed.fetch_add(1, Ordering::SeqCst);
                    },
                    |step| {
                        consumed.push(step);
                        if step == CallerStep::Consume(1) {
                            panic!("consume boom");
                        }
                    },
                );
            }));
            let payload = result.expect_err("a consume panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"consume boom"));
            assert_eq!(
                completed.load(Ordering::SeqCst),
                12,
                "threads={threads}: the fan-out drains before the panic is re-raised"
            );
            assert_eq!(
                consumed,
                [
                    CallerStep::Prelude,
                    CallerStep::Consume(0),
                    CallerStep::Consume(1)
                ]
            );
            check_staged(&pool, 2, 5);
        }
    }

    #[test]
    fn nested_fan_out_panics_instead_of_deadlocking() {
        // From a caller step (publisher thread)…
        let pool = ShardPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.staged(1, 2, |_, _| {}, |_| pool.run(1, |_| {}));
        }));
        assert!(result.is_err(), "nested publish must panic, not hang");
        // …and from inside a task (worker or participating caller).
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, |_| pool.run(1, |_| {}));
        }));
        assert!(result.is_err(), "nested task publish must panic, not hang");
        // The pool survives both.
        let hits = AtomicUsize::new(0);
        pool.run(3, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fan_outs_nest_across_different_pools() {
        let outer = ShardPool::new(2);
        let inner = ShardPool::new(2);
        let hits = AtomicUsize::new(0);
        outer.run(4, |_| {
            inner.run(2, |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ShardPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        pool.run(5, |_| assert_eq!(std::thread::current().id(), caller));
    }

    #[test]
    fn only_pools_within_the_core_count_spin() {
        let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        for threads in [1, cores, cores + 1] {
            let pool = ShardPool::new(threads);
            assert_eq!(pool.shared.spin, threads <= cores, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = ShardPool::new(0);
    }

    #[test]
    fn telemetry_records_every_task_with_worker_tracks() {
        let pool = ShardPool::new(3);
        let telem = Arc::new(PoolTelemetry::with_span_capacity(3, 256));
        pool.set_telemetry(Some(Arc::clone(&telem)));
        pool.warm_up();
        pool.run(20, |_| std::hint::black_box(()));
        pool.staged(2, 5, |_, _| std::hint::black_box(()), |_| ());
        // warm_up (3 tasks) + run (20) + staged (10).
        assert_eq!(telem.total_tasks(), 33);
        let spans = telem.spans().snapshot();
        assert_eq!(spans.len(), 33);
        assert!(spans
            .iter()
            .all(|s| s.kind == herqles_telemetry::SpanKind::Task && (s.track as usize) < 3));
        // warm_up's barrier guarantees every worker ran at least one task.
        for w in 0..3 {
            assert!(telem.tasks_run(w) >= 1, "worker {w} never ran a task");
            assert!(telem.busy_ns(w) > 0 || telem.tasks_run(w) == 0);
        }
        // Detaching stops recording; the pool still works.
        pool.set_telemetry(None);
        pool.run(5, |_| {});
        assert_eq!(telem.total_tasks(), 33);

        // The 1-thread inline path records as worker 0 too.
        let inline_pool = ShardPool::new(1);
        let inline_telem = Arc::new(PoolTelemetry::with_span_capacity(1, 64));
        inline_pool.set_telemetry(Some(Arc::clone(&inline_telem)));
        inline_pool.run(4, |_| {});
        assert_eq!(inline_telem.tasks_run(0), 4);
        assert!(inline_telem.spans().snapshot().iter().all(|s| s.track == 0));
    }
}
