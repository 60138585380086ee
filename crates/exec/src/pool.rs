//! The persistent shard pool.
//!
//! A [`ShardPool`] owns a fixed set of worker threads that live as long as
//! the pool. Work is submitted as a *fan-out*: a task count `n` and a
//! `Fn(usize) + Sync` closure; workers (and the calling thread) claim task
//! indices from a shared cursor until all `n` have run. The closure is
//! borrowed, not boxed — publication writes one lifetime-erased fat pointer
//! into the job slot — so a warm dispatch performs **zero heap allocation**,
//! which is what lets the streaming engine's allocation-free round invariant
//! survive parallelization.
//!
//! Determinism: the pool itself guarantees only that each index in `0..n` is
//! executed exactly once per fan-out. Thread-count independence is the
//! *caller's* construction — each task must write only its own shard and
//! draw randomness only from its own [`stream_seed`](crate::stream_seed)
//! -derived stream. Every call site in this workspace follows that pattern
//! and pins it with a determinism test.
//!
//! Scheduling is dynamic (free workers take the next index), which keeps
//! ragged shard runtimes load-balanced without affecting results.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use herqles_telemetry::time::now_ns;

use crate::telemetry::PoolTelemetry;
use crate::tiles::Tiles;

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

/// Lifetime-erased pointer to the fan-out closure of the current job.
///
/// Only dereferenced while the publishing [`ShardPool::run`] /
/// [`ShardPool::overlap`] frame is blocked on completion, which keeps the
/// closure alive.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync + 'static),
    n_tasks: usize,
}

// SAFETY: the pointer is only sent to pool workers and only dereferenced
// under the validity protocol above.
unsafe impl Send for Job {}

/// Shared dispatch state, guarded by one mutex.
struct Slot {
    job: Option<Job>,
    /// Bumped at every publication; lets idle workers distinguish a new job
    /// from the one they already drained.
    generation: u64,
    /// Next unclaimed task index of the current job.
    next: usize,
    /// Tasks published but not yet completed.
    pending: usize,
    /// Whether any task of the current job panicked.
    panicked: bool,
    shutdown: bool,
    /// Optional per-worker instrumentation. Read (one `Arc` clone) at most
    /// once per fan-out per thread, under this same lock; `None` costs one
    /// branch.
    telem: Option<Arc<PoolTelemetry>>,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Workers wait here for a new generation.
    work: Condvar,
    /// The publisher waits here for `pending == 0`.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A persistent, deterministic worker pool for sharded fan-outs.
///
/// `ShardPool::new(t)` provides total parallelism `t`: `t - 1` background
/// workers plus the calling thread, which always participates in fan-outs
/// (so `ShardPool::new(1)` spawns nothing and runs everything inline).
///
/// Fan-outs on one pool are serialized internally; the pool is `Sync` and
/// may be shared, but concurrent fan-outs queue rather than interleave.
/// *Nested* fan-outs on the same pool — publishing from inside a task or a
/// [`ShardPool::overlap`] consume stage — can never make progress and
/// therefore panic immediately rather than deadlock; nesting across
/// *different* pools is fine.
pub struct ShardPool {
    shared: Arc<Shared>,
    /// Serializes publications so one job slot suffices.
    fan_out_guard: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl ShardPool {
    /// Builds a pool with total parallelism `threads` (the caller counts as
    /// one; `threads - 1` background workers are spawned).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                generation: 0,
                next: 0,
                pending: 0,
                panicked: false,
                shutdown: false,
                telem: None,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
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
            fan_out_guard: Mutex::new(()),
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
    /// Propagates a panic if any task panicked (after all tasks finished or
    /// were abandoned, so no worker still borrows `f`).
    pub fn run<F: Fn(usize) + Sync>(&self, n_tasks: usize, f: F) {
        self.overlap(n_tasks, f, || ());
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

    /// The two-stage pipeline primitive: fans `produce` out across the
    /// background workers while the calling thread runs `consume`; the
    /// caller then joins the remaining `produce` tasks and blocks until the
    /// fan-out completes. Returns `consume`'s result.
    ///
    /// The stages must touch disjoint state (e.g. `produce` fills the next
    /// round's buffers while `consume` drains the current round's); under
    /// that contract the result is identical to running `consume` and the
    /// `produce` loop sequentially — which is exactly what a 1-thread pool
    /// does.
    pub fn overlap<T, P, C>(&self, n_produce: usize, produce: P, consume: C) -> T
    where
        P: Fn(usize) + Sync,
        C: FnOnce() -> T,
    {
        if self.workers.is_empty() || n_produce == 0 {
            // Inline degeneration: consume, then the produce loop. Order is
            // unobservable under the disjoint-stages contract. The caller is
            // logical worker 0 for instrumentation purposes.
            let out = consume();
            if n_produce > 0 {
                let telem = self.shared.lock().telem.clone();
                for i in 0..n_produce {
                    match telem.as_deref() {
                        Some(t) => {
                            let begin = now_ns();
                            produce(i);
                            t.note_task(0, i, begin, now_ns().saturating_sub(begin));
                        }
                        None => produce(i),
                    }
                }
            }
            return out;
        }

        let pool_id = Arc::as_ptr(&self.shared) as *const ();
        assert!(
            ACTIVE_POOL.with(Cell::get) != pool_id,
            "nested fan-out on the same ShardPool (from a task or consume stage) would deadlock"
        );
        let _active = ActivePoolGuard::enter(pool_id);
        let guard = self.fan_out_guard.lock().unwrap_or_else(|e| e.into_inner());

        // Publish the job. SAFETY of the lifetime erasure: this frame does
        // not return (and `produce` is not dropped) until `pending == 0` and
        // the slot is cleared below, so no worker can observe a dangling
        // pointer.
        let task_ref: &(dyn Fn(usize) + Sync) = &produce;
        let task: *const (dyn Fn(usize) + Sync + 'static) =
            unsafe { std::mem::transmute(task_ref) };
        let telem = {
            let mut slot = self.shared.lock();
            slot.job = Some(Job {
                task,
                n_tasks: n_produce,
            });
            slot.generation = slot.generation.wrapping_add(1);
            slot.next = 0;
            slot.pending = n_produce;
            slot.panicked = false;
            self.shared.work.notify_all();
            slot.telem.clone()
        };

        // Stage two runs on the calling thread, overlapped with the fan-out.
        // A consume panic must not unwind past the borrow of `produce`, so
        // it is caught and re-raised after the fan-out completes.
        let consumed = catch_unwind(AssertUnwindSafe(consume));

        // Join the fan-out: claim remaining indices, then wait for stragglers.
        loop {
            let i = {
                let mut slot = self.shared.lock();
                if slot.next >= n_produce {
                    break;
                }
                let i = slot.next;
                slot.next += 1;
                i
            };
            let begin = telem.as_deref().map(|_| now_ns());
            let result = catch_unwind(AssertUnwindSafe(|| produce(i)));
            if let (Some(t), Some(begin)) = (telem.as_deref(), begin) {
                t.note_task(0, i, begin, now_ns().saturating_sub(begin));
            }
            let mut slot = self.shared.lock();
            if result.is_err() {
                slot.panicked = true;
            }
            slot.pending -= 1;
            if slot.pending == 0 {
                self.shared.done.notify_all();
            }
        }
        let panicked = {
            let mut slot = self.shared.lock();
            while slot.pending > 0 {
                slot = self
                    .shared
                    .done
                    .wait(slot)
                    .unwrap_or_else(|e| e.into_inner());
            }
            slot.job = None;
            slot.panicked
        };
        drop(guard);

        match consumed {
            Ok(out) => {
                assert!(!panicked, "a ShardPool task panicked");
                out
            }
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.lock();
            slot.shutdown = true;
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
    let mut slot = shared.lock();
    loop {
        if slot.shutdown {
            return;
        }
        let claimable = slot
            .job
            .is_some_and(|job| slot.next < job.n_tasks && slot.pending > 0);
        if !claimable {
            slot = shared.work.wait(slot).unwrap_or_else(|e| e.into_inner());
            continue;
        }
        let job = slot.job.expect("claimable job present");
        let generation = slot.generation;
        // One `Arc` clone per generation, under the lock we already hold —
        // not per task, and no allocation.
        let telem = slot.telem.clone();
        // Drain this generation's tasks. The publisher stays blocked while
        // `pending > 0` (each claimed task keeps `pending` nonzero until its
        // completion is recorded), so the task pointer stays valid for every
        // claim made here.
        while slot.generation == generation && slot.next < job.n_tasks {
            let i = slot.next;
            slot.next += 1;
            drop(slot);
            let begin = telem.as_deref().map(|_| now_ns());
            // SAFETY: pointer validity per the protocol above.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.task)(i) }));
            if let (Some(t), Some(begin)) = (telem.as_deref(), begin) {
                t.note_task(worker, i, begin, now_ns().saturating_sub(begin));
            }
            slot = shared.lock();
            if result.is_err() {
                slot.panicked = true;
            }
            slot.pending -= 1;
            if slot.pending == 0 {
                shared.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = ShardPool::new(4);
        for n in [0usize, 1, 3, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "n={n}: some index ran zero or multiple times"
            );
        }
    }

    #[test]
    fn run_mut_gives_each_task_its_own_shard() {
        for threads in [1, 2, 4, 8] {
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

    #[test]
    fn overlap_runs_consume_and_all_produce_tasks() {
        for threads in [1, 2, 4] {
            let pool = ShardPool::new(threads);
            let mut produced = vec![false; 23];
            let tiles = Tiles::new(&mut produced);
            let consumed = pool.overlap(
                tiles.len(),
                |i| {
                    // SAFETY: one task per index.
                    *unsafe { tiles.item(i) } = true;
                },
                || 41 + 1,
            );
            assert_eq!(consumed, 42);
            assert!(produced.iter().all(|&p| p), "threads={threads}");
        }
    }

    #[test]
    fn overlap_with_zero_produce_tasks_still_consumes() {
        let pool = ShardPool::new(2);
        assert_eq!(pool.overlap(0, |_| unreachable!(), || "ok"), "ok");
    }

    #[test]
    fn task_panic_propagates_after_the_fan_out_completes() {
        let pool = ShardPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the publisher");
        assert_eq!(completed.load(Ordering::Relaxed), 7);
        // The pool must remain usable after a panicked fan-out.
        let ok = AtomicUsize::new(0);
        pool.run(4, |_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn nested_fan_out_panics_instead_of_deadlocking() {
        // From the consume stage of an overlap (publisher thread)…
        let pool = ShardPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.overlap(2, |_| {}, || pool.run(1, |_| {}));
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
        let consumed = pool.overlap(10, |_| std::hint::black_box(()), || 7);
        assert_eq!(consumed, 7);
        // warm_up (3 tasks) + run (20) + overlap (10).
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

        // The 1-thread inline degeneration path records as worker 0 too.
        let inline_pool = ShardPool::new(1);
        let inline_telem = Arc::new(PoolTelemetry::with_span_capacity(1, 64));
        inline_pool.set_telemetry(Some(Arc::clone(&inline_telem)));
        inline_pool.run(4, |_| {});
        assert_eq!(inline_telem.tasks_run(0), 4);
        assert!(inline_telem.spans().snapshot().iter().all(|s| s.track == 0));
    }
}
