//! Per-worker pool instrumentation: task spans and busy-time counters.
//!
//! A [`PoolTelemetry`] attached to a [`ShardPool`](crate::ShardPool) via
//! [`ShardPool::set_telemetry`](crate::ShardPool::set_telemetry) records one
//! [`SpanKind::Task`] span per executed fan-out task — begin timestamp,
//! duration, the *worker index* as the span track, the task index as the
//! payload — plus per-worker busy-ns and task counters. That is exactly
//! what a flight-recorder export needs to show a staged fan-out's
//! synthesis/decode concurrency: which worker ran which shard, when, for
//! how long, laid out on one track per worker.
//!
//! Cost model: when no telemetry is attached the pool's dispatch path pays
//! one `Option` check per fan-out. When attached, each task pays two
//! monotonic-clock reads, one lock-free span record and two relaxed
//! `fetch_add`s — no locks, no allocation — so the streaming engine's
//! zero-alloc warm-cycle invariant survives with instrumentation on.
//!
//! Worker indexing: the calling thread is logical worker `0` (it always
//! participates in fan-outs); background workers are `1..threads`.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use herqles_telemetry::span::{SpanKind, SpanRing};
use herqles_telemetry::time::now_ns;

/// Default span-ring capacity: enough for several hundred fan-outs of a
/// typical shard count before wrapping.
pub const POOL_SPAN_CAPACITY: usize = 8192;

/// Per-worker instrumentation shared between a pool's threads and the
/// observer draining it. See the module docs.
#[derive(Debug)]
pub struct PoolTelemetry {
    spans: SpanRing,
    busy_ns: Vec<AtomicU64>,
    tasks: Vec<AtomicU64>,
    /// [`now_ns`] at construction, the baseline for idle accounting.
    created_ns: u64,
}

impl PoolTelemetry {
    /// Telemetry for a pool of total parallelism `threads` (caller + background
    /// workers) with the default span capacity.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_span_capacity(threads, POOL_SPAN_CAPACITY)
    }

    /// Telemetry with an explicit span-ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `span_capacity` is zero.
    #[must_use]
    pub fn with_span_capacity(threads: usize, span_capacity: usize) -> Self {
        assert!(threads > 0, "pool telemetry needs at least one worker");
        PoolTelemetry {
            spans: SpanRing::new(span_capacity),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            tasks: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            created_ns: now_ns(),
        }
    }

    /// Workers this telemetry covers (caller included).
    pub fn workers(&self) -> usize {
        self.busy_ns.len()
    }

    /// Records one executed task. Called by the pool's dispatch paths;
    /// lock- and allocation-free.
    #[inline]
    pub(crate) fn note_task(&self, worker: usize, task_index: usize, begin_ns: u64, dur_ns: u64) {
        self.spans.record(
            SpanKind::Task,
            worker as u32,
            begin_ns,
            dur_ns,
            task_index as u64,
        );
        self.busy_ns[worker].fetch_add(dur_ns, Relaxed);
        self.tasks[worker].fetch_add(1, Relaxed);
    }

    /// The task-span ring (track = worker index, `arg` = task index).
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Nanoseconds worker `w` spent inside tasks since construction.
    pub fn busy_ns(&self, w: usize) -> u64 {
        self.busy_ns[w].load(Relaxed)
    }

    /// Nanoseconds worker `w` spent *outside* tasks since this telemetry
    /// was constructed (wall time minus busy time, saturating).
    pub fn idle_ns(&self, w: usize) -> u64 {
        now_ns()
            .saturating_sub(self.created_ns)
            .saturating_sub(self.busy_ns(w))
    }

    /// Tasks worker `w` has executed since construction.
    pub fn tasks_run(&self, w: usize) -> u64 {
        self.tasks[w].load(Relaxed)
    }

    /// Total tasks executed across all workers.
    pub fn total_tasks(&self) -> u64 {
        self.tasks.iter().map(|t| t.load(Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_task_accumulates_per_worker() {
        let t = PoolTelemetry::with_span_capacity(3, 16);
        t.note_task(0, 5, 100, 40);
        t.note_task(2, 6, 100, 60);
        t.note_task(2, 7, 160, 10);
        assert_eq!(t.workers(), 3);
        assert_eq!(t.busy_ns(0), 40);
        assert_eq!(t.busy_ns(1), 0);
        assert_eq!(t.busy_ns(2), 70);
        assert_eq!(t.tasks_run(2), 2);
        assert_eq!(t.total_tasks(), 3);
        let spans = t.spans().snapshot();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.kind == SpanKind::Task));
        assert_eq!(spans[1].track, 2);
        assert_eq!(spans[1].arg, 6);
        assert!(t.idle_ns(1) >= t.idle_ns(2).saturating_sub(1_000_000_000));
    }
}
