//! The flight recorder's one ring: spans and point events, each with a
//! begin timestamp, a duration and a track id.
//!
//! A span carries its begin timestamp, its duration, and a track id (engine
//! stage lane, pool worker id, …) so a flight-recorder export can lay
//! concurrent work out on parallel tracks. A *point* event (health
//! transition, hot-swap, alert fire/clear, …) is the same record with a
//! point [`SpanKind`] and `dur_ns = 0`, timestamped by the caller with
//! [`now_ns`](crate::time::now_ns). [`SpanRing`] keeps the last *capacity*
//! records under a torn-write-safe stamp protocol — recording is one
//! atomic sequence claim plus five relaxed stores, no locks, no allocation
//! — so the streaming engine and the shard pool can stamp every stage and
//! every fan-out task from the zero-alloc hot path.

use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

/// What a [`SpanEvent`] covers. Discriminants are stable (stored as the low
/// half of a packed `u64` inside the ring). Kinds 0–6 are spans; from
/// [`SpanKind::HealthTransition`] on they are point events (see
/// [`SpanKind::is_point`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    /// Readout-trace synthesis for one round (on a pooled engine, the time
    /// the cycle's consume step waited for the round's rows); `arg` = round
    /// index within the cycle.
    Synth = 0,
    /// Shot discrimination for one round; `arg` = round index.
    Discriminate = 1,
    /// Syndrome extraction/commit work; `arg` = round index (or cycle index
    /// for the block write-out span).
    Syndrome = 2,
    /// Decode work; `arg` = cycle index of the decoded block (round index
    /// for a sliding-window step).
    Decode = 3,
    /// One whole streaming cycle; `arg` = cycle index.
    Cycle = 4,
    /// One pool fan-out task on a worker; `arg` = task index.
    Task = 5,
    /// Free-form user span; `arg` is caller-defined.
    Custom = 6,
    /// Point: the health monitor adopted a new status; `arg` = new status
    /// (0 nominal, 1 degraded, 2 critical).
    HealthTransition = 7,
    /// Point: a recalibrated discriminator was atomically published; `arg`
    /// = lifetime hot-swap count after the swap.
    HotSwap = 8,
    /// Point: a block decode overran its real-time budget; `arg` = cycle
    /// index.
    DegradedDecode = 9,
    /// Point: an adaptive discriminator retrained successfully; `arg` =
    /// cycle index.
    RecalTrained = 10,
    /// Point: an adaptive discriminator declined to retrain (e.g.
    /// single-class harvest); `arg` = cycle index.
    RecalDeclined = 11,
    /// Point: an alert rule transitioned to firing; `arg` = rule index in
    /// its [`AlertEngine`](crate::alert::AlertEngine).
    AlertFiring = 12,
    /// Point: a firing alert rule cleared; `arg` = rule index.
    AlertCleared = 13,
}

impl SpanKind {
    /// Decodes a stored discriminant; `None` for unknown values.
    pub fn from_u64(v: u64) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::Synth,
            1 => SpanKind::Discriminate,
            2 => SpanKind::Syndrome,
            3 => SpanKind::Decode,
            4 => SpanKind::Cycle,
            5 => SpanKind::Task,
            6 => SpanKind::Custom,
            7 => SpanKind::HealthTransition,
            8 => SpanKind::HotSwap,
            9 => SpanKind::DegradedDecode,
            10 => SpanKind::RecalTrained,
            11 => SpanKind::RecalDeclined,
            12 => SpanKind::AlertFiring,
            13 => SpanKind::AlertCleared,
            _ => return None,
        })
    }

    /// Whether this kind marks an instant rather than an interval. Point
    /// records are written with `dur_ns = 0`; exporters decide by kind,
    /// never by duration, because a fast stage can time at 0 ns.
    pub fn is_point(self) -> bool {
        self as u8 >= SpanKind::HealthTransition as u8
    }

    /// Stable label for exporters and logs.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Synth => "synth",
            SpanKind::Discriminate => "discriminate",
            SpanKind::Syndrome => "syndrome",
            SpanKind::Decode => "decode",
            SpanKind::Cycle => "cycle",
            SpanKind::Task => "task",
            SpanKind::Custom => "custom",
            SpanKind::HealthTransition => "health_transition",
            SpanKind::HotSwap => "hot_swap",
            SpanKind::DegradedDecode => "degraded_decode",
            SpanKind::RecalTrained => "recal_trained",
            SpanKind::RecalDeclined => "recal_declined",
            SpanKind::AlertFiring => "alert_firing",
            SpanKind::AlertCleared => "alert_cleared",
        }
    }
}

/// One drained span record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Global sequence number (monotonic per ring, starts at 0).
    pub seq: u64,
    /// Track the span belongs to (stage lane, worker id, …). Exporters map
    /// tracks to display threads.
    pub track: u32,
    /// Span type.
    pub kind: SpanKind,
    /// Begin timestamp: monotonic ns since the process
    /// [`epoch`](crate::time::epoch).
    pub ts_ns: u64,
    /// Span duration in ns (0 for a point kind).
    pub dur_ns: u64,
    /// Span payload (see the [`SpanKind`] variants).
    pub arg: u64,
}

impl SpanEvent {
    /// End timestamp (`ts_ns + dur_ns`, saturating).
    pub fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }
}

/// A slot's publication stamp while a writer is mid-store.
const IN_PROGRESS: u64 = u64::MAX;

struct Slot {
    /// `seq` of the published span, or [`IN_PROGRESS`].
    stamp: AtomicU64,
    ts_ns: AtomicU64,
    dur_ns: AtomicU64,
    /// `kind as u64 | (track as u64) << 32`.
    meta: AtomicU64,
    arg: AtomicU64,
}

/// Lock-free ring of the last `capacity` [`SpanEvent`]s. A writer claims a
/// sequence with one `fetch_add`, marks the slot `IN_PROGRESS`, stores
/// the fields relaxed, then publishes the sequence as the stamp; the drain
/// double-checks the stamp around its field reads and skips torn slots.
pub struct SpanRing {
    head: AtomicU64,
    mask: u64,
    slots: Vec<Slot>,
}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl SpanRing {
    /// A ring holding the last `capacity` spans (rounded up to a power of
    /// two, minimum 2). The one allocation this type ever performs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span ring needs at least one slot");
        let cap = capacity.next_power_of_two().max(2);
        SpanRing {
            head: AtomicU64::new(0),
            mask: cap as u64 - 1,
            slots: (0..cap)
                .map(|_| Slot {
                    stamp: AtomicU64::new(IN_PROGRESS),
                    ts_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans recorded over the ring's lifetime (not just those still
    /// resident).
    pub fn recorded(&self) -> u64 {
        self.head.load(Relaxed)
    }

    /// Spans lost to ring overwrite: everything recorded beyond what the
    /// ring can keep resident. Zero until the ring wraps.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Records one span. Lock- and allocation-free; safe from any thread.
    /// The oldest resident span is overwritten once the ring is full.
    /// `ts_ns` is the span's begin timestamp on the
    /// [`now_ns`](crate::time::now_ns) timeline.
    #[inline]
    pub fn record(&self, kind: SpanKind, track: u32, ts_ns: u64, dur_ns: u64, arg: u64) {
        let seq = self.head.fetch_add(1, Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.stamp.store(IN_PROGRESS, Release);
        slot.ts_ns.store(ts_ns, Relaxed);
        slot.dur_ns.store(dur_ns, Relaxed);
        slot.meta
            .store(kind as u64 | (u64::from(track) << 32), Relaxed);
        slot.arg.store(arg, Relaxed);
        slot.stamp.store(seq, Release);
    }

    /// Copies the resident spans, ordered by ascending sequence number,
    /// into `out` (cleared first; capacity is reused across calls, so a
    /// warm caller allocates only on growth). Returns the number of spans
    /// written. Slots caught mid-overwrite by a concurrent recorder are
    /// skipped. Never blocks recorders.
    pub fn snapshot_into(&self, out: &mut Vec<SpanEvent>) -> usize {
        out.clear();
        let head = self.head.load(Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        for seq in start..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            if slot.stamp.load(Acquire) != seq {
                continue; // never written, overwritten, or mid-write
            }
            let ts_ns = slot.ts_ns.load(Relaxed);
            let dur_ns = slot.dur_ns.load(Relaxed);
            let meta = slot.meta.load(Relaxed);
            let arg = slot.arg.load(Relaxed);
            // Re-check the stamp: if a racing writer claimed this slot while
            // we read the fields, the record may be torn — drop it.
            if slot.stamp.load(Acquire) != seq {
                continue;
            }
            let Some(kind) = SpanKind::from_u64(meta & 0xFFFF_FFFF) else {
                continue;
            };
            out.push(SpanEvent {
                seq,
                track: (meta >> 32) as u32,
                kind,
                ts_ns,
                dur_ns,
                arg,
            });
        }
        out.len()
    }

    /// Allocating convenience form of [`SpanRing::snapshot_into`].
    #[must_use]
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_in_order() {
        let ring = SpanRing::new(16);
        ring.record(SpanKind::Synth, 0, 100, 40, 0);
        ring.record(SpanKind::Discriminate, 0, 140, 25, 0);
        ring.record(SpanKind::Task, 3, 100, 65, 7);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::Synth);
        assert_eq!(spans[0].end_ns(), 140);
        assert_eq!(spans[1].ts_ns, 140);
        assert_eq!(spans[2].track, 3);
        assert_eq!(spans[2].arg, 7);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn kind_roundtrips_through_u64() {
        for k in 0..=13u64 {
            let kind = SpanKind::from_u64(k).expect("known discriminant");
            assert_eq!(kind as u64, k);
            assert!(!kind.label().is_empty());
            assert_eq!(kind.is_point(), k >= 7, "{kind:?}");
        }
        assert_eq!(SpanKind::from_u64(14), None);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_drops() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.record(SpanKind::Custom, 0, i * 10, 5, i);
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans.iter().map(|s| s.arg).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn track_packing_survives_extremes() {
        let ring = SpanRing::new(2);
        ring.record(SpanKind::Task, u32::MAX, u64::MAX - 1, 1, u64::MAX);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].track, u32::MAX);
        assert_eq!(spans[0].kind, SpanKind::Task);
        assert_eq!(spans[0].end_ns(), u64::MAX);
    }
}
