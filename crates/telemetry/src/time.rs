//! The shared timing vocabulary: saturating nanosecond conversion, a
//! process-global monotonic clock, and a reusable lap timer.
//!
//! Before this module every timing call site hand-rolled the same
//! `Instant` → `u64` nanosecond conversion; centralizing it here keeps the
//! saturation semantics (durations past `u64::MAX` ns clamp instead of
//! panicking) identical everywhere.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-global monotonic epoch: every [`now_ns`] timestamp is
/// relative to the first call in the process, so timestamps from different
/// components share one timeline.
pub fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the process-global [`epoch`]. Never
/// allocates; saturates at `u64::MAX`.
pub fn now_ns() -> u64 {
    duration_ns(epoch(), Instant::now())
}

/// Saturating nanosecond span between two instants: `0` if `to < from`
/// (monotonic clocks shouldn't go backwards, but the conversion must not
/// panic if one does), `u64::MAX` if the span exceeds `u64` nanoseconds.
pub fn duration_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// A reusable two-hand stopwatch for staged pipelines: [`StageTimer::lap_ns`]
/// returns the nanoseconds since the previous lap (or start), so a
/// multi-stage hot loop charges each stage with one `Instant::now()` call
/// per boundary instead of juggling `t0..tN` pairs. Allocation-free.
///
/// ```
/// use herqles_telemetry::StageTimer;
///
/// let mut timer = StageTimer::start();
/// let stage_a = timer.lap_ns(); // ns spent before this boundary
/// let stage_b = timer.lap_ns(); // ns between the two laps
/// assert!(timer.elapsed_ns() >= stage_a + stage_b);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StageTimer {
    t0: Instant,
    last: Instant,
}

impl StageTimer {
    /// Starts the timer; both hands at now.
    #[must_use]
    pub fn start() -> Self {
        let now = Instant::now();
        StageTimer { t0: now, last: now }
    }

    /// Total nanoseconds since [`StageTimer::start`] (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        duration_ns(self.t0, Instant::now())
    }

    /// Total seconds since [`StageTimer::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns() as f64 * 1e-9
    }

    /// Nanoseconds since the previous lap (or start), and advances the lap
    /// hand.
    pub fn lap_ns(&mut self) -> u64 {
        let now = Instant::now();
        let ns = duration_ns(self.last, now);
        self.last = now;
        ns
    }

    /// [`StageTimer::lap_ns`] plus the lap's *begin* timestamp on the
    /// process-global [`now_ns`] timeline: returns
    /// `(begin_ns, duration_ns)` for the window between the previous lap
    /// boundary and now — exactly the pair a
    /// [`SpanRing`](crate::span::SpanRing) record wants. Allocation-free.
    pub fn lap_span_ns(&mut self) -> (u64, u64) {
        let begin = duration_ns(epoch(), self.last);
        (begin, self.lap_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn duration_is_saturating_not_panicking() {
        let a = Instant::now();
        let b = a + Duration::from_nanos(250);
        assert_eq!(duration_ns(a, b), 250);
        // Reversed order clamps to zero instead of panicking.
        assert_eq!(duration_ns(b, a), 0);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn laps_partition_elapsed_time() {
        let mut t = StageTimer::start();
        std::thread::sleep(Duration::from_millis(2));
        let l1 = t.lap_ns();
        let l2 = t.lap_ns();
        assert!(l1 >= 1_000_000, "slept ≥1 ms, lap saw {l1} ns");
        assert!(t.elapsed_ns() >= l1 + l2);
    }
}
