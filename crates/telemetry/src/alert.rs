//! Declarative SLO alerting over registry snapshots.
//!
//! An [`AlertRule`] names a metric, a condition (histogram-quantile
//! threshold, counter rate, gauge bound) and a debounce policy; an
//! [`AlertEngine`] evaluates its rules against successive
//! [`RegistrySnapshot`]s. The state machine mirrors the streaming
//! engine's health monitor: a rule must breach for `hold_evals`
//! consecutive evaluations before it fires (transient spikes don't page),
//! and once firing it must sit below the hysteresis band for
//! `clear_evals` consecutive evaluations before it clears (no
//! flapping at the threshold). Transitions stamp
//! [`AlertFiring`](SpanKind::AlertFiring) /
//! [`AlertCleared`](SpanKind::AlertCleared) point records into a
//! [`SpanRing`], and
//! each rule can publish its state as a registered gauge
//! (`0` ok, `1` pending, `2` firing).
//!
//! Evaluation is control-plane code (runs at scrape cadence, not in the
//! cycle hot path) and is allocation-light rather than allocation-free.

use crate::hist::HistogramSummary;
use crate::registry::{Gauge, MetricSnapshot, MetricValue, RegistrySnapshot, Scope};
use crate::span::{SpanKind, SpanRing};
use crate::time::now_ns;
use std::sync::Arc;

/// Which scalar of a histogram summary a quantile rule reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantile {
    /// Smallest recorded value.
    Min,
    /// Median.
    P50,
    /// 90th percentile.
    P90,
    /// 99th percentile.
    P99,
    /// Largest recorded value.
    Max,
}

impl Quantile {
    fn read(self, s: &HistogramSummary) -> f64 {
        (match self {
            Quantile::Min => s.min,
            Quantile::P50 => s.p50,
            Quantile::P90 => s.p90,
            Quantile::P99 => s.p99,
            Quantile::Max => s.max,
        }) as f64
    }

    /// Stable label for summaries.
    pub fn label(self) -> &'static str {
        match self {
            Quantile::Min => "min",
            Quantile::P50 => "p50",
            Quantile::P90 => "p90",
            Quantile::P99 => "p99",
            Quantile::Max => "max",
        }
    }
}

/// What makes a rule breach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlertCondition {
    /// A histogram quantile exceeds `threshold`. Clears once the quantile
    /// drops to `threshold × (1 − hysteresis)` or below.
    QuantileAbove {
        /// Summary scalar to read.
        quantile: Quantile,
        /// Breach bound (same unit as the histogram, e.g. ns).
        threshold: f64,
    },
    /// A counter grows by more than `per_eval` between two consecutive
    /// evaluations. The first evaluation only establishes the baseline.
    /// Clears once the per-evaluation rate drops to
    /// `per_eval × (1 − hysteresis)` or below.
    RateAbove {
        /// Maximum tolerated counter delta per evaluation.
        per_eval: f64,
    },
    /// A gauge exceeds `threshold`; clears at `threshold × (1 − hysteresis)`.
    GaugeAbove {
        /// Breach bound.
        threshold: f64,
    },
    /// A gauge drops below `threshold`; clears at
    /// `threshold × (1 + hysteresis)`.
    GaugeBelow {
        /// Breach bound.
        threshold: f64,
    },
}

/// One declarative alert: metric selector + condition + debounce policy.
#[derive(Debug, Clone)]
pub struct AlertRule {
    /// Rule name (also the `rule` label on the state gauge). Must be unique
    /// within one engine.
    pub name: String,
    /// Metric family name to match in the snapshot.
    pub metric: String,
    /// Label subset the metric series must carry. Empty matches every
    /// series of the family; with several matches the *worst-case* value is
    /// evaluated (max for `*Above`, min for `GaugeBelow`, summed deltas for
    /// `RateAbove`).
    pub labels: Vec<(String, String)>,
    /// Breach condition.
    pub condition: AlertCondition,
    /// Consecutive breaching evaluations before the rule fires (≥ 1).
    pub hold_evals: u32,
    /// Consecutive in-band evaluations before a firing rule clears (≥ 1).
    pub clear_evals: u32,
    /// Relative hysteresis band applied in the clearing direction only
    /// (`0.1` = must recover 10 % past the threshold to clear).
    pub hysteresis: f64,
}

impl AlertRule {
    /// A rule with no extra labels, single-evaluation debounce and a 10 %
    /// hysteresis band; builder-style setters refine it.
    #[must_use]
    pub fn new(name: &str, metric: &str, condition: AlertCondition) -> Self {
        AlertRule {
            name: name.to_string(),
            metric: metric.to_string(),
            labels: Vec::new(),
            condition,
            hold_evals: 1,
            clear_evals: 1,
            hysteresis: 0.1,
        }
    }

    /// Requires the metric series to carry `labels` (subset match).
    #[must_use]
    pub fn with_labels(mut self, labels: &[(&str, &str)]) -> Self {
        self.labels = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        self
    }

    /// Sets the fire debounce (clamped to ≥ 1).
    #[must_use]
    pub fn with_hold_evals(mut self, hold: u32) -> Self {
        self.hold_evals = hold.max(1);
        self
    }

    /// Sets the clear debounce (clamped to ≥ 1).
    #[must_use]
    pub fn with_clear_evals(mut self, clear: u32) -> Self {
        self.clear_evals = clear.max(1);
        self
    }

    /// Sets the hysteresis band.
    #[must_use]
    pub fn with_hysteresis(mut self, h: f64) -> Self {
        self.hysteresis = h.max(0.0);
        self
    }

    fn matches(&self, m: &MetricSnapshot) -> bool {
        m.name == self.metric
            && self
                .labels
                .iter()
                .all(|want| m.labels.iter().any(|have| have == want))
    }
}

/// A rule's debounced state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// In band.
    Ok,
    /// Breaching, but not yet for `hold_evals` evaluations.
    Pending,
    /// Fired and not yet cleared.
    Firing,
}

impl AlertState {
    /// Gauge encoding (`0` ok, `1` pending, `2` firing).
    pub fn as_gauge(self) -> f64 {
        match self {
            AlertState::Ok => 0.0,
            AlertState::Pending => 1.0,
            AlertState::Firing => 2.0,
        }
    }

    /// Stable label for summaries.
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Ok => "ok",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// Live per-rule evaluation state.
#[derive(Debug)]
struct RuleState {
    rule: AlertRule,
    state: AlertState,
    pending: u32,
    clearing: u32,
    prev_counter: Option<f64>,
    fired: u64,
    cleared: u64,
    last_value: Option<f64>,
    gauge: Option<Arc<Gauge>>,
}

/// A frozen view of one rule's state for summaries/JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleStatus {
    /// Rule name.
    pub name: String,
    /// Current debounced state.
    pub state: AlertState,
    /// Lifetime fire transitions.
    pub fired: u64,
    /// Lifetime clear transitions.
    pub cleared: u64,
    /// Most recent evaluated value (`None` until the metric is seen; for
    /// rate rules, the per-evaluation delta).
    pub last_value: Option<f64>,
}

/// Evaluates a fixed rule set against successive registry snapshots. See
/// the module docs for the debounce semantics.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<RuleState>,
    trace: SpanRing,
    evaluations: u64,
}

/// Ring capacity for alert transitions: alerts are rare events, a
/// small ring keeps plenty of history.
const ALERT_TRACE_CAPACITY: usize = 256;

impl AlertEngine {
    /// An engine over `rules` with unregistered state (no gauges).
    ///
    /// # Panics
    ///
    /// Panics if two rules share a name.
    #[must_use]
    pub fn new(rules: Vec<AlertRule>) -> Self {
        Self::build(rules, None)
    }

    /// An engine whose per-rule state gauges
    /// (`herqles_alert_state{rule="..."}`) are registered through `scope`.
    #[must_use]
    pub fn registered(rules: Vec<AlertRule>, scope: &Scope<'_>) -> Self {
        Self::build(rules, Some(scope))
    }

    fn build(rules: Vec<AlertRule>, scope: Option<&Scope<'_>>) -> Self {
        for (i, a) in rules.iter().enumerate() {
            assert!(
                rules[..i].iter().all(|b| b.name != a.name),
                "duplicate alert rule name {:?}",
                a.name
            );
        }
        let rules = rules
            .into_iter()
            .map(|rule| {
                let gauge = scope.map(|s| {
                    s.gauge(
                        "herqles_alert_state",
                        "alert rule state (0 ok, 1 pending, 2 firing)",
                        &[("rule", rule.name.as_str())],
                    )
                });
                RuleState {
                    rule,
                    state: AlertState::Ok,
                    pending: 0,
                    clearing: 0,
                    prev_counter: None,
                    fired: 0,
                    cleared: 0,
                    last_value: None,
                    gauge,
                }
            })
            .collect();
        AlertEngine {
            rules,
            trace: SpanRing::new(ALERT_TRACE_CAPACITY),
            evaluations: 0,
        }
    }

    /// Evaluates every rule against `snapshot`. Returns the number of
    /// state *transitions* (fire + clear) this evaluation produced.
    pub fn evaluate(&mut self, snapshot: &RegistrySnapshot) -> usize {
        self.evaluations += 1;
        let mut transitions = 0;
        for (idx, rs) in self.rules.iter_mut().enumerate() {
            let Some(value) = observe(&rs.rule, snapshot, &mut rs.prev_counter) else {
                continue; // metric absent (or rate baseline): no state change
            };
            rs.last_value = Some(value);
            let breach = breaches(&rs.rule.condition, value);
            let in_clear_band = clears(&rs.rule.condition, rs.rule.hysteresis, value);
            match rs.state {
                AlertState::Ok | AlertState::Pending => {
                    if breach {
                        rs.pending += 1;
                        if rs.pending >= rs.rule.hold_evals {
                            rs.state = AlertState::Firing;
                            rs.pending = 0;
                            rs.clearing = 0;
                            rs.fired += 1;
                            self.trace
                                .record(SpanKind::AlertFiring, 0, now_ns(), 0, idx as u64);
                            transitions += 1;
                        } else {
                            rs.state = AlertState::Pending;
                        }
                    } else {
                        rs.state = AlertState::Ok;
                        rs.pending = 0;
                    }
                }
                AlertState::Firing => {
                    if in_clear_band {
                        rs.clearing += 1;
                        if rs.clearing >= rs.rule.clear_evals {
                            rs.state = AlertState::Ok;
                            rs.clearing = 0;
                            rs.cleared += 1;
                            self.trace
                                .record(SpanKind::AlertCleared, 0, now_ns(), 0, idx as u64);
                            transitions += 1;
                        }
                    } else {
                        // Still breaching — or inside the hysteresis gap:
                        // either way the clear streak restarts.
                        rs.clearing = 0;
                    }
                }
            }
            if let Some(g) = &rs.gauge {
                g.set(rs.state.as_gauge());
            }
        }
        transitions
    }

    /// Evaluations performed so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// The ring alert transitions are stamped into as point records on
    /// track 0 ([`SpanKind::AlertFiring`] / [`SpanKind::AlertCleared`];
    /// `arg` = rule index).
    pub fn trace(&self) -> &SpanRing {
        &self.trace
    }

    /// Rules currently in [`AlertState::Firing`].
    pub fn firing(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| r.state == AlertState::Firing)
            .count()
    }

    /// Frozen per-rule statuses, in rule order.
    #[must_use]
    pub fn statuses(&self) -> Vec<RuleStatus> {
        self.rules
            .iter()
            .map(|rs| RuleStatus {
                name: rs.rule.name.clone(),
                state: rs.state,
                fired: rs.fired,
                cleared: rs.cleared,
                last_value: rs.last_value,
            })
            .collect()
    }
}

/// Reads the rule's worst-case value out of the snapshot. `None` when no
/// series matches — or, for rate rules, on the baseline-establishing first
/// sight of the counter.
fn observe(
    rule: &AlertRule,
    snapshot: &RegistrySnapshot,
    prev_counter: &mut Option<f64>,
) -> Option<f64> {
    let matched = snapshot.metrics.iter().filter(|m| rule.matches(m));
    match rule.condition {
        AlertCondition::QuantileAbove { quantile, .. } => matched
            .filter_map(|m| match &m.value {
                MetricValue::Histogram(s) if s.count > 0 => Some(quantile.read(s)),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            }),
        AlertCondition::RateAbove { .. } => {
            let total: f64 = matched
                .filter_map(|m| match &m.value {
                    MetricValue::Counter(c) => Some(*c as f64),
                    _ => None,
                })
                .sum();
            let prev = prev_counter.replace(total);
            // A shrinking total (counter reset / series churn) re-baselines.
            prev.filter(|p| *p <= total).map(|p| total - p)
        }
        AlertCondition::GaugeAbove { .. } => matched
            .filter_map(|m| match &m.value {
                MetricValue::Gauge(g) => Some(*g),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            }),
        AlertCondition::GaugeBelow { .. } => matched
            .filter_map(|m| match &m.value {
                MetricValue::Gauge(g) => Some(*g),
                _ => None,
            })
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            }),
    }
}

fn breaches(cond: &AlertCondition, value: f64) -> bool {
    match *cond {
        AlertCondition::QuantileAbove { threshold, .. }
        | AlertCondition::GaugeAbove { threshold } => value > threshold,
        AlertCondition::RateAbove { per_eval } => value > per_eval,
        AlertCondition::GaugeBelow { threshold } => value < threshold,
    }
}

/// Whether `value` sits inside the *clear* band — past the threshold by
/// the hysteresis margin, in the recovery direction.
fn clears(cond: &AlertCondition, hysteresis: f64, value: f64) -> bool {
    match *cond {
        AlertCondition::QuantileAbove { threshold, .. }
        | AlertCondition::GaugeAbove { threshold } => value <= threshold * (1.0 - hysteresis),
        AlertCondition::RateAbove { per_eval } => value <= per_eval * (1.0 - hysteresis),
        AlertCondition::GaugeBelow { threshold } => value >= threshold * (1.0 + hysteresis),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn snapshot_with_gauge(r: &Registry, v: f64) -> RegistrySnapshot {
        r.gauge("g", "", &[]).set(v);
        r.snapshot()
    }

    #[test]
    fn gauge_rule_fires_after_hold_and_clears_after_hysteresis() {
        let r = Registry::new();
        let rule = AlertRule::new("hot", "g", AlertCondition::GaugeAbove { threshold: 100.0 })
            .with_hold_evals(2)
            .with_clear_evals(2)
            .with_hysteresis(0.1);
        let mut engine = AlertEngine::new(vec![rule]);

        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 50.0)), 0);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);

        // First breach: pending, not firing.
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 150.0)), 0);
        assert_eq!(engine.statuses()[0].state, AlertState::Pending);
        // Second consecutive breach: fires.
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 150.0)), 1);
        assert_eq!(engine.statuses()[0].state, AlertState::Firing);
        assert_eq!(engine.firing(), 1);

        // 95 is below the threshold but inside the hysteresis gap
        // (> 90 = 100×0.9): must NOT count toward clearing.
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 95.0)), 0);
        assert_eq!(engine.statuses()[0].state, AlertState::Firing);
        // Two in-band evaluations clear it.
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 80.0)), 0);
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 80.0)), 1);
        let s = &engine.statuses()[0];
        assert_eq!(s.state, AlertState::Ok);
        assert_eq!(s.fired, 1);
        assert_eq!(s.cleared, 1);

        // The transitions are point records on the alert ring, in order.
        let events = engine.trace().snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, SpanKind::AlertFiring);
        assert_eq!(events[1].kind, SpanKind::AlertCleared);
        assert!(events.iter().all(|e| e.dur_ns == 0 && e.arg == 0));
    }

    #[test]
    fn pending_streak_resets_on_recovery() {
        let r = Registry::new();
        let rule = AlertRule::new("hot", "g", AlertCondition::GaugeAbove { threshold: 1.0 })
            .with_hold_evals(3);
        let mut engine = AlertEngine::new(vec![rule]);
        engine.evaluate(&snapshot_with_gauge(&r, 2.0));
        engine.evaluate(&snapshot_with_gauge(&r, 2.0));
        engine.evaluate(&snapshot_with_gauge(&r, 0.0)); // streak broken
        engine.evaluate(&snapshot_with_gauge(&r, 2.0));
        engine.evaluate(&snapshot_with_gauge(&r, 2.0));
        assert_eq!(engine.statuses()[0].state, AlertState::Pending);
        assert_eq!(engine.statuses()[0].fired, 0);
    }

    #[test]
    fn rate_rule_baselines_then_tracks_deltas() {
        let r = Registry::new();
        let c = r.counter("errors_total", "", &[]);
        let rule = AlertRule::new(
            "errors",
            "errors_total",
            AlertCondition::RateAbove { per_eval: 2.0 },
        );
        let mut engine = AlertEngine::new(vec![rule]);

        c.add(100);
        engine.evaluate(&r.snapshot()); // baseline only
        assert_eq!(engine.statuses()[0].last_value, None);

        c.add(5); // delta 5 > 2 → fires (hold 1)
        assert_eq!(engine.evaluate(&r.snapshot()), 1);
        assert_eq!(engine.statuses()[0].state, AlertState::Firing);
        assert_eq!(engine.statuses()[0].last_value, Some(5.0));

        c.add(1); // delta 1 ≤ 1.8 → clears (clear 1)
        assert_eq!(engine.evaluate(&r.snapshot()), 1);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
    }

    #[test]
    fn quantile_rule_reads_worst_matching_series() {
        let r = Registry::new();
        let fast = r.histogram("lat_ns", "", &[("engine", "a")]);
        let slow = r.histogram("lat_ns", "", &[("engine", "b")]);
        for _ in 0..100 {
            fast.record(10);
            slow.record(10_000);
        }
        let rule = AlertRule::new(
            "lat",
            "lat_ns",
            AlertCondition::QuantileAbove {
                quantile: Quantile::P99,
                threshold: 1_000.0,
            },
        );
        let mut engine = AlertEngine::new(vec![rule]);
        assert_eq!(engine.evaluate(&r.snapshot()), 1, "worst series breaches");

        // Narrowing the label selector to the fast engine stays quiet.
        let scoped = AlertRule::new(
            "lat_a",
            "lat_ns",
            AlertCondition::QuantileAbove {
                quantile: Quantile::P99,
                threshold: 1_000.0,
            },
        )
        .with_labels(&[("engine", "a")]);
        let mut engine = AlertEngine::new(vec![scoped]);
        assert_eq!(engine.evaluate(&r.snapshot()), 0);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
    }

    #[test]
    fn missing_metric_holds_state() {
        let r = Registry::new();
        let rule = AlertRule::new(
            "ghost",
            "nope",
            AlertCondition::GaugeAbove { threshold: 1.0 },
        );
        let mut engine = AlertEngine::new(vec![rule]);
        assert_eq!(engine.evaluate(&r.snapshot()), 0);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
        assert_eq!(engine.statuses()[0].last_value, None);
    }

    #[test]
    fn gauge_below_uses_inverted_hysteresis() {
        let r = Registry::new();
        let rule = AlertRule::new("low", "g", AlertCondition::GaugeBelow { threshold: 10.0 })
            .with_hysteresis(0.2);
        let mut engine = AlertEngine::new(vec![rule]);
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 5.0)), 1);
        // 11 is above the threshold but below 12 = 10×1.2: stays firing.
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 11.0)), 0);
        assert_eq!(engine.statuses()[0].state, AlertState::Firing);
        assert_eq!(engine.evaluate(&snapshot_with_gauge(&r, 13.0)), 1);
        assert_eq!(engine.statuses()[0].state, AlertState::Ok);
    }

    #[test]
    fn registered_engine_publishes_state_gauges() {
        let r = Registry::new();
        let rule = AlertRule::new("hot", "g", AlertCondition::GaugeAbove { threshold: 1.0 });
        let mut engine = AlertEngine::registered(vec![rule], &r.scope(&[("engine", "e0")]));
        engine.evaluate(&snapshot_with_gauge(&r, 5.0));
        let snap = r.snapshot();
        let state = snap
            .metrics
            .iter()
            .find(|m| m.name == "herqles_alert_state")
            .expect("state gauge registered");
        assert!(state
            .labels
            .contains(&("rule".to_string(), "hot".to_string())));
        assert_eq!(state.value, MetricValue::Gauge(2.0));
    }

    #[test]
    #[should_panic(expected = "duplicate alert rule name")]
    fn duplicate_rule_names_panic() {
        let a = AlertRule::new("x", "g", AlertCondition::GaugeAbove { threshold: 1.0 });
        let b = AlertRule::new("x", "g", AlertCondition::GaugeAbove { threshold: 2.0 });
        let _ = AlertEngine::new(vec![a, b]);
    }
}
