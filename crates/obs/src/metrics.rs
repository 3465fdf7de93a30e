//! The named metric registry and its Prometheus-style text exporter.
//!
//! Every caller is single-threaded and scrapes: it adds to counters or sets
//! gauges by name, then renders once. One name holds one value.
//!
//! All counters are **saturation-safe**: an addition can never overflow,
//! panic in debug builds, or wrap back to zero on a week-long chaos run —
//! it pins at `u64::MAX` instead.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One exported metric at scrape time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic counter value.
    Counter(u64),
    /// An instantaneous gauge value.
    Gauge(u64),
}

impl MetricValue {
    /// The sample value, whichever kind of metric holds it.
    pub fn value(self) -> u64 {
        let (MetricValue::Counter(v) | MetricValue::Gauge(v)) = self;
        v
    }
}

/// A named collection of metrics, kept sorted by name so exports are
/// deterministic regardless of registration order.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: BTreeMap<String, MetricValue>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `v` to the counter named `name` (created at zero on first use),
    /// saturating at `u64::MAX`.
    pub fn add(&mut self, name: &str, v: u64) {
        let slot = self
            .metrics
            .entry(name.to_string())
            .or_insert(MetricValue::Counter(0));
        *slot = MetricValue::Counter(slot.value().saturating_add(v));
    }

    /// Sets the gauge named `name` to `v`.
    pub fn set(&mut self, name: &str, v: u64) {
        self.metrics.insert(name.to_string(), MetricValue::Gauge(v));
    }

    /// The value of the metric named `name`, if one was registered.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.metrics.get(name).map(|m| m.value())
    }

    /// Every registered metric with its current value, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.metrics
            .iter()
            .map(|(name, value)| (name.clone(), *value))
            .collect()
    }

    /// Prometheus-style text exposition: a `# TYPE` header plus one sample
    /// line per metric.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let (kind, v) = match value {
                MetricValue::Counter(v) => ("counter", v),
                MetricValue::Gauge(v) => ("gauge", v),
            };
            let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let mut r = Registry::new();
        r.add("c", u64::MAX - 1);
        r.add("c", 1);
        assert_eq!(r.get("c"), Some(u64::MAX));
        r.add("c", 1); // would overflow a plain `+=` in debug builds
        r.add("c", u64::MAX);
        assert_eq!(r.get("c"), Some(u64::MAX));
        assert_eq!(r.get("missing"), None);
    }

    #[test]
    fn registry_handles_are_shared_and_render_deterministically() {
        let mut r = Registry::new();
        r.add("btcfast_b_total", u64::MAX - 1);
        r.add("btcfast_b_total", 1);
        r.add("btcfast_b_total", 1);
        r.add("btcfast_a_total", 0);
        r.set("btcfast_c_depth", 9);
        r.set("btcfast_a_depth", 4);
        // Sorted by name, independent of registration order; the saturated
        // counter pins at u64::MAX and the zero-registered one still renders.
        assert_eq!(
            r.render_prometheus(),
            "# TYPE btcfast_a_depth gauge\nbtcfast_a_depth 4\n\
             # TYPE btcfast_a_total counter\nbtcfast_a_total 0\n\
             # TYPE btcfast_b_total counter\nbtcfast_b_total 18446744073709551615\n\
             # TYPE btcfast_c_depth gauge\nbtcfast_c_depth 9\n"
        );
    }
}
