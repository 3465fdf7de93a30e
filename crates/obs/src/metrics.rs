//! Lock-cheap metric primitives and the named registry behind them.
//!
//! Hot paths hold `Arc` handles to individual [`Counter`]s and [`Gauge`]s
//! and touch only atomics; the [`Registry`]'s mutex is taken once at
//! registration (and at export time), never per increment.
//!
//! All counters are **saturation-safe**: an increment can never overflow,
//! panic in debug builds, or wrap back to zero on a week-long chaos run —
//! it pins at `u64::MAX` instead.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonic event counter. Increments saturate at `u64::MAX`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`, saturating at `u64::MAX`.
    pub fn add(&self, v: u64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(v);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (queue depth, cache size, scraped total).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (high-water tracking).
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One exported metric at scrape time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonic counter value.
    Counter(u64),
    /// An instantaneous gauge value.
    Gauge(u64),
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Arc<Counter>)>,
    gauges: Vec<(String, Arc<Gauge>)>,
}

/// A named collection of metrics with a Prometheus-style text exporter.
///
/// `counter`/`gauge` get-or-create by name and hand back an
/// `Arc` handle; instrumented code keeps the handle and never touches the
/// registry lock again.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, c)) = inner.counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        inner.counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("registry poisoned");
        if let Some((_, g)) = inner.gauges.iter().find(|(n, _)| n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        inner.gauges.push((name.to_string(), Arc::clone(&g)));
        g
    }

    /// Convenience: sets the gauge named `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: u64) {
        self.gauge(name).set(v);
    }

    /// Every registered metric with its current value, sorted by name so
    /// exports are deterministic regardless of registration order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out: Vec<(String, MetricValue)> = Vec::new();
        for (name, c) in &inner.counters {
            out.push((name.clone(), MetricValue::Counter(c.get())));
        }
        for (name, g) in &inner.gauges {
            out.push((name.clone(), MetricValue::Gauge(g.get())));
        }
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        out
    }

    /// Prometheus-style text exposition: a `# TYPE` header plus one sample
    /// line per metric.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.snapshot().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc(); // would overflow a plain `+=` in debug builds
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let g = Gauge::new();
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn registry_handles_are_shared_and_render_deterministically() {
        let r = Registry::new();
        let a = r.counter("btcfast_b_total");
        let b = r.counter("btcfast_b_total");
        a.inc();
        b.inc();
        assert_eq!(r.counter("btcfast_b_total").get(), 2);
        r.set_gauge("btcfast_c_depth", 9);
        r.set_gauge("btcfast_a_depth", 4);
        let text = r.render_prometheus();
        // Sorted by name, independent of registration order.
        let a_pos = text.find("btcfast_a_depth").unwrap();
        let b_pos = text.find("btcfast_b_total").unwrap();
        let c_pos = text.find("btcfast_c_depth").unwrap();
        assert!(a_pos < b_pos && b_pos < c_pos, "{text}");
        assert!(text.contains("# TYPE btcfast_b_total counter"));
        assert!(text.contains("# TYPE btcfast_c_depth gauge\nbtcfast_c_depth 9"));
        assert_eq!(text, r.render_prometheus());
    }
}
