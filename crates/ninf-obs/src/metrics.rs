//! Counters, gauges, and latency summaries with Prometheus text exposition.
//!
//! The registry hands out cheap atomic handles (`Counter`, `Gauge`) and
//! shared [`LogHistogram`]s keyed by metric name; `render_prometheus`
//! produces the version-0.0.4 text format a `curl` of the metrics endpoint
//! expects.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use crate::hist::LogHistogram;
use crate::window::{
    MetricKind, MetricSample, PrevCumulative, WindowState, WindowsSnapshot, DEFAULT_WINDOW_CAPACITY,
};

/// Monotone event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous value (queue depth, utilization, ...), stored as f64 bits.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Mutex<LogHistogram>>),
}

/// Named metrics of one process; get-or-create by name, render as Prometheus
/// text.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<(String, String, Metric)>>,
    /// `Some` while windowed capture is armed. Hot-path handles never touch
    /// this — only `capture_window`/`snapshot_windows` do — so a disarmed
    /// registry's metric updates cost exactly what they did before windows
    /// existed.
    windows: Mutex<Option<WindowState>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.metrics.lock().len())
    }
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created with `help` on first use.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut metrics = self.metrics.lock();
        for (n, _, m) in metrics.iter() {
            if n == name {
                if let Metric::Counter(c) = m {
                    return c.clone();
                }
                panic!("metric {name} already registered with a different type");
            }
        }
        let c = Counter::default();
        metrics.push((name.into(), help.into(), Metric::Counter(c.clone())));
        c
    }

    /// The gauge named `name`, created with `help` on first use.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        let mut metrics = self.metrics.lock();
        for (n, _, m) in metrics.iter() {
            if n == name {
                if let Metric::Gauge(g) = m {
                    return g.clone();
                }
                panic!("metric {name} already registered with a different type");
            }
        }
        let g = Gauge::default();
        metrics.push((name.into(), help.into(), Metric::Gauge(g.clone())));
        g
    }

    /// The latency summary named `name` (record seconds into the returned
    /// histogram), created with `help` on first use.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Mutex<LogHistogram>> {
        let mut metrics = self.metrics.lock();
        for (n, _, m) in metrics.iter() {
            if n == name {
                if let Metric::Histogram(h) = m {
                    return h.clone();
                }
                panic!("metric {name} already registered with a different type");
            }
        }
        let h = Arc::new(Mutex::new(LogHistogram::new()));
        metrics.push((name.into(), help.into(), Metric::Histogram(h.clone())));
        h
    }

    /// Prometheus text exposition format 0.0.4; histograms render as
    /// summaries with p50/p95/p99 quantiles.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock();
        let mut out = String::new();
        for (name, help, metric) in metrics.iter() {
            let _ = writeln!(out, "# HELP {name} {help}");
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let h = h.lock();
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for (q, p) in [("0.5", 50.0), ("0.95", 95.0), ("0.99", 99.0)] {
                        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {}", h.percentile(p));
                    }
                    let _ = writeln!(out, "{name}_sum {}", h.mean() * h.count() as f64);
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// Arm fixed-interval window capture with the default ring capacity
    /// ([`DEFAULT_WINDOW_CAPACITY`]). `interval` is recorded for consumers;
    /// actually closing windows is the caller's job — call
    /// [`Self::capture_window`] on that cadence, or let
    /// [`Self::start_window_sampler`] do it. Re-arming resets the ring and
    /// the window clock.
    pub fn arm_windows(&self, interval: Duration) {
        self.arm_windows_with_capacity(interval, DEFAULT_WINDOW_CAPACITY);
    }

    /// [`Self::arm_windows`] with an explicit ring capacity.
    pub fn arm_windows_with_capacity(&self, interval: Duration, capacity: usize) {
        *self.windows.lock() = Some(WindowState::new(interval.as_secs_f64(), capacity));
    }

    /// Stop window capture and drop the ring; a running sampler thread exits
    /// at its next tick.
    pub fn disarm_windows(&self) {
        *self.windows.lock() = None;
    }

    /// Close one window: every registered metric contributes its delta
    /// (counters, histograms) or instantaneous value (gauges) since the
    /// previous capture. Returns `false` (and records nothing) when
    /// disarmed.
    pub fn capture_window(&self) -> bool {
        let mut windows = self.windows.lock();
        let Some(state) = windows.as_mut() else {
            return false;
        };
        let t = state.epoch.elapsed().as_secs_f64();
        let metrics = self.metrics.lock();
        let mut samples = Vec::with_capacity(metrics.len());
        for (name, _, metric) in metrics.iter() {
            let sample = match metric {
                Metric::Counter(c) => {
                    let cur = c.get();
                    let prev = state.prev.entry(name.clone()).or_default();
                    let delta = cur.saturating_sub(prev.count);
                    prev.count = cur;
                    MetricSample {
                        name: name.clone(),
                        kind: MetricKind::Counter,
                        value: delta as f64,
                        count: delta,
                    }
                }
                Metric::Gauge(g) => MetricSample {
                    name: name.clone(),
                    kind: MetricKind::Gauge,
                    value: g.get(),
                    count: 0,
                },
                Metric::Histogram(h) => {
                    let (cur_count, cur_sum) = {
                        let h = h.lock();
                        (h.count(), h.sum())
                    };
                    let prev = state.prev.entry(name.clone()).or_default();
                    let dcount = cur_count.saturating_sub(prev.count);
                    let dsum = if dcount > 0 {
                        (cur_sum - prev.sum).max(0.0)
                    } else {
                        0.0
                    };
                    *prev = PrevCumulative {
                        count: cur_count,
                        sum: cur_sum,
                    };
                    MetricSample {
                        name: name.clone(),
                        kind: MetricKind::Histogram,
                        value: dsum,
                        count: dcount,
                    }
                }
            };
            samples.push(sample);
        }
        drop(metrics);
        state.push(t, samples);
        true
    }

    /// Incremental drain of the window ring from global window index
    /// `since`, clamped to what the ring still holds. A disarmed registry
    /// answers [`WindowsSnapshot::disarmed`] (interval 0, no frames), so
    /// remote pollers can tell "no telemetry" from "no traffic".
    pub fn snapshot_windows(&self, since: u64) -> WindowsSnapshot {
        match self.windows.lock().as_ref() {
            Some(state) => state.snapshot_since(since),
            None => WindowsSnapshot::disarmed(),
        }
    }

    /// Arm windows and spawn a detached sampler thread closing one every
    /// `interval`. The thread holds only a [`Weak`] registry reference and
    /// exits when the registry is dropped or disarmed.
    pub fn start_window_sampler(self: &Arc<Self>, interval: Duration) {
        self.arm_windows(interval);
        let weak: Weak<MetricsRegistry> = Arc::downgrade(self);
        std::thread::Builder::new()
            .name("ninf-metric-windows".into())
            .spawn(move || loop {
                std::thread::sleep(interval);
                let Some(reg) = weak.upgrade() else {
                    return;
                };
                if !reg.capture_window() {
                    return;
                }
            })
            .expect("spawn window sampler");
    }
}

/// The process-wide registry: the shared home for metrics owned by a
/// library rather than a component with its own registry (the client's
/// argument-cache counters live here). Whoever serves a metrics endpoint
/// can render it alongside component registries.
pub fn process_metrics() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_registry_is_shared() {
        let a = process_metrics().counter("ninf_test_shared_total", "x");
        let b = process_metrics().counter("ninf_test_shared_total", "x");
        a.inc();
        assert_eq!(b.get(), a.get());
    }

    #[test]
    fn counter_is_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ninf_calls_total", "calls");
        let b = reg.counter("ninf_calls_total", "calls");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn gauge_stores_floats() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("ninf_queue_depth", "queued jobs");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn render_contains_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("ninf_calls_total", "completed calls").add(7);
        reg.gauge("ninf_running", "executing now").set(3.0);
        let h = reg.histogram("ninf_call_seconds", "per-call latency");
        for _ in 0..100 {
            h.lock().record(0.010);
        }
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE ninf_calls_total counter"));
        assert!(text.contains("ninf_calls_total 7"));
        assert!(text.contains("# TYPE ninf_running gauge"));
        assert!(text.contains("ninf_running 3"));
        assert!(text.contains("# TYPE ninf_call_seconds summary"));
        assert!(text.contains("ninf_call_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("ninf_call_seconds_count 100"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            let value = parts.next().unwrap();
            assert!(name.starts_with("ninf_"), "bad name in {line}");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
        }
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn name_reuse_across_types_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("ninf_x", "x");
        reg.gauge("ninf_x", "x");
    }

    #[test]
    fn disarmed_registry_emits_no_window_data() {
        let reg = MetricsRegistry::new();
        reg.counter("ninf_calls_total", "calls").add(5);
        assert!(!reg.capture_window());
        let s = reg.snapshot_windows(0);
        assert_eq!(s.interval, 0.0);
        assert_eq!(s.total, 0);
        assert!(s.frames.is_empty());
    }

    #[test]
    fn windows_carry_deltas_not_totals() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ninf_calls_total", "calls");
        let g = reg.gauge("ninf_running", "running");
        let h = reg.histogram("ninf_call_seconds", "latency");
        reg.arm_windows(Duration::from_millis(100));

        c.add(3);
        g.set(2.0);
        h.lock().record(0.010);
        h.lock().record(0.030);
        assert!(reg.capture_window());

        c.add(4);
        g.set(7.0);
        assert!(reg.capture_window());

        let s = reg.snapshot_windows(0);
        assert_eq!(s.total, 2);
        assert_eq!(s.frames.len(), 2);
        let by = |w: usize, name: &str| {
            s.frames[w]
                .samples
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .clone()
        };
        // Window 0: the first burst.
        assert_eq!(by(0, "ninf_calls_total").count, 3);
        assert_eq!(by(0, "ninf_running").value, 2.0);
        assert_eq!(by(0, "ninf_call_seconds").count, 2);
        assert!((by(0, "ninf_call_seconds").value - 0.040).abs() < 1e-12);
        // Window 1: only what happened after window 0 closed.
        assert_eq!(by(1, "ninf_calls_total").count, 4);
        assert_eq!(by(1, "ninf_running").value, 7.0);
        assert_eq!(by(1, "ninf_call_seconds").count, 0);
        assert_eq!(by(1, "ninf_call_seconds").value, 0.0);
        // Window deltas of the counter sum back to the cumulative total.
        let total: u64 = s
            .frames
            .iter()
            .flat_map(|f| &f.samples)
            .filter(|m| m.name == "ninf_calls_total")
            .map(|m| m.count)
            .sum();
        assert_eq!(total, c.get());
    }

    #[test]
    fn metric_registered_after_arming_joins_later_windows() {
        let reg = MetricsRegistry::new();
        reg.arm_windows(Duration::from_secs(1));
        reg.capture_window();
        let c = reg.counter("ninf_late_total", "registered mid-flight");
        c.add(2);
        reg.capture_window();
        let s = reg.snapshot_windows(0);
        assert!(s.frames[0].samples.is_empty());
        assert_eq!(s.frames[1].samples[0].count, 2);
    }

    #[test]
    fn rearming_resets_ring_and_clock() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("ninf_calls_total", "calls");
        reg.arm_windows(Duration::from_secs(1));
        c.add(10);
        reg.capture_window();
        assert_eq!(reg.snapshot_windows(0).total, 1);
        reg.arm_windows(Duration::from_secs(1));
        let s = reg.snapshot_windows(0);
        assert_eq!(s.total, 0);
        // The delta baseline reset too: the next window re-reports the
        // cumulative value as its delta.
        reg.capture_window();
        assert_eq!(reg.snapshot_windows(0).frames[0].samples[0].count, 10);
    }

    #[test]
    fn sampler_thread_captures_and_stops_on_disarm() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.counter("ninf_calls_total", "calls").add(1);
        reg.start_window_sampler(Duration::from_millis(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while reg.snapshot_windows(0).total < 3 {
            assert!(std::time::Instant::now() < deadline, "sampler never ticked");
            std::thread::sleep(Duration::from_millis(5));
        }
        reg.disarm_windows();
        assert_eq!(reg.snapshot_windows(0).total, 0);
    }
}
