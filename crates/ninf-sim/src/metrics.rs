//! Per-call measurements and the max/min/mean summaries of the paper's
//! tables.

use serde::Serialize;

/// max/min/mean triple, as every table cell reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Maximum observed.
    pub max: f64,
    /// Minimum observed.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarize a sample; zeros if empty.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                max: 0.0,
                min: 0.0,
                mean: 0.0,
            };
        }
        let mut max = f64::NEG_INFINITY;
        let mut min = f64::INFINITY;
        let mut sum = 0.0;
        for &s in samples {
            max = max.max(s);
            min = min.min(s);
            sum += s;
        }
        Summary {
            max,
            min,
            mean: sum / samples.len() as f64,
        }
    }

    /// Render as the paper's `max/min/mean` cell.
    pub fn cell(&self, decimals: usize) -> String {
        format!(
            "{:.d$}/{:.d$}/{:.d$}",
            self.max,
            self.min,
            self.mean,
            d = decimals
        )
    }
}

/// One completed simulated `Ninf_call`.
#[derive(Debug, Clone, PartialEq)]
pub struct CallMetrics {
    /// Issuing client index.
    pub client: usize,
    /// §4.1 lifecycle timestamps (seconds of virtual time).
    pub t_submit: f64,
    /// Connection accepted at the server.
    pub t_enqueue: f64,
    /// Ninf executable forked.
    pub t_dequeue: f64,
    /// Results fully received by the client.
    pub t_complete: f64,
    /// Seconds spent in argument/result transfer phases.
    pub transfer_seconds: f64,
    /// Array bytes moved (both directions).
    pub bytes: f64,
    /// Work units (flops or EP ops) of the call.
    pub work_units: f64,
}

impl CallMetrics {
    /// Client-observed performance in M(fl)ops: `work / T_Ninf_call`.
    pub fn performance(&self) -> f64 {
        self.work_units / ((self.t_complete - self.t_submit) * 1e6)
    }

    /// `T_response = T_enqueue − T_submit`.
    pub fn response(&self) -> f64 {
        self.t_enqueue - self.t_submit
    }

    /// `T_wait = T_dequeue − T_enqueue`.
    pub fn wait(&self) -> f64 {
        self.t_dequeue - self.t_enqueue
    }

    /// Observed transfer throughput in MB/s (marshalling included, §3.2).
    pub fn throughput_mbs(&self) -> f64 {
        if self.transfer_seconds <= 0.0 {
            return 0.0;
        }
        self.bytes / self.transfer_seconds / 1e6
    }
}

impl Serialize for Summary {
    fn to_json_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("max".to_string(), self.max.to_json_value());
        m.insert("min".to_string(), self.min.to_json_value());
        m.insert("mean".to_string(), self.mean.to_json_value());
        serde::Value::Object(m)
    }
}

/// One cell of a results table (fixed workload × client count).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Workload label ("linpack n=600", "EP 2^24").
    pub workload: String,
    /// Number of clients.
    pub clients: usize,
    /// Client-observed performance (Mflops / Mops).
    pub perf: Summary,
    /// Response time (s).
    pub response: Summary,
    /// Wait time (s).
    pub wait: Summary,
    /// Per-call transfer throughput (MB/s).
    pub throughput: Summary,
    /// Server CPU utilization (%).
    pub cpu_utilization: f64,
    /// Mean damped load average.
    pub load_average: f64,
    /// Peak damped load average.
    pub load_max: f64,
    /// Completed calls in the measurement window.
    pub times: usize,
    /// Jain's fairness index over per-call performance (1 = perfectly fair
    /// service across calls; the paper's widening max/min spread under load
    /// is this number falling).
    pub fairness: f64,
}

impl Serialize for CellResult {
    fn to_json_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("workload".to_string(), self.workload.to_json_value());
        m.insert("clients".to_string(), self.clients.to_json_value());
        m.insert("perf".to_string(), self.perf.to_json_value());
        m.insert("response".to_string(), self.response.to_json_value());
        m.insert("wait".to_string(), self.wait.to_json_value());
        m.insert("throughput".to_string(), self.throughput.to_json_value());
        m.insert(
            "cpu_utilization".to_string(),
            self.cpu_utilization.to_json_value(),
        );
        m.insert(
            "load_average".to_string(),
            self.load_average.to_json_value(),
        );
        m.insert("load_max".to_string(), self.load_max.to_json_value());
        m.insert("times".to_string(), self.times.to_json_value());
        m.insert("fairness".to_string(), self.fairness.to_json_value());
        serde::Value::Object(m)
    }
}

impl CellResult {
    /// Aggregate per-call metrics into a table cell.
    pub fn from_calls(
        workload: String,
        clients: usize,
        calls: &[CallMetrics],
        cpu_utilization: f64,
        load_average: f64,
        load_max: f64,
    ) -> CellResult {
        let perf: Vec<f64> = calls.iter().map(|c| c.performance()).collect();
        let response: Vec<f64> = calls.iter().map(|c| c.response()).collect();
        let wait: Vec<f64> = calls.iter().map(|c| c.wait()).collect();
        let throughput: Vec<f64> = calls.iter().map(|c| c.throughput_mbs()).collect();
        CellResult {
            workload,
            clients,
            perf: Summary::of(&perf),
            fairness: jain_index(&perf),
            response: Summary::of(&response),
            wait: Summary::of(&wait),
            throughput: Summary::of(&throughput),
            cpu_utilization,
            load_average,
            load_max,
            times: calls.len(),
        }
    }
}

/// Jain's fairness index `( Σx )² / ( n·Σx² )` over a sample; 1.0 when all
/// equal, →1/n when one call hogs everything. 0 for empty samples.
pub fn jain_index(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let sum: f64 = samples.iter().sum();
    let sum_sq: f64 = samples.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 0.0;
    }
    sum * sum / (samples.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s = Summary::of(&[1.0, 3.0, 2.0]);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.mean, 2.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::of(&[]);
        assert_eq!((s.max, s.min, s.mean), (0.0, 0.0, 0.0));
    }

    #[test]
    fn summary_cell_formats_like_the_paper() {
        let s = Summary {
            max: 72.71,
            min: 69.9,
            mean: 71.16,
        };
        assert_eq!(s.cell(2), "72.71/69.90/71.16");
        assert_eq!(s.cell(0), "73/70/71");
    }

    #[test]
    fn call_metrics_derivations() {
        let c = CallMetrics {
            client: 0,
            t_submit: 10.0,
            t_enqueue: 10.02,
            t_dequeue: 10.05,
            t_complete: 12.05,
            transfer_seconds: 1.2,
            bytes: 3e6,
            work_units: 1.4472e8,
        };
        assert!((c.response() - 0.02).abs() < 1e-12);
        assert!((c.wait() - 0.03).abs() < 1e-12);
        assert!((c.performance() - 1.4472e8 / (2.05e6)).abs() < 1e-6);
        assert!((c.throughput_mbs() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_transfer_time_gives_zero_throughput() {
        let c = CallMetrics {
            client: 0,
            t_submit: 0.0,
            t_enqueue: 0.0,
            t_dequeue: 0.0,
            t_complete: 1.0,
            transfer_seconds: 0.0,
            bytes: 100.0,
            work_units: 1.0,
        };
        assert_eq!(c.throughput_mbs(), 0.0);
    }

    #[test]
    fn jain_index_properties() {
        assert_eq!(jain_index(&[]), 0.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One hog among n: index -> 1/n.
        let idx = jain_index(&[100.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
        // Mild spread: between 1/n and 1.
        let idx = jain_index(&[1.0, 2.0, 3.0]);
        assert!(idx > 1.0 / 3.0 && idx < 1.0);
    }

    #[test]
    fn cell_result_aggregates() {
        let calls = vec![
            CallMetrics {
                client: 0,
                t_submit: 0.0,
                t_enqueue: 0.1,
                t_dequeue: 0.2,
                t_complete: 2.0,
                transfer_seconds: 1.0,
                bytes: 2e6,
                work_units: 1e8,
            },
            CallMetrics {
                client: 1,
                t_submit: 0.0,
                t_enqueue: 0.2,
                t_dequeue: 0.5,
                t_complete: 4.0,
                transfer_seconds: 2.0,
                bytes: 2e6,
                work_units: 1e8,
            },
        ];
        let cell = CellResult::from_calls("linpack n=600".into(), 2, &calls, 42.0, 1.5, 3.0);
        assert_eq!(cell.times, 2);
        assert_eq!(cell.clients, 2);
        assert!(cell.perf.max > cell.perf.min);
        assert_eq!(cell.cpu_utilization, 42.0);
    }
}
