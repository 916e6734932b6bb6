//! Aggregation of per-call measurements into per-client and fleet reports,
//! and their JSON/CSV serializations.
//!
//! The JSON shape follows the `results/experiments.json` family the sim's
//! Table 3/4 cells use — per-client `cells` with `{mean, max, min}` summary
//! triples — so live runs drop into the same comparison tooling.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use ninf_client::CallTiming;
use ninf_protocol::CallStat;

use crate::spec::{fnv1a, schedule_bytes};
use ninf_obs::LogHistogram;

/// How one call ended, from the client's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Reply validated.
    Ok,
    /// The server reported an application error (never retried).
    Remote,
    /// A deadline elapsed.
    Timeout,
    /// Transport-level failure (refused, reset, garbled frame, …).
    Transport,
}

impl Outcome {
    /// Short label for CSV/JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Remote => "remote",
            Outcome::Timeout => "timeout",
            Outcome::Transport => "transport",
        }
    }
}

/// One live call as observed by the issuing client.
#[derive(Debug, Clone)]
pub struct CallResult {
    /// Client index (0-based).
    pub client: usize,
    /// Call sequence number within the client.
    pub seq: usize,
    /// Routine name.
    pub routine: &'static str,
    /// First scalar argument (`n` / `m`).
    pub n: i64,
    /// When the call was *supposed* to start (open loop) or did start
    /// (closed loop), seconds from run start.
    pub scheduled: f64,
    /// `T_submit`, client clock: seconds from run start at submission.
    pub t_submit: f64,
    /// Seconds from run start when the reply (or error) was seen.
    pub t_complete: f64,
    /// Client-side segment decomposition.
    pub timing: CallTiming,
    /// Outcome class.
    pub outcome: Outcome,
    /// Kernel flop count, when defined for the routine.
    pub flops: Option<u64>,
    /// Trace id minted for this call (0 when tracing was off), joining the
    /// client-side record to the cross-process flight-recorder spans.
    pub trace_id: u64,
}

impl CallResult {
    /// Per-call delivered Mflops (`flops / total-time`), when defined.
    pub fn mflops(&self) -> Option<f64> {
        let f = self.flops? as f64;
        (self.timing.total > 0.0 && self.outcome == Outcome::Ok)
            .then(|| f / self.timing.total / 1e6)
    }
}

/// `{mean, max, min}` summary triple, the sim's table-cell idiom.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest sample.
    pub max: f64,
    /// Smallest sample.
    pub min: f64,
}

impl Summary {
    /// Summarize a sample set; all-zero when empty.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Self {
        let mut n = 0u64;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for s in samples {
            n += 1;
            sum += s;
            min = min.min(s);
            max = max.max(s);
        }
        if n == 0 {
            return Summary::default();
        }
        Summary {
            mean: sum / n as f64,
            max,
            min,
        }
    }

    fn to_json(self) -> serde_json::Value {
        serde_json::json!({ "mean": self.mean, "max": self.max, "min": self.min })
    }
}

/// Aggregate view of one client (or of the whole fleet).
#[derive(Debug, Clone)]
pub struct ClientSummary {
    /// Client index; `usize::MAX` for the fleet aggregate.
    pub client: usize,
    /// Calls issued.
    pub calls: usize,
    /// Calls that returned a validated reply.
    pub ok: usize,
    /// Application errors.
    pub remote_errors: usize,
    /// Deadline expiries.
    pub timeouts: usize,
    /// Transport failures.
    pub transport_errors: usize,
    /// Extra attempts beyond the first, summed over calls.
    pub retries: usize,
    /// Per-call end-to-end latency (successful calls).
    pub latency: Summary,
    /// p50 end-to-end latency, from the log histogram.
    pub p50: f64,
    /// p95 end-to-end latency.
    pub p95: f64,
    /// p99 end-to-end latency.
    pub p99: f64,
    /// Per-call delivered Mflops (calls with a defined flop count).
    pub perf: Summary,
    /// Calls with a defined flop count (perf sample size).
    pub perf_calls: usize,
    /// Successful calls per active second.
    pub calls_per_sec: f64,
}

impl ClientSummary {
    /// Fold `calls` (all belonging to one client, or the fleet) into a
    /// summary. `wall` is the active wall-clock seconds for the throughput
    /// denominator.
    pub fn aggregate(client: usize, calls: &[CallResult], wall: f64) -> Self {
        let mut hist = LogHistogram::new();
        let mut lat = Vec::new();
        let mut perf = Vec::new();
        let mut ok = 0;
        let mut remote = 0;
        let mut timeouts = 0;
        let mut transport = 0;
        let mut retries = 0;
        for c in calls {
            match c.outcome {
                Outcome::Ok => {
                    ok += 1;
                    hist.record(c.timing.total);
                    lat.push(c.timing.total);
                }
                Outcome::Remote => remote += 1,
                Outcome::Timeout => timeouts += 1,
                Outcome::Transport => transport += 1,
            }
            retries += c.timing.attempts.saturating_sub(1) as usize;
            if let Some(m) = c.mflops() {
                perf.push(m);
            }
        }
        ClientSummary {
            client,
            calls: calls.len(),
            ok,
            remote_errors: remote,
            timeouts,
            transport_errors: transport,
            retries,
            latency: Summary::of(lat),
            p50: hist.percentile(50.0),
            p95: hist.percentile(95.0),
            p99: hist.percentile(99.0),
            perf: Summary::of(perf.iter().copied()),
            perf_calls: perf.len(),
            calls_per_sec: if wall > 0.0 { ok as f64 / wall } else { 0.0 },
        }
    }

    /// Errors of any class.
    pub fn errors(&self) -> usize {
        self.remote_errors + self.timeouts + self.transport_errors
    }

    fn to_json(&self) -> serde_json::Value {
        let mut cell = serde_json::Map::new();
        if self.client != usize::MAX {
            cell.insert("client".into(), serde_json::json!(self.client as u64));
        }
        cell.insert("calls".into(), serde_json::json!(self.calls as u64));
        cell.insert("ok".into(), serde_json::json!(self.ok as u64));
        cell.insert("errors".into(), serde_json::json!(self.errors() as u64));
        cell.insert(
            "remote_errors".into(),
            serde_json::json!(self.remote_errors as u64),
        );
        cell.insert("timeouts".into(), serde_json::json!(self.timeouts as u64));
        cell.insert(
            "transport_errors".into(),
            serde_json::json!(self.transport_errors as u64),
        );
        cell.insert("retries".into(), serde_json::json!(self.retries as u64));
        cell.insert("latency".into(), self.latency.to_json());
        cell.insert("latency_p50".into(), serde_json::json!(self.p50));
        cell.insert("latency_p95".into(), serde_json::json!(self.p95));
        cell.insert("latency_p99".into(), serde_json::json!(self.p99));
        if self.perf_calls > 0 {
            cell.insert("perf".into(), self.perf.to_json());
        }
        cell.insert(
            "calls_per_sec".into(),
            serde_json::json!(self.calls_per_sec),
        );
        serde_json::Value::Object(cell)
    }
}

/// The server-side half of the measurement: §4.1 timelines fetched over
/// `QueryStats`, decomposed per the paper.
#[derive(Debug, Clone)]
pub struct ServerView {
    /// Records joined.
    pub records: usize,
    /// `T_response = T_enqueue − T_submit`.
    pub response: Summary,
    /// `T_wait = T_dequeue − T_enqueue`.
    pub wait: Summary,
    /// Service time `T_complete − T_dequeue`.
    pub service: Summary,
}

impl ServerView {
    /// Decompose a set of server records.
    pub fn from_stats(records: &[CallStat]) -> Self {
        ServerView {
            records: records.len(),
            response: Summary::of(records.iter().map(CallStat::response)),
            wait: Summary::of(records.iter().map(CallStat::wait)),
            service: Summary::of(records.iter().map(CallStat::service)),
        }
    }

    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "records": self.records as u64,
            "response": self.response.to_json(),
            "wait": self.wait.to_json(),
            "service": self.service.to_json(),
        })
    }
}

/// One complete run of a scenario at one client count.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Workload description (routine mix, arrival process).
    pub workload: String,
    /// Concurrent clients.
    pub clients: usize,
    /// Seed the whole run derives from.
    pub seed: u64,
    /// Wall-clock seconds from first submission to last completion.
    pub wall_secs: f64,
    /// Every call, in client-then-sequence order.
    pub calls: Vec<CallResult>,
    /// Per-client aggregates.
    pub per_client: Vec<ClientSummary>,
    /// Fleet-wide aggregate.
    pub fleet: ClientSummary,
    /// Server-side §4.1 decomposition (absent if the stats query failed).
    pub server: Option<ServerView>,
    /// Open-loop arrival schedules per client (empty for closed loops).
    pub schedules: Vec<Vec<f64>>,
    /// FNV-1a fingerprint over the concatenated schedule bytes.
    pub schedule_fnv: u64,
}

impl RunReport {
    /// Aggregate a finished run.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        scenario: &str,
        workload: String,
        clients: usize,
        seed: u64,
        wall_secs: f64,
        calls: Vec<CallResult>,
        server: Option<ServerView>,
        schedules: Vec<Vec<f64>>,
    ) -> Self {
        let per_client = (0..clients)
            .map(|i| {
                let own: Vec<CallResult> =
                    calls.iter().filter(|c| c.client == i).cloned().collect();
                ClientSummary::aggregate(i, &own, wall_secs)
            })
            .collect();
        let fleet = ClientSummary::aggregate(usize::MAX, &calls, wall_secs);
        let mut sched_bytes = Vec::new();
        for s in &schedules {
            sched_bytes.extend_from_slice(&schedule_bytes(s));
        }
        RunReport {
            scenario: scenario.to_owned(),
            workload,
            clients,
            seed,
            wall_secs,
            calls,
            per_client,
            fleet,
            server,
            schedules,
            schedule_fnv: fnv1a(&sched_bytes),
        }
    }

    /// Aggregate delivered Mflops of the whole fleet (total flops over wall
    /// time), when any call had a defined flop count.
    pub fn aggregate_mflops(&self) -> Option<f64> {
        let total: u64 = self
            .calls
            .iter()
            .filter(|c| c.outcome == Outcome::Ok)
            .filter_map(|c| c.flops)
            .sum();
        (total > 0 && self.wall_secs > 0.0).then(|| total as f64 / self.wall_secs / 1e6)
    }

    /// The experiments.json-family document of this run.
    pub fn to_json(&self) -> serde_json::Value {
        let mut doc = serde_json::Map::new();
        doc.insert("scenario".into(), serde_json::json!(self.scenario.as_str()));
        doc.insert("workload".into(), serde_json::json!(self.workload.as_str()));
        doc.insert("clients".into(), serde_json::json!(self.clients as u64));
        doc.insert("seed".into(), serde_json::json!(self.seed));
        doc.insert("wall_secs".into(), serde_json::json!(self.wall_secs));
        doc.insert(
            "cells".into(),
            serde_json::Value::Array(self.per_client.iter().map(|c| c.to_json()).collect()),
        );
        let mut fleet = match self.fleet.to_json() {
            serde_json::Value::Object(m) => m,
            _ => unreachable!("fleet summary serializes to an object"),
        };
        if let Some(agg) = self.aggregate_mflops() {
            fleet.insert("aggregate_mflops".into(), serde_json::json!(agg));
        }
        if let Some(server) = &self.server {
            // The §4.1 decomposition, surfaced at fleet level for direct
            // comparison with sim table cells.
            fleet.insert("response".into(), server.response.to_json());
            fleet.insert("wait".into(), server.wait.to_json());
        }
        doc.insert("fleet".into(), serde_json::Value::Object(fleet));
        if let Some(server) = &self.server {
            doc.insert("server".into(), server.to_json());
        }
        doc.insert(
            "schedule_fnv".into(),
            serde_json::json!(format!("{:#018x}", self.schedule_fnv)),
        );
        doc.insert(
            "schedules".into(),
            serde_json::Value::Array(
                self.schedules
                    .iter()
                    .map(|s| {
                        serde_json::Value::Array(s.iter().map(|t| serde_json::json!(*t)).collect())
                    })
                    .collect(),
            ),
        );
        serde_json::Value::Object(doc)
    }

    /// Write `<scenario>_c<clients>_calls.csv` (per-call records) and
    /// `<scenario>_c<clients>_clients.csv` (per-client summaries) under
    /// `dir`; returns the paths written.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let stem = format!("{}_c{}", self.scenario, self.clients);
        let calls_path = dir.join(format!("{stem}_calls.csv"));
        let mut f = std::fs::File::create(&calls_path)?;
        writeln!(
            f,
            "client,seq,routine,n,outcome,scheduled,t_submit,t_complete,total,connect,interface,marshal,roundtrip,attempts,request_bytes,reply_bytes,mflops,trace_id"
        )?;
        for c in &self.calls {
            writeln!(
                f,
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{:016x}",
                c.client,
                c.seq,
                c.routine,
                c.n,
                c.outcome.label(),
                c.scheduled,
                c.t_submit,
                c.t_complete,
                c.timing.total,
                c.timing.connect,
                c.timing.interface,
                c.timing.marshal,
                c.timing.roundtrip,
                c.timing.attempts,
                c.timing.request_bytes,
                c.timing.reply_bytes,
                c.mflops().map(|m| format!("{m:.3}")).unwrap_or_default(),
                c.trace_id,
            )?;
        }

        let clients_path = dir.join(format!("{stem}_clients.csv"));
        let mut f = std::fs::File::create(&clients_path)?;
        writeln!(
            f,
            "client,calls,ok,errors,retries,latency_mean,latency_p50,latency_p95,latency_p99,perf_mean,calls_per_sec"
        )?;
        for s in &self.per_client {
            writeln!(
                f,
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.3},{:.3}",
                s.client,
                s.calls,
                s.ok,
                s.errors(),
                s.retries,
                s.latency.mean,
                s.p50,
                s.p95,
                s.p99,
                s.perf.mean,
                s.calls_per_sec,
            )?;
        }
        Ok(vec![calls_path, clients_path])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(client: usize, seq: usize, total: f64, outcome: Outcome) -> CallResult {
        CallResult {
            client,
            seq,
            routine: "linpack",
            n: 128,
            scheduled: seq as f64,
            t_submit: seq as f64,
            t_complete: seq as f64 + total,
            timing: CallTiming {
                total,
                roundtrip: total,
                attempts: 1,
                request_bytes: 1000,
                reply_bytes: 100,
                ..CallTiming::default()
            },
            outcome,
            flops: Some(1_000_000),
            trace_id: 0,
        }
    }

    #[test]
    fn summary_of_samples() {
        let s = Summary::of([1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(Summary::of([]), Summary::default());
    }

    #[test]
    fn aggregate_counts_outcomes_and_perf() {
        let calls = vec![
            call(0, 0, 0.010, Outcome::Ok),
            call(0, 1, 0.020, Outcome::Ok),
            call(0, 2, 0.5, Outcome::Timeout),
            call(0, 3, 0.001, Outcome::Transport),
            call(0, 4, 0.001, Outcome::Remote),
        ];
        let s = ClientSummary::aggregate(0, &calls, 1.0);
        assert_eq!(s.calls, 5);
        assert_eq!(s.ok, 2);
        assert_eq!(s.errors(), 3);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.transport_errors, 1);
        assert_eq!(s.remote_errors, 1);
        // 1 MFLOP in 10 ms = 100 Mflops; in 20 ms = 50 Mflops.
        assert!((s.perf.mean - 75.0).abs() < 1e-9, "{}", s.perf.mean);
        assert_eq!(s.perf_calls, 2);
        assert!((s.calls_per_sec - 2.0).abs() < 1e-12);
        assert!(s.p50 > 0.0 && s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn report_json_has_table_shape() {
        let calls = vec![
            call(0, 0, 0.010, Outcome::Ok),
            call(1, 0, 0.020, Outcome::Ok),
        ];
        let report = RunReport::build(
            "unit",
            "linpack n=128".into(),
            2,
            7,
            0.5,
            calls,
            Some(ServerView::from_stats(&[])),
            vec![vec![0.1, 0.2], vec![0.15]],
        );
        let doc = report.to_json();
        assert_eq!(doc["scenario"], "unit");
        assert_eq!(doc["clients"], 2);
        assert_eq!(doc["seed"], 7);
        let cells = doc["cells"].as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert!(cells[0]["perf"]["mean"].as_f64().unwrap() > 0.0);
        assert!(doc["fleet"]["aggregate_mflops"].as_f64().unwrap() > 0.0);
        assert!(doc["fleet"]["errors"].as_u64() == Some(0));
        assert!(doc["schedule_fnv"].as_str().unwrap().starts_with("0x"));
        assert_eq!(doc["schedules"].as_array().unwrap().len(), 2);
        // Same schedules → same fingerprint; different → different.
        let again = RunReport::build(
            "unit",
            "linpack n=128".into(),
            2,
            7,
            0.5,
            Vec::new(),
            None,
            vec![vec![0.1, 0.2], vec![0.15]],
        );
        assert_eq!(report.schedule_fnv, again.schedule_fnv);
        let other = RunReport::build(
            "unit",
            "linpack n=128".into(),
            2,
            7,
            0.5,
            Vec::new(),
            None,
            vec![vec![0.1, 0.2], vec![0.150001]],
        );
        assert_ne!(report.schedule_fnv, other.schedule_fnv);
    }

    #[test]
    fn csv_files_written_with_headers() {
        let dir = std::env::temp_dir().join(format!("ninf-loadgen-csv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = RunReport::build(
            "unit",
            "w".into(),
            1,
            1,
            1.0,
            vec![call(0, 0, 0.010, Outcome::Ok)],
            None,
            vec![],
        );
        let files = report.write_csv(&dir).unwrap();
        assert_eq!(files.len(), 2);
        let calls_csv = std::fs::read_to_string(&files[0]).unwrap();
        assert!(calls_csv.starts_with("client,seq,routine"));
        assert_eq!(calls_csv.lines().count(), 2);
        let clients_csv = std::fs::read_to_string(&files[1]).unwrap();
        assert!(clients_csv.starts_with("client,calls,ok"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn server_view_decomposes_per_paper() {
        let stats = vec![CallStat {
            routine: "linpack".into(),
            n: Some(600),
            request_bytes: 0,
            reply_bytes: 0,
            t_submit: 1.0,
            t_enqueue: 1.5,
            t_dequeue: 3.0,
            t_complete: 10.0,
        }];
        let v = ServerView::from_stats(&stats);
        assert_eq!(v.records, 1);
        assert!((v.response.mean - 0.5).abs() < 1e-12);
        assert!((v.wait.mean - 1.5).abs() < 1e-12);
        assert!((v.service.mean - 7.0).abs() < 1e-12);
    }
}
