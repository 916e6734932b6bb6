//! Coordinated saturation sweeps: ramp offered load stage by stage across
//! the client fleet, poll every server while the ramp runs, and join both
//! sides into one clock-skew-corrected timeline with an automatic
//! saturation-knee estimate.
//!
//! This is the DiPerF shape: instead of hand-picking a client-count grid
//! and eyeballing where throughput flattens, one controller drives the
//! open-loop Poisson driver through a deterministic rate ramp (stage `k`
//! offers `base × (start_mult + k·step_mult)` Hz per client), while the
//! run's cursor poller ([`crate::poll`]) drains every server's `QueryMetrics`
//! window ring and §4.1 records. Each client sends a due call at its time
//! whatever is still in flight, up to [`crate::OPEN_INFLIGHT_CAP`] calls; a call
//! due with every slot busy waits for one and is counted in the stage's
//! `generator_capped`, so a stage that offers more than the tester can hold
//! says so instead of quietly offering less. Each poll brackets the reply
//! between two local timestamps; the minimum-RTT poll's midpoint fixes the
//! remote window clock's offset against the sweep epoch, so server-side
//! series land on the same time axis as client-side call records without
//! assuming synchronized clocks.
//!
//! The knee estimate follows the delivered-rate rule: scanning stages in
//! order, saturation is declared at the first stage that delivered less
//! than it issued, by more than [`KNEE_SHORTFALL_PCT`] percent (or whose
//! calls all fail); the knee is the last stage before that. A server that
//! keeps up answers a stage's calls within the stage, however slow one of
//! them is; one that cannot drains a backlog past the stage's end. Same-seed sweeps produce byte-identical offered-load
//! schedules (`schedule_fnv` proves it), so a knee shift between two runs
//! is a behavior change, never schedule noise.

use std::time::{Duration, Instant};

use ninf_protocol::{fnv1a, MetricFrame, MetricKind, ProtocolError, ProtocolResult};

use crate::poll::{Poller, ServerPolls};
use crate::report::{CallResult, Outcome, ServerView, Summary};
use crate::runner::{ignore_replies, materialize, sleep_until, Fleet, Inputs};
use crate::scenario::Scenario;
use crate::spec::{schedule_bytes, Arrival, Phases, WorkloadSpec};

/// Sweep shape: how many stages, how long, how steep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Ramp stages (each at a fixed offered rate).
    pub stages: usize,
    /// Seconds each stage offers load for.
    pub stage_secs: f64,
    /// Rate multiplier of stage 0 (relative to the scenario's base rate).
    pub start_mult: f64,
    /// Multiplier increment per stage.
    pub step_mult: f64,
    /// Metric window interval armed on spawned servers, and the timeline
    /// bucket width.
    pub window: Duration,
}

/// How far, in percent of the rate a stage issued, its delivered
/// throughput may fall short before the stage counts as saturated.
pub const KNEE_SHORTFALL_PCT: f64 = 10.0;

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            stages: 6,
            stage_secs: 2.0,
            start_mult: 1.0,
            step_mult: 1.0,
            window: Duration::from_millis(250),
        }
    }
}

impl SweepConfig {
    /// Offered-rate multiplier of stage `k`.
    pub fn multiplier(&self, k: usize) -> f64 {
        self.start_mult + k as f64 * self.step_mult
    }
}

/// One stage's curve point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Stage index (0-based).
    pub stage: usize,
    /// Offered rate per client, Hz.
    pub rate_hz_per_client: f64,
    /// Aggregate offered rate actually scheduled (Σ schedule lengths /
    /// stage seconds), Hz.
    pub offered_hz: f64,
    /// Seconds from sweep epoch when the stage actually started issuing.
    pub t_start: f64,
    /// Seconds from the stage's start to its last completion, never less
    /// than the offered window: a saturated stage drains its backlog past
    /// the window's end.
    pub span_s: f64,
    /// Calls issued.
    pub calls: usize,
    /// Calls that returned a validated reply.
    pub ok: usize,
    /// Calls that did not.
    pub errors: usize,
    /// Calls that came due with every slot of their client busy.
    pub generator_capped: usize,
    /// Successful calls per second of the stage's span.
    pub throughput_hz: f64,
    /// End-to-end latency of successful calls.
    pub latency: Summary,
    /// Exact p95 of successful-call latency (small per-stage counts, so
    /// sorted-sample percentile, not the log histogram).
    pub latency_p95_s: f64,
}

/// Where the curve bends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KneeEstimate {
    /// Last stage before saturation (or the last stage measured).
    pub stage: usize,
    /// Offered rate at the knee, Hz.
    pub offered_hz: f64,
    /// Delivered throughput at the knee, Hz.
    pub throughput_hz: f64,
    /// Mean latency at the knee, seconds.
    pub latency_mean_s: f64,
    /// Whether saturation was actually observed (false: the ramp never
    /// bent and the knee is a lower bound).
    pub saturated: bool,
}

/// One remote process's window series, as drained during the sweep.
#[derive(Debug, Clone)]
pub struct RemoteSeries {
    /// `server@<addr>` or `metaserver`.
    pub source: String,
    /// Seconds to add to a frame's `t` to land it on the sweep epoch
    /// (minimum-RTT midpoint estimate).
    pub clock_skew_s: f64,
    /// Remote window interval; 0 means the remote registry was disarmed
    /// and the series is necessarily empty.
    pub interval_s: f64,
    /// Windows the remote ever closed.
    pub total: u64,
    /// Windows the remote evicted before we fetched them.
    pub dropped: u64,
    /// Successful polls made.
    pub polls: usize,
    /// Every fetched frame, oldest first, each exactly once.
    pub frames: Vec<MetricFrame>,
}

/// One timeline bucket of client-side activity.
#[derive(Debug, Clone, Default)]
pub struct ClientWindow {
    /// Bucket index (global, `t / window_secs`).
    pub window: u64,
    /// Bucket start, seconds from sweep epoch.
    pub t: f64,
    /// Calls the schedules offered in this bucket.
    pub offered: usize,
    /// Calls actually submitted in this bucket.
    pub issued: usize,
    /// Calls completing successfully in this bucket.
    pub ok: usize,
    /// Calls completing in error in this bucket.
    pub errors: usize,
    /// Mean latency of the bucket's successful completions, seconds.
    pub latency_mean_s: f64,
}

/// The merged per-window fleet view: client buckets plus every remote
/// series on the sweep-epoch time axis.
#[derive(Debug, Clone)]
pub struct SweepTimeline {
    /// Bucket width, seconds.
    pub window_secs: f64,
    /// Client-side buckets, sparse (empty buckets omitted).
    pub client: Vec<ClientWindow>,
    /// Per-process window series.
    pub remotes: Vec<RemoteSeries>,
}

/// A finished sweep: the curve, the knee, and the merged timeline.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Scenario name.
    pub scenario: String,
    /// Concurrent clients per stage.
    pub clients: usize,
    /// Seed the whole sweep derives from.
    pub seed: u64,
    /// Seconds each stage offered load for.
    pub stage_secs: f64,
    /// Scenario base rate, Hz per client.
    pub base_rate_hz: f64,
    /// One point per stage, in ramp order.
    pub points: Vec<SweepPoint>,
    /// Knee estimate (None only for an empty sweep).
    pub knee: Option<KneeEstimate>,
    /// Merged timeline.
    pub timeline: SweepTimeline,
    /// The §4.1 view of every record the servers kept during the sweep.
    pub server: Option<ServerView>,
    /// FNV-1a over every stage schedule — same seed ⇒ same fingerprint.
    pub schedule_fnv: u64,
    /// Whole-sweep wall clock, seconds.
    pub wall_secs: f64,
}

/// Seed for stage `k`, mixed so stages draw independent arrival processes
/// while staying a pure function of `(seed, k)`.
fn stage_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The workload spec stage `k` runs: same mix and options, offered rate
/// scaled by the stage multiplier, phases collapsed to one steady window.
fn stage_spec(spec: &WorkloadSpec, base_rate: f64, cfg: &SweepConfig, k: usize) -> WorkloadSpec {
    let mut s = spec.clone();
    s.arrival = Arrival::Open {
        rate_hz: base_rate * cfg.multiplier(k),
    };
    s.phases = Phases {
        ramp_up: 0.0,
        steady: cfg.stage_secs,
        ramp_down: 0.0,
    };
    s.calls_per_client = 0;
    s
}

/// Exact percentile over a small sample set.
fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Delivered-rate knee estimate over a ramp curve.
///
/// Scanning stages in ramp order, stage `k` is saturated when its
/// delivered `throughput_hz` (successful calls over the stage's span, which
/// runs to its last completion) falls below the rate it issued,
/// `offered_hz`, by more than `shortfall_pct` percent, or when it issued
/// calls and none succeeded (collapse). The open arm issues every
/// scheduled call, a capped one late, so `offered_hz` is the stage's calls
/// over its window. The knee is stage `k−1` with `saturated = true`; if no
/// stage falls short the last point is returned with `saturated = false`.
/// Latency alone never marks a stage: one slow call in a stage that
/// delivered all it was offered is not saturation.
pub fn estimate_knee(points: &[SweepPoint], shortfall_pct: f64) -> Option<KneeEstimate> {
    let at = |p: &SweepPoint, saturated: bool| KneeEstimate {
        stage: p.stage,
        offered_hz: p.offered_hz,
        throughput_hz: p.throughput_hz,
        latency_mean_s: p.latency.mean,
        saturated,
    };
    let keeps_up = 1.0 - shortfall_pct / 100.0;
    for k in 1..points.len() {
        let cur = &points[k];
        let collapse = cur.calls > 0 && cur.ok == 0;
        let short = cur.throughput_hz < keeps_up * cur.offered_hz;
        if collapse || short {
            return Some(at(&points[k - 1], true));
        }
    }
    points.last().map(|p| at(p, false))
}

/// One stage's curve point from its calls (times on the sweep epoch), for
/// a stage that began issuing at `t_start`.
fn stage_point(
    k: usize,
    cfg: &SweepConfig,
    base_rate: f64,
    offered: usize,
    t_start: f64,
    calls: &[CallResult],
) -> SweepPoint {
    let last = calls.iter().map(|c| c.t_complete).fold(t_start, f64::max);
    let span_s = (last - t_start).max(cfg.stage_secs);
    let mut lats: Vec<f64> = calls
        .iter()
        .filter(|c| c.outcome == Outcome::Ok)
        .map(CallResult::latency)
        .collect();
    lats.sort_by(|a, b| a.total_cmp(b));
    SweepPoint {
        stage: k,
        rate_hz_per_client: base_rate * cfg.multiplier(k),
        offered_hz: offered as f64 / cfg.stage_secs,
        t_start,
        span_s,
        calls: calls.len(),
        ok: lats.len(),
        errors: calls.len() - lats.len(),
        generator_capped: calls.iter().filter(|c| c.capped).count(),
        throughput_hz: lats.len() as f64 / span_s,
        latency: Summary::of(lats.iter().copied()),
        latency_p95_s: exact_percentile(&lats, 95.0),
    }
}

/// A server's window polls as a series: the minimum-RTT poll fixes the
/// remote clock's offset against the sweep epoch.
fn remote_series(p: ServerPolls) -> RemoteSeries {
    let best = p
        .windows
        .iter()
        .min_by(|a, b| (a.t1 - a.t0).total_cmp(&(b.t1 - b.t0)));
    let mut series = RemoteSeries {
        source: format!("server@{}", p.addr),
        clock_skew_s: best.map_or(0.0, |w| (w.t0 + w.t1) / 2.0 - w.snap.now),
        interval_s: 0.0,
        total: 0,
        dropped: 0,
        polls: p.windows.len(),
        frames: Vec::new(),
    };
    for w in p.windows {
        series.interval_s = w.snap.interval;
        series.total = w.snap.total;
        series.dropped = w.snap.dropped;
        series.frames.extend(w.snap.frames);
    }
    series
}

/// Bucket client-side schedules and call records into windows.
fn client_timeline(
    window_secs: f64,
    schedules: &[(f64, Vec<f64>)],
    calls: &[CallResult],
) -> Vec<ClientWindow> {
    use std::collections::BTreeMap;
    let bucket = |t: f64| (t.max(0.0) / window_secs) as u64;
    let mut map: BTreeMap<u64, (ClientWindow, Vec<f64>)> = BTreeMap::new();
    let slot = |w: u64, map: &mut BTreeMap<u64, (ClientWindow, Vec<f64>)>| {
        map.entry(w).or_insert_with(|| {
            (
                ClientWindow {
                    window: w,
                    t: w as f64 * window_secs,
                    ..ClientWindow::default()
                },
                Vec::new(),
            )
        });
    };
    for (offset, schedule) in schedules {
        for s in schedule {
            let w = bucket(offset + s);
            slot(w, &mut map);
            map.get_mut(&w).unwrap().0.offered += 1;
        }
    }
    for c in calls {
        let w = bucket(c.t_submit);
        slot(w, &mut map);
        map.get_mut(&w).unwrap().0.issued += 1;
        let w = bucket(c.t_complete);
        slot(w, &mut map);
        let (win, lats) = map.get_mut(&w).unwrap();
        if c.outcome == Outcome::Ok {
            win.ok += 1;
            lats.push(c.latency());
        } else {
            win.errors += 1;
        }
    }
    map.into_values()
        .map(|(mut w, lats)| {
            if !lats.is_empty() {
                w.latency_mean_s = lats.iter().sum::<f64>() / lats.len() as f64;
            }
            w
        })
        .collect()
}

/// Run a coordinated saturation sweep of `scenario` with `clients`
/// concurrent clients per stage.
///
/// The scenario must be open-loop: the sweep ramps its offered rate. The
/// target is materialized once and reused across stages; spawned servers
/// (and a spawned metaserver) get their metric windows armed in-process,
/// external servers are expected to run `ninfd --windows-ms` (a disarmed
/// remote yields an empty series with `interval_s = 0`, not an error).
pub fn run_sweep(
    scenario: &Scenario,
    clients: usize,
    seed: u64,
    cfg: &SweepConfig,
) -> ProtocolResult<SweepReport> {
    let spec = &scenario.spec;
    let base_rate = match spec.arrival {
        Arrival::Open { rate_hz } => rate_hz,
        Arrival::Closed { .. } => {
            return Err(ProtocolError::Frame(
                "sweep requires an open-loop scenario (the ramp scales its offered rate)".into(),
            ))
        }
    };
    if cfg.stages == 0 || cfg.stage_secs <= 0.0 {
        return Err(ProtocolError::Frame(
            "sweep needs at least one stage of positive duration".into(),
        ));
    }

    let live = materialize(&scenario.target, spec)?;
    let inputs = Inputs::prepare(spec, seed);

    // Arm in-process registries before the epoch so their first windows
    // cover the whole ramp. External targets arm themselves (or don't).
    for s in &live.spawned {
        s.metrics().registry().start_window_sampler(cfg.window);
    }
    if let Some(m) = &live.meta {
        m.metrics().start_window_sampler(cfg.window);
    }

    let epoch = Instant::now();
    let meta_armed_at = -epoch.elapsed().as_secs_f64();
    let poller = Poller::start(
        &live.addrs,
        epoch,
        cfg.window.max(Duration::from_millis(20)) / 2,
    );

    // The ramp: stage k offers base × multiplier(k) for stage_secs, on a
    // schedule that starts when the stage does (a saturated stage drains
    // past its window, and the next one starts late).
    let mut points = Vec::with_capacity(cfg.stages);
    let mut all_calls = Vec::new();
    let mut all_schedules: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut sched_bytes = Vec::new();
    for k in 0..cfg.stages {
        let sspec = stage_spec(spec, base_rate, cfg, k);
        let sseed = stage_seed(seed, k);
        sleep_until(epoch, k as f64 * cfg.stage_secs);
        let stage_epoch = Instant::now();
        let t_start = (stage_epoch - epoch).as_secs_f64();
        let mut calls = Fleet {
            spec: &sspec,
            inputs: &inputs,
            dial: &|client| live.dial(&sspec, client),
            observe: &ignore_replies,
            epoch: stage_epoch,
            seed: sseed,
            clients,
        }
        .run();
        // Stage-relative times → sweep-epoch times.
        for c in &mut calls {
            c.scheduled += t_start;
            c.t_submit += t_start;
            c.t_complete += t_start;
        }

        let mut offered = 0usize;
        for client in 0..clients {
            let schedule = sspec.arrival_schedule(sseed, client, clients);
            offered += schedule.len();
            sched_bytes.extend_from_slice(&schedule_bytes(&schedule));
            all_schedules.push((t_start, schedule));
        }
        points.push(stage_point(k, cfg, base_rate, offered, t_start, &calls));
        all_calls.extend(calls);
    }

    let polls = poller.finish();
    let server = ServerView::from_polls(&polls);
    let mut remotes: Vec<RemoteSeries> = polls.into_iter().map(remote_series).collect();

    // The in-process metaserver has no TCP endpoint; drain it directly.
    // Its window clock started `meta_armed_at` before the epoch.
    if let Some(m) = &live.meta {
        let snap = m.metrics().snapshot_windows(0);
        remotes.push(RemoteSeries {
            source: "metaserver".into(),
            clock_skew_s: meta_armed_at,
            interval_s: snap.interval,
            total: snap.total,
            dropped: snap.dropped,
            polls: 1,
            frames: snap.frames,
        });
        m.metrics().disarm_windows();
    }

    let wall_secs = epoch.elapsed().as_secs_f64();
    all_calls.sort_by(|a, b| a.t_submit.total_cmp(&b.t_submit));
    let window_secs = cfg.window.as_secs_f64();
    let timeline = SweepTimeline {
        window_secs,
        client: client_timeline(window_secs, &all_schedules, &all_calls),
        remotes,
    };

    for s in &live.spawned {
        s.metrics().registry().disarm_windows();
    }
    for s in live.spawned {
        s.shutdown();
    }

    Ok(SweepReport {
        scenario: scenario.name.to_owned(),
        clients,
        seed,
        stage_secs: cfg.stage_secs,
        base_rate_hz: base_rate,
        knee: estimate_knee(&points, KNEE_SHORTFALL_PCT),
        points,
        timeline,
        server,
        schedule_fnv: fnv1a(&sched_bytes),
        wall_secs,
    })
}

fn kind_label(kind: MetricKind) -> &'static str {
    match kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    }
}

impl SweepReport {
    /// The sweep JSON document: curve, knee, and merged timeline. Remote
    /// frame times are emitted already skew-corrected onto the sweep
    /// epoch.
    pub fn to_json(&self) -> serde_json::Value {
        let mut doc = serde_json::Map::new();
        doc.insert("benchmark".into(), serde_json::json!("sweep"));
        doc.insert("scenario".into(), serde_json::json!(self.scenario.as_str()));
        doc.insert("clients".into(), serde_json::json!(self.clients as u64));
        doc.insert("seed".into(), serde_json::json!(self.seed));
        doc.insert("stage_secs".into(), serde_json::json!(self.stage_secs));
        doc.insert("base_rate_hz".into(), serde_json::json!(self.base_rate_hz));
        doc.insert("wall_secs".into(), serde_json::json!(self.wall_secs));
        doc.insert(
            "schedule_fnv".into(),
            serde_json::json!(format!("{:#018x}", self.schedule_fnv)),
        );
        doc.insert(
            "points".into(),
            serde_json::Value::Array(
                self.points
                    .iter()
                    .map(|p| {
                        serde_json::json!({
                            "stage": p.stage as u64,
                            "rate_hz_per_client": p.rate_hz_per_client,
                            "offered_hz": p.offered_hz,
                            "t_start": p.t_start,
                            "span_s": p.span_s,
                            "calls": p.calls as u64,
                            "ok": p.ok as u64,
                            "errors": p.errors as u64,
                            "generator_capped": p.generator_capped as u64,
                            "throughput_hz": p.throughput_hz,
                            "latency": {
                                "mean": p.latency.mean,
                                "max": p.latency.max,
                                "min": p.latency.min,
                            },
                            "latency_p95_s": p.latency_p95_s,
                        })
                    })
                    .collect(),
            ),
        );
        doc.insert(
            "knee".into(),
            match &self.knee {
                Some(k) => serde_json::json!({
                    "stage": k.stage as u64,
                    "offered_hz": k.offered_hz,
                    "throughput_hz": k.throughput_hz,
                    "latency_mean_s": k.latency_mean_s,
                    "saturated": k.saturated,
                }),
                None => serde_json::Value::Null,
            },
        );
        doc.insert(
            "server".into(),
            self.server
                .as_ref()
                .map_or(serde_json::Value::Null, ServerView::to_json),
        );
        let client: Vec<serde_json::Value> = self
            .timeline
            .client
            .iter()
            .map(|w| {
                serde_json::json!({
                    "window": w.window,
                    "t": w.t,
                    "offered": w.offered as u64,
                    "issued": w.issued as u64,
                    "ok": w.ok as u64,
                    "errors": w.errors as u64,
                    "latency_mean_s": w.latency_mean_s,
                })
            })
            .collect();
        let remotes: Vec<serde_json::Value> = self
            .timeline
            .remotes
            .iter()
            .map(|r| {
                serde_json::json!({
                    "source": r.source.as_str(),
                    "clock_skew_s": r.clock_skew_s,
                    "interval_s": r.interval_s,
                    "total": r.total,
                    "dropped": r.dropped,
                    "polls": r.polls as u64,
                    "frames": r.frames.iter().map(|f| serde_json::json!({
                        "window": f.window,
                        "t": f.t + r.clock_skew_s,
                        "samples": f.samples.iter().map(|s| serde_json::json!({
                            "name": s.name.as_str(),
                            "kind": kind_label(s.kind),
                            "value": s.value,
                            "count": s.count,
                        })).collect::<Vec<_>>(),
                    })).collect::<Vec<_>>(),
                })
            })
            .collect();
        doc.insert(
            "timeline".into(),
            serde_json::json!({
                "window_secs": self.timeline.window_secs,
                "client": client,
                "remotes": remotes,
            }),
        );
        serde_json::Value::Object(doc)
    }

    /// Write `<scenario>_sweep_curve.csv` (one row per stage) and
    /// `<scenario>_sweep_timeline.csv` (long format, one row per series
    /// sample, times skew-corrected) under `dir`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        use std::io::Write as _;
        std::fs::create_dir_all(dir)?;
        let curve_path = dir.join(format!("{}_sweep_curve.csv", self.scenario));
        let mut f = std::fs::File::create(&curve_path)?;
        writeln!(
            f,
            "stage,rate_hz_per_client,offered_hz,calls,ok,errors,throughput_hz,latency_mean,latency_p95,latency_max,span_s,generator_capped"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{},{:.3},{:.3},{},{},{},{:.3},{:.6},{:.6},{:.6},{:.3},{}",
                p.stage,
                p.rate_hz_per_client,
                p.offered_hz,
                p.calls,
                p.ok,
                p.errors,
                p.throughput_hz,
                p.latency.mean,
                p.latency_p95_s,
                p.latency.max,
                p.span_s,
                p.generator_capped,
            )?;
        }

        let tl_path = dir.join(format!("{}_sweep_timeline.csv", self.scenario));
        let mut f = std::fs::File::create(&tl_path)?;
        writeln!(f, "source,window,t,name,kind,value,count")?;
        for w in &self.timeline.client {
            for (name, value, count) in [
                ("offered", w.offered as f64, w.offered as u64),
                ("issued", w.issued as f64, w.issued as u64),
                ("ok", w.ok as f64, w.ok as u64),
                ("errors", w.errors as f64, w.errors as u64),
                ("latency_mean_s", w.latency_mean_s, w.ok as u64),
            ] {
                writeln!(
                    f,
                    "client,{},{:.3},{name},client,{value:.6},{count}",
                    w.window, w.t
                )?;
            }
        }
        for r in &self.timeline.remotes {
            for frame in &r.frames {
                let t = frame.t + r.clock_skew_s;
                for s in &frame.samples {
                    writeln!(
                        f,
                        "{},{},{t:.3},{},{},{:.6},{}",
                        r.source,
                        frame.window,
                        s.name,
                        kind_label(s.kind),
                        s.value,
                        s.count,
                    )?;
                }
            }
        }
        Ok(vec![curve_path, tl_path])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Target;
    use crate::spec::{MixEntry, Routine};
    use ninf_client::{CallOptions, CallTiming};
    use ninf_server::SchedPolicy;

    fn point(stage: usize, offered: f64, ok: usize, latency: f64) -> SweepPoint {
        SweepPoint {
            stage,
            rate_hz_per_client: offered,
            offered_hz: offered,
            t_start: stage as f64,
            span_s: 1.0,
            calls: ok.max(1),
            ok,
            errors: ok.max(1) - ok,
            generator_capped: 0,
            throughput_hz: ok as f64,
            latency: Summary {
                mean: latency,
                max: latency,
                min: latency,
            },
            latency_p95_s: latency,
        }
    }

    #[test]
    fn knee_found_on_hockey_stick_curve() {
        // Flat latency through stage 2, then a sharp bend: offered grows
        // 33% stage 2→3 while latency grows 400% — elasticity ≈ 12.
        let points = vec![
            point(0, 10.0, 10, 0.010),
            point(1, 20.0, 20, 0.011),
            point(2, 30.0, 30, 0.012),
            point(3, 40.0, 31, 0.060),
            point(4, 50.0, 30, 0.200),
        ];
        let knee = estimate_knee(&points, 2.0).unwrap();
        assert!(knee.saturated);
        assert_eq!(knee.stage, 2);
        assert!((knee.offered_hz - 30.0).abs() < 1e-9);
    }

    #[test]
    fn unbent_ramp_reports_last_point_unsaturated() {
        let points = vec![
            point(0, 10.0, 10, 0.010),
            point(1, 20.0, 20, 0.010),
            point(2, 30.0, 30, 0.011),
        ];
        let knee = estimate_knee(&points, 2.0).unwrap();
        assert!(!knee.saturated);
        assert_eq!(knee.stage, 2);
        assert!(estimate_knee(&[], 2.0).is_none());
    }

    #[test]
    fn total_collapse_counts_as_saturation() {
        // Latency never rises (failures don't record latency) but every
        // call in stage 2 fails: the knee is stage 1.
        let points = vec![
            point(0, 10.0, 10, 0.010),
            point(1, 20.0, 20, 0.010),
            point(2, 30.0, 0, 0.0),
        ];
        let knee = estimate_knee(&points, 2.0).unwrap();
        assert!(knee.saturated);
        assert_eq!(knee.stage, 1);
    }

    /// One slow call in a stage that delivered all it was offered is not
    /// a knee (a latency-slope rule named such stages in overload sweeps
    /// whose server later delivered several times as much).
    #[test]
    fn one_slow_call_in_a_fully_delivered_stage_is_not_a_knee() {
        let mut slow = point(2, 30.0, 30, 0.001);
        // 29 calls of 1 ms and one of 100 ms.
        slow.latency.mean = (29.0 * 0.001 + 0.100) / 30.0;
        slow.latency.max = 0.100;
        let points = vec![
            point(0, 10.0, 10, 0.001),
            point(1, 20.0, 20, 0.001),
            slow,
            point(3, 40.0, 40, 0.001),
            point(4, 50.0, 30, 0.050),
        ];
        let knee = estimate_knee(&points, KNEE_SHORTFALL_PCT).unwrap();
        assert!(knee.saturated);
        assert_eq!(knee.stage, 3);
        assert!((knee.offered_hz - 40.0).abs() < 1e-9);
    }

    #[test]
    fn stage_specs_are_deterministic_in_seed() {
        let sc = crate::scenario::scenario("lan-ep").unwrap();
        let cfg = SweepConfig::default();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (out, seed) in [(&mut a, 1997u64), (&mut b, 1997u64)] {
            for k in 0..cfg.stages {
                let spec = stage_spec(&sc.spec, 40.0, &cfg, k);
                for client in 0..4 {
                    out.push(spec.arrival_schedule(stage_seed(seed, k), client, 4));
                }
            }
        }
        assert_eq!(a, b);
        // A different seed perturbs the schedules.
        let spec = stage_spec(&sc.spec, 40.0, &cfg, 0);
        assert_ne!(
            spec.arrival_schedule(stage_seed(1997, 0), 0, 4),
            spec.arrival_schedule(stage_seed(1998, 0), 0, 4)
        );
    }

    #[test]
    fn stage_multipliers_ramp_linearly() {
        let cfg = SweepConfig::default();
        assert!((cfg.multiplier(0) - 1.0).abs() < 1e-12);
        assert!((cfg.multiplier(5) - 6.0).abs() < 1e-12);
    }

    fn timed_call(client: usize, seq: usize, t: f64, total: f64, outcome: Outcome) -> CallResult {
        CallResult {
            client,
            seq,
            routine: "ep",
            n: 10,
            scheduled: t,
            t_submit: t,
            t_complete: t + total,
            timing: CallTiming {
                total,
                attempts: 1,
                ..CallTiming::default()
            },
            outcome,
            flops: None,
            trace_id: 0,
            capped: false,
        }
    }

    #[test]
    fn a_stage_that_drains_late_reads_what_it_delivered() {
        // 10 calls offered over a 1 s stage starting at t = 4, all answered,
        // the last at 2 s into the stage: a saturated server drained the
        // backlog at half the offered rate.
        let cfg = SweepConfig {
            stage_secs: 1.0,
            ..SweepConfig::default()
        };
        let calls: Vec<CallResult> = (0..10)
            .map(|i| {
                let due = 4.0 + 0.1 * i as f64;
                let done = 4.0 + 0.2 * (i + 1) as f64;
                timed_call(0, i, due, done - due, Outcome::Ok)
            })
            .collect();
        let p = stage_point(0, &cfg, 10.0, 10, 4.0, &calls);
        assert!((p.offered_hz - 10.0).abs() < 1e-9);
        assert!((p.span_s - 2.0).abs() < 1e-9, "{}", p.span_s);
        assert!((p.throughput_hz - 5.0).abs() < 1e-9, "{}", p.throughput_hz);
        // An unsaturated stage is measured over its whole window.
        let quick: Vec<CallResult> = (0..10)
            .map(|i| timed_call(0, i, 4.0 + 0.05 * i as f64, 0.01, Outcome::Ok))
            .collect();
        let p = stage_point(0, &cfg, 10.0, 10, 4.0, &quick);
        assert!((p.span_s - 1.0).abs() < 1e-9);
        assert!((p.throughput_hz - 10.0).abs() < 1e-9);
    }

    #[test]
    fn client_timeline_buckets_offers_and_completions() {
        let schedules = vec![(0.0, vec![0.05, 0.15]), (0.5, vec![0.05])];
        let calls = vec![
            timed_call(0, 0, 0.05, 0.02, Outcome::Ok),
            timed_call(0, 1, 0.15, 0.30, Outcome::Ok), // completes in bucket 4
            timed_call(1, 0, 0.55, 0.01, Outcome::Timeout),
        ];
        let windows = client_timeline(0.1, &schedules, &calls);
        let by_idx: std::collections::HashMap<u64, &ClientWindow> =
            windows.iter().map(|w| (w.window, w)).collect();
        assert_eq!(by_idx[&0].offered, 1);
        assert_eq!(by_idx[&1].offered, 1);
        assert_eq!(by_idx[&5].offered, 1);
        assert_eq!(by_idx[&0].issued, 1);
        assert_eq!(by_idx[&0].ok, 1);
        assert!((by_idx[&0].latency_mean_s - 0.02).abs() < 1e-12);
        assert_eq!(by_idx[&4].ok, 1); // the 0.30 s call lands at t=0.45
        assert_eq!(by_idx[&5].errors, 1);
    }

    /// End-to-end: a short two-stage sweep against a spawned server must
    /// produce a curve, a knee estimate, a schedule fingerprint, and
    /// window series drained over the wire.
    #[test]
    fn live_sweep_smoke() {
        let scenario = Scenario {
            name: "sweep-unit",
            about: "unit-test sweep rig",
            spec: WorkloadSpec {
                mix: vec![MixEntry {
                    routine: Routine::Ep { m: 10 },
                    weight: 1,
                }],
                arrival: Arrival::Open { rate_hz: 20.0 },
                phases: Phases {
                    ramp_up: 0.0,
                    steady: 0.4,
                    ramp_down: 0.0,
                },
                calls_per_client: 0,
                unique_args: false,
                options: CallOptions {
                    deadline: Some(Duration::from_secs(5)),
                    ..CallOptions::default()
                },
            },
            target: Target::Spawn {
                pes: 4,
                policy: SchedPolicy::Fcfs,
            },
        };
        let cfg = SweepConfig {
            stages: 2,
            stage_secs: 0.4,
            window: Duration::from_millis(100),
            ..SweepConfig::default()
        };
        let report = run_sweep(&scenario, 2, 7, &cfg).unwrap();
        assert_eq!(report.points.len(), 2);
        assert!(report.points.iter().all(|p| p.calls > 0));
        // Stage 1 offers twice stage 0's rate.
        assert!(report.points[1].offered_hz > report.points[0].offered_hz);
        let knee = report.knee.expect("non-empty sweep has a knee estimate");
        assert!(knee.offered_hz.is_finite() && knee.offered_hz > 0.0);
        // The spawned server was armed and polled over the wire.
        let server = &report.timeline.remotes[0];
        assert!(server.polls > 0, "poller made no successful polls");
        assert!(server.interval_s > 0.0);
        assert!(server.frames.iter().any(|f| !f.samples.is_empty()));
        // Window indices fetched exactly once, in order.
        let idx: Vec<u64> = server.frames.iter().map(|f| f.window).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(idx, sorted, "window series not exactly-once/ordered");
        assert!(!report.timeline.client.is_empty());
        assert!(report.wall_secs > 0.0);

        // Same seed ⇒ identical offered-load schedules.
        let again = run_sweep(&scenario, 2, 7, &cfg).unwrap();
        assert_eq!(report.schedule_fnv, again.schedule_fnv);

        // JSON carries the documented top-level shape.
        let doc = report.to_json();
        assert_eq!(doc["benchmark"], "sweep");
        assert!(doc["knee"]["offered_hz"].as_f64().unwrap() > 0.0);
        assert!(doc["timeline"]["remotes"].as_array().unwrap().len() == 1);
    }
}
