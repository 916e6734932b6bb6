//! Live-vs-sim differential: run the same scalability scenario against the
//! real fleet (ninf-loadgen) and a matched ninf-sim world, and diff the two
//! *shapes* — per-call Mflops normalized to the single-client point —
//! within a declared tolerance.
//!
//! Absolute Mflops are incomparable (this host vs the modeled J90); the
//! paper's transferable claim is the per-client decline as clients contend
//! for the server, which both systems must reproduce.

use ninf_loadgen::{run_scenario, scenario};
use ninf_protocol::{ProtocolError, ProtocolResult};

/// Default tolerance on normalized per-call Mflops: the live decline and
/// the modeled decline may differ by this much per point before the check
/// fails. Generous because the live side runs on a loaded CI host; see
/// docs/TESTING.md for the policy.
pub const DEFAULT_TOLERANCE: f64 = 0.35;

/// One client-count sample of both curves.
#[derive(Debug, Clone, Copy)]
pub struct ShapePoint {
    /// Concurrent clients.
    pub clients: usize,
    /// Live per-call Mflops, absolute.
    pub live_mflops: f64,
    /// Sim per-call Mflops, absolute.
    pub sim_mflops: f64,
    /// Live value normalized to the live curve's first point.
    pub live_norm: f64,
    /// Sim value normalized to the sim curve's first point.
    pub sim_norm: f64,
}

impl ShapePoint {
    /// Absolute difference of the normalized values.
    pub fn delta(&self) -> f64 {
        (self.live_norm - self.sim_norm).abs()
    }
}

/// The whole differential verdict.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Scenario compared.
    pub scenario: String,
    /// Per-client-count samples.
    pub points: Vec<ShapePoint>,
    /// Declared tolerance on normalized values.
    pub tolerance: f64,
}

impl DiffReport {
    /// Whether every point's shapes agree within tolerance.
    pub fn pass(&self) -> bool {
        self.points.iter().all(|p| p.delta() <= self.tolerance)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "# live-vs-sim differential: {} (tolerance {:.2} on normalized Mflops)\n\
             # {:>7} {:>12} {:>12} {:>10} {:>10} {:>8} verdict\n",
            self.scenario,
            self.tolerance,
            "clients",
            "live_mflops",
            "sim_mflops",
            "live_norm",
            "sim_norm",
            "delta"
        );
        for p in &self.points {
            s += &format!(
                "  {:>7} {:>12.1} {:>12.1} {:>10.3} {:>10.3} {:>8.3} {}\n",
                p.clients,
                p.live_mflops,
                p.sim_mflops,
                p.live_norm,
                p.sim_norm,
                p.delta(),
                if p.delta() <= self.tolerance {
                    "ok"
                } else {
                    "DIVERGED"
                }
            );
        }
        s += &format!(
            "RESULT {} live-vs-sim scenario={}\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.scenario
        );
        s
    }
}

/// Sim per-call Mflops at each client count, from a scenario *matched* to
/// the live `lan-linpack` rig: saturated closed-loop clients against a
/// 1-PE FCFS server. (The paper-table experiments use the §4.1 model
/// program with think time, so their mid-range client counts never
/// saturate the modeled J90; the live rig is saturated by construction,
/// and only matched contention structures have comparable shapes.)
fn sim_curve(client_counts: &[usize], seed: u64) -> ProtocolResult<Vec<f64>> {
    use ninf_sim::{Scenario, Workload, World};

    let mut server = ninf_machine::j90();
    server.pes = 1;
    client_counts
        .iter()
        .map(|&c| {
            if c == 0 {
                return Err(ProtocolError::Remote(
                    "client count 0 in differential".into(),
                ));
            }
            let mut s = Scenario::lan(
                server.clone(),
                c,
                Workload::Linpack { n: 600 },
                ninf_server::ExecMode::TaskParallel,
                ninf_server::SchedPolicy::Fcfs,
                seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
            .saturated();
            // Long enough for every client to complete several calls even
            // when c of them timeshare the single PE (~2.2 s/call alone).
            s.duration = 120.0 + 40.0 * c as f64;
            s.warmup = 20.0;
            let cell = World::new(s).run();
            if cell.times == 0 {
                return Err(ProtocolError::Remote(format!(
                    "matched sim at c={c} completed no calls"
                )));
            }
            Ok(cell.perf.mean)
        })
        .collect()
}

/// Run the differential: live `lan-linpack` at each client count vs the
/// matched sim scenario, both normalized to their own first point.
pub fn live_vs_sim(
    client_counts: &[usize],
    seed: u64,
    tolerance: f64,
) -> ProtocolResult<DiffReport> {
    if client_counts.is_empty() {
        return Err(ProtocolError::Remote("no client counts to compare".into()));
    }
    let sc = scenario("lan-linpack")
        .ok_or_else(|| ProtocolError::Remote("scenario lan-linpack missing".into()))?;
    let mut live = Vec::with_capacity(client_counts.len());
    for &n in client_counts {
        let report = run_scenario(&sc, n, seed)?;
        if report.fleet.perf_calls == 0 {
            return Err(ProtocolError::Remote(format!(
                "live run at c={n} produced no successful Mflops samples"
            )));
        }
        live.push(report.fleet.perf.mean);
    }
    let sim = sim_curve(client_counts, seed)?;
    let live0 = live[0];
    let sim0 = sim[0];
    if live0 <= 0.0 || sim0 <= 0.0 {
        return Err(ProtocolError::Remote(
            "degenerate first point; cannot normalize".into(),
        ));
    }
    let points = client_counts
        .iter()
        .zip(live.iter().zip(sim.iter()))
        .map(|(&clients, (&l, &s))| ShapePoint {
            clients,
            live_mflops: l,
            sim_mflops: s,
            live_norm: l / live0,
            sim_norm: s / sim0,
        })
        .collect();
    Ok(DiffReport {
        scenario: "lan-linpack".into(),
        points,
        tolerance,
    })
}

/// One stream-count sample of both WAN goodput curves.
#[derive(Debug, Clone, Copy)]
pub struct WanShapePoint {
    /// Parallel bulk streams.
    pub streams: u32,
    /// Live bulk goodput, bytes/second.
    pub live_goodput: f64,
    /// FluidNet-predicted goodput, bytes/second.
    pub sim_goodput: f64,
    /// Live value normalized to the live curve's *best* point.
    pub live_norm: f64,
    /// Sim value normalized to the sim curve's *best* point.
    pub sim_norm: f64,
}

impl WanShapePoint {
    /// Absolute difference of the normalized values.
    pub fn delta(&self) -> f64 {
        (self.live_norm - self.sim_norm).abs()
    }
}

/// The WAN differential verdict: live parallel-stream goodput-vs-N against
/// the FluidNet prediction, both normalized to their own best point.
///
/// Max-normalization (instead of the scalability differential's
/// first-point normalization) keeps every normalized value in `[0, 1]`:
/// the goodput curve *rises* with N, so dividing by the N=1 point would
/// amplify absolute deltas at exactly the stream counts under test.
#[derive(Debug, Clone)]
pub struct WanDiffReport {
    /// Scenario compared.
    pub scenario: String,
    /// Per-stream-count samples.
    pub points: Vec<WanShapePoint>,
    /// Declared tolerance on normalized values.
    pub tolerance: f64,
}

impl WanDiffReport {
    /// Whether every point's shapes agree within tolerance.
    pub fn pass(&self) -> bool {
        self.points.iter().all(|p| p.delta() <= self.tolerance)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "# wan live-vs-sim differential: {} (tolerance {:.2} on max-normalized goodput)\n\
             # {:>7} {:>14} {:>14} {:>10} {:>10} {:>8} verdict\n",
            self.scenario,
            self.tolerance,
            "streams",
            "live_MiB/s",
            "sim_MiB/s",
            "live_norm",
            "sim_norm",
            "delta"
        );
        for p in &self.points {
            s += &format!(
                "  {:>7} {:>14.3} {:>14.3} {:>10.3} {:>10.3} {:>8.3} {}\n",
                p.streams,
                p.live_goodput / (1024.0 * 1024.0),
                p.sim_goodput / (1024.0 * 1024.0),
                p.live_norm,
                p.sim_norm,
                p.delta(),
                if p.delta() <= self.tolerance {
                    "ok"
                } else {
                    "DIVERGED"
                }
            );
        }
        s += &format!(
            "RESULT {} wan-live-vs-sim scenario={}\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.scenario
        );
        s
    }
}

/// Run the WAN differential: the live `wan-streams` scenario at each
/// stream count over a client-side shaped loopback link, against
/// [`ninf_netsim::wan`]'s FluidNet upload model under the *same* link
/// spec, chunk size, and lane deadline. Both curves are normalized to
/// their own best point and compared within `tolerance`.
///
/// The caller supplies the link `shape` (usually smaller/faster than the
/// committed benchmark's so the differential stays test-sized); the
/// scenario's stream knob is overridden per point.
pub fn wan_live_vs_sim(
    stream_counts: &[u32],
    shape: ninf_protocol::LinkShape,
    seed: u64,
    tolerance: f64,
) -> ProtocolResult<WanDiffReport> {
    if stream_counts.is_empty() {
        return Err(ProtocolError::Remote("no stream counts to compare".into()));
    }
    if stream_counts.contains(&0) {
        return Err(ProtocolError::Remote(
            "stream count 0 in wan differential".into(),
        ));
    }
    let base = scenario("wan-streams")
        .ok_or_else(|| ProtocolError::Remote("scenario wan-streams missing".into()))?;
    // One image per call: the scenario's single Linpack matrix.
    let ninf_loadgen::Routine::Linpack { n } = base.spec.mix[0].routine else {
        return Err(ProtocolError::Remote(
            "wan-streams no longer ships a Linpack matrix".into(),
        ));
    };
    let image_bytes =
        ninf_protocol::value_image(&ninf_protocol::Value::DoubleArray(vec![0.0; n * n])).len()
            as u64;
    let lane_deadline = base
        .spec
        .options
        .lane_deadline
        .or(base.spec.options.deadline)
        .map_or(2.0, |d| d.as_secs_f64());

    let mut live = Vec::with_capacity(stream_counts.len());
    for &streams in stream_counts {
        let mut sc = base.clone();
        sc.spec.options.wan = Some(shape);
        sc.spec.options.streams = streams;
        // Two calls per point keep the live half test-sized; the shape of
        // goodput-vs-N does not depend on how often it is measured.
        sc.spec.calls_per_client = 2;
        let report = run_scenario(&sc, 1, seed)?;
        // Goodput over the *upload phase* alone: call total minus the
        // connect/interface/marshal/roundtrip segments leaves the bulk
        // pre-ship. The FluidNet model predicts transfer; compute and
        // marshal time do not vary with N and would otherwise dilute the
        // normalized shape.
        let mut bulk = 0u64;
        let mut xfer = 0.0f64;
        for c in &report.calls {
            bulk += c.timing.bulk_bytes as u64;
            let t = &c.timing;
            let overhead = t.connect + t.interface + t.marshal + t.roundtrip;
            xfer += (t.total - overhead).max(0.0);
        }
        if bulk == 0 || xfer <= 0.0 {
            return Err(ProtocolError::Remote(format!(
                "live wan run at N={streams} shipped no bulk bytes"
            )));
        }
        live.push(bulk as f64 / xfer);
    }

    let sim: Vec<f64> = ninf_netsim::goodput_curve(
        &shape,
        image_bytes,
        base.spec.options.chunk_bytes,
        stream_counts,
        lane_deadline,
    )
    .iter()
    .map(|r| r.goodput)
    .collect();

    let live_best = live.iter().cloned().fold(f64::MIN, f64::max);
    let sim_best = sim.iter().cloned().fold(f64::MIN, f64::max);
    if live_best <= 0.0 || sim_best <= 0.0 {
        return Err(ProtocolError::Remote(
            "degenerate best point; cannot normalize".into(),
        ));
    }
    let points = stream_counts
        .iter()
        .zip(live.iter().zip(sim.iter()))
        .map(|(&streams, (&l, &s))| WanShapePoint {
            streams,
            live_goodput: l,
            sim_goodput: s,
            live_norm: l / live_best,
            sim_norm: s / sim_best,
        })
        .collect();
    Ok(WanDiffReport {
        scenario: "wan-streams".into(),
        points,
        tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(clients: usize, live_norm: f64, sim_norm: f64) -> ShapePoint {
        ShapePoint {
            clients,
            live_mflops: live_norm * 1000.0,
            sim_mflops: sim_norm * 500.0,
            live_norm,
            sim_norm,
        }
    }

    #[test]
    fn verdict_follows_tolerance() {
        let report = DiffReport {
            scenario: "lan-linpack".into(),
            points: vec![
                point(1, 1.0, 1.0),
                point(4, 0.27, 0.25),
                point(8, 0.13, 0.12),
            ],
            tolerance: 0.35,
        };
        assert!(report.pass());
        let diverged = DiffReport {
            points: vec![point(1, 1.0, 1.0), point(4, 0.9, 0.25)],
            ..report
        };
        assert!(!diverged.pass());
        assert!(diverged.render().contains("DIVERGED"));
    }

    #[test]
    fn sim_curve_declines_with_clients() {
        let sim = sim_curve(&[1, 4, 8], 1997).expect("table3 runs");
        assert!(sim[0] > sim[1] && sim[1] > sim[2], "sim curve: {sim:?}");
    }

    fn wan_point(streams: u32, live_norm: f64, sim_norm: f64) -> WanShapePoint {
        WanShapePoint {
            streams,
            live_goodput: live_norm * 4e6,
            sim_goodput: sim_norm * 5e6,
            live_norm,
            sim_norm,
        }
    }

    #[test]
    fn wan_verdict_follows_tolerance() {
        let report = WanDiffReport {
            scenario: "wan-streams".into(),
            points: vec![
                wan_point(1, 0.30, 0.26),
                wan_point(2, 0.58, 0.51),
                wan_point(4, 1.0, 1.0),
            ],
            tolerance: 0.35,
        };
        assert!(report.pass());
        assert!(report.render().contains("RESULT PASS"));
        let diverged = WanDiffReport {
            points: vec![wan_point(1, 0.95, 0.25), wan_point(4, 1.0, 1.0)],
            ..report
        };
        assert!(!diverged.pass());
        assert!(diverged.render().contains("DIVERGED"));
    }

    #[test]
    fn wan_differential_rejects_degenerate_inputs() {
        let shape = ninf_protocol::LinkShape::default();
        assert!(wan_live_vs_sim(&[], shape, 1, 0.35).is_err());
        assert!(wan_live_vs_sim(&[0, 2], shape, 1, 0.35).is_err());
    }
}
