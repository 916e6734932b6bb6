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

/// One link shape's sample of live and simulated upload goodput.
#[derive(Debug, Clone, Copy)]
pub struct WanShapePoint {
    /// The link both sides ran over.
    pub shape: ninf_protocol::LinkShape,
    /// Un-acked chunks the upload keeps ([`ninf_protocol::lane_window`]).
    pub window: u32,
    /// Live upload-phase goodput, bytes/second.
    pub live_goodput: f64,
    /// FluidNet-predicted goodput, bytes/second.
    pub sim_goodput: f64,
}

impl WanShapePoint {
    /// The link's bandwidth-delay product, in differential-sized chunks.
    pub fn bdp_chunks(&self) -> f64 {
        self.shape.bytes_per_sec as f64 * 2.0 * self.shape.delay_us as f64
            / 1e6
            / f64::from(WAN_DIFF_CHUNK_BYTES)
    }

    /// Live goodput as a share of the link's bandwidth.
    pub fn live_share(&self) -> f64 {
        self.live_goodput / self.shape.bytes_per_sec as f64
    }

    /// Predicted goodput as a share of the link's bandwidth.
    pub fn sim_share(&self) -> f64 {
        self.sim_goodput / self.shape.bytes_per_sec as f64
    }

    /// Absolute difference of the two shares.
    pub fn delta(&self) -> f64 {
        (self.live_share() - self.sim_share()).abs()
    }
}

/// The WAN differential verdict: live one-lane upload goodput against the
/// FluidNet prediction, each as its share of the link, per link shape.
///
/// Shares are compared directly, not normalized to a best point: one lane
/// is one number per link, and how much of the link it fills is exactly
/// what the window is for.
#[derive(Debug, Clone)]
pub struct WanDiffReport {
    /// Scenario compared.
    pub scenario: String,
    /// Per-link samples.
    pub points: Vec<WanShapePoint>,
    /// Declared tolerance on the share of link.
    pub tolerance: f64,
}

impl WanDiffReport {
    /// Whether every point's shares agree within tolerance.
    pub fn pass(&self) -> bool {
        self.points.iter().all(|p| p.delta() <= self.tolerance)
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "# wan live-vs-sim differential: {} (tolerance {:.2} on upload share of link)\n\
             # {:>24} {:>6} {:>8} {:>11} {:>11} {:>10} {:>10} {:>8} verdict\n",
            self.scenario,
            self.tolerance,
            "link",
            "window",
            "bdp",
            "live_MB/s",
            "sim_MB/s",
            "live_share",
            "sim_share",
            "delta"
        );
        for p in &self.points {
            s += &format!(
                "  {:>24} {:>6} {:>8.1} {:>11.3} {:>11.3} {:>10.3} {:>10.3} {:>8.3} {}\n",
                format!("bw={},delay={}us", p.shape.bytes_per_sec, p.shape.delay_us),
                p.window,
                p.bdp_chunks(),
                p.live_goodput / 1e6,
                p.sim_goodput / 1e6,
                p.live_share(),
                p.sim_share(),
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

/// Chunk size of the WAN differential: small enough that the scenario's
/// 512 KiB image spans twice [`ninf_protocol::MAX_LANE_WINDOW`] chunks, so
/// a link whose bandwidth-delay product exceeds the cap leaves the window
/// binding.
pub const WAN_DIFF_CHUNK_BYTES: u32 = 4096;

/// Run the WAN differential: the live `wan-upload` scenario (one windowed
/// lane) over each client-side shaped loopback link in `shapes`, against
/// [`ninf_netsim::wan`]'s FluidNet upload model under the *same* link,
/// chunk size, window and lane deadline. Each side's upload goodput is
/// taken as its share of the link's bandwidth and compared within
/// `tolerance`. Every shape must cap its bandwidth; pick shapes whose
/// bandwidth-delay product falls below, near and above the window cap.
pub fn wan_live_vs_sim(
    shapes: &[ninf_protocol::LinkShape],
    seed: u64,
    tolerance: f64,
) -> ProtocolResult<WanDiffReport> {
    if shapes.is_empty() {
        return Err(ProtocolError::Remote("no link shapes to compare".into()));
    }
    if shapes.iter().any(|s| s.bytes_per_sec == 0) {
        return Err(ProtocolError::Remote(
            "an uncapped link has no share to compare".into(),
        ));
    }
    let mut base = scenario("wan-upload")
        .ok_or_else(|| ProtocolError::Remote("scenario wan-upload missing".into()))?;
    base.spec.options.chunk_bytes = WAN_DIFF_CHUNK_BYTES;
    // The links are loss-free, and a window's last ack may trail its post
    // by a whole link delay: no chunk may be resent for want of a tighter
    // deadline than the call's.
    base.spec.options.lane_deadline = None;
    // Two calls per link keep the live half test-sized.
    base.spec.calls_per_client = 2;
    // One image per call: the scenario's single Linpack matrix.
    let ninf_loadgen::Routine::Linpack { n } = base.spec.mix[0].routine else {
        return Err(ProtocolError::Remote(
            "wan-upload no longer ships a Linpack matrix".into(),
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

    let mut points = Vec::with_capacity(shapes.len());
    for &shape in shapes {
        let mut sc = base.clone();
        sc.spec.options.wan = Some(shape);
        let report = run_scenario(&sc, 1, seed)?;
        // Goodput over the *upload phase* alone: call total minus the
        // connect/interface/marshal/roundtrip segments leaves the bulk
        // pre-ship. The FluidNet model predicts transfer; compute and the
        // `Invoke` crossing would otherwise dilute the share.
        let mut xfer = 0.0f64;
        for c in &report.calls {
            let t = &c.timing;
            let overhead = t.connect + t.interface + t.marshal + t.roundtrip;
            xfer += (t.total - overhead).max(0.0);
        }
        let bulk = report.bulk_bytes();
        if bulk == 0 || xfer <= 0.0 {
            return Err(ProtocolError::Remote(format!(
                "live wan run over {shape} shipped no bulk bytes"
            )));
        }
        let window = ninf_protocol::lane_window(Some(&shape), WAN_DIFF_CHUNK_BYTES);
        // The call connection is lane 0 beside the upload's lane 1.
        let sim = ninf_netsim::simulate_upload(
            &shape,
            image_bytes,
            WAN_DIFF_CHUNK_BYTES,
            2,
            window,
            lane_deadline,
        );
        points.push(WanShapePoint {
            shape,
            window,
            live_goodput: bulk as f64 / xfer,
            sim_goodput: sim.goodput,
        });
    }
    Ok(WanDiffReport {
        scenario: "wan-upload".into(),
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

    fn wan_point(live_share: f64, sim_share: f64) -> WanShapePoint {
        WanShapePoint {
            shape: ninf_protocol::LinkShape::parse("bw=4m,delay=20ms").unwrap(),
            window: 10,
            live_goodput: live_share * 4e6,
            sim_goodput: sim_share * 4e6,
        }
    }

    #[test]
    fn wan_verdict_follows_tolerance() {
        let report = WanDiffReport {
            scenario: "wan-upload".into(),
            points: vec![wan_point(0.83, 0.86), wan_point(0.40, 0.45)],
            tolerance: 0.35,
        };
        assert!(report.pass());
        assert!(report.render().contains("RESULT PASS"));
        // Shares, not max-normalized values: a live lane at a third of what
        // the model predicts diverges even though both are each side's best.
        let diverged = WanDiffReport {
            points: vec![wan_point(0.30, 0.86)],
            ..report
        };
        assert!(!diverged.pass());
        assert!(diverged.render().contains("DIVERGED"));
    }

    #[test]
    fn wan_differential_rejects_degenerate_inputs() {
        assert!(wan_live_vs_sim(&[], 1, 0.35).is_err());
        let uncapped = ninf_protocol::LinkShape::parse("delay=20ms").unwrap();
        assert!(wan_live_vs_sim(&[uncapped], 1, 0.35).is_err());
    }
}
