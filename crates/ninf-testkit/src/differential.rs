//! Live-vs-sim differentials: the two places where the simulator meets the
//! live system, with one report type ([`DiffReport`]) and one tolerance
//! ([`TOLERANCE`]).
//!
//! - [`live_vs_sim`] runs the `lan-linpack` scalability scenario against the
//!   real fleet (ninf-loadgen) and a matched ninf-sim world, and compares
//!   the two *shapes*: per-call Mflops normalized to the single-client
//!   point. Absolute Mflops are incomparable (this host vs the modeled
//!   J90); the paper's transferable claim is the per-client decline as
//!   clients contend for the server, which both systems must reproduce.
//! - [`wan_live_vs_sim`] runs the `wan-upload` scenario's one windowed lane
//!   over shaped loopback links against the FluidNet upload model, and
//!   compares each side's upload goodput as its share of the link.

use ninf_loadgen::{run_scenario, scenario};
use ninf_protocol::{ProtocolError, ProtocolResult};

/// Tolerance on every compared value: the live and the modelled value at
/// a point may differ by this much before the check fails. Generous because
/// the live side runs on a loaded CI host; see docs/TESTING.md for the
/// policy.
pub const TOLERANCE: f64 = 0.35;

/// One sample of both sides.
#[derive(Debug, Clone)]
pub struct DiffPoint {
    /// What this sample varied: the client count, or the link with its
    /// window and bandwidth-delay product.
    pub label: String,
    /// Live value, absolute, in the unit [`DiffReport::measure`] names.
    pub live: f64,
    /// Sim value, absolute, same unit.
    pub sim: f64,
    /// The live value as compared.
    pub live_cmp: f64,
    /// The sim value as compared.
    pub sim_cmp: f64,
}

impl DiffPoint {
    /// Absolute difference of the compared values.
    pub fn delta(&self) -> f64 {
        (self.live_cmp - self.sim_cmp).abs()
    }

    fn agrees(&self) -> bool {
        self.delta() <= TOLERANCE
    }
}

/// The whole differential verdict.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Scenario compared.
    pub scenario: String,
    /// The absolute unit and what is compared.
    pub measure: &'static str,
    /// One sample per client count or link.
    pub points: Vec<DiffPoint>,
}

impl DiffReport {
    /// Whether every point agrees within [`TOLERANCE`].
    pub fn pass(&self) -> bool {
        self.points.iter().all(DiffPoint::agrees)
    }

    /// Human-readable table ending in one `RESULT` line.
    pub fn render(&self) -> String {
        let w = self
            .points
            .iter()
            .map(|p| p.label.len())
            .fold(5, usize::max);
        let mut s = format!(
            "# live-vs-sim differential: {} (tolerance {TOLERANCE:.2}; {})\n\
             # {:>w$} {:>12} {:>12} {:>10} {:>10} {:>8} verdict\n",
            self.scenario, self.measure, "point", "live", "sim", "live_cmp", "sim_cmp", "delta"
        );
        for p in &self.points {
            s += &format!(
                "  {:>w$} {:>12.3} {:>12.3} {:>10.3} {:>10.3} {:>8.3} {}\n",
                p.label,
                p.live,
                p.sim,
                p.live_cmp,
                p.sim_cmp,
                p.delta(),
                if p.agrees() { "ok" } else { "DIVERGED" }
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
pub fn live_vs_sim(client_counts: &[usize], seed: u64) -> ProtocolResult<DiffReport> {
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
        .map(|(&clients, (&l, &s))| DiffPoint {
            label: format!("c={clients}"),
            live: l,
            sim: s,
            live_cmp: l / live0,
            sim_cmp: s / sim0,
        })
        .collect();
    Ok(DiffReport {
        scenario: "lan-linpack".into(),
        measure: "per-call Mflops, compared normalized to the first point",
        points,
    })
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
/// [`TOLERANCE`]. Every shape must cap its bandwidth; pick shapes whose
/// bandwidth-delay product falls below, near and above the window cap.
///
/// Shares are compared directly, not normalized to a best point: one lane
/// is one number per link, and how much of the link it fills is exactly
/// what the window is for.
pub fn wan_live_vs_sim(
    shapes: &[ninf_protocol::LinkShape],
    seed: u64,
) -> ProtocolResult<DiffReport> {
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
        let bw = shape.bytes_per_sec as f64;
        let live = bulk as f64 / xfer;
        // The bandwidth-delay product in chunks, against the window.
        let bdp = bw * 2.0 * shape.delay_us as f64 / 1e6 / f64::from(WAN_DIFF_CHUNK_BYTES);
        points.push(DiffPoint {
            label: format!(
                "bw={},delay={}us window={window} bdp={bdp:.1}",
                shape.bytes_per_sec, shape.delay_us
            ),
            live: live / 1e6,
            sim: sim.goodput / 1e6,
            live_cmp: live / bw,
            sim_cmp: sim.goodput / bw,
        });
    }
    Ok(DiffReport {
        scenario: "wan-upload".into(),
        measure: "upload MB/s, compared as the share of the link",
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(label: &str, live_cmp: f64, sim_cmp: f64) -> DiffPoint {
        DiffPoint {
            label: label.into(),
            live: live_cmp * 1000.0,
            sim: sim_cmp * 500.0,
            live_cmp,
            sim_cmp,
        }
    }

    /// Each report's verdict, its `DIVERGED` marks and its `RESULT` line
    /// must all match the expected pass.
    fn assert_verdicts(cases: Vec<(DiffReport, bool)>) {
        for (report, pass) in cases {
            let table = report.render();
            assert_eq!(report.pass(), pass, "{table}");
            assert_eq!(table.contains("DIVERGED"), !pass, "{table}");
            let verdict = if pass { "RESULT PASS" } else { "RESULT FAIL" };
            assert!(table.contains(verdict), "{table}");
        }
    }

    #[test]
    fn verdict_follows_tolerance() {
        let lan = |points| DiffReport {
            scenario: "lan-linpack".into(),
            measure: "normalized Mflops",
            points,
        };
        assert_verdicts(vec![
            (
                lan(vec![
                    point("c=1", 1.0, 1.0),
                    point("c=4", 0.27, 0.25),
                    point("c=8", 0.13, 0.12),
                ]),
                true,
            ),
            (
                lan(vec![point("c=1", 1.0, 1.0), point("c=4", 0.9, 0.25)]),
                false,
            ),
        ]);
    }

    #[test]
    fn wan_verdict_follows_tolerance() {
        let wan = |points| DiffReport {
            scenario: "wan-upload".into(),
            measure: "share of the link",
            points,
        };
        assert_verdicts(vec![
            (
                wan(vec![
                    point("bdp=16.0", 0.83, 0.86),
                    point("bdp=64.0", 0.40, 0.45),
                ]),
                true,
            ),
            // Shares, not max-normalized values: a live lane at a third of
            // what the model predicts diverges even though both are each
            // side's best.
            (wan(vec![point("bdp=16.0", 0.30, 0.86)]), false),
        ]);
    }

    #[test]
    fn sim_curve_declines_with_clients() {
        let sim = sim_curve(&[1, 4, 8], 1997).expect("table3 runs");
        assert!(sim[0] > sim[1] && sim[1] > sim[2], "sim curve: {sim:?}");
    }

    #[test]
    fn wan_differential_rejects_degenerate_inputs() {
        assert!(wan_live_vs_sim(&[], 1).is_err());
        let uncapped = ninf_protocol::LinkShape::parse("delay=20ms").unwrap();
        assert!(wan_live_vs_sim(&[uncapped], 1).is_err());
    }
}
