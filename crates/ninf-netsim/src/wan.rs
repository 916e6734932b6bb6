//! WAN model: the simulator half of `ninf-protocol`'s link model and the
//! client's parallel-stream chunked bulk transfer.
//!
//! The live side (`LinkTransport` + the client's chunk fan-out) and this
//! module share one link definition by *import*: [`simulate_upload`] takes
//! the same [`LinkShape`] a live run is shaped with and asks the same
//! [`planned_event`] function what each lane's next send does, so the two
//! sides cannot disagree about a decision — only about the physics. A
//! chunked upload is simulated as [`FluidNet`] flows through a star
//! topology whose bottleneck is the shaped link:
//!
//! | live event                         | sim event                        |
//! |------------------------------------|----------------------------------|
//! | lane send occupies the link        | flow of `chunk + overhead` bytes |
//! | token-bucket FIFO pacing           | max-min share of the bottleneck  |
//! | forwarded send sleeps `delay_us`   | ack timer at completion + delay  |
//! | stalled send sleeps `stall_us` too | ack timer pushed out by the stall|
//! | lost send (consumes link time)     | flow drains, then timeout timer  |
//! | truncated/garbled send is rejected | flow drains, then timeout timer  |
//! | recv deadline fires, retransmit    | lane re-sends at `t + timeout`   |
//! | stop-and-wait per lane             | ≤ 1 flow in flight per lane      |
//!
//! Both sides are work-conserving on a single bottleneck, so aggregate
//! transfer times agree; microscopic ordering differs (FIFO vs fair
//! share), which is why the live-vs-sim differential test compares
//! *normalized* throughput-vs-streams shapes, not absolute numbers.
//!
//! The predicted curve reproduces the GridFTP parallel-stream result:
//! goodput climbs with stream count while lanes pipeline through each
//! other's propagation gaps, flattens when the link saturates, and falls
//! again once the congestion term drives the effective loss rate up
//! faster than added lanes add capacity.

use ninf_protocol::{planned_event, LinkEvent, LinkShape};

use crate::fluid::{FlowId, FlowSpec, FluidNet};
use crate::topology::{NodeId, Topology};

/// Wire bytes a chunk frame adds on top of its payload: frame header,
/// mux call id, and the `PutArgChunk` envelope (digest, geometry, CRC,
/// opaque length). Matches the live framing to within padding.
pub const CHUNK_WIRE_OVERHEAD: u64 = 72;

/// Stand-in capacity for an uncapped link (`bytes_per_sec == 0`): high
/// enough that transmission time never binds (a 16 KiB chunk transits in
/// ~0.2 µs), low enough that the f64 rounding of a completion timestamp
/// (ulp × rate) stays inside `finish_flow`'s residual-bytes tolerance.
const UNCAPPED_BYTES_PER_SEC: f64 = 1e11;

/// Outcome of one simulated chunked upload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanRun {
    /// Parallel lanes used.
    pub streams: u32,
    /// Simulated seconds from first send to last ack.
    pub elapsed: f64,
    /// Payload goodput in bytes/second (`total_bytes / elapsed`).
    pub goodput: f64,
    /// Chunk sends that never arrived intact — lost, or corrupted and
    /// rejected by the receiver (each forced a retransmit).
    pub lost_chunks: u64,
    /// Total send operations (chunks + retransmits).
    pub sends: u64,
}

/// What one lane is doing between events.
enum LanePhase {
    /// A send's bytes are draining through the bottleneck.
    Transmitting { flow: FlowId, event: LinkEvent },
    /// Waiting for a timer (ack delivery or retransmit timeout), after
    /// which the lane sends its next chunk (or is done).
    Waiting { until: f64 },
    /// All owned chunks acked.
    Done,
}

struct Lane {
    node: NodeId,
    /// Index into the global chunk list of the chunk in flight / next.
    chunk: usize,
    /// Send operations taken on this lane so far (the event-stream op).
    op: u64,
    phase: LanePhase,
}

/// Simulate uploading `total_bytes` split into `chunk_bytes` chunks over
/// `streams` stop-and-wait lanes through one shaped link, with a per-op
/// receive deadline of `timeout_s` driving retransmits.
///
/// `lanes` is the number of lanes registered on the live link for the
/// loss draws — the client call path registers its call connection as
/// lane 0 beside the bulk lanes, so pass `streams + 1` to mirror it
/// (what [`goodput_curve`] does). Bulk lanes draw as lanes `1..=streams`.
pub fn simulate_upload(
    spec: &LinkShape,
    total_bytes: u64,
    chunk_bytes: u32,
    streams: u32,
    lanes: u32,
    timeout_s: f64,
) -> WanRun {
    assert!(total_bytes > 0, "nothing to upload");
    let chunk_bytes = chunk_bytes.max(1) as u64;
    let total = total_bytes.div_ceil(chunk_bytes) as usize;
    let streams = streams.clamp(1, total as u32);
    // Even split, mirroring `chunk_span`: chunk sizes differ by ≤ 1 unit.
    let per = total_bytes.div_ceil(total as u64);
    let chunk_len = |seq: usize| -> u64 {
        let start = (seq as u64) * per;
        (total_bytes - start).min(per)
    };

    let mut topo = Topology::new();
    let server = topo.add_node("server");
    let gate = topo.add_node("wan-gate");
    let cap = if spec.bytes_per_sec == 0 {
        UNCAPPED_BYTES_PER_SEC
    } else {
        spec.bytes_per_sec as f64
    };
    // One shared bottleneck; generous per-lane access links on top.
    topo.add_link(gate, server, cap, 0.0);
    let mut lane_states: Vec<Lane> = (0..streams)
        .map(|w| {
            let node = topo.add_node(format!("lane{w}"));
            topo.add_link(node, gate, UNCAPPED_BYTES_PER_SEC, 0.0);
            Lane {
                node,
                chunk: w as usize,
                op: 0,
                phase: LanePhase::Waiting { until: 0.0 },
            }
        })
        .collect();
    topo.compute_routes();
    let mut net = FluidNet::new(topo);

    let delay = spec.delay_us as f64 * 1e-6;
    let mut acked = 0usize;
    let mut last_ack = 0.0f64;
    let mut lost_chunks = 0u64;
    let mut sends = 0u64;

    while acked < total {
        // Earliest pending event: a flow completing or a lane timer.
        let flow_next = net.next_completion();
        let timer_next = lane_states
            .iter()
            .filter_map(|l| match l.phase {
                LanePhase::Waiting { until } => Some(until),
                _ => None,
            })
            .fold(f64::INFINITY, f64::min);
        let now = match flow_next {
            Some((t, _)) => t.min(timer_next),
            None => timer_next,
        };
        assert!(now.is_finite(), "deadlocked simulation");
        net.advance_to(now);

        if let Some((t, id)) = flow_next {
            if t <= now {
                net.finish_flow(id);
                let lane = lane_states
                    .iter_mut()
                    .find(|l| matches!(l.phase, LanePhase::Transmitting { flow, .. } if flow == id))
                    .expect("completed flow belongs to a lane");
                let LanePhase::Transmitting { event, .. } = lane.phase else {
                    unreachable!()
                };
                match event {
                    // The bytes burned link time and vanished (or arrived
                    // corrupt and were refused); the lane's receive
                    // deadline fires `timeout_s` after the send returned,
                    // then it re-sends the same chunk.
                    LinkEvent::Lose | LinkEvent::Truncate | LinkEvent::Garble => {
                        lane.phase = LanePhase::Waiting {
                            until: now + timeout_s,
                        }
                    }
                    // Chunk lands after the propagation delay (and the
                    // stall, if it was held); the ack returns on the
                    // unshaped reverse path, so the lane frees for its next
                    // chunk at the same instant.
                    LinkEvent::Forward | LinkEvent::Stall => {
                        let stall = match event {
                            LinkEvent::Stall => spec.stall_us as f64 * 1e-6,
                            _ => 0.0,
                        };
                        let landed = now + stall + delay;
                        lane.phase = LanePhase::Waiting { until: landed };
                        acked += 1;
                        last_ack = last_ack.max(landed);
                        lane.chunk += streams as usize;
                    }
                }
                continue;
            }
        }

        // A lane timer fired: start the next send (same chunk after a
        // loss, next owned chunk after an ack).
        for (w, lane) in lane_states.iter_mut().enumerate() {
            let LanePhase::Waiting { until } = lane.phase else {
                continue;
            };
            if until > now {
                continue;
            }
            if lane.chunk >= total {
                lane.phase = LanePhase::Done;
                continue;
            }
            let event = planned_event(spec, w as u32 + 1, lanes, lane.op);
            lane.op += 1;
            sends += 1;
            if !matches!(event, LinkEvent::Forward | LinkEvent::Stall) {
                lost_chunks += 1;
            }
            let flow = net.start_flow(
                FlowSpec {
                    src: lane.node,
                    dst: server,
                    bytes: (chunk_len(lane.chunk) + CHUNK_WIRE_OVERHEAD) as f64,
                    cap: f64::INFINITY,
                },
                now,
            );
            lane.phase = LanePhase::Transmitting { flow, event };
        }
    }

    let elapsed = last_ack.max(f64::MIN_POSITIVE);
    WanRun {
        streams,
        elapsed,
        goodput: total_bytes as f64 / elapsed,
        lost_chunks,
        sends,
    }
}

/// Predicted goodput for each stream count in `streams`, uploading
/// `total_bytes` in `chunk_bytes` chunks — the curve the live
/// `wan-streams` scenario measures. Loss draws use `n + 1` live lanes
/// per point (bulk lanes plus the call connection).
pub fn goodput_curve(
    spec: &LinkShape,
    total_bytes: u64,
    chunk_bytes: u32,
    streams: &[u32],
    timeout_s: f64,
) -> Vec<WanRun> {
    streams
        .iter()
        .map(|&n| simulate_upload(spec, total_bytes, chunk_bytes, n, n + 1, timeout_s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy_wan() -> LinkShape {
        LinkShape::parse("bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997").unwrap()
    }

    #[test]
    fn delay_bound_transfer_scales_with_streams() {
        // Uncapped bandwidth, pure delay: each lane completes one chunk
        // per delay, so N lanes move N× the data per unit time.
        let spec = LinkShape::parse("delay=10ms").unwrap();
        let one = simulate_upload(&spec, 1 << 20, 16 << 10, 1, 2, 1.0);
        let four = simulate_upload(&spec, 1 << 20, 16 << 10, 4, 5, 1.0);
        let ratio = four.goodput / one.goodput;
        assert!(
            (3.5..=4.5).contains(&ratio),
            "expected ~4x from 4 lanes, got {ratio:.2}"
        );
    }

    #[test]
    fn capped_link_bounds_aggregate_goodput() {
        let spec = LinkShape::parse("bw=1m,delay=20ms").unwrap();
        let many = simulate_upload(&spec, 4 << 20, 16 << 10, 16, 17, 1.0);
        assert!(
            many.goodput <= 1_000_000.0 * 1.01,
            "goodput {} exceeds the link cap",
            many.goodput
        );
        // And a single stop-and-wait lane is far below the cap: every
        // chunk pays the propagation delay serially.
        let one = simulate_upload(&spec, 4 << 20, 16 << 10, 1, 2, 1.0);
        assert!(one.goodput < 500_000.0, "N=1 goodput {}", one.goodput);
    }

    #[test]
    fn gridftp_shape_knee_rises_then_falls() {
        let spec = lossy_wan();
        let curve = goodput_curve(&spec, 2 << 20, 16 << 10, &[1, 2, 4, 8, 16], 0.25);
        let g: Vec<f64> = curve.iter().map(|r| r.goodput).collect();
        let best = g
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert!(
            g[best] >= 2.0 * g[0],
            "best-N goodput {:.0} not 2x the N=1 goodput {:.0}",
            g[best],
            g[0]
        );
        assert!(
            (1..4).contains(&best),
            "knee at index {best} (N={}), curve {g:?}",
            curve[best].streams
        );
        assert!(
            *g.last().unwrap() < g[best],
            "congestion must pull N=16 below the knee: {g:?}"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let spec = lossy_wan();
        let a = simulate_upload(&spec, 3 << 20, 16 << 10, 8, 9, 0.25);
        let b = simulate_upload(&spec, 3 << 20, 16 << 10, 8, 9, 0.25);
        assert_eq!(a, b);
    }

    /// The simulator's loss count is exactly what the imported event
    /// function plans for the ops the lane drew — a private copy of the
    /// schedule reappearing here would break this equality.
    #[test]
    fn lost_chunks_are_the_imported_schedules_losses() {
        let spec = LinkShape::parse("bw=4m,delay=2ms,loss=0.2,seed=42").unwrap();
        // One bulk lane draws as lane 1 of 2 (the call connection is lane 0).
        let run = simulate_upload(&spec, 1 << 20, 16 << 10, 1, 2, 0.05);
        let planned = (0..run.sends)
            .filter(|&op| planned_event(&spec, 1, 2, op) == LinkEvent::Lose)
            .count() as u64;
        assert!(planned > 0, "20% loss over {} sends never bit", run.sends);
        assert_eq!(run.lost_chunks, planned);
        assert_eq!(
            run.sends,
            64 + planned,
            "every loss costs exactly one retransmit"
        );
    }

    #[test]
    fn stalls_delay_acks_and_corruption_costs_a_retransmit() {
        let clean = LinkShape::parse("bw=4m,delay=2ms").unwrap();
        let base = simulate_upload(&clean, 1 << 20, 16 << 10, 1, 2, 0.05);
        let stalled = LinkShape::parse("bw=4m,delay=2ms,stall=1.0:10ms").unwrap();
        let slow = simulate_upload(&stalled, 1 << 20, 16 << 10, 1, 2, 0.05);
        assert_eq!(slow.lost_chunks, 0);
        assert!((slow.elapsed - base.elapsed - 64.0 * 0.010).abs() < 1e-6);
        let garbled = LinkShape::parse("bw=4m,delay=2ms,garble=0.2,seed=42").unwrap();
        let run = simulate_upload(&garbled, 1 << 20, 16 << 10, 1, 2, 0.05);
        assert!(run.lost_chunks > 0);
        assert_eq!(run.sends, 64 + run.lost_chunks);
    }
}
