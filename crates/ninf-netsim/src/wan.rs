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
//! | live event                          | sim event                        |
//! |-------------------------------------|----------------------------------|
//! | lane send occupies the link         | flow of `chunk + overhead` bytes |
//! | token-bucket FIFO pacing            | max-min share of the bottleneck  |
//! | frame arrives `delay_us` after it   | ack timer at completion + delay  |
//! | leaves the sender                   |                                  |
//! | stalled frame arrives `stall_us`    | ack timer pushed out by the stall|
//! | later still                         |                                  |
//! | lost send (consumes link time)      | flow drains, then timeout timer  |
//! | truncated/garbled send is rejected  | flow drains, then timeout timer  |
//! | chunk's deadline passes, retransmit | chunk re-queued at `t + timeout` |
//! | ≤ W un-acked chunks per lane, sent  | ≤ W un-acked per lane; the next  |
//! | one after another                   | flow starts when the last has    |
//! |                                     | left the lane                    |
//!
//! Both sides are work-conserving on a single bottleneck, so aggregate
//! transfer times agree; microscopic ordering differs (FIFO vs fair
//! share), which is why the live-vs-sim differential test compares
//! *normalized* throughput-vs-streams shapes, not absolute numbers.
//!
//! With a window of one (stop-and-wait) the predicted curve reproduces the
//! GridFTP parallel-stream result: goodput climbs with stream count while
//! lanes pipeline through each other's propagation gaps, flattens when the
//! link saturates, and falls again once the congestion term drives the
//! effective loss rate up faster than added lanes add capacity. With the
//! window sized to the bandwidth-delay product ([`lane_window`], what the
//! live uploader uses) one lane already fills the link, and only the
//! falling half of that curve is left.

use ninf_protocol::{lane_window, planned_event, LinkEvent, LinkShape};

use std::collections::VecDeque;

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

/// A chunk sent and not yet resolved: when its timer fires it either
/// leaves the window (acked) or is queued to be sent again (timed out).
struct Pending {
    until: f64,
    /// The chunk to send again, if this send never arrived intact.
    resend: Option<usize>,
}

struct Lane {
    node: NodeId,
    /// Next owned chunk never sent yet.
    fresh: usize,
    /// Chunks to send again, ahead of fresh ones.
    again: VecDeque<usize>,
    /// Send operations taken on this lane so far (the event-stream op).
    op: u64,
    /// The send whose bytes are draining through the bottleneck: at most
    /// one per lane, the next starts when this one has left.
    sending: Option<(FlowId, usize, LinkEvent)>,
    /// Sends that have left the lane and hold a window slot.
    pending: Vec<Pending>,
}

/// Simulate uploading `total_bytes` split into `chunk_bytes` chunks over
/// `streams` lanes through one shaped link, each lane keeping at most
/// `window` chunks un-acked (`1` is stop-and-wait), with a per-chunk ack
/// deadline of `timeout_s` driving retransmits.
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
    window: u32,
    timeout_s: f64,
) -> WanRun {
    assert!(total_bytes > 0, "nothing to upload");
    let window = window.max(1) as usize;
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
                fresh: w as usize,
                again: VecDeque::new(),
                op: 0,
                sending: None,
                pending: Vec::new(),
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
    let mut now = 0.0f64;

    while acked < total {
        // Every lane with a free window slot, nothing draining and
        // something to send starts its next send now.
        for (w, lane) in lane_states.iter_mut().enumerate() {
            if lane.sending.is_some() || lane.pending.len() >= window {
                continue;
            }
            let chunk = match lane.again.pop_front() {
                Some(chunk) => chunk,
                None if lane.fresh < total => {
                    lane.fresh += streams as usize;
                    lane.fresh - streams as usize
                }
                None => continue,
            };
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
                    bytes: (chunk_len(chunk) + CHUNK_WIRE_OVERHEAD) as f64,
                    cap: f64::INFINITY,
                },
                now,
            );
            lane.sending = Some((flow, chunk, event));
        }

        // Earliest pending event: a flow completing or a chunk timer.
        let flow_next = net.next_completion();
        let timer_next = lane_states
            .iter()
            .flat_map(|l| l.pending.iter().map(|p| p.until))
            .fold(f64::INFINITY, f64::min);
        now = match flow_next {
            Some((t, _)) => t.min(timer_next),
            None => timer_next,
        };
        assert!(now.is_finite(), "deadlocked simulation");
        net.advance_to(now);

        match flow_next {
            Some((t, id)) if t <= now => {
                net.finish_flow(id);
                let lane = lane_states
                    .iter_mut()
                    .find(|l| matches!(l.sending, Some((flow, ..)) if flow == id))
                    .expect("completed flow belongs to a lane");
                let (_, chunk, event) = lane.sending.take().expect("just matched");
                lane.pending.push(match event {
                    // The bytes burned link time and vanished (or arrived
                    // corrupt and were refused); the chunk's deadline fires
                    // `timeout_s` after the send returned, then it is sent
                    // again.
                    LinkEvent::Lose | LinkEvent::Truncate | LinkEvent::Garble => Pending {
                        until: now + timeout_s,
                        resend: Some(chunk),
                    },
                    // Chunk lands after the propagation delay (and the
                    // stall, if it was held); the ack returns on the
                    // unshaped reverse path, so the window slot frees at
                    // the same instant.
                    LinkEvent::Forward | LinkEvent::Stall => {
                        let stall = match event {
                            LinkEvent::Stall => spec.stall_us as f64 * 1e-6,
                            _ => 0.0,
                        };
                        let landed = now + stall + delay;
                        acked += 1;
                        last_ack = last_ack.max(landed);
                        Pending {
                            until: landed,
                            resend: None,
                        }
                    }
                });
            }
            // A chunk timer fired: its window slot frees, and a chunk that
            // never arrived queues to be sent again.
            _ => {
                for Lane { pending, again, .. } in &mut lane_states {
                    pending.retain(|p| {
                        let fired = p.until <= now;
                        if fired {
                            again.extend(p.resend);
                        }
                        !fired
                    });
                }
            }
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
/// per point (bulk lanes plus the call connection), and every lane keeps
/// the window the live uploader computes for this link ([`lane_window`]).
pub fn goodput_curve(
    spec: &LinkShape,
    total_bytes: u64,
    chunk_bytes: u32,
    streams: &[u32],
    timeout_s: f64,
) -> Vec<WanRun> {
    let window = lane_window(Some(spec), chunk_bytes);
    streams
        .iter()
        .map(|&n| simulate_upload(spec, total_bytes, chunk_bytes, n, n + 1, window, timeout_s))
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
        let one = simulate_upload(&spec, 1 << 20, 16 << 10, 1, 2, 1, 1.0);
        let four = simulate_upload(&spec, 1 << 20, 16 << 10, 4, 5, 1, 1.0);
        let ratio = four.goodput / one.goodput;
        assert!(
            (3.5..=4.5).contains(&ratio),
            "expected ~4x from 4 lanes, got {ratio:.2}"
        );
    }

    #[test]
    fn capped_link_bounds_aggregate_goodput() {
        let spec = LinkShape::parse("bw=1m,delay=20ms").unwrap();
        let many = simulate_upload(&spec, 4 << 20, 16 << 10, 16, 17, 1, 1.0);
        assert!(
            many.goodput <= 1_000_000.0 * 1.01,
            "goodput {} exceeds the link cap",
            many.goodput
        );
        // And a single stop-and-wait lane is far below the cap: every
        // chunk pays the propagation delay serially.
        let one = simulate_upload(&spec, 4 << 20, 16 << 10, 1, 2, 1, 1.0);
        assert!(one.goodput < 500_000.0, "N=1 goodput {}", one.goodput);
    }

    #[test]
    fn stop_and_wait_gridftp_shape_knee_rises_then_falls() {
        let spec = lossy_wan();
        let curve: Vec<WanRun> = [1, 2, 4, 8, 16]
            .map(|n| simulate_upload(&spec, 2 << 20, 16 << 10, n, n + 1, 1, 0.25))
            .into();
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

    /// The window term changed nothing for a window of one: these are the
    /// numbers the stop-and-wait simulator printed before it had one.
    #[test]
    fn window_of_one_is_the_stop_and_wait_model_bit_for_bit() {
        let run = |spec: &str, bytes, streams, timeout| {
            let spec = LinkShape::parse(spec).unwrap();
            let r = simulate_upload(&spec, bytes, 16 << 10, streams, streams + 1, 1, timeout);
            (r.elapsed.to_bits(), r.lost_chunks, r.sends)
        };
        let lossy = "bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997";
        assert_eq!(run(lossy, 2 << 20, 1, 0.25), (0x401069856a37ac3b, 4, 132));
        assert_eq!(run(lossy, 2 << 20, 4, 0.25), (0x3ffe84d1d30da05f, 11, 139));
        assert_eq!(run(lossy, 2 << 20, 16, 0.25), (0x400353dd6541d2f6, 68, 196));
        let faulty = "bw=4m,delay=2ms,loss=0.1,stall=0.1:10ms,garble=0.05,seed=42";
        assert_eq!(run(faulty, 1 << 20, 3, 0.05), (0x3fe0bc8c0ce91c8f, 9, 73));
    }

    #[test]
    fn a_full_window_pays_the_delay_once() {
        // Loss-free, window ≥ BDP: the link never idles, so the upload
        // takes its wire bytes over the bandwidth plus one delay.
        let spec = LinkShape::parse("bw=4m,delay=20ms").unwrap();
        let (bytes, chunk) = (2u64 << 20, 16u32 << 10);
        let chunks = bytes / chunk as u64;
        let wire = (bytes + chunks * CHUNK_WIRE_OVERHEAD) as f64;
        let full = simulate_upload(&spec, bytes, chunk, 1, 2, 16, 1.0);
        assert!(
            (full.elapsed - (wire / 4e6 + 0.020)).abs() < 1e-9,
            "{full:?}"
        );
        assert_eq!(full.sends, chunks);
        // The computed window (10 chunks of a 9.77-chunk BDP, whose ack
        // also waits out the chunk's own 1.03-chunk serialisation) idles
        // the link a little each round trip; stop-and-wait idles it most.
        let sized = goodput_curve(&spec, bytes, chunk, &[1], 1.0)[0];
        let one = simulate_upload(&spec, bytes, chunk, 1, 2, 1, 1.0);
        assert!(sized.elapsed < 1.1 * full.elapsed, "{sized:?} vs {full:?}");
        assert!(one.elapsed > 5.0 * full.elapsed, "{one:?} vs {full:?}");
    }

    #[test]
    fn with_the_window_sized_lanes_add_only_congestion() {
        let spec = lossy_wan();
        let g: Vec<f64> = goodput_curve(&spec, 2 << 20, 16 << 10, &[1, 2, 4, 8, 16], 0.15)
            .iter()
            .map(|r| r.goodput)
            .collect();
        let stop_and_wait = simulate_upload(&spec, 2 << 20, 16 << 10, 8, 9, 1, 0.15).goodput;
        assert!(
            g[0] > stop_and_wait,
            "one windowed lane {:.0} must beat eight stop-and-wait lanes {stop_and_wait:.0}",
            g[0]
        );
        assert!(
            g[4] < g[0] && g[4] < g[1],
            "congestion must pull N=16 down: {g:?}"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let spec = lossy_wan();
        let a = simulate_upload(&spec, 3 << 20, 16 << 10, 8, 9, 1, 0.25);
        let b = simulate_upload(&spec, 3 << 20, 16 << 10, 8, 9, 1, 0.25);
        assert_eq!(a, b);
    }

    /// The simulator's loss count is exactly what the imported event
    /// function plans for the ops the lane drew — a private copy of the
    /// schedule reappearing here would break this equality.
    #[test]
    fn lost_chunks_are_the_imported_schedules_losses() {
        let spec = LinkShape::parse("bw=4m,delay=2ms,loss=0.2,seed=42").unwrap();
        // One bulk lane draws as lane 1 of 2 (the call connection is lane 0).
        let run = simulate_upload(&spec, 1 << 20, 16 << 10, 1, 2, 1, 0.05);
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
        let base = simulate_upload(&clean, 1 << 20, 16 << 10, 1, 2, 1, 0.05);
        let stalled = LinkShape::parse("bw=4m,delay=2ms,stall=1.0:10ms").unwrap();
        let slow = simulate_upload(&stalled, 1 << 20, 16 << 10, 1, 2, 1, 0.05);
        assert_eq!(slow.lost_chunks, 0);
        assert!((slow.elapsed - base.elapsed - 64.0 * 0.010).abs() < 1e-6);
        let garbled = LinkShape::parse("bw=4m,delay=2ms,garble=0.2,seed=42").unwrap();
        let run = simulate_upload(&garbled, 1 << 20, 16 << 10, 1, 2, 1, 0.05);
        assert!(run.lost_chunks > 0);
        assert_eq!(run.sends, 64 + run.lost_chunks);
    }
}
