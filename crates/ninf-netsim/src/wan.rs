//! WAN model: the simulator half of `ninf-protocol`'s link model and the
//! client's windowed, chunked bulk upload.
//!
//! The live side (`LinkTransport` + the client's upload) and this module
//! share one link definition by *import*: [`simulate_upload`] takes the
//! same [`LinkShape`] a live run is shaped with and asks the same
//! [`planned_event`] function what each send does, so the two sides cannot
//! disagree about a decision — only about the physics. A chunked upload is
//! simulated as [`FluidNet`] flows through a star topology whose bottleneck
//! is the shaped link:
//!
//! | live event                          | sim event                        |
//! |-------------------------------------|----------------------------------|
//! | the upload's send occupies the link | flow of `chunk + overhead` bytes |
//! | token-bucket FIFO pacing            | the bottleneck's capacity        |
//! | frame arrives `delay_us` after it   | ack timer at completion + delay  |
//! | leaves the sender                   |                                  |
//! | stalled frame arrives `stall_us`    | ack timer pushed out by the stall|
//! | later still                         |                                  |
//! | lost send (consumes link time)      | flow drains, then timeout timer  |
//! | truncated/garbled send is rejected  | flow drains, then timeout timer  |
//! | chunk's deadline passes, retransmit | chunk re-queued at `t + timeout` |
//! | ≤ W un-acked chunks, sent one after | ≤ W un-acked; the next flow      |
//! | another                             | starts when the last has left    |
//!
//! | the call rides behind the last      | one more flow on the lane, right |
//! | chunk's first send                  | after the last fresh chunk's     |
//! | the server parks it until the value | it runs at the later of its own  |
//! | lands                               | arrival and the last chunk's     |
//!
//! Both sides are work-conserving on a single bottleneck, so transfer times
//! agree; the live-vs-sim differential compares the upload phase's share of
//! the link on both sides. The riding call is one more send on the lane:
//! it takes the next op of the same event stream, so the ops of the
//! retransmits behind it shift by one on both sides alike.
//!
//! With a window of one (stop-and-wait) every chunk pays the propagation
//! delay and the link idles between chunks; with the window sized to the
//! bandwidth-delay product ([`ninf_protocol::lane_window`], what the live
//! uploader uses) the link never idles and the upload pays the delay once.

use ninf_protocol::{planned_event, LinkEvent, LinkShape};

use std::collections::VecDeque;

use crate::fluid::{FlowSpec, FluidNet};
use crate::topology::Topology;

/// Wire bytes a chunk frame adds on top of its payload: frame header,
/// mux call id, and the `PutArgChunk` envelope (digest, geometry, CRC,
/// opaque length). Matches the live framing to within padding.
pub const CHUNK_WIRE_OVERHEAD: u64 = 72;

/// Stand-in capacity for an uncapped link (`bytes_per_sec == 0`): high
/// enough that transmission time never binds (a 16 KiB chunk transits in
/// ~0.2 µs), low enough that the f64 rounding of a completion timestamp
/// (ulp × rate) stays inside `finish_flow`'s residual-bytes tolerance.
const UNCAPPED_BYTES_PER_SEC: f64 = 1e11;

/// The upload's lane id on the live link, where the call connection is
/// lane 0: its loss draws are this lane's.
const BULK_LANE: u32 = 1;

/// What the lane is sending when it sends the riding call, not a chunk.
const CALL: usize = usize::MAX;

/// Outcome of one simulated chunked upload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanRun {
    /// Simulated seconds from first send to last ack.
    pub elapsed: f64,
    /// Payload goodput in bytes/second (`total_bytes / elapsed`).
    pub goodput: f64,
    /// Chunk sends that never arrived intact — lost, or corrupted and
    /// rejected by the receiver (each forced a retransmit).
    pub lost_chunks: u64,
    /// Total send operations (chunks, retransmits, and the riding call).
    pub sends: u64,
    /// When the riding call can run: the later of its own arrival and the
    /// last chunk's. `None` without a call, or when its send was lost.
    pub call_at: Option<f64>,
}

/// A chunk sent and not yet resolved: when its timer fires it either
/// leaves the window (acked) or is queued to be sent again (timed out).
struct Pending {
    until: f64,
    /// The chunk to send again, if this send never arrived intact.
    resend: Option<usize>,
}

/// Simulate uploading `total_bytes` split into `chunk_bytes` chunks over
/// one lane through one shaped link, keeping at most `window` chunks
/// un-acked (`1` is stop-and-wait), with a per-chunk ack deadline of
/// `timeout_s` driving retransmits.
///
/// `lanes` is the number of lanes registered on the live link for the
/// loss draws — the client registers its call connection as lane 0 beside
/// the upload, so pass `2` to mirror it. The upload draws as lane 1.
/// `call_bytes` is the wire size of the call riding behind the last chunk,
/// if one does.
pub fn simulate_upload(
    spec: &LinkShape,
    total_bytes: u64,
    chunk_bytes: u32,
    lanes: u32,
    window: u32,
    timeout_s: f64,
    call_bytes: Option<u64>,
) -> WanRun {
    assert!(total_bytes > 0, "nothing to upload");
    let window = window.max(1) as usize;
    let chunk_bytes = chunk_bytes.max(1) as u64;
    let total = total_bytes.div_ceil(chunk_bytes) as usize;
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
    // The shared bottleneck, with a generous access link on top.
    topo.add_link(gate, server, cap, 0.0);
    let node = topo.add_node("lane");
    topo.add_link(node, gate, UNCAPPED_BYTES_PER_SEC, 0.0);
    topo.compute_routes();
    let mut net = FluidNet::new(topo);

    let delay = spec.delay_us as f64 * 1e-6;
    // Chunks never sent yet, and chunks to send again ahead of them.
    let mut fresh = 0..total;
    let mut again = VecDeque::new();
    // The send whose bytes are draining through the bottleneck: at most
    // one, the next starts when this one has left.
    let mut sending = None;
    // Sends that have left and hold a window slot.
    let mut pending: Vec<Pending> = Vec::new();
    let mut acked = 0usize;
    let mut last_ack = 0.0f64;
    let mut lost_chunks = 0u64;
    let mut sends = 0u64;
    let mut now = 0.0f64;
    // The riding call: still to send, and when it arrived.
    let mut call_unsent = call_bytes;
    let mut call_arrived = None;

    while acked < total || call_unsent.is_some() || matches!(sending, Some((_, CALL, _))) {
        // Once every chunk has had its first send, the call goes next,
        // window or not.
        if sending.is_none() && fresh.is_empty() {
            if let Some(bytes) = call_unsent.take() {
                let event = planned_event(spec, BULK_LANE, lanes, sends);
                sends += 1;
                let flow = net.start_flow(
                    FlowSpec {
                        src: node,
                        dst: server,
                        bytes: bytes as f64,
                        cap: f64::INFINITY,
                    },
                    now,
                );
                sending = Some((flow, CALL, event));
            }
        }
        // With a free window slot and nothing draining, the next send
        // starts now; `sends` is also its op on the event stream.
        if sending.is_none() && pending.len() < window {
            if let Some(chunk) = again.pop_front().or_else(|| fresh.next()) {
                let event = planned_event(spec, BULK_LANE, lanes, sends);
                sends += 1;
                if !matches!(event, LinkEvent::Forward | LinkEvent::Stall) {
                    lost_chunks += 1;
                }
                let flow = net.start_flow(
                    FlowSpec {
                        src: node,
                        dst: server,
                        bytes: (chunk_len(chunk) + CHUNK_WIRE_OVERHEAD) as f64,
                        cap: f64::INFINITY,
                    },
                    now,
                );
                sending = Some((flow, chunk, event));
            }
        }

        // Earliest pending event: the flow completing or a chunk timer.
        let flow_next = net.next_completion();
        let timer_next = pending
            .iter()
            .map(|p| p.until)
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
                let (_, chunk, event) = sending.take().expect("the one flow is the send");
                if chunk == CALL {
                    call_arrived = match event {
                        LinkEvent::Forward => Some(now + delay),
                        LinkEvent::Stall => Some(now + delay + spec.stall_us as f64 * 1e-6),
                        _ => None,
                    };
                    continue;
                }
                pending.push(match event {
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
            _ => pending.retain(|p| {
                let fired = p.until <= now;
                if fired {
                    again.extend(p.resend);
                }
                !fired
            }),
        }
    }

    let elapsed = last_ack.max(f64::MIN_POSITIVE);
    WanRun {
        elapsed,
        goodput: total_bytes as f64 / elapsed,
        lost_chunks,
        sends,
        call_at: call_arrived.map(|t: f64| t.max(last_ack)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::lane_window;

    #[test]
    fn capped_link_bounds_aggregate_goodput() {
        let spec = LinkShape::parse("bw=1m,delay=20ms").unwrap();
        let full = simulate_upload(&spec, 4 << 20, 16 << 10, 2, 16, 1.0, None);
        assert!(
            full.goodput <= 1_000_000.0 * 1.01,
            "goodput {} exceeds the link cap",
            full.goodput
        );
        // And a stop-and-wait lane is far below the cap: every chunk pays
        // the propagation delay serially.
        let one = simulate_upload(&spec, 4 << 20, 16 << 10, 2, 1, 1.0, None);
        assert!(
            one.goodput < 500_000.0,
            "stop-and-wait goodput {}",
            one.goodput
        );
    }

    /// The window term changed nothing for a window of one: these are the
    /// numbers the stop-and-wait simulator printed before it had one (the
    /// `faulty` pin was computed by the multi-lane simulator at one lane,
    /// before the lane dimension was cut).
    #[test]
    fn window_of_one_is_the_stop_and_wait_model_bit_for_bit() {
        let run = |spec: &str, bytes, timeout| {
            let spec = LinkShape::parse(spec).unwrap();
            let r = simulate_upload(&spec, bytes, 16 << 10, 2, 1, timeout, None);
            (r.elapsed.to_bits(), r.lost_chunks, r.sends)
        };
        let lossy = "bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997";
        assert_eq!(run(lossy, 2 << 20, 0.25), (0x401069856a37ac3b, 4, 132));
        let faulty = "bw=4m,delay=2ms,loss=0.1,stall=0.1:10ms,garble=0.05,seed=42";
        assert_eq!(run(faulty, 1 << 20, 0.05), (0x3feeaa92e621319f, 9, 73));
    }

    #[test]
    fn a_full_window_pays_the_delay_once() {
        // Loss-free, window ≥ BDP: the link never idles, so the upload
        // takes its wire bytes over the bandwidth plus one delay.
        let spec = LinkShape::parse("bw=4m,delay=20ms").unwrap();
        let (bytes, chunk) = (2u64 << 20, 16u32 << 10);
        let chunks = bytes / chunk as u64;
        let wire = (bytes + chunks * CHUNK_WIRE_OVERHEAD) as f64;
        let full = simulate_upload(&spec, bytes, chunk, 2, 16, 1.0, None);
        assert!(
            (full.elapsed - (wire / 4e6 + 0.020)).abs() < 1e-9,
            "{full:?}"
        );
        assert_eq!(full.sends, chunks);
        // The computed window (10 chunks of a 9.77-chunk BDP, whose ack
        // also waits out the chunk's own 1.03-chunk serialisation) idles
        // the link a little each round trip; stop-and-wait idles it most.
        let sized = simulate_upload(
            &spec,
            bytes,
            chunk,
            2,
            lane_window(Some(&spec), chunk),
            1.0,
            None,
        );
        let one = simulate_upload(&spec, bytes, chunk, 2, 1, 1.0, None);
        assert!(sized.elapsed < 1.1 * full.elapsed, "{sized:?} vs {full:?}");
        assert!(one.elapsed > 5.0 * full.elapsed, "{one:?} vs {full:?}");
    }

    /// The riding call is one more send on the lane, right behind the
    /// last fresh chunk: it leaves the chunks' timing alone and runs when
    /// it arrives, one delay after the link went idle — not a delay after
    /// the last ack, which is what a call sent after the upload would pay.
    #[test]
    fn the_riding_call_runs_one_delay_after_the_link_idles() {
        let spec = LinkShape::parse("bw=4m,delay=20ms").unwrap();
        let (bytes, chunk) = (73_740u64, 16u32 << 10);
        let window = lane_window(Some(&spec), chunk);
        let bare = simulate_upload(&spec, bytes, chunk, 2, window, 0.15, None);
        let ride = simulate_upload(&spec, bytes, chunk, 2, window, 0.15, Some(1000));
        assert_eq!((ride.sends, ride.elapsed), (bare.sends + 1, bare.elapsed));
        assert_eq!(bare.call_at, None);
        let idle = bare.elapsed - 0.020;
        let call_at = ride.call_at.expect("a loss-free link delivers the call");
        assert!(
            (call_at - (idle + 1000.0 / 4e6 + 0.020)).abs() < 1e-9,
            "{ride:?}"
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let spec =
            LinkShape::parse("bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997").unwrap();
        let a = simulate_upload(&spec, 3 << 20, 16 << 10, 2, 10, 0.25, None);
        let b = simulate_upload(&spec, 3 << 20, 16 << 10, 2, 10, 0.25, None);
        assert_eq!(a, b);
    }

    /// The simulator's loss count is exactly what the imported event
    /// function plans for the ops the upload drew — a private copy of the
    /// schedule reappearing here would break this equality.
    #[test]
    fn lost_chunks_are_the_imported_schedules_losses() {
        let spec = LinkShape::parse("bw=4m,delay=2ms,loss=0.2,seed=42").unwrap();
        // The upload draws as lane 1 of 2 (the call connection is lane 0).
        let run = simulate_upload(&spec, 1 << 20, 16 << 10, 2, 1, 0.05, None);
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
        let base = simulate_upload(&clean, 1 << 20, 16 << 10, 2, 1, 0.05, None);
        let stalled = LinkShape::parse("bw=4m,delay=2ms,stall=1.0:10ms").unwrap();
        let slow = simulate_upload(&stalled, 1 << 20, 16 << 10, 2, 1, 0.05, None);
        assert_eq!(slow.lost_chunks, 0);
        assert!((slow.elapsed - base.elapsed - 64.0 * 0.010).abs() < 1e-6);
        let garbled = LinkShape::parse("bw=4m,delay=2ms,garble=0.2,seed=42").unwrap();
        let run = simulate_upload(&garbled, 1 << 20, 16 << 10, 2, 1, 0.05, None);
        assert!(run.lost_chunks > 0);
        assert_eq!(run.sends, 64 + run.lost_chunks);
    }
}
