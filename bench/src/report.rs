//! From windows, records and replay rows to named metrics: the end-to-end
//! set of the untraced run, the per-layer ledger of the traced run, and the
//! span tree that reconciles the two.

use ninf_protocol::CallStat;

use crate::live::{Counters, TracedCall, Window};
use crate::replay::{Frames, REPLAY_TRACE};
use crate::span::Recorder;
use crate::spec::{Metrics, Workload, END_TO_END, PER_LAYER};
use crate::stats;

/// Live calls whose spans are written out, per run (the per-layer medians
/// use every call; only the file is capped).
const MAX_SPAN_CALLS: usize = 512;

/// Bytes sent plus received over all OK calls, computed from the codec's
/// own frame sizes and the counts the client reports per call: every term
/// is `encode_frame(..).len()` of a message this workload sends, times how
/// often `CallTiming` says it was sent.
pub fn wire_bytes(frames: &Frames, c: &Counters, ok: u64) -> u64 {
    let ok_us = ok as usize;
    // A refill re-ships the whole request inline after the ref'd attempt.
    let first_shipped =
        c.request_bytes as usize - c.refill_calls as usize * frames.request_payload_bytes;
    let invokes = frames.invoke_bytes(ok_us, first_shipped, c.args_refd as usize);
    let replies = ok_us * frames.reply_frame_bytes;
    let refills = c.refill_calls as usize
        * (frames.need_arg_frame_bytes.0 + frames.inline_invoke_frame_bytes)
        + c.args_refilled as usize * frames.need_arg_frame_bytes.1;
    let bulk = frames.bulk.as_ref().map_or(0, |b| {
        let uploads = c.bulk_bytes as usize / b.image.len();
        uploads * b.upload_wire_bytes + c.bulk_retransmits as usize * b.chunk_frame_bytes
    });
    // A retried attempt sent its Invoke before it timed out.
    let retries = (c.attempts.saturating_sub(ok)) as usize * frames.invoke_frame_bytes;
    (invokes + replies + refills + bulk + retries) as u64
}

/// The end-to-end metrics of one untraced window.
pub fn end_to_end(frames: &Frames, win: &Window, setup_s: f64, peak_rss_mib: f64) -> Metrics {
    let mut m = Metrics::new();
    m.insert("setup_s", setup_s);
    m.insert("calls_per_s", win.calls_per_s);
    m.insert("call_p50_ms", stats::percentile(&win.latencies_ms, 50.0));
    m.insert("call_p90_ms", stats::percentile(&win.latencies_ms, 90.0));
    m.insert(
        "payload_mb_per_s",
        frames.payload_bytes as f64 * win.calls_per_s / 1e6,
    );
    m.insert(
        "wire_bytes_per_call",
        wire_bytes(frames, &win.counters, win.ok) as f64 / win.ok.max(1) as f64,
    );
    m.insert("peak_rss_mb", peak_rss_mib);
    m
}

/// One server record on the rig's clock, in seconds.
#[derive(Debug, Clone, Copy)]
struct Rec {
    submit: f64,
    enqueue: f64,
    dequeue: f64,
    complete: f64,
}

/// Match server records to the client calls that caused them. Each
/// client's calls are sequential, so a record can only belong to a
/// client's earliest call not yet ended when the record completed; among
/// the clients whose current call contains the record, the one whose call
/// ends soonest after it wins (the reply is the short leg). Returns, per
/// call index, the matched record.
fn join(calls: &[TracedCall], clients: usize, recs: &[Rec]) -> Vec<Option<Rec>> {
    const SLACK_S: f64 = 300e-6;
    let mut by_client: Vec<Vec<usize>> = vec![Vec::new(); clients];
    for (i, c) in calls.iter().enumerate() {
        by_client[c.client].push(i);
    }
    let mut cursor = vec![0usize; clients];
    let mut joined = vec![None; calls.len()];
    for r in recs {
        let mut best: Option<(f64, usize)> = None;
        for (c, idxs) in by_client.iter().enumerate() {
            while cursor[c] < idxs.len() && calls[idxs[cursor[c]]].end_s + SLACK_S < r.complete {
                cursor[c] += 1;
            }
            let Some(&i) = idxs.get(cursor[c]) else {
                continue;
            };
            if calls[i].start_s <= r.submit + SLACK_S {
                let tail = calls[i].end_s - r.complete;
                if best.is_none_or(|(t, _)| tail < t) {
                    best = Some((tail, c));
                }
            }
        }
        if let Some((_, c)) = best {
            joined[by_client[c][cursor[c]]] = Some(*r);
            cursor[c] += 1;
        }
    }
    joined
}

fn p50(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>())
}

/// Everything the traced run hands to [`per_layer`].
pub struct TracedRun<'a> {
    pub w: &'a Workload,
    pub frames: &'a Frames,
    /// The untraced quarters before and after the traced half.
    pub untraced: [&'a Window; 2],
    pub traced: &'a Window,
    pub records: &'a [CallStat],
    /// Seconds to subtract from a server timestamp to get rig time.
    pub clock_offset_s: f64,
    pub replay: &'a Metrics,
    /// The rig's `cold_s`.
    pub setup_cold_s: f64,
}

/// The per-layer ledger. Live spans (capped) and the replay tree are
/// already in / added to `rec`.
pub fn per_layer(run: &TracedRun<'_>, rec: &mut Recorder) -> Metrics {
    let TracedRun {
        w,
        frames,
        untraced,
        traced,
        records,
        clock_offset_s,
        replay,
        setup_cold_s,
    } = *run;
    let mut m: Metrics = replay.clone();
    let ok = traced.ok.max(1) as f64;
    let calls = &traced.traced;

    // server: the §4.1 timeline of every record completed in the window.
    m.insert(
        "server.wait_ms_p50",
        p50(records.iter().map(|r| r.wait() * 1e3)),
    );
    m.insert(
        "server.service_ms_p50",
        p50(records.iter().map(|r| r.service() * 1e3)),
    );
    m.insert(
        "server.response_ms_p50",
        p50(records.iter().map(|r| r.response() * 1e3)),
    );
    // The record ring keeps the latest 65 536 calls, so utilisation is
    // taken over the span the retained records cover, not the window.
    let busy: f64 = records.iter().map(CallStat::service).sum();
    let first = records
        .iter()
        .map(|r| r.t_submit)
        .fold(f64::INFINITY, f64::min);
    let last = records
        .iter()
        .map(|r| r.t_complete)
        .fold(f64::NEG_INFINITY, f64::max);
    m.insert(
        "server.pe_utilisation",
        if last > first {
            busy / ((last - first) * w.pes as f64)
        } else {
            0.0
        },
    );
    let server = traced.server;
    m.insert("server.argcache_hit_share", server.hit_share());
    let chunks_sent = frames.bulk.as_ref().map_or(0, |b| {
        traced.counters.bulk_bytes / b.image.len() as u64 * u64::from(b.chunks)
            + traced.counters.bulk_retransmits
    });
    m.insert(
        "server.chunk_dup_share",
        if chunks_sent == 0 {
            0.0
        } else {
            (1.0 - server.chunks_accepted as f64 / chunks_sent as f64).max(0.0)
        },
    );

    // client: CallTiming of every traced call, joined with its record.
    let recs: Vec<Rec> = records
        .iter()
        .map(|r| Rec {
            submit: r.t_submit - clock_offset_s,
            enqueue: r.t_enqueue - clock_offset_s,
            dequeue: r.t_dequeue - clock_offset_s,
            complete: r.t_complete - clock_offset_s,
        })
        .collect();
    let joined = join(calls, w.clients, &recs);
    let n_joined = joined.iter().flatten().count();
    m.insert(
        "client.interface_us_p50",
        p50(calls.iter().map(|c| c.timing.interface * 1e6)),
    );
    m.insert(
        "client.marshal_us_p50",
        p50(calls.iter().map(|c| c.timing.marshal * 1e6)),
    );
    m.insert(
        "client.roundtrip_us_p50",
        p50(calls.iter().map(|c| c.timing.roundtrip * 1e6)),
    );
    m.insert(
        "client.transfer_us_p50",
        p50(calls
            .iter()
            .zip(&joined)
            .filter_map(|(c, r)| r.map(|r| (c.timing.roundtrip - (r.complete - r.submit)) * 1e6))),
    );
    let live_p50_ms = stats::percentile(&traced.latencies_ms, 50.0);
    m.insert("client.call_p50_ms", live_p50_ms);
    m.insert(
        "client.call_p99_ms",
        stats::percentile(&traced.latencies_ms, 99.0),
    );
    m.insert(
        "client.mflops_p50",
        crate::gen::flops(w.routine, w.n) / (live_p50_ms * 1e3).max(1e-9),
    );
    let cacheable_args = frames.cacheable_args() as f64;
    m.insert(
        "client.args_refd_share",
        if cacheable_args == 0.0 {
            0.0
        } else {
            traced.counters.args_refd as f64 / (ok * cacheable_args)
        },
    );
    m.insert(
        "client.args_refilled_per_call",
        traced.counters.args_refilled as f64 / ok,
    );
    m.insert(
        "client.bulk_retransmits_per_call",
        traced.counters.bulk_retransmits as f64 / ok,
    );
    m.insert(
        "client.attempts_per_call",
        traced.counters.attempts as f64 / ok,
    );
    m.insert("client.samples", traced.ok as f64);

    // protocol: how much of the shaped link the payload rate uses.
    let payload_rate = frames.payload_bytes as f64 * traced.calls_per_s;
    let bw = crate::live::wan_shape().bytes_per_sec as f64;
    m.insert(
        "protocol.link_utilisation",
        if w.wan && bw > 0.0 {
            payload_rate / bw
        } else {
            0.0
        },
    );

    // Spans: the replay tree is in `rec`; add the live calls.
    for (i, (call, r)) in calls.iter().zip(&joined).take(MAX_SPAN_CALLS).enumerate() {
        let us = |s: f64| s * 1e6;
        let trace_id = i as u64 + 1;
        let (start, end) = (us(call.start_s), us(call.end_s));
        let root = rec.record(trace_id, None, "call", start, end);
        let iface_end = start + us(call.timing.interface);
        rec.record(trace_id, Some(root), "client.interface", start, iface_end);
        let marshal_end = iface_end + us(call.timing.marshal);
        rec.record(
            trace_id,
            Some(root),
            "client.marshal",
            iface_end,
            marshal_end,
        );
        // The round trip is the call's last segment; a bulk upload, which
        // CallTiming does not time, is the gap before it.
        let rt_start = (end - us(call.timing.roundtrip)).max(marshal_end);
        let rt = rec.record(trace_id, Some(root), "client.roundtrip", rt_start, end);
        if let Some(r) = r {
            rec.record(
                trace_id,
                Some(rt),
                "server.wait",
                us(r.enqueue),
                us(r.dequeue),
            );
            rec.record(
                trace_id,
                Some(rt),
                "server.service",
                us(r.dequeue),
                us(r.complete),
            );
        }
    }

    // trace: does the replay add up to the live call?
    let replay_sum: f64 = rec.self_times(REPLAY_TRACE).iter().map(|(_, t)| t).sum();
    m.insert("trace.replay_sum_us", replay_sum);
    m.insert(
        "trace.residual_share",
        (live_p50_ms * 1e3 - replay_sum) / (live_p50_ms * 1e3).max(1e-9),
    );
    let plain_rate = (untraced[0].calls_per_s + untraced[1].calls_per_s) / 2.0;
    m.insert(
        "trace.overhead_share",
        (plain_rate - traced.calls_per_s) / plain_rate.max(1e-9),
    );
    m.insert(
        "trace.joined_share",
        n_joined as f64 / calls.len().max(1) as f64,
    );

    // bench: the tester's own share, and what failed (all three windows).
    m.insert("bench.setup_cold_ms", setup_cold_s * 1e3);
    m.insert("bench.cpu_ms_per_call", traced.cpu_s * 1e3 / ok);
    m.insert("bench.generator_share", traced.generator_share);
    let (attempted, errors) = crate::live::tally(&[untraced[0], traced, untraced[1]]);
    m.insert(
        "bench.error_share",
        errors.total() as f64 / attempted.max(1) as f64,
    );
    m.insert("bench.errors_remote", errors.remote as f64);
    m.insert("bench.errors_timeout", errors.timeout as f64);
    m.insert("bench.errors_transport", errors.transport as f64);
    m.insert("bench.errors_mismatch", errors.mismatch as f64);
    m.insert(
        "bench.tail_samples_beyond_p90",
        stats::beyond(traced.latencies_ms.len(), 90.0) as f64,
    );
    m
}

/// The `metrics` object of the result line: every name of the spec table,
/// in table order, and nothing else — a metric the code forgot, or one the
/// table does not list, panics here instead of drifting.
pub fn metrics_json(mut m: Metrics, trace: bool) -> serde_json::Value {
    let mut out = serde_json::Map::new();
    let mut put = |name: &'static str, unit: &'static str| {
        let value = m
            .remove(name)
            .unwrap_or_else(|| panic!("metric `{name}` is in the spec table but was not measured"));
        out.insert(
            name.to_owned(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    };
    if trace {
        PER_LAYER
            .iter()
            .for_each(|&(name, unit, _)| put(name, unit));
    } else {
        END_TO_END.iter().for_each(|e| put(e.name, e.unit));
    }
    assert!(
        m.is_empty(),
        "measured but not in the spec table: {:?}",
        m.keys()
    );
    serde_json::Value::Object(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_client::CallTiming;

    fn call(client: usize, start_s: f64, end_s: f64) -> TracedCall {
        TracedCall {
            client,
            start_s,
            end_s,
            timing: CallTiming::default(),
        }
    }

    fn rec(submit: f64, complete: f64) -> Rec {
        Rec {
            submit,
            enqueue: submit,
            dequeue: submit,
            complete,
        }
    }

    #[test]
    fn join_pairs_overlapping_clients_by_reply_leg() {
        // Two clients whose calls overlap; each record sits inside both
        // candidates' intervals only once the other's call has ended.
        let calls = vec![
            call(0, 0.000, 0.010),
            call(1, 0.002, 0.013),
            call(0, 0.011, 0.020),
            call(1, 0.014, 0.024),
        ];
        let recs = vec![
            rec(0.004, 0.009),
            rec(0.006, 0.012),
            rec(0.015, 0.019),
            rec(0.018, 0.023),
        ];
        let joined = join(&calls, 2, &recs);
        let completes: Vec<f64> = joined.iter().map(|r| r.unwrap().complete).collect();
        assert_eq!(completes, vec![0.009, 0.012, 0.019, 0.023]);
        // A record no call contains stays unmatched and consumes nothing.
        let stray = join(&calls[..1], 1, &[rec(0.5, 0.6)]);
        assert!(stray[0].is_none());
    }

    #[test]
    fn metrics_json_emits_exactly_the_spec_tables() {
        let e2e: Metrics = END_TO_END.iter().map(|e| (e.name, 1.5)).collect();
        let json = metrics_json(e2e, false);
        let names: Vec<&str> = json
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(names, END_TO_END.iter().map(|e| e.name).collect::<Vec<_>>());
        assert_eq!(json["setup_s"]["unit"].as_str(), Some("s"));
        let layers: Metrics = PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect();
        assert_eq!(
            metrics_json(layers, true).as_object().unwrap().len(),
            PER_LAYER.len()
        );
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn a_forgotten_metric_panics() {
        let mut e2e: Metrics = END_TO_END.iter().map(|e| (e.name, 1.0)).collect();
        e2e.remove("peak_rss_mb");
        metrics_json(e2e, false);
    }
}
