//! Machine-checkable invariants evaluated after every chaos run.
//!
//! Each checker returns a [`Check`]: on PASS the detail is a *static*
//! string (no counts, no timings), so same-seed transcripts are
//! byte-identical even where wall-clock races decide how many calls timed
//! out; on FAIL the detail names the offending record, which is itself
//! deterministic for seed-pinned violations.

use ninf_loadgen::{Outcome, ServerPolls};
use ninf_metaserver::{HealthEvent, QUARANTINE_THRESHOLD};
use ninf_obs::export::{client_server_coverage, validate_nesting};
use ninf_obs::Span;

/// One invariant's verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// Invariant name (stable, used in transcripts).
    pub name: &'static str,
    /// Whether the invariant held.
    pub pass: bool,
    /// `"ok"` on pass; the violation on fail.
    pub detail: String,
}

impl Check {
    fn pass(name: &'static str) -> Self {
        Check {
            name,
            pass: true,
            detail: "ok".into(),
        }
    }

    fn fail(name: &'static str, detail: String) -> Self {
        Check {
            name,
            pass: false,
            detail,
        }
    }

    /// The transcript line for this check.
    pub fn line(&self) -> String {
        if self.pass {
            format!("PASS {}", self.name)
        } else {
            format!("FAIL {}: {}", self.name, self.detail)
        }
    }
}

/// One completed (or failed) call as the harness ledger records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallRecord {
    /// Issuing client.
    pub client: usize,
    /// Sequence number within the client.
    pub seq: usize,
    /// Typed outcome.
    pub outcome: Outcome,
    /// Whether a stream-corrupting fault (truncate/garble) had fired on
    /// this client's connection by the time the call returned.
    pub tainted: bool,
}

/// Exactly-once completion: every planned `(client, seq)` has exactly one
/// ledger record — retries and faults may change the *outcome* but can
/// never double- or zero-count a call.
pub fn exactly_once(records: &[CallRecord], planned: &[usize]) -> Check {
    const NAME: &str = "exactly-once";
    for (client, &n) in planned.iter().enumerate() {
        for seq in 0..n {
            let hits = records
                .iter()
                .filter(|r| r.client == client && r.seq == seq)
                .count();
            if hits != 1 {
                return Check::fail(
                    NAME,
                    format!("call (client {client}, seq {seq}) completed {hits} times, want 1"),
                );
            }
        }
    }
    let total: usize = planned.iter().sum();
    if records.len() != total {
        return Check::fail(
            NAME,
            format!(
                "{} ledger records for {} planned calls",
                records.len(),
                total
            ),
        );
    }
    Check::pass(NAME)
}

/// Conservation: calls issued == ok + remote + timeout + transport, per
/// client and fleet-wide — nothing the fault injector does may make a call
/// vanish without a typed outcome.
pub fn conservation(records: &[CallRecord], planned: &[usize]) -> Check {
    const NAME: &str = "conservation";
    for (client, &n) in planned.iter().enumerate() {
        let own: Vec<&CallRecord> = records.iter().filter(|r| r.client == client).collect();
        let ok = own.iter().filter(|r| r.outcome == Outcome::Ok).count();
        let remote = own.iter().filter(|r| r.outcome == Outcome::Remote).count();
        let timeout = own.iter().filter(|r| r.outcome == Outcome::Timeout).count();
        let transport = own
            .iter()
            .filter(|r| r.outcome == Outcome::Transport)
            .count();
        if ok + remote + timeout + transport != n {
            return Check::fail(
                NAME,
                format!(
                    "client {client}: {n} issued but {ok} ok + {remote} remote + \
                     {timeout} timeout + {transport} transport"
                ),
            );
        }
    }
    Check::pass(NAME)
}

/// Monotone cursors: per server, the stats clock and lifetime total never
/// go backwards across polls, and cursor-driven fetches deliver every
/// record exactly once (Σ fetched == final total).
pub fn monotone_cursors(per_server: &[ServerPolls]) -> Check {
    const NAME: &str = "monotone-cursors";
    for (server, polls) in per_server.iter().map(|p| &p.stats).enumerate() {
        let mut fetched = 0u64;
        for (i, w) in polls.windows(2).enumerate() {
            if w[1].now < w[0].now {
                return Check::fail(
                    NAME,
                    format!("server {server}: clock went backwards at poll {}", i + 1),
                );
            }
            if w[1].total < w[0].total {
                return Check::fail(
                    NAME,
                    format!("server {server}: call total shrank at poll {}", i + 1),
                );
            }
        }
        for p in polls {
            fetched += p.records.len() as u64;
        }
        if let Some(last) = polls.last() {
            if fetched != last.total {
                return Check::fail(
                    NAME,
                    format!(
                        "server {server}: cursors fetched {fetched} records for a total of {}",
                        last.total
                    ),
                );
            }
        }
    }
    Check::pass(NAME)
}

/// Window-cursor exactly-once: per server, `QueryMetrics` cursor polling
/// must deliver the window series exactly once even across ring eviction.
/// The ring clamps a stale cursor up to its base, so poll *k* (with cursor
/// = poll *k−1*'s `total`, 0 initially) must return exactly the contiguous
/// indices `max(cursor, dropped)..total` — no gaps, no duplicates, no
/// reordering — and `now`/`total`/`dropped` must be monotone.
pub fn window_cursors(per_server: &[ServerPolls]) -> Check {
    const NAME: &str = "window-cursors";
    for (server, polls) in per_server.iter().map(|p| &p.windows).enumerate() {
        let mut cursor = 0u64;
        let mut prev_now = f64::NEG_INFINITY;
        let mut prev_dropped = 0u64;
        for (i, p) in polls.iter().map(|w| &w.snap).enumerate() {
            if p.now < prev_now {
                return Check::fail(
                    NAME,
                    format!("server {server}: window clock went backwards at poll {i}"),
                );
            }
            if p.total < cursor {
                return Check::fail(
                    NAME,
                    format!("server {server}: window total shrank at poll {i}"),
                );
            }
            if p.dropped < prev_dropped {
                return Check::fail(
                    NAME,
                    format!("server {server}: dropped count shrank at poll {i}"),
                );
            }
            if p.dropped > p.total {
                return Check::fail(
                    NAME,
                    format!(
                        "server {server}: poll {i} dropped {} of only {} windows",
                        p.dropped, p.total
                    ),
                );
            }
            let windows: Vec<u64> = p.frames.iter().map(|f| f.window).collect();
            let want: Vec<u64> = (cursor.max(p.dropped)..p.total).collect();
            if windows != want {
                return Check::fail(
                    NAME,
                    format!(
                        "server {server}: poll {i} at cursor {cursor} returned windows \
                         {:?}, want {}..{} (dropped {})",
                        windows,
                        cursor.max(p.dropped),
                        p.total,
                        p.dropped
                    ),
                );
            }
            cursor = p.total;
            prev_now = p.now;
            prev_dropped = p.dropped;
        }
    }
    Check::pass(NAME)
}

/// Corruption rejection: once a truncate/garble fault has fired on a
/// client's stream, no later call over that stream may complete
/// successfully. Each chaos client drives all its calls over one
/// connection and never reconnects; v2 framing checksums every payload,
/// so the receiver rejects the corrupted frame with a typed error and
/// tears the connection down — a subsequent `Ok` would mean a corrupted
/// or misattributed frame decoded. Under v1's checksum-less framing this
/// could genuinely happen (composite frames from interleaved truncation),
/// which is why trace claims used to carve those calls out; the CRC made
/// the stronger claim checkable.
pub fn corruption_rejected(records: &[CallRecord]) -> Check {
    const NAME: &str = "corruption-rejected";
    for r in records {
        if r.tainted && r.outcome == Outcome::Ok {
            return Check::fail(
                NAME,
                format!(
                    "call (client {}, seq {}) succeeded on a corrupted stream",
                    r.client, r.seq
                ),
            );
        }
    }
    Check::pass(NAME)
}

/// Trace-tree connectedness: every trace a successful call minted must
/// form one well-nested tree with both client- and server-side spans.
pub fn traces_connected(spans: &[Span], ok_trace_ids: &[u64], slack_us: u64) -> Check {
    const NAME: &str = "trace-connected";
    for &tid in ok_trace_ids {
        let own: Vec<Span> = spans
            .iter()
            .filter(|s| s.trace_id == tid)
            .cloned()
            .collect();
        if own.is_empty() {
            return Check::fail(NAME, format!("trace {tid:#x}: no spans recorded"));
        }
        if let Err(e) = validate_nesting(&own, slack_us) {
            return Check::fail(NAME, format!("trace {tid:#x}: {e}"));
        }
        if let Err(e) = client_server_coverage(&own) {
            return Check::fail(NAME, format!("trace {tid:#x}: {e}"));
        }
    }
    Check::pass(NAME)
}

/// Quarantine/reinstate legality: replay the directory's health-event log
/// against a reference state machine. A `Quarantined` may only follow the
/// failure that crossed the threshold; a `Reinstated` may only follow a
/// `Success` on the same server; streak accounting must match.
pub fn quarantine_legal(events: &[HealthEvent], servers: usize) -> Check {
    const NAME: &str = "quarantine-legal";
    #[derive(Default, Clone, Copy)]
    struct Model {
        streak: u32,
        quarantined: bool,
    }
    let mut models = vec![Model::default(); servers];
    let mut pending_quarantine: Option<usize> = None;
    let mut pending_reinstate: Option<usize> = None;
    for (i, e) in events.iter().enumerate() {
        if let Some(s) = pending_quarantine.take() {
            if *e != (HealthEvent::Quarantined { server: s }) {
                return Check::fail(
                    NAME,
                    format!("event {i}: server {s} crossed threshold but next event is {e:?}"),
                );
            }
            continue;
        }
        if let Some(s) = pending_reinstate.take() {
            if *e != (HealthEvent::Reinstated { server: s }) {
                return Check::fail(
                    NAME,
                    format!("event {i}: quarantined server {s} succeeded but next event is {e:?}"),
                );
            }
            continue;
        }
        match *e {
            HealthEvent::Failure { server, streak, .. } => {
                let Some(m) = models.get_mut(server) else {
                    return Check::fail(NAME, format!("event {i}: unknown server {server}"));
                };
                m.streak += 1;
                if streak != m.streak {
                    return Check::fail(
                        NAME,
                        format!(
                            "event {i}: server {server} streak {streak}, model says {}",
                            m.streak
                        ),
                    );
                }
                if !m.quarantined && m.streak >= QUARANTINE_THRESHOLD {
                    m.quarantined = true;
                    pending_quarantine = Some(server);
                }
            }
            HealthEvent::Quarantined { server } => {
                // Legal occurrences were consumed by `pending_quarantine`
                // above; reaching this arm means no threshold-crossing
                // failure immediately preceded (e.g. quarantined below
                // threshold, or a duplicate quarantine event).
                return Check::fail(
                    NAME,
                    format!("event {i}: server {server} quarantined below threshold"),
                );
            }
            HealthEvent::Success { server, .. } => {
                let Some(m) = models.get_mut(server) else {
                    return Check::fail(NAME, format!("event {i}: unknown server {server}"));
                };
                if m.quarantined {
                    pending_reinstate = Some(server);
                }
                m.streak = 0;
                m.quarantined = false;
            }
            HealthEvent::Reinstated { server } => {
                // Legal occurrences were consumed by `pending_reinstate`
                // above; reaching this arm at all means the reinstatement
                // had no immediately-preceding success.
                return Check::fail(
                    NAME,
                    format!("event {i}: server {server} reinstated without a success"),
                );
            }
        }
    }
    if pending_quarantine.is_some() || pending_reinstate.is_some() {
        return Check::fail(NAME, "log ends mid-transition".into());
    }
    Check::pass(NAME)
}

/// One call's bulk-upload ledger entry, recorded by the harness for
/// scenarios that drive the chunk upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkRecord {
    /// Issuing client.
    pub client: usize,
    /// Sequence number within the client.
    pub seq: usize,
    /// XDR image bytes of the call's one chunk-eligible argument.
    pub image_bytes: u64,
    /// Image bytes the client's upload accounting claims it landed over
    /// the bulk lane (pre-ship plus any refill; excludes retransmits).
    pub bulk_bytes: u64,
    /// Chunk retransmits the upload performed.
    pub retransmits: u32,
    /// Typed call outcome.
    pub outcome: Outcome,
    /// Whether a successful call's reply solves the exact system the call
    /// shipped, to rounding (vacuously `true` for failed calls).
    pub result_exact: bool,
}

/// Bulk-upload isolation: a dying bulk connection may cost a redial and
/// the resend of its un-acked chunks, or the upload, but never the call
/// and never a wrong byte. Three checkable faces:
///
/// * **All-or-nothing uploads** — `bulk_bytes` is always a whole number
///   of images: an upload that fails part-way fails as a whole (the call
///   falls back to shipping the value inline) and the server's
///   reassembly holds partial state out of the arg store, so no fraction
///   of an image can ever be claimed as landed.
/// * **Payload exactness** — every `Ok` call's solution must solve the
///   exact salted system it shipped; retransmits and the redial must
///   deliver each chunk's bytes exactly once or the digest check would
///   have refused the image.
/// * **Loss stays loss** — a shaped link only delays or drops; the sole
///   legal failure is a client deadline expiry (`Timeout`). A `Transport`
///   or `Remote` outcome would mean an upload failure escaped the upload
///   (a desynced stream, a half-written image that decoded, …).
pub fn bulk_isolation(records: &[BulkRecord]) -> Check {
    const NAME: &str = "bulk-isolation";
    for r in records {
        if r.image_bytes == 0 {
            return Check::fail(
                NAME,
                format!(
                    "call (client {}, seq {}) has no chunk-eligible argument",
                    r.client, r.seq
                ),
            );
        }
        if r.bulk_bytes % r.image_bytes != 0 {
            return Check::fail(
                NAME,
                format!(
                    "call (client {}, seq {}) accounted a partial upload: \
                     {} bulk bytes for a {}-byte image",
                    r.client, r.seq, r.bulk_bytes, r.image_bytes
                ),
            );
        }
        if r.outcome == Outcome::Ok && !r.result_exact {
            return Check::fail(
                NAME,
                format!(
                    "call (client {}, seq {}) succeeded with a wrong solution: \
                     a foreign or partial chunk reached its image",
                    r.client, r.seq
                ),
            );
        }
        if !matches!(r.outcome, Outcome::Ok | Outcome::Timeout) {
            return Check::fail(
                NAME,
                format!(
                    "call (client {}, seq {}) failed with {:?}: pure loss may \
                     only delay or time out, never corrupt",
                    r.client, r.seq, r.outcome
                ),
            );
        }
    }
    Check::pass(NAME)
}

/// Transaction exactly-once: every transaction call completed exactly once
/// (its slot written once, never twice under retries).
pub fn tx_exactly_once(completions: &[u32]) -> Check {
    const NAME: &str = "tx-exactly-once";
    for (call, &n) in completions.iter().enumerate() {
        if n != 1 {
            return Check::fail(NAME, format!("tx call #{call} completed {n} times, want 1"));
        }
    }
    Check::pass(NAME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_loadgen::{StatsPoll, WindowPoll};

    fn rec(client: usize, seq: usize, outcome: Outcome) -> CallRecord {
        CallRecord {
            client,
            seq,
            outcome,
            tainted: false,
        }
    }

    #[test]
    fn exactly_once_catches_duplicates_and_holes() {
        let planned = vec![2, 1];
        let good = vec![
            rec(0, 0, Outcome::Ok),
            rec(0, 1, Outcome::Timeout),
            rec(1, 0, Outcome::Ok),
        ];
        assert!(exactly_once(&good, &planned).pass);
        let mut dup = good.clone();
        dup.push(rec(0, 0, Outcome::Ok));
        let c = exactly_once(&dup, &planned);
        assert!(!c.pass);
        assert!(c.detail.contains("2 times"));
        let hole = vec![rec(0, 0, Outcome::Ok), rec(1, 0, Outcome::Ok)];
        assert!(!exactly_once(&hole, &planned).pass);
    }

    #[test]
    fn corruption_rejected_flags_ok_on_tainted_stream() {
        let clean = vec![
            rec(0, 0, Outcome::Ok),
            CallRecord {
                tainted: true,
                ..rec(0, 1, Outcome::Transport)
            },
            CallRecord {
                tainted: true,
                ..rec(0, 2, Outcome::Timeout)
            },
        ];
        assert!(corruption_rejected(&clean).pass);
        let mut bad = clean.clone();
        bad.push(CallRecord {
            tainted: true,
            ..rec(0, 3, Outcome::Ok)
        });
        let c = corruption_rejected(&bad);
        assert!(!c.pass);
        assert!(c.detail.contains("seq 3"));
        assert!(c.detail.contains("corrupted stream"));
    }

    #[test]
    fn conservation_holds_over_typed_outcomes_only() {
        let planned = vec![3];
        let ok = vec![
            rec(0, 0, Outcome::Ok),
            rec(0, 1, Outcome::Transport),
            rec(0, 2, Outcome::Remote),
        ];
        assert!(conservation(&ok, &planned).pass);
        let short = vec![rec(0, 0, Outcome::Ok)];
        assert!(!conservation(&short, &planned).pass);
    }

    /// One server's polls: record polls as `(now, total, fetched)`, window
    /// polls as `(now, total, dropped, indices)`.
    fn polled(stats: &[(f64, u64, usize)], windows: &[(f64, u64, u64, &[u64])]) -> ServerPolls {
        let record = ninf_protocol::CallStat {
            routine: "ep".into(),
            n: None,
            request_bytes: 0,
            reply_bytes: 0,
            t_submit: 0.0,
            t_enqueue: 0.0,
            t_dequeue: 0.0,
            t_complete: 0.0,
        };
        ServerPolls {
            addr: "unit".into(),
            stats: stats
                .iter()
                .map(|&(now, total, fetched)| StatsPoll {
                    t0: now,
                    t1: now,
                    now,
                    total,
                    records: vec![record.clone(); fetched],
                })
                .collect(),
            windows: windows
                .iter()
                .map(|&(now, total, dropped, indices)| WindowPoll {
                    t0: now,
                    t1: now,
                    snap: ninf_protocol::WindowsSnapshot {
                        now,
                        interval: 0.025,
                        total,
                        dropped,
                        frames: indices
                            .iter()
                            .map(|&window| ninf_protocol::MetricFrame {
                                window,
                                t: now,
                                samples: Vec::new(),
                            })
                            .collect(),
                    },
                })
                .collect(),
            error: None,
        }
    }

    #[test]
    fn cursor_checks() {
        let stats = |polls: &[(f64, u64, usize)]| vec![polled(polls, &[])];
        assert!(monotone_cursors(&stats(&[(0.1, 2, 2), (0.2, 5, 3)])).pass);
        assert!(!monotone_cursors(&stats(&[(0.2, 5, 5), (0.1, 5, 0)])).pass);
        let c = monotone_cursors(&stats(&[(0.1, 2, 1), (0.2, 5, 3)]));
        assert!(!c.pass);
        assert!(c.detail.contains("fetched 4"));
    }

    #[test]
    fn window_cursor_checks() {
        let series = |polls: &[(f64, u64, u64, &[u64])]| vec![polled(&[], polls)];
        // Plain incremental drain: 0..3 then 3..5.
        let ok = series(&[
            (0.1, 3, 0, &[0, 1, 2]),
            (0.2, 5, 0, &[3, 4]),
            (0.3, 5, 0, &[]),
        ]);
        assert!(window_cursors(&ok).pass);
        // Ring eviction between polls: base jumped to 6, so the clamp must
        // surface exactly 6..9 and the dropped counter must own 4..6.
        let evicted = series(&[(0.1, 4, 0, &[0, 1, 2, 3]), (0.9, 9, 6, &[6, 7, 8])]);
        assert!(window_cursors(&evicted).pass);
        // A window delivered twice violates exactly-once.
        let dup = series(&[(0.1, 2, 0, &[0, 1]), (0.2, 3, 0, &[1, 2])]);
        let c = window_cursors(&dup);
        assert!(!c.pass);
        assert!(c.detail.contains("poll 1"), "{}", c.detail);
        // A gap (window 1 never delivered, no eviction to excuse it).
        let gap = series(&[(0.1, 1, 0, &[0]), (0.2, 3, 0, &[2])]);
        assert!(!window_cursors(&gap).pass);
        // Monotonicity of the header fields.
        let back = series(&[(0.2, 2, 0, &[0, 1]), (0.1, 2, 0, &[])]);
        assert!(!window_cursors(&back).pass);
        let shrank = series(&[(0.1, 5, 0, &[0, 1, 2, 3, 4]), (0.2, 4, 0, &[])]);
        assert!(!window_cursors(&shrank).pass);
        let overdrop = series(&[(0.1, 2, 3, &[])]);
        assert!(!window_cursors(&overdrop).pass);
    }

    #[test]
    fn quarantine_legality_accepts_real_log_and_rejects_corruption() {
        let legal = vec![
            HealthEvent::Failure {
                server: 0,
                probe: false,
                streak: 1,
            },
            HealthEvent::Failure {
                server: 0,
                probe: false,
                streak: 2,
            },
            HealthEvent::Failure {
                server: 0,
                probe: false,
                streak: 3,
            },
            HealthEvent::Quarantined { server: 0 },
            HealthEvent::Failure {
                server: 0,
                probe: true,
                streak: 4,
            },
            HealthEvent::Success {
                server: 0,
                probe: true,
            },
            HealthEvent::Reinstated { server: 0 },
        ];
        assert!(quarantine_legal(&legal, 1).pass);

        // Reinstated with no preceding success.
        let rogue = vec![
            HealthEvent::Failure {
                server: 0,
                probe: false,
                streak: 1,
            },
            HealthEvent::Reinstated { server: 0 },
        ];
        let c = quarantine_legal(&rogue, 1);
        assert!(!c.pass);
        assert!(c.detail.contains("without a success"));

        // Quarantined below threshold.
        let early = vec![
            HealthEvent::Failure {
                server: 0,
                probe: false,
                streak: 1,
            },
            HealthEvent::Quarantined { server: 0 },
        ];
        assert!(!quarantine_legal(&early, 1).pass);

        // Streak accounting mismatch.
        let skip = vec![HealthEvent::Failure {
            server: 0,
            probe: false,
            streak: 2,
        }];
        assert!(!quarantine_legal(&skip, 1).pass);
    }

    #[test]
    fn bulk_isolation_catches_partials_wrong_answers_and_corruption() {
        let rec = |bulk_bytes: u64, outcome: Outcome, result_exact: bool| BulkRecord {
            client: 0,
            seq: 0,
            image_bytes: 1000,
            bulk_bytes,
            retransmits: 3,
            outcome,
            result_exact,
        };
        // Full upload, inline fallback (0), and a double-ship (refill) all
        // pass; a timeout is legal loss.
        assert!(bulk_isolation(&[rec(1000, Outcome::Ok, true)]).pass);
        assert!(bulk_isolation(&[rec(0, Outcome::Ok, true)]).pass);
        assert!(bulk_isolation(&[rec(2000, Outcome::Ok, true)]).pass);
        assert!(bulk_isolation(&[rec(1000, Outcome::Timeout, true)]).pass);
        // A fraction of an image in the ledger = an upload leaked a partial.
        let c = bulk_isolation(&[rec(500, Outcome::Ok, true)]);
        assert!(!c.pass);
        assert!(c.detail.contains("partial upload"));
        // Ok with a wrong solution = foreign bytes in the image.
        let c = bulk_isolation(&[rec(1000, Outcome::Ok, false)]);
        assert!(!c.pass);
        assert!(c.detail.contains("wrong solution"));
        // Anything besides Ok/Timeout under pure loss = corruption escaped.
        let c = bulk_isolation(&[rec(1000, Outcome::Transport, true)]);
        assert!(!c.pass);
        assert!(c.detail.contains("Transport"));
        // A record with no chunk-eligible argument is a harness bug.
        assert!(
            !bulk_isolation(&[BulkRecord {
                image_bytes: 0,
                ..rec(0, Outcome::Ok, true)
            }])
            .pass
        );
    }

    #[test]
    fn tx_exactly_once_flags_doubles() {
        assert!(tx_exactly_once(&[1, 1, 1]).pass);
        let c = tx_exactly_once(&[1, 2, 1]);
        assert!(!c.pass);
        assert!(c.detail.contains("#1"));
        assert!(!tx_exactly_once(&[0]).pass);
    }
}
