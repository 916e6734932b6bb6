//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repo root
//! lists the same names; a unit test fails when the two drift apart.

/// Measured values by metric name.
pub type Metrics = std::collections::BTreeMap<&'static str, f64>;

/// How long one measured window lasts unless `--seconds` says otherwise;
/// equals `run_seconds` in `BENCHMARK.json`. As long as four workloads
/// allow: the driver makes 4 + 22 x 4 runs inside 3420 s, set-up included.
pub const RUN_SECONDS: u64 = 25;

/// Whole set-ups timed per untraced run; `setup_s` is their median. At
/// least [`MIN_SETUPS`], and more until [`SETUP_BUDGET_S`] seconds of set-up
/// are spent (six at most: none is shorter than [`WARMUP_S`]).
pub const MIN_SETUPS: usize = 3;
pub const SETUP_BUDGET_S: f64 = 3.0;

/// How long the warm-up inside a set-up lasts at least. A set-up that is
/// nothing but a fixed count of warm-up calls measures the call rate over
/// again, noisier: `small-call`'s 4000 calls took 0.12, 0.19 and 0.24 s in
/// three hours of one afternoon, following how the host wakes an idle vCPU.
/// With a floor of time under it `setup_s` moves by what set-up costs beyond
/// the floor; the cold part alone is `bench.setup_cold_ms`.
pub const WARMUP_S: f64 = 0.5;

/// The shaped link of `wan-bulk`. The link seed is pinned, not derived
/// from `--seed`: every bulk upload dials a fresh lane whose loss schedule
/// restarts at send 0, so the link seed decides whether *every* call of a
/// run pays a retransmit or none does — deriving it from `--seed` would
/// make the workload bimodal across seeds (see README, "wan-bulk").
pub const WAN_SPEC: &str = "bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997";

/// One closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Stdlib routine every call invokes.
    pub routine: &'static str,
    /// Matrix order `n`.
    pub n: usize,
    /// Closed-loop client threads, one connection each.
    pub clients: usize,
    /// PEs the in-process server's gate manages.
    pub pes: usize,
    /// Argument positions overwritten (one element) before every call, so
    /// their digest is new: the arg cache misses on them and hits on the
    /// other cacheable positions.
    pub salted: &'static [usize],
    /// Calls each client makes at least during set-up, before the window
    /// opens; it goes on calling until [`WARMUP_S`] have passed.
    pub warmup_calls: usize,
    /// Whether calls go through the shaped link and one bulk lane.
    pub wan: bool,
}

/// No workload here is dominated by a `ninf-exec` kernel, on purpose: this
/// host runs dense floating-point code at either 7.5 or 4.9 Gflop/s for
/// seconds to minutes at a time (a neighbour's doing; integer and
/// byte-rate code does not move), so the paper's Table 3 rig (`linpack`
/// n=600, two clients queueing at one PE) spread past any bound and was
/// taken out. README, "The workload that is not here", has the numbers.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "small-call",
        why: "near-empty dmmul n=2 kernel: framing, codec, reactor dispatch, hand-off and the job gate are the whole call",
        routine: "dmmul",
        n: 2,
        clients: 2,
        pes: 2,
        salted: &[],
        warmup_calls: 2000,
        wan: false,
    },
    Workload {
        name: "bulk-call",
        why: "dgesl n=1024 with a fresh 8 MiB matrix per call: byteswap, CRC, digest, copies and socket I/O dominate; arg-cache write side",
        routine: "dgesl",
        n: 1024,
        clients: 2,
        pes: 2,
        salted: &[1],
        warmup_calls: 8,
        wan: false,
    },
    Workload {
        name: "iterative-warm",
        why: "same dgesl but the matrix ships once and is then named by digest: client digest and arg-store hits dominate; arg-cache read side",
        routine: "dgesl",
        n: 1024,
        clients: 2,
        pes: 2,
        salted: &[3],
        warmup_calls: 8,
        wan: false,
    },
    Workload {
        name: "wan-bulk",
        why: "linpack n=96 over a shaped 4 MB/s, 20 ms link with one stop-and-wait bulk lane: the only path through shaping, chunking and reassembly",
        routine: "linpack",
        n: 96,
        clients: 1,
        pes: 2,
        salted: &[1, 2],
        warmup_calls: 4,
        wan: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Relative worsening of `new` against `old` (positive = worse).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// A metric a user of the system would see; `bound` is the relative
/// worsening that counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Bounds are calibrated, not wished for: on the two-core box this was
/// written on, ten back-to-back 25 s runs of one commit spread (IQR over
/// median) by 2-7 % on the timings of the three loopback workloads, and
/// their medians moved by up to a fifth between two sets an hour apart — the
/// same seed repeats no better, so it is the host, not the input — and a
/// bound has to sit about three spreads out to tell a change from the
/// weather. README, "Calibration", has the table.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "calls_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "call_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "call_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "payload_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_call",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// `(name, unit, better)` of every per-layer metric, in print order. The
/// prefix before the first dot is the layer (crate name minus `ninf-`).
pub const PER_LAYER: [(&str, &str, Better); 49] = [
    ("xdr.encode_us", "us", Better::Lower),
    ("xdr.decode_us", "us", Better::Lower),
    ("idl.layout_us", "us", Better::Lower),
    ("protocol.digest_us", "us", Better::Lower),
    ("protocol.crc_us", "us", Better::Lower),
    ("protocol.frame_encode_us", "us", Better::Lower),
    ("protocol.frame_decode_us", "us", Better::Lower),
    ("protocol.chunk_split_us", "us", Better::Lower),
    ("protocol.reassembly_us", "us", Better::Lower),
    ("protocol.link_utilisation", "ratio", Better::Higher),
    ("protocol.shape_floor_ms", "ms", Better::Lower),
    ("reactor.echo_rtt_us", "us", Better::Lower),
    ("reactor.echo_calls_per_s", "1/s", Better::Higher),
    ("server.argstore_get_us", "us", Better::Lower),
    ("server.argstore_insert_us", "us", Better::Lower),
    ("server.jobgate_us", "us", Better::Lower),
    ("server.wait_ms_p50", "ms", Better::Lower),
    ("server.service_ms_p50", "ms", Better::Lower),
    ("server.response_ms_p50", "ms", Better::Lower),
    ("server.pe_utilisation", "ratio", Better::Higher),
    ("server.argcache_hit_share", "ratio", Better::Higher),
    ("server.chunk_dup_share", "ratio", Better::Lower),
    ("exec.kernel_ms", "ms", Better::Lower),
    ("exec.kernel_mflops", "Mflop/s", Better::Higher),
    ("client.interface_us_p50", "us", Better::Lower),
    ("client.marshal_us_p50", "us", Better::Lower),
    ("client.roundtrip_us_p50", "us", Better::Lower),
    ("client.transfer_us_p50", "us", Better::Lower),
    ("client.call_p50_ms", "ms", Better::Lower),
    ("client.call_p99_ms", "ms", Better::Lower),
    ("client.mflops_p50", "Mflop/s", Better::Higher),
    ("client.args_refd_share", "ratio", Better::Higher),
    ("client.args_refilled_per_call", "count", Better::Lower),
    ("client.bulk_retransmits_per_call", "count", Better::Lower),
    ("client.attempts_per_call", "count", Better::Lower),
    ("client.samples", "count", Better::Higher),
    ("trace.replay_sum_us", "us", Better::Lower),
    ("trace.residual_share", "ratio", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
    ("trace.joined_share", "ratio", Better::Higher),
    ("bench.setup_cold_ms", "ms", Better::Lower),
    ("bench.cpu_ms_per_call", "ms", Better::Lower),
    ("bench.generator_share", "ratio", Better::Lower),
    ("bench.error_share", "ratio", Better::Lower),
    ("bench.errors_remote", "count", Better::Lower),
    ("bench.errors_timeout", "count", Better::Lower),
    ("bench.errors_transport", "count", Better::Lower),
    ("bench.errors_mismatch", "count", Better::Lower),
    ("bench.tail_samples_beyond_p90", "count", Better::Higher),
];

/// The content of `BENCHMARK.json`, generated from the tables above
/// (`ninf-perf manifest` prints it; a test compares it with the file).
pub fn manifest() -> serde_json::Value {
    use serde_json::{json, Value as Json};
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|e| json!({ "name": e.name, "unit": e.unit, "better": e.better.as_str(), "bound": e.bound }))
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| json!({ "name": name, "unit": unit, "better": better.as_str() }))
        .collect();
    json!({
        "command": ["bash", "bench/run.sh"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The names the binary emits are these tables (`report::metrics_json`
    /// iterates them and panics on a stray or missing metric), so the file
    /// matching the tables means the file matches the binary.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            file,
            manifest(),
            "regenerate with `ninf-perf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|&(n, _, _)| n));
        for name in names {
            assert!(seen.insert(name), "`{name}` is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.salted.len() <= 2, "draw_salts keeps two salts per call");
        }
        for e in &END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == Better::Lower));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
    }
}
