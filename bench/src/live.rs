//! One workload, live: set up the rig (inputs, in-process server, dialed
//! clients, warm-up), run the closed loop for a fixed window, verify the
//! sampled outputs, and report.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use ninf_client::{CallOptions, CallTiming, NinfClient};
use ninf_protocol::{CallStat, LinkShape, ProtocolError, Value};
use ninf_server::{NinfServer, Registry, ServerConfig};

use crate::gen::{self, SplitMix64};
use crate::spec::{Workload, WAN_SPEC, WARMUP_S};
use crate::stats;

/// Every how many calls a client keeps a result for verification (besides
/// its first and last).
pub const SAMPLE_EVERY: usize = 64;

/// Calls per client whose counters must repeat exactly for a seed. A prefix,
/// not the window: how many calls fit a window varies with the weather, the
/// first eight are the same eight every time.
pub const REPEAT_PREFIX: usize = 8;

pub fn wan_shape() -> LinkShape {
    LinkShape::parse(WAN_SPEC).expect("the pinned link spec parses")
}

/// Options of the `wan-bulk` clients: one bulk lane over the shaped link.
/// The link also drops an `Invoke` now and then; without a deadline and a
/// retry that request would block its client for good. The deadline is a
/// few shaped round trips and the backoff short, so one lost `Invoke` costs
/// about a call and a half, not seconds of the window.
fn wan_options() -> CallOptions {
    CallOptions {
        streams: 1,
        lane_deadline: Some(Duration::from_millis(150)),
        wan: Some(wan_shape()),
        deadline: Some(Duration::from_millis(250)),
        retries: 2,
        backoff: Duration::from_millis(10),
        ..CallOptions::default()
    }
}

/// Total CPU time of this process, all threads, dead ones included.
///
/// `/proc/self/stat` reports the same in 10 ms ticks, and a whole `wan-bulk`
/// window costs about 25 of those; the POSIX clock has nanosecond
/// resolution.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on every 64-bit Linux target, which the reactor's raw epoll calls
    // already confine this repo to); the call writes only through it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process in MiB (`VmHWM`; 0 if unreadable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct ClientSlot {
    client: NinfClient,
    args: Vec<Value>,
    salts: SplitMix64,
}

/// A set-up rig: server, warmed clients, and an idle unshaped connection
/// the benchmark reads server records over.
pub struct Rig {
    w: &'static Workload,
    server: NinfServer,
    slots: Vec<ClientSlot>,
    observer: NinfClient,
    /// The base inputs, kept to reproduce sampled calls after a window.
    verifier: Vec<Value>,
    epoch: Instant,
    /// Seconds from the start of set-up to the end of warm-up.
    pub setup_s: f64,
    /// Seconds from the start of set-up until every client had its first
    /// reply: inputs, server start, dial, the interface fetch and the first
    /// inline shipment of every argument.
    pub cold_s: f64,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

impl Rig {
    pub fn set_up(w: &'static Workload, seed: u64) -> Result<Rig, String> {
        let epoch = Instant::now();
        let base = gen::base_args(w, seed);
        let mut registry = Registry::new();
        ninf_server::builtin::register_stdlib(&mut registry, false);
        let server = NinfServer::start(
            "127.0.0.1:0",
            registry,
            ServerConfig {
                pes: w.pes,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| err("server start", e))?;
        let addr = server.addr().to_string();
        let mut slots = Vec::with_capacity(w.clients);
        for c in 0..w.clients {
            let client = if w.wan {
                NinfClient::connect_with(&addr, wan_options())
            } else {
                NinfClient::connect(&addr)
            }
            .map_err(|e| err("dial", e))?;
            slots.push(ClientSlot {
                client,
                args: base.clone(),
                salts: gen::salter(seed, c),
            });
        }
        // Warm-up, all clients at once as in the window: the interface
        // fetch, the first (inline) shipment of every cacheable argument,
        // allocator and cache fill. Every client makes its `warmup_calls`
        // and then keeps calling until `WARMUP_S` have passed.
        let warm_up = Instant::now();
        let first_replies = std::thread::scope(|s| {
            let workers: Vec<_> = slots
                .iter_mut()
                .map(|slot| {
                    s.spawn(move || {
                        let mut first_reply_s = 0.0;
                        let mut calls = 0;
                        while calls < w.warmup_calls || warm_up.elapsed().as_secs_f64() < WARMUP_S {
                            let salts = draw_salts(w, &mut slot.salts);
                            gen::apply_salts(&mut slot.args, w.salted, &salts);
                            slot.client.ninf_call(w.routine, &slot.args)?;
                            if calls == 0 {
                                first_reply_s = epoch.elapsed().as_secs_f64();
                            }
                            calls += 1;
                        }
                        Ok(first_reply_s)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("warm-up thread"))
                .collect::<Result<Vec<f64>, ProtocolError>>()
        })
        .map_err(|e| err("warm-up call", e))?;
        let observer = NinfClient::connect(&addr).map_err(|e| err("observer dial", e))?;
        Ok(Rig {
            w,
            server,
            slots,
            observer,
            verifier: base,
            epoch,
            setup_s: epoch.elapsed().as_secs_f64(),
            cold_s: first_replies.into_iter().fold(0.0, f64::max),
        })
    }

    /// Hang up, stop the server, and hand back the inputs every client
    /// started from (salted positions hold whichever salt was verified last;
    /// sizes and the unsalted digests are the base's).
    pub fn tear_down(self) -> Vec<Value> {
        drop(self.slots);
        drop(self.observer);
        self.server.shutdown();
        self.verifier
    }
}

fn draw_salts(w: &Workload, rng: &mut SplitMix64) -> [f64; 2] {
    let mut salts = [0.0; 2];
    for s in salts.iter_mut().take(w.salted.len()) {
        *s = rng.next_salt();
    }
    salts
}

/// Failed operations by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Errors {
    pub remote: u64,
    pub timeout: u64,
    pub transport: u64,
    pub mismatch: u64,
}

impl Errors {
    pub fn total(&self) -> u64 {
        self.remote + self.timeout + self.transport + self.mismatch
    }

    fn count(&mut self, e: &ProtocolError) {
        match e {
            ProtocolError::Remote(_) => self.remote += 1,
            e if e.is_timeout() => self.timeout += 1,
            _ => self.transport += 1,
        }
    }

    fn add(&mut self, other: &Errors) {
        self.remote += other.remote;
        self.timeout += other.timeout;
        self.transport += other.transport;
        self.mismatch += other.mismatch;
    }
}

/// Calls attempted and failures by class over several windows.
pub fn tally(windows: &[&Window]) -> (u64, Errors) {
    let mut errors = Errors::default();
    let mut attempted = 0;
    for win in windows {
        errors.add(&win.errors);
        attempted += win.attempted;
    }
    (attempted, errors)
}

/// Sums of the client's own per-call counters over the OK calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub request_bytes: u64,
    pub args_refd: u64,
    pub args_refilled: u64,
    pub refill_calls: u64,
    pub bulk_bytes: u64,
    pub bulk_retransmits: u64,
    pub attempts: u64,
}

impl Counters {
    fn count(&mut self, t: &CallTiming) {
        self.request_bytes += t.request_bytes as u64;
        self.args_refd += u64::from(t.args_refd);
        self.args_refilled += u64::from(t.args_refilled);
        self.refill_calls += u64::from(t.args_refilled > 0);
        self.bulk_bytes += t.bulk_bytes as u64;
        self.bulk_retransmits += u64::from(t.bulk_retransmits);
        self.attempts += u64::from(t.attempts);
    }

    fn add(&mut self, o: &Counters) {
        self.request_bytes += o.request_bytes;
        self.args_refd += o.args_refd;
        self.args_refilled += o.args_refilled;
        self.refill_calls += o.refill_calls;
        self.bulk_bytes += o.bulk_bytes;
        self.bulk_retransmits += o.bulk_retransmits;
        self.attempts += o.attempts;
    }
}

/// A kept result: the salts its call was made with and what came back.
struct Sample {
    salts: [f64; 2],
    results: Vec<Value>,
}

/// One call as the traced run keeps it.
#[derive(Debug, Clone, Copy)]
pub struct TracedCall {
    pub client: usize,
    /// Seconds since the rig's epoch.
    pub start_s: f64,
    pub end_s: f64,
    pub timing: CallTiming,
}

/// What one client thread brings back from a window.
struct ClientLog {
    latencies_s: Vec<f64>,
    attempted: u64,
    errors: Errors,
    counters: Counters,
    /// `counters` as they stood after [`REPEAT_PREFIX`] OK calls.
    prefix: Option<Counters>,
    samples: Vec<Sample>,
    last: Option<Sample>,
    traced: Vec<TracedCall>,
    /// Seconds from the common start to the end of this client's last call.
    elapsed_s: f64,
}

/// What the server's own counters moved by over a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerDelta {
    pub argcache_hits: u64,
    pub argcache_misses: u64,
    pub chunks_accepted: u64,
}

impl ServerDelta {
    fn read(server: &NinfServer) -> ServerDelta {
        let (hits, misses, _, _) = server.metrics().argcache();
        let (chunks, _, _, _) = server.metrics().chunked();
        ServerDelta {
            argcache_hits: hits,
            argcache_misses: misses,
            chunks_accepted: chunks,
        }
    }

    fn since(self, before: ServerDelta) -> ServerDelta {
        ServerDelta {
            argcache_hits: self.argcache_hits - before.argcache_hits,
            argcache_misses: self.argcache_misses - before.argcache_misses,
            chunks_accepted: self.chunks_accepted - before.chunks_accepted,
        }
    }

    /// Share of digest lookups the arg store answered (0 with none made).
    pub fn hit_share(&self) -> f64 {
        match self.argcache_hits + self.argcache_misses {
            0 => 0.0,
            lookups => self.argcache_hits as f64 / lookups as f64,
        }
    }
}

/// One measured window, all clients together.
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub ok: u64,
    pub errors: Errors,
    pub counters: Counters,
    /// Counters over the first [`REPEAT_PREFIX`] OK calls of every client;
    /// `None` if some client made fewer.
    pub prefix: Option<Counters>,
    pub server: ServerDelta,
    pub calls_per_s: f64,
    /// OK calls completed in each whole second of the window (a timeline for
    /// the reader; the metrics do not use it).
    pub per_second: Vec<u32>,
    pub cpu_s: f64,
    /// Share of the window the generator spent between calls.
    pub generator_share: f64,
    pub traced: Vec<TracedCall>,
}

impl Rig {
    /// Run the closed loop for `seconds`. With `trace`, every call's start
    /// and `CallTiming` are kept for the span tree.
    pub fn measure(&mut self, seconds: f64, trace: bool) -> Window {
        let w = self.w;
        let epoch = self.epoch;
        let barrier = Barrier::new(w.clients + 1);
        let window = Duration::from_secs_f64(seconds);
        let server_before = ServerDelta::read(&self.server);
        let (cpu0, logs) = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .slots
                .iter_mut()
                .enumerate()
                .map(|(c, slot)| {
                    let barrier = &barrier;
                    s.spawn(move || run_client(w, c, slot, barrier, window, epoch, trace))
                })
                .collect();
            let cpu0 = process_cpu_s();
            barrier.wait();
            let logs: Vec<ClientLog> = workers
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect();
            (cpu0, logs)
        });
        let cpu_s = process_cpu_s() - cpu0;

        let mut out = Window {
            latencies_ms: Vec::new(),
            attempted: 0,
            ok: 0,
            errors: Errors::default(),
            counters: Counters::default(),
            prefix: Some(Counters::default()),
            server: ServerDelta::read(&self.server).since(server_before),
            calls_per_s: 0.0,
            per_second: vec![0; seconds.ceil() as usize],
            cpu_s,
            generator_share: 0.0,
            traced: Vec::new(),
        };
        let verifier = &mut self.verifier;
        for mut log in logs {
            // Outputs are checked here, after the window: sample `k` is
            // reproduced from the base inputs and the salts it was sent
            // with, and must match the local kernel bit for bit.
            let mut mismatches = 0u64;
            for sample in log.samples.iter().chain(log.last.as_ref()) {
                gen::apply_salts(verifier, w.salted, &sample.salts);
                if !gen::bits_equal(&gen::reference(w.routine, verifier), &sample.results) {
                    mismatches += 1;
                }
            }
            log.errors.mismatch += mismatches;
            // Every mismatch is one of the calls that returned Ok.
            let ok = log.latencies_s.len() as u64 - mismatches;
            out.ok += ok;
            out.attempted += log.attempted;
            out.errors.add(&log.errors);
            out.counters.add(&log.counters);
            out.prefix = match (out.prefix, log.prefix) {
                (Some(mut sum), Some(p)) => {
                    sum.add(&p);
                    Some(sum)
                }
                _ => None,
            };
            out.calls_per_s += ok as f64 / log.elapsed_s.max(1e-9);
            let mut busy = 0.0;
            for lat in &log.latencies_s {
                busy += lat;
                if let Some(slot) = out.per_second.get_mut(busy as usize) {
                    *slot += 1;
                }
            }
            out.generator_share +=
                (1.0 - busy / log.elapsed_s.max(1e-9)).max(0.0) / w.clients as f64;
            out.latencies_ms
                .extend(log.latencies_s.iter().map(|s| s * 1e3));
            out.traced.append(&mut log.traced);
        }
        stats::sort(&mut out.latencies_ms);
        out
    }

    /// Server records completed since record index `since`, and the index
    /// to pass next time.
    pub fn drain_stats(&mut self, since: u64) -> Result<(u64, Vec<CallStat>), String> {
        let (_, total, records) = self
            .observer
            .query_stats(since)
            .map_err(|e| err("query_stats", e))?;
        Ok((total, records))
    }

    /// Seconds to subtract from a server timestamp to land on the rig's
    /// clock: the tightest of a few query brackets, taken at its midpoint.
    pub fn server_clock_offset_s(&mut self) -> Result<f64, String> {
        let mut best: Option<(f64, f64)> = None;
        for _ in 0..8 {
            let a = self.epoch.elapsed().as_secs_f64();
            let (now, _, _) = self
                .observer
                .query_stats(u64::MAX)
                .map_err(|e| err("query_stats", e))?;
            let b = self.epoch.elapsed().as_secs_f64();
            if best.is_none_or(|(width, _)| b - a < width) {
                best = Some((b - a, now - (a + b) / 2.0));
            }
        }
        Ok(best.expect("at least one bracket").1)
    }
}

fn run_client(
    w: &Workload,
    c: usize,
    slot: &mut ClientSlot,
    barrier: &Barrier,
    window: Duration,
    epoch: Instant,
    trace: bool,
) -> ClientLog {
    let mut log = ClientLog {
        latencies_s: Vec::with_capacity(1 << 16),
        attempted: 0,
        errors: Errors::default(),
        counters: Counters::default(),
        prefix: None,
        samples: Vec::new(),
        last: None,
        traced: Vec::new(),
        elapsed_s: 0.0,
    };
    barrier.wait();
    let start = Instant::now();
    let mut now = start;
    while now - start < window {
        let salts = draw_salts(w, &mut slot.salts);
        gen::apply_salts(&mut slot.args, w.salted, &salts);
        // Only `ninf_call` sits between the two clock reads.
        let t0 = Instant::now();
        let outcome = slot.client.ninf_call(w.routine, &slot.args);
        now = Instant::now();
        log.attempted += 1;
        match outcome {
            Ok(results) => {
                let k = log.latencies_s.len();
                log.latencies_s.push((now - t0).as_secs_f64());
                let timing = slot.client.last_timing().expect("a call was just made");
                log.counters.count(&timing);
                if k + 1 == REPEAT_PREFIX {
                    log.prefix = Some(log.counters);
                }
                if trace {
                    log.traced.push(TracedCall {
                        client: c,
                        start_s: (t0 - epoch).as_secs_f64(),
                        end_s: (now - epoch).as_secs_f64(),
                        timing,
                    });
                }
                let sample = Sample { salts, results };
                if k.is_multiple_of(SAMPLE_EVERY) {
                    log.samples.push(sample);
                    log.last = None;
                } else {
                    log.last = Some(sample);
                }
            }
            Err(e) => log.errors.count(&e),
        }
    }
    log.elapsed_s = (now - start).as_secs_f64();
    log
}
