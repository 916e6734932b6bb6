//! The link model: one definition of "a link", applied by one wrapper.
//!
//! A [`LinkShape`] names everything an emulated network path does to the
//! frames sent over it: a token-bucket bandwidth cap (frames queue FIFO
//! through a shared bottleneck), a fixed one-way propagation delay, seeded
//! random loss whose effective rate grows with the number of concurrent
//! lanes sharing the link (the congestion term — the mechanism behind the
//! GridFTP high-N collapse), and seeded stalls, truncations and bit flips.
//! [`LinkTransport`] wraps any [`Transport`] and imposes the shape on the
//! send path. A frame occupies its *sender* only while it serialises
//! through the [`SharedLink`] (queueing behind other lanes included); it
//! then takes the operation's [`LinkEvent`] and reaches the inner transport
//! one propagation delay (plus a stall, if it drew one) later, FIFO per
//! lane, from a small delay line the wrapper drains whenever its caller is
//! inside `send` or `recv` — no thread, no timer. A caller that sends and
//! then waits for the reply sees exactly what a sleeping sender would show
//! it, because a reply cannot precede its request's arrival; a caller that
//! keeps sending (a bulk lane's window, through [`Pipelined`]) pays the
//! delay once per burst rather than once per frame, which is what a real
//! path does. Receives pass through untouched: shaping one direction of a
//! request/reply pair already serializes the conversation through the
//! link. Loss and stalls model lost/held packets (the peer sees silence, so
//! the reader's deadline governs recovery); truncation and garbling model
//! on-the-wire corruption, which the receiver's framing layer must reject
//! with a typed error rather than decode garbage.
//!
//! **Determinism contract**: the event send operation `k` on lane `l` takes
//! is a pure function of `(shape, l, lanes, k)` — see [`planned_event`] /
//! [`link_schedule`] / [`link_fingerprint`]. Each operation derives its own
//! [`SplitMix64`] sub-stream, so outcome-dependent parameter draws (the
//! truncation cut point, the garbled bit) can never shift later decisions.
//! Lanes are caller-assigned (a client's call connection is lane 0 and its
//! bulk upload lane 1), so two runs with the same shape replay the same
//! schedule however threads interleave. Only the *effective* loss rate
//! depends on the live lane count; with `congestion_ppm = 0` the schedule
//! is independent of it, which is what the chaos harness pins.
//!
//! The simulator (`ninf-netsim::wan`) imports this module's shape and event
//! function rather than mirroring them, so a live shaped run and a FluidNet
//! prediction cannot disagree about what the link decided — only about the
//! physics. `docs/MODEL.md` §"Link model" records the event mapping.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use crate::error::ProtocolResult;
use crate::message::Message;
use crate::rng::SplitMix64;
use crate::transport::{FrameFn, Pipelined, Transport};

/// One link's shape. All-integer so specs hash and compare exactly (it
/// rides inside `CallOptions`, which is `Copy + Eq`). The four `*_ppm`
/// event rates are bands of one uniform draw per send, evaluated in the
/// order loss → stall → truncate → garble, so they are mutually exclusive;
/// the remainder is forwarded intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkShape {
    /// Bottleneck capacity in bytes/second; `0` means uncapped.
    pub bytes_per_sec: u64,
    /// One-way propagation delay in microseconds.
    pub delay_us: u64,
    /// Baseline loss rate in parts per million of send operations.
    pub loss_ppm: u32,
    /// Extra loss per *additional* concurrent lane, in ppm — models
    /// self-congestion: effective loss is
    /// `loss_ppm + congestion_ppm * (lanes - 1)`.
    pub congestion_ppm: u32,
    /// RNG seed; identical seeds replay identical event schedules.
    pub seed: u64,
    /// Rate, in ppm of send operations, at which a frame is held for
    /// [`LinkShape::stall_us`] before it is forwarded.
    pub stall_ppm: u32,
    /// Hold time of a stalled frame in microseconds.
    pub stall_us: u64,
    /// Rate, in ppm, at which a frame is cut to a nonempty strict prefix.
    pub truncate_ppm: u32,
    /// Rate, in ppm, at which one bit of a frame is flipped in flight.
    pub garble_ppm: u32,
}

impl Default for LinkShape {
    fn default() -> Self {
        Self {
            bytes_per_sec: 0,
            delay_us: 0,
            loss_ppm: 0,
            congestion_ppm: 0,
            seed: 1,
            stall_ppm: 0,
            stall_us: 0,
            truncate_ppm: 0,
            garble_ppm: 0,
        }
    }
}

/// Effective loss never exceeds this, so a congested link stays lossy
/// rather than becoming a black hole.
const MAX_EFF_LOSS_PPM: u64 = 950_000;

/// Effective loss rate in ppm when `lanes` lanes share the link.
pub fn eff_loss_ppm(shape: &LinkShape, lanes: u32) -> u32 {
    let extra = shape.congestion_ppm as u64 * lanes.saturating_sub(1) as u64;
    (shape.loss_ppm as u64 + extra).min(MAX_EFF_LOSS_PPM) as u32
}

/// Most chunks a bulk lane keeps un-acked, whatever the link: half the
/// server's per-connection in-flight bound (128), and the window a lane
/// takes when it cannot size one — an unnamed link, or one with no
/// bandwidth cap. 64 chunks of 16 KiB keep a 1 MiB image in flight, what
/// four 16-chunk lanes used to; on a 20 ms link the old cap of 16 left one
/// lane at 0.56× of four (EXPERIMENTS.md, "WAN bulk upload").
pub const MAX_LANE_WINDOW: u32 = 64;

/// Un-acked chunks a bulk lane keeps in flight. Over a named link it is
/// that link's bandwidth-delay product in chunks,
/// `ceil(bw × 2·delay ÷ chunk_bytes)` — the least that keeps the pipe full
/// while the oldest ack is on its way back; an uncapped link has no such
/// product and takes the cap. With no link named TCP's own window paces the
/// lane, so it also takes the cap. Always within `1..=MAX_LANE_WINDOW`.
/// The uploader and the simulator both call this; nothing configures it.
pub fn lane_window(link: Option<&LinkShape>, chunk_bytes: u32) -> u32 {
    let Some(shape) = link.filter(|s| s.bytes_per_sec > 0) else {
        return MAX_LANE_WINDOW;
    };
    let bdp = shape.bytes_per_sec as u128 * 2 * shape.delay_us as u128 / 1_000_000;
    let chunks = bdp.div_ceil(chunk_bytes.max(1) as u128);
    chunks.clamp(1, MAX_LANE_WINDOW as u128) as u32
}

impl LinkShape {
    /// Parse a spec string: comma-separated `key=value` pairs — the one
    /// grammar everywhere `--wan` or a chaos scenario names a link.
    ///
    /// ```text
    /// bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997
    /// loss=0.12,stall=0.1:30ms,truncate=0.04,garble=40000ppm
    /// ```
    ///
    /// `bw` takes bytes/second with optional `k`/`m`/`g` (decimal)
    /// suffix, `0` = uncapped. `delay` takes `us`/`ms`/`s` (bare numbers
    /// are microseconds). `loss`, `congestion`, `truncate` and `garble`
    /// take a fraction (`0.01`) or explicit `ppm` (`10000ppm`); `stall`
    /// takes `<rate>:<hold time>`. Omitted keys keep their defaults. Event
    /// bands that sum past one are an error, not a panic. [`LinkShape`]'s
    /// `Display` emits a canonical spec that parses back to the identical
    /// shape.
    pub fn parse(spec: &str) -> Result<LinkShape, String> {
        let mut shape = LinkShape::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("wan spec: `{part}` is not key=value"))?;
            let value = value.trim();
            match key.trim() {
                "bw" => shape.bytes_per_sec = parse_bytes(value)?,
                "delay" => shape.delay_us = parse_duration_us(value)?,
                "loss" => shape.loss_ppm = parse_ppm(value)?,
                "congestion" => shape.congestion_ppm = parse_ppm(value)?,
                "seed" => {
                    shape.seed = value
                        .parse()
                        .map_err(|_| format!("wan spec: bad seed `{value}`"))?
                }
                "stall" => {
                    let (rate, hold) = value
                        .split_once(':')
                        .ok_or_else(|| format!("wan spec: stall `{value}` is not rate:time"))?;
                    shape.stall_ppm = parse_ppm(rate.trim())?;
                    shape.stall_us = parse_duration_us(hold.trim())?;
                }
                "truncate" => shape.truncate_ppm = parse_ppm(value)?,
                "garble" => shape.garble_ppm = parse_ppm(value)?,
                other => return Err(format!("wan spec: unknown key `{other}`")),
            }
        }
        let bands = [
            shape.loss_ppm,
            shape.stall_ppm,
            shape.truncate_ppm,
            shape.garble_ppm,
        ];
        let total: u64 = bands.iter().map(|&b| b as u64).sum();
        if total > 1_000_000 {
            return Err(format!(
                "wan spec: loss+stall+truncate+garble sum to {total}ppm, more than every send"
            ));
        }
        Ok(shape)
    }
}

impl std::fmt::Display for LinkShape {
    /// The five link terms always; fault terms only when set. (The
    /// canonical string is hashed into [`link_fingerprint`], so its form
    /// for a pure bandwidth/delay/loss shape is pinned.)
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bw={},delay={}us,loss={}ppm,congestion={}ppm,seed={}",
            self.bytes_per_sec, self.delay_us, self.loss_ppm, self.congestion_ppm, self.seed
        )?;
        if self.stall_ppm != 0 || self.stall_us != 0 {
            write!(f, ",stall={}ppm:{}us", self.stall_ppm, self.stall_us)?;
        }
        if self.truncate_ppm != 0 {
            write!(f, ",truncate={}ppm", self.truncate_ppm)?;
        }
        if self.garble_ppm != 0 {
            write!(f, ",garble={}ppm", self.garble_ppm)?;
        }
        Ok(())
    }
}

/// A non-negative decimal number scaled by `mult`, rounded to an integer.
/// Whole numbers take the exact path, so the canonical form (always whole)
/// round-trips every `u64`.
fn parse_scaled(digits: &str, mult: u64, what: &str, whole: &str) -> Result<u64, String> {
    let bad = || format!("wan spec: bad {what} `{whole}`");
    if let Ok(n) = digits.parse::<u64>() {
        return n.checked_mul(mult).ok_or_else(bad);
    }
    match digits.parse::<f64>() {
        Ok(n) if n >= 0.0 && n.is_finite() => Ok((n * mult as f64).round() as u64),
        _ => Err(bad()),
    }
}

fn parse_bytes(v: &str) -> Result<u64, String> {
    let (digits, mult) = match v.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&v[..v.len() - 1], 1_000u64),
        Some(b'm') | Some(b'M') => (&v[..v.len() - 1], 1_000_000),
        Some(b'g') | Some(b'G') => (&v[..v.len() - 1], 1_000_000_000),
        _ => (v, 1),
    };
    parse_scaled(digits, mult, "bandwidth", v)
}

fn parse_duration_us(v: &str) -> Result<u64, String> {
    let (digits, mult) = if let Some(d) = v.strip_suffix("ms") {
        (d, 1_000u64)
    } else if let Some(d) = v.strip_suffix("us") {
        (d, 1)
    } else if let Some(d) = v.strip_suffix('s') {
        (d, 1_000_000)
    } else {
        (v, 1)
    };
    parse_scaled(digits, mult, "duration", v)
}

fn parse_ppm(v: &str) -> Result<u32, String> {
    if let Some(d) = v.strip_suffix("ppm") {
        return d.parse().map_err(|_| format!("wan spec: bad ppm `{v}`"));
    }
    match v.parse::<f64>() {
        Ok(f) if (0.0..=1.0).contains(&f) => Ok((f * 1_000_000.0).round() as u32),
        Ok(_) => Err(format!("wan spec: fraction `{v}` outside [0, 1]")),
        Err(_) => Err(format!("wan spec: bad fraction `{v}`")),
    }
}

/// The shared bottleneck all lanes to one destination contend on. Frames
/// queue FIFO: each send reserves the next free transmission slot
/// (`len / bytes_per_sec` long), so N lanes collectively never exceed the
/// cap. A lane whose window is smaller than the bandwidth-delay product
/// leaves the link idle while it waits for acks — the headroom parallel
/// streams harvest, and a full window ([`lane_window`]) does not leave.
#[derive(Debug)]
pub struct SharedLink {
    shape: LinkShape,
    /// When the link next becomes free, relative to `epoch`.
    next_free: Mutex<Duration>,
    epoch: Instant,
    lanes: AtomicU32,
}

impl SharedLink {
    /// A fresh link with no lanes attached.
    pub fn new(shape: LinkShape) -> Self {
        Self {
            shape,
            next_free: Mutex::new(Duration::ZERO),
            epoch: Instant::now(),
            lanes: AtomicU32::new(0),
        }
    }

    /// The shape this link was built from.
    pub fn shape(&self) -> LinkShape {
        self.shape
    }

    /// Lanes currently attached.
    pub fn lanes(&self) -> u32 {
        self.lanes.load(Ordering::Relaxed)
    }

    /// Reserve the next free slot of the bottleneck for `len` bytes and
    /// return the instant their last byte leaves the link (now, on an
    /// uncapped link). The sender is busy until then.
    pub fn reserve(&self, len: usize) -> Instant {
        if self.shape.bytes_per_sec == 0 {
            return Instant::now();
        }
        let tx = Duration::from_nanos(
            (len as u128 * 1_000_000_000 / self.shape.bytes_per_sec as u128) as u64,
        );
        let mut free = self.next_free.lock().unwrap_or_else(|e| e.into_inner());
        *free = (*free).max(self.epoch.elapsed()) + tx;
        self.epoch + *free
    }

    /// Carry `len` bytes all the way across on the calling thread: sleep
    /// through the [`SharedLink::reserve`]d slot, then the propagation
    /// delay. A server shapes its reply direction with this, on the worker
    /// that wrote the reply; [`LinkTransport`] does not — its frames wait
    /// out the delay in a delay line while the sender moves on.
    pub fn deliver(&self, len: usize) {
        let gone = self.reserve(len) + Duration::from_micros(self.shape.delay_us);
        std::thread::sleep(gone.saturating_duration_since(Instant::now()));
    }
}

type LinkMap = HashMap<(String, LinkShape), Weak<SharedLink>>;

fn registry() -> std::sync::MutexGuard<'static, LinkMap> {
    static LINKS: OnceLock<Mutex<LinkMap>> = OnceLock::new();
    LINKS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Process-global link registry: every lane that names the same
/// `(key, shape)` shares one [`SharedLink`], so every connection from
/// one process to one destination contends on a single bottleneck the
/// way they would on a real WAN path. The registry holds links weakly —
/// a link lives exactly as long as some lane holds it — and every lookup
/// prunes the entries whose last lane has gone, so a process that dials
/// many `(ephemeral port, per-run seed)` links does not accumulate them.
pub fn link_for(key: &str, shape: LinkShape) -> Arc<SharedLink> {
    let mut map = registry();
    map.retain(|_, link| link.strong_count() > 0);
    let slot = map.entry((key.to_string(), shape)).or_default();
    slot.upgrade().unwrap_or_else(|| {
        let link = Arc::new(SharedLink::new(shape));
        *slot = Arc::downgrade(&link);
        link
    })
}

/// What the link does (or [`planned_event`] says it will do) to one send
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// Transmitted, delayed by propagation, delivered.
    Forward,
    /// Transmitted (link time consumed) but lost downstream.
    Lose,
    /// Forwarded, arriving the shape's stall time late (and holding back
    /// the lane's later frames: arrival is FIFO).
    Stall,
    /// Frame cut to a nonempty strict prefix.
    Truncate,
    /// One bit of the frame flipped.
    Garble,
}

impl LinkEvent {
    /// Short stable label, used in schedules, fingerprints and transcripts.
    pub fn label(&self) -> &'static str {
        match self {
            LinkEvent::Forward => "forward",
            LinkEvent::Lose => "lose",
            LinkEvent::Stall => "stall",
            LinkEvent::Truncate => "truncate",
            LinkEvent::Garble => "garble",
        }
    }

    /// Whether this event puts corrupted bytes on the wire. A truncated
    /// frame leaves the receiver mid-read, so *later* frames' bytes
    /// complete the pending read; the payload CRC turns every such
    /// composite into a typed error and the receiver tears the connection
    /// down. The chaos harness therefore checks the *strong* property:
    /// once a corrupting event fires on a stream, no later call over it may
    /// complete successfully. Losses and stalls never corrupt framing: the
    /// peer sees either nothing or an intact frame.
    pub fn corrupts_stream(&self) -> bool {
        matches!(self, LinkEvent::Truncate | LinkEvent::Garble)
    }
}

/// Draw operation `op`'s event on lane `lane` under `shape`. Returns the
/// operation's dedicated sub-stream too, positioned after the decision
/// draw: the event's parameters (cut point, flipped bit) draw from it and
/// from nowhere else, so no operation's outcome can shift another's.
fn draw_event(shape: &LinkShape, lane: u32, lanes: u32, op: u64) -> (LinkEvent, SplitMix64) {
    let mut rng = SplitMix64::new(
        shape.seed
            ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ op.wrapping_mul(0xA076_1D64_78BD_642F),
    );
    let draw = rng.next_u64() % 1_000_000;
    let mut edge = 0u64;
    for (width, event) in [
        (eff_loss_ppm(shape, lanes), LinkEvent::Lose),
        (shape.stall_ppm, LinkEvent::Stall),
        (shape.truncate_ppm, LinkEvent::Truncate),
        (shape.garble_ppm, LinkEvent::Garble),
    ] {
        edge += width as u64;
        if draw < edge {
            return (event, rng);
        }
    }
    (LinkEvent::Forward, rng)
}

/// The event send operation `op` (0-based) on lane `lane` takes when
/// `lanes` lanes share the link — a pure function, usable without any
/// transport. A [`LinkTransport`] on the same lane of a link with the same
/// live lane count takes exactly this event on its `op`-th send, and the
/// simulator calls this very function for its own lanes.
pub fn planned_event(shape: &LinkShape, lane: u32, lanes: u32, op: u64) -> LinkEvent {
    draw_event(shape, lane, lanes, op).0
}

/// The first `ops` events for `lane` under `shape` with `lanes` concurrent
/// lanes, precomputed. Two calls with the same arguments return identical
/// schedules; this is the "what will the link do" artifact a chaos
/// transcript fingerprints before a single byte moves.
pub fn link_schedule(shape: &LinkShape, lane: u32, lanes: u32, ops: u64) -> Vec<LinkEvent> {
    (0..ops)
        .map(|op| planned_event(shape, lane, lanes, op))
        .collect()
}

/// FNV-1a fingerprint of a lane's planned schedule, prefixed by the
/// canonical spec string.
pub fn link_fingerprint(shape: &LinkShape, lane: u32, lanes: u32, ops: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(shape.to_string().as_bytes());
    eat(b"#");
    for event in link_schedule(shape, lane, lanes, ops) {
        eat(event.label().as_bytes());
        eat(b";");
    }
    h
}

/// Counters of what the link did to one lane's sends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Sends put on the link intact, bound for the inner transport
    /// (stalled ones count here too).
    pub forwarded: u64,
    /// Sends lost downstream (link time still consumed).
    pub lost: u64,
    /// Sends whose arrival was held back by the stall time.
    pub stalled: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Frames with a flipped bit.
    pub garbled: u64,
    /// Bytes paced through the link (lost sends included).
    pub bytes: u64,
}

/// Cap on the per-transport event history kept for assertions.
const HISTORY_CAP: usize = 1 << 16;

/// Cloneable handle onto a [`LinkTransport`]'s observed event history.
/// Lets a harness watch which events actually fired even after the
/// transport itself has been boxed into a client — e.g. to mark the calls
/// issued over a stream after its bytes were corrupted in flight.
#[derive(Clone, Debug, Default)]
pub struct LinkHistory(Arc<Mutex<Vec<LinkEvent>>>);

impl LinkHistory {
    /// The event each send operation has taken so far, in order (capped
    /// at 2^16 entries) — always a prefix of [`link_schedule`] for the
    /// lane.
    pub fn snapshot(&self) -> Vec<LinkEvent> {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Whether any event so far put corrupted bytes on the wire.
    pub fn corrupts_stream(&self) -> bool {
        let events = self.0.lock().unwrap_or_else(|e| e.into_inner());
        events.iter().any(LinkEvent::corrupts_stream)
    }

    fn push(&self, event: LinkEvent) {
        let mut v = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if v.len() < HISTORY_CAP {
            v.push(event);
        }
    }
}

/// A frame that has left the sender and not yet reached the far end.
struct InFlight {
    /// When it arrives, i.e. is due on the inner transport.
    at: Instant,
    frame: Vec<u8>,
}

/// A transport wrapper that imposes a [`LinkShape`] on the send path:
/// every outgoing frame queues through the lane's [`SharedLink`]
/// bottleneck (the only time the sender spends on it), then takes the
/// lane's seeded event — it reaches the inner transport after the
/// propagation delay (possibly stalled, truncated or garbled on the way) or
/// is lost. Receives pass through untouched. Dropping the wrapper drops
/// whatever is still in flight.
pub struct LinkTransport<T: Transport> {
    inner: T,
    link: Arc<SharedLink>,
    lane: u32,
    /// Index of the next send operation (the RNG position).
    op: u64,
    stats: LinkStats,
    history: LinkHistory,
    /// The delay line: frames in flight, in arrival (= send) order.
    line: VecDeque<InFlight>,
}

impl<T: Transport> LinkTransport<T> {
    /// Wrap `inner` as lane `lane` of `link`. Lane numbers are
    /// caller-assigned so schedules stay deterministic however threads
    /// race; the bulk uploader takes lane 1 beside the call connection's 0.
    pub fn new(inner: T, link: Arc<SharedLink>, lane: u32) -> Self {
        link.lanes.fetch_add(1, Ordering::Relaxed);
        Self {
            inner,
            link,
            lane,
            op: 0,
            stats: LinkStats::default(),
            history: LinkHistory::default(),
            line: VecDeque::new(),
        }
    }

    /// Wrap `inner` as lane 0 of a private link of `shape` — the simple
    /// case for one connection that shares its link with nobody.
    pub fn private(inner: T, shape: LinkShape) -> Self {
        Self::new(inner, Arc::new(SharedLink::new(shape)), 0)
    }

    /// Counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// A cloneable handle onto this transport's live event history,
    /// usable after the transport has been boxed away.
    pub fn history(&self) -> LinkHistory {
        self.history.clone()
    }

    /// Hand the inner transport every frame whose arrival time has come.
    fn release_due(&mut self) -> ProtocolResult<()> {
        while self.line.front().is_some_and(|f| f.at <= Instant::now()) {
            let arrived = self.line.pop_front().expect("front was just seen");
            self.inner.send_raw(&arrived.frame)?;
        }
        Ok(())
    }

    /// Sleep until `t`, waking to release frames as they fall due.
    fn sleep_until(&mut self, t: Instant) -> ProtocolResult<()> {
        loop {
            self.release_due()?;
            let now = Instant::now();
            if now >= t {
                return Ok(());
            }
            let wake = self.line.front().map_or(t, |f| f.at.min(t));
            std::thread::sleep(wake.saturating_duration_since(now));
        }
    }

    /// Stage a frame on the inner transport — encoded once, its size
    /// paces the link and its bytes are what arrives — and put it on the
    /// link. Returns the inner transport's ticket for the reply. (The only
    /// thing that can fail after the ticket is taken is `send_raw`, i.e.
    /// the connection: a ticket orphaned here is one on a dead stream,
    /// which gates nothing and goes with the transport.)
    fn put(&mut self, encode: FrameFn<'_>) -> ProtocolResult<u64> {
        let (ticket, frame) = self.inner.stage(encode)?;
        self.ship(frame)?;
        Ok(ticket)
    }

    /// Put one staged frame on the link: take the next operation's event,
    /// hold the sender for the frame's slot on the bottleneck, and leave
    /// what survives in the delay line, due one propagation delay (plus
    /// the stall, if drawn) after its last byte left.
    fn ship(&mut self, mut frame: Vec<u8>) -> ProtocolResult<()> {
        let shape = self.link.shape();
        let lanes = self.link.lanes().max(1);
        let (event, mut rng) = draw_event(&shape, self.lane, lanes, self.op);
        self.op += 1;
        self.history.push(event);
        self.stats.bytes += frame.len() as u64;
        let gone = self.link.reserve(frame.len());
        self.sleep_until(gone)?;
        let mut flight = Duration::from_micros(shape.delay_us);
        match event {
            // Lost on the wire: link time consumed, the peer sees nothing.
            // Pretend success so the caller proceeds to its read — where
            // the deadline decides.
            LinkEvent::Lose => {
                self.stats.lost += 1;
                return Ok(());
            }
            LinkEvent::Stall => {
                self.stats.stalled += 1;
                self.stats.forwarded += 1;
                flight += Duration::from_micros(shape.stall_us);
            }
            LinkEvent::Forward => self.stats.forwarded += 1,
            LinkEvent::Truncate => {
                // Connection dies mid-frame: ship a *nonempty* strict
                // prefix. An empty one would be indistinguishable from a
                // loss and leave the stream clean at a frame boundary —
                // truncation must actually poison it.
                self.stats.truncated += 1;
                frame.truncate(1 + rng.below(frame.len() as u64 - 1) as usize);
            }
            LinkEvent::Garble => {
                // Flip one bit anywhere — magic, version, length, checksum
                // word, or deep in the payload. The receiver's framing
                // layer must reject it wherever it lands; the payload CRC
                // guarantees that even for payload bits.
                self.stats.garbled += 1;
                let byte = rng.below(frame.len() as u64) as usize;
                frame[byte] ^= 1 << rng.below(8);
            }
        }
        // FIFO per lane: nothing overtakes a stalled frame.
        let at = self
            .line
            .back()
            .map_or(gone + flight, |f| f.at.max(gone + flight));
        self.line.push_back(InFlight { at, frame });
        self.release_due()
    }
}

impl<T: Transport> Drop for LinkTransport<T> {
    fn drop(&mut self) {
        self.link.lanes.fetch_sub(1, Ordering::Relaxed);
    }
}

impl<T: Transport> Transport for LinkTransport<T> {
    fn send_frame(&mut self, encode: FrameFn<'_>) -> ProtocolResult<()> {
        self.put(encode).map(|_| ())
    }

    /// Everything sent has arrived before the reply is awaited — a strict
    /// caller's reply cannot precede its request.
    fn recv(&mut self) -> ProtocolResult<Message> {
        if let Some(last) = self.line.back().map(|f| f.at) {
            self.sleep_until(last)?;
        }
        self.inner.recv()
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ProtocolResult<bool> {
        self.inner.set_deadline(deadline)
    }

    /// Raw bytes are the injection hook *below* the link model: they go out
    /// verbatim, unpaced, and take no event.
    fn send_raw(&mut self, bytes: &[u8]) -> ProtocolResult<()> {
        self.inner.send_raw(bytes)
    }

    fn stage(&mut self, encode: FrameFn<'_>) -> ProtocolResult<(u64, Vec<u8>)> {
        self.inner.stage(encode)
    }
}

impl<T: Pipelined> Pipelined for LinkTransport<T> {
    fn post(&mut self, msg: &Message) -> ProtocolResult<u64> {
        self.put(&mut |ticket| crate::frame::encode_frame(ticket, msg))
    }

    /// Replies to earlier frames may arrive while later ones are still in
    /// flight, so the wait is cut at each arrival time to release the frame.
    fn recv_any(&mut self, wait: Duration) -> ProtocolResult<(u64, Message)> {
        let limit = Instant::now() + wait;
        loop {
            self.release_due()?;
            let until = self.line.front().map_or(limit, |f| f.at.min(limit));
            match self
                .inner
                .recv_any(until.saturating_duration_since(Instant::now()))
            {
                Err(e) if e.is_timeout() && until < limit => continue,
                other => return other,
            }
        }
    }

    fn forget(&mut self, ticket: u64) {
        self.inner.forget(ticket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProtocolError;
    use crate::message::Arg;
    use crate::transport::ChannelTransport;
    use crate::Value;

    /// Discards everything; for schedule/pacing tests that never read
    /// the peer side (a [`ChannelTransport`]'s bounded buffer would block
    /// an undrained bulk send).
    struct Sink;

    impl Transport for Sink {
        fn send(&mut self, _msg: &Message) -> ProtocolResult<()> {
            Ok(())
        }
        fn recv(&mut self) -> ProtocolResult<Message> {
            Err(ProtocolError::Disconnected)
        }
        fn send_raw(&mut self, _bytes: &[u8]) -> ProtocolResult<()> {
            Ok(())
        }
    }

    /// A ~32 KiB frame: holds a 1 MB/s link for ~32 ms.
    fn bulky() -> Message {
        Message::ResultData {
            results: vec![Value::DoubleArray(vec![1.0; 4096])],
        }
    }

    fn invoke() -> Message {
        Message::Invoke {
            routine: "ep".into(),
            args: Arg::inline(vec![Value::DoubleArray(vec![1.5; 8])]),
            trace: None,
        }
    }

    #[test]
    fn spec_grammar_parses_and_displays_canonically() {
        let spec = "bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997";
        let shape = LinkShape::parse(spec).expect("spec parses");
        let expected = LinkShape {
            bytes_per_sec: 4_000_000,
            delay_us: 20_000,
            loss_ppm: 10_000,
            congestion_ppm: 15_000,
            seed: 1997,
            ..LinkShape::default()
        };
        assert_eq!(shape, expected);
        // A shape without fault terms prints the five-term form unchanged.
        assert_eq!(
            shape.to_string(),
            "bw=4000000,delay=20000us,loss=10000ppm,congestion=15000ppm,seed=1997"
        );
        let faulty = LinkShape::parse("loss=0.12,stall=0.1:30ms,truncate=0.04,garble=40000ppm")
            .expect("fault terms parse");
        assert_eq!(
            (faulty.loss_ppm, faulty.stall_ppm, faulty.stall_us),
            (120_000, 100_000, 30_000)
        );
        assert_eq!((faulty.truncate_ppm, faulty.garble_ppm), (40_000, 40_000));
        assert_eq!(LinkShape::parse(&faulty.to_string()), Ok(faulty));
        // Suffix variants and defaults.
        assert_eq!(LinkShape::parse("bw=512k").unwrap().bytes_per_sec, 512_000);
        assert_eq!(LinkShape::parse("delay=250us").unwrap().delay_us, 250);
        assert_eq!(LinkShape::parse("delay=1s").unwrap().delay_us, 1_000_000);
        assert_eq!(LinkShape::parse("loss=2500ppm").unwrap().loss_ppm, 2_500);
        assert_eq!(LinkShape::parse("").unwrap(), LinkShape::default());
    }

    #[test]
    fn spec_grammar_rejects_nonsense_and_overfull_bands() {
        for bad in [
            "bw",
            "warp=9",
            "bw=fast",
            "loss=1.5",
            "delay=soon",
            "seed=minus-one",
            "stall=0.1",
            "stall=0.1:later",
            "garble=-0.1",
        ] {
            assert!(LinkShape::parse(bad).is_err(), "`{bad}` parsed");
        }
        // Over-full event bands are a typed error a CLI can print.
        let err = LinkShape::parse("loss=0.7,garble=0.6").unwrap_err();
        assert!(err.contains("sum to 1300000ppm"), "{err}");
        assert!(LinkShape::parse("loss=0.5,garble=0.5").is_ok());
    }

    fn tagged(tag: &str) -> Message {
        Message::QueryInterface {
            routine: tag.into(),
        }
    }

    /// Arrival instants at the far end of a channel pair, by a reader
    /// thread that stops at the first error (deadline or hang-up).
    fn arrivals(
        mut peer: ChannelTransport,
        patience: Duration,
    ) -> std::thread::JoinHandle<Vec<(Message, Instant)>> {
        peer.set_deadline(Some(patience)).unwrap();
        std::thread::spawn(move || {
            let mut seen = Vec::new();
            while let Ok(msg) = peer.recv() {
                seen.push((msg, Instant::now()));
            }
            seen
        })
    }

    #[test]
    fn a_burst_pays_the_propagation_delay_once() {
        // 4 × ~32 KiB at 1 MB/s is ~131 ms of serialisation; the link is
        // 60 ms long. A sender asleep through every delay would finish the
        // burst at 131 + 4·60 = 371 ms and land the last frame then.
        let shape = LinkShape {
            bytes_per_sec: 1_000_000,
            delay_us: 60_000,
            ..LinkShape::default()
        };
        let (a, b) = ChannelTransport::pair();
        let reader = arrivals(b, Duration::from_millis(600));
        let mut link = LinkTransport::private(a, shape);
        let start = Instant::now();
        for _ in 0..4 {
            link.send(&bulky()).unwrap();
        }
        let sent = start.elapsed();
        assert!(
            sent >= Duration::from_millis(125),
            "link time skipped: {sent:?}"
        );
        assert!(
            sent < Duration::from_millis(131 + 60),
            "the sender slept through a delay: {sent:?}"
        );
        // Nobody replies; the wait is what lets the tail of the burst land.
        link.set_deadline(Some(Duration::from_millis(150))).unwrap();
        assert!(link.recv().unwrap_err().is_timeout());
        drop(link);
        let seen = reader.join().unwrap();
        assert_eq!(seen.len(), 4);
        let first = seen[0].1 - start;
        let last = seen[3].1 - start;
        assert!(first >= Duration::from_millis(32 + 60), "{first:?}");
        assert!(last >= Duration::from_millis(131 + 60), "{last:?}");
        assert!(
            last < Duration::from_millis(131 + 60 + 60),
            "the burst paid the delay more than once: {last:?}"
        );
    }

    #[test]
    fn a_stalled_frame_holds_back_the_frames_behind_it() {
        // A seed whose first four operations are forward, stall, forward,
        // forward: the stall sits mid-burst.
        use LinkEvent::{Forward, Stall};
        let shape = (0..)
            .map(|seed| LinkShape {
                delay_us: 5_000,
                stall_ppm: 300_000,
                stall_us: 80_000,
                seed,
                ..LinkShape::default()
            })
            .find(|s| link_schedule(s, 0, 1, 4) == [Forward, Stall, Forward, Forward])
            .unwrap();
        let (a, b) = ChannelTransport::pair();
        let reader = arrivals(b, Duration::from_millis(400));
        let mut link = LinkTransport::private(a, shape);
        let start = Instant::now();
        for tag in ["0", "1", "2", "3"] {
            link.send(&tagged(tag)).unwrap();
        }
        assert!(
            start.elapsed() < Duration::from_millis(60),
            "a stall is the frame's time, not the sender's"
        );
        link.set_deadline(Some(Duration::from_millis(150))).unwrap();
        assert!(link.recv().unwrap_err().is_timeout());
        assert_eq!((link.stats().stalled, link.stats().forwarded), (1, 4));
        drop(link);
        let seen = reader.join().unwrap();
        let order: Vec<Message> = seen.iter().map(|(m, _)| m.clone()).collect();
        assert_eq!(order, ["0", "1", "2", "3"].map(tagged), "FIFO per lane");
        assert!(seen[0].1 - start < Duration::from_millis(60));
        for (_, at) in &seen[1..] {
            assert!(
                *at - start >= Duration::from_millis(85),
                "{:?}",
                *at - start
            );
        }
    }

    #[test]
    fn a_round_trip_still_costs_the_propagation_delay() {
        let shape = LinkShape {
            delay_us: 30_000,
            ..LinkShape::default()
        };
        let (a, mut b) = ChannelTransport::pair();
        let echo = std::thread::spawn(move || {
            let msg = b.recv().unwrap();
            b.send(&msg).unwrap();
        });
        let mut link = LinkTransport::private(a, shape);
        let start = Instant::now();
        link.send(&Message::QueryLoad).unwrap();
        assert_eq!(link.recv().unwrap(), Message::QueryLoad);
        assert!(start.elapsed() >= Duration::from_millis(30));
        echo.join().unwrap();
        // And a default shape is transparent: the frame is on the inner
        // transport when `send` returns, nothing but forwards.
        let (a, mut b) = ChannelTransport::pair();
        let mut clean = LinkTransport::private(a, LinkShape::default());
        clean.send(&Message::QueryLoad).unwrap();
        b.set_deadline(Some(Duration::ZERO)).unwrap();
        assert_eq!(b.recv().unwrap(), Message::QueryLoad);
        assert_eq!(clean.history().snapshot(), [LinkEvent::Forward]);
    }

    #[test]
    fn dropping_a_link_with_frames_in_flight_neither_blocks_nor_delivers() {
        let shape = LinkShape {
            delay_us: 10_000_000,
            ..LinkShape::default()
        };
        let (a, mut b) = ChannelTransport::pair();
        let mut link = LinkTransport::private(a, shape);
        let start = Instant::now();
        link.send(&Message::QueryLoad).unwrap();
        drop(link);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(matches!(b.recv(), Err(ProtocolError::Disconnected)));
    }

    /// A pipelined far end that acks every frame the moment it arrives.
    #[derive(Default)]
    struct Acker {
        tickets: u64,
        acks: VecDeque<u64>,
    }

    impl Transport for Acker {
        fn send(&mut self, _msg: &Message) -> ProtocolResult<()> {
            unreachable!("the link model sends staged bytes")
        }
        fn recv(&mut self) -> ProtocolResult<Message> {
            Err(ProtocolError::Disconnected)
        }
        fn send_raw(&mut self, bytes: &[u8]) -> ProtocolResult<()> {
            let call_id = bytes[12..20].try_into().expect("a whole frame header");
            self.acks.push_back(u64::from_be_bytes(call_id));
            Ok(())
        }
        fn stage(&mut self, encode: FrameFn<'_>) -> ProtocolResult<(u64, Vec<u8>)> {
            self.tickets += 1;
            Ok((self.tickets, encode(self.tickets)?))
        }
    }

    impl Pipelined for Acker {
        fn recv_any(&mut self, wait: Duration) -> ProtocolResult<(u64, Message)> {
            match self.acks.pop_front() {
                Some(ticket) => Ok((ticket, Message::QueryLoad)),
                None => {
                    std::thread::sleep(wait);
                    Err(ProtocolError::Timeout {
                        operation: "read",
                        after: wait,
                    })
                }
            }
        }
        fn forget(&mut self, _ticket: u64) {}
    }

    #[test]
    fn replies_overtake_frames_still_in_flight() {
        // Three ~32 ms frames over a 50 ms link: the first ack is due at
        // ~82 ms, when the third frame (due ~148 ms) has not arrived yet.
        let shape = LinkShape {
            bytes_per_sec: 1_000_000,
            delay_us: 50_000,
            ..LinkShape::default()
        };
        let mut link = LinkTransport::private(Acker::default(), shape);
        let start = Instant::now();
        let tickets: Vec<u64> = (0..3).map(|_| link.post(&bulky()).unwrap()).collect();
        assert_eq!(tickets, [1, 2, 3]);
        let patience = Duration::from_millis(400);
        assert_eq!(link.recv_any(patience).unwrap().0, 1);
        let first = start.elapsed();
        assert!(first >= Duration::from_millis(82), "{first:?}");
        assert!(first < Duration::from_millis(140), "{first:?}");
        assert_eq!(link.recv_any(patience).unwrap().0, 2);
        assert_eq!(link.recv_any(patience).unwrap().0, 3);
        assert!(start.elapsed() >= Duration::from_millis(98 + 50));
        // Nothing open, nothing in flight: the wait runs out as a timeout.
        assert!(link
            .recv_any(Duration::from_millis(20))
            .unwrap_err()
            .is_timeout());
    }

    #[test]
    fn window_is_the_bandwidth_delay_product_in_chunks() {
        let wan = LinkShape::parse("bw=4m,delay=20ms").unwrap();
        // 4 MB/s × 40 ms = 160 000 B = 9.77 chunks of 16 KiB.
        assert_eq!(lane_window(Some(&wan), 16 << 10), 10);
        assert_eq!(lane_window(Some(&wan), 64 << 10), 3);
        assert_eq!(lane_window(Some(&wan), 1 << 10), MAX_LANE_WINDOW);
        // No delay, no product: stop-and-wait is already full.
        let lan = LinkShape::parse("bw=4m").unwrap();
        assert_eq!(lane_window(Some(&lan), 16 << 10), 1);
        // Nothing to compute from: the cap.
        let uncapped = LinkShape::parse("delay=20ms").unwrap();
        assert_eq!(lane_window(Some(&uncapped), 16 << 10), MAX_LANE_WINDOW);
        assert_eq!(lane_window(None, 16 << 10), MAX_LANE_WINDOW);
    }

    #[test]
    fn lost_sends_never_arrive_but_consume_link_time() {
        let shape = LinkShape {
            bytes_per_sec: 1_000_000,
            loss_ppm: 1_000_000,
            ..LinkShape::default()
        };
        let (a, mut b) = ChannelTransport::pair();
        let mut link = LinkTransport::private(a, shape);
        let start = Instant::now();
        link.send(&bulky()).unwrap();
        // The link was still held for the transmission time…
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert_eq!(link.stats().lost, 1);
        // …but the peer sees silence; its deadline governs recovery.
        b.set_deadline(Some(Duration::from_millis(20))).unwrap();
        assert!(b.recv().unwrap_err().is_timeout());
    }

    #[test]
    fn corrupted_frames_never_decode() {
        // A strict prefix of a frame, or a frame with a single flipped bit
        // anywhere, must surface as a typed rejection, never a decoded
        // message. (A length bit flipped upward leaves the receiver waiting
        // for bytes that never come, which the deadline converts to a typed
        // timeout.)
        for (spec, event) in [
            ("truncate=1.0", LinkEvent::Truncate),
            ("garble=1.0", LinkEvent::Garble),
        ] {
            for seed in 0..64 {
                let (a, mut b) = ChannelTransport::pair();
                let shape = LinkShape {
                    seed,
                    ..LinkShape::parse(spec).unwrap()
                };
                let mut link = LinkTransport::private(a, shape);
                link.send(&invoke()).unwrap();
                assert_eq!(link.history().snapshot(), [event]);
                assert!(link.history().corrupts_stream());
                b.set_deadline(Some(Duration::from_millis(50))).unwrap();
                match b.recv() {
                    Ok(m) => panic!("{spec} frame decoded as {} (seed {seed})", m.kind()),
                    Err(
                        ProtocolError::Frame(_)
                        | ProtocolError::Checksum { .. }
                        | ProtocolError::UnsupportedVersion { .. }
                        | ProtocolError::Io(_)
                        | ProtocolError::Timeout { .. },
                    ) => {}
                    Err(other) => panic!("untyped rejection {other} ({spec}, seed {seed})"),
                }
            }
        }
    }

    #[test]
    fn lanes_share_one_bottleneck() {
        let shape = LinkShape {
            bytes_per_sec: 1_000_000,
            ..LinkShape::default()
        };
        let link = Arc::new(SharedLink::new(shape));
        let start = Instant::now();
        std::thread::scope(|s| {
            for lane in 0..2 {
                let link = link.clone();
                s.spawn(move || {
                    let mut lane = LinkTransport::new(Sink, link, lane);
                    for _ in 0..2 {
                        lane.send(&bulky()).unwrap();
                    }
                });
            }
        });
        // 4 × ~32 KiB total must serialize through the shared cap even
        // though two lanes sent concurrently.
        assert!(
            start.elapsed() >= Duration::from_millis(120),
            "shared link let lanes overlap: {:?}",
            start.elapsed()
        );
        assert_eq!(link.lanes(), 0, "lanes deregister on drop");
    }

    #[test]
    fn registry_shares_live_links_and_evicts_dead_ones() {
        let shape = |seed| LinkShape {
            bytes_per_sec: 77,
            seed,
            ..LinkShape::default()
        };
        let live = |port: u32| {
            let key = format!("registry-test:{port}");
            registry()
                .iter()
                .filter(|((k, _), link)| *k == key && link.strong_count() > 0)
                .count()
        };
        let a = link_for("registry-test:1", shape(41));
        let b = link_for("registry-test:1", shape(41));
        let c = link_for("registry-test:2", shape(41));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        // A hunt's worth of per-run links (one seed each), every one
        // dropped when its last lane goes: nothing of them may remain.
        let before = registry().len();
        for seed in 0..100 {
            let lane = LinkTransport::new(Sink, link_for("registry-test:3", shape(seed)), 0);
            assert_eq!(live(3), 1);
            drop(lane);
        }
        drop(link_for("registry-test:4", shape(0)));
        assert_eq!(live(3), 0);
        assert!(
            registry().len() <= before + 1,
            "dead links accumulated: {} entries, {before} before",
            registry().len()
        );
        assert_eq!(live(1), 1, "held links survive pruning");
    }

    #[test]
    fn congestion_raises_effective_loss_with_lane_count() {
        let shape = LinkShape {
            loss_ppm: 10_000,
            congestion_ppm: 15_000,
            ..LinkShape::default()
        };
        assert_eq!(eff_loss_ppm(&shape, 1), 10_000);
        assert_eq!(eff_loss_ppm(&shape, 4), 55_000);
        assert_eq!(eff_loss_ppm(&shape, 16), 235_000);
        // Capped: the link never becomes a pure black hole.
        let flood = LinkShape {
            congestion_ppm: 1_000_000,
            ..shape
        };
        assert_eq!(eff_loss_ppm(&flood, 1000), MAX_EFF_LOSS_PPM as u32);
    }

    /// A combined plan — loss, stall, truncation and garbling on one link —
    /// driven from two threads at once: both transports' observed histories
    /// equal the planned pure schedule, and their stats its composition.
    #[test]
    fn combined_plan_history_matches_the_schedule_across_threads() {
        let shape = LinkShape {
            loss_ppm: 250_000,
            stall_ppm: 100_000,
            stall_us: 100,
            truncate_ppm: 150_000,
            garble_ppm: 200_000,
            seed: 1997,
            ..LinkShape::default()
        };
        let drive = move || {
            let mut link = LinkTransport::private(Sink, shape);
            for _ in 0..128 {
                link.send(&Message::QueryLoad).unwrap();
                std::thread::yield_now();
            }
            (link.history().snapshot(), link.stats())
        };
        let ((h1, s1), (h2, _)) = std::thread::scope(|s| {
            let t1 = s.spawn(drive);
            let t2 = s.spawn(drive);
            (t1.join().unwrap(), t2.join().unwrap())
        });
        let planned = link_schedule(&shape, 0, 1, 128);
        assert_eq!(h1, h2);
        assert_eq!(h1, planned);
        let count = |k: LinkEvent| planned.iter().filter(|&&e| e == k).count() as u64;
        assert_eq!(s1.lost, count(LinkEvent::Lose));
        assert_eq!(s1.stalled, count(LinkEvent::Stall));
        assert_eq!(s1.truncated, count(LinkEvent::Truncate));
        assert_eq!(s1.garbled, count(LinkEvent::Garble));
        assert_eq!(
            s1.forwarded,
            count(LinkEvent::Forward) + count(LinkEvent::Stall)
        );
        for kind in [LinkEvent::Forward, LinkEvent::Lose, LinkEvent::Garble] {
            assert!(count(kind) > 0, "128 ops never drew {}", kind.label());
        }
    }

    /// Adding fault terms to a shape must not move its loss schedule (the
    /// loss band comes first and each operation has its own sub-stream, so
    /// a truncation's extra parameter draws shift nothing), and lanes draw
    /// decorrelated streams.
    #[test]
    fn loss_band_is_independent_of_fault_terms_and_lanes_decorrelate() {
        let lossy = LinkShape {
            loss_ppm: 200_000,
            seed: 9,
            ..LinkShape::default()
        };
        let mixed = LinkShape {
            truncate_ppm: 200_000,
            garble_ppm: 200_000,
            ..lossy
        };
        let mixed_sched = link_schedule(&mixed, 0, 1, 256);
        for (k, (m, l)) in mixed_sched
            .iter()
            .zip(link_schedule(&lossy, 0, 1, 256))
            .enumerate()
        {
            assert_eq!(
                *m == LinkEvent::Lose,
                l == LinkEvent::Lose,
                "operation {k} disagrees on the loss band"
            );
        }
        assert!(mixed_sched.contains(&LinkEvent::Truncate));
        assert_ne!(mixed_sched, link_schedule(&mixed, 1, 1, 256));
        assert_ne!(
            mixed_sched,
            link_schedule(&LinkShape { seed: 10, ..mixed }, 0, 1, 256)
        );
    }

    /// Regression: the planned loss schedule for a given (spec, seed) is
    /// pinned by fingerprint — any change to the spec's canonical form, the
    /// lane sub-stream derivation, or the loss draw shows up here as a
    /// changed constant, never silently.
    #[test]
    fn shape_fingerprint_is_pinned() {
        let shape = LinkShape::parse("bw=4m,delay=20ms,loss=0.01,congestion=0.015,seed=1997")
            .expect("spec parses");
        let fp = link_fingerprint(&shape, 0, 1, 256);
        let other_seed = LinkShape {
            seed: 1998,
            ..shape
        };
        assert_ne!(fp, link_fingerprint(&other_seed, 0, 1, 256));
        assert_ne!(fp, link_fingerprint(&shape, 1, 1, 256));
        assert_eq!(
            fp, PINNED_FINGERPRINT,
            "shaped schedule drifted for the pinned (spec, seed)"
        );
    }

    /// Frozen; see `shape_fingerprint_is_pinned`.
    const PINNED_FINGERPRINT: u64 = 9_753_869_592_768_979_337;
}
