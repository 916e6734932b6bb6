//! `MuxPool`: checked-out multiplexed streams instead of connect-per-call.
//!
//! Checkout returns a [`MuxHandle`] onto a live shared stream for the
//! target address, dialing only when no live stream has admission capacity
//! (a *miss*); reusing one is a *hit*. Dead streams — poisoned by any
//! stream-level error — are evicted on the next checkout, so a retry after
//! a stream failure transparently lands on a fresh connection.
//!
//! `max_streams_per_addr` is an invariant: each address's streams sit
//! behind their own lock, held across a dial, so a burst of concurrent
//! checkouts to one address waits for a single dial and then shares its
//! stream, while checkouts to other addresses never wait on it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ninf_obs::metrics::{Counter, MetricsRegistry};
use ninf_protocol::ProtocolResult;

use crate::mux::{MuxHandle, MuxStream, DEFAULT_MAX_INFLIGHT};

/// Pool sizing knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Streams dialed per address before calls share the least-loaded one.
    pub max_streams_per_addr: usize,
    /// In-flight bound per stream (admission backpressure).
    pub max_inflight_per_stream: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_streams_per_addr: 2,
            max_inflight_per_stream: DEFAULT_MAX_INFLIGHT,
        }
    }
}

/// A checked-out connection: the transport handle plus whether it reused an
/// already-open stream.
pub struct Checkout {
    /// Transport for one logical client.
    pub handle: MuxHandle,
    /// True when an existing live stream was reused (a pool hit).
    pub reused: bool,
}

/// One address's pooled streams, behind that address's own lock.
type Slot = Arc<Mutex<Vec<Arc<MuxStream>>>>;

/// Shared pool of multiplexed streams, keyed by server address.
pub struct MuxPool {
    slots: Mutex<HashMap<String, Slot>>,
    config: PoolConfig,
    hits: Counter,
    misses: Counter,
}

impl Default for MuxPool {
    fn default() -> Self {
        Self::new(PoolConfig::default())
    }
}

impl MuxPool {
    /// Pool with standalone hit/miss counters.
    pub fn new(config: PoolConfig) -> Self {
        MuxPool {
            slots: Mutex::new(HashMap::new()),
            config,
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    /// Pool whose hit/miss counters live in `registry` as
    /// `ninf_client_pool_hits_total` / `ninf_client_pool_misses_total`.
    pub fn with_metrics(config: PoolConfig, registry: &MetricsRegistry) -> Self {
        MuxPool {
            slots: Mutex::new(HashMap::new()),
            config,
            hits: registry.counter(
                "ninf_client_pool_hits_total",
                "Checkouts served by an already-open multiplexed stream",
            ),
            misses: registry.counter(
                "ninf_client_pool_misses_total",
                "Checkouts that had to dial a new connection",
            ),
        }
    }

    /// The slot for `addr`, created on first use.
    fn slot(&self, addr: &str) -> Slot {
        let mut map = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(addr.to_string()).or_default().clone()
    }

    /// Check out a handle for `addr`, dialing (with `deadline`) on a miss.
    pub fn checkout(&self, addr: &str, deadline: Option<Duration>) -> ProtocolResult<Checkout> {
        let slot = self.slot(addr);
        let mut list = slot.lock().unwrap_or_else(|e| e.into_inner());
        // Evict streams poisoned since the last checkout.
        list.retain(|s| !s.is_dead());
        // Reuse the least-loaded live stream unless every one is at its
        // admission bound and there is still dial budget.
        if let Some(best) = list.iter().min_by_key(|s| s.inflight()) {
            let saturated = best.inflight() >= self.config.max_inflight_per_stream;
            if !saturated || list.len() >= self.config.max_streams_per_addr {
                self.hits.inc();
                return Ok(Checkout {
                    handle: best.handle(),
                    reused: true,
                });
            }
        }
        // Dial holding this address's lock (and only that one): checkouts
        // racing this one wait here and then reuse what it dialed.
        let stream = MuxStream::connect(addr, deadline, self.config.max_inflight_per_stream)?;
        self.misses.inc();
        let handle = stream.handle();
        list.push(Arc::new(stream));
        Ok(Checkout {
            handle,
            reused: false,
        })
    }

    /// Total checkouts that reused a live stream.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total checkouts that dialed a new connection.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Live streams currently pooled for `addr`.
    pub fn open_streams(&self, addr: &str) -> usize {
        let slot = self
            .slots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(addr)
            .cloned();
        slot.map_or(0, |slot| {
            let list = slot.lock().unwrap_or_else(|e| e.into_inner());
            list.iter().filter(|s| !s.is_dead()).count()
        })
    }

    /// Drop every pooled stream (closing the sockets).
    pub fn clear(&self) {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// Process-wide pool for CLI tools: every `ninf-call`/`repro` invocation in
/// one process shares streams through this.
pub fn global_pool() -> &'static Arc<MuxPool> {
    static POOL: OnceLock<Arc<MuxPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(MuxPool::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{Arg, Message, Transport};
    use std::net::TcpListener;
    use std::sync::Arc as StdArc;

    use crate::reactor::{Handler, Reactor, ReactorConfig, ReactorHandle, ReactorHooks};

    fn echo_server() -> ReactorHandle {
        let handler: Handler = StdArc::new(|req: crate::reactor::Request| match req.message {
            Message::Invoke { args, .. } => Some(Message::ResultData {
                results: Arg::into_values(args).expect("inline"),
            }),
            _ => Some(Message::Error {
                reason: "unexpected".into(),
            }),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Reactor::start(
            listener,
            ReactorConfig::default(),
            handler,
            ReactorHooks::default(),
        )
        .unwrap()
    }

    fn ping(h: &mut MuxHandle) {
        h.set_deadline(Some(Duration::from_secs(5))).unwrap();
        h.send(&Message::Invoke {
            routine: "echo".into(),
            args: vec![],
            trace: None,
        })
        .unwrap();
        h.recv().unwrap();
    }

    #[test]
    fn second_checkout_reuses_the_stream() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let pool = MuxPool::new(PoolConfig::default());

        let mut first = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(!first.reused);
        ping(&mut first.handle);

        let mut second = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(second.reused, "live stream must be reused");
        ping(&mut second.handle);

        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 1);
        assert_eq!(pool.open_streams(&addr), 1);
        server.shutdown();
    }

    #[test]
    fn dead_stream_is_evicted_and_redialed() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let pool = MuxPool::new(PoolConfig::default());

        let mut co = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        // Poison the stream (at least one full header of garbage, so the
        // server parses and rejects it).
        co.handle.send_raw(&[0xAAu8; 64]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.open_streams(&addr) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }

        let mut fresh = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(!fresh.reused, "poisoned stream must not be handed out");
        ping(&mut fresh.handle);
        assert_eq!(pool.misses(), 2);
        server.shutdown();
    }

    #[test]
    fn concurrent_checkouts_never_exceed_the_stream_cap() {
        const BURST: usize = 32;
        const ROUNDS: usize = 40;
        let server = echo_server();
        let addr = server.local_addr().to_string();
        for round in 0..ROUNDS {
            let pool = StdArc::new(MuxPool::new(PoolConfig {
                max_streams_per_addr: 1,
                ..PoolConfig::default()
            }));
            let start = StdArc::new(std::sync::Barrier::new(BURST));
            let burst: Vec<_> = (0..BURST)
                .map(|_| {
                    let (pool, start, addr) = (pool.clone(), start.clone(), addr.clone());
                    std::thread::spawn(move || {
                        start.wait();
                        pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap()
                    })
                })
                .collect();
            // Hold every handle until the counts are read, so no stream can
            // die and be redialed mid-round.
            let checkouts: Vec<Checkout> = burst.into_iter().map(|t| t.join().unwrap()).collect();
            assert_eq!(pool.misses(), 1, "round {round}: one dial per address");
            assert_eq!(pool.hits(), BURST as u64 - 1, "round {round}");
            assert_eq!(pool.open_streams(&addr), 1, "round {round}");
            assert_eq!(checkouts.iter().filter(|c| !c.reused).count(), 1);
        }
        server.shutdown();
    }

    #[test]
    fn metrics_backed_pool_exposes_counters() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let registry = MetricsRegistry::new();
        let pool = MuxPool::with_metrics(PoolConfig::default(), &registry);
        let _a = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        let _b = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        let text = registry.render_prometheus();
        assert!(text.contains("ninf_client_pool_hits_total 1"), "{text}");
        assert!(text.contains("ninf_client_pool_misses_total 1"), "{text}");
        server.shutdown();
    }
}
