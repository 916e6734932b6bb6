//! `MuxPool`: idle client connections kept for reuse instead of
//! connect-per-call.
//!
//! Checkout hands out an idle connection to the target address (a *hit*)
//! or dials one (a *miss*). The connection belongs to its checkout until
//! dropped; it then goes back to the pool, unless one of its operations
//! failed, so a retry after a failure dials anew. An idle connection is
//! read once, without blocking, before it is handed out, and dropped if its
//! peer has closed it. Each connection is used by one client at a time, so
//! the pool needs no bound on calls in flight.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use ninf_obs::metrics::{Counter, MetricsRegistry};
use ninf_protocol::{FrameFn, Message, ProtocolResult, Transport};

use crate::conn::TcpTransport;

/// Idle connections kept per address; one given back beyond this closes.
pub const MAX_IDLE_PER_ADDR: usize = 8;

/// Idle connections, keyed by server address.
#[derive(Default)]
pub struct MuxPool {
    idle: Mutex<HashMap<String, Vec<TcpTransport>>>,
    hits: Counter,
    misses: Counter,
}

impl MuxPool {
    /// Pool with standalone hit/miss counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pool whose hit/miss counters live in `registry` as
    /// `ninf_client_pool_hits_total` / `ninf_client_pool_misses_total`.
    pub fn with_metrics(registry: &MetricsRegistry) -> Self {
        MuxPool {
            idle: Mutex::default(),
            hits: registry.counter(
                "ninf_client_pool_hits_total",
                "Checkouts served by an idle pooled connection",
            ),
            misses: registry.counter(
                "ninf_client_pool_misses_total",
                "Checkouts that had to dial a new connection",
            ),
        }
    }

    fn take_idle(&self, addr: &str) -> Option<TcpTransport> {
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.get_mut(addr)?.pop()
    }

    /// Check out a connection to `addr`: an idle one whose peer is still
    /// there, or one dialed within `deadline`.
    pub fn checkout(
        self: &Arc<Self>,
        addr: &str,
        deadline: Option<Duration>,
    ) -> ProtocolResult<Checkout> {
        let (conn, reused) = loop {
            match self.take_idle(addr) {
                Some(mut conn) => {
                    if !conn.peer_closed() {
                        break (conn, true);
                    }
                }
                None => break (TcpTransport::connect_with_deadline(addr, deadline)?, false),
            }
        };
        if reused { &self.hits } else { &self.misses }.inc();
        Ok(Checkout {
            conn: Some(conn),
            pool: self.clone(),
            addr: addr.to_owned(),
            failed: false,
            reused,
        })
    }

    /// Total checkouts that reused an idle connection.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total checkouts that dialed a new connection.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Connections idle in the pool for `addr`.
    pub fn idle(&self, addr: &str) -> usize {
        let idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        idle.get(addr).map_or(0, Vec::len)
    }
}

/// A checked-out connection. It forwards every [`Transport`] operation to
/// the connection and goes back to its pool when dropped, unless one of
/// those operations failed.
pub struct Checkout {
    /// `None` only once dropped.
    conn: Option<TcpTransport>,
    pool: Arc<MuxPool>,
    addr: String,
    failed: bool,
    /// True when an idle connection was reused (a pool hit).
    pub reused: bool,
}

impl Checkout {
    /// Run `op` on the connection, remembering a failure.
    fn run<R>(
        &mut self,
        op: impl FnOnce(&mut TcpTransport) -> ProtocolResult<R>,
    ) -> ProtocolResult<R> {
        let conn = self.conn.as_mut().expect("held until dropped");
        let outcome = op(conn);
        self.failed |= outcome.is_err();
        outcome
    }
}

impl Transport for Checkout {
    fn recv(&mut self) -> ProtocolResult<Message> {
        self.run(|c| c.recv())
    }

    fn set_deadline(&mut self, deadline: Option<Duration>) -> ProtocolResult<bool> {
        self.run(|c| c.set_deadline(deadline))
    }

    fn send_raw(&mut self, bytes: &[u8]) -> ProtocolResult<()> {
        self.run(|c| c.send_raw(bytes))
    }

    fn stage(&mut self, encode: FrameFn<'_>) -> ProtocolResult<(u64, Vec<u8>)> {
        self.run(|c| c.stage(encode))
    }

    fn send_frame(&mut self, encode: FrameFn<'_>) -> ProtocolResult<()> {
        self.run(|c| c.send_frame(encode))
    }
}

impl Drop for Checkout {
    fn drop(&mut self) {
        let Some(conn) = self.conn.take().filter(|_| !self.failed) else {
            return;
        };
        let mut idle = self.pool.idle.lock().unwrap_or_else(|e| e.into_inner());
        let kept = idle.entry(std::mem::take(&mut self.addr)).or_default();
        if kept.len() < MAX_IDLE_PER_ADDR {
            kept.push(conn);
        }
    }
}

/// Process-wide pool for CLI tools: every `ninf-call`/`repro` invocation in
/// one process shares connections through this.
pub fn global_pool() -> &'static Arc<MuxPool> {
    static POOL: OnceLock<Arc<MuxPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(MuxPool::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ninf_protocol::{read_frame_mux, write_frame_mux, Arg};
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

    fn ping(h: &mut Checkout) {
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
        let pool = Arc::new(MuxPool::new());

        let mut first = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(!first.reused);
        ping(&mut first);
        // Held, it cannot be handed out again.
        let mut beside = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(!beside.reused, "a checked-out connection is nobody else's");
        ping(&mut beside);
        drop(first);
        assert_eq!(pool.idle(&addr), 1, "given back");

        let mut second = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(second.reused, "an idle connection must be reused");
        ping(&mut second);

        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 2);
        drop((second, beside));
        assert_eq!(pool.idle(&addr), 2);
        server.shutdown();
    }

    #[test]
    fn dead_stream_is_evicted_and_redialed() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let pool = Arc::new(MuxPool::new());

        // A connection an operation failed on never goes back.
        let mut co = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        co.set_deadline(Some(Duration::from_millis(20))).unwrap();
        assert!(co.recv().unwrap_err().is_timeout());
        drop(co);
        assert_eq!(pool.idle(&addr), 0, "a failed connection is not kept");
        server.shutdown();

        // A peer that answers one request per connection, then closes it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (closed_tx, closed) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let (id, _) = read_frame_mux(&mut s).unwrap();
                let reply = Message::ResultData { results: vec![] };
                write_frame_mux(&mut s, id, &reply).unwrap();
                drop(s);
                closed_tx.send(()).unwrap();
            }
        });
        let mut co = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        ping(&mut co);
        drop(co);
        assert_eq!(pool.idle(&addr), 1, "given back");
        closed.recv().unwrap();
        // Its peer closed it, so checkout reads end of stream and dials.
        let mut fresh = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        assert!(!fresh.reused, "a closed connection must not be handed out");
        ping(&mut fresh);
        assert_eq!((pool.hits(), pool.misses()), (0, 3));
        assert_eq!(pool.idle(&addr), 0);
        peer.join().unwrap();
    }

    #[test]
    fn the_pool_keeps_at_most_the_idle_cap_per_address() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let pool = Arc::new(MuxPool::new());
        let held: Vec<Checkout> = (0..MAX_IDLE_PER_ADDR + 3)
            .map(|_| pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap())
            .collect();
        assert_eq!(pool.misses(), MAX_IDLE_PER_ADDR as u64 + 3);
        drop(held);
        assert_eq!(pool.idle(&addr), MAX_IDLE_PER_ADDR, "the rest closed");
        server.shutdown();
    }

    #[test]
    fn metrics_backed_pool_exposes_counters() {
        let server = echo_server();
        let addr = server.local_addr().to_string();
        let registry = MetricsRegistry::new();
        let pool = Arc::new(MuxPool::with_metrics(&registry));
        drop(pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap());
        let _b = pool.checkout(&addr, Some(Duration::from_secs(5))).unwrap();
        let text = registry.render_prometheus();
        assert!(text.contains("ninf_client_pool_hits_total 1"), "{text}");
        assert!(text.contains("ninf_client_pool_misses_total 1"), "{text}");
        server.shutdown();
    }
}
