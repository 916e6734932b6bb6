//! Live tests of the pooled client path: checked-out multiplexed streams
//! against a real reactor-core server.

use std::sync::Arc;
use std::time::Duration;

use ninf_client::{Call, CallOptions, NinfClient};
use ninf_protocol::Value;
use ninf_reactor::{MuxPool, PoolConfig};
use ninf_server::{builtin::register_stdlib, NinfServer, Registry, ServerConfig};

fn start_server() -> NinfServer {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    NinfServer::start("127.0.0.1:0", registry, ServerConfig::default()).unwrap()
}

fn opts() -> CallOptions {
    CallOptions::with_deadline(Duration::from_secs(10))
}

#[test]
fn second_pooled_client_reuses_the_stream() {
    let server = start_server();
    let addr = server.addr().to_string();
    let pool = Arc::new(MuxPool::default());

    let mut first = NinfClient::connect_pooled(&addr, opts(), pool.clone()).unwrap();
    assert!(!first.stream_reused(), "first checkout must dial");
    first.ninf_call("ep", &[Value::Int(4)]).unwrap();

    let mut second = NinfClient::connect_pooled(&addr, opts(), pool.clone()).unwrap();
    assert!(second.stream_reused(), "second checkout must reuse");
    second.ninf_call("ep", &[Value::Int(4)]).unwrap();

    assert_eq!(pool.hits(), 1);
    assert_eq!(pool.misses(), 1);
    assert_eq!(pool.open_streams(&addr), 1);
    server.shutdown();
}

#[test]
fn pooled_clients_share_one_stream_across_threads() {
    let server = start_server();
    let addr = server.addr().to_string();
    let pool = Arc::new(MuxPool::new(PoolConfig {
        max_streams_per_addr: 1,
        ..PoolConfig::default()
    }));

    let threads: Vec<_> = (0..8)
        .map(|_| {
            let addr = addr.clone();
            let pool = pool.clone();
            std::thread::spawn(move || {
                let mut c = NinfClient::connect_pooled(&addr, opts(), pool).unwrap();
                for _ in 0..4 {
                    let out = c.ninf_call("ep", &[Value::Int(4)]).unwrap();
                    assert!(!out.is_empty());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(pool.misses(), 1, "all clients share one dialed stream");
    assert_eq!(pool.hits(), 7);
    server.shutdown();
}

#[test]
fn pooled_async_calls_complete_concurrently() {
    let server = start_server();
    let addr = server.addr().to_string();
    let pool = Arc::new(MuxPool::default());

    let calls: Vec<_> = (0..6)
        .map(|_| {
            Call {
                options: opts(),
                pool: Some(pool.clone()),
                ..Call::new(addr.as_str(), "ep", vec![Value::Int(4)])
            }
            .spawn()
        })
        .collect();
    for call in calls {
        call.wait().unwrap();
    }
    assert!(pool.hits() >= 4, "fan-out must reuse pooled streams");
    server.shutdown();
}

#[test]
fn retry_after_server_restart_lands_on_a_fresh_stream() {
    let server = start_server();
    let addr = server.addr().to_string();
    let pool = Arc::new(MuxPool::default());

    let mut client = NinfClient::connect_pooled(
        &addr,
        CallOptions {
            deadline: Some(Duration::from_secs(10)),
            retries: 3,
            backoff: Duration::from_millis(10),
            ..CallOptions::default()
        },
        pool.clone(),
    )
    .unwrap();
    client.ninf_call("ep", &[Value::Int(4)]).unwrap();

    // Kill the server: the pooled stream dies underneath the client.
    let port: u16 = addr.rsplit(':').next().unwrap().parse().unwrap();
    server.shutdown();
    let server2 = {
        // The old port may linger in TIME_WAIT; retry the bind briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match NinfServer::start(
                &format!("127.0.0.1:{port}"),
                {
                    let mut r = Registry::new();
                    register_stdlib(&mut r, false);
                    r
                },
                ServerConfig::default(),
            ) {
                Ok(s) => break s,
                Err(e) if std::time::Instant::now() < deadline => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("rebind failed: {e}"),
            }
        }
    };

    // The retry path must evict the dead stream and re-check-out.
    client.ninf_call("ep", &[Value::Int(4)]).unwrap();
    assert!(pool.misses() >= 2, "reconnect must dial a fresh stream");
    server2.shutdown();
}
