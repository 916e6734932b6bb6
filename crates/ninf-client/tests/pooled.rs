//! Live tests of the pooled client path: connections checked out, given
//! back and checked out again, against a real reactor-core server.

use std::sync::Arc;
use std::time::Duration;

use ninf_client::{Call, CallOptions, NinfClient};
use ninf_protocol::Value;
use ninf_reactor::MuxPool;
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
    let pool = Arc::new(MuxPool::new());

    let mut first = NinfClient::connect_pooled(&addr, opts(), pool.clone()).unwrap();
    assert!(!first.stream_reused(), "first checkout must dial");
    first.ninf_call("ep", &[Value::Int(4)]).unwrap();

    drop(first);
    let mut second = NinfClient::connect_pooled(&addr, opts(), pool.clone()).unwrap();
    assert!(second.stream_reused(), "second checkout must reuse");
    second.ninf_call("ep", &[Value::Int(4)]).unwrap();
    // Released, the connection is idle again; the next operation checks
    // it out anew.
    second.release();
    assert_eq!(pool.idle(&addr), 1);
    second.ninf_call("ep", &[Value::Int(4)]).unwrap();

    assert_eq!(pool.hits(), 2);
    assert_eq!(pool.misses(), 1);
    server.shutdown();
}

#[test]
fn pooled_async_calls_complete_concurrently() {
    let server = start_server();
    let addr = server.addr().to_string();
    let pool = Arc::new(MuxPool::new());

    // Two waves of six concurrent calls: each call holds a connection of
    // its own and gives it back when done, so the second wave reuses the
    // first wave's.
    for _ in 0..2 {
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
    }
    assert_eq!(pool.hits() + pool.misses(), 12);
    assert!(pool.hits() >= 6, "fan-out must reuse pooled connections");
    assert!(pool.idle(&addr) <= 6);
    server.shutdown();
}

#[test]
fn retry_after_server_restart_lands_on_a_fresh_stream() {
    let server = start_server();
    let addr = server.addr().to_string();
    let pool = Arc::new(MuxPool::new());

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

    // Kill the server: the pooled connection dies underneath the client.
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

    // The retry path must drop the dead connection and re-check-out.
    client.ninf_call("ep", &[Value::Int(4)]).unwrap();
    assert!(pool.misses() >= 2, "reconnect must dial a fresh connection");
    server2.shutdown();
}
