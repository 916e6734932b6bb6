//! `Call`: the dial happens inside the retry loop, so a server that is not
//! up yet is retried like one that failed mid-call — on a direct connection
//! and through a pool.

use std::sync::Arc;
use std::time::Duration;

use ninf_client::{Call, CallOptions};
use ninf_protocol::Value;
use ninf_reactor::MuxPool;
use ninf_server::{builtin::register_stdlib, NinfServer, Registry, ServerConfig};

/// A call to an address nothing listens on yet; a server starts there only
/// after the first dial has long been refused.
fn call_a_late_server(pool: Option<Arc<MuxPool>>) {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe);
    let late_addr = addr.clone();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let mut registry = Registry::new();
        register_stdlib(&mut registry, false);
        NinfServer::start(&late_addr, registry, ServerConfig::default()).expect("late server")
    });
    let call = Call {
        options: CallOptions {
            deadline: Some(Duration::from_secs(2)),
            retries: 40,
            backoff: Duration::from_millis(25),
            ..CallOptions::default()
        },
        pool: pool.clone(),
        ..Call::new(addr.as_str(), "ep", vec![Value::Int(6)])
    };
    assert_eq!(call.spawn().wait().unwrap().len(), 2);
    if let Some(pool) = pool {
        assert_eq!(pool.open_streams(&addr), 1, "the retry dialed the stream");
    }
    starter.join().unwrap().shutdown();
}

#[test]
fn a_refused_first_dial_is_retried() {
    call_a_late_server(None);
}

#[test]
fn a_refused_first_checkout_is_retried() {
    call_a_late_server(Some(Arc::new(MuxPool::default())));
}
