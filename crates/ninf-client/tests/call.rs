//! `Call`: the dial happens inside the retry loop, so a server that is not
//! up yet is retried like one that failed mid-call — on a direct connection
//! and through a pool. `Ninf_query` and the two-phase call run in the same
//! loop, so their deadlines hold against a silent server.

use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ninf_client::{Call, CallOptions, NinfClient};
use ninf_protocol::{ProtocolError, Value};
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

/// A database "server" that accepts and never replies: the query fails with
/// a typed timeout inside its deadline instead of hanging.
#[test]
fn ninf_query_against_a_silent_server_times_out() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let silent = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Swallow the query; EOF comes when the client gives up.
        let _ = stream.read_to_end(&mut Vec::new());
    });
    let deadline = Duration::from_millis(300);
    let mut client = NinfClient::connect_with(&addr, CallOptions::with_deadline(deadline)).unwrap();
    let t0 = Instant::now();
    let outcome = client.ninf_query("LIST");
    let took = t0.elapsed();
    assert!(
        matches!(outcome, Err(ProtocolError::Timeout { .. })),
        "expected a typed timeout, got {outcome:?}"
    );
    assert!(took < deadline * 4, "the deadline did not hold: {took:?}");
    drop(client);
    silent.join().unwrap();
}

/// A server that accepts and never replies: a two-phase call's submit
/// fails with a typed timeout inside its deadline instead of hanging. The
/// call runs on its own thread, so a hang fails the test rather than
/// stalling it.
#[test]
fn two_phase_against_a_silent_server_times_out() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let silent = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let _ = stream.read_to_end(&mut Vec::new());
    });
    let deadline = Duration::from_millis(300);
    let call = Call {
        options: CallOptions::with_deadline(deadline),
        ..Call::new(addr.as_str(), "ep", vec![Value::Int(6)])
    };
    let (tx, rx) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        let _ = tx.send(call.two_phase(Duration::from_millis(5)));
    });
    let outcome = rx
        .recv_timeout(deadline * 4)
        .expect("the two-phase call hung past four deadlines");
    assert!(
        matches!(outcome, Err(ProtocolError::Timeout { .. })),
        "expected a typed timeout, got {outcome:?}"
    );
    caller.join().unwrap();
    silent.join().unwrap();
}
