//! Regression: a connection an attempt failed on is never used again.
//!
//! A scripted peer answers the first `Invoke` only after the client's
//! deadline and refuses every redial. Before the dial moved inside the retry
//! loop, the failed reconnect left the timed-out transport in place, the
//! late reply stayed queued on it, and the *next* call read it as its own —
//! same shape, wrong numbers, no error. Now the transport is dropped where
//! it failed, so the next call dials anew and either gets its own answer or
//! a typed error.

use std::net::TcpListener;
use std::time::Duration;

use ninf_client::{CallOptions, NinfClient};
use ninf_protocol::{read_frame_mux, write_frame_mux, Message, Value};

/// `ep`-shaped results whose every number is the request's own `m`.
fn tagged(m: i32) -> Vec<Value> {
    vec![
        Value::DoubleArray(vec![f64::from(m); 2]),
        Value::DoubleArray(vec![f64::from(m); 10]),
    ]
}

#[test]
fn a_late_reply_never_answers_the_next_call() {
    let deadline = Duration::from_millis(200);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut wire, _) = listener.accept().unwrap();
        drop(listener); // every redial is refused from here on
        let mut invokes = 0;
        // Each reply echoes its request's call id, as the server's do.
        while let Ok((id, msg)) = read_frame_mux(&mut wire) {
            let reply = match msg {
                Message::QueryInterface { .. } => Message::InterfaceReply {
                    interface: ninf_idl::stdlib_interfaces()
                        .into_iter()
                        .find(|i| i.name == "ep")
                        .unwrap(),
                },
                Message::Invoke { args, .. } => {
                    invokes += 1;
                    if invokes == 1 {
                        std::thread::sleep(deadline + Duration::from_millis(150));
                    }
                    let ninf_protocol::Arg::Data(Value::Int(m)) = args[0] else {
                        panic!("ep takes an inline int")
                    };
                    Message::ResultData { results: tagged(m) }
                }
                other => panic!("unscripted request {other:?}"),
            };
            if write_frame_mux(&mut wire, id, &reply).is_err() {
                break;
            }
        }
    });

    let mut client = NinfClient::connect_with(
        &addr,
        CallOptions {
            deadline: Some(deadline),
            retries: 1,
            backoff: Duration::from_millis(10),
            ..CallOptions::default()
        },
    )
    .unwrap();
    // Attempt 0 times out, the redial is refused: a typed failure.
    client.ninf_call("ep", &[Value::Int(1)]).unwrap_err();
    // Same routine, same result shapes, different argument. Whatever this
    // returns, it must not be the reply to the call before it.
    match client.ninf_call("ep", &[Value::Int(2)]) {
        Ok(out) => assert_eq!(out, tagged(2)),
        Err(e) => assert!(e.is_retryable(), "expected a transport error, got {e}"),
    }
    drop(client);
    peer.join().unwrap();
}
