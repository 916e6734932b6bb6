//! Property coverage for call multiplexing on a client connection: under
//! arbitrary completion orders, every ticket gets exactly its own reply
//! back, and a corrupted frame taints only the connection it was written
//! to — calls in flight there fail retryably, calls on other connections to
//! the same server never notice.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use ninf_protocol::{Arg, Message, Pipelined, Transport, Value};
use ninf_reactor::{Reactor, ReactorConfig, ReactorHandle, ReactorHooks, Request, TcpTransport};
use proptest::prelude::*;

/// Echo server whose reply latency is controlled by the second argument:
/// `Invoke(ep, [tag, delay_ms])` replies `ResultData([tag])` after
/// `delay_ms` — so a proptest-chosen delay schedule scrambles completion
/// order arbitrarily relative to send order.
fn scrambling_server() -> ReactorHandle {
    let handler = Arc::new(|req: Request| match req.message {
        Message::Invoke { args, .. } => {
            if let Some(Arg::Data(Value::Int(delay_ms))) = args.get(1) {
                std::thread::sleep(Duration::from_millis(*delay_ms as u64));
            }
            Some(Message::ResultData {
                results: Arg::into_values(vec![args[0].clone()]).expect("inline"),
            })
        }
        _ => Some(Message::Error {
            reason: "unexpected".into(),
        }),
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    Reactor::start(
        listener,
        ReactorConfig {
            workers: 8,
            ..ReactorConfig::default()
        },
        handler,
        ReactorHooks::default(),
    )
    .unwrap()
}

fn invoke(tag: i32, delay_ms: i32) -> Message {
    Message::Invoke {
        routine: "ep".into(),
        args: Arg::inline(vec![Value::Int(tag), Value::Int(delay_ms)]),
        trace: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N calls open at once on one connection with arbitrary per-call
    /// delays (hence arbitrary completion order) each receive exactly their
    /// own tag back — no cross-talk, no lost replies.
    #[test]
    fn interleaved_calls_demux_to_their_callers(
        delays in proptest::collection::vec(0i32..25, 2..12),
    ) {
        let server = scrambling_server();
        let deadline = Some(Duration::from_secs(10));
        let mut conn =
            TcpTransport::connect_with_deadline(&server.local_addr().to_string(), deadline)
                .unwrap();
        let mut owed: HashMap<u64, i32> = delays
            .iter()
            .enumerate()
            .map(|(i, &delay)| (conn.post(&invoke(i as i32, delay)).unwrap(), i as i32))
            .collect();
        prop_assert_eq!(owed.len(), delays.len());
        while !owed.is_empty() {
            let (ticket, reply) = conn.recv_any(Duration::from_secs(10)).unwrap();
            let tag = owed.remove(&ticket).expect("a ticket still owed");
            prop_assert_eq!(reply, Message::ResultData { results: vec![Value::Int(tag)] });
        }
        server.shutdown();
    }

    /// A corrupted frame (arbitrary garbage bytes, at least one header's
    /// worth so the server parses and rejects it) poisons exactly the
    /// connection that carried it: the call in flight there fails with a
    /// retryable error, while a slow call in flight on a *different*
    /// connection to the same server completes normally.
    #[test]
    fn corrupted_frame_taints_only_its_stream(
        garbage in proptest::collection::vec(any::<u8>(), 32..128),
        victim_delay in 30i32..80,
    ) {
        let server = scrambling_server();
        let addr = server.local_addr().to_string();
        let deadline = Some(Duration::from_secs(10));

        let mut victim = TcpTransport::connect_with_deadline(&addr, deadline).unwrap();
        let mut bystander = TcpTransport::connect_with_deadline(&addr, deadline).unwrap();

        // One slow call in flight on each connection.
        victim.send(&invoke(1, victim_delay)).unwrap();
        bystander.send(&invoke(2, victim_delay)).unwrap();

        // Corrupt the first connection mid-flight. Force a bad magic so the
        // garbage can never be a valid frame prefix.
        let mut bytes = garbage.clone();
        bytes[0] = 0xFF;
        victim.send_raw(&bytes).unwrap();

        let err = victim.recv().unwrap_err();
        prop_assert!(err.is_retryable(), "in-flight call on the corrupted connection must fail retryably, got {err}");

        let ok = bystander.recv().unwrap();
        prop_assert_eq!(ok, Message::ResultData { results: vec![Value::Int(2)] });
        server.shutdown();
    }
}
