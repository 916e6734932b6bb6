//! Cross-crate integration tests of the *live* Ninf system: real TCP, real
//! XDR marshalling, real numerical kernels, metaserver fan-out.

use std::time::{Duration, Instant};

use ninf::client::{call_async, Call, CallOptions, NinfClient, Transaction, TxArg};
use ninf::metaserver::{Balancing, Directory, Metaserver, ServerEntry, QUARANTINE_THRESHOLD};
use ninf::protocol::{
    LinkShape, LinkTransport, Message, ProtocolError, TcpTransport, Transport, Value,
};
use ninf::server::{
    builtin::register_stdlib, ExecMode, NinfServer, Registry, SchedPolicy, ServerConfig,
};

fn start_server(pes: usize, mode: ExecMode) -> NinfServer {
    let mut registry = Registry::new();
    register_stdlib(&mut registry, matches!(mode, ExecMode::DataParallel));
    NinfServer::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            pes,
            mode,
            policy: SchedPolicy::Fcfs,
            ..Default::default()
        },
    )
    .expect("server starts")
}

#[test]
fn full_linpack_call_over_tcp() {
    let server = start_server(2, ExecMode::TaskParallel);
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();

    let n = 64usize;
    let (a, b) = ninf::exec::matgen(n);
    let results = client
        .ninf_call(
            "linpack",
            &[
                Value::Int(n as i32),
                Value::DoubleArray(a.as_slice().to_vec()),
                Value::DoubleArray(b.clone()),
            ],
        )
        .unwrap();

    // Remote solution must match a local solve and the residual must pass.
    let Value::DoubleArray(x) = &results[0] else {
        panic!("expected solution")
    };
    assert!(ninf::exec::residual_check(&a, x, &b) < 50.0);

    // Client-side byte accounting equals the paper's §3.1 traffic model:
    // A (8n²) + b (8n) out, x (8n) + ipvt (4n) back = 8n² + 20n in total.
    assert_eq!(
        client.bytes_sent() + client.bytes_received(),
        8 * n * n + 20 * n
    );
    server.shutdown();
}

#[test]
fn byte_accounting_matches_paper_formula_exactly() {
    let server = start_server(1, ExecMode::TaskParallel);
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    let n = 40usize;
    let (a, b) = ninf::exec::matgen(n);
    client
        .ninf_call(
            "linpack",
            &[
                Value::Int(n as i32),
                Value::DoubleArray(a.as_slice().to_vec()),
                Value::DoubleArray(b),
            ],
        )
        .unwrap();
    // 8n^2 + 8n out; 12n back: total 8n^2 + 20n (§3.1).
    assert_eq!(client.bytes_sent(), 8 * n * n + 8 * n);
    assert_eq!(client.bytes_received(), 12 * n);
    server.shutdown();
}

#[test]
fn dgefa_dgesl_split_call_chain() {
    let server = start_server(2, ExecMode::TaskParallel);
    let addr = server.addr().to_string();
    let mut client = NinfClient::connect(&addr).unwrap();
    let n = 32usize;
    let (a, b) = ninf::exec::matgen(n);

    let fa = client
        .ninf_call(
            "dgefa",
            &[
                Value::Int(n as i32),
                Value::DoubleArray(a.as_slice().to_vec()),
            ],
        )
        .unwrap();
    let Value::IntArray(info) = &fa[2] else {
        panic!()
    };
    assert_eq!(info[0], 0);

    let sl = client
        .ninf_call(
            "dgesl",
            &[
                Value::Int(n as i32),
                fa[0].clone(),
                fa[1].clone(),
                Value::DoubleArray(b),
            ],
        )
        .unwrap();
    let Value::DoubleArray(x) = &sl[0] else {
        panic!()
    };
    for xi in x {
        assert!((xi - 1.0).abs() < 1e-8);
    }
    server.shutdown();
}

#[test]
fn async_calls_overlap_and_join() {
    let server = start_server(4, ExecMode::TaskParallel);
    let addr = server.addr().to_string();
    let pending: Vec<_> = (0..4)
        .map(|_| call_async(addr.clone(), "ep".into(), vec![Value::Int(12)]))
        .collect();
    for call in pending {
        let out = call.wait().unwrap();
        let Value::DoubleArray(counts) = &out[1] else {
            panic!()
        };
        assert_eq!(counts.len(), 10);
    }
    assert_eq!(server.stats().completed(), 4);
    server.shutdown();
}

#[test]
fn metaserver_distributes_ep_transaction() {
    let servers: Vec<NinfServer> = (0..3)
        .map(|_| start_server(1, ExecMode::TaskParallel))
        .collect();
    let mut dir = Directory::new();
    for (i, s) in servers.iter().enumerate() {
        dir.register(ServerEntry {
            name: format!("node{i}"),
            addr: s.addr().to_string(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
    }
    let meta = Metaserver::new(dir, Balancing::RoundRobin);

    let mut tx = Transaction::new();
    for _ in 0..9 {
        let sums = tx.slot();
        let counts = tx.slot();
        tx.call(
            "ep",
            vec![TxArg::Value(Value::Int(10))],
            vec![Some(sums), Some(counts)],
        );
    }
    let slots = meta.execute_transaction(&tx).unwrap();
    assert_eq!(slots.iter().filter(|s| s.is_some()).count(), 18);
    // Round-robin: 3 calls each.
    for s in &servers {
        assert_eq!(s.stats().completed(), 3);
    }
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn transaction_dataflow_across_servers() {
    // dgefa on one server, dgesl potentially on another: slots carry the
    // factored matrix between machines.
    let servers: Vec<NinfServer> = (0..2)
        .map(|_| start_server(1, ExecMode::TaskParallel))
        .collect();
    let mut dir = Directory::new();
    for (i, s) in servers.iter().enumerate() {
        dir.register(ServerEntry {
            name: format!("node{i}"),
            addr: s.addr().to_string(),
            bandwidth_bytes_per_sec: 10e6,
            linpack_mflops: 100.0,
        });
    }
    let meta = Metaserver::new(dir, Balancing::RoundRobin);

    let n = 24usize;
    let (a, b) = ninf::exec::matgen(n);
    let mut tx = Transaction::new();
    let lu = tx.slot();
    let piv = tx.slot();
    tx.call(
        "dgefa",
        vec![
            TxArg::Value(Value::Int(n as i32)),
            TxArg::Value(Value::DoubleArray(a.as_slice().to_vec())),
        ],
        vec![Some(lu), Some(piv), None],
    );
    let x = tx.slot();
    tx.call(
        "dgesl",
        vec![
            TxArg::Value(Value::Int(n as i32)),
            TxArg::Ref(lu),
            TxArg::Ref(piv),
            TxArg::Value(Value::DoubleArray(b)),
        ],
        vec![Some(x)],
    );
    let slots = meta.execute_transaction(&tx).unwrap();
    let Some(Value::DoubleArray(sol)) = &slots[x.0] else {
        panic!()
    };
    for xi in sol {
        assert!((xi - 1.0).abs() < 1e-8);
    }
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn server_survives_bad_clients() {
    // A client that sends garbage arguments, then a well-formed call: the
    // server must keep serving (the paper's fault-resiliency requirement).
    let server = start_server(1, ExecMode::TaskParallel);
    let addr = server.addr().to_string();

    let mut bad = NinfClient::connect(&addr).unwrap();
    let err = bad.ninf_call("linpack", &[Value::Int(-3)]).unwrap_err();
    assert!(matches!(err, ProtocolError::Remote(_)));

    let mut good = NinfClient::connect(&addr).unwrap();
    let out = good.ninf_call("ep", &[Value::Int(8)]).unwrap();
    assert_eq!(out.len(), 2);
    server.shutdown();
}

#[test]
fn two_phase_call_survives_disconnect() {
    // §5.1: submit, drop the connection while the server computes, then poll
    // and fetch from fresh connections.
    let server = start_server(2, ExecMode::TaskParallel);
    let addr = server.addr().to_string();

    let job = {
        let mut submitter = NinfClient::connect(&addr).unwrap();
        submitter.submit_job("ep", &[Value::Int(16)]).unwrap()
        // connection dropped here
    };
    // The server-side table tracks the job even with no connection open.
    server.jobs().wait_done(job);

    let mut fetcher = NinfClient::connect(&addr).unwrap();
    assert_eq!(
        fetcher.poll_job(job).unwrap(),
        ninf::protocol::JobPhase::Done
    );
    let results = fetcher.fetch_result(job).unwrap();
    let Value::DoubleArray(counts) = &results[1] else {
        panic!()
    };
    let total: f64 = counts.iter().sum();
    assert!((total / (1 << 16) as f64 - std::f64::consts::FRAC_PI_4).abs() < 0.02);
    // The ticket is consumed.
    assert_eq!(
        fetcher.poll_job(job).unwrap(),
        ninf::protocol::JobPhase::Unknown
    );
    server.shutdown();
}

#[test]
fn two_phase_blocking_helper() {
    let server = start_server(1, ExecMode::TaskParallel);
    let addr = server.addr().to_string();
    let results = ninf::client::Call::new(addr, "ep", vec![Value::Int(14)])
        .two_phase(std::time::Duration::from_millis(5))
        .unwrap();
    assert_eq!(results.len(), 2);
    server.shutdown();
}

#[test]
fn two_phase_reports_failures_on_fetch() {
    let server = start_server(1, ExecMode::TaskParallel);
    let addr = server.addr().to_string();
    let mut client = NinfClient::connect(&addr).unwrap();
    // Singular matrix: the failure is stored and returned at fetch time.
    let job = client
        .submit_job(
            "linpack",
            &[
                Value::Int(2),
                Value::DoubleArray(vec![1.0, 2.0, 2.0, 4.0]),
                Value::DoubleArray(vec![1.0, 1.0]),
            ],
        )
        .unwrap();
    server.jobs().wait_done(job);
    assert_eq!(
        client.poll_job(job).unwrap(),
        ninf::protocol::JobPhase::Failed
    );
    let err = client.fetch_result(job).unwrap_err();
    assert!(matches!(err, ProtocolError::Remote(_)));
    server.shutdown();
}

#[test]
fn metaserver_ft_retries_on_failure() {
    // A directory with one dead and one live server: fault-tolerant
    // transaction execution must succeed.
    let live = start_server(1, ExecMode::TaskParallel);
    let mut dir = Directory::new();
    dir.register(ServerEntry {
        name: "dead".into(),
        addr: "127.0.0.1:1".into(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    });
    dir.register(ServerEntry {
        name: "live".into(),
        addr: live.addr().to_string(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    });
    let meta = Metaserver::new(dir, Balancing::RoundRobin);
    let mut tx = Transaction::new();
    let out = tx.slot();
    tx.call(
        "ep",
        vec![TxArg::Value(Value::Int(10))],
        vec![Some(out), None],
    );
    let slots = meta.execute_transaction(&tx).unwrap();
    assert!(slots[out.0].is_some());
    live.shutdown();
}

#[test]
fn local_transaction_execution_without_metaserver() {
    let server = start_server(2, ExecMode::TaskParallel);
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();

    let n = 16usize;
    let (a, b) = ninf::exec::matgen(n);
    let mut tx = Transaction::new();
    let lu = tx.slot();
    let piv = tx.slot();
    tx.call(
        "dgefa",
        vec![
            TxArg::Value(Value::Int(n as i32)),
            TxArg::Value(Value::DoubleArray(a.as_slice().to_vec())),
        ],
        vec![Some(lu), Some(piv), None],
    );
    let x = tx.slot();
    tx.call(
        "dgesl",
        vec![
            TxArg::Value(Value::Int(n as i32)),
            TxArg::Ref(lu),
            TxArg::Ref(piv),
            TxArg::Value(Value::DoubleArray(b)),
        ],
        vec![Some(x)],
    );
    let slots = ninf::client::execute_locally(&mut client, &tx).unwrap();
    let Some(Value::DoubleArray(sol)) = &slots[x.0] else {
        panic!()
    };
    for xi in sol {
        assert!((xi - 1.0).abs() < 1e-8);
    }
    server.shutdown();
}

#[test]
fn remote_condition_estimate() {
    // dgeco over the wire: identity well-conditioned, Hilbert not.
    let server = start_server(1, ExecMode::TaskParallel);
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    let n = 8usize;
    let mut eye = vec![0.0; n * n];
    for i in 0..n {
        eye[i * n + i] = 1.0;
    }
    let out = client
        .ninf_call("dgeco", &[Value::Int(n as i32), Value::DoubleArray(eye)])
        .unwrap();
    let Value::DoubleArray(rcond) = &out[2] else {
        panic!()
    };
    assert!((rcond[0] - 1.0).abs() < 1e-9);
    server.shutdown();
}

#[test]
fn load_reports_reflect_activity() {
    let server = start_server(2, ExecMode::TaskParallel);
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    let report = client.query_load().unwrap();
    assert_eq!(report.pes, 2);
    assert_eq!(report.running, 0);
    server.shutdown();
}

/// One IDL argument check on both sides: a non-integer scalar where the
/// interface needs an integer to size its arrays is refused with the same
/// reason by the client (before anything is sent) and by the server (to a
/// peer that skips the client's check), and nothing runs.
#[test]
fn non_integer_sizing_scalar_is_refused_alike_by_client_and_server() {
    let server = start_server(2, ExecMode::TaskParallel);
    let addr = server.addr().to_string();
    let args = vec![
        Value::Double(4.0),
        Value::DoubleArray(vec![0.0; 16]),
        Value::DoubleArray(vec![0.0; 4]),
    ];

    let mut client = NinfClient::connect(&addr).unwrap();
    let client_reason = match client.ninf_call("linpack", &args) {
        Err(ProtocolError::Remote(reason)) => reason,
        other => panic!("client must refuse: {other:?}"),
    };

    let mut raw = TcpTransport::connect(&addr).unwrap();
    raw.send(&Message::Invoke {
        routine: "linpack".into(),
        args: ninf::protocol::Arg::inline(args),
        trace: None,
    })
    .unwrap();
    let server_reason = match raw.recv().unwrap() {
        Message::Error { reason } => reason,
        other => panic!("server must refuse: {other:?}"),
    };

    assert_eq!(server_reason, client_reason);
    assert!(
        server_reason.contains("must be an integer"),
        "{server_reason}"
    );
    assert_eq!(server.stats().completed(), 0, "a refused call never runs");
    server.shutdown();
}

/// A listener that accepts connections and never answers — the worst live
/// failure mode, invisible to connection-refused checks.
fn hung_listener() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((sock, _)) = listener.accept() {
            held.push(sock); // hold the socket open, say nothing
        }
    });
    addr
}

#[test]
fn silent_server_yields_typed_timeout_within_deadline() {
    // The headline failure-path guarantee: a call into an
    // accepting-but-silent server completes with a typed Timeout roughly at
    // the configured deadline — it does not hang.
    let addr = hung_listener();
    let deadline = Duration::from_millis(200);
    let mut client = NinfClient::connect_with(&addr, CallOptions::with_deadline(deadline)).unwrap();
    let start = Instant::now();
    let err = client.ninf_call("ep", &[Value::Int(8)]).unwrap_err();
    let elapsed = start.elapsed();
    match err {
        ProtocolError::Timeout { operation, after } => {
            assert_eq!(operation, "read");
            assert_eq!(after, deadline);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "took {elapsed:?}, deadline was {deadline:?}"
    );
}

#[test]
fn server_death_mid_call_yields_typed_error_not_hang() {
    // The peer accepts and immediately dies: the client's call must surface
    // a typed error (EOF → Io / Disconnected) promptly, never block.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        if let Ok((sock, _)) = listener.accept() {
            drop(sock); // "killed" before replying
        }
    });
    let mut client = NinfClient::connect_with(
        &addr,
        CallOptions::with_deadline(Duration::from_millis(500)),
    )
    .unwrap();
    let start = Instant::now();
    let err = client.ninf_call("ep", &[Value::Int(8)]).unwrap_err();
    assert!(
        matches!(
            err,
            ProtocolError::Io(_) | ProtocolError::Disconnected | ProtocolError::Timeout { .. }
        ),
        "unexpected error {err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(2));
}

#[test]
fn client_retries_reach_a_late_starting_server() {
    // The server comes up only after the first attempts have failed: the
    // retry/backoff policy dials fresh connections until one lands.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap().to_string();
    drop(probe); // free the port for the late server
    let addr2 = addr.clone();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        let mut registry = Registry::new();
        register_stdlib(&mut registry, false);
        NinfServer::start(
            &addr2,
            registry,
            ServerConfig {
                pes: 1,
                mode: ExecMode::TaskParallel,
                policy: SchedPolicy::Fcfs,
                ..Default::default()
            },
        )
        .expect("late server starts")
    });
    let out = Call {
        options: CallOptions {
            deadline: Some(Duration::from_secs(2)),
            retries: 40,
            backoff: Duration::from_millis(25),
            ..CallOptions::default()
        },
        ..Call::new(addr, "ep", vec![Value::Int(8)])
    }
    .run()
    .unwrap();
    assert_eq!(out.len(), 2);
    starter.join().unwrap().shutdown();
}

#[test]
fn garbled_frames_are_rejected_and_server_keeps_serving() {
    // A client whose frames get garbled on the wire: the server's framing
    // rejects them (bad magic) and drops the connection; the server itself
    // keeps serving clean clients afterwards.
    let server = start_server(1, ExecMode::TaskParallel);
    let addr = server.addr().to_string();

    let tcp = TcpTransport::connect_with_deadline(&addr, Some(Duration::from_millis(500))).unwrap();
    let mut garbler = LinkTransport::private(tcp, LinkShape::parse("garble=1.0").unwrap());
    garbler.send(&Message::QueryLoad).unwrap();
    // The server never answers a garbled frame — it closes the connection.
    assert!(garbler.recv().is_err());
    assert_eq!(garbler.stats().garbled, 1);

    let mut clean = NinfClient::connect(&addr).unwrap();
    assert_eq!(clean.query_load().unwrap().pes, 1);
    server.shutdown();
}

#[test]
fn dropped_requests_surface_as_read_timeouts() {
    // A lossy link swallows the request; with a read deadline armed the
    // client sees the same typed Timeout a downed link would produce.
    let server = start_server(1, ExecMode::TaskParallel);
    let addr = server.addr().to_string();
    let deadline = Duration::from_millis(150);
    let tcp = TcpTransport::connect_with_deadline(&addr, Some(deadline)).unwrap();
    let mut lossy = LinkTransport::private(tcp, LinkShape::parse("loss=1.0").unwrap());
    lossy.send(&Message::QueryLoad).unwrap(); // silently lost
    match lossy.recv().unwrap_err() {
        ProtocolError::Timeout { operation, .. } => assert_eq!(operation, "read"),
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert_eq!(lossy.stats().lost, 1);
    server.shutdown();
}

#[test]
fn quarantined_live_server_is_probed_and_reinstated() {
    let server = start_server(1, ExecMode::TaskParallel);
    let mut dir = Directory::new();
    dir.register(ServerEntry {
        name: "flaky".into(),
        addr: server.addr().to_string(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    });
    for _ in 0..QUARANTINE_THRESHOLD {
        dir.record_failure(0);
    }
    assert!(dir.is_quarantined(0));
    assert!(dir.available_indices().is_empty());
    // The server answers the reinstatement probe: back in rotation.
    assert!(dir.try_reinstate(0, Some(Duration::from_millis(500))));
    assert!(!dir.is_quarantined(0));
    assert_eq!(dir.available_indices(), vec![0]);
    server.shutdown();
}

#[test]
fn metaserver_ft_survives_hung_server_live() {
    // Acceptance: execute_transaction succeeds against a directory
    // containing a hung (accepting-but-silent) server, not just a
    // connection-refusing one.
    let live = start_server(1, ExecMode::TaskParallel);
    let mut dir = Directory::new();
    dir.register(ServerEntry {
        name: "hung".into(),
        addr: hung_listener(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    });
    dir.register(ServerEntry {
        name: "live".into(),
        addr: live.addr().to_string(),
        bandwidth_bytes_per_sec: 10e6,
        linpack_mflops: 100.0,
    });
    let meta = Metaserver::with_options(
        dir,
        Balancing::RoundRobin,
        CallOptions {
            deadline: Some(Duration::from_millis(300)),
            retries: 0,
            backoff: Duration::from_millis(10),
            ..CallOptions::default()
        },
        Some(Duration::from_millis(200)),
    );
    let mut tx = Transaction::new();
    let mut outs = Vec::new();
    for _ in 0..4 {
        let sums = tx.slot();
        tx.call(
            "ep",
            vec![TxArg::Value(Value::Int(10))],
            vec![Some(sums), None],
        );
        outs.push(sums);
    }
    let start = Instant::now();
    let slots = meta.execute_transaction(&tx).unwrap();
    for s in outs {
        assert!(slots[s.0].is_some());
    }
    // Bounded: each hung attempt costs one deadline, not forever.
    assert!(start.elapsed() < Duration::from_secs(20));
    live.shutdown();
}

#[test]
fn interface_query_matches_registered_idl() {
    let server = start_server(1, ExecMode::TaskParallel);
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    let iface = client.query_interface("dmmul").unwrap();
    assert_eq!(iface.name, "dmmul");
    assert_eq!(iface.scalar_table, vec!["n"]);
    assert_eq!(iface.params.len(), 4);
    server.shutdown();
}

#[test]
fn evicted_arg_is_refilled_transparently_exactly_once() {
    // The eviction race: the client decides to send digests, the server
    // evicts the referenced values before the Invoke lands. The call must
    // still complete exactly once — the client absorbs the NeedArg, ships
    // the arrays inline, and stays within the same attempt.
    let server = start_server(2, ExecMode::TaskParallel);
    let mut client = NinfClient::connect(&server.addr().to_string()).unwrap();
    let n = 512usize;
    let (masses, pos) = ninf::exec::nbody_particles(n);
    let args = |step: i32| {
        vec![
            Value::Int(n as i32),
            Value::Int(step),
            Value::DoubleArray(masses.clone()),
            Value::DoubleArray(pos.clone()),
        ]
    };

    // Cold call ships inline and primes the store; warm call ships refs.
    client.ninf_call("nbody", &args(0)).unwrap();
    client.ninf_call("nbody", &args(1)).unwrap();
    let warm = client.last_timing().unwrap();
    assert_eq!(warm.args_refd, 2, "both arrays sent by digest");
    assert_eq!(warm.args_refilled, 0);

    // Evict behind the client's back, then call again: the client still
    // believes the server holds both digests.
    server.arg_store().clear();
    let out = client.ninf_call("nbody", &args(2)).unwrap();
    let refill = client.last_timing().unwrap();
    assert_eq!(refill.attempts, 1, "the refill is not a retry");
    assert_eq!(refill.args_refd, 2);
    assert_eq!(refill.args_refilled, 2, "both evicted arrays re-shipped");
    let expected = ninf::exec::nbody_kernel(&masses, &pos, 2).to_vec();
    assert_eq!(out, vec![Value::DoubleArray(expected)]);

    // Exactly once: three calls issued, three executions recorded.
    let (_, _, records) = client.query_stats(0).unwrap();
    assert_eq!(records.iter().filter(|r| r.routine == "nbody").count(), 3);

    // The refill re-primed the store, so the next call refs cleanly again.
    client.ninf_call("nbody", &args(3)).unwrap();
    let reprimed = client.last_timing().unwrap();
    assert_eq!(reprimed.args_refd, 2);
    assert_eq!(reprimed.args_refilled, 0);
    server.shutdown();
}
