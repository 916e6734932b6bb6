//! Quickstart: start a Ninf computational server, make `Ninf_call`s against
//! it over real TCP, exactly like the paper's §2.2 example.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ninf::client::{call_async, NinfClient};
use ninf::protocol::Value;
use ninf::server::{builtin::register_stdlib, NinfServer, Registry, ServerConfig};

fn main() {
    // --- server side: register the stdlib routines (dmmul, dgefa, dgesl,
    // linpack, ep, dos) and start serving. The data-parallel flavour
    // declares every routine all-PE: each call holds the default config's
    // 4 PEs and runs its kernel on them.
    let mut registry = Registry::new();
    register_stdlib(&mut registry, /* data_parallel = */ true);
    let server =
        NinfServer::start("127.0.0.1:0", registry, ServerConfig::default()).expect("bind server");
    let addr = server.addr().to_string();
    println!("Ninf computational server up at {addr}");

    // --- client side: Ninf_call("dmmul", n, A, B, C) — the §2 running
    // example. No stubs or headers: the server ships its compiled IDL.
    let mut client = NinfClient::connect(&addr).expect("connect");
    let n = 3usize;
    // Column-major A = diag(2), B = ones.
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        a[i * n + i] = 2.0;
    }
    let b = vec![1.0; n * n];
    let results = client
        .ninf_call(
            "dmmul",
            &[
                Value::Int(n as i32),
                Value::DoubleArray(a),
                Value::DoubleArray(b),
            ],
        )
        .expect("dmmul");
    let Value::DoubleArray(c) = &results[0] else {
        unreachable!()
    };
    println!("dmmul: diag(2) x ones = {c:?} (all 2s)");

    // --- a dense solve: linpack(n, A, b) -> (x, ipvt).
    let n = 300usize;
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
        .expect("linpack");
    let Value::DoubleArray(x) = &results[0] else {
        unreachable!()
    };
    let max_err = x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0f64, f64::max);
    println!(
        "linpack n={n}: solved {} unknowns remotely, max |x_i - 1| = {max_err:.2e}",
        x.len()
    );
    println!(
        "shipped {} bytes out / {} bytes back (paper model: 8n^2+20n = {})",
        client.bytes_sent(),
        client.bytes_received(),
        8 * n * n + 20 * n
    );

    // --- Ninf_call_async: overlap two EP batches.
    let ep1 = call_async(addr.clone(), "ep".into(), vec![Value::Int(18)]);
    let ep2 = call_async(addr.clone(), "ep".into(), vec![Value::Int(18)]);
    let (r1, r2) = (ep1.wait().expect("ep1"), ep2.wait().expect("ep2"));
    let Value::DoubleArray(counts1) = &r1[1] else {
        unreachable!()
    };
    let Value::DoubleArray(counts2) = &r2[1] else {
        unreachable!()
    };
    let accepted: f64 = counts1.iter().chain(counts2).sum();
    println!(
        "async EP: 2 x 2^18 trials, acceptance rate = {:.4} (pi/4 = {:.4})",
        accepted / (2.0 * (1 << 18) as f64),
        std::f64::consts::FRAC_PI_4
    );

    // --- server-side accounting: the §4.1 lifecycle timestamps.
    for rec in server.stats().snapshot() {
        println!(
            "  call {:<8} n={:<6} response={:.4}s wait={:.4}s service={:.3}s",
            rec.routine,
            rec.n.map(|v| v.to_string()).unwrap_or_default(),
            rec.response(),
            rec.wait(),
            rec.service()
        );
    }
    server.shutdown();
}
