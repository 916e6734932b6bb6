//! A live miniature of Figure 3: sweep the Linpack size and compare *local*
//! solves on this machine against remote `Ninf_call`s over real TCP
//! (loopback), printing observed Mflops and the transfer volume.
//!
//! ```text
//! cargo run --release --example remote_linpack [max_n]
//! ```

use ninf::client::NinfClient;
use ninf::exec::{linpack_flops, linpack_message_bytes, matgen, solve};
use ninf::protocol::Value;
use ninf::server::{builtin::register_stdlib, NinfServer, Registry, SchedPolicy, ServerConfig};
use std::time::Instant;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(600);

    // The data-parallel flavour: every call holds all 4 PEs and its blocked
    // LU runs on them (the paper's 4-PE libSci rows).
    let mut registry = Registry::new();
    register_stdlib(&mut registry, /* data_parallel = */ true);
    let server = NinfServer::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            pes: 4,
            policy: SchedPolicy::Fcfs,
            ..Default::default()
        },
    )
    .expect("start server");
    let mut client = NinfClient::connect(&server.addr().to_string()).expect("connect");

    println!(
        "{:>6} {:>14} {:>14} {:>12}",
        "n", "local Mflops", "ninf Mflops", "bytes moved"
    );
    let mut n = 100usize;
    while n <= max_n {
        // Local solve.
        let (orig, b) = matgen(n);
        let mut a = orig.clone();
        let mut rhs = b.clone();
        let t0 = Instant::now();
        let x_local = solve(&mut a, &mut rhs).expect("non-singular");
        let t_local = t0.elapsed().as_secs_f64();

        // Remote Ninf_call (two-stage RPC, full marshalling, loopback TCP).
        let t1 = Instant::now();
        let results = client
            .ninf_call(
                "linpack",
                &[
                    Value::Int(n as i32),
                    Value::DoubleArray(orig.as_slice().to_vec()),
                    Value::DoubleArray(b.clone()),
                ],
            )
            .expect("remote linpack");
        let t_remote = t1.elapsed().as_secs_f64();

        let Value::DoubleArray(x_remote) = &results[0] else {
            unreachable!()
        };
        let max_dev = x_local
            .iter()
            .zip(x_remote)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_dev < 1e-8,
            "local and remote solutions must agree (dev {max_dev})"
        );

        let flops = linpack_flops(n as u64) as f64;
        println!(
            "{n:>6} {:>14.1} {:>14.1} {:>12}",
            flops / t_local / 1e6,
            flops / t_remote / 1e6,
            linpack_message_bytes(n as u64)
        );
        n *= 2;
    }
    println!(
        "total payload: {} bytes sent, {} received — loopback has no 0.17 MB/s WAN link, \
         so remote ≈ local minus marshalling; see `wan_study` for the modelled WAN",
        client.bytes_sent(),
        client.bytes_received()
    );
    server.shutdown();
}
