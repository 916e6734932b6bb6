//! Task-parallel EP across a fleet of Ninf servers via the metaserver — the
//! live-system version of the paper's §4.3.1 benchmark:
//!
//! ```c
//! Ninf_transaction_begin();
//! for (i = 1; i <= numprocs(); i++) Ninf_call("ep", ...);
//! Ninf_transaction_end();
//! ```
//!
//! ```text
//! cargo run --example ep_cluster [n_servers] [m]
//! ```

use ninf::client::{Transaction, TxArg};
use ninf::exec::{ep_kernel, EpResult, EP_GAUSSIAN_BINS};
use ninf::metaserver::{Balancing, Directory, Metaserver, ServerEntry};
use ninf::protocol::Value;
use ninf::server::{builtin::register_stdlib, NinfServer, Registry, SchedPolicy, ServerConfig};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n_servers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let m: i32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);

    // --- the "Alpha cluster": one Ninf computational server per node.
    let mut directory = Directory::new();
    let servers: Vec<NinfServer> = (0..n_servers)
        .map(|i| {
            let mut registry = Registry::new();
            register_stdlib(&mut registry, false);
            let server = NinfServer::start(
                "127.0.0.1:0",
                registry,
                ServerConfig {
                    pes: 1,
                    policy: SchedPolicy::Fcfs,
                    ..Default::default()
                },
            )
            .expect("start server");
            directory.register(ServerEntry {
                name: format!("alpha{i:02}"),
                addr: server.addr().to_string(),
                bandwidth_bytes_per_sec: 10e6,
                linpack_mflops: 140.0,
            });
            server
        })
        .collect();
    println!("cluster up: {n_servers} Ninf servers");

    // --- record the transaction: n_servers independent EP calls.
    let meta = Metaserver::new(directory, Balancing::RoundRobin);
    let mut tx = Transaction::new();
    let mut slots = Vec::new();
    for _ in 0..n_servers {
        let sums = tx.slot();
        let counts = tx.slot();
        tx.call(
            "ep",
            vec![TxArg::Value(Value::Int(m))],
            vec![Some(sums), Some(counts)],
        );
        slots.push((sums, counts));
    }
    let levels = tx.dependency_levels().expect("acyclic");
    println!(
        "transaction: {} calls, {} dependency level(s) -> all task-parallel",
        tx.calls().len(),
        levels.len()
    );

    // --- distributed run.
    let t0 = Instant::now();
    let results = meta.execute_transaction(&tx).expect("transaction");
    let distributed = t0.elapsed();

    // Merge the O(1)-sized partial results.
    let mut merged = EpResult {
        sx: 0.0,
        sy: 0.0,
        counts: [0; EP_GAUSSIAN_BINS],
        accepted: 0,
        trials: 0,
    };
    for &(sums, counts) in &slots {
        let Some(Value::DoubleArray(s)) = &results[sums.0] else {
            panic!("missing sums")
        };
        let Some(Value::DoubleArray(c)) = &results[counts.0] else {
            panic!("missing counts")
        };
        merged.sx += s[0];
        merged.sy += s[1];
        for (dst, src) in merged.counts.iter_mut().zip(c) {
            *dst += *src as u64;
        }
    }
    merged.accepted = merged.counts.iter().sum();
    merged.trials = (n_servers as u64) << m;

    // --- local single-node run for the speedup figure.
    let t1 = Instant::now();
    let local = ep_kernel(m as u32);
    let local_time = t1.elapsed();

    println!(
        "distributed: {n_servers} x 2^{m} trials in {distributed:?}  (sx={:.3}, sy={:.3}, accepted={})",
        merged.sx, merged.sy, merged.accepted
    );
    println!(
        "local      : 1 x 2^{m} trials in {local_time:?}        (accepted={})",
        local.accepted
    );
    println!(
        "acceptance rate {:.4} (pi/4 = {:.4}); annuli counts: {:?}",
        merged.accepted as f64 / merged.trials as f64,
        std::f64::consts::FRAC_PI_4,
        merged.counts
    );

    for s in servers {
        s.shutdown();
    }
}
