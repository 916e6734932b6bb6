//! Registering your *own* routine on a Ninf server: write IDL, bind a
//! handler, serve it, call it — the full library-provider workflow of §2.1/§2.3.
//!
//! ```text
//! cargo run --example custom_routine
//! ```

use std::sync::Arc;

use ninf::client::NinfClient;
use ninf::protocol::Value;
use ninf::server::{NinfServer, Registry, ServerConfig};

// The interface: a 1-D convolution whose output size depends on *two*
// scalar inputs — exactly the scalar-dependent sizing Ninf IDL exists for.
const CONVOLVE_IDL: &str = r#"
    Define convolve(mode_in int n, mode_in int k,
                    mode_in double signal[n],
                    mode_in double kernel[k],
                    mode_out double out[n+k-1])
    "1-D direct convolution",
    Calls "C" conv(n, k, signal, kernel, out);
"#;

fn main() {
    // --- provider side: registry with one custom executable.
    let mut registry = Registry::new();
    registry
        .register(
            CONVOLVE_IDL,
            Arc::new(|args: &[&Value]| {
                let n = args[0].as_scalar_i64().ok_or("n must be integer")? as usize;
                let k = args[1].as_scalar_i64().ok_or("k must be integer")? as usize;
                let Value::DoubleArray(signal) = args[2] else {
                    return Err("signal must be doubles".into());
                };
                let Value::DoubleArray(kernel) = args[3] else {
                    return Err("kernel must be doubles".into());
                };
                let mut out = vec![0.0; n + k - 1];
                for (i, &s) in signal.iter().enumerate() {
                    for (j, &w) in kernel.iter().enumerate() {
                        out[i + j] += s * w;
                    }
                }
                Ok(vec![Value::DoubleArray(out)])
            }),
        )
        .expect("valid IDL");

    // Show what the stub generator would have emitted for this IDL.
    let def = ninf::idl::parse_one(CONVOLVE_IDL).expect("parses");
    println!("--- stub generator output (cargo run -p ninf-bench --bin stubgen) ---");
    for line in ninf::idl::generate_handler_stub(&def).lines().take(8) {
        println!("{line}");
    }
    println!("    ... (handler body elided; we registered a hand-written one)\n");

    let server =
        NinfServer::start("127.0.0.1:0", registry, ServerConfig::default()).expect("server");

    // --- client side: no stubs, no headers, no IDL file. The client learns
    // the layout (including the n+k-1 output size) from the server.
    let mut client = NinfClient::connect(&server.addr().to_string()).expect("connect");
    let iface = client.query_interface("convolve").expect("interface");
    println!(
        "fetched compiled interface `{}` with {} params; scalar table {:?}",
        iface.name,
        iface.params.len(),
        iface.scalar_table
    );

    let signal = vec![1.0, 2.0, 3.0, 4.0];
    let kernel = vec![0.5, 0.5];
    let results = client
        .ninf_call(
            "convolve",
            &[
                Value::Int(signal.len() as i32),
                Value::Int(kernel.len() as i32),
                Value::DoubleArray(signal.clone()),
                Value::DoubleArray(kernel.clone()),
            ],
        )
        .expect("convolve");
    let Value::DoubleArray(out) = &results[0] else {
        unreachable!()
    };
    println!("convolve({signal:?}, {kernel:?}) = {out:?}");
    assert_eq!(out, &vec![0.5, 1.5, 2.5, 3.5, 2.0]);
    println!(
        "output length n+k-1 = {} — sized by the server-shipped IDL bytecode",
        out.len()
    );
    server.shutdown();
}
