//! The database side of Ninf: run a numerical database server, `Ninf_query`
//! it for a matrix, and feed the result to a computational server — the
//! two-server pipeline of §2's Figure 1.
//!
//! ```text
//! cargo run --example numerical_db
//! ```

use ninf::client::NinfClient;
use ninf::db::{builtin_datasets, DbServer};
use ninf::protocol::Value;
use ninf::server::{builtin::register_stdlib, NinfServer, Registry, ServerConfig};

fn main() {
    // --- the database server, loaded with constants and test matrices.
    let db = DbServer::start("127.0.0.1:0", builtin_datasets()).expect("db server");
    let db_addr = db.addr().to_string();
    println!("Ninf database server at {db_addr}");

    // --- the computational server.
    let mut registry = Registry::new();
    register_stdlib(&mut registry, false);
    let compute =
        NinfServer::start("127.0.0.1:0", registry, ServerConfig::default()).expect("compute");
    println!("Ninf computational server at {}", compute.addr());

    // --- browse the database.
    let mut db_client = NinfClient::connect(&db_addr).expect("connect db");
    let (listing, _) = db_client.ninf_query("LIST").expect("LIST");
    println!("\ndatasets:\n{listing}\n");

    // --- Ninf_query: fetch the Hilbert matrix (ill-conditioned test case).
    let n = 8usize;
    let (desc, values) = db_client.ninf_query("GET matrix/hilbert8").expect("GET");
    println!("fetched: {desc}");
    let Value::DoubleArray(h) = &values[1] else {
        unreachable!()
    };

    // --- Ninf_call: factor + solve it remotely.
    let b: Vec<f64> = {
        // b = H * ones so the true solution is all-ones.
        let m = ninf::exec::Matrix::from_col_major(n, n, h.clone());
        m.matvec(&vec![1.0; n])
    };
    let mut client = NinfClient::connect(&compute.addr().to_string()).expect("connect");
    let results = client
        .ninf_call(
            "linpack",
            &[
                Value::Int(n as i32),
                Value::DoubleArray(h.clone()),
                Value::DoubleArray(b),
            ],
        )
        .expect("linpack");
    let Value::DoubleArray(x) = &results[0] else {
        unreachable!()
    };
    let max_err = x.iter().map(|xi| (xi - 1.0).abs()).fold(0.0f64, f64::max);
    println!(
        "solved hilbert{n} remotely: max |x_i - 1| = {max_err:.2e} \
         (large-ish — Hilbert matrices are brutally ill-conditioned)"
    );

    // --- sub-matrix queries ship only what you need.
    let (desc, values) = db_client
        .ninf_query("GET matrix/linpack100 SUB 0 4 0 4")
        .expect("SUB");
    let Value::DoubleArray(block) = &values[1] else {
        unreachable!()
    };
    println!(
        "sub-matrix query: {desc} -> {} doubles (not 10000)",
        block.len()
    );

    compute.shutdown();
    db.shutdown();
}
