//! The live TCP database server, served by the reactor.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use ninf_protocol::{Message, ProtocolResult};
use ninf_reactor::{Handler, Reactor, ReactorConfig, ReactorHandle, ReactorHooks, Request};

use crate::query::execute;
use crate::store::DataStore;

/// A running Ninf database server; stop with [`DbServer::shutdown`].
pub struct DbServer {
    reactor: ReactorHandle,
}

impl DbServer {
    /// Serve `store` on `addr` (use port 0 for ephemeral).
    pub fn start(addr: &str, store: DataStore) -> ProtocolResult<Self> {
        let listener = TcpListener::bind(addr)?;
        let store = Arc::new(store);
        let handler: Handler = Arc::new(move |req: Request| Some(answer(&store, req.message)));
        let reactor = Reactor::start(
            listener,
            ReactorConfig::default(),
            handler,
            ReactorHooks::default(),
        )?;
        Ok(Self { reactor })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.reactor.local_addr()
    }

    /// Stop serving: queries already received are answered, then every
    /// connection closes.
    pub fn shutdown(self) {
        self.reactor.shutdown();
    }
}

/// The reply to one request: a `DbReply`, or an `Error` for a failed query
/// or a message this server does not serve.
fn answer(store: &DataStore, msg: Message) -> Message {
    match msg {
        Message::DbQuery { query } => match execute(store, &query) {
            Ok((description, values)) => Message::DbReply {
                description,
                values,
            },
            Err(reason) => Message::Error { reason },
        },
        other => Message::Error {
            reason: format!("database server: unexpected {}", other.kind()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin_datasets;
    use ninf_client::{CallOptions, NinfClient};
    use ninf_protocol::{ProtocolError, Transport, Value};
    use ninf_reactor::TcpTransport;
    use std::time::Duration;

    fn query(addr: SocketAddr, q: &str) -> Result<(String, Vec<Value>), ProtocolError> {
        NinfClient::connect(&addr.to_string())?.ninf_query(q)
    }

    #[test]
    fn query_over_the_wire() {
        let server = DbServer::start("127.0.0.1:0", builtin_datasets()).unwrap();

        let (desc, values) = query(server.addr(), "GET matrix/hilbert4").unwrap();
        assert!(desc.contains("Hilbert"));
        assert_eq!(values[0], Value::IntArray(vec![4, 4]));
        let Value::DoubleArray(d) = &values[1] else {
            panic!()
        };
        assert_eq!(d.len(), 16);

        // Errors travel as Error messages.
        match query(server.addr(), "GET nothing/here") {
            Err(ProtocolError::Remote(reason)) => assert!(reason.contains("no dataset")),
            other => panic!("expected a remote error, got {other:?}"),
        }

        server.shutdown();
    }

    #[test]
    fn listing_over_the_wire() {
        let server = DbServer::start("127.0.0.1:0", builtin_datasets()).unwrap();
        let (names, _) = query(server.addr(), "LIST const/").unwrap();
        assert!(names.contains("const/pi"));
        server.shutdown();
    }

    #[test]
    fn rejects_non_db_messages() {
        let server = DbServer::start("127.0.0.1:0", builtin_datasets()).unwrap();
        let mut t = TcpTransport::connect(&server.addr().to_string()).unwrap();
        t.send(&Message::QueryLoad).unwrap();
        match t.recv().unwrap() {
            Message::Error { reason } => assert!(reason.contains("unexpected")),
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    /// Shutdown closes the connections it was serving, not just the
    /// listener: a client that connected before it gets no more answers.
    #[test]
    fn shutdown_closes_open_connections() {
        let server = DbServer::start("127.0.0.1:0", builtin_datasets()).unwrap();
        let options = CallOptions::with_deadline(Duration::from_secs(5));
        let mut client = NinfClient::connect_with(&server.addr().to_string(), options).unwrap();
        client.ninf_query("LIST").unwrap();
        server.shutdown();
        let after = client.ninf_query("LIST");
        assert!(
            matches!(after, Err(ref e) if !e.is_timeout()),
            "a query on a connection from before shutdown must fail at once, got {after:?}"
        );
    }

    #[test]
    fn fetched_hilbert_solves_with_linpack_kernels() {
        // End-to-end database -> computation: pull a matrix from the DB
        // server and solve it locally.
        let server = DbServer::start("127.0.0.1:0", builtin_datasets()).unwrap();
        let (_, values) = query(server.addr(), "GET matrix/hilbert4").unwrap();
        let Value::DoubleArray(data) = &values[1] else {
            panic!()
        };
        let mut a = ninf_exec::Matrix::from_col_major(4, 4, data.clone());
        let orig = a.clone();
        let b = orig.matvec(&[1.0; 4]);
        let mut rhs = b.clone();
        let x = ninf_exec::solve(&mut a, &mut rhs).unwrap();
        assert!(ninf_exec::residual_check(&orig, &x, &b) < 100.0);
        server.shutdown();
    }
}
