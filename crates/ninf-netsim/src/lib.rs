//! Deterministic discrete-event network simulation substrate.
//!
//! The paper's Conclusion motivates exactly this component: "on the Internet
//! it is quite difficult to perform large-scale benchmarks with reproducible
//! results. One current plan we have is to build a global computing simulator
//! for Ninf, on which we could readily test different client network
//! topologies under various communication and other parameters." This crate
//! is that simulator's substrate:
//!
//! * [`engine`] — a generic discrete-event engine with a deterministic
//!   (time, sequence) total order and virtual clock;
//! * [`fluid`] — a flow-level ("fluid") network model: a topology of links
//!   with capacities and latencies, and transfers that share bottleneck links
//!   under **max-min fairness** with optional per-flow rate caps (modelling
//!   per-stream TCP ceilings and server-side marshalling limits);
//! * [`topology`] — node/link graph with static shortest-path routing and
//!   helpers to build the paper's LAN, single-site WAN, and 4-site WAN
//!   configurations;
//! * [`rng`] — a small deterministic SplitMix64 generator for client arrival
//!   processes (no OS entropy ever enters a simulation);
//! * [`wan`] — the simulator half of `ninf-protocol`'s link model: the
//!   same `LinkShape` and per-send event function, imported rather than
//!   mirrored, with chunked parallel-stream uploads simulated as fluid
//!   flows to predict the goodput-vs-streams curve the live `wan-streams`
//!   benchmark measures.
//!
//! Time is `f64` seconds; determinism comes from the engine's sequence-number
//! tie-break, not from quantizing time.

pub mod engine;
pub mod fluid;
pub mod rng;
pub mod topology;
pub mod wan;

pub use engine::{Engine, EventEntry};
pub use fluid::{FlowId, FlowSpec, FluidNet};
pub use rng::SplitMix64;
pub use topology::{LinkId, NodeId, Topology};
pub use wan::{goodput_curve, simulate_upload, WanRun, CHUNK_WIRE_OVERHEAD};

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-client / one-server star: both flows share the server access
    /// link fairly, then the remaining flow speeds up — the core behaviour
    /// behind every multi-client table in the paper.
    #[test]
    fn shared_bottleneck_end_to_end() {
        let mut topo = Topology::new();
        let c1 = topo.add_node("client1");
        let c2 = topo.add_node("client2");
        let sw = topo.add_node("switch");
        let srv = topo.add_node("server");
        topo.add_duplex_link(c1, sw, 100.0, 0.0);
        topo.add_duplex_link(c2, sw, 100.0, 0.0);
        topo.add_duplex_link(sw, srv, 10.0, 0.0); // bottleneck
        topo.compute_routes();

        let mut net = FluidNet::new(topo);
        let f1 = net.start_flow(
            FlowSpec {
                src: c1,
                dst: srv,
                bytes: 50.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: c2,
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );

        // Both share the 10 B/s bottleneck: 5 B/s each. f1 finishes at t=10.
        let (t1, done1) = net.next_completion().unwrap();
        assert_eq!(done1, f1);
        assert!((t1 - 10.0).abs() < 1e-9);
        net.advance_to(t1);
        net.finish_flow(f1);

        // f2 has 50 bytes left and now gets the full 10 B/s: done at t=15.
        let (t2, done2) = net.next_completion().unwrap();
        assert_eq!(done2, f2);
        assert!((t2 - 15.0).abs() < 1e-9);
    }
}
