//! Flow-level ("fluid") network model with max-min fair bandwidth sharing.
//!
//! Every active transfer is a *flow* draining at a rate determined by
//! progressive filling (water-filling) over the links of its route, subject
//! to an optional per-flow rate cap. The cap models two real phenomena from
//! the paper:
//!
//! * the per-stream TCP ceiling ("the three lines saturating at approximately
//!   2 MB/s are … clients versus J90 Ninf server throughput", Fig 5), and
//! * the server-side XDR marshalling rate, which contends with computation
//!   for server PEs and is why LAN aggregate throughput *falls* as CPU
//!   utilization saturates (Tables 3/4).
//!
//! Rates are recomputed whenever the flow set or a cap changes; between
//! changes each flow drains linearly, so completions are exact — no
//! time-stepping error. Propagation latency is the driver's concern (it knows
//! [`crate::topology::Topology::path_latency`] and schedules delivery events
//! accordingly); the fluid model handles only bandwidth contention.

use std::collections::HashMap;

use crate::topology::{LinkId, NodeId, Topology};

/// Identifier of an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Parameters of a new flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bytes to transfer.
    pub bytes: f64,
    /// Per-flow rate ceiling in bytes/second (`f64::INFINITY` for none).
    pub cap: f64,
}

#[derive(Debug, Clone)]
struct Flow {
    path: Vec<LinkId>,
    remaining: f64,
    rate: f64,
    cap: f64,
}

/// The fluid network: topology + active flows + fair-share rates.
#[derive(Debug, Clone)]
pub struct FluidNet {
    topo: Topology,
    flows: HashMap<FlowId, Flow>,
    order: Vec<FlowId>, // deterministic iteration order (insertion order)
    next_id: u64,
    now: f64,
    /// Cumulative bytes delivered across all flows (for aggregate stats).
    delivered: f64,
    /// Per-link failure state: a downed link carries zero bandwidth, so
    /// flows crossing it freeze at rate 0 (the sim-side mirror of a hung or
    /// dropped connection on the live path).
    down: Vec<bool>,
}

const EPS: f64 = 1e-9;

impl FluidNet {
    /// Wrap a routed topology.
    ///
    /// # Panics
    /// Panics later (at `start_flow`) if routes were not computed.
    pub fn new(topo: Topology) -> Self {
        let down = vec![false; topo.link_count()];
        Self {
            topo,
            flows: HashMap::new(),
            order: Vec::new(),
            next_id: 0,
            now: 0.0,
            delivered: 0.0,
            down,
        }
    }

    /// Access the underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Current virtual time of the network.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Total bytes delivered by completed-and-finished or still-active flows.
    pub fn bytes_delivered(&self) -> f64 {
        self.delivered
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Start a flow at absolute time `at` (must be ≥ the network's time;
    /// the network is advanced to `at` first).
    ///
    /// # Panics
    /// Panics if `src` cannot reach `dst` or `bytes`/`cap` are invalid.
    pub fn start_flow(&mut self, spec: FlowSpec, at: f64) -> FlowId {
        self.advance_to(at);
        assert!(
            spec.bytes >= 0.0 && !spec.bytes.is_nan(),
            "invalid byte count"
        );
        assert!(
            spec.cap > 0.0,
            "flow cap must be positive (use INFINITY for none)"
        );
        let path = self
            .topo
            .route(spec.src, spec.dst)
            .unwrap_or_else(|| {
                panic!(
                    "no route {} -> {}",
                    self.topo.node_name(spec.src),
                    self.topo.node_name(spec.dst)
                )
            })
            .to_vec();
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                path,
                remaining: spec.bytes,
                rate: 0.0,
                cap: spec.cap,
            },
        );
        self.order.push(id);
        self.recompute();
        id
    }

    /// Change a flow's rate cap (e.g. the server's marshalling share changed).
    pub fn set_cap(&mut self, id: FlowId, cap: f64, at: f64) {
        self.advance_to(at);
        assert!(cap > 0.0, "flow cap must be positive");
        self.flows.get_mut(&id).expect("unknown flow").cap = cap;
        self.recompute();
    }

    /// Remaining bytes of a flow.
    pub fn remaining(&self, id: FlowId) -> f64 {
        self.flows[&id].remaining
    }

    /// Current rate of a flow (bytes/second).
    pub fn rate(&self, id: FlowId) -> f64 {
        self.flows[&id].rate
    }

    /// The route a flow takes.
    pub fn path(&self, id: FlowId) -> &[LinkId] {
        &self.flows[&id].path
    }

    /// Earliest completion among active flows: `(time, flow)`.
    ///
    /// Flows with zero rate (fully starved) never complete and are skipped.
    /// Ties resolve to the earliest-started flow, deterministically.
    pub fn next_completion(&self) -> Option<(f64, FlowId)> {
        let mut best: Option<(f64, FlowId)> = None;
        for &id in &self.order {
            let Some(f) = self.flows.get(&id) else {
                continue;
            };
            if f.rate <= 0.0 {
                if f.remaining <= EPS {
                    // zero-byte flow: completes immediately
                    let t = self.now;
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, id));
                    }
                }
                continue;
            }
            let t = self.now + f.remaining / f.rate;
            if best.is_none_or(|(bt, _)| t < bt - EPS) {
                best = Some((t, id));
            }
        }
        best
    }

    /// Advance the network clock to `to`, draining all flows at their current
    /// rates.
    ///
    /// # Panics
    /// Panics if `to` lies beyond the earliest pending completion (the driver
    /// must process completions in order) or moves time backwards.
    pub fn advance_to(&mut self, to: f64) {
        assert!(to >= self.now - EPS, "cannot move network time backwards");
        if to <= self.now {
            return;
        }
        if let Some((t, _)) = self.next_completion() {
            assert!(
                to <= t + 1e-6,
                "advancing to {to} would skip a completion at {t}"
            );
        }
        let dt = to - self.now;
        for f in self.flows.values_mut() {
            let drained = (f.rate * dt).min(f.remaining);
            f.remaining -= drained;
            self.delivered += drained;
        }
        self.now = to;
    }

    /// Remove a completed flow (remaining must be ≈ 0).
    ///
    /// # Panics
    /// Panics if the flow still has bytes left; use [`FluidNet::cancel_flow`]
    /// to abort a transfer.
    pub fn finish_flow(&mut self, id: FlowId) {
        let f = self.flows.get(&id).expect("unknown flow");
        assert!(
            f.remaining <= 1e-3,
            "finish_flow on incomplete flow ({} bytes left)",
            f.remaining
        );
        self.flows.remove(&id);
        self.order.retain(|&x| x != id);
        self.recompute();
    }

    /// Abort a flow regardless of progress (fault injection, two-phase
    /// disconnect).
    pub fn cancel_flow(&mut self, id: FlowId) {
        self.flows.remove(&id);
        self.order.retain(|&x| x != id);
        self.recompute();
    }

    /// Fail a link at time `at`: its bandwidth drops to zero and every flow
    /// crossing it freezes (rate 0, never completing) until the link is
    /// restored or the flow is cancelled. This mirrors the live path's
    /// accepting-but-silent server: bytes stop, the connection doesn't
    /// error — only the client's deadline notices.
    pub fn fail_link(&mut self, link: LinkId, at: f64) {
        self.advance_to(at);
        self.down[link.0] = true;
        self.recompute();
    }

    /// Bring a failed link back at time `at`; affected flows resume at their
    /// recomputed fair share.
    pub fn restore_link(&mut self, link: LinkId, at: f64) {
        self.advance_to(at);
        self.down[link.0] = false;
        self.recompute();
    }

    /// Whether a link is currently failed.
    pub fn link_is_down(&self, link: LinkId) -> bool {
        self.down[link.0]
    }

    /// Recompute max-min fair rates by progressive filling.
    ///
    /// Each unfrozen flow's rate grows at unit speed; a flow freezes when it
    /// hits its cap or when a link on its path saturates. Complexity is
    /// O(rounds × (flows + links)), with at most `flows` rounds.
    fn recompute(&mut self) {
        let n_links = self.topo.link_count();
        let mut avail: Vec<f64> = (0..n_links)
            .map(|i| {
                if self.down[i] {
                    0.0
                } else {
                    self.topo.link(LinkId(i)).capacity
                }
            })
            .collect();
        let mut unfrozen: Vec<FlowId> = Vec::with_capacity(self.flows.len());
        for &id in &self.order {
            if let Some(f) = self.flows.get_mut(&id) {
                f.rate = 0.0;
                unfrozen.push(id);
            }
        }
        // Flows with empty paths (src == dst) run at their cap immediately.
        unfrozen.retain(|id| {
            let f = self.flows.get_mut(id).expect("flow exists");
            if f.path.is_empty() {
                f.rate = if f.cap.is_finite() { f.cap } else { f64::MAX };
                false
            } else {
                true
            }
        });

        let mut link_users = vec![0usize; n_links];
        while !unfrozen.is_empty() {
            for u in link_users.iter_mut() {
                *u = 0;
            }
            for id in &unfrozen {
                for &l in &self.flows[id].path {
                    link_users[l.0] += 1;
                }
            }
            // Largest equal increment all unfrozen flows can take.
            let mut inc = f64::INFINITY;
            for (i, &users) in link_users.iter().enumerate() {
                if users > 0 {
                    inc = inc.min(avail[i] / users as f64);
                }
            }
            for id in &unfrozen {
                let f = &self.flows[id];
                inc = inc.min(f.cap - f.rate);
            }
            debug_assert!(inc.is_finite(), "caps or links must bound every flow");
            let inc = inc.max(0.0);

            for id in &unfrozen {
                let f = self.flows.get_mut(id).expect("flow exists");
                f.rate += inc;
                for &l in &f.path {
                    avail[l.0] -= inc;
                }
            }
            // Freeze flows at cap or on saturated links.
            unfrozen.retain(|id| {
                let f = &self.flows[id];
                let capped = f.rate >= f.cap - EPS * f.cap.max(1.0);
                let saturated = f
                    .path
                    .iter()
                    .any(|&l| avail[l.0] <= EPS * self.topo.link(l).capacity.max(1.0));
                !(capped || saturated)
            });
        }
    }

    /// Per-link utilized bandwidth (sum of flow rates crossing each link).
    pub fn link_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.topo.link_count()];
        for f in self.flows.values() {
            for &l in &f.path {
                loads[l.0] += f.rate;
            }
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n_clients: usize, access_cap: f64, server_cap: f64) -> (FluidNet, Vec<NodeId>, NodeId) {
        let mut t = Topology::new();
        let clients: Vec<NodeId> = (0..n_clients)
            .map(|i| t.add_node(format!("c{i}")))
            .collect();
        let sw = t.add_node("switch");
        let srv = t.add_node("server");
        for &c in &clients {
            t.add_duplex_link(c, sw, access_cap, 0.0);
        }
        t.add_duplex_link(sw, srv, server_cap, 0.0);
        t.compute_routes();
        (FluidNet::new(t), clients, srv)
    }

    #[test]
    fn single_flow_gets_bottleneck_bandwidth() {
        let (mut net, clients, srv) = star(1, 100.0, 10.0);
        let f = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 20.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        assert!((net.rate(f) - 10.0).abs() < 1e-9);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!((t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_share_equally() {
        let (mut net, clients, srv) = star(4, 100.0, 10.0);
        let flows: Vec<FlowId> = clients
            .iter()
            .map(|&c| {
                net.start_flow(
                    FlowSpec {
                        src: c,
                        dst: srv,
                        bytes: 10.0,
                        cap: f64::INFINITY,
                    },
                    0.0,
                )
            })
            .collect();
        for &f in &flows {
            assert!((net.rate(f) - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn cap_limits_flow_and_releases_bandwidth() {
        let (mut net, clients, srv) = star(2, 100.0, 10.0);
        let capped = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 10.0,
                cap: 2.0,
            },
            0.0,
        );
        let open = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 10.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        assert!((net.rate(capped) - 2.0).abs() < 1e-9);
        // The uncapped flow picks up the slack: 10 - 2 = 8.
        assert!((net.rate(open) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn rates_rebalance_on_completion() {
        let (mut net, clients, srv) = star(2, 100.0, 10.0);
        let f1 = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 5.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 50.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let (t1, id1) = net.next_completion().unwrap();
        assert_eq!(id1, f1);
        assert!((t1 - 1.0).abs() < 1e-9); // 5 bytes at 5 B/s
        net.advance_to(t1);
        net.finish_flow(f1);
        assert!((net.rate(f2) - 10.0).abs() < 1e-9);
        let (t2, _) = net.next_completion().unwrap();
        // 50 - 5 = 45 left at 10 B/s -> 4.5 s more.
        assert!((t2 - 5.5).abs() < 1e-9);
    }

    #[test]
    fn access_link_can_be_the_bottleneck() {
        let (mut net, clients, srv) = star(2, 3.0, 100.0);
        let f1 = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 10.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 10.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        // Separate access links of 3.0 each; server link 100 is not binding.
        assert!((net.rate(f1) - 3.0).abs() < 1e-9);
        assert!((net.rate(f2) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let (mut net, clients, srv) = star(1, 100.0, 10.0);
        let up = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let down = net.start_flow(
            FlowSpec {
                src: srv,
                dst: clients[0],
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        assert!((net.rate(up) - 10.0).abs() < 1e-9);
        assert!((net.rate(down) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn set_cap_rebalances() {
        let (mut net, clients, srv) = star(2, 100.0, 10.0);
        let f1 = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        net.set_cap(f1, 1.0, 0.0);
        assert!((net.rate(f1) - 1.0).abs() < 1e-9);
        assert!((net.rate(f2) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn cancel_mid_transfer() {
        let (mut net, clients, srv) = star(2, 100.0, 10.0);
        let f1 = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        net.advance_to(1.0);
        net.cancel_flow(f1);
        assert!((net.rate(f2) - 10.0).abs() < 1e-9);
        assert_eq!(net.active_flows(), 1);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let (mut net, clients, srv) = star(1, 100.0, 10.0);
        let f = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 0.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, 0.0);
        net.finish_flow(f);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn bytes_delivered_accumulates() {
        let (mut net, clients, srv) = star(1, 100.0, 10.0);
        let f = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 20.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        net.advance_to(1.0);
        assert!((net.bytes_delivered() - 10.0).abs() < 1e-9);
        net.advance_to(2.0);
        net.finish_flow(f);
        assert!((net.bytes_delivered() - 20.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "skip a completion")]
    fn advancing_past_completion_panics() {
        let (mut net, clients, srv) = star(1, 100.0, 10.0);
        net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 10.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        net.advance_to(100.0);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unroutable_flow_panics() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_duplex_link(a, b, 1.0, 0.0);
        t.compute_routes();
        let mut net = FluidNet::new(t);
        net.start_flow(
            FlowSpec {
                src: a,
                dst: c,
                bytes: 1.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
    }

    #[test]
    fn failed_link_starves_its_flows_but_not_others() {
        let (mut net, clients, srv) = star(2, 100.0, 10.0);
        let f1 = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        // Fail client 0's access link (its first hop).
        let cut = net.path(f1)[0];
        net.fail_link(cut, 0.0);
        assert!(net.link_is_down(cut));
        assert_eq!(net.rate(f1), 0.0);
        // The survivor inherits the whole server link.
        assert!((net.rate(f2) - 10.0).abs() < 1e-9);
        // A starved flow never completes: only f2's completion is pending.
        let (_, id) = net.next_completion().unwrap();
        assert_eq!(id, f2);
    }

    #[test]
    fn restore_link_resumes_frozen_flows() {
        let (mut net, clients, srv) = star(1, 100.0, 10.0);
        let f = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 20.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let cut = net.path(f)[0];
        net.fail_link(cut, 1.0); // 10 bytes through, 10 stranded
        assert_eq!(net.rate(f), 0.0);
        assert!(net.next_completion().is_none());
        // Downtime passes without progress.
        net.advance_to(5.0);
        assert!((net.remaining(f) - 10.0).abs() < 1e-9);
        net.restore_link(cut, 5.0);
        assert!(!net.link_is_down(cut));
        assert!((net.rate(f) - 10.0).abs() < 1e-9);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        // 10 bytes left at 10 B/s, resuming at t=5.
        assert!((t - 6.0).abs() < 1e-9);
    }

    #[test]
    fn cancelling_a_starved_flow_models_client_timeout() {
        // The live client gives up on a hung transfer after its deadline;
        // the sim mirror is cancel_flow on a starved flow.
        let (mut net, clients, srv) = star(2, 100.0, 10.0);
        let f1 = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 100.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let cut = net.path(f1)[0];
        net.fail_link(cut, 0.0);
        net.advance_to(3.0); // the "deadline"
        net.cancel_flow(f1);
        assert_eq!(net.active_flows(), 1);
        assert!((net.rate(f2) - 10.0).abs() < 1e-9);
    }

    /// Three flows, staggered caps: max-min should give (1, 4.5, 4.5).
    #[test]
    fn textbook_maxmin_example() {
        let (mut net, clients, srv) = star(3, 100.0, 10.0);
        let f1 = net.start_flow(
            FlowSpec {
                src: clients[0],
                dst: srv,
                bytes: 1.0,
                cap: 1.0,
            },
            0.0,
        );
        let f2 = net.start_flow(
            FlowSpec {
                src: clients[1],
                dst: srv,
                bytes: 1.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        let f3 = net.start_flow(
            FlowSpec {
                src: clients[2],
                dst: srv,
                bytes: 1.0,
                cap: f64::INFINITY,
            },
            0.0,
        );
        assert!((net.rate(f1) - 1.0).abs() < 1e-9);
        assert!((net.rate(f2) - 4.5).abs() < 1e-9);
        assert!((net.rate(f3) - 4.5).abs() < 1e-9);
    }
}
