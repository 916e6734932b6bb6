//! The whole-system simulation driver: clients, one computational server,
//! the fluid network, and the `Ninf_call` lifecycle state machine.

use std::collections::HashMap;

use ninf_metaserver::{CallEstimate, ServerState};
use ninf_netsim::{Engine, FlowId, FlowSpec, FluidNet};
use ninf_protocol::{LoadReport, SplitMix64};

use crate::client::ClientProc;
use crate::metrics::{CallMetrics, CellResult};
use crate::scenario::Scenario;
use crate::server::ServerSim;

/// Heap events (network and CPU completions come from the fluid models).
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A client's decision epoch (§4.1: every `s` seconds, probability `p`).
    Decision { client: usize },
    /// Connection accepted at the server → `T_enqueue`.
    Accepted { call: u64 },
    /// Ninf executable forked → `T_dequeue`; the argument transfer begins.
    Forked { call: u64 },
    /// End of the warm-up window: reset measurement accounting.
    WarmupEnd,
    /// Background cross-traffic burst toggles on/off.
    CrossToggle,
}

/// Base fork&exec cost of spawning one Ninf executable (seconds).
const FORK_BASE_S: f64 = 0.02;

/// Exponential deviate with the given mean.
fn exp_sample(rng: &mut SplitMix64, mean: f64) -> f64 {
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Lifecycle phase of a call.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Connecting,
    Forking,
    RequestTransfer(FlowId),
    Computing,
    ReplyTransfer(FlowId),
}

#[derive(Debug, Clone)]
struct CallState {
    client: usize,
    /// Which server (0 = the scenario's primary) serves this call.
    server: usize,
    phase: Phase,
    t_submit: f64,
    t_enqueue: f64,
    t_dequeue: f64,
    transfer_seconds: f64,
    transfer_began: f64,
    bytes: f64,
    work_units: f64,
}

/// The assembled simulation world.
/// Static facts about one server in the world.
struct ServerSlot {
    sim: ServerSim,
    node: ninf_netsim::NodeId,
    /// Per-stream ceiling clients get to this server (`None`: use the
    /// client's own configured cap).
    stream_cap: Option<f64>,
    latency: f64,
    bandwidth_estimate: f64,
}

/// The assembled simulation world.
pub struct World {
    scenario: Scenario,
    engine: Engine<Event>,
    net: FluidNet,
    servers: Vec<ServerSlot>,
    rr_cursor: usize,
    clients: Vec<ClientProc>,
    calls: HashMap<u64, CallState>,
    flow_owner: HashMap<FlowId, u64>,
    next_call: u64,
    rng: SplitMix64,
    completed: Vec<CallMetrics>,
    measuring: bool,
    cross_flow: Option<FlowId>,
}

impl World {
    /// Build a world from a scenario.
    pub fn new(scenario: Scenario) -> Self {
        let mut engine = Engine::new();
        let net = FluidNet::new(scenario.network.topo.clone());
        let mut primary = ServerSim::new(scenario.server.clone(), scenario.mode, scenario.policy);
        primary.threads_per_job = scenario.threads_per_job;
        let mut servers = vec![ServerSlot {
            sim: primary,
            node: scenario.network.server_node,
            stream_cap: None,
            latency: 0.0,
            bandwidth_estimate: 0.0,
        }];
        for extra in &scenario.extra_servers {
            servers.push(ServerSlot {
                sim: ServerSim::new(extra.machine.clone(), extra.mode, scenario.policy),
                node: extra.node,
                stream_cap: Some(extra.stream_cap),
                latency: extra.latency,
                bandwidth_estimate: extra.bandwidth_estimate,
            });
        }
        let mut rng = SplitMix64::new(scenario.seed);
        let clients: Vec<ClientProc> = (0..scenario.clients.len())
            .map(|i| ClientProc::new(i, rng.fork()))
            .collect();
        // Stagger first decisions uniformly over one interval to avoid a
        // thundering herd at t = 0.
        for (i, _) in clients.iter().enumerate() {
            let offset = rng.next_f64() * scenario.interval_s;
            engine.schedule(offset, Event::Decision { client: i });
        }
        engine.schedule(scenario.warmup, Event::WarmupEnd);
        if scenario.cross_traffic.is_some() {
            engine.schedule(0.0, Event::CrossToggle);
        }
        let mut world = Self {
            scenario,
            engine,
            net,
            servers,
            rr_cursor: 0,
            clients,
            calls: HashMap::new(),
            flow_owner: HashMap::new(),
            next_call: 0,
            rng,
            completed: Vec::new(),
            measuring: false,
            cross_flow: None,
        };
        if world.scenario.warmup <= 0.0 {
            world.measuring = true;
        }
        world
    }

    /// Run to the scenario's end time and aggregate the table cell.
    pub fn run(mut self) -> CellResult {
        let t_end = self.scenario.duration;
        loop {
            let t_heap = self.engine.peek_time();
            let t_net = self.net.next_completion().map(|(t, _)| t);
            let now = self.engine.now();
            let t_cpu = self
                .servers
                .iter()
                .filter_map(|srv| srv.sim.next_job_completion(now))
                .map(|(t, _)| t)
                .min_by(f64::total_cmp);

            let next = [t_heap, t_net, t_cpu]
                .into_iter()
                .flatten()
                .fold(f64::INFINITY, f64::min);
            if !next.is_finite() || next > t_end {
                break;
            }

            // Dispatch the earliest source; ties prefer net/cpu completions
            // (they unblock state the heap events may need).
            if t_net.is_some_and(|t| t <= next + 1e-12) {
                let (t, flow) = self.net.next_completion().expect("checked");
                self.advance_all(t);
                self.net.finish_flow(flow);
                self.on_flow_done(flow);
            } else if t_cpu.is_some_and(|t| t <= next + 1e-12) {
                let (t, call) = self
                    .servers
                    .iter()
                    .filter_map(|srv| srv.sim.next_job_completion(now))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .expect("checked");
                self.advance_all(t);
                self.on_compute_done(call);
            } else {
                let entry = self.engine.pop().expect("heap had the minimum");
                self.net.advance_to(entry.time);
                for srv in &mut self.servers {
                    srv.sim.drain(entry.time);
                }
                self.handle(entry.event);
            }
        }
        // Multi-server cells report the *primary* server's accounting (the
        // paper always instruments one computational server).
        let now = self.now().max(self.scenario.warmup);
        let cpu = self.servers[0].sim.cpu_utilization(now);
        let (load_mean, load_max) = self.servers[0].sim.load_stats(now);
        CellResult::from_calls(
            self.scenario.workload.label(),
            self.scenario.clients.len(),
            &self.completed,
            cpu,
            load_mean,
            load_max,
        )
    }

    fn advance_all(&mut self, t: f64) {
        self.engine.advance_to(t);
        self.net.advance_to(t);
        for srv in &mut self.servers {
            srv.sim.drain(t);
        }
    }

    /// Re-run the PE water-fill on every server (marshal caps interact
    /// through shared links, so one server's change can shift another's
    /// achieved rates).
    fn rebalance_all(&mut self, now: f64) {
        for srv in &mut self.servers {
            srv.sim.rebalance(&mut self.net, now);
        }
    }

    /// Per-stream cap between `client` and `server`.
    fn cap_for(&self, client: usize, server: usize) -> f64 {
        self.servers[server]
            .stream_cap
            .unwrap_or(self.scenario.clients[client].stream_cap)
    }

    /// One-way latency between `client` and `server`.
    fn latency_for(&self, client: usize, server: usize) -> f64 {
        if server == 0 {
            self.scenario.clients[client].latency_to_server
        } else {
            self.servers[server].latency
        }
    }

    /// Pick a server for a new call using the metaserver's *live* balancing
    /// code over the simulated servers' current state.
    fn choose_server(&mut self) -> usize {
        let Some(balancing) = self.scenario.balancing else {
            return 0;
        };
        if self.servers.len() == 1 {
            return 0;
        }
        let w = self.scenario.workload;
        let states: Vec<ServerState> = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, srv)| {
                let pes = srv.sim.machine.pes as u32;
                let running = srv.sim.running_jobs() as u32;
                let queued = srv.sim.queued_jobs() as u32;
                let bandwidth = if i == 0 {
                    // The directory's estimate for the primary: the thin
                    // WAN path capacity if one exists, else the stream cap.
                    self.scenario
                        .clients
                        .first()
                        .map(|c| c.stream_cap)
                        .unwrap_or(1e6)
                } else {
                    srv.bandwidth_estimate
                };
                ServerState {
                    load: LoadReport {
                        pes,
                        running,
                        queued,
                        load_average: (running + queued) as f64,
                        cpu_utilization: 0.0,
                    },
                    bandwidth_bytes_per_sec: bandwidth,
                    linpack_mflops: srv.sim.machine.allpe_linpack.mflops(1000),
                }
            })
            .collect();
        let est = CallEstimate {
            bytes: w.request_bytes() + w.reply_bytes(),
            flops: w.work_units(),
        };
        balancing.choose(&states, est, &mut self.rr_cursor)
    }

    fn now(&self) -> f64 {
        self.engine.now()
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Decision { client } => self.on_decision(client),
            Event::Accepted { call } => self.on_accepted(call),
            Event::Forked { call } => self.on_forked(call),
            Event::WarmupEnd => {
                self.measuring = true;
                let now = self.now();
                for srv in &mut self.servers {
                    srv.sim.reset_windows(now);
                }
                self.completed.clear();
            }
            Event::CrossToggle => self.on_cross_toggle(),
        }
    }

    /// Toggle the background-traffic burst (exponential on/off process).
    fn on_cross_toggle(&mut self) {
        let now = self.now();
        let (ct, src, dst) = self
            .scenario
            .cross_traffic
            .expect("cross traffic configured");
        let next_delay = if let Some(flow) = self.cross_flow.take() {
            self.net.cancel_flow(flow);
            exp_sample(&mut self.rng, ct.mean_off)
        } else {
            // Effectively-infinite burst; removed at the next toggle. Its
            // cap is a fraction of the WAN site link.
            let cap = ct.intensity * crate::scenario::WAN_SITE_LINK;
            let flow = self.net.start_flow(
                FlowSpec {
                    src,
                    dst,
                    bytes: 1e15,
                    cap,
                },
                now,
            );
            self.cross_flow = Some(flow);
            exp_sample(&mut self.rng, ct.mean_on)
        };
        self.engine.schedule(now + next_delay, Event::CrossToggle);
    }

    fn on_decision(&mut self, client: usize) {
        let now = self.now();
        self.engine
            .schedule(now + self.scenario.interval_s, Event::Decision { client });
        let c = &mut self.clients[client];
        if c.busy {
            return;
        }
        if !c.rng.bernoulli(self.scenario.prob_p) {
            return;
        }
        c.busy = true;

        let call = self.next_call;
        self.next_call += 1;
        let server = self.choose_server();
        let w = self.scenario.workload;
        self.calls.insert(
            call,
            CallState {
                client,
                server,
                phase: Phase::Connecting,
                t_submit: now,
                t_enqueue: 0.0,
                t_dequeue: 0.0,
                transfer_seconds: 0.0,
                transfer_began: 0.0,
                bytes: w.request_bytes() + w.reply_bytes(),
                work_units: w.work_units(),
            },
        );
        // Connection: one round trip, the server's accept/dispatch overhead
        // (dominant on the SMP, Table 5), plus an occasional 1997-style SYN
        // retransmit timeout (the ~5 s maxima all over the paper's tables).
        let rtt = 2.0 * self.latency_for(client, server);
        let accept = self.servers[server].sim.machine.accept_overhead_s;
        let retry = if self.rng.bernoulli(self.scenario.syn_retry_prob) {
            5.0
        } else {
            0.0
        };
        self.engine
            .schedule(now + rtt + accept + retry, Event::Accepted { call });
    }

    fn on_accepted(&mut self, call: u64) {
        let now = self.now();
        let state = self.calls.get_mut(&call).expect("call exists");
        state.t_enqueue = now;
        state.phase = Phase::Forking;
        // fork & exec: base overhead stretched by how crowded the run queue
        // is (the slight growth of T_wait with c in Tables 3-5).
        let sim = &self.servers[self.calls[&call].server].sim;
        let crowding = 1.0 + sim.runnable_now() / sim.machine.pes as f64 * 0.5;
        let fork = FORK_BASE_S * crowding;
        self.engine.schedule(now + fork, Event::Forked { call });
    }

    fn on_forked(&mut self, call: u64) {
        let now = self.now();
        let (client, server, req_bytes) = {
            let state = self.calls.get_mut(&call).expect("call exists");
            state.t_dequeue = now;
            state.transfer_began = now;
            (
                state.client,
                state.server,
                self.scenario.workload.request_bytes(),
            )
        };
        let cap = self.cap_for(client, server);
        let flow = self.net.start_flow(
            FlowSpec {
                src: self.scenario.clients[client].node,
                dst: self.servers[server].node,
                bytes: req_bytes,
                cap,
            },
            now,
        );
        self.calls.get_mut(&call).expect("exists").phase = Phase::RequestTransfer(flow);
        self.flow_owner.insert(flow, call);
        self.servers[server].sim.transfer_started(flow, cap, now);
        self.rebalance_all(now);
    }

    fn on_flow_done(&mut self, flow: FlowId) {
        let now = self.now();
        let call = self.flow_owner.remove(&flow).expect("flow owner");
        let server = self.calls[&call].server;
        self.servers[server].sim.transfer_ended(flow, now);
        let state = self.calls.get_mut(&call).expect("call exists");
        state.transfer_seconds += now - state.transfer_began;

        match state.phase {
            Phase::RequestTransfer(_) => {
                state.phase = Phase::Computing;
                let sim = &mut self.servers[server].sim;
                let demand = sim.job_demand();
                let work = self
                    .scenario
                    .workload
                    .service_seconds(&sim.machine.clone(), demand.ceil() as usize)
                    * demand;
                sim.submit_job(call, work, now);
                self.rebalance_all(now);
            }
            Phase::ReplyTransfer(_) => {
                self.rebalance_all(now);
                self.complete_call(call);
            }
            other => unreachable!("flow finished in phase {other:?}"),
        }
    }

    fn on_compute_done(&mut self, call: u64) {
        let now = self.now();
        let server = self.calls[&call].server;
        let started = self.servers[server].sim.finish_job(call, now);
        let (client, reply_bytes) = {
            let state = self.calls.get_mut(&call).expect("call exists");
            state.transfer_began = now;
            (state.client, self.scenario.workload.reply_bytes())
        };
        let cap = self.cap_for(client, server);
        let flow = self.net.start_flow(
            FlowSpec {
                src: self.servers[server].node,
                dst: self.scenario.clients[client].node,
                bytes: reply_bytes,
                cap,
            },
            now,
        );
        self.calls.get_mut(&call).expect("exists").phase = Phase::ReplyTransfer(flow);
        self.flow_owner.insert(flow, call);
        self.servers[server].sim.transfer_started(flow, cap, now);
        self.rebalance_all(now);
        // Gate admissions have no extra bookkeeping here: the admitted
        // job's completion surfaces via next_job_completion.
        let _ = started;
    }

    fn complete_call(&mut self, call: u64) {
        let now = self.now();
        let state = self.calls.remove(&call).expect("call exists");
        self.clients[state.client].busy = false;
        if self.measuring && now <= self.scenario.duration {
            self.completed.push(CallMetrics {
                client: state.client,
                t_submit: state.t_submit,
                t_enqueue: state.t_enqueue,
                t_dequeue: state.t_dequeue,
                t_complete: now,
                transfer_seconds: state.transfer_seconds,
                bytes: state.bytes,
                work_units: state.work_units,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::workload::Workload;
    use ninf_server::{ExecMode, SchedPolicy};

    fn quick_lan(c: usize, w: Workload, mode: ExecMode) -> CellResult {
        let mut s = Scenario::lan(ninf_machine::j90(), c, w, mode, SchedPolicy::Fcfs, 42);
        s.duration = 400.0;
        s.warmup = 40.0;
        World::new(s).run()
    }

    #[test]
    fn single_client_lan_linpack_matches_table3_anchor() {
        // Table 3, n=600, c=1: mean 71.16 Mflops, throughput ≈ 2.5 MB/s.
        let cell = quick_lan(1, Workload::Linpack { n: 600 }, ExecMode::TaskParallel);
        assert!(cell.times > 10, "too few calls: {}", cell.times);
        assert!(
            (cell.perf.mean - 71.0).abs() < 8.0,
            "mean perf {} vs paper 71.16",
            cell.perf.mean
        );
        assert!(
            (cell.throughput.mean - 2.5).abs() < 0.4,
            "thpt {}",
            cell.throughput.mean
        );
    }

    #[test]
    fn four_pe_beats_one_pe_at_low_load() {
        // Fig 7: the data-parallel library has a substantial edge at small c.
        let one = quick_lan(1, Workload::Linpack { n: 1400 }, ExecMode::TaskParallel);
        let four = quick_lan(1, Workload::Linpack { n: 1400 }, ExecMode::DataParallel);
        assert!(
            four.perf.mean > one.perf.mean * 1.3,
            "4-PE {} vs 1-PE {}",
            four.perf.mean,
            one.perf.mean
        );
    }

    #[test]
    fn performance_degrades_with_clients() {
        let c1 = quick_lan(1, Workload::Linpack { n: 1000 }, ExecMode::TaskParallel);
        let c16 = quick_lan(16, Workload::Linpack { n: 1000 }, ExecMode::TaskParallel);
        assert!(
            c16.perf.mean < c1.perf.mean * 0.5,
            "c=16 {} vs c=1 {}",
            c16.perf.mean,
            c1.perf.mean
        );
        assert!(c16.cpu_utilization > c1.cpu_utilization);
        assert!(c16.load_average > c1.load_average);
    }

    #[test]
    fn ep_throughput_halves_beyond_pe_count() {
        // Table 8 shape: flat to c=4, halved at c=8 on the 4-PE J90. EP
        // calls must dwarf the decision interval (paper: ~200 s calls), so
        // clients are continuously busy and the PEs timeshare.
        let run_ep = |c: usize| {
            let mut s = Scenario::lan(
                ninf_machine::j90(),
                c,
                Workload::Ep { m: 22 },
                ExecMode::TaskParallel,
                SchedPolicy::Fcfs,
                7,
            );
            s.duration = 1600.0;
            s.warmup = 150.0;
            World::new(s).run()
        };
        let c4 = run_ep(4);
        let c8 = run_ep(8);
        let ratio = c8.perf.mean / c4.perf.mean;
        assert!((ratio - 0.5).abs() < 0.15, "ratio = {ratio}");
    }

    #[test]
    fn wan_leaves_server_idle() {
        // Tables 6/7: WAN clients cannot load the J90 (util ≈ 8-15%).
        let mut s = Scenario::single_site_wan(
            ninf_machine::j90(),
            16,
            Workload::Linpack { n: 1000 },
            ExecMode::TaskParallel,
            SchedPolicy::Fcfs,
            11,
        );
        s.duration = 2000.0;
        s.warmup = 100.0;
        let cell = World::new(s).run();
        assert!(
            cell.cpu_utilization < 25.0,
            "util = {}",
            cell.cpu_utilization
        );
        assert!(cell.perf.mean < 3.0, "perf = {}", cell.perf.mean);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = quick_lan(4, Workload::Linpack { n: 600 }, ExecMode::TaskParallel);
        let b = quick_lan(4, Workload::Linpack { n: 600 }, ExecMode::TaskParallel);
        assert_eq!(a.times, b.times);
        assert_eq!(a.perf.mean, b.perf.mean);
        assert_eq!(a.load_average, b.load_average);
    }

    #[test]
    fn different_seeds_differ() {
        let mut s1 = Scenario::lan(
            ninf_machine::j90(),
            4,
            Workload::Linpack { n: 600 },
            ExecMode::TaskParallel,
            SchedPolicy::Fcfs,
            1,
        );
        s1.duration = 300.0;
        let mut s2 = s1.clone();
        s2.seed = 2;
        let a = World::new(s1).run();
        let b = World::new(s2).run();
        assert_ne!(a.perf.mean, b.perf.mean);
    }
}
