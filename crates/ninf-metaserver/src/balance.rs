//! Load-balancing policies.

use ninf_protocol::LoadReport;

/// What the metaserver knows about one computational server when choosing.
#[derive(Debug, Clone)]
pub struct ServerState {
    /// Last load report from monitoring.
    pub load: LoadReport,
    /// Estimated achievable client↔server bandwidth in bytes/second
    /// (measured by probes or configured; the paper measured FTP throughput).
    pub bandwidth_bytes_per_sec: f64,
    /// Calibrated Linpack rate of the server's registered library in Mflops
    /// (for completion-time prediction).
    pub linpack_mflops: f64,
}

/// Cost characteristics of the call being placed (derived from the IDL
/// layout, §5.1: "IDL and server execution trace will give us effective
/// information for predicting the communication transfer time versus
/// computing time").
#[derive(Debug, Clone, Copy)]
pub struct CallEstimate {
    /// Total array payload bytes (request + reply).
    pub bytes: f64,
    /// Floating-point operations of the computation.
    pub flops: f64,
}

/// Server-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Balancing {
    /// Rotate through servers regardless of state.
    RoundRobin,
    /// Pick the server with the lowest normalized runnable count
    /// (NetSolve-style: "current NetSolve attempts to perform load balancing
    /// solely on server load average information", §6).
    LoadBased,
    /// Pick the server with the highest achievable bandwidth (the paper's
    /// WAN recommendation).
    BandwidthAware,
    /// Minimize predicted completion time `bytes/B + flops/P + queueing`.
    MinCompletion,
}

impl Balancing {
    /// Choose a server index. `rr_state` carries the round-robin cursor.
    ///
    /// # Panics
    /// Panics if `servers` is empty.
    pub fn choose(
        &self,
        servers: &[ServerState],
        call: CallEstimate,
        rr_state: &mut usize,
    ) -> usize {
        assert!(!servers.is_empty(), "no servers registered");
        match self {
            Balancing::RoundRobin => {
                let i = *rr_state % servers.len();
                *rr_state += 1;
                i
            }
            Balancing::LoadBased => argmin(servers, |s| {
                (s.load.running + s.load.queued) as f64 / s.load.pes.max(1) as f64
            }),
            Balancing::BandwidthAware => argmin(servers, |s| -s.bandwidth_bytes_per_sec),
            Balancing::MinCompletion => argmin(servers, |s| {
                let t_comm = call.bytes / s.bandwidth_bytes_per_sec;
                // A queued/running backlog delays us by roughly its share of
                // the PEs; fold it into an effective rate derating.
                let backlog = (s.load.running + s.load.queued) as f64 / s.load.pes.max(1) as f64;
                let t_comp = call.flops / (s.linpack_mflops * 1e6) * (1.0 + backlog);
                t_comm + t_comp
            }),
        }
    }

    /// Whether the policy reads server loads, which cost a probe per
    /// server per placement; the others choose from the directory alone.
    pub fn reads_load(&self) -> bool {
        matches!(self, Balancing::LoadBased | Balancing::MinCompletion)
    }

    /// All policies, for ablation sweeps.
    pub fn all() -> [Balancing; 4] {
        [
            Balancing::RoundRobin,
            Balancing::LoadBased,
            Balancing::BandwidthAware,
            Balancing::MinCompletion,
        ]
    }

    /// Table name.
    pub fn name(&self) -> &'static str {
        match self {
            Balancing::RoundRobin => "round-robin",
            Balancing::LoadBased => "load-based (NetSolve-style)",
            Balancing::BandwidthAware => "bandwidth-aware",
            Balancing::MinCompletion => "min-completion",
        }
    }
}

fn argmin(servers: &[ServerState], key: impl Fn(&ServerState) -> f64) -> usize {
    servers
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| key(a).total_cmp(&key(b)))
        .map(|(i, _)| i)
        .expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(running: u32, queued: u32, pes: u32, bw: f64, mflops: f64) -> ServerState {
        ServerState {
            load: LoadReport {
                pes,
                running,
                queued,
                load_average: (running + queued) as f64,
                cpu_utilization: 0.0,
            },
            bandwidth_bytes_per_sec: bw,
            linpack_mflops: mflops,
        }
    }

    const CALL: CallEstimate = CallEstimate {
        bytes: 8e6,
        flops: 1e9,
    };

    #[test]
    fn round_robin_rotates() {
        let servers = vec![state(0, 0, 4, 1e6, 100.0); 3];
        let mut rr = 0;
        let picks: Vec<usize> = (0..6)
            .map(|_| Balancing::RoundRobin.choose(&servers, CALL, &mut rr))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn load_based_picks_idle_server() {
        let servers = vec![state(4, 8, 4, 1e6, 100.0), state(1, 0, 4, 1e6, 100.0)];
        let mut rr = 0;
        assert_eq!(Balancing::LoadBased.choose(&servers, CALL, &mut rr), 1);
    }

    #[test]
    fn load_based_normalizes_by_pes() {
        // 4 runnable on 16 PEs is lighter than 2 runnable on 1 PE.
        let servers = vec![state(2, 0, 1, 1e6, 100.0), state(4, 0, 16, 1e6, 100.0)];
        let mut rr = 0;
        assert_eq!(Balancing::LoadBased.choose(&servers, CALL, &mut rr), 1);
    }

    #[test]
    fn bandwidth_aware_ignores_load() {
        // The paper's WAN lesson: the loaded-but-close server wins over the
        // idle-but-far one for communication-bound work.
        let servers = vec![
            state(0, 0, 4, 0.17e6, 600.0), // idle, thin WAN pipe
            state(3, 2, 4, 2.5e6, 600.0),  // busy, fat LAN pipe
        ];
        let mut rr = 0;
        assert_eq!(Balancing::BandwidthAware.choose(&servers, CALL, &mut rr), 1);
    }

    #[test]
    fn min_completion_trades_comm_and_comp() {
        // Communication-heavy call: bandwidth dominates.
        let comm_heavy = CallEstimate {
            bytes: 20e6,
            flops: 1e8,
        };
        let servers = vec![
            state(0, 0, 4, 0.17e6, 600.0), // super fast compute, slow pipe
            state(0, 0, 1, 2.5e6, 35.0),   // modest compute, fast pipe
        ];
        let mut rr = 0;
        assert_eq!(
            Balancing::MinCompletion.choose(&servers, comm_heavy, &mut rr),
            1
        );

        // Compute-heavy call (EP-like): the supercomputer wins despite the pipe.
        let comp_heavy = CallEstimate {
            bytes: 100.0,
            flops: 5e11,
        };
        assert_eq!(
            Balancing::MinCompletion.choose(&servers, comp_heavy, &mut rr),
            0
        );
    }

    #[test]
    fn min_completion_avoids_backlogged_server() {
        let servers = vec![state(4, 12, 4, 2.5e6, 600.0), state(0, 0, 4, 2.5e6, 600.0)];
        let mut rr = 0;
        assert_eq!(Balancing::MinCompletion.choose(&servers, CALL, &mut rr), 1);
    }

    #[test]
    #[should_panic(expected = "no servers")]
    fn empty_directory_panics() {
        let mut rr = 0;
        Balancing::RoundRobin.choose(&[], CALL, &mut rr);
    }
}
